fn f(o: Option<u32>) -> u32 {
    o.unwrap()
}
fn g(r: Result<u32, ()>) -> u32 {
    r.expect("boom")
}
fn h() {
    panic!("no");
}
fn t() {
    todo!()
}
fn u() {
    unimplemented!()
}
fn v() {
    unreachable!()
}
fn fine(o: Option<u32>) -> u32 {
    o.unwrap_or_default()
}
#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_unwrap() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
