use crate::matrix::Matrix;

/// Matrix infinity-norm (maximum absolute row sum).
pub fn inf_norm_mat(a: &Matrix) -> f64 {
    let mut best = 0.0f64;
    for i in 0..a.rows() {
        best = best.max(crate::ops::one_norm(a.row(i)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_norm_is_max_row_sum() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(inf_norm_mat(&a), 7.0);
    }
}
