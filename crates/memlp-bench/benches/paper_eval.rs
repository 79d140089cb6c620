//! **§4 evaluation** — Figs 5–7, the §4.2/§4.3 iteration study, the §4.4
//! headline and the §4.3 variation control, each experiment run once
//! (see [`memlp_bench::paper`]).
//!
//! Run with `MEMLP_FULL=1` for the paper's full grid (m up to 1024, the
//! headline at m = 1024).

fn main() {
    memlp_bench::paper::run();
}
