//! **Ablations A1–A8** — converter bits, RU/RL fill, NoC, stuck-at
//! faults, variation model, fidelity, sparsity and drift, each study run
//! once (see [`memlp_bench::ablation`]).
//!
//! `MEMLP_TRIALS=k` overrides every study's trial count.

fn main() {
    memlp_bench::ablation::run();
}
