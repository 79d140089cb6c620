//! Dense-vs-sparse Newton core equivalence on one Algorithm 1 step.
//!
//! The sparse core is a *digital controller* substitution: the analog
//! physics (realized blocks, quantization, charging) is identical under
//! both factorizations, so the step directions read through the shared ADC
//! must agree. Whole-solve comparisons (iterate counts, objectives,
//! factorization counters) are unit tests in `solver.rs`, which can force
//! the factorization for every attempt.

use memlp_core::{AugmentedSystem, Factorization};
use memlp_crossbar::CrossbarConfig;
use memlp_lp::domains::{transportation_lp, TransportationProblem};
use memlp_solvers::pdip::PdipState;

#[test]
fn directions_identical_through_shared_adc() {
    // Same hardware seed → identical realized blocks; the two digital
    // factorizations differ only at floating-point noise, which the shared
    // ADC read-out quantizes away: the solved directions must be equal to
    // 1e-9 relative (and in practice bitwise).
    let lp = transportation_lp(&TransportationProblem::random(3, 9, 5)).expect("valid domain");
    let state = PdipState::new(&lp);
    let run = |factorization: Factorization| {
        let mut hw = memlp_core::HwContext::new(CrossbarConfig::paper_default().with_seed(17));
        let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
        sys.force_factorization(factorization);
        let mu = state.mu();
        let s = sys.s_vector(&state);
        let ms = sys.mvm(&s, &mut hw);
        let constant = sys.rhs_constant(&lp, mu);
        let r = sys.assemble_rhs(&constant, &ms);
        sys.solve(&r, &mut hw).expect("solvable realized system")
    };
    let d = run(Factorization::Dense);
    let sp = run(Factorization::Sparse);
    let scale = d
        .dirs
        .dx
        .iter()
        .chain(&d.dirs.dy)
        .fold(0.0f64, |m, v| m.max(v.abs()));
    for (got, want) in sp
        .dirs
        .dx
        .iter()
        .chain(&sp.dirs.dy)
        .chain(&sp.dirs.dz)
        .chain(&sp.dirs.dw)
        .zip(
            d.dirs
                .dx
                .iter()
                .chain(&d.dirs.dy)
                .chain(&d.dirs.dz)
                .chain(&d.dirs.dw),
        )
    {
        assert!(
            (got - want).abs() <= 1e-9 * scale,
            "direction mismatch: {got} vs {want}"
        );
    }
}
