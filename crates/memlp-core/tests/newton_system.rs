//! Direct tests of the Eqn-14a augmented system against the textbook
//! Newton system it must reproduce.

use memlp_core::{AugmentedDirections, AugmentedSystem, Factorization, HwContext};
use memlp_crossbar::{CrossbarConfig, OpCounts};
use memlp_linalg::ops;
use memlp_lp::domains::{transportation_lp, TransportationProblem};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use memlp_solvers::pdip::PdipState;
use memlp_solvers::{DensePdip, LpSolver};

/// Ideal hardware (no variation, 16-bit converters) for exact comparisons.
fn ideal_hw() -> HwContext {
    HwContext::new(CrossbarConfig::ideal())
}

#[test]
fn dimensions_follow_eqn_14a() {
    let lp = RandomLp::paper(18, 1).feasible();
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let state = PdipState::new(&lp);
    let mut hw = ideal_hw();
    let sys = AugmentedSystem::program(&lp, &state, &mut hw);
    // k = columns of A with negatives + rows of A with negatives.
    let k = sys.num_compensations();
    assert!(k > 0, "mixed-sign A must need compensation");
    assert_eq!(sys.dim(), 3 * n + 3 * m + k);
    assert_eq!(sys.s_vector(&state).len(), sys.dim());
}

#[test]
fn mvm_consistency_rows_vanish() {
    // Rows R5–R7 of M·s encode u = −w, v = −z, p = −(x|y)_sel; on ideal
    // hardware they must evaluate to ~0 (quantization only).
    let lp = RandomLp::paper(15, 3).feasible();
    let state = PdipState::new(&lp);
    let mut hw = ideal_hw();
    let sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let s = sys.s_vector(&state);
    let ms = sys.mvm(&s, &mut hw);
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let scale = ops::inf_norm(&ms).max(1.0);
    for (i, v) in ms[2 * (n + m)..].iter().enumerate() {
        assert!(
            v.abs() < 1e-3 * scale,
            "consistency row {i} is {v} (scale {scale})"
        );
    }
}

#[test]
fn mvm_rows_3_4_are_twice_the_complementarity_products() {
    let lp = RandomLp::paper(12, 5).feasible();
    let mut state = PdipState::new(&lp);
    // Non-uniform state exercises the diagonal blocks properly.
    for (i, v) in state.x.iter_mut().enumerate() {
        *v = 0.5 + 0.1 * i as f64;
    }
    for (i, v) in state.z.iter_mut().enumerate() {
        *v = 1.5 - 0.05 * i as f64;
    }
    let mut hw = ideal_hw();
    let sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let s = sys.s_vector(&state);
    let ms = sys.mvm(&s, &mut hw);
    let n = lp.num_vars();
    let m = lp.num_constraints();
    // Row block R3 = Z·x + X·z = 2·XZe.
    for j in 0..n {
        let expect = 2.0 * state.x[j] * state.z[j];
        let got = ms[m + n + j];
        assert!(
            (got - expect).abs() < 0.02 * expect.abs().max(1.0),
            "R3[{j}]: {got} vs {expect}"
        );
    }
}

#[test]
fn augmented_solve_matches_dense_newton_directions() {
    // On ideal hardware the augmented system's (Δx, Δy, Δw, Δz) must match
    // the full Eqn-12 system solved in f64 (they are algebraically the
    // same system; the compensation rows only re-encode negativity).
    let lp = RandomLp::paper(12, 7).feasible();
    let state = PdipState::new(&lp);
    let mut hw = ideal_hw();
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);

    let mu = state.mu();
    let constant = sys.rhs_constant(&lp, mu);
    let s = sys.s_vector(&state);
    let ms = sys.mvm(&s, &mut hw);
    let r = sys.assemble_rhs(&constant, &ms);
    let aug = sys
        .solve(&r, &mut hw)
        .expect("ideal hardware must not be singular");

    // Reference: one DensePdip iteration's directions, reproduced here via
    // its public solve on a single-iteration budget is impractical;
    // instead verify the Newton equations directly.
    let a = lp.a();
    let rho = state.primal_residual(&lp);
    let sigma = state.dual_residual(&lp);
    let n = lp.num_vars();
    let m = lp.num_constraints();

    // (9a): A·Δx + Δw = ρ.
    let adx = a.matvec(&aug.dirs.dx);
    for i in 0..m {
        let got = adx[i] + aug.dirs.dw[i];
        assert!(
            (got - rho[i]).abs() < 2e-2 * (1.0 + rho[i].abs()),
            "(9a) row {i}: {got} vs {}",
            rho[i]
        );
    }
    // (9b): Aᵀ·Δy − Δz = σ.
    let atdy = a.matvec_transposed(&aug.dirs.dy);
    for j in 0..n {
        let got = atdy[j] - aug.dirs.dz[j];
        assert!(
            (got - sigma[j]).abs() < 2e-2 * (1.0 + sigma[j].abs()),
            "(9b) row {j}"
        );
    }
    // (9c): Z·Δx + X·Δz = µe − XZe.
    for j in 0..n {
        let got = state.z[j] * aug.dirs.dx[j] + state.x[j] * aug.dirs.dz[j];
        let expect = mu - state.x[j] * state.z[j];
        assert!(
            (got - expect).abs() < 2e-2 * (1.0 + expect.abs()),
            "(9c) row {j}"
        );
    }
    // Consistency variables mirror their primaries.
    for (du, dw) in aug.du.iter().zip(&aug.dirs.dw) {
        assert!(
            (du + dw).abs() < 2e-2 * (1.0 + dw.abs()),
            "Δu = −Δw violated"
        );
    }
    for (dv, dz) in aug.dv.iter().zip(&aug.dirs.dz) {
        assert!(
            (dv + dz).abs() < 2e-2 * (1.0 + dz.abs()),
            "Δv = −Δz violated"
        );
    }
}

#[test]
fn augmented_path_agrees_with_dense_pdip_on_objective() {
    // Full-solve agreement (ideal hardware vs f64 software).
    let lp = RandomLp::paper(21, 9).feasible();
    let sw = DensePdip::default().solve(&lp);
    let hw = memlp_core::CrossbarPdipSolver::new(
        CrossbarConfig::ideal(),
        memlp_core::CrossbarSolverOptions::default(),
    )
    .solve(&lp);
    assert!(hw.solution.status.is_optimal());
    let rel = (hw.solution.objective - sw.objective).abs() / (1.0 + sw.objective.abs());
    assert!(rel < 5e-3, "ideal hardware should be near-exact: {rel}");
}

#[test]
fn ageing_scales_static_blocks_and_refresh_restores_them() {
    use memlp_crossbar::CrossbarConfig;
    use memlp_device::DriftModel;

    let lp = RandomLp::paper(12, 13).feasible();
    let state = PdipState::new(&lp);
    let cfg = CrossbarConfig {
        drift: DriftModel::exponential(1.0),
        ..CrossbarConfig::ideal()
    };
    let mut hw = HwContext::new(cfg);
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);

    // One second of drift at τ = 1 s decays static coefficients by 1/e.
    let s = sys.s_vector(&state);
    let before = sys.mvm(&s, &mut hw);
    sys.age(1.0, &hw);
    let after = sys.mvm(&s, &mut hw);
    let m = lp.num_constraints();
    // Row block 1 = A′x + w + A″p: the A-parts decay, so outputs shrink in
    // magnitude for rows dominated by static coefficients.
    let shrunk = (0..m)
        .filter(|&i| after[i].abs() < before[i].abs() - 1e-9)
        .count();
    assert!(shrunk > 0, "drift must visibly decay the static blocks");

    // Refresh restores pristine values (ideal hardware → exact).
    sys.refresh_static(&mut hw);
    let restored = sys.mvm(&s, &mut hw);
    for (r, b) in restored.iter().zip(&before) {
        assert!((r - b).abs() < 2e-3 * b.abs().max(1.0), "{r} vs {b}");
    }
}

#[test]
fn update_diagonals_uses_run_phase_budget() {
    let lp = RandomLp::paper(12, 11).feasible();
    let state = PdipState::new(&lp);
    let mut hw = ideal_hw();
    let mut sys = AugmentedSystem::program(&lp, &state, &mut hw);
    let before = hw.ledger().counts();
    sys.update_diagonals(&state, &mut hw);
    let after = hw.ledger().counts();
    let n = lp.num_vars() as u64;
    let m = lp.num_constraints() as u64;
    // The state is unchanged, so delta programming may skip any of the
    // 2(n+m) pulses — but the whole rewrite stays in the run-phase budget.
    assert_eq!(
        (after.update_writes + after.skipped_writes)
            - (before.update_writes + before.skipped_writes),
        2 * (n + m),
        "one full X/Y/Z/W rewrite"
    );
    assert_eq!(after.setup_writes, before.setup_writes);
}

/// The two orientations of the dense core's Schur reduction: `n < m`
/// eliminates Δy (a paper random LP), `n > m` eliminates Δx (transport).
fn orientation_suite() -> Vec<(&'static str, LpProblem)> {
    let transport =
        transportation_lp(&TransportationProblem::random(3, 9, 5)).expect("valid domain");
    assert!(transport.num_vars() > transport.num_constraints());
    vec![
        ("paper", RandomLp::paper(24, 31).feasible()),
        ("transport", transport),
    ]
}

/// Which start-iterate diagonal to zero before programming, so its cell
/// realizes as exactly zero — what a stuck-off cell reads.
#[derive(Clone, Copy)]
enum ZeroCell {
    None,
    /// `w[i] = 0`: a W-diagonal cell, so `d1[i] = 0`.
    W(usize),
    /// `z[j] = 0`: a Z-diagonal cell, so `d2[j] = 0`.
    Z(usize),
}

/// One Newton solve at the starting iterate under `factorization`, on
/// hardware with `variation_pct` device variation: the directions and the
/// factorization counters that solve added to the ledger. The hardware
/// seed is fixed, so both factorizations see the same realized system.
fn newton_step(
    lp: &LpProblem,
    factorization: Factorization,
    variation_pct: f64,
    zero: ZeroCell,
) -> (AugmentedDirections, OpCounts) {
    let mut state = PdipState::new(lp);
    match zero {
        ZeroCell::None => {}
        ZeroCell::W(i) => state.w[i] = 0.0,
        ZeroCell::Z(j) => state.z[j] = 0.0,
    }
    let cfg = CrossbarConfig::paper_default()
        .with_variation(variation_pct)
        .with_seed(17);
    let mut hw = HwContext::new(cfg);
    let mut sys = AugmentedSystem::program(lp, &state, &mut hw);
    sys.force_factorization(factorization);
    let s = sys.s_vector(&state);
    let ms = sys.mvm(&s, &mut hw);
    let constant = sys.rhs_constant(lp, state.mu());
    let r = sys.assemble_rhs(&constant, &ms);
    let before = hw.ledger().counts();
    let dirs = sys.solve(&r, &mut hw).expect("solvable realized system");
    let after = hw.ledger().counts();
    let added = OpCounts {
        factorizations: after.factorizations - before.factorizations,
        factor_flops: after.factor_flops - before.factor_flops,
        factor_nnz: after.factor_nnz - before.factor_nnz,
        ..OpCounts::default()
    };
    (dirs, added)
}

/// `(Δx, Δy, Δw, Δz)` of `got` equal `want`'s to `1e-9` of the largest
/// `Δx`/`Δy` entry.
fn assert_same_directions(got: &AugmentedDirections, want: &AugmentedDirections, ctx: &str) {
    let flat = |a: &AugmentedDirections| -> Vec<f64> {
        let d = &a.dirs;
        [&d.dx, &d.dy, &d.dw, &d.dz]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    };
    let scale = ops::inf_norm(&want.dirs.dx).max(ops::inf_norm(&want.dirs.dy));
    assert!(scale > 0.0, "{ctx}: vacuous comparison");
    for (i, (g, w)) in flat(got).iter().zip(&flat(want)).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * scale,
            "{ctx}: direction entry {i}: {g} vs {w}"
        );
    }
}

/// Ledger counters of one `(n+m)` partial-pivot LU.
fn full_lu(lp: &LpProblem) -> OpCounts {
    let d = (lp.num_vars() + lp.num_constraints()) as u64;
    OpCounts {
        factorizations: 1,
        factor_flops: 2 * d * d * d / 3,
        factor_nnz: d * d,
        ..OpCounts::default()
    }
}

/// Ledger counters of one `min(n,m)` Schur solve: `2·k²·K + ⅔·k³` flops,
/// `k²` LU entries plus the `K·k` scaled block.
fn schur(lp: &LpProblem) -> OpCounts {
    let (n, m) = (lp.num_vars() as u64, lp.num_constraints() as u64);
    let (k, big) = (n.min(m), n.max(m));
    OpCounts {
        factorizations: 1,
        factor_flops: 2 * k * k * big + 2 * k * k * k / 3,
        factor_nnz: k * k + big * k,
        ..OpCounts::default()
    }
}

#[test]
fn reduced_dense_solve_matches_the_unreduced_core() {
    // The dense path factors only the min(n,m) Schur system; the sparse
    // path factors the whole (n+m) core. On the same realized system both
    // must return the same directions, in both orientations, with and
    // without device variation.
    for (name, lp) in orientation_suite() {
        for variation in [0.0, 10.0] {
            let ctx = format!("{name} at {variation}% variation");
            let (reduced, stats) =
                newton_step(&lp, Factorization::Dense, variation, ZeroCell::None);
            let (unreduced, sparse) =
                newton_step(&lp, Factorization::Sparse, variation, ZeroCell::None);
            assert!(
                sparse.factor_flops < full_lu(&lp).factor_flops,
                "{ctx}: the sparse reference fell back to the dense path"
            );
            assert_same_directions(&reduced, &unreduced, &ctx);
            assert_eq!(stats, schur(&lp), "{ctx}: factorization counters");
        }
    }
}

#[test]
fn zero_eliminated_diagonal_falls_back_to_the_full_lu() {
    // A cell of the eliminated diagonal that realizes as exactly zero
    // leaves the Schur reduction undefined, so the dense path runs (and
    // records) the (n+m) LU instead. Δy is eliminated through d1 (W) when
    // n < m, Δx through d2 (Z) when n > m. A zero on the kept diagonal is
    // harmless — diag(f) + L·diag(1/e)·R stays non-singular — and must
    // not fall back.
    for (name, lp) in orientation_suite() {
        let (w, z) = (ZeroCell::W(2), ZeroCell::Z(2));
        let (eliminated, kept) = if lp.num_vars() <= lp.num_constraints() {
            (w, z)
        } else {
            (z, w)
        };
        for variation in [0.0, 10.0] {
            let ctx = format!("{name} at {variation}% variation");
            let (dirs, stats) = newton_step(&lp, Factorization::Dense, variation, eliminated);
            assert_eq!(stats, full_lu(&lp), "{ctx}: fallback counters");
            assert!(
                [&dirs.dirs.dx, &dirs.dirs.dy]
                    .into_iter()
                    .flatten()
                    .all(|v| v.is_finite()),
                "{ctx}: fallback directions"
            );
            let (_, stats) = newton_step(&lp, Factorization::Dense, variation, kept);
            assert_eq!(stats, schur(&lp), "{ctx}: kept-diagonal zero fell back");
        }
    }
}
