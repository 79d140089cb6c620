//! Acceptance tests for the fault-recovery ladder: at 1% stuck cells plus
//! roughly one dead word line per array, both solvers must return
//! `Optimal` within the paper's Fig 5 accuracy envelope (rel err ≤ 0.10)
//! with recovery enabled, while the *same seeds* fail or leave the envelope
//! with recovery disabled — proving the ladder, not luck, delivers the
//! answer. Every escalation rung must be visible in the
//! [`RecoveryReport`].

use memlp_core::{
    CrossbarPdipSolver, CrossbarSolverOptions, LargeScaleOptions, LargeScaleSolver, RecoveryEvent,
    RecoveryPolicy,
};
use memlp_crossbar::{CrossbarConfig, FaultModel};
use memlp_lp::{generator::RandomLp, LpStatus};
use memlp_solvers::{LpSolver, NormalEqPdip};

/// Fig 5 envelope: the paper reports ≤ 9.9% relative objective error.
const ENVELOPE: f64 = 0.10;

/// 1% total stuck cells (split evenly on/off) plus a dead word-line rate
/// sized so each block draws about one dead row.
fn faulty_model() -> FaultModel {
    FaultModel::new(0.005, 0.005)
        .and_then(|m| m.with_dead_lines(0.04, 0.0))
        .expect("valid fault rates")
}

fn config(seed: u64) -> CrossbarConfig {
    CrossbarConfig::paper_default()
        .with_seed(seed)
        .with_faults(faulty_model())
}

fn alg1(seed: u64, recovery: RecoveryPolicy) -> CrossbarPdipSolver {
    CrossbarPdipSolver::new(
        config(seed),
        CrossbarSolverOptions {
            recovery,
            ..CrossbarSolverOptions::default()
        },
    )
}

fn alg2(seed: u64, recovery: RecoveryPolicy) -> LargeScaleSolver {
    LargeScaleSolver::new(
        config(seed),
        LargeScaleOptions {
            recovery,
            ..LargeScaleOptions::default()
        },
    )
}

fn rel_err(objective: f64, reference: f64) -> f64 {
    (objective - reference).abs() / (1.0 + reference.abs())
}

#[test]
fn alg1_recovers_where_no_recovery_fails() {
    for seed in [2u64, 4, 9, 12] {
        let lp = RandomLp::paper(24, 900 + seed).feasible();
        let reference = NormalEqPdip::default().solve(&lp);

        let on = alg1(seed, RecoveryPolicy::Full).solve(&lp);
        assert_eq!(
            on.solution.status,
            LpStatus::Optimal,
            "seed {seed} with recovery: {}",
            on.solution
        );
        let on_err = rel_err(on.solution.objective, reference.objective);
        assert!(on_err <= ENVELOPE, "seed {seed}: rel err {on_err}");
        assert!(on.recovery.saw_faults(), "seed {seed}: no faults detected");

        let off = alg1(seed, RecoveryPolicy::Disabled).solve(&lp);
        let off_ok = off.solution.status == LpStatus::Optimal
            && rel_err(off.solution.objective, reference.objective) <= ENVELOPE;
        assert!(
            !off_ok,
            "seed {seed}: recovery off should fail or leave the envelope, got {}",
            off.solution
        );
    }
}

#[test]
fn alg2_recovers_where_no_recovery_fails() {
    for seed in [2u64, 3, 7] {
        let lp = RandomLp::paper(24, 900 + seed).feasible();
        let reference = NormalEqPdip::default().solve(&lp);

        let on = alg2(seed, RecoveryPolicy::Full).solve(&lp);
        assert_eq!(
            on.solution.status,
            LpStatus::Optimal,
            "seed {seed} with recovery: {}",
            on.solution
        );
        let on_err = rel_err(on.solution.objective, reference.objective);
        assert!(on_err <= ENVELOPE, "seed {seed}: rel err {on_err}");
        assert!(on.recovery.saw_faults(), "seed {seed}: no faults detected");

        let off = alg2(seed, RecoveryPolicy::Disabled).solve(&lp);
        let off_ok = off.solution.status == LpStatus::Optimal
            && rel_err(off.solution.objective, reference.objective) <= ENVELOPE;
        assert!(
            !off_ok,
            "seed {seed}: recovery off should fail or leave the envelope, got {}",
            off.solution
        );
    }
}

/// Seed 2 climbs the whole ladder on both solvers: write–verify detection,
/// weak-cell re-programming, spare-line remapping, variation redraw, and
/// the digital fallback — all of it recorded, and mirrored into the trace.
#[test]
fn every_ladder_rung_is_recorded() {
    let lp = RandomLp::paper(24, 900).feasible();
    for res in [
        alg1(2, RecoveryPolicy::Full).solve(&lp),
        alg2(2, RecoveryPolicy::Full).solve(&lp),
    ] {
        let has = |f: &dyn Fn(&RecoveryEvent) -> bool| res.recovery.events.iter().any(f);
        assert!(has(&|e| matches!(
            e,
            RecoveryEvent::FaultsDetected { stuck_cells, .. } if *stuck_cells > 0
        )));
        assert!(has(&|e| matches!(
            e,
            RecoveryEvent::FaultsDetected { dead_rows, .. } if *dead_rows > 0
        )));
        assert!(has(&|e| matches!(
            e,
            RecoveryEvent::Reprogrammed { repaired, .. } if *repaired > 0
        )));
        assert!(has(&|e| matches!(
            e,
            RecoveryEvent::Remapped { rows, .. } if *rows > 0
        )));
        assert!(has(&|e| matches!(e, RecoveryEvent::VariationRedraw { .. })));
        assert!(has(&|e| matches!(e, RecoveryEvent::DigitalFallback { .. })));
        assert!(res.recovery.used_digital_fallback());
    }
}

#[test]
fn disabled_policy_detects_but_never_acts() {
    let lp = RandomLp::paper(24, 902).feasible();
    for res in [
        alg1(2, RecoveryPolicy::Disabled).solve(&lp),
        alg2(2, RecoveryPolicy::Disabled).solve(&lp),
    ] {
        assert!(res.recovery.saw_faults());
        assert!(!res.recovery.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::Reprogrammed { .. }
                | RecoveryEvent::Remapped { .. }
                | RecoveryEvent::DigitalFallback { .. }
        )));
    }
}

#[test]
fn hardware_policy_never_uses_the_digital_fallback() {
    let lp = RandomLp::paper(24, 902).feasible();
    for res in [
        alg1(2, RecoveryPolicy::Hardware).solve(&lp),
        alg2(2, RecoveryPolicy::Hardware).solve(&lp),
    ] {
        assert!(!res.recovery.used_digital_fallback());
        // Hardware rungs still climbed.
        assert!(res
            .recovery
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Remapped { .. })));
    }
}

/// Fault-free hardware must report a clean ledger: no detections, no
/// escalations, no digital fallback — the recovery machinery is inert.
#[test]
fn clean_hardware_reports_no_recovery() {
    let lp = RandomLp::paper(24, 910).feasible();
    let res = CrossbarPdipSolver::new(
        CrossbarConfig::paper_default().with_seed(5),
        CrossbarSolverOptions::default(),
    )
    .solve(&lp);
    assert_eq!(res.solution.status, LpStatus::Optimal);
    assert!(!res.recovery.saw_faults());
    assert!(res.recovery.events.is_empty());
}

/// Genuinely infeasible problems stay Infeasible even with defective
/// hardware and the full ladder: the digital fallback re-derives the
/// certificate from the true problem rather than masking it.
#[test]
fn genuine_infeasibility_survives_the_ladder() {
    for seed in [2u64, 3] {
        let lp = RandomLp::paper(24, 950 + seed).infeasible();
        let res = alg1(seed, RecoveryPolicy::Full).solve(&lp);
        assert_eq!(
            res.solution.status,
            LpStatus::Infeasible,
            "seed {seed}: {}",
            res.solution
        );
    }
}
