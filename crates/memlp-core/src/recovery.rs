//! Escalating fault recovery shared by Algorithm 1 and Algorithm 2.
//!
//! When write–verify detects hard defects the solvers climb a ladder of
//! increasingly expensive countermeasures, each rung recorded as a
//! [`RecoveryEvent`]:
//!
//! 1. **Re-program** — weak stuck cells (insufficient forming) are rewritten
//!    with an extended pulse budget; most stuck-at defects clear here.
//! 2. **Remap** — logical lines on dead word/bit lines are relocated onto
//!    the array's spare lines through the row/column decoder
//!    ([`memlp_crossbar::LineRemap`]).
//! 3. **Variation redraw** — the existing §4.3 double-checking scheme:
//!    re-write everything, redrawing Eqn 18 variation, and re-solve.
//! 4. **Digital fallback** — the digital reference PDIP
//!    ([`memlp_solvers::NormalEqPdip`], sparse LDLᵀ on every LP) solves the
//!    true problem and its answer replaces the analog one, at digital
//!    latency/energy cost; its infeasibility/unboundedness certificates
//!    are the trusted ones.
//!
//! The full ladder is the [`RecoveryPolicy::Full`] policy;
//! [`RecoveryPolicy::Hardware`] stops after rung 3 (analog-only recovery),
//! and [`RecoveryPolicy::Disabled`] reports faults without acting on them —
//! the ablation baseline.
//!
//! All three crossbar solvers climb the ladder through one function,
//! [`Ladder::run`]: a family supplies its attempt body, its exhaustion
//! rule and a handful of constants (see [`Ladder`]); everything else —
//! attempt seeding, event draining, budget expiry, the failure test,
//! escalation, the digital-fallback gate and the final accounting — is
//! shared.

use memlp_linalg::ops;
use memlp_lp::{LpProblem, LpSolution, LpStatus};
use memlp_solvers::budget::BudgetCause;
use memlp_solvers::{LpSolver, NormalEqPdip};

use crate::hw::HwContext;
use crate::solver::CrossbarSolution;
use crate::trace::IterationRecord;

/// How far the solvers may escalate when faults are detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Detect and report faults, but take no countermeasures (baseline for
    /// fault-impact ablations).
    Disabled,
    /// Hardware-only recovery: re-program weak cells, remap dead lines,
    /// redraw variation. Never leaves the analog path.
    Hardware,
    /// Hardware recovery plus the digital fallback (the reference PDIP)
    /// when the analog path cannot deliver an in-tolerance answer.
    #[default]
    Full,
}

impl RecoveryPolicy {
    /// `true` if any recovery action (beyond detection) is permitted.
    pub fn acts(&self) -> bool {
        *self != RecoveryPolicy::Disabled
    }

    /// `true` if the digital fallback rung is permitted.
    pub fn allows_digital(&self) -> bool {
        *self == RecoveryPolicy::Full
    }
}

/// One step of the recovery ladder, as it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Write–verify flagged defects on a hardware block.
    FaultsDetected {
        /// Block key (the solver's stable identifier for the physical
        /// region; see `HwContext::write_matrix`).
        block: u32,
        /// Stuck cells detected on the block.
        stuck_cells: usize,
        /// Subset of stuck cells classified weak (repairable).
        weak_cells: usize,
        /// Dead word lines crossing the block.
        dead_rows: usize,
        /// Dead bit lines crossing the block.
        dead_cols: usize,
    },
    /// Rung 1: weak cells re-programmed with an extended pulse budget.
    Reprogrammed {
        /// Cells restored to programmability.
        repaired: usize,
        /// Hard stuck cells remaining after the pass.
        remaining: usize,
    },
    /// Rung 2: logical lines relocated onto spare physical lines.
    Remapped {
        /// Dead rows successfully remapped.
        rows: usize,
        /// Dead columns successfully remapped.
        cols: usize,
        /// Dead lines left unmapped (spare budget exhausted).
        unmapped: usize,
    },
    /// Rung 3: the §4.3 double-check — full re-write with fresh variation.
    VariationRedraw {
        /// Attempt number the redraw precedes (1-based).
        attempt: usize,
    },
    /// A digital PDHG rung that no solver emits any more: the digital
    /// fallback is the single [`RecoveryEvent::DigitalFallback`] rung. The
    /// variant stays so that matches over recorded events keep compiling.
    FirstOrderFallback {
        /// Iterations the first-order solver spent.
        iterations: usize,
    },
    /// Rung 4: the digital reference PDIP replaced the analog result.
    DigitalFallback {
        /// Iterations the digital solver spent.
        iterations: usize,
    },
}

/// Structured account of every recovery action a solve took, surfaced on
/// `CrossbarSolution`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Events in the order they occurred.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// Appends an event.
    pub fn push(&mut self, e: RecoveryEvent) {
        self.events.push(e);
    }

    /// Number of escalation *actions* taken (detection events excluded).
    pub fn escalations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| !matches!(e, RecoveryEvent::FaultsDetected { .. }))
            .count()
    }

    /// `true` if any block reported defects.
    pub fn saw_faults(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::FaultsDetected { .. }))
    }

    /// `true` if the digital fallback (the reference PDIP) ran.
    pub fn used_digital_fallback(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::DigitalFallback { .. }))
    }
}

/// What one solve attempt of a crossbar family produced: the verdict and
/// iterate (in the caller's unscaled space), the attempt's per-iteration
/// trace, and `Some(cause)` when the solve budget expired during it.
pub(crate) type Attempt = (LpSolution, Vec<IterationRecord>, Option<BudgetCause>);

/// The §4.3 double-checking scheme as one retry ladder: re-solve with
/// fresh variation on failure, escalating through the hardware rungs
/// between attempts, and hand a run that defective hardware left
/// unresolved to the digital fallback.
///
/// The fields are what differs between the solver families (DESIGN §11).
/// They are not harmonised: verdicts on problems that exhaust the ladder
/// depend on them.
pub(crate) struct Ladder {
    /// How far the solve may escalate.
    pub policy: RecoveryPolicy,
    /// Re-solve attempts after the first.
    pub retries: usize,
    /// The §3.2 relaxed feasibility parameter of `A·x ⪯ α·b`.
    pub alpha: f64,
    /// Attempt `k` seeds its variation redraw with `seed_base + k`.
    pub seed_base: u64,
    /// Run the α check on every `Optimal` attempt (analog PDHG: its KKT
    /// residuals describe the realized operator), not only on hardware
    /// suspected of faults (the PDIP families).
    pub alpha_check_always: bool,
    /// Keep the best-scoring failed attempt for the exhaustion rule
    /// (Algorithm 2) instead of the last one.
    pub keep_best: bool,
    /// Apply the exhaustion rule to accepted attempts too (Algorithm 2);
    /// the other families return an accepted attempt unclassified.
    pub classify_accepted: bool,
}

impl Ladder {
    /// Runs the ladder on `hw`. `reuse_salt` starts the first attempt on
    /// warm hardware ([`HwContext::begin_reuse`]); every other attempt
    /// redraws variation ([`HwContext::begin_attempt`]). `attempt` runs
    /// one solve attempt (`None`: the attempt could not program the
    /// hardware) given its index; `exhausted` reclassifies the kept
    /// attempt once the retries are spent.
    pub(crate) fn run(
        &self,
        lp: &LpProblem,
        hw: &mut HwContext,
        reuse_salt: Option<u64>,
        mut attempt: impl FnMut(&mut HwContext, usize) -> Option<Attempt>,
        exhausted: impl Fn(&mut LpSolution),
    ) -> CrossbarSolution {
        let mut report = RecoveryReport::default();
        let mut kept: Option<(f64, LpSolution, Vec<IterationRecord>, usize)> = None;
        for k in 0..=self.retries {
            match reuse_salt {
                Some(salt) if k == 0 => hw.begin_reuse(salt),
                _ => hw.begin_attempt(self.seed_base + k as u64),
            }
            let outcome = attempt(hw, k);
            report.events.extend(hw.take_recovery_events());
            let (mut solution, trace) = match outcome {
                // Budget expiry ends the solve now: the caller asked for
                // the best answer available by the deadline, not for the
                // ladder to keep burning iterations it no longer has.
                Some((solution, trace, Some(cause))) => {
                    return finish(solution, trace, hw, k, report, Some(cause))
                }
                Some((solution, trace, None)) => (solution, trace),
                None => (
                    LpSolution::failed(LpStatus::NumericalFailure, 0),
                    Vec::new(),
                ),
            };
            if !self.failed(lp, &solution, &report, k) {
                if self.classify_accepted {
                    exhausted(&mut solution);
                }
                return finish(solution, trace, hw, k, report, None);
            }
            let score = attempt_score(lp, &solution);
            if kept
                .as_ref()
                .is_none_or(|(best, ..)| !self.keep_best || score < *best)
            {
                kept = Some((score, solution, trace, k));
            }
            if k < self.retries {
                escalate_hardware(self.policy, hw, &mut report);
                // Rung 3 — the §4.3 double check: the next attempt
                // rewrites everything with freshly drawn variation.
                report.push(RecoveryEvent::VariationRedraw { attempt: k + 1 });
            }
        }
        // The retry loop always runs at least once; if the invariant ever
        // breaks, report a numerical failure instead of panicking mid-solve.
        let (_, mut solution, trace, k) = kept.unwrap_or_else(|| {
            (
                f64::INFINITY,
                LpSolution::failed(LpStatus::NumericalFailure, 0),
                Vec::new(),
                0,
            )
        });
        exhausted(&mut solution);
        // Rung 4 — a run that defective hardware left unresolved falls
        // back to the digital solve (fault-free failures keep their analog
        // verdict: the fallback is a fault countermeasure, not a general
        // safety net). Fault-era Infeasible verdicts are re-checked too —
        // the digital solve re-derives the certificate from the true
        // problem, so a genuine contradiction still reports Infeasible —
        // and so is an `Optimal` that fails the α check.
        let unresolved = matches!(
            solution.status,
            LpStatus::NumericalFailure | LpStatus::IterationLimit | LpStatus::Infeasible
        ) || (solution.status == LpStatus::Optimal
            && !lp.satisfies_relaxed_scaled(&solution.x, self.alpha));
        if unresolved && self.policy.allows_digital() && report.saw_faults() {
            let (digital, event) = digital_fallback(lp);
            report.push(event);
            solution = digital;
        }
        finish(solution, trace, hw, k, report, None)
    }

    /// The ladder's failure test: `false` accepts attempt `k` as the
    /// answer.
    fn failed(
        &self,
        lp: &LpProblem,
        solution: &LpSolution,
        report: &RecoveryReport,
        k: usize,
    ) -> bool {
        // A verdict from hardware that write–verify has flagged as
        // defective is not trustworthy: a dead line erases a constraint
        // row, and the residual the controller observes is the fault, not
        // a certificate.
        let hw_suspect = self.policy.acts() && report.saw_faults();
        match solution.status {
            LpStatus::NumericalFailure => true,
            LpStatus::IterationLimit => hw_suspect || k < self.retries,
            LpStatus::Infeasible => hw_suspect,
            // The strict (not stall-relaxed) §3.2 α check, run digitally
            // on the true problem: a dead line hides exactly the
            // constraint its row carried.
            LpStatus::Optimal => {
                (hw_suspect || self.alpha_check_always)
                    && !lp.satisfies_relaxed_scaled(&solution.x, self.alpha)
            }
            LpStatus::Unbounded => false,
        }
    }
}

/// Worst of the relative primal residual, dual residual and duality gap
/// (infinite for an empty iterate): how the ladder ranks failed attempts.
pub(crate) fn attempt_score(lp: &LpProblem, solution: &LpSolution) -> f64 {
    if solution.x.is_empty() {
        return f64::INFINITY;
    }
    let pr = solution.primal_residual / (1.0 + ops::inf_norm(lp.b()));
    let dr = solution.dual_residual / (1.0 + ops::inf_norm(lp.c()));
    let gap = solution.duality_gap / (1.0 + solution.objective.abs());
    pr.max(dr).max(gap)
}

/// Builds the [`CrossbarSolution`] from the kept attempt and the
/// context's ledger.
fn finish(
    solution: LpSolution,
    trace: Vec<IterationRecord>,
    hw: &HwContext,
    retries_used: usize,
    recovery: RecoveryReport,
    degraded: Option<BudgetCause>,
) -> CrossbarSolution {
    CrossbarSolution {
        solution,
        ledger: *hw.ledger(),
        trace,
        retries_used,
        recovery,
        degraded,
    }
}

/// Rungs 1–2 of the ladder, run between failed attempts when the policy
/// permits hardware countermeasures: re-program weak stuck cells, then
/// remap dead lines onto spares.
fn escalate_hardware(policy: RecoveryPolicy, hw: &mut HwContext, report: &mut RecoveryReport) {
    if !policy.acts() {
        return;
    }
    if hw.weak_faults() > 0 {
        let (repaired, remaining) = hw.reprogram_faulty();
        report.push(RecoveryEvent::Reprogrammed {
            repaired,
            remaining,
        });
    }
    if hw.has_dead_lines() {
        let (rows, cols, unmapped) = hw.remap_dead_lines();
        report.push(RecoveryEvent::Remapped {
            rows,
            cols,
            unmapped,
        });
    }
}

/// Rung 4: the digital reference PDIP as it stands
/// ([`NormalEqPdip::default`], 200 iterations) solves the true problem;
/// its infeasibility/unboundedness certificates are the trusted ones.
/// Returns the adopted solution and the rung's event.
fn digital_fallback(lp: &LpProblem) -> (LpSolution, RecoveryEvent) {
    let sol = NormalEqPdip::default().solve(lp);
    let event = RecoveryEvent::DigitalFallback {
        iterations: sol.iterations,
    };
    (sol, event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_lp::{generator::RandomLp, LpStatus};

    #[test]
    fn policy_gates() {
        assert!(!RecoveryPolicy::Disabled.acts());
        assert!(RecoveryPolicy::Hardware.acts());
        assert!(RecoveryPolicy::Full.acts());
        assert!(!RecoveryPolicy::Hardware.allows_digital());
        assert!(RecoveryPolicy::Full.allows_digital());
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Full);
    }

    #[test]
    fn report_counts_escalations_not_detections() {
        let mut r = RecoveryReport::default();
        assert!(!r.saw_faults());
        r.push(RecoveryEvent::FaultsDetected {
            block: 0,
            stuck_cells: 3,
            weak_cells: 2,
            dead_rows: 1,
            dead_cols: 0,
        });
        r.push(RecoveryEvent::Reprogrammed {
            repaired: 2,
            remaining: 1,
        });
        r.push(RecoveryEvent::Remapped {
            rows: 1,
            cols: 0,
            unmapped: 0,
        });
        r.push(RecoveryEvent::VariationRedraw { attempt: 1 });
        r.push(RecoveryEvent::DigitalFallback { iterations: 17 });
        assert!(r.saw_faults());
        assert_eq!(r.escalations(), 4);
        assert!(r.used_digital_fallback());
    }

    #[test]
    fn digital_fallback_is_the_reference_pdip() {
        let lp = RandomLp::paper(10, 3).feasible();
        let (sol, event) = digital_fallback(&lp);
        let reference = NormalEqPdip::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // `{:?}` prints every f64 to its shortest round-trip form, so equal
        // strings mean bit-identical solutions.
        assert_eq!(format!("{sol:?}"), format!("{reference:?}"));
        assert_eq!(
            event,
            RecoveryEvent::DigitalFallback {
                iterations: reference.iterations
            }
        );
    }

    #[test]
    fn digital_fallback_certifies_infeasibility() {
        let lp = RandomLp::paper(10, 4).infeasible();
        let (sol, event) = digital_fallback(&lp);
        assert_eq!(sol.status, LpStatus::Infeasible);
        assert!(matches!(event, RecoveryEvent::DigitalFallback { .. }));
    }
}
