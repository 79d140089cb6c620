//! Iteration budgets and cooperative cancellation for the PDIP loops.
//!
//! A long-running caller (the `memlp-serve` daemon, or `memlp solve
//! --max-iters/--timeout-iters`) needs a solve that stops *cooperatively* —
//! once per Newton iteration, at a point where the iterate is a coherent
//! best-so-far answer — rather than hanging on a stalling instance. The
//! [`Budget`] carries two independent limits:
//!
//! * `max_iters` — a deterministic cap on Newton iterations spent, counted
//!   across every re-solve attempt of a crossbar solve.
//! * a [`Deadline`] — an externally owned cancellation source, polled once
//!   per iteration. The deterministic [`IterationDeadline`] expires after a
//!   fixed number of polls (what tests and the single-threaded serve path
//!   use); a wall-clock implementation lives in `memlp-serve`, keeping
//!   `Instant` out of the solver crates entirely (the workspace determinism
//!   rules ban it here).
//!
//! A budget exit is **degradation, not failure**: the solver returns the
//! best feasible iterate it reached with
//! [`LpStatus::IterationLimit`](memlp_lp::LpStatus) plus an out-of-band
//! [`BudgetCause`] telling the caller *why* the loop stopped early. An
//! unlimited budget ([`Budget::none`]) makes every check a no-op, so the
//! plumbing cannot perturb existing solves — fault-free runs are bitwise
//! identical with or without it.

use std::cell::Cell;
use std::fmt;

/// A cooperative cancellation source, polled once per Newton iteration.
///
/// Implementations must be cheap and side-effect-free apart from their own
/// bookkeeping; the solvers poll before starting an iteration's work.
pub trait Deadline {
    /// `true` once the deadline has passed; the current iteration is not
    /// started and the solve returns its best iterate.
    fn expired(&self) -> bool;
}

/// A deterministic [`Deadline`]: expires after a fixed number of polls.
///
/// Because the solvers poll exactly once per Newton iteration, `ticks`
/// reads as "this many more iterations across the whole solve" — attempts
/// included — which makes budget behaviour reproducible in tests and in
/// the single-threaded serve path, independent of machine speed.
#[derive(Debug)]
pub struct IterationDeadline {
    remaining: Cell<usize>,
}

impl IterationDeadline {
    /// A deadline that allows `ticks` more polls before expiring.
    pub fn new(ticks: usize) -> Self {
        IterationDeadline {
            remaining: Cell::new(ticks),
        }
    }

    /// Polls left before expiry.
    pub fn remaining(&self) -> usize {
        self.remaining.get()
    }
}

impl Deadline for IterationDeadline {
    fn expired(&self) -> bool {
        let left = self.remaining.get();
        if left == 0 {
            return true;
        }
        self.remaining.set(left - 1);
        false
    }
}

/// Why a budgeted solve stopped before converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetCause {
    /// The `max_iters` cap on Newton iterations was reached.
    MaxIters,
    /// The [`Deadline`] expired.
    DeadlineExceeded,
}

impl fmt::Display for BudgetCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetCause::MaxIters => write!(f, "iteration budget exhausted"),
            BudgetCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// An iteration budget threaded through the PDIP loops.
///
/// Copyable and cheap: the deadline is borrowed, so one budget can be
/// handed to every attempt of a crossbar solve while the caller keeps
/// ownership of the cancellation source.
#[derive(Clone, Copy, Default)]
pub struct Budget<'a> {
    max_iters: Option<usize>,
    deadline: Option<&'a dyn Deadline>,
}

impl<'a> Budget<'a> {
    /// The unlimited budget: every check is a no-op.
    pub const fn none() -> Self {
        Budget {
            max_iters: None,
            deadline: None,
        }
    }

    /// Caps total Newton iterations (across re-solve attempts) at `n`.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = Some(n);
        self
    }

    /// Attaches a cancellation source, polled once per iteration.
    pub fn with_deadline(mut self, deadline: &'a dyn Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Polls the budget with `spent` iterations already executed. Returns
    /// the cause if the next iteration must not start. The `max_iters` cap
    /// is checked first so an exactly-simultaneous expiry reports the
    /// deterministic cause.
    pub fn check(&self, spent: usize) -> Option<BudgetCause> {
        if let Some(cap) = self.max_iters {
            if spent >= cap {
                return Some(BudgetCause::MaxIters);
            }
        }
        if let Some(d) = self.deadline {
            if d.expired() {
                return Some(BudgetCause::DeadlineExceeded);
            }
        }
        None
    }
}

impl fmt::Debug for Budget<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("max_iters", &self.max_iters)
            .field("has_deadline", &self.deadline.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fires() {
        let b = Budget::none();
        for spent in [0, 1, 10_000] {
            assert_eq!(b.check(spent), None);
        }
    }

    #[test]
    fn max_iters_cap_fires_at_the_cap() {
        let b = Budget::none().with_max_iters(3);
        assert_eq!(b.check(0), None);
        assert_eq!(b.check(2), None);
        assert_eq!(b.check(3), Some(BudgetCause::MaxIters));
        assert_eq!(b.check(100), Some(BudgetCause::MaxIters));
    }

    #[test]
    fn iteration_deadline_expires_after_ticks() {
        let d = IterationDeadline::new(2);
        let b = Budget::none().with_deadline(&d);
        assert_eq!(b.check(0), None);
        assert_eq!(b.check(1), None);
        assert_eq!(b.check(2), Some(BudgetCause::DeadlineExceeded));
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn max_iters_wins_a_simultaneous_expiry() {
        let d = IterationDeadline::new(0);
        let b = Budget::none().with_max_iters(0).with_deadline(&d);
        assert_eq!(b.check(0), Some(BudgetCause::MaxIters));
    }

    #[test]
    fn causes_display() {
        assert_eq!(
            BudgetCause::MaxIters.to_string(),
            "iteration budget exhausted"
        );
        assert_eq!(
            BudgetCause::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
    }
}
