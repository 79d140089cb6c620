//! Per-iteration convergence traces.
//!
//! The paper's latency/energy estimates are assembled from *simulated
//! iteration counts* (§4.4); the trace is how the benchmark harness gets at
//! them, and it doubles as a debugging aid for convergence studies. Fault
//! detections and recovery escalations are mirrored into the trace so a
//! single artifact tells the whole story of a solve.

/// One iteration's convergence snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Barrier parameter µ (Eqn 8).
    pub mu: f64,
    /// Relative duality gap at the start of the iteration.
    pub gap: f64,
    /// Relative primal residual (hardware-observed).
    pub primal_residual: f64,
    /// Relative dual residual (hardware-observed).
    pub dual_residual: f64,
    /// Step length θ taken (Eqn 11); 0 if the iteration exited early.
    pub theta: f64,
}

/// Write-sparsity and workspace-reuse counters for one solve, copied from
/// the cost ledger when the solve finishes. `cells_written +
/// cells_skipped` is what a full-reprogram run would have pulsed;
/// `rebuilds_avoided` counts core-matrix assemblies the digital controller
/// reused instead of rebuilding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Cells actually pulsed (setup plus run-phase updates).
    pub cells_written: u64,
    /// Write pulses skipped by delta programming.
    pub cells_skipped: u64,
    /// Core-matrix rebuilds avoided by workspace reuse.
    pub rebuilds_avoided: u64,
}

impl WriteStats {
    /// Snapshots the write counters from a cost ledger.
    pub fn from_ledger(ledger: &memlp_crossbar::CostLedger) -> Self {
        let c = ledger.counts();
        WriteStats {
            cells_written: c.setup_writes + c.update_writes,
            cells_skipped: c.skipped_writes,
            rebuilds_avoided: c.rebuilds_avoided,
        }
    }

    /// Write counters attributable to one request on a **shared** warm
    /// context: the ledger accumulates across a context's whole life, so a
    /// per-request snapshot is the difference between the ledger after the
    /// solve and the `before` stats captured as the request was admitted.
    /// (Saturating, so a reset context can never produce underflowed
    /// counts.)
    pub fn since(&self, before: &WriteStats) -> WriteStats {
        WriteStats {
            cells_written: self.cells_written.saturating_sub(before.cells_written),
            cells_skipped: self.cells_skipped.saturating_sub(before.cells_skipped),
            rebuilds_avoided: self
                .rebuilds_avoided
                .saturating_sub(before.rebuilds_avoided),
        }
    }

    /// Fraction of would-be write pulses that delta programming skipped
    /// (0 when nothing was written).
    pub fn skip_fraction(&self) -> f64 {
        let total = self.cells_written + self.cells_skipped;
        if total == 0 {
            0.0
        } else {
            self.cells_skipped as f64 / total as f64
        }
    }
}

/// Digital core-factorization counters for one solve, copied from the cost
/// ledger when the solve finishes. The flop total is the per-iteration
/// digital cost the sparse Newton path attacks; dividing by
/// `factorizations` gives the per-iteration figure the benches report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Core factorizations performed (≈ one per PDIP iteration).
    pub factorizations: u64,
    /// Floating-point operations across all factorizations (dense LU
    /// charges its `2/3·N³` estimate; sparse LU reports exact counts).
    pub flops: u64,
    /// Stored `|L|+|U|` factor entries across all factorizations.
    pub factor_nnz: u64,
}

impl FactorStats {
    /// Snapshots the factorization counters from a cost ledger.
    pub fn from_ledger(ledger: &memlp_crossbar::CostLedger) -> Self {
        let c = ledger.counts();
        FactorStats {
            factorizations: c.factorizations,
            flops: c.factor_flops,
            factor_nnz: c.factor_nnz,
        }
    }
}

/// A solve attempt's full iteration history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverTrace {
    /// Records in iteration order.
    pub records: Vec<IterationRecord>,
    /// Fault detections and recovery escalations, in the order the solve
    /// climbed the ladder (see [`crate::RecoveryReport`]).
    pub events: Vec<crate::RecoveryEvent>,
    /// Write-sparsity counters for the whole solve (all attempts).
    pub writes: WriteStats,
    /// Digital factorization counters for the whole solve (all attempts).
    pub factors: FactorStats,
}

impl SolverTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SolverTrace::default()
    }

    /// Appends a record.
    pub fn push(&mut self, r: IterationRecord) {
        self.records.push(r);
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(gap: f64) -> IterationRecord {
        IterationRecord {
            mu: 0.1,
            gap,
            primal_residual: 0.0,
            dual_residual: 0.0,
            theta: 1.0,
        }
    }

    #[test]
    fn push_and_len() {
        let mut t = SolverTrace::new();
        assert!(t.is_empty());
        t.push(rec(1.0));
        t.push(rec(0.5));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn write_stats_delta_is_saturating() {
        let before = WriteStats {
            cells_written: 10,
            cells_skipped: 5,
            rebuilds_avoided: 1,
        };
        let after = WriteStats {
            cells_written: 25,
            cells_skipped: 30,
            rebuilds_avoided: 1,
        };
        assert_eq!(
            after.since(&before),
            WriteStats {
                cells_written: 15,
                cells_skipped: 25,
                rebuilds_avoided: 0,
            }
        );
        // A reset context (counters behind the snapshot) clamps to zero.
        assert_eq!(before.since(&after), WriteStats::default());
    }
}
