#![forbid(unsafe_code)]
//! Benchmark harness reproducing the paper's evaluation (§4).
//!
//! [`paper::run`] (bench target `paper_eval`) regenerates every §4
//! figure and table in one pass and [`ablation::run`] (bench target
//! `ablations`) every ablation study; the gate benches write their
//! `BENCH_*.json` files through [`artifact`]. They share the rest of this
//! library (see DESIGN.md §5 for the experiment index):
//!
//! * [`Sweep`] — the §4.2 experimental grid (constraint counts swept
//!   exponentially 4…1024, n = m/3, variation ∈ {0, 5, 10, 20}%, repeated
//!   trials), scaled by environment variables:
//!   - `MEMLP_FULL=1` — full paper grid (sizes to 1024, more trials),
//!   - `MEMLP_TRIALS=k` — override the trial count (read by [`trials`],
//!     which the ablations share),
//! * [`Stats`] — streaming mean/min/max summaries,
//! * [`Table`] — aligned console tables plus CSV files under
//!   `target/memlp-results/`,
//! * [`run_trials`] — parallel trial execution across std threads,
//! * [`cpu_energy_j`] — the paper's CPU energy model (wall-clock × 35 W,
//!   the constant implied by its 218.1 J / 6.23 s figures).

pub mod ablation;
pub mod artifact;
pub mod experiments;
pub mod paper;

use std::path::{Path, PathBuf};

use memlp_device::CostParams;
use memlp_lp::domains::{
    assignment_lp, max_flow_lp, production_schedule_lp, transportation_lp, AssignmentProblem,
    MaxFlowNetwork, ProductionPlan, TransportationProblem,
};
use memlp_lp::LpProblem;

/// The experimental grid of §4.2.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Constraint counts `m` (n = m/3 is implied).
    pub sizes: Vec<usize>,
    /// Maximum-variation percentages.
    pub variations: Vec<f64>,
    /// Trials per grid point.
    pub trials: usize,
}

impl Sweep {
    /// The default grid: m ≤ 256 and 3 trials unless `MEMLP_FULL=1`,
    /// which adds m = 1024 and runs 10 trials.
    pub fn paper() -> Sweep {
        let full = std::env::var("MEMLP_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        let sizes = if full {
            vec![4, 16, 64, 256, 1024]
        } else {
            vec![4, 16, 64, 256]
        };
        let trials = trials(if full { 10 } else { 3 });
        Sweep {
            sizes,
            variations: vec![0.0, 5.0, 10.0, 20.0],
            trials,
        }
    }

    /// A copy with different variation levels.
    pub fn with_variations(mut self, variations: Vec<f64>) -> Sweep {
        self.variations = variations;
        self
    }
}

/// Simple summary statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Stats {
    /// Creates an empty accumulator.
    pub fn new() -> Stats {
        Stats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation (non-finite values are ignored).
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            self.count += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Observation count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

impl std::iter::FromIterator<f64> for Stats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Stats {
        let mut s = Stats::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

/// A console table that mirrors itself into a CSV file.
#[derive(Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    note: &'static str,
}

impl Table {
    /// Starts a table with a title and its comma-separated column
    /// headers (the CSV header line).
    pub fn new(title: impl Into<String>, header: &str) -> Table {
        Table {
            title: title.into(),
            header: header.split(',').map(str::to_string).collect(),
            rows: Vec::new(),
            note: "",
        }
    }

    /// Sets a note printed after the table, such as the shape it should
    /// show.
    pub fn note(mut self, note: &'static str) -> Table {
        self.note = note;
        self
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = format!("{}\n", self.header.join(","));
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the aligned table to stdout and writes `<name>.csv` under
    /// `target/memlp-results/`. Returns the CSV path when written.
    pub fn finish(&self, csv_name: &str) -> Option<PathBuf> {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        if !self.note.is_empty() {
            println!("\n{}", self.note);
        }

        let dir = repo_root().join("target/memlp-results");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{csv_name}.csv"));
        std::fs::write(&path, self.csv()).ok()?;
        println!("(csv: {})", path.display());
        Some(path)
    }
}

/// The workspace root, where the `BENCH_*.json` files and
/// `target/memlp-results/` live.
pub(crate) fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The memlp-lp domains the sparse-Newton, PDHG and tile-sparsity benches
/// sweep, each at m ∈ {128, 512} through [`domain_lp`].
pub const DOMAINS: [&str; 4] = ["transport", "routing", "scheduling", "assignment"];

/// The `domain` instance sized to `m_target` ∈ {128, 512} constraints
/// (routing lands within ±2%: its row count is structural), seed 21, so
/// rows line up across benches.
///
/// # Panics
/// On any other domain or size.
pub fn domain_lp(domain: &str, m_target: usize) -> LpProblem {
    let lp = match (domain, m_target) {
        ("transport", 128) => transportation_lp(&TransportationProblem::random(4, 124, 21)),
        ("transport", 512) => transportation_lp(&TransportationProblem::random(4, 508, 21)),
        ("routing", 128) => max_flow_lp(&MaxFlowNetwork::random_layered(6, 6, 21)),
        ("routing", 512) => max_flow_lp(&MaxFlowNetwork::random_layered(12, 12, 21)),
        ("scheduling", 128) => production_schedule_lp(&ProductionPlan::random(8, 120, 21)),
        ("scheduling", 512) => production_schedule_lp(&ProductionPlan::random(8, 504, 21)),
        ("assignment", 128) => assignment_lp(&AssignmentProblem::random(64, 21)),
        // k = 256 agents give m = 512 but n = k² = 65536: past the dense
        // Newton core's allocation guard.
        ("assignment", 512) => assignment_lp(&AssignmentProblem::random(256, 21)),
        _ => panic!("no {domain}@{m_target} bench instance"),
    };
    lp.expect("valid domain instance")
}

/// The median of `xs` (the upper one for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The trial count: `MEMLP_TRIALS` when it parses, else `default`.
pub fn trials(default: usize) -> usize {
    std::env::var("MEMLP_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `trials` independent executions of `f(trial_index)` across threads
/// (respecting `MEMLP_THREADS`) and returns the results in trial order.
pub fn run_trials<T: Send>(trials: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = memlp_linalg::parallel::Threads::resolve().get();
    memlp_linalg::parallel::run_indexed(threads, trials, f)
}

/// CPU-baseline energy for a measured wall time (paper methodology: 35 W).
pub fn cpu_energy_j(wall_seconds: f64) -> f64 {
    CostParams::default().cpu_energy(wall_seconds)
}

/// Formats seconds with an adaptive unit.
pub fn fmt_time(seconds: f64) -> String {
    if !seconds.is_finite() {
        "-".into()
    } else if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} µs", seconds * 1e6)
    }
}

/// Formats joules with an adaptive unit.
pub fn fmt_energy(joules: f64) -> String {
    if !joules.is_finite() {
        "-".into()
    } else if joules >= 1.0 {
        format!("{joules:.2} J")
    } else if joules >= 1e-3 {
        format!("{:.2} mJ", joules * 1e3)
    } else {
        format!("{:.2} µJ", joules * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s: Stats = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn stats_ignores_non_finite() {
        let s: Stats = [1.0, f64::NAN, f64::INFINITY].into_iter().collect();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = Stats::new();
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
    }

    #[test]
    fn paper_sweep_spans_the_grid() {
        let s = Sweep::paper();
        assert_eq!(s.sizes[..4], [4, 16, 64, 256]);
        assert_eq!(s.variations, vec![0.0, 5.0, 10.0, 20.0]);
    }

    #[test]
    fn run_trials_preserves_order() {
        let out = run_trials(16, |i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn cpu_energy_matches_paper_constant() {
        assert!((cpu_energy_j(6.23) - 218.05).abs() < 0.1);
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
        assert_eq!(fmt_energy(0.002), "2.00 mJ");
    }

    #[test]
    fn table_writes_csv() {
        let mut t = Table::new("test", "a,b");
        t.row(vec!["1".into(), "2".into()]);
        let path = t.finish("bench_harness_selftest");
        if let Some(p) = path {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.contains("a,b"));
            assert!(content.contains("1,2"));
        }
    }
}
