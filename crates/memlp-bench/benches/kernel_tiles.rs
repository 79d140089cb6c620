//! Microbenchmark for the register-tiled digital kernels (DESIGN.md §14).
//!
//! Measures flop rates for the hot dense kernels — matvec, matmul,
//! `scaled_gram`, blocked LU, CSR SpMV — at m ∈ {128, 512}, and for
//! Algorithm 1's Schur product (`schur`: a k × m by m × k `matmul_into`
//! with k = m/3, the dense product of the min(n, m) Schur solve) at
//! m ∈ {128, 1024}, against a *naive* single-accumulator scalar loop
//! written here (the pre-lane, pre-tiling baseline). Rates are pinned to one worker
//! (`with_threads(1)`) so they measure instruction-level throughput, not
//! the thread pool.
//!
//! Two rows measure the simulated array rather than a digital kernel:
//! `adc` converts Algorithm 1's m = 128 bank layout (the seven blocks of
//! the Newton vector, one auto-ranged bank each) through the vector
//! converter kernel `Quantizer::quantize_into` against the scalar
//! `quantize_against` loop it replaces, asserting the two agree bit for
//! bit (4 flops an entry: two divisions, two multiplies); `write` programs
//! the m = 128 sign-split `A′` block (128×42) at 10% variation through
//! `ArrayBlock::write_block` against the per-cell loop it replaces,
//! asserting the same bits, stream state and tallies, and reports
//! nanoseconds a cell for both.
//!
//! It also prints the median time of the §3.2 sign split of a paper LP
//! at m ∈ {64, 256} (stdout only).
//!
//! Emits `BENCH_kernels.json` at the repository root and *asserts*:
//!   * every measured rate is physically sane (0.01–1000 GF/s — the
//!     flop-rate assertion that catches a mis-counted flops model), and
//!   * the tiled m = 512 dense matvec clears `GATE_MIN_SPEEDUP` over the
//!     naive scalar baseline (the CI gate; best of up to three
//!     back-to-back naive/tiled trials, so host steal on a shared
//!     runner cannot flake a genuinely fast kernel).
//!
//! The JSON also carries the `threading_cutoff` cell: the measured kernel
//! rate and two-worker dispatch overhead behind the re-measured
//! `MIN_FLOPS_PER_THREAD` in `memlp-linalg::parallel`.

use std::hint::black_box;
use std::time::Instant;

use memlp_bench::artifact::{self, quote, Rows};
use memlp_bench::{fmt_time, median, obj};
use memlp_core::SignSplit;
use memlp_crossbar::{
    ArrayBlock, CostLedger, CrossbarConfig, FaultKind, FaultPlan, Phase, Quantizer, Writer,
};
use memlp_device::VariationModel;
use memlp_linalg::parallel::{self, with_threads, MIN_FLOPS_PER_THREAD};
use memlp_linalg::{LuFactors, Matrix, SparseMatrix};
use memlp_lp::generator::RandomLp;
use memlp_lp::LpProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tiled-over-naive speedup the m = 512 dense matvec must clear.
const GATE_MIN_SPEEDUP: f64 = 2.0;
/// Problem sizes for every kernel row.
const SIZES: [usize; 2] = [128, 512];
/// LP sizes of the `schur` rows: the paper's §4.2 grid point and the
/// §4.4 m = 1024 headline.
const SCHUR_SIZES: [usize; 2] = [128, 1024];

fn test_matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = (i * 7919 + j * 104_729 + seed * 15_485_863) % 1000;
        (h as f64) / 1000.0 - 0.5
    })
}

fn dominant_matrix(n: usize, seed: usize) -> Matrix {
    let mut a = test_matrix(n, n, seed);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn test_vec(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|j| (((j * 2_654_435_761 + seed) % 1000) as f64) / 1000.0 - 0.5)
        .collect()
}

/// Banded CSR test matrix: 16 nonzeros per interior row.
fn band_matrix(n: usize) -> SparseMatrix {
    let mut triplets = Vec::new();
    for i in 0..n {
        for d in 0..16usize {
            let j = (i + d * 5) % n;
            triplets.push((i, j, ((i + j) % 7) as f64 - 3.0));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets).expect("valid band pattern")
}

/// Median GF/s of `f`, which performs `flops` floating-point operations
/// per call.
fn gflops(flops: u64, f: impl FnMut()) -> f64 {
    flops as f64 / median_secs(f) / 1e9
}

/// Median seconds a call of `f`. Each rep times `inner` back-to-back
/// calls so short kernels are measured over ≥ milliseconds, not timer
/// granularity.
fn median_secs(f: impl FnMut()) -> f64 {
    let mut f = f;
    // Calibrate the inner loop to ~10 ms per rep.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let inner = ((0.01 / once) as usize).clamp(1, 10_000);
    let reps = 9;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        times.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(times)
}

/// The naive scalar baseline: one accumulator, no lane structure — the
/// loop every variant must beat for the tiling to have paid for itself.
fn naive_matvec(a: &Matrix, x: &[f64], y: &mut [f64]) {
    let cols = a.cols();
    let data = a.as_slice();
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (av, xv) in data[i * cols..(i + 1) * cols].iter().zip(x) {
            acc += av * xv;
        }
        *yi = acc;
    }
}

/// Naive i-j-k matmul with one accumulator per output element.
fn naive_matmul(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = acc;
        }
    }
}

/// Naive upper-triangle `A·diag(d)·Aᵀ`, one accumulator per entry,
/// mirrored into the lower triangle.
fn naive_scaled_gram(a: &Matrix, d: &[f64], g: &mut Matrix) {
    let (m, n) = (a.rows(), a.cols());
    for i in 0..m {
        for k in i..m {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[(i, j)] * d[j] * a[(k, j)];
            }
            g[(i, k)] = acc;
            g[(k, i)] = acc;
        }
    }
}

/// Naive unblocked right-looking LU with partial pivoting, in place.
fn naive_lu(a: &mut Matrix) {
    let n = a.rows();
    for j in 0..n {
        let mut p = j;
        for i in j + 1..n {
            if a[(i, j)].abs() > a[(p, j)].abs() {
                p = i;
            }
        }
        a.swap_rows(p, j);
        let pivot = a[(j, j)];
        for i in j + 1..n {
            let lij = a[(i, j)] / pivot;
            a[(i, j)] = lij;
            for c in j + 1..n {
                let u = a[(j, c)];
                a[(i, c)] -= lij * u;
            }
        }
    }
}

/// Naive CSR row loop, one accumulator per row.
fn naive_spmv(s: &SparseMatrix, x: &[f64], y: &mut [f64]) {
    let rp = s.row_ptr();
    let ci = s.col_idx();
    let vals = s.values();
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for idx in rp[i]..rp[i + 1] {
            acc += vals[idx] * x[ci[idx]];
        }
        *yi = acc;
    }
}

struct KernelRow {
    kernel: &'static str,
    m: usize,
    flops: u64,
    naive: f64,
    tiled: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.tiled / self.naive
    }
}

fn measure_kernels() -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &m in &SIZES {
        let a = test_matrix(m, m, 1);
        let b = test_matrix(m, m, 2);
        let x = test_vec(m, 3);
        let d: Vec<f64> = test_vec(m, 4).iter().map(|v| v.abs() + 0.1).collect();
        let lu_src = dominant_matrix(m, 5);
        let sp = band_matrix(m);

        // All kernel rates single-threaded: ILP throughput, not the pool.
        with_threads(1, || {
            let mv_flops = 2 * (m * m) as u64;
            let mut y = vec![0.0; m];
            rows.push(KernelRow {
                kernel: "matvec",
                m,
                flops: mv_flops,
                naive: gflops(mv_flops, || naive_matvec(&a, black_box(&x), &mut y)),
                tiled: gflops(mv_flops, || {
                    black_box(a.matvec(black_box(&x)));
                }),
            });

            let mm_flops = 2 * (m * m * m) as u64;
            let mut c = Matrix::zeros(m, m);
            rows.push(KernelRow {
                kernel: "matmul",
                m,
                flops: mm_flops,
                naive: gflops(mm_flops, || naive_matmul(&a, black_box(&b), &mut c)),
                tiled: gflops(mm_flops, || {
                    black_box(a.matmul(black_box(&b)).unwrap());
                }),
            });

            // The same count for both columns: the naive loop computes the
            // upper triangle only, as `scaled_gram` does.
            let sg_flops = (2 * m * m * m + m * m) as u64;
            let mut g = Matrix::zeros(m, m);
            rows.push(KernelRow {
                kernel: "scaled_gram",
                m,
                flops: sg_flops,
                naive: gflops(sg_flops, || naive_scaled_gram(&a, black_box(&d), &mut g)),
                tiled: gflops(sg_flops, || {
                    black_box(a.scaled_gram(black_box(&d)));
                }),
            });

            // LU: the 2/3·n³ model for both columns; each call factors a
            // fresh copy of the same matrix.
            let lu_flops = 2 * (m * m * m) as u64 / 3;
            rows.push(KernelRow {
                kernel: "lu_factor",
                m,
                flops: lu_flops,
                naive: gflops(lu_flops, || {
                    let mut work = lu_src.clone();
                    naive_lu(&mut work);
                    black_box(work);
                }),
                tiled: gflops(lu_flops, || {
                    black_box(LuFactors::factor(lu_src.clone()).unwrap());
                }),
            });

            // The CSR gather tree has one kernel; the tiled column reports it.
            let sp_flops = 2 * sp.nnz() as u64;
            let mut ys = vec![0.0; m];
            rows.push(KernelRow {
                kernel: "spmv",
                m,
                flops: sp_flops,
                naive: gflops(sp_flops, || naive_spmv(&sp, black_box(&x), &mut ys)),
                tiled: gflops(sp_flops, || {
                    black_box(sp.matvec(black_box(&x)));
                }),
            });
        });
    }
    // Algorithm 1's Schur product S = L·(R/e) at k = m/3 (DESIGN.md §13),
    // into a reused buffer as the Newton step forms it.
    for &m in &SCHUR_SIZES {
        let k = m / 3;
        let left = test_matrix(k, m, 6);
        let scaled = test_matrix(m, k, 7);
        let flops = 2 * (k * m * k) as u64;
        let mut s = Matrix::zeros(k, k);
        with_threads(1, || {
            rows.push(KernelRow {
                kernel: "schur",
                m,
                flops,
                naive: gflops(flops, || naive_matmul(&left, black_box(&scaled), &mut s)),
                tiled: gflops(flops, || {
                    left.matmul_into(black_box(&scaled), &mut s).unwrap();
                    black_box(&s);
                }),
            });
        });
    }
    rows
}

/// The m of the `adc` and `write` rows: the paper's §4.2 grid point.
const ARRAY_M: usize = 128;
/// Process variation of the `write` row, percent.
const WRITE_VARIATION_PCT: f64 = 10.0;

/// Algorithm 1's converter banks for `lp`: the seven blocks
/// `[m, n, n, m, m, n, kx + ky]` of its Newton vector.
fn alg1_banks(lp: &LpProblem) -> Vec<usize> {
    let (m, n) = (lp.num_constraints(), lp.num_vars());
    let k = SignSplit::split(lp.a()).num_compensations()
        + SignSplit::split(&lp.a().transpose()).num_compensations();
    vec![m, n, n, m, m, n, k]
}

/// The `adc` row: every bank of the Newton vector through the vector
/// converter kernel against the scalar reference loop, after checking
/// that the two agree bit for bit.
fn measure_adc(lp: &LpProblem) -> KernelRow {
    let banks = alg1_banks(lp);
    let len: usize = banks.iter().sum();
    // Per-bank scales a decade apart, as a converging iterate's blocks are.
    let v: Vec<f64> = test_vec(len, 8)
        .iter()
        .enumerate()
        .map(|(i, x)| x * 10f64.powi((i * 7 / len) as i32 - 3))
        .collect();
    let q = Quantizer::new(8);
    let scalar = |out: &mut [f64]| {
        let mut at = 0;
        for &b in &banks {
            let seg = &v[at..at + b];
            let fs = seg.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            for (o, &x) in out[at..at + b].iter_mut().zip(seg) {
                *o = q.quantize_against(x, fs);
            }
            at += b;
        }
    };
    let vector = |out: &mut [f64]| {
        let mut at = 0;
        for &b in &banks {
            q.quantize_into(&v[at..at + b], &mut out[at..at + b]);
            at += b;
        }
    };
    let (mut want, mut got) = (vec![0.0; len], vec![0.0; len]);
    scalar(&mut want);
    vector(&mut got);
    assert!(
        want.iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "adc: the vector converter kernel moved a bit against quantize_against"
    );
    let flops = 4 * len as u64;
    KernelRow {
        kernel: "adc",
        m: ARRAY_M,
        flops,
        naive: gflops(flops, || scalar(black_box(&mut want))),
        tiled: gflops(flops, || vector(black_box(&mut got))),
    }
}

/// The per-cell write body `ArrayBlock` ran before its span sweep, as the
/// `write` row's reference: the pass holds the variation stream, the code
/// cache and the plan behind references, and every cell reaches them and
/// the tallies through `&mut self`, tests the plan and the sweep at run
/// time, and codes its target with the branchy [`branchy_code`]. The
/// sweep is a flat block's (`line` false).
struct CellWriter<'a> {
    plan: &'a FaultPlan,
    clean: bool,
    cols: usize,
    codes: Option<&'a mut [u64]>,
    cached: bool,
    bits: u32,
    variation: VariationModel,
    rng: &'a mut StdRng,
    line: bool,
    a_max: f64,
    written: u64,
    skipped: u64,
}

impl CellWriter<'_> {
    /// Realizes row-major cell `idx` programmed to `t`.
    #[inline(always)]
    fn cell(&mut self, idx: usize, t: f64) -> f64 {
        let code = branchy_code(self.bits, t);
        let hit = match self.codes.as_deref_mut() {
            Some(codes) => {
                let hit = self.cached && codes[idx] == code;
                codes[idx] = code;
                hit
            }
            None => false,
        };
        let fault = if self.clean {
            FaultKind::Healthy
        } else {
            self.plan.fault_at(idx / self.cols, idx % self.cols)
        };
        let (value, charged) = match fault {
            FaultKind::StuckOn => (self.a_max, self.line),
            FaultKind::StuckOff => (0.0, self.line),
            FaultKind::Healthy if code == 0 && !self.line => (0.0, false),
            FaultKind::Healthy => {
                let factor = self.variation.draw_factor(self.rng);
                ((branchy_decode(self.bits, code) * factor).max(0.0), true)
            }
        };
        let skip = charged && hit && fault == FaultKind::Healthy;
        self.skipped += u64::from(skip);
        self.written += u64::from(charged && !skip);
        value
    }
}

/// [`memlp_crossbar::WriteQuantizer::code`] as it was before it went branch-free: one
/// branch on the target's sign, one on the precision, one on the
/// top-of-range carry.
fn branchy_code(bits: u32, v: f64) -> u64 {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let drop = 53 - bits;
    if drop == 0 {
        return v.to_bits();
    }
    let rounded = (v.to_bits() + (1u64 << (drop - 1))) >> drop;
    if f64::from_bits(rounded << drop).is_finite() {
        rounded
    } else {
        rounded - 1
    }
}

/// [`memlp_crossbar::WriteQuantizer::decode`] as it was, with its code-0 branch.
fn branchy_decode(bits: u32, code: u64) -> f64 {
    if code == 0 {
        return 0.0;
    }
    f64::from_bits(code << (53 - bits))
}

/// What the per-cell reference keeps across writes of one block.
struct CellState {
    plan: FaultPlan,
    codes: Vec<u64>,
    cached: bool,
    rng: StdRng,
    written: u64,
    skipped: u64,
}

impl CellState {
    /// Writes the flat block `target` cell by cell through [`CellWriter`];
    /// its codes are cached from then on.
    fn write(&mut self, target: &Matrix, config: &CrossbarConfig) -> Matrix {
        let mut out = Matrix::zeros(target.rows(), target.cols());
        let mut pass = CellWriter {
            plan: &self.plan,
            clean: self.plan.is_clean(),
            cols: target.cols(),
            codes: Some(&mut self.codes[..]),
            cached: self.cached,
            bits: config.write_bits,
            variation: config.variation,
            rng: &mut self.rng,
            line: false,
            a_max: 0.0,
            written: 0,
            skipped: 0,
        };
        let cells = out.as_mut_slice().iter_mut().zip(target.as_slice());
        for (idx, (o, &t)) in cells.enumerate() {
            *o = pass.cell(idx, t);
        }
        let (written, skipped) = (pass.written, pass.skipped);
        self.written += written;
        self.skipped += skipped;
        self.cached = true;
        out
    }
}

/// The `write` row: median nanoseconds a cell of programming `lp`'s
/// sign-split `A′` block through a fault-free [`ArrayBlock`], delta
/// programming on, against the per-cell reference loop [`CellWriter`],
/// after checking that the two realize the same bits, leave the stream in
/// the same state and charge the same writes. Returns `(cells,
/// reference_ns, span_ns)`.
fn measure_write(lp: &LpProblem) -> (usize, f64, f64) {
    let target = SignSplit::split(lp.a()).pos;
    let cells = target.rows() * target.cols();
    let config = CrossbarConfig::paper_default().with_variation(WRITE_VARIATION_PCT);
    assert!(config.delta_writes);
    let mut block = ArrayBlock::new(FaultPlan::clean(target.rows(), target.cols()), 0);
    let mut rng = StdRng::seed_from_u64(9);
    let mut ledger = CostLedger::new();
    let mut span_write = |rng: &mut StdRng, ledger: &mut CostLedger| {
        let mut w = Writer {
            config: &config,
            rng,
            ledger,
            phase: Phase::Setup,
        };
        block.write_block(black_box(&target), &mut w)
    };
    let mut reference = CellState {
        plan: FaultPlan::clean(target.rows(), target.cols()),
        codes: vec![0; cells],
        cached: false,
        rng: StdRng::seed_from_u64(9),
        written: 0,
        skipped: 0,
    };
    // A first write (nothing cached) and a second (every code held).
    for _ in 0..2 {
        let (want, got) = (
            reference.write(&target, &config),
            span_write(&mut rng, &mut ledger),
        );
        assert!(
            (want.as_slice().iter())
                .zip(got.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "write: the span sweep moved a bit against the per-cell reference"
        );
    }
    let c = ledger.counts();
    assert_eq!(
        (&reference.rng, reference.written, reference.skipped),
        (&rng, c.setup_writes, c.skipped_writes),
        "write: the span sweep left another stream state or tally than the per-cell reference"
    );
    let reference = median_secs(|| {
        black_box(reference.write(black_box(&target), &config));
    });
    let span = median_secs(|| {
        black_box(span_write(&mut rng, &mut ledger));
    });
    let ns = |secs: f64| secs / cells as f64 * 1e9;
    (cells, ns(reference), ns(span))
}

/// One extra naive/tiled matvec@512 pair, timed back-to-back, for the
/// gate retrials.
fn gate_matvec_trial() -> (f64, f64) {
    let m = 512;
    let a = test_matrix(m, m, 1);
    let x = test_vec(m, 3);
    let mut y = vec![0.0; m];
    let flops = 2 * (m * m) as u64;
    with_threads(1, || {
        (
            gflops(flops, || naive_matvec(&a, black_box(&x), &mut y)),
            gflops(flops, || {
                black_box(a.matvec(black_box(&x)));
            }),
        )
    })
}

/// Measured inputs behind `MIN_FLOPS_PER_THREAD`: the single-thread tiled
/// matvec rate and the wall cost of dispatching a two-worker band split,
/// whose product (flops retired during one dispatch) is the break-even
/// work a spawned worker must amortize.
fn measure_cutoff(tiled_matvec_gflops: f64) -> (f64, f64) {
    let mut buf = vec![0.0f64; 64];
    let reps = 200;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        parallel::par_bands(2, black_box(&mut buf), |_, band| {
            black_box(band);
        });
        times.push(t.elapsed().as_secs_f64());
    }
    let overhead = median(times);
    let implied = tiled_matvec_gflops * 1e9 * overhead;
    (overhead, implied)
}

/// Median wall time of the §3.2 sign split of a paper LP's `A` — the
/// host-side transform before programming; stdout only.
fn sign_split_secs(m: usize) -> f64 {
    let lp = RandomLp::paper(m, 1).feasible();
    median(
        (0..15)
            .map(|_| {
                let t = Instant::now();
                black_box(SignSplit::split(black_box(lp.a())));
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn main() {
    println!("register-tiled kernel microbench (single-thread rates, GF/s)");
    println!();
    println!(
        "{:>12} {:>5} {:>12} {:>8} {:>8} {:>9}",
        "kernel", "m", "flops", "naive", "tiled", "tiled/nv"
    );
    let array_lp = RandomLp::paper(ARRAY_M, 1).feasible();
    let mut rows = measure_kernels();
    rows.push(measure_adc(&array_lp));
    for r in &rows {
        println!(
            "{:>12} {:>5} {:>12} {:>8.2} {:>8.2} {:>8.2}x",
            r.kernel,
            r.m,
            r.flops,
            r.naive,
            r.tiled,
            r.speedup()
        );
    }

    let (write_cells, write_ref_ns, write_ns) = measure_write(&array_lp);
    println!(
        "write@{ARRAY_M}: {write_cells} cells, {write_ref_ns:.2} ns a cell per cell, \
         {write_ns:.2} span ({:.2}x)",
        write_ref_ns / write_ns
    );

    for m in [64, 256] {
        println!("sign_split@{m}: {} per split", fmt_time(sign_split_secs(m)));
    }

    let gate_row = rows
        .iter()
        .find(|r| r.kernel == "matvec" && r.m == 512)
        .expect("gate row present");
    let (overhead, implied) = measure_cutoff(gate_row.tiled);
    println!();
    println!(
        "threading cutoff: {:.2} GF/s x {:.1} µs dispatch = {:.0} flops \
         (MIN_FLOPS_PER_THREAD = {MIN_FLOPS_PER_THREAD})",
        gate_row.tiled,
        overhead * 1e6,
        implied
    );

    // The flop-rate assertion: every measured rate must be physically
    // sane, or the flops model in some row is wrong.
    for r in &rows {
        for (variant, rate) in [("naive", r.naive), ("tiled", r.tiled)] {
            assert!(
                rate.is_finite() && (0.01..1000.0).contains(&rate),
                "{}@{} {variant}: {rate} GF/s is not a believable flop rate",
                r.kernel,
                r.m
            );
        }
    }

    // The gate is best-of-3: on a shared 1-vCPU runner the single-shot
    // ratio swings tens of percent with host steal, which deflates the
    // naive and tiled timings asymmetrically. Each retrial re-times the
    // naive/tiled pair back-to-back and the gate takes the best trial —
    // transient host load cannot fail a genuinely 2x kernel, while a
    // kernel that truly lost the speedup fails all three.
    let mut gate_trials = vec![(gate_row.naive, gate_row.tiled)];
    while gate_trials.len() < 3
        && !gate_trials
            .iter()
            .any(|&(nv, td)| td / nv >= GATE_MIN_SPEEDUP)
    {
        gate_trials.push(gate_matvec_trial());
    }
    let (gate_naive, gate_tiled) = gate_trials
        .iter()
        .copied()
        .max_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)))
        .expect("at least one gate trial");
    let gate_speedup = gate_tiled / gate_naive;
    let gate_pass = gate_speedup >= GATE_MIN_SPEEDUP;
    println!(
        "gate matvec@512 tiled vs naive: {gate_speedup:.2}x over {} trial(s) \
         (need >= {GATE_MIN_SPEEDUP}x)",
        gate_trials.len()
    );

    let mut rows_json: Vec<_> = rows
        .iter()
        .map(|r| {
            obj! {
                kernel: quote(r.kernel), m: r.m, flops: r.flops,
                ~naive_gflops: format!("{:.3}", r.naive), ~tiled_gflops: format!("{:.3}", r.tiled),
                ~speedup_vs_naive: format!("{:.3}", r.speedup()),
            }
        })
        .collect();
    rows_json.push(obj! {
        kernel: quote("write"), m: ARRAY_M, cells: write_cells, variation_pct: WRITE_VARIATION_PCT,
        ~reference_ns_per_cell: format!("{write_ref_ns:.3}"), ~ns_per_cell: format!("{write_ns:.3}"),
        ~speedup_vs_reference: format!("{:.3}", write_ref_ns / write_ns),
    });
    let trials_json = gate_trials.iter().map(|(nv, td)| {
        obj! {
            naive_gflops: format!("{nv:.3}"), tiled_gflops: format!("{td:.3}"),
            speedup: format!("{:.3}", td / nv),
        }
    });
    let doc = obj! {
        bench: quote("kernel_tiles"),
        suite: quote("register-tiled digital kernels, single-thread flop rates"),
        gate_min_speedup: GATE_MIN_SPEEDUP,
        gate_row: quote("matvec@512 tiled vs naive scalar"),
        rows: Rows(rows_json),
        threading_cutoff: obj! {
            min_flops_per_thread: MIN_FLOPS_PER_THREAD,
            ~tiled_matvec_gflops: format!("{:.3}", gate_row.tiled),
            ~dispatch_overhead_secs: format!("{overhead:.3e}"),
            ~implied_cutoff_flops: format!("{implied:.0}"),
            method: quote(
                "single-thread tiled matvec rate times the measured two-worker par_bands \
                 dispatch wall cost; the constant is that product rounded up to a power of \
                 two so a spawned worker amortizes at least one dispatch of work",
            ),
        },
        ~gate_trials: Rows(trials_json.collect()),
        ~gate_speedup: format!("{gate_speedup:.3}"),
    };
    artifact::finish("BENCH_kernels.json", doc, gate_pass);
}
