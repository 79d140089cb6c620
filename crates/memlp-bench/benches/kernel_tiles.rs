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
use memlp_linalg::parallel::{self, with_threads, MIN_FLOPS_PER_THREAD};
use memlp_linalg::{LuFactors, Matrix, SparseMatrix};
use memlp_lp::generator::RandomLp;

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
/// per call. Each rep times `inner` back-to-back calls so short kernels
/// are measured over ≥ milliseconds, not timer granularity.
fn gflops(flops: u64, f: impl FnMut()) -> f64 {
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
    flops as f64 / median(times) / 1e9
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
    let rows = measure_kernels();
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

    let rows_json = rows.iter().map(|r| {
        obj! {
            kernel: quote(r.kernel), m: r.m, flops: r.flops,
            ~naive_gflops: format!("{:.3}", r.naive), ~tiled_gflops: format!("{:.3}", r.tiled),
            ~speedup_vs_naive: format!("{:.3}", r.speedup()),
        }
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
        rows: Rows(rows_json.collect()),
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
