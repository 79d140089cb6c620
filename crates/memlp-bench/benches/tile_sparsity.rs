//! Block-sparse analog execution study (DESIGN.md §18).
//!
//! Zero-tile elision on the analog PDHG backend: the sign-split planes of
//! every memlp-lp domain are block-sparse at the 128-cell analog tile
//! side (an assignment constraint matrix is 0/1 with two ones per column,
//! so half its positive-plane tiles — and the *entire* negative plane —
//! are planned dead). With `CrossbarConfig::tile_elision` the dead tiles
//! are never fabricated: no programming sweep, no fault plan, no fabric
//! traffic. This bench measures what that buys and proves it costs
//! nothing in results:
//!
//! 1. **Write/energy table** — every domain at m ∈ {128, 512}, elision on
//!    vs off: setup writes, programming (write) energy, total energy,
//!    modeled run latency, NoC transfers. The off mode is the oracle —
//!    bit-for-bit, not approximately.
//! 2. **Bitwise identity** — for each row, elision-on `x`/`y` must equal
//!    the elision-off run *bitwise* at worker counts {1, 2, 8} (dead
//!    tiles contribute exact zeros and draw no variation, so live cells
//!    keep their draws, and accumulation order is fixed).
//! 3. **Headline** — assignment at k = 256 (m = 512, n = 65536): the CI
//!    gate requires ≥ 50% setup-write and write-energy reduction and a
//!    strictly lower modeled MVM/run latency with elision on.
//!
//! Run cost is modeled hardware cost from the [`CostLedger`], not
//! wall-clock: the win is fewer cells programmed and fewer tile transfers
//! scheduled, which the ledger prices deterministically — so every field
//! of `BENCH_tile_sparsity.json` must match the committed file.
//!
//! [`CostLedger`]: memlp_crossbar::CostLedger

use memlp_bench::artifact::{self, quote, Obj, Rows};
use memlp_bench::{domain_lp, obj, DOMAINS};
use memlp_core::{Budget, CrossbarPdhgOptions, CrossbarPdhgSolver, ANALOG_TILE_SIDE};
use memlp_crossbar::{CrossbarConfig, TileOccupancy};
use memlp_device::CostParams;
use memlp_linalg::parallel::with_threads;
use memlp_linalg::Matrix;
use memlp_lp::LpProblem;

const THREADS: [usize; 3] = [1, 2, 8];
const SEED: u64 = 21;
const VARIATION_PCT: f64 = 5.0;

/// Tile-grid geometry of the sign-split planes the analog operator
/// programs (planned coefficients only — the same index the solver
/// builds).
fn plane_geometry(lp: &LpProblem) -> (u64, u64) {
    let a = lp.a();
    let pos = Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)].max(0.0));
    let neg = Matrix::from_fn(a.rows(), a.cols(), |i, j| (-a[(i, j)]).max(0.0));
    let p = TileOccupancy::from_matrix(&pos, ANALOG_TILE_SIDE);
    let n = TileOccupancy::from_matrix(&neg, ANALOG_TILE_SIDE);
    (
        (p.grid_tiles() + n.grid_tiles()) as u64,
        (p.live_tiles() + n.live_tiles()) as u64,
    )
}

struct ModeCost {
    status: String,
    iterations: usize,
    setup_writes: u64,
    tiles_elided: u64,
    elided_writes: u64,
    noc_transfers: u64,
    mvms: u64,
    write_energy_j: f64,
    energy_j: f64,
    run_time_s: f64,
    setup_time_s: f64,
    x_bits: Vec<u64>,
    y_bits: Vec<u64>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One analog PDHG solve with elision forced to `elide`. The large rows
/// run one 400-iteration attempt (an iteration budget ends the solve
/// without re-solve attempts): cost accounting and bitwise identity are
/// trajectory properties, not convergence properties, and the trajectory
/// is identical across modes by construction.
fn run(lp: &LpProblem, m_target: usize, elide: bool) -> ModeCost {
    let cfg = CrossbarConfig::paper_default()
        .with_variation(VARIATION_PCT)
        .with_seed(SEED)
        .with_tile_elision(elide);
    let budget = if m_target >= 512 {
        Budget::none().with_max_iters(400)
    } else {
        Budget::none()
    };
    let res =
        CrossbarPdhgSolver::new(cfg, CrossbarPdhgOptions::default()).solve_budgeted(lp, budget);
    let ledger = res.ledger;
    let c = ledger.counts();
    let cost = CostParams::default();
    ModeCost {
        status: res.solution.status.to_string(),
        iterations: res.solution.iterations,
        setup_writes: c.setup_writes,
        tiles_elided: c.tiles_elided,
        elided_writes: c.elided_writes,
        noc_transfers: c.noc_transfers,
        mvms: c.mvm_ops,
        write_energy_j: cost.write_energy(VARIATION_PCT / 100.0)
            * (c.setup_writes + c.update_writes) as f64,
        energy_j: ledger.energy_j(&cost),
        run_time_s: ledger.run_time_s(),
        setup_time_s: ledger.setup_time_s(),
        x_bits: bits(&res.solution.x),
        y_bits: bits(&res.solution.y),
    }
}

fn reduction(off: f64, on: f64) -> f64 {
    if off > 0.0 {
        1.0 - on / off
    } else {
        0.0
    }
}

fn mode_json(m: &ModeCost) -> Obj {
    obj! {
        status: quote(&m.status), iterations: m.iterations, setup_writes: m.setup_writes,
        tiles_elided: m.tiles_elided, elided_writes: m.elided_writes,
        noc_transfers: m.noc_transfers, mvms: m.mvms,
        write_energy_j: format!("{:.6}", m.write_energy_j), energy_j: format!("{:.6}", m.energy_j),
        run_time_s: format!("{:.9}", m.run_time_s), setup_time_s: format!("{:.6}", m.setup_time_s),
    }
}

fn main() {
    println!(
        "block-sparse analog execution: zero-tile elision at tile side {ANALOG_TILE_SIDE}, \
         {VARIATION_PCT}% variation, seed {SEED}"
    );
    println!();
    println!(
        "{:>11} {:>5} {:>6} {:>6} {:>5} {:>12} {:>12} {:>7} {:>7} {:>8}",
        "domain",
        "m",
        "n",
        "tiles",
        "live",
        "writes off",
        "writes on",
        "wr red",
        "en red",
        "bitwise"
    );

    let mut rows_json = Vec::new();
    let mut all_bitwise = true;
    let mut headline_pair: Option<(ModeCost, ModeCost)> = None;
    for &m_target in &[128usize, 512] {
        for domain in DOMAINS {
            let lp = domain_lp(domain, m_target);
            let (grid, live) = plane_geometry(&lp);

            // Oracle: elision off, one worker. Bit-for-bit, not a tolerance.
            let off = with_threads(1, || run(&lp, m_target, false));
            let on = with_threads(1, || run(&lp, m_target, true));

            // Elision on must be invisible at every worker count. The
            // one-worker run is `on` itself; the sweep covers the rest.
            let mut bitwise = on.x_bits == off.x_bits && on.y_bits == off.y_bits;
            for &threads in THREADS.iter().filter(|&&t| t != 1) {
                let t = with_threads(threads, || run(&lp, m_target, true));
                bitwise &= t.x_bits == off.x_bits && t.y_bits == off.y_bits;
            }
            all_bitwise &= bitwise;

            let wr_red = reduction(off.setup_writes as f64, on.setup_writes as f64);
            let we_red = reduction(off.write_energy_j, on.write_energy_j);
            let en_red = reduction(off.energy_j, on.energy_j);
            let rt_red = reduction(off.run_time_s, on.run_time_s);
            println!(
                "{domain:>11} {:>5} {:>6} {:>6} {:>5} {:>12} {:>12} {:>6.1}% {:>6.1}% {:>8}",
                lp.num_constraints(),
                lp.num_vars(),
                grid,
                live,
                off.setup_writes,
                on.setup_writes,
                wr_red * 100.0,
                en_red * 100.0,
                if bitwise { "ok" } else { "FAIL" },
            );
            rows_json.push(obj! {
                domain: quote(domain), m_target: m_target, m: lp.num_constraints(),
                n: lp.num_vars(), grid_tiles: grid, live_tiles: live,
                off: mode_json(&off), on: mode_json(&on),
                write_reduction: format!("{wr_red:.6}"),
                write_energy_reduction: format!("{we_red:.6}"),
                energy_reduction: format!("{en_red:.6}"),
                run_time_reduction: format!("{rt_red:.6}"),
                bitwise_identical: bitwise, threads_checked: format!("{THREADS:?}"),
            });
            if domain == "assignment" && m_target == 512 {
                headline_pair = Some((off, on));
            }
        }
    }

    // --- Headline: assignment at k = 256 agents. Half the positive-plane
    // tiles and the whole negative plane are planned dead, so the full-
    // grid fabrication sweep is mostly hardware that never needed to
    // exist.
    let lp = domain_lp("assignment", 512);
    let (grid, live) = plane_geometry(&lp);
    let (off, on) = headline_pair.expect("assignment@512 row ran");
    let hl_bitwise = on.x_bits == off.x_bits && on.y_bits == off.y_bits;
    let wr_red = reduction(off.setup_writes as f64, on.setup_writes as f64);
    let we_red = reduction(off.write_energy_j, on.write_energy_j);
    let en_red = reduction(off.energy_j, on.energy_j);
    let latency_win = on.run_time_s < off.run_time_s;
    println!();
    println!(
        "headline assignment@k=256: {live}/{grid} tiles live, writes {} -> {} \
         ({:.1}% reduction), write energy {:.3} J -> {:.3} J, run {:.3} ms -> {:.3} ms",
        off.setup_writes,
        on.setup_writes,
        wr_red * 100.0,
        off.write_energy_j,
        on.write_energy_j,
        off.run_time_s * 1e3,
        on.run_time_s * 1e3,
    );

    let gate_pass =
        all_bitwise && hl_bitwise && wr_red >= 0.5 && we_red >= 0.5 && en_red >= 0.5 && latency_win;

    let doc = obj! {
        bench: quote("tile_sparsity"),
        suite: quote(
            "block-sparse analog execution: zero-tile elision on the analog PDHG \
             backend, elision-off as bitwise oracle",
        ),
        tile_side: ANALOG_TILE_SIDE,
        variation_pct: VARIATION_PCT,
        rows: Rows(rows_json),
        headline: obj! {
            domain: quote("assignment"), agents: 256, m: lp.num_constraints(),
            n: lp.num_vars(), grid_tiles: grid, live_tiles: live,
            off: mode_json(&off), on: mode_json(&on),
            write_reduction: format!("{wr_red:.6}"),
            write_energy_reduction: format!("{we_red:.6}"),
            energy_reduction: format!("{en_red:.6}"),
            mvm_latency_win: latency_win, bitwise_identical: hl_bitwise,
        },
        gates: obj! {
            all_rows_bitwise: all_bitwise, write_reduction_min: 0.5,
            write_energy_reduction_min: 0.5, energy_reduction_min: 0.5,
            mvm_latency_win: latency_win,
        },
    };
    artifact::finish("BENCH_tile_sparsity.json", doc, gate_pass);
}
