//! Snapshot of every digital `LpSolver` on five LPs under three budgets.
//!
//! Solvers: simplex, dense PDIP, normal-equations PDIP, Mehrotra PDIP and
//! digital PDHG. LPs: two feasible paper instances (m = 24 and m = 48), one
//! infeasible and one unbounded — all fully dense — and a transportation
//! LP. Runs: plain `solve`, a `max_iters(3)` budget and a two-poll
//! `IterationDeadline`.
//!
//! Each run pins its status, iteration count, budget cause and a hash of
//! the solution bits. The expected lines were recorded before the three
//! PDIP baselines were folded onto one Newton loop (the transportation
//! lines before the Newton-path selector was deleted); any change to the
//! loop's exit order, its budget polling or its arithmetic shows up here
//! as a changed line.
//!
//! Twelve `mehrotra` lines were re-recorded when Mehrotra PDIP moved onto
//! the normal-equations PDIP's Newton core; their statuses and iteration
//! counts did not move. The dense instances (feasible24 and feasible48
//! under all three runs, infeasible `solve` and `max_iters3`, unbounded
//! `solve`) moved because the dense normal equations are now polished by
//! two rounds of iterative refinement; the three transport lines moved
//! because that LP's density puts Mehrotra on the sparse KKT
//! factorization. The other three `mehrotra` lines kept their bits.
//!
//! One more line pins the normal-equations PDIP on a routing LP whose
//! sparse KKT factorization breaks down on some iterations, which then
//! fall back to the dense normal equations. It was recorded before the KKT
//! assembly moved into `memlp-linalg`.
//!
//! Seven lines were re-recorded when the normal-equations KKT moved from
//! the static-pivot LU to a sparse LDLᵀ whose refinement stops at
//! backward-error level: `normal` and `mehrotra` on transport under all
//! three runs, and the routing fallback line. Those are exactly the runs
//! that factor the sparse KKT; a different factorization rounds
//! differently, so the solution bits moved, while every status, iteration
//! count and budget cause stayed. The dense-instance lines kept their
//! bits: computing the residuals once per iteration, for both the exit
//! tests and the Newton solve, left their arithmetic as it was.
//!
//! Three lines were added, recorded before the digital PDIP loop moved to
//! buffers kept for the whole solve, cached quotients, a branch-free step
//! length and a one-walk symbolic analysis: `normal` and `mehrotra` on
//! `TransportationProblem::random(4, 508, 101)`, the shape of the `.lp`
//! files `memlp solve --solver auto` is benchmarked on, and `mehrotra` on
//! the routing LP whose KKT factorization falls back to the dense normal
//! equations mid-solve. None of them, and no other line, moved.
//!
//! Twenty-eight lines were re-recorded when the normal-equations PDIP
//! stopped forming `A·D·Aᵀ` densely and the shared loop started reading
//! each Newton direction as an infeasibility or unboundedness ray:
//! - `normal` and `mehrotra` on feasible24, feasible48, infeasible and
//!   unbounded, all three runs (24 lines): these dense LPs now factor the
//!   same KKT LDLᵀ as the sparse ones, which rounds differently. Every
//!   feasible status and iteration count stayed. On infeasible and
//!   unbounded the ray test fires before the iterate reaches Ω: `normal`
//!   goes 9→6 and 22→12 iterations, `mehrotra` 5→4 and 8→5.
//! - `dense` infeasible and unbounded `solve` (2 lines): the ray test
//!   gives the same verdicts after 6 and 12 iterations instead of 21 and
//!   22. The `dense` budget lines stop before the ray shows and kept
//!   their bits.
//! - the `normal` and `mehrotra` routing pins (2 lines): the iterations
//!   whose LDLᵀ breaks down now refactor with a shifted diagonal instead
//!   of falling back to the dense normal equations. Status and iteration
//!   count stayed.
//!
//! The transport lines and the transport508 pins factor the same LDLᵀ as
//! before, meet no breakdown and no ray, and kept their bits.

use memlp_lp::domains::{
    assignment_lp, max_flow_lp, transportation_lp, AssignmentProblem, MaxFlowNetwork,
    TransportationProblem,
};
use memlp_lp::generator::RandomLp;
use memlp_lp::{LpProblem, LpSolution};
use memlp_solvers::{
    Budget, BudgetCause, DensePdip, IterationDeadline, LpSolver, MehrotraPdip, NormalEqPdip,
    PdhgSolver, Simplex,
};

fn solvers() -> Vec<(&'static str, Box<dyn LpSolver>)> {
    vec![
        ("simplex", Box::new(Simplex::default())),
        ("dense", Box::new(DensePdip::default())),
        ("normal", Box::new(NormalEqPdip::default())),
        ("mehrotra", Box::new(MehrotraPdip::default())),
        ("pdhg", Box::new(PdhgSolver::default())),
    ]
}

fn problems() -> Vec<(&'static str, LpProblem)> {
    vec![
        ("feasible24", RandomLp::paper(24, 7).feasible()),
        ("feasible48", RandomLp::paper(48, 8).feasible()),
        ("infeasible", RandomLp::paper(16, 9).infeasible()),
        ("unbounded", RandomLp::paper(16, 9).unbounded()),
        (
            "transport",
            transportation_lp(&TransportationProblem::random(4, 9, 1)).expect("valid domain"),
        ),
    ]
}

/// FNV-1a over `x`, `y`, the objective and the three residual fields,
/// bit for bit.
fn solution_hash(s: &LpSolution) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in s.x.iter().chain(&s.y) {
        eat(v.to_bits());
    }
    for v in [
        s.objective,
        s.primal_residual,
        s.dual_residual,
        s.duality_gap,
    ] {
        eat(v.to_bits());
    }
    h
}

fn line(solver: &str, lp: &str, run: &str, s: &LpSolution, cause: Option<BudgetCause>) -> String {
    format!(
        "{solver} {lp} {run}: {:?} iters={} cause={cause:?} {:016x}",
        s.status,
        s.iterations,
        solution_hash(s)
    )
}

#[test]
fn digital_solver_snapshot() {
    let mut actual = Vec::new();
    for (sname, solver) in solvers() {
        for (lname, lp) in problems() {
            let plain = solver.solve(&lp);
            actual.push(line(sname, lname, "solve", &plain, None));
            let (s, cause) = solver.solve_budgeted(&lp, Budget::none().with_max_iters(3));
            actual.push(line(sname, lname, "max_iters3", &s, cause));
            let deadline = IterationDeadline::new(2);
            let (s, cause) = solver.solve_budgeted(&lp, Budget::none().with_deadline(&deadline));
            actual.push(line(sname, lname, "deadline2", &s, cause));
        }
    }
    let actual = actual.join("\n");
    let expected = EXPECTED.join("\n");
    assert_eq!(actual, expected, "digital snapshot changed:\n{actual}");
}

#[test]
fn normal_eq_kkt_fallback_snapshot() {
    let lp = max_flow_lp(&MaxFlowNetwork::random_layered(12, 12, 3)).expect("valid domain");
    let s = NormalEqPdip::default().solve(&lp);
    assert_eq!(
        line("normal", "routing12", "solve", &s, None),
        "normal routing12 solve: Optimal iters=16 cause=None b293d50e1532841e"
    );
    let s = MehrotraPdip::default().solve(&lp);
    assert_eq!(
        line("mehrotra", "routing12", "solve", &s, None),
        "mehrotra routing12 solve: Optimal iters=8 cause=None c5689e5984333e44"
    );
}

#[test]
fn normal_eq_transport_4x508_snapshot() {
    let lp = transportation_lp(&TransportationProblem::random(4, 508, 101)).expect("valid domain");
    let normal = NormalEqPdip::default().solve(&lp);
    let mehrotra = MehrotraPdip::default().solve(&lp);
    assert_eq!(
        [
            line("normal", "transport508", "solve", &normal, None),
            line("mehrotra", "transport508", "solve", &mehrotra, None),
        ],
        [
            "normal transport508 solve: Optimal iters=22 cause=None b9b0fd6fb4ec8230",
            "mehrotra transport508 solve: Optimal iters=15 cause=None 10fe98cd0fb6a7c8",
        ]
    );
}

/// A known stall of the normal-equations PDIP: on this assignment draw it
/// ends `IterationLimit` at its 200-iteration cap with the duality gap
/// near 2e-6, while Mehrotra PDIP on the same Newton core converges. The
/// pin records the defect as it stands; a fix moves the `normal` line.
#[test]
fn normal_eq_assignment16_stall_snapshot() {
    let lp = assignment_lp(&AssignmentProblem::random(16, 12)).expect("valid domain");
    let normal = NormalEqPdip::default().solve(&lp);
    let mehrotra = MehrotraPdip::default().solve(&lp);
    assert_eq!(
        [
            line("normal", "assignment16", "solve", &normal, None),
            line("mehrotra", "assignment16", "solve", &mehrotra, None),
        ],
        [
            "normal assignment16 solve: IterationLimit iters=200 cause=None a956ebae266b69f8",
            "mehrotra assignment16 solve: Optimal iters=10 cause=None e4556a8ac36fea20",
        ],
        "normal gap {:e}",
        normal.duality_gap
    );
}

const EXPECTED: &[&str] = &[
    "simplex feasible24 solve: Optimal iters=23 cause=None 9e28cb64eb3f6b5a",
    "simplex feasible24 max_iters3: Optimal iters=23 cause=None 9e28cb64eb3f6b5a",
    "simplex feasible24 deadline2: Optimal iters=23 cause=None 9e28cb64eb3f6b5a",
    "simplex feasible48 solve: Optimal iters=73 cause=None 5c869fc59d78c685",
    "simplex feasible48 max_iters3: Optimal iters=73 cause=None 5c869fc59d78c685",
    "simplex feasible48 deadline2: Optimal iters=73 cause=None 5c869fc59d78c685",
    "simplex infeasible solve: Infeasible iters=4 cause=None cb78d0fe07bedd85",
    "simplex infeasible max_iters3: Infeasible iters=4 cause=None cb78d0fe07bedd85",
    "simplex infeasible deadline2: Infeasible iters=4 cause=None cb78d0fe07bedd85",
    "simplex unbounded solve: Unbounded iters=11 cause=None cb78d0fe07bedd85",
    "simplex unbounded max_iters3: Unbounded iters=11 cause=None cb78d0fe07bedd85",
    "simplex unbounded deadline2: Unbounded iters=11 cause=None cb78d0fe07bedd85",
    "simplex transport solve: Optimal iters=57 cause=None fa1317efc2809e7a",
    "simplex transport max_iters3: Optimal iters=57 cause=None fa1317efc2809e7a",
    "simplex transport deadline2: Optimal iters=57 cause=None fa1317efc2809e7a",
    "dense feasible24 solve: Optimal iters=12 cause=None 41a3716bb44e0f00",
    "dense feasible24 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 7c68f5fa344cb542",
    "dense feasible24 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) bb4ed63707dca418",
    "dense feasible48 solve: Optimal iters=13 cause=None 054ccef0937c07fe",
    "dense feasible48 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) b3cdf67e081e269e",
    "dense feasible48 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 5bc71a6781ac5a05",
    "dense infeasible solve: Infeasible iters=6 cause=None 2eb41ef48383a05c",
    "dense infeasible max_iters3: IterationLimit iters=3 cause=Some(MaxIters) d953d0b3610953f5",
    "dense infeasible deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 2e192176efec2ae4",
    "dense unbounded solve: Unbounded iters=12 cause=None fc01eb6e2ae4253a",
    "dense unbounded max_iters3: IterationLimit iters=3 cause=Some(MaxIters) e5b7c8e767d844c2",
    "dense unbounded deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) f5266773193c2128",
    "dense transport solve: Optimal iters=14 cause=None 650735b6e350d98b",
    "dense transport max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 2294ca21e81d0df5",
    "dense transport deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) b72524c686cecc34",
    "normal feasible24 solve: Optimal iters=12 cause=None 6cbbc867fe29076c",
    "normal feasible24 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) d1cf4ace40ed2249",
    "normal feasible24 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) c05c4883b7d3f9a9",
    "normal feasible48 solve: Optimal iters=13 cause=None 79fbe0a12f461e87",
    "normal feasible48 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 8211a13e457edd6c",
    "normal feasible48 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 76307f90e7c36b46",
    "normal infeasible solve: Infeasible iters=6 cause=None fa23cd4fe01f73ab",
    "normal infeasible max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 57543c9517a52cde",
    "normal infeasible deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 76ef23ccda9435b3",
    "normal unbounded solve: Unbounded iters=12 cause=None 8e5e9ca593c37c7b",
    "normal unbounded max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 781863e957423a5b",
    "normal unbounded deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 6c1c7e4600f8f8eb",
    "normal transport solve: Optimal iters=14 cause=None d5b6c3561318a989",
    "normal transport max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 16fb790d0a32cd40",
    "normal transport deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) a63993cfa1286451",
    "mehrotra feasible24 solve: Optimal iters=7 cause=None d92036999c5d6db2",
    "mehrotra feasible24 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 3d3224d2590d76a1",
    "mehrotra feasible24 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) e9f44b0d4e2badc1",
    "mehrotra feasible48 solve: Optimal iters=7 cause=None f14f132d47837b1b",
    "mehrotra feasible48 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) afa53a363d8c58e7",
    "mehrotra feasible48 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) f029389685e3af65",
    "mehrotra infeasible solve: Infeasible iters=4 cause=None 98d8da27749a7114",
    "mehrotra infeasible max_iters3: IterationLimit iters=3 cause=Some(MaxIters) ef4f401797634010",
    "mehrotra infeasible deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 88eedb206a64db7e",
    "mehrotra unbounded solve: Unbounded iters=5 cause=None ce4b2fa72b183111",
    "mehrotra unbounded max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 33226465951b2a5b",
    "mehrotra unbounded deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) f95bd89ca5ec0c4d",
    "mehrotra transport solve: Optimal iters=9 cause=None 4a78d49cf4c0d240",
    "mehrotra transport max_iters3: IterationLimit iters=3 cause=Some(MaxIters) ac6560bcae9ad82e",
    "mehrotra transport deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) bef4c6e17c5994eb",
    "pdhg feasible24 solve: Optimal iters=1872 cause=None b1f426686bcfa294",
    "pdhg feasible24 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 6f69e0889ba63a48",
    "pdhg feasible24 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 858c0fe79eeac5fd",
    "pdhg feasible48 solve: Optimal iters=11584 cause=None 3fe3c80532c4f6f2",
    "pdhg feasible48 max_iters3: IterationLimit iters=3 cause=Some(MaxIters) d1cf91e9a7784f97",
    "pdhg feasible48 deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 03c6d8b750aedba0",
    "pdhg infeasible solve: Infeasible iters=12272 cause=None 4e900c19809c6e36",
    "pdhg infeasible max_iters3: IterationLimit iters=3 cause=Some(MaxIters) fdf7eb32561b50cb",
    "pdhg infeasible deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 68028b9f1489c838",
    "pdhg unbounded solve: Unbounded iters=9024 cause=None 9c1de42b610cecf5",
    "pdhg unbounded max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 8387acb64aff79c1",
    "pdhg unbounded deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 9207d91ced430940",
    "pdhg transport solve: Optimal iters=2144 cause=None c51de6a3bc24d144",
    "pdhg transport max_iters3: IterationLimit iters=3 cause=Some(MaxIters) 77904f2acbbfab49",
    "pdhg transport deadline2: IterationLimit iters=2 cause=Some(DeadlineExceeded) 05a0c5df777702ec",
];
