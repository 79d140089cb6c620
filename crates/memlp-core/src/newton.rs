//! The augmented Newton system of Eqn 14a, realized block-by-block on
//! simulated crossbar hardware.
//!
//! Unknown ordering (columns of `M`):
//!
//! ```text
//! Δs = [ Δx (n) | Δy (m) | Δw (m) | Δz (n) | Δu (m) | Δv (n) | Δp (k) ]
//! ```
//!
//! with `k = kx + ky` compensation variables (`Δp = [Δp_x | Δp_y]`,
//! `Δp_x[r] = −Δx[cx_r]`, `Δp_y[r] = −Δy[cy_r]`). Row blocks of `M`:
//!
//! ```text
//! R1 (m):  A′·Δx            + Iw·Δw                    + A″·Δp_x   = ρ
//! R2 (n):          Aᵀ′·Δy                    + Iv·Δv   + Aᵀ″·Δp_y  = σ
//! R3 (n):  Z·Δx                     + X·Δz                         = µe−XZe
//! R4 (m):          W·Δy    + Y·Δw                                  = µe−YWe
//! R5 (m):                    I₁·Δw          + I₂·Δu               = 0
//! R6 (n):                             I₃·Δz          + I₄·Δv      = 0
//! R7 (k):  AI·Δx + ATI·Δy                              + Ip·Δp    = 0
//! ```
//!
//! Every symbol above is the **realized** (variation-perturbed) block. The
//! analog array solves this entire system in O(1); the simulator recovers
//! the identical solution by exact block elimination down to an `(n+m)`
//! core (DESIGN.md §4) — pure algebra, no approximation. The core's two
//! off-diagonal blocks are diagonal, so the dense path eliminates one more
//! block and factors only a `min(n,m)` Schur system (DESIGN.md §13).

use memlp_crossbar::Phase;
use memlp_linalg::{inf_norm_mat, ops, BlockKkt, LuFactors, Matrix, SparseMatrix};
use memlp_lp::LpProblem;
use memlp_solvers::pdip::{sparse_newton, CoreSolveError, PdipState, StepDirections};

use crate::hw::HwContext;
use crate::transform::SignSplit;

/// Stable block keys identifying the physical array regions of the
/// augmented system (fault plans attach to these; see `HwContext`).
mod key {
    pub const AP: u32 = 0;
    pub const AN: u32 = 1;
    pub const ATP: u32 = 2;
    pub const ATN: u32 = 3;
    pub const IW: u32 = 4;
    pub const IV: u32 = 5;
    pub const I1: u32 = 6;
    pub const I2: u32 = 7;
    pub const I3: u32 = 8;
    pub const I4: u32 = 9;
    pub const IPX: u32 = 10;
    pub const IPY: u32 = 11;
    pub const SELX: u32 = 12;
    pub const SELY: u32 = 13;
    pub const ZD: u32 = 14;
    pub const XD: u32 = 15;
    pub const WD: u32 = 16;
    pub const YD: u32 = 17;
}

/// Allocation guard for the dense core path: each dense buffer a
/// factorization allocates stays below this many bytes, or that
/// factorization refuses with [`CoreSolveError::CoreTooLarge`] instead of
/// attempting the allocation. Algorithm 1's `min(n,m)` Schur solve is
/// admitted by its own buffers (`8·k·(k+K)` bytes, `k = min(n,m)`,
/// `K = max(n,m)`) and its `(n+m)` LU fallback by the `(n+m)²` core
/// ([`dense_core_bytes`]). 2 GiB admits `(n+m)²` cores up to
/// `n + m ≈ 16 000` — comfortably past every dense-path domain this
/// workspace ships — while refusing the ~35 GB core of assignment@512
/// (`n = 256² = 65 536`).
pub const DENSE_CORE_LIMIT_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Bytes the dense `(dim)²` core buffer would need — the size rule behind
/// [`DENSE_CORE_LIMIT_BYTES`] for the `(n+m)` LU and for every caller that
/// routes by it.
pub fn dense_core_bytes(dim: usize) -> u64 {
    8 * dim as u64 * dim as u64
}

/// Bytes the `min(n,m)` Schur solve allocates: its `k×k` matrix and the
/// `K×k` scaled block, with `k = min(n,m)` and `K = max(n,m)`.
fn schur_bytes(n: usize, m: usize) -> u64 {
    let (k, big) = (n.min(m) as u64, n.max(m) as u64);
    8 * k * (k + big)
}

/// The refusal for a dense buffer of `bytes` on the `dim` core.
fn too_large(dim: usize, bytes: u64) -> CoreSolveError {
    CoreSolveError::CoreTooLarge {
        dim,
        bytes,
        limit: DENSE_CORE_LIMIT_BYTES,
    }
}

/// Normwise backward error `‖K·Δ − r‖∞ / (‖K‖∞·‖Δ‖∞ + ‖r‖∞)` on the
/// unreduced `(n+m)` core above which a reduced (Schur) dense solve is
/// discarded for the `(n+m)` LU. It catches a Schur system that lost
/// accuracy without meeting an exactly zero pivot: over 22 000 Newton steps
/// of 720 Algorithm 1 solves of paper random LPs (m = 24…128, 10%
/// variation) the accepted ones stayed below 4e-11, while the 31 that lost
/// accuracy (diverging infeasible iterates at m ≤ 48) all measured 1.5e-8
/// or more.
const REDUCED_RESIDUAL_TOL: f64 = 1e-9;

/// The digital factorization of the `(n+m)` Newton core, for
/// [`AugmentedSystem::force_factorization`]. The analog physics is the
/// same under both; only the controller's arithmetic differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factorization {
    /// The `min(n,m)` Schur solve, with the `(n+m)` LU as its fallback.
    Dense,
    /// The static-pivot sparse LU with symbolic-analysis reuse, falling
    /// back to the dense factorization on a pivot breakdown.
    Sparse,
}

/// The realized augmented system: static blocks written once, diagonal
/// blocks rewritten every iteration.
#[derive(Debug, Clone, Default)]
pub struct AugmentedSystem {
    n: usize,
    m: usize,
    /// Sign split of `A` (columns with negatives → `Δp_x`).
    split_a: SignSplit,
    /// Sign split of `Aᵀ` (rows of `A` with negatives → `Δp_y`).
    split_at: SignSplit,
    // --- realized static blocks ---
    ap: Matrix,
    an: Matrix,
    atp: Matrix,
    atn: Matrix,
    iw: Vec<f64>,
    iv: Vec<f64>,
    i1: Vec<f64>,
    i2: Vec<f64>,
    i3: Vec<f64>,
    i4: Vec<f64>,
    ipx: Vec<f64>,
    ipy: Vec<f64>,
    selx: Vec<f64>,
    sely: Vec<f64>,
    // --- realized per-iteration diagonals ---
    zd: Vec<f64>,
    xd: Vec<f64>,
    wd: Vec<f64>,
    yd: Vec<f64>,
    /// Effective `A` blocks with the Δp elimination folded in, cached so the
    /// per-iteration solve skips the O(m·k) column corrections. Rebuilt when
    /// the static blocks are (re)programmed; under ageing the `sel/ip`
    /// ratios are drift-invariant, so these scale by the same drift factor
    /// as the raw blocks.
    ax_eff: Matrix,
    ay_eff: Matrix,
    /// `‖ax_eff‖∞` and `‖ay_eff‖∞`, the static part of the core norm the
    /// reduced solve's residual check scales by.
    ax_norm: f64,
    ay_norm: f64,
    /// Reduce-and-solve scratch buffers, reused across iterations.
    scratch: SolveScratch,
    /// Total cell count (for settle-energy estimates).
    cells: usize,
    /// [`sparse_newton`] of the programmed problem: the factorization the
    /// input picks.
    sparse_input: bool,
    /// A factorization set by [`Self::force_factorization`] in place of
    /// the input's pick.
    forced: Option<Factorization>,
    /// The row-permuted sparse core `[[diag(d2), Ay_eff], [Ax_eff,
    /// −diag(d1)]]` — rows `[R2; R1]` of the dense core, so every diagonal
    /// entry is structurally present (`d2`/`d1` are products of strictly
    /// positive iterate components) and the static-pivot LU can eliminate
    /// straight down the diagonal. Unknown order is unchanged (`[Δx | Δy]`).
    /// Off-diagonal entries are the realized non-zeros of `ay_eff`/`ax_eff`
    /// (a stuck-off cell is a zero in the dense core too). Built lazily on
    /// the first sparse solve and invalidated whenever the static blocks
    /// are re-realized.
    sparse_core: Option<BlockKkt>,
}

/// Reusable allocations for [`AugmentedSystem::solve`]: the reduced
/// right-hand sides, coupling diagonals, the Schur-solve matrices and the
/// `(n+m)²` fallback core.
#[derive(Debug, Clone, Default)]
struct SolveScratch {
    r1p: Vec<f64>,
    r2p: Vec<f64>,
    /// `Iw·W/Y` — the Δy coupling, entering the core as `−diag(d1)`.
    d1: Vec<f64>,
    d2: Vec<f64>,
    /// The eliminated-side static block with row `i` divided by the
    /// eliminated diagonal's entry `i` (`max(n,m) × min(n,m)`).
    scaled: Matrix,
    /// The `min(n,m)²` Schur matrix, factored in place.
    schur: Matrix,
    /// The `(n+m)²` fallback core, allocated on the first fallback.
    k: Matrix,
    /// LU pivot/permutation buffer, recycled across factorizations.
    piv: Vec<usize>,
    rhs: Vec<f64>,
    full: Vec<f64>,
}

/// Solution of the augmented system: the four PDIP directions plus the
/// consistency variables (useful for invariant tests).
#[derive(Debug, Clone)]
pub struct AugmentedDirections {
    /// The PDIP step directions.
    pub dirs: StepDirections,
    /// Δu (should equal −Δw up to hardware noise).
    pub du: Vec<f64>,
    /// Δv (should equal −Δz up to hardware noise).
    pub dv: Vec<f64>,
    /// Δp (should equal −Δx/−Δy at the compensated indices).
    pub dp: Vec<f64>,
}

impl AugmentedSystem {
    /// Number of compensation variables `k = kx + ky`.
    pub fn num_compensations(&self) -> usize {
        self.ipx.len() + self.ipy.len()
    }

    /// Total dimension of `M` (`3n + 3m + k`).
    pub fn dim(&self) -> usize {
        3 * self.n + 3 * self.m + self.num_compensations()
    }

    /// Programs the static blocks of `M` for problem `lp` (setup phase) and
    /// writes the initial diagonals (run phase).
    pub fn program(lp: &LpProblem, state: &PdipState, hw: &mut HwContext) -> AugmentedSystem {
        let at = lp.a().transpose();
        AugmentedSystem::program_with_at(lp, &at, state, hw)
    }

    /// [`Self::program`] with a caller-supplied `Aᵀ`, so retry loops that
    /// re-program the array for the same problem hoist the transpose out of
    /// the loop instead of recomputing it per attempt.
    pub fn program_with_at(
        lp: &LpProblem,
        at: &Matrix,
        state: &PdipState,
        hw: &mut HwContext,
    ) -> AugmentedSystem {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let split_a = SignSplit::split(lp.a());
        let split_at = SignSplit::split(at);
        let kx = split_a.num_compensations();
        let ky = split_at.num_compensations();
        let cells = m * n * 2 + m * kx + n * ky + 4 * (n + m) + 2 * (kx + ky);
        let mut sys = AugmentedSystem {
            n,
            m,
            split_a,
            split_at,
            cells,
            sparse_input: sparse_newton(lp),
            ..AugmentedSystem::default()
        };
        sys.write_static(hw, Phase::Setup);
        sys.rebuild_effective();
        sys.update_diagonals(state, hw);
        sys
    }

    /// Rebuilds the cached effective `A` blocks (`A′` with the Δp column
    /// corrections folded in) from the current realized statics
    /// ([`SignSplit::fold_compensations`]). Compensations whose `Ip` entry
    /// realized as zero are skipped — [`Self::solve`] rejects such systems
    /// before the cache is ever used.
    fn rebuild_effective(&mut self) {
        self.ax_eff = self.ap.clone();
        self.split_a
            .fold_compensations(&mut self.ax_eff, &self.an, &self.selx, &self.ipx);
        self.ay_eff = self.atp.clone();
        self.split_at
            .fold_compensations(&mut self.ay_eff, &self.atn, &self.sely, &self.ipy);
        self.ax_norm = inf_norm_mat(&self.ax_eff);
        self.ay_norm = inf_norm_mat(&self.ay_eff);
        // The realized off-diagonal values (and possibly the realized
        // pattern, under faults/repairs) just changed; the cached sparse
        // core must be rebuilt from the new statics.
        self.sparse_core = None;
    }

    /// Fixes the core's digital factorization, overriding the input's
    /// pick ([`sparse_newton`], or sparse when the Schur solve would not
    /// fit), so the two can be timed and compared on the same system. A
    /// forced [`Factorization::Dense`] whose Schur buffers pass
    /// [`DENSE_CORE_LIMIT_BYTES`] fails with
    /// [`CoreSolveError::CoreTooLarge`].
    pub fn force_factorization(&mut self, factorization: Factorization) {
        self.forced = Some(factorization);
    }

    /// Rewrites the `X`, `Y`, `Z`, `W` diagonals for the current iterate —
    /// the paper's O(N) per-iteration coefficient updates (2(n+m) ≈ 2.7·m
    /// writes when n = m/3).
    pub fn update_diagonals(&mut self, state: &PdipState, hw: &mut HwContext) {
        self.zd = hw.write_diag(key::ZD, &state.z, Phase::Run);
        self.xd = hw.write_diag(key::XD, &state.x, Phase::Run);
        self.wd = hw.write_diag(key::WD, &state.w, Phase::Run);
        self.yd = hw.write_diag(key::YD, &state.y, Phase::Run);
    }

    /// Ages the **static** blocks by the drift factor for `dt` seconds of
    /// hardware time (the per-iteration diagonals are rewritten every
    /// iteration, so only the write-once blocks accumulate retention loss).
    pub fn age(&mut self, dt_s: f64, hw: &HwContext) {
        let f = hw.config().drift.factor(dt_s);
        if f >= 1.0 {
            return;
        }
        // The cached effective blocks scale by the same factor: they are
        // built from `A′ − A″·diag(sel/ip)` and the sel/ip ratio is
        // invariant under uniform drift.
        for m in [
            &mut self.ap,
            &mut self.an,
            &mut self.atp,
            &mut self.atn,
            &mut self.ax_eff,
            &mut self.ay_eff,
        ] {
            m.scale_mut(f);
        }
        self.ax_norm *= f;
        self.ay_norm *= f;
        if let Some(core) = self.sparse_core.as_mut() {
            core.scale(f);
        }
        for d in [
            &mut self.iw,
            &mut self.iv,
            &mut self.i1,
            &mut self.i2,
            &mut self.i3,
            &mut self.i4,
            &mut self.ipx,
            &mut self.ipy,
            &mut self.selx,
            &mut self.sely,
        ] {
            ops::scale(f, d);
        }
    }

    /// Writes every static block from the pristine targets, in the fixed
    /// order the variation stream is drawn in.
    fn write_static(&mut self, hw: &mut HwContext, phase: Phase) {
        let (n, m) = (self.n, self.m);
        let kx = self.split_a.num_compensations();
        let ky = self.split_at.num_compensations();
        self.ap = hw.write_matrix(key::AP, &self.split_a.pos, phase);
        self.an = hw.write_matrix(key::AN, &self.split_a.neg, phase);
        self.atp = hw.write_matrix(key::ATP, &self.split_at.pos, phase);
        self.atn = hw.write_matrix(key::ATN, &self.split_at.neg, phase);
        self.iw = hw.write_diag(key::IW, &vec![1.0; m], phase);
        self.iv = hw.write_diag(key::IV, &vec![1.0; n], phase);
        self.i1 = hw.write_diag(key::I1, &vec![1.0; m], phase);
        self.i2 = hw.write_diag(key::I2, &vec![1.0; m], phase);
        self.i3 = hw.write_diag(key::I3, &vec![1.0; n], phase);
        self.i4 = hw.write_diag(key::I4, &vec![1.0; n], phase);
        self.ipx = hw.write_diag(key::IPX, &vec![1.0; kx], phase);
        self.ipy = hw.write_diag(key::IPY, &vec![1.0; ky], phase);
        self.selx = hw.write_diag(key::SELX, &vec![1.0; kx], phase);
        self.sely = hw.write_diag(key::SELY, &vec![1.0; ky], phase);
    }

    /// Re-programs all static blocks from the pristine targets (run-phase
    /// writes) — the periodic-refresh mitigation for drift.
    ///
    /// With drift active the cells have physically decayed away from the
    /// codes the delta cache remembers, so the cache is invalidated first
    /// and every cell is genuinely rewritten. On drift-free hardware the
    /// cells still hold their programmed codes, so delta programming
    /// legitimately skips the identical rewrites.
    pub fn refresh_static(&mut self, hw: &mut HwContext) {
        if !hw.config().drift.is_none() {
            hw.invalidate_codes();
        }
        self.write_static(hw, Phase::Run);
        self.rebuild_effective();
    }

    /// The full `s` vector `[x, y, w, z, u, v, p]` the controller drives
    /// into the array for the Eqn 15b right-hand-side MVM (`u = −w`,
    /// `v = −z`, `p` = negated compensated components).
    pub fn s_vector(&self, state: &PdipState) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.dim());
        s.extend_from_slice(&state.x);
        s.extend_from_slice(&state.y);
        s.extend_from_slice(&state.w);
        s.extend_from_slice(&state.z);
        s.extend(state.w.iter().map(|v| -v));
        s.extend(state.z.iter().map(|v| -v));
        s.extend(self.split_a.compensation_values(&state.x));
        s.extend(self.split_at.compensation_values(&state.y));
        s
    }

    /// The analog MVM `M̃·s` (Eqn 15b), with DAC-quantized input and
    /// ADC-quantized output, charged to the ledger.
    ///
    /// memlp-lint: analog_source
    pub fn mvm(&self, s: &[f64], hw: &mut HwContext) -> Vec<f64> {
        assert_eq!(s.len(), self.dim(), "s vector must span the full system");
        let (n, m) = (self.n, self.m);
        let kx = self.ipx.len();
        let ky = self.ipy.len();
        let sq = hw.dac_blocks(s, &[n, m, m, n, m, n, kx + ky]);
        let x = &sq[..n];
        let y = &sq[n..n + m];
        let w = &sq[n + m..n + 2 * m];
        let z = &sq[n + 2 * m..2 * n + 2 * m];
        let u = &sq[2 * n + 2 * m..2 * n + 3 * m];
        let v = &sq[2 * n + 3 * m..3 * n + 3 * m];
        let p = &sq[3 * n + 3 * m..];
        let (px, py) = p.split_at(kx);

        let mut out = Vec::with_capacity(self.dim());
        // R1: A′x + Iw·w + A″·p_x.
        let mut r1 = self.ap.matvec(x);
        for (r, (ww, c)) in r1.iter_mut().zip(w.iter().zip(&self.iw)) {
            *r += ww * c;
        }
        if kx > 0 {
            let extra = self.an.matvec(px);
            for (r, e) in r1.iter_mut().zip(&extra) {
                *r += e;
            }
        }
        out.extend(r1);
        // R2: Aᵀ′y + Iv·v + Aᵀ″·p_y.
        let mut r2 = self.atp.matvec(y);
        for (r, (vv, c)) in r2.iter_mut().zip(v.iter().zip(&self.iv)) {
            *r += vv * c;
        }
        if !py.is_empty() {
            let extra = self.atn.matvec(py);
            for (r, e) in r2.iter_mut().zip(&extra) {
                *r += e;
            }
        }
        out.extend(r2);
        // R3: Z·x + X·z.
        out.extend((0..n).map(|j| self.zd[j] * x[j] + self.xd[j] * z[j]));
        // R4: W·y + Y·w.
        out.extend((0..m).map(|i| self.wd[i] * y[i] + self.yd[i] * w[i]));
        // R5: I₁·w + I₂·u.
        out.extend((0..m).map(|i| self.i1[i] * w[i] + self.i2[i] * u[i]));
        // R6: I₃·z + I₄·v.
        out.extend((0..n).map(|j| self.i3[j] * z[j] + self.i4[j] * v[j]));
        // R7: selector·(x or y) + Ip·p.
        out.extend(
            self.split_a
                .comp_cols
                .iter()
                .enumerate()
                .map(|(r, &j)| self.selx[r] * x[j] + self.ipx[r] * px[r]),
        );
        out.extend(
            self.split_at
                .comp_cols
                .iter()
                .enumerate()
                .map(|(r, &j)| self.sely[r] * y[j] + self.ipy[r] * py[r]),
        );

        hw.charge_analog(false, self.dim(), self.dim(), self.cells);
        let kx = self.ipx.len();
        let ky = self.ipy.len();
        hw.adc_blocks(&out, &[m, n, n, m, m, n, kx + ky])
    }

    /// The analog solve `M̃·Δs = r` (DAC-quantized `r`, ADC-quantized
    /// `Δs`), computed by exact block elimination of the realized system.
    ///
    /// # Errors
    ///
    /// [`CoreSolveError::Singular`] when the realized system is singular —
    /// the §4.3 variation-induced failure mode the caller handles by
    /// re-solving. [`CoreSolveError::CoreTooLarge`] when a dense buffer the
    /// solve needs passes [`DENSE_CORE_LIMIT_BYTES`]: the `min(n,m)` Schur
    /// solve under a forced [`Factorization::Dense`] or after a sparse
    /// breakdown, or the `(n+m)` LU fallback of a rejected Schur solve.
    /// Unforced, a core whose Schur solve would not fit reroutes to the
    /// sparse factorization.
    ///
    /// memlp-lint: analog_source
    pub fn solve(
        &mut self,
        r: &[f64],
        hw: &mut HwContext,
    ) -> Result<AugmentedDirections, CoreSolveError> {
        assert_eq!(r.len(), self.dim(), "rhs must span the full system");
        let (n, m) = (self.n, self.m);
        let kx = self.ipx.len();
        let ky = self.ipy.len();
        let rq = hw.dac_blocks(r, &[m, n, n, m, m, n, kx + ky]);
        let r1 = &rq[..m];
        let r2 = &rq[m..m + n];
        let r3 = &rq[m + n..m + 2 * n];
        let r4 = &rq[m + 2 * n..2 * m + 2 * n];
        let r5 = &rq[2 * m + 2 * n..3 * m + 2 * n];
        let r6 = &rq[3 * m + 2 * n..3 * m + 3 * n];
        let r7 = &rq[3 * m + 3 * n..];
        let (r7x, r7y) = r7.split_at(kx);

        // Diagonals must be invertible for the elimination.
        for d in self
            .xd
            .iter()
            .chain(&self.yd)
            .chain(&self.i2)
            .chain(&self.i4)
            .chain(&self.ipx)
            .chain(&self.ipy)
        {
            if *d == 0.0 {
                return Err(CoreSolveError::Singular);
            }
        }

        // The effective A-blocks (Δp elimination) are cached on the struct —
        // see `rebuild_effective` — so the per-iteration work starts at the
        // rhs reductions, filling the reusable scratch buffers.

        // r1' = r1 − Iw·(r4/Y) − A″·(r7x/Ipx); Δw = (r4 − W·Δy)/Y.
        self.scratch.r1p.clear();
        for i in 0..m {
            self.scratch
                .r1p
                .push(r1[i] - self.iw[i] * r4[i] / self.yd[i]);
        }
        if kx > 0 {
            let t: Vec<f64> = (0..kx).map(|rr| r7x[rr] / self.ipx[rr]).collect();
            let corr = self.an.matvec(&t);
            for (v, c) in self.scratch.r1p.iter_mut().zip(&corr) {
                *v -= c;
            }
        }
        // Δy coefficient in R1: −diag(Iw·W/Y).
        self.scratch.d1.clear();
        for i in 0..m {
            self.scratch.d1.push(self.iw[i] * self.wd[i] / self.yd[i]);
        }

        // R2 reduction: Δv = (r6 − I₃·Δz)/I₄, Δz = (r3 − Z·Δx)/X.
        // Iv·Δv = Iv/I₄·r6 − (Iv·I₃)/(I₄·X)·r3 + (Iv·I₃·Z)/(I₄·X)·Δx.
        self.scratch.r2p.clear();
        for j in 0..n {
            let f = self.iv[j] / self.i4[j];
            self.scratch
                .r2p
                .push(r2[j] - f * r6[j] + f * self.i3[j] * r3[j] / self.xd[j]);
        }
        if ky > 0 {
            let t: Vec<f64> = (0..ky).map(|rr| r7y[rr] / self.ipy[rr]).collect();
            let corr = self.atn.matvec(&t);
            for (v, c) in self.scratch.r2p.iter_mut().zip(&corr) {
                *v -= c;
            }
        }
        // Δx coefficient in R2: +diag(Iv·I₃·Z/(I₄·X)).
        self.scratch.d2.clear();
        for j in 0..n {
            self.scratch
                .d2
                .push(self.iv[j] * self.i3[j] * self.zd[j] / (self.i4[j] * self.xd[j]));
        }

        // The (m+n) core — rows R1/R2 of the reduced system, unknowns
        // [Δx | Δy]. The digital controller factors it either sparse (the
        // KKT core with the symbolic analysis and diagonal value slots
        // reused across iterations) or dense (a `min(n,m)` Schur solve,
        // with the `(n+m)` LU as its fallback). A sparse breakdown — the
        // static-pivot elimination meeting a realized-singular pivot —
        // falls back to the dense factorization for the iteration, so the
        // choice of factorization can never make a solvable realized system
        // fail. Each dense buffer is admitted by its own size against
        // [`DENSE_CORE_LIMIT_BYTES`]: a Schur solve past it reroutes to the
        // sparse factorization (a forced `Dense` reports `CoreTooLarge`),
        // and an LU fallback past it reports `CoreTooLarge`.
        let dim = n + m;
        let schur = schur_bytes(n, m);
        let schur_fits = schur <= DENSE_CORE_LIMIT_BYTES;
        let use_sparse = match self.forced {
            Some(Factorization::Dense) if !schur_fits => return Err(too_large(dim, schur)),
            Some(forced) => forced == Factorization::Sparse,
            None => self.sparse_input || !schur_fits,
        };
        let sparse = if use_sparse {
            self.solve_core_sparse(hw)
        } else {
            None
        };
        let core = match sparse {
            Some(c) => c,
            None if schur_fits => self.solve_core_dense(hw)?,
            None => return Err(too_large(dim, schur)),
        };
        let dx = core[..n].to_vec();
        let dy = core[n..].to_vec();

        // Back-substitution.
        let dz: Vec<f64> = (0..n)
            .map(|j| (r3[j] - self.zd[j] * dx[j]) / self.xd[j])
            .collect();
        let dw: Vec<f64> = (0..m)
            .map(|i| (r4[i] - self.wd[i] * dy[i]) / self.yd[i])
            .collect();
        let du: Vec<f64> = (0..m)
            .map(|i| (r5[i] - self.i1[i] * dw[i]) / self.i2[i])
            .collect();
        let dv: Vec<f64> = (0..n)
            .map(|j| (r6[j] - self.i3[j] * dz[j]) / self.i4[j])
            .collect();
        let mut dp = Vec::with_capacity(kx + ky);
        for (rr, &j) in self.split_a.comp_cols.iter().enumerate() {
            dp.push((r7x[rr] - self.selx[rr] * dx[j]) / self.ipx[rr]);
        }
        for (rr, &j) in self.split_at.comp_cols.iter().enumerate() {
            dp.push((r7y[rr] - self.sely[rr] * dy[j]) / self.ipy[rr]);
        }

        // One ADC pass over the full Δs read-out.
        self.scratch.full.clear();
        self.scratch.full.extend_from_slice(&dx);
        self.scratch.full.extend_from_slice(&dy);
        self.scratch.full.extend_from_slice(&dw);
        self.scratch.full.extend_from_slice(&dz);
        self.scratch.full.extend_from_slice(&du);
        self.scratch.full.extend_from_slice(&dv);
        self.scratch.full.extend_from_slice(&dp);
        if !self.scratch.full.iter().all(|v| v.is_finite()) {
            return Err(CoreSolveError::Singular);
        }
        let fullq = hw.adc_blocks(&self.scratch.full, &[n, m, m, n, m, n, kx + ky]);
        hw.charge_analog(true, self.dim(), self.dim(), self.cells);

        let dx = fullq[..n].to_vec();
        let dy = fullq[n..n + m].to_vec();
        let dw = fullq[n + m..n + 2 * m].to_vec();
        let dz = fullq[n + 2 * m..2 * n + 2 * m].to_vec();
        let du = fullq[2 * n + 2 * m..2 * n + 3 * m].to_vec();
        let dv = fullq[2 * n + 3 * m..3 * n + 3 * m].to_vec();
        let dp = fullq[3 * n + 3 * m..].to_vec();
        Ok(AugmentedDirections {
            dirs: StepDirections { dx, dy, dw, dz },
            du,
            dv,
            dp,
        })
    }

    /// Dense core solve. Both off-diagonal blocks of the core are diagonal,
    /// so the larger block of unknowns eliminates exactly and only a
    /// `min(n,m)²` Schur system is LU-factored ([`Self::solve_core_reduced`]).
    /// The `(n+m)` LU ([`Self::solve_core_full`]) runs only when the
    /// reduction cannot serve the iteration, and refuses with
    /// [`CoreSolveError::CoreTooLarge`] when its `(n+m)²` buffers would
    /// pass [`DENSE_CORE_LIMIT_BYTES`].
    fn solve_core_dense(&mut self, hw: &mut HwContext) -> Result<Vec<f64>, CoreSolveError> {
        hw.note_rebuild_avoided();
        if let Some(core) = self.solve_core_reduced(hw) {
            return Ok(core);
        }
        let dim = self.n + self.m;
        let bytes = dense_core_bytes(dim);
        if bytes > DENSE_CORE_LIMIT_BYTES {
            return Err(too_large(dim, bytes));
        }
        self.solve_core_full(hw).ok_or(CoreSolveError::Singular)
    }

    /// Schur solve of the core `[[Ax_eff, −diag(d1)], [diag(d2), Ay_eff]]`.
    /// With `n ≤ m`, `Δy = (Ax_eff·Δx − r1′)/d1` leaves the `n×n` system
    /// `(diag(d2) + Ay_eff·diag(1/d1)·Ax_eff)·Δx = r2′ + Ay_eff·(r1′/d1)`;
    /// with `n > m`, `Δx = (r2′ − Ay_eff·Δy)/d2` leaves the `m×m` system
    /// `(diag(d1) + Ax_eff·diag(1/d2)·Ay_eff)·Δy = Ax_eff·(r2′/d2) − r1′`.
    /// In both, with `σ = ±1`, kept unknowns `u` and eliminated `v`:
    /// `S = diag(f) + L·diag(1/e)·R`, `S·u = σ·g_keep + L·(g_elim/e)` and
    /// `v = σ·(R·u − g_elim)/e`.
    ///
    /// `None` — an eliminated diagonal entry realized as exactly zero (a
    /// stuck cell), a singular Schur factorization, or a non-finite or
    /// inaccurate result on the unreduced core — sends the iteration to
    /// the `(n+m)` LU.
    fn solve_core_reduced(&mut self, hw: &mut HwContext) -> Option<Vec<f64>> {
        let (n, m) = (self.n, self.m);
        let SolveScratch {
            r1p,
            r2p,
            d1,
            d2,
            scaled,
            schur,
            piv,
            ..
        } = &mut self.scratch;
        let (left, right, elim, keep, g_keep, g_elim, sign) = if n <= m {
            (&self.ay_eff, &self.ax_eff, &*d1, &*d2, &*r2p, &*r1p, 1.0)
        } else {
            (&self.ax_eff, &self.ay_eff, &*d2, &*d1, &*r1p, &*r2p, -1.0)
        };
        if elim.contains(&0.0) {
            return None;
        }
        let (k, big) = (keep.len(), elim.len());

        // S = diag(f) + L·(R/e), through the shared matmul kernel.
        if scaled.rows() != big || scaled.cols() != k {
            *scaled = Matrix::zeros(big, k);
        }
        for (i, &e) in elim.iter().enumerate() {
            for (s, &r) in scaled.row_mut(i).iter_mut().zip(right.row(i)) {
                *s = r / e;
            }
        }
        left.matmul_into(scaled, schur).ok()?;
        for (j, &f) in keep.iter().enumerate() {
            schur[(j, j)] += f;
        }
        let t: Vec<f64> = g_elim.iter().zip(elim).map(|(g, e)| g / e).collect();
        let mut rhs = left.matvec(&t);
        for (v, g) in rhs.iter_mut().zip(g_keep) {
            *v += sign * g;
        }

        let lu = LuFactors::factor_reusing(std::mem::take(schur), std::mem::take(piv)).ok()?;
        // Forming S costs 2·k²·K flops and its LU ⅔·k³; the factor entries
        // held are S's k² plus the K·k scaled block (the block LU's U₁₂).
        let (kf, bf) = (k as u64, big as u64);
        hw.note_factorization(2 * kf * kf * bf + 2 * kf * kf * kf / 3, kf * kf + bf * kf);
        let u = lu.solve(&rhs);
        (*schur, *piv) = lu.into_parts();
        let u = u.ok()?;

        let ru = right.matvec(&u);
        let v: Vec<f64> = ru
            .iter()
            .zip(g_elim)
            .zip(elim)
            .map(|((r, g), e)| sign * (r - g) / e)
            .collect();
        if !u.iter().chain(&v).all(|x| x.is_finite()) {
            return None;
        }

        // Residual of the unreduced core: the eliminated rows
        // `R·u − σ·e∘v = g_elim` and the kept rows `σ·f∘u + L·v = g_keep`.
        let lv = left.matvec(&v);
        let res_elim = ru
            .iter()
            .zip(&v)
            .zip(elim.iter().zip(g_elim))
            .map(|((r, vi), (e, g))| (r - sign * e * vi - g).abs());
        let res_keep = lv
            .iter()
            .zip(&u)
            .zip(keep.iter().zip(g_keep))
            .map(|((l, ui), (f, g))| (sign * f * ui + l - g).abs());
        let residual = res_elim.chain(res_keep).fold(0.0f64, f64::max);
        let core_norm = (self.ax_norm + ops::inf_norm(d1)).max(self.ay_norm + ops::inf_norm(d2));
        let scale = core_norm * ops::inf_norm(&u).max(ops::inf_norm(&v))
            + ops::inf_norm(r1p).max(ops::inf_norm(r2p));
        if residual > REDUCED_RESIDUAL_TOL * scale {
            return None;
        }

        let (mut core, tail) = if n <= m { (u, v) } else { (v, u) };
        core.extend(tail);
        Some(core)
    }

    /// The `(n+m)` LU fallback, rare enough (see `REDUCED_RESIDUAL_TOL`)
    /// to assemble its core from the blocks each time: the static blocks
    /// (`ax_eff`, `ay_eff`) and the two coupling diagonals, LU-factored
    /// in the recycled buffers. The rhs order matches the core's row order
    /// `[R1; R2]`. `solve_core_dense` has already checked
    /// `DENSE_CORE_LIMIT_BYTES`.
    fn solve_core_full(&mut self, hw: &mut HwContext) -> Option<Vec<f64>> {
        let (n, m) = (self.n, self.m);
        let dim = n + m;
        if self.scratch.k.rows() != dim {
            self.scratch.k = Matrix::zeros(dim, dim);
        } else {
            self.scratch.k.as_mut_slice().fill(0.0);
        }
        self.scratch.k.set_block(0, 0, &self.ax_eff);
        self.scratch.k.set_block(m, n, &self.ay_eff);
        let neg_d1: Vec<f64> = self.scratch.d1.iter().map(|v| -v).collect();
        self.scratch.k.set_diag_block(0, n, &neg_d1);
        self.scratch.k.set_diag_block(m, 0, &self.scratch.d2);
        self.scratch.rhs.clear();
        self.scratch.rhs.extend_from_slice(&self.scratch.r1p);
        self.scratch.rhs.extend_from_slice(&self.scratch.r2p);

        // Factor the core in place, then hand its buffers back to the
        // scratch so the (n+m)² matrix and the pivot vector are reused
        // next fallback.
        let core_mat = std::mem::take(&mut self.scratch.k);
        let piv = std::mem::take(&mut self.scratch.piv);
        let lu = match LuFactors::factor_reusing(core_mat, piv) {
            Ok(lu) => lu,
            Err(_) => return None,
        };
        let d = dim as u64;
        hw.note_factorization(2 * d * d * d / 3, d * d);
        let core = lu.solve(&self.scratch.rhs);
        let (k, piv) = lu.into_parts();
        self.scratch.k = k;
        self.scratch.piv = piv;
        core.ok()
    }

    /// Sparse core solve: write the coupling diagonals into the KKT core,
    /// refactor over the reused symbolic analysis, and solve with two
    /// refinement rounds (compensating the static-pivot factorization's
    /// lower raw accuracy so both paths agree through the shared ADC
    /// quantization). The row-permuted core takes its rhs as `[R2; R1]`;
    /// the solution order `[Δx | Δy]` is the dense core's. `None` sends the
    /// iteration to the dense fallback.
    fn solve_core_sparse(&mut self, hw: &mut HwContext) -> Option<Vec<f64>> {
        if self.sparse_core.is_none() {
            let ay = SparseMatrix::from_dense(&self.ay_eff);
            let ax = SparseMatrix::from_dense(&self.ax_eff);
            self.sparse_core = BlockKkt::new(&ay, &ax).ok();
        }
        let core = self.sparse_core.as_mut()?;
        core.refactor(&self.scratch.d2, &self.scratch.d1).ok()?;
        hw.note_factorization(core.flops(), core.factor_nnz() as u64);
        hw.note_rebuild_avoided();
        self.scratch.rhs.clear();
        self.scratch.rhs.extend_from_slice(&self.scratch.r2p);
        self.scratch.rhs.extend_from_slice(&self.scratch.r1p);
        let sol = core.solve(&self.scratch.rhs, 2).ok()?;
        if !sol.iter().all(|v| v.is_finite()) {
            return None;
        }
        Some(sol)
    }

    /// The constant part of Eqn 15a's right-hand side:
    /// `[b, c, µe, µe, 0, 0, 0]`.
    pub fn rhs_constant(&self, lp: &LpProblem, mu: f64) -> Vec<f64> {
        let mut r = Vec::with_capacity(self.dim());
        r.extend_from_slice(lp.b());
        r.extend_from_slice(lp.c());
        r.extend(std::iter::repeat_n(mu, self.n));
        r.extend(std::iter::repeat_n(mu, self.m));
        r.extend(std::iter::repeat_n(
            0.0,
            self.m + self.n + self.num_compensations(),
        ));
        r
    }

    /// Assembles Eqn 15a's `r` from the constant part and the Eqn 15b MVM
    /// (rows R3/R4 of `M·s` equal `2XZe`/`2YWe`, so they are halved — the
    /// paper's "dividing-by-2 procedure").
    pub fn assemble_rhs(&self, constant: &[f64], ms: &[f64]) -> Vec<f64> {
        let (n, m) = (self.n, self.m);
        let mut r = Vec::with_capacity(self.dim());
        for (idx, (cst, prod)) in constant.iter().zip(ms).enumerate() {
            // Rows R3 (n entries) and R4 (m entries) sit at [m+n, 2m+2n).
            let halved = idx >= m + n && idx < 2 * (m + n);
            let p = if halved { 0.5 * prod } else { *prod };
            r.push(cst - p);
        }
        r
    }

    /// Residual views into an assembled `r`: (primal ρ, dual σ).
    pub fn residual_views<'a>(&self, r: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        (&r[..self.m], &r[self.m..self.m + self.n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlp_crossbar::CrossbarConfig;
    use memlp_lp::domains::{transportation_lp, TransportationProblem};
    use memlp_lp::generator::RandomLp;

    /// Programs `lp` at its start iterate and runs one dense solve, which
    /// leaves the reduced right-hand sides and coupling diagonals in the
    /// scratch for the core solvers to be called on directly. `w_cell`
    /// overrides one realized W-diagonal cell first (`0.0` is what a
    /// stuck-off cell reads).
    fn primed(
        lp: &LpProblem,
        variation_pct: f64,
        w_cell: Option<(usize, f64)>,
    ) -> (AugmentedSystem, HwContext) {
        let state = PdipState::new(lp);
        let cfg = CrossbarConfig::paper_default()
            .with_variation(variation_pct)
            .with_seed(17);
        let mut hw = HwContext::new(cfg);
        let mut sys = AugmentedSystem::program(lp, &state, &mut hw);
        sys.force_factorization(Factorization::Dense);
        if let Some((i, v)) = w_cell {
            sys.wd[i] = v;
        }
        let s = sys.s_vector(&state);
        let ms = sys.mvm(&s, &mut hw);
        let r = sys.assemble_rhs(&sys.rhs_constant(lp, state.mu()), &ms);
        sys.solve(&r, &mut hw).expect("solvable realized system");
        (sys, hw)
    }

    #[test]
    fn schur_solve_matches_the_full_lu_in_both_orientations() {
        let transport =
            transportation_lp(&TransportationProblem::random(3, 9, 5)).expect("valid domain");
        for lp in [RandomLp::paper(24, 31).feasible(), transport] {
            for variation in [0.0, 10.0] {
                let (mut sys, mut hw) = primed(&lp, variation, None);
                let reduced = sys.solve_core_reduced(&mut hw).expect("reduction applies");
                let full = sys.solve_core_full(&mut hw).expect("non-singular core");
                let scale = ops::inf_norm(&full);
                for (r, f) in reduced.iter().zip(&full) {
                    assert!(
                        (r - f).abs() <= 1e-9 * scale,
                        "n={} m={} at {variation}%: {r} vs {f}",
                        lp.num_vars(),
                        lp.num_constraints()
                    );
                }
            }
        }
    }

    #[test]
    fn rejected_schur_solves_return_the_full_lu_directions() {
        // A stuck-off W cell makes d1[i] = 0, so Δy cannot be eliminated.
        // A W cell read at 1e-14 (where diverging infeasible iterates
        // end up) puts a 1e14-scaled rank-one term into S, which swamps
        // the rest of it: the residual check must reject that solve.
        let lp = RandomLp::paper(24, 31).feasible();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for w in [0.0, 1e-14] {
            for variation in [0.0, 10.0] {
                let (mut sys, mut hw) = primed(&lp, variation, Some((2, w)));
                let ctx = format!("w = {w} at {variation}%");
                assert!(sys.solve_core_reduced(&mut hw).is_none(), "{ctx}: accepted");
                let dense = sys.solve_core_dense(&mut hw).expect("fallback solves");
                let full = sys.solve_core_full(&mut hw).expect("non-singular core");
                assert_eq!(bits(&dense), bits(&full), "{ctx}");
            }
        }
    }
}
