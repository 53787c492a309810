//! The user-facing solver: the five-phase PanguLU pipeline.
//!
//! ```text
//! reorder (MC64 + fill-reducing)  →  symbolic (symmetric pruning)
//!        →  preprocess (blocking + mapping + balancing)
//!        →  numeric (sync-free distributed factorisation)
//!        →  triangular solve
//! ```
//!
//! [`Solver::builder`] configures ranks, block size, kernel selection
//! and pivoting; [`Solver::solve`] then answers any number of right-hand
//! sides against the factorisation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use pangulu_comm::ProcessGrid;
use pangulu_kernels::select::{KernelSelector, Thresholds};
use pangulu_kernels::tile::{tile_rows, TILE_COLS};
use pangulu_kernels::{isa, KernelPlans, PlanStats};
use pangulu_metrics::{PhaseCounters, PrecisionCounters, RunReport};
use pangulu_reorder::{reorder_for_lu, FillReducing, Reordering, ScaledOrdering};
use pangulu_sparse::{CscMatrix, Permutation, Result, Scalar, SparseError};
use pangulu_symbolic::{stats::SymbolicStats, symbolic_fill, FilledPattern};

use crate::block::{outside, BlockMatrix};
use crate::dist::{factor_distributed_cached, FactorConfig, NumericWorkspace};
use crate::layout::OwnerMap;
use crate::seq::{empty_plans, NumericStats};
use crate::shared::factor_shared_planned;
use crate::task::TaskGraph;
use crate::trisolve::{
    backward_substitute_panel, backward_substitute_transpose, forward_substitute_panel,
    forward_substitute_transpose, PANEL_WIDTH,
};

/// Numeric precision of the factorisation (see `docs/PRECISION.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Precision {
    /// Factor and solve entirely in f64 — the reference path.
    #[default]
    F64,
    /// Factor in f32 against the unchanged f64 analysis (reordering,
    /// symbolic fill and block layout are all pattern-only),
    /// halving wire payloads, scatter traffic and plan arenas; recover
    /// f64 accuracy at solve time with iterative refinement. A
    /// factor-time probe falls back to f64 transparently when the f32
    /// factors cannot be refined (counted in
    /// [`PrecisionCounters::precision_fallbacks`]).
    MixedF32,
}

/// Inner-residual target of the mixed refinement loop (relative ∞-norm
/// against the scaled permuted system): effectively "refine to
/// roundoff"; the stagnation check usually stops the loop first.
const REFINE_TOL: f64 = 1e-14;
/// Correction cap per refinement loop.
const MAX_REFINE_ITERS: usize = 40;
/// Rows [`scatter_scaled`] transposes per block: 64 × 32 lanes is 16 KB,
/// inside L1, and each output then grows by one 512-byte append per block
/// (measured on `laplacian_2d(256, 256)`, k = 32: 3.3–3.7 ms against 6.9
/// for an out-of-order scatter into zero-filled outputs and 9.0 for
/// per-entry pushes).
const SCATTER_ROWS: usize = 64;
/// Factor-time probe gate: a mixed factorisation whose probe solve
/// cannot refine below this inner residual falls back to f64.
const PROBE_GATE: f64 = 1e-11;
/// Acceptance-probe cadence of the mixed path: the first factorisation
/// always probes, then every `PROBE_EVERY`-th refactorisation repeats
/// the probe solve, unless the perturbed-pivot count drifts from the last
/// probed factorisation, which forces an early re-probe (the drift gate).
/// Skipped probes are counted in [`PrecisionCounters::probe_skips`].
const PROBE_EVERY: usize = 4;
/// Spare entries the solve workspace holds past its panel so the panel
/// can start on a 64-byte boundary: a fresh multi-MiB `vec!` comes from
/// the allocator's mmap path at 16 mod 64, and the sweeps then run
/// ≈ 20 % slower on lap2d(256²) at 32 lanes than at 0 or 32 mod 64,
/// same bits (docs/PERFORMANCE.md "The panel's alignment").
const PANEL_SLACK: usize = 64 / std::mem::size_of::<f64>() - 1;

/// Tunable options of the pipeline.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Number of simulated MPI ranks (worker threads).
    pub ranks: usize,
    /// Tile size; `None` applies the paper's heuristic (order + density).
    pub block_size: Option<usize>,
    /// Fill-reducing ordering (default: best of AMD and nested dissection).
    pub fill_reducing: FillReducing,
    /// Static-pivot perturbation floor, relative to `max|A|`.
    /// 0 disables perturbation: a zero pivot then fails the factorisation
    /// with [`SparseError::ZeroPivot`].
    pub pivot_floor_rel: f64,
    /// When set, the numeric phase runs on the shared-memory executor
    /// with this many worker threads (PanguLU's multicore CPU mode)
    /// instead of the message-passing ranks; `ranks` is ignored.
    pub shared_threads: Option<usize>,
    /// Numeric precision of the factorisation: full f64, or the mixed
    /// f32-factor/refined-solve path.
    pub precision: Precision,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            ranks: 1,
            block_size: None,
            fill_reducing: FillReducing::Auto,
            pivot_floor_rel: 1e-12,
            shared_threads: None,
            precision: Precision::default(),
        }
    }
}

/// Builder for [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct SolverBuilder {
    opts: SolverOptions,
}

impl SolverBuilder {
    /// Sets the number of simulated ranks.
    pub fn ranks(mut self, p: usize) -> Self {
        self.opts.ranks = p.max(1);
        self
    }

    /// Fixes the tile size instead of using the heuristic.
    pub fn block_size(mut self, nb: usize) -> Self {
        self.opts.block_size = Some(nb.max(1));
        self
    }

    /// Chooses the fill-reducing ordering.
    pub fn fill_reducing(mut self, f: FillReducing) -> Self {
        self.opts.fill_reducing = f;
        self
    }

    /// Sets the relative static-pivot floor.
    pub fn pivot_floor_rel(mut self, rel: f64) -> Self {
        self.opts.pivot_floor_rel = rel;
        self
    }

    /// Runs the numeric phase on the shared-memory executor with `t`
    /// worker threads instead of message-passing ranks.
    pub fn shared_threads(mut self, t: usize) -> Self {
        self.opts.shared_threads = Some(t.max(1));
        self
    }

    /// Selects the numeric precision: [`Precision::F64`] (default) or
    /// the mixed f32-factor / iteratively-refined-solve path
    /// [`Precision::MixedF32`].
    pub fn precision(mut self, p: Precision) -> Self {
        self.opts.precision = p;
        self
    }

    /// Runs the full pipeline on `a`.
    pub fn build(self, a: &CscMatrix) -> Result<Solver> {
        Solver::factor_with(a, self.opts)
    }
}

/// Phase timings and counters of one factorisation.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Reordering phase (MC64 + fill-reducing permutation).
    pub reorder_time: Duration,
    /// Symbolic factorisation phase.
    pub symbolic_time: Duration,
    /// Preprocessing phase (blocking + owner map + balancing).
    pub preprocess_time: Duration,
    /// Numeric factorisation wall time.
    pub numeric_time: Duration,
    /// Symbolic statistics (nnz(L+U), FLOPs — Table 3).
    pub symbolic: Option<SymbolicStats>,
    /// The structured per-rank metrics report (multi-rank runs).
    pub report: Option<RunReport>,
    /// Sequential kernel statistics (single-rank runs, Table 4).
    pub numeric: Option<NumericStats>,
    /// Chosen tile size.
    pub block_size: usize,
    /// Block-grid dimension.
    pub nblk: usize,
    /// Non-empty blocks.
    pub num_blocks: usize,
    /// Statically perturbed pivots.
    pub perturbed_pivots: usize,
    /// Cumulative phase-execution counters over the solver's lifetime:
    /// how often each pipeline phase actually ran versus was served from
    /// the cached analysis (see [`Solver::refactor`]).
    pub phases: PhaseCounters,
    /// Mixed-precision factor-time accounting (kept mixed factors,
    /// fallbacks, probe refinement iterations); the solve-time
    /// refinement work is folded in by [`Solver::precision_counters`].
    pub precision: PrecisionCounters,
}

impl FactorStats {
    /// Achieved GFLOP/s of the numeric phase.
    pub fn gflops(&self) -> f64 {
        let flops = self.symbolic.map(|s| s.flops).unwrap_or(0.0);
        let secs = self.numeric_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            flops / secs / 1e9
        }
    }
}

/// One entry of the refactor scatter map: `(block id, offset into the
/// block's values)` of the slot an input nonzero lands in.
pub type ScatterSlot = (u32, u32);

/// The pattern-dependent analysis a [`Solver`] caches across
/// factorisations: the input sparsity structure it was built for (which
/// [`Solver::refactor`] validates new values against) and the scatter
/// map from input nonzeros to factor-block value slots, built lazily on
/// the first refactorisation.
pub struct SolverPlan {
    n: usize,
    /// The caller's pattern, shared with the matrix the solver was built
    /// from: no index is copied, and it outlives that matrix.
    pattern: CscMatrix<()>,
    /// For input nonzero `k` (CSC order): the slot where the scaled,
    /// permuted entry lands in the factor's block storage.
    scatter: Option<Vec<ScatterSlot>>,
}

impl SolverPlan {
    /// Matrix order the plan was analysed for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzero count of the analysed pattern.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The analysed pattern: a value-less handle on the pattern of the
    /// matrix the solver was built from. A matrix that
    /// [`CscMatrix::shares_pattern`] with it passes [`Solver::refactor`]'s
    /// pattern check without a comparison.
    pub fn pattern(&self) -> &CscMatrix<()> {
        &self.pattern
    }
}

/// The one factor store of a [`Solver`], in the precision its factors
/// hold, with the executor its numeric runs reuse.
#[allow(clippy::large_enum_variant)] // one per solver, never in a collection
enum Factors {
    /// f64 factors: configured, or a mixed solver after its fallback.
    F64 { bm: BlockMatrix, executor: Executor<f64> },
    /// The f32 factors of a mixed-precision solver.
    Mixed(MixedState),
}

/// A mixed-precision solver's state: its f32 factors are the only
/// resident ones. The f64 image [`Solver::factored`] returns is widened
/// on demand, and an f64 store exists only after a fallback.
struct MixedState {
    /// The live f32 factors.
    factored32: BlockMatrix<f32>,
    /// Executor of the f32 runs (`u16`-indexed kernel plans, rank
    /// workspace), reused by [`Solver::refactor`] exactly like the f64
    /// one.
    executor: Executor<f32>,
    /// The scaled permuted input `Pr·Dr·A·Dc·Pcᵀ` in f64 on A's own
    /// pattern: the refinement loop forms exact f64 residuals in the
    /// inner domain on it.
    scaled_a: CscMatrix,
    /// Per input nonzero (CSC order), its offset in `scaled_a`'s values;
    /// pattern-only, built with the scatter map by the first
    /// [`Solver::refactor`].
    a_pos: Vec<u32>,
    /// The exact widened f64 image of `factored32`, built by the first
    /// [`Solver::factored`] call after each factorisation.
    widened: OnceLock<BlockMatrix>,
    /// Refinement iterations across solves ([`Solver::solve`] takes
    /// `&self`, hence atomics).
    refine_iters: AtomicU64,
    /// Solves that ran the refinement loop.
    refined_solves: AtomicU64,
    /// Refactorisations since the acceptance probe last ran; the probe
    /// repeats once this reaches [`PROBE_EVERY`].
    refactors_since_probe: usize,
    /// Perturbed-pivot count of the last *probed* factorisation — the
    /// drift gate: a refactorisation whose count differs re-probes
    /// immediately, cadence or not.
    probed_perturbed: usize,
}

/// What one numeric-phase run produced, whichever executor ran it.
struct NumericSummary {
    perturbed_pivots: usize,
    numeric: Option<NumericStats>,
    report: Option<RunReport>,
}

impl NumericSummary {
    /// The summary of a sequential or shared-memory run.
    fn in_process(ns: NumericStats) -> Self {
        NumericSummary { perturbed_pivots: ns.perturbed_pivots, numeric: Some(ns), report: None }
    }

    fn apply(self, stats: &mut FactorStats) {
        stats.perturbed_pivots = self.perturbed_pivots;
        if self.numeric.is_some() {
            stats.numeric = self.numeric;
        }
        if self.report.is_some() {
            stats.report = self.report;
        }
    }
}

/// One numeric phase's inputs besides the block store: the cached
/// analysis and options (a mixed fallback builds its f64 executor from
/// them), the input and where it goes (the selector reads its density;
/// a mixed fallback reloads the f64 store from it) and the absolute pivot
/// floor.
struct NumericRun<'a> {
    tg: &'a TaskGraph,
    owners: &'a OwnerMap,
    opts: &'a SolverOptions,
    a: &'a CscMatrix,
    frame: &'a Frame,
    pivot_floor: f64,
}

/// The one executor a solver runs its numeric phase on, in scalar type
/// `S`, with its pattern-dependent state: chosen from [`SolverOptions`],
/// built with its block store and reused verbatim by every
/// [`Solver::refactor`]. Its kernel plan pool follows the executors' one
/// policy (`shared::build_plans`): the first run builds no plan, the
/// second builds them, like the scatter map.
enum Executor<S: Scalar> {
    /// The countdown engine over one block store: one worker on the
    /// caller's thread for one rank, else shared-memory worker threads,
    /// with one plan pool.
    Shared { threads: usize, plans: KernelPlans<S> },
    /// Message-passing ranks, each the engine's one-worker instance over
    /// the store's owned blocks: the per-rank tables of received copies
    /// and the plan pool live in the workspace.
    Distributed { workspace: NumericWorkspace<S> },
}

impl<S: Scalar> Executor<S> {
    /// The executor `opts` asks for over the blocks of `bm`.
    fn new(bm: &BlockMatrix<S>, tg: &TaskGraph, owners: &OwnerMap, opts: &SolverOptions) -> Self {
        if owners.num_ranks() == 1 {
            Executor::Shared {
                threads: opts.shared_threads.unwrap_or(1),
                plans: empty_plans(bm, tg),
            }
        } else {
            Executor::Distributed { workspace: NumericWorkspace::new(bm, tg, owners) }
        }
    }

    /// Runs the numeric phase over the already loaded blocks `bm`.
    fn factor(&mut self, bm: &mut BlockMatrix<S>, run: &NumericRun) -> NumericSummary {
        let (tg, owners) = (run.tg, run.owners);
        let selector = &KernelSelector::new(run.a.nnz(), Thresholds::default());
        match self {
            Executor::Shared { threads, plans } => NumericSummary::in_process(
                factor_shared_planned(bm, tg, selector, run.pivot_floor, *threads, plans),
            ),
            Executor::Distributed { workspace } => {
                // A fault-free run only stalls on an executor bug.
                let out = factor_distributed_cached(
                    bm,
                    tg,
                    owners,
                    selector,
                    run.pivot_floor,
                    &FactorConfig::default(),
                    workspace,
                )
                .unwrap_or_else(|e| panic!("distributed factorisation failed: {e}"));
                NumericSummary {
                    perturbed_pivots: out.stats.perturbed_pivots,
                    numeric: None,
                    report: Some(out.report),
                }
            }
        }
    }

    /// Memory and build accounting of the kernel plans.
    fn plan_stats(&self) -> PlanStats {
        match self {
            Executor::Shared { plans, .. } => plans.stats(),
            Executor::Distributed { workspace } => workspace.plan_stats(),
        }
    }
}

/// The zero pivots a numeric run left in its factors: with the floor
/// disabled every counted perturbation is a zero or NaN pivot kept as is.
/// `floor` may be the absolute floor or `pivot_floor_rel`; they are zero
/// together.
fn zero_pivots(floor: f64, perturbed: usize) -> usize {
    if floor == 0.0 {
        perturbed
    } else {
        0
    }
}

/// Rejects a matrix holding a NaN or infinite value, naming the first
/// one in column-major order.
fn check_finite(a: &CscMatrix) -> Result<()> {
    match a.values().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(k) => {
            let col = a.col_ptr().partition_point(|&p| p <= k) - 1;
            Err(SparseError::NonFinite { row: a.row_idx()[k], col })
        }
    }
}

/// Gathers `k ≥ 1` right-hand sides into the row-major `n × k` `panel`,
/// permuting and scaling in one pass:
/// `panel[pos[old] · k + j] = bs[j][old] · scale[old]`, `pos` being the
/// inverse of the permutation applied (`pos[old] = new`) — the same one
/// multiply per entry as scaling first and permuting after, so the bits
/// are those of the two-pass form. Every entry of `panel` is written, so
/// a reused panel keeps nothing of an earlier gather. The loop runs in
/// the caller's index order: every `bs[j]` is read front to back and each
/// panel row is one contiguous k-lane write. Every `bs[j]` must already
/// be known to have length `pos.len()`.
///
/// The same pass checks every entry: a NaN or infinite one fails with
/// [`SparseError::NonFinite`] `{ row, col: rhs0 + j }` for the first such
/// entry of the lowest-indexed `bs[j]`, `rhs0` being the caller's index
/// of `bs[0]`.
fn gather_scaled<B: AsRef<[f64]>>(
    pos: &Permutation,
    scale: &[f64],
    bs: &[B],
    rhs0: usize,
    panel: &mut [f64],
) -> Result<()> {
    let k = bs.len();
    debug_assert_eq!(panel.len(), pos.len() * k, "panel is n × k");
    let mut finite = true;
    for (old, (&new, &s)) in pos.as_slice().iter().zip(scale).enumerate() {
        for (p, b) in panel[new * k..(new + 1) * k].iter_mut().zip(bs) {
            let v = b.as_ref()[old];
            finite &= v.is_finite();
            *p = v * s;
        }
    }
    if !finite {
        for (j, b) in bs.iter().enumerate() {
            if let Some(row) = b.as_ref().iter().position(|v| !v.is_finite()) {
                return Err(SparseError::NonFinite { row, col: rhs0 + j });
            }
        }
    }
    Ok(())
}

/// [`gather_scaled`] of one right-hand side into a vector of its own.
fn gather_one(pos: &Permutation, scale: &[f64], b: &[f64], rhs: usize) -> Result<Vec<f64>> {
    let mut z = vec![0.0; pos.len()];
    gather_scaled(pos, scale, &[b], rhs, &mut z)?;
    Ok(z)
}

/// The inverse of [`gather_scaled`] on the way out: scatters the
/// `k = out.len()` columns of a row-major panel through the inverse
/// permutation, scaling as it goes, onto the empty vectors of `out`:
/// `out[j][old] = panel[pos[old] · k + j] · scale[old]`. Also in the
/// caller's index order, [`SCATTER_ROWS`] rows at a time through a
/// column-major tile, so every output grows by in-order block appends
/// into its exact capacity and nothing is zero-filled first.
fn scatter_scaled(pos: &Permutation, scale: &[f64], panel: &[f64], out: &mut [Vec<f64>]) {
    let k = out.len();
    for x in out.iter_mut() {
        x.reserve_exact(pos.len());
    }
    let mut tile = vec![0.0; SCATTER_ROWS * k];
    for (news, scales) in pos.as_slice().chunks(SCATTER_ROWS).zip(scale.chunks(SCATTER_ROWS)) {
        for (i, (&new, &s)) in news.iter().zip(scales).enumerate() {
            for (j, &v) in panel[new * k..(new + 1) * k].iter().enumerate() {
                tile[j * SCATTER_ROWS + i] = v * s;
            }
        }
        for (x, col) in out.iter_mut().zip(tile.chunks_exact(SCATTER_ROWS)) {
            x.extend_from_slice(&col[..news.len()]);
        }
    }
}

/// One panel of right-hand sides gathered into the factor's order, with
/// the factors it is solved against.
enum Gathered<'a> {
    /// f64 factors: the row-major `n × k` panel, in the solve workspace.
    Panel(&'a BlockMatrix, &'a mut [f64]),
    /// Mixed factors: one vector per right-hand side, each refined on
    /// its own.
    Columns(&'a MixedState, Vec<Vec<f64>>),
}

/// The f32 preconditioner of [`refine_inner`] over a set of `k ≥ 1`
/// columns: narrows them into one row-major `n × k` f32 panel, runs both
/// sweeps on it (one pass over the f32 factor each), and widens the
/// result back into one vector per column.
fn tri32_panel(factors32: &BlockMatrix<f32>, rs: &[&[f64]]) -> Vec<Vec<f64>> {
    let (n, k) = (factors32.n(), rs.len());
    let mut panel = vec![0.0f32; n * k];
    for (i, row) in panel.chunks_exact_mut(k).enumerate() {
        for (p, r) in row.iter_mut().zip(rs) {
            *p = r[i] as f32;
        }
    }
    forward_substitute_panel(factors32, &mut panel, k);
    backward_substitute_panel(factors32, &mut panel, k);
    let mut out = vec![vec![0.0f64; n]; k];
    for (i, row) in panel.chunks_exact(k).enumerate() {
        for (o, &v) in out.iter_mut().zip(row) {
            o[i] = f64::from(v);
        }
    }
    out
}

/// Solves `M z = w` for every column `w` of `ws` (at most
/// [`PANEL_WIDTH`]) against the f32 factors with f64 iterative
/// refinement: f32 panel sweeps produce corrections — one pass over the
/// factor for all still-active columns — and exact f64 residuals
/// `w − M z` against the scaled permuted input `m` gate them. Returns
/// per column the solution, the final relative ∞-norm residual and the
/// number of corrections applied. Deterministic for a fixed
/// `(factors, m, w)` and independent of the other columns: a correction
/// that fails to reduce a column's residual is discarded and that column
/// stops.
fn refine_inner(
    factors32: &BlockMatrix<f32>,
    m: &CscMatrix,
    ws: &[Vec<f64>],
    tol: f64,
    max_iters: usize,
) -> Vec<(Vec<f64>, f64, usize)> {
    let apply_m =
        |z: &[f64]| pangulu_sparse::ops::spmv(m, z).expect("analysis fixes the dimensions");
    refine_with(|rs| tri32_panel(factors32, rs), apply_m, ws, tol, max_iters)
}

/// The transposed twin of [`refine_inner`] for one right-hand side:
/// solves `Mᵀ z = w` with the f32 transpose sweeps (`Uᵀ` then `Lᵀ`) as
/// the preconditioner and exact f64 residuals `w − Mᵀ z` — so mixed-mode
/// transpose solves (and [`Solver::condest`]) recover the same f64
/// accuracy as forward solves. `Mᵀ z` is formed from `m` itself
/// (`spmv_t`), so no transposed copy of the system exists.
fn refine_inner_transpose(
    factors32: &BlockMatrix<f32>,
    m: &CscMatrix,
    w: Vec<f64>,
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, f64, usize) {
    // The transposed sweeps have no panel form; columns go one by one.
    let tri32 = |rs: &[&[f64]]| -> Vec<Vec<f64>> {
        rs.iter()
            .map(|r| {
                let mut v: Vec<f32> = r.iter().map(|&x| x as f32).collect();
                forward_substitute_transpose(factors32, &mut v);
                backward_substitute_transpose(factors32, &mut v);
                v.into_iter().map(f64::from).collect()
            })
            .collect()
    };
    let apply_mt =
        |z: &[f64]| pangulu_sparse::ops::spmv_t(m, z).expect("analysis fixes the dimensions");
    refine_with(tri32, apply_mt, &[w], tol, max_iters).pop().expect("one column in, one out")
}

/// The shared refinement loop of [`refine_inner`] /
/// [`refine_inner_transpose`], batched over the columns of `ws`:
/// `tri32` maps a set of columns to their corrections, exact f64
/// residuals `w − apply_m(z)` gate them per column, stagnation keeps a
/// column's best iterate bitwise. A column that converged, stagnated or
/// ran out of iterations drops out of the (never empty) set handed to
/// `tri32`; every column's result is what the loop gives for it alone.
fn refine_with(
    tri32: impl Fn(&[&[f64]]) -> Vec<Vec<f64>>,
    apply_m: impl Fn(&[f64]) -> Vec<f64>,
    ws: &[Vec<f64>],
    tol: f64,
    max_iters: usize,
) -> Vec<(Vec<f64>, f64, usize)> {
    let norms: Vec<f64> =
        ws.iter().map(|w| w.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))).collect();
    let residual = |j: usize, z: &[f64]| -> (Vec<f64>, f64) {
        let mz = apply_m(z);
        let r: Vec<f64> = ws[j].iter().zip(&mz).map(|(p, q)| p - q).collect();
        let rel = r.iter().fold(0.0f64, |acc, v| acc.max(v.abs())) / norms[j];
        (r, rel)
    };
    // A zero right-hand side is solved by zero and never enters a sweep.
    let mut out: Vec<(Vec<f64>, f64, usize)> =
        ws.iter().map(|w| (vec![0.0; w.len()], 0.0, 0)).collect();
    let mut rs: Vec<Vec<f64>> = vec![Vec::new(); ws.len()];
    let mut active: Vec<usize> = (0..ws.len()).filter(|&j| norms[j] != 0.0).collect();
    if active.is_empty() {
        return out;
    }
    let tri32_of = |of: &[Vec<f64>], set: &[usize]| {
        tri32(&set.iter().map(|&j| of[j].as_slice()).collect::<Vec<_>>())
    };
    for (&j, z) in active.iter().zip(tri32_of(ws, &active)) {
        let (r, rel) = residual(j, &z);
        rs[j] = r;
        out[j] = (z, rel, 0);
    }
    loop {
        active.retain(|&j| {
            let (_, rel, iters) = &out[j];
            rel.is_finite() && *rel > tol && *iters < max_iters
        });
        if active.is_empty() {
            return out;
        }
        let mut improving = Vec::with_capacity(active.len());
        for (&j, dz) in active.iter().zip(tri32_of(&rs, &active)) {
            let (z, rel, iters) = &mut out[j];
            let corrected: Vec<f64> = z.iter().zip(&dz).map(|(zi, di)| zi + di).collect();
            *iters += 1;
            let (new_r, new_rel) = residual(j, &corrected);
            if new_rel.partial_cmp(rel) == Some(std::cmp::Ordering::Less) {
                *z = corrected;
                *rel = new_rel;
                rs[j] = new_r;
                improving.push(j);
            }
            // Otherwise stagnation (or divergence, incl. NaN): the column
            // keeps its best iterate, bitwise, and stops.
        }
        active = improving;
    }
}

impl Factors {
    /// Runs the numeric phase on the loaded store. Mixed factors must
    /// pass the acceptance probe (see [`MixedState::accept`]); an f32
    /// zero pivot or a failed probe falls back to f64, counted and never
    /// surfaced as an error: the f32 store's pattern, zeroed and loaded
    /// from A, holds the same scaled values in the same slots as an f64
    /// store that was never narrowed, and is factored on new f64 executor
    /// state. `refactor` marks a refactorisation (the probe
    /// cadence counts those).
    fn factor(&mut self, run: &NumericRun, refactor: bool, stats: &mut FactorStats) -> Result<()> {
        match self {
            Factors::F64 { bm, executor } => executor.factor(bm, run).apply(stats),
            Factors::Mixed(mx) => {
                let summary = mx.executor.factor(&mut mx.factored32, run);
                let perturbed = summary.perturbed_pivots;
                // An f32 zero pivot fails like a probe: the f64 run
                // decides whether the matrix itself is singular.
                if zero_pivots(run.pivot_floor, perturbed) == 0
                    && mx.accept(refactor, perturbed, &mut stats.precision)
                {
                    summary.apply(stats);
                } else {
                    let c = &mut stats.precision;
                    c.precision_fallbacks += 1;
                    c.refine_iters += mx.refine_iters.load(Ordering::Relaxed);
                    c.refined_solves += mx.refined_solves.load(Ordering::Relaxed);
                    let mut bm = mx.factored32.cast::<f64>();
                    bm.clear_values();
                    run.frame.load(&mut bm, run.a)?;
                    let executor = Executor::new(&bm, run.tg, run.owners, run.opts);
                    *self = Factors::F64 { bm, executor };
                    return self.factor(run, refactor, stats);
                }
            }
        }
        if let Some(report) = stats.report.as_mut() {
            report.precision_fallbacks = stats.precision.precision_fallbacks;
            report.probe_skips = stats.precision.probe_skips;
        }
        Ok(())
    }
}

impl MixedState {
    /// A mixed state over f32 tiles freshly loaded with `scaled_a`'s
    /// values, factored by `executor`.
    fn new(factored32: BlockMatrix<f32>, executor: Executor<f32>, scaled_a: CscMatrix) -> Self {
        MixedState {
            factored32,
            executor,
            scaled_a,
            a_pos: Vec::new(),
            widened: OnceLock::new(),
            refine_iters: AtomicU64::new(0),
            refined_solves: AtomicU64::new(0),
            refactors_since_probe: 0,
            probed_perturbed: 0,
        }
    }

    /// The acceptance probe of just-factored f32 factors: one
    /// deterministic refinement solve (all-ones right-hand side in the
    /// inner domain) must reach [`PROBE_GATE`]. Returns whether the
    /// factors are kept.
    ///
    /// Refactorisations amortise it: the solve only reruns every
    /// [`PROBE_EVERY`]-th refactorisation or when the perturbed-pivot count
    /// drifts from the last probed run; skips are counted in
    /// [`PrecisionCounters::probe_skips`]. The first factorisation always
    /// probes.
    fn accept(
        &mut self,
        refactor: bool,
        perturbed: usize,
        precision: &mut PrecisionCounters,
    ) -> bool {
        // Inside the cadence window with the pivoting unchanged, the
        // factors accepted at the last probe need no new one.
        let cadence_due = self.refactors_since_probe + 1 >= PROBE_EVERY;
        if refactor && !cadence_due && perturbed == self.probed_perturbed {
            precision.probe_skips += 1;
            precision.mixed_factors += 1;
            self.refactors_since_probe += 1;
            return true;
        }
        self.refactors_since_probe = 0;
        self.probed_perturbed = perturbed;
        let ones = vec![1.0f64; self.scaled_a.ncols()];
        let (_, rel, iters) =
            refine_inner(&self.factored32, &self.scaled_a, &[ones], REFINE_TOL, MAX_REFINE_ITERS)
                .pop()
                .expect("one column in, one out");
        precision.probe_refine_iters += iters as u64;
        let kept = rel.is_finite() && rel <= PROBE_GATE;
        if kept {
            precision.mixed_factors += 1;
        }
        kept
    }
}

/// Tiles the symbolic pattern into a block store in precision `S` sized
/// for `opts`' rank grid (one rank in shared mode, where `ranks` is
/// ignored), loads it from `a` through `frame` (fill slots zero), derives
/// the task graph and the balanced owner map from it, and records the
/// block grid in `stats`. Also returns the largest |scaled entry| for the
/// pivot floor.
fn preprocess<S: Scalar>(
    fill: FilledPattern,
    a: &CscMatrix,
    frame: &Frame,
    opts: &SolverOptions,
    stats: &mut FactorStats,
) -> Result<(BlockMatrix<S>, TaskGraph, OwnerMap, f64)> {
    let grid = ProcessGrid::new(if opts.shared_threads.is_some() { 1 } else { opts.ranks });
    let nb = opts.block_size.unwrap_or_else(|| {
        BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), grid.pr().max(grid.pc()))
    });
    let mut bm = BlockMatrix::from_fill(fill, nb)?;
    let norm = frame.load(&mut bm, a)?;
    let tg = TaskGraph::build(&bm);
    let owners = OwnerMap::balanced(&bm, grid, &tg);
    (stats.block_size, stats.nblk, stats.num_blocks) = (nb, bm.nblk(), bm.num_blocks());
    Ok((bm, tg, owners, norm))
}

/// Where the caller's matrix goes in the factor: the reordering's
/// permutations and scalings, and their inverses (`pos[old] = new`),
/// computed once — the loads, the refactor scatter map and the solves'
/// gather and scatter all walk the caller's index order through them.
struct Frame {
    ordering: ScaledOrdering,
    row_pos: Permutation,
    col_pos: Permutation,
}

impl Frame {
    fn new(ordering: ScaledOrdering) -> Self {
        let (row_pos, col_pos) = (ordering.row_perm.inverse(), ordering.col_perm.inverse());
        Frame { ordering, row_pos, col_pos }
    }

    /// Writes `Pr·Dr·A·Dc·Pcᵀ` into `bm` straight from `a`: entry `v` at
    /// `(i, j)` lands as `v · d_r[i] · d_c[j]` — the arithmetic of
    /// `permute::scale`, so bitwise what a reordered copy holds — rounded
    /// once into `S`, a zero as `+0.0` ([`factor_value`]); fill slots keep
    /// their value. Returns the largest |written entry|, the pivot floor's
    /// norm (max is order-independent, so it equals the reordered copy's
    /// `norm_max()` bit for bit).
    fn load<S: Scalar>(&self, bm: &mut BlockMatrix<S>, a: &CscMatrix) -> Result<f64> {
        let (rows, vals) = (a.row_idx(), a.values());
        let (dr, dc) = (&self.ordering.row_scale, &self.ordering.col_scale);
        let mut norm = 0.0f64;
        bm.for_each_slot(
            a,
            |i| self.row_pos.old_of(i),
            |j| self.col_pos.old_of(j),
            |k, j, _, slot| {
                let scaled = vals[k] * dr[rows[k]] * dc[j];
                norm = norm.max(scaled.abs());
                *slot = S::from_f64(factor_value(scaled));
            },
        )?;
        Ok(norm)
    }

    /// The refactor's scatter map: for input nonzero `k` (CSC order), the
    /// slot its scaled, permuted entry lands in. A store with more tiles,
    /// or a tile with more entries, than a `u32` counts is
    /// [`SparseError::IndexTooLarge`].
    fn slots<S: Scalar>(&self, bm: &mut BlockMatrix<S>, a: &CscMatrix) -> Result<Vec<ScatterSlot>> {
        index32(bm.num_blocks(), "scatter map block id")?;
        let widest = (0..bm.num_blocks()).map(|id| bm.block(id).nnz()).max().unwrap_or(0);
        index32(widest, "scatter map offset")?;
        let mut map = Vec::with_capacity(a.nnz());
        bm.for_each_slot(
            a,
            |i| self.row_pos.old_of(i),
            |j| self.col_pos.old_of(j),
            |_, _, (id, at), _| map.push((id as u32, at as u32)),
        )?;
        Ok(map)
    }
}

/// A scaled input entry as the factor store takes it: `-0.0` becomes
/// `+0.0`, every other value (NaN included) is unchanged. The dense-tile
/// lane subtracts `(±0)·x` where the sparse variants skip, which moves a
/// bit only on a target holding `-0.0`; fill starts at `+0.0` and no
/// subtraction makes `-0.0` from anything else, so with no `-0.0` input
/// the lane is the sparse variants bit for bit.
fn factor_value(scaled: f64) -> f64 {
    scaled + 0.0
}

/// Checks that every index below `count` fits the `u32` entries of the
/// per-input-entry table `what`.
fn index32(count: usize, what: &'static str) -> Result<()> {
    let (last, max) = (count.saturating_sub(1), u32::MAX as usize);
    if last > max {
        return Err(SparseError::IndexTooLarge { what, index: last, max });
    }
    Ok(())
}

/// The log-absolute-determinant and sign of `A` from the pivots `U_ii`
/// (unknown order) of its factors under the reordering `r`.
fn log_abs_det_of(r: &ScaledOrdering, pivots: impl Iterator<Item = f64>) -> (f64, i8) {
    let mut log_abs = 0.0f64;
    let mut sign: i8 = r.row_perm.parity() * r.col_perm.parity();
    for u in pivots {
        if u == 0.0 {
            return (f64::NEG_INFINITY, 0);
        }
        log_abs += u.abs().ln();
        if u < 0.0 {
            sign = -sign;
        }
    }
    for &dr in &r.row_scale {
        log_abs -= dr.ln();
    }
    for &dc in &r.col_scale {
        log_abs -= dc.ln();
    }
    (log_abs, sign)
}

/// A factored system ready to solve right-hand sides.
pub struct Solver {
    opts: SolverOptions,
    /// The reordering without its matrix: A's values live only in the
    /// factor store (and, for mixed factors, in `scaled_a`).
    frame: Frame,
    factors: Factors,
    tg: TaskGraph,
    owners: OwnerMap,
    plan: SolverPlan,
    stats: FactorStats,
    n: usize,
    /// The solve workspace: the row-major `n × k` panel the f64 solves
    /// gather into, sweep and scatter from. Allocated by the first solve
    /// and grown to the widest panel swept, at most [`PANEL_WIDTH`] lanes
    /// (see [`Solver::with_panel`]).
    panel: Mutex<Vec<f64>>,
}

impl Solver {
    /// Starts configuring a solver.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// Factors with default options.
    pub fn factor(a: &CscMatrix) -> Result<Solver> {
        Self::factor_with(a, SolverOptions::default())
    }

    /// Factors with explicit options (the five-phase pipeline).
    pub fn factor_with(a: &CscMatrix, opts: SolverOptions) -> Result<Solver> {
        if !a.is_square() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        if opts.ranks == 0 {
            return Err(SparseError::InvalidStructure("ranks must be positive".into()));
        }
        if !(0.0..f64::INFINITY).contains(&opts.pivot_floor_rel) {
            return Err(SparseError::InvalidStructure(format!(
                "pivot_floor_rel must be finite and non-negative, got {}",
                opts.pivot_floor_rel
            )));
        }
        check_finite(a)?;
        let n = a.ncols();
        let mut stats =
            FactorStats { phases: PhaseCounters::first_factor(), ..FactorStats::default() };

        // Phase 1: reorder.
        let t = Instant::now();
        let Reordering { ordering, matrix } = reorder_for_lu(a, opts.fill_reducing)?;
        stats.reorder_time = t.elapsed();

        // Phase 2: symbolic factorisation (symmetric pruning). After it
        // the reordered matrix is read only by mixed factors, as
        // `scaled_a`; an f64 build drops it here.
        let t = Instant::now();
        let fill = symbolic_fill(&matrix)?;
        stats.symbolic = Some(pangulu_symbolic::stats::stats_from_fill(&matrix, &fill));
        let scaled_a = (opts.precision == Precision::MixedF32).then_some(matrix);
        stats.symbolic_time = t.elapsed();

        // Phase 3: preprocess — blocking, owner map, load balancing. The
        // one block store is tiled straight into the precision the factors
        // will hold and loaded from A; its executor is built beside it.
        let t = Instant::now();
        let frame = Frame::new(ordering);
        let (mut factors, tg, owners, norm) = match scaled_a {
            None => {
                let (bm, tg, owners, norm) = preprocess(fill, a, &frame, &opts, &mut stats)?;
                let executor = Executor::new(&bm, &tg, &owners, &opts);
                (Factors::F64 { bm, executor }, tg, owners, norm)
            }
            Some(m) => {
                let (bm32, tg, owners, norm) = preprocess(fill, a, &frame, &opts, &mut stats)?;
                let executor = Executor::new(&bm32, &tg, &owners, &opts);
                (Factors::Mixed(MixedState::new(bm32, executor, m)), tg, owners, norm)
            }
        };
        stats.preprocess_time = t.elapsed();

        // Phase 4: numeric factorisation.
        let run = NumericRun {
            tg: &tg,
            owners: &owners,
            opts: &opts,
            a,
            frame: &frame,
            pivot_floor: opts.pivot_floor_rel * norm.max(1.0),
        };
        let t = Instant::now();
        factors.factor(&run, false, &mut stats)?;
        stats.numeric_time = t.elapsed();

        let plan = SolverPlan { n, pattern: a.pattern(), scatter: None };

        let panel = Mutex::new(Vec::new());
        let solver = Solver { opts, frame, factors, tg, owners, plan, stats, n, panel };
        solver.check_factors()?;
        Ok(solver)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Statistics of the factorisation.
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// The factored block matrix (packed `L\U` tiles) in f64. While a
    /// mixed-precision solver's f32 factors are live this is their exact
    /// widened image, built by the first call after each factorisation
    /// and kept until the next one: a copy the size of the factors that
    /// only callers of this method pay for. The solver itself reads
    /// [`Solver::factored32`].
    pub fn factored(&self) -> &BlockMatrix {
        match &self.factors {
            Factors::F64 { bm, .. } => bm,
            Factors::Mixed(mx) => mx.widened.get_or_init(|| mx.factored32.cast()),
        }
    }

    /// The reordering that was applied: permutations, scalings and how
    /// the ordering was chosen. The solver keeps no reordered copy of A.
    pub fn ordering(&self) -> &ScaledOrdering {
        &self.frame.ordering
    }

    /// The cached pattern analysis (see [`Solver::refactor`]).
    pub fn plan(&self) -> &SolverPlan {
        &self.plan
    }

    /// The numeric precision the solver was configured for.
    pub fn precision(&self) -> Precision {
        self.opts.precision
    }

    /// The precision the factors actually hold: [`Precision::MixedF32`]
    /// while the f32 factors are live, [`Precision::F64`] otherwise —
    /// including after a transparent fallback (see
    /// [`Solver::precision_counters`]).
    pub fn effective_precision(&self) -> Precision {
        match self.factors {
            Factors::F64 { .. } => Precision::F64,
            Factors::Mixed(_) => Precision::MixedF32,
        }
    }

    /// The live f32 factors of a mixed-precision solver (`None` in f64
    /// mode and after a fallback) — its only resident factor store.
    /// [`Solver::factored`] widens them exactly on demand.
    pub fn factored32(&self) -> Option<&BlockMatrix<f32>> {
        match &self.factors {
            Factors::F64 { .. } => None,
            Factors::Mixed(mx) => Some(&mx.factored32),
        }
    }

    /// Mixed-precision accounting over the solver's lifetime: the
    /// factor-time outcomes from [`FactorStats::precision`] plus the
    /// refinement work of every solve so far.
    pub fn precision_counters(&self) -> PrecisionCounters {
        let mut c = self.stats.precision;
        if let Factors::Mixed(m) = &self.factors {
            c.refine_iters += m.refine_iters.load(Ordering::Relaxed);
            c.refined_solves += m.refined_solves.load(Ordering::Relaxed);
        }
        c
    }

    /// Memory and build accounting of the kernel index plans the live
    /// executor keeps (one pool, which every rank of a multi-rank solver
    /// reads). All zero until the first [`Solver::refactor`]: a pool's
    /// first run builds no plan, its second builds them.
    pub fn kernel_plan_stats(&self) -> PlanStats {
        match &self.factors {
            Factors::F64 { executor, .. } => executor.plan_stats(),
            Factors::Mixed(mx) => mx.executor.plan_stats(),
        }
    }

    /// What the report says about the plan pool: its size, or why a
    /// solver that has only been built holds none.
    pub fn kernel_plans_summary(&self) -> String {
        let ps = self.kernel_plan_stats();
        if ps.bytes == 0 && self.stats.phases.numeric_runs == 1 {
            "none yet (built by the first refactor)".to_string()
        } else {
            format!("{} bytes in {} plans", ps.bytes, ps.builds)
        }
    }

    /// Rejects a matrix whose order or nonzero positions differ from the
    /// analysed pattern, naming the first column that differs. A matrix
    /// sharing the analysed pattern (a clone of the one built from, or one
    /// with new values on its pattern) passes without a comparison.
    fn check_pattern(&self, a: &CscMatrix) -> Result<()> {
        let (n, analysed) = (self.plan.n, &self.plan.pattern);
        if a.nrows() != n || a.ncols() != n {
            return Err(SparseError::PatternMismatch(format!(
                "matrix is {}x{}, the cached analysis is for order {n}",
                a.nrows(),
                a.ncols()
            )));
        }
        if a.shares_pattern(analysed) {
            return Ok(());
        }
        // Every column before `j` matched, so `j` is also the first column
        // whose end pointer can differ.
        let Some(j) = (0..n).find(|&j| a.col(j).0 != analysed.col(j).0) else {
            return Ok(());
        };
        let (rows, expected) = (a.col(j).0, analysed.col(j).0);
        let detail = match rows.iter().zip(expected).position(|(r, e)| r != e) {
            Some(t) if rows.len() == expected.len() => {
                format!("entry {t} is row {} where it is row {}", rows[t], expected[t])
            }
            _ => format!("{} entries where it has {}", rows.len(), expected.len()),
        };
        Err(SparseError::PatternMismatch(format!(
            "column {j} differs from the analysed pattern: {detail} ({} vs {} nonzeros)",
            a.nnz(),
            analysed.nnz()
        )))
    }

    /// Refactors the system with new numerical values on the **same
    /// sparsity pattern**, reusing every pattern-dependent product of the
    /// first factorisation — the reordering and scaling, the symbolic
    /// fill, the block layout and owner map, and (multi-rank) the
    /// executor's per-rank schedules and dependency counters. Only the
    /// numeric phase runs; the resulting factors are bitwise identical
    /// to a fresh [`Solver::factor_with`] of the same values under the
    /// same reordering.
    ///
    /// `a` must have exactly the structure the solver was built from
    /// (same order, same nonzero positions) and finite values; anything
    /// else is rejected with [`SparseError::PatternMismatch`] or
    /// [`SparseError::NonFinite`] and the solver keeps its current
    /// factors.
    ///
    /// With `pivot_floor_rel = 0` a zero pivot returns
    /// [`SparseError::ZeroPivot`]; the factors are then unusable, and
    /// every solve and [`Solver::condest`] returns the same error until a
    /// later refactorisation succeeds.
    ///
    /// Note the cached MC64 row matching and scalings were computed for
    /// the *original* values. They stay valid for the modest value
    /// changes this API targets (transient simulation, Newton steps);
    /// wildly different values may cost accuracy — iterative refinement
    /// recovers it, or factor from scratch.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<()> {
        self.check_pattern(a)?;
        check_finite(a)?;

        // First refactorisation: build the scatter map from input
        // nonzeros to factor-block slots — the slot walk the build loaded
        // the store with — and, for mixed factors, the map to `scaled_a`'s
        // values.
        if self.plan.scatter.is_none() {
            let frame = &self.frame;
            let map = match &mut self.factors {
                Factors::F64 { bm, .. } => frame.slots(bm, a)?,
                Factors::Mixed(mx) => {
                    index32(mx.scaled_a.nnz(), "scaled input position")?;
                    let mut a_pos = Vec::with_capacity(a.nnz());
                    for j in 0..self.plan.n {
                        let new_c = frame.col_pos.old_of(j);
                        for &i in a.col(j).0 {
                            let new_r = frame.row_pos.old_of(i);
                            let at = mx.scaled_a.find(new_r, new_c);
                            a_pos.push(at.ok_or_else(|| outside(new_r, new_c))? as u32);
                        }
                    }
                    mx.a_pos = a_pos;
                    frame.slots(&mut mx.factored32, a)?
                }
            };
            self.plan.scatter = Some(map);
        }

        // Reset the live store to the scaled, permuted input: zero every
        // slot (fill-in positions hold explicit zeros before the numeric
        // phase), then scatter `v · d_r[i] · d_c[j]` — the exact
        // arithmetic `scale` applies, a zero as `+0.0` as the build's load
        // writes it, so the rebuilt blocks are bitwise what the full
        // pipeline would produce; mixed factors take it
        // rounded to f32, and `scaled_a` takes it as is. The max-abs norm
        // for the pivot floor is folded in during the same sweep (max is
        // order-independent, so it matches `norm_max()` bit-for-bit).
        match &mut self.factors {
            Factors::F64 { bm, .. } => bm.clear_values(),
            Factors::Mixed(mx) => {
                mx.widened.take();
                mx.factored32.clear_values();
            }
        }
        let scatter = self.plan.scatter.as_ref().expect("scatter map built above");
        let r = &self.frame.ordering;
        let (col_ptr, row_idx, vals) = (a.col_ptr(), a.row_idx(), a.values());
        let mut norm = 0.0f64;
        for j in 0..self.plan.n {
            let cj = r.col_scale[j];
            for k in col_ptr[j]..col_ptr[j + 1] {
                let scaled = vals[k] * r.row_scale[row_idx[k]] * cj;
                norm = norm.max(scaled.abs());
                let (id, idx) = (scatter[k].0 as usize, scatter[k].1 as usize);
                let v = factor_value(scaled);
                match &mut self.factors {
                    Factors::F64 { bm, .. } => bm.block_mut(id).values_mut()[idx] = v,
                    Factors::Mixed(mx) => {
                        mx.factored32.block_mut(id).values_mut()[idx] = v as f32;
                        mx.scaled_a.values_mut()[mx.a_pos[k] as usize] = scaled;
                    }
                }
            }
        }

        // Numeric phase only — reorder, symbolic and preprocess are all
        // served from the cache. A mixed solver that falls back runs this
        // and every later numeric phase in f64.
        let run = NumericRun {
            tg: &self.tg,
            owners: &self.owners,
            opts: &self.opts,
            a,
            frame: &self.frame,
            pivot_floor: self.opts.pivot_floor_rel * norm.max(1.0),
        };
        let t = Instant::now();
        self.factors.factor(&run, true, &mut self.stats)?;
        self.stats.numeric_time = t.elapsed();
        self.stats.phases.numeric_runs += 1;
        self.stats.phases.analysis_reuses += 1;
        self.check_factors()
    }

    /// Fails while the factors hold zero pivots (see [`Solver::refactor`]).
    fn check_factors(&self) -> Result<()> {
        match zero_pivots(self.opts.pivot_floor_rel, self.stats.perturbed_pivots) {
            0 => Ok(()),
            pivots => Err(SparseError::ZeroPivot { pivots }),
        }
    }

    /// Solves `A x = b` (phase 5: `Ly = b'`, `Ux = y` plus the inverse
    /// reordering/scaling transforms). A NaN or infinite `b[i]` fails
    /// with [`SparseError::NonFinite`] `{ row: i, col: 0 }`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_factors()?;
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch(format!(
                "rhs length {} vs matrix order {}",
                b.len(),
                self.n
            )));
        }
        let mut x = [Vec::new()];
        self.with_panel(self.panel_len(1), |ws| {
            let gathered = self.gather_panel(&[b], 0, ws)?;
            self.solve_panel(gathered, &mut x);
            Ok(())
        })?;
        let [x] = x;
        Ok(x)
    }

    /// The workspace entries a `k`-lane panel takes: `n · k` on f64
    /// factors, none on mixed ones (they refine column by column in
    /// vectors of their own).
    fn panel_len(&self, k: usize) -> usize {
        match self.factors {
            Factors::F64 { .. } => self.n * k,
            Factors::Mixed(_) => 0,
        }
    }

    /// Runs `f` on `len` entries of the solve workspace starting on a
    /// 64-byte boundary; the workspace is first grown if it is shorter:
    /// the narrower panel is freed before the wider one is allocated,
    /// exactly `len` + [`PANEL_SLACK`] long (none for `len == 0`). While
    /// another solve on this solver holds the workspace, `f` runs on a
    /// buffer of its own instead, so solves through `&self` may run
    /// concurrently. `f` reads only what it wrote: a gather writes every
    /// entry of its panel.
    fn with_panel<R>(&self, len: usize, f: impl FnOnce(&mut [f64]) -> Result<R>) -> Result<R> {
        let mut guard = match self.panel.try_lock() {
            Ok(guard) => Some(guard),
            // A solve that panicked left only entries the next gather
            // overwrites.
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let mut local = Vec::new();
        let ws = guard.as_deref_mut().unwrap_or(&mut local);
        let held = if len == 0 { 0 } else { len + PANEL_SLACK };
        if ws.len() < held {
            *ws = Vec::new();
            *ws = vec![0.0; held];
        }
        // `align_offset` may decline (usize::MAX); the panel then starts
        // wherever the slack allows.
        let at = ws.as_ptr().align_offset(64).min(ws.len() - len);
        f(&mut ws[at..at + len])
    }

    /// The bytes the solve workspace keeps (0 before the first f64 solve).
    fn panel_bytes(&self) -> usize {
        let ws = self.panel.lock().unwrap_or_else(PoisonError::into_inner);
        ws.capacity() * std::mem::size_of::<f64>()
    }

    /// Gathers the `k ≤` [`PANEL_WIDTH`] right-hand sides of one panel
    /// (every length already checked, `rhs0` the caller's index of
    /// `bs[0]`) into the factor's order, for [`Solver::solve_panel`]: into
    /// the first `n · k` entries of the workspace `ws`, or in mixed mode
    /// one vector per right-hand side. A non-finite entry fails here,
    /// before any sweep runs or any precision counter moves.
    fn gather_panel<'a, B: AsRef<[f64]>>(
        &'a self,
        bs: &[B],
        rhs0: usize,
        ws: &'a mut [f64],
    ) -> Result<Gathered<'a>> {
        // A x = b  ⇔  (Pr Dr A Dc Pc^T)(Pc Dc^{-1} x) = Pr Dr b.
        let (pos, scale) = (&self.frame.row_pos, &self.frame.ordering.row_scale);
        match &self.factors {
            Factors::Mixed(mx) => {
                let zs = bs.iter().enumerate();
                let zs = zs.map(|(j, b)| gather_one(pos, scale, b.as_ref(), rhs0 + j));
                Ok(Gathered::Columns(mx, zs.collect::<Result<_>>()?))
            }
            Factors::F64 { bm, .. } => {
                let panel = &mut ws[..self.n * bs.len()];
                gather_scaled(pos, scale, bs, rhs0, panel)?;
                Ok(Gathered::Panel(bm, panel))
            }
        }
    }

    /// Solves `A x_j = b_j` for the `k = out.len()` right-hand sides of
    /// one gathered panel — one pass over the factor per sweep, one
    /// scatter — into the empty vectors of `out`.
    fn solve_panel(&self, gathered: Gathered<'_>, out: &mut [Vec<f64>]) {
        let (pos, scale) = (&self.frame.col_pos, &self.frame.ordering.col_scale);
        match gathered {
            Gathered::Columns(mx, zs) => {
                // The f32 triangular solve is only a preconditioner;
                // iterative refinement against the f64 scaled input
                // recovers full f64 accuracy (or stops at the stagnation
                // point).
                let refined =
                    refine_inner(&mx.factored32, &mx.scaled_a, &zs, REFINE_TOL, MAX_REFINE_ITERS);
                let iters: usize = refined.iter().map(|(_, _, iters)| iters).sum();
                mx.refine_iters.fetch_add(iters as u64, Ordering::Relaxed);
                mx.refined_solves.fetch_add(refined.len() as u64, Ordering::Relaxed);
                for ((z, _, _), x) in refined.iter().zip(out) {
                    scatter_scaled(pos, scale, z, std::slice::from_mut(x));
                }
            }
            Gathered::Panel(bm, panel) => {
                let k = out.len();
                forward_substitute_panel(bm, panel, k);
                backward_substitute_panel(bm, panel, k);
                scatter_scaled(pos, scale, panel, out);
            }
        }
    }

    /// A human-readable factorisation report: the input's diagnostics and
    /// every phase's cost — what the CLI prints and what an integration
    /// would log.
    pub fn report(&self, a: &CscMatrix) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "input:");
        for line in pangulu_sparse::diagnostics::MatrixReport::of(a).to_string().lines() {
            let _ = writeln!(out, "  {line}");
        }
        let s = &self.stats;
        let _ = writeln!(
            out,
            "phases: reorder {:.1?} | symbolic {:.1?} | preprocess {:.1?} | numeric {:.1?}",
            s.reorder_time, s.symbolic_time, s.preprocess_time, s.numeric_time
        );
        let _ = writeln!(out, "ordering: {}", self.frame.ordering.ordering_summary());
        if let Some(sym) = s.symbolic {
            // The store that is live, in the precision it holds.
            let (bytes, label) = match &self.factors {
                Factors::F64 { bm, .. } => (bm.memory_bytes(), f64::LABEL),
                Factors::Mixed(mx) => (mx.factored32.memory_bytes(), f32::LABEL),
            };
            let _ = writeln!(
                out,
                "factor: nnz(L+U) {} ({:.2}x fill), {:.3e} flops, tile {} ({} blocks, {:.1} MiB {label})",
                sym.nnz_lu,
                sym.fill_ratio,
                sym.flops,
                s.block_size,
                s.num_blocks,
                bytes as f64 / (1024.0 * 1024.0),
            );
        }
        let _ = writeln!(out, "kernel plans: {}", self.kernel_plans_summary());
        let _ = writeln!(
            out,
            "lanes: dense tile {} ({}x{TILE_COLS} f64 / {}x{TILE_COLS} f32), panel sweeps {}",
            isa::tile_lane(),
            tile_rows::<f64>(),
            tile_rows::<f32>(),
            isa::sweep_lane(),
        );
        // Kept between solves; mixed factors never take it.
        let ws = self.panel_bytes();
        let entries = (ws / std::mem::size_of::<f64>()).saturating_sub(PANEL_SLACK);
        let lanes = entries / self.n.max(1);
        let _ = writeln!(out, "solve workspace: {ws} B kept ({lanes} of {PANEL_WIDTH} lanes)");
        if let Some(r) = &s.report {
            let _ = writeln!(
                out,
                "comm: {} msgs, {} KiB, mean sync wait {:.0}%",
                r.total_messages(),
                r.total_bytes() / 1024,
                100.0 * r.mean_sync_fraction()
            );
        }
        if s.perturbed_pivots > 0 {
            let _ = writeln!(out, "pivoting: {} statically perturbed pivots", s.perturbed_pivots);
        }
        out
    }

    /// The log-absolute-determinant and sign of `A`, read off the
    /// factorisation: `det(A) = sign(P_r)·sign(P_c)·Π U_ii / (Π d_r·Π d_c)`
    /// (the MC64 scalings are strictly positive). Returns
    /// `(ln|det A|, sign)` with sign in `{-1, 0, +1}`.
    pub fn log_abs_det(&self) -> (f64, i8) {
        match &self.factors {
            Factors::F64 { bm, .. } => log_abs_det_of(&self.frame.ordering, bm.diagonal()),
            Factors::Mixed(mx) => {
                log_abs_det_of(&self.frame.ordering, mx.factored32.diagonal().map(f64::from))
            }
        }
    }

    /// Estimates the 1-norm condition number `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁` with
    /// the Hager–Higham iteration: `‖A⁻¹‖₁` is found by maximising
    /// `‖A⁻¹x‖₁` over sign vectors, each step costing one solve and one
    /// transpose solve against the existing factorisation. The estimate
    /// is a lower bound, usually within a small factor of the truth.
    /// `a` must have the analysed pattern
    /// ([`SparseError::PatternMismatch`] otherwise).
    pub fn condest(&self, a: &CscMatrix) -> Result<f64> {
        self.check_pattern(a)?;
        let n = self.n;
        if n == 0 {
            return Ok(0.0);
        }
        // ‖A‖₁ = max column sum.
        let mut norm_a = 0.0f64;
        for j in 0..a.ncols() {
            let (_, vals) = a.col(j);
            norm_a = norm_a.max(vals.iter().map(|v| v.abs()).sum());
        }

        // Hager's algorithm for ‖A⁻¹‖₁.
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x)?; // y = A⁻¹ x
            let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
            // ξ = sign(y); z = A⁻ᵀ ξ.
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = self.solve_transpose(&xi)?;
            let (jmax, zmax) = z.iter().enumerate().fold((0usize, 0.0f64), |(bj, bv), (j, v)| {
                if v.abs() > bv {
                    (j, v.abs())
                } else {
                    (bj, bv)
                }
            });
            if y_norm <= est || zmax <= z.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() {
                est = est.max(y_norm);
                break;
            }
            est = y_norm;
            x = vec![0.0; n];
            x[jmax] = 1.0;
        }
        Ok(norm_a * est)
    }

    /// Solves the transposed system `Aᵀ x = b` against the same
    /// factorisation (`Aᵀ = (P_rᵀ D_r⁻¹ L U D_c⁻¹ P_c)ᵀ`, so `Uᵀ` then
    /// `Lᵀ` substitution with the transforms mirrored).
    ///
    /// In mixed-precision mode the f32 transpose sweeps are only a
    /// preconditioner: the same exact-f64-residual refinement loop as
    /// [`Solver::solve`] runs against the transposed scaled system, so
    /// transpose solves (and hence [`Solver::condest`]) recover full f64
    /// accuracy. Iterations fold into the lifetime
    /// [`PrecisionCounters::refine_iters`] / `refined_solves` totals.
    /// A non-finite `b` fails as in [`Solver::solve`].
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_factors()?;
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch(format!(
                "rhs length {} vs matrix order {}",
                b.len(),
                self.n
            )));
        }
        // Aᵀ x = b  ⇔  Mᵀ (P_r D_r⁻¹ x) = P_c D_c b with M = L U.
        let r = &self.frame.ordering;
        let (pos, scale) = (&self.frame.col_pos, &r.col_scale);
        let mut x = [Vec::new()];
        match &self.factors {
            Factors::Mixed(mx) => {
                let z = gather_one(pos, scale, b, 0)?;
                let (z, _rel, iters) = refine_inner_transpose(
                    &mx.factored32,
                    &mx.scaled_a,
                    z,
                    REFINE_TOL,
                    MAX_REFINE_ITERS,
                );
                mx.refine_iters.fetch_add(iters as u64, Ordering::Relaxed);
                mx.refined_solves.fetch_add(1, Ordering::Relaxed);
                scatter_scaled(&self.frame.row_pos, &r.row_scale, &z, &mut x);
            }
            Factors::F64 { bm, .. } => self.with_panel(self.n, |z| {
                gather_scaled(pos, scale, &[b], 0, z)?;
                forward_substitute_transpose(bm, z);
                backward_substitute_transpose(bm, z);
                scatter_scaled(&self.frame.row_pos, &r.row_scale, z, &mut x);
                Ok(())
            })?,
        }
        let [x] = x;
        Ok(x)
    }

    /// Solves several right-hand sides (columns of `bs`) against the one
    /// factorisation, [`PANEL_WIDTH`] at a time: each panel is gathered
    /// once, swept once forward and once backward — the factor is read
    /// once per panel, not once per right-hand side — and scattered once.
    /// Every solution is bitwise what [`Solver::solve`] returns for that
    /// right-hand side alone, in every execution mode and precision.
    ///
    /// All lengths, then all values, are checked before any sweep runs;
    /// the error names the first offending right-hand side. A NaN or
    /// infinite entry fails with [`SparseError::NonFinite`] `{ row, col }`,
    /// `col` being the index of its right-hand side: the first panel's
    /// gather checks its values, a scan checks the rest, and each later
    /// panel is gathered when its turn comes.
    ///
    /// Every panel is gathered into the solver's one solve workspace,
    /// which the first solve allocates and later ones reuse (a solve
    /// running concurrently on the same solver uses a buffer of its own):
    /// a call allocates the solutions it returns and a 64-row scatter
    /// tile per panel, nothing the size of a panel.
    pub fn solve_multi(&self, bs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        self.check_factors()?;
        if let Some((j, b)) = bs.iter().enumerate().find(|(_, b)| b.len() != self.n) {
            return Err(SparseError::DimensionMismatch(format!(
                "rhs {j} of {} has length {} vs matrix order {}",
                bs.len(),
                b.len(),
                self.n
            )));
        }
        let mut panels = bs.chunks(PANEL_WIDTH);
        let Some(first) = panels.next() else {
            return Ok(Vec::new());
        };
        let mut out = Vec::with_capacity(bs.len());
        self.with_panel(self.panel_len(first.len()), |ws| {
            let gathered = self.gather_panel(first, 0, ws)?;
            for (j, b) in bs.iter().enumerate().skip(PANEL_WIDTH) {
                if let Some(row) = b.iter().position(|v| !v.is_finite()) {
                    return Err(SparseError::NonFinite { row, col: j });
                }
            }
            out.resize_with(first.len(), Vec::new);
            self.solve_panel(gathered, &mut out);
            for (p, panel) in panels.enumerate() {
                let gathered = self.gather_panel(panel, (p + 1) * PANEL_WIDTH, ws)?;
                let at = out.len();
                out.resize_with(at + panel.len(), Vec::new);
                self.solve_panel(gathered, &mut out[at..]);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Solves `A x = b` with iterative refinement: repeats
    /// `x ← x + A⁻¹(b − Ax)` until the relative residual drops below
    /// `tol` or `max_iters` corrections have been computed. A correction
    /// that does not lower the residual (stagnation or divergence) is
    /// discarded and ends the loop, so the returned solution is the best
    /// iterate, bitwise, and the returned relative residual is its own.
    /// Returns the solution, that residual and the number of corrections
    /// computed, a discarded last one included. This is the standard
    /// companion to static pivoting: perturbation-induced error washes
    /// out in one or two corrections.
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> Result<(Vec<f64>, f64, usize)> {
        let mut x = self.solve(b)?;
        let mut resid = pangulu_sparse::ops::relative_residual(a, &x, b)?;
        let mut iters = 0usize;
        while resid > tol && iters < max_iters {
            let ax = pangulu_sparse::ops::spmv(a, &x)?;
            let rvec: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
            let dx = self.solve(&rvec)?;
            let corrected: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi + di).collect();
            iters += 1;
            let new_resid = pangulu_sparse::ops::relative_residual(a, &corrected, b)?;
            if new_resid.partial_cmp(&resid) != Some(std::cmp::Ordering::Less) {
                // Stagnation (or divergence, incl. NaN): keep the best
                // iterate and its residual.
                break;
            }
            x = corrected;
            resid = new_resid;
        }
        Ok((x, resid, iters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangulu_sparse::gen;
    use pangulu_sparse::ops::relative_residual;

    fn check_solve(a: &CscMatrix, opts: SolverOptions, tol: f64) {
        let solver = Solver::factor_with(a, opts).unwrap();
        let b = gen::test_rhs(a.nrows(), 42);
        let x = solver.solve(&b).unwrap();
        let r = relative_residual(a, &x, &b).unwrap();
        assert!(r < tol, "residual {r} exceeds {tol}");
    }

    #[test]
    fn default_pipeline_solves_laplacian() {
        let a = gen::laplacian_2d(15, 15);
        check_solve(&a, SolverOptions::default(), 1e-10);
    }

    #[test]
    fn multirank_pipeline_solves_circuit() {
        let a = gen::circuit(300, 11);
        let opts = SolverOptions { ranks: 4, ..Default::default() };
        check_solve(&a, opts, 1e-8);
    }

    #[test]
    fn all_fill_reducing_orderings_work() {
        let a = gen::cage_like(150, 3);
        for f in [FillReducing::Natural, FillReducing::Amd, FillReducing::Auto, FillReducing::Rcm] {
            let opts = SolverOptions { fill_reducing: f, ..Default::default() };
            check_solve(&a, opts, 1e-8);
        }
    }

    #[test]
    fn shared_mode_ignores_ranks() {
        // Shared mode sizes and owns its blocks for one rank, whatever
        // `ranks` says.
        let a = gen::laplacian_2d(10, 10);
        let plain = Solver::builder().shared_threads(2).build(&a).unwrap();
        let ranked = Solver::builder().shared_threads(2).ranks(16).build(&a).unwrap();
        assert_eq!(ranked.stats().block_size, plain.stats().block_size);
        assert_eq!(ranked.factored().to_csc().values(), plain.factored().to_csc().values());
    }

    #[test]
    fn explicit_block_size_respected() {
        let a = gen::laplacian_2d(10, 10);
        let solver = Solver::builder().block_size(13).build(&a).unwrap();
        assert_eq!(solver.stats().block_size, 13);
        assert_eq!(solver.stats().nblk, 100usize.div_ceil(13));
    }

    #[test]
    fn shared_solver_plans_report_stats() {
        let a = gen::laplacian_2d(12, 12);
        let mut solver = Solver::builder().shared_threads(3).build(&a).unwrap();
        assert_eq!(solver.kernel_plan_stats(), PlanStats::default(), "no plans after build()");
        // The eager pool is built by the first refactorisation, once.
        solver.refactor(&a).unwrap();
        let ps = solver.kernel_plan_stats();
        assert!(ps.bytes > 0);
        assert!(ps.builds > 0);
        solver.refactor(&a).unwrap();
        assert_eq!(solver.kernel_plan_stats().builds, ps.builds);
    }

    #[test]
    fn a_precision_fallback_starts_plan_building_over() {
        // The f32 executor had its first (plan-free) run at build(); the
        // fallback's fresh f64 executor has its own.
        let a = hilbert(10);
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        assert_eq!(solver.effective_precision(), Precision::F64);
        assert_eq!(solver.kernel_plan_stats(), PlanStats::default());
        let bits = solver.factored().to_csc();
        solver.refactor(&a).unwrap();
        assert!(solver.kernel_plan_stats().builds > 0, "second f64 run builds plans");
        assert_eq!(solver.factored().to_csc().values(), bits.values());
    }

    #[test]
    fn stats_are_populated() {
        let a = gen::laplacian_2d(12, 12);
        let solver = Solver::factor(&a).unwrap();
        let s = solver.stats();
        assert!(s.symbolic.is_some());
        assert!(s.numeric.is_some());
        assert!(s.num_blocks > 0);
        assert!(s.symbolic.unwrap().nnz_lu >= a.nnz());
    }

    #[test]
    fn rejects_non_square() {
        let a = CscMatrix::zeros(3, 4);
        assert!(Solver::factor(&a).is_err());
    }

    #[test]
    fn rejects_zero_ranks() {
        let a = gen::laplacian_2d(4, 4);
        let err = Solver::factor_with(&a, SolverOptions { ranks: 0, ..Default::default() })
            .err()
            .expect("zero ranks must be an error, not a panic");
        assert!(
            matches!(&err, SparseError::InvalidStructure(msg) if msg == "ranks must be positive"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_pivot_floor_that_is_not_a_finite_non_negative_number() {
        let a = gen::laplacian_2d(4, 4);
        for rel in [f64::NAN, f64::INFINITY, -1e-12] {
            for err in [
                Solver::factor_with(
                    &a,
                    SolverOptions { pivot_floor_rel: rel, ..Default::default() },
                )
                .err(),
                Solver::builder().shared_threads(2).pivot_floor_rel(rel).build(&a).err(),
            ] {
                let err = err.expect("a bad pivot floor must be an error, not a panic");
                assert!(
                    matches!(&err, SparseError::InvalidStructure(m) if m.contains("pivot_floor_rel")),
                    "{rel}: {err}"
                );
            }
        }
        assert!(Solver::builder().pivot_floor_rel(0.0).build(&a).is_ok(), "0 disables the floor");
    }

    /// A NaN or ±∞ entry is a structured error from `build` and from
    /// `refactor`, which then keeps its factors bit for bit and still
    /// solves the system it had.
    #[test]
    fn non_finite_values_are_rejected_before_any_state_changes() {
        let a = gen::laplacian_2d(10, 10);
        let b = gen::test_rhs(a.nrows(), 3);
        let bits = |s: &Solver| -> Vec<u64> {
            let f = s.factored32().map_or_else(|| s.factored().cast::<f64>(), |f| f.cast::<f64>());
            f.to_csc().values().iter().map(|v| v.to_bits()).collect()
        };
        type Configure = fn(SolverBuilder) -> SolverBuilder;
        let modes: [(&str, Configure); 3] = [
            ("1 rank", |s| s),
            ("2 ranks", |s| s.ranks(2)),
            ("mixed", |s| s.precision(Precision::MixedF32)),
        ];
        for (tag, configure) in modes {
            let mut solver = configure(Solver::builder()).build(&a).unwrap();
            assert_eq!(solver.factored32().is_some(), tag == "mixed", "{tag}");
            solver.refactor(&a).unwrap();
            let factors = bits(&solver);
            for (k, poison) in
                [(0, f64::NAN), (57, f64::INFINITY), (a.nnz() - 1, f64::NEG_INFINITY)]
            {
                let mut bad = a.clone();
                bad.values_mut()[k] = poison;
                let col = a.col_ptr().partition_point(|&p| p <= k) - 1;
                let want = SparseError::NonFinite { row: a.row_idx()[k], col };
                assert_eq!(solver.refactor(&bad).unwrap_err(), want, "{tag} {poison}");
                assert_eq!(configure(Solver::builder()).build(&bad).err(), Some(want), "{tag}");
                assert_eq!(bits(&solver), factors, "{tag} {poison}: the factors moved");
                let x = solver.solve(&b).unwrap();
                assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10, "{tag} {poison}");
            }
            assert_eq!(solver.stats().phases.numeric_runs, 2, "{tag}: a rejected refactor ran");
        }
    }

    /// With the pivot floor disabled a zero pivot is a structured error:
    /// `build` returns it, `refactor` returns it, and every solve and
    /// `condest` refuse the unusable factors until a refactor succeeds.
    #[test]
    fn zero_pivot_without_floor_is_an_error_until_a_good_refactor() {
        let ones =
            CscMatrix::from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1.0; 4]).unwrap();
        let a = gen::laplacian_2d(8, 8);
        // Same pattern, row 5 numerically zero: its pivot is exactly zero
        // under any scaling and elimination order.
        let mut singular = a.clone();
        for (k, v) in singular.values_mut().iter_mut().enumerate() {
            if a.row_idx()[k] == 5 {
                *v = 0.0;
            }
        }
        let b = gen::test_rhs(a.nrows(), 4);
        type Configure = fn(SolverBuilder) -> SolverBuilder;
        let modes: [(&str, Configure); 3] = [
            ("1 rank", |s| s),
            ("2 ranks", |s| s.ranks(2)),
            ("mixed", |s| s.precision(Precision::MixedF32)),
        ];
        let is_zero_pivot =
            |e: Option<SparseError>| matches!(e, Some(SparseError::ZeroPivot { .. }));
        for (tag, configure) in modes {
            let builder = || configure(Solver::builder().pivot_floor_rel(0.0));
            assert_eq!(builder().build(&ones).err(), Some(SparseError::ZeroPivot { pivots: 1 }));
            assert!(is_zero_pivot(builder().build(&singular).err()), "{tag}: build");

            let mut solver = builder().build(&a).unwrap();
            assert!(is_zero_pivot(solver.refactor(&singular).err()), "{tag}: refactor");
            assert!(is_zero_pivot(solver.solve(&b).err()), "{tag}: solve");
            assert!(
                is_zero_pivot(solver.solve_multi(std::slice::from_ref(&b)).err()),
                "{tag}: solve_multi"
            );
            assert!(is_zero_pivot(solver.solve_transpose(&b).err()), "{tag}: solve_transpose");
            assert!(is_zero_pivot(solver.solve_refined(&a, &b, 1e-12, 3).err()), "{tag}");
            assert!(is_zero_pivot(solver.condest(&a).err()), "{tag}: condest");
            if tag == "mixed" {
                assert_eq!(solver.precision_counters().precision_fallbacks, 1, "f32 fell back");
                assert_eq!(solver.effective_precision(), Precision::F64);
            }

            solver.refactor(&a).unwrap();
            let x = solver.solve(&b).unwrap();
            assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10, "{tag}");
            assert!(solver.condest(&a).unwrap().is_finite(), "{tag}");
        }
    }

    /// A pivot that is zero only in f32 sends a mixed solver to f64 like
    /// a failed probe, and the f64 factors solve the system.
    #[test]
    fn an_f32_only_zero_pivot_falls_back_to_f64() {
        let eps = 2f64.powi(-30); // below f32 resolution at 1
        let a = CscMatrix::from_parts(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![1.0, 1.0, 1.0, 1.0 + eps],
        )
        .unwrap();
        let solver = Solver::builder()
            .precision(Precision::MixedF32)
            .pivot_floor_rel(0.0)
            .build(&a)
            .unwrap();
        assert_eq!(solver.effective_precision(), Precision::F64);
        assert_eq!(solver.precision_counters().precision_fallbacks, 1);
        let x = solver.solve(&[2.0, 2.0 + eps]).unwrap();
        assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-6), "{x:?}");
    }

    #[test]
    fn condest_rejects_a_matrix_that_is_not_the_analysed_one() {
        let solver = Solver::factor(&gen::laplacian_2d(6, 6)).unwrap();
        for other in [gen::laplacian_2d(5, 5), gen::random_sparse(36, 0.2, 1)] {
            let err = solver.condest(&other).unwrap_err();
            assert!(matches!(err, SparseError::PatternMismatch(_)), "{err}");
        }
    }

    #[test]
    fn transpose_solve_solves_transposed_system() {
        for (tag, a) in
            [("unsym", gen::random_sparse(60, 0.1, 3)), ("circuit", gen::circuit(200, 5))]
        {
            let solver = Solver::factor(&a).unwrap();
            let x_true = gen::test_rhs(a.nrows(), 9);
            let b = pangulu_sparse::ops::spmv(&a.transpose(), &x_true).unwrap();
            let x = solver.solve_transpose(&b).unwrap();
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-7, "{tag}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn refinement_tightens_growth_degraded_solves() {
        // A non-dominant random matrix: static pivoting permits element
        // growth, leaving the plain solve around 1e-12 relative residual;
        // one refinement step must recover ~machine precision.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let n = 60;
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, rng.gen_range(-1.0..1.0f64) + 0.01).unwrap();
            for _ in 0..6 {
                let j = rng.gen_range(0..n);
                if j != i {
                    coo.push(i, j, rng.gen_range(-1.0..1.0)).unwrap();
                }
            }
        }
        let a = coo.to_csc();
        let solver = Solver::factor(&a).unwrap();
        let b = gen::test_rhs(n, 1);
        let x0 = solver.solve(&b).unwrap();
        let r0 = relative_residual(&a, &x0, &b).unwrap();
        let (x, resid, iters) = solver.solve_refined(&a, &b, 1e-14, 5).unwrap();
        assert!(resid <= r0, "refinement must not worsen the residual");
        assert!(resid < 1e-13, "refined residual {resid}");
        assert!(iters >= 1, "this system needs at least one correction");
        assert!(relative_residual(&a, &x, &b).unwrap() < 1e-13);
    }

    #[test]
    fn refinement_returns_its_best_iterate() {
        // tol = 0 is never met, so the loop runs until a correction fails
        // to lower the residual (or the budget ends); that correction
        // must not be kept.
        let mut stagnated = 0;
        for seed in 0..8 {
            let a =
                pangulu_sparse::ops::ensure_diagonal(&gen::random_sparse(120, 0.05, seed)).unwrap();
            let solver = Solver::factor(&a).unwrap();
            let b = gen::test_rhs(a.nrows(), seed);
            // The loop's residuals, followed by hand.
            let mut x = solver.solve(&b).unwrap();
            let mut seen = vec![relative_residual(&a, &x, &b).unwrap()];
            for _ in 0..8 {
                let ax = pangulu_sparse::ops::spmv(&a, &x).unwrap();
                let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
                let dx = solver.solve(&r).unwrap();
                x.iter_mut().zip(&dx).for_each(|(xi, di)| *xi += di);
                let rel = relative_residual(&a, &x, &b).unwrap();
                let worse = rel >= *seen.last().unwrap();
                seen.push(rel);
                if worse {
                    stagnated += 1;
                    break;
                }
            }
            let best = seen.iter().copied().fold(f64::INFINITY, f64::min);
            let (x, resid, iters) = solver.solve_refined(&a, &b, 0.0, 8).unwrap();
            assert_eq!(iters, seen.len() - 1, "seed {seed}");
            assert_eq!(resid.to_bits(), best.to_bits(), "seed {seed}: {resid} vs best {best}");
            let own = relative_residual(&a, &x, &b).unwrap();
            assert_eq!(resid.to_bits(), own.to_bits(), "seed {seed}: the residual is x's own");
        }
        assert!(stagnated > 0, "no seed reached stagnation");
    }

    #[test]
    fn refinement_is_noop_when_already_converged() {
        let a = gen::laplacian_2d(10, 10);
        let solver = Solver::factor(&a).unwrap();
        let b = gen::test_rhs(a.nrows(), 2);
        let (_, resid, iters) = solver.solve_refined(&a, &b, 1e-13, 3).unwrap();
        // Well-conditioned SPD system: the plain solve already sits at
        // roundoff, so the tolerance is met without any correction.
        assert!(resid < 1e-13);
        assert_eq!(iters, 0);
    }

    #[test]
    fn solve_multi_matches_individual_solves() {
        let a = gen::laplacian_2d(8, 8);
        let solver = Solver::factor(&a).unwrap();
        let bs: Vec<Vec<f64>> = (0..3).map(|s| gen::test_rhs(a.nrows(), s)).collect();
        let xs = solver.solve_multi(&bs).unwrap();
        for (b, x) in bs.iter().zip(&xs) {
            assert_eq!(*x, solver.solve(b).unwrap());
        }
    }

    #[test]
    fn a_table_index_above_u32_is_a_named_error() {
        let max = u32::MAX as usize;
        assert_eq!(index32(0, "block id"), Ok(()));
        assert_eq!(index32(max + 1, "block id"), Ok(()), "the last index is u32::MAX");
        let err = index32(max + 2, "block id").unwrap_err();
        assert_eq!(err, SparseError::IndexTooLarge { what: "block id", index: max + 1, max });
        assert!(err.to_string().starts_with("block id 4294967296 is above 4294967295"), "{err}");
    }

    #[test]
    fn solve_multi_over_several_panels_equals_the_solve_loop() {
        let a = gen::laplacian_2d(8, 8);
        let n = a.nrows();
        let bs: Vec<Vec<f64>> =
            (0..2 * PANEL_WIDTH + 3).map(|s| gen::test_rhs(n, s as u64)).collect();
        for precision in [Precision::F64, Precision::MixedF32] {
            let solver = Solver::builder().precision(precision).build(&a).unwrap();
            let alone: Vec<Vec<f64>> = bs.iter().map(|b| solver.solve(b).unwrap()).collect();
            assert_eq!(
                bits_of(&solver.solve_multi(&bs).unwrap()),
                bits_of(&alone),
                "{precision:?}"
            );
            // Bad values in the first and the last panel: the first one is
            // named, and nothing is solved.
            let solved = solver.precision_counters().refined_solves;
            let mut bad = bs.clone();
            bad[2 * PANEL_WIDTH + 1][3] = f64::NAN;
            bad[1][7] = f64::INFINITY;
            let want = SparseError::NonFinite { row: 7, col: 1 };
            assert_eq!(solver.solve_multi(&bad), Err(want), "{precision:?}");
            assert_eq!(solver.precision_counters().refined_solves, solved, "{precision:?}");
        }
    }

    fn bits_of(xs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        xs.iter().map(|x| x.iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn solve_multi_reuses_its_panel_bitwise_across_widths() {
        let a = gen::kkt(60, 25, 2);
        let n = a.nrows();
        // Every right-hand side is new, so a stale lane cannot match.
        let mut seed = 0u64;
        let mut rhs = |k: usize| -> Vec<Vec<f64>> {
            let first = seed;
            seed += k as u64;
            (first..seed).map(|s| gen::test_rhs(n, s)).collect()
        };
        for precision in [Precision::F64, Precision::MixedF32] {
            let build = || Solver::builder().precision(precision).build(&a).unwrap();
            let solver = build();
            // A narrower panel after a wider one must not read the wider
            // one's stale lanes; single solves run in the same workspace.
            for k in [PANEL_WIDTH, 5, 1, 2 * PANEL_WIDTH + 6, PANEL_WIDTH] {
                let bs = rhs(k);
                let fresh = build().solve_multi(&bs).unwrap();
                assert_eq!(bits_of(&solver.solve_multi(&bs).unwrap()), bits_of(&fresh), "k = {k}");
                let b = &rhs(1)[0];
                let x = solver.solve(b).unwrap();
                assert_eq!(bits_of(&[x]), bits_of(&[build().solve(b).unwrap()]), "k = {k}");
                let x = solver.solve_transpose(b).unwrap();
                let fresh = build().solve_transpose(b).unwrap();
                assert_eq!(bits_of(&[x]), bits_of(&[fresh]), "k = {k}");
            }
        }
    }

    #[test]
    fn solve_multi_on_two_threads_matches_the_sequential_bits() {
        let a = gen::circuit(300, 4);
        let n = a.nrows();
        let solver = Solver::factor(&a).unwrap();
        let sets: Vec<Vec<Vec<f64>>> = (0..2u64)
            .map(|t| (0..PANEL_WIDTH as u64 + 3).map(|s| gen::test_rhs(n, 100 * t + s)).collect())
            .collect();
        let sequential: Vec<_> =
            sets.iter().map(|bs| bits_of(&solver.solve_multi(bs).unwrap())).collect();
        // While another caller holds the workspace a solve runs in a
        // buffer of its own, with the same bits, and does not wait.
        {
            let _held = solver.panel.lock().unwrap();
            assert_eq!(bits_of(&solver.solve_multi(&sets[0]).unwrap()), sequential[0]);
            let x = solver.solve(&sets[1][0]).unwrap();
            assert_eq!(bits_of(&[x]), sequential[1][..1]);
        }
        let start = std::sync::Barrier::new(sets.len());
        std::thread::scope(|scope| {
            for (bs, want) in sets.iter().zip(&sequential) {
                let (solver, start) = (&solver, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        assert_eq!(&bits_of(&solver.solve_multi(bs).unwrap()), want);
                    }
                });
            }
        });
    }

    #[test]
    fn solve_multi_checks_every_length_before_solving_anything() {
        let a = gen::laplacian_2d(8, 8);
        // Mixed mode counts refined solves, so "no work was done" is observable.
        let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let mut bs: Vec<Vec<f64>> = (0..5).map(|s| gen::test_rhs(a.nrows(), s)).collect();
        bs[4].pop();
        let err = solver.solve_multi(&bs).unwrap_err();
        assert_eq!(solver.precision_counters().refined_solves, 0, "rhs 0..4 were solved first");
        assert!(matches!(err, SparseError::DimensionMismatch(_)), "{err}");
    }

    #[test]
    fn solve_multi_error_names_the_offending_rhs() {
        let a = gen::laplacian_2d(8, 8);
        let solver = Solver::factor(&a).unwrap();
        let mut bs = vec![vec![1.0; a.nrows()]; 4];
        bs[2].push(0.0);
        bs[3].clear();
        let msg = solver.solve_multi(&bs).unwrap_err().to_string();
        assert!(msg.contains("rhs 2 of 4") && msg.contains("65") && msg.contains("64"), "{msg}");
    }

    #[test]
    fn solve_multi_of_nothing_is_nothing() {
        let a = gen::laplacian_2d(8, 8);
        for precision in [Precision::F64, Precision::MixedF32] {
            let solver = Solver::builder().precision(precision).build(&a).unwrap();
            assert_eq!(solver.solve_multi(&[]).unwrap(), Vec::<Vec<f64>>::new());
            assert_eq!(solver.precision_counters().refined_solves, 0);
        }
    }

    #[test]
    fn report_mentions_all_sections() {
        let a = gen::laplacian_2d(8, 8);
        for precision in [Precision::F64, Precision::MixedF32] {
            let mut solver = Solver::builder().ranks(2).precision(precision).build(&a).unwrap();
            assert_eq!(solver.effective_precision(), precision);
            // The factor line sizes the live store, in its precision.
            let (mib, label) = match solver.factored32() {
                Some(f) => (f.memory_bytes(), "f32"),
                None => (solver.factored().memory_bytes(), "f64"),
            };
            let store = format!(" blocks, {:.1} MiB {label})\n", mib as f64 / (1024.0 * 1024.0));
            let report = solver.report(&a);
            for needle in [
                "input:",
                "phases:",
                "ordering: ",
                "natural ",
                "factor:",
                &store,
                "kernel plans: none yet (built by the first refactor)",
                "comm:",
                "nnz(L+U)",
            ] {
                assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
            }
            solver.refactor(&a).unwrap();
            let ps = solver.kernel_plan_stats();
            let line = format!("kernel plans: {} bytes in {} plans\n", ps.bytes, ps.builds);
            assert!(ps.bytes > 0 && solver.report(&a).contains(&line), "{}", solver.report(&a));
        }
    }

    #[test]
    fn report_states_the_kept_solve_workspace() {
        let a = gen::laplacian_2d(8, 8);
        let n = a.nrows();
        let line = |lanes: usize| {
            // The panel's 64-byte alignment slack rides along with it.
            let bytes = if lanes == 0 { 0 } else { (lanes * n + PANEL_SLACK) * 8 };
            format!("solve workspace: {bytes} B kept ({lanes} of {PANEL_WIDTH} lanes)\n")
        };
        let solver = Solver::factor(&a).unwrap();
        assert!(solver.report(&a).contains(&line(0)), "{}", solver.report(&a));
        solver.solve(&gen::test_rhs(n, 1)).unwrap();
        assert!(solver.report(&a).contains(&line(1)), "{}", solver.report(&a));
        let bs: Vec<Vec<f64>> = (0..PANEL_WIDTH as u64 + 1).map(|s| gen::test_rhs(n, s)).collect();
        solver.solve_multi(&bs).unwrap();
        assert!(solver.report(&a).contains(&line(PANEL_WIDTH)), "{}", solver.report(&a));
        // Mixed factors refine column by column and keep no panel.
        let mixed = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        mixed.solve_multi(&bs).unwrap();
        assert!(mixed.report(&a).contains(&line(0)), "{}", mixed.report(&a));
    }

    #[test]
    fn report_names_the_sweep_instance() {
        let a = gen::laplacian_2d(8, 8);
        let report = Solver::factor(&a).unwrap().report(&a);
        let line = match (isa::tile_lane(), isa::sweep_lane()) {
            ("avx512", "avx2") => {
                "lanes: dense tile avx512 (32x4 f64 / 64x4 f32), panel sweeps avx2\n"
            }
            ("avx2", "avx2") => "lanes: dense tile avx2 (8x4 f64 / 16x4 f32), panel sweeps avx2\n",
            ("portable", "portable") => {
                "lanes: dense tile portable (4x4 f64 / 8x4 f32), panel sweeps portable\n"
            }
            other => panic!("no report line for instances {other:?}"),
        };
        assert!(report.contains(line), "missing {line:?} in:\n{report}");
    }

    #[test]
    fn condest_brackets_the_true_condition_number() {
        // diag(1, 10, 100): κ₁ = 100 exactly.
        let d =
            CscMatrix::from_parts(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![1.0, 10.0, 100.0])
                .unwrap();
        let solver = Solver::factor(&d).unwrap();
        let est = solver.condest(&d).unwrap();
        assert!((est - 100.0).abs() / 100.0 < 1e-10, "diag condest {est}");

        // SPD Laplacian: the estimate must be a lower bound on the true
        // κ₁ and at least the κ of its extreme eigenvalue ratio order.
        let a = gen::laplacian_2d(8, 8);
        let solver = Solver::factor(&a).unwrap();
        let est = solver.condest(&a).unwrap();
        assert!(est > 10.0, "Laplacian is ill-conditioned: got {est}");
        assert!(est < 1e6, "estimate blew up: {est}");
    }

    #[test]
    fn log_abs_det_matches_dense_determinant() {
        // Dense determinant by cofactor-free LU on small matrices.
        for seed in 0..3 {
            let a = gen::random_sparse(12, 0.3, seed);
            let solver = Solver::factor(&a).unwrap();
            let (log_abs, sign) = solver.log_abs_det();
            // Dense reference: LU without pivoting on the dense copy may
            // hit zero pivots; use the permuted-scale-free route via
            // recursive expansion for n=12? Too slow — instead compare
            // against the product of U diagonals of a dense LU with
            // partial pivoting emulated by the solver pipeline itself on
            // a *second* factorisation with a different ordering: the
            // determinant is ordering-invariant.
            let other = Solver::builder()
                .fill_reducing(pangulu_reorder::FillReducing::Amd)
                .build(&a)
                .unwrap();
            let (log2, sign2) = other.log_abs_det();
            assert!((log_abs - log2).abs() < 1e-8, "seed {seed}: {log_abs} vs {log2}");
            assert_eq!(sign, sign2, "seed {seed}");
        }
    }

    #[test]
    fn determinant_of_identity_and_diagonal() {
        let a = CscMatrix::identity(6);
        let solver = Solver::factor(&a).unwrap();
        let (log_abs, sign) = solver.log_abs_det();
        assert!(log_abs.abs() < 1e-10);
        assert_eq!(sign, 1);

        // diag(2, -3): det = -6.
        let d = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![2.0, -3.0]).unwrap();
        let solver = Solver::factor(&d).unwrap();
        let (log_abs, sign) = solver.log_abs_det();
        assert!((log_abs - 6.0f64.ln()).abs() < 1e-10);
        assert_eq!(sign, -1);
    }

    #[test]
    fn shared_memory_mode_solves() {
        let a = gen::circuit(250, 13);
        let solver = Solver::builder().shared_threads(3).build(&a).unwrap();
        let b = gen::test_rhs(a.nrows(), 4);
        let x = solver.solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b).unwrap() < 1e-8);
        // Agrees with the sequential factorisation's solution.
        let seq = Solver::factor(&a).unwrap();
        let xs = seq.solve(&b).unwrap();
        for (p, q) in x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn shared_threads_report_numeric_phase_times() {
        let a = gen::laplacian_2d(30, 30);
        for threads in [1, 2] {
            let solver = Solver::builder().shared_threads(threads).build(&a).unwrap();
            let ns = solver.stats().numeric.as_ref().expect("in-process numeric stats");
            assert!(ns.kernel_counts.iter().all(|&c| c > 0), "{threads}: fixture lacks a class");
            for (class, t) in
                [("GETRF", ns.getrf_time), ("TRSM", ns.trsm_time), ("SSSSM", ns.ssssm_time)]
            {
                assert!(t > Duration::ZERO, "{threads} threads: no {class} time");
            }
        }
    }

    #[test]
    fn multiple_rhs_reuse_factorisation() {
        let a = gen::laplacian_2d(9, 9);
        let solver = Solver::factor(&a).unwrap();
        for seed in 0..3 {
            let b = gen::test_rhs(a.nrows(), seed);
            let x = solver.solve(&b).unwrap();
            assert!(relative_residual(&a, &x, &b).unwrap() < 1e-10);
        }
    }

    fn factor32_bits(s: &Solver) -> Vec<u32> {
        let bm = s.factored32().expect("mixed solver holds f32 factors");
        (0..bm.num_blocks())
            .flat_map(|id| bm.block(id).values().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn hilbert(n: usize) -> CscMatrix {
        let mut coo = pangulu_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, 1.0 / ((i + j + 1) as f64)).unwrap();
            }
        }
        coo.to_csc()
    }

    #[test]
    fn mixed_precision_recovers_f64_accuracy() {
        for (tag, a) in [
            ("laplacian", gen::laplacian_2d(15, 14)),
            ("circuit", gen::circuit(300, 21)),
            ("kkt", gen::kkt(200, 90, 7)),
        ] {
            let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
            assert_eq!(solver.precision(), Precision::MixedF32, "{tag}");
            assert_eq!(solver.effective_precision(), Precision::MixedF32, "{tag}");
            let b = gen::test_rhs(a.nrows(), 11);
            let x = solver.solve(&b).unwrap();
            assert!(relative_residual(&a, &x, &b).unwrap() < 1e-12, "{tag}");
            let c = solver.precision_counters();
            assert_eq!(c.mixed_factors, 1, "{tag}");
            assert_eq!(c.precision_fallbacks, 0, "{tag}");
            assert_eq!(c.refined_solves, 1, "{tag}");
            assert!(c.refine_iters >= 1 && c.refine_iters <= 32, "{tag}: {}", c.refine_iters);
        }
    }

    #[test]
    fn mixed_f32_factors_bitwise_identical_across_modes() {
        // The determinism contract extends to the f32 factors: sequential
        // (plan-free and planned), shared-memory and multi-rank runs
        // produce the same bits.
        let a = gen::circuit(300, 21);
        let base = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let want = factor32_bits(&base);
        let mut refactored = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        refactored.refactor(&a).unwrap();
        assert!(refactored.kernel_plan_stats().builds > 0, "the refactor replayed no f32 plan");
        let variants: Vec<Solver> = vec![
            refactored,
            Solver::builder().precision(Precision::MixedF32).shared_threads(3).build(&a).unwrap(),
            Solver::builder().precision(Precision::MixedF32).ranks(4).build(&a).unwrap(),
        ];
        for (i, s) in variants.iter().enumerate() {
            assert_eq!(factor32_bits(s), want, "variant {i} diverged");
        }
    }

    /// `factored()` of a mixed solver is the exact widened image of the
    /// live f32 factors — also after a refactorisation moved them.
    #[test]
    fn widened_factors_match_f32_image_exactly() {
        let a = gen::laplacian_2d(12, 12);
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        for round in 0..2 {
            let f32bm = solver.factored32().unwrap();
            let f64bm = solver.factored();
            assert_eq!(f64bm.num_blocks(), f32bm.num_blocks());
            for id in 0..f64bm.num_blocks() {
                let (wide, narrow) = (f64bm.block(id).values(), f32bm.block(id).values());
                assert_eq!(wide.len(), narrow.len());
                for (w, n) in wide.iter().zip(narrow) {
                    assert_eq!(*w, f64::from(*n), "round {round}: widening must be exact");
                }
            }
            solver.refactor(&rescaled(&a, 1.5)).unwrap();
        }
    }

    /// A mixed solver reads its pivots from the f32 store, widening them
    /// one at a time; the determinant is bit for bit the one the widened
    /// f64 image gives through a per-entry search of each diagonal block.
    #[test]
    fn mixed_log_abs_det_equals_the_widened_factors_determinant() {
        for a in [gen::laplacian_2d(12, 11), gen::circuit(300, 21), gen::kkt(200, 90, 7)] {
            let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
            assert_eq!(solver.effective_precision(), Precision::MixedF32);
            let wide = solver.factored();
            let pivots = (0..wide.nblk()).flat_map(|k| {
                let d = wide.block(wide.block_id(k, k).unwrap());
                (0..d.ncols()).map(move |c| d.get(c, c))
            });
            let want = log_abs_det_of(&solver.frame.ordering, pivots);
            let got = solver.log_abs_det();
            assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
            assert!(got.0.is_finite() && got.1 != 0);
        }
    }

    #[test]
    fn ill_conditioned_matrix_falls_back_to_f64_transparently() {
        // Hilbert order 10: κ ≈ 1.6e13, so f32 refinement diverges — the
        // factor-time probe detects it and re-factors in f64 without
        // surfacing an error.
        let a = hilbert(10);
        let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        assert_eq!(solver.precision(), Precision::MixedF32);
        assert_eq!(solver.effective_precision(), Precision::F64);
        assert!(solver.factored32().is_none());
        let c = solver.precision_counters();
        assert_eq!(c.precision_fallbacks, 1);
        assert_eq!(c.mixed_factors, 0);
        let x_true = gen::test_rhs(a.nrows(), 3);
        let b = pangulu_sparse::ops::spmv(&a, &x_true).unwrap();
        let x = solver.solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn multirank_fallback_reports_in_run_report() {
        let a = hilbert(12);
        let solver = Solver::builder().precision(Precision::MixedF32).ranks(2).build(&a).unwrap();
        assert_eq!(solver.effective_precision(), Precision::F64);
        let report = solver.stats().report.as_ref().expect("multi-rank run report");
        assert_eq!(report.precision_fallbacks, 1);
        assert_eq!(report.scalar_width, 8, "fallback report comes from the f64 run");
        let x_true = gen::test_rhs(a.nrows(), 3);
        let b = pangulu_sparse::ops::spmv(&a, &x_true).unwrap();
        let x = solver.solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn mixed_multirank_report_has_f32_scalar_width() {
        let a = gen::circuit(300, 21);
        let solver = Solver::builder().precision(Precision::MixedF32).ranks(4).build(&a).unwrap();
        assert_eq!(solver.effective_precision(), Precision::MixedF32);
        let report = solver.stats().report.as_ref().expect("multi-rank run report");
        assert_eq!(report.scalar_width, 4);
        assert_eq!(report.precision_fallbacks, 0);
    }

    #[test]
    fn mixed_refactor_stays_mixed_and_folds_counters() {
        let a = gen::circuit(300, 21);
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let b = gen::test_rhs(a.nrows(), 5);
        solver.solve(&b).unwrap();
        let before = solver.precision_counters();
        assert_eq!(before.refined_solves, 1);

        // Same pattern, scaled values: stays on the f32 path, and the
        // retiring state's solve counters survive the swap.
        let scaled = CscMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.col_ptr().to_vec(),
            a.row_idx().to_vec(),
            a.values().iter().map(|v| v * 1.5).collect(),
        )
        .unwrap();
        solver.refactor(&scaled).unwrap();
        assert_eq!(solver.effective_precision(), Precision::MixedF32);
        let after = solver.precision_counters();
        assert_eq!(after.mixed_factors, 2);
        assert_eq!(after.refined_solves, 1, "pre-refactor solves kept");
        let x = solver.solve(&b).unwrap();
        assert!(relative_residual(&scaled, &x, &b).unwrap() < 1e-12);
        assert_eq!(solver.precision_counters().refined_solves, 2);
    }

    #[test]
    fn mixed_refactor_matches_fresh_mixed_factorisation() {
        // Same-values refactor matches a fresh mixed factorisation
        // bit-for-bit (new values would pick a different MC64 matching,
        // so only identical values admit the fresh-run reference), and
        // refactoring away and back restores the original f32 bits.
        let a = gen::fem_blocked(50, 5, 2, 13);
        let fresh = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        solver.refactor(&a).unwrap();
        assert_eq!(factor32_bits(&solver), factor32_bits(&fresh));

        let scaled = CscMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.col_ptr().to_vec(),
            a.row_idx().to_vec(),
            a.values().iter().map(|v| v * 0.75).collect(),
        )
        .unwrap();
        solver.refactor(&scaled).unwrap();
        solver.refactor(&a).unwrap();
        assert_eq!(factor32_bits(&solver), factor32_bits(&fresh), "refactor is not reversible");
    }

    /// Same pattern, scaled values — the cheapest pattern-preserving
    /// refactor input.
    fn rescaled(a: &CscMatrix, factor: f64) -> CscMatrix {
        CscMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.col_ptr().to_vec(),
            a.row_idx().to_vec(),
            a.values().iter().map(|v| v * factor).collect(),
        )
        .unwrap()
    }

    #[test]
    fn mixed_probe_cadence_skips_steady_state_refactors() {
        // Default cadence (4): the first factorisation probes, the next
        // three refactors skip, the fourth re-probes.
        let a = gen::circuit(300, 21);
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        let after_factor = solver.precision_counters();
        assert_eq!(after_factor.probe_skips, 0);
        assert!(after_factor.probe_refine_iters >= 1);
        for i in 1..=3 {
            solver.refactor(&rescaled(&a, 1.0 + 0.25 * i as f64)).unwrap();
            let c = solver.precision_counters();
            assert_eq!(c.probe_skips, i as u64, "refactor {i} must skip the probe");
            assert_eq!(c.mixed_factors, 1 + i as u64, "skipped probes still count as mixed");
            assert_eq!(
                c.probe_refine_iters, after_factor.probe_refine_iters,
                "no probe solve ran during the skip window"
            );
        }
        // Fourth refactor: cadence due, the probe solve runs again.
        solver.refactor(&rescaled(&a, 2.5)).unwrap();
        let c = solver.precision_counters();
        assert_eq!(c.probe_skips, 3);
        assert!(c.probe_refine_iters > after_factor.probe_refine_iters);
        assert_eq!(solver.effective_precision(), Precision::MixedF32);
        // Accuracy is unaffected by skipping probes.
        let b = gen::test_rhs(a.nrows(), 9);
        let x = solver.solve(&b).unwrap();
        assert!(relative_residual(&rescaled(&a, 2.5), &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn mixed_probe_skips_surface_in_run_report() {
        let a = gen::circuit(300, 21);
        let mut solver =
            Solver::builder().precision(Precision::MixedF32).ranks(2).build(&a).unwrap();
        solver.refactor(&rescaled(&a, 1.5)).unwrap();
        let report = solver.stats().report.as_ref().expect("multi-rank run report");
        assert_eq!(report.probe_skips, 1);
        assert_eq!(report.scalar_width, 4);
    }

    #[test]
    fn mixed_probe_drift_gate_forces_early_reprobe() {
        // Scaling the input down to ~1e-300 leaves every pivot below the
        // static floor (whose `norm.max(1.0)` clamp keeps the floor at
        // 1e-12), so the perturbed-pivot count drifts from the probed
        // factorisation and the probe must re-run even though the
        // cadence isn't due.
        let a = gen::circuit(300, 21);
        let mut solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        assert_eq!(solver.stats().perturbed_pivots, 0, "baseline run perturbs nothing");
        let probed = solver.precision_counters().probe_refine_iters;
        solver.refactor(&rescaled(&a, 1e-300)).unwrap();
        assert!(solver.stats().perturbed_pivots >= 1, "drift actually happened");
        let c = solver.precision_counters();
        assert_eq!(c.probe_skips, 0, "drift gate must not skip");
        // The probe ran: either it re-accepted the f32 factors (more
        // probe iterations) or it rejected them (a counted fallback).
        assert!(
            c.probe_refine_iters > probed || c.precision_fallbacks == 1,
            "probe solve must have run"
        );
    }

    #[test]
    fn residuals_on_the_input_pattern_equal_residuals_on_the_filled_pattern() {
        type Refined = (Vec<f64>, f64, usize);
        let bits = |out: &[Refined]| -> Vec<(Vec<u64>, u64, usize)> {
            out.iter()
                .map(|(z, rel, iters)| {
                    (z.iter().map(|v| v.to_bits()).collect(), rel.to_bits(), *iters)
                })
                .collect()
        };
        for (tag, a) in [
            ("kkt", gen::kkt(200, 90, 7)),
            ("circuit", gen::circuit(300, 21)),
            ("laplacian", gen::laplacian_2d(15, 14)),
        ] {
            let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
            let Factors::Mixed(mx) = &solver.factors else { panic!("{tag}: f32 factors rejected") };
            let m = &reorder_for_lu(&a, FillReducing::Auto).unwrap().matrix;
            assert_eq!(&mx.scaled_a, m, "{tag}: the reordered matrix, moved in");
            // The filled-pattern reference: the scaled input with every
            // fill slot (zero).
            let filled = symbolic_fill(m).unwrap().filled_matrix(m).unwrap();
            assert!(filled.nnz() > m.nnz(), "{tag}: the filled pattern has fill");
            let n = a.nrows();
            let ws: Vec<Vec<f64>> =
                (0..4).map(|seed| gen::test_rhs(n, seed)).chain([vec![1.0; n]]).collect();
            let own = refine_inner(&mx.factored32, &mx.scaled_a, &ws, REFINE_TOL, MAX_REFINE_ITERS);
            let full = refine_inner(&mx.factored32, &filled, &ws, REFINE_TOL, MAX_REFINE_ITERS);
            assert_eq!(bits(&own), bits(&full), "{tag}");
            assert!(own.iter().any(|(_, _, iters)| *iters > 0), "{tag}: refinement ran");
            for w in &ws {
                let t = |m| refine_inner_transpose(&mx.factored32, m, w.clone(), REFINE_TOL, 32);
                assert_eq!(bits(&[t(&mx.scaled_a)]), bits(&[t(&filled)]), "{tag} transpose");
            }
        }
    }

    #[test]
    fn mixed_transpose_solve_refines_to_f64_accuracy() {
        let a = gen::circuit(300, 21);
        let solver = Solver::builder().precision(Precision::MixedF32).build(&a).unwrap();
        assert_eq!(solver.effective_precision(), Precision::MixedF32);
        let x_true = gen::test_rhs(a.nrows(), 17);
        let at = a.transpose();
        let b = pangulu_sparse::ops::spmv(&at, &x_true).unwrap();
        let x = solver.solve_transpose(&b).unwrap();
        assert!(relative_residual(&at, &x, &b).unwrap() < 1e-12, "transpose solve refined");
        let c = solver.precision_counters();
        assert_eq!(c.refined_solves, 1, "transpose solve counted as refined");
        assert!(c.refine_iters >= 1, "refinement iterations folded in");
        // And the condition estimate (one solve + one transpose solve
        // per Hager step) still works in mixed mode.
        let est = solver.condest(&a).unwrap();
        assert!(est.is_finite() && est >= 1.0);
    }

    #[test]
    fn f64_solver_reports_scalar_width_8() {
        let a = gen::laplacian_2d(10, 10);
        let solver = Solver::builder().ranks(2).build(&a).unwrap();
        let report = solver.stats().report.as_ref().expect("multi-rank run report");
        assert_eq!(report.scalar_width, 8);
        assert_eq!(report.precision_fallbacks, 0);
        assert_eq!(solver.precision_counters(), PrecisionCounters::default());
    }
}
