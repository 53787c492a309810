//! The pipeline driven by hand through each layer's public functions —
//! what `Solver::factor_with` / `refactor` / `solve` do, restated here so
//! the traced run can put a span around every layer call. The glue
//! between layers (scatter, scale, permute, precision casts, the
//! refinement loop) is copied operation for operation from
//! `crates/core/src/solver.rs`; [`Hand::factors_match`] holds the copy to
//! bitwise agreement with the `Solver` on every traced op.

use pangulu_comm::{ProcessGrid, TransportKind};
use pangulu_core::dist::{factor_distributed_cached, FactorConfig, FactorRun, NumericWorkspace};
use pangulu_core::dist_solve::solve_distributed_on;
use pangulu_core::seq::{empty_plans, factor_sequential_planned, NumericStats};
use pangulu_core::task::{TaskGraph, TaskPriorities};
use pangulu_core::trisolve::{backward_substitute, forward_substitute};
use pangulu_core::{BlockMatrix, OwnerMap, Precision, Solver};
use pangulu_kernels::{KernelPlans, KernelSelector, Thresholds};
use pangulu_reorder::{reorder_for_lu, FillReducing, Reordering};
use pangulu_sparse::ops::spmv;
use pangulu_sparse::{CscMatrix, Scalar, SparseError};
use pangulu_symbolic::stats::{stats_from_fill, SymbolicStats};
use pangulu_symbolic::symbolic_fill;

use crate::trace::Tracer;

// The `Solver`'s private constants (solver.rs) and option defaults.
const REFINE_TOL: f64 = 1e-14;
const MAX_REFINE_ITERS: usize = 40;
const PROBE_GATE: f64 = 1e-11;
const PROBE_EVERY: usize = 4;
const PIVOT_FLOOR_REL: f64 = 1e-12;

/// The numeric executor's cached state for scalar type `S`.
enum Exec<S: Scalar> {
    Seq(KernelPlans<S>),
    Dist(Box<NumericWorkspace<S>>),
}

/// What the numeric executor reported for one factorisation.
#[derive(Default)]
pub struct NumericOut {
    pub perturbed: usize,
    pub seq: Option<NumericStats>,
    pub dist: Option<FactorRun>,
}

/// The f32 side of a mixed-precision pipeline (the `Solver`'s `MixedState`).
struct Mixed {
    bm32: BlockMatrix<f32>,
    exec32: Exec<f32>,
    scaled_a: CscMatrix,
    csc_map: Vec<usize>,
    since_probe: usize,
    probed_perturbed: usize,
}

/// Refinement work done so far, as `Solver::precision_counters` counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineCounts {
    pub refine_iters: u64,
    pub refined_solves: u64,
    pub probe_skips: u64,
}

pub struct Hand {
    reordering: Reordering,
    pub sym: SymbolicStats,
    pub bm: BlockMatrix,
    pub tg: TaskGraph,
    pub owners: OwnerMap,
    exec: Option<Exec<f64>>,
    mixed: Option<Mixed>,
    scatter: Option<Vec<(usize, usize)>>,
    /// Executor report of the latest factorisation.
    pub numeric: NumericOut,
    pub refine: RefineCounts,
    /// `FactorConfig::with_metrics` of distributed runs. On, as the
    /// `Solver` has it; the meter-overhead probe switches it off.
    pub meter: bool,
}

fn new_exec<S: Scalar>(bm: &BlockMatrix<S>, tg: &TaskGraph, owners: &OwnerMap) -> Exec<S> {
    if owners.num_ranks() == 1 {
        Exec::Seq(empty_plans(bm, tg))
    } else {
        Exec::Dist(Box::new(NumericWorkspace::new(bm, tg, owners)))
    }
}

fn run_numeric<S: Scalar>(
    bm: &mut BlockMatrix<S>,
    tg: &TaskGraph,
    owners: &OwnerMap,
    selector: &KernelSelector,
    pivot_floor: f64,
    exec: &mut Exec<S>,
    metrics: bool,
) -> Result<NumericOut, String> {
    match exec {
        Exec::Seq(plans) => {
            let ns = factor_sequential_planned(bm, tg, selector, pivot_floor, plans);
            Ok(NumericOut { perturbed: ns.perturbed_pivots, seq: Some(ns), dist: None })
        }
        Exec::Dist(ws) => {
            // What `Solver` passes for default `SolverOptions`.
            let cfg = FactorConfig::default().with_metrics(metrics);
            let run = factor_distributed_cached(bm, tg, owners, selector, pivot_floor, &cfg, ws)
                .map_err(|e| format!("distributed factorisation failed: {e}"))?;
            Ok(NumericOut { perturbed: run.stats.perturbed_pivots, seq: None, dist: Some(run) })
        }
    }
}

fn selector_for(a: &CscMatrix) -> KernelSelector {
    KernelSelector::new(a.nnz(), Thresholds::default())
}

/// `refine_with` of solver.rs with spans around the f32 sweeps and the
/// f64 residual products: returns the solution, the final relative
/// residual and the corrections applied.
fn refine(
    factors32: &BlockMatrix<f32>,
    m: &CscMatrix,
    w: &[f64],
    tr: &mut Tracer,
) -> (Vec<f64>, f64, usize) {
    fn tri32(factors32: &BlockMatrix<f32>, r: &[f64], tr: &mut Tracer) -> Vec<f64> {
        let mut v: Vec<f32> = r.iter().map(|&x| x as f32).collect();
        tr.span("trisolve.forward", || forward_substitute(factors32, &mut v));
        tr.span("trisolve.backward", || backward_substitute(factors32, &mut v));
        v.into_iter().map(f64::from).collect()
    }
    let norm_w = w.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    if norm_w == 0.0 {
        return (vec![0.0; w.len()], 0.0, 0);
    }
    let residual = |z: &[f64], tr: &mut Tracer| -> (Vec<f64>, f64) {
        let mz = tr.span("sparse.spmv", || spmv(m, z)).expect("analysis fixes the dimensions");
        let r: Vec<f64> = w.iter().zip(&mz).map(|(p, q)| p - q).collect();
        let rel = r.iter().fold(0.0f64, |acc, v| acc.max(v.abs())) / norm_w;
        (r, rel)
    };
    let mut z = tri32(factors32, w, tr);
    let (mut r, mut rel) = residual(&z, tr);
    let mut iters = 0usize;
    while rel.is_finite() && rel > REFINE_TOL && iters < MAX_REFINE_ITERS {
        let prev = z.clone();
        let dz = tri32(factors32, &r, tr);
        for (zi, di) in z.iter_mut().zip(&dz) {
            *zi += *di;
        }
        iters += 1;
        let (new_r, new_rel) = residual(&z, tr);
        if new_rel.partial_cmp(&rel) != Some(std::cmp::Ordering::Less) {
            z = prev;
            break;
        }
        r = new_r;
        rel = new_rel;
    }
    (z, rel, iters)
}

impl Hand {
    /// The five-phase pipeline on `a` with default options at `ranks` /
    /// `precision` (`Solver::factor_with`).
    pub fn build(
        a: &CscMatrix,
        ranks: usize,
        precision: Precision,
        tr: &mut Tracer,
    ) -> Result<Hand, String> {
        let n = a.ncols();
        let reordering = tr
            .span("reorder", || reorder_for_lu(a, FillReducing::Auto))
            .map_err(|e| e.to_string())?;

        let (fill, sym) = tr
            .span("symbolic", || {
                let fill = symbolic_fill(&reordering.matrix)?;
                let sym = stats_from_fill(&reordering.matrix, &fill);
                Ok((fill, sym))
            })
            .map_err(|e: SparseError| e.to_string())?;

        let (mut bm, tg, owners) = tr
            .span("preprocess", || {
                let grid = ProcessGrid::new(ranks);
                let nb = BlockMatrix::choose_block_size(n, fill.nnz_lu(), grid.pr().max(grid.pc()));
                let filled = fill.filled_matrix(&reordering.matrix)?;
                let bm = BlockMatrix::from_filled(&filled, nb)?;
                let tg = TaskGraph::build(&bm);
                let owners = OwnerMap::balanced(&bm, grid, &tg);
                Ok((bm, tg, owners))
            })
            .map_err(|e: SparseError| e.to_string())?;

        let selector = selector_for(a);
        let pivot_floor = PIVOT_FLOOR_REL * reordering.matrix.norm_max().max(1.0);
        let mut exec = None;
        let mut mixed = None;
        let numeric = match precision {
            Precision::F64 => {
                let mut e = new_exec(&bm, &tg, &owners);
                let id = tr.begin("numeric.first");
                let out = run_numeric(&mut bm, &tg, &owners, &selector, pivot_floor, &mut e, true);
                tr.end(id);
                exec = Some(e);
                out?
            }
            Precision::MixedF32 => {
                let id = tr.begin("mixed.cast");
                let scaled_a = bm.to_csc();
                let csc_map = bm.csc_value_map(&scaled_a);
                let mut bm32 = bm.cast::<f32>();
                tr.end(id);
                let mut exec32 = new_exec(&bm32, &tg, &owners);
                let id = tr.begin("numeric.first");
                let out =
                    run_numeric(&mut bm32, &tg, &owners, &selector, pivot_floor, &mut exec32, true);
                tr.end(id);
                let out = out?;
                let mut state = Mixed {
                    bm32,
                    exec32,
                    scaled_a,
                    csc_map,
                    since_probe: 0,
                    probed_perturbed: out.perturbed,
                };
                if !state.probe(tr) {
                    return Err("mixed probe fell back to f64; the replay covers the \
                                accepted-f32 path only"
                        .into());
                }
                bm = tr.span("mixed.cast", || state.bm32.cast::<f64>());
                mixed = Some(state);
                out
            }
        };
        if ranks == 1 {
            // The analysis cache of a sequential solver computes these once.
            std::hint::black_box(TaskPriorities::compute(&bm, &tg));
        }
        Ok(Hand {
            reordering,
            sym,
            bm,
            tg,
            owners,
            exec,
            mixed,
            scatter: None,
            numeric,
            refine: RefineCounts::default(),
            meter: true,
        })
    }

    /// Resets the factor storage to the scaled, permuted `a` (fill slots
    /// zero) through the lazily built scatter map; returns `max |entry|`.
    fn scatter_values(&mut self, a: &CscMatrix) -> Result<f64, String> {
        let n = a.ncols();
        let (col_ptr, row_idx, vals) = (a.col_ptr(), a.row_idx(), a.values());
        if self.scatter.is_none() {
            let r = &self.reordering;
            let (row_inv, col_inv) = (r.row_perm.inverse(), r.col_perm.inverse());
            let nb = self.bm.nb();
            let mut map = Vec::with_capacity(row_idx.len());
            for j in 0..n {
                let new_c = col_inv.old_of(j);
                let (bj, lj) = (new_c / nb, new_c % nb);
                for &row in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
                    let new_r = row_inv.old_of(row);
                    let (bi, li) = (new_r / nb, new_r % nb);
                    let slot = self
                        .bm
                        .block_id(bi, bj)
                        .and_then(|id| self.bm.block(id).find(li, lj).map(|idx| (id, idx)))
                        .ok_or("input entry outside the analysed fill pattern")?;
                    map.push(slot);
                }
            }
            self.scatter = Some(map);
        }
        for id in 0..self.bm.num_blocks() {
            self.bm.block_mut(id).values_mut().fill(0.0);
        }
        let scatter = self.scatter.as_ref().expect("scatter map built above");
        let r = &self.reordering;
        let mut norm = 0.0f64;
        for j in 0..n {
            let cj = r.col_scale[j];
            for k in col_ptr[j]..col_ptr[j + 1] {
                let scaled = vals[k] * r.row_scale[row_idx[k]] * cj;
                norm = norm.max(scaled.abs());
                let (id, idx) = scatter[k];
                self.bm.block_mut(id).values_mut()[idx] = scaled;
            }
        }
        Ok(norm)
    }

    /// Numeric-only refactorisation on the same pattern (`Solver::refactor`).
    pub fn refactor(&mut self, a: &CscMatrix, tr: &mut Tracer) -> Result<(), String> {
        let id = tr.begin("solver.scatter");
        let norm = self.scatter_values(a);
        tr.end(id);
        let norm = norm?;

        let selector = selector_for(a);
        let pivot_floor = PIVOT_FLOOR_REL * norm.max(1.0);
        if let Some(mx) = self.mixed.as_mut() {
            let id = tr.begin("mixed.cast");
            for id in 0..self.bm.num_blocks() {
                let src = self.bm.block(id).values();
                for (d, v) in mx.bm32.block_mut(id).values_mut().iter_mut().zip(src) {
                    *d = *v as f32;
                }
            }
            self.bm.write_csc_values(&mx.csc_map, &mut mx.scaled_a);
            tr.end(id);
            let id = tr.begin("numeric.steady");
            let out = run_numeric(
                &mut mx.bm32,
                &self.tg,
                &self.owners,
                &selector,
                pivot_floor,
                &mut mx.exec32,
                self.meter,
            );
            tr.end(id);
            self.numeric = out?;
            let cadence_due = mx.since_probe + 1 >= PROBE_EVERY;
            let drifted = self.numeric.perturbed != mx.probed_perturbed;
            if cadence_due || drifted {
                mx.probed_perturbed = self.numeric.perturbed;
                mx.since_probe = 0;
                if !mx.probe(tr) {
                    return Err("mixed probe fell back to f64 on a refactorisation".into());
                }
            } else {
                mx.since_probe += 1;
                self.refine.probe_skips += 1;
            }
            let id = tr.begin("mixed.cast");
            for id in 0..self.bm.num_blocks() {
                let src = mx.bm32.block(id).values();
                for (d, v) in self.bm.block_mut(id).values_mut().iter_mut().zip(src) {
                    *d = f64::from(*v);
                }
            }
            tr.end(id);
        } else {
            let exec = self.exec.as_mut().expect("f64 pipelines keep an f64 executor");
            let id = tr.begin("numeric.steady");
            let out = run_numeric(
                &mut self.bm,
                &self.tg,
                &self.owners,
                &selector,
                pivot_floor,
                exec,
                self.meter,
            );
            tr.end(id);
            self.numeric = out?;
        }
        Ok(())
    }

    /// `Solver::solve`: scale and permute, triangular solves, undo.
    pub fn solve(&mut self, b: &[f64], tr: &mut Tracer) -> Result<Vec<f64>, String> {
        if b.len() != self.bm.n() {
            return Err(format!("rhs length {} vs matrix order {}", b.len(), self.bm.n()));
        }
        let id = tr.begin("solve");
        let r = &self.reordering;
        let scaled: Vec<f64> = b.iter().zip(&r.row_scale).map(|(v, d)| v * d).collect();
        let w = r.row_perm.apply_vec(&scaled);
        let z = if let Some(mx) = &self.mixed {
            let (z, _rel, iters) = refine(&mx.bm32, &mx.scaled_a, &w, tr);
            self.refine.refine_iters += iters as u64;
            self.refine.refined_solves += 1;
            z
        } else if self.owners.num_ranks() > 1 {
            tr.span("dist_solve", || {
                solve_distributed_on(&self.bm, &self.owners, &w, TransportKind::default(), None)
            })
        } else {
            let mut z = w;
            tr.span("trisolve.forward", || forward_substitute(&self.bm, &mut z));
            tr.span("trisolve.backward", || backward_substitute(&self.bm, &mut z));
            z
        };
        let y = r.col_perm.apply_inv_vec(&z);
        let x = y.iter().zip(&r.col_scale).map(|(v, d)| v * d).collect();
        tr.end(id);
        Ok(x)
    }

    /// The live f32 factors of a mixed pipeline.
    pub fn factors32(&self) -> Option<&BlockMatrix<f32>> {
        self.mixed.as_ref().map(|mx| &mx.bm32)
    }

    /// Bitwise comparison of every factor block (and the f32 twins of a
    /// mixed pipeline) with the `Solver`'s.
    pub fn factors_match(&self, solver: &Solver) -> bool {
        fn same<S: Scalar>(
            a: &BlockMatrix<S>,
            b: &BlockMatrix<S>,
            bits: impl Fn(S) -> u64,
        ) -> bool {
            a.nb() == b.nb()
                && a.num_blocks() == b.num_blocks()
                && (0..a.num_blocks()).all(|id| {
                    let (x, y) = (a.block(id).values(), b.block(id).values());
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bits(*p) == bits(*q))
                })
        }
        let f64_ok = same(&self.bm, solver.factored(), f64::to_bits);
        let f32_ok = match (&self.mixed, solver.factored32()) {
            (None, None) => true,
            (Some(mx), Some(theirs)) => same(&mx.bm32, theirs, |v: f32| u64::from(v.to_bits())),
            _ => false,
        };
        f64_ok && f32_ok
    }
}

impl Mixed {
    /// The factor-time acceptance probe: one refinement solve against
    /// all-ones in the inner domain. `false` means the `Solver` would
    /// fall back to f64.
    fn probe(&mut self, tr: &mut Tracer) -> bool {
        let id = tr.begin("refine.probe");
        let ones = vec![1.0f64; self.scaled_a.ncols()];
        let (_, rel, _) = refine(&self.bm32, &self.scaled_a, &ones, tr);
        tr.end(id);
        rel.is_finite() && rel <= PROBE_GATE
    }
}
