//! Shared wire-model fixture: the two factorisation problems, the grid
//! shapes, and the per-edge message/byte table captured from the
//! pre-Arc-fan-out implementation. Used by `tests/wire_model.rs` (the
//! accounting-invariance guard).
//!
//! Included via `#[path]`, so keep everything `pub` and side-effect
//! free.

use pangulu::comm::ProcessGrid;
use pangulu::core::dist::{factor_distributed_checked, FactorConfig};
use pangulu::core::layout::OwnerMap;
use pangulu::core::task::TaskGraph;
use pangulu::core::BlockMatrix;
use pangulu::kernels::select::{KernelSelector, Thresholds};
use pangulu::metrics::RunReport;
use pangulu::sparse::gen;
use pangulu::sparse::ops::ensure_diagonal;

/// `(seed, grid, from, to, msgs, bytes)` for every non-empty edge of the
/// two fixture problems on each grid shape, captured from the
/// implementation that built one payload `Vec` per destination. The Arc
/// fan-out must reproduce these numbers exactly.
pub const EXPECTED_EDGES: &[(u64, &str, usize, usize, u64, u64)] = &[
    (41, "2x2", 0, 1, 15, 9480),
    (41, "2x2", 0, 2, 15, 9480),
    (41, "2x2", 1, 0, 10, 7776),
    (41, "2x2", 1, 3, 15, 8056),
    (41, "2x2", 2, 0, 10, 7776),
    (41, "2x2", 2, 3, 15, 8056),
    (41, "2x2", 3, 1, 14, 9536),
    (41, "2x2", 3, 2, 14, 9536),
    (41, "1x4", 0, 1, 16, 6960),
    (41, "1x4", 0, 2, 16, 6960),
    (41, "1x4", 0, 3, 24, 12848),
    (41, "1x4", 1, 0, 16, 10584),
    (41, "1x4", 1, 2, 20, 13736),
    (41, "1x4", 1, 3, 22, 14752),
    (41, "1x4", 2, 0, 11, 7784),
    (41, "1x4", 2, 1, 19, 13392),
    (41, "1x4", 2, 3, 14, 9976),
    (41, "1x4", 3, 0, 16, 10320),
    (41, "1x4", 3, 1, 23, 15096),
    (41, "1x4", 3, 2, 24, 15920),
    (41, "4x1", 0, 1, 16, 6960),
    (41, "4x1", 0, 2, 16, 6960),
    (41, "4x1", 0, 3, 24, 12848),
    (41, "4x1", 1, 0, 16, 10584),
    (41, "4x1", 1, 2, 20, 13736),
    (41, "4x1", 1, 3, 22, 14752),
    (41, "4x1", 2, 0, 11, 7784),
    (41, "4x1", 2, 1, 19, 13392),
    (41, "4x1", 2, 3, 14, 9976),
    (41, "4x1", 3, 0, 16, 10320),
    (41, "4x1", 3, 1, 23, 15096),
    (41, "4x1", 3, 2, 24, 15920),
    (42, "2x2", 0, 1, 14, 7040),
    (42, "2x2", 0, 2, 14, 7040),
    (42, "2x2", 0, 3, 8, 4048),
    (42, "2x2", 1, 0, 9, 5304),
    (42, "2x2", 1, 3, 14, 7448),
    (42, "2x2", 2, 0, 9, 5304),
    (42, "2x2", 2, 3, 14, 7448),
    (42, "2x2", 3, 1, 10, 6088),
    (42, "2x2", 3, 2, 10, 6088),
    (42, "1x4", 0, 1, 14, 5600),
    (42, "1x4", 0, 2, 13, 4928),
    (42, "1x4", 0, 3, 22, 9936),
    (42, "1x4", 1, 0, 9, 5976),
    (42, "1x4", 1, 2, 14, 8616),
    (42, "1x4", 1, 3, 17, 10240),
    (42, "1x4", 2, 0, 7, 4632),
    (42, "1x4", 2, 1, 14, 8272),
    (42, "1x4", 2, 3, 11, 6808),
    (42, "1x4", 3, 0, 11, 6160),
    (42, "1x4", 3, 1, 18, 9840),
    (42, "1x4", 3, 2, 19, 10512),
    (42, "4x1", 0, 1, 14, 5600),
    (42, "4x1", 0, 2, 13, 4928),
    (42, "4x1", 0, 3, 22, 9936),
    (42, "4x1", 1, 0, 9, 5976),
    (42, "4x1", 1, 2, 14, 8616),
    (42, "4x1", 1, 3, 17, 10240),
    (42, "4x1", 2, 0, 7, 4632),
    (42, "4x1", 2, 1, 14, 8272),
    (42, "4x1", 2, 3, 11, 6808),
    (42, "4x1", 3, 0, 11, 6160),
    (42, "4x1", 3, 1, 18, 9840),
    (42, "4x1", 3, 2, 19, 10512),
];

/// The fixture problems: `(seed, n, nb)`.
pub const PROBLEMS: [(u64, usize, usize); 2] = [(41, 96, 10), (42, 80, 9)];

/// The fixture grid shapes.
pub const GRIDS: [(usize, usize); 3] = [(2, 2), (1, 4), (4, 1)];

pub struct Problem {
    pub bm: BlockMatrix,
    pub tg: TaskGraph,
    pub sel: KernelSelector,
}

/// Builds one fixture problem.
pub fn problem(seed: u64, n: usize, nb: usize) -> Problem {
    let a = ensure_diagonal(&gen::random_sparse(n, 0.10, seed)).unwrap();
    let f = pangulu::symbolic::symbolic_fill(&a).unwrap().filled_matrix(&a).unwrap();
    let bm = BlockMatrix::from_filled(&f, nb).unwrap();
    let tg = TaskGraph::build(&bm);
    let sel = KernelSelector::new(a.nnz(), Thresholds::default());
    Problem { bm, tg, sel }
}

/// Factors a fixture problem on a `pr x pc` grid and returns the report.
pub fn factor(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> RunReport {
    let mut bm = prob.bm.clone();
    let owners = OwnerMap::balanced(&bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg)
        .unwrap_or_else(|e| panic!("{pr}x{pc}: {e}"))
        .report
}

/// As [`factor`], but running the numeric phase in f32. The owner map
/// comes from the f64 pattern (layout is value-free, so it is identical).
pub fn factor32(prob: &Problem, pr: usize, pc: usize, cfg: &FactorConfig) -> RunReport {
    let mut bm = prob.bm.cast::<f32>();
    let owners = OwnerMap::balanced(&prob.bm, ProcessGrid::with_shape(pr, pc), &prob.tg);
    factor_distributed_checked(&mut bm, &prob.tg, &owners, &prob.sel, 1e-12, cfg)
        .unwrap_or_else(|e| panic!("{pr}x{pc} f32: {e}"))
        .report
}

/// The expected `(from, to, msgs, bytes)` rows for one problem/grid.
pub fn expected_edges(seed: u64, grid: &str) -> Vec<(usize, usize, u64, u64)> {
    EXPECTED_EDGES
        .iter()
        .filter(|&&(s, g, ..)| s == seed && g == grid)
        .map(|&(_, _, from, to, msgs, bytes)| (from, to, msgs, bytes))
        .collect()
}

/// The observed `(from, to, msgs, bytes)` rows of a report, sorted.
pub fn observed_edges(report: &RunReport) -> Vec<(usize, usize, u64, u64)> {
    let mut observed: Vec<(usize, usize, u64, u64)> = report
        .per_rank
        .iter()
        .flat_map(|r| r.comm.edges.iter().map(move |e| (r.rank, e.to, e.msgs, e.bytes)))
        .filter(|&(_, _, msgs, _)| msgs > 0)
        .collect();
    observed.sort_unstable();
    observed
}
