//! Shared harness for the experiments that regenerate every table and
//! figure of the paper's evaluation (see `DESIGN.md`, experiment index,
//! and `EXPERIMENTS.md` for recorded results). The `figures` binary runs
//! the table in [`experiments::EXPERIMENTS`].
//!
//! Conventions:
//! * every experiment returns one CSV table, which `figures` prints to
//!   stdout **and** writes under `data/` (like the artifact's
//!   `figureX.sh` scripts);
//! * the matrix suite is the 16 SuiteSparse analogs of
//!   [`pangulu_sparse::gen::PAPER_MATRICES`], scaled by the
//!   `PANGULU_SCALE` environment variable (default 1);
//! * `PANGULU_MATRICES=a,b,c` restricts a run to a subset.

use std::path::PathBuf;

use pangulu_comm::cost::KernelCostClass;
use pangulu_comm::ProcessGrid;
use pangulu_core::block::BlockMatrix;
use pangulu_core::des::{SimDep, SimTask};
use pangulu_core::layout::OwnerMap;
use pangulu_core::task::TaskGraph;
use pangulu_sparse::gen::{paper_matrix, PAPER_MATRICES};
use pangulu_sparse::CscMatrix;
use pangulu_supernodal::dag::{SnTask, SnTaskKind};
use pangulu_symbolic::FilledPattern;

/// The matrix scale factor from `PANGULU_SCALE`.
pub fn scale() -> usize {
    std::env::var("PANGULU_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// The selected matrix names (all 16 by default).
pub fn suite() -> Vec<&'static str> {
    let all: Vec<&'static str> = PAPER_MATRICES.iter().map(|m| m.name).collect();
    match std::env::var("PANGULU_MATRICES") {
        Ok(list) => {
            let wanted: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            all.into_iter().filter(|n| wanted.iter().any(|w| w == n)).collect()
        }
        Err(_) => all,
    }
}

/// Generates one suite matrix at the configured scale.
pub fn load(name: &str) -> CscMatrix {
    paper_matrix(name, scale())
}

/// What an experiment can fail with: a solver error or a message.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One experiment's output: the CSV table `data/<file>.csv`.
pub struct Csv {
    /// File stem under `data/`.
    pub file: &'static str,
    /// Comma-separated column names.
    pub header: String,
    /// Comma-separated rows, in output order.
    pub rows: Vec<String>,
}

impl Csv {
    /// The table `file` with `header` over `rows`.
    pub fn new(file: &'static str, header: &str, rows: Vec<String>) -> Self {
        Csv { file, header: header.to_string(), rows }
    }
}

/// Writes a CSV both to stdout and `data/<name>.csv`.
pub fn emit_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let text = format!("{header}\n{}", rows.iter().map(|r| format!("{r}\n")).collect::<String>());
    print!("{text}");
    let dir = data_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, text)?;
    eprintln!("[written] {}", path.display());
    Ok(())
}

/// The output directory: `PANGULU_DATA_DIR` if set (the CI gate writes
/// to a scratch directory and compares it with the committed CSVs), else
/// `data/` beside the workspace root.
fn data_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("PANGULU_DATA_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("data")
}

/// A prepared PanguLU factorisation input: reordered matrix, filled
/// pattern cut into blocks, task graph and owner map.
pub struct Prepared {
    /// The reordered/scaled matrix.
    pub reordered: CscMatrix,
    /// The blocked filled pattern (values = A + zero fill).
    pub bm: BlockMatrix,
    /// The task graph over the blocks.
    pub tg: TaskGraph,
    /// Sparse-LU FLOPs (Table 3).
    pub flops: f64,
    /// nnz(L+U).
    pub nnz_lu: usize,
}

/// Runs reordering + symbolic + blocking for `ranks` ranks.
///
/// Uses nested dissection — the paper's configuration (PanguLU calls
/// METIS unconditionally). The library's `Auto` default instead
/// minimises fill, which on the dense-banded matrices picks band-
/// preserving orders whose block DAGs are nearly sequential: best for a
/// single device, fatal for scaling. `ordering_study.csv` quantifies
/// the fill side of that trade.
///
/// The blocks come from the solver's tiler ([`tile`]).
pub fn prepare(a: &CscMatrix, ranks: usize) -> Result<Prepared> {
    let r = pangulu_reorder::reorder_for_lu(a, pangulu_reorder::FillReducing::NestedDissection)?;
    let fill = pangulu_symbolic::symbolic_fill(&r.matrix)?;
    let stats = pangulu_symbolic::stats::stats_from_fill(&r.matrix, &fill);
    let grid = ProcessGrid::new(ranks);
    let nb = BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), grid.pr().max(grid.pc()));
    let bm = tile(fill, &r.matrix, nb)?;
    let tg = TaskGraph::build(&bm);
    let (flops, nnz_lu) = (stats.flops, stats.nnz_lu);
    Ok(Prepared { reordered: r.matrix, bm, tg, flops, nnz_lu })
}

/// Tiles as the solver does: the fill pattern is cut value-less
/// ([`BlockMatrix::from_fill`]) into `nb`-sized blocks and the reordered
/// matrix's values are loaded into it; fill slots stay zero.
pub fn tile(fill: FilledPattern, reordered: &CscMatrix, nb: usize) -> Result<BlockMatrix> {
    let mut bm = BlockMatrix::from_fill(fill, nb)?;
    let values = reordered.values();
    bm.for_each_slot(reordered, |i| i, |j| j, |k, _, _, v| *v = values[k])?;
    Ok(bm)
}

/// Balanced owner map for `p` ranks over a prepared input.
pub fn owners_for(prep: &Prepared, p: usize) -> OwnerMap {
    OwnerMap::balanced(&prep.bm, ProcessGrid::new(p), &prep.tg)
}

/// Maps the supernodal baseline's DAG onto the generic DES task type with
/// a 2-D block-cyclic rank assignment over supernode coordinates (as
/// SuperLU_DIST distributes supernode blocks).
pub fn supernodal_sim_tasks(
    tasks: &[SnTask],
    p: usize,
    profile: &pangulu_comm::PlatformProfile,
) -> Vec<SimTask> {
    let grid = ProcessGrid::new(p);
    tasks
        .iter()
        .map(|t| {
            let (si, sj) = t.coords;
            let class = match t.kind {
                SnTaskKind::Factor => KernelCostClass::Getrf,
                SnTaskKind::Trsm => KernelCostClass::Trsm,
                SnTaskKind::Gemm => KernelCostClass::DenseGemm,
            };
            SimTask {
                rank: grid.owner(si, sj),
                class,
                flops: t.flops,
                extra_cost: profile.gather_scatter_cost(t.gather_bytes),
                step: t.level,
                deps: t
                    .deps
                    .iter()
                    .map(|&d| SimDep { task: d, bytes: tasks[d].payload_bytes })
                    .collect(),
            }
        })
        .collect()
}

/// The supernodal baseline's preprocessing output for the DES figures.
pub struct SupernodalPrepared {
    /// The blocked dense structure.
    pub sbm: pangulu_supernodal::SnBlockMatrix,
    /// The baseline DAG.
    pub dag: Vec<SnTask>,
    /// Dense FLOPs of the DAG (padding included).
    pub dense_flops: f64,
}

/// Runs the baseline's preprocessing on an already reordered matrix.
pub fn prepare_supernodal(reordered: &CscMatrix) -> Result<SupernodalPrepared> {
    let fill = pangulu_symbolic::symbolic_fill(reordered)?;
    let filled = fill.filled_matrix(reordered)?;
    let part = pangulu_supernodal::supernode::detect(
        &fill,
        pangulu_supernodal::supernode::SupernodeOptions::default(),
    );
    let sbm = pangulu_supernodal::SnBlockMatrix::from_filled(&filled, part)?;
    let levels = pangulu_supernodal::dag::supernode_levels(&fill, &sbm);
    let dag = pangulu_supernodal::dag::build_dag(&sbm, &levels);
    let dense_flops = dag.iter().map(|t| t.flops).sum();
    Ok(SupernodalPrepared { sbm, dag, dense_flops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_16_matrices_by_default() {
        if std::env::var("PANGULU_MATRICES").is_err() {
            assert_eq!(suite().len(), 16);
        }
    }

    #[test]
    fn prepare_small_matrix_works() {
        let a = pangulu_sparse::gen::laplacian_2d(12, 12);
        let prep = prepare(&a, 4).unwrap();
        assert!(prep.flops > 0.0);
        assert!(prep.nnz_lu >= a.nnz());
        assert_eq!(prep.bm.n(), 144);
        let owners = owners_for(&prep, 4);
        assert_eq!(owners.num_ranks(), 4);
    }

    #[test]
    fn supernodal_sim_tasks_preserve_count() {
        let a = pangulu_sparse::gen::circuit(150, 3);
        let r = pangulu_reorder::reorder_for_lu(&a, pangulu_reorder::FillReducing::Amd).unwrap();
        let sp = prepare_supernodal(&r.matrix).unwrap();
        let prof = pangulu_comm::PlatformProfile::a100_like();
        let sim = supernodal_sim_tasks(&sp.dag, 4, &prof);
        assert_eq!(sim.len(), sp.dag.len());
        assert!(sp.dense_flops > 0.0);
    }
}

pub mod experiments;
pub mod kernel_timing;
