//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the paper's evaluation (see `DESIGN.md`, experiment
//! index, and `EXPERIMENTS.md` for recorded results).
//!
//! Conventions:
//! * every binary prints a CSV table to stdout **and** writes it under
//!   `data/` (like the artifact's `figureX.sh` scripts);
//! * the matrix suite is the 16 SuiteSparse analogs of
//!   [`pangulu_sparse::gen::PAPER_MATRICES`], scaled by the
//!   `PANGULU_SCALE` environment variable (default 1);
//! * `PANGULU_MATRICES=a,b,c` restricts a run to a subset.

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

use pangulu_comm::cost::KernelCostClass;
use pangulu_comm::ProcessGrid;
use pangulu_core::block::BlockMatrix;
use pangulu_core::des::{SimDep, SimTask};
use pangulu_core::layout::OwnerMap;
use pangulu_core::task::TaskGraph;
use pangulu_sparse::gen::{paper_matrix, PAPER_MATRICES};
use pangulu_sparse::CscMatrix;
use pangulu_supernodal::dag::{SnTask, SnTaskKind};

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

/// Writes a CSV both to stdout and `data/<name>.csv`.
pub fn emit_csv(name: &str, header: &str, rows: &[String]) {
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    let dir = data_dir();
    std::fs::create_dir_all(&dir).expect("create data dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    eprintln!("[written] {}", path.display());
}

/// The output directory: `PANGULU_DATA_DIR` if set (the smoke tests use
/// a scratch directory so restricted runs never clobber the committed
/// CSVs), else `data/` beside the workspace root.
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

/// Duration in fractional seconds (for CSV cells).
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A prepared PanguLU factorisation input: reordered matrix, filled
/// pattern cut into blocks, task graph and owner map.
pub struct Prepared {
    /// The original matrix.
    pub a: CscMatrix,
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
pub fn prepare(a: &CscMatrix, ranks: usize) -> Prepared {
    let r = pangulu_reorder::reorder_for_lu(a, pangulu_reorder::FillReducing::NestedDissection)
        .expect("reorder");
    let fill = pangulu_symbolic::symbolic_fill(&r.matrix).expect("symbolic");
    let stats = pangulu_symbolic::stats::stats_from_fill(&r.matrix, &fill);
    let grid = ProcessGrid::new(ranks);
    let nb = BlockMatrix::choose_block_size(a.ncols(), fill.nnz_lu(), grid.pr().max(grid.pc()));
    let filled = fill.filled_matrix(&r.matrix).expect("filled matrix");
    let bm = BlockMatrix::from_filled(&filled, nb).expect("blocking");
    let tg = TaskGraph::build(&bm);
    Prepared { a: a.clone(), reordered: r.matrix, bm, tg, flops: stats.flops, nnz_lu: stats.nnz_lu }
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
pub fn prepare_supernodal(reordered: &CscMatrix) -> SupernodalPrepared {
    let fill = pangulu_symbolic::symbolic_fill(reordered).expect("symbolic");
    let filled = fill.filled_matrix(reordered).expect("filled");
    let part = pangulu_supernodal::supernode::detect(
        &fill,
        pangulu_supernodal::supernode::SupernodeOptions::default(),
    );
    let sbm = pangulu_supernodal::SnBlockMatrix::from_filled(&filled, part).expect("blocked");
    let levels = pangulu_supernodal::dag::supernode_levels(&fill, &sbm);
    let dag = pangulu_supernodal::dag::build_dag(&sbm, &levels);
    let dense_flops = dag.iter().map(|t| t.flops).sum();
    SupernodalPrepared { sbm, dag, dense_flops }
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
        let prep = prepare(&a, 4);
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
        let sp = prepare_supernodal(&r.matrix);
        let prof = pangulu_comm::PlatformProfile::a100_like();
        let sim = supernodal_sim_tasks(&sp.dag, 4, &prof);
        assert_eq!(sim.len(), sp.dag.len());
        assert!(sp.dense_flops > 0.0);
    }
}

pub mod kernel_timing;
