//! Smoke test: every experiment of the `figures` table runs in process on
//! a restricted matrix set, and its CSV carries the committed file's
//! header and the row count that set gives.

use std::path::Path;

use pangulu_bench::experiments::EXPERIMENTS;

/// Data rows of each experiment's CSV on `ecology1,ASIC_680k`, in table
/// order. Experiments with a matrix list of their own (fig03, fig04,
/// fig05, fig08, mapping, weak scaling, timeline) give their full count.
const ROWS: [(&str, usize); 19] = [
    ("table3", 2),
    ("fig03_supernode_sizes", 24),
    ("fig04_gemm_density", 32),
    ("fig05_sync_ratio", 42),
    ("fig07_kernels", 4901),
    ("fig08_calibrate", 13),
    ("fig08_validate", 4),
    ("fig11_symbolic", 3),
    ("fig12_scaling", 32),
    ("fig13_sync128", 3),
    ("fig14_ablation", 2),
    ("fig15_preprocess", 2),
    ("table4", 3),
    ("weak_scaling", 4),
    ("mapping_study", 24),
    ("time_breakdown", 2),
    ("ordering_study", 2),
    ("fault_study", 5),
    ("timeline", 1223),
];

#[test]
fn every_experiment_runs_on_a_restricted_suite() {
    // The only test in this binary, so no other thread reads these.
    std::env::set_var("PANGULU_MATRICES", "ecology1,ASIC_680k");
    std::env::set_var("PANGULU_SCALE", "1");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names, ROWS.map(|(name, _)| name), "the table and ROWS list the same experiments");
    for (e, (_, rows)) in EXPERIMENTS.iter().zip(ROWS) {
        let csv = (e.run)().unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let path = data.join(format!("{}.csv", csv.file));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        assert_eq!(Some(csv.header.as_str()), committed.lines().next(), "{}: header", e.name);
        assert_eq!(csv.rows.len(), rows, "{}: data rows", e.name);
    }
}
