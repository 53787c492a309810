//! The experiment table: every table and figure of the paper's
//! evaluation (§5), plus the extension studies, one function each. A
//! function computes its CSV and returns it; only the `figures` binary
//! writes files (through [`crate::emit_csv`]).

use crate::{Csv, Result};

pub mod fault_study;
pub mod fig03_supernode_sizes;
pub mod fig04_gemm_density;
pub mod fig05_sync_ratio;
pub mod fig07_kernels;
pub mod fig08_calibrate;
pub mod fig08_validate;
pub mod fig11_symbolic;
pub mod fig12_scaling;
pub mod fig13_sync128;
pub mod fig14_ablation;
pub mod fig15_preprocess;
pub mod mapping_study;
pub mod ordering_study;
pub mod table3;
pub mod table4;
pub mod time_breakdown;
pub mod timeline;
pub mod weak_scaling;

/// One entry of the table: the name `figures` selects the experiment by
/// and the function that computes its CSV.
pub struct Experiment {
    /// The selection name (the CSV's file stem may differ).
    pub name: &'static str,
    /// Computes the CSV.
    pub run: fn() -> Result<Csv>,
}

/// Every experiment, in the order `figures` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table3", run: table3::run },
    Experiment { name: "fig03_supernode_sizes", run: fig03_supernode_sizes::run },
    Experiment { name: "fig04_gemm_density", run: fig04_gemm_density::run },
    Experiment { name: "fig05_sync_ratio", run: fig05_sync_ratio::run },
    Experiment { name: "fig07_kernels", run: fig07_kernels::run },
    Experiment { name: "fig08_calibrate", run: fig08_calibrate::run },
    Experiment { name: "fig08_validate", run: fig08_validate::run },
    Experiment { name: "fig11_symbolic", run: fig11_symbolic::run },
    Experiment { name: "fig12_scaling", run: fig12_scaling::run },
    Experiment { name: "fig13_sync128", run: fig13_sync128::run },
    Experiment { name: "fig14_ablation", run: fig14_ablation::run },
    Experiment { name: "fig15_preprocess", run: fig15_preprocess::run },
    Experiment { name: "table4", run: table4::run },
    Experiment { name: "weak_scaling", run: weak_scaling::run },
    Experiment { name: "mapping_study", run: mapping_study::run },
    Experiment { name: "time_breakdown", run: time_breakdown::run },
    Experiment { name: "ordering_study", run: ordering_study::run },
    Experiment { name: "fault_study", run: fault_study::run },
    Experiment { name: "timeline", run: timeline::run },
];
