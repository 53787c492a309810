//! Figure 4: density of the blocks involved in the supernodal baseline's
//! GEMMs (motivation §3.2) — `CoupCons3D` spreads across the range,
//! `ASIC_680k` concentrates at the sparse end, `audikw_1` at the dense
//! end. Sparse operands are where dense BLAS wastes its FLOPs.
//!
//! The last two columns put this repo's two SSSSM lanes on the same axis:
//! model GFLOP/s of the sparse lane (`C_V1`) and of the dense-tile lane
//! (`D_V1`) on synthetic 119-wide updates with a full target and operands
//! at the bin's mid density — a property of the bin and this host, so it
//! repeats on every matrix's row. The dense-tile lane takes an update
//! from `TILE_MIN_FILL` of the padded FLOPs up (operands ≈ 70 % dense).

use pangulu_bench::kernel_timing::lane_gflops;
use pangulu_supernodal::stats::gemm_density_histogram;

/// Block size of the benchmark's kkt workloads.
const LANE_NB: usize = 119;

fn main() {
    let lanes: Vec<(f64, f64)> =
        (0..10).map(|bin| lane_gflops(LANE_NB, 0.05 + 0.1 * bin as f64, bin as u64)).collect();
    let mut rows = Vec::new();
    for name in ["CoupCons3D", "ASIC_680k", "audikw_1"] {
        let a = pangulu_bench::load(name);
        let prep = pangulu_bench::prepare(&a, 1);
        let sn = pangulu_bench::prepare_supernodal(&prep.reordered);
        let h = gemm_density_histogram(&sn.sbm);
        for (bin, (sparse, tile)) in lanes.iter().enumerate() {
            rows.push(format!(
                "{name},{}-{}%,{:.2},{:.2},{:.2},{sparse:.2},{tile:.2}",
                bin * 10,
                bin * 10 + 10,
                h.a[bin],
                h.b[bin],
                h.c[bin],
            ));
        }
        eprintln!("[fig04] {name}: {} gemms", h.gemms);
    }
    pangulu_bench::emit_csv(
        "fig04_gemm_density",
        "matrix,density_bin,pct_A,pct_B,pct_C,gflops_sparse_lane,gflops_tile_lane",
        &rows,
    );
}
