//! Compute and communication cost model — the platform profiles of the
//! discrete-event scalability simulator.
//!
//! The paper's scaling experiments (Figs. 5, 12, 13, 14) ran on two
//! 32-node clusters: NVIDIA A100s and AMD MI50s, four GPUs per node,
//! 100G interconnect. With no GPUs here, those runs are replayed by a
//! discrete-event simulation of the *real* per-matrix task DAG under this
//! cost model:
//!
//! * a kernel costs `launch_overhead + flops / rate(class)`, with
//!   per-class effective rates reflecting how well each kernel class
//!   exploits a GPU (SSSSM streams well; GETRF is latency-bound);
//! * a message costs `latency + bytes / bandwidth`, with node-local
//!   transfers (4 ranks per node) getting the faster intra-node path;
//! * the supernodal baseline pays dense-BLAS rates on padded panels plus
//!   an explicit gather/scatter memory cost per Schur update (§5.4).
//!
//! Absolute numbers are rough public figures; the experiments depend on
//! their *ratios* (the paper's claims are all comparative).

/// Per-kernel-class effective throughput and fixed launch overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformProfile {
    /// Human-readable name ("A100-class", "MI50-class").
    pub name: &'static str,
    /// Effective sparse GETRF rate (flop/s). Latency-bound on GPUs.
    pub getrf_rate: f64,
    /// Effective sparse triangular-solve rate (flop/s).
    pub trsm_rate: f64,
    /// Effective sparse SSSSM rate (flop/s).
    pub ssssm_rate: f64,
    /// Dense GEMM rate for the supernodal baseline (flop/s).
    pub dense_gemm_rate: f64,
    /// Memory bandwidth used by the baseline's gather/scatter (bytes/s).
    pub mem_bandwidth: f64,
    /// Kernel launch overhead (s).
    pub launch_overhead: f64,
    /// Network latency between nodes (s).
    pub net_latency: f64,
    /// Network bandwidth between nodes (bytes/s).
    pub net_bandwidth: f64,
    /// Intra-node latency (s); four ranks share a node.
    pub local_latency: f64,
    /// Intra-node bandwidth (bytes/s).
    pub local_bandwidth: f64,
    /// Ranks per node (the paper uses 4 everywhere).
    pub ranks_per_node: usize,
}

impl PlatformProfile {
    /// An NVIDIA A100-class node (40 GB, 1555 GB/s HBM, 100G NICs).
    pub fn a100_like() -> Self {
        PlatformProfile {
            name: "A100-class",
            getrf_rate: 6.0e9,
            trsm_rate: 2.0e10,
            ssssm_rate: 8.0e10,
            dense_gemm_rate: 4.0e12,
            mem_bandwidth: 1.555e12,
            launch_overhead: 8.0e-6,
            net_latency: 4.0e-6,
            net_bandwidth: 1.2e10,
            local_latency: 1.0e-6,
            local_bandwidth: 8.0e10,
            ranks_per_node: 4,
        }
    }

    /// An AMD MI50-class node (16 GB, 1024 GB/s HBM, 100G NICs). Roughly
    /// 0.55x the A100's effective throughput, slightly higher launch
    /// overhead — which is why the paper sees *larger relative* speedups
    /// (baseline suffers more) and better relative scaling on MI50.
    pub fn mi50_like() -> Self {
        PlatformProfile {
            name: "MI50-class",
            getrf_rate: 3.2e9,
            trsm_rate: 1.1e10,
            ssssm_rate: 4.4e10,
            dense_gemm_rate: 1.8e12,
            mem_bandwidth: 1.024e12,
            launch_overhead: 1.2e-5,
            net_latency: 4.0e-6,
            net_bandwidth: 1.2e10,
            local_latency: 1.0e-6,
            local_bandwidth: 6.0e10,
            ranks_per_node: 4,
        }
    }

    /// Cost of one sparse kernel of the given class and FLOP count.
    pub fn kernel_cost(&self, class: KernelCostClass, flops: f64) -> f64 {
        let rate = match class {
            KernelCostClass::Getrf => self.getrf_rate,
            KernelCostClass::Trsm => self.trsm_rate,
            KernelCostClass::Ssssm => self.ssssm_rate,
            KernelCostClass::DenseGemm => self.dense_gemm_rate,
        };
        self.launch_overhead + flops / rate
    }

    /// Cost of moving `bytes` between ranks `from` and `to` (intra-node
    /// transfers take the fast path).
    pub fn message_cost(&self, from: usize, to: usize, bytes: usize) -> f64 {
        if from == to {
            return 0.0;
        }
        let same_node = from / self.ranks_per_node == to / self.ranks_per_node;
        if same_node {
            self.local_latency + bytes as f64 / self.local_bandwidth
        } else {
            self.net_latency + bytes as f64 / self.net_bandwidth
        }
    }

    /// Gather/scatter memory traffic cost for the supernodal baseline's
    /// Schur update on a panel of `bytes` (both directions).
    pub fn gather_scatter_cost(&self, bytes: usize) -> f64 {
        2.0 * bytes as f64 / self.mem_bandwidth
    }
}

/// Cost classes of the model (the 17 concrete kernels map onto three
/// sparse classes; the baseline adds dense GEMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCostClass {
    /// Sparse diagonal-block factorisation.
    Getrf,
    /// Sparse triangular solves (GESSM / TSTRF).
    Trsm,
    /// Sparse Schur complement.
    Ssssm,
    /// Dense GEMM (supernodal baseline).
    DenseGemm,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_outruns_mi50() {
        let a = PlatformProfile::a100_like();
        let m = PlatformProfile::mi50_like();
        for class in [KernelCostClass::Getrf, KernelCostClass::Trsm, KernelCostClass::Ssssm] {
            assert!(a.kernel_cost(class, 1e9) < m.kernel_cost(class, 1e9));
        }
    }

    #[test]
    fn local_messages_are_cheaper() {
        let p = PlatformProfile::a100_like();
        // Ranks 0 and 1 share node 0; rank 4 is on node 1.
        assert!(p.message_cost(0, 1, 1 << 20) < p.message_cost(0, 4, 1 << 20));
        assert_eq!(p.message_cost(3, 3, 1 << 20), 0.0);
    }

    #[test]
    fn kernel_cost_includes_launch_overhead() {
        let p = PlatformProfile::a100_like();
        let tiny = p.kernel_cost(KernelCostClass::Ssssm, 1.0);
        assert!(tiny >= p.launch_overhead);
        // Overhead dominates tiny kernels: the motivation for CPU kernels
        // on small blocks in the decision trees.
        assert!(tiny < 2.0 * p.launch_overhead);
    }

    #[test]
    fn dense_gemm_is_fastest_rate() {
        let p = PlatformProfile::a100_like();
        assert!(
            p.kernel_cost(KernelCostClass::DenseGemm, 1e9)
                < p.kernel_cost(KernelCostClass::Ssssm, 1e9)
        );
    }
}
