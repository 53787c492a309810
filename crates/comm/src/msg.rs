//! Block messages exchanged during the numeric factorisation.
//!
//! The sync-free scheduling strategy (paper §4.4, Fig. 10) sends finished
//! sub-matrix blocks to the ranks whose pending kernels depend on them.
//! Patterns are replicated during preprocessing, so messages carry only
//! the **values** of the block — as the real implementation would ship
//! over MPI.
//!
//! The payload is an [`Arc<[f64]>`]: a block fanned out to several
//! dependent ranks is serialised **once** and the clones handed to each
//! mailbox share the buffer. The wire cost model is unaffected — the
//! mailbox charges [`BlockMsg::payload_bytes`] per send edge, exactly as
//! if every destination received its own copy, because that is what the
//! MPI transport being modelled would put on the wire.

use std::sync::Arc;

use pangulu_sparse::Scalar;

/// Which role the shipped block plays at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockRole {
    /// A factored diagonal block `(k, k)` (packed `L\U`), enabling GESSM
    /// on block row `k` and TSTRF on block column `k`.
    DiagFactor,
    /// A finished L-panel block `(i, k)`, operand of SSSSM updates across
    /// block row `i`.
    LPanel,
    /// A finished U-panel block `(k, j)`, operand of SSSSM updates down
    /// block column `j`.
    UPanel,
}

/// A block shipped between ranks. Generic over the element precision:
/// an f32 factorisation ships 4-byte elements, halving the payload cost
/// of every edge.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMsg<S: Scalar = f64> {
    /// Block row index.
    pub bi: usize,
    /// Block column index.
    pub bj: usize,
    /// Role at the receiver.
    pub role: BlockRole,
    /// The block's values in its (replicated) pattern order, shared
    /// across fan-out destinations.
    pub values: Arc<[S]>,
}

impl<S: Scalar> BlockMsg<S> {
    /// Payload size in bytes, as charged by the communication cost model.
    /// Scales with the element width: f32 blocks cost half the freight.
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * S::WIDTH + 3 * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accounts_header_and_values() {
        let m: BlockMsg =
            BlockMsg { bi: 1, bj: 2, role: BlockRole::LPanel, values: vec![0.0; 10].into() };
        assert_eq!(m.payload_bytes(), 10 * 8 + 24);
    }

    #[test]
    fn f32_payload_is_half_freight() {
        let m: BlockMsg<f32> =
            BlockMsg { bi: 1, bj: 2, role: BlockRole::LPanel, values: vec![0.0f32; 10].into() };
        assert_eq!(m.payload_bytes(), 10 * 4 + 24);
    }

    #[test]
    fn fanout_clones_share_one_payload_buffer() {
        let m: BlockMsg =
            BlockMsg { bi: 0, bj: 0, role: BlockRole::DiagFactor, values: vec![1.0; 4].into() };
        let fanned: Vec<BlockMsg<f64>> = (0..3).map(|_| m.clone()).collect();
        for copy in &fanned {
            assert!(Arc::ptr_eq(&m.values, &copy.values), "clone must not reallocate the payload");
            // Each clone is still charged full freight by the cost model.
            assert_eq!(copy.payload_bytes(), 4 * 8 + 24);
        }
    }
}
