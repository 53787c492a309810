//! The one instruction-set probe of the library.
//!
//! Every kernel with a wider-vector instance — the dense-tile lane
//! ([`crate::tile`]) and `pangulu-core`'s triangular sweeps — asks
//! [`avx2`] once per call and takes an `#[target_feature(enable =
//! "avx2")]` build of the same generic code when it answers `true`, the
//! portable build otherwise. Only `avx2` is ever enabled, never `fma`:
//! each instance performs the same separate multiplies and subtractions
//! in the same order, so the instances differ in speed, never in bits.

/// Whether this CPU runs the AVX2 instances (`std` caches the probe, so
/// this is one load after the first call).
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The instances this CPU runs: `"avx2"` or `"portable"`.
pub fn lanes() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "portable"
    }
}
