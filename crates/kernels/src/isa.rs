//! The one instruction-set probe of the library.
//!
//! Every kernel with a wider-vector instance — the dense-tile lane
//! ([`crate::tile`]) and `pangulu-core`'s triangular sweeps — asks this
//! module once per call and takes a `#[target_feature]` build of the same
//! generic code when it answers `true`, the portable build otherwise: the
//! lane an `avx512f` build where [`avx512`] holds, else an `avx2` one
//! where [`avx2`] holds; the sweeps an `avx2` build only (an AVX-512
//! sweep was slower). No instance calls `mul_add`, and none enables `fma`
//! itself; `avx512f` implies it for code generation, but Rust never fuses
//! a separate multiply and subtraction. So every instance performs the
//! same multiplies and subtractions in the same order, and the instances
//! differ in speed, never in bits.

/// Whether this CPU runs the AVX-512 tile instance (`std` caches the
/// probe, so this is one load after the first call).
#[inline]
pub fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU runs the AVX2 instances.
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

/// The dense-tile lane's instance on this CPU: `"avx512"`, `"avx2"` or
/// `"portable"`.
pub fn tile_lane() -> &'static str {
    if avx512() {
        "avx512"
    } else {
        sweep_lane()
    }
}

/// The panel sweeps' instance on this CPU: `"avx2"` or `"portable"`.
pub fn sweep_lane() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "portable"
    }
}
