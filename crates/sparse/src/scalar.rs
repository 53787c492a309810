//! The numeric value type of the solver stack.
//!
//! Everything numeric in the stack — matrix values, kernel arithmetic,
//! message payloads — is generic over [`Scalar`], with `f64`
//! as the default type parameter so existing call sites compile
//! unchanged. The only implementations are `f64` (the reference
//! precision) and `f32` (the mixed-precision factorisation path, whose
//! accuracy is recovered by iterative refinement in the solve phase).
//!
//! The trait deliberately exposes *width* alongside arithmetic:
//! [`Scalar::WIDTH`] drives payload and copy accounting.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point element type the solver can factor in.
///
/// Sealed in spirit: only `f32` and `f64` make sense.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + 'static
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + std::iter::Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Element width in bytes (4 or 8); drives payload accounting.
    const WIDTH: usize;
    /// Human-readable precision label ("f64" / "f32") for reports.
    const LABEL: &'static str;

    /// Rounds an `f64` into this precision.
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` exactly.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const WIDTH: usize = 8;
    const LABEL: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const WIDTH: usize = 4;
    const LABEL: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(<f64 as Scalar>::WIDTH, std::mem::size_of::<f64>());
        assert_eq!(<f32 as Scalar>::WIDTH, std::mem::size_of::<f32>());
    }

    #[test]
    fn f32_rounds_through_f64() {
        let v = 1.0 + 1e-12; // not representable in f32
        assert_eq!(f32::from_f64(v), 1.0f32);
        assert_eq!(f32::from_f64(v).to_f64(), 1.0);
    }
}
