//! Saturating fixed-point arithmetic.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
// ^ This is the one module where bare narrowing casts are the
// implementation technique (R2's exemption); Rust's float->int `as`
// saturates, which is exactly the semantics the `sat_*` helpers audit.
//!
//! The paper's accelerators use narrow fixed-point datapaths throughout:
//! 8-bit synaptic weights and activations for the MLP (§4.2.1), 8-bit
//! weights for SNNwt and 12-bit weighted spike-count products for SNNwot
//! (§4.2.3). Those datapaths keep their registers as plain integers and
//! narrow onto them through the `sat_*` helpers below; the 8-bit MLP's
//! activation table is [`crate::kernel::FixedActLut`].

// ---------------------------------------------------------------------------
// Audited saturating narrowing conversions.
//
// These free functions are the *only* sanctioned way to narrow a value onto
// a hardware register width outside this module (workspace invariant R2,
// see DESIGN.md "Static invariants"). Rust's float-to-int `as` casts have
// saturated since 1.45, so each helper is exactly the underlying cast —
// the point is to concentrate every narrowing in one audited file and make
// the rounding mode (truncate vs round-to-nearest) explicit at call sites.
// ---------------------------------------------------------------------------

/// Saturating `f64 → u8` with truncation toward zero (`as` semantics:
/// negatives and NaN map to 0, values ≥ 255 map to 255).
#[inline]
pub fn sat_u8_trunc(x: f64) -> u8 {
    x as u8
}

/// Saturating `f64 → u8` with round-to-nearest (ties away from zero),
/// the hardware quantizer used for 8-bit weight and activation grids.
#[inline]
pub fn sat_u8_round(x: f64) -> u8 {
    x.round() as u8
}

/// Saturating `i32 → u8`: clamps to the `[0, 255]` register rails, as
/// an STDP weight update of ±1 must (paper §4.4).
#[inline]
pub fn sat_u8_from_i32(x: i32) -> u8 {
    x.clamp(0, 255) as u8
}

/// Saturating `f64 → i8` with round-to-nearest, for signed 8-bit weight
/// grids.
#[inline]
pub fn sat_i8_round(x: f64) -> i8 {
    x.round() as i8
}

/// Saturating `f64 → i32` with truncation toward zero.
#[inline]
pub fn sat_i32_trunc(x: f64) -> i32 {
    x as i32
}

/// Saturating `f64 → u32` with truncation toward zero.
#[inline]
pub fn sat_u32_trunc(x: f64) -> u32 {
    x as u32
}

/// Saturating `f64 → usize` with truncation toward zero (negatives and
/// NaN map to 0), for table indices derived from scaled reals.
#[inline]
pub fn sat_usize_trunc(x: f64) -> usize {
    x as usize
}

/// Saturating `f64 → u64` with truncation toward zero (negatives and
/// NaN map to 0), for seeds derived from scaled reals.
#[inline]
pub fn sat_u64_trunc(x: f64) -> u64 {
    x as u64
}

/// Saturating `f64 → i64` with round-to-nearest (ties away from zero),
/// the quantizer for wide fixed-point coefficients such as the
/// [`crate::kernel::FixedActLut`] slope/intercept words.
#[inline]
pub fn sat_i64_round(x: f64) -> i64 {
    x.round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_conversions_hold_at_the_rails() {
        assert_eq!(sat_u8_trunc(-3.7), 0);
        assert_eq!(sat_u8_trunc(254.9), 254);
        assert_eq!(sat_u8_trunc(1e9), 255);
        assert_eq!(sat_u8_trunc(f64::NAN), 0);
        assert_eq!(sat_u8_round(254.5), 255);
        assert_eq!(sat_u8_round(-0.4), 0);
        assert_eq!(sat_u8_round(1e9), 255);
        assert_eq!(sat_u8_from_i32(-1), 0);
        assert_eq!(sat_u8_from_i32(128), 128);
        assert_eq!(sat_u8_from_i32(300), 255);
        assert_eq!(sat_i8_round(-200.0), -128);
        assert_eq!(sat_i8_round(4.5), 5);
        assert_eq!(sat_i32_trunc(1e18), i32::MAX);
        assert_eq!(sat_i32_trunc(-1.9), -1);
        assert_eq!(sat_u32_trunc(-5.0), 0);
        assert_eq!(sat_u32_trunc(7.99), 7);
        assert_eq!(sat_usize_trunc(-0.1), 0);
        assert_eq!(sat_usize_trunc(41.9), 41);
        assert_eq!(sat_u64_trunc(-2.0), 0);
        assert_eq!(sat_u64_trunc(1234.9), 1234);
        assert_eq!(sat_u64_trunc(f64::NAN), 0);
        assert_eq!(sat_u64_trunc(1e300), u64::MAX);
        assert_eq!(sat_i64_round(2.5), 3);
        assert_eq!(sat_i64_round(-2.5), -3);
        assert_eq!(sat_i64_round(1e300), i64::MAX);
        assert_eq!(sat_i64_round(-1e300), i64::MIN);
        assert_eq!(sat_i64_round(f64::NAN), 0);
    }
}
