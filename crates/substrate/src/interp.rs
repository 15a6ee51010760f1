//! Piecewise-linear function interpolation.
//!
//! The accelerators never compute transcendental functions directly.
//! Instead they store a small SRAM table of `(a_i, b_i)` coefficient pairs
//! and evaluate `f(x) = a_i · x + b_i` in the segment containing `x`:
//!
//! * the MLP's sigmoid uses "16-point piecewise linear interpolation,
//!   requiring only a small SRAM table … an adder and a multiplier"
//!   (paper §4.2.1);
//! * the online-learning SNN models the exponential leak
//!   `v(T2) = v(T1) · e^{-(T2-T1)/Tleak}` the same way (paper §4.4); the
//!   software SNN and its datapath simulator instead share one exact
//!   per-millisecond decay table (`nc_snn::SnnNetwork::decay_lut`).
//!
//! [`PiecewiseLinear`] is that table in software, and it deliberately has
//! the same approximation error the silicon would have, so model-level
//! accuracy experiments already include the hardware's function error.

/// A piecewise-linear approximation of a scalar function on a closed
/// interval, with uniformly spaced segments.
///
/// Outside the domain the approximation is clamped to its boundary values
/// (a saturating table lookup, which is what the comparator ladder in the
/// hardware produces).
///
/// # Examples
///
/// ```
/// use nc_substrate::interp::PiecewiseLinear;
///
/// let sig = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
/// assert!((sig.eval(0.0) - 0.5).abs() < 1e-2);
/// assert!(sig.eval(100.0) > 0.99);   // clamped to the right boundary
/// assert!(sig.eval(-100.0) < 0.01);  // clamped to the left boundary
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    lo: f64,
    hi: f64,
    /// Per-segment slope `a_i`.
    slopes: Vec<f64>,
    /// Per-segment intercept `b_i` (in `f(x) = a_i·x + b_i`, x absolute).
    intercepts: Vec<f64>,
}

impl PiecewiseLinear {
    /// Builds a table with `segments` uniform segments approximating `f`
    /// on `[lo, hi]` by interpolating between the exact endpoint values.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or if `lo >= hi` or either bound is not
    /// finite.
    pub fn from_fn<F: Fn(f64) -> f64>(segments: usize, (lo, hi): (f64, f64), f: F) -> Self {
        assert!(segments > 0, "need at least one segment");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad domain");
        let step = (hi - lo) / segments as f64;
        let mut slopes = Vec::with_capacity(segments);
        let mut intercepts = Vec::with_capacity(segments);
        for i in 0..segments {
            let x0 = lo + step * i as f64;
            let x1 = x0 + step;
            let y0 = f(x0);
            let y1 = f(x1);
            let a = (y1 - y0) / step;
            let b = y0 - a * x0;
            slopes.push(a);
            intercepts.push(b);
        }
        PiecewiseLinear {
            lo,
            hi,
            slopes,
            intercepts,
        }
    }

    /// The 16-point sigmoid table of the MLP accelerator, for the
    /// parameterized sigmoid `f_a(x) = 1 / (1 + e^{-a·x})` (paper §3.2).
    pub fn sigmoid(segments: usize, a: f64, domain: (f64, f64)) -> Self {
        Self::from_fn(segments, domain, |x| 1.0 / (1.0 + (-a * x).exp()))
    }

    /// Evaluates the approximation, clamping `x` into the domain first.
    pub fn eval(&self, x: f64) -> f64 {
        let x = x.clamp(self.lo, self.hi);
        let n = self.slopes.len();
        let step = (self.hi - self.lo) / n as f64;
        let idx = crate::fixed::sat_usize_trunc((x - self.lo) / step).min(n - 1);
        self.slopes[idx] * x + self.intercepts[idx]
    }

    /// The domain the table covers.
    pub fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Number of segments (table entries).
    pub fn segments(&self) -> usize {
        self.slopes.len()
    }

    /// The `(a_i, b_i)` coefficient pairs, i.e. the SRAM contents
    /// (two coefficients per interpolation point, paper §4.2.1).
    pub fn coefficients(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.slopes
            .iter()
            .copied()
            .zip(self.intercepts.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[test]
    fn sigmoid_16pt_is_accurate_enough_for_8bit() {
        // Linear interpolation of the sigmoid over 1-unit segments has a
        // worst-case error of max|f''|·h²/8 ≈ 0.012 — a couple of 8-bit
        // quanta, which the paper found "on par" with floating point.
        let t = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
        let worst = (0..=10_000)
            .map(|i| -8.0 + 16.0 * f64::from(i) / 10_000.0)
            .map(|x| (t.eval(x) - sigmoid(x)).abs())
            .fold(0.0, f64::max);
        assert!(worst < 0.015);
    }

    #[test]
    fn eval_clamps_outside_domain() {
        let t = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
        assert_eq!(t.eval(1e6), t.eval(8.0));
        assert_eq!(t.eval(-1e6), t.eval(-8.0));
    }

    #[test]
    fn exact_at_segment_endpoints() {
        let t = PiecewiseLinear::from_fn(8, (0.0, 4.0), |x| x * x);
        for i in 0..=8 {
            let x = 0.5 * i as f64;
            assert!((t.eval(x) - x * x).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn linear_functions_are_reproduced_exactly() {
        let t = PiecewiseLinear::from_fn(4, (-1.0, 3.0), |x| 2.5 * x - 1.0);
        for i in 0..100 {
            let x = -1.0 + 4.0 * i as f64 / 99.0;
            assert!((t.eval(x) - (2.5 * x - 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn coefficients_expose_sram_contents() {
        let t = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
        assert_eq!(t.coefficients().count(), 16);
        assert_eq!(t.segments(), 16);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _ = PiecewiseLinear::from_fn(0, (0.0, 1.0), |x| x);
    }

    #[test]
    #[should_panic(expected = "bad domain")]
    fn inverted_domain_panics() {
        let _ = PiecewiseLinear::from_fn(4, (1.0, 0.0), |x| x);
    }
}
