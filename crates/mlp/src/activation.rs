//! Activation functions: the parameterized sigmoid family and the step
//! function of the paper's bridging experiment (§3.2, Figures 5–6).
//!
//! "By parameterizing the sigmoid function `f_a(x) = 1/(1+e^{-a·x})` …
//! it is possible to gradually alter the profile of the sigmoid in order
//! to bring it closer to the profile of a step function; `a` is a slope
//! parameter, and the higher `a`, the closer to a step function."

use nc_substrate::interp::PiecewiseLinear;

/// An MLP activation function.
///
/// # Examples
///
/// ```
/// use nc_mlp::activation::Activation;
///
/// let f = Activation::sigmoid();
/// assert!((f.eval(0.0) - 0.5).abs() < 1e-12);
///
/// let steep = Activation::sigmoid_slope(16.0);
/// assert!(steep.eval(1.0) > 0.999); // approaching the step profile
///
/// let step = Activation::Step;
/// assert_eq!(step.eval(-0.1), 0.0);
/// assert_eq!(step.eval(0.1), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `f_a(x) = 1 / (1 + e^{-a·x})`; `a = 1` is the classical sigmoid.
    Sigmoid {
        /// Slope parameter `a` (must be positive).
        a: f64,
    },
    /// The `[0/1]` step function ("no spike / spike"): the limit of
    /// `Sigmoid` as `a → ∞` and the activation SNN hardware effectively
    /// uses.
    Step,
}

impl Activation {
    /// Slope cap of the back-propagation surrogate derivative (see
    /// [`Activation::derivative_from_output`]).
    pub const SURROGATE_SLOPE_CAP: f64 = 4.0;

    /// The classical sigmoid (`a = 1`).
    pub const fn sigmoid() -> Self {
        Activation::Sigmoid { a: 1.0 }
    }

    /// A sigmoid with slope parameter `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not strictly positive and finite.
    pub fn sigmoid_slope(a: f64) -> Self {
        assert!(a.is_finite() && a > 0.0, "slope must be positive");
        Activation::Sigmoid { a }
    }

    /// Evaluates the activation.
    pub fn eval(&self, x: f64) -> f64 {
        match *self {
            Activation::Sigmoid { a } => 1.0 / (1.0 + (-a * x).exp()),
            Activation::Step => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The derivative used by back-propagation, expressed in terms of the
    /// *output* `y = f(x)` (the standard trick: `f' = a·y·(1−y)`).
    ///
    /// This is a *surrogate* derivative for steep activations: the slope
    /// factor is capped at [`Activation::SURROGATE_SLOPE_CAP`] and the
    /// curvature term floored, because the true derivative of a steep
    /// sigmoid vanishes almost everywhere (units saturate after the first
    /// updates and learning stalls — exactly why the paper's Figure 6
    /// error rises with `a`). For `a ≤ 4` the derivative is exact. For
    /// [`Activation::Step`] — zero derivative everywhere — the same
    /// surrogate is used, so the step function realizes the paper's
    /// bridging reference point while inference stays a true comparator.
    pub fn derivative_from_output(&self, y: f64) -> f64 {
        match *self {
            Activation::Sigmoid { a } if a <= Self::SURROGATE_SLOPE_CAP => a * y * (1.0 - y),
            Activation::Sigmoid { .. } | Activation::Step => {
                Self::SURROGATE_SLOPE_CAP * (y * (1.0 - y)).max(0.025)
            }
        }
    }

    /// The slope parameter (`a`), or `None` for the step function.
    pub fn slope(&self) -> Option<f64> {
        match *self {
            Activation::Sigmoid { a } => Some(a),
            Activation::Step => None,
        }
    }

    /// Builds the 16-point piecewise-linear SRAM table the hardware uses
    /// for this activation (paper §4.2.1). The step function needs no
    /// table (it is a comparator), so it returns a 1-segment table of the
    /// steep sigmoid for uniformity.
    pub fn hardware_table(&self) -> PiecewiseLinear {
        match *self {
            Activation::Sigmoid { a } => {
                // Cover the region where the function is non-saturated:
                // |a·x| <= 8 ⇒ |x| <= 8/a.
                let half = 8.0 / a;
                PiecewiseLinear::sigmoid(16, a, (-half, half))
            }
            Activation::Step => PiecewiseLinear::sigmoid(16, 64.0, (-0.125, 0.125)),
        }
    }
}

impl Default for Activation {
    fn default() -> Self {
        Activation::sigmoid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basic_values() {
        let f = Activation::sigmoid();
        assert!((f.eval(0.0) - 0.5).abs() < 1e-12);
        assert!(f.eval(10.0) > 0.9999);
        assert!(f.eval(-10.0) < 0.0001);
    }

    #[test]
    fn slope_steepens_profile() {
        // Figure 5: higher `a` pushes f_a(1) toward 1.
        let mut prev = 0.0;
        for a in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let y = Activation::sigmoid_slope(a).eval(0.5);
            assert!(y > prev, "f_{a}(0.5) not increasing");
            prev = y;
        }
        assert!(prev > 0.999);
    }

    #[test]
    fn step_is_the_sigmoid_limit() {
        let step = Activation::Step;
        let steep = Activation::sigmoid_slope(1e6);
        for x in [-2.0, -0.5, 0.5, 2.0] {
            assert!((step.eval(x) - steep.eval(x)).abs() < 1e-6);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        // Exact below the surrogate cap.
        let f = Activation::sigmoid_slope(3.0);
        for x in [-2.0, -0.3, 0.0, 0.7, 1.9] {
            let y = f.eval(x);
            let h = 1e-6;
            let fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h);
            assert!((f.derivative_from_output(y) - fd).abs() < 1e-5, "x = {x}");
        }
    }

    #[test]
    fn step_surrogate_gradient_is_nonzero() {
        let f = Activation::Step;
        assert!(f.derivative_from_output(0.0) > 0.0);
        assert!(f.derivative_from_output(1.0) > 0.0);
        assert!(f.derivative_from_output(0.5) > 0.0);
    }

    #[test]
    fn steep_sigmoid_gradient_never_vanishes() {
        let f = Activation::sigmoid_slope(16.0);
        for y in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert!(f.derivative_from_output(y) >= 0.025 * 4.0 - 1e-12, "y={y}");
        }
    }

    #[test]
    fn hardware_table_tracks_the_function() {
        let f = Activation::sigmoid_slope(2.0);
        let t = f.hardware_table();
        let (lo, hi) = t.domain();
        let err = (0..=1000)
            .map(|i| lo + (hi - lo) * f64::from(i) / 1000.0)
            .map(|x| (t.eval(x) - f.eval(x)).abs())
            .fold(0.0, f64::max);
        assert!(err < 0.02, "table error {err}");
    }

    #[test]
    #[should_panic(expected = "slope must be positive")]
    fn rejects_nonpositive_slope() {
        let _ = Activation::sigmoid_slope(0.0);
    }
}
