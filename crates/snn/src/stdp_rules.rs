//! Alternative STDP update rules — the paper's future-work lever.
//!
//! The conclusions state that large-scale SNN designs become attractive
//! "especially if accuracy issues can be mitigated by changing the
//! learning algorithm as explored in this article", and §3.2 traces most
//! of the accuracy gap to the *nature* of the STDP rule. This module
//! makes the rule pluggable so that claim can be explored:
//!
//! * [`StdpRule::Additive`] — the paper's hardware rule: constant ±δ
//!   increments, saturating at the 8-bit rails (§4.4).
//! * [`StdpRule::Multiplicative`] — soft-bounded updates
//!   `Δw⁺ ∝ (w_max − w)`, `Δw⁻ ∝ w` (Querlioz et al., the memristive
//!   formulation the paper's SNN baseline derives from). Weights
//!   converge to the rails smoothly instead of slamming into them.
//! * [`StdpRule::Exponential`] — the classic bio-realistic pair-based
//!   window `Δw = ±δ·e^{−Δt/τ}` (Song, Miller & Abbott 2000, the
//!   paper's reference [26]): the LTP magnitude decays with the spike-
//!   time difference instead of being all-or-nothing at `TLTP`.
//!
//! All three share the paper's event definitions (LTP iff the synapse's
//! last input spike is within the window before the output spike, LTD
//! otherwise), so they differ only in the *magnitude* applied — which is
//! exactly the hardware-relevant question: additive needs one adder,
//! multiplicative needs a multiplier, exponential needs the same
//! piecewise-linear interpolation unit as the leak.

use nc_substrate::fixed::{sat_u8_from_i32, sat_u8_round};

/// A pluggable STDP magnitude rule.
#[derive(Debug, Clone, PartialEq)]
pub enum StdpRule {
    /// Constant ±`delta` (the paper's circuit; `delta = 1` in silicon).
    Additive {
        /// Increment magnitude.
        delta: i16,
    },
    /// Soft-bounded: `Δw⁺ = rate·(255 − w)`, `Δw⁻ = −rate·w`.
    Multiplicative {
        /// Fraction of the remaining headroom moved per event (0, 1].
        rate: f64,
    },
    /// Time-weighted: `Δw = ±delta·e^{−Δt/tau}` with `Δt` the time since
    /// the synapse's last input spike; LTD uses the constant `delta`.
    Exponential {
        /// Peak increment at `Δt = 0`.
        delta: f64,
        /// Decay constant of the LTP window, ms.
        tau: f64,
    },
}

impl StdpRule {
    /// Validates rule parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive magnitudes, rates outside `(0, 1]` or a
    /// non-positive `tau`.
    pub fn validate(&self) {
        match *self {
            StdpRule::Additive { delta } => {
                assert!(delta > 0, "delta must be positive");
            }
            StdpRule::Multiplicative { rate } => {
                assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
            }
            StdpRule::Exponential { delta, tau } => {
                assert!(delta > 0.0, "delta must be positive");
                assert!(tau > 0.0, "tau must be positive");
            }
        }
    }

    /// The potentiated weight after an LTP event: `dt_ms` is the time
    /// between the synapse's last input spike and the output spike.
    pub fn potentiate(&self, w: u8, dt_ms: u32) -> u8 {
        match *self {
            StdpRule::Additive { delta } => additive(w, i32::from(delta)),
            StdpRule::Multiplicative { rate } => soft_potentiate(w, rate),
            StdpRule::Exponential { delta, tau } => {
                let dw = delta * (-f64::from(dt_ms) / tau).exp();
                sat_u8_round(f64::from(w) + dw)
            }
        }
    }

    /// The depressed weight after an LTD event.
    pub fn depress(&self, w: u8) -> u8 {
        match *self {
            StdpRule::Additive { delta } => additive(w, -i32::from(delta)),
            StdpRule::Multiplicative { rate } => soft_depress(w, rate),
            StdpRule::Exponential { delta, .. } => sat_u8_round(f64::from(w) - delta),
        }
    }

    /// Updates one neuron's synapse row after its output spike: synapse
    /// `i` is potentiated when `since(last_spike[i])` gives the time
    /// since its input spiked, and depressed when it gives `None`.
    ///
    /// The rule is matched once per row, and each synapse gets exactly
    /// what [`StdpRule::potentiate`] or [`StdpRule::depress`] gives it.
    /// The additive and multiplicative magnitudes do not depend on the
    /// spike time, so their loops compute both outcomes and select one,
    /// without a branch; only the exponential rule branches, and calls
    /// `exp` for its potentiated synapses alone.
    #[inline]
    pub(crate) fn update_row(
        &self,
        row: &mut [u8],
        last_spike: &[u32],
        since: impl Fn(u32) -> Option<u32>,
    ) {
        let synapses = row.iter_mut().zip(last_spike);
        match *self {
            StdpRule::Additive { delta } => {
                let delta = i32::from(delta);
                for (w, &ts) in synapses {
                    let (up, down) = (additive(*w, delta), additive(*w, -delta));
                    *w = if since(ts).is_some() { up } else { down };
                }
            }
            StdpRule::Multiplicative { rate } => {
                for (w, &ts) in synapses {
                    let (up, down) = (soft_potentiate(*w, rate), soft_depress(*w, rate));
                    *w = if since(ts).is_some() { up } else { down };
                }
            }
            StdpRule::Exponential { .. } => {
                for (w, &ts) in synapses {
                    *w = match since(ts) {
                        Some(dt) => self.potentiate(*w, dt),
                        None => self.depress(*w),
                    };
                }
            }
        }
    }

    /// Hardware cost class of the rule's update unit (per lane), in the
    /// `nc-hw` operator vocabulary: the additive rule is one saturating
    /// adder; the multiplicative rule needs an 8-bit multiplier; the
    /// exponential rule reuses the leak's piecewise-linear unit plus an
    /// adder.
    pub fn update_unit(&self) -> StdpUpdateUnit {
        match self {
            StdpRule::Additive { .. } => StdpUpdateUnit::SaturatingAdder,
            StdpRule::Multiplicative { .. } => StdpUpdateUnit::Multiplier,
            StdpRule::Exponential { .. } => StdpUpdateUnit::InterpolatedAdder,
        }
    }
}

/// `w + delta`, saturated at the 8-bit rails.
#[inline]
fn additive(w: u8, delta: i32) -> u8 {
    sat_u8_from_i32(i32::from(w) + delta)
}

/// `w + rate·(255 − w)`, rounded.
#[inline]
fn soft_potentiate(w: u8, rate: f64) -> u8 {
    let headroom = 255.0 - f64::from(w);
    sat_u8_round(f64::from(w) + rate * headroom)
}

/// `w·(1 − rate)`, rounded.
#[inline]
fn soft_depress(w: u8, rate: f64) -> u8 {
    sat_u8_round(f64::from(w) * (1.0 - rate))
}

impl Default for StdpRule {
    fn default() -> Self {
        StdpRule::Additive { delta: 1 }
    }
}

/// The datapath element a rule's weight update needs (priced by
/// `nc_hw::tech`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StdpUpdateUnit {
    /// One saturating adder per lane (the paper's design).
    SaturatingAdder,
    /// One 8-bit multiplier per lane.
    Multiplier,
    /// The shared piecewise-linear unit plus an adder.
    InterpolatedAdder,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_matches_the_paper_rule() {
        let rule = StdpRule::Additive { delta: 1 };
        assert_eq!(rule.potentiate(128, 0), 129);
        assert_eq!(rule.potentiate(128, 44), 129); // window-invariant
        assert_eq!(rule.depress(128), 127);
        assert_eq!(rule.potentiate(255, 0), 255); // saturates
        assert_eq!(rule.depress(0), 0);
        // Extreme deltas saturate instead of overflowing the intermediate.
        let extreme = StdpRule::Additive { delta: i16::MAX };
        assert_eq!(extreme.potentiate(255, 0), 255);
        assert_eq!(extreme.depress(255), 0);
    }

    #[test]
    fn multiplicative_is_soft_bounded() {
        let rule = StdpRule::Multiplicative { rate: 0.1 };
        // Approach to the rails slows near them.
        let step_mid = rule.potentiate(128, 0) - 128;
        let step_high = rule.potentiate(240, 0) - 240;
        assert!(step_mid > step_high, "{step_mid} vs {step_high}");
        // Never overshoots.
        assert!(rule.potentiate(255, 0) == 255);
        assert_eq!(rule.depress(0), 0);
    }

    #[test]
    fn exponential_decays_with_spike_distance() {
        let rule = StdpRule::Exponential {
            delta: 20.0,
            tau: 10.0,
        };
        let near = rule.potentiate(100, 0) - 100;
        let mid = rule.potentiate(100, 10) - 100;
        let far = rule.potentiate(100, 40) - 100;
        assert!(near > mid && mid > far, "{near} {mid} {far}");
        assert_eq!(u32::from(near), 20);
    }

    #[test]
    fn update_units_match_hardware_expectations() {
        assert_eq!(
            StdpRule::default().update_unit(),
            StdpUpdateUnit::SaturatingAdder
        );
        assert_eq!(
            StdpRule::Multiplicative { rate: 0.1 }.update_unit(),
            StdpUpdateUnit::Multiplier
        );
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn bad_rate_rejected() {
        StdpRule::Multiplicative { rate: 1.5 }.validate();
    }
}
