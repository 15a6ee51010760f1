//! Deterministic chaos schedules for the serving layer.
//!
//! A [`ChaosPlan`] is to *operational* failures what [`FaultPlan`] is to
//! silicon defects: a seeded, fully-specified schedule of bad luck. It
//! decides — as a pure function of `(plan, item, tick, attempt)` —
//! whether a replica panics mid-batch, how many **virtual ticks** a
//! batch is delayed (never wall-clock; lint rules R3/R7 apply to the
//! consumer as much as here), whether a response is poisoned, and when
//! transient-fault bursts wash over the fleet via the existing
//! [`FaultPlan`] shims.
//!
//! Determinism contract, mirrored from the engine's:
//!
//! * Panic and poison decisions are keyed by **item**, not by batch
//!   composition or arrival order, so a shuffled admission sequence
//!   injures exactly the same requests.
//! * Delay decisions are keyed by **batch sequence number** — batch
//!   identity is itself a pure function of the admission sequence, so
//!   replays at any thread count see identical delays.
//! * Burst windows are keyed by the **virtual tick**, so the same ticks
//!   are stormy on every run.
//!
//! Nothing here reads a clock or an entropy source; every decision
//! draws from a decorrelated [`SplitMix64`] stream in the same per-site
//! idiom as [`FaultPlan::stream`].

use crate::{FaultError, FaultPlan};
use nc_substrate::SplitMix64;

/// Stream channels: distinct salts so the panic, delay, and poison
/// coins are mutually independent even for equal items/batches.
const CH_PANIC: u64 = 0xC4A0_51DE_0000_0001;
const CH_DELAY: u64 = 0xC4A0_51DE_0000_0002;
const CH_POISON: u64 = 0xC4A0_51DE_0000_0003;

/// A seeded schedule of operational failures for the serving layer.
///
/// All rates are per-site probabilities in `[0, 1]`; a rate of `0.0`
/// disables that failure mode, and [`ChaosPlan::quiet`] disables all of
/// them. Two equal plans schedule bit-identical chaos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every chaos decision stream.
    pub seed: u64,
    /// Probability that a given *item* is panic-targeted: batches
    /// containing it panic on their early attempts (see
    /// [`ChaosPlan::should_panic`]).
    pub panic_rate: f64,
    /// How many supervised attempts a panic-targeted item sabotages
    /// before the replica "recovers". `u32::MAX` means the item panics
    /// every attempt (until [`ChaosPlan::panic_until_tick`]).
    pub panic_attempts: u32,
    /// Virtual tick at which panic chaos heals: ticks `>= panic_until_tick`
    /// never panic. `u64::MAX` means the storm never ends.
    pub panic_until_tick: u64,
    /// Probability that a sealed batch is a slow batch.
    pub delay_rate: f64,
    /// A slow batch completes `1..=max_delay_ticks` virtual ticks after
    /// it is drained (uniformly drawn); `0` disables delays outright.
    pub max_delay_ticks: u64,
    /// Probability that a given item's response is poisoned — replaced
    /// by a deterministic *wrong* class (see
    /// [`ChaosPlan::poisoned_prediction`]).
    pub poison_rate: f64,
    /// Period, in virtual ticks, of transient-fault bursts; `0`
    /// disables bursts.
    pub burst_period: u64,
    /// How many ticks at the start of each period are stormy; must be
    /// in `1..=burst_period` when bursts are enabled.
    pub burst_width: u64,
    /// The fault plan applied to burst replicas during stormy ticks
    /// (re-seeded per burst window via [`FaultPlan::for_site`]).
    pub burst_faults: Option<FaultPlan>,
}

impl ChaosPlan {
    /// A plan that schedules no chaos at all (all rates zero, bursts
    /// off). Useful as a baseline and for config plumbing tests.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            panic_rate: 0.0,
            panic_attempts: 0,
            panic_until_tick: u64::MAX,
            delay_rate: 0.0,
            max_delay_ticks: 0,
            poison_rate: 0.0,
            burst_period: 0,
            burst_width: 0,
            burst_faults: None,
        }
    }

    /// Re-checks every rate and the burst-window geometry. Plans are
    /// plain structs, so call this at the admission boundary (the
    /// server does, at construction).
    pub fn validate(&self) -> Result<(), FaultError> {
        for rate in [self.panic_rate, self.delay_rate, self.poison_rate] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FaultError::BadRate(rate));
            }
        }
        if self.burst_period > 0 && !(1..=self.burst_period).contains(&self.burst_width) {
            return Err(FaultError::BadBurst {
                period: self.burst_period,
                width: self.burst_width,
            });
        }
        if let Some(faults) = &self.burst_faults {
            faults.validate()?;
        }
        Ok(())
    }

    /// Derives a decorrelated [`SplitMix64`] stream for one decision
    /// site — the same mixing idiom as [`FaultPlan::stream`].
    pub fn stream(&self, salt: u64) -> SplitMix64 {
        let mut sm = SplitMix64::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let first = sm.next_u64();
        SplitMix64::new(first)
    }

    /// Whether `item` is panic-targeted under this plan. Keyed by item
    /// alone, so shuffled arrival orders target the same requests.
    pub fn panics_item(&self, item: u64) -> bool {
        if self.panic_rate <= 0.0 {
            return false;
        }
        self.stream(CH_PANIC ^ item).next_unit() < self.panic_rate
    }

    /// Whether a batch containing `item`, drained at virtual `tick` on
    /// supervised `attempt` (0-based), panics. Pure in all three
    /// arguments.
    pub fn should_panic(&self, item: u64, tick: u64, attempt: u32) -> bool {
        tick < self.panic_until_tick && attempt < self.panic_attempts && self.panics_item(item)
    }

    /// Whether `item`'s response is poisoned under this plan.
    pub fn poisons_item(&self, item: u64) -> bool {
        if self.poison_rate <= 0.0 {
            return false;
        }
        self.stream(CH_POISON ^ item).next_unit() < self.poison_rate
    }

    /// The deterministic wrong answer for a poisoned response: a class
    /// in `0..classes` that is guaranteed to differ from `honest`
    /// (degenerate single-class models are returned unharmed — there is
    /// no wrong answer to give).
    #[allow(clippy::cast_possible_truncation)]
    pub fn poisoned_prediction(&self, item: u64, honest: usize, classes: usize) -> usize {
        if classes <= 1 {
            return honest;
        }
        let span = (classes - 1) as u64;
        let offset = self.stream(CH_POISON ^ item).next_below(span);
        // nc-lint: allow(R2, reason = "offset < classes - 1 <= usize::MAX, lossless narrowing")
        let offset = 1 + offset as usize;
        (honest + offset) % classes
    }

    /// How many virtual ticks the batch with sequence number `batch`
    /// completes late: `0` for a healthy batch, `1..=max_delay_ticks`
    /// for a slow one.
    pub fn delay_ticks(&self, batch: u64) -> u64 {
        if self.delay_rate <= 0.0 || self.max_delay_ticks == 0 {
            return 0;
        }
        let mut rng = self.stream(CH_DELAY ^ batch);
        if rng.next_unit() < self.delay_rate {
            1 + rng.next_below(self.max_delay_ticks)
        } else {
            0
        }
    }

    /// The fault plan in force at virtual `tick`, if the tick falls in
    /// a burst window: the configured [`ChaosPlan::burst_faults`]
    /// re-seeded per window, so consecutive storms corrupt differently
    /// but every replay of the same storm corrupts identically.
    pub fn burst_plan(&self, tick: u64) -> Option<FaultPlan> {
        let base = self.burst_faults?;
        if self.burst_period == 0 || tick % self.burst_period >= self.burst_width {
            return None;
        }
        Some(base.for_site(tick / self.burst_period))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultModel;

    fn noisy() -> ChaosPlan {
        ChaosPlan {
            panic_rate: 0.4,
            panic_attempts: 1,
            delay_rate: 0.5,
            max_delay_ticks: 3,
            poison_rate: 0.3,
            burst_period: 8,
            burst_width: 2,
            burst_faults: Some(FaultPlan {
                model: FaultModel::TransientRead,
                rate: 0.05,
                seed: 11,
            }),
            ..ChaosPlan::quiet(42)
        }
    }

    #[test]
    fn quiet_plan_schedules_nothing() {
        let plan = ChaosPlan::quiet(7);
        assert!(plan.validate().is_ok());
        for item in 0..256 {
            assert!(!plan.panics_item(item));
            assert!(!plan.should_panic(item, 0, 0));
            assert!(!plan.poisons_item(item));
            assert_eq!(plan.delay_ticks(item), 0);
            assert_eq!(plan.burst_plan(item), None);
        }
    }

    #[test]
    fn validate_rejects_bad_rates_and_burst_geometry() {
        for bad in [-0.1, 1.5, f64::NAN] {
            for field in 0..3 {
                let mut plan = ChaosPlan::quiet(0);
                match field {
                    0 => plan.panic_rate = bad,
                    1 => plan.delay_rate = bad,
                    _ => plan.poison_rate = bad,
                }
                assert!(
                    matches!(plan.validate(), Err(FaultError::BadRate(_))),
                    "field {field} rate {bad} must be rejected"
                );
            }
        }
        let mut plan = ChaosPlan::quiet(0);
        plan.burst_period = 4;
        plan.burst_width = 0;
        assert!(matches!(
            plan.validate(),
            Err(FaultError::BadBurst {
                period: 4,
                width: 0
            })
        ));
        plan.burst_width = 5;
        assert!(plan.validate().is_err());
        plan.burst_width = 4;
        assert!(plan.validate().is_ok());
        // A burst fault plan's own rate invariant is re-checked too.
        plan.burst_faults = Some(FaultPlan {
            model: FaultModel::TransientRead,
            rate: 2.0,
            seed: 0,
        });
        assert!(matches!(plan.validate(), Err(FaultError::BadRate(_))));
    }

    #[test]
    fn panic_targets_are_item_keyed_and_rate_scaled() {
        let plan = noisy();
        let targeted: Vec<u64> = (0..10_000).filter(|&i| plan.panics_item(i)).collect();
        let again: Vec<u64> = (0..10_000).filter(|&i| plan.panics_item(i)).collect();
        assert_eq!(targeted, again);
        // 10k items at 40%: expect ~4000 targeted.
        assert!(
            (3500..=4500).contains(&targeted.len()),
            "targeted = {}",
            targeted.len()
        );
    }

    #[test]
    fn should_panic_respects_attempts_and_healing_tick() {
        let mut plan = noisy();
        plan.panic_rate = 1.0;
        plan.panic_attempts = 2;
        plan.panic_until_tick = 10;
        assert!(plan.should_panic(3, 0, 0));
        assert!(plan.should_panic(3, 9, 1));
        assert!(!plan.should_panic(3, 0, 2), "attempts exhausted");
        assert!(!plan.should_panic(3, 10, 0), "storm healed");
        assert!(!plan.should_panic(3, u64::MAX, 0));
    }

    #[test]
    fn poison_picks_a_wrong_class_deterministically() {
        let plan = noisy();
        let poisoned: Vec<u64> = (0..10_000).filter(|&i| plan.poisons_item(i)).collect();
        assert!(
            (2500..=3500).contains(&poisoned.len()),
            "poisoned = {}",
            poisoned.len()
        );
        for &item in poisoned.iter().take(64) {
            for honest in 0..10 {
                let lie = plan.poisoned_prediction(item, honest, 10);
                assert!(lie < 10);
                assert_ne!(lie, honest, "poison must change the answer");
                assert_eq!(lie, plan.poisoned_prediction(item, honest, 10));
            }
            // Single-class models have no wrong answer to give.
            assert_eq!(plan.poisoned_prediction(item, 0, 1), 0);
        }
    }

    #[test]
    fn delays_are_batch_keyed_bounded_and_rate_scaled() {
        let plan = noisy();
        let delays: Vec<u64> = (0..10_000).map(|b| plan.delay_ticks(b)).collect();
        assert_eq!(
            delays,
            (0..10_000).map(|b| plan.delay_ticks(b)).collect::<Vec<_>>()
        );
        assert!(delays.iter().all(|&d| d <= plan.max_delay_ticks));
        let slow = delays.iter().filter(|&&d| d > 0).count();
        // 10k batches at 50%: expect ~5000 slow.
        assert!((4500..=5500).contains(&slow), "slow = {slow}");
        // Every delay magnitude in 1..=3 occurs.
        for d in 1..=3 {
            assert!(delays.contains(&d), "no delay of {d} ticks in 10k draws");
        }
    }

    #[test]
    fn burst_windows_follow_the_period_and_reseed_per_window() {
        let plan = noisy();
        // Period 8, width 2: ticks 0,1 stormy, 2..=7 calm, 8,9 stormy...
        for tick in 0..32 {
            let stormy = tick % 8 < 2;
            assert_eq!(plan.burst_plan(tick).is_some(), stormy, "tick {tick}");
        }
        let w0 = plan.burst_plan(0);
        assert_eq!(w0, plan.burst_plan(1), "same window, same plan");
        assert_eq!(w0, plan.burst_plan(0), "replays identically");
        assert_ne!(w0, plan.burst_plan(8), "next window reseeds");
        // Burst plans keep the model and rate; only the seed moves.
        let p8 = plan.burst_plan(8).map(|p| (p.model, p.rate));
        assert_eq!(p8, Some((FaultModel::TransientRead, 0.05)));
    }

    #[test]
    fn chaos_streams_decorrelate_across_channels() {
        let plan = noisy();
        let mut a = plan.stream(CH_PANIC ^ 5);
        let mut b = plan.stream(CH_POISON ^ 5);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "panic and poison coins must be independent");
    }
}
