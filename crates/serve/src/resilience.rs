//! Server-side resilience policy: bounded admission, virtual-time
//! deadlines, and the per-model circuit breaker. Retries belong to the
//! engine's [`Supervision`](nc_core::Supervision).
//!
//! Everything here is driven by the server's **virtual clock** (a tick
//! counter advanced by the caller, never a wall clock — lint rule R3)
//! and plain counters, so every decision is a pure function of the
//! admission/drain history. The [`ServeEvent`] trace the server emits
//! is therefore bit-identical across engine thread counts — the
//! chaos-conformance suite in `tests/chaos.rs` pins exactly that.
//!
//! The breaker is the classic three-phase machine, made deterministic:
//!
//! ```text
//!            failures >= threshold
//!   Closed ────────────────────────► Open{since}
//!     ▲                                 │ cooldown_ticks elapse
//!     │ probe batch succeeds            ▼
//!     └─────────────────────────── HalfOpen ──► (probe fails: Open again)
//! ```
//!
//! While open (and while a half-open probe is in flight), requests for
//! the tripped model degrade to the designated fallback model when one
//! is configured, and are refused with [`ServeError::BreakerOpen`]
//! otherwise. The half-open probe is a *ticket*, not a timer: the first
//! request admitted after the cooldown elapses carries the probe, and
//! the breaker closes or reopens on that batch's outcome.
//!
//! [`ServeError::BreakerOpen`]: crate::ServeError::BreakerOpen

/// Per-model circuit-breaker policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive batch failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual ticks an open breaker waits before admitting a half-open
    /// probe.
    pub cooldown_ticks: u64,
    /// Snapshot index requests degrade to while the breaker is open
    /// (`None` = refuse instead). Validated against the snapshot list
    /// at server construction.
    pub fallback: Option<usize>,
}

impl Default for BreakerConfig {
    /// Trip after 3 consecutive failures, probe after 8 ticks, refuse
    /// (no fallback) while open.
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 8,
            fallback: None,
        }
    }
}

/// The server's resilience policy. The default disables every defense,
/// so a server without an explicit policy behaves exactly as before
/// the resilience layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// Maximum requests in flight before admission sheds
    /// ([`ServeError::Shed`]); `None` = unbounded.
    ///
    /// [`ServeError::Shed`]: crate::ServeError::Shed
    pub queue_limit: Option<usize>,
    /// Per-request deadline in virtual ticks from admission, enforced
    /// at seal and at (possibly chaos-delayed) completion; `None` = no
    /// deadline.
    pub deadline_ticks: Option<u64>,
    /// Per-model circuit breaking; `None` disables the breaker.
    pub breaker: Option<BreakerConfig>,
}

/// One entry in the server's deterministic resilience trace. Events
/// are emitted in a fixed order within each `submit`/`drain` call, so
/// the full event vector is part of the bit-identical outcome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// Admission refused: the queue was full, or the model's breaker
    /// was open with no fallback.
    Shed {
        /// Virtual tick of the refusal.
        tick: u64,
        /// Model index the request addressed.
        model: usize,
        /// The request's stream item index.
        item: u64,
    },
    /// A request for a tripped model was served by its fallback.
    Degraded {
        /// Virtual tick of the admission.
        tick: u64,
        /// The degraded request's ticket.
        ticket: u64,
        /// Model index the request addressed.
        from: usize,
        /// Fallback model index that served it.
        to: usize,
    },
    /// A request's deadline expired (at seal, or at chaos-delayed
    /// completion).
    DeadlineMissed {
        /// Virtual tick of the miss.
        tick: u64,
        /// The expired request's ticket.
        ticket: u64,
        /// Sequence number of the batch that carried it.
        batch: u64,
        /// `true` when the batch was already expired at seal time.
        at_seal: bool,
    },
    /// Replicas were lost to panics while running a batch; the pool
    /// rebuilds them bit-identically on the next checkout.
    ReplicaQuarantined {
        /// Virtual tick of the drain.
        tick: u64,
        /// Model index whose replicas were lost.
        model: usize,
        /// The batch whose attempts consumed them.
        batch: u64,
        /// How many attempts each consumed one replica.
        lost: u32,
    },
    /// A transient-fault burst was in force for this drain: every batch
    /// ran on a freshly-built, fault-injected, discarded-after-use
    /// replica.
    Burst {
        /// Virtual tick of the stormy drain.
        tick: u64,
        /// How many batches ran under the burst.
        batches: u64,
    },
    /// A response was poisoned by the chaos plan (served as a
    /// deterministic wrong class).
    Poisoned {
        /// Virtual tick of the drain.
        tick: u64,
        /// The poisoned request's ticket.
        ticket: u64,
        /// The batch that carried it.
        batch: u64,
    },
    /// A model's breaker tripped open.
    BreakerOpened {
        /// Virtual tick of the trip.
        tick: u64,
        /// The tripped model's index.
        model: usize,
    },
    /// An open breaker's cooldown elapsed; the next admission carries
    /// the half-open probe.
    BreakerHalfOpen {
        /// Virtual tick of the transition.
        tick: u64,
        /// The probing model's index.
        model: usize,
        /// Ticket of the probe request.
        probe: u64,
    },
    /// A half-open probe succeeded; the breaker closed.
    BreakerClosed {
        /// Virtual tick of the close.
        tick: u64,
        /// The recovered model's index.
        model: usize,
    },
}

/// What the breaker decided about one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Serve on the primary model (breaker closed or disabled).
    Primary,
    /// Serve on the primary model *as the half-open probe* — the caller
    /// must register the admitted ticket via [`Breaker::set_probe`].
    Probe,
    /// Degrade to the fallback snapshot index.
    Fallback(usize),
    /// Refuse the request (open, no fallback configured).
    Refuse,
}

/// A breaker phase change worth reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerFlip {
    Opened,
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    Open { since: u64 },
    HalfOpen,
}

/// Per-model breaker state. Pure state machine: every transition is a
/// function of `(config, phase, failures, now)` — no clocks, no
/// randomness.
#[derive(Debug)]
pub(crate) struct Breaker {
    config: Option<BreakerConfig>,
    phase: Phase,
    failures: u32,
    probe: Option<u64>,
}

impl Breaker {
    pub(crate) fn new(config: Option<BreakerConfig>) -> Breaker {
        Breaker {
            config,
            phase: Phase::Closed,
            failures: 0,
            probe: None,
        }
    }

    /// Routes one admission at virtual tick `now`. May transition
    /// `Open → HalfOpen` (cooldown elapsed); the caller emits the
    /// half-open event and registers the probe ticket.
    pub(crate) fn admit(&mut self, now: u64) -> Admission {
        let Some(config) = self.config else {
            return Admission::Primary;
        };
        match self.phase {
            Phase::Closed => Admission::Primary,
            Phase::Open { since } if now >= since.saturating_add(config.cooldown_ticks) => {
                self.phase = Phase::HalfOpen;
                self.probe = None;
                Admission::Probe
            }
            Phase::Open { .. } => config
                .fallback
                .map_or(Admission::Refuse, Admission::Fallback),
            Phase::HalfOpen if self.probe.is_none() => Admission::Probe,
            Phase::HalfOpen => config
                .fallback
                .map_or(Admission::Refuse, Admission::Fallback),
        }
    }

    /// Registers the ticket carrying the half-open probe.
    pub(crate) fn set_probe(&mut self, ticket: u64) {
        self.probe = Some(ticket);
    }

    /// Feeds one batch outcome for this model back into the machine.
    /// `tickets` identifies the probe; `ok` is whether the batch
    /// produced predictions after every supervised attempt.
    pub(crate) fn on_batch(&mut self, ok: bool, tickets: &[u64], now: u64) -> Option<BreakerFlip> {
        let config = self.config?;
        if let Some(probe) = self.probe {
            if tickets.contains(&probe) {
                self.probe = None;
                self.failures = 0;
                return if ok {
                    self.phase = Phase::Closed;
                    Some(BreakerFlip::Closed)
                } else {
                    self.phase = Phase::Open { since: now };
                    Some(BreakerFlip::Opened)
                };
            }
        }
        if self.phase != Phase::Closed {
            // Stragglers admitted before the trip neither heal nor
            // re-trip an open breaker; only the probe decides.
            return None;
        }
        if ok {
            self.failures = 0;
            None
        } else {
            self.failures += 1;
            if self.failures >= config.failure_threshold {
                self.phase = Phase::Open { since: now };
                Some(BreakerFlip::Opened)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_breaker_always_admits_primary_and_never_flips() {
        let mut breaker = Breaker::new(None);
        assert_eq!(breaker.admit(0), Admission::Primary);
        for tick in 0..32 {
            assert_eq!(breaker.on_batch(false, &[tick], tick), None);
            assert_eq!(breaker.admit(tick), Admission::Primary);
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_only() {
        let mut breaker = Breaker::new(Some(BreakerConfig {
            failure_threshold: 3,
            cooldown_ticks: 10,
            fallback: None,
        }));
        assert_eq!(breaker.on_batch(false, &[0], 1), None);
        assert_eq!(breaker.on_batch(false, &[1], 2), None);
        // A success resets the streak.
        assert_eq!(breaker.on_batch(true, &[2], 3), None);
        assert_eq!(breaker.on_batch(false, &[3], 4), None);
        assert_eq!(breaker.on_batch(false, &[4], 5), None);
        assert_eq!(breaker.on_batch(false, &[5], 6), Some(BreakerFlip::Opened));
        // Open without fallback refuses; with the cooldown unelapsed.
        assert_eq!(breaker.admit(7), Admission::Refuse);
    }

    #[test]
    fn open_breaker_with_fallback_degrades_until_cooldown() {
        let mut breaker = Breaker::new(Some(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 5,
            fallback: Some(2),
        }));
        assert_eq!(breaker.on_batch(false, &[0], 10), Some(BreakerFlip::Opened));
        assert_eq!(breaker.admit(11), Admission::Fallback(2));
        assert_eq!(breaker.admit(14), Admission::Fallback(2));
        // Tick 15 = since(10) + cooldown(5): the next admission probes.
        assert_eq!(breaker.admit(15), Admission::Probe);
        breaker.set_probe(77);
        // Half-open with a probe in flight still degrades everyone else.
        assert_eq!(breaker.admit(15), Admission::Fallback(2));
    }

    #[test]
    fn probe_outcome_closes_or_reopens() {
        let config = Some(BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 2,
            fallback: None,
        });
        let mut breaker = Breaker::new(config);
        assert_eq!(breaker.on_batch(false, &[0], 0), Some(BreakerFlip::Opened));
        assert_eq!(breaker.admit(2), Admission::Probe);
        breaker.set_probe(9);
        // A non-probe straggler batch failing while half-open is inert.
        assert_eq!(breaker.on_batch(false, &[4, 5], 2), None);
        // The probe batch succeeding closes the breaker.
        assert_eq!(
            breaker.on_batch(true, &[8, 9], 2),
            Some(BreakerFlip::Closed)
        );
        assert_eq!(breaker.admit(3), Admission::Primary);

        // And the probe failing reopens with a fresh cooldown epoch.
        let mut breaker = Breaker::new(config);
        assert_eq!(breaker.on_batch(false, &[0], 0), Some(BreakerFlip::Opened));
        assert_eq!(breaker.admit(2), Admission::Probe);
        breaker.set_probe(3);
        assert_eq!(breaker.on_batch(false, &[3], 2), Some(BreakerFlip::Opened));
        assert_eq!(breaker.admit(3), Admission::Refuse);
        assert_eq!(breaker.admit(4), Admission::Probe);
    }

    #[test]
    fn defaults_disable_every_defense() {
        let resilience = ResilienceConfig::default();
        assert_eq!(resilience.queue_limit, None);
        assert_eq!(resilience.deadline_ticks, None);
        assert_eq!(resilience.breaker, None);
        let breaker = BreakerConfig::default();
        assert_eq!(breaker.failure_threshold, 3);
        assert_eq!(breaker.fallback, None);
    }
}
