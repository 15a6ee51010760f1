//! Chaos conformance: the resilience layer's outcomes are a pure
//! function of `(ChaosPlan, ResilienceConfig, request stream)` — never
//! of scheduling. Four pins:
//!
//! 1. The **full `LoadOutcome`** (counters *and* the event trace) is
//!    bit-identical at 1 and 4 engine threads under combined chaos.
//! 2. Per-item outcomes are invariant under **shuffled arrival** when
//!    the chaos is item-keyed.
//! 3. The **circuit breaker** walks its closed → open → half-open
//!    cycle on an exactly pinned event trace, and degrades to a
//!    fallback model when one is configured.
//! 4. Replicas lost to chaos panics are **rebuilt bit-identically**:
//!    post-retry predictions equal a never-chaos'd twin's.
//! 5. A request expired when a **flush-on-stall** seals its partial
//!    window reports `DeadlineMissed` exactly like a count-window
//!    seal: same event shape, same measured latency, same
//!    `serve.deadline_missed` metric.

use nc_core::{
    ChaosPlan, Engine, ExperimentScale, FaultModel, FaultPlan, FitBudget, ModelSpec, Supervision,
};
use nc_dataset::{digits::DigitsSpec, Dataset, Difficulty};
use nc_mlp::Activation;
use nc_serve::{
    run_load, BreakerConfig, LoadOutcome, LoadPlan, ModelSnapshot, ResilienceConfig, Response,
    ServeConfig, ServeError, ServeEvent, Server,
};
use nc_substrate::rng::SplitMix64;
use std::sync::Arc;

fn data() -> (Arc<Dataset>, Dataset) {
    let (train, test) = DigitsSpec {
        train: 24,
        test: 10,
        seed: 3,
        difficulty: Difficulty::default(),
    }
    .generate();
    (Arc::new(train), test)
}

fn snapshot(name: &str, train: &Arc<Dataset>, seed: u64) -> Arc<ModelSnapshot> {
    let spec = ModelSpec::QuantizedMlp {
        sizes: vec![784, 6, 10],
        activation: Activation::sigmoid(),
        seed,
    };
    let budget = FitBudget {
        epochs: 1,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    };
    Arc::new(ModelSnapshot::prepare(name, spec, budget, Arc::clone(train), None).unwrap())
}

fn engine(threads: usize) -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .threads(threads)
            .scale(ExperimentScale::Tiny)
            .build(),
    )
}

/// Every chaos channel and every defense at once, at a given engine
/// thread count, with a struck item panicking on its first
/// `panic_attempts` attempts (of the four `max_retries: 3` allows).
fn chaotic_load(threads: usize, panic_attempts: u32) -> LoadOutcome {
    let (train, test) = data();
    let chaos = ChaosPlan {
        panic_rate: 0.25,
        panic_attempts,
        delay_rate: 0.5,
        max_delay_ticks: 6,
        poison_rate: 0.2,
        burst_period: 3,
        burst_width: 1,
        burst_faults: Some(FaultPlan::new(FaultModel::StuckAt1, 0.02, 0xB0).unwrap()),
        ..ChaosPlan::quiet(0xC4A0_0001)
    };
    let config = ServeConfig {
        batch_window: 4,
        supervision: Supervision { max_retries: 3 },
        resilience: ResilienceConfig {
            queue_limit: Some(4),
            deadline_ticks: Some(4),
            ..ResilienceConfig::default()
        },
        chaos: Some(chaos),
    };
    let server = Server::new(engine(threads), config, vec![snapshot("q", &train, 51)]).unwrap();
    run_load(
        &server,
        &test,
        &["q"],
        &LoadPlan {
            seed: 0xC4A0_5EED,
            users: 6,
            requests: 64,
            think_max: 1,
        },
    )
    .unwrap()
}

#[test]
fn full_outcome_trace_is_bit_identical_across_thread_counts() {
    // One attempt heals on the first retry; three reach the last retry
    // `max_retries: 3` allows, so every retry attempt runs.
    for panic_attempts in [1, 3] {
        let single = chaotic_load(1, panic_attempts);
        let pooled = chaotic_load(4, panic_attempts);
        // The whole outcome — counters and the ordered event trace —
        // must match, not just the totals.
        assert_eq!(single, pooled, "panic_attempts {panic_attempts}");

        // And the chaos actually fired: every channel shows up in the
        // run.
        assert!(single.shed > 0, "queue limit never shed: {single:?}");
        assert!(
            single.deadline_missed > 0,
            "no deadline ever missed: {single:?}"
        );
        assert!(single.completed + single.failed == 64, "{single:?}");
        let has = |pred: fn(&ServeEvent) -> bool| single.events.iter().any(pred);
        assert!(has(|e| matches!(e, ServeEvent::Poisoned { .. })));
        assert!(has(|e| matches!(e, ServeEvent::Burst { .. })));
        assert!(has(|e| matches!(e, ServeEvent::Shed { .. })));
        assert!(has(|e| matches!(e, ServeEvent::DeadlineMissed { .. })));
        // Every struck batch loses one replica per panicking attempt
        // and then heals within the retry budget.
        let lost: Vec<u32> = single
            .events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::ReplicaQuarantined { lost, .. } => Some(*lost),
                _ => None,
            })
            .collect();
        assert!(!lost.is_empty(), "no replica was ever lost: {single:?}");
        assert!(
            lost.iter().all(|&l| l == panic_attempts),
            "panic_attempts {panic_attempts}: {lost:?}"
        );
    }
}

#[test]
fn stall_flushed_deadline_misses_report_identically_to_count_window_seals() {
    let (train, test) = data();
    // A window wider than the request stream: only a flush-on-stall can
    // ever seal, so every miss below travels the stall path.
    let recorder = Arc::new(nc_obs::MemoryRecorder::new());
    let engine = Arc::new(
        Engine::builder()
            .threads(1)
            .scale(ExperimentScale::Tiny)
            .recorder(Arc::clone(&recorder) as Arc<dyn nc_obs::Recorder>)
            .build(),
    );
    let config = ServeConfig {
        batch_window: 16,
        resilience: ResilienceConfig {
            deadline_ticks: Some(1),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::new(engine, config, vec![snapshot("q", &train, 51)]).unwrap();
    let t = server.submit("q", &test.samples()[0].pixels, 0).unwrap();
    // The request sits in its partial window while the clock outruns
    // its deadline (admitted at tick 0, deadline 1, flushed at tick 3).
    for _ in 0..3 {
        server.advance_tick();
    }
    assert_eq!(server.drain(), 0, "the count window must never seal");
    server.flush();
    assert_eq!(server.drain(), 1);

    let response = server.take_response(t).unwrap();
    assert_eq!(
        response.outcome,
        Err(ServeError::DeadlineMissed { deadline: 1, at: 3 })
    );
    // The unified contract: a seal-time miss pulls its stopwatch like
    // any completed request (the recorder is enabled, so the watch ran)
    // and lands in the same metric a completion-time miss feeds.
    assert!(
        response.latency_ns.is_some(),
        "stall-flushed miss must report its measured latency"
    );
    assert_eq!(
        server.take_events(),
        vec![ServeEvent::DeadlineMissed {
            tick: 3,
            ticket: t.0,
            batch: 0,
            at_seal: true
        }]
    );
    let snap = recorder.snapshot();
    assert_eq!(
        snap.counters.get("serve.deadline_missed").copied(),
        Some(1),
        "seal-time miss must count in serve.deadline_missed: {snap:?}"
    );
}

#[test]
fn item_keyed_chaos_outcomes_are_arrival_order_invariant() {
    let (train, test) = data();
    // Item-keyed channels only: panics (healed by one engine retry) and
    // poison. No delays (batch-keyed) and no admission policy, so the
    // per-item outcome is a function of the item alone.
    let chaos = ChaosPlan {
        panic_rate: 0.3,
        panic_attempts: 1,
        poison_rate: 0.3,
        ..ChaosPlan::quiet(0xC4A0_0002)
    };
    let snap = snapshot("q", &train, 51);
    let items: Vec<u64> = (0..u64::try_from(test.len()).unwrap()).collect();

    let outcomes_for = |order: &[u64]| -> Vec<(u64, Result<usize, ServeError>)> {
        let config = ServeConfig {
            batch_window: 3,
            supervision: Supervision { max_retries: 1 },
            chaos: Some(chaos),
            ..ServeConfig::default()
        };
        let server = Server::new(engine(2), config, vec![Arc::clone(&snap)]).unwrap();
        let tickets: Vec<_> = order
            .iter()
            .map(|&item| {
                let pixels = &test.samples()[usize::try_from(item).unwrap()].pixels;
                (item, server.submit("q", pixels, item).unwrap())
            })
            .collect();
        server.run_until_idle();
        let mut out: Vec<(u64, Result<usize, ServeError>)> = tickets
            .into_iter()
            .map(|(item, t)| (item, server.take_response(t).unwrap().outcome))
            .collect();
        out.sort_by_key(|&(item, _)| item);
        out
    };

    let baseline = outcomes_for(&items);
    assert!(baseline.iter().all(|(_, o)| o.is_ok()), "{baseline:?}");
    let mut rng = SplitMix64::new(0x5_4FFE);
    for _ in 0..3 {
        let mut shuffled = items.clone();
        // Fisher–Yates off the seeded stream.
        for i in (1..shuffled.len()).rev() {
            let j = rng.next_index(i + 1);
            shuffled.swap(i, j);
        }
        assert_eq!(outcomes_for(&shuffled), baseline);
    }
}

#[test]
fn breaker_cycle_walks_a_pinned_event_trace() {
    let (train, test) = data();
    // Panics strike every attempt of every item until tick 6 heals the
    // plan, so each pre-heal batch fails outright (no retries) and the
    // breaker trips, probes, re-trips, and finally closes.
    let chaos = ChaosPlan {
        panic_rate: 1.0,
        panic_attempts: u32::MAX,
        panic_until_tick: 6,
        ..ChaosPlan::quiet(0xC4A0_0003)
    };
    let config = ServeConfig {
        batch_window: 1,
        supervision: Supervision { max_retries: 0 },
        resilience: ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                cooldown_ticks: 3,
                fallback: None,
            }),
            ..ResilienceConfig::default()
        },
        chaos: Some(chaos),
    };
    let server = Server::new(engine(1), config, vec![snapshot("q", &train, 51)]).unwrap();

    let mut served = Vec::new();
    for tick in 1..=9u64 {
        assert_eq!(server.advance_tick(), tick);
        let submitted = server.submit("q", &test.samples()[0].pixels, tick);
        match (tick, submitted) {
            // Open breaker, no fallback: refused at admission.
            (3 | 4 | 6 | 7, Err(ServeError::BreakerOpen { .. })) => {}
            (3 | 4 | 6 | 7, other) => panic!("tick {tick}: expected refusal, got {other:?}"),
            (_, Ok(ticket)) => {
                server.drain();
                served.push((tick, server.take_response(ticket).unwrap()));
            }
            (_, Err(other)) => panic!("tick {tick}: {other}"),
        }
    }

    // Tickets are dense over *admitted* requests: ticks 1,2,5,8,9.
    let events = server.take_events();
    assert_eq!(
        events,
        vec![
            ServeEvent::ReplicaQuarantined {
                tick: 1,
                model: 0,
                batch: 0,
                lost: 1
            },
            ServeEvent::ReplicaQuarantined {
                tick: 2,
                model: 0,
                batch: 1,
                lost: 1
            },
            ServeEvent::BreakerOpened { tick: 2, model: 0 },
            ServeEvent::Shed {
                tick: 3,
                model: 0,
                item: 3
            },
            ServeEvent::Shed {
                tick: 4,
                model: 0,
                item: 4
            },
            // Cooldown elapsed: ticket 2 carries the half-open probe,
            // which still panics (tick 5 < heal tick 6) and re-opens.
            ServeEvent::BreakerHalfOpen {
                tick: 5,
                model: 0,
                probe: 2
            },
            ServeEvent::ReplicaQuarantined {
                tick: 5,
                model: 0,
                batch: 2,
                lost: 1
            },
            ServeEvent::BreakerOpened { tick: 5, model: 0 },
            ServeEvent::Shed {
                tick: 6,
                model: 0,
                item: 6
            },
            ServeEvent::Shed {
                tick: 7,
                model: 0,
                item: 7
            },
            // Healed: the second probe succeeds and closes the breaker.
            ServeEvent::BreakerHalfOpen {
                tick: 8,
                model: 0,
                probe: 3
            },
            ServeEvent::BreakerClosed { tick: 8, model: 0 },
        ]
    );
    // Pre-heal batches answer with the batch failure; post-heal ones
    // predict.
    for (tick, response) in &served {
        match tick {
            1 | 2 | 5 => assert!(
                matches!(response.outcome, Err(ServeError::BatchFailed { .. })),
                "tick {tick}: {response:?}"
            ),
            _ => assert!(response.outcome.is_ok(), "tick {tick}: {response:?}"),
        }
        assert!(!response.degraded);
    }
}

#[test]
fn open_breaker_degrades_to_the_fallback_model() {
    let (train, test) = data();
    let chaos = ChaosPlan {
        panic_rate: 1.0,
        panic_attempts: u32::MAX,
        panic_until_tick: 2,
        ..ChaosPlan::quiet(0xC4A0_0004)
    };
    // `panics_item` keys on the item, and the fallback model's batches
    // carry the same items — but model 1's batches run *after* the heal
    // tick here, so only the primary's batch fails.
    let config = ServeConfig {
        batch_window: 1,
        supervision: Supervision { max_retries: 0 },
        resilience: ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                cooldown_ticks: 10,
                fallback: Some(1),
            }),
            ..ResilienceConfig::default()
        },
        chaos: Some(chaos),
    };
    let snapshots = vec![snapshot("hot", &train, 51), snapshot("spare", &train, 52)];
    let server = Server::new(engine(1), config, snapshots).unwrap();

    // Tick 1: the hot model's batch panics; threshold 1 trips it open.
    server.advance_tick();
    let doomed = server.submit("hot", &test.samples()[0].pixels, 0).unwrap();
    server.drain();
    assert!(matches!(
        server.take_response(doomed).unwrap().outcome,
        Err(ServeError::BatchFailed { .. })
    ));

    // Tick 2 (healed): requests for `hot` now ride the spare.
    server.advance_tick();
    let ticket = server.submit("hot", &test.samples()[1].pixels, 1).unwrap();
    server.drain();
    let response = server.take_response(ticket).unwrap();
    assert!(response.degraded, "{response:?}");
    assert_eq!(response.model, 1, "served by the fallback snapshot");
    assert!(response.outcome.is_ok(), "{response:?}");

    let events = server.take_events();
    assert!(
        events.contains(&ServeEvent::Degraded {
            tick: 2,
            ticket: ticket.0,
            from: 0,
            to: 1
        }),
        "{events:?}"
    );
}

#[test]
fn quarantined_replicas_rebuild_bit_identically() {
    // One panicking attempt healed by one retry, and three healed by
    // the last of three retries.
    for (panic_attempts, max_retries) in [(1, 1), (3, 3)] {
        quarantined_replicas_rebuild_bit_identically_at(panic_attempts, max_retries);
    }
}

fn quarantined_replicas_rebuild_bit_identically_at(panic_attempts: u32, max_retries: u32) {
    let (train, test) = data();
    // Every batch drained before tick 4 loses its replica to a panic on
    // each of its first `panic_attempts` attempts; the engine's retries
    // rerun it on freshly rebuilt replicas.
    let chaos = ChaosPlan {
        panic_rate: 1.0,
        panic_attempts,
        panic_until_tick: 4,
        ..ChaosPlan::quiet(0xC4A0_0005)
    };
    // Each run's responses, and the replicas its attempts consumed.
    let run = |chaos: Option<ChaosPlan>, snap: &Arc<ModelSnapshot>| -> (Vec<Response>, u32) {
        let config = ServeConfig {
            batch_window: 2,
            supervision: Supervision { max_retries },
            chaos,
            ..ServeConfig::default()
        };
        let server = Server::new(engine(1), config, vec![Arc::clone(snap)]).unwrap();
        let mut tickets = Vec::new();
        for (i, sample) in test.samples().iter().enumerate() {
            server.advance_tick();
            tickets.push(
                server
                    .submit("q", &sample.pixels, u64::try_from(i).unwrap())
                    .unwrap(),
            );
            server.run_until_idle();
        }
        let lost = server
            .take_events()
            .iter()
            .map(|e| match e {
                ServeEvent::ReplicaQuarantined { lost, .. } => *lost,
                _ => 0,
            })
            .sum();
        let responses = tickets
            .into_iter()
            .map(|t| server.take_response(t).unwrap())
            .collect();
        (responses, lost)
    };
    let (stormy, stormy_lost) = run(Some(chaos), &snapshot("q", &train, 51));
    let (calm, calm_lost) = run(None, &snapshot("q", &train, 51));

    // The chaos really consumed replicas...
    assert!(stormy_lost > 0, "no replica was ever lost");
    assert_eq!(calm_lost, 0);
    // ...and every post-retry prediction matches the never-chaos'd twin
    // bit for bit: rebuilt replicas are the same model.
    assert_eq!(stormy.len(), calm.len());
    for (s, c) in stormy.iter().zip(&calm) {
        assert_eq!(s.outcome, c.outcome, "{s:?} vs {c:?}");
        assert!(s.outcome.is_ok(), "{s:?}");
    }
}
