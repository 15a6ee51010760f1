//! The in-process serving front end: validate → admit (shed / breaker
//! / deadline-stamp) → coalesce → execute on the engine's supervised
//! jobs → respond, emitting the deterministic [`ServeEvent`] trace
//! along the way.

use crate::coalescer::{CoalescedRequest, Coalescer, SealedBatch, Ticket};
use crate::resilience::{Admission, Breaker, BreakerFlip, ResilienceConfig, ServeEvent};
use crate::snapshot::ModelSnapshot;
use crate::ServeError;
use nc_core::{ChaosPlan, Engine, FaultPlan, Job, Supervision};
use nc_obs::Stopwatch;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serving policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Requests per model a batch seals at (count-based, clamped to at
    /// least 1; see [`Coalescer`] for why it is not a time window).
    pub batch_window: usize,
    /// Supervision policy batches execute under: panic isolation always,
    /// plus `max_retries` deterministic retries.
    pub supervision: Supervision,
    /// Admission control, deadlines, and circuit breaking. The default
    /// disables all of them.
    pub resilience: ResilienceConfig,
    /// Optional seeded chaos schedule (replica panics, slow batches,
    /// poisoned responses, transient-fault bursts) — the test harness
    /// the resilience layer is measured under.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    /// Window of 8 — the knee of the latency/throughput frontier at the
    /// bench's model sizes — fail-fast supervision, no resilience
    /// policy, no chaos.
    fn default() -> Self {
        ServeConfig {
            batch_window: 8,
            supervision: Supervision::default(),
            resilience: ResilienceConfig::default(),
            chaos: None,
        }
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's admission ticket.
    pub ticket: Ticket,
    /// Index of the model snapshot that served it (the fallback's index
    /// for a degraded request).
    pub model: usize,
    /// The request's stream item index (echoed from
    /// [`Server::submit`]).
    pub item: u64,
    /// Sequence number of the sealed batch that carried it.
    pub batch: u64,
    /// The predicted class, or why the batch could not produce one.
    pub outcome: Result<usize, ServeError>,
    /// `true` when a tripped breaker degraded this request to the
    /// fallback model.
    pub degraded: bool,
    /// Admission→response latency; `None` when the engine's recorder is
    /// disabled (the clock is never read then).
    pub latency_ns: Option<u64>,
}

/// Everything mutable, guarded by one mutex: the admission queue, the
/// virtual clock, the per-ticket stopwatches, the finished responses,
/// the breakers, the event trace, and the in-flight count.
#[derive(Debug)]
struct ServerState {
    coalescer: Coalescer,
    now: u64,
    watches: BTreeMap<u64, Stopwatch>,
    responses: BTreeMap<u64, Response>,
    breakers: Vec<Breaker>,
    degraded: BTreeSet<u64>,
    events: Vec<ServeEvent>,
    in_flight: usize,
}

/// The in-process inference server. Thread-safe: any thread may
/// [`Server::submit`]; any thread may [`Server::drain`] — execution
/// parallelism comes from the engine's worker pool, the server itself
/// spawns nothing (lint rule R6).
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    config: ServeConfig,
    snapshots: Vec<Arc<ModelSnapshot>>,
    names: BTreeMap<String, usize>,
    state: Mutex<ServerState>,
}

impl Server {
    /// A server over `snapshots`, executing on `engine`.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModels`] without snapshots,
    /// [`ServeError::DuplicateModel`] when two share a name,
    /// [`ServeError::Config`] for an invalid chaos plan or an
    /// out-of-range breaker fallback index.
    pub fn new(
        engine: Arc<Engine>,
        config: ServeConfig,
        snapshots: Vec<Arc<ModelSnapshot>>,
    ) -> Result<Server, ServeError> {
        if snapshots.is_empty() {
            return Err(ServeError::NoModels);
        }
        let mut names = BTreeMap::new();
        for (index, snapshot) in snapshots.iter().enumerate() {
            if names.insert(snapshot.name().to_string(), index).is_some() {
                return Err(ServeError::DuplicateModel(snapshot.name().to_string()));
            }
        }
        if let Some(chaos) = &config.chaos {
            chaos
                .validate()
                .map_err(|e| ServeError::Config(format!("chaos plan: {e}")))?;
        }
        if let Some(breaker) = &config.resilience.breaker {
            if let Some(fallback) = breaker.fallback {
                if fallback >= snapshots.len() {
                    return Err(ServeError::Config(format!(
                        "breaker fallback index {fallback} out of range ({} models)",
                        snapshots.len()
                    )));
                }
            }
        }
        let shapes: Vec<(usize, usize)> = snapshots
            .iter()
            .map(|s| (s.input_dim(), s.num_classes()))
            .collect();
        let coalescer = Coalescer::new(&shapes, config.batch_window);
        let breakers = (0..snapshots.len())
            .map(|_| Breaker::new(config.resilience.breaker))
            .collect();
        Ok(Server {
            engine,
            config,
            snapshots,
            names,
            state: Mutex::new(ServerState {
                coalescer,
                now: 0,
                watches: BTreeMap::new(),
                responses: BTreeMap::new(),
                breakers,
                degraded: BTreeSet::new(),
                events: Vec::new(),
                in_flight: 0,
            }),
        })
    }

    /// Advances the virtual clock one tick and returns the new time.
    /// The load generator calls this once per closed-loop tick; direct
    /// drivers call it to model time passing between submissions.
    pub fn advance_tick(&self) -> u64 {
        let mut state = lock_or_recover(&self.state);
        state.now += 1;
        state.now
    }

    /// Takes the resilience event trace accumulated so far (shed,
    /// degraded, deadline, quarantine, burst, poison, breaker
    /// transitions), in emission order. Emission order is deterministic
    /// — events are only appended by `submit`/`drain` calls, in a fixed
    /// order within each — so the trace is part of the bit-identical
    /// outcome contract.
    pub fn take_events(&self) -> Vec<ServeEvent> {
        std::mem::take(&mut lock_or_recover(&self.state).events)
    }

    /// Admits one request: `item` is the request's stream index, which
    /// fixes its presentation seed to the offline convention
    /// (`EVAL_PRESENTATION_SEED_BASE | item`) no matter which batch it
    /// lands in. Returns the ticket [`Server::take_response`] answers
    /// under.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] / [`ServeError::Geometry`] — both
    /// checked before admission, so a bad request never occupies a
    /// batch slot. [`ServeError::Shed`] when the queue is at the
    /// policy's limit, [`ServeError::BreakerOpen`] when the model's
    /// breaker is open and no (geometry-compatible) fallback exists.
    pub fn submit(&self, model: &str, pixels: &[u8], item: u64) -> Result<Ticket, ServeError> {
        let Some(&index) = self.names.get(model) else {
            return Err(ServeError::UnknownModel(model.to_string()));
        };
        let expected = self.snapshots[index].input_dim();
        if pixels.len() != expected {
            return Err(ServeError::Geometry {
                model: model.to_string(),
                expected,
                got: pixels.len(),
            });
        }
        // Latency is admission→response; the watch only runs (and the
        // clock is only read) when someone is listening.
        let watch = Stopwatch::start_if(self.engine.recorder().enabled());
        let resilience = &self.config.resilience;
        let mut state = lock_or_recover(&self.state);
        let now = state.now;

        // Bounded admission: a full queue sheds before any batch slot
        // is consumed.
        if let Some(limit) = resilience.queue_limit {
            if state.in_flight >= limit {
                state.events.push(ServeEvent::Shed {
                    tick: now,
                    model: index,
                    item,
                });
                drop(state);
                self.engine.recorder().add("serve.shed", 1);
                return Err(ServeError::Shed {
                    model: model.to_string(),
                });
            }
        }

        // Circuit breaking: route to primary, probe, fallback, or
        // refuse. The probe ticket is registered after admission.
        let mut serve_on = index;
        let mut is_probe = false;
        match state.breakers[index].admit(now) {
            Admission::Primary => {}
            Admission::Probe => is_probe = true,
            Admission::Fallback(fallback)
                if self.snapshots[fallback].input_dim() == pixels.len() =>
            {
                serve_on = fallback;
            }
            Admission::Fallback(_) | Admission::Refuse => {
                state.events.push(ServeEvent::Shed {
                    tick: now,
                    model: index,
                    item,
                });
                drop(state);
                self.engine.recorder().add("serve.breaker.rejected", 1);
                return Err(ServeError::BreakerOpen {
                    model: model.to_string(),
                });
            }
        }

        let deadline = resilience.deadline_ticks.map(|ticks| now + ticks);
        let ticket = state.coalescer.admit(serve_on, item, pixels, deadline);
        if is_probe {
            state.breakers[index].set_probe(ticket.0);
            state.events.push(ServeEvent::BreakerHalfOpen {
                tick: now,
                model: index,
                probe: ticket.0,
            });
        }
        let degraded = serve_on != index;
        if degraded {
            state.degraded.insert(ticket.0);
            state.events.push(ServeEvent::Degraded {
                tick: now,
                ticket: ticket.0,
                from: index,
                to: serve_on,
            });
        }
        state.watches.insert(ticket.0, watch);
        state.in_flight += 1;
        drop(state);
        let recorder = self.engine.recorder();
        recorder.add("serve.requests", 1);
        if degraded {
            recorder.add("serve.degraded", 1);
        }
        if is_probe {
            recorder.add("serve.breaker.half_open", 1);
        }
        Ok(ticket)
    }

    /// Seals every partial batch — the deterministic stand-in for a
    /// batch-window timeout, invoked by callers (or the load generator)
    /// when the request stream stalls.
    pub fn flush(&self) {
        lock_or_recover(&self.state).coalescer.flush();
    }

    /// Executes every sealed batch on the engine and files the
    /// responses; returns how many requests completed (including
    /// requests answered with an error). Batches run as supervised
    /// jobs: a panicking batch is caught (and retried per the config's
    /// [`Supervision`]), its requests answer with
    /// [`ServeError::BatchFailed`], and sibling batches complete.
    /// Under a chaos plan this is also where scheduled panics, slow
    /// batches, response poison, and transient-fault bursts strike.
    pub fn drain(&self) -> usize {
        let (mut batches, now) = {
            let mut state = lock_or_recover(&self.state);
            (state.coalescer.take_sealed(), state.now)
        };
        if batches.is_empty() {
            return 0;
        }
        let recorder = self.engine.recorder();
        let chaos = self.config.chaos;
        let mut events: Vec<ServeEvent> = Vec::new();

        // Seal-time deadline enforcement: requests already expired when
        // their batch seals answer immediately and never run; each
        // leaves its batch's requests and slab together.
        let mut responses: Vec<Response> = Vec::new();
        if self.config.resilience.deadline_ticks.is_some() {
            let expired = |r: &CoalescedRequest| r.deadline.is_some_and(|d| now > d);
            for batch in &mut batches {
                let requests = &batch.requests;
                batch.slab.retain(|k| !expired(&requests[k]));
                for request in batch.requests.extract_if(.., |r| expired(r)) {
                    events.push(ServeEvent::DeadlineMissed {
                        tick: now,
                        ticket: request.ticket.0,
                        batch: batch.seq,
                        at_seal: true,
                    });
                    responses.push(Response {
                        ticket: request.ticket,
                        model: batch.model,
                        item: request.item,
                        batch: batch.seq,
                        outcome: Err(ServeError::DeadlineMissed {
                            deadline: request.deadline.unwrap_or_default(),
                            at: now,
                        }),
                        degraded: false,
                        latency_ns: None,
                    });
                }
            }
            batches.retain(|b| !b.requests.is_empty());
        }

        // The tick-wide transient-fault burst, decorrelated per batch.
        let storm = chaos.and_then(|c| c.burst_plan(now));
        if storm.is_some() && !batches.is_empty() {
            events.push(ServeEvent::Burst {
                tick: now,
                batches: u64::try_from(batches.len()).unwrap_or(u64::MAX),
            });
        }

        // Replica-loss accumulators, one per batch slot: workers record
        // each panicking attempt here before resuming the unwind, so
        // quarantine accounting is exact at any thread count.
        let losses: Vec<AtomicU32> = (0..batches.len()).map(|_| AtomicU32::new(0)).collect();

        // Each job carries its batch's slot; the worker borrows the
        // batch, so a retried attempt runs on the same slab.
        let jobs = batches
            .iter()
            .enumerate()
            .map(|(slot, batch)| {
                Job::new(
                    format!("serve/batch{}", batch.seq),
                    u64::try_from(batch.requests.len()).unwrap_or(u64::MAX),
                    slot,
                )
            })
            .collect();
        let results =
            self.engine
                .run_jobs_supervised(jobs, self.config.supervision, |&slot, attempt| {
                    let batch = &batches[slot];
                    let burst = storm.map(|plan| plan.for_site(batch.seq));
                    self.run_batch(batch, now, burst, attempt, &losses[slot])
                });

        // Pull every finished stopwatch out in one short critical
        // section, then read the clock and file metrics with the lock
        // dropped: `Recorder` is open-ended `dyn` (an implementation may
        // block, or call back into the server and re-take `state`), and
        // `submit` already records outside the lock for the same reason
        // — the admission and drain paths must agree on that order.
        let mut pulled: Vec<(u64, Option<Stopwatch>)> = Vec::new();
        {
            let mut state = lock_or_recover(&self.state);
            for response in &responses {
                pulled.push((response.ticket.0, state.watches.remove(&response.ticket.0)));
            }
            for request in batches.iter().flat_map(|b| &b.requests) {
                pulled.push((request.ticket.0, state.watches.remove(&request.ticket.0)));
            }
        }
        let latencies: BTreeMap<u64, u64> = pulled
            .into_iter()
            .filter_map(|(id, watch)| watch.and_then(|w| w.elapsed_ns()).map(|ns| (id, ns)))
            .collect();

        // Every response built so far is a seal-time expiration (the
        // batch loop below appends the rest). They must report exactly
        // like completion-time misses: same latency accounting from the
        // pulled stopwatches, same `serve.deadline_missed` metric —
        // whether the batch sealed on its count window or on a
        // flush-on-stall makes no difference to the request that missed.
        let mut deadline_missed = u64::try_from(responses.len()).unwrap_or(u64::MAX);
        for response in &mut responses {
            let latency_ns = latencies.get(&response.ticket.0).copied();
            if let Some(nanos) = latency_ns {
                recorder.record_latency("serve.latency_ns", nanos);
            }
            response.latency_ns = latency_ns;
        }

        let mut replica_lost = 0u64;
        let mut poisoned = 0u64;
        // `(model, ok, ticket ids)` per batch, fed to the breakers in
        // seal order inside the final critical section.
        let mut breaker_feed: Vec<(usize, bool, Vec<u64>)> = Vec::new();
        for (slot, (batch, result)) in batches.iter().zip(results).enumerate() {
            recorder.add("serve.batches", 1);
            recorder.observe("serve.batch_size", batch.requests.len() as f64);
            let lost = losses[slot].load(Ordering::Relaxed);
            if lost > 0 {
                events.push(ServeEvent::ReplicaQuarantined {
                    tick: now,
                    model: batch.model,
                    batch: batch.seq,
                    lost,
                });
                replica_lost += u64::from(lost);
            }
            let delay = chaos.map_or(0, |c| c.delay_ticks(batch.seq));
            let completion = now + delay;
            let batch_ok = matches!(&result, Ok(Ok(_)));
            breaker_feed.push((
                batch.model,
                batch_ok,
                batch.requests.iter().map(|r| r.ticket.0).collect(),
            ));
            for (k, request) in batch.requests.iter().enumerate() {
                let (ticket, item) = (request.ticket, request.item);
                let mut outcome = match &result {
                    Ok(Ok(predictions)) => {
                        predictions
                            .get(k)
                            .copied()
                            .ok_or_else(|| ServeError::BatchFailed {
                                batch: batch.seq,
                                message: "prediction missing from batch output".to_string(),
                            })
                    }
                    Ok(Err(serve_err)) => Err(serve_err.clone()),
                    Err(engine_err) => Err(ServeError::BatchFailed {
                        batch: batch.seq,
                        message: engine_err.to_string(),
                    }),
                };
                if outcome.is_ok() {
                    if let Some(deadline) = request.deadline.filter(|&d| completion > d) {
                        // The batch answered, but (chaos-delayed) past
                        // the request's deadline.
                        events.push(ServeEvent::DeadlineMissed {
                            tick: now,
                            ticket: ticket.0,
                            batch: batch.seq,
                            at_seal: false,
                        });
                        deadline_missed += 1;
                        outcome = Err(ServeError::DeadlineMissed {
                            deadline,
                            at: completion,
                        });
                    } else if let Some(plan) = chaos.filter(|c| c.poisons_item(item)) {
                        // Poison serves a deterministic wrong class —
                        // an *answered* request with a corrupted value,
                        // which is exactly why the trace records it.
                        let classes = self.snapshots[batch.model].num_classes();
                        outcome =
                            outcome.map(|honest| plan.poisoned_prediction(item, honest, classes));
                        events.push(ServeEvent::Poisoned {
                            tick: now,
                            ticket: ticket.0,
                            batch: batch.seq,
                        });
                        poisoned += 1;
                    }
                }
                let latency_ns = latencies.get(&ticket.0).copied();
                if let Some(nanos) = latency_ns {
                    recorder.record_latency("serve.latency_ns", nanos);
                }
                responses.push(Response {
                    ticket,
                    model: batch.model,
                    item,
                    batch: batch.seq,
                    outcome,
                    degraded: false,
                    latency_ns,
                });
            }
        }

        let completed = responses.len();
        {
            let mut state = lock_or_recover(&self.state);
            for (model, ok, tickets) in breaker_feed {
                match state.breakers[model].on_batch(ok, &tickets, now) {
                    Some(BreakerFlip::Opened) => {
                        events.push(ServeEvent::BreakerOpened { tick: now, model });
                    }
                    Some(BreakerFlip::Closed) => {
                        events.push(ServeEvent::BreakerClosed { tick: now, model });
                    }
                    None => {}
                }
            }
            for mut response in responses {
                response.degraded = state.degraded.remove(&response.ticket.0);
                state.responses.insert(response.ticket.0, response);
                state.in_flight = state.in_flight.saturating_sub(1);
            }
            state.events.append(&mut events);
        }
        recorder.add(
            "serve.responses",
            u64::try_from(completed).unwrap_or(u64::MAX),
        );
        if replica_lost > 0 {
            recorder.add("serve.replica_lost", replica_lost);
        }
        if deadline_missed > 0 {
            recorder.add("serve.deadline_missed", deadline_missed);
        }
        if poisoned > 0 {
            recorder.add("serve.poisoned", poisoned);
        }
        completed
    }

    /// Removes and returns the response for `ticket`, if it has been
    /// served.
    pub fn take_response(&self, ticket: Ticket) -> Option<Response> {
        lock_or_recover(&self.state).responses.remove(&ticket.0)
    }

    /// Flushes and drains until nothing is in flight; returns how many
    /// requests completed. The loop is bounded: every pass either
    /// completes requests or proves the queue empty.
    // nc-lint: allow(R12, reason = "driver that several test files run: conformance.rs, chaos.rs, determinism.rs and the server unit tests")
    pub fn run_until_idle(&self) -> usize {
        let mut total = 0;
        loop {
            total += self.drain();
            if lock_or_recover(&self.state).in_flight == 0 {
                return total;
            }
            self.flush();
            let completed = self.drain();
            total += completed;
            if completed == 0 {
                // In flight but nothing sealed nor pending: every
                // remaining ticket already has a response filed.
                return total;
            }
        }
    }

    /// One supervised attempt of one batch: check out a replica (a
    /// freshly-injected one-shot under a `burst`), run the batched
    /// prediction path on the batch's slab, and return the replica to
    /// the pool.
    ///
    /// A chaos-scheduled panic strikes *after* checkout, so it consumes
    /// the replica exactly as a real mid-inference panic would: the
    /// unwinding attempt records the loss in `lost` (quarantine
    /// accounting), the engine's supervision catches the panic, and the
    /// next checkout rebuilds bit-identically from the snapshot recipe.
    fn run_batch(
        &self,
        batch: &SealedBatch,
        now: u64,
        burst: Option<FaultPlan>,
        attempt: u32,
        lost: &AtomicU32,
    ) -> Result<Vec<usize>, ServeError> {
        let snapshot = &self.snapshots[batch.model];
        let chaos_strikes = self.config.chaos.is_some_and(|plan| {
            batch
                .requests
                .iter()
                .any(|r| plan.should_panic(r.item, now, attempt))
        });
        let mut replica = match &burst {
            Some(plan) => snapshot.burst_replica(plan)?,
            None => snapshot.replica()?,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if chaos_strikes {
                // nc-lint: allow(R5, reason = "deliberate chaos-scheduled replica panic; caught by the engine's supervision")
                panic!("chaos: scheduled replica panic (batch {})", batch.seq);
            }
            let mut predictions = Vec::new();
            replica.predict_batch(&batch.slab.batch(), &mut predictions);
            predictions
        }));
        match outcome {
            Ok(predictions) => {
                // Burst replicas carry injected faults and are
                // discarded; healthy replicas return to the pool.
                if burst.is_none() {
                    snapshot.release(replica);
                }
                Ok(predictions)
            }
            Err(panic) => {
                // The replica dies with the attempt (it is dropped
                // here, never released). Record the loss, then let the
                // engine's supervision observe the panic as usual.
                lost.fetch_add(1, Ordering::Relaxed);
                resume_unwind(panic)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalescer::presentation_seed;
    use crate::resilience::BreakerConfig;
    use nc_core::{ExperimentScale, FitBudget, ModelSpec};
    use nc_dataset::{digits::DigitsSpec, Difficulty};
    use nc_mlp::Activation;

    fn engine(threads: usize) -> Arc<Engine> {
        Arc::new(
            Engine::builder()
                .threads(threads)
                .scale(ExperimentScale::Tiny)
                .build(),
        )
    }

    fn snapshot(name: &str, seed: u64) -> Arc<ModelSnapshot> {
        let (train, _) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
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
        Arc::new(ModelSnapshot::prepare(name, spec, budget, Arc::new(train), None).unwrap())
    }

    #[test]
    fn empty_and_duplicate_registration_are_rejected() {
        assert_eq!(
            Server::new(engine(1), ServeConfig::default(), vec![]).unwrap_err(),
            ServeError::NoModels
        );
        let err = Server::new(
            engine(1),
            ServeConfig::default(),
            vec![snapshot("m", 1), snapshot("m", 2)],
        )
        .unwrap_err();
        assert_eq!(err, ServeError::DuplicateModel("m".to_string()));
    }

    #[test]
    fn invalid_chaos_and_fallback_configs_are_rejected_at_construction() {
        let mut bad_chaos = ChaosPlan::quiet(1);
        bad_chaos.panic_rate = 7.0;
        let config = ServeConfig {
            chaos: Some(bad_chaos),
            ..ServeConfig::default()
        };
        let err = Server::new(engine(1), config, vec![snapshot("q", 1)]).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");

        let config = ServeConfig {
            resilience: ResilienceConfig {
                breaker: Some(BreakerConfig {
                    fallback: Some(9),
                    ..BreakerConfig::default()
                }),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let err = Server::new(engine(1), config, vec![snapshot("q", 1)]).unwrap_err();
        assert!(err.to_string().contains("fallback index 9"), "{err}");
    }

    #[test]
    fn submit_validates_name_and_geometry_before_admission() {
        let server =
            Server::new(engine(1), ServeConfig::default(), vec![snapshot("q", 1)]).unwrap();
        assert!(matches!(
            server.submit("absent", &[0; 784], 0),
            Err(ServeError::UnknownModel(_))
        ));
        assert_eq!(
            server.submit("q", &[0; 3], 0).unwrap_err(),
            ServeError::Geometry {
                model: "q".to_string(),
                expected: 784,
                got: 3,
            }
        );
        assert_eq!(lock_or_recover(&server.state).in_flight, 0);
    }

    #[test]
    fn full_window_serves_without_an_explicit_flush() {
        let (_, test) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        let config = ServeConfig {
            batch_window: 2,
            ..ServeConfig::default()
        };
        let server = Server::new(engine(2), config, vec![snapshot("q", 1)]).unwrap();
        let t0 = server.submit("q", &test.samples()[0].pixels, 0).unwrap();
        let t1 = server.submit("q", &test.samples()[1].pixels, 1).unwrap();
        assert_eq!(server.drain(), 2);
        let r0 = server.take_response(t0).unwrap();
        let r1 = server.take_response(t1).unwrap();
        assert_eq!(r0.batch, r1.batch);
        assert!(r0.outcome.is_ok() && r1.outcome.is_ok());
        assert!(!r0.degraded && !r1.degraded);
        assert_eq!(lock_or_recover(&server.state).in_flight, 0);
        // No resilience policy, no chaos: the trace stays empty.
        assert!(server.take_events().is_empty());
        // Responses are take-once.
        assert!(server.take_response(t0).is_none());
    }

    #[test]
    fn run_until_idle_flushes_partial_windows() {
        let (_, test) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        let server =
            Server::new(engine(1), ServeConfig::default(), vec![snapshot("q", 1)]).unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| {
                server
                    .submit("q", &test.samples()[i].pixels, u64::try_from(i).unwrap())
                    .unwrap()
            })
            .collect();
        assert_eq!(server.run_until_idle(), 3);
        for t in tickets {
            assert!(server.take_response(t).unwrap().outcome.is_ok());
        }
        // Idle server: nothing to do, loop terminates immediately.
        assert_eq!(server.run_until_idle(), 0);
    }

    #[test]
    fn latency_is_none_with_a_disabled_recorder() {
        let (_, test) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        // Engine::builder() defaults to the NullRecorder (disabled), so
        // the serving path must never read the clock.
        let server =
            Server::new(engine(1), ServeConfig::default(), vec![snapshot("q", 1)]).unwrap();
        let t = server.submit("q", &test.samples()[0].pixels, 0).unwrap();
        server.run_until_idle();
        assert_eq!(server.take_response(t).unwrap().latency_ns, None);
    }

    #[test]
    fn queue_limit_sheds_with_an_event_and_no_admission() {
        let (_, test) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        let config = ServeConfig {
            resilience: ResilienceConfig {
                queue_limit: Some(2),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::new(engine(1), config, vec![snapshot("q", 1)]).unwrap();
        server.advance_tick();
        server.submit("q", &test.samples()[0].pixels, 0).unwrap();
        server.submit("q", &test.samples()[1].pixels, 1).unwrap();
        let err = server
            .submit("q", &test.samples()[2].pixels, 2)
            .unwrap_err();
        assert!(matches!(err, ServeError::Shed { .. }), "{err}");
        assert_eq!(lock_or_recover(&server.state).in_flight, 2);
        assert_eq!(
            server.take_events(),
            vec![ServeEvent::Shed {
                tick: 1,
                model: 0,
                item: 2
            }]
        );
        // Draining frees capacity; admission resumes.
        server.run_until_idle();
        assert!(server.submit("q", &test.samples()[2].pixels, 2).is_ok());
    }

    #[test]
    fn deadlines_expire_at_seal_when_the_clock_outruns_them() {
        let (_, test) = DigitsSpec {
            train: 12,
            test: 4,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        let config = ServeConfig {
            resilience: ResilienceConfig {
                deadline_ticks: Some(2),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let snap = snapshot("q", 1);
        let server = Server::new(engine(1), config, vec![Arc::clone(&snap)]).unwrap();
        let t = server.submit("q", &test.samples()[0].pixels, 0).unwrap();
        // Admitted at tick 0 with deadline 2; the queue sits unflushed
        // until tick 3 — expired before it ever ran. A second request
        // joins the same partial window at tick 2 (deadline 4), so the
        // batch seals partly expired and partly live.
        for _ in 0..2 {
            server.advance_tick();
        }
        let live = server.submit("q", &test.samples()[1].pixels, 1).unwrap();
        server.advance_tick();
        server.flush();
        assert_eq!(server.drain(), 2);
        let response = server.take_response(t).unwrap();
        assert_eq!(
            response.outcome,
            Err(ServeError::DeadlineMissed { deadline: 2, at: 3 })
        );
        // The live request runs alone and answers exactly as the
        // snapshot's model does on its own pixels and seed.
        let mut replica = snap.replica().unwrap();
        let expected = replica.predict(&test.samples()[1].pixels, presentation_seed(1));
        let response = server.take_response(live).unwrap();
        assert_eq!(response.outcome, Ok(expected));
        assert_eq!(response.batch, 0);
        let events = server.take_events();
        assert_eq!(
            events,
            vec![ServeEvent::DeadlineMissed {
                tick: 3,
                ticket: t.0,
                batch: 0,
                at_seal: true
            }]
        );
    }
}
