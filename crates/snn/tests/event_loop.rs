//! Pins the SNN presentation loop against a serial reference on random
//! configurations.
//!
//! [`Reference`] is the plain event-by-event LIF loop: encode the image
//! into a `(t, input)`-sorted train, then for every event scan every
//! neuron in index order — gate, leak, integrate, fire, inhibit, learn.
//! It is kept here, outside the library, only as the specification the
//! optimized loop must reproduce bit for bit: presentations (potentials
//! compared by `to_bits`), learned weights, thresholds, labels and
//! readouts, over random sequences of `present`, `present_learn`,
//! `present_traced`, `predict` and `self_label`, for every coding
//! scheme, every STDP rule and the fault models that act on the
//! presentation loop. A trace is the reference's `(j, t, v)` at every
//! integration and `(j, t)` at every fire.
//!
//! The reference also checks the whole-tick pass ([`TickState`]) on
//! every tick it runs without transient read faults: from the
//! reference's state at the start of the tick, the pass must decline
//! exactly the ticks in which a neuron fires, and a tick it commits must
//! leave every potential, last update and gate as the event-by-event
//! scan does.

use nc_dataset::{Dataset, Sample};
use nc_faults::{FaultModel, FaultPlan, TransientReads};
use nc_snn::network::decay_with_lut;
use nc_snn::network::Presentation;
use nc_snn::stdp_rules::StdpRule;
use nc_snn::{CodingScheme, SnnNetwork, SnnParams, SpikeCalendar, TickState};
use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;

/// "This input has not spiked yet in this presentation".
const NEVER: u32 = u32::MAX;

/// The encoded spike train of one presentation, as `(t, inputs)` ticks.
fn encode(
    coding: CodingScheme,
    pixels: &[u8],
    params: &SnnParams,
    seed: u64,
    gen_fault: Option<&FaultPlan>,
) -> Vec<(u32, Vec<usize>)> {
    let mut calendar = SpikeCalendar::default();
    calendar.fill(coding, pixels, params, seed, gen_fault);
    calendar.buckets().map(|(t, b)| (t, b.to_vec())).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The serial specification of one network's state and presentation.
struct Reference {
    inputs: usize,
    classes: usize,
    params: SnnParams,
    coding: CodingScheme,
    /// `presentation_stream_seed(0)`; the mixing is affine in the
    /// presentation seed.
    stream_base: u64,
    weights: Vec<u8>,
    thresholds: Vec<f64>,
    fire_counts: Vec<u64>,
    epoch_elapsed_ms: u64,
    lut: Vec<f64>,
    rule: StdpRule,
    reads: TransientReads,
    gen_fault: Option<FaultPlan>,
    labels: Vec<Option<usize>>,
    /// Whether the last presentation committed a pass that updated a
    /// neuron after a fire, and then fired again.
    resumed: bool,
    /// The last presentation's `(neuron, t, potential)` at every
    /// integration.
    samples: Vec<(usize, u32, f64)>,
    /// The last presentation's `(neuron, t)` at every fire.
    traced_fires: Vec<(usize, u32)>,
}

impl Reference {
    /// Snapshots a freshly built (and possibly fault-injected) network.
    fn of(net: &SnnNetwork, classes: usize, rule: StdpRule, plan: Option<&FaultPlan>) -> Self {
        let model = plan.map(|p| p.model);
        Reference {
            inputs: net.inputs(),
            classes,
            params: *net.params(),
            coding: net.coding(),
            stream_base: net.presentation_stream_seed(0),
            weights: net.weights().to_vec(),
            thresholds: net.thresholds().to_vec(),
            fire_counts: vec![0; net.params().neurons],
            epoch_elapsed_ms: 0,
            lut: net.decay_lut().to_vec(),
            rule,
            reads: plan.map_or_else(TransientReads::disabled, TransientReads::from_plan),
            gen_fault: plan
                .copied()
                .filter(|_| model == Some(FaultModel::StuckLfsrTap)),
            labels: net.labels().to_vec(),
            resumed: false,
            samples: Vec::new(),
            traced_fires: Vec::new(),
        }
    }

    /// Runs the whole-tick pass from the reference state at the start of
    /// tick `t`; returns its outcome and the state it leaves. The weight
    /// columns are gathered for the tick's own events only.
    fn pass(
        &self,
        t: u32,
        bucket: &[usize],
        potentials: &[f64],
        last_update: &[u32],
        refractory_until: &[u32],
        inhibited_until: &[u32],
    ) -> (Option<usize>, TickState) {
        let n = self.params.neurons;
        let mut state = TickState::default();
        state.reset(n);
        state.potentials.copy_from_slice(potentials);
        state.last_update_mut().copy_from_slice(last_update);
        for (j, (&r, &i)) in refractory_until.iter().zip(inhibited_until).enumerate() {
            state.raise_gate(j, r.max(i));
        }
        let columns: Vec<f64> = bucket
            .iter()
            .flat_map(|&input| (0..n).map(move |j| (input, j)))
            .map(|(input, j)| f64::from(self.weights[j * self.inputs + input]))
            .collect();
        let events: Vec<usize> = (0..bucket.len()).collect();
        let outcome = state.try_tick(&columns, &self.lut, &self.thresholds, &events, t);
        (outcome, state)
    }

    fn simulate(&mut self, pixels: &[u8], learn: bool, presentation_seed: u64) -> Presentation {
        let n = self.params.neurons;
        let seed = self.stream_base.wrapping_add(presentation_seed);
        let events = encode(
            self.coding,
            pixels,
            &self.params,
            seed,
            self.gen_fault.as_ref(),
        );
        let mut potentials = vec![0.0f64; n];
        let mut last_update = vec![0u32; n];
        let mut refractory_until = vec![0u32; n];
        let mut inhibited_until = vec![0u32; n];
        let mut last_input_spike = vec![NEVER; self.inputs];
        let mut fires = Vec::new();
        let mut winner = None;
        let all_gated = self.params.t_refrac.min(self.params.t_inhibit);
        let mut skip_until = 0u32;
        let mut committed_after_fire = false;
        self.resumed = false;
        self.samples.clear();
        self.traced_fires.clear();
        for (t, bucket) in events {
            let pass = (!self.reads.is_active()).then(|| {
                self.pass(
                    t,
                    &bucket,
                    &potentials,
                    &last_update,
                    &refractory_until,
                    &inhibited_until,
                )
            });
            let fires_before = fires.len();
            let mut updates = 0;
            for &input in &bucket {
                last_input_spike[input] = t;
                if t < skip_until {
                    continue;
                }
                for j in 0..n {
                    if t < refractory_until[j] || t < inhibited_until[j] {
                        continue;
                    }
                    let dt = u64::from(t - last_update[j]);
                    if dt > 0 {
                        potentials[j] = decay_with_lut(&self.lut, potentials[j], dt);
                    }
                    last_update[j] = t;
                    let w = self.reads.read_u8(self.weights[j * self.inputs + input]);
                    potentials[j] += f64::from(w);
                    updates += 1;
                    self.samples.push((j, t, potentials[j]));
                    if potentials[j] >= self.thresholds[j] {
                        fires.push((t, j));
                        self.traced_fires.push((j, t));
                        winner.get_or_insert(j);
                        potentials[j] = 0.0;
                        refractory_until[j] = t + self.params.t_refrac;
                        for (k, inh) in inhibited_until.iter_mut().enumerate() {
                            if k != j {
                                *inh = (*inh).max(t + self.params.t_inhibit);
                            }
                        }
                        skip_until = t + all_gated;
                        if learn {
                            self.fire_counts[j] += 1;
                            self.stdp(j, t, &last_input_spike);
                        }
                    }
                }
            }
            let fired = fires.len() > fires_before;
            if fired && committed_after_fire {
                self.resumed = true;
            }
            let Some((outcome, mut state)) = pass else {
                continue;
            };
            assert_eq!(
                outcome.is_none(),
                fired,
                "tick {t}: pass declines iff it fires"
            );
            if let Some(open) = outcome {
                assert_eq!(open * bucket.len(), updates, "tick {t}: updates");
                assert_eq!(bits(&state.potentials), bits(&potentials), "tick {t}");
                assert_eq!(
                    state.last_update_mut(),
                    last_update,
                    "tick {t}: last update"
                );
                let gates = refractory_until.iter().zip(&inhibited_until);
                let gates: Vec<u32> = gates.map(|(&r, &i)| r.max(i)).collect();
                assert_eq!(state.gate(), gates, "tick {t}: gates");
                committed_after_fire |= open > 0 && fires_before > 0;
            }
        }
        if learn {
            self.epoch_elapsed_ms += u64::from(self.params.t_period);
            if self.epoch_elapsed_ms >= self.params.homeo_epoch_ms {
                self.homeostasis();
            }
        }
        Presentation {
            winner,
            fires,
            potentials,
            tie_seed: seed,
        }
    }

    fn stdp(&mut self, neuron: usize, fire_t: u32, last_input_spike: &[u32]) {
        let row = &mut self.weights[neuron * self.inputs..(neuron + 1) * self.inputs];
        for (w, &ts) in row.iter_mut().zip(last_input_spike) {
            let dt = fire_t.saturating_sub(ts);
            *w = if ts != NEVER && dt <= self.params.t_ltp {
                self.rule.potentiate(*w, dt)
            } else {
                self.rule.depress(*w)
            };
        }
    }

    fn homeostasis(&mut self) {
        for (th, fires) in self.thresholds.iter_mut().zip(&mut self.fire_counts) {
            let sign = match (*fires).cmp(&self.params.homeo_threshold) {
                std::cmp::Ordering::Greater => 1.0,
                std::cmp::Ordering::Less => -1.0,
                std::cmp::Ordering::Equal => 0.0,
            };
            *th += sign * *th * self.params.homeo_rate;
            *th = th.max(255.0);
            *fires = 0;
        }
        self.epoch_elapsed_ms = 0;
    }

    fn self_label(&mut self, data: &Dataset) {
        let mut counts = vec![0u64; self.params.neurons * self.classes];
        let mut presented = vec![0u64; self.classes];
        for (i, s) in data.iter().enumerate() {
            let readout = self
                .simulate(&s.pixels, false, 0x1ABE_0000 | i as u64)
                .readout();
            presented[s.label] += 1;
            counts[readout * self.classes + s.label] += 1;
        }
        for (j, label) in self.labels.iter_mut().enumerate() {
            let mut best: Option<(f64, usize)> = None;
            for (c, &p) in presented.iter().enumerate() {
                if p == 0 {
                    continue;
                }
                let score = counts[j * self.classes + c] as f64 / p as f64;
                if score > 0.0 && best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, c));
                }
            }
            *label = best.map(|(_, c)| c);
        }
    }

    fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        let readout = self.simulate(pixels, false, presentation_seed).readout();
        self.labels[readout].unwrap_or(0)
    }
}

fn assert_same(got: &Presentation, want: &Presentation, what: &str) {
    assert_eq!(got.winner, want.winner, "{what}: winner");
    assert_eq!(got.fires, want.fires, "{what}: fires");
    assert_eq!(
        bits(&got.potentials),
        bits(&want.potentials),
        "{what}: potentials"
    );
    assert_eq!(got.tie_seed, want.tie_seed, "{what}: tie seed");
}

/// An image whose pixels are each lit with probability `density`, at a
/// luminance drawn from a narrow band so temporal codes repeat latencies.
fn image(rng: &mut SplitMix64, inputs: usize) -> Vec<u8> {
    let density = rng.next_range(0.2, 1.0);
    let low = rng.next_below(200);
    (0..inputs)
        .map(|_| {
            if rng.next_unit() < density {
                u8::try_from(low + rng.next_below(56)).expect("luminance below 256")
            } else {
                0
            }
        })
        .collect()
}

fn random_params(rng: &mut SplitMix64, neurons: usize) -> SnnParams {
    let t_period = 20 + rng.next_below_u32(200);
    SnnParams {
        neurons,
        t_period,
        t_leak: rng.next_range(5.0, 600.0),
        // Zero windows included: with `Tinhibit = 0` several neurons can
        // fire on one event, with `Trefrac = 0` one neuron can refire at
        // the same millisecond.
        t_inhibit: rng.next_below_u32(4) * rng.next_below_u32(8),
        t_refrac: rng.next_below_u32(4) * rng.next_below_u32(12),
        t_ltp: rng.next_below_u32(60),
        initial_threshold: rng.next_range(150.0, 4000.0),
        homeo_epoch_ms: u64::from(t_period) * (1 + rng.next_below(4)),
        homeo_threshold: rng.next_below(4),
        homeo_rate: rng.next_range(0.0, 0.3),
        max_rate_hz: rng.next_range(20.0, 250.0),
    }
}

fn random_rule(rng: &mut SplitMix64) -> StdpRule {
    match rng.next_below(3) {
        0 => StdpRule::Additive {
            delta: i16::try_from(1 + rng.next_below(40)).expect("small delta"),
        },
        1 => StdpRule::Multiplicative {
            rate: rng.next_range(0.01, 0.6),
        },
        _ => StdpRule::Exponential {
            delta: rng.next_range(0.5, 40.0),
            tau: rng.next_range(1.0, 50.0),
        },
    }
}

/// A fault plan that acts on the presentation loop, if the draw picks
/// one: transient reads, a stuck generator tap (rate codes only) or
/// dead neurons.
fn random_fault(rng: &mut SplitMix64, coding: CodingScheme) -> Option<FaultPlan> {
    let model = match rng.next_below(4) {
        0 => return None,
        1 => FaultModel::TransientRead,
        2 if coding.is_rate_code() => FaultModel::StuckLfsrTap,
        2 => return None,
        _ => FaultModel::DeadNeuron,
    };
    Some(FaultPlan::new(model, rng.next_range(0.05, 0.9), rng.next_u64()).expect("rate in [0, 1]"))
}

const CODES: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

#[test]
fn presentation_loop_matches_the_serial_reference() {
    // Full presentations that resume the pass after a fire and fire
    // again, so the harness cannot pass on first-fire-only streams.
    let resumed = std::cell::Cell::new(0usize);
    check_cases(0x5EED_100F, 256, |case, rng| {
        let inputs = 1 + rng.next_index(48);
        let neurons = 1 + rng.next_index(10);
        let classes = 1 + rng.next_index(6);
        let coding = CODES[rng.next_index(4)];
        let params = random_params(rng, neurons);
        let mut net = SnnNetwork::with_coding(inputs, classes, params, coding, rng.next_u64());
        let rule = random_rule(rng);
        net.set_stdp_rule(rule.clone());
        let plan = random_fault(rng, coding);
        if let Some(plan) = &plan {
            net.apply_fault(plan).expect("plan fits the coding");
        }
        let mut reference = Reference::of(&net, classes, rule, plan.as_ref());
        let ctx = format!("case {case}: {coding:?} {params:?} {plan:?}");
        let count = |reference: &Reference| {
            resumed.set(resumed.get() + usize::from(reference.resumed));
        };

        for op in 0..12u64 {
            let pixels = image(rng, inputs);
            let pseed = rng.next_u64();
            // Labels first, so predictions read out more than class 0.
            match if op == 0 { 5 } else { rng.next_below(6) } {
                0 => {
                    let want = reference.simulate(&pixels, false, pseed);
                    count(&reference);
                    assert_same(
                        &net.present(&pixels, pseed),
                        &want,
                        &format!("{ctx} op {op} present"),
                    );
                }
                1 | 2 => {
                    let want = reference.simulate(&pixels, true, pseed);
                    count(&reference);
                    let got = net.present_learn(&pixels, pseed);
                    assert_same(&got, &want, &format!("{ctx} op {op} present_learn"));
                }
                3 => {
                    let want = reference.predict(&pixels, pseed);
                    assert_eq!(net.predict(&pixels, pseed), want, "{ctx} op {op} predict");
                }
                4 => {
                    let want = reference.simulate(&pixels, false, pseed);
                    count(&reference);
                    let (got, trace) = net.present_traced(&pixels, pseed);
                    let what = format!("{ctx} op {op} present_traced");
                    assert_same(&got, &want, &what);
                    let sample_bits = |samples: &[(usize, u32, f64)]| -> Vec<(usize, u32, u64)> {
                        samples
                            .iter()
                            .map(|&(j, t, v)| (j, t, v.to_bits()))
                            .collect()
                    };
                    assert_eq!(
                        sample_bits(trace.potential_samples()),
                        sample_bits(&reference.samples),
                        "{what}: potential samples"
                    );
                    assert_eq!(trace.fires(), reference.traced_fires, "{what}: fires");
                }
                _ => {
                    let samples = (0..1 + rng.next_index(12))
                        .map(|_| Sample {
                            pixels: image(rng, inputs),
                            label: rng.next_index(classes),
                        })
                        .collect();
                    let data =
                        Dataset::from_samples(inputs, 1, classes, samples).expect("valid samples");
                    reference.self_label(&data);
                    net.self_label(&data);
                    assert_eq!(net.labels(), &reference.labels[..], "{ctx} op {op} labels");
                }
            }
            assert_eq!(
                net.weights(),
                &reference.weights[..],
                "{ctx} op {op} weights"
            );
            assert_eq!(
                bits(net.thresholds()),
                bits(&reference.thresholds),
                "{ctx} op {op} thresholds"
            );
        }
    });
    let resumed = resumed.get();
    assert!(
        resumed > 100,
        "only {resumed} presentations resumed the pass"
    );
}
