//! Pins the mesh simulator against a serial per-event reference on
//! random small configurations.
//!
//! [`Reference`] is the plain per-event mesh protocol: every input event
//! is multicast from the ingress core packet by packet, every reached
//! core scans its locals tentatively with an undo log, nominations are
//! resolved in ascending global id, and inhibition packets revert and
//! gate. It is kept here, outside the library, only as the specification
//! the tick-at-a-time simulator must reproduce bit for bit — winners,
//! spikes, potentials (by `to_bits`), readouts, labels and every
//! `MeshCost` counter — over random networks, parameters, coding
//! schemes, grids and fabric fault plans. Presenting the same image
//! again must reproduce the presentation: nothing leaks between images.
//!
//! The reference also checks the whole-tick pass ([`TickState`]) on
//! every tick: from the reference's state at the start of the tick, with
//! neurons the input multicast cannot reach gated for good, the pass
//! must decline exactly the ticks in which a neuron fires, and a tick it
//! commits must leave every potential and last update as the per-event
//! protocol does and count its neuron updates.

use nc_dataset::{Dataset, Sample};
use nc_faults::{FaultModel, FaultPlan};
use nc_hw::mesh::{
    partition_snn, place_greedy, Fabric, Grid, MeshCost, MeshPresentation, MeshSnn, Partition,
    Placement, PORTS_PER_ROUTER,
};
use nc_snn::{
    decay_with_lut, tie_broken_readout, CodingScheme, SnnNetwork, SnnParams, SpikeCalendar,
    TickState,
};
use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;

const CODINGS: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

/// Input spikes enter the fabric at core 0.
const INJECTOR: usize = 0;

/// 8-bit weights per 128-bit SRAM row.
const WEIGHTS_PER_ROW: usize = 16;

#[derive(Clone, Copy)]
struct Undo {
    slot: usize,
    potential: f64,
    last_update: u32,
}

#[derive(Default)]
struct Core {
    locals: Vec<usize>,
    /// `wcols[input * locals.len() + slot]`.
    wcols: Vec<u8>,
    thresholds: Vec<f64>,
    potentials: Vec<f64>,
    last_update: Vec<u32>,
    refractory_until: Vec<u32>,
    inhibited_until: Vec<u32>,
    skip_until: u32,
    undo: Vec<Undo>,
    delivered_event: bool,
    inhibited_event: bool,
}

impl Core {
    fn reset(&mut self) {
        let n = self.locals.len();
        self.potentials = vec![0.0; n];
        self.last_update = vec![0; n];
        self.refractory_until = vec![0; n];
        self.inhibited_until = vec![0; n];
        self.skip_until = 0;
        self.undo.clear();
    }

    fn scan(&mut self, input: usize, t: u32, lut: &[f64], cost: &mut MeshCost) -> Option<usize> {
        let ln = self.locals.len();
        cost.sram_rows += ln.div_ceil(WEIGHTS_PER_ROW) as u64;
        for slot in 0..ln {
            if t < self.refractory_until[slot] || t < self.inhibited_until[slot] {
                continue;
            }
            self.undo.push(Undo {
                slot,
                potential: self.potentials[slot],
                last_update: self.last_update[slot],
            });
            let dt = u64::from(t - self.last_update[slot]);
            if dt > 0 {
                self.potentials[slot] = decay_with_lut(lut, self.potentials[slot], dt);
            }
            self.last_update[slot] = t;
            self.potentials[slot] += f64::from(self.wcols[input * ln + slot]);
            cost.neuron_updates += 1;
            if self.potentials[slot] >= self.thresholds[slot] {
                return Some(self.locals[slot]);
            }
        }
        None
    }

    fn commit_fire(&mut self, j: usize, t: u32, t_refrac: u32, t_inhibit: u32) {
        let slot = self.locals.binary_search(&j).unwrap();
        self.revert_from(slot + 1);
        self.potentials[slot] = 0.0;
        self.refractory_until[slot] = t + t_refrac;
        for (k, inh) in self.inhibited_until.iter_mut().enumerate() {
            if k != slot {
                *inh = (*inh).max(t + t_inhibit);
            }
        }
        self.skip_until = self.skip_until.max(t + t_refrac.min(t_inhibit));
        self.inhibited_event = true;
    }

    /// Returns whether the inhibition reverted a speculative update.
    fn receive_inhibition(&mut self, j: usize, t: u32, t_inhibit: u32) -> bool {
        let first_above = self.locals.partition_point(|&g| g <= j);
        let reverted = self.revert_from(first_above);
        for inh in self.inhibited_until.iter_mut() {
            *inh = (*inh).max(t + t_inhibit);
        }
        self.skip_until = self.skip_until.max(t + t_inhibit);
        self.inhibited_event = true;
        reverted
    }

    /// Pops the undo records of slots from `first_reverted` on; returns
    /// whether there were any.
    fn revert_from(&mut self, first_reverted: usize) -> bool {
        let before = self.undo.len();
        while let Some(&u) = self.undo.last() {
            if u.slot < first_reverted {
                break;
            }
            self.potentials[u.slot] = u.potential;
            self.last_update[u.slot] = u.last_update;
            self.undo.pop();
        }
        self.undo.len() < before
    }
}

/// The serial per-event mesh protocol over the same compiled stages.
struct Reference {
    params: SnnParams,
    coding: CodingScheme,
    stream_base: u64,
    lut: Vec<f64>,
    labels: Vec<Option<usize>>,
    fabric: Fabric,
    cores: Vec<Core>,
    used: Vec<usize>,
    /// Whether the last presentation committed a pass that updated a
    /// neuron after a fire, and then fired again.
    resumed: bool,
    /// Inhibition packets in the last presentation that reverted a
    /// receiving core's speculative updates above a firer on another core.
    reverting_inhibitions: usize,
}

impl Reference {
    fn of(net: &SnnNetwork, partition: &Partition, placement: &Placement, fabric: &Fabric) -> Self {
        let inputs = net.inputs();
        let mut cores: Vec<Core> = (0..fabric.grid().cores())
            .map(|_| Core::default())
            .collect();
        for (cluster, members) in partition.clusters().iter().enumerate() {
            let core = &mut cores[placement.core_of(cluster)];
            core.locals = members.clone();
            core.wcols = (0..inputs)
                .flat_map(|input| members.iter().map(move |&g| (g, input)))
                .map(|(g, input)| net.weight(g, input))
                .collect();
            core.thresholds = members.iter().map(|&g| net.thresholds()[g]).collect();
        }
        let used = (0..cores.len())
            .filter(|&c| !cores[c].locals.is_empty())
            .collect();
        Reference {
            params: *net.params(),
            coding: net.coding(),
            stream_base: net.presentation_stream_seed(0),
            lut: net.decay_lut().to_vec(),
            labels: net.labels().to_vec(),
            fabric: fabric.clone(),
            cores,
            used,
            resumed: false,
            reverting_inhibitions: 0,
        }
    }

    /// Runs the whole-tick pass over every neuron from the reference
    /// state at the start of tick `t`; returns its outcome and the
    /// potentials and last updates it leaves, in global order. The weight
    /// columns are gathered for the tick's own events only.
    fn pass(&self, t: u32, bucket: &[usize]) -> (Option<usize>, Vec<f64>, Vec<u32>) {
        let n = self.params.neurons;
        let mut state = TickState::default();
        state.reset(n);
        let mut thresholds = vec![0.0; n];
        let mut columns = vec![0.0; bucket.len() * n];
        for (c, core) in self.cores.iter().enumerate() {
            let ln = core.locals.len();
            let reached = ln > 0 && self.fabric.delivered(INJECTOR, c);
            for (slot, &g) in core.locals.iter().enumerate() {
                state.potentials[g] = core.potentials[slot];
                state.last_update_mut()[g] = core.last_update[slot];
                let gate = if reached {
                    core.refractory_until[slot].max(core.inhibited_until[slot])
                } else {
                    u32::MAX
                };
                state.raise_gate(g, gate);
                thresholds[g] = core.thresholds[slot];
                for (e, &input) in bucket.iter().enumerate() {
                    columns[e * n + g] = f64::from(core.wcols[input * ln + slot]);
                }
            }
        }
        let events: Vec<usize> = (0..bucket.len()).collect();
        let outcome = state.try_tick(&columns, &self.lut, &thresholds, &events, t);
        let last_update = state.last_update_mut().to_vec();
        (outcome, state.potentials, last_update)
    }

    /// Potentials and last updates of every neuron, in global order.
    fn flat_state(&self) -> (Vec<f64>, Vec<u32>) {
        let mut potentials = vec![0.0f64; self.params.neurons];
        let mut last_update = vec![0u32; self.params.neurons];
        for core in &self.cores {
            for (slot, &g) in core.locals.iter().enumerate() {
                potentials[g] = core.potentials[slot];
                last_update[g] = core.last_update[slot];
            }
        }
        (potentials, last_update)
    }

    fn route(&self, link_load: &mut [u64], from: usize, to: usize, cost: &mut MeshCost) -> bool {
        cost.packets += 1;
        for &link in self.fabric.links(from, to) {
            link_load[link] += 1;
            cost.hops += 1;
        }
        let delivered = self.fabric.delivered(from, to);
        if !delivered {
            cost.dropped_packets += 1;
        }
        delivered
    }

    fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> MeshPresentation {
        let seed = self.stream_base.wrapping_add(presentation_seed);
        let (t_refrac, t_inhibit) = (self.params.t_refrac, self.params.t_inhibit);
        for core in &mut self.cores {
            core.reset();
        }
        let mut calendar = SpikeCalendar::default();
        calendar.fill(self.coding, pixels, &self.params, seed, None);
        let mut link_load = vec![0u64; self.fabric.grid().cores() * PORTS_PER_ROUTER];
        let mut cost = MeshCost::default();
        let mut winner = None;
        let mut fires = Vec::new();
        let used = self.used.clone();
        let mut committed_after_fire = false;
        self.resumed = false;
        self.reverting_inhibitions = 0;
        for (t, bucket) in calendar.buckets() {
            let (outcome, pass_potentials, pass_last_update) = self.pass(t, bucket);
            let (fires_before, updates_before) = (fires.len(), cost.neuron_updates);
            for &input in bucket {
                for &c in &used {
                    let delivered = self.route(&mut link_load, INJECTOR, c, &mut cost);
                    let core = &mut self.cores[c];
                    core.delivered_event = delivered;
                    core.inhibited_event = false;
                    core.undo.clear();
                }
                let mut candidates = Vec::new();
                for &c in &used {
                    let core = &mut self.cores[c];
                    if !core.delivered_event || t < core.skip_until {
                        continue;
                    }
                    if let Some(g) = core.scan(input, t, &self.lut, &mut cost) {
                        candidates.push((g, c));
                    }
                }
                candidates.sort_unstable();
                for &(j, cj) in &candidates {
                    if self.cores[cj].inhibited_event {
                        continue;
                    }
                    fires.push((t, j));
                    winner.get_or_insert(j);
                    self.cores[cj].commit_fire(j, t, t_refrac, t_inhibit);
                    for &c2 in &used {
                        if c2 != cj
                            && self.route(&mut link_load, cj, c2, &mut cost)
                            && self.cores[c2].receive_inhibition(j, t, t_inhibit)
                        {
                            self.reverting_inhibitions += 1;
                        }
                    }
                }
            }
            cost.peak_link_load = cost
                .peak_link_load
                .max(link_load.iter().copied().max().unwrap_or(0));
            link_load.fill(0);
            let fired = fires.len() > fires_before;
            self.resumed |= fired && committed_after_fire;
            assert_eq!(
                outcome.is_none(),
                fired,
                "tick {t}: pass declines iff it fires"
            );
            if let Some(open) = outcome {
                let updates = cost.neuron_updates - updates_before;
                assert_eq!(
                    u64::try_from(open * bucket.len()).unwrap(),
                    updates,
                    "tick {t}"
                );
                let (potentials, last_update) = self.flat_state();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pass_potentials), bits(&potentials), "tick {t}");
                assert_eq!(pass_last_update, last_update, "tick {t}: last update");
                committed_after_fire |= open > 0 && fires_before > 0;
            }
        }
        let (potentials, _) = self.flat_state();
        let readout = tie_broken_readout(winner, &potentials, seed);
        let label = self.labels[readout].unwrap_or(0);
        MeshPresentation {
            winner,
            readout,
            label,
            fires,
            potentials,
            cost,
        }
    }
}

fn bits(p: &MeshPresentation) -> Vec<u64> {
    p.potentials.iter().map(|v| v.to_bits()).collect()
}

fn assert_same(got: &MeshPresentation, want: &MeshPresentation, ctx: &str) {
    assert_eq!(got.winner, want.winner, "{ctx}: winner");
    assert_eq!(got.fires, want.fires, "{ctx}: fires");
    assert_eq!(bits(got), bits(want), "{ctx}: potentials");
    assert_eq!(got.readout, want.readout, "{ctx}: readout");
    assert_eq!(got.label, want.label, "{ctx}: label");
    assert_eq!(got.cost, want.cost, "{ctx}: cost");
}

fn random_pixels(rng: &mut SplitMix64, inputs: usize) -> Vec<u8> {
    // A quarter of the pixels dark, the rest uniform.
    (0..inputs)
        .map(|_| {
            if rng.next_below(4) == 0 {
                0
            } else {
                u8::try_from(rng.next_below(256)).unwrap()
            }
        })
        .collect()
}

fn random_params(rng: &mut SplitMix64, neurons: usize) -> SnnParams {
    let mut params = SnnParams::for_neurons(neurons);
    params.t_period = 20 + u32::try_from(rng.next_below(481)).unwrap();
    params.t_leak = 5.0 + rng.next_below(1000) as f64;
    params.t_inhibit = 1 + u32::try_from(rng.next_below(30)).unwrap();
    params.t_refrac = 1 + u32::try_from(rng.next_below(40)).unwrap();
    params.max_rate_hz = 20.0 + rng.next_below(180) as f64;
    // From "fires every few events" to "rarely fires".
    params.initial_threshold = 100.0 + rng.next_below(6000) as f64;
    params
}

fn random_fabric(rng: &mut SplitMix64, grid: Grid) -> Fabric {
    let rate = rng.next_below(51) as f64 / 100.0;
    let model = match rng.next_below(3) {
        0 => return Fabric::healthy(grid),
        1 => FaultModel::DeadLink,
        _ => FaultModel::DeadRouter,
    };
    Fabric::with_plan(grid, &FaultPlan::new(model, rate, rng.next_u64()).unwrap())
}

#[test]
fn tick_simulator_matches_the_per_event_reference() {
    // Fires, drops, same-tick fire pairs, presentations that resume the
    // pass after a fire and fire again, inhibitions that revert a
    // receiving core's speculative work (which the mesh must bill but not
    // commit), and used cores the input multicast never reaches (whose
    // neurons the mesh parks), over all cases, so the harness cannot pass
    // on silent, fault-free, first-fire-only or single-core presentations.
    let seen = std::cell::Cell::new((0usize, 0u64, 0usize, 0usize, 0usize));
    let unreached = std::cell::Cell::new(0usize);
    check_cases(0x3E5A_D1FF, 400, |case, rng| {
        let inputs = 1 + rng.next_below(48) as usize;
        let neurons = 1 + rng.next_below(24) as usize;
        let coding = CODINGS[rng.next_below(4) as usize];
        let params = random_params(rng, neurons);
        let mut net = SnnNetwork::with_coding(inputs, 3, params, coding, rng.next_u64());
        if rng.next_below(2) == 0 {
            // Labelled neurons, so the label readout is exercised.
            let samples = (0..6)
                .map(|i| Sample {
                    pixels: random_pixels(rng, inputs),
                    label: i % 3,
                })
                .collect();
            let data = Dataset::from_samples(inputs, 1, 3, samples).unwrap();
            net.self_label(&data);
        }
        let w = 1 + rng.next_below(4) as usize;
        let h = 1 + rng.next_below(4) as usize;
        let grid = Grid::new(w, h);
        let fabric = random_fabric(rng, grid);
        let partition = partition_snn(&net, grid.cores());
        let placement = place_greedy(&partition, grid);
        let mut reference = Reference::of(&net, &partition, &placement, &fabric);
        let mut mesh = MeshSnn::compiled(&net, partition, placement, fabric);
        let parked = reference
            .used
            .iter()
            .filter(|&&c| !reference.fabric.delivered(INJECTOR, c));
        unreached.set(unreached.get() + parked.count());
        for k in 0..3u64 {
            let pixels = random_pixels(rng, inputs);
            let pseed = rng.next_u64();
            let ctx = format!(
                "case {case} image {k}: {inputs} inputs, {neurons} neurons, {coding:?}, {w}x{h}"
            );
            let want = reference.present(&pixels, pseed);
            let got = mesh.present(&pixels, pseed);
            assert_same(&got, &want, &ctx);
            let again = mesh.present(&pixels, pseed);
            assert_same(&again, &got, &format!("{ctx} (again)"));
            let (fires, dropped, pairs, resumed, reverting) = seen.get();
            seen.set((
                fires + got.fires.len(),
                dropped + got.cost.dropped_packets,
                pairs + got.fires.windows(2).filter(|f| f[0].0 == f[1].0).count(),
                resumed + usize::from(reference.resumed),
                reverting + reference.reverting_inhibitions,
            ));
        }
    });
    let (fires, dropped, pairs, resumed, reverting) = seen.get();
    assert!(fires > 100, "only {fires} fires");
    assert!(dropped > 0, "no packet was ever dropped");
    assert!(pairs > 0, "no tick ever fired twice");
    assert!(
        resumed > 100,
        "only {resumed} presentations resumed the pass after a fire and fired again"
    );
    assert!(
        reverting > 0,
        "no inhibition ever reverted another core's speculative update"
    );
    assert!(
        unreached.get() > 0,
        "no fabric ever left a used core unreached by the input multicast"
    );
}
