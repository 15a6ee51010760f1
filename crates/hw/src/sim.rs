//! Cycle-level functional simulators of the folded datapaths.
//!
//! The paper validated its C++ model-level simulators against the RTL
//! ("We validated both simulators against their RTL counterpart",
//! §4.1). This module plays the same role one level up: it executes the
//! folded accelerators' *datapaths* — chunked weight fetches, integer
//! MACs, staged max trees, the 1 ms-per-cycle LIF emulation — and the
//! tests assert the results are bit-identical to the model-level
//! implementations in `nc-mlp`/`nc-snn` while the cycle counters agree
//! with the Table 7 formulas. The SNNwt emulation leaks through the
//! network's own decay table and runs the network's whole-tick pass and
//! per-event scan, so its readout is the event-driven model's, bit for
//! bit.

use nc_mlp::quant::QuantizedMlp;
use nc_snn::coding::wot_spike_count;
use nc_snn::{tie_broken_readout, SnnNetwork, SpikeCalendar, TickState, WotSnn};
use nc_substrate::kernel::Scratch;

use crate::folded::SNNWOT_PIPELINE_LATENCY;

/// Outcome of one simulated inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Winning class / neuron index (design-dependent).
    pub winner: usize,
    /// Exact cycles consumed.
    pub cycles: u64,
}

/// Cycle-level simulator of the folded MLP datapath (Figures 10/11):
/// per layer, every hardware neuron consumes `ni` inputs per cycle from
/// its SRAM-backed weight row and accumulates into a wide register; one
/// extra cycle applies the piecewise-linear sigmoid through the same
/// fixed-point interpolation unit as the model-level datapath
/// ([`nc_substrate::kernel::FixedActLut`]), so sim and model agree
/// bit for bit with no float rescale in between.
#[derive(Debug, Clone)]
pub struct FoldedMlpSim<'a> {
    mlp: &'a QuantizedMlp,
    ni: usize,
    /// Reused activation/accumulator buffers: repeated runs are
    /// allocation-free once warm.
    scratch: Scratch,
}

impl<'a> FoldedMlpSim<'a> {
    /// Creates a simulator over a quantized network.
    ///
    /// # Panics
    ///
    /// Panics if `ni == 0`.
    pub fn new(mlp: &'a QuantizedMlp, ni: usize) -> Self {
        assert!(ni > 0, "ni must be positive");
        FoldedMlpSim {
            mlp,
            ni,
            scratch: Scratch::default(),
        }
    }

    /// Runs one image through the chunked datapath. `&mut self` because
    /// the simulator reuses its scratch buffers between runs; the
    /// network itself is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the network input width.
    pub fn run(&mut self, pixels: &[u8]) -> SimOutcome {
        let mlp = self.mlp;
        let ni = self.ni;
        let sizes = mlp.sizes();
        assert_eq!(pixels.len(), sizes[0], "input width mismatch");
        let max_width = sizes.iter().copied().max().unwrap_or(0);
        self.scratch.ensure(max_width);
        self.scratch.front[..pixels.len()].copy_from_slice(pixels);
        let mut cycles = 0u64;
        for l in 0..sizes.len() - 1 {
            let fan_in = sizes[l];
            let fan_out = sizes[l + 1];
            let weights = mlp.layer_weights(l);
            let lut = mlp.act_lut(l);
            let scratch = &mut self.scratch;
            // All hardware neurons of the layer run in lockstep; the
            // chunk loop is the cycle loop.
            let chunks = fan_in.div_ceil(ni);
            for (j, acc) in scratch.acc[..fan_out].iter_mut().enumerate() {
                *acc = i64::from(weights[j * (fan_in + 1) + fan_in]) * 255;
            }
            for chunk in 0..chunks {
                let lo = chunk * ni;
                let hi = ((chunk + 1) * ni).min(fan_in);
                for (j, acc) in scratch.acc[..fan_out].iter_mut().enumerate() {
                    let row = &weights[j * (fan_in + 1)..(j + 1) * (fan_in + 1)];
                    for (&w, &x) in row[lo..hi].iter().zip(&scratch.front[lo..hi]) {
                        *acc += i64::from(w) * i64::from(x);
                    }
                }
                cycles += 1;
            }
            // Activation cycle: the fixed-point sigmoid interpolation
            // unit. Integer accumulation is associative, so the chunked
            // accumulator equals the model's blocked one exactly.
            for (out, &acc) in scratch.back[..fan_out].iter_mut().zip(&scratch.acc) {
                *out = lut.eval(acc);
            }
            std::mem::swap(&mut scratch.front, &mut scratch.back);
            cycles += 1;
        }
        let out_width = sizes[sizes.len() - 1];
        let winner = self.scratch.front[..out_width]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        SimOutcome { winner, cycles }
    }
}

/// Cycle-level simulator of the folded SNNwot datapath (Figure 7):
/// 4-bit spike-count conversion, shifter/adder products accumulated `ni`
/// inputs per cycle, then the two-level max readout.
#[derive(Debug, Clone, PartialEq)]
pub struct WotDatapathSim<'a> {
    wot: &'a WotSnn,
    ni: usize,
}

impl<'a> WotDatapathSim<'a> {
    /// Creates a simulator over a deployed SNNwot.
    ///
    /// # Panics
    ///
    /// Panics if `ni == 0`.
    pub fn new(wot: &'a WotSnn, ni: usize) -> Self {
        assert!(ni > 0, "ni must be positive");
        WotDatapathSim { wot, ni }
    }

    /// Runs one image; the winner is the neuron with the highest
    /// potential (ties: lowest index, like the hardware max tree).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input width.
    pub fn run(&self, pixels: &[u8]) -> SimOutcome {
        let inputs = self.wot.inputs();
        assert_eq!(pixels.len(), inputs, "input width mismatch");
        // Stage 1 (converter): 4-bit spike counts.
        let counts: Vec<u8> = pixels.iter().map(|&p| wot_spike_count(p)).collect();
        // Stage 2: chunked shifter/adder accumulation, `ni` synapses of
        // every neuron's SRAM row per cycle.
        let mut potentials = vec![0u64; self.wot.neurons()];
        let chunks = inputs.div_ceil(self.ni);
        for chunk in 0..chunks {
            let lo = chunk * self.ni;
            let hi = (lo + self.ni).min(inputs);
            for (potential, row) in potentials.iter_mut().zip(self.wot.weights().chunks(inputs)) {
                for (&n, &w) in counts[lo..hi].iter().zip(&row[lo..hi]) {
                    *potential += shift_add_product(n, w);
                }
            }
        }
        // Stage 3: two-level max tree (first max wins ties).
        let mut winner = 0;
        for (j, &v) in potentials.iter().enumerate().skip(1) {
            if v > potentials[winner] {
                winner = j;
            }
        }
        SimOutcome {
            winner,
            cycles: chunks as u64 + SNNWOT_PIPELINE_LATENCY,
        }
    }
}

/// `count · w` as the SNNwot datapath computes it: four shift-adds over
/// the bits of the 4-bit spike count.
fn shift_add_product(count: u8, w: u8) -> u64 {
    (0..4)
        .filter(|bit| (count >> bit) & 1 == 1)
        .map(|bit| u64::from(w) << bit)
        .sum()
}

/// Cycle-level simulator of the folded SNNwt datapath (§4.2.2). Each
/// emulated 1 ms cycle integrates that millisecond's input spikes into
/// every open neuron, leaking through the network's decay table; the
/// first neuron to cross its threshold wins, and an image that drives
/// none over reads out the highest remaining potential.
///
/// The simulator runs the network's own code for every step: the
/// [`SpikeCalendar`] fills from the network's coding scheme (for
/// `GaussianRate`, the hardware's CLT interval generators) and
/// presentation stream, each cycle is one [`TickState::try_tick`], the
/// first declined cycle's winner is the first fire of its per-event scan
/// ([`TickState::scan_event`]), and the readout is
/// [`tie_broken_readout`] on the same stream. So its winner is
/// [`SnnNetwork::present`]'s readout, bit for bit.
#[derive(Debug, Clone)]
pub struct SnnWtSim<'a> {
    net: &'a SnnNetwork,
    ni: usize,
    /// Reused across runs: repeated runs are allocation-free once warm.
    calendar: SpikeCalendar,
    state: TickState,
}

impl<'a> SnnWtSim<'a> {
    /// Creates a simulator over a network's weights, thresholds, decay
    /// table and coding scheme. The datapath is healthy: a transient
    /// read or stuck generator tap injected into the network is not
    /// simulated (stuck-at and dead-neuron faults live in the weights and
    /// are).
    ///
    /// # Panics
    ///
    /// Panics if `ni == 0`.
    pub fn new(net: &'a SnnNetwork, ni: usize) -> Self {
        assert!(ni > 0, "ni must be positive");
        SnnWtSim {
            net,
            ni,
            calendar: SpikeCalendar::default(),
            state: TickState::default(),
        }
    }

    /// Runs one presentation; returns the readout neuron and the exact
    /// cycle count `(⌈inputs/ni⌉ + 7)·Tperiod` of the folded emulation.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input width.
    pub fn run(&mut self, pixels: &[u8], presentation_seed: u64) -> SimOutcome {
        let net = self.net;
        let params = net.params();
        assert_eq!(pixels.len(), net.inputs(), "input width mismatch");
        let stream = net.presentation_stream_seed(presentation_seed);
        self.calendar
            .fill(net.coding(), pixels, params, stream, None);
        self.state.reset(params.neurons);
        let (w, lut, th) = (net.weights_t(), net.decay_lut(), net.thresholds());
        let n = params.neurons;
        let mut winner = None;
        for (t, bucket) in self.calendar.buckets() {
            if self.state.try_tick(w, lut, th, bucket, t).is_none() {
                winner = bucket
                    .iter()
                    .find_map(|&input| self.state.scan_event(lut, th, t, 0, |j| w[input * n + j]));
                break;
            }
        }
        SimOutcome {
            winner: tie_broken_readout(winner, &self.state.potentials, stream),
            cycles: (net.inputs().div_ceil(self.ni) as u64 + SNNWOT_PIPELINE_LATENCY)
                * u64::from(params.t_period),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::{digits::DigitsSpec, Difficulty};
    use nc_mlp::{Activation, Mlp, TrainConfig, Trainer};
    use nc_snn::SnnParams;

    #[test]
    fn folded_mlp_sim_matches_quantized_model_for_all_ni() {
        let (train, test) = DigitsSpec {
            train: 150,
            test: 30,
            seed: 5,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut mlp = Mlp::new(&[784, 12, 10], Activation::sigmoid(), 3).unwrap();
        Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &train);
        let mut q = QuantizedMlp::from_mlp(&mlp);
        for ni in [1usize, 4, 8, 16] {
            let mut winners = Vec::new();
            {
                let mut sim = FoldedMlpSim::new(&q, ni);
                for s in test.iter() {
                    winners.push(sim.run(&s.pixels).winner);
                }
            }
            for (s, winner) in test.iter().zip(winners) {
                assert_eq!(winner, q.predict_u8(&s.pixels), "ni={ni}");
            }
        }
    }

    #[test]
    fn folded_mlp_sim_cycle_count_matches_formula() {
        let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 3).unwrap();
        let q = QuantizedMlp::from_mlp(&mlp);
        let pixels = vec![100u8; 784];
        assert_eq!(FoldedMlpSim::new(&q, 4).run(&pixels).cycles, 223);
        assert_eq!(FoldedMlpSim::new(&q, 8).run(&pixels).cycles, 113);
        assert_eq!(FoldedMlpSim::new(&q, 16).run(&pixels).cycles, 58);
    }

    #[test]
    fn wot_datapath_matches_wot_model() {
        let (train, test) = DigitsSpec {
            train: 40,
            test: 20,
            seed: 9,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(12), 3);
        snn.set_stdp_delta(8);
        snn.train_stdp(&train, 1);
        snn.self_label(&train);
        let wot = WotSnn::from_network(&snn);
        for ni in [1usize, 4, 16] {
            let sim = WotDatapathSim::new(&wot, ni);
            for s in test.iter() {
                assert_eq!(sim.run(&s.pixels).winner, wot.winner(&s.pixels), "ni={ni}");
            }
        }
    }

    #[test]
    fn wot_datapath_cycles_match_table_7() {
        let wot = WotSnn::untrained(784, 10, SnnParams::tuned(300), 1);
        let pixels = vec![1u8; 784];
        for (ni, cycles) in [(1usize, 791u64), (4, 203), (8, 105), (16, 56)] {
            let sim = WotDatapathSim::new(&wot, ni);
            assert_eq!(sim.run(&pixels).cycles, cycles, "ni={ni}");
        }
    }

    #[test]
    fn shifter_adder_product_equals_multiplication() {
        // The 4-shift/4-add decomposition must equal N×W exactly for
        // every 4-bit count and every 8-bit weight.
        for count in 0..=15u8 {
            for w in 0..=255u8 {
                assert_eq!(
                    shift_add_product(count, w),
                    u64::from(count) * u64::from(w),
                    "{count} × {w}"
                );
            }
        }
    }

    /// A `neurons`-neuron, `inputs`-input network with a given threshold.
    fn snn(inputs: usize, neurons: usize, threshold: f64) -> SnnNetwork {
        let mut params = SnnParams::for_neurons(neurons);
        params.initial_threshold = threshold;
        SnnNetwork::new(inputs, 2, params, 3)
    }

    #[test]
    fn snnwt_sim_fires_on_bright_input() {
        let mut net = snn(16, 4, 2_000.0);
        let pixels = [255u8; 16];
        let presentation = net.present(&pixels, 7);
        assert!(presentation.winner.is_some(), "bright input must fire");
        let outcome = SnnWtSim::new(&net, 1).run(&pixels, 7);
        assert_eq!(outcome.cycles, (16 + 7) * 500);
        assert_eq!(outcome.winner, presentation.readout());
    }

    #[test]
    fn snnwt_sim_is_deterministic_per_seed() {
        let net = snn(32, 3, 5_000.0);
        let mut sim = SnnWtSim::new(&net, 4);
        let a = sim.run(&[200u8; 32], 11);
        let b = sim.run(&[200u8; 32], 11);
        assert_eq!(a, b);
    }
}
