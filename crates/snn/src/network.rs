//! The event-driven LIF network with WTA dynamics, STDP and homeostasis
//! (paper §2.2).
//!
//! The simulator is *event-driven*: instead of stepping every millisecond
//! it exploits the analytic solution of the leak ODE between input spikes,
//! `v(T2) = v(T1) · e^{-(T2−T1)/Tleak}` — the same trick the paper uses to
//! make the hardware efficient ("such an expression lends to a more
//! efficient hardware implementation"). The per-millisecond decay factors
//! are precomputed in a lookup table, mirroring the piecewise-interpolated
//! leak of the online-learning circuit (§4.4).
//!
//! Learning follows §2.2/§4.4 exactly:
//! * **STDP** — on an output spike at `t`, every synapse whose input last
//!   spiked within `[t − TLTP, t]` is potentiated by `+1`, every other
//!   synapse depressed by `−1`, saturating at the 8-bit rails.
//! * **WTA** — the firing neuron enters a refractory period (`Trefrac`)
//!   and inhibits all others (`Tinhibit`); inhibited/refractory neurons
//!   ignore input spikes entirely.
//! * **Homeostasis** — at the end of each homeostasis epoch every
//!   neuron's threshold moves by `sign(activity − Homeoth)·threshold·r`.
//! * **Self-labeling** — per-neuron label counters incremented when the
//!   neuron wins on a training image; final label = highest count
//!   normalized by label frequency.

use crate::coding::{CodingScheme, SpikeCalendar};
use crate::params::SnnParams;
use crate::tick::TickState;
use crate::trace::PresentationTrace;
use nc_dataset::model::ModelError;
use nc_dataset::Dataset;
use nc_faults::{dead_unit_mask, stuck_bits_u8, FaultModel, FaultPlan, TransientReads};
use nc_obs::{EpochMetrics, Recorder};
use nc_substrate::rng::SplitMix64;

/// Sentinel meaning "this input has not spiked yet in this presentation".
const NEVER: u32 = u32::MAX;

/// Applies the analytic leak `v · e^{-dt/Tleak}` through a precomputed
/// per-millisecond decay table ([`SnnNetwork::decay_lut`]). Gaps longer
/// than the table compose factors (`e^{-(a+b)} = e^{-a}·e^{-b}`), so an
/// arbitrarily long silence decays to the analytic value; an in-table
/// gap is the single lookup `v * lut[dt]` that [`TickState`] applies.
/// A test reference: the library's own loops never leave the table, and
/// the serial reference loops of `crates/snn/tests/event_loop.rs`,
/// `crates/hw/tests/mesh_differential.rs` and `tick.rs`'s tests
/// re-derive potentials with this. Factor composition is *not*
/// associative in f64, so re-deriving the decay any other way diverges.
#[inline]
// nc-lint: allow(R12, reason = "serial reference that event_loop.rs, mesh_differential.rs and tick.rs tests compare against")
pub fn decay_with_lut(lut: &[f64], mut v: f64, mut dt: u64) -> f64 {
    let last = lut.len() - 1;
    let max = u64::try_from(last).unwrap_or(u64::MAX);
    while dt > max {
        v *= lut[last];
        dt -= max;
    }
    v * lut[usize::try_from(dt).unwrap_or(last)]
}

/// Outcome of presenting one image to the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Presentation {
    /// The first neuron to fire (the paper's readout: "a form of
    /// spike-based winner-takes-all"), if any neuron fired.
    pub winner: Option<usize>,
    /// Every output spike as `(time_ms, neuron)`.
    pub fires: Vec<(u32, usize)>,
    /// Final membrane potentials (after the last event).
    pub potentials: Vec<f64>,
    /// Seed of the per-presentation RNG stream, used to break exact
    /// potential ties in [`Presentation::readout`] deterministically.
    pub tie_seed: u64,
}

impl Presentation {
    /// The readout neuron: first to fire, or — if the image drove no
    /// neuron over threshold — the neuron with the highest remaining
    /// potential (the correlation fallback SNNwot formalizes, §4.2.2).
    /// Exact potential ties are broken by a seeded draw, not by index.
    pub fn readout(&self) -> usize {
        tie_broken_readout(self.winner, &self.potentials, self.tie_seed)
    }
}

/// Shared readout with seeded tie-breaking. The winner (first neuron to
/// fire) is authoritative; with no winner the highest remaining
/// potential is read out. Exact potential ties — routine on dark images,
/// where every neuron ends at exactly `0.0` — were previously resolved
/// "lowest index wins", silently crediting neuron 0's label with every
/// ambiguous presentation. They are now resolved by one [`SplitMix64`]
/// draw from the per-presentation stream: deterministic for a given
/// `(network seed, presentation seed)` pair, but unbiased across the
/// tied neurons.
pub fn tie_broken_readout(winner: Option<usize>, potentials: &[f64], tie_seed: u64) -> usize {
    if let Some(w) = winner {
        return w;
    }
    let mut best = 0;
    for (i, &v) in potentials.iter().enumerate().skip(1) {
        if v > potentials[best] {
            best = i;
        }
    }
    let top = potentials[best];
    let ties = potentials.iter().filter(|&&v| v == top).count();
    if ties <= 1 {
        return best;
    }
    let pick = SplitMix64::new(tie_seed).next_index(ties);
    potentials
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v == top)
        .nth(pick)
        .map_or(best, |(i, _)| i)
}

/// Reusable per-presentation simulation state. Kept on the network and
/// reset (not reallocated) at the start of every [`SnnNetwork::simulate`]
/// call, so the steady-state presentation loop performs no heap
/// allocation once the buffers have grown to the working-set size.
#[derive(Debug, Clone, Default)]
struct SimScratch {
    /// The current presentation's input spikes, bucketed by millisecond.
    calendar: SpikeCalendar,
    /// Potentials, last updates and gates (the later of the refractory
    /// and inhibition deadlines) of every neuron.
    state: TickState,
    /// Per-input time of the most recent input spike ([`NEVER`] if none).
    last_input_spike: Vec<u32>,
    /// Output spikes as `(time_ms, neuron)`.
    fires: Vec<(u32, usize)>,
}

impl SimScratch {
    /// Clears all per-presentation state, resizing only on first use (or
    /// if the network geometry grew). `clear` + `resize` on an
    /// already-sized `Vec` rewrites in place without touching capacity.
    fn reset(&mut self, neurons: usize, inputs: usize) {
        self.state.reset(neurons);
        self.last_input_spike.clear();
        self.last_input_spike.resize(inputs, NEVER);
        self.fires.clear();
    }
}

/// The single-layer WTA spiking network.
///
/// # Examples
///
/// ```
/// use nc_snn::{SnnNetwork, SnnParams};
///
/// let mut snn = SnnNetwork::new(16, 4, SnnParams::for_neurons(8), 3);
/// let outcome = snn.present(&[200u8; 16], 0);
/// assert_eq!(outcome.potentials.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct SnnNetwork {
    inputs: usize,
    classes: usize,
    params: SnnParams,
    coding: CodingScheme,
    /// Excitatory weights, row-major `[neuron][input]`, 8-bit.
    weights: Vec<u8>,
    /// Column-major `f64` mirror of `weights` (`[input][neuron]`): the
    /// presentation loop touches every neuron for one input, so this
    /// layout makes its inner loop a contiguous scan, and `f64::from` is
    /// exact, so adding from the mirror equals converting each `u8` on
    /// the fly. Kept in sync by [`SnnNetwork::rebuild_weights_t`] and the
    /// incremental STDP update.
    weights_t: Vec<f64>,
    /// Per-neuron firing thresholds (homeostasis adjusts them).
    thresholds: Vec<f64>,
    /// Per-(neuron, class) win counters for self-labeling.
    label_counts: Vec<u64>,
    /// Per-class presentation counts (normalizes label counters).
    class_presented: Vec<u64>,
    /// Assigned labels after [`SnnNetwork::self_label`].
    labels: Vec<Option<usize>>,
    /// Per-neuron fire counts within the current homeostasis epoch.
    fire_counts: Vec<u64>,
    /// Simulated time elapsed in the current homeostasis epoch.
    epoch_elapsed_ms: u64,
    /// `e^{-dt/Tleak}` for `dt ∈ 0..=Tperiod` (the hardware's interpolated
    /// leak, precomputed exactly).
    decay_lut: Vec<f64>,
    /// The STDP update rule (the paper's circuit is `Additive { 1 }`;
    /// scaled-down runs use larger steps, and alternative rules are the
    /// paper's future-work lever — see [`crate::stdp_rules`]).
    stdp_rule: crate::stdp_rules::StdpRule,
    seed: u64,
    /// Transient SRAM read faults on the synapse array (disabled unless a
    /// `TransientRead` plan was injected). Stored weights stay pristine;
    /// only reads during simulation are perturbed.
    faults: TransientReads,
    /// A `StuckLfsrTap` plan over the spike-interval generators, if one
    /// was injected (rate codes only).
    gen_fault: Option<FaultPlan>,
    /// Reused simulation buffers (allocation-free steady state).
    sim: SimScratch,
}

impl SnnNetwork {
    /// Creates a network with `inputs` excitatory inputs, `classes`
    /// possible labels and the Poisson rate code, with weights initialized
    /// uniformly in the middle of the 8-bit range.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`, `classes == 0`, or the parameters are
    /// inconsistent.
    pub fn new(inputs: usize, classes: usize, params: SnnParams, seed: u64) -> Self {
        Self::with_coding(inputs, classes, params, CodingScheme::PoissonRate, seed)
    }

    /// Creates a network with an explicit input [`CodingScheme`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`, `classes == 0`, or the parameters are
    /// inconsistent.
    pub fn with_coding(
        inputs: usize,
        classes: usize,
        params: SnnParams,
        coding: CodingScheme,
        seed: u64,
    ) -> Self {
        assert!(inputs > 0, "need at least one input");
        assert!(classes > 0, "need at least one class");
        params.validate();
        let n = params.neurons;
        let mut rng = SplitMix64::new(seed);
        let weights = (0..n * inputs)
            .map(|_| 100 + u8::try_from(rng.next_below(101)).unwrap_or(u8::MAX)) // uniform 100..=200
            .collect();
        let threshold = coding.initial_threshold(&params);
        let decay_lut = (0..=params.t_period)
            .map(|dt| (-f64::from(dt) / params.t_leak).exp())
            .collect();
        let mut net = SnnNetwork {
            inputs,
            classes,
            params,
            coding,
            weights,
            weights_t: Vec::new(),
            thresholds: vec![threshold; n],
            label_counts: vec![0; n * classes],
            class_presented: vec![0; classes],
            labels: vec![None; n],
            fire_counts: vec![0; n],
            epoch_elapsed_ms: 0,
            decay_lut,
            stdp_rule: crate::stdp_rules::StdpRule::default(),
            seed,
            faults: TransientReads::disabled(),
            gen_fault: None,
            sim: SimScratch::default(),
        };
        net.rebuild_weights_t();
        net
    }

    /// Rebuilds the column-major weight mirror from the row-major truth.
    /// Called after any bulk weight mutation (construction, stuck-bit or
    /// dead-neuron injection, precision truncation); the per-row STDP
    /// update maintains it incrementally instead.
    fn rebuild_weights_t(&mut self) {
        let n = self.params.neurons;
        self.weights_t.clear();
        self.weights_t.resize(n * self.inputs, 0.0);
        for j in 0..n {
            for (i, &w) in self.weights[j * self.inputs..(j + 1) * self.inputs]
                .iter()
                .enumerate()
            {
                self.weights_t[i * n + j] = f64::from(w);
            }
        }
    }

    /// Applies a hardware fault plan to the deployed network (DESIGN.md
    /// "Fault model"). Stuck-at faults corrupt the stored 8-bit synapses
    /// once; dead neurons zero whole synapse rows (a LIF stuck at reset
    /// never crosses threshold); transient reads perturb every weight
    /// fetch during simulation; a stuck LFSR tap degrades the per-pixel
    /// spike-interval generators and therefore requires a rate code.
    ///
    /// Injection models a *deployed* chip: training after injection will
    /// overwrite stuck bits, so inject after `train_stdp`/`self_label`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFaultPlan`] for an out-of-range rate
    /// and [`ModelError::FaultUnsupported`] for `StuckLfsrTap` under a
    /// temporal (generator-free) coding scheme.
    pub fn apply_fault(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        match plan.model {
            FaultModel::StuckAt0 | FaultModel::StuckAt1 => {
                stuck_bits_u8(&mut self.weights, plan);
                self.rebuild_weights_t();
                Ok(())
            }
            FaultModel::DeadNeuron => {
                let dead = dead_unit_mask(self.params.neurons, plan);
                for (j, &is_dead) in dead.iter().enumerate() {
                    if is_dead {
                        for w in &mut self.weights[j * self.inputs..(j + 1) * self.inputs] {
                            *w = 0;
                        }
                    }
                }
                self.rebuild_weights_t();
                Ok(())
            }
            FaultModel::TransientRead => {
                self.faults = TransientReads::from_plan(plan);
                Ok(())
            }
            FaultModel::StuckLfsrTap => {
                if self.coding.is_rate_code() {
                    self.gen_fault = Some(*plan);
                    Ok(())
                } else {
                    Err(ModelError::FaultUnsupported {
                        model: "SNN+STDP - LIF (SNNwt)",
                        fault: plan.model.name(),
                    })
                }
            }
            // Routing-fabric faults live in the mesh substrate (nc-hw);
            // a single-core network has no links or routers to break.
            FaultModel::DeadLink | FaultModel::DeadRouter => Ok(()),
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The hyper-parameters in use.
    pub fn params(&self) -> &SnnParams {
        &self.params
    }

    /// The input coding scheme in use.
    pub fn coding(&self) -> CodingScheme {
        self.coding
    }

    /// The 8-bit weight matrix, row-major `[neuron][input]`.
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }

    /// The column-major `f64` mirror of [`SnnNetwork::weights`]
    /// (`[input][neuron]`): the layout the whole-tick pass
    /// ([`TickState::try_tick`]) reads.
    pub fn weights_t(&self) -> &[f64] {
        &self.weights_t
    }

    /// The weight of a given synapse.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn weight(&self, neuron: usize, input: usize) -> u8 {
        assert!(neuron < self.params.neurons && input < self.inputs);
        self.weights[neuron * self.inputs + input]
    }

    /// Current per-neuron firing thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Assigned per-neuron labels (populated by [`Self::self_label`]).
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// The precomputed per-millisecond leak table `e^{-dt/Tleak}` for
    /// `dt ∈ 0..=Tperiod`. External substrates that re-simulate this
    /// network (the `nc-hw` mesh) must decay through this exact table,
    /// as [`TickState`] does, to stay bit-identical to the reference
    /// event loop.
    pub fn decay_lut(&self) -> &[f64] {
        &self.decay_lut
    }

    /// The per-presentation RNG stream seed: every stochastic choice tied
    /// to one presentation (spike-train generation, readout tie-breaking)
    /// derives from this single value, so a presentation is reproducible
    /// from `(network seed, presentation seed)` alone. Public so external
    /// substrates (the `nc-hw` mesh) can reproduce a presentation
    /// spike-for-spike.
    pub fn presentation_stream_seed(&self, presentation_seed: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(presentation_seed)
    }

    /// Overrides the STDP weight-update magnitude (default `1`, the
    /// hardware's constant increment). Scaled-down reproductions may use
    /// a larger value so that `epochs × presentations × delta` matches
    /// the paper's full-scale learning volume; see `DESIGN.md` §6.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn set_stdp_delta(&mut self, delta: i16) {
        assert!(delta > 0, "STDP delta must be positive");
        self.stdp_rule = crate::stdp_rules::StdpRule::Additive { delta };
    }

    /// Replaces the STDP update rule entirely (see [`crate::stdp_rules`]
    /// for the alternatives and their hardware cost classes).
    ///
    /// # Panics
    ///
    /// Panics if the rule's parameters are invalid.
    pub fn set_stdp_rule(&mut self, rule: crate::stdp_rules::StdpRule) {
        rule.validate();
        self.stdp_rule = rule;
    }

    /// Truncates every synaptic weight to its top `bits` bits (the
    /// hardware narrows the SRAM word) — used by the precision study in
    /// [`crate::explore`].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=8`.
    pub fn quantize_weights(&mut self, bits: u32) {
        assert!((1..=8).contains(&bits), "weight bits must be in 1..=8");
        let shift = 8 - bits;
        for w in &mut self.weights {
            *w = (*w >> shift) << shift;
        }
        self.rebuild_weights_t();
    }

    /// Presents one image without learning and returns the outcome.
    pub fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> Presentation {
        let tie_seed = self.presentation_stream_seed(presentation_seed);
        let winner = self.simulate(pixels, false, false, presentation_seed, None);
        self.snapshot_presentation(winner, tie_seed)
    }

    /// Presents one image with STDP + homeostasis enabled.
    pub fn present_learn(&mut self, pixels: &[u8], presentation_seed: u64) -> Presentation {
        let tie_seed = self.presentation_stream_seed(presentation_seed);
        let winner = self.simulate(pixels, true, false, presentation_seed, None);
        self.snapshot_presentation(winner, tie_seed)
    }

    /// Presents one image and records a full trace (Figure 3). The
    /// traced pass scans every event one by one, so tests compare the
    /// whole-tick [`present`](Self::present) against its outcome.
    pub fn present_traced(
        &mut self,
        pixels: &[u8],
        presentation_seed: u64,
    ) -> (Presentation, PresentationTrace) {
        let mut trace = PresentationTrace::new(self.params.neurons);
        let tie_seed = self.presentation_stream_seed(presentation_seed);
        let winner = self.simulate(pixels, false, false, presentation_seed, Some(&mut trace));
        (self.snapshot_presentation(winner, tie_seed), trace)
    }

    /// Copies the scratch state of the presentation that just ran into an
    /// owned [`Presentation`]. Only the outcome-returning entry points
    /// pay for these clones; the batch paths ([`SnnNetwork::predict`],
    /// through it `Model::evaluate`, and [`SnnNetwork::self_label`]) read the
    /// scratch directly and stay allocation-free.
    fn snapshot_presentation(&self, winner: Option<usize>, tie_seed: u64) -> Presentation {
        Presentation {
            winner,
            fires: self.sim.fires.clone(),
            potentials: self.sim.state.potentials.clone(),
            tie_seed,
        }
    }

    /// The presentation loop, shared by learning, inference and tracing.
    /// Returns the winner (first neuron to fire, if any); the full
    /// outcome lives in the reused scratch until the next presentation.
    ///
    /// Every bucket of the spike calendar first goes through the
    /// whole-tick pass ([`crate::tick`]); only the buckets it declines,
    /// the ones with a fire, are scanned event by event. Each event runs
    /// [`TickState::scan_event`] up to its next fire; this loop fires,
    /// inhibits and learns, then resumes the event past the firing
    /// neuron. The outcome is bit-identical to one scan of every neuron
    /// per input event.
    ///
    /// `winner_only` callers read nothing but the winner — or, when no
    /// neuron fires, the final potentials — so for them the first
    /// declined bucket ends the presentation at its first fire.
    ///
    /// A trace or an armed transient read fault scans every bucket: the
    /// trace samples the open neurons of each scanned range, and under a
    /// transient fault read order is part of the semantics.
    ///
    /// When learning, a committed bucket records `last_input_spike` for
    /// all its inputs, exactly as the scan would; a scanned bucket records
    /// them event by event, so STDP at a fire sees only the spikes before
    /// it.
    fn simulate(
        &mut self,
        pixels: &[u8],
        learn: bool,
        winner_only: bool,
        presentation_seed: u64,
        mut trace: Option<&mut PresentationTrace>,
    ) -> Option<usize> {
        assert_eq!(
            pixels.len(),
            self.inputs,
            "pixel count {} does not match inputs {}",
            pixels.len(),
            self.inputs
        );
        let n = self.params.neurons;
        let seed = self.presentation_stream_seed(presentation_seed);
        // Move the scratch out for the duration of the loop so STDP
        // (which borrows `self` mutably) can run mid-presentation; the
        // buffers are handed back before returning.
        let mut sim = std::mem::take(&mut self.sim);
        sim.calendar.fill(
            self.coding,
            pixels,
            &self.params,
            seed,
            self.gen_fault.as_ref(),
        );
        if let Some(t) = trace.as_deref_mut() {
            t.record_inputs(sim.calendar.events());
        }
        sim.reset(n, self.inputs);
        let faults_active = self.faults.is_active();
        // The transient fault stream persists across presentations, so
        // with it armed every read of the presentation must still happen.
        let use_pass = trace.is_none() && !faults_active;
        let SimScratch {
            calendar,
            state,
            last_input_spike,
            fires,
        } = &mut sim;
        // After any fire at `t` the firing neuron is refractory and every
        // other neuron inhibited, so nothing can respond before
        // `t + min(Trefrac, Tinhibit)`: events in that window skip the
        // whole neuron scan with one compare (each neuron would hit its
        // own gate check and `continue` anyway, touching nothing).
        let all_gated = self.params.t_refrac.min(self.params.t_inhibit);
        let mut skip_until = 0u32;
        let mut winner = None;
        for (t, bucket) in calendar.buckets() {
            if use_pass {
                let (w, lut, th) = (&self.weights_t, &self.decay_lut, &self.thresholds);
                // Inside a skip window every neuron is gated: nothing to do.
                if t < skip_until || state.try_tick(w, lut, th, bucket, t).is_some() {
                    if learn {
                        for &input in bucket {
                            last_input_spike[input] = t;
                        }
                    }
                    continue;
                }
                if winner_only {
                    winner = bucket
                        .iter()
                        .find_map(|&input| state.scan_event(lut, th, t, 0, |j| w[input * n + j]));
                    break;
                }
            }
            for &input in bucket {
                last_input_spike[input] = t;
                if t < skip_until {
                    continue;
                }
                let mut from = 0;
                loop {
                    // Refractory / inhibited neurons ignore input spikes
                    // entirely (§2.2: "incoming spikes have no impact").
                    let fired = state.scan_event(&self.decay_lut, &self.thresholds, t, from, |j| {
                        if faults_active {
                            f64::from(self.faults.read_u8(self.weights[j * self.inputs + input]))
                        } else {
                            self.weights_t[input * n + j]
                        }
                    });
                    if let Some(tr) = trace.as_deref_mut() {
                        let scanned = from..fired.map_or(n, |j| j + 1);
                        for j in scanned.filter(|&j| t >= state.gate()[j]) {
                            tr.record_potential(j, t, state.potentials[j]);
                        }
                    }
                    let Some(j) = fired else { break };
                    // Fire!
                    fires.push((t, j));
                    winner.get_or_insert(j);
                    state.potentials[j] = 0.0;
                    for k in (0..n).filter(|&k| k != j) {
                        state.raise_gate(k, t + self.params.t_inhibit);
                    }
                    // `j` was open at `t`, so the refractory window alone
                    // gates it.
                    state.raise_gate(j, t + self.params.t_refrac);
                    skip_until = t + all_gated;
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record_fire(j, t);
                    }
                    if learn {
                        self.fire_counts[j] += 1;
                        self.apply_stdp(j, t, last_input_spike);
                    }
                    from = j + 1;
                }
            }
        }

        if learn {
            self.epoch_elapsed_ms += u64::from(self.params.t_period);
            if self.epoch_elapsed_ms >= self.params.homeo_epoch_ms {
                self.apply_homeostasis();
            }
        }
        self.sim = sim;
        winner
    }

    /// The STDP event rule of §2.2/§4.4: LTP for synapses whose input
    /// spiked within `TLTP` before the output spike, LTD for all others;
    /// the update magnitude comes from the pluggable [`StdpRule`]
    /// (constant ±δ in the paper's hardware).
    ///
    /// [`StdpRule`]: crate::stdp_rules::StdpRule
    fn apply_stdp(&mut self, neuron: usize, fire_t: u32, last_input_spike: &[u32]) {
        let (n, t_ltp) = (self.params.neurons, self.params.t_ltp);
        let row = &mut self.weights[neuron * self.inputs..(neuron + 1) * self.inputs];
        self.stdp_rule.update_row(row, last_input_spike, |ts| {
            let dt = fire_t.saturating_sub(ts);
            ((ts != NEVER) & (dt <= t_ltp)).then_some(dt)
        });
        // Keep the column-major mirror coherent without a full rebuild:
        // one row changes per output spike.
        for (m, &w) in self.weights_t[neuron..]
            .iter_mut()
            .step_by(n)
            .zip(row.iter())
        {
            *m = f64::from(w);
        }
    }

    /// Homeostasis (§2.2): `threshold += sign(activity − Homeoth) ·
    /// threshold · r`, applied to every neuron at the epoch boundary.
    fn apply_homeostasis(&mut self) {
        for (j, fires) in self.fire_counts.iter_mut().enumerate() {
            let sign = match (*fires).cmp(&self.params.homeo_threshold) {
                std::cmp::Ordering::Greater => 1.0,
                std::cmp::Ordering::Less => -1.0,
                std::cmp::Ordering::Equal => 0.0,
            };
            self.thresholds[j] += sign * self.thresholds[j] * self.params.homeo_rate;
            // Keep the threshold meaningful: at least one max-weight spike.
            self.thresholds[j] = self.thresholds[j].max(255.0);
            *fires = 0;
        }
        self.epoch_elapsed_ms = 0;
    }

    /// Runs `epochs` passes of unsupervised STDP over the training set.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn train_stdp(&mut self, data: &Dataset, epochs: usize) {
        self.train_stdp_observed(data, epochs, nc_obs::null());
    }

    /// Like [`SnnNetwork::train_stdp`], reporting each epoch's spike
    /// count and STDP weight-update count to `recorder` under the
    /// `"snn.stdp"` context. With a disabled recorder this is exactly
    /// `train_stdp`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn train_stdp_observed(&mut self, data: &Dataset, epochs: usize, recorder: &dyn Recorder) {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        let observing = recorder.enabled();
        for epoch in 0..epochs {
            let mut spikes = 0u64;
            for (i, s) in data.iter().enumerate() {
                let pseed = (epoch as u64) << 32 | i as u64;
                self.simulate(&s.pixels, true, false, pseed, None);
                spikes += self.sim.fires.len() as u64;
            }
            if observing {
                // Every output spike triggers one STDP pass over the
                // neuron's full synapse row (LTP or LTD per synapse).
                recorder.record_epoch(
                    "snn.stdp",
                    &EpochMetrics {
                        epoch,
                        samples: data.len() as u64,
                        loss: None,
                        train_accuracy: None,
                        weight_updates: spikes * self.inputs as u64,
                        spikes,
                    },
                );
            }
        }
    }

    /// Self-labeling (§2.2): presents the training set without learning,
    /// counts which labels each neuron wins on, and tags each neuron with
    /// its frequency-normalized best label.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn self_label(&mut self, data: &Dataset) {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        assert_eq!(data.num_classes(), self.classes, "class count mismatch");
        self.label_counts.iter_mut().for_each(|c| *c = 0);
        self.class_presented.iter_mut().for_each(|c| *c = 0);
        for (i, s) in data.iter().enumerate() {
            let pseed = 0x1ABE_0000 | i as u64;
            let tie_seed = self.presentation_stream_seed(pseed);
            let winner = self.simulate(&s.pixels, false, true, pseed, None);
            self.class_presented[s.label] += 1;
            let readout = tie_broken_readout(winner, &self.sim.state.potentials, tie_seed);
            self.label_counts[readout * self.classes + s.label] += 1;
        }
        for j in 0..self.params.neurons {
            let mut best: Option<(f64, usize)> = None;
            for c in 0..self.classes {
                let presented = self.class_presented[c];
                if presented == 0 {
                    continue;
                }
                // "the score is deduced from the label counter value by
                // dividing by the number of input images with that label".
                let score = self.label_counts[j * self.classes + c] as f64 / presented as f64;
                if score > 0.0 && best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, c));
                }
            }
            self.labels[j] = best.map(|(_, c)| c);
        }
    }

    /// Predicts the class of one image: readout neuron's label (falling
    /// back to class 0 for never-labeled neurons, which counts as an
    /// error in evaluation unless the true class happens to be 0).
    ///
    /// Reads the readout straight from the reused simulation scratch, so
    /// repeated predictions (and `Model::evaluate`) perform no
    /// heap allocation once the buffers are warm. The presentation stops
    /// at the first fire, which decides the readout.
    pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        let tie_seed = self.presentation_stream_seed(presentation_seed);
        let winner = self.simulate(pixels, false, true, presentation_seed, None);
        let readout = tie_broken_readout(winner, &self.sim.state.potentials, tie_seed);
        self.labels[readout].unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::model::Model;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn tiny_params(neurons: usize) -> SnnParams {
        SnnParams::for_neurons(neurons)
    }

    #[test]
    fn strong_input_fires_and_wta_inhibits() {
        let mut params = tiny_params(4);
        params.initial_threshold = 500.0;
        let mut snn = SnnNetwork::new(8, 2, params, 1);
        let outcome = snn.present(&[255u8; 8], 0);
        assert!(outcome.winner.is_some(), "bright input must fire");
        // With a 5 ms inhibition and 500 ms window, multiple fires can
        // occur, but the first fire defines the winner.
        assert_eq!(outcome.fires[0].1, outcome.winner.unwrap());
    }

    #[test]
    fn dark_input_never_fires() {
        let mut snn = SnnNetwork::new(8, 2, tiny_params(4), 1);
        let outcome = snn.present(&[0u8; 8], 0);
        assert!(outcome.winner.is_none());
        assert!(outcome.fires.is_empty());
        assert!(outcome.potentials.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn leak_reduces_potential_between_spikes() {
        // One early spike, then silence: the potential must decay.
        let mut params = tiny_params(1);
        params.initial_threshold = 1e9; // never fire
        let mut snn = SnnNetwork::new(2, 2, params, 3);
        // Pixel 0 bright → spikes early and often; potentials decay
        // between them but the readout potential stays positive.
        let outcome = snn.present(&[255, 0], 0);
        assert!(outcome.potentials[0] > 0.0);
        // Compare: total un-decayed drive is count·w ≥ potential.
        let w = f64::from(snn.weight(0, 0));
        let mut calendar = SpikeCalendar::default();
        // same seed derivation as simulate() with seed 3, pres 0
        let seed = 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        calendar.fill(snn.coding(), &[255, 0], snn.params(), seed, None);
        let undecayed = calendar.events().count() as f64 * w;
        assert!(outcome.potentials[0] < undecayed);
    }

    #[test]
    fn stdp_potentiates_active_and_depresses_silent_synapses() {
        let mut params = tiny_params(1);
        params.initial_threshold = 300.0; // fires quickly
        let mut snn = SnnNetwork::new(4, 2, params, 5);
        let w_before: Vec<u8> = (0..4).map(|i| snn.weight(0, i)).collect();
        // Inputs 0-1 bright, 2-3 dark.
        for i in 0..20 {
            snn.present_learn(&[255, 255, 0, 0], i);
        }
        assert!(snn.weight(0, 0) > w_before[0], "active synapse must grow");
        assert!(snn.weight(0, 1) > w_before[1]);
        assert!(snn.weight(0, 2) < w_before[2], "silent synapse must shrink");
        assert!(snn.weight(0, 3) < w_before[3]);
    }

    #[test]
    fn row_stdp_update_matches_the_per_synapse_rule() {
        use crate::stdp_rules::StdpRule;
        let params = tiny_params(3);
        let t_ltp = params.t_ltp;
        let fire_t = t_ltp + 40;
        // Never spiked, spiked at the fire, at the window's edge (LTP),
        // just outside it (LTD), and at time 0.
        let edges = [NEVER, fire_t, fire_t - t_ltp, fire_t - t_ltp - 1, 0];
        let rails = [0u8, 1, 128, 254, 255];
        let mut rng = SplitMix64::new(0x57D9);
        let mut cases: Vec<(u8, u32)> = rails
            .iter()
            .flat_map(|&w| edges.iter().map(move |&ts| (w, ts)))
            .collect();
        cases.extend((0..200).map(|_| {
            let w = u8::try_from(rng.next_below(256)).unwrap();
            let ts = match rng.next_below(4) {
                0 => NEVER,
                _ => u32::try_from(rng.next_below(u64::from(fire_t) + 1)).unwrap(),
            };
            (w, ts)
        }));
        let (weights, spikes): (Vec<u8>, Vec<u32>) = cases.into_iter().unzip();
        let inputs = weights.len();
        for rule in [
            StdpRule::Additive { delta: 1 },
            StdpRule::Additive { delta: 8 },
            StdpRule::Additive { delta: i16::MAX },
            StdpRule::Multiplicative { rate: 0.1 },
            StdpRule::Multiplicative { rate: 1.0 },
            StdpRule::Exponential {
                delta: 20.0,
                tau: 10.0,
            },
        ] {
            let mut snn = SnnNetwork::new(inputs, 2, params, 3);
            snn.set_stdp_rule(rule.clone());
            snn.weights[inputs..2 * inputs].copy_from_slice(&weights);
            snn.rebuild_weights_t();
            let before = snn.weights.clone();
            snn.apply_stdp(1, fire_t, &spikes);
            for (i, (&w, &ts)) in weights.iter().zip(&spikes).enumerate() {
                let dt = fire_t.saturating_sub(ts);
                let want = if ts != NEVER && dt <= t_ltp {
                    rule.potentiate(w, dt)
                } else {
                    rule.depress(w)
                };
                assert_eq!(snn.weight(1, i), want, "{rule:?}: w {w}, spike {ts}");
            }
            for j in [0, 2] {
                let row = j * inputs..(j + 1) * inputs;
                assert_eq!(snn.weights[row.clone()], before[row], "{rule:?}: row {j}");
            }
            for (i, &w) in snn.weights.iter().enumerate() {
                let (j, input) = (i / inputs, i % inputs);
                assert_eq!(
                    snn.weights_t[input * 3 + j],
                    f64::from(w),
                    "{rule:?}: mirror"
                );
            }
        }
    }

    #[test]
    fn alternative_stdp_rules_also_specialize_synapses() {
        use crate::stdp_rules::StdpRule;
        for rule in [
            StdpRule::Multiplicative { rate: 0.05 },
            StdpRule::Exponential {
                delta: 6.0,
                tau: 20.0,
            },
        ] {
            let mut params = tiny_params(1);
            params.initial_threshold = 300.0;
            let mut snn = SnnNetwork::new(4, 2, params, 5);
            snn.set_stdp_rule(rule.clone());
            let before_active = snn.weight(0, 0);
            let before_silent = snn.weight(0, 2);
            for i in 0..20 {
                snn.present_learn(&[255, 255, 0, 0], i);
            }
            assert!(snn.weight(0, 0) > before_active, "{rule:?}");
            assert!(snn.weight(0, 2) < before_silent, "{rule:?}");
        }
    }

    #[test]
    fn weights_saturate_at_rails() {
        let mut params = tiny_params(1);
        params.initial_threshold = 260.0;
        let mut snn = SnnNetwork::new(2, 2, params, 5);
        snn.set_stdp_delta(300); // absurdly large to hit rails fast
        for i in 0..10 {
            snn.present_learn(&[255, 0], i);
        }
        assert_eq!(snn.weight(0, 0), 255);
        assert_eq!(snn.weight(0, 1), 0);
    }

    #[test]
    fn homeostasis_raises_threshold_of_hyperactive_neuron() {
        let mut params = tiny_params(1);
        params.initial_threshold = 300.0;
        // Tiny epoch: after 2 presentations (1000 ms) thresholds adjust.
        params.homeo_epoch_ms = 1000;
        params.homeo_threshold = 1; // any neuron firing >1 is "too active"
        let mut snn = SnnNetwork::new(4, 2, params, 6);
        let t0 = snn.thresholds()[0];
        for i in 0..6 {
            snn.present_learn(&[255u8; 4], i);
        }
        assert!(snn.thresholds()[0] > t0, "threshold should rise");
    }

    #[test]
    fn homeostasis_lowers_threshold_of_silent_neuron() {
        let mut params = tiny_params(1);
        params.initial_threshold = 1e6; // can't fire
        params.homeo_epoch_ms = 1000;
        params.homeo_threshold = 1;
        let mut snn = SnnNetwork::new(4, 2, params, 6);
        let t0 = snn.thresholds()[0];
        for i in 0..6 {
            snn.present_learn(&[255u8; 4], i);
        }
        assert!(snn.thresholds()[0] < t0, "threshold should fall");
    }

    #[test]
    fn self_labeling_assigns_labels_to_winning_neurons() {
        let (train, _) = DigitsSpec {
            train: 40,
            test: 0,
            seed: 8,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, tiny_params(12), 2);
        snn.train_stdp(&train, 1);
        snn.self_label(&train);
        assert!(
            snn.labels().iter().any(Option::is_some),
            "at least one neuron must win a label"
        );
    }

    #[test]
    fn evaluation_records_every_sample() {
        let (train, test) = DigitsSpec {
            train: 20,
            test: 10,
            seed: 8,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, tiny_params(10), 2);
        snn.self_label(&train);
        let confusion = Model::evaluate(&mut snn, &test);
        assert_eq!(confusion.total(), 10);
    }

    #[test]
    fn presentation_is_deterministic_given_seed() {
        let mk = || {
            let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
            snn.present(&[180u8; 16], 42)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "does not match inputs")]
    fn rejects_wrong_pixel_count() {
        let mut snn = SnnNetwork::new(4, 2, tiny_params(2), 0);
        let _ = snn.present(&[0u8; 5], 0);
    }

    #[test]
    fn stuck_at_faults_corrupt_synapses_deterministically() {
        let mk = || SnnNetwork::new(16, 2, tiny_params(4), 9);
        let plan = FaultPlan::new(FaultModel::StuckAt1, 0.3, 77).unwrap();
        let mut a = mk();
        let mut b = mk();
        a.apply_fault(&plan).unwrap();
        b.apply_fault(&plan).unwrap();
        assert_eq!(a.weights(), b.weights());
        assert_ne!(a.weights(), mk().weights(), "a 30% plan must flip bits");
        // StuckAt1 can only set bits: every weight is >= the healthy one.
        for (faulty, healthy) in a.weights().iter().zip(mk().weights()) {
            assert_eq!(faulty & healthy, *healthy);
        }
    }

    #[test]
    fn full_dead_neuron_plan_silences_the_network() {
        let mut snn = SnnNetwork::new(8, 2, tiny_params(4), 1);
        snn.apply_fault(&FaultPlan::new(FaultModel::DeadNeuron, 1.0, 3).unwrap())
            .unwrap();
        assert!(snn.weights().iter().all(|&w| w == 0));
        let outcome = snn.present(&[255u8; 8], 0);
        assert!(outcome.winner.is_none(), "dead network must never fire");
    }

    #[test]
    fn transient_reads_perturb_presentations_but_not_storage() {
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy_weights = snn.weights().to_vec();
        let healthy = snn.clone().present(&[180u8; 16], 42);
        snn.apply_fault(&FaultPlan::new(FaultModel::TransientRead, 1.0, 5).unwrap())
            .unwrap();
        let faulty = snn.present(&[180u8; 16], 42);
        assert_eq!(snn.weights(), healthy_weights, "storage must stay pristine");
        assert_ne!(
            healthy.potentials, faulty.potentials,
            "per-read flips at rate 1.0 must change the dynamics"
        );
    }

    #[test]
    fn stuck_tap_faults_change_rate_coded_presentations() {
        let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 1.0, 4).unwrap();
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy = snn.present(&[180u8; 16], 7);
        snn.apply_fault(&plan).unwrap();
        let faulty = snn.present(&[180u8; 16], 7);
        assert_ne!(healthy, faulty, "stuck taps must alter the spike trains");
        // Determinism: re-injecting into a fresh clone reproduces it.
        let mut again = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let _ = again.present(&[180u8; 16], 7);
        again.apply_fault(&plan).unwrap();
        assert_eq!(again.present(&[180u8; 16], 7), faulty);
    }

    #[test]
    fn stuck_tap_faults_are_rejected_for_temporal_codes() {
        let mut snn = SnnNetwork::with_coding(16, 2, tiny_params(4), CodingScheme::RankOrder, 9);
        let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.5, 4).unwrap();
        assert!(matches!(
            snn.apply_fault(&plan),
            Err(ModelError::FaultUnsupported { .. })
        ));
    }

    #[test]
    fn zero_rate_fault_plans_are_no_ops() {
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let healthy = snn.clone().present(&[180u8; 16], 42);
        for model in [
            FaultModel::StuckAt0,
            FaultModel::StuckAt1,
            FaultModel::DeadNeuron,
            FaultModel::TransientRead,
            FaultModel::StuckLfsrTap,
        ] {
            snn.apply_fault(&FaultPlan::new(model, 0.0, 1).unwrap())
                .unwrap();
        }
        assert_eq!(snn.present(&[180u8; 16], 42), healthy);
    }

    #[test]
    fn long_inter_spike_gap_decays_to_the_analytic_floor() {
        // Regression for the leak-tail bug: `dt` beyond the decay table
        // used to clamp to the last entry (a single e^{-Tperiod/Tleak}
        // factor), so a 10_000 ms silence leaked only as much as a
        // 500 ms one. Composing factors must reach the analytic value.
        let snn = SnnNetwork::new(2, 2, tiny_params(1), 3);
        let v = 1234.5;
        let gap = 10_000u64; // e^{-20} ≈ 2.06e-9 with Tleak = 500 ms
        let after = decay_with_lut(&snn.decay_lut, v, gap);
        assert!(after > 0.0);
        assert!(
            after < v * 1e-6,
            "a 20-Tleak gap must decay below 1e-6 of the pre-gap value, got {after}"
        );
        let analytic = v * (-(gap as f64) / snn.params().t_leak).exp();
        assert!(
            (after - analytic).abs() <= analytic * 1e-9,
            "composed {after} vs analytic {analytic}"
        );
    }

    #[test]
    fn in_table_gaps_use_the_single_lookup_bit_for_bit() {
        let snn = SnnNetwork::new(2, 2, tiny_params(1), 3);
        let v = 987.125;
        for dt in [1u64, 37, 250, 499] {
            let direct = v * snn.decay_lut[usize::try_from(dt).unwrap()];
            assert_eq!(decay_with_lut(&snn.decay_lut, v, dt), direct, "dt {dt}");
        }
    }

    #[test]
    fn bucket_kernel_and_scalar_loop_are_bit_identical() {
        // `present` runs the whole-tick pass and scans only the buckets
        // with a fire; `present_traced` scans every bucket event by event
        // (a trace forces it). Same seed → same outcome, bit for
        // bit, across a spread of images.
        let (train, _) = DigitsSpec {
            train: 12,
            test: 1,
            seed: 77,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut kernel = SnnNetwork::new(784, 10, SnnParams::tuned(20), 0xFA57);
        let mut scalar = kernel.clone();
        for (i, s) in train.iter().enumerate() {
            let a = kernel.present(&s.pixels, i as u64);
            let (b, _) = scalar.present_traced(&s.pixels, i as u64);
            assert_eq!(a, b, "presentation {i}");
        }
    }

    #[test]
    fn dark_image_readout_tie_break_is_seeded_not_index_biased() {
        // An all-dark image drives no spikes: every potential ends at
        // exactly 0.0, a full n-way tie. The old readout always returned
        // neuron 0; the seeded draw must spread across neurons while
        // staying deterministic per presentation seed.
        let mut snn = SnnNetwork::new(8, 2, tiny_params(8), 1);
        let picks: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| snn.present(&[0u8; 8], i).readout())
            .collect();
        assert!(
            picks.len() > 1,
            "tie-break must not collapse onto one neuron: {picks:?}"
        );
        assert_eq!(
            snn.present(&[0u8; 8], 7).readout(),
            snn.present(&[0u8; 8], 7).readout(),
            "same presentation seed must give the same pick"
        );
    }

    #[test]
    fn early_stopping_predict_matches_the_scalar_loop() {
        // `predict` runs the whole-tick pass and stops at the first fire;
        // `present_traced` scans every bucket event by event over the
        // whole window. The readout must agree image for image
        // — which requires bit-identical winners AND (for no-fire
        // images) bit-identical final potentials, since exact-tie
        // breaking feeds off the raw f64 values. Exercised for both rate
        // codes, with and without a stuck-tap generator fault.
        let (train, test) = DigitsSpec {
            train: 30,
            test: 25,
            seed: 5,
            difficulty: Difficulty::default(),
        }
        .generate();
        for coding in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            let mut snn = SnnNetwork::with_coding(784, 10, SnnParams::tuned(16), coding, 0xBEEF);
            snn.set_stdp_delta(4);
            snn.train_stdp(&train, 1);
            snn.self_label(&train);
            let mut reference = snn.clone();
            let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.7, 13).unwrap();
            for faulted in [false, true] {
                if faulted {
                    snn.apply_fault(&plan).unwrap();
                    reference.apply_fault(&plan).unwrap();
                }
                for (i, s) in test.iter().enumerate() {
                    let pseed = 0x51AE_0000 | i as u64;
                    let (p, _) = reference.present_traced(&s.pixels, pseed);
                    let want = reference.labels()[p.readout()].unwrap_or(0);
                    assert_eq!(
                        snn.predict(&s.pixels, pseed),
                        want,
                        "{coding:?} image {i} faulted {faulted}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_no_fire_potentials_are_bit_identical() {
        // A sky-high threshold forces the no-winner branch on every
        // image, so the pass's committed potentials (the only
        // readout input left) must equal the per-event scan's exactly.
        let (_, test) = DigitsSpec {
            train: 1,
            test: 15,
            seed: 31,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut params = SnnParams::tuned(12);
        params.initial_threshold = 1e12;
        for coding in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            let mut kernel = SnnNetwork::with_coding(784, 10, params, coding, 0xCAFE);
            let mut reference = kernel.clone();
            for (i, s) in test.iter().enumerate() {
                let pseed = i as u64;
                let _ = kernel.predict(&s.pixels, pseed);
                let (p, _) = reference.present_traced(&s.pixels, pseed);
                assert!(p.winner.is_none(), "threshold must be unreachable");
                assert_eq!(
                    kernel.sim.state.potentials, p.potentials,
                    "{coding:?} image {i}"
                );
            }
        }
    }

    #[test]
    fn predictions_reuse_simulation_scratch() {
        // The documented zero-allocation steady state (unsafe is
        // forbidden workspace-wide, so no counting allocator): after a
        // warm-up presentation, the scratch buffers must keep their
        // addresses and capacities across further predictions.
        let mut snn = SnnNetwork::new(16, 2, tiny_params(4), 9);
        let _ = snn.predict(&[180u8; 16], 42);
        let potentials_ptr = snn.sim.state.potentials.as_ptr();
        let last_update_ptr = snn.sim.state.last_update_mut().as_ptr();
        let calendar = snn.sim.calendar.buffers();
        for _ in 0..20 {
            let _ = snn.predict(&[180u8; 16], 42);
        }
        assert_eq!(snn.sim.state.potentials.as_ptr(), potentials_ptr);
        assert_eq!(snn.sim.state.last_update_mut().as_ptr(), last_update_ptr);
        assert_eq!(snn.sim.calendar.buffers(), calendar);
    }

    #[test]
    fn transposed_weights_track_stdp_and_faults() {
        let mut params = tiny_params(4);
        params.initial_threshold = 300.0;
        let mut snn = SnnNetwork::new(8, 2, params, 5);
        for i in 0..10 {
            snn.present_learn(&[255, 255, 255, 255, 0, 0, 0, 0], i);
        }
        snn.apply_fault(&FaultPlan::new(FaultModel::StuckAt1, 0.2, 7).unwrap())
            .unwrap();
        snn.quantize_weights(6);
        for j in 0..4 {
            for i in 0..8 {
                assert_eq!(
                    snn.weights_t[i * 4 + j].to_bits(),
                    f64::from(snn.weight(j, i)).to_bits(),
                    "mirror out of sync at neuron {j}, input {i}"
                );
            }
        }
    }
}
