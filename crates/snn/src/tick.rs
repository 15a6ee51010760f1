//! The gated whole-tick pass: one millisecond of input events applied to
//! every neuron at once, and the per-event scan that resolves the ticks
//! it declines. The reference presentation loop ([`crate::network`]), the
//! `nc-hw` mesh simulator and the `nc-hw` SNNwt datapath all run the pass
//! on every tick and resolve a declined tick through
//! [`TickState::scan_event`], the one place an input event integrates
//! into a neuron.
//!
//! A neuron's *gate* is the first millisecond at which it integrates
//! again: the later of its refractory and inhibition deadlines. Within a
//! tick without a fire, the per-event scan gives an open neuron one decay
//! from its last update, then one add per event in event order, and
//! leaves a gated neuron alone. Weights are non-negative and f64 addition
//! is monotone, so a crossing at any event of the tick still shows at
//! its end: if no open neuron ends at or above its threshold, nothing
//! fired and the pass commits, bit-identical to the scan. Otherwise it
//! leaves the state untouched and returns `None`.
//!
//! # One sweep per tick
//!
//! The pass is one sweep over the neurons in chunks of sixteen (the tail
//! in narrower chunks of 8, 4, 2 and 1). A chunk's sums live in
//! registers for the whole tick: `v * factor` plus the first event's
//! weight, `+= w` for each further event, then the `>= threshold` fold,
//! and one store of the tentative potentials. Each neuron's f64
//! operations keep the scan's order, so the sums are bit-identical to
//! it. The sweep stops at the first chunk with a crossing. On a tick
//! that needs per-neuron factors (below) each lane takes its neuron's own
//! table factor, NaN for a gated neuron, so that a gated neuron's sum
//! never crosses, and the commit keeps its old potential and last update.
//!
//! The decay is one table factor, `v * lut[t - last_update]`, for every
//! neuron, in the pass and the scan alike: `lut[0] == 1.0`, and every
//! tick lies inside the presentation window, so the gap is always inside
//! the table and the product is exactly what
//! [`crate::network::decay_with_lut`] computes.
//!
//! # The shared last update
//!
//! While every neuron is open and shares one last update (before the
//! first fire, and between fires once the gates have lapsed and a tick
//! has committed with every neuron open) the state keeps that time as
//! one value, the chunks read one factor, and a commit is a buffer swap
//! plus one store: nothing per neuron beyond the sweep. The per-neuron
//! vector is written out only when a tick finds a gate still shut, or
//! when a caller reads or writes it through [`TickState::last_update_mut`]
//! or [`TickState::scan_event`]; the next tick that commits with every
//! neuron open makes it shared again.

/// Neurons per chunk of the sweep: sixteen `f64` sums stay in registers
/// across a tick's events.
const LANES: usize = 16;

/// Per-neuron LIF state of one presentation, flat in neuron id order.
#[derive(Debug, Clone, Default)]
pub struct TickState {
    /// Membrane potentials after the last committed update.
    pub potentials: Vec<f64>,
    /// Time of each neuron's last potential update; stale while
    /// `shared_last` holds.
    last_update: Vec<u32>,
    /// The last update every neuron shares, when it is kept as one value.
    shared_last: Option<u32>,
    /// First millisecond at which each neuron integrates again.
    gate: Vec<u32>,
    /// The latest gate: from it on every neuron is open.
    last_gate: u32,
    /// The pass's tentative potentials.
    staged: Vec<f64>,
}

impl TickState {
    /// `neurons` neurons at rest, last updated at `t = 0` and open from
    /// it, reusing the buffers.
    pub fn reset(&mut self, neurons: usize) {
        for v in [&mut self.potentials, &mut self.staged] {
            v.clear();
            v.resize(neurons, 0.0);
        }
        self.gate.clear();
        self.gate.resize(neurons, 0);
        self.last_gate = 0;
        self.shared_last = Some(0);
    }

    /// Every neuron's gate, in neuron id order.
    pub fn gate(&self) -> &[u32] {
        &self.gate
    }

    /// Gates neuron `j` until at least `until`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn raise_gate(&mut self, j: usize, until: u32) {
        self.gate[j] = self.gate[j].max(until);
        self.last_gate = self.last_gate.max(until);
    }

    /// Time of neuron `j`'s last potential update.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn last_update(&self, j: usize) -> u32 {
        match self.shared_last {
            Some(last) => last,
            None => self.last_update[j],
        }
    }

    /// Every neuron's last update time, writable, in neuron id order. A
    /// shared last update is written out first.
    pub fn last_update_mut(&mut self) -> &mut [u32] {
        if let Some(last) = self.shared_last.take() {
            self.last_update.clear();
            self.last_update.resize(self.potentials.len(), last);
        }
        &mut self.last_update
    }

    /// Neuron `j`'s potential after one input event at `t` that adds `w`,
    /// as the per-event scan computes it: the table's decay from its last
    /// update, then the add. The state is only read.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `t` precedes the neuron's last
    /// update, and (by a debug assertion) if the gap falls outside `lut`.
    pub fn integrated(&self, j: usize, lut: &[f64], w: f64, t: u32) -> f64 {
        self.potentials[j] * decay_factor(lut, t, self.last_update(j)) + w
    }

    /// Applies one input event at `t` adding `w` to neuron `j`
    /// ([`TickState::integrated`]) and returns the new potential.
    fn integrate(&mut self, j: usize, lut: &[f64], w: f64, t: u32) -> f64 {
        let v = self.integrated(j, lut, w, t);
        self.last_update_mut()[j] = t;
        self.potentials[j] = v;
        v
    }

    /// The per-event scan: integrates one input event at `t` into the
    /// open neurons from `from` upward, in ascending id, each taking its
    /// weight from `weight(j)` (called once per open neuron, in that
    /// order, so a faulty read port keeps its read order). Stops at and
    /// returns the first neuron that ends at or above its threshold, its
    /// potential not yet reset: the caller fires it and resumes the event
    /// at `j + 1`. `None` once the event has reached every open neuron.
    ///
    /// # Panics
    ///
    /// As [`TickState::integrated`]; also if `thresholds` is shorter than
    /// the state.
    pub fn scan_event(
        &mut self,
        lut: &[f64],
        thresholds: &[f64],
        t: u32,
        from: usize,
        mut weight: impl FnMut(usize) -> f64,
    ) -> Option<usize> {
        (from..self.potentials.len())
            .find(|&j| t >= self.gate[j] && self.integrate(j, lut, weight(j), t) >= thresholds[j])
    }

    /// The gated pass over the tick at `t` whose events are `bucket`'s
    /// inputs, in order. `weights_t` is column-major (`[input][neuron]`)
    /// and `lut` the decay table of [`crate::SnnNetwork::decay_lut`].
    /// Commits and returns the number of neurons it updated (the open
    /// ones; none for an empty bucket) when no open neuron ends at or
    /// above its threshold; otherwise changes nothing and returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if an input is out of range for `weights_t`, if
    /// `thresholds` is shorter than the state, or if `t - last_update`
    /// falls outside `lut` (checked by a debug assertion: it cannot
    /// happen while `t` is inside the window).
    pub fn try_tick(
        &mut self,
        weights_t: &[f64],
        lut: &[f64],
        thresholds: &[f64],
        bucket: &[usize],
        t: u32,
    ) -> Option<usize> {
        let Some((&first, rest)) = bucket.split_first() else {
            return Some(0);
        };
        let n = self.potentials.len();
        let events = Events {
            weights_t,
            n,
            first,
            rest,
        };
        if let Some(last) = self.shared_last.filter(|_| t >= self.last_gate) {
            // Every neuron is open and shares one last update: one factor
            // decays them all, and nothing needs a mask.
            let mut sweep = Sweep {
                events,
                factors: Shared(decay_factor(lut, t, last)),
                potentials: &self.potentials,
                thresholds,
                staged: &mut self.staged,
            };
            if sweep.crosses() {
                return None;
            }
            std::mem::swap(&mut self.potentials, &mut self.staged);
            self.shared_last = Some(t);
            return Some(n);
        }
        // Per-neuron factors read the per-neuron last updates.
        self.last_update_mut();
        let mut sweep = Sweep {
            events,
            factors: PerNeuron {
                lut,
                t,
                last_update: &self.last_update,
                gate: &self.gate,
            },
            potentials: &self.potentials,
            thresholds,
            staged: &mut self.staged,
        };
        if sweep.crosses() {
            return None;
        }
        // Only the open neurons take their staged sums.
        let mut open = 0;
        for (((v, last), &g), &s) in self
            .potentials
            .iter_mut()
            .zip(&mut self.last_update)
            .zip(&self.gate)
            .zip(&self.staged)
        {
            let is_open = t >= g;
            *v = if is_open { s } else { *v };
            *last = if is_open { t } else { *last };
            open += usize::from(is_open);
        }
        if open == n {
            self.shared_last = Some(t);
        }
        Some(open)
    }
}

/// The decay table's factor from `last` to `t`.
#[inline]
fn decay_factor(lut: &[f64], t: u32, last: u32) -> f64 {
    let dt = usize::try_from(t - last).unwrap_or(usize::MAX);
    debug_assert!(dt < lut.len(), "decay gap {dt} outside the table");
    lut[dt]
}

/// A tick's events over column-major weights.
#[derive(Clone, Copy)]
struct Events<'a> {
    weights_t: &'a [f64],
    n: usize,
    first: usize,
    rest: &'a [usize],
}

impl Events<'_> {
    /// `input`'s weights onto the `L` neurons from `base`.
    #[inline(always)]
    fn column<const L: usize>(&self, input: usize, base: usize) -> &[f64] {
        &self.weights_t[input * self.n + base..][..L]
    }
}

/// Where a chunk's decay factors come from.
trait Factors {
    /// The decay factors of the `L` neurons from `base`.
    fn lanes<const L: usize>(&self, base: usize) -> [f64; L];
}

/// One factor for every neuron.
struct Shared(f64);

impl Factors for Shared {
    #[inline(always)]
    fn lanes<const L: usize>(&self, _: usize) -> [f64; L] {
        [self.0; L]
    }
}

/// Each neuron's own table factor. A gated neuron's is NaN: its sums are
/// then NaN, never reach a threshold, and the commit leaves it alone.
struct PerNeuron<'a> {
    lut: &'a [f64],
    t: u32,
    last_update: &'a [u32],
    gate: &'a [u32],
}

impl Factors for PerNeuron<'_> {
    #[inline(always)]
    fn lanes<const L: usize>(&self, base: usize) -> [f64; L] {
        let mut factors = [0.0; L];
        let last = &self.last_update[base..][..L];
        let gate = &self.gate[base..][..L];
        for ((f, &last), &g) in factors.iter_mut().zip(last).zip(gate) {
            *f = if self.t >= g {
                decay_factor(self.lut, self.t, last)
            } else {
                f64::NAN
            };
        }
        factors
    }
}

/// The sweep of one tick over every neuron.
struct Sweep<'a, F> {
    events: Events<'a>,
    factors: F,
    potentials: &'a [f64],
    thresholds: &'a [f64],
    staged: &'a mut [f64],
}

impl<F: Factors> Sweep<'_, F> {
    /// Sweeps every neuron, full chunks first and then the tail in
    /// halving widths; stops at the first chunk with a crossing.
    #[inline(always)]
    fn crosses(&mut self) -> bool {
        let n = self.events.n;
        let mut base = 0;
        while n - base >= LANES {
            if self.chunk::<LANES>(base) {
                return true;
            }
            base += LANES;
        }
        macro_rules! tail {
            ($($width:literal),*) => {$(
                if n - base >= $width {
                    if self.chunk::<$width>(base) {
                        return true;
                    }
                    base += $width;
                }
            )*};
        }
        tail!(8, 4, 2, 1);
        false
    }

    /// Sweeps the `L` neurons from `base`: stages their sums and returns
    /// whether one ends at or above its threshold.
    #[inline(always)]
    fn chunk<const L: usize>(&mut self, base: usize) -> bool {
        let v = &self.potentials[base..][..L];
        let thresholds = &self.thresholds[base..][..L];
        let staged = &mut self.staged[base..][..L];
        let events = &self.events;
        let factors = self.factors.lanes::<L>(base);
        let mut sums = [0.0; L];
        let first = events.column::<L>(events.first, base);
        for (((s, &v), &f), &w) in sums.iter_mut().zip(v).zip(&factors).zip(first) {
            *s = v * f + w;
        }
        for &input in events.rest {
            for (s, &w) in sums.iter_mut().zip(events.column::<L>(input, base)) {
                *s += w;
            }
        }
        let mut crossed = false;
        for (&s, &th) in sums.iter().zip(thresholds) {
            crossed |= s >= th;
        }
        staged.copy_from_slice(&sums);
        crossed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::decay_with_lut;
    use crate::{SnnNetwork, SnnParams};
    use nc_substrate::check::check_cases;
    use nc_substrate::rng::SplitMix64;
    use std::cell::Cell;

    /// A state of `n` neurons with the given potentials, last updates
    /// and gates.
    fn state(potentials: &[f64], last_update: &[u32], gate: &[u32]) -> TickState {
        let mut s = TickState::default();
        s.reset(potentials.len());
        s.potentials.copy_from_slice(potentials);
        s.last_update_mut().copy_from_slice(last_update);
        for (j, &g) in gate.iter().enumerate() {
            s.raise_gate(j, g);
        }
        s
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn last_updates(s: &TickState) -> Vec<u32> {
        (0..s.potentials.len()).map(|j| s.last_update(j)).collect()
    }

    #[test]
    fn the_decay_table_starts_at_one() {
        let mut rng = SplitMix64::new(0x7AB1E);
        for _ in 0..200 {
            let mut params = SnnParams::for_neurons(1 + rng.next_index(20));
            params.t_period = 1 + rng.next_below_u32(2000);
            params.t_leak = rng.next_range(0.01, 5000.0);
            let net = SnnNetwork::new(3, 2, params, rng.next_u64());
            assert_eq!(net.decay_lut()[0].to_bits(), 1.0f64.to_bits(), "{params:?}");
        }
    }

    #[test]
    fn the_pass_matches_the_per_event_scan() {
        // Two inputs, three neurons: w[input * 3 + j].
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lut: Vec<f64> = (0..10).map(|dt| 0.9f64.powi(dt)).collect();
        let v0 = [10.0, 20.0, 30.0];
        // Own last updates, and one shared last update (the shared
        // factor once every gate has lapsed), each with and without a
        // gated neuron.
        for (last, gate) in [
            ([2, 5, 7], [0, 0, 0]),
            ([3, 3, 1], [0, 0, 9]),
            ([3, 3, 3], [0, 0, 0]),
            ([3, 3, 3], [0, 6, 0]),
            ([3, 3, 3], [0, 9, 0]),
        ] {
            let mut s = state(&v0, &last, &gate);
            let open = gate.iter().filter(|&&g| g <= 7).count();
            assert_eq!(s.try_tick(&w, &lut, &[1e9; 3], &[0, 1, 1], 7), Some(open));
            for j in 0..3 {
                let (mut v, mut at) = (v0[j], last[j]);
                if gate[j] <= 7 {
                    v = decay_with_lut(&lut, v, u64::from(7 - last[j]));
                    for input in [0, 1, 1] {
                        v += w[input * 3 + j];
                    }
                    at = 7;
                }
                assert_eq!(s.potentials[j].to_bits(), v.to_bits(), "{last:?} {j}");
                assert_eq!(s.last_update(j), at, "{last:?} {j}");
            }
        }
    }

    #[test]
    fn gated_neurons_keep_their_state_on_commit_and_decline() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lut = vec![0.5; 10];
        // Neuron 1 is gated until 9 and would cross if it integrated.
        let before = state(&[1.0, 99.0, 3.0], &[1, 2, 3], &[0, 9, 4]);
        let mut s = before.clone();
        assert_eq!(
            s.try_tick(&w, &lut, &[50.0, 50.0, 50.0], &[0, 1], 4),
            Some(2)
        );
        assert_eq!(s.potentials[1].to_bits(), 99.0f64.to_bits());
        assert_eq!(last_updates(&s), [4, 2, 4]);
        assert_eq!(s.gate, before.gate);
        // Neuron 2 now crosses: nothing commits, gated or open.
        let committed = s.clone();
        assert_eq!(
            s.try_tick(&w, &lut, &[50.0, 50.0, 20.0], &[1, 1, 1], 5),
            None
        );
        assert_eq!(bits(&s.potentials), bits(&committed.potentials));
        assert_eq!(last_updates(&s), last_updates(&committed));
        assert_eq!(s.gate, committed.gate);
    }

    #[test]
    fn an_all_gated_tick_changes_nothing_until_a_gate_opens() {
        // One input, two neurons; neuron 1 sits above its threshold but
        // stays gated throughout.
        let (w, lut, th) = ([1.0, 2.0], vec![0.5; 10], [5.0; 2]);
        let mut s = state(&[4.0, 8.0], &[1, 1], &[6, 9]);
        assert_eq!(s.try_tick(&w, &lut, &th, &[0], 3), Some(0));
        assert_eq!(s.try_tick(&w, &lut, &th, &[0, 0], 5), Some(0));
        assert_eq!(bits(&s.potentials), bits(&[4.0, 8.0]));
        assert_eq!(last_updates(&s), [1, 1]);
        // Neuron 0 opens at 6: 4 * 0.5 + 1 stays below 5.
        assert_eq!(s.try_tick(&w, &lut, &th, &[0], 6), Some(1));
        assert_eq!(bits(&s.potentials), bits(&[3.0, 8.0]));
        assert_eq!(last_updates(&s), [6, 1]);
    }

    /// The per-event scan of the tick at `t`: every event in order, every
    /// open neuron in ascending id, leak then add then compare. Returns
    /// the potentials, last updates and open count it leaves when no open
    /// neuron crosses, else the first neuron to cross.
    fn scan(
        s: &TickState,
        w: &[f64],
        lut: &[f64],
        th: &[f64],
        bucket: &[usize],
        t: u32,
    ) -> Result<(Vec<f64>, Vec<u32>, usize), usize> {
        let n = s.potentials.len();
        let mut v = s.potentials.clone();
        let mut last = last_updates(s);
        for &input in bucket {
            for j in 0..n {
                if t < s.gate[j] {
                    continue;
                }
                v[j] = decay_with_lut(lut, v[j], u64::from(t - last[j]));
                last[j] = t;
                v[j] += w[input * n + j];
                if v[j] >= th[j] {
                    return Err(j);
                }
            }
        }
        let open = s.gate.iter().filter(|&&g| t >= g).count();
        Ok((v, last, if bucket.is_empty() { 0 } else { open }))
    }

    #[test]
    fn scan_event_matches_the_per_event_scan() {
        // Two inputs, three neurons: w[input * 3 + j]; the tick is t = 5.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lut: Vec<f64> = (0..10).map(|dt| 0.5f64.powi(dt)).collect();
        let first =
            |v0: [f64; 3], last: [u32; 3], gate: [u32; 3], th: [f64; 3], bucket: &[usize]| {
                let mut s = state(&v0, &last, &gate);
                let want = scan(&s, &w, &lut, &th, bucket, 5);
                // It resolves exactly the ticks the pass declines.
                let declined = s.clone().try_tick(&w, &lut, &th, bucket, 5).is_none();
                assert_eq!(declined, want.is_err());
                let found = bucket
                    .iter()
                    .find_map(|&input| s.scan_event(&lut, &th, 5, 0, |j| w[input * 3 + j]));
                assert_eq!(found, want.as_ref().err().copied());
                // A scan without a fire leaves what the pass commits.
                if let Ok((v, at, _)) = want {
                    assert_eq!(bits(&s.potentials), bits(&v));
                    assert_eq!(last_updates(&s), at);
                }
                assert_eq!(s.gate, gate);
                found
            };
        let (rest, open) = ([0.0; 3], [0; 3]);
        // Neuron 0 would cross but is gated; neuron 2 fires.
        assert_eq!(
            first([40.0, 0.0, 0.0], [5; 3], [9, 0, 0], [20.0, 20.0, 6.0], &[1]),
            Some(2)
        );
        // 8 * 0.5 + 1 lands exactly on neuron 0's threshold; just below
        // it, nothing fires.
        let v0 = [8.0, 0.0, 0.0];
        assert_eq!(first(v0, [4, 5, 5], open, [5.0, 50.0, 50.0], &[0]), Some(0));
        assert_eq!(first(v0, [4, 5, 5], open, [5.5, 50.0, 50.0], &[0]), None);
        // Neurons 1 and 2 cross on the same event: the lower id wins.
        assert_eq!(first(rest, [5; 3], open, [50.0, 4.0, 5.0], &[1]), Some(1));
        // Neuron 2 crosses on the first event, neuron 0 only on the
        // third: event order beats neuron order.
        assert_eq!(
            first(rest, [5; 3], open, [3.0, 50.0, 3.0], &[0, 0, 0]),
            Some(2)
        );
        // Only the second event takes neuron 1 over.
        assert_eq!(
            first([0.0, 4.0, 0.0], [5, 3, 5], open, [50.0, 4.5, 50.0], &[0, 0]),
            Some(1)
        );
    }

    #[test]
    fn scan_event_resumes_past_a_fire_and_reads_only_open_neurons() {
        // Input 1 adds [4, 5, 6]; neuron 0 is gated, 1 and 2 both cross.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lut = vec![0.5; 10];
        let mut s = state(&[0.0; 3], &[4, 5, 5], &[6, 0, 0]);
        let th = [1.0, 4.0, 5.0];
        let mut reads = Vec::new();
        let mut weight = |j: usize| {
            reads.push(j);
            w[3 + j]
        };
        assert_eq!(s.scan_event(&lut, &th, 5, 0, &mut weight), Some(1));
        assert_eq!(s.scan_event(&lut, &th, 5, 2, &mut weight), Some(2));
        assert_eq!(s.scan_event(&lut, &th, 5, 3, &mut weight), None);
        assert_eq!(reads, [1, 2]);
        assert_eq!(bits(&s.potentials), bits(&[0.0, 5.0, 6.0]));
        assert_eq!(last_updates(&s), [4, 5, 5]);
    }

    #[test]
    fn the_sweep_matches_the_per_event_scan_on_random_ticks() {
        // Every tail width, shared-factor and gated ticks, parked neurons
        // (threshold +inf, zero column), and thresholds set exactly on,
        // just above or below a neuron's end-of-tick sum, so that some
        // ticks cross only at their last event.
        let tails = Cell::new(0u32);
        // [shared, gated] x [commit, decline]
        let seen = Cell::new([[0usize; 2]; 2]);
        check_cases(0x5EE9_71C4, 800, |case, rng| {
            let n = 1 + rng.next_index(70);
            let inputs = 1 + rng.next_index(6);
            let t0 = rng.next_below_u32(40);
            let lut: Vec<f64> = (0..50)
                .map(|dt| {
                    if dt == 0 {
                        1.0
                    } else {
                        rng.next_range(0.05, 1.0)
                    }
                })
                .collect();
            let parked: Vec<bool> = (0..n).map(|_| rng.next_below(8) == 0).collect();
            let mut w: Vec<f64> = (0..inputs * n)
                .map(|_| rng.next_below(256) as f64)
                .collect();
            for (i, weight) in w.iter_mut().enumerate() {
                if parked[i % n] {
                    *weight = 0.0;
                }
            }
            let mut s = TickState::default();
            s.reset(n);
            for (v, &p) in s.potentials.iter_mut().zip(&parked) {
                *v = if p { 0.0 } else { rng.next_range(0.0, 500.0) };
            }
            let shared = rng.next_below(2) == 0;
            if shared {
                // A committed all-open tick leaves one shared last update;
                // lapsed gates keep it.
                let all_open = s.try_tick(&w, &lut, &[f64::INFINITY; 70][..n], &[0], t0);
                assert_eq!(all_open, Some(n));
                for j in 0..n {
                    if rng.next_below(3) == 0 {
                        s.raise_gate(j, rng.next_below_u32(t0 + 1));
                    }
                }
            } else {
                for last in s.last_update_mut() {
                    *last = rng.next_below_u32(t0 + 1);
                }
                for j in 0..n {
                    match rng.next_below(3) {
                        0 => s.raise_gate(j, t0 + 1 + rng.next_below_u32(8)),
                        1 => s.raise_gate(j, rng.next_below_u32(t0 + 1)),
                        _ => {}
                    }
                }
            }
            let mut t = t0;
            // Two ticks: the second starts from whatever the first left.
            for _ in 0..2 {
                t += 1 + rng.next_below_u32(3);
                let bucket: Vec<usize> = (0..1 + rng.next_index(5))
                    .map(|_| rng.next_index(inputs))
                    .collect();
                let mode = usize::from(!(s.shared_last.is_some() && t >= s.last_gate));
                let (end, _, _) = scan(&s, &w, &lut, &[f64::INFINITY; 70][..n], &bucket, t)
                    .expect("nothing crosses an infinite threshold");
                // Gated neurons may sit above their thresholds; open ones
                // end just below or well below theirs, unless one is
                // picked to cross.
                let mut th: Vec<f64> = (0..n)
                    .map(|j| match rng.next_below(4) {
                        _ if parked[j] => f64::INFINITY,
                        _ if t < s.gate[j] => rng.next_range(0.0, 600.0),
                        0 => f64::INFINITY,
                        1 => end[j].next_up(),
                        _ => end[j] + rng.next_range(1.0, 300.0),
                    })
                    .collect();
                let open: Vec<usize> = (0..n).filter(|&j| !parked[j] && t >= s.gate[j]).collect();
                if !open.is_empty() && rng.next_below(2) == 0 {
                    let j = open[rng.next_index(open.len())];
                    th[j] = match rng.next_below(3) {
                        0 => end[j],
                        1 => end[j].next_down(),
                        _ => rng.next_range(0.0, end[j]),
                    };
                }
                let want = scan(&s, &w, &lut, &th, &bucket, t);
                let before = s.clone();
                let got = s.try_tick(&w, &lut, &th, &bucket, t);
                let ctx = format!("case {case}, n {n}, t {t}, mode {mode}");
                let committed = match want {
                    Ok((v, last, open)) => {
                        assert_eq!(got, Some(open), "{ctx}: open count");
                        assert_eq!(bits(&s.potentials), bits(&v), "{ctx}: potentials");
                        assert_eq!(last_updates(&s), last, "{ctx}: last updates");
                        0
                    }
                    Err(_) => {
                        assert_eq!(got, None, "{ctx}: declines");
                        assert_eq!(bits(&s.potentials), bits(&before.potentials), "{ctx}");
                        assert_eq!(last_updates(&s), last_updates(&before), "{ctx}");
                        1
                    }
                };
                assert_eq!(s.gate, before.gate, "{ctx}: gates");
                let mut counts = seen.get();
                counts[mode][committed] += 1;
                seen.set(counts);
                tails.set(tails.get() | 1 << (n % LANES));
                if got.is_none() {
                    break;
                }
            }
        });
        assert_eq!(tails.get(), (1 << LANES) - 1, "a tail width never appeared");
        for (mode, counts) in ["shared", "gated"].iter().zip(seen.get()) {
            for (outcome, count) in ["commit", "decline"].iter().zip(counts) {
                assert!(count > 100, "only {count} {mode} ticks {outcome}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the table")]
    #[cfg(debug_assertions)]
    fn a_gap_beyond_the_table_is_caught_not_clamped() {
        let mut s = state(&[1.0], &[0], &[0]);
        let _ = s.try_tick(&[1.0], &[1.0, 0.5], &[10.0], &[0], 2);
    }
}
