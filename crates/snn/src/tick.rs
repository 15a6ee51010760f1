//! The gated whole-tick pass: one millisecond of input events applied to
//! every neuron at once. The reference presentation loop
//! ([`crate::network`]) and the `nc-hw` mesh simulator both run it on
//! every tick and replay only the ticks it declines, event by event; a
//! caller that needs only the first fire (winner-only evaluation, the
//! `nc-hw` SNNwt datapath) asks [`TickState::first_crossing`] instead.
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
//! The decay is one table factor, `v * lut[t - last_update]`, for every
//! neuron: `lut[0] == 1.0`, and every tick lies inside the presentation
//! window, so the gap is always inside the table and the product is
//! exactly what [`crate::network::decay_with_lut`] computes. While every
//! neuron is open and shares one last update (before the first fire, and
//! between fires once the gates have lapsed and a tick has committed) the
//! pass reads that factor once instead of gathering it per neuron, and
//! drops the gate masks.

/// Per-neuron LIF state of one presentation, flat in neuron id order.
#[derive(Debug, Clone, Default)]
pub struct TickState {
    /// Membrane potentials after the last committed update.
    pub potentials: Vec<f64>,
    /// Time of each neuron's last potential update.
    pub last_update: Vec<u32>,
    /// First millisecond at which each neuron integrates again.
    gate: Vec<u32>,
    /// The latest gate: from it on every neuron is open.
    last_gate: u32,
    /// The pass's tentative potentials.
    staged: Vec<f64>,
}

impl TickState {
    /// `neurons` neurons at rest and open from `t = 0`, reusing the
    /// buffers.
    pub fn reset(&mut self, neurons: usize) {
        for v in [&mut self.potentials, &mut self.staged] {
            v.clear();
            v.resize(neurons, 0.0);
        }
        for v in [&mut self.last_update, &mut self.gate] {
            v.clear();
            v.resize(neurons, 0);
        }
        self.last_gate = 0;
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
        let n = self.potentials.len();
        let Some((&first, rest)) = bucket.split_first() else {
            return Some(0);
        };
        let decay = |last: u32| decay_factor(lut, t, last);
        // Before the first fire, and again once every gate has lapsed and
        // a tick has committed, all neurons are open and share one last
        // update: one factor then decays them all, which vectorizes where
        // the per-neuron table gather does not, and nothing needs a mask.
        let shared_last = self.last_update.first().copied().unwrap_or(t);
        let uniform = t >= self.last_gate && {
            let mut spread = 0;
            for &last in &self.last_update {
                spread |= last ^ shared_last;
            }
            spread == 0
        };
        let staged = &mut self.staged[..n];
        let col = &weights_t[first * n..][..n];
        if uniform {
            let factor = decay(shared_last);
            for ((s, &v), &w) in staged.iter_mut().zip(&self.potentials).zip(col) {
                *s = v * factor + w;
            }
        } else {
            for (((s, &v), &last), &w) in staged
                .iter_mut()
                .zip(&self.potentials)
                .zip(&self.last_update)
                .zip(col)
            {
                *s = v * decay(last) + w;
            }
        }
        for &input in rest {
            for (s, &w) in staged.iter_mut().zip(&weights_t[input * n..][..n]) {
                *s += w;
            }
        }
        // One branch-free fold: almost every tick ends without a crossing.
        let mut crossed = false;
        if uniform {
            for (&s, &th) in staged.iter().zip(&thresholds[..n]) {
                crossed |= s >= th;
            }
        } else {
            for ((&s, &th), &g) in staged.iter().zip(&thresholds[..n]).zip(&self.gate) {
                crossed |= (t >= g) & (s >= th);
            }
        }
        if crossed {
            return None;
        }
        if uniform {
            std::mem::swap(&mut self.potentials, &mut self.staged);
            self.last_update.fill(t);
            return Some(n);
        }
        let mut open = 0;
        for (((v, last), &g), &s) in self
            .potentials
            .iter_mut()
            .zip(&mut self.last_update)
            .zip(&self.gate)
            .zip(staged.iter())
        {
            let is_open = t >= g;
            *v = if is_open { s } else { *v };
            *last = if is_open { t } else { *last };
            open += usize::from(is_open);
        }
        Some(open)
    }

    /// The neuron that fires first in the tick at `t` that
    /// [`TickState::try_tick`] declined: re-folds `bucket`'s events in
    /// order over the open neurons in ascending id, as the per-event scan
    /// does, and returns the first neuron at or above its threshold, or
    /// `None` if no open neuron crosses (a tick the pass commits). The
    /// committed state is only read; the tentative sums reuse the pass's
    /// buffer.
    ///
    /// # Panics
    ///
    /// As [`TickState::try_tick`].
    pub fn first_crossing(
        &mut self,
        weights_t: &[f64],
        lut: &[f64],
        thresholds: &[f64],
        bucket: &[usize],
        t: u32,
    ) -> Option<usize> {
        let n = self.potentials.len();
        let staged = &mut self.staged[..n];
        for (e, &input) in bucket.iter().enumerate() {
            for (j, (s, &w)) in staged
                .iter_mut()
                .zip(&weights_t[input * n..][..n])
                .enumerate()
            {
                if t < self.gate[j] {
                    continue;
                }
                *s = if e == 0 {
                    self.potentials[j] * decay_factor(lut, t, self.last_update[j]) + w
                } else {
                    *s + w
                };
                if *s >= thresholds[j] {
                    return Some(j);
                }
            }
        }
        None
    }
}

/// The decay table's factor from `last` to `t`.
#[inline]
fn decay_factor(lut: &[f64], t: u32, last: u32) -> f64 {
    let dt = usize::try_from(t - last).unwrap_or(usize::MAX);
    debug_assert!(dt < lut.len(), "decay gap {dt} outside the table");
    lut[dt]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::decay_with_lut;
    use crate::{SnnNetwork, SnnParams};
    use nc_substrate::rng::SplitMix64;

    /// A state of `n` neurons with the given potentials, last updates
    /// and gates.
    fn state(potentials: &[f64], last_update: &[u32], gate: &[u32]) -> TickState {
        let mut s = TickState::default();
        s.reset(potentials.len());
        s.potentials.copy_from_slice(potentials);
        s.last_update.copy_from_slice(last_update);
        for (j, &g) in gate.iter().enumerate() {
            s.raise_gate(j, g);
        }
        s
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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
                assert_eq!(s.last_update[j], at, "{last:?} {j}");
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
        assert_eq!(s.last_update, vec![4, 2, 4]);
        assert_eq!(s.gate, before.gate);
        // Neuron 2 now crosses: nothing commits, gated or open.
        let committed = s.clone();
        assert_eq!(
            s.try_tick(&w, &lut, &[50.0, 50.0, 20.0], &[1, 1, 1], 5),
            None
        );
        assert_eq!(bits(&s.potentials), bits(&committed.potentials));
        assert_eq!(s.last_update, committed.last_update);
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
        assert_eq!(s.last_update, vec![1, 1]);
        // Neuron 0 opens at 6: 4 * 0.5 + 1 stays below 5.
        assert_eq!(s.try_tick(&w, &lut, &th, &[0], 6), Some(1));
        assert_eq!(bits(&s.potentials), bits(&[3.0, 8.0]));
        assert_eq!(s.last_update, vec![6, 1]);
    }

    /// The per-event scan's first fire in the tick at `t`: every event in
    /// order, every open neuron in ascending id, leak then add then
    /// compare.
    fn scan_first_fire(
        s: &TickState,
        w: &[f64],
        lut: &[f64],
        th: &[f64],
        bucket: &[usize],
        t: u32,
    ) -> Option<usize> {
        let n = s.potentials.len();
        let mut v = s.potentials.clone();
        let mut last = s.last_update.clone();
        for &input in bucket {
            for j in 0..n {
                if t < s.gate[j] {
                    continue;
                }
                v[j] = decay_with_lut(lut, v[j], u64::from(t - last[j]));
                last[j] = t;
                v[j] += w[input * n + j];
                if v[j] >= th[j] {
                    return Some(j);
                }
            }
        }
        None
    }

    #[test]
    fn first_crossing_matches_the_per_event_scan() {
        // Two inputs, three neurons: w[input * 3 + j]; the tick is t = 5.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lut: Vec<f64> = (0..10).map(|dt| 0.5f64.powi(dt)).collect();
        let first =
            |v0: [f64; 3], last: [u32; 3], gate: [u32; 3], th: [f64; 3], bucket: &[usize]| {
                let mut s = state(&v0, &last, &gate);
                let before = s.clone();
                let found = s.first_crossing(&w, &lut, &th, bucket, 5);
                assert_eq!(found, scan_first_fire(&s, &w, &lut, &th, bucket, 5));
                // Read-only: the committed state is untouched.
                assert_eq!(bits(&s.potentials), bits(&before.potentials));
                assert_eq!(s.last_update, before.last_update);
                assert_eq!(s.gate, before.gate);
                // It resolves exactly the ticks the pass declines.
                assert_eq!(
                    s.try_tick(&w, &lut, &th, bucket, 5).is_none(),
                    found.is_some()
                );
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
    #[should_panic(expected = "outside the table")]
    #[cfg(debug_assertions)]
    fn a_gap_beyond_the_table_is_caught_not_clamped() {
        let mut s = state(&[1.0], &[0], &[0]);
        let _ = s.try_tick(&[1.0], &[1.0, 0.5], &[10.0], &[0], 2);
    }
}
