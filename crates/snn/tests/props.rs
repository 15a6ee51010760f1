//! Randomized invariant tests for the SNN: coding schemes, WTA dynamics,
//! STDP weight invariants and the SNNwot arithmetic.
//!
//! Formerly proptest-based; converted to a deterministic std-only harness
//! (seeded [`SplitMix64`] case generation) so the workspace builds and
//! tests fully offline.

use nc_snn::coding::{wot_spike_count, CodingScheme, ACTIVE_THRESHOLD};
use nc_snn::{SnnNetwork, SnnParams, SpikeCalendar, SpikeEvent, WotSnn};
use nc_substrate::rng::SplitMix64;

const CASES: u64 = 32;

const ALL_SCHEMES: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

/// The events of one filled calendar, in `(t, input)` order.
fn encode(scheme: CodingScheme, pixels: &[u8], params: &SnnParams, seed: u64) -> Vec<SpikeEvent> {
    let mut calendar = SpikeCalendar::default();
    calendar.fill(scheme, pixels, params, seed, None);
    calendar.events().collect()
}

fn random_pixels(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn all_codes_emit_sorted_in_window_events() {
    let mut rng = SplitMix64::new(0x5101);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 32);
        let scheme = ALL_SCHEMES[rng.next_below(4) as usize];
        let seed = rng.next_u64();
        let params = SnnParams::for_neurons(4);
        let events = encode(scheme, &pixels, &params, seed);
        assert!(
            events.windows(2).all(|w| w[0].t <= w[1].t),
            "case {case}: {scheme:?} events unsorted"
        );
        assert!(events.iter().all(|e| e.t < params.t_period), "case {case}");
        assert!(events.iter().all(|e| e.input < pixels.len()), "case {case}");
    }
}

#[test]
fn temporal_codes_emit_exactly_one_spike_per_active_pixel() {
    let mut rng = SplitMix64::new(0x5102);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 48);
        let seed = rng.next_u64();
        let params = SnnParams::for_neurons(4);
        let active = pixels.iter().filter(|&&p| p >= ACTIVE_THRESHOLD).count();
        for scheme in [CodingScheme::RankOrder, CodingScheme::TimeToFirstSpike] {
            let events = encode(scheme, &pixels, &params, seed);
            assert_eq!(events.len(), active, "case {case}: {scheme:?}");
        }
    }
}

#[test]
fn rate_codes_never_exceed_the_4bit_budget_per_pixel() {
    // §4.2.2: "an 8-bit pixel can generate up to 10 spikes". The
    // stochastic generators can exceed the mean but must stay within
    // the hardware budget at the minimum 1 ms interval granularity...
    // in fact the binding bound is Tperiod (one spike per ms).
    let mut rng = SplitMix64::new(0x5103);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 16);
        let seed = rng.next_u64();
        let params = SnnParams::for_neurons(4);
        for scheme in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
            let events = encode(scheme, &pixels, &params, seed);
            let mut per_pixel = vec![0u32; pixels.len()];
            for e in &events {
                per_pixel[e.input] += 1;
            }
            // Statistical bound: a 20 Hz max-rate source over 500 ms
            // produces ~10 spikes; allow generous head-room but catch
            // runaway generators.
            assert!(
                per_pixel.iter().all(|&c| c <= 40),
                "case {case}: {scheme:?} {per_pixel:?}"
            );
        }
    }
}

#[test]
fn wot_count_staircase_is_monotone_and_4bit() {
    for p in 0..=255u8 {
        let cp = wot_spike_count(p);
        assert!(cp <= 10, "pixel {p}");
        if p < 255 {
            assert!(cp <= wot_spike_count(p + 1), "pixel {p}");
        }
    }
}

#[test]
fn presentation_never_panics_and_respects_shape() {
    let mut rng = SplitMix64::new(0x5105);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 25);
        let seed = rng.next_u64();
        let neurons = 1 + rng.next_below(7) as usize;
        let mut snn = SnnNetwork::new(25, 3, SnnParams::tuned(neurons), seed);
        let outcome = snn.present(&pixels, seed);
        assert_eq!(outcome.potentials.len(), neurons, "case {case}");
        if let Some(w) = outcome.winner {
            assert!(w < neurons, "case {case}");
            assert_eq!(outcome.fires[0].1, w, "case {case}");
        }
        assert!(outcome.readout() < neurons, "case {case}");
    }
}

#[test]
fn refractory_neurons_cannot_fire_twice_within_trefrac() {
    let mut rng = SplitMix64::new(0x5106);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 16);
        let seed = rng.next_u64();
        let mut params = SnnParams::for_neurons(3);
        params.initial_threshold = 400.0; // fire often
        let mut snn = SnnNetwork::new(16, 3, params, seed);
        let outcome = snn.present(&pixels, seed);
        // For each neuron, consecutive fires must be >= Trefrac apart.
        for j in 0..3 {
            let times: Vec<u32> = outcome
                .fires
                .iter()
                .filter(|(_, n)| *n == j)
                .map(|(t, _)| *t)
                .collect();
            assert!(
                times.windows(2).all(|w| w[1] - w[0] >= params.t_refrac),
                "case {case}: neuron {j} fired at {times:?}"
            );
        }
    }
}

#[test]
fn stdp_learning_keeps_weights_in_u8() {
    let mut rng = SplitMix64::new(0x5107);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 16);
        let seed = rng.next_u64();
        let delta = 1 + rng.next_below(299) as i16;
        let mut params = SnnParams::tuned(2);
        params.initial_threshold = 500.0;
        let mut snn = SnnNetwork::new(16, 2, params, seed);
        snn.set_stdp_delta(delta);
        for i in 0..5 {
            snn.present_learn(&pixels, i);
        }
        // Weights are u8 by type; assert the accessor agrees with the
        // matrix view (shape invariant).
        for j in 0..2 {
            for i in 0..16 {
                assert_eq!(
                    snn.weight(j, i),
                    snn.weights()[j * 16 + i],
                    "case {case}: delta {delta}"
                );
            }
        }
    }
}

#[test]
fn wot_potentials_equal_the_dot_product() {
    let mut rng = SplitMix64::new(0x5108);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 12);
        let seed = rng.next_u64();
        let snn = SnnNetwork::new(12, 2, SnnParams::tuned(3), seed);
        let wot = WotSnn::from_network(&snn);
        let pots = wot.potentials(&pixels);
        for (j, &pot) in pots.iter().enumerate() {
            let expected: u64 = pixels
                .iter()
                .enumerate()
                .map(|(i, &p)| u64::from(snn.weight(j, i)) * u64::from(wot_spike_count(p)))
                .sum();
            assert_eq!(pot, expected, "case {case}: neuron {j}");
        }
    }
}

#[test]
fn wot_winner_maximizes_potential() {
    let mut rng = SplitMix64::new(0x5109);
    for case in 0..CASES {
        let pixels = random_pixels(&mut rng, 12);
        let seed = rng.next_u64();
        let snn = SnnNetwork::new(12, 2, SnnParams::tuned(5), seed);
        let wot = WotSnn::from_network(&snn);
        let pots = wot.potentials(&pixels);
        let w = wot.winner(&pixels);
        assert!(pots.iter().all(|&p| p <= pots[w]), "case {case}");
    }
}
