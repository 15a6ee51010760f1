//! Input spike-coding schemes (paper §3.1 and §5, Figure 14).
//!
//! The paper explores four rate-coding and two temporal-coding schemes
//! and reports that rate coding clearly wins on MNIST under STDP
//! (91.82% vs 82.14%). This module implements the representatives it
//! discusses:
//!
//! * [`CodingScheme::PoissonRate`] — the software model's code: each
//!   pixel becomes a Poisson train of rate proportional to luminance
//!   (max 20 Hz at luminance 255).
//! * [`CodingScheme::GaussianRate`] — the hardware code of SNNwt: spike
//!   intervals drawn from the CLT Gaussian generator (4 LFSRs); "the
//!   accuracy does not change noticeably with a Gaussian instead of a
//!   Poisson distribution" (§4.2.2).
//! * [`CodingScheme::RankOrder`] — temporal: each active pixel spikes
//!   once, ordered by decreasing luminance [Thorpe & Gautrais 1998].
//! * [`CodingScheme::TimeToFirstSpike`] — temporal: each active pixel
//!   spikes once at a latency inversely related to luminance.

use crate::params::SnnParams;
use nc_faults::{stuck_tap_for, FaultPlan};
use nc_substrate::fixed::sat_u32_trunc;
use nc_substrate::rng::{GaussianClt, PoissonInterval, SplitMix64};

/// One input spike: which input line fired and when (ms within the
/// presentation window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpikeEvent {
    /// Time of the spike in ms, `0 <= t < Tperiod`.
    pub t: u32,
    /// Index of the input (pixel) that spiked.
    pub input: usize,
}

/// An input spike-coding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingScheme {
    /// Poisson rate code: rate ∝ luminance, max 20 Hz.
    PoissonRate,
    /// Gaussian-interval rate code (the hardware SNNwt generator).
    GaussianRate,
    /// Rank-order temporal code: one spike per active pixel, ordered by
    /// decreasing luminance across the presentation window.
    RankOrder,
    /// Time-to-first-spike temporal code: one spike per active pixel at
    /// latency `Tperiod·(1 − p/255)`.
    TimeToFirstSpike,
}

impl CodingScheme {
    /// Whether the scheme is a rate code (multiple spikes per pixel).
    pub fn is_rate_code(&self) -> bool {
        matches!(self, CodingScheme::PoissonRate | CodingScheme::GaussianRate)
    }

    /// A reasonable initial firing threshold for this scheme: temporal
    /// codes deliver ~10× fewer spikes than rate codes, so the Table 1
    /// threshold is scaled accordingly (homeostasis then fine-tunes). A
    /// window shorter than one spike interval at the maximum rate
    /// (`max_spikes_per_pixel() == 0`) scales by one, not to infinity.
    pub fn initial_threshold(&self, params: &SnnParams) -> f64 {
        if self.is_rate_code() {
            params.initial_threshold
        } else {
            params.initial_threshold / f64::from(params.max_spikes_per_pixel().max(1))
        }
    }
}

/// Pixels below this luminance are silent under the temporal codes.
pub const ACTIVE_THRESHOLD: u8 = 32;

/// A rate code's per-pixel spike-interval generator: the source the
/// rate codes' one stream loop, [`rate_code`], draws each train from.
trait IntervalSource {
    /// The next spike's time in ms, or `None` once the train leaves the
    /// `period`-ms window.
    fn next_spike(&mut self, period: u32) -> Option<u32>;
}

/// The Poisson code's generator: exponential intervals, accumulated in
/// float milliseconds.
struct PoissonTrain {
    gen: PoissonInterval,
    rate: f64,
    t: f64,
}

impl PoissonTrain {
    /// The generator of a pixel spiking at `rate` per ms, seeded from
    /// the code's seed stream, with its `x^3` tap stuck at `stuck` when
    /// the fault plan makes it faulty.
    fn for_pixel(seeds: &mut SplitMix64, rate: f64, stuck: Option<bool>) -> Self {
        let seed = seeds.next_seed32();
        let gen = match stuck {
            Some(stuck) => PoissonInterval::with_stuck_tap(seed, stuck),
            None => PoissonInterval::new(seed),
        };
        PoissonTrain { gen, rate, t: 0.0 }
    }
}

impl IntervalSource for PoissonTrain {
    #[inline]
    fn next_spike(&mut self, period: u32) -> Option<u32> {
        self.t += self.gen.sample_interval(self.rate);
        (self.t.is_finite() && self.t < f64::from(period)).then(|| sat_u32_trunc(self.t))
    }
}

/// The hardware code's generator: interval counters decremented every
/// cycle, reloaded from the CLT generator, in whole milliseconds. Mean
/// `1/rate` with std `mean/3` keeps intervals positive within the
/// generator's bounded support.
struct GaussianTrain {
    gen: GaussianClt,
    mean: f64,
    std: f64,
    t: u64,
}

impl GaussianTrain {
    /// As [`PoissonTrain::for_pixel`].
    fn for_pixel(seeds: &mut SplitMix64, rate: f64, stuck: Option<bool>) -> Self {
        let seed = seeds.next_u64();
        let gen = match stuck {
            Some(stuck) => GaussianClt::with_stuck_tap(seed, stuck),
            None => GaussianClt::new(seed),
        };
        let mean = 1.0 / rate;
        GaussianTrain {
            gen,
            mean,
            std: mean / 3.0,
            t: 0,
        }
    }
}

impl IntervalSource for GaussianTrain {
    #[inline]
    fn next_spike(&mut self, period: u32) -> Option<u32> {
        self.t += u64::from(self.gen.sample_interval_ms(self.mean, self.std));
        (self.t < u64::from(period)).then(|| u32::try_from(self.t).unwrap_or(u32::MAX))
    }
}

/// The rate codes' one stream loop: each pixel with a non-zero rate, in
/// ascending order, gets a generator from `source` (which draws its seed
/// from `seeds`) and emits its spikes in time order until one falls
/// outside the window.
fn rate_code<S: IntervalSource>(
    pixels: &[u8],
    params: &SnnParams,
    mut seeds: SplitMix64,
    gen_fault: Option<&FaultPlan>,
    events: &mut Vec<SpikeEvent>,
    source: fn(&mut SplitMix64, f64, Option<bool>) -> S,
) {
    for (input, &p) in pixels.iter().enumerate() {
        let rate = params.rate_per_ms(p);
        if rate <= 0.0 {
            continue;
        }
        let pixel = u64::try_from(input).unwrap_or(u64::MAX);
        let stuck = gen_fault.and_then(|plan| stuck_tap_for(plan, pixel));
        let mut gen = source(&mut seeds, rate, stuck);
        while let Some(t) = gen.next_spike(params.t_period) {
            events.push(SpikeEvent { t, input });
        }
    }
}

fn rank_order(pixels: &[u8], params: &SnnParams, events: &mut Vec<SpikeEvent>) {
    // Active pixels sorted by decreasing luminance; ties broken by index
    // so the code is deterministic.
    let mut active: Vec<(u8, usize)> = pixels
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p >= ACTIVE_THRESHOLD)
        .map(|(i, &p)| (p, i))
        .collect();
    active.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let n = active.len().max(1) as f64;
    events.extend(
        active
            .iter()
            .enumerate()
            .map(|(rank, &(_, input))| SpikeEvent {
                // Spread ranks over the first half of the window so late
                // ranks still precede readout.
                t: sat_u32_trunc((rank as f64 / n) * f64::from(params.t_period) * 0.5),
                input,
            }),
    );
    // Times never decrease with rank, but ranks that share a millisecond
    // are emitted by luminance; the calendar's buckets list inputs
    // ascending, so each run of one millisecond is sorted by input.
    for run in events.chunk_by_mut(|a, b| a.t == b.t) {
        run.sort_unstable_by_key(|e| e.input);
    }
}

fn time_to_first_spike(pixels: &[u8], params: &SnnParams, events: &mut Vec<SpikeEvent>) {
    events.extend(
        pixels
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p >= ACTIVE_THRESHOLD)
            .map(|(input, &p)| {
                let latency = (1.0 - f64::from(p) / 255.0) * f64::from(params.t_period - 1);
                SpikeEvent {
                    t: sat_u32_trunc(latency),
                    input,
                }
            }),
    );
}

/// One presentation's input spikes as a per-millisecond calendar:
/// bucket `t` lists the inputs that spike at `t` ms in ascending order,
/// a pixel's same-millisecond spikes adjacent — the `(t, input)` order of
/// the spike train. The presentation loop walks it bucket by bucket and
/// the mesh simulator ticks once per bucket.
///
/// The generators emit pixel-major (inputs ascending, times ascending
/// within a pixel), so one stable counting sort by millisecond yields
/// that order without comparisons. Rank order emits by rank and sorts
/// each millisecond of its own train by input first.
#[derive(Debug, Clone, Default)]
pub struct SpikeCalendar {
    /// Spikes in generation order, before the counting sort.
    raw: Vec<SpikeEvent>,
    /// Bucket boundaries: bucket `t` is `inputs[starts[t]..starts[t + 1]]`.
    starts: Vec<usize>,
    /// Input ids grouped by bucket.
    inputs: Vec<usize>,
}

impl SpikeCalendar {
    /// Encodes `pixels` into the calendar, reusing its buffers.
    ///
    /// `gen_fault` is an optional `StuckLfsrTap` plan over the per-pixel
    /// interval generators: each faulty pixel's generator is built with
    /// its `x^3` tap stuck ([`nc_substrate::rng::Lfsr31::with_stuck_tap`]).
    /// Which generators are faulty is a per-pixel property of the plan,
    /// not of the presentation, so a defective chip stays defective
    /// across images. Healthy pixels draw exactly the seeds they would
    /// without the plan, and temporal codes (no generators) ignore it.
    pub fn fill(
        &mut self,
        scheme: CodingScheme,
        pixels: &[u8],
        params: &SnnParams,
        seed: u64,
        gen_fault: Option<&FaultPlan>,
    ) {
        self.raw.clear();
        match scheme {
            CodingScheme::PoissonRate => rate_code(
                pixels,
                params,
                SplitMix64::new(seed),
                gen_fault,
                &mut self.raw,
                PoissonTrain::for_pixel,
            ),
            CodingScheme::GaussianRate => rate_code(
                pixels,
                params,
                SplitMix64::new(seed ^ 0x6A05_5150),
                gen_fault,
                &mut self.raw,
                GaussianTrain::for_pixel,
            ),
            CodingScheme::RankOrder => rank_order(pixels, params, &mut self.raw),
            CodingScheme::TimeToFirstSpike => time_to_first_spike(pixels, params, &mut self.raw),
        }
        // Counting sort. Each spike counts into `starts[t + 2]`, so after
        // the prefix sum `starts[t + 1]` is where bucket `t` begins; the
        // scatter advances it to where bucket `t` ends, which leaves
        // bucket `t` spanning `starts[t]..starts[t + 1]`.
        let buckets = usize::try_from(params.t_period).unwrap_or(usize::MAX);
        self.starts.clear();
        self.starts.resize(buckets + 2, 0);
        for e in &self.raw {
            self.starts[bucket_index(e.t) + 2] += 1;
        }
        for b in 2..self.starts.len() {
            self.starts[b] += self.starts[b - 1];
        }
        self.inputs.clear();
        self.inputs.resize(self.raw.len(), 0);
        for e in &self.raw {
            let slot = &mut self.starts[bucket_index(e.t) + 1];
            self.inputs[*slot] = e.input;
            *slot += 1;
        }
        self.starts.pop();
    }

    /// The non-empty buckets in time order, as `(t, inputs)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, &[usize])> {
        self.starts
            .windows(2)
            .zip(0u32..)
            .filter(|(span, _)| span[0] < span[1])
            .map(|(span, t)| (t, &self.inputs[span[0]..span[1]]))
    }

    /// Every spike in `(t, input)` order.
    pub fn events(&self) -> impl Iterator<Item = SpikeEvent> + '_ {
        self.buckets()
            .flat_map(|(t, inputs)| inputs.iter().map(move |&input| SpikeEvent { t, input }))
    }

    /// The calendar's buffers, for allocation-reuse tests.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(*const (), usize); 3] {
        [
            (self.raw.as_ptr().cast(), self.raw.capacity()),
            (self.starts.as_ptr().cast(), self.starts.capacity()),
            (self.inputs.as_ptr().cast(), self.inputs.capacity()),
        ]
    }
}

fn bucket_index(t: u32) -> usize {
    usize::try_from(t).unwrap_or(usize::MAX)
}

/// The SNNwot spike-count conversion (paper §4.2.2): an 8-bit pixel maps
/// to a 4-bit spike count `0..=10` via the comparator ladder of Figure 7.
///
/// The hardware compares the pixel against 9 fixed levels; this is
/// numerically `round(10·p/255)` with the same staircase.
pub fn wot_spike_count(p: u8) -> u8 {
    // Comparator thresholds from Figure 7: 50,63,127,169,200,225,250,254,255
    // produce a non-uniform staircase in silicon; we use the uniform
    // staircase with the same endpoints (0→0, 255→10), which the encoder
    // (9→4) approximates.
    u8::try_from((u32::from(p) * 10 + 127) / 255).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events of one filled calendar, in `(t, input)` order.
    fn encode(
        scheme: CodingScheme,
        pixels: &[u8],
        params: &SnnParams,
        seed: u64,
    ) -> Vec<SpikeEvent> {
        let mut calendar = SpikeCalendar::default();
        calendar.fill(scheme, pixels, params, seed, None);
        calendar.events().collect()
    }

    fn px() -> Vec<u8> {
        let mut v = vec![0u8; 64];
        for (i, p) in v.iter_mut().enumerate() {
            *p = (i * 4) as u8;
        }
        v
    }

    #[test]
    fn poisson_spike_count_tracks_luminance() {
        let params = SnnParams::for_neurons(10);
        let bright = vec![255u8; 10];
        let dim = vec![64u8; 10];
        let mut bright_total = 0usize;
        let mut dim_total = 0usize;
        for seed in 0..20 {
            bright_total += encode(CodingScheme::PoissonRate, &bright, &params, seed).len();
            dim_total += encode(CodingScheme::PoissonRate, &dim, &params, seed).len();
        }
        assert!(
            bright_total > dim_total * 2,
            "{bright_total} vs {dim_total}"
        );
        // 10 pixels × ~10 spikes × 20 seeds ≈ 2000
        assert!(bright_total > 1200 && bright_total < 2800, "{bright_total}");
    }

    #[test]
    fn dark_pixels_never_spike() {
        let params = SnnParams::for_neurons(10);
        let dark = vec![0u8; 100];
        for scheme in [
            CodingScheme::PoissonRate,
            CodingScheme::GaussianRate,
            CodingScheme::RankOrder,
            CodingScheme::TimeToFirstSpike,
        ] {
            assert!(encode(scheme, &dark, &params, 1).is_empty(), "{scheme:?}");
        }
    }

    #[test]
    fn events_are_time_sorted_and_in_window() {
        let params = SnnParams::for_neurons(10);
        for scheme in [
            CodingScheme::PoissonRate,
            CodingScheme::GaussianRate,
            CodingScheme::RankOrder,
            CodingScheme::TimeToFirstSpike,
        ] {
            let ev = encode(scheme, &px(), &params, 3);
            assert!(ev.windows(2).all(|w| w[0].t <= w[1].t), "{scheme:?}");
            assert!(ev.iter().all(|e| e.t < params.t_period), "{scheme:?}");
        }
    }

    #[test]
    fn temporal_codes_spike_once_per_active_pixel() {
        let params = SnnParams::for_neurons(10);
        let pixels = px();
        let active = pixels.iter().filter(|&&p| p >= ACTIVE_THRESHOLD).count();
        for scheme in [CodingScheme::RankOrder, CodingScheme::TimeToFirstSpike] {
            let ev = encode(scheme, &pixels, &params, 0);
            assert_eq!(ev.len(), active, "{scheme:?}");
            let mut inputs: Vec<usize> = ev.iter().map(|e| e.input).collect();
            inputs.sort_unstable();
            inputs.dedup();
            assert_eq!(inputs.len(), active, "{scheme:?} duplicated a pixel");
        }
    }

    #[test]
    fn rank_order_orders_by_luminance() {
        let params = SnnParams::for_neurons(10);
        let pixels = vec![40u8, 200, 120];
        let ev = encode(CodingScheme::RankOrder, &pixels, &params, 0);
        let order: Vec<usize> = ev.iter().map(|e| e.input).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ttfs_brighter_is_earlier() {
        let params = SnnParams::for_neurons(10);
        let pixels = vec![255u8, 128];
        let ev = encode(CodingScheme::TimeToFirstSpike, &pixels, &params, 0);
        let t_bright = ev.iter().find(|e| e.input == 0).unwrap().t;
        let t_dim = ev.iter().find(|e| e.input == 1).unwrap().t;
        assert!(t_bright < t_dim);
    }

    #[test]
    fn gaussian_and_poisson_have_similar_volume() {
        // §4.2.2: Gaussian replaces Poisson "without noticeable accuracy
        // change" — first-order check: similar total spike counts.
        let params = SnnParams::for_neurons(10);
        let pixels = vec![200u8; 50];
        let mut po = 0usize;
        let mut ga = 0usize;
        for seed in 0..10 {
            po += encode(CodingScheme::PoissonRate, &pixels, &params, seed).len();
            ga += encode(CodingScheme::GaussianRate, &pixels, &params, seed).len();
        }
        let ratio = po as f64 / ga as f64;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn wot_spike_count_matches_staircase() {
        assert_eq!(wot_spike_count(0), 0);
        assert_eq!(wot_spike_count(255), 10);
        assert_eq!(wot_spike_count(128), 5);
        // Monotone non-decreasing over the full range.
        let mut prev = 0;
        for p in 0..=255u8 {
            let c = wot_spike_count(p);
            assert!(c >= prev && c <= 10);
            prev = c;
        }
    }

    #[test]
    fn a_window_shorter_than_one_spike_interval_keeps_thresholds_finite() {
        // 30 ms at 20 Hz: not one full spike interval per pixel.
        let mut params = SnnParams::for_neurons(3);
        params.t_period = 30;
        assert_eq!(params.max_spikes_per_pixel(), 0);
        let mut net = crate::SnnNetwork::with_coding(784, 10, params, CodingScheme::RankOrder, 7);
        assert!(
            net.thresholds().iter().all(|th| th.is_finite()),
            "{:?}",
            net.thresholds()
        );
        assert!(net.present(&[255; 784], 0).winner.is_some());
    }

    #[test]
    fn temporal_threshold_is_scaled_down() {
        let params = SnnParams::paper();
        assert!(
            CodingScheme::RankOrder.initial_threshold(&params)
                < CodingScheme::PoissonRate.initial_threshold(&params)
        );
    }
}
