//! Fixed-bucket integer-nanosecond latency histograms and the
//! clock-quarantined [`Stopwatch`].
//!
//! The serving layer (`nc-serve`) reports per-request latency through
//! [`Recorder::record_latency`](crate::Recorder::record_latency); this
//! module provides the aggregation structure. Two properties matter for
//! this repository's determinism posture:
//!
//! 1. **Quantiles are exact in rank.** [`LatencyHistogram::quantile_ppm`]
//!    walks fixed bucket boundaries and returns the upper bound of the
//!    bucket holding the rank-`⌈q·n⌉` sample — the *same* value a sorted
//!    reference implementation produces after mapping that sample to the
//!    upper bound of its bucket. No interpolation, no
//!    floating-point rank arithmetic: quantile fractions are expressed in
//!    integer parts-per-million.
//! 2. **Clock reads stay quarantined.** [`Stopwatch`] owns the only
//!    `Instant` the serving path ever touches, and — like
//!    [`Span`](crate::Span) — never reads the clock unless it was started
//!    enabled, so a disabled recorder makes serving bit-deterministic.
//!
//! Buckets are HDR-style: exact for values below 2⁷ ns, then 128
//! logarithmically-placed sub-buckets per power of two (relative error
//! bounded by 2⁻⁷ ≈ 0.8%). Counts are kept in a `BTreeMap` so iteration
//! order (and therefore every report) is deterministic.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sub-bucket resolution: 2^SUB_BITS linear sub-buckets per power of two.
const SUB_BITS: u32 = 7;
/// First value that leaves the exact (one-value-per-bucket) range.
const SUB: u64 = 1 << SUB_BITS;
/// One million, the quantile denominator (`ppm` = parts per million).
const PPM_SCALE: u128 = 1_000_000;

/// The bucket index a value lands in. Values below [`SUB`] get exact
/// buckets; above, the index is `(msb − 6)·128 + (mantissa top 7 bits)`,
/// contiguous with the exact range.
fn bucket_of(value: u64) -> u32 {
    if value < SUB {
        // value < 128 fits u32 exactly.
        u32::try_from(value).unwrap_or(u32::MAX)
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        // `value >> shift` is in [128, 256); the subtraction re-bases it.
        let sub = u32::try_from((value >> shift) - SUB).unwrap_or(u32::MAX);
        (msb - SUB_BITS + 1) * (1 << SUB_BITS) + sub
    }
}

/// The largest value mapping to bucket `index` — the inverse of
/// [`bucket_of`], widened through `u128` because the top block's bound
/// is `u64::MAX` itself.
fn upper_of_bucket(index: u32) -> u64 {
    let block = index >> SUB_BITS;
    if block == 0 {
        u64::from(index)
    } else {
        let shift = block - 1;
        let sub = u128::from(index & u32::try_from(SUB - 1).unwrap_or(u32::MAX)) + u128::from(SUB);
        u64::try_from(((sub + 1) << shift) - 1).unwrap_or(u64::MAX)
    }
}

/// A fixed-bucket histogram of `u64` nanosecond samples with exact
/// rank-based quantile extraction.
///
/// # Examples
///
/// ```
/// use nc_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for ns in [10, 20, 30, 40, 1_000_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.p50(), Some(30)); // exact: below 128 ns buckets are 1 ns wide
/// assert_eq!(h.min(), Some(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl LatencyHistogram {
    /// Records one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        *self.counts.entry(bucket_of(nanos)).or_insert(0) += 1;
        self.total += 1;
        self.sum += u128::from(nanos);
        self.min = Some(self.min.map_or(nanos, |m| m.min(nanos)));
        self.max = Some(self.max.map_or(nanos, |m| m.max(nanos)));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Exact largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Mean sample value (exact integer sum over count, rounded down).
    pub fn mean_ns(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            u64::try_from(self.sum / u128::from(self.total)).ok()
        }
    }

    /// The quantile at `ppm` parts per million (e.g. p99 = 990 000):
    /// the bucket upper bound of the sample with rank `⌈ppm·n / 10⁶⌉`
    /// (clamped to `[1, n]`, so `ppm = 0` reports the smallest bucket).
    /// Returns `None` on an empty histogram — there is no rank to
    /// report, not a zero — and the *exact* sole sample on a
    /// single-sample histogram: with one sample every quantile is that
    /// sample, which `min` stores losslessly, so quantizing it through
    /// its bucket's upper bound would manufacture error where none is
    /// necessary.
    pub fn quantile_ppm(&self, ppm: u32) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        if self.total == 1 {
            return self.min;
        }
        let total = u128::from(self.total);
        let rank_wide = (u128::from(ppm) * total).div_ceil(PPM_SCALE);
        let rank = rank_wide.clamp(1, total);
        let mut seen: u128 = 0;
        for (&bucket, &count) in &self.counts {
            seen += u128::from(count);
            if seen >= rank {
                return Some(upper_of_bucket(bucket));
            }
        }
        // Unreachable: `total > 0` means the counts sum to `total >= rank`.
        None
    }

    /// Median (500 000 ppm).
    pub fn p50(&self) -> Option<u64> {
        self.quantile_ppm(500_000)
    }

    /// 95th percentile (950 000 ppm).
    pub fn p95(&self) -> Option<u64> {
        self.quantile_ppm(950_000)
    }

    /// 99th percentile (990 000 ppm).
    pub fn p99(&self) -> Option<u64> {
        self.quantile_ppm(990_000)
    }
}

/// A clock guard for code outside the observability layer: started
/// enabled it snapshots `Instant::now()`, started disabled it never
/// touches the clock — the same quarantine discipline as
/// [`Span`](crate::Span), but for latencies that end in a different
/// scope than they begin (a served request's admission → response
/// interval, not a lexical region).
///
/// # Examples
///
/// ```
/// use nc_obs::Stopwatch;
///
/// let off = Stopwatch::start_if(false);
/// assert_eq!(off.elapsed_ns(), None); // no clock was read
///
/// let on = Stopwatch::start_if(true);
/// assert!(on.elapsed_ns().is_some());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing if `enabled` (conventionally
    /// [`Recorder::enabled`](crate::Recorder::enabled)); otherwise the
    /// watch is inert and costs nothing.
    pub fn start_if(enabled: bool) -> Self {
        Stopwatch {
            started: enabled.then(Instant::now),
        }
    }

    /// Nanoseconds since the watch started, or `None` if it was never
    /// started (saturating at `u64::MAX` far beyond any real run).
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.started
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_substrate::check::check_cases;

    /// The largest value in `value`'s bucket: the value every sample in
    /// that bucket reports as, and so the one a sorted-reference quantile
    /// must quantize through.
    fn upper_of_bucket_of(value: u64) -> u64 {
        upper_of_bucket(bucket_of(value))
    }

    /// The sorted-reference quantile: sort the raw samples, pick the
    /// rank-`⌈ppm·n/10⁶⌉` element, quantize it through the shared bucket
    /// upper bound. The histogram must agree exactly.
    fn reference_quantile(samples: &[u64], ppm: u32) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        if samples.len() == 1 {
            // Mirror of the histogram's exact single-sample rail.
            return Some(samples[0]);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = u128::try_from(sorted.len()).expect("len fits");
        let rank = (u128::from(ppm) * n).div_ceil(1_000_000).clamp(1, n);
        let index = usize::try_from(rank - 1).expect("rank fits");
        Some(upper_of_bucket_of(sorted[index]))
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean_ns(), None);
    }

    #[test]
    fn single_sample_is_every_quantile_exactly() {
        // One sample: every quantile is that sample, reported exactly —
        // not rounded up to its bucket boundary (129 must report 129,
        // not 130; u64::MAX must not overflow the rank arithmetic).
        for value in [0u64, 1, 127, 128, 129, 1_000, u64::MAX] {
            let mut h = LatencyHistogram::default();
            h.record(value);
            for ppm in [0, 1, 500_000, 950_000, 990_000, 1_000_000] {
                assert_eq!(h.quantile_ppm(ppm), Some(value), "{value} at {ppm}");
            }
            assert_eq!(h.min(), Some(value));
            assert_eq!(h.max(), Some(value));
            assert_eq!(h.mean_ns(), Some(value));
        }
    }

    #[test]
    fn two_samples_split_at_the_median_rank() {
        // The smallest histogram where bucket quantization is allowed to
        // show: rank ⌈0.5·2⌉ = 1 picks the low sample, p99 picks the
        // high one, each through its bucket upper bound.
        let mut h = LatencyHistogram::default();
        h.record(129);
        h.record(1_000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), Some(upper_of_bucket_of(129)));
        assert_eq!(h.p99(), Some(upper_of_bucket_of(1_000)));
        assert_eq!(h.quantile_ppm(0), Some(upper_of_bucket_of(129)));
        assert_eq!(h.min(), Some(129));
        assert_eq!(h.max(), Some(1_000));
    }

    #[test]
    fn all_equal_samples_report_one_bucket_at_every_rank() {
        for n in [2u32, 3, 17] {
            let mut h = LatencyHistogram::default();
            for _ in 0..n {
                h.record(777);
            }
            let expected = upper_of_bucket_of(777);
            for ppm in [0, 1, 500_000, 990_000, 1_000_000] {
                assert_eq!(h.quantile_ppm(ppm), Some(expected), "n={n} at {ppm}");
            }
            assert_eq!((h.min(), h.max()), (Some(777), Some(777)));
        }
    }

    #[test]
    fn small_values_are_exact() {
        // Below 128 ns every bucket holds exactly one value, so the
        // histogram quantile equals the raw sorted quantile.
        let mut h = LatencyHistogram::default();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(63));
        assert_eq!(h.quantile_ppm(1_000_000), Some(127));
        assert_eq!(h.quantile_ppm(0), Some(0));
    }

    #[test]
    fn bucket_upper_bounds_bracket_their_values() {
        // Edge cases around every power-of-two boundary: the upper bound
        // is >= the value, in the same bucket, and bound+1 starts the
        // next bucket.
        for exp in 0..63u32 {
            for delta in [-1i64, 0, 1] {
                let v = (1i128 << exp) + i128::from(delta);
                let Ok(v) = u64::try_from(v) else { continue };
                let ub = upper_of_bucket_of(v);
                assert!(ub >= v, "upper bound {ub} < value {v}");
                assert_eq!(bucket_of(ub), bucket_of(v), "value {v}");
                if ub < u64::MAX {
                    assert_eq!(bucket_of(ub + 1), bucket_of(v) + 1, "value {v}");
                }
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // The reported value overestimates by at most 2^-SUB_BITS.
        check_cases(0x15708157, 256, |_, rng| {
            let v = rng.next_u64() >> (rng.next_u64() % 40);
            let ub = upper_of_bucket_of(v);
            assert!(ub >= v);
            let error = ub - v;
            // error < 2^(msb - SUB_BITS) <= v / 2^(SUB_BITS - 1)
            assert!(
                u128::from(error) * (1 << (SUB_BITS - 1)) <= u128::from(v).max(1),
                "value {v} bound {ub}"
            );
        });
    }

    #[test]
    fn quantiles_match_sorted_reference_on_seeded_samples() {
        check_cases(0xC0FFEE, 64, |case, rng| {
            let n = 1 + rng.next_index(400);
            // Mix magnitudes so samples cross many bucket blocks.
            let samples: Vec<u64> = (0..n)
                .map(|_| rng.next_u64() >> (rng.next_u64() % 48))
                .collect();
            let mut h = LatencyHistogram::default();
            for &s in &samples {
                h.record(s);
            }
            for ppm in [
                0u32, 1, 250_000, 500_000, 900_000, 950_000, 990_000, 999_999, 1_000_000,
            ] {
                assert_eq!(
                    h.quantile_ppm(ppm),
                    reference_quantile(&samples, ppm),
                    "case {case}: {n} samples at {ppm} ppm"
                );
            }
        });
    }

    #[test]
    fn duplicate_heavy_streams_stay_exact() {
        // Bucket-edge case: many samples collapsing into few buckets.
        check_cases(0xD0D0, 32, |case, rng| {
            let n = 1 + rng.next_index(200);
            let samples: Vec<u64> = (0..n).map(|_| 120 + rng.next_u64() % 16).collect();
            let mut h = LatencyHistogram::default();
            for &s in &samples {
                h.record(s);
            }
            for ppm in [500_000u32, 950_000, 990_000] {
                assert_eq!(
                    h.quantile_ppm(ppm),
                    reference_quantile(&samples, ppm),
                    "case {case}"
                );
            }
        });
    }

    #[test]
    fn stopwatch_disabled_never_reads_the_clock() {
        assert_eq!(Stopwatch::start_if(false).elapsed_ns(), None);
    }

    #[test]
    fn stopwatch_enabled_measures_something() {
        let w = Stopwatch::start_if(true);
        let ns = w.elapsed_ns().expect("running watch reports");
        assert!(w.elapsed_ns().expect("monotone") >= ns);
    }
}
