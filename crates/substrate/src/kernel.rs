//! Shared hot-path kernels for the narrow-integer datapaths and float BP.
//!
//! The paper's accelerators are fast because their inner loops are tiny
//! integer pipelines: 8-bit multiplies feeding a wide adder tree (§4.1,
//! §4.3) and a piecewise-interpolated activation evaluated straight from
//! an SRAM coefficient table (§4.2.1). This module is that inner loop in
//! software, shared by the quantized MLP, the `nc-hw` cycle simulators
//! and the benches:
//!
//! * [`gemm_i8xu8`] — the blocked integer matrix product over a slab
//!   of presentations with i64 adder-tree semantics (bit-exact regardless
//!   of blocking, since integer addition is associative); one
//!   presentation is the one-column case.
//! * [`swar_spike_counts`] — the SNNwot luminance→spike-count ladder
//!   evaluated word-parallel, eight pixels per iteration.
//! * [`FixedActLut`] — the activation table lowered to fixed-point
//!   coefficients, so the whole layer evaluation `u8 → i64 → u8` never
//!   leaves the integer domain.
//! * [`Scratch`] — the reusable layer buffers a network owns, so the
//!   steady-state forward pass performs no heap allocation.
//! * [`list_active`], [`active_row_sums`] and [`add_to_rows`] — the
//!   float MLP's and the SNN+BP hybrid's forward sums and BP update,
//!   over only the rows of an input-major matrix with non-zero inputs.
//!
//! # Integer rescale derivation
//!
//! The float reference computed `s = acc / (255·2^e)` and then
//! `y = a_i·s + b_i` from the interpolation table, quantizing `255·y`
//! back onto the u8 activation grid. Substituting:
//!
//! ```text
//! 255·y = 255·a_i·acc / (255·2^e) + 255·b_i = a_i·2^{-e}·acc + 255·b_i
//! ```
//!
//! The 255 cancels inside the slope term, so with `A_i = a_i·2^{F-e}`
//! and `B_i = 255·b_i·2^F` rounded to integers (`F` fractional bits),
//! the activation output is one multiply, one add and one rounding
//! shift: `(A_i·acc + B_i + 2^{F-1}) >> F`, clamped to the u8 rails —
//! exactly the multiplier + adder the paper describes, with no float
//! unit anywhere in the datapath.

use crate::fixed::sat_i64_round;
use crate::interp::PiecewiseLinear;

/// Rows per i32 partial-sum block in [`gemm_i8xu8`]. The worst-case
/// partial is a block of `i8::MIN` weights against saturated inputs,
/// `|BLOCK · -128 · 255| = 8,355,840 < 2^23`, far inside the i32
/// range, so blocking never overflows and — integer addition being
/// associative — the blocked sum is bit-identical to the naive i64
/// accumulation.
const BLOCK: usize = 256;

/// Presentation columns per cache tile in [`gemm_i8xu8`]: every weight
/// row fetched from memory is reused across this many batch columns
/// before the walk moves to the next row, so a large weight matrix
/// streams through cache once per tile instead of once per image.
const COL_TILE: usize = 8;

/// Fractional bits of the [`FixedActLut`] coefficients.
const FRAC: u32 = 32;

/// Blocked integer GEMM over a batch of presentations with i64
/// adder-tree semantics. `inputs` holds `cols` images back to back, each
/// `n = inputs.len() / cols` pixels wide; `weights` is a `rows × (n + 1)`
/// matrix with the bias word last in each row (the bias input is the
/// constant 1.0 ≡ 255 on the u8 grid), and `out` is column-major —
/// `out[c·rows + j] = Σ_i w[j][i]·image_c[i] + w[j][n]·255`, so each
/// presentation's accumulators are one contiguous stripe.
///
/// Every `(j, c)` cell accumulates bias first, then in `BLOCK`-chunked
/// `i32` partials (provably overflow-free, see `BLOCK`) so the
/// compiler can vectorize the 8-bit multiplies; block results are summed
/// into the wide `i64` accumulator, matching the hardware's
/// narrow-multiplier / wide-adder-tree split. Integer addition is exact
/// and associative, so the result equals the naive widened sum (the
/// property test below pins this). The tiling only reorders *which* cell
/// is computed when: columns are processed `COL_TILE` at a time with
/// the weight row held hot.
///
/// # Panics
///
/// Panics if `cols == 0`, if `inputs.len()` is not a multiple of
/// `cols`, or if `weights`/`out` do not match the implied geometry.
pub fn gemm_i8xu8(weights: &[i8], rows: usize, inputs: &[u8], cols: usize, out: &mut [i64]) {
    assert!(cols > 0, "batched GEMM needs at least one column");
    assert_eq!(
        inputs.len() % cols,
        0,
        "input slab is not a whole number of presentations"
    );
    let in_dim = inputs.len() / cols;
    let row_w = in_dim + 1;
    assert_eq!(
        weights.len(),
        rows * row_w,
        "weight matrix does not match input/output geometry"
    );
    assert_eq!(
        out.len(),
        rows * cols,
        "output slab does not match rows × cols"
    );
    if in_dim == 0 {
        for c in 0..cols {
            for j in 0..rows {
                out[c * rows + j] = i64::from(weights[j * row_w + in_dim]) * 255;
            }
        }
        return;
    }
    let tiles = inputs
        .chunks(in_dim * COL_TILE)
        .zip(out.chunks_mut(rows * COL_TILE));
    for (in_tile, out_tile) in tiles {
        let tile_cols = in_tile.len() / in_dim;
        for j in 0..rows {
            let row = &weights[j * row_w..(j + 1) * row_w];
            let bias = i64::from(row[in_dim]) * 255; // bias input = 1.0 ≡ 255
            for c in 0..tile_cols {
                let image = &in_tile[c * in_dim..(c + 1) * in_dim];
                let mut acc = bias;
                for (wb, ib) in row[..in_dim].chunks(BLOCK).zip(image.chunks(BLOCK)) {
                    let mut partial = 0i32;
                    for (&w, &x) in wb.iter().zip(ib) {
                        partial += i32::from(w) * i32::from(x);
                    }
                    acc += i64::from(partial);
                }
                out_tile[c * rows + j] = acc;
            }
        }
    }
}

/// SWAR luminance→spike-count conversion: the SNNwot comparator-ladder
/// staircase `(p·max_spikes + 127) / 255` evaluated eight pixels per
/// iteration in 16-bit lanes of two u64 words — the same
/// word-parallel-over-serial trade [`crate::rng::Lfsr31::next_u31`]
/// makes for the LFSR.
///
/// Lane math: a byte is at most 255, so `255·max_spikes + 127 ≤ 4207`
/// for `max_spikes ≤ 16` — comfortably inside a 16-bit lane, and the
/// division by 255 reduces to `(x + 1 + ⌊x/256⌋) >> 8`, which is exact
/// for all `x = 255·a + b` with `a ≤ 16` (when `b ≥ a` the numerator is
/// `256·a + b + 1` with `b + 1 < 256`; when `b < a` it is `256·a + b`;
/// either way the shift yields `a`). The exhaustive test below checks
/// every luminance against the scalar staircase.
///
/// Above `max_spikes = 16` the lane product would carry into the next
/// pixel's lane and a release build (no debug overflow checks) would
/// return silently corrupted counts, so the word-parallel path is
/// gated: oversized ladders take the scalar staircase instead, with
/// each count saturating at `u8::MAX` (the widest ladder a `u8` count
/// can express). The paper's ladder tops out at 10 spikes (§4.2.2), so
/// nothing on the hot path ever pays for the fallback.
///
/// # Panics
///
/// Panics if `out.len() != pixels.len()`.
pub fn swar_spike_counts(pixels: &[u8], max_spikes: u32, out: &mut [u8]) {
    assert_eq!(out.len(), pixels.len(), "output must match pixel count");
    if max_spikes > 16 {
        // Scalar rail: bit-exact staircase at any ladder height, no
        // cross-lane carry to corrupt. `u64` arithmetic cannot overflow
        // (`255·u32::MAX + 127 < 2^40`) and the count saturates at the
        // `u8` rail the SWAR path's output type already imposes.
        for (&p, o) in pixels.iter().zip(out.iter_mut()) {
            let count = (u64::from(p) * u64::from(max_spikes) + 127) / 255;
            *o = u8::try_from(count).unwrap_or(u8::MAX);
        }
        return;
    }
    const LANES: u64 = 0x00FF_00FF_00FF_00FF;
    const ONES: u64 = 0x0001_0001_0001_0001;
    let staircase = |x: u64| -> u64 {
        // Per-lane (x·max + 127) / 255; the numerator tops out at 4207
        // per lane so neither the multiply, the rounding add, nor the
        // division fix-up ever carries across a lane boundary.
        let num = x * u64::from(max_spikes) + 127 * ONES;
        ((num + ONES + ((num >> 8) & LANES)) >> 8) & LANES
    };
    let mut chunks = pixels.chunks_exact(8);
    let mut out_chunks = out.chunks_exact_mut(8);
    for (chunk, out_chunk) in chunks.by_ref().zip(out_chunks.by_ref()) {
        let w = chunk
            .iter()
            .rev()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        let lo = staircase(w & LANES);
        let hi = staircase((w >> 8) & LANES);
        out_chunk.copy_from_slice(&(lo | (hi << 8)).to_le_bytes());
    }
    for (&p, o) in chunks.remainder().iter().zip(out_chunks.into_remainder()) {
        *o = u8::try_from((u32::from(p) * max_spikes + 127) / 255).unwrap_or(u8::MAX);
    }
}

/// Reusable hot-path buffers owned by a network: double-buffered u8
/// activations plus the i64 adder-tree accumulators. Sized lazily by
/// [`Scratch::ensure`], so after the first presentation the steady
/// state performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Current-layer activations (the layer input).
    pub front: Vec<u8>,
    /// Next-layer activations (the layer output); swapped with `front`
    /// after each layer.
    pub back: Vec<u8>,
    /// Adder-tree accumulators, one per output row.
    pub acc: Vec<i64>,
}

impl Scratch {
    /// Grows the buffers to hold `max_width` activations and
    /// accumulators without reallocating on subsequent calls with the
    /// same or smaller width.
    pub fn ensure(&mut self, max_width: usize) {
        if self.front.len() < max_width {
            self.front.resize(max_width, 0);
            self.back.resize(max_width, 0);
            self.acc.resize(max_width, 0);
        }
    }
}

/// An activation interpolation table lowered to fixed-point, evaluated
/// directly on the i64 adder-tree accumulator of a layer with scale
/// exponent `e` (weights stored as `w·2^e`): the integer replacement
/// for `table.eval(acc / (255·2^e))·255` (see the module docs for the
/// derivation).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedActLut {
    /// Accumulator rails: the smallest/largest accumulator whose rescaled
    /// value `acc/K` lies inside the table domain (`K = 255·2^e`).
    acc_lo: i64,
    acc_hi: i64,
    /// Saturated outputs for accumulators outside the rails — the float
    /// path clamps `acc/K` to exactly `lo`/`hi`, so the out-of-domain
    /// outputs are the boundary evaluations, precomputed once (the
    /// hardware comparator ladder's saturating lookup).
    sat_lo: u8,
    sat_hi: u8,
    /// Interior segment boundaries in accumulator units: entry `m` is
    /// `ceil((lo + (m+1)·step)·K)`, so the segment index is the count
    /// of boundaries `≤ acc`.
    boundaries: Vec<i64>,
    /// Per-segment slope `A_i = round(a_i·2^{F-e})`.
    a: Vec<i64>,
    /// Per-segment intercept `B_i = round(255·b_i·2^F)`.
    b: Vec<i64>,
}

impl FixedActLut {
    /// Lowers `table` for a layer whose weights carry the power-of-two
    /// scale exponent `scale_exp`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no segments (cannot happen for tables
    /// built through [`PiecewiseLinear`] constructors).
    pub fn new(table: &PiecewiseLinear, scale_exp: i32) -> Self {
        let (lo, hi) = table.domain();
        let n = table.segments();
        assert!(n > 0, "activation table must have segments");
        let k = 255.0 * 2f64.powi(scale_exp);
        let step = (hi - lo) / n as f64;
        let coeff_scale = 2f64.powi(i32::try_from(FRAC).unwrap_or(i32::MAX) - scale_exp);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for (slope, intercept) in table.coefficients() {
            a.push(sat_i64_round(slope * coeff_scale));
            b.push(sat_i64_round(
                intercept * 255.0 * 2f64.powi(i32::try_from(FRAC).unwrap_or(i32::MAX)),
            ));
        }
        let boundaries = (1..n)
            .map(|m| sat_i64_round(((lo + step * m as f64) * k).ceil()))
            .collect();
        FixedActLut {
            acc_lo: sat_i64_round((lo * k).ceil()),
            acc_hi: sat_i64_round((hi * k).floor()),
            sat_lo: crate::fixed::sat_u8_round((table.eval(lo) * 255.0).clamp(0.0, 255.0)),
            sat_hi: crate::fixed::sat_u8_round((table.eval(hi) * 255.0).clamp(0.0, 255.0)),
            boundaries,
            a,
            b,
        }
    }

    /// Evaluates the activation on a raw adder-tree accumulator,
    /// returning the u8 neuron-output register value.
    pub fn eval(&self, acc: i64) -> u8 {
        if acc < self.acc_lo {
            return self.sat_lo;
        }
        if acc > self.acc_hi {
            return self.sat_hi;
        }
        let idx = self.boundaries.partition_point(|&bound| bound <= acc);
        let y = (i128::from(self.a[idx]) * i128::from(acc)
            + i128::from(self.b[idx])
            + (1i128 << (FRAC - 1)))
            >> FRAC;
        u8::try_from(y.clamp(0, 255)).unwrap_or(u8::MAX)
    }
}

/// Columns one block of [`active_row_sums`] or [`add_to_rows`] holds in
/// registers across all the listed rows: enough independent add chains
/// to cover much of a float add's latency, where a walk one input at a
/// time would store and reload every value per input.
const COLUMN_BLOCK: usize = 16;

/// Lists at the front of `list` the rows of an input-major matrix
/// `cols` wide that a pass over `x` visits, without a branch per input:
/// `(i · cols, x_i)` for each non-zero `x_i`, `i` ascending, then the
/// bias row's `(len · cols, 1.0)`. `list` needs one slot more than `x`
/// has inputs; returns the count before the bias entry.
pub fn list_active(x: impl Iterator<Item = f64>, cols: usize, list: &mut [(usize, f64)]) -> usize {
    let (mut n, mut row) = (0, 0);
    for v in x {
        list[n] = (row, v);
        n += usize::from(v != 0.0);
        row += cols;
    }
    list[n] = (row, 1.0);
    n
}

/// Adds `w[i][j] · x_i` onto `out[j]` for each `(i · out.len(), x_i)`
/// on a [`list_active`] list, `i` ascending, one rounded multiply and
/// add per term, from the start the caller put in `out` (a bias, or
/// `0.0`); in column blocks of [`COLUMN_BLOCK`], then 4 and 1.
///
/// Skipping a zero input is exact for finite weights: its `±0.0` term
/// changes only a `-0.0` sum, and a rounded add gives `-0.0` only from
/// two `-0.0` operands, which neither a start nor a weight ever is.
pub fn active_row_sums(rows: &[f64], active: &[(usize, f64)], out: &mut [f64]) {
    let mut col = sum_columns::<COLUMN_BLOCK>(rows, active, out, 0);
    col = sum_columns::<4>(rows, active, out, col);
    sum_columns::<1>(rows, active, out, col);
}

/// [`active_row_sums`] from column `col` on, in blocks of `C` columns
/// while a whole block fits; returns the first column left.
fn sum_columns<const C: usize>(
    rows: &[f64],
    active: &[(usize, f64)],
    out: &mut [f64],
    mut col: usize,
) -> usize {
    while col + C <= out.len() {
        let mut acc: [f64; C] = std::array::from_fn(|k| out[col + k]);
        for &(start, x) in active {
            let w = &rows[start + col..start + col + C];
            for (a, &w) in acc.iter_mut().zip(w) {
                *a += w * x;
            }
        }
        out[col..col + C].copy_from_slice(&acc);
        col += C;
    }
    col
}

/// The BP update: adds `steps[j] · y_i` to `w[i][j]` for each `(i ·
/// steps.len(), y_i)` on `active`, in column blocks as
/// [`active_row_sums`] goes.
pub fn add_to_rows(rows: &mut [f64], active: &[(usize, f64)], steps: &[f64]) {
    let mut col = add_to_columns::<COLUMN_BLOCK>(rows, active, steps, 0);
    col = add_to_columns::<4>(rows, active, steps, col);
    add_to_columns::<1>(rows, active, steps, col);
}

/// [`add_to_rows`] from column `col` on, in blocks of `C` columns while
/// a whole block fits; returns the first column left.
fn add_to_columns<const C: usize>(
    rows: &mut [f64],
    active: &[(usize, f64)],
    steps: &[f64],
    mut col: usize,
) -> usize {
    while col + C <= steps.len() {
        let block: [f64; C] = std::array::from_fn(|k| steps[col + k]);
        for &(start, y) in active {
            let w = &mut rows[start + col..start + col + C];
            for (w, &step) in w.iter_mut().zip(&block) {
                *w += step * y;
            }
        }
        col += C;
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_cases, DEFAULT_CASES};
    use crate::fixed::sat_u8_round;

    /// The widened scalar reference: one i128 accumulator per row, no
    /// blocking, the order-of-operations-free ground truth.
    fn gemv_reference(weights: &[i8], input: &[u8], rows: usize) -> Vec<i64> {
        let row_w = input.len() + 1;
        (0..rows)
            .map(|j| {
                let row = &weights[j * row_w..(j + 1) * row_w];
                let mut acc = i128::from(row[input.len()]) * 255;
                for (&w, &x) in row[..input.len()].iter().zip(input) {
                    acc += i128::from(w) * i128::from(x);
                }
                i64::try_from(acc).unwrap_or(i64::MAX)
            })
            .collect()
    }

    #[test]
    fn gemm_matches_widened_reference_on_random_matrices() {
        check_cases(0x9EAA, DEFAULT_CASES, |case, rng| {
            // Sizes straddle both blocking boundaries (BLOCK = 256 on
            // the depth axis, COL_TILE = 8 on the batch axis); one
            // column is the single-presentation case.
            let n = 1 + rng.next_index(700);
            let rows = 1 + rng.next_index(12);
            let cols = 1 + rng.next_index(20);
            let weights: Vec<i8> = (0..rows * (n + 1))
                .map(|_| {
                    let v = i64::try_from(rng.next_index(255)).unwrap_or(0) - 127;
                    i8::try_from(v).unwrap_or(0) // always in -127..=127
                })
                .collect();
            let inputs: Vec<u8> = (0..n * cols)
                .map(|_| u8::try_from(rng.next_index(256)).unwrap_or(0))
                .collect();
            let mut batched = vec![0i64; rows * cols];
            gemm_i8xu8(&weights, rows, &inputs, cols, &mut batched);
            for c in 0..cols {
                assert_eq!(
                    batched[c * rows..(c + 1) * rows],
                    gemv_reference(&weights, &inputs[c * n..(c + 1) * n], rows),
                    "case {case} col {c} (n={n} rows={rows} cols={cols})"
                );
            }
        });
    }

    #[test]
    fn gemm_handles_zero_width_images() {
        // Bias-only network: every presentation reduces to the bias row.
        let weights = [3i8, -2];
        let mut out = vec![0i64; 6];
        gemm_i8xu8(&weights, 2, &[], 3, &mut out);
        assert_eq!(out, vec![765, -510, 765, -510, 765, -510]);
    }

    #[test]
    #[should_panic(expected = "whole number of presentations")]
    fn gemm_rejects_ragged_batches() {
        let mut out = vec![0i64; 2];
        gemm_i8xu8(&[0i8; 8], 1, &[0u8; 13], 2, &mut out);
    }

    #[test]
    fn swar_counts_match_the_scalar_staircase_for_every_luminance() {
        // Every (luminance, max_spikes) pair, including buffers whose
        // length is not a multiple of the 8-pixel SWAR word.
        let pixels: Vec<u8> = (0..=255u8).collect();
        for max_spikes in 0..=16u32 {
            for len in [256usize, 255, 7, 8, 9, 1, 0] {
                let mut got = vec![0u8; len];
                swar_spike_counts(&pixels[..len], max_spikes, &mut got);
                for (&p, &c) in pixels[..len].iter().zip(&got) {
                    assert_eq!(
                        u32::from(c),
                        (u32::from(p) * max_spikes + 127) / 255,
                        "p={p} max={max_spikes}"
                    );
                }
            }
        }
    }

    #[test]
    fn swar_counts_are_exact_at_the_sixteen_spike_boundary() {
        // max_spikes = 16 is the last ladder the 16-bit lanes can hold:
        // the word-parallel path must still match the scalar staircase
        // for every luminance, including the 255·16 + 127 = 4207 peak.
        let pixels: Vec<u8> = (0..=255u8).collect();
        let mut got = vec![0u8; 256];
        swar_spike_counts(&pixels, 16, &mut got);
        for (&p, &c) in pixels.iter().zip(&got) {
            assert_eq!(u32::from(c), (u32::from(p) * 16 + 127) / 255, "p={p}");
        }
        assert_eq!(got[255], 16);
    }

    #[test]
    fn swar_counts_take_the_scalar_rail_above_sixteen_spikes() {
        // One past the boundary: a lane product of 255·17 + 127 = 4462
        // would carry into the neighbouring pixel's lane, so the call
        // must route to the scalar staircase — exact counts, neighbours
        // untouched, on buffers longer and shorter than the SWAR word.
        let pixels: Vec<u8> = (0..=255u8).collect();
        for len in [256usize, 9, 8, 7, 1] {
            let mut got = vec![0u8; len];
            swar_spike_counts(&pixels[..len], 17, &mut got);
            for (&p, &c) in pixels[..len].iter().zip(&got) {
                assert_eq!(
                    u32::from(c),
                    (u32::from(p) * 17 + 127) / 255,
                    "p={p} len={len}"
                );
            }
        }
        // Ladders beyond the u8 count range saturate at the rail
        // instead of wrapping: (255·1000 + 127)/255 = 1000 → 255.
        let mut out = [0u8; 2];
        swar_spike_counts(&[255, 0], 1_000, &mut out);
        assert_eq!(out, [255, 0]);
    }

    #[test]
    fn gemm_handles_extreme_weights_and_saturated_input() {
        // Against saturated inputs: rows alternating i8::MIN and
        // i8::MAX, and rows of all i8::MIN and all i8::MAX (bias word
        // included). The uniform rows make every BLOCK partial the
        // extreme 256·(-128)·255 or 256·127·255, the worst case a
        // vector lane must carry without overflow.
        for n in [BLOCK, 784, 4 * BLOCK] {
            let alternating: Vec<i8> = (0..2 * (n + 1))
                .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
                .collect();
            let uniform: Vec<i8> = [i8::MIN, i8::MAX]
                .iter()
                .flat_map(|&w| std::iter::repeat_n(w, n + 1))
                .collect();
            let input = vec![255u8; n];
            let n_i64 = i64::try_from(n).unwrap_or(0);
            assert_eq!(
                gemv_reference(&uniform, &input, 2),
                vec![-128 * 255 * (n_i64 + 1), 127 * 255 * (n_i64 + 1)],
                "n={n}"
            );
            for weights in [alternating, uniform] {
                let expected = gemv_reference(&weights, &input, 2);
                // One column, and one whole COL_TILE plus a one-column
                // tail.
                for cols in [1, COL_TILE + 1] {
                    let inputs = vec![255u8; n * cols];
                    let mut batched = vec![0i64; 2 * cols];
                    gemm_i8xu8(&weights, 2, &inputs, cols, &mut batched);
                    for c in 0..cols {
                        assert_eq!(
                            &batched[2 * c..2 * c + 2],
                            &expected[..],
                            "gemm n={n} cols {cols} col {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn gemm_rejects_mismatched_geometry() {
        let mut out = vec![0i64; 2];
        gemm_i8xu8(&[0i8; 9], 2, &[0u8; 3], 1, &mut out);
    }

    #[test]
    fn scratch_ensure_is_idempotent_and_never_shrinks() {
        let mut s = Scratch::default();
        s.ensure(100);
        assert_eq!(s.front.len(), 100);
        let front_ptr = s.front.as_ptr();
        let acc_ptr = s.acc.as_ptr();
        s.ensure(40);
        s.ensure(100);
        // Same allocations: ensure() with a width already covered must
        // not touch the buffers (the zero-allocation steady state).
        assert_eq!(s.front.as_ptr(), front_ptr);
        assert_eq!(s.acc.as_ptr(), acc_ptr);
        assert_eq!(s.front.len(), 100);
    }

    #[test]
    fn fixed_lut_tracks_the_float_reference_within_one_quantum() {
        // Sweep sigmoid steepness, domain and scale exponents, checking
        // the integer evaluation against the float reference on random
        // accumulators (including far outside the clamp rails).
        check_cases(0xAC7, DEFAULT_CASES, |case, rng| {
            let steepness = [0.25, 1.0, 4.0, 64.0][rng.next_index(4)];
            let e = i32::try_from(rng.next_index(16)).unwrap_or(0) - 4;
            let half_dom = 8.0 / steepness;
            let table = PiecewiseLinear::sigmoid(16, steepness, (-half_dom, half_dom));
            let lut = FixedActLut::new(&table, e);
            let k = 255.0 * 2f64.powi(e);
            let span = sat_i64_round((half_dom * k).abs().ceil()).max(1);
            for _ in 0..64 {
                let acc =
                    i64::try_from(rng.next_below(u64::try_from(6 * span).unwrap_or(u64::MAX)))
                        .unwrap_or(0)
                        - 3 * span;
                let float_y = sat_u8_round((table.eval(acc as f64 / k) * 255.0).clamp(0.0, 255.0));
                let got = lut.eval(acc);
                assert!(
                    i16::from(got).abs_diff(i16::from(float_y)) <= 1,
                    "case {case}: acc={acc} e={e} a={steepness}: fixed {got} vs float {float_y}"
                );
            }
        });
    }

    #[test]
    fn fixed_lut_is_monotone_for_the_sigmoid() {
        let table = PiecewiseLinear::sigmoid(16, 1.0, (-8.0, 8.0));
        let lut = FixedActLut::new(&table, 5);
        let mut prev = 0u8;
        for acc in (-80_000..80_000).step_by(64) {
            let y = lut.eval(acc);
            assert!(y >= prev, "acc {acc}: {y} < {prev}");
            prev = y;
        }
        assert_eq!(lut.eval(i64::MIN), lut.eval(-1_000_000));
        assert_eq!(lut.eval(i64::MAX), lut.eval(1_000_000));
    }
}
