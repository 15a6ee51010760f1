//! Randomized invariant tests for the numeric substrate, written
//! against the in-repo seeded-loop harness
//! ([`nc_substrate::check::check_cases`]): std-only, deterministic, and
//! replayable — a failing case prints its case index and per-case seed.
//!
//! Beyond the per-operation properties, this file carries two proofs
//! about the hardware primitives:
//!
//! * the LFSR-31 state-transition matrix has multiplicative order
//!   exactly `2^31 - 1` and no nonzero fixed point, so **every** nonzero
//!   seed walks the full period (`2^31 - 1` is a Mersenne prime, so the
//!   orbit size — which divides the order — is 1 or everything);
//! * the 16-segment sigmoid LUT obeys the chord-interpolation error
//!   bound `max|f''| · h² / 8` and is monotone, which is what lets the
//!   MLP accelerator replace the transcendental with SRAM coefficients.

use nc_substrate::check::{check_cases, DEFAULT_CASES};
use nc_substrate::interp::PiecewiseLinear;
use nc_substrate::rng::{GaussianClt, Lfsr31, PoissonInterval, SplitMix64};
use nc_substrate::stats::Running;

// ---------------------------------------------------------------------
// LFSR-31: the full-period proof and the statistical sanity checks.
// ---------------------------------------------------------------------

/// The LFSR step as a GF(2) matrix, column `i` = step applied to the
/// basis state `1 << i`, built from the actual implementation so the
/// proof is about the shipped code, not a transcription of it.
fn lfsr_transition_matrix() -> [u32; 31] {
    let mut cols = [0u32; 31];
    for (i, col) in cols.iter_mut().enumerate() {
        let mut l = Lfsr31::new(1 << i);
        l.step();
        *col = l.state();
    }
    cols
}

fn mat_vec(m: &[u32; 31], v: u32) -> u32 {
    (0..31).fold(0, |acc, i| if v & (1 << i) != 0 { acc ^ m[i] } else { acc })
}

fn mat_mul(a: &[u32; 31], b: &[u32; 31]) -> [u32; 31] {
    let mut out = [0u32; 31];
    for i in 0..31 {
        out[i] = mat_vec(a, b[i]);
    }
    out
}

fn identity() -> [u32; 31] {
    let mut id = [0u32; 31];
    for (i, col) in id.iter_mut().enumerate() {
        *col = 1 << i;
    }
    id
}

/// Rank of a GF(2) matrix given as column vectors.
fn rank(mut cols: Vec<u32>) -> usize {
    let mut rank = 0;
    let mut basis: Vec<u32> = Vec::new();
    for col in cols.iter_mut() {
        let mut v = *col;
        for &b in &basis {
            let lead = 31 - b.leading_zeros();
            if v & (1 << lead) != 0 {
                v ^= b;
            }
        }
        if v != 0 {
            basis.push(v);
            basis.sort_unstable_by(|a, b| b.cmp(a));
            rank += 1;
        }
    }
    rank
}

#[test]
fn lfsr_step_is_linear_over_gf2() {
    // The matrix proof below only applies if the step really is linear
    // in the state bits: step(a ^ b) = step(a) ^ step(b) columnwise.
    let m = lfsr_transition_matrix();
    check_cases(0x57, DEFAULT_CASES, |case, rng| {
        let s = (rng.next_u64() as u32) & 0x7FFF_FFFF;
        if s == 0 {
            return; // the all-zero state is remapped by `new`, not stepped
        }
        let mut l = Lfsr31::new(s);
        l.step();
        assert_eq!(l.state(), mat_vec(&m, s), "case {case}: state {s:#x}");
    });
}

#[test]
fn lfsr_has_exact_period_two_to_31_minus_one() {
    // M^(2^31 - 1) = I says every orbit size divides 2^31 - 1; that
    // number is a Mersenne prime, so orbits are size 1 or full-period.
    let m = lfsr_transition_matrix();
    let mut acc = identity();
    let mut pow = m;
    let mut exp = Lfsr31::PERIOD;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mat_mul(&acc, &pow);
        }
        pow = mat_mul(&pow, &pow);
        exp >>= 1;
    }
    assert_eq!(acc, identity(), "M^(2^31-1) must be the identity");

    // Size-1 orbits are fixed points: M·s = s, i.e. (M ^ I)·s = 0. Full
    // rank of (M ^ I) means s = 0 is the only one — and the zero state
    // is unreachable (Lfsr31::new remaps it). Hence: exact full period
    // for every admissible seed.
    let m_xor_i: Vec<u32> = (0..31).map(|i| m[i] ^ (1 << i)).collect();
    assert_eq!(rank(m_xor_i), 31, "M - I must be nonsingular");

    // And the order is not a proper divisor: 2^31 - 1 being prime, the
    // only proper divisor is 1, which would need M = I.
    assert_ne!(m, identity());
}

#[test]
fn lfsr_stays_nonzero_and_in_31_bits() {
    check_cases(0x58, DEFAULT_CASES, |case, rng| {
        let seed = rng.next_u64() as u32;
        let steps = 1 + rng.next_below(199) as usize;
        let mut l = Lfsr31::new(seed);
        for _ in 0..steps {
            l.step();
            assert!(l.state() != 0, "case {case}: seed {seed}");
            assert!(l.state() <= 0x7FFF_FFFF, "case {case}: seed {seed}");
        }
    });
}

#[test]
fn lfsr_unit_samples_are_uniform_enough() {
    // In-range always; and per-seed, the sample mean of a few thousand
    // draws sits near 1/2 (a maximal-length LFSR is equidistributed; the
    // tolerance covers the short horizon, not generator defects).
    check_cases(0x59, 16, |case, rng| {
        let mut l = Lfsr31::new(rng.next_u64() as u32);
        let n = 4096;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = l.next_unit();
            assert!((0.0..1.0).contains(&u), "case {case}: {u}");
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!(
            (mean - 0.5).abs() < 0.03,
            "case {case}: sample mean {mean} too far from 1/2"
        );
    });
}

// ---------------------------------------------------------------------
// Software RNG helpers.
// ---------------------------------------------------------------------

#[test]
fn splitmix_next_below_is_bounded() {
    check_cases(0x5A, DEFAULT_CASES, |case, rng| {
        let mut s = SplitMix64::new(rng.next_u64());
        let n = 1 + rng.next_below(9_999);
        for _ in 0..64 {
            assert!(s.next_below(n) < n, "case {case}: n {n}");
        }
    });
}

#[test]
fn splitmix_range_is_respected() {
    check_cases(0x5B, DEFAULT_CASES, |case, rng| {
        let mut s = SplitMix64::new(rng.next_u64());
        let lo = rng.next_range(-100.0, 0.0);
        let hi = lo + rng.next_range(0.001, 100.0);
        for _ in 0..32 {
            let x = s.next_range(lo, hi);
            assert!(x >= lo && x < hi, "case {case}: {x} not in [{lo}, {hi})");
        }
    });
}

#[test]
fn gaussian_clt_is_hard_bounded() {
    let bound = 2.0 * 3f64.sqrt() + 1e-9;
    check_cases(0x5C, DEFAULT_CASES, |case, rng| {
        let mut g = GaussianClt::new(rng.next_u64());
        for _ in 0..64 {
            assert!(g.sample_unit().abs() <= bound, "case {case}");
        }
    });
}

#[test]
fn gaussian_intervals_are_positive() {
    check_cases(0x5D, DEFAULT_CASES, |case, rng| {
        let mut g = GaussianClt::new(rng.next_u64());
        let mean = rng.next_range(1.0, 500.0);
        for _ in 0..32 {
            assert!(g.sample_interval_ms(mean, mean / 3.0) >= 1, "case {case}");
        }
    });
}

#[test]
fn poisson_intervals_are_positive_and_finite() {
    check_cases(0x5E, DEFAULT_CASES, |case, rng| {
        let mut p = PoissonInterval::new(rng.next_u64() as u32);
        let rate = rng.next_range(0.0001, 1.0);
        for _ in 0..32 {
            let dt = p.sample_interval(rate);
            assert!(
                dt > 0.0 && dt.is_finite(),
                "case {case}: rate {rate} dt {dt}"
            );
        }
    });
}

// ---------------------------------------------------------------------
// The interpolation LUTs.
// ---------------------------------------------------------------------

#[test]
fn sigmoid_lut_is_monotone_nondecreasing() {
    // Chord interpolation of a monotone function is monotone; the
    // accelerator relies on this (a non-monotone activation would make
    // training diverge in ways the float model never shows).
    check_cases(0x5F, DEFAULT_CASES, |case, rng| {
        let a = [1.0, 2.0, 4.0, 8.0, 16.0][rng.next_below(5) as usize];
        let lut = PiecewiseLinear::sigmoid(16, a, (-8.0, 8.0));
        let mut x1 = rng.next_range(-10.0, 10.0);
        let mut x2 = rng.next_range(-10.0, 10.0);
        if x1 > x2 {
            std::mem::swap(&mut x1, &mut x2);
        }
        assert!(
            lut.eval(x1) <= lut.eval(x2) + 1e-12,
            "case {case}: a {a}, f({x1}) > f({x2})"
        );
    });
}

#[test]
fn sigmoid_lut_error_is_within_the_chord_bound() {
    // Linear interpolation on a segment of width h errs by at most
    // max|f''|·h²/8. For f_a(x) = σ(ax): f'' = a²·σ(1-σ)(1-2σ), and
    // |σ(1-σ)(1-2σ)| peaks at 1/(6√3) ≈ 0.0962.
    let curvature = 1.0 / (6.0 * 3f64.sqrt());
    for a in [1.0, 2.0, 4.0] {
        let lut = PiecewiseLinear::sigmoid(16, a, (-8.0, 8.0));
        let h = 16.0 / 16.0;
        let bound = a * a * curvature * h * h / 8.0;
        let err = (0..=4000)
            .map(|i| -8.0 + 16.0 * f64::from(i) / 4000.0)
            .map(|x| (lut.eval(x) - 1.0 / (1.0 + (-a * x).exp())).abs())
            .fold(0.0, f64::max);
        assert!(
            err <= bound * 1.0001,
            "a {a}: max error {err} exceeds chord bound {bound}"
        );
    }
}

#[test]
fn interpolation_of_monotone_function_stays_in_range() {
    check_cases(0x60, DEFAULT_CASES, |case, rng| {
        let segments = 1 + rng.next_below(63) as usize;
        let lo = rng.next_range(-10.0, 0.0);
        let hi = lo + rng.next_range(0.1, 20.0);
        let x = rng.next_range(-30.0, 30.0);
        let t = PiecewiseLinear::from_fn(segments, (lo, hi), f64::tanh);
        let y = t.eval(x);
        assert!(
            y >= lo.tanh() - 1e-12 && y <= hi.tanh() + 1e-12,
            "case {case}: x {x} y {y}"
        );
    });
}

// ---------------------------------------------------------------------
// Statistics helpers.
// ---------------------------------------------------------------------

#[test]
fn running_mean_is_bracketed() {
    check_cases(0x61, DEFAULT_CASES, |case, rng| {
        let n = 1 + rng.next_below(99) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_range(-1e6, 1e6)).collect();
        let r: Running = xs.iter().copied().collect();
        assert!(r.mean() >= r.min() - 1e-9, "case {case}");
        assert!(r.mean() <= r.max() + 1e-9, "case {case}");
        assert_eq!(r.count(), xs.len() as u64, "case {case}");
        assert!(r.variance() >= 0.0, "case {case}");
    });
}
