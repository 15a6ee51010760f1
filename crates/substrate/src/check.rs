//! A seeded-loop property-test harness (std-only, no external deps).
//!
//! [`check_cases`] drives a closure through a fixed number of
//! pseudo-random cases, each with its own [`SplitMix64`] derived from a
//! master seed. When a case's assertions panic, the harness prints the
//! case index and its RNG seed before propagating, so the failure
//! reproduces standalone:
//!
//! ```
//! use nc_substrate::check::check_cases;
//!
//! check_cases(0xABCD, 32, |case, rng| {
//!     let x = rng.next_range(0.0, 1.0);
//!     assert!((0.0..1.0).contains(&x), "case {case}");
//! });
//! ```
//!
//! Determinism is the point: the same `(seed, cases)` pair replays the
//! same inputs on every platform, so a red run in CI reproduces locally
//! with no shrinking or persistence machinery.

use crate::rng::SplitMix64;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default case count used by the substrate's invariant tests: enough
/// to sweep edge regions, small enough to keep `cargo test` instant.
pub const DEFAULT_CASES: u64 = 64;

/// Runs `f` for `cases` pseudo-random cases. Each case receives its
/// index and a fresh [`SplitMix64`] seeded from the master `seed`; a
/// panicking case is reported with enough context to replay it.
///
/// # Panics
///
/// Re-raises the first case failure after printing the case index and
/// per-case seed.
// nc-lint: allow(R12, reason = "the check_cases harness the workspace's property tests run on")
pub fn check_cases<F>(seed: u64, cases: u64, f: F)
where
    F: Fn(u64, &mut SplitMix64),
{
    let mut master = SplitMix64::new(seed);
    for case in 0..cases {
        let case_seed = master.next_u64();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = SplitMix64::new(case_seed);
            f(case, &mut rng);
        }));
        if let Err(panic) = outcome {
            eprintln!(
                "property failed at case {case}/{cases} \
                 (master seed {seed:#x}, case seed {case_seed:#x})"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_every_case_with_distinct_seeds() {
        let count = AtomicU64::new(0);
        let mut seeds = std::sync::Mutex::new(Vec::new());
        check_cases(7, 16, |_, rng| {
            count.fetch_add(1, Ordering::Relaxed);
            seeds.lock().unwrap().push(rng.next_u64());
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
        let seen = seeds.get_mut().unwrap();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16, "per-case streams must differ");
    }

    #[test]
    fn same_seed_replays_identical_inputs() {
        let collect = |seed| {
            let out = std::sync::Mutex::new(Vec::new());
            check_cases(seed, 8, |_, rng| out.lock().unwrap().push(rng.next_u64()));
            out.into_inner().unwrap()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn failing_case_propagates_the_panic() {
        let result = catch_unwind(|| {
            check_cases(1, 8, |case, _| assert!(case < 3, "boom at {case}"));
        });
        assert!(result.is_err());
    }
}
