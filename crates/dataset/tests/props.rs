//! Randomized invariant tests for the synthetic workload generators.
//!
//! Formerly proptest-based; converted to a deterministic std-only harness
//! (seeded [`SplitMix64`] case generation) so the workspace builds and
//! tests fully offline.

use nc_dataset::{digits, shapes, spoken, Dataset, Difficulty, Sample};
use nc_substrate::rng::SplitMix64;

fn random_difficulty(rng: &mut SplitMix64) -> Difficulty {
    Difficulty {
        max_shift: rng.next_range(0.0, 3.0),
        max_rotation: rng.next_range(0.0, 0.4),
        scale_jitter: rng.next_range(0.0, 0.2),
        noise: rng.next_range(0.0, 0.15),
        thickness_jitter: rng.next_range(0.0, 0.5),
    }
}

#[test]
fn digit_generation_is_structurally_valid() {
    let mut rng = SplitMix64::new(0xDA1);
    for case in 0..24 {
        let n = rng.next_below(40) as usize;
        let seed = rng.next_u64();
        let difficulty = random_difficulty(&mut rng);
        let (train, test) = digits::DigitsSpec {
            train: n,
            test: n / 2,
            seed,
            difficulty,
        }
        .generate();
        assert_eq!(train.len(), n, "case {case}");
        assert_eq!(test.len(), n / 2, "case {case}");
        assert_eq!(train.input_dim(), 784, "case {case}");
        for s in train.iter().chain(test.iter()) {
            assert_eq!(s.pixels.len(), 784, "case {case}");
            assert!(s.label < 10, "case {case}");
        }
    }
}

#[test]
fn generation_is_a_pure_function_of_the_spec() {
    let mut rng = SplitMix64::new(0xDA2);
    for case in 0..12 {
        let spec = shapes::ShapesSpec {
            train: 12,
            test: 6,
            seed: rng.next_u64(),
            difficulty: random_difficulty(&mut rng),
        };
        assert_eq!(spec.generate(), spec.generate(), "case {case}");
    }
}

#[test]
fn spoken_patches_are_class_balanced() {
    let mut rng = SplitMix64::new(0xDA3);
    for case in 0..24 {
        let n10 = 1 + rng.next_below(5) as usize;
        let n = n10 * 10;
        let (train, _) = spoken::SpokenSpec {
            train: n,
            test: 0,
            seed: rng.next_u64(),
            difficulty: Difficulty::default(),
        }
        .generate();
        assert_eq!(
            (0..10)
                .map(|c| train.iter().filter(|s| s.label == c).count())
                .collect::<Vec<_>>(),
            vec![n10; 10],
            "case {case}"
        );
    }
}

#[test]
fn every_digit_class_renders_nonempty_under_any_difficulty() {
    let mut rng = SplitMix64::new(0xDA4);
    for case in 0..24 {
        let digit = rng.next_below(10) as usize;
        let seed = rng.next_u64();
        let difficulty = random_difficulty(&mut rng);
        let mut render_rng = SplitMix64::new(seed);
        let img = digits::render_digit(digit, &mut render_rng, difficulty);
        let ink: usize = img.pixels().iter().filter(|&&p| p > 64).count();
        assert!(ink > 5, "case {case}: digit {digit} rendered almost empty");
    }
}

#[test]
fn take_is_a_prefix() {
    let mut rng = SplitMix64::new(0xDA5);
    for case in 0..24 {
        let n = rng.next_below(30) as usize;
        let k = rng.next_below(40) as usize;
        let samples: Vec<Sample> = (0..n)
            .map(|i| Sample {
                pixels: vec![i as u8],
                label: 0,
            })
            .collect();
        let ds = Dataset::from_samples(1, 1, 1, samples.clone()).unwrap();
        let taken = ds.take(k);
        assert_eq!(taken.len(), n.min(k), "case {case}");
        assert_eq!(taken.samples(), &samples[..n.min(k)], "case {case}");
    }
}
