//! Procedural object-silhouette generator (MPEG-7 CE Shape-1 stand-in).
//!
//! The MPEG-7 benchmark is a set of binary object silhouettes. The paper
//! uses it (resampled to 28×28, 10 output classes) to validate its MNIST
//! conclusions on object recognition (§4.5). This generator produces ten
//! filled-silhouette classes with rotation/scale/translation jitter and
//! boundary noise.

use crate::image::{pt, rasterize_polygon, Jitter, Point};
use crate::{Dataset, Difficulty, Sample};
use nc_substrate::rng::SplitMix64;

/// Canvas side used by the shape generator (matches the paper's 28×28
/// MPEG-7 configuration).
pub const SIDE: usize = 28;
/// Number of silhouette classes.
pub const CLASSES: usize = 10;

/// Specification of a synthetic silhouette dataset.
///
/// # Examples
///
/// ```
/// use nc_dataset::shapes::ShapesSpec;
/// use nc_dataset::Difficulty;
///
/// let (train, test) = ShapesSpec {
///     train: 40,
///     test: 10,
///     seed: 2,
///     difficulty: Difficulty::default(),
/// }
/// .generate();
/// assert_eq!(train.input_dim(), 28 * 28);
/// assert_eq!(test.len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapesSpec {
    /// Number of training samples.
    pub train: usize,
    /// Number of test samples.
    pub test: usize,
    /// Generator seed.
    pub seed: u64,
    /// Jitter/noise knobs.
    pub difficulty: Difficulty,
}

impl Default for ShapesSpec {
    /// 2 000 train / 500 test — the MPEG-7 set is small (1 400 images),
    /// so the default is of comparable scale.
    fn default() -> Self {
        ShapesSpec {
            train: 2_000,
            test: 500,
            seed: 0x5AAE_0007,
            difficulty: Difficulty::default(),
        }
    }
}

impl ShapesSpec {
    /// Generates the `(train, test)` datasets, class-balanced round-robin.
    pub fn generate(&self) -> (Dataset, Dataset) {
        let train = split(self.train, self.seed, 0x11, self.difficulty);
        let test = split(self.test, self.seed, 0x22, self.difficulty);
        (train, test)
    }
}

fn split(n: usize, seed: u64, stream: u64, difficulty: Difficulty) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
    let samples: Vec<Sample> = (0..n)
        .map(|i| {
            let label = i % CLASSES;
            let img = render_shape(label, &mut rng, difficulty);
            Sample {
                pixels: img.into_pixels(),
                label,
            }
        })
        .collect();
    // nc-lint: allow(R5, reason = "generator emits fixed SIDE*SIDE geometry by construction")
    Dataset::from_samples(SIDE, SIDE, CLASSES, samples).expect("consistent geometry")
}

/// Renders one jittered silhouette.
///
/// # Panics
///
/// Panics if `class >= 10`.
pub fn render_shape(
    class: usize,
    rng: &mut SplitMix64,
    difficulty: Difficulty,
) -> crate::image::GreyImage {
    assert!(class < CLASSES, "class must be 0..=9");
    let base = polygon(class);
    // Boundary wobble: radial perturbation of each vertex.
    let wobble = 0.02 + 0.03 * difficulty.thickness_jitter;
    let poly: Vec<Point> = base
        .iter()
        .map(|&p| {
            pt(
                p.x + rng.next_range(-wobble, wobble),
                p.y + rng.next_range(-wobble, wobble),
            )
        })
        .collect();
    let jitter = Jitter::sample(
        rng,
        difficulty.max_shift,
        // Silhouettes tolerate (and MPEG-7 contains) large rotations.
        difficulty.max_rotation * 2.0,
        difficulty.scale_jitter,
    );
    let mut img = rasterize_polygon(SIDE, SIDE, &poly, jitter);
    img.add_noise(difficulty.noise, rng);
    img
}

fn regular(n: usize, cx: f64, cy: f64, r: f64, phase: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let theta = phase + std::f64::consts::TAU * i as f64 / n as f64;
            pt(cx + r * theta.cos(), cy + r * theta.sin())
        })
        .collect()
}

fn star(points: usize, cx: f64, cy: f64, r_outer: f64, r_inner: f64) -> Vec<Point> {
    let mut v = Vec::with_capacity(points * 2);
    for i in 0..points * 2 {
        let r = if i % 2 == 0 { r_outer } else { r_inner };
        let theta = -std::f64::consts::FRAC_PI_2 + std::f64::consts::PI * i as f64 / points as f64;
        v.push(pt(cx + r * theta.cos(), cy + r * theta.sin()));
    }
    v
}

/// The base polygon (unit-box coordinates) for each silhouette class:
/// disk, square, triangle, 5-star, cross, diamond, bar, L-bracket,
/// arrow, crescent-like notched disk.
pub fn polygon(class: usize) -> Vec<Point> {
    match class {
        0 => regular(16, 0.5, 0.5, 0.38, 0.0),
        1 => vec![
            pt(0.18, 0.18),
            pt(0.82, 0.18),
            pt(0.82, 0.82),
            pt(0.18, 0.82),
        ],
        2 => vec![pt(0.5, 0.10), pt(0.90, 0.85), pt(0.10, 0.85)],
        3 => star(5, 0.5, 0.52, 0.44, 0.18),
        4 => vec![
            pt(0.38, 0.08),
            pt(0.62, 0.08),
            pt(0.62, 0.38),
            pt(0.92, 0.38),
            pt(0.92, 0.62),
            pt(0.62, 0.62),
            pt(0.62, 0.92),
            pt(0.38, 0.92),
            pt(0.38, 0.62),
            pt(0.08, 0.62),
            pt(0.08, 0.38),
            pt(0.38, 0.38),
        ],
        5 => vec![pt(0.5, 0.06), pt(0.90, 0.5), pt(0.5, 0.94), pt(0.10, 0.5)],
        6 => vec![
            pt(0.10, 0.38),
            pt(0.90, 0.38),
            pt(0.90, 0.62),
            pt(0.10, 0.62),
        ],
        7 => vec![
            pt(0.15, 0.10),
            pt(0.42, 0.10),
            pt(0.42, 0.63),
            pt(0.90, 0.63),
            pt(0.90, 0.90),
            pt(0.15, 0.90),
        ],
        8 => vec![
            pt(0.08, 0.40),
            pt(0.55, 0.40),
            pt(0.55, 0.18),
            pt(0.94, 0.5),
            pt(0.55, 0.82),
            pt(0.55, 0.60),
            pt(0.08, 0.60),
        ],
        9 => {
            // A disk with a wedge notch (pac-man / crescent-like).
            let mut v = vec![pt(0.5, 0.5)];
            let n = 14;
            for i in 0..=n {
                let theta = 0.6 + (std::f64::consts::TAU - 1.2) * i as f64 / n as f64;
                v.push(pt(0.5 + 0.40 * theta.cos(), 0.5 + 0.40 * theta.sin()));
            }
            v
        }
        _ => unreachable!("callers mask class labels to 0..=9"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = ShapesSpec {
            train: 20,
            test: 5,
            seed: 9,
            difficulty: Difficulty::default(),
        };
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn all_classes_render_nonempty() {
        let mut rng = SplitMix64::new(4);
        for c in 0..CLASSES {
            let img = render_shape(c, &mut rng, Difficulty::none());
            let ink: usize = img.pixels().iter().filter(|&&p| p > 128).count();
            assert!(ink > 20, "class {c} rendered almost empty ({ink} px)");
        }
    }

    #[test]
    fn silhouettes_are_mostly_binary_without_noise() {
        let mut rng = SplitMix64::new(4);
        let img = render_shape(1, &mut rng, Difficulty::none());
        let intermediate = img.pixels().iter().filter(|&&p| p > 10 && p < 245).count();
        // Only the anti-aliased boundary may be intermediate.
        assert!(intermediate < img.pixels().len() / 4);
    }

    #[test]
    fn classes_are_balanced() {
        let (train, _) = ShapesSpec {
            train: 40,
            test: 0,
            seed: 6,
            difficulty: Difficulty::default(),
        }
        .generate();
        assert_eq!(
            (0..10)
                .map(|c| train.iter().filter(|s| s.label == c).count())
                .collect::<Vec<_>>(),
            vec![4; 10]
        );
    }

    #[test]
    #[should_panic(expected = "callers mask class labels to 0..=9")]
    fn polygon_rejects_out_of_range() {
        let _ = polygon(10);
    }
}
