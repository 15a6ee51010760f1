//! Procedural handwritten-digit generator (MNIST stand-in).
//!
//! Each digit class has a stroke-template glyph (polylines in a normalized
//! box). A sample is rendered by jittering the template (per-vertex
//! wobble, affine jitter, stroke-thickness jitter), rasterizing with
//! anti-aliasing, blurring, and adding pixel noise — producing 28×28 8-bit
//! greyscale images with the same geometry and class structure as MNIST.
//!
//! See `DESIGN.md` §5 for why a synthetic stand-in is used and what it
//! preserves.

use crate::image::{pt, rasterize_strokes, GreyImage, Jitter, Point, StrokeScratch};
use crate::{Dataset, Difficulty, Sample};
use nc_substrate::rng::SplitMix64;

/// Canvas side used by the digit generator (matches MNIST).
pub const SIDE: usize = 28;
/// Number of digit classes.
pub const CLASSES: usize = 10;

/// Specification of a synthetic digit dataset.
///
/// # Examples
///
/// ```
/// use nc_dataset::digits::DigitsSpec;
/// use nc_dataset::Difficulty;
///
/// let (train, test) = DigitsSpec {
///     train: 50,
///     test: 10,
///     seed: 1,
///     difficulty: Difficulty::default(),
/// }
/// .generate();
/// assert_eq!(train.len(), 50);
/// assert_eq!(test.num_classes(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitsSpec {
    /// Number of training samples.
    pub train: usize,
    /// Number of test samples.
    pub test: usize,
    /// Generator seed; train and test streams are derived from it but
    /// disjoint.
    pub seed: u64,
    /// Jitter/noise knobs.
    pub difficulty: Difficulty,
}

impl Default for DigitsSpec {
    /// The default experiment scale: 6 000 train / 1 000 test (a 10×
    /// scale-down of the paper's full 60 000/10 000 MNIST protocol chosen
    /// so the whole table regenerates in minutes on a laptop; pass larger
    /// values to run at full paper scale).
    fn default() -> Self {
        DigitsSpec {
            train: 6_000,
            test: 1_000,
            seed: 0xD161_7350,
            difficulty: Difficulty::default(),
        }
    }
}

impl DigitsSpec {
    /// Generates the `(train, test)` datasets. Classes are balanced
    /// round-robin so every digit appears `n/10 ± 1` times.
    pub fn generate(&self) -> (Dataset, Dataset) {
        let train = generate_split(self.train, self.seed, 0x7EA1, self.difficulty);
        let test = generate_split(self.test, self.seed, 0x7E57, self.difficulty);
        (train, test)
    }
}

fn generate_split(n: usize, seed: u64, stream: u64, difficulty: Difficulty) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    // The ten templates and the render buffers serve the whole split.
    let glyphs: Vec<Vec<Vec<Point>>> = (0..CLASSES).map(glyph).collect();
    let mut strokes = Vec::new();
    let mut raster = StrokeScratch::default();
    let samples: Vec<Sample> = (0..n)
        .map(|i| {
            let label = i % CLASSES;
            let img = render(
                &glyphs[label],
                &mut strokes,
                &mut rng,
                difficulty,
                |strokes, thickness, jitter| {
                    raster.rasterize(SIDE, SIDE, strokes, thickness, jitter)
                },
            );
            Sample {
                pixels: img.into_pixels(),
                label,
            }
        })
        .collect();
    Dataset::from_samples(SIDE, SIDE, CLASSES, samples)
        // nc-lint: allow(R5, reason = "generator emits fixed SIDE*SIDE geometry by construction")
        .expect("generator emits consistent geometry")
}

/// Renders one jittered digit image.
///
/// # Panics
///
/// Panics if `digit >= 10`.
pub fn render_digit(digit: usize, rng: &mut SplitMix64, difficulty: Difficulty) -> GreyImage {
    assert!(digit < CLASSES, "digit must be 0..=9");
    render(
        &glyph(digit),
        &mut Vec::new(),
        rng,
        difficulty,
        |strokes, thickness, jitter| rasterize_strokes(SIDE, SIDE, strokes, thickness, jitter),
    )
}

/// Renders one jittered image of the glyph `template`: wobbles its
/// vertices into `strokes` (reusing the buffer), samples the affine
/// jitter and stroke thickness, rasterizes through `rasterize`, then
/// blurs and adds noise.
fn render(
    template: &[Vec<Point>],
    strokes: &mut Vec<Vec<Point>>,
    rng: &mut SplitMix64,
    difficulty: Difficulty,
    rasterize: impl FnOnce(&[Vec<Point>], f64, Jitter) -> GreyImage,
) -> GreyImage {
    // Per-vertex wobble proportional to stroke jitter.
    let wobble = 0.03 + 0.04 * difficulty.thickness_jitter;
    strokes.resize_with(template.len(), Vec::new);
    for (stroke, s) in strokes.iter_mut().zip(template) {
        stroke.clear();
        stroke.extend(s.iter().map(|&p| {
            pt(
                p.x + rng.next_range(-wobble, wobble),
                p.y + rng.next_range(-wobble, wobble),
            )
        }));
    }
    let jitter = Jitter::sample(
        rng,
        difficulty.max_shift,
        difficulty.max_rotation,
        difficulty.scale_jitter,
    );
    let thickness =
        2.2 * (1.0 + rng.next_range(-difficulty.thickness_jitter, difficulty.thickness_jitter));
    let mut img = rasterize(strokes, thickness.max(0.8), jitter);
    img.blur3();
    img.add_noise(difficulty.noise, rng);
    img
}

/// Closed 12-gon approximating an ellipse centered at `(cx, cy)`.
fn ellipse(cx: f64, cy: f64, rx: f64, ry: f64) -> Vec<Point> {
    let n = 12;
    (0..=n)
        .map(|i| {
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            pt(cx + rx * theta.cos(), cy + ry * theta.sin())
        })
        .collect()
}

/// Open arc of an ellipse from `a0` to `a1` radians.
fn arc(cx: f64, cy: f64, rx: f64, ry: f64, a0: f64, a1: f64) -> Vec<Point> {
    let n = 8;
    (0..=n)
        .map(|i| {
            let theta = a0 + (a1 - a0) * i as f64 / n as f64;
            pt(cx + rx * theta.cos(), cy + ry * theta.sin())
        })
        .collect()
}

/// The stroke template for a digit, as polylines in the unit box
/// (x right, y down).
pub fn glyph(digit: usize) -> Vec<Vec<Point>> {
    use std::f64::consts::PI;
    match digit {
        0 => vec![ellipse(0.5, 0.5, 0.32, 0.45)],
        1 => vec![vec![pt(0.35, 0.25), pt(0.55, 0.05), pt(0.55, 0.95)]],
        2 => vec![
            // top arc, then diagonal to bottom-left, then bottom bar
            {
                let mut s = arc(0.5, 0.28, 0.30, 0.24, -PI, 0.0);
                s.push(pt(0.22, 0.95));
                s.push(pt(0.82, 0.95));
                s
            },
        ],
        3 => vec![
            arc(0.45, 0.27, 0.28, 0.23, -PI * 0.9, PI * 0.45),
            arc(0.45, 0.73, 0.30, 0.24, -PI * 0.45, PI * 0.9),
        ],
        4 => vec![
            vec![pt(0.62, 0.05), pt(0.18, 0.62), pt(0.85, 0.62)],
            vec![pt(0.62, 0.05), pt(0.62, 0.95)],
        ],
        5 => vec![{
            let mut s = vec![pt(0.78, 0.08), pt(0.28, 0.08), pt(0.25, 0.48)];
            s.extend(arc(0.47, 0.68, 0.28, 0.26, -PI * 0.6, PI * 0.75));
            s
        }],
        6 => vec![{
            let mut s = vec![pt(0.68, 0.06), pt(0.34, 0.45)];
            s.extend(ellipse(0.5, 0.68, 0.24, 0.26));
            s
        }],
        7 => vec![vec![pt(0.18, 0.08), pt(0.82, 0.08), pt(0.42, 0.95)]],
        8 => vec![
            ellipse(0.5, 0.29, 0.24, 0.22),
            ellipse(0.5, 0.72, 0.28, 0.25),
        ],
        9 => vec![{
            let mut s = ellipse(0.5, 0.32, 0.24, 0.26);
            s.push(pt(0.72, 0.40));
            s.push(pt(0.62, 0.95));
            s
        }],
        _ => unreachable!("callers mask digit labels to 0..=9"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DigitsSpec {
            train: 20,
            test: 10,
            seed: 5,
            difficulty: Difficulty::default(),
        };
        let (a_train, a_test) = spec.generate();
        let (b_train, b_test) = spec.generate();
        assert_eq!(a_train, b_train);
        assert_eq!(a_test, b_test);
    }

    #[test]
    fn train_and_test_are_disjoint_streams() {
        let spec = DigitsSpec {
            train: 10,
            test: 10,
            seed: 5,
            difficulty: Difficulty::default(),
        };
        let (train, test) = spec.generate();
        // Same labels (round-robin) but different pixels.
        assert_ne!(train.samples()[0].pixels, test.samples()[0].pixels);
    }

    #[test]
    fn classes_are_balanced() {
        let spec = DigitsSpec {
            train: 100,
            test: 0,
            seed: 1,
            difficulty: Difficulty::default(),
        };
        let (train, _) = spec.generate();
        assert_eq!(
            (0..10)
                .map(|c| train.iter().filter(|s| s.label == c).count())
                .collect::<Vec<_>>(),
            vec![10; 10]
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            DigitsSpec {
                train: 5,
                test: 0,
                seed,
                difficulty: Difficulty::default(),
            }
            .generate()
            .0
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn digits_have_reasonable_ink_coverage() {
        // Sanity: strokes should cover a small but nonzero fraction of the
        // canvas, like MNIST (~13% mean luminance).
        let spec = DigitsSpec {
            train: 50,
            test: 0,
            seed: 3,
            difficulty: Difficulty::default(),
        };
        let (train, _) = spec.generate();
        let pixels: Vec<u8> = train.iter().flat_map(|s| s.pixels.clone()).collect();
        let lum = pixels.iter().map(|&p| f64::from(p)).sum::<f64>() / pixels.len() as f64 / 255.0;
        assert!(lum > 0.03 && lum < 0.40, "mean luminance = {lum}");
    }

    #[test]
    fn all_glyphs_render_nonempty() {
        let mut rng = SplitMix64::new(7);
        for d in 0..10 {
            let img = render_digit(d, &mut rng, Difficulty::none());
            assert!(
                img.pixels().iter().any(|&p| p > 128),
                "digit {d} rendered empty"
            );
        }
    }

    #[test]
    fn noiseless_same_class_samples_are_identical() {
        let mut rng_a = SplitMix64::new(11);
        let mut rng_b = SplitMix64::new(11);
        let a = render_digit(3, &mut rng_a, Difficulty::none());
        let b = render_digit(3, &mut rng_b, Difficulty::none());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "callers mask digit labels to 0..=9")]
    fn glyph_rejects_out_of_range() {
        let _ = glyph(10);
    }
}
