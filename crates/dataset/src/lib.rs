//! # nc-dataset
//!
//! Synthetic workload generators standing in for the three benchmarks the
//! paper evaluates (MNIST handwritten digits, MPEG-7 CE Shape-1 Part-B
//! silhouettes, and the Spoken Arabic Digits UCI dataset).
//!
//! The reproduction environment has no dataset files and no network access
//! to fetch them, so — per the substitution rule in `DESIGN.md` §5 — this
//! crate generates deterministic procedural stand-ins with the same tensor
//! shapes, class counts and train/test protocol:
//!
//! * [`digits`] — 28×28 8-bit greyscale stroke-rendered digits, 10 classes
//!   (MNIST stand-in; drives Tables 3/4/7 and Figures 6/8/14).
//! * [`shapes`] — 28×28 binary-ish object silhouettes, 10 classes (MPEG-7
//!   stand-in; drives §4.5).
//! * [`spoken`] — 13×13 cepstral-like time/frequency patches, 10 classes
//!   (Spoken Arabic Digits stand-in; drives §4.5).
//!
//! All generators take a seed and a [`Difficulty`]; the same
//! `(spec, seed)` always yields the same dataset, so every experiment in
//! the repository is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use nc_dataset::{digits, Difficulty};
//!
//! let spec = digits::DigitsSpec {
//!     train: 100,
//!     test: 20,
//!     seed: 7,
//!     difficulty: Difficulty::default(),
//! };
//! let (train, test) = spec.generate();
//! assert_eq!(train.len(), 100);
//! assert_eq!(test.len(), 20);
//! assert_eq!(train.input_dim(), 28 * 28);
//! assert_eq!(train.num_classes(), 10);
//! ```

pub mod digits;
pub mod image;
pub mod model;
pub mod shapes;
pub mod spoken;

pub use image::GreyImage;
pub use model::{EvalBatch, FitBudget, Model, ModelError, RequestSlab};

/// One labeled example: a flattened 8-bit image plus its class label.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sample {
    /// Row-major 8-bit pixel luminances (the accelerator's input format).
    pub pixels: Vec<u8>,
    /// Class label in `0..num_classes`.
    pub label: usize,
}

impl Sample {
    /// Pixel luminances rescaled to `[0, 1]` for the floating-point model.
    pub fn pixels_unit(&self) -> Vec<f64> {
        self.pixels.iter().map(|&p| f64::from(p) / 255.0).collect()
    }
}

/// A labeled dataset with fixed input geometry.
///
/// # Examples
///
/// ```
/// use nc_dataset::{Dataset, Sample};
/// let ds = Dataset::from_samples(4, 4, 2, vec![
///     Sample { pixels: vec![0; 16], label: 0 },
///     Sample { pixels: vec![255; 16], label: 1 },
/// ]).unwrap();
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.input_dim(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    width: usize,
    height: usize,
    num_classes: usize,
    samples: Vec<Sample>,
}

/// Error building a [`Dataset`] from raw samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A sample's pixel count does not match `width * height`.
    WrongPixelCount {
        /// Index of the offending sample.
        index: usize,
        /// Expected pixel count.
        expected: usize,
        /// Observed pixel count.
        got: usize,
    },
    /// A sample's label is `>= num_classes`.
    LabelOutOfRange {
        /// Index of the offending sample.
        index: usize,
        /// The offending label.
        label: usize,
        /// Number of classes in the dataset.
        num_classes: usize,
    },
    /// `width`, `height` or `num_classes` was zero.
    EmptyGeometry,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::WrongPixelCount {
                index,
                expected,
                got,
            } => {
                write!(f, "sample {index} has {got} pixels, expected {expected}")
            }
            DatasetError::LabelOutOfRange {
                index,
                label,
                num_classes,
            } => {
                write!(
                    f,
                    "sample {index} has label {label}, expected < {num_classes}"
                )
            }
            DatasetError::EmptyGeometry => {
                write!(f, "width, height and num_classes must be nonzero")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset, validating every sample against the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] if the geometry is empty, any sample has
    /// the wrong pixel count, or any label is out of range.
    pub fn from_samples(
        width: usize,
        height: usize,
        num_classes: usize,
        samples: Vec<Sample>,
    ) -> Result<Self, DatasetError> {
        if width == 0 || height == 0 || num_classes == 0 {
            return Err(DatasetError::EmptyGeometry);
        }
        let expected = width * height;
        for (index, s) in samples.iter().enumerate() {
            if s.pixels.len() != expected {
                return Err(DatasetError::WrongPixelCount {
                    index,
                    expected,
                    got: s.pixels.len(),
                });
            }
            if s.label >= num_classes {
                return Err(DatasetError::LabelOutOfRange {
                    index,
                    label: s.label,
                    num_classes,
                });
            }
        }
        Ok(Dataset {
            width,
            height,
            num_classes,
            samples,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Flattened input dimensionality (`width * height`).
    pub fn input_dim(&self) -> usize {
        self.width * self.height
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Returns a new dataset with each sample's pixel buffer transformed
    /// in place by `f` (called with the sample index). The closure
    /// receives a fixed-size `&mut [u8]`, so it can corrupt luminances
    /// but cannot change the pixel count, label, or geometry — the
    /// result is valid by construction and no re-validation is needed.
    pub fn map_pixels(&self, mut f: impl FnMut(usize, &mut [u8])) -> Dataset {
        let mut samples = self.samples.clone();
        for (index, sample) in samples.iter_mut().enumerate() {
            f(index, &mut sample.pixels);
        }
        Dataset {
            width: self.width,
            height: self.height,
            num_classes: self.num_classes,
            samples,
        }
    }

    /// Returns the first `n` samples as a new dataset (all of them if
    /// `n >= len`), used to scale experiments down for fast tests.
    pub fn take(&self, n: usize) -> Dataset {
        Dataset {
            width: self.width,
            height: self.height,
            num_classes: self.num_classes,
            samples: self.samples[..n.min(self.samples.len())].to_vec(),
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Generator difficulty knobs shared by all three synthetic workloads.
///
/// The defaults produce a task on which the paper's qualitative accuracy
/// structure (MLP > SNN+BP > SNN+STDP > SNNwot, plateaus vs #neurons)
/// reproduces; raising the jitters makes every model worse but preserves
/// the ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Difficulty {
    /// Maximum random translation, in pixels.
    pub max_shift: f64,
    /// Maximum random rotation, in radians.
    pub max_rotation: f64,
    /// Scale jitter: each sample is scaled by `1 ± scale_jitter`.
    pub scale_jitter: f64,
    /// Additive uniform pixel noise amplitude, in `[0, 1]` luminance units.
    pub noise: f64,
    /// Stroke thickness jitter fraction (digits/shapes only).
    pub thickness_jitter: f64,
}

impl Default for Difficulty {
    fn default() -> Self {
        Difficulty {
            max_shift: 1.5,
            max_rotation: 0.20,
            scale_jitter: 0.10,
            noise: 0.06,
            thickness_jitter: 0.25,
        }
    }
}

impl Difficulty {
    /// A no-jitter configuration (every sample of a class is identical),
    /// for unit tests that need perfectly separable data.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        Difficulty {
            max_shift: 0.0,
            max_rotation: 0.0,
            scale_jitter: 0.0,
            noise: 0.0,
            thickness_jitter: 0.0,
        }
    }

    /// A harder configuration used by robustness experiments.
    pub fn hard() -> Self {
        Difficulty {
            max_shift: 2.5,
            max_rotation: 0.35,
            scale_jitter: 0.18,
            noise: 0.12,
            thickness_jitter: 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_rejects_bad_pixel_count() {
        let err = Dataset::from_samples(
            2,
            2,
            2,
            vec![Sample {
                pixels: vec![0; 3],
                label: 0,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DatasetError::WrongPixelCount {
                expected: 4,
                got: 3,
                ..
            }
        ));
    }

    #[test]
    fn dataset_rejects_bad_label() {
        let err = Dataset::from_samples(
            1,
            1,
            2,
            vec![Sample {
                pixels: vec![0],
                label: 5,
            }],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DatasetError::LabelOutOfRange { label: 5, .. }
        ));
    }

    #[test]
    fn dataset_rejects_empty_geometry() {
        assert_eq!(
            Dataset::from_samples(0, 4, 2, vec![]).unwrap_err(),
            DatasetError::EmptyGeometry
        );
    }

    #[test]
    fn take_truncates_and_clamps() {
        let ds = Dataset::from_samples(
            1,
            1,
            1,
            (0..5)
                .map(|_| Sample {
                    pixels: vec![1],
                    label: 0,
                })
                .collect(),
        )
        .unwrap();
        assert_eq!(ds.take(3).len(), 3);
        assert_eq!(ds.take(100).len(), 5);
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = DatasetError::EmptyGeometry;
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn map_pixels_preserves_geometry_and_labels() {
        let ds = Dataset::from_samples(
            2,
            2,
            3,
            vec![
                Sample {
                    pixels: vec![10; 4],
                    label: 2,
                },
                Sample {
                    pixels: vec![20; 4],
                    label: 1,
                },
            ],
        )
        .unwrap();
        let mapped = ds.map_pixels(|index, pixels| {
            for p in pixels.iter_mut() {
                *p = p.saturating_add(u8::try_from(index).unwrap_or(u8::MAX));
            }
        });
        assert_eq!(mapped.width(), 2);
        assert_eq!(mapped.height(), 2);
        assert_eq!(mapped.num_classes(), 3);
        assert_eq!(mapped.samples()[0].pixels, vec![10; 4]);
        assert_eq!(mapped.samples()[1].pixels, vec![21; 4]);
        assert_eq!(mapped.samples()[0].label, 2);
        assert_eq!(mapped.samples()[1].label, 1);
        // Source is untouched.
        assert_eq!(ds.samples()[1].pixels, vec![20; 4]);
    }
}
