//! The unified model interface every accelerator candidate implements.
//!
//! The paper compares five model variants (MLP+BP float and 8-bit
//! fixed-point, SNN+STDP through the LIF and SNNwot readouts, and the
//! SNN+BP hybrid) on identical data with identical scoring. This module
//! captures that contract as a trait so experiment drivers — notably the
//! parallel engine in `nc-core` — can treat every variant uniformly:
//! build, [`Model::fit`] on the training set, [`Model::evaluate`] on the
//! test set, report accuracy from the shared confusion matrix.
//!
//! The trait lives here (rather than in `nc-core`) because `nc-dataset`
//! is the lowest layer that knows both [`Dataset`] and
//! [`Confusion`](nc_substrate::stats::Confusion); the model crates
//! (`nc-mlp`, `nc-snn`) implement it without depending on each other.

use crate::Dataset;
use nc_faults::{FaultError, FaultPlan};
use nc_obs::Recorder;
use nc_substrate::stats::Confusion;

/// How much training compute a [`Model::fit`] call may spend.
///
/// One budget type serves every model family; each model reads the
/// fields that apply to it (gradient-based models read `epochs` and
/// `learning_rate`, STDP models read `stdp_epochs` and `stdp_delta`).
/// Drivers fill the fields per model — e.g. the experiment engine maps
/// its scale's MLP epoch count or SNN+BP epoch count into `epochs`
/// depending on which model the budget is for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitBudget {
    /// Passes over the training set for gradient-based learners
    /// (MLP+BP, SNN+BP).
    pub epochs: usize,
    /// Passes over the training set for STDP learners.
    pub stdp_epochs: usize,
    /// STDP weight-update magnitude (paper Table 1 uses ±1 at full
    /// presentation volume).
    pub stdp_delta: i16,
    /// Learning rate override for gradient-based learners; `None` keeps
    /// each trainer's paper default (η = 0.3 for the MLP, 0.5 for
    /// SNN+BP).
    pub learning_rate: Option<f64>,
}

impl Default for FitBudget {
    /// The paper's full-volume settings (Table 1).
    fn default() -> Self {
        FitBudget {
            epochs: 50,
            stdp_epochs: 20,
            stdp_delta: 1,
            learning_rate: None,
        }
    }
}

/// Why a [`Model::fit`] call could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The dataset's input dimensionality does not match the model's.
    GeometryMismatch {
        /// Input dimension the model was built for.
        expected: usize,
        /// Input dimension the dataset provides.
        got: usize,
    },
    /// The training set has no samples.
    EmptyDataset,
    /// The model instance cannot be trained — e.g. a deployment artifact
    /// (a quantized or timing-free network extracted from a trained
    /// master) that was not built with an `untrained` constructor.
    NotTrainable {
        /// The model's display name.
        model: &'static str,
        /// Human-readable explanation.
        reason: &'static str,
    },
    /// The model has no physical substrate for this fault kind — e.g. a
    /// stuck LFSR tap on the float MLP, which has no spike generators.
    FaultUnsupported {
        /// The model's display name.
        model: &'static str,
        /// The unsupported fault's stable name.
        fault: &'static str,
    },
    /// The fault plan itself was malformed (e.g. rate outside `[0, 1]`).
    InvalidFaultPlan {
        /// Explanation from the fault layer.
        reason: String,
    },
}

impl From<FaultError> for ModelError {
    fn from(err: FaultError) -> Self {
        ModelError::InvalidFaultPlan {
            reason: err.to_string(),
        }
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::GeometryMismatch { expected, got } => {
                write!(f, "dataset has {got} inputs, model expects {expected}")
            }
            ModelError::EmptyDataset => write!(f, "training set is empty"),
            ModelError::NotTrainable { model, reason } => {
                write!(f, "{model} cannot be trained: {reason}")
            }
            ModelError::FaultUnsupported { model, fault } => {
                write!(f, "{model} has no substrate for fault model {fault}")
            }
            ModelError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Presentation-seed base shared by every batch evaluation path: sample
/// `i` of a test set is presented with seed
/// `EVAL_PRESENTATION_SEED_BASE | i`, so single-sample
/// [`Model::predict`] calls can reproduce exactly what
/// [`Model::evaluate_batch`] saw.
pub const EVAL_PRESENTATION_SEED_BASE: u64 = 0xE7A1_0000;

/// The owned backing store of an [`EvalBatch`]: images back to back in
/// one contiguous pixel slab, each with its label and its presentation
/// seed, so batched kernels consume one flat `&[u8]` with a fixed
/// stride instead of chasing a pointer per image.
///
/// Offline scoring copies a whole [`Dataset`] in at once
/// ([`RequestSlab::from_dataset`]); a serving admission queue pushes
/// one request at a time ([`RequestSlab::push`]). Either way every item
/// carries an explicit seed: a served request must replay the seed its
/// item had in the offline evaluation stream
/// (`EVAL_PRESENTATION_SEED_BASE | item_index`), which is generally not
/// its position in the coalesced batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestSlab {
    pixels: Vec<u8>,
    labels: Vec<usize>,
    seeds: Vec<u64>,
    stride: usize,
    num_classes: usize,
}

impl RequestSlab {
    /// An empty slab for images of `stride` pixels over `num_classes`
    /// label classes.
    pub fn new(stride: usize, num_classes: usize) -> RequestSlab {
        RequestSlab {
            pixels: Vec::new(),
            labels: Vec::new(),
            seeds: Vec::new(),
            stride,
            num_classes,
        }
    }

    /// Copies `test` into one slab in dataset order, image `i` carrying
    /// the shared evaluation seed [`EVAL_PRESENTATION_SEED_BASE`]` | i`.
    pub fn from_dataset(test: &Dataset) -> RequestSlab {
        let mut slab = RequestSlab::new(test.input_dim(), test.num_classes());
        slab.pixels.reserve(slab.stride * test.len());
        for (i, s) in test.iter().enumerate() {
            slab.pixels.extend_from_slice(&s.pixels);
            slab.labels.push(s.label);
            slab.seeds
                .push(EVAL_PRESENTATION_SEED_BASE | u64::try_from(i).unwrap_or(u64::MAX));
        }
        slab
    }

    /// Appends one image with its presentation seed and (possibly
    /// unknown, conventionally 0) ground-truth label, returning its
    /// position in the slab.
    ///
    /// # Errors
    ///
    /// [`ModelError::GeometryMismatch`] when `pixels.len()` is not the
    /// slab's stride.
    pub fn push(&mut self, pixels: &[u8], seed: u64, label: usize) -> Result<usize, ModelError> {
        if pixels.len() != self.stride {
            return Err(ModelError::GeometryMismatch {
                expected: self.stride,
                got: pixels.len(),
            });
        }
        self.pixels.extend_from_slice(pixels);
        self.seeds.push(seed);
        self.labels.push(label);
        Ok(self.seeds.len() - 1)
    }

    /// Keeps only the items `keep` accepts (called once per item with
    /// its position, in order), closing the gaps so the kept items stay
    /// in order with their seeds and labels.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let stride = self.stride;
        let mut kept = 0;
        for k in 0..self.len() {
            if keep(k) {
                self.pixels
                    .copy_within(k * stride..(k + 1) * stride, kept * stride);
                self.seeds[kept] = self.seeds[k];
                self.labels[kept] = self.labels[k];
                kept += 1;
            }
        }
        self.pixels.truncate(kept * stride);
        self.seeds.truncate(kept);
        self.labels.truncate(kept);
    }

    /// Number of images pushed.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no image has been pushed.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The batch view over the slab, with every item carrying its seed.
    pub fn batch(&self) -> EvalBatch<'_> {
        EvalBatch {
            pixels: &self.pixels,
            labels: &self.labels,
            seeds: &self.seeds,
            stride: self.stride,
            num_classes: self.num_classes,
        }
    }
}

/// A borrowed, contiguous view of evaluation work: `len()` images of
/// same-length pixel rows back to back in one slab, each with its label and
/// its presentation seed. This is the unit the batched kernel layer
/// consumes — one slab, one weight pass — and what
/// [`Model::predict_batch`]/[`Model::evaluate_batch`] take instead of a
/// `&Dataset`.
///
/// Every item carries the seed its [`RequestSlab`] holds for it (for a
/// dataset, [`EVAL_PRESENTATION_SEED_BASE`]` | i` at position `i`; for a
/// coalesced serving batch, the seed of each request's stream item).
/// [`EvalBatch::tiles`] slices the seeds alongside the pixels and
/// labels, so splitting a batch into kernel-sized tiles changes nothing
/// about which seed any image sees.
#[derive(Debug, Clone, Copy)]
pub struct EvalBatch<'a> {
    pixels: &'a [u8],
    labels: &'a [usize],
    seeds: &'a [u64],
    stride: usize,
    num_classes: usize,
}

impl<'a> EvalBatch<'a> {
    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch holds no images.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of label classes (the confusion-matrix dimension).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The whole contiguous pixel slab, `len()` images of equal length.
    pub fn pixels(&self) -> &'a [u8] {
        self.pixels
    }

    /// Image `i`'s pixels.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn item(&self, i: usize) -> &'a [u8] {
        &self.pixels[i * self.stride..(i + 1) * self.stride]
    }

    /// Image `i`'s ground-truth label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Image `i`'s presentation seed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn seed(&self, i: usize) -> u64 {
        self.seeds[i]
    }

    /// Splits the batch into consecutive sub-batches of at most `tile`
    /// images each, preserving every item's seed and label.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    pub fn tiles(&self, tile: usize) -> impl Iterator<Item = EvalBatch<'a>> + '_ {
        assert!(tile > 0, "tile size must be positive");
        let stride = self.stride;
        let num_classes = self.num_classes;
        self.pixels
            .chunks(stride.max(1) * tile)
            .zip(self.labels.chunks(tile))
            .zip(self.seeds.chunks(tile))
            .map(move |((pixels, labels), seeds)| EvalBatch {
                pixels,
                labels,
                seeds,
                stride,
                num_classes,
            })
    }
}

/// A classifier that can be trained on a [`Dataset`] and scored on
/// another — the unit of work the experiment engine schedules.
///
/// `evaluate` and `predict` take `&mut self` because the temporal SNN
/// advances its presentation RNG while classifying and the hardware-path
/// models reuse internal scratch buffers; pure feed-forward models
/// simply ignore the mutability.
pub trait Model: Send {
    /// Display name, matching the paper's Table 3 row labels.
    fn name(&self) -> &'static str;

    /// Trains on `train` within `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the dataset is empty, its geometry does
    /// not match the model, or the instance is a deployment artifact
    /// that cannot be retrained.
    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError>;

    /// Like [`Model::fit`], reporting per-epoch training metrics (and
    /// any family-specific counters) to `recorder`. The default ignores
    /// the recorder, so implementing it is opt-in per model family; the
    /// experiment engine always calls this variant.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::fit`].
    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), ModelError> {
        let _ = recorder;
        self.fit(train, budget)
    }

    /// Scores on `test`, producing the shared confusion matrix: the
    /// whole set as one [`RequestSlab::from_dataset`] slab through
    /// [`Model::evaluate_batch`], the path the experiment engine scores
    /// through, so every caller gets the same predictions and seeds.
    ///
    /// # Panics
    ///
    /// Panics if `test`'s geometry does not match the model's input
    /// width (through [`Model::predict`]'s contract).
    fn evaluate(&mut self, test: &Dataset) -> Confusion {
        self.evaluate_batch(&RequestSlab::from_dataset(test).batch())
    }

    /// Classifies one image. `presentation_seed` drives any
    /// per-presentation stochasticity (the temporal SNN's spike trains
    /// and readout tie-breaks); deterministic feed-forward models ignore
    /// it.
    ///
    /// # Panics
    ///
    /// Implementations panic if `pixels.len()` does not match the
    /// model's input width.
    fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize;

    /// Classifies every image of `batch` in order into `out` (cleared
    /// first, so a reused buffer allocates nothing once grown). Each
    /// image is presented with its [`EvalBatch::seed`], the same stream
    /// [`Model::evaluate_batch`] scores.
    ///
    /// The default drives [`Model::predict`] one image at a time, which
    /// keeps every family correct before it is ported; batched models
    /// override this to run the slab through kernel-sized tiles.
    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(batch.len());
        for i in 0..batch.len() {
            out.push(self.predict(batch.item(i), batch.seed(i)));
        }
    }

    /// Scores `batch` through the batched prediction path, producing
    /// the shared confusion matrix. The default delegates to
    /// [`Model::predict_batch`], so overriding that single method is
    /// enough to batch both entry points; the experiment engine always
    /// scores through this one.
    fn evaluate_batch(&mut self, batch: &EvalBatch<'_>) -> Confusion {
        let mut predictions = Vec::new();
        self.predict_batch(batch, &mut predictions);
        let mut confusion = Confusion::new(batch.num_classes());
        for (i, &p) in predictions.iter().enumerate() {
            confusion.record(batch.label(i), p);
        }
        confusion
    }

    /// Injects a hardware fault into the model's deployed state
    /// (typically after [`Model::fit`], before [`Model::evaluate`]).
    /// Injection is deterministic: the same plan on the same trained
    /// state yields the same faulty model on any thread count.
    ///
    /// The default rejects every fault — models opt in per fault kind,
    /// because each fault targets a specific physical substrate (weight
    /// SRAM, neuron circuits, read ports, spike generators).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFaultPlan`] when the plan's rate is outside
    /// `[0, 1]`, [`ModelError::FaultUnsupported`] when the model has no
    /// substrate for the plan's fault kind.
    fn inject(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        Err(ModelError::FaultUnsupported {
            model: self.name(),
            fault: plan.model.name(),
        })
    }
}

/// Validates the common preconditions shared by every `fit`
/// implementation.
///
/// # Errors
///
/// Returns [`ModelError::EmptyDataset`] or
/// [`ModelError::GeometryMismatch`].
pub fn check_fit_inputs(train: &Dataset, expected_inputs: usize) -> Result<(), ModelError> {
    if train.is_empty() {
        return Err(ModelError::EmptyDataset);
    }
    if train.input_dim() != expected_inputs {
        return Err(ModelError::GeometryMismatch {
            expected: expected_inputs,
            got: train.input_dim(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn tiny_dataset() -> Dataset {
        Dataset::from_samples(
            2,
            2,
            2,
            vec![Sample {
                pixels: vec![0; 4],
                label: 1,
            }],
        )
        .unwrap()
    }

    #[test]
    fn check_rejects_empty() {
        let ds = Dataset::from_samples(2, 2, 2, vec![]).unwrap();
        assert_eq!(check_fit_inputs(&ds, 4), Err(ModelError::EmptyDataset));
    }

    #[test]
    fn check_rejects_geometry_mismatch() {
        assert_eq!(
            check_fit_inputs(&tiny_dataset(), 9),
            Err(ModelError::GeometryMismatch {
                expected: 9,
                got: 4
            })
        );
    }

    #[test]
    fn check_accepts_matching_geometry() {
        assert_eq!(check_fit_inputs(&tiny_dataset(), 4), Ok(()));
    }

    #[test]
    fn errors_display_is_nonempty() {
        for e in [
            ModelError::EmptyDataset,
            ModelError::GeometryMismatch {
                expected: 1,
                got: 2,
            },
            ModelError::NotTrainable {
                model: "x",
                reason: "y",
            },
            ModelError::FaultUnsupported {
                model: "x",
                fault: "stuck_at_0",
            },
            ModelError::InvalidFaultPlan {
                reason: "rate".to_string(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn batch_defaults_follow_the_shared_seed_convention() {
        struct SeedEcho {
            seen: Vec<u64>,
        }
        impl Model for SeedEcho {
            fn name(&self) -> &'static str {
                "seed-echo"
            }
            fn fit(&mut self, _: &Dataset, _: &FitBudget) -> Result<(), ModelError> {
                Ok(())
            }
            fn predict(&mut self, _: &[u8], presentation_seed: u64) -> usize {
                self.seen.push(presentation_seed);
                0
            }
        }
        let ds = Dataset::from_samples(
            2,
            2,
            2,
            vec![
                Sample {
                    pixels: vec![0; 4],
                    label: 1,
                },
                Sample {
                    pixels: vec![255; 4],
                    label: 0,
                },
            ],
        )
        .unwrap();
        let mut model = SeedEcho { seen: Vec::new() };
        let slab = RequestSlab::from_dataset(&ds);
        let mut out = Vec::new();
        model.predict_batch(&slab.batch(), &mut out);
        assert_eq!(out, vec![0, 0]);
        let confusion = model.evaluate_batch(&slab.batch());
        assert_eq!(confusion.total(), 2);
        assert_eq!(
            model.seen,
            vec![
                EVAL_PRESENTATION_SEED_BASE,
                EVAL_PRESENTATION_SEED_BASE | 1,
                EVAL_PRESENTATION_SEED_BASE,
                EVAL_PRESENTATION_SEED_BASE | 1,
            ]
        );
    }

    #[test]
    fn slab_views_are_contiguous_and_tiles_preserve_seeds() {
        let ds = Dataset::from_samples(
            2,
            2,
            3,
            (0..5u8)
                .map(|i| Sample {
                    pixels: vec![i; 4],
                    label: usize::from(i) % 3,
                })
                .collect(),
        )
        .unwrap();
        let slab = RequestSlab::from_dataset(&ds);
        let batch = slab.batch();
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.item(0).len(), 4);
        assert_eq!(batch.num_classes(), 3);
        assert_eq!(batch.pixels().len(), 20);
        for i in 0..5 {
            assert_eq!(batch.item(i), &[u8::try_from(i).unwrap(); 4]);
            assert_eq!(batch.label(i), i % 3);
            assert_eq!(
                batch.seed(i),
                EVAL_PRESENTATION_SEED_BASE | u64::try_from(i).unwrap()
            );
        }
        // Tiling into twos: items keep their global seeds and labels.
        let tiles: Vec<_> = batch.tiles(2).collect();
        assert_eq!(
            tiles.iter().map(EvalBatch::len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(tiles[1].item(1), batch.item(3));
        assert_eq!(tiles[1].seed(1), batch.seed(3));
        assert_eq!(tiles[2].label(0), batch.label(4));
        assert_eq!(tiles[2].seed(0), batch.seed(4));
    }

    #[test]
    fn request_slab_carries_explicit_seeds_through_tiles() {
        let mut slab = RequestSlab::new(4, 3);
        assert!(slab.is_empty());
        // Items pushed out of stream order: seeds follow the item, not
        // the batch position.
        for (i, item) in [4u64, 0, 2, 3, 1].iter().enumerate() {
            let pos = slab
                .push(
                    &[u8::try_from(i).unwrap(); 4],
                    EVAL_PRESENTATION_SEED_BASE | item,
                    usize::try_from(*item).unwrap() % 3,
                )
                .unwrap();
            assert_eq!(pos, i);
        }
        assert_eq!(slab.len(), 5);
        let batch = slab.batch();
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.item(0).len(), 4);
        assert_eq!(batch.num_classes(), 3);
        assert_eq!(batch.seed(0), EVAL_PRESENTATION_SEED_BASE | 4);
        assert_eq!(batch.seed(4), EVAL_PRESENTATION_SEED_BASE | 1);
        assert_eq!(batch.item(2), &[2u8; 4]);
        assert_eq!(batch.label(3), 0);
        // Tiling slices the seed table alongside the pixels.
        let tiles: Vec<_> = batch.tiles(2).collect();
        assert_eq!(
            tiles.iter().map(EvalBatch::len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(tiles[1].seed(0), batch.seed(2));
        assert_eq!(tiles[1].seed(1), batch.seed(3));
        assert_eq!(tiles[2].seed(0), batch.seed(4));
        assert_eq!(tiles[2].item(0), batch.item(4));
    }

    #[test]
    fn request_slab_rejects_geometry_mismatch() {
        let mut slab = RequestSlab::new(4, 2);
        assert_eq!(
            slab.push(&[0; 3], 7, 0),
            Err(ModelError::GeometryMismatch {
                expected: 4,
                got: 3
            })
        );
        assert!(slab.is_empty());
    }

    #[test]
    fn fault_errors_convert_into_model_errors() {
        let err: ModelError = nc_faults::FaultError::BadRate(2.0).into();
        assert!(matches!(err, ModelError::InvalidFaultPlan { .. }));
        assert!(err.to_string().contains("invalid fault plan"));
    }

    #[test]
    fn default_inject_rejects_every_fault() {
        struct Stub;
        impl Model for Stub {
            fn name(&self) -> &'static str {
                "stub"
            }
            fn fit(&mut self, _: &Dataset, _: &FitBudget) -> Result<(), ModelError> {
                Ok(())
            }
            fn predict(&mut self, _: &[u8], _: u64) -> usize {
                0
            }
        }
        let mut stub = Stub;
        let plan = FaultPlan::new(nc_faults::FaultModel::StuckAt0, 0.5, 1).expect("valid plan");
        assert_eq!(
            stub.inject(&plan),
            Err(ModelError::FaultUnsupported {
                model: "stub",
                fault: "stuck_at_0",
            })
        );
        let bad = FaultPlan {
            model: nc_faults::FaultModel::StuckAt0,
            rate: 7.0,
            seed: 0,
        };
        assert!(matches!(
            stub.inject(&bad),
            Err(ModelError::InvalidFaultPlan { .. })
        ));
    }
}
