//! [`Model`] implementations for the machine-learning side of the
//! comparison: the floating-point MLP+BP and its 8-bit fixed-point
//! deployment, scheduled as independent jobs by the experiment engine.

use crate::metrics;
use crate::network::{ForwardScratch, Mlp};
use crate::quant::QuantizedMlp;
use crate::trainer::{TrainConfig, Trainer};
use nc_dataset::model::{check_fit_inputs, EvalBatch, FitBudget, Model, ModelError};
use nc_dataset::Dataset;
use nc_faults::{dead_unit_mask, FaultModel, FaultPlan};
use nc_obs::Recorder;
use nc_substrate::stats::Confusion;

fn train_config(budget: &FitBudget) -> TrainConfig {
    let mut config = TrainConfig {
        epochs: budget.epochs,
        ..TrainConfig::default()
    };
    if let Some(lr) = budget.learning_rate {
        config.learning_rate = lr;
    }
    config
}

impl Model for Mlp {
    fn name(&self) -> &'static str {
        "MLP+BP"
    }

    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError> {
        self.fit_observed(train, budget, nc_obs::null())
    }

    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), ModelError> {
        check_fit_inputs(train, self.sizes()[0])?;
        Trainer::new(train_config(budget)).fit_observed(self, train, recorder);
        Ok(())
    }

    fn evaluate(&mut self, test: &Dataset) -> Confusion {
        metrics::evaluate(self, test)
    }

    fn predict(&mut self, pixels: &[u8], _presentation_seed: u64) -> usize {
        self.predict_pixels(pixels, &mut ForwardScratch::default())
    }

    /// One scratch for the whole batch: after the first image, the
    /// forward pass allocates nothing.
    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(batch.len());
        let mut scratch = ForwardScratch::default();
        for i in 0..batch.len() {
            out.push(self.predict_pixels(batch.item(i), &mut scratch));
        }
    }

    /// The float reference has no 8-bit SRAM, read port, or spike
    /// generators, so only `DeadNeuron` (zeroed hidden units) applies.
    /// The dead-unit selection matches [`QuantizedMlp`]'s for the same
    /// plan and topology, so float-vs-quantized fault ladders compare
    /// identical defect patterns.
    fn inject(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        match plan.model {
            FaultModel::DeadNeuron => {
                let sizes = self.sizes().to_vec();
                for l in 1..sizes.len() - 1 {
                    let salt = u64::try_from(l).unwrap_or(u64::MAX);
                    let dead = dead_unit_mask(sizes[l], &plan.for_site(salt));
                    let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
                    let next = self.layer_weights_mut(l);
                    for (unit, &is_dead) in dead.iter().enumerate() {
                        if is_dead {
                            for j in 0..fan_out {
                                next[j * (fan_in + 1) + unit] = 0.0;
                            }
                        }
                    }
                }
                Ok(())
            }
            // Routing-fabric faults live in the mesh substrate (nc-hw);
            // a single-core reference has no links or routers to break.
            FaultModel::DeadLink | FaultModel::DeadRouter => Ok(()),
            _ => Err(ModelError::FaultUnsupported {
                model: "MLP+BP",
                fault: plan.model.name(),
            }),
        }
    }
}

impl Model for QuantizedMlp {
    fn name(&self) -> &'static str {
        "MLP+BP (8-bit fixed point)"
    }

    /// Trains the float master (same seed → same weights as training a
    /// standalone [`Mlp`]) and re-quantizes, reproducing the paper's
    /// train-then-quantize pipeline bit for bit.
    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError> {
        self.fit_observed(train, budget, nc_obs::null())
    }

    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), ModelError> {
        check_fit_inputs(train, self.sizes()[0])?;
        let seed = self.master_seed().ok_or(ModelError::NotTrainable {
            model: "MLP+BP (8-bit fixed point)",
            reason: "built with from_mlp; use QuantizedMlp::untrained for a trainable instance",
        })?;
        let mut master = Mlp::new(self.sizes(), self.activation(), seed)
            // nc-lint: allow(R5, reason = "QuantizedMlp::untrained already validated this topology")
            .expect("topology was validated by QuantizedMlp::untrained");
        Trainer::new(train_config(budget)).fit_observed(&mut master, train, recorder);
        self.requantize_from(&master);
        recorder.add("mlp.requantizations", 1);
        Ok(())
    }

    fn evaluate(&mut self, test: &Dataset) -> Confusion {
        metrics::evaluate_quantized(self, test)
    }

    fn predict(&mut self, pixels: &[u8], _presentation_seed: u64) -> usize {
        self.predict_u8(pixels)
    }

    /// Batched inference through the GEMM kernel: the slab is consumed
    /// in kernel-sized tiles, bit-identical to the serial default (the
    /// GEMM is bit-identical to the column-wise GEMV). With a
    /// transient-read fault armed the serial path is kept — its
    /// per-read RNG stream makes read order part of the semantics.
    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        out.clear();
        if self.has_transient_faults() {
            for i in 0..batch.len() {
                out.push(self.predict_u8(batch.item(i)));
            }
            return;
        }
        out.reserve(batch.len());
        for tile in batch.tiles(BATCH_TILE) {
            self.predict_batch_u8(tile.pixels(), tile.len(), out);
        }
    }

    fn inject(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        self.apply_fault(plan)
    }
}

/// Images per evaluation tile on the batched paths: large enough that a
/// weight pass amortizes over many presentations, small enough that the
/// activation scratch slab stays cache-resident.
const BATCH_TILE: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn data() -> (Dataset, Dataset) {
        DigitsSpec {
            train: 80,
            test: 30,
            seed: 9,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    fn budget() -> FitBudget {
        FitBudget {
            epochs: 2,
            ..FitBudget::default()
        }
    }

    #[test]
    fn mlp_fits_and_evaluates_through_the_trait() {
        let (train, test) = data();
        let mut mlp = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 1).unwrap();
        let model: &mut dyn Model = &mut mlp;
        assert_eq!(model.name(), "MLP+BP");
        model.fit(&train, &budget()).unwrap();
        assert_eq!(model.evaluate(&test).total(), 30);
    }

    #[test]
    fn trait_fit_matches_manual_train_then_quantize() {
        let (train, test) = data();

        // The old sequential pipeline: train a float MLP, quantize it.
        let mut master = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 5).unwrap();
        Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&mut master, &train);
        let mut reference = QuantizedMlp::from_mlp(&master);

        // The unified-API pipeline with the same seed and budget.
        let mut q = QuantizedMlp::untrained(&[784, 8, 10], Activation::sigmoid(), 5).unwrap();
        Model::fit(&mut q, &train, &budget()).unwrap();

        assert_eq!(
            Model::evaluate(&mut q, &test).accuracy(),
            metrics::evaluate_quantized(&mut reference, &test).accuracy()
        );
        for l in 0..2 {
            assert_eq!(q.layer_weights(l), reference.layer_weights(l), "layer {l}");
        }
    }

    #[test]
    fn deployment_artifact_refuses_fit() {
        let (train, _) = data();
        let master = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 5).unwrap();
        let mut q = QuantizedMlp::from_mlp(&master);
        assert!(matches!(
            Model::fit(&mut q, &train, &budget()),
            Err(ModelError::NotTrainable { .. })
        ));
    }

    #[test]
    fn float_and_quantized_dead_neurons_match() {
        let (train, test) = data();
        let mut mlp = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 3).unwrap();
        Model::fit(&mut mlp, &train, &budget()).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let plan = FaultPlan::new(FaultModel::DeadNeuron, 0.5, 11).unwrap();
        Model::inject(&mut mlp, &plan).unwrap();
        Model::inject(&mut q, &plan).unwrap();
        // Same plan kills the same hidden units in both deployments:
        // a unit whose float outgoing column is zero must also have a
        // zero quantized outgoing column.
        let fan_in = 8;
        for unit in 0..fan_in {
            let float_dead = (0..10).all(|j| mlp.layer_weights(1)[j * (fan_in + 1) + unit] == 0.0);
            let quant_dead = (0..10).all(|j| q.layer_weights(1)[j * (fan_in + 1) + unit] == 0);
            assert_eq!(float_dead, quant_dead, "unit {unit}");
        }
        // Both still evaluate end to end.
        assert_eq!(Model::evaluate(&mut mlp, &test).total(), 30);
        assert_eq!(Model::evaluate(&mut q, &test).total(), 30);
    }

    #[test]
    fn float_mlp_rejects_bit_level_faults() {
        let mut mlp = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 3).unwrap();
        for fault in [
            FaultModel::StuckAt0,
            FaultModel::StuckAt1,
            FaultModel::TransientRead,
            FaultModel::StuckLfsrTap,
        ] {
            let plan = FaultPlan::new(fault, 0.1, 0).unwrap();
            assert!(
                matches!(
                    Model::inject(&mut mlp, &plan),
                    Err(ModelError::FaultUnsupported {
                        model: "MLP+BP",
                        ..
                    })
                ),
                "{fault}"
            );
        }
    }

    #[test]
    fn geometry_mismatch_is_reported() {
        let (train, _) = data();
        let mut mlp = Mlp::new(&[100, 8, 10], Activation::sigmoid(), 1).unwrap();
        assert!(matches!(
            Model::fit(&mut mlp, &train, &budget()),
            Err(ModelError::GeometryMismatch {
                expected: 100,
                got: 784
            })
        ));
    }
}
