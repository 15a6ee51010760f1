//! [`Model`] implementations for the neuroscience side of the
//! comparison: SNN+STDP through the full LIF readout (SNNwt) and the
//! timing-free SNNwot readout, plus the SNN+BP diagnostic hybrid —
//! scheduled as independent jobs by the experiment engine.

use crate::bp_hybrid::{BpSnn, BpSnnConfig, Scratch};
use crate::network::SnnNetwork;
use crate::wot::WotSnn;
use nc_dataset::model::{check_fit_inputs, EvalBatch, FitBudget, Model, ModelError};
use nc_dataset::Dataset;
use nc_faults::FaultPlan;
use nc_obs::{Recorder, Span};

impl Model for SnnNetwork {
    fn name(&self) -> &'static str {
        "SNN+STDP - LIF (SNNwt)"
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
        check_fit_inputs(train, self.inputs())?;
        self.set_stdp_delta(budget.stdp_delta);
        {
            let _span = Span::enter(recorder, "snn.train_stdp");
            self.train_stdp_observed(train, budget.stdp_epochs, recorder);
        }
        let _span = Span::enter(recorder, "snn.self_label");
        self.self_label(train);
        Ok(())
    }

    fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        SnnNetwork::predict(self, pixels, presentation_seed)
    }

    fn inject(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        self.apply_fault(plan)
    }
}

impl Model for WotSnn {
    fn name(&self) -> &'static str {
        "SNN+STDP - Simplified (SNNwot)"
    }

    /// Trains the temporal master (same seed → same weights as training
    /// a standalone [`SnnNetwork`]) and re-extracts the timing-free
    /// engine, reproducing the paper's train-then-simplify pipeline bit
    /// for bit.
    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError> {
        self.fit_observed(train, budget, nc_obs::null())
    }

    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), ModelError> {
        let spec = self.master_spec().ok_or(ModelError::NotTrainable {
            model: "SNN+STDP - Simplified (SNNwot)",
            reason: "built with from_network; use WotSnn::untrained for a trainable instance",
        })?;
        check_fit_inputs(train, spec.inputs)?;
        let mut master = SnnNetwork::new(spec.inputs, spec.classes, spec.params, spec.seed);
        master.set_stdp_delta(budget.stdp_delta);
        master.train_stdp_observed(train, budget.stdp_epochs, recorder);
        master.self_label(train);
        self.redeploy_from(&master);
        recorder.add("snn.wot_redeployments", 1);
        Ok(())
    }

    fn predict(&mut self, pixels: &[u8], _presentation_seed: u64) -> usize {
        WotSnn::predict(self, pixels)
    }

    fn inject(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        self.apply_fault(plan)
    }
}

impl Model for BpSnn {
    fn name(&self) -> &'static str {
        "SNN+BP"
    }

    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError> {
        Model::fit_observed(self, train, budget, nc_obs::null())
    }

    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), ModelError> {
        check_fit_inputs(train, self.inputs())?;
        let mut config = BpSnnConfig {
            epochs: budget.epochs,
            ..BpSnnConfig::default()
        };
        if let Some(lr) = budget.learning_rate {
            config.learning_rate = lr;
        }
        BpSnn::fit_observed(self, train, &config, recorder);
        Ok(())
    }

    fn predict(&mut self, pixels: &[u8], _presentation_seed: u64) -> usize {
        BpSnn::predict(self, pixels)
    }

    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(batch.len());
        let mut scratch = Scratch::default();
        for i in 0..batch.len() {
            out.push(self.predict_with(batch.item(i), &mut scratch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SnnParams;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn data() -> (Dataset, Dataset) {
        DigitsSpec {
            train: 60,
            test: 20,
            seed: 11,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    fn budget() -> FitBudget {
        FitBudget {
            epochs: 2,
            stdp_epochs: 1,
            stdp_delta: 8,
            learning_rate: None,
        }
    }

    #[test]
    fn all_three_snn_variants_run_through_the_trait() {
        let (train, test) = data();
        let mut models: Vec<Box<dyn Model>> = vec![
            Box::new(SnnNetwork::new(784, 10, SnnParams::for_neurons(10), 3)),
            Box::new(WotSnn::untrained(784, 10, SnnParams::for_neurons(10), 3)),
            Box::new(BpSnn::new(784, 10, SnnParams::for_neurons(10), 3)),
        ];
        for model in &mut models {
            model.fit(&train, &budget()).unwrap();
            assert_eq!(model.evaluate(&test).total(), 20, "{}", model.name());
        }
    }

    #[test]
    fn trait_fit_matches_manual_train_then_simplify() {
        let (train, test) = data();

        // The old sequential pipeline: train a temporal SNN, extract wot.
        let mut master = SnnNetwork::new(784, 10, SnnParams::for_neurons(10), 7);
        master.set_stdp_delta(8);
        master.train_stdp(&train, 1);
        master.self_label(&train);
        let mut reference = WotSnn::from_network(&master);

        // The unified-API pipeline with the same seed and budget.
        let mut wot = WotSnn::untrained(784, 10, SnnParams::for_neurons(10), 7);
        Model::fit(&mut wot, &train, &budget()).unwrap();

        assert_eq!(wot.weights(), reference.weights());
        assert_eq!(
            Model::evaluate(&mut wot, &test).accuracy(),
            Model::evaluate(&mut reference, &test).accuracy()
        );
    }

    #[test]
    fn deployment_artifact_refuses_fit() {
        let (train, _) = data();
        let master = SnnNetwork::new(784, 10, SnnParams::for_neurons(4), 1);
        let mut wot = WotSnn::from_network(&master);
        assert!(matches!(
            Model::fit(&mut wot, &train, &budget()),
            Err(ModelError::NotTrainable { .. })
        ));
    }

    #[test]
    fn geometry_mismatch_is_reported() {
        let (train, _) = data();
        let mut snn = SnnNetwork::new(169, 10, SnnParams::for_neurons(4), 1);
        assert!(matches!(
            Model::fit(&mut snn, &train, &budget()),
            Err(ModelError::GeometryMismatch {
                expected: 169,
                got: 784
            })
        ));
    }

    // WotSnn's fault tests live here rather than in `wot.rs` because the
    // plans carry float rates and `wot.rs` is an R1 datapath file.

    #[test]
    fn wot_stuck_at_zero_full_rate_clears_the_sram() {
        use nc_faults::FaultModel;
        let master = SnnNetwork::new(16, 2, SnnParams::for_neurons(4), 1);
        let mut wot = WotSnn::from_network(&master);
        Model::inject(
            &mut wot,
            &FaultPlan::new(FaultModel::StuckAt0, 1.0, 0).unwrap(),
        )
        .unwrap();
        assert!(wot.weights().iter().all(|&w| w == 0));
    }

    #[test]
    fn wot_dead_neurons_zero_whole_rows() {
        use nc_faults::FaultModel;
        let master = SnnNetwork::new(16, 2, SnnParams::for_neurons(6), 1);
        let mut wot = WotSnn::from_network(&master);
        let before = wot.weights().to_vec();
        Model::inject(
            &mut wot,
            &FaultPlan::new(FaultModel::DeadNeuron, 0.5, 21).unwrap(),
        )
        .unwrap();
        let inputs = wot.inputs();
        let mut dead_rows = 0;
        for j in 0..wot.neurons() {
            let row = &wot.weights()[j * inputs..(j + 1) * inputs];
            if row.iter().all(|&w| w == 0) {
                dead_rows += 1;
            } else {
                assert_eq!(row, &before[j * inputs..(j + 1) * inputs], "row {j}");
            }
        }
        assert!(dead_rows > 0, "a 50% plan over 6 neurons should kill some");
        assert!(dead_rows < 6, "and spare some");
    }

    #[test]
    fn wot_transient_reads_perturb_potentials_but_not_storage() {
        use nc_faults::FaultModel;
        let master = SnnNetwork::new(16, 2, SnnParams::for_neurons(4), 1);
        let mut wot = WotSnn::from_network(&master);
        let healthy_weights = wot.weights().to_vec();
        let healthy = wot.potentials(&[200u8; 16]);
        Model::inject(
            &mut wot,
            &FaultPlan::new(FaultModel::TransientRead, 1.0, 5).unwrap(),
        )
        .unwrap();
        let faulty = wot.potentials(&[200u8; 16]);
        assert_eq!(wot.weights(), healthy_weights);
        assert_ne!(healthy, faulty);
    }

    #[test]
    fn wot_rejects_generator_faults() {
        use nc_faults::FaultModel;
        let master = SnnNetwork::new(16, 2, SnnParams::for_neurons(4), 1);
        let mut wot = WotSnn::from_network(&master);
        assert!(matches!(
            Model::inject(
                &mut wot,
                &FaultPlan::new(FaultModel::StuckLfsrTap, 0.5, 0).unwrap()
            ),
            Err(ModelError::FaultUnsupported { .. })
        ));
    }

    #[test]
    fn bp_hybrid_inherits_the_default_rejection() {
        use nc_faults::FaultModel;
        let mut bp = BpSnn::new(16, 2, SnnParams::for_neurons(4), 1);
        assert!(matches!(
            Model::inject(
                &mut bp,
                &FaultPlan::new(FaultModel::StuckAt0, 0.1, 0).unwrap()
            ),
            Err(ModelError::FaultUnsupported {
                model: "SNN+BP",
                ..
            })
        ));
    }
}
