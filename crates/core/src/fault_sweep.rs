//! Hardware fault injection: accuracy-vs-fault-rate ladders (extension).
//!
//! The paper argues for accelerators as *deployed silicon*; deployed
//! silicon has defects. This experiment measures how gracefully each
//! accelerator family degrades when its quantized state is damaged:
//! stuck-at bits in the 8-bit weight SRAMs, dead neurons, transient
//! read upsets, and stuck LFSR taps in the spike-interval generators
//! (see `nc-faults` and DESIGN.md "Fault model").
//!
//! Each `(family, fault model, rate)` cell is one independent job:
//! build → fit → inject (with a seed derived from the sweep seed and
//! the cell's grid position) → evaluate. Jobs run under
//! [`Engine::run_jobs_supervised`], so a pathological cell that panics
//! is contained and reported as a typed error instead of taking the
//! whole sweep down. Unsupported combinations (e.g. a stuck generator
//! tap on the timing-free SNNwot) are skipped at grid construction.

use crate::engine::{Engine, Experiment, Job, ModelSpec, Supervision};
use crate::error::Error;
use crate::experiment::{ExperimentScale, Workload};
use nc_dataset::FitBudget;
use nc_faults::{FaultModel, FaultPlan};
use nc_mlp::Activation;
use nc_snn::SnnParams;
use nc_substrate::rng::SplitMix64;
use std::sync::Arc;

/// One cell of the fault sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPoint {
    /// The model family's display name.
    pub family: &'static str,
    /// The injected fault model.
    pub fault: FaultModel,
    /// The fault rate in `[0, 1]`.
    pub rate: f64,
    /// Test accuracy after injection.
    pub accuracy: f64,
}

/// The fault-injection sweep as an engine experiment (see the module
/// docs). The three deployed families — the 8-bit MLP, the temporal
/// SNN and the timing-free SNNwot — each walk the full
/// `(fault model, rate)` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweep {
    /// Workload under test.
    pub workload: Workload,
    /// Pinned scale; `None` defers to the engine's scale.
    pub scale: Option<ExperimentScale>,
    /// Fault models to inject.
    pub models: Vec<FaultModel>,
    /// Fault rates, each in `[0, 1]`; include `0.0` for a baseline row.
    pub rates: Vec<f64>,
    /// MLP hidden-layer width.
    pub mlp_hidden: usize,
    /// SNN layer size.
    pub snn_neurons: usize,
    /// Root seed: initialization seeds and per-cell injection seeds are
    /// derived from it.
    pub seed: u64,
}

impl FaultSweep {
    /// The default grid: every fault model over a baseline-to-severe
    /// rate ladder.
    pub fn standard(workload: Workload) -> Self {
        FaultSweep {
            workload,
            scale: None,
            models: vec![
                FaultModel::StuckAt0,
                FaultModel::StuckAt1,
                FaultModel::DeadNeuron,
                FaultModel::TransientRead,
                FaultModel::StuckLfsrTap,
            ],
            rates: vec![0.0, 0.01, 0.05, 0.2],
            mlp_hidden: 20,
            snn_neurons: 50,
            seed: 0xFA_017,
        }
    }

    /// Whether a family (by [`ModelSpec`]) has a substrate for a fault
    /// model — unsupported cells are skipped rather than scheduled.
    fn supports(spec: &ModelSpec, fault: FaultModel) -> bool {
        match fault {
            FaultModel::StuckLfsrTap => {
                // Only the temporal SNN drives LFSR-based generators at
                // inference time.
                matches!(spec, ModelSpec::Snn { .. })
            }
            // Routing-fabric faults only bite on the nc-hw mesh
            // substrate; every single-core family here would report an
            // unperturbed baseline, which is noise, not signal.
            FaultModel::DeadLink | FaultModel::DeadRouter => false,
            _ => true,
        }
    }

    /// The injection seed for one grid cell: a pure function of the
    /// sweep seed and the cell's position, so the grid is reproducible
    /// at any thread count and any grid traversal order.
    fn cell_seed(&self, family: u64, model: u64, rate: u64) -> u64 {
        let mut sm = SplitMix64::new(
            self.seed
                .wrapping_add(family.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(model.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(rate.wrapping_mul(0x94D0_49BB_1331_11EB)),
        );
        sm.next_u64()
    }
}

impl Experiment for FaultSweep {
    type Output = Vec<FaultPoint>;

    fn run(&self, engine: &Engine) -> Result<Vec<FaultPoint>, Error> {
        if self.models.is_empty() {
            return Err(Error::BadConfig(String::from(
                "fault sweep has no fault models",
            )));
        }
        if self.rates.is_empty() {
            return Err(Error::BadConfig(String::from(
                "fault sweep has no fault rates",
            )));
        }
        let scale = self.scale.unwrap_or_else(|| engine.scale());
        let data = engine.dataset_at(self.workload, scale);
        let (train, test) = (&data.0, &data.1);
        if train.is_empty() || test.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let (inputs, classes) = (train.input_dim(), train.num_classes());
        let params = SnnParams::tuned(self.snn_neurons);
        let families = [
            ModelSpec::QuantizedMlp {
                sizes: vec![inputs, self.mlp_hidden, classes],
                activation: Activation::sigmoid(),
                seed: self.seed,
            },
            ModelSpec::Snn {
                inputs,
                classes,
                params,
                seed: self.seed,
            },
            ModelSpec::Wot {
                inputs,
                classes,
                params,
                seed: self.seed,
            },
        ];

        let mut jobs: Vec<Job<(ModelSpec, FitBudget, FaultPlan)>> = Vec::new();
        let mut cells: Vec<(&'static str, FaultModel, f64)> = Vec::new();
        for (fi, spec) in (0u64..).zip(&families) {
            for (mi, &fault) in (0u64..).zip(&self.models) {
                if !Self::supports(spec, fault) {
                    continue;
                }
                for (ri, &rate) in (0u64..).zip(&self.rates) {
                    let plan = FaultPlan::new(fault, rate, self.cell_seed(fi, mi, ri))
                        .map_err(|e| Error::BadConfig(format!("fault sweep: {e}")))?;
                    let budget = spec.budget(scale);
                    let samples =
                        (train.len() * budget.epochs.max(budget.stdp_epochs) + test.len()) as u64;
                    jobs.push(Job::new(
                        format!(
                            "faults/{}/{}/{}/{rate}",
                            self.workload,
                            spec.display_name(),
                            fault
                        ),
                        samples,
                        (spec.clone(), budget, plan),
                    ));
                    cells.push((spec.display_name(), fault, rate));
                }
            }
        }

        let shared = Arc::clone(&data);
        let slab = Arc::new(nc_dataset::RequestSlab::from_dataset(&data.1));
        let recorder = engine.recorder_handle();
        let results = engine.run_jobs_supervised(
            jobs,
            Supervision::default(),
            move |(spec, budget, plan): &(ModelSpec, FitBudget, FaultPlan), _attempt| {
                let run = || -> Result<f64, Error> {
                    let mut model = spec.build()?;
                    model.fit_observed(&shared.0, budget, recorder.as_ref())?;
                    model.inject(plan)?;
                    recorder.add("engine.fault_injections", 1);
                    Ok(model.evaluate_batch(&slab.batch()).accuracy())
                };
                run()
            },
        );

        cells
            .into_iter()
            .zip(results)
            .map(|((family, fault, rate), outcome)| {
                let accuracy = outcome??;
                Ok(FaultPoint {
                    family,
                    fault,
                    rate,
                    accuracy,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> FaultSweep {
        FaultSweep {
            models: vec![FaultModel::StuckAt0, FaultModel::StuckLfsrTap],
            rates: vec![0.0, 1.0],
            mlp_hidden: 6,
            snn_neurons: 8,
            ..FaultSweep::standard(Workload::Shapes)
        }
    }

    #[test]
    fn grid_skips_unsupported_combos_and_keeps_the_rest() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let points = engine.run(&tiny_sweep()).unwrap();
        // 3 families × 2 rates for StuckAt0, but only the temporal SNN
        // runs StuckLfsrTap.
        assert_eq!(points.len(), 3 * 2 + 2);
        assert!(points
            .iter()
            .filter(|p| p.fault == FaultModel::StuckLfsrTap)
            .all(|p| p.family == "SNN+STDP - LIF (SNNwt)"));
    }

    #[test]
    fn fault_sweep_is_thread_count_invariant() {
        let sweep = tiny_sweep();
        let sequential = Engine::sequential(ExperimentScale::Tiny)
            .run(&sweep)
            .unwrap();
        let parallel = Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .build()
            .run(&sweep)
            .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn total_stuck_at_zero_destroys_every_family() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let points = engine.run(&tiny_sweep()).unwrap();
        for p in points.iter().filter(|p| p.fault == FaultModel::StuckAt0) {
            if p.rate == 1.0 {
                let baseline = points
                    .iter()
                    .find(|q| q.family == p.family && q.fault == p.fault && q.rate == 0.0)
                    .unwrap();
                assert!(
                    p.accuracy <= baseline.accuracy + 1e-12,
                    "{}: {} vs {}",
                    p.family,
                    p.accuracy,
                    baseline.accuracy
                );
            }
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let no_models = FaultSweep {
            models: vec![],
            ..FaultSweep::standard(Workload::Shapes)
        };
        assert!(matches!(engine.run(&no_models), Err(Error::BadConfig(_))));
        let no_rates = FaultSweep {
            rates: vec![],
            ..FaultSweep::standard(Workload::Shapes)
        };
        assert!(matches!(engine.run(&no_rates), Err(Error::BadConfig(_))));
        let bad_rate = FaultSweep {
            rates: vec![1.5],
            ..FaultSweep::standard(Workload::Shapes)
        };
        assert!(matches!(engine.run(&bad_rate), Err(Error::BadConfig(_))));
    }

    #[test]
    fn injections_are_reported_to_the_recorder() {
        let recorder = Arc::new(nc_obs::MemoryRecorder::new());
        let engine = Engine::builder()
            .threads(1)
            .scale(ExperimentScale::Tiny)
            .recorder(recorder.clone())
            .build();
        let points = engine.run(&tiny_sweep()).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counters.get("engine.fault_injections").copied(),
            Some(points.len() as u64)
        );
        assert!(
            !snap.epochs.is_empty(),
            "training epochs reach the recorder"
        );
    }
}
