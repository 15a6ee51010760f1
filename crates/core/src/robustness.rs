//! Input-noise robustness: an extension experiment the paper's framing
//! invites. The introduction motivates accelerators with "processing of
//! real-world input data", and a recurring claim for spike codes is
//! robustness to input noise. This sweep trains both models once on
//! clean(er) data, then evaluates them under increasing test-time pixel
//! noise — measuring which accelerator's accuracy degrades faster when
//! the sensor gets worse, without retraining.

use crate::engine::{Engine, Experiment, Job, ModelSpec};
use crate::error::Error;
use crate::experiment::{ExperimentScale, Workload};
use nc_dataset::Dataset;
use nc_mlp::Activation;
use nc_snn::SnnParams;
use nc_substrate::fixed::sat_u8_trunc;
use nc_substrate::rng::{noise_seed, SplitMix64};
use std::sync::Arc;

/// One point of the robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Added uniform test-time noise amplitude, in luminance units [0,1].
    pub noise: f64,
    /// MLP accuracy under this noise.
    pub mlp_accuracy: f64,
    /// SNN (STDP, LIF readout) accuracy.
    pub snn_accuracy: f64,
    /// SNNwot accuracy.
    pub wot_accuracy: f64,
}

/// Applies test-time uniform noise to every pixel of a dataset, with
/// deterministic seeding. Infallible: [`Dataset::map_pixels`] preserves
/// the source geometry by construction.
pub fn corrupt(data: &Dataset, noise: f64, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ 0x2015_CE50);
    data.map_pixels(|_, pixels| {
        for p in pixels.iter_mut() {
            let delta = rng.next_range(-noise, noise) * 255.0;
            *p = sat_u8_trunc(f64::from(*p) + delta);
        }
    })
}

/// The robustness sweep as an engine experiment: each model family is
/// one independent training job, and each trained model then walks the
/// noise ladder sequentially inside its own job (the SNN readout is
/// stateful across evaluations, so the ladder must not be split).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessSweep {
    /// Workload under test.
    pub workload: Workload,
    /// Pinned scale; `None` defers to the engine's scale.
    pub scale: Option<ExperimentScale>,
    /// Test-time noise amplitudes, in luminance units [0,1].
    pub noise_levels: Vec<f64>,
    /// MLP hidden-layer width.
    pub mlp_hidden: usize,
    /// SNN layer size.
    pub snn_neurons: usize,
    /// Shared initialization seed.
    pub seed: u64,
}

impl RobustnessSweep {
    /// The default ladder: clean through heavily corrupted input.
    pub fn standard(workload: Workload) -> Self {
        RobustnessSweep {
            workload,
            scale: None,
            noise_levels: vec![0.0, 0.1, 0.2, 0.4, 0.6],
            mlp_hidden: 20,
            snn_neurons: 50,
            seed: 0x2015_CE50,
        }
    }
}

impl Experiment for RobustnessSweep {
    type Output = Vec<RobustnessPoint>;

    fn run(&self, engine: &Engine) -> Result<Vec<RobustnessPoint>, Error> {
        if self.noise_levels.is_empty() {
            return Err(Error::BadConfig(String::from(
                "robustness sweep has no noise levels",
            )));
        }
        let scale = self.scale.unwrap_or_else(|| engine.scale());
        let data = engine.dataset_at(self.workload, scale);
        let (train, test) = (&data.0, &data.1);
        if train.is_empty() || test.is_empty() {
            return Err(Error::EmptyDataset);
        }
        // Corrupt once into contiguous evaluation slabs, shared
        // read-only across the three jobs.
        let noisy: Vec<Arc<nc_dataset::RequestSlab>> = self
            .noise_levels
            .iter()
            .map(|&n| {
                Arc::new(nc_dataset::RequestSlab::from_dataset(&corrupt(
                    test,
                    n,
                    noise_seed(n),
                )))
            })
            .collect();
        let (inputs, classes) = (train.input_dim(), train.num_classes());
        let params = SnnParams::tuned(self.snn_neurons);
        let specs = [
            ModelSpec::Mlp {
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
        let eval_samples = (test.len() * self.noise_levels.len()) as u64;
        let jobs: Vec<Job<(ModelSpec, nc_dataset::FitBudget)>> = specs
            .into_iter()
            .map(|spec| {
                let budget = spec.budget(scale);
                let samples =
                    (train.len() * budget.epochs.max(budget.stdp_epochs)) as u64 + eval_samples;
                Job::new(
                    format!("robustness/{}/{}", self.workload, spec.display_name()),
                    samples,
                    (spec, budget),
                )
            })
            .collect();
        let recorder = engine.recorder_handle();
        let ladders: Vec<Result<Vec<f64>, Error>> = engine.run_jobs(jobs, |(spec, budget)| {
            let mut model = spec.build()?;
            model.fit_observed(train, &budget, recorder.as_ref())?;
            Ok(noisy
                .iter()
                .map(|d| model.evaluate_batch(&d.batch()).accuracy())
                .collect())
        });
        let mut ladders = ladders.into_iter();
        let (mlp, snn, wot) = match (ladders.next(), ladders.next(), ladders.next()) {
            (Some(mlp), Some(snn), Some(wot)) => (mlp?, snn?, wot?),
            _ => unreachable!("exactly three ladder jobs were scheduled above"),
        };
        Ok(self
            .noise_levels
            .iter()
            .enumerate()
            .map(|(i, &noise)| RobustnessPoint {
                noise,
                mlp_accuracy: mlp[i],
                snn_accuracy: snn[i],
                wot_accuracy: wot[i],
            })
            .collect())
    }
}

/// Relative degradation of an accuracy series: `1 - acc(last)/acc(first)`
/// (0 = fully robust). Returns `None` for degenerate series — an empty
/// ladder or a zero starting accuracy has no meaningful ratio, and the
/// old silent `0.0` made a model that never worked look fully robust.
pub fn degradation(
    points: &[RobustnessPoint],
    extract: impl Fn(&RobustnessPoint) -> f64,
) -> Option<f64> {
    match (points.first(), points.last()) {
        (Some(first), Some(last)) if extract(first) > 0.0 => {
            Some(1.0 - extract(last) / extract(first))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn task() -> (Dataset, Dataset) {
        DigitsSpec {
            train: 250,
            test: 80,
            seed: 55,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    #[test]
    fn corruption_is_deterministic_and_bounded() {
        let (_, test) = task();
        let a = corrupt(&test, 0.2, 7);
        let b = corrupt(&test, 0.2, 7);
        assert_eq!(a, b);
        let c = corrupt(&test, 0.2, 8);
        assert_ne!(a, c);
        // Zero noise is the identity.
        assert_eq!(corrupt(&test, 0.0, 7), test);
    }

    #[test]
    fn degradation_of_degenerate_series_is_none() {
        assert_eq!(degradation(&[], |p| p.mlp_accuracy), None);
        // A model that never worked is not "fully robust".
        let dead = [
            RobustnessPoint {
                noise: 0.0,
                mlp_accuracy: 0.0,
                snn_accuracy: 0.5,
                wot_accuracy: 0.5,
            },
            RobustnessPoint {
                noise: 0.5,
                mlp_accuracy: 0.0,
                snn_accuracy: 0.25,
                wot_accuracy: 0.25,
            },
        ];
        assert_eq!(degradation(&dead, |p| p.mlp_accuracy), None);
        assert_eq!(degradation(&dead, |p| p.snn_accuracy), Some(0.5));
    }

    #[test]
    fn robustness_experiment_is_thread_count_invariant() {
        use crate::engine::Engine;
        use crate::experiment::{ExperimentScale, Workload};
        let sweep = RobustnessSweep {
            noise_levels: vec![0.0, 0.6],
            mlp_hidden: 6,
            snn_neurons: 8,
            ..RobustnessSweep::standard(Workload::Shapes)
        };
        let sequential = Engine::sequential(ExperimentScale::Tiny)
            .run(&sweep)
            .unwrap();
        let recorder = std::sync::Arc::new(nc_obs::MemoryRecorder::new());
        let parallel = Engine::builder()
            .threads(3)
            .scale(ExperimentScale::Tiny)
            .recorder(recorder.clone())
            .build()
            .run(&sweep)
            .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 2);
        let snap = recorder.snapshot();
        assert!(
            !snap.epochs.is_empty(),
            "training epochs reach the recorder"
        );
        // Heavy noise does not raise accuracy.
        assert!(
            sequential[1].mlp_accuracy <= sequential[0].mlp_accuracy + 0.05,
            "{sequential:?}"
        );
        let deg = degradation(&sequential, |p| p.mlp_accuracy).unwrap();
        assert!((-0.1..=1.0).contains(&deg), "{sequential:?}");
    }

    #[test]
    fn robustness_experiment_rejects_an_empty_ladder() {
        use crate::engine::Engine;
        use crate::experiment::{ExperimentScale, Workload};
        let sweep = RobustnessSweep {
            noise_levels: vec![],
            ..RobustnessSweep::standard(Workload::Shapes)
        };
        let engine = Engine::sequential(ExperimentScale::Tiny);
        assert!(matches!(engine.run(&sweep), Err(Error::BadConfig(_))));
    }
}
