//! Parameter sweeps behind the figures: #neurons (Figure 8), sigmoid
//! slope (Figures 5–6), coding schemes (Figure 14).
//!
//! Each sweep is an [`Experiment`]: its grid points are independent
//! trainings, fanned out as engine jobs and collected in grid order,
//! every model driven through the unified [`Model`](nc_dataset::Model)
//! interface.

use crate::engine::{Engine, Experiment, Job, ModelSpec};
use crate::error::Error;
use crate::experiment::{ExperimentScale, Workload};
use nc_dataset::model::FitBudget;
use nc_dataset::Dataset;
use nc_mlp::Activation;
use nc_snn::coding::CodingScheme;
use nc_snn::SnnParams;

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronSweepPoint {
    /// Neuron count (hidden neurons for the MLP, layer size for the SNN).
    pub neurons: usize,
    /// Test accuracy at that size.
    pub accuracy: f64,
}

/// One point of the Figure 6 bridging sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgePoint {
    /// Sigmoid slope `a` (`None` = the step function reference).
    pub slope: Option<f64>,
    /// Test error rate (1 − accuracy).
    pub error_rate: f64,
}

/// One point of the Figure 14 coding sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodingPoint {
    /// The input code under test.
    pub scheme: CodingScheme,
    /// Layer size.
    pub neurons: usize,
    /// Test accuracy.
    pub accuracy: f64,
}

fn mlp_point_job(
    train: &Dataset,
    hidden: usize,
    epochs: usize,
    seed: u64,
    label: String,
) -> Job<(ModelSpec, FitBudget)> {
    let spec = ModelSpec::Mlp {
        sizes: vec![train.input_dim(), hidden, train.num_classes()],
        activation: Activation::sigmoid(),
        seed,
    };
    let budget = FitBudget {
        epochs,
        ..FitBudget::default()
    };
    Job::new(label, (train.len() * epochs) as u64, (spec, budget))
}

fn snn_point_job(
    train: &Dataset,
    neurons: usize,
    coding: Option<CodingScheme>,
    scale: ExperimentScale,
    seed: u64,
    label: String,
) -> Job<(ModelSpec, FitBudget)> {
    let (inputs, classes) = (train.input_dim(), train.num_classes());
    let params = SnnParams::tuned(neurons);
    let spec = match coding {
        None => ModelSpec::Snn {
            inputs,
            classes,
            params,
            seed,
        },
        Some(coding) => ModelSpec::SnnWithCoding {
            inputs,
            classes,
            params,
            coding,
            seed,
        },
    };
    let budget = FitBudget {
        stdp_epochs: scale.stdp_epochs(),
        stdp_delta: scale.stdp_delta(),
        ..FitBudget::default()
    };
    Job::new(
        label,
        (train.len() * scale.stdp_epochs()) as u64,
        (spec, budget),
    )
}

fn collect(results: Vec<Result<f64, Error>>) -> Result<Vec<f64>, Error> {
    results.into_iter().collect()
}

fn bridge_jobs(
    train: &Dataset,
    slopes: &[f64],
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Vec<Job<(ModelSpec, FitBudget)>> {
    let sizes = vec![train.input_dim(), hidden, train.num_classes()];
    let samples = (train.len() * epochs) as u64;
    let mut jobs: Vec<Job<(ModelSpec, FitBudget)>> = slopes
        .iter()
        .map(|&a| {
            let spec = ModelSpec::Mlp {
                sizes: sizes.clone(),
                activation: Activation::sigmoid_slope(a),
                seed,
            };
            // The gradient carries a slope factor (capped, see
            // Activation::derivative_from_output); keep the effective
            // step size constant across the family.
            let budget = FitBudget {
                epochs,
                learning_rate: Some(0.3 / a.min(Activation::SURROGATE_SLOPE_CAP)),
                ..FitBudget::default()
            };
            Job::new(format!("fig6/slope/{a}"), samples, (spec, budget))
        })
        .collect();
    // The step-function reference: straight-through training (forward
    // and surrogate gradients through the steepest sigmoid of the
    // family), deployed with the true [0/1] step.
    jobs.push(Job::new(
        "fig6/step",
        samples,
        (
            ModelSpec::StepMlp {
                sizes,
                slope: 16.0,
                seed,
            },
            FitBudget {
                epochs,
                ..FitBudget::default()
            },
        ),
    ));
    jobs
}

fn bridge_points(slopes: &[f64], accuracies: Vec<f64>) -> Vec<BridgePoint> {
    slopes
        .iter()
        .map(|&a| Some(a))
        .chain(std::iter::once(None))
        .zip(accuracies)
        .map(|(slope, accuracy)| BridgePoint {
            slope,
            error_rate: 1.0 - accuracy,
        })
        .collect()
}

/// The Figure 8 experiment: accuracy vs network size for both model
/// families, every grid point an independent engine job.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuronSweep {
    /// Workload under test.
    pub workload: Workload,
    /// Pinned scale; `None` defers to the engine's scale.
    pub scale: Option<ExperimentScale>,
    /// MLP hidden widths to sweep.
    pub mlp_widths: Vec<usize>,
    /// SNN layer sizes to sweep.
    pub snn_sizes: Vec<usize>,
    /// Shared initialization seed.
    pub seed: u64,
}

/// Output of [`NeuronSweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct NeuronSweepResults {
    /// MLP accuracy per hidden width.
    pub mlp: Vec<NeuronSweepPoint>,
    /// SNN accuracy per layer size.
    pub snn: Vec<NeuronSweepPoint>,
}

impl NeuronSweep {
    /// The paper's Figure 8 grids for a workload.
    pub fn fig8(workload: Workload) -> Self {
        NeuronSweep {
            workload,
            scale: None,
            mlp_widths: vec![10, 15, 20, 30, 50, 100, 200],
            snn_sizes: vec![10, 20, 50, 100, 200, 300],
            seed: 0xF168,
        }
    }
}

impl Experiment for NeuronSweep {
    type Output = NeuronSweepResults;

    fn run(&self, engine: &Engine) -> Result<NeuronSweepResults, Error> {
        if self.mlp_widths.is_empty() && self.snn_sizes.is_empty() {
            return Err(Error::BadConfig(String::from(
                "neuron sweep has an empty grid on both sides",
            )));
        }
        let scale = self.scale.unwrap_or_else(|| engine.scale());
        let data = engine.dataset_at(self.workload, scale);
        let train = &data.0;
        let mut jobs = Vec::new();
        for &h in &self.mlp_widths {
            jobs.push(mlp_point_job(
                train,
                h,
                scale.mlp_epochs(),
                self.seed,
                format!("fig8/mlp/{h}"),
            ));
        }
        for &n in &self.snn_sizes {
            jobs.push(snn_point_job(
                train,
                n,
                None,
                scale,
                self.seed,
                format!("fig8/snn/{n}"),
            ));
        }
        let accuracies = collect(engine.train_and_score(&data, jobs))?;
        let (mlp_acc, snn_acc) = accuracies.split_at(self.mlp_widths.len());
        Ok(NeuronSweepResults {
            mlp: self
                .mlp_widths
                .iter()
                .zip(mlp_acc)
                .map(|(&neurons, &accuracy)| NeuronSweepPoint { neurons, accuracy })
                .collect(),
            snn: self
                .snn_sizes
                .iter()
                .zip(snn_acc)
                .map(|(&neurons, &accuracy)| NeuronSweepPoint { neurons, accuracy })
                .collect(),
        })
    }
}

/// The Figures 5–6 experiment: the sigmoid→step bridge, every slope an
/// independent engine job plus the step-deployed reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SigmoidBridge {
    /// Workload under test.
    pub workload: Workload,
    /// Pinned scale; `None` defers to the engine's scale.
    pub scale: Option<ExperimentScale>,
    /// Sigmoid slopes `a` to sweep.
    pub slopes: Vec<f64>,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Experiment for SigmoidBridge {
    type Output = Vec<BridgePoint>;

    fn run(&self, engine: &Engine) -> Result<Vec<BridgePoint>, Error> {
        if self.slopes.is_empty() {
            return Err(Error::BadConfig(String::from("bridge sweep has no slopes")));
        }
        let scale = self.scale.unwrap_or_else(|| engine.scale());
        let data = engine.dataset_at(self.workload, scale);
        let jobs = bridge_jobs(
            &data.0,
            &self.slopes,
            self.hidden,
            scale.mlp_epochs(),
            self.seed,
        );
        let accuracies = collect(engine.train_and_score(&data, jobs))?;
        Ok(bridge_points(&self.slopes, accuracies))
    }
}

/// The Figure 14 experiment: STDP accuracy per coding scheme per layer
/// size, every grid cell an independent engine job.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingSweep {
    /// Workload under test.
    pub workload: Workload,
    /// Pinned scale; `None` defers to the engine's scale.
    pub scale: Option<ExperimentScale>,
    /// Input spike codes to compare.
    pub schemes: Vec<CodingScheme>,
    /// SNN layer sizes per scheme.
    pub sizes: Vec<usize>,
    /// Initialization seed.
    pub seed: u64,
}

impl Experiment for CodingSweep {
    type Output = Vec<CodingPoint>;

    fn run(&self, engine: &Engine) -> Result<Vec<CodingPoint>, Error> {
        if self.schemes.is_empty() || self.sizes.is_empty() {
            return Err(Error::BadConfig(String::from(
                "coding sweep has an empty grid",
            )));
        }
        let scale = self.scale.unwrap_or_else(|| engine.scale());
        let data = engine.dataset_at(self.workload, scale);
        let train = &data.0;
        let grid: Vec<(CodingScheme, usize)> = self
            .schemes
            .iter()
            .flat_map(|&s| self.sizes.iter().map(move |&n| (s, n)))
            .collect();
        let jobs = grid
            .iter()
            .map(|&(scheme, n)| {
                snn_point_job(
                    train,
                    n,
                    Some(scheme),
                    scale,
                    self.seed,
                    format!("fig14/{scheme:?}/{n}"),
                )
            })
            .collect();
        let accuracies = collect(engine.train_and_score(&data, jobs))?;
        Ok(grid
            .iter()
            .zip(accuracies)
            .map(|(&(scheme, neurons), accuracy)| CodingPoint {
                scheme,
                neurons,
                accuracy,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_experiments_cover_their_grids_on_the_engine() {
        let engine = Engine::builder()
            .threads(2)
            .scale(ExperimentScale::Tiny)
            .build();
        let sweep = NeuronSweep {
            workload: Workload::Digits,
            scale: None,
            mlp_widths: vec![2, 24],
            snn_sizes: vec![5, 40],
            seed: 1,
        };
        let results = engine.run(&sweep).unwrap();
        let neurons = |pts: &[NeuronSweepPoint]| pts.iter().map(|p| p.neurons).collect::<Vec<_>>();
        assert_eq!(neurons(&results.mlp), [2, 24]);
        assert_eq!(neurons(&results.snn), [5, 40]);
        assert!(
            results.mlp[1].accuracy > results.mlp[0].accuracy,
            "wider net should win: {results:?}"
        );
        assert!(
            results.snn[1].accuracy >= results.snn[0].accuracy,
            "larger layer should win: {results:?}"
        );

        let bridge = SigmoidBridge {
            workload: Workload::Digits,
            scale: None,
            slopes: vec![1.0, 8.0],
            hidden: 12,
            seed: 1,
        };
        let pts = engine.run(&bridge).unwrap();
        let slopes: Vec<Option<f64>> = pts.iter().map(|p| p.slope).collect();
        assert_eq!(
            slopes,
            [Some(1.0), Some(8.0), None],
            "ends with the step reference"
        );
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.error_rate)));

        let schemes = [CodingScheme::PoissonRate, CodingScheme::TimeToFirstSpike];
        let coding = CodingSweep {
            workload: Workload::Digits,
            scale: None,
            schemes: schemes.to_vec(),
            sizes: vec![8, 12],
            seed: 1,
        };
        let cells: Vec<(CodingScheme, usize)> = engine
            .run(&coding)
            .unwrap()
            .iter()
            .map(|p| (p.scheme, p.neurons))
            .collect();
        let grid: Vec<(CodingScheme, usize)> =
            schemes.iter().flat_map(|&s| [(s, 8), (s, 12)]).collect();
        assert_eq!(cells, grid);
    }

    #[test]
    fn empty_grids_are_rejected() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let sweep = NeuronSweep {
            workload: Workload::Shapes,
            scale: None,
            mlp_widths: vec![],
            snn_sizes: vec![],
            seed: 1,
        };
        assert!(matches!(engine.run(&sweep), Err(Error::BadConfig(_))));
        let bridge = SigmoidBridge {
            workload: Workload::Shapes,
            scale: None,
            slopes: vec![],
            hidden: 4,
            seed: 1,
        };
        assert!(matches!(engine.run(&bridge), Err(Error::BadConfig(_))));
        let coding = CodingSweep {
            workload: Workload::Shapes,
            scale: None,
            schemes: vec![],
            sizes: vec![],
            seed: 1,
        };
        assert!(matches!(engine.run(&coding), Err(Error::BadConfig(_))));
    }
}
