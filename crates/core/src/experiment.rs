//! Workloads, experiment scales, and the Table 3 accuracy comparison.

use crate::engine::{Engine, Experiment, Job, ModelSpec};
use crate::error::Error;
use nc_dataset::model::FitBudget;
use nc_dataset::{digits::DigitsSpec, shapes::ShapesSpec, spoken::SpokenSpec, Dataset, Difficulty};
use nc_mlp::Activation;
use nc_snn::SnnParams;

/// The three benchmark families of the paper (§3.1, §4.5), realized by
/// the synthetic generators of `nc-dataset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// MNIST stand-in: 28×28 digits (the driving example).
    Digits,
    /// MPEG-7 stand-in: 28×28 silhouettes.
    Shapes,
    /// Spoken Arabic Digits stand-in: 13×13 cepstral patches.
    Spoken,
}

impl Workload {
    /// The paper's optimized topologies per workload (§3.1, §4.5):
    /// `(mlp_hidden, snn_neurons)`.
    pub fn paper_topology(&self) -> (usize, usize) {
        match self {
            Workload::Digits => (100, 300), // 28x28-100-10 / 28x28-300
            Workload::Shapes => (15, 90),   // 28x28-15-10 / 28x28-90
            Workload::Spoken => (60, 90),   // 13x13-60-10 / 13x13-90
        }
    }

    /// Generates `(train, test)` at the given scale.
    ///
    /// Digits and spoken use [`Difficulty::hard`], shapes the default.
    /// At standard scale the MLP reads 99.62% on the hard digits
    /// (`table3 --scale standard`; paper MNIST: 97.65%), and 100% at
    /// the default jitter, so no setting puts it at the paper's
    /// figure. EXPERIMENTS.md gives the jitter decomposition of
    /// Table 3 and the §4.5 accuracies of shapes and spoken.
    pub fn generate(&self, scale: ExperimentScale) -> (Dataset, Dataset) {
        let (train, test) = scale.sizes();
        let difficulty = match self {
            Workload::Digits | Workload::Spoken => Difficulty::hard(),
            Workload::Shapes => Difficulty::default(),
        };
        match self {
            Workload::Digits => DigitsSpec {
                train,
                test,
                seed: 0xD161,
                difficulty,
            }
            .generate(),
            Workload::Shapes => ShapesSpec {
                train,
                test,
                seed: 0x5A7E,
                difficulty,
            }
            .generate(),
            Workload::Spoken => SpokenSpec {
                train,
                test,
                seed: 0x5AD1,
                difficulty,
            }
            .generate(),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::Digits => write!(f, "digits (MNIST stand-in)"),
            Workload::Shapes => write!(f, "shapes (MPEG-7 stand-in)"),
            Workload::Spoken => write!(f, "spoken (SAD stand-in)"),
        }
    }
}

/// How much compute to spend. The paper trains on 60 000 MNIST images;
/// [`ExperimentScale::Full`] matches that volume, the smaller scales
/// trade a little accuracy for speed (the comparative structure is
/// stable across scales — asserted by the integration tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExperimentScale {
    /// Seconds, for tests and CI: 300 train / 100 test, few epochs.
    Tiny,
    /// ~1 minute on a laptop: 1 000 train / 300 test.
    Quick,
    /// Several minutes: 3 000 train / 800 test (the default for the
    /// regeneration binaries).
    Standard,
    /// Paper-volume: 10 000 train / 2 000 test with more epochs (the
    /// synthetic task saturates before MNIST's 60 000 images would).
    Full,
}

impl ExperimentScale {
    /// Stable lower-case name, as accepted by `--scale` and emitted in
    /// bench records.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Tiny => "tiny",
            ExperimentScale::Quick => "quick",
            ExperimentScale::Standard => "standard",
            ExperimentScale::Full => "full",
        }
    }

    /// `(train, test)` sample counts.
    pub fn sizes(&self) -> (usize, usize) {
        match self {
            ExperimentScale::Tiny => (300, 100),
            ExperimentScale::Quick => (1_000, 300),
            ExperimentScale::Standard => (3_000, 800),
            ExperimentScale::Full => (10_000, 2_000),
        }
    }

    /// MLP training epochs.
    pub fn mlp_epochs(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 8,
            ExperimentScale::Quick => 10,
            ExperimentScale::Standard => 25,
            ExperimentScale::Full => 50,
        }
    }

    /// STDP passes over the training set (chosen so `epochs × train`
    /// approximates the paper's 60 000-presentation volume).
    pub fn stdp_epochs(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 4,
            ExperimentScale::Quick => 8,
            ExperimentScale::Standard => 15,
            ExperimentScale::Full => 20,
        }
    }

    /// STDP weight-update magnitude (the silicon uses ±1 at full
    /// presentation volume; smaller runs use proportionally larger steps,
    /// see `DESIGN.md` §6).
    pub fn stdp_delta(&self) -> i16 {
        match self {
            ExperimentScale::Tiny => 6,
            ExperimentScale::Quick => 4,
            ExperimentScale::Standard => 2,
            ExperimentScale::Full => 1,
        }
    }

    /// SNN+BP training epochs.
    pub fn bp_snn_epochs(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 8,
            ExperimentScale::Quick => 10,
            ExperimentScale::Standard => 20,
            ExperimentScale::Full => 30,
        }
    }
}

/// The Table 3 measurement: accuracy of every model variant on one
/// workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResults {
    /// Which workload was measured.
    pub workload: &'static str,
    /// SNN+STDP with the full LIF timing path (paper: 91.82%).
    pub snn_stdp_lif: f64,
    /// SNN+STDP evaluated through the simplified SNNwot path
    /// (paper: 90.85%).
    pub snn_stdp_wot: f64,
    /// SNN trained with back-propagation (paper: 95.40%).
    pub snn_bp: f64,
    /// Floating-point MLP+BP (paper: 97.65%).
    pub mlp_bp: f64,
    /// 8-bit fixed-point MLP (paper §4.2.1: 96.65%).
    pub mlp_bp_quantized: f64,
}

impl AccuracyResults {
    /// Formats the Table 3 block with the paper's values alongside.
    pub fn to_table(&self) -> String {
        let paper = crate::reference::PAPER_TABLE3;
        let mut s = String::new();
        s.push_str(&format!("Table 3 — accuracy on {}\n", self.workload));
        s.push_str("model                       measured   paper(MNIST)\n");
        let rows = [
            (
                "SNN+STDP - LIF (SNNwt)",
                self.snn_stdp_lif,
                paper.snn_stdp_lif,
            ),
            (
                "SNN+STDP - Simplified (SNNwot)",
                self.snn_stdp_wot,
                paper.snn_stdp_wot,
            ),
            ("SNN+BP", self.snn_bp, paper.snn_bp),
            ("MLP+BP", self.mlp_bp, paper.mlp_bp),
            (
                "MLP+BP (8-bit fixed point)",
                self.mlp_bp_quantized,
                paper.mlp_bp_quantized,
            ),
        ];
        for (name, got, reference) in rows {
            s.push_str(&format!(
                "{name:<30} {:>6.2}%   {:>6.2}%\n",
                got * 100.0,
                reference * 100.0
            ));
        }
        s
    }

    /// The paper's central ordering claim: MLP > SNN+BP > SNN+STDP, and
    /// SNNwot within ~2 points of SNNwt.
    pub fn ordering_holds(&self) -> bool {
        self.mlp_bp >= self.snn_bp
            && self.snn_bp >= self.snn_stdp_lif - 0.02
            && (self.snn_stdp_lif - self.snn_stdp_wot).abs() < 0.08
    }
}

/// Runs the Table 3 experiment: trains all model variants on one
/// workload. Each variant is an independent engine job — the quantized
/// MLP and SNNwot train their own masters from the same seed, which is
/// bit-identical to deriving them from the shared sequential master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyComparison {
    workload: Workload,
    /// Override the SNN neuron count (defaults to the paper topology).
    pub snn_neurons: Option<usize>,
    /// Override the MLP hidden width (defaults to the paper topology).
    pub mlp_hidden: Option<usize>,
    /// RNG seed for all model initializations.
    pub seed: u64,
}

impl AccuracyComparison {
    /// Creates the experiment with the paper's topology for the workload,
    /// at the engine's scale.
    pub fn on(workload: Workload) -> Self {
        AccuracyComparison {
            workload,
            snn_neurons: None,
            mlp_hidden: None,
            seed: 0xC0FFEE,
        }
    }

    /// The five Table 3 model variants as job specs, in result order:
    /// `[LIF, wot, SNN+BP, MLP, quantized MLP]`.
    fn model_specs(&self, inputs: usize, classes: usize) -> Vec<ModelSpec> {
        let (paper_hidden, paper_neurons) = self.workload.paper_topology();
        let hidden = self.mlp_hidden.unwrap_or(paper_hidden);
        let neurons = self.snn_neurons.unwrap_or(paper_neurons);
        let mlp_sizes = vec![inputs, hidden, classes];
        vec![
            ModelSpec::Snn {
                inputs,
                classes,
                params: SnnParams::tuned(neurons),
                seed: self.seed,
            },
            ModelSpec::Wot {
                inputs,
                classes,
                params: SnnParams::tuned(neurons),
                seed: self.seed,
            },
            ModelSpec::BpSnn {
                inputs,
                classes,
                params: SnnParams::tuned(neurons),
                seed: self.seed,
            },
            ModelSpec::Mlp {
                sizes: mlp_sizes.clone(),
                activation: Activation::sigmoid(),
                seed: self.seed,
            },
            ModelSpec::QuantizedMlp {
                sizes: mlp_sizes,
                activation: Activation::sigmoid(),
                seed: self.seed,
            },
        ]
    }
}

impl Experiment for AccuracyComparison {
    type Output = AccuracyResults;

    fn run(&self, engine: &Engine) -> Result<AccuracyResults, Error> {
        let scale = engine.scale();
        let data = engine.dataset_at(self.workload, scale);
        let (train, test) = (&data.0, &data.1);
        if train.is_empty() || test.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let workload_name = match self.workload {
            Workload::Digits => "digits",
            Workload::Shapes => "shapes",
            Workload::Spoken => "spoken",
        };

        let jobs: Vec<Job<(ModelSpec, FitBudget)>> = self
            .model_specs(train.input_dim(), train.num_classes())
            .into_iter()
            .map(|spec| {
                let budget = spec.budget(scale);
                let passes = match spec {
                    ModelSpec::Snn { .. } | ModelSpec::Wot { .. } => budget.stdp_epochs,
                    _ => budget.epochs,
                };
                Job::new(
                    format!("table3/{workload_name}/{}", spec.display_name()),
                    (train.len() * passes + test.len()) as u64,
                    (spec, budget),
                )
            })
            .collect();

        let accuracies = engine.train_and_score(&data, jobs);

        let mut it = accuracies.into_iter();
        // nc-lint: allow(R5, reason = "the batch above schedules exactly five jobs")
        let mut next = || it.next().expect("five jobs were scheduled");
        Ok(AccuracyResults {
            workload: workload_name,
            snn_stdp_lif: next()?,
            snn_stdp_wot: next()?,
            snn_bp: next()?,
            mlp_bp: next()?,
            mlp_bp_quantized: next()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topologies_match_section_4_5() {
        assert_eq!(Workload::Digits.paper_topology(), (100, 300));
        assert_eq!(Workload::Shapes.paper_topology(), (15, 90));
        assert_eq!(Workload::Spoken.paper_topology(), (60, 90));
    }

    #[test]
    fn workloads_generate_correct_geometry() {
        let (train, _) = Workload::Spoken.generate(ExperimentScale::Quick);
        assert_eq!(train.input_dim(), 169);
        let (train, _) = Workload::Shapes.generate(ExperimentScale::Quick);
        assert_eq!(train.input_dim(), 784);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(ExperimentScale::Tiny.sizes().0 < ExperimentScale::Quick.sizes().0);
        assert!(ExperimentScale::Quick.sizes().0 < ExperimentScale::Standard.sizes().0);
        assert!(ExperimentScale::Standard.sizes().0 < ExperimentScale::Full.sizes().0);
    }

    #[test]
    fn quick_comparison_preserves_the_ordering_on_a_small_config() {
        // A miniature end-to-end run (seconds in debug): small topology,
        // tiny data, but MLP > SNN must hold and the engine must drive
        // every variant through the unified Model interface.
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let mut cmp = AccuracyComparison::on(Workload::Digits);
        cmp.snn_neurons = Some(30);
        cmp.mlp_hidden = Some(16);
        cmp.seed = 7;
        let results = engine.run(&cmp).unwrap();
        assert!(
            results.mlp_bp > results.snn_stdp_lif,
            "MLP {} must beat SNN {}",
            results.mlp_bp,
            results.snn_stdp_lif
        );
        assert!(
            results.snn_stdp_lif > 0.2,
            "SNN should be well above chance: {}",
            results.snn_stdp_lif
        );
        // One engine job per model variant, all labeled.
        let stats = engine.stats();
        assert_eq!(stats.len(), 5);
        assert!(stats.iter().all(|s| s.label.starts_with("table3/digits/")));
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let r = AccuracyResults {
            workload: "digits",
            snn_stdp_lif: 0.9,
            snn_stdp_wot: 0.89,
            snn_bp: 0.95,
            mlp_bp: 0.97,
            mlp_bp_quantized: 0.96,
        };
        let t = r.to_table();
        assert!(t.contains("SNN+STDP - LIF"));
        assert!(t.contains("MLP+BP"));
        assert!(r.ordering_holds());
    }
}
