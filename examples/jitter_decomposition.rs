//! Table 3's digits recipe at three jitter levels: SNN+STDP (LIF) and
//! MLP+BP trained and scored exactly as `table3` trains them, on digits
//! generated at half the default jitter, at the default, and at the
//! hard setting `table3` uses. It shows how much of the SNN+STDP gap to
//! the paper the generator's jitter drives (EXPERIMENTS.md, Table 3,
//! "Known deviation").
//!
//! Run with: `cargo run --release --example jitter_decomposition --
//! --scale standard [--threads N]` (scales as for the `table3` binary).

use neurocmp::core::{Engine, Job, ModelSpec};
use neurocmp::dataset::{digits::DigitsSpec, Difficulty};
use neurocmp::mlp::Activation;
use neurocmp::snn::SnnParams;
use std::sync::Arc;

/// The model seed of `AccuracyComparison::on`, which `table3` runs.
const TABLE3_SEED: u64 = 0xC0FFEE;

/// The digits generator seed of `Workload::generate`.
const DIGITS_SEED: u64 = 0xD161;

/// The default difficulty with every jitter and the noise halved.
fn half_default() -> Difficulty {
    let d = Difficulty::default();
    Difficulty {
        max_shift: d.max_shift / 2.0,
        max_rotation: d.max_rotation / 2.0,
        scale_jitter: d.scale_jitter / 2.0,
        noise: d.noise / 2.0,
        thickness_jitter: d.thickness_jitter / 2.0,
    }
}

fn main() {
    let scale = nc_bench::scale_from_args();
    let mut builder = Engine::builder().scale(scale);
    if let Some(threads) = nc_bench::threads_from_args() {
        builder = builder.threads(threads);
    }
    let engine = builder.build();
    let (train_len, test_len) = scale.sizes();
    // Table 3's digits topology: 784-100-10 MLP, 300-neuron SNN.
    let specs = [
        ModelSpec::Snn {
            inputs: 784,
            classes: 10,
            params: SnnParams::tuned(300),
            seed: TABLE3_SEED,
        },
        ModelSpec::Mlp {
            sizes: vec![784, 100, 10],
            activation: Activation::sigmoid(),
            seed: TABLE3_SEED,
        },
    ];
    println!("| jitter | SNN+STDP | MLP+BP |\n|---|---|---|");
    for (name, difficulty) in [
        ("half of default", half_default()),
        ("default", Difficulty::default()),
        ("hard (Table 3)", Difficulty::hard()),
    ] {
        let data = Arc::new(
            DigitsSpec {
                train: train_len,
                test: test_len,
                seed: DIGITS_SEED,
                difficulty,
            }
            .generate(),
        );
        let jobs = specs
            .iter()
            .map(|spec| {
                let budget = spec.budget(scale);
                Job::new(
                    format!("jitter/{name}/{}", spec.display_name()),
                    train_len as u64,
                    (spec.clone(), budget),
                )
            })
            .collect();
        let accuracies: Vec<f64> = engine
            .train_and_score(&data, jobs)
            .into_iter()
            .map(|r| r.expect("Table 3 topologies are valid"))
            .collect();
        println!(
            "| {name} | {:.2}% | {:.2}% |",
            100.0 * accuracies[0],
            100.0 * accuracies[1]
        );
    }
}
