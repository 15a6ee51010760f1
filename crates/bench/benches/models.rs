//! Micro-benchmarks for the model-level components: MLP forward/training,
//! quantized inference, SNN presentation (event-driven LIF), STDP
//! learning, spike coding, the many-core mesh simulator, and the digit
//! generator every experiment and benchmark set-up starts from.
//!
//! These measure the *simulation* cost of each path — useful when scaling
//! experiments — and document the event-driven-vs-dense speedup the
//! analytic leak buys (the same trick the hardware uses).
//!
//! Run with: `cargo bench -p nc-bench --features bench-harness --bench models`
//!
//! * `--json <path>` writes the results as a `BenchRecord`, one section
//!   per benchmark, as the `kernels` bench does.
//! * `NC_BENCH_SMOKE=1` shrinks sample counts for CI smoke runs.

use nc_bench::microbench::{write_record_from_args, BenchResult, Group};
use nc_core::{ExperimentScale, FaultModel, FaultPlan, Workload};
use nc_dataset::digits::{render_digit, DigitsSpec};
use nc_dataset::Difficulty;
use nc_hw::mesh::{Grid, MeshSnn};
use nc_mlp::{Activation, Mlp, QuantizedMlp, TrainConfig, Trainer};
use nc_snn::bp_hybrid::{BpSnn, BpSnnConfig};
use nc_snn::coding::CodingScheme;
use nc_snn::{SnnNetwork, SnnParams, SpikeCalendar};
use nc_substrate::rng::SplitMix64;

fn data() -> (nc_dataset::Dataset, nc_dataset::Dataset) {
    DigitsSpec {
        train: 200,
        test: 50,
        seed: 42,
        difficulty: Difficulty::default(),
    }
    .generate()
}

/// The 300 hard training digits `perfbench`'s serving set-up trains its
/// models on.
fn hard_train() -> nc_dataset::Dataset {
    DigitsSpec {
        train: 300,
        test: 0,
        seed: 0x7A41,
        difficulty: Difficulty::hard(),
    }
    .generate()
    .0
}

fn bench_mlp() -> Vec<BenchResult> {
    let (train, test) = data();
    let mut group = Group::new("mlp");

    let mut mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
    let input = test.samples()[0].pixels_unit();
    group.bench("forward_784_100_10", || mlp.forward(&input));

    let trainer = Trainer::new(TrainConfig::default());
    group.bench("bp_step_784_100_10", || trainer.step(&mut mlp, &input, 3));

    let mut q = QuantizedMlp::from_mlp(&mlp);
    let pixels = &test.samples()[0].pixels;
    // Sum the borrowed output so the closure returns an owned value.
    group.bench("quantized_forward_784_100_10", || {
        q.forward_u8(pixels)
            .iter()
            .map(|&v| u32::from(v))
            .sum::<u32>()
    });

    group.bench("train_epoch_784_20_10_200imgs", || {
        let mut m = Mlp::new(&[784, 20, 10], Activation::sigmoid(), 1).unwrap();
        Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        })
        .fit(&mut m, &train)
    });

    // Serving's MLP set-up: 4 BP epochs at 784-100-10 over 300 hard
    // digits, about a third of whose pixels are 0.
    let hard = hard_train();
    group.bench("fit_784_100_10_300imgs", || {
        let mut m = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
        Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        })
        .fit(&mut m, &hard)
    });
    group.results().to_vec()
}

fn bench_snn() -> Vec<BenchResult> {
    let (train, test) = data();
    let mut group = Group::new("snn");

    let pixels = &test.samples()[0].pixels;
    let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(100), 1);
    let mut seed = 0u64;
    group.bench("present_784_100", || {
        seed += 1;
        snn.present(pixels, seed)
    });

    // The temporal codes (one spike per active pixel) run the same loop
    // as the rate codes; these two guard their speed.
    for (name, coding) in [
        ("present_784_100_ttfs", CodingScheme::TimeToFirstSpike),
        ("present_784_100_rank_order", CodingScheme::RankOrder),
    ] {
        let mut snn = SnnNetwork::with_coding(784, 10, SnnParams::tuned(100), coding, 1);
        let mut seed = 0u64;
        group.bench(name, || {
            seed += 1;
            snn.present(pixels, seed)
        });
    }

    // Every iteration learns from the same snapshot with the same seed, so
    // the section does not drift with the iteration count and two builds
    // are timed in the same learning state. The restore (a clone of the
    // network) is inside the timing.
    let mut snapshot = SnnNetwork::new(784, 10, SnnParams::tuned(100), 1);
    snapshot.set_stdp_delta(2);
    let mut learner = snapshot.clone();
    group.bench("present_learn_784_100", || {
        learner.clone_from(&snapshot);
        learner.present_learn(pixels, 1)
    });

    group.bench("stdp_epoch_784_30_200imgs", || {
        let mut s = SnnNetwork::new(784, 10, SnnParams::tuned(30), 1);
        s.set_stdp_delta(4);
        s.train_stdp(&train, 1)
    });

    // Serving's SNNwt set-up: one STDP epoch at δ 8 with 50 neurons over
    // 300 hard digits.
    let hard = hard_train();
    group.bench("stdp_epoch_784_50_300imgs", || {
        let mut s = SnnNetwork::new(784, 10, SnnParams::for_neurons(50), 1);
        s.set_stdp_delta(8);
        s.train_stdp(&hard, 1)
    });
    // Table 3's SNN+BP geometry: one BP epoch at 784→300 over the same
    // 300 hard digits, most of whose spike counts are 0.
    group.bench("bp_epoch_784_300_300imgs", || {
        let mut b = BpSnn::new(784, 10, SnnParams::tuned(300), 1);
        let config = BpSnnConfig {
            epochs: 1,
            ..BpSnnConfig::default()
        };
        b.fit(&hard, &config);
        b
    });
    group.results().to_vec()
}

fn bench_coding() -> Vec<BenchResult> {
    let (_, test) = data();
    let pixels = &test.samples()[0].pixels;
    let params = SnnParams::paper();
    let mut group = Group::new("coding");
    // One reused calendar, so the sections time the generators and the
    // counting sort rather than allocation.
    let mut calendar = SpikeCalendar::default();
    for (name, scheme) in [
        ("poisson_rate", CodingScheme::PoissonRate),
        ("gaussian_rate", CodingScheme::GaussianRate),
        ("rank_order", CodingScheme::RankOrder),
        ("time_to_first_spike", CodingScheme::TimeToFirstSpike),
    ] {
        let mut seed = 0u64;
        group.bench(name, || {
            seed += 1;
            calendar.fill(scheme, pixels, &params, seed, None);
            std::hint::black_box(&calendar);
        });
    }
    group.results().to_vec()
}

/// The fig_mesh recipe at tiny scale: 20 tuned LIF neurons trained by
/// STDP on the digits set, compiled onto a 4×4 mesh healthy and under
/// fig_mesh's 5% dead-link plan. One iteration presents one test image.
fn bench_mesh() -> Vec<BenchResult> {
    let scale = ExperimentScale::Tiny;
    let (train, test) = Workload::Digits.generate(scale);
    let mut snn = SnnNetwork::new(
        train.input_dim(),
        train.num_classes(),
        SnnParams::tuned(20),
        0x3E5A,
    );
    snn.set_stdp_delta(scale.stdp_delta());
    snn.train_stdp(&train, scale.stdp_epochs());
    snn.self_label(&train);
    let grid = Grid::new(4, 4);
    let dead_link = FaultPlan::new(FaultModel::DeadLink, 0.05, 0x0F_AB).unwrap();
    let mut group = Group::new("mesh");
    for (name, mut mesh) in [
        ("present_784_20_4x4_healthy", MeshSnn::compile(&snn, grid)),
        (
            "present_784_20_4x4_dead_link",
            MeshSnn::compile_faulty(&snn, grid, &dead_link),
        ),
    ] {
        let samples = test.samples();
        let mut item = 0usize;
        group.bench(name, || {
            item += 1;
            let sample = &samples[item % samples.len()];
            mesh.present(&sample.pixels, item as u64).label
        });
    }
    group.results().to_vec()
}

/// The synthetic digit generator at the hard difficulty perfbench draws
/// from: one image, and the 300 training plus 4,000 test images a mesh
/// workload's set-up generates.
fn bench_dataset() -> Vec<BenchResult> {
    let hard = Difficulty::hard();
    let mut group = Group::new("dataset");
    let mut seed = 0u64;
    group.bench("render_digit_hard", || {
        seed += 1;
        let mut rng = SplitMix64::new(seed);
        render_digit((seed % 10) as usize, &mut rng, hard)
    });
    group.bench("digits_300_4000_hard", || {
        DigitsSpec {
            train: 300,
            test: 4000,
            seed: 0xD161,
            difficulty: hard,
        }
        .generate()
    });
    group.results().to_vec()
}

fn main() {
    let mut results = bench_mlp();
    results.extend(bench_snn());
    results.extend(bench_coding());
    results.extend(bench_mesh());
    results.extend(bench_dataset());
    write_record_from_args("models", &results);
}
