//! Hot-path kernel and end-to-end presentations/sec micro-benchmarks.
//!
//! These track the two loops the paper's cost argument rests on: the
//! 8-bit MAC/adder-tree datapath of the MLP accelerator (§4.1–§4.3) and
//! the event-driven LIF presentation of the SNN accelerator (§4.4). The
//! `e2e/fig3_present_784_50` section is the canonical throughput number:
//! one presentation of a digit to the Figure-3 network configuration
//! (784 inputs, 50 neurons, tuned parameters).
//!
//! Run with: `cargo bench -p nc-bench --features bench-harness --bench kernels`
//!
//! * `--json <path>` writes the results as a `BenchRecord` (one section
//!   per benchmark: `samples` = iterations timed, `wall_s` = that many
//!   iterations at the median time, so `samples_per_sec` = iterations/sec
//!   at the median).
//! * `--baseline <path>` compares every gated section (the Figure-3
//!   presentation loop and the batched 50-image evaluation) against a
//!   previously committed record and exits non-zero on a >20% regression.
//! * `NC_BENCH_SMOKE=1` shrinks sample counts for CI smoke runs.

use nc_bench::microbench::{write_record_from_args, BenchResult, Group};
use nc_bench::{baseline_from_args, baseline_per_sec, load_baseline};
use nc_dataset::model::Model;
use nc_dataset::{digits::DigitsSpec, Difficulty, RequestSlab};
use nc_mlp::{Activation, Mlp, QuantizedMlp};
use nc_snn::{SnnNetwork, SnnParams};

fn data() -> (nc_dataset::Dataset, nc_dataset::Dataset) {
    DigitsSpec {
        train: 120,
        test: 50,
        seed: 42,
        difficulty: Difficulty::default(),
    }
    .generate()
}

/// The Figure-3 network configuration (matches `gen_models::fig3`),
/// trained just enough that the synapse rows are specialized.
fn fig3_network(train: &nc_dataset::Dataset) -> SnnNetwork {
    let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(50), 0xF163);
    snn.set_stdp_delta(4);
    snn.train_stdp(train, 1);
    snn
}

fn bench_all() -> Vec<BenchResult> {
    let (train, test) = data();
    let pixels = &test.samples()[0].pixels;
    let mut results = Vec::new();

    {
        let mut group = Group::new("kernels");
        let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        // Sum the borrowed output so the closure returns an owned value.
        group.bench("quantized_forward_784_100_10", || {
            q.forward_u8(pixels)
                .iter()
                .map(|&v| u32::from(v))
                .sum::<u32>()
        });
        // The same network through the batched GEMM kernel, 32 images
        // per tile (one iteration = 32 forward passes).
        let slab = RequestSlab::from_dataset(&test);
        let mut out = Vec::new();
        group.bench("quantized_forward_batch32", || {
            out.clear();
            q.predict_batch_u8(&slab.batch().pixels()[..784 * 32], 32, &mut out);
            out.len()
        });
        results.extend(group.results().iter().cloned());
    }

    {
        let mut group = Group::new("e2e");
        let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let samples = test.samples();
        group.bench("mlp8_predict_50imgs", || {
            samples
                .iter()
                .map(|s| q.predict_u8(&s.pixels))
                .sum::<usize>()
        });

        let mut snn = fig3_network(&train);
        let mut seed = 0u64;
        group.bench("fig3_present_784_50", || {
            seed += 1;
            snn.present(pixels, seed)
        });

        // The canonical evaluation number: the full batched path the
        // experiment engine runs (contiguous slab view, winner-only SNN
        // inference that stops at the first fire).
        let mut eval_snn = fig3_network(&train);
        eval_snn.self_label(&train);
        let slab = RequestSlab::from_dataset(&test);
        group.bench("fig3_evaluate_50imgs", || {
            eval_snn.evaluate_batch(&slab.batch())
        });
        results.extend(group.results().iter().cloned());
    }

    results
}

/// The sections this harness gates regressions on: the single-image
/// presentation loop and the batched 50-image evaluation path.
const GATES: &[&str] = &["e2e/fig3_present_784_50", "e2e/fig3_evaluate_50imgs"];

fn main() {
    let results = bench_all();

    write_record_from_args("kernels", &results);

    if let Some(path) = baseline_from_args() {
        let json = match load_baseline(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let mut regressed = false;
        for gate in GATES {
            let Some(base) = baseline_per_sec(&json, gate) else {
                eprintln!("error: baseline {} has no section {gate}", path.display());
                std::process::exit(1);
            };
            let Some(now) = results
                .iter()
                .find(|r| &r.name == gate)
                .map(BenchResult::per_sec)
            else {
                eprintln!("error: this run produced no section {gate}");
                std::process::exit(1);
            };
            let ratio = now / base;
            eprintln!("{gate}: {now:.1}/s vs baseline {base:.1}/s ({ratio:.2}x)");
            if ratio < 0.8 {
                eprintln!("error: {gate} regressed more than 20% vs baseline");
                regressed = true;
            }
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
