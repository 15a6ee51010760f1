//! Randomized invariant tests for the MLP and its quantized hardware path.
//!
//! Formerly proptest-based; converted to a deterministic std-only harness
//! (seeded [`SplitMix64`] case generation) so the workspace builds and
//! tests fully offline.

use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::{Model, RequestSlab};
use nc_mlp::network::argmax;
use nc_mlp::{Activation, Mlp, QuantizedMlp, TrainConfig, Trainer};
use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;

const CASES: u64 = 48;

fn random_topology(rng: &mut SplitMix64) -> Vec<usize> {
    let layers = 2 + rng.next_below(3) as usize;
    (0..layers)
        .map(|_| 1 + rng.next_below(19) as usize)
        .collect()
}

#[test]
fn forward_outputs_are_sigmoid_bounded() {
    let mut rng = SplitMix64::new(0x3101);
    for case in 0..CASES {
        let sizes = random_topology(&mut rng);
        let seed = rng.next_u64();
        let fill = rng.next_range(0.0, 1.0);
        let mlp = Mlp::new(&sizes, Activation::sigmoid(), seed).unwrap();
        let input = vec![fill; sizes[0]];
        let out = mlp.forward(&input);
        assert_eq!(out.len(), *sizes.last().unwrap(), "case {case}");
        assert!(
            out.iter().all(|&y| (0.0..=1.0).contains(&y)),
            "case {case}: {out:?}"
        );
    }
}

#[test]
fn step_outputs_are_binary() {
    let mut rng = SplitMix64::new(0x3102);
    for case in 0..CASES {
        let sizes = random_topology(&mut rng);
        let mlp = Mlp::new(&sizes, Activation::Step, rng.next_u64()).unwrap();
        let input = vec![0.5; sizes[0]];
        let out = mlp.forward(&input);
        assert!(
            out.iter().all(|&y| y == 0.0 || y == 1.0),
            "case {case}: {out:?}"
        );
    }
}

#[test]
fn sigmoid_is_monotone_in_slope_at_positive_x() {
    let mut rng = SplitMix64::new(0x3103);
    for case in 0..CASES {
        let a = rng.next_range(0.1, 32.0);
        let x = rng.next_range(0.01, 5.0);
        let base = Activation::sigmoid().eval(x);
        let steep = Activation::sigmoid_slope(a).eval(x);
        if a >= 1.0 {
            assert!(steep >= base - 1e-12, "case {case}: a {a} x {x}");
        } else {
            assert!(steep <= base + 1e-12, "case {case}: a {a} x {x}");
        }
    }
}

#[test]
fn derivative_matches_finite_difference() {
    let mut rng = SplitMix64::new(0x3104);
    for case in 0..CASES {
        let a = rng.next_range(0.1, 4.0);
        let x = rng.next_range(-4.0, 4.0);
        let f = Activation::sigmoid_slope(a);
        let y = f.eval(x);
        let h = 1e-6;
        let fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h);
        assert!(
            (f.derivative_from_output(y) - fd).abs() < 1e-4,
            "case {case}: a {a} x {x}"
        );
    }
}

#[test]
fn quantized_forward_tracks_float_forward() {
    let mut rng = SplitMix64::new(0x3106);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let pixels: Vec<u8> = (0..12).map(|_| rng.next_u64() as u8).collect();
        let mlp = Mlp::new(&[12, 6, 4], Activation::sigmoid(), seed).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let fin: Vec<f64> = pixels.iter().map(|&p| f64::from(p) / 255.0).collect();
        let f_out = mlp.forward(&fin);
        let q_out = q.forward_u8(&pixels);
        for (f, qv) in f_out.iter().zip(q_out) {
            assert!(
                (f - f64::from(*qv) / 255.0).abs() < 0.08,
                "case {case}: float {f} vs quantized {qv}"
            );
        }
    }
}

#[test]
fn quantized_batches_match_the_serial_path_at_every_width() {
    // Every weight width on random topologies, over slab lengths that
    // leave tails in both the 32-image evaluation tiles and the GEMM's
    // column tiles.
    let mut rng = SplitMix64::new(0x3108);
    for case in 0..12 {
        let sizes = random_topology(&mut rng);
        let mlp = Mlp::new(&sizes, Activation::sigmoid(), rng.next_u64()).unwrap();
        let (inputs, outputs) = (sizes[0], sizes[sizes.len() - 1]);
        let len = 1 + rng.next_below(80) as usize;
        let pixels: Vec<u8> = (0..len * inputs).map(|_| rng.next_u64() as u8).collect();
        let mut slab = RequestSlab::new(inputs, outputs);
        for (i, image) in pixels.chunks(inputs).enumerate() {
            slab.push(image, EVAL_PRESENTATION_SEED_BASE | i as u64, 0)
                .unwrap();
        }
        for bits in 2..=8 {
            let mut q = QuantizedMlp::from_mlp_with_bits(&mlp, bits);
            let ctx = format!("case {case}: {sizes:?} at {bits} bits, {len} images");
            let registers = q.forward_batch_u8(&pixels, len).to_vec();
            let mut batched = Vec::new();
            q.predict_batch(&slab.batch(), &mut batched);
            assert_eq!(batched.len(), len, "{ctx}");
            for (c, image) in pixels.chunks(inputs).enumerate() {
                let column = &registers[c * outputs..(c + 1) * outputs];
                assert_eq!(q.forward_u8(image), column, "{ctx}: image {c} registers");
                assert_eq!(batched[c], q.predict_u8(image), "{ctx}: image {c}");
            }
        }
    }
}

#[test]
fn argmax_returns_a_maximal_index() {
    let mut rng = SplitMix64::new(0x3107);
    for case in 0..CASES {
        let n = 1 + rng.next_below(49) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_range(-1e9, 1e9)).collect();
        let i = argmax(&xs);
        assert!(xs.iter().all(|&x| x <= xs[i]), "case {case}");
    }
}

#[test]
fn initialization_is_bounded_by_fan_in() {
    let mut rng = SplitMix64::new(0x3108);
    for case in 0..CASES {
        let sizes = random_topology(&mut rng);
        let mlp = Mlp::new(&sizes, Activation::sigmoid(), rng.next_u64()).unwrap();
        for (l, &fan_in) in sizes[..sizes.len() - 1].iter().enumerate() {
            let bound = 1.0 / (fan_in as f64).sqrt() + 1e-12;
            assert!(
                mlp.layer_weights(l).iter().all(|w| w.abs() <= bound),
                "case {case}: layer {l}"
            );
        }
    }
}

/// The float forward pass as a plain serial loop: each sum starts at the
/// bias and adds `w·x` with `i` ascending. Returns every layer's
/// activations and the output layer's pre-activation sums.
fn reference_forward(mlp: &Mlp, input: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let sizes = mlp.sizes();
    let mut trace: Vec<Vec<f64>> = Vec::new();
    let mut potentials = Vec::new();
    for l in 0..sizes.len() - 1 {
        let current = trace.last().map_or(input, Vec::as_slice);
        let (fan_in, weights) = (sizes[l], mlp.layer_weights(l));
        potentials = (0..sizes[l + 1])
            .map(|j| {
                let row = &weights[j * (fan_in + 1)..(j + 1) * (fan_in + 1)];
                let mut s = row[fan_in];
                for i in 0..fan_in {
                    s += row[i] * current[i];
                }
                s
            })
            .collect();
        let out = potentials
            .iter()
            .map(|&s| mlp.activation().eval(s))
            .collect();
        trace.push(out);
    }
    (trace, potentials)
}

/// One BP step written out serially, element by element.
fn reference_step(mlp: &mut Mlp, input: &[f64], label: usize, eta: f64, targets: (f64, f64)) {
    let f = mlp.activation();
    let sizes = mlp.sizes().to_vec();
    let (trace, _) = reference_forward(mlp, input);
    let last = trace.len() - 1;
    let mut deltas = vec![Vec::new(); trace.len()];
    deltas[last] = trace[last]
        .iter()
        .enumerate()
        .map(|(j, &y)| {
            let target = if j == label { targets.1 } else { targets.0 };
            f.derivative_from_output(y) * (target - y)
        })
        .collect();
    for l in (0..last).rev() {
        let next = mlp.layer_weights(l + 1);
        deltas[l] = (0..sizes[l + 1])
            .map(|j| {
                let mut sum = 0.0;
                for (k, &dk) in deltas[l + 1].iter().enumerate() {
                    sum += dk * next[k * (sizes[l + 1] + 1) + j];
                }
                f.derivative_from_output(trace[l][j]) * sum
            })
            .collect();
    }
    for l in 0..=last {
        let fan_in = sizes[l];
        let prev = if l == 0 { input } else { &trace[l - 1][..] };
        let weights = mlp.layer_weights_mut(l);
        for (j, &dj) in deltas[l].iter().enumerate() {
            let step = eta * dj;
            for i in 0..fan_in {
                weights[j * (fan_in + 1) + i] += step * prev[i];
            }
            weights[j * (fan_in + 1) + fan_in] += step;
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn blocked_forward_and_bp_step_are_bit_identical_to_the_serial_loop() {
    check_cases(0x3109, 96, |case, rng| {
        // 1–4 weight layers, widths 1–130: every block remainder occurs.
        let layers = 1 + rng.next_below(4) as usize;
        let sizes: Vec<usize> = (0..=layers)
            .map(|_| 1 + rng.next_below(130) as usize)
            .collect();
        let activation = match rng.next_below(3) {
            0 => Activation::Step,
            _ => Activation::sigmoid_slope(rng.next_range(0.25, 16.0)),
        };
        let mut mlp = Mlp::new(&sizes, activation, rng.next_u64()).unwrap();
        let input: Vec<f64> = (0..sizes[0]).map(|_| rng.next_range(0.0, 1.0)).collect();

        let (trace, potentials) = reference_forward(&mlp, &input);
        let got = mlp.forward_trace(&input);
        assert_eq!(got.len(), trace.len(), "case {case}: {sizes:?}");
        for (l, (g, want)) in got.iter().zip(&trace).enumerate() {
            assert_eq!(bits(g), bits(want), "case {case}: {sizes:?} layer {l}");
        }
        assert_eq!(
            bits(&mlp.forward(&input)),
            bits(&trace[layers - 1]),
            "case {case}: {sizes:?}"
        );
        let readout = match activation {
            Activation::Step => argmax(&potentials),
            Activation::Sigmoid { .. } => argmax(&trace[layers - 1]),
        };
        assert_eq!(mlp.predict(&input), readout, "case {case}: {sizes:?}");

        let label = rng.next_below(sizes[layers] as u64) as usize;
        let config = TrainConfig::default();
        let mut reference = mlp.clone();
        reference_step(
            &mut reference,
            &input,
            label,
            config.learning_rate,
            config.targets,
        );
        Trainer::new(config).step(&mut mlp, &input, label);
        for l in 0..layers {
            assert_eq!(
                bits(mlp.layer_weights(l)),
                bits(reference.layer_weights(l)),
                "case {case}: {sizes:?} layer {l} after one BP step"
            );
        }
    });
}
