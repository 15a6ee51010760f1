//! Randomized invariant tests for the MLP and its quantized hardware path.
//!
//! Formerly proptest-based; converted to a deterministic std-only harness
//! (seeded [`SplitMix64`] case generation) so the workspace builds and
//! tests fully offline.

use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::{Model, RequestSlab};
use nc_mlp::network::argmax;
use nc_mlp::{Activation, Mlp, QuantizedMlp};
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
