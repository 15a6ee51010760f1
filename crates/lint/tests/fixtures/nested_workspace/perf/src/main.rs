//! Fixture benchmark driver in a nested workspace: it times itself and
//! keys a hash map, both findings if it were linted with its parent.
//! Its call to `evaluate_batch` is what reaches the parent's
//! `Mlp::evaluate_batch` for R12.

use std::collections::HashMap;
use std::time::Instant;

/// Times one pass over the inputs.
pub fn run(inputs: &[u8]) -> usize {
    let started = Instant::now();
    let mut seen: HashMap<u8, usize> = HashMap::new();
    for &b in inputs {
        *seen.entry(b).or_default() += 1;
    }
    let _ = started.elapsed();
    seen.len()
}

/// Scores one batch through the parent workspace's model.
pub fn score(mlp: &mut mlp::model::Mlp, inputs: &[u8]) -> usize {
    mlp.evaluate_batch(inputs)
}
