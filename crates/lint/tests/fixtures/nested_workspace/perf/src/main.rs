//! Fixture benchmark driver in a nested workspace: it times itself and
//! keys a hash map, both findings if it were linted with its parent.

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
