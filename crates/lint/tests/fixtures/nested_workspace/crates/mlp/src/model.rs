//! Fixture batch-entry root that calls a free `run`. The only `run` in
//! the tree lives in the nested `perf/` workspace, which the walker
//! skips, so no call edge and no R8 finding can cross into it.

pub struct Mlp {
    dim: usize,
}

impl Mlp {
    /// Scores a batch through a same-named helper.
    pub fn evaluate_batch(&mut self, inputs: &[u8]) -> usize {
        run(inputs)
    }
}
