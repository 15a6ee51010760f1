//! Fixture batch-entry root that calls std methods with a turbofish.
//! The workspace has free functions named `sum` and `parse` that read
//! the clock; a method call of either name must not reach them.

/// A model.
pub struct Mlp {
    label: String,
}

impl Mlp {
    /// Scores a batch.
    pub fn evaluate_batch(&mut self, inputs: &[u8]) -> usize {
        let total = inputs.iter().map(|&x| usize::from(x)).sum::<usize>();
        total + self.label.parse::<usize>().unwrap_or(0)
    }
}
