//! Fixture batch-entry root for the determinism-taint rule: it reaches
//! four clock reads, each only through one turbofish call form.

pub struct Mlp {
    meter: Meter,
}

impl Mlp {
    /// Scores a batch through every generic call form.
    pub fn evaluate_batch(&mut self, inputs: &[u8]) -> usize {
        let free = sum_columns::<4>(inputs);
        let assoc = Block::<4>::fill(inputs);
        let method = self.meter.tally::<4>(inputs);
        let qualified = <Gauge as Probe>::read(inputs);
        free + assoc + method + qualified
    }
}
