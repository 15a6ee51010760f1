//! Fixture clock helpers, one per turbofish call form: fine for
//! nc-bench's own per-file rules, tainted once a determinism root
//! reaches them.

/// Called as `sum_columns::<C>(..)`.
pub fn sum_columns<const C: usize>(inputs: &[u8]) -> usize {
    let start = Instant::now();
    inputs.len() / C
}

pub struct Block<const C: usize>;

impl<const C: usize> Block<C> {
    /// Called as `Block::<C>::fill(..)`.
    pub fn fill(inputs: &[u8]) -> usize {
        let start = Instant::now();
        inputs.len() * C
    }
}

pub struct Meter;

impl Meter {
    /// Called as `meter.tally::<C>(..)`.
    pub fn tally<const C: usize>(&self, inputs: &[u8]) -> usize {
        let start = Instant::now();
        inputs.len() + C
    }
}

pub trait Probe {
    fn read(inputs: &[u8]) -> usize;
}

pub struct Gauge;

impl Probe for Gauge {
    /// Called as `<Gauge as Probe>::read(..)`.
    fn read(inputs: &[u8]) -> usize {
        let start = Instant::now();
        inputs.len()
    }
}
