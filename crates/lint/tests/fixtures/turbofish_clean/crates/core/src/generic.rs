//! Fixture library whose public functions the binary reaches only
//! through turbofish calls.

/// Called as `widen::<N>(..)`.
pub fn widen<const N: usize>(x: usize) -> usize {
    x * N
}

/// A block of `N` lanes.
pub struct Lanes<const N: usize>;

impl<const N: usize> Lanes<N> {
    /// Called as `Lanes::<N>::fill(..)`.
    pub fn fill(x: usize) -> usize {
        x + N
    }
}

/// A counter.
pub struct Meter;

impl Meter {
    /// Called as `meter.tally::<N>(..)`.
    pub fn tally<const N: usize>(&self, x: usize) -> usize {
        x - N
    }
}

/// A reading with a provided method.
pub trait Probe {
    /// Runs for every implementor that keeps it, as
    /// `<Gauge as Probe>::read(..)` does.
    fn read(x: usize) -> usize {
        gauge_reading(x)
    }
}

/// A probe that keeps the provided `read`.
pub struct Gauge;

impl Probe for Gauge {}

/// Reached only through the provided `Probe::read`.
pub fn gauge_reading(x: usize) -> usize {
    x / 2
}
