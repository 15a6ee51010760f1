//! Small statistics helpers used by tests, the experiment harness and the
//! report generators (mean/variance, confusion matrices).

/// Running mean/variance accumulator (Welford's algorithm), used to
/// summarize accuracy sweeps and spike statistics without storing samples.
///
/// # Examples
///
/// ```
/// use nc_substrate::stats::Running;
/// let mut r = Running::new();
/// for x in [1.0, 2.0, 3.0] { r.push(x); }
/// assert_eq!(r.mean(), 2.0);
/// assert_eq!(r.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Running {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Running {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut r = Running::new();
        r.extend(iter);
        r
    }
}

/// A square confusion matrix over `classes` labels.
///
/// Rows are true labels, columns predicted labels. Used by both models'
/// evaluation code so accuracy numbers are computed one way everywhere.
///
/// # Examples
///
/// ```
/// use nc_substrate::stats::Confusion;
/// let mut c = Confusion::new(3);
/// c.record(0, 0);
/// c.record(1, 2);
/// assert_eq!(c.total(), 2);
/// assert!((c.accuracy() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Confusion {
    classes: usize,
    counts: Vec<u64>,
}

impl Confusion {
    /// Creates an empty matrix for `classes` labels.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Confusion {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "label out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Count at `(truth, predicted)`.
    pub fn get(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of observations on the diagonal (0 if empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|i| self.get(i, i)).sum();
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let r: Running = xs.iter().copied().collect();
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_safe() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn confusion_accuracy_is_the_diagonal_share() {
        let mut c = Confusion::new(2);
        c.record(0, 0);
        c.record(0, 0);
        c.record(0, 1);
        c.record(1, 1);
        assert!((c.accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn confusion_rejects_bad_labels() {
        let mut c = Confusion::new(2);
        c.record(0, 2);
    }
}
