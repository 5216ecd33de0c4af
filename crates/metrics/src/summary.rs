//! Scalar reductions over duration samples.

use neon_sim::SimDuration;

/// Summary statistics over a set of durations.
///
/// # Example
///
/// ```
/// use neon_metrics::Summary;
/// use neon_sim::SimDuration;
///
/// let samples: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
/// let s = Summary::of(&samples);
/// assert_eq!(s.mean().as_micros(), 50);
/// assert_eq!(s.percentile(50.0).as_micros(), 50);
/// assert_eq!(s.max().as_micros(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    sorted: Vec<SimDuration>,
    total: SimDuration,
}

impl Summary {
    /// Builds a summary; the input need not be sorted.
    pub fn of(samples: &[SimDuration]) -> Self {
        Summary::from_vec(samples.to_vec())
    }

    /// Builds a summary from owned samples, sorting them in place: no
    /// copy. Equal durations are indistinguishable, so an unstable sort
    /// gives the same order as a stable one.
    pub fn from_vec(mut samples: Vec<SimDuration>) -> Self {
        samples.sort_unstable();
        let total = samples.iter().copied().sum();
        Summary {
            sorted: samples,
            total,
        }
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean (zero for an empty summary).
    pub fn mean(&self) -> SimDuration {
        if self.sorted.is_empty() {
            SimDuration::ZERO
        } else {
            self.total / self.sorted.len() as u64
        }
    }

    /// Smallest sample (zero for an empty summary).
    pub fn min(&self) -> SimDuration {
        self.sorted.first().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Largest sample (zero for an empty summary).
    pub fn max(&self) -> SimDuration {
        self.sorted.last().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Nearest-rank percentile, `p` in `[0, 100]` (zero for an empty
    /// summary).
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.max(1) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::of(&[]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = Summary::of(&[us(30), us(10), us(20)]);
        assert_eq!(s.min(), us(10));
        assert_eq!(s.max(), us(30));
        assert_eq!(s.mean(), us(20));
        assert_eq!(s.total(), us(60));
    }

    #[test]
    fn owned_and_borrowed_constructors_agree() {
        let samples = vec![us(30), us(10), us(20), us(10), us(40)];
        let owned = Summary::from_vec(samples.clone());
        assert_eq!(owned, Summary::of(&samples));
        assert_eq!(owned.min(), us(10));
        assert_eq!(owned.percentile(50.0), us(20));
    }

    #[test]
    fn percentile_extremes() {
        let s = Summary::of(&[us(1), us(2), us(3), us(4)]);
        assert_eq!(s.percentile(0.0), us(1));
        assert_eq!(s.percentile(100.0), us(4));
        assert_eq!(s.percentile(25.0), us(1));
        assert_eq!(s.percentile(75.0), us(3));
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[us(7)]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.percentile(50.0), us(7));
        assert_eq!(s.mean(), us(7));
    }
}
