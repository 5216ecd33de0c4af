//! Bad: tests that pass or fail with the host's speed.

pub struct SweepOutcome {
    pub wall: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn sweep(threads: usize) -> SweepOutcome {
        let start = Instant::now();
        let _ = threads;
        SweepOutcome {
            wall: start.elapsed(),
        }
    }

    #[test]
    fn parallel_is_faster() {
        let (serial, parallel) = (sweep(1), sweep(2));
        assert!(parallel.wall < serial.wall);
    }

    #[test]
    fn finishes_within_budget() {
        let start = Instant::now();
        let _ = sweep(1);
        assert!(start.elapsed() <= Duration::from_millis(50), "too slow");
        let elapsed = start.elapsed();
        assert_ne!(elapsed, Duration::ZERO);
    }
}
