//! Allowed: assertions on simulated quantities, host time that is
//! measured but never compared in an assertion, one justified
//! simulated `.wall` field, and mentions in comments and strings.

pub struct RunReport {
    /// Simulated span of the run.
    pub wall: u64,
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn run(horizon: u64) -> RunReport {
        RunReport {
            wall: horizon,
            events: horizon / 10,
        }
    }

    #[test]
    fn simulated_results_are_asserted() {
        let start = Instant::now();
        let (a, b) = (run(1_000), run(1_000));
        assert_eq!(a.events, b.events);
        assert!(a.events > 0, "assert!(start.elapsed() < budget) in a string");
        // assert!(parallel.wall < serial.wall) in a comment
        // lint: allow(wall-clock-assert) — RunReport::wall is simulated time
        assert!(a.wall <= 1_000);
        println!("took {:?}", start.elapsed());
    }
}
