//! Figure 2: CDFs of request inter-arrival and service periods.
//!
//! The paper plots, for glxgears, oclParticles and oclSimpleTexture3D
//! running alone, the distribution of (a) the time between consecutive
//! request submissions and (b) request service times, over log₂(µs)
//! bins — evidence that "a large percentage of arriving requests are
//! short and submitted in short intervals".
//!
//! The three standalone runs are independent deterministic cells, so
//! this harness rides `neon-scenario`'s parallel sweep runner: one
//! request-recording single-cell scenario per application, fanned out
//! across OS threads and read back in plan order. The results are
//! identical to running each application on one bare `World` (tested
//! below against the test-only `pairwise::reference_run`).

use neon_core::sched::SchedulerKind;
use neon_metrics::Log2Cdf;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;
use neon_workloads::app;

use crate::pairwise;

/// Number of log₂ bins (the paper's x-axis reaches 2¹⁷ µs).
pub const BINS: usize = 18;

/// Configuration of the Figure 2 harness.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each standalone run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::ALONE_HORIZON,
            seed: pairwise::DEFAULT_SEED,
        }
    }
}

impl Config {
    /// The reduced configuration used by `fig2 --check` in CI.
    pub fn check() -> Self {
        Config {
            horizon: SimDuration::from_millis(200),
            ..Config::default()
        }
    }
}

/// Distributions for one application.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub name: &'static str,
    /// Inter-arrival period distribution.
    pub inter_arrival: Log2Cdf,
    /// Service period distribution.
    pub service: Log2Cdf,
}

/// The three applications of Figure 2.
pub fn applications() -> Vec<&'static str> {
    vec!["glxgears", "oclParticles", "simpleTexture3D"]
}

/// Runs each application standalone — one request-recording cell per
/// application, through the parallel sweep runner — and collects the
/// distributions.
pub fn run(cfg: &Config) -> Vec<Row> {
    let specs: Vec<ScenarioSpec> = applications()
        .into_iter()
        .map(|name| {
            ScenarioSpec::new(format!("alone:{name}"), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .record_requests(true)
                .group(TenantGroup::new(
                    name,
                    WorkloadSpec::App {
                        name: name.to_string(),
                    },
                ))
        })
        .collect();
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);
    // One cell per application, in push (= plan) order.
    applications()
        .into_iter()
        .zip(&outcome.results)
        .map(|(name, cell)| {
            // lint: allow(unchecked-unwrap) — iterates names taken from the
            // static app table itself
            let spec = app::app_by_name(name).expect("figure 2 app exists");
            let task = &cell.report.tasks[0];
            let mut inter_arrival = Log2Cdf::new(BINS);
            inter_arrival.extend(
                task.submit_times
                    .windows(2)
                    .map(|w| w[1].saturating_duration_since(w[0])),
            );
            let mut service = Log2Cdf::new(BINS);
            service.extend(task.service_times.iter().copied());
            Row {
                name: spec.name,
                inter_arrival,
                service,
            }
        })
        .collect()
}

/// Renders both CDFs as text tables (bin → cumulative %).
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for (title, pick_arrival) in [
        ("Request Inter-Arrival Period", true),
        ("Request Service Period", false),
    ] {
        out.push_str(&format!("== {title} (log2 us bins, cumulative %) ==\n"));
        out.push_str("bin");
        for r in rows {
            out.push_str(&format!("  {:>16}", r.name));
        }
        out.push('\n');
        for bin in 0..BINS {
            out.push_str(&format!("{bin:>3}"));
            for r in rows {
                let cdf = if pick_arrival {
                    &r.inter_arrival
                } else {
                    &r.service
                };
                out.push_str(&format!("  {:>15.1}%", cdf.cumulative_percent(bin)));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly: same request-recording flag, seed and
        // admission path, so the CDFs are bin-for-bin identical.
        let cfg = Config {
            horizon: SimDuration::from_millis(200),
            ..Config::default()
        };
        let rows = run(&cfg);
        for (row, name) in rows.iter().zip(applications()) {
            let config = WorldConfig {
                seed: cfg.seed,
                record_requests: true,
                ..WorldConfig::default()
            };
            let spec = app::app_by_name(name).unwrap();
            let report = pairwise::reference_run(
                SchedulerKind::Direct,
                config,
                vec![Box::new(spec.build())],
                cfg.horizon,
            );
            let task = &report.tasks[0];
            let mut inter_arrival = Log2Cdf::new(BINS);
            inter_arrival.extend(
                task.submit_times
                    .windows(2)
                    .map(|w| w[1].saturating_duration_since(w[0])),
            );
            let mut service = Log2Cdf::new(BINS);
            service.extend(task.service_times.iter().copied());
            assert_eq!(row.inter_arrival, inter_arrival, "{name}");
            assert_eq!(row.service, service, "{name}");
        }
    }

    #[test]
    fn short_requests_dominate() {
        let cfg = Config {
            horizon: SimDuration::from_millis(200),
            ..Config::default()
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.inter_arrival.total() > 100, "{}: too few samples", r.name);
            // The paper's observation: a large share of requests arrive
            // back-to-back (within ~10µs of the previous one, bin ≤ 3).
            assert!(
                r.inter_arrival.cumulative_percent(3) > 30.0,
                "{}: inter-arrival not short enough ({:.0}%)",
                r.name,
                r.inter_arrival.cumulative_percent(3)
            );
            // Service times sit below ~1ms (bin 10).
            assert!(
                r.service.cumulative_percent(10) > 95.0,
                "{}: services too long",
                r.name
            );
        }
    }
}
