//! Figure 5: standalone Throttle slowdown under each policy, across a
//! range of request sizes.
//!
//! The controlled companion to Figure 4: per-request interception cost
//! shrinks relative to request size, so the engaged Timeslice overhead
//! decays from severe (tens of percent at ~20 µs) to negligible at
//! 1.7 ms, while the disengaged policies stay flat and low.
//!
//! Every (size, scheduler) run is an independent deterministic cell,
//! so this harness rides `neon-scenario`'s parallel sweep runner: one
//! scenario per request size whose scheduler axis is direct access
//! followed by the compared policies, read back in plan order. The
//! results are identical to running each cell on one bare `World`
//! (tested below against the test-only `pairwise::reference_run`).

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::pairwise;

/// Configuration of the Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each standalone run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request sizes.
    pub sizes: Vec<SimDuration>,
    /// Schedulers to compare against direct access.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::ALONE_HORIZON,
            seed: pairwise::DEFAULT_SEED,
            sizes: vec![
                SimDuration::from_micros(19),
                SimDuration::from_micros(50),
                SimDuration::from_micros(110),
                SimDuration::from_micros(220),
                SimDuration::from_micros(430),
                SimDuration::from_micros(860),
                SimDuration::from_micros(1700),
            ],
            schedulers: vec![
                SchedulerKind::Timeslice,
                SchedulerKind::DisengagedTimeslice,
                SchedulerKind::DisengagedFairQueueing,
            ],
        }
    }
}

impl Config {
    /// The reduced configuration used by `fig5 --check` in CI.
    pub fn check() -> Self {
        Config {
            horizon: SimDuration::from_millis(300),
            sizes: vec![SimDuration::from_micros(19), SimDuration::from_micros(1700)],
            schedulers: vec![SchedulerKind::Timeslice],
            ..Config::default()
        }
    }
}

/// Slowdowns at one request size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Throttle request size.
    pub size: SimDuration,
    /// Per-scheduler slowdown relative to direct access.
    pub slowdowns: Vec<(SchedulerKind, f64)>,
}

impl Row {
    /// Slowdown under a specific scheduler, if measured.
    pub fn slowdown(&self, kind: SchedulerKind) -> Option<f64> {
        self.slowdowns
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
    }
}

fn throttle_group(size: SimDuration) -> TenantGroup {
    TenantGroup::new(
        format!("throttle-{size}"),
        WorkloadSpec::Throttle {
            request: size,
            off_ratio: 0.0,
            // Throttle's constructor default; spelled out because the
            // scenario spec's default of 0.0 would diverge from the
            // serial harness this port must reproduce exactly.
            jitter: 0.02,
        },
    )
}

/// Runs the sweep through the parallel sweep runner: one scenario per
/// request size, with direct access leading each scenario's scheduler
/// axis as the normalization baseline.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut axis = vec![SchedulerKind::Direct];
    axis.extend(cfg.schedulers.iter().copied());
    let specs: Vec<ScenarioSpec> = cfg
        .sizes
        .iter()
        .map(|&size| {
            ScenarioSpec::new(format!("throttle-{size}"), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(axis.clone())
                .group(throttle_group(size))
        })
        .collect();
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);
    // Plan order is scenario-major, scheduler-minor: cell
    // (i * |axis|) is size i under direct access, then the compared
    // policies in axis order.
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let at = |k: usize| &outcome.results[i * axis.len() + k].report;
            let base = pairwise::mean_round(at(0), 0);
            let slowdowns = cfg
                .schedulers
                .iter()
                .enumerate()
                .map(|(k, &kind)| (kind, pairwise::mean_round(at(k + 1), 0).ratio(base)))
                .collect();
            Row { size, slowdowns }
        })
        .collect()
}

/// Renders the overhead table.
pub fn render(rows: &[Row]) -> String {
    let mut headers = vec!["request size".to_string()];
    if let Some(first) = rows.first() {
        for (kind, _) in &first.slowdowns {
            headers.push(format!("{} overhead", kind.label()));
        }
    }
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.size.to_string()];
        for (_, s) in &r.slowdowns {
            cells.push(format!("{:+.1}%", (s - 1.0) * 100.0));
        }
        table.row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;
    use neon_core::SchedParams;
    use neon_workloads::throttle;

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly — same seed, workload jitter and
        // admission path — so every slowdown ratio is bit-identical.
        let cfg = Config {
            horizon: SimDuration::from_millis(250),
            sizes: vec![SimDuration::from_micros(50), SimDuration::from_micros(430)],
            schedulers: vec![
                SchedulerKind::Timeslice,
                SchedulerKind::DisengagedFairQueueing,
            ],
            ..Config::default()
        };
        let rows = run(&cfg);
        let alone = |kind: SchedulerKind, size: SimDuration| {
            let config = WorldConfig {
                seed: cfg.seed,
                ..WorldConfig::default()
            };
            let workload = Box::new(throttle::saturating(size));
            let report = pairwise::reference_run(
                kind,
                SchedParams::default(),
                config,
                vec![workload],
                cfg.horizon,
            );
            pairwise::mean_round(&report, 0)
        };
        for (row, &size) in rows.iter().zip(&cfg.sizes) {
            let base = alone(SchedulerKind::Direct, size);
            for &(kind, slowdown) in &row.slowdowns {
                let serial = alone(kind, size).ratio(base);
                assert_eq!(slowdown, serial, "{size} under {}", kind.label());
            }
        }
    }

    #[test]
    fn engaged_overhead_decays_with_request_size() {
        let cfg = Config {
            horizon: SimDuration::from_millis(300),
            sizes: vec![SimDuration::from_micros(19), SimDuration::from_micros(1700)],
            schedulers: vec![SchedulerKind::Timeslice],
            ..Config::default()
        };
        let rows = run(&cfg);
        let small = rows[0].slowdown(SchedulerKind::Timeslice).unwrap();
        let large = rows[1].slowdown(SchedulerKind::Timeslice).unwrap();
        assert!(small > 1.3, "small requests must hurt ({small:.2})");
        assert!(large < 1.05, "large requests must not ({large:.2})");
    }
}
