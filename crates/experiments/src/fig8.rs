//! Figure 8: fairness and efficiency with four concurrent
//! applications.
//!
//! One large-request Throttle plus three small-request applications
//! (BinarySearch, DCT, FFT). With four co-runners the expected fair
//! slowdown is 4–5×; efficiency drops more under the fully engaged
//! scheduler than under the disengaged ones.
//!
//! Each scheduler column and each standalone baseline is an
//! independent deterministic cell, so the harness rides
//! `neon-scenario`'s parallel sweep runner; the four-way mix is a
//! static all-at-start scenario and reproduces one bare `World` running
//! the mix exactly (tested below against the test-only
//! `pairwise::reference_compare`).

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::pairwise;

/// Configuration of the Figure 8 run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of the four-way run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request size (the paper uses a large-request Throttle).
    pub throttle_size: SimDuration,
    /// Schedulers to compare.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: SimDuration::from_millis(3_000),
            seed: pairwise::DEFAULT_SEED,
            throttle_size: SimDuration::from_micros(1_700),
            schedulers: SchedulerKind::PAPER.to_vec(),
        }
    }
}

/// Outcome of the four-way mix under one scheduler.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Per-task `(name, slowdown)` — Throttle, BinarySearch, DCT, FFT.
    pub slowdowns: Vec<(String, f64)>,
    /// Concurrency efficiency of the mix.
    pub efficiency: f64,
}

fn groups(cfg: &Config) -> Vec<TenantGroup> {
    let mut groups = vec![pairwise::throttle_group(cfg.throttle_size, 0.0)];
    for app in ["BinarySearch", "DCT", "FFT"] {
        groups.push(TenantGroup::new(
            app,
            WorkloadSpec::App {
                name: app.to_string(),
            },
        ));
    }
    groups
}

/// Runs the four-way comparison under each scheduler, in parallel:
/// one single-cell baseline scenario per workload plus one mix
/// scenario whose scheduler axis is the figure's columns.
pub fn run(cfg: &Config) -> Vec<Row> {
    let members = groups(cfg);
    let mut specs: Vec<ScenarioSpec> = members
        .iter()
        .map(|g| pairwise::baseline(g.clone(), cfg.seed))
        .collect();
    let mut mix = ScenarioSpec::new("fig8-mix", cfg.horizon)
        .seeds(vec![cfg.seed])
        .schedulers(cfg.schedulers.clone());
    for g in &members {
        mix = mix.group(g.clone());
    }
    specs.push(mix);

    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    let alone: Vec<SimDuration> = (0..members.len())
        .map(|i| pairwise::mean_round(&outcome.results[i].report, 0))
        .collect();
    cfg.schedulers
        .iter()
        .enumerate()
        .map(|(k, &scheduler)| {
            let report = &outcome.results[members.len() + k].report;
            let (slowdowns, efficiency) =
                pairwise::compare(&alone, &pairwise::concurrent_rounds(report));
            Row {
                scheduler,
                slowdowns: report
                    .tasks
                    .iter()
                    .map(|t| t.name.clone())
                    .zip(slowdowns)
                    .collect(),
                efficiency,
            }
        })
        .collect()
}

/// Renders the fairness bars plus the efficiency line.
pub fn render(rows: &[Row]) -> String {
    let mut headers = vec!["scheduler".to_string()];
    if let Some(first) = rows.first() {
        for (name, _) in &first.slowdowns {
            headers.push(name.clone());
        }
    }
    headers.push("efficiency".into());
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.scheduler.label().to_string()];
        for (_, s) in &r.slowdowns {
            cells.push(format!("{s:.2}x"));
        }
        cells.push(format!("{:.2}", r.efficiency));
        table.row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;
    use neon_core::SchedParams;
    use neon_workloads::{app, throttle};

    #[test]
    fn disengaged_ts_keeps_four_way_slowdowns_near_fair() {
        let cfg = Config {
            horizon: SimDuration::from_millis(1_200),
            schedulers: vec![SchedulerKind::DisengagedTimeslice],
            ..Config::default()
        };
        let rows = run(&cfg);
        for (name, s) in &rows[0].slowdowns {
            assert!(
                (2.5..6.5).contains(s),
                "{name}: slowdown {s:.2} outside 4-way fair band"
            );
        }
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_pairwise_path() {
        let cfg = Config {
            horizon: SimDuration::from_millis(800),
            schedulers: vec![SchedulerKind::DisengagedFairQueueing],
            ..Config::default()
        };
        let rows = run(&cfg);

        let (report, slowdowns, efficiency) = pairwise::reference_compare(
            SchedulerKind::DisengagedFairQueueing,
            SchedParams::default(),
            WorldConfig {
                seed: cfg.seed,
                ..WorldConfig::default()
            },
            vec![
                Box::new(throttle::saturating(cfg.throttle_size)),
                Box::new(app::binary_search()),
                Box::new(app::dct()),
                Box::new(app::fft()),
            ],
            cfg.horizon,
            pairwise::ALONE_HORIZON,
        );
        assert_eq!(rows[0].efficiency, efficiency);
        for ((ported, task), old) in rows[0].slowdowns.iter().zip(&report.tasks).zip(&slowdowns) {
            assert_eq!(ported.0, task.name);
            assert_eq!(ported.1, *old, "{}", task.name);
        }
    }
}
