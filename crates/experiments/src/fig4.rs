//! Figure 4: standalone application slowdown under each scheduling
//! policy compared to direct device access.
//!
//! The engaged Timeslice scheduler pays the interception cost on every
//! request and hurts small-request applications badly (the paper
//! reports 38 % for BitonicSort, 30 % for FastWalshTransform, 40 % for
//! FloydWarshall); Disengaged Timeslice stays within ~2 % and
//! Disengaged Fair Queueing within ~5 %.
//!
//! This harness runs through `neon-scenario`'s parallel sweep runner:
//! each (application, scheduler) cell is an independent deterministic
//! `World`, fanned out across OS threads. Cells are built as static
//! (all-at-start, run-forever) scenarios, which take the classic
//! admission path — results are identical to running each cell on one
//! bare `World` (tested below against the test-only
//! `pairwise::reference_run`).

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;
use neon_workloads::app::all_apps;

use crate::pairwise;

/// Configuration of the Figure 4 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each standalone run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Schedulers to compare against direct access.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::ALONE_HORIZON,
            seed: pairwise::DEFAULT_SEED,
            schedulers: vec![
                SchedulerKind::Timeslice,
                SchedulerKind::DisengagedTimeslice,
                SchedulerKind::DisengagedFairQueueing,
            ],
        }
    }
}

/// One application's standalone slowdowns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub name: &'static str,
    /// Per-scheduler slowdown relative to direct access
    /// (1.0 = no overhead), ordered as in the config.
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

/// Runs the full standalone sweep, in parallel (one cell per
/// application × scheduler, the direct-access baseline first).
pub fn run(cfg: &Config) -> Vec<Row> {
    let apps = all_apps();
    let mut schedulers = vec![SchedulerKind::Direct];
    schedulers.extend(cfg.schedulers.iter().copied());
    let specs: Vec<ScenarioSpec> = apps
        .iter()
        .map(|app| {
            ScenarioSpec::new(app.name, cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(schedulers.clone())
                .group(TenantGroup::new(
                    app.name,
                    WorkloadSpec::App {
                        name: app.name.to_string(),
                    },
                ))
        })
        .collect();
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Plan order is scenario-major, scheduler-minor with a single
    // seed: app i's cells occupy a contiguous block, baseline first.
    let per_app = schedulers.len();
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            let base = pairwise::mean_round(&outcome.results[i * per_app].report, 0);
            let slowdowns = cfg
                .schedulers
                .iter()
                .enumerate()
                .map(|(j, &kind)| {
                    let report = &outcome.results[i * per_app + 1 + j].report;
                    (kind, pairwise::mean_round(report, 0).ratio(base))
                })
                .collect();
            Row {
                name: app.name,
                slowdowns,
            }
        })
        .collect()
}

/// Renders slowdowns as percentage overhead per scheduler.
pub fn render(rows: &[Row]) -> String {
    let mut headers = vec!["Application".to_string()];
    if let Some(first) = rows.first() {
        for (kind, _) in &first.slowdowns {
            headers.push(format!("{} overhead", kind.label()));
        }
    }
    let mut table = Table::new(headers);
    for r in rows {
        let mut cells = vec![r.name.to_string()];
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

    /// Mean round of Table 1's `app` running alone under `kind` on the
    /// bare-World reference.
    fn reference_round(cfg: &Config, app: &str, kind: SchedulerKind) -> SimDuration {
        let app = neon_workloads::app::app_by_name(app).unwrap();
        let config = WorldConfig {
            seed: cfg.seed,
            ..WorldConfig::default()
        };
        let report =
            pairwise::reference_run(kind, config, vec![Box::new(app.build())], cfg.horizon);
        pairwise::mean_round(&report, 0)
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly (static cells take the same admission path
        // and seed).
        let cfg = Config {
            horizon: SimDuration::from_millis(200),
            schedulers: vec![SchedulerKind::DisengagedTimeslice],
            ..Config::default()
        };
        let rows = run(&cfg);
        let row = rows
            .iter()
            .find(|r| r.name == "BinarySearch")
            .expect("BinarySearch in Table 1");
        let ported = row
            .slowdown(SchedulerKind::DisengagedTimeslice)
            .expect("measured");

        let base = reference_round(&cfg, "BinarySearch", SchedulerKind::Direct);
        let round = reference_round(&cfg, "BinarySearch", SchedulerKind::DisengagedTimeslice);
        let serial = round.ratio(base);
        assert_eq!(ported, serial, "ported {ported} vs serial {serial}");
    }

    #[test]
    fn disengaged_overheads_stay_low_for_a_sample_app() {
        let cfg = Config {
            horizon: SimDuration::from_millis(300),
            ..Config::default()
        };
        // Full sweep is covered by integration tests; keep the unit
        // test to one representative application for speed.
        let bounds = [
            (SchedulerKind::Timeslice, 1.45),
            (SchedulerKind::DisengagedTimeslice, 1.06),
            (SchedulerKind::DisengagedFairQueueing, 1.09),
        ];
        let mut axis = vec![SchedulerKind::Direct];
        axis.extend(bounds.iter().map(|&(kind, _)| kind));
        let spec = ScenarioSpec::new("FastWalshTransform", cfg.horizon)
            .seeds(vec![cfg.seed])
            .schedulers(axis)
            .group(TenantGroup::new(
                "FastWalshTransform",
                WorkloadSpec::App {
                    name: "FastWalshTransform".to_string(),
                },
            ));
        let outcome = sweep::run_parallel(&sweep::plan([spec]), None);
        let round = |k: usize| pairwise::mean_round(&outcome.results[k].report, 0);
        for (k, &(kind, bound)) in bounds.iter().enumerate() {
            let slowdown = round(k + 1).ratio(round(0));
            assert!(
                slowdown < bound,
                "{}: slowdown {slowdown:.3} above bound {bound}",
                kind.label()
            );
        }
    }
}
