//! Table 1: per-application round and request times, standalone under
//! direct device access.
//!
//! The paper's Table 1 reports, for each benchmark, the run time of one
//! performance "round" and the average acceleration request size when
//! running alone. This harness replays each application model under
//! direct access and compares the measured values against the
//! published ones — it is the calibration check for the workload
//! models.
//!
//! Each application's standalone run is an independent deterministic
//! cell, so the harness rides `neon-scenario`'s parallel sweep
//! runner: one request-recording single-cell scenario per application,
//! read back in plan order. The results are identical to running each
//! application on one bare `World` (tested below against the test-only
//! `pairwise::reference_run`).

use neon_core::sched::SchedulerKind;
use neon_core::RunReport;
use neon_gpu::RequestKind;
use neon_metrics::{Summary, Table};
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;
use neon_workloads::app::{all_apps, AppSpec};

use crate::pairwise;

/// Configuration of the Table 1 harness.
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
    /// The reduced configuration used by `table1 --check` in CI.
    pub fn check() -> Self {
        Config {
            horizon: SimDuration::from_millis(300),
            ..Config::default()
        }
    }
}

/// One application's measured-vs-paper comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub name: &'static str,
    /// Problem area.
    pub area: &'static str,
    /// Paper-reported µs per round.
    pub paper_round_us: f64,
    /// Measured µs per round.
    pub measured_round_us: f64,
    /// Paper-reported µs per request (compute; combined apps report
    /// the compute figure here as the paper lists both).
    pub paper_request_us: f64,
    /// Measured mean *main* compute-request service µs (trivial
    /// requests are never checked for completion and are excluded, as
    /// in the paper).
    pub measured_request_us: f64,
    /// Paper-reported µs per graphics request, for combined apps.
    pub paper_graphics_us: Option<f64>,
    /// Measured mean graphics-request service µs, for combined apps.
    pub measured_graphics_us: Option<f64>,
    /// Rounds measured.
    pub rounds: usize,
}

impl Row {
    /// Relative error of the measured round vs the paper's.
    pub fn round_error(&self) -> f64 {
        (self.measured_round_us - self.paper_round_us).abs() / self.paper_round_us
    }
}

/// Runs every Table 1 application standalone under direct access —
/// one request-recording cell per application, through the parallel
/// sweep runner.
pub fn run(cfg: &Config) -> Vec<Row> {
    let apps = all_apps();
    let specs: Vec<ScenarioSpec> = apps
        .iter()
        .map(|app| {
            ScenarioSpec::new(format!("alone:{}", app.name), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .record_requests(true)
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
    // One cell per application, in push (= plan) order.
    apps.iter()
        .zip(&outcome.results)
        .map(|(app, cell)| measure(app, &cell.report))
        .collect()
}

fn measure(app: &AppSpec, report: &RunReport) -> Row {
    let task = &report.tasks[0];
    let round = pairwise::mean_round(report, 0);
    // Exclude trivial (aux) requests, which the paper's measurement
    // cannot see: they are never checked for completion. Anything at or
    // below 2µs of service is the aux class. Combined applications
    // report compute and graphics separately, as the paper does.
    let by_kind = |kind: RequestKind| -> Vec<SimDuration> {
        task.service_times
            .iter()
            .zip(&task.service_kinds)
            .filter(|(s, k)| **s > SimDuration::from_micros(2) && **k == kind)
            .map(|(s, _)| *s)
            .collect()
    };
    let compute = Summary::from_vec(by_kind(RequestKind::Compute));
    let graphics = Summary::from_vec(by_kind(RequestKind::Graphics));
    // Graphics-only apps (glxgears) report their graphics mean in the
    // main request column, matching Table 1's single figure for them.
    let measured_request_us = if compute.is_empty() {
        graphics.mean().as_micros_f64()
    } else {
        compute.mean().as_micros_f64()
    };
    Row {
        name: app.name,
        area: app.area,
        paper_round_us: app.paper_round_us,
        measured_round_us: round.as_micros_f64(),
        paper_request_us: app.paper_request_us,
        measured_request_us,
        paper_graphics_us: if app.compute_per_round > 0 {
            app.paper_graphics_us
        } else {
            None
        },
        measured_graphics_us: if app.compute_per_round > 0 && !graphics.is_empty() {
            Some(graphics.mean().as_micros_f64())
        } else {
            None
        },
        rounds: task.rounds_completed(),
    }
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "Application".into(),
        "Area".into(),
        "paper us/round".into(),
        "measured us/round".into(),
        "paper us/request".into(),
        "measured us/request".into(),
        "rounds".into(),
    ]);
    for r in rows {
        let paper_req = match r.paper_graphics_us {
            Some(g) => format!("{:.0}/{:.0}", r.paper_request_us, g),
            None => format!("{:.0}", r.paper_request_us),
        };
        let measured_req = match r.measured_graphics_us {
            Some(g) => format!("{:.0}/{:.0}", r.measured_request_us, g),
            None => format!("{:.0}", r.measured_request_us),
        };
        table.row(vec![
            r.name.into(),
            r.area.into(),
            format!("{:.0}", r.paper_round_us),
            format!("{:.0}", r.measured_round_us),
            paper_req,
            measured_req,
            r.rounds.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;
    use neon_core::SchedParams;

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly: identical recorded request streams,
        // so every measured figure is bit-identical.
        let cfg = Config {
            horizon: SimDuration::from_millis(250),
            ..Config::default()
        };
        let rows = run(&cfg);
        for (row, app) in rows.iter().zip(all_apps().iter()) {
            let config = WorldConfig {
                seed: cfg.seed,
                record_requests: true,
                ..WorldConfig::default()
            };
            let report = pairwise::reference_run(
                SchedulerKind::Direct,
                SchedParams::default(),
                config,
                vec![Box::new(app.build())],
                cfg.horizon,
            );
            let serial = measure(app, &report);
            assert_eq!(
                row.measured_round_us, serial.measured_round_us,
                "{}",
                app.name
            );
            assert_eq!(
                row.measured_request_us, serial.measured_request_us,
                "{}",
                app.name
            );
            assert_eq!(
                row.measured_graphics_us, serial.measured_graphics_us,
                "{}",
                app.name
            );
            assert_eq!(row.rounds, serial.rounds, "{}", app.name);
        }
    }

    #[test]
    fn measured_rounds_match_paper_within_tolerance() {
        let cfg = Config {
            horizon: SimDuration::from_millis(300),
            ..Config::default()
        };
        for row in run(&cfg) {
            assert!(
                row.round_error() < 0.15,
                "{}: measured {:.0}us vs paper {:.0}us",
                row.name,
                row.measured_round_us,
                row.paper_round_us
            );
            assert!(row.rounds > 10, "{}: too few rounds", row.name);
        }
    }
}
