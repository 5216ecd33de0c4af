//! Figure 9: performance and fairness for nonsaturating workloads.
//!
//! DCT runs against a Throttle that sleeps a configurable share of its
//! standalone execution ("off" ratio 0–80 %). Under the (non
//! work-conserving) timeslice schedulers the idle share of Throttle's
//! slices is wasted; under Disengaged Fair Queueing Throttle barely
//! suffers while DCT soaks up the idle capacity — "fairness does not
//! necessarily require co-runners to suffer equally".
//!
//! This harness rides `neon-scenario`'s parallel sweep runner: the
//! standalone baselines (DCT, plus one Throttle per off ratio) and
//! every (off ratio, scheduler) mix are independent deterministic
//! cells fanned out across OS threads. Mixes are static all-at-start
//! scenarios, which take the classic admission path — results are
//! identical to running each mix on one bare `World` (tested below
//! against the test-only `pairwise::reference_compare`).

use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::pairwise;

/// Configuration of the Figure 9/10 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request size.
    pub throttle_size: SimDuration,
    /// Off ratios to sweep.
    pub off_ratios: Vec<f64>,
    /// Schedulers to compare.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::MIX_HORIZON,
            seed: pairwise::DEFAULT_SEED,
            throttle_size: SimDuration::from_micros(430),
            off_ratios: vec![0.0, 0.2, 0.4, 0.6, 0.8],
            schedulers: SchedulerKind::PAPER.to_vec(),
        }
    }
}

/// One (off ratio, scheduler) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Throttle's off ratio.
    pub off_ratio: f64,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// DCT slowdown vs running alone.
    pub dct_slowdown: f64,
    /// Throttle slowdown vs running alone.
    pub throttle_slowdown: f64,
    /// Concurrency efficiency (consumed by Figure 10).
    pub efficiency: f64,
}

fn dct_group() -> TenantGroup {
    TenantGroup::new(
        "DCT",
        WorkloadSpec::App {
            name: "DCT".to_string(),
        },
    )
}

/// Runs the sweep through the parallel sweep runner: one block of
/// standalone direct-access baselines (DCT, then one Throttle per off
/// ratio), then one scenario per off ratio whose scheduler axis is the
/// figure's columns.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut specs = vec![pairwise::baseline(dct_group(), cfg.seed)];
    for &off in &cfg.off_ratios {
        specs.push(pairwise::baseline(
            pairwise::throttle_group(cfg.throttle_size, off),
            cfg.seed,
        ));
    }
    for &off in &cfg.off_ratios {
        specs.push(
            ScenarioSpec::new(format!("DCT+off{off}"), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(cfg.schedulers.clone())
                .group(dct_group())
                .group(pairwise::throttle_group(cfg.throttle_size, off)),
        );
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Baselines occupy the first 1 + |off_ratios| cells, in push order.
    let alone = |cell: usize| pairwise::mean_round(&outcome.results[cell].report, 0);
    let mix_base = 1 + cfg.off_ratios.len();
    let per_mix = cfg.schedulers.len();

    let mut rows = Vec::new();
    for (j, &off) in cfg.off_ratios.iter().enumerate() {
        let baselines = [alone(0), alone(1 + j)];
        for (k, &scheduler) in cfg.schedulers.iter().enumerate() {
            let report = &outcome.results[mix_base + j * per_mix + k].report;
            let (slowdowns, efficiency) =
                pairwise::compare(&baselines, &pairwise::concurrent_rounds(report));
            rows.push(Row {
                off_ratio: off,
                scheduler,
                dct_slowdown: slowdowns[0],
                throttle_slowdown: slowdowns[1],
                efficiency,
            });
        }
    }
    rows
}

/// Renders the fairness table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "off ratio".into(),
        "scheduler".into(),
        "DCT slowdown".into(),
        "Throttle slowdown".into(),
    ]);
    for r in rows {
        table.row(vec![
            format!("{:.0}%", r.off_ratio * 100.0),
            r.scheduler.label().into(),
            format!("{:.2}x", r.dct_slowdown),
            format!("{:.2}x", r.throttle_slowdown),
        ]);
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
    fn dfq_lets_dct_exploit_throttle_idleness() {
        let cfg = Config {
            horizon: SimDuration::from_millis(800),
            off_ratios: vec![0.8],
            schedulers: vec![
                SchedulerKind::DisengagedTimeslice,
                SchedulerKind::DisengagedFairQueueing,
            ],
            ..Config::default()
        };
        let rows = run(&cfg);
        let ts = &rows[0];
        let dfq = &rows[1];
        // Timeslice wastes Throttle's idle slices: DCT pays ~2x. DFQ is
        // (nearly) work conserving: DCT does clearly better, and
        // Throttle is barely slowed.
        assert!(ts.dct_slowdown > 1.8, "ts: {:.2}", ts.dct_slowdown);
        assert!(
            dfq.dct_slowdown < ts.dct_slowdown - 0.3,
            "dfq {:.2} vs ts {:.2}",
            dfq.dct_slowdown,
            ts.dct_slowdown
        );
        assert!(
            dfq.throttle_slowdown < 1.6,
            "throttle should barely suffer: {:.2}",
            dfq.throttle_slowdown
        );
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_pairwise_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly (static cells take the same admission path
        // and seed).
        let cfg = Config {
            horizon: SimDuration::from_millis(600),
            off_ratios: vec![0.0, 0.6],
            schedulers: vec![SchedulerKind::DisengagedFairQueueing],
            ..Config::default()
        };
        let rows = run(&cfg);

        for (row, &off) in rows.iter().zip(cfg.off_ratios.iter()) {
            let (_, slowdowns, efficiency) = pairwise::reference_compare(
                SchedulerKind::DisengagedFairQueueing,
                SchedParams::default(),
                WorldConfig {
                    seed: cfg.seed,
                    ..WorldConfig::default()
                },
                vec![
                    Box::new(app::dct()),
                    Box::new(throttle::nonsaturating(cfg.throttle_size, off)),
                ],
                cfg.horizon,
                pairwise::ALONE_HORIZON,
            );
            assert_eq!(
                row.dct_slowdown, slowdowns[0],
                "off {off}: DCT diverged from the reference"
            );
            assert_eq!(
                row.throttle_slowdown, slowdowns[1],
                "off {off}: Throttle diverged from the reference"
            );
            assert_eq!(row.efficiency, efficiency, "off {off}");
        }
    }
}
