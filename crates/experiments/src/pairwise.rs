//! The §5.3 methodology shared by the multiprogrammed harnesses: run a
//! set of workloads together under one scheduler and compare each
//! co-runner's mean round against its standalone direct-access
//! baseline.
//!
//! Harnesses build their cells as [`ScenarioSpec`]s and run them
//! through `neon-scenario`'s sweep runner. This module holds what they
//! share: the experiment constants, the Throttle tenant group, the
//! single-cell baseline spec, and [`compare`], which turns baselines
//! and concurrent rounds into slowdowns and concurrency efficiency.

use neon_core::sched::SchedulerKind;
use neon_core::RunReport;
use neon_metrics::fairness;
use neon_scenario::{ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

/// Default horizon for standalone (baseline) runs.
pub const ALONE_HORIZON: SimDuration = SimDuration::from_millis(800);
/// Default horizon for multiprogrammed runs.
pub const MIX_HORIZON: SimDuration = SimDuration::from_millis(2_000);
/// Warmup fraction of rounds dropped before averaging.
pub const WARMUP: f64 = 0.2;
/// Default experiment seed.
pub const DEFAULT_SEED: u64 = 0xA5D0;

/// Mean steady-state round time of task `idx` in a report.
///
/// # Panics
///
/// Panics if the task completed no rounds — experiments are expected to
/// size horizons so every task makes progress.
pub fn mean_round(report: &RunReport, idx: usize) -> SimDuration {
    report.tasks[idx].mean_round(WARMUP).unwrap_or_else(|| {
        panic!(
            "task {idx} ({}) completed no rounds",
            report.tasks[idx].name
        )
    })
}

/// One Throttle tenant issuing `request`-sized requests and sleeping
/// `off_ratio` of each round.
///
/// The jitter is Throttle's constructor default (0.02), spelled out
/// because the scenario spec's default of 0.0 would give a different
/// request stream than the paper's Throttle.
pub fn throttle_group(request: SimDuration, off_ratio: f64) -> TenantGroup {
    TenantGroup::new(
        format!("throttle-{request}"),
        WorkloadSpec::Throttle {
            request,
            off_ratio,
            jitter: 0.02,
        },
    )
}

/// The standalone baseline of `group`: one cell running it alone under
/// direct device access for [`ALONE_HORIZON`].
pub fn baseline(group: TenantGroup, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(format!("alone:{}", group.name), ALONE_HORIZON)
        .seeds(vec![seed])
        .schedulers(vec![SchedulerKind::Direct])
        .group(group)
}

/// Each task's mean round in a concurrent run, in admission order. A
/// task that completed no rounds (starved or killed) reads as zero.
pub fn concurrent_rounds(report: &RunReport) -> Vec<SimDuration> {
    report
        .tasks
        .iter()
        .map(|t| t.mean_round(WARMUP).unwrap_or(SimDuration::ZERO))
        .collect()
}

/// Compares co-runners against their baselines: per-task slowdowns
/// (`concurrent / alone`, Figure 6's normalized runtime) and the
/// paper's concurrency efficiency Σ(tᵢ/tᶜᵢ).
///
/// A zero concurrent round is a starved co-runner: its slowdown reads
/// as infinite and efficiency skips it.
pub fn compare(alone: &[SimDuration], concurrent: &[SimDuration]) -> (Vec<f64>, f64) {
    let pairs: Vec<(SimDuration, SimDuration)> = alone
        .iter()
        .copied()
        .zip(concurrent.iter().copied())
        .collect();
    let slowdowns = pairs
        .iter()
        .map(|&(alone, conc)| {
            if conc.is_zero() {
                f64::INFINITY
            } else {
                fairness::slowdown(alone, conc)
            }
        })
        .collect();
    (slowdowns, fairness::concurrency_efficiency(&pairs))
}

/// The reference the sweep-backed harnesses are tested against:
/// `workloads` admitted in order to one bare `World` built straight
/// from `config`, with no scenario layer in between.
#[cfg(test)]
pub(crate) fn reference_run(
    scheduler: SchedulerKind,
    config: neon_core::world::WorldConfig,
    workloads: Vec<neon_core::workload::BoxedWorkload>,
    horizon: SimDuration,
) -> RunReport {
    let sched = scheduler.build(config.params.clone());
    let mut world = neon_core::world::World::new(config, sched);
    for w in workloads {
        world.add_task(w).expect("device resources exhausted");
    }
    world.run(horizon)
}

/// [`reference_run`]'s §5.3 comparison: each workload alone under
/// direct access for `alone_horizon` with `config`'s seed and
/// otherwise default settings, then all of them together under
/// `config`. Returns the mix report and [`compare`]'s output.
#[cfg(test)]
pub(crate) fn reference_compare(
    scheduler: SchedulerKind,
    config: neon_core::world::WorldConfig,
    workloads: Vec<neon_core::workload::BoxedWorkload>,
    horizon: SimDuration,
    alone_horizon: SimDuration,
) -> (RunReport, Vec<f64>, f64) {
    let alone: Vec<SimDuration> = workloads
        .iter()
        .map(|w| {
            let direct = neon_core::world::WorldConfig {
                seed: config.seed,
                ..Default::default()
            };
            let report = reference_run(
                SchedulerKind::Direct,
                direct,
                vec![w.clone()],
                alone_horizon,
            );
            mean_round(&report, 0)
        })
        .collect();
    let report = reference_run(scheduler, config, workloads, horizon);
    let (slowdowns, efficiency) = compare(&alone, &concurrent_rounds(&report));
    (report, slowdowns, efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_scenario::sweep;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn compare_reads_a_starved_co_runner_as_infinite_and_skips_it() {
        let alone = [us(100), us(200), us(50)];
        let concurrent = [us(250), SimDuration::ZERO, us(100)];
        let (slowdowns, efficiency) = compare(&alone, &concurrent);
        assert_eq!(slowdowns[0], fairness::slowdown(us(100), us(250)));
        assert_eq!(slowdowns[1], f64::INFINITY);
        assert_eq!(slowdowns[2], fairness::slowdown(us(50), us(100)));
        let served = [(us(100), us(250)), (us(50), us(100))];
        assert_eq!(efficiency, fairness::concurrency_efficiency(&served));
    }

    #[test]
    fn baseline_spec_produces_rounds() {
        let mut spec = baseline(throttle_group(us(100), 0.0), DEFAULT_SEED);
        spec.horizon = SimDuration::from_millis(50);
        let outcome = sweep::run_parallel(&sweep::plan([spec]), None);
        let report = &outcome.results[0].report;
        assert!(report.tasks[0].rounds_completed() > 100);
        let round = mean_round(report, 0);
        assert!(round >= SimDuration::from_micros(98));
        assert!(round <= SimDuration::from_micros(115));
    }

    #[test]
    fn equal_throttles_split_evenly_under_dfq() {
        // Two tenants of one workload share one baseline.
        let group = throttle_group(us(100), 0.0);
        let mix = ScenarioSpec::new("twin-throttles", SimDuration::from_millis(600))
            .seeds(vec![7])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .group(group.clone().count(2));
        let outcome = sweep::run_parallel(&sweep::plan([baseline(group, 7), mix]), None);
        let alone = mean_round(&outcome.results[0].report, 0);
        let report = &outcome.results[1].report;
        let (slowdowns, _) = compare(&[alone, alone], &concurrent_rounds(report));
        for (t, s) in report.tasks.iter().zip(&slowdowns) {
            assert!(
                *s > 1.4 && *s < 2.9,
                "{}: slowdown {s:.2} outside fair band",
                t.name
            );
        }
    }
}
