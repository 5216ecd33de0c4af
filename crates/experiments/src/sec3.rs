//! §3 throughput comparison: direct device access vs a stack that
//! traps to the kernel on every request.
//!
//! The paper compared an Nvidia stack (direct-mapped submission) with
//! an AMD stack (syscall per request) at matched request sizes, and
//! found direct access gains 8–35 % for 10–100 µs requests — and
//! 48–170 % when the per-request traps entail nontrivial driver work.
//! Here the "trapping stack" is modeled by a policy that keeps every
//! channel protected and admits every fault, with the fault cost set
//! to the syscall cost (plus, for the heavy variant, driver
//! processing).
//!
//! The (size × stack) matrix is embarrassingly parallel, so this
//! harness rides `neon-scenario`'s parallel sweep runner: the
//! trapping stacks install [`TrapPerRequest`] through the spec's
//! custom-scheduler hook and override the fault cost through its cost
//! model, one single-cell scenario per (size, stack) point, read back
//! in plan order. The results are identical to hand-built bare
//! `World`s running the same stacks (tested below).

use neon_core::cost::{CostModel, SchedParams};
use neon_core::sched::{FaultDecision, Scheduler, SchedulerKind};
use neon_core::world::SchedCtx;
use neon_gpu::{ChannelId, CompletedRequest, TaskId};
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::pairwise;

/// A stack that traps on every submission and lets it through — the
/// syscall-per-request architecture of the comparison.
#[derive(Debug, Default)]
pub struct TrapPerRequest;

impl Scheduler for TrapPerRequest {
    fn name(&self) -> &'static str {
        "trap-per-request"
    }
    fn init(&mut self, _ctx: &mut SchedCtx<'_>) {}
    fn on_task_admitted(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        ctx.protect_task(task);
    }
    fn on_task_exit(&mut self, _ctx: &mut SchedCtx<'_>, _task: TaskId) {}
    fn on_fault(
        &mut self,
        _ctx: &mut SchedCtx<'_>,
        _task: TaskId,
        _channel: ChannelId,
    ) -> FaultDecision {
        FaultDecision::Allow
    }
    fn on_poll(&mut self, _ctx: &mut SchedCtx<'_>) {}
    fn on_timer(&mut self, _ctx: &mut SchedCtx<'_>, _tag: u64) {}
    fn on_completion(&mut self, _ctx: &mut SchedCtx<'_>, _done: &CompletedRequest) {}
}

/// Configuration of the §3 comparison.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Request sizes (the paper's 10–100 µs plus larger points).
    pub sizes: Vec<SimDuration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::ALONE_HORIZON,
            seed: pairwise::DEFAULT_SEED,
            sizes: vec![
                SimDuration::from_micros(10),
                SimDuration::from_micros(20),
                SimDuration::from_micros(50),
                SimDuration::from_micros(100),
                SimDuration::from_micros(430),
            ],
        }
    }
}

impl Config {
    /// The reduced configuration used by `sec3 --check` in CI.
    pub fn check() -> Self {
        Config {
            horizon: SimDuration::from_millis(200),
            sizes: vec![SimDuration::from_micros(10), SimDuration::from_micros(100)],
            ..Config::default()
        }
    }
}

/// Throughput gains of direct access at one request size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Request size.
    pub size: SimDuration,
    /// Requests/second with direct access.
    pub direct_rate: f64,
    /// Requests/second with a syscall per request.
    pub syscall_rate: f64,
    /// Requests/second when each trap also runs driver routines.
    pub heavy_rate: f64,
}

impl Row {
    /// Direct access gain over the plain syscall stack.
    pub fn gain_over_syscall(&self) -> f64 {
        self.direct_rate / self.syscall_rate - 1.0
    }

    /// Direct access gain over the heavy (driver-processing) stack.
    pub fn gain_over_heavy(&self) -> f64 {
        self.direct_rate / self.heavy_rate - 1.0
    }
}

/// The custom-scheduler hook installing the trapping stack; the cost
/// of each trap comes from the scenario's cost-model override.
fn trap_stack(_params: SchedParams) -> Box<dyn Scheduler> {
    Box::new(TrapPerRequest)
}

/// The jitter-free saturating Throttle the comparison drives every
/// stack with (matched request sizes need matched submission times).
fn steady_throttle(size: SimDuration) -> TenantGroup {
    TenantGroup::new(
        format!("throttle-{size}"),
        WorkloadSpec::Throttle {
            request: size,
            off_ratio: 0.0,
            jitter: 0.0,
        },
    )
}

/// Runs the sweep through the parallel sweep runner: three
/// single-cell scenarios per request size (direct, syscall-per-
/// request, syscall plus driver processing), read back in plan order.
pub fn run(cfg: &Config) -> Vec<Row> {
    let base_cost = CostModel::default();
    // The syscall stack: every request traps at the syscall cost. The
    // heavy stack: the trap also runs driver routines.
    let syscall_cost = CostModel {
        fault_intercept: base_cost.syscall_submit,
        ..base_cost.clone()
    };
    let heavy_cost = CostModel {
        fault_intercept: base_cost.syscall_submit + base_cost.driver_processing,
        ..base_cost.clone()
    };
    let mut specs = Vec::new();
    for &size in &cfg.sizes {
        specs.push(
            ScenarioSpec::new(format!("direct:{size}"), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(vec![SchedulerKind::Direct])
                .group(steady_throttle(size)),
        );
        for (stack, cost) in [("syscall", &syscall_cost), ("heavy", &heavy_cost)] {
            specs.push(
                ScenarioSpec::new(format!("{stack}:{size}"), cfg.horizon)
                    .seeds(vec![cfg.seed])
                    // The axis label is a carrier; the custom factory
                    // below decides what actually runs.
                    .schedulers(vec![SchedulerKind::Direct])
                    .custom_scheduler(trap_stack)
                    .cost(cost.clone())
                    .group(steady_throttle(size)),
            );
        }
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);
    // Three cells per size, in push (= plan) order.
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let rate = |k: usize| {
                let report = &outcome.results[i * 3 + k].report;
                report.tasks[0].completed_requests as f64 / cfg.horizon.as_secs_f64()
            };
            Row {
                size,
                direct_rate: rate(0),
                syscall_rate: rate(1),
                heavy_rate: rate(2),
            }
        })
        .collect()
}

/// Renders the gains table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "request size".into(),
        "direct req/s".into(),
        "syscall req/s".into(),
        "heavy req/s".into(),
        "gain vs syscall".into(),
        "gain vs heavy".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.size.to_string(),
            format!("{:.0}", r.direct_rate),
            format!("{:.0}", r.syscall_rate),
            format!("{:.0}", r.heavy_rate),
            format!("{:+.0}%", r.gain_over_syscall() * 100.0),
            format!("{:+.0}%", r.gain_over_heavy() * 100.0),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;
    use neon_workloads::throttle;

    /// The trapping-stack reference: a hand-built world running
    /// [`TrapPerRequest`] at the given fault cost.
    fn serial_trap_rate(cfg: &Config, size: SimDuration, cost: CostModel) -> f64 {
        let config = WorldConfig {
            cost,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut world = neon_core::world::World::new(config, Box::new(TrapPerRequest));
        world
            .add_task(Box::new(throttle::saturating(size).with_jitter(0.0)))
            .expect("device has room");
        let report = world.run(cfg.horizon);
        report.tasks[0].completed_requests as f64 / cfg.horizon.as_secs_f64()
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The scenario-backed run() must reproduce the bare-World
        // references exactly: the custom-scheduler cells must build the
        // same world as the hand-constructed trapping stacks.
        let cfg = Config {
            horizon: SimDuration::from_millis(150),
            sizes: vec![SimDuration::from_micros(20), SimDuration::from_micros(100)],
            ..Config::default()
        };
        let base_cost = CostModel::default();
        let rows = run(&cfg);
        for (row, &size) in rows.iter().zip(&cfg.sizes) {
            let direct = WorldConfig {
                seed: cfg.seed,
                ..WorldConfig::default()
            };
            let report = pairwise::reference_run(
                SchedulerKind::Direct,
                SchedParams::default(),
                direct,
                vec![Box::new(throttle::saturating(size).with_jitter(0.0))],
                cfg.horizon,
            );
            let direct_rate = report.tasks[0].completed_requests as f64 / cfg.horizon.as_secs_f64();
            assert_eq!(row.direct_rate, direct_rate, "{size} direct");
            let syscall = CostModel {
                fault_intercept: base_cost.syscall_submit,
                ..base_cost.clone()
            };
            assert_eq!(
                row.syscall_rate,
                serial_trap_rate(&cfg, size, syscall),
                "{size} syscall"
            );
            let heavy = CostModel {
                fault_intercept: base_cost.syscall_submit + base_cost.driver_processing,
                ..base_cost.clone()
            };
            assert_eq!(
                row.heavy_rate,
                serial_trap_rate(&cfg, size, heavy),
                "{size} heavy"
            );
        }
    }

    #[test]
    fn direct_access_gains_match_paper_bands() {
        let cfg = Config {
            horizon: SimDuration::from_millis(200),
            sizes: vec![SimDuration::from_micros(10), SimDuration::from_micros(100)],
            ..Config::default()
        };
        let rows = run(&cfg);
        // 10µs requests: large gains (paper band up to 35% / 170%).
        assert!(
            rows[0].gain_over_syscall() > 0.15,
            "{}",
            rows[0].gain_over_syscall()
        );
        assert!(
            rows[0].gain_over_heavy() > 0.8,
            "{}",
            rows[0].gain_over_heavy()
        );
        // 100µs requests: small but positive gains.
        assert!(rows[1].gain_over_syscall() > 0.01);
        assert!(rows[1].gain_over_syscall() < rows[0].gain_over_syscall());
    }
}
