//! Ablation sweeps over the design's calibration constants and a
//! comparison against the engaged fair-share baselines.
//!
//! These do not correspond to a paper figure; they quantify the design
//! choices DESIGN.md calls out:
//!
//! - the free-run multiplier (longer disengagement = lower overhead,
//!   slower reaction to imbalance),
//! - the sampling request budget,
//! - the polling period,
//! - the interception cost (how fast must a trap be before engaged
//!   scheduling becomes competitive?),
//! - Disengaged Fair Queueing vs the engaged SFQ/DRR baselines.
//!
//! Every variant is five independent deterministic cells — the small
//! Throttle alone under direct access and under the variant, the two
//! co-runners' direct-access baselines, and their mix — so the whole
//! suite is one `neon-scenario` sweep fanned out across OS threads.
//! Each cell runs on the variant's cost model. The rows are identical
//! to running every cell on one bare `World`, with baselines on the
//! default cost model (tested below against the test-only
//! `pairwise::reference_run`): direct access never traps or polls, so
//! neither cost knob moves a baseline.

use neon_core::cost::{CostModel, SchedParams};
use neon_core::sched::SchedulerKind;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

use crate::pairwise;

/// Configuration of the ablation suite.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of the concurrent runs.
    pub horizon: SimDuration,
    /// Horizon of the standalone-overhead runs.
    pub alone_horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: SimDuration::from_millis(1_500),
            alone_horizon: pairwise::ALONE_HORIZON,
            seed: pairwise::DEFAULT_SEED,
        }
    }
}

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which knob (and value) this row varies.
    pub variant: String,
    /// Standalone overhead of a small-request Throttle (vs direct).
    pub standalone_overhead: f64,
    /// Fairness gap in the DCT-vs-Throttle(430 µs) mix: the larger
    /// slowdown divided by the smaller (1.0 = perfectly even).
    pub fairness_gap: f64,
    /// Concurrency efficiency of the mix.
    pub efficiency: f64,
}

/// One knob setting: the policy and the parameters it runs with.
#[derive(Debug)]
struct Variant {
    name: String,
    scheduler: SchedulerKind,
    params: SchedParams,
    cost: CostModel,
}

impl Variant {
    fn new(name: String, scheduler: SchedulerKind) -> Self {
        Variant {
            name,
            scheduler,
            params: SchedParams::default(),
            cost: CostModel::default(),
        }
    }
}

/// Cells each variant contributes to the sweep, in this order: the
/// small Throttle alone under direct access and under the variant, the
/// two co-runners' direct-access baselines, and their mix.
const CELLS_PER_VARIANT: usize = 5;

fn cells(cfg: &Config, v: &Variant) -> [ScenarioSpec; CELLS_PER_VARIANT] {
    let small = pairwise::throttle_group(SimDuration::from_micros(50), 0.0);
    let dct = TenantGroup::new(
        "DCT",
        WorkloadSpec::App {
            name: "DCT".to_string(),
        },
    );
    let large = pairwise::throttle_group(SimDuration::from_micros(430), 0.0);
    // Only the cells under the variant's policy take its parameters.
    let alone = |group: &TenantGroup| {
        let mut spec = pairwise::baseline(group.clone(), cfg.seed).cost(v.cost.clone());
        spec.horizon = cfg.alone_horizon;
        spec
    };
    let under_variant =
        |spec: ScenarioSpec| spec.schedulers(vec![v.scheduler]).params(v.params.clone());
    [
        alone(&small),
        under_variant(alone(&small)),
        alone(&dct),
        alone(&large),
        under_variant(
            ScenarioSpec::new(format!("mix:{}", v.name), cfg.horizon)
                .seeds(vec![cfg.seed])
                .cost(v.cost.clone())
                .group(dct)
                .group(large),
        ),
    ]
}

/// Runs `variants` through one parallel sweep, one row each.
fn measure(cfg: &Config, variants: &[Variant]) -> Vec<Row> {
    let specs = variants.iter().flat_map(|v| cells(cfg, v));
    let outcome = sweep::run_parallel(&sweep::plan(specs), None);
    outcome
        .results
        .chunks(CELLS_PER_VARIANT)
        .zip(variants)
        .map(|(block, v)| {
            let round = |i: usize| pairwise::mean_round(&block[i].report, 0);
            let (slowdowns, efficiency) = pairwise::compare(
                &[round(2), round(3)],
                &pairwise::concurrent_rounds(&block[4].report),
            );
            let (a, b) = (slowdowns[0], slowdowns[1]);
            Row {
                variant: v.name.clone(),
                standalone_overhead: round(1).ratio(round(0)) - 1.0,
                fairness_gap: if a >= b { a / b } else { b / a },
                efficiency,
            }
        })
        .collect()
}

/// The suite's variants, in row order.
fn variants() -> Vec<Variant> {
    let dfq = SchedulerKind::DisengagedFairQueueing;
    let mut variants = Vec::new();

    // Free-run multiplier.
    for mult in [2u32, 5, 10] {
        let mut v = Variant::new(format!("freerun-multiplier={mult}"), dfq);
        v.params.freerun_multiplier = mult;
        variants.push(v);
    }

    // Sampling request budget.
    for reqs in [8u64, 32, 128] {
        let mut v = Variant::new(format!("sampling-requests={reqs}"), dfq);
        v.params.sampling_requests = reqs;
        variants.push(v);
    }

    // Polling period.
    for us in [250u64, 1_000, 4_000] {
        let mut v = Variant::new(format!("polling-period={us}us"), dfq);
        v.cost.polling_period = SimDuration::from_micros(us);
        variants.push(v);
    }

    // Interception cost (applies to the engaged Timeslice).
    for us in [3u64, 12, 24] {
        let mut v = Variant::new(
            format!("trap-cost={us}us (engaged-ts)"),
            SchedulerKind::Timeslice,
        );
        v.cost.fault_intercept = SimDuration::from_micros(us);
        variants.push(v);
    }

    // Scheduler family comparison at defaults, including the §6.1
    // vendor-statistics future-work mode.
    for kind in [
        SchedulerKind::DisengagedFairQueueing,
        SchedulerKind::DisengagedFairQueueingVendor,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::Timeslice,
        SchedulerKind::EngagedSfq,
        SchedulerKind::EngagedDrr,
    ] {
        variants.push(Variant::new(format!("scheduler={}", kind.label()), kind));
    }
    variants
}

/// Runs the full ablation suite.
pub fn run(cfg: &Config) -> Vec<Row> {
    measure(cfg, &variants())
}

/// Renders the suite.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "variant".into(),
        "standalone overhead".into(),
        "fairness gap".into(),
        "efficiency".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.variant.clone(),
            format!("{:+.1}%", r.standalone_overhead * 100.0),
            format!("{:.2}", r.fairness_gap),
            format!("{:.2}", r.efficiency),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;
    use neon_workloads::{app, throttle};

    fn reduced() -> Config {
        Config {
            horizon: SimDuration::from_millis(600),
            alone_horizon: SimDuration::from_millis(300),
            ..Config::default()
        }
    }

    #[test]
    fn longer_freeruns_cost_less_overhead() {
        let dfq = SchedulerKind::DisengagedFairQueueing;
        let mut short = Variant::new("m=2".into(), dfq);
        short.params.freerun_multiplier = 2;
        let mut long = Variant::new("m=10".into(), dfq);
        long.params.freerun_multiplier = 10;
        let rows = measure(&reduced(), &[short, long]);
        let (short, long) = (&rows[0], &rows[1]);
        assert!(
            long.standalone_overhead <= short.standalone_overhead + 0.01,
            "long {:.3} vs short {:.3}",
            long.standalone_overhead,
            short.standalone_overhead
        );
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_path() {
        // The sweep-backed suite must reproduce the bare-World
        // reference exactly, for a policy-parameter knob and for each
        // cost knob (whose direct-access baselines the reference runs
        // on the default cost model).
        let cfg = reduced();
        let dfq = SchedulerKind::DisengagedFairQueueing;
        let mut variants = vec![Variant::new("sampling".into(), dfq)];
        variants[0].params.sampling_requests = 8;
        variants.push(Variant::new("polling".into(), dfq));
        variants[1].cost.polling_period = SimDuration::from_micros(250);
        variants.push(Variant::new("trap".into(), SchedulerKind::Timeslice));
        variants[2].cost.fault_intercept = SimDuration::from_micros(24);
        let rows = measure(&cfg, &variants);

        for (row, v) in rows.iter().zip(&variants) {
            let config = |scheduler: SchedulerKind| WorldConfig {
                cost: v.cost.clone(),
                params: if scheduler == SchedulerKind::Direct {
                    SchedParams::default()
                } else {
                    v.params.clone()
                },
                seed: cfg.seed,
                ..WorldConfig::default()
            };
            let small = |scheduler: SchedulerKind| {
                let workload = Box::new(throttle::saturating(SimDuration::from_micros(50)));
                let report = pairwise::reference_run(
                    scheduler,
                    config(scheduler),
                    vec![workload],
                    cfg.alone_horizon,
                );
                pairwise::mean_round(&report, 0)
            };
            let standalone = small(v.scheduler).ratio(small(SchedulerKind::Direct)) - 1.0;
            assert_eq!(row.standalone_overhead, standalone, "{}", v.name);

            let (_, slowdowns, efficiency) = pairwise::reference_compare(
                v.scheduler,
                config(v.scheduler),
                vec![
                    Box::new(app::dct()),
                    Box::new(throttle::saturating(SimDuration::from_micros(430))),
                ],
                cfg.horizon,
                cfg.alone_horizon,
            );
            let (a, b) = (slowdowns[0], slowdowns[1]);
            assert_eq!(row.fairness_gap, a.max(b) / a.min(b), "{}", v.name);
            assert_eq!(row.efficiency, efficiency, "{}", v.name);
        }
    }
}
