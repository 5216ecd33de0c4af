//! Figure P (beyond the paper): placement quality on multi-GPU hosts.
//!
//! The paper evaluates one GPU; on a multi-device host the OS also
//! chooses *where* each arriving process lands, and that choice
//! interacts with the interconnect: a near device may be crowded, a far
//! device costs a working-set transfer to reach (and again on every
//! migration). This harness compares every placement policy — the flat
//! trio (least-loaded, round-robin, fewest-tenants), the degenerate
//! pinned baseline, and the topology-aware pair (locality-first,
//! cost-min) — under identical open-loop churn on two four-device
//! hosts:
//!
//! - **symmetric** — four identical devices under one PCIe switch;
//! - **heterogeneous** — two full-size devices on NUMA 0 (different
//!   switches) plus two half-capacity devices across the NUMA hop.
//!
//! Both use PCIe-gen3 interconnect timing, so admission staging and
//! rebalancing migrations charge working-set × link tier. Every cell is
//! an independent deterministic `World` fanned out through
//! `neon-scenario`'s parallel sweep runner; the JSON/CSV emission is
//! the scenario engine's, so per-device utilization/rejection/migration
//! columns come along for free.

use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;
use neon_gpu::{DeviceSlotSpec, GpuConfig, InterconnectParams};
use neon_metrics::Table;
use neon_scenario::{
    emit, sweep, ArrivalSpec, LifetimeSpec, ScenarioSpec, SweepOutcome, TenantGroup, WorkloadSpec,
};
use neon_sim::SimDuration;

use crate::pairwise;

/// Configuration of the placement-quality sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each cell.
    pub horizon: SimDuration,
    /// Seeds to sweep (results are averaged across them).
    pub seeds: Vec<u64>,
    /// Schedulers to cross with the placement axis.
    pub schedulers: Vec<SchedulerKind>,
    /// Placement policies under comparison.
    pub placements: Vec<PlacementKind>,
    /// Rebalancing policies compared on the heterogeneous host (the
    /// symmetric host keeps the count-diff baseline: on a one-switch
    /// topology every migration crosses the same link, so the policy
    /// dimension is only interesting where link tiers differ).
    pub rebalances: Vec<RebalanceKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: SimDuration::from_millis(400),
            seeds: vec![pairwise::DEFAULT_SEED],
            schedulers: vec![SchedulerKind::Direct, SchedulerKind::DisengagedFairQueueing],
            placements: Self::placements(),
            rebalances: vec![RebalanceKind::CountDiff, RebalanceKind::CostAware],
        }
    }
}

impl Config {
    /// The full placement axis: the five sweepable policies plus the
    /// pinned-to-device-0 degenerate baseline (6 total).
    pub fn placements() -> Vec<PlacementKind> {
        let mut p = PlacementKind::ALL.to_vec();
        p.push(PlacementKind::Pinned(0));
        p
    }

    /// A reduced configuration for CI check mode: one scheduler, a
    /// short horizon, the full placement axis.
    pub fn check() -> Self {
        Config {
            horizon: SimDuration::from_millis(80),
            schedulers: vec![SchedulerKind::Direct],
            ..Config::default()
        }
    }
}

/// The churn mix shared by both topologies: four long-lived residents
/// plus an open-loop stream of heavier tenants with ~40 ms stays and a
/// 256 MiB working set (expensive to stage across the NUMA hop).
fn groups() -> Vec<TenantGroup> {
    vec![
        TenantGroup::new(
            "resident",
            WorkloadSpec::FixedLoop {
                service: SimDuration::from_micros(150),
                gap: SimDuration::from_micros(10),
                rounds: None,
            },
        )
        .count(4),
        TenantGroup::new(
            "churner",
            WorkloadSpec::Throttle {
                request: SimDuration::from_micros(400),
                off_ratio: 0.0,
                jitter: 0.0,
            },
        )
        .count(24)
        .arrival(ArrivalSpec::Poisson {
            rate_hz: 120.0,
            start: SimDuration::from_millis(5),
        })
        .lifetime(LifetimeSpec::Exponential {
            mean: SimDuration::from_millis(40),
        })
        .working_set(256 << 20),
    ]
}

fn base_spec(name: &str, cfg: &Config) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(name, cfg.horizon)
        .seeds(cfg.seeds.clone())
        .schedulers(cfg.schedulers.clone())
        .placements(cfg.placements.clone())
        .rebalance(RebalanceKind::CountDiff)
        .interconnect(InterconnectParams::pcie_gen3());
    for g in groups() {
        spec = spec.group(g);
    }
    spec
}

/// The symmetric host: four identical devices under one switch,
/// rebalanced by the count-diff baseline.
pub fn symmetric_spec(cfg: &Config) -> ScenarioSpec {
    let mut spec = base_spec("figP-symmetric", cfg);
    for _ in 0..4 {
        spec = spec.device_slot(DeviceSlotSpec::near(GpuConfig::default()));
    }
    spec
}

/// The heterogeneous host: two full-size near devices on separate
/// switches of NUMA 0, two half-capacity devices sharing a switch
/// across the NUMA hop. Migrations here cross real link tiers, so
/// this host additionally sweeps the rebalancing-policy axis
/// ([`Config::rebalances`]) — the comparison that shows whether
/// cost-aware migration pays.
pub fn hetero_spec(cfg: &Config) -> ScenarioSpec {
    let far = GpuConfig {
        total_channels: 48,
        total_contexts: 24,
        ..GpuConfig::default()
    };
    base_spec("figP-hetero", cfg)
        .rebalances(cfg.rebalances.clone())
        .device_slot(DeviceSlotSpec {
            config: GpuConfig::default(),
            numa: 0,
            switch_id: 0,
        })
        .device_slot(DeviceSlotSpec {
            config: GpuConfig::default(),
            numa: 0,
            switch_id: 1,
        })
        .device_slot(DeviceSlotSpec {
            config: far.clone(),
            numa: 1,
            switch_id: 2,
        })
        .device_slot(DeviceSlotSpec {
            config: far,
            numa: 1,
            switch_id: 2,
        })
}

/// One (topology, scheduler, placement, rebalance) comparison row,
/// averaged over seeds.
#[derive(Debug, Clone)]
pub struct Row {
    /// Topology name (`figP-symmetric` / `figP-hetero`).
    pub topology: String,
    /// Scheduler of the cells behind this row.
    pub scheduler: SchedulerKind,
    /// Placement policy under comparison.
    pub placement: PlacementKind,
    /// Rebalancing policy of the cells behind this row.
    pub rebalance: RebalanceKind,
    /// Mean rounds completed per run.
    pub total_rounds: f64,
    /// Mean arrivals turned away per run.
    pub rejected: f64,
    /// Mean rebalancing migrations per run.
    pub migrations: f64,
    /// Mean time tasks spent stalled on working-set movement per run.
    pub transfer_stall: SimDuration,
    /// Mean Jain fairness index.
    pub fairness: f64,
    /// Mean 95th-percentile round time.
    pub round_p95: SimDuration,
}

/// Outcome of the harness: the aggregated rows plus the raw sweep for
/// JSON/CSV emission.
#[derive(Debug)]
pub struct FigP {
    /// Aggregated comparison rows, topology-major, scheduler-, then
    /// placement-minor (the plan order).
    pub rows: Vec<Row>,
    /// The raw parallel sweep (one cell per topology × scheduler ×
    /// placement × seed).
    pub outcome: SweepOutcome,
}

impl FigP {
    /// The sweep as the scenario engine's JSON document (per-cell
    /// summaries with per-device columns).
    pub fn to_json(&self) -> String {
        emit::to_json(&self.outcome)
    }

    /// The sweep as CSV, one row per cell.
    pub fn to_csv(&self) -> String {
        emit::to_csv(&self.outcome)
    }
}

/// Runs both topologies' full placement × scheduler × seed matrices in
/// parallel and aggregates per-placement rows.
pub fn run(cfg: &Config) -> FigP {
    let specs = vec![symmetric_spec(cfg), hetero_spec(cfg)];
    for spec in &specs {
        // lint: allow(unchecked-unwrap) — specs are built in this file; an
        // invalid one is a programming error
        spec.validate().expect("figP scenarios must be valid");
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Plan order: scenario-major, then scheduler, then placement, then
    // rebalance, then seed — each row aggregates one contiguous seed
    // block.
    let per_seed = cfg.seeds.len();
    let mut rows = Vec::new();
    for chunk in outcome.results.chunks(per_seed) {
        let n = chunk.len() as f64;
        let first = &chunk[0].summary;
        debug_assert!(chunk.iter().all(|c| c.summary.placement == first.placement
            && c.summary.scheduler == first.scheduler
            && c.summary.rebalance == first.rebalance
            && c.summary.scenario == first.scenario));
        let mean = |f: &dyn Fn(&neon_scenario::CellSummary) -> f64| {
            chunk.iter().map(|c| f(&c.summary)).sum::<f64>() / n
        };
        rows.push(Row {
            topology: first.scenario.clone(),
            scheduler: first.scheduler,
            placement: first.placement,
            rebalance: first.rebalance,
            total_rounds: mean(&|s| s.total_rounds as f64),
            rejected: mean(&|s| s.rejected as f64),
            migrations: mean(&|s| s.migrations as f64),
            transfer_stall: SimDuration::from_micros_f64(mean(&|s| {
                s.transfer_stall.as_micros_f64()
            })),
            fairness: mean(&|s| s.fairness),
            round_p95: SimDuration::from_micros_f64(mean(&|s| s.round_p95.as_micros_f64())),
        });
    }
    FigP { rows, outcome }
}

/// Renders the aggregated comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "topology".into(),
        "scheduler".into(),
        "placement".into(),
        "rebalance".into(),
        "rounds".into(),
        "rej".into(),
        "migr".into(),
        "stall".into(),
        "fairness".into(),
        "p95".into(),
    ]);
    for r in rows {
        table.row(vec![
            r.topology.clone(),
            r.scheduler.label().into(),
            r.placement.to_string(),
            r.rebalance.to_string(),
            format!("{:.0}", r.total_rounds),
            format!("{:.1}", r.rejected),
            format!("{:.1}", r.migrations),
            format!("{}", r.transfer_stall),
            format!("{:.3}", r.fairness),
            format!("{}", r.round_p95),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_six_placements_on_both_topologies() {
        let cfg = Config::check();
        let fig = run(&cfg);
        assert_eq!(cfg.placements.len(), 6, "the axis must stay >= 6 policies");
        assert_eq!(cfg.rebalances.len(), 2, "count-diff vs cost-aware");
        assert_eq!(
            fig.rows.len(),
            18,
            "1 scheduler x 6 placements x (1 symmetric + 2 hetero rebalances)"
        );
        let covered: Vec<_> = fig
            .rows
            .iter()
            .filter(|r| r.topology == "figP-symmetric")
            .map(|r| r.placement)
            .collect();
        assert_eq!(covered, cfg.placements, "symmetric placement coverage");
        for &rebalance in &cfg.rebalances {
            let covered: Vec<_> = fig
                .rows
                .iter()
                .filter(|r| r.topology == "figP-hetero" && r.rebalance == rebalance)
                .map(|r| r.placement)
                .collect();
            assert_eq!(
                covered, cfg.placements,
                "hetero/{rebalance} placement coverage"
            );
        }
        // Every cell made progress; the aggregation preserved that.
        for r in &fig.rows {
            assert!(
                r.total_rounds > 0.0,
                "{}/{} made no progress",
                r.topology,
                r.placement
            );
            assert!((0.0..=1.0).contains(&r.fairness));
        }
        // Staging across a PCIe-gen3 interconnect is never free here.
        assert!(
            fig.rows
                .iter()
                .all(|r| r.transfer_stall > SimDuration::ZERO),
            "working-set staging must be charged on both topologies"
        );
    }

    #[test]
    fn emits_json_and_csv_with_topology_and_placement_columns() {
        let mut cfg = Config::check();
        cfg.horizon = SimDuration::from_millis(40);
        let fig = run(&cfg);
        let json = fig.to_json();
        for needle in [
            "figP-symmetric",
            "figP-hetero",
            "\"placement\": \"locality-first\"",
            "\"placement\": \"cost-min\"",
            "\"placement\": \"pinned:0\"",
            "\"rebalance\": \"count-diff\"",
            "\"rebalance\": \"cost-aware\"",
            "\"transfer_stall_us\":",
            "\"per_device\": [{\"device\": 0",
        ] {
            assert!(json.contains(needle), "JSON lacks {needle}: {json}");
        }
        let csv = fig.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("transfer_stall_us"), "{header}");
        assert!(header.contains(",rebalance,"), "{header}");
        assert!(header.contains("dev3_migr"), "{header}");
        assert!(csv.contains("cost-min"));
        assert!(csv.contains("cost-aware"));
        assert_eq!(
            csv.lines().count() - 1,
            fig.outcome.results.len(),
            "one CSV row per cell"
        );
    }

    #[test]
    fn pinned_rejects_where_spreading_policies_do_not() {
        // The degenerate baseline must be measurably worse: pinning 24
        // churners + 4 residents to one device exhausts it while the
        // spreading policies reject nobody.
        let cfg = Config {
            horizon: SimDuration::from_millis(150),
            schedulers: vec![SchedulerKind::Direct],
            ..Config::default()
        };
        let fig = run(&cfg);
        let hetero_pinned = fig
            .rows
            .iter()
            .find(|r| {
                r.topology == "figP-hetero"
                    && r.placement == PlacementKind::Pinned(0)
                    && r.rebalance == RebalanceKind::CountDiff
            })
            .unwrap();
        let hetero_ll = fig
            .rows
            .iter()
            .find(|r| {
                r.topology == "figP-hetero"
                    && r.placement == PlacementKind::LeastLoaded
                    && r.rebalance == RebalanceKind::CountDiff
            })
            .unwrap();
        assert!(
            hetero_pinned.total_rounds < hetero_ll.total_rounds,
            "pinned ({:.0}) must trail least-loaded ({:.0})",
            hetero_pinned.total_rounds,
            hetero_ll.total_rounds
        );
    }

    /// The issue's acceptance criterion: on the heterogeneous 4-GPU
    /// host, cost-aware rebalancing migrates no more (and stalls no
    /// longer on the wire) than the charge-blind baseline, while the
    /// p95 round time regresses by at most 5 %.
    #[test]
    fn cost_aware_beats_count_diff_on_the_hetero_host() {
        let cfg = Config {
            horizon: SimDuration::from_millis(200),
            schedulers: vec![SchedulerKind::Direct],
            ..Config::default()
        };
        let fig = run(&cfg);
        let sum = |rebalance: RebalanceKind, f: &dyn Fn(&Row) -> f64| {
            fig.rows
                .iter()
                .filter(|r| r.topology == "figP-hetero" && r.rebalance == rebalance)
                .map(f)
                .sum::<f64>()
        };
        let migr = |k| sum(k, &|r| r.migrations);
        let stall = |k| sum(k, &|r| r.transfer_stall.as_micros_f64());
        let p95 = |k| sum(k, &|r| r.round_p95.as_micros_f64());
        assert!(
            migr(RebalanceKind::CountDiff) >= 1.0,
            "the baseline must actually migrate under this churn, else \
             the comparison is vacuous"
        );
        assert!(
            migr(RebalanceKind::CostAware) <= migr(RebalanceKind::CountDiff),
            "cost-aware migrated more ({}) than count-diff ({})",
            migr(RebalanceKind::CostAware),
            migr(RebalanceKind::CountDiff)
        );
        assert!(
            stall(RebalanceKind::CostAware) <= stall(RebalanceKind::CountDiff),
            "cost-aware stalled longer ({:.0} us) than count-diff ({:.0} us)",
            stall(RebalanceKind::CostAware),
            stall(RebalanceKind::CountDiff)
        );
        assert!(
            p95(RebalanceKind::CostAware) <= p95(RebalanceKind::CountDiff) * 1.05,
            "cost-aware p95 ({:.0} us) regressed past 5% of count-diff ({:.0} us)",
            p95(RebalanceKind::CostAware),
            p95(RebalanceKind::CountDiff)
        );
    }
}
