//! Property-based tests over the full stack: conservation laws and
//! determinism that must hold for any workload mix, any scheduler,
//! and any seed.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::{RunReport, SchedulerKind};
use disengaged_scheduling::workloads::Throttle;
use neon_sim::SimDuration;
use proptest::prelude::*;

fn run_mix(kind: SchedulerKind, sizes: &[u64], seed: u64, horizon_ms: u64) -> RunReport {
    let config = WorldConfig {
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::new(config, kind.build(SchedParams::default()));
    for (i, &size) in sizes.iter().enumerate() {
        // Distinct sizes (hence names) so reports are unambiguous.
        let size = size + i as u64;
        world
            .add_task(Box::new(Throttle::new(SimDuration::from_micros(size))))
            .expect("device has room");
    }
    world.run(SimDuration::from_millis(horizon_ms))
}

fn any_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Direct),
        Just(SchedulerKind::Timeslice),
        Just(SchedulerKind::DisengagedTimeslice),
        Just(SchedulerKind::DisengagedFairQueueing),
        Just(SchedulerKind::EngagedSfq),
        Just(SchedulerKind::EngagedDrr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Per-task usage never exceeds engine busy time, which never
    /// exceeds the wall clock.
    #[test]
    fn usage_is_conserved(
        kind in any_scheduler(),
        sizes in proptest::collection::vec(10u64..800, 1..4),
        seed in 0u64..1_000,
    ) {
        let report = run_mix(kind, &sizes, seed, 120);
        let wall = report.wall;
        prop_assert!(report.compute_busy <= wall);
        let usage_sum: SimDuration = report.tasks.iter().map(|t| t.usage).sum();
        // In-flight work at the horizon is uncharged; allow one request
        // plus a context switch of slack.
        let slack = SimDuration::from_micros(sizes.iter().copied().max().unwrap_or(0) + 10);
        prop_assert!(
            usage_sum <= report.compute_busy + report.dma_busy + slack,
            "usage {} vs busy {}", usage_sum, report.compute_busy
        );
    }

    /// Completions never exceed submissions, and nothing is lost:
    /// submitted − completed is bounded by the in-flight pipeline.
    #[test]
    fn requests_are_conserved(
        kind in any_scheduler(),
        sizes in proptest::collection::vec(10u64..800, 1..4),
        seed in 0u64..1_000,
    ) {
        let report = run_mix(kind, &sizes, seed, 120);
        for t in &report.tasks {
            prop_assert!(t.completed_requests <= t.submitted_requests);
            prop_assert!(
                t.submitted_requests - t.completed_requests <= 64,
                "{}: {} submitted vs {} completed",
                t.name, t.submitted_requests, t.completed_requests
            );
        }
    }

    /// Every task of a saturating mix makes progress under every fair
    /// scheduler (no starvation).
    #[test]
    fn no_starvation(
        kind in any_scheduler(),
        sizes in proptest::collection::vec(20u64..400, 2..4),
        seed in 0u64..1_000,
    ) {
        let report = run_mix(kind, &sizes, seed, 250);
        for t in &report.tasks {
            prop_assert!(
                t.rounds_completed() > 0,
                "{} starved under {}", t.name, report.scheduler
            );
        }
    }

    /// Identical configuration and seed produce identical reports.
    #[test]
    fn determinism(
        kind in any_scheduler(),
        sizes in proptest::collection::vec(10u64..500, 1..4),
        seed in 0u64..1_000,
    ) {
        let a = run_mix(kind, &sizes, seed, 80);
        let b = run_mix(kind, &sizes, seed, 80);
        prop_assert_eq!(a.compute_busy, b.compute_busy);
        prop_assert_eq!(a.stats.get(StatKey::Faults), b.stats.get(StatKey::Faults));
        for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
            prop_assert_eq!(&ta.rounds, &tb.rounds);
            prop_assert_eq!(ta.usage, tb.usage);
        }
    }

    /// Direct access never faults; engaged timeslice intercepts every
    /// submission.
    #[test]
    fn interception_counts_match_policy(
        sizes in proptest::collection::vec(20u64..400, 1..3),
        seed in 0u64..1_000,
    ) {
        let direct = run_mix(SchedulerKind::Direct, &sizes, seed, 100);
        prop_assert_eq!(direct.stats.get(StatKey::Faults), 0);
        prop_assert!(direct.stats.get(StatKey::DirectSubmits) > 0);

        let engaged = run_mix(SchedulerKind::Timeslice, &sizes, seed, 100);
        prop_assert_eq!(engaged.stats.get(StatKey::DirectSubmits), 0, "engaged TS must trap everything");
        prop_assert!(engaged.stats.get(StatKey::Faults) > 0);
    }
}

// ---------------------------------------------------------------------------
// Sweep-runner and world-reuse equivalence (the parallel-execution layer
// must be invisible in the results).

use disengaged_scheduling::core::fault::{FaultConfig, FaultKind, FaultPlan};
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::telemetry::StatKey;
use disengaged_scheduling::gpu::{
    DeviceId, DeviceSlotSpec, GpuConfig, InterconnectParams, Topology,
};
use disengaged_scheduling::scenario::{sweep, ScenarioSpec, SweepCell, TenantGroup, WorkloadSpec};
use neon_sim::SimTime;

/// A skew-prone sweep plan: scenarios of widely varying cost (horizon ×
/// tenant count × host count all drawn by the caller), two schedulers,
/// per-scenario seeds — the shape that makes naive static partitioning
/// imbalanced and forces the runner to steal. Mixed host counts make
/// every worker recycle fleet hosts across cells of different widths.
fn skewed_plan(shapes: &[(u64, u32, usize)], seeds: &[u64]) -> Vec<SweepCell> {
    let specs: Vec<ScenarioSpec> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(horizon_ms, tenants, hosts))| {
            ScenarioSpec::new(
                format!("skew-{i}-{horizon_ms}ms"),
                SimDuration::from_millis(horizon_ms),
            )
            .seeds(seeds.to_vec())
            .hosts(hosts)
            .schedulers(vec![
                SchedulerKind::Direct,
                SchedulerKind::DisengagedFairQueueing,
            ])
            .group(
                TenantGroup::new(
                    "tenant",
                    WorkloadSpec::Throttle {
                        request: SimDuration::from_micros(120 + 60 * i as u64),
                        off_ratio: 0.0,
                        jitter: 0.02,
                    },
                )
                .count(tenants),
            )
        })
        .collect();
    sweep::plan(specs)
}

/// Every simulation-derived field must agree between two runs of the
/// same plan, on every host of a fleet cell; host-timing fields
/// (`elapsed`, `peak_rss_bytes`) are the only permitted difference.
macro_rules! assert_cells_equivalent {
    ($assert:ident, $a:expr, $b:expr) => {
        $assert!($a.results.len() == $b.results.len());
        for (s, p) in $a.results.iter().zip(&$b.results) {
            let (ss, ps) = (&s.summary, &p.summary);
            $assert!(ss.scenario == ps.scenario, "plan order drifted");
            $assert!(ss.scheduler == ps.scheduler);
            $assert!(ss.placement == ps.placement);
            $assert!(ss.rebalance == ps.rebalance);
            $assert!(ss.seed == ps.seed);
            $assert!(ss.admitted == ps.admitted, "{}: admitted", ss.scenario);
            $assert!(ss.rejected == ps.rejected);
            $assert!(ss.departed == ps.departed);
            $assert!(ss.killed == ps.killed);
            $assert!(
                ss.total_rounds == ps.total_rounds,
                "{}: rounds {} vs {}",
                ss.scenario,
                ss.total_rounds,
                ps.total_rounds
            );
            $assert!(ss.completed_requests == ps.completed_requests);
            $assert!(ss.faults == ps.faults);
            $assert!(ss.direct_submits == ps.direct_submits);
            $assert!(ss.utilization == ps.utilization);
            $assert!(ss.fairness == ps.fairness);
            $assert!(ss.round_p50 == ps.round_p50);
            $assert!(ss.round_p95 == ps.round_p95);
            $assert!(ss.round_p99 == ps.round_p99);
            $assert!(ss.migrations == ps.migrations);
            $assert!(ss.transfer_stall == ps.transfer_stall);
            $assert!(ss.hosts == ps.hosts);
            $assert!(ss.cross_host_migrations == ps.cross_host_migrations);
            $assert!(ss.fleet_rejected == ps.fleet_rejected);
            $assert!(s.events() == p.events(), "{}: events", ss.scenario);
            $assert!(s.report.compute_busy == p.report.compute_busy);
            $assert!(ss.per_device.len() == ps.per_device.len());
            $assert!(ss.per_host.len() == ps.per_host.len());
            for (ha, hb) in ss.per_host.iter().zip(&ps.per_host) {
                $assert!(ha.host == hb.host);
                $assert!(ha.devices == hb.devices);
                $assert!(ha.utilization == hb.utilization);
                $assert!(ha.admitted == hb.admitted, "{}: host admitted", ss.scenario);
                $assert!(ha.rejected == hb.rejected);
                $assert!(ha.rounds == hb.rounds, "{}: host rounds", ss.scenario);
            }
            let host_events = |r: &disengaged_scheduling::scenario::CellResult| {
                r.fleet
                    .as_ref()
                    .map(|f| f.hosts.iter().map(|h| h.events).collect::<Vec<_>>())
            };
            $assert!(host_events(s) == host_events(p), "{}: per-host events", ss.scenario);
            for (da, db) in ss.per_device.iter().zip(&ps.per_device) {
                $assert!(da.device == db.device);
                $assert!(da.utilization == db.utilization);
                $assert!(da.rejected == db.rejected);
                $assert!(da.tenants == db.tenants);
                $assert!(da.migrations_in == db.migrations_in);
                $assert!(da.migrations_out == db.migrations_out);
                $assert!(da.transfer_stall == db.transfer_stall);
            }
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The work-stealing runner is invisible: for any thread count and
    /// any steal-prone skew of cell costs, `run_parallel` produces the
    /// same cell results as `run_serial`, in the same plan order.
    #[test]
    fn work_stealing_sweep_matches_serial_for_any_thread_count(
        threads in 1usize..=16,
        shapes in proptest::collection::vec((1u64..=8, 1u32..=3, 1usize..=3), 2..5),
        seeds in proptest::collection::vec(0u64..1_000, 1..3),
    ) {
        let cells = skewed_plan(&shapes, &seeds);
        let serial = sweep::run_serial(&cells);
        let parallel = sweep::run_parallel(&cells, Some(threads));
        assert_cells_equivalent!(prop_assert, serial, parallel);
    }
}

/// A reused [`World`] (`reset()` then re-run) behaves exactly like a
/// freshly constructed one — for every scheduler × placement pair, on
/// a churny two-device scenario, down to the trace text, whether the
/// world was dirtied on the same flat host or on a wider, cost-bearing
/// one. This is the contract that lets sweep workers recycle one world
/// across cells.
#[test]
fn reset_world_matches_fresh_world() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    fn config() -> WorldConfig {
        WorldConfig {
            topology: Topology::symmetric(2, GpuConfig::default()),
            seed: 0x90_1D,
            ..WorldConfig::default()
        }
    }
    fn drive(world: &mut World) -> (u64, u64, usize) {
        world.trace.set_enabled(true);
        for _ in 0..2 {
            world
                .add_task(Box::new(Throttle::new(SimDuration::from_micros(150))))
                .unwrap();
        }
        world.spawn_task_for(
            SimTime::ZERO + SimDuration::from_millis(10),
            Box::new(Throttle::new(SimDuration::from_micros(700))),
            SimDuration::from_millis(20),
        );
        let report = world.run(SimDuration::from_millis(50));
        let mut log = String::new();
        for e in world.trace.iter() {
            log.push_str(&format!("{e}\n"));
        }
        (
            fnv1a(log.as_bytes()),
            report.stats.get(StatKey::Faults),
            report.tasks.len(),
        )
    }
    let schedulers = [
        SchedulerKind::Direct,
        SchedulerKind::Timeslice,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::DisengagedFairQueueing,
        SchedulerKind::EngagedSfq,
        SchedulerKind::EngagedDrr,
    ];
    // Three devices on two NUMA nodes with PCIe-gen3 pricing: a reset
    // must replace the device set and the interconnect, not only the
    // per-device state.
    let wide = Topology::new(
        (0..3)
            .map(|i| DeviceSlotSpec {
                config: GpuConfig::default(),
                numa: i / 2,
                switch_id: i,
            })
            .collect(),
        InterconnectParams::pcie_gen3(),
    );
    for kind in schedulers {
        for placement in PlacementKind::ALL {
            let mut fresh = World::with_devices(config(), placement.build(), |_| {
                kind.build(SchedParams::default())
            });
            let expected = drive(&mut fresh);
            for dirty_topology in [config().topology, wide.clone()] {
                let dirty_devices = dirty_topology.len();
                // Dirty a world on a *different* program (other
                // scheduler axis ordering would hide state leaks) — and
                // put it through chaos: a hang the watchdog kills and a
                // device hot-remove whose residents drain-migrate.
                // Watchdog arms, park queues and offline devices must
                // all clear on reset.
                let mut chaos = FaultPlan::new(FaultConfig {
                    watchdog: Some(SimDuration::from_millis(2)),
                    ..FaultConfig::default()
                });
                chaos
                    .push(
                        SimTime::ZERO + SimDuration::from_millis(1),
                        FaultKind::TaskHang { task: None },
                    )
                    .push(
                        SimTime::ZERO + SimDuration::from_millis(3),
                        FaultKind::DeviceRemove {
                            device: DeviceId::new(1),
                        },
                    );
                let dirty_config = WorldConfig {
                    topology: dirty_topology,
                    faults: Some(chaos),
                    ..config()
                };
                let mut reused =
                    World::with_devices(dirty_config, PlacementKind::RoundRobin.build(), |_| {
                        SchedulerKind::Timeslice.build(SchedParams::default())
                    });
                reused.trace.set_enabled(true);
                reused
                    .add_task(Box::new(Throttle::new(SimDuration::from_micros(90))))
                    .unwrap();
                let dirty = reused.run(SimDuration::from_millis(15));
                assert!(
                    dirty.stats.get(StatKey::WatchdogKills) >= 1
                        && dirty.stats.get(StatKey::HotRemoves) == 1,
                    "dirty run must actually exercise the fault paths \
                     (kills={}, removes={})",
                    dirty.stats.get(StatKey::WatchdogKills),
                    dirty.stats.get(StatKey::HotRemoves)
                );
                assert_eq!(dirty.devices.len(), dirty_devices);
                assert_eq!(
                    dirty.transfer_stall.is_zero(),
                    dirty_devices == 2,
                    "only the PCIe-priced host charges data movement"
                );

                reused.reset(config(), placement.build(), |_| {
                    kind.build(SchedParams::default())
                });
                let replayed = drive(&mut reused);
                assert_eq!(
                    expected, replayed,
                    "{kind} × {placement}: reused world drifted from fresh \
                     (dirtied on {dirty_devices} devices)"
                );
            }
        }
    }
}
