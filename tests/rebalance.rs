//! Rebalancing-subsystem integration tests.
//!
//! Four batteries, matching the cost-aware-rebalancing acceptance
//! criteria:
//!
//! 1. **Golden equivalence** — `RebalanceKind::CountDiff` on a flat
//!    free-interconnect world reproduces the pre-subsystem
//!    `rebalance = true` heuristic **byte for byte**: the trace hashes
//!    below were captured by running this exact scenario on the last
//!    commit before the `Rebalance` trait existed.
//! 2. **Migration stability** — under an alternating departure storm
//!    on a cross-NUMA topology, the charge-blind baseline shuttles
//!    tasks back and forth while `CostAware` bounds per-task
//!    migrations (cooldown + gain veto), and never migrates at all
//!    when the transfer cost exceeds the estimated gain.
//! 3. **Same-device guard** — a buggy policy returning the source
//!    device must not tear down and re-create the task's state; nor may
//!    an unsound plan (dead task, unknown, full or offline target) run.
//! 4. **Tenant counters** — the per-device resident counts match a
//!    scan of the task table through churn, migrations and kills.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::fault::{FaultConfig, FaultKind, FaultPlan};
use disengaged_scheduling::core::placement::{DeviceLoad, PlacementKind};
use disengaged_scheduling::core::rebalance::{
    Migration, MigrationCandidate, Rebalance, RebalanceKind,
};
use disengaged_scheduling::core::telemetry::StatKey;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::gpu::{DeviceSlotSpec, GpuConfig, InterconnectParams, Topology};
use disengaged_scheduling::workloads::Throttle;
use neon_core::workload::{FixedLoop, WithWorkingSet};
use neon_gpu::TaskId;
use neon_sim::{SimDuration, SimTime};

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}
fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The rebalance-heavy churn used for the legacy capture: four
/// residents spread over two devices, two early departures that leave
/// an imbalance, a pair of transient visitors, and a latecomer.
fn legacy_world(kind: SchedulerKind, placement: PlacementKind) -> World {
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        rebalance: RebalanceKind::CountDiff,
        seed: 0xCAFE,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, placement.build(), |_| {
        kind.build(SchedParams::default())
    });
    world.trace.set_enabled(true);
    for _ in 0..4 {
        world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    }
    world.depart_task_at(SimTime::ZERO + ms(5), TaskId::new(1));
    world.depart_task_at(SimTime::ZERO + ms(8), TaskId::new(3));
    world.spawn_task_for(
        SimTime::ZERO + ms(12),
        Box::new(Throttle::new(us(600))),
        ms(20),
    );
    world.spawn_task_for(
        SimTime::ZERO + ms(20),
        Box::new(Throttle::new(us(300))),
        ms(25),
    );
    world.spawn_task_at(SimTime::ZERO + ms(55), Box::new(Throttle::new(us(150))));
    world
}

/// The acceptance criterion: `CountDiff` on a flat free-interconnect
/// world is byte-identical — trace text included — to the retired
/// `rebalance = true` code path. Expected values captured on the
/// pre-subsystem commit.
#[test]
fn count_diff_reproduces_the_legacy_rebalance_path_exactly() {
    struct Golden {
        kind: SchedulerKind,
        placement: PlacementKind,
        trace_hash: u64,
        trace_len: usize,
        busy_ns: u64,
        migrations: u64,
    }
    let goldens = [
        Golden {
            kind: SchedulerKind::Direct,
            placement: PlacementKind::RoundRobin,
            trace_hash: 0x380c_0206_6fe0_caaa,
            trace_len: 8,
            busy_ns: 159_560_111,
            migrations: 1,
        },
        Golden {
            kind: SchedulerKind::Direct,
            placement: PlacementKind::LeastLoaded,
            trace_hash: 0xce40_2b51_43bb_0ad3,
            trace_len: 8,
            busy_ns: 159_580_982,
            migrations: 1,
        },
        Golden {
            kind: SchedulerKind::DisengagedFairQueueing,
            placement: PlacementKind::RoundRobin,
            trace_hash: 0x0339_ea3f_0d09_dca1,
            trace_len: 180,
            busy_ns: 157_720_056,
            migrations: 1,
        },
        Golden {
            kind: SchedulerKind::DisengagedFairQueueing,
            placement: PlacementKind::LeastLoaded,
            trace_hash: 0xfbcb_8edf_1d99_043d,
            trace_len: 144,
            busy_ns: 158_154_598,
            migrations: 1,
        },
    ];
    for g in goldens {
        let mut world = legacy_world(g.kind, g.placement);
        let report = world.run(ms(80));
        assert_eq!(
            report.compute_busy.as_nanos(),
            g.busy_ns,
            "{} {}",
            g.kind,
            g.placement
        );
        assert_eq!(
            report.stats.get(StatKey::MigrationsIn),
            g.migrations,
            "{} {}",
            g.kind,
            g.placement
        );
        let mut log = String::new();
        for e in world.trace.iter() {
            log.push_str(&format!("{e}\n"));
        }
        assert_eq!(world.trace.len(), g.trace_len, "{} {}", g.kind, g.placement);
        assert_eq!(
            fnv1a(log.as_bytes()),
            g.trace_hash,
            "{} {}: trace text drifted from the pre-subsystem capture",
            g.kind,
            g.placement
        );
    }
}

/// Two full-size devices a NUMA hop apart, PCIe-gen3 pricing.
fn cross_numa_pair() -> Topology {
    Topology::new(
        vec![
            DeviceSlotSpec {
                config: GpuConfig::default(),
                numa: 0,
                switch_id: 0,
            },
            DeviceSlotSpec {
                config: GpuConfig::default(),
                numa: 1,
                switch_id: 1,
            },
        ],
        InterconnectParams::pcie_gen3(),
    )
}

/// The departure storm: two unpinned residents per device, then waves
/// of short-lived visitors pinned alternately to each device. Every
/// visitor departure re-checks the populations with the imbalance
/// flipping sides, so a charge-blind policy shuttles the residents
/// across the NUMA link again and again.
fn departure_storm(
    rebalance: RebalanceKind,
    working_set: u64,
) -> disengaged_scheduling::core::RunReport {
    let config = WorldConfig {
        topology: cross_numa_pair(),
        rebalance,
        seed: 0x57_02,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    for i in 0..4 {
        world
            .add_task(Box::new(WithWorkingSet::new(
                Box::new(FixedLoop::endless(format!("r{i}"), us(60), us(5))),
                working_set,
            )))
            .unwrap();
    }
    for wave in 0..6u64 {
        let device = neon_gpu::DeviceId::new((wave % 2) as u32);
        for slot in 0..3u64 {
            world.spawn_task_for_on(
                SimTime::ZERO + ms(5 + 15 * wave) + us(200 * slot),
                Box::new(WithWorkingSet::new(
                    Box::new(FixedLoop::endless(
                        format!("v{wave}-{slot}"),
                        us(40),
                        us(20),
                    )),
                    1 << 20,
                )),
                ms(8),
                device,
            );
        }
    }
    world.run(ms(110))
}

/// The migration-stability criterion: under the alternating storm the
/// baseline ping-pongs (some task moves again and again) while the
/// cost-aware policy bounds per-task migrations and total wire time.
#[test]
fn cost_aware_bounds_migrations_under_a_departure_storm() {
    let ws = 64 << 20;
    let baseline = departure_storm(RebalanceKind::CountDiff, ws);
    let aware = departure_storm(RebalanceKind::CostAware, ws);

    let max_moves = |r: &disengaged_scheduling::core::RunReport| {
        r.tasks.iter().map(|t| t.migrations).max().unwrap_or(0)
    };
    assert!(
        baseline.stats.get(StatKey::MigrationsIn) >= 8 && max_moves(&baseline) >= 6,
        "the storm must actually ping-pong under the baseline \
         (total {}, worst task {})",
        baseline.stats.get(StatKey::MigrationsIn),
        max_moves(&baseline)
    );
    assert!(
        max_moves(&aware) <= 3 && max_moves(&aware) * 2 <= max_moves(&baseline),
        "cost-aware must bound per-task migrations: worst task moved {} \
         times vs the baseline's {}",
        max_moves(&aware),
        max_moves(&baseline)
    );
    assert!(
        aware.stats.get(StatKey::MigrationsIn) <= baseline.stats.get(StatKey::MigrationsIn),
        "cost-aware migrated more ({}) than the baseline ({})",
        aware.stats.get(StatKey::MigrationsIn),
        baseline.stats.get(StatKey::MigrationsIn)
    );
    assert!(
        aware.transfer_stall <= baseline.transfer_stall,
        "cost-aware moved more bytes ({}) than the baseline ({})",
        aware.transfer_stall,
        baseline.transfer_stall
    );
    // Residents keep making progress either way.
    for t in &aware.tasks[..4] {
        assert!(t.rounds_completed() > 100, "{} starved", t.name);
    }
}

/// `CostAware` never migrates when the transfer cost exceeds the
/// estimated gain: with working sets so large the cross-NUMA transfer
/// dwarfs any observable queueing delta, the same storm that drives
/// the baseline to migrate produces exactly zero cost-aware moves.
#[test]
fn cost_aware_never_migrates_when_cost_exceeds_gain() {
    let ws = 8u64 << 30; // ~1.4 s across the NUMA hop
    let baseline = departure_storm(RebalanceKind::CountDiff, ws);
    let aware = departure_storm(RebalanceKind::CostAware, ws);
    assert!(
        baseline.stats.get(StatKey::MigrationsIn) >= 1,
        "the charge-blind baseline must still move tasks"
    );
    assert_eq!(
        aware.stats.get(StatKey::MigrationsIn),
        0,
        "no observable gain can amortize a 1.4 s transfer"
    );
    assert_eq!(
        aware.tasks.iter().map(|t| t.migrations).sum::<u32>(),
        0,
        "per-task counters must agree"
    );
}

/// A buggy policy that always "migrates" the first candidate to the
/// device it already lives on.
struct SameDevice;

impl Rebalance for SameDevice {
    fn name(&self) -> &'static str {
        "same-device"
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _topology: &Topology,
        _loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        candidates.first().map(|c| Migration {
            task: c.task,
            to: c.from,
        })
    }
}

/// The same-device guard: a policy naming the source device as the
/// target must be refused outright — no teardown, no re-admission, no
/// migration charged — and the run keeps going.
#[test]
fn migration_to_the_same_device_is_refused_not_replayed() {
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        seed: 0xD0_0D,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    world.set_rebalance_policy(Box::new(SameDevice));
    world.trace.set_enabled(true);
    for i in 0..2 {
        world
            .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(80), us(5))))
            .unwrap();
    }
    // Three departures, each consulting the buggy policy.
    for i in 0..3u64 {
        world.spawn_task_for(
            SimTime::ZERO + ms(2 + 4 * i),
            Box::new(FixedLoop::endless(format!("v{i}"), us(80), us(5))),
            ms(2),
        );
    }
    let report = world.run(ms(40));
    assert_eq!(
        report.stats.get(StatKey::MigrationsIn),
        0,
        "a same-device move is not a move"
    );
    assert_eq!(report.tasks.iter().map(|t| t.migrations).sum::<u32>(), 0);
    let noop_lines = world
        .trace
        .iter()
        .filter(|e| format!("{e}").contains("migrate-noop"))
        .count();
    assert_eq!(noop_lines, 3, "each refusal is traced, nothing torn down");
    // The victim task never lost queued work to a teardown: it kept
    // completing rounds at full rate throughout.
    assert!(
        report.tasks[0].rounds_completed() > 200,
        "task lost progress to a same-device replay: {} rounds",
        report.tasks[0].rounds_completed()
    );
}

/// A policy that cycles through every kind of unsound plan: a dead
/// task, an out-of-range target device, and a full target.
struct Unsound {
    calls: u32,
}

impl Rebalance for Unsound {
    fn name(&self) -> &'static str {
        "unsound"
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _topology: &Topology,
        _loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        self.calls += 1;
        match self.calls % 3 {
            0 => Some(Migration {
                // Task ids are dense; this run admits far fewer.
                task: TaskId::new(1_000),
                to: neon_gpu::DeviceId::new(1),
            }),
            1 => candidates.first().map(|c| Migration {
                task: c.task,
                to: neon_gpu::DeviceId::new(99),
            }),
            _ => candidates.first().map(|c| Migration {
                task: c.task,
                // Device 1 has a single context, already occupied.
                to: neon_gpu::DeviceId::new(1),
            }),
        }
    }
}

/// An arbitrary policy installed through `set_rebalance_policy` may
/// return plans the built-in kinds never produce: unknown tasks,
/// out-of-range devices, targets with no room. Each must be refused
/// with a traced no-op — never a panic or a teardown.
#[test]
fn unsound_migration_plans_are_refused_not_executed() {
    let config = WorldConfig {
        topology: Topology::new(
            vec![
                DeviceSlotSpec::near(GpuConfig::default()),
                DeviceSlotSpec::near(GpuConfig {
                    total_contexts: 1,
                    ..GpuConfig::default()
                }),
            ],
            InterconnectParams::free(),
        ),
        seed: 0xBAD0,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    world.set_rebalance_policy(Box::new(Unsound { calls: 0 }));
    world.trace.set_enabled(true);
    for i in 0..2 {
        world
            .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(80), us(5))))
            .unwrap();
    }
    for i in 0..3u64 {
        world.spawn_task_for(
            SimTime::ZERO + ms(2 + 4 * i),
            Box::new(FixedLoop::endless(format!("v{i}"), us(80), us(5))),
            ms(2),
        );
    }
    let report = world.run(ms(40));
    assert_eq!(
        report.stats.get(StatKey::MigrationsIn),
        0,
        "no unsound plan may execute"
    );
    let refusals = world
        .trace
        .iter()
        .filter(|e| format!("{e}").contains("migrate-refused"))
        .count();
    assert_eq!(refusals, 3, "every unsound plan is traced as refused");
    for t in &report.tasks[..2] {
        assert!(t.rounds_completed() > 200, "{} lost progress", t.name);
    }
}

/// A policy that sends the first candidate to device 1, whatever state
/// device 1 is in.
struct ToDeviceOne;

impl Rebalance for ToDeviceOne {
    fn name(&self) -> &'static str {
        "to-device-one"
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _topology: &Topology,
        _loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        candidates.first().map(|c| Migration {
            task: c.task,
            to: neon_gpu::DeviceId::new(1),
        })
    }
}

/// The built-in policies never see a hot-removed device, but a custom
/// one may name it. The plan must be refused (the device would dispatch
/// nothing until a hot-add), not executed.
#[test]
fn migration_to_an_offline_device_is_refused() {
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        SimTime::ZERO + ms(1),
        FaultKind::DeviceRemove {
            device: neon_gpu::DeviceId::new(1),
        },
    );
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        seed: 0x0FF1,
        faults: Some(plan),
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    world.set_rebalance_policy(Box::new(ToDeviceOne));
    world.trace.set_enabled(true);
    // Everyone arrives after the removal, so everyone lands on device 0;
    // each visitor's departure consults the policy.
    for i in 0..2 {
        world.spawn_task_at(
            SimTime::ZERO + ms(2),
            Box::new(FixedLoop::endless(format!("t{i}"), us(80), us(5))),
        );
    }
    for i in 0..3u64 {
        world.spawn_task_for(
            SimTime::ZERO + ms(3 + 4 * i),
            Box::new(FixedLoop::endless(format!("v{i}"), us(80), us(5))),
            ms(2),
        );
    }
    let report = world.run(ms(30));
    assert_eq!(
        report.stats.get(StatKey::MigrationsIn),
        0,
        "no task may land on an offline device"
    );
    assert_eq!(report.devices[1].tenants, 0);
    assert_eq!(report.devices[1].stats.get(StatKey::MigrationsIn), 0);
    let refusals = world
        .trace
        .iter()
        .filter(|e| format!("{e}").contains("target is offline"))
        .count();
    assert_eq!(refusals, 3, "each departure's plan is refused and traced");
}

/// The per-device resident indexes behind `DeviceLoad::tenants` and
/// `DeviceReport::tenants` stay consistent with a scan of the task
/// table through churn, migrations, and scheduler kills. (Debug builds
/// of the world also check each index against that scan on every
/// attach and detach, so any in-run drift would abort these tests.)
#[test]
fn live_tenant_counters_match_the_task_table_scan() {
    // Churn + migrations (count-diff keeps both devices busy moving).
    let config = WorldConfig {
        topology: Topology::symmetric(3, GpuConfig::default()),
        rebalance: RebalanceKind::CountDiff,
        seed: 0x7E_AA,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::DisengagedFairQueueing.build(SchedParams::default())
    });
    for i in 0..5 {
        world
            .add_task(Box::new(Throttle::new(us(100 + 50 * i))))
            .unwrap();
    }
    for i in 0..6u64 {
        world.spawn_task_for(
            SimTime::ZERO + ms(3 * (i + 1)),
            Box::new(Throttle::new(us(400))),
            ms(7),
        );
    }
    let report = world.run(ms(60));
    for d in &report.devices {
        let scanned = report
            .tasks
            .iter()
            .filter(|t| t.finished_at.is_none() && t.device == d.device)
            .count();
        assert_eq!(
            d.tenants, scanned,
            "{}: counter diverged from the task table",
            d.device
        );
    }

    // Kills decrement too: an infinite-loop adversary under engaged
    // Timeslice gets killed, and the counters still reconcile.
    let params = SchedParams {
        overlong_limit: ms(5),
        ..SchedParams::default()
    };
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        seed: 0x7E_AB,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), move |_| {
        SchedulerKind::Timeslice.build(params.clone())
    });
    world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    world
        .add_task(Box::new(
            disengaged_scheduling::workloads::adversary::InfiniteLoop::new(3, us(100)),
        ))
        .unwrap();
    let report = world.run(ms(120));
    assert_eq!(
        report.tasks.iter().filter(|t| t.killed).count(),
        1,
        "the adversary must be killed for this battery to mean anything"
    );
    for d in &report.devices {
        let scanned = report
            .tasks
            .iter()
            .filter(|t| t.finished_at.is_none() && t.device == d.device)
            .count();
        assert_eq!(
            d.tenants, scanned,
            "{}: kill path missed the counter",
            d.device
        );
    }
}
