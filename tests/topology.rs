//! Topology-layer integration tests.
//!
//! Three batteries, matching the heterogeneous-topology acceptance
//! criteria:
//!
//! 1. **Golden equivalence** — a world built from a symmetric host
//!    spelled out slot by slot (identical near devices, free
//!    interconnect — what a `[[device]]` list without an interconnect
//!    loads as) must be byte-identical — trace hashes included — to
//!    the flat host [`Topology::symmetric`], whose own behavior is
//!    pinned bit-for-bit to the PR 2 captures by
//!    `tests/multi_device.rs`.
//! 2. **Placement properties** — `locality-first` and `cost-min` never
//!    reject an arrival while any device fits it (randomized
//!    capacities, coordinates and working sets), and migration charges
//!    are monotone in both link distance and working-set size.
//! 3. **Heterogeneous churn** — every scheduler survives
//!    arrival/departure churn on a heterogeneous cost-bearing
//!    topology under the topology-aware policies, deterministically.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::rebalance::RebalanceKind;
use disengaged_scheduling::core::telemetry::StatKey;
use disengaged_scheduling::core::workload::WithWorkingSet;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::gpu::{
    DeviceSlotSpec, GpuConfig, InterconnectParams, LinkTier, Topology,
};
use disengaged_scheduling::workloads::Throttle;
use neon_core::workload::FixedLoop;
use neon_gpu::TaskId;
use neon_sim::{SimDuration, SimTime};
use proptest::prelude::*;

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

/// The churny scenario of `tests/multi_device.rs`, staged on a world
/// built by `make_config`.
fn run_churny(
    config: WorldConfig,
    kind: SchedulerKind,
    placement: PlacementKind,
) -> (u64, SimDuration, Vec<Vec<SimDuration>>, Vec<u32>) {
    let mut world = World::with_devices(config, placement.build(), |_| {
        kind.build(SchedParams::default())
    });
    world.trace.set_enabled(true);
    for _ in 0..4 {
        world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    }
    world.spawn_task_for(
        SimTime::ZERO + ms(10),
        Box::new(Throttle::new(us(900))),
        ms(30),
    );
    world.spawn_task_for(
        SimTime::ZERO + ms(15),
        Box::new(Throttle::new(us(400))),
        ms(40),
    );
    world.spawn_task_at(SimTime::ZERO + ms(60), Box::new(Throttle::new(us(150))));
    let report = world.run(ms(100));
    let mut log = String::new();
    for e in world.trace.iter() {
        log.push_str(&format!("{e}\n"));
    }
    (
        fnv1a(log.as_bytes()),
        report.compute_busy,
        report.tasks.iter().map(|t| t.rounds.clone()).collect(),
        report.tasks.iter().map(|t| t.device.raw()).collect(),
    )
}

/// The acceptance criterion: a symmetric topology spelled out as
/// explicit slots (identical near devices, free interconnect)
/// reproduces the flat host [`Topology::symmetric`] — itself pinned
/// bit-for-bit to the PR 2 captures by `tests/multi_device.rs` —
/// exactly, trace text included, for every device count, placement
/// policy, and a protection-exercising scheduler.
#[test]
fn symmetric_topology_worlds_match_the_flat_path_byte_for_byte() {
    for devices in [1usize, 2, 4] {
        for placement in PlacementKind::ALL {
            for kind in [SchedulerKind::Direct, SchedulerKind::DisengagedFairQueueing] {
                let flat = WorldConfig {
                    topology: Topology::symmetric(devices, GpuConfig::default()),
                    seed: 0xD15C,
                    rebalance: RebalanceKind::CountDiff,
                    ..WorldConfig::default()
                };
                let slots = vec![DeviceSlotSpec::near(GpuConfig::default()); devices];
                let topo = WorldConfig {
                    topology: Topology::new(slots, InterconnectParams::free()),
                    seed: 0xD15C,
                    rebalance: RebalanceKind::CountDiff,
                    ..WorldConfig::default()
                };
                assert_eq!(
                    run_churny(flat, kind, placement),
                    run_churny(topo, kind, placement),
                    "{devices} devices, {placement}, {kind}: symmetric topology \
                     diverged from the flat path"
                );
            }
        }
    }
}

/// A topology whose transfer costs are *nonzero* must still leave the
/// no-migration, single-device world untouched except for admission
/// staging — and staging must show up in the report.
#[test]
fn staging_is_charged_once_per_admission_and_reported() {
    let topology = Topology::new(
        vec![DeviceSlotSpec {
            config: GpuConfig::default(),
            numa: 1,
            switch_id: 3,
        }],
        InterconnectParams::pcie_gen3(),
    );
    let expected = topology.staging_cost(0, 64 << 20);
    assert!(expected > SimDuration::ZERO);
    let config = WorldConfig {
        topology,
        ..WorldConfig::default()
    };
    let mut world = World::new(config, SchedulerKind::Direct.build(SchedParams::default()));
    world.add_task(Box::new(Throttle::new(us(200)))).unwrap();
    world.spawn_task_at(SimTime::ZERO + ms(5), Box::new(Throttle::new(us(200))));
    let report = world.run(ms(30));
    assert_eq!(report.tasks[0].transfer_stall, expected);
    assert_eq!(report.tasks[1].transfer_stall, expected);
    assert_eq!(report.transfer_stall, expected * 2);
    // The staged tasks still run: presence minus staging is productive.
    for t in &report.tasks {
        assert!(t.rounds_completed() > 0, "{} never ran", t.name);
    }
}

/// Builds a two-device topology whose devices sit `tier` apart while
/// both stay cross-NUMA from the host (so admission staging is
/// constant across tiers and only the migration leg varies).
fn two_device_topology(tier: LinkTier) -> Topology {
    let (numa, switches) = match tier {
        LinkTier::SameSwitch => ((1, 1), (5, 5)),
        LinkTier::CrossPcie => ((1, 1), (5, 6)),
        LinkTier::CrossNuma => ((1, 2), (5, 6)),
        LinkTier::Local => panic!("two devices cannot be local"),
    };
    Topology::new(
        vec![
            DeviceSlotSpec {
                config: GpuConfig::default(),
                numa: numa.0,
                switch_id: switches.0,
            },
            DeviceSlotSpec {
                config: GpuConfig::default(),
                numa: numa.1,
                switch_id: switches.1,
            },
        ],
        InterconnectParams::pcie_gen3(),
    )
}

/// Runs the deterministic one-migration scenario (round-robin spread,
/// then both of device 1's tenants depart) and returns the migrated
/// task's transfer stall beyond its staging share.
fn migration_stall_at(tier: LinkTier, working_set: u64) -> SimDuration {
    let topology = two_device_topology(tier);
    let staging = topology.staging_cost(0, working_set);
    let config = WorldConfig {
        topology,
        rebalance: RebalanceKind::CountDiff,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    for i in 0..4 {
        world
            .add_task(Box::new(WithWorkingSet::new(
                Box::new(FixedLoop::endless(format!("t{i}"), us(60), us(5))),
                working_set,
            )))
            .unwrap();
    }
    world.depart_task_at(SimTime::ZERO + ms(5), TaskId::new(1));
    world.depart_task_at(SimTime::ZERO + ms(6), TaskId::new(3));
    let report = world.run(ms(40));
    assert_eq!(
        report.stats.get(StatKey::MigrationsIn),
        1,
        "{tier}: exactly one migration expected"
    );
    let migrated = report.tasks.iter().find(|t| t.migrations > 0).unwrap();
    assert_eq!(
        report.devices[1].stats.get(StatKey::MigrationsIn),
        1,
        "{tier}: the migration must land on the drained device"
    );
    migrated.transfer_stall.saturating_sub(staging)
}

#[test]
fn migration_charges_are_monotone_in_link_distance() {
    let ws = 64u64 << 20;
    let same = migration_stall_at(LinkTier::SameSwitch, ws);
    let pcie = migration_stall_at(LinkTier::CrossPcie, ws);
    let numa = migration_stall_at(LinkTier::CrossNuma, ws);
    assert!(
        same < pcie && pcie < numa,
        "migration stall must grow with link distance: {same} / {pcie} / {numa}"
    );
    // And with the working set, at a fixed tier.
    let small = migration_stall_at(LinkTier::CrossPcie, 1 << 20);
    assert!(
        small < pcie,
        "1 MiB must move faster than 64 MiB: {small} vs {pcie}"
    );
}

/// Every scheduler survives churn on a heterogeneous, cost-bearing
/// topology under both topology-aware placement policies, and the
/// whole dance is deterministic.
#[test]
fn heterogeneous_churn_runs_every_scheduler_deterministically() {
    let hetero = || {
        Topology::new(
            vec![
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 0,
                    switch_id: 0,
                },
                DeviceSlotSpec {
                    config: GpuConfig {
                        total_channels: 48,
                        total_contexts: 24,
                        ..GpuConfig::default()
                    },
                    numa: 1,
                    switch_id: 1,
                },
            ],
            InterconnectParams::pcie_gen3(),
        )
    };
    for kind in SchedulerKind::ALL {
        for placement in [PlacementKind::LocalityFirst, PlacementKind::CostMin] {
            let run = || {
                let config = WorldConfig {
                    topology: hetero(),
                    rebalance: RebalanceKind::CountDiff,
                    seed: 0xBEEF,
                    ..WorldConfig::default()
                };
                let mut world = World::with_devices(config, placement.build(), |_| {
                    kind.build(SchedParams::default())
                });
                for _ in 0..3 {
                    world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
                }
                for wave in 0..3u64 {
                    world.spawn_task_for(
                        SimTime::ZERO + ms(10 + 25 * wave),
                        Box::new(WithWorkingSet::new(
                            Box::new(Throttle::new(us(700))),
                            8 << 20,
                        )),
                        ms(20),
                    );
                }
                let report = world.run(ms(150));
                (
                    report.compute_busy,
                    report
                        .tasks
                        .iter()
                        .map(|t| (t.rounds.len(), t.device.raw()))
                        .collect::<Vec<_>>(),
                )
            };
            let (busy, tasks) = run();
            assert!(
                tasks.iter().filter(|(rounds, _)| *rounds > 0).count() >= 3,
                "{kind}/{placement}: residents starved: {tasks:?}"
            );
            assert!(busy > SimDuration::ZERO, "{kind}/{placement}: idle run");
            assert_eq!((busy, tasks), run(), "{kind}/{placement}: nondeterministic");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The issue's placement property for the topology-aware policies:
    /// neither `cost-min` nor `locality-first` ever rejects an arrival
    /// while any device still fits it, whatever the capacities,
    /// coordinates, or working-set sizes.
    #[test]
    fn topology_aware_policies_never_waste_capacity(
        caps in proptest::collection::vec(1usize..4, 2..5),
        numas in proptest::collection::vec(0u32..3, 4..5),
        switches in proptest::collection::vec(0u32..3, 4..5),
        arrivals in 1usize..12,
        ws_mb in 1u64..256,
        cost_min in 0usize..2,
        seed in 0u64..500,
    ) {
        let total: usize = caps.iter().sum();
        let slots: Vec<DeviceSlotSpec> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let numa = numas[i % numas.len()];
                let sw = switches[i % switches.len()];
                DeviceSlotSpec {
                    config: GpuConfig {
                        total_contexts: c,
                        total_channels: c,
                        ..GpuConfig::default()
                    },
                    numa,
                    // Keep switch ids NUMA-local so the layout is
                    // physically possible.
                    switch_id: numa * 10 + sw,
                }
            })
            .collect();
        let config = WorldConfig {
            topology: Topology::new(slots, InterconnectParams::pcie_gen3()),
            seed,
            ..WorldConfig::default()
        };
        let placement = if cost_min == 1 {
            PlacementKind::CostMin
        } else {
            PlacementKind::LocalityFirst
        };
        let mut world = World::with_devices(
            config,
            placement.build(),
            |_| SchedulerKind::Direct.build(SchedParams::default()),
        );
        // Tasks never depart, so occupancy is monotone: exactly the
        // first `total` arrivals must be admitted, the rest rejected.
        for i in 0..arrivals {
            world.spawn_task_at(
                SimTime::ZERO + SimDuration::from_micros(100 * (i as u64 + 1)),
                Box::new(WithWorkingSet::new(
                    Box::new(Throttle::new(us(120))),
                    ws_mb << 20,
                )),
            );
        }
        let report = world.run(ms(30));
        let expected_admitted = arrivals.min(total);
        prop_assert_eq!(
            report.tasks.len(),
            expected_admitted,
            "{} admitted {} of {} arrivals with total capacity {}",
            placement, report.tasks.len(), arrivals, total
        );
        prop_assert_eq!(
            report.stats.get(StatKey::RejectedAdmissions),
            (arrivals - expected_admitted) as u64
        );
        // If anything was rejected, every device must be full.
        if arrivals >= total {
            for (d, &cap) in report.devices.iter().zip(&caps) {
                prop_assert_eq!(d.tenants, cap, "device {} not full", d.device);
            }
        }
    }
}
