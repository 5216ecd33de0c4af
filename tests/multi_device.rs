//! Multi-device integration tests: the single-device path must stay
//! byte-identical to the pre-refactor world, multi-device runs must be
//! deterministic for every device count, and placement policies must
//! never waste capacity.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::rebalance::RebalanceKind;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::gpu::{
    DeviceId, DeviceSlotSpec, GpuConfig, InterconnectParams, Topology,
};
use disengaged_scheduling::workloads::Throttle;
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

/// A fixed churn scenario: two residents, a large mid-run visitor that
/// departs, and a latecomer (the workload of the pre-refactor golden
/// capture).
fn golden_world(kind: SchedulerKind) -> World {
    let config = WorldConfig {
        seed: 0x90_1D,
        ..WorldConfig::default()
    };
    let mut world = World::new(config, kind.build(SchedParams::default()));
    world.trace.set_enabled(true);
    for _ in 0..2 {
        world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    }
    world.spawn_task_for(
        SimTime::ZERO + ms(20),
        Box::new(Throttle::new(us(900))),
        ms(40),
    );
    world.spawn_task_at(SimTime::ZERO + ms(80), Box::new(Throttle::new(us(150))));
    world
}

/// The acceptance criterion of the multi-device refactor: a 1-device
/// world reproduces the pre-refactor single-GPU traces **exactly**.
/// The expected values (engine busy nanoseconds, fault counts, round
/// counts, and an FNV-1a hash over the rendered trace log) were
/// captured by running this exact scenario on the last single-device
/// commit; any drift in event ordering, scheduler dispatch, or trace
/// text shows up here.
#[test]
fn one_device_world_reproduces_pre_refactor_traces_exactly() {
    struct Golden {
        kind: SchedulerKind,
        busy_ns: u64,
        faults: u64,
        rounds: [usize; 4],
        trace_hash: u64,
        trace_len: usize,
    }
    let goldens = [
        Golden {
            kind: SchedulerKind::Direct,
            busy_ns: 119_868_227,
            faults: 0,
            rounds: [250, 249, 33, 86],
            trace_hash: 0x729b_5fa4_f37c_9c02,
            trace_len: 3,
        },
        Golden {
            kind: SchedulerKind::DisengagedTimeslice,
            busy_ns: 116_855_565,
            faults: 6,
            rounds: [400, 379, 0, 0],
            trace_hash: 0x4f15_5a8c_d692_bae0,
            trace_len: 16,
        },
        Golden {
            kind: SchedulerKind::DisengagedFairQueueing,
            busy_ns: 119_158_160,
            faults: 73,
            rounds: [269, 268, 26, 86],
            // Re-baselined after the intentional sampling-window fix
            // (see tests/dfq_sampling.rs): on this benign scenario the
            // fix leaves busy/faults/rounds identical to the
            // pre-refactor capture and only rewords sample trace
            // lines. The other three policies are the original
            // pre-refactor hashes, untouched.
            trace_hash: 0x5e9e_9cbc_f78f_e214,
            trace_len: 85,
        },
        Golden {
            kind: SchedulerKind::Timeslice,
            busy_ns: 108_317_087,
            faults: 729,
            rounds: [371, 351, 0, 0],
            trace_hash: 0xf453_669d_e62f_b53f,
            trace_len: 739,
        },
    ];
    for g in goldens {
        let mut world = golden_world(g.kind);
        let report = world.run(ms(120));
        assert_eq!(report.compute_busy.as_nanos(), g.busy_ns, "{}", g.kind);
        assert_eq!(report.faults, g.faults, "{}", g.kind);
        let rounds: Vec<usize> = report.tasks.iter().map(|t| t.rounds_completed()).collect();
        assert_eq!(rounds, g.rounds, "{}", g.kind);
        let mut log = String::new();
        for e in world.trace.iter() {
            log.push_str(&format!("{e}\n"));
        }
        assert_eq!(world.trace.len(), g.trace_len, "{}", g.kind);
        assert_eq!(
            fnv1a(log.as_bytes()),
            g.trace_hash,
            "{}: trace text drifted from the pre-refactor capture",
            g.kind
        );
    }
}

fn churny_multi_world(
    devices: usize,
    kind: SchedulerKind,
    placement: PlacementKind,
    seed: u64,
) -> World {
    let config = WorldConfig {
        topology: Topology::symmetric(devices, GpuConfig::default()),
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, placement.build(), |_| {
        kind.build(SchedParams::default())
    });
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
    world
}

/// Same seed ⇒ identical traces and reports, for every device count
/// and placement policy.
#[test]
fn traces_are_deterministic_across_device_counts() {
    for devices in [1usize, 2, 4] {
        for placement in PlacementKind::ALL {
            let run = |seed: u64| {
                let mut world = churny_multi_world(
                    devices,
                    SchedulerKind::DisengagedFairQueueing,
                    placement,
                    seed,
                );
                world.trace.set_enabled(true);
                let report = world.run(ms(100));
                let mut log = String::new();
                for e in world.trace.iter() {
                    log.push_str(&format!("{e}\n"));
                }
                (
                    fnv1a(log.as_bytes()),
                    report.compute_busy,
                    report
                        .tasks
                        .iter()
                        .map(|t| t.rounds.clone())
                        .collect::<Vec<_>>(),
                    report.tasks.iter().map(|t| t.device).collect::<Vec<_>>(),
                )
            };
            let a = run(0xD15C);
            let b = run(0xD15C);
            assert_eq!(a, b, "{devices} devices, {placement}: nondeterministic");
        }
    }
}

/// The same scenario must place identically on repeated runs but is
/// allowed (expected!) to differ across placement policies; what may
/// never differ is the total work admitted when capacity suffices.
#[test]
fn every_placement_admits_everything_while_capacity_lasts() {
    for placement in PlacementKind::ALL {
        let mut world = churny_multi_world(2, SchedulerKind::Direct, placement, 7);
        let report = world.run(ms(100));
        assert_eq!(report.rejected_admissions, 0, "{placement}");
        assert_eq!(report.tasks.len(), 7, "{placement}");
        for t in &report.tasks {
            assert!(
                t.rounds_completed() > 0,
                "{placement}: {} starved on {}",
                t.name,
                t.device
            );
        }
    }
}

/// Pinning via the world API: tasks land exactly where pinned, and
/// per-device rejection is charged to the full pinned device.
#[test]
fn pinning_is_exact_and_rejections_are_per_device() {
    let config = WorldConfig {
        topology: Topology::new(
            vec![
                DeviceSlotSpec::near(GpuConfig {
                    total_contexts: 2,
                    ..GpuConfig::default()
                }),
                DeviceSlotSpec::near(GpuConfig::default()),
            ],
            InterconnectParams::free(),
        ),
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
        SchedulerKind::Direct.build(SchedParams::default())
    });
    for _ in 0..2 {
        world
            .add_task_pinned(Box::new(Throttle::new(us(200))), DeviceId::new(0))
            .unwrap();
    }
    // Device 0 is full: three pinned arrivals must bounce even though
    // device 1 is idle.
    for i in 0..3u64 {
        world.spawn_task_at_on(
            SimTime::ZERO + ms(1 + i),
            Box::new(Throttle::new(us(200))),
            DeviceId::new(0),
        );
    }
    let report = world.run(ms(30));
    assert_eq!(report.rejected_admissions, 3);
    assert_eq!(report.devices[0].rejected, 3);
    assert_eq!(report.devices[1].rejected, 0);
    assert_eq!(report.devices[1].tenants, 0, "nothing spilled to dev1");
}

/// Migration under an engagement-driven scheduler: departures trigger
/// rebalancing while DFQ runs barriers/sampling on both devices. The
/// source scheduler must see the migrating task as exited (teardown
/// first, then `on_task_exit` — mirroring the real exit path), so a
/// mid-sample migration can never strand the policy waiting on a
/// drained-away request. Heavy churn of departures makes several
/// migrations land at varied policy phases.
#[test]
fn rebalancing_under_dfq_survives_churn_and_keeps_tasks_running() {
    let run = || {
        let config = WorldConfig {
            topology: Topology::symmetric(2, GpuConfig::default()),
            rebalance: RebalanceKind::CountDiff,
            seed: 0x11_22,
            ..WorldConfig::default()
        };
        let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
            SchedulerKind::DisengagedFairQueueing.build(SchedParams::default())
        });
        // Long-lived unpinned residents (round-robin: one per device)
        // plus waves of visitors *pinned* to device 0. While a wave
        // overlaps, device 0 holds 3-4 tenants vs 1 — each staggered
        // departure re-checks the imbalance, so migrations land at
        // varied DFQ phases; only the unpinned residents may move.
        for _ in 0..2 {
            world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
        }
        for wave in 0..3u64 {
            for slot in 0..3u64 {
                world.spawn_task_for_on(
                    SimTime::ZERO + ms(10 + 120 * wave + 10 * slot),
                    Box::new(Throttle::new(us(2_000))),
                    ms(40),
                    DeviceId::new(0),
                );
            }
        }
        world.run(ms(400))
    };
    let report = run();
    assert!(
        report.migrations >= 1,
        "churn of this shape must trigger at least one rebalance migration"
    );
    for t in &report.tasks[..2] {
        assert!(
            t.rounds_completed() > 400,
            "resident starved after migrations: {} rounds",
            t.rounds_completed()
        );
    }
    // And the whole dance is reproducible.
    let again = run();
    assert_eq!(report.migrations, again.migrations);
    for (a, b) in report.tasks.iter().zip(&again.tasks) {
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.device, b.device);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// The least-loaded property from the issue: no arrival is ever
    /// rejected while any device still has capacity — equivalently, a
    /// task is never placed on (or bounced off) an exhausted device
    /// while another could host it. Device capacities and the arrival
    /// pattern are randomized; the invariant must hold always.
    #[test]
    fn least_loaded_never_wastes_capacity(
        caps in proptest::collection::vec(1usize..4, 2..5),
        arrivals in 1usize..12,
        seed in 0u64..500,
    ) {
        let total: usize = caps.iter().sum();
        let config = WorldConfig {
            topology: Topology::new(
                caps.iter()
                    .map(|&c| {
                        DeviceSlotSpec::near(GpuConfig {
                            total_contexts: c,
                            total_channels: c,
                            ..GpuConfig::default()
                        })
                    })
                    .collect(),
                InterconnectParams::free(),
            ),
            seed,
            ..WorldConfig::default()
        };
        let mut world = World::with_devices(
            config,
            PlacementKind::LeastLoaded.build(),
            |_| SchedulerKind::Direct.build(SchedParams::default()),
        );
        // Tasks never depart, so occupancy is monotone: exactly the
        // first `total` arrivals must be admitted, the rest rejected.
        for i in 0..arrivals {
            world.spawn_task_at(
                SimTime::ZERO + SimDuration::from_micros(100 * (i as u64 + 1)),
                Box::new(Throttle::new(us(120))),
            );
        }
        let report = world.run(ms(15));
        let expected_admitted = arrivals.min(total);
        prop_assert_eq!(
            report.tasks.len(),
            expected_admitted,
            "admitted {} of {} arrivals with total capacity {}",
            report.tasks.len(), arrivals, total
        );
        prop_assert_eq!(
            report.rejected_admissions,
            (arrivals - expected_admitted) as u64
        );
        // And no device was over- or under-filled while others starved:
        // every device holds min(cap, its fair share) tenants — in
        // particular, if any arrival was rejected, every device is full.
        if arrivals >= total {
            for (d, &cap) in report.devices.iter().zip(&caps) {
                prop_assert_eq!(d.tenants, cap, "device {} not full", d.device);
            }
        }
    }
}
