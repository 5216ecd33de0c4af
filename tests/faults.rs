//! Fault-injection integration tests: the watchdog kill-and-requeue
//! loop, crash and transient-submission-error paths, hot-remove
//! drain-and-migrate with park/re-stage recovery, degraded-capacity
//! accounting — and a chaos property: for *any* generated fault
//! schedule, under every scheduler × placement, the simulation
//! terminates, every admitted task lands in exactly one outcome
//! bucket, and the run replays byte-identically.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::fault::{FaultConfig, FaultKind, FaultPlan};
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::{RunReport, SchedulerKind};
use disengaged_scheduling::gpu::{DeviceId, GpuConfig, TaskId, Topology};
use disengaged_scheduling::workloads::Throttle;
use neon_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}
fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}
fn at_ms(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const ALL_SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::Direct,
    SchedulerKind::Timeslice,
    SchedulerKind::DisengagedTimeslice,
    SchedulerKind::DisengagedFairQueueing,
    SchedulerKind::EngagedSfq,
    SchedulerKind::EngagedDrr,
];

/// A world with `devices` GPUs, three residents and one mid-run
/// visitor, running `plan`.
fn run_faulted(
    kind: SchedulerKind,
    placement: PlacementKind,
    devices: usize,
    plan: FaultPlan,
    horizon: SimDuration,
) -> (RunReport, u64) {
    let config = WorldConfig {
        topology: Topology::symmetric(devices, GpuConfig::default()),
        seed: 0xFA_17,
        faults: Some(plan),
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, placement.build(), |_| {
        kind.build(SchedParams::default())
    });
    world.trace.set_enabled(true);
    for i in 0..3u64 {
        world
            .add_task(Box::new(Throttle::new(us(150 + 10 * i))))
            .expect("seed tasks fit");
    }
    world.spawn_task_for(at_ms(8), Box::new(Throttle::new(us(400))), ms(6));
    let report = world.run(horizon);
    let mut log = String::new();
    for e in world.trace.iter() {
        log.push_str(&format!("{e}\n"));
    }
    (report, fnv1a(log.as_bytes()))
}

/// Partitions a report's tasks into (finished, killed, resident) and
/// asserts the buckets are disjoint and exhaustive.
fn outcome_buckets(report: &RunReport) -> (usize, usize, usize) {
    let mut finished = 0;
    let mut killed = 0;
    let mut resident = 0;
    for t in &report.tasks {
        if t.killed {
            assert!(
                t.finished_at.is_some(),
                "{}: killed task must carry its kill instant",
                t.id
            );
            killed += 1;
        } else if t.finished_at.is_some() {
            finished += 1;
        } else {
            resident += 1;
        }
    }
    assert_eq!(report.tasks.len(), finished + killed + resident);
    (finished, killed, resident)
}

// ---------------------------------------------------------------------
// Watchdog: hang, kill-and-requeue, retry budget
// ---------------------------------------------------------------------

#[test]
fn watchdog_kills_and_requeues_a_hung_task() {
    let mut plan = FaultPlan::new(FaultConfig {
        watchdog: Some(ms(2)),
        ..FaultConfig::default()
    });
    plan.push(at_ms(1), FaultKind::TaskHang { task: None });
    for kind in ALL_SCHEDULERS {
        let (report, _) = run_faulted(kind, PlacementKind::RoundRobin, 1, plan.clone(), ms(30));
        assert_eq!(report.injected_faults, 1, "{kind}");
        assert_eq!(report.watchdog_kills, 1, "{kind}");
        assert_eq!(report.fault_retries, 1, "{kind}: one requeue scheduled");
        assert_eq!(report.lost_tasks, 0, "{kind}: budget not exhausted");
        // The requeue is a fresh admission: 3 residents + 1 visitor + 1.
        assert_eq!(report.tasks.len(), 5, "{kind}");
        let (_, killed, _) = outcome_buckets(&report);
        assert_eq!(killed, 1, "{kind}: exactly the hung lineage");
    }
}

#[test]
fn watchdog_retry_budget_exhaustion_loses_the_lineage() {
    let mut plan = FaultPlan::new(FaultConfig {
        watchdog: Some(ms(2)),
        retry_budget: 0,
        ..FaultConfig::default()
    });
    plan.push(
        at_ms(1),
        FaultKind::TaskHang {
            task: Some(TaskId::new(0)),
        },
    );
    let (report, _) = run_faulted(
        SchedulerKind::DisengagedFairQueueing,
        PlacementKind::RoundRobin,
        1,
        plan,
        ms(30),
    );
    assert_eq!(report.watchdog_kills, 1);
    assert_eq!(report.fault_retries, 0, "no budget, no requeue");
    assert_eq!(report.lost_tasks, 1);
    assert_eq!(report.tasks.len(), 4, "no requeued admission");
}

#[test]
fn hang_without_watchdog_wedges_until_the_horizon() {
    // No watchdog: the hung request never completes and nobody kills
    // the task, so it is still resident (and stalled) at the horizon.
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        at_ms(1),
        FaultKind::TaskHang {
            task: Some(TaskId::new(0)),
        },
    );
    let (report, _) = run_faulted(
        SchedulerKind::Timeslice,
        PlacementKind::RoundRobin,
        1,
        plan,
        ms(30),
    );
    assert_eq!(report.watchdog_kills, 0);
    assert_eq!(report.lost_tasks, 0);
    let victim = &report.tasks[0];
    assert!(victim.finished_at.is_none(), "wedged, not killed");
    assert!(
        victim.completed_requests < victim.submitted_requests,
        "the hung submission never completed"
    );
}

// ---------------------------------------------------------------------
// Crash and transient submission error
// ---------------------------------------------------------------------

#[test]
fn crash_loses_the_victim_immediately() {
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        at_ms(1),
        FaultKind::TaskCrash {
            task: Some(TaskId::new(1)),
        },
    );
    for kind in ALL_SCHEDULERS {
        let (report, _) = run_faulted(kind, PlacementKind::RoundRobin, 1, plan.clone(), ms(30));
        assert_eq!(report.lost_tasks, 1, "{kind}");
        assert_eq!(report.watchdog_kills, 0, "{kind}");
        assert_eq!(report.fault_retries, 0, "{kind}: a crash is not retried");
        assert_eq!(report.tasks.len(), 4, "{kind}");
        let victim = &report.tasks[1];
        assert!(victim.killed, "{kind}");
        assert_eq!(victim.finished_at, Some(at_ms(1)), "{kind}");
    }
}

#[test]
fn submit_error_is_retried_and_the_task_recovers() {
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        at_ms(1),
        FaultKind::SubmitError {
            task: Some(TaskId::new(0)),
        },
    );
    let (report, _) = run_faulted(
        SchedulerKind::Direct,
        PlacementKind::RoundRobin,
        1,
        plan,
        ms(30),
    );
    assert_eq!(report.injected_faults, 1);
    assert_eq!(
        report.fault_retries, 1,
        "the failed submission retried once"
    );
    assert_eq!(report.lost_tasks, 0);
    let victim = &report.tasks[0];
    assert!(!victim.killed);
    assert!(
        victim.completed_requests > 0,
        "the task kept running after the transient error"
    );
}

// ---------------------------------------------------------------------
// Hot-remove / hot-add: drain-and-migrate, park, degraded accounting
// ---------------------------------------------------------------------

#[test]
fn hot_remove_drains_residents_to_the_survivor() {
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        at_ms(5),
        FaultKind::DeviceRemove {
            device: DeviceId::new(1),
        },
    );
    for kind in ALL_SCHEDULERS {
        let (report, _) = run_faulted(kind, PlacementKind::RoundRobin, 2, plan.clone(), ms(30));
        assert_eq!(report.hot_removes, 1, "{kind}");
        assert!(report.recovered_tasks >= 1, "{kind}: residents drained");
        assert!(
            report.migrations >= 1,
            "{kind}: drain uses the migration path"
        );
        assert_eq!(report.lost_tasks, 0, "{kind}: the survivor had room");
        // Offline from 5ms through the 30ms horizon.
        assert_eq!(report.degraded, ms(25), "{kind}");
        for t in report.tasks.iter().filter(|t| t.finished_at.is_none()) {
            assert_eq!(
                t.device,
                DeviceId::new(0),
                "{kind}: {} still on dead device",
                t.id
            );
        }
    }
}

#[test]
fn hot_add_restages_parked_tasks_and_bounds_degraded_time() {
    // Single device: a remove displaces everyone with nowhere to go,
    // so they park; the add brings them back.
    let mut plan = FaultPlan::new(FaultConfig::default());
    plan.push(
        at_ms(5),
        FaultKind::DeviceRemove {
            device: DeviceId::new(0),
        },
    );
    plan.push(
        at_ms(10),
        FaultKind::DeviceAdd {
            device: DeviceId::new(0),
        },
    );
    let (report, _) = run_faulted(
        SchedulerKind::DisengagedFairQueueing,
        PlacementKind::LeastLoaded,
        1,
        plan,
        ms(30),
    );
    assert_eq!(report.hot_removes, 1);
    assert_eq!(report.lost_tasks, 0, "everyone re-staged");
    assert_eq!(report.recovered_tasks, 3, "the three residents came back");
    assert!(
        report.fault_retries >= 1,
        "parked retries fired before the add"
    );
    assert_eq!(report.degraded, ms(5), "offline exactly 5ms..10ms");
    let (_, _, resident) = outcome_buckets(&report);
    assert_eq!(resident, 3, "residents live again at the horizon");
}

#[test]
fn park_retry_bound_loses_tasks_when_capacity_never_returns() {
    let mut plan = FaultPlan::new(FaultConfig {
        max_park_retries: 2,
        ..FaultConfig::default()
    });
    plan.push(
        at_ms(5),
        FaultKind::DeviceRemove {
            device: DeviceId::new(0),
        },
    );
    let (report, _) = run_faulted(
        SchedulerKind::Timeslice,
        PlacementKind::RoundRobin,
        1,
        plan,
        ms(30),
    );
    assert_eq!(report.hot_removes, 1);
    assert_eq!(report.recovered_tasks, 0);
    assert_eq!(report.lost_tasks, 3, "every parked resident hit the bound");
    assert_eq!(report.degraded, ms(25));
    let (_, killed, _) = outcome_buckets(&report);
    assert_eq!(killed, 3);
}

#[test]
fn attaching_an_empty_plan_is_byte_identical_to_no_plan() {
    for kind in ALL_SCHEDULERS {
        let run = |faults: Option<FaultPlan>| {
            let config = WorldConfig {
                topology: Topology::symmetric(2, GpuConfig::default()),
                seed: 0xFA_17,
                faults,
                ..WorldConfig::default()
            };
            let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
                kind.build(SchedParams::default())
            });
            world.trace.set_enabled(true);
            for _ in 0..2 {
                world
                    .add_task(Box::new(Throttle::new(us(150))))
                    .expect("fits");
            }
            world.run(ms(20));
            let mut log = String::new();
            for e in world.trace.iter() {
                log.push_str(&format!("{e}\n"));
            }
            fnv1a(log.as_bytes())
        };
        assert_eq!(
            run(None),
            run(Some(FaultPlan::default())),
            "{kind}: an event-free plan with no watchdog must not perturb the run"
        );
    }
}

// ---------------------------------------------------------------------
// Chaos property: any schedule, every scheduler × placement
// ---------------------------------------------------------------------

/// Decodes one generated `(selector, operand, at)` triple into a fault
/// event. Operands deliberately range past the real device/task
/// population so out-of-range targets (which must be ignored, not
/// crash) are part of the search space; host-scope events must be
/// no-ops for a lone world.
fn decode(sel: u8, operand: u32, at_us: u64) -> (SimTime, FaultKind) {
    let task = (!operand.is_multiple_of(3)).then(|| TaskId::new(operand % 8));
    let kind = match sel {
        0 => FaultKind::DeviceRemove {
            device: DeviceId::new(operand % 3),
        },
        1 => FaultKind::DeviceAdd {
            device: DeviceId::new(operand % 3),
        },
        2 => FaultKind::TaskHang { task },
        3 => FaultKind::TaskCrash { task },
        4 => FaultKind::SubmitError { task },
        5 => FaultKind::HostFail { host: operand % 2 },
        _ => FaultKind::HostRecover { host: operand % 2 },
    };
    (SimTime::ZERO + us(at_us), kind)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// For any fault schedule: the run terminates within the horizon,
    /// every event in the plan fires exactly once, every admitted task
    /// is in exactly one of {finished, killed, resident}, per-task
    /// request accounting stays conserved, degraded time is bounded by
    /// the horizon — and the whole thing replays byte-identically.
    #[test]
    fn chaos_schedules_terminate_conserve_and_replay(
        raw in proptest::collection::vec(((0u8..7), (0u32..12), (0u64..25_000)), 1..10),
    ) {
        let horizon = ms(30);
        let mut plan = FaultPlan::new(FaultConfig {
            watchdog: Some(ms(2)),
            ..FaultConfig::default()
        });
        for &(sel, operand, at_us) in &raw {
            let (at, kind) = decode(sel, operand, at_us);
            plan.push(at, kind);
        }
        for kind in ALL_SCHEDULERS {
            for placement in PlacementKind::ALL {
                let (report, hash) =
                    run_faulted(kind, placement, 2, plan.clone(), horizon);
                // lint: allow(wall-clock-assert) — RunReport::wall is the
                // simulated span of the run, not host time
                prop_assert!(report.wall <= horizon, "{kind} × {placement}");
                prop_assert_eq!(
                    report.injected_faults,
                    raw.len() as u64,
                    "{} × {}: every scheduled event fires once",
                    kind,
                    placement
                );
                let (finished, killed, resident) = outcome_buckets(&report);
                prop_assert_eq!(
                    report.tasks.len(),
                    finished + killed + resident,
                    "{} × {}",
                    kind,
                    placement
                );
                for t in &report.tasks {
                    prop_assert!(
                        t.completed_requests <= t.submitted_requests,
                        "{} × {}: {} completed more than it submitted",
                        kind,
                        placement,
                        t.id
                    );
                }
                prop_assert!(
                    report.degraded <= ms(60),
                    "{} × {}: degraded time exceeds devices × horizon",
                    kind,
                    placement
                );
                // Replay: identical schedule + seed => identical trace.
                let (replay, replay_hash) =
                    run_faulted(kind, placement, 2, plan.clone(), horizon);
                prop_assert_eq!(hash, replay_hash, "{} × {}", kind, placement);
                prop_assert_eq!(
                    (replay.watchdog_kills, replay.lost_tasks, replay.recovered_tasks),
                    (report.watchdog_kills, report.lost_tasks, report.recovered_tasks),
                    "{} × {}",
                    kind,
                    placement
                );
            }
        }
    }
}
