//! Dynamic-churn integration tests: every policy must survive tasks
//! arriving and departing mid-run without panicking, leaking
//! protection state, or starving the tasks that remain.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::{RunReport, SchedulerKind};
use disengaged_scheduling::gpu::{GpuConfig, Topology};
use disengaged_scheduling::scenario::{
    sweep, ArrivalSpec, LifetimeSpec, ScenarioSpec, TenantGroup, WorkloadSpec,
};
use disengaged_scheduling::workloads::Throttle;
use neon_sim::{SimDuration, SimTime};

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Two equal residents, a mid-run visitor that departs, and a late
/// arrival, under `kind`, for `horizon`.
fn churn_world(kind: SchedulerKind, seed: u64) -> World {
    let config = WorldConfig {
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::new(config, kind.build(SchedParams::default()));
    for _ in 0..2 {
        world
            .add_task(Box::new(Throttle::new(us(150))))
            .expect("room for residents");
    }
    // A large-request visitor arrives at 50ms and stays 100ms.
    world.spawn_task_for(
        SimTime::ZERO + ms(50),
        Box::new(Throttle::new(us(900))),
        ms(100),
    );
    // A latecomer arrives at 250ms and stays to the end.
    world.spawn_task_at(SimTime::ZERO + ms(250), Box::new(Throttle::new(us(150))));
    world
}

fn run_churn(kind: SchedulerKind, seed: u64, horizon: SimDuration) -> RunReport {
    churn_world(kind, seed).run(horizon)
}

#[test]
fn every_policy_survives_midrun_arrival_and_departure() {
    for kind in SchedulerKind::ALL {
        let report = run_churn(kind, 0xC0DE, ms(500));
        assert_eq!(report.tasks.len(), 4, "{kind}: visitor or latecomer lost");

        let visitor = &report.tasks[2];
        assert_eq!(
            visitor.finished_at,
            Some(SimTime::ZERO + ms(150)),
            "{kind}: visitor did not depart on schedule"
        );
        assert!(!visitor.killed, "{kind}: departure must be graceful");
        assert!(
            visitor.rounds_completed() > 0,
            "{kind}: visitor starved while present"
        );

        let late = &report.tasks[3];
        assert_eq!(late.arrived_at, SimTime::ZERO + ms(250), "{kind}");
        assert!(
            late.rounds_completed() > 0,
            "{kind}: late arrival starved after joining"
        );

        for resident in &report.tasks[..2] {
            assert!(
                resident.rounds_completed() > 100,
                "{kind}: resident {} starved ({} rounds)",
                resident.name,
                resident.rounds_completed()
            );
        }
    }
}

#[test]
fn residents_stay_fair_after_the_departer_leaves() {
    // The two residents are identical; whatever the policy, neither
    // may end up with a grossly larger share once the churn settles.
    for kind in SchedulerKind::ALL {
        let report = run_churn(kind, 0xFA12, ms(500));
        let a = report.tasks[0].usage;
        let b = report.tasks[1].usage;
        let ratio = a.max(b).ratio(a.min(b).max(us(1)));
        assert!(
            ratio < 2.0,
            "{kind}: identical residents diverged, usage ratio {ratio:.2}"
        );
    }
}

#[test]
fn progress_continues_after_departure_under_every_policy() {
    // Deterministic worlds: the same churn run twice with different
    // horizons shows whether the residents kept completing rounds
    // after the visitor left at 150ms (no leaked protection or token
    // state pointing at the departed task).
    for kind in SchedulerKind::ALL {
        let early = run_churn(kind, 0xBEEF, ms(200));
        let late = run_churn(kind, 0xBEEF, ms(450));
        for i in 0..2 {
            let before = early.tasks[i].rounds_completed();
            let after = late.tasks[i].rounds_completed();
            assert!(
                after > before + 50,
                "{kind}: resident {i} stalled after the departure \
                 ({before} rounds at 200ms, {after} at 450ms)"
            );
        }
    }
}

#[test]
fn exhausted_arrivals_are_rejected_not_fatal_for_every_policy() {
    for kind in SchedulerKind::ALL {
        let config = WorldConfig {
            topology: Topology::symmetric(
                1,
                GpuConfig {
                    total_contexts: 3,
                    ..GpuConfig::default()
                },
            ),
            ..WorldConfig::default()
        };
        let mut world = World::new(config, kind.build(SchedParams::default()));
        for _ in 0..3 {
            world
                .add_task(Box::new(Throttle::new(us(200))))
                .expect("room for residents");
        }
        for i in 0..4u64 {
            world.spawn_task_at(SimTime::ZERO + ms(5 + i), Box::new(Throttle::new(us(200))));
        }
        // Long enough for every resident to hold the 30ms token at
        // least once under the timeslice policies.
        let report = world.run(ms(250));
        assert_eq!(report.rejected_admissions, 4, "{kind}");
        assert_eq!(report.tasks.len(), 3, "{kind}");
        for t in &report.tasks {
            assert!(t.rounds_completed() > 0, "{kind}: resident starved");
        }
    }
}

#[test]
fn churn_scenarios_are_deterministic_for_every_policy() {
    for kind in SchedulerKind::ALL {
        let a = run_churn(kind, 0x5EED, ms(300));
        let b = run_churn(kind, 0x5EED, ms(300));
        assert_eq!(a.compute_busy, b.compute_busy, "{kind}");
        assert_eq!(a.faults, b.faults, "{kind}");
        for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(ta.rounds, tb.rounds, "{kind}: {}", ta.name);
            assert_eq!(ta.usage, tb.usage, "{kind}");
            assert_eq!(ta.finished_at, tb.finished_at, "{kind}");
        }
    }
}

fn churn_sweep_spec(seeds: Vec<u64>) -> ScenarioSpec {
    ScenarioSpec::new("sweep-churn", ms(150))
        .seeds(seeds)
        .schedulers(vec![
            SchedulerKind::Direct,
            SchedulerKind::DisengagedTimeslice,
            SchedulerKind::DisengagedFairQueueing,
            SchedulerKind::DisengagedFairQueueingVendor,
        ])
        .group(
            TenantGroup::new(
                "resident",
                WorkloadSpec::FixedLoop {
                    service: us(100),
                    gap: us(10),
                    rounds: None,
                },
            )
            .count(2),
        )
        .group(
            TenantGroup::new(
                "churner",
                WorkloadSpec::Throttle {
                    request: us(500),
                    off_ratio: 0.0,
                    jitter: 0.0,
                },
            )
            .count(5)
            .arrival(ArrivalSpec::Poisson {
                rate_hz: 80.0,
                start: ms(5),
            })
            .lifetime(LifetimeSpec::Exponential { mean: ms(30) }),
        )
}

#[test]
fn parallel_sweep_matches_serial_and_scales_when_cores_exist() {
    // 4 schedulers × 2 seeds = 8 cells, the acceptance-criterion size.
    let cells = sweep::plan([churn_sweep_spec(vec![1, 2])]);
    assert!(cells.len() >= 8);
    let serial = sweep::run_serial(&cells);
    let parallel = sweep::run_parallel(&cells, None);

    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.summary.scheduler, p.summary.scheduler);
        assert_eq!(s.summary.seed, p.summary.seed);
        assert_eq!(s.summary.total_rounds, p.summary.total_rounds);
        assert_eq!(s.summary.faults, p.summary.faults);
        assert_eq!(s.report.compute_busy, p.report.compute_busy);
    }

    // Scaling is checked as fan-out only. Wall-clock speed depends on
    // what else the host runs, so asserting on it made this test flaky;
    // the benchmark's `scenario.sweep.speedup_2t` measures it instead.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 {
        assert!(parallel.threads >= 2, "should fan out on a multicore box");
    }
}

/// The multi-device analogue of [`churn_world`]: residents spread over
/// two devices, plus a mid-run visitor and a latecomer that the
/// placement policy must route.
fn multi_churn_world(kind: SchedulerKind, placement: PlacementKind, seed: u64) -> World {
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        seed,
        ..WorldConfig::default()
    };
    let mut world = World::with_devices(config, placement.build(), |_| {
        kind.build(SchedParams::default())
    });
    for _ in 0..4 {
        world
            .add_task(Box::new(Throttle::new(us(150))))
            .expect("room for residents");
    }
    world.spawn_task_for(
        SimTime::ZERO + ms(50),
        Box::new(Throttle::new(us(900))),
        ms(100),
    );
    world.spawn_task_at(SimTime::ZERO + ms(250), Box::new(Throttle::new(us(150))));
    world
}

#[test]
fn every_placement_policy_survives_churn_under_every_scheduler() {
    // Placement × scheduler churn matrix: arrivals and departures on a
    // 2-device world must leave no task starved, no panic, and the
    // visitor's departure on schedule — whatever policy pair runs it.
    for placement in PlacementKind::ALL {
        for kind in SchedulerKind::ALL {
            let report = multi_churn_world(kind, placement, 0xC0DE).run(ms(500));
            assert_eq!(report.tasks.len(), 6, "{kind}/{placement}: task lost");
            let visitor = &report.tasks[4];
            assert_eq!(
                visitor.finished_at,
                Some(SimTime::ZERO + ms(150)),
                "{kind}/{placement}: visitor did not depart on schedule"
            );
            for t in &report.tasks {
                assert!(
                    t.rounds_completed() > 0,
                    "{kind}/{placement}: {} starved on {}",
                    t.name,
                    t.device
                );
            }
            // The residents spread across both devices at admission.
            for d in &report.devices {
                assert!(
                    d.compute_busy > SimDuration::ZERO,
                    "{kind}/{placement}: {} never ran work",
                    d.device
                );
            }
        }
    }
}

#[test]
fn placement_churn_is_deterministic_per_policy() {
    for placement in PlacementKind::ALL {
        let run = || {
            let report =
                multi_churn_world(SchedulerKind::DisengagedFairQueueing, placement, 0x5EED)
                    .run(ms(300));
            (
                report.compute_busy,
                report
                    .tasks
                    .iter()
                    .map(|t| (t.device, t.rounds.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run(), "{placement}");
    }
}

#[test]
fn midrun_churn_keeps_every_policy_fair_on_aggregate() {
    // Scenario-level check over the sweep matrix: utilization stays
    // high and no cell collapses (zero rounds) despite the churn.
    let cells = sweep::plan([churn_sweep_spec(vec![3])]);
    let outcome = sweep::run_parallel(&cells, None);
    for r in &outcome.results {
        let s = &r.summary;
        assert!(
            s.total_rounds > 200,
            "{} seed {}: only {} rounds",
            s.scheduler,
            s.seed,
            s.total_rounds
        );
        assert!(
            s.utilization > 0.5,
            "{} seed {}: utilization {:.2}",
            s.scheduler,
            s.seed,
            s.utilization
        );
        assert!((0.0..=1.0).contains(&s.fairness));
    }
}
