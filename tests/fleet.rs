//! Fleet-layer integration tests: a 1-host fleet must be byte-identical
//! to a bare `World` for every scheduler × placement, cross-host
//! migration must charge the cluster interconnect tier, cluster
//! admission must never reject while any host fits, and a
//! million-round streaming fleet run must stay within the bounded
//! sketch budget.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::fleet::{Fleet, FleetPlacementKind, FleetRebalanceKind};
use disengaged_scheduling::core::placement::PlacementKind;
use disengaged_scheduling::core::telemetry::{MetricsMode, StatKey};
use disengaged_scheduling::core::workload::FixedLoop;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::gpu::{ClusterInterconnect, DeviceId, GpuConfig, Topology};
use disengaged_scheduling::metrics::{Distribution, StreamingHistogram};
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

fn trace_hash(world: &World) -> u64 {
    let mut log = String::new();
    for e in world.trace.iter() {
        log.push_str(&format!("{e}\n"));
    }
    fnv1a(log.as_bytes())
}

/// A 2-device host so the *device* placement axis is exercised inside
/// the host, with the churn shape of `tests/multi_device.rs`.
fn host_world(kind: SchedulerKind, placement: PlacementKind, seed: u64) -> World {
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        seed,
        ..WorldConfig::default()
    };
    World::with_devices(config, placement.build(), move |_| {
        kind.build(SchedParams::default())
    })
}

/// The tentpole's acceptance criterion: wrapping one host in a `Fleet`
/// is a pure pass-through. For every scheduler × placement pair, the
/// 1-host fleet's trace is byte-identical (FNV-hash equal) to the bare
/// world's, and the reports agree on busy time, rounds, and device
/// assignment.
#[test]
fn one_host_fleet_is_byte_identical_to_bare_world() {
    for kind in SchedulerKind::ALL {
        for placement in PlacementKind::ALL {
            // Bare world, staged directly.
            let mut bare = host_world(kind, placement, 0xF1EE7);
            bare.trace.set_enabled(true);
            for _ in 0..4 {
                bare.add_task(Box::new(Throttle::new(us(150)))).unwrap();
            }
            bare.spawn_task_for(
                SimTime::ZERO + ms(10),
                Box::new(Throttle::new(us(900))),
                ms(30),
            );
            bare.spawn_task_for(
                SimTime::ZERO + ms(15),
                Box::new(Throttle::new(us(400))),
                ms(40),
            );
            bare.spawn_task_at(SimTime::ZERO + ms(60), Box::new(Throttle::new(us(150))));
            let bare_report = bare.run(ms(100));

            // The same program through a 1-host fleet.
            let mut inner = host_world(kind, placement, 0xF1EE7);
            inner.trace.set_enabled(true);
            let mut fleet = Fleet::new(
                vec![inner],
                FleetPlacementKind::LeastLoaded.build(),
                FleetRebalanceKind::Off.build(),
                ClusterInterconnect::free(),
            );
            for _ in 0..4 {
                fleet.add_task(Box::new(Throttle::new(us(150)))).unwrap();
            }
            fleet.spawn_task_for(
                SimTime::ZERO + ms(10),
                Box::new(Throttle::new(us(900))),
                ms(30),
            );
            fleet.spawn_task_for(
                SimTime::ZERO + ms(15),
                Box::new(Throttle::new(us(400))),
                ms(40),
            );
            fleet.spawn_task_at(SimTime::ZERO + ms(60), Box::new(Throttle::new(us(150))));
            let fleet_report = fleet.run(ms(100));

            let tag = format!("{kind} × {placement}");
            assert_eq!(fleet_report.hosts.len(), 1, "{tag}");
            let host = &fleet_report.hosts[0];
            assert_eq!(host.compute_busy, bare_report.compute_busy, "{tag}");
            assert_eq!(
                host.stats.get(StatKey::Faults),
                bare_report.stats.get(StatKey::Faults),
                "{tag}"
            );
            assert_eq!(host.events, bare_report.events, "{tag}");
            assert_eq!(
                host.stats.get(StatKey::RejectedAdmissions),
                bare_report.stats.get(StatKey::RejectedAdmissions),
                "{tag}"
            );
            let rounds = |r: &disengaged_scheduling::core::RunReport| {
                r.tasks
                    .iter()
                    .map(|t| (t.rounds.clone(), t.device))
                    .collect::<Vec<_>>()
            };
            assert_eq!(rounds(host), rounds(&bare_report), "{tag}");
            assert_eq!(
                trace_hash(fleet.host(0)),
                trace_hash(&bare),
                "{tag}: 1-host fleet trace drifted from the bare world"
            );
            assert_eq!(fleet_report.cross_host_migrations, 0, "{tag}");
            assert_eq!(fleet_report.fleet_rejected, 0, "{tag}");
        }
    }
}

/// A 1-host fleet stages each spawn on its host at call time, so calls
/// through the fleet and calls straight on its host world (as the
/// scenario driver makes for device-pinned groups) reach the host in
/// exactly the interleaved order a bare world would see — down to the
/// trace bytes, even for same-instant arrivals.
#[test]
fn one_host_fleet_keeps_interleaved_call_order() {
    let pin = DeviceId::new(1);
    for kind in SchedulerKind::ALL {
        let mut bare = host_world(kind, PlacementKind::LeastLoaded, 0x1D7E);
        let mut fleet = Fleet::new(
            vec![host_world(kind, PlacementKind::LeastLoaded, 0x1D7E)],
            FleetPlacementKind::LeastLoaded.build(),
            FleetRebalanceKind::Off.build(),
            ClusterInterconnect::free(),
        );
        bare.trace.set_enabled(true);
        fleet.host_mut(0).trace.set_enabled(true);
        let at = SimTime::ZERO + ms(5);
        bare.spawn_task_for(at, Box::new(Throttle::new(us(900))), ms(30));
        fleet.spawn_task_for(at, Box::new(Throttle::new(us(900))), ms(30));
        bare.add_task(Box::new(Throttle::new(us(150)))).unwrap();
        fleet.add_task(Box::new(Throttle::new(us(150)))).unwrap();
        bare.spawn_task_at_on(at, Box::new(Throttle::new(us(250))), pin);
        let host = fleet.host_mut(0);
        host.spawn_task_at_on(at, Box::new(Throttle::new(us(250))), pin);
        bare.spawn_task_at(at, Box::new(Throttle::new(us(400))));
        fleet.spawn_task_at(at, Box::new(Throttle::new(us(400))));
        let bare_report = bare.run(ms(60));
        let fleet_report = fleet.run(ms(60));
        let tasks = |r: &disengaged_scheduling::core::RunReport| {
            r.tasks
                .iter()
                .map(|t| (t.id, t.name.clone(), t.device))
                .collect::<Vec<_>>()
        };
        assert_eq!(tasks(&fleet_report.hosts[0]), tasks(&bare_report), "{kind}");
        assert_eq!(
            trace_hash(fleet.host(0)),
            trace_hash(&bare),
            "{kind}: interleaved staging drifted from the bare world"
        );
    }
}

/// Churn that forces a cross-host move: two endless migratable tenants
/// pile up on host 0 while host 1's short-lived tenants die off. The
/// count-diff policy must move one tenant, and the cluster tier must
/// charge the 64 MiB working-set transfer on a 25G network — and
/// nothing on a free one.
fn churny_fleet(cluster: ClusterInterconnect) -> disengaged_scheduling::core::FleetReport {
    let host = |seed: u64| {
        let config = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
            SchedulerKind::Direct.build(SchedParams::default())
        })
    };
    let mut fleet = Fleet::new(
        vec![host(0xA), host(0xB)],
        FleetPlacementKind::FewestTenants.build(),
        FleetRebalanceKind::CountDiff.build(),
        cluster,
    );
    // Arrival order alternates hosts under fewest-tenants:
    // t1→h0 (endless, migratable), t2→h1 (dies at 12 ms),
    // t3→h0 (endless, migratable), t4→h1 (dies at 14 ms).
    fleet.spawn_migratable_at(SimTime::ZERO + ms(1), Box::new(Throttle::new(us(150))));
    fleet.spawn_task_for(
        SimTime::ZERO + ms(2),
        Box::new(Throttle::new(us(150))),
        ms(10),
    );
    fleet.spawn_migratable_at(SimTime::ZERO + ms(3), Box::new(Throttle::new(us(150))));
    fleet.spawn_task_for(
        SimTime::ZERO + ms(4),
        Box::new(Throttle::new(us(150))),
        ms(10),
    );
    fleet.run(ms(100))
}

#[test]
fn cross_host_migration_charges_the_cluster_tier() {
    let paid = churny_fleet(ClusterInterconnect::network_25g());
    assert_eq!(
        paid.cross_host_migrations, 1,
        "t4's departure leaves 2 vs 0 — count-diff must move one tenant"
    );
    // 64 MiB over a 25G link ≈ 22.4 ms plus 100 µs latency.
    assert!(
        paid.cluster_transfer_stall >= ms(20),
        "25G transfer of a 64 MiB working set must stall ≥ 20 ms, got {}",
        paid.cluster_transfer_stall
    );
    // The mover restages on host 1: its original two short-lived
    // tenants plus the migrated continuation.
    assert_eq!(paid.hosts[0].tasks.len(), 2);
    assert_eq!(paid.hosts[1].tasks.len(), 3);

    let free = churny_fleet(ClusterInterconnect::free());
    assert_eq!(free.cross_host_migrations, 1);
    assert_eq!(
        free.cluster_transfer_stall,
        SimDuration::ZERO,
        "a free cluster interconnect must charge nothing"
    );
}

/// A ≥1M-round open-loop fleet run in streaming mode: per-task sample
/// vectors must stay empty, every sketch bounded, and the fleet-level
/// merge must still see every round.
#[test]
fn million_round_streaming_fleet_stays_bounded() {
    let host = |seed: u64| {
        let config = WorldConfig {
            seed,
            metrics: MetricsMode::Streaming,
            ..WorldConfig::default()
        };
        World::new(config, SchedulerKind::Direct.build(SchedParams::default()))
    };
    let mut fleet = Fleet::new(
        vec![host(1), host(2)],
        FleetPlacementKind::LeastLoaded.build(),
        FleetRebalanceKind::Off.build(),
        ClusterInterconnect::free(),
    );
    // 2 tenants per host spinning 1 µs rounds for 3 simulated seconds
    // (≈ 5 µs per round with submit overhead ⇒ ~1.2M rounds total).
    for _ in 0..4 {
        fleet
            .add_task(Box::new(FixedLoop::endless(
                "spin",
                us(1),
                SimDuration::ZERO,
            )))
            .unwrap();
    }
    let report = fleet.run(SimDuration::from_secs(3));
    let rounds = report.round_distribution();
    assert!(
        rounds.count() >= 1_000_000,
        "fleet must aggregate ≥ 1M rounds, got {}",
        rounds.count()
    );
    for h in &report.hosts {
        for t in &h.tasks {
            assert!(
                t.rounds.is_empty() && t.submit_times.is_empty() && t.service_times.is_empty(),
                "{}: streaming mode must not grow per-sample vectors",
                t.name
            );
            assert!(t.rounds_hist.buckets_used() <= StreamingHistogram::MAX_BUCKETS);
        }
    }
    // The fleet-level group merge is lossless: member and round counts
    // across hosts add up.
    let spin = report
        .groups
        .iter()
        .find(|g| g.name == "spin")
        .expect("streaming runs aggregate per-workload groups");
    assert_eq!(spin.members, 4);
    assert_eq!(spin.rounds.count(), rounds.count());
    assert!(spin.rounds.buckets_used() <= StreamingHistogram::MAX_BUCKETS);
}

/// Fleet groups are derived from every host's tasks in host order:
/// one group per workload name in first-admission order, counting its
/// tasks on all hosts (a migrated tenant's continuation included) and
/// merging their rounds and completed requests.
#[test]
fn streaming_fleet_groups_are_derived_from_member_tasks() {
    let host = |seed: u64| {
        let config = WorldConfig {
            seed,
            metrics: MetricsMode::Streaming,
            ..WorldConfig::default()
        };
        World::new(config, SchedulerKind::Direct.build(SchedParams::default()))
    };
    let mut fleet = Fleet::new(
        vec![host(0xA), host(0xB)],
        FleetPlacementKind::FewestTenants.build(),
        FleetRebalanceKind::CountDiff.build(),
        ClusterInterconnect::free(),
    );
    // The churny_fleet shape with named tenants: arrivals alternate
    // hosts, and the short-lived "late" tenants' departures make
    // count-diff move one "mover".
    for (i, name) in ["mover", "late", "mover", "late"].into_iter().enumerate() {
        let at = SimTime::ZERO + ms(i as u64 + 1);
        if name == "mover" {
            fleet.spawn_migratable_at(at, Box::new(FixedLoop::endless("mover", us(150), us(5))));
        } else {
            fleet.spawn_task_for(
                at,
                Box::new(FixedLoop::endless("late", us(90), us(5))),
                ms(10),
            );
        }
    }
    let report = fleet.run(ms(100));
    assert_eq!(report.cross_host_migrations, 1);
    let tasks: Vec<_> = report.hosts.iter().flat_map(|h| &h.tasks).collect();
    let order: Vec<&str> = report.groups.iter().map(|g| g.name.as_str()).collect();
    let mut first_seen: Vec<&str> = Vec::new();
    for t in &tasks {
        if !first_seen.contains(&t.name.as_str()) {
            first_seen.push(&t.name);
        }
    }
    assert_eq!(
        order, first_seen,
        "groups in first-admission order, host by host"
    );
    for g in &report.groups {
        let members: Vec<_> = tasks.iter().filter(|t| t.name == g.name).collect();
        assert_eq!(g.members as usize, members.len(), "{}", g.name);
        assert_eq!(
            g.service.count(),
            members.iter().map(|t| t.completed_requests).sum::<u64>(),
            "{} service samples",
            g.name
        );
        assert_eq!(
            g.rounds.count() as usize,
            members.iter().map(|t| t.rounds_completed()).sum::<usize>(),
            "{} rounds",
            g.name
        );
    }
    // The migrated mover restages as a new task: three "mover" tasks.
    assert_eq!(
        report
            .groups
            .iter()
            .find(|g| g.name == "mover")
            .unwrap()
            .members,
        3
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Cluster admission never wastes capacity: with single-device
    /// hosts, single-channel endless tenants, and known capacities,
    /// every fleet placement policy admits exactly
    /// `min(arrivals, total capacity)` and the hosts themselves reject
    /// nothing (the ledger is exact for this shape).
    #[test]
    fn fleet_admission_never_rejects_while_any_host_fits(
        caps in proptest::collection::vec(1usize..4, 2..5),
        arrivals in 1usize..14,
        seed in 0u64..500,
        policy in 0usize..3,
    ) {
        let policy = FleetPlacementKind::ALL[policy];
        let total: usize = caps.iter().sum();
        let hosts: Vec<World> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let config = WorldConfig {
                    topology: Topology::symmetric(
                        1,
                        GpuConfig {
                            total_contexts: c,
                            total_channels: c,
                            ..GpuConfig::default()
                        },
                    ),
                    seed: seed + i as u64,
                    ..WorldConfig::default()
                };
                World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
                    SchedulerKind::Direct.build(SchedParams::default())
                })
            })
            .collect();
        let mut fleet = Fleet::new(
            hosts,
            policy.build(),
            FleetRebalanceKind::Off.build(),
            ClusterInterconnect::free(),
        );
        for i in 0..arrivals {
            fleet.spawn_task_at(
                SimTime::ZERO + us(100 * (i as u64 + 1)),
                Box::new(Throttle::new(us(120))),
            );
        }
        let report = fleet.run(ms(15));
        let admitted: usize = report.hosts.iter().map(|h| h.tasks.len()).sum();
        let expected = arrivals.min(total);
        prop_assert_eq!(
            admitted, expected,
            "{}: admitted {} of {} arrivals with fleet capacity {}",
            policy, admitted, arrivals, total
        );
        prop_assert_eq!(
            report.fleet_rejected,
            (arrivals - expected) as u64,
            "{}: cluster boundary must absorb exactly the overflow",
            policy
        );
        let host_rejections: u64 =
            report.hosts.iter().map(|h| h.stats.get(StatKey::RejectedAdmissions)).sum();
        prop_assert_eq!(
            host_rejections, 0,
            "{}: the ledger is exact here, hosts must reject nothing",
            policy
        );
    }
}

// ---------------------------------------------------------------------
// Whole-host failure and recovery
// ---------------------------------------------------------------------

use disengaged_scheduling::core::fault::{FaultKind, FaultPlan};

/// A 2-host fleet under fewest-tenants with one endless non-migratable
/// tenant and two endless migratable ones, running `plan`'s host-scope
/// events to a 40 ms horizon.
fn faulted_fleet(plan: FaultPlan) -> disengaged_scheduling::core::FleetReport {
    let host = |seed: u64| {
        let config = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
            SchedulerKind::Direct.build(SchedParams::default())
        })
    };
    let mut fleet = Fleet::new(
        vec![host(0xA), host(0xB)],
        FleetPlacementKind::FewestTenants.build(),
        FleetRebalanceKind::Off.build(),
        ClusterInterconnect::free(),
    );
    fleet.set_faults(plan);
    // t1 → h0 (migratable), t2 → h1 (NOT migratable), t3 → h0 on the
    // 1-vs-1 tie (migratable); all endless.
    fleet.spawn_migratable_at(SimTime::ZERO + ms(1), Box::new(Throttle::new(us(150))));
    fleet.spawn_task_at(SimTime::ZERO + ms(2), Box::new(Throttle::new(us(150))));
    fleet.spawn_migratable_at(SimTime::ZERO + ms(3), Box::new(Throttle::new(us(150))));
    fleet.run(ms(40))
}

#[test]
fn host_failure_readmits_migratable_tenants_on_the_survivor() {
    let mut plan = FaultPlan::default();
    plan.push(SimTime::ZERO + ms(10), FaultKind::HostFail { host: 0 });
    let report = faulted_fleet(plan);
    assert_eq!(report.host_failures, 1);
    assert_eq!(
        report.fleet_fault_recovered, 2,
        "both migratable residents of host 0 re-admit on host 1"
    );
    assert_eq!(report.fleet_lost_tasks, 0);
    assert_eq!(
        report.cross_host_migrations, 2,
        "fault re-admissions ride the migration machinery"
    );
    // Host 0's residencies truncate at the failure; host 1 ends with
    // its own tenant plus the two continuations.
    assert_eq!(report.hosts[0].tasks.len(), 2);
    assert!(report.hosts[0]
        .tasks
        .iter()
        .all(|t| t.finished_at == Some(SimTime::ZERO + ms(10))));
    assert_eq!(report.hosts[1].tasks.len(), 3);
    // Never recovered: degraded through the 40 ms horizon.
    assert_eq!(report.host_degraded, ms(30));
}

#[test]
fn host_failure_loses_nonmigratable_tenants_and_recovery_bounds_degraded_time() {
    let mut plan = FaultPlan::default();
    plan.push(SimTime::ZERO + ms(10), FaultKind::HostFail { host: 1 });
    plan.push(SimTime::ZERO + ms(20), FaultKind::HostRecover { host: 1 });
    let report = faulted_fleet(plan);
    assert_eq!(report.host_failures, 1);
    assert_eq!(
        report.fleet_lost_tasks, 1,
        "host 1's tenant is not migratable, so it cannot restage"
    );
    assert_eq!(report.fleet_fault_recovered, 0);
    assert_eq!(report.cross_host_migrations, 0);
    assert_eq!(
        report.host_degraded,
        ms(10),
        "down exactly 10 ms..20 ms, then recovered"
    );
    assert_eq!(
        report.hosts[1].tasks[0].finished_at,
        Some(SimTime::ZERO + ms(10))
    );
}

#[test]
fn single_host_fleets_ignore_host_faults() {
    // The transparent-fleet guarantee outranks chaos: with nowhere to
    // re-admit, a 1-host fleet's plan skips host events entirely.
    let host = World::with_devices(
        WorldConfig::default(),
        PlacementKind::LeastLoaded.build(),
        |_| SchedulerKind::Direct.build(SchedParams::default()),
    );
    let mut fleet = Fleet::new(
        vec![host],
        FleetPlacementKind::FewestTenants.build(),
        FleetRebalanceKind::Off.build(),
        ClusterInterconnect::free(),
    );
    let mut plan = FaultPlan::default();
    plan.push(SimTime::ZERO + ms(5), FaultKind::HostFail { host: 0 });
    fleet.set_faults(plan);
    fleet.spawn_task_at(SimTime::ZERO + ms(1), Box::new(Throttle::new(us(150))));
    let report = fleet.run(ms(40));
    assert_eq!(report.host_failures, 0);
    assert_eq!(report.fleet_lost_tasks, 0);
    assert_eq!(report.host_degraded, SimDuration::ZERO);
    assert!(report.hosts[0].tasks[0].finished_at.is_none());
}

#[test]
fn host_failure_spares_prestaged_residents() {
    // Host failure governs the *scheduled* tenant population: tenants
    // staged before the run with `add_task` are host-world state the
    // planning pass never owns, so they ride through the outage (the
    // outage itself is still charged to `host_degraded`). Documented
    // on `Fleet::set_faults`; crash-vulnerable residents belong in
    // `spawn_task_at(ZERO, ..)`.
    let host = |seed: u64| {
        let config = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
            SchedulerKind::Direct.build(SchedParams::default())
        })
    };
    let mut fleet = Fleet::new(
        vec![host(0xA), host(0xB)],
        FleetPlacementKind::FewestTenants.build(),
        FleetRebalanceKind::Off.build(),
        ClusterInterconnect::free(),
    );
    let mut plan = FaultPlan::default();
    plan.push(SimTime::ZERO + ms(10), FaultKind::HostFail { host: 0 });
    plan.push(SimTime::ZERO + ms(20), FaultKind::HostRecover { host: 0 });
    fleet.set_faults(plan);
    fleet.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    fleet.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    let report = fleet.run(ms(40));
    assert_eq!(report.host_failures, 1);
    assert_eq!(report.host_degraded, ms(10), "down exactly 10 ms..20 ms");
    assert_eq!(report.fleet_lost_tasks, 0);
    assert_eq!(report.fleet_fault_recovered, 0);
    // Both pre-staged residents (one per host under fewest-tenants)
    // run to the horizon untouched.
    for h in 0..2 {
        assert_eq!(report.hosts[h].tasks.len(), 1);
        assert!(report.hosts[h].tasks[0].finished_at.is_none());
    }
}
