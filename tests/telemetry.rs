//! Streaming-telemetry integration tests: the bounded metrics pipeline
//! must agree with the exact oracle, must not perturb the event
//! stream, must keep per-task memory fixed, and the structured stats
//! block must agree with the legacy counters it mirrors.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::rebalance::RebalanceKind;
use disengaged_scheduling::core::telemetry::{labels, MetricsMode, StatKey};
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::gpu::{GpuConfig, Topology};
use disengaged_scheduling::metrics::{CounterKey, Distribution, StreamingHistogram};
use disengaged_scheduling::workloads::Throttle;
use neon_sim::{SimDuration, SimTime};

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}
fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A churn scenario with mid-run arrivals and departures, so both
/// metrics pipelines see a non-trivial mix of round lengths.
fn churn_world(kind: SchedulerKind, config: WorldConfig) -> World {
    let mut world = World::new(config, kind.build(SchedParams::default()));
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

fn config_with(metrics: MetricsMode) -> WorldConfig {
    WorldConfig {
        seed: 0x90_1D,
        metrics,
        ..WorldConfig::default()
    }
}

#[test]
fn streaming_percentiles_match_exact_within_one_percent() {
    for kind in SchedulerKind::ALL {
        let exact = churn_world(kind, config_with(MetricsMode::Exact)).run(ms(200));
        let streaming = churn_world(kind, config_with(MetricsMode::Streaming)).run(ms(200));
        let e = exact.round_distribution();
        let s = streaming.round_distribution();
        assert_eq!(
            e.count(),
            s.count(),
            "{kind}: both pipelines see every round"
        );
        assert!(e.count() > 100, "{kind}: scenario must produce rounds");
        for p in [50.0, 95.0, 99.0] {
            let ev = e.quantile(p).as_nanos() as f64;
            let sv = s.quantile(p).as_nanos() as f64;
            let err = (ev - sv).abs() / ev.max(1.0);
            assert!(
                err <= 0.01,
                "{kind}: p{p} exact {ev}ns vs streaming {sv}ns (err {err:.4})"
            );
        }
    }
}

#[test]
fn streaming_mode_keeps_per_task_memory_bounded() {
    let report = churn_world(
        SchedulerKind::DisengagedFairQueueing,
        config_with(MetricsMode::Streaming),
    )
    .run(ms(200));
    assert!(!report.tasks.is_empty());
    for t in &report.tasks {
        assert!(
            t.rounds.is_empty() && t.submit_times.is_empty() && t.service_times.is_empty(),
            "{}: streaming mode must not grow per-sample vectors",
            t.name
        );
        for h in [&t.rounds_hist, &t.service_hist, &t.interarrival_hist] {
            assert!(h.buckets_used() <= StreamingHistogram::MAX_BUCKETS);
        }
    }
    assert!(
        report.tasks.iter().any(|t| t.rounds_hist.count() > 0),
        "round sketches must actually be fed"
    );
    // Per-workload-name aggregation exists only in streaming mode.
    assert!(!report.groups.is_empty());
    let members: u64 = report.groups.iter().map(|g| g.members).sum();
    assert_eq!(members as usize, report.tasks.len());
}

/// Streaming groups are derived from the member tasks: one group per
/// workload name in first-admission order, counting its tasks, and
/// merging their rounds and completed requests.
#[test]
fn streaming_groups_are_derived_from_member_tasks() {
    for kind in SchedulerKind::ALL {
        let report = churn_world(kind, config_with(MetricsMode::Streaming)).run(ms(200));
        let mut first_seen: Vec<&str> = Vec::new();
        for t in &report.tasks {
            if !first_seen.contains(&t.name.as_str()) {
                first_seen.push(&t.name);
            }
        }
        let order: Vec<&str> = report.groups.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(order, first_seen, "{kind}: groups in first-admission order");
        assert_eq!(
            order.len(),
            2,
            "{kind}: the churn mix has two workload names"
        );
        for g in &report.groups {
            let members: Vec<_> = report.tasks.iter().filter(|t| t.name == g.name).collect();
            assert_eq!(g.members as usize, members.len(), "{kind}: {}", g.name);
            assert_eq!(
                g.service.count(),
                members.iter().map(|t| t.completed_requests).sum::<u64>(),
                "{kind}: {} service samples",
                g.name
            );
            assert_eq!(
                g.rounds.count() as usize,
                members.iter().map(|t| t.rounds_completed()).sum::<usize>(),
                "{kind}: {} rounds",
                g.name
            );
        }
    }
}

#[test]
fn exact_mode_leaves_streaming_structures_empty() {
    let report = churn_world(
        SchedulerKind::DisengagedFairQueueing,
        config_with(MetricsMode::Exact),
    )
    .run(ms(200));
    for t in &report.tasks {
        assert!(
            t.rounds_hist.is_empty(),
            "{}: exact mode feeds Vecs",
            t.name
        );
        assert!(!t.rounds.is_empty() || t.killed, "{}", t.name);
    }
    assert!(report.groups.is_empty());
}

#[test]
fn streaming_mode_does_not_perturb_the_event_stream() {
    for kind in [
        SchedulerKind::DisengagedFairQueueing,
        SchedulerKind::Timeslice,
    ] {
        let mut exact = churn_world(kind, config_with(MetricsMode::Exact));
        exact.trace.set_enabled(true);
        let exact_report = exact.run(ms(200));
        let mut streaming = churn_world(kind, config_with(MetricsMode::Streaming));
        streaming.trace.set_enabled(true);
        let streaming_report = streaming.run(ms(200));
        assert_eq!(
            exact.trace.render(),
            streaming.trace.render(),
            "{kind}: metrics routing must be observation-only"
        );
        assert_eq!(exact_report.events, streaming_report.events, "{kind}");
    }
}

#[test]
fn sampler_is_off_by_default_and_fills_a_bounded_ring_when_on() {
    // Default config: no sampler, placeholder ring, zero allocation.
    let report = churn_world(
        SchedulerKind::DisengagedFairQueueing,
        config_with(MetricsMode::Exact),
    )
    .run(ms(200));
    assert!(report.timeline.is_empty());
    assert_eq!(report.timeline.capacity(), 0);

    // Sampler on with a tiny ring: retained bounded, overflow counted.
    let config = WorldConfig {
        sample_every: Some(ms(1)),
        timeline_capacity: 16,
        ..config_with(MetricsMode::Exact)
    };
    let report = churn_world(SchedulerKind::DisengagedFairQueueing, config).run(ms(200));
    assert_eq!(report.timeline.len(), 16, "ring holds exactly its capacity");
    // 200 ms at 1 ms cadence = ~199 samples; all but 16 dropped.
    assert!(
        report.timeline.dropped() >= 180,
        "{}",
        report.timeline.dropped()
    );
    for sample in report.timeline.iter() {
        assert_eq!(sample.devices.len(), 1);
        let d = &sample.devices[0];
        assert!((0.0..=1.0).contains(&d.utilization), "{}", d.utilization);
    }
    // Samples are ordered and cumulative counters are monotone.
    let times: Vec<u64> = report.timeline.iter().map(|s| s.at.as_nanos()).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]));
    let events: Vec<u64> = report.timeline.iter().map(|s| s.events).collect();
    assert!(events.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn sampler_does_not_change_the_trace() {
    let mut plain = churn_world(
        SchedulerKind::DisengagedFairQueueing,
        config_with(MetricsMode::Exact),
    );
    plain.trace.set_enabled(true);
    plain.run(ms(200));
    let config = WorldConfig {
        sample_every: Some(ms(1)),
        ..config_with(MetricsMode::Exact)
    };
    let mut sampled = churn_world(SchedulerKind::DisengagedFairQueueing, config);
    sampled.trace.set_enabled(true);
    sampled.run(ms(200));
    assert_eq!(
        plain.trace.render(),
        sampled.trace.render(),
        "sampling is pure observation"
    );
}

#[test]
fn stats_block_agrees_with_legacy_counters() {
    let config = WorldConfig {
        topology: Topology::symmetric(2, GpuConfig::default()),
        rebalance: RebalanceKind::CountDiff,
        ..config_with(MetricsMode::Exact)
    };
    let kind = SchedulerKind::DisengagedFairQueueing;
    let mut world = World::with_devices(
        config,
        disengaged_scheduling::core::placement::PlacementKind::LeastLoaded.build(),
        |_| kind.build(SchedParams::default()),
    );
    for _ in 0..4 {
        world.add_task(Box::new(Throttle::new(us(150)))).unwrap();
    }
    world.spawn_task_for(
        SimTime::ZERO + ms(20),
        Box::new(Throttle::new(us(900))),
        ms(40),
    );
    world.spawn_task_at(SimTime::ZERO + ms(80), Box::new(Throttle::new(us(150))));
    let report = world.run(ms(200));
    let stats = &report.stats;
    assert_eq!(stats.get(StatKey::Events), report.events);
    assert_eq!(stats.get(StatKey::Faults), report.faults);
    assert_eq!(stats.get(StatKey::Polls), report.polls);
    assert_eq!(stats.get(StatKey::DirectSubmits), report.direct_submits);
    assert_eq!(
        stats.get(StatKey::RejectedAdmissions),
        report.rejected_admissions
    );
    assert_eq!(stats.get(StatKey::MigrationsIn), report.migrations);
    assert_eq!(stats.get(StatKey::MigrationsOut), report.migrations);
    assert!(stats.get(StatKey::SamplingWindowsOpened) >= stats.get(StatKey::SamplingWindowsClosed));
    assert!(
        stats.get(StatKey::SamplingWindowsOpened) > 0,
        "disengaged fair queueing must sample"
    );
    // Per-device slices sum to the run-wide totals.
    for (key, total) in [
        (StatKey::Faults, report.faults),
        (StatKey::MigrationsIn, report.migrations),
        (StatKey::MigrationsOut, report.migrations),
    ] {
        let sum: u64 = report.devices.iter().map(|d| d.stats.get(key)).sum();
        assert_eq!(sum, total, "{}", key.label());
    }
    for d in &report.devices {
        assert_eq!(d.stats.get(StatKey::MigrationsIn), d.migrations_in);
        assert_eq!(d.stats.get(StatKey::MigrationsOut), d.migrations_out);
        assert_eq!(d.stats.get(StatKey::Faults), {
            let s: u64 = report
                .tasks
                .iter()
                .filter(|t| t.device == d.device)
                .map(|t| t.faults)
                .sum();
            s
        });
    }
}

#[test]
fn emitted_trace_labels_are_canonical() {
    for kind in SchedulerKind::ALL {
        let mut world = churn_world(kind, config_with(MetricsMode::Exact));
        world.trace.set_enabled(true);
        world.run(ms(200));
        let seen = world.trace.labels();
        assert!(!seen.is_empty(), "{kind}");
        for label in seen {
            assert!(
                labels::ALL.contains(&label),
                "{kind}: label {label:?} is not in telemetry::labels::ALL"
            );
        }
    }
}
