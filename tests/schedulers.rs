//! Cross-crate integration tests: scheduler behaviour end-to-end.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::telemetry::StatKey;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::workloads::adversary::{Batcher, IdleBurst, InfiniteLoop};
use disengaged_scheduling::workloads::{app, throttle, Throttle};
use neon_sim::SimDuration;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn world(kind: SchedulerKind) -> World {
    World::new(WorldConfig::default(), kind.build(SchedParams::default()))
}

#[test]
fn direct_access_is_unfair_by_request_size() {
    let mut w = world(SchedulerKind::Direct);
    w.add_task(Box::new(Throttle::new(us(20)))).unwrap();
    w.add_task(Box::new(Throttle::new(us(1000)))).unwrap();
    let report = w.run(SimDuration::from_millis(500));
    let small = report.tasks[0].usage;
    let large = report.tasks[1].usage;
    assert!(
        large.ratio(small) > 10.0,
        "round-robin by request must favor large requests: {:.1}",
        large.ratio(small)
    );
}

#[test]
fn all_fair_schedulers_split_device_time_evenly() {
    for kind in [
        SchedulerKind::Timeslice,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::DisengagedFairQueueing,
    ] {
        let mut w = world(kind);
        w.add_task(Box::new(Throttle::new(us(20)))).unwrap();
        w.add_task(Box::new(Throttle::new(us(1000)))).unwrap();
        let report = w.run(SimDuration::from_millis(800));
        let small = report.tasks[0].usage;
        let large = report.tasks[1].usage;
        let ratio = large.ratio(small);
        assert!(
            (0.55..1.8).contains(&ratio),
            "{}: usage ratio {ratio:.2} not within fair band",
            kind.label()
        );
    }
}

#[test]
fn timeslice_overuse_control_contains_the_batcher() {
    // A batcher issuing 10ms requests overruns every 30ms slice; the
    // overuse ledger must keep its long-run share near 50%.
    let mut w = world(SchedulerKind::DisengagedTimeslice);
    w.add_task(Box::new(app::dct())).unwrap();
    w.add_task(Box::new(Batcher::new(SimDuration::from_millis(10))))
        .unwrap();
    let report = w.run(SimDuration::from_secs(1));
    let dct = report.tasks[0].usage;
    let batcher = report.tasks[1].usage;
    let share = batcher.ratio(dct + batcher);
    assert!(
        (0.40..0.62).contains(&share),
        "batcher share {share:.2} escaped overuse control"
    );
}

#[test]
fn infinite_loop_task_is_killed_and_victim_recovers() {
    for kind in [
        SchedulerKind::Timeslice,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::DisengagedFairQueueing,
    ] {
        let params = SchedParams {
            overlong_limit: SimDuration::from_millis(40),
            ..SchedParams::default()
        };
        let mut w = World::new(WorldConfig::default(), kind.build(params));
        w.add_task(Box::new(app::dct())).unwrap();
        w.add_task(Box::new(InfiniteLoop::new(5, us(100)))).unwrap();
        let report = w.run(SimDuration::from_millis(600));
        assert!(
            report.tasks[1].killed,
            "{}: attacker not killed",
            kind.label()
        );
        assert!(
            !report.tasks[0].killed,
            "{}: victim wrongly killed",
            kind.label()
        );
        // The victim keeps making progress after the kill: it should
        // complete a large share of its standalone round count.
        let rounds = report.tasks[0].rounds_completed();
        assert!(
            rounds > 1500,
            "{}: victim only completed {rounds} rounds",
            kind.label()
        );
    }
}

#[test]
fn dfq_defuses_the_idle_burst_hoarder() {
    // A task that idles then bursts must not starve the steady task:
    // system virtual time forwards idle tasks, so the burst competes
    // from "now" instead of redeeming banked credit.
    let mut w = world(SchedulerKind::DisengagedFairQueueing);
    w.add_task(Box::new(Throttle::new(us(100)))).unwrap();
    w.add_task(Box::new(IdleBurst::new(
        SimDuration::from_millis(120),
        64,
        us(500),
    )))
    .unwrap();
    let report = w.run(SimDuration::from_secs(1));
    // The steady task must retain a solid share of the device.
    let steady = report.tasks[0].usage;
    assert!(
        steady > SimDuration::from_millis(300),
        "steady task starved: only {steady}"
    );
}

#[test]
fn disengaged_ts_intercepts_far_fewer_requests_than_engaged() {
    let run = |kind: SchedulerKind| {
        let mut w = world(kind);
        w.add_task(Box::new(app::dct())).unwrap();
        w.add_task(Box::new(Throttle::new(us(430)))).unwrap();
        w.run(SimDuration::from_millis(500))
    };
    let engaged = run(SchedulerKind::Timeslice);
    let disengaged = run(SchedulerKind::DisengagedTimeslice);
    assert!(
        engaged.stats.get(StatKey::Faults) > 10 * disengaged.stats.get(StatKey::Faults).max(1),
        "engaged {} vs disengaged {} faults",
        engaged.stats.get(StatKey::Faults),
        disengaged.stats.get(StatKey::Faults)
    );
    // Disengaged mode leaves the bulk of submissions direct.
    assert!(
        disengaged.stats.get(StatKey::DirectSubmits)
            > 9 * disengaged.stats.get(StatKey::Faults).max(1)
    );
}

#[test]
fn dfq_mostly_disengages_too() {
    let mut w = world(SchedulerKind::DisengagedFairQueueing);
    w.add_task(Box::new(app::dct())).unwrap();
    w.add_task(Box::new(Throttle::new(us(430)))).unwrap();
    let report = w.run(SimDuration::from_millis(500));
    let total = report.stats.get(StatKey::Faults) + report.stats.get(StatKey::DirectSubmits);
    assert!(
        (report.stats.get(StatKey::Faults) as f64) < 0.25 * total as f64,
        "DFQ intercepted {}/{} submissions",
        report.stats.get(StatKey::Faults),
        total
    );
}

#[test]
fn nonsaturating_throttle_is_not_punished_by_dfq() {
    let mut w = world(SchedulerKind::DisengagedFairQueueing);
    w.add_task(Box::new(app::dct())).unwrap();
    w.add_task(Box::new(throttle::nonsaturating(us(430), 0.8)))
        .unwrap();
    let report = w.run(SimDuration::from_secs(1));
    let throttle_round = report.tasks[1].mean_round(0.2).unwrap();
    // Standalone round would be 430µs/(1-0.8) = 2150µs.
    assert!(
        throttle_round < SimDuration::from_micros(3500),
        "nonsaturating throttle round ballooned to {throttle_round}"
    );
}

#[test]
fn scheduler_names_match_kinds() {
    for kind in SchedulerKind::ALL {
        let sched = kind.build(SchedParams::default());
        assert_eq!(sched.name(), kind.label());
    }
}

#[test]
fn vendor_statistics_remove_the_estimation_anomalies() {
    // Sec 6.1 future work: with hardware usage statistics, Disengaged
    // Fair Queueing needs no sampling and its accounting is exact, so
    // the glxgears anomaly disappears and overhead drops.
    let run_pair = |kind: SchedulerKind| {
        let mut w = world(kind);
        w.add_task(Box::new(app::glxgears_model())).unwrap();
        w.add_task(Box::new(Throttle::new(us(19)))).unwrap();
        w.run(SimDuration::from_secs(2))
    };
    let est = run_pair(SchedulerKind::DisengagedFairQueueing);
    let hw = run_pair(SchedulerKind::DisengagedFairQueueingVendor);

    // With exact statistics both tasks' *charged* usage is their true
    // usage, so shares even out better than under estimation.
    let est_gap = {
        let a = est.tasks[0].usage;
        let b = est.tasks[1].usage;
        a.max(b).ratio(a.min(b))
    };
    let hw_gap = {
        let a = hw.tasks[0].usage;
        let b = hw.tasks[1].usage;
        a.max(b).ratio(a.min(b))
    };
    assert!(
        hw_gap <= est_gap + 0.15,
        "vendor stats should not be less fair: est {est_gap:.2} vs hw {hw_gap:.2}"
    );

    // And the interception count collapses: no sampling windows at all.
    assert!(
        hw.stats.get(StatKey::Faults) * 5 < est.stats.get(StatKey::Faults).max(1),
        "hw mode intercepted {} vs estimation's {}",
        hw.stats.get(StatKey::Faults),
        est.stats.get(StatKey::Faults)
    );
}

#[test]
fn vendor_statistics_cut_standalone_overhead() {
    let run_solo = |kind: SchedulerKind| {
        let mut w = world(kind);
        w.add_task(Box::new(Throttle::new(us(19)))).unwrap();
        let report = w.run(SimDuration::from_millis(500));
        report.tasks[0].rounds_completed()
    };
    let direct = run_solo(SchedulerKind::Direct);
    let est = run_solo(SchedulerKind::DisengagedFairQueueing);
    let hw = run_solo(SchedulerKind::DisengagedFairQueueingVendor);
    // Estimation pays for sampling; hardware statistics are ~free.
    assert!(hw > est, "hw rounds {hw} should beat estimation's {est}");
    let hw_overhead = 1.0 - hw as f64 / direct as f64;
    assert!(
        hw_overhead < 0.02,
        "vendor-stat DFQ overhead {:.1}% should be ~0",
        hw_overhead * 100.0
    );
}

#[test]
fn hardware_preemption_tolerates_infinite_requests_without_killing() {
    // Sec 6.2 future work: with true hardware preemption the scheduler
    // swaps an over-long request out (remainder requeued, channel
    // masked) instead of killing the task; the co-runner keeps the
    // device and the offender is merely rate-limited.
    let params = SchedParams {
        overlong_limit: SimDuration::from_millis(20),
        hardware_preemption: true,
        ..SchedParams::default()
    };
    let mut w = World::new(
        WorldConfig::default(),
        SchedulerKind::DisengagedFairQueueing.build(params),
    );
    w.add_task(Box::new(app::dct())).unwrap();
    w.add_task(Box::new(InfiniteLoop::new(5, us(100)))).unwrap();
    let report = w.run(SimDuration::from_secs(1));
    assert!(!report.tasks[1].killed, "preemption must replace the kill");
    // The attacker is rate-limited to roughly a fair share (it gets at
    // most one overlong_limit slice per interval), and the victim keeps
    // a solid share of the device and steady progress — the system
    // stays responsive despite an unbounded request.
    let victim = report.tasks[0].usage;
    let attacker = report.tasks[1].usage;
    let share = victim.ratio(victim + attacker);
    assert!(
        share > 0.35,
        "victim got only {victim} vs attacker {attacker} (share {share:.2})"
    );
    assert!(report.tasks[0].rounds_completed() > 1000);
}

#[test]
fn without_preemption_the_same_scenario_kills() {
    let params = SchedParams {
        overlong_limit: SimDuration::from_millis(20),
        hardware_preemption: false,
        ..SchedParams::default()
    };
    let mut w = World::new(
        WorldConfig::default(),
        SchedulerKind::DisengagedFairQueueing.build(params),
    );
    w.add_task(Box::new(app::dct())).unwrap();
    w.add_task(Box::new(InfiniteLoop::new(5, us(100)))).unwrap();
    let report = w.run(SimDuration::from_secs(1));
    assert!(report.tasks[1].killed);
}
