//! Regression tests for the Disengaged FQ sampling-window collision
//! with large-request tenants (the `adversary_midrun.toml` anomaly).
//!
//! A 20 ms batcher never completes a request inside the 5 ms sampling
//! window. Two compounding accounting failures used to follow:
//!
//! 1. A window that closed with zero completions discarded the sample
//!    entirely — the batcher kept a stale (small) run-time estimate, so
//!    the free-run charge model billed it like a small-request tenant
//!    while device round-robin handed it ~98 % of the engine. Fixed by
//!    keeping the sample open until the in-flight request drains, so
//!    its completion is observed (prompted polling) and charged.
//! 2. The batcher's barrier drains and sampling drains inflated the
//!    engagement length, and with it the 5× free-run *and* the denial
//!    threshold (which equals the upcoming interval) — the batcher's
//!    virtual-time lead chased a receding target and denial never
//!    fired. Fixed by capping the free-run interval
//!    (`SchedParams::freerun_max`).
//!
//! Together these took `adversary_midrun.toml`'s disengaged-fq cell
//! from ~900 aggregate rounds (≈ direct access, i.e. no protection at
//! all) to within ~15 % of disengaged-ts.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::world::{World, WorldConfig};
use disengaged_scheduling::core::{RunReport, SchedulerKind};
use disengaged_scheduling::workloads::adversary::Batcher;
use disengaged_scheduling::workloads::Throttle;
use neon_sim::{SimDuration, SimTime};

fn run_batcher_mix(kind: SchedulerKind) -> RunReport {
    let config = WorldConfig {
        seed: 5,
        ..WorldConfig::default()
    };
    let mut world = World::new(config, kind.build(SchedParams::default()));
    for _ in 0..2 {
        world
            .add_task(Box::new(Throttle::new(SimDuration::from_micros(200))))
            .unwrap();
    }
    world.spawn_task_at(
        SimTime::ZERO + SimDuration::from_millis(100),
        Box::new(Batcher::new(SimDuration::from_millis(20))),
    );
    world.run(SimDuration::from_millis(700))
}

#[test]
fn dfq_contains_a_large_request_batcher() {
    let report = run_batcher_mix(SchedulerKind::DisengagedFairQueueing);
    let honest0 = &report.tasks[0];
    let honest1 = &report.tasks[1];
    let batcher = &report.tasks[2];
    // Pre-fix numbers for this exact scenario: ~300 rounds per honest
    // task and a 9× usage skew toward the batcher (as bad as direct
    // access). With correct sampling and the interval cap, the honest
    // tenants stay above 600 rounds and the skew is bounded.
    for t in [honest0, honest1] {
        assert!(
            t.rounds_completed() > 600,
            "honest tenant starved by the batcher: {} rounds",
            t.rounds_completed()
        );
    }
    let skew = batcher.usage.ratio(honest0.usage.min(honest1.usage));
    assert!(
        skew < 3.0,
        "batcher still dominates device time: {skew:.1}x an honest tenant"
    );
    assert!(
        !batcher.killed,
        "containment must come from denial, not kills"
    );
}

#[test]
fn dfq_stays_within_reach_of_disengaged_ts_under_the_batcher() {
    // The anomaly's original signature: DFQ at ~1/7 of disengaged-ts
    // aggregate throughput. Require the gap to stay under 2×.
    let dfq: usize = run_batcher_mix(SchedulerKind::DisengagedFairQueueing)
        .tasks
        .iter()
        .map(|t| t.rounds_completed())
        .sum();
    let dts: usize = run_batcher_mix(SchedulerKind::DisengagedTimeslice)
        .tasks
        .iter()
        .map(|t| t.rounds_completed())
        .sum();
    assert!(
        dfq * 2 > dts,
        "DFQ collapsed again under the batcher: {dfq} rounds vs {dts} for disengaged-ts"
    );
}

#[test]
fn freerun_cap_only_binds_on_inflated_engagements() {
    // A small-request mix must behave identically with and without the
    // cap: engagements stay ~10 ms, 5× of which is far below 100 ms.
    let run = |freerun_max| {
        let config = WorldConfig {
            seed: 11,
            ..WorldConfig::default()
        };
        let params = SchedParams {
            freerun_max,
            ..SchedParams::default()
        };
        let mut world = World::new(config, SchedulerKind::DisengagedFairQueueing.build(params));
        for _ in 0..2 {
            world
                .add_task(Box::new(Throttle::new(SimDuration::from_micros(150))))
                .unwrap();
        }
        let r = world.run(SimDuration::from_millis(400));
        (
            r.faults,
            r.tasks[0].rounds.clone(),
            r.tasks[1].rounds.clone(),
        )
    };
    assert_eq!(
        run(SimDuration::from_millis(100)),
        run(SimDuration::from_secs(3600)),
        "the cap must be invisible to well-behaved workloads"
    );
}
