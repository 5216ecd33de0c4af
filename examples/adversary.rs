//! Misbehaving applications and how the schedulers contain them.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adversary
//! ```
//!
//! Three scenarios from the paper's motivation:
//!
//! 1. A **greedy batcher** merges its work into 10 ms requests to hog
//!    a work-conserving device; timeslicing restores fairness.
//! 2. An **infinite-loop request** would hang the GPU forever; the
//!    scheduler identifies the offender (the token holder) and kills
//!    it, after which the victim recovers the full device.
//! 3. A **channel-hoarding attacker** opens contexts until the device
//!    is exhausted; the §6.3 allocation policy contains it.

use disengaged_scheduling::core::cost::SchedParams;
use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::experiments::sec63;
use disengaged_scheduling::scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

fn main() {
    batcher_scenario();
    infinite_loop_scenario();
    channel_dos_scenario();
}

/// DCT first, then `attacker`, for one simulated second.
fn victim_and(attacker: WorkloadSpec) -> ScenarioSpec {
    ScenarioSpec::new("adversary", SimDuration::from_secs(1))
        .seeds(vec![0x5EED])
        .group(TenantGroup::new(
            "DCT",
            WorkloadSpec::App {
                name: "DCT".to_string(),
            },
        ))
        .group(TenantGroup::new("attacker", attacker))
}

fn batcher_scenario() {
    println!("== 1. Greedy batcher (10ms requests) vs DCT ==");
    let schedulers = vec![SchedulerKind::Direct, SchedulerKind::DisengagedTimeslice];
    let spec = victim_and(WorkloadSpec::Batcher {
        batch: SimDuration::from_millis(10),
    })
    .schedulers(schedulers.clone());
    let outcome = sweep::run_parallel(&sweep::plan([spec]), None);
    for (scheduler, cell) in schedulers.iter().zip(&outcome.results) {
        let dct = cell.report.tasks[0].usage;
        let batcher = cell.report.tasks[1].usage;
        println!(
            "  {:<16} DCT got {:>7.1}ms of GPU, batcher {:>7.1}ms",
            scheduler.label(),
            dct.as_micros_f64() / 1000.0,
            batcher.as_micros_f64() / 1000.0,
        );
    }
    println!();
}

fn infinite_loop_scenario() {
    println!("== 2. Infinite-loop request (kill after the documented limit) ==");
    let spec = victim_and(WorkloadSpec::InfiniteLoop {
        warmup_rounds: 20,
        request: SimDuration::from_micros(100),
    })
    .schedulers(vec![SchedulerKind::DisengagedTimeslice])
    .params(SchedParams {
        // A short limit so the example finishes quickly.
        overlong_limit: SimDuration::from_millis(50),
        ..SchedParams::default()
    });
    let outcome = sweep::run_parallel(&sweep::plan([spec]), None);
    let report = &outcome.results[0].report;
    let victim = &report.tasks[0];
    let attacker = &report.tasks[1];
    println!(
        "  attacker killed: {} (completed {} rounds before poisoning the GPU)",
        attacker.killed,
        attacker.rounds_completed()
    );
    println!(
        "  victim completed {} rounds and kept running",
        victim.rounds_completed()
    );
    println!();
}

fn channel_dos_scenario() {
    println!("== 3. Channel exhaustion DoS (Sec 6.3) ==");
    let outcomes = sec63::run(&sec63::Config::default());
    println!("{}", sec63::render(&outcomes));
}
