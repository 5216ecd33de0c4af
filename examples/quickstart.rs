//! Quickstart: two applications share a simulated GPU under each of
//! the paper's schedulers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! DCT (small, frequent compute requests) competes with a Throttle
//! microbenchmark issuing 1.7 ms requests. Under direct device access
//! the round-robin-by-request device starves DCT; the disengaged
//! schedulers restore ~2x fair sharing at a few percent overhead.

use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::experiments::pairwise;
use disengaged_scheduling::scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

fn main() {
    let seed = 42;
    let dct = TenantGroup::new(
        "DCT",
        WorkloadSpec::App {
            name: "DCT".to_string(),
        },
    );
    let throttle = pairwise::throttle_group(SimDuration::from_micros(1700), 0.0);
    // Two direct-access baselines, then the mix under each scheduler.
    let specs = [
        pairwise::baseline(dct.clone(), seed),
        pairwise::baseline(throttle.clone(), seed),
        ScenarioSpec::new("quickstart", SimDuration::from_secs(2))
            .seeds(vec![seed])
            .schedulers(SchedulerKind::PAPER.to_vec())
            .group(dct)
            .group(throttle),
    ];
    let outcome = sweep::run_parallel(&sweep::plan(specs), None);
    let alone = [0, 1].map(|i| pairwise::mean_round(&outcome.results[i].report, 0));

    println!("DCT vs Throttle(1.7ms), 2s simulated per scheduler\n");
    println!(
        "{:<16} {:>14} {:>20} {:>12}",
        "scheduler", "DCT slowdown", "Throttle slowdown", "efficiency"
    );
    for (scheduler, mix) in SchedulerKind::PAPER.iter().zip(&outcome.results[2..]) {
        let concurrent = pairwise::concurrent_rounds(&mix.report);
        let (slowdowns, efficiency) = pairwise::compare(&alone, &concurrent);
        println!(
            "{:<16} {:>13.2}x {:>19.2}x {:>12.2}",
            scheduler.label(),
            slowdowns[0],
            slowdowns[1],
            efficiency
        );
    }
    println!(
        "\nfair sharing for two tasks is ~2x each; direct access instead gives\n\
         the large-request task nearly the whole device."
    );
}
