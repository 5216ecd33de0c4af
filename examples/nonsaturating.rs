//! Work conservation with nonsaturating workloads (the Figure 9/10
//! scenario).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example nonsaturating
//! ```
//!
//! A Throttle that keeps the device idle 80 % of the time shares it
//! with a saturating DCT. The timeslice schedulers waste Throttle's
//! idle slices; Disengaged Fair Queueing hands the slack to DCT
//! without hurting Throttle — fair sharing does not require co-runners
//! to suffer equally.

use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::experiments::pairwise;
use disengaged_scheduling::scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

fn main() {
    let seed = 42;
    let size = SimDuration::from_micros(430);
    let offs = [0.0, 0.4, 0.8];
    let dct = TenantGroup::new(
        "DCT",
        WorkloadSpec::App {
            name: "DCT".to_string(),
        },
    );
    // Baselines (DCT, then one Throttle per off ratio), then one mix per
    // off ratio under each scheduler.
    let mut specs = vec![pairwise::baseline(dct.clone(), seed)];
    for off in offs {
        specs.push(pairwise::baseline(
            pairwise::throttle_group(size, off),
            seed,
        ));
    }
    for off in offs {
        specs.push(
            ScenarioSpec::new(format!("DCT+off{off}"), SimDuration::from_secs(2))
                .seeds(vec![seed])
                .schedulers(SchedulerKind::PAPER.to_vec())
                .group(dct.clone())
                .group(pairwise::throttle_group(size, off)),
        );
    }
    let outcome = sweep::run_parallel(&sweep::plan(specs), None);
    let alone = |cell: usize| pairwise::mean_round(&outcome.results[cell].report, 0);
    let mixes = outcome.results[1 + offs.len()..].chunks(SchedulerKind::PAPER.len());

    println!("DCT vs Throttle(430us) at several off ratios, 2s simulated\n");
    for ((j, off), mixes) in offs.into_iter().enumerate().zip(mixes) {
        let baselines = [alone(0), alone(1 + j)];
        println!("-- Throttle off ratio {:.0}% --", off * 100.0);
        println!(
            "{:<16} {:>14} {:>20} {:>12}",
            "scheduler", "DCT slowdown", "Throttle slowdown", "efficiency"
        );
        for (scheduler, mix) in SchedulerKind::PAPER.iter().zip(mixes) {
            let concurrent = pairwise::concurrent_rounds(&mix.report);
            let (slowdowns, efficiency) = pairwise::compare(&baselines, &concurrent);
            println!(
                "{:<16} {:>13.2}x {:>19.2}x {:>12.2}",
                scheduler.label(),
                slowdowns[0],
                slowdowns[1],
                efficiency
            );
        }
        println!();
    }
    println!(
        "at high off ratios the timeslice rows lose efficiency (idle slices),\n\
         while disengaged fair queueing tracks the direct-access efficiency."
    );
}
