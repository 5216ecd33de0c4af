//! A four-tenant GPU server (the Figure 8 scenario, extended).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```
//!
//! One large-request Throttle plus three small-request applications
//! (BinarySearch, DCT, FFT) share the device under every scheduler,
//! including the engaged SFQ and DRR baselines. Fair sharing among
//! four tenants means each slows ~4-5x; the interesting column is the
//! efficiency each policy preserves while getting there.

use disengaged_scheduling::core::SchedulerKind;
use disengaged_scheduling::experiments::pairwise;
use disengaged_scheduling::scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;

fn main() {
    let seed = 42;
    let mut tenants = vec![pairwise::throttle_group(
        SimDuration::from_micros(1700),
        0.0,
    )];
    for app in ["BinarySearch", "DCT", "FFT"] {
        tenants.push(TenantGroup::new(
            app,
            WorkloadSpec::App {
                name: app.to_string(),
            },
        ));
    }
    // One direct-access baseline per tenant, then the four-way mix
    // under every scheduler.
    let mut specs: Vec<ScenarioSpec> = tenants
        .iter()
        .map(|t| pairwise::baseline(t.clone(), seed))
        .collect();
    let mut mix = ScenarioSpec::new("multi-tenant", SimDuration::from_secs(3))
        .seeds(vec![seed])
        .schedulers(SchedulerKind::ALL.to_vec());
    for t in &tenants {
        mix = mix.group(t.clone());
    }
    specs.push(mix);
    let outcome = sweep::run_parallel(&sweep::plan(specs), None);
    let (baselines, mixes) = outcome.results.split_at(tenants.len());
    let alone: Vec<SimDuration> = baselines
        .iter()
        .map(|b| pairwise::mean_round(&b.report, 0))
        .collect();

    println!("Throttle(1.7ms) + BinarySearch + DCT + FFT, 3s simulated\n");
    println!(
        "{:<16} {:>10} {:>13} {:>8} {:>8} {:>12}",
        "scheduler", "Throttle", "BinarySearch", "DCT", "FFT", "efficiency"
    );
    for (scheduler, mix) in SchedulerKind::ALL.iter().zip(mixes) {
        let (s, efficiency) = pairwise::compare(&alone, &pairwise::concurrent_rounds(&mix.report));
        println!(
            "{:<16} {:>9.2}x {:>12.2}x {:>7.2}x {:>7.2}x {:>12.2}",
            scheduler.label(),
            s[0],
            s[1],
            s[2],
            s[3],
            efficiency
        );
    }
    println!(
        "\ndirect access favors the large-request tenant; the fair policies\n\
         even things out, and the disengaged ones do it at higher efficiency\n\
         than the per-request (engaged) baselines."
    );
}
