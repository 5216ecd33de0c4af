//! # disengaged-scheduling
//!
//! A reproduction of *"Disengaged Scheduling for Fair, Protected Access
//! to Fast Computational Accelerators"* (Menychtas, Shen, Scott —
//! ASPLOS 2014) as a Rust workspace.
//!
//! The paper's artifact (NEON) is a Linux kernel module that schedules
//! real Nvidia GPUs by intercepting their direct-mapped, user-space
//! submission interface. This reproduction replaces the hardware and
//! kernel substrate with a deterministic discrete-event simulation and
//! rebuilds the full system on top of it:
//!
//! - [`gpu`] — the accelerator device model (channels, ring buffers,
//!   reference counters, weighted round-robin arbitration, DMA engine).
//! - [`core`] — the kernel interposition layer and the schedulers:
//!   (engaged) Timeslice with overuse control, Disengaged Timeslice,
//!   Disengaged Fair Queueing, plus engaged SFQ and DRR baselines.
//! - [`workloads`] — generative models of the paper's Table 1
//!   benchmarks plus the Throttle microbenchmark and adversaries.
//! - [`metrics`] — slowdown, concurrency efficiency, CDFs.
//! - [`experiments`] — one harness per table/figure of the evaluation.
//! - [`scenario`] — the dynamic-churn scenario engine: declarative
//!   specs (builder or TOML), mid-run task arrivals and departures
//!   driven through [`core::World`]'s dynamic admission, and a
//!   multi-threaded sweep runner over scenario × scheduler × seed
//!   matrices (the `neon` CLI binary).
//! - [`sim`] — the discrete-event engine underneath it all.
//!
//! # Quickstart
//!
//! ```no_run
//! use disengaged_scheduling::core::SchedulerKind;
//! use disengaged_scheduling::experiments::pairwise;
//! use disengaged_scheduling::scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
//! use neon_sim::SimDuration;
//!
//! // DCT vs a large-request Throttle under Disengaged Fair Queueing,
//! // each compared against running alone with direct device access.
//! let dct = TenantGroup::new("DCT", WorkloadSpec::App { name: "DCT".into() });
//! let throttle = pairwise::throttle_group(SimDuration::from_micros(430), 0.0);
//! let mix = ScenarioSpec::new("dct+throttle", SimDuration::from_secs(2))
//!     .seeds(vec![1])
//!     .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
//!     .group(dct.clone())
//!     .group(throttle.clone());
//! let specs = [pairwise::baseline(dct, 1), pairwise::baseline(throttle, 1), mix];
//! let outcome = sweep::run_parallel(&sweep::plan(specs), None);
//!
//! let alone = [0, 1].map(|i| pairwise::mean_round(&outcome.results[i].report, 0));
//! let report = &outcome.results[2].report;
//! let (slowdowns, efficiency) = pairwise::compare(&alone, &pairwise::concurrent_rounds(report));
//! for (task, slowdown) in report.tasks.iter().zip(slowdowns) {
//!     println!("{}: slowdown {slowdown:.2}x", task.name);
//! }
//! println!("concurrency efficiency {efficiency:.2}");
//! ```

pub use neon_core as core;
pub use neon_experiments as experiments;
pub use neon_gpu as gpu;
pub use neon_metrics as metrics;
pub use neon_scenario as scenario;
pub use neon_sim as sim;
pub use neon_workloads as workloads;
