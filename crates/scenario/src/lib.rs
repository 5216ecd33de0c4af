//! # neon-scenario
//!
//! The dynamic-churn scenario engine: declarative experiment specs, a
//! driver that injects and retires tasks *mid-run*, and a
//! multi-threaded sweep runner.
//!
//! The paper argues disengaged scheduling matters precisely in shared
//! deployments where processes come and go; the original harnesses in
//! `neon-experiments` run static closed-loop mixes only. This crate
//! makes the experiment configuration itself a first-class artifact:
//!
//! - [`spec`] — [`ScenarioSpec`]: tenant groups with workload models,
//!   arrival processes (all-at-start, staggered, explicit instants,
//!   open-loop Poisson), lifetime models (forever, fixed,
//!   exponential), optional per-group device pinning, working-set
//!   sizes and scheduler-parameter overrides, the host topology
//!   (heterogeneous `[[device]]` slots with NUMA/switch coordinates
//!   plus `topology.*` interconnect timing), and the sweep axes
//!   (seeds × schedulers × placement policies × rebalance policies).
//!   Build programmatically or load from TOML ([`toml_file`]).
//! - [`driver`] — [`CellRunner`] / [`run_cell`]: expands one
//!   (scenario, scheduler, seed, …) cell onto a
//!   [`neon_core::fleet::Fleet`] of recycled host worlds (one host
//!   unless the spec asks for more), using dynamic admission
//!   (`spawn_task_at` / `spawn_task_for`) so
//!   arrivals contend for device resources at the instant they show
//!   up — and may be rejected, §6.3-style. Produces a [`CellSummary`].
//! - [`sweep`] — [`sweep::plan`] / [`sweep::run_parallel`]: fans the
//!   cell matrix out over scoped OS threads, one deterministic
//!   fleet per cell, with results in plan order and bit-identical
//!   to a serial run.
//! - [`emit`] — JSON, CSV and table rendering of sweep outcomes.
//!
//! The `neon` binary (`cargo run --bin neon -- run <scenario.toml>`)
//! drives all of this from the command line; example scenarios live
//! in `examples/scenarios/`.
//!
//! # Example
//!
//! ```
//! use neon_core::sched::SchedulerKind;
//! use neon_scenario::{
//!     ArrivalSpec, LifetimeSpec, ScenarioSpec, TenantGroup, WorkloadSpec, sweep,
//! };
//! use neon_sim::SimDuration;
//!
//! // Two residents plus Poisson-arriving tenants that stay ~20 ms.
//! let spec = ScenarioSpec::new("churn", SimDuration::from_millis(80))
//!     .seeds(vec![1, 2])
//!     .schedulers(vec![SchedulerKind::Direct, SchedulerKind::DisengagedFairQueueing])
//!     .group(TenantGroup::new(
//!         "resident",
//!         WorkloadSpec::FixedLoop {
//!             service: SimDuration::from_micros(80),
//!             gap: SimDuration::from_micros(5),
//!             rounds: None,
//!         },
//!     ).count(2))
//!     .group(
//!         TenantGroup::new(
//!             "tenant",
//!             WorkloadSpec::Throttle {
//!                 request: SimDuration::from_micros(400),
//!                 off_ratio: 0.0,
//!                 jitter: 0.0,
//!             },
//!         )
//!         .count(3)
//!         .arrival(ArrivalSpec::Poisson { rate_hz: 100.0, start: SimDuration::ZERO })
//!         .lifetime(LifetimeSpec::Fixed(SimDuration::from_millis(20))),
//!     );
//! spec.validate()?;
//!
//! let cells = sweep::plan([spec]);
//! assert_eq!(cells.len(), 4); // 2 schedulers × 2 seeds
//! let outcome = sweep::run_parallel(&cells, None);
//! assert!(outcome.results.iter().all(|r| r.summary.total_rounds > 0));
//! # Ok::<(), neon_scenario::SpecError>(())
//! ```

pub mod driver;
pub mod emit;
pub mod spec;
pub mod sweep;
pub mod toml;

pub use driver::{current_rss_bytes, run_cell, CellResult, CellRunner, CellSummary, HostSummary};
pub use spec::{
    ArrivalSpec, CustomScheduler, LifetimeSpec, ScenarioSpec, SpecError, TenantGroup, WorkloadSpec,
};
pub use sweep::{SweepCell, SweepOutcome};
pub use toml::{from_file as toml_file, from_toml, parse_duration};
