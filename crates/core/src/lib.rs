//! # neon-core
//!
//! The paper's primary contribution, reproduced: OS-level interposition
//! on a direct-mapped accelerator interface and the family of
//! *disengaged* schedulers built on it.
//!
//! - [`world::World`] — the simulation driver: tasks, the user/kernel
//!   boundary (page protection, fault costs, polling-thread service),
//!   and one or more devices, advanced by a deterministic event loop.
//!   Multi-device worlds ([`world::World::with_devices`]) pair every
//!   device with its own scheduler instance; arriving tasks are routed
//!   by a [`placement::Placement`] policy (least-loaded, round-robin,
//!   fewest-tenants, the topology-aware locality-first and cost-min,
//!   or pinned) or pinned explicitly, with departure-triggered
//!   migration governed by a [`rebalance::Rebalance`] policy
//!   (off / count-diff / cost-aware). A host's devices have one
//!   description, the [`neon_gpu::Topology`] in
//!   [`world::WorldConfig::topology`]: per-device configs plus
//!   interconnect link tiers, with admission staging and migration
//!   charging working-set × link tier. [`neon_gpu::Topology::symmetric`]
//!   is the flat host (identical devices, free interconnect); with one
//!   device — the default — it is byte-identical to the original
//!   single-GPU model.
//! - [`sched`] — the policies: [`sched::DirectAccess`] (vendor
//!   baseline), [`sched::Timeslice`] (engaged and disengaged variants,
//!   with overuse control and over-long-request kills), and
//!   [`sched::DisengagedFairQueueing`], plus engaged SFQ/DRR baselines
//!   for ablations.
//! - [`cost::CostModel`] / [`cost::SchedParams`] — every calibrated
//!   constant, in one place.
//! - [`workload::Workload`] — the interface application models
//!   implement (concrete models live in `neon-workloads`).
//!
//! # Dynamic admission and exit
//!
//! Tasks need not all be present at time zero. [`world::World::add_task`]
//! admits immediately (before or during a run);
//! [`world::World::spawn_task_at`] stages a future arrival whose device
//! resources are allocated at the arrival instant — and may be
//! *rejected* if the device is exhausted (§6.3), counted in
//! [`report::RunReport::stats`] as `rejected_admissions` —
//! and [`world::World::spawn_task_for`] additionally schedules a
//! graceful mid-run departure. Every policy handles mid-run
//! [`sched::Scheduler::on_task_admitted`] / `on_task_exit` churn; the
//! `neon-scenario` crate builds declarative churn scenarios and
//! parallel sweeps on top of this interface.
//!
//! # Example
//!
//! ```
//! use neon_core::cost::SchedParams;
//! use neon_core::sched::SchedulerKind;
//! use neon_core::workload::FixedLoop;
//! use neon_core::world::{World, WorldConfig};
//! use neon_sim::SimDuration;
//!
//! let config = WorldConfig::default();
//! let sched = SchedulerKind::DisengagedFairQueueing.build(SchedParams::default());
//! let mut world = World::new(config, sched);
//! world.add_task(Box::new(FixedLoop::endless(
//!     "small",
//!     SimDuration::from_micros(20),
//!     SimDuration::ZERO,
//! )))?;
//! world.add_task(Box::new(FixedLoop::endless(
//!     "large",
//!     SimDuration::from_micros(400),
//!     SimDuration::ZERO,
//! )))?;
//! let report = world.run(SimDuration::from_secs(1));
//! // Fair queueing keeps the large-request task from hogging the GPU.
//! let small = report.tasks[0].usage;
//! let large = report.tasks[1].usage;
//! assert!(large.ratio(small) < 3.0);
//! # Ok::<(), neon_gpu::GpuError>(())
//! ```

pub mod cost;
pub mod fault;
pub mod fleet;
pub mod placement;
pub mod quota;
pub mod rebalance;
pub mod report;
pub mod sched;
pub mod telemetry;
pub mod workload;
pub mod world;

pub use cost::{CostModel, SchedParams};
pub use fault::{FaultCategory, FaultConfig, FaultEvent, FaultKind, FaultMode, FaultPlan};
pub use fleet::{
    Fleet, FleetPlacement, FleetPlacementKind, FleetRebalance, FleetRebalanceKind, FleetReport,
    HostId, HostLoad, HostMigration, HostMigrationCandidate,
};
pub use placement::{DeviceLoad, Placement, PlacementKind};
pub use rebalance::{Migration, MigrationCandidate, Rebalance, RebalanceKind};
pub use report::{DeviceReport, GroupReport, RunReport, TaskReport};
pub use sched::{FaultDecision, SchedCtx, Scheduler, SchedulerKind};
pub use telemetry::{
    labels, DeviceSample, MetricsMode, SimStats, StatKey, Timeline, TimelineSample,
};
pub use workload::{BoxedWorkload, QueueIndex, TaskAction, Workload};
pub use world::{World, WorldConfig};
