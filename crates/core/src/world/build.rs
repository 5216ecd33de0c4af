//! Construction: building a world's device slots, and resetting a
//! world to its freshly built state for the next cell.

use neon_gpu::{DeviceId, EngineClass, Gpu, Topology};
use neon_sim::{EventQueue, SimDuration, SimTime, Trace};

use super::{DeviceSlot, Recovery, Sampler, TaskShell, World, WorldConfig, MAX_DEVICES};
use crate::placement::{LeastLoaded, Placement};
use crate::sched::Scheduler;
use crate::telemetry::SimStats;

impl World {
    /// Creates an empty single-device world with the given scheduler
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the topology names more than one device — use
    /// [`World::with_devices`] for multi-device topologies (a scheduler
    /// instance is needed per device).
    pub fn new(config: WorldConfig, sched: Box<dyn Scheduler>) -> Self {
        assert!(
            config.topology.len() == 1,
            "multi-device configurations need World::with_devices \
             (one scheduler instance per device)"
        );
        let mut sched = Some(sched);
        Self::build(config, Box::new(LeastLoaded), &mut |_| {
            // lint: allow(unchecked-unwrap) — the single-device build closure
            // runs exactly once
            sched.take().expect("exactly one device")
        })
    }

    /// Creates a world with one device slot per device of
    /// [`WorldConfig::topology`], the one device description
    /// ([`Topology::symmetric`] is the flat host). `sched_factory` is
    /// invoked once per device to build that device's scheduler
    /// instance; `placement` assigns arriving tasks to devices.
    pub fn with_devices(
        config: WorldConfig,
        placement: Box<dyn Placement>,
        mut sched_factory: impl FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) -> Self {
        Self::build(config, placement, &mut sched_factory)
    }

    /// A fresh world: one slot per device of the topology, each with its
    /// own scheduler ([`World::device_slots`]).
    fn build(
        config: WorldConfig,
        placement: Box<dyn Placement>,
        sched_factory: &mut dyn FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) -> Self {
        World {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            devices: Self::device_slots(&config.topology, sched_factory),
            placement,
            rebalance: config.rebalance.build(),
            tasks: Vec::new(),
            task_pool: Vec::new(),
            pending_arrivals: Vec::new(),
            trace: Trace::new(),
            stats: SimStats::new(),
            sampler: Sampler::new(&config),
            recovery: Recovery::default(),
            started: false,
            config,
        }
    }

    /// Fresh device slots for `topology`, each with its own scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the topology names more than [`MAX_DEVICES`] devices,
    /// more than an event can address.
    fn device_slots(
        topology: &Topology,
        sched_factory: &mut dyn FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) -> Vec<DeviceSlot> {
        assert!(
            topology.len() <= MAX_DEVICES,
            "a host holds at most {MAX_DEVICES} devices, not {}",
            topology.len()
        );
        topology
            .configs()
            .into_iter()
            .enumerate()
            .map(|(i, gpu_config)| {
                let id = DeviceId::from_index(i);
                DeviceSlot {
                    gpu: Gpu::with_id(id, gpu_config),
                    sched: Some(sched_factory(id)),
                    protected: Vec::new(),
                    engine_tokens: [None; EngineClass::ALL.len()],
                    residents: Vec::new(),
                    stats: SimStats::new(),
                    transfer_stall: SimDuration::ZERO,
                    sampled_busy: SimDuration::ZERO,
                    offline_since: None,
                    offline_total: SimDuration::ZERO,
                    hung_engines: [false; EngineClass::ALL.len()],
                }
            })
            .collect()
    }

    /// Returns this world to a freshly-constructed state under a new
    /// configuration: everything a new world is built with is made afresh,
    /// but the world keeps the event queue's run, heap and payload map,
    /// the trace ring, the task table, the pending-arrival table, and the
    /// retired tasks' buffers (kept as empty, capacity-only shells),
    /// emptied in place. A sweep worker builds one `World` and resets it
    /// between cells instead of constructing a new one per cell.
    ///
    /// Behavior is exactly that of `World::with_devices(config,
    /// placement, sched_factory)` — a reset world's trace is
    /// byte-identical to a fresh world's for the same subsequent
    /// program (pinned by `reset_world_matches_fresh_world` in
    /// `tests/sweep_properties.rs`).
    pub fn reset(
        &mut self,
        config: WorldConfig,
        placement: Box<dyn Placement>,
        mut sched_factory: impl FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) {
        // Field by field, so the kept buffers never leave `self` and no
        // fresh queue or trace ring is built only to be dropped. Every
        // field is named (no `..`): a new one fails to compile here
        // until it is given the value `build` gives it.
        let World {
            queue,
            now,
            devices,
            placement: placement_slot,
            rebalance,
            tasks,
            task_pool,
            config: config_slot,
            pending_arrivals,
            trace,
            stats,
            sampler,
            recovery,
            started,
        } = self;
        queue.clear();
        trace.reset();
        pending_arrivals.clear();
        task_pool.extend(tasks.drain(..).map(TaskShell::retire));
        *now = SimTime::ZERO;
        *devices = Self::device_slots(&config.topology, &mut sched_factory);
        *placement_slot = placement;
        *rebalance = config.rebalance.build();
        *stats = SimStats::new();
        *sampler = Sampler::new(&config);
        *recovery = Recovery::default();
        *started = false;
        *config_slot = config;
    }
}
