//! The simulation world: tasks, kernel interposition, devices, policy.
//!
//! [`World`] owns every piece of modeled state and drives it through a
//! deterministic event loop. The submission path mirrors the real
//! system:
//!
//! 1. A task's workload emits a `Submit` action.
//! 2. If the target channel's register page is **unprotected**, the
//!    write goes straight to the device at the direct-access cost
//!    (~305 cycles).
//! 3. If the page is **protected**, the write faults: the fault handler
//!    (cost: thousands of cycles) consults the scheduler, which either
//!    allows the submission (single-step) or parks the task until it is
//!    woken.
//! 4. Completions are written by the device to per-channel reference
//!    counters; blocked submitters spin on them in user space, while
//!    the kernel observes them only at polling-thread ticks (or, during
//!    engaged operation, through scheduler-prompted polling modeled by
//!    the [`Scheduler::on_completion`] callback).
//!
//! # Multi-device topology
//!
//! A world owns one *device slot* per device of
//! [`WorldConfig::topology`], each pairing a [`Gpu`] with
//! its own [`Scheduler`] instance, page-protection table and engine
//! state — the per-device kernel module of a multi-GPU host. Arriving
//! tasks are assigned to a device once, at admission, by a
//! [`Placement`] policy (or an explicit per-task pin); all of a task's
//! channels live on that device. After a departure a [`Rebalance`]
//! policy ([`WorldConfig::rebalance`]) may migrate one task toward a
//! less crowded device — weighing the interconnect transfer cost when
//! the policy is cost-aware. A single-device world behaves exactly
//! as the original single-GPU model — determinism tests enforce
//! byte-identical traces.
//!
//! # Task lifecycle
//!
//! A task's device state changes in two places. `World::attach` puts a
//! task on a device — context and channels allocated (rolled back on a
//! full device), the task entered in the device's id-ordered
//! `residents`, and during a run the transfer charged, the reason
//! traced, the scheduler told, a step scheduled —
//! for `Add` and `Arrive` (traced `arrive`, after `stage` when staging
//! costs anything), `Migrate` (`migrate`) and `Restage` (`recover`).
//! `World::detach` takes it off — not live, out of `residents`, device
//! state torn down, scheduler told — for `Exit` (a departure is traced
//! `depart`), `Kill` (`crash`, `watchdog`), `PolicyKill` (`kill`),
//! `Park` (`park`) and `MigrateOut` (untraced: the `migrate` attach
//! follows). Nothing else changes `residents`. `World::place` is the one
//! placement path, for admissions and fault recovery alike.

use neon_gpu::{
    ChannelId, DeviceId, EngineClass, Gpu, GpuConfig, GpuError, RequestId, RequestKind, SubmitSpec,
    TaskId, Topology,
};
use neon_metrics::StreamingHistogram;
use neon_sim::{trace_event, DetRng, EventQueue, SimDuration, SimTime, Trace};

use crate::cost::CostModel;
use crate::fault::{FaultConfig, FaultKind, FaultPlan};
use crate::placement::{shortage, DeviceLoad, LeastLoaded, Placement};
use crate::rebalance::{Migration, MigrationCandidate, Rebalance, RebalanceKind};
use crate::report::{groups_of, DeviceReport, RunReport, TaskReport};
use crate::sched::{FaultDecision, NullScheduler, Scheduler};
use crate::telemetry::{
    labels, DeviceSample, MetricsMode, SimStats, StatKey, Timeline, TimelineSample,
};
use crate::workload::{BoxedWorkload, QueueIndex, TaskAction};

/// Delay between consecutive task start times, to avoid artificial
/// simultaneity.
const START_STAGGER: SimDuration = SimDuration::from_micros(100);

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// The host's devices: per-device configurations, their
    /// interconnect coordinates and transfer timing — the one device
    /// description. [`Topology::symmetric`] is the flat host (identical
    /// devices on a free interconnect, byte-identical to the
    /// pre-topology model); a non-free interconnect makes migration
    /// and staging charge data-movement costs of working-set × link
    /// tier.
    pub topology: Topology,
    /// Software-stack timing constants.
    pub cost: CostModel,
    /// RNG seed; two runs with equal configuration and seed produce
    /// identical traces.
    pub seed: u64,
    /// Record per-request submission/service logs (Figure 2) — costs
    /// memory on long runs, so off by default.
    pub record_requests: bool,
    /// The departure-triggered rebalancing policy (multi-device worlds
    /// only; pinned tasks never move). [`RebalanceKind::Off`] by
    /// default; [`RebalanceKind::CountDiff`] reproduces the population
    /// heuristic of the retired boolean rebalance toggle byte for byte;
    /// [`RebalanceKind::CostAware`] migrates only when the estimated
    /// queueing-delay gain beats the interconnect transfer cost.
    pub rebalance: RebalanceKind,
    /// How per-task latency samples are aggregated. The default,
    /// [`MetricsMode::Exact`], stores every round/submit/service sample
    /// in per-task `Vec`s (the oracle); [`MetricsMode::Streaming`]
    /// folds each sample into fixed-memory [`StreamingHistogram`]s so
    /// open-loop churn runs of arbitrary length stay bounded. Note
    /// streaming mode records per-request interarrival/service samples
    /// unconditionally (histograms are cheap), whereas exact mode
    /// gates them behind [`WorldConfig::record_requests`].
    pub metrics: MetricsMode,
    /// Cadence of the periodic telemetry sampler. `None` (the default)
    /// never schedules a sampler event, so default-config event
    /// streams — and the golden trace hashes pinned in the determinism
    /// tests — are untouched. `Some(d)` snapshots every device's
    /// utilization, queue depth and tenancy into
    /// [`RunReport::timeline`] every `d`.
    pub sample_every: Option<SimDuration>,
    /// Bound of the timeline ring; once full, the oldest samples are
    /// evicted (and counted in [`Timeline::dropped`]).
    pub timeline_capacity: usize,
    /// Deterministic fault schedule plus recovery tuning. `None` (the
    /// default) schedules no fault, watchdog or park-retry event at
    /// all, so fault-free event streams — and the golden trace hashes
    /// pinned in the determinism tests — are byte-identical to the
    /// pre-fault model. Host-scope events in the plan are ignored at
    /// world level (the fleet layer consumes them).
    pub faults: Option<FaultPlan>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            topology: Topology::symmetric(1, GpuConfig::default()),
            cost: CostModel::default(),
            seed: 0x5EED,
            record_requests: false,
            rebalance: RebalanceKind::Off,
            metrics: MetricsMode::Exact,
            sample_every: None,
            timeline_capacity: Timeline::DEFAULT_CAPACITY,
            faults: None,
        }
    }
}

/// The most devices one world holds: an [`Event`] names a device in 16
/// bits ([`Dev`]). Scenarios cap a whole cell far below this.
const MAX_DEVICES: usize = 1 << 16;

/// A device index as an [`Event`] carries it. Sixteen bits keep the
/// event at 8 bytes, so it travels through the event queue in one
/// register; [`World::build`] refuses a host with more devices than
/// this can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dev(u16);

impl Dev {
    fn of(dev: usize) -> Dev {
        // lint: allow(unchecked-unwrap) — World::build refuses a host of
        // more than MAX_DEVICES devices, so every device index fits
        Dev(u16::try_from(dev).expect("device index exceeds the event's 16 bits"))
    }

    fn index(self) -> usize {
        usize::from(self.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The task executes its next workload action.
    TaskStep(TaskId),
    /// A submission's CPU cost has elapsed; the request reaches the
    /// device (channel-register write retires).
    DeviceSubmit(TaskId),
    /// The in-flight request on one device's engine finishes.
    EngineDone(Dev, EngineClass),
    /// Polling-thread tick (one kernel thread services every device).
    Poll,
    /// A policy timer armed by one device's scheduler fired.
    SchedTimer(Dev, u32),
    /// A scheduled mid-run arrival (index into the pending-arrival
    /// table) reaches its arrival instant.
    TaskArrival(u32),
    /// A scheduled departure: the task leaves as if its workload had
    /// emitted [`TaskAction::Done`], mid-work or not.
    TaskDeparture(TaskId),
    /// Periodic telemetry sampler tick ([`WorldConfig::sample_every`]);
    /// never scheduled when the cadence is `None`.
    Sample,
    /// An injected fault from [`WorldConfig::faults`] fires; the index
    /// points into the plan's time-sorted event list. Never scheduled
    /// when the plan is `None`.
    Fault(u32),
    /// Per-device watchdog tick — scheduled only when the fault plan
    /// configures a watchdog timeout.
    Watchdog(Dev),
    /// A task displaced by a device hot-remove retries re-admission
    /// (bounded exponential backoff).
    ParkRetry(TaskId),
    /// End of the simulated horizon.
    Horizon,
}

// Every event is copied into and out of the queue; at 8 bytes it moves
// in a register (the event queue's module doc).
const _: () = assert!(std::mem::size_of::<Event>() == 8);

/// A task that has been scheduled to arrive but is not admitted yet —
/// its context and channels are created only at the arrival instant,
/// so open-loop traffic contends for device resources exactly when it
/// shows up (and may be turned away, the §6.3 condition).
struct PendingArrival {
    workload: BoxedWorkload,
    /// How long after admission the task departs; `None` runs it until
    /// its workload finishes or the horizon ends the run.
    lifetime: Option<SimDuration>,
    /// Operator pin: bypass the placement policy.
    pin: Option<DeviceId>,
    /// Watchdog kill-and-requeue lineage depth (0 for an original
    /// arrival); the admitted task inherits it against the retry
    /// budget.
    retries: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Waiting for its next `TaskStep` event.
    Ready,
    /// Spinning on a blocking request's reference counter.
    BlockedOnRequest(RequestId),
    /// Waiting for all outstanding requests (round barrier).
    WaitingAll,
    /// Waiting for pipeline headroom before submitting.
    WaitingSlot,
    /// Parked by the kernel after a fault; resumes on wake.
    Parked,
    /// Exited or killed.
    Finished,
}

/// Why a task comes onto a device ([`World::attach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// [`World::add_task`] after the run has begun.
    Add,
    /// A staged arrival, or a task added before the run.
    Arrive,
    /// A migration from device `from`.
    Migrate { from: usize },
    /// A task displaced by a hot-remove, re-admitted from host memory.
    Restage,
}

/// Why a task leaves its device ([`World::detach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detach {
    /// The workload finished, or its scheduled departure fired.
    Exit,
    /// Fault recovery killed it; the label names the killer.
    Kill(&'static str),
    /// Its device's own scheduler killed it ([`SchedCtx::kill_task`]).
    PolicyKill,
    /// Displaced by a hot-remove with no room elsewhere.
    Park,
    /// The first half of a migration.
    MigrateOut,
}

struct TaskRt {
    id: TaskId,
    name: String,
    workload: BoxedWorkload,
    rng: DetRng,
    /// The device this task's contexts and channels live on.
    device: DeviceId,
    /// Operator pin, if any; pinned tasks are never migrated.
    pin: Option<DeviceId>,
    channels: Vec<ChannelId>,
    max_outstanding: usize,
    state: TaskState,
    outstanding: usize,
    arrived_at: SimTime,
    finished_at: Option<SimTime>,
    pending_submit: Option<(QueueIndex, SubmitSpec)>,
    /// A submission whose CPU cost is elapsing (trap or direct store).
    inflight_submit: Option<(QueueIndex, SubmitSpec)>,
    step_token: Option<u64>,
    live: bool,
    killed: bool,
    migrations: u32,
    /// When rebalancing last moved this task (recency signal the
    /// cost-aware policy uses to forbid ping-pong).
    last_migrated_at: Option<SimTime>,
    /// Simulated time this task spent stalled on working-set movement
    /// (admission staging plus migrations).
    transfer_stall: SimDuration,
    /// When an in-progress migration's transfer completes — consulted
    /// only by the telemetry sampler (in-flight migration gauge).
    migration_until: Option<SimTime>,
    // Fault-injection state (all dormant without a FaultPlan).
    /// The task's next dispatched request never completes.
    hang_next: bool,
    /// Armed transient submission errors still to be consumed.
    submit_errors: u32,
    /// Watchdog kill-and-requeue lineage depth (0 = original task).
    retries: u32,
    /// Re-admission attempts made while displaced by a hot-remove.
    park_retries: u32,
    /// Displaced by a device hot-remove: off-device (not live), waiting
    /// for capacity to return.
    displaced: bool,
    /// Pending [`Event::ParkRetry`] token, cancelled when a hot-add
    /// triggers an immediate retry instead.
    park_token: Option<u64>,
    // Metrics.
    round_start: SimTime,
    rounds: Vec<SimDuration>,
    submitted: u64,
    completed: u64,
    faults: u64,
    submit_times: Vec<SimTime>,
    service_times: Vec<SimDuration>,
    service_kinds: Vec<RequestKind>,
    // Streaming-mode aggregation ([`MetricsMode::Streaming`]): the
    // exact vectors above stay empty and every sample folds into these
    // fixed-memory sketches instead.
    /// Previous device-submit instant, for interarrival gaps.
    last_submit: Option<SimTime>,
    rounds_hist: StreamingHistogram,
    service_hist: StreamingHistogram,
    interarrival_hist: StreamingHistogram,
}

/// A retired task's recyclable heap allocations. [`World::reset`]
/// drains the task table into a free list of these shells and
/// [`World::admit`] draws from it, so tenant admission in a recycled
/// world reuses the channel list (and any metric buffers that did not
/// escape into a [`RunReport`]) instead of hitting the global
/// allocator. The pool only ever holds empty vectors — capacity is the
/// payload — so reuse cannot perturb simulation behavior.
#[derive(Default)]
struct TaskShell {
    channels: Vec<ChannelId>,
    rounds: Vec<SimDuration>,
    submit_times: Vec<SimTime>,
    service_times: Vec<SimDuration>,
    service_kinds: Vec<RequestKind>,
}

impl TaskShell {
    /// Strips a retired task down to its reusable buffers. The metric
    /// vectors are usually empty here (they escape into the report),
    /// but a world reset without a report hands their capacity back
    /// too.
    fn retire(t: TaskRt) -> Self {
        let mut shell = TaskShell {
            channels: t.channels,
            rounds: t.rounds,
            submit_times: t.submit_times,
            service_times: t.service_times,
            service_kinds: t.service_kinds,
        };
        shell.channels.clear();
        shell.rounds.clear();
        shell.submit_times.clear();
        shell.service_times.clear();
        shell.service_kinds.clear();
        shell
    }
}

/// One device slot: the device plus the per-device kernel state (its
/// scheduler instance, page-protection table and engine bookkeeping).
struct DeviceSlot {
    id: DeviceId,
    gpu: Gpu,
    sched: Option<Box<dyn Scheduler>>,
    protected: Vec<bool>,
    /// Pending completion-event token per engine class, indexed by
    /// `EngineClass as usize` — a fixed array, not a map: this is
    /// consulted on every dispatch/completion, and hashing here was
    /// measurable.
    engine_tokens: [Option<u64>; EngineClass::ALL.len()],
    /// The live tasks holding a context here, in id order. Only
    /// [`World::attach`] and [`World::detach`] change it, so the
    /// scheduler's live-task walk, the barrier, rebalancing's candidate
    /// list and fault-victim choice cost O(tenants) instead of a scan
    /// of every task ever admitted (debug builds check it against that
    /// scan on every change).
    residents: Vec<TaskId>,
    /// Per-device structured counters (rejections, faults, kills,
    /// preemptions, denials, sampling windows, migrations in/out).
    /// Only events attributable to one device are counted here; the
    /// hottest run-wide counters (events, polls, direct submits) live
    /// as plain `World` fields and fold into [`RunReport::stats`] at
    /// report time.
    stats: SimStats,
    /// Working-set movement charged on this device (admission staging
    /// onto it, plus migration transfers landing here).
    transfer_stall: SimDuration,
    /// Compute-engine busy total at the previous sampler tick — the
    /// delta over the sampling period yields the utilization gauge.
    sampled_busy: SimDuration,
    /// Hot-remove state: an offline device dispatches nothing and
    /// admits no one; its residents drained away (or parked) at the
    /// removal instant.
    online: bool,
    /// When the device went offline (if currently offline).
    offline_since: Option<SimTime>,
    /// Total offline (degraded-capacity) time accumulated so far.
    offline_total: SimDuration,
    /// Engines wedged by an injected hang: the running request's
    /// completion event was cancelled, so the engine stays busy until
    /// the victim task is torn down.
    hung_engines: [bool; EngineClass::ALL.len()],
}

impl DeviceSlot {
    /// `true` if a task with `channels` channels can be allocated here.
    fn fits(&self, channels: usize) -> bool {
        self.gpu.free_contexts() >= 1 && self.gpu.free_channels() >= channels
    }
}

/// The simulation driver.
pub struct World {
    queue: EventQueue<Event>,
    now: SimTime,
    devices: Vec<DeviceSlot>,
    placement: Box<dyn Placement>,
    rebalance: Box<dyn Rebalance>,
    tasks: Vec<TaskRt>,
    /// Free list of retired task shells ([`World::reset`] refills it,
    /// [`World::admit`] drains it) — the task-state arena.
    task_pool: Vec<TaskShell>,
    config: WorldConfig,
    pending_arrivals: Vec<Option<PendingArrival>>,
    /// Trace for debugging and determinism tests.
    pub trace: Trace,
    faults: u64,
    polls: u64,
    direct_submits: u64,
    rejected_admissions: u64,
    migrations: u64,
    transfer_stall: SimDuration,
    /// Discrete events processed by the run loop — the denominator of
    /// the events/second throughput figure the bench harness reports.
    events: u64,
    /// Run-wide structured counters for the rarer events (kills,
    /// preemptions, denials, sampling windows, rebalance decisions).
    /// Hot-path counters stay as the plain fields above and are folded
    /// in at [`World::report`].
    stats: SimStats,
    /// Bounded ring of periodic device snapshots (empty unless
    /// [`WorldConfig::sample_every`] is set).
    timeline: Timeline,
    /// Previous sampler tick (utilization deltas are measured from
    /// here).
    last_sample_at: SimTime,
    /// Tasks with `hang_next` armed — the cheap gate pump_engines
    /// checks before inspecting per-task flags (zero on fault-free
    /// runs, so the hot path is one integer compare).
    pending_hangs: u32,
    /// Tasks with `submit_errors` armed — the same gate for
    /// attempt_submit.
    pending_submit_errors: u32,
    started: bool,
    stopped: bool,
}

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

    fn build(
        config: WorldConfig,
        placement: Box<dyn Placement>,
        sched_factory: &mut dyn FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) -> Self {
        let devices = Self::device_slots(&config.topology, sched_factory);
        let rebalance = config.rebalance.build();
        let timeline = Self::make_timeline(&config);
        World {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            devices,
            placement,
            rebalance,
            tasks: Vec::new(),
            task_pool: Vec::new(),
            config,
            pending_arrivals: Vec::new(),
            trace: Trace::new(),
            faults: 0,
            polls: 0,
            direct_submits: 0,
            rejected_admissions: 0,
            migrations: 0,
            transfer_stall: SimDuration::ZERO,
            events: 0,
            stats: SimStats::new(),
            timeline,
            last_sample_at: SimTime::ZERO,
            pending_hangs: 0,
            pending_submit_errors: 0,
            started: false,
            stopped: false,
        }
    }

    /// One slot per device of `topology`.
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
                    id,
                    gpu: Gpu::with_id(id, gpu_config),
                    sched: Some(sched_factory(id)),
                    protected: Vec::new(),
                    engine_tokens: [None; EngineClass::ALL.len()],
                    residents: Vec::new(),
                    stats: SimStats::new(),
                    transfer_stall: SimDuration::ZERO,
                    sampled_busy: SimDuration::ZERO,
                    online: true,
                    offline_since: None,
                    offline_total: SimDuration::ZERO,
                    hung_engines: [false; EngineClass::ALL.len()],
                }
            })
            .collect()
    }

    /// The ring is sized only when the sampler will actually run; with
    /// sampling off, the placeholder allocates nothing.
    fn make_timeline(config: &WorldConfig) -> Timeline {
        match config.sample_every {
            Some(_) => Timeline::with_capacity(config.timeline_capacity),
            None => Timeline::default(),
        }
    }

    /// Returns this world to a freshly-constructed state under a new
    /// configuration, recycling every long-lived allocation: the event
    /// queue's slab and heap, the trace ring, the task table, the
    /// pending-arrival table, and the retired tasks' buffers (kept as
    /// empty, capacity-only shells). A sweep worker builds one `World`
    /// and resets it between cells instead of constructing a new one
    /// per cell.
    ///
    /// Behavior is exactly that of `World::with_devices(config,
    /// placement, sched_factory)` — a reset world's trace is
    /// byte-identical to a fresh world's for the same subsequent
    /// program (pinned by `reset_world_matches_fresh_world` in
    /// `tests/sweep_properties.rs`). Device state (GPUs, schedulers,
    /// protection tables) is rebuilt from scratch: it is small,
    /// per-cell-constant, and a stale channel table is not worth the
    /// invalidation subtlety.
    pub fn reset(
        &mut self,
        config: WorldConfig,
        placement: Box<dyn Placement>,
        mut sched_factory: impl FnMut(DeviceId) -> Box<dyn Scheduler>,
    ) {
        self.devices = Self::device_slots(&config.topology, &mut sched_factory);
        self.placement = placement;
        self.rebalance = config.rebalance.build();
        self.timeline = Self::make_timeline(&config);
        self.task_pool
            .extend(self.tasks.drain(..).map(TaskShell::retire));
        self.queue.clear();
        self.trace.reset();
        self.pending_arrivals.clear();
        self.now = SimTime::ZERO;
        self.faults = 0;
        self.polls = 0;
        self.direct_submits = 0;
        self.rejected_admissions = 0;
        self.migrations = 0;
        self.transfer_stall = SimDuration::ZERO;
        self.events = 0;
        self.stats = SimStats::new();
        self.last_sample_at = SimTime::ZERO;
        self.pending_hangs = 0;
        self.pending_submit_errors = 0;
        self.started = false;
        self.stopped = false;
        self.config = config;
    }

    /// Number of devices in this world.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Free (contexts, channels) summed across every device — the
    /// host-level capacity figure the fleet tier's admission ledger is
    /// seeded from.
    pub fn free_capacity(&self) -> (usize, usize) {
        self.devices.iter().fold((0, 0), |(ctx, ch), d| {
            (ctx + d.gpu.free_contexts(), ch + d.gpu.free_channels())
        })
    }

    /// Replaces the rebalancing policy (normally chosen by
    /// [`WorldConfig::rebalance`]) with a custom implementation —
    /// the hook experiments and tests use to drive migration decisions
    /// the built-in kinds don't express.
    pub fn set_rebalance_policy(&mut self, policy: Box<dyn Rebalance>) {
        self.rebalance = policy;
    }

    fn multi(&self) -> bool {
        self.devices.len() > 1
    }

    /// Admits a task running `workload`, immediately, on the device the
    /// placement policy chooses.
    ///
    /// Before [`World::run`] this stages the task for a staggered start
    /// at time zero (the closed-loop harness path). After `run()` has
    /// begun — i.e. called from scheduler or driver code while the
    /// event loop is live — the task joins mid-run: the policy sees
    /// [`Scheduler::on_task_admitted`] and the task takes its first
    /// step at the current instant.
    ///
    /// To stage a *future* arrival, use [`World::spawn_task_at`].
    ///
    /// # Errors
    ///
    /// Returns the device error if no device can host the task (the
    /// §6.3 DoS condition).
    pub fn add_task(&mut self, workload: BoxedWorkload) -> Result<TaskId, GpuError> {
        self.admit(workload, None, 0, Attach::Add)
    }

    /// Like [`World::add_task`], but pinned to `device`: the placement
    /// policy is bypassed, and the admission fails if that device is
    /// full even when siblings have room.
    pub fn add_task_pinned(
        &mut self,
        workload: BoxedWorkload,
        device: DeviceId,
    ) -> Result<TaskId, GpuError> {
        self.admit(workload, Some(device), 0, Attach::Add)
    }

    /// Schedules `workload` to arrive at `at` (simulated time). The
    /// task's device resources are allocated at the arrival instant —
    /// on the device the placement policy picks then — and if every
    /// device is exhausted, the arrival is rejected and counted in
    /// [`RunReport::rejected_admissions`] instead of panicking —
    /// open-loop traffic does not get to assume room.
    pub fn spawn_task_at(&mut self, at: SimTime, workload: BoxedWorkload) {
        self.stage_arrival(at, workload, None, None, 0);
    }

    /// Like [`World::spawn_task_at`], but the task also departs
    /// `lifetime` after its admission (mid-work if necessary), exactly
    /// as if the process had exited: pending submissions are dropped
    /// and the driver's exit protocol reclaims its device state.
    pub fn spawn_task_for(&mut self, at: SimTime, workload: BoxedWorkload, lifetime: SimDuration) {
        self.stage_arrival(at, workload, Some(lifetime), None, 0);
    }

    /// Like [`World::spawn_task_at`], pinned to `device`.
    pub fn spawn_task_at_on(&mut self, at: SimTime, workload: BoxedWorkload, device: DeviceId) {
        self.stage_arrival(at, workload, None, Some(device), 0);
    }

    /// Like [`World::spawn_task_for`], pinned to `device`.
    pub fn spawn_task_for_on(
        &mut self,
        at: SimTime,
        workload: BoxedWorkload,
        lifetime: SimDuration,
        device: DeviceId,
    ) {
        self.stage_arrival(at, workload, Some(lifetime), Some(device), 0);
    }

    /// Schedules an already-admitted task's departure at `at`. No-op
    /// if the task has already exited by then.
    pub fn depart_task_at(&mut self, at: SimTime, task: TaskId) {
        let at = at.max(self.now);
        self.queue.schedule(at, Event::TaskDeparture(task));
    }

    fn stage_arrival(
        &mut self,
        at: SimTime,
        workload: BoxedWorkload,
        lifetime: Option<SimDuration>,
        pin: Option<DeviceId>,
        retries: u32,
    ) {
        let idx = u32::try_from(self.pending_arrivals.len())
            // lint: allow(unchecked-unwrap) — 2^32 staged arrivals cannot
            // fit in memory; truncating the index would admit the wrong task
            .expect("more than 2^32 staged arrivals");
        self.pending_arrivals.push(Some(PendingArrival {
            workload,
            lifetime,
            pin,
            retries,
        }));
        let at = at.max(self.now);
        self.queue.schedule(at, Event::TaskArrival(idx));
    }

    /// The one placement path: the device a task with `channels`
    /// channels and a `working_set` goes to, for an admission, a
    /// migration off a removed device and a parked task's retry. A pin
    /// or a lone device is the only candidate and is not
    /// capacity-checked here ([`World::attach`] names the exact
    /// shortage); otherwise the placement policy picks among the online
    /// devices with room.
    fn place(
        &mut self,
        channels: usize,
        working_set: u64,
        pin: Option<DeviceId>,
    ) -> Result<usize, GpuError> {
        let only = match pin {
            Some(pin) => {
                assert!(
                    pin.index() < self.devices.len(),
                    "task pinned to unknown device {pin}"
                );
                Some(pin.index())
            }
            None => (!self.multi()).then_some(0),
        };
        if let Some(dev) = only {
            // An offline (hot-removed) device offers no contexts until
            // a hot-add restores it.
            let online = self.devices[dev].online;
            return online.then_some(dev).ok_or(GpuError::OutOfContexts);
        }
        let loads = self.loads(working_set);
        let placed = self.placement.place(&loads, channels);
        placed
            .map(|d| d.index())
            .ok_or_else(|| shortage(loads.iter().map(|l| l.free_contexts)))
    }

    /// Kernel-observable load snapshot of every *online* device, in id
    /// order (a hot-removed device is invisible to placement and
    /// rebalancing until it returns). `working_set` is the arriving
    /// task's state size, from which each device's staging cost is
    /// derived.
    fn loads(&self, working_set: u64) -> Vec<DeviceLoad> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.online)
            .map(|(i, slot)| DeviceLoad {
                device: slot.id,
                tenants: slot.residents.len(),
                free_contexts: slot.gpu.free_contexts(),
                free_channels: slot.gpu.free_channels(),
                queued_requests: slot.gpu.queued_requests()
                    + EngineClass::ALL
                        .iter()
                        .filter(|&&c| slot.gpu.running(c).is_some())
                        .count(),
                busy: slot.gpu.engine_busy(EngineClass::Compute)
                    + slot.gpu.engine_busy(EngineClass::Dma),
                completed: slot.gpu.completed_requests(),
                host_distance: self.config.topology.host_tier(i).rank(),
                staging_cost: self.config.topology.staging_cost(i, working_set),
            })
            .collect()
    }

    /// Places and admits a new task: its runtime state (buffers drawn
    /// from the arena of retired shells that `World::reset` refills)
    /// and, through [`World::attach`], its device resources. A refused
    /// admission leaves no task behind, and the id (== `tasks.len()`)
    /// goes to the next successful one.
    fn admit(
        &mut self,
        workload: BoxedWorkload,
        pin: Option<DeviceId>,
        retries: u32,
        how: Attach,
    ) -> Result<TaskId, GpuError> {
        let dev = self.place(workload.queues().len(), workload.working_set_bytes(), pin)?;
        let id = TaskId::from_index(self.tasks.len());
        let shell = self.task_pool.pop().unwrap_or_default();
        let mut seed_rng = DetRng::seed_from(self.config.seed);
        self.tasks.push(TaskRt {
            id,
            name: workload.name().to_string(),
            max_outstanding: workload.max_outstanding().max(1),
            workload,
            rng: seed_rng.fork(id.raw() as u64 + 1),
            device: self.devices[dev].id,
            pin,
            channels: shell.channels,
            state: TaskState::Ready,
            outstanding: 0,
            arrived_at: self.now,
            finished_at: None,
            pending_submit: None,
            inflight_submit: None,
            step_token: None,
            live: false,
            killed: false,
            migrations: 0,
            last_migrated_at: None,
            transfer_stall: SimDuration::ZERO,
            migration_until: None,
            hang_next: false,
            submit_errors: 0,
            retries,
            park_retries: 0,
            displaced: false,
            park_token: None,
            round_start: SimTime::ZERO,
            rounds: shell.rounds,
            submitted: 0,
            completed: 0,
            faults: 0,
            submit_times: shell.submit_times,
            service_times: shell.service_times,
            service_kinds: shell.service_kinds,
            last_submit: None,
            rounds_hist: StreamingHistogram::new(),
            service_hist: StreamingHistogram::new(),
            interarrival_hist: StreamingHistogram::new(),
        });
        if let Err(err) = self.attach(id, dev, how) {
            self.task_pool
                .extend(self.tasks.pop().map(TaskShell::retire));
            self.devices[dev].stats.bump(StatKey::RejectedAdmissions);
            return Err(err);
        }
        Ok(id)
    }

    /// The one attach (see the module doc's "Task lifecycle"):
    /// allocates a context and one channel per queue for task `id` on
    /// device `dev` and binds the task there. On a full device the
    /// context and any channels created so far are reclaimed — a
    /// rejected admission must not shrink device capacity — and the
    /// error is returned. Before the run the rest waits for
    /// [`World::run`]; after, the task is charged its working-set
    /// transfer, the reason is traced, the scheduler sees
    /// [`Scheduler::on_task_admitted`] and the task takes a step once
    /// the transfer is done.
    fn attach(&mut self, id: TaskId, dev: usize, how: Attach) -> Result<(), GpuError> {
        let (now, task, slot) = (
            self.now,
            &mut self.tasks[id.index()],
            &mut self.devices[dev],
        );
        task.channels.clear();
        slot.gpu.create_context(id).and_then(|context| {
            for kind in task.workload.queues() {
                let ch = slot.gpu.create_channel(context, kind).inspect_err(|_| {
                    slot.gpu.destroy_task(now, id);
                })?;
                if slot.protected.len() <= ch.index() {
                    slot.protected.resize(ch.index() + 1, false);
                }
                task.channels.push(ch);
            }
            Ok(())
        })?;
        task.device = slot.id;
        task.live = true;
        if let Err(at) = slot.residents.binary_search(&id) {
            slot.residents.insert(at, id);
        }
        self.debug_check_tenants(dev);
        if !self.started {
            return Ok(());
        }
        let cost = self.charge_transfer(id, how);
        let task = &mut self.tasks[id.index()];
        if how != Attach::Add && how != Attach::Arrive {
            task.migration_until = (!cost.is_zero()).then(|| self.now + cost);
        }
        match how {
            Attach::Add | Attach::Arrive => {
                // Rounds start once the working set is staged, as at
                // the start of the run: staging is reported as
                // transfer_stall, never as round time.
                task.round_start = self.now + cost;
                let note = if how == Attach::Add {
                    " admitted mid-run"
                } else {
                    ""
                };
                let multi = self.multi();
                self.trace
                    .record_with(self.now, labels::ARRIVE, || match multi {
                        true => format!("{id}{note} on {}", self.devices[dev].id),
                        false => format!("{id}{note}"),
                    });
            }
            Attach::Migrate { from } => {
                task.migrations += 1;
                task.last_migrated_at = Some(self.now);
                self.migrations += 1;
                self.devices[from].stats.bump(StatKey::MigrationsOut);
                self.devices[dev].stats.bump(StatKey::MigrationsIn);
                self.trace
                    .record_with(self.now, labels::MIGRATE, || match cost.is_zero() {
                        true => format!("{id} dev{from} -> dev{dev}"),
                        false => format!("{id} dev{from} -> dev{dev} (transfer {cost})"),
                    });
            }
            Attach::Restage => {
                task.displaced = false;
                task.state = TaskState::Ready;
                task.round_start = self.now + cost;
                self.stats.bump(StatKey::RecoveredTasks);
                self.devices[dev].stats.bump(StatKey::RecoveredTasks);
                self.trace
                    .record_with(self.now, labels::RECOVER, || match cost.is_zero() {
                        true => format!("{id} restaged on dev{dev}"),
                        false => format!("{id} restaged on dev{dev} (staging {cost})"),
                    });
            }
        }
        self.dispatch_sched(dev, |s, ctx| s.on_task_admitted(ctx, id));
        // A migrated task resumes whatever it was blocked on afresh (a
        // retained pending_submit is retried first).
        self.schedule_step(id, cost);
        Ok(())
    }

    /// Charges task `id` the working-set movement onto its device —
    /// from device `from` for a migration, else staged from host memory
    /// — on the task, the device and the run totals. Zero on free
    /// interconnects.
    fn charge_transfer(&mut self, id: TaskId, how: Attach) -> SimDuration {
        let task = &mut self.tasks[id.index()];
        let (dev, bytes) = (task.device.index(), task.workload.working_set_bytes());
        let cost = match how {
            Attach::Migrate { from } => self.config.topology.migration_cost(from, dev, bytes),
            _ => self.config.topology.staging_cost(dev, bytes),
        };
        task.transfer_stall += cost;
        self.transfer_stall += cost;
        self.devices[dev].transfer_stall += cost;
        if !cost.is_zero() && matches!(how, Attach::Add | Attach::Arrive) {
            trace_event!(
                self.trace,
                self.now,
                labels::STAGE,
                "{id} working set in {cost}"
            );
        }
        cost
    }

    /// Debug builds re-derive the device's `residents` from the task
    /// table after every attach and detach.
    fn debug_check_tenants(&self, dev: usize) {
        if cfg!(debug_assertions) {
            let slot = &self.devices[dev];
            let scan: Vec<TaskId> = self
                .tasks
                .iter()
                .filter(|t| t.live && t.device == slot.id)
                .map(|t| t.id)
                .collect();
            assert_eq!(
                slot.residents, scan,
                "{}: resident index drifted from the task table",
                slot.id
            );
        }
    }

    /// Runs the simulation for `horizon` and returns the report.
    pub fn run(&mut self, horizon: SimDuration) -> RunReport {
        assert!(!self.started, "run() may only be called once");
        self.started = true;

        // Let each device's policy see its admitted tasks and set
        // protection.
        let tasks: Vec<(TaskId, DeviceId)> = self.tasks.iter().map(|t| (t.id, t.device)).collect();
        for dev in 0..self.devices.len() {
            self.dispatch_sched(dev, |s, ctx| s.init(ctx));
        }
        for (t, dev) in tasks {
            self.dispatch_sched(dev.index(), |s, ctx| s.on_task_admitted(ctx, t));
        }

        // First steps, staggered (plus any working-set staging delay —
        // zero on free interconnects).
        for i in 0..self.tasks.len() {
            let id = self.tasks[i].id;
            let staging = self.charge_transfer(id, Attach::Arrive);
            let at = SimTime::ZERO + START_STAGGER * i as u64 + staging;
            let token = self.queue.schedule(at, Event::TaskStep(id));
            self.tasks[i].step_token = Some(token);
            self.tasks[i].round_start = at;
        }
        self.queue
            .schedule(SimTime::ZERO + self.config.cost.polling_period, Event::Poll);
        if let Some(every) = self.config.sample_every {
            assert!(!every.is_zero(), "sample_every must be positive");
            self.queue.schedule(SimTime::ZERO + every, Event::Sample);
        }
        // Fault schedule and watchdogs — scheduled only when a plan is
        // attached, so fault-free event streams stay byte-identical.
        if let Some(plan) = &self.config.faults {
            if let Err(why) = plan.validate() {
                // lint: allow(panic-path) — config validation at run
                // start; the scenario loader rejects these keyed first
                panic!("invalid fault plan: {why}");
            }
            let ats: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
            let watchdog = plan.config.watchdog;
            for (i, at) in (0u32..).zip(ats) {
                self.queue.schedule(at.max(SimTime::ZERO), Event::Fault(i));
            }
            if let Some(every) = watchdog {
                for d in 0..self.devices.len() {
                    self.queue
                        .schedule(SimTime::ZERO + every, Event::Watchdog(Dev::of(d)));
                }
            }
        }
        self.queue.schedule(SimTime::ZERO + horizon, Event::Horizon);

        while let Some((at, event)) = self.queue.pop() {
            self.now = at;
            self.events += 1;
            match event {
                Event::Horizon => {
                    self.stopped = true;
                    break;
                }
                Event::TaskStep(t) => self.task_step(t),
                Event::DeviceSubmit(t) => self.device_submit(t),
                Event::EngineDone(dev, class) => self.engine_done(dev.index(), class),
                Event::Poll => {
                    self.polls += 1;
                    for dev in 0..self.devices.len() {
                        self.dispatch_sched(dev, |s, ctx| s.on_poll(ctx));
                    }
                    let next = self.now + self.config.cost.polling_period;
                    self.queue.schedule(next, Event::Poll);
                }
                Event::SchedTimer(dev, tag) => {
                    self.dispatch_sched(dev.index(), |s, ctx| s.on_timer(ctx, tag));
                }
                Event::TaskArrival(idx) => self.task_arrival(idx),
                Event::TaskDeparture(id) => {
                    if self.tasks.get(id.index()).is_some_and(|t| t.live) {
                        trace_event!(self.trace, self.now, labels::DEPART, "{id}");
                        self.detach(id, Detach::Exit);
                        self.maybe_rebalance();
                    }
                }
                Event::Sample => {
                    self.take_sample();
                    let every = self
                        .config
                        .sample_every
                        // lint: allow(unchecked-unwrap) — Sample events are
                        // only scheduled when sample_every is set
                        .expect("Sample events exist only when a cadence is set");
                    self.queue.schedule(self.now + every, Event::Sample);
                }
                Event::Fault(i) => self.inject_fault(i),
                Event::Watchdog(dev) => self.watchdog_tick(dev.index()),
                Event::ParkRetry(id) => {
                    self.tasks[id.index()].park_token = None;
                    self.park_retry(id);
                }
            }
        }
        self.report(horizon)
    }

    /// A staged arrival reaches its instant: allocate device resources
    /// and join the run, or be turned away if the device is full.
    fn task_arrival(&mut self, idx: u32) {
        let Some(arrival) = self.pending_arrivals[idx as usize].take() else {
            return;
        };
        match self.admit(
            arrival.workload,
            arrival.pin,
            arrival.retries,
            Attach::Arrive,
        ) {
            Ok(id) => {
                if let Some(lifetime) = arrival.lifetime {
                    self.queue
                        .schedule(self.now + lifetime, Event::TaskDeparture(id));
                }
            }
            Err(err) => {
                self.rejected_admissions += 1;
                trace_event!(
                    self.trace,
                    self.now,
                    labels::REJECT,
                    "arrival refused: {err:?}"
                );
            }
        }
    }

    /// One sampler tick: snapshot every device's gauges into the
    /// bounded timeline ring. Pure observation — no task, device or
    /// scheduler state changes, so enabling the sampler perturbs only
    /// the event count, never the schedule.
    fn take_sample(&mut self) {
        let period = self.now.saturating_duration_since(self.last_sample_at);
        // In-flight migrations are rare; scan only when any migration
        // has ever happened.
        let inflight = if self.migrations > 0 {
            self.tasks
                .iter()
                .filter(|t| t.migration_until.is_some_and(|until| until > self.now))
                .count()
        } else {
            0
        };
        let live_tasks = self.devices.iter().map(|s| s.residents.len()).sum();
        let devices = self
            .devices
            .iter_mut()
            .map(|slot| {
                let busy = slot.gpu.engine_busy(EngineClass::Compute);
                let delta = busy.saturating_sub(slot.sampled_busy);
                slot.sampled_busy = busy;
                let running = EngineClass::ALL
                    .iter()
                    .filter(|&&c| slot.gpu.running(c).is_some())
                    .count();
                DeviceSample {
                    device: slot.id,
                    utilization: if period.is_zero() {
                        0.0
                    } else {
                        delta.ratio(period).min(1.0)
                    },
                    queue_depth: slot.gpu.queued_requests() + running,
                    tenants: slot.residents.len(),
                    engines_busy: running,
                    migrations_in: slot.stats.get(StatKey::MigrationsIn),
                    migrations_out: slot.stats.get(StatKey::MigrationsOut),
                }
            })
            .collect();
        self.timeline.push(TimelineSample {
            at: self.now,
            events: self.events,
            live_tasks,
            inflight_migrations: inflight,
            devices,
        });
        self.last_sample_at = self.now;
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    fn task_step(&mut self, id: TaskId) {
        {
            let task = &mut self.tasks[id.index()];
            task.step_token = None;
            if !task.live {
                return;
            }
            task.state = TaskState::Ready;
        }
        // A parked or capacity-stalled submission is retried first.
        if let Some((queue, spec)) = self.tasks[id.index()].pending_submit.take() {
            self.attempt_submit(id, queue, spec);
            return;
        }
        let action = {
            let task = &mut self.tasks[id.index()];
            let mut rng = task.rng.clone();
            let action = task.workload.next_action(&mut rng);
            task.rng = rng;
            action
        };
        match action {
            TaskAction::CpuWork(d) => {
                self.schedule_step(id, d.max(SimDuration::from_nanos(1)));
            }
            TaskAction::Submit { queue, spec } => {
                let task = &self.tasks[id.index()];
                assert!(
                    queue < task.channels.len(),
                    "workload {} submitted on unknown queue {queue}",
                    task.name
                );
                if task.outstanding >= task.max_outstanding {
                    let task = &mut self.tasks[id.index()];
                    task.pending_submit = Some((queue, spec));
                    task.state = TaskState::WaitingSlot;
                    return;
                }
                self.attempt_submit(id, queue, spec);
            }
            TaskAction::WaitAll => {
                if self.tasks[id.index()].outstanding == 0 {
                    self.schedule_step(id, SimDuration::from_nanos(1));
                } else {
                    self.tasks[id.index()].state = TaskState::WaitingAll;
                }
            }
            TaskAction::EndRound => {
                let task = &mut self.tasks[id.index()];
                let len = self.now.saturating_duration_since(task.round_start);
                match self.config.metrics {
                    MetricsMode::Exact => task.rounds.push(len),
                    MetricsMode::Streaming => task.rounds_hist.record(len),
                }
                task.round_start = self.now;
                self.schedule_step(id, SimDuration::from_nanos(1));
            }
            TaskAction::Done => {
                self.detach(id, Detach::Exit);
                self.maybe_rebalance();
            }
        }
    }

    /// Submission path: direct store or fault, per protection state.
    fn attempt_submit(&mut self, id: TaskId, queue: QueueIndex, spec: SubmitSpec) {
        // An armed transient submission error consumes this attempt:
        // the submission is retained and retried after the backoff
        // base. The outer counter keeps this a single integer compare
        // on fault-free runs.
        if self.pending_submit_errors > 0 && self.tasks[id.index()].submit_errors > 0 {
            self.tasks[id.index()].submit_errors -= 1;
            self.pending_submit_errors -= 1;
            let delay = self.fault_config().backoff_base;
            let dev = self.tasks[id.index()].device.index();
            self.stats.bump(StatKey::FaultRetries);
            self.devices[dev].stats.bump(StatKey::FaultRetries);
            trace_event!(
                self.trace,
                self.now,
                labels::SUBMIT_ERR,
                "{id} transient error; retry in {delay}"
            );
            self.tasks[id.index()].pending_submit = Some((queue, spec));
            self.schedule_step(id, delay);
            return;
        }
        let dev = self.tasks[id.index()].device.index();
        let ch = self.tasks[id.index()].channels[queue];
        if self.devices[dev].protected[ch.index()] {
            self.faults += 1;
            self.tasks[id.index()].faults += 1;
            self.devices[dev].stats.bump(StatKey::Faults);
            trace_event!(self.trace, self.now, labels::FAULT, "{id} on {ch}");
            let decision = self.dispatch_sched(dev, |s, ctx| s.on_fault(ctx, id, ch));
            match decision {
                FaultDecision::Allow => {
                    self.finish_submit(id, queue, spec, self.config.cost.fault_intercept);
                }
                FaultDecision::Park => {
                    let task = &mut self.tasks[id.index()];
                    task.pending_submit = Some((queue, spec));
                    task.state = TaskState::Parked;
                }
            }
        } else {
            self.direct_submits += 1;
            self.finish_submit(id, queue, spec, self.config.cost.direct_submit);
        }
    }

    /// Starts the submission's CPU phase (direct store or fault
    /// handling); the device sees the request when it ends.
    fn finish_submit(&mut self, id: TaskId, queue: QueueIndex, spec: SubmitSpec, cpu: SimDuration) {
        let task = &mut self.tasks[id.index()];
        debug_assert!(
            task.inflight_submit.is_none(),
            "submission already in flight"
        );
        task.inflight_submit = Some((queue, spec));
        self.queue.schedule(self.now + cpu, Event::DeviceSubmit(id));
    }

    /// The channel-register write retires: the device accepts the
    /// request.
    fn device_submit(&mut self, id: TaskId) {
        let Some((queue, spec)) = self.tasks[id.index()].inflight_submit.take() else {
            return; // task was killed while the store was in flight
        };
        if !self.tasks[id.index()].live {
            return;
        }
        let dev = self.tasks[id.index()].device.index();
        let ch = self.tasks[id.index()].channels[queue];
        let (rid, _reference) = self.devices[dev]
            .gpu
            .submit(self.now, ch, spec)
            // lint: allow(unchecked-unwrap) — World sizes rings to the
            // workload pipeline depth at admission; an overflow here is a sim
            // invariant violation, not recoverable input
            .expect("submission failed: pipeline depth must stay below ring capacity");
        {
            let task = &mut self.tasks[id.index()];
            task.outstanding += 1;
            task.submitted += 1;
            match self.config.metrics {
                MetricsMode::Exact => {
                    if self.config.record_requests {
                        task.submit_times.push(self.now);
                    }
                }
                MetricsMode::Streaming => {
                    // Interarrival gaps need no record_requests opt-in:
                    // the sketch is fixed-memory either way.
                    if let Some(prev) = task.last_submit {
                        let gap = self.now.saturating_duration_since(prev);
                        task.interarrival_hist.record(gap);
                    }
                    task.last_submit = Some(self.now);
                }
            }
        }
        self.pump_engines(dev);
        let task = &mut self.tasks[id.index()];
        if spec.blocking {
            task.state = TaskState::BlockedOnRequest(rid);
        } else {
            let _ = task;
            self.schedule_step(id, SimDuration::ZERO);
        }
    }

    fn engine_done(&mut self, dev: usize, class: EngineClass) {
        self.devices[dev].engine_tokens[class as usize] = None;
        let done = self.devices[dev].gpu.complete_running(self.now, class);
        let id = done.task;
        {
            let task = &mut self.tasks[id.index()];
            task.outstanding = task.outstanding.saturating_sub(1);
            task.completed += 1;
            match self.config.metrics {
                MetricsMode::Exact => {
                    if self.config.record_requests {
                        task.service_times.push(done.request.service);
                        task.service_kinds.push(done.request.kind);
                    }
                }
                MetricsMode::Streaming => task.service_hist.record(done.request.service),
            }
        }
        // Wake the submitter if it was waiting on this completion
        // (user-space spin: exact, plus detection latency).
        let detect = self.config.cost.completion_detect;
        let task = &self.tasks[id.index()];
        let wake = match task.state {
            TaskState::BlockedOnRequest(rid) => rid == done.request.id,
            TaskState::WaitingAll => task.outstanding == 0,
            TaskState::WaitingSlot => task.outstanding < task.max_outstanding,
            _ => false,
        };
        if wake && task.live {
            self.schedule_step(id, detect);
        }
        self.dispatch_sched(dev, |s, ctx| s.on_completion(ctx, &done));
        self.pump_engines(dev);
    }

    /// Dispatches idle engines of device `dev` onto pending work and
    /// schedules their completion events. An offline (hot-removed)
    /// device dispatches nothing; an engine wedged by an injected hang
    /// stays busy until its victim is torn down.
    fn pump_engines(&mut self, dev: usize) {
        if !self.devices[dev].online {
            return;
        }
        let device = self.devices[dev].id;
        for class in EngineClass::ALL {
            if self.devices[dev].engine_tokens[class as usize].is_some()
                || self.devices[dev].hung_engines[class as usize]
            {
                continue;
            }
            if let Some(outcome) = self.devices[dev].gpu.try_dispatch(self.now, class) {
                // An armed hang wedges the first request its victim
                // gets running: no completion event is scheduled, and
                // the engine stays occupied until the task is killed.
                if self.pending_hangs > 0 && self.tasks[outcome.request.task.index()].hang_next {
                    let victim = outcome.request.task;
                    self.tasks[victim.index()].hang_next = false;
                    self.pending_hangs -= 1;
                    self.devices[dev].hung_engines[class as usize] = true;
                    trace_event!(
                        self.trace,
                        self.now,
                        labels::HANG,
                        "{victim} wedges {device} {class:?}"
                    );
                    continue;
                }
                let token = self
                    .queue
                    .schedule(outcome.finish_at, Event::EngineDone(Dev::of(dev), class));
                self.devices[dev].engine_tokens[class as usize] = Some(token);
            }
        }
    }

    fn schedule_step(&mut self, id: TaskId, delay: SimDuration) {
        let task = &mut self.tasks[id.index()];
        if task.step_token.is_some() || !task.live {
            return;
        }
        let token = self.queue.schedule(self.now + delay, Event::TaskStep(id));
        task.step_token = Some(token);
        task.state = TaskState::Ready;
    }

    /// The one detach (see the module doc's "Task lifecycle"): takes
    /// live task `id` off its device — not live, its in-flight register
    /// write dropped, out of its device's `residents`, its device state torn
    /// down (queued work dropped, running requests aborted) — and then
    /// calls [`Scheduler::on_task_exit`], so the policy never sees an
    /// exited task still holding an engine; its channel ids stay in
    /// place for the callback. Returns `false` if the task was not live.
    ///
    /// The reasons differ in these ways only:
    /// - `Exit` and the kills are final: `finished_at` is set, the
    ///   pending submission and the step are dropped, armed fault flags
    ///   are disarmed; a kill is counted and traced before the teardown.
    /// - `Park` drops the step but keeps the pending submission for the
    ///   restage, and sets no `finished_at`.
    /// - `MigrateOut` cancels no step and disarms no fault flag: the
    ///   task lands on its target in the same event.
    /// - `PolicyKill` calls no `on_task_exit`, and its caller runs no
    ///   rebalance: it runs inside the device scheduler's own callback,
    ///   which `dispatch_sched` has taken out. Exits and fault kills are
    ///   followed by [`World::maybe_rebalance`] at their call sites.
    fn detach(&mut self, id: TaskId, why: Detach) -> bool {
        let task = &mut self.tasks[id.index()];
        if !task.live {
            return false;
        }
        task.live = false;
        task.inflight_submit = None;
        let dev = task.device.index();
        match why {
            Detach::MigrateOut => {}
            Detach::Park => {
                task.displaced = true;
                task.state = TaskState::Parked;
            }
            Detach::Exit | Detach::Kill(_) | Detach::PolicyKill => {
                task.killed = why != Detach::Exit;
                task.state = TaskState::Finished;
                task.finished_at = Some(self.now);
                task.pending_submit = None;
                if task.hang_next {
                    task.hang_next = false;
                    self.pending_hangs -= 1;
                }
                self.pending_submit_errors -= std::mem::take(&mut task.submit_errors);
            }
        }
        if why != Detach::MigrateOut {
            if let Some(tok) = task.step_token.take() {
                self.queue.cancel(tok);
            }
        }
        let residents = &mut self.devices[dev].residents;
        if let Ok(at) = residents.binary_search(&id) {
            residents.remove(at);
        }
        self.debug_check_tenants(dev);
        let killer = match why {
            Detach::Kill(label) => Some(label),
            Detach::PolicyKill => Some(labels::KILL),
            _ => None,
        };
        if let Some(label) = killer {
            self.stats.bump(StatKey::Kills);
            self.devices[dev].stats.bump(StatKey::Kills);
            trace_event!(self.trace, self.now, label, "{id}");
        }
        // A wedged engine whose running request belongs to this task is
        // freed by the teardown: clear the hang before destroy_task
        // aborts the request, so the engine returns to service.
        let slot = &mut self.devices[dev];
        for class in EngineClass::ALL {
            if slot
                .gpu
                .running(class)
                .is_some_and(|r| r.request.task == id)
            {
                slot.hung_engines[class as usize] = false;
            }
        }
        for class in slot.gpu.destroy_task(self.now, id).aborted_engines {
            if let Some(tok) = slot.engine_tokens[class as usize].take() {
                self.queue.cancel(tok);
            }
        }
        self.tasks[id.index()].outstanding = 0;
        self.pump_engines(dev);
        if why != Detach::PolicyKill {
            self.dispatch_sched(dev, |s, ctx| s.on_task_exit(ctx, id));
        }
        true
    }

    // ------------------------------------------------------------------
    // Migration
    // ------------------------------------------------------------------

    /// After a departure, consult the [`Rebalance`] policy
    /// ([`WorldConfig::rebalance`]) over the same kernel-observable
    /// [`DeviceLoad`] snapshots the placement layer sees, plus the
    /// movable candidates (live, unpinned) and the topology's transfer
    /// pricing. At most one task moves per departure; policies are
    /// deterministic, so runs stay reproducible per seed.
    fn maybe_rebalance(&mut self) {
        if !self.rebalance.active() || !self.multi() || !self.started {
            return;
        }
        // The capacity snapshot is taken once, here — policies route
        // every fitness check through `DeviceLoad::fits`, the same
        // predicate placement uses, so the two layers cannot disagree
        // about what a device can hold.
        let loads = self.loads(0);
        let mut candidates: Vec<MigrationCandidate> = self
            .devices
            .iter()
            .flat_map(|slot| &slot.residents)
            .map(|id| &self.tasks[id.index()])
            .filter(|t| t.pin.is_none())
            .map(|t| MigrationCandidate {
                task: t.id,
                from: t.device,
                channels: t.channels.len(),
                working_set: t.workload.working_set_bytes(),
                last_migrated: t.last_migrated_at,
            })
            .collect();
        // Each device's residents are in id order; the policies see one
        // task-id order across devices.
        candidates.sort_unstable_by_key(|c| c.task);
        let plan = self
            .rebalance
            .plan(self.now, &self.config.topology, &loads, &candidates);
        if let Some(m) = plan {
            if self.migration_is_sound(&m) {
                self.migrate_task(m.task, m.to.index());
            }
        }
    }

    /// Verifies a policy's plan before executing it: the task must be
    /// a live, unpinned candidate and the target a real, online device
    /// with room for its channels. The built-in policies cannot produce
    /// an unsound plan (the snapshot is taken in the same event, with no
    /// mutation in between, and hides offline devices), but
    /// [`World::set_rebalance_policy`] accepts arbitrary
    /// implementations — a buggy one gets a traced refusal, not a panic.
    fn migration_is_sound(&mut self, m: &Migration) -> bool {
        let refusal = match self.tasks.get(m.task.index()) {
            None => Some("unknown task"),
            Some(t) if !t.live => Some("task is not live"),
            Some(t) if t.pin.is_some() => Some("task is pinned"),
            Some(t) => match self.devices.get(m.to.index()) {
                None => Some("unknown target device"),
                Some(slot) if !slot.online => Some("target is offline"),
                Some(slot) if t.device != m.to && !slot.fits(t.channels.len()) => {
                    Some("target cannot fit the task")
                }
                Some(_) => None,
            },
        };
        match refusal {
            Some(why) => {
                trace_event!(
                    self.trace,
                    self.now,
                    labels::MIGRATE_REFUSED,
                    "{} -> {}: {why}",
                    m.task,
                    m.to
                );
                false
            }
            None => true,
        }
    }

    /// Moves a live task to device `to`: a [`World::detach`] from its
    /// device (the drop-and-replay cost: queued work dropped, running
    /// request aborted) and an [`World::attach`] on the target, where
    /// it stalls for the interconnect transfer of its working set
    /// (working-set size × link tier between the devices — zero on free
    /// interconnects). Both schedulers observe the move as an exit plus
    /// an admission.
    fn migrate_task(&mut self, id: TaskId, to: usize) {
        let from = self.tasks[id.index()].device.index();
        if from == to {
            // A buggy policy returning the source device must not tear
            // down and re-create the task's state in place (dropping
            // its queued work for nothing) — refuse the no-op move.
            trace_event!(
                self.trace,
                self.now,
                labels::MIGRATE_NOOP,
                "{id} already on dev{to}; policy returned the source device"
            );
            return;
        }
        self.detach(id, Detach::MigrateOut);
        self.attach(id, to, Attach::Migrate { from })
            // lint: allow(unchecked-unwrap) — the rebalance plan and
            // hot-remove placement both checked the target's capacity
            .expect("migration target capacity was checked");
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    /// The active recovery tuning. Total (falls back to defaults) so
    /// call sites stay simple; reachable fault paths always have a
    /// plan attached.
    fn fault_config(&self) -> FaultConfig {
        self.config
            .faults
            .as_ref()
            .map(|p| p.config.clone())
            .unwrap_or_default()
    }

    /// Resolves a fault's victim: the explicit target if it is still
    /// live, else the lowest-id live task (deterministic under churn).
    fn fault_victim(&self, target: Option<TaskId>) -> Option<TaskId> {
        match target {
            Some(id) => self.tasks.get(id.index()).filter(|t| t.live).map(|t| t.id),
            None => self
                .devices
                .iter()
                .filter_map(|slot| slot.residents.first().copied())
                .min(),
        }
    }

    /// One scheduled fault from the plan fires.
    fn inject_fault(&mut self, idx: u32) {
        let Some(plan) = &self.config.faults else {
            return;
        };
        let Some(ev) = plan.events().get(idx as usize).copied() else {
            return;
        };
        self.stats.bump(StatKey::InjectedFaults);
        match ev.kind {
            FaultKind::DeviceRemove { device } => self.hot_remove(device),
            FaultKind::DeviceAdd { device } => self.hot_add(device),
            FaultKind::TaskHang { task } => self.inject_hang(task),
            FaultKind::TaskCrash { task } => self.inject_crash(task),
            FaultKind::SubmitError { task } => self.inject_submit_error(task),
            // Host-scope events belong to the fleet layer; a lone
            // world ignores them.
            FaultKind::HostFail { .. } | FaultKind::HostRecover { .. } => {}
        }
    }

    /// Injected hang: the victim's running request (or, if it has
    /// none, its next dispatched one) never completes. The wedged
    /// engine stays busy until the victim is torn down — by the
    /// watchdog, a crash, or the horizon.
    fn inject_hang(&mut self, target: Option<TaskId>) {
        let Some(id) = self.fault_victim(target) else {
            trace_event!(self.trace, self.now, labels::HANG, "no live victim");
            return;
        };
        let dev = self.tasks[id.index()].device.index();
        for class in EngineClass::ALL {
            let running_victim = self.devices[dev]
                .gpu
                .running(class)
                .is_some_and(|r| r.request.task == id);
            if running_victim && !self.devices[dev].hung_engines[class as usize] {
                if let Some(tok) = self.devices[dev].engine_tokens[class as usize].take() {
                    self.queue.cancel(tok);
                }
                self.devices[dev].hung_engines[class as usize] = true;
                let device = self.devices[dev].id;
                trace_event!(
                    self.trace,
                    self.now,
                    labels::HANG,
                    "{id} wedges {device} {class:?}"
                );
                return;
            }
        }
        let t = &mut self.tasks[id.index()];
        if !t.hang_next {
            t.hang_next = true;
            self.pending_hangs += 1;
        }
        trace_event!(self.trace, self.now, labels::HANG, "{id} armed");
    }

    /// Injected crash: the victim dies on the spot and is lost (no
    /// requeue — the process is gone, not stuck).
    fn inject_crash(&mut self, target: Option<TaskId>) {
        let Some(id) = self.fault_victim(target) else {
            trace_event!(self.trace, self.now, labels::CRASH, "no live victim");
            return;
        };
        let dev = self.tasks[id.index()].device.index();
        if !self.detach(id, Detach::Kill(labels::CRASH)) {
            return;
        }
        self.stats.bump(StatKey::LostTasks);
        self.devices[dev].stats.bump(StatKey::LostTasks);
        self.maybe_rebalance();
    }

    /// Injected transient submission error: the victim's next
    /// submission attempt fails once and is retried after the backoff
    /// base.
    fn inject_submit_error(&mut self, target: Option<TaskId>) {
        let Some(id) = self.fault_victim(target) else {
            trace_event!(self.trace, self.now, labels::SUBMIT_ERR, "no live victim");
            return;
        };
        self.tasks[id.index()].submit_errors += 1;
        self.pending_submit_errors += 1;
        trace_event!(self.trace, self.now, labels::SUBMIT_ERR, "{id} armed");
    }

    /// Per-device watchdog tick: any running request stagnant past the
    /// timeout gets its owner killed-and-requeued (with a retry
    /// budget). The tick re-arms itself at the timeout cadence — only
    /// while a fault plan with a watchdog is attached.
    fn watchdog_tick(&mut self, dev: usize) {
        let cfg = self.fault_config();
        let Some(timeout) = cfg.watchdog else {
            return;
        };
        if self.devices[dev].online {
            // Reference-counter stagnation — the same signal
            // SchedCtx::overlong_tasks reads for policy-level kills.
            let mut victims = [None; EngineClass::ALL.len()];
            let mut n = 0;
            for class in EngineClass::ALL {
                if let Some(run) = self.devices[dev].gpu.running(class) {
                    if self.now.saturating_duration_since(run.started_at) > timeout {
                        let t = run.request.task;
                        if self.tasks[t.index()].live && !victims.contains(&Some(t)) {
                            victims[n] = Some(t);
                            n += 1;
                        }
                    }
                }
            }
            for id in victims.into_iter().flatten() {
                self.watchdog_kill(id);
            }
        }
        self.queue
            .schedule(self.now + timeout, Event::Watchdog(Dev::of(dev)));
    }

    /// Watchdog kill-and-requeue: the stagnant task is killed exactly
    /// like a scheduler kill, then — while its lineage has retry
    /// budget left — its workload (current state) is staged as a fresh
    /// arrival after an exponential-backoff delay. Budget exhausted
    /// means the task is lost.
    fn watchdog_kill(&mut self, id: TaskId) {
        let cfg = self.fault_config();
        let retries = self.tasks[id.index()].retries;
        let requeue = retries < cfg.retry_budget;
        let workload = if requeue {
            Some(self.tasks[id.index()].workload.box_clone())
        } else {
            None
        };
        let pin = self.tasks[id.index()].pin;
        let dev = self.tasks[id.index()].device.index();
        if !self.detach(id, Detach::Kill(labels::WATCHDOG)) {
            return;
        }
        self.stats.bump(StatKey::WatchdogKills);
        self.devices[dev].stats.bump(StatKey::WatchdogKills);
        match workload {
            Some(w) => {
                let delay = cfg.backoff(retries);
                self.stats.bump(StatKey::FaultRetries);
                self.devices[dev].stats.bump(StatKey::FaultRetries);
                trace_event!(
                    self.trace,
                    self.now,
                    labels::REQUEUE,
                    "{id} attempt {} in {delay}",
                    retries + 1
                );
                self.stage_arrival(self.now + delay, w, None, pin, retries + 1);
            }
            None => {
                self.stats.bump(StatKey::LostTasks);
                self.devices[dev].stats.bump(StatKey::LostTasks);
                trace_event!(
                    self.trace,
                    self.now,
                    labels::LOST,
                    "{id} watchdog retry budget exhausted"
                );
            }
        }
        self.maybe_rebalance();
    }

    /// Hot-remove: the device goes offline — in-flight completions are
    /// lost — and every resident drain-and-migrates to a surviving
    /// device through the normal migration machinery (priced by the
    /// topology), or parks with bounded exponential backoff when
    /// nothing fits.
    fn hot_remove(&mut self, device: DeviceId) {
        let dev = device.index();
        if dev >= self.devices.len() || !self.devices[dev].online {
            trace_event!(
                self.trace,
                self.now,
                labels::HOT_REMOVE,
                "{device} ignored (unknown or already offline)"
            );
            return;
        }
        self.devices[dev].online = false;
        self.devices[dev].offline_since = Some(self.now);
        self.stats.bump(StatKey::HotRemoves);
        self.devices[dev].stats.bump(StatKey::HotRemoves);
        trace_event!(self.trace, self.now, labels::HOT_REMOVE, "{device}");
        for class in EngineClass::ALL {
            if let Some(tok) = self.devices[dev].engine_tokens[class as usize].take() {
                self.queue.cancel(tok);
            }
            self.devices[dev].hung_engines[class as usize] = false;
        }
        for id in self.devices[dev].residents.clone() {
            let t = &self.tasks[id.index()];
            let (channels, bytes, pin) = (t.channels.len(), t.workload.working_set_bytes(), t.pin);
            // A pin or a lone device is this device, now offline: only
            // the placement policy moves a resident, and it checked the
            // target's room.
            match self.place(channels, bytes, pin) {
                Ok(to) => {
                    self.migrate_task(id, to);
                    self.stats.bump(StatKey::RecoveredTasks);
                    self.devices[to].stats.bump(StatKey::RecoveredTasks);
                }
                Err(_) => {
                    // Park: wait off-device for capacity, retrying with
                    // bounded exponential backoff.
                    self.detach(id, Detach::Park);
                    let delay = self.fault_config().backoff(0);
                    trace_event!(
                        self.trace,
                        self.now,
                        labels::PARK,
                        "{id} displaced; first retry in {delay}"
                    );
                    self.schedule_park_retry(id, delay);
                }
            }
        }
    }

    /// Hot-add: a removed device returns to service (empty); parked
    /// tasks get an immediate re-admission attempt, in id order.
    fn hot_add(&mut self, device: DeviceId) {
        let dev = device.index();
        if dev >= self.devices.len() || self.devices[dev].online {
            trace_event!(
                self.trace,
                self.now,
                labels::HOT_ADD,
                "{device} ignored (unknown or already online)"
            );
            return;
        }
        self.devices[dev].online = true;
        if let Some(since) = self.devices[dev].offline_since.take() {
            let down = self.now.saturating_duration_since(since);
            self.devices[dev].offline_total += down;
        }
        self.stats.bump(StatKey::HotAdds);
        self.devices[dev].stats.bump(StatKey::HotAdds);
        trace_event!(self.trace, self.now, labels::HOT_ADD, "{device}");
        let displaced: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|t| t.displaced && t.finished_at.is_none())
            .map(|t| t.id)
            .collect();
        for id in displaced {
            if let Some(tok) = self.tasks[id.index()].park_token.take() {
                self.queue.cancel(tok);
            }
            self.park_retry(id);
        }
    }

    /// (Re)arms a displaced task's retry event, replacing any pending
    /// one so at most one retry is ever in flight per task.
    fn schedule_park_retry(&mut self, id: TaskId, delay: SimDuration) {
        if let Some(tok) = self.tasks[id.index()].park_token.take() {
            self.queue.cancel(tok);
        }
        let tok = self.queue.schedule(self.now + delay, Event::ParkRetry(id));
        self.tasks[id.index()].park_token = Some(tok);
    }

    /// One re-admission attempt for a displaced task: re-stage onto an
    /// online device with room, or back off — until the retry bound
    /// declares the task lost.
    fn park_retry(&mut self, id: TaskId) {
        {
            let t = &self.tasks[id.index()];
            if !t.displaced || t.live || t.finished_at.is_some() {
                return;
            }
        }
        let cfg = self.fault_config();
        let channels = self.tasks[id.index()].workload.queues().len();
        let bytes = self.tasks[id.index()].workload.working_set_bytes();
        let pin = self.tasks[id.index()].pin;
        let to = self.place(channels, bytes, pin).ok();
        // Re-staged from host memory: the device copy of the working
        // set died with the removed device.
        match to.filter(|&to| self.devices[to].fits(channels)) {
            Some(to) => self
                .attach(id, to, Attach::Restage)
                // lint: allow(unchecked-unwrap) — the target's room was
                // checked just above
                .expect("restage target capacity was checked"),
            None => {
                self.tasks[id.index()].park_retries += 1;
                let attempts = self.tasks[id.index()].park_retries;
                if attempts > cfg.max_park_retries {
                    let dev = self.tasks[id.index()].device.index();
                    let t = &mut self.tasks[id.index()];
                    t.displaced = false;
                    t.killed = true;
                    t.state = TaskState::Finished;
                    t.finished_at = Some(self.now);
                    self.stats.bump(StatKey::LostTasks);
                    self.devices[dev].stats.bump(StatKey::LostTasks);
                    trace_event!(
                        self.trace,
                        self.now,
                        labels::LOST,
                        "{id} no capacity after {attempts} park retries"
                    );
                } else {
                    let delay = cfg.backoff(attempts);
                    self.stats.bump(StatKey::FaultRetries);
                    trace_event!(
                        self.trace,
                        self.now,
                        labels::PARK,
                        "{id} still no fit; retry in {delay}"
                    );
                    self.schedule_park_retry(id, delay);
                }
            }
        }
    }

    fn dispatch_sched<R>(
        &mut self,
        dev: usize,
        f: impl FnOnce(&mut dyn Scheduler, &mut SchedCtx<'_>) -> R,
    ) -> R {
        let mut sched = self.devices[dev]
            .sched
            .take()
            .unwrap_or_else(|| Box::new(NullScheduler));
        let mut ctx = SchedCtx { world: self, dev };
        let r = f(sched.as_mut(), &mut ctx);
        self.devices[dev].sched = Some(sched);
        r
    }

    /// Ground-truth usage of a task, summed across devices (a migrated
    /// task leaves usage behind on its former device).
    fn usage_of(&self, task: TaskId) -> SimDuration {
        self.devices.iter().map(|s| s.gpu.usage_of(task)).sum()
    }

    /// Builds the run report. Consumes the per-task metric vectors
    /// (`mem::take`) rather than deep-cloning them: `run()` is
    /// single-shot and the world is finished, so the report is the
    /// rightful owner of the data.
    fn report(&mut self, horizon: SimDuration) -> RunReport {
        let scheduler = self.devices[0]
            .sched
            .as_ref()
            .map(|s| s.name())
            .unwrap_or("unknown");
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for i in 0..self.tasks.len() {
            // A task that never migrated has all its usage on its one
            // device — a single lookup. Only migrated tasks (rare) pay
            // the sum across every device they may have visited.
            let t = &self.tasks[i];
            let usage = if t.migrations == 0 {
                self.devices[t.device.index()].gpu.usage_of(t.id)
            } else {
                self.usage_of(t.id)
            };
            let t = &mut self.tasks[i];
            tasks.push(TaskReport {
                id: t.id,
                name: std::mem::take(&mut t.name),
                device: t.device,
                arrived_at: t.arrived_at,
                finished_at: t.finished_at,
                rounds: std::mem::take(&mut t.rounds),
                submitted_requests: t.submitted,
                completed_requests: t.completed,
                usage,
                faults: t.faults,
                killed: t.killed,
                migrations: t.migrations,
                transfer_stall: t.transfer_stall,
                submit_times: std::mem::take(&mut t.submit_times),
                service_times: std::mem::take(&mut t.service_times),
                service_kinds: std::mem::take(&mut t.service_kinds),
                rounds_hist: std::mem::take(&mut t.rounds_hist),
                service_hist: std::mem::take(&mut t.service_hist),
                interarrival_hist: std::mem::take(&mut t.interarrival_hist),
            });
        }
        // Fold the plain hot-path counters into the structured block;
        // the rarer keys were bumped live as their events happened.
        let mut stats = std::mem::take(&mut self.stats);
        stats.set(StatKey::Events, self.events);
        stats.set(StatKey::Faults, self.faults);
        stats.set(StatKey::Polls, self.polls);
        stats.set(StatKey::DirectSubmits, self.direct_submits);
        stats.set(StatKey::RejectedAdmissions, self.rejected_admissions);
        stats.set(StatKey::MigrationsIn, self.migrations);
        stats.set(StatKey::MigrationsOut, self.migrations);
        stats.set(StatKey::RebalanceAccepted, self.migrations);
        let (vetoed, cooled) = self.rebalance.decision_stats();
        stats.set(StatKey::RebalanceVetoed, vetoed);
        stats.set(StatKey::RebalanceCooledDown, cooled);
        // Degraded-capacity time: per device, total offline span — a
        // still-offline device is charged through the horizon.
        let end = SimTime::ZERO + horizon;
        let device_degraded: Vec<SimDuration> = self
            .devices
            .iter()
            .map(|s| {
                s.offline_total
                    + s.offline_since.map_or(SimDuration::ZERO, |since| {
                        end.saturating_duration_since(since)
                    })
            })
            .collect();
        let degraded: SimDuration = device_degraded.iter().copied().sum();
        let groups = match self.config.metrics {
            MetricsMode::Exact => Vec::new(),
            MetricsMode::Streaming => groups_of(&tasks),
        };
        RunReport {
            scheduler,
            wall: horizon,
            tasks,
            devices: self
                .devices
                .iter()
                .zip(device_degraded.iter())
                .map(|(s, &degraded)| DeviceReport {
                    device: s.id,
                    compute_busy: s.gpu.engine_busy(EngineClass::Compute),
                    dma_busy: s.gpu.engine_busy(EngineClass::Dma),
                    tenants: s.residents.len(),
                    rejected: s.stats.get(StatKey::RejectedAdmissions),
                    migrations_in: s.stats.get(StatKey::MigrationsIn),
                    migrations_out: s.stats.get(StatKey::MigrationsOut),
                    transfer_stall: s.transfer_stall,
                    degraded,
                    stats: s.stats.clone(),
                })
                .collect(),
            compute_busy: self
                .devices
                .iter()
                .map(|s| s.gpu.engine_busy(EngineClass::Compute))
                .sum(),
            dma_busy: self
                .devices
                .iter()
                .map(|s| s.gpu.engine_busy(EngineClass::Dma))
                .sum(),
            faults: self.faults,
            polls: self.polls,
            direct_submits: self.direct_submits,
            rejected_admissions: self.rejected_admissions,
            migrations: self.migrations,
            transfer_stall: self.transfer_stall,
            injected_faults: stats.get(StatKey::InjectedFaults),
            watchdog_kills: stats.get(StatKey::WatchdogKills),
            fault_retries: stats.get(StatKey::FaultRetries),
            recovered_tasks: stats.get(StatKey::RecoveredTasks),
            lost_tasks: stats.get(StatKey::LostTasks),
            hot_removes: stats.get(StatKey::HotRemoves),
            degraded,
            events: self.events,
            stats,
            groups,
            timeline: std::mem::take(&mut self.timeline),
        }
    }
}

/// Controlled access to kernel-observable state, handed to the
/// scheduler on every callback.
///
/// Everything here corresponds to something the real NEON module can
/// do or see: flip page protection, read shared-memory reference
/// counters, park/wake faulting tasks, arm timers, and kill processes.
/// A context is scoped to **one device**: its scheduler sees and
/// controls only the tasks and channels living there.
pub struct SchedCtx<'a> {
    world: &'a mut World,
    dev: usize,
}

impl SchedCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Cost model.
    pub fn cost(&self) -> &CostModel {
        &self.world.config.cost
    }

    /// Live (admitted, not exited/killed) tasks on this device, in id
    /// order. O(tenants on this device): a copy of the device's
    /// resident index, whatever the number of tasks admitted before.
    ///
    /// Allocates a fresh `Vec` per call; policies invoked on every
    /// poll tick should reuse a scratch buffer through
    /// [`SchedCtx::live_tasks_into`] instead.
    pub fn live_tasks(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.live_tasks_into(&mut out);
        out
    }

    /// Fills `out` with the live tasks on this device, in id order —
    /// the allocation-free form of [`SchedCtx::live_tasks`] (the
    /// buffer is cleared first and its capacity reused).
    pub fn live_tasks_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        out.extend_from_slice(&self.world.devices[self.dev].residents);
    }

    /// Number of channels the task owns.
    pub fn channel_count(&self, task: TaskId) -> usize {
        self.world.tasks[task.index()].channels.len()
    }

    /// The task's `i`-th channel — with [`SchedCtx::channel_count`],
    /// the allocation-free way to walk a task's channels while still
    /// holding `&mut` access to the context.
    pub fn channel_of(&self, task: TaskId, i: usize) -> ChannelId {
        self.world.tasks[task.index()].channels[i]
    }

    fn gpu(&self) -> &Gpu {
        &self.world.devices[self.dev].gpu
    }

    fn task_gpu(&self, task: TaskId) -> &Gpu {
        &self.world.devices[self.world.tasks[task.index()].device.index()].gpu
    }

    /// Completion count on a channel (monotonic).
    pub fn channel_completions(&self, ch: ChannelId) -> u64 {
        self.gpu()
            .channel(ch)
            // lint: allow(unchecked-unwrap) — harness accessors are handed
            // channel ids from the device's own allocation
            .expect("unknown channel")
            .completions()
    }

    /// `true` if all of the task's submitted requests have completed
    /// and none is running (reference-counter drain check).
    pub fn task_drained(&self, task: TaskId) -> bool {
        self.task_gpu(task).task_drained(task)
    }

    /// `true` if this whole device is quiesced (barrier drain check).
    pub fn gpu_fully_drained(&self) -> bool {
        self.gpu().is_fully_drained()
    }

    /// `true` if the task has a faulted submission waiting for a wake.
    pub fn is_parked(&self, task: TaskId) -> bool {
        let t = &self.world.tasks[task.index()];
        t.live && t.state == TaskState::Parked
    }

    /// `true` if the task has any request submitted to the device that
    /// has not completed (visible to the kernel via shared structures).
    pub fn has_outstanding(&self, task: TaskId) -> bool {
        let gpu = self.task_gpu(task);
        self.world.tasks[task.index()].channels.iter().any(|&ch| {
            // lint: allow(unchecked-unwrap) — task channel tables only hold
            // ids from the device's own allocation
            let c = gpu.channel(ch).expect("unknown channel");
            c.last_submitted_reference() != c.completed_reference()
        })
    }

    /// Tasks whose currently running request on this device has
    /// exceeded `limit` (inferred from reference-counter stagnation).
    ///
    /// At most one request runs per engine class, so the result is a
    /// fixed array rather than a heap allocation — iterate it with
    /// `.into_iter().flatten()`. This runs on every poll tick.
    pub fn overlong_tasks(&self, limit: SimDuration) -> [Option<TaskId>; EngineClass::ALL.len()] {
        let mut out = [None; EngineClass::ALL.len()];
        let mut n = 0;
        for class in EngineClass::ALL {
            if let Some(run) = self.gpu().running(class) {
                if self.world.now.saturating_duration_since(run.started_at) > limit {
                    let t = run.request.task;
                    if self.world.tasks[t.index()].live && !out.contains(&Some(t)) {
                        out[n] = Some(t);
                        n += 1;
                    }
                }
            }
        }
        out
    }

    /// Protects every channel of a task.
    pub fn protect_task(&mut self, task: TaskId) {
        self.set_task_protection(task, true);
    }

    /// Unprotects every channel of a task.
    pub fn unprotect_task(&mut self, task: TaskId) {
        self.set_task_protection(task, false);
    }

    fn set_task_protection(&mut self, task: TaskId, protected: bool) {
        for i in 0..self.world.tasks[task.index()].channels.len() {
            let ch = self.world.tasks[task.index()].channels[i];
            self.world.devices[self.dev].protected[ch.index()] = protected;
        }
    }

    /// Protects every channel of every live task on this device (a
    /// barrier).
    pub fn protect_all(&mut self) {
        for i in 0..self.world.devices[self.dev].residents.len() {
            let id = self.world.devices[self.dev].residents[i];
            self.set_task_protection(id, true);
        }
    }

    /// Wakes a parked task: its pending submission is retried (and will
    /// fault again if the page is still protected).
    pub fn wake_task(&mut self, task: TaskId) {
        if self.is_parked(task) {
            self.world.schedule_step(task, SimDuration::ZERO);
        }
    }

    /// Arms a policy timer; `tag` is returned to
    /// [`Scheduler::on_timer`]. Returns a token for
    /// [`SchedCtx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u32) -> u64 {
        let event = Event::SchedTimer(Dev::of(self.dev), tag);
        self.world.queue.schedule(self.world.now + delay, event)
    }

    /// Cancels a pending policy timer.
    pub fn cancel_timer(&mut self, token: u64) {
        self.world.queue.cancel(token);
    }

    /// Kills a task: the process is terminated and the driver's exit
    /// protocol reclaims its device state (§3.1 "From model to
    /// prototype").
    pub fn kill_task(&mut self, task: TaskId) {
        self.world.detach(task, Detach::PolicyKill);
    }

    /// Suspends a task's device access using hardware preemption
    /// (§6.2): any request of the task running on an engine is
    /// preempted (remainder requeued) and the task's channels are
    /// masked off from arbitration until
    /// [`SchedCtx::resume_task_channels`]. Pending submissions are not
    /// affected — protection handles those.
    pub fn suspend_task_channels(&mut self, task: TaskId) {
        let dev = self.world.tasks[task.index()].device.index();
        for class in EngineClass::ALL {
            let running_here = self.world.devices[dev]
                .gpu
                .running(class)
                .is_some_and(|r| r.request.task == task);
            if running_here {
                if let Some(tok) = self.world.devices[dev].engine_tokens[class as usize].take() {
                    self.world.queue.cancel(tok);
                }
                self.world.devices[dev]
                    .gpu
                    .preempt_running(self.world.now, class);
            }
        }
        for i in 0..self.world.tasks[task.index()].channels.len() {
            let ch = self.world.tasks[task.index()].channels[i];
            self.world.devices[dev].gpu.set_channel_enabled(ch, false);
        }
        self.world.stats.bump(StatKey::Preemptions);
        self.world.devices[dev].stats.bump(StatKey::Preemptions);
        trace_event!(self.world.trace, self.world.now, labels::PREEMPT, "{task}");
        self.world.pump_engines(dev);
    }

    /// Unmasks a suspended task's channels (see
    /// [`SchedCtx::suspend_task_channels`]); queued remainders become
    /// dispatchable again.
    pub fn resume_task_channels(&mut self, task: TaskId) {
        let dev = self.world.tasks[task.index()].device.index();
        for i in 0..self.world.tasks[task.index()].channels.len() {
            let ch = self.world.tasks[task.index()].channels[i];
            self.world.devices[dev].gpu.set_channel_enabled(ch, true);
        }
        self.world.pump_engines(dev);
    }

    /// Cumulative per-task resource usage on this task's device as a
    /// *vendor-provided hardware statistic* (§6.1 future work: "the
    /// hardware can facilitate OS accounting by including resource
    /// usage information in each completion event"). Prototype-faithful
    /// policies must not call this; the vendor-statistics variant of
    /// Disengaged Fair Queueing does.
    pub fn vendor_usage(&self, task: TaskId) -> SimDuration {
        self.task_gpu(task).usage_of(task)
    }

    /// Counts a policy-level event in the structured run statistics —
    /// both the run-wide [`RunReport::stats`] block and this device's
    /// [`DeviceReport::stats`]. Policies use this for the occurrences
    /// only they can see (e.g. [`StatKey::Denials`] when Disengaged
    /// Fair Queueing revokes a free run, or the sampling-window
    /// open/close pair).
    pub fn note(&mut self, key: StatKey) {
        self.world.stats.bump(key);
        self.world.devices[self.dev].stats.bump(key);
    }

    /// Records a trace entry under the policy's label. On multi-device
    /// worlds the entry is prefixed with the device id so interleaved
    /// policy logs stay readable. The detail string is built only when
    /// tracing is enabled — zero-cost on disabled (benchmark and sweep)
    /// runs.
    pub fn trace_with(&mut self, label: &'static str, detail: impl FnOnce() -> String) {
        if !self.world.trace.is_enabled() {
            return;
        }
        let detail = detail();
        let detail = if self.world.multi() {
            format!("{}: {detail}", self.world.devices[self.dev].id)
        } else {
            detail
        };
        self.world.trace.record(self.world.now, label, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use crate::sched::{DirectAccess, SchedulerKind};
    use crate::workload::FixedLoop;
    use crate::SchedParams;
    use neon_gpu::{DeviceSlotSpec, InterconnectParams};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn direct_world() -> World {
        World::new(WorldConfig::default(), Box::new(DirectAccess::new()))
    }

    fn multi_world(devices: usize, placement: PlacementKind) -> World {
        multi_world_config(
            WorldConfig {
                topology: Topology::symmetric(devices, GpuConfig::default()),
                ..WorldConfig::default()
            },
            placement,
        )
    }

    fn multi_world_config(config: WorldConfig, placement: PlacementKind) -> World {
        World::with_devices(config, placement.build(), |_| Box::new(DirectAccess::new()))
    }

    #[test]
    #[should_panic(expected = "a host holds at most 65536 devices, not 65537")]
    fn a_host_with_more_devices_than_an_event_can_name_is_refused() {
        multi_world(MAX_DEVICES + 1, PlacementKind::LeastLoaded);
    }

    #[test]
    fn single_task_completes_rounds() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::endless("loop", us(100), us(10))))
            .unwrap();
        let report = world.run(SimDuration::from_millis(50));
        let t = &report.tasks[0];
        assert!(t.rounds_completed() > 300, "got {}", t.rounds_completed());
        // Round = 4µs switch skipped after first + 100µs service + ~10µs gap.
        let mean = t.mean_round(0.1).unwrap();
        assert!(
            mean >= us(105) && mean <= us(125),
            "mean round {mean} out of expected band"
        );
        assert_eq!(report.faults, 0, "direct access must not fault");
        assert!(report.direct_submits > 0);
    }

    #[test]
    fn finite_workload_exits_cleanly() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::new("fin", us(10), us(1), 25)))
            .unwrap();
        let report = world.run(SimDuration::from_millis(20));
        assert_eq!(report.tasks[0].rounds_completed(), 25);
        assert_eq!(report.tasks[0].completed_requests, 25);
        assert!(!report.tasks[0].killed);
    }

    #[test]
    fn two_tasks_share_under_direct_access_by_request_size() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::endless(
                "small",
                us(10),
                SimDuration::ZERO,
            )))
            .unwrap();
        world
            .add_task(Box::new(FixedLoop::endless(
                "large",
                us(1000),
                SimDuration::ZERO,
            )))
            .unwrap();
        let report = world.run(SimDuration::from_millis(200));
        let small = &report.tasks[0];
        let large = &report.tasks[1];
        // Round-robin by request: the large-request task hogs the device.
        let ratio = large.usage.ratio(small.usage);
        assert!(ratio > 10.0, "expected large to dominate, ratio {ratio:.1}");
    }

    #[test]
    fn usage_accounting_sums_to_busy() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::endless("a", us(50), us(5))))
            .unwrap();
        world
            .add_task(Box::new(FixedLoop::endless("b", us(80), us(5))))
            .unwrap();
        let report = world.run(SimDuration::from_millis(100));
        let sum = report.tasks[0].usage + report.tasks[1].usage;
        // In-flight work at the horizon is not yet charged, so the sum
        // may lag busy by at most one request + switch.
        let slack = report.compute_busy.saturating_sub(sum);
        assert!(
            slack <= us(90),
            "usage sum {sum} vs busy {} (slack {slack})",
            report.compute_busy
        );
    }

    #[test]
    fn record_requests_captures_log() {
        let mut world = World::new(
            WorldConfig {
                record_requests: true,
                ..WorldConfig::default()
            },
            Box::new(DirectAccess::new()),
        );
        world
            .add_task(Box::new(FixedLoop::endless("logme", us(20), us(2))))
            .unwrap();
        let report = world.run(SimDuration::from_millis(10));
        let t = &report.tasks[0];
        assert!(!t.submit_times.is_empty());
        assert_eq!(t.service_times.len() as u64, t.completed_requests);
        assert!(t.submit_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn midrun_arrival_joins_and_completes_rounds() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::endless("resident", us(100), us(10))))
            .unwrap();
        let at = SimTime::ZERO + SimDuration::from_millis(20);
        world.spawn_task_at(
            at,
            Box::new(FixedLoop::endless("latecomer", us(100), us(10))),
        );
        let report = world.run(SimDuration::from_millis(50));
        assert_eq!(report.tasks.len(), 2);
        let late = &report.tasks[1];
        assert_eq!(late.arrived_at, at);
        assert!(late.rounds_completed() > 50, "latecomer made no progress");
        // The resident saw roughly 20ms alone plus 30ms shared.
        assert!(report.tasks[0].rounds_completed() > late.rounds_completed());
    }

    #[test]
    fn scheduled_departure_retires_the_task_midrun() {
        let mut world = direct_world();
        world
            .add_task(Box::new(FixedLoop::endless("stayer", us(100), us(10))))
            .unwrap();
        world.spawn_task_for(
            SimTime::ZERO + SimDuration::from_millis(5),
            Box::new(FixedLoop::endless("visitor", us(100), us(10))),
            SimDuration::from_millis(10),
        );
        let report = world.run(SimDuration::from_millis(50));
        let visitor = &report.tasks[1];
        let expected_exit = SimTime::ZERO + SimDuration::from_millis(15);
        assert_eq!(visitor.finished_at, Some(expected_exit));
        assert!(!visitor.killed, "departure is graceful, not a kill");
        assert!(visitor.rounds_completed() > 0);
        // The stayer keeps running after the visitor leaves.
        assert!(report.tasks[0].rounds_completed() > 300);
    }

    #[test]
    fn exhausted_device_rejects_arrivals_without_panicking() {
        let config = WorldConfig {
            topology: Topology::symmetric(
                1,
                GpuConfig {
                    total_contexts: 2,
                    ..GpuConfig::default()
                },
            ),
            ..WorldConfig::default()
        };
        let mut world = World::new(config, Box::new(DirectAccess::new()));
        for i in 0..2 {
            world
                .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(50), us(5))))
                .unwrap();
        }
        for i in 0..3 {
            world.spawn_task_at(
                SimTime::ZERO + SimDuration::from_millis(i),
                Box::new(FixedLoop::endless(format!("late{i}"), us(50), us(5))),
            );
        }
        let report = world.run(SimDuration::from_millis(20));
        assert_eq!(report.rejected_admissions, 3);
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(report.devices[0].rejected, 3, "refusals charged per device");
    }

    #[test]
    fn partial_channel_allocation_failure_leaks_nothing() {
        use crate::workload::{TaskAction, Workload};
        use neon_gpu::RequestKind;

        // A workload needing two channels (compute + DMA).
        #[derive(Debug, Clone)]
        struct TwoQueue;
        impl Workload for TwoQueue {
            fn name(&self) -> &str {
                "two-queue"
            }
            fn queues(&self) -> Vec<RequestKind> {
                vec![RequestKind::Compute, RequestKind::Dma]
            }
            fn next_action(&mut self, _rng: &mut neon_sim::DetRng) -> TaskAction {
                TaskAction::CpuWork(SimDuration::from_micros(10))
            }
            fn box_clone(&self) -> crate::workload::BoxedWorkload {
                Box::new(self.clone())
            }
        }

        let config = WorldConfig {
            topology: Topology::symmetric(
                1,
                GpuConfig {
                    total_channels: 2,
                    ..GpuConfig::default()
                },
            ),
            ..WorldConfig::default()
        };
        let mut world = World::new(config, Box::new(DirectAccess::new()));
        world
            .add_task(Box::new(FixedLoop::endless("resident", us(50), us(5))))
            .unwrap();
        // Needs 2 channels, only 1 remains: the first create_channel
        // succeeds, the second fails — context and channel must both
        // be reclaimed, not leaked.
        world.spawn_task_at(
            SimTime::ZERO + SimDuration::from_millis(1),
            Box::new(TwoQueue),
        );
        // A later single-channel arrival must still fit.
        world.spawn_task_at(
            SimTime::ZERO + SimDuration::from_millis(2),
            Box::new(FixedLoop::endless("late", us(50), us(5))),
        );
        let report = world.run(SimDuration::from_millis(20));
        assert_eq!(report.rejected_admissions, 1);
        assert_eq!(
            report.tasks.len(),
            2,
            "the 1-channel arrival must be admitted"
        );
        assert!(report.tasks[1].rounds_completed() > 0);
    }

    #[test]
    fn departure_frees_room_for_later_arrivals() {
        let config = WorldConfig {
            topology: Topology::symmetric(
                1,
                GpuConfig {
                    total_contexts: 1,
                    ..GpuConfig::default()
                },
            ),
            ..WorldConfig::default()
        };
        let mut world = World::new(config, Box::new(DirectAccess::new()));
        world.spawn_task_for(
            SimTime::ZERO,
            Box::new(FixedLoop::endless("first", us(50), us(5))),
            SimDuration::from_millis(5),
        );
        // Arrives after the first departs: must be admitted.
        world.spawn_task_at(
            SimTime::ZERO + SimDuration::from_millis(10),
            Box::new(FixedLoop::endless("second", us(50), us(5))),
        );
        let report = world.run(SimDuration::from_millis(30));
        assert_eq!(report.rejected_admissions, 0);
        assert_eq!(report.tasks.len(), 2);
        assert!(report.tasks[1].rounds_completed() > 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed: u64| {
            let mut world = World::new(
                WorldConfig {
                    seed,
                    ..WorldConfig::default()
                },
                Box::new(DirectAccess::new()),
            );
            world
                .add_task(Box::new(FixedLoop::endless("a", us(33), us(3))))
                .unwrap();
            world
                .add_task(Box::new(FixedLoop::endless("b", us(77), us(7))))
                .unwrap();
            let r = world.run(SimDuration::from_millis(50));
            (
                r.tasks[0].rounds.clone(),
                r.tasks[1].rounds.clone(),
                r.compute_busy,
            )
        };
        assert_eq!(run(42), run(42));
    }

    // ------------------------------------------------------------------
    // Multi-device
    // ------------------------------------------------------------------

    #[test]
    #[should_panic(expected = "multi-device configurations need World::with_devices")]
    fn new_refuses_a_multi_device_topology() {
        let config = WorldConfig {
            topology: Topology::symmetric(2, GpuConfig::default()),
            ..WorldConfig::default()
        };
        World::new(config, Box::new(DirectAccess::new()));
    }

    #[test]
    fn least_loaded_spreads_tasks_across_devices() {
        let mut world = multi_world(2, PlacementKind::LeastLoaded);
        for i in 0..4 {
            world
                .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(80), us(5))))
                .unwrap();
        }
        let report = world.run(SimDuration::from_millis(40));
        let on_dev0 = report.tasks.iter().filter(|t| t.device.raw() == 0).count();
        assert_eq!(on_dev0, 2, "4 tasks over 2 idle devices split evenly");
        for d in &report.devices {
            assert_eq!(d.tenants, 2);
            assert!(d.compute_busy > SimDuration::ZERO, "{} idle", d.device);
        }
        // Two devices run concurrently: total busy exceeds the wall.
        assert!(report.compute_busy > SimDuration::from_millis(40));
    }

    #[test]
    fn pinned_tasks_reject_on_their_device_even_with_room_elsewhere() {
        let config = WorldConfig {
            topology: Topology::new(
                vec![
                    DeviceSlotSpec::near(GpuConfig {
                        total_contexts: 1,
                        ..GpuConfig::default()
                    }),
                    DeviceSlotSpec::near(GpuConfig::default()),
                ],
                InterconnectParams::free(),
            ),
            ..WorldConfig::default()
        };
        let mut world = multi_world_config(config, PlacementKind::LeastLoaded);
        world
            .add_task_pinned(
                Box::new(FixedLoop::endless("pin0", us(50), us(5))),
                DeviceId::new(0),
            )
            .unwrap();
        // Device 0 is now full; a second pinned task must be refused.
        let err = world
            .add_task_pinned(
                Box::new(FixedLoop::endless("pin1", us(50), us(5))),
                DeviceId::new(0),
            )
            .unwrap_err();
        assert_eq!(err, GpuError::OutOfContexts);
        // The policy still finds room on device 1 for unpinned work.
        world
            .add_task(Box::new(FixedLoop::endless("free", us(50), us(5))))
            .unwrap();
        let report = world.run(SimDuration::from_millis(10));
        assert_eq!(report.devices[0].rejected, 1);
        assert_eq!(report.tasks[1].device, DeviceId::new(1));
    }

    #[test]
    fn rebalance_migrates_after_departure_imbalance() {
        let config = WorldConfig {
            topology: Topology::symmetric(2, GpuConfig::default()),
            rebalance: RebalanceKind::CountDiff,
            ..WorldConfig::default()
        };
        let mut world = multi_world_config(config, PlacementKind::RoundRobin);
        // Round-robin: tasks 0/2 on dev0, tasks 1/3 on dev1.
        for i in 0..4 {
            world
                .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(60), us(5))))
                .unwrap();
        }
        // Both dev1 tenants depart mid-run: dev0 has 2, dev1 has 0 — a
        // departure-induced imbalance of 2, so one task must migrate.
        world.depart_task_at(SimTime::ZERO + SimDuration::from_millis(5), TaskId::new(1));
        world.depart_task_at(SimTime::ZERO + SimDuration::from_millis(6), TaskId::new(3));
        let report = world.run(SimDuration::from_millis(30));
        assert_eq!(report.migrations, 1, "one task moves to the empty device");
        let migrated = report.tasks.iter().find(|t| t.migrations > 0).unwrap();
        assert_eq!(migrated.device, DeviceId::new(1));
        assert!(
            migrated.rounds_completed() > 100,
            "migrated task must keep making progress ({} rounds)",
            migrated.rounds_completed()
        );
        for d in &report.devices {
            assert_eq!(d.tenants, 1, "{}: populations rebalanced", d.device);
        }
    }

    #[test]
    fn multi_device_worlds_are_deterministic() {
        let run = || {
            let mut world = multi_world(3, PlacementKind::FewestTenants);
            for i in 0..6 {
                world
                    .add_task(Box::new(FixedLoop::endless(format!("t{i}"), us(40), us(4))))
                    .unwrap();
            }
            world.spawn_task_for(
                SimTime::ZERO + SimDuration::from_millis(3),
                Box::new(FixedLoop::endless("visitor", us(200), us(0))),
                SimDuration::from_millis(10),
            );
            let r = world.run(SimDuration::from_millis(25));
            (
                r.compute_busy,
                r.tasks.iter().map(|t| t.rounds.clone()).collect::<Vec<_>>(),
                r.tasks.iter().map(|t| t.device).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_device_schedulers_are_independent() {
        // DFQ on a 2-device world: each device's scheduler only ever
        // sees its own tenants, and both keep their tasks progressing.
        let config = WorldConfig {
            topology: Topology::symmetric(2, GpuConfig::default()),
            ..WorldConfig::default()
        };
        let mut world = World::with_devices(config, PlacementKind::RoundRobin.build(), |_| {
            SchedulerKind::DisengagedFairQueueing.build(SchedParams::default())
        });
        for i in 0..4 {
            world
                .add_task(Box::new(FixedLoop::endless(
                    format!("t{i}"),
                    us(if i % 2 == 0 { 50 } else { 400 }),
                    us(0),
                )))
                .unwrap();
        }
        let report = world.run(SimDuration::from_millis(200));
        for t in &report.tasks {
            assert!(t.rounds_completed() > 50, "{} starved", t.name);
        }
        // Each device hosts one small + one large task.
        for d in 0..2u32 {
            let tenants: Vec<_> = report
                .tasks
                .iter()
                .filter(|t| t.device.raw() == d)
                .collect();
            assert_eq!(tenants.len(), 2);
        }
    }
}
