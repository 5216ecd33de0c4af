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
//! the policy is cost-aware. A single-device world behaves exactly as
//! the original single-GPU model — determinism tests enforce
//! byte-identical traces.
//!
//! # Where the state lives
//!
//! `World` is one struct; its `impl` is split by the state each file owns:
//!
//! - `mod.rs` — configuration, events, the task table, device slots,
//!   the event loop, task execution and engine dispatch, and the
//!   [`SimStats`] blocks, the world's only counters;
//! - `build.rs` — construction and [`World::reset`];
//! - `lifecycle.rs` — pending arrivals, placement, the one attach and
//!   detach, migration: where a task lives and each device's `residents`;
//! - `ctx.rs` — [`SchedCtx`](crate::sched::SchedCtx), the §6.1 policy
//!   interface;
//! - `recovery.rs` — faults, the watchdog, hot-remove/add and the parked
//!   set (the `Recovery` block);
//! - `report.rs` — the sampler (the `Sampler` block) and the run report.
//!
//! # The event loop
//!
//! Most events are one task's chain: the step after a `CpuWork` or an
//! `EndRound`, the `DeviceSubmit` of a store, the step after a
//! non-blocking submit. The handlers on that chain (`task_step`,
//! `attempt_submit` and `device_submit`) return their task's successor
//! instead of scheduling it, and the loop runs it in place when every
//! queued event is strictly later; otherwise it queues it as the
//! handler would have. This is exact. The successor is always the
//! handler's last schedule, so every queued key has a lower sequence
//! number than it would have taken: when each is also strictly later,
//! the successor is precisely the event the queue would have popped
//! next. A queued event at the very same instant fires first, which is
//! why the test is strict. The sequence number it never takes changes
//! no relative order, and it still sets `now` and counts one event.
//!
//! `engine_done` returns one more successor: the step that wakes the
//! completion's submitter. That step is not the handler's last
//! schedule, since the policy's `on_completion` and the engine pump
//! schedule after it. So the handler takes the step's sequence number
//! with [`EventQueue::reserve`] where it decides the wake, sets the
//! task's step token to it and marks the task ready: the callback, the
//! pump, a kill and `step_after`'s guard all see a pending step, as
//! they would a queued one. If the token is still that number after the
//! pump, the step is the successor. The loop runs it in place under the
//! same strict test, or files it under its reserved number
//! ([`EventQueue::schedule_reserved`]), where it ties exactly as a key
//! scheduled at the decision would. A kill in between cancels a token
//! that names no queued key, and the step is dropped.

mod build;
pub(crate) mod ctx;
mod lifecycle;
mod recovery;
mod report;

use neon_gpu::{
    ChannelId, DeviceId, EngineClass, Gpu, GpuConfig, RequestId, RequestKind, SubmitSpec, TaskId,
    Topology,
};
use neon_metrics::StreamingHistogram;
use neon_sim::{trace_event, DetRng, EventQueue, SimDuration, SimTime, Trace};

use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::placement::Placement;
use crate::rebalance::{Rebalance, RebalanceKind};
use crate::report::RunReport;
use crate::sched::{FaultDecision, Scheduler};
use crate::telemetry::{labels, MetricsMode, SimStats, StatKey, Timeline};
use crate::workload::{BoxedWorkload, QueueIndex, TaskAction};
use lifecycle::{Attach, Detach, PendingArrival};
use recovery::Recovery;
use report::Sampler;

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

/// A task handler's successor: the task's own next event and its
/// instant, which the event loop runs in place or queues (the module
/// doc's "event loop").
type Successor = Option<(SimTime, Event)>;

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
    /// Parked by the kernel after a fault, or displaced by a
    /// hot-remove; resumes on wake or restage.
    Parked,
    /// Exited or killed.
    Finished,
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
    // Fault-recovery state (dormant without a FaultPlan).
    /// Watchdog kill-and-requeue lineage depth (0 = original task).
    retries: u32,
    /// Re-admission attempts made while displaced by a hot-remove.
    park_retries: u32,
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
        fn cleared<T>(mut v: Vec<T>) -> Vec<T> {
            v.clear();
            v
        }
        TaskShell {
            channels: cleared(t.channels),
            rounds: cleared(t.rounds),
            submit_times: cleared(t.submit_times),
            service_times: cleared(t.service_times),
            service_kinds: cleared(t.service_kinds),
        }
    }
}

/// One device slot: the device plus the per-device kernel state (its
/// scheduler instance, page-protection table and engine bookkeeping).
struct DeviceSlot {
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
    /// Per-device structured counters: only events attributable to
    /// this device (rejections, faults, kills, preemptions, denials,
    /// sampling windows, migrations in/out, recovery).
    stats: SimStats,
    /// Working-set movement charged on this device (admission staging
    /// onto it, plus migration transfers landing here).
    transfer_stall: SimDuration,
    /// Compute-engine busy total at the previous sampler tick — the
    /// delta over the sampling period yields the utilization gauge.
    sampled_busy: SimDuration,
    /// When the device went offline, while it is hot-removed: an
    /// offline device dispatches nothing and admits no one; its
    /// residents drained away (or parked) at the removal instant.
    offline_since: Option<SimTime>,
    /// Total offline (degraded-capacity) time accumulated so far.
    offline_total: SimDuration,
    /// Engines wedged by an injected hang: the running request's
    /// completion event was cancelled, so the engine stays busy until
    /// the victim task is torn down.
    hung_engines: [bool; EngineClass::ALL.len()],
}

impl DeviceSlot {
    /// `true` unless the device is hot-removed.
    fn online(&self) -> bool {
        self.offline_since.is_none()
    }

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
    /// Run-wide structured counters — every counter the world keeps,
    /// handed to [`RunReport::stats`] at the end of the run.
    stats: SimStats,
    sampler: Sampler,
    recovery: Recovery,
    started: bool,
}

// A multi-host fleet runs its hosts' worlds on other threads (the
// `fleet` module doc's host lanes): a field that is not `Send` fails
// to compile here, where it is added.
const _: () = {
    const fn send<T: Send>() {}
    send::<World>();
};

impl World {
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

    /// Counts `key` in the run-wide stats and in device `dev`'s.
    fn note(&mut self, dev: usize, key: StatKey) {
        self.stats.bump(key);
        self.devices[dev].stats.bump(key);
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
        self.schedule_fault_plan();
        self.queue.schedule(SimTime::ZERO + horizon, Event::Horizon);

        'run: while let Some((mut at, mut event)) = self.queue.pop() {
            // A task's chain runs on here while each successor is the
            // next event (the module doc's inline rule).
            loop {
                self.now = at;
                self.stats.bump(StatKey::Events);
                let successor = match event {
                    Event::Horizon => break 'run,
                    Event::TaskStep(t) => self.task_step(t),
                    Event::DeviceSubmit(t) => self.device_submit(t),
                    Event::EngineDone(dev, class) => self.engine_done(dev.index(), class),
                    Event::Poll => {
                        self.stats.bump(StatKey::Polls);
                        for dev in 0..self.devices.len() {
                            self.dispatch_sched(dev, |s, ctx| s.on_poll(ctx));
                        }
                        let next = self.now + self.config.cost.polling_period;
                        self.queue.schedule(next, Event::Poll);
                        None
                    }
                    Event::SchedTimer(dev, tag) => {
                        self.dispatch_sched(dev.index(), |s, ctx| s.on_timer(ctx, tag));
                        None
                    }
                    Event::TaskArrival(idx) => {
                        self.task_arrival(idx);
                        None
                    }
                    Event::TaskDeparture(id) => {
                        if self.tasks.get(id.index()).is_some_and(|t| t.live) {
                            trace_event!(self.trace, self.now, labels::DEPART, "{id}");
                            self.detach(id, Detach::Exit);
                            self.maybe_rebalance();
                        }
                        None
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
                        None
                    }
                    Event::Fault(i) => {
                        self.inject_fault(i);
                        None
                    }
                    Event::Watchdog(dev) => {
                        self.watchdog_tick(dev.index());
                        None
                    }
                    Event::ParkRetry(id) => {
                        self.tasks[id.index()].park_token = None;
                        self.park_retry(id);
                        None
                    }
                };
                match successor {
                    Some(next) if self.queue.peek_time().is_none_or(|first| next.0 < first) => {
                        (at, event) = next;
                    }
                    Some((next_at, next)) => {
                        self.enqueue(next_at, next);
                        break;
                    }
                    None => break,
                }
            }
        }
        self.report(horizon)
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    /// Runs task `id`'s next workload action; returns the task's
    /// successor event, if the action leads to one.
    fn task_step(&mut self, id: TaskId) -> Successor {
        {
            let task = &mut self.tasks[id.index()];
            task.step_token = None;
            if !task.live {
                return None;
            }
            task.state = TaskState::Ready;
        }
        // A parked or capacity-stalled submission is retried first.
        if let Some((queue, spec)) = self.tasks[id.index()].pending_submit.take() {
            return self.attempt_submit(id, queue, spec);
        }
        let task = &mut self.tasks[id.index()];
        match task.workload.next_action(&mut task.rng) {
            TaskAction::CpuWork(d) => self.step_after(id, d.max(SimDuration::from_nanos(1))),
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
                    return None;
                }
                self.attempt_submit(id, queue, spec)
            }
            TaskAction::WaitAll => {
                if self.tasks[id.index()].outstanding == 0 {
                    self.step_after(id, SimDuration::from_nanos(1))
                } else {
                    self.tasks[id.index()].state = TaskState::WaitingAll;
                    None
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
                self.step_after(id, SimDuration::from_nanos(1))
            }
            TaskAction::Done => {
                self.detach(id, Detach::Exit);
                self.maybe_rebalance();
                None
            }
        }
    }

    /// Submission path: direct store or fault, per protection state.
    /// Returns the store's `DeviceSubmit` unless the attempt parks or
    /// fails.
    fn attempt_submit(&mut self, id: TaskId, queue: QueueIndex, spec: SubmitSpec) -> Successor {
        // An armed transient submission error consumes this attempt.
        // The recovery gate keeps this a single integer compare on
        // fault-free runs.
        if self.recovery.submit_errors_armed() && self.take_submit_error(id, queue, spec) {
            return None;
        }
        let dev = self.tasks[id.index()].device.index();
        let ch = self.tasks[id.index()].channels[queue];
        if self.devices[dev].protected[ch.index()] {
            self.note(dev, StatKey::Faults);
            self.tasks[id.index()].faults += 1;
            trace_event!(self.trace, self.now, labels::FAULT, "{id} on {ch}");
            let decision = self.dispatch_sched(dev, |s, ctx| s.on_fault(ctx, id, ch));
            match decision {
                FaultDecision::Allow => {
                    self.finish_submit(id, queue, spec, self.config.cost.fault_intercept)
                }
                FaultDecision::Park => {
                    let task = &mut self.tasks[id.index()];
                    task.pending_submit = Some((queue, spec));
                    task.state = TaskState::Parked;
                    None
                }
            }
        } else {
            self.stats.bump(StatKey::DirectSubmits);
            self.finish_submit(id, queue, spec, self.config.cost.direct_submit)
        }
    }

    /// Starts the submission's CPU phase (direct store or fault
    /// handling); the device sees the request at the returned
    /// `DeviceSubmit`, when it ends.
    fn finish_submit(
        &mut self,
        id: TaskId,
        queue: QueueIndex,
        spec: SubmitSpec,
        cpu: SimDuration,
    ) -> Successor {
        let task = &mut self.tasks[id.index()];
        debug_assert!(
            task.inflight_submit.is_none(),
            "submission already in flight"
        );
        task.inflight_submit = Some((queue, spec));
        Some((self.now + cpu, Event::DeviceSubmit(id)))
    }

    /// The channel-register write retires: the device accepts the
    /// request. Returns the submitter's next step unless it blocks.
    fn device_submit(&mut self, id: TaskId) -> Successor {
        let Some((queue, spec)) = self.tasks[id.index()].inflight_submit.take() else {
            return None; // task was killed while the store was in flight
        };
        if !self.tasks[id.index()].live {
            return None;
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
        if spec.blocking {
            self.tasks[id.index()].state = TaskState::BlockedOnRequest(rid);
            return None;
        }
        self.step_after(id, SimDuration::ZERO)
    }

    /// An engine finishes its request. Returns the step that wakes the
    /// submitter, under the `seq` reserved when the wake was decided, if
    /// the wake survives the policy's callback and the engine pump.
    fn engine_done(&mut self, dev: usize, class: EngineClass) -> Successor {
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
        // The step takes its place in schedule order now, as a queued
        // one would, so the callback and the pump see it pending.
        let step = if wake {
            self.step_after(id, detect)
        } else {
            None
        };
        let seq = step.map(|_| {
            let seq = self.queue.reserve();
            self.tasks[id.index()].step_token = Some(seq);
            seq
        });
        self.dispatch_sched(dev, |s, ctx| s.on_completion(ctx, &done));
        self.pump_engines(dev);
        // A kill in between took the token, and with it the step.
        step.filter(|_| self.tasks[id.index()].step_token == seq)
    }

    /// Dispatches idle engines of device `dev` onto pending work and
    /// schedules their completion events. An offline (hot-removed)
    /// device dispatches nothing; an engine wedged by an injected hang
    /// stays busy until its victim is torn down.
    fn pump_engines(&mut self, dev: usize) {
        if !self.devices[dev].online() {
            return;
        }
        for class in EngineClass::ALL {
            if self.devices[dev].engine_tokens[class as usize].is_some()
                || self.devices[dev].hung_engines[class as usize]
            {
                continue;
            }
            if let Some(outcome) = self.devices[dev].gpu.try_dispatch(self.now, class) {
                if self.recovery.hangs_armed() && self.wedge_if_armed(dev, class, &outcome) {
                    continue;
                }
                let token = self
                    .queue
                    .schedule(outcome.finish_at, Event::EngineDone(Dev::of(dev), class));
                self.devices[dev].engine_tokens[class as usize] = Some(token);
            }
        }
    }

    /// The engines of device `dev` whose running request belongs to
    /// task `id`, in [`EngineClass::ALL`] order.
    fn engines_running(&self, dev: usize, id: TaskId) -> impl Iterator<Item = EngineClass> {
        let gpu = &self.devices[dev].gpu;
        let runs = EngineClass::ALL.map(|c| gpu.running(c).is_some_and(|r| r.request.task == id));
        EngineClass::ALL
            .into_iter()
            .zip(runs)
            .filter_map(|(class, runs)| runs.then_some(class))
    }

    /// Cancels the pending completion event of device `dev`'s `class`
    /// engine, if one is scheduled.
    fn cancel_completion(&mut self, dev: usize, class: EngineClass) {
        if let Some(tok) = self.devices[dev].engine_tokens[class as usize].take() {
            self.queue.cancel(tok);
        }
    }

    /// Queues task `id`'s next step `delay` from now, unless one is
    /// already pending or the task is gone.
    fn schedule_step(&mut self, id: TaskId, delay: SimDuration) {
        if let Some((at, event)) = self.step_after(id, delay) {
            self.enqueue(at, event);
        }
    }

    /// Task `id`'s next step `delay` from now as a successor, under
    /// [`World::schedule_step`]'s guard: `None` if a step is already
    /// pending or the task is gone.
    fn step_after(&mut self, id: TaskId, delay: SimDuration) -> Successor {
        let task = &mut self.tasks[id.index()];
        if task.step_token.is_some() || !task.live {
            return None;
        }
        task.state = TaskState::Ready;
        Some((self.now + delay, Event::TaskStep(id)))
    }

    /// Queues a successor; a step keeps its token, so a kill, park or
    /// exit can cancel it. A step whose token is already set was
    /// reserved by [`World::engine_done`] and is filed under it.
    fn enqueue(&mut self, at: SimTime, event: Event) {
        let Event::TaskStep(id) = event else {
            self.queue.schedule(at, event);
            return;
        };
        let task = &mut self.tasks[id.index()];
        match task.step_token {
            Some(seq) => self.queue.schedule_reserved(at, seq, event),
            None => task.step_token = Some(self.queue.schedule(at, event)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementKind;
    use crate::sched::{DirectAccess, SchedulerKind};
    use crate::workload::FixedLoop;
    use crate::SchedParams;
    use neon_gpu::{DeviceSlotSpec, GpuError, InterconnectParams};

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
        assert_eq!(
            report.stats.get(StatKey::Faults),
            0,
            "direct access must not fault"
        );
        assert!(report.stats.get(StatKey::DirectSubmits) > 0);
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
        assert_eq!(report.stats.get(StatKey::RejectedAdmissions), 3);
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(
            report.devices[0].stats.get(StatKey::RejectedAdmissions),
            3,
            "refusals charged per device"
        );
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
        assert_eq!(report.stats.get(StatKey::RejectedAdmissions), 1);
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
        assert_eq!(report.stats.get(StatKey::RejectedAdmissions), 0);
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
        assert_eq!(report.devices[0].stats.get(StatKey::RejectedAdmissions), 1);
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
        assert_eq!(
            report.stats.get(StatKey::MigrationsIn),
            1,
            "one task moves to the empty device"
        );
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

    // ------------------------------------------------------------------
    // The event loop's inline rule
    // ------------------------------------------------------------------

    /// Replays a fixed list of actions on one compute queue, then exits.
    #[derive(Debug, Clone)]
    struct Script(Vec<TaskAction>);

    impl Script {
        fn boxed(actions: &[TaskAction]) -> BoxedWorkload {
            Box::new(Script(actions.iter().rev().copied().collect()))
        }
    }

    impl crate::workload::Workload for Script {
        fn name(&self) -> &str {
            "script"
        }
        fn queues(&self) -> Vec<RequestKind> {
            vec![RequestKind::Compute]
        }
        fn next_action(&mut self, _rng: &mut DetRng) -> TaskAction {
            self.0.pop().unwrap_or(TaskAction::Done)
        }
        fn box_clone(&self) -> BoxedWorkload {
            Box::new(self.clone())
        }
    }

    /// Protects every task and allows every fault, tracing each poll
    /// tick under `"poll"` and each timer under `"timer"`; with `kill`,
    /// it first kills the faulting task. `done` says what it does on a
    /// completion.
    struct Probe {
        kill: bool,
        done: OnDone,
    }

    /// A [`Probe`]'s completion callback.
    #[derive(Clone, Copy)]
    enum OnDone {
        Nothing,
        /// Arms a timer that fires exactly when the woken submitter's
        /// step is due.
        TimerAtWake,
        /// Kills the completing task.
        Kill,
    }

    impl Scheduler for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn init(&mut self, _ctx: &mut crate::sched::SchedCtx<'_>) {}
        fn on_task_admitted(&mut self, ctx: &mut crate::sched::SchedCtx<'_>, task: TaskId) {
            ctx.protect_task(task);
        }
        fn on_task_exit(&mut self, _ctx: &mut crate::sched::SchedCtx<'_>, _task: TaskId) {}
        fn on_fault(
            &mut self,
            ctx: &mut crate::sched::SchedCtx<'_>,
            task: TaskId,
            _channel: ChannelId,
        ) -> FaultDecision {
            if self.kill {
                ctx.kill_task(task);
            }
            FaultDecision::Allow
        }
        fn on_poll(&mut self, ctx: &mut crate::sched::SchedCtx<'_>) {
            ctx.trace_with("poll", String::new);
        }
        fn on_timer(&mut self, ctx: &mut crate::sched::SchedCtx<'_>, _tag: u32) {
            ctx.trace_with("timer", String::new);
        }
        fn on_completion(
            &mut self,
            ctx: &mut crate::sched::SchedCtx<'_>,
            done: &neon_gpu::CompletedRequest,
        ) {
            match self.done {
                OnDone::Nothing => {}
                OnDone::TimerAtWake => {
                    ctx.set_timer(WorldConfig::default().cost.completion_detect, 0);
                }
                OnDone::Kill => ctx.kill_task(done.task),
            }
        }
    }

    fn probe_world(kill: bool, scripts: &[&[TaskAction]]) -> World {
        probe_world_with(
            Probe {
                kill,
                done: OnDone::Nothing,
            },
            scripts,
        )
    }

    fn probe_world_with(probe: Probe, scripts: &[&[TaskAction]]) -> World {
        let mut world = World::new(WorldConfig::default(), Box::new(probe));
        world.trace.set_enabled(true);
        for script in scripts {
            world.add_task(Script::boxed(script)).unwrap();
        }
        world
    }

    fn submit() -> TaskAction {
        TaskAction::Submit {
            queue: 0,
            spec: SubmitSpec::compute(us(10)),
        }
    }

    /// `(label, detail)` of every trace entry at `at`, in order.
    fn traced_at(world: &World, at: SimTime) -> Vec<(&'static str, String)> {
        world
            .trace
            .iter()
            .filter(|e| e.at == at)
            .map(|e| (e.label, e.detail.clone()))
            .collect()
    }

    #[test]
    fn a_step_on_a_poll_instant_runs_after_the_poll() {
        // Task 0's step after its CpuWork lands on the first poll tick,
        // queued at start with a lower sequence number: the tick fires
        // first, then the step faults.
        let poll = WorldConfig::default().cost.polling_period;
        let mut world = probe_world(false, &[&[TaskAction::CpuWork(poll), submit()]]);
        world.run(SimDuration::from_millis(2));
        let order: Vec<_> = traced_at(&world, SimTime::ZERO + poll)
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        assert_eq!(order, ["poll", labels::FAULT]);
    }

    #[test]
    fn a_step_on_another_tasks_step_instant_runs_after_it() {
        // Task 1 starts one stagger after task 0, whose successor after
        // a CpuWork of one stagger lands on that very instant: task 1's
        // queued first step goes first.
        let mut world = probe_world(
            false,
            &[&[TaskAction::CpuWork(START_STAGGER), submit()], &[submit()]],
        );
        world.run(SimDuration::from_micros(500));
        let faults: Vec<_> = traced_at(&world, SimTime::ZERO + START_STAGGER)
            .into_iter()
            .map(|(label, detail)| {
                assert_eq!(label, labels::FAULT);
                detail
            })
            .collect();
        assert_eq!(faults.len(), 2, "{faults:?}");
        assert!(
            faults[0].starts_with(&TaskId::new(1).to_string()),
            "{faults:?}"
        );
        assert!(
            faults[1].starts_with(&TaskId::new(0).to_string()),
            "{faults:?}"
        );
    }

    #[test]
    fn a_step_at_the_horizon_instant_never_runs() {
        let horizon = us(50);
        let mut world = direct_world();
        world
            .add_task(Script::boxed(&[TaskAction::CpuWork(horizon), submit()]))
            .unwrap();
        let report = world.run(horizon);
        // The first step and the horizon; the step the horizon ties
        // with was queued after it and never fires.
        assert_eq!(report.stats.get(StatKey::Events), 2);
        assert_eq!(report.stats.get(StatKey::DirectSubmits), 0);
        assert_eq!(report.tasks[0].submitted_requests, 0);
    }

    #[test]
    fn a_store_of_a_task_killed_in_on_fault_does_nothing() {
        // The policy kills the task inside on_fault and still allows
        // the store; its DeviceSubmit, the next event, runs in place
        // and finds the task gone.
        let mut world = probe_world(true, &[&[submit(), submit()]]);
        let report = world.run(us(500));
        assert_eq!(
            traced_at(&world, SimTime::ZERO),
            [
                (
                    labels::FAULT,
                    format!("{} on {}", TaskId::new(0), ChannelId::new(0))
                ),
                (labels::KILL, TaskId::new(0).to_string()),
            ]
        );
        // The step, the store and the horizon.
        assert_eq!(report.stats.get(StatKey::Events), 3);
        let task = &report.tasks[0];
        assert!(task.killed);
        assert_eq!((task.submitted_requests, task.completed_requests), (0, 0));
        assert_eq!(report.compute_busy, SimDuration::ZERO);
        assert_eq!(world.devices[0].gpu.queued_requests(), 0);
    }

    #[test]
    fn a_woken_step_runs_before_a_timer_armed_for_its_instant() {
        // The completion wakes the blocked submitter one detection
        // latency later, and on_completion arms a timer for that very
        // instant. The wake was decided before the callback, so the
        // step goes first and faults on its second store.
        let probe = Probe {
            kill: false,
            done: OnDone::TimerAtWake,
        };
        let mut world = probe_world_with(probe, &[&[submit(), submit()]]);
        world.run(us(500));
        let timers: Vec<SimTime> = world
            .trace
            .iter()
            .filter(|e| e.label == "timer")
            .map(|e| e.at)
            .collect();
        assert_eq!(timers.len(), 2, "one timer per completion");
        let order: Vec<_> = traced_at(&world, timers[0])
            .into_iter()
            .map(|(label, _)| label)
            .collect();
        assert_eq!(order, [labels::FAULT, "timer"]);
    }

    #[test]
    fn a_task_killed_in_on_completion_never_steps_again() {
        // The completion decides to wake the submitter, then the policy
        // kills it: the wake must not run.
        let probe = Probe {
            kill: false,
            done: OnDone::Kill,
        };
        let mut world = probe_world_with(probe, &[&[submit(), submit()]]);
        let report = world.run(us(500));
        let faults = world.trace.iter().filter(|e| e.label == labels::FAULT);
        assert_eq!(faults.count(), 1, "only the first store faults");
        // The step, the store, the completion and the horizon.
        assert_eq!(report.stats.get(StatKey::Events), 4);
        let task = &report.tasks[0];
        assert!(task.killed);
        assert_eq!((task.submitted_requests, task.completed_requests), (1, 1));
    }
}
