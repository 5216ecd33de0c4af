//! The accelerator device: contexts, channels, engines and arbitration.
//!
//! [`Gpu`] is the passive device model. The simulation driver owns the
//! clock: it calls [`Gpu::submit`] when a task writes a channel
//! register, [`Gpu::try_dispatch`] when an engine may pick up work (the
//! returned finish time becomes a completion event), and
//! [`Gpu::complete_running`] when that event fires.
//!
//! Arbitration is weighted round-robin over channels with pending
//! requests — the behaviour the paper reverse-engineered and the very
//! mechanism that makes direct device access unfair: a channel with
//! larger requests receives proportionally more device time.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use neon_sim::{SimDuration, SimTime};

use crate::channel::Channel;
use crate::config::GpuConfig;
use crate::engine::{Engine, EngineClass, RunningRequest};
use crate::ids::{ChannelId, ContextId, DeviceId, RequestId, TaskId};
use crate::request::{Request, RequestKind, SubmitSpec};

/// Errors surfaced by the device interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuError {
    /// All device contexts are in use (the §6.3 DoS condition).
    OutOfContexts,
    /// All device channels are in use (the §6.3 DoS condition).
    OutOfChannels,
    /// The channel's ring buffer is full.
    RingFull(ChannelId),
    /// No such channel exists.
    NoSuchChannel(ChannelId),
    /// The channel has been destroyed.
    ChannelDestroyed(ChannelId),
    /// No such context exists.
    NoSuchContext(ContextId),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfContexts => write!(f, "device out of contexts"),
            GpuError::OutOfChannels => write!(f, "device out of channels"),
            GpuError::RingFull(ch) => write!(f, "ring buffer full on {ch}"),
            GpuError::NoSuchChannel(ch) => write!(f, "no such channel {ch}"),
            GpuError::ChannelDestroyed(ch) => write!(f, "channel {ch} destroyed"),
            GpuError::NoSuchContext(ctx) => write!(f, "no such context {ctx}"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Result of an engine picking up a request.
#[derive(Debug, Clone, Copy)]
pub struct DispatchOutcome {
    /// The request now executing.
    pub request: Request,
    /// When the engine finishes it ([`SimTime::MAX`] if unbounded). The
    /// driver schedules the completion event at this instant.
    pub finish_at: SimTime,
}

/// Result of a request completing.
#[derive(Debug, Clone, Copy)]
pub struct CompletedRequest {
    /// The request that finished.
    pub request: Request,
    /// The submitting task (convenience copy of `request.task`).
    pub task: TaskId,
    /// When execution proper began.
    pub started_at: SimTime,
    /// When it finished.
    pub finished_at: SimTime,
    /// Queueing delay between submission and execution start.
    pub wait: SimDuration,
    /// Device occupancy charged to the task (context switch + service).
    pub occupancy: SimDuration,
}

/// Result of tearing down a task's device state (exit or kill).
#[derive(Debug, Clone, Default)]
pub struct AbortSummary {
    /// Queued requests discarded.
    pub dropped_requests: usize,
    /// Channels destroyed.
    pub destroyed_channels: usize,
    /// Engines whose in-flight request was aborted; the driver must
    /// cancel the corresponding completion events and re-dispatch.
    pub aborted_engines: Vec<EngineClass>,
}

/// A round-robin rotation of channels with pending work. Channels
/// leave the rotation when their queue empties (or they are disabled or
/// destroyed) and re-enter on submission (or re-enabling). Invariant:
/// every entry is an active, enabled channel with queued work, and
/// appears once.
#[derive(Debug, Default)]
struct Rotation {
    order: VecDeque<ChannelId>,
}

/// The modeled accelerator.
///
/// Channel ids are never reused, so the channel table keeps every
/// channel ever created. Nothing that runs per request, per poll or per
/// task exit walks that table; three indexes answer instead:
///
/// - the *usage ledger*, the ground truth the schedulers cannot see:
///   the device time each task has occupied, read through
///   [`Gpu::usage_of`] by the end-of-run report and by
///   vendor-statistics DFQ. Every completion, preemption and teardown
///   abort charges it with one indexed add;
/// - each task's *active channels*, beside the ledger, which serve
///   [`Gpu::channels_of`] and [`Gpu::destroy_task`];
/// - a count of the *queued requests*, for [`Gpu::queued_requests`].
///
/// [`Gpu::is_fully_drained`] reads the three arbitration rotations,
/// which hold exactly the enabled channels with queued work.
pub struct Gpu {
    id: DeviceId,
    config: GpuConfig,
    channels: Vec<Channel>,
    contexts: BTreeMap<ContextId, TaskId>,
    next_context: u32,
    live_contexts: usize,
    live_channels: usize,
    compute_engine: Engine,
    dma_engine: Engine,
    compute_rotation: Rotation,
    graphics_rotation: Rotation,
    dma_rotation: Rotation,
    next_request: u64,
    /// Graphics channels rest until this instant while compute work is
    /// pending (set after each graphics completion).
    graphics_blocked_until: SimTime,
    /// The usage ledger: ground-truth cumulative device occupancy per
    /// task (both engines), indexed by [`TaskId::index`]. Task ids are
    /// dense within a world, so a `Vec` grown in
    /// [`Gpu::create_context`] holds every task that can own a request
    /// here, and charging a completion is one indexed add rather than a
    /// map walk. A task that never had a context here reads zero, and
    /// its entry (present or not) outlives the task's teardown, since
    /// the end-of-run report reads it.
    usage: Vec<SimDuration>,
    /// Each task's active channels, in id order, indexed like `usage`.
    /// A task's list is emptied when [`Gpu::destroy_task`] tears it
    /// down.
    task_channels: Vec<Vec<ChannelId>>,
    /// Requests queued across all channels, running ones not counted.
    queued: usize,
    /// Total requests completed, for sanity accounting.
    completed_requests: u64,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("live_contexts", &self.live_contexts)
            .field("live_channels", &self.live_channels)
            .field("completed_requests", &self.completed_requests)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a device with the given configuration (device id 0; a
    /// single-device host).
    pub fn new(config: GpuConfig) -> Self {
        Gpu::with_id(DeviceId::new(0), config)
    }

    /// Creates a device with an explicit id, for multi-device hosts.
    pub fn with_id(id: DeviceId, config: GpuConfig) -> Self {
        Gpu {
            id,
            config,
            channels: Vec::new(),
            contexts: BTreeMap::new(),
            next_context: 0,
            live_contexts: 0,
            live_channels: 0,
            compute_engine: Engine::default(),
            dma_engine: Engine::default(),
            compute_rotation: Rotation::default(),
            graphics_rotation: Rotation::default(),
            dma_rotation: Rotation::default(),
            next_request: 0,
            graphics_blocked_until: SimTime::ZERO,
            usage: Vec::new(),
            task_channels: Vec::new(),
            queued: 0,
            completed_requests: 0,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// This device's id within its host.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    // ------------------------------------------------------------------
    // Resource allocation
    // ------------------------------------------------------------------

    /// Allocates a GPU context for `task`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfContexts`] if the device context table is full —
    /// exactly the condition a channel-hoarding attacker triggers.
    pub fn create_context(&mut self, task: TaskId) -> Result<ContextId, GpuError> {
        if self.live_contexts >= self.config.total_contexts {
            return Err(GpuError::OutOfContexts);
        }
        let ctx = ContextId::new(self.next_context);
        self.next_context += 1;
        self.contexts.insert(ctx, task);
        if self.usage.len() <= task.index() {
            self.usage.resize(task.index() + 1, SimDuration::ZERO);
            self.task_channels.resize_with(task.index() + 1, Vec::new);
        }
        self.live_contexts += 1;
        Ok(ctx)
    }

    /// Allocates a channel of the given kind inside `ctx`.
    ///
    /// # Errors
    ///
    /// [`GpuError::NoSuchContext`] if `ctx` is unknown;
    /// [`GpuError::OutOfChannels`] if the device channel table is full.
    pub fn create_channel(
        &mut self,
        ctx: ContextId,
        kind: RequestKind,
    ) -> Result<ChannelId, GpuError> {
        let &task = self
            .contexts
            .get(&ctx)
            .ok_or(GpuError::NoSuchContext(ctx))?;
        if self.live_channels >= self.config.total_channels {
            return Err(GpuError::OutOfChannels);
        }
        let id = ChannelId::from_index(self.channels.len());
        self.channels
            .push(Channel::new(id, ctx, task, kind, self.config.ring_capacity));
        self.task_channels[task.index()].push(id);
        self.live_channels += 1;
        Ok(id)
    }

    /// Number of contexts currently allocated.
    pub fn contexts_in_use(&self) -> usize {
        self.live_contexts
    }

    /// Number of channels currently allocated.
    pub fn channels_in_use(&self) -> usize {
        self.live_channels
    }

    /// Contexts still allocatable before [`GpuError::OutOfContexts`].
    pub fn free_contexts(&self) -> usize {
        self.config
            .total_contexts
            .saturating_sub(self.live_contexts)
    }

    /// Channels still allocatable before [`GpuError::OutOfChannels`].
    pub fn free_channels(&self) -> usize {
        self.config
            .total_channels
            .saturating_sub(self.live_channels)
    }

    // ------------------------------------------------------------------
    // Submission (channel-register write)
    // ------------------------------------------------------------------

    /// Submits a request on `ch` at `now`; models the user-space write
    /// to the channel register. Returns the request id and its
    /// per-channel reference number.
    ///
    /// # Errors
    ///
    /// [`GpuError::NoSuchChannel`], [`GpuError::ChannelDestroyed`], or
    /// [`GpuError::RingFull`].
    #[inline]
    pub fn submit(
        &mut self,
        now: SimTime,
        ch: ChannelId,
        spec: SubmitSpec,
    ) -> Result<(RequestId, u64), GpuError> {
        let channel = self
            .channels
            .get_mut(ch.index())
            .ok_or(GpuError::NoSuchChannel(ch))?;
        if !channel.is_active() {
            return Err(GpuError::ChannelDestroyed(ch));
        }
        if channel.is_full() {
            return Err(GpuError::RingFull(ch));
        }
        let id = RequestId::new(self.next_request);
        self.next_request += 1;
        let task = channel.task();
        let context = channel.context();
        let was_empty = channel.is_quiesced();
        let reference = channel.enqueue(now, |reference| Request {
            id,
            task,
            context,
            channel: ch,
            kind: spec.kind,
            service: spec.service,
            blocking: spec.blocking,
            submitted_at: now,
            reference,
        });
        if was_empty && channel.is_enabled() {
            let kind = channel.kind();
            self.rotation_for(kind).order.push_back(ch);
        }
        self.queued += 1;
        Ok((id, reference))
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// If `engine` is idle and work is pending, starts the next request
    /// per weighted round-robin and returns its completion time.
    #[inline]
    pub fn try_dispatch(&mut self, now: SimTime, engine: EngineClass) -> Option<DispatchOutcome> {
        if !self.engine(engine).is_idle() {
            return None;
        }
        let ch = self.pick_next_channel(now, engine)?;
        let request = self.channels[ch.index()]
            .pop_front()
            // lint: allow(unchecked-unwrap) — channels enter the submit
            // rotation only while they hold queued work
            .expect("rotation pointed at empty channel");
        self.queued -= 1;
        let switch = self.config.context_switch;
        let finish_at = self.engine_mut(engine).start(now, request, switch);
        Some(DispatchOutcome { request, finish_at })
    }

    /// Completes the in-flight request on `engine` at `now`: writes the
    /// channel's reference counter and charges the task's usage.
    ///
    /// # Panics
    ///
    /// Panics if the engine is idle (a stale completion event — driver
    /// bugs, not runtime conditions).
    #[inline]
    pub fn complete_running(&mut self, now: SimTime, engine: EngineClass) -> CompletedRequest {
        let run = self.engine_mut(engine).finish(now);
        let request = run.request;
        let channel = &mut self.channels[request.channel.index()];
        if channel.is_active() {
            channel.record_completion(request.reference);
        }
        let occupancy = now.saturating_duration_since(run.dispatched_at);
        self.usage[request.task.index()] += occupancy;
        self.completed_requests += 1;
        if request.kind == RequestKind::Graphics {
            self.graphics_blocked_until = now + self.config.graphics_cooldown;
        }
        CompletedRequest {
            request,
            task: request.task,
            started_at: run.started_at,
            finished_at: now,
            wait: run
                .started_at
                .saturating_duration_since(request.submitted_at),
            occupancy,
        }
    }

    /// The request currently running on `engine`, if any.
    pub fn running(&self, engine: EngineClass) -> Option<&RunningRequest> {
        self.engine(engine).running()
    }

    /// Masks a channel on or off from engine arbitration (OS-level
    /// suspension, the §6.2 preemption substrate). Re-enabling a
    /// channel with queued work puts it back into rotation.
    pub fn set_channel_enabled(&mut self, ch: ChannelId, enabled: bool) {
        let Some(channel) = self.channels.get_mut(ch.index()) else {
            return;
        };
        if channel.is_enabled() == enabled {
            return;
        }
        channel.set_enabled(enabled);
        let kind = channel.kind();
        let has_work = !channel.is_quiesced();
        if has_work {
            let rot = self.rotation_for(kind);
            if enabled {
                rot.order.push_back(ch);
            } else if let Some(pos) = rot.order.iter().position(|c| *c == ch) {
                rot.order.remove(pos);
            }
        }
    }

    /// Preempts the request running on `engine` (§6.2 hardware
    /// preemption): execution stops, the elapsed time is charged to
    /// the task, and the remainder is requeued at the head of its
    /// channel with its reference number intact. Returns the preempted
    /// request, or `None` if the engine was idle.
    pub fn preempt_running(&mut self, now: SimTime, engine: EngineClass) -> Option<Request> {
        let run = self.engine_mut(engine).abort(now)?;
        let elapsed = now.saturating_duration_since(run.dispatched_at);
        self.usage[run.request.task.index()] += elapsed;
        let consumed = now.saturating_duration_since(run.started_at);
        let mut remainder = run.request;
        if remainder.service != SimDuration::MAX {
            remainder.service = remainder.service.saturating_sub(consumed);
        }
        let channel = &mut self.channels[remainder.channel.index()];
        if channel.is_active() {
            let was_empty = channel.is_quiesced();
            channel.requeue_front(remainder);
            self.queued += 1;
            if was_empty && channel.is_enabled() {
                let kind = channel.kind();
                self.rotation_for(kind).order.push_back(remainder.channel);
            }
        }
        Some(remainder)
    }

    /// Tears down all device state owned by `task`: queued requests are
    /// dropped, channels destroyed, in-flight requests aborted. Models
    /// the driver's exit protocol after a process kill.
    pub fn destroy_task(&mut self, now: SimTime, task: TaskId) -> AbortSummary {
        let mut summary = AbortSummary::default();
        let owned = self
            .task_channels
            .get_mut(task.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for ch in owned {
            let channel = &mut self.channels[ch.index()];
            let dropped = channel.destroy();
            let kind = channel.kind();
            summary.dropped_requests += dropped;
            summary.destroyed_channels += 1;
            self.queued -= dropped;
            self.live_channels -= 1;
            let rot = self.rotation_for(kind);
            if let Some(pos) = rot.order.iter().position(|&c| c == ch) {
                rot.order.remove(pos);
            }
        }
        let owned_contexts: Vec<ContextId> = self
            .contexts
            .iter()
            .filter(|&(_, &t)| t == task)
            .map(|(&c, _)| c)
            .collect();
        for ctx in owned_contexts {
            self.contexts.remove(&ctx);
            self.live_contexts -= 1;
        }
        for class in EngineClass::ALL {
            let aborted_occupancy = {
                let engine = self.engine(class);
                match engine.running() {
                    Some(run) if run.request.task == task => {
                        Some(now.saturating_duration_since(run.dispatched_at))
                    }
                    _ => None,
                }
            };
            if let Some(occupancy) = aborted_occupancy {
                self.engine_mut(class).abort(now);
                self.usage[task.index()] += occupancy;
                summary.aborted_engines.push(class);
            }
        }
        summary
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Read access to a channel's shared-memory state.
    pub fn channel(&self, ch: ChannelId) -> Option<&Channel> {
        self.channels.get(ch.index())
    }

    /// All channels ever created (including destroyed ones).
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// The arbitration rotation of `kind`'s channels, head first: the
    /// enabled channels with queued work, each once.
    pub fn rotation(&self, kind: RequestKind) -> impl Iterator<Item = ChannelId> + '_ {
        let rot = match kind {
            RequestKind::Compute => &self.compute_rotation,
            RequestKind::Graphics => &self.graphics_rotation,
            RequestKind::Dma => &self.dma_rotation,
        };
        rot.order.iter().copied()
    }

    /// Active channels belonging to `task`, in id order. O(the task's
    /// channels).
    pub fn channels_of(&self, task: TaskId) -> impl Iterator<Item = &Channel> {
        self.task_channels
            .get(task.index())
            .into_iter()
            .flatten()
            .map(|ch| &self.channels[ch.index()])
    }

    /// `true` if nothing is queued on an *enabled* channel or running
    /// on an engine. Work parked on OS-disabled (suspended) channels
    /// does not block a barrier: it cannot be dispatched. The rotations
    /// hold exactly the enabled channels with queued work, so they are
    /// empty.
    pub fn is_fully_drained(&self) -> bool {
        self.compute_engine.is_idle()
            && self.dma_engine.is_idle()
            && self.compute_rotation.order.is_empty()
            && self.graphics_rotation.order.is_empty()
            && self.dma_rotation.order.is_empty()
    }

    /// Ground-truth cumulative occupancy charged to `task`.
    pub fn usage_of(&self, task: TaskId) -> SimDuration {
        self.usage
            .get(task.index())
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Ground-truth busy time of an engine.
    pub fn engine_busy(&self, engine: EngineClass) -> SimDuration {
        self.engine(engine).busy()
    }

    /// Total requests completed since device creation.
    pub fn completed_requests(&self) -> u64 {
        self.completed_requests
    }

    /// Total requests queued across all channels (not counting running).
    pub fn queued_requests(&self) -> usize {
        self.queued
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn engine(&self, class: EngineClass) -> &Engine {
        match class {
            EngineClass::Compute => &self.compute_engine,
            EngineClass::Dma => &self.dma_engine,
        }
    }

    #[inline]
    fn engine_mut(&mut self, class: EngineClass) -> &mut Engine {
        match class {
            EngineClass::Compute => &mut self.compute_engine,
            EngineClass::Dma => &mut self.dma_engine,
        }
    }

    #[inline]
    fn rotation_for(&mut self, kind: RequestKind) -> &mut Rotation {
        match kind {
            RequestKind::Compute => &mut self.compute_rotation,
            RequestKind::Graphics => &mut self.graphics_rotation,
            RequestKind::Dma => &mut self.dma_rotation,
        }
    }

    /// Pops the head of a rotation for service, keeping the channel in
    /// the rotation (at the back) if more requests remain queued.
    #[inline]
    fn take_head(rot: &mut Rotation, channels: &[Channel]) -> Option<ChannelId> {
        let head = rot.order.pop_front()?;
        if channels[head.index()].queued() > 1 {
            rot.order.push_back(head);
        }
        Some(head)
    }

    /// Next channel to service.
    ///
    /// The compute engine round-robins among compute channels; a
    /// graphics channel is serviced when no compute work is pending or
    /// once the post-graphics cooldown has elapsed
    /// ([`GpuConfig::graphics_cooldown`]). This reproduces the §5.3
    /// observation that graphics requests complete at a fraction of a
    /// small-request compute co-runner's rate, with the disparity
    /// vanishing for large co-runner requests.
    #[inline]
    fn pick_next_channel(&mut self, now: SimTime, class: EngineClass) -> Option<ChannelId> {
        if class == EngineClass::Dma {
            return Self::take_head(&mut self.dma_rotation, &self.channels);
        }
        let compute_pending = !self.compute_rotation.order.is_empty();
        let graphics_due = !compute_pending || now >= self.graphics_blocked_until;
        if graphics_due {
            if let Some(ch) = Self::take_head(&mut self.graphics_rotation, &self.channels) {
                return Some(ch);
            }
        }
        if let Some(ch) = Self::take_head(&mut self.compute_rotation, &self.channels) {
            return Some(ch);
        }
        Self::take_head(&mut self.graphics_rotation, &self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn setup_two_tasks() -> (Gpu, ChannelId, ChannelId) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let t0 = TaskId::new(0);
        let t1 = TaskId::new(1);
        let c0 = gpu.create_context(t0).unwrap();
        let c1 = gpu.create_context(t1).unwrap();
        let ch0 = gpu.create_channel(c0, RequestKind::Compute).unwrap();
        let ch1 = gpu.create_channel(c1, RequestKind::Compute).unwrap();
        (gpu, ch0, ch1)
    }

    /// Drives the compute engine until nothing is pending; returns the
    /// completion order as (task, finished_at).
    fn drain_compute(gpu: &mut Gpu, mut now: SimTime) -> Vec<(TaskId, SimTime)> {
        let mut done = Vec::new();
        while let Some(d) = gpu.try_dispatch(now, EngineClass::Compute) {
            let completed = gpu.complete_running(d.finish_at, EngineClass::Compute);
            now = d.finish_at;
            done.push((completed.task, completed.finished_at));
        }
        done
    }

    #[test]
    fn device_identity_and_free_capacity_track_allocation() {
        let mut gpu = Gpu::with_id(
            DeviceId::new(3),
            GpuConfig {
                total_contexts: 2,
                total_channels: 4,
                ..GpuConfig::default()
            },
        );
        assert_eq!(gpu.id(), DeviceId::new(3));
        assert_eq!(Gpu::new(GpuConfig::default()).id(), DeviceId::new(0));
        assert_eq!((gpu.free_contexts(), gpu.free_channels()), (2, 4));
        let ctx = gpu.create_context(TaskId::new(0)).unwrap();
        gpu.create_channel(ctx, RequestKind::Compute).unwrap();
        assert_eq!((gpu.free_contexts(), gpu.free_channels()), (1, 3));
        gpu.destroy_task(SimTime::ZERO, TaskId::new(0));
        assert_eq!((gpu.free_contexts(), gpu.free_channels()), (2, 4));
    }

    #[test]
    fn context_and_channel_limits_enforced() {
        let mut gpu = Gpu::new(GpuConfig {
            total_contexts: 2,
            total_channels: 3,
            ..GpuConfig::default()
        });
        let t = TaskId::new(0);
        let c0 = gpu.create_context(t).unwrap();
        let _c1 = gpu.create_context(t).unwrap();
        assert_eq!(gpu.create_context(t), Err(GpuError::OutOfContexts));

        gpu.create_channel(c0, RequestKind::Compute).unwrap();
        gpu.create_channel(c0, RequestKind::Dma).unwrap();
        gpu.create_channel(c0, RequestKind::Compute).unwrap();
        assert_eq!(
            gpu.create_channel(c0, RequestKind::Compute),
            Err(GpuError::OutOfChannels)
        );
        assert_eq!(gpu.channels_in_use(), 3);
    }

    #[test]
    fn submit_assigns_monotonic_references() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        let (_, r1) = gpu
            .submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        let (_, r2) = gpu
            .submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        assert_eq!((r1, r2), (1, 2));
    }

    #[test]
    fn round_robin_alternates_between_equal_channels() {
        let (mut gpu, ch0, ch1) = setup_two_tasks();
        for _ in 0..3 {
            gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
                .unwrap();
            gpu.submit(SimTime::ZERO, ch1, SubmitSpec::compute(us(10)))
                .unwrap();
        }
        let order: Vec<u32> = drain_compute(&mut gpu, SimTime::ZERO)
            .iter()
            .map(|(t, _)| t.raw())
            .collect();
        // Plain round-robin among compute channels.
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn larger_requests_get_proportionally_more_time() {
        // The direct-access unfairness at the heart of the paper: equal
        // request *counts* per rotation mean unequal device *time*.
        let (mut gpu, ch0, ch1) = setup_two_tasks();
        for _ in 0..4 {
            gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(100)))
                .unwrap();
            gpu.submit(SimTime::ZERO, ch1, SubmitSpec::compute(us(10)))
                .unwrap();
        }
        drain_compute(&mut gpu, SimTime::ZERO);
        let u0 = gpu.usage_of(TaskId::new(0));
        let u1 = gpu.usage_of(TaskId::new(1));
        let ratio = u0.ratio(u1);
        assert!(
            ratio > 5.0,
            "large-request task should dominate, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn graphics_rests_for_the_cooldown_between_services() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let t0 = TaskId::new(0);
        let t1 = TaskId::new(1);
        let c0 = gpu.create_context(t0).unwrap();
        let c1 = gpu.create_context(t1).unwrap();
        let compute = gpu.create_channel(c0, RequestKind::Compute).unwrap();
        let graphics = gpu.create_channel(c1, RequestKind::Graphics).unwrap();
        for _ in 0..12 {
            gpu.submit(SimTime::ZERO, compute, SubmitSpec::compute(us(10)))
                .unwrap();
        }
        for _ in 0..3 {
            gpu.submit(
                SimTime::ZERO,
                graphics,
                SubmitSpec::graphics(us(10)).nonblocking(),
            )
            .unwrap();
        }
        let done = drain_compute(&mut gpu, SimTime::ZERO);
        assert_eq!(done.len(), 15, "all requests complete (no starvation)");
        // Between two graphics services the engine runs ≥50µs of
        // compute (the cooldown): with 10µs compute requests, at least
        // five compute completions separate consecutive graphics ones.
        let graphics_positions: Vec<usize> = done
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| *t == t1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(graphics_positions.len(), 3);
        for pair in graphics_positions.windows(2) {
            assert!(
                pair[1] - pair[0] >= 5,
                "graphics served too often: positions {graphics_positions:?}"
            );
        }
    }

    #[test]
    fn graphics_served_immediately_when_no_compute_pending() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let ctx = gpu.create_context(TaskId::new(0)).unwrap();
        let graphics = gpu.create_channel(ctx, RequestKind::Graphics).unwrap();
        gpu.submit(
            SimTime::ZERO,
            graphics,
            SubmitSpec::graphics(us(10)).nonblocking(),
        )
        .unwrap();
        let d = gpu.try_dispatch(SimTime::ZERO, EngineClass::Compute);
        assert!(d.is_some(), "idle device must serve graphics at once");
    }

    #[test]
    fn dma_overlaps_compute() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let t = TaskId::new(0);
        let ctx = gpu.create_context(t).unwrap();
        let cch = gpu.create_channel(ctx, RequestKind::Compute).unwrap();
        let dch = gpu.create_channel(ctx, RequestKind::Dma).unwrap();
        gpu.submit(SimTime::ZERO, cch, SubmitSpec::compute(us(100)))
            .unwrap();
        gpu.submit(SimTime::ZERO, dch, SubmitSpec::dma(us(100)))
            .unwrap();
        let dc = gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        let dd = gpu.try_dispatch(SimTime::ZERO, EngineClass::Dma).unwrap();
        // Both engines run concurrently.
        assert!(gpu.running(EngineClass::Compute).is_some());
        assert!(gpu.running(EngineClass::Dma).is_some());
        gpu.complete_running(dc.finish_at, EngineClass::Compute);
        gpu.complete_running(dd.finish_at, EngineClass::Dma);
        assert!(gpu.is_fully_drained());
    }

    #[test]
    fn completion_updates_reference_counter_and_usage() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(50)))
            .unwrap();
        let d = gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        let done = gpu.complete_running(d.finish_at, EngineClass::Compute);
        assert_eq!(gpu.channel(ch0).unwrap().completed_reference(), 1);
        // Occupancy = 4µs context switch + 50µs service.
        assert_eq!(done.occupancy, us(54));
        assert_eq!(gpu.usage_of(TaskId::new(0)), us(54));
        assert!(gpu.channel(ch0).unwrap().drained());
    }

    #[test]
    fn wait_time_measures_queue_delay() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(50)))
            .unwrap();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(50)))
            .unwrap();
        let d1 = gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        let c1 = gpu.complete_running(d1.finish_at, EngineClass::Compute);
        assert_eq!(c1.wait, us(4), "first request waits only for the switch");
        let d2 = gpu
            .try_dispatch(d1.finish_at, EngineClass::Compute)
            .unwrap();
        let c2 = gpu.complete_running(d2.finish_at, EngineClass::Compute);
        assert_eq!(c2.wait, us(54), "second request waited behind the first");
    }

    #[test]
    fn destroy_task_drops_work_and_aborts_running() {
        let (mut gpu, ch0, ch1) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::infinite_loop())
            .unwrap();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        gpu.submit(SimTime::ZERO, ch1, SubmitSpec::compute(us(10)))
            .unwrap();
        let d = gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        assert_eq!(d.finish_at, SimTime::MAX);

        let summary = gpu.destroy_task(SimTime::from_micros(500), TaskId::new(0));
        assert_eq!(summary.dropped_requests, 1);
        assert_eq!(summary.destroyed_channels, 1);
        assert_eq!(summary.aborted_engines, vec![EngineClass::Compute]);
        // The other task's work is untouched and dispatchable.
        let d2 = gpu
            .try_dispatch(SimTime::from_micros(500), EngineClass::Compute)
            .unwrap();
        assert_eq!(d2.request.task, TaskId::new(1));
        // Killed task's usage includes the partial execution.
        assert_eq!(gpu.usage_of(TaskId::new(0)), us(500));
    }

    #[test]
    fn submit_on_destroyed_channel_errors() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.destroy_task(SimTime::ZERO, TaskId::new(0));
        assert_eq!(
            gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(1))),
            Err(GpuError::ChannelDestroyed(ch0))
        );
    }

    #[test]
    fn ring_full_reported() {
        let mut gpu = Gpu::new(GpuConfig {
            ring_capacity: 2,
            ..GpuConfig::default()
        });
        let ctx = gpu.create_context(TaskId::new(0)).unwrap();
        let ch = gpu.create_channel(ctx, RequestKind::Compute).unwrap();
        gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(us(1)))
            .unwrap();
        gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(us(1)))
            .unwrap();
        assert_eq!(
            gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(us(1))),
            Err(GpuError::RingFull(ch))
        );
    }

    #[test]
    fn usage_sums_to_engine_busy() {
        let (mut gpu, ch0, ch1) = setup_two_tasks();
        for i in 0..5 {
            gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10 + i)))
                .unwrap();
            gpu.submit(SimTime::ZERO, ch1, SubmitSpec::compute(us(20 + i)))
                .unwrap();
        }
        drain_compute(&mut gpu, SimTime::ZERO);
        let total = gpu.usage_of(TaskId::new(0)) + gpu.usage_of(TaskId::new(1));
        assert_eq!(total, gpu.engine_busy(EngineClass::Compute));
    }

    #[test]
    fn usage_ledger_keeps_a_dense_total_per_task() {
        let mut gpu = Gpu::new(GpuConfig::default());
        assert_eq!(gpu.usage_of(TaskId::new(0)), SimDuration::ZERO);
        // Two tasks with a gap between their ids.
        let (t2, t7) = (TaskId::new(2), TaskId::new(7));
        let c2 = gpu.create_context(t2).unwrap();
        let c7 = gpu.create_context(t7).unwrap();
        let ch2 = gpu.create_channel(c2, RequestKind::Compute).unwrap();
        let ch7 = gpu.create_channel(c7, RequestKind::Compute).unwrap();
        // A task never seen reads zero: in the gap, below it, or past
        // the ledger's end.
        for t in [0, 1, 3, 6, 8, 1_000] {
            assert_eq!(gpu.usage_of(TaskId::new(t)), SimDuration::ZERO);
        }
        gpu.submit(SimTime::ZERO, ch2, SubmitSpec::compute(us(50)))
            .unwrap();
        gpu.submit(SimTime::ZERO, ch7, SubmitSpec::compute(us(20)))
            .unwrap();
        drain_compute(&mut gpu, SimTime::ZERO);
        // Each total is its own: 4µs context switch plus service.
        assert_eq!(gpu.usage_of(t2), us(54));
        assert_eq!(gpu.usage_of(t7), us(24));
        for t in 3..7 {
            assert_eq!(gpu.usage_of(TaskId::new(t)), SimDuration::ZERO);
        }
        // A preempted slice is charged...
        let now = SimTime::from_micros(100);
        gpu.submit(now, ch7, SubmitSpec::compute(us(100))).unwrap();
        gpu.try_dispatch(now, EngineClass::Compute).unwrap();
        gpu.preempt_running(now + us(30), EngineClass::Compute)
            .unwrap();
        assert_eq!(gpu.usage_of(t7), us(54));
        // ...and so is the slice a teardown aborts, and the total
        // survives the task's teardown.
        gpu.try_dispatch(now + us(30), EngineClass::Compute)
            .unwrap();
        let summary = gpu.destroy_task(now + us(40), t7);
        assert_eq!(summary.aborted_engines, vec![EngineClass::Compute]);
        assert_eq!(gpu.usage_of(t7), us(64));
        assert_eq!(gpu.usage_of(t2), us(54));
    }

    #[test]
    fn preempt_requeues_remainder_with_same_reference() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(100)))
            .unwrap();
        let d = gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        assert_eq!(d.request.reference, 1);
        // Preempt 30µs in (4µs switch + 26µs of execution).
        let remainder = gpu
            .preempt_running(SimTime::from_micros(30), EngineClass::Compute)
            .unwrap();
        assert_eq!(remainder.reference, 1, "reference must be preserved");
        assert_eq!(
            remainder.service,
            us(74),
            "remaining service after 26µs run"
        );
        // The channel still owes the completion.
        assert!(!gpu.channel(ch0).unwrap().drained());
        // Re-dispatch picks the remainder back up and completes it.
        let d2 = gpu
            .try_dispatch(SimTime::from_micros(30), EngineClass::Compute)
            .unwrap();
        assert_eq!(d2.request.reference, 1);
        gpu.complete_running(d2.finish_at, EngineClass::Compute);
        assert!(gpu.channel(ch0).unwrap().drained());
        // Usage counts both the preempted slice and the rerun.
        assert!(gpu.usage_of(TaskId::new(0)) >= us(100));
    }

    #[test]
    fn preempting_an_infinite_request_frees_the_engine() {
        let (mut gpu, ch0, ch1) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::infinite_loop())
            .unwrap();
        gpu.submit(SimTime::ZERO, ch1, SubmitSpec::compute(us(10)))
            .unwrap();
        gpu.try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .unwrap();
        let remainder = gpu
            .preempt_running(SimTime::from_micros(500), EngineClass::Compute)
            .unwrap();
        assert!(
            remainder.is_unbounded(),
            "infinite remainder stays infinite"
        );
        // Mask the offender; the victim's work is dispatched next.
        gpu.set_channel_enabled(ch0, false);
        let d = gpu
            .try_dispatch(SimTime::from_micros(500), EngineClass::Compute)
            .unwrap();
        assert_eq!(d.request.task, TaskId::new(1));
    }

    #[test]
    fn disabled_channels_are_skipped_and_resume_on_enable() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        gpu.set_channel_enabled(ch0, false);
        assert!(gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .is_none());
        // A disabled channel's backlog does not block a barrier drain.
        assert!(gpu.is_fully_drained());
        gpu.set_channel_enabled(ch0, true);
        assert!(!gpu.is_fully_drained());
        assert!(gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .is_some());
    }

    #[test]
    fn submissions_on_disabled_channels_queue_without_dispatch() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.set_channel_enabled(ch0, false);
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        assert!(gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .is_none());
        assert_eq!(gpu.channel(ch0).unwrap().queued(), 1);
    }

    #[test]
    fn dispatch_on_busy_engine_returns_none() {
        let (mut gpu, ch0, _) = setup_two_tasks();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        gpu.submit(SimTime::ZERO, ch0, SubmitSpec::compute(us(10)))
            .unwrap();
        assert!(gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .is_some());
        assert!(gpu
            .try_dispatch(SimTime::ZERO, EngineClass::Compute)
            .is_none());
    }
}
