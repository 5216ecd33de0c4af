//! [`SchedCtx`]: the interface a scheduling policy sees — §6.1's
//! scheduling events plus per-channel reference counters. Each method's
//! first doc line names the kernel-module mechanism it models (page
//! protection, reference-counter read, module bookkeeping, timer,
//! kill/suspend) or marks the vendor extension; README's "The §6.1
//! interface" lists them with the reads a polling module could not make.

use neon_gpu::{ChannelId, EngineClass, Gpu, TaskId};
use neon_sim::{trace_event, SimDuration, SimTime};

use super::lifecycle::Detach;
use super::{Dev, Event, TaskState, World};
use crate::cost::CostModel;
use crate::sched::{NullScheduler, Scheduler};
use crate::telemetry::{labels, StatKey};

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

impl World {
    /// Runs `f` on device `dev`'s scheduler, taken out for the call.
    pub(super) fn dispatch_sched<R>(
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

    /// The live tasks whose running request on device `dev` started
    /// over `limit` ago, for [`SchedCtx::overlong_tasks`] and the watchdog.
    pub(super) fn stagnant_tasks(
        &self,
        dev: usize,
        limit: SimDuration,
    ) -> [Option<TaskId>; EngineClass::ALL.len()] {
        let mut out = [None; EngineClass::ALL.len()];
        let mut n = 0;
        for class in EngineClass::ALL {
            if let Some(run) = self.devices[dev].gpu.running(class) {
                if self.now.saturating_duration_since(run.started_at) > limit {
                    let t = run.request.task;
                    if self.tasks[t.index()].live && !out.contains(&Some(t)) {
                        out[n] = Some(t);
                        n += 1;
                    }
                }
            }
        }
        out
    }
}

impl SchedCtx<'_> {
    /// Timer: the current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Module bookkeeping: the software-stack cost model.
    pub fn cost(&self) -> &CostModel {
        &self.world.config.cost
    }

    /// Module bookkeeping: fills `out` with the live (admitted, not
    /// exited/killed) tasks on this device, in id order. O(tenants on
    /// this device): a copy of the device's resident index, whatever
    /// the number of tasks admitted before; the buffer is cleared first
    /// and its capacity reused.
    pub fn live_tasks_into(&self, out: &mut Vec<TaskId>) {
        out.clear();
        out.extend_from_slice(&self.world.devices[self.dev].residents);
    }

    /// Module bookkeeping: the number of channels the task owns.
    pub fn channel_count(&self, task: TaskId) -> usize {
        self.world.tasks[task.index()].channels.len()
    }

    /// Module bookkeeping: the task's `i`-th channel — with
    /// [`SchedCtx::channel_count`], the allocation-free way to walk a
    /// task's channels while still holding `&mut` access to the
    /// context.
    pub fn channel_of(&self, task: TaskId, i: usize) -> ChannelId {
        self.world.tasks[task.index()].channels[i]
    }

    fn gpu(&self) -> &Gpu {
        &self.world.devices[self.dev].gpu
    }

    fn task_gpu(&self, task: TaskId) -> &Gpu {
        &self.world.devices[self.world.tasks[task.index()].device.index()].gpu
    }

    /// Reference-counter read: the completion count on a channel
    /// (monotonic).
    pub fn channel_completions(&self, ch: ChannelId) -> u64 {
        self.gpu()
            .channel(ch)
            // lint: allow(unchecked-unwrap) — harness accessors are handed
            // channel ids from the device's own allocation
            .expect("unknown channel")
            .completions()
    }

    /// Reference-counter read: `true` if this whole device is quiesced
    /// (barrier drain check) — nothing running, and no enabled channel's
    /// counter behind its last submitted reference.
    pub fn gpu_fully_drained(&self) -> bool {
        self.gpu().is_fully_drained()
    }

    /// Module bookkeeping: `true` if the task has a faulted submission
    /// waiting for a wake.
    pub fn is_parked(&self, task: TaskId) -> bool {
        let t = &self.world.tasks[task.index()];
        t.live && t.state == TaskState::Parked
    }

    /// Reference-counter read: `true` if the task has any request
    /// submitted to the device that has not completed (its last
    /// submitted reference is ahead of its completed one on some
    /// channel).
    pub fn has_outstanding(&self, task: TaskId) -> bool {
        let gpu = self.task_gpu(task);
        self.world.tasks[task.index()].channels.iter().any(|&ch| {
            // lint: allow(unchecked-unwrap) — task channel tables only hold
            // ids from the device's own allocation
            let c = gpu.channel(ch).expect("unknown channel");
            c.last_submitted_reference() != c.completed_reference()
        })
    }

    /// Reference-counter read: the tasks whose currently running
    /// request on this device has exceeded `limit`, inferred from
    /// reference-counter stagnation. Deviation: the request's exact
    /// start instant is read, which a polling module sees only to
    /// within a poll period.
    ///
    /// At most one request runs per engine class, so the result is a
    /// fixed array rather than a heap allocation — iterate it with
    /// `.into_iter().flatten()`. This runs on every poll tick.
    pub fn overlong_tasks(&self, limit: SimDuration) -> [Option<TaskId>; EngineClass::ALL.len()] {
        self.world.stagnant_tasks(self.dev, limit)
    }

    /// Page protection: protects every channel of a task.
    pub fn protect_task(&mut self, task: TaskId) {
        self.set_task_protection(task, true);
    }

    /// Page protection: unprotects every channel of a task.
    pub fn unprotect_task(&mut self, task: TaskId) {
        self.set_task_protection(task, false);
    }

    fn set_task_protection(&mut self, task: TaskId, protected: bool) {
        let pages = &mut self.world.devices[self.dev].protected;
        for ch in &self.world.tasks[task.index()].channels {
            pages[ch.index()] = protected;
        }
    }

    /// Page protection: protects every channel of every live task on
    /// this device (a barrier).
    pub fn protect_all(&mut self) {
        for i in 0..self.world.devices[self.dev].residents.len() {
            let id = self.world.devices[self.dev].residents[i];
            self.set_task_protection(id, true);
        }
    }

    /// Kill/suspend: wakes a parked task; its pending submission is
    /// retried (and will fault again if the page is still protected).
    pub fn wake_task(&mut self, task: TaskId) {
        if self.is_parked(task) {
            self.world.schedule_step(task, SimDuration::ZERO);
        }
    }

    /// Timer: arms a policy timer; `tag` is returned to
    /// [`Scheduler::on_timer`]. Returns a token for
    /// [`SchedCtx::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u32) -> u64 {
        let event = Event::SchedTimer(Dev::of(self.dev), tag);
        self.world.queue.schedule(self.world.now + delay, event)
    }

    /// Timer: cancels a pending policy timer.
    pub fn cancel_timer(&mut self, token: u64) {
        self.world.queue.cancel(token);
    }

    /// Kill/suspend: kills a task; the process is terminated and the
    /// driver's exit protocol reclaims its device state (§3.1 "From
    /// model to prototype").
    pub fn kill_task(&mut self, task: TaskId) {
        self.world.detach(task, Detach::PolicyKill);
    }

    /// Kill/suspend: suspends a task's device access using hardware
    /// preemption (§6.2). Any request of the task running on an engine
    /// is preempted (remainder requeued) and the task's channels are
    /// masked off from arbitration until
    /// [`SchedCtx::resume_task_channels`]. Pending submissions are not
    /// affected — protection handles those.
    pub fn suspend_task_channels(&mut self, task: TaskId) {
        let dev = self.world.tasks[task.index()].device.index();
        for class in self.world.engines_running(dev, task) {
            self.world.cancel_completion(dev, class);
            self.world.devices[dev]
                .gpu
                .preempt_running(self.world.now, class);
        }
        self.set_channels_enabled(task, false);
        self.world.note(dev, StatKey::Preemptions);
        trace_event!(self.world.trace, self.world.now, labels::PREEMPT, "{task}");
        self.world.pump_engines(dev);
    }

    /// Kill/suspend: unmasks a suspended task's channels (see
    /// [`SchedCtx::suspend_task_channels`]); queued remainders become
    /// dispatchable again.
    pub fn resume_task_channels(&mut self, task: TaskId) {
        let dev = self.set_channels_enabled(task, true);
        self.world.pump_engines(dev);
    }

    /// Masks every channel of `task` on or off arbitration on its
    /// device; returns the device.
    fn set_channels_enabled(&mut self, task: TaskId, enabled: bool) -> usize {
        let (tasks, devices) = (&self.world.tasks, &mut self.world.devices);
        let t = &tasks[task.index()];
        for &ch in &t.channels {
            devices[t.device.index()]
                .gpu
                .set_channel_enabled(ch, enabled);
        }
        t.device.index()
    }

    /// Vendor extension: cumulative per-task resource usage on this
    /// task's device as a *vendor-provided hardware statistic* (§6.1
    /// future work: "the hardware can facilitate OS accounting by
    /// including resource usage information in each completion
    /// event"). Prototype-faithful policies must not call this; the
    /// vendor-statistics variant of Disengaged Fair Queueing does.
    pub fn vendor_usage(&self, task: TaskId) -> SimDuration {
        self.task_gpu(task).usage_of(task)
    }

    /// Module bookkeeping: counts a policy-level event in the structured
    /// run statistics — both the run-wide
    /// [`RunReport::stats`](crate::report::RunReport::stats) block and
    /// this device's
    /// [`DeviceReport::stats`](crate::report::DeviceReport::stats).
    /// Policies use this for the occurrences only they can see (e.g.
    /// [`StatKey::Denials`] when Disengaged Fair Queueing revokes a
    /// free run, or the sampling-window open/close pair).
    pub fn note(&mut self, key: StatKey) {
        self.world.note(self.dev, key);
    }

    /// Module bookkeeping: records a trace entry under the policy's
    /// label. On multi-device worlds the entry is prefixed with the
    /// device id so interleaved policy logs stay readable. The detail
    /// string is built only when tracing is enabled — zero-cost on
    /// disabled (benchmark and sweep) runs.
    pub fn trace_with(&mut self, label: &'static str, detail: impl FnOnce() -> String) {
        if !self.world.trace.is_enabled() {
            return;
        }
        let detail = detail();
        let detail = if self.world.multi() {
            format!("{}: {detail}", self.world.devices[self.dev].gpu.id())
        } else {
            detail
        };
        self.world.trace.record(self.world.now, label, detail);
    }
}
