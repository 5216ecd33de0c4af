//! Fault injection and recovery: a [`FaultPlan`](crate::fault::FaultPlan)'s
//! faults, the watchdog, hot-remove/add and parked tasks' retries. Dormant
//! without a plan; the hot path reaches it only through the `Fault`,
//! `Watchdog` and `ParkRetry` event arms and two one-compare gates.

use neon_gpu::{DeviceId, DispatchOutcome, EngineClass, SubmitSpec, TaskId};
use neon_sim::{trace_event, SimDuration, SimTime};

use super::lifecycle::{Attach, Detach};
use super::{Dev, Event, TaskState, World};
use crate::fault::{FaultConfig, FaultKind};
use crate::telemetry::{labels, StatKey};
use crate::workload::QueueIndex;

/// The fault-only state of a world.
#[derive(Default)]
pub(super) struct Recovery {
    /// Tasks whose next dispatched request never completes. Empty on
    /// fault-free runs, so engine dispatch's gate is one compare.
    hangs: Vec<TaskId>,
    /// One entry per armed transient submission error, naming its
    /// task — the same gate for the submission path.
    submit_errors: Vec<TaskId>,
    /// Tasks displaced by a device hot-remove, off-device (not live)
    /// and waiting for capacity to return, in id order.
    parked: Vec<TaskId>,
}

impl Recovery {
    /// `true` if some task's next dispatched request is to hang.
    #[inline]
    pub(super) fn hangs_armed(&self) -> bool {
        !self.hangs.is_empty()
    }

    /// `true` if some task's next submission attempt is to fail.
    #[inline]
    pub(super) fn submit_errors_armed(&self) -> bool {
        !self.submit_errors.is_empty()
    }
}

impl World {
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

    /// Schedules the plan's fault events and each device's first
    /// watchdog tick — only when a plan is attached, so fault-free
    /// event streams stay byte-identical.
    pub(super) fn schedule_fault_plan(&mut self) {
        let Some(plan) = &self.config.faults else {
            return;
        };
        if let Err(why) = plan.validate() {
            // lint: allow(panic-path) — config validation at run
            // start; the scenario loader rejects these keyed first
            panic!("invalid fault plan: {why}");
        }
        for (i, ev) in (0u32..).zip(plan.events()) {
            self.queue
                .schedule(ev.at.max(SimTime::ZERO), Event::Fault(i));
        }
        if let Some(every) = plan.config.watchdog {
            for d in 0..self.devices.len() {
                self.queue
                    .schedule(SimTime::ZERO + every, Event::Watchdog(Dev::of(d)));
            }
        }
    }

    /// Consumes an armed transient submission error of task `id`, if it
    /// has one: the submission is retained and retried after the
    /// backoff base. Returns `true` if the attempt was consumed.
    pub(super) fn take_submit_error(
        &mut self,
        id: TaskId,
        queue: QueueIndex,
        spec: SubmitSpec,
    ) -> bool {
        let errors = &mut self.recovery.submit_errors;
        let Some(at) = errors.iter().position(|&t| t == id) else {
            return false;
        };
        errors.remove(at);
        let delay = self.fault_config().backoff_base;
        let dev = self.tasks[id.index()].device.index();
        self.note(dev, StatKey::FaultRetries);
        trace_event!(
            self.trace,
            self.now,
            labels::SUBMIT_ERR,
            "{id} transient error; retry in {delay}"
        );
        self.tasks[id.index()].pending_submit = Some((queue, spec));
        self.schedule_step(id, delay);
        true
    }

    /// An armed hang wedges the first request its victim gets running:
    /// no completion event is scheduled, and the engine stays occupied
    /// until the task is killed. Returns `true` if `outcome` was wedged.
    pub(super) fn wedge_if_armed(
        &mut self,
        dev: usize,
        class: EngineClass,
        outcome: &DispatchOutcome,
    ) -> bool {
        let victim = outcome.request.task;
        let hangs = &mut self.recovery.hangs;
        let Some(at) = hangs.iter().position(|&t| t == victim) else {
            return false;
        };
        hangs.remove(at);
        self.devices[dev].hung_engines[class as usize] = true;
        let device = self.devices[dev].gpu.id();
        trace_event!(
            self.trace,
            self.now,
            labels::HANG,
            "{victim} wedges {device} {class:?}"
        );
        true
    }

    /// Disarms task `id`'s pending hang and submission errors (it is
    /// gone for good).
    pub(super) fn disarm_faults(&mut self, id: TaskId) {
        self.recovery.hangs.retain(|&t| t != id);
        self.recovery.submit_errors.retain(|&t| t != id);
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

    /// One scheduled fault from the plan fires. A task-scope fault
    /// with no live victim is traced and dropped.
    pub(super) fn inject_fault(&mut self, idx: u32) {
        let Some(plan) = &self.config.faults else {
            return;
        };
        let Some(ev) = plan.events().get(idx as usize).copied() else {
            return;
        };
        self.stats.bump(StatKey::InjectedFaults);
        let (label, target, inject): (_, _, fn(&mut World, TaskId)) = match ev.kind {
            FaultKind::DeviceRemove { device } => return self.hot_remove(device),
            FaultKind::DeviceAdd { device } => return self.hot_add(device),
            FaultKind::TaskHang { task } => (labels::HANG, task, World::inject_hang),
            FaultKind::TaskCrash { task } => (labels::CRASH, task, World::inject_crash),
            FaultKind::SubmitError { task } => {
                (labels::SUBMIT_ERR, task, World::inject_submit_error)
            }
            // Host-scope events belong to the fleet layer; a lone
            // world ignores them.
            FaultKind::HostFail { .. } | FaultKind::HostRecover { .. } => return,
        };
        match self.fault_victim(target) {
            Some(id) => inject(self, id),
            None => trace_event!(self.trace, self.now, label, "no live victim"),
        }
    }

    /// Injected hang: the victim's running request (or, if it has
    /// none, its next dispatched one) never completes. The wedged
    /// engine stays busy until the victim is torn down — by the
    /// watchdog, a crash, or the horizon.
    fn inject_hang(&mut self, id: TaskId) {
        let dev = self.tasks[id.index()].device.index();
        let wedge = self
            .engines_running(dev, id)
            .find(|&class| !self.devices[dev].hung_engines[class as usize]);
        if let Some(class) = wedge {
            self.cancel_completion(dev, class);
            self.devices[dev].hung_engines[class as usize] = true;
            let device = self.devices[dev].gpu.id();
            trace_event!(
                self.trace,
                self.now,
                labels::HANG,
                "{id} wedges {device} {class:?}"
            );
            return;
        }
        if !self.recovery.hangs.contains(&id) {
            self.recovery.hangs.push(id);
        }
        trace_event!(self.trace, self.now, labels::HANG, "{id} armed");
    }

    /// Injected crash: the victim dies on the spot and is lost (no
    /// requeue — the process is gone, not stuck).
    fn inject_crash(&mut self, id: TaskId) {
        let dev = self.tasks[id.index()].device.index();
        if !self.detach(id, Detach::Kill(labels::CRASH)) {
            return;
        }
        self.note(dev, StatKey::LostTasks);
        self.maybe_rebalance();
    }

    /// Injected transient submission error: the victim's next
    /// submission attempt fails once and is retried after the backoff
    /// base.
    fn inject_submit_error(&mut self, id: TaskId) {
        self.recovery.submit_errors.push(id);
        trace_event!(self.trace, self.now, labels::SUBMIT_ERR, "{id} armed");
    }

    /// Per-device watchdog tick: any running request stagnant past the
    /// timeout gets its owner killed-and-requeued (with a retry
    /// budget). The tick re-arms itself at the timeout cadence — only
    /// while a fault plan with a watchdog is attached.
    pub(super) fn watchdog_tick(&mut self, dev: usize) {
        let Some(timeout) = self.fault_config().watchdog else {
            return;
        };
        if self.devices[dev].online() {
            for id in self.stagnant_tasks(dev, timeout).into_iter().flatten() {
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
        let workload =
            (retries < cfg.retry_budget).then(|| self.tasks[id.index()].workload.box_clone());
        let pin = self.tasks[id.index()].pin;
        let dev = self.tasks[id.index()].device.index();
        if !self.detach(id, Detach::Kill(labels::WATCHDOG)) {
            return;
        }
        self.note(dev, StatKey::WatchdogKills);
        match workload {
            Some(w) => {
                let delay = cfg.backoff(retries);
                self.note(dev, StatKey::FaultRetries);
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
                self.note(dev, StatKey::LostTasks);
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
        if dev >= self.devices.len() || !self.devices[dev].online() {
            trace_event!(
                self.trace,
                self.now,
                labels::HOT_REMOVE,
                "{device} ignored (unknown or already offline)"
            );
            return;
        }
        self.devices[dev].offline_since = Some(self.now);
        self.note(dev, StatKey::HotRemoves);
        trace_event!(self.trace, self.now, labels::HOT_REMOVE, "{device}");
        for class in EngineClass::ALL {
            self.cancel_completion(dev, class);
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
                    self.note(to, StatKey::RecoveredTasks);
                }
                Err(_) => {
                    // Park: wait off-device for capacity, retrying with
                    // bounded exponential backoff.
                    self.detach(id, Detach::Park);
                    if let Err(at) = self.recovery.parked.binary_search(&id) {
                        self.recovery.parked.insert(at, id);
                    }
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
        if dev >= self.devices.len() || self.devices[dev].online() {
            trace_event!(
                self.trace,
                self.now,
                labels::HOT_ADD,
                "{device} ignored (unknown or already online)"
            );
            return;
        }
        if let Some(since) = self.devices[dev].offline_since.take() {
            let down = self.now.saturating_duration_since(since);
            self.devices[dev].offline_total += down;
        }
        self.note(dev, StatKey::HotAdds);
        trace_event!(self.trace, self.now, labels::HOT_ADD, "{device}");
        for id in self.recovery.parked.clone() {
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

    /// One re-admission attempt for a parked task: re-stage onto an
    /// online device with room, or back off — until the retry bound
    /// declares the task lost. Either way a task that leaves parking
    /// leaves the parked set.
    pub(super) fn park_retry(&mut self, id: TaskId) {
        let Ok(slot) = self.recovery.parked.binary_search(&id) else {
            return;
        };
        let cfg = self.fault_config();
        let channels = self.tasks[id.index()].workload.queues().len();
        let bytes = self.tasks[id.index()].workload.working_set_bytes();
        let pin = self.tasks[id.index()].pin;
        let to = self.place(channels, bytes, pin).ok();
        // Re-staged from host memory: the device copy of the working
        // set died with the removed device.
        if let Some(to) = to.filter(|&to| self.devices[to].fits(channels)) {
            self.recovery.parked.remove(slot);
            self.attach(id, to, Attach::Restage)
                // lint: allow(unchecked-unwrap) — the target's room was
                // checked just above
                .expect("restage target capacity was checked");
            return;
        }
        self.tasks[id.index()].park_retries += 1;
        let attempts = self.tasks[id.index()].park_retries;
        if attempts > cfg.max_park_retries {
            self.recovery.parked.remove(slot);
            let dev = self.tasks[id.index()].device.index();
            let t = &mut self.tasks[id.index()];
            t.killed = true;
            t.state = TaskState::Finished;
            t.finished_at = Some(self.now);
            self.note(dev, StatKey::LostTasks);
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
