//! Task lifecycle: admission, placement, attach/detach and migration.
//!
//! A task's device state changes in two places. `World::attach` puts a
//! task on a device — context and channels allocated (rolled back on a
//! full device), the task entered in the device's id-ordered
//! `residents`, and during a run the transfer charged, the reason
//! traced, the scheduler told, a step scheduled — for `Add` and
//! `Arrive` (traced `arrive`, after `stage` when staging costs
//! anything), `Migrate` (`migrate`) and `Restage` (`recover`).
//! `World::detach` takes it off — not live, out of `residents`, device
//! state torn down, scheduler told — for `Exit` (a departure is traced
//! `depart`), `Kill` (`crash`, `watchdog`), `PolicyKill` (`kill`),
//! `Park` (`park`) and `MigrateOut` (untraced: the `migrate` attach
//! follows). Nothing else changes `residents`. `World::place` is the
//! one placement path, for admissions and fault recovery alike.

use neon_gpu::{DeviceId, EngineClass, GpuError, TaskId};
use neon_metrics::StreamingHistogram;
use neon_sim::{trace_event, DetRng, SimDuration, SimTime};

use super::{Event, TaskRt, TaskShell, TaskState, World};
use crate::placement::{shortage, DeviceLoad};
use crate::rebalance::{Migration, MigrationCandidate};
use crate::telemetry::{labels, StatKey};
use crate::workload::BoxedWorkload;

/// A task that has been scheduled to arrive but is not admitted yet —
/// its context and channels are created only at the arrival instant,
/// so open-loop traffic contends for device resources exactly when it
/// shows up (and may be turned away, the §6.3 condition).
pub(super) struct PendingArrival {
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

/// Why a task comes onto a device ([`World::attach`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Attach {
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
pub(super) enum Detach {
    /// The workload finished, or its scheduled departure fired.
    Exit,
    /// Fault recovery killed it; the label names the killer.
    Kill(&'static str),
    /// Its device's own scheduler killed it
    /// ([`SchedCtx::kill_task`](crate::sched::SchedCtx::kill_task)).
    PolicyKill,
    /// Displaced by a hot-remove with no room elsewhere.
    Park,
    /// The first half of a migration.
    MigrateOut,
}

impl World {
    /// Admits a task running `workload`, immediately, on the device the
    /// placement policy chooses.
    ///
    /// Before [`World::run`] this stages the task for a staggered start
    /// at time zero (the closed-loop harness path). After `run()` has
    /// begun — i.e. called from scheduler or driver code while the
    /// event loop is live — the task joins mid-run: the policy sees
    /// [`Scheduler::on_task_admitted`](crate::sched::Scheduler::on_task_admitted)
    /// and the task takes its first step at the current instant.
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
    /// device is exhausted, the arrival is rejected and counted under
    /// [`StatKey::RejectedAdmissions`] in
    /// [`RunReport::stats`](crate::report::RunReport::stats) instead of
    /// panicking — open-loop traffic does not get to assume room.
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

    pub(super) fn stage_arrival(
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

    /// A staged arrival reaches its instant: allocate device resources
    /// and join the run, or be turned away if the device is full.
    pub(super) fn task_arrival(&mut self, idx: u32) {
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
                self.stats.bump(StatKey::RejectedAdmissions);
                trace_event!(
                    self.trace,
                    self.now,
                    labels::REJECT,
                    "arrival refused: {err:?}"
                );
            }
        }
    }

    /// The one placement path: the device a task with `channels`
    /// channels and a `working_set` goes to, for an admission, a
    /// migration off a removed device and a parked task's retry. A pin
    /// or a lone device is the only candidate and is not
    /// capacity-checked here ([`World::attach`] names the exact
    /// shortage); otherwise the placement policy picks among the online
    /// devices with room.
    pub(super) fn place(
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
            let online = self.devices[dev].online();
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
            .filter(|(_, slot)| slot.online())
            .map(|(i, slot)| DeviceLoad {
                device: slot.gpu.id(),
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
            device: self.devices[dev].gpu.id(),
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
            retries,
            park_retries: 0,
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

    /// The one attach (see the module doc): allocates a context and one
    /// channel per queue for task `id` on device `dev` and binds the
    /// task there. On a full device the context and any channels created
    /// so far are reclaimed — a rejected admission must not shrink
    /// device capacity — and the error is returned. Before the run the
    /// rest waits for [`World::run`]; after, the task is charged its
    /// working-set transfer, the reason is traced, the scheduler sees
    /// [`Scheduler::on_task_admitted`](crate::sched::Scheduler::on_task_admitted)
    /// and the task takes a step once the transfer is done.
    pub(super) fn attach(&mut self, id: TaskId, dev: usize, how: Attach) -> Result<(), GpuError> {
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
        task.device = slot.gpu.id();
        task.live = true;
        if let Err(at) = slot.residents.binary_search(&id) {
            slot.residents.insert(at, id);
        }
        self.debug_check_tenants(dev);
        if !self.started {
            return Ok(());
        }
        let cost = self.charge_transfer(id, how);
        if !matches!(how, Attach::Add | Attach::Arrive) && self.config.sample_every.is_some() {
            self.sampler
                .transfer(id, (!cost.is_zero()).then(|| self.now + cost));
        }
        let task = &mut self.tasks[id.index()];
        match how {
            Attach::Add | Attach::Arrive => {
                // Rounds start once the working set is staged, as at
                // the start of the run: staging is reported as
                // transfer_stall, never as round time.
                task.round_start = self.now + cost;
                let note = match how {
                    Attach::Add => " admitted mid-run",
                    _ => "",
                };
                let multi = self.multi();
                self.trace
                    .record_with(self.now, labels::ARRIVE, || match multi {
                        true => format!("{id}{note} on {}", self.devices[dev].gpu.id()),
                        false => format!("{id}{note}"),
                    });
            }
            Attach::Migrate { from } => {
                task.migrations += 1;
                task.last_migrated_at = Some(self.now);
                self.stats.bump(StatKey::RebalanceAccepted);
                self.note(from, StatKey::MigrationsOut);
                self.note(dev, StatKey::MigrationsIn);
                self.trace
                    .record_with(self.now, labels::MIGRATE, || match cost.is_zero() {
                        true => format!("{id} dev{from} -> dev{dev}"),
                        false => format!("{id} dev{from} -> dev{dev} (transfer {cost})"),
                    });
            }
            Attach::Restage => {
                task.state = TaskState::Ready;
                task.round_start = self.now + cost;
                self.note(dev, StatKey::RecoveredTasks);
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
    /// — on the task and the device. Zero on free interconnects.
    pub(super) fn charge_transfer(&mut self, id: TaskId, how: Attach) -> SimDuration {
        let task = &mut self.tasks[id.index()];
        let (dev, bytes) = (task.device.index(), task.workload.working_set_bytes());
        let cost = match how {
            Attach::Migrate { from } => self.config.topology.migration_cost(from, dev, bytes),
            _ => self.config.topology.staging_cost(dev, bytes),
        };
        task.transfer_stall += cost;
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
        let (slot, device) = (&self.devices[dev], self.devices[dev].gpu.id());
        let scan = self.tasks.iter().filter(|t| t.live && t.device == device);
        debug_assert!(
            slot.residents.iter().eq(scan.map(|t| &t.id)),
            "{device}: resident index drifted from the task table"
        );
    }

    /// The one detach (see the module doc): takes live task `id` off
    /// its device — not live, its in-flight register write dropped, out
    /// of its device's `residents`, its device state torn down (queued
    /// work dropped, running requests aborted) — and then calls
    /// [`Scheduler::on_task_exit`](crate::sched::Scheduler::on_task_exit),
    /// so the policy never sees an exited task still holding an engine;
    /// its channel ids stay in place for the callback. Returns `false`
    /// if the task was not live.
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
    pub(super) fn detach(&mut self, id: TaskId, why: Detach) -> bool {
        let task = &mut self.tasks[id.index()];
        if !task.live {
            return false;
        }
        task.live = false;
        task.inflight_submit = None;
        let dev = task.device.index();
        match why {
            Detach::MigrateOut => {}
            Detach::Park => task.state = TaskState::Parked,
            Detach::Exit | Detach::Kill(_) | Detach::PolicyKill => {
                task.killed = why != Detach::Exit;
                task.state = TaskState::Finished;
                task.finished_at = Some(self.now);
                task.pending_submit = None;
                self.disarm_faults(id);
            }
        }
        if why != Detach::MigrateOut {
            if let Some(tok) = self.tasks[id.index()].step_token.take() {
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
            self.note(dev, StatKey::Kills);
            trace_event!(self.trace, self.now, label, "{id}");
        }
        // The teardown aborts the task's running requests; an engine one
        // of them wedged with an injected hang returns to service.
        for class in self.devices[dev]
            .gpu
            .destroy_task(self.now, id)
            .aborted_engines
        {
            self.devices[dev].hung_engines[class as usize] = false;
            self.cancel_completion(dev, class);
        }
        self.tasks[id.index()].outstanding = 0;
        self.pump_engines(dev);
        if why != Detach::PolicyKill {
            self.dispatch_sched(dev, |s, ctx| s.on_task_exit(ctx, id));
        }
        true
    }

    /// After a departure, consult the
    /// [`Rebalance`](crate::rebalance::Rebalance) policy
    /// ([`WorldConfig::rebalance`](super::WorldConfig::rebalance)) over
    /// the same kernel-observable [`DeviceLoad`] snapshots the placement
    /// layer sees, plus the movable candidates (live, unpinned) and the
    /// topology's transfer pricing. At most one task moves per
    /// departure; policies are deterministic, so runs stay reproducible
    /// per seed.
    pub(super) fn maybe_rebalance(&mut self) {
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
                Some(slot) if !slot.online() => Some("target is offline"),
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
    pub(super) fn migrate_task(&mut self, id: TaskId, to: usize) {
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
}
