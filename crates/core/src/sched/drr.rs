//! Engaged deficit-round-robin baseline (GERM-style).
//!
//! The fair-share policy of GERM [11], reconstructed: tasks take turns;
//! each turn adds a fixed quantum to the task's deficit counter, and
//! observed request occupancy drains it. A task submits freely while
//! its deficit is positive; when the deficit runs out the turn
//! advances. Every submission is intercepted (engaged), so the baseline
//! carries the per-request cost the paper's schedulers avoid. Included
//! for ablations.
//!
//! Deficits are **per task and carry across turns** (the defining DRR
//! property): a task whose request overruns its quantum — e.g. a 20 ms
//! batch against the 1 ms quantum — goes into overdraft and spends the
//! next ⌈overdraft/quantum⌉ turns parked paying it off, instead of
//! collecting a fresh quantum each rotation. An earlier version kept
//! one reset-on-advance counter, which forgot the overdraft and handed
//! a large-request adversary ~20× its share (the `adversary_midrun`
//! engaged-drr collapse; see `tests/drr_quantum.rs` for the pinned
//! regression). Unspent credit does not bank beyond one quantum, so an
//! idle task cannot hoard turns for a later burst.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use neon_gpu::{ChannelId, CompletedRequest, TaskId};
use neon_sim::SimDuration;

use crate::cost::SchedParams;
use crate::sched::{FaultDecision, SchedCtx, Scheduler};

/// Per-turn quantum.
const QUANTUM: SimDuration = SimDuration::from_millis(1);

/// The engaged DRR baseline policy.
#[derive(Debug)]
pub struct EngagedDrr {
    params: SchedParams,
    rotation: VecDeque<TaskId>,
    /// Per-task deficit (µs): positive = may submit, negative =
    /// overdraft to pay off before its next active turn.
    deficits: BTreeMap<TaskId, f64>,
    /// Parked tasks awaiting their turn.
    waiting: BTreeSet<TaskId>,
}

impl EngagedDrr {
    /// Creates the baseline with the given parameters.
    pub fn new(params: SchedParams) -> Self {
        EngagedDrr {
            params,
            rotation: VecDeque::new(),
            deficits: BTreeMap::new(),
            waiting: BTreeSet::new(),
        }
    }

    fn current(&self) -> Option<TaskId> {
        self.rotation.front().copied()
    }

    fn deficit(&self, task: TaskId) -> f64 {
        self.deficits.get(&task).copied().unwrap_or(0.0)
    }

    /// Starts the turn of the task at the rotation front: credit one
    /// quantum (capped — unspent credit does not bank) and wake the
    /// task if it was parked. A task still in overdraft consumes its
    /// turn on the debt and is skipped; the loop terminates because
    /// every visit strictly raises a deficit by a full quantum.
    fn grant_turn(&mut self, ctx: &mut SchedCtx<'_>) {
        let quantum = QUANTUM.as_micros_f64();
        loop {
            let Some(t) = self.current() else { return };
            let d = self.deficits.entry(t).or_insert(0.0);
            *d = (*d + quantum).min(quantum);
            if *d > 0.0 {
                if self.waiting.remove(&t) {
                    ctx.wake_task(t);
                }
                return;
            }
            self.rotation.rotate_left(1);
        }
    }

    fn advance(&mut self, ctx: &mut SchedCtx<'_>) {
        if self.rotation.is_empty() {
            return;
        }
        self.rotation.rotate_left(1);
        self.grant_turn(ctx);
    }

    fn remove(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        let was_current = self.current() == Some(task);
        self.rotation.retain(|&t| t != task);
        self.waiting.remove(&task);
        self.deficits.remove(&task);
        if was_current && !self.rotation.is_empty() {
            // The departed task's turn passes to the new front.
            self.grant_turn(ctx);
        }
    }
}

impl Scheduler for EngagedDrr {
    fn name(&self) -> &'static str {
        "engaged-drr"
    }

    fn init(&mut self, _ctx: &mut SchedCtx<'_>) {}

    fn on_task_admitted(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        ctx.protect_task(task);
        self.deficits.insert(task, 0.0);
        self.rotation.push_back(task);
        // An empty rotation means the newcomer's turn starts now; it
        // must be credited or it parks forever with nobody to advance
        // past it.
        if self.rotation.len() == 1 {
            self.grant_turn(ctx);
        }
    }

    fn on_task_exit(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        self.remove(ctx, task);
    }

    fn on_fault(
        &mut self,
        _ctx: &mut SchedCtx<'_>,
        task: TaskId,
        _channel: ChannelId,
    ) -> FaultDecision {
        if self.current() == Some(task) && self.deficit(task) > 0.0 {
            FaultDecision::Allow
        } else {
            self.waiting.insert(task);
            FaultDecision::Park
        }
    }

    fn on_poll(&mut self, ctx: &mut SchedCtx<'_>) {
        for task in ctx
            .overlong_tasks(self.params.overlong_limit)
            .into_iter()
            .flatten()
        {
            ctx.kill_task(task);
            self.remove(ctx, task);
        }
        // Work conservation: if the current task shows no demand while
        // others wait, pass the turn.
        if let Some(t) = self.current() {
            let idle = !ctx.is_parked(t) && !ctx.has_outstanding(t);
            if idle && !self.waiting.is_empty() {
                self.advance(ctx);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut SchedCtx<'_>, _tag: u32) {}

    fn on_completion(&mut self, ctx: &mut SchedCtx<'_>, done: &CompletedRequest) {
        // Occupancy is charged to the task that used the device —
        // normally the current one, since the turn cannot pass while a
        // request is outstanding.
        if let Some(d) = self.deficits.get_mut(&done.task) {
            *d -= done.occupancy.as_micros_f64();
        }
        if self.current() == Some(done.task) && self.deficit(done.task) <= 0.0 {
            self.advance(ctx);
        }
    }
}
