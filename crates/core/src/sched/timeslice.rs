//! Timeslice scheduling with overuse control (§3.1) and its disengaged
//! variant (§3.2).
//!
//! A token rotates among live tasks every `timeslice` (30 ms default).
//! Only the holder may submit; everyone else faults and parks. At the
//! end of a slice the scheduler waits (at polling granularity, via the
//! reference counters) for the holder's outstanding requests to drain,
//! and charges any overrun to the holder's *overuse ledger*. A task
//! whose accrued overuse exceeds a full timeslice forfeits its next
//! turn (one timeslice is deducted per skip).
//!
//! - **Engaged** mode keeps every channel protected at all times: each
//!   of the holder's submissions pays the interception cost. This is
//!   the paper's baseline Timeslice scheduler.
//! - **Disengaged** mode unprotects the holder's channels for the
//!   duration of its slice, restoring direct-access speed; only the
//!   slice edges cost anything.
//!
//! Over-long requests (beyond the documented limit) are handled by
//! killing the offending task, which is trivially identifiable: it can
//! only be the current or most recent token holder.

use std::collections::{BTreeMap, VecDeque};

use neon_gpu::{ChannelId, CompletedRequest, TaskId};
use neon_sim::{SimDuration, SimTime};

use crate::cost::SchedParams;
use crate::sched::{FaultDecision, SchedCtx, Scheduler};

/// The timeslice policy; construct via [`Timeslice::engaged`] or
/// [`Timeslice::disengaged`].
#[derive(Debug)]
pub struct Timeslice {
    params: SchedParams,
    disengaged: bool,
    /// Token order; the holder is always at the front.
    rotation: VecDeque<TaskId>,
    holder: Option<TaskId>,
    /// True between the slice-end timer and drain completion.
    draining: bool,
    slice_end: SimTime,
    overuse: BTreeMap<TaskId, SimDuration>,
    /// Timer generation; stale timers are ignored. It wraps, which is
    /// harmless: only the latest generation is compared.
    generation: u32,
}

impl Timeslice {
    /// The engaged variant: every request intercepted.
    pub fn engaged(params: SchedParams) -> Self {
        Timeslice::with_mode(params, false)
    }

    /// The disengaged variant: the holder runs unintercepted.
    pub fn disengaged(params: SchedParams) -> Self {
        Timeslice::with_mode(params, true)
    }

    fn with_mode(params: SchedParams, disengaged: bool) -> Self {
        Timeslice {
            params,
            disengaged,
            rotation: VecDeque::new(),
            holder: None,
            draining: false,
            slice_end: SimTime::ZERO,
            overuse: BTreeMap::new(),
            generation: 0,
        }
    }

    /// Accrued overuse of a task (test/diagnostic accessor).
    pub fn overuse_of(&self, task: TaskId) -> SimDuration {
        self.overuse
            .get(&task)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    fn grant(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        self.holder = Some(task);
        self.draining = false;
        if self.disengaged {
            ctx.unprotect_task(task);
        }
        ctx.wake_task(task);
        ctx.trace_with("token", || format!("{task} granted"));
        self.generation = self.generation.wrapping_add(1);
        ctx.set_timer(self.params.timeslice, self.generation);
    }

    /// Rotates the token, honouring overuse skips, and grants the next
    /// slice. No-op when no live task remains.
    fn advance(&mut self, ctx: &mut SchedCtx<'_>) {
        self.holder = None;
        if self.rotation.is_empty() {
            return;
        }
        self.rotation.rotate_left(1);
        // Skip tasks that owe a full timeslice, deducting one per skip.
        // Terminates: every inspection strictly decreases somebody's
        // ledger or lands on a grantable task.
        loop {
            // lint: allow(unchecked-unwrap) — the skip loop only rotates,
            // never removes, so the rotation stays nonempty
            let candidate = *self.rotation.front().expect("rotation nonempty");
            let owed = self.overuse.entry(candidate).or_default();
            if *owed >= self.params.timeslice {
                *owed -= self.params.timeslice;
                ctx.trace_with("skip", || format!("{candidate} owes {owed}"));
                self.rotation.rotate_left(1);
            } else {
                break;
            }
        }
        // lint: allow(unchecked-unwrap) — the skip loop above only rotates,
        // never removes, so the rotation stays nonempty
        let next = *self.rotation.front().expect("rotation nonempty");
        self.grant(ctx, next);
    }

    fn try_finish_drain(&mut self, ctx: &mut SchedCtx<'_>) {
        let Some(holder) = self.holder else {
            return;
        };
        if !self.draining || ctx.has_outstanding(holder) {
            return;
        }
        // Overuse = how far past the slice edge the kernel observed the
        // drain (polling granularity included, as in the prototype).
        let over = ctx.now().saturating_duration_since(self.slice_end);
        *self.overuse.entry(holder).or_default() += over;
        ctx.trace_with("drain", || format!("{holder} overuse +{over}"));
        self.advance(ctx);
    }

    fn remove_task(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        self.rotation.retain(|&t| t != task);
        self.overuse.remove(&task);
        if self.holder == Some(task) {
            self.holder = None;
            self.draining = false;
            if !self.rotation.is_empty() {
                // Grant the next slice immediately; the departed task's
                // requests are gone (exit/kill reclaimed them).
                // lint: allow(unchecked-unwrap) — guarded by the is_empty
                // check directly above
                let next = *self.rotation.front().expect("rotation nonempty");
                self.grant(ctx, next);
            }
        }
    }
}

impl Scheduler for Timeslice {
    fn name(&self) -> &'static str {
        if self.disengaged {
            "disengaged-ts"
        } else {
            "timeslice"
        }
    }

    fn init(&mut self, _ctx: &mut SchedCtx<'_>) {}

    fn on_task_admitted(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        ctx.protect_task(task);
        self.rotation.push_back(task);
        self.overuse.insert(task, SimDuration::ZERO);
        if self.holder.is_none() {
            // First arrival takes the token (rotation front is `task`).
            // lint: allow(unchecked-unwrap) — task was just pushed onto the
            // rotation, so it is nonempty
            while *self.rotation.front().expect("nonempty") != task {
                self.rotation.rotate_left(1);
            }
            self.grant(ctx, task);
        }
    }

    fn on_task_exit(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        self.remove_task(ctx, task);
    }

    fn on_fault(
        &mut self,
        _ctx: &mut SchedCtx<'_>,
        task: TaskId,
        _channel: ChannelId,
    ) -> FaultDecision {
        if self.holder == Some(task) && !self.draining {
            FaultDecision::Allow
        } else {
            FaultDecision::Park
        }
    }

    fn on_poll(&mut self, ctx: &mut SchedCtx<'_>) {
        // Kill any task monopolizing the device beyond the documented
        // limit; under a timeslice policy the culprit is always the
        // (current or draining) token holder.
        for task in ctx
            .overlong_tasks(self.params.overlong_limit)
            .into_iter()
            .flatten()
        {
            ctx.trace_with("overlong", || format!("killing {task}"));
            ctx.kill_task(task);
            self.remove_task(ctx, task);
        }
        self.try_finish_drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SchedCtx<'_>, tag: u32) {
        if tag != self.generation || self.holder.is_none() {
            return; // stale slice-end timer
        }
        // lint: allow(unchecked-unwrap) — guarded by the holder.is_none()
        // early-return above
        let holder = self.holder.expect("holder present");
        if self.disengaged {
            ctx.protect_task(holder);
        }
        self.draining = true;
        self.slice_end = ctx.now();
        // The drain may already be satisfied (idle holder).
        self.try_finish_drain(ctx);
    }

    fn on_completion(&mut self, _ctx: &mut SchedCtx<'_>, _done: &CompletedRequest) {
        // Drain progress is observed at polling granularity, not per
        // completion — that is the disengagement bargain.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::StatKey;
    use crate::workload::FixedLoop;
    use crate::world::{World, WorldConfig};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn run_two(
        disengaged: bool,
        a: SimDuration,
        b: SimDuration,
        horizon: SimDuration,
    ) -> crate::RunReport {
        let params = SchedParams::default();
        let sched = if disengaged {
            Timeslice::disengaged(params)
        } else {
            Timeslice::engaged(params)
        };
        let mut world = World::new(WorldConfig::default(), Box::new(sched));
        world
            .add_task(Box::new(FixedLoop::endless("a", a, SimDuration::ZERO)))
            .unwrap();
        world
            .add_task(Box::new(FixedLoop::endless("b", b, SimDuration::ZERO)))
            .unwrap();
        world.run(horizon)
    }

    #[test]
    fn names_reflect_variant() {
        let p = SchedParams::default();
        assert_eq!(Timeslice::engaged(p.clone()).name(), "timeslice");
        assert_eq!(Timeslice::disengaged(p).name(), "disengaged-ts");
    }

    #[test]
    fn token_alternation_gives_equal_shares() {
        for disengaged in [false, true] {
            let report = run_two(disengaged, us(50), us(800), SimDuration::from_millis(600));
            let ua = report.tasks[0].usage;
            let ub = report.tasks[1].usage;
            let ratio = ub.ratio(ua);
            assert!(
                (0.7..1.5).contains(&ratio),
                "disengaged={disengaged}: usage ratio {ratio:.2}"
            );
        }
    }

    #[test]
    fn engaged_variant_traps_every_submission() {
        let report = run_two(false, us(50), us(60), SimDuration::from_millis(200));
        assert_eq!(report.stats.get(StatKey::DirectSubmits), 0);
        let submitted: u64 = report.tasks.iter().map(|t| t.submitted_requests).sum();
        assert!(
            report.stats.get(StatKey::Faults) >= submitted,
            "each submission faults at least once"
        );
    }

    #[test]
    fn disengaged_variant_grants_direct_access_to_the_holder() {
        let report = run_two(true, us(50), us(60), SimDuration::from_millis(200));
        let submitted: u64 = report.tasks.iter().map(|t| t.submitted_requests).sum();
        assert!(
            report.stats.get(StatKey::DirectSubmits) > submitted * 9 / 10,
            "most submissions ({}/{submitted}) should bypass the kernel",
            report.stats.get(StatKey::DirectSubmits)
        );
    }

    #[test]
    fn overuse_is_charged_and_turns_are_skipped() {
        // Task b's requests (20ms) overrun the 30ms slice end by up to
        // 20ms every slice; the ledger must keep long-run shares fair.
        let report = run_two(
            true,
            us(100),
            SimDuration::from_millis(20),
            SimDuration::from_secs(1),
        );
        let ua = report.tasks[0].usage;
        let ub = report.tasks[1].usage;
        let ratio = ub.ratio(ua);
        assert!(
            (0.6..1.6).contains(&ratio),
            "overuse control failed: usage ratio {ratio:.2}"
        );
    }

    #[test]
    fn single_task_keeps_the_device() {
        let params = SchedParams::default();
        let mut world = World::new(
            WorldConfig::default(),
            Box::new(Timeslice::disengaged(params)),
        );
        world
            .add_task(Box::new(FixedLoop::endless(
                "solo",
                us(100),
                SimDuration::ZERO,
            )))
            .unwrap();
        let report = world.run(SimDuration::from_millis(300));
        // Token cycles back to the only task; overhead stays small.
        let rounds = report.tasks[0].rounds_completed();
        assert!(rounds > 2700, "only {rounds} rounds for a solo task");
    }

    #[test]
    fn overuse_ledger_arithmetic() {
        let mut ts = Timeslice::engaged(SchedParams::default());
        let t = TaskId::new(0);
        ts.overuse.insert(t, SimDuration::from_millis(70));
        // Two skips (30ms each) leave 10ms in the ledger.
        assert_eq!(ts.overuse_of(t), SimDuration::from_millis(70));
    }
}
