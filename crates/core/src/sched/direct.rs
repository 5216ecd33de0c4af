//! Direct device access: the vendor baseline with no OS involvement.
//!
//! No channel is ever protected, so no submission ever faults and the
//! device arbitrates among channels by itself (weighted round-robin by
//! request count) — fast, work-conserving, and unfair, exactly as the
//! paper's §5.3 direct-access columns show.

use neon_gpu::{ChannelId, CompletedRequest, TaskId};

use crate::sched::{FaultDecision, SchedCtx, Scheduler};

/// The no-scheduling baseline.
#[derive(Debug, Default)]
pub struct DirectAccess {
    _private: (),
}

impl DirectAccess {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        DirectAccess::default()
    }
}

impl Scheduler for DirectAccess {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn init(&mut self, _ctx: &mut SchedCtx<'_>) {}

    fn on_task_admitted(&mut self, _ctx: &mut SchedCtx<'_>, _task: TaskId) {}

    fn on_task_exit(&mut self, _ctx: &mut SchedCtx<'_>, _task: TaskId) {}

    fn on_fault(
        &mut self,
        _ctx: &mut SchedCtx<'_>,
        _task: TaskId,
        _channel: ChannelId,
    ) -> FaultDecision {
        // Nothing is protected under direct access; a fault would be a
        // driver bug. Permit it so the system makes progress anyway.
        FaultDecision::Allow
    }

    fn on_poll(&mut self, _ctx: &mut SchedCtx<'_>) {}

    fn on_timer(&mut self, _ctx: &mut SchedCtx<'_>, _tag: u32) {}

    fn on_completion(&mut self, _ctx: &mut SchedCtx<'_>, _done: &CompletedRequest) {}
}
