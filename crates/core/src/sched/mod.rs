//! The scheduler interface and the policy implementations.
//!
//! A [`Scheduler`] is a passive policy object driven by the simulation
//! [`World`](crate::world::World) through a small set of events — page
//! faults on protected channel registers, polling-thread ticks, policy
//! timers, and (when the policy is entitled to synchronous knowledge,
//! i.e. during engaged operation) request completions. The policy acts
//! on the system exclusively through [`SchedCtx`]:
//! protecting/unprotecting channel-register pages, waking parked tasks,
//! arming timers, and killing misbehaving tasks.
//!
//! This is precisely the interface the paper argues vendors should
//! document (§6.1): scheduling events plus per-channel reference
//! counters, with no visibility into request payloads.

mod dfq;
mod direct;
mod drr;
mod sfq;
mod timeslice;

pub use dfq::DisengagedFairQueueing;
pub use direct::DirectAccess;
pub use drr::EngagedDrr;
pub use sfq::EngagedSfq;
pub use timeslice::Timeslice;

use neon_gpu::{ChannelId, CompletedRequest, TaskId};

use crate::cost::SchedParams;
use crate::world::SchedCtx;

/// What to do with an intercepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Let the submission proceed (the faulting instruction is
    /// single-stepped; the page stays protected unless the policy
    /// unprotects it).
    Allow,
    /// Park the task; the submission is retried when the policy wakes
    /// the task via [`SchedCtx::wake_task`].
    Park,
}

/// A scheduling policy.
///
/// All methods receive a [`SchedCtx`] giving controlled access to the
/// kernel-observable system state.
pub trait Scheduler {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Called once before the simulation starts, after all initial
    /// tasks are admitted.
    fn init(&mut self, ctx: &mut SchedCtx<'_>);

    /// A task joined (its context and channels exist).
    fn on_task_admitted(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId);

    /// A task exited gracefully.
    fn on_task_exit(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId);

    /// A submission faulted on a protected channel register.
    fn on_fault(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        task: TaskId,
        channel: ChannelId,
    ) -> FaultDecision;

    /// Periodic polling-thread tick (reference-counter scan).
    fn on_poll(&mut self, ctx: &mut SchedCtx<'_>);

    /// A policy timer armed via [`SchedCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut SchedCtx<'_>, tag: u64);

    /// A request completed. Policies must only act on this during
    /// engaged operation (per-request interception or sampling), when
    /// the real system would learn of completions through prompted
    /// polling; disengaged accounting must rely on reference counters
    /// read at polls.
    fn on_completion(&mut self, ctx: &mut SchedCtx<'_>, done: &CompletedRequest);
}

/// The scheduling policies available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// No OS involvement: the vendor's direct-access baseline.
    Direct,
    /// Token-based timeslice with overuse control; every request
    /// intercepted (§3.1).
    Timeslice,
    /// Disengaged Timeslice: the token holder runs unintercepted (§3.2).
    DisengagedTimeslice,
    /// Disengaged Fair Queueing (§3.3).
    DisengagedFairQueueing,
    /// Disengaged Fair Queueing with vendor-provided hardware usage
    /// statistics — the §6.1 production mode the paper anticipates:
    /// exact accounting, no sampling, no barrier.
    DisengagedFairQueueingVendor,
    /// Engaged start-time fair queueing baseline (classic per-request
    /// FQ from the related-work family; used in ablations).
    EngagedSfq,
    /// Engaged deficit-round-robin baseline (GERM-style; ablations).
    EngagedDrr,
}

impl SchedulerKind {
    /// Every policy, for exhaustive sweeps.
    pub const ALL: [SchedulerKind; 7] = [
        SchedulerKind::Direct,
        SchedulerKind::Timeslice,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::DisengagedFairQueueing,
        SchedulerKind::DisengagedFairQueueingVendor,
        SchedulerKind::EngagedSfq,
        SchedulerKind::EngagedDrr,
    ];

    /// The four policies evaluated in the paper's figures.
    pub const PAPER: [SchedulerKind; 4] = [
        SchedulerKind::Direct,
        SchedulerKind::Timeslice,
        SchedulerKind::DisengagedTimeslice,
        SchedulerKind::DisengagedFairQueueing,
    ];

    /// Instantiates the policy with the given parameters.
    pub fn build(self, params: SchedParams) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Direct => Box::new(DirectAccess::new()),
            SchedulerKind::Timeslice => Box::new(Timeslice::engaged(params)),
            SchedulerKind::DisengagedTimeslice => Box::new(Timeslice::disengaged(params)),
            SchedulerKind::DisengagedFairQueueing => Box::new(DisengagedFairQueueing::new(params)),
            SchedulerKind::DisengagedFairQueueingVendor => {
                Box::new(DisengagedFairQueueing::new(params).with_vendor_statistics())
            }
            SchedulerKind::EngagedSfq => Box::new(EngagedSfq::new(params)),
            SchedulerKind::EngagedDrr => Box::new(EngagedDrr::new(params)),
        }
    }

    /// Parses the [`SchedulerKind::label`] form back into a kind
    /// (scenario files and CLI arguments name policies by label).
    pub fn from_label(label: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Direct => "direct",
            SchedulerKind::Timeslice => "timeslice",
            SchedulerKind::DisengagedTimeslice => "disengaged-ts",
            SchedulerKind::DisengagedFairQueueing => "disengaged-fq",
            SchedulerKind::DisengagedFairQueueingVendor => "disengaged-fq-hw",
            SchedulerKind::EngagedSfq => "engaged-sfq",
            SchedulerKind::EngagedDrr => "engaged-drr",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A scheduler that does nothing; placeholder during dispatch and a
/// useful null object in tests.
#[derive(Debug, Default)]
pub(crate) struct NullScheduler;

impl Scheduler for NullScheduler {
    fn name(&self) -> &'static str {
        "null"
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
        FaultDecision::Allow
    }
    fn on_poll(&mut self, _ctx: &mut SchedCtx<'_>) {}
    fn on_timer(&mut self, _ctx: &mut SchedCtx<'_>, _tag: u64) {}
    fn on_completion(&mut self, _ctx: &mut SchedCtx<'_>, _done: &CompletedRequest) {}
}
