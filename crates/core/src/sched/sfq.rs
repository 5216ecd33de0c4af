//! Engaged start-time fair queueing baseline.
//!
//! A classic fair-queueing scheduler from the family the paper cites
//! ([10, 14, 18, 30, 33]): every submission is intercepted, tagged with
//! a start tag `max(v, finish(task))` and a finish tag
//! `start + estimated service`, and dispatched in start-tag order with
//! a single request outstanding. It provides excellent fairness but
//! pays the per-request kernel-crossing cost on a fast accelerator —
//! the overhead disengaged scheduling exists to avoid. Included for the
//! ablation benchmarks, not as a paper figure.

use std::collections::BTreeMap;

use neon_gpu::{ChannelId, CompletedRequest, TaskId};
use neon_sim::SimTime;

use crate::cost::SchedParams;
use crate::sched::{FaultDecision, SchedCtx, Scheduler};

/// Virtual-time unit: microseconds as f64.
type Tag = f64;

/// The engaged SFQ baseline policy.
#[derive(Debug)]
pub struct EngagedSfq {
    params: SchedParams,
    /// Global virtual time: start tag of the last dispatched request.
    vtime: Tag,
    /// Per-task finish tag of its most recent request.
    finish: BTreeMap<TaskId, Tag>,
    /// Per-task estimated service (µs), updated from observations.
    estimate: BTreeMap<TaskId, f64>,
    /// Tasks with a parked submission, with their start tags.
    waiting: BTreeMap<TaskId, Tag>,
    /// Requests currently allowed onto the device.
    in_flight: usize,
    /// Dispatch time of the in-flight request, for estimate updates.
    dispatched_at: Option<(TaskId, SimTime)>,
}

/// Initial service estimate before any observation (µs).
const DEFAULT_ESTIMATE_US: f64 = 100.0;

impl EngagedSfq {
    /// Creates the baseline with the given parameters.
    pub fn new(params: SchedParams) -> Self {
        EngagedSfq {
            params,
            vtime: 0.0,
            finish: BTreeMap::new(),
            estimate: BTreeMap::new(),
            waiting: BTreeMap::new(),
            in_flight: 0,
            dispatched_at: None,
        }
    }

    fn start_tag(&self, task: TaskId) -> Tag {
        self.finish
            .get(&task)
            .copied()
            .unwrap_or(0.0)
            .max(self.vtime)
    }

    fn admit(&mut self, task: TaskId, now: SimTime) {
        let start = self.start_tag(task);
        let est = self
            .estimate
            .get(&task)
            .copied()
            .unwrap_or(DEFAULT_ESTIMATE_US);
        self.vtime = start;
        self.finish.insert(task, start + est);
        self.in_flight += 1;
        self.dispatched_at = Some((task, now));
    }

    fn wake_best(&mut self, ctx: &mut SchedCtx<'_>) {
        if self.in_flight > 0 {
            return;
        }
        // Among parked submitters, wake the one with the least start
        // tag; its retried fault is then admitted.
        // BTreeMap iteration is key-ordered, so ties on the start tag
        // break deterministically toward the lower task id.
        let best = self
            .waiting
            .iter()
            .min_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(b.0))
            })
            .map(|(&t, _)| t);
        if let Some(t) = best {
            self.waiting.remove(&t);
            ctx.wake_task(t);
        }
    }
}

impl Scheduler for EngagedSfq {
    fn name(&self) -> &'static str {
        "engaged-sfq"
    }

    fn init(&mut self, _ctx: &mut SchedCtx<'_>) {}

    fn on_task_admitted(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        ctx.protect_task(task);
        self.finish.insert(task, 0.0);
    }

    fn on_task_exit(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) {
        self.finish.remove(&task);
        self.estimate.remove(&task);
        self.waiting.remove(&task);
        if self.dispatched_at.map(|(t, _)| t) == Some(task) {
            self.dispatched_at = None;
            self.in_flight = self.in_flight.saturating_sub(1);
            self.wake_best(ctx);
        }
    }

    fn on_fault(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        task: TaskId,
        _channel: ChannelId,
    ) -> FaultDecision {
        if self.in_flight == 0 {
            let is_min = self
                .waiting
                .values()
                .all(|&w| self.start_tag(task) <= w + f64::EPSILON);
            if is_min {
                self.admit(task, ctx.now());
                return FaultDecision::Allow;
            }
        }
        self.waiting.insert(task, self.start_tag(task));
        FaultDecision::Park
    }

    fn on_poll(&mut self, ctx: &mut SchedCtx<'_>) {
        for task in ctx
            .overlong_tasks(self.params.overlong_limit)
            .into_iter()
            .flatten()
        {
            ctx.kill_task(task);
            self.on_task_exit(ctx, task);
        }
        // Defensive: if nothing is in flight but someone waits, wake.
        self.wake_best(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut SchedCtx<'_>, _tag: u32) {}

    fn on_completion(&mut self, ctx: &mut SchedCtx<'_>, done: &CompletedRequest) {
        // Per-request engagement entitles SFQ to exact completion
        // knowledge (prompted polling).
        if self.dispatched_at.map(|(t, _)| t) == Some(done.task) {
            self.dispatched_at = None;
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        let observed = done.occupancy.as_micros_f64();
        let est = self
            .estimate
            .entry(done.task)
            .or_insert(DEFAULT_ESTIMATE_US);
        // Exponentially weighted estimate, as interposed FQ schedulers use.
        *est = 0.75 * *est + 0.25 * observed;
        self.wake_best(ctx);
    }
}
