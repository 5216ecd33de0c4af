//! GPU channels: request queues with a direct-mapped submission
//! interface.
//!
//! A channel bundles the three virtual memory areas the paper's
//! initialization phase identifies — command buffer, ring buffer, and
//! channel register — into one model object. Submission is a write to
//! the channel register; completion is a device write to the channel's
//! reference counter. Requests on one channel are processed strictly in
//! order (the property NEON's post–re-engagement status update relies
//! on).

use std::collections::VecDeque;

use neon_sim::SimTime;

use crate::ids::{ChannelId, ContextId, TaskId};
use crate::request::{Request, RequestKind};

/// Lifecycle state of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Mapped and usable.
    Active,
    /// Torn down (task exit or kill); retained for accounting.
    Destroyed,
}

/// One GPU request queue and its bookkeeping.
#[derive(Debug, Clone)]
pub struct Channel {
    id: ChannelId,
    context: ContextId,
    task: TaskId,
    kind: RequestKind,
    state: ChannelState,
    /// Channels can be masked off from arbitration by the OS (used by
    /// preemption support, §6.2): a disabled channel keeps its queued
    /// requests but the engine will not dispatch from it.
    enabled: bool,
    ring: VecDeque<Request>,
    ring_capacity: usize,
    /// Reference number assigned to the next submitted request.
    next_reference: u64,
    /// Value last written by the device on completion ("the reference
    /// counter" the kernel polls).
    completed_reference: u64,
    /// Reference number of the most recently submitted request; what the
    /// kernel discovers by scanning the command queue on re-engagement.
    last_submitted_reference: u64,
    /// Completion count, for activity detection across intervals.
    completions: u64,
    /// Time of the most recent submission (for activity detection).
    last_submission_at: Option<SimTime>,
}

impl Channel {
    /// Creates an active, empty channel.
    pub fn new(
        id: ChannelId,
        context: ContextId,
        task: TaskId,
        kind: RequestKind,
        ring_capacity: usize,
    ) -> Self {
        assert!(ring_capacity > 0, "ring capacity must be positive");
        Channel {
            id,
            context,
            task,
            kind,
            state: ChannelState::Active,
            enabled: true,
            ring: VecDeque::new(),
            ring_capacity,
            next_reference: 1,
            completed_reference: 0,
            last_submitted_reference: 0,
            completions: 0,
            last_submission_at: None,
        }
    }

    /// The channel id.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The owning context.
    pub fn context(&self) -> ContextId {
        self.context
    }

    /// The owning task.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The work class this channel carries.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Lifecycle state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// `true` if the channel is usable.
    pub fn is_active(&self) -> bool {
        self.state == ChannelState::Active
    }

    /// `true` if the engine may dispatch from this channel.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Masks the channel on or off from engine arbitration.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns a preempted request to the head of the queue (hardware
    /// preemption support, §6.2). The request keeps its reference
    /// number: it has not completed.
    pub(crate) fn requeue_front(&mut self, request: Request) {
        debug_assert!(request.reference <= self.last_submitted_reference);
        self.ring.push_front(request);
    }

    /// Number of queued (not yet dispatched) requests.
    pub fn queued(&self) -> usize {
        self.ring.len()
    }

    /// `true` if the ring buffer cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.ring.len() >= self.ring_capacity
    }

    /// `true` if no requests are queued.
    pub fn is_quiesced(&self) -> bool {
        self.ring.is_empty()
    }

    /// The reference counter value (written by the device on each
    /// completion). This models the shared-memory word the kernel's
    /// polling thread reads.
    pub fn completed_reference(&self) -> u64 {
        self.completed_reference
    }

    /// The reference number of the last submitted request — what NEON
    /// finds by traversing the in-memory command queue structures.
    pub fn last_submitted_reference(&self) -> u64 {
        self.last_submitted_reference
    }

    /// Total completions on this channel.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Time of the most recent submission, if any.
    pub fn last_submission_at(&self) -> Option<SimTime> {
        self.last_submission_at
    }

    /// `true` if every submitted request has completed (the drain
    /// condition the kernel checks via reference counters).
    pub fn drained(&self) -> bool {
        self.completed_reference == self.last_submitted_reference
    }

    /// Assigns the next reference number and enqueues the request body
    /// built by `build`. Returns the assigned reference.
    ///
    /// # Panics
    ///
    /// Panics if the channel is destroyed or the ring is full (callers
    /// check [`Channel::is_full`] first; the task models bound their
    /// pipeline depth below the ring capacity).
    #[inline]
    pub(crate) fn enqueue(&mut self, now: SimTime, build: impl FnOnce(u64) -> Request) -> u64 {
        assert!(self.is_active(), "submit on destroyed channel {}", self.id);
        assert!(!self.is_full(), "ring overflow on channel {}", self.id);
        let reference = self.next_reference;
        self.next_reference += 1;
        self.last_submitted_reference = reference;
        self.last_submission_at = Some(now);
        self.ring.push_back(build(reference));
        reference
    }

    /// Removes the head-of-line request for dispatch.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<Request> {
        self.ring.pop_front()
    }

    /// Peeks the head-of-line request (e.g. for aging decisions).
    pub fn front(&self) -> Option<&Request> {
        self.ring.front()
    }

    /// Records a completion: the device writes `reference` to the
    /// channel's reference counter.
    #[inline]
    pub(crate) fn record_completion(&mut self, reference: u64) {
        debug_assert!(
            reference > self.completed_reference,
            "in-order completion violated on {}",
            self.id
        );
        self.completed_reference = reference;
        self.completions += 1;
    }

    /// Tears the channel down, dropping queued requests. Returns the
    /// number of requests discarded.
    pub(crate) fn destroy(&mut self) -> usize {
        self.state = ChannelState::Destroyed;
        let dropped = self.ring.len();
        self.ring.clear();
        // Fast-forward the counter so drain checks on a dead channel
        // succeed, mirroring the driver's exit protocol cleanup.
        self.completed_reference = self.last_submitted_reference;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SubmitSpec;
    use neon_sim::SimDuration;

    fn mk_channel() -> Channel {
        Channel::new(
            ChannelId::new(0),
            ContextId::new(0),
            TaskId::new(0),
            RequestKind::Compute,
            4,
        )
    }

    fn mk_request(reference: u64) -> Request {
        let spec = SubmitSpec::compute(SimDuration::from_micros(10));
        Request {
            id: crate::ids::RequestId::new(reference),
            task: TaskId::new(0),
            context: ContextId::new(0),
            channel: ChannelId::new(0),
            kind: spec.kind,
            service: spec.service,
            blocking: spec.blocking,
            submitted_at: SimTime::ZERO,
            reference,
        }
    }

    #[test]
    fn references_are_sequential_from_one() {
        let mut ch = mk_channel();
        let r1 = ch.enqueue(SimTime::ZERO, mk_request);
        let r2 = ch.enqueue(SimTime::ZERO, mk_request);
        assert_eq!((r1, r2), (1, 2));
        assert_eq!(ch.last_submitted_reference(), 2);
        assert_eq!(ch.completed_reference(), 0);
    }

    #[test]
    fn drain_tracks_reference_counter() {
        let mut ch = mk_channel();
        assert!(ch.drained(), "empty channel is drained");
        ch.enqueue(SimTime::ZERO, mk_request);
        assert!(!ch.drained());
        ch.pop_front().unwrap();
        ch.record_completion(1);
        assert!(ch.drained());
        assert_eq!(ch.completions(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ch = mk_channel();
        for _ in 0..3 {
            ch.enqueue(SimTime::ZERO, mk_request);
        }
        let refs: Vec<u64> = std::iter::from_fn(|| ch.pop_front().map(|r| r.reference)).collect();
        assert_eq!(refs, vec![1, 2, 3]);
    }

    #[test]
    fn ring_capacity_is_enforced() {
        let mut ch = mk_channel();
        for _ in 0..4 {
            ch.enqueue(SimTime::ZERO, mk_request);
        }
        assert!(ch.is_full());
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut ch = mk_channel();
        for _ in 0..5 {
            ch.enqueue(SimTime::ZERO, mk_request);
        }
    }

    #[test]
    fn destroy_clears_and_settles_counters() {
        let mut ch = mk_channel();
        ch.enqueue(SimTime::ZERO, mk_request);
        ch.enqueue(SimTime::ZERO, mk_request);
        let dropped = ch.destroy();
        assert_eq!(dropped, 2);
        assert!(!ch.is_active());
        assert!(ch.drained(), "destroyed channel must read as drained");
    }

    #[test]
    fn last_submission_time_recorded() {
        let mut ch = mk_channel();
        assert_eq!(ch.last_submission_at(), None);
        let t = SimTime::from_micros(5);
        ch.enqueue(t, mk_request);
        assert_eq!(ch.last_submission_at(), Some(t));
    }

    #[test]
    #[should_panic(expected = "destroyed channel")]
    fn submit_after_destroy_panics() {
        let mut ch = mk_channel();
        ch.destroy();
        ch.enqueue(SimTime::ZERO, mk_request);
    }
}
