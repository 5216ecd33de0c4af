//! Execution engines.
//!
//! The modeled device has two independent engines: a compute/graphics
//! engine (weighted round-robin over channels) and a DMA engine (FIFO).
//! Their independence is what lets DMA transfers overlap computation and
//! push concurrency efficiency above 1.0 (Fig. 7's ">1.0" cases).

use neon_sim::{SimDuration, SimTime};

use crate::ids::ContextId;
use crate::request::Request;

/// Which engine executes a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineClass {
    /// Executes compute and graphics requests.
    Compute,
    /// Executes DMA transfers, concurrently with the compute engine.
    Dma,
}

impl EngineClass {
    /// Both engine classes, for exhaustive iteration.
    pub const ALL: [EngineClass; 2] = [EngineClass::Compute, EngineClass::Dma];
}

/// A request currently executing on an engine.
#[derive(Debug, Clone, Copy)]
pub struct RunningRequest {
    /// The request being executed.
    pub request: Request,
    /// When the engine was handed the request (context-switch penalty,
    /// if any, begins here).
    pub dispatched_at: SimTime,
    /// When execution proper began (after any context-switch penalty).
    pub started_at: SimTime,
    /// When the engine will finish ([`SimTime::MAX`] for unbounded
    /// requests).
    pub finish_at: SimTime,
}

/// One execution engine: at most one request in flight.
#[derive(Debug, Clone, Default)]
pub(crate) struct Engine {
    running: Option<RunningRequest>,
    /// Context of the most recently executed request; a context switch
    /// penalty applies when the next request differs.
    last_context: Option<ContextId>,
    /// Cumulative busy time (service + context switches) for utilization
    /// accounting.
    busy: SimDuration,
}

impl Engine {
    pub(crate) fn is_idle(&self) -> bool {
        self.running.is_none()
    }

    pub(crate) fn running(&self) -> Option<&RunningRequest> {
        self.running.as_ref()
    }

    #[cfg(test)]
    pub(crate) fn last_context(&self) -> Option<ContextId> {
        self.last_context
    }

    pub(crate) fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Begins executing `request` at `now`, charging `switch_cost` if the
    /// context differs from the previous request's. Returns the finish
    /// time.
    #[inline]
    pub(crate) fn start(
        &mut self,
        now: SimTime,
        request: Request,
        switch_cost: SimDuration,
    ) -> SimTime {
        debug_assert!(self.is_idle(), "engine already busy");
        let switching = self.last_context != Some(request.context);
        let penalty = if switching {
            switch_cost
        } else {
            SimDuration::ZERO
        };
        let started_at = now + penalty;
        let finish_at = if request.is_unbounded() {
            SimTime::MAX
        } else {
            started_at + request.service
        };
        self.last_context = Some(request.context);
        self.running = Some(RunningRequest {
            request,
            dispatched_at: now,
            started_at,
            finish_at,
        });
        finish_at
    }

    /// Completes the in-flight request at `now`, accumulating busy time.
    ///
    /// # Panics
    ///
    /// Panics if the engine is idle.
    #[inline]
    pub(crate) fn finish(&mut self, now: SimTime) -> RunningRequest {
        // lint: allow(unchecked-unwrap) — a finish event is only scheduled
        // while a run is in flight
        let run = self.running.take().expect("finish on idle engine");
        debug_assert_eq!(now, run.finish_at, "completion fired at wrong time");
        // Busy time covers the context-switch penalty plus the service.
        self.busy += now.saturating_duration_since(run.dispatched_at);
        run
    }

    /// Aborts the in-flight request at `now` (task kill). The elapsed
    /// portion still counts as busy time. Returns the aborted request.
    pub(crate) fn abort(&mut self, now: SimTime) -> Option<RunningRequest> {
        let run = self.running.take()?;
        self.busy += now.saturating_duration_since(run.dispatched_at);
        // The kill leaves the device needing a fresh context load.
        self.last_context = None;
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, RequestId, TaskId};
    use crate::request::{RequestKind, SubmitSpec};

    fn mk_request(ctx: u32, service_us: u64) -> Request {
        let spec = if service_us == u64::MAX {
            SubmitSpec::infinite_loop()
        } else {
            SubmitSpec::compute(SimDuration::from_micros(service_us))
        };
        Request {
            id: RequestId::new(0),
            task: TaskId::new(0),
            context: ContextId::new(ctx),
            channel: ChannelId::new(0),
            kind: RequestKind::Compute,
            service: spec.service,
            blocking: spec.blocking,
            submitted_at: SimTime::ZERO,
            reference: 1,
        }
    }

    const SWITCH: SimDuration = SimDuration::from_micros(4);

    #[test]
    fn first_request_pays_context_switch() {
        let mut eng = Engine::default();
        let finish = eng.start(SimTime::ZERO, mk_request(0, 10), SWITCH);
        assert_eq!(finish, SimTime::from_micros(14));
    }

    #[test]
    fn same_context_back_to_back_skips_switch() {
        let mut eng = Engine::default();
        let f1 = eng.start(SimTime::ZERO, mk_request(0, 10), SWITCH);
        eng.finish(f1);
        let f2 = eng.start(f1, mk_request(0, 10), SWITCH);
        assert_eq!(f2, f1 + SimDuration::from_micros(10));
    }

    #[test]
    fn context_change_pays_switch() {
        let mut eng = Engine::default();
        let f1 = eng.start(SimTime::ZERO, mk_request(0, 10), SWITCH);
        eng.finish(f1);
        let f2 = eng.start(f1, mk_request(1, 10), SWITCH);
        assert_eq!(f2, f1 + SimDuration::from_micros(14));
    }

    #[test]
    fn unbounded_request_never_finishes() {
        let mut eng = Engine::default();
        let finish = eng.start(SimTime::ZERO, mk_request(0, u64::MAX), SWITCH);
        assert_eq!(finish, SimTime::MAX);
        assert!(!eng.is_idle());
    }

    #[test]
    fn abort_frees_engine_and_clears_context() {
        let mut eng = Engine::default();
        eng.start(SimTime::ZERO, mk_request(0, u64::MAX), SWITCH);
        let aborted = eng.abort(SimTime::from_micros(100)).unwrap();
        assert!(aborted.request.is_unbounded());
        assert!(eng.is_idle());
        assert_eq!(eng.last_context(), None);
        // All 100µs (switch + partial execution) count as busy time.
        assert_eq!(eng.busy(), SimDuration::from_micros(100));
    }

    #[test]
    fn abort_on_idle_engine_is_none() {
        let mut eng = Engine::default();
        assert!(eng.abort(SimTime::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "finish on idle engine")]
    fn finish_on_idle_panics() {
        let mut eng = Engine::default();
        eng.finish(SimTime::ZERO);
    }
}
