//! The workload interface: how applications drive the accelerator.
//!
//! A [`Workload`] is a generator of [`TaskAction`]s — CPU work, request
//! submissions, synchronization points, and round boundaries. The
//! simulation driver executes the actions, charging the appropriate
//! submission costs and blocking the task where the model says it
//! blocks. Concrete application models (the paper's Table 1 benchmarks,
//! the Throttle microbenchmark, adversaries) live in `neon-workloads`.

use neon_gpu::{RequestKind, SubmitSpec};
use neon_sim::{DetRng, SimDuration};

/// Index of a logical request queue within a task (0-based). Each queue
/// maps to one GPU channel; most applications use a single queue, while
/// combined compute+graphics applications (oclParticles,
/// simpleTexture3D) use one per request class.
pub type QueueIndex = usize;

/// One step of an application's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskAction {
    /// Spend CPU time (computation or sleep) before the next action.
    CpuWork(SimDuration),
    /// Submit a request on the given logical queue. If the spec is
    /// blocking, the task waits for this request's completion before
    /// its next action.
    Submit {
        /// Logical queue to submit on.
        queue: QueueIndex,
        /// Request parameters.
        spec: SubmitSpec,
    },
    /// Wait until every outstanding request by this task completes
    /// (round barrier).
    WaitAll,
    /// Mark the end of a performance "round" (an algorithm iteration or
    /// a rendered frame); the driver records the round time.
    EndRound,
    /// The task exits (releases its device resources).
    Done,
}

/// A generative application model.
///
/// Implementations must be deterministic given the [`DetRng`] handed to
/// [`Workload::next_action`], and `Send`: a multi-host
/// [`Fleet`](crate::fleet::Fleet) may run a host's world, and with it
/// every workload staged there, on another thread.
pub trait Workload: Send {
    /// Human-readable application name (used in reports).
    fn name(&self) -> &str;

    /// The request class of each logical queue. One GPU channel is
    /// created per entry at task admission.
    fn queues(&self) -> Vec<RequestKind>;

    /// Maximum requests the task keeps in flight before it stalls
    /// waiting for a completion (models the user library's pipelining
    /// depth / ring back-pressure).
    fn max_outstanding(&self) -> usize {
        8
    }

    /// Size of the task's device-resident working set in bytes — the
    /// data that must move when the task is migrated to another device
    /// (or staged from host memory at admission). Topology-aware
    /// placement and migration charge `working_set × link tier` for
    /// the movement; on flat (free-interconnect) topologies the value
    /// is inert. Defaults to 64 MiB; wrap a workload in
    /// [`WithWorkingSet`] to override without touching the model.
    fn working_set_bytes(&self) -> u64 {
        64 << 20
    }

    /// Produces the next behaviour step.
    fn next_action(&mut self, rng: &mut DetRng) -> TaskAction;

    /// Clones the workload behind a box, in its *initial* state-machine
    /// position if possible (used by experiments to run the same
    /// application both alone and in a mix).
    fn box_clone(&self) -> BoxedWorkload;
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A boxed workload, as stored by the simulation driver.
pub type BoxedWorkload = Box<dyn Workload>;

/// Decorates a workload with an explicit working-set size, leaving
/// every other behaviour untouched. Scenario files use this to control
/// how expensive a tenant group is to migrate across the topology.
pub struct WithWorkingSet {
    inner: BoxedWorkload,
    bytes: u64,
}

impl WithWorkingSet {
    /// Wraps `inner`, overriding its working set to `bytes`.
    pub fn new(inner: BoxedWorkload, bytes: u64) -> Self {
        WithWorkingSet { inner, bytes }
    }
}

impl Workload for WithWorkingSet {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn queues(&self) -> Vec<RequestKind> {
        self.inner.queues()
    }

    fn max_outstanding(&self) -> usize {
        self.inner.max_outstanding()
    }

    fn working_set_bytes(&self) -> u64 {
        self.bytes
    }

    fn next_action(&mut self, rng: &mut DetRng) -> TaskAction {
        self.inner.next_action(rng)
    }

    fn box_clone(&self) -> BoxedWorkload {
        Box::new(WithWorkingSet {
            inner: self.inner.box_clone(),
            bytes: self.bytes,
        })
    }
}

/// A trivial workload for tests: issues `count` blocking compute
/// requests of fixed `service`, separated by `gap` CPU time, one
/// request per round, then exits (or loops forever if `count` is
/// `None`).
#[derive(Debug, Clone)]
pub struct FixedLoop {
    name: String,
    service: SimDuration,
    gap: SimDuration,
    remaining: Option<u64>,
    phase: u8,
}

impl FixedLoop {
    /// A finite loop of `count` requests.
    pub fn new(
        name: impl Into<String>,
        service: SimDuration,
        gap: SimDuration,
        count: u64,
    ) -> Self {
        FixedLoop {
            name: name.into(),
            service,
            gap,
            remaining: Some(count),
            phase: 0,
        }
    }

    /// An endless loop.
    pub fn endless(name: impl Into<String>, service: SimDuration, gap: SimDuration) -> Self {
        FixedLoop {
            name: name.into(),
            service,
            gap,
            remaining: None,
            phase: 0,
        }
    }
}

impl Workload for FixedLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn queues(&self) -> Vec<RequestKind> {
        vec![RequestKind::Compute]
    }

    fn box_clone(&self) -> BoxedWorkload {
        Box::new(self.clone())
    }

    fn next_action(&mut self, _rng: &mut DetRng) -> TaskAction {
        match self.phase {
            0 => {
                if let Some(n) = self.remaining {
                    if n == 0 {
                        return TaskAction::Done;
                    }
                    self.remaining = Some(n - 1);
                }
                self.phase = 1;
                TaskAction::Submit {
                    queue: 0,
                    spec: SubmitSpec::compute(self.service),
                }
            }
            1 => {
                self.phase = 2;
                TaskAction::EndRound
            }
            _ => {
                self.phase = 0;
                if self.gap.is_zero() {
                    // Skip the no-op CPU step entirely.
                    self.next_action(_rng)
                } else {
                    TaskAction::CpuWork(self.gap)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_loop_emits_expected_cycle() {
        let mut w = FixedLoop::new(
            "t",
            SimDuration::from_micros(10),
            SimDuration::from_micros(5),
            2,
        );
        let mut rng = DetRng::seed_from(0);
        let a1 = w.next_action(&mut rng);
        assert!(matches!(a1, TaskAction::Submit { queue: 0, .. }));
        assert_eq!(w.next_action(&mut rng), TaskAction::EndRound);
        assert_eq!(
            w.next_action(&mut rng),
            TaskAction::CpuWork(SimDuration::from_micros(5))
        );
        assert!(matches!(w.next_action(&mut rng), TaskAction::Submit { .. }));
        assert_eq!(w.next_action(&mut rng), TaskAction::EndRound);
        let _gap = w.next_action(&mut rng);
        assert_eq!(w.next_action(&mut rng), TaskAction::Done);
    }

    #[test]
    fn zero_gap_skips_cpu_step() {
        let mut w = FixedLoop::new("t", SimDuration::from_micros(10), SimDuration::ZERO, 5);
        let mut rng = DetRng::seed_from(0);
        w.next_action(&mut rng); // submit
        w.next_action(&mut rng); // end round
        assert!(matches!(w.next_action(&mut rng), TaskAction::Submit { .. }));
    }

    #[test]
    fn endless_never_finishes() {
        let mut w = FixedLoop::endless("t", SimDuration::from_micros(1), SimDuration::ZERO);
        let mut rng = DetRng::seed_from(0);
        for _ in 0..100 {
            assert_ne!(w.next_action(&mut rng), TaskAction::Done);
        }
    }

    #[test]
    fn default_pipeline_depth() {
        let w = FixedLoop::endless("t", SimDuration::from_micros(1), SimDuration::ZERO);
        assert_eq!(w.max_outstanding(), 8);
        assert_eq!(w.queues(), vec![RequestKind::Compute]);
    }
}
