//! Parallel execution of scenario sweeps.
//!
//! A sweep is the cross product of scenarios × schedulers × placements
//! × fleet placements × rebalance policies × seeds. Every cell is an
//! independent,
//! deterministic simulation, so cells fan out perfectly across OS
//! threads. The runner is a **work-stealing** scheme over scoped
//! `std::thread` workers:
//!
//! - The plan is pre-chunked into per-worker deques, contiguous in
//!   plan order and weighted by a per-cell cost estimate
//!   (horizon × member count ≈ simulated events), so workers start on
//!   balanced shares without any shared counter.
//! - A worker drains its own deque from the front; when empty, it
//!   steals one cell from the *back* of the busiest victim's deque.
//! - Each worker runs its cells through one [`CellRunner`], which
//!   recycles its host [`World`](neon_core::world::World)s — one, or as
//!   many as the widest fleet cell — across cells, and buffers results
//!   in its own pre-sized `Vec` — no per-cell locking. Buffers are merged
//!   into plan order once, at the end.
//!
//! Determinism comes from the *output discipline*, not the execution
//! order: every cell is seeded independently of which worker runs it,
//! and results are reassembled in plan order, so any thread count —
//! including the serial path — produces identical results.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use neon_core::fault::FaultMode;
use neon_core::fleet::FleetPlacementKind;
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;

use crate::driver::{CellResult, CellRunner};
use crate::spec::ScenarioSpec;

/// One cell of a sweep plan.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The scenario (shared across its cells).
    pub spec: Arc<ScenarioSpec>,
    /// Policy under test.
    pub scheduler: SchedulerKind,
    /// Placement policy under test.
    pub placement: PlacementKind,
    /// Fleet (cross-host) placement policy under test. A label-only
    /// pass-through for single-host scenarios.
    pub fleet_placement: FleetPlacementKind,
    /// Rebalancing policy under test.
    pub rebalance: RebalanceKind,
    /// Fault categories this cell injects from the scenario's fault
    /// schedule ([`FaultMode::None`] for fault-free scenarios).
    pub faults: FaultMode,
    /// Seed for this cell.
    pub seed: u64,
}

/// Expands scenarios into their full cell matrix, in deterministic
/// order (scenario-major, then scheduler, then placement, then fleet
/// placement, then rebalance, then fault mode, then seed). Fault-free
/// scenarios contribute a single [`FaultMode::None`] entry on that
/// axis, so their plans are unchanged by its existence.
pub fn plan(specs: impl IntoIterator<Item = ScenarioSpec>) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for spec in specs {
        let fault_modes = spec.effective_fault_modes();
        let spec = Arc::new(spec);
        for &scheduler in &spec.schedulers {
            for &placement in &spec.placements {
                for &fleet_placement in &spec.fleet_placements {
                    for &rebalance in &spec.rebalances {
                        for &faults in &fault_modes {
                            for &seed in &spec.seeds {
                                cells.push(SweepCell {
                                    spec: Arc::clone(&spec),
                                    scheduler,
                                    placement,
                                    fleet_placement,
                                    rebalance,
                                    faults,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Outcome of a sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-cell results, in plan order.
    pub results: Vec<CellResult>,
    /// Host wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Worker threads used (1 for a serial run).
    pub threads: usize,
}

/// Runs every cell on the calling thread, in plan order, recycling one
/// [`CellRunner`]'s host worlds across cells.
pub fn run_serial(cells: &[SweepCell]) -> SweepOutcome {
    let started = Instant::now();
    let mut runner = CellRunner::new();
    let results = cells
        .iter()
        .map(|c| {
            runner.run(
                &c.spec,
                c.scheduler,
                c.placement,
                c.fleet_placement,
                c.rebalance,
                c.faults,
                c.seed,
            )
        })
        .collect();
    SweepOutcome {
        results,
        wall: started.elapsed(),
        threads: 1,
    }
}

/// Estimated relative cost of a cell — the work-stealing runner's
/// chunking weight. Simulated events scale with horizon × tenant
/// count, so that product is the estimate; it only steers the initial
/// partition (stealing corrects any error), so it need not be exact.
fn cell_cost(cell: &SweepCell) -> u64 {
    let members: u64 = cell
        .spec
        .groups
        .iter()
        .map(|g| g.count as u64)
        .sum::<u64>()
        .max(1);
    (cell.spec.horizon.as_micros_f64() as u64).max(1) * members
}

/// One worker's deque of pending cell indices. The owner pops from the
/// front (preserving plan-order locality of its contiguous chunk);
/// thieves take from the back, where the chunk's coldest work sits.
/// `len` mirrors the deque length so victim selection never takes a
/// lock.
struct WorkDeque {
    jobs: Mutex<VecDeque<usize>>,
    len: AtomicUsize,
}

impl WorkDeque {
    fn new(jobs: VecDeque<usize>) -> Self {
        let len = AtomicUsize::new(jobs.len());
        WorkDeque {
            jobs: Mutex::new(jobs),
            len,
        }
    }

    fn pop_front(&self) -> Option<usize> {
        // lint: allow(unchecked-unwrap) — a poisoned deque means another
        // worker already panicked; propagating is the only sound option
        let mut jobs = self.jobs.lock().expect("work deque poisoned");
        let job = jobs.pop_front();
        if job.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    fn steal_back(&self) -> Option<usize> {
        // lint: allow(unchecked-unwrap) — a poisoned deque means another
        // worker already panicked; propagating is the only sound option
        let mut jobs = self.jobs.lock().expect("work deque poisoned");
        let job = jobs.pop_back();
        if job.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// Splits the plan into `threads` contiguous, cost-balanced chunks:
/// walking plan order, a cell goes to the current worker until that
/// worker's share of the total estimated cost is filled.
fn chunk_plan(cells: &[SweepCell], threads: usize) -> Vec<VecDeque<usize>> {
    let costs: Vec<u64> = cells.iter().map(cell_cost).collect();
    let total: u128 = costs.iter().map(|&c| c as u128).sum();
    let mut chunks: Vec<VecDeque<usize>> = (0..threads).map(|_| VecDeque::new()).collect();
    let mut spent: u128 = 0;
    let mut worker = 0usize;
    for (i, &cost) in costs.iter().enumerate() {
        // Advance to the worker whose cost budget this cell falls in;
        // the last worker absorbs any rounding remainder.
        while worker + 1 < threads && spent * threads as u128 >= total * (worker as u128 + 1) {
            worker += 1;
        }
        chunks[worker].push_back(i);
        spent += cost as u128;
    }
    chunks
}

/// Runs the plan across `threads` work-stealing workers (defaulting to
/// the machine's available parallelism), each recycling its
/// [`CellRunner`]'s host worlds across its cells. Results are identical to [`run_serial`] for every
/// thread count — see the module docs for why.
pub fn run_parallel(cells: &[SweepCell], threads: Option<usize>) -> SweepOutcome {
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, cells.len().max(1));
    if threads <= 1 || cells.len() <= 1 {
        return run_serial(cells);
    }
    let started = Instant::now();
    let deques: Vec<WorkDeque> = chunk_plan(cells, threads)
        .into_iter()
        .map(WorkDeque::new)
        .collect();
    let mut buffers: Vec<Vec<(usize, CellResult)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let deques = &deques;
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                scope.spawn(move || {
                    let mut runner = CellRunner::new();
                    // Pre-size for the initial chunk plus room for a
                    // few stolen cells, so result pushes don't grow.
                    let mut out: Vec<(usize, CellResult)> =
                        Vec::with_capacity(deques[me].len() + 4);
                    loop {
                        let job = deques[me].pop_front().or_else(|| {
                            // Own deque empty: steal one cell from the
                            // back of the busiest victim.
                            (0..deques.len())
                                .filter(|&v| v != me)
                                .max_by_key(|&v| deques[v].len())
                                .and_then(|v| deques[v].steal_back())
                        });
                        match job {
                            Some(i) => {
                                let c = &cells[i];
                                out.push((
                                    i,
                                    runner.run(
                                        &c.spec,
                                        c.scheduler,
                                        c.placement,
                                        c.fleet_placement,
                                        c.rebalance,
                                        c.faults,
                                        c.seed,
                                    ),
                                ));
                            }
                            None => {
                                // A steal can race another thief; only
                                // quit once every deque is drained
                                // (lengths never grow, so this is
                                // stable once observed).
                                if deques.iter().all(|d| d.len() == 0) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            // lint: allow(unchecked-unwrap) — re-raises a worker panic on the
            // coordinating thread
            buffers.push(handle.join().expect("sweep worker panicked"));
        }
    });
    // Single merge back into plan order — the only post-run pass.
    let mut slots: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    for (i, result) in buffers.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} ran twice");
        slots[i] = Some(result);
    }
    let results = slots
        .into_iter()
        // lint: allow(unchecked-unwrap) — the work deque hands each cell
        // index to exactly one worker
        .map(|r| r.expect("every cell was claimed by exactly one worker"))
        .collect();
    SweepOutcome {
        results,
        wall: started.elapsed(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArrivalSpec, LifetimeSpec, TenantGroup, WorkloadSpec};
    use neon_sim::SimDuration;

    fn small_spec(name: &str, seeds: Vec<u64>) -> ScenarioSpec {
        ScenarioSpec::new(name, SimDuration::from_millis(40))
            .seeds(seeds)
            .schedulers(vec![
                SchedulerKind::Direct,
                SchedulerKind::DisengagedFairQueueing,
            ])
            .group(
                TenantGroup::new(
                    "mix",
                    WorkloadSpec::Throttle {
                        request: SimDuration::from_micros(120),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(3)
                .arrival(ArrivalSpec::Staggered {
                    gap: SimDuration::from_millis(4),
                })
                .lifetime(LifetimeSpec::Fixed(SimDuration::from_millis(25))),
            )
    }

    #[test]
    fn plan_is_the_full_cross_product() {
        let cells = plan([small_spec("a", vec![1, 2]), small_spec("b", vec![3])]);
        assert_eq!(cells.len(), 2 * 2 + 2);
        assert_eq!(cells[0].spec.name, "a");
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
    }

    #[test]
    fn parallel_equals_serial() {
        let cells = plan([small_spec("par", vec![1, 2, 3])]);
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, Some(4));
        assert_eq!(serial.results.len(), parallel.results.len());
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.summary.scenario, p.summary.scenario);
            assert_eq!(s.summary.seed, p.summary.seed);
            assert_eq!(s.summary.total_rounds, p.summary.total_rounds);
            assert_eq!(s.summary.faults, p.summary.faults);
            assert_eq!(s.report.compute_busy, p.report.compute_busy);
        }
        assert!(parallel.threads > 1);
    }

    #[test]
    fn placement_axis_expands_the_plan() {
        let spec = small_spec("plc", vec![1, 2])
            .devices(2)
            .placements(PlacementKind::ALL.to_vec());
        let cells = plan([spec]);
        // 2 schedulers × 5 placements × 2 seeds.
        assert_eq!(cells.len(), 20);
        assert_eq!(cells[0].placement, PlacementKind::LeastLoaded);
        assert_eq!(cells[2].placement, PlacementKind::RoundRobin);
        assert_eq!(cells[8].placement, PlacementKind::CostMin);
        // Placement-major over seeds, scheduler-major over placements.
        assert_eq!(cells[0].scheduler, cells[9].scheduler);
        assert_ne!(cells[0].scheduler, cells[10].scheduler);
    }

    #[test]
    fn fleet_placement_axis_expands_the_plan() {
        let spec = small_spec("fleet", vec![1])
            .hosts(2)
            .fleet_placements(FleetPlacementKind::ALL.to_vec());
        let cells = plan([spec]);
        // 2 schedulers × 1 placement × 3 fleet placements × 1 seed.
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].fleet_placement, FleetPlacementKind::LeastLoaded);
        assert_eq!(cells[1].fleet_placement, FleetPlacementKind::RoundRobin);
        assert_eq!(cells[2].fleet_placement, FleetPlacementKind::FewestTenants);
        // Fleet-placement-major within a scheduler.
        assert_eq!(cells[0].scheduler, cells[2].scheduler);
        assert_ne!(cells[2].scheduler, cells[3].scheduler);
    }

    #[test]
    fn single_cell_plans_fall_back_to_serial() {
        let mut spec = small_spec("solo", vec![9]);
        spec.schedulers = vec![SchedulerKind::Direct];
        let cells = plan([spec]);
        assert_eq!(cells.len(), 1);
        let outcome = run_parallel(&cells, None);
        assert_eq!(outcome.threads, 1);
        assert_eq!(outcome.results.len(), 1);
    }
}
