//! Parallel execution of scenario sweeps.
//!
//! A sweep is the cross product of scenarios × schedulers × placements
//! × fleet placements × rebalance policies × seeds. Every cell is an
//! independent, deterministic simulation, so cells fan out across OS
//! threads. The runner is a plain pool of scoped `std::thread`
//! workers:
//!
//! - Each worker claims the next plan index from one shared counter
//!   and stops once the index passes the end of the plan. Cells are
//!   about a millisecond each, so one counter balances them.
//! - Each worker runs its cells through one [`CellRunner`], which
//!   recycles its host [`World`](neon_core::world::World)s — one, or as
//!   many as the widest fleet cell — across cells, and buffers results
//!   in its own `Vec`, with no per-cell locking. Buffers are merged
//!   into plan order once, at the end.
//!
//! Determinism comes from the *output discipline*, not the execution
//! order: every cell is seeded independently of which worker runs it,
//! and results are reassembled in plan order, so any thread count —
//! including the serial path — produces identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neon_core::fault::FaultMode;
use neon_core::fleet::FleetPlacementKind;
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;

use crate::driver::{stamp_peak_rss, CellResult, CellRunner};
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

/// Runs one cell of the plan on `runner`.
fn run_one(runner: &mut CellRunner, c: &SweepCell) -> CellResult {
    runner.run(
        &c.spec,
        c.scheduler,
        c.placement,
        c.fleet_placement,
        c.rebalance,
        c.faults,
        c.seed,
    )
}

/// Runs every cell on the calling thread, in plan order, recycling one
/// [`CellRunner`]'s host worlds across cells. The process high-water
/// mark is read once, after the last cell, and stamped on every row.
pub fn run_serial(cells: &[SweepCell]) -> SweepOutcome {
    let started = Instant::now();
    let mut runner = CellRunner::new();
    let mut results: Vec<CellResult> = cells.iter().map(|c| run_one(&mut runner, c)).collect();
    stamp_peak_rss(&mut results);
    SweepOutcome {
        results,
        wall: started.elapsed(),
        threads: 1,
    }
}

/// Runs the plan across `threads` workers (defaulting to the machine's
/// available parallelism), each recycling its [`CellRunner`]'s host
/// worlds across its cells. Results are identical to [`run_serial`]
/// for every thread count — see the module docs for why. As there, the
/// high-water mark is read once, after every worker has joined.
pub fn run_parallel(cells: &[SweepCell], threads: Option<usize>) -> SweepOutcome {
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, cells.len().max(1));
    if threads <= 1 {
        return run_serial(cells);
    }
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut runner = CellRunner::new();
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data, only
                        // claims; results come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(c) = cells.get(i) else { break out };
                        out.push((i, run_one(&mut runner, c)));
                    }
                })
            })
            .collect();
        for worker in workers {
            // lint: allow(unchecked-unwrap) — re-raises a worker panic on the
            // coordinating thread
            for (i, result) in worker.join().expect("sweep worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    let mut results: Vec<CellResult> = slots
        .into_iter()
        // lint: allow(unchecked-unwrap) — the shared counter hands each
        // plan index to exactly one worker
        .map(|r| r.expect("every cell was claimed by exactly one worker"))
        .collect();
    stamp_peak_rss(&mut results);
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
    fn every_row_of_a_sweep_carries_one_high_water_read() {
        let cells = plan([small_spec("rss", vec![1, 2])]);
        let alone = run_one(&mut CellRunner::new(), &cells[0]);
        assert_eq!(
            alone.summary.peak_rss_bytes, None,
            "a runner's cell is unstamped"
        );
        for outcome in [run_serial(&cells), run_parallel(&cells, Some(2))] {
            let first = outcome.results[0].summary.peak_rss_bytes;
            assert_eq!(first.is_some(), cfg!(target_os = "linux"));
            assert!(outcome
                .results
                .iter()
                .all(|r| r.summary.peak_rss_bytes == first));
        }
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
