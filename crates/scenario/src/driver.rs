//! Executes one scenario cell: a (scenario, scheduler, placement,
//! fleet placement, rebalance, faults, seed) tuple.
//!
//! Every cell runs on a [`Fleet`]: one host world for an ordinary
//! scenario — single- or multi-device, per the spec's `devices` — or
//! `hosts > 1` worlds behind cluster-level placement. A 1-host fleet is
//! transparent (golden-pinned as byte-identical to a bare [`World`]),
//! so there is one cell path. The driver expands every tenant group
//! into concrete arrival instants and lifetimes (deterministically,
//! from the cell's seed), stages them on the fleet, runs to the
//! horizon, and condenses the [`FleetReport`] into a [`CellSummary`]
//! suitable for tables and JSON. A [`CellRunner`] recycles its host
//! worlds across cells through [`World::reset`]; [`run_cell`] is a
//! fresh runner.
//!
//! Arrival and lifetime draws depend only on (seed, group index,
//! member index) — never on the scheduler, placement policy, or host
//! count — so every policy in a sweep faces exactly the same churn.

use std::sync::Arc;
use std::time::Instant;

use neon_core::fault::{FaultMode, FaultPlan};
use neon_core::fleet::{Fleet, FleetPlacementKind, FleetReport, WorkloadFactory};
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;
use neon_core::telemetry::{SimStats, StatKey};
use neon_core::world::{World, WorldConfig};
use neon_core::RunReport;
use neon_gpu::DeviceId;
use neon_metrics::jain_index;
use neon_sim::{DetRng, SimDuration, SimTime};

/// Peak resident-set size of *this process* in bytes (Linux `VmHWM`),
/// `None` where unavailable. A process-wide high-water mark: on a
/// sweep it is monotone across cells, so per-cell values show which
/// cell first pushed the peak, not independent footprints.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

use crate::spec::{ArrivalSpec, LifetimeSpec, ScenarioSpec, TenantGroup};

/// Per-device slice of a [`CellSummary`].
#[derive(Debug, Clone)]
pub struct DeviceSummary {
    /// The device.
    pub device: DeviceId,
    /// Compute-engine utilization of this device over the horizon.
    pub utilization: f64,
    /// Admissions this device refused.
    pub rejected: u64,
    /// Live tenants on the device at the horizon.
    pub tenants: usize,
    /// Tasks migrated onto this device by rebalancing.
    pub migrations_in: u64,
    /// Tasks rebalancing moved off this device.
    pub migrations_out: u64,
    /// Working-set movement charged on this device (staging onto it
    /// plus migration transfers landing here).
    pub transfer_stall: SimDuration,
}

/// Per-host slice of a fleet cell's [`CellSummary`].
#[derive(Debug, Clone)]
pub struct HostSummary {
    /// Host index within the fleet.
    pub host: usize,
    /// Devices this host exposes.
    pub devices: usize,
    /// Mean compute utilization across the host's devices.
    pub utilization: f64,
    /// Tasks this host admitted over the run.
    pub admitted: usize,
    /// Admissions the host's own (ground-truth) control refused.
    pub rejected: u64,
    /// Rounds completed on this host.
    pub rounds: u64,
}

/// Condensed outcome of one cell, cheap to tabulate and serialize.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Scenario name.
    pub scenario: String,
    /// Policy under test.
    pub scheduler: SchedulerKind,
    /// Placement policy under test.
    pub placement: PlacementKind,
    /// Fleet placement policy under test (a pure label on single-host
    /// cells, where no cluster decision exists).
    pub fleet_placement: FleetPlacementKind,
    /// Rebalancing policy under test.
    pub rebalance: RebalanceKind,
    /// Which categories of the scenario's fault schedule this cell
    /// injected ([`FaultMode::None`] on fault-free cells).
    pub faults_mode: FaultMode,
    /// Cell seed.
    pub seed: u64,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Devices in the cell's world (summed across hosts on fleet
    /// cells).
    pub devices: usize,
    /// Hosts in the cell's fleet (1 = a lone host, byte-identical to a
    /// bare world).
    pub hosts: usize,
    /// Tasks admitted over the run (including those that departed).
    pub admitted: usize,
    /// Arrivals turned away because the device was exhausted.
    pub rejected: u64,
    /// Tasks that left gracefully (scheduled departure or finished
    /// workload) before the horizon.
    pub departed: usize,
    /// Tasks killed by the policy (over-long requests).
    pub killed: usize,
    /// Rounds completed across all tasks.
    pub total_rounds: u64,
    /// Requests completed across all tasks.
    pub completed_requests: u64,
    /// Interceptions (page faults) taken.
    pub faults: u64,
    /// Unintercepted submissions.
    pub direct_submits: u64,
    /// Compute-engine utilization over the horizon (mean across
    /// devices).
    pub utilization: f64,
    /// Jain fairness index over per-task device usage normalized by
    /// presence time (tasks present under 5 % of the horizon are
    /// excluded as noise). 1.0 = perfectly equal shares.
    pub fairness: f64,
    /// Median completed-round time across all tasks.
    pub round_p50: SimDuration,
    /// 95th-percentile round time.
    pub round_p95: SimDuration,
    /// 99th-percentile round time.
    pub round_p99: SimDuration,
    /// Tasks migrated between devices by rebalancing.
    pub migrations: u64,
    /// Total simulated time tasks spent stalled on working-set
    /// movement (admission staging + migration transfers); zero on
    /// flat topologies.
    pub transfer_stall: SimDuration,
    /// Tenants the fleet moved between hosts (0 on single-host cells).
    pub cross_host_migrations: u64,
    /// Simulated time spent in cross-host working-set transfers.
    pub cluster_transfer_stall: SimDuration,
    /// Arrivals rejected at the cluster boundary (no host's capacity
    /// ledger had room); host-level rejections stay in
    /// [`CellSummary::rejected`]'s total.
    pub fleet_rejected: u64,
    /// Fault events injected (world-level, plus host failures on fleet
    /// cells).
    pub injected_faults: u64,
    /// Watchdog kill-and-requeues.
    pub watchdog_kills: u64,
    /// Recovery retries scheduled (watchdog requeues, transient
    /// submission-error retries, park retries).
    pub fault_retries: u64,
    /// Tasks recovered from faults (drain-migrated, re-staged, or
    /// re-admitted cross-host).
    pub recovered_tasks: u64,
    /// Tasks lost to faults (crashes, exhausted retry budgets,
    /// unplaceable host-failure victims).
    pub lost_tasks: u64,
    /// Device hot-remove events injected.
    pub hot_removes: u64,
    /// Degraded-capacity time: device-offline spans summed across
    /// devices (plus host outages on fleet cells).
    pub degraded: SimDuration,
    /// Per-device utilization/rejection breakdown, in device order
    /// (hosts concatenated in host order on fleet cells).
    pub per_device: Vec<DeviceSummary>,
    /// Per-host breakdown, in host order; empty on single-host cells.
    pub per_host: Vec<HostSummary>,
    /// Host wall-clock time this cell took to simulate.
    pub elapsed: std::time::Duration,
    /// Process peak RSS in bytes when this cell finished (see
    /// [`peak_rss_bytes`]); `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
}

/// Full outcome of one cell: the summary plus the raw report for
/// harnesses that need per-task details.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Condensed outcome.
    pub summary: CellSummary,
    /// The raw simulation report. On multi-host cells (`hosts > 1`)
    /// this is host 0's report; the full picture is in
    /// [`CellResult::fleet`].
    pub report: RunReport,
    /// The cell's event trace rendered as JSON Lines, when the spec
    /// asked for capture ([`ScenarioSpec::capture_trace`] /
    /// `neon run --trace-out`). `None` otherwise (traces are per-world,
    /// so multi-host cells don't capture one).
    pub trace_jsonl: Option<String>,
    /// The whole-fleet outcome when the cell ran a multi-host fleet;
    /// `None` on single-host cells, whose one host report is
    /// [`CellResult::report`].
    pub fleet: Option<FleetReport>,
}

impl CellResult {
    /// Every host's report: the fleet's hosts, or the one world of a
    /// single-host cell.
    fn hosts(&self) -> &[RunReport] {
        match &self.fleet {
            Some(fleet) => &fleet.hosts,
            None => std::slice::from_ref(&self.report),
        }
    }

    /// Simulated events of the cell, summed over all hosts
    /// ([`CellResult::report`] alone holds only host 0 of a fleet).
    pub fn events(&self) -> u64 {
        self.hosts().iter().map(|h| h.events).sum()
    }

    /// The run-wide structured counters of the cell, merged over all
    /// hosts ([`CellResult::report`] alone holds only host 0 of a
    /// fleet).
    pub fn stats(&self) -> SimStats {
        let mut all = SimStats::new();
        for h in self.hosts() {
            all.merge(&h.stats);
        }
        all
    }
}

/// A uniform draw in `(0, 1]`, for inverse-transform sampling.
fn unit_open(rng: &mut DetRng) -> f64 {
    let u = (rng.raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (1.0 - u).max(f64::MIN_POSITIVE)
}

/// An exponential draw with the given mean.
fn exponential(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    SimDuration::from_micros_f64(-unit_open(rng).ln() * mean.as_micros_f64())
}

/// Expands a group's arrival process into one instant per member.
fn arrival_times(group: &TenantGroup, rng: &mut DetRng) -> Vec<SimTime> {
    match &group.arrival {
        ArrivalSpec::AtStart => vec![SimTime::ZERO; group.count as usize],
        ArrivalSpec::Staggered { gap } => (0..group.count)
            .map(|i| SimTime::ZERO + *gap * i as u64)
            .collect(),
        ArrivalSpec::At { times } => times.iter().map(|&t| SimTime::ZERO + t).collect(),
        ArrivalSpec::Poisson { rate_hz, start } => {
            let mean = SimDuration::from_micros_f64(1e6 / rate_hz);
            let mut at = SimTime::ZERO + *start;
            (0..group.count)
                .map(|_| {
                    at += exponential(rng, mean);
                    at
                })
                .collect()
        }
    }
}

/// Draws a member's stay; `None` means it runs to workload completion
/// or the horizon.
fn lifetime(group: &TenantGroup, rng: &mut DetRng) -> Option<SimDuration> {
    match &group.lifetime {
        LifetimeSpec::Forever => None,
        LifetimeSpec::Fixed(d) => Some(*d),
        LifetimeSpec::Exponential { mean } => Some(exponential(rng, *mean)),
    }
}

/// The [`WorldConfig`] of one cell host with `devices` devices, carrying
/// the world-scope slice of the cell's fault `plan` (`None` keeps
/// fault-free cells on the exact pre-fault code path).
fn host_config(
    spec: &ScenarioSpec,
    devices: usize,
    rebalance: RebalanceKind,
    plan: Option<&FaultPlan>,
    seed: u64,
) -> WorldConfig {
    WorldConfig {
        faults: plan.map(FaultPlan::world_plan),
        topology: spec.host_topology(devices),
        cost: spec.cost.clone().unwrap_or_default(),
        rebalance,
        seed,
        record_requests: spec.record_requests,
        metrics: spec.metrics,
        sample_every: spec.sample_every,
        ..WorldConfig::default()
    }
}

/// Builds a member of `group`'s workload.
fn build_member(group: &TenantGroup) -> neon_core::BoxedWorkload {
    group
        .build_member()
        // lint: allow(unchecked-unwrap) — spec.validate() ran before any
        // workload build on this path
        .expect("validated spec workloads must build")
}

/// Stages the spec's tenant groups on `fleet`. Returns the count of
/// closed-loop members turned away before the run started.
///
/// Closed-loop members present from the start take the classic
/// admission path (staggered first steps), so a purely static scenario
/// reproduces the legacy harnesses byte for byte. Every other arrival
/// is staged migratable (a factory rebuilding the member's workload),
/// letting a fleet rebalance policy move it across hosts. Pinned
/// groups exist only on single-host cells (validation), so they stage
/// straight on host 0's world.
fn stage(fleet: &mut Fleet, spec: &ScenarioSpec, seed: u64) -> u64 {
    let mut prerun_rejected = 0u64;
    let mut root = DetRng::seed_from(seed ^ 0x5CEA_7A11);
    for (gi, group) in spec.groups.iter().enumerate() {
        let mut rng = root.fork(gi as u64 + 1);
        let arrivals = arrival_times(group, &mut rng);
        // One copy of the group backs every migratable member's factory.
        let mut shared: Option<Arc<TenantGroup>> = None;
        for at in arrivals {
            let stay = lifetime(group, &mut rng);
            let pin = group.device.map(DeviceId::new);
            if at == SimTime::ZERO && stay.is_none() {
                let rejected = match pin {
                    Some(d) => fleet
                        .host_mut(0)
                        .add_task_pinned(build_member(group), d)
                        .is_err(),
                    None => fleet.add_task(build_member(group)).is_err(),
                };
                prerun_rejected += u64::from(rejected);
            } else if let Some(d) = pin {
                let host = fleet.host_mut(0);
                match stay {
                    Some(stay) => host.spawn_task_for_on(at, build_member(group), stay, d),
                    None => host.spawn_task_at_on(at, build_member(group), d),
                }
            } else {
                let g = Arc::clone(shared.get_or_insert_with(|| Arc::new(group.clone())));
                let factory: WorkloadFactory = Box::new(move || build_member(&g));
                match stay {
                    Some(stay) => fleet.spawn_migratable_for(at, factory, stay),
                    None => fleet.spawn_migratable_at(at, factory),
                }
            }
        }
    }
    prerun_rejected
}

/// Runs one (scenario, scheduler, placement, fleet placement,
/// rebalance, faults, seed) cell to its horizon on freshly built host
/// worlds: a new [`CellRunner`]'s first cell.
///
/// # Panics
///
/// Panics if the spec is invalid; call [`ScenarioSpec::validate`]
/// first when the spec comes from user input.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    spec: &ScenarioSpec,
    scheduler: SchedulerKind,
    placement: PlacementKind,
    fleet_placement: FleetPlacementKind,
    rebalance: RebalanceKind,
    faults: FaultMode,
    seed: u64,
) -> CellResult {
    CellRunner::new().run(
        spec,
        scheduler,
        placement,
        fleet_placement,
        rebalance,
        faults,
        seed,
    )
}

/// The cell executor: builds each host [`World`] on first use and
/// [`World::reset`]s it for every later cell, so a sweep worker pays
/// world construction (event queue, trace ring, task table) once
/// per host instead of per cell. Results are byte-identical to fresh
/// worlds — pinned by the runner-equivalence and world-reuse tests.
#[derive(Default)]
pub struct CellRunner {
    /// Host worlds kept from earlier cells, as many as the widest
    /// fleet so far.
    pool: Vec<World>,
}

impl CellRunner {
    /// A runner with no worlds yet; the first cell builds them.
    pub fn new() -> Self {
        CellRunner::default()
    }

    /// Runs one cell: builds or recycles its host worlds, wraps them in
    /// a [`Fleet`], stages, runs and summarizes.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        scheduler: SchedulerKind,
        placement: PlacementKind,
        fleet_placement: FleetPlacementKind,
        rebalance: RebalanceKind,
        faults: FaultMode,
        seed: u64,
    ) -> CellResult {
        let started = Instant::now();
        let fault_plan = (faults != FaultMode::None).then(|| spec.fault_plan().filtered(faults));
        let hosts: Vec<World> = spec
            .host_device_counts()
            .into_iter()
            .map(|devices| {
                let config = host_config(spec, devices, rebalance, fault_plan.as_ref(), seed);
                let params = spec.host_params(devices);
                // The sweep axis policy, or the spec's custom factory
                // when one is installed.
                let make_sched = |dev: DeviceId| {
                    let params = params[dev.index()].clone();
                    match spec.custom_scheduler {
                        Some(factory) => factory.build(params),
                        None => scheduler.build(params),
                    }
                };
                match self.pool.pop() {
                    Some(mut world) => {
                        world.reset(config, placement.build(), make_sched);
                        world
                    }
                    None => World::with_devices(config, placement.build(), make_sched),
                }
            })
            .collect();
        // Traces are per world: only a lone host's is captured.
        let capture_trace = spec.capture_trace && hosts.len() == 1;
        let mut fleet = Fleet::new(
            hosts,
            fleet_placement.build(),
            spec.fleet_rebalance.build(),
            spec.cluster.clone().unwrap_or_default(),
        );
        if let Some(plan) = fault_plan {
            fleet.set_faults(plan);
        }
        if capture_trace {
            fleet.host_mut(0).trace.set_enabled(true);
        }
        let prerun_rejected = stage(&mut fleet, spec, seed);
        let mut report = fleet.run(spec.horizon);
        let elapsed = started.elapsed();
        let trace_jsonl = capture_trace.then(|| fleet.host(0).trace.to_jsonl());
        self.pool.extend(fleet.into_hosts());
        let summary = summarize(
            spec,
            scheduler,
            placement,
            fleet_placement,
            rebalance,
            faults,
            seed,
            &report,
            prerun_rejected,
            elapsed,
        );
        let (report, fleet) = if report.hosts.len() == 1 {
            (report.hosts.swap_remove(0), None)
        } else {
            (report.hosts[0].clone(), Some(report))
        };
        CellResult {
            summary,
            report,
            trace_jsonl,
            fleet,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    spec: &ScenarioSpec,
    scheduler: SchedulerKind,
    placement: PlacementKind,
    fleet_placement: FleetPlacementKind,
    rebalance: RebalanceKind,
    faults_mode: FaultMode,
    seed: u64,
    fleet: &FleetReport,
    prerun_rejected: u64,
    elapsed: std::time::Duration,
) -> CellSummary {
    let tasks = || fleet.hosts.iter().flat_map(|h| &h.tasks);
    let stat = |key: StatKey| fleet.hosts.iter().map(|h| h.stats.get(key)).sum::<u64>();
    let sum_duration = |f: fn(&RunReport) -> SimDuration| fleet.hosts.iter().map(f).sum();
    let min_presence = spec.horizon / 20;
    let shares: Vec<f64> = tasks()
        .filter(|t| t.presence(spec.horizon) >= min_presence)
        .map(|t| {
            let presence = t.presence(spec.horizon);
            t.usage.as_micros_f64() / presence.as_micros_f64().max(1.0)
        })
        .collect();
    let fairness = if shares.is_empty() {
        1.0
    } else {
        jain_index(&shares)
    };
    // One interface for percentiles whatever the metrics mode: exact
    // vectors when present, merged per-task histograms otherwise.
    let rounds = fleet.round_distribution();
    let per_device: Vec<DeviceSummary> = fleet
        .hosts
        .iter()
        .flat_map(|h| &h.devices)
        .map(|d| DeviceSummary {
            device: d.device,
            utilization: d.utilization(spec.horizon),
            rejected: d.stats.get(StatKey::RejectedAdmissions),
            tenants: d.tenants,
            migrations_in: d.stats.get(StatKey::MigrationsIn),
            migrations_out: d.stats.get(StatKey::MigrationsOut),
            transfer_stall: d.transfer_stall,
        })
        .collect();
    let per_host = if fleet.hosts.len() > 1 {
        fleet
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostSummary {
                host: i,
                devices: h.devices.len(),
                utilization: h.utilization(),
                admitted: h.tasks.len(),
                rejected: h.stats.get(StatKey::RejectedAdmissions),
                rounds: h.total_rounds(),
            })
            .collect()
    } else {
        Vec::new()
    };
    CellSummary {
        scenario: spec.name.clone(),
        scheduler,
        placement,
        fleet_placement,
        rebalance,
        faults_mode,
        seed,
        horizon: spec.horizon,
        devices: per_device.len(),
        hosts: fleet.hosts.len(),
        admitted: tasks().count(),
        rejected: fleet.rejected_admissions() + prerun_rejected,
        departed: tasks()
            .filter(|t| t.finished_at.is_some() && !t.killed)
            .count(),
        killed: tasks().filter(|t| t.killed).count(),
        total_rounds: rounds.count(),
        completed_requests: tasks().map(|t| t.completed_requests).sum(),
        faults: stat(StatKey::Faults),
        direct_submits: stat(StatKey::DirectSubmits),
        utilization: fleet.utilization(),
        fairness,
        round_p50: rounds.quantile(50.0),
        round_p95: rounds.quantile(95.0),
        round_p99: rounds.quantile(99.0),
        migrations: stat(StatKey::MigrationsIn),
        transfer_stall: sum_duration(|h| h.transfer_stall),
        cross_host_migrations: fleet.cross_host_migrations,
        cluster_transfer_stall: fleet.cluster_transfer_stall,
        fleet_rejected: fleet.fleet_rejected,
        injected_faults: stat(StatKey::InjectedFaults) + fleet.host_failures,
        watchdog_kills: stat(StatKey::WatchdogKills),
        fault_retries: stat(StatKey::FaultRetries),
        recovered_tasks: stat(StatKey::RecoveredTasks) + fleet.fleet_fault_recovered,
        lost_tasks: stat(StatKey::LostTasks) + fleet.fleet_lost_tasks,
        hot_removes: stat(StatKey::HotRemoves),
        degraded: sum_duration(|h| h.degraded) + fleet.host_degraded,
        per_device,
        per_host,
        elapsed,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{TenantGroup, WorkloadSpec};
    use neon_core::cost::SchedParams;

    /// Nearest-rank percentile of a sorted sample (`q` in percent). The
    /// summary path goes through [`FleetReport::round_distribution`];
    /// this is the tests' independent oracle.
    fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
        if sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn churn_spec() -> ScenarioSpec {
        ScenarioSpec::new("unit", SimDuration::from_millis(120))
            .seeds(vec![7])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .group(
                TenantGroup::new(
                    "resident",
                    WorkloadSpec::FixedLoop {
                        service: us(80),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2),
            )
            .group(
                TenantGroup::new(
                    "churner",
                    WorkloadSpec::Throttle {
                        request: us(300),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(4)
                .arrival(ArrivalSpec::Poisson {
                    rate_hz: 100.0,
                    start: SimDuration::from_millis(5),
                })
                .lifetime(LifetimeSpec::Exponential {
                    mean: SimDuration::from_millis(25),
                }),
            )
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_deterministic() {
        let group = TenantGroup::new(
            "g",
            WorkloadSpec::Throttle {
                request: us(100),
                off_ratio: 0.0,
                jitter: 0.0,
            },
        )
        .count(16)
        .arrival(ArrivalSpec::Poisson {
            rate_hz: 1000.0,
            start: SimDuration::from_millis(2),
        });
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(1);
        let ta = arrival_times(&group, &mut a);
        let tb = arrival_times(&group, &mut b);
        assert_eq!(ta, tb);
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
        assert!(ta[0] >= SimTime::ZERO + SimDuration::from_millis(2));
    }

    #[test]
    fn cell_runs_and_summarizes_churn() {
        let spec = churn_spec();
        let result = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let s = &result.summary;
        assert!(s.admitted >= 2, "residents must be admitted");
        assert!(s.total_rounds > 100, "rounds: {}", s.total_rounds);
        assert!(s.utilization > 0.5, "utilization: {:.2}", s.utilization);
        assert!((0.0..=1.0).contains(&s.fairness));
        // At least one churner both arrived and departed mid-run.
        assert!(
            result
                .report
                .tasks
                .iter()
                .any(|t| t.arrived_at > SimTime::ZERO),
            "no mid-run arrival happened"
        );
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let spec = churn_spec();
        let ll = PlacementKind::LeastLoaded;
        let a = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let b = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        assert_eq!(a.summary.total_rounds, b.summary.total_rounds);
        assert_eq!(a.summary.faults, b.summary.faults);
        assert_eq!(a.report.compute_busy, b.report.compute_busy);
        let c = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            ll,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            8,
        );
        assert_ne!(
            (a.summary.total_rounds, a.summary.faults),
            (c.summary.total_rounds, c.summary.faults),
            "different seeds should perturb the run"
        );
    }

    #[test]
    fn static_scenarios_match_the_legacy_harness_path() {
        // A purely AtStart/Forever scenario must equal a hand-built
        // World with the same seed and workloads.
        let spec = ScenarioSpec::new("static", SimDuration::from_millis(60))
            .seeds(vec![42])
            .schedulers(vec![SchedulerKind::Direct])
            .group(
                TenantGroup::new(
                    "pair",
                    WorkloadSpec::FixedLoop {
                        service: us(50),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2),
            );
        let via_scenario = run_cell(
            &spec,
            SchedulerKind::Direct,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            42,
        );

        let config = WorldConfig {
            seed: 42,
            ..WorldConfig::default()
        };
        let mut world = World::new(config, SchedulerKind::Direct.build(SchedParams::default()));
        for _ in 0..2 {
            world
                .add_task(
                    WorkloadSpec::FixedLoop {
                        service: us(50),
                        gap: us(5),
                        rounds: None,
                    }
                    .build()
                    .unwrap(),
                )
                .unwrap();
        }
        let direct = world.run(SimDuration::from_millis(60));
        assert_eq!(via_scenario.report.compute_busy, direct.compute_busy);
        for (a, b) in via_scenario.report.tasks.iter().zip(&direct.tasks) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.usage, b.usage);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<SimDuration> = (1..=100).map(SimDuration::from_micros).collect();
        assert_eq!(percentile(&sorted, 50.0), us(50));
        assert_eq!(percentile(&sorted, 95.0), us(95));
        assert_eq!(percentile(&sorted, 99.0), us(99));
        assert_eq!(percentile(&[], 50.0), SimDuration::ZERO);
        assert_eq!(percentile(&[us(7)], 99.0), us(7));
    }

    #[test]
    fn summary_carries_round_percentiles() {
        let spec = churn_spec();
        let r = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let s = &r.summary;
        assert!(s.round_p50 > SimDuration::ZERO);
        assert!(s.round_p50 <= s.round_p95);
        assert!(s.round_p95 <= s.round_p99);
        // The p50 must actually be a completed round's duration.
        assert!(r
            .report
            .tasks
            .iter()
            .any(|t| t.rounds.contains(&s.round_p50)));
    }

    #[test]
    fn multi_device_cell_reports_per_device_columns() {
        let spec = ScenarioSpec::new("md", SimDuration::from_millis(60))
            .seeds(vec![3])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .devices(2)
            .group(
                TenantGroup::new(
                    "mix",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(4),
            );
        spec.validate().unwrap();
        for placement in PlacementKind::ALL {
            let r = run_cell(
                &spec,
                SchedulerKind::DisengagedFairQueueing,
                placement,
                FleetPlacementKind::LeastLoaded,
                RebalanceKind::Off,
                FaultMode::None,
                3,
            );
            let s = &r.summary;
            assert_eq!(s.devices, 2);
            assert_eq!(s.per_device.len(), 2);
            for d in &s.per_device {
                assert_eq!(d.tenants, 2, "{placement}: tasks must spread 2+2");
                assert!(d.utilization > 0.5, "{placement}: idle device");
                assert_eq!(d.rejected, 0);
            }
        }
    }

    #[test]
    fn pinned_groups_land_on_their_device_with_overridden_params() {
        let spec = ScenarioSpec::new("pin", SimDuration::from_millis(40))
            .seeds(vec![1])
            .schedulers(vec![SchedulerKind::DisengagedFairQueueing])
            .devices(2)
            .group(
                TenantGroup::new(
                    "left",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(0)
                .params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                }),
            )
            .group(
                TenantGroup::new(
                    "right",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(1),
            );
        spec.validate().unwrap();
        let r = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            1,
        );
        for (i, t) in r.report.tasks.iter().enumerate() {
            let expected = if i < 2 { 0 } else { 1 };
            assert_eq!(t.device.raw(), expected, "task {i} pinned wrong");
        }
    }

    #[test]
    fn fleet_cells_run_per_host_and_stay_deterministic() {
        let spec = churn_spec().hosts(2);
        spec.validate().unwrap();
        let run = || {
            run_cell(
                &spec,
                SchedulerKind::DisengagedFairQueueing,
                PlacementKind::LeastLoaded,
                FleetPlacementKind::LeastLoaded,
                RebalanceKind::Off,
                FaultMode::None,
                7,
            )
        };
        let result = run();
        let s = &result.summary;
        assert_eq!(s.hosts, 2);
        assert_eq!(s.fleet_placement, FleetPlacementKind::LeastLoaded);
        assert_eq!(s.per_host.len(), 2);
        assert_eq!(s.devices, 2, "two 1-GPU hosts");
        assert!(s.admitted >= 2, "residents must be admitted");
        assert!(
            s.per_host.iter().all(|h| h.admitted > 0),
            "least-loaded fleet placement must spread tenants: {:?}",
            s.per_host
        );
        let fleet = result.fleet.as_ref().expect("fleet cells carry a report");
        assert_eq!(fleet.hosts.len(), 2);
        assert_eq!(s.cross_host_migrations, 0, "rebalance off");
        // The arrival/lifetime schedule is seed-only, so the whole
        // fleet cell is reproducible.
        let again = run();
        assert_eq!(s.total_rounds, again.summary.total_rounds);
        assert_eq!(s.admitted, again.summary.admitted);
        for (a, b) in s.per_host.iter().zip(&again.summary.per_host) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.admitted, b.admitted);
        }
    }

    #[test]
    fn fleet_cell_events_count_every_host() {
        let spec = churn_spec().hosts(2);
        let result = run_cell(
            &spec,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        let fleet = result.fleet.as_ref().expect("fleet cells carry a report");
        let per_host: u64 = fleet.hosts.iter().map(|h| h.events).sum();
        assert_eq!(result.events(), per_host);
        assert!(
            result.events() > result.report.events,
            "host 1 ran events too, so host 0 alone undercounts"
        );
        let bare = run_cell(
            &churn_spec(),
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::LeastLoaded,
            RebalanceKind::Off,
            FaultMode::None,
            7,
        );
        assert_eq!(bare.events(), bare.report.events);
    }

    #[test]
    fn recycled_runner_matches_fresh_cells_across_shapes() {
        use neon_core::fault::{FaultConfig, FaultKind};
        use neon_core::fleet::FleetRebalanceKind;
        let ms = SimDuration::from_millis;
        let pinned = ScenarioSpec::new("pinned", ms(60))
            .devices(2)
            .group(
                TenantGroup::new(
                    "left",
                    WorkloadSpec::FixedLoop {
                        service: us(100),
                        gap: us(5),
                        rounds: None,
                    },
                )
                .count(2)
                .device(0)
                .params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                }),
            )
            .group(
                TenantGroup::new(
                    "right",
                    WorkloadSpec::Throttle {
                        request: us(250),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(2)
                .device(1)
                .arrival(ArrivalSpec::Staggered { gap: ms(5) })
                .lifetime(LifetimeSpec::Fixed(ms(30))),
            );
        let chaos = churn_spec()
            .devices(2)
            .hosts(2)
            .fault_config(FaultConfig {
                watchdog: Some(ms(2)),
                ..FaultConfig::default()
            })
            .fault(ms(10), FaultKind::TaskHang { task: None })
            .fault(
                ms(20),
                FaultKind::DeviceRemove {
                    device: DeviceId::new(1),
                },
            )
            .fault(ms(40), FaultKind::HostFail { host: 1 })
            .fault(ms(80), FaultKind::HostRecover { host: 1 });
        let cells = [
            (churn_spec(), FaultMode::None),
            (churn_spec().hosts(4), FaultMode::None),
            (
                churn_spec()
                    .host_with_devices(2)
                    .host_with_devices(1)
                    .fleet_rebalance(FleetRebalanceKind::CountDiff),
                FaultMode::None,
            ),
            (pinned, FaultMode::None),
            (chaos, FaultMode::All),
            (churn_spec().capture_trace(true), FaultMode::None),
            (churn_spec(), FaultMode::None),
        ];
        let timeless = |r: &CellResult| {
            let mut s = r.summary.clone();
            s.elapsed = std::time::Duration::ZERO;
            s.peak_rss_bytes = None;
            format!("{s:?}")
        };
        let host_events = |r: &CellResult| match &r.fleet {
            Some(f) => f.hosts.iter().map(|h| h.events).collect(),
            None => vec![r.report.events],
        };
        let mut runner = CellRunner::new();
        for (i, (spec, faults)) in cells.iter().enumerate() {
            spec.validate().unwrap();
            let run = |runner: &mut CellRunner| {
                runner.run(
                    spec,
                    SchedulerKind::DisengagedFairQueueing,
                    PlacementKind::LeastLoaded,
                    FleetPlacementKind::RoundRobin,
                    RebalanceKind::Off,
                    *faults,
                    7,
                )
            };
            let recycled = run(&mut runner);
            let fresh = run(&mut CellRunner::new());
            assert_eq!(timeless(&recycled), timeless(&fresh), "cell {i}: summary");
            assert_eq!(recycled.trace_jsonl, fresh.trace_jsonl, "cell {i}: trace");
            assert_eq!(host_events(&recycled), host_events(&fresh), "cell {i}");
            assert_eq!(recycled.events(), fresh.events(), "cell {i}: events");
            assert_eq!(recycled.summary.hosts, spec.hosts, "cell {i}: hosts");
            assert_eq!(
                recycled.fleet.is_some(),
                spec.hosts > 1,
                "cell {i}: only multi-host cells carry a fleet report"
            );
            assert_eq!(recycled.trace_jsonl.is_some(), spec.capture_trace);
        }
        assert_eq!(runner.pool.len(), 4, "the pool keeps the widest fleet");
        let chaos = &cells[4].0;
        let faulted = run_cell(
            chaos,
            SchedulerKind::DisengagedFairQueueing,
            PlacementKind::LeastLoaded,
            FleetPlacementKind::RoundRobin,
            RebalanceKind::Off,
            FaultMode::All,
            7,
        );
        let s = &faulted.summary;
        assert!(
            s.watchdog_kills >= 1 && s.hot_removes >= 1 && s.injected_faults >= 3,
            "the fault cell must exercise world and host faults: {s:?}"
        );
        // The last cell ran after the trace-capture cell: no world the
        // runner keeps may still be tracing, or hold that cell's trace.
        for world in &runner.pool {
            assert!(
                !world.trace.is_enabled(),
                "tracing leaked into a later cell"
            );
            assert!(world.trace.is_empty(), "a stale trace survived");
        }
    }
}
