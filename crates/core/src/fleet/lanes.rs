//! Host lanes: a multi-host fleet's worlds, run in parallel once the
//! planning pass has fixed every cross-host route (the `fleet` module
//! doc's "Host lanes").

use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread;

use neon_sim::SimDuration;

use crate::report::RunReport;
use crate::world::World;

/// The lanes a fleet of `hosts` hosts runs on: one per host, at most one
/// per available CPU.
pub(super) fn lanes_for(hosts: usize) -> usize {
    // Read once: `available_parallelism` reads the affinity mask and the
    // cgroup quota on every call, and every fleet run asks.
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    hosts.min(cpus)
}

/// Runs every world in `hosts` to `horizon` over at most `lanes`
/// contiguous blocks of `ceil(hosts / lanes)` hosts and returns the
/// reports in host order. The calling thread runs the first block and a
/// scoped thread each later one. One lane, one host, or a zero horizon
/// (nothing to simulate past the first instant) is the serial loop on
/// the calling thread. A panic in any block resumes on the calling
/// thread once every block has ended.
pub(super) fn run(hosts: &mut [World], horizon: SimDuration, lanes: usize) -> Vec<RunReport> {
    if lanes <= 1 || hosts.len() <= 1 || horizon.is_zero() {
        return run_block(hosts, horizon);
    }
    let size = hosts.len().div_ceil(lanes);
    thread::scope(|s| {
        let mut blocks = hosts.chunks_mut(size);
        let first = blocks.next().unwrap_or_default();
        let later: Vec<_> = blocks
            .map(|block| s.spawn(move || run_block(block, horizon)))
            .collect();
        let mut reports = run_block(first, horizon);
        for lane in later {
            match lane.join() {
                Ok(block) => reports.extend(block),
                Err(payload) => resume_unwind(payload),
            }
        }
        reports
    })
}

fn run_block(worlds: &mut [World], horizon: SimDuration) -> Vec<RunReport> {
    worlds.iter_mut().map(|w| w.run(horizon)).collect()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use neon_gpu::{ClusterInterconnect, RequestKind};
    use neon_sim::{DetRng, SimDuration, SimTime};

    use crate::cost::SchedParams;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::fleet::{Fleet, FleetCountDiff, FleetPlacementKind};
    use crate::placement::PlacementKind;
    use crate::sched::SchedulerKind;
    use crate::telemetry::MetricsMode;
    use crate::workload::{BoxedWorkload, FixedLoop, TaskAction, WithWorkingSet, Workload};
    use crate::world::{World, WorldConfig};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn host(seed: u64) -> World {
        let config = WorldConfig {
            seed,
            metrics: MetricsMode::Streaming,
            ..WorldConfig::default()
        };
        World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
            SchedulerKind::DisengagedFairQueueing.build(SchedParams::default())
        })
    }

    /// A planned 4-host fleet: churning arrivals, count-diff rebalance
    /// with cross-host continuations over a priced cluster, and one
    /// host failure and recovery.
    fn churning_fleet() -> Fleet {
        let mut fleet = Fleet::new(
            (1..=4).map(host).collect(),
            FleetPlacementKind::RoundRobin.build(),
            Box::new(FleetCountDiff),
            ClusterInterconnect::network_25g(),
        );
        let mut plan = FaultPlan::default();
        plan.push(SimTime::ZERO + ms(10), FaultKind::HostFail { host: 1 });
        plan.push(SimTime::ZERO + ms(16), FaultKind::HostRecover { host: 1 });
        fleet.set_faults(plan);
        let mut rng = DetRng::seed_from(0x1A4E5);
        for i in 0..80u64 {
            let at = SimTime::ZERO + SimDuration::from_micros(350 * i);
            let name = ["small", "large"][usize::from(i % 4 == 0)];
            let service = SimDuration::from_micros(if i % 4 == 0 { 900 } else { 60 });
            let inner = FixedLoop::endless(name, service, SimDuration::from_micros(20));
            let member: BoxedWorkload = Box::new(WithWorkingSet::new(Box::new(inner), 8 << 20));
            let lifetime = rng.uniform(ms(2), ms(14));
            match i % 3 {
                0 => fleet.spawn_task_for(at, member, lifetime),
                1 => fleet.spawn_migratable_for(at, member, lifetime),
                _ => fleet.spawn_migratable_at(at, member),
            }
        }
        for h in 0..4 {
            fleet.host_mut(h).trace.set_enabled(true);
        }
        fleet
    }

    /// The report, and each recycled world's trace, in host order.
    fn outcome(lanes: usize) -> (String, Vec<String>) {
        let mut fleet = churning_fleet();
        let report = fleet.run_in_lanes(ms(30), lanes);
        assert_eq!(report.host_failures, 1);
        assert!(report.fleet_fault_recovered > 0, "the failure re-admits");
        assert!(report.cross_host_migrations > report.fleet_fault_recovered);
        assert!(!report.groups.is_empty(), "streaming hosts merge groups");
        let traces = fleet
            .into_hosts()
            .iter()
            .map(|w| w.trace.to_jsonl())
            .collect();
        (format!("{report:?}"), traces)
    }

    #[test]
    fn lane_count_does_not_change_results() {
        let (serial, serial_traces) = outcome(1);
        for lanes in 2..=4 {
            let (report, traces) = outcome(lanes);
            assert!(report == serial, "{lanes} lanes changed the report");
            assert!(
                traces == serial_traces,
                "{lanes} lanes reordered the worlds"
            );
        }
    }

    /// Panics at its first action.
    struct Boom;

    impl Workload for Boom {
        fn name(&self) -> &str {
            "boom"
        }

        fn queues(&self) -> Vec<RequestKind> {
            vec![RequestKind::Compute]
        }

        fn next_action(&mut self, _rng: &mut DetRng) -> TaskAction {
            panic!("a host fails");
        }

        fn box_clone(&self) -> BoxedWorkload {
            Box::new(Boom)
        }
    }

    /// At 2 and 4 lanes host 2 is in a later block, which always runs on
    /// a scoped thread; host 0 is in the caller's own block. Either
    /// panic reaches the caller with its payload.
    #[test]
    fn a_worker_panic_reaches_the_caller() {
        for (lanes, boom) in [(2, 2), (4, 2), (2, 0)] {
            let mut fleet = churning_fleet();
            fleet.host_mut(boom).add_task(Box::new(Boom)).unwrap();
            let panic = catch_unwind(AssertUnwindSafe(|| fleet.run_in_lanes(ms(30), lanes)))
                .expect_err("the boom host panics");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"a host fails"));
            // Nothing is wedged: the next fleet runs to the end.
            let report = churning_fleet().run(ms(30));
            assert_eq!(report.hosts.len(), 4);
        }
    }
}
