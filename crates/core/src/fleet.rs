//! The cluster tier: many [`World`]s (hosts) behind fleet-level
//! admission, placement, and migration.
//!
//! A single `World` models one multi-device host. The fleet layer
//! scales the same admission/placement/migration split one level up:
//! arriving tenants are routed to a *host* by a [`FleetPlacement`]
//! policy over [`HostLoad`] snapshots (mirroring
//! [`Placement`](crate::placement::Placement) over
//! [`DeviceLoad`](crate::placement::DeviceLoad)), and
//! departure-triggered cross-host migration is governed by a
//! [`FleetRebalance`] policy (mirroring
//! [`Rebalance`](crate::rebalance::Rebalance)), with moves priced by a
//! [`ClusterInterconnect`] — the network tier above
//! [`InterconnectParams`](neon_gpu::InterconnectParams), free by
//! default.
//!
//! # Execution model
//!
//! Hosts are *independent* discrete-event worlds: no request, fault, or
//! scheduling decision crosses a host boundary mid-run. What the
//! cluster controls is **where tenants live**: which host each arrival
//! lands on, and whether a tenant is torn down on one host and
//! restaged on another. That makes fleet execution a two-phase affair:
//!
//! 1. **Plan** — a cluster-level pass over the known arrival/lifetime
//!    schedule (the same open-loop draws every cell shares, so the
//!    fleet sees exactly what a bare multi-host operator would).
//!    Arrivals consult the placement policy against a capacity ledger;
//!    departures free the ledger and give the rebalance policy a
//!    chance to name one cross-host migration. A migration truncates
//!    the tenant's residence on the source host and restages a fresh
//!    instance on the target after the cluster transfer delay —
//!    teardown-and-restage semantics, exactly what moving a process
//!    between machines costs.
//! 2. **Run** — every host world is staged with its share of the plan
//!    (in deterministic record order) and run to the horizon; the
//!    per-host [`RunReport`]s are merged into a [`FleetReport`], with
//!    per-group telemetry combined losslessly via the mergeable
//!    [`StreamingHistogram`](neon_metrics::StreamingHistogram) sketches
//!    — a million-tenant-round fleet run stays in bounded memory under
//!    [`MetricsMode::Streaming`](crate::telemetry::MetricsMode).
//!
//! The ledger tracks planned context/channel occupancy, not workload
//! progress: a tenant whose workload exits early still holds its
//! ledger slot until its scheduled departure. Fleet admission is
//! therefore conservative in exactly the way a real cluster admission
//! controller is — it reasons over declared reservations, while each
//! host's own admission control (which sees ground truth) still
//! applies underneath and may refuse an arrival the ledger accepted.
//!
//! A **single-host fleet is transparent**: the cluster tier has no
//! decision to make, so every arrival is staged straight on the host
//! at call time — mirroring how a single-device [`World`] bypasses its
//! placement policy. The fleet golden-trace tests pin that a 1-host
//! fleet is byte-identical to a bare `World` for every scheduler ×
//! placement.

pub use neon_gpu::HostId;
use neon_gpu::{ClusterInterconnect, GpuError, TaskId};
use neon_metrics::Distribution;
use neon_sim::{EventQueue, SimDuration, SimTime};

use crate::fault::{FaultKind, FaultPlan};
use crate::placement::shortage;
use crate::report::{groups_of, round_count, round_distribution, GroupReport, RunReport};
use crate::telemetry::StatKey;
use crate::workload::BoxedWorkload;
use crate::world::World;

/// Cluster-observable load of one host at a placement instant — the
/// fleet analogue of [`DeviceLoad`](crate::placement::DeviceLoad),
/// built from the fleet's capacity ledger (planned reservations), not
/// from device ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostLoad {
    /// The host.
    pub host: HostId,
    /// Tenants currently resident (planned) on the host.
    pub tenants: usize,
    /// Contexts still reservable, summed across the host's devices.
    pub free_contexts: usize,
    /// Channels still reservable, summed across the host's devices.
    pub free_channels: usize,
    /// Devices the host exposes — the capacity-scale signal that lets
    /// policies normalize load across heterogeneous host sizes.
    pub devices: usize,
}

impl HostLoad {
    /// `true` if a tenant needing `channels` channels (and one context)
    /// can be reserved here.
    pub fn fits(&self, channels: usize) -> bool {
        self.free_contexts >= 1 && self.free_channels >= channels
    }
}

/// A tenant-to-host placement policy.
///
/// `place` must return a host whose [`HostLoad::fits`] holds for
/// `channels`, or `None` when no host has room (the arrival is then
/// rejected at the cluster boundary and counted in
/// [`FleetReport::fleet_rejected`]).
pub trait FleetPlacement: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses a host for an arriving tenant needing `channels`
    /// channels. `loads` is ordered by host id.
    fn place(&mut self, loads: &[HostLoad], channels: usize) -> Option<HostId>;
}

/// Picks the fitting host with the most free channels — absolute
/// headroom, so bigger hosts absorb proportionally more tenants. Ties
/// by fewer tenants, then host id.
#[derive(Debug, Default)]
pub struct LeastLoadedHost;

impl FleetPlacement for LeastLoadedHost {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&mut self, loads: &[HostLoad], channels: usize) -> Option<HostId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .max_by(|a, b| {
                (a.free_channels, std::cmp::Reverse(a.tenants), b.host).cmp(&(
                    b.free_channels,
                    std::cmp::Reverse(b.tenants),
                    a.host,
                ))
            })
            .map(|l| l.host)
    }
}

/// Cycles through hosts in id order, skipping full ones.
#[derive(Debug, Default)]
pub struct RoundRobinHost {
    next: usize,
}

impl FleetPlacement for RoundRobinHost {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&mut self, loads: &[HostLoad], channels: usize) -> Option<HostId> {
        if loads.is_empty() {
            return None;
        }
        for i in 0..loads.len() {
            let idx = (self.next + i) % loads.len();
            if loads[idx].fits(channels) {
                self.next = (idx + 1) % loads.len();
                return Some(loads[idx].host);
            }
        }
        None
    }
}

/// Picks the fitting host with the fewest resident tenants (ties by
/// host id) — balances population regardless of host size.
#[derive(Debug, Default)]
pub struct FewestTenantsHost;

impl FleetPlacement for FewestTenantsHost {
    fn name(&self) -> &'static str {
        "fewest-tenants"
    }

    fn place(&mut self, loads: &[HostLoad], channels: usize) -> Option<HostId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .min_by_key(|l| (l.tenants, l.host))
            .map(|l| l.host)
    }
}

/// The fleet placement policies available to experiments, as a
/// sweepable axis (mirrors
/// [`PlacementKind`](crate::placement::PlacementKind) one level down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetPlacementKind {
    /// [`LeastLoadedHost`].
    LeastLoaded,
    /// [`RoundRobinHost`].
    RoundRobin,
    /// [`FewestTenantsHost`].
    FewestTenants,
}

impl FleetPlacementKind {
    /// Every policy, for exhaustive sweeps.
    pub const ALL: [FleetPlacementKind; 3] = [
        FleetPlacementKind::LeastLoaded,
        FleetPlacementKind::RoundRobin,
        FleetPlacementKind::FewestTenants,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn FleetPlacement> {
        match self {
            FleetPlacementKind::LeastLoaded => Box::new(LeastLoadedHost),
            FleetPlacementKind::RoundRobin => Box::new(RoundRobinHost::default()),
            FleetPlacementKind::FewestTenants => Box::new(FewestTenantsHost),
        }
    }

    /// Parses the label form back into a kind (`"least-loaded"`,
    /// `"round-robin"`, `"fewest-tenants"`).
    pub fn from_label(label: &str) -> Option<FleetPlacementKind> {
        FleetPlacementKind::ALL
            .into_iter()
            .find(|k| k.to_string() == label)
    }
}

impl std::fmt::Display for FleetPlacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetPlacementKind::LeastLoaded => f.write_str("least-loaded"),
            FleetPlacementKind::RoundRobin => f.write_str("round-robin"),
            FleetPlacementKind::FewestTenants => f.write_str("fewest-tenants"),
        }
    }
}

/// A planned tenant a [`FleetRebalance`] policy is allowed to move,
/// with the attributes migration pricing needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMigrationCandidate {
    /// Candidate ordinal — candidates are presented in admission order,
    /// so the last entry is the most recent admission (the same recency
    /// discipline the device-level policies use).
    pub ord: usize,
    /// The host the tenant currently lives on.
    pub host: HostId,
    /// Channels the tenant holds (what the target must fit).
    pub channels: usize,
    /// Working-set size in bytes — what a cross-host move ships over
    /// the cluster interconnect.
    pub working_set: u64,
}

/// One cross-host migration a policy asks the fleet to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMigration {
    /// Ordinal of the chosen [`HostMigrationCandidate`].
    pub candidate: usize,
    /// The host to move it to.
    pub to: HostId,
}

/// A departure-triggered cross-host rebalancing policy — the fleet
/// analogue of [`Rebalance`](crate::rebalance::Rebalance). After every
/// planned departure on a multi-host fleet, the policy sees the
/// post-departure [`HostLoad`] snapshot and the movable tenants, and
/// names at most one migration; the fleet prices it with the
/// [`ClusterInterconnect`] and restages the tenant on the target.
pub trait FleetRebalance: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// `false` if the policy never migrates — lets the fleet skip
    /// building snapshots on the departure path entirely.
    fn active(&self) -> bool {
        true
    }

    /// Picks at most one migration given the post-departure state.
    fn plan(
        &mut self,
        now: SimTime,
        loads: &[HostLoad],
        candidates: &[HostMigrationCandidate],
    ) -> Option<HostMigration>;
}

/// Never migrates across hosts.
#[derive(Debug, Default)]
pub struct FleetOff;

impl FleetRebalance for FleetOff {
    fn name(&self) -> &'static str {
        "off"
    }

    fn active(&self) -> bool {
        false
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _loads: &[HostLoad],
        _candidates: &[HostMigrationCandidate],
    ) -> Option<HostMigration> {
        None
    }
}

/// The count-difference heuristic one level up: when the most- and
/// least-populated hosts differ by ≥ 2 tenants, move the most recently
/// admitted movable tenant from the former to the latter (if it fits).
/// Charge-blind — the cluster transfer is charged but never weighed.
#[derive(Debug, Default)]
pub struct FleetCountDiff;

impl FleetRebalance for FleetCountDiff {
    fn name(&self) -> &'static str {
        "count-diff"
    }

    fn plan(
        &mut self,
        _now: SimTime,
        loads: &[HostLoad],
        candidates: &[HostMigrationCandidate],
    ) -> Option<HostMigration> {
        let mut max_i = 0;
        let mut min_i = 0;
        for (i, l) in loads.iter().enumerate() {
            if l.tenants > loads[max_i].tenants {
                max_i = i;
            }
            if l.tenants < loads[min_i].tenants {
                min_i = i;
            }
        }
        if loads[max_i].tenants < loads[min_i].tenants + 2 {
            return None;
        }
        let target = &loads[min_i];
        candidates
            .iter()
            .rev()
            .find(|c| c.host == loads[max_i].host && target.fits(c.channels))
            .map(|c| HostMigration {
                candidate: c.ord,
                to: target.host,
            })
    }
}

/// The fleet rebalancing policies, as a configuration axis (mirrors
/// [`RebalanceKind`](crate::rebalance::RebalanceKind)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetRebalanceKind {
    /// [`FleetOff`]: never migrate across hosts.
    Off,
    /// [`FleetCountDiff`]: the charge-blind population heuristic.
    CountDiff,
}

impl FleetRebalanceKind {
    /// Every policy.
    pub const ALL: [FleetRebalanceKind; 2] =
        [FleetRebalanceKind::Off, FleetRebalanceKind::CountDiff];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn FleetRebalance> {
        match self {
            FleetRebalanceKind::Off => Box::new(FleetOff),
            FleetRebalanceKind::CountDiff => Box::new(FleetCountDiff),
        }
    }

    /// Parses the label form back into a kind (`"off"`,
    /// `"count-diff"`).
    pub fn from_label(label: &str) -> Option<FleetRebalanceKind> {
        FleetRebalanceKind::ALL
            .into_iter()
            .find(|k| k.to_string() == label)
    }
}

impl std::fmt::Display for FleetRebalanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetRebalanceKind::Off => f.write_str("off"),
            FleetRebalanceKind::CountDiff => f.write_str("count-diff"),
        }
    }
}

/// Builds continuation instances of a migratable tenant's workload —
/// cross-host migration is teardown-and-restage, so the target host
/// needs a fresh instance.
pub type WorkloadFactory = Box<dyn FnMut() -> BoxedWorkload + Send>;

/// One recorded future arrival, and where planning routed it.
struct FleetSpawn {
    at: SimTime,
    /// Scheduled stay; `None` runs to workload completion or horizon.
    lifetime: Option<SimDuration>,
    channels: usize,
    working_set: u64,
    /// The instance staged on the placed host; taken at stage time.
    workload: Option<BoxedWorkload>,
    /// Continuation builder; `None` marks the tenant non-migratable.
    factory: Option<WorkloadFactory>,
    /// The host planning routed this spawn to; `None` = rejected at
    /// the cluster boundary (or not planned yet).
    host: Option<usize>,
    /// Planned departure instant after truncation by a migration;
    /// `None` keeps the recorded `lifetime`.
    truncated_at: Option<SimTime>,
}

/// Per-host capacity ledger entry (planned reservations).
#[derive(Debug, Clone, Copy)]
struct HostState {
    total_contexts: usize,
    total_channels: usize,
    used_contexts: usize,
    used_channels: usize,
    tenants: usize,
    devices: usize,
}

impl HostState {
    fn load(&self, host: usize) -> HostLoad {
        HostLoad {
            host: HostId::from_index(host),
            tenants: self.tenants,
            free_contexts: self.total_contexts - self.used_contexts,
            free_channels: self.total_channels - self.used_channels,
            devices: self.devices,
        }
    }

    fn occupy(&mut self, channels: usize) {
        self.used_contexts += 1;
        self.used_channels += channels;
        self.tenants += 1;
    }

    fn release(&mut self, channels: usize) {
        self.used_contexts -= 1;
        self.used_channels -= channels;
        self.tenants -= 1;
    }
}

/// A planned resident tenant, tracked through the planning pass.
struct Resident {
    spawn: usize,
    host: usize,
    channels: usize,
    working_set: u64,
    migratable: bool,
    live: bool,
}

/// A planning-pass action.
enum Act {
    Arrival(usize),
    Departure(usize),
    HostFail(usize),
    HostRecover(usize),
}

/// Whole-fleet outcome: per-host reports plus the cluster-level view.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Wall-clock (simulated) length of the run.
    pub wall: SimDuration,
    /// Per-host outcomes, in host-id order.
    pub hosts: Vec<RunReport>,
    /// Per-workload-name telemetry across hosts (streaming mode only;
    /// empty in exact mode), derived at report time from every
    /// streaming host's tasks in host order, via lossless
    /// [`StreamingHistogram::merge`](neon_metrics::StreamingHistogram::merge).
    pub groups: Vec<GroupReport>,
    /// Tenants the fleet moved between hosts.
    pub cross_host_migrations: u64,
    /// Total simulated time tenants spent in cross-host working-set
    /// transfers (the cluster interconnect's charge; zero on free
    /// clusters).
    pub cluster_transfer_stall: SimDuration,
    /// Arrivals rejected at the cluster boundary: no host's ledger had
    /// room. Host-level rejections (ground-truth admission control)
    /// are counted in each host's [`RunReport::stats`] instead.
    pub fleet_rejected: u64,
    /// Whole-host failures injected from the fleet's
    /// [`FaultPlan`] (multi-host fleets only).
    pub host_failures: u64,
    /// Tenants lost to host failures: non-migratable residents of a
    /// failed host, or migratable ones no surviving host could take.
    pub fleet_lost_tasks: u64,
    /// Tenants re-admitted on a surviving host after their host failed
    /// (each also counts in [`FleetReport::cross_host_migrations`]).
    pub fleet_fault_recovered: u64,
    /// Degraded-capacity time: host-outage spans summed across hosts
    /// (a host still down at the horizon is charged through it).
    pub host_degraded: SimDuration,
}

impl FleetReport {
    /// Mean compute utilization across every device of every host.
    pub fn utilization(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts.iter().map(|h| h.utilization()).sum::<f64>() / self.hosts.len() as f64
    }

    /// Rounds completed across the whole fleet, in either metrics mode.
    pub fn total_rounds(&self) -> u64 {
        round_count(self.hosts.iter().flat_map(|h| &h.tasks))
    }

    /// Admissions refused anywhere: at the cluster boundary plus on
    /// every host.
    pub fn rejected_admissions(&self) -> u64 {
        self.fleet_rejected
            + self
                .hosts
                .iter()
                .map(|h| h.stats.get(StatKey::RejectedAdmissions))
                .sum::<u64>()
    }

    /// Every task's round durations across the fleet as one queryable
    /// [`Distribution`], whichever metrics mode produced the run
    /// (mirrors [`RunReport::round_distribution`]).
    pub fn round_distribution(&self) -> Box<dyn Distribution> {
        round_distribution(self.hosts.iter().flat_map(|h| &h.tasks))
    }
}

/// A fleet of hosts behind cluster-level admission and placement.
///
/// Build each host [`World`] (with its own per-device schedulers and
/// intra-host placement), hand them to [`Fleet::new`], stage tenants
/// with [`Fleet::add_task`] / [`Fleet::spawn_task_at`] /
/// [`Fleet::spawn_migratable_for`], and call [`Fleet::run`] once.
/// [`Fleet::into_hosts`] hands the worlds back for reuse.
pub struct Fleet {
    hosts: Vec<World>,
    placement: Box<dyn FleetPlacement>,
    rebalance: Box<dyn FleetRebalance>,
    cluster: ClusterInterconnect,
    /// t = 0 ledger: capacity minus eager [`Fleet::add_task`]
    /// reservations. Cloned as the planning pass's working state.
    ledger: Vec<HostState>,
    spawns: Vec<FleetSpawn>,
    faults: Option<FaultPlan>,
    fleet_rejected: u64,
    cross_host_migrations: u64,
    cluster_transfer_stall: SimDuration,
    host_failures: u64,
    fleet_lost_tasks: u64,
    fleet_fault_recovered: u64,
    host_degraded: SimDuration,
    started: bool,
}

impl Fleet {
    /// A fleet over the given host worlds, each freshly built or
    /// [`World::reset`] and not yet staged.
    ///
    /// # Panics
    ///
    /// Panics when `hosts` is empty.
    pub fn new(
        hosts: Vec<World>,
        placement: Box<dyn FleetPlacement>,
        rebalance: Box<dyn FleetRebalance>,
        cluster: ClusterInterconnect,
    ) -> Self {
        assert!(!hosts.is_empty(), "a fleet needs at least one host");
        let ledger = hosts
            .iter()
            .map(|w| {
                let (contexts, channels) = w.free_capacity();
                HostState {
                    total_contexts: contexts,
                    total_channels: channels,
                    used_contexts: 0,
                    used_channels: 0,
                    tenants: 0,
                    devices: w.device_count(),
                }
            })
            .collect();
        Fleet {
            hosts,
            placement,
            rebalance,
            cluster,
            ledger,
            spawns: Vec::new(),
            faults: None,
            fleet_rejected: 0,
            cross_host_migrations: 0,
            cluster_transfer_stall: SimDuration::ZERO,
            host_failures: 0,
            fleet_lost_tasks: 0,
            fleet_fault_recovered: 0,
            host_degraded: SimDuration::ZERO,
            started: false,
        }
    }

    /// Attaches a fault plan whose **host-scope** events
    /// ([`FaultKind::HostFail`] / [`FaultKind::HostRecover`]) drive
    /// cluster-level failure and recovery during planning. World-scope
    /// events do not cross the host boundary — attach those to each
    /// host's [`WorldConfig::faults`](crate::world::WorldConfig) (the
    /// scenario driver hands every host the world-level slice of the
    /// same plan). Single-host fleets ignore host events: with nowhere
    /// to re-admit, the transparent-fleet guarantee wins.
    ///
    /// Host failure governs the *scheduled* tenant population — the
    /// `spawn_*` tenants the planning pass routes. Tenants staged
    /// before the run with [`Fleet::add_task`] are host-world state
    /// the planning pass never owns; they ride through the outage
    /// untouched (the outage is still charged to `host_degraded`).
    /// Model crash-vulnerable residents as `spawn_task_at(ZERO, ..)`
    /// instead.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        assert!(!self.started, "set_faults after Fleet::run");
        self.faults = Some(plan);
    }

    /// The host world at index `h` (trace access for tests and
    /// debugging).
    pub fn host(&self, h: usize) -> &World {
        &self.hosts[h]
    }

    /// Mutable access to the host world at index `h` (e.g. to arm its
    /// trace before [`Fleet::run`]).
    pub fn host_mut(&mut self, h: usize) -> &mut World {
        &mut self.hosts[h]
    }

    fn multi(&self) -> bool {
        self.hosts.len() > 1
    }

    fn loads(&self) -> Vec<HostLoad> {
        self.ledger
            .iter()
            .enumerate()
            .map(|(h, s)| s.load(h))
            .collect()
    }

    /// Admits a tenant immediately (before the run starts), on the
    /// host the fleet placement policy chooses — the cluster analogue
    /// of [`World::add_task`]. Single-host fleets route straight to
    /// their host, whose own admission control answers.
    ///
    /// # Errors
    ///
    /// Returns the device error when no host can take the tenant.
    pub fn add_task(&mut self, workload: BoxedWorkload) -> Result<(HostId, TaskId), GpuError> {
        assert!(!self.started, "add_task after Fleet::run");
        let channels = workload.queues().len();
        let host = if self.multi() {
            let loads = self.loads();
            match self.placement.place(&loads, channels) {
                Some(h) => h.index(),
                None => {
                    self.fleet_rejected += 1;
                    return Err(shortage(loads.iter().map(|l| l.free_contexts)));
                }
            }
        } else {
            0
        };
        let id = self.hosts[host].add_task(workload)?;
        self.ledger[host].occupy(channels);
        Ok((HostId::from_index(host), id))
    }

    /// Schedules a non-migratable tenant to arrive at `at`; planning
    /// routes it to a host at that instant.
    pub fn spawn_task_at(&mut self, at: SimTime, workload: BoxedWorkload) {
        self.record_spawn(at, None, workload, None);
    }

    /// Like [`Fleet::spawn_task_at`], departing `lifetime` after
    /// admission.
    pub fn spawn_task_for(&mut self, at: SimTime, workload: BoxedWorkload, lifetime: SimDuration) {
        self.record_spawn(at, Some(lifetime), workload, None);
    }

    /// Schedules a *migratable* tenant: `factory` builds its workload
    /// instances, so a cross-host migration can tear the tenant down
    /// on the source host and restage a fresh instance on the target
    /// (workload progress does not survive the move — the same
    /// restart-from-zero price a process pays when a cluster scheduler
    /// relocates it).
    pub fn spawn_migratable_at(&mut self, at: SimTime, mut factory: WorkloadFactory) {
        let workload = factory();
        self.record_spawn(at, None, workload, Some(factory));
    }

    /// Like [`Fleet::spawn_migratable_at`], departing `lifetime` after
    /// admission.
    pub fn spawn_migratable_for(
        &mut self,
        at: SimTime,
        mut factory: WorkloadFactory,
        lifetime: SimDuration,
    ) {
        let workload = factory();
        self.record_spawn(at, Some(lifetime), workload, Some(factory));
    }

    fn record_spawn(
        &mut self,
        at: SimTime,
        lifetime: Option<SimDuration>,
        workload: BoxedWorkload,
        factory: Option<WorkloadFactory>,
    ) {
        assert!(!self.started, "spawn after Fleet::run");
        if !self.multi() {
            // A lone host has no routing to plan: stage on it now, so a
            // 1-host fleet sees every call in exactly the order a bare
            // world would, however adds and spawns interleave.
            match lifetime {
                Some(l) => self.hosts[0].spawn_task_for(at, workload, l),
                None => self.hosts[0].spawn_task_at(at, workload),
            }
            return;
        }
        self.spawns.push(FleetSpawn {
            at,
            lifetime,
            channels: workload.queues().len(),
            working_set: workload.working_set_bytes(),
            workload: Some(workload),
            factory,
            host: None,
            truncated_at: None,
        });
    }

    /// The cluster-level planning pass: routes every recorded spawn to
    /// a host (or rejects it), and lets the rebalance policy name
    /// cross-host migrations at departures. Single-host fleets skip
    /// planning entirely: their spawns were staged on host 0 as they
    /// were recorded, so the host's own admission control is the only
    /// gate (and the staged program is byte-identical to a bare
    /// world's).
    fn plan(&mut self, horizon: SimDuration) {
        if !self.multi() {
            return;
        }
        // The planning pass's actions in (time, creation order):
        // same-instant actions run in creation order, so the pass is
        // deterministic.
        let mut agenda: EventQueue<Act> = EventQueue::new();
        // Host faults enqueue first: a failure at an arrival's instant
        // is visible to that arrival's placement decision.
        for ev in self.faults.iter().flat_map(|plan| plan.host_events()) {
            let act = match ev.kind {
                FaultKind::HostFail { host } => Act::HostFail(host as usize),
                FaultKind::HostRecover { host } => Act::HostRecover(host as usize),
                _ => continue,
            };
            agenda.schedule(ev.at, act);
        }
        for (i, spawn) in self.spawns.iter().enumerate() {
            agenda.schedule(spawn.at, Act::Arrival(i));
        }
        let mut state = self.ledger.clone();
        let mut residents: Vec<Resident> = Vec::new();
        let mut down = vec![false; state.len()];
        let mut down_since: Vec<Option<SimTime>> = vec![None; state.len()];
        // A down host advertises zero free capacity, so no placement
        // policy can route an arrival (or a re-admission) to it.
        fn masked_loads(state: &[HostState], down: &[bool]) -> Vec<HostLoad> {
            state
                .iter()
                .enumerate()
                .map(|(h, s)| {
                    let mut l = s.load(h);
                    if down[h] {
                        l.free_contexts = 0;
                        l.free_channels = 0;
                    }
                    l
                })
                .collect()
        }
        let rebalance_active = self.rebalance.active();
        while let Some((now, act)) = agenda.pop() {
            match act {
                Act::Arrival(i) => {
                    let loads = masked_loads(&state, &down);
                    match self.placement.place(&loads, self.spawns[i].channels) {
                        Some(h) => {
                            self.reside(&mut agenda, &mut residents, &mut state, i, h.index())
                        }
                        None => self.fleet_rejected += 1,
                    }
                }
                Act::Departure(r) => {
                    if !residents[r].live {
                        continue;
                    }
                    residents[r].live = false;
                    state[residents[r].host].release(residents[r].channels);
                    if !rebalance_active {
                        continue;
                    }
                    // Post-departure snapshot + movable tenants, in
                    // admission order (continuations are already
                    // non-migratable, so one move per tenant).
                    let loads = masked_loads(&state, &down);
                    let candidates: Vec<HostMigrationCandidate> = residents
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.live && c.migratable)
                        .map(|(ord, c)| HostMigrationCandidate {
                            ord,
                            host: HostId::from_index(c.host),
                            channels: c.channels,
                            working_set: c.working_set,
                        })
                        .collect();
                    let Some(m) = self.rebalance.plan(now, &loads, &candidates) else {
                        continue;
                    };
                    let mover = m.candidate;
                    let to = m.to.index();
                    // Verify the plan before executing it, mirroring
                    // the world's distrust of policy output.
                    let sound = residents.get(mover).is_some_and(|c| {
                        c.live && c.migratable && c.host != to && to < state.len()
                    }) && !down[to]
                        && state[to].load(to).fits(residents[mover].channels);
                    if !sound {
                        continue;
                    }
                    let (src, channels) = (residents[mover].host, residents[mover].channels);
                    if self.relocate(&mut agenda, &mut residents, &mut state, mover, to, now) {
                        state[src].release(channels);
                        residents[mover].live = false;
                    }
                }
                Act::HostFail(h) => {
                    if h >= state.len() || down[h] {
                        continue;
                    }
                    down[h] = true;
                    down_since[h] = Some(now);
                    self.host_failures += 1;
                    // Every resident dies with the host. Migratable
                    // tenants are re-admitted on a surviving host over
                    // the cluster interconnect (teardown-and-restage,
                    // same as a planned migration); the rest are lost.
                    let victims: Vec<usize> = residents
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.live && c.host == h)
                        .map(|(r, _)| r)
                        .collect();
                    for r in victims {
                        residents[r].live = false;
                        state[h].release(residents[r].channels);
                        self.spawns[residents[r].spawn].truncated_at = Some(now);
                        let to = if residents[r].migratable {
                            let loads = masked_loads(&state, &down);
                            let to = self.placement.place(&loads, residents[r].channels);
                            to.map(|to| to.index())
                        } else {
                            None
                        };
                        let moved = to.is_some_and(|to| {
                            self.relocate(&mut agenda, &mut residents, &mut state, r, to, now)
                        });
                        if moved {
                            self.fleet_fault_recovered += 1;
                        } else {
                            self.fleet_lost_tasks += 1;
                        }
                    }
                }
                Act::HostRecover(h) => {
                    if h >= state.len() || !down[h] {
                        continue;
                    }
                    down[h] = false;
                    if let Some(since) = down_since[h].take() {
                        self.host_degraded += now.saturating_duration_since(since);
                    }
                }
            }
        }
        // A host still down when the plan ends is degraded through the
        // horizon.
        let end = SimTime::ZERO + horizon;
        for since in down_since.iter_mut().filter_map(|s| s.take()) {
            self.host_degraded += end.saturating_duration_since(since);
        }
    }

    /// Re-admits resident `r`'s tenant on host `to` after the cluster
    /// transfer of its working set: truncates its stay at `now`, makes
    /// its continuation ([`mover_continuation`]) resident on `to` and
    /// counts the move. Returns `false`, changing nothing, when the stay
    /// would end on the wire. The caller releases the source residence.
    fn relocate(
        &mut self,
        agenda: &mut EventQueue<Act>,
        residents: &mut Vec<Resident>,
        state: &mut [HostState],
        r: usize,
        to: usize,
        now: SimTime,
    ) -> bool {
        let spawn = residents[r].spawn;
        let transfer = self.cluster.transfer_cost(residents[r].working_set);
        let rearrive = now + transfer;
        let ends = self.spawns[spawn]
            .lifetime
            .map(|l| self.spawns[spawn].at + l);
        if ends.is_some_and(|ends| ends <= rearrive) {
            return false;
        }
        let remaining = ends.map(|ends| ends.saturating_duration_since(rearrive));
        self.spawns[spawn].truncated_at = Some(now);
        let cont = mover_continuation(&mut self.spawns, spawn, rearrive, remaining);
        self.reside(agenda, residents, state, cont, to);
        self.cross_host_migrations += 1;
        self.cluster_transfer_stall += transfer;
        true
    }

    /// Routes `spawn` to `host`: reserves its room in the ledger, tracks
    /// it as a resident and schedules its departure.
    fn reside(
        &mut self,
        agenda: &mut EventQueue<Act>,
        residents: &mut Vec<Resident>,
        state: &mut [HostState],
        spawn: usize,
        host: usize,
    ) {
        let s = &mut self.spawns[spawn];
        state[host].occupy(s.channels);
        s.host = Some(host);
        if let Some(l) = s.lifetime {
            agenda.schedule(s.at + l, Act::Departure(residents.len()));
        }
        residents.push(Resident {
            spawn,
            host,
            channels: s.channels,
            working_set: s.working_set,
            migratable: s.factory.is_some(),
            live: true,
        });
    }

    /// Runs the whole fleet to `horizon` and merges the per-host
    /// reports. Call once.
    pub fn run(&mut self, horizon: SimDuration) -> FleetReport {
        assert!(!self.started, "a Fleet runs once");
        self.started = true;
        self.plan(horizon);
        // Stage every routed spawn, in record order (continuations
        // follow the original spawns in migration order). A single
        // host has none left: its spawns were staged at call time.
        for i in 0..self.spawns.len() {
            let Some(host) = self.spawns[i].host else {
                continue;
            };
            let workload = self.spawns[i]
                .workload
                .take()
                // lint: allow(unchecked-unwrap) — plan staging visits each
                // spawn exactly once, so its workload is still present
                .expect("each spawn stages once");
            let at = self.spawns[i].at;
            let lifetime = match self.spawns[i].truncated_at {
                Some(t) => Some(t.saturating_duration_since(at)),
                None => self.spawns[i].lifetime,
            };
            match lifetime {
                Some(l) => self.hosts[host].spawn_task_for(at, workload, l),
                None => self.hosts[host].spawn_task_at(at, workload),
            }
        }
        let hosts: Vec<RunReport> = self.hosts.iter_mut().map(|w| w.run(horizon)).collect();
        // A host reports groups only in streaming mode (and only if it
        // admitted anyone), so this skips exact hosts' tasks.
        let groups = groups_of(
            hosts
                .iter()
                .filter(|h| !h.groups.is_empty())
                .flat_map(|h| &h.tasks),
        );
        FleetReport {
            wall: horizon,
            hosts,
            groups,
            cross_host_migrations: self.cross_host_migrations,
            cluster_transfer_stall: self.cluster_transfer_stall,
            fleet_rejected: self.fleet_rejected,
            host_failures: self.host_failures,
            fleet_lost_tasks: self.fleet_lost_tasks,
            fleet_fault_recovered: self.fleet_fault_recovered,
            host_degraded: self.host_degraded,
        }
    }

    /// Dissolves the fleet into its host worlds, so a caller can
    /// [`World::reset`] and reuse them for the next fleet.
    pub fn into_hosts(self) -> Vec<World> {
        self.hosts
    }
}

/// Appends the continuation spawn for a migrated tenant and returns
/// its index. A helper (not a method) so the borrow on `spawns` stays
/// local to the planning loop.
fn mover_continuation(
    spawns: &mut Vec<FleetSpawn>,
    source: usize,
    at: SimTime,
    lifetime: Option<SimDuration>,
) -> usize {
    let mut factory = spawns[source]
        .factory
        .take()
        // lint: allow(unchecked-unwrap) — the rebalance planner only migrates
        // spawns staged with a rebuildable factory, each at most once
        .expect("only migratable spawns migrate");
    let workload = factory();
    let channels = workload.queues().len();
    let working_set = workload.working_set_bytes();
    spawns.push(FleetSpawn {
        at,
        lifetime,
        channels,
        working_set,
        workload: Some(workload),
        factory: None,
        host: None,
        truncated_at: None,
    });
    spawns.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(host: u32, tenants: usize, free: usize) -> HostLoad {
        HostLoad {
            host: HostId::new(host),
            tenants,
            free_contexts: free,
            free_channels: free * 2,
            devices: 1,
        }
    }

    #[test]
    fn least_loaded_prefers_headroom_and_skips_full() {
        let mut p = LeastLoadedHost;
        let loads = [load(0, 4, 0), load(1, 2, 3), load(2, 2, 5)];
        assert_eq!(p.place(&loads, 1), Some(HostId::new(2)));
        assert_eq!(p.place(&loads, 11), None, "nothing fits 11 channels");
    }

    #[test]
    fn round_robin_cycles_and_skips_full() {
        let mut p = RoundRobinHost::default();
        let loads = [load(0, 0, 2), load(1, 0, 2), load(2, 0, 0)];
        assert_eq!(p.place(&loads, 1), Some(HostId::new(0)));
        assert_eq!(p.place(&loads, 1), Some(HostId::new(1)));
        assert_eq!(p.place(&loads, 1), Some(HostId::new(0)), "host 2 is full");
    }

    #[test]
    fn fewest_tenants_balances_population() {
        let mut p = FewestTenantsHost;
        let loads = [load(0, 3, 5), load(1, 1, 2), load(2, 2, 9)];
        assert_eq!(p.place(&loads, 1), Some(HostId::new(1)));
    }

    #[test]
    fn count_diff_moves_latest_fitting_tenant_on_imbalance() {
        let mut p = FleetCountDiff;
        let loads = [load(0, 3, 4), load(1, 1, 4)];
        let cand = |ord: usize, host: u32| HostMigrationCandidate {
            ord,
            host: HostId::new(host),
            channels: 1,
            working_set: 64 << 20,
        };
        let cands = [cand(0, 0), cand(1, 1), cand(2, 0)];
        assert_eq!(
            p.plan(SimTime::ZERO, &loads, &cands),
            Some(HostMigration {
                candidate: 2,
                to: HostId::new(1)
            })
        );
        // Imbalance of 1: leave things alone.
        let loads = [load(0, 2, 4), load(1, 1, 4)];
        assert_eq!(p.plan(SimTime::ZERO, &loads, &cands), None);
    }

    #[test]
    fn labels_round_trip() {
        for kind in FleetPlacementKind::ALL {
            assert_eq!(
                FleetPlacementKind::from_label(&kind.to_string()),
                Some(kind)
            );
        }
        assert_eq!(FleetPlacementKind::from_label("warp-drive"), None);
        for kind in FleetRebalanceKind::ALL {
            assert_eq!(
                FleetRebalanceKind::from_label(&kind.to_string()),
                Some(kind)
            );
        }
        assert_eq!(FleetRebalanceKind::from_label("cost-aware"), None);
    }
}
