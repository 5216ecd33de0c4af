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
//!    the tenant's residence on the source host and restages a clone
//!    of its unrun instance on the target after the cluster transfer
//!    delay — teardown-and-restage semantics, exactly what moving a
//!    process between machines costs.
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
//! # Host lanes
//!
//! After planning nothing couples two hosts, so [`Fleet::run`] runs a
//! multi-host fleet's worlds in parallel *lanes*, at most one per
//! available CPU. The hosts are split into contiguous blocks; the
//! calling thread runs the first and a scoped thread each later one,
//! and the reports are put back in host order, so the report and the
//! recycled worlds are byte-identical at any lane count. The threads
//! end with the run: nothing of a fleet runs after [`Fleet::run`]
//! returns or unwinds, and a panic in any block resumes on the caller
//! with its payload. A host's world may run on another thread, which is
//! why [`Workload`](crate::workload::Workload) and
//! [`Scheduler`](crate::sched::Scheduler) are `Send`. A single-host
//! fleet, a one-CPU machine and a zero horizon (nothing to simulate
//! past the first instant) run every host on the calling thread and
//! start none.
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

mod lanes;
mod policy;

pub use policy::{
    FewestTenantsHost, FleetCountDiff, FleetOff, FleetPlacement, FleetPlacementKind,
    FleetRebalance, FleetRebalanceKind, HostLoad, HostMigration, HostMigrationCandidate,
    LeastLoadedHost, RoundRobinHost,
};

/// One recorded future arrival, and where planning routed it.
struct FleetSpawn {
    at: SimTime,
    /// Scheduled stay; `None` runs to workload completion or horizon.
    lifetime: Option<SimDuration>,
    channels: usize,
    working_set: u64,
    /// The instance staged on the placed host; taken at stage time.
    /// Until then it has not run, so a cross-host move's continuation
    /// is a [`Workload::box_clone`](crate::workload::Workload::box_clone)
    /// of it.
    workload: Option<BoxedWorkload>,
    /// Whether the rebalance planner and host failures may move it.
    migratable: bool,
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

/// Every resident the planning pass has routed, in admission order,
/// plus an ascending index of the live migratable ones: a departure's
/// rebalance candidates then cost the live population, not every
/// resident ever routed. Residents are read through the slice;
/// [`Residents::retire`] is the only way to end one, so the index
/// cannot drift from the `live` flags.
#[derive(Default)]
struct Residents {
    all: Vec<Resident>,
    /// Indices into `all` of the live migratable residents, ascending.
    movable: Vec<usize>,
}

impl Residents {
    fn push(&mut self, resident: Resident) {
        if resident.migratable {
            self.movable.push(self.all.len());
        }
        self.all.push(resident);
    }

    /// Ends resident `r`'s residence: marks it dead and unlists it.
    fn retire(&mut self, r: usize) {
        self.all[r].live = false;
        if let Ok(i) = self.movable.binary_search(&r) {
            self.movable.remove(i);
        }
    }

    /// `true` when the index lists exactly the live migratable
    /// residents, in order — what a scan of `all` would find.
    fn index_matches_scan(&self) -> bool {
        let scan = self
            .all
            .iter()
            .enumerate()
            .filter(|(_, c)| c.live && c.migratable);
        self.movable.iter().copied().eq(scan.map(|(r, _)| r))
    }
}

impl std::ops::Deref for Residents {
    type Target = [Resident];

    fn deref(&self) -> &[Resident] {
        &self.all
    }
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
        self.record_spawn(at, None, workload, false);
    }

    /// Like [`Fleet::spawn_task_at`], departing `lifetime` after
    /// admission.
    pub fn spawn_task_for(&mut self, at: SimTime, workload: BoxedWorkload, lifetime: SimDuration) {
        self.record_spawn(at, Some(lifetime), workload, false);
    }

    /// Schedules a *migratable* tenant: a cross-host migration tears
    /// it down on the source and restages a
    /// [`box_clone`](crate::workload::Workload::box_clone) of `workload`
    /// on the target (workload progress does not survive the move — the
    /// same restart-from-zero price a process pays when a cluster
    /// scheduler relocates it). Planning clones before anything runs, so
    /// the continuation starts where `workload` does.
    pub fn spawn_migratable_at(&mut self, at: SimTime, workload: BoxedWorkload) {
        self.record_spawn(at, None, workload, true);
    }

    /// Like [`Fleet::spawn_migratable_at`], departing `lifetime` after
    /// admission.
    pub fn spawn_migratable_for(
        &mut self,
        at: SimTime,
        workload: BoxedWorkload,
        lifetime: SimDuration,
    ) {
        self.record_spawn(at, Some(lifetime), workload, true);
    }

    fn record_spawn(
        &mut self,
        at: SimTime,
        lifetime: Option<SimDuration>,
        workload: BoxedWorkload,
        migratable: bool,
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
            migratable,
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
        let mut residents = Residents::default();
        let mut down = vec![false; state.len()];
        let mut down_since: Vec<Option<SimTime>> = vec![None; state.len()];
        // One load snapshot and one candidate list, refilled at every
        // decision of the pass.
        let mut loads: Vec<HostLoad> = Vec::with_capacity(state.len());
        let mut candidates: Vec<HostMigrationCandidate> = Vec::new();
        // A down host advertises zero free capacity, so no placement
        // policy can route an arrival (or a re-admission) to it.
        fn masked_loads(state: &[HostState], down: &[bool], loads: &mut Vec<HostLoad>) {
            loads.clear();
            loads.extend(state.iter().enumerate().map(|(h, s)| {
                let mut l = s.load(h);
                if down[h] {
                    l.free_contexts = 0;
                    l.free_channels = 0;
                }
                l
            }));
        }
        let rebalance_active = self.rebalance.active();
        while let Some((now, act)) = agenda.pop() {
            match act {
                Act::Arrival(i) => {
                    masked_loads(&state, &down, &mut loads);
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
                    residents.retire(r);
                    state[residents[r].host].release(residents[r].channels);
                    debug_assert!(
                        residents.index_matches_scan(),
                        "the movable index must list exactly the live migratable residents"
                    );
                    if !rebalance_active {
                        continue;
                    }
                    // Post-departure snapshot + movable tenants, in
                    // admission order (continuations are already
                    // non-migratable, so one move per tenant).
                    masked_loads(&state, &down, &mut loads);
                    candidates.clear();
                    candidates.extend(residents.movable.iter().map(|&ord| {
                        let c = &residents[ord];
                        HostMigrationCandidate {
                            ord,
                            host: HostId::from_index(c.host),
                            channels: c.channels,
                            working_set: c.working_set,
                        }
                    }));
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
                        residents.retire(mover);
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
                        residents.retire(r);
                        state[h].release(residents[r].channels);
                        self.spawns[residents[r].spawn].truncated_at = Some(now);
                        let to = if residents[r].migratable {
                            masked_loads(&state, &down, &mut loads);
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
        residents: &mut Residents,
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
        residents: &mut Residents,
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
            migratable: s.migratable,
            live: true,
        });
    }

    /// Runs the whole fleet to `horizon` and merges the per-host
    /// reports. Call once.
    ///
    /// Planning and staging run on the calling thread. The host worlds
    /// then run in up to one lane per available CPU: the caller runs
    /// the first block of hosts and a scoped thread each later block
    /// (the module doc's "Host lanes"). The report is the same for any
    /// lane count. A single-host fleet runs on the calling thread and
    /// starts no thread. A panic in any host's run resumes here, once
    /// every lane has ended.
    pub fn run(&mut self, horizon: SimDuration) -> FleetReport {
        self.run_in_lanes(horizon, lanes::lanes_for(self.hosts.len()))
    }

    /// [`Fleet::run`] over at most `lanes` lanes.
    fn run_in_lanes(&mut self, horizon: SimDuration, lanes: usize) -> FleetReport {
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
        let hosts = lanes::run(&mut self.hosts, horizon, lanes);
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
    let workload = spawns[source]
        .workload
        .as_ref()
        // lint: allow(unchecked-unwrap) — planning runs before staging
        // takes any spawn's workload
        .expect("a planned spawn still holds its workload")
        .box_clone();
    let channels = workload.queues().len();
    let working_set = workload.working_set_bytes();
    spawns.push(FleetSpawn {
        at,
        lifetime,
        channels,
        working_set,
        workload: Some(workload),
        migratable: false,
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

    /// A count-diff policy that records every decision it is asked for.
    struct Recording {
        seen: std::sync::Arc<std::sync::Mutex<Vec<Seen>>>,
    }

    /// One recorded departure: its instant, the candidates and the
    /// migration the policy named.
    type Seen = (SimTime, Vec<HostMigrationCandidate>, Option<HostMigration>);

    impl FleetRebalance for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn plan(
            &mut self,
            now: SimTime,
            loads: &[HostLoad],
            candidates: &[HostMigrationCandidate],
        ) -> Option<HostMigration> {
            let pick = FleetCountDiff.plan(now, loads, candidates);
            let mut seen = self.seen.lock().unwrap();
            seen.push((now, candidates.to_vec(), pick));
            pick
        }
    }

    /// Every departure's candidate list must name exactly the live
    /// migratable residents. `Fleet::plan` asserts its index against a
    /// scan at each departure (debug builds); this drives that check
    /// through departures, relocations and a host failure on a
    /// churning 3-host fleet, and checks the lists from outside: a
    /// candidate is inside its scheduled stay, never on a down host,
    /// and never again after it moved.
    #[test]
    fn rebalance_candidates_are_the_live_migratable_residents() {
        use crate::cost::SchedParams;
        use crate::fault::FaultPlan;
        use crate::placement::PlacementKind;
        use crate::sched::SchedulerKind;
        use crate::workload::{FixedLoop, WithWorkingSet};
        use crate::world::WorldConfig;
        use neon_sim::DetRng;

        let ms = SimDuration::from_millis;
        let host = |seed: u64| {
            let config = WorldConfig {
                seed,
                ..WorldConfig::default()
            };
            World::with_devices(config, PlacementKind::LeastLoaded.build(), |_| {
                SchedulerKind::Direct.build(SchedParams::default())
            })
        };
        let seen = std::sync::Arc::default();
        let mut fleet = Fleet::new(
            vec![host(1), host(2), host(3)],
            FleetPlacementKind::RoundRobin.build(),
            Box::new(Recording {
                seen: std::sync::Arc::clone(&seen),
            }),
            ClusterInterconnect::free(),
        );
        let (fail_at, recover_at) = (SimTime::ZERO + ms(10), SimTime::ZERO + ms(16));
        let mut plan = FaultPlan::default();
        plan.push(fail_at, FaultKind::HostFail { host: 1 });
        plan.push(recover_at, FaultKind::HostRecover { host: 1 });
        fleet.set_faults(plan);
        // A migratable tenant's working set names its spawn, so each
        // candidate maps back to its scheduled stay.
        let member = |ws: u64| -> BoxedWorkload {
            let inner = FixedLoop::endless("m", SimDuration::from_micros(90), SimDuration::ZERO);
            Box::new(WithWorkingSet::new(Box::new(inner), ws))
        };
        let mut stays: Vec<(u64, SimTime, Option<SimTime>)> = Vec::new();
        let mut rng = DetRng::seed_from(0xF1EE7);
        for i in 0..60u64 {
            let at = SimTime::ZERO + SimDuration::from_micros(400 * i + 100);
            let lifetime = (i % 7 != 3).then(|| rng.uniform(ms(1), ms(12)));
            let ws = (i + 1) << 20;
            if i % 3 == 2 {
                match lifetime {
                    Some(l) => fleet.spawn_task_for(at, member(ws), l),
                    None => fleet.spawn_task_at(at, member(ws)),
                }
                continue;
            }
            stays.push((ws, at, lifetime.map(|l| at + l)));
            match lifetime {
                Some(l) => fleet.spawn_migratable_for(at, member(ws), l),
                None => fleet.spawn_migratable_at(at, member(ws)),
            }
        }
        let report = fleet.run(ms(40));
        assert_eq!(report.host_failures, 1);
        assert!(report.fleet_fault_recovered > 0, "the failure re-admits");
        assert!(report.cross_host_migrations > report.fleet_fault_recovered);

        let seen = seen.lock().unwrap();
        assert!(seen.len() > 20, "the churn departs often: {}", seen.len());
        let mut moved: Vec<u64> = Vec::new();
        for (now, candidates, pick) in seen.iter() {
            assert!(candidates.windows(2).all(|w| w[0].ord < w[1].ord));
            for c in candidates {
                let &(ws, at, ends) = stays.iter().find(|s| s.0 == c.working_set).unwrap();
                assert!(
                    at <= *now && ends.is_none_or(|e| *now <= e),
                    "{ws} outside its stay"
                );
                let down = (fail_at..recover_at).contains(now);
                assert!(
                    !(down && c.host == HostId::new(1)),
                    "{ws} listed on a down host"
                );
                assert!(!moved.contains(&ws), "{ws} listed after it moved");
            }
            // A pick at the instant its stay ends does not move (the
            // stay would end on the wire), so it is not counted.
            if let Some(m) = pick {
                let c = candidates.iter().find(|c| c.ord == m.candidate).unwrap();
                let &(_, _, ends) = stays.iter().find(|s| s.0 == c.working_set).unwrap();
                if ends.is_none_or(|e| *now < e) {
                    moved.push(c.working_set);
                }
            }
        }
    }
}
