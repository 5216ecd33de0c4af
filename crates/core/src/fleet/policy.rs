//! The fleet's host policies: [`FleetPlacement`] routes an arriving
//! tenant to a host over [`HostLoad`] snapshots, and [`FleetRebalance`]
//! names cross-host migrations at departures. Each comes with its
//! sweepable kind ([`FleetPlacementKind`], [`FleetRebalanceKind`]).

use neon_gpu::HostId;
use neon_sim::SimTime;

#[cfg(doc)]
use super::FleetReport;
#[cfg(doc)]
use neon_gpu::ClusterInterconnect;

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
