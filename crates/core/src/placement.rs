//! Task-to-device placement policies for multi-device worlds.
//!
//! When a host exposes several accelerators, the OS must decide which
//! device an arriving process gets its contexts and channels on — a
//! decision made once per admission (and again on migration), with only
//! kernel-observable load signals available. A [`Placement`] policy
//! sees a [`DeviceLoad`] snapshot per device and picks one with enough
//! free contexts/channels; tasks pinned by the operator bypass the
//! policy entirely.
//!
//! On topology-aware hosts the snapshot also carries each device's
//! interconnect distance from host memory and the cost of staging the
//! arriving task's working set there ([`DeviceLoad::host_distance`],
//! [`DeviceLoad::staging_cost`]); [`LocalityFirst`] and [`CostMin`]
//! consume these, while the flat policies ignore them. On symmetric
//! free-interconnect topologies the fields are uniformly zero-ish and
//! every policy behaves as before.
//!
//! Policies are deterministic: equal snapshots produce equal choices,
//! which keeps multi-device simulations reproducible per seed.

use neon_gpu::{DeviceId, GpuError};
use neon_sim::SimDuration;

/// Kernel-observable load of one device at a placement instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoad {
    /// The device.
    pub device: DeviceId,
    /// Live tasks holding contexts on the device.
    pub tenants: usize,
    /// Contexts still allocatable.
    pub free_contexts: usize,
    /// Channels still allocatable.
    pub free_channels: usize,
    /// Requests queued on the device's channels (not counting running).
    pub queued_requests: usize,
    /// Cumulative busy time across the device's engines — a long-term
    /// load signal.
    pub busy: SimDuration,
    /// Requests the device has completed so far (reference-counter
    /// sums); `busy / completed` estimates the mean service time.
    pub completed: u64,
    /// Interconnect distance rank of the host→device path
    /// ([`neon_gpu::LinkTier::rank`]); 1 on a flat topology.
    pub host_distance: u32,
    /// Cost of staging the arriving task's working set from host
    /// memory onto this device; zero on free interconnects.
    pub staging_cost: SimDuration,
}

impl DeviceLoad {
    /// `true` if a task needing `channels` channels (and one context)
    /// can be admitted here.
    pub fn fits(&self, channels: usize) -> bool {
        self.free_contexts >= 1 && self.free_channels >= channels
    }

    /// Estimated queueing delay ahead of a new arrival: queued work ×
    /// the observed mean service time (zero until the device has
    /// completed anything — an idle device predicts no wait).
    pub fn estimated_wait(&self) -> SimDuration {
        if self.completed == 0 {
            return SimDuration::ZERO;
        }
        (self.busy / self.completed) * self.queued_requests as u64
    }
}

/// The error for an arrival no candidate took, from each candidate's
/// free contexts: out of contexts if any candidate has none left, else
/// out of channels. A policy may also decline candidates that fit (e.g.
/// [`Pinned`]); the ones that do not fit carry the only honest resource
/// explanation. Shared by device and host placement.
pub(crate) fn shortage(free_contexts: impl IntoIterator<Item = usize>) -> GpuError {
    if free_contexts.into_iter().any(|c| c == 0) {
        GpuError::OutOfContexts
    } else {
        GpuError::OutOfChannels
    }
}

/// A task-to-device placement policy.
///
/// `place` must return a device whose [`DeviceLoad::fits`] holds for
/// `channels`, or `None` when no device has room (the arrival is then
/// rejected, the multi-device generalization of the §6.3 condition).
pub trait Placement: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses a device for an arriving task needing `channels`
    /// channels. `loads` is ordered by device id.
    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId>;
}

/// Picks the device with the least queued work, breaking ties by
/// cumulative busy time, then tenant count (so a burst of arrivals at
/// an idle host still spreads out), then device id.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl Placement for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .min_by_key(|l| (l.queued_requests, l.busy, l.tenants, l.device))
            .map(|l| l.device)
    }
}

/// Cycles through devices in id order, skipping full ones.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Placement for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        if loads.is_empty() {
            return None;
        }
        for i in 0..loads.len() {
            let idx = (self.next + i) % loads.len();
            if loads[idx].fits(channels) {
                self.next = (idx + 1) % loads.len();
                return Some(loads[idx].device);
            }
        }
        None
    }
}

/// Picks the device with the fewest live tenants (ties by device id) —
/// balances population rather than instantaneous queue depth.
#[derive(Debug, Default)]
pub struct FewestTenants;

impl Placement for FewestTenants {
    fn name(&self) -> &'static str {
        "fewest-tenants"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .min_by_key(|l| (l.tenants, l.device))
            .map(|l| l.device)
    }
}

/// Fills the interconnect-nearest devices first: among fitting devices
/// the smallest [`DeviceLoad::host_distance`] wins outright, with
/// population/load tie-breaks inside a distance class. Keeps traffic
/// on the near NUMA/PCIe domain at the price of contention there;
/// spills outward only when the near devices are full. On a flat
/// topology every distance ties and the policy degrades to spreading.
#[derive(Debug, Default)]
pub struct LocalityFirst;

impl Placement for LocalityFirst {
    fn name(&self) -> &'static str {
        "locality-first"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .min_by_key(|l| {
                (
                    l.host_distance,
                    l.tenants,
                    l.queued_requests,
                    l.busy,
                    l.device,
                )
            })
            .map(|l| l.device)
    }
}

/// Minimizes the arriving task's estimated start-up cost: the staging
/// transfer ([`DeviceLoad::staging_cost`], working-set × link tier)
/// plus the queueing delay predicted from observed service times
/// ([`DeviceLoad::estimated_wait`]). Trades distance against
/// contention — spills to a far device exactly when the near queues
/// cost more than the wire. On a free interconnect it reduces to a
/// wait-minimizing least-loaded variant.
#[derive(Debug, Default)]
pub struct CostMin;

impl Placement for CostMin {
    fn name(&self) -> &'static str {
        "cost-min"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        loads
            .iter()
            .filter(|l| l.fits(channels))
            .min_by_key(|l| {
                (
                    l.staging_cost + l.estimated_wait(),
                    l.tenants,
                    l.queued_requests,
                    l.busy,
                    l.device,
                )
            })
            .map(|l| l.device)
    }
}

/// Sends every (unpinned) task to one fixed device; arrivals are
/// rejected when it is full even if siblings have room. The degenerate
/// baseline that makes the other policies' benefit measurable.
#[derive(Debug)]
pub struct Pinned {
    device: DeviceId,
}

impl Pinned {
    /// A policy pinning everything to `device`.
    pub fn new(device: DeviceId) -> Self {
        Pinned { device }
    }
}

impl Placement for Pinned {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn place(&mut self, loads: &[DeviceLoad], channels: usize) -> Option<DeviceId> {
        loads
            .iter()
            .find(|l| l.device == self.device && l.fits(channels))
            .map(|l| l.device)
    }
}

/// The placement policies available to experiments, as a sweepable
/// axis (mirrors [`crate::sched::SchedulerKind`] for schedulers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`FewestTenants`].
    FewestTenants,
    /// [`LocalityFirst`] (topology-aware).
    LocalityFirst,
    /// [`CostMin`] (topology-aware).
    CostMin,
    /// [`Pinned`] to the given device index.
    Pinned(u32),
}

impl PlacementKind {
    /// The non-parameterized policies, for exhaustive sweeps.
    pub const ALL: [PlacementKind; 5] = [
        PlacementKind::LeastLoaded,
        PlacementKind::RoundRobin,
        PlacementKind::FewestTenants,
        PlacementKind::LocalityFirst,
        PlacementKind::CostMin,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Placement> {
        match self {
            PlacementKind::LeastLoaded => Box::new(LeastLoaded),
            PlacementKind::RoundRobin => Box::new(RoundRobin::default()),
            PlacementKind::FewestTenants => Box::new(FewestTenants),
            PlacementKind::LocalityFirst => Box::new(LocalityFirst),
            PlacementKind::CostMin => Box::new(CostMin),
            PlacementKind::Pinned(d) => Box::new(Pinned::new(DeviceId::new(d))),
        }
    }

    /// Parses the label form back into a kind (`"least-loaded"`,
    /// `"round-robin"`, `"fewest-tenants"`, `"locality-first"`,
    /// `"cost-min"`, `"pinned:<device>"`).
    pub fn from_label(label: &str) -> Option<PlacementKind> {
        if let Some(rest) = label.strip_prefix("pinned:") {
            return rest.parse::<u32>().ok().map(PlacementKind::Pinned);
        }
        PlacementKind::ALL
            .into_iter()
            .find(|k| k.to_string() == label)
    }
}

impl std::fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementKind::LeastLoaded => f.write_str("least-loaded"),
            PlacementKind::RoundRobin => f.write_str("round-robin"),
            PlacementKind::FewestTenants => f.write_str("fewest-tenants"),
            PlacementKind::LocalityFirst => f.write_str("locality-first"),
            PlacementKind::CostMin => f.write_str("cost-min"),
            PlacementKind::Pinned(d) => write!(f, "pinned:{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(device: u32, tenants: usize, free: usize, queued: usize) -> DeviceLoad {
        DeviceLoad {
            device: DeviceId::new(device),
            tenants,
            free_contexts: free,
            free_channels: free * 2,
            queued_requests: queued,
            busy: SimDuration::ZERO,
            completed: 0,
            host_distance: 1,
            staging_cost: SimDuration::ZERO,
        }
    }

    #[test]
    fn least_loaded_prefers_shortest_queue_and_skips_full() {
        let mut p = LeastLoaded;
        let loads = [load(0, 4, 0, 0), load(1, 2, 3, 9), load(2, 2, 3, 4)];
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(2)));
        // Device 0 has the shortest queue but no room: never chosen.
        let loads = [load(0, 1, 0, 0), load(1, 5, 1, 100)];
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(1)));
    }

    #[test]
    fn round_robin_cycles_and_skips_full() {
        let mut p = RoundRobin::default();
        let loads = [load(0, 0, 2, 0), load(1, 0, 2, 0), load(2, 0, 0, 0)];
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(0)));
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(1)));
        // Device 2 is full: wraps back to 0.
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(0)));
    }

    #[test]
    fn fewest_tenants_balances_population() {
        let mut p = FewestTenants;
        let loads = [load(0, 3, 5, 0), load(1, 1, 5, 50), load(2, 2, 5, 0)];
        assert_eq!(p.place(&loads, 1), Some(DeviceId::new(1)));
    }

    #[test]
    fn locality_first_fills_near_devices_before_spilling() {
        let mut p = LocalityFirst;
        let mut near = load(0, 6, 2, 40);
        near.host_distance = 1;
        let mut far = load(1, 0, 8, 0);
        far.host_distance = 3;
        // The near device is busy but has room: locality wins.
        assert_eq!(p.place(&[near, far], 1), Some(DeviceId::new(0)));
        // The near device is full: spill to the far one.
        near.free_contexts = 0;
        assert_eq!(p.place(&[near, far], 1), Some(DeviceId::new(1)));
    }

    #[test]
    fn cost_min_trades_distance_against_queueing() {
        let mut p = CostMin;
        // Near device: 100 µs mean service, 40 queued -> ~4 ms wait.
        let mut near = load(0, 4, 4, 40);
        near.busy = SimDuration::from_millis(10);
        near.completed = 100;
        near.staging_cost = SimDuration::from_micros(50);
        // Far device: idle, but 1 ms of staging.
        let mut far = load(1, 0, 4, 0);
        far.host_distance = 3;
        far.staging_cost = SimDuration::from_millis(1);
        assert_eq!(
            p.place(&[near, far], 1),
            Some(DeviceId::new(1)),
            "4 ms of queueing must outweigh 1 ms of staging"
        );
        // Shrink the near queue: the wire now costs more than the wait.
        near.queued_requests = 2;
        assert_eq!(p.place(&[near, far], 1), Some(DeviceId::new(0)));
    }

    #[test]
    fn estimated_wait_is_zero_without_history() {
        let l = load(0, 0, 4, 50);
        assert_eq!(l.estimated_wait(), SimDuration::ZERO);
    }

    #[test]
    fn pinned_never_spills() {
        let mut p = Pinned::new(DeviceId::new(1));
        let loads = [load(0, 0, 5, 0), load(1, 9, 0, 0)];
        assert_eq!(p.place(&loads, 1), None, "pinned device full: reject");
    }

    #[test]
    fn no_policy_places_on_a_device_without_room() {
        let loads = [load(0, 0, 1, 0), load(1, 0, 2, 5)];
        for kind in PlacementKind::ALL {
            let mut p = kind.build();
            // Needs 3 channels; device 0 offers 2, device 1 offers 4.
            assert_eq!(
                p.place(&loads, 3),
                Some(DeviceId::new(1)),
                "{kind}: must skip the device that cannot fit the task"
            );
            assert_eq!(p.place(&loads, 5), None, "{kind}: nothing fits");
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in PlacementKind::ALL {
            assert_eq!(PlacementKind::from_label(&kind.to_string()), Some(kind));
        }
        assert_eq!(
            PlacementKind::from_label("pinned:3"),
            Some(PlacementKind::Pinned(3))
        );
        assert_eq!(PlacementKind::Pinned(3).to_string(), "pinned:3");
        assert_eq!(
            PlacementKind::from_label("locality-first"),
            Some(PlacementKind::LocalityFirst)
        );
        assert_eq!(
            PlacementKind::from_label("cost-min"),
            Some(PlacementKind::CostMin)
        );
        assert_eq!(PlacementKind::from_label("warp-drive"), None);
    }
}
