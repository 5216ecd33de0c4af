//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] describes a *dynamic* workload mix: groups of
//! tenants, each with a workload model, an arrival process (all at
//! start, staggered, explicit instants, or open-loop Poisson), and a
//! lifetime model (run forever, a fixed stay, or an exponentially
//! distributed stay). The spec also carries the sweep axes — seeds and
//! scheduler policies — so a single file defines a full experiment
//! matrix.
//!
//! Specs are built either programmatically (the builder methods here)
//! or from a TOML file ([`crate::toml_file`]).

use std::collections::BTreeMap;

use neon_core::cost::{CostModel, SchedParams};
use neon_core::fault::{FaultConfig, FaultEvent, FaultKind, FaultMode, FaultPlan};
use neon_core::fleet::{FleetPlacementKind, FleetRebalanceKind};
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::{Scheduler, SchedulerKind};
use neon_core::telemetry::MetricsMode;
use neon_core::workload::{BoxedWorkload, FixedLoop, WithWorkingSet};
use neon_gpu::{ClusterInterconnect, DeviceSlotSpec, GpuConfig, InterconnectParams, Topology};
use neon_sim::SimDuration;
use neon_workloads::adversary::{Batcher, IdleBurst, InfiniteLoop};
use neon_workloads::{app, Throttle};

/// A malformed scenario (unknown workload, empty matrix, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The most devices one cell may build, summed over its hosts. A cell
/// builds a device model, a scheduler and a page-protection table per
/// device, about 8 KB each (`neon run --serial` of `churn.toml` peaks
/// at 4 MB RSS with one device, 13 MB with 1,024 and 37 MB with 4,096),
/// so this keeps a cell in the tens of megabytes however many run in
/// parallel. The counts come from the input: `devices = 4294967296`
/// must be an error, not an aborted allocation.
const MAX_CELL_DEVICES: usize = 4096;

/// The workload model a tenant group runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's Throttle microbenchmark: back-to-back blocking
    /// requests of a fixed size, optionally with off periods/jitter.
    Throttle {
        /// Request service time.
        request: SimDuration,
        /// Fraction of each round spent sleeping (0 = saturating).
        off_ratio: f64,
        /// Uniform jitter spread applied to request sizes.
        jitter: f64,
    },
    /// A fixed submit/wait loop (one request per round).
    FixedLoop {
        /// Request service time.
        service: SimDuration,
        /// CPU gap between rounds.
        gap: SimDuration,
        /// Rounds before a voluntary exit; `None` loops forever.
        rounds: Option<u64>,
    },
    /// One of the Table 1 application models, by name.
    App {
        /// Application name as in `neon_workloads::app::all_apps`.
        name: String,
    },
    /// The greedy-batching adversary.
    Batcher {
        /// Device time per submitted batch.
        batch: SimDuration,
    },
    /// The idle-then-burst hoarder adversary.
    IdleBurst {
        /// Idle stretch between bursts.
        idle: SimDuration,
        /// Requests per burst.
        burst_requests: u32,
        /// Request service time within a burst.
        request: SimDuration,
    },
    /// The infinite-loop adversary: behaves for `warmup_rounds`, then
    /// submits an unbounded request (schedulers must kill or preempt).
    InfiniteLoop {
        /// Well-behaved rounds before the attack.
        warmup_rounds: u32,
        /// Service time of the well-behaved warmup requests.
        request: SimDuration,
    },
}

impl WorkloadSpec {
    /// Instantiates the workload model.
    ///
    /// Parameters the underlying constructors would `assert!` on are
    /// range-checked here first, so invalid scenario-file input
    /// surfaces as a [`SpecError`] instead of a panic.
    pub fn build(&self) -> Result<BoxedWorkload, SpecError> {
        match self {
            WorkloadSpec::Throttle {
                request,
                off_ratio,
                jitter,
            } => {
                if request.is_zero() {
                    return Err(err("throttle request must be positive"));
                }
                if !(0.0..1.0).contains(off_ratio) {
                    return Err(err(format!(
                        "throttle off_ratio must be in [0, 1), got {off_ratio}"
                    )));
                }
                Ok(Box::new(
                    Throttle::new(*request)
                        .with_off_ratio(*off_ratio)
                        .with_jitter(*jitter),
                ))
            }
            WorkloadSpec::FixedLoop {
                service,
                gap,
                rounds,
            } => Ok(match rounds {
                Some(n) => Box::new(FixedLoop::new("fixed-loop", *service, *gap, *n)),
                None => Box::new(FixedLoop::endless("fixed-loop", *service, *gap)),
            }),
            WorkloadSpec::App { name } => {
                let spec = app::app_by_name(name)
                    .ok_or_else(|| err(format!("unknown application {name:?}")))?;
                Ok(Box::new(spec.build()))
            }
            WorkloadSpec::Batcher { batch } => {
                if batch.is_zero() {
                    return Err(err("batcher batch must be positive"));
                }
                Ok(Box::new(Batcher::new(*batch)))
            }
            WorkloadSpec::IdleBurst {
                idle,
                burst_requests,
                request,
            } => {
                if *burst_requests == 0 {
                    return Err(err("idle-burst burst_requests must be positive"));
                }
                Ok(Box::new(IdleBurst::new(*idle, *burst_requests, *request)))
            }
            WorkloadSpec::InfiniteLoop {
                warmup_rounds,
                request,
            } => Ok(Box::new(InfiniteLoop::new(*warmup_rounds, *request))),
        }
    }
}

/// When a group's members show up.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Every member is present at time zero (closed-loop start).
    AtStart,
    /// Member `i` arrives at `i * gap`.
    Staggered {
        /// Spacing between consecutive members.
        gap: SimDuration,
    },
    /// Explicit arrival instants, one per member.
    At {
        /// Arrival times (offsets from simulation start).
        times: Vec<SimDuration>,
    },
    /// Open-loop Poisson arrivals at `rate_hz`, beginning at `start`.
    Poisson {
        /// Mean arrivals per simulated second.
        rate_hz: f64,
        /// Offset of the first possible arrival.
        start: SimDuration,
    },
}

/// How long a member stays once admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum LifetimeSpec {
    /// Until its workload finishes or the horizon ends the run.
    Forever,
    /// Departs exactly this long after admission.
    Fixed(SimDuration),
    /// Departs after an exponentially distributed stay.
    Exponential {
        /// Mean stay.
        mean: SimDuration,
    },
}

/// A group of identically configured tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantGroup {
    /// Group name (reports and traces).
    pub name: String,
    /// Number of members.
    pub count: u32,
    /// The workload each member runs.
    pub workload: WorkloadSpec,
    /// The arrival process.
    pub arrival: ArrivalSpec,
    /// The lifetime model.
    pub lifetime: LifetimeSpec,
    /// Pins every member to this device index, bypassing the placement
    /// policy (and rebalancing). `None` lets the policy place them.
    pub device: Option<u32>,
    /// Overrides the [`SchedParams`] of the device the group is pinned
    /// to — per-device scheduler tuning. Requires
    /// [`TenantGroup::device`]: params belong to a device's scheduler
    /// instance, so an unpinned group has no device to attach them to
    /// (validation rejects that combination cleanly).
    pub params: Option<SchedParams>,
    /// Overrides each member's device-resident working-set size in
    /// bytes — what topology-aware placement and migration charge to
    /// move. `None` keeps the workload's own default (64 MiB).
    pub working_set: Option<u64>,
}

impl TenantGroup {
    /// A single-member group present from the start, forever.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec) -> Self {
        TenantGroup {
            name: name.into(),
            count: 1,
            workload,
            arrival: ArrivalSpec::AtStart,
            lifetime: LifetimeSpec::Forever,
            device: None,
            params: None,
            working_set: None,
        }
    }

    /// Sets the member count.
    pub fn count(mut self, n: u32) -> Self {
        self.count = n;
        self
    }

    /// Sets the arrival process.
    pub fn arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the lifetime model.
    pub fn lifetime(mut self, lifetime: LifetimeSpec) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Pins the group to a device.
    pub fn device(mut self, device: u32) -> Self {
        self.device = Some(device);
        self
    }

    /// Overrides the pinned device's scheduler parameters.
    pub fn params(mut self, params: SchedParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides each member's working-set size (bytes).
    pub fn working_set(mut self, bytes: u64) -> Self {
        self.working_set = Some(bytes);
        self
    }

    /// Instantiates one member's workload, applying the group's
    /// working-set override. Call only on a validated spec.
    pub fn build_member(&self) -> Result<BoxedWorkload, SpecError> {
        let workload = self.workload.build()?;
        Ok(match self.working_set {
            Some(bytes) => Box::new(WithWorkingSet::new(workload, bytes)),
            None => workload,
        })
    }
}

/// A custom scheduler factory (see [`ScenarioSpec::custom_scheduler`]).
/// Wraps a plain `fn` pointer so the spec stays `Clone` and
/// `PartialEq`; equality compares factory addresses, which is exactly
/// the "same experiment hook installed" question the sweep cares about.
#[derive(Debug, Clone, Copy)]
pub struct CustomScheduler(pub fn(SchedParams) -> Box<dyn Scheduler>);

impl CustomScheduler {
    /// Builds the scheduler for one device.
    pub fn build(&self, params: SchedParams) -> Box<dyn Scheduler> {
        (self.0)(params)
    }
}

impl PartialEq for CustomScheduler {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::fn_addr_eq(self.0, other.0)
    }
}

/// A complete scenario: workload dynamics plus the sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports, file stem by default).
    pub name: String,
    /// Simulated duration of each run.
    pub horizon: SimDuration,
    /// Seeds to sweep (one run per seed per scheduler per placement).
    pub seeds: Vec<u64>,
    /// Scheduler policies to sweep.
    pub schedulers: Vec<SchedulerKind>,
    /// Number of devices in each cell's world (default 1).
    pub devices: usize,
    /// Per-device heterogeneous slots (`[[device]]` blocks in TOML):
    /// each names a [`GpuConfig`] and a `(numa, switch)` interconnect
    /// coordinate. Empty means [`ScenarioSpec::devices`] identical
    /// default devices on one switch.
    pub device_slots: Vec<DeviceSlotSpec>,
    /// Interconnect transfer timing (the `topology.*` keys in TOML).
    /// `None` means free data movement — the flat pre-topology model.
    pub interconnect: Option<InterconnectParams>,
    /// Number of hosts in each cell's [`neon_core::fleet::Fleet`]
    /// (default 1 — a lone host, which the fleet makes transparent:
    /// byte-identical to a bare [`neon_core::world::World`]). With more,
    /// every cell runs identical hosts, each with
    /// [`ScenarioSpec::devices`] devices, behind cluster placement.
    pub hosts: usize,
    /// Per-host device counts (`[[host]]` blocks in TOML) for
    /// heterogeneous host sizes. Empty means [`ScenarioSpec::hosts`]
    /// identical hosts.
    pub host_devices: Vec<usize>,
    /// Fleet placement policies to sweep (default least-loaded only;
    /// moot — but harmless — on single-host scenarios).
    pub fleet_placements: Vec<FleetPlacementKind>,
    /// Cross-host rebalancing policy (default off). A single value,
    /// not an axis: cross-host migration is an operational switch, not
    /// usually a comparison dimension.
    pub fleet_rebalance: FleetRebalanceKind,
    /// Host-to-host transfer timing (the `cluster.*` keys in TOML).
    /// `None` means free cross-host movement.
    pub cluster: Option<ClusterInterconnect>,
    /// Placement policies to sweep (default least-loaded only; moot —
    /// but harmless — on single-device scenarios).
    pub placements: Vec<PlacementKind>,
    /// Rebalancing policies to sweep (default off only). TOML takes a
    /// label, `"all"` or an array of labels; `"count-diff"` is the old
    /// boolean toggle's heuristic, byte for byte.
    pub rebalances: Vec<RebalanceKind>,
    /// Scenario-wide [`SchedParams`] override (every device, unless a
    /// pinned group overrides its device).
    pub params: Option<SchedParams>,
    /// Scenario-wide [`CostModel`] override. The cost model describes
    /// the simulated *host* (fault costs, polling cadence), so there is
    /// deliberately no per-group or per-device form.
    pub cost: Option<CostModel>,
    /// How per-task latency samples are aggregated:
    /// [`MetricsMode::Exact`] (the default; unbounded per-task vectors,
    /// the oracle) or [`MetricsMode::Streaming`] (fixed-memory
    /// histograms — required for open-loop runs of arbitrary length).
    pub metrics: MetricsMode,
    /// Telemetry sampler cadence ([`neon_core::world::WorldConfig::sample_every`]);
    /// `None` (the default) disables the sampler entirely.
    pub sample_every: Option<SimDuration>,
    /// Capture each cell's event trace for export (`neon run
    /// --trace-out`). CLI-driven; not a TOML key, since traces are a
    /// per-invocation debugging concern, not part of the experiment.
    pub capture_trace: bool,
    /// Record per-request submission/service logs
    /// ([`neon_core::world::WorldConfig::record_requests`]) — the
    /// Figure 2 / Table 1 calibration harnesses need them; costs memory
    /// on long runs, so off by default and not a TOML key.
    pub record_requests: bool,
    /// Experiment hook: a factory that replaces the scheduler axis with
    /// a custom policy (e.g. §3's trap-per-request stack). When set,
    /// every cell runs this scheduler and the cell's
    /// [`SchedulerKind`] is only a label. A plain `fn` pointer keeps
    /// the spec `Clone`/`PartialEq`; not expressible in TOML by design.
    pub custom_scheduler: Option<CustomScheduler>,
    /// The deterministic fault schedule (`[[fault]]` blocks in TOML),
    /// in time order. Empty means no faults — every cell runs the
    /// fault-free model byte-identically.
    pub faults: Vec<FaultEvent>,
    /// Recovery tuning for the fault machinery (the `fault.*` keys in
    /// TOML: watchdog timeout, retry budget, backoff curve).
    pub fault_config: FaultConfig,
    /// The `faults` sweep axis: which categories of the schedule each
    /// cell injects. Empty (the default) resolves to a single mode —
    /// [`FaultMode::All`] when the scenario declares faults,
    /// [`FaultMode::None`] otherwise — so the cell count of fault-free
    /// scenarios is unchanged (see
    /// [`ScenarioSpec::effective_fault_modes`]).
    pub fault_modes: Vec<FaultMode>,
    /// The tenant groups.
    pub groups: Vec<TenantGroup>,
}

impl ScenarioSpec {
    /// A scenario with the default matrix: one seed, every policy, one
    /// device.
    pub fn new(name: impl Into<String>, horizon: SimDuration) -> Self {
        ScenarioSpec {
            name: name.into(),
            horizon,
            seeds: vec![0xA5D0],
            schedulers: SchedulerKind::ALL.to_vec(),
            devices: 1,
            device_slots: Vec::new(),
            interconnect: None,
            hosts: 1,
            host_devices: Vec::new(),
            fleet_placements: vec![FleetPlacementKind::LeastLoaded],
            fleet_rebalance: FleetRebalanceKind::Off,
            cluster: None,
            placements: vec![PlacementKind::LeastLoaded],
            rebalances: vec![RebalanceKind::Off],
            params: None,
            cost: None,
            metrics: MetricsMode::Exact,
            sample_every: None,
            capture_trace: false,
            record_requests: false,
            custom_scheduler: None,
            faults: Vec::new(),
            fault_config: FaultConfig::default(),
            fault_modes: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Appends a fault event to the schedule.
    pub fn fault(mut self, at: SimDuration, kind: FaultKind) -> Self {
        self.faults.push(FaultEvent {
            at: neon_sim::SimTime::ZERO + at,
            kind,
        });
        self
    }

    /// Sets the recovery tuning (watchdog, retry budget, backoff).
    pub fn fault_config(mut self, config: FaultConfig) -> Self {
        self.fault_config = config;
        self
    }

    /// Replaces the fault-mode axis.
    pub fn fault_modes(mut self, modes: Vec<FaultMode>) -> Self {
        self.fault_modes = modes;
        self
    }

    /// `true` if the scenario engages the fault machinery at all:
    /// scheduled events, or a non-default recovery config (e.g. a
    /// watchdog armed with no injected faults).
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty() || self.fault_config != FaultConfig::default()
    }

    /// The resolved `faults` axis: the explicit modes when given,
    /// otherwise a single mode — [`FaultMode::All`] if the scenario
    /// declares faults, [`FaultMode::None`] if not — so fault-free
    /// scenarios keep their exact cell count (and bytes).
    pub fn effective_fault_modes(&self) -> Vec<FaultMode> {
        if !self.fault_modes.is_empty() {
            self.fault_modes.clone()
        } else if self.has_faults() {
            vec![FaultMode::All]
        } else {
            vec![FaultMode::None]
        }
    }

    /// The scenario's full fault plan (schedule + recovery config).
    /// Cells filter it by their [`FaultMode`].
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.fault_config.clone());
        for ev in &self.faults {
            plan.push(ev.at, ev.kind);
        }
        plan
    }

    /// Enables per-request submission/service logging in every cell.
    pub fn record_requests(mut self, record: bool) -> Self {
        self.record_requests = record;
        self
    }

    /// Installs a custom scheduler factory overriding the scheduler
    /// axis (see [`ScenarioSpec::custom_scheduler`]).
    pub fn custom_scheduler(mut self, factory: fn(SchedParams) -> Box<dyn Scheduler>) -> Self {
        self.custom_scheduler = Some(CustomScheduler(factory));
        self
    }

    /// Sets the metrics aggregation mode.
    pub fn metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics = mode;
        self
    }

    /// Enables the periodic telemetry sampler at this cadence.
    pub fn sample_every(mut self, every: SimDuration) -> Self {
        self.sample_every = Some(every);
        self
    }

    /// Enables per-cell trace capture (for `--trace-out`).
    pub fn capture_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Replaces the seed axis.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the scheduler axis.
    pub fn schedulers(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.schedulers = schedulers;
        self
    }

    /// Sets the device count.
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Adds a heterogeneous device slot; the device count follows the
    /// slot list.
    pub fn device_slot(mut self, slot: DeviceSlotSpec) -> Self {
        self.device_slots.push(slot);
        self.devices = self.device_slots.len();
        self
    }

    /// Sets the interconnect transfer timing.
    pub fn interconnect(mut self, params: InterconnectParams) -> Self {
        self.interconnect = Some(params);
        self
    }

    /// The topology of one host with `devices` devices: its `[[device]]`
    /// slots when it has them (only single-host scenarios may), else
    /// `devices` default GPUs. Either sits behind the scenario's
    /// interconnect, or a free one when it sets none — so a spec with
    /// neither is [`Topology::symmetric`], the flat host. Call only on
    /// a validated spec.
    pub fn host_topology(&self, devices: usize) -> Topology {
        let interconnect = self
            .interconnect
            .clone()
            .unwrap_or_else(InterconnectParams::free);
        if self.device_slots.is_empty() {
            Topology::symmetric(devices, GpuConfig::default()).with_interconnect(interconnect)
        } else {
            Topology::new(self.device_slots.clone(), interconnect)
        }
    }

    /// Sets the host count (identical hosts).
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Adds a heterogeneous host with this many devices; the host
    /// count follows the list.
    pub fn host_with_devices(mut self, devices: usize) -> Self {
        self.host_devices.push(devices);
        self.hosts = self.host_devices.len();
        self
    }

    /// Replaces the fleet placement axis.
    pub fn fleet_placements(mut self, kinds: Vec<FleetPlacementKind>) -> Self {
        self.fleet_placements = kinds;
        self
    }

    /// Sets the cross-host rebalancing policy.
    pub fn fleet_rebalance(mut self, kind: FleetRebalanceKind) -> Self {
        self.fleet_rebalance = kind;
        self
    }

    /// Sets the host-to-host transfer timing.
    pub fn cluster(mut self, cluster: ClusterInterconnect) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Device count of every host, in host order. A lone host has
    /// [`ScenarioSpec::devices`] devices. Call only on a validated spec.
    pub fn host_device_counts(&self) -> Vec<usize> {
        if self.host_devices.is_empty() || self.hosts == 1 {
            vec![self.devices; self.hosts]
        } else {
            self.host_devices.clone()
        }
    }

    /// Replaces the placement axis.
    pub fn placements(mut self, placements: Vec<PlacementKind>) -> Self {
        self.placements = placements;
        self
    }

    /// Sets a single rebalancing policy.
    pub fn rebalance(mut self, kind: RebalanceKind) -> Self {
        self.rebalances = vec![kind];
        self
    }

    /// Replaces the rebalancing axis.
    pub fn rebalances(mut self, kinds: Vec<RebalanceKind>) -> Self {
        self.rebalances = kinds;
        self
    }

    /// Sets the scenario-wide scheduler-parameter override.
    pub fn params(mut self, params: SchedParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Sets the scenario-wide cost-model override.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Adds a tenant group.
    pub fn group(mut self, group: TenantGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Number of sweep cells this scenario expands to.
    pub fn cell_count(&self) -> usize {
        self.seeds.len()
            * self.schedulers.len()
            * self.placements.len()
            * self.fleet_placements.len()
            * self.rebalances.len()
            * self.effective_fault_modes().len()
    }

    /// Effective [`SchedParams`] per device of a host with `devices`
    /// devices: the scenario-wide override (or the defaults), with
    /// pinned-group overrides applied to their devices (only
    /// single-host scenarios pin). Call only on a validated spec.
    pub fn host_params(&self, devices: usize) -> Vec<SchedParams> {
        let base = self.params.clone().unwrap_or_default();
        let mut per_device = vec![base; devices];
        for g in &self.groups {
            if let (Some(d), Some(p)) = (g.device, &g.params) {
                per_device[d as usize] = p.clone();
            }
        }
        per_device
    }

    /// Rejects `devices`, `hosts` or a `[[host]]` `devices` count that
    /// would make a cell build more than 4,096 devices, naming the key,
    /// before anything is sized by it. The loader runs this on every
    /// file, and `neon` again after a `--devices` or `--hosts` override.
    pub fn check_size(&self) -> Result<(), SpecError> {
        let too_many = |key: &str, n: usize| {
            err(format!(
                "{key} = {n}: a cell builds at most {MAX_CELL_DEVICES} devices"
            ))
        };
        let counts = [("devices", self.devices), ("hosts", self.hosts)];
        let per_host = self.host_devices.iter().map(|&d| ("[[host]] devices", d));
        if let Some((key, n)) = counts
            .into_iter()
            .chain(per_host)
            .find(|&(_, n)| n > MAX_CELL_DEVICES)
        {
            return Err(too_many(key, n));
        }
        // Every count is bounded now, so the per-host list is small.
        let total = self.host_device_counts().iter().sum();
        if total > MAX_CELL_DEVICES {
            return Err(too_many("hosts × devices", total));
        }
        Ok(())
    }

    /// Checks the spec for structural problems, including that every
    /// workload is instantiable.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.horizon.is_zero() {
            return Err(err("horizon must be positive"));
        }
        if self.seeds.is_empty() {
            return Err(err("at least one seed required"));
        }
        if self.sample_every.is_some_and(|d| d.is_zero()) {
            return Err(err("sample_every must be positive"));
        }
        if self.schedulers.is_empty() {
            return Err(err("at least one scheduler required"));
        }
        if self.devices == 0 {
            return Err(err("devices must be at least 1"));
        }
        if !self.device_slots.is_empty() && self.device_slots.len() != self.devices {
            return Err(err(format!(
                "{} [[device]] block(s) but devices = {}; drop the devices key or \
                 make them match",
                self.device_slots.len(),
                self.devices
            )));
        }
        for (i, a) in self.device_slots.iter().enumerate() {
            for b in &self.device_slots[..i] {
                if a.switch_id == b.switch_id && a.numa != b.numa {
                    return Err(err(format!(
                        "switch {} spans NUMA nodes {} and {}: a PCIe switch \
                         lives on one NUMA node",
                        a.switch_id, a.numa, b.numa
                    )));
                }
            }
        }
        if self.hosts == 0 {
            return Err(err("hosts must be at least 1"));
        }
        if !self.host_devices.is_empty() && self.host_devices.len() != self.hosts {
            return Err(err(format!(
                "{} [[host]] block(s) but hosts = {}; drop the hosts key or \
                 make them match",
                self.host_devices.len(),
                self.hosts
            )));
        }
        if let Some(i) = self.host_devices.iter().position(|&d| d == 0) {
            return Err(err(format!("host {i} has devices = 0")));
        }
        if self.fleet_placements.is_empty() {
            return Err(err("at least one fleet placement policy required"));
        }
        if self.hosts > 1 {
            if !self.device_slots.is_empty() {
                return Err(err(
                    "[[device]] blocks describe one host's topology and cannot be \
                     combined with hosts > 1; size hosts with [[host]] blocks instead",
                ));
            }
            if let Some(g) = self.groups.iter().find(|g| g.device.is_some()) {
                return Err(err(format!(
                    "group {:?} pins a device, but with hosts > 1 a device index is \
                     ambiguous across hosts; drop the pin and let fleet placement route it",
                    g.name
                )));
            }
        }
        if self.placements.is_empty() {
            return Err(err("at least one placement policy required"));
        }
        if self.rebalances.is_empty() {
            return Err(err("at least one rebalance policy required"));
        }
        // Fault schedule sanity: recovery knobs must be positive (the
        // plan reports the offending key), and every event must target
        // something the scenario actually has.
        self.fault_plan().validate().map_err(err)?;
        for (i, ev) in self.faults.iter().enumerate() {
            match ev.kind {
                FaultKind::DeviceRemove { device } | FaultKind::DeviceAdd { device } => {
                    if device.index() >= self.devices {
                        return Err(err(format!(
                            "fault[{i}] targets device {} but the scenario has {} device(s)",
                            device.index(),
                            self.devices
                        )));
                    }
                }
                FaultKind::HostFail { host } | FaultKind::HostRecover { host } => {
                    if self.hosts <= 1 {
                        return Err(err(format!(
                            "fault[{i}] is host-scope ({}) but the scenario has one host; \
                             host faults need hosts > 1 so tenants can re-admit elsewhere",
                            ev.kind.label()
                        )));
                    }
                    if host as usize >= self.hosts {
                        return Err(err(format!(
                            "fault[{i}] targets host {host} but the scenario has {} host(s)",
                            self.hosts
                        )));
                    }
                }
                FaultKind::TaskHang { .. }
                | FaultKind::TaskCrash { .. }
                | FaultKind::SubmitError { .. } => {}
            }
        }
        for p in &self.placements {
            if let PlacementKind::Pinned(d) = p {
                if *d as usize >= self.devices {
                    return Err(err(format!(
                        "placement pinned:{d} names a device outside 0..{}",
                        self.devices
                    )));
                }
            }
        }
        if self.groups.is_empty() {
            return Err(err("at least one [[group]] required"));
        }
        // Keyed by pinned device, not sized by `devices`: the count comes
        // from the input and must not decide an allocation.
        let mut device_params: BTreeMap<u32, (&str, &SchedParams)> = BTreeMap::new();
        for g in &self.groups {
            if let Some(d) = g.device {
                if d as usize >= self.devices {
                    return Err(err(format!(
                        "group {:?} pinned to device {d}, but the scenario has {} device(s)",
                        g.name, self.devices
                    )));
                }
            }
            if let Some(params) = &g.params {
                // Per-group SchedParams attach to the pinned device's
                // scheduler instance; without a pin there is no device
                // to carry them — reject instead of silently ignoring.
                let Some(d) = g.device else {
                    return Err(err(format!(
                        "group {:?} overrides sched params but is not pinned to a \
                         device; per-group params require device = <index>",
                        g.name
                    )));
                };
                match device_params.get(&d) {
                    Some((other, existing)) if *existing != params => {
                        return Err(err(format!(
                            "groups {:?} and {:?} pin conflicting sched-param \
                             overrides to device {d}",
                            other, g.name
                        )));
                    }
                    _ => {
                        device_params.insert(d, (&g.name, params));
                    }
                }
            }
        }
        for g in &self.groups {
            if g.count == 0 {
                return Err(err(format!("group {:?} has count 0", g.name)));
            }
            g.workload.build()?;
            match &g.arrival {
                ArrivalSpec::Poisson { rate_hz, .. } if *rate_hz <= 0.0 => {
                    return Err(err(format!(
                        "group {:?}: poisson rate must be positive",
                        g.name
                    )));
                }
                ArrivalSpec::At { times } if times.len() != g.count as usize => {
                    return Err(err(format!(
                        "group {:?}: {} arrival times for {} members",
                        g.name,
                        times.len(),
                        g.count
                    )));
                }
                _ => {}
            }
            if let LifetimeSpec::Exponential { mean } = &g.lifetime {
                if mean.is_zero() {
                    return Err(err(format!(
                        "group {:?}: exponential lifetime needs a positive mean",
                        g.name
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn builder_produces_a_valid_spec() {
        let spec = ScenarioSpec::new("t", SimDuration::from_millis(100))
            .seeds(vec![1, 2])
            .schedulers(vec![SchedulerKind::Direct])
            .group(
                TenantGroup::new(
                    "small",
                    WorkloadSpec::Throttle {
                        request: us(50),
                        off_ratio: 0.0,
                        jitter: 0.0,
                    },
                )
                .count(3)
                .arrival(ArrivalSpec::Poisson {
                    rate_hz: 100.0,
                    start: SimDuration::ZERO,
                })
                .lifetime(LifetimeSpec::Fixed(SimDuration::from_millis(20))),
            );
        assert!(spec.validate().is_ok());
        assert_eq!(spec.cell_count(), 2);
    }

    #[test]
    fn validation_rejects_structural_problems() {
        let base = ScenarioSpec::new("t", SimDuration::from_millis(10));
        assert!(base.clone().validate().is_err(), "no groups");

        let g = TenantGroup::new(
            "g",
            WorkloadSpec::App {
                name: "NoSuchApp".into(),
            },
        );
        assert!(base.clone().group(g).validate().is_err(), "unknown app");

        let g = TenantGroup::new(
            "g",
            WorkloadSpec::FixedLoop {
                service: us(10),
                gap: us(0),
                rounds: None,
            },
        )
        .count(2)
        .arrival(ArrivalSpec::At {
            times: vec![SimDuration::ZERO],
        });
        assert!(
            base.clone().group(g).validate().is_err(),
            "times/count mismatch"
        );

        let g = TenantGroup::new(
            "g",
            WorkloadSpec::Batcher {
                batch: SimDuration::from_millis(5),
            },
        )
        .arrival(ArrivalSpec::Poisson {
            rate_hz: 0.0,
            start: SimDuration::ZERO,
        });
        assert!(base.group(g).validate().is_err(), "zero rate");
    }

    #[test]
    fn out_of_range_parameters_error_instead_of_panicking() {
        // These would trip constructor asserts if passed through raw.
        let bad = [
            WorkloadSpec::Throttle {
                request: us(100),
                off_ratio: 1.0,
                jitter: 0.0,
            },
            WorkloadSpec::Throttle {
                request: us(100),
                off_ratio: -0.1,
                jitter: 0.0,
            },
            WorkloadSpec::Throttle {
                request: SimDuration::ZERO,
                off_ratio: 0.0,
                jitter: 0.0,
            },
            WorkloadSpec::Batcher {
                batch: SimDuration::ZERO,
            },
            WorkloadSpec::IdleBurst {
                idle: us(100),
                burst_requests: 0,
                request: us(100),
            },
        ];
        for w in &bad {
            assert!(w.build().is_err(), "{w:?} should be a SpecError");
        }
    }

    #[test]
    fn multi_device_validation_catches_bad_pins_and_params() {
        let throttle = WorkloadSpec::Throttle {
            request: us(100),
            off_ratio: 0.0,
            jitter: 0.0,
        };
        let base = ScenarioSpec::new("md", SimDuration::from_millis(10)).devices(2);

        // Pin outside the device range.
        let spec = base
            .clone()
            .group(TenantGroup::new("g", throttle.clone()).device(2));
        assert!(spec.validate().is_err(), "pin past device count");

        // Pinned placement outside the range.
        let spec = base
            .clone()
            .placements(vec![PlacementKind::Pinned(5)])
            .group(TenantGroup::new("g", throttle.clone()));
        assert!(spec.validate().is_err(), "pinned placement out of range");

        // Per-group params without a pin: rejected, not ignored.
        let spec = base
            .clone()
            .group(TenantGroup::new("g", throttle.clone()).params(SchedParams {
                sampling_requests: 96,
                ..SchedParams::default()
            }));
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains("not pinned"), "{e}");

        // Conflicting per-device params from two groups.
        let p96 = SchedParams {
            sampling_requests: 96,
            ..SchedParams::default()
        };
        let p64 = SchedParams {
            sampling_requests: 64,
            ..SchedParams::default()
        };
        let spec = base
            .clone()
            .group(
                TenantGroup::new("a", throttle.clone())
                    .device(0)
                    .params(p96.clone()),
            )
            .group(
                TenantGroup::new("b", throttle.clone())
                    .device(0)
                    .params(p64),
            );
        assert!(spec.validate().is_err(), "conflicting device params");

        // A consistent multi-device spec passes, and the per-device
        // params table reflects the override.
        let spec = base
            .group(
                TenantGroup::new("a", throttle.clone())
                    .device(0)
                    .params(p96.clone()),
            )
            .group(TenantGroup::new("b", throttle));
        spec.validate().unwrap();
        let params = spec.host_params(spec.devices);
        assert_eq!(params[0].sampling_requests, 96);
        assert_eq!(params[1].sampling_requests, 32);
        assert_eq!(spec.cell_count(), 7, "placement axis multiplies cells");
    }

    #[test]
    fn host_topology_is_the_flat_host_unless_the_spec_prices_one() {
        let flat = ScenarioSpec::new("t", SimDuration::from_millis(10));
        for devices in [1, 3] {
            assert_eq!(
                flat.host_topology(devices),
                Topology::symmetric(devices, GpuConfig::default()),
                "no [[device]] slots and no interconnect: the flat host"
            );
        }
        let priced = flat
            .interconnect(InterconnectParams::pcie_gen3())
            .host_topology(2);
        assert_eq!(priced.configs(), vec![GpuConfig::default(); 2]);
        assert_eq!(priced.interconnect(), &InterconnectParams::pcie_gen3());
    }

    #[test]
    fn every_workload_kind_builds() {
        let specs = [
            WorkloadSpec::Throttle {
                request: us(100),
                off_ratio: 0.5,
                jitter: 0.1,
            },
            WorkloadSpec::FixedLoop {
                service: us(10),
                gap: us(1),
                rounds: Some(5),
            },
            WorkloadSpec::App {
                name: "BitonicSort".into(),
            },
            WorkloadSpec::Batcher {
                batch: SimDuration::from_millis(20),
            },
            WorkloadSpec::IdleBurst {
                idle: SimDuration::from_millis(10),
                burst_requests: 16,
                request: us(500),
            },
            WorkloadSpec::InfiniteLoop {
                warmup_rounds: 10,
                request: us(200),
            },
        ];
        for w in &specs {
            assert!(w.build().is_ok(), "{w:?} failed to build");
        }
    }

    #[test]
    fn validation_does_not_allocate_per_device_from_the_input_count() {
        // `devices = 2^32` used to size a per-device table in validate
        // and abort the process on the failed allocation.
        let throttle = WorkloadSpec::Throttle {
            request: us(100),
            off_ratio: 0.0,
            jitter: 0.0,
        };
        let params = SchedParams {
            sampling_requests: 96,
            ..SchedParams::default()
        };
        let mut spec = ScenarioSpec::new("huge", SimDuration::from_millis(10))
            .group(
                TenantGroup::new("pinned", throttle.clone())
                    .device(7)
                    .params(params.clone()),
            )
            .group(TenantGroup::new("same", throttle).device(7).params(params));
        spec.devices = 1 << 32;
        assert!(spec.validate().is_ok());
        spec.groups[1]
            .params
            .as_mut()
            .expect("set above")
            .sampling_requests = 64;
        let e = spec.validate().unwrap_err();
        assert!(
            e.0.contains("conflicting sched-param overrides to device 7"),
            "{e}"
        );
    }

    /// The driver stages every member of a group as a clone of one
    /// built prototype; that is only sound if a clone of an unrun
    /// member is indistinguishable from a fresh build.
    #[test]
    fn a_cloned_member_behaves_as_a_built_one() {
        let mut workloads = vec![
            WorkloadSpec::Throttle {
                request: us(120),
                off_ratio: 0.0,
                jitter: 0.02,
            },
            WorkloadSpec::Throttle {
                request: us(430),
                off_ratio: 0.6,
                jitter: 0.1,
            },
            WorkloadSpec::FixedLoop {
                service: us(80),
                gap: us(5),
                rounds: None,
            },
            WorkloadSpec::FixedLoop {
                service: us(80),
                gap: us(5),
                rounds: Some(40),
            },
            WorkloadSpec::Batcher { batch: us(900) },
            WorkloadSpec::IdleBurst {
                idle: us(2_000),
                burst_requests: 6,
                request: us(150),
            },
            WorkloadSpec::InfiniteLoop {
                warmup_rounds: 30,
                request: us(100),
            },
        ];
        workloads.extend(app::all_apps().into_iter().map(|a| WorkloadSpec::App {
            name: a.name.to_string(),
        }));
        for (i, workload) in workloads.into_iter().enumerate() {
            for working_set in [None, Some(3 << 20)] {
                let mut group = TenantGroup::new("g", workload.clone());
                group.working_set = working_set;
                let mut built = group.build_member().unwrap();
                let mut cloned = group.build_member().unwrap().box_clone();
                let what = format!("{workload:?} with working set {working_set:?}");
                assert_eq!(built.name(), cloned.name(), "{what}");
                assert_eq!(built.queues(), cloned.queues(), "{what}");
                assert_eq!(built.max_outstanding(), cloned.max_outstanding(), "{what}");
                assert_eq!(
                    built.working_set_bytes(),
                    cloned.working_set_bytes(),
                    "{what}"
                );
                let mut a = neon_sim::DetRng::seed_from(i as u64 + 11);
                let mut b = neon_sim::DetRng::seed_from(i as u64 + 11);
                for step in 0..1_000 {
                    let want = built.next_action(&mut a);
                    assert_eq!(cloned.next_action(&mut b), want, "{what}, step {step}");
                }
            }
        }
    }
}
