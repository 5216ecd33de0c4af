//! Minimal TOML loader for scenario files.
//!
//! The build environment has no crates.io access, so scenarios are
//! parsed by a small built-in reader covering the subset the files
//! use:
//!
//! - `key = value` pairs with string, integer, float, boolean and
//!   flat-array values; dotted keys (`params.timeslice = "20ms"`) are
//!   stored flat under their dotted name;
//! - `[[group]]`, `[[device]]`, `[[host]]` and `[[fault]]` headers,
//!   each opening one table that the following keys belong to;
//! - `#` comments and blank lines.
//!
//! Durations are strings with a unit suffix (`"134ns"`, `"430us"`,
//! `"30ms"`, `"2s"`); sizes take `B`/`KB`/`MB`/`GB` (powers of 1024).
//!
//! Every key the loader accepts is a row of the key registry
//! (`KEYS`): where it may appear, its type, and what it means. The
//! README's "Scenario keys" section is rendered from it
//! ([`key_reference`]), and every unknown-key, misplaced-key and
//! wrong-arm error and did-you-mean hint reads it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use neon_core::cost::{CostModel, SchedParams};
use neon_core::fault::{FaultConfig, FaultEvent, FaultKind, FaultMode};
use neon_core::fleet::{FleetPlacementKind, FleetRebalanceKind};
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::sched::SchedulerKind;
use neon_core::telemetry::MetricsMode;
use neon_gpu::{
    ClusterInterconnect, DeviceId, DeviceSlotSpec, GpuConfig, InterconnectParams, TaskId,
};
use neon_sim::SimDuration;

use crate::spec::{ArrivalSpec, LifetimeSpec, ScenarioSpec, SpecError, TenantGroup, WorkloadSpec};

/// A scalar or flat-array TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

/// The kinds of table a scenario document holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableKind {
    Root,
    Group,
    Device,
    Host,
    Fault,
}

impl TableKind {
    /// The `[[...]]` table arrays, in the order errors list them.
    const ARRAYS: [TableKind; 4] = [
        TableKind::Group,
        TableKind::Device,
        TableKind::Host,
        TableKind::Fault,
    ];

    fn name(self) -> &'static str {
        match self {
            TableKind::Root => "top level",
            TableKind::Group => "group",
            TableKind::Device => "device",
            TableKind::Host => "host",
            TableKind::Fault => "fault",
        }
    }
}

/// One table of a scenario document.
struct Table {
    kind: TableKind,
    map: BTreeMap<String, Value>,
}

fn parse_err(line_no: usize, msg: impl Into<String>) -> SpecError {
    SpecError(format!("line {}: {}", line_no, msg.into()))
}

/// Parses the supported TOML subset into its tables in source order;
/// the first is the root table.
fn parse_document(text: &str) -> Result<Vec<Table>, SpecError> {
    let table = |kind| Table {
        kind,
        map: BTreeMap::new(),
    };
    let arrays = TableKind::ARRAYS.map(|k| format!("[[{}]]", k.name()));
    let mut tables = vec![table(TableKind::Root)];
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let name = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]"));
            let Some(kind) = TableKind::ARRAYS
                .into_iter()
                .find(|k| name.map(str::trim) == Some(k.name()))
            else {
                return Err(parse_err(
                    line_no,
                    format!(
                        "unsupported table header {line}; use top-level keys or {}",
                        arrays.join(", ")
                    ),
                ));
            };
            tables.push(table(kind));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(parse_err(
                line_no,
                format!("expected key = value, got {line:?}"),
            ));
        };
        let key = key.trim().to_string();
        if key.is_empty()
            || key.starts_with('.')
            || key.ends_with('.')
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            return Err(parse_err(line_no, format!("bad key {key:?}")));
        }
        let value = parse_value(value.trim(), line_no)?;
        let last = tables.len() - 1;
        if tables[last].map.insert(key.clone(), value).is_some() {
            return Err(parse_err(line_no, format!("duplicate key {key:?}")));
        }
    }
    Ok(tables)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str, line_no: usize) -> Result<Value, SpecError> {
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| parse_err(line_no, "unterminated array"))?;
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part, line_no)?);
        }
        return Ok(Value::Array(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| parse_err(line_no, "unterminated string"))?;
        if body.contains('"') {
            return Err(parse_err(line_no, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let cleaned = s.replace('_', "");
    if let Some(hex) = cleaned.strip_prefix("0x") {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Ok(Value::Int(v));
        }
    }
    if let Ok(v) = cleaned.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = cleaned.parse::<f64>() {
        return Ok(Value::Float(v));
    }
    Err(parse_err(line_no, format!("unparseable value {s:?}")))
}

/// Splits array items on commas outside quotes (arrays are flat, so no
/// bracket nesting to track).
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    items.push(current);
    items
}

/// Parses a byte-size literal with a unit suffix (`"512KB"`, `"64MB"`,
/// `"2GB"`, bare `"4096B"`); units are powers of 1024.
pub fn parse_size(s: &str) -> Result<u64, SpecError> {
    let s = s.trim();
    let split = s
        .find(|c: char| c.is_ascii_alphabetic())
        .ok_or_else(|| SpecError(format!("size {s:?} is missing a unit (B/KB/MB/GB)")))?;
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| SpecError(format!("bad size number in {s:?}")))?;
    if value < 0.0 {
        return Err(SpecError(format!("negative size {s:?}")));
    }
    let scale: u64 = match unit {
        "B" => 1,
        "KB" | "KiB" => 1 << 10,
        "MB" | "MiB" => 1 << 20,
        "GB" | "GiB" => 1 << 30,
        _ => return Err(SpecError(format!("unknown size unit {unit:?} in {s:?}"))),
    };
    Ok((value * scale as f64) as u64)
}

/// Parses a duration literal with a unit suffix (`"250us"`, `"2s"`).
pub fn parse_duration(s: &str) -> Result<SimDuration, SpecError> {
    let s = s.trim();
    let split = s
        .find(|c: char| c.is_ascii_alphabetic())
        .ok_or_else(|| SpecError(format!("duration {s:?} is missing a unit (ns/us/ms/s)")))?;
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| SpecError(format!("bad duration number in {s:?}")))?;
    if value < 0.0 {
        return Err(SpecError(format!("negative duration {s:?}")));
    }
    let micros = match unit {
        "ns" => value / 1_000.0,
        "us" => value,
        "ms" => value * 1_000.0,
        "s" => value * 1_000_000.0,
        _ => {
            return Err(SpecError(format!(
                "unknown duration unit {unit:?} in {s:?}"
            )))
        }
    };
    Ok(SimDuration::from_micros_f64(micros))
}

// ----------------------------------------------------------------------
// The key registry
// ----------------------------------------------------------------------

/// A key's value type, as the key reference names it.
#[derive(Clone, Copy)]
enum Ty {
    Str,
    Int,
    Ints,
    Float,
    Bool,
    Duration,
    Durations,
    Size,
    /// One label of the set the function lists.
    Label(fn() -> Vec<String>),
    /// A sweep axis: one label or an array of them.
    Axis(fn() -> Vec<String>),
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Ty::Str => "string",
            Ty::Int => "integer",
            Ty::Ints => "integer or array of integers",
            Ty::Float => "number",
            Ty::Bool => "boolean",
            Ty::Duration => "duration",
            Ty::Durations => "array of durations",
            Ty::Size => "size",
            Ty::Label(labels) => return write!(f, "one of {}", labels().join(", ")),
            Ty::Axis(labels) => return write!(f, "label or array: {}", labels().join(", ")),
        };
        f.write_str(name)
    }
}

/// The field a setter-owned key writes, typed by how its value parses.
enum Slot<'a> {
    Dur(&'a mut SimDuration),
    /// A duration that is off until set.
    OptDur(&'a mut Option<SimDuration>),
    U64(&'a mut u64),
    U32(&'a mut u32),
    Usize(&'a mut usize),
    /// A bandwidth given in GB/s, stored in bytes per microsecond.
    Gbps(&'a mut f64),
    Flag(&'a mut bool),
    Interconnect(&'a mut InterconnectParams),
    Network(&'a mut ClusterInterconnect),
}

// One GB/s = 2^30 bytes per 10^6 µs ≈ 1074 bytes/µs.
const BPUS_PER_GBPS: f64 = (1u64 << 30) as f64 / 1e6;

/// Named values a label key selects.
type Presets<T> = [(&'static str, fn() -> T)];

/// The presets of `topology.interconnect` and `cluster.network`.
const INTERCONNECTS: &Presets<InterconnectParams> = &[
    ("free", InterconnectParams::free),
    ("pcie-gen3", InterconnectParams::pcie_gen3),
];
const NETWORKS: &Presets<ClusterInterconnect> = &[
    ("free", ClusterInterconnect::free),
    ("25g", ClusterInterconnect::network_25g),
];

fn preset<T>(key: &str, v: &Value, noun: &str, presets: &Presets<T>) -> Result<T, SpecError> {
    let label = as_str(key, v)?;
    match presets.iter().find(|(n, _)| *n == label) {
        Some((_, make)) => Ok(make()),
        None => Err(unknown(noun, label, &names(presets))),
    }
}

fn names<T>(presets: &Presets<T>) -> Vec<String> {
    presets.iter().map(|(n, _)| n.to_string()).collect()
}

impl Slot<'_> {
    fn write(self, key: &str, v: &Value) -> Result<(), SpecError> {
        match self {
            Slot::Dur(s) => *s = as_duration(key, v)?,
            Slot::OptDur(s) => *s = Some(as_duration(key, v)?),
            Slot::U64(s) => *s = as_u64(key, v)?,
            Slot::U32(s) => *s = as_u32(key, v)?,
            Slot::Usize(s) => *s = as_u64(key, v)? as usize,
            Slot::Gbps(s) => {
                let gbps = as_f64(key, v)?;
                if gbps <= 0.0 {
                    return Err(SpecError(format!("{key} must be positive, got {gbps}")));
                }
                *s = gbps * BPUS_PER_GBPS;
            }
            Slot::Flag(s) => *s = as_bool(key, v)?,
            Slot::Interconnect(s) => *s = preset(key, v, "interconnect", INTERCONNECTS)?,
            Slot::Network(s) => *s = preset(key, v, "cluster network", NETWORKS)?,
        }
        Ok(())
    }
}

/// Where a key may appear. The dotted families, `[[device]]` and
/// `[[host]]` own setters that write the key into its field; the other
/// owners' keys are read by the loader's own readers. An arm owner's
/// keys apply only under the arm its table selects.
#[derive(Clone, Copy)]
enum Owner {
    Root,
    Params(fn(&mut SchedParams) -> Slot<'_>),
    Cost(fn(&mut CostModel) -> Slot<'_>),
    Topology(fn(&mut InterconnectParams) -> Slot<'_>),
    Cluster(fn(&mut ClusterInterconnect) -> Slot<'_>),
    FaultTuning(fn(&mut FaultConfig) -> Slot<'_>),
    Group,
    Workload(&'static str),
    Arrival(&'static str),
    Device(fn(&mut DeviceSlotSpec) -> Slot<'_>),
    Host(fn(&mut usize) -> Slot<'_>),
    Fault,
    FaultKind(&'static str),
}

impl Owner {
    fn in_table(self, kind: TableKind) -> bool {
        let table = match self {
            Owner::Params(_) => return matches!(kind, TableKind::Root | TableKind::Group),
            Owner::Group | Owner::Workload(_) | Owner::Arrival(_) => TableKind::Group,
            Owner::Device(_) => TableKind::Device,
            Owner::Host(_) => TableKind::Host,
            Owner::Fault | Owner::FaultKind(_) => TableKind::Fault,
            Owner::Root | Owner::Cost(_) | Owner::Topology(_) => TableKind::Root,
            Owner::Cluster(_) | Owner::FaultTuning(_) => TableKind::Root,
        };
        kind == table
    }

    /// `(selector key, label)` of an arm owner.
    fn arm(self) -> Option<(&'static str, &'static str)> {
        match self {
            Owner::Workload(label) => Some(("workload", label)),
            Owner::Arrival(label) => Some(("arrival", label)),
            Owner::FaultKind(label) => Some(("kind", label)),
            _ => None,
        }
    }

    /// Where the key reference says the key goes.
    fn place(self) -> String {
        let tables: Vec<String> = std::iter::once(TableKind::Root)
            .chain(TableKind::ARRAYS)
            .filter(|&kind| self.in_table(kind))
            .map(|kind| match kind {
                TableKind::Root => kind.name().to_string(),
                _ => format!("`[[{}]]`", kind.name()),
            })
            .collect();
        let arm = self
            .arm()
            .map(|(s, label)| format!(" with `{s} = \"{label}\"`"));
        tables.join(" or ") + &arm.unwrap_or_default()
    }
}

/// One registered key.
struct Key {
    path: &'static str,
    owner: Owner,
    ty: Ty,
    doc: &'static str,
}

const fn key(path: &'static str, owner: Owner, ty: Ty, doc: &'static str) -> Key {
    Key {
        path,
        owner,
        ty,
        doc,
    }
}

/// Every key a scenario file may set, in key-reference order.
#[rustfmt::skip]
const KEYS: &[Key] = {
    use Owner::*;
    use Slot::*;
    use Ty::*;
    &[
        key("name", Root, Str, "scenario name; defaults to the file stem"),
        key("horizon", Root, Duration, "simulated time each cell runs (required)"),
        key("seeds", Root, Ints, "workload seeds, one sweep cell each (default 42448)"),
        key("schedulers", Root, Axis(labels::<SchedulerKind>), "policies to sweep (default all)"),
        key("devices", Root, Int, "GPUs per host (default: one per `[[device]]`, else 1)"),
        key("hosts", Root, Int, "hosts per cell (default: one per `[[host]]`, else 1)"),
        key("placement", Root, Axis(labels::<PlacementKind>), "device placement policies, or `pinned:<device>` (default least-loaded)"),
        key("fleet_placement", Root, Axis(labels::<FleetPlacementKind>), "host placement policies (default least-loaded)"),
        key("fleet_rebalance", Root, Label(labels::<FleetRebalanceKind>), "cross-host rebalance policy (default off)"),
        key("rebalance", Root, Axis(labels::<RebalanceKind>), "device rebalance policies; `cost` is short for cost-aware (default off)"),
        key("faults", Root, Axis(labels::<FaultMode>), "`[[fault]]` categories to inject (default: all with a schedule, else none)"),
        key("metrics", Root, Label(labels::<MetricsMode>), "percentile pipeline (default exact)"),
        key("sample_every", Root, Duration, "device-timeline sampling period (default: no sampling)"),
        key("params.timeslice", Params(|p| Dur(&mut p.timeslice)), Duration, "token timeslice length"),
        key("params.sampling_max", Params(|p| Dur(&mut p.sampling_max)), Duration, "longest DFQ sampling run"),
        key("params.sampling_requests", Params(|p| U64(&mut p.sampling_requests)), Int, "requests that end a DFQ sampling run"),
        key("params.freerun_multiplier", Params(|p| U32(&mut p.freerun_multiplier)), Int, "DFQ free run as a multiple of the engagement"),
        key("params.freerun_min", Params(|p| Dur(&mut p.freerun_min)), Duration, "shortest DFQ free run"),
        key("params.freerun_max", Params(|p| Dur(&mut p.freerun_max)), Duration, "longest DFQ free run"),
        key("params.overlong_limit", Params(|p| Dur(&mut p.overlong_limit)), Duration, "longest request before a kill or preemption"),
        key("params.hardware_preemption", Params(|p| Flag(&mut p.hardware_preemption)), Bool, "preempt over-long requests instead of killing"),
        key("cost.direct_submit", Cost(|c| Dur(&mut c.direct_submit)), Duration, "direct user-space submission"),
        key("cost.fault_intercept", Cost(|c| Dur(&mut c.fault_intercept)), Duration, "intercepted (faulting) submission"),
        key("cost.syscall_submit", Cost(|c| Dur(&mut c.syscall_submit)), Duration, "syscall-based submission"),
        key("cost.driver_processing", Cost(|c| Dur(&mut c.driver_processing)), Duration, "extra kernel driver work per request"),
        key("cost.completion_detect", Cost(|c| Dur(&mut c.completion_detect)), Duration, "user-space completion detection"),
        key("cost.polling_period", Cost(|c| Dur(&mut c.polling_period)), Duration, "kernel polling-thread period"),
        key("cost.poll_scan", Cost(|c| Dur(&mut c.poll_scan)), Duration, "one polling scan over active channels"),
        key("cost.kill_cleanup", Cost(|c| Dur(&mut c.kill_cleanup)), Duration, "tearing down a killed task"),
        key("topology.interconnect", Topology(|t| Interconnect(t)), Label(|| names(INTERCONNECTS)), "interconnect preset (default free)"),
        key("topology.same_switch_gbps", Topology(|t| Gbps(&mut t.same_switch_bpus)), Float, "same-switch bandwidth, GB/s"),
        key("topology.cross_pcie_gbps", Topology(|t| Gbps(&mut t.cross_pcie_bpus)), Float, "cross-PCIe bandwidth, GB/s"),
        key("topology.cross_numa_gbps", Topology(|t| Gbps(&mut t.cross_numa_bpus)), Float, "cross-NUMA bandwidth, GB/s"),
        key("topology.same_switch_latency", Topology(|t| Dur(&mut t.same_switch_latency)), Duration, "same-switch transfer setup"),
        key("topology.cross_pcie_latency", Topology(|t| Dur(&mut t.cross_pcie_latency)), Duration, "cross-PCIe transfer setup"),
        key("topology.cross_numa_latency", Topology(|t| Dur(&mut t.cross_numa_latency)), Duration, "cross-NUMA transfer setup"),
        key("cluster.network", Cluster(|c| Network(c)), Label(|| names(NETWORKS)), "cross-host network preset (default free)"),
        key("cluster.latency", Cluster(|c| Dur(&mut c.latency)), Duration, "cross-host transfer setup"),
        key("cluster.gbps", Cluster(|c| Gbps(&mut c.bpus)), Float, "cross-host bandwidth, GB/s"),
        key("fault.watchdog", FaultTuning(|f| OptDur(&mut f.watchdog)), Duration, "kill-and-requeue a request stagnant this long (default off)"),
        key("fault.retry_budget", FaultTuning(|f| U32(&mut f.retry_budget)), Int, "watchdog requeues before a task is lost"),
        key("fault.backoff_base", FaultTuning(|f| Dur(&mut f.backoff_base)), Duration, "first retry delay; doubles per attempt"),
        key("fault.backoff_cap", FaultTuning(|f| Dur(&mut f.backoff_cap)), Duration, "longest retry delay"),
        key("fault.max_park_retries", FaultTuning(|f| U32(&mut f.max_park_retries)), Int, "re-admissions after a hot-remove before a task is lost"),
        key("name", Group, Str, "group name (default group<index>)"),
        key("count", Group, Int, "members (default 1)"),
        key("workload", Group, Str, "workload arm, below (default throttle)"),
        key("arrival", Group, Str, "arrival arm, below (default at-start: all at time zero)"),
        key("lifetime", Group, Str, "`forever` (default), a duration, or `exp(<mean duration>)`"),
        key("device", Group, Int, "pins every member to this device"),
        key("working_set", Group, Size, "device state moved with a placed or migrated member"),
        key("request", Workload("throttle"), Duration, "request service time (required)"),
        key("off_ratio", Workload("throttle"), Float, "fraction of each round spent off, in [0, 1)"),
        key("jitter", Workload("throttle"), Float, "uniform request-size jitter"),
        key("service", Workload("fixed-loop"), Duration, "request service time (required)"),
        key("gap", Workload("fixed-loop"), Duration, "CPU gap between rounds (default 0)"),
        key("rounds", Workload("fixed-loop"), Int, "rounds before exiting (default: forever)"),
        key("app", Workload("app"), Str, "Table 1 application name (required)"),
        key("batch", Workload("batcher"), Duration, "device time per batch (required)"),
        key("idle", Workload("idle-burst"), Duration, "idle stretch between bursts (required)"),
        key("burst_requests", Workload("idle-burst"), Int, "requests per burst (default 32)"),
        key("request", Workload("idle-burst"), Duration, "request service time (required)"),
        key("warmup_rounds", Workload("infinite-loop"), Int, "well-behaved rounds before the attack (default 50)"),
        key("request", Workload("infinite-loop"), Duration, "warm-up request service time (required)"),
        key("stagger", Arrival("stagger"), Duration, "member i arrives at i times this (required)"),
        key("times", Arrival("at"), Durations, "one arrival instant per member (required)"),
        key("rate_hz", Arrival("poisson"), Float, "mean arrivals per simulated second (required)"),
        key("arrival_start", Arrival("poisson"), Duration, "earliest arrival (default 0)"),
        key("channels", Device(|d| Usize(&mut d.config.total_channels)), Int, "channels the device supports"),
        key("contexts", Device(|d| Usize(&mut d.config.total_contexts)), Int, "contexts the device supports"),
        key("ring", Device(|d| Usize(&mut d.config.ring_capacity)), Int, "outstanding requests per channel ring"),
        key("context_switch", Device(|d| Dur(&mut d.config.context_switch)), Duration, "compute-engine context switch"),
        key("graphics_cooldown", Device(|d| Dur(&mut d.config.graphics_cooldown)), Duration, "compute preference after a graphics request"),
        key("numa", Device(|d| U32(&mut d.numa)), Int, "NUMA node of the device (default 0)"),
        key("switch", Device(|d| U32(&mut d.switch_id)), Int, "PCIe switch of the device (default 0)"),
        key("devices", Host(|n| Usize(n)), Int, "GPUs on this host (default 1)"),
        key("at", Fault, Duration, "injection time (required)"),
        key("kind", Fault, Str, "fault arm, below (required)"),
        key("device", FaultKind("device-remove"), Int, "device to hot-remove (required)"),
        key("device", FaultKind("device-add"), Int, "device to hot-add back (required)"),
        key("task", FaultKind("hang"), Int, "task to hang (default: the oldest live task)"),
        key("task", FaultKind("crash"), Int, "task to crash (default: the oldest live task)"),
        key("task", FaultKind("submit-error"), Int, "task whose next submit fails (default: the oldest live task)"),
        key("host", FaultKind("host-fail"), Int, "host to fail (required)"),
        key("host", FaultKind("host-recover"), Int, "host to recover (required)"),
    ]
};

/// The Markdown key reference: one table row per registered key, in
/// registry order. The README's "Scenario keys" section is this text.
pub fn key_reference() -> String {
    let mut o = String::from("| key | where | type | meaning |\n|---|---|---|---|\n");
    for k in KEYS {
        let _ = writeln!(
            o,
            "| `{}` | {} | {} | {} |",
            k.path,
            k.owner.place(),
            k.ty,
            k.doc
        );
    }
    o
}

/// The labels of one arm selector (`workload`, `arrival` or `kind`),
/// in registry order.
fn arms(selector: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for (s, label) in KEYS.iter().filter_map(|k| k.owner.arm()) {
        if s == selector && !out.contains(&label) {
            out.push(label);
        }
    }
    out
}

/// Levenshtein edit distance, for "did you mean" hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within edit distance 2, rendered as a
/// `; did you mean "x"?` suffix (empty when nothing is close).
fn did_you_mean<S: AsRef<str>>(key: &str, candidates: &[S]) -> String {
    candidates
        .iter()
        .map(|c| (edit_distance(key, c.as_ref()), c.as_ref()))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, c)| format!("; did you mean {c:?}?"))
        .unwrap_or_default()
}

/// An unknown label or name, with what is supported and the closest.
fn unknown<S: AsRef<str>>(noun: &str, name: &str, supported: &[S]) -> SpecError {
    let list: Vec<&str> = supported.iter().map(AsRef::as_ref).collect();
    SpecError(format!(
        "unknown {noun} {name:?} (supported: {}){}",
        list.join(", "),
        did_you_mean(name, supported)
    ))
}

/// Checks every key of `t` against the registry, so a typo or a key in
/// the wrong place is an error instead of a silent no-op. `active`
/// holds the table's selected arms as `(selector key, label)` pairs;
/// `ctx` names the table in errors (empty for the root table).
fn check_keys(t: &Table, ctx: &str, active: &[(&str, &str)]) -> Result<(), SpecError> {
    let here = |k: &&Key| {
        k.owner.in_table(t.kind) && k.owner.arm().is_none_or(|arm| active.contains(&arm))
    };
    let accepted: Vec<&str> = KEYS.iter().filter(here).map(|k| k.path).collect();
    let Some(key) = t.map.keys().find(|key| !accepted.contains(&key.as_str())) else {
        return Ok(());
    };
    let rows: Vec<&Key> = KEYS.iter().filter(|k| k.path == key).collect();
    let elsewhere = |kind| rows.iter().any(|k| k.owner.in_table(kind));
    let family_of = |path: &str| path.split_once('.').map(|(family, _)| family.to_string());
    let family = family_of(key);
    let in_family = |f: &Option<String>| -> Vec<&str> {
        accepted
            .iter()
            .copied()
            .filter(|p| family_of(p) == *f)
            .collect()
    };
    let arms: Vec<(&str, &str)> = rows
        .iter()
        .filter(|k| k.owner.in_table(t.kind))
        .filter_map(|k| k.owner.arm())
        .collect();
    let msg = if let Some(&(selector, _)) = arms.first() {
        let under = active.iter().find(|a| a.0 == selector).map_or("", |a| a.1);
        let readers: Vec<&str> = arms.iter().map(|a| a.1).collect();
        format!(
            "{key:?} is only used by {selector} = \"{}\" and does nothing under \
             {selector} = \"{under}\", which does not take {key:?}; remove it or change the \
             {selector}",
            readers.join("\" / \"")
        )
    } else if t.kind == TableKind::Group && rows.iter().any(|k| matches!(k.owner, Owner::Cost(_))) {
        return Err(SpecError(format!(
            "{ctx} sets {key:?}: the cost model describes the simulated host and cannot vary \
             per group; move it to the top level"
        )));
    } else if t.kind == TableKind::Group && elsewhere(TableKind::Root) {
        format!("{key:?} is a top-level key; move it above the first [[group]] header")
    } else if t.kind == TableKind::Root && elsewhere(TableKind::Group) {
        format!("{key:?} is a group key; move it below a [[group]] header")
    } else if let Some(f) = family.as_deref().filter(|_| !in_family(&family).is_empty()) {
        let noun = match f {
            "params" => "sched-param override".to_string(),
            "cost" => "cost override".to_string(),
            f => format!("{f} key"),
        };
        unknown(&noun, key, &in_family(&family)).0
    } else if let Some(f) = family.as_deref().filter(|_| t.kind == TableKind::Root) {
        // Registry rows keep each family together, so `dedup` lists each once.
        let mut families: Vec<String> = accepted.iter().filter_map(|p| family_of(p)).collect();
        families.dedup();
        format!(
            "unknown key family {f:?} in {key:?} (supported: {}){}",
            families.join(", "),
            did_you_mean(f, &families)
        )
    } else {
        let noun = if t.kind == TableKind::Root {
            "top-level key"
        } else {
            "key"
        };
        unknown(noun, key, &in_family(&None)).0
    };
    Err(SpecError(if ctx.is_empty() {
        msg
    } else {
        format!("{ctx}: {msg}")
    }))
}

/// Writes every setter-owned key of `t` into `target`, in registry
/// order (a preset key precedes the keys that adjust it). A family's
/// struct is created when the first of its keys is present.
fn set_fields(t: &Table, target: &mut Target<'_>) -> Result<(), SpecError> {
    for k in KEYS {
        let Some(v) = t.map.get(k.path) else {
            continue;
        };
        let slot = match (k.owner, &mut *target) {
            (Owner::Params(f), Target::Spec(s)) => f(s.params.get_or_insert_with(Default::default)),
            (Owner::Params(f), Target::Group(p, base)) => {
                f(p.get_or_insert_with(|| (*base).clone()))
            }
            (Owner::Cost(f), Target::Spec(s)) => f(s.cost.get_or_insert_with(Default::default)),
            (Owner::Topology(f), Target::Spec(s)) => {
                f(s.interconnect.get_or_insert_with(InterconnectParams::free))
            }
            (Owner::Cluster(f), Target::Spec(s)) => {
                f(s.cluster.get_or_insert_with(ClusterInterconnect::free))
            }
            (Owner::FaultTuning(f), Target::Spec(s)) => f(&mut s.fault_config),
            (Owner::Device(f), Target::Device(d)) => f(d),
            (Owner::Host(f), Target::Host(n)) => f(n),
            _ => continue,
        };
        slot.write(k.path, v)?;
    }
    Ok(())
}

/// What a table's setter-owned keys write into.
enum Target<'a> {
    Spec(&'a mut ScenarioSpec),
    /// A group's params override, started from the scenario's params.
    Group(&'a mut Option<SchedParams>, &'a SchedParams),
    Device(&'a mut DeviceSlotSpec),
    Host(&'a mut usize),
}

// ----------------------------------------------------------------------
// Typed access
// ----------------------------------------------------------------------

fn as_str<'v>(key: &str, v: &'v Value) -> Result<&'v str, SpecError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(SpecError(format!("{key} must be a string, got {other:?}"))),
    }
}

fn as_duration(key: &str, v: &Value) -> Result<SimDuration, SpecError> {
    parse_duration(as_str(key, v)?)
}

fn as_u64(key: &str, v: &Value) -> Result<u64, SpecError> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(SpecError(format!(
            "{key} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Like [`as_u64`] but range-checked to `u32`: a value like
/// `device = 4294967296` must be rejected, not silently truncated to 0
/// by an `as u32` cast (which would, e.g., pin a group to the wrong
/// GPU).
fn as_u32(key: &str, v: &Value) -> Result<u32, SpecError> {
    let v = as_u64(key, v)?;
    u32::try_from(v).map_err(|_| {
        SpecError(format!(
            "{key} must fit in a 32-bit unsigned integer (0..={}), got {v}",
            u32::MAX
        ))
    })
}

fn as_f64(key: &str, v: &Value) -> Result<f64, SpecError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(SpecError(format!("{key} must be a number, got {other:?}"))),
    }
}

fn as_bool(key: &str, v: &Value) -> Result<bool, SpecError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(SpecError(format!(
            "{key} must be true or false, got {other:?}"
        ))),
    }
}

impl Table {
    /// The value of a key that must be registered for this kind of
    /// table: a reader and the registry that drift apart fail here.
    fn get(&self, key: &str) -> Option<&Value> {
        debug_assert!(
            KEYS.iter()
                .any(|k| k.path == key && k.owner.in_table(self.kind)),
            "{key:?} is read from a {} table but not registered for one",
            self.kind.name()
        );
        self.map.get(key)
    }

    fn read<T>(
        &self,
        key: &str,
        f: fn(&str, &Value) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        self.get(key).map(|v| f(key, v)).transpose()
    }

    fn str(&self, key: &str) -> Result<Option<&str>, SpecError> {
        self.get(key).map(|v| as_str(key, v)).transpose()
    }

    fn require_duration(&self, key: &str, what: &str) -> Result<SimDuration, SpecError> {
        self.read(key, as_duration)?
            .ok_or_else(|| SpecError(format!("{what} requires {key} = \"<duration>\"")))
    }
}

// ----------------------------------------------------------------------
// Labels and sweep axes
// ----------------------------------------------------------------------

/// A policy or mode that scenario files and the command line name by
/// label.
pub trait Labeled: Sized + Clone + 'static {
    /// What a label names, in errors.
    const NOUN: &'static str;
    /// Labels that stand for several values: `"all"` on the axes where
    /// it expands, and `"paper"` for schedulers. (`"all"` is itself
    /// one fault mode.)
    const GROUPS: &'static [(&'static str, &'static [Self])];
    /// Every value with a label of its own, in sweep order.
    const VALUES: &'static [Self];
    /// Parses one value's label.
    fn parse(label: &str) -> Option<Self>;
    /// The value's label.
    fn name(&self) -> String;
}

macro_rules! labeled {
    ($($t:ty: $noun:literal, $values:expr, $label:ident, $parse:ident, [$($g:literal => $gv:expr),*];)*) => {$(
        impl Labeled for $t {
            const NOUN: &'static str = $noun;
            const GROUPS: &'static [(&'static str, &'static [Self])] = &[$(($g, &$gv)),*];
            const VALUES: &'static [Self] = &$values;
            fn parse(label: &str) -> Option<Self> {
                <$t>::$parse(label)
            }
            fn name(&self) -> String {
                self.$label().to_string()
            }
        }
    )*};
}

labeled! {
    SchedulerKind: "scheduler", SchedulerKind::ALL, label, from_label,
        ["all" => SchedulerKind::ALL, "paper" => SchedulerKind::PAPER];
    PlacementKind: "placement policy", PlacementKind::ALL, to_string, from_label,
        ["all" => PlacementKind::ALL];
    FleetPlacementKind: "fleet placement policy", FleetPlacementKind::ALL, to_string, from_label,
        ["all" => FleetPlacementKind::ALL];
    RebalanceKind: "rebalance policy", RebalanceKind::ALL, to_string, from_label,
        ["all" => RebalanceKind::ALL];
    FleetRebalanceKind: "fleet rebalance policy", FleetRebalanceKind::ALL, to_string, from_label, [];
    FaultMode: "fault mode", FaultMode::ALL, label, parse, [];
    MetricsMode: "metrics mode", [MetricsMode::Exact, MetricsMode::Streaming], label, from_label, [];
}

/// Every label `T` accepts: its group labels, then one per value.
fn labels<T: Labeled>() -> Vec<String> {
    let groups = T::GROUPS.iter().map(|(g, _)| g.to_string());
    groups.chain(T::VALUES.iter().map(T::name)).collect()
}

fn parse_label<T: Labeled>(label: &str) -> Result<T, SpecError> {
    T::parse(label).ok_or_else(|| unknown(T::NOUN, label, &labels::<T>()))
}

/// A single-label key's value.
fn label<T: Labeled>(key: &str, v: &Value) -> Result<T, SpecError> {
    parse_label(as_str(key, v)?)
}

/// Parses sweep-axis labels, as a scenario file's array or the command
/// line's comma-separated list gives them: a group label (`"all"`,
/// `"paper"`) expands to its values, any other label names one value.
pub fn parse_axis<'a, T: Labeled>(
    items: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<T>, SpecError> {
    let mut out = Vec::new();
    for label in items {
        match T::GROUPS.iter().find(|(g, _)| *g == label) {
            Some((_, values)) => out.extend_from_slice(values),
            None => out.push(parse_label(label)?),
        }
    }
    Ok(out)
}

/// A value that is one item or an array of items, as its items.
fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        one => std::slice::from_ref(one),
    }
}

/// A sweep axis key's value: one label or an array of labels.
fn axis<T: Labeled>(key: &str, v: &Value) -> Result<Vec<T>, SpecError> {
    let given: Option<Vec<&str>> = items(v)
        .iter()
        .map(|i| match i {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let Some(given) = given else {
        let quoted: Vec<String> = labels::<T>().iter().map(|l| format!("{l:?}")).collect();
        return Err(SpecError(format!(
            "{key} must be one of {}, or an array of them; got {v:?}",
            quoted.join(", ")
        )));
    };
    parse_axis(given)
}

fn seeds_from(key: &str, v: &Value) -> Result<Vec<u64>, SpecError> {
    items(v).iter().map(|seed| as_u64(key, seed)).collect()
}

// ----------------------------------------------------------------------
// Spec assembly
// ----------------------------------------------------------------------

fn workload_from(g: &Table, kind: &str) -> Result<WorkloadSpec, SpecError> {
    match kind {
        "throttle" => Ok(WorkloadSpec::Throttle {
            request: g.require_duration("request", "throttle")?,
            off_ratio: g.read("off_ratio", as_f64)?.unwrap_or(0.0),
            jitter: g.read("jitter", as_f64)?.unwrap_or(0.0),
        }),
        "fixed-loop" => Ok(WorkloadSpec::FixedLoop {
            service: g.require_duration("service", "fixed-loop")?,
            gap: g.read("gap", as_duration)?.unwrap_or(SimDuration::ZERO),
            rounds: g.read("rounds", as_u64)?,
        }),
        "app" => Ok(WorkloadSpec::App {
            name: g
                .str("app")?
                .ok_or_else(|| SpecError("app workload requires app = \"<Name>\"".into()))?
                .to_string(),
        }),
        "batcher" => Ok(WorkloadSpec::Batcher {
            batch: g.require_duration("batch", "batcher")?,
        }),
        "idle-burst" => Ok(WorkloadSpec::IdleBurst {
            idle: g.require_duration("idle", "idle-burst")?,
            burst_requests: g.read("burst_requests", as_u32)?.unwrap_or(32),
            request: g.require_duration("request", "idle-burst")?,
        }),
        "infinite-loop" => Ok(WorkloadSpec::InfiniteLoop {
            warmup_rounds: g.read("warmup_rounds", as_u32)?.unwrap_or(50),
            request: g.require_duration("request", "infinite-loop")?,
        }),
        other => Err(SpecError(format!("unknown workload kind {other:?}"))),
    }
}

fn arrival_from(g: &Table, kind: &str) -> Result<ArrivalSpec, SpecError> {
    match kind {
        "at-start" => Ok(ArrivalSpec::AtStart),
        "stagger" => Ok(ArrivalSpec::Staggered {
            gap: g.require_duration("stagger", "stagger arrival")?,
        }),
        "at" => match g.get("times") {
            Some(Value::Array(items)) => {
                let times = items
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => parse_duration(s),
                        other => Err(SpecError(format!(
                            "arrival times must be duration strings, got {other:?}"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ArrivalSpec::At { times })
            }
            _ => Err(SpecError(
                "at arrival requires times = [\"<duration>\", ...]".into(),
            )),
        },
        "poisson" => Ok(ArrivalSpec::Poisson {
            rate_hz: g
                .read("rate_hz", as_f64)?
                .ok_or_else(|| SpecError("poisson arrival requires rate_hz".into()))?,
            start: g
                .read("arrival_start", as_duration)?
                .unwrap_or(SimDuration::ZERO),
        }),
        other => Err(SpecError(format!("unknown arrival kind {other:?}"))),
    }
}

fn lifetime_from(g: &Table) -> Result<LifetimeSpec, SpecError> {
    let Some(s) = g.str("lifetime")? else {
        return Ok(LifetimeSpec::Forever);
    };
    if s == "forever" {
        return Ok(LifetimeSpec::Forever);
    }
    if let Some(body) = s.strip_prefix("exp(").and_then(|b| b.strip_suffix(')')) {
        return Ok(LifetimeSpec::Exponential {
            mean: parse_duration(body)?,
        });
    }
    Ok(LifetimeSpec::Fixed(parse_duration(s)?))
}

/// Builds one tenant group from a `[[group]]` table; its `params.*`
/// keys start from the scenario-level `params`.
fn group_from(g: &Table, index: usize, params: &SchedParams) -> Result<TenantGroup, SpecError> {
    let name = g
        .str("name")?
        .map_or_else(|| format!("group{index}"), str::to_string);
    let workload = g.str("workload")?.unwrap_or("throttle");
    let arrival = g.str("arrival")?.unwrap_or("at-start");
    let active = [("workload", workload), ("arrival", arrival)];
    check_keys(g, &format!("group {name:?}"), &active)?;
    let mut group_params = None;
    set_fields(g, &mut Target::Group(&mut group_params, params))?;
    Ok(TenantGroup {
        count: g.read("count", as_u32)?.unwrap_or(1),
        workload: workload_from(g, workload)?,
        arrival: arrival_from(g, arrival)?,
        lifetime: lifetime_from(g)?,
        device: g.read("device", as_u32)?,
        params: group_params,
        working_set: g.str("working_set")?.map(parse_size).transpose()?,
        name,
    })
}

/// Builds one scheduled fault from a `[[fault]]` table: `at`, `kind`,
/// and the kind's operand. A task kind's absent `task` means "the
/// oldest live task at injection time".
fn fault_from(f: &Table, index: usize) -> Result<FaultEvent, SpecError> {
    let ctx = format!("fault[{index}]");
    let fail = |msg: String| SpecError(format!("{ctx}: {msg}"));
    let at = f
        .require_duration("at", "a [[fault]] block")
        .map_err(|e| fail(e.0))?;
    let kinds = arms("kind");
    let label = f
        .str("kind")?
        .ok_or_else(|| fail(format!("requires kind = \"<{}>\"", kinds.join("|"))))?;
    if !kinds.contains(&label) {
        return Err(fail(unknown("fault kind", label, &kinds).0));
    }
    check_keys(f, &ctx, &[("kind", label)])?;
    let operand = |key: &str| {
        f.read(key, as_u32)?
            .ok_or_else(|| fail(format!("kind = {label:?} requires {key} = <index>")))
    };
    let (device, host) = (|| operand("device").map(DeviceId::new), || operand("host"));
    let task = f.read("task", as_u32)?.map(TaskId::new);
    let kind = match label {
        "device-remove" => FaultKind::DeviceRemove { device: device()? },
        "device-add" => FaultKind::DeviceAdd { device: device()? },
        "hang" => FaultKind::TaskHang { task },
        "crash" => FaultKind::TaskCrash { task },
        "submit-error" => FaultKind::SubmitError { task },
        "host-fail" => FaultKind::HostFail { host: host()? },
        _ => FaultKind::HostRecover { host: host()? },
    };
    Ok(FaultEvent {
        at: neon_sim::SimTime::ZERO + at,
        kind,
    })
}

/// Parses scenario TOML text. `fallback_name` (usually the file stem)
/// names the scenario when the file has no `name` key.
pub fn from_toml(text: &str, fallback_name: &str) -> Result<ScenarioSpec, SpecError> {
    let tables = parse_document(text)?;
    let root = &tables[0];
    let of = |kind| tables.iter().filter(move |t| t.kind == kind);
    check_keys(root, "", &[])?;
    let name = root.str("name")?.unwrap_or(fallback_name);
    let mut spec = ScenarioSpec::new(name, root.require_duration("horizon", "scenario")?);
    // [[device]] blocks define the device count when the devices key
    // is absent; when both appear, validation checks they agree. The
    // hosts key and [[host]] blocks follow the same rule one level up.
    spec.devices = root
        .read("devices", as_u64)?
        .map_or(of(TableKind::Device).count().max(1), |d| d as usize);
    spec.hosts = root
        .read("hosts", as_u64)?
        .map_or(of(TableKind::Host).count().max(1), |h| h as usize);
    spec.seeds = root.read("seeds", seeds_from)?.unwrap_or(spec.seeds);
    spec.schedulers = root.read("schedulers", axis)?.unwrap_or(spec.schedulers);
    spec.placements = root.read("placement", axis)?.unwrap_or(spec.placements);
    spec.fleet_placements = root
        .read("fleet_placement", axis)?
        .unwrap_or(spec.fleet_placements);
    spec.rebalances = root.read("rebalance", axis)?.unwrap_or(spec.rebalances);
    // Absent means "derive from the schedule": see
    // `ScenarioSpec::effective_fault_modes`.
    spec.fault_modes = root.read("faults", axis)?.unwrap_or_default();
    spec.fleet_rebalance = root
        .read("fleet_rebalance", label)?
        .unwrap_or(spec.fleet_rebalance);
    spec.metrics = root.read("metrics", label)?.unwrap_or(spec.metrics);
    spec.sample_every = root.read("sample_every", as_duration)?;
    set_fields(root, &mut Target::Spec(&mut spec))?;
    for (i, h) in of(TableKind::Host).enumerate() {
        check_keys(h, &format!("host {i}"), &[])?;
        let mut devices = 1;
        set_fields(h, &mut Target::Host(&mut devices))?;
        spec.host_devices.push(devices);
    }
    for (i, d) in of(TableKind::Device).enumerate() {
        check_keys(d, &format!("device {i}"), &[])?;
        let mut slot = DeviceSlotSpec::near(GpuConfig::default());
        set_fields(d, &mut Target::Device(&mut slot))?;
        spec.device_slots.push(slot);
    }
    for (i, f) in of(TableKind::Fault).enumerate() {
        spec.faults.push(fault_from(f, i)?);
    }
    let params = spec.params.clone().unwrap_or_default();
    for (i, g) in of(TableKind::Group).enumerate() {
        spec.groups.push(group_from(g, i, &params)?);
    }
    spec.check_size()?;
    spec.validate()?;
    Ok(spec)
}

/// Loads a scenario from a `.toml` file.
pub fn from_file(path: &std::path::Path) -> Result<ScenarioSpec, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    from_toml(&text, stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: &str = r#"
# A comment.
name = "unit-churn"
horizon = "200ms"
seeds = [1, 2]
schedulers = ["direct", "disengaged-fq"]

[[group]]
name = "resident"
count = 2
workload = "fixed-loop"
service = "100us"
gap = "10us"

[[group]]
name = "churner"          # trailing comment
count = 4
workload = "throttle"
request = "250us"
arrival = "poisson"
rate_hz = 50.0
lifetime = "exp(40ms)"
"#;

    #[test]
    fn full_scenario_round_trip() {
        let spec = from_toml(CHURN, "fallback").unwrap();
        assert_eq!(spec.name, "unit-churn");
        assert_eq!(spec.horizon, SimDuration::from_millis(200));
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(spec.schedulers.len(), 2);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].count, 2);
        assert!(matches!(
            spec.groups[1].arrival,
            ArrivalSpec::Poisson { rate_hz, .. } if rate_hz == 50.0
        ));
        assert!(matches!(
            spec.groups[1].lifetime,
            LifetimeSpec::Exponential { mean } if mean == SimDuration::from_millis(40)
        ));
    }

    #[test]
    fn fallback_name_and_defaults_apply() {
        let text = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "stem").unwrap();
        assert_eq!(spec.name, "stem");
        assert_eq!(spec.schedulers.len(), 7, "defaults to every policy");
        assert_eq!(spec.seeds.len(), 1);
        assert!(matches!(spec.groups[0].arrival, ArrivalSpec::AtStart));
        assert!(matches!(spec.groups[0].lifetime, LifetimeSpec::Forever));
    }

    #[test]
    fn root_rows_state_the_defaults_the_loader_applies() {
        // A root row that says `(default X)` must mean what omitting the
        // key gives: setting it to X loads the same spec. A default
        // changed in code fails here until its row changes too.
        let base = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let omitted = format!("{:?}", from_toml(base, "stem").unwrap());
        let mut checked = Vec::new();
        for k in KEYS.iter().filter(|k| matches!(k.owner, Owner::Root)) {
            let Some((_, stated)) = k.doc.split_once("(default ") else {
                continue;
            };
            let stated = stated
                .strip_suffix(')')
                .expect("the default closes the row");
            let value = match k.ty {
                Ty::Ints => stated.to_string(),
                Ty::Label(_) | Ty::Axis(_) => format!("{stated:?}"),
                _ => panic!("{}: no TOML form for a {} default", k.path, k.ty),
            };
            let text = format!("{} = {value}\n{base}", k.path);
            let given = format!("{:?}", from_toml(&text, "stem").unwrap());
            assert_eq!(given, omitted, "{}: row says default {stated}", k.path);
            checked.push(k.path);
        }
        assert_eq!(
            checked,
            [
                "seeds",
                "schedulers",
                "placement",
                "fleet_placement",
                "fleet_rebalance",
                "rebalance",
                "metrics"
            ]
        );
    }

    #[test]
    fn durations_parse_all_units() {
        assert_eq!(
            parse_duration("134ns").unwrap(),
            SimDuration::from_nanos(134)
        );
        assert_eq!(
            parse_duration("430us").unwrap(),
            SimDuration::from_micros(430)
        );
        assert_eq!(
            parse_duration("30ms").unwrap(),
            SimDuration::from_millis(30)
        );
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("1.5ms").unwrap(),
            SimDuration::from_micros(1_500)
        );
        assert!(parse_duration("10").is_err(), "unit required");
        assert!(parse_duration("10fortnights").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "horizon = \"10ms\"\nbogus line\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
    }

    #[test]
    fn unknown_scheduler_label_is_rejected() {
        let text =
            "horizon = \"10ms\"\nschedulers = [\"warp-drive\"]\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        assert!(from_toml(text, "x").is_err());
    }

    const MULTI: &str = r#"
name = "multi"
horizon = "100ms"
devices = 4
placement = ["least-loaded", "round-robin", "pinned:2"]
rebalance = "count-diff"
schedulers = ["disengaged-fq"]
params.sampling_max = "3ms"
params.freerun_max = "80ms"
cost.polling_period = "500us"

[[group]]
name = "floaters"
count = 6
workload = "throttle"
request = "200us"

[[group]]
name = "pinned-heavy"
count = 2
workload = "throttle"
request = "900us"
device = 3
params.sampling_requests = 96
"#;

    #[test]
    fn multi_device_scenario_round_trips() {
        let spec = from_toml(MULTI, "x").unwrap();
        assert_eq!(spec.devices, 4);
        assert_eq!(
            spec.rebalances,
            vec![RebalanceKind::CountDiff],
            "a single label is a one-entry axis"
        );
        assert_eq!(
            spec.placements,
            vec![
                PlacementKind::LeastLoaded,
                PlacementKind::RoundRobin,
                PlacementKind::Pinned(2)
            ]
        );
        assert_eq!(
            spec.params.as_ref().unwrap().sampling_max,
            SimDuration::from_millis(3)
        );
        assert_eq!(
            spec.params.as_ref().unwrap().freerun_max,
            SimDuration::from_millis(80)
        );
        assert_eq!(
            spec.cost.as_ref().unwrap().polling_period,
            SimDuration::from_micros(500)
        );
        assert_eq!(spec.groups[0].device, None);
        assert_eq!(spec.groups[1].device, Some(3));
        let group_params = spec.groups[1].params.as_ref().unwrap();
        assert_eq!(group_params.sampling_requests, 96);
        // Group overrides start from the scenario-level params.
        assert_eq!(group_params.sampling_max, SimDuration::from_millis(3));
        let per_device = spec.host_params(spec.devices);
        assert_eq!(per_device[3].sampling_requests, 96);
        assert_eq!(per_device[0].sampling_requests, 32);
        assert_eq!(spec.cell_count(), 3);
    }

    #[test]
    fn rebalance_axis_parses_labels_and_arrays_and_rejects_booleans() {
        let with_rebalance = |v: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\nrebalance = {v}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        let cases = [
            ("\"count-diff\"", vec![RebalanceKind::CountDiff]),
            ("\"off\"", vec![RebalanceKind::Off]),
            ("\"cost\"", vec![RebalanceKind::CostAware]),
            ("\"cost-aware\"", vec![RebalanceKind::CostAware]),
            ("\"all\"", RebalanceKind::ALL.to_vec()),
            (
                "[\"count-diff\", \"cost-aware\"]",
                vec![RebalanceKind::CountDiff, RebalanceKind::CostAware],
            ),
        ];
        for (value, expected) in cases {
            let spec = from_toml(&with_rebalance(value), "x").unwrap();
            assert_eq!(spec.rebalances, expected, "rebalance = {value}");
        }
        // Missing key means off, and the axis multiplies the matrix.
        let spec = from_toml(&with_rebalance("\"all\""), "x").unwrap();
        assert_eq!(spec.cell_count(), 7 * 3, "schedulers x rebalances");
        let off = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap();
        assert_eq!(off.rebalances, vec![RebalanceKind::Off]);
        assert!(from_toml(&with_rebalance("\"warp-drive\""), "x").is_err());
        for boolean in ["true", "false"] {
            let rejected = from_toml(&with_rebalance(boolean), "x");
            assert!(rejected.is_err(), "rebalance = {boolean} must not load");
        }
    }

    #[test]
    fn placement_all_and_unknown_labels() {
        let ok = "horizon = \"10ms\"\ndevices = 2\nplacement = \"all\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(ok, "x").unwrap();
        assert_eq!(spec.placements.len(), PlacementKind::ALL.len());
        let bad = "horizon = \"10ms\"\nplacement = \"warp-drive\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        assert!(from_toml(bad, "x").is_err());
    }

    #[test]
    fn group_cost_overrides_are_rejected_with_guidance() {
        let text = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\ncost.polling_period = \"2ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("cannot vary per group"), "{e}");
    }

    #[test]
    fn group_params_without_pin_are_rejected_not_ignored() {
        let text = "horizon = \"10ms\"\ndevices = 2\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\nparams.sampling_requests = 96\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("require device"), "{e}");
    }

    #[test]
    fn unknown_override_keys_are_rejected() {
        let text = "horizon = \"10ms\"\nparams.warp_factor = 9\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown sched-param override"), "{e}");
        let text = "horizon = \"10ms\"\ncost.warp = \"1ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown cost override"), "{e}");
    }

    const HETERO: &str = r#"
name = "hetero"
horizon = "50ms"
placement = ["locality-first", "cost-min"]
schedulers = ["direct"]
rebalance = "count-diff"
topology.interconnect = "pcie-gen3"
topology.cross_numa_gbps = 4.0
topology.same_switch_latency = "5us"

[[device]]
numa = 0
switch = 0

[[device]]
channels = 48
contexts = 24
numa = 1
switch = 1

[[group]]
name = "tenants"
count = 4
workload = "throttle"
request = "300us"
working_set = "128MB"
"#;

    #[test]
    fn hetero_topology_scenario_round_trips() {
        let spec = from_toml(HETERO, "x").unwrap();
        assert_eq!(spec.devices, 2, "[[device]] blocks define the count");
        assert_eq!(spec.device_slots.len(), 2);
        assert_eq!(spec.device_slots[0].config.total_contexts, 48);
        assert_eq!(spec.device_slots[1].config.total_contexts, 24);
        assert_eq!(spec.device_slots[1].numa, 1);
        assert_eq!(
            spec.placements,
            vec![PlacementKind::LocalityFirst, PlacementKind::CostMin]
        );
        let inter = spec.interconnect.as_ref().unwrap();
        assert_eq!(inter.same_switch_latency, SimDuration::from_micros(5));
        // 4 GB/s ≈ 4295 bytes/µs.
        assert!((inter.cross_numa_bpus - 4294.967296).abs() < 1e-6);
        assert_eq!(spec.groups[0].working_set, Some(128 << 20));
        let topo = spec.host_topology(spec.devices);
        assert_eq!(topo.len(), 2);
        assert_eq!(
            topo.tier(0, 1),
            neon_gpu::LinkTier::CrossNuma,
            "devices sit on different NUMA nodes"
        );
    }

    #[test]
    fn device_count_mismatch_and_bad_keys_are_rejected() {
        let text = "horizon = \"10ms\"\ndevices = 3\n[[device]]\nnuma = 0\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("[[device]] block"), "{e}");

        let text = "horizon = \"10ms\"\n[[device]]\nwarp = 9\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown key"), "{e}");

        let text = "horizon = \"10ms\"\ntopology.warp = 9\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown topology key"), "{e}");

        let text = "horizon = \"10ms\"\ntopology.interconnect = \"carrier-pigeon\"\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(text, "x").unwrap_err();
        assert!(e.0.contains("unknown interconnect"), "{e}");
    }

    #[test]
    fn sizes_parse_all_units() {
        assert_eq!(parse_size("4096B").unwrap(), 4096);
        assert_eq!(parse_size("512KB").unwrap(), 512 << 10);
        assert_eq!(parse_size("64MB").unwrap(), 64 << 20);
        assert_eq!(parse_size("2GB").unwrap(), 2 << 30);
        assert_eq!(parse_size("1.5MB").unwrap(), 3 << 19);
        assert!(parse_size("64").is_err(), "unit required");
        assert!(parse_size("64parsecs").is_err());
    }

    #[test]
    fn telemetry_keys_parse_and_reject_bad_labels() {
        let with = |extra: &str| {
            format!(
                "horizon = \"10ms\"\n{extra}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        let spec = from_toml(&with(""), "x").unwrap();
        assert_eq!(spec.metrics, MetricsMode::Exact, "exact is the default");
        assert_eq!(spec.sample_every, None, "sampler is off by default");

        let spec = from_toml(&with("metrics = \"streaming\""), "x").unwrap();
        assert_eq!(spec.metrics, MetricsMode::Streaming);

        let spec = from_toml(&with("sample_every = \"500us\""), "x").unwrap();
        assert_eq!(spec.sample_every, Some(SimDuration::from_micros(500)));

        let e = from_toml(&with("metrics = \"approximate\""), "x").unwrap_err();
        assert!(e.0.contains("unknown metrics mode"), "{e}");
        let e = from_toml(&with("sample_every = \"0ms\""), "x").unwrap_err();
        assert!(e.0.contains("sample_every"), "{e}");
    }

    #[test]
    fn explicit_arrival_times_parse() {
        let text = "horizon = \"50ms\"\n[[group]]\ncount = 2\nworkload = \"throttle\"\nrequest = \"1ms\"\narrival = \"at\"\ntimes = [\"1ms\", \"2ms\"]\n";
        let spec = from_toml(text, "x").unwrap();
        assert!(matches!(
            &spec.groups[0].arrival,
            ArrivalSpec::At { times } if times.len() == 2
        ));
    }

    #[test]
    fn out_of_range_u32_values_are_rejected_naming_the_key() {
        // `device = 2^32` used to truncate silently to device 0 via
        // `as u32`; now every u32 site goes through the checked
        // helper and the error names the offending key.
        let with_group = |workload: &str, kv: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\n\
                 [[group]]\nworkload = \"{workload}\"\nrequest = \"1ms\"\n{kv}\n"
            )
        };
        let cases = [
            ("throttle", "device"),
            ("throttle", "count"),
            ("infinite-loop", "warmup_rounds"),
            ("idle-burst", "burst_requests"),
        ];
        for (workload, key) in cases {
            let text = if workload == "idle-burst" {
                with_group(workload, &format!("idle = \"1ms\"\n{key} = 4294967296"))
            } else {
                with_group(workload, &format!("{key} = 4294967296"))
            };
            let e = from_toml(&text, "x").unwrap_err();
            assert!(e.0.contains(key), "error must name {key}: {e}");
            assert!(e.0.contains("32-bit"), "{e}");
            assert!(e.0.contains("4294967296"), "{e}");
        }
        let e = from_toml(
            "horizon = \"10ms\"\n[[device]]\nnuma = 4294967296\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("numa"), "{e}");
        // In-range values still parse.
        let spec = from_toml(&with_group("throttle", "device = 1"), "x").unwrap();
        assert_eq!(spec.groups[0].device, Some(1));
    }

    const FLEET: &str = r#"
name = "unit-fleet"
horizon = "50ms"
seeds = [7]
schedulers = ["direct"]
hosts = 3
fleet_placement = ["least-loaded", "round-robin"]
fleet_rebalance = "count-diff"
cluster.network = "25g"

[[group]]
name = "spread"
count = 6
workload = "throttle"
request = "200us"
"#;

    #[test]
    fn fleet_keys_round_trip() {
        let spec = from_toml(FLEET, "x").unwrap();
        assert_eq!(spec.hosts, 3);
        assert!(
            spec.host_devices.is_empty(),
            "uniform hosts carry no layout"
        );
        assert_eq!(
            spec.fleet_placements,
            vec![
                FleetPlacementKind::LeastLoaded,
                FleetPlacementKind::RoundRobin
            ]
        );
        assert_eq!(spec.fleet_rebalance, FleetRebalanceKind::CountDiff);
        let cluster = spec.cluster.clone().unwrap();
        assert!(!cluster.is_free(), "25g network must charge transfers");
        assert_eq!(spec.host_device_counts(), vec![1, 1, 1]);
        // fleet_placement is a sweep axis: 1 scheduler × 2 fleet
        // placements × 1 seed.
        assert_eq!(spec.cell_count(), 2);
    }

    #[test]
    fn host_blocks_size_a_heterogeneous_fleet() {
        let text = "horizon = \"10ms\"\n\
                    [[host]]\ndevices = 2\n[[host]]\ndevices = 1\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "x").unwrap();
        assert_eq!(spec.hosts, 2);
        assert_eq!(spec.host_device_counts(), vec![2, 1]);

        let e = from_toml(
            "horizon = \"10ms\"\n[[host]]\ndevices = 2\nbogus = 1\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("bogus"), "{e}");
    }

    #[test]
    fn cluster_latency_and_gbps_keys_parse() {
        let text = "horizon = \"10ms\"\nhosts = 2\n\
                    cluster.latency = \"50us\"\ncluster.gbps = 100.0\n\
                    [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let spec = from_toml(text, "x").unwrap();
        let cluster = spec.cluster.unwrap();
        assert!(!cluster.is_free());
        assert_eq!(cluster.latency, SimDuration::from_micros(50));

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\ncluster.gbps = -1.0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("cluster.gbps"), "{e}");
    }

    #[test]
    fn unknown_root_keys_get_did_you_mean_hints() {
        let e = from_toml(
            "horzon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown top-level key"), "{e}");
        assert!(e.0.contains("did you mean \"horizon\"?"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\ntopolgy.interconnect = \"free\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key family"), "{e}");
        assert!(e.0.contains("did you mean \"topology\"?"), "{e}");
    }

    #[test]
    fn misplaced_workload_arm_keys_name_the_owning_arm() {
        // The PR 8 note: these used to parse and silently do nothing.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nwarmup_rounds = 10\n",
            "x",
        )
        .unwrap_err();
        assert!(
            e.0.contains("only used by workload = \"infinite-loop\""),
            "{e}"
        );
        assert!(
            e.0.contains("does nothing under workload = \"throttle\""),
            "{e}"
        );

        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"fixed-loop\"\n\
             service = \"1ms\"\nburst_requests = 8\n",
            "x",
        )
        .unwrap_err();
        assert!(
            e.0.contains("only used by workload = \"idle-burst\""),
            "{e}"
        );

        // Keys are still accepted in their own arm.
        let ok = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"infinite-loop\"\n\
             request = \"1ms\"\nwarmup_rounds = 10\n",
            "x",
        );
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn misplaced_arrival_arm_keys_name_the_owning_arm() {
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nrate_hz = 50.0\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("only used by arrival = \"poisson\""), "{e}");
    }

    #[test]
    fn keys_in_the_wrong_table_get_pointed_errors() {
        // A group key above the first [[group]] header.
        let e = from_toml(
            "horizon = \"10ms\"\nrequest = \"1ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("group key"), "{e}");
        assert!(e.0.contains("[[group]]"), "{e}");

        // A top-level key inside a group.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\nschedulers = \"all\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("top-level key"), "{e}");

        // A plain typo inside a group.
        let e = from_toml(
            "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequst = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("unknown key"), "{e}");
        assert!(e.0.contains("did you mean \"request\"?"), "{e}");
    }

    #[test]
    fn legacy_rebalance_boolean_is_rejected() {
        let with_rebalance = |v: &str| {
            format!(
                "horizon = \"10ms\"\ndevices = 2\nrebalance = {v}\n\
                 [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n"
            )
        };
        for value in ["true", "false"] {
            let e = from_toml(&with_rebalance(value), "x").unwrap_err();
            assert!(e.0.contains("rebalance must be"), "{e}");
            for label in ["\"off\"", "\"count-diff\"", "\"cost-aware\""] {
                assert!(e.0.contains(label), "{e} lacks {label}");
            }
        }
    }

    #[test]
    fn device_and_host_counts_past_the_cell_bound_are_refused() {
        // Counts that size per-device state are bounded where they
        // enter: past the bound a run aborts allocating, not erring.
        let group = "[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        for (keys, named) in [
            ("devices = 4294967296\n", "devices = 4294967296"),
            ("hosts = 4294967296\n", "hosts = 4294967296"),
            (
                "hosts = 2\n[[host]]\ndevices = 4294967296\n[[host]]\n",
                "[[host]] devices",
            ),
            ("hosts = 64\ndevices = 128\n", "hosts × devices = 8192"),
        ] {
            let text = format!("horizon = \"10ms\"\n{keys}{group}");
            let e = from_toml(&text, "x").unwrap_err();
            assert!(e.0.contains(named), "{keys}: {e}");
        }
        let text = format!("horizon = \"10ms\"\nhosts = 2\ndevices = 2048\n{group}");
        assert!(from_toml(&text, "x").is_ok(), "exactly at the bound");
    }

    #[test]
    fn fleet_validation_rejects_ambiguous_layouts() {
        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\n[[device]]\nnuma = 0\n[[device]]\nnuma = 0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("[[device]]"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 2\ndevices = 2\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\ndevice = 0\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("pins a device"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 3\n[[host]]\ndevices = 1\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("[[host]]"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nhosts = 0\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("hosts"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nfleet_placement = \"most-loaded\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("fleet placement"), "{e}");

        let e = from_toml(
            "horizon = \"10ms\"\nfleet_rebalance = \"sometimes\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n",
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("off, count-diff"), "{e}");
    }

    const FAULTY: &str = r#"
name = "faulty"
horizon = "50ms"
devices = 2
schedulers = ["disengaged-fq"]
fault.watchdog = "5ms"
fault.retry_budget = 3
fault.backoff_base = "200us"
fault.backoff_cap = "4ms"

[[group]]
workload = "throttle"
request = "200us"
count = 3

[[fault]]
at = "10ms"
kind = "device-remove"
device = 1

[[fault]]
at = "20ms"
kind = "device-add"
device = 1

[[fault]]
at = "5ms"
kind = "hang"
"#;

    #[test]
    fn fault_blocks_and_config_round_trip() {
        let spec = from_toml(FAULTY, "x").unwrap();
        assert_eq!(spec.faults.len(), 3);
        assert!(matches!(
            spec.faults[0].kind,
            FaultKind::DeviceRemove { device } if device == DeviceId::new(1)
        ));
        assert!(matches!(
            spec.faults[2].kind,
            FaultKind::TaskHang { task: None }
        ));
        assert_eq!(
            spec.fault_config.watchdog,
            Some(SimDuration::from_millis(5))
        );
        assert_eq!(spec.fault_config.retry_budget, 3);
        assert_eq!(
            spec.fault_config.backoff_base,
            SimDuration::from_micros(200)
        );
        // No explicit axis: a faulted scenario defaults to one "all"
        // cell per (scheduler, seed).
        assert_eq!(spec.effective_fault_modes(), vec![FaultMode::All]);
        assert_eq!(spec.cell_count(), 1);
    }

    #[test]
    fn faults_axis_parses_labels_and_expands_cells() {
        let text = format!("faults = [\"none\", \"device\"]\n{}", FAULTY.trim_start());
        let spec = from_toml(&text, "x").unwrap();
        assert_eq!(spec.fault_modes, vec![FaultMode::None, FaultMode::Device]);
        assert_eq!(spec.cell_count(), 2);
        let e = from_toml(
            &format!("faults = \"devcie\"\n{}", FAULTY.trim_start()),
            "x",
        )
        .unwrap_err();
        assert!(e.0.contains("did you mean \"device\""), "{e}");
    }

    #[test]
    fn fault_blocks_reject_bad_kinds_operands_and_targets() {
        let bad_kind = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"explode\"\n";
        let e = from_toml(bad_kind, "x").unwrap_err();
        assert!(e.0.contains("unknown fault kind"), "{e}");

        let missing_device = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"device-remove\"\n";
        let e = from_toml(missing_device, "x").unwrap_err();
        assert!(e.0.contains("requires device"), "{e}");

        let wrong_operand = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"hang\"\ndevice = 0\n";
        let e = from_toml(wrong_operand, "x").unwrap_err();
        assert!(e.0.contains("does not take \"device\""), "{e}");

        // Out-of-range device target: caught by spec validation.
        let oob = "horizon = \"10ms\"\ndevices = 2\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"device-remove\"\ndevice = 5\n";
        let e = from_toml(oob, "x").unwrap_err();
        assert!(e.0.contains("targets device 5"), "{e}");

        // Host faults need a multi-host scenario.
        let single_host = "horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\n\
             request = \"1ms\"\n[[fault]]\nat = \"1ms\"\nkind = \"host-fail\"\nhost = 0\n";
        let e = from_toml(single_host, "x").unwrap_err();
        assert!(e.0.contains("hosts > 1"), "{e}");
    }

    #[test]
    fn fault_config_rejects_zero_durations_and_stray_keys() {
        let zero_watchdog = "fault.watchdog = \"0ms\"\nhorizon = \"10ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(zero_watchdog, "x").unwrap_err();
        assert!(e.0.contains("fault.watchdog must be positive"), "{e}");

        let cap_below_base = "fault.backoff_base = \"4ms\"\nfault.backoff_cap = \"1ms\"\n\
             horizon = \"10ms\"\n[[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(cap_below_base, "x").unwrap_err();
        assert!(
            e.0.contains("fault.backoff_cap must be >= fault.backoff_base"),
            "{e}"
        );

        let stray = "fault.watchdgo = \"1ms\"\nhorizon = \"10ms\"\n\
             [[group]]\nworkload = \"throttle\"\nrequest = \"1ms\"\n";
        let e = from_toml(stray, "x").unwrap_err();
        assert!(e.0.contains("did you mean"), "{e}");
    }

    /// Mutated example scenarios must load or fail with an error, never
    /// panic or abort: values swapped for boundary tokens, lines
    /// deleted, duplicated and swapped (table headers included), and
    /// single bytes edited.
    #[test]
    fn loader_never_panics_on_mutated_examples() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const TOKENS: [&str; 14] = [
            "4294967296",
            "18446744073709551615",
            "-1",
            "0",
            "1e300",
            "\"1e300s\"",
            "\"0ms\"",
            "[]",
            "\"\"",
            "\"pinned:4294967296\"",
            "\"all\"",
            "[4294967296]",
            "\"exp(0ms)\"",
            "true",
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
        let mut examples: Vec<String> = std::fs::read_dir(dir)
            .expect("examples directory exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .map(|p| std::fs::read_to_string(p).expect("readable example"))
            .collect();
        examples.sort();
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut pick = |n: usize| rng.random_range(0..n as u64) as usize;
        let mut failures = Vec::new();
        for case in 0..5000 {
            let text = &examples[pick(examples.len())];
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            for _ in 0..1 + pick(3) {
                let i = pick(lines.len());
                match pick(5) {
                    0 | 1 => {
                        let keyed: Vec<usize> = (0..lines.len())
                            .filter(|&k| lines[k].contains('=') && !lines[k].starts_with('#'))
                            .collect();
                        if let Some(&k) = keyed.get(pick(keyed.len().max(1))) {
                            let key = lines[k].split('=').next().unwrap_or_default();
                            lines[k] = format!("{key}= {}", TOKENS[pick(TOKENS.len())]);
                        }
                    }
                    2 => {
                        lines.remove(i);
                    }
                    3 => {
                        let copy = lines[pick(lines.len())].clone();
                        lines.insert(i, copy);
                    }
                    _ => {
                        let j = pick(lines.len());
                        lines.swap(i, j);
                    }
                }
                if lines.is_empty() {
                    lines.push(String::new());
                }
            }
            let mut bytes = lines.join("\n").into_bytes();
            if pick(2) == 0 && !bytes.is_empty() {
                let at = pick(bytes.len());
                if bytes[at].is_ascii() {
                    bytes[at] = b' ' + pick(95) as u8;
                }
            }
            let text = String::from_utf8(bytes).expect("edits keep ASCII bytes ASCII");
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(spec) = from_toml(&text, "fuzz") {
                    let _ = spec.validate();
                }
            });
            if outcome.is_err() {
                failures.push(format!("case {case}:\n{text}"));
            }
        }
        assert!(
            failures.is_empty(),
            "{} panics; first:\n{}",
            failures.len(),
            failures[0]
        );
    }

    /// The README's "Scenario keys" table is the registry's key
    /// reference; regenerate it from `key_reference()` when a key
    /// changes.
    #[test]
    fn readme_key_reference_matches_the_registry() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("\n## Scenario keys\n")
            .expect("README has a Scenario keys section");
        let section = &readme[start + 1..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        let table: String = section
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        let expected = key_reference();
        assert!(
            table == expected,
            "README \"Scenario keys\" table differs from the key registry; replace it with:\n\n{expected}"
        );
    }

    /// Each setter row's declared type is the type its slot parses.
    #[test]
    fn setter_rows_declare_their_slot_type() {
        fn parsed(slot: Slot<'_>) -> &'static str {
            match slot {
                Slot::Dur(_) | Slot::OptDur(_) => "duration",
                Slot::U64(_) | Slot::U32(_) | Slot::Usize(_) => "integer",
                Slot::Gbps(_) => "number",
                Slot::Flag(_) => "boolean",
                Slot::Interconnect(_) => "one of free, pcie-gen3",
                Slot::Network(_) => "one of free, 25g",
            }
        }
        for k in KEYS {
            let ty = match k.owner {
                Owner::Params(f) => parsed(f(&mut SchedParams::default())),
                Owner::Cost(f) => parsed(f(&mut CostModel::default())),
                Owner::Topology(f) => parsed(f(&mut InterconnectParams::free())),
                Owner::Cluster(f) => parsed(f(&mut ClusterInterconnect::free())),
                Owner::FaultTuning(f) => parsed(f(&mut FaultConfig::default())),
                Owner::Device(f) => parsed(f(&mut DeviceSlotSpec::near(GpuConfig::default()))),
                Owner::Host(f) => parsed(f(&mut 1)),
                _ => continue,
            };
            assert_eq!(k.ty.to_string(), ty, "{}", k.path);
        }
    }

    /// Every registered key is accepted in a table of its kind, under
    /// its arm: no row is dead, and no reader reads an unregistered key
    /// (the accessors' debug assertion).
    #[test]
    fn every_registered_key_loads() {
        for k in KEYS {
            let value = match k.ty {
                Ty::Str | Ty::Label(_) | Ty::Axis(_) => "\"x\"",
                Ty::Int | Ty::Ints => "1",
                Ty::Float => "0.5",
                Ty::Bool => "true",
                Ty::Duration => "\"1ms\"",
                Ty::Durations => "[\"1ms\"]",
                Ty::Size => "\"1MB\"",
            };
            // An arm selector takes one of its arms.
            let selector = arms(k.path).first().map(|label| format!("{label:?}"));
            let value = selector.as_deref().unwrap_or(value);
            // Later entries replace earlier ones with the same key.
            let mut group = vec![("workload", "\"batcher\"")];
            let mut fault = vec![("at", "\"1ms\""), ("kind", "\"hang\"")];
            let arm = k
                .owner
                .arm()
                .map(|(selector, label)| (selector, format!("{label:?}")));
            let (mut root, mut extra) = (vec![("horizon", "\"10ms\""), ("devices", "2")], None);
            match (arm.as_ref(), k.owner.in_table(TableKind::Root)) {
                (_, true) => root.push((k.path, value)),
                (Some(("kind", label)), _) => {
                    fault.extend([("kind", label.as_str()), (k.path, value)])
                }
                (Some((selector, label)), _) => {
                    group.extend([(*selector, label.as_str()), (k.path, value)])
                }
                (None, _) if k.owner.in_table(TableKind::Group) => group.push((k.path, value)),
                (None, _) => extra = Some(k),
            }
            let table = |header: &str, entries: &[(&str, &str)]| {
                let mut out = String::from(header);
                for (i, (key, v)) in entries.iter().enumerate() {
                    if !entries[i + 1..].iter().any(|(later, _)| later == key) {
                        out.push_str(&format!("{key} = {v}\n"));
                    }
                }
                out
            };
            let mut text = table("", &root) + &table("[[group]]\n", &group);
            if arm
                .as_ref()
                .is_some_and(|(selector, _)| *selector == "kind")
            {
                text += &table("[[fault]]\n", &fault);
            }
            if let Some(k) = extra {
                let kind = TableKind::ARRAYS.into_iter().find(|&t| k.owner.in_table(t));
                let kind = kind.expect("every owner has a table");
                text += &table(&format!("[[{}]]\n", kind.name()), &[(k.path, value)]);
            }
            // Values are placeholders: a type, range or validation error
            // is fine; a key-check error is not.
            if let Err(e) = from_toml(&text, "x") {
                for bad in [
                    "unknown key",
                    "unknown top-level",
                    "only used by",
                    "is a group key",
                ] {
                    assert!(!e.0.contains(bad), "{}:\n{text}\n{e}", k.path);
                }
                assert!(
                    !e.0.contains("is a top-level key") && !e.0.contains("duplicate"),
                    "{e}"
                );
            }
        }
    }
}
