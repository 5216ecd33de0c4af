//! Minimal TOML loader for scenario files.
//!
//! The build environment has no crates.io access, so scenarios are
//! parsed by a small built-in reader covering the subset the files
//! use (documented in the crate docs and the `examples/scenarios/`
//! files):
//!
//! - `key = value` pairs with string, integer, float, boolean and
//!   flat-array values; dotted keys (`params.timeslice = "20ms"`) are
//!   stored flat under their dotted name;
//! - `[[group]]` array-of-tables headers (each opens one tenant
//!   group; subsequent keys belong to it) and `[[device]]` headers
//!   (each opens one heterogeneous device slot: `channels`,
//!   `contexts`, `ring`, `context_switch`, `graphics_cooldown`, plus
//!   the `numa`/`switch` interconnect coordinate);
//! - `#` comments and blank lines.
//!
//! Durations are written as strings with a unit suffix: `"134ns"`,
//! `"430us"`, `"30ms"`, `"2s"`. Scheduler axes accept `"all"`,
//! `"paper"`, or an array of policy labels (`"disengaged-fq"`, …);
//! placement axes accept `"all"` or labels (`"least-loaded"`,
//! `"round-robin"`, `"fewest-tenants"`, `"pinned:<device>"`).
//! The `rebalance` key is an axis too: `"all"`, a label (`"off"`,
//! `"count-diff"`, `"cost-aware"` — `"cost"` for short), or an array
//! of labels. A boolean is rejected: `"count-diff"` replaces the old
//! `true` byte for byte, and `"off"` replaces `false`.
//!
//! Telemetry: `metrics = "exact"` (default) or `"streaming"` selects
//! the metrics pipeline, and `sample_every = "<duration>"` switches
//! on the periodic device-timeline sampler (off when the key is
//! absent, keeping default runs byte-identical).
//!
//! # Topology
//!
//! `topology.interconnect = "pcie-gen3"` (or `"free"`, the default)
//! selects the interconnect timing; individual
//! `topology.<tier>_gbps`/`topology.<tier>_latency` keys override a
//! tier's bandwidth (GB/s) or setup latency. Groups may set
//! `working_set = "64MB"` (sizes take B/KB/MB/GB suffixes, powers of
//! 1024) — the state charged against the interconnect when the group's
//! members are placed or migrated.
//!
//! # Fleet
//!
//! `hosts = N` runs each cell as a fleet of `N` identical hosts (each
//! with `devices` devices); `[[host]]` blocks (`devices = M`) size
//! heterogeneous hosts instead. `fleet_placement` is a sweep axis
//! (`"all"` or labels `"least-loaded"`, `"round-robin"`,
//! `"fewest-tenants"`); `fleet_rebalance` is a single label (`"off"`,
//! `"count-diff"`); `cluster.network = "25g"` (or `cluster.latency` /
//! `cluster.gbps` overrides) prices cross-host migration — free when
//! absent.
//!
//! # Overrides
//!
//! `params.<field>` keys override [`SchedParams`] — at top level for
//! every device, inside a `[[group]]` for the device the group is
//! pinned to (`device = <index>` required; validation rejects unpinned
//! group overrides instead of silently ignoring them). `cost.<field>`
//! keys override the [`CostModel`] at top level only: the cost model
//! describes the simulated host, so a per-group form does not exist
//! and is rejected with an error naming the offending key.

use std::collections::BTreeMap;

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

type Table = BTreeMap<String, Value>;

/// `(root, group_tables, device_tables, host_tables, fault_tables)` as
/// parsed from a scenario document, in source order.
type Document = (Table, Vec<Table>, Vec<Table>, Vec<Table>, Vec<Table>);

fn parse_err(line_no: usize, msg: impl Into<String>) -> SpecError {
    SpecError(format!("line {}: {}", line_no, msg.into()))
}

/// Parses the supported TOML subset into a root table plus the
/// ordered `[[group]]`, `[[device]]` and `[[host]]` tables.
fn parse_document(text: &str) -> Result<Document, SpecError> {
    /// Which table subsequent `key = value` lines belong to.
    enum Section {
        Root,
        Group,
        Device,
        Host,
        Fault,
    }
    let mut root = Table::new();
    let mut groups: Vec<Table> = Vec::new();
    let mut devices: Vec<Table> = Vec::new();
    let mut hosts: Vec<Table> = Vec::new();
    let mut faults: Vec<Table> = Vec::new();
    let mut section = Section::Root;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            match header.trim() {
                "group" => {
                    groups.push(Table::new());
                    section = Section::Group;
                }
                "device" => {
                    devices.push(Table::new());
                    section = Section::Device;
                }
                "host" => {
                    hosts.push(Table::new());
                    section = Section::Host;
                }
                "fault" => {
                    faults.push(Table::new());
                    section = Section::Fault;
                }
                other => {
                    return Err(parse_err(
                        line_no,
                        format!(
                            "unsupported table array [[{other}]]; only [[group]], \
                             [[device]], [[host]] and [[fault]]"
                        ),
                    ));
                }
            }
            continue;
        }
        if line.starts_with('[') {
            return Err(parse_err(
                line_no,
                "plain [table] headers are not supported; use top-level keys, \
                 [[group]], [[device]] or [[host]]",
            ));
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
        let table = match section {
            Section::Root => &mut root,
            // lint: allow(unchecked-unwrap) — Section::Group is only entered
            // after pushing the matching group record
            Section::Group => groups.last_mut().expect("group section implies a group"),
            // lint: allow(unchecked-unwrap) — Section::Device is only entered
            // after pushing the matching device record
            Section::Device => devices.last_mut().expect("device section implies a device"),
            // lint: allow(unchecked-unwrap) — Section::Host is only entered
            // after pushing the matching host record
            Section::Host => hosts.last_mut().expect("host section implies a host"),
            // lint: allow(unchecked-unwrap) — Section::Fault is only entered
            // after pushing the matching fault record
            Section::Fault => faults.last_mut().expect("fault section implies a fault"),
        };
        if table.insert(key.clone(), value).is_some() {
            return Err(parse_err(line_no, format!("duplicate key {key:?}")));
        }
    }
    Ok((root, groups, devices, hosts, faults))
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
// Typed accessors
// ----------------------------------------------------------------------

fn get_str<'t>(t: &'t Table, key: &str) -> Result<Option<&'t str>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(SpecError(format!("{key} must be a string, got {other:?}"))),
    }
}

fn get_duration(t: &Table, key: &str) -> Result<Option<SimDuration>, SpecError> {
    get_str(t, key)?.map(parse_duration).transpose()
}

fn require_duration(t: &Table, key: &str, what: &str) -> Result<SimDuration, SpecError> {
    get_duration(t, key)?
        .ok_or_else(|| SpecError(format!("{what} requires {key} = \"<duration>\"")))
}

fn get_u64(t: &Table, key: &str) -> Result<Option<u64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Int(v)) if *v >= 0 => Ok(Some(*v as u64)),
        Some(other) => Err(SpecError(format!(
            "{key} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Like [`get_u64`] but range-checked to `u32`: a value like
/// `device = 4294967296` must be rejected, not silently truncated to 0
/// by an `as u32` cast (which would, e.g., pin a group to the wrong
/// GPU).
fn get_u32(t: &Table, key: &str) -> Result<Option<u32>, SpecError> {
    match get_u64(t, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v).map(Some).map_err(|_| {
            SpecError(format!(
                "{key} must fit in a 32-bit unsigned integer (0..={}), got {v}",
                u32::MAX
            ))
        }),
    }
}

fn get_f64(t: &Table, key: &str) -> Result<Option<f64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Float(v)) => Ok(Some(*v)),
        Some(Value::Int(v)) => Ok(Some(*v as f64)),
        Some(other) => Err(SpecError(format!("{key} must be a number, got {other:?}"))),
    }
}

fn get_bool(t: &Table, key: &str) -> Result<Option<bool>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Bool(v)) => Ok(Some(*v)),
        Some(other) => Err(SpecError(format!(
            "{key} must be true or false, got {other:?}"
        ))),
    }
}

// ----------------------------------------------------------------------
// Spec assembly
// ----------------------------------------------------------------------

fn schedulers_from(root: &Table) -> Result<Vec<SchedulerKind>, SpecError> {
    match root.get("schedulers") {
        None => Ok(SchedulerKind::ALL.to_vec()),
        Some(Value::Str(s)) => match s.as_str() {
            "all" => Ok(SchedulerKind::ALL.to_vec()),
            "paper" => Ok(SchedulerKind::PAPER.to_vec()),
            other => SchedulerKind::from_label(other)
                .map(|k| vec![k])
                .ok_or_else(|| SpecError(format!("unknown scheduler {other:?}"))),
        },
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => SchedulerKind::from_label(s)
                    .ok_or_else(|| SpecError(format!("unknown scheduler {s:?}"))),
                other => Err(SpecError(format!(
                    "scheduler labels must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(SpecError(format!(
            "schedulers must be \"all\", \"paper\", a label, or an array; got {other:?}"
        ))),
    }
}

fn placements_from(root: &Table) -> Result<Vec<PlacementKind>, SpecError> {
    let parse_label = |s: &str| {
        PlacementKind::from_label(s)
            .ok_or_else(|| SpecError(format!("unknown placement policy {s:?}")))
    };
    match root.get("placement") {
        None => Ok(vec![PlacementKind::LeastLoaded]),
        Some(Value::Str(s)) => match s.as_str() {
            "all" => Ok(PlacementKind::ALL.to_vec()),
            other => parse_label(other).map(|k| vec![k]),
        },
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => parse_label(s),
                other => Err(SpecError(format!(
                    "placement labels must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(SpecError(format!(
            "placement must be \"all\", a label, or an array; got {other:?}"
        ))),
    }
}

/// Applies `params.<field>` keys from `table` to `base`. Returns the
/// result and whether any key was present.
fn sched_params_from(table: &Table, base: &SchedParams) -> Result<(SchedParams, bool), SpecError> {
    let mut params = base.clone();
    let mut touched = false;
    if let Some(v) = get_duration(table, "params.timeslice")? {
        params.timeslice = v;
        touched = true;
    }
    if let Some(v) = get_duration(table, "params.sampling_max")? {
        params.sampling_max = v;
        touched = true;
    }
    if let Some(v) = get_u64(table, "params.sampling_requests")? {
        params.sampling_requests = v;
        touched = true;
    }
    if let Some(v) = get_u32(table, "params.freerun_multiplier")? {
        params.freerun_multiplier = v;
        touched = true;
    }
    if let Some(v) = get_duration(table, "params.freerun_min")? {
        params.freerun_min = v;
        touched = true;
    }
    if let Some(v) = get_duration(table, "params.freerun_max")? {
        params.freerun_max = v;
        touched = true;
    }
    if let Some(v) = get_duration(table, "params.overlong_limit")? {
        params.overlong_limit = v;
        touched = true;
    }
    if let Some(v) = get_bool(table, "params.hardware_preemption")? {
        params.hardware_preemption = v;
        touched = true;
    }
    if let Some(stray) = table
        .keys()
        .find(|k| k.starts_with("params.") && !KNOWN_PARAM_KEYS.contains(&k.as_str()))
    {
        return Err(SpecError(format!(
            "unknown sched-param override {stray:?} (supported: {})",
            KNOWN_PARAM_KEYS.join(", ")
        )));
    }
    Ok((params, touched))
}

const KNOWN_PARAM_KEYS: [&str; 8] = [
    "params.timeslice",
    "params.sampling_max",
    "params.sampling_requests",
    "params.freerun_multiplier",
    "params.freerun_min",
    "params.freerun_max",
    "params.overlong_limit",
    "params.hardware_preemption",
];

const KNOWN_COST_KEYS: [&str; 8] = [
    "cost.direct_submit",
    "cost.fault_intercept",
    "cost.syscall_submit",
    "cost.driver_processing",
    "cost.completion_detect",
    "cost.polling_period",
    "cost.poll_scan",
    "cost.kill_cleanup",
];

/// Applies top-level `cost.<field>` keys. Returns the model and
/// whether any key was present.
fn cost_from(root: &Table) -> Result<(CostModel, bool), SpecError> {
    let mut cost = CostModel::default();
    let mut touched = false;
    let mut set = |slot: &mut SimDuration, key: &str| -> Result<(), SpecError> {
        if let Some(v) = get_duration(root, key)? {
            *slot = v;
            touched = true;
        }
        Ok(())
    };
    set(&mut cost.direct_submit, "cost.direct_submit")?;
    set(&mut cost.fault_intercept, "cost.fault_intercept")?;
    set(&mut cost.syscall_submit, "cost.syscall_submit")?;
    set(&mut cost.driver_processing, "cost.driver_processing")?;
    set(&mut cost.completion_detect, "cost.completion_detect")?;
    set(&mut cost.polling_period, "cost.polling_period")?;
    set(&mut cost.poll_scan, "cost.poll_scan")?;
    set(&mut cost.kill_cleanup, "cost.kill_cleanup")?;
    if let Some(stray) = root
        .keys()
        .find(|k| k.starts_with("cost.") && !KNOWN_COST_KEYS.contains(&k.as_str()))
    {
        return Err(SpecError(format!(
            "unknown cost override {stray:?} (supported: {})",
            KNOWN_COST_KEYS.join(", ")
        )));
    }
    Ok((cost, touched))
}

const KNOWN_DEVICE_KEYS: [&str; 7] = [
    "channels",
    "contexts",
    "ring",
    "context_switch",
    "graphics_cooldown",
    "numa",
    "switch",
];

/// Builds one heterogeneous device slot from a `[[device]]` table.
fn device_slot_from(d: &Table, index: usize) -> Result<DeviceSlotSpec, SpecError> {
    if let Some(stray) = d.keys().find(|k| !KNOWN_DEVICE_KEYS.contains(&k.as_str())) {
        return Err(SpecError(format!(
            "device {index}: unknown key {stray:?} (supported: {})",
            KNOWN_DEVICE_KEYS.join(", ")
        )));
    }
    let mut config = GpuConfig::default();
    if let Some(v) = get_u64(d, "channels")? {
        config.total_channels = v as usize;
    }
    if let Some(v) = get_u64(d, "contexts")? {
        config.total_contexts = v as usize;
    }
    if let Some(v) = get_u64(d, "ring")? {
        config.ring_capacity = v as usize;
    }
    if let Some(v) = get_duration(d, "context_switch")? {
        config.context_switch = v;
    }
    if let Some(v) = get_duration(d, "graphics_cooldown")? {
        config.graphics_cooldown = v;
    }
    Ok(DeviceSlotSpec {
        config,
        numa: get_u32(d, "numa")?.unwrap_or(0),
        switch_id: get_u32(d, "switch")?.unwrap_or(0),
    })
}

// One GB/s = 2^30 bytes per 10^6 µs ≈ 1074 bytes/µs.
const BPUS_PER_GBPS: f64 = (1u64 << 30) as f64 / 1e6;

const KNOWN_TOPOLOGY_KEYS: [&str; 7] = [
    "topology.interconnect",
    "topology.same_switch_gbps",
    "topology.cross_pcie_gbps",
    "topology.cross_numa_gbps",
    "topology.same_switch_latency",
    "topology.cross_pcie_latency",
    "topology.cross_numa_latency",
];

/// Applies top-level `topology.*` keys. Returns the interconnect and
/// whether any key was present.
fn interconnect_from(root: &Table) -> Result<(InterconnectParams, bool), SpecError> {
    let mut touched = false;
    let mut params = match get_str(root, "topology.interconnect")? {
        None => InterconnectParams::free(),
        Some("free") => {
            touched = true;
            InterconnectParams::free()
        }
        Some("pcie-gen3") => {
            touched = true;
            InterconnectParams::pcie_gen3()
        }
        Some(other) => {
            return Err(SpecError(format!(
                "unknown interconnect {other:?} (supported: free, pcie-gen3)"
            )))
        }
    };
    let mut set_bw = |slot: &mut f64, key: &str| -> Result<(), SpecError> {
        if let Some(v) = get_f64(root, key)? {
            if v <= 0.0 {
                return Err(SpecError(format!("{key} must be positive, got {v}")));
            }
            *slot = v * BPUS_PER_GBPS;
            touched = true;
        }
        Ok(())
    };
    set_bw(&mut params.same_switch_bpus, "topology.same_switch_gbps")?;
    set_bw(&mut params.cross_pcie_bpus, "topology.cross_pcie_gbps")?;
    set_bw(&mut params.cross_numa_bpus, "topology.cross_numa_gbps")?;
    let mut set_lat = |slot: &mut SimDuration, key: &str| -> Result<(), SpecError> {
        if let Some(v) = get_duration(root, key)? {
            *slot = v;
            touched = true;
        }
        Ok(())
    };
    set_lat(
        &mut params.same_switch_latency,
        "topology.same_switch_latency",
    )?;
    set_lat(
        &mut params.cross_pcie_latency,
        "topology.cross_pcie_latency",
    )?;
    set_lat(
        &mut params.cross_numa_latency,
        "topology.cross_numa_latency",
    )?;
    if let Some(stray) = root
        .keys()
        .find(|k| k.starts_with("topology.") && !KNOWN_TOPOLOGY_KEYS.contains(&k.as_str()))
    {
        return Err(SpecError(format!(
            "unknown topology key {stray:?} (supported: {})",
            KNOWN_TOPOLOGY_KEYS.join(", ")
        )));
    }
    Ok((params, touched))
}

const KNOWN_FAULT_KEYS: [&str; 5] = ["at", "kind", "device", "task", "host"];

/// Fault kinds a `[[fault]]` block accepts, with the operand key each
/// one reads.
const FAULT_KIND_LABELS: [&str; 7] = [
    "device-remove",
    "device-add",
    "hang",
    "crash",
    "submit-error",
    "host-fail",
    "host-recover",
];

/// Builds one scheduled fault from a `[[fault]]` table:
/// `at = "<duration>"` plus `kind = "<label>"` and the kind's operand
/// (`device = N` for device kinds, `host = N` for host kinds, optional
/// `task = N` for task kinds — absent means "the oldest live task at
/// injection time").
fn fault_from(f: &Table, index: usize) -> Result<(SimDuration, FaultKind), SpecError> {
    let ctx = |msg: String| SpecError(format!("fault[{index}]: {msg}"));
    if let Some(stray) = f.keys().find(|k| !KNOWN_FAULT_KEYS.contains(&k.as_str())) {
        let hint = did_you_mean(stray, KNOWN_FAULT_KEYS.iter().copied());
        return Err(ctx(format!(
            "unknown key {stray:?} (supported: {}){hint}",
            KNOWN_FAULT_KEYS.join(", ")
        )));
    }
    let at = require_duration(f, "at", "a [[fault]] block").map_err(|e| ctx(e.0))?;
    let kind_label = get_str(f, "kind")?.ok_or_else(|| {
        ctx(format!(
            "requires kind = \"<{}>\"",
            FAULT_KIND_LABELS.join("|")
        ))
    })?;
    let device = || -> Result<DeviceId, SpecError> {
        get_u32(f, "device")?
            .map(DeviceId::new)
            .ok_or_else(|| ctx(format!("kind = {kind_label:?} requires device = <index>")))
    };
    let host = || -> Result<u32, SpecError> {
        get_u32(f, "host")?
            .ok_or_else(|| ctx(format!("kind = {kind_label:?} requires host = <index>")))
    };
    let task = get_u32(f, "task")?.map(TaskId::new);
    let reject_operand = |key: &str| -> Result<(), SpecError> {
        if f.contains_key(key) {
            return Err(ctx(format!(
                "kind = {kind_label:?} does not take {key:?}; remove it"
            )));
        }
        Ok(())
    };
    let kind = match kind_label {
        "device-remove" => {
            reject_operand("task")?;
            reject_operand("host")?;
            FaultKind::DeviceRemove { device: device()? }
        }
        "device-add" => {
            reject_operand("task")?;
            reject_operand("host")?;
            FaultKind::DeviceAdd { device: device()? }
        }
        "hang" => {
            reject_operand("device")?;
            reject_operand("host")?;
            FaultKind::TaskHang { task }
        }
        "crash" => {
            reject_operand("device")?;
            reject_operand("host")?;
            FaultKind::TaskCrash { task }
        }
        "submit-error" => {
            reject_operand("device")?;
            reject_operand("host")?;
            FaultKind::SubmitError { task }
        }
        "host-fail" => {
            reject_operand("device")?;
            reject_operand("task")?;
            FaultKind::HostFail { host: host()? }
        }
        "host-recover" => {
            reject_operand("device")?;
            reject_operand("task")?;
            FaultKind::HostRecover { host: host()? }
        }
        other => {
            let hint = did_you_mean(other, FAULT_KIND_LABELS.iter().copied());
            return Err(ctx(format!(
                "unknown fault kind {other:?} (supported: {}){hint}",
                FAULT_KIND_LABELS.join(", ")
            )));
        }
    };
    Ok((at, kind))
}

const KNOWN_FAULT_CONFIG_KEYS: [&str; 5] = [
    "fault.watchdog",
    "fault.retry_budget",
    "fault.backoff_base",
    "fault.backoff_cap",
    "fault.max_park_retries",
];

/// Applies top-level `fault.*` recovery-tuning keys. Returns the
/// config and whether any key was present. Positivity of the durations
/// is enforced by [`neon_core::fault::FaultPlan::validate`] during
/// spec validation, with the same key names in the message.
fn fault_config_from(root: &Table) -> Result<(FaultConfig, bool), SpecError> {
    let mut config = FaultConfig::default();
    let mut touched = false;
    if let Some(v) = get_duration(root, "fault.watchdog")? {
        config.watchdog = Some(v);
        touched = true;
    }
    if let Some(v) = get_u32(root, "fault.retry_budget")? {
        config.retry_budget = v;
        touched = true;
    }
    if let Some(v) = get_duration(root, "fault.backoff_base")? {
        config.backoff_base = v;
        touched = true;
    }
    if let Some(v) = get_duration(root, "fault.backoff_cap")? {
        config.backoff_cap = v;
        touched = true;
    }
    if let Some(v) = get_u32(root, "fault.max_park_retries")? {
        config.max_park_retries = v;
        touched = true;
    }
    if let Some(stray) = root
        .keys()
        .find(|k| k.starts_with("fault.") && !KNOWN_FAULT_CONFIG_KEYS.contains(&k.as_str()))
    {
        let hint = did_you_mean(stray, KNOWN_FAULT_CONFIG_KEYS.iter().copied());
        return Err(SpecError(format!(
            "unknown fault key {stray:?} (supported: {}){hint}",
            KNOWN_FAULT_CONFIG_KEYS.join(", ")
        )));
    }
    Ok((config, touched))
}

/// Parses the `faults` sweep axis: `"all"`, a mode label (`"none"`,
/// `"device"`, `"task"`, `"host"`), or an array of labels. Absent
/// means "derive from the schedule" — scenarios with `[[fault]]`
/// blocks or `fault.*` tuning run `"all"`, everything else `"none"`.
fn fault_modes_from(root: &Table) -> Result<Vec<FaultMode>, SpecError> {
    let parse_label = |s: &str| {
        FaultMode::parse(s).ok_or_else(|| {
            let hint = did_you_mean(s, FaultMode::ALL.iter().map(|m| m.label()));
            SpecError(format!("unknown fault mode {s:?}{hint}"))
        })
    };
    match root.get("faults") {
        None => Ok(Vec::new()),
        Some(Value::Str(s)) => parse_label(s).map(|m| vec![m]),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => parse_label(s),
                other => Err(SpecError(format!(
                    "fault mode labels must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(SpecError(format!(
            "faults must be \"all\", a mode label, or an array; got {other:?}"
        ))),
    }
}

const KNOWN_HOST_KEYS: [&str; 1] = ["devices"];

/// Builds one heterogeneous host's device count from a `[[host]]`
/// table.
fn host_from(h: &Table, index: usize) -> Result<usize, SpecError> {
    if let Some(stray) = h.keys().find(|k| !KNOWN_HOST_KEYS.contains(&k.as_str())) {
        return Err(SpecError(format!(
            "host {index}: unknown key {stray:?} (supported: {})",
            KNOWN_HOST_KEYS.join(", ")
        )));
    }
    Ok(get_u64(h, "devices")?.unwrap_or(1) as usize)
}

fn fleet_placements_from(root: &Table) -> Result<Vec<FleetPlacementKind>, SpecError> {
    let parse_label = |s: &str| {
        FleetPlacementKind::from_label(s)
            .ok_or_else(|| SpecError(format!("unknown fleet placement policy {s:?}")))
    };
    match root.get("fleet_placement") {
        None => Ok(vec![FleetPlacementKind::LeastLoaded]),
        Some(Value::Str(s)) => match s.as_str() {
            "all" => Ok(FleetPlacementKind::ALL.to_vec()),
            other => parse_label(other).map(|k| vec![k]),
        },
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => parse_label(s),
                other => Err(SpecError(format!(
                    "fleet placement labels must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(SpecError(format!(
            "fleet_placement must be \"all\", a label, or an array; got {other:?}"
        ))),
    }
}

const KNOWN_CLUSTER_KEYS: [&str; 3] = ["cluster.network", "cluster.latency", "cluster.gbps"];

/// Applies top-level `cluster.*` keys (host-to-host transfer timing).
/// Returns the interconnect and whether any key was present.
fn cluster_from(root: &Table) -> Result<(ClusterInterconnect, bool), SpecError> {
    let mut touched = false;
    let mut cluster = match get_str(root, "cluster.network")? {
        None => ClusterInterconnect::free(),
        Some("free") => {
            touched = true;
            ClusterInterconnect::free()
        }
        Some("25g") => {
            touched = true;
            ClusterInterconnect::network_25g()
        }
        Some(other) => {
            return Err(SpecError(format!(
                "unknown cluster network {other:?} (supported: free, 25g)"
            )))
        }
    };
    if let Some(v) = get_duration(root, "cluster.latency")? {
        cluster.latency = v;
        touched = true;
    }
    if let Some(v) = get_f64(root, "cluster.gbps")? {
        if v <= 0.0 {
            return Err(SpecError(format!("cluster.gbps must be positive, got {v}")));
        }
        cluster.bpus = v * BPUS_PER_GBPS;
        touched = true;
    }
    if let Some(stray) = root
        .keys()
        .find(|k| k.starts_with("cluster.") && !KNOWN_CLUSTER_KEYS.contains(&k.as_str()))
    {
        return Err(SpecError(format!(
            "unknown cluster key {stray:?} (supported: {})",
            KNOWN_CLUSTER_KEYS.join(", ")
        )));
    }
    Ok((cluster, touched))
}

fn rebalances_from(root: &Table) -> Result<Vec<RebalanceKind>, SpecError> {
    let parse_label = |s: &str| {
        RebalanceKind::from_label(s)
            .ok_or_else(|| SpecError(format!("unknown rebalance policy {s:?}")))
    };
    match root.get("rebalance") {
        None => Ok(vec![RebalanceKind::Off]),
        Some(Value::Str(s)) => match s.as_str() {
            "all" => Ok(RebalanceKind::ALL.to_vec()),
            other => parse_label(other).map(|k| vec![k]),
        },
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => parse_label(s),
                other => Err(SpecError(format!(
                    "rebalance labels must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => {
            let labels: Vec<String> = RebalanceKind::ALL
                .iter()
                .map(|k| format!("{:?}", k.to_string()))
                .collect();
            Err(SpecError(format!(
                "rebalance must be \"all\", one of the labels {}, or an array of \
                 them; got {other:?}",
                labels.join(", ")
            )))
        }
    }
}

fn seeds_from(root: &Table) -> Result<Vec<u64>, SpecError> {
    match root.get("seeds") {
        None => Ok(vec![0xA5D0]),
        Some(Value::Int(v)) if *v >= 0 => Ok(vec![*v as u64]),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Int(i) if *i >= 0 => Ok(*i as u64),
                other => Err(SpecError(format!("seeds must be integers, got {other:?}"))),
            })
            .collect(),
        Some(other) => Err(SpecError(format!(
            "seeds must be an integer array, got {other:?}"
        ))),
    }
}

// ----------------------------------------------------------------------
// Key strictness
// ----------------------------------------------------------------------
//
// Every table is checked against the full key vocabulary, so a typo or
// a key in the wrong place is an error with a pointed hint instead of a
// silent no-op. (`warmup_rounds` on a throttle group used to parse and
// do nothing — exactly the failure mode this closes.)

/// Top-level scalar keys.
const KNOWN_ROOT_KEYS: [&str; 13] = [
    "name",
    "horizon",
    "seeds",
    "schedulers",
    "devices",
    "hosts",
    "placement",
    "fleet_placement",
    "fleet_rebalance",
    "rebalance",
    "faults",
    "metrics",
    "sample_every",
];

/// Dotted-key families the root table accepts; each family's member
/// keys are validated by its own loader (`sched_params_from` etc.).
const KNOWN_ROOT_FAMILIES: [&str; 5] = ["params", "cost", "topology", "cluster", "fault"];

/// Group keys that are valid for every workload/arrival combination.
const KNOWN_GROUP_KEYS: [&str; 7] = [
    "name",
    "count",
    "workload",
    "arrival",
    "lifetime",
    "device",
    "working_set",
];

/// `(workload kind, keys only that arm reads)`.
const WORKLOAD_ARM_KEYS: [(&str, &[&str]); 6] = [
    ("throttle", &["request", "off_ratio", "jitter"]),
    ("fixed-loop", &["service", "gap", "rounds"]),
    ("app", &["app"]),
    ("batcher", &["batch"]),
    ("idle-burst", &["idle", "burst_requests", "request"]),
    ("infinite-loop", &["warmup_rounds", "request"]),
];

/// `(arrival kind, keys only that arm reads)`.
const ARRIVAL_ARM_KEYS: [(&str, &[&str]); 4] = [
    ("at-start", &[]),
    ("stagger", &["stagger"]),
    ("at", &["times"]),
    ("poisson", &["rate_hz", "arrival_start"]),
];

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
fn did_you_mean<'a>(key: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|c| (edit_distance(key, c), c))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, c)| format!("; did you mean {c:?}?"))
        .unwrap_or_default()
}

/// Workload arms (other than `active`) that read `key`, as labels.
fn arms_reading(key: &str, active: &str) -> Vec<&'static str> {
    WORKLOAD_ARM_KEYS
        .iter()
        .filter(|(arm, keys)| *arm != active && keys.contains(&key))
        .map(|(arm, _)| *arm)
        .collect()
}

/// Rejects unknown top-level keys. Dotted families are validated
/// member-by-member in their own loaders; this pass catches unknown
/// families, bare-key typos, and group keys that drifted above the
/// first `[[group]]` header.
fn validate_root_keys(root: &Table) -> Result<(), SpecError> {
    for key in root.keys() {
        if let Some((family, _)) = key.split_once('.') {
            if !KNOWN_ROOT_FAMILIES.contains(&family) {
                let hint = did_you_mean(family, KNOWN_ROOT_FAMILIES.iter().copied());
                return Err(SpecError(format!(
                    "unknown key family {family:?} in {key:?} (supported: {}){hint}",
                    KNOWN_ROOT_FAMILIES.join(", ")
                )));
            }
            continue;
        }
        if KNOWN_ROOT_KEYS.contains(&key.as_str()) {
            continue;
        }
        let group_key = KNOWN_GROUP_KEYS.contains(&key.as_str())
            || WORKLOAD_ARM_KEYS
                .iter()
                .any(|(_, ks)| ks.contains(&key.as_str()))
            || ARRIVAL_ARM_KEYS
                .iter()
                .any(|(_, ks)| ks.contains(&key.as_str()));
        if group_key {
            return Err(SpecError(format!(
                "{key:?} is a group key; move it below a [[group]] header"
            )));
        }
        let hint = did_you_mean(key, KNOWN_ROOT_KEYS.iter().copied());
        return Err(SpecError(format!(
            "unknown top-level key {key:?} (supported: {}){hint}",
            KNOWN_ROOT_KEYS.join(", ")
        )));
    }
    Ok(())
}

/// Rejects unknown and misplaced keys in one `[[group]]` table, given
/// the group's resolved workload and arrival kinds. A key that belongs
/// to a *different* arm gets an error naming the arm that reads it —
/// the silent no-op this check exists to close.
fn validate_group_keys(
    g: &Table,
    group_name: &str,
    workload: &str,
    arrival: &str,
) -> Result<(), SpecError> {
    let workload_keys = WORKLOAD_ARM_KEYS
        .iter()
        .find(|(arm, _)| *arm == workload)
        .map(|(_, ks)| *ks)
        .unwrap_or(&[]);
    let arrival_keys = ARRIVAL_ARM_KEYS
        .iter()
        .find(|(arm, _)| *arm == arrival)
        .map(|(_, ks)| *ks)
        .unwrap_or(&[]);
    for key in g.keys() {
        let key = key.as_str();
        // params.* (and the cost.* rejection) are handled by the
        // override loaders, which already know their member keys.
        if key.contains('.') {
            continue;
        }
        if KNOWN_GROUP_KEYS.contains(&key)
            || workload_keys.contains(&key)
            || arrival_keys.contains(&key)
        {
            continue;
        }
        let other_workloads = arms_reading(key, workload);
        if !other_workloads.is_empty() {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is only used by workload = \"{}\" \
                 and does nothing under workload = \"{workload}\"; remove it or \
                 change the workload",
                other_workloads.join("\" / \"")
            )));
        }
        if let Some((arm, _)) = ARRIVAL_ARM_KEYS
            .iter()
            .find(|(arm, ks)| *arm != arrival && ks.contains(&key))
        {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is only used by arrival = \"{arm}\" \
                 and does nothing under arrival = \"{arrival}\"; remove it or \
                 change the arrival"
            )));
        }
        if KNOWN_ROOT_KEYS.contains(&key) {
            return Err(SpecError(format!(
                "group {group_name:?}: {key:?} is a top-level key; move it above \
                 the first [[group]] header"
            )));
        }
        let hint = did_you_mean(
            key,
            KNOWN_GROUP_KEYS
                .iter()
                .copied()
                .chain(workload_keys.iter().copied())
                .chain(arrival_keys.iter().copied()),
        );
        return Err(SpecError(format!(
            "group {group_name:?}: unknown key {key:?} (supported here: {}){hint}",
            KNOWN_GROUP_KEYS
                .iter()
                .copied()
                .chain(workload_keys.iter().copied())
                .chain(arrival_keys.iter().copied())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    Ok(())
}

fn workload_from(g: &Table) -> Result<WorkloadSpec, SpecError> {
    let kind = get_str(g, "workload")?.unwrap_or("throttle");
    match kind {
        "throttle" => Ok(WorkloadSpec::Throttle {
            request: require_duration(g, "request", "throttle")?,
            off_ratio: get_f64(g, "off_ratio")?.unwrap_or(0.0),
            jitter: get_f64(g, "jitter")?.unwrap_or(0.0),
        }),
        "fixed-loop" => Ok(WorkloadSpec::FixedLoop {
            service: require_duration(g, "service", "fixed-loop")?,
            gap: get_duration(g, "gap")?.unwrap_or(SimDuration::ZERO),
            rounds: get_u64(g, "rounds")?,
        }),
        "app" => Ok(WorkloadSpec::App {
            name: get_str(g, "app")?
                .ok_or_else(|| SpecError("app workload requires app = \"<Name>\"".into()))?
                .to_string(),
        }),
        "batcher" => Ok(WorkloadSpec::Batcher {
            batch: require_duration(g, "batch", "batcher")?,
        }),
        "idle-burst" => Ok(WorkloadSpec::IdleBurst {
            idle: require_duration(g, "idle", "idle-burst")?,
            burst_requests: get_u32(g, "burst_requests")?.unwrap_or(32),
            request: require_duration(g, "request", "idle-burst")?,
        }),
        "infinite-loop" => Ok(WorkloadSpec::InfiniteLoop {
            warmup_rounds: get_u32(g, "warmup_rounds")?.unwrap_or(50),
            request: require_duration(g, "request", "infinite-loop")?,
        }),
        other => Err(SpecError(format!("unknown workload kind {other:?}"))),
    }
}

fn arrival_from(g: &Table) -> Result<ArrivalSpec, SpecError> {
    let kind = get_str(g, "arrival")?.unwrap_or("at-start");
    match kind {
        "at-start" => Ok(ArrivalSpec::AtStart),
        "stagger" => Ok(ArrivalSpec::Staggered {
            gap: require_duration(g, "stagger", "stagger arrival")?,
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
            rate_hz: get_f64(g, "rate_hz")?
                .ok_or_else(|| SpecError("poisson arrival requires rate_hz".into()))?,
            start: get_duration(g, "arrival_start")?.unwrap_or(SimDuration::ZERO),
        }),
        other => Err(SpecError(format!("unknown arrival kind {other:?}"))),
    }
}

fn lifetime_from(g: &Table) -> Result<LifetimeSpec, SpecError> {
    let Some(s) = get_str(g, "lifetime")? else {
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

/// Parses scenario TOML text. `fallback_name` (usually the file stem)
/// names the scenario when the file has no `name` key.
pub fn from_toml(text: &str, fallback_name: &str) -> Result<ScenarioSpec, SpecError> {
    let (root, group_tables, device_tables, host_tables, fault_tables) = parse_document(text)?;
    validate_root_keys(&root)?;
    let name = get_str(&root, "name")?.unwrap_or(fallback_name).to_string();
    let horizon = require_duration(&root, "horizon", "scenario")?;
    // [[device]] blocks define the device count when the devices key
    // is absent; when both appear, validation checks they agree. The
    // hosts key and [[host]] blocks follow the same rule one level up.
    let devices = get_u64(&root, "devices")?
        .map(|d| d as usize)
        .unwrap_or_else(|| device_tables.len().max(1));
    let hosts = get_u64(&root, "hosts")?
        .map(|h| h as usize)
        .unwrap_or_else(|| host_tables.len().max(1));
    let mut spec = ScenarioSpec::new(name, horizon)
        .seeds(seeds_from(&root)?)
        .schedulers(schedulers_from(&root)?)
        .devices(devices)
        .hosts(hosts)
        .placements(placements_from(&root)?)
        .fleet_placements(fleet_placements_from(&root)?)
        .rebalances(rebalances_from(&root)?);
    for (i, h) in host_tables.iter().enumerate() {
        spec.host_devices.push(host_from(h, i)?);
    }
    for (i, f) in fault_tables.iter().enumerate() {
        let (at, kind) = fault_from(f, i)?;
        spec.faults.push(FaultEvent {
            at: neon_sim::SimTime::ZERO + at,
            kind,
        });
    }
    let (fault_config, fault_touched) = fault_config_from(&root)?;
    if fault_touched {
        spec.fault_config = fault_config;
    }
    spec.fault_modes = fault_modes_from(&root)?;
    if let Some(label) = get_str(&root, "fleet_rebalance")? {
        spec.fleet_rebalance = FleetRebalanceKind::from_label(label).ok_or_else(|| {
            SpecError(format!(
                "unknown fleet rebalance policy {label:?} (supported: off, count-diff)"
            ))
        })?;
    }
    let (cluster, cluster_touched) = cluster_from(&root)?;
    if cluster_touched {
        spec.cluster = Some(cluster);
    }
    if let Some(label) = get_str(&root, "metrics")? {
        let mode = MetricsMode::from_label(label).ok_or_else(|| {
            SpecError(format!(
                "unknown metrics mode {label:?} (supported: exact, streaming)"
            ))
        })?;
        spec = spec.metrics(mode);
    }
    if let Some(every) = get_duration(&root, "sample_every")? {
        spec = spec.sample_every(every);
    }
    for (i, d) in device_tables.iter().enumerate() {
        spec.device_slots.push(device_slot_from(d, i)?);
    }
    let (interconnect, interconnect_touched) = interconnect_from(&root)?;
    if interconnect_touched {
        spec.interconnect = Some(interconnect);
    }
    let (params, params_touched) = sched_params_from(&root, &SchedParams::default())?;
    if params_touched {
        spec.params = Some(params);
    }
    let (cost, cost_touched) = cost_from(&root)?;
    if cost_touched {
        spec.cost = Some(cost);
    }
    let scenario_params = spec.params.clone().unwrap_or_default();
    for (i, g) in group_tables.iter().enumerate() {
        let name = get_str(g, "name")?
            .map(str::to_string)
            .unwrap_or_else(|| format!("group{i}"));
        if let Some(stray) = g.keys().find(|k| k.starts_with("cost.")) {
            return Err(SpecError(format!(
                "group {name:?} sets {stray:?}: the cost model describes the \
                 simulated host and cannot vary per group; move it to the top level"
            )));
        }
        validate_group_keys(
            g,
            &name,
            get_str(g, "workload")?.unwrap_or("throttle"),
            get_str(g, "arrival")?.unwrap_or("at-start"),
        )?;
        let (params, params_touched) = sched_params_from(g, &scenario_params)?;
        let group = TenantGroup {
            name,
            count: get_u32(g, "count")?.unwrap_or(1),
            workload: workload_from(g)?,
            arrival: arrival_from(g)?,
            lifetime: lifetime_from(g)?,
            device: get_u32(g, "device")?,
            params: params_touched.then_some(params),
            working_set: get_str(g, "working_set")?.map(parse_size).transpose()?,
        };
        spec.groups.push(group);
    }
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
}
