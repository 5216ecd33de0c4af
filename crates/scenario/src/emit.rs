//! Result emission: JSON, CSV and the summary table, with no external
//! dependencies.
//!
//! The JSON writer emits a stable, self-describing document:
//!
//! ```json
//! {
//!   "sweep": { "cells": 14, "threads": 8, "wall_ms": 123.4 },
//!   "results": [ { "scenario": "churn", "scheduler": "direct", ... } ]
//! }
//! ```
//!
//! CSV carries the same per-cell summary fields, one row per cell.
//! Every column of the three outputs is one row of a column registry
//! (`SUMMARY`, `DEVICE`, `HOST` and the timeline registries):
//! its name, where it sits in the JSON and the CSV, its CSV precision,
//! its accessor, and its table header if it has one.

use std::borrow::Cow;
use std::fmt::Write as _;

use neon_core::fault::FaultMode;
use neon_core::telemetry::{DeviceSample, SimStats, TimelineSample};
use neon_metrics::CounterKey as _;
use neon_sim::SimDuration;

use crate::driver::{CellResult, DeviceSummary, HostSummary};
use crate::sweep::SweepOutcome;

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float compactly and JSON-safely (no NaN/Inf literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// The structured-counter block as a JSON object, keys in
/// [`neon_core::telemetry::StatKey`] order.
fn stats_json(stats: &SimStats) -> String {
    let fields: Vec<String> = stats
        .iter()
        .map(|(key, value)| format!("\"{}\": {value}", key.label()))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One column's value in one record.
enum Cell<'a> {
    Text(Cow<'a, str>),
    Int(u64),
    /// A real number and its CSV decimals.
    Real(f64, usize),
    /// A duration: JSON and CSV (three decimals) write microseconds,
    /// the table prints it with its unit.
    Micros(SimDuration),
    /// An integer that may be unknown: JSON `null`, an empty CSV field.
    Maybe(Option<u64>),
    /// Rendered JSON: a nested block, absent from CSV and the table.
    Json(String),
}

use Cell::{Int, Json, Maybe, Micros, Real, Text};

impl Cell<'_> {
    fn json(&self, o: &mut String) {
        let _ = match self {
            Text(t) => write!(o, "\"{}\"", json_escape(t)),
            Int(v) | Maybe(Some(v)) => write!(o, "{v}"),
            Real(v, _) => write!(o, "{}", json_f64(*v)),
            Micros(d) => write!(o, "{}", json_f64(d.as_micros_f64())),
            Maybe(None) => write!(o, "null"),
            Json(s) => write!(o, "{s}"),
        };
    }

    fn csv(&self, o: &mut String) {
        let _ = match self {
            Text(t) if t.contains([',', '"']) => write!(o, "\"{}\"", t.replace('"', "\"\"")),
            Text(t) => write!(o, "{t}"),
            Int(v) | Maybe(Some(v)) => write!(o, "{v}"),
            Real(v, prec) => write!(o, "{v:.prec$}"),
            Micros(d) => write!(o, "{:.3}", d.as_micros_f64()),
            Maybe(None) | Json(_) => Ok(()),
        };
    }

    fn table(&self, prec: usize) -> String {
        match self {
            Text(t) => t.to_string(),
            Int(v) | Maybe(Some(v)) => v.to_string(),
            Real(v, _) => format!("{v:.prec$}"),
            Micros(d) => d.to_string(),
            Maybe(None) | Json(_) => String::new(),
        }
    }
}

/// Where a column sits in the CSV.
#[derive(Clone, Copy)]
enum Csv {
    No,
    /// Under its own name, in registry order.
    Yes,
    /// Under its own name, at this position.
    At(usize),
    /// Under this name (a per-device or per-host group's suffix).
    As(&'static str),
}

/// Which sweeps show a table column.
#[derive(Clone, Copy)]
enum When {
    Always,
    /// Some cell has more than one device.
    Multi,
    /// Some cell has more than one host.
    Fleet,
    /// Some cell injects faults.
    Faulted,
}

/// A table column: header, position, when it shows, and precision.
#[derive(Clone, Copy)]
struct Tab(&'static str, usize, When, usize);

/// One output column of records of type `T`. Its JSON position is its
/// registry order.
struct Col<T> {
    /// The JSON key, and the CSV header unless [`Csv::As`] names one.
    name: &'static str,
    /// A cell coordinate: timelines and traces carry these too.
    key: bool,
    csv: Csv,
    get: Get<T>,
    table: Option<Tab>,
}

type Get<T> = for<'a> fn(&'a T) -> Cell<'a>;

const fn col<T>(name: &'static str, csv: Csv, get: Get<T>, table: Option<Tab>) -> Col<T> {
    Col {
        name,
        key: false,
        csv,
        get,
        table,
    }
}

/// A column that is also a cell coordinate.
const fn key<T>(name: &'static str, csv: Csv, get: Get<T>, table: Option<Tab>) -> Col<T> {
    let mut c = col(name, csv, get, table);
    c.key = true;
    c
}

const fn tab(head: &'static str, at: usize, when: When, prec: usize) -> Option<Tab> {
    Some(Tab(head, at, when, prec))
}

/// The per-cell summary columns, in JSON order.
#[rustfmt::skip]
const SUMMARY: &[Col<CellResult>] = {
    use Csv::{At, No};
    use When::{Always, Faulted, Fleet, Multi};
    &[
        key("scenario", At(0), |r| Text(r.summary.scenario.as_str().into()), tab("scenario", 0, Always, 0)),
        key("scheduler", At(1), |r| Text(r.summary.scheduler.label().into()), tab("scheduler", 1, Always, 0)),
        key("placement", At(15), |r| Text(r.summary.placement.to_string().into()), tab("placement", 3, Multi, 0)),
        col("fleet_placement", At(24), |r| Text(r.summary.fleet_placement.to_string().into()), tab("fleet", 2, Fleet, 0)),
        key("rebalance", At(16), |r| Text(r.summary.rebalance.to_string().into()), tab("rebal", 4, Multi, 0)),
        key("seed", At(2), |r| Int(r.summary.seed), tab("seed", 5, Always, 0)),
        col("horizon_ms", At(3), |r| Real(r.summary.horizon.as_secs_f64() * 1e3, 3), None),
        col("devices", No, |r| Int(r.summary.devices as u64), None),
        col("hosts", At(23), |r| Int(r.summary.hosts as u64), None),
        col("admitted", At(4), |r| Int(r.summary.admitted as u64), tab("tasks", 6, Always, 0)),
        col("rejected", At(5), |r| Int(r.summary.rejected), tab("rej", 7, Always, 0)),
        col("departed", At(6), |r| Int(r.summary.departed as u64), None),
        col("killed", At(7), |r| Int(r.summary.killed as u64), None),
        col("total_rounds", At(8), |r| Int(r.summary.total_rounds), tab("rounds", 8, Always, 0)),
        col("completed_requests", At(9), |r| Int(r.summary.completed_requests), None),
        col("faults", At(10), |r| Int(r.summary.faults), tab("faults", 10, Always, 0)),
        col("direct_submits", At(11), |r| Int(r.summary.direct_submits), None),
        col("utilization", At(12), |r| Real(r.summary.utilization, 6), tab("util", 11, Always, 2)),
        col("fairness", At(13), |r| Real(r.summary.fairness, 6), tab("fairness", 12, Always, 3)),
        col("round_p50_us", At(17), |r| Micros(r.summary.round_p50), None),
        col("round_p95_us", At(18), |r| Micros(r.summary.round_p95), tab("p95", 9, Always, 0)),
        col("round_p99_us", At(19), |r| Micros(r.summary.round_p99), None),
        col("migrations", At(20), |r| Int(r.summary.migrations), None),
        col("transfer_stall_us", At(21), |r| Micros(r.summary.transfer_stall), None),
        col("fleet_rejected", At(25), |r| Int(r.summary.fleet_rejected), None),
        col("cross_host_migrations", At(26), |r| Int(r.summary.cross_host_migrations), None),
        col("cluster_transfer_stall_us", At(27), |r| Micros(r.summary.cluster_transfer_stall), None),
        col("faults_mode", At(28), |r| Text(r.summary.faults_mode.label().into()), tab("fmode", 16, Faulted, 0)),
        col("injected_faults", At(29), |r| Int(r.summary.injected_faults), tab("injected", 17, Faulted, 0)),
        col("watchdog_kills", At(30), |r| Int(r.summary.watchdog_kills), None),
        col("fault_retries", At(31), |r| Int(r.summary.fault_retries), None),
        col("recovered_tasks", At(32), |r| Int(r.summary.recovered_tasks), tab("recov", 18, Faulted, 0)),
        col("lost_tasks", At(33), |r| Int(r.summary.lost_tasks), tab("lost", 19, Faulted, 0)),
        col("hot_removes", At(34), |r| Int(r.summary.hot_removes), None),
        col("degraded_us", At(35), |r| Micros(r.summary.degraded), None),
        col("per_device", No, |r| Json(json_array(DEVICE, &r.summary.per_device)), None),
        col("per_host", No, |r| Json(json_array(HOST, &r.summary.per_host)), None),
        col("stats", No, |r| Json(stats_json(&r.stats())), None),
        col("elapsed_ms", At(14), |r| Real(r.summary.elapsed.as_secs_f64() * 1e3, 3), tab("ms", 13, Always, 1)),
        col("peak_rss_bytes", At(22), |r| Maybe(r.summary.peak_rss_bytes), None),
    ]
};

/// One device of a cell: a `per_device` entry, a `dev<i>_*` CSV group.
#[rustfmt::skip]
const DEVICE: &[Col<DeviceSummary>] = {
    use Csv::{As, No};
    &[
        col("device", No, |d| Int(u64::from(d.device.raw())), None),
        col("utilization", As("util"), |d| Real(d.utilization, 6), tab("per-dev util", 14, When::Multi, 2)),
        col("rejected", As("rej"), |d| Int(d.rejected), None),
        col("tenants", No, |d| Int(d.tenants as u64), None),
        col("migrations_in", As("migr"), |d| Int(d.migrations_in), None),
        col("migrations_out", As("migr_out"), |d| Int(d.migrations_out), None),
        col("transfer_stall_us", As("stall_us"), |d| Micros(d.transfer_stall), None),
    ]
};

/// One host of a fleet cell: a `per_host` entry, a `host<i>_*` CSV group.
#[rustfmt::skip]
const HOST: &[Col<HostSummary>] = {
    use Csv::{As, No};
    &[
        col("host", No, |h| Int(h.host as u64), None),
        col("devices", No, |h| Int(h.devices as u64), None),
        col("utilization", As("util"), |h| Real(h.utilization, 6), tab("per-host util", 15, When::Fleet, 2)),
        col("admitted", As("admitted"), |h| Int(h.admitted as u64), None),
        col("rejected", As("rej"), |h| Int(h.rejected), None),
        col("rounds", As("rounds"), |h| Int(h.rounds), None),
    ]
};

/// A cell's timeline record, after its coordinates.
#[rustfmt::skip]
const TIMELINE: &[Col<CellResult>] = &[
    col("samples_retained", Csv::No, |r| Int(r.report.timeline.len() as u64), None),
    col("samples_dropped", Csv::No, |r| Int(r.report.timeline.dropped()), None),
    col("capacity", Csv::No, |r| Int(r.report.timeline.capacity() as u64), None),
    col("samples", Csv::No, |r| Json(timeline_samples(r)), None),
];

/// One timeline sample; the CSV repeats it for each of its devices.
#[rustfmt::skip]
const SAMPLE: &[Col<TimelineSample>] = &[
    col("t_ns", Csv::Yes, |s| Int(s.at.as_nanos()), None),
    col("events", Csv::Yes, |s| Int(s.events), None),
    col("live_tasks", Csv::Yes, |s| Int(s.live_tasks as u64), None),
    col("inflight_migrations", Csv::Yes, |s| Int(s.inflight_migrations as u64), None),
    col("devices", Csv::No, |s| Json(json_array(SAMPLE_DEVICE, &s.devices)), None),
];

/// One device of a timeline sample.
#[rustfmt::skip]
const SAMPLE_DEVICE: &[Col<DeviceSample>] = &[
    col("device", Csv::Yes, |d| Int(u64::from(d.device.raw())), None),
    col("utilization", Csv::Yes, |d| Real(d.utilization, 6), None),
    col("queue_depth", Csv::Yes, |d| Int(d.queue_depth as u64), None),
    col("tenants", Csv::Yes, |d| Int(d.tenants as u64), None),
    col("engines_busy", Csv::Yes, |d| Int(d.engines_busy as u64), None),
    col("migrations_in", Csv::Yes, |d| Int(d.migrations_in), None),
    col("migrations_out", Csv::Yes, |d| Int(d.migrations_out), None),
];

/// `"name": value` pairs of `cols` for `item`, comma-separated.
fn json_fields<'c, T: 'c>(o: &mut String, cols: impl IntoIterator<Item = &'c Col<T>>, item: &T) {
    for (i, c) in cols.into_iter().enumerate() {
        let _ = write!(o, "{}\"{}\": ", if i > 0 { ", " } else { "" }, c.name);
        (c.get)(item).json(o);
    }
}

/// `item` as a JSON object of its columns.
fn json_object<T>(cols: &[Col<T>], item: &T) -> String {
    let mut o = String::from("{");
    json_fields(&mut o, cols, item);
    o + "}"
}

fn json_array<T>(cols: &[Col<T>], items: &[T]) -> String {
    let objects: Vec<String> = items.iter().map(|item| json_object(cols, item)).collect();
    format!("[{}]", objects.join(", "))
}

/// The cell's coordinates, as `"name": value` pairs: what a timeline
/// record or a trace's cell record starts with.
pub fn cell_keys_json(r: &CellResult) -> String {
    let mut o = String::new();
    json_fields(&mut o, SUMMARY.iter().filter(|c| c.key), r);
    o
}

/// The CSV columns of `cols`, in CSV order.
fn csv_cols<T>(cols: &[Col<T>]) -> Vec<&Col<T>> {
    let mut out: Vec<(usize, &Col<T>)> = cols
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c.csv {
            Csv::No => None,
            Csv::At(at) => Some((at, c)),
            Csv::Yes | Csv::As(_) => Some((i, c)),
        })
        .collect();
    out.sort_by_key(|(at, _)| *at);
    out.into_iter().map(|(_, c)| c).collect()
}

/// Appends `,`-prefixed CSV headers of `cols` (each under `prefix`).
fn csv_header<T>(o: &mut String, cols: &[&Col<T>], prefix: &str) {
    for c in cols {
        let name = match c.csv {
            Csv::As(name) => name,
            _ => c.name,
        };
        let _ = write!(o, ",{prefix}{name}");
    }
}

/// Appends `,`-prefixed CSV fields of `cols` for `item` (empty fields
/// when the cell has no such item).
fn csv_fields<T>(o: &mut String, cols: &[&Col<T>], item: Option<&T>) {
    for c in cols {
        o.push(',');
        if let Some(item) = item {
            (c.get)(item).csv(o);
        }
    }
}

/// Serializes a sweep outcome as a JSON document.
pub fn to_json(outcome: &SweepOutcome) -> String {
    let mut o = String::new();
    o.push_str("{\n");
    let _ = writeln!(
        o,
        "  \"sweep\": {{\"cells\": {}, \"threads\": {}, \"wall_ms\": {}}},",
        outcome.results.len(),
        outcome.threads,
        json_f64(outcome.wall.as_secs_f64() * 1e3),
    );
    o.push_str("  \"results\": [\n");
    let rows: Vec<String> = outcome
        .results
        .iter()
        .map(|r| format!("    {}", json_object(SUMMARY, r)))
        .collect();
    o.push_str(&rows.join(",\n"));
    o.push_str("\n  ]\n}\n");
    o
}

fn timeline_samples(r: &CellResult) -> String {
    let samples: Vec<String> = r
        .report
        .timeline
        .iter()
        .map(|s| format!("      {}", json_object(SAMPLE, s)))
        .collect();
    format!("[\n{}\n    ]", samples.join(",\n"))
}

/// Serializes the telemetry timelines of a sweep as a JSON document:
/// one record per cell, each with the sampler's bound/drop accounting
/// and its retained [`neon_core::telemetry::TimelineSample`]s. Cells
/// whose sampler was off contribute empty sample lists.
pub fn timeline_json(outcome: &SweepOutcome) -> String {
    let rows: Vec<String> = outcome
        .results
        .iter()
        .map(|r| {
            let mut o = format!("    {{{}, ", cell_keys_json(r));
            json_fields(&mut o, TIMELINE, r);
            o + "}"
        })
        .collect();
    format!("{{\n  \"timelines\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// The timelines of a sweep as flat CSV: one row per (cell, sample,
/// device) triple.
pub fn timeline_csv(outcome: &SweepOutcome) -> String {
    let keys: Vec<&Col<CellResult>> = SUMMARY.iter().filter(|c| c.key).collect();
    let (sample, device) = (csv_cols(SAMPLE), csv_cols(SAMPLE_DEVICE));
    let mut o = String::new();
    csv_header(&mut o, &keys, "");
    csv_header(&mut o, &sample, "");
    csv_header(&mut o, &device, "");
    o.remove(0);
    for r in &outcome.results {
        let mut cell = String::new();
        csv_fields(&mut cell, &keys, Some(r));
        for s in r.report.timeline.iter() {
            let mut row = cell.clone();
            csv_fields(&mut row, &sample, Some(s));
            for d in &s.devices {
                o.push('\n');
                o.push_str(&row[1..]);
                csv_fields(&mut o, &device, Some(d));
            }
        }
    }
    o.push('\n');
    o
}

/// Serializes a sweep outcome as CSV (header + one row per cell): the
/// summary columns, then one `dev<i>_*` group per device and one
/// `host<i>_*` group per host, sized to the widest cell in the sweep
/// (a narrower cell leaves its extra groups empty).
pub fn to_csv(outcome: &SweepOutcome) -> String {
    let widest = |n: fn(&CellResult) -> usize| outcome.results.iter().map(n).max().unwrap_or(0);
    let devices = widest(|r| r.summary.per_device.len());
    let hosts = widest(|r| r.summary.per_host.len());
    let (summary, device, host) = (csv_cols(SUMMARY), csv_cols(DEVICE), csv_cols(HOST));
    let mut o = String::new();
    csv_header(&mut o, &summary, "");
    for d in 0..devices {
        csv_header(&mut o, &device, &format!("dev{d}_"));
    }
    for h in 0..hosts {
        csv_header(&mut o, &host, &format!("host{h}_"));
    }
    o.remove(0);
    o.push('\n');
    for r in &outcome.results {
        let start = o.len();
        csv_fields(&mut o, &summary, Some(r));
        o.remove(start);
        for d in 0..devices {
            csv_fields(&mut o, &device, r.summary.per_device.get(d));
        }
        for h in 0..hosts {
            csv_fields(&mut o, &host, r.summary.per_host.get(h));
        }
        o.push('\n');
    }
    o
}

/// A table column and how it renders one result.
type TableCol = (Tab, Box<dyn Fn(&CellResult) -> String>);

/// Adds the table columns of `cols`: a cell shows the column's value
/// for each of the result's `items`, joined by `/`.
fn table_cols<T>(out: &mut Vec<TableCol>, cols: &'static [Col<T>], items: fn(&CellResult) -> &[T]) {
    for c in cols {
        if let Some(t) = c.table {
            out.push((
                t,
                Box::new(move |r| {
                    let cells: Vec<String> =
                        items(r).iter().map(|i| (c.get)(i).table(t.3)).collect();
                    cells.join("/")
                }),
            ));
        }
    }
}

/// Renders the human-readable summary table printed by the CLI.
pub fn to_table(outcome: &SweepOutcome) -> String {
    let any = |f: fn(&CellResult) -> bool| outcome.results.iter().any(f);
    let shown = |when| match when {
        When::Always => true,
        When::Multi => any(|r| r.summary.devices > 1),
        When::Fleet => any(|r| r.summary.hosts > 1),
        When::Faulted => any(|r| r.summary.faults_mode != FaultMode::None),
    };
    let mut cols = Vec::new();
    table_cols(&mut cols, SUMMARY, std::slice::from_ref);
    table_cols(&mut cols, DEVICE, |r| &r.summary.per_device);
    table_cols(&mut cols, HOST, |r| &r.summary.per_host);
    cols.retain(|(t, _)| shown(t.2));
    cols.sort_by_key(|(t, _)| t.1);
    let mut table = neon_metrics::Table::new(cols.iter().map(|(t, _)| t.0.to_string()).collect());
    for r in &outcome.results {
        table.row(cols.iter().map(|(_, cell)| cell(r)).collect());
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CellResult, CellSummary, DeviceSummary, HostSummary};
    use neon_core::fleet::FleetPlacementKind;
    use neon_core::placement::PlacementKind;
    use neon_core::rebalance::RebalanceKind;
    use neon_core::report::DeviceReport;
    use neon_core::sched::SchedulerKind;
    use neon_core::telemetry::{DeviceSample, SimStats, StatKey, Timeline, TimelineSample};
    use neon_core::RunReport;
    use neon_gpu::DeviceId;
    use neon_sim::{SimDuration, SimTime};
    use std::time::Duration;

    fn outcome() -> SweepOutcome {
        let summary = CellSummary {
            scenario: "say \"hi\", ok".into(),
            scheduler: SchedulerKind::Direct,
            placement: PlacementKind::RoundRobin,
            fleet_placement: FleetPlacementKind::LeastLoaded,
            rebalance: RebalanceKind::CostAware,
            seed: 7,
            horizon: SimDuration::from_millis(100),
            devices: 2,
            hosts: 1,
            admitted: 3,
            rejected: 1,
            departed: 2,
            killed: 0,
            total_rounds: 1234,
            completed_requests: 1300,
            faults: 9,
            direct_submits: 1291,
            utilization: 0.875,
            fairness: 0.99,
            round_p50: SimDuration::from_micros(150),
            round_p95: SimDuration::from_micros(900),
            round_p99: SimDuration::from_micros(1500),
            migrations: 2,
            transfer_stall: SimDuration::from_micros(250),
            fleet_rejected: 0,
            cross_host_migrations: 0,
            cluster_transfer_stall: SimDuration::ZERO,
            faults_mode: neon_core::fault::FaultMode::None,
            injected_faults: 0,
            watchdog_kills: 0,
            fault_retries: 0,
            recovered_tasks: 0,
            lost_tasks: 0,
            hot_removes: 0,
            degraded: SimDuration::ZERO,
            per_device: vec![
                DeviceSummary {
                    device: DeviceId::new(0),
                    utilization: 0.9,
                    rejected: 1,
                    tenants: 2,
                    migrations_in: 0,
                    migrations_out: 2,
                    transfer_stall: SimDuration::ZERO,
                },
                DeviceSummary {
                    device: DeviceId::new(1),
                    utilization: 0.85,
                    rejected: 0,
                    tenants: 1,
                    migrations_in: 2,
                    migrations_out: 0,
                    transfer_stall: SimDuration::from_micros(250),
                },
            ],
            per_host: Vec::new(),
            elapsed: Duration::from_millis(12),
            peak_rss_bytes: Some(64 * 1024 * 1024),
        };
        let mut stats = SimStats::new();
        stats.set(StatKey::Events, 12_345);
        stats.set(StatKey::Faults, 9);
        stats.set(StatKey::Denials, 3);
        let mut timeline = Timeline::with_capacity(8);
        timeline.push(TimelineSample {
            at: SimTime::from_micros(50_000),
            events: 6_000,
            live_tasks: 3,
            inflight_migrations: 1,
            devices: vec![DeviceSample {
                device: DeviceId::new(0),
                utilization: 0.75,
                queue_depth: 4,
                tenants: 2,
                engines_busy: 1,
                migrations_in: 0,
                migrations_out: 1,
            }],
        });
        let report = RunReport {
            scheduler: "direct",
            wall: SimDuration::from_millis(100),
            tasks: vec![],
            devices: vec![
                DeviceReport {
                    device: DeviceId::new(0),
                    compute_busy: SimDuration::from_millis(90),
                    dma_busy: SimDuration::ZERO,
                    tenants: 2,
                    transfer_stall: SimDuration::ZERO,
                    degraded: SimDuration::ZERO,
                    stats: SimStats::new(),
                },
                DeviceReport {
                    device: DeviceId::new(1),
                    compute_busy: SimDuration::from_millis(85),
                    dma_busy: SimDuration::ZERO,
                    tenants: 1,
                    transfer_stall: SimDuration::from_micros(250),
                    degraded: SimDuration::ZERO,
                    stats: SimStats::new(),
                },
            ],
            compute_busy: SimDuration::from_millis(175),
            dma_busy: SimDuration::ZERO,
            transfer_stall: SimDuration::from_micros(250),
            degraded: SimDuration::ZERO,
            events: 12_345,
            stats,
            groups: vec![],
            timeline,
        };
        SweepOutcome {
            results: vec![CellResult {
                summary,
                report,
                fleet: None,
                trace_jsonl: None,
            }],
            wall: Duration::from_millis(15),
            threads: 4,
        }
    }

    #[test]
    fn json_escapes_and_structures() {
        let json = to_json(&outcome());
        assert!(json.contains("\"cells\": 1"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("say \\\"hi\\\", ok"), "{json}");
        assert!(json.contains("\"fairness\": 0.990000"));
        assert!(json.contains("\"placement\": \"round-robin\""));
        assert!(json.contains("\"rebalance\": \"cost-aware\""));
        assert!(json.contains("\"round_p95_us\": 900.000000"));
        assert!(
            json.contains("\"per_device\": [{\"device\": 0, \"utilization\": 0.900000"),
            "{json}"
        );
        assert!(json.contains("\"migrations\": 2"));
        assert!(json.contains("\"transfer_stall_us\": 250.000000"));
        assert!(json.contains("\"migrations_in\": 2"), "{json}");
        assert!(json.contains("\"migrations_out\": 2"), "{json}");
        // Must parse as balanced braces/brackets at minimum.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        let open_brackets = json.matches('[').count();
        let close_brackets = json.matches(']').count();
        assert_eq!(open_brackets, close_brackets);
    }

    #[test]
    fn csv_carries_placement_percentiles_and_device_columns() {
        let csv = to_csv(&outcome());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(
            header.starts_with(
                "scenario,scheduler,seed,horizon_ms,admitted,rejected,departed,killed,\
                 total_rounds,completed_requests,faults,direct_submits,utilization,fairness,\
                 elapsed_ms,"
            ),
            "{header}"
        );
        assert!(
            header.ends_with(
                ",placement,rebalance,round_p50_us,round_p95_us,round_p99_us,migrations,\
                 transfer_stall_us,peak_rss_bytes,hosts,fleet_placement,fleet_rejected,\
                 cross_host_migrations,cluster_transfer_stall_us,faults_mode,\
                 injected_faults,watchdog_kills,fault_retries,recovered_tasks,lost_tasks,\
                 hot_removes,degraded_us,\
                 dev0_util,dev0_rej,dev0_migr,dev0_migr_out,dev0_stall_us,\
                 dev1_util,dev1_rej,dev1_migr,dev1_migr_out,dev1_stall_us"
            ),
            "{header}"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("\"say \"\"hi\"\", ok\""), "{row}");
        assert!(row.contains(",direct,7,"));
        assert!(row.contains(",round-robin,cost-aware,"));
        assert!(
            row.contains(&format!(",{},1,least-loaded,0,0,0.000,", 64 * 1024 * 1024)),
            "{row}"
        );
        assert!(
            row.contains(",0.900000,1,0,2,0.000,0.850000,0,2,0,250.000"),
            "{row}"
        );
        assert_eq!(
            header.split(',').count(),
            row.split(',').count() - 1, // the quoted scenario field contains one comma
            "row width must match the header"
        );
    }

    #[test]
    fn fleet_cells_emit_host_columns_and_json_blocks() {
        let mut out = outcome();
        {
            let s = &mut out.results[0].summary;
            s.hosts = 2;
            s.fleet_placement = FleetPlacementKind::RoundRobin;
            s.fleet_rejected = 3;
            s.cross_host_migrations = 1;
            s.cluster_transfer_stall = SimDuration::from_micros(400);
            s.per_host = vec![
                HostSummary {
                    host: 0,
                    devices: 1,
                    utilization: 0.9,
                    admitted: 2,
                    rejected: 1,
                    rounds: 700,
                },
                HostSummary {
                    host: 1,
                    devices: 1,
                    utilization: 0.85,
                    admitted: 1,
                    rejected: 0,
                    rounds: 534,
                },
            ];
        }
        let json = to_json(&out);
        assert!(json.contains("\"hosts\": 2"), "{json}");
        assert!(
            json.contains("\"fleet_placement\": \"round-robin\""),
            "{json}"
        );
        assert!(json.contains("\"fleet_rejected\": 3"), "{json}");
        assert!(json.contains("\"cross_host_migrations\": 1"), "{json}");
        assert!(
            json.contains("\"cluster_transfer_stall_us\": 400.000000"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"per_host\": [{\"host\": 0, \"devices\": 1, \"utilization\": 0.900000, \
\"admitted\": 2, \"rejected\": 1, \"rounds\": 700}, "
            ),
            "{json}"
        );
        let csv = to_csv(&out);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(
            header.ends_with(
                ",host0_util,host0_admitted,host0_rej,host0_rounds,\
                 host1_util,host1_admitted,host1_rej,host1_rounds"
            ),
            "{header}"
        );
        let row = lines.next().unwrap();
        assert!(row.contains(",2,round-robin,3,1,400.000,"), "{row}");
        assert!(row.ends_with(",0.900000,2,1,700,0.850000,1,0,534"), "{row}");
        assert_eq!(
            header.split(',').count(),
            row.split(',').count() - 1, // the quoted scenario holds one comma
            "fleet row width must match the header"
        );
        let table = to_table(&out);
        assert!(table.contains("fleet"), "{table}");
        assert!(table.contains("0.90/0.85"), "{table}");
    }

    #[test]
    fn json_carries_stats_block_and_rss() {
        let json = to_json(&outcome());
        assert!(
            json.contains("\"stats\": {\"events\": 12345, "),
            "stats must lead with the events counter in StatKey order: {json}"
        );
        assert!(json.contains("\"denials\": 3"), "{json}");
        assert!(json.contains("\"rebalance_vetoed\": 0"), "{json}");
        assert!(
            json.contains(&format!("\"peak_rss_bytes\": {}", 64 * 1024 * 1024)),
            "{json}"
        );
    }

    #[test]
    fn json_stats_of_a_multi_host_cell_sum_every_host() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/churn.toml"
        );
        let text = std::fs::read_to_string(path).expect("example scenario exists");
        let mut spec = crate::from_toml(&text, "churn").expect("example scenario parses");
        spec.hosts = 2;
        let out = crate::sweep::run_serial(&crate::sweep::plan([spec]));
        let json = to_json(&out);
        let blocks: Vec<&str> = json
            .split("\"stats\": {")
            .skip(1)
            .map(|b| &b[..b.find('}').expect("stats block closes")])
            .collect();
        assert_eq!(blocks.len(), out.results.len(), "one stats block per cell");
        let stat = |block: &str, key: &str| -> u64 {
            let key = format!("\"{key}\": ");
            let rest = &block[block.find(&key).expect("stats key present") + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("stats values are integers")
        };
        for (r, block) in out.results.iter().zip(blocks) {
            let s = &r.summary;
            assert_eq!(s.hosts, 2);
            assert_eq!(stat(block, "faults"), s.faults, "{}", s.scheduler);
            assert_eq!(
                stat(block, "direct_submits"),
                s.direct_submits,
                "{}",
                s.scheduler
            );
            assert_eq!(
                stat(block, "migrations_in"),
                s.migrations,
                "{}",
                s.scheduler
            );
        }
    }

    #[test]
    fn timeline_json_carries_samples_and_drop_accounting() {
        let json = timeline_json(&outcome());
        assert!(json.contains("\"samples_retained\": 1"), "{json}");
        assert!(json.contains("\"samples_dropped\": 0"), "{json}");
        assert!(json.contains("\"capacity\": 8"), "{json}");
        assert!(json.contains("\"t_ns\": 50000000"), "{json}");
        assert!(json.contains("\"queue_depth\": 4"), "{json}");
        assert!(json.contains("\"engines_busy\": 1"), "{json}");
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count(), "{json}");
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn timeline_csv_is_one_row_per_cell_sample_device() {
        let csv = timeline_csv(&outcome());
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("scenario,scheduler,"), "{header}");
        assert!(
            header.ends_with(",migrations_in,migrations_out"),
            "{header}"
        );
        let row = lines.next().unwrap();
        assert!(
            row.contains(",50000000,6000,3,1,0,0.750000,4,2,1,0,1"),
            "{row}"
        );
        assert_eq!(
            header.split(',').count(),
            row.split(',').count() - 1, // quoted scenario holds one comma
            "row width must match the header"
        );
        assert!(lines.next().is_none(), "one sample × one device = one row");
    }

    #[test]
    fn table_renders_every_cell() {
        let text = to_table(&outcome());
        assert!(text.contains("direct"));
        assert!(text.contains("1234"));
        assert!(text.contains("round-robin"));
        assert!(text.contains("cost-aware"));
        assert!(text.contains("0.90/0.85"));
    }
}
