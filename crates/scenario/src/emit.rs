//! Result emission: JSON and CSV, with no external dependencies.
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

use std::fmt::Write as _;
use std::time::Duration;

use neon_core::fault::FaultMode;
use neon_core::telemetry::SimStats;
use neon_metrics::CounterKey as _;

use crate::driver::{CellResult, CellSummary};
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

fn summary_json(s: &CellSummary, stats: &SimStats, indent: &str) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{indent}{{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"placement\": \"{}\", \
\"fleet_placement\": \"{}\", \"rebalance\": \"{}\", \
\"seed\": {}, \"horizon_ms\": {}, \"devices\": {}, \"hosts\": {}, \"admitted\": {}, \
\"rejected\": {}, \
\"departed\": {}, \"killed\": {}, \"total_rounds\": {}, \"completed_requests\": {}, \
\"faults\": {}, \"direct_submits\": {}, \"utilization\": {}, \"fairness\": {}, \
\"round_p50_us\": {}, \"round_p95_us\": {}, \"round_p99_us\": {}, \"migrations\": {}, \
\"transfer_stall_us\": {}, \"fleet_rejected\": {}, \"cross_host_migrations\": {}, \
\"cluster_transfer_stall_us\": {}, \"faults_mode\": \"{}\", \"injected_faults\": {}, \
\"watchdog_kills\": {}, \"fault_retries\": {}, \"recovered_tasks\": {}, \"lost_tasks\": {}, \
\"hot_removes\": {}, \"degraded_us\": {}, \"per_device\": [",
        json_escape(&s.scenario),
        s.scheduler.label(),
        s.placement,
        s.fleet_placement,
        s.rebalance,
        s.seed,
        json_f64(s.horizon.as_secs_f64() * 1e3),
        s.devices,
        s.hosts,
        s.admitted,
        s.rejected,
        s.departed,
        s.killed,
        s.total_rounds,
        s.completed_requests,
        s.faults,
        s.direct_submits,
        json_f64(s.utilization),
        json_f64(s.fairness),
        json_f64(s.round_p50.as_micros_f64()),
        json_f64(s.round_p95.as_micros_f64()),
        json_f64(s.round_p99.as_micros_f64()),
        s.migrations,
        json_f64(s.transfer_stall.as_micros_f64()),
        s.fleet_rejected,
        s.cross_host_migrations,
        json_f64(s.cluster_transfer_stall.as_micros_f64()),
        s.faults_mode.label(),
        s.injected_faults,
        s.watchdog_kills,
        s.fault_retries,
        s.recovered_tasks,
        s.lost_tasks,
        s.hot_removes,
        json_f64(s.degraded.as_micros_f64()),
    );
    let devs: Vec<String> = s
        .per_device
        .iter()
        .map(|d| {
            format!(
                "{{\"device\": {}, \"utilization\": {}, \"rejected\": {}, \"tenants\": {}, \
\"migrations_in\": {}, \"migrations_out\": {}, \"transfer_stall_us\": {}}}",
                d.device.raw(),
                json_f64(d.utilization),
                d.rejected,
                d.tenants,
                d.migrations_in,
                d.migrations_out,
                json_f64(d.transfer_stall.as_micros_f64()),
            )
        })
        .collect();
    let hosts: Vec<String> = s
        .per_host
        .iter()
        .map(|h| {
            format!(
                "{{\"host\": {}, \"devices\": {}, \"utilization\": {}, \"admitted\": {}, \
\"rejected\": {}, \"rounds\": {}}}",
                h.host,
                h.devices,
                json_f64(h.utilization),
                h.admitted,
                h.rejected,
                h.rounds,
            )
        })
        .collect();
    let peak_rss = match s.peak_rss_bytes {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let _ = write!(
        o,
        "{}], \"per_host\": [{}], \"stats\": {}, \"elapsed_ms\": {}, \"peak_rss_bytes\": {}}}",
        devs.join(", "),
        hosts.join(", "),
        stats_json(stats),
        json_f64(s.elapsed.as_secs_f64() * 1e3),
        peak_rss,
    );
    o
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
        .map(|r| summary_json(&r.summary, &r.report.stats, "    "))
        .collect();
    o.push_str(&rows.join(",\n"));
    o.push_str("\n  ]\n}\n");
    o
}

/// Serializes the telemetry timelines of a sweep as a JSON document:
/// one record per cell, each with the sampler's bound/drop accounting
/// and its retained [`neon_core::telemetry::TimelineSample`]s. Cells
/// whose sampler was off contribute empty sample lists.
pub fn timeline_json(outcome: &SweepOutcome) -> String {
    let mut o = String::new();
    o.push_str("{\n  \"timelines\": [\n");
    let rows: Vec<String> = outcome
        .results
        .iter()
        .map(|r| {
            let s = &r.summary;
            let tl = &r.report.timeline;
            let samples: Vec<String> = tl
                .iter()
                .map(|sample| {
                    let devs: Vec<String> = sample
                        .devices
                        .iter()
                        .map(|d| {
                            format!(
                                "{{\"device\": {}, \"utilization\": {}, \"queue_depth\": {}, \
\"tenants\": {}, \"engines_busy\": {}, \"migrations_in\": {}, \"migrations_out\": {}}}",
                                d.device.raw(),
                                json_f64(d.utilization),
                                d.queue_depth,
                                d.tenants,
                                d.engines_busy,
                                d.migrations_in,
                                d.migrations_out,
                            )
                        })
                        .collect();
                    format!(
                        "      {{\"t_ns\": {}, \"events\": {}, \"live_tasks\": {}, \
\"inflight_migrations\": {}, \"devices\": [{}]}}",
                        sample.at.as_nanos(),
                        sample.events,
                        sample.live_tasks,
                        sample.inflight_migrations,
                        devs.join(", "),
                    )
                })
                .collect();
            format!(
                "    {{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"placement\": \"{}\", \
\"rebalance\": \"{}\", \"seed\": {}, \"samples_retained\": {}, \"samples_dropped\": {}, \
\"capacity\": {}, \"samples\": [\n{}\n    ]}}",
                json_escape(&s.scenario),
                s.scheduler.label(),
                s.placement,
                s.rebalance,
                s.seed,
                tl.len(),
                tl.dropped(),
                tl.capacity(),
                samples.join(",\n"),
            )
        })
        .collect();
    o.push_str(&rows.join(",\n"));
    o.push_str("\n  ]\n}\n");
    o
}

/// The timelines of a sweep as flat CSV: one row per (cell, sample,
/// device) triple.
pub fn timeline_csv(outcome: &SweepOutcome) -> String {
    let mut o = String::from(
        "scenario,scheduler,placement,rebalance,seed,t_ns,events,live_tasks,\
inflight_migrations,device,utilization,queue_depth,tenants,engines_busy,\
migrations_in,migrations_out\n",
    );
    for r in &outcome.results {
        let s = &r.summary;
        let scenario = if s.scenario.contains([',', '"']) {
            format!("\"{}\"", s.scenario.replace('"', "\"\""))
        } else {
            s.scenario.clone()
        };
        for sample in r.report.timeline.iter() {
            for d in &sample.devices {
                let _ = writeln!(
                    o,
                    "{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{}",
                    scenario,
                    s.scheduler.label(),
                    s.placement,
                    s.rebalance,
                    s.seed,
                    sample.at.as_nanos(),
                    sample.events,
                    sample.live_tasks,
                    sample.inflight_migrations,
                    d.device.raw(),
                    d.utilization,
                    d.queue_depth,
                    d.tenants,
                    d.engines_busy,
                    d.migrations_in,
                    d.migrations_out,
                );
            }
        }
    }
    o
}

/// Host measurements of one `neon bench` trial: a serial run of the
/// plan followed by one parallel run per requested thread count.
/// Trials keep only times and RSS samples, so running many of them
/// does not hold many sweeps' results in memory.
#[derive(Debug, Clone)]
pub struct BenchTrial {
    /// The serial run's whole-plan wall time.
    pub serial: Duration,
    /// Each cell's host time in the serial run, in plan order.
    pub cells: Vec<Duration>,
    /// Each parallel run's worker threads, wall time and current-RSS
    /// sample (taken as the run completed; `None` off Linux), in run
    /// order.
    pub parallel: Vec<(usize, Duration, Option<u64>)>,
}

impl BenchTrial {
    /// Starts a trial from its serial run.
    pub fn new(serial: &SweepOutcome) -> Self {
        BenchTrial {
            serial: serial.wall,
            cells: serial.results.iter().map(|r| r.summary.elapsed).collect(),
            parallel: Vec::new(),
        }
    }

    /// Adds the trial's next parallel run and the RSS sampled after it.
    pub fn push(&mut self, run: &SweepOutcome, rss: Option<u64>) {
        self.parallel.push((run.threads, run.wall, rss));
    }
}

/// One parallel configuration of a bench, summarized over trials:
/// `[p10, median, p90]` of its wall time (seconds) and of its speedup
/// over the same trial's serial run.
struct ThreadsRow {
    threads: usize,
    wall: [f64; 3],
    speedup: [f64; 3],
    rss: Option<u64>,
}

/// Nearest-rank p10, median and p90 of `values` (zeros when empty).
fn spread(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.1, 0.5, 0.9].map(|p| {
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
        v.get(rank - 1).copied().unwrap_or(0.0)
    })
}

/// Serializes a `neon bench` run as the machine-readable perf
/// trajectory document (`BENCH_core.json`): wall times, simulated
/// discrete-event counts and simulator throughput (events per host
/// second), overall and per reference scenario. `plan` is a serial
/// run of the plan (the warm-up pass), which supplies the cells'
/// simulated results; `trials` holds the host times of every measured
/// trial, each a run of that *same* plan, so the document carries one
/// event count. Fleet cells count the events of every host
/// ([`CellResult::events`]).
///
/// Schema `neon-bench-core/4`:
/// - the header carries a `schema` tag, a reproducible
///   (revision-free) `created_by` string, the `scenario_set` the
///   plan covered, so trajectory tooling can detect plan drift
///   between snapshots, and the number of `trials`;
/// - every time, speedup and throughput is the **median** over trials
///   (nearest rank). A speedup pairs each trial's serial and parallel
///   runs, which ran back to back, before taking the median. The
///   `*_p10`/`*_p90` keys give the spread of the same per-trial values;
/// - the headline fields (`threads`, `parallel_ms`, `speedup`,
///   `events_per_sec_parallel`) describe the widest parallel run, and
///   `threads_sweep` carries one row per parallel run — `threads`,
///   `parallel_ms`, `speedup`, `events_per_sec`, `peak_rss_bytes` and
///   their spread — in the order the runs executed;
/// - each `threads_sweep` row's `peak_rss_bytes` is the median of
///   **per-row current-RSS samples** (Linux `VmRSS`, read as each
///   trial's run completed), so rows are comparable to each other and
///   can go down as well as up; per-scenario rows report the
///   high-water mark (`VmHWM` max over the scenario's cells in
///   `plan`). `null` off Linux.
pub fn bench_json(plan: &SweepOutcome, trials: &[BenchTrial]) -> String {
    let total_events: u64 = plan.results.iter().map(CellResult::events).sum();
    let serial: Vec<f64> = trials.iter().map(|t| t.serial.as_secs_f64()).collect();
    let [serial_p10, serial_s, serial_p90] = spread(&serial);
    let runs = trials.first().map_or(0, |t| t.parallel.len());
    let rows: Vec<ThreadsRow> = (0..runs)
        .map(|k| {
            let walls: Vec<f64> = trials
                .iter()
                .map(|t| t.parallel[k].1.as_secs_f64())
                .collect();
            let speedups: Vec<f64> = walls
                .iter()
                .zip(&serial)
                .map(|(w, s)| s / w.max(1e-9))
                .collect();
            let rss: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.parallel[k].2)
                .map(|b| b as f64)
                .collect();
            ThreadsRow {
                threads: trials[0].parallel[k].0,
                wall: spread(&walls),
                speedup: spread(&speedups),
                rss: (!rss.is_empty()).then(|| spread(&rss)[1] as u64),
            }
        })
        .collect();
    // The headline parallel run: the widest one (ties: the last); the
    // serial run itself when there was none.
    let (threads, [_, headline_s, _], [speedup_p10, speedup, speedup_p90]) = rows
        .iter()
        .enumerate()
        .max_by_key(|(i, row)| (row.threads, *i))
        .map_or((1, [serial_s; 3], [1.0; 3]), |(_, row)| {
            (row.threads, row.wall, row.speedup)
        });
    let mut scenario_set: Vec<&str> = Vec::new();
    for r in &plan.results {
        let name = r.summary.scenario.as_str();
        if !scenario_set.contains(&name) {
            scenario_set.push(name);
        }
    }
    let mut o = String::new();
    o.push_str("{\n");
    let _ = writeln!(
        o,
        "  \"schema\": \"neon-bench-core/4\", \"created_by\": \"neon bench\",",
    );
    let _ = writeln!(
        o,
        "  \"scenario_set\": [{}],",
        scenario_set
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(
        o,
        "  \"bench\": \"core\", \"cells\": {}, \"threads\": {threads},",
        plan.results.len(),
    );
    let _ = writeln!(
        o,
        "  \"serial_ms\": {}, \"parallel_ms\": {}, \"speedup\": {},",
        json_f64(serial_s * 1e3),
        json_f64(headline_s * 1e3),
        json_f64(speedup),
    );
    let _ = writeln!(
        o,
        "  \"trials\": {}, \"serial_ms_p10\": {}, \"serial_ms_p90\": {}, \
\"speedup_p10\": {}, \"speedup_p90\": {},",
        trials.len(),
        json_f64(serial_p10 * 1e3),
        json_f64(serial_p90 * 1e3),
        json_f64(speedup_p10),
        json_f64(speedup_p90),
    );
    let _ = writeln!(
        o,
        "  \"sim_events\": {}, \"events_per_sec_serial\": {}, \
\"events_per_sec_parallel\": {},",
        total_events,
        json_f64(total_events as f64 / serial_s.max(1e-9)),
        json_f64(total_events as f64 / headline_s.max(1e-9)),
    );
    o.push_str("  \"threads_sweep\": [\n");
    let thread_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let [wall_p10, wall, wall_p90] = row.wall;
            let [speedup_p10, speedup, speedup_p90] = row.speedup;
            format!(
                "    {{\"threads\": {}, \"parallel_ms\": {}, \"speedup\": {}, \
\"events_per_sec\": {}, \"peak_rss_bytes\": {}, \"parallel_ms_p10\": {}, \
\"parallel_ms_p90\": {}, \"speedup_p10\": {}, \"speedup_p90\": {}}}",
                row.threads,
                json_f64(wall * 1e3),
                json_f64(speedup),
                json_f64(total_events as f64 / wall.max(1e-9)),
                row.rss.map_or("null".to_string(), |b| b.to_string()),
                json_f64(wall_p10 * 1e3),
                json_f64(wall_p90 * 1e3),
                json_f64(speedup_p10),
                json_f64(speedup_p90),
            )
        })
        .collect();
    o.push_str(&thread_rows.join(",\n"));
    o.push_str("\n  ],\n");
    o.push_str("  \"scenarios\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for &name in &scenario_set {
        let in_scenario = |i: &usize| plan.results[*i].summary.scenario == name;
        let cells: Vec<usize> = (0..plan.results.len()).filter(in_scenario).collect();
        let events: u64 = cells.iter().map(|&i| plan.results[i].events()).sum();
        let peak_rss = cells
            .iter()
            .filter_map(|&i| plan.results[i].summary.peak_rss_bytes)
            .max();
        let walls: Vec<f64> = trials
            .iter()
            .map(|t| cells.iter().map(|&i| t.cells[i].as_secs_f64()).sum())
            .collect();
        let wall = spread(&walls)[1];
        rows.push(format!(
            "    {{\"scenario\": \"{}\", \"cells\": {}, \"sim_events\": {}, \
\"serial_ms\": {}, \"events_per_sec\": {}, \"peak_rss_bytes\": {}}}",
            json_escape(name),
            cells.len(),
            events,
            json_f64(wall * 1e3),
            json_f64(events as f64 / wall.max(1e-9)),
            peak_rss.map_or("null".to_string(), |b| b.to_string()),
        ));
    }
    o.push_str(&rows.join(",\n"));
    o.push_str("\n  ]\n}\n");
    o
}

/// Fixed CSV column prefix; [`to_csv`] appends `placement`,
/// `rebalance`, the percentile columns, `migrations`,
/// `transfer_stall_us`, `peak_rss_bytes` (empty off Linux), the fleet
/// columns (`hosts`, `fleet_placement`, `fleet_rejected`,
/// `cross_host_migrations`, `cluster_transfer_stall_us`), the fault
/// columns (`faults_mode`, `injected_faults`, `watchdog_kills`,
/// `fault_retries`, `recovered_tasks`, `lost_tasks`, `hot_removes`,
/// `degraded_us`), per-device
/// `dev<i>_util`/`dev<i>_rej`/`dev<i>_migr`/`dev<i>_migr_out`/
/// `dev<i>_stall_us` groups sized to the widest cell in the sweep,
/// and per-host `host<i>_util`/`host<i>_admitted`/`host<i>_rej`/
/// `host<i>_rounds` groups sized to the widest fleet cell (absent in
/// single-host sweeps).
pub const CSV_HEADER: &str = "scenario,scheduler,seed,horizon_ms,admitted,rejected,departed,\
killed,total_rounds,completed_requests,faults,direct_submits,utilization,fairness,elapsed_ms";

/// Serializes a sweep outcome as CSV (header + one row per cell).
pub fn to_csv(outcome: &SweepOutcome) -> String {
    let max_devices = outcome
        .results
        .iter()
        .map(|r| r.summary.per_device.len())
        .max()
        .unwrap_or(0);
    let max_hosts = outcome
        .results
        .iter()
        .map(|r| r.summary.per_host.len())
        .max()
        .unwrap_or(0);
    let mut o = String::from(CSV_HEADER);
    o.push_str(
        ",placement,rebalance,round_p50_us,round_p95_us,round_p99_us,migrations,\
transfer_stall_us,peak_rss_bytes,hosts,fleet_placement,fleet_rejected,\
cross_host_migrations,cluster_transfer_stall_us,faults_mode,injected_faults,\
watchdog_kills,fault_retries,recovered_tasks,lost_tasks,hot_removes,degraded_us",
    );
    for d in 0..max_devices {
        let _ = write!(
            o,
            ",dev{d}_util,dev{d}_rej,dev{d}_migr,dev{d}_migr_out,dev{d}_stall_us"
        );
    }
    for h in 0..max_hosts {
        let _ = write!(
            o,
            ",host{h}_util,host{h}_admitted,host{h}_rej,host{h}_rounds"
        );
    }
    o.push('\n');
    for r in &outcome.results {
        let s = &r.summary;
        let scenario = if s.scenario.contains([',', '"']) {
            format!("\"{}\"", s.scenario.replace('"', "\"\""))
        } else {
            s.scenario.clone()
        };
        let _ = write!(
            o,
            "{},{},{},{:.3},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.3},{},{},{:.3},{:.3},{:.3},{}",
            scenario,
            s.scheduler.label(),
            s.seed,
            s.horizon.as_secs_f64() * 1e3,
            s.admitted,
            s.rejected,
            s.departed,
            s.killed,
            s.total_rounds,
            s.completed_requests,
            s.faults,
            s.direct_submits,
            s.utilization,
            s.fairness,
            s.elapsed.as_secs_f64() * 1e3,
            s.placement,
            s.rebalance,
            s.round_p50.as_micros_f64(),
            s.round_p95.as_micros_f64(),
            s.round_p99.as_micros_f64(),
            s.migrations,
        );
        let _ = write!(o, ",{:.3}", s.transfer_stall.as_micros_f64());
        match s.peak_rss_bytes {
            Some(b) => {
                let _ = write!(o, ",{b}");
            }
            None => o.push(','),
        }
        let _ = write!(
            o,
            ",{},{},{},{},{:.3}",
            s.hosts,
            s.fleet_placement,
            s.fleet_rejected,
            s.cross_host_migrations,
            s.cluster_transfer_stall.as_micros_f64(),
        );
        let _ = write!(
            o,
            ",{},{},{},{},{},{},{},{:.3}",
            s.faults_mode.label(),
            s.injected_faults,
            s.watchdog_kills,
            s.fault_retries,
            s.recovered_tasks,
            s.lost_tasks,
            s.hot_removes,
            s.degraded.as_micros_f64(),
        );
        for d in 0..max_devices {
            match s.per_device.get(d) {
                Some(dev) => {
                    let _ = write!(
                        o,
                        ",{:.6},{},{},{},{:.3}",
                        dev.utilization,
                        dev.rejected,
                        dev.migrations_in,
                        dev.migrations_out,
                        dev.transfer_stall.as_micros_f64()
                    );
                }
                None => o.push_str(",,,,,"),
            }
        }
        for h in 0..max_hosts {
            match s.per_host.get(h) {
                Some(host) => {
                    let _ = write!(
                        o,
                        ",{:.6},{},{},{}",
                        host.utilization, host.admitted, host.rejected, host.rounds
                    );
                }
                None => o.push_str(",,,,"),
            }
        }
        o.push('\n');
    }
    o
}

/// Renders the human-readable summary table printed by the CLI.
pub fn to_table(outcome: &SweepOutcome) -> String {
    let multi = outcome.results.iter().any(|r| r.summary.devices > 1);
    let fleet = outcome.results.iter().any(|r| r.summary.hosts > 1);
    let faulted = outcome
        .results
        .iter()
        .any(|r| r.summary.faults_mode != FaultMode::None);
    let mut headers = vec![
        "scenario".to_string(),
        "scheduler".into(),
        "seed".into(),
        "tasks".into(),
        "rej".into(),
        "rounds".into(),
        "p95".into(),
        "faults".into(),
        "util".into(),
        "fairness".into(),
        "ms".into(),
    ];
    if multi {
        headers.insert(2, "placement".into());
        headers.insert(3, "rebal".into());
        headers.push("per-dev util".into());
    }
    if fleet {
        headers.insert(2, "fleet".into());
        headers.push("per-host util".into());
    }
    if faulted {
        headers.push("fmode".into());
        headers.push("injected".into());
        headers.push("recov".into());
        headers.push("lost".into());
    }
    let mut table = neon_metrics::Table::new(headers);
    for r in &outcome.results {
        let s = &r.summary;
        let mut row = vec![
            s.scenario.clone(),
            s.scheduler.label().to_string(),
            s.seed.to_string(),
            s.admitted.to_string(),
            s.rejected.to_string(),
            s.total_rounds.to_string(),
            format!("{}", s.round_p95),
            s.faults.to_string(),
            format!("{:.2}", s.utilization),
            format!("{:.3}", s.fairness),
            format!("{:.1}", s.elapsed.as_secs_f64() * 1e3),
        ];
        if multi {
            row.insert(2, s.placement.to_string());
            row.insert(3, s.rebalance.to_string());
            row.push(
                s.per_device
                    .iter()
                    .map(|d| format!("{:.2}", d.utilization))
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
        if fleet {
            row.insert(2, s.fleet_placement.to_string());
            row.push(
                s.per_host
                    .iter()
                    .map(|h| format!("{:.2}", h.utilization))
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
        if faulted {
            row.push(s.faults_mode.label().to_string());
            row.push(s.injected_faults.to_string());
            row.push(s.recovered_tasks.to_string());
            row.push(s.lost_tasks.to_string());
        }
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CellResult, DeviceSummary, HostSummary};
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
                    rejected: 1,
                    migrations_in: 0,
                    migrations_out: 2,
                    transfer_stall: SimDuration::ZERO,
                    degraded: SimDuration::ZERO,
                    stats: SimStats::new(),
                },
                DeviceReport {
                    device: DeviceId::new(1),
                    compute_busy: SimDuration::from_millis(85),
                    dma_busy: SimDuration::ZERO,
                    tenants: 1,
                    rejected: 0,
                    migrations_in: 2,
                    migrations_out: 0,
                    transfer_stall: SimDuration::from_micros(250),
                    degraded: SimDuration::ZERO,
                    stats: SimStats::new(),
                },
            ],
            compute_busy: SimDuration::from_millis(175),
            dma_busy: SimDuration::ZERO,
            faults: 9,
            polls: 100,
            direct_submits: 1291,
            rejected_admissions: 1,
            migrations: 2,
            transfer_stall: SimDuration::from_micros(250),
            injected_faults: 0,
            watchdog_kills: 0,
            fault_retries: 0,
            recovered_tasks: 0,
            lost_tasks: 0,
            hot_removes: 0,
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

    /// One bench trial: `serial`, then each parallel run with the RSS
    /// sampled after it.
    fn trial(serial: &SweepOutcome, parallel: &[(&SweepOutcome, Option<u64>)]) -> BenchTrial {
        let mut t = BenchTrial::new(serial);
        for &(run, rss) in parallel {
            t.push(run, rss);
        }
        t
    }

    #[test]
    fn bench_json_reports_events_per_sec() {
        let serial = outcome();
        let parallel = outcome();
        let json = bench_json(&serial, &[trial(&serial, &[(&parallel, None)])]);
        assert!(json.contains("\"bench\": \"core\""), "{json}");
        assert!(json.contains("\"sim_events\": 12345"), "{json}");
        assert!(json.contains("\"events_per_sec_serial\""), "{json}");
        assert!(json.contains("\"scenarios\": ["), "{json}");
        // 12_345 events over the cell's 12 ms elapsed ≈ 1.029M ev/s.
        assert!(json.contains("\"events_per_sec\": 1028750.0"), "{json}");
        // One scenario group for the single cell.
        assert_eq!(json.matches("\"cells\": 1").count(), 2, "{json}");
    }

    #[test]
    fn bench_json_threads_sweep_has_one_row_per_run() {
        let serial = outcome();
        let mut narrow = outcome();
        narrow.threads = 1;
        narrow.wall = Duration::from_millis(30);
        let wide = outcome(); // 4 threads, 15 ms
        let json = bench_json(
            &serial,
            &[trial(
                &serial,
                &[(&narrow, Some(9_000_000)), (&wide, Some(7_500_000))],
            )],
        );
        assert!(json.contains("\"threads_sweep\": ["), "{json}");
        // One row per parallel run, in execution order.
        assert!(
            json.contains("{\"threads\": 1, \"parallel_ms\": 30.000000, \"speedup\": 0.500000"),
            "{json}"
        );
        assert!(
            json.contains("{\"threads\": 4, \"parallel_ms\": 15.000000, \"speedup\": 1.000000"),
            "{json}"
        );
        // Headline fields describe the widest run.
        assert!(json.contains("\"threads\": 4,\n"), "{json}");
        assert!(json.contains("\"speedup\": 1.000000,\n"), "{json}");
        // Each thread row carries its own current-RSS sample — not a
        // shared run-wide high-water mark — so a later row may report
        // *less* than an earlier one.
        assert!(json.contains("\"peak_rss_bytes\": 9000000"), "{json}");
        assert!(json.contains("\"peak_rss_bytes\": 7500000"), "{json}");
        // The scenario row still reports the per-cell VmHWM max.
        assert_eq!(
            json.matches(&format!("\"peak_rss_bytes\": {}", 64 * 1024 * 1024))
                .count(),
            1,
            "{json}"
        );
    }

    #[test]
    fn bench_json_rows_without_a_sample_emit_null() {
        let serial = outcome();
        let run = outcome();
        let json = bench_json(&serial, &[trial(&serial, &[(&run, None)])]);
        assert!(json.contains("\"peak_rss_bytes\": null"), "{json}");
    }

    #[test]
    fn bench_json_reports_medians_and_spread_over_trials() {
        let at = |serial_ms: u64, parallel_ms: u64| {
            let mut serial = outcome();
            serial.wall = Duration::from_millis(serial_ms);
            let mut run = outcome(); // 4 threads
            run.wall = Duration::from_millis(parallel_ms);
            trial(&serial, &[(&run, Some(parallel_ms))])
        };
        // Paired speedups 1.0, 2.0 and 0.5: the median pairs runs
        // within a trial, not the median walls (20 / 10 = 2.0).
        let json = bench_json(&outcome(), &[at(10, 10), at(20, 10), at(30, 60)]);
        assert!(
            json.contains(
                "\"serial_ms\": 20.000000, \"parallel_ms\": 10.000000, \"speedup\": 1.000000,\n"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"trials\": 3, \"serial_ms_p10\": 10.000000, \"serial_ms_p90\": 30.000000, \
\"speedup_p10\": 0.500000, \"speedup_p90\": 2.000000,"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "{\"threads\": 4, \"parallel_ms\": 10.000000, \"speedup\": 1.000000, \
\"events_per_sec\": 1234500.000000, \"peak_rss_bytes\": 10, \"parallel_ms_p10\": 10.000000, \
\"parallel_ms_p90\": 60.000000, \"speedup_p10\": 0.500000, \"speedup_p90\": 2.000000}"
            ),
            "{json}"
        );
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
        assert!(header.starts_with(CSV_HEADER), "{header}");
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
    fn bench_json_counts_every_fleet_host() {
        // A fleet cell's `report` is host 0 only; the document must sum
        // the events of every host.
        let mut serial = outcome();
        let cell = &mut serial.results[0];
        let mut host1 = cell.report.clone();
        host1.events = 1_000;
        cell.fleet = Some(neon_core::fleet::FleetReport {
            wall: cell.report.wall,
            hosts: vec![cell.report.clone(), host1],
            groups: vec![],
            cross_host_migrations: 0,
            cluster_transfer_stall: SimDuration::ZERO,
            fleet_rejected: 0,
            host_failures: 0,
            fleet_lost_tasks: 0,
            fleet_fault_recovered: 0,
            host_degraded: SimDuration::ZERO,
        });
        let json = bench_json(&serial, &[trial(&serial, &[])]);
        assert_eq!(json.matches("\"sim_events\": 13345").count(), 2, "{json}");
    }

    #[test]
    fn bench_json_carries_schema_and_scenario_set() {
        let json = bench_json(&outcome(), &[trial(&outcome(), &[(&outcome(), Some(1))])]);
        assert!(json.contains("\"schema\": \"neon-bench-core/4\""), "{json}");
        assert!(json.contains("\"created_by\": \"neon bench\""), "{json}");
        assert!(
            json.contains("\"scenario_set\": [\"say \\\"hi\\\", ok\"]"),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"peak_rss_bytes\": {}", 64 * 1024 * 1024)),
            "{json}"
        );
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
