//! Layer microbenchmarks, and layer metrics taken on the workload each
//! layer belongs to. Every traced run reports all of them, whatever its
//! workload, so they compare across traced runs.

use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neon_core::sched::SchedulerKind;
use neon_gpu::{EngineClass, Gpu, GpuConfig, RequestKind, SubmitSpec, TaskId};
use neon_metrics::StreamingHistogram;
use neon_scenario::sweep::{self, SweepCell};
use neon_scenario::{run_cell, CellResult};
use neon_sim::{EventQueue, SimDuration, SimTime};

use crate::check;
use crate::measure::{median, parse_validate_plan, peak_rss_mb, Checker};
use crate::reference;
use crate::workload;
use crate::{Args, Report};

/// A xorshift64 stream seeded from `--seed`.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Repeats `f` (which returns the operations it did) until `window`
/// has passed and at least five samples exist; the median ns per
/// operation.
fn ns_per_op(window: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < window {
        let t = Instant::now();
        let ops = f();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// `EventQueue` schedule / cancel / pop mix in the world loop's
/// proportions: ~60% schedules, ~20% cancels of a live token, ~20% pops.
fn event_queue(seed: u64, ops: u64) -> u64 {
    let mut rng = Xorshift::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut tokens: Vec<u64> = Vec::new();
    let mut done = 0;
    for i in 0..ops {
        match rng.next() % 10 {
            0..=5 => {
                let at = q.now() + SimDuration::from_nanos(rng.next() % 1_000);
                tokens.push(q.schedule(at, i));
            }
            6..=7 => {
                if !tokens.is_empty() {
                    let k = rng.next() as usize % tokens.len();
                    black_box(q.cancel(tokens.swap_remove(k)));
                }
            }
            _ => {
                black_box(q.pop());
            }
        }
        done += 1;
    }
    while q.pop().is_some() {
        done += 1;
    }
    done
}

/// `Gpu` request path: submit, dispatch, complete, on one channel.
fn device_requests(seed: u64, requests: u64) -> u64 {
    let mut rng = Xorshift::new(seed);
    let mut gpu = Gpu::new(GpuConfig::default());
    let ctx = gpu
        .create_context(TaskId::new(0))
        .expect("fresh device has contexts");
    let ch = gpu
        .create_channel(ctx, RequestKind::Compute)
        .expect("fresh device has channels");
    let mut now = SimTime::ZERO;
    for _ in 0..requests {
        let service = SimDuration::from_micros(1 + rng.next() % 100);
        black_box(gpu.submit(now, ch, SubmitSpec::compute(service)))
            .expect("one request in flight never fills the ring");
        let out = gpu
            .try_dispatch(now, EngineClass::Compute)
            .expect("idle engine dispatches the queued request");
        now = out.finish_at;
        black_box(gpu.complete_running(now, EngineClass::Compute));
    }
    requests
}

/// Log-uniform durations from 100 ns to ~100 ms.
fn durations(seed: u64, n: usize) -> Vec<SimDuration> {
    let mut rng = Xorshift::new(seed);
    (0..n)
        .map(|_| {
            let exp = (rng.next() % 20) as u32;
            SimDuration::from_nanos(100 * (1u64 << exp) + rng.next() % (100u64 << exp))
        })
        .collect()
}

/// Sweep-mix on the serial runner and on two threads: the per-scheduler
/// host time per event, and the two-thread speedup. Parallel results
/// must equal serial ones.
fn sweep_mix(args: &Args, report: &mut Report, checker: &mut Checker) -> Vec<SweepCell> {
    let w = workload::find("sweep-mix").expect("sweep-mix exists");
    let cells = parse_validate_plan(&w.inputs(args.seed, args.tiny));
    black_box(sweep::run_serial(&cells));
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); SchedulerKind::ALL.len()];
    for _ in 0..3 {
        let s = sweep::run_serial(&cells);
        serial.push(s.wall.as_secs_f64());
        for (k, kind) in SchedulerKind::ALL.iter().enumerate() {
            let (ns, events) = cells
                .iter()
                .zip(&s.results)
                .filter(|(c, _)| c.scheduler == *kind)
                .fold((0.0, 0u64), |(ns, ev), (_, r)| {
                    (
                        ns + r.summary.elapsed.as_nanos() as f64,
                        ev + check::events(r),
                    )
                });
            per_kind[k].push(ns / events as f64);
        }
        let p = sweep::run_parallel(&cells, Some(2));
        parallel.push(p.wall.as_secs_f64());
        checker.record(&s.results);
        checker.record(&p.results);
    }
    report.push(
        "scenario.sweep.speedup_2t",
        median(&serial) / median(&parallel),
        "x",
    );
    for (k, kind) in SchedulerKind::ALL.iter().enumerate() {
        report.push(
            format!("core.sched.{}.ns_per_event", kind.label()),
            median(&per_kind[k]),
            "ns",
        );
    }
    cells
}

/// A long-tenant disengaged-fq cell with event capture on against off.
fn trace_on_off(args: &Args, report: &mut Report) {
    let w = workload::find("long-tenant").expect("long-tenant exists");
    let cells = parse_validate_plan(&w.inputs(args.seed, args.tiny));
    let cell = cells
        .iter()
        .find(|c| c.scheduler == SchedulerKind::DisengagedFairQueueing)
        .expect("long-tenant has a disengaged-fq cell");
    let mut captured = (*cell.spec).clone();
    captured.capture_trace = true;
    let captured = Arc::new(captured);
    let run = |spec: &neon_scenario::ScenarioSpec| -> f64 {
        let t = Instant::now();
        black_box(run_cell(
            spec,
            cell.scheduler,
            cell.placement,
            cell.fleet_placement,
            cell.rebalance,
            cell.faults,
            cell.seed,
        ));
        t.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        off.push(run(&cell.spec));
        on.push(run(&captured));
    }
    report.push("sim.trace.on_off_ratio", median(&on) / median(&off), "x");
}

/// Fleet-rack on the serial runner: host time per event over all hosts,
/// and the fleet's cross-host migrations and cluster rejections.
fn fleet(args: &Args, report: &mut Report, checker: &mut Checker) -> Vec<SweepCell> {
    let w = workload::find("fleet-rack").expect("fleet-rack exists");
    let cells = parse_validate_plan(&w.inputs(args.seed, args.tiny));
    let outcome = sweep::run_serial(&cells);
    let r: &[CellResult] = &outcome.results;
    let ns: f64 = r.iter().map(|c| c.summary.elapsed.as_nanos() as f64).sum();
    let events: u64 = r.iter().map(check::events).sum();
    report.push("core.fleet.ns_per_event", ns / events as f64, "ns");
    report.push(
        "core.fleet.cross_host_migrations",
        r.iter()
            .map(|c| c.summary.cross_host_migrations)
            .sum::<u64>() as f64,
        "count",
    );
    report.push(
        "core.fleet.rejected",
        r.iter().map(|c| c.summary.fleet_rejected).sum::<u64>() as f64,
        "count",
    );
    checker.record(&outcome.results);
    cells
}

/// The number that follows `key` in a one-line JSON report.
fn number_after(text: &str, key: &str) -> Result<f64, String> {
    let at = text.find(key).ok_or(format!("no {key} in {text}"))? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '}']).ok_or(format!("no value for {key}"))?;
    rest[..end]
        .trim()
        .parse()
        .map_err(|e| format!("{key}: {e}"))
}

/// What a `telemetry` child process measured.
struct TelemetryRun {
    wall_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

/// Runs `telemetry` in a child process for one metrics mode.
fn telemetry_child(args: &Args, mode: &str) -> Result<TelemetryRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "telemetry",
        "--metrics",
        mode,
        "--seed",
        &args.seed.to_string(),
    ]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("telemetry child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "telemetry child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(TelemetryRun {
        wall_s: number_after(&text, "\"wall_s\": {\"value\":")?,
        peak_rss_mb: number_after(&text, "\"peak_rss_mb\": {\"value\":")?,
        attempted: number_after(&text, "\"attempted\":")? as u64,
        failed: number_after(&text, "\"failed\":")? as u64,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let window = Duration::from_millis(if args.tiny { 20 } else { 400 });
    let ops = if args.tiny { 4_096 } else { 65_536 };

    report.push(
        "sim.event.ns_per_op",
        ns_per_op(window, || event_queue(args.seed, ops)),
        "ns",
    );
    report.push(
        "gpu.device.ns_per_request",
        ns_per_op(window, || device_requests(args.seed, ops)),
        "ns",
    );
    let samples = durations(args.seed, ops as usize);
    report.push(
        "metrics.hist.record_ns",
        ns_per_op(window, || {
            let mut h = StreamingHistogram::new();
            for &d in &samples {
                h.record(d);
            }
            black_box(&h);
            samples.len() as u64
        }),
        "ns",
    );
    let parts: Vec<StreamingHistogram> = samples
        .chunks(samples.len() / 16)
        .map(|chunk| {
            let mut h = StreamingHistogram::new();
            chunk.iter().for_each(|&d| h.record(d));
            h
        })
        .collect();
    report.push(
        "metrics.hist.merge_us",
        ns_per_op(window, || {
            let mut all = StreamingHistogram::new();
            for p in &parts {
                all.merge(p);
            }
            black_box(&all);
            parts.len() as u64
        }) / 1e3,
        "us",
    );

    let mut kernel = reference::Kernel::new();
    let references: Vec<f64> = (0..5).map(|_| kernel.time()).collect();
    report.push("bench.reference_ms", median(&references) * 1e3, "ms");

    let mut mix_checker = Checker::new();
    let mix_cells = sweep_mix(args, &mut report, &mut mix_checker);
    trace_on_off(args, &mut report);
    let mut fleet_checker = Checker::new();
    let fleet_cells = fleet(args, &mut report, &mut fleet_checker);

    let exact = telemetry_child(args, "exact")?;
    let streaming = telemetry_child(args, "streaming")?;
    report.push(
        "core.telemetry.streaming_vs_exact_pct",
        (streaming.wall_s - exact.wall_s) / exact.wall_s * 100.0,
        "%",
    );
    report.push("core.telemetry.exact_rss_mb", exact.peak_rss_mb, "MB");

    let (a, f) = mix_checker.finish(&mix_cells);
    let (b, g) = fleet_checker.finish(&fleet_cells);
    report.attempted = a + b + exact.attempted + streaming.attempted;
    report.failed = f + g + exact.failed + streaming.failed;
    Ok(report)
}

/// Three long-tenant passes in the given metrics mode; reports their
/// median wall time and this process's peak RSS.
pub fn telemetry(args: &Args) -> Result<Report, String> {
    let mode = neon_core::telemetry::MetricsMode::from_label(&args.metrics_mode)
        .ok_or_else(|| format!("unknown metrics mode {}", args.metrics_mode))?;
    let w = workload::find("long-tenant").expect("long-tenant exists");
    let cells: Vec<SweepCell> = parse_validate_plan(&w.inputs(args.seed, args.tiny))
        .into_iter()
        .map(|c| {
            let mut spec = (*c.spec).clone();
            spec.metrics = mode;
            SweepCell {
                spec: Arc::new(spec),
                ..c
            }
        })
        .collect();
    let mut report = Report::default();
    let mut walls = Vec::new();
    for _ in 0..3 {
        let outcome = sweep::run_serial(&cells);
        walls.push(outcome.wall.as_secs_f64());
        report.attempted += cells.len() as u64;
        report.failed += outcome
            .results
            .iter()
            .filter(|r| check::conservation(r).is_err())
            .count() as u64;
    }
    report.push("wall_s", median(&walls), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}
