//! End-to-end measurement of a workload, untraced (`e2e`) and traced
//! (`trace`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neon_core::sched::SchedulerKind;
use neon_scenario::sweep::{self, SweepCell, SweepOutcome};
use neon_scenario::{emit, from_toml, run_cell, CellResult, CellRunner, ScenarioSpec};
use neon_sim::SimDuration;

use crate::check;
use crate::reference;
use crate::trace::Tracer;
use crate::workload::{self, Inputs};
use crate::{budget, Args, Report};

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn inputs(args: &Args) -> Result<Inputs, String> {
    let w = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    Ok(w.inputs(args.seed, args.tiny))
}

/// Scenario text to sweep plan: `from_toml`, `validate`, `plan`.
pub fn parse_validate_plan(inputs: &Inputs) -> Vec<SweepCell> {
    let specs = inputs.texts.iter().map(|(file, text)| {
        let mut spec = from_toml(text, file).expect("benchmark scenarios parse");
        spec.validate().expect("benchmark scenarios validate");
        inputs.scale(&mut spec);
        spec
    });
    sweep::plan(specs.collect::<Vec<_>>())
}

/// The same plan with every horizon set to zero: running it does each
/// cell's world construction or reset and staging, and nothing else.
pub fn zero_horizon(cells: &[SweepCell]) -> Vec<SweepCell> {
    let mut zeroed: Vec<(*const ScenarioSpec, Arc<ScenarioSpec>)> = Vec::new();
    cells
        .iter()
        .map(|c| {
            let key = Arc::as_ptr(&c.spec);
            let spec = match zeroed.iter().find(|(k, _)| *k == key) {
                Some((_, s)) => Arc::clone(s),
                None => {
                    let mut spec = (*c.spec).clone();
                    spec.horizon = SimDuration::ZERO;
                    let spec = Arc::new(spec);
                    zeroed.push((key, Arc::clone(&spec)));
                    spec
                }
            };
            SweepCell { spec, ..c.clone() }
        })
        .collect()
}

pub fn run_one(runner: &mut CellRunner, c: &SweepCell) -> CellResult {
    runner.run(
        &c.spec,
        c.scheduler,
        c.placement,
        c.fleet_placement,
        c.rebalance,
        c.faults,
        c.seed,
    )
}

/// One setup: scenario text to every cell's first event. Returns the
/// host time it took; building the zero-horizon plan is not counted.
fn setup_once(inputs: &Inputs) -> Duration {
    let started = Instant::now();
    let cells = black_box(parse_validate_plan(inputs));
    let planned = started.elapsed();
    let zero = zero_horizon(&cells);
    let started = Instant::now();
    let mut runner = CellRunner::new();
    for c in &zero {
        black_box(run_one(&mut runner, c));
    }
    planned + started.elapsed()
}

/// One timed pass: every cell on the serial runner, then JSON and CSV
/// emission of the outcome.
fn pass(cells: &[SweepCell]) -> (SweepOutcome, Duration) {
    let started = Instant::now();
    let outcome = sweep::run_serial(cells);
    black_box(emit::to_json(&outcome));
    black_box(emit::to_csv(&outcome));
    let wall = started.elapsed();
    (outcome, wall)
}

/// Cell-level correctness over every pass of a run: each result must
/// satisfy the conservation rules and match a fresh `run_cell` of the
/// same cell, which runs here, after the timed region.
pub struct Checker {
    passes: Vec<Vec<(u64, Result<(), String>)>>,
}

impl Checker {
    pub fn new() -> Self {
        Checker { passes: Vec::new() }
    }

    pub fn record(&mut self, results: &[CellResult]) {
        self.passes.push(
            results
                .iter()
                .map(|r| (check::fingerprint(r), check::conservation(r)))
                .collect(),
        );
    }

    /// Records a pass that panicked: all of its cells failed.
    pub fn record_panic(&mut self, cells: usize) {
        self.passes.push(
            (0..cells)
                .map(|_| (0, Err("pass panicked".into())))
                .collect(),
        );
    }

    /// Returns (attempted, failed).
    pub fn finish(&self, cells: &[SweepCell]) -> (u64, u64) {
        let fresh: Vec<Option<u64>> = cells
            .iter()
            .map(|c| {
                catch_unwind(AssertUnwindSafe(|| {
                    let r = run_cell(
                        &c.spec,
                        c.scheduler,
                        c.placement,
                        c.fleet_placement,
                        c.rebalance,
                        c.faults,
                        c.seed,
                    );
                    check::fingerprint(&r)
                }))
                .ok()
            })
            .collect();
        let mut attempted = 0;
        let mut failed = 0;
        for pass in &self.passes {
            for (i, (fp, conserved)) in pass.iter().enumerate() {
                attempted += 1;
                let why = match (conserved, fresh[i]) {
                    (Err(e), _) => Some(e.clone()),
                    (Ok(()), None) => Some("fresh run_cell panicked".into()),
                    (Ok(()), Some(f)) if f != *fp => Some("differs from fresh run_cell".into()),
                    _ => None,
                };
                if let Some(why) = why {
                    failed += 1;
                    let c = &cells[i];
                    eprintln!(
                        "FAILED cell {i} ({} {} seed {}): {why}",
                        c.spec.name, c.scheduler, c.seed
                    );
                }
            }
        }
        (attempted, failed)
    }
}

/// The simulated metrics of a pass: the Jain index of the
/// disengaged-fq cells, and the shortfall (percent) of their compute
/// utilization against the direct cell of the same scenario, placement,
/// fleet placement, rebalance, faults and seed. Each is averaged within
/// a scenario, then across scenarios, so every scenario of a workload
/// weighs the same however many axis values it sweeps.
fn sim_metrics(cells: &[SweepCell], results: &[CellResult]) -> (f64, f64) {
    let same = |a: &SweepCell, b: &SweepCell| {
        Arc::ptr_eq(&a.spec, &b.spec)
            && a.placement == b.placement
            && a.fleet_placement == b.fleet_placement
            && a.rebalance == b.rebalance
            && a.faults == b.faults
            && a.seed == b.seed
    };
    // Per scenario: (fairness sum, count, shortfall sum, count).
    let mut per_spec: Vec<(*const ScenarioSpec, [f64; 4])> = Vec::new();
    for (c, r) in cells.iter().zip(results) {
        if c.scheduler != SchedulerKind::DisengagedFairQueueing {
            continue;
        }
        let key = Arc::as_ptr(&c.spec);
        let at = match per_spec.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                per_spec.push((key, [0.0; 4]));
                per_spec.len() - 1
            }
        };
        let acc = &mut per_spec[at].1;
        acc[0] += r.summary.fairness;
        acc[1] += 1.0;
        let direct = cells
            .iter()
            .zip(results)
            .find(|(d, _)| d.scheduler == SchedulerKind::Direct && same(c, d));
        if let Some((_, d)) = direct {
            let base = d.summary.utilization;
            acc[2] += (base - r.summary.utilization) / base * 100.0;
            acc[3] += 1.0;
        }
    }
    let n = per_spec.len() as f64;
    let fairness = per_spec.iter().map(|(_, a)| a[0] / a[1]).sum::<f64>() / n;
    let shortfall = per_spec.iter().map(|(_, a)| a[2] / a[3]).sum::<f64>() / n;
    (fairness, shortfall)
}

/// Prints the digest of every simulated statistic, and compares it by
/// name with the recorded one on the default seed. A mismatch is
/// reported, not failed: a deliberate model fix changes it.
fn report_digest(args: &Args, digest: &BTreeMap<String, String>) {
    eprintln!("digest {} {}", args.workload, check::render_digest(digest));
    if args.seed != workload::DEFAULT_SEED || args.tiny {
        return;
    }
    match check::recorded_digest(&args.workload) {
        None => eprintln!("digest: none recorded for {}", args.workload),
        Some(recorded) => {
            let diff = check::digest_mismatches(digest, &recorded);
            if diff.is_empty() {
                eprintln!("digest: matches the recorded default-seed digest");
            } else {
                eprintln!("digest MISMATCH against the recorded default-seed digest:");
                for d in diff {
                    eprintln!("  {d}");
                }
            }
        }
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    neon_scenario::driver::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1 << 20) as f64)
}

/// Share of a run's budget spent timing set-up, interleaved with the
/// passes so both sample the same stretch of host speed.
const SETUP_SHARE: f64 = 0.12;

pub fn end_to_end(args: &Args) -> Result<Report, String> {
    let inputs = inputs(args)?;
    let deadline = budget(args);
    let cells = parse_validate_plan(&inputs);
    let mut checker = Checker::new();
    let mut kernel = reference::Kernel::new();

    // Warm-up pass. The simulated metrics and the digest come from it;
    // it is dropped before timing so the peak RSS holds one outcome.
    let (warm, _) = pass(&cells);
    checker.record(&warm.results);
    let events: u64 = warm.results.iter().map(check::events).sum();
    let digest = check::digest(&warm.results);
    let (fairness, overhead) = sim_metrics(&cells, &warm.results);
    drop(warm);

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut setups = Vec::new();
    let mut references = Vec::new();
    let mut setup_time = Duration::ZERO;
    while walls.len() < 3 || started.elapsed() < deadline {
        let reference = kernel.time();
        references.push(reference);
        let scale = reference::NOMINAL_S / reference;
        match catch_unwind(AssertUnwindSafe(|| pass(&cells))) {
            Ok((outcome, wall)) => {
                raw_walls.push(wall.as_secs_f64());
                walls.push(wall.as_secs_f64() * scale);
                checker.record(&outcome.results);
            }
            Err(_) => {
                checker.record_panic(cells.len());
                break;
            }
        }
        loop {
            let s = setup_once(&inputs);
            setup_time += s;
            setups.push(s.as_secs_f64() * scale);
            if setup_time.as_secs_f64() >= SETUP_SHARE * started.elapsed().as_secs_f64() {
                break;
            }
        }
    }
    let peak_rss = peak_rss_mb();
    let (attempted, failed) = checker.finish(&cells);
    report_digest(args, &digest);
    let wall = median(&walls);
    eprintln!(
        "e2e {}: {} cells, {events} events per pass; {} passes, {} setups; host seconds per pass p10/p50/p90 {:.4}/{:.4}/{:.4}; reference kernel median {:.5} s",
        args.workload,
        cells.len(),
        walls.len(),
        setups.len(),
        quantile(&raw_walls, 0.1),
        median(&raw_walls),
        quantile(&raw_walls, 0.9),
        median(&references),
    );

    let mut report = Report {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.push("wall_s", wall, "s");
    report.push("events_per_s", events as f64 / wall, "1/s");
    report.push("setup_s", median(&setups), "s");
    report.push("peak_rss_mb", peak_rss, "MB");
    report.push("sim_fairness", fairness, "jain");
    report.push("sim_overhead_pct", overhead, "%");
    Ok(report)
}

/// Sum of one counter over a pass's cells, all hosts included.
fn stat_sum(results: &[CellResult], key: neon_core::telemetry::StatKey) -> u64 {
    results.iter().map(|r| check::stats(r).get(key)).sum()
}

/// `n / d`, or `empty` when nothing was attempted.
pub fn ratio(n: u64, d: u64, empty: f64) -> f64 {
    if d == 0 {
        empty
    } else {
        n as f64 / d as f64
    }
}

pub fn traced(args: &Args) -> Result<Report, String> {
    use neon_core::telemetry::StatKey as K;

    let inputs = inputs(args)?;
    let deadline = budget(args);
    let mut t = Tracer::new();

    // Set-up, with a span around each call from text to first event.
    let mut parse = Vec::new();
    let mut validate = Vec::new();
    let mut plan = Vec::new();
    let setup_started = Instant::now();
    let mut cells = Vec::new();
    while parse.len() < 3 || setup_started.elapsed() < deadline.mul_f64(SETUP_SHARE) {
        let rep = t.enter("bench.setup");
        let mut specs = Vec::new();
        let (mut p, mut v) = (0u64, 0u64);
        for (file, text) in &inputs.texts {
            let (id, spec) = t.span("scenario.toml.parse", || from_toml(text, file));
            t.count(id, "bytes", text.len() as u64);
            p += t.spans()[id].ns();
            let mut spec = spec.map_err(|e| format!("{file}: {e}"))?;
            let (id, ok) = t.span("scenario.spec.validate", || spec.validate());
            v += t.spans()[id].ns();
            ok.map_err(|e| format!("{file}: {e}"))?;
            inputs.scale(&mut spec);
            specs.push(spec);
        }
        let (id, planned) = t.span("scenario.sweep.plan", || sweep::plan(specs));
        t.count(id, "cells", planned.len() as u64);
        plan.push(t.spans()[id].ns() as f64);
        parse.push(p as f64);
        validate.push(v as f64);
        let zero = zero_horizon(&planned);
        let mut runner = CellRunner::new();
        for c in &zero {
            let (_, r) = t.span("scenario.driver.cell_setup", || run_one(&mut runner, c));
            black_box(r);
        }
        t.exit(rep);
        cells = planned;
    }

    let mut checker = Checker::new();
    let (warm, _) = pass(&cells);
    checker.record(&warm.results);

    // Untraced and traced passes, alternating.
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let (mut cell_ns, mut cell_events) = (0u64, 0u64);
    while traced.len() < 2 || started.elapsed() < deadline.mul_f64(1.0 - SETUP_SHARE) {
        let (outcome, wall) = pass(&cells);
        let cell_sum: Duration = outcome.results.iter().map(|r| r.summary.elapsed).sum();
        let sweep_wall = outcome.wall.as_secs_f64();
        overhead.push((sweep_wall - cell_sum.as_secs_f64()) / sweep_wall * 100.0);
        untraced.push(wall.as_secs_f64());
        checker.record(&outcome.results);
        drop(outcome);

        let pass_span = t.enter("bench.pass");
        let sweep_span = t.enter("scenario.sweep.serial");
        let sweep_started = Instant::now();
        let mut runner = CellRunner::new();
        let mut results = Vec::with_capacity(cells.len());
        for c in &cells {
            let (id, r) = t.span("scenario.driver.cell", || run_one(&mut runner, c));
            let events = check::events(&r);
            t.count(id, "events", events);
            cell_ns += t.spans()[id].ns();
            cell_events += events;
            results.push(r);
        }
        let outcome = SweepOutcome {
            results,
            wall: sweep_started.elapsed(),
            threads: 1,
        };
        t.exit(sweep_span);
        let (id, json) = t.span("scenario.emit.json", || emit::to_json(&outcome));
        t.count(id, "bytes", json.len() as u64);
        let (id, csv) = t.span("scenario.emit.csv", || emit::to_csv(&outcome));
        t.count(id, "bytes", csv.len() as u64);
        t.exit(pass_span);
        traced.push(t.spans()[pass_span].ns() as f64 / 1e9);
        checker.record(&outcome.results);
    }
    let (attempted, failed) = checker.finish(&cells);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "trace: {} spans written to {}",
            t.spans().len(),
            path.display()
        );
    }

    let r = &warm.results;
    let events: u64 = r.iter().map(check::events).sum();
    let rounds: u64 = r.iter().map(|c| c.summary.total_rounds).sum();
    let cell_ms: Vec<f64> = t
        .durations("scenario.driver.cell")
        .iter()
        .map(|d| d / 1e6)
        .collect();
    let opened = stat_sum(r, K::SamplingWindowsOpened);
    let accepted = stat_sum(r, K::RebalanceAccepted);
    let decided = accepted + stat_sum(r, K::RebalanceVetoed) + stat_sum(r, K::RebalanceCooledDown);
    let recovered = stat_sum(r, K::RecoveredTasks);
    let lost = stat_sum(r, K::LostTasks);
    let untraced_wall = median(&untraced);

    let mut report = Report {
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.push("scenario.toml.parse_us", median(&parse) / 1e3, "us");
    report.push("scenario.spec.validate_us", median(&validate) / 1e3, "us");
    report.push("scenario.sweep.plan_us", median(&plan) / 1e3, "us");
    report.push(
        "scenario.driver.cell_setup_us",
        median(&t.durations("scenario.driver.cell_setup")) / 1e3,
        "us",
    );
    report.push("scenario.driver.cell_ms.p50", quantile(&cell_ms, 0.5), "ms");
    report.push("scenario.driver.cell_ms.p90", quantile(&cell_ms, 0.9), "ms");
    report.push("scenario.sweep.overhead_pct", median(&overhead), "%");
    report.push(
        "scenario.emit.json_ms",
        median(&t.durations("scenario.emit.json")) / 1e6,
        "ms",
    );
    report.push(
        "scenario.emit.csv_ms",
        median(&t.durations("scenario.emit.csv")) / 1e6,
        "ms",
    );
    report.push(
        "core.world.ns_per_event",
        cell_ns as f64 / cell_events as f64,
        "ns",
    );
    report.push("core.world.events", events as f64, "count");
    report.push(
        "core.world.rounds_per_event",
        ratio(rounds, events, 0.0),
        "ratio",
    );
    report.push(
        "core.world.migrations",
        stat_sum(r, K::MigrationsIn) as f64,
        "count",
    );
    report.push("core.sched.faults", stat_sum(r, K::Faults) as f64, "count");
    report.push("core.sched.polls", stat_sum(r, K::Polls) as f64, "count");
    report.push(
        "core.sched.direct_submits",
        stat_sum(r, K::DirectSubmits) as f64,
        "count",
    );
    report.push(
        "core.sched.preemptions",
        stat_sum(r, K::Preemptions) as f64,
        "count",
    );
    report.push(
        "core.sched.denials",
        stat_sum(r, K::Denials) as f64,
        "count",
    );
    report.push("core.sched.sampling_windows_opened", opened as f64, "count");
    report.push(
        "core.sched.sampling_close_ratio",
        ratio(stat_sum(r, K::SamplingWindowsClosed), opened, 1.0),
        "ratio",
    );
    report.push(
        "core.placement.rejected_admissions",
        stat_sum(r, K::RejectedAdmissions) as f64,
        "count",
    );
    report.push("core.rebalance.accepted", accepted as f64, "count");
    report.push(
        "core.rebalance.accept_ratio",
        ratio(accepted, decided, 0.0),
        "ratio",
    );
    report.push(
        "core.fault.injected",
        stat_sum(r, K::InjectedFaults) as f64,
        "count",
    );
    report.push(
        "core.fault.watchdog_kills",
        stat_sum(r, K::WatchdogKills) as f64,
        "count",
    );
    report.push(
        "core.fault.retries",
        stat_sum(r, K::FaultRetries) as f64,
        "count",
    );
    report.push(
        "core.fault.recovered_ratio",
        ratio(recovered, recovered + lost, 1.0),
        "ratio",
    );
    report.push(
        "bench.trace_overhead_pct",
        (median(&traced) - untraced_wall) / untraced_wall * 100.0,
        "%",
    );
    Ok(report)
}
