//! `neon` — run scenario sweeps from the command line.
//!
//! ```text
//! neon run <scenario.toml>... [--serial] [--threads N] [--out FILE] [--csv FILE]
//!                             [--devices N] [--hosts N] [--placement P[,P...]]
//!                             [--fleet-placement F[,F...]]
//!                             [--rebalance R[,R...]] [--faults M[,M...]] [--quiet]
//!                             [--metrics exact|streaming] [--sample-every DUR]
//!                             [--timeline FILE] [--trace-out FILE]
//! neon check <scenario.toml>...
//! neon bench <scenario.toml>... [--threads N[,N...]] [--trials N] [--out FILE]
//! ```
//!
//! - `run` executes every (scenario × scheduler × placement × fleet
//!   placement × rebalance × seed) cell — in parallel by default —
//!   prints a summary table, and emits the JSON document (stdout, or
//!   `--out`).
//! - `check` parses and validates files and prints the expanded plan.
//!   The loader rejects unknown or misplaced keys outright (with a
//!   "did you mean" hint).
//! - `bench` runs the same plan once serially as a warm-up, then
//!   `--trials N` times (default 1) a serial run followed by one
//!   parallel run per requested thread count (`--threads 1,2,4,8`;
//!   default: one run at the host's available parallelism). It reports
//!   the median wall-clock speedups and simulator throughput
//!   (simulated events per host second) with their p10/p90 spread, and
//!   emits the machine-readable perf-trajectory document (stdout, or
//!   `--out BENCH_core.json`).
//!
//! `--devices`, `--hosts`, `--placement`, `--fleet-placement`,
//! `--rebalance` and `--faults` override the scenario files, so any
//! scenario can be rerun on a larger topology, a whole fleet of
//! hosts, a different migration policy, or a different slice of its
//! fault schedule (`--faults none,device`, say) without
//! editing it. The telemetry
//! flags do the same for the observability axis: `--metrics` selects
//! the exact or streaming pipeline, `--timeline FILE` turns on the
//! periodic device sampler and writes the timelines (JSON, or CSV
//! when FILE ends in `.csv`), `--sample-every DUR` sets its cadence
//! (default: horizon/200), and `--trace-out FILE` captures the
//! per-cell event traces as JSONL.

use std::path::PathBuf;
use std::process::ExitCode;

use neon_core::fault::FaultMode;
use neon_core::fleet::FleetPlacementKind;
use neon_core::placement::PlacementKind;
use neon_core::rebalance::RebalanceKind;
use neon_core::telemetry::MetricsMode;
use neon_scenario::{
    emit, parse_axis, parse_duration, sweep, toml_file, CellResult, Labeled, ScenarioSpec,
};
use neon_sim::SimDuration;

struct Options {
    files: Vec<PathBuf>,
    serial: bool,
    /// `--threads` accepts a comma list; `run` requires a single
    /// value, `bench` sweeps one parallel run per entry.
    threads: Option<Vec<usize>>,
    /// `bench` only: measured trials after the warm-up pass.
    trials: Option<usize>,
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    quiet: bool,
    devices: Option<usize>,
    hosts: Option<usize>,
    placements: Option<Vec<PlacementKind>>,
    fleet_placements: Option<Vec<FleetPlacementKind>>,
    rebalances: Option<Vec<RebalanceKind>>,
    faults: Option<Vec<FaultMode>>,
    metrics: Option<MetricsMode>,
    sample_every: Option<SimDuration>,
    timeline: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage:
  neon run <scenario.toml>... [--serial] [--threads N] [--out FILE] [--csv FILE]
                              [--devices N] [--hosts N] [--placement P[,P...]]
                              [--fleet-placement F[,F...]]
                              [--rebalance R[,R...]] [--faults M[,M...]] [--quiet]
                              [--metrics exact|streaming] [--sample-every DUR]
                              [--timeline FILE] [--trace-out FILE]
  neon check <scenario.toml>... [--devices N] [--hosts N] [--placement P[,P...]]
                                [--fleet-placement F[,F...]] [--rebalance R[,R...]]
                                [--faults M[,M...]]
  neon bench <scenario.toml>... [--out FILE] [--threads N[,N...]] [--trials N]
                                [--devices N] [--placement P[,P...]] [--rebalance R[,R...]]

Scenario files describe tenant groups (workload, arrival process,
lifetime, optional device pinning, working_set), the host topology
([[device]] blocks with numa/switch coordinates plus topology.* keys),
the fleet (hosts = N or [[host]] blocks, fleet_placement,
cluster.* keys), and the sweep axes (seeds, schedulers, placement
policies, fleet placement policies, rebalance policies); see
examples/scenarios/ and the README's Scenario keys section for the format.
--devices, --hosts, --placement, --fleet-placement and --rebalance
override the scenario files, e.g. --devices 4 --placement
least-loaded,round-robin --rebalance count-diff,cost-aware: each axis
flag takes the labels of its scenario key, and an unknown label is
rejected with the list of supported ones. --faults selects which
categories of a scenario's [[fault]] schedule to inject and is a
sweep axis like the others. --devices
replaces heterogeneous [[device]] topologies and any topology.*
interconnect timing with a flat free-interconnect host of that size;
--hosts N replaces any [[host]] blocks with N identical hosts of
--devices (or the scenario's devices =) GPUs each.
bench runs a serial warm-up, then --trials N (default 1) interleaved
serial and parallel trials, and reports medians with p10/p90 spread.
Telemetry: --metrics exact|streaming picks the percentile pipeline
(streaming bounds per-task memory), --timeline FILE enables the
periodic device sampler and writes its output (JSON, or CSV when FILE
ends in .csv), --sample-every DUR (e.g. 500us) sets the sampler
cadence (default horizon/200), and --trace-out FILE writes per-cell
event traces as JSONL.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("neon: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// A sweep-axis flag's comma-separated labels.
fn axis<T: Labeled>(value: Option<&String>, flag: &str) -> Result<Vec<T>, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    parse_axis(v.split(',')).map_err(|e| e.0)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        serial: false,
        threads: None,
        trials: None,
        out: None,
        csv: None,
        quiet: false,
        devices: None,
        hosts: None,
        placements: None,
        fleet_placements: None,
        rebalances: None,
        faults: None,
        metrics: None,
        sample_every: None,
        timeline: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serial" => opts.serial = true,
            "--quiet" => opts.quiet = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let list: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
                let list = list.map_err(|_| "bad --threads value".to_string())?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--threads entries must be at least 1".into());
                }
                opts.threads = Some(list);
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad --trials value".to_string())?;
                if n == 0 {
                    return Err("--trials must be at least 1".into());
                }
                opts.trials = Some(n);
            }
            "--devices" => {
                let v = it.next().ok_or("--devices needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad --devices value".to_string())?;
                if n == 0 {
                    return Err("--devices must be at least 1".into());
                }
                opts.devices = Some(n);
            }
            "--hosts" => {
                let v = it.next().ok_or("--hosts needs a value")?;
                let n: usize = v.parse().map_err(|_| "bad --hosts value".to_string())?;
                if n == 0 {
                    return Err("--hosts must be at least 1".into());
                }
                opts.hosts = Some(n);
            }
            "--placement" => opts.placements = Some(axis(it.next(), "--placement")?),
            "--fleet-placement" => {
                opts.fleet_placements = Some(axis(it.next(), "--fleet-placement")?)
            }
            "--rebalance" => opts.rebalances = Some(axis(it.next(), "--rebalance")?),
            "--faults" => opts.faults = Some(axis(it.next(), "--faults")?),
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--csv" => {
                let v = it.next().ok_or("--csv needs a path")?;
                opts.csv = Some(PathBuf::from(v));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs exact or streaming")?;
                opts.metrics = Some(
                    MetricsMode::from_label(v)
                        .ok_or_else(|| format!("unknown metrics mode {v:?}"))?,
                );
            }
            "--sample-every" => {
                let v = it.next().ok_or("--sample-every needs a duration")?;
                let d = parse_duration(v).map_err(|e| e.to_string())?;
                if d.is_zero() {
                    return Err("--sample-every must be positive".into());
                }
                opts.sample_every = Some(d);
            }
            "--timeline" => {
                let v = it.next().ok_or("--timeline needs a path")?;
                opts.timeline = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                opts.trace_out = Some(PathBuf::from(v));
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}"));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.files.is_empty() {
        return Err("at least one scenario file required".into());
    }
    Ok(opts)
}

fn load_specs(opts: &Options) -> Result<Vec<ScenarioSpec>, String> {
    opts.files
        .iter()
        .map(|f| {
            let mut spec = toml_file(f).map_err(|e| format!("{}: {e}", f.display()))?;
            if let Some(devices) = opts.devices {
                spec.devices = devices;
                // A size override replaces any heterogeneous [[device]]
                // layout AND the interconnect timing with a flat
                // free-interconnect host of that size, so overridden
                // runs compare cleanly against other flat runs.
                spec.device_slots.clear();
                spec.interconnect = None;
            }
            if let Some(hosts) = opts.hosts {
                // A fleet-size override replaces any [[host]] layout
                // with N identical hosts of `devices` GPUs each.
                spec.hosts = hosts;
                spec.host_devices.clear();
            }
            if let Some(placements) = &opts.placements {
                spec.placements = placements.clone();
            }
            if let Some(fleet_placements) = &opts.fleet_placements {
                spec.fleet_placements = fleet_placements.clone();
            }
            if let Some(rebalances) = &opts.rebalances {
                spec.rebalances = rebalances.clone();
            }
            if let Some(faults) = &opts.faults {
                spec.fault_modes = faults.clone();
            }
            if let Some(mode) = opts.metrics {
                spec.metrics = mode;
            }
            if let Some(every) = opts.sample_every {
                spec.sample_every = Some(every);
            }
            if opts.timeline.is_some() && spec.sample_every.is_none() {
                // --timeline without an explicit cadence: 200 samples
                // across the horizon, clamped to at least one tick.
                let every = spec.horizon.mul_f64(1.0 / 200.0);
                spec.sample_every = Some(every.max(SimDuration::from_nanos(1)));
            }
            if opts.trace_out.is_some() {
                spec.capture_trace = true;
            }
            if opts.devices.is_some()
                || opts.hosts.is_some()
                || opts.placements.is_some()
                || opts.fleet_placements.is_some()
                || opts.rebalances.is_some()
                || opts.faults.is_some()
            {
                // Re-check: an override can invalidate pins or
                // pinned placements.
                spec.validate()
                    .map_err(|e| format!("{}: after overrides: {e}", f.display()))?;
            }
            Ok(spec)
        })
        .collect()
}

fn cmd_check(opts: &Options) -> ExitCode {
    match load_specs(opts) {
        Ok(specs) => {
            for spec in &specs {
                println!(
                    "{}: {} group(s), horizon {}, {} host(s) × {} device(s), \
                     {} scheduler(s) × {} placement(s) × {} fleet placement(s) × \
                     {} rebalance(s) × {} fault mode(s) × {} seed(s) = {} cells",
                    spec.name,
                    spec.groups.len(),
                    spec.horizon,
                    spec.hosts,
                    spec.devices,
                    spec.schedulers.len(),
                    spec.placements.len(),
                    spec.fleet_placements.len(),
                    spec.rebalances.len(),
                    spec.effective_fault_modes().len(),
                    spec.seeds.len(),
                    spec.cell_count(),
                );
                for g in &spec.groups {
                    let pin = match g.device {
                        Some(d) => format!(" (pinned dev{d})"),
                        None => String::new(),
                    };
                    println!(
                        "  group {:>12}: count {:>3}{pin}, {:?}",
                        g.name, g.count, g.workload
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("neon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(opts: &Options) -> ExitCode {
    let specs = match load_specs(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("neon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = match opts.threads.as_deref() {
        Some([t]) => Some(*t),
        Some(_) => {
            eprintln!("neon: run takes a single --threads value (a list is for bench)");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    if opts.trials.is_some() {
        eprintln!("neon: --trials is for bench");
        return ExitCode::FAILURE;
    }
    let cells = sweep::plan(specs);
    let outcome = if opts.serial {
        sweep::run_serial(&cells)
    } else {
        sweep::run_parallel(&cells, threads)
    };
    if !opts.quiet {
        eprintln!(
            "{} cells on {} thread(s) in {:.1} ms",
            outcome.results.len(),
            outcome.threads,
            outcome.wall.as_secs_f64() * 1e3
        );
        eprintln!("{}", emit::to_table(&outcome));
    }
    let json = emit::to_json(&outcome);
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("neon: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            if !opts.quiet {
                eprintln!("JSON written to {}", path.display());
            }
        }
        None => print!("{json}"),
    }
    if let Some(path) = &opts.csv {
        if let Err(e) = std::fs::write(path, emit::to_csv(&outcome)) {
            eprintln!("neon: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            eprintln!("CSV written to {}", path.display());
        }
    }
    if let Some(path) = &opts.timeline {
        let text = if path.extension().is_some_and(|e| e == "csv") {
            emit::timeline_csv(&outcome)
        } else {
            emit::timeline_json(&outcome)
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("neon: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            eprintln!("timeline written to {}", path.display());
        }
    }
    if let Some(path) = &opts.trace_out {
        // One JSONL stream: each cell contributes a "cell" record
        // naming its sweep coordinates, then its trace's own header
        // and entry records.
        let mut text = String::new();
        for r in &outcome.results {
            if let Some(jsonl) = &r.trace_jsonl {
                let keys = emit::cell_keys_json(r);
                text.push_str(&format!("{{\"record\": \"cell\", {keys}}}\n"));
                text.push_str(jsonl);
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("neon: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            eprintln!("trace JSONL written to {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_bench(opts: &Options) -> ExitCode {
    let specs = match load_specs(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("neon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = sweep::plan(specs);
    let trial_count = opts.trials.unwrap_or(1);
    eprintln!(
        "benchmarking {} cells: a serial warm-up, then {trial_count} trial(s)...",
        cells.len()
    );
    // The warm-up pass is not timed into the document; its results
    // carry the plan's simulated events (every run of the plan
    // simulates the same ones).
    let plan = sweep::run_serial(&cells);
    let events: u64 = plan.results.iter().map(CellResult::events).sum();
    // Each trial: a serial run, then one parallel run per requested
    // thread count (default: one run at the host's available
    // parallelism), back to back so each speedup pairs runs that saw
    // the same host conditions. Progress goes to stderr; stdout
    // carries only the JSON document (when no --out is given), so
    // `neon bench ... > file.json` works.
    let thread_counts: Vec<Option<usize>> = match &opts.threads {
        Some(list) => list.iter().map(|&t| Some(t)).collect(),
        None => vec![None],
    };
    let mut trials = Vec::with_capacity(trial_count);
    for n in 1..=trial_count {
        let mut trial = emit::BenchTrial::new(&sweep::run_serial(&cells));
        let serial_s = trial.serial.as_secs_f64();
        eprintln!(
            "  trial {n}: serial {:>9.1} ms, {:.2}M events/s",
            serial_s * 1e3,
            events as f64 / 1e6 / serial_s.max(1e-9),
        );
        for want in &thread_counts {
            let run = sweep::run_parallel(&cells, *want);
            // Per-row footprint: an instantaneous RSS sample taken as
            // this run completes, so rows don't inherit the process
            // high-water mark reached by earlier (or wider) runs.
            trial.push(&run, neon_scenario::current_rss_bytes());
            eprintln!(
                "    threads {:>2}: {:>9.1} ms, speedup {:.2}x",
                run.threads,
                run.wall.as_secs_f64() * 1e3,
                serial_s / run.wall.as_secs_f64().max(1e-9),
            );
        }
        trials.push(trial);
    }
    eprintln!("  {:.2}M simulated events per run", events as f64 / 1e6);
    // The perf-trajectory document (conventionally BENCH_core.json):
    // median events/sec and wall time with their spread, overall, per
    // thread count, and per reference scenario.
    let json = emit::bench_json(&plan, &trials);
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("neon: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("bench JSON written to {}", path.display());
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return fail("missing command");
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    match command.as_str() {
        "run" => cmd_run(&opts),
        "check" => cmd_check(&opts),
        "bench" => cmd_bench(&opts),
        other => fail(&format!("unknown command {other:?}")),
    }
}
