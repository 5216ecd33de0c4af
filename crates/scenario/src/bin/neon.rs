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
//! ```
//!
//! - `run` executes every (scenario × scheduler × placement × fleet
//!   placement × rebalance × seed) cell — in parallel by default —
//!   prints a summary table, and emits the JSON document (stdout, or
//!   `--out`).
//! - `check` parses and validates files and prints the expanded plan.
//!   The loader rejects unknown or misplaced keys outright (with a
//!   "did you mean" hint).
//!
//! `neon` times nothing beyond the run's own wall clock: the repo's one
//! benchmark is `perfbench/` (`python3 perfbench/run.py`), which times
//! these same sweeps serially and on two threads.
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
use neon_scenario::{emit, parse_axis, parse_duration, sweep, toml_file, Labeled, ScenarioSpec};
use neon_sim::SimDuration;

struct Options {
    files: Vec<PathBuf>,
    serial: bool,
    threads: Option<usize>,
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
                let n: usize = v.parse().map_err(|_| "bad --threads value".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(n);
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
                // pinned placements, or size a cell past its bound.
                spec.check_size()
                    .and_then(|()| spec.validate())
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
    let cells = sweep::plan(specs);
    let outcome = if opts.serial {
        sweep::run_serial(&cells)
    } else {
        sweep::run_parallel(&cells, opts.threads)
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
        other => fail(&format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_overrides_past_the_cell_bound_are_refused_at_load() {
        // An override sizes per-device state too: past the bound a run
        // aborts allocating, so the re-check must refuse it.
        let churn = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/churn.toml"
        );
        for (flag, key) in [("--devices", "devices"), ("--hosts", "hosts")] {
            let args = [churn, flag, "4294967296"].map(String::from);
            let opts = parse_options(&args).expect("the flags parse");
            let e = load_specs(&opts).expect_err("a 2^32-device cell is refused");
            assert!(e.contains(&format!("{key} = 4294967296")), "{e}");
        }
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().copied().map(String::from).collect::<Vec<_>>())
    }

    /// The error `args` are refused with.
    fn refusal(args: &[&str]) -> String {
        match parse(args) {
            Ok(_) => panic!("{args:?} parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn threads_takes_one_positive_count() {
        let opts = parse(&["a.toml", "--threads", "2"]).expect("one count parses");
        assert_eq!(opts.threads, Some(2));
        let zero = refusal(&["a.toml", "--threads", "0"]);
        assert_eq!(zero, "--threads must be at least 1");
        let list = refusal(&["a.toml", "--threads", "1,2"]);
        assert_eq!(list, "bad --threads value");
    }

    #[test]
    fn trials_is_an_unknown_flag() {
        assert_eq!(
            refusal(&["a.toml", "--trials", "3"]),
            "unknown flag --trials"
        );
    }
}
