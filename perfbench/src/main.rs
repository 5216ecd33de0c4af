//! The simulator's benchmark. `run.py` builds this binary and runs it
//! in separate processes per mode, so the end-to-end process never
//! holds the traced run or the layer microbenchmarks:
//!
//! - `e2e`: the six end-to-end metrics of one workload, untraced.
//! - `trace`: the same workload with spans around every call into the
//!   program, giving the per-layer metrics measured on that workload.
//! - `layers`: microbenchmarks of single layers, and layer metrics
//!   taken on the workload each layer belongs to.
//! - `telemetry`: one long-tenant pass in a given metrics mode, in a
//!   process of its own so its peak RSS is its own (spawned by
//!   `layers`).
//!
//! Every mode prints one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`, each metric with its value and unit.

mod check;
mod layers;
mod measure;
mod reference;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

pub struct Args {
    pub mode: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub metrics_mode: String,
    pub out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: perfbench <e2e|trace|layers|telemetry> [options]")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        tiny: false,
        metrics_mode: "streaming".into(),
        out: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--metrics" => args.metrics_mode = value,
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What every mode reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

/// The budget of a run, from `--seconds`.
pub fn budget(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds)
}

fn main() {
    let result = parse_args().and_then(|args| {
        let report = match args.mode.as_str() {
            "e2e" => measure::end_to_end(&args),
            "trace" => measure::traced(&args),
            "layers" => layers::run(&args),
            "telemetry" => layers::telemetry(&args),
            other => Err(format!("unknown mode {other}")),
        }?;
        report.to_json()
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
