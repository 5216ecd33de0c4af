//! Figure 6: performance and fairness of concurrent executions.
//!
//! Four application-pair families (DCT, FFT, glxgears, oclParticles —
//! each vs Throttle at several request sizes) × four schedulers. The
//! reported number is each co-runner's runtime normalized to running
//! alone with direct device access. Direct access shows severe
//! unfairness in both directions; the paper's schedulers hold each
//! co-runner near 2×.
//!
//! The matrix is embarrassingly parallel, so this harness rides
//! `neon-scenario`'s sweep runner: standalone baselines and every
//! (app, size, scheduler) mix are independent deterministic cells
//! fanned out across OS threads. Mixes are static all-at-start
//! scenarios, which take the classic admission path — results are
//! identical to running each mix on one bare `World` (tested below
//! against the test-only `pairwise::reference_compare`).

use neon_core::cost::SchedParams;
use neon_core::sched::SchedulerKind;
use neon_core::workload::BoxedWorkload;
use neon_metrics::Table;
use neon_scenario::{sweep, ScenarioSpec, TenantGroup, WorkloadSpec};
use neon_sim::SimDuration;
use neon_workloads::{app, throttle};

use crate::pairwise;

/// Configuration of the Figure 6 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Horizon of each concurrent run.
    pub horizon: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Throttle request sizes (defaults to the paper's 19 µs – 1.7 ms).
    pub throttle_sizes: Vec<SimDuration>,
    /// Schedulers (defaults to the paper's four columns).
    pub schedulers: Vec<SchedulerKind>,
    /// Application families (defaults to the paper's four rows).
    pub apps: Vec<AppFamily>,
}

/// The application side of a Figure 6 pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppFamily {
    /// DCT vs Throttle (row 1).
    Dct,
    /// FFT vs Throttle (row 2).
    Fft,
    /// glxgears (OpenGL) vs Throttle (row 3).
    Glxgears,
    /// oclParticles (OpenGL + OpenCL) vs Throttle (row 4).
    OclParticles,
}

impl AppFamily {
    /// All four rows of the figure.
    pub const ALL: [AppFamily; 4] = [
        AppFamily::Dct,
        AppFamily::Fft,
        AppFamily::Glxgears,
        AppFamily::OclParticles,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppFamily::Dct => "DCT",
            AppFamily::Fft => "FFT",
            AppFamily::Glxgears => "glxgears",
            AppFamily::OclParticles => "oclParticles",
        }
    }

    /// Builds the workload.
    pub fn build(self) -> BoxedWorkload {
        match self {
            AppFamily::Dct => Box::new(app::dct()),
            AppFamily::Fft => Box::new(app::fft()),
            AppFamily::Glxgears => Box::new(app::glxgears_model()),
            AppFamily::OclParticles => Box::new(app::ocl_particles_model()),
        }
    }

    /// `true` for combined compute+graphics applications, which the
    /// paper samples with a larger request budget (96 vs 32).
    pub fn is_combined(self) -> bool {
        matches!(self, AppFamily::OclParticles)
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            horizon: pairwise::MIX_HORIZON,
            seed: pairwise::DEFAULT_SEED,
            throttle_sizes: throttle::figure6_sizes(),
            schedulers: SchedulerKind::PAPER.to_vec(),
            apps: AppFamily::ALL.to_vec(),
        }
    }
}

/// One cell of the figure: an (app, throttle size, scheduler) triple.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application family.
    pub app: &'static str,
    /// Throttle request size.
    pub throttle_size: SimDuration,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Application runtime normalized to running alone.
    pub app_slowdown: f64,
    /// Throttle runtime normalized to running alone.
    pub throttle_slowdown: f64,
    /// Concurrency efficiency of the run (consumed by Figure 7).
    pub efficiency: f64,
}

fn app_group(family: AppFamily) -> TenantGroup {
    TenantGroup::new(
        family.name(),
        WorkloadSpec::App {
            name: family.name().to_string(),
        },
    )
}

/// Runs the full sweep through the parallel sweep runner: one block of
/// standalone direct-access baselines, then one scenario per
/// (app, size) pair whose scheduler axis is the figure's columns.
pub fn run(cfg: &Config) -> Vec<Row> {
    // Standalone baselines, one single-cell scenario per distinct
    // workload (apps first, then throttle sizes).
    let mut specs: Vec<ScenarioSpec> = cfg
        .apps
        .iter()
        .map(|&family| app_group(family))
        .chain(
            cfg.throttle_sizes
                .iter()
                .map(|&size| pairwise::throttle_group(size, 0.0)),
        )
        .map(|g| pairwise::baseline(g, cfg.seed))
        .collect();
    // The mixes: scenario-major over (app, size), scheduler-minor.
    for &family in &cfg.apps {
        for &size in &cfg.throttle_sizes {
            let mut spec = ScenarioSpec::new(format!("{}+{size}", family.name()), cfg.horizon)
                .seeds(vec![cfg.seed])
                .schedulers(cfg.schedulers.clone())
                .group(app_group(family))
                .group(pairwise::throttle_group(size, 0.0));
            if family.is_combined() {
                // Combined compute+graphics applications get the larger
                // sampling budget the paper uses (96 vs 32 requests).
                spec = spec.params(SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                });
            }
            specs.push(spec);
        }
    }
    let cells = sweep::plan(specs);
    let outcome = sweep::run_parallel(&cells, None);

    // Baselines occupy the first |apps| + |sizes| cells, in push order.
    let alone = |cell: usize| pairwise::mean_round(&outcome.results[cell].report, 0);
    let mix_base = cfg.apps.len() + cfg.throttle_sizes.len();
    let per_pair = cfg.schedulers.len();

    let mut rows = Vec::new();
    for (i, &family) in cfg.apps.iter().enumerate() {
        for (j, &size) in cfg.throttle_sizes.iter().enumerate() {
            let baselines = [alone(i), alone(cfg.apps.len() + j)];
            for (k, &scheduler) in cfg.schedulers.iter().enumerate() {
                let cell = mix_base + (i * cfg.throttle_sizes.len() + j) * per_pair + k;
                let concurrent = pairwise::concurrent_rounds(&outcome.results[cell].report);
                let (slowdowns, efficiency) = pairwise::compare(&baselines, &concurrent);
                rows.push(Row {
                    app: family.name(),
                    throttle_size: size,
                    scheduler,
                    app_slowdown: slowdowns[0],
                    throttle_slowdown: slowdowns[1],
                    efficiency,
                });
            }
        }
    }
    rows
}

/// Renders the normalized-runtime table.
pub fn render(rows: &[Row]) -> String {
    let mut table = Table::new(vec![
        "pair".into(),
        "scheduler".into(),
        "app slowdown".into(),
        "Throttle slowdown".into(),
    ]);
    for r in rows {
        table.row(vec![
            format!("{} vs Throttle({})", r.app, r.throttle_size),
            r.scheduler.label().into(),
            format!("{:.2}x", r.app_slowdown),
            format!("{:.2}x", r.throttle_slowdown),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_core::world::WorldConfig;

    /// A reduced sweep used by the heavier assertions in
    /// `tests/figures.rs`; here we only sanity-check plumbing.
    #[test]
    fn single_cell_runs() {
        let cfg = Config {
            horizon: SimDuration::from_millis(400),
            throttle_sizes: vec![SimDuration::from_micros(430)],
            schedulers: vec![SchedulerKind::Direct],
            apps: vec![AppFamily::Dct],
            ..Config::default()
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 1);
        // Direct access vs a large-request Throttle starves DCT.
        assert!(rows[0].app_slowdown > 3.0);
    }

    #[test]
    fn sweep_runner_port_matches_the_serial_pairwise_path() {
        // The scenario-backed run() must reproduce the bare-World
        // reference exactly, including the oclParticles sampling-budget
        // override (static cells take the same admission path and
        // seed).
        let size = SimDuration::from_micros(430);
        let cfg = Config {
            horizon: SimDuration::from_millis(500),
            throttle_sizes: vec![size],
            schedulers: vec![SchedulerKind::DisengagedFairQueueing],
            apps: vec![AppFamily::Dct, AppFamily::OclParticles],
            ..Config::default()
        };
        let rows = run(&cfg);

        for (row, family) in rows.iter().zip(cfg.apps.iter()) {
            let params = if family.is_combined() {
                SchedParams {
                    sampling_requests: 96,
                    ..SchedParams::default()
                }
            } else {
                SchedParams::default()
            };
            let config = WorldConfig {
                params,
                seed: cfg.seed,
                ..WorldConfig::default()
            };
            let (_, slowdowns, efficiency) = pairwise::reference_compare(
                SchedulerKind::DisengagedFairQueueing,
                config,
                vec![family.build(), Box::new(throttle::saturating(size))],
                cfg.horizon,
                pairwise::ALONE_HORIZON,
            );
            assert_eq!(row.app_slowdown, slowdowns[0], "{}", row.app);
            assert_eq!(row.throttle_slowdown, slowdowns[1], "{}", row.app);
            assert_eq!(row.efficiency, efficiency, "{}", row.app);
        }
    }
}
