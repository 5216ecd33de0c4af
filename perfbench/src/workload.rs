//! The benchmark's workloads. Their scenario text lives in
//! `perfbench/workloads/` and is compiled into the binary, so editing
//! the repository's `examples/scenarios/` cannot change what is
//! measured. The only input that varies is the seed list, which is
//! derived from `--seed` and prepended to each scenario's text.

use neon_scenario::ScenarioSpec;
use neon_sim::SimDuration;

/// The seed whose simulated-statistics digest is recorded in
/// `perfbench/digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// One scenario shape of a workload.
pub struct Shape {
    pub file: &'static str,
    pub text: &'static str,
}

macro_rules! shape {
    ($file:literal) => {
        Shape {
            file: $file,
            text: include_str!(concat!("../workloads/", $file)),
        }
    };
}

const SWEEP_MIX: &[Shape] = &[
    shape!("churn.toml"),
    shape!("hetero_gpu.toml"),
    shape!("multi_gpu.toml"),
    shape!("adversary_midrun.toml"),
    shape!("poisson_burst.toml"),
    shape!("faulty_rack.toml"),
];
const LONG_TENANT: &[Shape] = &[shape!("long_tenant.toml")];
const FLEET_RACK: &[Shape] = &[shape!("fleet_rack.toml")];

/// A named workload: its shapes and how many cell seeds each shape
/// runs per pass.
pub struct Workload {
    pub name: &'static str,
    shapes: &'static [Shape],
    seeds_per_shape: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sweep-mix",
        shapes: SWEEP_MIX,
        seeds_per_shape: 3,
    },
    Workload {
        name: "long-tenant",
        shapes: LONG_TENANT,
        seeds_per_shape: 1,
    },
    Workload {
        name: "fleet-rack",
        shapes: FLEET_RACK,
        seeds_per_shape: 1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: a fixed, well-mixed map from the benchmark seed to the
/// cells' seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The inputs of one benchmark run: every shape's scenario text with
/// its seed list, ready for `from_toml`.
pub struct Inputs {
    pub texts: Vec<(&'static str, String)>,
    /// Tiny runs shrink every horizon so the self-test finishes fast.
    pub tiny: bool,
}

impl Workload {
    pub fn inputs(&self, seed: u64, tiny: bool) -> Inputs {
        let per_shape = if tiny { 1 } else { self.seeds_per_shape };
        let texts = self
            .shapes
            .iter()
            .enumerate()
            .map(|(si, shape)| {
                let seeds: Vec<String> = (0..per_shape)
                    .map(|i| {
                        let mix = splitmix(seed ^ splitmix((si * 64 + i) as u64));
                        (mix >> 33).to_string()
                    })
                    .collect();
                let text = format!("seeds = [{}]\n{}", seeds.join(", "), shape.text);
                (shape.file, text)
            })
            .collect();
        Inputs { texts, tiny }
    }
}

impl Inputs {
    /// Applies the tiny-run horizon cut to a parsed spec. Full-size
    /// runs leave the spec as written.
    pub fn scale(&self, spec: &mut ScenarioSpec) {
        if self.tiny {
            spec.horizon = SimDuration::from_micros_f64(spec.horizon.as_micros_f64() / 20.0);
        }
    }
}
