//! Golden hashes of what the scenario driver emits: every sub-second
//! example scenario runs through the serial sweep runner, and the FNV
//! hash of its JSON and CSV — host-timing fields removed — must stay
//! fixed. A refactor of the driver, the sweep runner or the fleet layer
//! that changes a single emitted byte fails here.

use disengaged_scheduling::core::fault::FaultMode;
use disengaged_scheduling::core::fleet::FleetPlacementKind;
use disengaged_scheduling::scenario::{emit, from_toml, sweep, ScenarioSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Host-timing fields: the only output that may differ between runs.
const TIMING: [&str; 3] = ["elapsed_ms", "peak_rss_bytes", "wall_ms"];

/// The JSON with every timing field's value removed.
fn strip_json(json: &str) -> String {
    let mut out = json.to_string();
    for key in TIMING {
        let pattern = format!("\"{key}\": ");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at + pattern.len();
            let len = out[start..]
                .find([',', '}'])
                .expect("a JSON value ends at a comma or brace");
            out.replace_range(start..start + len, "");
            from = start;
        }
    }
    out
}

/// The CSV with every timing column removed.
fn strip_csv(csv: &str) -> String {
    let header = csv.lines().next().expect("CSV has a header");
    let keep: Vec<bool> = header.split(',').map(|h| !TIMING.contains(&h)).collect();
    csv.lines()
        .map(|l| {
            l.split(',')
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(c, _)| c)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn example(name: &str) -> ScenarioSpec {
    let path = format!(
        "{}/examples/scenarios/{name}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("example scenario exists");
    let spec = from_toml(&text, name).expect("example scenario parses");
    spec.validate().expect("example scenario validates");
    spec
}

/// (JSON hash, CSV hash) of one scenario's serial sweep.
fn hashes(spec: ScenarioSpec) -> (u64, u64) {
    let outcome = sweep::run_serial(&sweep::plan([spec]));
    let json = strip_json(&emit::to_json(&outcome));
    assert!(
        json.contains("\"elapsed_ms\": ,"),
        "timing fields must be stripped, not the whole row"
    );
    (
        fnv1a(json.as_bytes()),
        fnv1a(strip_csv(&emit::to_csv(&outcome)).as_bytes()),
    )
}

#[test]
fn stripping_removes_only_timing_values() {
    let json = "{\"a\": 1, \"elapsed_ms\": 2.5, \"peak_rss_bytes\": null}";
    assert_eq!(
        strip_json(json),
        "{\"a\": 1, \"elapsed_ms\": , \"peak_rss_bytes\": }"
    );
    let csv = "x,elapsed_ms,y,peak_rss_bytes\n1,2.5,3,4\n";
    assert_eq!(strip_csv(csv), "x,y\n1,3");
}

#[test]
fn sub_second_examples_emit_pinned_bytes() {
    let mut faulty = example("faulty_rack");
    faulty.fault_modes = vec![FaultMode::None, FaultMode::All];
    let mut churn_fleet = example("churn");
    churn_fleet.hosts = 2;
    churn_fleet.fleet_placements = FleetPlacementKind::ALL.to_vec();
    let cases = [
        (
            "adversary_midrun",
            example("adversary_midrun"),
            (0x9ee735da90efd1fc, 0xf1a26dc861cbf2e6),
        ),
        (
            "churn",
            example("churn"),
            (0xb6a3b86234414a82, 0x45543f5c4bbb6cec),
        ),
        (
            "faulty_rack none,all",
            faulty,
            (0x5d6a540797ba401a, 0x599daa7b7ab78122),
        ),
        (
            "hetero_gpu",
            example("hetero_gpu"),
            (0x64f6751337ab9c32, 0x47f2c7109f67f1dd),
        ),
        (
            "multi_gpu",
            example("multi_gpu"),
            (0x70f793bfee151b0a, 0x2bdbda927a259683),
        ),
        (
            "poisson_burst",
            example("poisson_burst"),
            (0xefcb9a3ddb902525, 0x49328977f9f4a8fd),
        ),
        (
            "churn hosts=2 all fleet placements",
            churn_fleet,
            (0x1876fe399d5b3d34, 0x18d48636b646134a),
        ),
    ];
    let mut drift = Vec::new();
    for (name, spec, expected) in cases {
        let got = hashes(spec);
        if got != expected {
            drift.push(format!(
                "{name}: got ({:#018x}, {:#018x}), pinned ({:#018x}, {:#018x})",
                got.0, got.1, expected.0, expected.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "emitted bytes drifted:\n{}",
        drift.join("\n")
    );
}
