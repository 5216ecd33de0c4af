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

/// Every key the loader accepts, set in one single-host scenario: the
/// host topology, per-group overrides and the device/task fault kinds.
const EVERY_HOST_KEY: &str = r#"
name = "every-host-key"
horizon = "40ms"
seeds = [3, 4]
schedulers = "paper"
devices = 2
placement = ["least-loaded", "pinned:1"]
rebalance = ["off", "cost"]
faults = ["none", "all"]
metrics = "streaming"
sample_every = "2ms"
params.timeslice = "15ms"
params.sampling_max = "4ms"
params.sampling_requests = 40
params.freerun_multiplier = 3
params.freerun_min = "2ms"
params.freerun_max = "60ms"
params.overlong_limit = "900ms"
params.hardware_preemption = true
cost.direct_submit = "300ns"
cost.fault_intercept = "4us"
cost.syscall_submit = "1500ns"
cost.driver_processing = "2us"
cost.completion_detect = "700ns"
cost.polling_period = "800us"
cost.poll_scan = "3us"
cost.kill_cleanup = "90us"
topology.interconnect = "pcie-gen3"
topology.same_switch_gbps = 10.0
topology.cross_pcie_gbps = 8
topology.cross_numa_gbps = 4.5
topology.same_switch_latency = "2us"
topology.cross_pcie_latency = "4us"
topology.cross_numa_latency = "9us"
fault.watchdog = "5ms"
fault.retry_budget = 2
fault.backoff_base = "100us"
fault.backoff_cap = "3ms"
fault.max_park_retries = 4

[[device]]
channels = 64
contexts = 32
ring = 512
context_switch = "30us"
graphics_cooldown = "1ms"
numa = 0
switch = 0

[[device]]
numa = 1
switch = 1

[[group]]
name = "throttled"
count = 2
workload = "throttle"
request = "300us"
off_ratio = 0.25
jitter = 0.1
arrival = "stagger"
stagger = "1ms"
lifetime = "exp(20ms)"
device = 0
working_set = "64MB"
params.sampling_requests = 48

[[group]]
name = "looper"
count = 2
workload = "fixed-loop"
service = "90us"
gap = "5us"
rounds = 400
arrival = "at"
times = ["0ms", "3ms"]
lifetime = "30ms"

[[group]]
name = "app"
workload = "app"
app = "DCT"
arrival = "poisson"
rate_hz = 80.0
arrival_start = "2ms"

[[group]]
name = "batcher"
workload = "batcher"
batch = "2ms"

[[group]]
name = "burst"
workload = "idle-burst"
idle = "4ms"
burst_requests = 16
request = "100us"

[[group]]
name = "spinner"
workload = "infinite-loop"
warmup_rounds = 20
request = "200us"
lifetime = "forever"

[[fault]]
at = "5ms"
kind = "device-remove"
device = 1

[[fault]]
at = "15ms"
kind = "device-add"
device = 1

[[fault]]
at = "7ms"
kind = "hang"
task = 0

[[fault]]
at = "9ms"
kind = "crash"

[[fault]]
at = "11ms"
kind = "submit-error"
task = 1
"#;

/// The fleet half of the key set: host layout, fleet axes, the cluster
/// network and the host fault kinds.
const EVERY_FLEET_KEY: &str = r#"
name = "every-fleet-key"
horizon = "30ms"
hosts = 2
fleet_placement = "all"
fleet_rebalance = "count-diff"
cluster.network = "25g"
cluster.latency = "40us"
cluster.gbps = 12.5

[[host]]
devices = 2

[[host]]
devices = 1

[[group]]
workload = "throttle"
request = "250us"
count = 4

[[fault]]
at = "10ms"
kind = "host-fail"
host = 1

[[fault]]
at = "20ms"
kind = "host-recover"
host = 1
"#;

/// The loaded spec, as its `Debug` text, of every example scenario and
/// of two fixtures that between them set every key the loader accepts.
/// A loader refactor that reads one key differently fails here.
#[test]
fn loaded_specs_are_pinned() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter_map(|n| n.strip_suffix(".toml").map(str::to_string))
        .collect();
    names.sort();
    let mut got: Vec<(String, u64)> = names
        .iter()
        .map(|n| (n.clone(), fnv1a(format!("{:?}", example(n)).as_bytes())))
        .collect();
    for (name, text) in [
        ("every-host-key", EVERY_HOST_KEY),
        ("every-fleet-key", EVERY_FLEET_KEY),
    ] {
        let spec = from_toml(text, name).expect("fixture parses");
        got.push((name.to_string(), fnv1a(format!("{spec:?}").as_bytes())));
    }
    let pinned = [
        ("adversary_midrun", 0x7a78eb548ab865cf),
        ("churn", 0x8943298cd340265c),
        ("faulty_rack", 0x4d1cd3ed56a165e3),
        ("fleet_churn", 0xca2b673feaa7f5a2),
        ("fleet_rack", 0x42b5dd3a8c04ec2a),
        ("hetero_gpu", 0xea7f1dcd0122fcba),
        ("multi_gpu", 0x790662399936e12c),
        ("poisson_burst", 0xb18b92721699baed),
        ("every-host-key", 0x1b360019a57676fe),
        ("every-fleet-key", 0x86c14eb1dba3cca0),
    ];
    let got_text: Vec<String> = got
        .iter()
        .map(|(n, h)| format!("(\"{n}\", {h:#018x}),"))
        .collect();
    assert_eq!(
        got.iter()
            .map(|(n, h)| (n.as_str(), *h))
            .collect::<Vec<_>>(),
        pinned.to_vec(),
        "loaded specs drifted; now:\n{}",
        got_text.join("\n")
    );
}

/// The timeline JSON and CSV of one example run with the sampler on.
#[test]
fn timeline_outputs_are_pinned() {
    let mut spec = example("churn");
    spec.schedulers.truncate(3);
    spec.sample_every = Some(disengaged_scheduling::sim::SimDuration::from_millis(20));
    let outcome = sweep::run_serial(&sweep::plan([spec]));
    let got = (
        fnv1a(emit::timeline_json(&outcome).as_bytes()),
        fnv1a(emit::timeline_csv(&outcome).as_bytes()),
    );
    assert_eq!(
        got,
        (0x4b37e4c7f9afe311, 0x864f362ef4663bf2),
        "timeline bytes drifted: ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

/// The summary table of a multi-device, a fleet and a faulted sweep,
/// with the host-time `ms` column zeroed.
#[test]
fn tables_are_pinned() {
    let mut churn_fleet = example("churn");
    churn_fleet.hosts = 2;
    churn_fleet.fleet_placements = FleetPlacementKind::ALL.to_vec();
    let cases = [
        ("multi_gpu", example("multi_gpu"), 0x5e17285adf6f82f9),
        ("churn hosts=2", churn_fleet, 0xaa15f09f2773e50d),
        ("faulty_rack", example("faulty_rack"), 0x59d1c524825f0844),
    ];
    let mut drift = Vec::new();
    for (name, spec, expected) in cases {
        let mut outcome = sweep::run_serial(&sweep::plan([spec]));
        for r in &mut outcome.results {
            r.summary.elapsed = std::time::Duration::ZERO;
        }
        let got = fnv1a(emit::to_table(&outcome).as_bytes());
        if got != expected {
            drift.push(format!("{name}: got {got:#018x}, pinned {expected:#018x}"));
        }
    }
    assert!(drift.is_empty(), "tables drifted:\n{}", drift.join("\n"));
}
