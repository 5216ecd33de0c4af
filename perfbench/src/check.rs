//! Correctness checks on cell results and the per-workload digest of
//! simulated statistics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use neon_core::telemetry::SimStats;
use neon_core::RunReport;
use neon_scenario::CellResult;

/// Per-host reports of a cell: every host of a fleet cell, or the one
/// world of a single-host cell. `CellResult::report` alone holds only
/// host 0 of a fleet.
pub fn host_reports(r: &CellResult) -> &[RunReport] {
    match &r.fleet {
        Some(fleet) => &fleet.hosts,
        None => std::slice::from_ref(&r.report),
    }
}

/// Simulated events of a cell, summed over all hosts.
pub fn events(r: &CellResult) -> u64 {
    host_reports(r).iter().map(|h| h.events).sum()
}

/// Run-wide structured counters of a cell, merged over all hosts.
pub fn stats(r: &CellResult) -> SimStats {
    let mut all = SimStats::new();
    for h in host_reports(r) {
        all.merge(&h.stats);
    }
    all
}

/// FNV-1a over bytes.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A hash of everything a cell simulated: its summary without the two
/// host-measured fields (wall time and process RSS), and each host's
/// event count and counters.
pub fn fingerprint(r: &CellResult) -> u64 {
    let mut summary = r.summary.clone();
    summary.elapsed = std::time::Duration::ZERO;
    summary.peak_rss_bytes = None;
    let mut text = format!("{summary:?}");
    for h in host_reports(r) {
        let _ = write!(text, "|{}|{:?}|{:?}", h.events, h.stats, h.wall);
    }
    fnv(FNV_OFFSET, text.as_bytes())
}

/// The conservation rules a finished cell must satisfy. Every admitted
/// task sits in exactly one outcome bucket (finished, killed, or still
/// resident); a killed task carries its kill instant; no task completes
/// more requests than it submitted; no host runs past the horizon.
pub fn conservation(r: &CellResult) -> Result<(), String> {
    let s = &r.summary;
    let mut tasks = 0usize;
    let (mut finished, mut killed, mut resident) = (0usize, 0usize, 0usize);
    for h in host_reports(r) {
        if h.wall > s.horizon {
            return Err(format!(
                "host ran to {:?} past horizon {:?}",
                h.wall, s.horizon
            ));
        }
        for t in &h.tasks {
            tasks += 1;
            if t.killed {
                if t.finished_at.is_none() {
                    return Err(format!("killed task {} has no kill instant", t.id));
                }
                killed += 1;
            } else if t.finished_at.is_some() {
                finished += 1;
            } else {
                resident += 1;
            }
            if t.completed_requests > t.submitted_requests {
                return Err(format!("task {} completed more than it submitted", t.id));
            }
        }
    }
    if tasks != finished + killed + resident || s.admitted != tasks {
        return Err(format!(
            "admitted {} but buckets hold {finished} finished + {killed} killed + {resident} resident",
            s.admitted
        ));
    }
    if s.departed != finished || s.killed != killed {
        return Err(format!(
            "summary says {} departed / {} killed, reports say {finished} / {killed}",
            s.departed, s.killed
        ));
    }
    Ok(())
}

/// Every simulated statistic of a workload pass, summed over its cells
/// by name, plus a hash over the per-cell fingerprints. Deterministic
/// for a given seed; host time never enters it.
pub fn digest(results: &[CellResult]) -> BTreeMap<String, String> {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut add = |name: &str, v: u64| *sums.entry(name.to_string()).or_default() += v;
    let mut cells = FNV_OFFSET;
    let (mut util, mut fair) = (0.0f64, 0.0f64);
    for r in results {
        let s = &r.summary;
        for (key, v) in stats(r).iter() {
            add(neon_metrics::CounterKey::label(key), v);
        }
        add("admitted", s.admitted as u64);
        add("rejected", s.rejected);
        add("departed", s.departed as u64);
        add("killed", s.killed as u64);
        add("total_rounds", s.total_rounds);
        add("completed_requests", s.completed_requests);
        add("migrations", s.migrations);
        add("cross_host_migrations", s.cross_host_migrations);
        add("fleet_rejected", s.fleet_rejected);
        add("transfer_stall_ns", s.transfer_stall.as_nanos());
        add("round_p99_ns_sum", s.round_p99.as_nanos());
        util += s.utilization;
        fair += s.fairness;
        cells = fnv(cells, &fingerprint(r).to_le_bytes());
    }
    let n = results.len().max(1) as f64;
    let mut out: BTreeMap<String, String> =
        sums.into_iter().map(|(k, v)| (k, v.to_string())).collect();
    out.insert("cells".into(), results.len().to_string());
    out.insert("mean_utilization".into(), format!("{:.9}", util / n));
    out.insert("mean_fairness".into(), format!("{:.9}", fair / n));
    out.insert("cell_hash".into(), format!("{cells:016x}"));
    out
}

/// Renders a digest as one `name=value` list on a line.
pub fn render_digest(d: &BTreeMap<String, String>) -> String {
    d.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Names whose values differ between a digest and the recorded one.
pub fn digest_mismatches(
    got: &BTreeMap<String, String>,
    recorded: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut names: Vec<&String> = got.keys().chain(recorded.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|k| got.get(*k) != recorded.get(*k))
        .map(|k| {
            format!(
                "{k}: recorded {} got {}",
                recorded.get(k).map_or("-", |v| v),
                got.get(k).map_or("-", |v| v)
            )
        })
        .collect()
}

/// The digests recorded for the default seed, one line per workload:
/// `<workload> name=value name=value ...`.
pub fn recorded_digest(workload: &str) -> Option<BTreeMap<String, String>> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let (name, rest) = line.split_once(' ')?;
        (name == workload).then(|| {
            rest.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
    })
}
