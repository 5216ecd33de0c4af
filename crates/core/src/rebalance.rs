//! Departure-triggered rebalancing policies for multi-device worlds.
//!
//! When a tenant departs, the populations left behind may be lopsided:
//! one device crowded, a sibling idle. Whether moving a task *pays* is
//! a policy question — the move tears down device state and, on a
//! cost-bearing [`Topology`], stalls the task for a working-set
//! transfer whose price depends on the link tier between the devices.
//! Mirroring [`crate::placement::Placement`], a [`Rebalance`] policy
//! sees the same kernel-observable [`DeviceLoad`] snapshots (plus the
//! movable candidates and the topology's transfer pricing) and either
//! names one migration or declines.
//!
//! Three policies ship:
//!
//! - [`Off`] — never migrate (the default).
//! - [`CountDiff`] — the original heuristic: move one task from the
//!   most- to the least-populated device whenever the tenant counts
//!   differ by ≥ 2. Charge-blind: it consults only populations, never
//!   what the move costs, so a departure storm on a heterogeneous
//!   topology can shuttle the same task across a cross-NUMA link
//!   repeatedly. Kept as the measurable baseline; byte-identical to
//!   the pre-subsystem boolean rebalance toggle when it was on.
//! - [`CostAware`] — the paper's "measure, then act only when it
//!   pays" premise (§4's disengagement applied to migration): move
//!   only when the observed queueing-delay gain, amortized over a
//!   payback window and damped by a hysteresis factor, exceeds the
//!   working-set transfer cost — and never re-move a task inside its
//!   cooldown window (no ping-pong).
//!
//! Policies are deterministic: equal inputs produce equal choices, so
//! multi-device simulations stay reproducible per seed.

use neon_gpu::{DeviceId, TaskId, Topology};
use neon_sim::{SimDuration, SimTime};

use crate::placement::DeviceLoad;

/// A live, unpinned task the world would allow a policy to move, with
/// the attributes migration pricing needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCandidate {
    /// The task.
    pub task: TaskId,
    /// The device it currently lives on.
    pub from: DeviceId,
    /// Channels the task holds (what the target must fit).
    pub channels: usize,
    /// Device-resident working-set size in bytes — what a migration
    /// moves across the interconnect.
    pub working_set: u64,
    /// When the task last migrated, if ever (recency signal for
    /// ping-pong suppression).
    pub last_migrated: Option<SimTime>,
}

/// One migration a policy asks the world to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The task to move.
    pub task: TaskId,
    /// The device to move it to.
    pub to: DeviceId,
}

/// A departure-triggered rebalancing policy.
///
/// After every departure on a multi-device world, the world hands the
/// policy the current [`DeviceLoad`] snapshot (device-id order), the
/// movable candidates (task-id order; pinned and dead tasks are
/// already excluded), and the topology for transfer pricing. The
/// policy returns at most one migration; the world verifies the plan
/// before executing it (live unpinned task, real target with room) and
/// refuses unsound or same-device plans with a traced no-op instead of
/// tearing anything down.
pub trait Rebalance: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// `false` if the policy never migrates — lets the world skip
    /// building snapshots on the departure path entirely.
    fn active(&self) -> bool {
        true
    }

    /// Picks at most one migration given the post-departure state.
    fn plan(
        &mut self,
        now: SimTime,
        topology: &Topology,
        loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration>;

    /// Cumulative `(vetoed, cooled_down)` decision counts: candidate
    /// moves the policy rejected on cost grounds, and candidates it
    /// skipped because they migrated too recently. The world folds
    /// these into [`SimStats`](crate::telemetry::SimStats) at report
    /// time. Policies that never veto (the default) report zeros.
    fn decision_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The most- and least-populated devices, exactly as the legacy
/// heuristic chose them: first index wins ties in both directions.
fn extremes(loads: &[DeviceLoad]) -> (usize, usize) {
    let mut max_i = 0;
    let mut min_i = 0;
    for (i, l) in loads.iter().enumerate() {
        if l.tenants > loads[max_i].tenants {
            max_i = i;
        }
        if l.tenants < loads[min_i].tenants {
            min_i = i;
        }
    }
    (max_i, min_i)
}

/// Never migrates.
#[derive(Debug, Default)]
pub struct Off;

impl Rebalance for Off {
    fn name(&self) -> &'static str {
        "off"
    }

    fn active(&self) -> bool {
        false
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _topology: &Topology,
        _loads: &[DeviceLoad],
        _candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        None
    }
}

/// The original count-difference heuristic: when the most- and
/// least-populated devices differ by ≥ 2 tenants, move the
/// most-recently admitted movable task from the former to the latter
/// (if it fits). Consults populations only — transfer costs are
/// charged but never weighed.
#[derive(Debug, Default)]
pub struct CountDiff;

impl Rebalance for CountDiff {
    fn name(&self) -> &'static str {
        "count-diff"
    }

    fn plan(
        &mut self,
        _now: SimTime,
        _topology: &Topology,
        loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        let (max_i, min_i) = extremes(loads);
        if loads[max_i].tenants < loads[min_i].tenants + 2 {
            return None;
        }
        let target = &loads[min_i];
        candidates
            .iter()
            .rev()
            .find(|c| c.from == loads[max_i].device && target.fits(c.channels))
            .map(|c| Migration {
                task: c.task,
                to: target.device,
            })
    }
}

/// Cost-aware rebalancing: migrate only when it pays.
///
/// On the same ≥ 2 population-imbalance trigger as [`CountDiff`], the
/// policy estimates what a move would buy per round — the difference
/// between the source's and the target's
/// [`DeviceLoad::estimated_wait`] — and what it would cost once —
/// [`Topology::migration_cost`] for the candidate's working set. The
/// transfer is a one-time charge the task pays back round after round
/// on the less crowded device, so the per-round gain is amortized over
/// `payback_rounds` and damped by `hysteresis`; a task moves only when
///
/// ```text
/// gain × payback_rounds × hysteresis > cost
/// ```
///
/// with `hysteresis` in `(0, 1]` requiring strictly more than
/// break-even evidence (the smaller the factor, the stronger the
/// observed contention must be).
///
/// Candidates are tried in the baseline's order — the most recent
/// admission on the crowded device first — with the cost test acting
/// as a *veto*, never as a preference for cheap tasks (preferring the
/// cheapest working set would keep shuffling small long-lived tenants
/// while the heavy ones stay piled up). For the chosen candidate the
/// target with the best net benefit wins, which on a topology often
/// means the nearest relieved device rather than the emptiest one.
/// Tasks migrated within the last `cooldown` are never re-moved, which
/// bounds per-task migration frequency and forbids ping-pong outright.
///
/// The defaults are calibrated on the `figP` heterogeneous host so
/// that cost-aware matches the charge-blind baseline's p95 round time
/// while migrating less and moving fewer bytes; shrink
/// `payback_rounds` (or `hysteresis`) to bias further toward staying
/// put.
#[derive(Debug, Clone)]
pub struct CostAware {
    /// Gain damping factor in `(0, 1]`. Default `0.5` (the amortized
    /// gain must be worth twice the wire).
    pub hysteresis: f64,
    /// Rounds over which a migration's one-time transfer must pay for
    /// itself out of per-round queueing-delay gains. Default 384
    /// (the snapshot wait underestimates the benefit of escaping a
    /// crowded device for a whole residence, so the window is long).
    pub payback_rounds: u32,
    /// Minimum time between two migrations of the same task.
    /// Default 10 ms.
    pub cooldown: SimDuration,
    /// Candidate→target moves rejected because the damped amortized
    /// gain did not beat the transfer cost (reported through
    /// [`Rebalance::decision_stats`]).
    vetoed: u64,
    /// Candidates skipped inside their cooldown window.
    cooled: u64,
}

impl Default for CostAware {
    fn default() -> Self {
        CostAware {
            hysteresis: 0.5,
            payback_rounds: 384,
            cooldown: SimDuration::from_millis(10),
            vetoed: 0,
            cooled: 0,
        }
    }
}

impl Rebalance for CostAware {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn decision_stats(&self) -> (u64, u64) {
        (self.vetoed, self.cooled)
    }

    fn plan(
        &mut self,
        now: SimTime,
        topology: &Topology,
        loads: &[DeviceLoad],
        candidates: &[MigrationCandidate],
    ) -> Option<Migration> {
        let (max_i, min_i) = extremes(loads);
        if loads[max_i].tenants < loads[min_i].tenants + 2 {
            return None;
        }
        let source = &loads[max_i];
        // Candidate order matches the baseline: the most recent
        // admission on the crowded device moves first (under open-loop
        // churn that is the newest — typically heaviest-queued —
        // arrival, whose relocation actually relieves the queue). The
        // cost model is a *veto*, not a preference for cheap tasks:
        // preferring the cheapest working set would keep shuffling
        // small long-lived residents while the heavy tenants stay
        // piled up.
        for c in candidates.iter().rev() {
            if c.from != source.device {
                continue;
            }
            if let Some(at) = c.last_migrated {
                if now.saturating_duration_since(at) < self.cooldown {
                    self.cooled += 1;
                    continue;
                }
            }
            // Any device at least two tenants below the source is a
            // candidate target — on a topology the *nearest* relieved
            // device often beats the emptiest one once the wire is
            // priced, so this maximizes net benefit per target rather
            // than fixating on the minimum. In-order scan keeps the
            // lowest device id on exact net ties.
            let mut best: Option<(SimDuration, DeviceId)> = None;
            for target in loads {
                if target.tenants + 2 > source.tenants || !target.fits(c.channels) {
                    continue;
                }
                let gain = source
                    .estimated_wait()
                    .saturating_sub(target.estimated_wait());
                let damped = gain.mul_f64(self.payback_rounds as f64 * self.hysteresis);
                let cost =
                    topology.migration_cost(c.from.index(), target.device.index(), c.working_set);
                if damped <= cost {
                    self.vetoed += 1;
                    continue;
                }
                let net = damped - cost;
                if best.as_ref().is_none_or(|(b, _)| net > *b) {
                    best = Some((net, target.device));
                }
            }
            if let Some((_, to)) = best {
                return Some(Migration { task: c.task, to });
            }
        }
        None
    }
}

/// The rebalancing policies available to experiments, as a sweepable
/// axis (mirrors [`crate::placement::PlacementKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebalanceKind {
    /// [`Off`]: never migrate.
    Off,
    /// [`CountDiff`]: the charge-blind population heuristic.
    CountDiff,
    /// [`CostAware`]: migrate only when the estimated gain beats the
    /// transfer cost (default hysteresis and cooldown).
    CostAware,
}

impl RebalanceKind {
    /// Every policy, for exhaustive sweeps.
    pub const ALL: [RebalanceKind; 3] = [
        RebalanceKind::Off,
        RebalanceKind::CountDiff,
        RebalanceKind::CostAware,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Rebalance> {
        match self {
            RebalanceKind::Off => Box::new(Off),
            RebalanceKind::CountDiff => Box::new(CountDiff),
            RebalanceKind::CostAware => Box::new(CostAware::default()),
        }
    }

    /// Parses the label form back into a kind (`"off"`,
    /// `"count-diff"`, `"cost-aware"`; `"cost"` is accepted as
    /// shorthand for the latter).
    pub fn from_label(label: &str) -> Option<RebalanceKind> {
        if label == "cost" {
            return Some(RebalanceKind::CostAware);
        }
        RebalanceKind::ALL
            .into_iter()
            .find(|k| k.to_string() == label)
    }
}

impl std::fmt::Display for RebalanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceKind::Off => f.write_str("off"),
            RebalanceKind::CountDiff => f.write_str("count-diff"),
            RebalanceKind::CostAware => f.write_str("cost-aware"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_gpu::{DeviceSlotSpec, GpuConfig, InterconnectParams};

    fn load(device: u32, tenants: usize, free: usize) -> DeviceLoad {
        DeviceLoad {
            device: DeviceId::new(device),
            tenants,
            free_contexts: free,
            free_channels: free * 2,
            queued_requests: 0,
            busy: SimDuration::ZERO,
            completed: 0,
            host_distance: 1,
            staging_cost: SimDuration::ZERO,
        }
    }

    fn cand(task: u32, from: u32) -> MigrationCandidate {
        MigrationCandidate {
            task: TaskId::new(task),
            from: DeviceId::new(from),
            channels: 1,
            working_set: 64 << 20,
            last_migrated: None,
        }
    }

    fn flat(n: usize) -> Topology {
        Topology::symmetric(n, GpuConfig::default())
    }

    /// Two devices a NUMA hop apart with PCIe-gen3 pricing.
    fn cross_numa() -> Topology {
        Topology::new(
            vec![
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 0,
                    switch_id: 0,
                },
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 1,
                    switch_id: 1,
                },
            ],
            InterconnectParams::pcie_gen3(),
        )
    }

    fn now() -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(50)
    }

    #[test]
    fn off_is_inactive_and_never_plans() {
        let mut p = Off;
        assert!(!p.active());
        let loads = [load(0, 5, 4), load(1, 0, 4)];
        let cands = [cand(0, 0), cand(1, 0)];
        assert_eq!(p.plan(now(), &flat(2), &loads, &cands), None);
    }

    #[test]
    fn count_diff_moves_latest_fitting_task_on_imbalance() {
        let mut p = CountDiff;
        let loads = [load(0, 3, 4), load(1, 1, 4)];
        let cands = [cand(0, 0), cand(1, 1), cand(2, 0)];
        assert_eq!(
            p.plan(now(), &flat(2), &loads, &cands),
            Some(Migration {
                task: TaskId::new(2),
                to: DeviceId::new(1)
            }),
            "the most recent admission on the crowded device moves"
        );
        // Imbalance of 1: leave things alone.
        let loads = [load(0, 2, 4), load(1, 1, 4)];
        assert_eq!(p.plan(now(), &flat(2), &loads, &cands), None);
    }

    #[test]
    fn count_diff_respects_target_capacity() {
        let mut p = CountDiff;
        // Imbalanced, but the empty device has no free contexts (e.g.
        // exhausted by a burst admitted between snapshots).
        let loads = [load(0, 4, 4), load(1, 0, 0)];
        let cands = [cand(0, 0), cand(1, 0)];
        assert_eq!(p.plan(now(), &flat(2), &loads, &cands), None);
        // A wide task is skipped in favor of one that fits.
        let loads = [load(0, 4, 4), load(1, 0, 1)];
        let mut wide = cand(9, 0);
        wide.channels = 5;
        let cands = [cand(0, 0), wide];
        assert_eq!(
            p.plan(now(), &flat(2), &loads, &cands),
            Some(Migration {
                task: TaskId::new(0),
                to: DeviceId::new(1)
            })
        );
    }

    /// A source load whose estimated wait is `wait_us` (one queued
    /// request at an observed mean service of `wait_us`).
    fn busy_load(device: u32, tenants: usize, wait_us: u64) -> DeviceLoad {
        let mut l = load(device, tenants, 4);
        l.queued_requests = 1;
        l.busy = SimDuration::from_micros(wait_us);
        l.completed = 1;
        l
    }

    #[test]
    fn cost_aware_declines_when_the_wire_costs_more_than_the_wait() {
        let mut p = CostAware::default();
        // Cross-NUMA 1 GiB ≈ 179 ms of transfer; a 600 µs per-round
        // gain amortizes to ~115 ms over the default window — the
        // baseline would move, cost-aware must not.
        let loads = [busy_load(0, 3, 600), load(1, 1, 4)];
        let mut heavy = [cand(0, 0), cand(1, 0)];
        for c in &mut heavy {
            c.working_set = 1 << 30;
        }
        assert_eq!(p.plan(now(), &cross_numa(), &loads, &heavy), None);
        // Same state on a free interconnect: the wire is free, so the
        // observed gain justifies the move (most recent admission).
        let mut free_p = CostAware::default();
        assert_eq!(
            free_p.plan(now(), &flat(2), &loads, &heavy),
            Some(Migration {
                task: TaskId::new(1),
                to: DeviceId::new(1)
            })
        );
    }

    #[test]
    fn cost_aware_moves_the_most_recent_admission_unless_vetoed() {
        let mut p = CostAware::default();
        // 40 ms of observed wait: the most recent admission moves,
        // even though an older task would be cheaper to transfer.
        let loads = [busy_load(0, 3, 40_000), load(1, 1, 4)];
        let mut small = cand(0, 0);
        small.working_set = 1 << 20;
        let cands = [small, cand(1, 0)];
        assert_eq!(
            p.plan(now(), &cross_numa(), &loads, &cands),
            Some(Migration {
                task: TaskId::new(1),
                to: DeviceId::new(1)
            })
        );
        // A most-recent admission whose transfer cannot pay for itself
        // (64 GiB across the NUMA hop) is vetoed — the next candidate
        // moves instead of nobody.
        let mut huge = cand(9, 0);
        huge.working_set = 64 << 30;
        let cands = [small, huge];
        assert_eq!(
            p.plan(now(), &cross_numa(), &loads, &cands),
            Some(Migration {
                task: TaskId::new(0),
                to: DeviceId::new(1)
            })
        );
    }

    #[test]
    fn cost_aware_prefers_the_nearest_relieved_target() {
        let mut p = CostAware::default();
        // Source on NUMA 0; one empty device a switch hop away, one
        // across the NUMA hop. Equal (zero) target waits: the cheaper
        // wire wins the net-benefit comparison.
        let topology = Topology::new(
            vec![
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 0,
                    switch_id: 0,
                },
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 0,
                    switch_id: 1,
                },
                DeviceSlotSpec {
                    config: GpuConfig::default(),
                    numa: 1,
                    switch_id: 2,
                },
            ],
            InterconnectParams::pcie_gen3(),
        );
        let loads = [busy_load(0, 4, 40_000), load(1, 0, 4), load(2, 0, 4)];
        let cands = [cand(0, 0), cand(1, 0)];
        assert_eq!(
            p.plan(now(), &topology, &loads, &cands),
            Some(Migration {
                task: TaskId::new(1),
                to: DeviceId::new(1)
            }),
            "cross-PCIe beats cross-NUMA at equal gain"
        );
    }

    #[test]
    fn cost_aware_cooldown_forbids_ping_pong() {
        let mut p = CostAware::default();
        let loads = [busy_load(0, 3, 40_000), load(1, 1, 4)];
        let mut recent = cand(0, 0);
        recent.last_migrated = Some(now() - SimDuration::from_millis(2));
        // The only candidate migrated 2 ms ago (< 10 ms cooldown).
        assert_eq!(p.plan(now(), &cross_numa(), &loads, &[recent]), None);
        // Once the cooldown has elapsed it may move again.
        recent.last_migrated = Some(now() - SimDuration::from_millis(15));
        assert_eq!(
            p.plan(now(), &cross_numa(), &loads, &[recent]),
            Some(Migration {
                task: TaskId::new(0),
                to: DeviceId::new(1)
            })
        );
    }

    #[test]
    fn cost_aware_requires_positive_gain_on_free_interconnects() {
        let mut p = CostAware::default();
        // Imbalanced but no observed queueing anywhere: gain is zero,
        // and zero × hysteresis never exceeds even a free wire.
        let loads = [load(0, 4, 4), load(1, 0, 4)];
        let cands = [cand(0, 0)];
        assert_eq!(p.plan(now(), &flat(2), &loads, &cands), None);
    }

    #[test]
    fn labels_round_trip() {
        for kind in RebalanceKind::ALL {
            assert_eq!(RebalanceKind::from_label(&kind.to_string()), Some(kind));
        }
        assert_eq!(
            RebalanceKind::from_label("cost"),
            Some(RebalanceKind::CostAware)
        );
        assert_eq!(RebalanceKind::from_label("warp-drive"), None);
    }
}
