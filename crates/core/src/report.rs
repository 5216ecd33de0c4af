//! Run reports: what a simulation hands back to the experiments.

use neon_gpu::{DeviceId, RequestKind, TaskId};
use neon_metrics::{Distribution, StreamingHistogram};
use neon_sim::{SimDuration, SimTime};

use crate::telemetry::{SimStats, Timeline};

/// Per-task outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Task id.
    pub id: TaskId,
    /// Application name.
    pub name: String,
    /// The device the task ran on (its final device, if migrated).
    pub device: DeviceId,
    /// When the task was admitted (zero for tasks present at start;
    /// the arrival instant for tasks spawned mid-run).
    pub arrived_at: SimTime,
    /// When the task exited, was killed, or departed — `None` if it
    /// was still live at the horizon.
    pub finished_at: Option<SimTime>,
    /// Durations of completed rounds, in completion order.
    pub rounds: Vec<SimDuration>,
    /// Requests submitted to the device.
    pub submitted_requests: u64,
    /// Requests completed by the device.
    pub completed_requests: u64,
    /// Ground-truth device occupancy consumed by the task.
    pub usage: SimDuration,
    /// Page faults taken by the task's submissions.
    pub faults: u64,
    /// Whether the scheduler killed the task.
    pub killed: bool,
    /// Times the task was migrated between devices.
    pub migrations: u32,
    /// Simulated time the task spent stalled on working-set movement
    /// across the interconnect (admission staging plus migration
    /// transfers); zero on free-interconnect topologies.
    pub transfer_stall: SimDuration,
    /// Submission instants (recorded only when request recording is on).
    pub submit_times: Vec<SimTime>,
    /// Ground-truth service times of completed requests (recorded only
    /// when request recording is on).
    pub service_times: Vec<SimDuration>,
    /// Request class of each completed request, parallel to
    /// `service_times`.
    pub service_kinds: Vec<RequestKind>,
    /// Bounded sketch of round durations
    /// ([`MetricsMode::Streaming`](crate::telemetry::MetricsMode)
    /// only; empty in exact mode, where [`TaskReport::rounds`] holds
    /// every sample).
    pub rounds_hist: StreamingHistogram,
    /// Bounded sketch of completed-request service times (streaming
    /// mode only).
    pub service_hist: StreamingHistogram,
    /// Bounded sketch of inter-submission gaps (streaming mode only).
    pub interarrival_hist: StreamingHistogram,
}

impl TaskReport {
    /// Mean round duration after dropping a warmup prefix (fraction of
    /// rounds, e.g. `0.1` drops the first 10 %). Returns `None` if no
    /// rounds survive. In streaming mode the histogram cannot drop a
    /// prefix, so the mean over *all* rounds is returned instead.
    pub fn mean_round(&self, warmup: f64) -> Option<SimDuration> {
        if self.rounds.is_empty() && !self.rounds_hist.is_empty() {
            return Some(self.rounds_hist.mean());
        }
        let skip = (self.rounds.len() as f64 * warmup.clamp(0.0, 0.9)) as usize;
        let tail = &self.rounds[skip.min(self.rounds.len())..];
        if tail.is_empty() {
            return None;
        }
        let total: SimDuration = tail.iter().copied().sum();
        Some(total / tail.len() as u64)
    }

    /// Rounds completed, in either metrics mode.
    pub fn rounds_completed(&self) -> usize {
        if self.rounds.is_empty() {
            self.rounds_hist.count() as usize
        } else {
            self.rounds.len()
        }
    }

    /// The span the task was present in the system, from admission to
    /// exit (or to the run's wall clock if it never exited).
    pub fn presence(&self, wall: SimDuration) -> SimDuration {
        let end = self
            .finished_at
            .unwrap_or(SimTime::ZERO + wall)
            .max(self.arrived_at);
        end.saturating_duration_since(self.arrived_at)
    }

    /// Completed rounds per simulated second of presence.
    pub fn throughput(&self, wall: SimDuration) -> f64 {
        let presence = self.presence(wall);
        if presence.is_zero() {
            return 0.0;
        }
        self.rounds_completed() as f64 / presence.as_secs_f64()
    }
}

/// Aggregated per-group telemetry: one entry per distinct workload
/// name, reported only in
/// [`MetricsMode::Streaming`](crate::telemetry::MetricsMode) (the
/// exact path keeps per-task vectors instead, from which groups can be
/// recomputed).
///
/// Groups are derived at report time, not recorded live: each sketch
/// is the lossless [`StreamingHistogram::merge`] of its members'
/// per-task sketches, so a run pays for one record per sample.
#[derive(Debug, Clone, Default)]
pub struct GroupReport {
    /// The workload/application name shared by the group's members.
    pub name: String,
    /// Tasks admitted under this name over the run.
    pub members: u64,
    /// Round durations across all members.
    pub rounds: StreamingHistogram,
    /// Completed-request service times across all members.
    pub service: StreamingHistogram,
    /// Inter-submission gaps across all members.
    pub interarrival: StreamingHistogram,
}

/// Per-device outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The device.
    pub device: DeviceId,
    /// Ground-truth busy time of this device's compute engine.
    pub compute_busy: SimDuration,
    /// Ground-truth busy time of this device's DMA engine.
    pub dma_busy: SimDuration,
    /// Live tenants on the device when the run ended.
    pub tenants: usize,
    /// Working-set movement charged on this device: admission staging
    /// onto it plus migration transfers landing here. Per-device slices
    /// of [`RunReport::transfer_stall`]; zero on free interconnects.
    pub transfer_stall: SimDuration,
    /// Simulated time this device spent hot-removed (offline); a
    /// device still offline at the horizon is charged through it.
    pub degraded: SimDuration,
    /// This device's structured stats block, its only counters. Only
    /// per-device events are counted here (faults, refused admissions,
    /// preemptions, kills, denials, sampling windows, migrations in and
    /// out, fault recovery); run-wide counters such as `events` and
    /// `polls` live in [`RunReport::stats`].
    pub stats: SimStats,
}

impl DeviceReport {
    /// Compute-engine utilization of this device over the run.
    pub fn utilization(&self, wall: SimDuration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.compute_busy.ratio(wall)
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheduler that produced the run.
    pub scheduler: &'static str,
    /// Wall-clock (simulated) length of the run.
    pub wall: SimDuration,
    /// Per-task outcomes, ordered by task id.
    pub tasks: Vec<TaskReport>,
    /// Per-device outcomes, ordered by device id (one entry for a
    /// single-device world).
    pub devices: Vec<DeviceReport>,
    /// Ground-truth busy time of the compute engines, summed across
    /// devices.
    pub compute_busy: SimDuration,
    /// Ground-truth busy time of the DMA engines, summed across
    /// devices.
    pub dma_busy: SimDuration,
    /// Total simulated time tasks spent stalled on working-set
    /// movement (staging + migration transfers) across the run.
    pub transfer_stall: SimDuration,
    /// Degraded-capacity time: simulated device-offline time summed
    /// across devices (a device still offline at the horizon is
    /// charged through it).
    pub degraded: SimDuration,
    /// Discrete events the simulation loop processed — with host wall
    /// time, the events/second throughput of the simulator itself (the
    /// benchmark's `events_per_s`). Equal to the
    /// [`StatKey::Events`](crate::telemetry::StatKey::Events) counter.
    pub events: u64,
    /// The structured stats block, the run's only counters: events,
    /// faults, polls, direct submissions, refused admissions,
    /// migrations, fault injection and recovery, and the policy-level
    /// ones (preemptions, kills, denials, sampling windows, rebalance
    /// decisions), under stable emission labels.
    pub stats: SimStats,
    /// Per-workload-name telemetry (streaming mode only; empty in
    /// exact mode), derived at report time from
    /// [`RunReport::tasks`]: first-admission order, one member per
    /// task with that name, sketches merged from the members'.
    pub groups: Vec<GroupReport>,
    /// The sampler's bounded device timeline (empty unless
    /// [`WorldConfig::sample_every`](crate::world::WorldConfig) was
    /// set).
    pub timeline: Timeline,
}

impl RunReport {
    /// Aggregate compute-engine utilization over the run (mean across
    /// devices; equals plain utilization for a single device).
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        let devices = self.devices.len().max(1) as f64;
        self.compute_busy.ratio(self.wall) / devices
    }

    /// The report for a task by id.
    pub fn task(&self, id: TaskId) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// The report for a device by id.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceReport> {
        self.devices.iter().find(|d| d.device == id)
    }

    /// Every task's round durations as one queryable
    /// [`Distribution`], whichever metrics mode produced the run: the
    /// exact per-task vectors when present (the oracle), the merged
    /// per-task histograms otherwise. This is the single interface
    /// report consumers use for percentiles.
    pub fn round_distribution(&self) -> Box<dyn Distribution> {
        round_distribution(&self.tasks)
    }

    /// The number of rounds in [`RunReport::round_distribution`],
    /// counted without building it.
    pub fn total_rounds(&self) -> u64 {
        round_count(&self.tasks)
    }
}

/// The round durations of `tasks` as one [`Distribution`]: the exact
/// per-task vectors when any task kept them, the merged per-task
/// histograms otherwise. Shared by [`RunReport::round_distribution`]
/// and [`FleetReport::round_distribution`](crate::fleet::FleetReport::round_distribution).
pub(crate) fn round_distribution<'a, I>(tasks: I) -> Box<dyn Distribution>
where
    I: IntoIterator<Item = &'a TaskReport>,
    I::IntoIter: Clone,
{
    let tasks = tasks.into_iter();
    if tasks.clone().any(|t| !t.rounds.is_empty()) {
        let all: Vec<SimDuration> = tasks.flat_map(|t| t.rounds.iter().copied()).collect();
        Box::new(neon_metrics::Summary::from_vec(all))
    } else {
        let mut merged = StreamingHistogram::new();
        for t in tasks {
            merged.merge(&t.rounds_hist);
        }
        Box::new(merged)
    }
}

/// The number of rounds in [`round_distribution`] of `tasks`, counted
/// without building it: exact rounds when any task kept them, histogram
/// counts otherwise.
pub(crate) fn round_count<'a, I>(tasks: I) -> u64
where
    I: IntoIterator<Item = &'a TaskReport>,
    I::IntoIter: Clone,
{
    let tasks = tasks.into_iter();
    if tasks.clone().any(|t| !t.rounds.is_empty()) {
        tasks.map(|t| t.rounds.len() as u64).sum()
    } else {
        tasks.map(|t| t.rounds_hist.count()).sum()
    }
}

/// The per-workload-name groups of `tasks`, in first-appearance order:
/// `members` counts the tasks with each name and every sketch is the
/// merge of the members' sketches. Shared by [`RunReport::groups`] and
/// [`FleetReport::groups`](crate::fleet::FleetReport::groups).
pub(crate) fn groups_of<'a>(tasks: impl IntoIterator<Item = &'a TaskReport>) -> Vec<GroupReport> {
    let mut groups: Vec<GroupReport> = Vec::new();
    for t in tasks {
        // Group count is bounded by the number of distinct workload
        // shapes (small), so a linear scan suffices.
        let g = match groups.iter().position(|g| g.name == t.name) {
            Some(g) => g,
            None => {
                groups.push(GroupReport {
                    name: t.name.clone(),
                    ..GroupReport::default()
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[g];
        g.members += 1;
        g.rounds.merge(&t.rounds_hist);
        g.service.merge(&t.service_hist);
        g.interarrival.merge(&t.interarrival_hist);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_rounds(rounds: Vec<u64>) -> TaskReport {
        TaskReport {
            id: TaskId::new(0),
            name: "t".into(),
            device: DeviceId::new(0),
            arrived_at: SimTime::ZERO,
            finished_at: None,
            rounds: rounds.into_iter().map(SimDuration::from_micros).collect(),
            submitted_requests: 0,
            completed_requests: 0,
            usage: SimDuration::ZERO,
            faults: 0,
            killed: false,
            migrations: 0,
            transfer_stall: SimDuration::ZERO,
            submit_times: Vec::new(),
            service_times: Vec::new(),
            service_kinds: Vec::new(),
            rounds_hist: StreamingHistogram::new(),
            service_hist: StreamingHistogram::new(),
            interarrival_hist: StreamingHistogram::new(),
        }
    }

    #[test]
    fn mean_round_drops_warmup() {
        let r = report_with_rounds(vec![1000, 10, 10, 10, 10, 10, 10, 10, 10, 10]);
        // With 10% warmup the 1000 outlier is dropped.
        assert_eq!(r.mean_round(0.1), Some(SimDuration::from_micros(10)));
        // Without warmup it is included.
        assert_eq!(r.mean_round(0.0), Some(SimDuration::from_micros(109)));
    }

    #[test]
    fn round_count_matches_the_distribution_it_skips() {
        let exact = [
            report_with_rounds(vec![30, 10, 20]),
            report_with_rounds(vec![]),
            report_with_rounds(vec![5]),
        ];
        assert_eq!(round_count(&exact), 4);
        assert_eq!(round_count(&exact), round_distribution(&exact).count());
        let mut streaming = [report_with_rounds(vec![]), report_with_rounds(vec![])];
        for (i, t) in streaming.iter_mut().enumerate() {
            for _ in 0..=i {
                t.rounds_hist.record(SimDuration::from_micros(7));
            }
        }
        assert_eq!(round_count(&streaming), 3);
        assert_eq!(
            round_count(&streaming),
            round_distribution(&streaming).count()
        );
    }

    #[test]
    fn mean_round_empty_is_none() {
        let r = report_with_rounds(vec![]);
        assert_eq!(r.mean_round(0.1), None);
    }

    #[test]
    fn presence_spans_admission_to_exit() {
        let wall = SimDuration::from_millis(100);
        let mut r = report_with_rounds(vec![10, 10]);
        // Present for the whole run.
        assert_eq!(r.presence(wall), wall);
        // Mid-run arrival, departed before the horizon.
        r.arrived_at = SimTime::ZERO + SimDuration::from_millis(20);
        r.finished_at = Some(SimTime::ZERO + SimDuration::from_millis(70));
        assert_eq!(r.presence(wall), SimDuration::from_millis(50));
        // Throughput counts rounds per second of presence.
        assert!((r.throughput(wall) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_busy_over_wall() {
        let report = RunReport {
            scheduler: "direct",
            wall: SimDuration::from_millis(10),
            tasks: vec![],
            devices: vec![],
            compute_busy: SimDuration::from_millis(5),
            dma_busy: SimDuration::ZERO,
            transfer_stall: SimDuration::ZERO,
            degraded: SimDuration::ZERO,
            events: 0,
            stats: SimStats::new(),
            groups: Vec::new(),
            timeline: Timeline::default(),
        };
        assert!((report.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multi_device_utilization_averages_over_devices() {
        let wall = SimDuration::from_millis(10);
        let dev = |id: u32, busy_ms: u64| DeviceReport {
            device: DeviceId::new(id),
            compute_busy: SimDuration::from_millis(busy_ms),
            dma_busy: SimDuration::ZERO,
            tenants: 1,
            transfer_stall: SimDuration::ZERO,
            degraded: SimDuration::ZERO,
            stats: SimStats::new(),
        };
        let report = RunReport {
            scheduler: "direct",
            wall,
            tasks: vec![],
            devices: vec![dev(0, 10), dev(1, 5)],
            compute_busy: SimDuration::from_millis(15),
            dma_busy: SimDuration::ZERO,
            transfer_stall: SimDuration::ZERO,
            degraded: SimDuration::ZERO,
            events: 0,
            stats: SimStats::new(),
            groups: Vec::new(),
            timeline: Timeline::default(),
        };
        assert!((report.utilization() - 0.75).abs() < 1e-12);
        assert!((report.devices[1].utilization(wall) - 0.5).abs() < 1e-12);
        assert_eq!(report.device(DeviceId::new(1)).unwrap().tenants, 1);
    }
}
