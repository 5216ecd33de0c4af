//! Streaming telemetry: structured run stats, metrics modes, and the
//! bounded device-timeline sampler.
//!
//! Three pieces live here, all bounded-memory by construction:
//!
//! - [`SimStats`] — a typed [`Counters`] block over [`StatKey`]: every
//!   structured counter a run produces (events, faults, preemptions,
//!   denials, sampling windows, rebalance decisions, migrations...),
//!   surfaced in [`RunReport`](crate::report::RunReport) and every
//!   [`DeviceReport`](crate::report::DeviceReport). Incrementing is a
//!   plain integer bump, so keeping them always-on does not move the
//!   simulator's events/second.
//! - [`MetricsMode`] — how per-task latency samples are retained:
//!   [`MetricsMode::Exact`] keeps every sample in a `Vec` (the oracle,
//!   and the default), [`MetricsMode::Streaming`] routes them into
//!   per-task and per-group
//!   [`StreamingHistogram`](neon_metrics::StreamingHistogram)s so
//!   memory stays constant over arbitrarily long runs.
//! - [`Timeline`] — a bounded ring of periodic [`TimelineSample`]
//!   snapshots (per-device utilization, queue depth, tenants, engine
//!   occupancy, migrations) taken by the world's sampler event. Off by
//!   default ([`WorldConfig::sample_every`](crate::world::WorldConfig)
//!   is `None`), so default-config traces and golden hashes are
//!   untouched.

use std::collections::VecDeque;

use neon_gpu::DeviceId;
use neon_metrics::{CounterKey, Counters};
use neon_sim::SimTime;

/// How the world retains per-task latency samples (rounds, service
/// times, submit gaps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MetricsMode {
    /// Keep every sample in per-task `Vec`s — exact percentiles,
    /// memory linear in tenant-rounds. The default, and the oracle the
    /// streaming mode is tested against.
    #[default]
    Exact,
    /// Route samples into per-task and per-group
    /// [`StreamingHistogram`](neon_metrics::StreamingHistogram)s:
    /// fixed memory per task, quantiles within
    /// [`StreamingHistogram::RELATIVE_ERROR_BOUND`](neon_metrics::StreamingHistogram::RELATIVE_ERROR_BOUND)
    /// of exact. Service and inter-submission histograms are always
    /// recorded in this mode (they are bounded), regardless of
    /// `record_requests`.
    Streaming,
}

impl MetricsMode {
    /// Parses the CLI/TOML label (`"exact"` or `"streaming"`).
    pub fn from_label(label: &str) -> Option<MetricsMode> {
        match label {
            "exact" => Some(MetricsMode::Exact),
            "streaming" => Some(MetricsMode::Streaming),
            _ => None,
        }
    }

    /// The CLI/TOML label.
    pub fn label(self) -> &'static str {
        match self {
            MetricsMode::Exact => "exact",
            MetricsMode::Streaming => "streaming",
        }
    }
}

/// Every structured counter a run maintains. Keys index a dense
/// [`Counters`] block ([`SimStats`]); labels are the stable names used
/// by JSON/CSV emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatKey {
    /// Discrete events the simulation loop processed.
    Events,
    /// Page faults (protected-page interceptions) taken.
    Faults,
    /// Polling-thread wakeups.
    Polls,
    /// Direct (unintercepted) submissions.
    DirectSubmits,
    /// Admissions refused because no device could host the arrival.
    RejectedAdmissions,
    /// Hardware preemptions (channel suspensions) issued by policies.
    Preemptions,
    /// Tasks killed by a scheduler.
    Kills,
    /// Submission-admission denials during fair-queueing free-run.
    Denials,
    /// Exclusive sampling windows opened by disengaged policies.
    SamplingWindowsOpened,
    /// Sampling windows that ran to completion and were charged.
    SamplingWindowsClosed,
    /// Rebalance plans executed (a task actually moved).
    RebalanceAccepted,
    /// Candidate moves a cost-aware policy rejected on cost grounds.
    RebalanceVetoed,
    /// Candidate moves skipped because the task migrated too recently.
    RebalanceCooledDown,
    /// Tasks migrated onto a device (equals total migrations run-wide).
    MigrationsIn,
    /// Tasks migrated off a device (equals total migrations run-wide).
    MigrationsOut,
    /// Fault events injected from a [`FaultPlan`](crate::fault::FaultPlan).
    InjectedFaults,
    /// Tasks killed by the per-device watchdog (stagnant running
    /// request past the configured timeout).
    WatchdogKills,
    /// Fault-recovery retries: watchdog requeues, transient-submit
    /// retries, and park re-admission attempts that found no room yet.
    FaultRetries,
    /// Tasks that survived a device hot-remove (drain-migrated at the
    /// removal instant, or re-staged later from parking).
    RecoveredTasks,
    /// Tasks permanently lost to faults: crashes, exhausted watchdog
    /// retry budgets, and exhausted park retries.
    LostTasks,
    /// Device hot-remove events executed.
    HotRemoves,
    /// Device hot-add events executed.
    HotAdds,
}

impl CounterKey for StatKey {
    const ALL: &'static [StatKey] = &[
        StatKey::Events,
        StatKey::Faults,
        StatKey::Polls,
        StatKey::DirectSubmits,
        StatKey::RejectedAdmissions,
        StatKey::Preemptions,
        StatKey::Kills,
        StatKey::Denials,
        StatKey::SamplingWindowsOpened,
        StatKey::SamplingWindowsClosed,
        StatKey::RebalanceAccepted,
        StatKey::RebalanceVetoed,
        StatKey::RebalanceCooledDown,
        StatKey::MigrationsIn,
        StatKey::MigrationsOut,
        StatKey::InjectedFaults,
        StatKey::WatchdogKills,
        StatKey::FaultRetries,
        StatKey::RecoveredTasks,
        StatKey::LostTasks,
        StatKey::HotRemoves,
        StatKey::HotAdds,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn label(self) -> &'static str {
        match self {
            StatKey::Events => "events",
            StatKey::Faults => "faults",
            StatKey::Polls => "polls",
            StatKey::DirectSubmits => "direct_submits",
            StatKey::RejectedAdmissions => "rejected_admissions",
            StatKey::Preemptions => "preemptions",
            StatKey::Kills => "kills",
            StatKey::Denials => "denials",
            StatKey::SamplingWindowsOpened => "sampling_windows_opened",
            StatKey::SamplingWindowsClosed => "sampling_windows_closed",
            StatKey::RebalanceAccepted => "rebalance_accepted",
            StatKey::RebalanceVetoed => "rebalance_vetoed",
            StatKey::RebalanceCooledDown => "rebalance_cooled_down",
            StatKey::MigrationsIn => "migrations_in",
            StatKey::MigrationsOut => "migrations_out",
            StatKey::InjectedFaults => "injected_faults",
            StatKey::WatchdogKills => "watchdog_kills",
            StatKey::FaultRetries => "fault_retries",
            StatKey::RecoveredTasks => "recovered_tasks",
            StatKey::LostTasks => "lost_tasks",
            StatKey::HotRemoves => "hot_removes",
            StatKey::HotAdds => "hot_adds",
        }
    }
}

/// The structured stats block of a run (or of one device).
pub type SimStats = Counters<StatKey>;

/// One device's slice of a [`TimelineSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSample {
    /// The device.
    pub device: DeviceId,
    /// Compute-engine utilization over the window since the previous
    /// sample (fraction in `[0, 1]`).
    pub utilization: f64,
    /// Requests queued on channels plus requests running on engines.
    pub queue_depth: usize,
    /// Live tenants holding a context on the device.
    pub tenants: usize,
    /// Engines currently running a request.
    pub engines_busy: usize,
    /// Cumulative tasks migrated onto the device so far.
    pub migrations_in: u64,
    /// Cumulative tasks migrated off the device so far.
    pub migrations_out: u64,
}

/// One periodic snapshot taken by the world's sampler event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Cumulative events processed by the run loop so far.
    pub events: u64,
    /// Live tasks across all devices.
    pub live_tasks: usize,
    /// Tasks still stalled on a migration transfer at this instant.
    pub inflight_migrations: usize,
    /// Per-device slices, in device-id order.
    pub devices: Vec<DeviceSample>,
}

/// A bounded ring of [`TimelineSample`]s: at capacity the oldest
/// sample is discarded (and counted), so the sampler can run forever
/// on a fixed budget — the same discipline as
/// [`Trace`](neon_sim::Trace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    samples: VecDeque<TimelineSample>,
    capacity: usize,
    dropped: u64,
}

impl Timeline {
    /// Default ring capacity used by the world when none is configured.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty timeline keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "timeline capacity must be positive");
        Timeline {
            samples: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a sample, evicting the oldest at capacity.
    pub fn push(&mut self, sample: TimelineSample) {
        if self.capacity == 0 {
            // A `Default`-constructed timeline (capacity 0) is the
            // world's "sampler off" placeholder; pushing into it would
            // be a bug upstream.
            // lint: allow(panic-path) — harness misuse guard; the world
            // only pushes when sample_every sized a real ring
            panic!("push into a zero-capacity timeline");
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimelineSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples discarded due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity (zero for the sampler-off placeholder).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The canonical trace-label taxonomy.
///
/// Every label the world and the built-in schedulers record is listed
/// here, so tests and tools can query
/// [`Trace::with_label`](neon_sim::Trace::with_label) /
/// [`Trace::labels`](neon_sim::Trace::labels) against named constants
/// instead of grepping free-form strings. The world's own events use
/// these constants directly; scheduler modules keep their literals but
/// are pinned to this list by a test.
pub mod labels {
    /// A task was admitted (at start or mid-run).
    pub const ARRIVE: &str = "arrive";
    /// A newly admitted task's working set was staged onto its device.
    pub const STAGE: &str = "stage";
    /// An open-loop arrival was turned away (no device could host it).
    pub const REJECT: &str = "reject";
    /// A scheduled departure retired a task.
    pub const DEPART: &str = "depart";
    /// A protected-page submission faulted into the kernel.
    pub const FAULT: &str = "fault";
    /// A scheduler killed a task.
    pub const KILL: &str = "kill";
    /// Rebalancing moved a task between devices.
    pub const MIGRATE: &str = "migrate";
    /// An unsound migration plan was refused by the world.
    pub const MIGRATE_REFUSED: &str = "migrate-refused";
    /// A policy planned a migration to the task's current device.
    pub const MIGRATE_NOOP: &str = "migrate-noop";
    /// A task's running request was preempted (channels suspended).
    pub const PREEMPT: &str = "preempt";
    /// Disengaged fair queueing entered an engagement barrier.
    pub const ENGAGE: &str = "engage";
    /// Sampling-window activity of a disengaged policy.
    pub const SAMPLE: &str = "sample";
    /// Fair queueing denied a task admission for the next free-run.
    pub const DENY: &str = "deny";
    /// Fair queueing re-entered free-run.
    pub const FREERUN: &str = "freerun";
    /// An overlong request was preempted or its owner killed.
    pub const OVERLONG: &str = "overlong";
    /// The timeslice token moved to a task.
    pub const TOKEN: &str = "token";
    /// The timeslice scheduler skipped an indebted candidate.
    pub const SKIP: &str = "skip";
    /// A timeslice holder was drained and charged overuse.
    pub const DRAIN: &str = "drain";
    /// An injected hang wedged a running request / armed a victim.
    pub const HANG: &str = "hang";
    /// The per-device watchdog killed a stagnant task.
    pub const WATCHDOG: &str = "watchdog";
    /// An injected crash killed a task outright.
    pub const CRASH: &str = "crash";
    /// An injected transient submission error (armed or retried).
    pub const SUBMIT_ERR: &str = "submit-error";
    /// A device was hot-removed; residents drain or park.
    pub const HOT_REMOVE: &str = "hot-remove";
    /// A removed device returned to service.
    pub const HOT_ADD: &str = "hot-add";
    /// A displaced task parked off-device awaiting capacity.
    pub const PARK: &str = "park";
    /// A watchdog-killed task was requeued for a fresh admission.
    pub const REQUEUE: &str = "requeue";
    /// A displaced task was re-staged onto a surviving device.
    pub const RECOVER: &str = "recover";
    /// A task was permanently lost to a fault.
    pub const LOST: &str = "lost";

    /// Every canonical label, for exhaustive queries.
    pub const ALL: &[&str] = &[
        ARRIVE,
        STAGE,
        REJECT,
        DEPART,
        FAULT,
        KILL,
        MIGRATE,
        MIGRATE_REFUSED,
        MIGRATE_NOOP,
        PREEMPT,
        ENGAGE,
        SAMPLE,
        DENY,
        FREERUN,
        OVERLONG,
        TOKEN,
        SKIP,
        DRAIN,
        HANG,
        WATCHDOG,
        CRASH,
        SUBMIT_ERR,
        HOT_REMOVE,
        HOT_ADD,
        PARK,
        REQUEUE,
        RECOVER,
        LOST,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_us: u64) -> TimelineSample {
        TimelineSample {
            at: SimTime::from_micros(at_us),
            events: at_us,
            live_tasks: 1,
            inflight_migrations: 0,
            devices: Vec::new(),
        }
    }

    #[test]
    fn metrics_mode_labels_round_trip() {
        for mode in [MetricsMode::Exact, MetricsMode::Streaming] {
            assert_eq!(MetricsMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(MetricsMode::from_label("bogus"), None);
        assert_eq!(MetricsMode::default(), MetricsMode::Exact);
    }

    #[test]
    fn stat_key_indices_are_dense_and_labels_unique() {
        let mut labels = std::collections::HashSet::new();
        for (i, &k) in StatKey::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?} index not dense");
            assert!(labels.insert(k.label()), "duplicate label {}", k.label());
        }
    }

    #[test]
    fn timeline_ring_drops_oldest() {
        let mut tl = Timeline::with_capacity(3);
        for i in 0..5 {
            tl.push(sample(i));
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.dropped(), 2);
        assert_eq!(tl.iter().next().unwrap().at, SimTime::from_micros(2));
        assert_eq!(tl.capacity(), 3);
    }

    #[test]
    fn default_timeline_is_the_off_placeholder() {
        let tl = Timeline::default();
        assert!(tl.is_empty());
        assert_eq!(tl.capacity(), 0);
        assert_eq!(tl.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_timeline_panics() {
        let _ = Timeline::with_capacity(0);
    }

    #[test]
    fn canonical_labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &l in labels::ALL {
            assert!(seen.insert(l), "duplicate canonical label {l}");
        }
    }
}
