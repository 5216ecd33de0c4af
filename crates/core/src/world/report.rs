//! Observation: the periodic telemetry sampler and the end-of-run
//! report. Nothing here changes task, device or scheduler state.

use neon_gpu::{EngineClass, TaskId};
use neon_sim::{SimDuration, SimTime};

use super::{World, WorldConfig};
use crate::report::{groups_of, DeviceReport, RunReport, TaskReport};
use crate::telemetry::{DeviceSample, MetricsMode, StatKey, Timeline, TimelineSample};

/// The telemetry sampler's state.
pub(super) struct Sampler {
    /// Bounded ring of periodic device snapshots (empty unless
    /// [`WorldConfig::sample_every`] is set).
    timeline: Timeline,
    /// Previous sampler tick (utilization deltas are measured from
    /// here).
    last_at: SimTime,
    /// Tasks whose latest migration or restage transfer may still be in
    /// flight, with the instant it completes. Filled only while the
    /// sampler runs, and pruned at each tick.
    transfers: Vec<(TaskId, SimTime)>,
}

impl Sampler {
    /// The ring is sized only when the sampler will actually run; with
    /// sampling off, the placeholder allocates nothing.
    pub(super) fn new(config: &WorldConfig) -> Self {
        Sampler {
            timeline: match config.sample_every {
                Some(_) => Timeline::with_capacity(config.timeline_capacity),
                None => Timeline::default(),
            },
            last_at: SimTime::ZERO,
            transfers: Vec::new(),
        }
    }

    /// Task `id`'s working set is moving until `until` (`None`: it
    /// moved for free), replacing any earlier transfer of the task.
    pub(super) fn transfer(&mut self, id: TaskId, until: Option<SimTime>) {
        self.transfers.retain(|&(t, _)| t != id);
        self.transfers.extend(until.map(|at| (id, at)));
    }
}

impl World {
    /// One sampler tick: snapshot every device's gauges into the
    /// bounded timeline ring. Pure observation — no task, device or
    /// scheduler state changes, so enabling the sampler perturbs only
    /// the event count, never the schedule.
    pub(super) fn take_sample(&mut self) {
        let now = self.now;
        let period = now.saturating_duration_since(self.sampler.last_at);
        self.sampler.transfers.retain(|&(_, until)| until > now);
        // Transfers are reported only once some task has migrated: a
        // restage before the first migration reads zero.
        let inflight = match self.stats.get(StatKey::MigrationsIn) {
            0 => 0,
            _ => self.sampler.transfers.len(),
        };
        let live_tasks = self.devices.iter().map(|s| s.residents.len()).sum();
        let devices = self
            .devices
            .iter_mut()
            .map(|slot| {
                let busy = slot.gpu.engine_busy(EngineClass::Compute);
                let delta = busy.saturating_sub(slot.sampled_busy);
                slot.sampled_busy = busy;
                let running = EngineClass::ALL
                    .iter()
                    .filter(|&&c| slot.gpu.running(c).is_some())
                    .count();
                DeviceSample {
                    device: slot.gpu.id(),
                    utilization: if period.is_zero() {
                        0.0
                    } else {
                        delta.ratio(period).min(1.0)
                    },
                    queue_depth: slot.gpu.queued_requests() + running,
                    tenants: slot.residents.len(),
                    engines_busy: running,
                    migrations_in: slot.stats.get(StatKey::MigrationsIn),
                    migrations_out: slot.stats.get(StatKey::MigrationsOut),
                }
            })
            .collect();
        self.sampler.timeline.push(TimelineSample {
            at: now,
            events: self.stats.get(StatKey::Events),
            live_tasks,
            inflight_migrations: inflight,
            devices,
        });
        self.sampler.last_at = now;
    }

    /// Builds the run report. Consumes the per-task metric vectors
    /// (`mem::take`) rather than deep-cloning them: `run()` is
    /// single-shot and the world is finished, so the report is the
    /// rightful owner of the data.
    pub(super) fn report(&mut self, horizon: SimDuration) -> RunReport {
        let scheduler = self.devices[0]
            .sched
            .as_ref()
            .map(|s| s.name())
            .unwrap_or("unknown");
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for i in 0..self.tasks.len() {
            // A task that never migrated has all its usage on its one
            // device — a single lookup. Only migrated tasks (rare) pay
            // the sum across every device they may have visited (a
            // migrated task leaves usage behind on its former device).
            let t = &self.tasks[i];
            let usage = match t.migrations {
                0 => self.devices[t.device.index()].gpu.usage_of(t.id),
                _ => self.devices.iter().map(|s| s.gpu.usage_of(t.id)).sum(),
            };
            let t = &mut self.tasks[i];
            tasks.push(TaskReport {
                id: t.id,
                name: std::mem::take(&mut t.name),
                device: t.device,
                arrived_at: t.arrived_at,
                finished_at: t.finished_at,
                rounds: std::mem::take(&mut t.rounds),
                submitted_requests: t.submitted,
                completed_requests: t.completed,
                usage,
                faults: t.faults,
                killed: t.killed,
                migrations: t.migrations,
                transfer_stall: t.transfer_stall,
                submit_times: std::mem::take(&mut t.submit_times),
                service_times: std::mem::take(&mut t.service_times),
                service_kinds: std::mem::take(&mut t.service_kinds),
                rounds_hist: std::mem::take(&mut t.rounds_hist),
                service_hist: std::mem::take(&mut t.service_hist),
                interarrival_hist: std::mem::take(&mut t.interarrival_hist),
            });
        }
        let mut stats = std::mem::take(&mut self.stats);
        let (vetoed, cooled) = self.rebalance.decision_stats();
        stats.set(StatKey::RebalanceVetoed, vetoed);
        stats.set(StatKey::RebalanceCooledDown, cooled);
        // Degraded-capacity time: per device, total offline span — a
        // still-offline device is charged through the horizon.
        let end = SimTime::ZERO + horizon;
        let devices: Vec<DeviceReport> = self
            .devices
            .iter()
            .map(|s| DeviceReport {
                device: s.gpu.id(),
                compute_busy: s.gpu.engine_busy(EngineClass::Compute),
                dma_busy: s.gpu.engine_busy(EngineClass::Dma),
                tenants: s.residents.len(),
                transfer_stall: s.transfer_stall,
                degraded: s.offline_total
                    + s.offline_since.map_or(SimDuration::ZERO, |since| {
                        end.saturating_duration_since(since)
                    }),
                stats: s.stats.clone(),
            })
            .collect();
        let groups = match self.config.metrics {
            MetricsMode::Exact => Vec::new(),
            MetricsMode::Streaming => groups_of(&tasks),
        };
        RunReport {
            scheduler,
            wall: horizon,
            tasks,
            compute_busy: devices.iter().map(|d| d.compute_busy).sum(),
            dma_busy: devices.iter().map(|d| d.dma_busy).sum(),
            transfer_stall: devices.iter().map(|d| d.transfer_stall).sum(),
            degraded: devices.iter().map(|d| d.degraded).sum(),
            devices,
            events: stats.get(StatKey::Events),
            stats,
            groups,
            timeline: std::mem::take(&mut self.sampler.timeline),
        }
    }
}
