//! Property tests for device-level conservation invariants.

use neon_gpu::{
    ChannelId, ContextId, EngineClass, Gpu, GpuConfig, RequestKind, SubmitSpec, TaskId,
};
use neon_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Drives the compute engine until quiescent; returns the finish time.
fn drain(gpu: &mut Gpu, mut now: SimTime) -> SimTime {
    while let Some(d) = gpu.try_dispatch(now, EngineClass::Compute) {
        gpu.complete_running(d.finish_at, EngineClass::Compute);
        now = d.finish_at;
    }
    now
}

/// Tasks the index property draws from.
const TASKS: u32 = 4;

/// The scan `Gpu::queued_requests` used to make over every channel ever
/// created.
fn scanned_queued(gpu: &Gpu) -> usize {
    gpu.channels().map(|c| c.queued()).sum()
}

/// The scan `Gpu::is_fully_drained` used to make.
fn scanned_fully_drained(gpu: &Gpu) -> bool {
    EngineClass::ALL.iter().all(|&e| gpu.running(e).is_none())
        && gpu.channels().all(|c| c.is_quiesced() || !c.is_enabled())
}

/// The scan `Gpu::channels_of` used to make.
fn scanned_channels_of(gpu: &Gpu, task: TaskId) -> Vec<ChannelId> {
    gpu.channels()
        .filter(|c| c.task() == task && c.is_active())
        .map(|c| c.id())
        .collect()
}

/// The rotation invariant: each kind's rotation holds exactly the
/// active, enabled channels of that kind with queued work, each once.
fn rotations_hold_exactly_the_dispatchable_channels(gpu: &Gpu) -> Result<(), String> {
    for kind in RequestKind::ALL {
        let mut rotation: Vec<ChannelId> = gpu.rotation(kind).collect();
        let len = rotation.len();
        rotation.sort();
        rotation.dedup();
        if rotation.len() != len {
            return Err(format!("{kind:?} rotation repeats a channel"));
        }
        let dispatchable: Vec<ChannelId> = gpu
            .channels()
            .filter(|c| c.kind() == kind && c.is_active() && c.is_enabled() && c.queued() > 0)
            .map(|c| c.id())
            .collect();
        if rotation != dispatchable {
            return Err(format!(
                "{kind:?} rotation {rotation:?}, dispatchable {dispatchable:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// The device's indexes (each task's active channels, the queued
    /// count, the drain check over the arbitration rotations) answer
    /// exactly what a scan of every channel ever created answers, and
    /// each rotation holds exactly the dispatchable channels of its
    /// kind, after every step of a random mix of allocation,
    /// submission, dispatch, completion, preemption, masking and
    /// teardown.
    #[test]
    fn indexes_match_channel_table_scans(
        ops in proptest::collection::vec((0u8..8, 0u32..64, 1u64..400), 1..160)
    ) {
        let mut gpu = Gpu::new(GpuConfig {
            total_contexts: 3,
            total_channels: 6,
            ring_capacity: 3,
            ..GpuConfig::default()
        });
        let mut now = SimTime::ZERO;
        let mut contexts: Vec<ContextId> = Vec::new();
        let mut channels: Vec<ChannelId> = Vec::new();
        for (op, a, b) in ops {
            let engine = EngineClass::ALL[a as usize % 2];
            match op {
                0 => {
                    if let Ok(ctx) = gpu.create_context(TaskId::new(a % TASKS)) {
                        contexts.push(ctx);
                    }
                }
                1 if !contexts.is_empty() => {
                    let ctx = contexts[a as usize % contexts.len()];
                    let kind = RequestKind::ALL[b as usize % 3];
                    if let Ok(ch) = gpu.create_channel(ctx, kind) {
                        channels.push(ch);
                    }
                }
                2 if !channels.is_empty() => {
                    let ch = channels[a as usize % channels.len()];
                    let kind = gpu.channel(ch).unwrap().kind();
                    let spec = if b % 23 == 0 {
                        SubmitSpec::infinite_loop()
                    } else {
                        SubmitSpec { kind, ..SubmitSpec::compute(SimDuration::from_micros(b)) }
                    };
                    let _ = gpu.submit(now, ch, spec);
                }
                3 => {
                    gpu.try_dispatch(now, engine);
                }
                4 => {
                    let finish = gpu.running(engine).map(|r| r.finish_at);
                    if let Some(finish) = finish.filter(|&f| f != SimTime::MAX) {
                        now = now.max(finish);
                        gpu.complete_running(finish, engine);
                    }
                }
                5 => {
                    now += SimDuration::from_micros(b);
                    gpu.preempt_running(now, engine);
                }
                6 if !channels.is_empty() => {
                    let ch = channels[a as usize % channels.len()];
                    gpu.set_channel_enabled(ch, b % 2 == 0);
                }
                7 => {
                    gpu.destroy_task(now, TaskId::new(a % TASKS));
                }
                _ => {}
            }
            prop_assert_eq!(gpu.queued_requests(), scanned_queued(&gpu));
            prop_assert_eq!(gpu.is_fully_drained(), scanned_fully_drained(&gpu));
            prop_assert_eq!(rotations_hold_exactly_the_dispatchable_channels(&gpu), Ok(()));
            for t in (0..TASKS).map(TaskId::new) {
                let indexed: Vec<ChannelId> = gpu.channels_of(t).map(|c| c.id()).collect();
                prop_assert_eq!(indexed, scanned_channels_of(&gpu, t));
            }
        }
    }

    /// Per-task usage sums exactly to engine busy time, and busy time
    /// never exceeds the makespan.
    #[test]
    fn usage_conservation(sizes in proptest::collection::vec(1u64..500, 1..40)) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let tasks = 3u32;
        let mut channels = Vec::new();
        for t in 0..tasks {
            let ctx = gpu.create_context(TaskId::new(t)).unwrap();
            channels.push(gpu.create_channel(ctx, RequestKind::Compute).unwrap());
        }
        for (i, &s) in sizes.iter().enumerate() {
            let ch = channels[i % channels.len()];
            gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(SimDuration::from_micros(s)))
                .unwrap();
        }
        let end = drain(&mut gpu, SimTime::ZERO);
        let usage: SimDuration = (0..tasks)
            .map(|t| gpu.usage_of(TaskId::new(t)))
            .sum();
        prop_assert_eq!(usage, gpu.engine_busy(EngineClass::Compute));
        prop_assert!(gpu.engine_busy(EngineClass::Compute) <= end.saturating_duration_since(SimTime::ZERO));
        prop_assert_eq!(gpu.completed_requests(), sizes.len() as u64);
        prop_assert!(gpu.is_fully_drained());
    }

    /// Reference counters advance monotonically to the submitted count
    /// on every channel.
    #[test]
    fn reference_counters_settle(counts in proptest::collection::vec(1usize..20, 1..4)) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let mut channels = Vec::new();
        for (t, &n) in counts.iter().enumerate() {
            let ctx = gpu.create_context(TaskId::new(t as u32)).unwrap();
            let ch = gpu.create_channel(ctx, RequestKind::Compute).unwrap();
            for _ in 0..n {
                gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(SimDuration::from_micros(5)))
                    .unwrap();
            }
            channels.push((ch, n));
        }
        drain(&mut gpu, SimTime::ZERO);
        for (ch, n) in channels {
            let c = gpu.channel(ch).unwrap();
            prop_assert_eq!(c.completed_reference(), n as u64);
            prop_assert!(c.drained());
        }
    }

    /// Round-robin keeps per-task completion counts within one request
    /// of each other for equal-size, equal-count workloads.
    #[test]
    fn equal_tasks_complete_in_lockstep(n in 1usize..30, size in 1u64..200) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let mut channels = Vec::new();
        for t in 0..2u32 {
            let ctx = gpu.create_context(TaskId::new(t)).unwrap();
            channels.push(gpu.create_channel(ctx, RequestKind::Compute).unwrap());
        }
        for _ in 0..n {
            for &ch in &channels {
                gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(SimDuration::from_micros(size)))
                    .unwrap();
            }
        }
        drain(&mut gpu, SimTime::ZERO);
        let a = gpu.usage_of(TaskId::new(0));
        let b = gpu.usage_of(TaskId::new(1));
        let diff = a.saturating_sub(b).max(b.saturating_sub(a));
        prop_assert!(
            diff <= SimDuration::from_micros(size + 8),
            "lockstep violated: {} vs {}", a, b
        );
    }

    /// Preemption conserves: preempted slice + rerun = original service
    /// in the task's usage accounting.
    #[test]
    fn preemption_conserves_usage(size in 50u64..2_000, cut in 1u64..40) {
        let mut gpu = Gpu::new(GpuConfig::default());
        let ctx = gpu.create_context(TaskId::new(0)).unwrap();
        let ch = gpu.create_channel(ctx, RequestKind::Compute).unwrap();
        gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(SimDuration::from_micros(size)))
            .unwrap();
        let d = gpu.try_dispatch(SimTime::ZERO, EngineClass::Compute).unwrap();
        // Cut somewhere strictly inside the execution.
        let cut_at = SimTime::from_micros(cut.min(size.saturating_sub(1)).max(1));
        prop_assume!(cut_at < d.finish_at);
        gpu.preempt_running(cut_at, EngineClass::Compute).unwrap();
        let d2 = gpu.try_dispatch(cut_at, EngineClass::Compute).unwrap();
        gpu.complete_running(d2.finish_at, EngineClass::Compute);
        // Total usage = elapsed slice before the cut (switch included)
        // + a fresh switch (preemption clears the engine context)
        // + the un-executed remainder of the service.
        let usage = gpu.usage_of(TaskId::new(0));
        let switch = gpu.config().context_switch;
        let cut_d = cut_at.saturating_duration_since(SimTime::ZERO);
        let executed = cut_d.saturating_sub(switch);
        let expected =
            cut_d + switch + SimDuration::from_micros(size).saturating_sub(executed);
        prop_assert_eq!(usage, expected);
    }
}
