//! Microbenchmarks of the simulation hot path: the event queue under
//! the world's hold pattern (pop an event, schedule its successor) at
//! ~20 and ~400 live events (and at ~400 with task exits cancelling
//! pending events), under a schedule/pop/cancel mix alone and
//! over ~800 staged far-future arrivals, peek under mass cancellation
//! (the last three are the worst cases of the queue's bounded near
//! tier), and a mid-size churn world with tracing off (the sweep
//! configuration) vs on — the workloads the queue, lazy tracing, and
//! allocation-free scheduler context were written for — plus
//! `StreamingHistogram::record` on a
//! repeating stream (the repeat-bucket hint's hit) and a wide random
//! one (its miss), and a `Gpu` after long churn (`gpu_after_churn`:
//! ~1,600 channels created and destroyed, 10 live tasks), whose drain
//! check, queued count and task teardown cost O(live channels), not
//! O(channels ever created). `tiny_rounds_world` is the world's task
//! chain almost alone: eight 10 us fixed-loop residents with a 1 us gap,
//! under `direct` and `disengaged-fq`, where most events are a task's
//! own next step or store and run without entering the queue.
//! `neon bench <scenario>` measures the same path end to end and emits
//! `BENCH_core.json` for the perf trajectory.
//!
//! Every case runs in the one process, so what the cases before it
//! allocated moves its figure: quote a case only from its own process,
//! run with a filter argument, e.g.
//! `cargo bench -p neon-bench --bench core_hot_path -- gpu_after_churn`.

use criterion::{criterion_group, criterion_main, Criterion};
use neon_core::cost::SchedParams;
use neon_core::sched::SchedulerKind;
use neon_core::workload::FixedLoop;
use neon_core::world::{World, WorldConfig};
use neon_gpu::{Gpu, GpuConfig, RequestKind, SubmitSpec, TaskId};
use neon_metrics::StreamingHistogram;
use neon_sim::{EventQueue, SimDuration, SimTime};

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// A single-device world under DFQ with mid-run arrivals and
/// departures: the reference churn cell in miniature.
fn churn_world(trace: bool) -> World {
    let mut world = World::new(
        WorldConfig::default(),
        SchedulerKind::DisengagedFairQueueing.build(SchedParams::default()),
    );
    world.trace.set_enabled(trace);
    for i in 0..4u64 {
        world
            .add_task(Box::new(FixedLoop::endless(
                format!("resident{i}"),
                us(40 + 30 * i),
                us(5),
            )))
            .unwrap();
    }
    for i in 0..12u64 {
        world.spawn_task_for(
            SimTime::ZERO + SimDuration::from_millis(3 * i + 1),
            Box::new(FixedLoop::endless(format!("visitor{i}"), us(120), us(10))),
            SimDuration::from_millis(8),
        );
    }
    world
}

/// Eight tiny-round fixed-loop residents (10 us service, 1 us gap) on
/// one device under `kind`: long-tenant's resident-small group alone.
fn tiny_rounds_world(kind: SchedulerKind) -> World {
    let mut world = World::new(WorldConfig::default(), kind.build(SchedParams::default()));
    for i in 0..8 {
        world
            .add_task(Box::new(FixedLoop::endless(
                format!("tiny{i}"),
                us(10),
                us(1),
            )))
            .unwrap();
    }
    world
}

/// A deterministic xorshift64 stream.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// 64k queue ops in the proportions the world loop produces: ~60%
/// schedules within 1 us of now, ~20% cancels of a remembered token
/// (step/engine tokens are cancelled often), ~20% pops. Returns the
/// number of events popped.
fn near_future_mix(q: &mut EventQueue<u64>, next: &mut impl FnMut() -> u64) -> u64 {
    let mut tokens: Vec<u64> = Vec::new();
    let mut popped = 0u64;
    for i in 0..65_536u64 {
        match next() % 10 {
            0..=5 => {
                let at = q.now() + SimDuration::from_nanos(next() % 1_000);
                tokens.push(q.schedule(at, i));
            }
            6..=7 => {
                if !tokens.is_empty() {
                    let k = next() as usize % tokens.len();
                    q.cancel(tokens.swap_remove(k));
                }
            }
            _ => {
                if q.pop().is_some() {
                    popped += 1;
                }
            }
        }
    }
    popped
}

/// The world loop's usual stream: pop an event and schedule its
/// successor. `tasks` near-future events cycle behind 800 staged
/// arrivals spread over a 16 s horizon. ~85% of successors follow
/// within 64 ns, so they are the new minimum (the other events are
/// ~microseconds apart); the rest land up to `2 * tasks` us ahead. A
/// staged arrival pops without a successor.
///
/// With `exits`, on ~2% of pops one of the last four tasks to run
/// exits, as `World::task_exit` does — its pending event is cancelled
/// — and a newcomer takes its place within 64 ns. A recently run
/// task's pending event is usually in the queue's near run (~70% of
/// these cancels find it there; a random task's would almost never).
/// Returns the number of events popped.
fn hold_pattern(tasks: u64, pops: u64, exits: bool) -> u64 {
    const STAGED: u64 = u64::MAX;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut next = xorshift(0x5EED);
    for _ in 0..800 {
        q.schedule(SimTime::from_nanos(next() % 16_000_000_000), STAGED);
    }
    let mut pending: Vec<u64> = (0..tasks)
        .map(|task| q.schedule(SimTime::from_nanos(next() % (tasks * 1_000)), task))
        .collect();
    let mut recent = [0usize; 4];
    let mut popped = 0;
    while popped < pops {
        let Some((at, task)) = q.pop() else { break };
        popped += 1;
        if task == STAGED {
            continue;
        }
        let r = next();
        let delay = if r % 100 < 85 {
            1 + (r >> 8) % 64
        } else {
            (r >> 8) % (tasks * 2_000)
        };
        pending[task as usize] = q.schedule(at + SimDuration::from_nanos(delay), task);
        recent[popped as usize % recent.len()] = task as usize;
        if exits && (r >> 32).is_multiple_of(50) {
            let exiting = recent[(r >> 40) as usize % recent.len()];
            let cancelled = q.cancel(pending[exiting]);
            assert!(cancelled.is_some(), "a pending event is live");
            let arrival = at + SimDuration::from_nanos(1 + (r >> 20) % 64);
            pending[exiting] = q.schedule(arrival, exiting as u64);
        }
    }
    popped
}

/// Live tasks of [`churned_gpu`]; task `LIVE` is the one a teardown
/// cycle destroys and re-creates.
const LIVE: u32 = 10;

/// Creates a context and two compute channels for `task`, with one
/// request queued on the first.
fn admit(gpu: &mut Gpu, task: TaskId) {
    let ctx = gpu.create_context(task).unwrap();
    let ch = gpu.create_channel(ctx, RequestKind::Compute).unwrap();
    gpu.create_channel(ctx, RequestKind::Compute).unwrap();
    gpu.submit(SimTime::ZERO, ch, SubmitSpec::compute(us(10)))
        .unwrap();
}

/// A device after the long-tenant workload's churn: 800 short-lived
/// tasks of two channels each came and went (~1,600 destroyed channel
/// slots, never reused), and `LIVE` tasks remain, each with work
/// queued.
fn churned_gpu() -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::default());
    for t in 0..800 {
        let task = TaskId::new(LIVE + 1 + t);
        admit(&mut gpu, task);
        gpu.destroy_task(SimTime::ZERO, task);
    }
    for t in 0..LIVE {
        admit(&mut gpu, TaskId::new(t));
    }
    gpu
}

/// Records every sample into a copy of `seed`; returns its bucket
/// count so the work is not optimized away.
fn record_all(seed: &StreamingHistogram, samples: &[SimDuration]) -> usize {
    let mut h = seed.clone();
    for &s in samples {
        h.record(s);
    }
    h.buckets_used()
}

fn bench(c: &mut Criterion) {
    // 64k samples each, into a histogram already holding the wide
    // stream's thousands of buckets (so a lookup is a real search): a
    // constant 10 us stream, as a fixed-loop tenant's service times
    // are, and a wide random one (up to ~18 minutes) that almost never
    // repeats a bucket.
    let repeat = vec![us(10); 65_536];
    let mut next = xorshift(0x5EED);
    let spread: Vec<SimDuration> = (0..65_536)
        .map(|_| SimDuration::from_nanos(next() >> 24))
        .collect();
    let mut seed = StreamingHistogram::new();
    for &s in &spread {
        seed.record(s);
    }
    c.bench_function("core_hot_path/hist_record/repeat", |b| {
        b.iter(|| std::hint::black_box(record_all(&seed, &repeat)))
    });
    c.bench_function("core_hot_path/hist_record/spread", |b| {
        b.iter(|| std::hint::black_box(record_all(&seed, &spread)))
    });

    for tasks in [20, 400] {
        c.bench_function(&format!("core_hot_path/queue_hold_pattern/{tasks}"), |b| {
            b.iter(|| std::hint::black_box(hold_pattern(tasks, 65_536, false)))
        });
    }
    c.bench_function("core_hot_path/queue_hold_pattern_with_exits/400", |b| {
        b.iter(|| std::hint::black_box(hold_pattern(400, 65_536, true)))
    });

    c.bench_function("core_hot_path/queue_schedule_pop_cancel_64k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut next = xorshift(0x5EED);
            let mut popped = near_future_mix(&mut q, &mut next);
            while q.pop().is_some() {
                popped += 1;
            }
            std::hint::black_box(popped)
        })
    });

    c.bench_function("core_hot_path/queue_mix_over_800_staged_arrivals", |b| {
        b.iter(|| {
            // World-shaped: the scenario driver stages every arrival up
            // front, so ~800 far-future keys (spread over a 16 s
            // horizon) sit in the queue while the near-future mix runs.
            // The mix alone keeps every key within 1 us of now and so
            // never shows what those staged keys cost each pop.
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut next = xorshift(0x5EED);
            for i in 0..800u64 {
                q.schedule(SimTime::from_nanos(next() % 16_000_000_000), i);
            }
            let popped = near_future_mix(&mut q, &mut next);
            std::hint::black_box((popped, q.len()))
        })
    });

    c.bench_function("core_hot_path/peek_under_mass_cancellation", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let tokens: Vec<u64> = (0..8_192u64)
                .map(|i| q.schedule(SimTime::from_nanos(i), i))
                .collect();
            q.schedule(SimTime::from_micros(1_000_000), 0);
            for tok in tokens {
                q.cancel(tok);
            }
            // The first peek drains the stale tops; the rest are O(1).
            let mut acc = 0u64;
            for _ in 0..8_192 {
                acc ^= q.peek_time().map(|t| t.as_nanos()).unwrap_or(0);
            }
            std::hint::black_box(acc)
        })
    });

    // 4k of each device query the scheduler and placement make per
    // poll, completion or arrival, and 256 teardown/re-admission cycles
    // of one task (each leaves two more channel slots behind), on a
    // device that has seen ~1,600 channels.
    let mut gpu = churned_gpu();
    c.bench_function("core_hot_path/gpu_after_churn/is_fully_drained", |b| {
        b.iter(|| {
            let mut n = 0u32;
            for _ in 0..4_096 {
                n += u32::from(std::hint::black_box(&gpu).is_fully_drained());
            }
            std::hint::black_box(n)
        })
    });
    c.bench_function("core_hot_path/gpu_after_churn/queued_requests", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for _ in 0..4_096 {
                n += std::hint::black_box(&gpu).queued_requests();
            }
            std::hint::black_box(n)
        })
    });
    c.bench_function("core_hot_path/gpu_after_churn/destroy_recreate", |b| {
        b.iter(|| {
            for _ in 0..256 {
                gpu.destroy_task(SimTime::ZERO, TaskId::new(LIVE));
                admit(&mut gpu, TaskId::new(LIVE));
            }
            std::hint::black_box(gpu.channels_in_use())
        })
    });

    c.bench_function("core_hot_path/churn_world_100ms_trace_off", |b| {
        b.iter(|| {
            let mut world = churn_world(false);
            std::hint::black_box(world.run(SimDuration::from_millis(100)))
        })
    });

    c.bench_function("core_hot_path/churn_world_100ms_trace_on", |b| {
        b.iter(|| {
            let mut world = churn_world(true);
            std::hint::black_box(world.run(SimDuration::from_millis(100)))
        })
    });

    for kind in [SchedulerKind::Direct, SchedulerKind::DisengagedFairQueueing] {
        let name = format!("core_hot_path/tiny_rounds_world/{}", kind.label());
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut world = tiny_rounds_world(kind);
                std::hint::black_box(world.run(SimDuration::from_millis(50)))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
