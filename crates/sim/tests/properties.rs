//! Property tests for the simulation engine's ordering guarantees.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use neon_sim::{DetRng, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference implementation of the queue's documented semantics — the
/// pre-slab design, kept verbatim as an executable specification: a
/// `(time, seq)` binary heap with out-of-line payloads, stable FIFO
/// tie-breaking at equal times, O(1) cancel by payload removal. The
/// production [`EventQueue`] must agree with this model on every
/// schedule/cancel/pop interleaving.
struct ModelQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    payloads: HashMap<u64, (SimTime, E)>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> ModelQueue<E> {
    fn new() -> Self {
        ModelQueue {
            heap: BinaryHeap::new(),
            payloads: HashMap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        assert!(at >= self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.payloads.insert(seq, (at, event));
        seq
    }

    fn cancel(&mut self, token: u64) -> Option<E> {
        self.payloads.remove(&token).map(|(_, e)| e)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if let Some((_, event)) = self.payloads.remove(&seq) {
                self.last_popped = at;
                return Some((at, event));
            }
        }
        None
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|Reverse((_, seq))| self.payloads.contains_key(seq))
            .map(|Reverse((at, _))| *at)
            .min()
    }

    fn now(&self) -> SimTime {
        self.last_popped
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.payloads.clear();
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

fn fnv1a(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A fixed schedule/cancel/pop/peek interleaving whose pop order is
/// hashed and pinned. The constant was captured on the pre-rewrite
/// commit (the `BinaryHeap` + `HashMap` queue), so any rewrite of the
/// queue internals must reproduce the original semantics bit for bit.
#[test]
fn golden_interleaving_pop_order_hash() {
    let mut state = 0x5EED_1234_ABCD_0001u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut tokens: Vec<u64> = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..20_000u64 {
        match next() % 8 {
            0..=3 => {
                let at = q.now() + SimDuration::from_nanos(next() % 997);
                tokens.push(q.schedule(at, step));
            }
            4 => {
                // Cancel a remembered token, possibly one that already
                // fired (a no-op): the *position* in the remembered
                // list is deterministic even though token values are
                // representation-dependent.
                if !tokens.is_empty() {
                    let i = next() as usize % tokens.len();
                    let tok = tokens.swap_remove(i);
                    fnv1a(&mut hash, q.cancel(tok).is_some() as u64);
                }
            }
            5 => {
                if let Some(at) = q.peek_time() {
                    fnv1a(&mut hash, at.as_nanos());
                } else {
                    fnv1a(&mut hash, u64::MAX);
                }
            }
            _ => {
                if let Some((at, v)) = q.pop() {
                    fnv1a(&mut hash, at.as_nanos());
                    fnv1a(&mut hash, v);
                }
            }
        }
    }
    while let Some((at, v)) = q.pop() {
        fnv1a(&mut hash, at.as_nanos());
        fnv1a(&mut hash, v);
    }
    assert_eq!(
        hash, 0xFF0D_444D_1D58_D9D6,
        "pop order drifted from the pre-rewrite golden capture (got {hash:#018x})"
    );
}

proptest! {
    /// Events pop in nondecreasing time order regardless of insertion
    /// order, with FIFO stability at equal times.
    #[test]
    fn total_order_with_fifo_ties(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut popped = Vec::new();
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let tokens: Vec<u64> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut cancelled = 0;
        for (tok, &c) in tokens.iter().zip(&cancel_mask) {
            if c && q.cancel(*tok).is_some() {
                cancelled += 1;
            }
        }
        let mut survivors = 0;
        while q.pop().is_some() {
            survivors += 1;
        }
        prop_assert_eq!(survivors + cancelled, times.len());
    }

    /// Duration arithmetic respects the triangle-ish identities used
    /// throughout the schedulers.
    #[test]
    fn duration_identities(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
        prop_assert_eq!(da.max(db).min(da), da.min(db).max(da.min(db)).max(da).min(da));
        let t = SimTime::ZERO + da;
        prop_assert_eq!(t.saturating_duration_since(SimTime::ZERO), da);
    }

    /// The production queue agrees with the reference model (the
    /// pre-rewrite heap + out-of-line-payload design) on every random
    /// schedule/cancel/pop/peek interleaving: identical pop order,
    /// identical peek times, identical cancel outcomes. This is the
    /// determinism contract the slab rewrite must preserve.
    #[test]
    fn slab_queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000, 0u64..10_000), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: ModelQueue<u64> = ModelQueue::new();
        let mut q_tokens = Vec::new();
        let mut m_tokens = Vec::new();
        for (step, &(op, offset, pick)) in ops.iter().enumerate() {
            match op {
                0..=3 => {
                    let at = q.now() + SimDuration::from_nanos(offset);
                    q_tokens.push(q.schedule(at, step as u64));
                    m_tokens.push(model.schedule(at, step as u64));
                }
                4 => {
                    if !q_tokens.is_empty() {
                        let i = pick as usize % q_tokens.len();
                        let a = q.cancel(q_tokens.swap_remove(i));
                        let b = model.cancel(m_tokens.swap_remove(i));
                        prop_assert_eq!(a, b, "cancel outcomes diverged");
                    }
                }
                5 => {
                    prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged");
                }
                _ => {
                    prop_assert_eq!(q.pop(), model.pop(), "pop diverged");
                    prop_assert_eq!(q.now(), model.now());
                }
            }
            prop_assert_eq!(q.len(), model.payloads.len());
            prop_assert_eq!(q.is_empty(), model.payloads.is_empty());
        }
        // Drain: the tails must agree event for event.
        loop {
            let (a, b) = (q.pop(), model.pop());
            prop_assert_eq!(&a, &b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Seeded RNG streams are reproducible and stay in band.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..16 {
            let mean = SimDuration::from_micros(100);
            let (x, y) = (a.jittered(mean, 0.3), b.jittered(mean, 0.3));
            prop_assert_eq!(x, y);
            prop_assert!(x >= SimDuration::from_micros(70));
            prop_assert!(x <= SimDuration::from_micros(130));
        }
    }
}

/// The firing time for a schedule op of the wide-range model test:
/// `class` picks a tie at now, a sub-microsecond offset, an offset up
/// to 2^40 ns, or an absolute time within 1 µs of `u64::MAX` ns, so
/// keys land in every radix bucket, including the top ones.
fn wide_time(now: SimTime, class: u8, raw: u64) -> SimTime {
    let ns = now.as_nanos();
    match class {
        0..=3 => now,
        4..=9 => SimTime::from_nanos(ns.saturating_add(raw % 1_000)),
        10..=14 => SimTime::from_nanos(ns.saturating_add(raw % ((1 << 40) + 1))),
        _ => SimTime::from_nanos((u64::MAX - raw % 1_000).max(ns)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// The queue agrees with the reference model when keys span the
    /// whole time range — far-future and near-`u64::MAX` events next to
    /// same-instant ties — and across `clear()`. Tokens taken before a
    /// clear stay in play: the queue must refuse them, which the model
    /// expresses by tagging each token with the clear epoch it was
    /// issued in.
    #[test]
    fn wide_range_queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..32, 0u8..16, any::<u64>(), 0u64..10_000), 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: ModelQueue<u64> = ModelQueue::new();
        let mut epoch = 0u64;
        let mut q_tokens = Vec::new();
        let mut m_tokens = Vec::new();
        for (step, &(op, class, raw, pick)) in ops.iter().enumerate() {
            match op {
                0..=13 => {
                    let at = wide_time(q.now(), class, raw);
                    q_tokens.push(q.schedule(at, step as u64));
                    m_tokens.push((epoch, model.schedule(at, step as u64)));
                }
                14..=18 => {
                    if !q_tokens.is_empty() {
                        let i = pick as usize % q_tokens.len();
                        let a = q.cancel(q_tokens.swap_remove(i));
                        let (e, seq) = m_tokens.swap_remove(i);
                        let b = if e == epoch { model.cancel(seq) } else { None };
                        prop_assert_eq!(a, b, "cancel outcomes diverged");
                    }
                }
                19..=22 => {
                    prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged");
                }
                23..=30 => {
                    prop_assert_eq!(q.pop(), model.pop(), "pop diverged");
                    prop_assert_eq!(q.now(), model.now());
                }
                _ => {
                    q.clear();
                    model.clear();
                    epoch += 1;
                    prop_assert_eq!(q.now(), SimTime::ZERO);
                }
            }
            prop_assert_eq!(q.len(), model.payloads.len());
            prop_assert_eq!(q.is_empty(), model.payloads.is_empty());
        }
        loop {
            let (a, b) = (q.pop(), model.pop());
            prop_assert_eq!(&a, &b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// The queue agrees with the reference model on the simulator's
    /// usual stream, a "hold" pattern: most schedules land below every
    /// queued key (the event a handler schedules is usually the next to
    /// fire), over a backlog of staged far-future arrivals. Bursts of up
    /// to 64 near-future schedules overflow the queue's bounded near
    /// tier, so runs spill and refill; cancels hit keys in either tier;
    /// `clear()` lands with a non-empty near tier, and tokens taken
    /// before it stay in play.
    #[test]
    fn hold_pattern_queue_matches_reference_model(
        staged in proptest::collection::vec(1_000u64..1_000_000_000, 0..200),
        ops in proptest::collection::vec((0u8..32, any::<u64>(), 0u64..10_000), 1..600),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: ModelQueue<u64> = ModelQueue::new();
        let mut epoch = 0u64;
        let mut q_tokens = Vec::new();
        let mut m_tokens = Vec::new();
        let mut payload = 0u64;
        let mut schedule = |q: &mut EventQueue<u64>,
                            model: &mut ModelQueue<u64>,
                            q_tokens: &mut Vec<u64>,
                            m_tokens: &mut Vec<(u64, u64)>,
                            epoch: u64,
                            at: SimTime| {
            payload += 1;
            q_tokens.push(q.schedule(at, payload));
            m_tokens.push((epoch, model.schedule(at, payload)));
        };
        for &ns in &staged {
            schedule(&mut q, &mut model, &mut q_tokens, &mut m_tokens, epoch, SimTime::from_nanos(ns));
        }
        for &(op, raw, pick) in &ops {
            let now = q.now();
            match op {
                0..=13 => {
                    // Hold: at or before the earliest queued event.
                    let gap = model
                        .peek_time()
                        .map_or(1_000, |min| min.saturating_duration_since(now).as_nanos());
                    let at = now + SimDuration::from_nanos(raw % (gap + 1));
                    schedule(&mut q, &mut model, &mut q_tokens, &mut m_tokens, epoch, at);
                }
                14..=15 => {
                    // Burst: more near-future events than the near tier holds.
                    for i in 0..raw % 65 {
                        let at = now + SimDuration::from_nanos((raw >> 8).wrapping_mul(i + 1) % 2_000);
                        schedule(&mut q, &mut model, &mut q_tokens, &mut m_tokens, epoch, at);
                    }
                }
                16 => {
                    // A staged arrival, far ahead.
                    let at = now + SimDuration::from_nanos(1_000_000 + raw % 1_000_000_000);
                    schedule(&mut q, &mut model, &mut q_tokens, &mut m_tokens, epoch, at);
                }
                17..=20 => {
                    // Cancel, most often one of the newest tokens: the
                    // keys most likely to sit in the near tier.
                    if !q_tokens.is_empty() {
                        let back = if pick % 2 == 0 { pick % 4 } else { pick };
                        let i = q_tokens.len() - 1 - (back as usize % q_tokens.len());
                        let a = q.cancel(q_tokens.swap_remove(i));
                        let (e, seq) = m_tokens.swap_remove(i);
                        let b = if e == epoch { model.cancel(seq) } else { None };
                        prop_assert_eq!(a, b, "cancel outcomes diverged");
                    }
                }
                21..=22 => {
                    prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged");
                }
                23..=30 => {
                    prop_assert_eq!(q.pop(), model.pop(), "pop diverged");
                    prop_assert_eq!(q.now(), model.now());
                }
                _ => {
                    // Rare: most cases run to the end without a clear.
                    if pick % 8 == 0 {
                        q.clear();
                        model.clear();
                        epoch += 1;
                        prop_assert_eq!(q.now(), SimTime::ZERO);
                        prop_assert_eq!(q.peek_time(), None);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.payloads.len());
            prop_assert_eq!(q.is_empty(), model.payloads.is_empty());
        }
        loop {
            let (a, b) = (q.pop(), model.pop());
            prop_assert_eq!(&a, &b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}
