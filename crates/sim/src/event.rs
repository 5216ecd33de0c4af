//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue over (time, sequence) pairs: events
//! fire in nondecreasing time order, and events scheduled for the same
//! instant fire in the order they were scheduled (stable FIFO
//! tie-breaking). Stability is what makes whole-simulation determinism
//! possible, so it is load-bearing, tested, and guaranteed.
//!
//! # Design: monotone radix heap over an inline-payload slab
//!
//! Payloads live in a `Vec` slab with a free list; queue keys carry the
//! payload's slot index and a per-slot generation counter, so no
//! operation hashes or looks anything up by key.
//!
//! Keys are ordered by the 128-bit *rank* `(at << 64) | seq` and kept in
//! a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990). The
//! heap remembers a *base*: the rank of the most recently popped event.
//! A key lives in bucket `i`, where `i` is one plus the index of the
//! highest bit in which its rank differs from the base (bucket 0 holds
//! a rank equal to the base). Every key in bucket `i` is smaller than
//! every key in bucket `i + 1`, so the minimum sits in the lowest
//! non-empty bucket, found through a 129-bit occupancy mask.
//!
//! - **schedule** computes the bucket with one XOR and a leading-zero
//!   count, pushes a 24-byte key and writes one slab slot. O(1).
//! - **cancel** is O(1): bump the slot's generation and reclaim it. The
//!   stale key is tombstoned implicitly — its generation no longer
//!   matches — and is discarded when a scan reaches it.
//! - **pop** scans the lowest non-empty bucket for its minimum, makes
//!   that rank the new base, and moves the bucket's other live keys
//!   into lower buckets (they now agree with the base on more high
//!   bits). A key only ever moves down, at most 128 times over its
//!   life, so a pop's amortized cost does not grow with the number of
//!   queued keys. Far-future keys (the
//!   arrivals a scenario stages up front) sit untouched in high buckets
//!   until the base approaches them, so they cost nothing per pop.
//!
//! **The monotonicity invariant.** A radix heap requires every key to be
//! at least the base. The queue guarantees it: `schedule` refuses times
//! before the last popped event, and `seq` grows strictly, so a new key
//! ranks above every popped one. Two things must therefore never move
//! the base, because `schedule` may legally insert a key between
//! [`EventQueue::now`] and the rank they saw:
//!
//! - **a peek** — [`EventQueue::peek_time`] finds the minimum without
//!   committing to it;
//! - **a stale key** — a cancelled minimum is dropped, and the scan
//!   repeats; only a live event that actually pops becomes the base.
//!
//! Cancellation tokens encode `(generation << 32) | slot`; a token
//! becomes stale the moment its event fires or is cancelled, and a
//! stale token can only be confused with a live one after a single slot
//! is reused 2^32 times — unreachable in practice.

use crate::time::SimTime;

/// One bucket per possible highest differing bit of a 128-bit rank,
/// plus bucket 0 for a rank equal to the base.
const BUCKETS: usize = 129;

/// An event together with its scheduled firing time and a cancellation
/// handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number; total order tie-breaker and
    /// cancellation token.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Queue key: ordered by [`Key::rank`], i.e. `(at, seq)` — `seq` is
/// unique, so the slot and generation fields never influence the order;
/// they exist to find and validate the payload without a lookup table.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl Key {
    fn rank(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// The bucket of `rank` relative to `base`: one plus the index of the
/// highest bit where they differ, or 0 when they are equal.
fn bucket_of(rank: u128, base: u128) -> usize {
    (128 - (rank ^ base).leading_zeros()) as usize
}

/// Sets bucket `b`'s bit in the occupancy mask.
fn mark(occupied: &mut [u64; 3], b: usize) {
    occupied[b / 64] |= 1 << (b % 64);
}

/// Clears bucket `b`'s bit in the occupancy mask.
fn unmark(occupied: &mut [u64; 3], b: usize) {
    occupied[b / 64] &= !(1 << (b % 64));
}

/// One slab slot. A slot is *live* while a queue key carrying its
/// current generation exists; vacating the slot (pop or cancel) bumps
/// the generation, which simultaneously invalidates the old key and
/// any outstanding cancellation token.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    payload: Option<(SimTime, E)>,
}

/// A deterministic discrete-event queue.
///
/// # Example
///
/// ```
/// use neon_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_micros(10);
/// q.schedule(t, 'a');
/// q.schedule(t, 'b'); // same instant: FIFO order preserved
/// assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
/// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    buckets: Box<[Vec<Key>; BUCKETS]>,
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: [u64; 3],
    /// Rank of the most recently popped event; every queued key ranks
    /// at or above it.
    base: u128,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; 3],
            base: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`, returning a token that
    /// can be passed to [`EventQueue::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the most recently popped event's
    /// time: the simulator may not schedule into its own past.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.now(),
            "cannot schedule into the past: {} < {}",
            at,
            self.now()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some((at, event));
                slot
            }
            None => {
                // lint: allow(unchecked-unwrap) — 2^32 concurrently-live
                // events cannot fit in memory; truncating the slot id would
                // corrupt cancellation tokens
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some((at, event)),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let key = Key { at, seq, slot, gen };
        let b = bucket_of(key.rank(), self.base);
        self.buckets[b].push(key);
        mark(&mut self.occupied, b);
        self.live += 1;
        ((gen as u64) << 32) | slot as u64
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event had not yet fired or been cancelled. O(1): the buckets are
    /// not touched; the stale key is discarded lazily when a scan
    /// reaches it.
    pub fn cancel(&mut self, token: u64) -> Option<E> {
        let slot = (token & u32::MAX as u64) as usize;
        // lint: allow(narrowing-cast) — deliberate upper-half bit extraction
        // from the packed (gen, slot) token
        let gen = (token >> 32) as u32;
        match self.slots.get_mut(slot) {
            Some(s) if s.gen == gen => {
                // lint: allow(unchecked-unwrap) — the generation match above
                // proves the slot is live
                let (_, event) = s.payload.take().expect("live slot must hold a payload");
                s.gen = s.gen.wrapping_add(1);
                // lint: allow(narrowing-cast) — slot was masked to the low 32
                // bits of the token above
                self.free.push(slot as u32);
                self.live -= 1;
                Some(event)
            }
            _ => None,
        }
    }

    /// Removes and returns the next event in (time, schedule-order).
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (b, i) = self.find_min()?;
        let key = self.buckets[b].swap_remove(i);
        // Only a live event that actually fires advances the base.
        self.base = key.rank();
        let (lower, upper) = self.buckets.split_at_mut(b);
        for k in upper[0].drain(..) {
            if self.slots[k.slot as usize].gen != k.gen {
                continue; // cancelled: discard the stale key
            }
            let nb = bucket_of(k.rank(), self.base);
            debug_assert!(nb < b, "a redistributed key must move down");
            lower[nb].push(k);
            mark(&mut self.occupied, nb);
        }
        unmark(&mut self.occupied, b);
        let slot = &mut self.slots[key.slot as usize];
        // lint: allow(unchecked-unwrap) — find_min only returns live keys
        let (at, event) = slot.payload.take().expect("live slot must hold a payload");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        debug_assert_eq!(at, key.at);
        Some((at, event))
    }

    /// The firing time of the next live event, if any. Stale
    /// (cancelled) keys met on the way are dropped as a side effect, so
    /// repeated peeks stay cheap even after mass cancellation — each
    /// stale key is paid for once, here or in [`EventQueue::pop`]. A
    /// peek never moves the base: an event may still be scheduled
    /// between [`EventQueue::now`] and the peeked time.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.find_min().map(|(b, i)| self.buckets[b][i].at)
    }

    /// Locates the minimum live key: its bucket and index. Empties
    /// buckets that hold only stale keys, and purges the stale keys of
    /// a bucket whose minimum turned out stale, so the base is never
    /// derived from a cancelled event.
    fn find_min(&mut self) -> Option<(usize, usize)> {
        loop {
            let b = self.lowest_occupied()?;
            let bucket = &mut self.buckets[b];
            // Ranks are read from the contiguous bucket alone; the slab
            // is consulted only for the winner.
            let i = min_rank_index(bucket);
            let k = bucket[i];
            if self.slots[k.slot as usize].gen == k.gen {
                return Some((b, i));
            }
            let slots = &self.slots;
            bucket.retain(|k| slots[k.slot as usize].gen == k.gen);
            if bucket.is_empty() {
                unmark(&mut self.occupied, b);
            }
        }
    }

    /// Index of the lowest non-empty bucket.
    fn lowest_occupied(&self) -> Option<usize> {
        (0..self.occupied.len())
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Number of live (not cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos((self.base >> 64) as u64)
    }

    /// Empties the queue while keeping the slab, free list, and bucket
    /// allocations, so a long-lived queue can be recycled across
    /// simulation runs without touching the allocator.
    ///
    /// A cleared queue is observationally identical to a fresh one:
    /// sequence numbers restart at zero, "now" rewinds to
    /// [`SimTime::ZERO`], and the free list is rebuilt so slots are
    /// handed out in the same `0, 1, 2, …` order a new queue would use.
    /// (Slot generations keep advancing, but generations never
    /// influence event order — only `(at, seq)` does — so reuse cannot
    /// perturb determinism.) All outstanding cancellation tokens die.
    pub fn clear(&mut self) {
        for bucket in self.buckets.iter_mut() {
            bucket.clear();
        }
        self.occupied = [0; 3];
        self.base = 0;
        for slot in &mut self.slots {
            if slot.payload.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
        }
        self.free.clear();
        // lint: allow(narrowing-cast) — slots.len() stayed below 2^32,
        // enforced at allocation in schedule()
        self.free.extend((0..self.slots.len() as u32).rev());
        self.live = 0;
        self.next_seq = 0;
    }
}

/// Index of the smallest rank in a non-empty bucket.
fn min_rank_index(bucket: &[Key]) -> usize {
    let mut best = 0;
    let mut best_rank = bucket[0].rank();
    for (i, k) in bucket.iter().enumerate().skip(1) {
        let r = k.rank();
        if r < best_rank {
            best = i;
            best_rank = r;
        }
    }
    best
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1), "keep");
        let drop = q.schedule(t(2), "drop");
        assert_eq!(q.cancel(drop), Some("drop"));
        assert_eq!(q.cancel(drop), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1), "keep")));
        assert!(q.pop().is_none());
        let _ = keep;
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), 7);
        assert!(q.pop().is_some());
        assert_eq!(q.cancel(tok), None);
    }

    #[test]
    fn stale_token_cannot_cancel_a_slot_reuse() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        // 'b' reuses the slot that 'a' vacated, under a new generation.
        let _tok_b = q.schedule(t(2), 'b');
        assert_eq!(q.cancel(tok), None, "a fired token must stay dead");
        assert_eq!(q.pop(), Some((t(2), 'b')));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = q.schedule(t(1), 'x');
        q.schedule(t(5), 'y');
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(t(5)));
    }

    #[test]
    fn peek_time_stays_cheap_under_mass_cancellation() {
        // Regression for the O(n) full-heap scan: cancel a large prefix
        // of earliest-firing events, then peek. The first peek drains
        // the stale tops; subsequent peeks find a live top immediately.
        let mut q = EventQueue::new();
        let tokens: Vec<u64> = (0..10_000).map(|i| q.schedule(t(i), i)).collect();
        q.schedule(t(1_000_000), 42);
        for tok in tokens {
            assert!(q.cancel(tok).is_some());
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        // The stale keys were drained by the peek, not merely skipped:
        // the buckets now hold exactly the one live entry, so further
        // peeks and the final pop are O(1).
        assert_eq!(q.buckets.iter().map(Vec::len).sum::<usize>(), 1);
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        assert_eq!(q.pop(), Some((t(1_000_000), 42)));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_reused_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..10 {
                q.schedule(t(round * 10 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 10,
            "slab grew to {} slots for 10 concurrent events",
            q.slots.len()
        );
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(4));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn cleared_queue_behaves_like_a_fresh_one() {
        let mut fresh = EventQueue::new();
        let mut reused = EventQueue::new();
        // Dirty the reused queue: live events, cancellations, pops.
        let tok = reused.schedule(t(5), 100);
        reused.schedule(t(7), 101);
        reused.cancel(tok);
        reused.schedule(t(50), 102);
        reused.pop();
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.now(), SimTime::ZERO);
        // Same schedule program on both: identical pops and tokens
        // modulo generation bits (which never affect order).
        let mut toks = Vec::new();
        for q in [&mut fresh, &mut reused] {
            toks.push(vec![
                q.schedule(t(10), 1),
                q.schedule(t(10), 2),
                q.schedule(t(3), 3),
            ]);
        }
        for (a, b) in toks[0].iter().zip(&toks[1]) {
            assert_eq!(
                a & u32::MAX as u64,
                b & u32::MAX as u64,
                "slot order differs"
            );
        }
        loop {
            let (a, b) = (fresh.pop(), reused.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_kills_outstanding_tokens_and_keeps_capacity() {
        let mut q = EventQueue::new();
        let toks: Vec<u64> = (0..32).map(|i| q.schedule(t(i), i)).collect();
        let slots_before = q.slots.len();
        q.clear();
        for tok in toks {
            assert_eq!(q.cancel(tok), None, "pre-clear token must be dead");
        }
        assert_eq!(q.slots.len(), slots_before, "slab capacity retained");
        // And scheduling at ZERO works again (now rewound).
        q.schedule(SimTime::ZERO, 0);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        // Schedule something between now and the pending event.
        q.schedule(t(15), 3);
        assert_eq!(q.pop(), Some((t(15), 3)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        let _ = SimDuration::ZERO; // silence unused import in some cfgs
    }

    #[test]
    fn peek_does_not_advance_the_base() {
        // A peek sees t(50) as the minimum; an event scheduled afterwards
        // between now() and t(50) must still fire first.
        let mut q = EventQueue::new();
        q.schedule(t(10), 'a');
        q.schedule(t(50), 'b');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.peek_time(), Some(t(50)));
        q.schedule(t(20), 'c');
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), 'c')));
        assert_eq!(q.pop(), Some((t(50), 'b')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_minimum_does_not_advance_the_base() {
        // The cancelled t(40) is the minimum of its bucket when the next
        // scan reaches it; it must be dropped without becoming the base,
        // so an event between now() and t(40) stays schedulable and
        // fires first.
        let mut q = EventQueue::new();
        q.schedule(t(10), 'a');
        let doomed = q.schedule(t(40), 'x');
        q.schedule(t(1_000_000), 'z');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.cancel(doomed), Some('x'));
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        q.schedule(t(30), 'b');
        assert_eq!(q.pop(), Some((t(30), 'b')));
        assert_eq!(q.now(), t(30));
        q.schedule(t(35), 'c');
        assert_eq!(q.pop(), Some((t(35), 'c')));
        assert_eq!(q.pop(), Some((t(1_000_000), 'z')));
        assert!(q.is_empty());

        // The same when the cancelled key is the last one: the pop that
        // drops it finds nothing, and now() must not jump to its time.
        let doomed = q.schedule(t(2_000_000), 'y');
        assert_eq!(q.cancel(doomed), Some('y'));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), t(1_000_000));
        q.schedule(t(1_500_000), 'd');
        assert_eq!(q.pop(), Some((t(1_500_000), 'd')));
    }

    #[test]
    fn far_future_and_extreme_times_keep_their_order() {
        // Keys spread over every bucket: ties at now, sub-microsecond
        // offsets, 2^40 ns, and times next to u64::MAX ns.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos(1 << 40);
        let edge = SimTime::from_nanos(u64::MAX - 1);
        q.schedule(SimTime::MAX, 6);
        q.schedule(edge, 5);
        q.schedule(far, 3);
        q.schedule(SimTime::from_nanos(999), 1);
        q.schedule(SimTime::ZERO, 0);
        q.schedule(far, 4);
        q.schedule(SimTime::from_nanos(1_000), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(q.now(), SimTime::MAX);
        q.schedule(SimTime::MAX, 7);
        assert_eq!(q.pop(), Some((SimTime::MAX, 7)));
    }

    #[test]
    fn clear_keeps_bucket_capacity() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.schedule(t(i * 1_000), i);
        }
        q.pop();
        let capacity = |q: &EventQueue<u64>| -> usize { q.buckets.iter().map(Vec::capacity).sum() };
        let before = capacity(&q);
        q.clear();
        assert_eq!(capacity(&q), before, "clear must not free bucket storage");
        assert!(q.buckets.iter().all(Vec::is_empty));
        assert_eq!(q.occupied, [0; 3]);
    }
}
