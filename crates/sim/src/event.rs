//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue over (time, sequence) pairs: events
//! fire in nondecreasing time order, and events scheduled for the same
//! instant fire in the order they were scheduled (stable FIFO
//! tie-breaking). Stability is what makes whole-simulation determinism
//! possible, so it is load-bearing, tested, and guaranteed.
//!
//! **Payloads should be register-sized.** Every event is copied in by
//! [`EventQueue::schedule`] and out by [`EventQueue::pop`], and a near
//! run entry carries its payload inline, so the payload's size is paid
//! on every event: an 8-byte payload travels in a register and makes a
//! run entry 24 bytes. Put bulky per-event data in a table the payload
//! indexes. The simulation world pins its own event at 8 bytes with a
//! compile-time assertion.
//!
//! # Design: a bounded near run in front of a binary heap
//!
//! Keys are ordered by the 128-bit *rank* `(at << 64) | seq`, and a
//! key's cancellation token is its `seq`. The keys live in one of two
//! tiers, and every key in the first ranks below every key in the
//! second.
//!
//! **The near run** holds at most `NEAR` (32) keys *with their payloads
//! inline*, sorted by descending rank, so the next event is its last
//! entry. It serves the simulator's usual stream, a "hold" pattern: a
//! handler pops an event and schedules its successor, which is most
//! often the new minimum. Such an event is appended to the run and
//! popped straight back, without touching any other table. The
//! simulation world skips even that for its tasks' own chains, and for
//! the step that wakes a completion's submitter: a successor strictly
//! earlier than [`EventQueue::peek_time`] runs in place and never
//! reaches the queue. What the world does schedule is the rest:
//! completions, ticks, timers, and successors that are not the next
//! event. A wake that is not is filed under a `seq` the world took with
//! [`EventQueue::reserve`] when it decided the wake, so it ties exactly
//! as a key scheduled then would.
//!
//! **The far heap** holds everything else: a [`BinaryHeap`] of ranks,
//! with each payload in a map keyed by its `seq`. These are mostly the
//! arrivals and departures a scenario stages up front, and the keys a
//! burst pushes out of the run.
//!
//! **Keeping the tiers split.** `schedule` files a key into the run
//! only when it ranks below the heap's top. A full run first evicts its
//! largest key to the heap, where it becomes the new top; when the new
//! key is the largest, the new key goes to the heap instead. Either
//! way the key that leaves the run ranks below every rank already in
//! the heap. [`EventQueue::pop`] and [`EventQueue::peek_time`] refill an
//! empty run with up to `NEAR` of the smallest live far keys, so the
//! run's last entry, when there is one, is the global minimum.
//!
//! **Cancellation.** A token finds its key in either tier: `cancel`
//! scans the run for the `seq`, then removes it from the map. A far
//! key's rank stays in the heap, stale: a refill drops it when it comes
//! to the top, and once stale ranks outnumber live ones a `retain`
//! clears them all, so the heap stays within about twice its live keys
//! and a mass cancellation costs linear time in all. A `seq` found in
//! neither tier has fired or been cancelled, is reserved but not yet
//! filed, or was never issued.
//! Sequence numbers keep counting across [`EventQueue::clear`], so a
//! token from before a clear names no later key.
//!
//! # Operations and their costs
//!
//! - **schedule** into the run walks from the tail to the key's place,
//!   usually zero or one step, since the new key is usually the new
//!   minimum: O(`NEAR`) at worst, plus O(log n) for an eviction. Into
//!   the heap it is O(log n).
//! - **reserve** is one increment of the sequence counter, O(1);
//!   `schedule` is a `reserve` followed by a `schedule_reserved`, which
//!   files the key as above whatever its `seq`.
//! - **pop** takes the run's last entry, O(1). An empty run is refilled
//!   first: one heap pop per live key moved and per stale rank dropped.
//! - **cancel** is an O(`NEAR`) scan, then an O(1) map removal; the
//!   `retain` is paid for by the cancels before it.
//! - **peek** reads the run's last entry, refilling first when the run
//!   is empty. It never moves [`EventQueue::now`]: an event may still be
//!   scheduled between now and the peeked time.
//!
//! **Why not one sorted `Vec`.** A flat sorted queue makes the hold
//! pattern cheaper still, but inserts in O(live). The scenario driver
//! stages ~1,600 arrivals and departures one at a time before the
//! first event; a prototype flat queue doubled the long-tenant
//! workload's setup time, and a 13k-live schedule/cancel/pop mix ran
//! 140× slower. An unbounded run fails the same way. Bounding the run
//! at `NEAR` keeps every run operation independent of the number of
//! live events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// Capacity of the near run. A refill moves at most this many keys
/// into the run, and a full run evicts before it takes another, so
/// every run operation is O(`NEAR`).
const NEAR: usize = 32;

/// The total order of the queue: time, then schedule order.
fn rank(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The `seq` of a rank: its low 64 bits.
fn seq_of(rank: u128) -> u64 {
    rank as u64
}

/// Near-run entry: a key that carries its payload. Run entries are
/// always live, since cancel removes them.
#[derive(Debug)]
struct Near<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Near<E> {
    fn rank(&self) -> u128 {
        rank(self.at, self.seq)
    }
}

/// Hashes a `seq` with one multiply by an odd constant. Sequence
/// numbers are issued by the queue itself, so no input can choose keys
/// that collide.
#[derive(Debug, Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    /// Unused by `u64` keys, which hash through `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// lint: allow(hash-iter) — keyed by `seq` for insert, remove and
// contains only, and never iterated, so no order reaches the event
// stream
type Payloads<E> = std::collections::HashMap<u64, E, BuildHasherDefault<SeqHasher>>;

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
    /// The near run, by descending rank: the minimum is last. At most
    /// [`NEAR`] entries, all live, each ranked below every rank in
    /// `heap`.
    run: Vec<Near<E>>,
    /// Ranks of the far keys, live or cancelled; the payloads of the
    /// live ones are in `far`.
    heap: BinaryHeap<Reverse<u128>>,
    far: Payloads<E>,
    /// How many payloads `far` has room for. Each time the map fills
    /// it, room for four times as many is reserved, never less: a
    /// growing map rehashes every payload, and a map that runs near
    /// full pays for its churn in probes and in-place rehashes. Like the
    /// map's capacity, it survives [`EventQueue::clear`].
    far_room: usize,
    /// The time of the most recently popped event.
    now: SimTime,
    /// Never reset, not even by [`EventQueue::clear`]: a token names its
    /// key by `seq` alone, so no two keys may share one.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::with_capacity(NEAR),
            heap: BinaryHeap::new(),
            far: Payloads::default(),
            far_room: 0,
            now: SimTime::ZERO,
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
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
        seq
    }

    /// Takes the next sequence number without scheduling anything: the
    /// place in schedule order, and the token, of a key that
    /// [`EventQueue::schedule_reserved`] may file later. Until then the
    /// token names no key, so cancelling it returns `None`; a reserved
    /// `seq` that is never filed changes no relative order.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `at` under `seq`, a number taken by
    /// [`EventQueue::reserve`] and not yet filed. The key ranks exactly
    /// as if it had been scheduled when `seq` was reserved: before every
    /// key of the same instant scheduled since.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the most recently popped event's
    /// time, as [`EventQueue::schedule`] does.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {} < {}",
            at,
            self.now
        );
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let rank = rank(at, seq);
        let above_heap = self.heap.peek().is_some_and(|&Reverse(top)| top < rank);
        let full = self.run.len() == NEAR;
        if above_heap || full && self.run[0].rank() < rank {
            self.push_far(rank, event);
            return;
        }
        if full {
            let evicted = self.run.remove(0);
            self.push_far(evicted.rank(), evicted.event);
        }
        let mut i = self.run.len();
        while i > 0 && self.run[i - 1].rank() < rank {
            i -= 1;
        }
        self.run.insert(i, Near { at, seq, event });
    }

    /// Files a key into the far heap, its payload into the map.
    fn push_far(&mut self, rank: u128, event: E) {
        self.heap.push(Reverse(rank));
        if self.far.len() == self.far_room {
            self.far_room = 4 * self.far_room.max(NEAR);
            self.far.reserve(self.far_room - self.far.len());
        }
        self.far.insert(seq_of(rank), event);
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event had not yet fired or been cancelled. A run key is removed
    /// from the run, O(`NEAR`); a far key's payload is removed from the
    /// map, and its stale rank is dropped later.
    pub fn cancel(&mut self, token: u64) -> Option<E> {
        if let Some(i) = self.run.iter().rposition(|n| n.seq == token) {
            return Some(self.run.remove(i).event);
        }
        let event = self.far.remove(&token)?;
        if self.heap.len() > 2 * self.far.len() {
            let far = &self.far;
            self.heap
                .retain(|&Reverse(rank)| far.contains_key(&seq_of(rank)));
        }
        Some(event)
    }

    /// Removes and returns the next event in (time, schedule-order).
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.run.is_empty() {
            self.refill();
        }
        let n = self.run.pop()?;
        self.now = n.at;
        Some((n.at, n.event))
    }

    /// Moves up to [`NEAR`] of the smallest live far keys, payloads and
    /// all, into the empty run, dropping the stale ranks above them.
    fn refill(&mut self) {
        debug_assert!(self.run.is_empty());
        while self.run.len() < NEAR {
            let Some(Reverse(rank)) = self.heap.pop() else {
                break;
            };
            let seq = seq_of(rank);
            if let Some(event) = self.far.remove(&seq) {
                let at = SimTime::from_nanos((rank >> 64) as u64);
                self.run.push(Near { at, seq, event });
            }
        }
        self.run.reverse();
    }

    /// The firing time of the next live event, if any. A peek may
    /// refill the run and drops the stale ranks it meets, so repeated
    /// peeks stay cheap even after mass cancellation. A peek never
    /// moves [`EventQueue::now`]: an event may still be scheduled
    /// between now and the peeked time.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.run.is_empty() {
            self.refill();
        }
        self.run.last().map(|n| n.at)
    }

    /// Number of live (not cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.run.len() + self.far.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Empties the queue while keeping the run, heap and map
    /// allocations, so a long-lived queue can be recycled across
    /// simulation runs without touching the allocator.
    ///
    /// A cleared queue pops exactly what a fresh one would: "now"
    /// rewinds to [`SimTime::ZERO`]. Sequence numbers keep counting,
    /// which is what kills every outstanding cancellation token; they
    /// never influence the order of events scheduled after the clear,
    /// since only `(at, seq)` does and `seq` still grows in schedule
    /// order.
    pub fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
        self.far.clear();
        self.now = SimTime::ZERO;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Times in nanoseconds.
    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Every popped payload, in order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    /// A queue at 10,031 ns with an empty run and one far key, at 1 s,
    /// in the heap: `NEAR` keys filled the run, so the far key went to
    /// the heap, and popping them left it there.
    fn primed() -> EventQueue<u64> {
        let mut q = EventQueue::new();
        for i in 0..NEAR as u64 {
            q.schedule(ns(10_000 + i), i);
        }
        q.schedule(ns(1_000_000_000), 999);
        for i in 0..NEAR as u64 {
            assert_eq!(q.pop(), Some((ns(10_000 + i), i)));
        }
        assert!(q.run.is_empty());
        assert_eq!((q.heap.len(), q.far.len()), (1, 1));
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
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
        // A later key is out of the fired token's reach.
        q.schedule(t(2), 8);
        assert_eq!(q.cancel(tok), None);
        assert_eq!(q.pop(), Some((t(2), 8)));
    }

    #[test]
    fn a_run_born_token_that_was_never_issued_is_refused() {
        // A key born in the run, behind a far key in the heap: tokens
        // past the last issued `seq` name neither.
        let mut q = primed();
        q.schedule(ns(11_000), 1);
        assert_eq!(q.run.len(), 1);
        assert_eq!(q.cancel(q.next_seq), None);
        assert_eq!(q.cancel(q.next_seq + 1_000), None);
        assert_eq!(q.cancel(u64::MAX), None);
        assert_eq!(q.len(), 2, "both tiers keep their keys");
        assert_eq!(drain(&mut q), vec![1, 999]);
    }

    #[test]
    fn a_token_for_a_free_slot_is_refused() {
        // A token whose key has left the queue, from either tier, names
        // nothing, though a far key's stale rank is still in the heap.
        let mut q = EventQueue::new();
        let run_toks: Vec<u64> = (0..NEAR as u64).map(|i| q.schedule(t(i), i)).collect();
        let far_tok = q.schedule(t(1_000), 100);
        let far_keep = q.schedule(t(2_000), 101);
        assert_eq!((q.run.len(), q.far.len()), (NEAR, 2));
        assert_eq!(q.cancel(far_tok), Some(100));
        assert_eq!(q.heap.len(), 2, "the cancelled key's rank stays, stale");
        assert_eq!(q.cancel(far_tok), None);
        assert_eq!(q.cancel(run_toks[5]), Some(5));
        assert_eq!(q.cancel(run_toks[5]), None);
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.cancel(run_toks[0]), None, "a fired token is dead");
        for i in (1..NEAR as u64).filter(|&i| i != 5) {
            assert_eq!(q.pop(), Some((t(i), i)));
        }
        // The refill drops the stale rank; the freed token stays dead.
        assert_eq!(q.peek_time(), Some(t(2_000)));
        assert!(q.heap.is_empty());
        assert_eq!(q.cancel(far_tok), None);
        assert_eq!(q.cancel(far_keep), Some(101));
        assert!(q.is_empty());
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
        // The stale ranks were dropped, not merely skipped: the queue
        // now holds exactly the one live entry, refilled into the run,
        // so further peeks and the final pop are O(1).
        assert!(q.heap.is_empty());
        assert_eq!(q.run.len(), 1);
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        assert_eq!(q.pop(), Some((t(1_000_000), 42)));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_stays_bounded_under_mass_cancellation() {
        // Far keys cancelled one by one, in an order that leaves each
        // stale rank deep in the heap, where no refill reaches it: the
        // retain keeps the stale ranks from outnumbering the live ones.
        let mut q = EventQueue::new();
        let toks: Vec<u64> = (0..4_096).map(|i| q.schedule(t(i), i)).collect();
        for (i, &tok) in toks.iter().enumerate().skip(NEAR).rev() {
            assert_eq!(q.cancel(tok), Some(i as u64));
            assert!(
                q.heap.len() <= 2 * q.far.len(),
                "{} ranks in the heap for {} live far keys",
                q.heap.len(),
                q.far.len()
            );
        }
        assert!(
            q.heap.is_empty(),
            "the last cancel cleared every stale rank"
        );
        assert_eq!(drain(&mut q), (0..NEAR as u64).collect::<Vec<_>>());
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
        // Same schedule program on both: identical pops.
        for q in [&mut fresh, &mut reused] {
            q.schedule(t(10), 1);
            q.schedule(t(10), 2);
            q.schedule(t(3), 3);
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
        // Keys in both tiers: the run fills up, the rest go to the heap.
        let mut q = EventQueue::new();
        let toks: Vec<u64> = (0..64).map(|i| q.schedule(t(i), i)).collect();
        assert_eq!((q.run.len(), q.far.len()), (NEAR, 64 - NEAR));
        let capacity =
            |q: &EventQueue<u64>| (q.run.capacity(), q.heap.capacity(), q.far.capacity());
        let before = capacity(&q);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(capacity(&q), before, "clear must not free storage");
        // Build the same shape again: the new keys must be out of reach
        // of every pre-clear token, though sequence numbers are all a
        // token holds.
        let again: Vec<u64> = (0..64).map(|i| q.schedule(t(i), i)).collect();
        for tok in toks {
            assert_eq!(q.cancel(tok), None, "pre-clear token must be dead");
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.cancel(again[0]), Some(0));
        assert_eq!(q.cancel(again[63]), Some(63));
        // And scheduling at ZERO works again (now rewound).
        q.schedule(SimTime::ZERO, 0);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
    }

    #[test]
    fn clear_keeps_bucket_capacity() {
        // The far tier's storage survives a clear: rebuilding the same
        // shape after it grows neither the heap nor the map.
        let mut q = EventQueue::new();
        let fill = |q: &mut EventQueue<u64>| {
            for i in 0..1_024 {
                q.schedule(t(i), i);
            }
        };
        fill(&mut q);
        assert_eq!(q.far.len(), 1_024 - NEAR);
        let capacity = |q: &EventQueue<u64>| (q.heap.capacity(), q.far.capacity(), q.far_room);
        let before = capacity(&q);
        q.clear();
        assert!(q.heap.is_empty() && q.far.is_empty());
        assert_eq!(capacity(&q), before, "clear must not free the far tier");
        fill(&mut q);
        assert_eq!(capacity(&q), before, "a rebuild must not regrow it");
        assert_eq!(drain(&mut q), (0..1_024).collect::<Vec<_>>());
    }

    #[test]
    fn clear_kills_run_born_tokens() {
        // Keys born in the run, and keys refilled into it from the
        // heap: after a clear, none of their tokens reach the keys a
        // rebuild puts at the same instants in the same places.
        let mut q = EventQueue::new();
        let born: Vec<u64> = (0..NEAR as u64).map(|i| q.schedule(t(i), i)).collect();
        let far: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(t(100 + i), 100 + i))
            .collect();
        for i in 0..NEAR as u64 {
            assert_eq!(q.pop(), Some((t(i), i)));
        }
        assert_eq!(q.peek_time(), Some(t(100)));
        assert_eq!(q.run.len(), NEAR, "the far keys were refilled into the run");
        q.clear();
        let again: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(t(100 + i), i))
            .collect();
        assert_eq!(q.run.len(), NEAR);
        for tok in born.into_iter().chain(far) {
            assert_eq!(q.cancel(tok), None, "pre-clear token must be dead");
        }
        assert_eq!(q.len(), NEAR);
        assert_eq!(q.cancel(again[7]), Some(7));
        assert_eq!(q.len(), NEAR - 1);
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
        assert_eq!(q.now(), t(10));
        q.schedule(t(20), 'c');
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), 'c')));
        assert_eq!(q.pop(), Some((t(50), 'b')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_minimum_does_not_advance_the_base() {
        // The cancelled t(40) is the far minimum when the next refill
        // reaches it; it must be dropped without moving now(), so an
        // event between now() and t(40) stays schedulable and fires
        // first.
        let mut q = EventQueue::new();
        for i in 0..NEAR as u64 {
            q.schedule(t(i), i);
        }
        let doomed = q.schedule(t(40), 100);
        q.schedule(t(1_000_000), 101);
        assert_eq!(q.far.len(), 2, "both keys rank above the full run");
        for i in 0..NEAR as u64 {
            assert_eq!(q.pop(), Some((t(i), i)));
        }
        assert_eq!(q.cancel(doomed), Some(100));
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        assert_eq!(q.now(), t(NEAR as u64 - 1));
        q.schedule(t(35), 102);
        assert_eq!(q.pop(), Some((t(35), 102)));
        assert_eq!(q.now(), t(35));
        q.schedule(t(38), 103);
        assert_eq!(q.pop(), Some((t(38), 103)));
        assert_eq!(q.pop(), Some((t(1_000_000), 101)));
        assert!(q.is_empty());

        // The same when the cancelled key is the last one: the pop that
        // drops it finds nothing, and now() must not jump to its time.
        let doomed = q.schedule(t(2_000_000), 104);
        assert_eq!(q.cancel(doomed), Some(104));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), t(1_000_000));
        q.schedule(t(1_500_000), 105);
        assert_eq!(q.pop(), Some((t(1_500_000), 105)));
    }

    #[test]
    fn far_future_and_extreme_times_keep_their_order() {
        // Ties at now, sub-microsecond offsets, 2^40 ns, and times next
        // to u64::MAX ns.
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
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(q.now(), SimTime::MAX);
        q.schedule(SimTime::MAX, 7);
        assert_eq!(q.pop(), Some((SimTime::MAX, 7)));
    }

    #[test]
    fn hold_pattern_stays_in_the_run() {
        let mut q = primed();
        for i in 1..1_000u64 {
            let now = q.now().as_nanos();
            let tok = q.schedule(ns(now + 3), i);
            assert_eq!(q.run.len(), 1, "the new minimum is appended to the run");
            assert_eq!(tok, q.run[0].seq);
            assert_eq!(q.pop(), Some((ns(now + 3), i)));
        }
        assert_eq!(q.heap.len(), 1, "the far key never moved");
        assert_eq!(q.far.len(), 1);
        // A key ranked above the heap's top goes to the heap, even with
        // the run empty.
        q.schedule(ns(2_000_000_000), 1_000);
        assert!(q.run.is_empty());
        assert_eq!(drain(&mut q), vec![999, 1_000]);
    }

    #[test]
    fn full_run_evicts_its_largest_key() {
        let mut q = primed();
        // Fill the run in reverse time order, so each insert walks.
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(12_000 - i), i))
            .collect();
        assert_eq!(q.run.len(), NEAR);
        assert!(q.run.windows(2).all(|w| w[0].rank() > w[1].rank()));
        // One more key below the run's largest: the largest, key 0,
        // leaves for the heap, where it ranks below the far key.
        let last = q.schedule(ns(11_000), 100);
        assert_eq!(q.run.len(), NEAR);
        assert_eq!(q.heap.peek(), Some(&Reverse(rank(ns(12_000), toks[0]))));
        // A key above the run's largest goes to the heap itself.
        let above = q.schedule(ns(12_500), 101);
        assert_eq!(q.heap.len(), 3);
        assert!(q.run.iter().all(|n| n.seq != above));
        // The evicted key cancels by its token, once.
        assert_eq!(q.cancel(toks[0]), Some(0));
        assert_eq!(q.cancel(toks[0]), None);
        assert_eq!(q.cancel(last), Some(100));
        let mut want: Vec<u64> = (1..NEAR as u64).rev().collect();
        want.extend([101, 999]);
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn refilled_keys_still_cancel() {
        let mut q = EventQueue::new();
        // NEAR keys fill the run; NEAR + 8 more, in scrambled order, go
        // to the heap.
        for i in 0..NEAR as u64 {
            q.schedule(ns(i), i);
        }
        let toks: Vec<u64> = (0..NEAR as u64 + 8)
            .map(|i| q.schedule(ns(1_000 + (i * 7919) % 1_000), 1_000 + (i * 7919) % 1_000))
            .collect();
        assert_eq!(q.far.len(), NEAR + 8);
        for i in 0..NEAR as u64 {
            assert_eq!(q.pop(), Some((ns(i), i)));
        }
        // The next peek refills the run with the NEAR smallest far
        // keys, sorted; the other eight stay in the heap.
        assert_eq!(q.peek_time(), Some(ns(1_000)));
        assert_eq!(q.run.len(), NEAR);
        assert!(q.run.windows(2).all(|w| w[0].rank() > w[1].rank()));
        assert_eq!(q.far.len(), 8);
        // A refilled key cancels from the run with its payload, once,
        // as does one still in the heap.
        let (in_run, in_heap): (Vec<u64>, Vec<u64>) = toks
            .iter()
            .partition(|&&tok| q.run.iter().any(|n| n.seq == tok));
        let payload = q.run.iter().find(|n| n.seq == in_run[3]).map(|n| n.event);
        assert_eq!(q.cancel(in_run[3]), payload);
        assert_eq!(q.cancel(in_run[3]), None);
        assert!(q.cancel(in_heap[0]).is_some());
        assert_eq!(q.len(), NEAR + 6);
        let got = drain(&mut q);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
        assert_eq!(got.len(), NEAR + 6);
    }
}
