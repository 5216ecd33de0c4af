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
//! run entry 32 bytes. Put bulky per-event data in a table the payload
//! indexes. The simulation world pins its own event at 8 bytes with a
//! compile-time assertion.
//!
//! # Design: a bounded near run in front of a monotone radix heap
//!
//! Keys are ordered by the 128-bit *rank* `(at << 64) | seq`. The keys
//! live in one of two tiers.
//!
//! **The near run** holds at most `NEAR` (32) keys *with their payloads
//! inline*, sorted by descending rank, so the next event is its last
//! entry. It serves the simulator's usual stream, a "hold" pattern: a
//! handler pops an event and schedules its successor, which is most
//! often the new minimum. Such an event is appended to the run and
//! popped straight back, without touching a bucket or any other table.
//! The simulation world skips even that for its tasks' own chains: a
//! successor strictly earlier than [`EventQueue::peek_time`] runs in
//! place and never reaches the queue. What the world does schedule is
//! the rest: completions, ticks, timers, and successors that are not the
//! next event.
//!
//! **The radix buckets** hold everything else: a monotone radix heap
//! (Ahuja, Mehlhorn, Orlin & Tarjan, 1990). The heap remembers a
//! *base*: the rank of the most recently popped event. A key lives in
//! bucket `i`, where `i` is one plus the index of the highest bit in
//! which its rank differs from the base (bucket 0 holds a rank equal to
//! the base). Every key in bucket `i` is smaller than every key in
//! bucket `i + 1`, so the bucketed minimum sits in the lowest non-empty
//! bucket, found through a 129-bit occupancy mask. Far-future keys (the
//! arrivals and departures a scenario stages up front) sit untouched in
//! high buckets until the base approaches them, so they cost nothing
//! per pop.
//!
//! **The limit invariant.** The tiers are split by a rank `limit`:
//! every run key ranks below `limit`, and every bucketed key at or
//! above it. So the run's last entry, when there is one, is the global
//! minimum. `limit` is the aligned radix boundary
//! `((base >> b) + 1) << b` of the bucket `b` last moved into the run
//! (saturated at `u128::MAX`), or 0 when nothing may enter the run.
//!
//! *Claim:* while the base moves anywhere in `[base, limit)` — which is
//! all that popping run keys does — every bucketed key stays in the
//! right bucket. *Proof.* Write `B` for the base when bucket `b` moved
//! in, and `H = B >> b`. Buckets below `b` were empty, and a key in a
//! bucket `j > b` agrees with `B` on every bit at or above `j`, and has
//! bit `j - 1` set where `B` has it clear; so it is at least
//! `(H + 1) << b = limit`, and its bucket is decided by `B`'s bits at
//! or above `j - 1 >= b` alone. Every base `B'` in `[B, limit)` has
//! `B' >> b = H`: it has the same bits at or above `b`, and so gives
//! every such key the same bucket. A key scheduled into the buckets
//! while the run drains ranks at or above `limit`, so the same
//! argument applies to it from the base it was filed under. When the
//! bits of `B` at or above `b` are all ones, no rank can lie in a
//! higher bucket, and the saturated `limit = u128::MAX` admits every
//! later key to the run (`seq` stays below 2^63, so no rank equals
//! it). ∎
//!
//! A run key is popped in place and never makes the base overtake a
//! bucketed key, and a radix step (below) only happens with the run
//! empty, so the two tiers never disagree about the minimum.
//!
//! # Slots, and the two token forms
//!
//! A bucketed key's payload waits in a slot of a `Vec` slab with a free
//! list, and the key carries the slot index and the slot's generation,
//! which moves on each time the slot is vacated; a purge or radix step
//! that meets a key whose generation is out of date discards it. Only
//! two kinds of key own a slot:
//!
//! - a key **scheduled straight into the buckets** (its rank is at or
//!   above `limit`, or the run was full) takes a slot at once, and its
//!   token is the *slot token* `(generation << 32) | slot`. It keeps the
//!   slot when a refill moves it into the run, so the token still finds
//!   it there.
//! - a key **born in the run** takes no slot: its token is its sequence
//!   number tagged with the top bit, `RUN_BORN | seq` (generations wrap
//!   within 31 bits, so no slot token has that bit set). Only a *spill*
//!   gives such keys slots, and it records each one's `(seq, slot,
//!   generation)` in the *spill index*, a `Vec` sorted by `seq`.
//!
//! A run-born token is resolved by scanning the run (at most `NEAR`
//! entries) for a slotless entry with its `seq`; failing that, by a
//! binary search of the spill index and a generation check on the slot
//! it names, which finds a spilled key in its bucket or, once a refill
//! has moved it back, in the run. A `seq` found in neither has fired or
//! been cancelled, or was never issued in that form.
//! Sequence numbers keep counting across [`EventQueue::clear`], which
//! empties the run and the index, so a token from before a clear can
//! name no later key. A stale slot token is refused by the generation
//! check, and can only be confused with a live one after a single slot
//! is reused 2^31 times — unreachable in practice.
//!
//! **Why the spill index stays sorted.** Entries are only appended, by
//! a spill, which sorts the few it appends; compaction keeps their
//! order. Every
//! slotless key present at a spill was scheduled after the previous
//! spill: a spill sets `limit` to 0, so no key is born in the run until
//! the next refill, which comes after that spill. So each spill's
//! entries carry larger sequence numbers than every entry already in
//! the index. An entry dies when its slot is vacated; once half the
//! entries are dead, the index is compacted in one pass, so the index
//! stays within twice its live entries and each compaction is paid for
//! by the deaths before it.
//!
//! # Operations and their costs
//!
//! - **schedule** files a key with rank below `limit` into the run,
//!   walking from the tail to its place — usually zero or one step,
//!   since the new key is usually the new minimum — and takes no slot.
//!   If the run is full, it first *spills* the run into the buckets,
//!   giving its slotless keys slots and index entries, and sets `limit`
//!   to 0. Any other key takes a slot and goes to its bucket with one
//!   XOR and a leading-zero count. O(`NEAR`) at worst.
//! - **pop** takes the run's last entry when the run is non-empty: for
//!   a run-born entry that is all there is, and an entry that owns a
//!   slot frees it. Otherwise it *refills*: it purges stale keys from
//!   the lowest non-empty bucket, and if at most `NEAR` keys remain it
//!   moves them, payloads and all, into the run, sorts them, and sets
//!   `limit` to the bucket's boundary. A longer bucket takes one
//!   ordinary radix step instead: its minimum becomes the base and its
//!   other keys move into lower buckets (they now agree with the base
//!   on more high bits). A key only ever moves down, at most 128 times
//!   over its life, so the radix step is amortized O(1) per key;
//!   everything else in a pop is O(`NEAR`), plus the purge, which pays
//!   once for each cancelled key.
//! - **cancel** of a run key is O(`NEAR`): a slot token finds the key by
//!   binary search on the rank recorded in its slot, a run-born token
//!   by a scan for its `seq` (plus the spill-index search for a key
//!   that was spilled and refilled). Cancel of a bucketed key is O(1)
//!   by slot token and O(log n) by run-born token (that search): it
//!   bumps the slot's generation and takes the payload, and the stale
//!   key is discarded when a purge or radix step reaches it. Purging
//!   buckets eagerly would make a mass cancellation quadratic.
//! - **peek** reads the run's last entry, refilling first when the run
//!   is empty; a refill does not move the base. Over a long lowest
//!   bucket it scans that bucket for its minimum, as a radix step does.
//!
//! **Why not one sorted `Vec`.** A flat sorted queue makes the hold
//! pattern cheaper still, but inserts in O(live). The scenario driver
//! stages ~1,600 arrivals and departures one at a time before the
//! first event; a prototype flat queue doubled the long-tenant
//! workload's setup time, and a 13k-live schedule/cancel/pop mix ran
//! 140× slower. An unbounded run fails the same way. Bounding the run
//! at `NEAR` keeps every operation independent of the number of live
//! events, except the amortized radix step and the logarithmic
//! spill-index search.
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
//! - **a stale key** — a cancelled key is dropped by a purge; only a
//!   live event that actually pops becomes the base.

use crate::time::SimTime;

/// One bucket per possible highest differing bit of a 128-bit rank,
/// plus bucket 0 for a rank equal to the base.
const BUCKETS: usize = 129;

/// Capacity of the near run. A refill moves a bucket into the run only
/// if it holds at most this many keys, and a full run spills before it
/// takes another, so every run operation is O(`NEAR`).
const NEAR: usize = 32;

/// The tag bit of a run-born token, `RUN_BORN | seq`.
const RUN_BORN: u64 = 1 << 63;

/// Slot generations wrap within 31 bits, so a slot token
/// `(generation << 32) | slot` never carries [`RUN_BORN`].
const GEN_MASK: u32 = u32::MAX >> 1;

/// The slot field of a run entry that owns no slot. Never a slot index.
const NO_SLOT: u32 = u32::MAX;

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

/// The total order of the queue: time, then schedule order.
fn rank(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// Bucket key: ordered by [`Key::rank`], i.e. `(at, seq)` — `seq` is
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
        rank(self.at, self.seq)
    }
}

/// Near-run entry: a key that carries its payload. Run entries are
/// always live — cancel removes them — so they need no generation.
/// `slot` is [`NO_SLOT`] for a key born in the run and never spilled.
#[derive(Debug)]
struct Near<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> Near<E> {
    fn rank(&self) -> u128 {
        rank(self.at, self.seq)
    }
}

/// A spill-index entry: the slot a spill gave the run-born key `seq`,
/// under generation `gen`. Dead once that slot's generation moves on.
#[derive(Debug, Clone, Copy)]
struct Spilled {
    seq: u64,
    slot: u32,
    gen: u32,
}

/// The bucket of `rank` relative to `base`: one plus the index of the
/// highest bit where they differ, or 0 when they are equal.
fn bucket_of(rank: u128, base: u128) -> usize {
    (128 - (rank ^ base).leading_zeros()) as usize
}

/// The first rank above bucket `b`'s range relative to `base`, which
/// every key of a higher bucket reaches: `((base >> b) + 1) << b`,
/// saturated at `u128::MAX` when that overflows.
fn boundary(base: u128, b: usize) -> u128 {
    if b >= 128 || base >> b == u128::MAX >> b {
        u128::MAX
    } else {
        ((base >> b) + 1) << b
    }
}

/// Sets bucket `b`'s bit in the occupancy mask.
fn mark(occupied: &mut [u64; 3], b: usize) {
    occupied[b / 64] |= 1 << (b % 64);
}

/// Clears bucket `b`'s bit in the occupancy mask.
fn unmark(occupied: &mut [u64; 3], b: usize) {
    occupied[b / 64] &= !(1 << (b % 64));
}

/// Where a slot's event is.
#[derive(Debug)]
enum Place<E> {
    /// No event: the slot is on the free list.
    Vacant,
    /// In a bucket; the payload waits here.
    Slab(E),
    /// In the near run, payload inline; the rank lets cancel find it.
    Run { at: SimTime, seq: u64 },
}

/// One slab slot. A slot is *live* while its event is queued;
/// vacating it (pop or cancel) bumps the generation, which at once
/// invalidates a stale bucket key, any outstanding slot token and the
/// spill-index entry naming it.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    /// A live spill-index entry names this slot.
    indexed: bool,
    place: Place<E>,
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
    /// The near run, by descending rank: the minimum is last. At most
    /// [`NEAR`] entries, all live.
    run: Vec<Near<E>>,
    /// Every run key ranks below it, every bucketed key at or above it.
    limit: u128,
    buckets: Box<[Vec<Key>; BUCKETS]>,
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: [u64; 3],
    /// Rank of the most recently popped event; every queued key ranks
    /// at or above it.
    base: u128,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The slots spills gave run-born keys, sorted by `seq`.
    spilled: Vec<Spilled>,
    /// Entries of `spilled` whose slot has been vacated since.
    spilled_dead: usize,
    live: usize,
    /// Never reset, not even by [`EventQueue::clear`]: a run-born token
    /// names its key by `seq` alone, so no two keys may share one.
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::with_capacity(NEAR),
            limit: 0,
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; 3],
            base: 0,
            slots: Vec::new(),
            free: Vec::new(),
            spilled: Vec::new(),
            spilled_dead: 0,
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
        self.live += 1;
        let rank = rank(at, seq);
        if rank < self.limit {
            if self.run.len() < NEAR {
                let mut i = self.run.len();
                while i > 0 && self.run[i - 1].rank() < rank {
                    i -= 1;
                }
                self.run.insert(
                    i,
                    Near {
                        at,
                        seq,
                        slot: NO_SLOT,
                        event,
                    },
                );
                return RUN_BORN | seq;
            }
            self.spill();
        }
        let slot = self.take_slot();
        let gen = self.file(at, seq, slot, event);
        (u64::from(gen) << 32) | u64::from(slot)
    }

    /// A vacant slot, from the free list or newly pushed.
    fn take_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = u32::try_from(self.slots.len())
            .ok()
            .filter(|&slot| slot != NO_SLOT)
            // lint: allow(unchecked-unwrap) — 2^32 - 1 concurrently-live
            // events cannot fit in memory; truncating the slot id would
            // corrupt cancellation tokens
            .expect("more than 2^32 - 1 live events");
        self.slots.push(Slot {
            gen: 0,
            indexed: false,
            place: Place::Vacant,
        });
        slot
    }

    /// Files an event into the buckets: its payload into its slot, its
    /// key into the bucket of its rank. Returns the slot's generation.
    fn file(&mut self, at: SimTime, seq: u64, slot: u32, event: E) -> u32 {
        let s = &mut self.slots[slot as usize];
        s.place = Place::Slab(event);
        let key = Key {
            at,
            seq,
            slot,
            gen: s.gen,
        };
        let b = bucket_of(key.rank(), self.base);
        self.buckets[b].push(key);
        mark(&mut self.occupied, b);
        key.gen
    }

    /// Moves every run key, payload and all, back into the buckets and
    /// closes the run until the next refill. A key born in the run gets
    /// its first slot here, recorded in the spill index.
    fn spill(&mut self) {
        let appended = self.spilled.len();
        let mut run = std::mem::take(&mut self.run);
        for n in run.drain(..) {
            let slot = if n.slot == NO_SLOT {
                let slot = self.take_slot();
                let s = &mut self.slots[slot as usize];
                s.indexed = true;
                self.spilled.push(Spilled {
                    seq: n.seq,
                    slot,
                    gen: s.gen,
                });
                slot
            } else {
                n.slot
            };
            self.file(n.at, n.seq, slot, n.event);
        }
        self.run = run; // keeps the run's allocation

        // The run was in rank order; the index wants seq order. Every
        // entry appended here outranks the older ones (module docs).
        self.spilled[appended..].sort_unstable_by_key(|e| e.seq);
        debug_assert!(self.spilled.windows(2).all(|w| w[0].seq < w[1].seq));
        self.limit = 0;
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event had not yet fired or been cancelled. A run key is removed
    /// from the run, O(`NEAR`); a bucketed key is O(1) by slot token
    /// and O(log n) by run-born token: the buckets are not touched, and
    /// the stale key is discarded lazily.
    pub fn cancel(&mut self, token: u64) -> Option<E> {
        if token & RUN_BORN != 0 {
            return self.cancel_run_born(token & !RUN_BORN);
        }
        // lint: allow(narrowing-cast) — deliberate bit-field extraction
        // from the packed (gen, slot) token: the slot is the low 32
        // bits, the generation the next 31
        let (slot, gen) = (token as u32, (token >> 32) as u32);
        self.take(slot, gen)
    }

    /// Cancels the run-born event `seq`. A key never spilled is still in
    /// the run, slotless; a spilled one is found through the spill index,
    /// in a bucket or, once refilled, in the run. A `seq` in neither has
    /// fired, was cancelled, predates a clear, or was never issued.
    fn cancel_run_born(&mut self, seq: u64) -> Option<E> {
        let in_run = self
            .run
            .iter()
            .rposition(|n| n.seq == seq && n.slot == NO_SLOT);
        if let Some(i) = in_run {
            self.live -= 1;
            return Some(self.run.remove(i).event);
        }
        let i = self.spilled.binary_search_by_key(&seq, |e| e.seq).ok()?;
        let Spilled { slot, gen, .. } = self.spilled[i];
        self.take(slot, gen)
    }

    /// Cancels the event in `slot` if the slot is live under `gen`.
    fn take(&mut self, slot: u32, gen: u32) -> Option<E> {
        match self.slots.get(slot as usize) {
            Some(s) if s.gen == gen && !matches!(s.place, Place::Vacant) => {}
            _ => return None,
        }
        self.live -= 1;
        match self.vacate(slot) {
            Place::Slab(event) => Some(event),
            Place::Run { at, seq } => {
                let rank = rank(at, seq);
                // Descending order: an entry of higher rank sorts first.
                let i = self
                    .run
                    .binary_search_by(|n| rank.cmp(&n.rank()))
                    // lint: allow(unchecked-unwrap) — a slot marked as in
                    // the run always has its entry there
                    .expect("run-resident slot must have a run entry");
                Some(self.run.remove(i).event)
            }
            Place::Vacant => unreachable!("the slot was checked live above"),
        }
    }

    /// Frees a live slot: its generation moves on, it returns to the
    /// free list, and its place, now vacant, is handed back. If a spill
    /// index entry named the slot, that entry is now dead; once half
    /// the index is dead, it is compacted.
    fn vacate(&mut self, slot: u32) -> Place<E> {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1) & GEN_MASK;
        let place = std::mem::replace(&mut s.place, Place::Vacant);
        if s.indexed {
            s.indexed = false;
            self.spilled_dead += 1;
            if 2 * self.spilled_dead >= self.spilled.len() {
                let slots = &self.slots;
                self.spilled.retain(|e| slots[e.slot as usize].gen == e.gen);
                self.spilled_dead = 0;
            }
        }
        self.free.push(slot);
        place
    }

    /// Removes and returns the next event in (time, schedule-order).
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.run.is_empty() {
            if let Some(b) = self.refill() {
                return Some(self.radix_step(b));
            }
        }
        let n = self.run.pop()?;
        self.base = n.rank();
        self.live -= 1;
        if n.slot != NO_SLOT {
            self.vacate(n.slot);
        }
        Some((n.at, n.event))
    }

    /// Refills the empty run from the lowest non-empty bucket, first
    /// purging its stale keys (buckets that held only stale keys are
    /// emptied on the way). Returns that bucket instead when it holds
    /// more than [`NEAR`] live keys; returns `None` when the run now
    /// holds the minimum or the queue is empty. Never moves the base.
    fn refill(&mut self) -> Option<usize> {
        debug_assert!(self.run.is_empty());
        loop {
            let b = self.lowest_occupied()?;
            let slots = &self.slots;
            let bucket = &mut self.buckets[b];
            if bucket.len() > NEAR {
                bucket.retain(|k| slots[k.slot as usize].gen == k.gen);
                if bucket.len() > NEAR {
                    return Some(b);
                }
            }
            for k in bucket.drain(..) {
                let s = &mut self.slots[k.slot as usize];
                if s.gen != k.gen {
                    continue; // cancelled: discard the stale key
                }
                let place = Place::Run {
                    at: k.at,
                    seq: k.seq,
                };
                let Place::Slab(event) = std::mem::replace(&mut s.place, place) else {
                    unreachable!("a live bucketed key's payload is in the slab")
                };
                self.run.push(Near {
                    at: k.at,
                    seq: k.seq,
                    slot: k.slot,
                    event,
                });
            }
            unmark(&mut self.occupied, b);
            if !self.run.is_empty() {
                self.run
                    .sort_unstable_by_key(|n| std::cmp::Reverse(n.rank()));
                self.limit = boundary(self.base, b);
                return None;
            }
        }
    }

    /// Pops the minimum of bucket `b` — the lowest non-empty one, over
    /// [`NEAR`] keys long, all live, with the run empty — by one radix
    /// step: the minimum becomes the base, and the bucket's other keys
    /// move down into lower buckets.
    fn radix_step(&mut self, b: usize) -> (SimTime, E) {
        let i = min_rank_index(&self.buckets[b]);
        let key = self.buckets[b].swap_remove(i);
        self.base = key.rank();
        let (lower, upper) = self.buckets.split_at_mut(b);
        for k in upper[0].drain(..) {
            let nb = bucket_of(k.rank(), self.base);
            debug_assert!(nb < b, "a redistributed key must move down");
            lower[nb].push(k);
            mark(&mut self.occupied, nb);
        }
        unmark(&mut self.occupied, b);
        self.live -= 1;
        let Place::Slab(event) = self.vacate(key.slot) else {
            unreachable!("a live bucketed key's payload is in the slab")
        };
        (key.at, event)
    }

    /// The firing time of the next live event, if any. A peek may
    /// refill the run and drops the stale keys it meets, so repeated
    /// peeks stay cheap even after mass cancellation — each stale key
    /// is paid for once, here or in [`EventQueue::pop`]. A peek never
    /// moves the base: an event may still be scheduled between
    /// [`EventQueue::now`] and the peeked time.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.run.is_empty() {
            if let Some(b) = self.refill() {
                let bucket = &self.buckets[b];
                return Some(bucket[min_rank_index(bucket)].at);
            }
        }
        self.run.last().map(|n| n.at)
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

    /// Empties the queue while keeping the slab, free list, run, spill
    /// index and bucket allocations, so a long-lived queue can be
    /// recycled across simulation runs without touching the allocator.
    ///
    /// A cleared queue pops exactly what a fresh one would: "now"
    /// rewinds to [`SimTime::ZERO`], and the free list is rebuilt so
    /// slots are handed out in the same `0, 1, 2, …` order a new queue
    /// would use. Slot generations and sequence numbers keep counting,
    /// which is what kills every outstanding cancellation token; they
    /// never influence event order — only `(at, seq)` does, and `seq`
    /// still grows in schedule order — so reuse cannot perturb
    /// determinism.
    pub fn clear(&mut self) {
        self.run.clear();
        self.limit = 0;
        for bucket in self.buckets.iter_mut() {
            bucket.clear();
        }
        self.occupied = [0; 3];
        self.base = 0;
        for slot in &mut self.slots {
            if !matches!(slot.place, Place::Vacant) {
                slot.place = Place::Vacant;
                slot.gen = slot.gen.wrapping_add(1) & GEN_MASK;
            }
            slot.indexed = false;
        }
        self.free.clear();
        // lint: allow(narrowing-cast) — slots.len() stayed below 2^32,
        // enforced at allocation in take_slot()
        self.free.extend((0..self.slots.len() as u32).rev());
        self.spilled.clear();
        self.spilled_dead = 0;
        self.live = 0;
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
        assert_eq!(tok, 0, "a bucketed key's slot token: slot 0, generation 0");
        assert_eq!(q.pop(), Some((t(1), 'a')));
        // 'b' ranks above the limit, so it is bucketed and reuses the
        // slot that 'a' vacated, under a new generation.
        let tok_b = q.schedule(t(2), 'b');
        assert_eq!(tok_b, 1 << 32);
        assert_eq!(q.cancel(tok), None, "a fired token must stay dead");
        assert_eq!(q.pop(), Some((t(2), 'b')));
    }

    #[test]
    fn stale_run_born_token_cannot_cancel_a_slot_reuse() {
        // A run-born key gets a slot from a spill and fires; a bucketed
        // key then reuses that slot. The spill-index entry of the fired
        // key names the slot under its old generation, so the fired
        // key's token must not reach the new occupant.
        let mut q = primed();
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(11_000 + i), i))
            .collect();
        q.schedule(ns(12_000), 100); // spills the run
        let slot0 = q.spilled[0].slot;
        assert_eq!(q.pop(), Some((ns(11_000), 0)));
        assert!(q.free.contains(&slot0), "the fired key freed its slot");
        // Drain the rest of the spilled keys, then file a far key: it
        // takes the most recently freed slot.
        for i in 1..NEAR as u64 {
            assert_eq!(q.pop(), Some((ns(11_000 + i), i)));
        }
        assert_eq!(q.pop(), Some((ns(12_000), 100)));
        let far = q.schedule(ns(500_000_000), 7);
        assert_eq!(far & RUN_BORN, 0, "a bucketed key gets a slot token");
        for tok in toks {
            assert_eq!(q.cancel(tok), None, "a fired run-born token must stay dead");
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancel(far), Some(7));
    }

    #[test]
    fn a_token_for_a_free_slot_is_refused() {
        // Slot 0 is free under generation 1 once 'a' fires; a token
        // naming that generation was never issued and must not panic.
        let mut q = EventQueue::new();
        q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.cancel(1 << 32), None);
        assert_eq!(q.cancel(u64::MAX), None);
        assert!(q.is_empty());
        // Nor a slot past the slab's end, nor NO_SLOT itself.
        assert_eq!(q.cancel(7), None);
        assert_eq!(q.cancel(u64::from(NO_SLOT)), None);
        assert!(q.slots.iter().all(|s| matches!(s.place, Place::Vacant)));
    }

    #[test]
    fn a_run_born_token_that_was_never_issued_is_refused() {
        let mut q = primed();
        let tok = q.schedule(ns(11_000), 1);
        assert_eq!(tok & RUN_BORN, RUN_BORN, "born in the run");
        // The next sequence number has not been issued yet.
        assert_eq!(q.cancel(RUN_BORN | q.next_seq), None);
        assert_eq!(q.cancel(RUN_BORN | (q.next_seq + 1_000)), None);
        // The primed keys were bucketed: their sequence numbers were
        // issued, but as slot tokens, so the run-born forms were not —
        // not even for the far key, which is still queued.
        assert_eq!(q.cancel(RUN_BORN), None);
        assert_eq!(q.cancel(RUN_BORN | 1), None);
        // The same holds when such a key sits in the run: refill the
        // far key, then forge its run-born form.
        assert_eq!(q.pop(), Some((ns(11_000), 1)));
        assert_eq!(q.peek_time(), Some(ns(1_000_000_000)));
        assert_eq!(q.run.len(), 1);
        assert_eq!(q.cancel(RUN_BORN | 1), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((ns(1_000_000_000), 999)));
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
        // the queue now holds exactly the one live entry, refilled into
        // the run, so further peeks and the final pop are O(1).
        assert_eq!(q.buckets.iter().map(Vec::len).sum::<usize>(), 0);
        assert_eq!(q.run.len(), 1);
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
        // Spilling rounds: each burst overfills the run, so its run-born
        // keys take slots and spill-index entries. Both are recycled.
        let mut q = primed();
        let mut spilling_rounds = 0;
        for _ in 0..100u64 {
            let now = q.now().as_nanos();
            for i in 0..=NEAR as u64 {
                q.schedule(ns(now + 1 + (NEAR as u64 - i)), i);
            }
            spilling_rounds += usize::from(!q.spilled.is_empty());
            while q.len() > 1 {
                q.pop();
            }
        }
        // Bursts that land past the limit go straight to the buckets,
        // so only some rounds spill; enough do to exercise recycling.
        assert!(
            spilling_rounds >= 25,
            "only {spilling_rounds} bursts spilled"
        );
        assert!(
            q.slots.len() <= 2 * NEAR + 2,
            "slab grew to {} slots for {} concurrent events",
            q.slots.len(),
            NEAR + 2
        );
        assert!(
            q.spilled.len() <= 2 * NEAR,
            "spill index grew to {} entries",
            q.spilled.len()
        );
    }

    #[test]
    fn spill_index_compacts_once_half_dead() {
        let mut q = primed();
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(11_000 + i), i))
            .collect();
        q.schedule(ns(12_000), 100); // spills the run
        assert_eq!(q.spilled.len(), NEAR);
        assert!(q.spilled.windows(2).all(|w| w[0].seq < w[1].seq));
        // Cancel every other key: the index keeps its dead entries
        // until half of them are dead, then drops them in one pass.
        for (i, &tok) in toks.iter().enumerate().step_by(2) {
            assert_eq!(q.cancel(tok), Some(i as u64));
        }
        assert_eq!(q.spilled.len(), NEAR / 2, "compacted at half dead");
        assert_eq!(q.spilled_dead, 0);
        assert!(q
            .spilled
            .iter()
            .all(|e| q.slots[e.slot as usize].gen == e.gen && q.slots[e.slot as usize].indexed));
        // The survivors still cancel through the compacted index.
        assert_eq!(q.cancel(toks[1]), Some(1));
        assert_eq!(q.cancel(toks[NEAR - 1]), Some(NEAR as u64 - 1));
        assert_eq!(q.cancel(toks[0]), None);
        // Firing the rest empties the index.
        while q.len() > 1 {
            q.pop();
        }
        assert!(q.spilled.is_empty());
        assert_eq!(q.spilled_dead, 0);
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
    fn clear_kills_run_born_tokens() {
        // Run-born tokens name sequence numbers, and a cleared queue
        // keeps counting them: a pre-clear token must not reach the
        // post-clear event that would have reused its number.
        let mut q = primed();
        let in_run = q.schedule(ns(11_000), 1);
        let spilled: Vec<u64> = (0..=NEAR as u64)
            .map(|i| q.schedule(ns(12_000 + i), i))
            .collect();
        assert_eq!(in_run & RUN_BORN, RUN_BORN);
        assert!(!q.spilled.is_empty());
        q.clear();
        assert!(q.spilled.is_empty());
        assert!(q.slots.iter().all(|s| !s.indexed));
        // Rebuild the same shape after the clear: a key in the run and
        // a spilled burst.
        q.schedule(ns(10_000), 0);
        q.schedule(ns(1_000_000_000), 999);
        assert_eq!(q.pop(), Some((ns(10_000), 0)));
        let again = q.schedule(ns(11_000), 1);
        assert_eq!(again & RUN_BORN, RUN_BORN);
        assert_ne!(again, in_run);
        for i in 0..=NEAR as u64 {
            q.schedule(ns(12_000 + i), i);
        }
        let live = q.len();
        assert_eq!(
            q.cancel(in_run),
            None,
            "pre-clear run-born token must be dead"
        );
        for tok in spilled {
            assert_eq!(q.cancel(tok), None, "pre-clear spilled token must be dead");
        }
        assert_eq!(q.len(), live);
        assert_eq!(q.cancel(again), Some(1));
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
        assert!(q.run.is_empty());
        assert!(q.run.capacity() >= NEAR, "clear must not free run storage");
        assert_eq!(q.limit, 0);
    }

    /// Times in nanoseconds, for tests that place keys in exact buckets.
    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Total bucketed keys, live or stale.
    fn bucketed<E>(q: &EventQueue<E>) -> usize {
        q.buckets.iter().map(Vec::len).sum()
    }

    /// A queue whose run is open up to 16,384 ns: a lone key at
    /// 10,000 ns is refilled from its bucket and popped, which sets the
    /// limit to the bucket's boundary, 2^14 ns. A far key at 1 s keeps
    /// the buckets non-empty.
    fn primed() -> EventQueue<u64> {
        let mut q = EventQueue::new();
        q.schedule(ns(10_000), 0);
        q.schedule(ns(1_000_000_000), 999);
        assert_eq!(q.pop(), Some((ns(10_000), 0)));
        assert_eq!(q.limit, rank(ns(16_384), 0));
        assert_eq!(bucketed(&q), 1);
        q
    }

    /// Slots holding a queued event.
    fn occupied_slots<E>(q: &EventQueue<E>) -> usize {
        q.slots.len() - q.free.len()
    }

    #[test]
    fn hold_pattern_stays_in_the_run() {
        let mut q = primed();
        let slab = q.slots.len();
        assert_eq!(occupied_slots(&q), 1, "only the far key owns a slot");
        for i in 1..1_000u64 {
            let now = q.now().as_nanos();
            let tok = q.schedule(ns(now + 3), i);
            assert_eq!(q.run.len(), 1, "the new minimum is appended to the run");
            assert_eq!(tok, RUN_BORN | q.run[0].seq, "a run-born token");
            assert_eq!(q.run[0].slot, NO_SLOT);
            assert_eq!(occupied_slots(&q), 1, "a run-born key takes no slot");
            assert_eq!(q.pop(), Some((ns(now + 3), i)));
            if now + 6 >= 16_384 {
                break;
            }
        }
        assert_eq!(bucketed(&q), 1, "the far key never moved");
        assert_eq!(q.slots.len(), slab, "the slab never grew");
        assert!(q.spilled.is_empty());
    }

    #[test]
    fn run_born_token_cancels_in_the_run() {
        let mut q = primed();
        let a = q.schedule(ns(11_000), 1);
        let b = q.schedule(ns(11_500), 2);
        let c = q.schedule(ns(10_500), 3);
        assert_eq!(q.run.len(), 3);
        assert_eq!(occupied_slots(&q), 1);
        assert_eq!(q.cancel(a), Some(1));
        assert_eq!(q.cancel(a), None, "double cancel is a no-op");
        assert_eq!(q.run.len(), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((ns(10_500), 3)));
        assert_eq!(q.cancel(c), None, "a fired run-born token is dead");
        assert_eq!(q.pop(), Some((ns(11_500), 2)));
        assert_eq!(q.cancel(b), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn run_born_token_cancels_after_a_spill() {
        let mut q = primed();
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(12_000 - i), i))
            .collect();
        assert!(toks.iter().all(|tok| tok & RUN_BORN == RUN_BORN));
        let bucketed_tok = q.schedule(ns(11_000), 100); // spills the run
        assert_eq!(bucketed_tok & RUN_BORN, 0, "scheduled into the buckets");
        assert!(q.run.is_empty());
        assert_eq!(
            q.spilled.len(),
            NEAR,
            "the spill indexed every run-born key"
        );
        assert_eq!(occupied_slots(&q), NEAR + 2);
        // A spilled key cancels through the index, once.
        assert_eq!(q.cancel(toks[7]), Some(7));
        assert_eq!(q.cancel(toks[7]), None);
        assert_eq!(q.len(), NEAR + 1);
        // Pop one spilled key; its token goes stale with the pop.
        assert_eq!(q.pop(), Some((ns(11_000), 100)));
        assert_eq!(
            q.pop(),
            Some((ns(12_000 - (NEAR as u64 - 1)), NEAR as u64 - 1))
        );
        assert_eq!(
            q.cancel(toks[NEAR - 1]),
            None,
            "a fired spilled token is dead"
        );
        assert_eq!(q.cancel(bucketed_tok), None);
    }

    #[test]
    fn run_born_token_cancels_after_spill_and_refill() {
        let mut q = primed();
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(11_000 + i), i))
            .collect();
        // Spills the run; 15,000 ns is in the next bucket up, so the
        // burst alone fills its bucket.
        q.schedule(ns(15_000), 100);
        assert!(q.run.is_empty());
        // The pop refills the whole burst back into the run; the
        // spilled keys keep their slots there.
        assert_eq!(q.pop(), Some((ns(11_000), 0)));
        assert_eq!(q.run.len(), NEAR - 1);
        assert!(q.run.iter().all(|n| n.slot != NO_SLOT));
        // A refilled run-born key is found through the spill index,
        // removed from the run, and frees its slot.
        let free = q.free.len();
        assert_eq!(q.cancel(toks[3]), Some(3));
        assert_eq!(q.cancel(toks[3]), None);
        assert_eq!(q.free.len(), free + 1);
        assert_eq!(q.run.len(), NEAR - 2);
        assert_eq!(q.cancel(toks[0]), None, "a fired token stays dead");
        // A second spill leaves the refilled keys on their slots and
        // indexes only the keys born in the run since the refill.
        let fresh = q.schedule(ns(11_001), 200);
        q.schedule(ns(11_002), 201);
        assert_eq!(fresh & RUN_BORN, RUN_BORN);
        assert_eq!(q.run.len(), NEAR);
        let indexed = q.spilled.len();
        q.schedule(ns(11_003), 202); // the run is full: spills again
        assert!(q.run.is_empty());
        assert_eq!(q.spilled.len(), indexed + 2);
        assert_eq!(q.cancel(toks[5]), Some(5));
        assert_eq!(q.cancel(fresh), Some(200));
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut want = vec![1, 2, 201, 202, 4];
        want.extend(6..NEAR as u64);
        want.extend([100, 999]);
        assert_eq!(got, want);
    }

    #[test]
    fn full_run_spills_into_the_buckets() {
        let mut q = primed();
        // Fill the run in reverse time order, so each insert walks.
        let toks: Vec<u64> = (0..NEAR as u64)
            .map(|i| q.schedule(ns(12_000 - i), i))
            .collect();
        assert_eq!(q.run.len(), NEAR);
        assert!(q.run.windows(2).all(|w| w[0].rank() > w[1].rank()));
        // One more key below the limit: the run spills first.
        q.schedule(ns(11_000), 100);
        assert!(q.run.is_empty());
        assert_eq!(q.limit, 0, "a spilled run is closed until the next refill");
        assert_eq!(bucketed(&q), NEAR + 2);
        // A spilled key cancels from the slab and keeps its payload.
        assert_eq!(q.cancel(toks[0]), Some(0));
        assert_eq!(q.cancel(toks[0]), None);
        // The rest pop in order, then the far key.
        let mut want: Vec<(SimTime, u64)> = (1..NEAR as u64).map(|i| (ns(12_000 - i), i)).collect();
        want.push((ns(11_000), 100));
        want.sort();
        want.push((ns(1_000_000_000), 999));
        let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn short_bucket_refills_the_run_sorted() {
        let mut q = EventQueue::new();
        // Eight keys in one bucket ([2^20, 2^21) ns at base 0), in
        // scrambled order, and one in the next bucket up.
        let times = [
            1_500_000, 1_100_000, 2_000_000, 1_048_576, 1_900_000, 1_200_000, 1_700_000, 1_300_000,
        ];
        let toks: Vec<u64> = times.iter().map(|&t| q.schedule(ns(t), t)).collect();
        q.schedule(ns(3_000_000), 3);
        assert_eq!(q.limit, 0);
        assert_eq!(q.pop(), Some((ns(1_048_576), 1_048_576)));
        assert_eq!(
            q.run.len(),
            times.len() - 1,
            "the bucket moved into the run"
        );
        assert!(q.run.windows(2).all(|w| w[0].rank() > w[1].rank()));
        assert_eq!(q.limit, rank(ns(1 << 21), 0));
        assert_eq!(bucketed(&q), 1);
        // A refilled key cancels from the run with its payload, once.
        assert_eq!(q.cancel(toks[4]), Some(1_900_000));
        assert_eq!(q.cancel(toks[4]), None);
        assert_eq!(q.run.len(), times.len() - 2);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            got,
            vec![1_100_000, 1_200_000, 1_300_000, 1_500_000, 1_700_000, 2_000_000, 3]
        );
    }

    #[test]
    fn long_bucket_takes_a_radix_step() {
        let mut q = EventQueue::new();
        // NEAR + 8 keys in one bucket ([2^20, 2^21) ns): too many to
        // move into the run.
        let n = NEAR as u64 + 8;
        for i in 0..n {
            q.schedule(ns((1 << 20) + (n - i) * 1_000), i);
        }
        assert_eq!(q.pop(), Some((ns((1 << 20) + 1_000), n - 1)));
        assert!(q.run.is_empty(), "a radix step leaves the run alone");
        assert_eq!(bucketed(&q), NEAR + 7);
        let b = bucket_of(rank(ns(1 << 20), 0), 0);
        assert!(
            q.buckets[b..].iter().all(Vec::is_empty),
            "the rest moved down"
        );
        // The next pop refills from the now-short lowest bucket.
        assert_eq!(q.pop(), Some((ns((1 << 20) + 2_000), n - 2)));
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..n - 2).rev().collect::<Vec<_>>());
    }

    #[test]
    fn tokens_go_stale_across_spill_and_refill() {
        let mut q = primed();
        let toks: Vec<u64> = (0..=NEAR as u64)
            .map(|i| q.schedule(ns(11_000 + i), i))
            .collect();
        assert!(q.run.is_empty(), "the last schedule spilled the run");
        assert!(toks[..NEAR].iter().all(|tok| tok & RUN_BORN == RUN_BORN));
        assert_eq!(toks[NEAR] & RUN_BORN, 0, "the spilling key was bucketed");
        // A spilled key cancels from the slab, once.
        assert_eq!(q.cancel(toks[5]), Some(5));
        assert_eq!(q.cancel(toks[5]), None);
        // The NEAR + 1 keys share one bucket; the purge leaves NEAR
        // live, so the pop refills the run instead of a radix step.
        assert_eq!(q.pop(), Some((ns(11_000), 0)));
        assert_eq!(q.run.len(), NEAR - 1);
        assert_eq!(q.cancel(toks[0]), None, "a fired token must stay dead");
        // A new event at the fired key's time is born in the run, with
        // no slot; the fired key's slot sits on the free list, and its
        // old token must reach neither.
        let slot0 = q.spilled[0].slot;
        let fresh = q.schedule(ns(11_000), 500);
        assert_eq!(fresh & RUN_BORN, RUN_BORN);
        assert_ne!(fresh, toks[0]);
        assert_eq!(q.free.last(), Some(&slot0));
        assert_eq!(q.run.len(), NEAR);
        assert_eq!(q.cancel(toks[0]), None);
        assert_eq!(q.pop(), Some((ns(11_000), 500)));
        assert_eq!(q.cancel(fresh), None);
        // A refilled key cancels from the run with its payload, once.
        assert_eq!(q.cancel(toks[1]), Some(1));
        assert_eq!(q.cancel(toks[1]), None);
        assert_eq!(q.len(), NEAR - 1);
        assert_eq!(q.pop(), Some((ns(11_002), 2)));
    }

    #[test]
    fn limit_is_the_refilled_buckets_own_boundary() {
        // 'a' at 1 ns is alone in its bucket ([1, 2) ns at base 0); 'b'
        // at 2 ns sits in the next one up. After 'a' is refilled and
        // popped, 'c' at 3 ns ranks above the limit (2 ns) and must be
        // bucketed behind 'b', not run ahead of it.
        let mut q = EventQueue::new();
        q.schedule(ns(1), 'a');
        q.schedule(ns(2), 'b');
        assert_eq!(q.pop(), Some((ns(1), 'a')));
        assert_eq!(q.limit, rank(ns(2), 0));
        q.schedule(ns(3), 'c');
        assert_eq!(q.pop(), Some((ns(2), 'b')));
        assert_eq!(q.pop(), Some((ns(3), 'c')));
    }

    #[test]
    fn boundary_saturates_at_the_top_of_the_rank_space() {
        assert_eq!(boundary(0, 0), 1);
        assert_eq!(boundary(5, 0), 6);
        assert_eq!(boundary(0, 65), 1 << 65);
        assert_eq!(boundary(0b1011, 2), 0b1100);
        assert_eq!(boundary(u128::MAX, 0), u128::MAX);
        assert_eq!(boundary(u128::MAX << 127, 127), u128::MAX);
        assert_eq!(boundary(0, 127), 1 << 127);
        assert_eq!(boundary(0, 128), u128::MAX);
    }
}
