//! Bounded streaming distribution sketches.
//!
//! [`StreamingHistogram`] is an HDR-style log-linear histogram over
//! durations: memory is fixed regardless of how many samples are
//! recorded, two histograms [`merge`](StreamingHistogram::merge)
//! losslessly (bucket-wise), and every quantile carries a documented
//! worst-case relative error
//! ([`StreamingHistogram::RELATIVE_ERROR_BOUND`]). It is the bounded
//! replacement for the per-task sample `Vec`s that made long runs
//! scale memory with tenant-rounds; the exact
//! [`Summary`](crate::Summary) path remains available as the oracle,
//! and both are queried through the [`Distribution`] trait.
//!
//! # Bucketing
//!
//! Durations are bucketed on their nanosecond value `v`:
//!
//! - `v < 2^m` (the *exact region*): one bucket per nanosecond, no
//!   error. `m` is [`StreamingHistogram::SUB_BITS`].
//! - `v ≥ 2^m`: the octave `[2^e, 2^(e+1))` containing `v` is split
//!   into `2^m` equal sub-buckets keyed by the top `m` mantissa bits.
//!
//! A quantile reports the *midpoint* of the bucket holding the
//! nearest-rank sample, so its error is at most half a bucket width:
//! `width/2 / low ≤ 2^(e-m)/2 / 2^e = 2^-(m+1)`. With `m = 7` that is
//! `1/256 ≈ 0.39%` — comfortably inside the 1% the acceptance tests
//! demand. The full 64-bit range needs at most
//! [`StreamingHistogram::MAX_BUCKETS`] (7424) buckets, so a `u16`
//! indexes them; storage is a sparse sorted vec that only pays for
//! octaves actually touched.
//!
//! # Recording cost
//!
//! Simulated streams repeat themselves: a fixed-loop tenant's service
//! times and round lengths land in the same bucket sample after
//! sample. So the histogram remembers the index of the bucket it last
//! bumped, and [`record_n`](StreamingHistogram::record_n) compares
//! that entry's key with the new sample's bucket before falling back
//! to a binary search. The index is only a hint: it is used solely when
//! the key at that index matches, so a hint made stale by an insert or
//! a [`merge`](StreamingHistogram::merge) just misses and searches.
//! Contents are therefore exactly what the search alone would build,
//! and equality ignores the hint.

use neon_sim::SimDuration;

/// Read-only view over a distribution of durations: the common query
/// interface of the exact [`Summary`](crate::Summary) oracle and the
/// bounded [`StreamingHistogram`] sketch, so report code asks for
/// percentiles without caring which mode produced them.
pub trait Distribution {
    /// Number of recorded samples.
    fn count(&self) -> u64;
    /// Nearest-rank quantile, `p` in `[0, 100]` (zero when empty).
    fn quantile(&self, p: f64) -> SimDuration;
    /// Arithmetic mean (zero when empty).
    fn mean(&self) -> SimDuration;
    /// Smallest recorded sample (zero when empty).
    fn min(&self) -> SimDuration;
    /// Largest recorded sample (zero when empty).
    fn max(&self) -> SimDuration;
    /// `true` if nothing was recorded.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }
}

impl Distribution for crate::Summary {
    fn count(&self) -> u64 {
        crate::Summary::count(self) as u64
    }
    fn quantile(&self, p: f64) -> SimDuration {
        self.percentile(p)
    }
    fn mean(&self) -> SimDuration {
        crate::Summary::mean(self)
    }
    fn min(&self) -> SimDuration {
        crate::Summary::min(self)
    }
    fn max(&self) -> SimDuration {
        crate::Summary::max(self)
    }
    fn is_empty(&self) -> bool {
        crate::Summary::is_empty(self)
    }
}

const SUB_BITS: u32 = 7;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A mergeable, fixed-memory log-linear histogram of durations.
///
/// # Example
///
/// ```
/// use neon_metrics::{Distribution, StreamingHistogram};
/// use neon_sim::SimDuration;
///
/// let mut h = StreamingHistogram::new();
/// for us in 1..=100u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// let p50 = h.quantile(50.0).as_nanos() as f64;
/// let err = (p50 - 50_000.0).abs() / 50_000.0;
/// assert!(err <= StreamingHistogram::RELATIVE_ERROR_BOUND);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingHistogram {
    /// Sparse `(bucket, count)` pairs, sorted by bucket index.
    buckets: Vec<(u16, u64)>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Index into `buckets` of the last recorded bucket: a lookup
    /// hint only, validated by its key before use (see "Recording
    /// cost" in the module docs), so it is not part of the contents.
    hint: usize,
}

/// Equality is over contents — buckets, count, sum, min and max — and
/// ignores the lookup hint, so two histograms that saw the same
/// samples in different orders compare equal.
impl PartialEq for StreamingHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl Eq for StreamingHistogram {}

impl StreamingHistogram {
    /// Mantissa bits per octave: each power-of-two range is split into
    /// `2^SUB_BITS` equal sub-buckets, and values below `2^SUB_BITS`
    /// nanoseconds are stored exactly.
    pub const SUB_BITS: u32 = SUB_BITS;

    /// Worst-case relative error of [`quantile`](Self::quantile) with
    /// respect to the true nearest-rank sample: `2^-(SUB_BITS+1)`.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (1u64 << (SUB_BITS + 1)) as f64;

    /// Upper bound on distinct buckets (and thus on memory) no matter
    /// how many samples are recorded: the exact region plus
    /// `64 - SUB_BITS` octaves of `2^SUB_BITS` sub-buckets each.
    pub const MAX_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_COUNT as usize) + 128;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        StreamingHistogram::default()
    }

    #[inline]
    fn bucket_of(v: u64) -> u16 {
        if v < SUB_COUNT {
            // lint: allow(narrowing-cast) — the branch guarantees v <
            // SUB_COUNT, which fits u16
            v as u16
        } else {
            let e = 63 - v.leading_zeros();
            let frac = (v >> (e - SUB_BITS)) - SUB_COUNT;
            // lint: allow(narrowing-cast) — bucket indexes are bounded by
            // MAX_BUCKETS, which fits u16
            ((e - SUB_BITS + 1) as u64 * SUB_COUNT + frac) as u16
        }
    }

    /// Inclusive lower edge of a bucket.
    fn low_of(bucket: u16) -> u64 {
        let b = bucket as u64;
        if b < SUB_COUNT {
            b
        } else {
            // lint: allow(narrowing-cast) — b / SUB_COUNT - 1 < 64 for any
            // bucket index below MAX_BUCKETS
            let shift = (b / SUB_COUNT - 1) as u32;
            (SUB_COUNT + b % SUB_COUNT) << shift
        }
    }

    /// Midpoint representative of a bucket (exact in the exact region).
    fn representative(bucket: u16) -> u64 {
        let b = bucket as u64;
        if b < SUB_COUNT {
            b
        } else {
            // lint: allow(narrowing-cast) — b / SUB_COUNT - 1 < 64 for any
            // bucket index below MAX_BUCKETS
            let shift = (b / SUB_COUNT - 1) as u32;
            let width = 1u64 << shift;
            Self::low_of(bucket) + width / 2
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(d, 1);
    }

    /// Records `n` identical samples in one bump.
    #[inline]
    pub fn record_n(&mut self, d: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let v = d.as_nanos();
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += v as u128 * n as u128;
        let bucket = Self::bucket_of(v);
        if let Some(entry) = self.buckets.get_mut(self.hint) {
            if entry.0 == bucket {
                entry.1 += n;
                return;
            }
        }
        self.hint = match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => {
                self.buckets[i].1 += n;
                i
            }
            Err(i) => {
                self.buckets.insert(i, (bucket, n));
                i
            }
        };
    }

    /// Folds `other` into `self`; the result is indistinguishable from
    /// a single histogram that recorded both sample streams.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for &(bucket, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (bucket, n)),
            }
        }
    }

    /// Number of distinct buckets in use (bounded by
    /// [`MAX_BUCKETS`](Self::MAX_BUCKETS)).
    pub fn buckets_used(&self) -> usize {
        self.buckets.len()
    }

    /// Sum of all recorded samples (saturating at the `SimDuration`
    /// range).
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum).unwrap_or(u64::MAX))
    }
}

impl Distribution for StreamingHistogram {
    fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile (matching
    /// [`Summary::percentile`](crate::Summary::percentile) semantics):
    /// the midpoint of the bucket containing the sample of rank
    /// `ceil(p/100 · count)`, clamped to the observed `[min, max]`.
    fn quantile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let rep = Self::representative(bucket).clamp(self.min, self.max);
                return SimDuration::from_nanos(rep);
            }
        }
        SimDuration::from_nanos(self.max)
    }

    fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                u64::try_from(self.sum / self.count as u128).unwrap_or(u64::MAX),
            )
        }
    }

    fn min(&self) -> SimDuration {
        SimDuration::from_nanos(if self.count == 0 { 0 } else { self.min })
    }

    fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(50.0), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn exact_region_is_lossless() {
        let mut h = StreamingHistogram::new();
        for v in 0..128u64 {
            h.record(ns(v));
        }
        assert_eq!(h.quantile(0.0), ns(0));
        assert_eq!(h.quantile(100.0), ns(127));
        // Nearest-rank p50 over 128 samples 0..=127 is rank 64 → 63.
        assert_eq!(h.quantile(50.0), ns(63));
        assert_eq!(h.buckets_used(), 128);
    }

    #[test]
    fn quantiles_track_the_exact_oracle_within_bound() {
        let mut h = StreamingHistogram::new();
        let samples: Vec<SimDuration> = (0..2000u64)
            .map(|i| ns(1 + i * i * 37 + (i % 13) * 1000))
            .collect();
        for &s in &samples {
            h.record(s);
        }
        let oracle = Summary::of(&samples);
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = oracle.percentile(p).as_nanos() as f64;
            let approx = h.quantile(p).as_nanos() as f64;
            let err = (approx - exact).abs() / exact.max(1.0);
            assert!(
                err <= StreamingHistogram::RELATIVE_ERROR_BOUND,
                "p{p}: exact {exact} vs approx {approx} (err {err})"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut all = StreamingHistogram::new();
        let mut left = StreamingHistogram::new();
        let mut right = StreamingHistogram::new();
        for i in 0..500u64 {
            let v = ns(i * 997 + 3);
            all.record(v);
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut src = StreamingHistogram::new();
        src.record(ns(42));
        src.record(ns(1 << 20));
        let mut dst = StreamingHistogram::new();
        dst.merge(&src);
        assert_eq!(dst, src);
        // Merging an empty histogram is a no-op.
        let before = dst.clone();
        dst.merge(&StreamingHistogram::new());
        assert_eq!(dst, before);
    }

    #[test]
    fn memory_stays_bounded_under_heavy_recording() {
        let mut h = StreamingHistogram::new();
        for i in 0..100_000u64 {
            h.record(ns(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8));
        }
        assert_eq!(h.count(), 100_000);
        assert!(h.buckets_used() <= StreamingHistogram::MAX_BUCKETS);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut h = StreamingHistogram::new();
        h.record(ns(0));
        h.record(ns(u64::MAX));
        assert_eq!(h.min(), ns(0));
        assert_eq!(h.max(), ns(u64::MAX));
        // Representative of the top bucket clamps to the observed max.
        let top = h.quantile(100.0).as_nanos() as f64;
        let err = (top - u64::MAX as f64).abs() / u64::MAX as f64;
        assert!(err <= StreamingHistogram::RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        for _ in 0..7 {
            a.record(ns(12_345));
        }
        b.record_n(ns(12_345), 7);
        b.record_n(ns(1), 0); // zero-count is a no-op
        assert_eq!(a, b);
    }

    #[test]
    fn mean_and_total_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(ns(v));
        }
        assert_eq!(h.mean(), ns(25));
        assert_eq!(h.total(), ns(100));
    }

    #[test]
    fn equality_ignores_the_hint() {
        let (a, b) = (ns(10_000), ns(3));
        let mut ab = StreamingHistogram::new();
        ab.record(a);
        ab.record(b);
        let mut ba = StreamingHistogram::new();
        ba.record(b);
        ba.record(a);
        // Both end on their last sample's bucket, at different indexes.
        assert_ne!(ab.hint, ba.hint);
        assert_eq!(ab, ba);
    }

    /// The reference model: bucket counts in a sorted map, plus the
    /// exact count, sum, min and max of everything recorded.
    #[derive(Default)]
    struct Model {
        buckets: BTreeMap<u16, u64>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Model {
        fn record_n(&mut self, v: u64, n: u64) {
            if n == 0 {
                return;
            }
            self.min = if self.count == 0 { v } else { self.min.min(v) };
            self.max = self.max.max(v);
            self.count += n;
            self.sum += v as u128 * n as u128;
            *self
                .buckets
                .entry(StreamingHistogram::bucket_of(v))
                .or_default() += n;
        }

        fn merge(&mut self, other: &Model) {
            for (&b, &n) in &other.buckets {
                *self.buckets.entry(b).or_default() += n;
            }
            if other.count > 0 {
                self.min = if self.count == 0 {
                    other.min
                } else {
                    self.min.min(other.min)
                };
                self.max = self.max.max(other.max);
            }
            self.count += other.count;
            self.sum += other.sum;
        }

        /// Nearest-rank bucket midpoint, clamped to `[min, max]`.
        fn quantile(&self, p: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = (((p / 100.0) * self.count as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (&b, &n) in &self.buckets {
                seen += n;
                if seen >= rank {
                    return StreamingHistogram::representative(b).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    fn value() -> impl Strategy<Value = u64> {
        // Narrow ranges make neighbouring buckets common, so a hint
        // that accepted a near miss would show.
        prop_oneof![
            0u64..8,
            9_900u64..10_100,
            Just(10_000u64),
            0u64..50_000_000,
            any::<u64>(),
        ]
    }

    fn assert_matches(h: &StreamingHistogram, m: &Model) -> Result<(), String> {
        let buckets: Vec<(u16, u64)> = m.buckets.iter().map(|(&b, &n)| (b, n)).collect();
        prop_assert_eq!(&h.buckets, &buckets);
        prop_assert_eq!(h.count(), m.count);
        prop_assert_eq!(h.sum, m.sum);
        prop_assert_eq!(h.min().as_nanos(), if m.count == 0 { 0 } else { m.min });
        prop_assert_eq!(h.max().as_nanos(), m.max);
        for tenth in 0..=1000u32 {
            let p = f64::from(tenth) / 10.0;
            prop_assert_eq!(h.quantile(p).as_nanos(), m.quantile(p), "p{}", p);
        }
        Ok(())
    }

    proptest! {
        /// Any interleaving of `record`, `record_n` (zero counts
        /// included) and `merge`, with long runs of one value that
        /// keep the hint hot, builds exactly the reference model.
        #[test]
        fn interleavings_match_the_reference_model(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    value(),
                    0u64..64,
                    proptest::collection::vec((value(), 0u64..3), 0..8),
                ),
                0..40,
            ),
        ) {
            let mut h = StreamingHistogram::new();
            let mut m = Model::default();
            for (kind, v, len, pairs) in ops {
                match kind {
                    // A run of `len` single records of one value.
                    0 => {
                        for _ in 0..len {
                            h.record(ns(v));
                            m.record_n(v, 1);
                        }
                    }
                    // One bump of `len % 5` samples, zero included.
                    1 => {
                        h.record_n(ns(v), len % 5);
                        m.record_n(v, len % 5);
                    }
                    // Merge a histogram that recorded `pairs`.
                    _ => {
                        let mut other = StreamingHistogram::new();
                        let mut other_model = Model::default();
                        for (v, n) in pairs {
                            other.record_n(ns(v), n);
                            other_model.record_n(v, n);
                        }
                        h.merge(&other);
                        m.merge(&other_model);
                    }
                }
                assert_matches(&h, &m)?;
            }
        }

        /// The same samples in any order give equal histograms,
        /// whatever bucket each one's hint was left on.
        #[test]
        fn order_does_not_change_contents(
            raw in proptest::collection::vec(value(), 1..200),
            rotate in 0usize..200,
        ) {
            let mut forward = StreamingHistogram::new();
            for &v in &raw {
                forward.record(ns(v));
            }
            let mut reordered = StreamingHistogram::new();
            let k = rotate % raw.len();
            for &v in raw[k..].iter().chain(&raw[..k]).rev() {
                reordered.record(ns(v));
            }
            prop_assert_eq!(forward, reordered);
        }
    }
}
