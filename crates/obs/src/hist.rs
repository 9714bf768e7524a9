//! Lock-free log2-bucketed histograms with a fixed 64-bucket layout.
//!
//! Bucket `0` holds the value `0`; bucket `i` (for `1 ≤ i ≤ 62`) covers the
//! half-open power-of-two range `[2^(i-1), 2^i - 1]`; bucket `63` is the
//! overflow bucket for everything at or above `2^62`. The layout is fixed so
//! that snapshots taken from different recorders — or reconstructed from a
//! Prometheus scrape — merge bucket-by-bucket without rebinning.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in the fixed histogram layout.
pub const BUCKETS: usize = 64;

/// Maps a value to its bucket index in the fixed log2 layout.
///
/// ```
/// use mpds_obs::bucket_index;
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(3), 2);
/// assert_eq!(bucket_index(4), 3);
/// assert_eq!(bucket_index(u64::MAX), 63);
/// ```
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Returns the inclusive `(low, high)` value bounds of bucket `i`.
///
/// The overflow bucket (`i = 63`) reports `high == low` (its true upper
/// bound is unbounded); quantiles that land there are clamped to `2^62`.
///
/// ```
/// use mpds_obs::bucket_bounds;
/// assert_eq!(bucket_bounds(0), (0, 0));
/// assert_eq!(bucket_bounds(1), (1, 1));
/// assert_eq!(bucket_bounds(4), (8, 15));
/// ```
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1..=62 => (1u64 << (i - 1), (1u64 << i) - 1),
        _ => (1u64 << 62, 1u64 << 62),
    }
}

/// Returns the inclusive upper bound of bucket `i` as a Prometheus `le`
/// label, or `None` for the overflow bucket (rendered as `+Inf`).
///
/// ```
/// use mpds_obs::hist::bucket_le;
/// assert_eq!(bucket_le(0), Some(0));
/// assert_eq!(bucket_le(3), Some(7));
/// assert_eq!(bucket_le(63), None);
/// ```
#[inline]
pub fn bucket_le(i: usize) -> Option<u64> {
    if i < BUCKETS - 1 {
        Some((1u64 << i) - 1)
    } else {
        None
    }
}

/// A lock-free latency histogram: 64 relaxed atomic buckets plus a running
/// sum.
///
/// `record` is wait-free (two `fetch_add`s) and safe to call from any number
/// of threads; `snapshot` reads each cell once without stopping writers, so
/// a snapshot taken concurrently with records is a consistent-enough
/// point-in-time view (the sum may be ahead of or behind the buckets by the
/// handful of records in flight).
///
/// ```
/// use mpds_obs::Histogram;
/// let h = Histogram::new();
/// h.record(100);
/// h.record(200);
/// let s = h.snapshot();
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.sum(), 300);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
///
/// Snapshots support subtraction (for per-phase windows over a cumulative
/// histogram) and merging (for aggregating shards), and compute quantiles
/// by linear interpolation inside the bucket that contains the requested
/// rank — so a reported quantile is always within the log2 bucket bounds of
/// the exact sample quantile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Reassembles a snapshot from raw parts (e.g. parsed from a Prometheus
    /// scrape); `counts` must use the fixed layout described in [`crate::hist`].
    pub fn from_parts(counts: [u64; BUCKETS], sum: u64) -> Self {
        HistogramSnapshot { counts, sum }
    }

    /// Per-bucket observation counts (not cumulative).
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Subtracts an earlier snapshot of the *same* histogram, yielding the
    /// observations recorded between the two (saturating on races).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by rank-walking the
    /// buckets and interpolating linearly within the containing bucket.
    ///
    /// Returns `0.0` for an empty snapshot. The estimate is exact for
    /// values that fall in single-value buckets (0 and 1) and otherwise
    /// bounded by the containing bucket's `(low, high)` range.
    ///
    /// ```
    /// use mpds_obs::Histogram;
    /// let h = Histogram::new();
    /// for v in 0..100u64 {
    ///     h.record(v);
    /// }
    /// let p50 = h.snapshot().quantile(0.5);
    /// assert!((32.0..=63.0).contains(&p50), "p50 = {p50}");
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the requested order statistic.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if below + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let within = (rank - below) as f64 / c as f64;
                return lo as f64 + (hi - lo) as f64 * within;
            }
            below += c;
        }
        // Unreachable: ranks are clamped to the total count.
        bucket_bounds(BUCKETS - 1).1 as f64
    }
}

/// Per-bucket exemplar storage riding alongside a [`Histogram`]: each
/// bucket remembers the most recent `(trace_id, value)` observation that
/// landed in it.
///
/// Writes are two relaxed stores (no CAS loop); a reader racing a writer
/// can see a trace id paired with the previous value, which is acceptable
/// for exemplars — both still point at a real observation in that bucket.
/// Trace id `0` is the "empty" sentinel, so mint ids starting at 1.
///
/// ```
/// use mpds_obs::{bucket_index, BucketExemplars};
/// let e = BucketExemplars::new();
/// e.observe(700, 0x2a);
/// let snap = e.snapshot();
/// assert_eq!(snap.get(bucket_index(700)), Some((0x2a, 700)));
/// assert_eq!(snap.get(0), None);
/// ```
#[derive(Debug)]
pub struct BucketExemplars {
    trace: [AtomicU64; BUCKETS],
    value: [AtomicU64; BUCKETS],
}

impl Default for BucketExemplars {
    fn default() -> Self {
        BucketExemplars::new()
    }
}

impl BucketExemplars {
    /// Creates an empty exemplar bank (every bucket unset).
    pub fn new() -> Self {
        BucketExemplars {
            trace: std::array::from_fn(|_| AtomicU64::new(0)),
            value: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Remembers `trace_id` as the most recent observation of `value` in
    /// the bucket `value` maps to. A zero `trace_id` is ignored (it is the
    /// empty sentinel).
    #[inline]
    pub fn observe(&self, value: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let i = bucket_index(value);
        self.value[i].store(value, Ordering::Relaxed);
        self.trace[i].store(trace_id, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of every bucket's exemplar.
    pub fn snapshot(&self) -> ExemplarSnapshot {
        let mut slots = [None; BUCKETS];
        for (i, slot) in slots.iter_mut().enumerate() {
            let trace = self.trace[i].load(Ordering::Relaxed);
            if trace != 0 {
                *slot = Some((trace, self.value[i].load(Ordering::Relaxed)));
            }
        }
        ExemplarSnapshot { slots }
    }
}

/// An owned copy of a [`BucketExemplars`] bank: per bucket, the most recent
/// `(trace_id, value)` pair or `None` if the bucket never saw a traced
/// observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExemplarSnapshot {
    slots: [Option<(u64, u64)>; BUCKETS],
}

impl Default for ExemplarSnapshot {
    fn default() -> Self {
        ExemplarSnapshot {
            slots: [None; BUCKETS],
        }
    }
}

impl ExemplarSnapshot {
    /// The `(trace_id, value)` exemplar for bucket `i`, if any.
    pub fn get(&self, i: usize) -> Option<(u64, u64)> {
        self.slots.get(i).copied().flatten()
    }

    /// Whether no bucket carries an exemplar.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i, "hi of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn le_bounds_are_cumulative_uppers() {
        assert_eq!(bucket_le(0), Some(0));
        assert_eq!(bucket_le(1), Some(1));
        assert_eq!(bucket_le(62), Some((1u64 << 62) - 1));
        assert_eq!(bucket_le(63), None);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0.0);
    }

    #[test]
    fn since_recovers_a_window() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1_000);
        h.record(2_000);
        let window = h.snapshot().since(&before);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 3_000);
    }

    #[test]
    fn quantile_of_identical_values_stays_in_bucket() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(700);
        }
        let s = h.snapshot();
        let (lo, hi) = bucket_bounds(bucket_index(700));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(est >= lo as f64 && est <= hi as f64, "q={q} est={est}");
        }
    }

    #[test]
    fn exemplars_keep_the_most_recent_trace_per_bucket() {
        let e = BucketExemplars::new();
        assert!(e.snapshot().is_empty());
        e.observe(700, 7);
        e.observe(900, 9); // same bucket as 700: replaces it
        e.observe(5, 5);
        e.observe(42, 0); // zero trace id: ignored
        let snap = e.snapshot();
        assert_eq!(snap.get(bucket_index(700)), Some((9, 900)));
        assert_eq!(snap.get(bucket_index(5)), Some((5, 5)));
        assert_eq!(snap.get(bucket_index(42)), None);
        assert!(!snap.is_empty());
    }

    #[test]
    fn concurrent_recorders_merge_to_the_same_totals() {
        use std::sync::Arc;
        let shared = Arc::new(Histogram::new());
        let locals: Vec<Arc<Histogram>> = (0..4).map(|_| Arc::new(Histogram::new())).collect();
        std::thread::scope(|scope| {
            for (t, local) in locals.iter().enumerate() {
                let shared = Arc::clone(&shared);
                let local = Arc::clone(local);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        let v = (t as u64) * 7 + i % 4096;
                        shared.record(v);
                        local.record(v);
                    }
                });
            }
        });
        let (mut counts, mut sum) = ([0u64; BUCKETS], 0);
        for local in locals.iter().map(|l| l.snapshot()) {
            for (slot, v) in counts.iter_mut().zip(local.counts()) {
                *slot += v;
            }
            sum += local.sum();
        }
        let merged = HistogramSnapshot::from_parts(counts, sum);
        assert_eq!(merged, shared.snapshot());
        assert_eq!(merged.count(), 40_000);
    }
}
