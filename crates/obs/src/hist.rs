//! The canonical log2 latency histogram of the CLEAN stack.
//!
//! Promoted from the soak harness so every layer — serve, router,
//! benches — shares one histogram shape with one quantile convention:
//! a reported quantile is its bucket's inclusive upper bound clamped to
//! the observed maximum, i.e. conservative, never optimistic.

/// Bucket count of [`LogHistogram`] — one bucket per power of two of
/// microseconds, so bucket 63 absorbs everything above ~292 years.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 latency histogram over microseconds.
///
/// `record(v)` lands `v` in bucket `floor(log2(max(v, 1)))`; a quantile
/// is answered as its bucket's inclusive upper bound, clamped to the
/// true observed maximum. Merging is element-wise addition, so worker
/// threads keep private histograms and a harness folds them at the
/// end without locks. The atomic recording variant lives in the
/// registry ([`Hist`](crate::Hist)) and snapshots into this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index for a sample: `floor(log2(max(v, 1)))`, so
    /// 0..=1 µs → bucket 0, 2..=3 → 1, and so on.
    pub fn bucket(micros: u64) -> usize {
        63 - (micros | 1).leading_zeros() as usize
    }

    /// Rebuilds a histogram from its parts (the exposition parse path).
    /// The sample count is recomputed from the buckets, which is exact:
    /// every recorded sample lands in exactly one bucket. It saturates,
    /// like `sum`, on bucket counts no recording could reach.
    pub fn from_parts(buckets: [u64; HISTOGRAM_BUCKETS], sum: u64, max: u64) -> Self {
        LogHistogram {
            count: buckets.iter().fold(0, |n: u64, &b| n.saturating_add(b)),
            buckets,
            sum,
            max,
        }
    }

    /// Per-bucket sample counts.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Records one latency sample.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::bucket(micros)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(micros);
        self.max = self.max.max(micros);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples, in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max
    }

    /// Arithmetic-mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a conservative upper bound in
    /// microseconds: the inclusive top of the first bucket whose
    /// cumulative count reaches `ceil(q * count)`, clamped to the true
    /// maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_micros(), 1000);
        // p100 is clamped to the observed max, not the bucket top.
        assert_eq!(h.quantile(1.0), 1000);
        // The median sample (3) lives in bucket [2, 3].
        assert_eq!(h.quantile(0.5), 3);
        // Every quantile is >= the true value at that rank.
        assert!(h.quantile(0.8) >= 100);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..50 {
            a.record(v);
        }
        for v in 50..100 {
            b.record(v * 100);
        }
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.max_micros(), 99 * 100);
        assert!(a.quantile(0.99) >= b.quantile(0.5));
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 7, 4096, 123_456] {
            h.record(v);
        }
        let rebuilt = LogHistogram::from_parts(*h.bucket_counts(), h.sum_micros(), h.max_micros());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.mean_micros(), h.mean_micros());
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 0);
        assert_eq!(LogHistogram::bucket(2), 1);
        assert_eq!(LogHistogram::bucket(3), 1);
        assert_eq!(LogHistogram::bucket(4), 2);
        assert_eq!(LogHistogram::bucket(u64::MAX), 63);
    }
}
