//! Detection statistics — the measured quantities behind Figures 7, 8
//! and 10 of the paper.
//!
//! Counters live in cache-line-padded *shards* so concurrent threads do
//! not contend on (or false-share) the same lines while the detector is
//! hot; [`DetectorStats::snapshot`] sums the shards into the plain-value
//! [`StatsSnapshot`] totals. The check path itself never touches them: it
//! counts into a thread's plain [`PendingStats`], which reach the shards
//! when drained.

use crate::filter::PendingStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of statistics shards: enough to spread the paper's 8-core
/// working point across distinct cache lines.
pub const DEFAULT_STATS_SHARDS: usize = 8;

/// One cache-line-padded bundle of detection counters.
///
/// All counters are monotone and updated with relaxed atomics when a
/// thread's [`PendingStats`] are drained; a snapshot under-reports by
/// whatever is still pending and is exact once every thread has drained.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct StatsShard {
    /// Shared read accesses checked.
    pub reads_checked: AtomicU64,
    /// Shared write accesses checked.
    pub writes_checked: AtomicU64,
    /// Total data bytes covered by checked accesses.
    pub bytes_checked: AtomicU64,
    /// Multi-byte accesses whose epochs were all equal, resolved with the
    /// single-comparison fast path of Section 4.4.
    pub uniform_fast_path: AtomicU64,
    /// Multi-byte accesses that fell back to per-byte checks.
    pub per_byte_slow_path: AtomicU64,
    /// Shadow-word CASes issued to publish epochs (Figure 2, line 6):
    /// one per two bytes on the uniform path, one per byte otherwise.
    pub epoch_updates: AtomicU64,
    /// Write checks that skipped the update because the epoch was already
    /// current (Figure 2, line 5 `epoch != newEpoch` false).
    pub update_skipped: AtomicU64,
    /// CAS publications that failed, i.e. WAW races caught by the
    /// Section 4.3 atomicity mechanism rather than the clock comparison.
    pub cas_conflicts: AtomicU64,
    /// Races reported.
    pub races_reported: AtomicU64,
    /// Checks answered entirely by the per-thread SFR write-set filter
    /// (the software analogue of the paper's Section 5 LLC-ownership
    /// redundant-check elimination).
    pub filter_hits: AtomicU64,
    /// Checks skipped because a compiled check plan proved the range
    /// thread-private for the accessing thread.
    pub plan_elided: AtomicU64,
}

/// Thread-safe counters accumulated by the detector, sharded by thread
/// over [`DEFAULT_STATS_SHARDS`] cache-line-padded shards.
#[derive(Debug, Default)]
pub struct DetectorStats {
    shards: Box<[StatsShard; DEFAULT_STATS_SHARDS]>,
}

/// A plain-value snapshot of [`DetectorStats`], summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Shared read accesses checked.
    pub reads_checked: u64,
    /// Shared write accesses checked.
    pub writes_checked: u64,
    /// Total data bytes covered by checked accesses.
    pub bytes_checked: u64,
    /// Accesses resolved by the uniform-epoch fast path.
    pub uniform_fast_path: u64,
    /// Accesses that required per-byte checks.
    pub per_byte_slow_path: u64,
    /// Shadow-word CASes issued to publish epochs.
    pub epoch_updates: u64,
    /// Redundant updates skipped.
    pub update_skipped: u64,
    /// CAS conflicts (concurrent WAW captures).
    pub cas_conflicts: u64,
    /// Races reported.
    pub races_reported: u64,
    /// Checks answered by the SFR write-set filter.
    pub filter_hits: u64,
    /// Checks skipped under a compiled plan's elide ranges.
    pub plan_elided: u64,
}

impl StatsSnapshot {
    /// Total accesses checked (filter hits included: a filtered check is
    /// still a checked access, answered by cached knowledge).
    pub fn total_checked(&self) -> u64 {
        self.reads_checked + self.writes_checked
    }

    /// Fraction of multi-byte accesses resolved by the fast path
    /// (the ">99.7%" quantity of Section 6.2.3).
    pub fn fast_path_fraction(&self) -> f64 {
        let total = self.uniform_fast_path + self.per_byte_slow_path;
        if total == 0 {
            return 1.0;
        }
        self.uniform_fast_path as f64 / total as f64
    }
}

impl DetectorStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard thread `tid_index` drains into: threads spread across
    /// lines, wrapping past [`DEFAULT_STATS_SHARDS`].
    #[inline]
    pub fn shard(&self, tid_index: usize) -> &StatsShard {
        &self.shards[tid_index % DEFAULT_STATS_SHARDS]
    }

    /// Takes a consistent-enough snapshot: each counter summed over all
    /// shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for shard in self.shards.iter() {
            s.reads_checked += shard.reads_checked.load(Ordering::Relaxed);
            s.writes_checked += shard.writes_checked.load(Ordering::Relaxed);
            s.bytes_checked += shard.bytes_checked.load(Ordering::Relaxed);
            s.uniform_fast_path += shard.uniform_fast_path.load(Ordering::Relaxed);
            s.per_byte_slow_path += shard.per_byte_slow_path.load(Ordering::Relaxed);
            s.epoch_updates += shard.epoch_updates.load(Ordering::Relaxed);
            s.update_skipped += shard.update_skipped.load(Ordering::Relaxed);
            s.cas_conflicts += shard.cas_conflicts.load(Ordering::Relaxed);
            s.races_reported += shard.races_reported.load(Ordering::Relaxed);
            s.filter_hits += shard.filter_hits.load(Ordering::Relaxed);
            s.plan_elided += shard.plan_elided.load(Ordering::Relaxed);
        }
        s
    }

    /// Adds a thread's plain check-path counts into its shard: the one
    /// place those counts meet shared atomics. Zero counts are skipped.
    pub(crate) fn absorb(&self, tid_index: usize, p: &PendingStats) {
        let shard = self.shard(tid_index);
        for (counter, n) in [
            (&shard.reads_checked, p.reads_checked),
            (&shard.writes_checked, p.writes_checked),
            (&shard.bytes_checked, p.bytes_checked),
            (&shard.uniform_fast_path, p.uniform_fast_path),
            (&shard.per_byte_slow_path, p.per_byte_slow_path),
            (&shard.epoch_updates, p.epoch_updates),
            (&shard.update_skipped, p.update_skipped),
            (&shard.cas_conflicts, p.cas_conflicts),
            (&shard.races_reported, p.races_reported),
            (&shard.filter_hits, p.filter_hits),
            (&shard.plan_elided, p.plan_elided),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_absorbed_counts() {
        let s = DetectorStats::new();
        s.absorb(
            0,
            &PendingStats {
                reads_checked: 2,
                writes_checked: 1,
                bytes_checked: 12,
                ..Default::default()
            },
        );
        let snap = s.snapshot();
        assert_eq!(snap.reads_checked, 2);
        assert_eq!(snap.writes_checked, 1);
        assert_eq!(snap.bytes_checked, 12);
        assert_eq!(snap.total_checked(), 3);
    }

    #[test]
    fn snapshot_sums_across_shards() {
        let s = DetectorStats::new();
        let one_read = PendingStats {
            reads_checked: 1,
            ..Default::default()
        };
        for tid in 0..DEFAULT_STATS_SHARDS + 1 {
            s.absorb(tid, &one_read);
        }
        s.absorb(
            2,
            &PendingStats {
                filter_hits: 1,
                ..Default::default()
            },
        );
        let snap = s.snapshot();
        assert_eq!(snap.reads_checked, DEFAULT_STATS_SHARDS as u64 + 1);
        assert_eq!(snap.filter_hits, 1);
    }

    #[test]
    fn shard_selection_wraps() {
        let s = DetectorStats::new();
        let n = DEFAULT_STATS_SHARDS;
        assert!(std::ptr::eq(s.shard(0), s.shard(n)));
        assert!(std::ptr::eq(s.shard(1), s.shard(n + 1)));
        assert!(!std::ptr::eq(s.shard(0), s.shard(1)));
    }

    #[test]
    fn shards_are_cache_line_padded() {
        assert!(std::mem::align_of::<StatsShard>() >= 128);
        assert!(std::mem::size_of::<StatsShard>() >= 128);
    }

    #[test]
    fn fast_path_fraction_edges() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.fast_path_fraction(), 1.0);
        let snap = StatsSnapshot {
            uniform_fast_path: 997,
            per_byte_slow_path: 3,
            ..Default::default()
        };
        assert!((snap.fast_path_fraction() - 0.997).abs() < 1e-12);
    }
}
