//! Per-thread redundant-check elimination — the software analogue of the
//! paper's Section 5 LLC-ownership filter.
//!
//! In hardware, CLEAN skips the epoch check whenever the LLC already
//! holds the line in the modified state for the issuing core: nobody else
//! can have written it since this core last published, so re-checking is
//! provably redundant. Software has no coherence directory, but it has an
//! equivalent invariant: once a thread has *successfully published its
//! current epoch* over a byte range, every byte in that range still holds
//! exactly that epoch for as long as the thread's epoch does not change —
//! any ordered overwrite requires this thread to release (which bumps its
//! epoch and invalidates the entry), and any racy overwrite raises the
//! race exception *before* mutating shadow state. See DESIGN.md
//! ("SFR write-set filter") for the full soundness argument.
//!
//! [`SfrWriteFilter`] is a small direct-mapped table of such ranges.
//! Entries are tagged with the publishing epoch and the shadow reset
//! generation, so they self-invalidate on epoch increments and on
//! deterministic resets without any flush being strictly required; the
//! explicit [`clear`](SfrWriteFilter::clear) on sync operations merely
//! keeps the table from carrying dead weight across SFRs.

/// Number of direct-mapped filter slots. 128 slots × 24 B ≈ 3 KiB per
/// thread — small enough to stay L1-resident next to the thread's stack.
pub const FILTER_SLOTS: usize = 128;

/// Number of growable *range* slots used for plan-coalesced sweeps. A
/// strided writer occupies exactly one range slot per planned region, so
/// a handful suffice.
pub const RANGE_SLOTS: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    base: usize,
    /// Covered length in bytes; 0 marks an empty slot.
    len: u32,
    /// Raw epoch the owning thread held when it published this range.
    epoch: u32,
    /// Shadow reset generation the publication happened under.
    generation: u64,
}

/// A growable published range for plan-coalesced strided sweeps. Unlike
/// the direct-mapped [`Slot`]s (whose index is a function of the access
/// address, so a sweep thrashes one slot per 8-byte step), a range slot
/// *extends* when the thread's next write starts exactly where the last
/// one ended — the defining shape of a sequential sweep.
#[derive(Debug, Clone, Copy, Default)]
struct RangeSlot {
    base: usize,
    /// Exclusive end; `base == end` marks an empty slot.
    end: usize,
    epoch: u32,
    generation: u64,
}

/// A direct-mapped per-thread table of byte ranges the thread has already
/// published under its current epoch.
///
/// Not shared: each thread owns its own filter, so lookups and inserts
/// are plain (non-atomic) loads and stores.
#[derive(Debug)]
pub struct SfrWriteFilter {
    slots: [Slot; FILTER_SLOTS],
    ranges: [RangeSlot; RANGE_SLOTS],
    /// Round-robin victim cursor for range-slot allocation.
    range_victim: usize,
}

impl Default for SfrWriteFilter {
    fn default() -> Self {
        SfrWriteFilter {
            slots: [Slot::default(); FILTER_SLOTS],
            ranges: [RangeSlot::default(); RANGE_SLOTS],
            range_victim: 0,
        }
    }
}

impl SfrWriteFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn index(addr: usize) -> usize {
        (addr >> 3) & (FILTER_SLOTS - 1)
    }

    /// Returns true if `[addr, addr + size)` is fully covered by an entry
    /// published under exactly (`epoch_raw`, `generation`).
    ///
    /// A hit means the full check is provably redundant: every covered
    /// byte still holds `epoch_raw` in shadow memory, so a read check
    /// passes without updates and a write check takes the
    /// `epoch == newEpoch` skip path.
    #[inline]
    pub fn covers(&self, addr: usize, size: usize, epoch_raw: u32, generation: u64) -> bool {
        let s = &self.slots[Self::index(addr)];
        s.len != 0
            && s.epoch == epoch_raw
            && s.generation == generation
            && s.base <= addr
            && addr + size <= s.base + s.len as usize
    }

    /// Records that the owning thread published `epoch_raw` over
    /// `[addr, addr + size)` under reset generation `generation`.
    ///
    /// Call only after a *successful, complete* write check — a failed or
    /// partial publication must not be cached.
    #[inline]
    pub fn insert(&mut self, addr: usize, size: usize, epoch_raw: u32, generation: u64) {
        self.slots[Self::index(addr)] = Slot {
            base: addr,
            len: size.min(u32::MAX as usize) as u32,
            epoch: epoch_raw,
            generation,
        };
    }

    /// Returns true if `[addr, addr + size)` is fully covered by a
    /// *range* slot published under exactly (`epoch_raw`, `generation`).
    /// Same soundness argument as [`covers`](Self::covers); the entries
    /// are just associatively probed and growable.
    #[inline]
    pub fn covers_range(&self, addr: usize, size: usize, epoch_raw: u32, generation: u64) -> bool {
        self.ranges.iter().any(|r| {
            r.end > r.base
                && r.epoch == epoch_raw
                && r.generation == generation
                && r.base <= addr
                && addr + size <= r.end
        })
    }

    /// Records a publication in the range table: extends an existing
    /// slot when the write starts exactly at its end (the sequential
    /// sweep case), otherwise claims a fresh slot round-robin.
    ///
    /// Same contract as [`insert`](Self::insert): call only after a
    /// successful, complete write check.
    #[inline]
    pub fn insert_coalesced(&mut self, addr: usize, size: usize, epoch_raw: u32, generation: u64) {
        let Some(end) = addr.checked_add(size) else {
            return;
        };
        for r in &mut self.ranges {
            if r.end > r.base && r.epoch == epoch_raw && r.generation == generation {
                if r.end == addr {
                    r.end = end;
                    return;
                }
                if r.base <= addr && end <= r.end {
                    return; // already covered
                }
            }
        }
        self.ranges[self.range_victim] = RangeSlot {
            base: addr,
            end,
            epoch: epoch_raw,
            generation,
        };
        self.range_victim = (self.range_victim + 1) % RANGE_SLOTS;
    }

    /// Empties the filter. Called on every epoch increment (sync
    /// operation); entries would self-invalidate via their epoch tag
    /// anyway, so this is hygiene, not a soundness requirement.
    #[inline]
    pub fn clear(&mut self) {
        self.slots = [Slot::default(); FILTER_SLOTS];
        self.ranges = [RangeSlot::default(); RANGE_SLOTS];
        self.range_victim = 0;
    }
}

/// Plain (non-atomic) per-thread statistics: every counter the check
/// path writes, one field per [`StatsSnapshot`](crate::StatsSnapshot)
/// field.
///
/// A checked access bumps these with plain adds; the detector's shared,
/// sharded atomics are touched only when the counts are drained. The
/// `*_with` entry points accumulate here across a whole SFR and the owner
/// drains them with
/// [`CleanDetector::drain_check_state`](crate::CleanDetector::drain_check_state)
/// on every epoch increment (sync operations are rare relative to
/// accesses) and at thread exit; the stateless entry points flush a
/// stack-local one at the end of each call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PendingStats {
    /// Read checks, filter hits included.
    pub reads_checked: u64,
    /// Write checks, filter hits included.
    pub writes_checked: u64,
    /// Bytes covered by those checks.
    pub bytes_checked: u64,
    /// Multi-byte accesses resolved by the uniform-epoch fast path.
    pub uniform_fast_path: u64,
    /// Multi-byte accesses that fell back to per-byte checks.
    pub per_byte_slow_path: u64,
    /// Shadow-word CASes issued to publish epochs.
    pub epoch_updates: u64,
    /// Write checks that found the epoch already current.
    pub update_skipped: u64,
    /// CAS publications that lost to a concurrent unordered write.
    pub cas_conflicts: u64,
    /// Races reported.
    pub races_reported: u64,
    /// Checks answered by the SFR write-set filter.
    pub filter_hits: u64,
    /// Checks skipped under a compiled plan's elide ranges.
    pub plan_elided: u64,
}

impl PendingStats {
    /// True when there is nothing to drain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// The per-thread mutable state the fast-path check pipeline threads
/// through [`check_read_with`](crate::CleanDetector::check_read_with) and
/// [`check_write_with`](crate::CleanDetector::check_write_with): the SFR
/// write-set filter and the batched check statistics.
#[derive(Debug, Default)]
pub struct ThreadCheckState {
    /// Ranges this thread already published this SFR.
    pub filter: SfrWriteFilter,
    /// Check statistics not yet drained into the sharded counters.
    pub pending: PendingStats,
}

impl ThreadCheckState {
    /// Creates empty per-thread state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flush hook for epoch increments: empties the write-set filter.
    /// Callers holding a detector should drain [`pending`](Self::pending)
    /// first via
    /// [`CleanDetector::drain_check_state`](crate::CleanDetector::drain_check_state).
    #[inline]
    pub fn on_epoch_increment(&mut self) {
        self.filter.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_covers_nothing() {
        let f = SfrWriteFilter::new();
        assert!(!f.covers(0, 1, 0, 0));
        assert!(!f.covers(64, 8, 5, 0));
    }

    #[test]
    fn insert_then_cover_exact_and_subrange() {
        let mut f = SfrWriteFilter::new();
        f.insert(100, 8, 7, 0);
        assert!(f.covers(100, 8, 7, 0), "exact range");
        assert!(f.covers(100, 4, 7, 0), "prefix subrange");
        assert!(!f.covers(96, 8, 7, 0), "starts before entry");
        assert!(!f.covers(104, 8, 7, 0), "runs past entry");
    }

    #[test]
    fn epoch_mismatch_invalidates() {
        let mut f = SfrWriteFilter::new();
        f.insert(100, 8, 7, 0);
        assert!(!f.covers(100, 8, 8, 0), "newer epoch: entry stale");
        assert!(!f.covers(100, 8, 6, 0));
    }

    #[test]
    fn generation_mismatch_invalidates() {
        let mut f = SfrWriteFilter::new();
        f.insert(100, 8, 7, 3);
        assert!(f.covers(100, 8, 7, 3));
        assert!(!f.covers(100, 8, 7, 4), "reset invalidates entries");
    }

    #[test]
    fn clear_empties() {
        let mut f = SfrWriteFilter::new();
        f.insert(100, 8, 7, 0);
        f.clear();
        assert!(!f.covers(100, 8, 7, 0));
    }

    #[test]
    fn direct_mapped_eviction() {
        let mut f = SfrWriteFilter::new();
        f.insert(0, 8, 7, 0);
        // Same slot ((addr >> 3) mod FILTER_SLOTS collides), new entry wins.
        f.insert(8 * FILTER_SLOTS, 8, 7, 0);
        assert!(!f.covers(0, 8, 7, 0), "evicted by colliding insert");
        assert!(f.covers(8 * FILTER_SLOTS, 8, 7, 0));
    }

    #[test]
    fn subrange_lookup_misses_on_different_slot() {
        // Containment is only visible from the slot the *access* maps to;
        // an access whose index differs from the entry's base index is a
        // (sound) miss even though the range would cover it.
        let mut f = SfrWriteFilter::new();
        f.insert(100, 16, 7, 0);
        assert!(!f.covers(112, 4, 7, 0), "different slot: miss, not unsound");
    }

    #[test]
    fn check_state_flushes_filter_only() {
        let mut st = ThreadCheckState::new();
        st.filter.insert(64, 8, 3, 0);
        st.on_epoch_increment();
        assert!(!st.filter.covers(64, 8, 3, 0));
    }

    #[test]
    fn range_slot_grows_with_a_sequential_sweep() {
        let mut f = SfrWriteFilter::new();
        // A 512-byte strided sweep occupies ONE range slot and the whole
        // swept prefix stays covered — the shape direct-mapped slots
        // cannot express (each insert would clobber a different slot).
        for i in 0..64 {
            f.insert_coalesced(i * 8, 8, 7, 0);
        }
        assert!(f.covers_range(0, 512, 7, 0), "entire sweep covered");
        assert!(f.covers_range(8, 8, 7, 0), "early step still covered");
        assert!(!f.covers_range(512, 8, 7, 0), "past the sweep");
        assert!(!f.covers_range(0, 8, 8, 0), "epoch mismatch");
        assert!(!f.covers_range(0, 8, 7, 1), "generation mismatch");
    }

    #[test]
    fn range_slots_evict_round_robin() {
        let mut f = SfrWriteFilter::new();
        for k in 0..RANGE_SLOTS + 1 {
            f.insert_coalesced(k * 0x10000, 8, 7, 0);
        }
        assert!(!f.covers_range(0, 8, 7, 0), "oldest range evicted");
        assert!(f.covers_range(RANGE_SLOTS * 0x10000, 8, 7, 0));
    }

    #[test]
    fn covered_reinsert_does_not_burn_a_slot() {
        let mut f = SfrWriteFilter::new();
        f.insert_coalesced(0, 64, 7, 0);
        f.insert_coalesced(8, 8, 7, 0); // already covered: no-op
        f.insert_coalesced(0x10000, 8, 7, 0);
        assert!(f.covers_range(0, 64, 7, 0));
        assert!(f.covers_range(0x10000, 8, 7, 0));
    }

    #[test]
    fn clear_empties_range_slots_too() {
        let mut f = SfrWriteFilter::new();
        f.insert_coalesced(0, 64, 7, 0);
        f.clear();
        assert!(!f.covers_range(0, 8, 7, 0));
    }
}
