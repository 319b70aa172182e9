//! FastTrack (Flanagan & Freund, PLDI 2009; Section 2.3 of the CLEAN
//! paper): the full precise detector CLEAN simplifies.
//!
//! FastTrack keeps, per location, a last-write *epoch* plus an adaptive
//! read side: a single read epoch while reads are totally ordered,
//! inflated to a full read vector clock once concurrent reads appear.
//! Detecting WAR races requires comparing a write against that full read
//! vector clock — `n` clock comparisons — which is exactly the cost CLEAN
//! eliminates by not detecting WAR.

use crate::api::{FoundRace, FullRaceKind, TraceDetector, TraceEvent};
use crate::hb::{first_unordered, HbState};
use crate::page_table::PageTable;
use clean_core::{Epoch, EpochLayout};

/// The metadata of one byte: 8 bytes, twice CLEAN's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    /// The last write's epoch.
    write: Epoch,
    /// The adaptive read side: while the reads since the last write are
    /// totally ordered, the last one's epoch; once two are concurrent,
    /// the index of their read clock in `FastTrack::read_clocks`, with
    /// the expanded bit set.
    read: Epoch,
}

/// The FastTrack precise detector (WAW + RAW + WAR).
///
/// Like every engine here it checks and updates every byte of an access
/// and reports the access's first racy byte.
///
/// # Examples
///
/// ```
/// use clean_baselines::{FastTrack, TraceDetector, TraceEvent, FullRaceKind, run_detector};
/// use clean_core::ThreadId;
///
/// let mut det = FastTrack::new(2);
/// // WAR race: CLEAN misses it by design, FastTrack reports it.
/// let races = run_detector(&mut det, &[
///     TraceEvent::Read { tid: ThreadId::new(0), addr: 0, size: 1 },
///     TraceEvent::Write { tid: ThreadId::new(1), addr: 0, size: 1 },
/// ]);
/// assert_eq!(races[0].kind, FullRaceKind::War);
/// ```
#[derive(Debug)]
pub struct FastTrack {
    hb: HbState,
    cells: PageTable<Cell>,
    /// The inflated read clocks, `n` epochs each (zero for a thread with
    /// no read), outside the cells: a byte whose reads were never
    /// concurrent costs no clock.
    read_clocks: Vec<Epoch>,
    /// Indices of read clocks that writes handed back for reuse.
    free: Vec<u32>,
    /// Bytes ever accessed.
    touched: usize,
    comparisons: u64,
    read_vc_inflations: u64,
}

impl FastTrack {
    /// Creates a detector for traces with up to `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        FastTrack {
            hb: HbState::new(num_threads, EpochLayout::paper_default()),
            cells: PageTable::new(1),
            read_clocks: Vec::new(),
            free: Vec::new(),
            touched: 0,
            comparisons: 0,
            read_vc_inflations: 0,
        }
    }

    /// Clock comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Locations whose read metadata was inflated to a full vector clock.
    pub fn read_vc_inflations(&self) -> u64 {
        self.read_vc_inflations
    }
}

impl TraceDetector for FastTrack {
    fn name(&self) -> &'static str {
        "fasttrack"
    }

    fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace> {
        let Some((tid, addr, size, write_kind)) = self.hb.apply(event) else {
            return Vec::new();
        };
        let is_write = write_kind == FullRaceKind::Waw;
        let (layout, n) = (self.hb.layout(), self.hb.num_threads());
        let (vc, my_epoch) = (self.hb.vc(tid), self.hb.epoch(tid));
        let (clocks, free) = (&mut self.read_clocks, &mut self.free);
        let (touched, comparisons) = (&mut self.touched, &mut self.comparisons);
        let inflations = &mut self.read_vc_inflations;
        let mut first = None;
        self.cells.walk(addr, size, true, |lo, _, cells| {
            for (i, cell) in cells.iter_mut().enumerate() {
                if *cell == Cell::default() {
                    *touched += 1;
                }
                // Write-write or write-read check (single comparison,
                // like CLEAN).
                *comparisons += 1;
                let mut race = vc
                    .races_with(cell.write)
                    .then(|| (write_kind, layout.tid(cell.write)));
                let clock = cell
                    .read
                    .is_expanded()
                    .then(|| cell.read.without_expanded().raw() as usize * n);
                match (is_write, clock) {
                    // Read-write (WAR) check: O(n) once the reads were
                    // inflated — the cost CLEAN avoids.
                    (true, Some(at)) => {
                        *comparisons += n as u64;
                        let war = first_unordered(&clocks[at..at + n], vc);
                        race = race.or(war.map(|t| (FullRaceKind::War, t)));
                        free.push((at / n) as u32);
                    }
                    (true, None) => {
                        *comparisons += 1;
                        if cell.read != Epoch::ZERO && vc.races_with(cell.read) {
                            race = race.or(Some((FullRaceKind::War, layout.tid(cell.read))));
                        }
                    }
                    (false, Some(at)) => clocks[at + tid.index()] = my_epoch,
                    // The FastTrack adaptive rules.
                    (false, None) => {
                        *comparisons += 1;
                        if cell.read == Epoch::ZERO || !vc.races_with(cell.read) {
                            // Previous read happens-before us: stay in
                            // epoch mode.
                            cell.read = my_epoch;
                        } else {
                            // Concurrent reads: inflate to a read clock
                            // holding both.
                            let index = free.pop().map_or(clocks.len() / n, |i| i as usize);
                            assert!(index < Epoch::EXPANDED_BIT as usize, "too many read clocks");
                            if index * n == clocks.len() {
                                clocks.resize(clocks.len() + n, Epoch::ZERO);
                            }
                            let rvc = &mut clocks[index * n..][..n];
                            rvc.fill(Epoch::ZERO);
                            rvc[layout.tid(cell.read).index()] = cell.read;
                            rvc[tid.index()] = my_epoch;
                            cell.read = Epoch::from_raw(index as u32).with_expanded();
                            *inflations += 1;
                        }
                    }
                }
                if is_write {
                    *cell = Cell {
                        write: my_epoch,
                        read: Epoch::ZERO,
                    };
                }
                if let (None, Some((kind, previous))) = (first, race) {
                    first = Some(FoundRace {
                        kind,
                        addr: lo + i,
                        current: tid,
                        previous,
                    });
                }
            }
        });
        Vec::from_iter(first)
    }

    fn reset(&mut self) {
        *self = FastTrack::new(self.hb.num_threads());
    }

    fn metadata_bytes(&self) -> usize {
        // A write epoch and a read epoch per byte, or a write epoch and
        // a read clock.
        let n = self.hb.num_threads();
        let inflated = self.read_clocks.len() / n.max(1) - self.free.len();
        self.hb.metadata_bytes() + (self.touched - inflated) * 8 + inflated * (n + 1) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_detector;
    use crate::api::test_events::{read, read_n, t, write, write_n};

    #[test]
    fn detects_all_three_race_kinds() {
        let mut d = FastTrack::new(3);
        assert_eq!(
            run_detector(&mut d, &[write(0, 0), write(1, 0)])[0].kind,
            FullRaceKind::Waw
        );
        d.reset();
        assert_eq!(
            run_detector(&mut d, &[write(0, 0), read(1, 0)])[0].kind,
            FullRaceKind::Raw
        );
        d.reset();
        assert_eq!(
            run_detector(&mut d, &[read(0, 0), write(1, 0)])[0].kind,
            FullRaceKind::War
        );
    }

    #[test]
    fn ordered_accesses_race_free() {
        let mut d = FastTrack::new(2);
        let races = run_detector(
            &mut d,
            &[
                write(0, 0),
                TraceEvent::Release { tid: t(0), lock: 1 },
                TraceEvent::Acquire { tid: t(1), lock: 1 },
                read(1, 0),
                write(1, 0),
            ],
        );
        assert!(races.is_empty());
    }

    #[test]
    fn concurrent_reads_inflate_then_war_detected_against_nonlast_read() {
        // The shared-read case FastTrack's epochs cannot summarize:
        // t0 and t1 read concurrently; t1's read is last, but the write
        // by t2 races with *t0's* read (t2 synchronized only with t1).
        let mut d = FastTrack::new(3);
        let races = run_detector(
            &mut d,
            &[
                read(0, 0),
                read(1, 0),
                TraceEvent::Release { tid: t(1), lock: 7 },
                TraceEvent::Acquire { tid: t(2), lock: 7 },
                write(2, 0),
            ],
        );
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, FullRaceKind::War);
        assert_eq!(races[0].previous, t(0));
        assert!(d.read_vc_inflations() >= 1);
    }

    #[test]
    fn war_costs_n_comparisons_after_inflation() {
        let mut d = FastTrack::new(8);
        let _ = run_detector(&mut d, &[read(0, 0), read(1, 0)]);
        let before = d.comparisons();
        let _ = d.process(&write(2, 0));
        // 1 (WAW) + n (read VC scan)
        assert_eq!(d.comparisons() - before, 1 + 8);
    }

    #[test]
    fn a_racy_access_still_updates_every_byte() {
        // Thread 1's write races at its first byte; thread 0's read of
        // its upper half must see thread 1's write there, not its own.
        let trace = [write_n(0, 60, 8), write_n(1, 60, 8), read_n(0, 64, 4)];
        let races = run_detector(&mut FastTrack::new(2), &trace);
        let found: Vec<_> = races.iter().map(|r| (r.kind, r.addr)).collect();
        assert_eq!(found, [(FullRaceKind::Waw, 60), (FullRaceKind::Raw, 64)]);
    }

    #[test]
    fn a_write_hands_its_read_clock_back() {
        let mut d = FastTrack::new(4);
        let base = d.metadata_bytes();
        let _ = run_detector(&mut d, &[read(0, 0), read(1, 0)]);
        // One byte: a write epoch and a 4-thread read clock.
        assert_eq!(d.metadata_bytes() - base, 4 + 4 * 4);
        let _ = run_detector(&mut d, &[write(2, 0), read(0, 0), read(1, 0)]);
        assert_eq!(d.read_vc_inflations(), 2);
        assert_eq!(
            d.read_clocks.len(),
            4,
            "the second inflation reused the clock"
        );
        let _ = d.process(&write(3, 0));
        assert_eq!(d.metadata_bytes() - base, 8);
    }

    #[test]
    fn same_epoch_reads_stay_compact() {
        let mut d = FastTrack::new(4);
        // Same thread reads repeatedly: never inflates.
        let _ = run_detector(&mut d, &[read(0, 0), read(0, 0), read(0, 0)]);
        assert_eq!(d.read_vc_inflations(), 0);
    }
}
