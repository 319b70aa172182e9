//! A ThreadSanitizer-v1-style imprecise detector (Serebryany &
//! Iskhodzhanov, WBIA 2009; Section 6.2.1 of the CLEAN paper).
//!
//! ThreadSanitizer keeps a record of only the last `k` (typically 4)
//! accesses to each 8-byte memory region. It can therefore *miss* races —
//! the CLEAN paper's software implementation was built on top of it and
//! had to fix exactly this — but it detects all three race kinds when the
//! racing accesses are still resident in the shadow cells.

use crate::api::{FoundRace, FullRaceKind, TraceDetector, TraceEvent};
use crate::hb::HbState;
use crate::page_table::PageTable;
use clean_core::{EpochLayout, ThreadId};

/// Number of shadow cells per 8-byte granule (the paper's `k = 4`).
pub const SHADOW_CELLS: usize = 4;

/// Size of a shadow granule in bytes.
pub const GRANULE: usize = 8;

#[derive(Debug, Clone, Copy)]
struct ShadowCell {
    tid: ThreadId,
    /// The accessor's scalar clock at the time of access.
    clock: u32,
    is_write: bool,
    /// Byte range within the granule.
    off: u8,
    len: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct Granule {
    cells: [Option<ShadowCell>; SHADOW_CELLS],
    /// Round-robin eviction cursor.
    next: usize,
}

/// The TSan-like imprecise detector.
///
/// # Examples
///
/// ```
/// use clean_baselines::{TsanLike, TraceDetector, TraceEvent, run_detector};
/// use clean_core::ThreadId;
///
/// let mut det = TsanLike::new(2);
/// let races = run_detector(&mut det, &[
///     TraceEvent::Write { tid: ThreadId::new(0), addr: 0, size: 4 },
///     TraceEvent::Write { tid: ThreadId::new(1), addr: 0, size: 4 },
/// ]);
/// assert_eq!(races.len(), 1, "recent races are caught");
/// ```
#[derive(Debug)]
pub struct TsanLike {
    hb: HbState,
    /// One [`Granule`] per 8-byte granule of the address space.
    granules: PageTable<Granule, { GRANULE.trailing_zeros() }>,
    /// Granules ever accessed.
    touched: usize,
    comparisons: u64,
    evictions: u64,
}

impl TsanLike {
    /// Creates a detector for traces with up to `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        TsanLike {
            hb: HbState::new(num_threads, EpochLayout::paper_default()),
            granules: PageTable::new(1),
            touched: 0,
            comparisons: 0,
            evictions: 0,
        }
    }

    /// Clock comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Shadow cells overwritten while still holding an access record —
    /// each eviction is a potential missed race.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl TraceDetector for TsanLike {
    fn name(&self) -> &'static str {
        "tsan-like"
    }

    fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace> {
        let Some((tid, addr, size, kind)) = self.hb.apply(event) else {
            return Vec::new();
        };
        let is_write = kind == FullRaceKind::Waw;
        let layout = self.hb.layout();
        let vc = self.hb.vc(tid);
        let my_clock = layout.clock(self.hb.epoch(tid));
        let (touched, comparisons) = (&mut self.touched, &mut self.comparisons);
        let evictions = &mut self.evictions;
        let mut race = None;
        self.granules.walk(addr, size, true, |start, end, run| {
            let first = start / GRANULE * GRANULE;
            for (i, g) in run.iter_mut().enumerate() {
                // The access's bytes in this granule, as offsets into it.
                let granule_addr = first + i * GRANULE;
                let lo = start.max(granule_addr) - granule_addr;
                let hi = (end - granule_addr).min(GRANULE);
                if g.cells[0].is_none() {
                    *touched += 1;
                }
                for cell in g.cells.iter().flatten() {
                    let c_lo = cell.off as usize;
                    let c_hi = c_lo + cell.len as usize;
                    let overlaps = c_lo < hi && lo < c_hi;
                    if !overlaps || cell.tid == tid || !(cell.is_write || is_write) {
                        continue;
                    }
                    *comparisons += 1;
                    let recorded = layout.pack(cell.tid, cell.clock);
                    if vc.races_with(recorded) {
                        race.get_or_insert(FoundRace {
                            kind: match (cell.is_write, is_write) {
                                (true, true) => FullRaceKind::Waw,
                                (true, false) => FullRaceKind::Raw,
                                (false, true) => FullRaceKind::War,
                                (false, false) => unreachable!("filtered above"),
                            },
                            addr: granule_addr + c_lo.max(lo),
                            current: tid,
                            previous: cell.tid,
                        });
                    }
                }
                // Record this access, evicting round-robin (the precision
                // loss the paper attributes to ThreadSanitizer).
                let slot = g.next;
                if g.cells[slot].is_some() {
                    *evictions += 1;
                }
                g.cells[slot] = Some(ShadowCell {
                    tid,
                    clock: my_clock,
                    is_write,
                    off: lo as u8,
                    len: (hi - lo) as u8,
                });
                g.next = (g.next + 1) % SHADOW_CELLS;
            }
        });
        Vec::from_iter(race)
    }

    fn reset(&mut self) {
        *self = TsanLike::new(self.hb.num_threads());
    }

    fn metadata_bytes(&self) -> usize {
        self.hb.metadata_bytes() + self.touched * SHADOW_CELLS * std::mem::size_of::<ShadowCell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_detector;
    use crate::api::test_events::{read, read_n, t, write, write_n};

    #[test]
    fn catches_recent_races_of_all_kinds() {
        let mut d = TsanLike::new(2);
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
    fn misses_races_evicted_from_shadow() {
        // Thread 0 writes byte 0, then threads... enough same-granule
        // accesses by thread 1 on *other* bytes evict the record; a racy
        // write to byte 0 then goes unnoticed — the imprecision CLEAN's
        // fixed-layout epochs do not have.
        let mut d = TsanLike::new(3);
        let mut trace = vec![write(0, 0)];
        for i in 1..=SHADOW_CELLS {
            trace.push(write(1, i)); // same granule, disjoint bytes
        }
        trace.push(write(2, 0)); // races with thread 0's write
        let races = run_detector(&mut d, &trace);
        assert!(
            races.iter().all(|r| r.previous != t(0)),
            "the evicted record cannot be reported: {races:?}"
        );
        assert!(d.evictions() >= 1);

        // CLEAN (and FastTrack) catch it.
        let mut clean = crate::clean_engine::CleanEngine::new(3);
        let races = run_detector(&mut clean, &trace);
        assert!(races
            .iter()
            .any(|r| r.previous == t(0) && r.current == t(2)));
    }

    #[test]
    fn disjoint_bytes_do_not_race() {
        let mut d = TsanLike::new(2);
        let races = run_detector(&mut d, &[write(0, 0), write(1, 1)]);
        assert!(races.is_empty());
    }

    #[test]
    fn multi_granule_access_spans() {
        let mut d = TsanLike::new(2);
        let races = run_detector(
            &mut d,
            &[
                write_n(0, 6, 4), // spans granules 0 and 8
                read_n(1, 8, 2),
            ],
        );
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, FullRaceKind::Raw);
    }
}
