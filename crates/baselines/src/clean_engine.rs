//! CLEAN as a trace-analysis engine: the Figure 2 check (one epoch per
//! byte, WAW/RAW only) driven by a serialized trace, for head-to-head
//! comparison with the full detectors.

use crate::api::{FoundRace, FullRaceKind, TraceDetector, TraceEvent};
use crate::hb::HbState;
use crate::page_table::PageTable;
use clean_core::{Epoch, EpochLayout};

/// The CLEAN WAW/RAW-only engine.
///
/// Per written byte it stores exactly one 32-bit epoch, and per access it
/// performs exactly one clock comparison per byte — the property that
/// makes CLEAN cheap relative to FastTrack's adaptive read vector clocks.
/// The epochs sit in a sparse table of fixed-size pages, so an access
/// resolves each page it touches once and then walks contiguous cells;
/// reads of memory nobody wrote allocate nothing. An access that covers
/// no byte, or runs past the top of the address space, checks nothing.
///
/// # Examples
///
/// ```
/// use clean_baselines::{CleanEngine, TraceDetector, TraceEvent, FullRaceKind, run_detector};
/// use clean_core::ThreadId;
///
/// let mut det = CleanEngine::new(2);
/// let races = run_detector(&mut det, &[
///     TraceEvent::Write { tid: ThreadId::new(0), addr: 0, size: 4 },
///     TraceEvent::Write { tid: ThreadId::new(1), addr: 0, size: 4 },
/// ]);
/// assert_eq!(races.len(), 1);
/// assert_eq!(races[0].kind, FullRaceKind::Waw);
/// ```
#[derive(Debug)]
pub struct CleanEngine {
    hb: HbState,
    epochs: PageTable<Epoch>,
    /// Cells holding a written (non-zero) epoch.
    written: usize,
    comparisons: u64,
}

impl CleanEngine {
    /// Creates an engine for traces with up to `num_threads` threads.
    pub fn new(num_threads: usize) -> Self {
        CleanEngine {
            hb: HbState::new(num_threads, EpochLayout::paper_default()),
            epochs: PageTable::new(1),
            written: 0,
            comparisons: 0,
        }
    }

    /// Clock comparisons performed so far (the per-access cost metric).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

impl TraceDetector for CleanEngine {
    fn name(&self) -> &'static str {
        "clean"
    }

    fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace> {
        let Some((tid, addr, size, kind)) = self.hb.apply(event) else {
            return Vec::new();
        };
        let is_write = kind == FullRaceKind::Waw;
        let vc = self.hb.vc(tid);
        let new_epoch = self.hb.epoch(tid);
        debug_assert_ne!(new_epoch, Epoch::ZERO, "thread clocks start at 1");
        // Report each racy access once (first racy byte), like a race
        // exception would; a write still publishes to every byte. Only a
        // write creates a page: a byte on no page holds the zero epoch,
        // which is ordered before any access.
        let mut first_racy = None;
        let written = &mut self.written;
        let walked = self.epochs.walk(addr, size, is_write, |lo, _, cells| {
            if first_racy.is_none() {
                if let Some(i) = cells.iter().position(|&cell| vc.races_with(cell)) {
                    first_racy = Some((lo + i, cells[i]));
                }
            }
            if is_write {
                *written += cells.iter().filter(|&&c| c == Epoch::ZERO).count();
                cells.fill(new_epoch);
            }
        });
        if walked {
            self.comparisons += size as u64;
        }
        let race = first_racy.map(|(addr, e)| FoundRace {
            kind,
            addr,
            current: tid,
            previous: self.hb.layout().tid(e),
        });
        Vec::from_iter(race)
    }

    fn reset(&mut self) {
        *self = CleanEngine::new(self.hb.num_threads());
    }

    fn metadata_bytes(&self) -> usize {
        self.hb.metadata_bytes() + self.written * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::run_detector;
    use crate::api::test_events::{read_n, t, write_n};
    use crate::page_table::PAGE;
    use std::collections::HashMap;

    #[test]
    fn detects_waw_and_raw_not_war() {
        let mut d = CleanEngine::new(2);
        // WAR: read by t0 then write by t1 — not detected.
        let races = run_detector(&mut d, &[read_n(0, 0, 4), write_n(1, 0, 4)]);
        assert!(races.is_empty(), "WAR must be missed by design");

        d.reset();
        // RAW: write by t0 then read by t1.
        let races = run_detector(&mut d, &[write_n(0, 8, 4), read_n(1, 8, 4)]);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, FullRaceKind::Raw);
        assert_eq!(races[0].previous, t(0));
    }

    #[test]
    fn lock_discipline_suppresses_races() {
        let mut d = CleanEngine::new(2);
        let races = run_detector(
            &mut d,
            &[
                TraceEvent::Acquire { tid: t(0), lock: 9 },
                write_n(0, 0, 8),
                TraceEvent::Release { tid: t(0), lock: 9 },
                TraceEvent::Acquire { tid: t(1), lock: 9 },
                read_n(1, 0, 8),
                write_n(1, 0, 8),
                TraceEvent::Release { tid: t(1), lock: 9 },
            ],
        );
        assert!(races.is_empty());
    }

    #[test]
    fn one_comparison_per_byte() {
        let mut d = CleanEngine::new(2);
        let _ = d.process(&write_n(0, 0, 8));
        assert_eq!(d.comparisons(), 8);
        let _ = d.process(&read_n(0, 0, 8));
        assert_eq!(d.comparisons(), 16);
    }

    #[test]
    fn metadata_is_four_bytes_per_touched_byte() {
        let mut d = CleanEngine::new(2);
        let base = d.metadata_bytes();
        let _ = d.process(&write_n(0, 100, 16));
        assert_eq!(d.metadata_bytes() - base, 64);
    }

    /// The engine as it was before the paged table — one map entry per
    /// written byte — kept as the reference the table is held to.
    struct Model {
        hb: HbState,
        epochs: HashMap<usize, Epoch>,
        comparisons: u64,
    }

    impl Model {
        fn new(num_threads: usize) -> Self {
            Model {
                hb: HbState::new(num_threads, EpochLayout::paper_default()),
                epochs: HashMap::new(),
                comparisons: 0,
            }
        }

        fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace> {
            let Some((tid, addr, size, kind)) = self.hb.apply(event) else {
                return Vec::new();
            };
            let Some(end) = addr.checked_add(size) else {
                return Vec::new();
            };
            let mut races = Vec::new();
            for a in addr..end {
                let e = self.epochs.get(&a).copied().unwrap_or(Epoch::ZERO);
                self.comparisons += 1;
                if self.hb.vc(tid).races_with(e) {
                    races.push(FoundRace {
                        kind,
                        addr: a,
                        current: tid,
                        previous: self.hb.layout().tid(e),
                    });
                }
                if kind == FullRaceKind::Waw {
                    self.epochs.insert(a, self.hb.epoch(tid));
                }
            }
            races.truncate(1);
            races
        }

        fn metadata_bytes(&self) -> usize {
            self.hb.metadata_bytes() + self.epochs.len() * 4
        }
    }

    /// Where the page holding only reads sits in `random_event`'s
    /// address space.
    const READ_ONLY: usize = 77 * PAGE;

    fn random_event(rng: &mut impl rand::Rng) -> TraceEvent {
        let tid = t(rng.gen_range(0..4u16));
        let lock = rng.gen_range(0..2u32);
        match rng.gen_range(0..16u8) {
            0 => return TraceEvent::Acquire { tid, lock },
            1 => return TraceEvent::Release { tid, lock },
            _ => {}
        }
        // Mostly word-sized accesses; some cover a few pages, some no
        // byte.
        let size = match rng.gen_range(0..8u8) {
            0 => rng.gen_range(PAGE..3 * PAGE),
            1 => 0,
            _ => rng.gen_range(1..=16usize),
        };
        let addr = match rng.gen_range(0..5u8) {
            // Around the boundary of pages 3 and 4.
            0 => 4 * PAGE - rng.gen_range(0..24usize),
            // One of eight pages spread over the address space.
            1 => (rng.gen_range(0..8usize) << 40) + rng.gen_range(0..64usize),
            // The top of the address space; some of these wrap.
            2 => usize::MAX - rng.gen_range(0..40usize),
            3 => {
                let addr = READ_ONLY + rng.gen_range(0..PAGE - 16);
                let size = size.min(16);
                return TraceEvent::Read { tid, addr, size };
            }
            _ => rng.gen_range(0..64usize),
        };
        if rng.gen_range(0..3u8) == 0 {
            TraceEvent::Write { tid, addr, size }
        } else {
            TraceEvent::Read { tid, addr, size }
        }
    }

    #[test]
    fn paged_table_matches_the_per_byte_map_on_random_traces() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let mut races_seen = 0;
        for seed in 0..24 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut engine = CleanEngine::new(4);
            let mut model = Model::new(4);
            for step in 0..1500 {
                if step == 900 {
                    engine.reset();
                    model = Model::new(4);
                }
                let event = random_event(&mut rng);
                let found = engine.process(&event);
                assert_eq!(
                    found,
                    model.process(&event),
                    "seed {seed} step {step}: {event:?}"
                );
                races_seen += found.len();
                assert_eq!(
                    engine.comparisons(),
                    model.comparisons,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    engine.metadata_bytes(),
                    model.metadata_bytes(),
                    "seed {seed} step {step}"
                );
            }
            assert!(!engine.epochs.has_page(READ_ONLY / PAGE));
            assert!(engine.epochs.has_page(usize::MAX / PAGE));
        }
        assert!(
            races_seen > 100,
            "only {races_seen} races: the traces check little"
        );
    }

    #[test]
    fn reads_allocate_nothing_and_a_dense_write_one_page_of_slack() {
        const MIB: usize = 1 << 20;
        let mut d = CleanEngine::new(2);
        for addr in [0, 12_345, 5 << 30, usize::MAX - MIB] {
            let races = d.process(&TraceEvent::Read {
                tid: t(0),
                addr,
                size: MIB,
            });
            assert!(races.is_empty());
        }
        assert_eq!(d.comparisons(), 4 * MIB as u64);
        assert_eq!(d.epochs.pages(), 0, "reads created pages");

        // Not page-aligned: the write's ends share their pages.
        let _ = d.process(&write_n(0, 12_345, MIB));
        let held = d.epochs.pages() * PAGE * 4;
        assert!(
            held <= 4 * MIB + PAGE * 4,
            "{held} bytes of epochs for 1 MiB"
        );
    }
}
