//! The shadow table every offline engine keeps its per-location state
//! in (Section 4.1: metadata at an address computed from the location's
//! own), and the one rule by which an access's bytes are walked.

use std::collections::HashMap;
use std::fmt;

/// Keys — and so cell groups — per page of the table. Small enough that
/// a lone byte touched on a fresh page costs little, large enough that a
/// burst of accesses resolves its page once.
pub(crate) const PAGE: usize = 512;

/// A sparse table of `width` cells per key, in pages of [`PAGE`] keys.
/// A key is a byte address shifted right by `SHIFT`: one key per byte at
/// 0, one per 8-byte granule at 3. The shift is a constant of the type,
/// not a field: read at run time, it measurably slowed CLEAN's check.
/// Key `k` lives at cell group `k % PAGE` of page `k / PAGE`; a key on a
/// page that was never created holds `C::default()` without storage.
pub(crate) struct PageTable<C, const SHIFT: u32 = 0> {
    width: usize,
    /// The pages, `PAGE * width` cells each. One allocation per page, not
    /// one `Vec` for all: the allocator reuses the pages one replay frees
    /// for the next, where the copies a growing `Vec` leaves behind could
    /// stay resident (DESIGN.md, "One page table for every offline
    /// engine").
    pages: Vec<Box<[C]>>,
    /// Page number to page slot.
    slots: HashMap<usize, usize>,
    /// The page resolved last, as a `slots` entry: accesses cluster, so
    /// most resolves stop here.
    last: Option<(usize, usize)>,
}

impl<C: Copy + Default, const SHIFT: u32> PageTable<C, SHIFT> {
    /// An empty table of `width` cells per key.
    pub(crate) fn new(width: usize) -> Self {
        PageTable {
            width,
            pages: Vec::new(),
            slots: HashMap::new(),
            last: None,
        }
    }

    /// Slot of page number `page`, if it was ever created.
    fn find(&mut self, page: usize) -> Option<usize> {
        match self.last {
            Some((p, slot)) if p == page => Some(slot),
            _ => {
                let slot = *self.slots.get(&page)?;
                self.last = Some((page, slot));
                Some(slot)
            }
        }
    }

    fn find_or_create(&mut self, page: usize) -> usize {
        self.find(page).unwrap_or_else(|| {
            let slot = self.pages.len();
            self.pages
                .push(vec![C::default(); PAGE * self.width].into());
            self.slots.insert(page, slot);
            self.last = Some((page, slot));
            slot
        })
    }

    /// Walks the bytes `[addr, addr + size)` in address order, one page
    /// run at a time: `visit(lo, hi, cells)` gets the run's bytes
    /// `[lo, hi)` and the cells of every key they touch, `width` per
    /// key. With `create`, a page the range touches is created; without
    /// it, a run on a page never created is skipped, its cells being all
    /// `C::default()`. Returns `false`, visiting nothing, for an access
    /// that runs past the top of the address space; one that covers no
    /// byte visits nothing either. Every engine walks an access by this
    /// one rule, so they agree on which bytes an access covers. Inlined:
    /// the engine's loop over a run is the hot loop of every replay.
    #[inline(always)]
    pub(crate) fn walk(
        &mut self,
        addr: usize,
        size: usize,
        create: bool,
        mut visit: impl FnMut(usize, usize, &mut [C]),
    ) -> bool {
        let Some(end) = addr.checked_add(size) else {
            return false;
        };
        let width = self.width;
        let mut lo = addr;
        while lo < end {
            let key = lo >> SHIFT;
            let offset = key % PAGE;
            // Bytes from `lo` to the end of its page, which may be the
            // end of the address space: no sum here can overflow.
            let room = ((PAGE - offset) << SHIFT) - (lo & ((1 << SHIFT) - 1));
            let hi = lo + room.min(end - lo);
            let slot = if create {
                Some(self.find_or_create(key / PAGE))
            } else {
                self.find(key / PAGE)
            };
            if let Some(slot) = slot {
                let keys = ((hi - 1) >> SHIFT) - key + 1;
                let cells = &mut self.pages[slot][offset * width..(offset + keys) * width];
                visit(lo, hi, cells);
            }
            lo = hi;
        }
        true
    }

    /// Pages created so far.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Whether page number `page` was ever created.
    #[cfg(test)]
    pub(crate) fn has_page(&self, page: usize) -> bool {
        self.slots.contains_key(&page)
    }
}

impl<C, const SHIFT: u32> fmt::Debug for PageTable<C, SHIFT> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("width", &self.width)
            .field("shift", &SHIFT)
            .field("pages", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(lo, hi, cells)` a walk visits.
    fn runs<const SHIFT: u32>(
        table: &mut PageTable<u8, SHIFT>,
        addr: usize,
        size: usize,
    ) -> Vec<(usize, usize, usize)> {
        let mut seen = Vec::new();
        table.walk(addr, size, true, |lo, hi, cells| {
            seen.push((lo, hi, cells.len()))
        });
        seen
    }

    #[test]
    fn a_walk_splits_at_pages_and_stops_at_the_top() {
        let mut bytes = PageTable::<u8>::new(1);
        assert_eq!(runs(&mut bytes, 500, 20), [(500, 512, 12), (512, 520, 8)]);
        assert_eq!(runs(&mut bytes, 7, 0), []);
        let top = usize::MAX;
        assert_eq!(runs(&mut bytes, top - 3, 3), [(top - 3, top, 3)]);
        assert!(!bytes.walk(top - 3, 4, true, |_, _, _| panic!("a wrapping access")));
        assert_eq!(bytes.pages(), 3);

        // Two cells per key, a key per 8 bytes: a page is 4 KiB of
        // address space, and a run holds every granule it touches.
        let mut granules = PageTable::<u8, 3>::new(2);
        assert_eq!(
            runs(&mut granules, 4090, 12),
            [(4090, 4096, 2), (4096, 4102, 2)]
        );
        assert_eq!(runs(&mut granules, 3, 14), [(3, 17, 6)]);
        assert_eq!(runs(&mut granules, top - 8, 8), [(top - 8, top, 4)]);
        assert!(granules.has_page(top >> 3 >> 9));
    }

    #[test]
    fn without_create_a_walk_skips_missing_pages_and_keeps_what_it_wrote() {
        let mut table = PageTable::<u8>::new(1);
        assert!(table.walk(0, 2 * PAGE, false, |_, _, _| panic!("no page exists")));
        table.walk(PAGE + 1, 2, true, |_, _, cells| cells.fill(7));
        let mut seen = Vec::new();
        table.walk(0, 2 * PAGE, false, |lo, _, cells| {
            seen.push((lo, cells[..4].to_vec()))
        });
        assert_eq!(seen, [(PAGE, vec![0, 7, 7, 0])]);
        assert_eq!(table.pages(), 1);
    }
}
