//! The epoch table — CLEAN's shadow memory (Sections 4.2 and 4.5).
//!
//! The paper reserves a fixed region of the address space holding one
//! 32-bit epoch per byte of program data, at `epochs_base_address + 4x`.
//! Because the layout is fixed the `EPOCH_ADDRESS` computation is a single
//! shift, and because only touched pages are ever materialized the physical
//! footprint is proportional to the *accessed* shared data.
//!
//! This module reproduces both properties:
//!
//! * [`ShadowMemory`] is a lazily-populated page table: pages are allocated
//!   on first write, so untouched regions cost nothing (Section 4.2).
//! * Deterministic resets (Section 4.5) are O(1): instead of zeroing the
//!   region, a global generation counter is bumped; pages whose generation
//!   is stale read as zero — the software analogue of remapping epoch pages
//!   to the kernel's copy-on-write zero page.
//!
//! **Page layout.** A page holds the epochs of 4096 consecutive data bytes
//! in 2048 `AtomicU64` words, two adjacent bytes per word: byte `o` of the
//! page lives in word `o / 2`, in the low half when `o` is even. Every
//! access to a word — load, store or CAS — is a 64-bit atomic, so no
//! location is ever accessed at two widths. A uniform compare reads one
//! word per two bytes, and the wide publish of Section 4.4 is one CAS
//! `(e, e) → (n, n)` per whole word, with a half-word CAS only at an odd
//! start or end.
//!
//! **Half-word CAS rule.** A CAS on one byte loads its word, fails if
//! *its* half differs from the expected epoch, and otherwise CASes the
//! word with only that half replaced. It retries only when the *other*
//! half changed in between, so a neighbour's publish never causes a false
//! conflict. Any two writes that overlap in a byte both CAS the word
//! holding that byte, so two unordered overlapping writes — however they
//! are aligned — never both succeed (Section 4.3).

use crate::epoch::Epoch;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of epochs per shadow page. 4096 epochs = 16 KiB of metadata
/// covering 4 KiB of data, mirroring an OS page of program data.
pub const PAGE_EPOCHS: usize = 4096;

/// Bit position of byte `o`'s epoch within its shadow word.
#[inline]
fn shift(o: usize) -> u32 {
    32 * (o % 2) as u32
}

/// A shadow word holding `e` for both of its bytes.
#[inline]
fn pair(e: Epoch) -> u64 {
    u64::from(e.raw()) * 0x1_0000_0001
}

/// `word` with byte `o`'s half replaced by `e`.
#[inline]
fn with_half(word: u64, o: usize, e: Epoch) -> u64 {
    word & !(u64::from(u32::MAX) << shift(o)) | u64::from(e.raw()) << shift(o)
}

struct Page {
    /// Generation this page's contents belong to. If it lags the global
    /// generation the page logically holds all-zero epochs.
    generation: AtomicU64,
    /// Guards the stale→fresh transition so exactly one thread clears.
    refresh: Mutex<()>,
    /// Two byte epochs per word: byte `o` is the half at [`shift`]`(o)`
    /// of `words[o / 2]`.
    words: Box<[AtomicU64]>,
}

impl Page {
    fn new(generation: u64) -> Self {
        let words = (0..PAGE_EPOCHS / 2).map(|_| AtomicU64::new(0)).collect();
        Page {
            generation: AtomicU64::new(generation),
            refresh: Mutex::new(()),
            words,
        }
    }

    /// Makes the page's contents valid for `global_gen`, clearing them if
    /// they belong to an older generation.
    fn freshen(&self, global_gen: u64) {
        if self.generation.load(Ordering::Acquire) == global_gen {
            return;
        }
        let _g = self.refresh.lock();
        if self.generation.load(Ordering::Acquire) == global_gen {
            return;
        }
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.generation.store(global_gen, Ordering::Release);
    }

    /// The epoch of byte `o`.
    #[inline]
    fn load(&self, o: usize) -> Epoch {
        Epoch::from_raw((self.words[o / 2].load(Ordering::Acquire) >> shift(o)) as u32)
    }

    /// The epoch all bytes `[o, o+len)` of this page carry, or `None` if
    /// two differ. Each word is loaded once and compared whole against
    /// `pair(first)`; an odd start or end masks off the half of its edge
    /// word that lies outside the range.
    #[inline]
    fn range_uniform(&self, o: usize, len: usize) -> Option<Epoch> {
        let end = o + len;
        let words = &self.words[o / 2..end.div_ceil(2)];
        let mut word = words[0].load(Ordering::Acquire);
        let first = Epoch::from_raw((word >> shift(o)) as u32);
        let want = pair(first);
        let mut mask = !0u64 << shift(o);
        for next in &words[1..] {
            if (word ^ want) & mask != 0 {
                return None;
            }
            word = next.load(Ordering::Acquire);
            mask = !0;
        }
        mask &= !0u64 >> shift(end);
        ((word ^ want) & mask == 0).then_some(first)
    }

    /// The Section 4.3 CAS on byte `o` under the half-word rule (see the
    /// module docs). Returns the number of CASes issued — more than one
    /// only when the word's other byte changed under it — or, when byte
    /// `o` does not hold `expected`, the epoch found there.
    #[inline]
    fn cas(&self, o: usize, expected: Epoch, new: Epoch) -> Result<u64, Epoch> {
        let word = &self.words[o / 2];
        let mut cur = word.load(Ordering::Acquire);
        let mut issued = 0;
        loop {
            let found = Epoch::from_raw((cur >> shift(o)) as u32);
            if found != expected {
                return Err(found);
            }
            issued += 1;
            match word.compare_exchange(
                cur,
                with_half(cur, o, new),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(issued),
                Err(now) => cur = now,
            }
        }
    }

    /// Publishes `new` over bytes `[o, o+len)` of this page, all expected
    /// to hold `expected`: one word CAS `(e, e) → (n, n)` per whole word,
    /// a half-word [`cas`](Self::cas) at an odd start or end. Returns the
    /// number of CASes issued, or the offset and epoch of the first byte
    /// of a failed CAS's word found not holding `expected`.
    #[inline]
    fn cas_range(
        &self,
        o: usize,
        len: usize,
        expected: Epoch,
        new: Epoch,
    ) -> Result<u64, (usize, Epoch)> {
        let end = o + len;
        let mut issued = 0;
        let mut i = o;
        if i % 2 == 1 {
            issued += self.cas(i, expected, new).map_err(|found| (i, found))?;
            i += 1;
        }
        while i + 2 <= end {
            issued += 1;
            if let Err(found) = self.words[i / 2].compare_exchange(
                pair(expected),
                pair(new),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // The first byte of the word not holding `expected`.
                let at = i + usize::from(found as u32 == expected.raw());
                return Err((at, Epoch::from_raw((found >> shift(at)) as u32)));
            }
            i += 2;
        }
        if i < end {
            issued += self.cas(i, expected, new).map_err(|found| (i, found))?;
        }
        Ok(issued)
    }
}

/// Statistics about shadow-memory usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShadowStats {
    /// Pages materialized so far (physical footprint ∝ accessed data).
    pub pages_allocated: usize,
    /// Deterministic resets performed (Section 4.5).
    pub resets: u64,
}

/// The fixed-layout epoch table: one epoch per data byte, lazily allocated,
/// with O(1) deterministic reset.
///
/// Addresses are byte offsets into the program's shared data space.
/// All operations are thread-safe; epoch loads and stores are individually
/// atomic, and [`compare_exchange`](ShadowMemory::compare_exchange) provides
/// the CAS publish required for WAW atomicity (Section 4.3).
///
/// # Examples
///
/// ```
/// use clean_core::{Epoch, ShadowMemory};
/// let shadow = ShadowMemory::new(1 << 20);
/// assert_eq!(shadow.load(0x1234), Epoch::ZERO);
/// shadow.store(0x1234, Epoch::from_raw(7));
/// assert_eq!(shadow.load(0x1234), Epoch::from_raw(7));
/// shadow.reset();
/// assert_eq!(shadow.load(0x1234), Epoch::ZERO);
/// ```
pub struct ShadowMemory {
    pages: Box<[OnceLock<Page>]>,
    generation: AtomicU64,
    pages_allocated: AtomicUsize,
    resets: AtomicU64,
    size: usize,
}

impl ShadowMemory {
    /// Creates a shadow region covering `data_size` bytes of program data.
    ///
    /// Only the page *directory* is allocated eagerly (one slot per 4 KiB of
    /// data); epoch pages themselves appear on first write.
    ///
    /// # Panics
    ///
    /// Panics if `data_size` is zero.
    pub fn new(data_size: usize) -> Self {
        assert!(data_size > 0, "shadow region must cover at least one byte");
        let n_pages = data_size.div_ceil(PAGE_EPOCHS);
        let pages = (0..n_pages).map(|_| OnceLock::new()).collect();
        ShadowMemory {
            pages,
            generation: AtomicU64::new(0),
            pages_allocated: AtomicUsize::new(0),
            resets: AtomicU64::new(0),
            size: data_size,
        }
    }

    /// Size of the covered data region in bytes.
    pub fn data_size(&self) -> usize {
        self.size
    }

    /// Current reset generation (bumped by [`reset`](Self::reset)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    #[inline]
    fn split(&self, addr: usize) -> (usize, usize) {
        debug_assert!(addr < self.size, "address {addr:#x} out of shadow range");
        (addr / PAGE_EPOCHS, addr % PAGE_EPOCHS)
    }

    /// Resolves page `p` for reading. `None` means the page is
    /// unmaterialized or stale — logically all zero. The global generation
    /// is loaded before the page's own, so a reset that completed before
    /// this call is always seen.
    #[inline]
    fn page_for_read(&self, p: usize) -> Option<&Page> {
        let gen = self.generation.load(Ordering::Acquire);
        let page = self.pages[p].get()?;
        (page.generation.load(Ordering::Acquire) == gen).then_some(page)
    }

    /// Resolves page `p` for writing, materializing it on first use and
    /// freshening it if a reset left it stale.
    #[inline]
    fn page_for_write(&self, p: usize) -> &Page {
        let gen = self.generation.load(Ordering::Acquire);
        let page = self.pages[p].get_or_init(|| {
            self.pages_allocated.fetch_add(1, Ordering::Relaxed);
            Page::new(gen)
        });
        page.freshen(gen);
        page
    }

    /// Loads the epoch of data byte `addr` (the `EPOCH_ADDRESS` dereference
    /// of Figure 2, line 2).
    ///
    /// Never allocates: unmaterialized or stale pages read as
    /// [`Epoch::ZERO`].
    #[inline]
    pub fn load(&self, addr: usize) -> Epoch {
        let (p, o) = self.split(addr);
        match self.page_for_read(p) {
            Some(page) => page.load(o),
            None => Epoch::ZERO,
        }
    }

    /// Stores `epoch` for data byte `addr`, materializing the page if
    /// needed (Figure 2, line 6 without the atomicity guard). The word's
    /// other byte is left as it is.
    pub fn store(&self, addr: usize, epoch: Epoch) {
        let (p, o) = self.split(addr);
        let word = &self.page_for_write(p).words[o / 2];
        let _ = word.fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
            Some(with_half(w, o, epoch))
        });
    }

    /// Atomically publishes `new` for data byte `addr` only if the current
    /// epoch still equals `expected` — the CAS of Section 4.3 that makes
    /// concurrent WAW checks sound without locks. Returns the number of
    /// CASes issued: one, unless a publish to the other byte of the same
    /// shadow word forced a retry.
    ///
    /// # Errors
    ///
    /// On contention returns the epoch actually found, which the caller
    /// interprets as a concurrently published racy write.
    #[inline]
    pub fn compare_exchange(&self, addr: usize, expected: Epoch, new: Epoch) -> Result<u64, Epoch> {
        let (p, o) = self.split(addr);
        self.page_for_write(p).cas(o, expected, new)
    }

    /// Returns the epoch all `len` bytes starting at `addr` carry, if they
    /// carry one — the common case (>99.7% of accesses in every benchmark,
    /// Section 6.2.3) that enables the single-comparison fast path of
    /// Section 4.4.
    ///
    /// Each page the range touches is resolved once and compared a whole
    /// shadow word (two bytes) at a time — the software analogue of one
    /// vector load plus one vector compare. A range crossing a page
    /// boundary is compared page by page.
    #[inline]
    pub fn range_uniform(&self, addr: usize, len: usize) -> Option<Epoch> {
        debug_assert!(len > 0);
        let part = |at: usize, n: usize| {
            let (p, o) = self.split(at);
            // Unmaterialized or stale page: the part reads zero.
            match self.page_for_read(p) {
                Some(page) => page.range_uniform(o, n),
                None => Some(Epoch::ZERO),
            }
        };
        let (end, head) = (addr + len, len.min(PAGE_EPOCHS - addr % PAGE_EPOCHS));
        let first = part(addr, head)?;
        // A range crossing a page boundary goes on page by page.
        let mut at = addr + head;
        while at < end {
            let n = (end - at).min(PAGE_EPOCHS);
            if part(at, n)? != first {
                return None;
            }
            at += n;
        }
        Some(first)
    }

    /// Atomically publishes `new` over `[addr, addr+len)` where every
    /// epoch is expected to still equal `expected` (the wide-CAS publish
    /// of Section 4.4): one 64-bit CAS per shadow word, page by page.
    /// Returns the number of CASes issued.
    ///
    /// # Errors
    ///
    /// When a CAS fails, returns the first address of its word that does
    /// not hold `expected` and the epoch found there. Earlier *words*
    /// remain updated, the failed word is left as found (exactly like a
    /// sequence of hardware wide-CAS operations interrupted by a conflict
    /// — the caller reports the race and the execution stops).
    #[inline]
    pub fn compare_exchange_range(
        &self,
        addr: usize,
        len: usize,
        expected: Epoch,
        new: Epoch,
    ) -> Result<u64, (usize, Epoch)> {
        debug_assert!(len > 0);
        let part = |at: usize, n: usize| {
            let (p, o) = self.split(at);
            self.page_for_write(p)
                .cas_range(o, n, expected, new)
                .map_err(|(i, found)| (p * PAGE_EPOCHS + i, found))
        };
        let (end, head) = (addr + len, len.min(PAGE_EPOCHS - addr % PAGE_EPOCHS));
        let mut issued = part(addr, head)?;
        // A range crossing a page boundary goes on page by page.
        let mut at = addr + head;
        while at < end {
            let n = (end - at).min(PAGE_EPOCHS);
            issued += part(at, n)?;
            at += n;
        }
        Ok(issued)
    }

    /// Deterministic O(1) metadata reset (Section 4.5): all epochs revert
    /// to zero by bumping the generation, the analogue of remapping shadow
    /// pages to the copy-on-write zero page.
    ///
    /// Callers must guarantee quiescence (no concurrent checks) — the
    /// runtime does so by parking every thread at a globally deterministic
    /// execution point first.
    pub fn reset(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Usage statistics.
    pub fn stats(&self) -> ShadowStats {
        ShadowStats {
            pages_allocated: self.pages_allocated.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ShadowMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowMemory")
            .field("data_size", &self.size)
            .field("generation", &self.generation())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_shadow_reads_zero() {
        let s = ShadowMemory::new(64 * 1024);
        for addr in [0usize, 1, 4095, 4096, 65535] {
            assert_eq!(s.load(addr), Epoch::ZERO);
        }
        assert_eq!(s.stats().pages_allocated, 0, "loads must not allocate");
    }

    #[test]
    fn store_then_load() {
        let s = ShadowMemory::new(8192);
        s.store(5000, Epoch::from_raw(42));
        assert_eq!(s.load(5000), Epoch::from_raw(42));
        assert_eq!(s.load(5001), Epoch::ZERO);
        assert_eq!(s.stats().pages_allocated, 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let s = ShadowMemory::new(4096);
        assert!(s
            .compare_exchange(10, Epoch::ZERO, Epoch::from_raw(1))
            .is_ok());
        let err = s
            .compare_exchange(10, Epoch::ZERO, Epoch::from_raw(2))
            .unwrap_err();
        assert_eq!(err, Epoch::from_raw(1));
        assert_eq!(s.load(10), Epoch::from_raw(1));
    }

    #[test]
    fn reset_is_logical_zeroing() {
        let s = ShadowMemory::new(4096 * 3);
        s.store(0, Epoch::from_raw(9));
        s.store(9000, Epoch::from_raw(11));
        s.reset();
        assert_eq!(s.load(0), Epoch::ZERO);
        assert_eq!(s.load(9000), Epoch::ZERO);
        assert_eq!(s.stats().resets, 1);
        // Writing after a reset works on the freshened page.
        s.store(0, Epoch::from_raw(3));
        assert_eq!(s.load(0), Epoch::from_raw(3));
        assert_eq!(s.load(1), Epoch::ZERO);
    }

    #[test]
    fn cas_after_reset_sees_zero() {
        let s = ShadowMemory::new(4096);
        s.store(7, Epoch::from_raw(5));
        s.reset();
        // The old value is logically gone; CAS against ZERO must succeed.
        assert!(s
            .compare_exchange(7, Epoch::ZERO, Epoch::from_raw(6))
            .is_ok());
        assert_eq!(s.load(7), Epoch::from_raw(6));
    }

    #[test]
    fn range_uniform_detects_mixed_epochs() {
        let s = ShadowMemory::new(4096);
        for i in 0..8 {
            s.store(100 + i, Epoch::from_raw(4));
        }
        assert_eq!(s.range_uniform(100, 8), Some(Epoch::from_raw(4)));
        s.store(103, Epoch::from_raw(5));
        assert_eq!(s.range_uniform(100, 8), None);
        assert_eq!(s.range_uniform(104, 4), Some(Epoch::from_raw(4)));
    }

    #[test]
    fn spans_page_boundary() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let base = PAGE_EPOCHS - 2;
        for i in 0..4 {
            s.store(base + i, Epoch::from_raw(7));
        }
        assert_eq!(s.range_uniform(base, 4), Some(Epoch::from_raw(7)));
        s.store(PAGE_EPOCHS, Epoch::from_raw(8));
        assert_eq!(s.range_uniform(base, 4), None);
        assert_eq!(s.stats().pages_allocated, 2);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_size() {
        let _ = ShadowMemory::new(0);
    }

    #[test]
    fn concurrent_cas_publishes_exactly_one() {
        let s = Arc::new(ShadowMemory::new(4096));
        let mut handles = Vec::new();
        for t in 1..=8u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.compare_exchange(0, Epoch::ZERO, Epoch::from_raw(t))
                    .is_ok()
            }));
        }
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        assert_eq!(wins, 1, "exactly one CAS may publish");
    }

    #[test]
    fn range_uniform_on_unmaterialized_page_is_zero() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        assert_eq!(s.range_uniform(100, 8), Some(Epoch::ZERO));
        assert_eq!(s.stats().pages_allocated, 0, "no allocation on reads");
    }

    #[test]
    fn range_uniform_after_reset_is_zero() {
        let s = ShadowMemory::new(4096);
        for i in 0..8 {
            s.store(64 + i, Epoch::from_raw(9));
        }
        assert_eq!(s.range_uniform(64, 8), Some(Epoch::from_raw(9)));
        s.reset();
        assert_eq!(s.range_uniform(64, 8), Some(Epoch::ZERO));
    }

    #[test]
    fn cas_range_single_page() {
        let s = ShadowMemory::new(4096);
        s.compare_exchange_range(16, 8, Epoch::ZERO, Epoch::from_raw(5))
            .unwrap();
        assert_eq!(s.range_uniform(16, 8), Some(Epoch::from_raw(5)));
        // Mismatch reports the offending address.
        s.store(19, Epoch::from_raw(7));
        let (at, found) = s
            .compare_exchange_range(16, 8, Epoch::from_raw(5), Epoch::from_raw(6))
            .unwrap_err();
        assert_eq!(at, 19);
        assert_eq!(found, Epoch::from_raw(7));
        // Words before the conflict were updated (wide-CAS sequence); the
        // conflicting word [18, 20) was not, byte 18 included.
        assert_eq!(s.load(16), Epoch::from_raw(6));
        assert_eq!(s.load(17), Epoch::from_raw(6));
        assert_eq!(s.load(18), Epoch::from_raw(5));
        assert_eq!(s.load(20), Epoch::from_raw(5));
    }

    /// Every start parity and every length up to 7, with both neighbours
    /// that share an edge word holding a different epoch: the odd-start
    /// and odd-end half-words must count exactly the bytes in range.
    fn odd_edge_cases() -> impl Iterator<Item = (usize, usize)> {
        [100, 101]
            .into_iter()
            .flat_map(|start| (1..=7).map(move |len| (start, len)))
    }

    #[test]
    fn range_uniform_odd_edges() {
        for (start, len) in odd_edge_cases() {
            let s = ShadowMemory::new(4096);
            s.store(start - 1, Epoch::from_raw(9));
            s.store(start + len, Epoch::from_raw(9));
            for b in start..start + len {
                s.store(b, Epoch::from_raw(4));
            }
            assert_eq!(
                s.range_uniform(start, len),
                Some(Epoch::from_raw(4)),
                "[{start}, +{len})"
            );
            // One differing byte breaks uniformity unless it is the range.
            let odd_one_out = (len == 1).then_some(Epoch::from_raw(5));
            for b in start..start + len {
                s.store(b, Epoch::from_raw(5));
                assert_eq!(s.range_uniform(start, len), odd_one_out, "byte {b}");
                s.store(b, Epoch::from_raw(4));
            }
        }
    }

    #[test]
    fn cas_range_odd_edges() {
        for (start, len) in odd_edge_cases() {
            let s = ShadowMemory::new(4096);
            s.store(start - 1, Epoch::from_raw(9));
            s.store(start + len, Epoch::from_raw(9));
            // One CAS per word the range touches; the neighbours' halves
            // cause no conflict and keep their epoch.
            let words = (start + len).div_ceil(2) - start / 2;
            let issued = s
                .compare_exchange_range(start, len, Epoch::ZERO, Epoch::from_raw(4))
                .unwrap();
            assert_eq!(issued, words as u64, "[{start}, +{len})");
            assert_eq!(s.range_uniform(start, len), Some(Epoch::from_raw(4)));
            assert_eq!(s.load(start - 1), Epoch::from_raw(9));
            assert_eq!(s.load(start + len), Epoch::from_raw(9));
            // A conflict on the last byte names it.
            let last = start + len - 1;
            s.store(last, Epoch::from_raw(7));
            let err = s
                .compare_exchange_range(start, len, Epoch::from_raw(4), Epoch::from_raw(6))
                .unwrap_err();
            assert_eq!(err, (last, Epoch::from_raw(7)), "[{start}, +{len})");
        }
    }

    #[test]
    fn half_word_cas_never_conflicts_with_neighbour() {
        const ROUNDS: u32 = 100_000;
        let s = ShadowMemory::new(4096);
        let align = std::sync::Barrier::new(2);
        let conflicts: Vec<u32> = std::thread::scope(|scope| {
            // Bytes 0 and 1 share one shadow word. The threads realign
            // every 10,000 rounds so that their CASes keep interleaving, and
            // count conflicts instead of panicking, so neither is left
            // waiting at the barrier.
            let threads: Vec<_> = [0usize, 1]
                .into_iter()
                .map(|byte| {
                    let (s, align) = (&s, &align);
                    scope.spawn(move || {
                        (0..ROUNDS)
                            .filter(|&i| {
                                if i % 10_000 == 0 {
                                    align.wait();
                                }
                                let (cur, next) = (Epoch::from_raw(i), Epoch::from_raw(i + 1));
                                s.compare_exchange(byte, cur, next).is_err()
                            })
                            .count() as u32
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(conflicts, [0, 0]);
        assert_eq!(s.load(0), Epoch::from_raw(ROUNDS));
        assert_eq!(s.load(1), Epoch::from_raw(ROUNDS));
    }

    #[test]
    fn overlapping_unaligned_publishes_never_both_succeed() {
        const ROUNDS: usize = 20_000;
        const STRIDE: usize = 16;
        // Thread 0 publishes [r, r+8); thread 1 alternates between
        // [r+1, r+9), whose first word is thread 0's first word, and
        // [r+4, r+8), whose first word is thread 0's third: there, CASing
        // only each range's first word and storing the rest would let
        // both publish.
        let range = |thread: usize, r: usize| match (thread, r % 2) {
            (0, _) => (r * STRIDE, 8),
            (_, 0) => (r * STRIDE + 1, 8),
            _ => (r * STRIDE + 4, 4),
        };
        let s = ShadowMemory::new(ROUNDS * STRIDE);
        let round = std::sync::Barrier::new(2);
        let wins: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|thread| {
                    let (s, round) = (&s, &round);
                    let new = Epoch::from_raw(thread as u32 + 1);
                    scope.spawn(move || {
                        (0..ROUNDS)
                            .map(|r| {
                                let (addr, len) = range(thread, r);
                                round.wait();
                                s.compare_exchange_range(addr, len, Epoch::ZERO, new)
                                    .is_ok()
                            })
                            .collect()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // Both ranges CAS every word they share, in address order, so the
        // first shared word decides: exactly one of them publishes.
        for (r, (a, b)) in wins[0].iter().zip(&wins[1]).enumerate() {
            assert_ne!(a, b, "round {r}");
        }
    }

    #[test]
    fn cas_range_across_pages() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let base = PAGE_EPOCHS - 3;
        s.compare_exchange_range(base, 6, Epoch::ZERO, Epoch::from_raw(4))
            .unwrap();
        assert_eq!(s.range_uniform(base, 6), Some(Epoch::from_raw(4)));
        assert_eq!(s.stats().pages_allocated, 2);
        // A conflict on the second page names its address.
        s.store(PAGE_EPOCHS + 1, Epoch::from_raw(9));
        let (at, found) = s
            .compare_exchange_range(base, 6, Epoch::from_raw(4), Epoch::from_raw(5))
            .unwrap_err();
        assert_eq!((at, found), (PAGE_EPOCHS + 1, Epoch::from_raw(9)));
    }

    #[test]
    fn ranges_over_three_pages() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 3);
        let (base, len) = (100, 2 * PAGE_EPOCHS);
        let issued = s
            .compare_exchange_range(base, len, Epoch::ZERO, Epoch::from_raw(3))
            .unwrap();
        assert_eq!(issued, len as u64 / 2, "one CAS per word");
        assert_eq!(s.range_uniform(base, len), Some(Epoch::from_raw(3)));
        let far = 2 * PAGE_EPOCHS + 50;
        s.store(far, Epoch::from_raw(9));
        assert_eq!(s.range_uniform(base, len), None);
        let err = s
            .compare_exchange_range(base, len, Epoch::from_raw(3), Epoch::from_raw(4))
            .unwrap_err();
        assert_eq!(err, (far, Epoch::from_raw(9)));
        // The parts before the conflict were published.
        assert_eq!(s.load(PAGE_EPOCHS + 7), Epoch::from_raw(4));
    }

    #[test]
    fn generation_visible() {
        let s = ShadowMemory::new(4096);
        assert_eq!(s.generation(), 0);
        s.reset();
        s.reset();
        assert_eq!(s.generation(), 2);
        assert!(!format!("{s:?}").is_empty());
    }
}
