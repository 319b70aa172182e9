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

use crate::epoch::Epoch;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of epochs per shadow page. 4096 epochs = 16 KiB of metadata
/// covering 4 KiB of data, mirroring an OS page of program data.
pub const PAGE_EPOCHS: usize = 4096;

/// Chunk width of the plan-directed batched compare loop: eight 32-bit
/// epochs, the contents of one 256-bit vector register (Section 4.4's
/// AVX analogy made literal in the access pattern).
pub const BATCH_CHUNK: usize = 8;

/// Process-wide id source for [`ShadowMemory`] instances (starts at 1 so
/// a default-constructed [`ShadowPageCache`] can never spuriously hit).
static SHADOW_UID: AtomicU64 = AtomicU64::new(1);

/// A thread-local memo of the last shadow page a thread resolved.
///
/// Every check-path operation of [`ShadowMemory`] resolves its page
/// through one: the per-thread fast path keeps it in
/// [`ThreadCheckState`](crate::ThreadCheckState) across checks, one-off
/// callers pass a fresh [`ShadowPageCache::new`].
///
/// The cached pointer is only dereferenced when the cache's instance id
/// matches the [`ShadowMemory`] being queried *and* the cached reset
/// generation equals the instance's current generation; on any mismatch
/// the slow path re-resolves and refills. Passing a cache that was filled
/// from a different (even freed) `ShadowMemory` is therefore safe — the
/// instance id (drawn from a process-global counter, never reused) can't
/// match.
#[derive(Debug)]
pub struct ShadowPageCache {
    uid: u64,
    page_idx: usize,
    generation: u64,
    page: *const Page,
}

/// SAFETY: the raw pointer is only dereferenced under a live
/// `&ShadowMemory` borrow whose uid matches, and pages live inline in the
/// instance's never-reallocated directory, so sending the cache between
/// threads cannot create a dangling dereference.
unsafe impl Send for ShadowPageCache {}

impl Default for ShadowPageCache {
    fn default() -> Self {
        ShadowPageCache {
            uid: 0,
            page_idx: 0,
            generation: 0,
            page: std::ptr::null(),
        }
    }
}

impl ShadowPageCache {
    /// Creates an empty cache (first use always misses).
    pub fn new() -> Self {
        Self::default()
    }
}

struct Page {
    /// Generation this page's contents belong to. If it lags the global
    /// generation the page logically holds all-zero epochs.
    generation: AtomicU64,
    /// Guards the stale→fresh transition so exactly one thread clears.
    refresh: Mutex<()>,
    epochs: Box<[AtomicU32]>,
}

impl Page {
    fn new(generation: u64) -> Self {
        let epochs = (0..PAGE_EPOCHS).map(|_| AtomicU32::new(0)).collect();
        Page {
            generation: AtomicU64::new(generation),
            refresh: Mutex::new(()),
            epochs,
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
        for e in self.epochs.iter() {
            e.store(0, Ordering::Relaxed);
        }
        self.generation.store(global_gen, Ordering::Release);
    }

    /// The Section 4.3 CAS on epoch slot `o`; on contention returns the
    /// epoch found there.
    #[inline]
    fn cas(&self, o: usize, expected: Epoch, new: Epoch) -> Result<(), Epoch> {
        self.epochs[o]
            .compare_exchange(
                expected.raw(),
                new.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(Epoch::from_raw)
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
/// use clean_core::{Epoch, ShadowMemory, ShadowPageCache};
/// let shadow = ShadowMemory::new(1 << 20);
/// let mut cache = ShadowPageCache::new();
/// assert_eq!(shadow.load(0x1234, &mut cache), Epoch::ZERO);
/// shadow.store(0x1234, Epoch::from_raw(7));
/// assert_eq!(shadow.load(0x1234, &mut cache), Epoch::from_raw(7));
/// shadow.reset();
/// assert_eq!(shadow.load(0x1234, &mut cache), Epoch::ZERO);
/// ```
pub struct ShadowMemory {
    pages: Box<[OnceLock<Page>]>,
    generation: AtomicU64,
    pages_allocated: AtomicUsize,
    resets: AtomicU64,
    size: usize,
    /// Process-unique instance id keying [`ShadowPageCache`] entries.
    uid: u64,
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
            uid: SHADOW_UID.fetch_add(1, Ordering::Relaxed),
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

    /// Resolves page `p` for reading through `cache`. `None` means the
    /// page is unmaterialized or stale — logically all zero — and such
    /// pages are not cached: they have no stable current-generation
    /// contents to point at.
    #[inline]
    fn page_for_read<'a>(&'a self, p: usize, cache: &mut ShadowPageCache) -> Option<&'a Page> {
        let gen = self.generation.load(Ordering::Acquire);
        if let Some(page) = self.page_hit(cache, p, gen) {
            return Some(page);
        }
        let page = self.pages[p].get()?;
        if page.generation.load(Ordering::Acquire) != gen {
            return None;
        }
        self.fill_cache(cache, p, gen, page);
        Some(page)
    }

    /// Resolves page `p` for writing through `cache`, materializing and
    /// freshening it on a miss (a written page is always cacheable).
    #[inline]
    fn page_for_write<'a>(&'a self, p: usize, cache: &mut ShadowPageCache) -> &'a Page {
        let gen = self.generation.load(Ordering::Acquire);
        if let Some(page) = self.page_hit(cache, p, gen) {
            return page;
        }
        let page = self.pages[p].get_or_init(|| {
            self.pages_allocated.fetch_add(1, Ordering::Relaxed);
            Page::new(gen)
        });
        page.freshen(gen);
        self.fill_cache(cache, p, gen, page);
        page
    }

    /// Returns the cached page if `cache` still describes page `p` of this
    /// instance under the current generation `gen`.
    #[inline]
    fn page_hit<'a>(&'a self, cache: &ShadowPageCache, p: usize, gen: u64) -> Option<&'a Page> {
        if cache.uid == self.uid && cache.page_idx == p && cache.generation == gen {
            // SAFETY: a uid match proves the pointer was taken from this
            // very instance (uids are never reused), and pages live inline
            // in `self.pages`, a boxed slice that is never reallocated, so
            // the pointee is alive for as long as `self` is borrowed. The
            // generation match proves its contents are current: the page
            // held `gen` when cached and page generations only advance
            // together with the global one.
            return Some(unsafe { &*cache.page });
        }
        None
    }

    #[inline]
    fn fill_cache(&self, cache: &mut ShadowPageCache, p: usize, gen: u64, page: &Page) {
        *cache = ShadowPageCache {
            uid: self.uid,
            page_idx: p,
            generation: gen,
            page,
        };
    }

    /// Loads the epoch of data byte `addr` (the `EPOCH_ADDRESS` dereference
    /// of Figure 2, line 2), resolving its page through `cache`: a hit on
    /// the caller's last page skips the directory walk, `OnceLock`
    /// resolution and per-page generation check.
    ///
    /// Never allocates: unmaterialized or stale pages read as
    /// [`Epoch::ZERO`].
    #[inline]
    pub fn load(&self, addr: usize, cache: &mut ShadowPageCache) -> Epoch {
        let (p, o) = self.split(addr);
        match self.page_for_read(p, cache) {
            Some(page) => Epoch::from_raw(page.epochs[o].load(Ordering::Acquire)),
            None => Epoch::ZERO,
        }
    }

    /// Stores `epoch` for data byte `addr`, materializing the page if
    /// needed (Figure 2, line 6 without the atomicity guard).
    pub fn store(&self, addr: usize, epoch: Epoch) {
        let (p, o) = self.split(addr);
        self.page_for_write(p, &mut ShadowPageCache::new()).epochs[o]
            .store(epoch.raw(), Ordering::Release);
    }

    /// Atomically publishes `new` for data byte `addr` only if the current
    /// epoch still equals `expected` — the CAS of Section 4.3 that makes
    /// concurrent WAW checks sound without locks.
    ///
    /// # Errors
    ///
    /// On contention returns the epoch actually found, which the caller
    /// interprets as a concurrently published racy write.
    #[inline]
    pub fn compare_exchange(
        &self,
        addr: usize,
        expected: Epoch,
        new: Epoch,
        cache: &mut ShadowPageCache,
    ) -> Result<(), Epoch> {
        let (p, o) = self.split(addr);
        self.page_for_write(p, cache).cas(o, expected, new)
    }

    /// Returns true if all `len` bytes starting at `addr` currently carry
    /// the same epoch — the common case (>99.7% of accesses in every
    /// benchmark, Section 6.2.3) that enables the single-comparison fast
    /// path of Section 4.4.
    ///
    /// When the range lies within one shadow page the page is resolved
    /// once and the epochs compared back-to-back — the software analogue
    /// of one vector load plus one vector compare. A range crossing a page
    /// boundary is walked byte by byte.
    #[inline]
    pub fn range_uniform(
        &self,
        addr: usize,
        len: usize,
        cache: &mut ShadowPageCache,
    ) -> Option<Epoch> {
        debug_assert!(len > 0);
        let (p, o) = self.split(addr);
        if o + len > PAGE_EPOCHS {
            let first = self.load(addr, cache);
            for i in 1..len {
                if self.load(addr + i, cache) != first {
                    return None;
                }
            }
            return Some(first);
        }
        // Unmaterialized or stale page: the whole range reads zero.
        let Some(page) = self.page_for_read(p, cache) else {
            return Some(Epoch::ZERO);
        };
        let first = page.epochs[o].load(Ordering::Acquire);
        for i in 1..len {
            if page.epochs[o + i].load(Ordering::Acquire) != first {
                return None;
            }
        }
        Some(Epoch::from_raw(first))
    }

    /// [`range_uniform`](Self::range_uniform) restructured as the
    /// plan-directed *batched* compare loop: element epochs are read with
    /// `Relaxed` loads accumulated branch-free over [`BATCH_CHUNK`]-wide
    /// chunks (the shape autovectorizers turn into one vector load plus
    /// one vector compare per chunk), and a single `Acquire` fence at the
    /// end upgrades every element load at once — the ordering cost of one
    /// vector operation instead of `len` scalar acquires.
    ///
    /// Semantically identical to `range_uniform` (page-straddling ranges
    /// take its byte-by-byte walk); only worth calling on spans a
    /// [`CheckPlan`](clean_plan::CheckPlan) marked `batch`, where
    /// contiguous multi-byte checked accesses dominate.
    #[inline]
    pub fn range_uniform_batched(
        &self,
        addr: usize,
        len: usize,
        cache: &mut ShadowPageCache,
    ) -> Option<Epoch> {
        debug_assert!(len > 0);
        let (p, o) = self.split(addr);
        if o + len > PAGE_EPOCHS {
            return self.range_uniform(addr, len, cache);
        }
        let Some(page) = self.page_for_read(p, cache) else {
            return Some(Epoch::ZERO);
        };
        let first = page.epochs[o].load(Ordering::Relaxed);
        let mut i = 1;
        while i < len {
            let end = (i + BATCH_CHUNK).min(len);
            let mut mismatch = false;
            for j in i..end {
                // Branch-free accumulate within the chunk; mismatches
                // only cause an exit at chunk granularity, like a vector
                // compare + movemask test.
                mismatch |= page.epochs[o + j].load(Ordering::Relaxed) != first;
            }
            if mismatch {
                return None;
            }
            i = end;
        }
        // A non-uniform result needs no ordering (the caller re-checks
        // per byte); a uniform one is upgraded here, once.
        std::sync::atomic::fence(Ordering::Acquire);
        Some(Epoch::from_raw(first))
    }

    /// Atomically publishes `new` over `[addr, addr+len)` where every
    /// epoch is expected to still equal `expected` (the wide-CAS publish
    /// of Section 4.4). A range crossing a page boundary is published
    /// byte by byte.
    ///
    /// # Errors
    ///
    /// On the first mismatch returns the offending address and the epoch
    /// found there; earlier bytes remain updated (exactly like a sequence
    /// of hardware wide-CAS operations interrupted by a conflict — the
    /// caller reports the race and the execution stops).
    #[inline]
    pub fn compare_exchange_range(
        &self,
        addr: usize,
        len: usize,
        expected: Epoch,
        new: Epoch,
        cache: &mut ShadowPageCache,
    ) -> Result<(), (usize, Epoch)> {
        debug_assert!(len > 0);
        let (p, o) = self.split(addr);
        if o + len > PAGE_EPOCHS {
            for i in 0..len {
                self.compare_exchange(addr + i, expected, new, cache)
                    .map_err(|found| (addr + i, found))?;
            }
            return Ok(());
        }
        let page = self.page_for_write(p, cache);
        for i in 0..len {
            page.cas(o + i, expected, new)
                .map_err(|found| (addr + i, found))?;
        }
        Ok(())
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
        let mut c = ShadowPageCache::new();
        for addr in [0usize, 1, 4095, 4096, 65535] {
            assert_eq!(s.load(addr, &mut c), Epoch::ZERO);
        }
        assert_eq!(s.stats().pages_allocated, 0, "loads must not allocate");
    }

    #[test]
    fn store_then_load() {
        let s = ShadowMemory::new(8192);
        let mut c = ShadowPageCache::new();
        s.store(5000, Epoch::from_raw(42));
        assert_eq!(s.load(5000, &mut c), Epoch::from_raw(42));
        assert_eq!(s.load(5001, &mut c), Epoch::ZERO);
        assert_eq!(s.stats().pages_allocated, 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        assert!(s
            .compare_exchange(10, Epoch::ZERO, Epoch::from_raw(1), &mut c)
            .is_ok());
        let err = s
            .compare_exchange(10, Epoch::ZERO, Epoch::from_raw(2), &mut c)
            .unwrap_err();
        assert_eq!(err, Epoch::from_raw(1));
        assert_eq!(s.load(10, &mut c), Epoch::from_raw(1));
    }

    #[test]
    fn reset_is_logical_zeroing() {
        let s = ShadowMemory::new(4096 * 3);
        let mut c = ShadowPageCache::new();
        s.store(0, Epoch::from_raw(9));
        s.store(9000, Epoch::from_raw(11));
        s.reset();
        assert_eq!(s.load(0, &mut c), Epoch::ZERO);
        assert_eq!(s.load(9000, &mut c), Epoch::ZERO);
        assert_eq!(s.stats().resets, 1);
        // Writing after a reset works on the freshened page.
        s.store(0, Epoch::from_raw(3));
        assert_eq!(s.load(0, &mut c), Epoch::from_raw(3));
        assert_eq!(s.load(1, &mut c), Epoch::ZERO);
    }

    #[test]
    fn cas_after_reset_sees_zero() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        s.store(7, Epoch::from_raw(5));
        s.reset();
        // The old value is logically gone; CAS against ZERO must succeed.
        assert!(s
            .compare_exchange(7, Epoch::ZERO, Epoch::from_raw(6), &mut c)
            .is_ok());
        assert_eq!(s.load(7, &mut c), Epoch::from_raw(6));
    }

    #[test]
    fn range_uniform_detects_mixed_epochs() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        for i in 0..8 {
            s.store(100 + i, Epoch::from_raw(4));
        }
        assert_eq!(s.range_uniform(100, 8, &mut c), Some(Epoch::from_raw(4)));
        s.store(103, Epoch::from_raw(5));
        assert_eq!(s.range_uniform(100, 8, &mut c), None);
        assert_eq!(s.range_uniform(104, 4, &mut c), Some(Epoch::from_raw(4)));
    }

    #[test]
    fn spans_page_boundary() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let mut c = ShadowPageCache::new();
        let base = PAGE_EPOCHS - 2;
        for i in 0..4 {
            s.store(base + i, Epoch::from_raw(7));
        }
        assert_eq!(s.range_uniform(base, 4, &mut c), Some(Epoch::from_raw(7)));
        s.store(PAGE_EPOCHS, Epoch::from_raw(8));
        assert_eq!(s.range_uniform(base, 4, &mut c), None);
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
                let mut c = ShadowPageCache::new();
                s.compare_exchange(0, Epoch::ZERO, Epoch::from_raw(t), &mut c)
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
        let mut c = ShadowPageCache::new();
        assert_eq!(s.range_uniform(100, 8, &mut c), Some(Epoch::ZERO));
        assert_eq!(s.stats().pages_allocated, 0, "no allocation on reads");
    }

    #[test]
    fn range_uniform_after_reset_is_zero() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        for i in 0..8 {
            s.store(64 + i, Epoch::from_raw(9));
        }
        assert_eq!(s.range_uniform(64, 8, &mut c), Some(Epoch::from_raw(9)));
        // The cache now holds the page; the reset must still win.
        s.reset();
        assert_eq!(s.range_uniform(64, 8, &mut c), Some(Epoch::ZERO));
    }

    #[test]
    fn cas_range_single_page() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        s.compare_exchange_range(16, 8, Epoch::ZERO, Epoch::from_raw(5), &mut c)
            .unwrap();
        assert_eq!(s.range_uniform(16, 8, &mut c), Some(Epoch::from_raw(5)));
        // Mismatch reports the offending address.
        s.store(19, Epoch::from_raw(7));
        let (at, found) = s
            .compare_exchange_range(16, 8, Epoch::from_raw(5), Epoch::from_raw(6), &mut c)
            .unwrap_err();
        assert_eq!(at, 19);
        assert_eq!(found, Epoch::from_raw(7));
        // Bytes before the conflict were updated (wide-CAS sequence).
        assert_eq!(s.load(16, &mut c), Epoch::from_raw(6));
        assert_eq!(s.load(18, &mut c), Epoch::from_raw(6));
        assert_eq!(s.load(20, &mut c), Epoch::from_raw(5));
    }

    #[test]
    fn cas_range_across_pages() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let mut c = ShadowPageCache::new();
        let base = PAGE_EPOCHS - 3;
        s.compare_exchange_range(base, 6, Epoch::ZERO, Epoch::from_raw(4), &mut c)
            .unwrap();
        assert_eq!(s.range_uniform(base, 6, &mut c), Some(Epoch::from_raw(4)));
        assert_eq!(
            s.range_uniform(base, 6, &mut ShadowPageCache::new()),
            Some(Epoch::from_raw(4))
        );
        assert_eq!(s.stats().pages_allocated, 2);
        // A conflict on the second page names its address.
        s.store(PAGE_EPOCHS + 1, Epoch::from_raw(9));
        let (at, found) = s
            .compare_exchange_range(base, 6, Epoch::from_raw(4), Epoch::from_raw(5), &mut c)
            .unwrap_err();
        assert_eq!((at, found), (PAGE_EPOCHS + 1, Epoch::from_raw(9)));
    }

    #[test]
    fn warm_cache_matches_fresh_cache() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let mut c = ShadowPageCache::new();
        assert_eq!(s.load(10, &mut c), Epoch::ZERO);
        s.compare_exchange(10, Epoch::ZERO, Epoch::from_raw(3), &mut c)
            .unwrap();
        assert_eq!(s.load(10, &mut c), Epoch::from_raw(3));
        assert_eq!(s.load(10, &mut ShadowPageCache::new()), Epoch::from_raw(3));
        s.compare_exchange_range(32, 8, Epoch::ZERO, Epoch::from_raw(3), &mut c)
            .unwrap();
        assert_eq!(s.range_uniform(32, 8, &mut c), Some(Epoch::from_raw(3)));
        assert_eq!(
            s.range_uniform(32, 8, &mut ShadowPageCache::new()),
            Some(Epoch::from_raw(3))
        );
        // A hit must still see fresh element values.
        s.store(35, Epoch::from_raw(9));
        assert_eq!(s.range_uniform(32, 8, &mut c), None);
    }

    #[test]
    fn cache_invalidated_by_reset() {
        let s = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        s.compare_exchange(7, Epoch::ZERO, Epoch::from_raw(5), &mut c)
            .unwrap();
        s.reset();
        // Stale cached generation must miss and read the logical zero.
        assert_eq!(s.load(7, &mut c), Epoch::ZERO);
        assert!(s
            .compare_exchange(7, Epoch::ZERO, Epoch::from_raw(6), &mut c)
            .is_ok());
        assert_eq!(s.load(7, &mut ShadowPageCache::new()), Epoch::from_raw(6));
    }

    #[test]
    fn cache_never_hits_across_instances() {
        let a = ShadowMemory::new(4096);
        let b = ShadowMemory::new(4096);
        let mut c = ShadowPageCache::new();
        a.compare_exchange(0, Epoch::ZERO, Epoch::from_raw(8), &mut c)
            .unwrap();
        // Same page index, same generation — different instance: the uid
        // check must force a miss, reading b's (empty) state.
        assert_eq!(b.load(0, &mut c), Epoch::ZERO);
        assert_eq!(a.load(0, &mut ShadowPageCache::new()), Epoch::from_raw(8));
    }

    #[test]
    fn batched_uniform_matches_scalar() {
        let s = ShadowMemory::new(PAGE_EPOCHS * 2);
        let mut c = ShadowPageCache::new();
        // Fresh: zero. Uniform span, mixed span, page-straddling span —
        // the batched path must agree with range_uniform on each.
        assert_eq!(s.range_uniform_batched(100, 64, &mut c), Some(Epoch::ZERO));
        for i in 0..64 {
            s.store(100 + i, Epoch::from_raw(4));
        }
        assert_eq!(
            s.range_uniform_batched(100, 64, &mut c),
            Some(Epoch::from_raw(4))
        );
        assert_eq!(
            s.range_uniform_batched(100, 1, &mut c),
            Some(Epoch::from_raw(4))
        );
        // Mismatch in the middle of a chunk and at a chunk boundary.
        s.store(130, Epoch::from_raw(9));
        assert_eq!(s.range_uniform_batched(100, 64, &mut c), None);
        assert_eq!(s.range_uniform(100, 64, &mut c), None);
        assert_eq!(
            s.range_uniform_batched(100, 30, &mut c),
            Some(Epoch::from_raw(4))
        );
        // Cross-page spans fall back to the scalar walk.
        let base = PAGE_EPOCHS - 3;
        for i in 0..6 {
            s.store(base + i, Epoch::from_raw(7));
        }
        assert_eq!(
            s.range_uniform_batched(base, 6, &mut c),
            Some(Epoch::from_raw(7))
        );
        // A primed cache respects the reset.
        s.reset();
        assert_eq!(s.range_uniform_batched(100, 64, &mut c), Some(Epoch::ZERO));
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
