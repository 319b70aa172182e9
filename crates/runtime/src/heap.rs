//! The shared heap — the "potentially shared program data" that CLEAN
//! monitors.
//!
//! The paper instruments every access the compiler cannot prove private
//! (Section 4.1). In this library-level reproduction, shared data lives in
//! an explicit byte-addressed heap and programs access it through the
//! checked accessors of [`ThreadCtx`](crate::ThreadCtx); everything else
//! (Rust locals) plays the role of provably-private registers and stack
//! slots.
//!
//! The heap is byte-addressed but stored as relaxed `AtomicU32` words,
//! little-endian: byte `a` is byte `a % 4` of word `a / 4`. CLEAN
//! deliberately allows WAR-racy executions to complete, so the storage
//! must stay well-defined under concurrent access, and relaxed word
//! operations compile to plain loads and stores on x86, mirroring the
//! paper's setting. An aligned 4- or 8-byte access is one or two word
//! operations. A store that covers only part of a word (a `u8`, a `u16`,
//! or the ends of a misaligned value) merges its bytes in with a
//! compare-and-swap loop, so bytes that other threads store into the same
//! word are never lost. Such neighbours are race-free: the detector
//! checks each byte on its own.

use crate::error::CleanError;
use crate::scalar::Scalar;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// A typed view of a contiguous region of the shared heap.
///
/// The handle is a plain (base, length) descriptor — copying it does not
/// copy data, and all element accesses go through a
/// [`ThreadCtx`](crate::ThreadCtx) so they are race-checked.
#[derive(Debug)]
pub struct SharedArray<T: Scalar> {
    base: usize,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would needlessly bound T.
impl<T: Scalar> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for SharedArray<T> {}

impl<T: Scalar> SharedArray<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of the first element in the shared heap.
    pub fn base_addr(&self) -> usize {
        self.base
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn addr_of(&self, i: usize) -> usize {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * T::SIZE
    }

    /// A sub-view of elements `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to` or `to > len`.
    pub fn slice(&self, from: usize, to: usize) -> SharedArray<T> {
        assert!(from <= to && to <= self.len, "invalid slice {from}..{to}");
        SharedArray {
            base: self.base + from * T::SIZE,
            len: to - from,
            _marker: PhantomData,
        }
    }
}

/// The byte-addressed shared heap: word-backed storage plus a bump
/// allocator.
pub struct SharedHeap {
    words: Box<[AtomicU32]>,
    size: usize,
    cursor: AtomicUsize,
}

impl SharedHeap {
    /// Creates a heap of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "heap must have nonzero size");
        SharedHeap {
            words: (0..size.div_ceil(4)).map(|_| AtomicU32::new(0)).collect(),
            size,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Total heap size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Allocates `bytes` bytes aligned to `align` (zero-initialized; the
    /// heap is never reused, like the paper's monitored malloc regions).
    ///
    /// # Errors
    ///
    /// Returns [`CleanError::OutOfMemory`] when the heap is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&self, bytes: usize, align: usize) -> Result<usize, CleanError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            let base = (cur + align - 1) & !(align - 1);
            let end = base.saturating_add(bytes);
            if end > self.size {
                return Err(CleanError::OutOfMemory {
                    requested: bytes,
                    available: self.size.saturating_sub(base),
                });
            }
            if self
                .cursor
                .compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(base);
            }
        }
    }

    /// Allocates a typed array of `len` elements.
    ///
    /// # Errors
    ///
    /// Returns [`CleanError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_array<T: Scalar>(&self, len: usize) -> Result<SharedArray<T>, CleanError> {
        let base = self.alloc(len * T::SIZE, T::SIZE.max(1))?;
        Ok(SharedArray {
            base,
            len,
            _marker: PhantomData,
        })
    }

    /// Loads the `size`-byte (1..=8) little-endian value at `addr`
    /// (used by the runtime's checked accessors; not race-checked by
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if `[addr, addr + size)` is outside the heap.
    // Forced inline here and in `store`: `size` is a constant at every
    // call site, and only inlined do the width branches fold away.
    #[inline(always)]
    pub(crate) fn load(&self, addr: usize, size: usize) -> u64 {
        self.check_range(addr, size);
        let (w, shift) = (addr / 4, addr % 4 * 8);
        if shift + size * 8 <= 32 {
            let word = self.words[w].load(Ordering::Relaxed);
            return u64::from(word >> shift) & low_mask(size);
        }
        if shift == 0 && size == 8 {
            let lo = self.words[w].load(Ordering::Relaxed);
            let hi = self.words[w + 1].load(Ordering::Relaxed);
            return u64::from(lo) | u64::from(hi) << 32;
        }
        self.load_straddling(w, shift, size)
    }

    /// A misaligned value across two or three words.
    #[inline(never)]
    fn load_straddling(&self, w: usize, shift: usize, size: usize) -> u64 {
        let covered = (shift + size * 8).div_ceil(32);
        let mut acc = 0u128;
        for word in self.words[w..w + covered].iter().rev() {
            acc = acc << 32 | u128::from(word.load(Ordering::Relaxed));
        }
        (acc >> shift) as u64 & low_mask(size)
    }

    /// Stores the low `size` (1..=8) bytes of `value`, little-endian, at
    /// `addr`. Whole words are stored plainly; a partly covered word is
    /// merged with a compare-and-swap so its other bytes are kept.
    ///
    /// # Panics
    ///
    /// Panics if `[addr, addr + size)` is outside the heap.
    #[inline(always)]
    pub(crate) fn store(&self, addr: usize, size: usize, value: u64) {
        self.check_range(addr, size);
        let (w, shift) = (addr / 4, addr % 4 * 8);
        if shift == 0 && size == 4 {
            self.words[w].store(value as u32, Ordering::Relaxed);
        } else if shift == 0 && size == 8 {
            self.words[w].store(value as u32, Ordering::Relaxed);
            self.words[w + 1].store((value >> 32) as u32, Ordering::Relaxed);
        } else if shift + size * 8 <= 32 {
            let mask = (low_mask(size) as u32) << shift;
            self.merge(w, mask, (value as u32) << shift & mask);
        } else {
            self.store_straddling(w, shift, size, value);
        }
    }

    /// A misaligned value across two or three words: each word's piece
    /// stored whole or merged.
    #[inline(never)]
    fn store_straddling(&self, w: usize, shift: usize, size: usize, value: u64) {
        let mut mask = u128::from(low_mask(size)) << shift;
        let mut bits = u128::from(value & low_mask(size)) << shift;
        let mut i = w;
        while mask != 0 {
            let (m, b) = (mask as u32, bits as u32);
            if m == u32::MAX {
                self.words[i].store(b, Ordering::Relaxed);
            } else {
                self.merge(i, m, b);
            }
            mask >>= 32;
            bits >>= 32;
            i += 1;
        }
    }

    /// Replaces the `mask` bytes of word `w` with `bits`, keeping the
    /// rest even if another thread stores them meanwhile.
    #[inline(always)]
    fn merge(&self, w: usize, mask: u32, bits: u32) {
        // Always `Some`, so this never fails.
        let _ = self.words[w].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
            Some(old & !mask | bits)
        });
    }

    #[inline(always)]
    fn check_range(&self, addr: usize, size: usize) {
        debug_assert!((1..=8).contains(&size), "access size {size}");
        assert!(
            addr < self.size && size <= self.size - addr,
            "access {addr}+{size} outside the {}-byte heap",
            self.size
        );
    }
}

/// The low `size` bytes set (`size` in 1..=8).
#[inline]
fn low_mask(size: usize) -> u64 {
    u64::MAX >> (64 - size * 8)
}

impl std::fmt::Debug for SharedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedHeap")
            .field("size", &self.size())
            .field("used", &self.used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let h = SharedHeap::new(1024);
        let a = h.alloc(3, 1).unwrap();
        let b = h.alloc(8, 8).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= 3);
    }

    #[test]
    fn alloc_array_sizes() {
        let h = SharedHeap::new(1024);
        let a: SharedArray<u32> = h.alloc_array(10).unwrap();
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        assert_eq!(a.addr_of(1) - a.addr_of(0), 4);
        assert_eq!(a.base_addr() % 4, 0);
    }

    #[test]
    fn out_of_memory() {
        let h = SharedHeap::new(16);
        assert!(h.alloc(12, 1).is_ok());
        let err = h.alloc(8, 1).unwrap_err();
        assert!(matches!(err, CleanError::OutOfMemory { requested: 8, .. }));
    }

    #[test]
    fn slice_views() {
        let h = SharedHeap::new(1024);
        let a: SharedArray<u64> = h.alloc_array(8).unwrap();
        let s = a.slice(2, 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.addr_of(0), a.addr_of(2));
    }

    #[test]
    #[should_panic]
    fn addr_of_out_of_bounds_panics() {
        let h = SharedHeap::new(64);
        let a: SharedArray<u8> = h.alloc_array(4).unwrap();
        let _ = a.addr_of(4);
    }

    #[test]
    fn every_offset_and_size_matches_a_byte_model() {
        // Little-endian value bytes, 1..=8 of them, at every offset of
        // four words: aligned, sub-word, and straddling two or three words.
        // After each store every load is checked, so a partial store that
        // disturbed a neighbouring byte fails here.
        let h = SharedHeap::new(24);
        let mut model = [0u8; 24];
        let mut next = 0x0102_0304_0506_0708u64;
        for addr in 0..16 {
            for size in 1..=8 {
                next = next.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                h.store(addr, size, next);
                model[addr..addr + size].copy_from_slice(&next.to_le_bytes()[..size]);
                for a in 0..16 {
                    for s in 1..=8 {
                        let mut want = [0u8; 8];
                        want[..s].copy_from_slice(&model[a..a + s]);
                        assert_eq!(
                            h.load(a, s),
                            u64::from_le_bytes(want),
                            "load {a}+{s} after store {addr}+{size}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn access_past_the_end_panics() {
        // 6 bytes occupy two words; byte 6 is inside the second word but
        // outside the heap.
        let h = SharedHeap::new(6);
        h.store(4, 4, 1);
    }

    #[test]
    fn zero_initialized() {
        let h = SharedHeap::new(8);
        assert_eq!(h.load(0, 8), 0);
    }
}
