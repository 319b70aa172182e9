//! Vector clocks with epoch-valued elements (Sections 2.3 and 4.1).
//!
//! CLEAN maintains one vector clock per running thread and per lock. As the
//! Section 4.1 optimization prescribes, each element stores not a bare
//! scalar clock but a full epoch — the element's thread id in the high bits
//! and its scalar clock in the low bits. The redundant id bits allow the
//! race check of Figure 2 to compare a location's saved epoch directly
//! against the corresponding vector-clock element with a single integer
//! comparison.

use crate::epoch::{Epoch, EpochLayout, ThreadId};
use core::fmt;

/// Error returned when incrementing a vector-clock element would overflow
/// the clock representation and a deterministic metadata reset is required
/// first (Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRolloverError {
    /// The thread whose scalar clock reached the representable maximum.
    pub tid: ThreadId,
}

impl fmt::Display for ClockRolloverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scalar clock of {} rolled over", self.tid)
    }
}

impl std::error::Error for ClockRolloverError {}

/// A vector clock whose elements are epochs (Section 4.1).
///
/// Element `i` always has thread id `i` in its high bits, so ordering two
/// elements of the same index as raw integers orders their scalar clocks.
///
/// # Examples
///
/// ```
/// use clean_core::{EpochLayout, ThreadId, VectorClock};
/// let layout = EpochLayout::default();
/// let mut vc = VectorClock::new(4, layout);
/// vc.increment(ThreadId::new(1)).unwrap();
/// assert_eq!(vc.clock_of(ThreadId::new(1)), 1);
/// assert_eq!(vc.clock_of(ThreadId::new(0)), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct VectorClock {
    layout: EpochLayout,
    /// Raw epoch-valued elements, indexed by thread id.
    elems: Vec<u32>,
}

impl VectorClock {
    /// Creates a zeroed vector clock for `num_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` exceeds the layout's thread capacity.
    pub fn new(num_threads: usize, layout: EpochLayout) -> Self {
        assert!(
            num_threads <= layout.max_threads(),
            "{num_threads} threads exceed layout capacity {}",
            layout.max_threads()
        );
        let elems = (0..num_threads)
            .map(|i| layout.pack(ThreadId::new(i as u16), 0).raw())
            .collect();
        VectorClock { layout, elems }
    }

    /// The layout used to pack elements.
    pub fn layout(&self) -> EpochLayout {
        self.layout
    }

    /// Number of thread slots tracked.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Returns true if the clock tracks no threads.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Returns the epoch-valued element for `tid`.
    #[inline]
    pub fn element(&self, tid: ThreadId) -> Epoch {
        Epoch::from_raw(self.elems[tid.index()])
    }

    /// Returns the scalar clock of `tid`'s element.
    #[inline]
    pub fn clock_of(&self, tid: ThreadId) -> u32 {
        self.layout.clock(self.element(tid))
    }

    /// Increments the element for `tid` ("main element" when `tid` is the
    /// owning thread).
    ///
    /// # Errors
    ///
    /// Returns [`ClockRolloverError`] if the element already holds the
    /// maximum representable clock; the caller must trigger a deterministic
    /// metadata reset (Section 4.5) and retry.
    pub fn increment(&mut self, tid: ThreadId) -> Result<(), ClockRolloverError> {
        let cur = self.clock_of(tid);
        if self.layout.at_rollover(cur) {
            return Err(ClockRolloverError { tid });
        }
        self.elems[tid.index()] = self.layout.pack(tid, cur + 1).raw();
        Ok(())
    }

    /// Returns true if incrementing `tid`'s element would roll over.
    pub fn at_rollover(&self, tid: ThreadId) -> bool {
        self.layout.at_rollover(self.clock_of(tid))
    }

    /// Element-wise maximum: `self := self ⊔ other`.
    ///
    /// This is the join performed on lock acquire and thread join.
    ///
    /// # Panics
    ///
    /// Panics if the two clocks track different numbers of threads or use
    /// different layouts.
    pub fn join(&mut self, other: &VectorClock) {
        assert_eq!(self.layout, other.layout, "layout mismatch in join");
        assert_eq!(
            self.elems.len(),
            other.elems.len(),
            "length mismatch in join"
        );
        for (a, b) in self.elems.iter_mut().zip(other.elems.iter()) {
            // Same index ⇒ same tid bits, so raw comparison orders clocks.
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Returns true if `self` happens-before-or-equals `other`, i.e. every
    /// element of `self` is ≤ its counterpart in `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        assert_eq!(self.elems.len(), other.elems.len(), "length mismatch in le");
        self.elems
            .iter()
            .zip(other.elems.iter())
            .all(|(a, b)| a <= b)
    }

    /// Sets the element for `tid` to exactly `clock`.
    ///
    /// Used when a thread id is reused after join (Section 4.5): the new
    /// thread's own element resumes from the previous occupant's final
    /// clock so its epochs are never confused with the dead thread's.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `clock` exceeds the layout's maximum.
    pub fn set_clock(&mut self, tid: ThreadId, clock: u32) {
        self.elems[tid.index()] = self.layout.pack(tid, clock).raw();
    }

    /// Resets every element's scalar clock to zero (deterministic metadata
    /// reset, Section 4.5).
    pub fn reset(&mut self) {
        for (i, e) in self.elems.iter_mut().enumerate() {
            *e = self.layout.pack(ThreadId::new(i as u16), 0).raw();
        }
    }

    /// Returns the epoch a write by `tid` would publish right now: the
    /// thread's main element (Figure 2, line 4).
    #[inline]
    pub fn write_epoch(&self, tid: ThreadId) -> Epoch {
        self.element(tid)
    }

    /// Performs the Figure 2 line-3 check: does a previously saved epoch
    /// race with this (the accessing thread's) vector clock?
    ///
    /// Returns `true` when `CLOCK(epoch) > vc[TID(epoch)]`, i.e. the saved
    /// write does *not* happen-before the current access — a WAW or RAW
    /// race depending on the access kind.
    #[inline]
    pub fn races_with(&self, epoch: Epoch) -> bool {
        // Section 4.1: tid bits are embedded in elements, so the raw
        // comparison `epoch > elems[tid]` is exactly the clock comparison.
        let e = epoch.without_expanded();
        let idx = self.layout.tid(e).index();
        debug_assert!(idx < self.elems.len(), "epoch tid out of range");
        e.raw() > self.elems[idx]
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC[")?;
        for (i, _) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.clock_of(ThreadId::new(i as u16)))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(n: usize) -> VectorClock {
        VectorClock::new(n, EpochLayout::paper_default())
    }

    #[test]
    fn new_clock_is_all_zero() {
        let c = vc(4);
        for i in 0..4 {
            assert_eq!(c.clock_of(ThreadId::new(i)), 0);
        }
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn increment_bumps_only_target() {
        let mut c = vc(3);
        c.increment(ThreadId::new(1)).unwrap();
        c.increment(ThreadId::new(1)).unwrap();
        assert_eq!(c.clock_of(ThreadId::new(0)), 0);
        assert_eq!(c.clock_of(ThreadId::new(1)), 2);
        assert_eq!(c.clock_of(ThreadId::new(2)), 0);
    }

    #[test]
    fn join_takes_elementwise_max() {
        let mut a = vc(3);
        let mut b = vc(3);
        a.increment(ThreadId::new(0)).unwrap();
        b.increment(ThreadId::new(1)).unwrap();
        b.increment(ThreadId::new(1)).unwrap();
        a.join(&b);
        assert_eq!(a.clock_of(ThreadId::new(0)), 1);
        assert_eq!(a.clock_of(ThreadId::new(1)), 2);
        assert_eq!(a.clock_of(ThreadId::new(2)), 0);
    }

    #[test]
    fn le_is_pointwise() {
        let mut a = vc(2);
        let mut b = vc(2);
        assert!(a.le(&b) && b.le(&a));
        b.increment(ThreadId::new(0)).unwrap();
        assert!(a.le(&b));
        assert!(!b.le(&a));
        a.increment(ThreadId::new(1)).unwrap();
        assert!(!a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn races_with_detects_unordered_write() {
        let mut writer = vc(2);
        writer.increment(ThreadId::new(0)).unwrap(); // clock 1
        let epoch = writer.write_epoch(ThreadId::new(0));

        // A reader that never synchronized with the writer.
        let reader = vc(2);
        assert!(reader.races_with(epoch));

        // After acquiring the writer's clock, no race.
        let mut synced = vc(2);
        synced.join(&writer);
        assert!(!synced.races_with(epoch));
    }

    #[test]
    fn races_with_ignores_expanded_bit() {
        let layout = EpochLayout::paper_default();
        let mut writer = vc(2);
        writer.increment(ThreadId::new(1)).unwrap();
        let e = layout.pack(ThreadId::new(1), 1).with_expanded();
        let mut synced = vc(2);
        synced.join(&writer);
        assert!(!synced.races_with(e));
        let unsynced = vc(2);
        assert!(unsynced.races_with(e));
    }

    #[test]
    fn zero_epoch_never_races() {
        let c = vc(4);
        assert!(!c.races_with(Epoch::ZERO));
    }

    #[test]
    fn rollover_error_at_max_clock() {
        let layout = EpochLayout::with_clock_bits(2); // max clock 3
        let mut c = VectorClock::new(2, layout);
        let t = ThreadId::new(0);
        for _ in 0..3 {
            c.increment(t).unwrap();
        }
        assert!(c.at_rollover(t));
        let err = c.increment(t).unwrap_err();
        assert_eq!(err.tid, t);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn reset_zeroes_clocks() {
        let mut c = vc(3);
        c.increment(ThreadId::new(2)).unwrap();
        c.reset();
        for i in 0..3 {
            assert_eq!(c.clock_of(ThreadId::new(i)), 0);
        }
    }

    #[test]
    #[should_panic]
    fn join_rejects_length_mismatch() {
        let mut a = vc(2);
        let b = vc(3);
        a.join(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", vc(2)).is_empty());
    }
}
