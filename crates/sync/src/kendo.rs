//! The Kendo weak-determinism algorithm (Sections 2.4 and 3.3 of the CLEAN
//! paper; Olszewski et al., ASPLOS 2009).
//!
//! Each thread maintains a *deterministic counter* incremented on
//! deterministic events (the paper instruments basic blocks above a size
//! cutoff; here, workloads call [`DetHandle::tick`]). A thread may perform
//! a synchronization operation only when its counter is the minimum across
//! all running threads, with the thread id breaking ties. Since the
//! counters depend only on program progress — never on physical timing —
//! the order in which synchronization operations are granted is the same
//! in every execution.

use clean_core::ThreadId;
use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Error returned when a deterministic wait is abandoned because the poll
/// callback requested an abort — in CLEAN, because another thread raised a
/// race exception and the execution is stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

impl fmt::Display for Aborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("deterministic wait aborted")
    }
}

impl std::error::Error for Aborted {}

/// Published counter value meaning "not participating": the slot's thread
/// is finished, blocked in a synchronization primitive, or was never
/// started. Excluded threads never inhibit other threads' turns.
pub const EXCLUDED: u64 = u64::MAX;

/// Observer/driver of a [`Kendo`] table's deterministic logical clocks.
///
/// A controlled scheduler (the `clean-sched` explorer) installs a hook via
/// [`Kendo::set_hook`] to watch every logical-clock publication and every
/// granted turn, letting it steer exploration by deterministic logical time
/// instead of physical timing and to check that the grant sequence of a
/// race-free program is identical across all explored schedules (the
/// paper's determinism claim, Section 3.3).
///
/// All callbacks default to no-ops; implement only what you need. A
/// published counter equal to [`EXCLUDED`] means the slot left turn
/// arbitration (blocked, finished, or dropped).
pub trait SchedHook: Send + Sync {
    /// A slot was registered with an initial counter.
    fn on_register(&self, tid: ThreadId, initial: u64) {
        let _ = (tid, initial);
    }

    /// A slot published a new counter value (tick, advance, include,
    /// exclude, or a `publish_on_behalf` by a waker).
    fn on_publish(&self, tid: ThreadId, counter: u64) {
        let _ = (tid, counter);
    }

    /// A thread's [`DetHandle::wait_for_turn`] completed: the turn was
    /// granted at this deterministic counter.
    fn on_turn_granted(&self, tid: ThreadId, counter: u64) {
        let _ = (tid, counter);
    }
}

/// One published counter on a cache line of its own.
///
/// Every checked access publishes its owner's counter, so two slots on one
/// line would bounce that line between the two cores on every access.
/// Same layout as `clean_core::StatsShard`.
#[derive(Debug)]
#[repr(align(128))]
struct Slot(AtomicU64);

/// Shared table of published deterministic counters, one slot per possible
/// thread id.
///
/// The table itself is passive; per-thread mutation goes through the owning
/// thread's [`DetHandle`].
pub struct Kendo {
    slots: Box<[Slot]>,
    /// Optional scheduler hook, set at most once per table. An unset hook
    /// costs one atomic load on the publish path.
    hook: OnceLock<Arc<dyn SchedHook>>,
}

impl fmt::Debug for Kendo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kendo")
            .field("slots", &self.slots)
            .field("hooked", &self.hook.get().is_some())
            .finish()
    }
}

impl Kendo {
    /// Creates a counter table with capacity for `max_threads` concurrent
    /// threads. All slots start excluded.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "need at least one thread slot");
        Kendo {
            slots: (0..max_threads)
                .map(|_| Slot(AtomicU64::new(EXCLUDED)))
                .collect(),
            hook: OnceLock::new(),
        }
    }

    /// Capacity of the table.
    pub fn max_threads(&self) -> usize {
        self.slots.len()
    }

    /// Installs a scheduler hook observing every publication and granted
    /// turn. At most one hook per table; returns `false` if one was
    /// already installed (the new hook is dropped).
    pub fn set_hook(&self, hook: Arc<dyn SchedHook>) -> bool {
        self.hook.set(hook).is_ok()
    }

    #[inline]
    pub(crate) fn hook(&self) -> Option<&Arc<dyn SchedHook>> {
        self.hook.get()
    }

    /// Registers a thread slot with an initial counter and returns the
    /// thread-owned handle.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already registered or out of range.
    pub fn register(self: &std::sync::Arc<Self>, tid: ThreadId, initial: u64) -> DetHandle {
        assert!(tid.index() < self.slots.len(), "tid out of range");
        let prev = self.slots[tid.index()].0.swap(initial, Ordering::SeqCst);
        assert_eq!(prev, EXCLUDED, "slot {tid} registered twice");
        if let Some(h) = self.hook() {
            h.on_register(tid, initial);
        }
        DetHandle {
            kendo: std::sync::Arc::clone(self),
            tid,
            counter: initial,
        }
    }

    /// Reads a slot's published counter ([`EXCLUDED`] if not running).
    pub fn published(&self, tid: ThreadId) -> u64 {
        self.slots[tid.index()].0.load(Ordering::Acquire)
    }

    /// Publishes `counter` on behalf of an *excluded* thread that is being
    /// woken (condvar signal, barrier release, join hand-off).
    ///
    /// Without this, a woken thread is invisible to turn arbitration until
    /// it physically notices the wake-up and republishes — a window in
    /// which logically later threads could overtake it, breaking
    /// determinism. The waker closes the window by publishing the resume
    /// counter immediately, under the same lock that ordered the
    /// exclusion. The published value must be ≤ the waiter's true resume
    /// counter (publishing a smaller value only makes others wait longer,
    /// which is always safe); the waiter's own
    /// [`DetHandle::include`] then settles the exact value.
    pub fn publish_on_behalf(&self, tid: ThreadId, counter: u64) {
        self.slots[tid.index()].0.store(counter, Ordering::SeqCst);
        if let Some(h) = self.hook() {
            h.on_publish(tid, counter);
        }
    }

    /// Returns true if it is `tid`'s turn: its counter is strictly smaller
    /// than every other participating counter, with smaller tid winning
    /// ties.
    pub fn is_turn(&self, tid: ThreadId, counter: u64) -> bool {
        for (j, slot) in self.slots.iter().enumerate() {
            if j == tid.index() {
                continue;
            }
            let c = slot.0.load(Ordering::Acquire);
            if c < counter || (c == counter && j < tid.index()) {
                return false;
            }
        }
        true
    }
}

/// A thread's private deterministic clock, bound to one [`Kendo`] slot.
///
/// The handle owns the authoritative counter value; [`DetHandle::tick`] and
/// [`DetHandle::advance`] mutate it and publish the new value so other
/// threads' turn checks observe it.
///
/// Dropping the handle excludes the slot (equivalent to the thread
/// finishing).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clean_core::ThreadId;
/// use clean_sync::Kendo;
///
/// let kendo = Arc::new(Kendo::new(4));
/// let mut h = kendo.register(ThreadId::new(0), 0);
/// h.tick(10);
/// assert_eq!(h.counter(), 10);
/// // Only thread: always its turn.
/// h.wait_for_turn(|| false).unwrap();
/// ```
#[derive(Debug)]
pub struct DetHandle {
    kendo: std::sync::Arc<Kendo>,
    tid: ThreadId,
    counter: u64,
}

impl DetHandle {
    /// The thread id of this handle's slot.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The shared counter table.
    pub fn kendo(&self) -> &std::sync::Arc<Kendo> {
        &self.kendo
    }

    /// Current deterministic counter value.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    #[inline]
    fn publish(&self, value: u64) {
        // Release suffices: counters are monotone per slot, and a stale
        // (smaller) value read by another thread only makes that thread
        // wait longer — it can never grant a turn too early.
        self.kendo.slots[self.tid.index()]
            .0
            .store(value, Ordering::Release);
        if let Some(h) = self.kendo.hook() {
            h.on_publish(self.tid, value);
        }
    }

    /// Advances the counter by `n` deterministic events (the paper's
    /// instrumented basic-block increments).
    #[inline]
    pub fn tick(&mut self, n: u64) {
        self.counter = self.counter.saturating_add(n);
        self.publish(self.counter);
    }

    /// Advances the counter by one — performed after every granted
    /// synchronization operation so the next operation happens at a later
    /// deterministic time.
    #[inline]
    pub fn advance(&mut self) {
        self.tick(1);
    }

    /// Sets the counter to `value` if it is larger than the current value
    /// (used when resuming from barriers/condvars at a deterministic
    /// release time).
    pub fn advance_to(&mut self, value: u64) {
        if value > self.counter {
            self.counter = value;
            self.publish(self.counter);
        }
    }

    /// Spins until it is this thread's turn (its counter is the global
    /// minimum, tid-tie-broken).
    ///
    /// `poll` is invoked on every spin iteration; the CLEAN runtime uses it
    /// to service pending deterministic metadata resets (keeping rollover
    /// rendezvous deadlock-free while threads wait for turns) and to
    /// observe race-exception shutdown: returning `true` from `poll`
    /// abandons the wait.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] when `poll` requests an abort.
    pub fn wait_for_turn<F: FnMut() -> bool>(&self, mut poll: F) -> Result<(), Aborted> {
        let mut spins = 0u32;
        while !self.kendo.is_turn(self.tid, self.counter) {
            if poll() {
                return Err(Aborted);
            }
            spins += 1;
            // Yield aggressively: the thread whose counter must advance
            // may be descheduled (we may even share its core).
            if spins.is_multiple_of(4) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if let Some(h) = self.kendo.hook() {
            h.on_turn_granted(self.tid, self.counter);
        }
        Ok(())
    }

    /// Excludes this thread from turn arbitration (entering a blocking
    /// wait). The counter value is retained locally and republished by
    /// [`include`](Self::include).
    pub fn exclude(&self) {
        self.publish(EXCLUDED);
    }

    /// Re-enters turn arbitration after [`exclude`](Self::exclude),
    /// resuming at the deterministic time `resume_counter` (if it exceeds
    /// the retained counter).
    pub fn include(&mut self, resume_counter: u64) {
        if resume_counter > self.counter {
            self.counter = resume_counter;
        }
        self.publish(self.counter);
    }
}

impl Drop for DetHandle {
    fn drop(&mut self) {
        self.publish(EXCLUDED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_always_has_turn() {
        let k = Arc::new(Kendo::new(4));
        let h = k.register(ThreadId::new(0), 0);
        assert!(k.is_turn(h.tid(), h.counter()));
    }

    #[test]
    fn lower_counter_wins() {
        let k = Arc::new(Kendo::new(2));
        let h0 = k.register(ThreadId::new(0), 5);
        let h1 = k.register(ThreadId::new(1), 3);
        assert!(!k.is_turn(h0.tid(), h0.counter()));
        assert!(k.is_turn(h1.tid(), h1.counter()));
    }

    #[test]
    fn tid_breaks_ties() {
        let k = Arc::new(Kendo::new(2));
        let h0 = k.register(ThreadId::new(0), 7);
        let h1 = k.register(ThreadId::new(1), 7);
        assert!(k.is_turn(h0.tid(), h0.counter()));
        assert!(!k.is_turn(h1.tid(), h1.counter()));
    }

    #[test]
    fn excluded_threads_do_not_block_turns() {
        let k = Arc::new(Kendo::new(3));
        let h0 = k.register(ThreadId::new(0), 100);
        let h1 = k.register(ThreadId::new(1), 1);
        h1.exclude();
        assert!(k.is_turn(h0.tid(), h0.counter()));
        drop(h1);
        assert!(k.is_turn(h0.tid(), h0.counter()));
    }

    #[test]
    fn slots_are_cache_line_padded() {
        assert!(std::mem::align_of::<Slot>() >= 128);
        assert!(std::mem::size_of::<Slot>() >= 128);
    }

    #[test]
    fn tick_publishes() {
        let k = Arc::new(Kendo::new(2));
        let mut h = k.register(ThreadId::new(1), 0);
        h.tick(41);
        h.advance();
        assert_eq!(h.counter(), 42);
        assert_eq!(k.published(ThreadId::new(1)), 42);
    }

    #[test]
    fn include_takes_max() {
        let k = Arc::new(Kendo::new(2));
        let mut h = k.register(ThreadId::new(0), 10);
        h.exclude();
        assert_eq!(k.published(ThreadId::new(0)), EXCLUDED);
        h.include(5);
        assert_eq!(h.counter(), 10, "resume below retained keeps retained");
        h.exclude();
        h.include(20);
        assert_eq!(h.counter(), 20);
        assert_eq!(k.published(ThreadId::new(0)), 20);
    }

    #[test]
    fn advance_to_is_monotone() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 3);
        h.advance_to(2);
        assert_eq!(h.counter(), 3);
        h.advance_to(9);
        assert_eq!(h.counter(), 9);
    }

    #[test]
    fn drop_excludes_slot() {
        let k = Arc::new(Kendo::new(2));
        let h = k.register(ThreadId::new(0), 0);
        drop(h);
        assert_eq!(k.published(ThreadId::new(0)), EXCLUDED);
        // Slot can be re-registered after drop (tid reuse, Section 4.5).
        let h2 = k.register(ThreadId::new(0), 0);
        assert_eq!(k.published(ThreadId::new(0)), 0);
        drop(h2);
    }

    #[test]
    #[should_panic]
    fn double_register_panics() {
        let k = Arc::new(Kendo::new(2));
        let _a = k.register(ThreadId::new(0), 0);
        let _b = k.register(ThreadId::new(0), 0);
    }

    #[test]
    fn wait_for_turn_unblocks_when_other_advances() {
        let k = Arc::new(Kendo::new(2));
        let h0 = k.register(ThreadId::new(0), 10);
        let mut h1 = k.register(ThreadId::new(1), 0);
        let k2 = Arc::clone(&k);
        let waiter = std::thread::spawn(move || {
            h0.wait_for_turn(|| false).unwrap();
            k2.published(ThreadId::new(1))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        h1.tick(100); // now h0 (counter 10) is minimal
        let seen = waiter.join().unwrap();
        assert_eq!(seen, 100);
    }

    #[test]
    fn sched_hook_observes_publishes_and_grants() {
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Recorder {
            publishes: Mutex<Vec<(u16, u64)>>,
            registers: Mutex<Vec<(u16, u64)>>,
            grants: Mutex<Vec<(u16, u64)>>,
        }
        impl SchedHook for Recorder {
            fn on_register(&self, tid: ThreadId, initial: u64) {
                self.registers.lock().push((tid.raw(), initial));
            }
            fn on_publish(&self, tid: ThreadId, counter: u64) {
                self.publishes.lock().push((tid.raw(), counter));
            }
            fn on_turn_granted(&self, tid: ThreadId, counter: u64) {
                self.grants.lock().push((tid.raw(), counter));
            }
        }

        let k = Arc::new(Kendo::new(2));
        let rec = Arc::new(Recorder::default());
        assert!(k.set_hook(Arc::clone(&rec) as Arc<dyn SchedHook>));
        assert!(
            !k.set_hook(Arc::new(Recorder::default())),
            "second hook rejected"
        );

        let mut h = k.register(ThreadId::new(0), 3);
        assert_eq!(*rec.registers.lock(), vec![(0, 3)]);
        h.tick(2);
        h.exclude();
        h.include(10);
        k.publish_on_behalf(ThreadId::new(1), 7);
        assert_eq!(
            *rec.publishes.lock(),
            vec![(0, 5), (0, EXCLUDED), (0, 10), (1, 7)]
        );
        k.publish_on_behalf(ThreadId::new(1), EXCLUDED);
        h.wait_for_turn(|| false).unwrap();
        assert_eq!(*rec.grants.lock(), vec![(0, 10)]);
    }

    #[test]
    fn wait_for_turn_aborts_on_poll_request() {
        let k = Arc::new(Kendo::new(2));
        let h0 = k.register(ThreadId::new(0), 10);
        let _h1 = k.register(ThreadId::new(1), 0); // blocks h0's turn forever
        let mut polls = 0;
        let res = h0.wait_for_turn(|| {
            polls += 1;
            polls > 3
        });
        assert_eq!(res, Err(Aborted));
    }
}
