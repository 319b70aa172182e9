//! Deterministic mutual exclusion (Kendo `det_mutex_lock`, Section 2.4).
//!
//! A thread may acquire the lock only (i) on its deterministic turn and
//! (ii) if the lock is *logically* free at the thread's deterministic
//! time: physically unlocked **and** last released at a deterministic
//! timestamp smaller than the acquirer's. Condition (ii) closes the window
//! where a physically early release (by a thread that ran ahead) would be
//! visible to a logically earlier acquirer, which would make the acquire
//! order timing-dependent.
//!
//! On a failed attempt the thread increments its own counter and retries;
//! this lets the current holder (whose next operations carry larger
//! timestamps) obtain turns and eventually release.

use crate::kendo::{Aborted, DetHandle};
use clean_core::ThreadId;
use parking_lot::Mutex;

/// A deterministic timestamp: (deterministic counter, thread id),
/// lexicographically ordered — the same order `wait_for_turn` grants turns.
pub type DetStamp = (u64, ThreadId);

#[derive(Debug)]
struct MutexState {
    /// Holder of the lock, if any.
    owner: Option<ThreadId>,
    /// Deterministic time of the last release.
    last_release: Option<DetStamp>,
    /// Number of acquisitions (diagnostic).
    acquisitions: u64,
}

/// A deterministic mutex.
///
/// This primitive provides *ordering* determinism only; it stores no user
/// data and maintains no vector clock — the CLEAN runtime layers
/// happens-before propagation on top.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clean_core::ThreadId;
/// use clean_sync::{DetMutex, Kendo};
///
/// let kendo = Arc::new(Kendo::new(2));
/// let mut h = kendo.register(ThreadId::new(0), 0);
/// let m = DetMutex::new();
/// m.lock(&mut h, || false).unwrap();
/// assert!(m.is_locked());
/// m.unlock(&mut h);
/// assert!(!m.is_locked());
/// ```
#[derive(Debug)]
pub struct DetMutex {
    state: Mutex<MutexState>,
}

impl DetMutex {
    /// Creates an unlocked deterministic mutex.
    pub fn new() -> Self {
        DetMutex {
            state: Mutex::new(MutexState {
                owner: None,
                last_release: None,
                acquisitions: 0,
            }),
        }
    }

    /// Returns true if the mutex is currently held.
    pub fn is_locked(&self) -> bool {
        self.state.lock().owner.is_some()
    }

    /// Current holder, if any.
    pub fn owner(&self) -> Option<ThreadId> {
        self.state.lock().owner
    }

    /// Total acquisitions performed (diagnostic; deterministic across
    /// runs under deterministic scheduling).
    pub fn acquisitions(&self) -> u64 {
        self.state.lock().acquisitions
    }

    /// Attempts a logically-timed acquire at deterministic time `stamp`.
    /// The caller must currently hold its deterministic turn.
    fn try_acquire(&self, stamp: DetStamp) -> bool {
        let mut st = self.state.lock();
        if st.owner.is_some() {
            return false;
        }
        if let Some(rel) = st.last_release {
            // Physically free, but released at a logically later time than
            // the acquirer: at the acquirer's deterministic time the lock
            // was still held, so the acquire must fail (determinism).
            if rel >= stamp {
                return false;
            }
        }
        st.owner = Some(stamp.1);
        st.acquisitions += 1;
        true
    }

    /// Acquires the mutex deterministically (Kendo `det_mutex_lock`).
    ///
    /// `poll` is forwarded to the turn wait and also invoked between
    /// attempts; the CLEAN runtime uses it to service metadata-reset
    /// rendezvous and to observe shutdown (returning `true` aborts).
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] when `poll` requests an abort; the mutex is
    /// *not* held in that case.
    pub fn lock<F: FnMut() -> bool>(
        &self,
        handle: &mut DetHandle,
        mut poll: F,
    ) -> Result<(), Aborted> {
        loop {
            handle.wait_for_turn(&mut poll)?;
            if self.try_acquire((handle.counter(), handle.tid())) {
                // Advance past the acquire so later operations of this
                // thread carry larger deterministic timestamps.
                handle.advance();
                return Ok(());
            }
            // Failed: let the holder make progress by moving our
            // deterministic time forward, then retry.
            handle.advance();
            if poll() {
                return Err(Aborted);
            }
        }
    }

    /// Releases the mutex, stamping the release with the releaser's
    /// deterministic time (Kendo `det_mutex_unlock`). No turn wait is
    /// needed: a release only ever *enables* logically later acquires.
    ///
    /// # Panics
    ///
    /// Panics if the calling handle does not own the mutex.
    pub fn unlock(&self, handle: &mut DetHandle) {
        {
            let mut st = self.state.lock();
            assert_eq!(
                st.owner,
                Some(handle.tid()),
                "unlock by non-owner {}",
                handle.tid()
            );
            st.owner = None;
            st.last_release = Some((handle.counter(), handle.tid()));
        }
        handle.advance();
    }
}

impl DetMutex {
    /// Releases the mutex on the condition-variable wait path: stamps the
    /// release with the handle's current counter without advancing it, so
    /// the waiter's enqueue stamp and the release stamp coincide. The
    /// caller excludes itself from turn arbitration right after.
    ///
    /// # Panics
    ///
    /// Panics if the calling handle does not own the mutex.
    pub(crate) fn unlock_for_wait(&self, handle: &DetHandle) {
        let mut st = self.state.lock();
        assert_eq!(
            st.owner,
            Some(handle.tid()),
            "unlock by non-owner {}",
            handle.tid()
        );
        st.owner = None;
        st.last_release = Some((handle.counter(), handle.tid()));
    }
}

impl Default for DetMutex {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendo::Kendo;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 0);
        let m = DetMutex::new();
        m.lock(&mut h, || false).unwrap();
        assert!(m.is_locked());
        assert_eq!(m.owner(), Some(ThreadId::new(0)));
        m.unlock(&mut h);
        assert!(!m.is_locked());
        assert_eq!(m.acquisitions(), 1);
    }

    #[test]
    fn reacquire_after_release() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 0);
        let m = DetMutex::new();
        for _ in 0..10 {
            m.lock(&mut h, || false).unwrap();
            m.unlock(&mut h);
        }
        assert_eq!(m.acquisitions(), 10);
    }

    #[test]
    #[should_panic]
    fn unlock_by_non_owner_panics() {
        let k = Arc::new(Kendo::new(2));
        let mut h0 = k.register(ThreadId::new(0), 0);
        let mut h1 = k.register(ThreadId::new(1), 0);
        let m = DetMutex::new();
        m.lock(&mut h0, || false).unwrap();
        m.unlock(&mut h1);
    }

    #[test]
    fn logically_late_release_blocks_early_acquirer() {
        // A release stamped at time 100 must not satisfy an acquire at
        // time 5 even though the lock is physically free.
        let m = DetMutex::new();
        assert!(m.try_acquire((100, ThreadId::new(1))));
        {
            let mut st = m.state.lock();
            st.owner = None;
            st.last_release = Some((100, ThreadId::new(1)));
        }
        assert!(!m.try_acquire((5, ThreadId::new(0))));
        assert!(m.try_acquire((101, ThreadId::new(0))));
    }

    #[test]
    fn acquisition_order_is_deterministic() {
        // Two threads, distinct initial counters: the lower counter must
        // acquire first in every run.
        for run in 0..20 {
            let k = Arc::new(Kendo::new(2));
            let order = Arc::new(Mutex::new(Vec::new()));
            let m = Arc::new(DetMutex::new());
            let mut handles = Vec::new();
            // Register ALL participants before any thread starts (the
            // CLEAN runtime registers children on deterministic spawn):
            // a late registration would let early threads win turns
            // against empty slots nondeterministically.
            let hs: Vec<_> = [(0u16, 5u64), (1u16, 3u64)]
                .into_iter()
                .map(|(tid, init)| (tid, k.register(ThreadId::new(tid), init)))
                .collect();
            for (tid, mut h) in hs {
                let m = Arc::clone(&m);
                let order = Arc::clone(&order);
                handles.push(std::thread::spawn(move || {
                    // Stagger physical start to try to flip the order.
                    if tid == 0 && run % 2 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    m.lock(&mut h, || false).unwrap();
                    order.lock().push(tid);
                    m.unlock(&mut h);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let o = order.lock().clone();
            assert_eq!(o, vec![1, 0], "run {run}: deterministic order violated");
        }
    }
}
