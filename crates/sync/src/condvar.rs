//! Deterministic condition variable.
//!
//! Waiters enqueue at their deterministic timestamp; `signal` wakes the
//! waiter with the *smallest* timestamp (the same order in every run),
//! and `broadcast` wakes all current waiters. For determinism, `signal`
//! and `broadcast` must be invoked while holding the mutex associated
//! with the wait — then the set of enqueued waiters observed by the
//! signal is fixed by the deterministic lock-acquisition order.
//!
//! Resumed waiters continue at the deterministic time `signaller + 1`
//! (or their retained time if larger), then deterministically re-acquire
//! the mutex.

use crate::kendo::{Aborted, DetHandle};
use crate::mutex::{DetMutex, DetStamp};
use clean_core::ThreadId;
use parking_lot::Mutex;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct CondvarState {
    /// Waiters ordered by deterministic enqueue stamp.
    waiters: BTreeMap<DetStamp, ThreadId>,
    /// Woken threads and their deterministic resume counters.
    woken: BTreeMap<ThreadId, u64>,
    /// Total signals delivered (diagnostic).
    signals: u64,
}

/// A deterministic condition variable used with [`DetMutex`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clean_core::ThreadId;
/// use clean_sync::{DetCondvar, DetMutex, Kendo};
///
/// let kendo = Arc::new(Kendo::new(2));
/// let m = Arc::new(DetMutex::new());
/// let cv = Arc::new(DetCondvar::new());
/// let mut waiter = kendo.register(ThreadId::new(0), 0);
/// let mut signaller = kendo.register(ThreadId::new(1), 0);
///
/// let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
/// let t = std::thread::spawn(move || {
///     m2.lock(&mut waiter, || false).unwrap();
///     cv2.wait(&m2, &mut waiter, || false).unwrap();
///     m2.unlock(&mut waiter);
/// });
/// // Signal until the waiter is released (covers the pre-enqueue window).
/// while !t.is_finished() {
///     m.lock(&mut signaller, || false).unwrap();
///     cv.signal(&mut signaller);
///     m.unlock(&mut signaller);
/// }
/// t.join().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct DetCondvar {
    state: Mutex<CondvarState>,
}

impl DetCondvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of threads currently enqueued.
    pub fn waiter_count(&self) -> usize {
        self.state.lock().waiters.len()
    }

    /// Total signals delivered so far.
    pub fn signals_delivered(&self) -> u64 {
        self.state.lock().signals
    }

    /// Atomically releases `mutex` and waits for a signal, then
    /// deterministically re-acquires `mutex` before returning.
    ///
    /// Standard condition-variable discipline applies: the caller must
    /// hold `mutex` and should re-check its predicate in a loop.
    ///
    /// `poll` is invoked while spinning (metadata-reset servicing);
    /// returning `true` from it aborts the wait.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] when `poll` requests an abort. The mutex is
    /// **not** re-acquired in that case and the thread's wait ticket is
    /// withdrawn.
    ///
    /// # Panics
    ///
    /// Panics if the caller does not hold `mutex`.
    pub fn wait<F: FnMut() -> bool>(
        &self,
        mutex: &DetMutex,
        handle: &mut DetHandle,
        mut poll: F,
    ) -> Result<(), Aborted> {
        assert_eq!(
            mutex.owner(),
            Some(handle.tid()),
            "DetCondvar::wait requires holding the mutex"
        );
        let stamp = (handle.counter(), handle.tid());
        self.state.lock().waiters.insert(stamp, handle.tid());
        // Stamp the release while still published, and only then leave
        // turn arbitration. Excluding first would let a logically later
        // locker take its turn while the mutex may still be physically
        // held, so whether its attempt fails (and advances its counter)
        // would be timing. In this order a logically earlier locker
        // fails on the release stamp whether or not the mutex is free
        // yet, and a later one gets no turn until the exclusion, after
        // the release.
        mutex.unlock_for_wait(handle);
        handle.exclude();
        // Spin until a signal names us.
        let resume = loop {
            {
                let mut st = self.state.lock();
                if let Some(resume) = st.woken.remove(&handle.tid()) {
                    break resume;
                }
            }
            if poll() {
                // Withdraw the ticket unless a signal raced with the abort.
                let mut st = self.state.lock();
                if let Some(resume) = st.woken.remove(&handle.tid()) {
                    drop(st);
                    handle.include(resume);
                    return mutex.lock(handle, poll);
                }
                st.waiters.remove(&stamp);
                drop(st);
                handle.include(handle.counter());
                return Err(Aborted);
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        };
        handle.include(resume);
        mutex.lock(handle, poll)
    }

    /// Wakes the waiter with the smallest deterministic enqueue stamp, if
    /// any. Must be called while holding the associated mutex.
    pub fn signal(&self, handle: &mut DetHandle) {
        {
            let mut st = self.state.lock();
            if let Some((&stamp, &tid)) = st.waiters.iter().next() {
                let resume = handle.counter() + 1;
                st.waiters.remove(&stamp);
                st.woken.insert(tid, resume);
                st.signals += 1;
                // Make the woken thread visible to turn arbitration at its
                // resume time immediately (see Kendo::publish_on_behalf).
                handle.kendo().publish_on_behalf(tid, resume);
            }
        }
        handle.advance();
    }

    /// Wakes every current waiter. Must be called while holding the
    /// associated mutex.
    pub fn broadcast(&self, handle: &mut DetHandle) {
        {
            let mut st = self.state.lock();
            let resume = handle.counter() + 1;
            let waiters = std::mem::take(&mut st.waiters);
            st.signals += waiters.len() as u64;
            for (_, tid) in waiters {
                st.woken.insert(tid, resume);
                handle.kendo().publish_on_behalf(tid, resume);
            }
        }
        handle.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendo::Kendo;
    use std::sync::Arc;

    #[test]
    fn signal_wakes_lowest_stamp_first() {
        let k = Arc::new(Kendo::new(3));
        let m = Arc::new(DetMutex::new());
        let cv = Arc::new(DetCondvar::new());
        let order = Arc::new(Mutex::new(Vec::new()));

        let mut joins = Vec::new();
        // Two waiters with distinct deterministic enqueue times; register
        // all before spawning any (late registration is nondeterministic).
        let hs: Vec<_> = [(0u16, 20u64), (1u16, 10u64)]
            .into_iter()
            .map(|(tid, init)| (tid, k.register(ThreadId::new(tid), init)))
            .collect();
        for (tid, mut h) in hs {
            let (m, cv, order) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&order));
            joins.push(std::thread::spawn(move || {
                m.lock(&mut h, || false).unwrap();
                cv.wait(&m, &mut h, || false).unwrap();
                order.lock().push(tid);
                m.unlock(&mut h);
            }));
        }
        // Wait until both are enqueued.
        while cv.waiter_count() < 2 {
            std::thread::yield_now();
        }
        let mut sig = k.register(ThreadId::new(2), 1000);
        for _ in 0..2 {
            m.lock(&mut sig, || false).unwrap();
            cv.signal(&mut sig);
            m.unlock(&mut sig);
        }
        // Exclude the signaller before blocking in join: a live slot with
        // a stale minimal counter would stall everyone's turns.
        drop(sig);
        for j in joins {
            j.join().unwrap();
        }
        // Thread 1 enqueued at stamp (10,1) < (20,0): wakes first.
        assert_eq!(order.lock().clone(), vec![1, 0]);
        assert_eq!(cv.signals_delivered(), 2);
    }

    #[test]
    fn broadcast_wakes_all() {
        let k = Arc::new(Kendo::new(4));
        let m = Arc::new(DetMutex::new());
        let cv = Arc::new(DetCondvar::new());
        let mut joins = Vec::new();
        let hs: Vec<_> = (0..3u16)
            .map(|tid| k.register(ThreadId::new(tid), u64::from(tid)))
            .collect();
        for mut h in hs {
            let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
            joins.push(std::thread::spawn(move || {
                m.lock(&mut h, || false).unwrap();
                cv.wait(&m, &mut h, || false).unwrap();
                m.unlock(&mut h);
                h.counter()
            }));
        }
        while cv.waiter_count() < 3 {
            std::thread::yield_now();
        }
        let mut sig = k.register(ThreadId::new(3), 500);
        m.lock(&mut sig, || false).unwrap();
        cv.broadcast(&mut sig);
        m.unlock(&mut sig);
        drop(sig); // see signal_wakes_lowest_stamp_first
        for j in joins {
            assert!(j.join().unwrap() > 500);
        }
        assert_eq!(cv.waiter_count(), 0);
    }

    #[test]
    fn waiter_releases_the_mutex_before_leaving_arbitration() {
        use crate::kendo::{SchedHook, EXCLUDED};

        /// Records every thread that excluded itself while still owning
        /// the mutex: from then on a logically later locker could take
        /// its turn and find the mutex held or free depending on timing.
        struct ExcludeWhileHolding {
            mutex: Arc<DetMutex>,
            violations: Mutex<Vec<ThreadId>>,
        }
        impl SchedHook for ExcludeWhileHolding {
            fn on_publish(&self, tid: ThreadId, counter: u64) {
                if counter == EXCLUDED && self.mutex.owner() == Some(tid) {
                    self.violations.lock().push(tid);
                }
            }
        }

        let k = Arc::new(Kendo::new(2));
        let m = Arc::new(DetMutex::new());
        let cv = Arc::new(DetCondvar::new());
        let hook = Arc::new(ExcludeWhileHolding {
            mutex: Arc::clone(&m),
            violations: Mutex::new(Vec::new()),
        });
        assert!(k.set_hook(Arc::clone(&hook) as Arc<dyn SchedHook>));
        let mut waiter = k.register(ThreadId::new(0), 0);
        let mut signaller = k.register(ThreadId::new(1), 0);
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            m2.lock(&mut waiter, || false).unwrap();
            cv2.wait(&m2, &mut waiter, || false).unwrap();
            m2.unlock(&mut waiter);
        });
        while !t.is_finished() {
            m.lock(&mut signaller, || false).unwrap();
            cv.signal(&mut signaller);
            m.unlock(&mut signaller);
        }
        t.join().unwrap();
        let violations = hook.violations.lock();
        assert!(
            violations.is_empty(),
            "excluded while holding: {violations:?}"
        );
    }

    #[test]
    fn signal_without_waiters_is_noop() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 0);
        let cv = DetCondvar::new();
        cv.signal(&mut h);
        assert_eq!(cv.signals_delivered(), 0);
    }

    #[test]
    fn wait_aborts_when_poll_requests() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 0);
        let m = DetMutex::new();
        let cv = DetCondvar::new();
        m.lock(&mut h, || false).unwrap();
        let res = cv.wait(&m, &mut h, || true);
        assert_eq!(res, Err(Aborted));
        assert_eq!(cv.waiter_count(), 0, "ticket withdrawn");
        assert!(!m.is_locked(), "mutex not re-acquired on abort");
    }

    #[test]
    #[should_panic]
    fn wait_without_mutex_panics() {
        let k = Arc::new(Kendo::new(1));
        let mut h = k.register(ThreadId::new(0), 0);
        let m = DetMutex::new();
        let cv = DetCondvar::new();
        let _ = cv.wait(&m, &mut h, || false);
    }
}
