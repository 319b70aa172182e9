//! Shared happens-before bookkeeping for the baseline engines: thread and
//! lock vector clocks updated on synchronization events, exactly as in
//! standard vector-clock race detectors (Section 2.3, [48]).

use crate::api::{FullRaceKind, LockId, TraceEvent};
use clean_core::{Epoch, EpochLayout, ThreadId, VectorClock};
use std::collections::HashMap;

/// Thread/lock vector-clock state driven by a serialized trace.
#[derive(Debug, Clone)]
pub(crate) struct HbState {
    layout: EpochLayout,
    threads: Vec<VectorClock>,
    locks: HashMap<LockId, VectorClock>,
    n: usize,
}

impl HbState {
    pub(crate) fn new(num_threads: usize, layout: EpochLayout) -> Self {
        let mut threads = Vec::with_capacity(num_threads);
        for i in 0..num_threads {
            let mut vc = VectorClock::new(num_threads, layout);
            // Every thread starts its first SFR at clock 1 so initial
            // writes are distinguishable from the zero epoch.
            vc.increment(ThreadId::new(i as u16)).expect("clock 1 fits");
            threads.push(vc);
        }
        HbState {
            layout,
            threads,
            locks: HashMap::new(),
            n: num_threads,
        }
    }

    pub(crate) fn layout(&self) -> EpochLayout {
        self.layout
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.n
    }

    pub(crate) fn vc(&self, tid: ThreadId) -> &VectorClock {
        &self.threads[tid.index()]
    }

    /// The epoch a write by `tid` publishes now.
    pub(crate) fn epoch(&self, tid: ThreadId) -> Epoch {
        self.threads[tid.index()].element(tid)
    }

    /// Applies a synchronization event and returns `None`; returns a
    /// memory event for the engine as `(tid, addr, size, kind)`, `kind`
    /// being the race it makes with an unordered earlier write: WAW for a
    /// write, RAW for a read.
    pub(crate) fn apply(
        &mut self,
        event: &TraceEvent,
    ) -> Option<(ThreadId, usize, usize, FullRaceKind)> {
        match *event {
            TraceEvent::Read { tid, addr, size } => {
                return Some((tid, addr, size, FullRaceKind::Raw))
            }
            TraceEvent::Write { tid, addr, size } => {
                return Some((tid, addr, size, FullRaceKind::Waw))
            }
            TraceEvent::Acquire { tid, lock } => {
                if let Some(l) = self.locks.get(&lock) {
                    self.threads[tid.index()].join(l);
                }
            }
            TraceEvent::Release { tid, lock } => {
                let t = &mut self.threads[tid.index()];
                self.locks
                    .entry(lock)
                    .or_insert_with(|| VectorClock::new(self.n, self.layout))
                    .join(t);
                t.increment(tid).expect("trace clocks stay in range");
            }
            TraceEvent::Fork { parent, child } => {
                let pvc = self.threads[parent.index()].clone();
                let c = &mut self.threads[child.index()];
                c.join(&pvc);
                c.increment(child).expect("trace clocks stay in range");
                self.threads[parent.index()]
                    .increment(parent)
                    .expect("trace clocks stay in range");
            }
            TraceEvent::Join { parent, child } => {
                let cvc = self.threads[child.index()].clone();
                let p = &mut self.threads[parent.index()];
                p.join(&cvc);
                p.increment(parent).expect("trace clocks stay in range");
            }
        }
        None
    }

    pub(crate) fn metadata_bytes(&self) -> usize {
        (self.threads.len() + self.locks.len()) * self.n * 4
    }
}

/// The first thread whose access recorded in `clock` — one epoch per
/// thread, zero for a thread with none — does not happen-before the
/// thread of `vc`.
pub(crate) fn first_unordered(clock: &[Epoch], vc: &VectorClock) -> Option<ThreadId> {
    let t = clock
        .iter()
        .position(|&e| e != Epoch::ZERO && vc.races_with(e))?;
    Some(ThreadId::new(t as u16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_events::{read_n, write_n};

    #[test]
    fn acquire_joins_release() {
        let mut hb = HbState::new(2, EpochLayout::paper_default());
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let e0 = hb.epoch(t0);
        assert!(hb.vc(t1).races_with(e0), "initially unordered");
        hb.apply(&TraceEvent::Release { tid: t0, lock: 1 });
        hb.apply(&TraceEvent::Acquire { tid: t1, lock: 1 });
        assert!(!hb.vc(t1).races_with(e0), "ordered through the lock");
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut hb = HbState::new(2, EpochLayout::paper_default());
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let pre = hb.epoch(t0);
        hb.apply(&TraceEvent::Fork {
            parent: t0,
            child: t1,
        });
        assert!(!hb.vc(t1).races_with(pre));
        // Post-fork parent writes are unordered with the child.
        let post = hb.epoch(t0);
        assert!(hb.vc(t1).races_with(post));
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut hb = HbState::new(2, EpochLayout::paper_default());
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let child_epoch = hb.epoch(t1);
        assert!(hb.vc(t0).races_with(child_epoch));
        hb.apply(&TraceEvent::Join {
            parent: t0,
            child: t1,
        });
        assert!(!hb.vc(t0).races_with(child_epoch));
    }

    #[test]
    fn memory_events_come_back_as_accesses() {
        let mut hb = HbState::new(1, EpochLayout::paper_default());
        let (tid, before) = (ThreadId::new(0), hb.vc(ThreadId::new(0)).clone());
        let access = hb.apply(&read_n(0, 0, 4));
        assert_eq!(access, Some((tid, 0, 4, FullRaceKind::Raw)));
        let access = hb.apply(&write_n(0, 8, 1));
        assert_eq!(access, Some((tid, 8, 1, FullRaceKind::Waw)));
        assert_eq!(*hb.vc(tid), before, "an access moves no clock");
    }
}
