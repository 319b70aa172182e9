//! The CLEAN WAW/RAW race check (Figure 2, Sections 3.2, 4.3 and 4.4).
//!
//! On every potentially shared access the detector:
//!
//! 1. loads the epoch(s) of the accessed bytes from the
//!    [`ShadowMemory`](crate::ShadowMemory),
//! 2. compares the saved clock with the accessing thread's vector-clock
//!    element for the saving thread (Figure 2, line 3) — a greater saved
//!    clock means the previous write does not happen-before the current
//!    access: a WAW race (for writes) or a RAW race (for reads),
//! 3. for writes, publishes the thread's current epoch with a CAS; a failed
//!    CAS means another unordered write was published concurrently — also a
//!    WAW race (Section 4.3).
//!
//! # Access/check ordering contract (Section 4.3)
//!
//! To never misinterpret a RAW as a (undetected) WAR, callers must invoke
//! [`CleanDetector::check_write`] *before* performing the actual store, and
//! [`CleanDetector::check_read`] *immediately after* performing the actual
//! load. The runtime crate's accessors honour this contract.
//!
//! # Fast-path pipeline
//!
//! The `*_with` entry points ([`check_read_with`], [`check_write_with`])
//! additionally thread per-thread [`ThreadCheckState`] through the check:
//! the SFR write-set filter answers provably redundant checks without
//! touching shadow memory at all (the software analogue of the paper's
//! Section 5 LLC-ownership filtering). The plain entry points run the same
//! check bodies without the filter.
//! The filter is sound by construction: it only answers checks whose full
//! Figure 2 outcome is already known (see DESIGN.md, "SFR write-set
//! filter").
//!
//! Either way the check bodies count into plain [`PendingStats`] and touch
//! no shared memory but the shadow epochs: the `*_with` entry points keep
//! the counts in the thread's state until
//! [`drain_check_state`](CleanDetector::drain_check_state), the plain ones
//! flush a stack-local copy at the end of the call.
//!
//! [`check_read_with`]: CleanDetector::check_read_with
//! [`check_write_with`]: CleanDetector::check_write_with

use crate::clock::VectorClock;
use crate::epoch::{Epoch, EpochLayout, ThreadId};
use crate::filter::{PendingStats, ThreadCheckState};
use crate::report::{AccessKind, RaceReport};
use crate::shadow::ShadowMemory;
use crate::stats::{DetectorStats, StatsSnapshot};
use clean_plan::{CompiledPlan, PlanDecision};
use parking_lot::Mutex;
use std::sync::Arc;

/// How concurrent race checks are kept atomic (Section 4.3 vs the
/// lock-based strawman of Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicityMode {
    /// CLEAN's scheme: checks ordered around the actual access, epoch
    /// updates published with compare-and-swap — no locks on the access
    /// path (Section 4.3).
    LockFree,
    /// The conventional scheme CLEAN avoids: a striped lock serializes
    /// every check for the same address region. Correct but slow — the
    /// paper cites >40% of total detection overhead going to locking in
    /// such designs; the `ablation_locking` experiment quantifies it here.
    PerCheckLocking,
}

/// Number of stripes in the lock table of
/// [`AtomicityMode::PerCheckLocking`].
const LOCK_STRIPES: usize = 64;

/// Configuration of the software race detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Epoch bit layout (clock width is the Table 1 knob).
    pub layout: EpochLayout,
    /// Enables the Section 4.4 multi-byte optimization: vector-compare all
    /// epochs of an access and, in the common all-equal case, perform a
    /// single race check (and wide-CAS updates). Disabling it forces the
    /// naive one-check-per-byte behaviour measured in Figure 8.
    pub vectorized: bool,
    /// Atomicity scheme for concurrent checks (ablation knob).
    pub atomicity: AtomicityMode,
    /// Optional compiled static check plan consumed by the `*_with`
    /// entry points. Per planned range the detector elides provably
    /// thread-private checks (guarded: only the witness owner skips;
    /// foreign threads take the full check), routes strided sweeps
    /// through growable coalesced filter ranges. `None` (the default)
    /// changes nothing.
    pub check_plan: Option<Arc<CompiledPlan>>,
}

impl DetectorConfig {
    /// The paper's default software configuration.
    pub fn new() -> Self {
        DetectorConfig {
            layout: EpochLayout::paper_default(),
            vectorized: true,
            atomicity: AtomicityMode::LockFree,
            check_plan: None,
        }
    }

    /// Sets the epoch layout.
    pub fn layout(mut self, layout: EpochLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Enables or disables the multi-byte vectorization (Figure 8).
    pub fn vectorized(mut self, on: bool) -> Self {
        self.vectorized = on;
        self
    }

    /// Selects the atomicity scheme (the locking-ablation knob).
    pub fn atomicity(mut self, mode: AtomicityMode) -> Self {
        self.atomicity = mode;
        self
    }

    /// Installs (or clears) the compiled static check plan consumed by
    /// the `*_with` entry points. Plans only compile after validation,
    /// so an unsound plan can never reach this knob.
    pub fn check_plan(mut self, plan: Option<Arc<CompiledPlan>>) -> Self {
        self.check_plan = plan;
        self
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The precise WAW/RAW race detector of CLEAN.
///
/// One detector instance is shared by all threads of a monitored program;
/// every method is safe to call concurrently. Races are returned as
/// [`RaceReport`] errors — the caller (the runtime) converts the first one
/// into a program-stopping race exception.
///
/// # Examples
///
/// Detecting a WAW race between two unsynchronized threads:
///
/// ```
/// use clean_core::{CleanDetector, DetectorConfig, ThreadId, VectorClock, EpochLayout};
///
/// let det = CleanDetector::new(1024, DetectorConfig::new());
/// let layout = EpochLayout::default();
/// let t0 = ThreadId::new(0);
/// let t1 = ThreadId::new(1);
/// let mut vc0 = VectorClock::new(2, layout);
/// let vc1 = VectorClock::new(2, layout);
///
/// vc0.increment(t0).unwrap(); // thread 0 passed a sync operation
/// det.check_write(&vc0, t0, 0x10, 4).unwrap(); // first write: fine
/// let race = det.check_write(&vc1, t1, 0x10, 4).unwrap_err(); // unordered!
/// assert_eq!(race.kind, clean_core::RaceKind::WriteAfterWrite);
/// ```
pub struct CleanDetector {
    shadow: ShadowMemory,
    config: DetectorConfig,
    stats: DetectorStats,
    /// Striped check locks, used only under `PerCheckLocking`.
    check_locks: Box<[Mutex<()>]>,
}

impl CleanDetector {
    /// Creates a detector covering `data_size` bytes of shared program
    /// data.
    pub fn new(data_size: usize, config: DetectorConfig) -> Self {
        CleanDetector {
            shadow: ShadowMemory::new(data_size),
            config,
            stats: DetectorStats::new(),
            check_locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Serializes a check under the striped lock table when the
    /// lock-based atomicity ablation is selected; otherwise free.
    #[inline]
    fn check_guard(&self, addr: usize) -> Option<parking_lot::MutexGuard<'_, ()>> {
        match self.config.atomicity {
            AtomicityMode::LockFree => None,
            AtomicityMode::PerCheckLocking => {
                Some(self.check_locks[(addr / 8) % LOCK_STRIPES].lock())
            }
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config.clone()
    }

    /// The decision of the installed check plan for `[addr, addr+size)`,
    /// if a plan is installed and a range fully contains the access.
    #[inline]
    fn plan_decision(&self, addr: usize, size: usize) -> Option<PlanDecision> {
        self.config.check_plan.as_ref()?.lookup(addr, size)
    }

    /// The epoch layout in use.
    pub fn layout(&self) -> EpochLayout {
        self.config.layout
    }

    /// Read access to the underlying epoch table.
    pub fn shadow(&self) -> &ShadowMemory {
        &self.shadow
    }

    /// Snapshot of the accumulated statistics (summed across shards).
    ///
    /// Counts still pending in a thread's [`ThreadCheckState`] are not
    /// included: the snapshot under-reports until that thread's next
    /// [`drain_check_state`](Self::drain_check_state). The stateless
    /// entry points leave nothing pending.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        pending: &mut PendingStats,
        kind: AccessKind,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
        previous: Epoch,
    ) -> RaceReport {
        pending.races_reported += 1;
        RaceReport {
            kind: kind.race_kind(),
            addr,
            size,
            current_tid: tid,
            current_clock: vc.clock_of(tid),
            previous: previous.without_expanded(),
            layout: self.config.layout,
        }
    }

    /// Checks a shared read of `size` bytes at `addr`.
    ///
    /// Must be called immediately *after* the actual load (Section 4.3).
    /// Reads never update metadata (Section 3.2) — one of the sources of
    /// CLEAN's efficiency relative to full FastTrack.
    ///
    /// # Errors
    ///
    /// Returns a [`RaceReport`] with [`RaceKind::ReadAfterWrite`] if the
    /// last write to any accessed byte does not happen-before this read.
    ///
    /// [`RaceKind::ReadAfterWrite`]: crate::RaceKind::ReadAfterWrite
    pub fn check_read(
        &self,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
    ) -> Result<(), RaceReport> {
        debug_assert!(size > 0);
        let mut pending = PendingStats {
            reads_checked: 1,
            bytes_checked: size as u64,
            ..PendingStats::default()
        };
        let _guard = self.check_guard(addr);
        let result = self.read_body(&mut pending, vc, tid, addr, size);
        self.stats.absorb(tid.index(), &pending);
        result
    }

    /// [`check_read`](Self::check_read) through the per-thread fast-path
    /// state: a write-set filter hit answers the check without touching
    /// shadow memory; otherwise the full check runs. Verdicts are identical
    /// to the plain entry point.
    ///
    /// # Errors
    ///
    /// Same contract as [`check_read`](Self::check_read).
    pub fn check_read_with(
        &self,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
        state: &mut ThreadCheckState,
    ) -> Result<(), RaceReport> {
        debug_assert!(size > 0);
        let decision = self.plan_decision(addr, size);
        if let Some(PlanDecision::Elide { owner }) = decision {
            // The plan's witness proves the range thread-private to
            // `owner` for the planned execution; the dynamic guard keeps
            // every *other* thread on the full check path.
            if u32::from(tid.raw()) == owner {
                state.pending.plan_elided += 1;
                return Ok(());
            }
        }
        state.pending.reads_checked += 1;
        state.pending.bytes_checked += size as u64;
        let epoch_raw = vc.write_epoch(tid).raw();
        let generation = self.shadow.generation();
        if state.filter.covers(addr, size, epoch_raw, generation)
            || (matches!(decision, Some(PlanDecision::Coalesce))
                && state.filter.covers_range(addr, size, epoch_raw, generation))
        {
            // Every covered byte still holds this thread's current epoch,
            // so the read trivially happens-after the last write. The hit
            // path touches no shared state at all.
            state.pending.filter_hits += 1;
            return Ok(());
        }
        let _guard = self.check_guard(addr);
        self.read_body(&mut state.pending, vc, tid, addr, size)
    }

    fn read_body(
        &self,
        pending: &mut PendingStats,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
    ) -> Result<(), RaceReport> {
        if self.config.vectorized && size > 1 {
            // Section 4.4: vector-load all epochs; if they are all equal it
            // suffices to test one (there is a race on all bytes or none).
            if let Some(e) = self.shadow.range_uniform(addr, size) {
                pending.uniform_fast_path += 1;
                if vc.races_with(e) {
                    return Err(self.report(pending, AccessKind::Read, vc, tid, addr, size, e));
                }
                return Ok(());
            }
            pending.per_byte_slow_path += 1;
        }

        for i in 0..size {
            let e = self.shadow.load(addr + i);
            if vc.races_with(e) {
                return Err(self.report(pending, AccessKind::Read, vc, tid, addr + i, 1, e));
            }
        }
        Ok(())
    }

    /// Checks a shared write of `size` bytes at `addr` and publishes the
    /// thread's epoch for every written byte.
    ///
    /// Must be called *before* the actual store (Section 4.3). The epoch
    /// update uses compare-and-swap so that two concurrent, unordered
    /// writes cannot both pass silently: the loser's CAS fails and the
    /// WAW race is reported (Section 4.3).
    ///
    /// # Errors
    ///
    /// Returns a [`RaceReport`] with [`RaceKind::WriteAfterWrite`] if the
    /// last write to any accessed byte does not happen-before this write,
    /// or if a concurrent unordered write is caught by the CAS.
    ///
    /// [`RaceKind::WriteAfterWrite`]: crate::RaceKind::WriteAfterWrite
    pub fn check_write(
        &self,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
    ) -> Result<(), RaceReport> {
        debug_assert!(size > 0);
        let mut pending = PendingStats {
            writes_checked: 1,
            bytes_checked: size as u64,
            ..PendingStats::default()
        };
        let _guard = self.check_guard(addr);
        let new_epoch = vc.write_epoch(tid);
        let result = self.write_body(&mut pending, vc, tid, addr, size, new_epoch);
        self.stats.absorb(tid.index(), &pending);
        result
    }

    /// [`check_write`](Self::check_write) through the per-thread fast-path
    /// state. On a filter hit the whole check (and the already-current
    /// epoch publication) is skipped; on a successful full check the
    /// published range is recorded in the filter for the rest of the SFR.
    /// Verdicts are identical to the plain entry point.
    ///
    /// # Errors
    ///
    /// Same contract as [`check_write`](Self::check_write).
    pub fn check_write_with(
        &self,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
        state: &mut ThreadCheckState,
    ) -> Result<(), RaceReport> {
        debug_assert!(size > 0);
        let decision = self.plan_decision(addr, size);
        if let Some(PlanDecision::Elide { owner }) = decision {
            // Witness-backed thread-private range: the owner's write can
            // neither race nor be raced against within the planned
            // execution, so both the check and the epoch publication are
            // skipped. Foreign threads fall through to the full check.
            if u32::from(tid.raw()) == owner {
                state.pending.plan_elided += 1;
                return Ok(());
            }
        }
        state.pending.writes_checked += 1;
        state.pending.bytes_checked += size as u64;
        let new_epoch = vc.write_epoch(tid);
        let generation = self.shadow.generation();
        let coalesce = matches!(decision, Some(PlanDecision::Coalesce));
        if state.filter.covers(addr, size, new_epoch.raw(), generation)
            || (coalesce
                && state
                    .filter
                    .covers_range(addr, size, new_epoch.raw(), generation))
        {
            // Every covered byte already holds exactly `new_epoch`: the
            // full check would pass and take the Figure 2 line 5 skip.
            state.pending.filter_hits += 1;
            return Ok(());
        }
        let _guard = self.check_guard(addr);
        let result = self.write_body(&mut state.pending, vc, tid, addr, size, new_epoch);
        if result.is_ok() {
            // The full check passed: all bytes now hold `new_epoch` under
            // `generation`, which is exactly the filter's validity claim.
            // Plan-coalesced sweeps record into the growable range table
            // so the *next* stride extends the entry instead of evicting
            // a direct-mapped slot.
            if coalesce {
                state
                    .filter
                    .insert_coalesced(addr, size, new_epoch.raw(), generation);
            } else {
                state.filter.insert(addr, size, new_epoch.raw(), generation);
            }
        }
        result
    }

    fn write_body(
        &self,
        pending: &mut PendingStats,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
        new_epoch: Epoch,
    ) -> Result<(), RaceReport> {
        if self.config.vectorized && size > 1 {
            if let Some(e) = self.shadow.range_uniform(addr, size) {
                pending.uniform_fast_path += 1;
                if vc.races_with(e) {
                    return Err(self.report(pending, AccessKind::Write, vc, tid, addr, size, e));
                }
                if e == new_epoch {
                    // Figure 2 line 5: update not needed.
                    pending.update_skipped += 1;
                    return Ok(());
                }
                // Wide-CAS publish: one 64-bit CAS per two-byte shadow
                // word (Section 4.4).
                return self.publish_range(pending, vc, tid, addr, size, e, new_epoch);
            }
            pending.per_byte_slow_path += 1;
        }

        for i in 0..size {
            let e = self.shadow.load(addr + i);
            if vc.races_with(e) {
                return Err(self.report(pending, AccessKind::Write, vc, tid, addr + i, 1, e));
            }
            if e == new_epoch {
                pending.update_skipped += 1;
                continue;
            }
            self.publish_range(pending, vc, tid, addr + i, 1, e, new_epoch)?;
        }
        Ok(())
    }

    /// Publishes `new_epoch` over `[addr, addr+size)` whose epochs were all
    /// observed equal to `expected`.
    #[allow(clippy::too_many_arguments)]
    fn publish_range(
        &self,
        pending: &mut PendingStats,
        vc: &VectorClock,
        tid: ThreadId,
        addr: usize,
        size: usize,
        expected: Epoch,
        new_epoch: Epoch,
    ) -> Result<(), RaceReport> {
        match self
            .shadow
            .compare_exchange_range(addr, size, expected, new_epoch)
        {
            Ok(issued) => {
                pending.epoch_updates += issued;
                Ok(())
            }
            Err((at, found)) => {
                // A concurrent check interleaved between our load and CAS.
                // Seeing our own new epoch is impossible (no thread races
                // with itself), so this is a concurrent unordered write.
                pending.cas_conflicts += 1;
                Err(self.report(pending, AccessKind::Write, vc, tid, at, 1, found))
            }
        }
    }

    /// Drains `state`'s batched check statistics into `tid`'s stats
    /// shard, leaving the pending counters zero.
    ///
    /// The `*_with` entry points count every check into plain per-thread
    /// counters; call this on every epoch increment and at thread exit so
    /// [`stats`](Self::stats) snapshots converge to the exact totals
    /// (until then they under-report). Calling it when nothing is pending
    /// is free.
    pub fn drain_check_state(&self, tid: ThreadId, state: &mut ThreadCheckState) {
        let p = std::mem::take(&mut state.pending);
        if p.is_empty() {
            return;
        }
        self.stats.absorb(tid.index(), &p);
    }

    /// The epoch currently recorded for data byte `addr` (test/diagnostic
    /// aid; the hardware simulator keeps its own metadata).
    pub fn epoch_at(&self, addr: usize) -> Epoch {
        self.shadow.load(addr)
    }

    /// Deterministic metadata reset (Section 4.5). The caller must have
    /// brought the program to a globally deterministic quiescent point and
    /// must reset all thread and lock vector clocks alongside. Per-thread
    /// [`ThreadCheckState`] needs no flush: filter entries are tagged with
    /// the reset generation and self-invalidate.
    pub fn reset_metadata(&self) {
        self.shadow.reset();
    }
}

impl std::fmt::Debug for CleanDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanDetector")
            .field("config", &self.config)
            .field("shadow", &self.shadow)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RaceKind;

    fn setup(n_threads: usize) -> (CleanDetector, Vec<VectorClock>) {
        let det = CleanDetector::new(1 << 16, DetectorConfig::new());
        let layout = det.layout();
        let clocks = (0..n_threads)
            .map(|_| VectorClock::new(n_threads, layout))
            .collect();
        (det, clocks)
    }

    #[test]
    fn first_accesses_never_race() {
        let (det, vcs) = setup(2);
        det.check_read(&vcs[0], ThreadId::new(0), 0, 8).unwrap();
        det.check_write(&vcs[0], ThreadId::new(0), 0, 8).unwrap();
        det.check_read(&vcs[0], ThreadId::new(0), 0, 8).unwrap();
    }

    #[test]
    fn waw_between_unordered_writes() {
        let (det, mut vcs) = setup(2);
        vcs[0].increment(ThreadId::new(0)).unwrap();
        det.check_write(&vcs[0], ThreadId::new(0), 64, 4).unwrap();
        let race = det
            .check_write(&vcs[1], ThreadId::new(1), 64, 4)
            .unwrap_err();
        assert_eq!(race.kind, RaceKind::WriteAfterWrite);
        assert_eq!(race.previous_tid(), ThreadId::new(0));
        assert_eq!(race.previous_clock(), 1);
    }

    #[test]
    fn raw_between_unordered_read_and_write() {
        let (det, mut vcs) = setup(2);
        vcs[0].increment(ThreadId::new(0)).unwrap();
        det.check_write(&vcs[0], ThreadId::new(0), 128, 8).unwrap();
        let race = det
            .check_read(&vcs[1], ThreadId::new(1), 128, 8)
            .unwrap_err();
        assert_eq!(race.kind, RaceKind::ReadAfterWrite);
    }

    #[test]
    fn synchronized_accesses_do_not_race() {
        let (det, mut vcs) = setup(2);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        vcs[0].increment(t0).unwrap();
        det.check_write(&vcs[0], t0, 0, 4).unwrap();
        // Simulate t0 releasing a lock t1 then acquires: t1 joins t0's VC.
        let release = vcs[0].clone();
        vcs[1].join(&release);
        det.check_read(&vcs[1], t1, 0, 4).unwrap();
        det.check_write(&vcs[1], t1, 0, 4).unwrap();
    }

    #[test]
    fn war_is_deliberately_not_detected() {
        // Thread 0 reads, thread 1 writes, unordered: a WAR race that CLEAN
        // chooses to miss (Section 3.1).
        let (det, mut vcs) = setup(2);
        det.check_read(&vcs[0], ThreadId::new(0), 32, 4).unwrap();
        vcs[1].increment(ThreadId::new(1)).unwrap();
        det.check_write(&vcs[1], ThreadId::new(1), 32, 4).unwrap();
    }

    #[test]
    fn same_thread_rewrites_never_race() {
        let (det, mut vcs) = setup(2);
        let t0 = ThreadId::new(0);
        for _ in 0..5 {
            det.check_write(&vcs[0], t0, 8, 8).unwrap();
            det.check_read(&vcs[0], t0, 8, 8).unwrap();
            vcs[0].increment(t0).unwrap();
        }
    }

    #[test]
    fn update_skipped_when_epoch_current() {
        let (det, vcs) = setup(1);
        let t0 = ThreadId::new(0);
        det.check_write(&vcs[0], t0, 0, 4).unwrap();
        let before = det.stats().epoch_updates;
        det.check_write(&vcs[0], t0, 0, 4).unwrap();
        let after = det.stats();
        assert_eq!(after.epoch_updates, before, "no redundant publication");
        assert!(after.update_skipped >= 1);
    }

    #[test]
    fn partial_overlap_detects_race_on_single_byte() {
        let (det, mut vcs) = setup(2);
        vcs[0].increment(ThreadId::new(0)).unwrap();
        // t0 writes one byte inside an 8-byte region.
        det.check_write(&vcs[0], ThreadId::new(0), 19, 1).unwrap();
        // t1 reads the full 8 bytes: must race because of byte 19.
        let race = det
            .check_read(&vcs[1], ThreadId::new(1), 16, 8)
            .unwrap_err();
        assert_eq!(race.kind, RaceKind::ReadAfterWrite);
        assert_eq!(race.addr, 19);
    }

    #[test]
    fn non_vectorized_matches_vectorized_verdicts() {
        for vectorized in [false, true] {
            let det = CleanDetector::new(4096, DetectorConfig::new().vectorized(vectorized));
            let layout = det.layout();
            let mut vc0 = VectorClock::new(2, layout);
            let vc1 = VectorClock::new(2, layout);
            vc0.increment(ThreadId::new(0)).unwrap();
            det.check_write(&vc0, ThreadId::new(0), 0, 8).unwrap();
            assert!(det.check_read(&vc1, ThreadId::new(1), 0, 8).is_err());
            let mut synced = VectorClock::new(2, layout);
            synced.join(&vc0);
            assert!(det.check_read(&synced, ThreadId::new(1), 0, 8).is_ok());
        }
    }

    #[test]
    fn vectorized_fast_path_is_counted() {
        let (det, vcs) = setup(1);
        det.check_write(&vcs[0], ThreadId::new(0), 0, 8).unwrap();
        det.check_read(&vcs[0], ThreadId::new(0), 0, 8).unwrap();
        assert!(det.stats().uniform_fast_path >= 1);
    }

    #[test]
    fn mixed_epochs_take_slow_path() {
        let (det, mut vcs) = setup(2);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        det.check_write(&vcs[0], t0, 0, 4).unwrap();
        // Synchronize t1 after t0, then t1 writes adjacent bytes.
        let release = vcs[0].clone();
        vcs[1].join(&release);
        vcs[1].increment(t1).unwrap();
        det.check_write(&vcs[1], t1, 4, 4).unwrap();
        // An 8-byte read spanning both regions sees two different epochs.
        let mut reader = VectorClock::new(2, det.layout());
        reader.join(&vcs[1]);
        reader.join(&vcs[0]);
        det.check_read(&reader, t0, 0, 8).unwrap();
        assert!(det.stats().per_byte_slow_path >= 1);
    }

    #[test]
    fn reset_forgets_history() {
        let (det, mut vcs) = setup(2);
        vcs[0].increment(ThreadId::new(0)).unwrap();
        det.check_write(&vcs[0], ThreadId::new(0), 0, 4).unwrap();
        det.reset_metadata();
        // Reset clears thread VCs too in a real run; here even the stale
        // reader passes because the epoch record is gone — the known,
        // accepted miss of Section 4.5.
        let fresh = VectorClock::new(2, det.layout());
        det.check_read(&fresh, ThreadId::new(1), 0, 4).unwrap();
    }

    #[test]
    fn locked_atomicity_gives_identical_verdicts() {
        for mode in [AtomicityMode::LockFree, AtomicityMode::PerCheckLocking] {
            let det = CleanDetector::new(4096, DetectorConfig::new().atomicity(mode));
            let layout = det.layout();
            let mut vc0 = VectorClock::new(2, layout);
            let vc1 = VectorClock::new(2, layout);
            vc0.increment(ThreadId::new(0)).unwrap();
            det.check_write(&vc0, ThreadId::new(0), 0, 8).unwrap();
            assert!(det.check_write(&vc1, ThreadId::new(1), 0, 8).is_err());
            let mut synced = VectorClock::new(2, layout);
            synced.join(&vc0);
            assert!(det.check_read(&synced, ThreadId::new(1), 0, 8).is_ok());
        }
    }

    #[test]
    fn locked_atomicity_is_concurrency_safe() {
        use std::sync::Arc;
        let det = Arc::new(CleanDetector::new(
            4096,
            DetectorConfig::new().atomicity(AtomicityMode::PerCheckLocking),
        ));
        let layout = det.layout();
        let mut handles = Vec::new();
        for t in 0..4u16 {
            let det = Arc::clone(&det);
            handles.push(std::thread::spawn(move || {
                let mut vc = VectorClock::new(4, layout);
                vc.increment(ThreadId::new(t)).unwrap();
                // Disjoint regions: no races, heavy lock traffic.
                for i in 0..200 {
                    let addr = t as usize * 512 + (i % 64) * 8;
                    det.check_write(&vc, ThreadId::new(t), addr, 8).unwrap();
                    det.check_read(&vc, ThreadId::new(t), addr, 8).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(det.stats().races_reported, 0);
    }

    #[test]
    fn epoch_at_reflects_publication() {
        let (det, mut vcs) = setup(1);
        let t0 = ThreadId::new(0);
        vcs[0].increment(t0).unwrap();
        det.check_write(&vcs[0], t0, 40, 4).unwrap();
        let e = det.epoch_at(40);
        assert_eq!(det.layout().tid(e), t0);
        assert_eq!(det.layout().clock(e), 1);
        assert_eq!(det.epoch_at(44), Epoch::ZERO);
    }

    #[test]
    fn filter_hits_are_counted_and_redundant() {
        let (det, mut vcs) = setup(1);
        let t0 = ThreadId::new(0);
        vcs[0].increment(t0).unwrap();
        let mut st = ThreadCheckState::new();
        det.check_write_with(&vcs[0], t0, 0, 8, &mut st).unwrap();
        det.drain_check_state(t0, &mut st);
        let updates_after_first = det.stats().epoch_updates;
        assert_eq!(updates_after_first, 4, "one 8-byte publish, 4 word CASes");
        // Repeat writes and reads of the published range: all filter hits,
        // no further shadow traffic.
        for _ in 0..10 {
            det.check_write_with(&vcs[0], t0, 0, 8, &mut st).unwrap();
            det.check_read_with(&vcs[0], t0, 0, 8, &mut st).unwrap();
            det.check_read_with(&vcs[0], t0, 0, 4, &mut st).unwrap();
        }
        // The hits are batched in the per-thread state until drained.
        assert_eq!(det.stats().filter_hits, 0);
        assert_eq!(st.pending.filter_hits, 30);
        assert_eq!(st.pending.reads_checked, 20);
        assert_eq!(st.pending.writes_checked, 10);
        assert_eq!(st.pending.bytes_checked, 10 * (8 + 8 + 4));
        det.drain_check_state(t0, &mut st);
        assert!(st.pending.is_empty());
        let s = det.stats();
        assert_eq!(s.epoch_updates, updates_after_first);
        assert_eq!(s.filter_hits, 30);
        assert_eq!(s.reads_checked, 20);
        assert_eq!(s.writes_checked, 11);
        // Draining again is a no-op.
        det.drain_check_state(t0, &mut st);
        assert_eq!(det.stats().filter_hits, 30);
        // The shadow state is exactly what the unfiltered path would leave.
        assert_eq!(det.epoch_at(0), vcs[0].write_epoch(t0));
    }

    #[test]
    fn filter_entries_die_with_the_epoch() {
        let (det, mut vcs) = setup(2);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut st0 = ThreadCheckState::new();
        vcs[0].increment(t0).unwrap();
        det.check_write_with(&vcs[0], t0, 0, 8, &mut st0).unwrap();
        // t0 releases (epoch bump): the cached range must stop hitting.
        vcs[0].increment(t0).unwrap();
        det.drain_check_state(t0, &mut st0);
        st0.on_epoch_increment();
        let hits_before = det.stats().filter_hits;
        det.check_write_with(&vcs[0], t0, 0, 8, &mut st0).unwrap();
        det.drain_check_state(t0, &mut st0);
        assert_eq!(det.stats().filter_hits, hits_before, "no stale hit");
        // And even without the explicit flush the epoch tag invalidates.
        let mut st1 = ThreadCheckState::new();
        let release = vcs[0].clone();
        vcs[1].join(&release);
        det.check_read_with(&vcs[1], t1, 0, 8, &mut st1).unwrap();
    }

    #[test]
    fn fast_path_verdicts_match_plain_path() {
        // Race scenarios through the *_with entry points must produce the
        // same reports as the plain ones.
        let det = CleanDetector::new(1 << 16, DetectorConfig::new());
        let layout = det.layout();
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut vc0 = VectorClock::new(2, layout);
        let vc1 = VectorClock::new(2, layout);
        let mut st0 = ThreadCheckState::new();
        let mut st1 = ThreadCheckState::new();
        vc0.increment(t0).unwrap();
        det.check_write_with(&vc0, t0, 64, 4, &mut st0).unwrap();
        det.check_write_with(&vc0, t0, 64, 4, &mut st0).unwrap();
        let race = det.check_write_with(&vc1, t1, 64, 4, &mut st1).unwrap_err();
        assert_eq!(race.kind, RaceKind::WriteAfterWrite);
        assert_eq!(race.addr, 64);
        assert_eq!(race.previous_tid(), t0);
        assert_eq!(race.previous_clock(), 1);
        let read = det.check_read_with(&vc1, t1, 66, 4, &mut st1);
        // The same sequence through the stateless entry points of a second
        // detector: every verdict, report included, must be identical.
        let plain = CleanDetector::new(1 << 16, DetectorConfig::new());
        plain.check_write(&vc0, t0, 64, 4).unwrap();
        plain.check_write(&vc0, t0, 64, 4).unwrap();
        assert_eq!(plain.check_write(&vc1, t1, 64, 4), Err(race));
        assert_eq!(plain.check_read(&vc1, t1, 66, 4), read);
        assert!(read.is_err(), "the unordered read must race too");
    }

    #[test]
    fn page_straddling_write_publishes_both_pages() {
        use crate::shadow::PAGE_EPOCHS;
        let (det, mut vcs) = setup(2);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        vcs[0].increment(t0).unwrap();
        // An 8-byte write with 4 bytes on each side of the page boundary.
        let base = PAGE_EPOCHS - 4;
        det.check_write(&vcs[0], t0, base, 8).unwrap();
        assert_eq!(det.epoch_at(PAGE_EPOCHS - 1), vcs[0].write_epoch(t0));
        assert_eq!(det.epoch_at(PAGE_EPOCHS), vcs[0].write_epoch(t0));
        // An unordered read touching only the second-page half must still
        // see the published epoch and race, with the right first byte.
        let race = det.check_read(&vcs[1], t1, PAGE_EPOCHS + 2, 2).unwrap_err();
        assert_eq!(race.kind, RaceKind::ReadAfterWrite);
        assert_eq!(race.addr, PAGE_EPOCHS + 2);
    }

    #[test]
    fn fast_path_handles_page_straddles_like_plain_path() {
        use crate::shadow::PAGE_EPOCHS;
        // Straddling ranges are compared and published page by page and
        // never split filter entries: verdicts and shadow state must match
        // the plain path.
        let det = CleanDetector::new(1 << 16, DetectorConfig::new());
        let layout = det.layout();
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut vc0 = VectorClock::new(2, layout);
        let vc1 = VectorClock::new(2, layout);
        let mut st0 = ThreadCheckState::new();
        let mut st1 = ThreadCheckState::new();
        vc0.increment(t0).unwrap();
        let base = 2 * PAGE_EPOCHS - 3;
        det.check_write_with(&vc0, t0, base, 8, &mut st0).unwrap();
        // The repeat of a successfully published straddle is a filter
        // hit — one entry covers both pages.
        let hits = det.stats().filter_hits;
        det.check_write_with(&vc0, t0, base, 8, &mut st0).unwrap();
        det.check_read_with(&vc0, t0, base, 8, &mut st0).unwrap();
        det.drain_check_state(t0, &mut st0);
        assert_eq!(det.stats().filter_hits, hits + 2);
        // Cross-thread, unordered: race on the first straddled byte.
        let race = det
            .check_write_with(&vc1, t1, base, 8, &mut st1)
            .unwrap_err();
        assert_eq!(race.kind, RaceKind::WriteAfterWrite);
        assert_eq!(race.addr, base);
        // Both halves really were published.
        assert_eq!(det.epoch_at(2 * PAGE_EPOCHS - 1), vc0.write_epoch(t0));
        assert_eq!(det.epoch_at(2 * PAGE_EPOCHS + 4), vc0.write_epoch(t0));
    }

    fn plan_of(entries: Vec<clean_plan::PlanEntry>) -> Arc<CompiledPlan> {
        Arc::new(
            clean_plan::CheckPlan {
                entries,
                profile: None,
            }
            .compile()
            .unwrap(),
        )
    }

    fn elide_entry(lo: usize, hi: usize, owner: u32) -> clean_plan::PlanEntry {
        clean_plan::PlanEntry {
            lo,
            hi,
            action: clean_plan::PlanAction::Elide,
            witness: Some(clean_plan::Witness {
                owner,
                observed: 1,
                foreign: 0,
            }),
        }
    }

    fn action_entry(lo: usize, hi: usize, action: clean_plan::PlanAction) -> clean_plan::PlanEntry {
        clean_plan::PlanEntry {
            lo,
            hi,
            action,
            witness: None,
        }
    }

    #[test]
    fn plan_elide_skips_owner_but_not_foreign_threads() {
        let cfg = DetectorConfig::new().check_plan(Some(plan_of(vec![elide_entry(0, 0x100, 0)])));
        let det = CleanDetector::new(1 << 16, cfg);
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut vc0 = VectorClock::new(2, det.layout());
        let vc1 = VectorClock::new(2, det.layout());
        let mut st0 = ThreadCheckState::new();
        let mut st1 = ThreadCheckState::new();
        vc0.increment(t0).unwrap();
        // Owner accesses inside the range: fully elided — no check, no
        // publication, no shared-stat traffic until drained.
        det.check_write_with(&vc0, t0, 0x10, 8, &mut st0).unwrap();
        det.check_read_with(&vc0, t0, 0x10, 8, &mut st0).unwrap();
        assert_eq!(st0.pending.plan_elided, 2);
        assert_eq!(det.epoch_at(0x10), Epoch::ZERO, "no publication");
        assert_eq!(det.stats().total_checked(), 0);
        det.drain_check_state(t0, &mut st0);
        assert_eq!(det.stats().plan_elided, 2);
        // A foreign thread in the same range takes the full check path.
        det.check_write_with(&vc1, t1, 0x10, 8, &mut st1).unwrap();
        assert_eq!(det.epoch_at(0x10), vc1.write_epoch(t1));
        det.drain_check_state(t1, &mut st1);
        assert_eq!(det.stats().writes_checked, 1);
        // Owner accesses outside the planned footprint are checked.
        det.check_write_with(&vc0, t0, 0x200, 8, &mut st0).unwrap();
        assert_eq!(det.epoch_at(0x200), vc0.write_epoch(t0));
    }

    #[test]
    fn plan_coalesce_covers_a_whole_sweep_with_one_range() {
        let cfg = DetectorConfig::new().check_plan(Some(plan_of(vec![action_entry(
            0,
            0x1000,
            clean_plan::PlanAction::Coalesce,
        )])));
        let det = CleanDetector::new(1 << 16, cfg);
        let t0 = ThreadId::new(0);
        let mut vc = VectorClock::new(1, det.layout());
        vc.increment(t0).unwrap();
        let mut st = ThreadCheckState::new();
        // A strided sweep: each write extends one growable range entry.
        for i in 0..512 {
            det.check_write_with(&vc, t0, i * 8, 8, &mut st).unwrap();
        }
        // A re-read of the ENTIRE swept region is a single filter hit —
        // the direct-mapped slots could at best cover one 8-byte stride.
        det.check_read_with(&vc, t0, 0, 4096, &mut st).unwrap();
        assert_eq!(st.pending.filter_hits, 1);
        det.drain_check_state(t0, &mut st);
        let s = det.stats();
        assert_eq!(s.filter_hits, 1);
        // Shadow state matches what the unplanned path would leave.
        assert_eq!(det.epoch_at(0), vc.write_epoch(t0));
        assert_eq!(det.epoch_at(4095), vc.write_epoch(t0));
    }

    /// Runs one fixed access sequence through the `*_with` entry points
    /// (`stateful`) or the stateless ones and returns the drained stats.
    fn stats_of_check_sequence(stateful: bool) -> StatsSnapshot {
        use crate::shadow::PAGE_EPOCHS;
        use AccessKind::{Read, Write};
        let p = PAGE_EPOCHS;
        let det = CleanDetector::new(1 << 16, DetectorConfig::new());
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut vc0 = VectorClock::new(2, det.layout());
        let vc1 = VectorClock::new(2, det.layout());
        let (mut st0, mut st1) = (ThreadCheckState::new(), ThreadCheckState::new());
        let check = |kind, vc: &VectorClock, tid, addr, size, st: &mut ThreadCheckState| match (
            kind, stateful,
        ) {
            (Read, true) => det.check_read_with(vc, tid, addr, size, st),
            (Write, true) => det.check_write_with(vc, tid, addr, size, st),
            (Read, false) => det.check_read(vc, tid, addr, size),
            (Write, false) => det.check_write(vc, tid, addr, size),
        };
        vc0.increment(t0).unwrap();
        // Uniform publishes over fresh bytes: one CAS per two-byte word.
        check(Write, &vc0, t0, 0x40, 8, &mut st0).unwrap();
        // Nothing reaches the shards before a drain; a stateless call
        // flushes at once.
        assert_eq!(det.stats().total_checked(), u64::from(!stateful));
        check(Write, &vc0, t0, 0x48, 8, &mut st0).unwrap();
        // A filter hit; as a 1-byte check the stateless path counts
        // nothing beyond the access itself either.
        check(Read, &vc0, t0, 0x40, 1, &mut st0).unwrap();
        // Wider than either filter entry and all current: update skipped.
        check(Write, &vc0, t0, 0x40, 16, &mut st0).unwrap();
        // One uniform publish just below a page boundary, then, in the
        // next SFR, a straddle over old and fresh epochs: per-byte check,
        // one CAS per byte.
        check(Write, &vc0, t0, p - 4, 4, &mut st0).unwrap();
        vc0.increment(t0).unwrap();
        det.drain_check_state(t0, &mut st0);
        st0.on_epoch_increment();
        check(Write, &vc0, t0, p - 4, 8, &mut st0).unwrap();
        // A wide span: one uniform publish of 32 word CASes.
        check(Write, &vc0, t0, p + 0x40, 64, &mut st0).unwrap();
        // t1 never synchronized with t0: one RAW.
        check(Read, &vc1, t1, 0x40, 8, &mut st1).unwrap_err();
        det.drain_check_state(t0, &mut st0);
        det.drain_check_state(t1, &mut st1);
        det.stats()
    }

    #[test]
    fn check_path_stats_are_exact_after_drain() {
        let expected = StatsSnapshot {
            reads_checked: 2,
            writes_checked: 6,
            bytes_checked: 8 + 8 + 1 + 16 + 4 + 8 + 64 + 8,
            uniform_fast_path: 6,
            per_byte_slow_path: 1,
            epoch_updates: 4 + 4 + 2 + 8 + 32,
            update_skipped: 1,
            cas_conflicts: 0,
            races_reported: 1,
            filter_hits: 1,
            plan_elided: 0,
        };
        assert_eq!(stats_of_check_sequence(true), expected);
        // The stateless entry points do not consult the filter; every
        // other count is the same.
        assert_eq!(
            stats_of_check_sequence(false),
            StatsSnapshot {
                filter_hits: 0,
                ..expected
            }
        );
    }

    #[test]
    fn accesses_straddling_plan_ranges_take_the_unplanned_path() {
        // Elide range ends at 0x100; an access straddling out of it gets
        // no decision and is fully checked — even for the owner.
        let cfg = DetectorConfig::new().check_plan(Some(plan_of(vec![elide_entry(0, 0x100, 0)])));
        let det = CleanDetector::new(1 << 16, cfg);
        let t0 = ThreadId::new(0);
        let mut vc = VectorClock::new(1, det.layout());
        vc.increment(t0).unwrap();
        let mut st = ThreadCheckState::new();
        det.check_write_with(&vc, t0, 0xfc, 8, &mut st).unwrap();
        assert_eq!(st.pending.plan_elided, 0);
        assert_eq!(det.epoch_at(0xfc), vc.write_epoch(t0));
        det.drain_check_state(t0, &mut st);
        assert_eq!(det.stats().writes_checked, 1);
    }

    #[test]
    fn filter_survives_reset_via_generation_tag() {
        let (det, mut vcs) = setup(1);
        let t0 = ThreadId::new(0);
        vcs[0].increment(t0).unwrap();
        let mut st = ThreadCheckState::new();
        det.check_write_with(&vcs[0], t0, 0, 8, &mut st).unwrap();
        det.reset_metadata();
        // Same thread epoch, new generation: the entry must not hit (the
        // shadow now reads zero, not our epoch).
        let hits = det.stats().filter_hits;
        det.check_write_with(&vcs[0], t0, 0, 8, &mut st).unwrap();
        det.drain_check_state(t0, &mut st);
        assert_eq!(det.stats().filter_hits, hits);
        assert_eq!(det.epoch_at(0), vcs[0].write_epoch(t0));
    }
}
