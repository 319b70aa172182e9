//! The controlled-scheduler virtual machine: runs CLEAN programs written
//! against a virtualized thread API (spawn/join, mutex, rwlock, barrier,
//! condvar, instrumented reads/writes) with **every** instrumented
//! operation a yield point, under a scheduler that decides which virtual
//! thread advances at each step.
//!
//! Execution is token-serialized: each virtual thread runs on its own OS
//! thread, but exactly one holds the execution token at any moment. A
//! thread announces its next operation and parks; the scheduler computes
//! the *enabled* set (a `lock` on a held mutex, a `join` on a running
//! thread, a parked barrier arrival are not enabled), asks the
//! [`Picker`] to choose, and grants exactly one
//! thread, which performs exactly one operation and parks again. Given
//! the same program and the same sequence of choices, an execution is
//! bit-for-bit identical — which is what makes schedules replayable,
//! shrinkable and enumerable.
//!
//! The VM mirrors the happens-before bookkeeping of `clean-runtime`
//! exactly (per-thread vector clocks, lock/barrier clocks, the Section
//! 4.3 check ordering, the pseudo-lock trace encoding of barriers and
//! rwlocks), runs the online [`CleanDetector`] on every access, ticks a
//! real [`Kendo`] table at every yield point (observable through
//! [`clean_sync::SchedHook`]), and records a [`TraceEvent`] log that the
//! offline baseline engines replay for the differential check.

use crate::picker::{Picker, SchedView};
use crate::token::Schedule;
use clean_core::{
    CleanDetector, DetectorConfig, EpochLayout, LockId, RaceReport, ThreadCheckState, ThreadId,
    TraceEvent, VectorClock,
};
use clean_sync::{DetHandle, Kendo, SchedHook};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Bytes per virtual heap cell (every cell is a `u64`).
pub const CELL_BYTES: usize = 8;

/// How long the scheduler waits for a parked-thread notification before
/// declaring the harness itself wedged (a bug in the VM, not the program).
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// The execution was abandoned by the scheduler (depth bound, race stop,
/// or harness shutdown); the virtual thread must unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop;

/// Result alias for virtual-thread operations.
pub type VmResult<T> = Result<T, Stop>;

/// A virtual thread body: runs against the virtualized thread API and
/// returns a deterministic output value.
pub type Body = Box<dyn FnOnce(&mut VCtx) -> VmResult<u64> + Send + 'static>;

/// A re-runnable program: every explored schedule calls the factory for a
/// fresh root body.
pub type ProgramFn = Arc<dyn Fn() -> Body + Send + Sync>;

/// Configuration of one VM execution.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum virtual threads over the execution (ids are not reused).
    pub max_threads: usize,
    /// Virtual heap size in 8-byte cells.
    pub heap_cells: usize,
    /// Step (yield-point) bound; executions longer than this are cut off
    /// and marked [`Execution::depth_limited`].
    pub max_steps: usize,
    /// Stop the execution at the first CLEAN race (runtime semantics).
    /// Exploration leaves this off so the trace also exhibits what the
    /// full baseline detectors see *after* CLEAN's exception point.
    pub stop_on_race: bool,
    /// Optional compiled static check plan installed in the VM's
    /// detector — the exploration differential runs corpus programs with
    /// a derived plan on and off and demands identical verdicts.
    pub check_plan: Option<Arc<clean_core::CompiledPlan>>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_threads: 8,
            heap_cells: 64,
            max_steps: 4096,
            stop_on_race: false,
            check_plan: None,
        }
    }
}

/// One instrumented operation — the unit of scheduling. Announced by a
/// virtual thread before parking; the scheduler uses it to decide
/// enabledness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Begin executing the thread body (first segment after spawn).
    Start,
    /// Read a heap cell.
    Read {
        /// Cell index.
        cell: usize,
    },
    /// Write a heap cell.
    Write {
        /// Cell index.
        cell: usize,
    },
    /// Acquire a mutex (enabled iff free).
    Lock(usize),
    /// Release a mutex.
    Unlock(usize),
    /// Acquire a rwlock in shared mode (enabled iff no writer).
    RwRead(usize),
    /// Acquire a rwlock exclusively (enabled iff unheld).
    RwWrite(usize),
    /// Release a shared rwlock hold.
    RwUnlockRead(usize),
    /// Release the exclusive rwlock hold.
    RwUnlockWrite(usize),
    /// Atomically demote the exclusive hold to a shared one (always
    /// enabled — the caller holds the write lock).
    RwDowngrade(usize),
    /// Attempt a mutex acquire without blocking (always enabled; the
    /// outcome — acquired or not — is decided when granted).
    TryLock(usize),
    /// Attempt a shared rwlock acquire without blocking.
    RwTryRead(usize),
    /// Attempt an exclusive rwlock acquire without blocking.
    RwTryWrite(usize),
    /// Arrive at a barrier (the arrival itself is always enabled).
    Barrier(usize),
    /// Leave a barrier after its episode completed.
    BarrierResume(usize),
    /// Release the mutex and enqueue on a condvar.
    CvWait {
        /// The condvar.
        cv: usize,
        /// The mutex released while waiting.
        mutex: usize,
    },
    /// Re-acquire the mutex after a condvar wake-up (enabled iff free).
    CvReacquire {
        /// The mutex to re-acquire.
        mutex: usize,
    },
    /// Wake one condvar waiter.
    CvSignal(usize),
    /// Wake all condvar waiters.
    CvBroadcast(usize),
    /// Create a child thread.
    Spawn,
    /// Join a child (enabled iff it finished).
    Join(usize),
    /// A pure yield point advancing the deterministic counter.
    Tick,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Start => write!(f, "start"),
            OpKind::Read { cell } => write!(f, "read[{cell}]"),
            OpKind::Write { cell } => write!(f, "write[{cell}]"),
            OpKind::Lock(m) => write!(f, "lock(m{m})"),
            OpKind::Unlock(m) => write!(f, "unlock(m{m})"),
            OpKind::RwRead(l) => write!(f, "read_lock(rw{l})"),
            OpKind::RwWrite(l) => write!(f, "write_lock(rw{l})"),
            OpKind::RwUnlockRead(l) => write!(f, "read_unlock(rw{l})"),
            OpKind::RwUnlockWrite(l) => write!(f, "write_unlock(rw{l})"),
            OpKind::RwDowngrade(l) => write!(f, "downgrade(rw{l})"),
            OpKind::TryLock(m) => write!(f, "try_lock(m{m})"),
            OpKind::RwTryRead(l) => write!(f, "try_read(rw{l})"),
            OpKind::RwTryWrite(l) => write!(f, "try_write(rw{l})"),
            OpKind::Barrier(b) => write!(f, "barrier(b{b})"),
            OpKind::BarrierResume(b) => write!(f, "barrier_resume(b{b})"),
            OpKind::CvWait { cv, mutex } => write!(f, "cond_wait(cv{cv},m{mutex})"),
            OpKind::CvReacquire { mutex } => write!(f, "cond_reacquire(m{mutex})"),
            OpKind::CvSignal(cv) => write!(f, "cond_signal(cv{cv})"),
            OpKind::CvBroadcast(cv) => write!(f, "cond_broadcast(cv{cv})"),
            OpKind::Spawn => write!(f, "spawn"),
            OpKind::Join(t) => write!(f, "join(t{t})"),
            OpKind::Tick => write!(f, "tick"),
        }
    }
}

/// What a virtual thread is doing, from the scheduler's point of view.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Parked, announcing its next operation.
    Op(OpKind),
    /// Parked inside a barrier episode that has not completed.
    BarrierBlocked(usize),
    /// Parked on a condvar, not yet woken.
    CvBlocked(usize),
    /// The body returned (or unwound); the OS thread is gone.
    Finished,
}

struct VThread {
    pending: Pending,
    vc: VectorClock,
    /// Per-thread fast-path state (SFR write filter + batched check
    /// statistics), flushed on every epoch increment exactly like the
    /// runtime's.
    check: ThreadCheckState,
    /// Final vector clock, recorded at exit for the joiner.
    final_vc: Option<VectorClock>,
    /// The body's return value (`None` until finished, or if it was
    /// stopped / panicked).
    result: Option<u64>,
    panicked: bool,
    grant_tx: Sender<()>,
}

struct VmMutex {
    owner: Option<usize>,
    vc: VectorClock,
    id: LockId,
}

struct VmRwLock {
    writer: Option<usize>,
    readers: Vec<usize>,
    /// Published by write-unlocks; absorbed by every acquire.
    write_vc: VectorClock,
    /// Published by read-unlocks; absorbed by write-acquires only.
    read_vc: VectorClock,
    id_w: LockId,
    id_r: LockId,
}

struct VmBarrier {
    parties: usize,
    arrived: Vec<usize>,
    arrivals_vc: VectorClock,
    release_vc: VectorClock,
    id: LockId,
}

struct VmCondvar {
    /// FIFO of `(waiter tid, mutex to re-acquire)`.
    waiters: VecDeque<(usize, usize)>,
}

struct VmData {
    cfg: VmConfig,
    layout: EpochLayout,
    heap: Vec<u64>,
    threads: Vec<VThread>,
    mutexes: Vec<VmMutex>,
    rwlocks: Vec<VmRwLock>,
    barriers: Vec<VmBarrier>,
    condvars: Vec<VmCondvar>,
    next_lock_id: LockId,
    trace: Vec<TraceEvent>,
    clean_races: Vec<(usize, RaceReport)>,
    stop: bool,
    detector: CleanDetector,
    kendo: Arc<Kendo>,
    det_handles: Vec<Option<DetHandle>>,
}

impl VmData {
    fn tid16(t: usize) -> ThreadId {
        ThreadId::new(t as u16)
    }

    fn push_event(&mut self, e: TraceEvent) {
        self.trace.push(e);
    }

    /// Records a CLEAN race on the event just pushed; under runtime
    /// semantics (`stop_on_race`) this also stops the execution.
    fn note_race(&mut self, r: RaceReport) {
        self.clean_races
            .push((self.trace.len().saturating_sub(1), r));
        if self.cfg.stop_on_race {
            self.stop = true;
        }
    }

    /// Advances `t`'s deterministic counter by one event (every
    /// instrumented operation is a deterministic event, as in the
    /// runtime's byte-granular basic-block instrumentation).
    fn tick(&mut self, t: usize) {
        if let Some(h) = self.det_handles[t].as_mut() {
            h.tick(1);
        }
    }

    fn kendo_counter(&self, t: usize) -> u64 {
        self.det_handles[t].as_ref().map_or(0, |h| h.counter())
    }

    /// Starts a new SFR for `t` (release operations and fork/join edges).
    fn increment_own(&mut self, t: usize) {
        self.threads[t]
            .vc
            .increment(Self::tid16(t))
            .expect("sched VM executions never reach clock rollover");
        self.detector
            .drain_check_state(Self::tid16(t), &mut self.threads[t].check);
        self.threads[t].check.on_epoch_increment();
    }
}

struct VmShared {
    data: Mutex<VmData>,
    os_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Whether `t`'s announced operation can execute now.
fn is_enabled(d: &VmData, t: usize) -> bool {
    match &d.threads[t].pending {
        Pending::Op(op) => match op {
            OpKind::Lock(m) | OpKind::CvReacquire { mutex: m } => d.mutexes[*m].owner.is_none(),
            OpKind::RwRead(l) => d.rwlocks[*l].writer.is_none(),
            OpKind::RwWrite(l) => {
                d.rwlocks[*l].writer.is_none() && d.rwlocks[*l].readers.is_empty()
            }
            OpKind::Join(c) => matches!(d.threads[*c].pending, Pending::Finished),
            // Try-ops and downgrade are always enabled: a failed try
            // returns `false` instead of blocking, and a downgrade's
            // precondition (holding the write lock) is the caller's.
            _ => true,
        },
        Pending::BarrierBlocked(_) | Pending::CvBlocked(_) | Pending::Finished => false,
    }
}

/// A virtual thread's execution context — the controlled-scheduler
/// equivalent of `clean_runtime::ThreadCtx`. Every method is a yield
/// point.
pub struct VCtx {
    shared: Arc<VmShared>,
    tid: usize,
    yield_tx: Sender<usize>,
    grant_rx: Receiver<()>,
}

impl std::fmt::Debug for VCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VCtx").field("tid", &self.tid).finish()
    }
}

impl VCtx {
    /// This thread's virtual thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Parks with the given pending state and waits to be granted the
    /// token. Errors if the execution is being stopped.
    fn park(&mut self, pending: Pending) -> VmResult<()> {
        self.shared.data.lock().threads[self.tid].pending = pending;
        if self.yield_tx.send(self.tid).is_err() {
            return Err(Stop);
        }
        if self.grant_rx.recv().is_err() {
            return Err(Stop);
        }
        if self.shared.data.lock().stop {
            return Err(Stop);
        }
        Ok(())
    }

    fn yield_op(&mut self, op: OpKind) -> VmResult<()> {
        self.park(Pending::Op(op))
    }

    /// A pure yield point: advances the deterministic counter only.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn tick(&mut self) -> VmResult<()> {
        self.yield_op(OpKind::Tick)?;
        self.shared.data.lock().tick(self.tid);
        Ok(())
    }

    /// Reads heap cell `cell` (race-checked after the load, per the
    /// Section 4.3 ordering).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution (including a
    /// RAW race under `stop_on_race`).
    pub fn read(&mut self, cell: usize) -> VmResult<u64> {
        self.yield_op(OpKind::Read { cell })?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let addr = cell * CELL_BYTES;
        let val = d.heap[cell];
        d.push_event(TraceEvent::Read {
            tid: VmData::tid16(self.tid),
            addr,
            size: CELL_BYTES,
        });
        let thread = &mut d.threads[self.tid];
        let check = d.detector.check_read_with(
            &thread.vc,
            VmData::tid16(self.tid),
            addr,
            CELL_BYTES,
            &mut thread.check,
        );
        if let Err(r) = check {
            d.note_race(r);
            if d.stop {
                return Err(Stop);
            }
        }
        Ok(val)
    }

    /// Writes heap cell `cell` (race-checked before the store).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution (including a
    /// WAW race under `stop_on_race`).
    pub fn write(&mut self, cell: usize, value: u64) -> VmResult<()> {
        self.yield_op(OpKind::Write { cell })?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let addr = cell * CELL_BYTES;
        d.push_event(TraceEvent::Write {
            tid: VmData::tid16(self.tid),
            addr,
            size: CELL_BYTES,
        });
        let thread = &mut d.threads[self.tid];
        let check = d.detector.check_write_with(
            &thread.vc,
            VmData::tid16(self.tid),
            addr,
            CELL_BYTES,
            &mut thread.check,
        );
        if let Err(r) = check {
            d.note_race(r);
            if d.stop {
                return Err(Stop);
            }
        }
        d.heap[cell] = value;
        Ok(())
    }

    /// Creates a mutex (not a yield point; creation order is already
    /// schedule-determined).
    pub fn create_mutex(&mut self) -> usize {
        let mut d = self.shared.data.lock();
        let id = d.next_lock_id;
        d.next_lock_id += 1;
        let vc = VectorClock::new(d.cfg.max_threads, d.layout);
        d.mutexes.push(VmMutex {
            owner: None,
            vc,
            id,
        });
        d.mutexes.len() - 1
    }

    /// Creates a reader-writer lock.
    pub fn create_rwlock(&mut self) -> usize {
        let mut d = self.shared.data.lock();
        let (id_w, id_r) = (d.next_lock_id, d.next_lock_id + 1);
        d.next_lock_id += 2;
        let write_vc = VectorClock::new(d.cfg.max_threads, d.layout);
        let read_vc = VectorClock::new(d.cfg.max_threads, d.layout);
        d.rwlocks.push(VmRwLock {
            writer: None,
            readers: Vec::new(),
            write_vc,
            read_vc,
            id_w,
            id_r,
        });
        d.rwlocks.len() - 1
    }

    /// Creates a cyclic barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn create_barrier(&mut self, parties: usize) -> usize {
        assert!(parties > 0, "barrier needs at least one party");
        let mut d = self.shared.data.lock();
        let id = d.next_lock_id;
        d.next_lock_id += 1;
        let arrivals_vc = VectorClock::new(d.cfg.max_threads, d.layout);
        let release_vc = VectorClock::new(d.cfg.max_threads, d.layout);
        d.barriers.push(VmBarrier {
            parties,
            arrived: Vec::new(),
            arrivals_vc,
            release_vc,
            id,
        });
        d.barriers.len() - 1
    }

    /// Creates a condition variable.
    pub fn create_condvar(&mut self) -> usize {
        let mut d = self.shared.data.lock();
        d.condvars.push(VmCondvar {
            waiters: VecDeque::new(),
        });
        d.condvars.len() - 1
    }

    /// Acquires mutex `m` (happens-before acquire edge).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn lock(&mut self, m: usize) -> VmResult<()> {
        self.yield_op(OpKind::Lock(m))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        debug_assert!(d.mutexes[m].owner.is_none(), "granted lock on held mutex");
        d.mutexes[m].owner = Some(self.tid);
        let mvc = d.mutexes[m].vc.clone();
        d.threads[self.tid].vc.join(&mvc);
        let lock = d.mutexes[m].id;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(())
    }

    /// Releases mutex `m` (happens-before release edge; starts a new SFR).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not hold `m`.
    pub fn unlock(&mut self, m: usize) -> VmResult<()> {
        self.yield_op(OpKind::Unlock(m))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        assert_eq!(d.mutexes[m].owner, Some(self.tid), "unlock without hold");
        let lock = d.mutexes[m].id;
        d.push_event(TraceEvent::Release {
            tid: VmData::tid16(self.tid),
            lock,
        });
        let tvc = d.threads[self.tid].vc.clone();
        d.mutexes[m].vc.join(&tvc);
        d.increment_own(self.tid);
        d.mutexes[m].owner = None;
        Ok(())
    }

    /// Acquires rwlock `l` in shared mode.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn read_lock(&mut self, l: usize) -> VmResult<()> {
        self.yield_op(OpKind::RwRead(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        d.rwlocks[l].readers.push(self.tid);
        let wvc = d.rwlocks[l].write_vc.clone();
        d.threads[self.tid].vc.join(&wvc);
        let lock = d.rwlocks[l].id_w;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(())
    }

    /// Releases a shared hold of rwlock `l`.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn read_unlock(&mut self, l: usize) -> VmResult<()> {
        self.yield_op(OpKind::RwUnlockRead(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let lock = d.rwlocks[l].id_r;
        d.push_event(TraceEvent::Release {
            tid: VmData::tid16(self.tid),
            lock,
        });
        let tvc = d.threads[self.tid].vc.clone();
        d.rwlocks[l].read_vc.join(&tvc);
        d.increment_own(self.tid);
        let pos = d.rwlocks[l]
            .readers
            .iter()
            .position(|&r| r == self.tid)
            .expect("read_unlock without shared hold");
        d.rwlocks[l].readers.swap_remove(pos);
        Ok(())
    }

    /// Acquires rwlock `l` exclusively.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn write_lock(&mut self, l: usize) -> VmResult<()> {
        self.yield_op(OpKind::RwWrite(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        d.rwlocks[l].writer = Some(self.tid);
        let wvc = d.rwlocks[l].write_vc.clone();
        d.threads[self.tid].vc.join(&wvc);
        let rvc = d.rwlocks[l].read_vc.clone();
        d.threads[self.tid].vc.join(&rvc);
        let (id_w, id_r) = (d.rwlocks[l].id_w, d.rwlocks[l].id_r);
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock: id_w,
        });
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock: id_r,
        });
        Ok(())
    }

    /// Releases the exclusive hold of rwlock `l`.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not hold the write lock.
    pub fn write_unlock(&mut self, l: usize) -> VmResult<()> {
        self.yield_op(OpKind::RwUnlockWrite(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        assert_eq!(
            d.rwlocks[l].writer,
            Some(self.tid),
            "write_unlock without exclusive hold"
        );
        let lock = d.rwlocks[l].id_w;
        d.push_event(TraceEvent::Release {
            tid: VmData::tid16(self.tid),
            lock,
        });
        let tvc = d.threads[self.tid].vc.clone();
        d.rwlocks[l].write_vc.join(&tvc);
        d.increment_own(self.tid);
        d.rwlocks[l].writer = None;
        Ok(())
    }

    /// Atomically demotes this thread's exclusive hold of rwlock `l` to a
    /// shared hold: the write-side release is published (so readers that
    /// acquire afterwards are ordered after the exclusive section) but no
    /// other writer can slip in — this thread is already a reader when
    /// the write lock becomes free.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not hold the write lock.
    pub fn downgrade(&mut self, l: usize) -> VmResult<()> {
        self.yield_op(OpKind::RwDowngrade(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        assert_eq!(
            d.rwlocks[l].writer,
            Some(self.tid),
            "downgrade without exclusive hold"
        );
        // Write-side release edge, exactly as write_unlock publishes it:
        // later read_lock/write_lock acquires of id_w absorb this
        // thread's pre-downgrade knowledge.
        let lock = d.rwlocks[l].id_w;
        d.push_event(TraceEvent::Release {
            tid: VmData::tid16(self.tid),
            lock,
        });
        let tvc = d.threads[self.tid].vc.clone();
        d.rwlocks[l].write_vc.join(&tvc);
        d.increment_own(self.tid);
        // The swap to shared mode is atomic under the VM lock: no
        // write_lock can be granted between clearing the writer and
        // registering as a reader.
        d.rwlocks[l].writer = None;
        d.rwlocks[l].readers.push(self.tid);
        Ok(())
    }

    /// Attempts to acquire mutex `m` without blocking. On success the
    /// acquire edge is identical to [`lock`](Self::lock); on failure no
    /// happens-before edge is created and no trace event is recorded.
    ///
    /// The attempt itself is still a yield point (always enabled), so
    /// schedule exploration covers both outcomes.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn try_lock(&mut self, m: usize) -> VmResult<bool> {
        self.yield_op(OpKind::TryLock(m))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        if d.mutexes[m].owner.is_some() {
            return Ok(false);
        }
        d.mutexes[m].owner = Some(self.tid);
        let mvc = d.mutexes[m].vc.clone();
        d.threads[self.tid].vc.join(&mvc);
        let lock = d.mutexes[m].id;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(true)
    }

    /// Attempts a shared acquire of rwlock `l` without blocking (see
    /// [`try_lock`](Self::try_lock) for the edge semantics).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn try_read(&mut self, l: usize) -> VmResult<bool> {
        self.yield_op(OpKind::RwTryRead(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        if d.rwlocks[l].writer.is_some() {
            return Ok(false);
        }
        d.rwlocks[l].readers.push(self.tid);
        let wvc = d.rwlocks[l].write_vc.clone();
        d.threads[self.tid].vc.join(&wvc);
        let lock = d.rwlocks[l].id_w;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(true)
    }

    /// Attempts an exclusive acquire of rwlock `l` without blocking (see
    /// [`try_lock`](Self::try_lock) for the edge semantics).
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn try_write(&mut self, l: usize) -> VmResult<bool> {
        self.yield_op(OpKind::RwTryWrite(l))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        if d.rwlocks[l].writer.is_some() || !d.rwlocks[l].readers.is_empty() {
            return Ok(false);
        }
        d.rwlocks[l].writer = Some(self.tid);
        let wvc = d.rwlocks[l].write_vc.clone();
        d.threads[self.tid].vc.join(&wvc);
        let rvc = d.rwlocks[l].read_vc.clone();
        d.threads[self.tid].vc.join(&rvc);
        let (id_w, id_r) = (d.rwlocks[l].id_w, d.rwlocks[l].id_r);
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock: id_w,
        });
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock: id_r,
        });
        Ok(true)
    }

    /// Waits at barrier `b`; returns `true` for the episode's leader (the
    /// last arriver). All participants leave with the join of all arrival
    /// clocks.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn barrier_wait(&mut self, b: usize) -> VmResult<bool> {
        self.yield_op(OpKind::Barrier(b))?;
        let leader;
        {
            let mut guard = self.shared.data.lock();
            let d = &mut *guard;
            d.tick(self.tid);
            let lock = d.barriers[b].id;
            d.push_event(TraceEvent::Release {
                tid: VmData::tid16(self.tid),
                lock,
            });
            let tvc = d.threads[self.tid].vc.clone();
            d.barriers[b].arrivals_vc.join(&tvc);
            d.barriers[b].arrived.push(self.tid);
            if d.barriers[b].arrived.len() == d.barriers[b].parties {
                // Episode complete: publish the release clock and wake the
                // parked arrivers at the leader's deterministic time.
                let rel = d.barriers[b].arrivals_vc.clone();
                d.barriers[b].release_vc = rel;
                d.barriers[b].arrivals_vc.reset();
                let peers = std::mem::take(&mut d.barriers[b].arrived);
                let resume = d.kendo_counter(self.tid) + 1;
                for p in peers {
                    if p == self.tid {
                        continue;
                    }
                    debug_assert!(
                        matches!(d.threads[p].pending, Pending::BarrierBlocked(bb) if bb == b),
                        "barrier peer not parked at this barrier"
                    );
                    d.threads[p].pending = Pending::Op(OpKind::BarrierResume(b));
                    if let Some(h) = d.det_handles[p].as_mut() {
                        h.include(resume);
                    }
                }
                leader = true;
            } else {
                if let Some(h) = d.det_handles[self.tid].as_mut() {
                    h.exclude();
                }
                leader = false;
            }
        }
        if !leader {
            self.park(Pending::BarrierBlocked(b))?;
        }
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        let rel = d.barriers[b].release_vc.clone();
        d.threads[self.tid].vc.join(&rel);
        d.increment_own(self.tid);
        let lock = d.barriers[b].id;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(leader)
    }

    /// Releases `m`, waits on condvar `cv`, then re-acquires `m`. The
    /// caller must hold `m` and should re-check its predicate in a loop.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution — in that case
    /// `m` is **not** re-acquired.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not hold `m`.
    pub fn cond_wait(&mut self, cv: usize, m: usize) -> VmResult<()> {
        self.yield_op(OpKind::CvWait { cv, mutex: m })?;
        {
            let mut guard = self.shared.data.lock();
            let d = &mut *guard;
            d.tick(self.tid);
            assert_eq!(d.mutexes[m].owner, Some(self.tid), "cond_wait without hold");
            let lock = d.mutexes[m].id;
            d.push_event(TraceEvent::Release {
                tid: VmData::tid16(self.tid),
                lock,
            });
            let tvc = d.threads[self.tid].vc.clone();
            d.mutexes[m].vc.join(&tvc);
            d.increment_own(self.tid);
            d.mutexes[m].owner = None;
            d.condvars[cv].waiters.push_back((self.tid, m));
            if let Some(h) = d.det_handles[self.tid].as_mut() {
                h.exclude();
            }
        }
        self.park(Pending::CvBlocked(cv))?;
        // Woken: a signaller moved us to `CvReacquire(m)`; the grant means
        // the mutex is free now.
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        debug_assert!(
            d.mutexes[m].owner.is_none(),
            "granted reacquire on held mutex"
        );
        d.mutexes[m].owner = Some(self.tid);
        let mvc = d.mutexes[m].vc.clone();
        d.threads[self.tid].vc.join(&mvc);
        let lock = d.mutexes[m].id;
        d.push_event(TraceEvent::Acquire {
            tid: VmData::tid16(self.tid),
            lock,
        });
        Ok(())
    }

    /// Wakes the condvar's longest-waiting thread, if any. Call while
    /// holding the associated mutex.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn cond_signal(&mut self, cv: usize) -> VmResult<()> {
        self.yield_op(OpKind::CvSignal(cv))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let resume = d.kendo_counter(self.tid) + 1;
        if let Some((w, m)) = d.condvars[cv].waiters.pop_front() {
            debug_assert!(
                matches!(d.threads[w].pending, Pending::CvBlocked(c) if c == cv),
                "signalled waiter not parked on this condvar"
            );
            d.threads[w].pending = Pending::Op(OpKind::CvReacquire { mutex: m });
            if let Some(h) = d.det_handles[w].as_mut() {
                h.include(resume);
            }
        }
        Ok(())
    }

    /// Wakes all condvar waiters. Call while holding the associated mutex.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    pub fn cond_broadcast(&mut self, cv: usize) -> VmResult<()> {
        self.yield_op(OpKind::CvBroadcast(cv))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let resume = d.kendo_counter(self.tid) + 1;
        while let Some((w, m)) = d.condvars[cv].waiters.pop_front() {
            debug_assert!(
                matches!(d.threads[w].pending, Pending::CvBlocked(c) if c == cv),
                "broadcast waiter not parked on this condvar"
            );
            d.threads[w].pending = Pending::Op(OpKind::CvReacquire { mutex: m });
            if let Some(h) = d.det_handles[w].as_mut() {
                h.include(resume);
            }
        }
        Ok(())
    }

    /// Spawns a child virtual thread running `body`.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution.
    ///
    /// # Panics
    ///
    /// Panics if the configured thread capacity is exhausted.
    pub fn spawn(
        &mut self,
        body: impl FnOnce(&mut VCtx) -> VmResult<u64> + Send + 'static,
    ) -> VmResult<usize> {
        self.yield_op(OpKind::Spawn)?;
        let (child, grant_rx) = {
            let mut guard = self.shared.data.lock();
            let d = &mut *guard;
            d.tick(self.tid);
            let child = d.threads.len();
            assert!(
                child < d.cfg.max_threads,
                "thread capacity {} exhausted",
                d.cfg.max_threads
            );
            let ctid = VmData::tid16(child);
            // Fork edge: the child inherits the parent's knowledge and
            // starts its first SFR; the fork is a sync op for the parent.
            let mut cvc = d.threads[self.tid].vc.clone();
            cvc.set_clock(ctid, 0);
            cvc.increment(ctid).expect("fresh child clock");
            d.push_event(TraceEvent::Fork {
                parent: VmData::tid16(self.tid),
                child: ctid,
            });
            d.increment_own(self.tid);
            let (grant_tx, grant_rx) = channel();
            d.threads.push(VThread {
                pending: Pending::Op(OpKind::Start),
                vc: cvc,
                check: ThreadCheckState::new(),
                final_vc: None,
                result: None,
                panicked: false,
                grant_tx,
            });
            let parent_counter = d.kendo_counter(self.tid);
            let dh = d.kendo.register(ctid, parent_counter);
            if let Some(h) = d.det_handles[self.tid].as_mut() {
                h.advance();
            }
            d.det_handles.push(Some(dh));
            (child, grant_rx)
        };
        let shared = Arc::clone(&self.shared);
        let yield_tx = self.yield_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("vsched-{child}"))
            .spawn(move || vthread_main(shared, child, yield_tx, grant_rx, Box::new(body)))
            .expect("failed to spawn OS thread for virtual thread");
        self.shared.os_threads.lock().push(handle);
        Ok(child)
    }

    /// Joins child `t`, absorbing its happens-before knowledge, and
    /// returns its result value.
    ///
    /// # Errors
    ///
    /// [`Stop`] if the scheduler is stopping the execution, or if the
    /// child itself was stopped or panicked.
    pub fn join(&mut self, t: usize) -> VmResult<u64> {
        self.yield_op(OpKind::Join(t))?;
        let mut guard = self.shared.data.lock();
        let d = &mut *guard;
        d.tick(self.tid);
        let fvc = d.threads[t]
            .final_vc
            .clone()
            .expect("granted join on unfinished child");
        d.threads[self.tid].vc.join(&fvc);
        d.push_event(TraceEvent::Join {
            parent: VmData::tid16(self.tid),
            child: VmData::tid16(t),
        });
        d.increment_own(self.tid);
        d.threads[t].result.ok_or(Stop)
    }
}

/// Entry point of every virtual thread's OS thread.
fn vthread_main(
    shared: Arc<VmShared>,
    tid: usize,
    yield_tx: Sender<usize>,
    grant_rx: Receiver<()>,
    body: Body,
) {
    let mut ctx = VCtx {
        shared,
        tid,
        yield_tx,
        grant_rx,
    };
    // Initial park: the spawner registered us with `Op(Start)`.
    let res = if ctx.yield_tx.send(tid).is_err()
        || ctx.grant_rx.recv().is_err()
        || ctx.shared.data.lock().stop
    {
        Ok(Err(Stop))
    } else {
        catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
    };
    let mut d = ctx.shared.data.lock();
    let vc = d.threads[tid].vc.clone();
    d.threads[tid].final_vc = Some(vc);
    match res {
        Ok(Ok(v)) => d.threads[tid].result = Some(v),
        Ok(Err(Stop)) => {}
        Err(_) => d.threads[tid].panicked = true,
    }
    d.threads[tid].pending = Pending::Finished;
    // Drop the Kendo handle: the slot leaves turn arbitration for good.
    d.det_handles[tid] = None;
    drop(d);
    let _ = ctx.yield_tx.send(tid);
}

/// The outcome of one controlled execution.
#[derive(Debug)]
pub struct Execution {
    /// The full schedule taken (one thread id per yield point).
    pub schedule: Schedule,
    /// Per step: the chosen index into the enabled set and the enabled
    /// set's size — the DFS explorer's backtracking record.
    pub choice_log: Vec<(usize, usize)>,
    /// Per step: the granted thread and the operation it announced.
    pub ops: Vec<(usize, OpKind)>,
    /// The recorded event trace (CLTR-compatible).
    pub trace: Vec<TraceEvent>,
    /// CLEAN races flagged online, as `(event index, report)`.
    pub clean_races: Vec<(usize, RaceReport)>,
    /// Per-thread body results (`None` for stopped or panicked threads).
    pub results: Vec<Option<u64>>,
    /// Threads whose bodies panicked.
    pub panicked: Vec<usize>,
    /// No enabled thread remained while some were unfinished.
    pub deadlock: bool,
    /// The step bound cut the execution short.
    pub depth_limited: bool,
    /// Set by replay when the forced schedule diverged (strict mode).
    pub divergence: Option<usize>,
    /// Total yield points granted.
    pub steps: usize,
}

impl Execution {
    /// A deterministic digest of the observable execution (trace and
    /// results): two runs of the same program under the same schedule
    /// must produce equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in &self.trace {
            let (tag, a, b, c) = match *e {
                TraceEvent::Read { tid, addr, size } => {
                    (1, tid.raw() as u64, addr as u64, size as u64)
                }
                TraceEvent::Write { tid, addr, size } => {
                    (2, tid.raw() as u64, addr as u64, size as u64)
                }
                TraceEvent::Acquire { tid, lock } => (3, tid.raw() as u64, lock as u64, 0),
                TraceEvent::Release { tid, lock } => (4, tid.raw() as u64, lock as u64, 0),
                TraceEvent::Fork { parent, child } => {
                    (5, parent.raw() as u64, child.raw() as u64, 0)
                }
                TraceEvent::Join { parent, child } => {
                    (6, parent.raw() as u64, child.raw() as u64, 0)
                }
            };
            mix(tag);
            mix(a);
            mix(b);
            mix(c);
        }
        for r in &self.results {
            mix(r.map_or(u64::MAX, |v| v));
        }
        h
    }
}

/// Runs `program` once under the schedule chosen step-by-step by
/// `picker`, optionally installing `hook` on the execution's Kendo table.
///
/// # Panics
///
/// Panics if the VM harness itself wedges (a granted thread neither
/// parks nor finishes within the internal timeout) — that is a bug in
/// the VM, never a property of the explored program.
pub fn run_schedule(
    program: &ProgramFn,
    cfg: &VmConfig,
    picker: &mut dyn Picker,
    hook: Option<Arc<dyn SchedHook>>,
) -> Execution {
    let layout = EpochLayout::paper_default();
    assert!(
        cfg.max_threads <= layout.max_threads(),
        "max_threads exceeds epoch layout capacity"
    );
    let kendo = Arc::new(Kendo::new(cfg.max_threads));
    if let Some(h) = hook {
        kendo.set_hook(h);
    }
    let detector = CleanDetector::new(
        cfg.heap_cells * CELL_BYTES,
        DetectorConfig::new()
            .layout(layout)
            .check_plan(cfg.check_plan.clone()),
    );
    let (yield_tx, yield_rx) = channel::<usize>();
    let (root_grant_tx, root_grant_rx) = channel::<()>();

    // Root thread: resumes above retired clock 0 and enters its first SFR.
    let mut root_vc = VectorClock::new(cfg.max_threads, layout);
    root_vc
        .increment(ThreadId::new(0))
        .expect("fresh root clock");
    let root_handle = kendo.register(ThreadId::new(0), 0);

    let data = VmData {
        cfg: cfg.clone(),
        layout,
        heap: vec![0; cfg.heap_cells],
        threads: vec![VThread {
            pending: Pending::Op(OpKind::Start),
            vc: root_vc,
            check: ThreadCheckState::new(),
            final_vc: None,
            result: None,
            panicked: false,
            grant_tx: root_grant_tx,
        }],
        mutexes: Vec::new(),
        rwlocks: Vec::new(),
        barriers: Vec::new(),
        condvars: Vec::new(),
        next_lock_id: 0,
        trace: Vec::new(),
        clean_races: Vec::new(),
        stop: false,
        detector,
        kendo,
        det_handles: vec![Some(root_handle)],
    };
    let shared = Arc::new(VmShared {
        data: Mutex::new(data),
        os_threads: Mutex::new(Vec::new()),
    });

    let body = program();
    {
        let shared2 = Arc::clone(&shared);
        let ytx = yield_tx.clone();
        let handle = std::thread::Builder::new()
            .name("vsched-0".into())
            .spawn(move || vthread_main(shared2, 0, ytx, root_grant_rx, body))
            .expect("failed to spawn root OS thread");
        shared.os_threads.lock().push(handle);
    }

    let quiesce = |n: usize| {
        for _ in 0..n {
            yield_rx
                .recv_timeout(QUIESCE_TIMEOUT)
                .expect("sched VM wedged: granted thread neither parked nor finished");
        }
    };

    let mut schedule = Vec::new();
    let mut choice_log = Vec::new();
    let mut ops = Vec::new();
    let mut deadlock = false;
    let mut depth_limited = false;
    let mut steps = 0usize;
    let mut expect = 1usize;

    loop {
        quiesce(expect);
        let (enabled, all_finished, stopping, counters) = {
            let d = shared.data.lock();
            let enabled: Vec<usize> = (0..d.threads.len())
                .filter(|&i| is_enabled(&d, i))
                .collect();
            let all_finished = d
                .threads
                .iter()
                .all(|t| matches!(t.pending, Pending::Finished));
            let counters: Vec<u64> = (0..d.threads.len())
                .map(|i| d.kendo.published(ThreadId::new(i as u16)))
                .collect();
            (enabled, all_finished, d.stop, counters)
        };
        if all_finished {
            break;
        }
        if stopping {
            stop_all(&shared, &yield_rx);
            break;
        }
        if enabled.is_empty() {
            deadlock = true;
            stop_all(&shared, &yield_rx);
            break;
        }
        if steps >= cfg.max_steps {
            depth_limited = true;
            stop_all(&shared, &yield_rx);
            break;
        }
        let view = SchedView {
            kendo_published: &counters,
        };
        let idx = picker.pick(steps, &enabled, &view).min(enabled.len() - 1);
        let t = enabled[idx];
        let (grant_tx, op) = {
            let d = shared.data.lock();
            let op = match d.threads[t].pending {
                Pending::Op(op) => op,
                _ => unreachable!("enabled thread must announce an op"),
            };
            (d.threads[t].grant_tx.clone(), op)
        };
        schedule.push(t);
        choice_log.push((idx, enabled.len()));
        ops.push((t, op));
        expect = if matches!(op, OpKind::Spawn) { 2 } else { 1 };
        let _ = grant_tx.send(());
        steps += 1;
    }

    for h in shared.os_threads.lock().drain(..) {
        let _ = h.join();
    }

    let d = shared.data.lock();
    Execution {
        schedule: Schedule(schedule),
        choice_log,
        ops,
        trace: d.trace.clone(),
        clean_races: d.clean_races.clone(),
        results: d.threads.iter().map(|t| t.result).collect(),
        panicked: (0..d.threads.len())
            .filter(|&i| d.threads[i].panicked)
            .collect(),
        deadlock,
        depth_limited,
        divergence: None,
        steps,
    }
}

/// Aborts the execution: every parked, unfinished thread is granted once
/// with the stop flag set and unwinds through its `VmResult` chain.
fn stop_all(shared: &Arc<VmShared>, yield_rx: &Receiver<usize>) {
    let pending: Vec<Sender<()>> = {
        let mut d = shared.data.lock();
        d.stop = true;
        d.threads
            .iter()
            .filter(|t| !matches!(t.pending, Pending::Finished))
            .map(|t| t.grant_tx.clone())
            .collect()
    };
    for tx in &pending {
        let _ = tx.send(());
    }
    for _ in 0..pending.len() {
        let _ = yield_rx.recv_timeout(QUIESCE_TIMEOUT);
    }
}
