//! The software-only CLEAN runtime (Section 4): deterministic threads with
//! race-checked shared-memory accesses.

use crate::config::RuntimeConfig;
use crate::error::{CleanError, Result};
use crate::heap::{SharedArray, SharedHeap};
use crate::scalar::Scalar;
use clean_core::{
    CleanDetector, DetectorConfig, EventSink, LockId, RaceReport, RolloverCoordinator,
    ThreadCheckState, ThreadId, TraceEvent, VectorClock,
};
use clean_sync::{DetHandle, Kendo, ThreadRegistry};
use parking_lot::Mutex;
use std::sync::atomic::AtomicU32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared state of one monitored program execution.
pub(crate) struct RuntimeInner {
    pub(crate) config: RuntimeConfig,
    pub(crate) heap: SharedHeap,
    pub(crate) detector: Option<CleanDetector>,
    pub(crate) kendo: Arc<Kendo>,
    pub(crate) registry: ThreadRegistry,
    pub(crate) coordinator: RolloverCoordinator,
    pub(crate) poisoned: AtomicBool,
    first_race: Mutex<Option<RaceReport>>,
    /// Reset hooks of live synchronization objects: on a deterministic
    /// metadata reset (Section 4.5) every lock/barrier vector clock must be
    /// zeroed alongside the epochs and thread clocks.
    reset_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Final own-clock of the previous occupant of each thread-id slot;
    /// a reused id resumes above it so old epochs stay distinguishable
    /// (Section 4.5).
    retired: Mutex<Vec<u32>>,
    pub(crate) shared_reads: AtomicU64,
    pub(crate) shared_writes: AtomicU64,
    pub(crate) sync_ops: AtomicU64,
    finished_counter_sum: AtomicU64,
    finished_threads: AtomicU64,
    /// Execution event log (when `record_trace` is on or a sink was
    /// attached).
    trace: Option<TraceLog>,
    /// Allocator of lock/barrier ids for trace recording.
    next_lock_id: AtomicU32,
}

/// Destination of recorded execution events: either the in-memory log of
/// `RuntimeConfig::record_trace` (bounded-length test executions) or a
/// streaming [`EventSink`] (e.g. a `clean-trace` file writer) that can
/// absorb executions of unbounded length.
pub(crate) enum TraceLog {
    Memory(Mutex<Vec<TraceEvent>>),
    Sink(Box<dyn EventSink>),
}

impl RuntimeInner {
    /// The globally quiescent reset of Section 4.5: zero all epochs, all
    /// lock/barrier clocks and the retired-clock table. Thread vector
    /// clocks are reset by their owners inside the rendezvous.
    pub(crate) fn global_reset(&self) {
        if let Some(d) = &self.detector {
            d.reset_metadata();
        }
        for hook in self.reset_hooks.lock().iter() {
            hook();
        }
        for r in self.retired.lock().iter_mut() {
            *r = 0;
        }
    }

    pub(crate) fn register_reset_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        self.reset_hooks.lock().push(hook);
    }

    /// Records the first race and stops the execution.
    pub(crate) fn poison(&self, report: RaceReport) {
        let mut first = self.first_race.lock();
        if first.is_none() {
            *first = Some(report);
        }
        self.poisoned.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    pub(crate) fn retired_clock(&self, tid: ThreadId) -> u32 {
        self.retired.lock()[tid.index()]
    }

    pub(crate) fn set_retired_clock(&self, tid: ThreadId, clock: u32) {
        self.retired.lock()[tid.index()] = clock;
    }

    /// Appends an event to the execution log, if recording.
    #[inline]
    pub(crate) fn record(&self, event: TraceEvent) {
        match &self.trace {
            Some(TraceLog::Memory(t)) => t.lock().push(event),
            Some(TraceLog::Sink(s)) => s.record_event(&event),
            None => {}
        }
    }

    /// Allocates a fresh lock id for trace recording.
    pub(crate) fn alloc_lock_id(&self) -> LockId {
        self.next_lock_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn record_thread_exit(&self, final_counter: u64) {
        self.finished_counter_sum
            .fetch_add(final_counter, Ordering::Relaxed);
        self.finished_threads.fetch_add(1, Ordering::Relaxed);
    }
}

/// Services a pending deterministic metadata reset (Section 4.5) and
/// reports whether the execution is being stopped by a race exception.
/// Every spin loop in the runtime polls this.
pub(crate) fn poll_runtime(rt: &RuntimeInner, vc: &mut VectorClock) -> bool {
    if rt.detector.is_some() {
        rt.coordinator.sync_point(vc, || rt.global_reset());
    }
    rt.is_poisoned()
}

/// Aggregate statistics of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RuntimeStats {
    /// Shared read accesses performed.
    pub shared_reads: u64,
    /// Shared write accesses performed.
    pub shared_writes: u64,
    /// Synchronization operations performed.
    pub sync_ops: u64,
    /// Threads created over the execution.
    pub threads_created: u64,
    /// Deterministic metadata resets performed (Table 1).
    pub rollover_resets: u64,
    /// Sum of final deterministic counters of finished threads.
    pub final_counter_sum: u64,
    /// Detector counters, when detection was enabled.
    pub detector: Option<clean_core::StatsSnapshot>,
}

impl RuntimeStats {
    /// Total shared accesses (the Figure 7 numerator).
    pub fn shared_accesses(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// A deterministic digest of the execution: under deterministic
    /// synchronization two runs of the same program must produce equal
    /// digests (the Section 6.2.2 determinism check).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for v in [
            self.shared_reads,
            self.shared_writes,
            self.sync_ops,
            self.threads_created,
            self.final_counter_sum,
        ] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// The CLEAN runtime: owns the shared heap, the detector and the
/// deterministic scheduler, and runs monitored programs.
///
/// # Examples
///
/// Detecting a WAW race between two threads:
///
/// ```
/// use clean_runtime::{CleanRuntime, RuntimeConfig, CleanError};
///
/// let rt = CleanRuntime::new(RuntimeConfig::new().heap_size(4096).max_threads(4));
/// let x = rt.alloc_array::<u32>(1)?;
/// let result: Result<(), CleanError> = rt.run(|ctx| {
///     let t = ctx.spawn(move |child| child.write(&x, 0, 1u32))?;
///     ctx.write(&x, 0, 2u32)?; // unordered with the child's write: WAW
///     ctx.join(t)??;
///     Ok(())
/// });
/// assert!(matches!(result, Err(CleanError::Race(_))) || rt.first_race().is_some());
/// # Ok::<(), CleanError>(())
/// ```
pub struct CleanRuntime {
    inner: Arc<RuntimeInner>,
}

impl CleanRuntime {
    /// Creates a runtime with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` exceeds the epoch layout's thread capacity.
    pub fn new(config: RuntimeConfig) -> Self {
        let trace = config
            .record_trace
            .then(|| TraceLog::Memory(Mutex::new(Vec::new())));
        Self::build(config, trace)
    }

    /// Creates a runtime that streams every recorded execution event into
    /// `sink` instead of accumulating an in-memory log — the to-disk
    /// recording mode (pair with a `clean-trace` file sink). Implies
    /// recording regardless of `config.record_trace`;
    /// [`recorded_trace`](Self::recorded_trace) returns `None` in this
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` exceeds the epoch layout's thread capacity.
    pub fn with_trace_sink(config: RuntimeConfig, sink: Box<dyn EventSink>) -> Self {
        Self::build(config, Some(TraceLog::Sink(sink)))
    }

    fn build(config: RuntimeConfig, trace: Option<TraceLog>) -> Self {
        assert!(
            config.max_threads <= config.layout.max_threads(),
            "max_threads {} exceeds epoch layout capacity {}",
            config.max_threads,
            config.layout.max_threads()
        );
        let detector = config.detection.then(|| {
            let mut det = CleanDetector::new(
                config.heap_size,
                DetectorConfig::new()
                    .layout(config.layout)
                    .vectorized(config.vectorized)
                    .atomicity(config.atomicity)
                    .check_plan(config.check_plan.clone()),
            );
            if config.detector_obs {
                det.attach_obs(clean_core::DetectorObs::global());
            }
            det
        });
        CleanRuntime {
            inner: Arc::new(RuntimeInner {
                heap: SharedHeap::new(config.heap_size),
                detector,
                kendo: Arc::new(Kendo::new(config.max_threads)),
                registry: ThreadRegistry::new(config.max_threads),
                coordinator: RolloverCoordinator::new(),
                poisoned: AtomicBool::new(false),
                first_race: Mutex::new(None),
                reset_hooks: Mutex::new(Vec::new()),
                retired: Mutex::new(vec![0; config.max_threads]),
                shared_reads: AtomicU64::new(0),
                shared_writes: AtomicU64::new(0),
                sync_ops: AtomicU64::new(0),
                finished_counter_sum: AtomicU64::new(0),
                finished_threads: AtomicU64::new(0),
                trace,
                next_lock_id: AtomicU32::new(0),
                config,
            }),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.inner.config.clone()
    }

    /// Allocates a typed array in the shared heap.
    ///
    /// # Errors
    ///
    /// Returns [`CleanError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_array<T: Scalar>(&self, len: usize) -> Result<SharedArray<T>> {
        self.inner.heap.alloc_array(len)
    }

    /// The first detected race, if a race exception was raised.
    pub fn first_race(&self) -> Option<RaceReport> {
        *self.inner.first_race.lock()
    }

    /// The recorded execution trace, if `record_trace` was enabled —
    /// a serialization of every shared access and synchronization event,
    /// consumable by the `clean-baselines` analysis engines. `None` when
    /// recording streams to an [`EventSink`]
    /// (see [`with_trace_sink`](Self::with_trace_sink)).
    pub fn recorded_trace(&self) -> Option<Vec<TraceEvent>> {
        match &self.inner.trace {
            Some(TraceLog::Memory(t)) => Some(t.lock().clone()),
            _ => None,
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        let i = &self.inner;
        RuntimeStats {
            shared_reads: i.shared_reads.load(Ordering::Relaxed),
            shared_writes: i.shared_writes.load(Ordering::Relaxed),
            sync_ops: i.sync_ops.load(Ordering::Relaxed),
            threads_created: i.registry.total_created(),
            rollover_resets: i.coordinator.resets_performed(),
            final_counter_sum: i.finished_counter_sum.load(Ordering::Relaxed),
            detector: i.detector.as_ref().map(|d| d.stats()),
        }
    }

    pub(crate) fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }

    /// Installs a [`clean_sync::SchedHook`] on this runtime's Kendo table,
    /// observing every deterministic-counter publication and granted turn.
    ///
    /// This is the schedule-exploration hook: the `clean-sched` explorer
    /// uses it to record the deterministic grant sequence of an execution
    /// (which must be identical across runs of a race-free program) and to
    /// steer controlled schedules by logical time. At most one hook per
    /// runtime; returns `false` if one was already installed.
    pub fn set_sched_hook(&self, hook: Arc<dyn clean_sync::SchedHook>) -> bool {
        self.inner.kendo.set_hook(hook)
    }

    /// Runs a monitored program: `f` executes on the calling thread as the
    /// root monitored thread and may [`spawn`](ThreadCtx::spawn) children.
    ///
    /// All spawned threads must be joined before `f` returns.
    ///
    /// # Errors
    ///
    /// Returns [`CleanError::Race`] carrying the globally first race if a
    /// race exception stopped the execution (even if `f` itself returned
    /// `Ok`), or `f`'s own error.
    pub fn run<R>(&self, f: impl FnOnce(&mut ThreadCtx) -> Result<R>) -> Result<R> {
        let inner = &self.inner;
        let root_tid = inner
            .registry
            .allocate()
            .map_err(|e| CleanError::ThreadLimit {
                capacity: e.capacity,
            })?;
        inner.coordinator.register_thread();
        let vc = VectorClock::new(inner.config.max_threads, inner.config.layout);
        let det = inner
            .config
            .det_sync
            .then(|| inner.kendo.register(root_tid, 0));
        let mut ctx = ThreadCtx {
            rt: Arc::clone(inner),
            tid: root_tid,
            vc,
            det,
            local_reads: 0,
            local_writes: 0,
            check: ThreadCheckState::new(),
        };
        if inner.detector.is_some() {
            // Resume above the slot's previous life and enter the first SFR.
            let retired = inner.retired_clock(root_tid);
            ctx.vc.set_clock(root_tid, retired);
            ctx.increment_own();
        }
        let result = f(&mut ctx);
        // Root exit protocol (mirrors spawned-thread exit).
        ctx.flush_counters();
        let final_counter = ctx.det.as_ref().map(|d| d.counter()).unwrap_or(0);
        inner.record_thread_exit(final_counter);
        if inner.detector.is_some() {
            inner.set_retired_clock(root_tid, ctx.vc.clock_of(root_tid));
        }
        ctx.det = None; // drop the handle: excludes the Kendo slot
        inner.coordinator.deregister_thread();
        inner.registry.release(root_tid);
        // The race exception dominates any result.
        if let Some(r) = self.first_race() {
            return Err(CleanError::Race(r));
        }
        result
    }
}

impl std::fmt::Debug for CleanRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanRuntime")
            .field("config", &self.inner.config)
            .field("poisoned", &self.inner.is_poisoned())
            .finish()
    }
}

/// Everything a thread records at exit for its joiner.
struct FinalState {
    vc: VectorClock,
    counter: u64,
    /// Shadow generation the vector clock belongs to: if a deterministic
    /// reset intervened before the join, the clock is obsolete (Section
    /// 4.5) and the joiner must not absorb it.
    generation: u64,
}

/// Join hand-off state shared between parent and child (see
/// [`Kendo::publish_on_behalf`] for why the hand-off must be lock-ordered).
struct JoinShared {
    state: Mutex<JoinSync>,
    finished: AtomicBool,
}

struct JoinSync {
    finished: bool,
    parent_waiting: Option<ThreadId>,
    final_state: Option<FinalState>,
}

/// Handle to a monitored spawned thread; join it with
/// [`ThreadCtx::join`].
pub struct JoinHandle<R> {
    os: std::thread::JoinHandle<Result<R>>,
    tid: ThreadId,
    shared: Arc<JoinShared>,
}

impl<R> JoinHandle<R> {
    /// Deterministic thread id of the spawned thread.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }
}

impl<R> std::fmt::Debug for JoinHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

/// A monitored thread's execution context: the entry point for all shared
/// accesses, synchronization and thread management.
///
/// Obtained from [`CleanRuntime::run`] (root thread) or inside
/// [`ThreadCtx::spawn`] closures (children). All shared-memory reads and
/// writes must go through this context — that is the library-level
/// equivalent of the paper's compiler instrumentation of every potentially
/// shared access (Section 4.1).
pub struct ThreadCtx {
    pub(crate) rt: Arc<RuntimeInner>,
    pub(crate) tid: ThreadId,
    pub(crate) vc: VectorClock,
    pub(crate) det: Option<DetHandle>,
    /// Thread-local access counters, flushed into the runtime totals at
    /// thread exit (per-access shared atomics would put a contended cache
    /// line on the monitored program's fast path and distort the
    /// baseline).
    pub(crate) local_reads: u64,
    pub(crate) local_writes: u64,
    /// Per-thread fast-path check state (SFR write-set filter + batched
    /// check statistics); flushed on every epoch increment.
    pub(crate) check: ThreadCheckState,
}

impl ThreadCtx {
    /// This thread's deterministic id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// This thread's deterministic (Kendo) counter, or 0 when
    /// deterministic synchronization is disabled.
    pub fn det_counter(&self) -> u64 {
        self.det.as_ref().map(|d| d.counter()).unwrap_or(0)
    }

    /// Allocates a typed array in the shared heap.
    ///
    /// # Errors
    ///
    /// Returns [`CleanError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_array<T: Scalar>(&self, len: usize) -> Result<SharedArray<T>> {
        self.rt.heap.alloc_array(len)
    }

    /// Advances this thread's deterministic counter by `n` events — the
    /// library-level equivalent of the paper's basic-block instrumentation
    /// (Section 3.3). Workload kernels call this in their compute loops.
    #[inline]
    pub fn tick(&mut self, n: u64) {
        if let Some(d) = self.det.as_mut() {
            d.tick(n);
        }
    }

    #[inline]
    pub(crate) fn check_poison(&self) -> Result<()> {
        if self.rt.is_poisoned() {
            Err(CleanError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Flushes the thread-local access counters into the runtime totals
    /// and the batched filter-hit stats into the detector shards.
    pub(crate) fn flush_counters(&mut self) {
        if self.local_reads > 0 {
            self.rt
                .shared_reads
                .fetch_add(self.local_reads, Ordering::Relaxed);
            self.local_reads = 0;
        }
        if self.local_writes > 0 {
            self.rt
                .shared_writes
                .fetch_add(self.local_writes, Ordering::Relaxed);
            self.local_writes = 0;
        }
        if let Some(det) = self.rt.detector.as_ref() {
            det.drain_check_state(self.tid, &mut self.check);
        }
    }

    /// Services pending deterministic resets; returns poison status.
    pub(crate) fn poll(&mut self) -> bool {
        let ThreadCtx { rt, vc, .. } = self;
        poll_runtime(rt, vc)
    }

    /// Increments this thread's own vector-clock element, triggering a
    /// deterministic metadata reset first when the clock would roll over
    /// (Section 4.5). No-op when detection is disabled.
    pub(crate) fn increment_own(&mut self) {
        if self.rt.detector.is_none() {
            return;
        }
        if self.vc.at_rollover(self.tid) {
            self.rt.coordinator.request_reset();
        }
        self.poll();
        self.vc
            .increment(self.tid)
            .expect("clock fits after deterministic reset");
        // New SFR: ranges published under the previous epoch may now be
        // overwritten in an ordered way, so the write-set filter flushes
        // and the batched filter-hit stats drain into the shards.
        // (Entries would also self-invalidate via their epoch tag.)
        if let Some(det) = self.rt.detector.as_ref() {
            det.drain_check_state(self.tid, &mut self.check);
        }
        self.check.on_epoch_increment();
    }

    /// Reads element `i` of a shared array (race-checked).
    ///
    /// # Errors
    ///
    /// [`CleanError::Race`] if this read is a RAW race (the race
    /// exception), [`CleanError::Poisoned`] if the execution was already
    /// stopped.
    #[inline]
    pub fn read<T: Scalar>(&mut self, arr: &SharedArray<T>, i: usize) -> Result<T> {
        self.read_addr(arr.addr_of(i))
    }

    /// Writes element `i` of a shared array (race-checked).
    ///
    /// # Errors
    ///
    /// [`CleanError::Race`] if this write is a WAW race,
    /// [`CleanError::Poisoned`] if the execution was already stopped.
    #[inline]
    pub fn write<T: Scalar>(&mut self, arr: &SharedArray<T>, i: usize, value: T) -> Result<()> {
        self.write_addr(arr.addr_of(i), value)
    }

    /// Reads a scalar at byte address `addr` in the shared heap.
    ///
    /// The race check runs immediately *after* the load, per the
    /// Section 4.3 ordering that distinguishes RAW from WAR.
    ///
    /// # Errors
    ///
    /// See [`read`](Self::read).
    pub fn read_addr<T: Scalar>(&mut self, addr: usize) -> Result<T> {
        self.check_poison()?;
        self.local_reads += 1;
        // Deterministic counters advance with every instrumented access
        // (the paper's basic-block instrumentation, at byte granularity):
        // coarser counters would stall waiters for whole compute regions.
        if let Some(d) = self.det.as_mut() {
            d.tick(1);
        }
        let bits = self.rt.heap.load(addr, T::SIZE);
        self.rt.record(TraceEvent::Read {
            tid: self.tid,
            addr,
            size: T::SIZE,
        });
        if let Some(det) = &self.rt.detector {
            if let Err(r) = det.check_read_with(&self.vc, self.tid, addr, T::SIZE, &mut self.check)
            {
                self.rt.poison(r);
                return Err(CleanError::Race(r));
            }
        }
        Ok(T::from_bits(bits))
    }

    /// Writes a scalar at byte address `addr` in the shared heap.
    ///
    /// The race check (and epoch publication) runs *before* the store, per
    /// the Section 4.3 ordering.
    ///
    /// # Errors
    ///
    /// See [`write`](Self::write).
    pub fn write_addr<T: Scalar>(&mut self, addr: usize, value: T) -> Result<()> {
        self.check_poison()?;
        self.local_writes += 1;
        if let Some(d) = self.det.as_mut() {
            d.tick(1);
        }
        self.rt.record(TraceEvent::Write {
            tid: self.tid,
            addr,
            size: T::SIZE,
        });
        if let Some(det) = &self.rt.detector {
            if let Err(r) = det.check_write_with(&self.vc, self.tid, addr, T::SIZE, &mut self.check)
            {
                self.rt.poison(r);
                return Err(CleanError::Race(r));
            }
        }
        self.rt.heap.store(addr, T::SIZE, value.to_bits());
        Ok(())
    }

    /// Spawns a monitored child thread.
    ///
    /// Thread creation is a deterministic event: the child's id, initial
    /// vector clock and initial deterministic counter are all functions of
    /// program progress only (Section 3.3).
    ///
    /// # Errors
    ///
    /// [`CleanError::ThreadLimit`] when no thread ids are free,
    /// [`CleanError::Poisoned`] if the execution was stopped.
    pub fn spawn<R, F>(&mut self, f: F) -> Result<JoinHandle<R>>
    where
        F: FnOnce(&mut ThreadCtx) -> Result<R> + Send + 'static,
        R: Send + 'static,
    {
        self.check_poison()?;
        self.rt.sync_ops.fetch_add(1, Ordering::Relaxed);
        // Take the deterministic turn so id allocation is ordered.
        {
            let ThreadCtx { rt, vc, det, .. } = self;
            if let Some(h) = det.as_mut() {
                let rt = Arc::clone(rt);
                h.wait_for_turn(|| poll_runtime(&rt, vc))
                    .map_err(|_| CleanError::Poisoned)?;
            } else {
                poll_runtime(rt, vc);
            }
        }
        let child_tid = self
            .rt
            .registry
            .allocate()
            .map_err(|e| CleanError::ThreadLimit {
                capacity: e.capacity,
            })?;

        // Child vector clock: inherits the parent's knowledge (fork edge)
        // and resumes its own element above the slot's previous life.
        let child_vc = if self.rt.detector.is_some() {
            let retired = self.rt.retired_clock(child_tid);
            if self.rt.config.layout.at_rollover(retired) {
                // The reused slot's clock is exhausted: reset first.
                self.rt.coordinator.request_reset();
                self.poll();
            }
            let mut cvc = self.vc.clone();
            cvc.set_clock(child_tid, self.rt.retired_clock(child_tid));
            cvc.increment(child_tid)
                .expect("retired clock below rollover");
            // Fork is a sync operation for the parent too.
            self.increment_own();
            cvc
        } else {
            VectorClock::new(self.rt.config.max_threads, self.rt.config.layout)
        };

        // Register the child everywhere *before* it starts so rendezvous
        // and turn arbitration account for it from the first instruction.
        self.rt.coordinator.register_thread();
        let child_det = match self.det.as_mut() {
            Some(h) => {
                let handle = self.rt.kendo.register(child_tid, h.counter());
                h.advance();
                Some(handle)
            }
            None => None,
        };

        let shared = Arc::new(JoinShared {
            state: Mutex::new(JoinSync {
                finished: false,
                parent_waiting: None,
                final_state: None,
            }),
            finished: AtomicBool::new(false),
        });
        let shared2 = Arc::clone(&shared);
        let mut child_ctx = ThreadCtx {
            rt: Arc::clone(&self.rt),
            tid: child_tid,
            vc: child_vc,
            det: child_det,
            local_reads: 0,
            local_writes: 0,
            check: ThreadCheckState::new(),
        };

        self.rt.record(TraceEvent::Fork {
            parent: self.tid,
            child: child_tid,
        });
        let os = std::thread::Builder::new()
            .name(format!("clean-{child_tid}"))
            .spawn(move || {
                let result = f(&mut child_ctx);
                // Exit protocol: record the final state, hand off to a
                // waiting parent under the lock, then disappear.
                child_ctx.flush_counters();
                let final_counter = child_ctx.det.as_ref().map(|d| d.counter()).unwrap_or(0);
                let generation = child_ctx
                    .rt
                    .detector
                    .as_ref()
                    .map(|d| d.shadow().generation())
                    .unwrap_or(0);
                child_ctx.rt.record_thread_exit(final_counter);
                {
                    let mut js = shared2.state.lock();
                    js.final_state = Some(FinalState {
                        vc: child_ctx.vc.clone(),
                        counter: final_counter,
                        generation,
                    });
                    js.finished = true;
                    if let (Some(ptid), Some(d)) = (js.parent_waiting, child_ctx.det.as_ref()) {
                        // Make the parent visible at (a lower bound of) its
                        // resume time before we vanish.
                        d.kendo().publish_on_behalf(ptid, final_counter + 1);
                    }
                }
                child_ctx.det = None; // exclude the Kendo slot
                child_ctx.rt.coordinator.deregister_thread();
                shared2.finished.store(true, Ordering::Release);
                result
            })
            .expect("failed to spawn OS thread");

        Ok(JoinHandle {
            os,
            tid: child_tid,
            shared,
        })
    }

    /// Joins a monitored child thread, absorbing its happens-before
    /// knowledge and resuming at a deterministic counter.
    ///
    /// Returns the child's own result; a race detected *by the child* is
    /// therefore `Ok(Err(CleanError::Race(..)))` from the child's closure
    /// — use `??` to flatten.
    ///
    /// # Errors
    ///
    /// [`CleanError::Poisoned`] if the execution stopped while waiting.
    ///
    /// # Panics
    ///
    /// Propagates the child's panic, if any.
    pub fn join<R>(&mut self, handle: JoinHandle<R>) -> Result<Result<R>> {
        self.rt.sync_ops.fetch_add(1, Ordering::Relaxed);
        let js = &handle.shared;
        // Exclude while waiting so the child (and everyone else) can take
        // turns; the hand-off republishes us at child_final + 1.
        let mut excluded = false;
        if let Some(d) = self.det.as_ref() {
            let st = js.state.lock();
            if !st.finished {
                let mut st = st;
                st.parent_waiting = Some(self.tid);
                d.exclude();
                excluded = true;
            }
        }
        while !js.finished.load(Ordering::Acquire) {
            self.poll();
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        let fs = js
            .state
            .lock()
            .final_state
            .take()
            .expect("child recorded its final state");
        if let Some(det) = &self.rt.detector {
            if fs.generation == det.shadow().generation() {
                self.vc.join(&fs.vc);
                self.rt
                    .set_retired_clock(handle.tid, fs.vc.clock_of(handle.tid));
            } else {
                // A deterministic reset intervened: the child's clocks are
                // obsolete (and its slot's history is already zeroed).
                self.rt.set_retired_clock(handle.tid, 0);
            }
        }
        if let Some(d) = self.det.as_mut() {
            let resume = fs.counter + 1;
            if excluded {
                d.include(resume);
            } else {
                d.advance_to(resume);
            }
        }
        self.rt.record(TraceEvent::Join {
            parent: self.tid,
            child: handle.tid,
        });
        if self.rt.detector.is_some() {
            self.increment_own();
        }
        // Release the id deterministically (allocation order vs. release
        // order must not depend on physical timing).
        {
            let ThreadCtx { rt, vc, det, .. } = self;
            if let Some(h) = det.as_mut() {
                let rt2 = Arc::clone(rt);
                let _ = h.wait_for_turn(|| poll_runtime(&rt2, vc));
                rt.registry.release(handle.tid);
                h.advance();
            } else {
                rt.registry.release(handle.tid);
            }
        }
        match handle.os.join() {
            Ok(res) => Ok(res),
            Err(p) => std::panic::resume_unwind(p),
        }
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("tid", &self.tid)
            .field("det_counter", &self.det_counter())
            .finish()
    }
}
