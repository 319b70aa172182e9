//! Offline race analysis over stored traces: engine selection and the
//! one replay engine, [`Replay`].
//!
//! # The pipeline
//!
//! One producer — the caller's thread — walks the source in stream
//! order: an in-memory slice, or a [`TraceReader`] over the mmap'd bytes
//! of a file (a buffered file handle when the kernel refuses the
//! mapping). v1 and v2 files take the same path, so every chunk CRC and
//! the v2 footer are checked exactly as a plain read would check them.
//! The producer pre-shards events into one batch per lane: a sync event
//! goes to every lane, a memory event to each lane that owns one of the
//! [`SHARD_GRANULE`]-byte address granules it touches (granules go
//! round-robin). Each lane is one thread that owns one detector and
//! replays its batches in FIFO order off a bounded queue, clipping every
//! memory event to its own granules as it goes. A batch holds one entry
//! per event however large the access, so at most
//! `QUEUE_CAP × BATCH_EVENTS` decoded-but-unreplayed events wait per
//! lane. With one lane there are no threads and no queues: the producer
//! hands each batch straight to the single detector, which sees every
//! event unclipped — sequential replay is lane count 1 of the same code.
//!
//! The producer also counts each thread's clock increments and refuses
//! the event that would carry one past the engines' epoch layout, so no
//! engine ever meets a clock it cannot hold.
//!
//! # Why address sharding is exact
//!
//! Every analysis engine ([`TraceDetector`]) separates its state into
//! two disjoint halves:
//!
//! * **Synchronization state** (thread/lock vector clocks): mutated
//!   *only* by sync events (acquire/release/fork/join), never by memory
//!   events.
//! * **Per-location metadata** (epochs, read/write clocks, shadow
//!   cells): mutated *only* by memory events touching that location.
//!
//! So a lane that replays the *full* synchronization skeleton but only
//! the memory events landing in its own address shard has, at every
//! event index, exactly the sequential detector's state restricted to
//! its shard — sharded and sequential replay agree race-for-race. The
//! granule is a multiple of every engine's internal granularity
//! (TSan-like shadow cells use 8-byte granules), so no engine's location
//! state straddles two lanes. Each engine reports at most one race per
//! event (the first racy byte in address order), so the merge keeps, per
//! event index, the race with the lowest address — reproducing the
//! sequential "first racy byte" exactly.
//!
//! One caveat, checked empirically by the agreement tests: FastTrack
//! stops updating an access's remaining bytes after its first racy byte,
//! so an access that both *straddles a granule boundary* and *races in
//! the lower granule* could leave higher-granule bytes updated where
//! sequential replay left them alone. The workloads' racy accesses are
//! aligned word-size probes inside one granule, where the semantics
//! coincide.

use crate::error::{Result, TraceError};
use crate::mmap::map_file;
use crate::reader::TraceReader;
use crate::table::read_table;
use clean_baselines::{CleanEngine, FastTrack, FoundRace, TraceDetector, TsanLike, VcFullDetector};
use clean_core::{EpochLayout, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::sync_channel;

/// Address-shard granule in bytes. A multiple of the TSan-like engine's
/// 8-byte shadow granule so per-location state never crosses lanes.
pub const SHARD_GRANULE: usize = 64;

/// Source events per producer batch. Large enough to amortize queue
/// hand-offs, small enough that backpressure bounds memory at roughly
/// `lanes * QUEUE_CAP * BATCH_EVENTS` events.
const BATCH_EVENTS: u64 = 64 * 1024;

/// Maximum batches buffered per lane before the producer blocks.
const QUEUE_CAP: usize = 8;

/// Most thread slots a replay can have: every engine packs thread ids
/// into the paper's default epoch layout (8 bits, 256 threads).
pub const MAX_THREADS: usize = EpochLayout::paper_default().max_threads();

/// Most clock increments one thread can take in a replay: every engine
/// starts a thread's clock at 1 and packs it into the paper's default
/// epoch layout (23 bits).
pub const MAX_CLOCK_TICKS: u32 = EpochLayout::paper_default().max_clock() - 1;

/// Selectable offline analysis engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The CLEAN per-byte epoch engine (WAW/RAW only).
    Clean,
    /// FastTrack with adaptive read metadata (full WAW/RAW/WAR).
    FastTrack,
    /// Two-vector-clock reference detector (full, expensive).
    VcFull,
    /// TSan-like bounded shadow-cell detector (full, approximate).
    Tsan,
}

impl EngineKind {
    /// Every engine, in the order the CLI's `--engine all` reports.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Clean,
        EngineKind::FastTrack,
        EngineKind::VcFull,
        EngineKind::Tsan,
    ];

    /// The engine's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Clean => "clean",
            EngineKind::FastTrack => "fasttrack",
            EngineKind::VcFull => "vcfull",
            EngineKind::Tsan => "tsan",
        }
    }

    /// Parses a CLI engine name.
    pub fn parse(s: &str) -> Option<EngineKind> {
        Self::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Instantiates the engine for `threads` analysis threads.
    pub fn build(&self, threads: usize) -> Box<dyn TraceDetector + Send> {
        match self {
            EngineKind::Clean => Box::new(CleanEngine::new(threads)),
            EngineKind::FastTrack => Box::new(FastTrack::new(threads)),
            EngineKind::VcFull => Box::new(VcFullDetector::new(threads)),
            EngineKind::Tsan => Box::new(TsanLike::new(threads)),
        }
    }

    /// Whether the engine detects WAR races (CLEAN deliberately does
    /// not — Section 3.2).
    pub fn detects_war(&self) -> bool {
        !matches!(self, EngineKind::Clean)
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Analysis thread slots one event needs: its highest thread id, plus
/// one.
fn event_slots(ev: &TraceEvent) -> usize {
    let mut max = ev.tid().raw();
    if let TraceEvent::Fork { child, .. } | TraceEvent::Join { child, .. } = *ev {
        max = max.max(child.raw());
    }
    usize::from(max) + 1
}

/// Number of analysis thread slots a trace needs (highest thread id
/// observed, plus one).
pub fn required_threads(events: &[TraceEvent]) -> usize {
    events.iter().map(event_slots).max().unwrap_or(1)
}

/// Passes `slots` through if the engines can index that many threads,
/// and refuses it with [`TraceError::TooManyThreads`] otherwise.
fn fit_slots(slots: usize) -> Result<usize> {
    if slots > MAX_THREADS {
        return Err(TraceError::TooManyThreads {
            threads: slots,
            max: MAX_THREADS,
        });
    }
    Ok(slots)
}

/// Counts the clock increments sync event `ev` (index `event`) makes in
/// every engine's happens-before state — a release bumps the releasing
/// thread, a fork the parent and the child, a join the parent — and
/// refuses the event with [`TraceError::ClockOverflow`] if one would
/// carry a thread past [`MAX_CLOCK_TICKS`].
fn tick(ticks: &mut [u32], ev: &TraceEvent, event: u64) -> Result<()> {
    let (first, second) = match *ev {
        TraceEvent::Release { tid, .. } | TraceEvent::Join { parent: tid, .. } => (tid, None),
        TraceEvent::Fork { parent, child } => (parent, Some(child)),
        _ => return Ok(()),
    };
    for tid in std::iter::once(first).chain(second) {
        let count = &mut ticks[tid.index()];
        if *count == MAX_CLOCK_TICKS {
            return Err(TraceError::ClockOverflow {
                thread: tid.raw(),
                event,
            });
        }
        *count += 1;
    }
    Ok(())
}

/// Result of one streaming pass over a trace file: its sizing facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceScan {
    /// Number of events in the trace.
    pub events: u64,
    /// Analysis thread slots required (highest tid observed, plus one).
    pub threads: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// Scans a trace file, counting events and required thread slots.
///
/// On v2 traces this is O(footer): the chunk table records both totals,
/// so no events are decoded. v1 traces fall back to a full sequential
/// decode.
///
/// # Errors
///
/// Propagates I/O and decode errors (including a corrupt v2 table).
pub fn scan_trace(path: impl AsRef<Path>) -> Result<TraceScan> {
    let path = path.as_ref();
    let bytes = std::fs::metadata(path)?.len();
    if let Some(table) = read_table(path)? {
        return Ok(TraceScan {
            events: table.total_events,
            threads: table.threads as usize,
            bytes,
        });
    }
    let mut events = 0u64;
    let mut threads = 1usize;
    for ev in TraceReader::open(path)? {
        events += 1;
        threads = threads.max(event_slots(&ev?));
    }
    Ok(TraceScan {
        events,
        threads,
        bytes,
    })
}

/// One lane's share of a producer batch: `(event index, event)` pairs.
/// Memory events travel unclipped — one entry however many bytes they
/// cover — and the lane clips them as it replays.
type Batch = Vec<(usize, TraceEvent)>;

/// The address range of a memory event as `(addr, end, first granule,
/// last granule)`; `None` for a sync event, and for an access that
/// covers no byte or wraps the address space (the decoder refuses both,
/// so only a slice can hold one).
fn span(ev: &TraceEvent) -> Option<(usize, usize, usize, usize)> {
    let (TraceEvent::Read { addr, size, .. } | TraceEvent::Write { addr, size, .. }) = *ev else {
        return None;
    };
    let end = addr.checked_add(size)?;
    (size > 0).then(|| (addr, end, addr / SHARD_GRANULE, (end - 1) / SHARD_GRANULE))
}

/// Routes one event into the per-lane batches: a sync event to every
/// lane, a memory event to each lane that owns a granule of its range
/// (granules go round-robin, so at most `lanes` consecutive ones name
/// every owner). An access without a [`span`] goes nowhere — except
/// that the only lane takes every event, whatever it says.
fn shard_event(ev: &TraceEvent, idx: usize, out: &mut [Batch]) {
    let lanes = out.len();
    if lanes == 1 || !ev.is_memory() {
        out.iter_mut().for_each(|lane| lane.push((idx, *ev)));
    } else if let Some((.., first, last)) = span(ev) {
        for granule in first..=last.min(first + (lanes - 1)) {
            out[granule % lanes].push((idx, *ev));
        }
    }
}

/// Merges per-lane `(event index, race)` lists into the sequential
/// verdict: per event index every engine reports at most one race — the
/// first racy byte in address order — so the merge keeps the
/// lowest-address race of each event. One lane's list is the sequential
/// verdict already.
fn merge_shard_races(mut per_lane: Vec<Vec<(usize, FoundRace)>>) -> Vec<FoundRace> {
    if per_lane.len() == 1 {
        let only = per_lane.pop().expect("one lane");
        return only.into_iter().map(|(_, race)| race).collect();
    }
    let mut merged: BTreeMap<usize, FoundRace> = BTreeMap::new();
    for (idx, race) in per_lane.into_iter().flatten() {
        merged
            .entry(idx)
            .and_modify(|r| {
                if race.addr < r.addr {
                    *r = race;
                }
            })
            .or_insert(race);
    }
    merged.into_values().collect()
}

/// One lane: a detector, the granules it owns (`index` modulo `lanes`)
/// and the races it has found so far.
struct Lane {
    det: Box<dyn TraceDetector + Send>,
    index: usize,
    lanes: usize,
    found: Vec<(usize, FoundRace)>,
}

impl Lane {
    fn check(&mut self, idx: usize, ev: &TraceEvent) {
        for race in self.det.process(ev) {
            self.found.push((idx, race));
        }
    }

    /// Replays one batch: feeds the detector this lane's part of each
    /// event. The only lane takes every event as it is — exactly what a
    /// sequential replay feeds its detector — and so does one of several
    /// for a sync event or an access inside one granule, which was
    /// routed to its owner alone. An access that crosses granules is
    /// clipped to each one the lane owns.
    fn replay(&mut self, batch: &Batch) {
        for (idx, ev) in batch {
            let crossing = (self.lanes > 1).then(|| span(ev)).flatten();
            match crossing {
                Some(span) if span.2 != span.3 => self.clipped(*idx, ev, span),
                _ => self.check(*idx, ev),
            }
        }
    }

    fn clipped(&mut self, idx: usize, ev: &TraceEvent, span: (usize, usize, usize, usize)) {
        let (addr, end, first, last) = span;
        let mut granule = first + (self.index + self.lanes - first % self.lanes) % self.lanes;
        while granule <= last {
            let lo = addr.max(granule * SHARD_GRANULE);
            let hi = end.min((granule + 1).saturating_mul(SHARD_GRANULE));
            let (addr, size) = (lo, hi - lo);
            let piece = match *ev {
                TraceEvent::Read { tid, .. } => TraceEvent::Read { tid, addr, size },
                TraceEvent::Write { tid, .. } => TraceEvent::Write { tid, addr, size },
                _ => unreachable!("only memory events have a span"),
            };
            self.check(idx, &piece);
            granule += self.lanes;
        }
    }
}

/// The producer: walks `source` in stream order, routes every event and
/// hands each lane its batch through `deliver` once per [`BATCH_EVENTS`]
/// source events; a batch `deliver` leaves full is emptied for reuse.
/// Refuses an event that would overflow a thread's clock in the engines
/// (see [`tick`]) of a trace of `slots` threads. Stops early when
/// `deliver` reports a dead lane. Returns `(events, batches)` produced.
fn produce(
    source: impl Iterator<Item = Result<TraceEvent>>,
    slots: usize,
    lanes: usize,
    mut deliver: impl FnMut(usize, &mut Batch) -> bool,
) -> Result<(u64, u64)> {
    let mut group: Vec<Batch> = vec![Vec::new(); lanes];
    let mut flush = |group: &mut [Batch]| {
        group.iter_mut().enumerate().all(|(lane, batch)| {
            let alive = batch.is_empty() || deliver(lane, batch);
            batch.clear();
            alive
        })
    };
    let mut ticks = vec![0; slots];
    let (mut events, mut batches) = (0u64, 0u64);
    for ev in source {
        let ev = ev?;
        tick(&mut ticks, &ev, events)?;
        shard_event(&ev, events as usize, &mut group);
        events += 1;
        if events % BATCH_EVENTS == 0 {
            batches += 1;
            if !flush(&mut group) {
                return Ok((events, batches));
            }
        }
    }
    if events % BATCH_EVENTS != 0 {
        batches += 1;
        flush(&mut group);
    }
    Ok((events, batches))
}

/// What a replay produced. Only `races` is a verdict; the rest
/// describes how the replay ran, for the CLI and the benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed {
    /// Every race found, in event order — identical for any lane count.
    pub races: Vec<FoundRace>,
    /// Events replayed.
    pub events: u64,
    /// Producer batches issued.
    pub batches: u64,
    /// Whether a file source was read through an `mmap` view.
    pub used_mmap: bool,
}

/// The offline replay engine: one analysis engine over `lanes` address
/// shards, fed from a slice or a trace file (see the module docs).
///
/// ```
/// use clean_trace::{EngineKind, Replay};
/// use clean_core::{ThreadId, TraceEvent};
///
/// let events = [
///     TraceEvent::Write { tid: ThreadId::new(0), addr: 64, size: 4 },
///     TraceEvent::Write { tid: ThreadId::new(1), addr: 64, size: 4 },
/// ];
/// let replay = Replay::new(EngineKind::Clean);
/// assert_eq!(replay.events(&events)?.races, replay.lanes(4).events(&events)?.races);
/// # Ok::<(), clean_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    kind: EngineKind,
    lanes: usize,
}

impl Replay {
    /// A sequential (one-lane) replay through `kind`.
    pub fn new(kind: EngineKind) -> Self {
        Replay { kind, lanes: 1 }
    }

    /// Sets the lane count: `lanes` detector threads, each owning the
    /// address granules congruent to its index. One lane replays inline
    /// on the caller's thread. The verdict does not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        self.lanes = lanes;
        self
    }

    /// Replays an in-memory trace.
    ///
    /// # Errors
    ///
    /// [`TraceError::TooManyThreads`] if the events name more than
    /// [`MAX_THREADS`] threads, [`TraceError::ClockOverflow`] if they
    /// synchronize one thread more than [`MAX_CLOCK_TICKS`] times.
    ///
    /// # Panics
    ///
    /// Panics if a lane thread panics.
    pub fn events(&self, events: &[TraceEvent]) -> Result<Replayed> {
        let slots = fit_slots(required_threads(events))?;
        self.run(slots, events.iter().map(|ev| Ok(*ev)), false)
    }

    /// Replays a trace file of either format version without loading it
    /// into memory. The thread-slot count comes from the v2 chunk table,
    /// or from one extra scan pass on v1 files.
    ///
    /// # Errors
    ///
    /// Any I/O or decode error — a chunk failing its CRC, a damaged v2
    /// footer, a malformed event — wherever in the file it sits,
    /// [`TraceError::TooManyThreads`] past [`MAX_THREADS`] and
    /// [`TraceError::ClockOverflow`] past [`MAX_CLOCK_TICKS`]. A file
    /// that fails to decode never yields a verdict.
    ///
    /// # Panics
    ///
    /// Panics if a lane thread panics.
    pub fn file(&self, path: impl AsRef<Path>) -> Result<Replayed> {
        let path = path.as_ref();
        let slots = fit_slots(scan_trace(path)?.threads)?;
        // The detectors index per-thread state by thread id: a file
        // whose table understates its thread count must not reach them.
        let in_table = move |ev: Result<TraceEvent>| match ev {
            Ok(ev) if event_slots(&ev) > slots => Err(TraceError::BadTable {
                reason: "event thread id exceeds the table's thread count",
            }),
            other => other,
        };
        match map_file(path)? {
            Some(mapped) => {
                let reader = TraceReader::new(mapped.bytes())?;
                self.run(slots, reader.map(in_table), true)
            }
            None => self.run(slots, TraceReader::open(path)?.map(in_table), false),
        }
    }

    fn run(
        &self,
        slots: usize,
        source: impl Iterator<Item = Result<TraceEvent>>,
        used_mmap: bool,
    ) -> Result<Replayed> {
        let new_lane = |index| Lane {
            det: self.kind.build(slots),
            index,
            lanes: self.lanes,
            found: Vec::new(),
        };
        let (per_lane, produced) = if self.lanes == 1 {
            // Decoding a batch and then checking it keeps each loop hot:
            // it beats feeding the detector event by event.
            let mut lane = new_lane(0);
            let produced = produce(source, slots, 1, |_, batch| {
                lane.replay(batch);
                true
            });
            (vec![lane.found], produced)
        } else {
            std::thread::scope(|scope| {
                let (queues, handles): (Vec<_>, Vec<_>) = (0..self.lanes)
                    .map(|index| {
                        let (tx, rx) = sync_channel::<Batch>(QUEUE_CAP);
                        let handle = scope.spawn(move || {
                            let mut lane = new_lane(index);
                            for batch in rx {
                                lane.replay(&batch);
                            }
                            lane.found
                        });
                        (tx, handle)
                    })
                    .unzip();
                let produced = produce(source, slots, self.lanes, |lane, batch| {
                    queues[lane].send(std::mem::take(batch)).is_ok()
                });
                // Hanging up the queues — after a decode error too — is
                // what lets every lane drain and exit.
                drop(queues);
                let per_lane = handles
                    .into_iter()
                    .map(|h| h.join().expect("replay lane panicked"))
                    .collect();
                (per_lane, produced)
            })
        };
        let (events, batches) = produced?;
        Ok(Replayed {
            races: merge_shard_races(per_lane),
            events,
            batches,
            used_mmap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_core::ThreadId;
    use std::sync::{Arc, Mutex};

    /// A detector that only writes down what it is fed.
    struct Tap(Arc<Mutex<Vec<TraceEvent>>>);

    impl TraceDetector for Tap {
        fn name(&self) -> &'static str {
            "tap"
        }
        fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace> {
            self.0.lock().unwrap().push(*event);
            Vec::new()
        }
        fn reset(&mut self) {}
        fn metadata_bytes(&self) -> usize {
            0
        }
    }

    /// What each of `lanes` lanes feeds its detector for `ev`, after
    /// routing: `(entries routed to the lane, pieces it replayed)`.
    fn fed(ev: &TraceEvent, lanes: usize) -> Vec<(usize, Vec<TraceEvent>)> {
        let mut out = vec![Batch::new(); lanes];
        shard_event(ev, 9, &mut out);
        out.iter()
            .enumerate()
            .map(|(index, batch)| {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let mut lane = Lane {
                    det: Box::new(Tap(seen.clone())),
                    index,
                    lanes,
                    found: Vec::new(),
                };
                assert!(batch.iter().all(|(idx, _)| *idx == 9));
                lane.replay(batch);
                let seen = seen.lock().unwrap().clone();
                (batch.len(), seen)
            })
            .collect()
    }

    #[test]
    fn routing_and_clipping_partition_the_range() {
        // Every byte of any range reaches exactly one lane — the one
        // that owns its granule — each piece stays inside a granule, and
        // a lane gets one batch entry exactly when it owns a piece.
        for lanes in 2..=5 {
            for (addr, size) in [(0, 1), (63, 2), (100, 300), (4096, 64), (7, 777)] {
                let ev = TraceEvent::Read {
                    tid: ThreadId::new(1),
                    addr,
                    size,
                };
                let mut owners = vec![0u32; size];
                for (lane, (routed, pieces)) in fed(&ev, lanes).into_iter().enumerate() {
                    assert_eq!(routed, usize::from(!pieces.is_empty()));
                    for piece in pieces {
                        let TraceEvent::Read {
                            tid,
                            addr: a,
                            size: s,
                        } = piece
                        else {
                            panic!("a read was clipped into {piece:?}");
                        };
                        assert_eq!(tid, ThreadId::new(1));
                        assert!(s > 0 && a >= addr && a + s <= addr + size);
                        assert_eq!(a / SHARD_GRANULE, (a + s - 1) / SHARD_GRANULE);
                        assert_eq!(a / SHARD_GRANULE % lanes, lane);
                        for b in a..a + s {
                            owners[b - addr] += 1;
                        }
                    }
                }
                assert!(
                    owners.iter().all(|&c| c == 1),
                    "{lanes} lanes, {addr}+{size}"
                );
            }
        }
    }

    #[test]
    fn a_huge_access_is_one_batch_entry_per_lane() {
        // 2^45 bytes is 2^39 granules; routing must not count them.
        let ev = TraceEvent::Write {
            tid: ThreadId::new(0),
            addr: 0,
            size: 1 << 45,
        };
        let mut out = vec![Batch::new(); 3];
        shard_event(&ev, 0, &mut out);
        assert_eq!(out, vec![vec![(0, ev)]; 3]);
    }

    #[test]
    fn the_edges_of_the_address_space() {
        let write = |addr, size| TraceEvent::Write {
            tid: ThreadId::new(0),
            addr,
            size,
        };
        let pieces = |ev: &TraceEvent, lanes: usize| {
            fed(ev, lanes)
                .into_iter()
                .flat_map(|(_, pieces)| pieces)
                .collect::<Vec<_>>()
        };
        // One lane: whole and untouched, whatever the event says.
        assert_eq!(pieces(&write(60, 8), 1), [write(60, 8)]);
        assert_eq!(pieces(&write(0, 0), 1), [write(0, 0)]);
        // Several lanes: an empty or wrapping access goes nowhere, one
        // that ends at the very top is clipped like any other.
        assert_eq!(pieces(&write(0, 0), 2), []);
        assert_eq!(pieces(&write(usize::MAX - 3, 8), 2), []);
        assert_eq!(
            pieces(&write(usize::MAX - 65, 65), 2),
            [write(usize::MAX - 65, 2), write(usize::MAX - 63, 63)]
        );
        // A sync event reaches every lane.
        let acquire = TraceEvent::Acquire {
            tid: ThreadId::new(0),
            lock: 1,
        };
        assert_eq!(pieces(&acquire, 3), [acquire; 3]);
    }

    #[test]
    fn required_threads_counts_forked_children() {
        let events = vec![TraceEvent::Fork {
            parent: ThreadId::new(0),
            child: ThreadId::new(7),
        }];
        assert_eq!(required_threads(&events), 8);
        assert_eq!(required_threads(&[]), 1);
    }
}
