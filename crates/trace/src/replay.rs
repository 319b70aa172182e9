//! Offline race analysis over stored traces: engine selection and the
//! one replay engine, [`Replay`].
//!
//! # The pipeline
//!
//! Two stages. The producer — the caller's thread — walks the source in
//! stream order: an in-memory slice, or a [`TraceReader`] over a
//! buffered file handle — the one way this crate reads a trace file — so
//! every chunk CRC and the footer are checked exactly as a plain read
//! would check them. It refuses what no engine can hold (a clock past
//! the engines' epoch layout, a thread past the table's count) and
//! appends each event once to a shared batch. Every `BATCH_EVENTS`
//! source events it hands the same batch, with the index of its first
//! event, to every lane.
//!
//! Each lane is one thread that owns one detector and replays the
//! batches in FIFO order off a bounded queue. It takes every sync event,
//! and of the memory events only its part: the [`SHARD_GRANULE`]-byte
//! address granules go round-robin, so lane `i` of `n` owns the granules
//! congruent to `i` modulo `n`, and an access that crosses granules is
//! clipped to each one the lane owns. The lane's detector sees its
//! granules packed end to end — granule `g` at lane-local granule
//! `g / n` — so its page table holds only the lane's own bytes, and `n`
//! lanes hold one table's worth between them. One lane is the same: a
//! thread behind the producer, taking every event as it is — exactly
//! what a sequential replay feeds its detector — so decoding overlaps
//! checking at every lane count, and sequential replay is lane count 1
//! of the same code. The last lane through a batch hands its allocation back to the
//! producer for reuse, and at most `QUEUE_CAP` batches wait for the
//! slowest lane, so decoded-but-unreplayed events stay bounded by
//! `QUEUE_CAP × BATCH_EVENTS` whatever the lane count.
//!
//! The producer is a stage of its own, so it counts as a core:
//! [`default_lanes`] leaves it one.
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
//! state straddles two lanes; packing a lane's granules keeps each
//! byte's offset in its granule, so it only renames locations, one to
//! one and in address order inside a granule. Each engine checks and
//! updates every byte of an access, racy or not, and reports at most one
//! race per event (the first racy byte in address order), so the merge
//! keeps, per event index, the race with the lowest address —
//! reproducing the sequential "first racy byte" exactly.

use crate::error::{Result, TraceError};
use crate::reader::TraceReader;
use crate::table::read_table;
use clean_baselines::{CleanEngine, FastTrack, FoundRace, TraceDetector, TsanLike, VcFullDetector};
use clean_core::{EpochLayout, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{channel, sync_channel};
use std::sync::Arc;

/// Address-shard granule in bytes. A multiple of the TSan-like engine's
/// 8-byte shadow granule so per-location state never crosses lanes.
pub const SHARD_GRANULE: usize = 64;

/// Source events per producer batch. Large enough to amortize queue
/// hand-offs, small enough that backpressure bounds memory at roughly
/// `QUEUE_CAP * BATCH_EVENTS` events.
const BATCH_EVENTS: usize = 64 * 1024;

/// Most shared batches waiting for the slowest lane before the producer
/// blocks.
const QUEUE_CAP: usize = 2;

/// Most thread slots a replay can have: every engine packs thread ids
/// into the paper's default epoch layout (8 bits, 256 threads).
pub const MAX_THREADS: usize = EpochLayout::paper_default().max_threads();

/// Most clock increments one thread can take in a replay: every engine
/// starts a thread's clock at 1 and packs it into the paper's default
/// epoch layout (23 bits).
pub const MAX_CLOCK_TICKS: u32 = EpochLayout::paper_default().max_clock() - 1;

/// The lane count a replay uses unless told otherwise: one lane per
/// core beside the producer's, at least one and at most eight. The
/// producer decodes on a core of its own, so on two cores one lane beats
/// two.
pub fn default_lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get() - 1)
        .clamp(1, 8)
}

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
/// This is O(footer): the chunk table records both totals, so no
/// events are decoded.
///
/// # Errors
///
/// Propagates I/O errors, a foreign header and a corrupt chunk table.
pub fn scan_trace(path: impl AsRef<Path>) -> Result<TraceScan> {
    let path = path.as_ref();
    let bytes = std::fs::metadata(path)?.len();
    let table = read_table(path)?;
    Ok(TraceScan {
        events: table.total_events,
        threads: table.threads as usize,
        bytes,
    })
}

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

    /// The first granule in `first..=last` this lane owns, if any —
    /// found without counting the granules between.
    fn first_owned(&self, first: usize, last: usize) -> Option<usize> {
        let skip = (self.index + self.lanes - first % self.lanes) % self.lanes;
        (skip <= last - first).then(|| first + skip)
    }

    /// Replays one shared batch whose first event has index `base`: feeds
    /// the detector this lane's part of each event. The only lane takes
    /// every event as it is — exactly what a sequential replay feeds its
    /// detector — and so does one of several for a sync event. An access
    /// is clipped to each granule the lane owns; one without a [`span`]
    /// is no lane's.
    fn replay(&mut self, base: usize, batch: &[TraceEvent]) {
        for (idx, ev) in (base..).zip(batch) {
            if self.lanes == 1 || !ev.is_memory() {
                self.check(idx, ev);
            } else if let Some(span) = span(ev) {
                if let Some(granule) = self.first_owned(span.2, span.3) {
                    self.clipped(idx, ev, span, granule);
                }
            }
        }
    }

    /// Feeds the detector each piece of `ev` that falls in a granule this
    /// lane owns, from `granule` — the first of them — on, at its
    /// [`local`](Self::local) address; a race comes back at the address
    /// in the trace.
    fn clipped(
        &mut self,
        idx: usize,
        ev: &TraceEvent,
        (addr, end, _, last): (usize, usize, usize, usize),
        mut granule: usize,
    ) {
        while granule <= last {
            let lo = addr.max(granule * SHARD_GRANULE);
            let hi = end.min((granule + 1).saturating_mul(SHARD_GRANULE));
            let (addr, size) = (self.local(lo), hi - lo);
            let piece = match *ev {
                TraceEvent::Read { tid, .. } => TraceEvent::Read { tid, addr, size },
                TraceEvent::Write { tid, .. } => TraceEvent::Write { tid, addr, size },
                _ => unreachable!("only memory events have a span"),
            };
            for mut race in self.det.process(&piece) {
                race.addr = self.global(race.addr);
                self.found.push((idx, race));
            }
            granule += self.lanes;
        }
    }

    /// The address this lane's detector sees for `addr`, in a granule the
    /// lane owns: the lane's granules packed end to end, so its detector
    /// tables hold the lane's own bytes and no page of its neighbours'.
    fn local(&self, addr: usize) -> usize {
        addr / SHARD_GRANULE / self.lanes * SHARD_GRANULE + addr % SHARD_GRANULE
    }

    /// The trace address of `local`, the inverse of [`local`](Self::local).
    fn global(&self, local: usize) -> usize {
        let granule = local / SHARD_GRANULE * self.lanes + self.index;
        granule * SHARD_GRANULE + local % SHARD_GRANULE
    }
}

/// The producer: walks `source` in stream order, appends every event to
/// one batch and hands it over through `deliver` — with the index of its
/// first event — once per [`BATCH_EVENTS`] source events. `deliver`
/// returns an empty batch to fill next, or `None` for a dead lane, which
/// stops the producer early. Refuses an event that would overflow a
/// thread's clock in the engines (see [`tick`]) of a trace of `slots`
/// threads. Returns `(events, batches)` produced.
fn produce(
    source: impl Iterator<Item = Result<TraceEvent>>,
    slots: usize,
    mut deliver: impl FnMut(usize, Vec<TraceEvent>) -> Option<Vec<TraceEvent>>,
) -> Result<(u64, u64)> {
    let mut ticks = vec![0; slots];
    let mut batch = Vec::with_capacity(BATCH_EVENTS);
    let (mut events, mut batches) = (0u64, 0u64);
    for ev in source {
        let ev = ev?;
        tick(&mut ticks, &ev, events)?;
        batch.push(ev);
        events += 1;
        if batch.len() == BATCH_EVENTS {
            batches += 1;
            let base = events as usize - BATCH_EVENTS;
            match deliver(base, batch) {
                Some(next) => batch = next,
                None => return Ok((events, batches)),
            }
        }
    }
    if !batch.is_empty() {
        batches += 1;
        deliver(events as usize - batch.len(), batch);
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

    /// Sets the lane count: `lanes` detector threads behind the caller's
    /// thread, which decodes; each lane owns the address granules
    /// congruent to its index. The verdict does not depend on it.
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
        self.run(slots, events.iter().map(|ev| Ok(*ev)))
    }

    /// Replays a trace file without loading it into memory: one
    /// [`TraceReader`] streams it through a buffered file handle, one
    /// chunk in memory at a time. The thread-slot count comes from the
    /// chunk table.
    ///
    /// # Errors
    ///
    /// Any I/O or decode error — a chunk failing its CRC, a damaged
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
        self.run(slots, TraceReader::open(path)?.map(in_table))
    }

    fn run(
        &self,
        slots: usize,
        source: impl Iterator<Item = Result<TraceEvent>>,
    ) -> Result<Replayed> {
        let new_lane = |index| Lane {
            det: self.kind.build(slots),
            index,
            lanes: self.lanes,
            found: Vec::new(),
        };
        let (per_lane, produced) = std::thread::scope(|scope| {
            // Spent batches come back here from the last lane through them.
            let (spent, free) = channel::<Vec<TraceEvent>>();
            let (queues, handles): (Vec<_>, Vec<_>) = (0..self.lanes)
                .map(|index| {
                    let (tx, rx) = sync_channel::<(usize, Arc<Vec<TraceEvent>>)>(QUEUE_CAP);
                    let spent = spent.clone();
                    let handle = scope.spawn(move || {
                        let mut lane = new_lane(index);
                        for (base, batch) in rx {
                            lane.replay(base, &batch);
                            if let Some(mut batch) = Arc::into_inner(batch) {
                                batch.clear();
                                // A producer that has stopped takes no more.
                                let _ = spent.send(batch);
                            }
                        }
                        lane.found
                    });
                    (tx, handle)
                })
                .unzip();
            let (last, others) = queues.split_last().expect("at least one lane");
            let produced = produce(source, slots, |base, batch| {
                // The producer keeps no handle on a batch it has sent, so
                // the last lane to finish one can hand it back.
                let batch = Arc::new(batch);
                let sent = others.iter().all(|q| q.send((base, batch.clone())).is_ok())
                    && last.send((base, batch)).is_ok();
                sent.then(|| {
                    free.try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(BATCH_EVENTS))
                })
            });
            // Hanging up the queues — after a decode error too — is what
            // lets every lane drain and exit.
            drop(queues);
            let per_lane = handles
                .into_iter()
                .map(|h| h.join().expect("replay lane panicked"))
                .collect();
            (per_lane, produced)
        });
        let (events, batches) = produced?;
        Ok(Replayed {
            races: merge_shard_races(per_lane),
            events,
            batches,
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

    fn lane(index: usize, lanes: usize, seen: &Arc<Mutex<Vec<TraceEvent>>>) -> Lane {
        Lane {
            det: Box::new(Tap(seen.clone())),
            index,
            lanes,
            found: Vec::new(),
        }
    }

    /// What each of `lanes` lanes feeds its detector when a batch holding
    /// only `ev` reaches it, as it sees it: at lane-local addresses.
    fn fed_local(ev: &TraceEvent, lanes: usize) -> Vec<Vec<TraceEvent>> {
        (0..lanes)
            .map(|index| {
                let seen = Arc::new(Mutex::new(Vec::new()));
                lane(index, lanes, &seen).replay(9, &[*ev]);
                let seen = seen.lock().unwrap().clone();
                seen
            })
            .collect()
    }

    /// [`fed_local`], each access put back at its address in the trace.
    fn fed(ev: &TraceEvent, lanes: usize) -> Vec<Vec<TraceEvent>> {
        let mut fed = fed_local(ev, lanes);
        for (index, pieces) in fed.iter_mut().enumerate() {
            let lane = lane(index, lanes, &Arc::default());
            for piece in pieces {
                if let TraceEvent::Read { addr, .. } | TraceEvent::Write { addr, .. } = piece {
                    *addr = lane.global(*addr);
                }
            }
        }
        fed
    }

    #[test]
    fn a_lane_sees_its_granules_packed_end_to_end() {
        let write = |addr, size| TraceEvent::Write {
            tid: ThreadId::new(0),
            addr,
            size,
        };
        // Of four lanes, lane 2 owns granule 42 = 10 * 4 + 2 as its
        // eleventh; the only lane sees every address as it is.
        let g = SHARD_GRANULE;
        let fed = fed_local(&write(42 * g + 5, 3), 4);
        assert_eq!(fed[2], [write(10 * g + 5, 3)]);
        assert_eq!(
            fed_local(&write(42 * g + 5, 3), 1),
            [[write(42 * g + 5, 3)]]
        );
        // The top granule of the address space, at every owner.
        for lanes in 2..=5 {
            let lane = lane(usize::MAX / g % lanes, lanes, &Arc::default());
            assert_eq!(lane.global(lane.local(usize::MAX)), usize::MAX);
        }
    }

    #[test]
    fn the_lane_filter_partitions_the_range() {
        // Every byte of any range reaches exactly one lane — the one
        // that owns its granule — each piece stays inside a granule, and
        // a lane owns a granule of the range exactly when it gets a piece.
        for lanes in 2..=5 {
            for (addr, size) in [(0, 1), (63, 2), (100, 300), (4096, 64), (7, 777)] {
                let ev = TraceEvent::Read {
                    tid: ThreadId::new(1),
                    addr,
                    size,
                };
                let (.., first, last) = span(&ev).unwrap();
                let mut owners = vec![0u32; size];
                for (index, pieces) in fed(&ev, lanes).into_iter().enumerate() {
                    let owns = lane(index, lanes, &Arc::default()).first_owned(first, last);
                    assert_eq!(owns.is_some(), !pieces.is_empty());
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
                        assert_eq!(a / SHARD_GRANULE % lanes, index);
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
    fn a_huge_access_decides_ownership_without_counting_granules() {
        // 2^45 bytes is 2^39 granules; the lane filter must not count
        // them to know that every lane owns some.
        let ev = TraceEvent::Write {
            tid: ThreadId::new(0),
            addr: 0,
            size: 1 << 45,
        };
        let (.., first, last) = span(&ev).unwrap();
        assert_eq!((first, last), (0, (1 << 39) - 1));
        for index in 0..3 {
            let owns = lane(index, 3, &Arc::default()).first_owned(first, last);
            assert_eq!(owns, Some(index));
        }
        // A span shorter than the lane count, at the top of the address
        // space: its two granules' owners take one each, the rest none.
        let top = usize::MAX / SHARD_GRANULE;
        for index in 0..4 {
            let owns = lane(index, 4, &Arc::default()).first_owned(top - 1, top);
            assert_eq!(owns, [top - 1, top].into_iter().find(|g| g % 4 == index));
        }
    }

    #[test]
    fn the_edges_of_the_address_space() {
        let write = |addr, size| TraceEvent::Write {
            tid: ThreadId::new(0),
            addr,
            size,
        };
        let pieces = |ev: &TraceEvent, lanes: usize| fed(ev, lanes).concat();
        // One lane: whole and untouched, whatever the event says.
        assert_eq!(pieces(&write(60, 8), 1), [write(60, 8)]);
        assert_eq!(pieces(&write(0, 0), 1), [write(0, 0)]);
        assert_eq!(
            pieces(&write(usize::MAX - 3, 8), 1),
            [write(usize::MAX - 3, 8)]
        );
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
