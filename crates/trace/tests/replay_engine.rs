//! The one replay engine, held to the sequential detector on every
//! source and lane count, and to a clean error on every bad file:
//!
//! * **Agreement matrix** — every [`EngineKind`] × source {slice, v1
//!   file, v2 file, v2 file cut into 64-byte chunks} × lanes {1, 2, 3,
//!   8} equals [`run_detector`] over the decoded events.
//! * **Producer failure** — a chunk corrupted in the middle of a
//!   multi-batch file surfaces as the decode error at every lane count,
//!   with every lane thread joined.
//! * **Crafted events** — CRC-valid streams holding a zero-size, an
//!   oversized or an address-wrapping access are refused by every path
//!   that reads them, and so is a file that names too many threads.

use clean_baselines::{run_detector, FoundRace};
use clean_core::{ThreadId, TraceEvent};
use clean_trace::codec::{crc32, FORMAT_V1, FORMAT_VERSION, MAGIC};
use clean_trace::{
    digest_file, read_table, read_trace, required_threads, scan_trace, write_trace, write_trace_v1,
    ChunkEntry, ChunkTable, EngineKind, Replay, TraceError, TraceReader, TraceWriter,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-replay-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn t(i: u16) -> ThreadId {
    ThreadId::new(i)
}

fn w(tid: u16, addr: usize, size: usize) -> TraceEvent {
    TraceEvent::Write {
        tid: t(tid),
        addr,
        size,
    }
}

/// Forks, disjoint bulk writes, reads, a locked region, accesses that
/// straddle a 64-byte granule (one race-free, one racing in its upper
/// granule), one that covers six granules, and races against both plain
/// and locked writes.
fn matrix_trace() -> Vec<TraceEvent> {
    let mut ev = vec![
        TraceEvent::Fork {
            parent: t(0),
            child: t(1),
        },
        TraceEvent::Fork {
            parent: t(0),
            child: t(2),
        },
    ];
    for i in 0..200 {
        ev.push(w(0, 64 * (i % 5), 4));
        ev.push(w(1, 4096 + 64 * (i % 5), 4));
        ev.push(TraceEvent::Read {
            tid: t(1),
            addr: 4096 + 64 * (i % 5),
            size: 4,
        });
    }
    // Bytes 60..68 span granules 0 and 1; thread 0 owns both.
    ev.push(w(0, 60, 8));
    // Bytes 8202..8502 span six granules: more than one piece per lane
    // at 2 and 3 lanes, and lanes with none at 8.
    ev.push(w(0, 8192 + 10, 300));
    ev.push(TraceEvent::Acquire { tid: t(1), lock: 9 });
    ev.push(w(1, 1 << 20, 8));
    ev.push(TraceEvent::Release { tid: t(1), lock: 9 });
    // Thread 2 is ordered after nothing but its fork.
    ev.push(w(2, 64, 4));
    ev.push(w(2, 1 << 20, 8));
    // Inside the fourth granule of thread 0's 300-byte write.
    ev.push(w(2, 8192 + 200, 4));
    // Bytes 4094..4098 span granules 63 and 64: the lower two are
    // untouched, the upper two race with thread 1's writes at 4096.
    ev.push(w(2, 4094, 4));
    // Likewise a read of bytes 4158..4162 against the writes at 4160.
    ev.push(TraceEvent::Read {
        tid: t(2),
        addr: 4094 + 64,
        size: 4,
    });
    ev.push(TraceEvent::Join {
        parent: t(0),
        child: t(1),
    });
    ev
}

fn reference(events: &[TraceEvent], kind: EngineKind) -> Vec<FoundRace> {
    let mut det = kind.build(required_threads(events));
    run_detector(&mut *det, events)
}

#[test]
fn every_engine_source_and_lane_count_matches_the_sequential_detector() {
    let events = matrix_trace();
    let v1 = scratch("matrix.v1.cltr");
    let v2 = scratch("matrix.v2.cltr");
    let tiny = scratch("matrix.tiny.cltr");
    write_trace_v1(&v1, &events).unwrap();
    write_trace(&v2, &events).unwrap();
    let mut wtr = TraceWriter::create(&tiny).unwrap().chunk_bytes(64);
    for e in &events {
        wtr.write_event(e).unwrap();
    }
    assert!(wtr.finish().unwrap().chunks > 10, "64-byte chunks: many");

    assert!(read_table(&v1).unwrap().is_none());
    assert!(read_table(&v2).unwrap().is_some());
    for path in [&v1, &v2, &tiny] {
        assert_eq!(read_trace(path).unwrap(), events);
        let scan = scan_trace(path).unwrap();
        assert_eq!(scan.events, events.len() as u64);
        assert_eq!(scan.threads, 3);
        assert_eq!(scan.bytes, std::fs::metadata(path).unwrap().len());
    }

    for kind in EngineKind::ALL {
        let expected = reference(&events, kind);
        assert!(expected.len() >= 3, "{kind} missed the seeded races");
        assert!(
            expected.iter().any(|r| r.addr == 4096),
            "{kind} missed the race in the straddling write's upper granule"
        );
        assert!(
            expected.iter().any(|r| r.addr == 8192 + 200),
            "{kind} missed the race inside the six-granule write"
        );
        for lanes in [1, 2, 3, 8] {
            let replay = Replay::new(kind).lanes(lanes);
            let cells = [
                ("slice", replay.events(&events).unwrap()),
                ("v1 file", replay.file(&v1).unwrap()),
                ("v2 file", replay.file(&v2).unwrap()),
                ("v2 file, 64-byte chunks", replay.file(&tiny).unwrap()),
            ];
            for (source, done) in cells {
                assert_eq!(done.races, expected, "{kind} / {source} / {lanes} lanes");
                assert_eq!(done.events, events.len() as u64);
                assert_eq!(done.batches, 1);
            }
        }
    }
    for path in [&v1, &v2, &tiny] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn empty_and_missing_sources() {
    let none = Replay::new(EngineKind::Clean).lanes(2).events(&[]).unwrap();
    assert!(none.races.is_empty());
    assert_eq!((none.events, none.batches, none.used_mmap), (0, 0, false));
    assert!(scan_trace("/nonexistent/clean-trace.cltr").is_err());
    assert!(matches!(
        Replay::new(EngineKind::Clean).file("/nonexistent/clean-trace.cltr"),
        Err(TraceError::Io(_))
    ));
}

/// `Replay::file` on another thread, so a hang fails the test instead
/// of stalling it.
fn file_replay_within(
    path: &Path,
    lanes: usize,
    limit: Duration,
) -> clean_trace::Result<clean_trace::Replayed> {
    let (tx, rx) = std::sync::mpsc::channel();
    let path = path.to_path_buf();
    std::thread::spawn(move || {
        let _ = tx.send(Replay::new(EngineKind::Clean).lanes(lanes).file(&path));
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("replay at {lanes} lanes hung or panicked"))
}

#[test]
fn a_corrupt_chunk_mid_file_fails_the_replay_at_every_lane_count() {
    // Four full producer batches and a partial fifth: the lanes are
    // busy and their queues loaded when the producer hits the bad chunk.
    const EVENTS: usize = 4 * 64 * 1024 + 100;
    let path = scratch("midfile.cltr");
    let mut events: Vec<TraceEvent> = (0..EVENTS)
        .map(|i| w((i % 4) as u16, (i % 4) * (1 << 20) + (i / 4 % 4096) * 8, 8))
        .collect();
    // One late race, so an intact replay has a verdict to agree on.
    events.push(w(0, 1 << 20, 8));
    write_trace(&path, &events).unwrap();
    let limit = Duration::from_secs(120);

    let intact = file_replay_within(&path, 1, limit).unwrap();
    assert_eq!(intact.races.len(), 1);
    assert_eq!(intact.batches, 5);
    for lanes in [2, 8] {
        assert_eq!(file_replay_within(&path, lanes, limit).unwrap(), intact);
    }

    let table = read_table(&path).unwrap().unwrap();
    let mid = table.entries.len() * 2 / 3;
    assert!(table.entries[mid].first_event >= 2 * 64 * 1024);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[table.entries[mid].offset as usize + 12 + 7] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    for lanes in [1, 2, 8] {
        match file_replay_within(&path, lanes, limit) {
            Err(TraceError::ChecksumMismatch { chunk, .. }) => assert_eq!(chunk, mid as u64),
            other => panic!("{lanes} lanes: expected a checksum error, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A `CLTR` stream of one chunk holding `payload` as its single event,
/// framed with a correct CRC and (for v2) a correct chunk table — what
/// the writer would emit if it did not refuse the event. The table
/// claims `threads` thread slots.
fn crafted_stream_with(version: u8, payload: &[u8], threads: u32) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.push(version);
    let offset = out.len() as u64;
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0u8; 12]);
    if version == FORMAT_VERSION {
        let table = ChunkTable {
            entries: vec![ChunkEntry {
                offset,
                payload_len: payload.len() as u32,
                events: 1,
                first_event: 0,
            }],
            total_events: 1,
            threads,
        };
        out.extend_from_slice(&table.encode());
    }
    out
}

fn crafted_stream(version: u8, payload: &[u8]) -> Vec<u8> {
    crafted_stream_with(version, payload, 1)
}

#[test]
fn crafted_empty_oversized_and_wrapping_accesses_are_refused_on_every_path() {
    // Tag 0x21: a write with an explicit size varint; tid 0, delta 0,
    // size 0 — `Write { addr: 0, size: 0 }`.
    let zero_size: &[u8] = &[0x21, 0x00, 0x00, 0x00];
    // Tag 0x19: a write of size class 8; tid 0, zigzag delta 7 = -4 —
    // `Write { addr: usize::MAX - 3, size: 8 }`.
    let wrapping: &[u8] = &[0x19, 0x00, 0x07];
    // Tag 0x21 again with size varint 2^45 — `Write { addr: 0, size:
    // 1 << 45 }`, 2^39 granules for a sharded replay to walk.
    let huge: &[u8] = &[0x21, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08];
    let crafted = [
        ("zero-size", zero_size),
        ("wrapping", wrapping),
        ("huge", huge),
    ];
    for (what, payload) in crafted {
        for version in [FORMAT_V1, FORMAT_VERSION] {
            let bytes = crafted_stream(version, payload);
            assert!(bytes.len() < 100, "{} bytes", bytes.len());
            let path = scratch(&format!("crafted-{what}-v{version}.cltr"));
            std::fs::write(&path, &bytes).unwrap();
            let tag = format!("{what} v{version}");

            let read: clean_trace::Result<Vec<_>> = TraceReader::new(&bytes[..]).unwrap().collect();
            assert!(
                matches!(read, Err(TraceError::Corrupt { .. })),
                "{tag}: TraceReader gave {read:?}"
            );
            assert!(read_trace(&path).is_err(), "{tag}: read_trace");
            assert!(digest_file(&path).is_err(), "{tag}: digest_file");
            for lanes in [1, 2] {
                let done = Replay::new(EngineKind::Clean).lanes(lanes).file(&path);
                assert!(
                    matches!(done, Err(TraceError::Corrupt { .. })),
                    "{tag}: Replay::file at {lanes} lanes gave {done:?}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    // The recording side refuses the same events, and stays usable.
    let mut wtr = TraceWriter::new(Vec::new()).unwrap();
    for bad in [w(0, 0, 0), w(0, usize::MAX - 3, 8), w(0, 0, 1 << 45)] {
        let err = wtr.write_event(&bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
    wtr.write_event(&w(0, 0, 1)).unwrap();
    let (summary, bytes) = wtr.finish_into().unwrap();
    assert_eq!(summary.events, 1);
    assert_eq!(TraceReader::new(&bytes[..]).unwrap().count(), 1);

    // A slice can still carry such events; the CLEAN engine checks no
    // byte of an empty or a wrapping access, at any lane count.
    let top = usize::MAX - 3;
    let slice = [
        w(0, 0, 0),
        w(1, 0, 0),
        w(0, top, 8),
        w(1, top, 8),
        w(0, 128, 4),
        w(1, 128, 4),
    ];
    let one = Replay::new(EngineKind::Clean).events(&slice).unwrap();
    assert_eq!(one.races.len(), 1);
    for lanes in [2, 3] {
        let many = Replay::new(EngineKind::Clean)
            .lanes(lanes)
            .events(&slice)
            .unwrap();
        assert_eq!(many.races, one.races);
    }
}

#[test]
fn a_table_that_understates_its_thread_count_is_an_error_not_a_panic() {
    // CRC-valid v2 stream whose table claims one thread slot while the
    // event is thread 5's: tag 0x11 = write of size class 4, delta 0.
    let bytes = crafted_stream(FORMAT_VERSION, &[0x11, 0x05, 0x00]);
    let path = scratch("understated-threads.cltr");
    std::fs::write(&path, &bytes).unwrap();
    for lanes in [1, 2] {
        let done = Replay::new(EngineKind::Clean).lanes(lanes).file(&path);
        assert!(
            matches!(done, Err(TraceError::BadTable { .. })),
            "{lanes} lanes gave {done:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn more_threads_than_the_engines_have_ids_for_is_an_error_not_a_panic() {
    // A table claiming more slots than a 16-bit thread id can name is
    // invalid outright, whatever the stream holds.
    let bytes = crafted_stream_with(FORMAT_VERSION, &[0x11, 0x00, 0x00], (1 << 16) + 1);
    let path = scratch("table-threads.cltr");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        read_table(&path),
        Err(TraceError::BadTable { .. })
    ));
    assert!(matches!(
        Replay::new(EngineKind::Clean).file(&path),
        Err(TraceError::BadTable { .. })
    ));

    // Thread 256 is a valid id in a valid file of either version, but
    // one past what the engines' 8-bit epoch thread field holds.
    let events = [w(256, 0, 4)];
    let v1 = scratch("threads-257.v1.cltr");
    write_trace_v1(&v1, &events).unwrap();
    write_trace(&path, &events).unwrap();
    assert_eq!(scan_trace(&path).unwrap().threads, 257);
    for file in [&v1, &path] {
        for lanes in [1, 2] {
            let done = Replay::new(EngineKind::Clean).lanes(lanes).file(file);
            assert!(
                matches!(
                    done,
                    Err(TraceError::TooManyThreads {
                        threads: 257,
                        max: 256
                    })
                ),
                "{lanes} lanes gave {done:?}"
            );
        }
        std::fs::remove_file(file).ok();
    }
}

#[test]
fn a_slice_naming_257_threads_is_an_error_not_a_panic() {
    for lanes in [1, 2] {
        let done = Replay::new(EngineKind::Clean)
            .lanes(lanes)
            .events(&[w(256, 0, 4)]);
        assert!(
            matches!(
                done,
                Err(TraceError::TooManyThreads {
                    threads: 257,
                    max: 256
                })
            ),
            "{lanes} lanes gave {done:?}"
        );
    }
}

#[test]
fn a_thread_clock_past_the_epoch_layout_is_an_error_not_a_panic() {
    use clean_trace::replay::MAX_CLOCK_TICKS;
    // One write, then thread 0 releases once more than its clock can
    // count: every engine would panic in its vector-clock increment.
    let release = TraceEvent::Release { tid: t(0), lock: 0 };
    let events: Vec<TraceEvent> = std::iter::once(w(0, 0, 4))
        .chain(std::iter::repeat_n(release, MAX_CLOCK_TICKS as usize + 1))
        .collect();
    let overflow = events.len() as u64 - 1;
    let path = scratch("clock-overflow.cltr");
    write_trace(&path, &events).unwrap();
    // Each engine once, each source at one and at two lanes: the trace
    // is 2^23 events long, so the full product would take minutes in a
    // debug build.
    let runs = [
        (EngineKind::Clean, 1, false),
        (EngineKind::FastTrack, 2, false),
        (EngineKind::VcFull, 1, true),
        (EngineKind::Tsan, 2, true),
    ];
    for (kind, lanes, from_file) in runs {
        let replay = Replay::new(kind).lanes(lanes);
        let done = if from_file {
            replay.file(&path)
        } else {
            replay.events(&events)
        };
        assert!(
            matches!(
                done,
                Err(TraceError::ClockOverflow { thread: 0, event }) if event == overflow
            ),
            "{kind} at {lanes} lanes gave {done:?}"
        );
    }
    std::fs::remove_file(&path).ok();
    // The last increment that fits is still replayed.
    let fits = Replay::new(EngineKind::Clean).events(&events[..overflow as usize]);
    assert_eq!(fits.unwrap().events, overflow);
}
