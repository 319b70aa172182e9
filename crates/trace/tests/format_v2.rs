//! CLTR v2 format and robustness tests.
//!
//! Checks for the chunk table and the header that announces it:
//!
//! * **One format** — a file read through [`TraceReader`], the table,
//!   the scan, the digest and `read_range` agrees with its source
//!   events; the table is framing, not content. A header naming
//!   version 1, the retired tableless format, is refused by every entry
//!   point.
//! * **Footer robustness** — truncating or corrupting any byte of the
//!   chunk-table footer yields a clean [`TraceError`], never a wrong
//!   verdict and never a panic; a stream cut short by a zeroed chunk
//!   frame fails after a bounded read, not after buffering the rest.
//! * **Random access** — `read_range` over a many-chunk trace returns
//!   exactly the clamped slice for every window, and reports damage to
//!   a covered chunk while ignoring damage outside the window.

use clean_core::{LockId, ThreadId, TraceEvent};
use clean_trace::{
    digest_events, digest_file, encode_trace, read_range, read_table, read_trace, scan_trace,
    write_trace, EngineKind, Replay, TraceError, TraceReader, TraceWriter, TABLE_MAGIC,
};
use proptest::prelude::*;
use std::io::Read;
use std::path::PathBuf;

/// Per-test scratch directory under the system temp dir (the repo has no
/// tempfile dependency; this mirrors the other integration tests).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-format-v2-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic mixed workload with real races: unsynchronised
/// writes to shared addresses, lock-protected sections, and fork/join
/// edges, spread across enough addresses to exercise several shards.
fn racy_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    events.push(TraceEvent::Fork {
        parent: ThreadId::new(0),
        child: ThreadId::new(1),
    });
    events.push(TraceEvent::Fork {
        parent: ThreadId::new(0),
        child: ThreadId::new(2),
    });
    for i in 0..400u64 {
        let tid = ThreadId::new((i % 3) as u16);
        let addr = ((i * 37) % 64) as usize * 8;
        if i % 5 == 0 {
            // Per-thread locks: sync events in the stream, but no
            // cross-thread happens-before edges that would hide races.
            let lock = (i % 3) as LockId;
            events.push(TraceEvent::Acquire { tid, lock });
            events.push(TraceEvent::Write {
                tid,
                addr: 16384 + addr,
                size: 8,
            });
            events.push(TraceEvent::Release { tid, lock });
        } else if i % 3 == 0 {
            events.push(TraceEvent::Read { tid, addr, size: 4 });
        } else {
            events.push(TraceEvent::Write { tid, addr, size: 4 });
        }
    }
    events.push(TraceEvent::Join {
        parent: ThreadId::new(0),
        child: ThreadId::new(1),
    });
    events.push(TraceEvent::Join {
        parent: ThreadId::new(0),
        child: ThreadId::new(2),
    });
    events
}

/// `events` as a v2 stream of 64-byte chunks: a few events per chunk.
fn small_chunk_stream(events: &[TraceEvent]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).unwrap().chunk_bytes(64);
    for e in events {
        w.write_event(e).unwrap();
    }
    w.finish_into().unwrap().1
}

/// A file agrees with its source events on every decode path — same
/// events, same digest, the table's totals, the same window.
#[test]
fn every_decode_path_agrees_with_the_source_events() {
    let path = scratch("agree").join("trace.cltr");
    let events = racy_events();
    write_trace(&path, &events).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[bytes.len() - 4..], TABLE_MAGIC);
    assert_eq!(read_table(&path).unwrap().total_events, events.len() as u64);
    assert_eq!(read_trace(&path).unwrap(), events);
    // The digest covers events, not framing: the file and the in-memory
    // stream agree.
    assert_eq!(digest_file(&path).unwrap(), digest_events(&events));
    let scan = scan_trace(&path).unwrap();
    assert_eq!((scan.events, scan.threads), (events.len() as u64, 3));
    assert_eq!(read_range(&path, 100..250).unwrap(), &events[100..250]);
}

/// A stream whose header names version 1 — the retired tableless
/// format — is refused by every entry point, whatever follows it.
#[test]
fn a_version_1_header_is_refused_on_every_entry_point() {
    let path = scratch("v1").join("trace.cltr");
    let mut bytes = encode_trace(&racy_events()).unwrap();
    bytes[4] = 1;
    std::fs::write(&path, &bytes).unwrap();
    let refused = |what: &str, got: clean_trace::Result<()>| {
        assert!(
            matches!(got, Err(TraceError::UnsupportedVersion(1))),
            "{what} gave {got:?}"
        );
    };
    refused("TraceReader::new", TraceReader::new(&bytes[..]).map(drop));
    refused("read_table", read_table(&path).map(drop));
    refused("scan_trace", scan_trace(&path).map(drop));
    refused("digest_file", digest_file(&path).map(drop));
    refused("read_range", read_range(&path, 0..10).map(drop));
    for lanes in [1, 2] {
        let done = Replay::new(EngineKind::Clean).lanes(lanes).file(&path);
        refused(&format!("Replay::file at {lanes} lanes"), done.map(drop));
    }
}

/// The footer region of a v2 file: everything after the end-of-stream
/// marker. Corruptions here must never change verdicts silently.
fn footer_start(bytes: &[u8]) -> usize {
    let count = u32::from_le_bytes(
        bytes[bytes.len() - 24..bytes.len() - 20]
            .try_into()
            .unwrap(),
    );
    bytes.len() - 24 - 24 * count as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 2: flip any bit of the footer, or truncate inside it —
    /// every decode path either errors cleanly or (for paths that do not
    /// consult the table) still produces the correct verdicts. Never a
    /// wrong verdict, never a panic.
    #[test]
    fn corrupt_chunk_table_never_changes_verdicts(
        chunk in 24usize..512,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
        truncate in proptest::bool::ANY,
    ) {
        let dir = scratch("corrupt");
        let path = dir.join(format!("trace-{chunk}-{bit}-{truncate}.cltr"));
        let events = racy_events();
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = clean_trace::TraceWriter::new(file).unwrap().chunk_bytes(chunk);
            for e in &events {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();
        }
        let replay = Replay::new(EngineKind::Clean).lanes(4);
        let expected = replay.events(&events).unwrap().races;
        prop_assert!(!expected.is_empty());

        let mut bytes = std::fs::read(&path).unwrap();
        let footer = footer_start(&bytes);
        let span = bytes.len() - footer;
        if truncate {
            // Cut somewhere inside the footer (always losing >= 1 byte).
            let keep = footer + ((span - 1) as f64 * frac) as usize;
            bytes.truncate(keep);
        } else {
            let pos = footer + ((span - 1) as f64 * frac) as usize;
            bytes[pos] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).unwrap();

        // Strict paths: a damaged footer is a clean error.
        prop_assert!(read_trace(&path).is_err(), "strict reader must reject");
        prop_assert!(TraceReader::new(&bytes[..]).unwrap().collect::<Result<Vec<_>, _>>().is_err());

        // Replay paths: either a clean TraceError or the exact verdicts —
        // never silently wrong, and no panics anywhere.
        if let Ok(done) = replay.file(&path) {
            prop_assert_eq!(done.races, expected.clone());
        }
        if let Ok(scan) = scan_trace(&path) {
            prop_assert_eq!(scan.events, events.len() as u64);
            prop_assert_eq!(scan.threads, 3);
        }
        if let Ok(slice) = read_range(&path, 10..20) {
            prop_assert_eq!(slice, &events[10..20]);
        }
    }
}

/// `read_range` over a many-chunk file: every window — empty, past the
/// end, inside one chunk, across chunk boundaries — equals the clamped
/// slice of the source events.
#[test]
fn read_range_matches_the_slice_for_every_window() {
    let path = scratch("windows").join("trace.cltr");
    let events = racy_events();
    std::fs::write(&path, small_chunk_stream(&events)).unwrap();
    let table = read_table(&path).unwrap();
    assert!(table.entries.len() > 20, "{} chunks", table.entries.len());

    let n = events.len() as u64;
    // The first chunks' boundaries and their neighbours, a middle
    // chunk's, the ends of the trace and beyond.
    let mut points: Vec<u64> = vec![0, 1, n - 1, n, n + 1, n + 100, u64::MAX];
    for e in &table.entries[..6] {
        points.extend([e.first_event, e.first_event + 1, e.end_event() - 1]);
    }
    let mid = &table.entries[table.entries.len() / 2];
    points.extend([mid.first_event, mid.end_event(), mid.end_event() + 1]);
    for &a in &points {
        for &b in &points {
            let (lo, hi) = (a.min(n) as usize, b.min(n) as usize);
            let want = if lo < hi { &events[lo..hi] } else { &[][..] };
            assert_eq!(read_range(&path, a..b).unwrap(), want, "window {a}..{b}");
        }
    }
}

/// Damage to a chunk the window covers is an error of the right kind;
/// damage to a chunk outside it leaves the window exact.
#[test]
fn read_range_checks_covered_chunks_and_ignores_the_rest() {
    let path = scratch("damage").join("trace.cltr");
    let events = racy_events();
    let bytes = small_chunk_stream(&events);
    std::fs::write(&path, &bytes).unwrap();
    let table = read_table(&path).unwrap();
    let k = table.entries.len() / 2;
    let hit = table.entries[k];
    // A window that starts in the chunk before `k` and ends inside it.
    let window = table.entries[k - 1].first_event + 1..hit.first_event + 1;
    let want = &events[window.start as usize..window.end as usize];
    let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bad = bytes.clone();
        edit(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        read_range(&path, window.clone())
    };

    let frame = hit.offset as usize;
    let flipped = damaged(&|b| b[frame + 12 + hit.payload_len as usize / 2] ^= 0x04);
    assert!(
        matches!(flipped, Err(TraceError::ChecksumMismatch { chunk, .. }) if chunk == k as u64),
        "payload flip gave {flipped:?}"
    );

    let longer = (hit.payload_len + 1).to_le_bytes();
    let relabeled = damaged(&|b| b[frame..frame + 4].copy_from_slice(&longer));
    assert!(
        matches!(relabeled, Err(TraceError::Corrupt { chunk, .. }) if chunk == k as u64),
        "frame/table disagreement gave {relabeled:?}"
    );

    let zeroed = damaged(&|b| b[frame..frame + 12].fill(0));
    assert!(
        matches!(zeroed, Err(TraceError::Corrupt { chunk, .. }) if chunk == k as u64),
        "zeroed covered frame gave {zeroed:?}"
    );

    // Chunks before and after the window: payload flips and frame
    // damage alike go unread.
    for outside in [table.entries[k - 3], table.entries[k + 2]] {
        let at = outside.offset as usize;
        let mid = at + 12 + outside.payload_len as usize / 2;
        assert_eq!(damaged(&|b| b[mid] ^= 0x04).unwrap(), want);
        assert_eq!(damaged(&|b| b[at..at + 12].fill(0)).unwrap(), want);
    }
}

/// A `Read` that counts the bytes it hands out.
struct Counting<'a> {
    inner: &'a [u8],
    pulled: usize,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pulled += n;
        Ok(n)
    }
}

/// A zeroed first chunk frame reads as the end-of-stream marker: the
/// footer check that follows must fail after reading no more than a
/// footer's worth, not buffer the rest of the stream.
#[test]
fn a_zeroed_first_frame_fails_after_a_bounded_read() {
    let events: Vec<TraceEvent> = racy_events().into_iter().cycle().take(20_000).collect();
    let mut bytes = small_chunk_stream(&events);
    let header = 5;
    let bound = header + 12 + (bytes.len() - footer_start(&bytes));
    assert!(bytes.len() > 3 * bound, "{} / {bound}", bytes.len());
    bytes[header..header + 12].fill(0);

    let mut input = Counting {
        inner: &bytes,
        pulled: 0,
    };
    let read: Result<Vec<_>, _> = TraceReader::new(&mut input).unwrap().collect();
    assert!(
        matches!(read, Err(TraceError::BadTable { .. })),
        "got {read:?}"
    );
    assert!(
        input.pulled <= bound,
        "pulled {} bytes of {}",
        input.pulled,
        bytes.len()
    );
}
