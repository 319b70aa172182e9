//! End-to-end agreement tests over recorded kernel traces:
//!
//! * the address-sharded parallel replay must match sequential replay
//!   race-for-race, for every engine, on racy recordings of multiple
//!   workload profiles;
//! * on the racy dedup recording, CLEAN and FastTrack must report
//!   identical WAW/RAW race sets, with FastTrack additionally reporting
//!   WAR races invisible to CLEAN (the paper's Section 3.2 precision
//!   gap);
//! * recorded kernel traces must hit the ≤ 8 bytes/event format target.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::TraceEvent;
use clean_trace::{read_trace, record_kernel_trace, EngineKind, RecordOptions, Replay};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Racy profiles exercised by the agreement matrix. Spans all five
/// kernel families that have racy variants (pipeline, n-body, k-means,
/// annealing, molecular) plus a stencil.
const PROFILES: &[&str] = &[
    "dedup",
    "barnes",
    "streamcluster",
    "canneal",
    "water_nsquared",
    "fluidanimate",
];

fn sequential(events: &[TraceEvent], kind: EngineKind) -> Vec<FoundRace> {
    Replay::new(kind).events(events).unwrap().races
}

fn sharded(events: &[TraceEvent], kind: EngineKind, lanes: usize) -> Vec<FoundRace> {
    Replay::new(kind).lanes(lanes).events(events).unwrap().races
}

fn record(name: &str, threads: usize) -> Vec<TraceEvent> {
    let dir = std::env::temp_dir().join(format!("clean-trace-agree-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The tests run in parallel and two of them record the same
    // workload: every call gets a file of its own.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = dir.join(format!("{name}-{threads}-{call}.cltr"));
    let summary = record_kernel_trace(
        name,
        &path,
        &RecordOptions {
            threads,
            racy: true,
            seed: 11,
        },
    )
    .unwrap();
    assert!(summary.events > 0, "{name}: empty recording");
    assert!(
        summary.bytes_per_event() <= 8.0,
        "{name}: {:.2} B/event exceeds the 8 B/event target",
        summary.bytes_per_event()
    );
    let events = read_trace(&path).unwrap();
    assert_eq!(events.len() as u64, summary.events);
    std::fs::remove_file(&path).ok();
    events
}

#[test]
fn sharded_replay_matches_sequential_on_racy_recordings() {
    for name in PROFILES {
        let events = record(name, 4);
        for kind in EngineKind::ALL {
            let seq = sequential(&events, kind);
            assert!(
                !seq.is_empty(),
                "{name}/{kind}: racy recording found race-free"
            );
            for shards in [2, 3, 5, 8] {
                let sharded = sharded(&events, kind, shards);
                assert_eq!(
                    sharded, seq,
                    "{name}/{kind}: {shards}-way sharded replay diverged"
                );
            }
        }
    }
}

fn by_kind(races: &[FoundRace], kind: FullRaceKind) -> HashSet<FoundRace> {
    races.iter().copied().filter(|r| r.kind == kind).collect()
}

#[test]
fn clean_and_fasttrack_agree_on_waw_raw_and_fasttrack_adds_war() {
    let events = record("dedup", 4);
    let clean = sequential(&events, EngineKind::Clean);
    let ft = sequential(&events, EngineKind::FastTrack);

    // Identical WAW and RAW sets: CLEAN's cleaner semantics lose no
    // write-after-write or read-after-write precision.
    assert_eq!(
        by_kind(&clean, FullRaceKind::Waw),
        by_kind(&ft, FullRaceKind::Waw),
        "WAW sets diverge"
    );
    assert_eq!(
        by_kind(&clean, FullRaceKind::Raw),
        by_kind(&ft, FullRaceKind::Raw),
        "RAW sets diverge"
    );
    assert!(!by_kind(&clean, FullRaceKind::Waw).is_empty());
    assert!(!by_kind(&clean, FullRaceKind::Raw).is_empty());

    // The gap: FastTrack reports WAR races, CLEAN deliberately none.
    assert!(by_kind(&clean, FullRaceKind::War).is_empty());
    assert!(
        !by_kind(&ft, FullRaceKind::War).is_empty(),
        "racy dedup recording carries no WAR race"
    );
}

#[test]
fn sharding_is_exact_across_thread_counts() {
    // The merge logic sees more cross-shard traffic as thread count and
    // trace size grow; pin agreement on dedup at two sizes.
    for threads in [2, 6] {
        let events = record("dedup", threads);
        for kind in [EngineKind::Clean, EngineKind::FastTrack] {
            let seq = sequential(&events, kind);
            assert_eq!(
                sharded(&events, kind, 4),
                seq,
                "dedup x{threads}/{kind} diverged"
            );
        }
    }
}
