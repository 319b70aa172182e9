//! End-to-end service tests over real TCP connections: admission
//! control, verdict caching, digest dedup, graceful drain, and —
//! the acceptance bar — 16 concurrent clients whose served verdicts
//! all equal a direct `Replay` run.

use clean_serve::client::{stat, Client};
use clean_serve::protocol::{error_code, Response};
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{
    digest_events, read_trace, record_kernel_trace, EngineKind, RecordOptions, Replay, TraceDigest,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-test scratch dir, wiped on creation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records a workload kernel trace and returns its encoded bytes.
fn record(dir: &std::path::Path, name: &str, racy: bool, seed: u64) -> Vec<u8> {
    let path = dir.join(format!("{name}-{racy}-{seed}.cltr"));
    record_kernel_trace(
        name,
        &path,
        &RecordOptions {
            threads: 4,
            racy,
            seed,
        },
    )
    .unwrap();
    std::fs::read(&path).unwrap()
}

fn submit(client: &mut Client, trace: &[u8]) -> (TraceDigest, bool) {
    match client.submit(trace.to_vec()).unwrap() {
        Response::Submitted { digest, dedup, .. } => (digest, dedup),
        other => panic!("submit failed: {other:?}"),
    }
}

#[test]
fn submit_analyze_matches_direct_replay() {
    let dir = scratch("direct");
    let server = Server::start(ServerConfig::new(dir.join("store"))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (name, racy) in [("dedup", true), ("dedup", false), ("streamcluster", true)] {
        let trace = record(&dir, name, racy, 7);
        let (digest, dedup) = submit(&mut client, &trace);
        assert!(!dedup, "first submit of {name} cannot dedup");
        let Response::Verdict {
            digest: vdigest,
            cached,
            races,
            events,
            ..
        } = client.analyze(digest, EngineKind::Clean, true).unwrap()
        else {
            panic!("expected verdict");
        };
        assert_eq!(vdigest, digest);
        assert!(!cached, "cold analyze of {name} must miss");
        assert_eq!(!races.is_empty(), racy, "{name} racy={racy}");

        // Ground truth: decode the same bytes and replay directly.
        let path = dir.join("roundtrip.cltr");
        std::fs::write(&path, &trace).unwrap();
        let direct_events = read_trace(&path).unwrap();
        assert_eq!(digest_events(&direct_events), digest);
        assert_eq!(events, direct_events.len() as u64);
        let direct: HashSet<_> = Replay::new(EngineKind::Clean)
            .lanes(4)
            .events(&direct_events)
            .unwrap()
            .races
            .into_iter()
            .collect();
        let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
        assert_eq!(served, direct, "served verdict must equal direct replay");
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resubmit_dedups_and_repeat_analyze_hits_cache() {
    let dir = scratch("dedup");
    let server = Server::start(ServerConfig::new(dir.join("store"))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let trace = record(&dir, "dedup", true, 3);
    let (digest, dedup) = submit(&mut client, &trace);
    assert!(!dedup, "first submit is new");
    let (digest2, dedup2) = submit(&mut client, &trace);
    assert_eq!(digest2, digest);
    assert!(dedup2, "identical resubmit dedups on digest");

    // First analyze: replay. Second: cache, with no new replay work.
    let Response::Verdict { cached, races, .. } =
        client.analyze(digest, EngineKind::Clean, true).unwrap()
    else {
        panic!("expected verdict");
    };
    assert!(!cached);
    let before = client.metrics_snapshot().unwrap();
    let Response::Verdict {
        cached: cached2,
        races: races2,
        ..
    } = client.analyze(digest, EngineKind::Clean, true).unwrap()
    else {
        panic!("expected verdict");
    };
    assert!(cached2, "repeat ANALYZE is served from the verdict cache");
    assert_eq!(races2, races);
    let after = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&after, "cache_hits"), stat(&before, "cache_hits") + 1);
    assert_eq!(
        stat(&after, "jobs_completed"),
        stat(&before, "jobs_completed"),
        "a cache hit must not run a replay job"
    );
    assert_eq!(stat(&after, "submit_dedup_hits"), 1);
    assert_eq!(stat(&after, "submits"), 2);
    let analyze_latency = after
        .hist("serve_latency_micros", &[("verb", "analyze")])
        .expect("analyze latency histogram");
    assert_eq!(analyze_latency.count(), 2, "every ANALYZE is timed");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sixteen_concurrent_clients_get_direct_replay_verdicts() {
    let dir = scratch("concurrent");
    let server = Server::start(
        ServerConfig::new(dir.join("store"))
            .queue_cap(64)
            .per_client_cap(8),
    )
    .unwrap();
    let addr = server.addr();

    // Four distinct traces; ground-truth verdicts computed directly.
    let corpus: Vec<Vec<u8>> = vec![
        record(&dir, "dedup", true, 1),
        record(&dir, "dedup", false, 1),
        record(&dir, "streamcluster", true, 2),
        record(&dir, "streamcluster", false, 2),
    ];
    let truth: Vec<(TraceDigest, HashSet<_>)> = corpus
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let path = dir.join(format!("truth-{i}.cltr"));
            std::fs::write(&path, trace).unwrap();
            let events = read_trace(&path).unwrap();
            (
                digest_events(&events),
                Replay::new(EngineKind::Clean)
                    .lanes(4)
                    .events(&events)
                    .unwrap()
                    .races
                    .into_iter()
                    .collect(),
            )
        })
        .collect();
    let corpus = Arc::new(corpus);
    let truth = Arc::new(truth);
    // All clients submit before any analyzes, so every digest resolves.
    let barrier = Arc::new(std::sync::Barrier::new(16));

    let handles: Vec<_> = (0..16)
        .map(|i| {
            let corpus = Arc::clone(&corpus);
            let truth = Arc::clone(&truth);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Each client submits one trace and analyzes all four —
                // plenty of digest-level contention and coalescing.
                let mine = i % corpus.len();
                let (digest, _) = submit(&mut client, &corpus[mine]);
                assert_eq!(digest, truth[mine].0);
                barrier.wait();
                for pass in 0..2 {
                    for (expect_digest, expect_races) in truth.iter() {
                        let Response::Verdict { digest, races, .. } = client
                            .analyze_with_retry(*expect_digest, EngineKind::Clean, 50)
                            .unwrap()
                        else {
                            panic!("pass {pass}: expected a verdict");
                        };
                        assert_eq!(digest, *expect_digest);
                        let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
                        assert_eq!(served, *expect_races);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let s = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "store_traces"), 4, "4 distinct digests stored");
    assert_eq!(stat(&s, "submit_dedup_hits"), 12, "16 submits, 4 unique");
    assert_eq!(stat(&s, "analyzes"), 16 * 8, "two passes of four each");
    // Every key needs at least one replay job; coalescing and the
    // cache keep the rest cheap. Each client's second pass re-analyzes
    // keys whose verdicts it already waited for, so at least those four
    // per client are guaranteed cache hits.
    let jobs = stat(&s, "jobs_completed");
    assert!(jobs >= 4, "jobs: {jobs}");
    let hits = stat(&s, "cache_hits");
    assert!(hits >= 16 * 4, "hits: {hits}");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_capacity_queue_sheds_with_retry_after() {
    let dir = scratch("shed");
    let server = Server::start(
        ServerConfig::new(dir.join("store"))
            .queue_cap(0)
            .retry_millis(123),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let trace = record(&dir, "dedup", true, 5);
    let (digest, _) = submit(&mut client, &trace);
    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::RetryAfter { millis } => assert_eq!(millis, 123),
        other => panic!("expected RetryAfter, got {other:?}"),
    }
    let s = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "jobs_rejected"), 1);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_client_cap_sheds_nowait_flood() {
    let dir = scratch("cap");
    let server = Server::start(
        ServerConfig::new(dir.join("store"))
            .queue_cap(1024)
            .per_client_cap(2)
            .workers(1),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A large synthetic trace keeps the single worker busy for far
    // longer than the client's sub-millisecond round trips, so the
    // later no-wait requests deterministically pile up behind it.
    let big: Vec<clean_core::TraceEvent> = (0..2_000_000u64)
        .map(|i| clean_core::TraceEvent::Write {
            tid: clean_core::ThreadId::new((i % 4) as u16),
            addr: 64 + 8 * ((i / 4) % 4096) as usize,
            size: 8,
        })
        .collect();
    let (big_digest, _) = submit(&mut client, &clean_trace::encode_trace(&big).unwrap());
    let small: Vec<TraceDigest> = (0..3)
        .map(|seed| {
            let trace = record(&dir, "streamcluster", true, 100 + seed);
            submit(&mut client, &trace).0
        })
        .collect();

    // Occupy the worker, then flood: big job runs, one small job queues
    // (cap reached), the rest of the flood sheds.
    let Response::Pending { job: big_job } = client
        .analyze(big_digest, EngineKind::Clean, false)
        .unwrap()
    else {
        panic!("expected pending for the big trace");
    };
    let mut jobs = vec![big_job];
    let mut shed = 0;
    for d in &small {
        match client.analyze(*d, EngineKind::Clean, false).unwrap() {
            Response::Pending { job } => jobs.push(job),
            Response::RetryAfter { .. } => shed += 1,
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(shed >= 1, "a 3-deep flood over a 2-job cap must shed");
    let s = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "jobs_rejected"), shed);
    // The admitted jobs still finish and can be polled to verdicts.
    for job in jobs {
        loop {
            match client.status(job).unwrap() {
                Response::Pending { .. } => std::thread::sleep(std::time::Duration::from_millis(5)),
                Response::Verdict { .. } => break,
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_digest_and_unknown_job_errors() {
    let dir = scratch("unknown");
    let server = Server::start(ServerConfig::new(dir.join("store"))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client
        .analyze(TraceDigest(0xdead), EngineKind::Clean, true)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_DIGEST),
        other => panic!("unexpected: {other:?}"),
    }
    match client.status(999).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_JOB),
        other => panic!("unexpected: {other:?}"),
    }
    match client.submit(b"garbage".to_vec()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_TRACE),
        other => panic!("unexpected: {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-event `CLTR` v2 stream around `payload`, with the CRC and the
/// chunk table a writer would have produced — the server cannot tell it
/// from a recorded trace until it decodes the event.
fn crafted_trace(payload: &[u8]) -> Vec<u8> {
    use clean_trace::{codec, ChunkEntry, ChunkTable};
    let mut out = codec::MAGIC.to_vec();
    out.push(codec::FORMAT_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&codec::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0u8; 12]);
    let table = ChunkTable {
        entries: vec![ChunkEntry {
            offset: 5,
            payload_len: payload.len() as u32,
            events: 1,
            first_event: 0,
        }],
        total_events: 1,
        threads: 1,
    };
    out.extend_from_slice(&table.encode());
    out
}

#[test]
fn crafted_empty_oversized_and_wrapping_accesses_get_errors_and_the_daemon_stays_up() {
    // `Write { addr: 0, size: 0 }`, `Write { addr: usize::MAX - 3,
    // size: 8 }` and `Write { addr: 0, size: 1 << 45 }` (see the codec's
    // tag layout): sharded replay used to turn the first and the last
    // into unbounded allocations.
    let crafted = [
        crafted_trace(&[0x21, 0x00, 0x00, 0x00]),
        crafted_trace(&[0x19, 0x00, 0x07]),
        crafted_trace(&[0x21, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08]),
    ];
    let dir = scratch("crafted");
    let store = dir.join("store");
    std::fs::create_dir_all(&store).unwrap();
    // A store written by an older build may already hold such a file:
    // plant each under a digest so ANALYZE reaches the replay.
    let planted = [
        TraceDigest(0xbad0),
        TraceDigest(0xbad1),
        TraceDigest(0xbad2),
    ];
    for (digest, bytes) in planted.iter().zip(&crafted) {
        std::fs::write(store.join(format!("{digest}.cltr")), bytes).unwrap();
    }
    let server = Server::start(ServerConfig::new(&store).shards(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (digest, bytes) in planted.iter().zip(&crafted) {
        match client.submit(bytes.clone()).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_TRACE),
            other => panic!("crafted SUBMIT: {other:?}"),
        }
        match client.analyze(*digest, EngineKind::Clean, true).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, error_code::INTERNAL);
                assert!(message.contains("corrupt"), "{message}");
            }
            other => panic!("crafted ANALYZE: {other:?}"),
        }
    }

    // Same daemon, same connection, next request: a real verdict.
    let trace = record(&dir, "dedup", true, 7);
    let (digest, _) = submit(&mut client, &trace);
    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::Verdict { races, .. } => assert!(!races.is_empty()),
        other => panic!("expected a verdict after the crafted traces: {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_clock_overflowing_trace_gets_an_error_and_the_worker_lives_on() {
    use clean_core::{ThreadId, TraceEvent};
    use clean_trace::replay::MAX_CLOCK_TICKS;
    // Thread 0 releases once more than its 23-bit clock can count: the
    // replay used to panic, killing the only worker with the job
    // unanswered.
    let (t0, release) = (
        ThreadId::new(0),
        TraceEvent::Release {
            tid: ThreadId::new(0),
            lock: 0,
        },
    );
    let events: Vec<TraceEvent> = std::iter::once(TraceEvent::Write {
        tid: t0,
        addr: 0,
        size: 4,
    })
    .chain(std::iter::repeat_n(release, MAX_CLOCK_TICKS as usize + 1))
    .collect();
    let overflowing = clean_trace::encode_trace(&events).unwrap();
    drop(events);
    let dir = scratch("clock-overflow");
    let server = Server::start(ServerConfig::new(dir.join("store")).workers(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (digest, _) = submit(&mut client, &overflowing);
    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::INTERNAL);
            assert!(message.contains("overflows thread 0's clock"), "{message}");
        }
        other => panic!("overflowing ANALYZE: {other:?}"),
    }

    // The one worker is still there to replay the next trace.
    let trace = record(&dir, "dedup", true, 7);
    let (digest, _) = submit(&mut client, &trace);
    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::Verdict { races, .. } => assert!(!races.is_empty()),
        other => panic!("expected a verdict after the overflowing trace: {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_stored_trace_is_dropped_and_a_resubmit_stores_it_again() {
    let dir = scratch("damaged");
    let store = dir.join("store");
    let server = Server::start(ServerConfig::new(&store)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let trace = record(&dir, "dedup", true, 5);
    let (digest, _) = submit(&mut client, &trace);
    // The stored file loses its tail (a crash before the bytes reached
    // the disk, or a damaged disk): it no longer decodes.
    let stored = store.join(format!("{digest}.cltr"));
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&stored)
        .unwrap();
    f.set_len(trace.len() as u64 / 2).unwrap();
    drop(f);

    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::INTERNAL),
        other => panic!("ANALYZE of a damaged file: {other:?}"),
    }
    assert!(!stored.exists(), "the damaged file is deleted");
    let journal = client.metrics().unwrap();
    assert!(
        journal.contains(&format!("damaged_trace digest={digest}")),
        "{journal}"
    );

    // The intact bytes are stored afresh, not deduplicated against the
    // damaged file, and then analyze to a verdict.
    let (again, dedup) = submit(&mut client, &trace);
    assert_eq!(again, digest);
    assert!(
        !dedup,
        "a re-SUBMIT after damage must store the trace again"
    );
    match client.analyze(digest, EngineKind::Clean, true).unwrap() {
        Response::Verdict { races, cached, .. } => {
            assert!(!races.is_empty());
            assert!(!cached);
        }
        other => panic!("ANALYZE after the re-SUBMIT: {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_queued_job() {
    let dir = scratch("drain");
    let server = Server::start(ServerConfig::new(dir.join("store")).workers(1)).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let trace = record(&dir, "dedup", true, 9);
    let (digest, _) = submit(&mut client, &trace);

    // Admit a job (Pending proves it is in the queue), then shut the
    // server down from a second connection before polling the verdict.
    let Response::Pending { job } = client.analyze(digest, EngineKind::Clean, false).unwrap()
    else {
        panic!("expected pending");
    };
    let mut c2 = Client::connect(addr).unwrap();
    assert!(matches!(c2.shutdown().unwrap(), Response::ShuttingDown));

    // Drain completes the admitted job; STATUS still serves during it.
    let served: HashSet<_> = loop {
        match client.status(job).unwrap() {
            Response::Pending { .. } => std::thread::sleep(std::time::Duration::from_millis(2)),
            Response::Verdict { races, .. } => {
                break races.into_iter().map(|r| r.to_found()).collect()
            }
            other => panic!("unexpected: {other:?}"),
        }
    };
    let path = dir.join("truth.cltr");
    std::fs::write(&path, &trace).unwrap();
    let direct: HashSet<_> = Replay::new(EngineKind::Clean)
        .lanes(4)
        .events(&read_trace(&path).unwrap())
        .unwrap()
        .races
        .into_iter()
        .collect();
    assert_eq!(served, direct, "drained verdict must equal direct replay");

    // New replay work is refused while draining: the verdict for this
    // digest under a *different* engine is uncached, so the request
    // reaches the (closed) queue.
    match client.analyze(digest, EngineKind::FastTrack, true).unwrap() {
        Response::ShuttingDown => {}
        other => panic!("draining server must refuse new work, got {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_serves_persisted_verdicts_without_replaying() {
    let dir = scratch("warm");
    let store_dir = dir.join("store");
    let trace = record(&dir, "dedup", true, 21);
    let digest;
    {
        let server = Server::start(ServerConfig::new(&store_dir)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        digest = submit(&mut client, &trace).0;
        for engine in [EngineKind::Clean, EngineKind::FastTrack] {
            assert!(matches!(
                client.analyze(digest, engine, true).unwrap(),
                Response::Verdict { cached: false, .. }
            ));
        }
        server.join();
    }

    // Same store dir, fresh process state (and a fresh ephemeral port —
    // rebinding the old one would race TIME_WAIT).
    let server = Server::start(ServerConfig::new(&store_dir)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut verdicts = Vec::new();
    for engine in [EngineKind::Clean, EngineKind::FastTrack] {
        let Response::Verdict { cached, races, .. } = client.analyze(digest, engine, true).unwrap()
        else {
            panic!("expected verdict");
        };
        assert!(cached, "warm restart must serve from the persisted log");
        verdicts.push(races);
    }
    let s = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "jobs_completed"), 0, "no replay ran after restart");
    assert_eq!(stat(&s, "cache_hits"), 2);
    assert_eq!(
        stat(&s, "cache_persist_hits"),
        2,
        "both hits came from reloaded entries"
    );
    // And the reloaded verdicts are the real ones.
    let path = dir.join("warm.cltr");
    std::fs::write(&path, &trace).unwrap();
    let events = read_trace(&path).unwrap();
    for (races, engine) in verdicts
        .into_iter()
        .zip([EngineKind::Clean, EngineKind::FastTrack])
    {
        let direct: HashSet<_> = Replay::new(engine)
            .lanes(4)
            .events(&events)
            .unwrap()
            .races
            .into_iter()
            .collect();
        let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
        assert_eq!(served, direct, "engine {}", engine.name());
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn peer_fetch_pulls_missing_trace_before_replaying() {
    let dir = scratch("peerfetch");
    // Node A holds the trace; node B has never seen it but knows A.
    let node_a = Server::start(ServerConfig::new(dir.join("store-a"))).unwrap();
    let trace = record(&dir, "streamcluster", true, 31);
    let mut client_a = Client::connect(node_a.addr()).unwrap();
    let (digest, _) = submit(&mut client_a, &trace);

    let node_b =
        Server::start(ServerConfig::new(dir.join("store-b")).peer(node_a.addr().to_string()))
            .unwrap();
    let mut client_b = Client::connect(node_b.addr()).unwrap();
    let Response::Verdict { races, .. } = client_b
        .analyze_with_retry(digest, EngineKind::Clean, 10)
        .unwrap()
    else {
        panic!("expected verdict via peer fetch");
    };
    let path = dir.join("peer.cltr");
    std::fs::write(&path, &trace).unwrap();
    let direct: HashSet<_> = Replay::new(EngineKind::Clean)
        .lanes(4)
        .events(&read_trace(&path).unwrap())
        .unwrap()
        .races
        .into_iter()
        .collect();
    let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
    assert_eq!(served, direct, "fetched-trace verdict must equal direct");

    let s = client_b.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "fetches"), 1, "exactly one peer fetch");
    assert_eq!(stat(&s, "store_traces"), 1, "the fetched trace is resident");

    // A repeat analyze is a local cache hit — no second fetch.
    assert!(matches!(
        client_b.analyze(digest, EngineKind::Clean, true).unwrap(),
        Response::Verdict { cached: true, .. }
    ));
    assert_eq!(stat(&client_b.metrics_snapshot().unwrap(), "fetches"), 1);

    // A digest nobody holds still fails cleanly after the peer round.
    match client_b
        .analyze(TraceDigest(0xabcd), EngineKind::Clean, true)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_DIGEST),
        other => panic!("unexpected: {other:?}"),
    }
    node_b.join();
    node_a.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicted_digest_is_refetched_from_peer() {
    let dir = scratch("refetch");
    // Node A (unbounded) holds four distinct traces; node B's store is
    // capped below any two of them, so every fetch evicts.
    let node_a = Server::start(ServerConfig::new(dir.join("store-a"))).unwrap();
    let mut client_a = Client::connect(node_a.addr()).unwrap();
    let corpus: Vec<Vec<u8>> = vec![
        record(&dir, "dedup", true, 40),
        record(&dir, "dedup", false, 41),
        record(&dir, "streamcluster", true, 42),
        record(&dir, "streamcluster", false, 43),
    ];
    let digests: Vec<TraceDigest> = corpus.iter().map(|t| submit(&mut client_a, t).0).collect();
    let unique: HashSet<_> = digests.iter().copied().collect();
    assert_eq!(unique.len(), 4, "corpus digests must be distinct");
    let min_len = corpus.iter().map(Vec::len).min().unwrap() as u64;

    let node_b = Server::start(
        ServerConfig::new(dir.join("store-b"))
            .store_max_bytes(min_len)
            .peer(node_a.addr().to_string()),
    )
    .unwrap();
    let mut client_b = Client::connect(node_b.addr()).unwrap();

    // Analyzing each digest in turn fetches it and (store cap = one
    // trace) evicts its predecessor.
    for d in &digests {
        assert!(matches!(
            client_b
                .analyze_with_retry(*d, EngineKind::Clean, 10)
                .unwrap(),
            Response::Verdict { .. }
        ));
    }
    let s = client_b.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "fetches"), 4);
    // The exact eviction count races the worker's deferred unpin (a
    // still-pinned predecessor survives one insert and is collected by
    // the next); what is deterministic is that evictions happened at
    // all, and — asserted below via the fetch counter — that digest 0
    // was among the victims.
    let evictions = stat(&s, "store_evictions");
    assert!(evictions >= 1, "evictions: {evictions}");

    // The first digest was evicted long ago. Its verdict is still
    // cached, so analysis under the *same* engine never needs the bytes
    // back...
    assert!(matches!(
        client_b
            .analyze(digests[0], EngineKind::Clean, true)
            .unwrap(),
        Response::Verdict { cached: true, .. }
    ));
    let fetches = stat(&client_b.metrics_snapshot().unwrap(), "fetches");
    assert_eq!(fetches, 4, "cache hit, no fetch");
    // ...but a *different* engine must replay, which re-fetches and
    // re-pins the evicted trace.
    let Response::Verdict { races, .. } = client_b
        .analyze_with_retry(digests[0], EngineKind::FastTrack, 10)
        .unwrap()
    else {
        panic!("expected verdict after re-fetch");
    };
    let s = client_b.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "fetches"), 5, "evicted digest fetched again");
    let path = dir.join("refetch.cltr");
    std::fs::write(&path, &corpus[0]).unwrap();
    let direct: HashSet<_> = Replay::new(EngineKind::FastTrack)
        .lanes(4)
        .events(&read_trace(&path).unwrap())
        .unwrap()
        .races
        .into_iter()
        .collect();
    let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
    assert_eq!(served, direct);
    node_b.join();
    node_a.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verdicts_consistent_across_engines() {
    let dir = scratch("engines");
    let server = Server::start(ServerConfig::new(dir.join("store"))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let trace = record(&dir, "dedup", true, 11);
    let (digest, _) = submit(&mut client, &trace);
    let path = dir.join("engines.cltr");
    std::fs::write(&path, &trace).unwrap();
    let events = read_trace(&path).unwrap();
    for engine in EngineKind::ALL {
        let Response::Verdict { races, .. } = client.analyze(digest, engine, true).unwrap() else {
            panic!("expected verdict for {}", engine.name());
        };
        let direct: HashSet<_> = Replay::new(engine)
            .lanes(4)
            .events(&events)
            .unwrap()
            .races
            .into_iter()
            .collect();
        let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
        assert_eq!(served, direct, "engine {}", engine.name());
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
