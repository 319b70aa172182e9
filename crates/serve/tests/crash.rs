//! Crash consistency for the durable verdict cache: a process killed
//! mid-append may leave a torn final line in `verdicts.log`. Reopening
//! must recover every fully-written verdict, drop only the torn tail,
//! and keep working — for *every possible* kill point, byte by byte.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::{ThreadId, TraceEvent};
use clean_serve::cache::{Verdict, VerdictCache, VerdictKey};
use clean_serve::client::{stat, Client};
use clean_serve::protocol::Response;
use clean_serve::server::{Server, ServerConfig, VERDICT_LOG};
use clean_trace::{encode_trace, EngineKind, TraceDigest};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-crash-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn verdict(i: u64) -> (VerdictKey, Verdict) {
    let key = VerdictKey {
        digest: TraceDigest(0x1000 + u128::from(i)),
        engine: EngineKind::Clean,
    };
    let races = (0..(i % 3))
        .map(|r| FoundRace {
            kind: if r == 0 {
                FullRaceKind::Waw
            } else {
                FullRaceKind::Raw
            },
            addr: 0x40 + 8 * (i as usize) + r as usize,
            current: ThreadId::new(1),
            previous: ThreadId::new(0),
        })
        .collect();
    (
        key,
        Verdict {
            races,
            events: 100 + i,
        },
    )
}

#[test]
fn every_truncation_point_recovers_all_complete_lines_and_nothing_else() {
    let dir = scratch("sweep");
    let log_path = dir.join("verdicts.log");

    // Write a known log: 6 verdicts, some clean, some racy.
    let entries: Vec<(VerdictKey, Verdict)> = (0..6).map(verdict).collect();
    {
        let cache = VerdictCache::open(&log_path).unwrap();
        for (key, v) in &entries {
            cache.insert(*key, v.clone());
        }
    }
    let full = std::fs::read(&log_path).unwrap();
    assert!(full.ends_with(b"\n"), "every append ends with a newline");

    // Byte ends of each complete line, in append order: line 0 is the
    // CVERD header, line i+1 is entries[i].
    let line_ends: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(line_ends.len(), entries.len() + 1);

    // Every prefix of the log is a possible kill state.
    for cut in 0..=full.len() {
        let torn_path = dir.join(format!("torn-{cut}.log"));
        std::fs::write(&torn_path, &full[..cut]).unwrap();
        let cache = VerdictCache::open(&torn_path)
            .unwrap_or_else(|e| panic!("cut {cut}: reopen must not fail: {e}"));
        // A complete header plus k complete entry lines recovers
        // exactly the first k verdicts; a torn header recovers none.
        let survivors = if cut >= line_ends[0] {
            line_ends[1..].iter().filter(|&&end| end <= cut).count()
        } else {
            0
        };
        assert_eq!(cache.len(), survivors, "cut {cut}");
        for (i, (key, v)) in entries.iter().enumerate() {
            let got = cache.get(key);
            if i < survivors {
                assert_eq!(got.as_ref(), Some(v), "cut {cut}: entry {i} lost");
            } else {
                assert!(
                    got.is_none(),
                    "cut {cut}: entry {i} resurrected from a torn line"
                );
            }
        }
        // The compacted-on-open log must keep accepting appends...
        let (fresh_key, fresh_v) = verdict(100 + cut as u64);
        cache.insert(fresh_key, fresh_v.clone());
        drop(cache);
        // ...and a second reopen sees survivors + the new entry intact.
        let again = VerdictCache::open(&torn_path).unwrap();
        assert_eq!(
            again.len(),
            survivors + 1,
            "cut {cut}: compaction lost data"
        );
        assert_eq!(again.get(&fresh_key).as_ref(), Some(&fresh_v), "cut {cut}");
        std::fs::remove_file(&torn_path).ok();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn racy_trace(addr: usize) -> Vec<u8> {
    let events = [0u16, 1].map(|t| TraceEvent::Write {
        tid: ThreadId::new(t),
        addr,
        size: 8,
    });
    encode_trace(&events).unwrap()
}

fn analyze(client: &mut Client, digest: TraceDigest) -> (bool, usize) {
    match client
        .analyze_with_retry(digest, EngineKind::Clean, 50)
        .unwrap()
    {
        Response::Verdict { cached, races, .. } => (cached, races.len()),
        other => panic!("analyze failed: {other:?}"),
    }
}

#[test]
fn server_warm_restart_replays_only_the_torn_verdict() {
    let dir = scratch("server");

    // Two racy traces, analyzed in a known order → two log lines.
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let digests: Vec<TraceDigest> = [0x40usize, 0x80]
        .iter()
        .map(|&addr| match client.submit(racy_trace(addr)).unwrap() {
            Response::Submitted { digest, .. } => digest,
            other => panic!("submit failed: {other:?}"),
        })
        .collect();
    let mut race_counts = Vec::new();
    for &digest in &digests {
        let (cached, n) = analyze(&mut client, digest);
        assert!(!cached);
        assert!(n > 0, "the WAW trace must race");
        race_counts.push(n);
    }
    server.shutdown();
    server.join();

    // Kill mid-append: tear the tail off the second verdict's line.
    let log_path = dir.join(VERDICT_LOG);
    let log = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &log[..log.len() - 2]).unwrap();

    // Warm restart: the intact verdict is served from the persisted
    // cache; the torn one is silently replayed fresh.
    let warm = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(warm.addr()).unwrap();
    let (cached, n) = analyze(&mut client, digests[0]);
    assert!(cached, "intact log line must serve from cache");
    assert_eq!(n, race_counts[0]);
    let (cached, n) = analyze(&mut client, digests[1]);
    assert!(!cached, "torn log line must be dropped and replayed");
    assert_eq!(n, race_counts[1], "the replay must reproduce the verdict");
    let persisted = stat(&client.metrics_snapshot().unwrap(), "cache_persist_hits");
    assert_eq!(persisted, 1, "exactly one persisted hit");
    warm.shutdown();
    warm.join();

    // The replay was re-persisted: a third start serves both cached.
    let third = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(third.addr()).unwrap();
    for (&digest, &n) in digests.iter().zip(&race_counts) {
        let (cached, got) = analyze(&mut client, digest);
        assert!(cached, "everything must be cached after the heal");
        assert_eq!(got, n);
    }
    let persisted = stat(&client.metrics_snapshot().unwrap(), "cache_persist_hits");
    assert_eq!(persisted, 2);
    third.shutdown();
    third.join();
    let _ = std::fs::remove_dir_all(&dir);
}
