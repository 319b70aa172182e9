//! Fleet tests: a 3-node in-process fleet behind the router must serve
//! verdicts identical to single-node clean-serve and to a direct
//! `Replay` run, for every engine, under 16 concurrent clients —
//! including after one backend is killed and its digests come back via
//! peer FETCH from the surviving replica.

use clean_obs::Snapshot;
use clean_serve::client::{stat, Client};
use clean_serve::protocol::{error_code, Response};
use clean_serve::router::{primary_backend, tag_job, untag_job, Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig, ServerHandle};
use clean_trace::{
    digest_events, read_trace, record_kernel_trace, EngineKind, RecordOptions, Replay, TraceDigest,
};
use std::collections::HashSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(dir: &Path, name: &str, racy: bool, seed: u64) -> Vec<u8> {
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

/// Reserves `n` distinct loopback addresses by binding ephemeral
/// listeners, then releasing them. Peers must be known *before* a node
/// starts, so the fleet cannot use bind-time ephemeral ports directly.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Starts an n-node fleet on `addrs`: every node gets every sibling as
/// a FETCH peer.
fn start_fleet(dir: &Path, addrs: &[String]) -> Vec<ServerHandle> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let peers: Vec<String> = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| a.clone())
                .collect();
            Server::start(
                ServerConfig::new(dir.join(format!("node-{i}")))
                    .addr(addr.clone())
                    .peers(peers),
            )
            .unwrap()
        })
        .collect()
}

fn submit(client: &mut Client, trace: &[u8]) -> (TraceDigest, bool) {
    match client.submit(trace.to_vec()).unwrap() {
        Response::Submitted { digest, dedup, .. } => (digest, dedup),
        other => panic!("submit failed: {other:?}"),
    }
}

type Truth = Vec<(TraceDigest, Vec<HashSet<clean_baselines::FoundRace>>)>;

/// Ground truth: digest plus the direct `Replay` race set for
/// every engine, in `EngineKind::ALL` order.
fn ground_truth(dir: &Path, corpus: &[Vec<u8>]) -> Truth {
    corpus
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let path = dir.join(format!("truth-{i}.cltr"));
            std::fs::write(&path, trace).unwrap();
            let events = read_trace(&path).unwrap();
            let per_engine = EngineKind::ALL
                .iter()
                .map(|&engine| {
                    Replay::new(engine)
                        .lanes(4)
                        .events(&events)
                        .unwrap()
                        .races
                        .into_iter()
                        .collect::<HashSet<_>>()
                })
                .collect();
            (digest_events(&events), per_engine)
        })
        .collect()
}

fn assert_verdict_matches(
    client: &mut Client,
    digest: TraceDigest,
    engine: EngineKind,
    expect: &HashSet<clean_baselines::FoundRace>,
    context: &str,
) {
    let Response::Verdict {
        digest: got, races, ..
    } = client.analyze_with_retry(digest, engine, 50).unwrap()
    else {
        panic!(
            "{context}: expected verdict for {digest} / {}",
            engine.name()
        );
    };
    assert_eq!(got, digest);
    let served: HashSet<_> = races.into_iter().map(|r| r.to_found()).collect();
    assert_eq!(
        served,
        *expect,
        "{context}: {digest} under {}",
        engine.name()
    );
}

#[test]
fn fleet_matches_single_node_and_direct_replay_with_kill() {
    let dir = scratch("accept");
    let corpus: Vec<Vec<u8>> = vec![
        record(&dir, "dedup", true, 1),
        record(&dir, "dedup", false, 1),
        record(&dir, "streamcluster", true, 2),
        record(&dir, "fft", true, 3),
    ];
    let truth = ground_truth(&dir, &corpus);

    // Reference run: single-node clean-serve serves the same verdicts.
    {
        let single = Server::start(ServerConfig::new(dir.join("single"))).unwrap();
        let mut client = Client::connect(single.addr()).unwrap();
        for trace in &corpus {
            submit(&mut client, trace);
        }
        for (digest, per_engine) in &truth {
            for (engine, expect) in EngineKind::ALL.iter().zip(per_engine) {
                assert_verdict_matches(&mut client, *digest, *engine, expect, "single-node");
            }
        }
        single.join();
    }

    // The fleet: 3 nodes, replication 2, fronted by the router.
    let addrs = reserve_addrs(3);
    let mut nodes = start_fleet(&dir, &addrs);
    let router = Router::start(
        RouterConfig::new(addrs.clone())
            .connect_retries(1)
            .retry_delay_millis(10),
    )
    .unwrap();
    let router_addr = router.addr();

    // 16 concurrent clients: submit through the router, then analyze
    // every digest under every engine through the router.
    let corpus = Arc::new(corpus);
    let truth = Arc::new(truth);
    let barrier = Arc::new(std::sync::Barrier::new(16));
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let corpus = Arc::clone(&corpus);
            let truth = Arc::clone(&truth);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).unwrap();
                let mine = i % corpus.len();
                let (digest, _) = submit(&mut client, &corpus[mine]);
                assert_eq!(digest, truth[mine].0);
                barrier.wait();
                for (digest, per_engine) in truth.iter() {
                    for (engine, expect) in EngineKind::ALL.iter().zip(per_engine) {
                        assert_verdict_matches(&mut client, *digest, *engine, expect, "fleet");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Dedup across nodes: every submit was forwarded to primary +
    // replica, and each (digest, node) pair stored exactly once.
    let mut client = Client::connect(router_addr).unwrap();
    let s = client.metrics_snapshot().unwrap();
    assert_eq!(stat(&s, "submits"), 32, "16 submits x replication 2");
    assert_eq!(stat(&s, "submit_dedup_hits"), 24, "8 (digest, node) pairs");
    assert_eq!(stat(&s, "store_traces"), 8, "4 digests x 2 copies");
    let forwards = stat(&s, "forwards");
    assert!(forwards >= 32, "forwards: {forwards}");
    assert_eq!(stat(&s, "fetches"), 0, "healthy fleet never peer-fetches");

    // Kill the primary of digest 0. The read failover lands on a node
    // that does NOT hold the replica (it sits at the ring predecessor),
    // so serving this digest again must go through peer FETCH.
    let victim = primary_backend(truth[0].0, 3);
    let dead = nodes.remove(victim);
    dead.shutdown();
    dead.join();

    let (digest0, per_engine0) = &truth[0];
    for (engine, expect) in EngineKind::ALL.iter().zip(per_engine0) {
        assert_verdict_matches(&mut client, *digest0, *engine, expect, "post-kill");
    }
    let fetches = stat(&client.metrics_snapshot().unwrap(), "fetches");
    assert!(
        fetches >= 1,
        "killed primary must force a peer fetch, got {fetches}"
    );

    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failover_under_load_keeps_serving_direct_replay_verdicts() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = scratch("failover");
    let corpus: Vec<Vec<u8>> = vec![
        record(&dir, "streamcluster", true, 11),
        record(&dir, "dedup", true, 12),
    ];
    let truth = ground_truth(&dir, &corpus);

    let addrs = reserve_addrs(3);
    let mut nodes = start_fleet(&dir, &addrs);
    let router = Router::start(
        RouterConfig::new(addrs.clone())
            .connect_retries(1)
            .retry_delay_millis(10),
    )
    .unwrap();
    let router_addr = router.addr();

    let mut seed_client = Client::connect(router_addr).unwrap();
    for (trace, (digest, _)) in corpus.iter().zip(&truth) {
        let (got, _) = submit(&mut seed_client, trace);
        assert_eq!(got, *digest);
    }

    // 8 clients hammer analyzes for every digest under every engine in
    // a loop while the main thread kills the racy digest's primary
    // mid-stream. Every verdict any client receives — before, during,
    // or after the kill — must equal the direct replay; a torn socket
    // is the only tolerated failure, answered by a reconnect.
    let truth = Arc::new(truth);
    let stop = Arc::new(AtomicBool::new(false));
    let killed = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let truth = Arc::clone(&truth);
            let stop = Arc::clone(&stop);
            let killed = Arc::clone(&killed);
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).unwrap();
                let mut post_kill_passes = 0u32;
                let mut attempts = 0u32;
                // Run until stopped AND at least one full pass has
                // succeeded after the kill — the failover must be
                // provably visible to every client.
                while !stop.load(Ordering::Acquire) || post_kill_passes == 0 {
                    attempts += 1;
                    assert!(
                        attempts < 10_000,
                        "worker {w}: no successful pass after the kill"
                    );
                    let was_killed = killed.load(Ordering::Acquire);
                    let mut torn = false;
                    'pass: for (digest, per_engine) in truth.iter() {
                        for (engine, expect) in EngineKind::ALL.iter().zip(per_engine) {
                            match client.analyze_with_retry(*digest, *engine, 50) {
                                Ok(Response::Verdict {
                                    digest: got, races, ..
                                }) => {
                                    assert_eq!(got, *digest);
                                    let served: HashSet<_> =
                                        races.into_iter().map(|r| r.to_found()).collect();
                                    assert_eq!(
                                        served,
                                        *expect,
                                        "worker {w}: verdict diverged from direct replay \
                                         ({digest} under {})",
                                        engine.name()
                                    );
                                }
                                Ok(other) => panic!("worker {w}: unexpected {other:?}"),
                                Err(_) => {
                                    // Socket torn by the kill: reconnect,
                                    // the pass does not count.
                                    client = Client::connect(router_addr).unwrap();
                                    torn = true;
                                    break 'pass;
                                }
                            }
                        }
                    }
                    if !torn && was_killed {
                        post_kill_passes += 1;
                    }
                }
                post_kill_passes
            })
        })
        .collect();

    // Let traffic flow, then kill the primary for the first digest.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let victim = primary_backend(truth[0].0, 3);
    let dead = nodes.remove(victim);
    dead.shutdown();
    killed.store(true, Ordering::Release);
    dead.join();
    std::thread::sleep(std::time::Duration::from_millis(150));
    stop.store(true, Ordering::Release);

    for h in workers {
        let passes = h.join().unwrap();
        assert!(passes >= 1, "every client must complete a post-kill pass");
    }

    // The failover read landed on a node without the trace at least
    // once, so the peer-FETCH path must have fired.
    let mut client = Client::connect(router_addr).unwrap();
    let fetches = stat(&client.metrics_snapshot().unwrap(), "fetches");
    assert!(
        fetches >= 1,
        "killing the primary must force a peer fetch, got {fetches}"
    );

    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_metrics_merge_equals_per_backend_snapshots() {
    let dir = scratch("metrics");
    let corpus: Vec<Vec<u8>> = vec![
        record(&dir, "dedup", true, 21),
        record(&dir, "fft", false, 22),
        record(&dir, "streamcluster", true, 23),
    ];

    let addrs = reserve_addrs(3);
    let nodes = start_fleet(&dir, &addrs);
    let router = Router::start(RouterConfig::new(addrs.clone())).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let mut digests = Vec::new();
    for trace in &corpus {
        let (digest, _) = submit(&mut client, trace);
        digests.push(digest);
    }
    // Analyze each digest twice so the verdict cache both misses and
    // hits at least once per digest.
    for &digest in &digests {
        for _ in 0..2 {
            let Response::Verdict { .. } = client
                .analyze_with_retry(digest, EngineKind::Clean, 50)
                .unwrap()
            else {
                panic!("expected verdict for {digest}");
            };
        }
    }

    // Snapshot order matters: a METRICS request counts itself into the
    // *next* exposition, so fetch every backend directly first, then
    // the router's merge, and compare only counters METRICS-verb
    // traffic cannot move.
    let backends: Vec<Snapshot> = addrs
        .iter()
        .map(|addr| {
            let mut direct = Client::connect(addr.as_str()).unwrap();
            direct.metrics_snapshot().unwrap()
        })
        .collect();
    let merged = client.metrics_snapshot().unwrap();

    for name in ["submits", "analyzes", "cache_hits", "cache_misses"] {
        let mut sum = 0;
        for (i, backend) in backends.iter().enumerate() {
            let direct = backend.counter(name, &[]).unwrap_or(0);
            let node = i.to_string();
            assert_eq!(
                merged.counter(name, &[("node", &node)]).unwrap_or(0),
                direct,
                "{name} for node {i} must survive the merge unchanged"
            );
            sum += direct;
        }
        assert_eq!(
            merged.counter_family_total(name),
            sum,
            "{name} family total must be the sum over backends"
        );
    }
    // Same invariant for a multi-label key: the merge only adds the
    // node label, never disturbs the existing ones.
    for (i, backend) in backends.iter().enumerate() {
        let node = i.to_string();
        assert_eq!(
            merged.counter(
                "serve_requests_total",
                &[("node", &node), ("verb", "submit")]
            ),
            backend.counter("serve_requests_total", &[("verb", "submit")]),
            "submit request count for node {i}"
        );
    }

    // Ground-truth totals: 3 submits x replication 2 land on the nodes,
    // and each digest's second analyze hits the verdict cache.
    assert_eq!(merged.counter_family_total("submits"), 6);
    assert!(merged.counter_family_total("cache_hits") >= 3);
    assert!(merged.counter_family_total("analyzes") >= merged.counter_family_total("cache_hits"));

    // The router's own counters ride along under node="router".
    let forwards = merged
        .counter("forwards", &[("node", "router")])
        .expect("router forwards counter");
    assert!(forwards >= 6, "forwards: {forwards}");
    let pool_hits = merged
        .counter("router_pool_hits", &[("node", "router")])
        .expect("router pool-hit counter");
    assert!(
        pool_hits > 0,
        "repeated forwards must reuse a pooled backend connection"
    );

    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_tags_jobs_and_routes_status_polls() {
    let dir = scratch("status");
    let addrs = reserve_addrs(2);
    let nodes = start_fleet(&dir, &addrs);
    let router = Router::start(RouterConfig::new(addrs.clone())).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let trace = record(&dir, "dedup", true, 7);
    let (digest, _) = submit(&mut client, &trace);
    // Nothing cached under VcFull yet, so a no-wait analyze must admit
    // a job and hand back a router-tagged id.
    let Response::Pending { job } = client.analyze(digest, EngineKind::VcFull, false).unwrap()
    else {
        panic!("expected pending");
    };
    assert_eq!(
        (job >> 56) as usize,
        primary_backend(digest, 2),
        "job tag must name the primary backend"
    );
    let races: HashSet<_> = loop {
        match client.status(job).unwrap() {
            Response::Pending { job: again } => {
                assert_eq!(again, job, "re-tagged id must be stable");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Response::Verdict { races, .. } => {
                break races.into_iter().map(|r| r.to_found()).collect()
            }
            other => panic!("unexpected: {other:?}"),
        }
    };
    let path = dir.join("status.cltr");
    std::fs::write(&path, &trace).unwrap();
    let direct: HashSet<_> = Replay::new(EngineKind::VcFull)
        .lanes(4)
        .events(&read_trace(&path).unwrap())
        .unwrap()
        .races
        .into_iter()
        .collect();
    assert_eq!(races, direct);

    // A job id naming a backend outside the fleet is rejected.
    match client.status(u64::MAX).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_JOB),
        other => panic!("unexpected: {other:?}"),
    }

    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleets_past_256_backends_are_refused() {
    // A job id carries its backend in the top byte: 255 is the last
    // index a tag can name, and backend 256's tag would wrap to backend
    // 0's, routing its STATUS polls to the wrong node.
    let job = (1 << 56) - 2;
    assert_eq!(untag_job(tag_job(job, 255)), (255, job));
    assert_eq!(untag_job(tag_job(job, 256)).0, 0);
    let backends = |n: usize| (0..n).map(|i| format!("127.0.0.1:{}", 1 + i)).collect();
    for n in [0, 257, 1000] {
        let err = Router::start(RouterConfig::new(backends(n)).acceptors(1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{n} backends");
    }
    // Starting dials no backend, so 256 dead addresses start fine.
    Router::start(RouterConfig::new(backends(256)).acceptors(1))
        .unwrap()
        .join();
}
