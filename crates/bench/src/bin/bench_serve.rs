//! Service-throughput benchmark for `clean-serve`.
//!
//! Starts an in-process daemon, records a small corpus of racy and clean
//! workload-kernel traces, then measures the three regimes a long-lived
//! analysis service actually sees:
//!
//! * **cold** — first SUBMIT + ANALYZE of every `(trace, engine)` pair:
//!   bounded by replay throughput, every request a cache miss;
//! * **hot** — `CLEAN_THREADS` concurrent clients re-requesting the same
//!   verdicts for many rounds: bounded by the protocol + verdict cache,
//!   every request a hit;
//! * **resubmit** — clients re-uploading traces the store already holds:
//!   bounded by digest validation, every upload deduplicated;
//! * **warm restart** — a second daemon on the same store directory:
//!   every verdict must come back from the persisted cache without a
//!   single replay;
//! * **fleet** — the same hot workload through a CSRV router fronting a
//!   3-node digest-sharded fleet, against the 1-node baseline.
//!
//! The run fails if the service counters, read from the `METRICS`
//! exposition, disagree with the regime (a hot round that misses the
//! cache means memoization broke) or if a racy trace yields no races.
//! Results land in `BENCH_serve.json` (override with `--out`); `--small`
//! selects the quick CI profile. `CLEAN_THREADS` scales the client
//! fan-out.

use clean_bench::{env_threads, fmt_pct, trace_dir, Table};
use clean_serve::client::{stat, Client};
use clean_serve::protocol::Response;
use clean_serve::router::{Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig, ServerHandle};
use clean_trace::{digest_file, record_kernel_trace, EngineKind, RecordOptions, TraceDigest};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Instant;

/// One recorded corpus entry.
struct CorpusTrace {
    name: &'static str,
    racy: bool,
    bytes: Vec<u8>,
    digest: TraceDigest,
}

const KERNELS: [(&str, bool); 4] = [
    ("dedup", true),
    ("streamcluster", true),
    ("fft", false),
    ("blackscholes", false),
];

/// Records the kernel corpus into `dir` and returns the encoded traces.
fn record_corpus(dir: &std::path::Path) -> Vec<CorpusTrace> {
    KERNELS
        .iter()
        .map(|&(name, racy)| {
            let path = dir.join(format!("serve-{name}-{racy}.cltr"));
            record_kernel_trace(
                name,
                &path,
                &RecordOptions {
                    threads: 4,
                    racy,
                    seed: 42,
                },
            )
            .expect("record kernel trace");
            let digest = digest_file(&path).expect("digest recorded trace");
            let bytes = std::fs::read(&path).expect("read recorded trace");
            std::fs::remove_file(&path).ok();
            CorpusTrace {
                name,
                racy,
                bytes,
                digest,
            }
        })
        .collect()
}

fn submit(client: &mut Client, trace: &[u8]) -> (TraceDigest, bool) {
    match client.submit(trace.to_vec()).expect("submit round trip") {
        Response::Submitted { digest, dedup, .. } => (digest, dedup),
        other => panic!("submit rejected: {other:?}"),
    }
}

/// Reserves `n` loopback addresses so fleet nodes can name each other
/// as peers before any of them binds.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn main() {
    let mut small = false;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown flag {other}; usage: bench_serve [--small] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let clients = env_threads();
    let rounds: usize = if small { 25 } else { 250 };
    let engines = [EngineKind::Clean, EngineKind::FastTrack];
    println!(
        "== bench_serve: service throughput ({} profile, {clients} clients, {rounds} hot rounds) ==\n",
        if small { "small" } else { "full" }
    );

    let dir = trace_dir();
    std::fs::create_dir_all(&dir).expect("create trace directory");
    let corpus = record_corpus(&dir);
    let corpus_bytes: usize = corpus.iter().map(|t| t.bytes.len()).sum();

    let store_dir = dir.join(format!("serve-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::start(
        ServerConfig::new(&store_dir)
            .workers(clients.min(8))
            .queue_cap(4 * clients.max(1)),
    )
    .expect("start in-process server");
    let addr = server.addr();

    // ---- cold: first submit + first analyze of every (trace, engine) ----
    let mut seed_client = Client::connect(addr).expect("connect seed client");
    let t0 = Instant::now();
    for trace in &corpus {
        let (digest, dedup) = submit(&mut seed_client, &trace.bytes);
        assert_eq!(digest, trace.digest, "store digest must match recorder");
        assert!(!dedup, "first submit of {} cannot dedup", trace.name);
    }
    let submit_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for trace in &corpus {
        for &engine in &engines {
            match seed_client
                .analyze_with_retry(trace.digest, engine, 100)
                .expect("cold analyze")
            {
                Response::Verdict { cached, races, .. } => {
                    assert!(!cached, "cold analyze of {} must miss", trace.name);
                    if trace.racy && engine == EngineKind::Clean {
                        assert!(!races.is_empty(), "racy {} must report races", trace.name);
                    }
                }
                other => panic!("cold analyze failed: {other:?}"),
            }
        }
    }
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_verdicts = corpus.len() * engines.len();
    let stats_cold = seed_client
        .metrics_snapshot()
        .expect("stats after cold phase");
    assert_eq!(
        stat(&stats_cold, "cache_hits"),
        0,
        "cold phase must not hit the cache"
    );

    // ---- hot: concurrent clients replaying the same requests ----
    let corpus_ref = &corpus;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect hot client");
                for round in 0..rounds {
                    for trace in corpus_ref {
                        let engine = engines[(c + round) % engines.len()];
                        match client
                            .analyze_with_retry(trace.digest, engine, 100)
                            .expect("hot analyze")
                        {
                            Response::Verdict { .. } => {}
                            other => panic!("hot analyze failed: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let hot_secs = t0.elapsed().as_secs_f64();
    let hot_verdicts = clients * rounds * corpus.len();

    // ---- resubmit: every upload hits the digest store ----
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect resubmit client");
                for trace in corpus_ref {
                    let (_, dedup) = submit(&mut client, &trace.bytes);
                    assert!(dedup, "resubmit of {} must dedup", trace.name);
                }
            });
        }
    });
    let resubmit_secs = t0.elapsed().as_secs_f64();
    let resubmit_count = clients * corpus.len();

    let stats = seed_client.metrics_snapshot().expect("final stats");
    let analyze_hist = stats
        .hist("serve_latency_micros", &[("verb", "analyze")])
        .expect("analyze latency histogram in METRICS");
    assert!(
        analyze_hist.count() as usize >= hot_verdicts,
        "every hot analyze must land in the service latency histogram"
    );
    server.shutdown();
    server.join();

    // ---- warm restart: a new daemon on the same store serves every
    // verdict from the persisted cache, no replays ----
    let t0 = Instant::now();
    let warm = Server::start(ServerConfig::new(&store_dir).workers(clients.min(8)))
        .expect("warm-restart server");
    let mut warm_client = Client::connect(warm.addr()).expect("connect warm client");
    for trace in &corpus {
        for &engine in &engines {
            match warm_client
                .analyze_with_retry(trace.digest, engine, 100)
                .expect("warm analyze")
            {
                Response::Verdict { cached, .. } => {
                    assert!(cached, "warm restart must serve {} from cache", trace.name)
                }
                other => panic!("warm analyze failed: {other:?}"),
            }
        }
    }
    let warm_secs = t0.elapsed().as_secs_f64();
    let warm_stats = warm_client.metrics_snapshot().expect("warm stats");
    let warm_persist_hits = stat(&warm_stats, "cache_persist_hits");
    assert_eq!(
        stat(&warm_stats, "jobs_completed"),
        0,
        "warm restart must not replay"
    );
    assert_eq!(
        warm_persist_hits as usize, cold_verdicts,
        "every warm verdict must come from the persisted cache"
    );
    warm.shutdown();
    warm.join();
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- fleet: the hot regime again, through a router fronting a
    // 3-node digest-sharded fleet ----
    let fleet_dir = dir.join(format!("serve-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let fleet_nodes = 3usize;
    let addrs = reserve_addrs(fleet_nodes);
    let nodes: Vec<ServerHandle> = addrs
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
                ServerConfig::new(fleet_dir.join(format!("node-{i}")))
                    .addr(addr.clone())
                    .peers(peers)
                    .workers(clients.min(8))
                    .queue_cap(4 * clients.max(1)),
            )
            .expect("start fleet node")
        })
        .collect();
    let router = Router::start(RouterConfig::new(addrs)).expect("start router");
    let router_addr = router.addr();

    let mut fleet_client = Client::connect(router_addr).expect("connect fleet client");
    for trace in &corpus {
        let (digest, dedup) = submit(&mut fleet_client, &trace.bytes);
        assert_eq!(digest, trace.digest);
        assert!(!dedup, "first fleet submit of {} cannot dedup", trace.name);
    }
    for trace in &corpus {
        for &engine in &engines {
            match fleet_client
                .analyze_with_retry(trace.digest, engine, 100)
                .expect("fleet cold analyze")
            {
                Response::Verdict { .. } => {}
                other => panic!("fleet cold analyze failed: {other:?}"),
            }
        }
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let mut client = Client::connect(router_addr).expect("connect fleet hot client");
                for round in 0..rounds {
                    for trace in corpus_ref {
                        let engine = engines[(c + round) % engines.len()];
                        match client
                            .analyze_with_retry(trace.digest, engine, 100)
                            .expect("fleet hot analyze")
                        {
                            Response::Verdict { .. } => {}
                            other => panic!("fleet hot analyze failed: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let fleet_secs = t0.elapsed().as_secs_f64();

    // The router's merged exposition: node-stamped backend snapshots
    // plus its own counters, summed across nodes. The hot phase must
    // have reused pooled backend connections instead of dialing per
    // forward.
    let fleet_stats = fleet_client.metrics_snapshot().expect("fleet stats");
    let fleet_pool_hits = stat(&fleet_stats, "router_pool_hits");
    let fleet_forwards = stat(&fleet_stats, "forwards");
    let fleet_store_traces = stat(&fleet_stats, "store_traces");
    assert!(
        fleet_pool_hits > 0,
        "the fleet hot phase must reuse pooled backend connections"
    );
    assert_eq!(
        fleet_store_traces as usize,
        corpus.len() * 2,
        "each trace lives on its primary and one replica"
    );
    assert_eq!(
        stat(&fleet_stats, "cache_misses") as usize,
        cold_verdicts,
        "only the fleet's cold analyzes may miss"
    );
    assert_eq!(
        stat(&fleet_stats, "fetches"),
        0,
        "a healthy fleet never peer-fetches"
    );
    assert!(fleet_forwards > 0, "the router must be forwarding");
    match fleet_client.shutdown().expect("fleet shutdown") {
        Response::ShuttingDown => {}
        other => panic!("fleet shutdown failed: {other:?}"),
    }
    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&fleet_dir);

    // Memoization must have served the entire hot phase from the cache.
    let hits = stat(&stats, "cache_hits");
    let misses = stat(&stats, "cache_misses");
    assert_eq!(
        misses as usize, cold_verdicts,
        "only the cold phase may miss"
    );
    assert!(
        hits as usize >= hot_verdicts,
        "hot phase must be all cache hits"
    );
    assert_eq!(stat(&stats, "store_traces") as usize, corpus.len());
    let hit_rate = hits as f64 / (hits + misses) as f64;

    let mut t = Table::new(&["phase", "requests", "secs", "req/s"]);
    for (phase, n, secs) in [
        ("cold submit", corpus.len(), submit_secs),
        ("cold analyze", cold_verdicts, cold_secs),
        ("hot analyze", hot_verdicts, hot_secs),
        ("resubmit", resubmit_count, resubmit_secs),
        ("warm restart", cold_verdicts, warm_secs),
        ("fleet hot (3n)", hot_verdicts, fleet_secs),
    ] {
        t.row(vec![
            phase.into(),
            n.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", n as f64 / secs),
        ]);
    }
    t.print();
    println!(
        "\ncorpus {} traces / {:.1} MiB, cache hit rate {}, {} dedup uploads",
        corpus.len(),
        corpus_bytes as f64 / (1 << 20) as f64,
        fmt_pct(hit_rate),
        stat(&stats, "submit_dedup_hits"),
    );

    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"profile\": \"{}\",\n  \"clients\": {},\n  \"rounds\": {},\n  \"corpus_traces\": {},\n  \"corpus_bytes\": {},\n  \"cold_submit_secs\": {:.4},\n  \"cold_analyze_secs\": {:.4},\n  \"hot_analyze_secs\": {:.4},\n  \"resubmit_secs\": {:.4},\n  \"hot_verdicts_per_sec\": {:.1},\n  \"cache_hit_rate\": {:.4},\n  \"submit_dedup_hits\": {},\n  \"jobs_completed\": {},\n  \"jobs_rejected\": {},\n  \"warm_restart_secs\": {:.4},\n  \"warm_persist_hits\": {},\n  \"fleet_nodes\": {},\n  \"fleet_hot_secs\": {:.4},\n  \"fleet_hot_verdicts_per_sec\": {:.1},\n  \"fleet_forwards\": {},\n  \"fleet_pool_hits\": {},\n  \"fleet_store_traces\": {}\n}}\n",
        if small { "small" } else { "full" },
        clients,
        rounds,
        corpus.len(),
        corpus_bytes,
        submit_secs,
        cold_secs,
        hot_secs,
        resubmit_secs,
        hot_verdicts as f64 / hot_secs,
        hit_rate,
        stat(&stats, "submit_dedup_hits"),
        stat(&stats, "jobs_completed"),
        stat(&stats, "jobs_rejected"),
        warm_secs,
        warm_persist_hits,
        fleet_nodes,
        fleet_secs,
        hot_verdicts as f64 / fleet_secs,
        fleet_forwards,
        fleet_pool_hits,
        fleet_store_traces,
    );
    std::fs::write(&out, &json).expect("write result JSON");
    println!("wrote {}", out.display());
    println!(
        "headline: {:.0} cached verdicts/s across {clients} clients \
         ({:.0}/s through the 3-node fleet router)",
        hot_verdicts as f64 / hot_secs,
        hot_verdicts as f64 / fleet_secs
    );
}
