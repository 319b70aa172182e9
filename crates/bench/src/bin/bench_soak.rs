//! Mixed-traffic soak harness for `clean-serve` with SLO gates.
//!
//! Starts an in-process digest-sharded fleet (3 nodes by default) behind
//! the CSRV router, then drives it with a weighted mix of traffic for a
//! wall-clock duration: cache-hot re-analyzes, cold uploads of
//! never-seen synthetic traces, duplicate submissions, deliberately
//! malformed frames, and slow-loris half-frames. Halfway through the
//! run a `CSUP v1` suppression policy is pushed live through the router
//! and every later verdict on the targeted digest must come back with
//! its races demoted to warnings.
//!
//! Every verdict observed by any worker is checked against a direct
//! `Replay` ground truth — the soak fails on a single
//! divergence. Worker-side stats land in a `clean-obs` registry
//! (per-class `soak_ops_total` counters, `soak_client_micros`
//! histograms, a `divergence_total` counter), and the latency SLO
//! gates read the server-side `serve_latency_micros` histograms out of
//! the fleet's own `METRICS` exposition — the soak validates the
//! observability path itself, not a private client-side timer. The run
//! writes `BENCH_soak.json` (override with `--out`), optionally the
//! merged `CMET v1` exposition (`--metrics-out FILE`, for CI greps),
//! and exits nonzero when an SLO gate trips:
//!
//! * unexpected-error rate above `--max-error-rate` (default 1%),
//! * any verdict divergence,
//! * no suppressed verdict observed after the policy flip,
//! * an empty or request-free fleet METRICS exposition,
//! * hot-analyze (server-side ANALYZE) p99 above `--p99-limit-ms`, or
//! * a per-class p99 regression against `--check-baseline FILE`: each of
//!   the `hot_p99_micros`, `cold_p99_micros` and `dup_p99_micros` keys
//!   recorded there gates its class (ANALYZE, cold SUBMIT, deduplicated
//!   SUBMIT — server-side service latency) at one log2 bucket of
//!   quantization headroom plus 25% plus a 2 ms floor.
//!
//! The schedule derives from one seed (`--seed` / `CLEAN_TEST_SEED`);
//! failures print the one-line repro command.

use clean_baselines::FoundRace;
use clean_bench::soak::{
    env_seed, synth_events, synth_trace, LogHistogram, OpClass, SplitMix64, TrafficMix,
};
use clean_bench::{env_threads, trace_dir};
use clean_obs::{Counter, Hist, Registry, Snapshot};
use clean_serve::client::{stat, Client};
use clean_serve::protocol::{Response, MAGIC, VERSION};
use clean_serve::router::{Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig, ServerHandle};
use clean_trace::{
    digest_events, read_trace, record_kernel_trace, EngineKind, RecordOptions, Replay, TraceDigest,
};
use std::collections::HashSet;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The engines hot traffic alternates between.
const ENGINES: [EngineKind; 2] = [EngineKind::Clean, EngineKind::FastTrack];

/// Server/router I/O timeout — must be far below the slow-loris stall
/// so the reap is observable within one op.
const IO_TIMEOUT_MILLIS: u64 = 300;

struct CorpusTrace {
    name: &'static str,
    bytes: Vec<u8>,
    digest: TraceDigest,
    /// Direct `Replay` race set per engine, in `ENGINES` order.
    truth: [HashSet<FoundRace>; 2],
}

const KERNELS: [(&str, bool); 4] = [
    ("dedup", true),
    ("streamcluster", true),
    ("fft", false),
    ("blackscholes", false),
];

fn record_corpus(dir: &std::path::Path) -> Vec<CorpusTrace> {
    KERNELS
        .iter()
        .map(|&(name, racy)| {
            let path = dir.join(format!("soak-{name}-{racy}.cltr"));
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
            let events = read_trace(&path).expect("read back recorded trace");
            let bytes = std::fs::read(&path).expect("read recorded trace bytes");
            std::fs::remove_file(&path).ok();
            let truth = ENGINES.map(|engine| {
                Replay::new(engine)
                    .lanes(4)
                    .events(&events)
                    .expect("replay the corpus trace")
                    .races
                    .into_iter()
                    .collect::<HashSet<_>>()
            });
            CorpusTrace {
                name,
                bytes,
                digest: digest_events(&events),
                truth,
            }
        })
        .collect()
}

fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// Pre-registered metric handles for one worker: the op loop records
/// through these without ever touching the registry mutex. Handles are
/// keyed by name, so every worker's cells share the same counters.
struct WorkerCells {
    /// Per-class ok counters, indexed like [`OpClass::ALL`].
    ok: [Counter; 5],
    /// Per-class unexpected-error counters.
    err: [Counter; 5],
    /// Per-class client-observed round-trip latency.
    hist: [Hist; 5],
    /// Verdicts that disagreed with the replay ground truth.
    divergences: Counter,
    /// Races demoted to warnings across all observed verdicts.
    suppressed: Counter,
}

impl WorkerCells {
    fn new(registry: &Registry) -> Self {
        let labeled = |outcome: &str| {
            OpClass::ALL.map(|c| {
                registry.counter_with(
                    "soak_ops_total",
                    &[("class", c.name()), ("outcome", outcome)],
                )
            })
        };
        WorkerCells {
            ok: labeled("ok"),
            err: labeled("err"),
            hist: OpClass::ALL
                .map(|c| registry.hist_with("soak_client_micros", &[("class", c.name())])),
            divergences: registry.counter("divergence_total"),
            suppressed: registry.counter("soak_suppressed_verdict_races"),
        }
    }
}

struct WorkerReport {
    cells: WorkerCells,
    samples: Vec<String>,
}

/// Everything a worker shares with the harness, by reference.
struct Shared<'a> {
    target: SocketAddr,
    corpus: &'a [CorpusTrace],
    stop: &'a AtomicBool,
    policy_active: &'a AtomicBool,
    cold_counter: &'a AtomicU64,
    registry: &'a Registry,
    suppress_digest: TraceDigest,
    seed: u64,
}

fn class_index(class: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL")
}

fn ensure_client(slot: &mut Option<Client>, target: SocketAddr) -> Result<&mut Client, String> {
    if slot.is_none() {
        *slot = Some(Client::connect(target).map_err(|e| format!("connect: {e}"))?);
    }
    Ok(slot.as_mut().expect("just connected"))
}

fn served_set(races: &[clean_serve::protocol::WireRace]) -> HashSet<FoundRace> {
    races.iter().map(|r| r.to_found()).collect()
}

/// One worker: schedules ops from the shared mix until `stop`,
/// recording outcomes through pre-registered metric handles so the hot
/// path takes no locks. Returns its failure samples.
fn run_worker(shared: &Shared<'_>, worker: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(
        shared
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker as u64 + 1)),
    );
    let mix = TrafficMix::default();
    let mut report = WorkerReport {
        cells: WorkerCells::new(shared.registry),
        samples: Vec::new(),
    };
    let mut client: Option<Client> = None;

    while !shared.stop.load(Ordering::Relaxed) {
        let class = mix.pick(&mut rng);
        let t0 = Instant::now();
        let outcome = match class {
            OpClass::HotAnalyze => op_hot_analyze(shared, &mut rng, &mut client, &mut report),
            OpClass::ColdSubmit => op_cold_submit(shared, &mut rng, &mut client, &mut report),
            OpClass::DupSubmit => op_dup_submit(shared, &mut rng, &mut client),
            OpClass::BadFrame => op_bad_frame(shared, &mut rng),
            OpClass::SlowLoris => op_slow_loris(shared),
        };
        let micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = class_index(class);
        match outcome {
            Ok(()) => {
                report.cells.ok[idx].inc();
                report.cells.hist[idx].record(micros);
            }
            Err(msg) => {
                report.cells.err[idx].inc();
                // A failed round trip poisons request/response framing.
                client = None;
                if report.samples.len() < 5 {
                    report.samples.push(format!("{}: {msg}", class.name()));
                }
            }
        }
    }
    report.samples
}

fn op_hot_analyze(
    shared: &Shared<'_>,
    rng: &mut SplitMix64,
    client: &mut Option<Client>,
    report: &mut WorkerReport,
) -> Result<(), String> {
    let trace = &shared.corpus[rng.below(shared.corpus.len() as u64) as usize];
    let (engine_idx, engine) = {
        let i = rng.below(ENGINES.len() as u64) as usize;
        (i, ENGINES[i])
    };
    // Read the flag BEFORE sending: the POLICY set is synchronous and
    // fleet-wide, so a request issued after the flip must see it.
    let expect_suppressed = shared.policy_active.load(Ordering::Acquire)
        && trace.digest == shared.suppress_digest
        && engine == EngineKind::Clean;
    let c = ensure_client(client, shared.target)?;
    match c
        .analyze_with_retry(trace.digest, engine, 100)
        .map_err(|e| format!("hot analyze: {e}"))?
    {
        Response::Verdict { digest, races, .. } => {
            if digest != trace.digest {
                return Err(format!("verdict for wrong digest {digest}"));
            }
            let served = served_set(&races);
            if served != trace.truth[engine_idx] {
                report.cells.divergences.inc();
                if report.samples.len() < 5 {
                    report.samples.push(format!(
                        "DIVERGENCE {} {}: served {} races, truth {}",
                        trace.name,
                        engine.name(),
                        served.len(),
                        trace.truth[engine_idx].len()
                    ));
                }
            }
            let suppressed = races.iter().filter(|r| r.suppressed).count() as u64;
            report.cells.suppressed.add(suppressed);
            if expect_suppressed && suppressed == 0 {
                report.cells.divergences.inc();
                if report.samples.len() < 5 {
                    report.samples.push(format!(
                        "SUPPRESSION MISS {}: policy active but no race demoted",
                        trace.name
                    ));
                }
            }
            Ok(())
        }
        other => Err(format!("hot analyze reply: {other:?}")),
    }
}

fn op_cold_submit(
    shared: &Shared<'_>,
    rng: &mut SplitMix64,
    client: &mut Option<Client>,
    report: &mut WorkerReport,
) -> Result<(), String> {
    // The global counter keeps synthetic seeds unique across workers;
    // synth_events folds 24 seed bits into addresses, far above any
    // plausible cold-op count for one soak.
    let cold_seed = shared
        .seed
        .wrapping_add(shared.cold_counter.fetch_add(1, Ordering::Relaxed));
    let racy = rng.below(2) == 0;
    let events = synth_events(cold_seed, racy);
    let truth: HashSet<FoundRace> = Replay::new(EngineKind::Clean)
        .lanes(2)
        .events(&events)
        .expect("replay the corpus trace")
        .races
        .into_iter()
        .collect();
    let c = ensure_client(client, shared.target)?;
    let digest = match c
        .submit(synth_trace(cold_seed, racy))
        .map_err(|e| format!("cold submit: {e}"))?
    {
        Response::Submitted { digest, .. } => digest,
        other => return Err(format!("cold submit reply: {other:?}")),
    };
    match c
        .analyze_with_retry(digest, EngineKind::Clean, 100)
        .map_err(|e| format!("cold analyze: {e}"))?
    {
        Response::Verdict { races, .. } => {
            if served_set(&races) != truth {
                report.cells.divergences.inc();
                if report.samples.len() < 5 {
                    report.samples.push(format!(
                        "DIVERGENCE synthetic seed {cold_seed}: served {} races, truth {}",
                        races.len(),
                        truth.len()
                    ));
                }
            }
            Ok(())
        }
        other => Err(format!("cold analyze reply: {other:?}")),
    }
}

fn op_dup_submit(
    shared: &Shared<'_>,
    rng: &mut SplitMix64,
    client: &mut Option<Client>,
) -> Result<(), String> {
    let trace = &shared.corpus[rng.below(shared.corpus.len() as u64) as usize];
    let c = ensure_client(client, shared.target)?;
    match c
        .submit(trace.bytes.clone())
        .map_err(|e| format!("dup submit: {e}"))?
    {
        Response::Submitted { digest, dedup, .. } => {
            if digest != trace.digest {
                return Err(format!("dup submit re-digested {} as {digest}", trace.name));
            }
            if !dedup {
                return Err(format!("dup submit of {} was not deduplicated", trace.name));
            }
            Ok(())
        }
        other => Err(format!("dup submit reply: {other:?}")),
    }
}

/// Success = the server answers BAD_FRAME or hangs up; a read timeout
/// means the connection wedged, which is the failure being hunted.
fn expect_rejection(stream: TcpStream, context: &str) -> Result<(), String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("{context}: set timeout: {e}"))?;
    let mut reader = BufReader::new(stream);
    match Response::read(&mut reader) {
        Ok(Some(Response::Error { .. })) | Ok(None) => Ok(()),
        Ok(Some(other)) => Err(format!("{context}: unexpected reply {other:?}")),
        Err(e) => match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => Ok(()),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                Err(format!("{context}: server wedged (read timed out)"))
            }
            _ => Err(format!("{context}: {e}")),
        },
    }
}

/// The 0x03 STATUS opcode, used where a hostile frame needs a real verb
/// so only the poisoned field is at fault.
const OP_STATUS_BYTE: u8 = 0x03;

/// Builds a CSRV frame header (+ body) from explicit parts, so hostile
/// frames track the live protocol [`VERSION`] instead of hard-coding a
/// stale one (a version bump must not silently turn every shape into
/// the same version-mismatch rejection).
fn raw_frame(magic: &[u8; 4], version: u8, opcode: u8, len: u32, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(10 + body.len());
    frame.extend_from_slice(magic);
    frame.push(version);
    frame.push(opcode);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

fn op_bad_frame(shared: &Shared<'_>, rng: &mut SplitMix64) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(shared.target).map_err(|e| format!("bad-frame connect: {e}"))?;
    let shape = rng.below(4);
    let frame: Vec<u8> = match shape {
        // Wrong magic.
        0 => raw_frame(b"XSRV", VERSION, OP_STATUS_BYTE, 0, &[]),
        // Wrong protocol version.
        1 => raw_frame(&MAGIC, VERSION.wrapping_add(0x60), OP_STATUS_BYTE, 0, &[]),
        // Unknown opcode.
        2 => raw_frame(&MAGIC, VERSION, 0x7f, 0, &[]),
        // Lying length: STATUS promises 8 body bytes, delivers 3.
        _ => raw_frame(&MAGIC, VERSION, OP_STATUS_BYTE, 8, b"abc"),
    };
    // The peer may reject and reset before the write finishes; that is
    // a success for this op, not a transport failure.
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
    if shape == 3 {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    expect_rejection(stream, "bad-frame")
}

fn op_slow_loris(shared: &Shared<'_>) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(shared.target).map_err(|e| format!("slow-loris connect: {e}"))?;
    // Half a header, then silence: the server's I/O timeout must reap
    // this connection instead of letting it camp on an acceptor.
    let _ = stream.write_all(&[MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION]);
    let _ = stream.flush();
    std::thread::sleep(Duration::from_millis(2 * IO_TIMEOUT_MILLIS));
    expect_rejection(stream, "slow-loris")
}

/// Folds every histogram of family `name` whose metric key carries all
/// `needles` (label fragments like `verb="analyze"`) into one — the
/// cross-node merge of one labeled histogram out of the router's
/// node-stamped exposition.
fn fleet_hist(snap: &Snapshot, name: &str, needles: &[&str]) -> LogHistogram {
    let mut out = LogHistogram::new();
    for (key, hist) in &snap.hists {
        let of_family =
            key == name || (key.starts_with(name) && key[name.len()..].starts_with('{'));
        if of_family && needles.iter().all(|n| key.contains(n)) {
            out.merge(hist);
        }
    }
    out
}

/// Minimal positive-integer field extraction from our own JSON output.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

struct Args {
    secs: u64,
    nodes: usize,
    clients: usize,
    seed: u64,
    out: PathBuf,
    metrics_out: Option<PathBuf>,
    check_baseline: Option<PathBuf>,
    max_error_rate: f64,
    p99_limit_ms: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 60,
        nodes: 3,
        clients: env_threads(),
        seed: env_seed(0xC1EA_50A4),
        out: PathBuf::from("BENCH_soak.json"),
        metrics_out: None,
        check_baseline: None,
        max_error_rate: 0.01,
        p99_limit_ms: None,
    };
    let mut it = std::env::args().skip(1);
    let usage = "usage: bench_soak [--secs N] [--nodes N] [--clients N] [--seed N] \
                 [--out FILE] [--metrics-out FILE] [--check-baseline FILE] \
                 [--max-error-rate F] [--p99-limit-ms F]";
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{usage}");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--secs" => args.secs = next(&mut it, "--secs").parse().expect("--secs"),
            "--nodes" => args.nodes = next(&mut it, "--nodes").parse().expect("--nodes"),
            "--clients" => args.clients = next(&mut it, "--clients").parse().expect("--clients"),
            "--seed" => args.seed = next(&mut it, "--seed").parse().expect("--seed"),
            "--out" => args.out = PathBuf::from(next(&mut it, "--out")),
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(next(&mut it, "--metrics-out")));
            }
            "--check-baseline" => {
                args.check_baseline = Some(PathBuf::from(next(&mut it, "--check-baseline")));
            }
            "--max-error-rate" => {
                args.max_error_rate = next(&mut it, "--max-error-rate")
                    .parse()
                    .expect("--max-error-rate");
            }
            "--p99-limit-ms" => {
                args.p99_limit_ms = Some(
                    next(&mut it, "--p99-limit-ms")
                        .parse()
                        .expect("--p99-limit-ms"),
                );
            }
            other => {
                eprintln!("unknown flag {other}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs >= 1, "--secs must be at least 1");
    assert!(args.nodes >= 1, "--nodes must be at least 1");
    assert!(args.clients >= 1, "--clients must be at least 1");
    args
}

fn main() {
    let args = parse_args();
    println!(
        "== bench_soak: {}s mixed-traffic soak, {} nodes, {} clients, seed {} ==\n",
        args.secs, args.nodes, args.clients, args.seed
    );
    let repro = format!(
        "CLEAN_TEST_SEED={} cargo run --release -p clean-bench --bin bench_soak -- \
         --secs {} --nodes {} --clients {}",
        args.seed, args.secs, args.nodes, args.clients
    );

    let dir = trace_dir();
    std::fs::create_dir_all(&dir).expect("create trace directory");
    let corpus = record_corpus(&dir);
    // The suppression target: a racy corpus digest plus the address
    // span of its Clean races, so the CSUP rule demotes all of them.
    let target_trace = corpus
        .iter()
        .find(|t| !t.truth[0].is_empty())
        .expect("corpus needs a racy trace");
    let (lo, hi) = target_trace.truth[0]
        .iter()
        .fold((usize::MAX, 0usize), |(lo, hi), r| {
            (lo.min(r.addr), hi.max(r.addr))
        });
    let policy_text = format!(
        "CSUP v1\n# soak: demote the known {} races\naddr {lo:#x}..{hi:#x}\n",
        target_trace.name
    );

    // ---- the fleet: N nodes, every sibling a FETCH peer, one router ----
    let store_root = dir.join(format!("soak-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let addrs = reserve_addrs(args.nodes);
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
                ServerConfig::new(store_root.join(format!("node-{i}")))
                    .addr(addr.clone())
                    .peers(peers)
                    .workers(args.clients.min(8))
                    .queue_cap(4 * args.clients)
                    .io_timeout_millis(IO_TIMEOUT_MILLIS),
            )
            .expect("start fleet node")
        })
        .collect();
    let router = Router::start(RouterConfig::new(addrs).io_timeout_millis(IO_TIMEOUT_MILLIS))
        .expect("start router");
    let target = router.addr();

    // Seed the corpus so hot traffic has verdicts to hit.
    let mut seed_client = Client::connect(target).expect("connect seed client");
    for trace in &corpus {
        match seed_client
            .submit(trace.bytes.clone())
            .expect("seed submit")
        {
            Response::Submitted { digest, .. } => assert_eq!(digest, trace.digest),
            other => panic!("seed submit failed: {other:?}"),
        }
    }

    let stop = AtomicBool::new(false);
    let policy_active = AtomicBool::new(false);
    let cold_counter = AtomicU64::new(1);
    // The harness registry: every worker records through it, and the
    // key gates below read it back as a snapshot. Registering the gate
    // counters up front guarantees they appear (as zeros) in the
    // exposition even if no worker ever bumps them.
    let registry = Registry::new();
    let _ = registry.counter("divergence_total");
    let _ = registry.counter("soak_suppressed_verdict_races");
    let shared = Shared {
        target,
        corpus: &corpus,
        stop: &stop,
        policy_active: &policy_active,
        cold_counter: &cold_counter,
        registry: &registry,
        suppress_digest: target_trace.digest,
        seed: args.seed,
    };

    let t0 = Instant::now();
    let worker_samples: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|w| {
                let shared = &shared;
                s.spawn(move || run_worker(shared, w))
            })
            .collect();

        // Harness timeline: run clean for half the soak, push the
        // suppression policy fleet-wide, run the second half, stop.
        std::thread::sleep(Duration::from_millis(args.secs * 500));
        match seed_client
            .set_policy(policy_text.clone())
            .expect("policy flip")
        {
            Response::Policy { rules, .. } => assert_eq!(rules, 1, "one soak rule"),
            other => panic!("policy flip rejected: {other:?}"),
        }
        policy_active.store(true, Ordering::Release);
        println!(
            "[{:>5.1}s] policy live: suppressing {} races in {:#x}..{:#x}",
            t0.elapsed().as_secs_f64(),
            target_trace.name,
            lo,
            hi
        );
        std::thread::sleep(Duration::from_millis(args.secs * 500));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    // ---- read the per-worker stats back out of the registry ----
    let soak_snap = registry.snapshot();
    let class_stats: Vec<(u64, u64, LogHistogram)> = OpClass::ALL
        .iter()
        .map(|class| {
            let count = |outcome| {
                soak_snap
                    .counter(
                        "soak_ops_total",
                        &[("class", class.name()), ("outcome", outcome)],
                    )
                    .unwrap_or(0)
            };
            let hist = soak_snap
                .hist("soak_client_micros", &[("class", class.name())])
                .cloned()
                .unwrap_or_default();
            (count("ok"), count("err"), hist)
        })
        .collect();
    let divergences = soak_snap.counter("divergence_total", &[]).unwrap_or(0);
    let suppressed_seen = soak_snap
        .counter("soak_suppressed_verdict_races", &[])
        .unwrap_or(0);
    let mut samples: Vec<String> = Vec::new();
    for worker in &worker_samples {
        for s in worker {
            if samples.len() < 10 {
                samples.push(s.clone());
            }
        }
    }
    let total_ok: u64 = class_stats.iter().map(|(ok, _, _)| ok).sum();
    let total_err: u64 = class_stats.iter().map(|(_, err, _)| err).sum();
    let total_ops = total_ok + total_err;
    let error_rate = if total_ops == 0 {
        1.0
    } else {
        total_err as f64 / total_ops as f64
    };

    // ---- the latency SLO source: the fleet's own METRICS wire ----
    // One exposition fetched through the router covers every node; the
    // p99 gates below read the server-side service histograms out of
    // it, so a broken observability path fails the soak outright.
    let fleet_snap = seed_client.metrics_snapshot().expect("final fleet METRICS");
    let hot_srv = fleet_hist(&fleet_snap, "serve_latency_micros", &["verb=\"analyze\""]);
    let cold_srv = fleet_hist(
        &fleet_snap,
        "serve_latency_micros",
        &["verb=\"submit\"", "dedup=\"false\""],
    );
    let dup_srv = fleet_hist(
        &fleet_snap,
        "serve_latency_micros",
        &["verb=\"submit\"", "dedup=\"true\""],
    );
    let hot_p99 = hot_srv.quantile(0.99);
    let cold_p99 = cold_srv.quantile(0.99);
    let dup_p99 = dup_srv.quantile(0.99);
    let requests_total = fleet_snap.counter_family_total("serve_requests_total");
    let pool_hits = fleet_snap.counter_family_total("router_pool_hits");

    match seed_client.policy().expect("final policy read") {
        Response::Policy { rules, .. } => assert_eq!(rules, 1, "policy must still be live"),
        other => panic!("policy read failed: {other:?}"),
    }
    match seed_client.shutdown().expect("fleet shutdown") {
        Response::ShuttingDown => {}
        other => panic!("fleet shutdown failed: {other:?}"),
    }
    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&store_root);

    // ---- report ----
    let mut table = clean_bench::Table::new(&[
        "class", "ops", "errors", "p50us", "p99us", "p999us", "maxus",
    ]);
    for (class, (ok, err, hist)) in OpClass::ALL.iter().zip(&class_stats) {
        table.row(vec![
            class.name().into(),
            ok.to_string(),
            err.to_string(),
            hist.quantile(0.50).to_string(),
            hist.quantile(0.99).to_string(),
            hist.quantile(0.999).to_string(),
            hist.max_micros().to_string(),
        ]);
    }
    table.print();
    println!(
        "\n{total_ops} ops in {elapsed:.1}s ({:.0} ops/s), error rate {:.4}, \
         {divergences} divergences, {suppressed_seen} suppressed verdict races",
        total_ops as f64 / elapsed,
        error_rate
    );
    println!(
        "fleet counters: coalesced {}, shed {}, forwards {}, fetches {}, \
         evictions {}, suppressed_hits {}, requests {requests_total}, pool hits {pool_hits}",
        stat(&fleet_snap, "jobs_coalesced"),
        stat(&fleet_snap, "jobs_rejected"),
        stat(&fleet_snap, "forwards"),
        stat(&fleet_snap, "fetches"),
        stat(&fleet_snap, "store_evictions"),
        stat(&fleet_snap, "suppressed_hits")
    );
    println!(
        "server-side p99 (from METRICS): analyze {hot_p99}us over {} samples, \
         cold submit {cold_p99}us, dup submit {dup_p99}us",
        hot_srv.count()
    );

    let mut class_json = String::new();
    for (i, (class, (ok, err, hist))) in OpClass::ALL.iter().zip(&class_stats).enumerate() {
        class_json.push_str(&format!(
            "    \"{}\": {{\"ops\": {}, \"errors\": {}, \"p50_micros\": {}, \
             \"p99_micros\": {}, \"p999_micros\": {}, \"max_micros\": {}, \"mean_micros\": {}}}{}\n",
            class.name(),
            ok,
            err,
            hist.quantile(0.50),
            hist.quantile(0.99),
            hist.quantile(0.999),
            hist.max_micros(),
            hist.mean_micros(),
            if i + 1 < OpClass::ALL.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"soak\",\n  \"seed\": {},\n  \"secs\": {},\n  \
         \"nodes\": {},\n  \"clients\": {},\n  \"total_ops\": {},\n  \
         \"ops_per_sec\": {:.1},\n  \"error_rate\": {:.6},\n  \"divergences\": {},\n  \
         \"suppressed_verdict_races\": {},\n  \"hot_p99_micros\": {},\n  \
         \"cold_p99_micros\": {},\n  \"dup_p99_micros\": {},\n  \
         \"jobs_coalesced\": {},\n  \"jobs_rejected\": {},\n  \"forwards\": {},\n  \
         \"fetches\": {},\n  \"store_evictions\": {},\n  \"suppressed_hits\": {},\n  \
         \"serve_requests_total\": {requests_total},\n  \"router_pool_hits\": {pool_hits},\n  \
         \"classes\": {{\n{class_json}  }}\n}}\n",
        args.seed,
        args.secs,
        args.nodes,
        args.clients,
        total_ops,
        total_ops as f64 / elapsed,
        error_rate,
        divergences,
        suppressed_seen,
        hot_p99,
        cold_p99,
        dup_p99,
        stat(&fleet_snap, "jobs_coalesced"),
        stat(&fleet_snap, "jobs_rejected"),
        stat(&fleet_snap, "forwards"),
        stat(&fleet_snap, "fetches"),
        stat(&fleet_snap, "store_evictions"),
        stat(&fleet_snap, "suppressed_hits"),
    );
    std::fs::write(&args.out, &json).expect("write result JSON");
    println!("wrote {}", args.out.display());
    if let Some(path) = &args.metrics_out {
        // One `CMET v1` exposition holding both sides of the soak: the
        // node-stamped fleet metrics and the harness's own counters
        // (divergence_total included, zero or not) — what CI greps.
        let mut combined = fleet_snap.clone();
        combined.merge(&soak_snap);
        std::fs::write(path, combined.render(&[])).expect("write metrics exposition");
        println!("wrote {}", path.display());
    }

    // ---- SLO gates ----
    let mut failures: Vec<String> = Vec::new();
    if requests_total == 0 {
        failures.push("fleet METRICS exposition reported zero serve_requests_total".into());
    }
    if hot_srv.count() == 0 {
        failures.push("fleet METRICS exposition carried no analyze latency samples".into());
    }
    if error_rate > args.max_error_rate {
        failures.push(format!(
            "error rate {error_rate:.4} exceeds ceiling {:.4}",
            args.max_error_rate
        ));
    }
    if divergences > 0 {
        failures.push(format!("{divergences} verdict divergences (must be 0)"));
    }
    if suppressed_seen == 0 {
        failures.push("no suppressed verdict observed after the policy flip".into());
    }
    if stat(&fleet_snap, "suppressed_hits") == 0 {
        failures.push("fleet suppressed_hits counter stayed 0".into());
    }
    if let Some(limit_ms) = args.p99_limit_ms {
        let limit = (limit_ms * 1000.0) as u64;
        if hot_p99 > limit {
            failures.push(format!(
                "hot-analyze p99 {hot_p99}us exceeds --p99-limit-ms {limit_ms}"
            ));
        }
    }
    if let Some(baseline_path) = &args.check_baseline {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline_path.display()));
        // Quantiles are log2-bucket upper bounds, so the smallest real
        // step above a baseline is a 2x bucket jump. Allow one bucket
        // of quantization headroom, then 25% + a 2 ms absolute floor on
        // top; a genuine regression (2+ buckets) still trips the gate.
        // Each latency-sensitive class gates independently: a cold-path
        // regression must not hide behind a healthy hot path.
        for (what, key, p99) in [
            ("hot-analyze", "hot_p99_micros", hot_p99),
            ("cold-submit", "cold_p99_micros", cold_p99),
            ("dup-submit", "dup_p99_micros", dup_p99),
        ] {
            let baseline = json_u64(&text, key)
                .unwrap_or_else(|| panic!("no {key} in {}", baseline_path.display()));
            let bucket_up = 2 * (baseline + 1) - 1;
            let ceiling = bucket_up + bucket_up / 4 + 2_000;
            if p99 > ceiling {
                failures.push(format!(
                    "{what} p99 {p99}us regressed past {ceiling}us \
                     (baseline {baseline}us + one log2 bucket + 25% + 2ms)"
                ));
            } else {
                println!("baseline check ok: {what} p99 {p99}us <= {ceiling}us");
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("\nSLO FAILURES:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        for s in &samples {
            eprintln!("  sample: {s}");
        }
        eprintln!("\nrepro: {repro}");
        std::process::exit(1);
    }
    println!(
        "\nheadline: {:.0} mixed ops/s sustained for {elapsed:.0}s with \
         server-side p99 analyze latency {}us (read off the METRICS wire) and zero divergence",
        total_ops as f64 / elapsed,
        hot_p99
    );
}
