//! The `clean-serve` daemon: a bounded-concurrency TCP server over the
//! [`crate::protocol`] frames, gluing together the trace store, verdict
//! cache, and job queue.
//!
//! Thread layout:
//!
//! * a bounded pool of **acceptor** threads, each looping
//!   accept-then-serve — concurrent connections are capped at the pool
//!   size and excess connections queue in the OS listen backlog instead
//!   of spawning unbounded threads,
//! * a pool of **worker** threads draining the job queue through the
//!   offline replay engines.
//!
//! Connections carry per-direction I/O timeouts: an idle connection
//! parked *at a frame boundary* is welcome to stay, but a peer that
//! stalls mid-frame (the slow-loris shape) gets a `BAD_FRAME` error and
//! a disconnect — one stuck sender cannot hold an acceptor hostage.
//!
//! SUBMIT bodies are *streamed* into the content-addressed store — the
//! bytes go straight from the socket to a staged temp file and are
//! digested from disk, so a 64 MiB upload never materializes in memory.
//!
//! A node configured with peers participates in fleet replication: an
//! ANALYZE naming a digest the local store lacks triggers a `FETCH`
//! round over the peers before giving up, and the fetched bytes are
//! verified against the requested digest on ingest (content addressing
//! makes the transfer self-verifying).
//!
//! A "client" for admission-control purposes is one connection (peer
//! address including port): per-client caps bound what a single
//! connection can hold in flight.
//!
//! Graceful shutdown (`SHUTDOWN` frame or [`ServerHandle::shutdown`])
//! closes the queue to new work but *drains* what was admitted: workers
//! finish every queued job (waiting clients get their verdicts), then
//! lingering connections are disconnected and all threads joined.

use crate::cache::{Verdict, VerdictCache, VerdictKey};
use crate::client::Client;
use crate::policy::{SuppressionPolicy, POLICY_FILE};
use crate::protocol::{
    error_code, read_frame_body, read_frame_header, Request, Response, WireRace, OP_SUBMIT,
};
use crate::queue::{Admission, JobQueue, JobState};
use crate::store::{StoreError, TraceStore};
use clean_obs::{Counter, Journal, Registry, Stage, StageSpans};
use clean_trace::{EngineKind, Replay, TraceDigest};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File name of the durable verdict log, under the store directory.
pub const VERDICT_LOG: &str = "verdicts.log";

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Directory for the content-addressed trace store.
    pub store_dir: PathBuf,
    /// Store byte bound (`u64::MAX` = unbounded).
    pub store_max_bytes: u64,
    /// Max queued-not-running jobs before load shedding.
    pub queue_cap: usize,
    /// Max unfinished jobs one connection may hold.
    pub per_client_cap: usize,
    /// Retry hint handed to shed clients, in milliseconds.
    pub retry_millis: u64,
    /// Worker threads replaying jobs.
    pub workers: usize,
    /// Replay lanes (address shards, one detector thread each) per job.
    pub shards: usize,
    /// Addresses of peer `clean-serve` nodes to FETCH missing digests
    /// from before failing an ANALYZE. Empty = standalone node.
    pub peers: Vec<String>,
    /// Acceptor-pool size: the cap on concurrently served connections.
    /// Excess connections wait in the OS listen backlog.
    pub acceptors: usize,
    /// Per-connection read/write timeout in milliseconds (0 = none).
    /// Only mid-frame stalls trip it; a connection idling *between*
    /// frames is left alone.
    pub io_timeout_millis: u64,
    /// Persist the verdict cache to `verdicts.log` beside the store and
    /// reload it on startup, so warm restarts serve without replaying.
    pub persist_verdicts: bool,
    /// Path of the `CSUP` suppression policy file. `None` uses
    /// `policy.csup` under the store directory. The file is loaded at
    /// startup (missing = empty policy) and rewritten atomically when a
    /// `POLICY` frame installs new rules, so suppression survives
    /// restarts.
    pub policy_path: Option<PathBuf>,
    /// Record per-stage timing spans (decode / check / verdict /
    /// store-insert / peer-fetch) into the metrics registry. Off means
    /// the span bundle is never constructed — every call site pays one
    /// `Option` branch and nothing else.
    /// Counters and the journal stay on either way (relaxed atomics at
    /// request granularity).
    pub obs_spans: bool,
}

impl ServerConfig {
    /// Defaults: loopback ephemeral port, 1 GiB store, 64-job queue,
    /// 8 jobs per client, 100 ms retry hint, workers/shards from
    /// available parallelism, no peers, 32 acceptors, 30 s I/O timeout,
    /// durable verdicts.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.into(),
            store_max_bytes: 1 << 30,
            queue_cap: 64,
            per_client_cap: 8,
            retry_millis: 100,
            workers: cores.clamp(1, 8),
            shards: cores.clamp(1, 8),
            peers: Vec::new(),
            acceptors: 32,
            io_timeout_millis: 30_000,
            persist_verdicts: true,
            policy_path: None,
            obs_spans: true,
        }
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the store byte bound.
    pub fn store_max_bytes(mut self, bytes: u64) -> Self {
        self.store_max_bytes = bytes;
        self
    }

    /// Sets the queue cap.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the per-client in-flight cap.
    pub fn per_client_cap(mut self, cap: usize) -> Self {
        self.per_client_cap = cap;
        self
    }

    /// Sets the retry hint.
    pub fn retry_millis(mut self, millis: u64) -> Self {
        self.retry_millis = millis;
        self
    }

    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the replay shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the peer list for fleet replication.
    pub fn peers(mut self, peers: Vec<String>) -> Self {
        self.peers = peers;
        self
    }

    /// Adds one peer address.
    pub fn peer(mut self, addr: impl Into<String>) -> Self {
        self.peers.push(addr.into());
        self
    }

    /// Sets the acceptor-pool size.
    pub fn acceptors(mut self, acceptors: usize) -> Self {
        self.acceptors = acceptors.max(1);
        self
    }

    /// Sets the per-connection I/O timeout (0 disables it).
    pub fn io_timeout_millis(mut self, millis: u64) -> Self {
        self.io_timeout_millis = millis;
        self
    }

    /// Enables or disables the durable verdict log.
    pub fn persist_verdicts(mut self, persist: bool) -> Self {
        self.persist_verdicts = persist;
        self
    }

    /// Sets the suppression-policy file path (default: `policy.csup`
    /// under the store directory).
    pub fn policy_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.policy_path = Some(path.into());
        self
    }

    /// Enables or disables per-stage timing spans.
    pub fn obs_spans(mut self, on: bool) -> Self {
        self.obs_spans = on;
        self
    }
}

/// The live suppression policy plus its audit trail: one counter per
/// rule, credited at classification time and reset whenever a `POLICY`
/// set installs new rules. The counters feed the v4 POLICY reply and
/// let `suppress prune` drop rules that never fired.
#[derive(Debug)]
struct ActivePolicy {
    policy: SuppressionPolicy,
    hits: Vec<u64>,
}

impl ActivePolicy {
    fn new(policy: SuppressionPolicy) -> Self {
        let hits = vec![0; policy.len()];
        ActivePolicy { policy, hits }
    }
}

/// Counters that live outside store and queue, backed by the metrics
/// registry the METRICS exposition renders.
#[derive(Debug)]
struct ServiceCounters {
    submits: Counter,
    submit_dedup_hits: Counter,
    analyzes: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    fetches: Counter,
    suppressed_hits: Counter,
}

impl ServiceCounters {
    fn new(registry: &Registry) -> Self {
        ServiceCounters {
            submits: registry.counter("submits"),
            submit_dedup_hits: registry.counter("submit_dedup_hits"),
            analyzes: registry.counter("analyzes"),
            cache_hits: registry.counter("cache_hits"),
            cache_misses: registry.counter("cache_misses"),
            fetches: registry.counter("fetches"),
            suppressed_hits: registry.counter("suppressed_hits"),
        }
    }
}

/// An observability bundle shared by the daemon and the router: the
/// metrics registry, the event journal, and (when the spans knob is on)
/// the per-stage timing histograms.
#[derive(Debug)]
pub(crate) struct Obs {
    pub(crate) registry: Registry,
    pub(crate) journal: Journal,
    pub(crate) spans: Option<StageSpans>,
}

impl Obs {
    pub(crate) fn new(spans_on: bool) -> Self {
        let registry = Registry::new();
        let spans = spans_on.then(|| StageSpans::new(&registry, "serve_stage_micros"));
        Obs {
            registry,
            journal: Journal::default(),
            spans,
        }
    }

    /// Counts one handled request and records its service latency,
    /// keyed by verb (and dedup outcome for submissions, so the soak
    /// harness can separate cold from duplicate submits server-side).
    pub(crate) fn record_request(&self, verb: &'static str, dedup: Option<bool>, micros: u64) {
        self.registry
            .counter_with("serve_requests_total", &[("verb", verb)])
            .inc();
        let hist = match dedup {
            Some(d) => self.registry.hist_with(
                "serve_latency_micros",
                &[("verb", verb), ("dedup", if d { "true" } else { "false" })],
            ),
            None => self
                .registry
                .hist_with("serve_latency_micros", &[("verb", verb)]),
        };
        hist.record(micros);
    }
}

/// State shared by every server thread.
#[derive(Debug)]
struct Shared {
    store: TraceStore,
    cache: VerdictCache,
    queue: JobQueue,
    counters: ServiceCounters,
    obs: Obs,
    /// The active suppression policy. Swapped whole on a `POLICY` set;
    /// verdict classification takes the lock only long enough to flag
    /// the races of one response.
    policy: Mutex<ActivePolicy>,
    /// Where the policy persists across restarts.
    policy_path: PathBuf,
    shards: usize,
    peers: Vec<String>,
    acceptors: usize,
    io_timeout: Option<Duration>,
    /// Set once shutdown begins; checked by acceptors before serving a
    /// fresh connection and by request handlers admitting new work.
    draining: AtomicBool,
    /// Condvar'd mirror of `draining` so a foreground daemon can block
    /// in [`ServerHandle::wait_until_draining`] instead of polling.
    drain_flag: Mutex<bool>,
    drain_cv: Condvar,
    addr: SocketAddr,
    /// Live connection sockets (clones keyed by connection id), so the
    /// drain can unblock parked readers. Entries are removed when their
    /// acceptor finishes the connection — a lingering clone would hold
    /// the TCP connection open after the server side is done with it.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    /// Renders the `CMET v1` exposition: the registry snapshot, plus
    /// the store/queue/cache counters (which own their cells elsewhere)
    /// overlaid under their own names, plus the journal as comments.
    fn metrics_text(&self) -> String {
        let mut snap = self.obs.registry.snapshot();
        let store = self.store.stats();
        let (jobs_completed, jobs_rejected, jobs_coalesced) = self.queue.counters();
        snap.counters
            .insert("jobs_completed".into(), jobs_completed);
        snap.counters.insert("jobs_rejected".into(), jobs_rejected);
        snap.counters
            .insert("jobs_coalesced".into(), jobs_coalesced);
        snap.counters
            .insert("store_evictions".into(), store.evictions);
        snap.counters
            .insert("cache_persist_hits".into(), self.cache.persist_hits());
        snap.gauges.insert("store_traces".into(), store.traces);
        snap.gauges.insert("store_bytes".into(), store.bytes);
        snap.render(&self.obs.journal.render())
    }

    /// Replays `digest` under `engine` — the worker body.
    fn run_job(&self, digest: TraceDigest, engine: EngineKind) -> Result<Verdict, String> {
        let key = VerdictKey { digest, engine };
        // A verdict may have landed while this job sat queued (another
        // engine run, or an earlier identical job): never replay twice.
        if let Some(v) = self.cache.get(&key) {
            return Ok(v);
        }
        let Some(path) = self.store.path_of(digest) else {
            return Err(format!("trace {digest} no longer in store"));
        };
        let _check_span = self.obs.spans.as_ref().map(|s| s.start(Stage::Check));
        // Every trace streams off the store file: nothing is loaded whole,
        // and a file that fails to decode never yields a verdict.
        let done = Replay::new(engine)
            .lanes(self.shards)
            .file(&path)
            .map_err(|e| e.to_string())?;
        let verdict = Verdict {
            races: done.races,
            events: done.events,
        };
        self.cache.insert(key, verdict.clone());
        Ok(verdict)
    }
}

/// Handle to a running server: address, shutdown, join.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts a graceful drain, as if a `SHUTDOWN` frame arrived.
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until someone initiates shutdown (a `SHUTDOWN` frame or
    /// [`ServerHandle::shutdown`]) — the foreground daemon's park.
    pub fn wait_until_draining(&self) {
        let mut flag = self.shared.drain_flag.lock();
        while !*flag {
            self.shared.drain_cv.wait(&mut flag);
        }
    }

    /// Drains and joins every server thread. Idempotent with
    /// [`ServerHandle::shutdown`]; called from `Drop` as a safety net.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        begin_drain(&self.shared);
        // Workers exit once the queue is closed *and* drained — every
        // admitted job has completed by the time these joins return, so
        // clients blocked in an ANALYZE-wait get their verdicts before
        // their connections are cut below.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unblock acceptors still parked inside a connection read.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // And acceptors parked in accept(): one wake-up poke each.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.shared.addr);
        }
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Flags the server as draining, closes the queue, and pokes every
/// acceptor awake with throwaway connections.
fn begin_drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    *shared.drain_flag.lock() = true;
    shared.drain_cv.notify_all();
    for _ in 0..shared.acceptors {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// The `clean-serve` service.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the acceptor and worker pools, and returns the
    /// handle.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, store-open failures, or verdict-log
    /// failures.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener =
            TcpListener::bind(
                config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "bad bind address")
                })?,
            )?;
        let addr = listener.local_addr()?;
        let store = TraceStore::open(&config.store_dir, config.store_max_bytes)?;
        let cache = if config.persist_verdicts {
            VerdictCache::open(config.store_dir.join(VERDICT_LOG))?
        } else {
            VerdictCache::new()
        };
        let acceptor_count = config.acceptors.max(1);
        let policy_path = config
            .policy_path
            .clone()
            .unwrap_or_else(|| config.store_dir.join(POLICY_FILE));
        // A missing file is the empty policy; an unparseable one fails
        // startup loudly rather than silently un-suppressing races.
        let policy = SuppressionPolicy::load(&policy_path)?;
        let obs = Obs::new(config.obs_spans);
        let counters = ServiceCounters::new(&obs.registry);
        let shared = Arc::new(Shared {
            store,
            cache,
            policy: Mutex::new(ActivePolicy::new(policy)),
            policy_path,
            queue: JobQueue::new(config.queue_cap, config.per_client_cap, config.retry_millis),
            counters,
            obs,
            shards: config.shards,
            peers: config.peers.clone(),
            acceptors: acceptor_count,
            io_timeout: (config.io_timeout_millis > 0)
                .then(|| Duration::from_millis(config.io_timeout_millis)),
            draining: AtomicBool::new(false),
            drain_flag: Mutex::new(false),
            drain_cv: Condvar::new(),
            addr,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let workers: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clean-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let listener = Arc::new(listener);
        let acceptors: Vec<JoinHandle<()>> = (0..acceptor_count)
            .map(|i| {
                let listener = Arc::clone(&listener);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clean-serve-accept-{i}"))
                    .spawn(move || acceptor_loop(&listener, &shared))
                    .expect("spawn acceptor thread")
            })
            .collect();

        Ok(ServerHandle {
            shared,
            acceptors,
            workers,
        })
    }
}

/// One acceptor: accept a connection, serve it to completion, repeat.
/// The pool size bounds concurrency; the OS backlog bounds admission.
fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => break,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // Best effort: tell the late arrival we are going away.
            let mut w = BufWriter::new(&stream);
            let _ = Response::ShuttingDown.write(&mut w);
            break;
        }
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(conn_id, clone);
        }
        serve_connection(stream, peer, shared);
        // Drop the drain clone too, or the TCP connection stays
        // half-open after this acceptor is done serving it.
        shared.conns.lock().remove(&conn_id);
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.next_job() {
        let result = shared.run_job(job.key.digest, job.key.engine);
        shared.queue.complete(job.id, result);
        shared.store.unpin(job.key.digest);
    }
}

fn error_response(code: u8, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Stable `verb` label value for a request (the `serve_requests_total`
/// key space).
pub(crate) fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Submit { .. } => "submit",
        Request::Analyze { .. } => "analyze",
        Request::Status { .. } => "status",
        Request::Shutdown => "shutdown",
        Request::Fetch { .. } => "fetch",
        Request::Policy { .. } => "policy",
        Request::Metrics => "metrics",
    }
}

/// Builds a VERDICT frame, classifying each race against the active
/// suppression policy. Classification happens here — at serve time, not
/// at cache-insert time — so the durable verdict cache stores raw replay
/// facts and a policy reload retroactively reclassifies every cached
/// verdict.
fn verdict_response(
    shared: &Shared,
    digest: TraceDigest,
    engine: EngineKind,
    cached: bool,
    v: &Verdict,
) -> Response {
    let flags = {
        let mut active = shared.policy.lock();
        let ActivePolicy { policy, hits } = &mut *active;
        policy.classify_with_hits(digest, &v.races, hits)
    };
    let _verdict_span = shared.obs.spans.as_ref().map(|s| s.start(Stage::Verdict));
    let suppressed = flags.iter().filter(|&&s| s).count() as u64;
    if suppressed > 0 {
        shared.counters.suppressed_hits.add(suppressed);
        shared
            .obs
            .journal
            .record("suppression", format!("digest={digest} races={suppressed}"));
    }
    let races = v
        .races
        .iter()
        .zip(&flags)
        .map(|(r, &s)| WireRace {
            suppressed: s,
            ..WireRace::from_found(r)
        })
        .collect();
    Response::Verdict {
        digest,
        engine,
        cached,
        races,
        events: v.events,
    }
}

fn serve_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let client = peer.to_string();
    if let Some(t) = shared.io_timeout {
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let header = match read_frame_header(&mut reader) {
            Ok(Some(h)) => h,
            // Clean disconnect, or the drain shut the socket down.
            Ok(None) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle at a frame boundary: welcome to keep waiting —
                // unless the server is draining, in which case the park
                // is over.
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Protocol error (bad magic/version, or a mid-frame
                // stall): report and drop the connection — the stream
                // position is unreliable.
                shared.obs.journal.record("bad_frame", e.to_string());
                let _ = error_response(error_code::BAD_FRAME, e.to_string()).write(&mut writer);
                break;
            }
            Err(_) => break,
        };
        let started = Instant::now();
        // SUBMIT bodies stream straight into the store; every other
        // request body is small and buffered.
        if header.opcode == OP_SUBMIT {
            let (response, framing_intact) = handle_submit_stream(shared, &mut reader, header.len);
            let dedup = match &response {
                Response::Submitted { dedup, .. } => Some(*dedup),
                _ => None,
            };
            shared
                .obs
                .record_request("submit", dedup, started.elapsed().as_micros() as u64);
            if response.write(&mut writer).is_err() || !framing_intact {
                break;
            }
            continue;
        }
        let decode_span = shared.obs.spans.as_ref().map(|s| s.start(Stage::Decode));
        let body = match read_frame_body(&mut reader, header.len) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.obs.journal.record("bad_frame", e.to_string());
                let _ = error_response(error_code::BAD_FRAME, e.to_string()).write(&mut writer);
                break;
            }
            Err(_) => break,
        };
        let request = match Request::from_frame(header.opcode, &body) {
            Ok(req) => req,
            Err(e) => {
                shared.obs.journal.record("bad_frame", e.to_string());
                let _ = error_response(error_code::BAD_FRAME, e.to_string()).write(&mut writer);
                break;
            }
        };
        drop(decode_span);
        let verb = verb_of(&request);
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = handle_request(shared, &client, request);
        shared
            .obs
            .record_request(verb, None, started.elapsed().as_micros() as u64);
        let write_ok = response.write(&mut writer).is_ok();
        if is_shutdown {
            // Drain only after the reply is on the wire: `join()` closes
            // every registered connection, racing the write otherwise.
            begin_drain(shared);
            break;
        }
        if !write_ok {
            break;
        }
    }
}

/// Streams a SUBMIT body from the socket into the store. Returns the
/// response plus whether the connection's framing is still intact (a
/// body that was not fully consumed leaves the stream unusable).
fn handle_submit_stream(shared: &Shared, reader: &mut impl Read, len: usize) -> (Response, bool) {
    if shared.draining.load(Ordering::SeqCst) {
        // Consume the declared body so the refusal leaves the stream at
        // a frame boundary.
        let drained = io::copy(&mut (&mut *reader).take(len as u64), &mut io::sink());
        return (Response::ShuttingDown, drained.ok() == Some(len as u64));
    }
    let evictions_before = shared.store.stats().evictions;
    let insert_span = shared
        .obs
        .spans
        .as_ref()
        .map(|s| s.start(Stage::StoreInsert));
    let inserted = shared.store.insert_stream(reader, len as u64, None);
    drop(insert_span);
    match inserted {
        Ok(stored) => {
            shared.counters.submits.inc();
            if stored.dedup {
                shared.counters.submit_dedup_hits.inc();
            }
            let evicted = shared.store.stats().evictions - evictions_before;
            if evicted > 0 {
                shared.obs.journal.record(
                    "eviction",
                    format!("count={evicted} after digest={}", stored.digest),
                );
            }
            (
                Response::Submitted {
                    digest: stored.digest,
                    dedup: stored.dedup,
                    bytes: stored.bytes,
                },
                true,
            )
        }
        // The store consumed the full body before rejecting: the
        // connection is still usable.
        Err(e @ StoreError::BadTrace(_)) => (error_response(e.code(), e.to_string()), true),
        Err(StoreError::Io(e)) => {
            // The copy stopped early: stream position unknown, so the
            // connection must drop. A socket timeout here is the
            // slow-loris shape and reports as BAD_FRAME.
            let timed_out = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            let resp = if timed_out {
                error_response(error_code::BAD_FRAME, "timed out mid frame body")
            } else {
                error_response(error_code::INTERNAL, format!("store I/O error: {e}"))
            };
            (resp, false)
        }
    }
}

fn handle_request(shared: &Shared, client: &str, request: Request) -> Response {
    match request {
        Request::Submit { trace } => {
            // Unreachable from `serve_connection` (SUBMIT streams), but
            // kept for in-process callers of the request API.
            if shared.draining.load(Ordering::SeqCst) {
                return Response::ShuttingDown;
            }
            match shared.store.insert(&trace) {
                Ok(stored) => {
                    shared.counters.submits.inc();
                    if stored.dedup {
                        shared.counters.submit_dedup_hits.inc();
                    }
                    Response::Submitted {
                        digest: stored.digest,
                        dedup: stored.dedup,
                        bytes: stored.bytes,
                    }
                }
                Err(e) => error_response(e.code(), e.to_string()),
            }
        }
        Request::Analyze {
            digest,
            engine,
            wait,
        } => {
            shared.counters.analyzes.inc();
            analyze(shared, client, digest, engine, wait)
        }
        Request::Status { job } => match shared.queue.status(job) {
            None => error_response(error_code::UNKNOWN_JOB, format!("unknown job {job}")),
            Some(JobState::Queued | JobState::Running) => Response::Pending { job },
            Some(JobState::Done(v)) => verdict_response_for_job(shared, job, &v),
            Some(JobState::Failed(e)) => error_response(error_code::INTERNAL, e),
        },
        // The drain itself starts in `serve_connection` after the reply
        // is written out.
        Request::Shutdown => Response::ShuttingDown,
        Request::Fetch { digest } => {
            // Pin across the path lookup and the read so eviction cannot
            // delete the file from under the transfer.
            shared.store.pin(digest);
            let response = match shared.store.path_of(digest) {
                Some(path) => match std::fs::read(&path) {
                    Ok(trace) => Response::TraceData { digest, trace },
                    Err(e) => error_response(error_code::INTERNAL, e.to_string()),
                },
                None => error_response(
                    error_code::UNKNOWN_DIGEST,
                    format!("trace {digest} not in store"),
                ),
            };
            shared.store.unpin(digest);
            response
        }
        Request::Policy { set } => handle_policy(shared, set),
        Request::Metrics => Response::Metrics {
            text: shared.metrics_text(),
        },
    }
}

/// Reads or replaces the suppression policy. A set persists the new
/// rules (atomic tmp + rename) *before* swapping them live, so a reply
/// of success means a restart will come back with the same policy.
fn handle_policy(shared: &Shared, set: Option<String>) -> Response {
    match set {
        None => {
            let active = shared.policy.lock();
            Response::Policy {
                rules: active.policy.len() as u64,
                hits: active.hits.clone(),
                text: active.policy.text().to_string(),
            }
        }
        Some(text) => {
            let parsed = match SuppressionPolicy::parse(&text) {
                Ok(p) => p,
                Err(e) => return error_response(error_code::BAD_POLICY, e.to_string()),
            };
            if let Err(e) = parsed.save(&shared.policy_path) {
                return error_response(
                    error_code::INTERNAL,
                    format!("persisting policy failed: {e}"),
                );
            }
            let rules = parsed.len() as u64;
            let text = parsed.text().to_string();
            // New rules start with a fresh audit trail.
            let active = ActivePolicy::new(parsed);
            let hits = active.hits.clone();
            *shared.policy.lock() = active;
            Response::Policy { rules, hits, text }
        }
    }
}

/// Builds the VERDICT frame for a finished job id.
fn verdict_response_for_job(shared: &Shared, job: u64, v: &Verdict) -> Response {
    match shared.queue.job_key(job) {
        Some(key) => verdict_response(shared, key.digest, key.engine, false, v),
        None => error_response(error_code::UNKNOWN_JOB, format!("unknown job {job}")),
    }
}

/// Tries to pull `digest` from each configured peer in turn. The caller
/// holds a pin on `digest`, so a successful insert cannot be evicted
/// before the analysis that wanted it runs. Returns true once the trace
/// is resident locally.
fn fetch_from_peers(shared: &Shared, digest: TraceDigest) -> bool {
    let _fetch_span = shared.obs.spans.as_ref().map(|s| s.start(Stage::PeerFetch));
    for peer in &shared.peers {
        let Ok(mut client) = Client::connect(peer.as_str()) else {
            continue;
        };
        let Ok(Response::TraceData { digest: got, trace }) =
            client.call(&Request::Fetch { digest })
        else {
            continue;
        };
        if got != digest {
            continue;
        }
        // `expected` re-digests the bytes on ingest: a lying or corrupt
        // peer cannot poison the store.
        if shared
            .store
            .insert_stream(&mut &trace[..], trace.len() as u64, Some(digest))
            .is_ok()
        {
            shared.counters.fetches.inc();
            return true;
        }
    }
    false
}

fn analyze(
    shared: &Shared,
    client: &str,
    digest: TraceDigest,
    engine: EngineKind,
    wait: bool,
) -> Response {
    // Pin before the existence check: eviction between "is it there" and
    // the worker opening the file would turn a valid request into a
    // spurious failure. Pinning an absent digest is harmless — and for
    // the peer-fetch path below it is load-bearing, guaranteeing the
    // fetched bytes cannot be evicted before the replay runs.
    shared.store.pin(digest);
    // Verdicts are content-addressed, so a cache hit never needs the
    // trace bytes — not even when the digest was evicted (or would have
    // to be peer-fetched). Check the cache before touching the store.
    let key = VerdictKey { digest, engine };
    if let Some(v) = shared.cache.get(&key) {
        shared.counters.cache_hits.inc();
        shared.store.unpin(digest);
        return verdict_response(shared, digest, engine, true, &v);
    }
    if !shared.store.contains(digest)
        && (shared.peers.is_empty() || !fetch_from_peers(shared, digest))
    {
        shared.store.unpin(digest);
        return error_response(
            error_code::UNKNOWN_DIGEST,
            format!("trace {digest} not in store; SUBMIT it first"),
        );
    }
    shared.counters.cache_misses.inc();
    match shared.queue.submit(key, client) {
        Admission::Rejected { retry_millis } => {
            shared.store.unpin(digest);
            shared
                .obs
                .journal
                .record("retry_after", format!("client={client} digest={digest}"));
            Response::RetryAfter {
                millis: retry_millis,
            }
        }
        Admission::Closed => {
            shared.store.unpin(digest);
            Response::ShuttingDown
        }
        Admission::Admitted { job, new } => {
            // A newly created job inherits this thread's pin; the worker
            // releases it after completing. An attachment rides on the
            // creator's pin, so this thread's pin is surplus.
            if !new {
                shared.store.unpin(digest);
            }
            if !wait {
                return Response::Pending { job };
            }
            match shared.queue.wait(job) {
                Some(JobState::Done(v)) => verdict_response(shared, digest, engine, false, &v),
                Some(JobState::Failed(e)) => error_response(error_code::INTERNAL, e),
                _ => error_response(error_code::INTERNAL, "job vanished"),
            }
        }
    }
}
