//! The `clean-serve` daemon: the request handler that glues the trace
//! store, verdict cache and job queue to the [`crate::protocol`] frames,
//! plus a pool of **worker** threads draining the job queue through the
//! offline replay engine. Accept, I/O deadlines, the frame loop, drain
//! and join are the skeleton it shares with the router (the `daemon`
//! module); the SUBMIT stream and the decode span are this handler's own.
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
//! Graceful shutdown (`SHUTDOWN` frame or `ServerHandle::shutdown`)
//! closes the queue to new work but *drains* what was admitted: workers
//! finish every queued job (waiting clients get their verdicts), then
//! lingering connections are disconnected and all threads joined.

use crate::cache::{Verdict, VerdictCache, VerdictKey};
use crate::client::Client;
use crate::daemon::{self, DaemonHandle, Frame, Next, Obs, Reply, Service};
use crate::protocol::{error_code, is_timeout, Request, Response, WireRace, OP_SUBMIT};
use crate::queue::{Admission, JobQueue, JobState};
use crate::store::{StoreError, TraceStore};
use clean_obs::{Counter, Registry, Stage};
use clean_trace::{default_lanes, EngineKind, Replay, TraceDigest, TraceError};
use std::io::{self, Read};
use std::net::SocketAddr;
use std::path::PathBuf;

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
    /// Replay lanes (address shards, one detector thread each) per job;
    /// the worker thread running the job decodes for them.
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
}

impl ServerConfig {
    /// Defaults: loopback ephemeral port, 1 GiB store, 64-job queue,
    /// 8 jobs per client, 100 ms retry hint, one worker per core (1 to
    /// 8), [`default_lanes`] shards (the worker decodes, so it counts as
    /// a core), no peers, 32 acceptors, 30 s I/O timeout.
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
            shards: default_lanes(),
            peers: Vec::new(),
            acceptors: 32,
            io_timeout_millis: 30_000,
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
        }
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
    shards: usize,
    peers: Vec<String>,
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
        let Some(file) = self.store.path_of(digest) else {
            return Err(format!("trace {digest} no longer in store"));
        };
        let _check_span = self.obs.spans.start(Stage::Check);
        // Every trace streams off the store file: nothing is loaded whole,
        // and a file that fails to decode never yields a verdict.
        let done = Replay::new(engine)
            .lanes(self.shards)
            .file(&file.path)
            .map_err(|e| {
                if is_damage(&e) {
                    self.drop_damaged(digest, file.generation, &e);
                }
                e.to_string()
            })?;
        let verdict = Verdict {
            races: done.races,
            events: done.events,
        };
        self.cache.insert(key, verdict.clone());
        Ok(verdict)
    }

    /// Forgets a stored trace that no longer decodes. Kept, it would
    /// fail every later ANALYZE and turn every re-SUBMIT of the intact
    /// bytes into a dedup hit on the damaged file.
    fn drop_damaged(&self, digest: TraceDigest, generation: u64, e: &TraceError) {
        let outcome = match self.store.remove(digest, generation) {
            Ok(true) => "dropped".to_string(),
            // An earlier failure dropped it and a re-SUBMIT stored it anew.
            Ok(false) => "already replaced".to_string(),
            Err(io) => format!("drop failed: {io}"),
        };
        self.obs
            .journal
            .record("damaged_trace", format!("digest={digest} {outcome}: {e}"));
    }
}

/// Whether a replay error says the file's bytes are damaged (as opposed
/// to an I/O failure, or a well-formed trace the engines cannot run).
/// The store admits only bytes that decode, so a stored header naming a
/// version this reader refuses is damage too.
fn is_damage(e: &TraceError) -> bool {
    matches!(
        e,
        TraceError::Truncated { .. }
            | TraceError::ChecksumMismatch { .. }
            | TraceError::Corrupt { .. }
            | TraceError::BadMagic(_)
            | TraceError::UnsupportedVersion(_)
            | TraceError::BadTable { .. }
    )
}

impl Service for Shared {
    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn handle(&self, mut frame: Frame<'_>) -> io::Result<Reply> {
        // SUBMIT bodies stream straight into the store; every other
        // request body is small and buffered.
        if frame.header.opcode == OP_SUBMIT {
            let (response, intact) = handle_submit_stream(self, &mut frame);
            let dedup = match &response {
                Response::Submitted { dedup, .. } => Some(*dedup),
                _ => None,
            };
            let next = if intact { Next::Serve } else { Next::Close };
            return Ok(Reply {
                response,
                counted: Some(("submit", dedup)),
                next,
            });
        }
        let decode_span = self.obs.spans.start(Stage::Decode);
        let request = frame.request()?;
        drop(decode_span);
        Ok(Reply::answer(request, |request| {
            handle_request(self, frame.peer, request)
        }))
    }

    /// Closes the queue to new work; workers finish what it holds.
    fn on_drain(&self) {
        self.queue.close();
    }

    fn work(&self) {
        while let Some(job) = self.queue.next_job() {
            let result = self.run_job(job.key.digest, job.key.engine);
            self.queue.complete(job.id, result);
            self.store.unpin(job.key.digest);
        }
    }
}

/// Handle to a running server: address, shutdown, join. Its join
/// waits for every admitted job before cutting lingering connections.
pub type ServerHandle = DaemonHandle;

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
        let listener = daemon::bind(&config.addr)?;
        let store = TraceStore::open(&config.store_dir, config.store_max_bytes)?;
        let cache = VerdictCache::open(config.store_dir.join(VERDICT_LOG))?;
        let obs = Obs::new();
        let counters = ServiceCounters::new(&obs.registry);
        let shared = Shared {
            store,
            cache,
            queue: JobQueue::new(config.queue_cap, config.per_client_cap, config.retry_millis),
            counters,
            obs,
            shards: config.shards,
            peers: config.peers,
        };
        daemon::spawn(
            listener,
            shared,
            "clean-serve",
            config.acceptors,
            config.workers,
            config.io_timeout_millis,
        )
    }
}

/// Builds a VERDICT frame: every race the engine found, as found.
fn verdict_response(
    shared: &Shared,
    digest: TraceDigest,
    engine: EngineKind,
    cached: bool,
    v: &Verdict,
) -> Response {
    let _verdict_span = shared.obs.spans.start(Stage::Verdict);
    Response::Verdict {
        digest,
        engine,
        cached,
        races: v.races.iter().map(WireRace::from_found).collect(),
        events: v.events,
    }
}

/// Streams a SUBMIT body from the socket into the store. Returns the
/// response plus whether the connection's framing is still intact (a
/// body that was not fully consumed leaves the stream unusable).
fn handle_submit_stream(shared: &Shared, frame: &mut Frame<'_>) -> (Response, bool) {
    let len = frame.header.len;
    if frame.draining() {
        // Consume the declared body so the refusal leaves the stream at
        // a frame boundary.
        let drained = io::copy(&mut (&mut *frame.body).take(len as u64), &mut io::sink());
        return (Response::ShuttingDown, drained.ok() == Some(len as u64));
    }
    let insert_span = shared.obs.spans.start(Stage::StoreInsert);
    let inserted = shared.store.insert_stream(frame.body, len as u64, None);
    drop(insert_span);
    match inserted {
        Ok(stored) => {
            shared.counters.submits.inc();
            if stored.dedup {
                shared.counters.submit_dedup_hits.inc();
            }
            if stored.evicted > 0 {
                shared.obs.journal.record(
                    "eviction",
                    format!("count={} after digest={}", stored.evicted, stored.digest),
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
        Err(e @ StoreError::BadTrace(_)) => (Response::error(e.code(), e.to_string()), true),
        Err(StoreError::Io(e)) => {
            // The copy stopped early: stream position unknown, so the
            // connection must drop. A socket timeout here is the
            // slow-loris shape and reports as BAD_FRAME.
            let resp = if is_timeout(&e) {
                Response::error(error_code::BAD_FRAME, "timed out mid frame body")
            } else {
                Response::error(error_code::INTERNAL, format!("store I/O error: {e}"))
            };
            (resp, false)
        }
    }
}

/// Answers every verb but SUBMIT, whose body streams through
/// [`handle_submit_stream`] instead.
fn handle_request(shared: &Shared, peer: SocketAddr, request: Request) -> Response {
    match request {
        Request::Submit { .. } => unreachable!("SUBMIT bodies stream into the store"),
        Request::Analyze {
            digest,
            engine,
            wait,
        } => {
            shared.counters.analyzes.inc();
            analyze(shared, peer, digest, engine, wait)
        }
        Request::Status { job } => match shared.queue.status(job) {
            None => Response::error(error_code::UNKNOWN_JOB, format!("unknown job {job}")),
            Some(JobState::Queued | JobState::Running) => Response::Pending { job },
            Some(JobState::Done(v)) => match shared.queue.job_key(job) {
                Some(key) => verdict_response(shared, key.digest, key.engine, false, &v),
                None => Response::error(error_code::UNKNOWN_JOB, format!("unknown job {job}")),
            },
            Some(JobState::Failed(e)) => Response::error(error_code::INTERNAL, e),
        },
        // The drain itself starts once this reply is written.
        Request::Shutdown => Response::ShuttingDown,
        Request::Fetch { digest } => {
            // Pin across the path lookup and the read so eviction cannot
            // delete the file from under the transfer.
            shared.store.pin(digest);
            let response = match shared.store.path_of(digest) {
                Some(file) => match std::fs::read(&file.path) {
                    Ok(trace) => Response::TraceData { digest, trace },
                    Err(e) => Response::error(error_code::INTERNAL, e.to_string()),
                },
                None => Response::error(
                    error_code::UNKNOWN_DIGEST,
                    format!("trace {digest} not in store"),
                ),
            };
            shared.store.unpin(digest);
            response
        }
        Request::Metrics => Response::Metrics {
            text: shared.metrics_text(),
        },
    }
}

/// Tries to pull `digest` from each configured peer in turn. The caller
/// holds a pin on `digest`, so a successful insert cannot be evicted
/// before the analysis that wanted it runs. Returns true once the trace
/// is resident locally.
fn fetch_from_peers(shared: &Shared, digest: TraceDigest) -> bool {
    let _fetch_span = shared.obs.spans.start(Stage::PeerFetch);
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

/// Answers an ANALYZE, admitting a cache miss under `peer`'s cap.
fn analyze(
    shared: &Shared,
    peer: SocketAddr,
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
        return Response::error(
            error_code::UNKNOWN_DIGEST,
            format!("trace {digest} not in store; SUBMIT it first"),
        );
    }
    shared.counters.cache_misses.inc();
    let client = peer.to_string();
    match shared.queue.submit(key, &client) {
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
                Some(JobState::Failed(e)) => Response::error(error_code::INTERNAL, e),
                _ => Response::error(error_code::INTERNAL, "job vanished"),
            }
        }
    }
}
