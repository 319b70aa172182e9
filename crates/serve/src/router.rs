//! The `clean-fleet` router: a thin CSRV front that shards requests by
//! digest prefix across N `clean-serve` backends, on the daemon skeleton
//! both share. Its handler buffers each body, refuses work once draining,
//! and routes.
//!
//! # Placement
//!
//! The first byte of a trace digest picks the **primary** backend
//! (`byte % N`); content addressing makes this stable across routers and
//! restarts. SUBMITs are written to the primary *and* its ring
//! predecessors up to the replication factor (default 2 copies), so
//! losing one node never loses a trace. Reads (ANALYZE / FETCH) try the
//! primary first and fail over around the ring **successors** — so when
//! a primary dies, the failover target is a node that does *not* hold
//! the replica, and it pulls the trace from the surviving replica via
//! the peer `FETCH` frame before replaying. One dead node therefore
//! exercises the whole replication path instead of hiding it.
//!
//! # Forwarding
//!
//! Frames are forwarded as-is — the router decodes a request only as far
//! as routing needs (the digest, or for SUBMIT the digest *computed from
//! the body*) and re-emits it verbatim on the chosen backend connection.
//! Backend connect failures are retried a configurable number of times;
//! `RETRY_AFTER` responses pass through untouched (the backend is alive,
//! just shedding — failing over would defeat its admission control).
//!
//! # Job ids
//!
//! A `PENDING` job id is only meaningful on the backend that issued it,
//! so the router tags the backend index into the top byte of the id
//! (`job | idx << 56`) before handing it to the client, and strips the
//! tag to route a later `STATUS` poll back to the right backend. One
//! byte names at most 256 backends, so [`Router::start`] refuses a
//! larger fleet.
//!
//! `METRICS` fans out to every backend (skipping unreachable nodes) and
//! merges the backends' `CMET` expositions under `node="<idx>"` labels;
//! the router's own metrics, `forwards` among them, carry
//! `node="router"`. `SHUTDOWN` fans out to every backend and then
//! drains the router itself.
//!
//! # Connection pooling
//!
//! Dialing per frame would dominate hot-path fan-out cost, so the router
//! keeps a small per-backend pool of parked connections: a forward
//! checks one out (`router_pool_hits`), falls back to a fresh dial when
//! the pool is empty or the parked connection died
//! (`router_pool_misses`), and parks the connection back afterwards.
//! Parked connections are reaped after 10 s idle, well below the
//! backend's 30 s I/O timeout, so a reused connection is rarely
//! half-closed — and when it is, the failed call simply falls through
//! to the fresh-dial path.

use crate::client::Client;
use crate::daemon::{self, DaemonHandle, Frame, Next, Obs, Reply, Service};
use crate::protocol::{error_code, Request, Response};
use clean_obs::{Snapshot, Stage};
use clean_trace::{Digester, TraceDigest, TraceReader};
use parking_lot::Mutex;
use std::io;
use std::time::{Duration, Instant};

/// Parked connections kept per backend. Small on purpose: each parked
/// connection occupies one acceptor on the backend until reaped.
const POOL_CAP: usize = 4;
/// Idle time after which the pool reaps a parked connection: well under
/// the backend I/O timeout, so reuse rarely races the backend's close.
const POOL_IDLE: Duration = Duration::from_secs(10);

/// Bit position of the backend tag in a router-issued job id.
const JOB_TAG_SHIFT: u32 = 56;
/// Mask selecting the untagged (backend-local) part of a job id.
const JOB_ID_MASK: u64 = (1 << JOB_TAG_SHIFT) - 1;
/// The most backends a job tag can name: the tag is the top byte.
const MAX_BACKENDS: usize = 1 << (64 - JOB_TAG_SHIFT);

/// Tags a backend-local job id with the backend that issued it.
pub fn tag_job(job: u64, backend: usize) -> u64 {
    (job & JOB_ID_MASK) | ((backend as u64) << JOB_TAG_SHIFT)
}

/// Splits a router job id into `(backend index, backend-local id)`.
pub fn untag_job(job: u64) -> (usize, u64) {
    ((job >> JOB_TAG_SHIFT) as usize, job & JOB_ID_MASK)
}

/// The primary backend for a digest: its first (big-endian) byte mod the
/// fleet size. Stable across routers, restarts, and fleet rebuilds of
/// the same size.
pub fn primary_backend(digest: TraceDigest, backends: usize) -> usize {
    digest.to_bytes()[0] as usize % backends.max(1)
}

/// The backends a SUBMIT is replicated to: the primary plus its ring
/// *predecessors*, `replication` nodes in total (capped at fleet size).
pub fn submit_targets(digest: TraceDigest, backends: usize, replication: usize) -> Vec<usize> {
    let n = backends.max(1);
    let p = primary_backend(digest, n);
    (0..replication.clamp(1, n))
        .map(|k| (p + n - k) % n)
        .collect()
}

/// The failover order for reads: the primary, then ring *successors*.
pub fn read_targets(digest: TraceDigest, backends: usize) -> Vec<usize> {
    let n = backends.max(1);
    let p = primary_backend(digest, n);
    (0..n).map(|k| (p + k) % n).collect()
}

/// Tuning knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend `clean-serve` addresses, in ring order.
    pub backends: Vec<String>,
    /// Copies of each submitted trace (primary + predecessors).
    pub replication: usize,
    /// Reconnect attempts per backend before failing over.
    pub connect_retries: usize,
    /// Delay between reconnect attempts, in milliseconds.
    pub retry_delay_millis: u64,
    /// Acceptor-pool size (concurrent client connections served).
    pub acceptors: usize,
    /// Per-client-connection I/O timeout in milliseconds (0 = none).
    pub io_timeout_millis: u64,
}

impl RouterConfig {
    /// Defaults: loopback ephemeral port, replication 2, 3 connect
    /// retries 50 ms apart, 32 acceptors, 30 s I/O timeout.
    pub fn new(backends: Vec<String>) -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends,
            replication: 2,
            connect_retries: 3,
            retry_delay_millis: 50,
            acceptors: 32,
            io_timeout_millis: 30_000,
        }
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the replication factor.
    pub fn replication(mut self, copies: usize) -> Self {
        self.replication = copies.max(1);
        self
    }

    /// Sets the reconnect budget per backend.
    pub fn connect_retries(mut self, retries: usize) -> Self {
        self.connect_retries = retries;
        self
    }

    /// Sets the reconnect delay.
    pub fn retry_delay_millis(mut self, millis: u64) -> Self {
        self.retry_delay_millis = millis;
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

#[derive(Debug)]
struct RouterShared {
    backends: Vec<String>,
    replication: usize,
    connect_retries: usize,
    retry_delay: Duration,
    /// Parked backend connections and when each was parked, one pool
    /// per backend.
    pools: Vec<Mutex<Vec<(Client, Instant)>>>,
    /// Request frames forwarded to backends (registry-backed).
    forwards: clean_obs::Counter,
    /// Forwards served by a parked connection.
    pool_hits: clean_obs::Counter,
    /// Forwards that had to dial a fresh connection.
    pool_misses: clean_obs::Counter,
    obs: Obs,
}

impl RouterShared {
    /// Pops a live parked connection for backend `idx`, reaping any
    /// that idled past [`POOL_IDLE`].
    fn checkout(&self, idx: usize) -> Option<Client> {
        let mut pool = self.pools[idx].lock();
        while let Some((client, parked_at)) = pool.pop() {
            if parked_at.elapsed() < POOL_IDLE {
                return Some(client);
            }
        }
        None
    }

    /// Parks a connection for reuse (dropped if the pool is full).
    fn park(&self, idx: usize, client: Client) {
        let mut pool = self.pools[idx].lock();
        pool.retain(|(_, parked_at)| parked_at.elapsed() < POOL_IDLE);
        if pool.len() < POOL_CAP {
            pool.push((client, Instant::now()));
        }
    }

    /// Runs one request round trip against backend `idx`: a parked
    /// connection when one is live, otherwise a fresh dial with connect
    /// retries. `None` means the backend is unreachable or died
    /// mid-call. Connections never park after a SHUTDOWN forward — the
    /// backend is about to close them.
    fn forward(&self, idx: usize, request: &Request) -> Option<Response> {
        let poolable = !matches!(request, Request::Shutdown);
        if let Some(mut client) = self.checkout(idx) {
            // A parked connection the backend closed fails the call
            // cleanly; fall through to the fresh-dial path below.
            if let Ok(response) = client.call(request) {
                self.pool_hits.inc();
                self.forwards.inc();
                if poolable {
                    self.park(idx, client);
                }
                return Some(response);
            }
        }
        self.pool_misses.inc();
        let addr = &self.backends[idx];
        let mut attempts = 0;
        loop {
            match Client::connect(addr.as_str()) {
                Ok(mut client) => {
                    let response = client.call(request).ok()?;
                    self.forwards.inc();
                    if poolable {
                        self.park(idx, client);
                    }
                    return Some(response);
                }
                Err(_) if attempts < self.connect_retries => {
                    attempts += 1;
                    std::thread::sleep(self.retry_delay);
                }
                Err(_) => return None,
            }
        }
    }

    fn route(&self, request: Request) -> Response {
        match request {
            Request::Submit { trace } => self.route_submit(trace),
            Request::Analyze { digest, .. } | Request::Fetch { digest } => {
                self.route_read(digest, request)
            }
            Request::Status { job } => self.route_status(job),
            Request::Metrics => self.aggregate_metrics(),
            Request::Shutdown => {
                // Fan the drain out to every backend. The router's own
                // drain starts once this reply is written: the join
                // closes every registered connection, so draining here
                // would race the ShuttingDown frame.
                for idx in 0..self.backends.len() {
                    let _ = self.forward(idx, &Request::Shutdown);
                }
                Response::ShuttingDown
            }
        }
    }

    /// Digests the submitted bytes locally (routing needs the content
    /// address before any backend sees the frame), then writes the trace
    /// to the primary and its replica predecessors.
    fn route_submit(&self, trace: Vec<u8>) -> Response {
        // Digest-based backend selection is the router's "shard" stage.
        let shard_span = self.obs.spans.start(Stage::Shard);
        let digest = digest_of(&trace);
        drop(shard_span);
        let Some(digest) = digest else {
            return Response::error(
                error_code::BAD_TRACE,
                "invalid trace: undecodable CLTR stream",
            );
        };
        let request = Request::Submit { trace };
        let mut first_ok: Option<Response> = None;
        let mut last_refusal: Option<Response> = None;
        for idx in submit_targets(digest, self.backends.len(), self.replication) {
            match self.forward(idx, &request) {
                Some(resp @ Response::Submitted { .. }) if first_ok.is_none() => {
                    first_ok = Some(resp);
                }
                Some(Response::Submitted { .. }) => {}
                Some(resp) => last_refusal = Some(resp),
                None => {}
            }
        }
        // One durable copy is enough to answer; zero is a failure.
        first_ok.or(last_refusal).unwrap_or(Response::error(
            error_code::INTERNAL,
            "no backend accepted the submission",
        ))
    }

    /// Forwards a digest-addressed read (ANALYZE / FETCH), failing over
    /// around the ring when a backend is unreachable or draining.
    fn route_read(&self, digest: TraceDigest, request: Request) -> Response {
        let mut last: Option<Response> = None;
        for idx in read_targets(digest, self.backends.len()) {
            match self.forward(idx, &request) {
                // Draining backends refuse new work; the ring has more.
                Some(Response::ShuttingDown) => {
                    last = Some(Response::ShuttingDown);
                }
                Some(Response::Pending { job }) => {
                    return Response::Pending {
                        job: tag_job(job, idx),
                    };
                }
                // Anything else — verdict, retry-after, trace data,
                // error — is the backend's answer and passes through.
                Some(resp) => return resp,
                None => {
                    self.obs
                        .journal
                        .record("failover", format!("backend={idx} digest={digest}"));
                }
            }
        }
        last.unwrap_or(Response::error(
            error_code::INTERNAL,
            "no backend reachable for digest",
        ))
    }

    fn route_status(&self, job: u64) -> Response {
        let (idx, raw) = untag_job(job);
        if idx >= self.backends.len() {
            let n = self.backends.len();
            return Response::error(
                error_code::UNKNOWN_JOB,
                format!("job {job} names backend {idx} of a {n}-node fleet"),
            );
        }
        match self.forward(idx, &Request::Status { job: raw }) {
            Some(Response::Pending { job }) => Response::Pending {
                job: tag_job(job, idx),
            },
            Some(resp) => resp,
            None => Response::error(error_code::INTERNAL, format!("backend {idx} unreachable")),
        }
    }

    /// Fans METRICS out to every backend and merges the expositions:
    /// each backend's metrics are stamped `node="<idx>"`, the router's
    /// own metrics `node="router"`, and counters/gauges/histograms fold
    /// by their labeled keys — so per-node values stay separable while
    /// one exposition answers for the whole fleet. Backend journal
    /// events ride along as `node=<idx>`-prefixed comment lines.
    fn aggregate_metrics(&self) -> Response {
        let mut merged = self.obs.registry.snapshot().with_label("node", "router");
        let mut comments = self.obs.journal.render();
        for idx in 0..self.backends.len() {
            let node = idx.to_string();
            let Some(Response::Metrics { text }) = self.forward(idx, &Request::Metrics) else {
                comments.push(format!("node {idx} unreachable for metrics"));
                continue;
            };
            for line in text.lines() {
                if let Some(event) = line.strip_prefix("# event ") {
                    comments.push(format!("event node={idx} {event}"));
                }
            }
            match Snapshot::parse(&text) {
                Ok(snap) => merged.merge(&snap.with_label("node", &node)),
                Err(e) => comments.push(format!("node {idx} exposition unparseable: {e}")),
            }
        }
        Response::Metrics {
            text: merged.render(&comments),
        }
    }
}

/// Decodes a submission just far enough to learn its content address.
fn digest_of(trace: &[u8]) -> Option<TraceDigest> {
    let reader = TraceReader::new(trace).ok()?;
    let mut digester = Digester::new();
    for event in reader {
        digester.update(&event.ok()?);
    }
    Some(digester.finish())
}

impl Service for RouterShared {
    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn handle(&self, mut frame: Frame<'_>) -> io::Result<Reply> {
        // Every body is buffered: routing a SUBMIT needs its digest.
        let request = frame.request()?;
        if frame.draining() {
            return Ok(Reply {
                response: Response::ShuttingDown,
                counted: None,
                next: Next::Close,
            });
        }
        Ok(Reply::answer(request, |request| self.route(request)))
    }
}

/// Handle to a running router: address, shutdown, join. Its shutdown
/// drains the router only; a client `SHUTDOWN` frame is what fans out to
/// the backends.
pub type RouterHandle = DaemonHandle;

/// The `clean-fleet` router service.
#[derive(Debug)]
pub struct Router;

impl Router {
    /// Binds and spawns the acceptor pool.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, an empty backend list, or more backends
    /// than a job tag can name (256).
    pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
        let n = config.backends.len();
        if n == 0 || n > MAX_BACKENDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("router needs 1 to {MAX_BACKENDS} backends, got {n}"),
            ));
        }
        let listener = daemon::bind(&config.addr)?;
        let obs = Obs::new();
        let shared = RouterShared {
            replication: config.replication.max(1),
            connect_retries: config.connect_retries,
            retry_delay: Duration::from_millis(config.retry_delay_millis),
            pools: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            backends: config.backends,
            forwards: obs.registry.counter("forwards"),
            pool_hits: obs.registry.counter("router_pool_hits"),
            pool_misses: obs.registry.counter("router_pool_misses"),
            obs,
        };
        daemon::spawn(
            listener,
            shared,
            "clean-fleet",
            config.acceptors,
            0,
            config.io_timeout_millis,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_tags_roundtrip() {
        for (job, idx) in [(0u64, 0usize), (1, 2), (JOB_ID_MASK, 255), (12345, 7)] {
            let tagged = tag_job(job, idx);
            assert_eq!(untag_job(tagged), (idx, job));
        }
    }

    #[test]
    fn placement_is_primary_plus_predecessors() {
        // A digest whose first byte is 0x05: primary = 5 % 3 = 2.
        let d = TraceDigest(0x05 << 120);
        assert_eq!(primary_backend(d, 3), 2);
        assert_eq!(submit_targets(d, 3, 2), vec![2, 1]);
        assert_eq!(
            submit_targets(d, 3, 5),
            vec![2, 1, 0],
            "capped at fleet size"
        );
        assert_eq!(
            read_targets(d, 3),
            vec![2, 0, 1],
            "failover walks successors"
        );
        // Single-node fleet degenerates sanely.
        assert_eq!(submit_targets(d, 1, 2), vec![0]);
        assert_eq!(read_targets(d, 1), vec![0]);
    }

    #[test]
    fn kill_primary_forces_peer_fetch_shape() {
        // The property the fleet smoke test relies on: with replication
        // 2 and 3 nodes, the first read-failover target after the
        // primary never holds the replica (which sits at the
        // predecessor), for every possible primary.
        for first_byte in 0..=255u8 {
            let d = TraceDigest((first_byte as u128) << 120);
            let stored = submit_targets(d, 3, 2);
            let reads = read_targets(d, 3);
            assert_eq!(reads[0], stored[0], "primary serves reads first");
            assert!(
                !stored.contains(&reads[1]),
                "first failover target must miss the trace so FETCH runs"
            );
        }
    }
}
