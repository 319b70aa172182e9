//! The `clean-fleet` router: a thin CSRV front that shards requests by
//! digest prefix across N `clean-serve` backends.
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
//! tag to route a later `STATUS` poll back to the right backend.
//!
//! `METRICS` fans out to every backend (skipping unreachable nodes) and
//! merges the backends' `CMET` expositions under `node="<idx>"` labels;
//! the router's own metrics, `forwards` among them, carry
//! `node="router"`. `SHUTDOWN` fans out to every backend and then
//! drains the router itself.
//!
//! # Connection pooling
//!
//! Forwarding used to dial a fresh TCP connection per frame, which
//! dominated hot-path fan-out cost. The router now keeps a small
//! per-backend pool of parked connections: a forward checks one out
//! (`router_pool_hits`), falls back to a fresh dial when the pool is
//! empty or the parked connection died (`router_pool_misses`), and
//! parks the connection back afterwards. Parked connections are reaped
//! after an idle period well below the backend's 30 s I/O timeout, so
//! a reused connection is rarely half-closed — and when it is, the
//! failed call simply falls through to the fresh-dial path.

use crate::client::Client;
use crate::protocol::{error_code, Request, Response};
use crate::server::{verb_of, Obs};
use clean_obs::{Snapshot, Stage};
use clean_trace::{Digester, TraceDigest, TraceReader};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Parked connections kept per backend. Small on purpose: each parked
/// connection occupies one acceptor on the backend until reaped.
const POOL_CAP: usize = 4;

/// Bit position of the backend tag in a router-issued job id.
const JOB_TAG_SHIFT: u32 = 56;
/// Mask selecting the untagged (backend-local) part of a job id.
const JOB_ID_MASK: u64 = (1 << JOB_TAG_SHIFT) - 1;

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
    /// How long a parked backend connection may idle before the pool
    /// reaps it, in milliseconds. 0 disables pooling (dial-per-forward,
    /// the pre-pool behavior). Keep this well under the backend I/O
    /// timeout so reuse rarely races the backend closing the socket.
    pub pool_idle_millis: u64,
}

impl RouterConfig {
    /// Defaults: loopback ephemeral port, replication 2, 3 connect
    /// retries 50 ms apart, 32 acceptors, 30 s I/O timeout, 10 s pool
    /// idle reap.
    pub fn new(backends: Vec<String>) -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends,
            replication: 2,
            connect_retries: 3,
            retry_delay_millis: 50,
            acceptors: 32,
            io_timeout_millis: 30_000,
            pool_idle_millis: 10_000,
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

    /// Sets the backend-pool idle reap period (0 disables pooling).
    pub fn pool_idle_millis(mut self, millis: u64) -> Self {
        self.pool_idle_millis = millis;
        self
    }
}

/// One parked backend connection.
#[derive(Debug)]
struct PooledConn {
    client: Client,
    parked_at: Instant,
}

#[derive(Debug)]
struct RouterShared {
    backends: Vec<String>,
    replication: usize,
    connect_retries: usize,
    retry_delay: Duration,
    acceptors: usize,
    io_timeout: Option<Duration>,
    /// Parked backend connections, one pool per backend. `None` when
    /// pooling is disabled.
    pools: Option<Vec<Mutex<Vec<PooledConn>>>>,
    pool_idle: Duration,
    /// Request frames forwarded to backends (registry-backed).
    forwards: clean_obs::Counter,
    /// Forwards served by a parked connection.
    pool_hits: clean_obs::Counter,
    /// Forwards that had to dial a fresh connection.
    pool_misses: clean_obs::Counter,
    obs: Obs,
    draining: AtomicBool,
    drain_flag: Mutex<bool>,
    drain_cv: Condvar,
    addr: SocketAddr,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl RouterShared {
    /// Pops a live parked connection for backend `idx`, reaping any
    /// that idled past the reap period (a long-parked connection is
    /// likely half-closed by the backend's I/O timeout anyway).
    fn checkout(&self, idx: usize) -> Option<Client> {
        let pools = self.pools.as_ref()?;
        let mut pool = pools[idx].lock();
        while let Some(parked) = pool.pop() {
            if parked.parked_at.elapsed() < self.pool_idle {
                return Some(parked.client);
            }
        }
        None
    }

    /// Parks a connection for reuse (dropped if the pool is full).
    fn park(&self, idx: usize, client: Client) {
        let Some(pools) = self.pools.as_ref() else {
            return;
        };
        let mut pool = pools[idx].lock();
        pool.retain(|p| p.parked_at.elapsed() < self.pool_idle);
        if pool.len() < POOL_CAP {
            pool.push(PooledConn {
                client,
                parked_at: Instant::now(),
            });
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

    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Submit { trace } => self.route_submit(trace),
            Request::Analyze { digest, .. } | Request::Fetch { digest } => {
                self.route_read(digest, request)
            }
            Request::Status { job } => self.route_status(job),
            Request::Metrics => self.aggregate_metrics(),
            Request::Policy { set } => self.route_policy(set),
            Request::Shutdown => {
                // Fan the drain out to every backend. The router's own
                // drain starts in `serve_connection` AFTER the reply is
                // written: `join()` closes every registered connection,
                // so draining here would race the ShuttingDown frame.
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
        let shard_span = self.obs.spans.as_ref().map(|s| s.start(Stage::Shard));
        let digest = digest_of(&trace);
        drop(shard_span);
        let digest = match digest {
            Some(d) => d,
            None => {
                return Response::Error {
                    code: error_code::BAD_TRACE,
                    message: "invalid trace: undecodable CLTR stream".into(),
                }
            }
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
        first_ok.or(last_refusal).unwrap_or(Response::Error {
            code: error_code::INTERNAL,
            message: "no backend accepted the submission".into(),
        })
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
        last.unwrap_or(Response::Error {
            code: error_code::INTERNAL,
            message: "no backend reachable for digest".into(),
        })
    }

    /// Routes a POLICY frame. A *set* must land on every backend —
    /// suppression is a fleet-wide classification fact, and a node that
    /// missed the update would serve races its siblings demote — so any
    /// backend that refuses or is unreachable fails the whole set. A
    /// *read* takes the first reachable backend's answer (sets keep the
    /// fleet uniform, so any node's copy is authoritative).
    fn route_policy(&self, set: Option<String>) -> Response {
        let request = Request::Policy { set: set.clone() };
        if set.is_some() {
            let mut last_ok = None;
            for idx in 0..self.backends.len() {
                match self.forward(idx, &request) {
                    Some(resp @ Response::Policy { .. }) => last_ok = Some(resp),
                    Some(Response::Error { code, message }) => {
                        return Response::Error { code, message }
                    }
                    Some(other) => {
                        return Response::Error {
                            code: error_code::INTERNAL,
                            message: format!("backend {idx} refused the policy: {other:?}"),
                        }
                    }
                    None => {
                        return Response::Error {
                            code: error_code::INTERNAL,
                            message: format!("backend {idx} unreachable; policy not fleet-wide"),
                        }
                    }
                }
            }
            return last_ok.unwrap_or(Response::Error {
                code: error_code::INTERNAL,
                message: "no backends".into(),
            });
        }
        for idx in 0..self.backends.len() {
            if let Some(resp) = self.forward(idx, &request) {
                return resp;
            }
        }
        Response::Error {
            code: error_code::INTERNAL,
            message: "no backend reachable for policy read".into(),
        }
    }

    fn route_status(&self, job: u64) -> Response {
        let (idx, raw) = untag_job(job);
        if idx >= self.backends.len() {
            return Response::Error {
                code: error_code::UNKNOWN_JOB,
                message: format!(
                    "job {job} names backend {idx} of a {}-node fleet",
                    self.backends.len()
                ),
            };
        }
        match self.forward(idx, &Request::Status { job: raw }) {
            Some(Response::Pending { job }) => Response::Pending {
                job: tag_job(job, idx),
            },
            Some(resp) => resp,
            None => Response::Error {
                code: error_code::INTERNAL,
                message: format!("backend {idx} unreachable"),
            },
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

fn begin_drain(shared: &RouterShared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    *shared.drain_flag.lock() = true;
    shared.drain_cv.notify_all();
    for _ in 0..shared.acceptors {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Handle to a running router: address, shutdown, join.
#[derive(Debug)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    acceptors: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts the router's drain (backends are left running; a client
    /// `SHUTDOWN` frame is what fans out to them).
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until someone initiates shutdown.
    pub fn wait_until_draining(&self) {
        let mut flag = self.shared.drain_flag.lock();
        while !*flag {
            self.shared.drain_cv.wait(&mut flag);
        }
    }

    /// Drains and joins every router thread.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        begin_drain(&self.shared);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.shared.addr);
        }
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// The `clean-fleet` router service.
#[derive(Debug)]
pub struct Router;

impl Router {
    /// Binds and spawns the acceptor pool.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, or an empty backend list.
    pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener =
            TcpListener::bind(
                config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "bad bind address")
                })?,
            )?;
        let addr = listener.local_addr()?;
        let acceptor_count = config.acceptors.max(1);
        let obs = Obs::new(true);
        let forwards = obs.registry.counter("forwards");
        let pool_hits = obs.registry.counter("router_pool_hits");
        let pool_misses = obs.registry.counter("router_pool_misses");
        let shared = Arc::new(RouterShared {
            replication: config.replication.max(1),
            connect_retries: config.connect_retries,
            retry_delay: Duration::from_millis(config.retry_delay_millis),
            acceptors: acceptor_count,
            io_timeout: (config.io_timeout_millis > 0)
                .then(|| Duration::from_millis(config.io_timeout_millis)),
            pools: (config.pool_idle_millis > 0).then(|| {
                (0..config.backends.len())
                    .map(|_| Mutex::new(Vec::new()))
                    .collect()
            }),
            pool_idle: Duration::from_millis(config.pool_idle_millis),
            backends: config.backends.clone(),
            forwards,
            pool_hits,
            pool_misses,
            obs,
            draining: AtomicBool::new(false),
            drain_flag: Mutex::new(false),
            drain_cv: Condvar::new(),
            addr,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let listener = Arc::new(listener);
        let acceptors: Vec<JoinHandle<()>> = (0..acceptor_count)
            .map(|i| {
                let listener = Arc::clone(&listener);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clean-fleet-accept-{i}"))
                    .spawn(move || acceptor_loop(&listener, &shared))
                    .expect("spawn router acceptor")
            })
            .collect();
        Ok(RouterHandle { shared, acceptors })
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => break,
        };
        if shared.draining.load(Ordering::SeqCst) {
            let mut w = BufWriter::new(&stream);
            let _ = Response::ShuttingDown.write(&mut w);
            break;
        }
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(conn_id, clone);
        }
        serve_connection(stream, shared);
        shared.conns.lock().remove(&conn_id);
    }
}

fn serve_connection(stream: TcpStream, shared: &RouterShared) {
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
        let request = match Request::read(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle at a frame boundary is fine; draining ends it.
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = Response::Error {
                    code: error_code::BAD_FRAME,
                    message: e.to_string(),
                }
                .write(&mut writer);
                break;
            }
            Err(_) => break,
        };
        if shared.draining.load(Ordering::SeqCst) {
            let _ = Response::ShuttingDown.write(&mut writer);
            break;
        }
        let started = Instant::now();
        let verb = verb_of(&request);
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = shared.handle(request);
        shared
            .obs
            .record_request(verb, None, started.elapsed().as_micros() as u64);
        let write_ok = response.write(&mut writer).is_ok();
        if is_shutdown {
            begin_drain(shared);
            break;
        }
        if !write_ok {
            break;
        }
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
