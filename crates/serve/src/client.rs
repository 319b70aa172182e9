//! Blocking client for the `CSRV` protocol.
//!
//! One [`Client`] wraps one TCP connection; the protocol is strictly
//! request/response, so a call writes one frame and reads one frame.
//! Admission control is surfaced rather than hidden: `analyze` returns
//! the raw [`Response`] (which may be `RetryAfter`), and
//! [`Client::analyze_with_retry`] layers the obvious sleep-and-retry
//! loop on top for callers that just want a verdict.

use crate::protocol::{Request, Response};
use clean_obs::Snapshot;
use clean_trace::{EngineKind, TraceDigest};
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected `clean-serve` client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn unexpected_eof() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection mid-request",
    )
}

impl Client {
    /// Connects to a `clean-serve` daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed response frames, or the server closing
    /// the connection before replying.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        request.write(&mut self.writer)?;
        Response::read(&mut self.reader)?.ok_or_else(unexpected_eof)
    }

    /// Submits raw `CLTR` trace bytes into the store.
    ///
    /// # Errors
    ///
    /// Transport failures (server-side rejections come back as
    /// [`Response::Error`]).
    pub fn submit(&mut self, trace: Vec<u8>) -> io::Result<Response> {
        self.call(&Request::Submit { trace })
    }

    /// Requests analysis of a stored trace.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn analyze(
        &mut self,
        digest: TraceDigest,
        engine: EngineKind,
        wait: bool,
    ) -> io::Result<Response> {
        self.call(&Request::Analyze {
            digest,
            engine,
            wait,
        })
    }

    /// Like [`Client::analyze`] with `wait = true`, but obeys
    /// `RetryAfter` responses by sleeping and retrying, up to
    /// `max_retries` times.
    ///
    /// # Errors
    ///
    /// Transport failures, or `TimedOut` once the retry budget is spent.
    pub fn analyze_with_retry(
        &mut self,
        digest: TraceDigest,
        engine: EngineKind,
        max_retries: usize,
    ) -> io::Result<Response> {
        let mut attempts = 0;
        loop {
            match self.analyze(digest, engine, true)? {
                Response::RetryAfter { millis } if attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(millis.min(1_000)));
                }
                other => return Ok(other),
            }
        }
    }

    /// Fetches the raw bytes of a stored trace — the peer-replication
    /// primitive. The caller should re-digest the returned bytes before
    /// trusting them (the server-side store does this automatically via
    /// `insert_stream` with an expected digest).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn fetch(&mut self, digest: TraceDigest) -> io::Result<Response> {
        self.call(&Request::Fetch { digest })
    }

    /// Polls a job handle.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn status(&mut self, job: u64) -> io::Result<Response> {
        self.call(&Request::Status { job })
    }

    /// Fetches the `CMET v1` metrics exposition. Against a router this
    /// is the fleet-wide merge with `node` labels.
    ///
    /// # Errors
    ///
    /// Transport failures, or a non-METRICS reply.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected METRICS reply, got {other:?}"),
            )),
        }
    }

    /// [`Client::metrics`], parsed; read the service counters off it
    /// with [`stat`].
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`], or an unparseable exposition.
    pub fn metrics_snapshot(&mut self) -> io::Result<Snapshot> {
        Snapshot::parse(&self.metrics()?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(&Request::Shutdown)
    }
}

/// The service counters `clean-serve stats` prints, in order. Each
/// names a METRICS family.
const STATS: [&str; 14] = [
    "submits",            // valid SUBMITs, new or deduplicated
    "submit_dedup_hits",  // SUBMITs of an already-stored trace
    "analyzes",           // ANALYZE requests received
    "cache_hits",         // ANALYZEs answered from the verdict cache
    "cache_misses",       // ANALYZEs that ran or joined a replay job
    "jobs_completed",     // replay jobs the worker pool finished
    "jobs_rejected",      // ANALYZEs shed with retry-after
    "jobs_coalesced",     // ANALYZEs attached to an identical in-flight job
    "store_traces",       // traces resident in the store (gauge)
    "store_bytes",        // bytes resident in the store (gauge)
    "store_evictions",    // traces the LRU size bound evicted
    "forwards",           // frames a router forwarded to backends
    "fetches",            // traces pulled from a peer by FETCH
    "cache_persist_hits", // cache hits served from the reloaded verdict log
];

/// One service counter from a METRICS snapshot: the family total across
/// labels, so on a router's merged exposition the sum over every node
/// that answered. `store_traces` and `store_bytes` are gauges; the rest
/// are counters. A family the exposition lacks reads 0.
pub fn stat(snap: &Snapshot, name: &str) -> u64 {
    match name {
        "store_traces" | "store_bytes" => snap.gauge_family_total(name),
        _ => snap.counter_family_total(name),
    }
}

/// The `clean-serve stats` table: one `name  value` line per service
/// counter.
pub fn stats_text(snap: &Snapshot) -> String {
    STATS
        .iter()
        .map(|name| format!("{name:<18} {}\n", stat(snap, name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_text_sums_each_family_across_nodes() {
        let mut snap = Snapshot::default();
        snap.counters.insert("submits{node=\"0\"}".into(), 2);
        snap.counters.insert("submits{node=\"1\"}".into(), 4);
        snap.gauges.insert("store_traces{node=\"0\"}".into(), 3);
        let text = stats_text(&snap);
        assert_eq!(text.lines().count(), STATS.len());
        assert!(text.starts_with("submits            6\n"), "{text}");
        assert!(text.contains("\nstore_traces       3\n"), "{text}");
        assert!(text.ends_with("\ncache_persist_hits 0\n"), "{text}");
    }
}
