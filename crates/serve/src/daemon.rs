//! The daemon skeleton `clean-serve` and `clean-fleet` share: bind, the
//! acceptor pool, the connection registry, the drain, the join order and
//! the frame loop. A daemon supplies one [`Service`].
//!
//! Each acceptor loops accept-then-serve, so concurrent connections are
//! capped at the pool size and the rest wait in the OS listen backlog.
//! Connections carry per-direction I/O timeouts: an idle connection
//! parked *at a frame boundary* is welcome to stay, but a peer that
//! stalls mid-frame (the slow-loris shape) gets a `BAD_FRAME` error and a
//! disconnect — one stuck sender cannot hold an acceptor hostage.
//!
//! The join waits for the workers (so everything the service admitted
//! completes), then cuts the lingering connections, then joins the
//! acceptors.

use crate::protocol::{error_code, is_timeout, read_frame_body, read_frame_header};
use crate::protocol::{FrameHeader, Request, Response};
use clean_obs::{Journal, Registry, StageSpans};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fmt::Debug;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The observability bundle of one daemon: the metrics registry, the
/// event journal, and the per-stage timing histograms.
#[derive(Debug)]
pub(crate) struct Obs {
    pub(crate) registry: Registry,
    pub(crate) journal: Journal,
    pub(crate) spans: StageSpans,
}

impl Obs {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let spans = StageSpans::new(&registry, "serve_stage_micros");
        Obs {
            registry,
            journal: Journal::default(),
            spans,
        }
    }

    /// Counts one handled request and records its service latency,
    /// keyed by verb (and dedup outcome for submissions, so the soak
    /// harness can separate cold from duplicate submits server-side).
    fn record_request(&self, verb: &'static str, dedup: Option<bool>, micros: u64) {
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

/// Stable `verb` label value for a request (the `serve_requests_total`
/// key space).
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Submit { .. } => "submit",
        Request::Analyze { .. } => "analyze",
        Request::Status { .. } => "status",
        Request::Shutdown => "shutdown",
        Request::Fetch { .. } => "fetch",
        Request::Metrics => "metrics",
    }
}

/// What a daemon plugs into the skeleton.
pub(crate) trait Service: Debug + Send + Sync {
    /// Where the skeleton counts answered requests and journals bad
    /// frames.
    fn obs(&self) -> &Obs;

    /// Answers one frame: reads its body off `frame` and says what to
    /// write back. An `InvalidData` error is answered with `BAD_FRAME`
    /// and a disconnect; any other error disconnects without a reply.
    fn handle(&self, frame: Frame<'_>) -> io::Result<Reply>;

    /// Runs once, as the drain begins.
    fn on_drain(&self) {}

    /// The body of each worker thread; the join waits for it to return.
    fn work(&self) {}
}

/// One request frame: the header has been read, the body is still on
/// the wire.
pub(crate) struct Frame<'a> {
    pub(crate) header: FrameHeader,
    pub(crate) body: &'a mut BufReader<TcpStream>,
    pub(crate) peer: SocketAddr,
    daemon: &'a Daemon,
}

impl Frame<'_> {
    /// Reads the whole body and decodes it.
    pub(crate) fn request(&mut self) -> io::Result<Request> {
        let body = read_frame_body(self.body, self.header.len)?;
        Request::from_frame(self.header.opcode, &body)
    }

    /// Whether the daemon has begun draining.
    pub(crate) fn draining(&self) -> bool {
        self.daemon.is_draining()
    }
}

/// A handler's answer to one frame.
pub(crate) struct Reply {
    pub(crate) response: Response,
    /// The `serve_requests_total` verb plus, for a SUBMIT, its dedup
    /// outcome; `None` leaves the frame uncounted.
    pub(crate) counted: Option<(&'static str, Option<bool>)>,
    pub(crate) next: Next,
}

impl Reply {
    /// The answer to a decoded request, counted under its verb. A
    /// SHUTDOWN starts the drain once its reply is written.
    pub(crate) fn answer(request: Request, handle: impl FnOnce(Request) -> Response) -> Reply {
        let verb = verb_of(&request);
        let drains = matches!(request, Request::Shutdown);
        Reply {
            response: handle(request),
            counted: Some((verb, None)),
            next: if drains { Next::Drain } else { Next::Serve },
        }
    }
}

/// What a connection does after writing a reply.
pub(crate) enum Next {
    /// Read the next frame.
    Serve,
    /// Disconnect: the stream is no longer at a frame boundary, or the
    /// daemon is going away.
    Close,
    /// Begin the drain, then disconnect.
    Drain,
}

/// State shared by every thread of one daemon.
#[derive(Debug)]
struct Daemon {
    service: Box<dyn Service>,
    addr: SocketAddr,
    acceptors: usize,
    io_timeout: Option<Duration>,
    /// Set once the drain begins; the condvar wakes
    /// [`DaemonHandle::wait_until_draining`].
    draining: Mutex<bool>,
    drain_cv: Condvar,
    /// Live connection sockets (clones keyed by connection id), so the
    /// join can unblock parked readers. Entries are removed when their
    /// acceptor finishes the connection — a lingering clone would hold
    /// the TCP connection open after the daemon is done with it.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

impl Daemon {
    fn is_draining(&self) -> bool {
        *self.draining.lock()
    }

    fn begin_drain(&self) {
        let mut draining = self.draining.lock();
        if *draining {
            return;
        }
        *draining = true;
        self.service.on_drain();
        self.drain_cv.notify_all();
        drop(draining);
        self.poke_acceptors();
    }

    /// One throwaway connection per acceptor, to wake any parked in
    /// `accept()`.
    fn poke_acceptors(&self) {
        for _ in 0..self.acceptors {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Handle to a running daemon: address, shutdown, join. Dropping it
/// joins too.
#[derive(Debug)]
pub struct DaemonHandle {
    daemon: Arc<Daemon>,
    workers: Vec<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Starts a graceful drain, as if a `SHUTDOWN` frame arrived.
    pub fn shutdown(&self) {
        self.daemon.begin_drain();
    }

    /// Blocks until someone initiates shutdown (a `SHUTDOWN` frame or
    /// [`DaemonHandle::shutdown`]) — the foreground daemon's park.
    pub fn wait_until_draining(&self) {
        let mut draining = self.daemon.draining.lock();
        while !*draining {
            self.daemon.drain_cv.wait(&mut draining);
        }
    }

    /// Drains and joins every thread, as dropping the handle does:
    /// whatever the service admitted completes before lingering
    /// connections are cut. Idempotent with [`DaemonHandle::shutdown`].
    pub fn join(self) {}
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.daemon.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unblock acceptors still parked inside a connection read…
        for (_, conn) in self.daemon.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // …and those parked in accept().
        self.daemon.poke_acceptors();
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds `addr`. Daemons bind before opening anything else, so a taken
/// port fails fast.
pub(crate) fn bind(addr: &str) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Spawns `workers` threads running [`Service::work`], then `acceptors`
/// (at least one) accept-then-serve threads on `listener`, named
/// `<name>-worker-<i>` and `<name>-accept-<i>`.
pub(crate) fn spawn(
    listener: TcpListener,
    service: impl Service + 'static,
    name: &str,
    acceptors: usize,
    workers: usize,
    io_timeout_millis: u64,
) -> io::Result<DaemonHandle> {
    let acceptors = acceptors.max(1);
    let daemon = Arc::new(Daemon {
        service: Box::new(service),
        addr: listener.local_addr()?,
        acceptors,
        io_timeout: (io_timeout_millis > 0).then(|| Duration::from_millis(io_timeout_millis)),
        draining: Mutex::new(false),
        drain_cv: Condvar::new(),
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
    });
    let workers = (0..workers)
        .map(|i| {
            let daemon = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("{name}-worker-{i}"))
                .spawn(move || daemon.service.work())
                .expect("spawn worker thread")
        })
        .collect();
    let listener = Arc::new(listener);
    let acceptors = (0..acceptors)
        .map(|i| {
            let (daemon, listener) = (Arc::clone(&daemon), Arc::clone(&listener));
            std::thread::Builder::new()
                .name(format!("{name}-accept-{i}"))
                .spawn(move || acceptor_loop(&daemon, &listener))
                .expect("spawn acceptor thread")
        })
        .collect();
    Ok(DaemonHandle {
        daemon,
        workers,
        acceptors,
    })
}

/// One acceptor: accept a connection, serve it to completion, repeat.
fn acceptor_loop(daemon: &Daemon, listener: &TcpListener) {
    while let Ok((stream, peer)) = listener.accept() {
        if daemon.is_draining() {
            // Best effort: tell the late arrival we are going away.
            let _ = Response::ShuttingDown.write(&mut BufWriter::new(&stream));
            break;
        }
        let conn_id = daemon.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            daemon.conns.lock().insert(conn_id, clone);
        }
        serve_connection(daemon, stream, peer);
        daemon.conns.lock().remove(&conn_id);
    }
}

/// The frame loop of one connection.
fn serve_connection(daemon: &Daemon, stream: TcpStream, peer: SocketAddr) {
    if let Some(t) = daemon.io_timeout {
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let obs = daemon.service.obs();
    loop {
        let header = match read_frame_header(&mut reader) {
            Ok(Some(h)) => h,
            // Clean disconnect, or the join shut the socket down.
            Ok(None) => break,
            // Idle at a frame boundary: welcome to keep waiting, unless
            // the daemon is draining.
            Err(e) if is_timeout(&e) && !daemon.is_draining() => continue,
            Err(e) => {
                refuse(obs, &e, &mut writer);
                break;
            }
        };
        let started = Instant::now();
        let frame = Frame {
            header,
            body: &mut reader,
            peer,
            daemon,
        };
        let reply = match daemon.service.handle(frame) {
            Ok(reply) => reply,
            Err(e) => {
                refuse(obs, &e, &mut writer);
                break;
            }
        };
        if let Some((verb, dedup)) = reply.counted {
            obs.record_request(verb, dedup, started.elapsed().as_micros() as u64);
        }
        let written = reply.response.write(&mut writer).is_ok();
        match reply.next {
            Next::Serve if written => {}
            // Drain only after the reply is on the wire: the join closes
            // every registered connection, racing the write otherwise.
            Next::Drain => {
                daemon.begin_drain();
                break;
            }
            Next::Serve | Next::Close => break,
        }
    }
}

/// Answers a protocol error (bad magic, version or length, a mid-frame
/// stall, an undecodable body) with `BAD_FRAME`: the stream position is
/// unreliable, so the connection drops after it. Other I/O errors drop
/// the connection without a reply.
fn refuse(obs: &Obs, e: &io::Error, writer: &mut impl Write) {
    if e.kind() == io::ErrorKind::InvalidData {
        obs.journal.record("bad_frame", e.to_string());
        let _ = Response::error(error_code::BAD_FRAME, e.to_string()).write(writer);
    }
}
