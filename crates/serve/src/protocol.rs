//! The `CSRV` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame — request or response — is:
//!
//! ```text
//! [magic "CSRV" (4)] [version u8] [opcode u8] [body len u32 LE] [body]
//! ```
//!
//! Integers inside bodies are little-endian; trace digests travel as the
//! 16 big-endian bytes of [`TraceDigest::to_bytes`]. The protocol is
//! deliberately *synchronous*: one request frame in, one response frame
//! out, per round trip — connections are cheap (thread-per-connection,
//! no multiplexing) and clients can be written in a few dozen lines in
//! any language.
//!
//! Request opcodes sit below `0x80`, responses at or above it, so a
//! peer can spot a direction mix-up immediately.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::ThreadId;
use clean_trace::{EngineKind, TraceDigest};
use std::io::{self, Read, Write};

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"CSRV";
/// Protocol version carried in every frame. Version 2 added the FETCH /
/// TRACE_DATA peer-replication frames; versions 3 and 4 added a verb
/// since retired and the per-race flag byte of VERDICT bodies; version 5
/// added the METRICS frames carrying the `CMET v1` text exposition.
/// Retiring a verb does not bump the version: its opcodes stay reserved
/// (see the opcode table), and a peer that still sends one gets
/// `BAD_FRAME`.
pub const VERSION: u8 = 5;
/// Hard cap on a frame body (64 MiB) — submissions beyond this are
/// rejected before allocation, bounding per-connection memory.
pub const MAX_BODY: usize = 64 << 20;

/// Protocol error codes carried by [`Response::Error`].
pub mod error_code {
    /// Malformed or oversized frame.
    pub const BAD_FRAME: u8 = 1;
    /// A submitted byte stream was not a valid `CLTR` trace.
    pub const BAD_TRACE: u8 = 2;
    /// ANALYZE named a digest the store does not hold.
    pub const UNKNOWN_DIGEST: u8 = 3;
    /// STATUS named a job id the server does not know.
    pub const UNKNOWN_JOB: u8 = 4;
    /// Internal server failure (I/O, replay error).
    pub const INTERNAL: u8 = 5;
    // 6 was BAD_POLICY, for unparseable suppression rules; never reuse it.
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a `CLTR` byte stream into the content-addressed store.
    Submit {
        /// The raw trace bytes (a complete `CLTR` stream).
        trace: Vec<u8>,
    },
    /// Request analysis of a stored trace under one engine.
    Analyze {
        /// Content address of the trace.
        digest: TraceDigest,
        /// Detector engine to replay through.
        engine: EngineKind,
        /// Block until the verdict is ready (otherwise a
        /// [`Response::Pending`] job handle comes back on a cache miss).
        wait: bool,
    },
    /// Poll a previously returned job handle.
    Status {
        /// Job id from [`Response::Pending`].
        job: u64,
    },
    /// Begin graceful drain: finish queued jobs, then exit.
    Shutdown,
    /// Fetch the raw bytes of a stored trace — the peer-replication
    /// frame: a fleet node missing a digest pulls it from a peer, and
    /// content addressing makes the transfer self-verifying.
    Fetch {
        /// Content address of the wanted trace.
        digest: TraceDigest,
    },
    /// Fetch the full metrics exposition (`CMET v1` text). A router
    /// answers with its backends' expositions merged under `node`
    /// labels plus its own router-local metrics.
    Metrics,
}

/// One race in a verdict, in wire form (the lowest-address first race
/// per event index, as produced by `Replay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRace {
    /// Race kind.
    pub kind: FullRaceKind,
    /// Accessed address.
    pub addr: u64,
    /// Thread performing the racing access.
    pub current: u16,
    /// Thread that performed the earlier conflicting access.
    pub previous: u16,
    /// Always false: a served verdict reports every race it found. The
    /// field and its byte in the race record outlive the suppression
    /// rules that once set it only because the benchmark
    /// (`benchmark/src/oracle.rs`) still reads it; both go, with a bump
    /// to `VERSION` 6, once it stops.
    pub suppressed: bool,
}

impl WireRace {
    /// Converts an engine-reported race to wire form.
    pub fn from_found(r: &FoundRace) -> Self {
        WireRace {
            kind: r.kind,
            addr: r.addr as u64,
            current: r.current.raw(),
            previous: r.previous.raw(),
            suppressed: false,
        }
    }

    /// Converts back to the engine representation.
    pub fn to_found(self) -> FoundRace {
        FoundRace {
            kind: self.kind,
            addr: self.addr as usize,
            current: ThreadId::new(self.current),
            previous: ThreadId::new(self.previous),
        }
    }
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The submitted trace is stored (or already was).
    Submitted {
        /// Content address of the trace.
        digest: TraceDigest,
        /// True if an identical trace was already stored.
        dedup: bool,
        /// Stored byte size.
        bytes: u64,
    },
    /// A finished verdict, fresh or cached.
    Verdict {
        /// Content address of the analyzed trace.
        digest: TraceDigest,
        /// Engine that produced the verdict.
        engine: EngineKind,
        /// True if served from the verdict cache without replaying.
        cached: bool,
        /// Races found (empty = clean).
        races: Vec<WireRace>,
        /// Events replayed.
        events: u64,
    },
    /// The analysis was queued; poll with [`Request::Status`].
    Pending {
        /// Job handle.
        job: u64,
    },
    /// Admission control shed the request; retry after the given delay.
    RetryAfter {
        /// Suggested back-off in milliseconds.
        millis: u64,
    },
    /// The request failed.
    Error {
        /// One of [`error_code`].
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// The raw bytes of a stored trace, answering [`Request::Fetch`].
    /// The receiver re-digests the bytes before trusting them — the
    /// content address is the integrity check.
    TraceData {
        /// Content address the sender stored these bytes under.
        digest: TraceDigest,
        /// The complete `CLTR` byte stream.
        trace: Vec<u8>,
    },
    /// The metrics exposition, answering [`Request::Metrics`]: UTF-8
    /// `CMET v1` text (see `clean_obs::Snapshot`), including journal
    /// events as comment lines.
    Metrics {
        /// The exposition text, starting with the `# CMET v1` header.
        text: String,
    },
}

pub(crate) const OP_SUBMIT: u8 = 0x01;
const OP_ANALYZE: u8 = 0x02;
const OP_STATUS: u8 = 0x03;
// Retired verbs; never reuse their opcodes. 0x04/0x85 carried STATS
// (METRICS carries its counters); 0x07/0x89 carried POLICY, which set
// race suppression rules (a served verdict now reports every race).
const OP_SHUTDOWN: u8 = 0x05;
const OP_FETCH: u8 = 0x06;
const OP_METRICS: u8 = 0x08;

const OP_SUBMITTED: u8 = 0x81;
const OP_VERDICT: u8 = 0x82;
const OP_PENDING: u8 = 0x83;
const OP_RETRY_AFTER: u8 = 0x84;
const OP_ERROR: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;
const OP_TRACE_DATA: u8 = 0x88;
const OP_METRICS_REPLY: u8 = 0x8A;

/// Engine wire codes (`EngineKind` ↔ u8).
pub fn engine_to_wire(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::Clean => 0,
        EngineKind::FastTrack => 1,
        EngineKind::VcFull => 2,
        EngineKind::Tsan => 3,
    }
}

/// Inverse of [`engine_to_wire`].
pub fn engine_from_wire(code: u8) -> Option<EngineKind> {
    match code {
        0 => Some(EngineKind::Clean),
        1 => Some(EngineKind::FastTrack),
        2 => Some(EngineKind::VcFull),
        3 => Some(EngineKind::Tsan),
        _ => None,
    }
}

fn kind_to_wire(kind: FullRaceKind) -> u8 {
    match kind {
        FullRaceKind::Waw => 0,
        FullRaceKind::Raw => 1,
        FullRaceKind::War => 2,
    }
}

fn kind_from_wire(code: u8) -> Option<FullRaceKind> {
    match code {
        0 => Some(FullRaceKind::Waw),
        1 => Some(FullRaceKind::Raw),
        2 => Some(FullRaceKind::War),
        _ => None,
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Whether `e` is a socket read or write timeout.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one frame.
fn write_frame(w: &mut impl Write, opcode: u8, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_BODY {
        return Err(bad(format!("frame body {} exceeds cap", body.len())));
    }
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION, opcode])?;
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A decoded frame header: what follows on the wire is `len` body bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame opcode.
    pub opcode: u8,
    /// Declared body length (already validated against [`MAX_BODY`]).
    pub len: usize,
}

/// Reads and validates one 10-byte frame header. `Ok(None)` on clean EOF
/// before the first byte (peer closed at a frame boundary). The body is
/// *not* consumed — large SUBMIT bodies can be streamed straight to disk
/// instead of being buffered.
///
/// # Errors
///
/// I/O errors, or `InvalidData` for bad magic/version/length. A timeout
/// (`WouldBlock`/`TimedOut`) with zero bytes read surfaces as the raw
/// I/O error so callers can treat an idle connection differently from a
/// mid-frame stall.
pub fn read_frame_header(r: &mut impl Read) -> io::Result<Option<FrameHeader>> {
    let mut header = [0u8; 10];
    let mut filled = 0;
    while filled < header.len() {
        let n = match r.read(&mut header[filled..]) {
            Ok(n) => n,
            Err(e) if filled == 0 && is_timeout(&e) => return Err(e),
            Err(e) if is_timeout(&e) => return Err(bad("timed out mid frame header")),
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(bad("truncated frame header"));
        }
        filled += n;
    }
    if header[..4] != MAGIC {
        return Err(bad("bad frame magic"));
    }
    if header[4] != VERSION {
        return Err(bad(format!("unsupported protocol version {}", header[4])));
    }
    let opcode = header[5];
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_BODY {
        return Err(bad(format!("frame body {len} exceeds cap")));
    }
    Ok(Some(FrameHeader { opcode, len }))
}

/// Reads the `len`-byte body following a [`FrameHeader`].
///
/// # Errors
///
/// I/O errors; a timeout mid-body becomes `InvalidData` (the stream
/// position is unrecoverable).
pub fn read_frame_body(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if is_timeout(&e) {
            bad("timed out mid frame body")
        } else {
            e
        }
    })?;
    Ok(body)
}

/// Reads one frame header + body. `Ok(None)` on clean EOF at a frame
/// boundary (peer closed the connection).
fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let Some(header) = read_frame_header(r)? else {
        return Ok(None);
    };
    let body = read_frame_body(r, header.len)?;
    Ok(Some((header.opcode, body)))
}

/// A little-endian body reader with length checking.
struct BodyReader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> BodyReader<'a> {
    fn new(body: &'a [u8]) -> Self {
        BodyReader { body, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or_else(|| bad("frame body too short"))?;
        let s = &self.body[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn digest(&mut self) -> io::Result<TraceDigest> {
        Ok(TraceDigest::from_bytes(
            self.bytes(16)?.try_into().expect("16"),
        ))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.body[self.at..];
        self.at = self.body.len();
        s
    }

    fn finish(self) -> io::Result<()> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame body"))
        }
    }
}

impl Request {
    /// Serializes the request as one frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying writer.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Request::Submit { trace } => write_frame(w, OP_SUBMIT, trace),
            Request::Analyze {
                digest,
                engine,
                wait,
            } => {
                let mut body = Vec::with_capacity(18);
                body.extend_from_slice(&digest.to_bytes());
                body.push(engine_to_wire(*engine));
                body.push(u8::from(*wait));
                write_frame(w, OP_ANALYZE, &body)
            }
            Request::Status { job } => write_frame(w, OP_STATUS, &job.to_le_bytes()),
            Request::Shutdown => write_frame(w, OP_SHUTDOWN, &[]),
            Request::Fetch { digest } => write_frame(w, OP_FETCH, &digest.to_bytes()),
            Request::Metrics => write_frame(w, OP_METRICS, &[]),
        }
    }

    /// Decodes a request from an already-read frame body.
    ///
    /// # Errors
    ///
    /// `InvalidData` for unknown opcodes or malformed bodies.
    pub fn from_frame(opcode: u8, body: &[u8]) -> io::Result<Request> {
        let mut b = BodyReader::new(body);
        let req = match opcode {
            OP_SUBMIT => Request::Submit {
                trace: b.rest().to_vec(),
            },
            OP_ANALYZE => {
                let digest = b.digest()?;
                let engine = engine_from_wire(b.u8()?).ok_or_else(|| bad("unknown engine"))?;
                let wait = b.u8()? != 0;
                Request::Analyze {
                    digest,
                    engine,
                    wait,
                }
            }
            OP_STATUS => Request::Status { job: b.u64()? },
            OP_SHUTDOWN => Request::Shutdown,
            OP_FETCH => Request::Fetch {
                digest: b.digest()?,
            },
            OP_METRICS => Request::Metrics,
            other => return Err(bad(format!("unknown request opcode {other:#04x}"))),
        };
        b.finish()?;
        Ok(req)
    }

    /// Reads one request frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for malformed frames.
    pub fn read(r: &mut impl Read) -> io::Result<Option<Request>> {
        let Some((opcode, body)) = read_frame(r)? else {
            return Ok(None);
        };
        Ok(Some(Request::from_frame(opcode, &body)?))
    }
}

impl Response {
    /// An [`Response::Error`] reply.
    pub(crate) fn error(code: u8, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    /// Serializes the response as one frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying writer.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        match self {
            Response::Submitted {
                digest,
                dedup,
                bytes,
            } => {
                let mut body = Vec::with_capacity(25);
                body.extend_from_slice(&digest.to_bytes());
                body.push(u8::from(*dedup));
                body.extend_from_slice(&bytes.to_le_bytes());
                write_frame(w, OP_SUBMITTED, &body)
            }
            Response::Verdict {
                digest,
                engine,
                cached,
                races,
                events,
            } => {
                let mut body = Vec::with_capacity(30 + races.len() * 14);
                body.extend_from_slice(&digest.to_bytes());
                body.push(engine_to_wire(*engine));
                body.push(u8::from(*cached));
                body.extend_from_slice(&(races.len() as u32).to_le_bytes());
                for r in races {
                    body.push(kind_to_wire(r.kind));
                    body.extend_from_slice(&r.addr.to_le_bytes());
                    body.extend_from_slice(&r.current.to_le_bytes());
                    body.extend_from_slice(&r.previous.to_le_bytes());
                    body.push(u8::from(r.suppressed));
                }
                body.extend_from_slice(&events.to_le_bytes());
                write_frame(w, OP_VERDICT, &body)
            }
            Response::Pending { job } => write_frame(w, OP_PENDING, &job.to_le_bytes()),
            Response::RetryAfter { millis } => {
                write_frame(w, OP_RETRY_AFTER, &millis.to_le_bytes())
            }
            Response::Error { code, message } => {
                let mut body = Vec::with_capacity(1 + message.len());
                body.push(*code);
                body.extend_from_slice(message.as_bytes());
                write_frame(w, OP_ERROR, &body)
            }
            Response::ShuttingDown => write_frame(w, OP_SHUTTING_DOWN, &[]),
            Response::TraceData { digest, trace } => {
                let mut body = Vec::with_capacity(16 + trace.len());
                body.extend_from_slice(&digest.to_bytes());
                body.extend_from_slice(trace);
                write_frame(w, OP_TRACE_DATA, &body)
            }
            Response::Metrics { text } => write_frame(w, OP_METRICS_REPLY, text.as_bytes()),
        }
    }

    /// Reads one response frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for malformed frames.
    pub fn read(r: &mut impl Read) -> io::Result<Option<Response>> {
        let Some((opcode, body)) = read_frame(r)? else {
            return Ok(None);
        };
        let mut b = BodyReader::new(&body);
        let resp = match opcode {
            OP_SUBMITTED => Response::Submitted {
                digest: b.digest()?,
                dedup: b.u8()? != 0,
                bytes: b.u64()?,
            },
            OP_VERDICT => {
                let digest = b.digest()?;
                let engine = engine_from_wire(b.u8()?).ok_or_else(|| bad("unknown engine"))?;
                let cached = b.u8()? != 0;
                let count = b.u32()? as usize;
                // 14 bytes per race: reject counts the body cannot hold.
                if count > body.len() / 14 {
                    return Err(bad("race count exceeds frame body"));
                }
                let mut races = Vec::with_capacity(count);
                for _ in 0..count {
                    let kind = kind_from_wire(b.u8()?).ok_or_else(|| bad("unknown race kind"))?;
                    races.push(WireRace {
                        kind,
                        addr: b.u64()?,
                        current: b.u16()?,
                        previous: b.u16()?,
                        suppressed: b.u8()? != 0,
                    });
                }
                Response::Verdict {
                    digest,
                    engine,
                    cached,
                    races,
                    events: b.u64()?,
                }
            }
            OP_PENDING => Response::Pending { job: b.u64()? },
            OP_RETRY_AFTER => Response::RetryAfter { millis: b.u64()? },
            OP_ERROR => {
                let code = b.u8()?;
                let message = String::from_utf8_lossy(b.rest()).into_owned();
                Response::Error { code, message }
            }
            OP_SHUTTING_DOWN => Response::ShuttingDown,
            OP_TRACE_DATA => {
                let digest = b.digest()?;
                Response::TraceData {
                    digest,
                    trace: b.rest().to_vec(),
                }
            }
            OP_METRICS_REPLY => Response::Metrics {
                text: String::from_utf8_lossy(b.rest()).into_owned(),
            },
            other => return Err(bad(format!("unknown response opcode {other:#04x}"))),
        };
        b.finish()?;
        Ok(Some(resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        let back = Request::read(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        resp.write(&mut buf).unwrap();
        let back = Response::read(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Submit {
            trace: vec![1, 2, 3, 4, 5],
        });
        roundtrip_request(Request::Submit { trace: vec![] });
        for engine in EngineKind::ALL {
            for wait in [false, true] {
                roundtrip_request(Request::Analyze {
                    digest: TraceDigest(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
                    engine,
                    wait,
                });
            }
        }
        roundtrip_request(Request::Status { job: u64::MAX });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Fetch {
            digest: TraceDigest(0xffee_ddcc_bbaa_0099_8877_6655_4433_2211),
        });
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Submitted {
            digest: TraceDigest(42),
            dedup: true,
            bytes: 123_456,
        });
        roundtrip_response(Response::Verdict {
            digest: TraceDigest(7),
            engine: EngineKind::Clean,
            cached: true,
            races: [
                (FullRaceKind::Waw, 0xdead_beef, 3, 1),
                (FullRaceKind::War, 64, 0, 2),
            ]
            .map(|(kind, addr, current, previous)| {
                WireRace::from_found(&FoundRace {
                    kind,
                    addr,
                    current: ThreadId::new(current),
                    previous: ThreadId::new(previous),
                })
            })
            .to_vec(),
            events: 1 << 40,
        });
        roundtrip_response(Response::Verdict {
            digest: TraceDigest(0),
            engine: EngineKind::Tsan,
            cached: false,
            races: vec![],
            events: 0,
        });
        roundtrip_response(Response::Pending { job: 9 });
        roundtrip_response(Response::RetryAfter { millis: 250 });
        roundtrip_response(Response::Error {
            code: error_code::BAD_TRACE,
            message: "not a trace".into(),
        });
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::TraceData {
            digest: TraceDigest(77),
            trace: vec![0xCA, 0xFE, 0x00, 0x42],
        });
        roundtrip_response(Response::TraceData {
            digest: TraceDigest(0),
            trace: vec![],
        });
        roundtrip_response(Response::Metrics {
            text: "# CMET v1\ncounter serve_requests_total 9\n".into(),
        });
        roundtrip_response(Response::Metrics {
            text: String::new(),
        });
    }

    #[test]
    fn retired_stats_opcodes_are_rejected() {
        // What an old client sends, and what an old server answered:
        // STATS and its 15-counter reply, then a well-formed read of the
        // other retired verb and a one-counter reply to it.
        for (opcode, body) in [(0x04, vec![]), (0x07, vec![0])] {
            let mut request = Vec::new();
            write_frame(&mut request, opcode, &body).unwrap();
            let err = Request::read(&mut request.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{opcode:#04x}");
        }
        for (opcode, body) in [
            (0x85, vec![0u8; 8 * 15]),
            (0x89, vec![1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]),
        ] {
            let mut reply = Vec::new();
            write_frame(&mut reply, opcode, &body).unwrap();
            let err = Response::read(&mut reply.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{opcode:#04x}");
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(Request::read(&mut [].as_slice()).unwrap(), None);
        assert_eq!(Response::read(&mut [].as_slice()).unwrap(), None);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong magic.
        let mut buf = Vec::new();
        Request::Metrics.write(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Wrong version.
        let mut buf = Vec::new();
        Request::Metrics.write(&mut buf).unwrap();
        buf[4] = 99;
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Truncated header.
        assert!(Request::read(&mut MAGIC.as_slice()).is_err());
        // Truncated body.
        let mut buf = Vec::new();
        Request::Status { job: 1 }.write(&mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Unknown opcode.
        let mut buf = Vec::new();
        Request::Metrics.write(&mut buf).unwrap();
        buf[5] = 0x7f;
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Trailing garbage inside the declared body.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_STATUS, &[0u8; 12]).unwrap();
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Oversized declared body length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(OP_SUBMIT);
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(Request::read(&mut buf.as_slice()).is_err());
        // Verdict whose race count cannot fit its body.
        let mut body = Vec::new();
        body.extend_from_slice(&TraceDigest(1).to_bytes());
        body.push(0); // engine
        body.push(0); // cached
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_VERDICT, &body).unwrap();
        assert!(Response::read(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn engine_codes_roundtrip() {
        for engine in EngineKind::ALL {
            assert_eq!(engine_from_wire(engine_to_wire(engine)), Some(engine));
        }
        assert_eq!(engine_from_wire(200), None);
    }
}
