//! Wire-level tests: raw bytes against a live server socket, checking
//! the frame grammar is enforced end to end — not just by the codec
//! unit tests — and that protocol errors are reported before the
//! connection drops. The framing tests run against a server and against
//! a router in front of it: both daemons share one frame loop, and these
//! tests hold them to the same behaviour.

use clean_core::{ThreadId, TraceEvent};
use clean_obs::{Snapshot, EXPOSITION_HEADER};
use clean_serve::client::Client;
use clean_serve::protocol::{error_code, Request, Response, MAGIC, VERSION};
use clean_serve::router::{Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{encode_trace, TraceDigest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-serve-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The default I/O timeout of both daemons.
const IO_TIMEOUT_MILLIS: u64 = 30_000;

/// Runs `check` against a server, then against a router in front of it,
/// both started with `io_timeout_millis`.
fn against_server_and_router(tag: &str, io_timeout_millis: u64, check: impl Fn(SocketAddr)) {
    let dir = scratch(tag);
    let server =
        Server::start(ServerConfig::new(&dir).io_timeout_millis(io_timeout_millis)).unwrap();
    let router = Router::start(
        RouterConfig::new(vec![server.addr().to_string()]).io_timeout_millis(io_timeout_millis),
    )
    .unwrap();
    for addr in [server.addr(), router.addr()] {
        check(addr);
    }
    router.join();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one reply and asserts it is a `BAD_FRAME` error; returns its
/// message.
fn expect_bad_frame(sock: &mut TcpStream, addr: SocketAddr) -> String {
    match Response::read(sock).unwrap().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::BAD_FRAME, "{addr}: {message}");
            message
        }
        other => panic!("{addr}: expected BAD_FRAME error, got {other:?}"),
    }
}

/// Asserts the daemon dropped the connection: either a clean EOF or a
/// reset (the daemon closed with bytes still unread).
fn expect_disconnect(sock: &mut TcpStream, addr: SocketAddr) {
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{addr}: must disconnect"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{addr}"),
    }
}

/// Asserts a METRICS round trip on `sock` succeeds.
fn expect_metrics(sock: &mut TcpStream, addr: SocketAddr) {
    Request::Metrics.write(sock).unwrap();
    match Response::read(sock).unwrap().unwrap() {
        Response::Metrics { .. } => {}
        other => panic!("{addr}: expected METRICS reply, got {other:?}"),
    }
}

/// A frame header declaring `len` body bytes.
fn header(version: u8, opcode: u8, len: u32) -> Vec<u8> {
    let mut frame = MAGIC.to_vec();
    frame.push(version);
    frame.push(opcode);
    frame.extend_from_slice(&len.to_le_bytes());
    frame
}

#[test]
fn retired_opcodes_get_bad_frame_from_server_and_router() {
    // Verbs retire without a version bump; their opcodes stay reserved.
    assert_eq!(VERSION, 5);
    let dir = scratch("retired");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let router = Router::start(RouterConfig::new(vec![server.addr().to_string()])).unwrap();
    // What clients of the retired verbs send at the current version:
    // STATS (0x04, empty body) and a well-formed POLICY read (0x07, one
    // mode byte 0).
    let frames = [(0x04u8, vec![]), (0x07, vec![0u8])].map(|(opcode, body)| {
        let mut frame = header(VERSION, opcode, body.len() as u32);
        frame.extend_from_slice(&body);
        frame
    });
    for addr in [server.addr(), router.addr()] {
        for frame in &frames {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(frame).unwrap();
            let opcode = frame[5];
            match Response::read(&mut sock).unwrap().unwrap() {
                Response::Error { code, .. } => {
                    assert_eq!(code, error_code::BAD_FRAME, "{addr}: {opcode:#04x}")
                }
                other => panic!("{addr}: {opcode:#04x} expected BAD_FRAME, got {other:?}"),
            }
            // The refusal costs that connection only.
            let mut client = Client::connect(addr).unwrap();
            client.metrics_snapshot().expect("a fresh client is served");
        }
    }
    router.join();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_gets_error_then_disconnect() {
    against_server_and_router("magic", IO_TIMEOUT_MILLIS, |addr| {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(b"BOGUS frame bytes").unwrap();
        expect_bad_frame(&mut sock, addr);
        expect_disconnect(&mut sock, addr);
    });
}

#[test]
fn wrong_version_and_unknown_opcode_are_rejected() {
    against_server_and_router("version", IO_TIMEOUT_MILLIS, |addr| {
        for (version, opcode) in [(VERSION + 1, 0x08u8), (VERSION, 0x6fu8)] {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&header(version, opcode, 0)).unwrap();
            expect_bad_frame(&mut sock, addr);
        }
    });
}

#[test]
fn oversized_body_length_is_rejected_without_hanging() {
    against_server_and_router("oversize", IO_TIMEOUT_MILLIS, |addr| {
        // Declares a 4 GiB SUBMIT body; the daemon must refuse at the
        // header.
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&header(VERSION, 0x01, u32::MAX)).unwrap();
        expect_bad_frame(&mut sock, addr);
    });
}

#[test]
fn half_frame_then_disconnect_is_tolerated() {
    against_server_and_router("halfframe", IO_TIMEOUT_MILLIS, |addr| {
        {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&MAGIC[..2]).unwrap();
            // Drop mid-header: the daemon must not wedge.
        }
        // The daemon is still healthy afterwards.
        expect_metrics(&mut TcpStream::connect(addr).unwrap(), addr);
    });
}

#[test]
fn fetch_over_raw_socket_returns_stored_bytes() {
    let dir = scratch("fetch");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    // Store a small trace through the typed client.
    let events = [0u16, 1].map(|t| TraceEvent::Write {
        tid: ThreadId::new(t),
        addr: 64,
        size: 8,
    });
    let trace = encode_trace(&events).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let Response::Submitted { digest, .. } = client.submit(trace.clone()).unwrap() else {
        panic!("submit failed");
    };

    // Hand-rolled FETCH frame: opcode 0x06, 16-byte digest body.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let mut frame = header(VERSION, 0x06, 16);
    frame.extend_from_slice(&digest.to_bytes());
    sock.write_all(&frame).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::TraceData {
            digest: got,
            trace: bytes,
        } => {
            assert_eq!(got, digest);
            assert_eq!(bytes, trace, "FETCH returns the stored bytes verbatim");
        }
        other => panic!("expected TRACE_DATA, got {other:?}"),
    }

    // An absent digest is a clean UNKNOWN_DIGEST, not a hang.
    Request::Fetch {
        digest: TraceDigest(0xdead_beef),
    }
    .write(&mut sock)
    .unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::UNKNOWN_DIGEST),
        other => panic!("expected UNKNOWN_DIGEST, got {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_mid_frame_gets_bad_frame_and_disconnect() {
    against_server_and_router("loris", 150, |addr| {
        // Half a frame header, then stall: the per-connection read
        // timeout must trip, answer BAD_FRAME, and drop the connection.
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&MAGIC[..3]).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let message = expect_bad_frame(&mut sock, addr);
        assert!(message.contains("timed out"), "{addr}: got {message:?}");
        expect_disconnect(&mut sock, addr);

        // Stalling mid-*body* is the same offense: declare a STATUS body
        // and send half of it.
        let mut sock = TcpStream::connect(addr).unwrap();
        let mut frame = header(VERSION, 0x03, 8);
        frame.extend_from_slice(&[0u8; 4]);
        sock.write_all(&frame).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        expect_bad_frame(&mut sock, addr);
    });
}

#[test]
fn idle_connection_outlives_the_io_timeout() {
    against_server_and_router("idle", 100, |addr| {
        let mut sock = TcpStream::connect(addr).unwrap();
        // Idle at a frame boundary for several timeout periods: the
        // daemon must keep the connection, only mid-frame stalls are
        // evicted.
        std::thread::sleep(Duration::from_millis(350));
        expect_metrics(&mut sock, addr);
    });
}

#[test]
fn metrics_over_raw_socket_round_trips_the_exposition() {
    let dir = scratch("metrics");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    // One submission so the exposition has counted traffic to show.
    let events = [0u16, 1].map(|t| TraceEvent::Write {
        tid: ThreadId::new(t),
        addr: 128,
        size: 8,
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let Response::Submitted { .. } = client.submit(encode_trace(&events).unwrap()).unwrap() else {
        panic!("submit failed");
    };

    // Hand-rolled METRICS frame: opcode 0x08, empty body.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(&header(VERSION, 0x08, 0)).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Metrics { text } => {
            assert!(
                text.starts_with(EXPOSITION_HEADER),
                "exposition must lead with the CMET header, got {:?}",
                text.lines().next()
            );
            let snap = Snapshot::parse(&text).unwrap();
            assert_eq!(snap.counter("submits", &[]), Some(1));
            assert_eq!(
                snap.counter("serve_requests_total", &[("verb", "submit")]),
                Some(1)
            );
            let lat = snap
                .hist(
                    "serve_latency_micros",
                    &[("verb", "submit"), ("dedup", "false")],
                )
                .expect("submit latency histogram");
            assert_eq!(lat.count(), 1);
            // The text form is lossless: parse → render → parse fixes.
            let again = Snapshot::parse(&snap.render(&[])).unwrap();
            assert_eq!(again, snap);
        }
        other => panic!("expected METRICS reply, got {other:?}"),
    }

    // The typed client path reads the same exposition.
    let typed = client.metrics_snapshot().unwrap();
    assert_eq!(typed.counter("submits", &[]), Some(1));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_request_roundtrips_against_live_server() {
    let dir = scratch("typed");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    // Status for a job that cannot exist yet.
    Request::Status { job: 12345 }.write(&mut sock).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::UNKNOWN_JOB);
            assert!(message.contains("12345"));
        }
        other => panic!("unexpected {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
