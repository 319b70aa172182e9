//! Wire-level tests: raw bytes against a live server socket, checking
//! the frame grammar is enforced end to end — not just by the codec
//! unit tests — and that protocol errors are reported before the
//! connection drops.

use clean_core::{ThreadId, TraceEvent};
use clean_obs::{Snapshot, EXPOSITION_HEADER};
use clean_serve::client::Client;
use clean_serve::protocol::{error_code, Request, Response, MAGIC, VERSION};
use clean_serve::router::{Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{encode_trace, TraceDigest};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-serve-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn retired_stats_opcode_gets_bad_frame_from_server_and_router() {
    let dir = scratch("retired");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let router = Router::start(RouterConfig::new(vec![server.addr().to_string()])).unwrap();
    // What a client of the retired STATS verb sends: opcode 0x04, empty
    // body, current version.
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x04);
    frame.extend_from_slice(&0u32.to_le_bytes());
    for addr in [server.addr(), router.addr()] {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&frame).unwrap();
        match Response::read(&mut sock).unwrap().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_FRAME),
            other => panic!("{addr}: expected BAD_FRAME error, got {other:?}"),
        }
        // The refusal costs that connection only.
        let mut client = Client::connect(addr).unwrap();
        client.metrics_snapshot().expect("a fresh client is served");
    }
    router.join();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_gets_error_then_disconnect() {
    let dir = scratch("magic");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(b"BOGUS frame bytes").unwrap();

    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_FRAME),
        other => panic!("expected BAD_FRAME error, got {other:?}"),
    }
    // After a framing error the server drops the connection: either a
    // clean EOF or a reset (the server closed with bytes still unread).
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty()),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_version_and_unknown_opcode_are_rejected() {
    let dir = scratch("version");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();

    for (version, opcode) in [(VERSION + 1, 0x08u8), (VERSION, 0x6fu8)] {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(version);
        frame.push(opcode);
        frame.extend_from_slice(&0u32.to_le_bytes());
        sock.write_all(&frame).unwrap();
        match Response::read(&mut sock).unwrap().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_FRAME),
            other => panic!("expected BAD_FRAME error, got {other:?}"),
        }
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_body_length_is_rejected_without_hanging() {
    let dir = scratch("oversize");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    // Declares a 4 GiB body; the server must refuse at the header.
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x01);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    sock.write_all(&frame).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_FRAME),
        other => panic!("expected BAD_FRAME error, got {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn half_frame_then_disconnect_is_tolerated() {
    let dir = scratch("halfframe");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(&MAGIC[..2]).unwrap();
        // Drop mid-header: the server must not wedge.
    }
    // The server is still healthy afterwards.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    Request::Metrics.write(&mut sock).unwrap();
    assert!(matches!(
        Response::read(&mut sock).unwrap().unwrap(),
        Response::Metrics { .. }
    ));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
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
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x06);
    frame.extend_from_slice(&16u32.to_le_bytes());
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
    let dir = scratch("loris");
    let server = Server::start(ServerConfig::new(&dir).io_timeout_millis(150)).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();

    // Half a frame header, then stall: the per-connection read timeout
    // must trip, answer BAD_FRAME, and drop the connection.
    sock.write_all(&MAGIC[..3]).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, error_code::BAD_FRAME);
            assert!(message.contains("timed out"), "got {message:?}");
        }
        other => panic!("expected BAD_FRAME error, got {other:?}"),
    }
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "server must disconnect the staller"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    // Stalling mid-*body* is the same offense: declare a STATUS body and
    // send half of it.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x03);
    frame.extend_from_slice(&8u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]);
    sock.write_all(&frame).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match Response::read(&mut sock).unwrap().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, error_code::BAD_FRAME),
        other => panic!("expected BAD_FRAME error, got {other:?}"),
    }
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connection_outlives_the_io_timeout() {
    let dir = scratch("idle");
    let server = Server::start(ServerConfig::new(&dir).io_timeout_millis(100)).unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    // Idle at a frame boundary for several timeout periods: the server
    // must keep the connection, only mid-frame stalls are evicted.
    std::thread::sleep(Duration::from_millis(350));
    Request::Metrics.write(&mut sock).unwrap();
    assert!(matches!(
        Response::read(&mut sock).unwrap().unwrap(),
        Response::Metrics { .. }
    ));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
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
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x08);
    frame.extend_from_slice(&0u32.to_le_bytes());
    sock.write_all(&frame).unwrap();
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
