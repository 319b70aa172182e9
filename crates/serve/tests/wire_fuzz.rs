//! Property-driven fuzzing of the CSRV frame layer against a live
//! server socket: random tags, lying length prefixes, truncated bodies,
//! and mid-frame hangups. The invariants under test:
//!
//! * a malformed frame is answered with a `BAD_FRAME` error and then the
//!   connection is dropped — never silently swallowed;
//! * *any* byte soup either gets a well-formed response frame or a clean
//!   disconnect — the server never panics, never wedges a connection
//!   past its read timeout, and stays healthy for the next client.
//!
//! One server instance is shared across all cases (each case costs only
//! a connect), with a short io timeout so stalls resolve quickly.

use clean_serve::client::{stat, Client};
use clean_serve::protocol::{error_code, Response, MAGIC, VERSION};
use clean_serve::server::{Server, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

/// Starts the shared fuzz target once; the handle is intentionally
/// leaked so the server outlives every proptest case in the binary.
fn target() -> std::net::SocketAddr {
    static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("clean-wire-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig::new(&dir).io_timeout_millis(200))
            .expect("fuzz server must start");
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

/// What one connection experienced after the fuzz bytes went out.
#[derive(Debug)]
enum Outcome {
    /// A well-formed response frame (the only kind the server emits).
    Reply(Response),
    /// Clean EOF or reset — the server dropped the connection.
    Gone,
}

/// Sends `bytes`, optionally half-closing the write side (mid-frame
/// EOF), and reads one response. Panics if the connection wedges past
/// the deadline or the server emits an unparseable frame.
fn exchange(bytes: &[u8], eof_after: bool) -> Outcome {
    let mut sock = TcpStream::connect(target()).expect("connect to fuzz server");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A write can legitimately fail if the server already rejected the
    // prefix and closed on us — that counts as a disconnect, not a bug.
    if sock.write_all(bytes).is_err() {
        return Outcome::Gone;
    }
    if eof_after {
        let _ = sock.shutdown(std::net::Shutdown::Write);
    }
    match Response::read(&mut sock) {
        Ok(Some(reply)) => Outcome::Reply(reply),
        Ok(None) => Outcome::Gone,
        Err(e) => match e.kind() {
            std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe => Outcome::Gone,
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                panic!("server wedged: no reply and no disconnect for {bytes:02x?}")
            }
            _ => panic!("server sent an unparseable reply for {bytes:02x?}: {e}"),
        },
    }
}

/// After a `BAD_FRAME`, the server must hang up: nothing but EOF (or a
/// reset racing the close) may follow on the wire.
fn assert_disconnected(sock: &mut TcpStream, ctx: &str) {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{ctx}: trailing bytes {rest:02x?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{ctx}"),
    }
}

/// Builds a frame header + body with every field attacker-controlled.
fn frame(magic: [u8; 4], version: u8, opcode: u8, declared: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + body.len());
    out.extend_from_slice(&magic);
    out.push(version);
    out.push(opcode);
    out.extend_from_slice(&declared.to_le_bytes());
    out.extend_from_slice(body);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames whose *header* is definitely malformed — wrong magic,
    /// wrong version, or an absurd declared length — get `BAD_FRAME`
    /// and then the disconnect, whatever the rest of the bytes say.
    #[test]
    fn corrupt_headers_get_bad_frame_then_disconnect(
        kind in 0u8..3,
        corrupt_byte in 0u8..=255,
        opcode in 0u8..=255,
        body in prop::collection::vec(0u8..=255u8, 0usize..32),
    ) {
        let mut magic = MAGIC;
        let mut version = VERSION;
        let mut declared = body.len() as u32;
        match kind {
            0 => magic[(corrupt_byte % 4) as usize] ^= 1 | (corrupt_byte & 0x7e),
            1 => version = VERSION ^ corrupt_byte.max(1),
            _ => declared = u32::MAX - u32::from(corrupt_byte),
        }
        let bytes = frame(magic, version, opcode, declared, &body);

        let mut sock = TcpStream::connect(target()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The server may close mid-write once the header is judged;
        // rejection without a readable reply is still a reject.
        if sock.write_all(&bytes).is_ok() {
            match Response::read(&mut sock) {
                Ok(Some(Response::Error { code, .. })) => {
                    prop_assert_eq!(code, error_code::BAD_FRAME, "frame {:02x?}", bytes);
                    assert_disconnected(&mut sock, "after BAD_FRAME");
                }
                Ok(Some(other)) => prop_assert!(false, "{:02x?} accepted: {:?}", bytes, other),
                Ok(None) => {}
                Err(e) => prop_assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                    ),
                    "server wedged or corrupted its reply: {}",
                    e
                ),
            }
        }
    }

    /// A frame that declares more body than it sends — whether the
    /// client then half-closes (mid-frame EOF) or just stalls — must
    /// resolve to an error or a disconnect before the deadline. The
    /// stall path exercises the per-connection read timeout.
    #[test]
    fn truncated_bodies_never_wedge(
        opcode in 0u8..=255,
        body in prop::collection::vec(0u8..=255u8, 0usize..24),
        extra in 1u32..64,
        eof in proptest::bool::ANY,
    ) {
        let declared = body.len() as u32 + extra;
        let bytes = frame(MAGIC, VERSION, opcode, declared, &body);
        match exchange(&bytes, eof) {
            Outcome::Reply(Response::Error { code, .. }) => {
                prop_assert_eq!(code, error_code::BAD_FRAME, "frame {:02x?}", bytes);
            }
            Outcome::Reply(other) => {
                prop_assert!(false, "truncated frame {:02x?} accepted: {:?}", bytes, other)
            }
            Outcome::Gone => {}
        }
    }

    /// Arbitrary well-framed bytes — random opcode, random body, honest
    /// length — get *some* well-formed reply or a clean disconnect.
    /// Unknown opcodes and garbage bodies must surface as protocol
    /// errors, never as hangs, panics, or corrupt reply frames.
    #[test]
    fn random_frames_get_a_well_formed_reply_or_eof(
        opcode in 0u8..=255,
        body in prop::collection::vec(0u8..=255u8, 0usize..48),
    ) {
        // Opcode 0x05 is SHUTDOWN — a *valid* frame that would drain the
        // shared target mid-run, so the fuzzer steers around it.
        let opcode = if opcode == 0x05 { 0x15 } else { opcode };
        let bytes = frame(MAGIC, VERSION, opcode, body.len() as u32, &body);
        // exchange() panics on wedge or unparseable reply; any reply
        // variant is acceptable — random bodies can spell valid
        // requests (e.g. opcode 0x08 METRICS with an empty body).
        let _ = exchange(&bytes, false);
    }

    /// Sending a random prefix of a valid frame and hanging up must
    /// leave the server healthy for the next client.
    #[test]
    fn mid_frame_hangup_leaves_the_server_healthy(
        cut in 0usize..10,
        opcode in 0u8..=255,
    ) {
        let bytes = frame(MAGIC, VERSION, opcode, 0, &[]);
        {
            let mut sock = TcpStream::connect(target()).unwrap();
            let _ = sock.write_all(&bytes[..cut.min(bytes.len())]);
            // Drop: mid-header (or mid-frame) EOF.
        }
        let mut client = Client::connect(target()).expect("server must accept new clients");
        let snap = client.metrics_snapshot().expect("server must still answer METRICS");
        prop_assert!(stat(&snap, "submits") == 0, "the fuzzer never submits a valid trace");
    }
}

/// Not a property: one final health check that runs after `cargo test`
/// interleaves all the fuzz cases — the shared server must still serve
/// a typed round trip.
#[test]
fn zz_fuzz_target_survives_the_whole_session() {
    let mut client = Client::connect(target()).expect("connect after fuzzing");
    let snap = client.metrics_snapshot().expect("METRICS after fuzzing");
    // No fuzz case ever spells a valid SUBMIT (they would need a real
    // trace body); a responsive, zero-submit server is a healthy one.
    assert_eq!(stat(&snap, "submits"), 0);
}
