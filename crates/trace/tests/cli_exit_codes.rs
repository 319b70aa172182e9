//! End-to-end checks of the `clean-analyze` process exit codes and the
//! `digest` subcommand: scripts (and the serve client) branch on these
//! codes without parsing stdout.

use clean_core::{ThreadId, TraceEvent};
use clean_trace::{digest_events, read_table, write_trace};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_clean-analyze");

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clean-cli-{}-{name}", std::process::id()))
}

fn t(i: u16) -> ThreadId {
    ThreadId::new(i)
}

fn racy_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Write {
            tid: t(0),
            addr: 64,
            size: 4,
        },
        TraceEvent::Write {
            tid: t(1),
            addr: 64,
            size: 4,
        },
    ]
}

fn clean_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Acquire { tid: t(0), lock: 1 },
        TraceEvent::Write {
            tid: t(0),
            addr: 64,
            size: 4,
        },
        TraceEvent::Release { tid: t(0), lock: 1 },
        TraceEvent::Acquire { tid: t(1), lock: 1 },
        TraceEvent::Write {
            tid: t(1),
            addr: 64,
            size: 4,
        },
        TraceEvent::Release { tid: t(1), lock: 1 },
    ]
}

#[test]
fn replay_exit_codes_distinguish_race_clean_and_decode_error() {
    let racy = tmp("racy.cltr");
    let clean = tmp("clean.cltr");
    let junk = tmp("junk.cltr");
    write_trace(&racy, &racy_events()).unwrap();
    write_trace(&clean, &clean_events()).unwrap();
    std::fs::write(&junk, b"not a trace at all").unwrap();

    let run = |path: &PathBuf| {
        Command::new(BIN)
            .args(["replay", "--engine", "clean", "--shards", "2"])
            .arg(path)
            .output()
            .unwrap()
    };
    assert_eq!(run(&racy).status.code(), Some(10), "racy trace");
    assert_eq!(run(&clean).status.code(), Some(0), "clean trace");
    assert_eq!(run(&junk).status.code(), Some(12), "undecodable trace");

    // A payload byte flipped behind an intact chunk table: the header
    // and table read fine, and the decode fails while the events stream.
    let flipped = tmp("flipped.cltr");
    let mut bytes = std::fs::read(&racy).unwrap();
    let first = read_table(&racy).unwrap().entries[0].offset as usize;
    bytes[first + 12] ^= 0x10;
    std::fs::write(&flipped, bytes).unwrap();
    assert_eq!(run(&flipped).status.code(), Some(12), "flipped payload");
    // `stats` and `plan` stream the same events and fail the same way.
    for cmd in ["stats", "plan"] {
        for (path, what) in [(&junk, "undecodable trace"), (&flipped, "flipped payload")] {
            let out = Command::new(BIN).arg(cmd).arg(path).output().unwrap();
            assert_eq!(out.status.code(), Some(12), "{cmd}: {what}");
        }
    }

    // A missing file is an I/O error, not a decode error.
    let missing = Command::new(BIN)
        .args(["replay", "--engine", "clean"])
        .arg(tmp("nonexistent.cltr"))
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(1));

    // So is a path that cannot be read as a file at all, on every
    // subcommand that reads the trace header.
    let dir = tmp("a-directory");
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(run(&dir).status.code(), Some(1), "directory");
    let digest = Command::new(BIN).arg("digest").arg(&dir).output().unwrap();
    assert_eq!(digest.status.code(), Some(1), "digest of a directory");

    // A header cut short names the bytes that are there.
    let short = tmp("short.cltr");
    std::fs::write(&short, b"CLT").unwrap();
    let out = run(&short);
    assert_eq!(out.status.code(), Some(12), "three-byte file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[43, 4c, 54]"), "{stderr}");

    for p in [&racy, &clean, &junk, &flipped, &short] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn digest_subcommand_prints_canonical_digest() {
    let path = tmp("digest.cltr");
    let events = racy_events();
    write_trace(&path, &events).unwrap();
    let out = Command::new(BIN).arg("digest").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let printed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(printed.trim(), digest_events(&events).to_string());

    let junk = tmp("digest-junk.cltr");
    std::fs::write(&junk, b"CLTRgarbage").unwrap();
    let bad = Command::new(BIN).arg("digest").arg(&junk).output().unwrap();
    assert_eq!(bad.status.code(), Some(12), "decode failure exit code");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&junk).ok();
}
