//! Corruption fuzzing of the two text formats the service reads: the
//! `CVERD v1` verdict log (`verdicts.log`, reloaded from disk at
//! startup) and the `CMET v1` metrics exposition (parsed by clients and
//! by the fleet router when it aggregates its backends).
//!
//! Each case takes a valid file and damages it one way — flipped bytes,
//! a cut at any offset, a duplicated or dropped line, or a number
//! replaced by 0, `u64::MAX` or one past it. The invariants under test:
//!
//! * a damaged verdict log opens without error or panic (an unparseable
//!   line is dropped, never fatal), and the log it compacts to reopens
//!   to the same entries;
//! * the exposition parser returns `Ok` or an error naming a line of
//!   the input, and never panics;
//! * a `Snapshot` that parses renders and parses back to the same
//!   counters, gauges and histograms, and survives the router's merge.

use clean_obs::Snapshot;
use clean_serve::cache::VerdictCache;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const VERDICTS: &str = "\
CVERD v1
00112233445566778899aabbccddeeff clean 4096 2 waw,1000,12,3 raw,1008,3,12
00112233445566778899aabbccddeeff fasttrack 4096 3 waw,1000,12,3 raw,1008,3,12 war,1010,255,17
00112233445566778899aabbccddeeff vcfull 4096 0
0000000000000000000000000000beef tsan 123456789 1 war,deadbeef,65535,1
ffeeddccbbaa99887766554433221100 clean 7 0
";

const EXPOSITION: &str = "\
# CMET v1
counter bad_frames 3
counter serve_requests_total{verb=\"analyze\"} 42
gauge store_bytes 65536
hist serve_latency_micros{dedup=\"true\",verb=\"submit\"} sum=906 max=900 buckets=1:1,3:1,10:1
hist serve_latency_micros{verb=\"metrics\"} sum=0 max=0 buckets=
# 17 job_done digest=00ff
";

/// One way to damage a file: `kind` picks flips (0), a cut at `at` (1),
/// a duplicated line (2), a dropped line (3) or a boundary number in
/// place of a run of digits (4, the first flip's position picks the
/// number); `at` indexes a byte, a line or a run, modulo their count.
type Damage = (u8, usize, Vec<(usize, u8)>);

fn damage() -> impl Strategy<Value = Damage> {
    (
        0u8..5,
        0usize..1 << 16,
        prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
    )
}

fn apply((kind, at, flips): &Damage, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    match kind {
        0 => {
            for (pos, xor) in flips {
                let len = bytes.len();
                bytes[pos % len] ^= xor;
            }
        }
        1 => bytes.truncate(at % (bytes.len() + 1)),
        2 => {
            let line = lines[at % lines.len()];
            lines.insert(at % lines.len(), line);
            bytes = lines.concat().into_bytes();
        }
        3 => {
            lines.remove(at % lines.len());
            bytes = lines.concat().into_bytes();
        }
        _ => {
            let mut runs = Vec::new();
            for (i, b) in text.bytes().enumerate() {
                match (b.is_ascii_digit(), runs.last_mut()) {
                    (true, Some((_, end))) if *end == i => *end += 1,
                    (true, _) => runs.push((i, i + 1)),
                    _ => {}
                }
            }
            let (lo, hi) = runs[at % runs.len()];
            let value = ["0", "18446744073709551615", "18446744073709551616"][flips[0].0 % 3];
            bytes.splice(lo..hi, value.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Whether `line` names a line of `text` (a file with no lines has its
/// errors on line 1).
fn names_a_line(text: &str, line: usize) -> bool {
    (1..=text.lines().count().max(1)).contains(&line)
}

/// A fresh `verdicts.log` path for this test process.
fn log_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clean-serve-text-fuzz-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("verdicts.log")
}

/// Writes `text` as a verdict log, opens it (which compacts it in
/// place), and returns the entry count and the compacted text.
fn open_log(path: &Path, text: &str) -> (usize, String) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
    let cache = VerdictCache::open(path).expect("a damaged log opens");
    (cache.len(), std::fs::read_to_string(path).unwrap())
}

#[test]
fn the_seed_files_are_valid() {
    let path = log_path("seed");
    let (entries, compacted) = open_log(&path, VERDICTS);
    assert_eq!(entries, 5);
    assert_eq!(compacted, VERDICTS, "a valid log compacts to itself");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    let snap = Snapshot::parse(EXPOSITION).unwrap();
    assert_eq!((snap.counters.len(), snap.gauges.len()), (2, 1));
    assert_eq!(snap.hists.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn damaged_verdict_logs_open_and_reopen_to_the_same_entries(d in damage()) {
        let path = log_path("cverd");
        let (entries, compacted) = open_log(&path, &apply(&d, VERDICTS));
        let (reopened, recompacted) = open_log(&path, &compacted);
        prop_assert_eq!(reopened, entries);
        prop_assert_eq!(recompacted, compacted);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn damaged_expositions_parse_or_name_a_line_and_round_trip(d in damage()) {
        let text = apply(&d, EXPOSITION);
        match Snapshot::parse(&text) {
            Ok(snap) => {
                let rendered = snap.render(&[]);
                prop_assert_eq!(Snapshot::parse(&rendered), Ok(snap.clone()), "from {:?}", text);
                // The router sums backend snapshots and their families.
                let mut merged = snap.clone();
                merged.merge(&snap);
                prop_assert_eq!(merged.counters.len(), snap.counters.len());
                let _ = merged.counter_family_total("serve_requests_total");
            }
            Err(e) => prop_assert!(names_a_line(&text, e.line), "{e} in {text:?}"),
        }
    }
}
