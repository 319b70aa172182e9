//! The correctness oracle: what a right verdict is, and how the verdicts
//! the program hands back — CLI text, wire races — are compared with it.
//!
//! The reference for a trace is an in-process, single-threaded
//! `EngineKind::Clean` pass over its events. Race *sets* are compared: the
//! sharded and streaming replays may report the same races in another
//! order.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::TraceEvent;
use clean_serve::protocol::WireRace;
use clean_trace::EngineKind;

/// A race reduced to the fields every path reports, ordered for set
/// comparison.
pub type Key = (usize, u8, u16, u16);

fn kind_code(kind: FullRaceKind) -> u8 {
    match kind {
        FullRaceKind::Waw => 0,
        FullRaceKind::Raw => 1,
        FullRaceKind::War => 2,
    }
}

/// Sorted, deduplicated keys of a race list.
pub fn keys(races: &[FoundRace]) -> Vec<Key> {
    let mut k: Vec<Key> = races
        .iter()
        .map(|r| (r.addr, kind_code(r.kind), r.current.raw(), r.previous.raw()))
        .collect();
    k.sort_unstable();
    k.dedup();
    k
}

/// Sequential CLEAN reference verdict for `events`.
pub fn reference(events: &[TraceEvent], threads: u16) -> Vec<Key> {
    let mut engine = EngineKind::Clean.build(usize::from(threads));
    let mut races = Vec::new();
    for e in events {
        races.extend(engine.process(e));
    }
    keys(&races)
}

/// Keys of a served verdict's races (suppression is off in every
/// benchmark fleet, so a suppressed race is itself a mismatch).
pub fn wire_keys(races: &[WireRace]) -> Option<Vec<Key>> {
    if races.iter().any(|r| r.suppressed) {
        return None;
    }
    let mut k: Vec<Key> = races
        .iter()
        .map(|r| (r.addr as usize, kind_code(r.kind), r.current, r.previous))
        .collect();
    k.sort_unstable();
    k.dedup();
    Some(k)
}

/// What `clean-analyze replay` printed, reduced to what the oracle and
/// the ledger read.
#[derive(Debug, PartialEq, Eq)]
pub struct CliVerdict {
    /// Race count from the summary line.
    pub count: usize,
    /// The listed races (the CLI lists at most ten).
    pub races: Vec<Key>,
    /// Work-stealing steals, when the streaming engine printed them.
    pub steals: Option<u64>,
}

/// Parses the replay CLI's stdout for one engine.
pub fn parse_cli(stdout: &str) -> Option<CliVerdict> {
    let mut count = None;
    let mut steals = None;
    let mut races = Vec::new();
    for line in stdout.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("clean ") {
            // "clean  <n> races (WAW a, RAW b, WAR c) in 1.2s [.., S steals, ..]"
            let mut words = rest.split_ascii_whitespace();
            count = words.next()?.parse().ok();
            let w: Vec<&str> = rest.split_ascii_whitespace().collect();
            steals = w
                .iter()
                .position(|x| x.starts_with("steals"))
                .and_then(|i| w.get(i.checked_sub(1)?)?.parse().ok());
        } else if let Some((kind, rest)) = t.split_once(" at 0x") {
            // "WAW at 0x1f00: t1 after t0"
            let kind = match kind {
                "WAW" => 0,
                "RAW" => 1,
                "WAR" => 2,
                _ => continue,
            };
            let (addr, who) = rest.split_once(": t")?;
            let (cur, prev) = who.split_once(" after t")?;
            races.push((
                usize::from_str_radix(addr, 16).ok()?,
                kind,
                cur.parse().ok()?,
                prev.parse().ok()?,
            ));
        }
    }
    races.sort_unstable();
    Some(CliVerdict {
        count: count?,
        races,
        steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_trace, TraceSpec};
    use clean_core::ThreadId;

    fn found(kind: FullRaceKind, addr: usize, current: u16, previous: u16) -> FoundRace {
        FoundRace {
            kind,
            addr,
            current: ThreadId::new(current),
            previous: ThreadId::new(previous),
        }
    }

    #[test]
    fn cli_text_parses_to_keys_and_steals() {
        let text = "2097170 events (7340032 bytes), 2 shards, 2 streaming workers, 2 decode workers\n\
                    clean           1 races (WAW 1, RAW 0, WAR 0) in 912.33ms [33 batches, 4 steals, mmap, table decode x2]\n  \
                    WAW at 0x1f00: t3 after t1\n";
        let v = parse_cli(text).unwrap();
        assert_eq!(v.count, 1);
        assert_eq!(v.races, vec![(0x1f00, 0, 3, 1)]);
        assert_eq!(v.steals, Some(4));
        let clean = parse_cli("10 events, 2 shards\nclean 0 races (WAW 0, RAW 0, WAR 0) in 1ms\n");
        assert_eq!(clean.unwrap().steals, None);
        assert_eq!(parse_cli("error: nope\n"), None);
    }

    #[test]
    fn reference_finds_exactly_the_seeded_race() {
        let spec = TraceSpec {
            events: 6000,
            threads: 3,
            region_bytes: 4096,
            racy: true,
        };
        for seed in 0..8 {
            let t = gen_trace(seed, spec);
            assert_eq!(
                reference(&t.events, t.threads),
                keys(&t.expected),
                "seed {seed}"
            );
            let clean = gen_trace(
                seed,
                TraceSpec {
                    racy: false,
                    ..spec
                },
            );
            assert!(
                reference(&clean.events, clean.threads).is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn wire_keys_reject_suppressed_and_ignore_order() {
        let a = found(FullRaceKind::Waw, 64, 1, 0);
        let b = found(FullRaceKind::Raw, 8, 0, 1);
        let wire = [WireRace::from_found(&a), WireRace::from_found(&b)];
        assert_eq!(wire_keys(&wire), Some(keys(&[b, a])));
        let mut s = wire;
        s[0].suppressed = true;
        assert_eq!(wire_keys(&s), None);
    }
}
