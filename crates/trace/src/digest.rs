//! Canonical trace digests: the content addresses of the serving layer's
//! trace store.
//!
//! A digest identifies the *event sequence*, not the byte stream: it is
//! computed over a canonical per-event encoding of whole 64-bit words —
//! the kind and the (first) thread in one word, then each remaining
//! field in one word — so two `CLTR` files holding the same events —
//! different chunk sizes, rewritten by different writers — digest
//! identically and deduplicate in the store.
//!
//! Each word goes through splitmix64's finaliser, a bijective 64-bit
//! mixer, and is folded into 128 bits of state by one FNV-1a/128 step
//! (xor, then multiply by the FNV prime): one multiply per word. The
//! mixer is what lets every input bit reach the low state bits, which a
//! multiply alone only carries upwards. Not cryptographic (the store is
//! not an integrity boundary — chunk CRCs already catch corruption) but
//! with 128 bits of state, accidental collisions across a store of any
//! realistic size are negligible.

use crate::error::Result;
use crate::reader::TraceReader;
use clean_core::{ThreadId, TraceEvent};
use std::fmt;
use std::io::Read;
use std::path::Path;
use std::str::FromStr;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// splitmix64's finaliser: a bijection on `u64` whose every output bit
/// depends on every input bit.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 128-bit canonical trace digest.
///
/// Renders as (and parses from) 32 lowercase hex digits — the file stem
/// the trace store uses for its content-addressed entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceDigest(pub u128);

impl TraceDigest {
    /// The digest as its 16 big-endian bytes (the wire encoding).
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Reconstructs a digest from its 16 big-endian wire bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        TraceDigest(u128::from_be_bytes(bytes))
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Error parsing a [`TraceDigest`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestParseError(pub String);

impl fmt::Display for DigestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace digest: {}", self.0)
    }
}

impl std::error::Error for DigestParseError {}

impl FromStr for TraceDigest {
    type Err = DigestParseError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(DigestParseError(format!(
                "expected 32 hex digits, got {} in {s:?}",
                s.len()
            )));
        }
        u128::from_str_radix(s, 16)
            .map(TraceDigest)
            .map_err(|_| DigestParseError(format!("non-hex digit in {s:?}")))
    }
}

/// Incremental digest state: feed events in order, then
/// [`finish`](Digester::finish). The serving layer digests submissions
/// while validating them, without buffering the decoded trace.
#[derive(Debug, Clone)]
pub struct Digester {
    state: u128,
    events: u64,
}

impl Default for Digester {
    fn default() -> Self {
        Self::new()
    }
}

impl Digester {
    /// Fresh digest state.
    pub fn new() -> Self {
        Digester {
            state: FNV_OFFSET,
            events: 0,
        }
    }

    /// Folds one word: mix it, then one FNV-1a/128 step.
    #[inline]
    fn word(&mut self, v: u64) {
        self.state ^= u128::from(mix(v));
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds one event into the digest. The canonical encoding is the
    /// kind in the low byte and the thread above it in one word, then
    /// every other field as one word — deliberately independent of the
    /// `CLTR` chunking and delta state.
    pub fn update(&mut self, event: &TraceEvent) {
        let head = |kind: u64, tid: ThreadId| kind | (u64::from(tid.raw()) << 8);
        match *event {
            TraceEvent::Read { tid, addr, size } => {
                self.word(head(0, tid));
                self.word(addr as u64);
                self.word(size as u64);
            }
            TraceEvent::Write { tid, addr, size } => {
                self.word(head(1, tid));
                self.word(addr as u64);
                self.word(size as u64);
            }
            TraceEvent::Acquire { tid, lock } => {
                self.word(head(2, tid));
                self.word(u64::from(lock));
            }
            TraceEvent::Release { tid, lock } => {
                self.word(head(3, tid));
                self.word(u64::from(lock));
            }
            TraceEvent::Fork { parent, child } => {
                self.word(head(4, parent));
                self.word(u64::from(child.raw()));
            }
            TraceEvent::Join { parent, child } => {
                self.word(head(5, parent));
                self.word(u64::from(child.raw()));
            }
        }
        self.events += 1;
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finalizes: the event count is folded in last, so a trace and any
    /// proper prefix of it always digest differently (even the empty
    /// prefix of an empty-state collision).
    pub fn finish(mut self) -> TraceDigest {
        let n = self.events;
        self.word(n);
        TraceDigest(self.state)
    }
}

/// Digest of an in-memory event sequence.
pub fn digest_events(events: &[TraceEvent]) -> TraceDigest {
    let mut d = Digester::new();
    for e in events {
        d.update(e);
    }
    d.finish()
}

/// Decodes every event `reader` yields into one digest, returning it with
/// the event count. This full decode is also the validity check: the
/// store, the router and `digest_file` all refuse exactly what it refuses.
///
/// # Errors
///
/// Propagates I/O and decode errors.
pub fn digest_reader<R: Read>(reader: TraceReader<R>) -> Result<(TraceDigest, u64)> {
    let mut d = Digester::new();
    for ev in reader {
        d.update(&ev?);
    }
    let events = d.events();
    Ok((d.finish(), events))
}

/// Digest of a stored `CLTR` trace, streamed (the file is decoded, never
/// loaded whole).
///
/// # Errors
///
/// Propagates I/O and decode errors.
pub fn digest_file(path: impl AsRef<Path>) -> Result<TraceDigest> {
    digest_reader(TraceReader::open(path)?).map(|(digest, _)| digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_trace, TraceWriter};
    use clean_core::ThreadId;

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fork {
                parent: t(0),
                child: t(1),
            },
            TraceEvent::Write {
                tid: t(0),
                addr: 64,
                size: 4,
            },
            TraceEvent::Acquire { tid: t(1), lock: 3 },
            TraceEvent::Read {
                tid: t(1),
                addr: 64,
                size: 4,
            },
            TraceEvent::Release { tid: t(1), lock: 3 },
            TraceEvent::Join {
                parent: t(0),
                child: t(1),
            },
        ]
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        let ev = sample();
        assert_eq!(digest_events(&ev), digest_events(&ev));
        let mut swapped = ev.clone();
        swapped.swap(1, 3);
        assert_ne!(digest_events(&ev), digest_events(&swapped));
    }

    #[test]
    fn field_changes_change_the_digest() {
        let ev = sample();
        let base = digest_events(&ev);
        let mut other = ev.clone();
        other[1] = TraceEvent::Write {
            tid: t(0),
            addr: 65,
            size: 4,
        };
        assert_ne!(digest_events(&other), base);
        other[1] = TraceEvent::Read {
            tid: t(0),
            addr: 64,
            size: 4,
        };
        assert_ne!(digest_events(&other), base, "kind matters");
    }

    #[test]
    fn every_field_bit_reaches_the_low_digest_bits() {
        let (tid, addr, size, lock) = (5u16, 0x1000usize, 8usize, 3u32);
        let write = |tid: u16, addr: usize, size: usize| TraceEvent::Write {
            tid: t(tid),
            addr,
            size,
        };
        let acquire = |lock: u32| TraceEvent::Acquire { tid: t(tid), lock };
        let digest = |e: TraceEvent| digest_events(&[e]);
        let write_base = digest(write(tid, addr, size));
        let acquire_base = digest(acquire(lock));
        // (base, flipped) for one flip of every bit each field word holds.
        let mut flips = Vec::new();
        for bit in 0..u16::BITS {
            flips.push((write_base, digest(write(tid ^ (1 << bit), addr, size))));
        }
        for bit in 0..usize::BITS {
            flips.push((write_base, digest(write(tid, addr ^ (1 << bit), size))));
            flips.push((write_base, digest(write(tid, addr, size ^ (1 << bit)))));
        }
        for bit in 0..u32::BITS {
            flips.push((acquire_base, digest(acquire(lock ^ (1 << bit)))));
        }
        let mut seen: std::collections::HashSet<TraceDigest> =
            [write_base, acquire_base].into_iter().collect();
        for (i, &(base, flipped)) in flips.iter().enumerate() {
            assert!(seen.insert(flipped), "flip {i} collides");
            // A multiply only carries a difference upwards, so without the
            // mixer a flip of bit k would leave every state bit below k
            // equal. With it, every flip reaches the low 32 bits.
            assert_ne!(base.0 as u32, flipped.0 as u32, "flip {i}");
        }
    }

    #[test]
    fn prefix_digests_differ() {
        let ev = sample();
        let full = digest_events(&ev);
        for cut in 0..ev.len() {
            assert_ne!(digest_events(&ev[..cut]), full, "prefix {cut}");
        }
    }

    #[test]
    fn chunking_does_not_change_the_digest() {
        let ev = sample();
        let want = digest_events(&ev);
        let dir = std::env::temp_dir();
        for (i, chunk) in [1usize, 7, 64 * 1024].into_iter().enumerate() {
            let path = dir.join(format!("clean-digest-{}-{i}.cltr", std::process::id()));
            let mut w = TraceWriter::create(&path).unwrap().chunk_bytes(chunk);
            for e in &ev {
                w.write_event(e).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(digest_file(&path).unwrap(), want, "chunk_bytes {chunk}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = digest_events(&sample());
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s.parse::<TraceDigest>().unwrap(), d);
        assert_eq!(TraceDigest::from_bytes(d.to_bytes()), d);
        assert!("xyz".parse::<TraceDigest>().is_err());
        assert!("g".repeat(32).parse::<TraceDigest>().is_err());
    }

    #[test]
    fn digest_file_matches_in_memory() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("clean-digest-file-{}.cltr", std::process::id()));
        let ev = sample();
        write_trace(&path, &ev).unwrap();
        assert_eq!(digest_file(&path).unwrap(), digest_events(&ev));
        std::fs::remove_file(&path).ok();
    }
}
