//! Seeded trace generator shared by `replay_file` and the serve workloads.
//!
//! A trace is bursts of thread-private accesses (≈70 % reads; 8/4/1-byte
//! mix; a cursor that mostly walks forward so the codec's per-thread
//! address deltas stay small, with occasional jumps) interleaved with
//! short critical sections on one lock-protected shared region. A racy
//! trace additionally carries exactly one unordered write pair on a cell
//! nothing else touches, placed in the last 1 % of the events so a
//! detector must carry correct state through the whole file to find it.

use crate::rng::SplitMix64;
use clean_baselines::{FoundRace, FullRaceKind};
use clean_core::{ThreadId, TraceEvent};

/// Shape of one generated trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Target event count (the result may exceed it by one burst).
    pub events: usize,
    /// Threads appearing in the trace.
    pub threads: u16,
    /// Bytes of private region per thread.
    pub region_bytes: usize,
    /// Whether to seed the unordered write pair.
    pub racy: bool,
}

/// A generated trace and the race set a correct CLEAN verdict must equal.
#[derive(Debug, Clone)]
pub struct GenTrace {
    /// The events, in serialization order.
    pub events: Vec<TraceEvent>,
    /// The seeded race (empty for a clean trace).
    pub expected: Vec<FoundRace>,
    /// Threads appearing in the trace.
    pub threads: u16,
}

const LOCK: u32 = 1;
const SHARED_BYTES: usize = 4096;

/// Generates the trace `seed` names under `spec`.
pub fn gen_trace(seed: u64, spec: TraceSpec) -> GenTrace {
    let mut rng = SplitMix64::fork(seed, 0x7472_6163);
    let threads = usize::from(spec.threads);
    // A seeded page offset keeps distinct seeds on distinct addresses (and
    // so distinct digests) even when the draws below happen to agree.
    let base = 0x10_0000 + rng.below(1 << 16) as usize * 0x1000;
    let shared = base + threads * spec.region_bytes;
    let race_cell = shared + 2 * SHARED_BYTES;
    let race_at = spec.events - spec.events / 200;
    let mut cursor = vec![0usize; threads];
    let mut events = Vec::with_capacity(spec.events + 64);
    let mut expected = Vec::new();
    let mut raced = !spec.racy;

    while events.len() < spec.events {
        if !raced && events.len() >= race_at {
            // Adjacent writes with no release between them: thread a's
            // current clock was never published to any lock, so b cannot
            // be ordered after it.
            let a = rng.below(threads as u64) as u16;
            let b = (a + 1 + rng.below(threads as u64 - 1) as u16) % spec.threads;
            for tid in [a, b] {
                events.push(TraceEvent::Write {
                    tid: ThreadId::new(tid),
                    addr: race_cell,
                    size: 8,
                });
            }
            expected.push(FoundRace {
                kind: FullRaceKind::Waw,
                addr: race_cell,
                current: ThreadId::new(b),
                previous: ThreadId::new(a),
            });
            raced = true;
            continue;
        }
        let t = rng.below(threads as u64) as usize;
        let tid = ThreadId::new(t as u16);
        if rng.below(48) == 0 {
            events.push(TraceEvent::Acquire { tid, lock: LOCK });
            for _ in 0..4 {
                let addr = shared + rng.below(SHARED_BYTES as u64 / 8) as usize * 8;
                events.push(if rng.below(2) == 0 {
                    TraceEvent::Write { tid, addr, size: 8 }
                } else {
                    TraceEvent::Read { tid, addr, size: 8 }
                });
            }
            events.push(TraceEvent::Release { tid, lock: LOCK });
            continue;
        }
        let region = base + t * spec.region_bytes;
        for _ in 0..8 + rng.below(25) {
            let r = rng.next_u64();
            let size = match r % 10 {
                0..=5 => 8,
                6..=8 => 4,
                _ => 1,
            };
            if (r >> 8).is_multiple_of(16) {
                cursor[t] = rng.below(spec.region_bytes as u64) as usize;
            }
            let mut off = cursor[t] & !(size - 1);
            if off + size > spec.region_bytes {
                off = 0;
            }
            cursor[t] = off + size;
            let addr = region + off;
            events.push(if (r >> 16) % 10 < 7 {
                TraceEvent::Read { tid, addr, size }
            } else {
                TraceEvent::Write { tid, addr, size }
            });
        }
    }
    GenTrace {
        events,
        expected,
        threads: spec.threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_trace::digest_events;

    const SPEC: TraceSpec = TraceSpec {
        events: 5000,
        threads: 4,
        region_bytes: 8192,
        racy: true,
    };

    #[test]
    fn same_seed_same_digest_different_seed_differs() {
        let a = gen_trace(11, SPEC);
        let b = gen_trace(11, SPEC);
        let c = gen_trace(12, SPEC);
        assert_eq!(a.events, b.events);
        assert_eq!(digest_events(&a.events), digest_events(&b.events));
        assert_ne!(digest_events(&a.events), digest_events(&c.events));
    }

    #[test]
    fn racy_trace_carries_one_late_pair_and_clean_trace_none() {
        let racy = gen_trace(5, SPEC);
        assert_eq!(racy.expected.len(), 1);
        let cell = racy.expected[0].addr;
        let hits: Vec<usize> = racy
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, TraceEvent::Write { addr, .. } if *addr == cell))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[1], hits[0] + 1);
        assert!(hits[0] >= SPEC.events * 99 / 100);
        let clean = gen_trace(
            5,
            TraceSpec {
                racy: false,
                ..SPEC
            },
        );
        assert!(clean.expected.is_empty());
    }

    #[test]
    fn mix_is_mostly_reads_with_all_three_widths() {
        let t = gen_trace(1, SPEC);
        let (mut reads, mut mem, mut widths) = (0usize, 0usize, [0usize; 9]);
        for e in &t.events {
            match *e {
                TraceEvent::Read { size, .. } => {
                    reads += 1;
                    mem += 1;
                    widths[size] += 1;
                }
                TraceEvent::Write { size, .. } => {
                    mem += 1;
                    widths[size] += 1;
                }
                _ => {}
            }
        }
        let share = reads as f64 / mem as f64;
        assert!((0.6..0.8).contains(&share), "read share {share}");
        assert!(widths[8] > widths[4] && widths[4] > widths[1] && widths[1] > 0);
    }
}
