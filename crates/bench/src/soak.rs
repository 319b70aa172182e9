//! Building blocks for the `bench_soak` mixed-traffic soak harness.
//!
//! Everything here is in-repo on purpose — the soak run needs a latency
//! histogram, a seedable random stream, a traffic-mix sampler, and a
//! synthetic trace generator, and pulling an external crate in for any
//! of them would couple the SLO gates to code the repo does not
//! control.
//!
//! * [`LogHistogram`] — re-exported from `clean-obs`, where the
//!   original soak histogram now lives as the stack-wide canonical
//!   shape: fixed 64-bucket log2 over microsecond latencies, mergeable
//!   across worker threads, quantiles answered as bucket upper bounds
//!   (so a reported p99 is conservative, never optimistic).
//! * [`SplitMix64`] — the classic 64-bit mixing PRNG; one `u64` of state,
//!   deterministic, good enough to schedule traffic.
//! * [`OpClass`] / [`TrafficMix`] — the five soak operation classes and
//!   a weighted sampler over them.
//! * [`synth_events`] / [`synth_trace`] — seed-addressed synthetic
//!   traces: every distinct seed yields a distinct digest, and the racy
//!   flag decides whether the two threads collide.
//!
//! Seeds come from `CLEAN_TEST_SEED` (see [`env_seed`]) so a failing
//! soak prints a one-line repro that replays the exact same schedule.

use clean_core::{ThreadId, TraceEvent};
use clean_trace::encode_trace;

pub use clean_obs::{LogHistogram, HISTOGRAM_BUCKETS};

/// Reads the soak/test base seed (`CLEAN_TEST_SEED`, else `default`).
pub fn env_seed(default: u64) -> u64 {
    std::env::var("CLEAN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// SplitMix64: Steele, Lea & Flood's statistically solid one-word PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` must be nonzero).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n,
        // irrelevant for traffic scheduling.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The five operation classes a soak worker schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// ANALYZE of an already-stored corpus digest (cache-hot path).
    HotAnalyze,
    /// SUBMIT of a never-seen synthetic trace, then its first ANALYZE.
    ColdSubmit,
    /// Re-SUBMIT of a corpus trace the store already holds.
    DupSubmit,
    /// A deliberately malformed frame: bad magic / version / lying
    /// length / truncated body — the server must answer BAD_FRAME or
    /// hang up, never wedge.
    BadFrame,
    /// A half-written frame header followed by silence: the server's
    /// I/O timeout must reap the connection.
    SlowLoris,
}

impl OpClass {
    /// Every class, in weight order of [`TrafficMix::default`].
    pub const ALL: [OpClass; 5] = [
        OpClass::HotAnalyze,
        OpClass::ColdSubmit,
        OpClass::DupSubmit,
        OpClass::BadFrame,
        OpClass::SlowLoris,
    ];

    /// Stable snake_case label, used in stats output and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::HotAnalyze => "hot_analyze",
            OpClass::ColdSubmit => "cold_submit",
            OpClass::DupSubmit => "dup_submit",
            OpClass::BadFrame => "bad_frame",
            OpClass::SlowLoris => "slow_loris",
        }
    }
}

/// Weighted sampler over [`OpClass::ALL`].
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// Per-class weights, indexed like [`OpClass::ALL`].
    pub weights: [u32; 5],
}

impl Default for TrafficMix {
    /// The soak default: mostly cache-hot reads, a steady trickle of
    /// cold uploads and duplicates, occasional hostile clients.
    fn default() -> Self {
        TrafficMix {
            weights: [60, 20, 12, 6, 2],
        }
    }
}

impl TrafficMix {
    /// Samples one class proportionally to the weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn pick(&self, rng: &mut SplitMix64) -> OpClass {
        let total: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "empty traffic mix");
        let mut roll = rng.below(total);
        for (class, &w) in OpClass::ALL.iter().zip(&self.weights) {
            let w = u64::from(w);
            if roll < w {
                return *class;
            }
            roll -= w;
        }
        unreachable!("roll < total")
    }
}

/// Synthetic two-thread event sequence addressed by `seed`: the seed is
/// folded into the address base, so distinct seeds produce distinct
/// digests. `racy` makes both threads hammer the same four words with
/// no synchronization (guaranteed WAW races); otherwise each thread
/// stays in its own page and the trace is clean.
pub fn synth_events(seed: u64, racy: bool) -> Vec<TraceEvent> {
    // 24 seed bits spread over word-aligned bases keeps addresses well
    // inside usize on every platform while separating seeds by 4 KiB.
    let base = 0x10_0000 + ((seed & 0xff_ffff) as usize) * 0x1000;
    let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
    let mut events = Vec::with_capacity(64);
    for i in 0..32usize {
        let off = 8 * (i % 4);
        if racy {
            // Alternate the writer per *round* of four words — per-event
            // alternation would pin each word to one thread (i % 2 and
            // i % 4 share parity) and race nothing.
            let tid = if (i / 4) % 2 == 0 { t0 } else { t1 };
            events.push(TraceEvent::Write {
                tid,
                addr: base + off,
                size: 8,
            });
        } else {
            events.push(TraceEvent::Write {
                tid: t0,
                addr: base + off,
                size: 8,
            });
            events.push(TraceEvent::Write {
                tid: t1,
                addr: base + 0x800 + off,
                size: 8,
            });
        }
    }
    events
}

/// [`synth_events`] encoded as `CLTR` bytes ready to SUBMIT.
///
/// # Panics
///
/// Panics only if trace encoding itself is broken.
pub fn synth_trace(seed: u64, racy: bool) -> Vec<u8> {
    encode_trace(&synth_events(seed, racy)).expect("encode synthetic trace")
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_trace::{digest_events, EngineKind, Replay};

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        for _ in 0..100 {
            assert!(c.below(10) < 10);
        }
    }

    #[test]
    fn histogram_quantiles_are_conservative_upper_bounds() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_micros(), 1000);
        // p100 is clamped to the observed max, not the bucket top.
        assert_eq!(h.quantile(1.0), 1000);
        // The median sample (3) lives in bucket [2, 3].
        assert_eq!(h.quantile(0.5), 3);
        // Every quantile is >= the true value at that rank.
        assert!(h.quantile(0.8) >= 100);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..50 {
            a.record(v);
        }
        for v in 50..100 {
            b.record(v * 100);
        }
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.max_micros(), 99 * 100);
        assert!(a.quantile(0.99) >= b.quantile(0.5));
    }

    #[test]
    fn traffic_mix_respects_zero_weights() {
        let mix = TrafficMix {
            weights: [0, 0, 1, 0, 0],
        };
        let mut rng = SplitMix64::new(1);
        for _ in 0..50 {
            assert_eq!(mix.pick(&mut rng), OpClass::DupSubmit);
        }
    }

    #[test]
    fn traffic_mix_hits_every_weighted_class() {
        let mix = TrafficMix::default();
        let mut rng = SplitMix64::new(42);
        let mut hit = [false; 5];
        for _ in 0..5000 {
            let class = mix.pick(&mut rng);
            hit[OpClass::ALL.iter().position(|&c| c == class).unwrap()] = true;
        }
        assert_eq!(hit, [true; 5], "5000 draws must hit all five classes");
    }

    #[test]
    fn synth_traces_digest_by_seed_and_race_by_flag() {
        let racy = synth_events(1, true);
        let clean = synth_events(1, false);
        assert_ne!(digest_events(&racy), digest_events(&clean));
        assert_ne!(
            digest_events(&synth_events(1, true)),
            digest_events(&synth_events(2, true)),
            "distinct seeds must yield distinct digests"
        );
        assert_eq!(
            digest_events(&synth_events(3, true)),
            digest_events(&synth_events(3, true)),
            "same seed must be reproducible"
        );
        assert!(!Replay::new(EngineKind::Clean)
            .lanes(2)
            .events(&racy)
            .unwrap()
            .races
            .is_empty());
        assert!(Replay::new(EngineKind::Clean)
            .lanes(2)
            .events(&clean)
            .unwrap()
            .races
            .is_empty());
    }
}
