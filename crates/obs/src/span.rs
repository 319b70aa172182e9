//! Timing spans over the hot pipeline stages.
//!
//! A [`StageSpans`] bundle owns one histogram per [`Stage`]. A serving
//! node builds its bundle once at startup and times every request with
//! it; there is no switch that turns the spans off.
//!
//! ```
//! use clean_obs::{Registry, Stage, StageSpans};
//! let reg = Registry::new();
//! let spans = StageSpans::new(&reg, "serve_stage_micros");
//! {
//!     let _span = spans.start(Stage::Decode);
//!     // ... decode work; drop records elapsed micros ...
//! }
//! assert_eq!(reg.snapshot().hists.len(), Stage::ALL.len());
//! ```

use crate::registry::{Hist, Registry};
use std::time::Instant;

/// The hot pipeline stages a serving node times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame + body decode off the socket.
    Decode,
    /// Digest-based shard/backend selection.
    Shard,
    /// The race-check run itself.
    Check,
    /// Verdict construction and caching.
    Verdict,
    /// Trace insertion into the store.
    StoreInsert,
    /// Fetching a trace from a peer node.
    PeerFetch,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::Shard,
        Stage::Check,
        Stage::Verdict,
        Stage::StoreInsert,
        Stage::PeerFetch,
    ];

    /// The stable label value for this stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Shard => "shard",
            Stage::Check => "check",
            Stage::Verdict => "verdict",
            Stage::StoreInsert => "store_insert",
            Stage::PeerFetch => "peer_fetch",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Shard => 1,
            Stage::Check => 2,
            Stage::Verdict => 3,
            Stage::StoreInsert => 4,
            Stage::PeerFetch => 5,
        }
    }
}

/// Pre-registered per-stage histograms. Construct once and clone
/// freely — handles share cells.
#[derive(Debug, Clone)]
pub struct StageSpans {
    hists: [Hist; 6],
}

impl StageSpans {
    /// Registers one histogram per stage under `metric`, labeled
    /// `stage="<name>"`.
    pub fn new(registry: &Registry, metric: &str) -> Self {
        StageSpans {
            hists: Stage::ALL.map(|s| registry.hist_with(metric, &[("stage", s.name())])),
        }
    }

    /// Starts timing `stage`; the elapsed microseconds are recorded
    /// when the returned [`Span`] drops (or on [`Span::finish`]).
    #[inline]
    pub fn start(&self, stage: Stage) -> Span {
        Span {
            hist: self.hists[stage.index()].clone(),
            started: Instant::now(),
            done: false,
        }
    }

    /// Records an externally measured duration for `stage` — for call
    /// sites that already hold a timing and don't want a guard value.
    #[inline]
    pub fn record_micros(&self, stage: Stage, micros: u64) {
        self.hists[stage.index()].record(micros);
    }
}

/// A live span; records into its stage histogram exactly once, on
/// [`finish`](Span::finish) or drop.
#[derive(Debug)]
pub struct Span {
    hist: Hist,
    started: Instant,
    done: bool,
}

impl Span {
    /// Ends the span now and records the elapsed microseconds.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if !self.done {
            self.done = true;
            self.hist
                .record(self.started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_and_finish_once() {
        let reg = Registry::new();
        let spans = StageSpans::new(&reg, "stage_micros");
        {
            let _s = spans.start(Stage::Decode);
        }
        spans.start(Stage::Decode).finish();
        spans.record_micros(Stage::Check, 50);
        let snap = reg.snapshot();
        assert_eq!(
            snap.hist("stage_micros", &[("stage", "decode")])
                .unwrap()
                .count(),
            2
        );
        let check = snap.hist("stage_micros", &[("stage", "check")]).unwrap();
        assert_eq!(check.count(), 1);
        assert_eq!(check.max_micros(), 50);
        // Unused stages exist (pre-registered) but are empty.
        assert_eq!(
            snap.hist("stage_micros", &[("stage", "peer_fetch")])
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
