//! A bounded ring-buffer journal of notable events.
//!
//! The journal keeps the last N events (evictions, failovers, bad
//! frames, damaged traces, load sheds) with a monotonic sequence
//! number, for post-mortem inspection through the METRICS exposition —
//! events render as `# event <seq> <kind> <detail>` comment lines, so
//! a parser merging expositions skips them for free.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default journal capacity.
pub const DEFAULT_JOURNAL_CAP: usize = 256;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Stable event kind, e.g. `eviction`, `failover`, `bad_frame`.
    pub kind: &'static str,
    /// Free-form detail; newlines are replaced with spaces on render.
    pub detail: String,
}

/// The bounded event journal. Recording takes a short mutex — events
/// are rare (evictions, failovers) so this is nowhere near a hot path.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    events: VecDeque<Event>,
    cap: usize,
    next_seq: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAP)
    }
}

impl Journal {
    /// A journal holding the last `cap` events (clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        Journal {
            inner: Mutex::new(JournalInner {
                events: VecDeque::new(),
                cap: cap.max(1),
                next_seq: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, kind: &'static str, detail: String) {
        let mut inner = self.inner.lock().expect("journal lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == inner.cap {
            inner.events.pop_front();
        }
        inner.events.push_back(Event { seq, kind, detail });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("journal lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Total events ever recorded (retained or evicted).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("journal lock").next_seq
    }

    /// Renders the retained events as exposition comment bodies:
    /// `event <seq> <kind> <detail>` (the `# ` prefix is added by
    /// [`Snapshot::render`](crate::Snapshot::render)).
    pub fn render(&self) -> Vec<String> {
        self.events()
            .iter()
            .map(|e| {
                format!(
                    "event {} {} {}",
                    e.seq,
                    e.kind,
                    e.detail.replace(['\n', '\r'], " ")
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let j = Journal::new(3);
        for i in 0..5 {
            j.record("eviction", format!("digest={i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert_eq!(j.recorded(), 5);
        let lines = j.render();
        assert_eq!(lines[0], "event 2 eviction digest=2");
    }

    #[test]
    fn render_flattens_newlines() {
        let j = Journal::new(4);
        j.record("bad_frame", "line1\nline2".to_string());
        assert_eq!(j.render()[0], "event 0 bad_frame line1 line2");
    }
}
