//! Benchmark-side spans around the calls the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent, request id). Each recording thread
//! owns a [`Recorder`] with a plain `Vec`, so an open/close pair costs two
//! clock reads and a push; recorders hand their spans to the shared
//! [`Tracer`] when dropped. With tracing off, or while paused, a recorder
//! hands out inert tokens and never reads the clock: the end-to-end runs
//! never trace, and a traced run pauses on alternate stretches so traced and
//! untraced work interleave closely enough to compare.
//! Spans inside the program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (nonzero).
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Spans of one request or one repetition share this.
    pub request: u64,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

/// Collects the spans of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    recorders: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; close it with [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: u64,
}

impl Open {
    /// The id children name as their parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A thread's private span buffer.
#[derive(Debug)]
pub struct Recorder {
    tracer: Arc<Tracer>,
    /// Recorder number in the high bits, span count in the low bits.
    next_id: u64,
    buf: Vec<Span>,
    paused: bool,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every recorder inert.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            recorders: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for the calling thread.
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        let n = self.recorders.fetch_add(1, Ordering::Relaxed);
        Recorder {
            tracer: Arc::clone(self),
            next_id: ((n + 1) << 40) + 1,
            buf: Vec::new(),
            paused: false,
        }
    }

    /// Every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("no recorder panics"));
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

impl Recorder {
    /// Stops (or resumes) recording: spans opened while paused are inert.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Opens a span under `parent` (0 for a root).
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.tracer.enabled || self.paused {
            return Open {
                id: 0,
                parent: 0,
                name,
                request,
                start: 0,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            request,
            start: self.tracer.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Closes `open` now.
    #[inline]
    pub fn close(&mut self, open: Open) {
        if open.id == 0 {
            return;
        }
        self.buf.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start: open.start,
            end: self.tracer.origin.elapsed().as_nanos() as u64,
        });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.buf);
        }
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total: u64,
    /// Summed self time, ns.
    pub self_time: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        out.insert(s.id, (s.end - s.start).saturating_sub(covered));
    }
    out
}

/// Groups spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.end - s.start;
        t.self_time += selfs[&s.id];
    }
    out
}

/// At most this many raw spans go into a trace file; the totals always
/// cover every span.
pub const MAX_SPANS_WRITTEN: usize = 20_000;

/// Renders the trace file: totals by name, then the first spans.
pub fn render_json(workload: &str, seed: u64, host_json: &str, spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"host\":{host_json},\
         \"span_count\":{},\"totals\":[",
        spans.len()
    );
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total, t.self_time
        );
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.parent, sp.name, sp.request, sp.start, sp.end
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2 on 30..40
            span(4, 1, 90, 130), // sticks out past the parent
            span(5, 2, 10, 20),  // grandchild: only reduces span 2
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - (30 + 20 + 10));
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 10);
    }

    #[test]
    fn disabled_tracer_and_paused_recorder_record_nothing() {
        let t = Arc::new(Tracer::new(false));
        {
            let mut r = t.recorder();
            let o = r.open("a.b", 0, 1);
            assert_eq!(o.id(), 0);
            r.close(o);
        }
        assert!(t.take().is_empty());
        let t = Arc::new(Tracer::new(true));
        {
            let mut r = t.recorder();
            r.pause(true);
            let o = r.open("a.b", 0, 1);
            r.close(o);
            r.pause(false);
            let o = r.open("a.c", 0, 1);
            r.close(o);
        }
        assert_eq!(t.take().iter().map(|s| s.name).collect::<Vec<_>>(), ["a.c"]);
    }

    #[test]
    fn recorders_merge_with_unique_ids_and_parents() {
        let t = Arc::new(Tracer::new(true));
        std::thread::scope(|s| {
            for lane in 0..2 {
                let t = &t;
                s.spawn(move || {
                    let mut r = t.recorder();
                    let root = r.open("a.root", 0, lane);
                    let kid = r.open("a.kid", root.id(), lane);
                    r.close(kid);
                    r.close(root);
                });
            }
        });
        let spans = t.take();
        assert_eq!(spans.len(), 4);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for kid in spans.iter().filter(|s| s.name == "a.kid") {
            let root = spans.iter().find(|s| s.id == kid.parent).unwrap();
            assert_eq!(root.request, kid.request);
            assert!(root.start <= kid.start && kid.end <= root.end);
        }
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a.root"].count, 2);
        assert!(render_json("w", 1, "{}", &spans).contains("\"span_count\":4"));
    }
}
