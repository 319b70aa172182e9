//! Summary statistics of a stored trace (the `clean-analyze stats`
//! subcommand).

use clean_core::TraceEvent;
use std::collections::BTreeMap;
use std::ops::Range;

/// Cuts a trace into synchronization-free segments: maximal runs of
/// memory events, delimited by sync (acquire/release/fork/join) events.
/// Sync events belong to no segment. Empty segments are not reported.
fn sync_free_segments(events: &[TraceEvent]) -> Vec<Range<usize>> {
    let mut segments = Vec::new();
    let mut start = None;
    for (i, e) in events.iter().enumerate() {
        if e.is_memory() {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            segments.push(s..i);
        }
    }
    if let Some(s) = start {
        segments.push(s..events.len());
    }
    segments
}

/// Aggregate statistics of an event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total events.
    pub events: u64,
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Lock acquires.
    pub acquires: u64,
    /// Lock releases.
    pub releases: u64,
    /// Thread forks.
    pub forks: u64,
    /// Thread joins.
    pub joins: u64,
    /// Bytes read by all read events.
    pub bytes_read: u64,
    /// Bytes written by all write events.
    pub bytes_written: u64,
    /// Events per thread id.
    pub per_thread: BTreeMap<u16, u64>,
    /// Distinct lock ids.
    pub locks: u64,
    /// Memory-access count per access width.
    pub size_histogram: BTreeMap<usize, u64>,
    /// Synchronization-free segments in the stream.
    pub segments: u64,
    /// Length (in memory events) of the longest SFR segment.
    pub longest_segment: u64,
}

impl TraceStats {
    /// Computes statistics over an in-memory event stream.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = TraceStats::default();
        let mut locks = std::collections::BTreeSet::new();
        for e in events {
            s.events += 1;
            *s.per_thread.entry(e.tid().raw()).or_insert(0) += 1;
            match *e {
                TraceEvent::Read { size, .. } => {
                    s.reads += 1;
                    s.bytes_read += size as u64;
                    *s.size_histogram.entry(size).or_insert(0) += 1;
                }
                TraceEvent::Write { size, .. } => {
                    s.writes += 1;
                    s.bytes_written += size as u64;
                    *s.size_histogram.entry(size).or_insert(0) += 1;
                }
                TraceEvent::Acquire { lock, .. } => {
                    s.acquires += 1;
                    locks.insert(lock);
                }
                TraceEvent::Release { lock, .. } => {
                    s.releases += 1;
                    locks.insert(lock);
                }
                TraceEvent::Fork { child, .. } => {
                    s.forks += 1;
                    s.per_thread.entry(child.raw()).or_insert(0);
                }
                TraceEvent::Join { .. } => s.joins += 1,
            }
        }
        s.locks = locks.len() as u64;
        let segments = sync_free_segments(events);
        s.segments = segments.len() as u64;
        s.longest_segment = segments.iter().map(|r| r.len() as u64).max().unwrap_or(0);
        s
    }

    /// Memory events (reads + writes).
    pub fn memory_events(&self) -> u64 {
        self.reads + self.writes
    }

    /// Sync events (everything that is not a memory access).
    pub fn sync_events(&self) -> u64 {
        self.acquires + self.releases + self.forks + self.joins
    }

    /// Renders a human-readable report.
    pub fn render(&self, stream_bytes: Option<u64>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "events            {:>12}", self.events);
        let _ = writeln!(out, "  reads           {:>12}", self.reads);
        let _ = writeln!(out, "  writes          {:>12}", self.writes);
        let _ = writeln!(out, "  acquires        {:>12}", self.acquires);
        let _ = writeln!(out, "  releases        {:>12}", self.releases);
        let _ = writeln!(out, "  forks           {:>12}", self.forks);
        let _ = writeln!(out, "  joins           {:>12}", self.joins);
        let _ = writeln!(out, "bytes read        {:>12}", self.bytes_read);
        let _ = writeln!(out, "bytes written     {:>12}", self.bytes_written);
        let _ = writeln!(out, "threads           {:>12}", self.per_thread.len());
        let _ = writeln!(out, "locks             {:>12}", self.locks);
        let _ = writeln!(out, "SFR segments      {:>12}", self.segments);
        let _ = writeln!(out, "longest segment   {:>12}", self.longest_segment);
        if let Some(bytes) = stream_bytes {
            let _ = writeln!(out, "stream bytes      {:>12}", bytes);
            if self.events > 0 {
                let _ = writeln!(
                    out,
                    "bytes/event       {:>12.2}",
                    bytes as f64 / self.events as f64
                );
            }
        }
        let _ = writeln!(out, "access widths:");
        for (size, count) in &self.size_histogram {
            let _ = writeln!(out, "  {size:>3} B           {count:>12}");
        }
        let _ = writeln!(out, "events by thread:");
        for (tid, count) in &self.per_thread {
            let _ = writeln!(out, "  t{tid:<3}            {count:>12}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_core::ThreadId;

    #[test]
    fn segments_split_on_sync() {
        let t0 = ThreadId::new(0);
        let w = |addr| TraceEvent::Write {
            tid: t0,
            addr,
            size: 4,
        };
        let events = vec![
            w(0),
            w(4),
            TraceEvent::Acquire { tid: t0, lock: 1 },
            w(8),
            TraceEvent::Release { tid: t0, lock: 1 },
        ];
        assert_eq!(sync_free_segments(&events), vec![0..2, 3..4]);
        assert_eq!(sync_free_segments(&[]), Vec::<Range<usize>>::new());
    }

    #[test]
    fn counts_by_kind_and_thread() {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let events = vec![
            TraceEvent::Fork {
                parent: t0,
                child: t1,
            },
            TraceEvent::Write {
                tid: t0,
                addr: 0,
                size: 4,
            },
            TraceEvent::Read {
                tid: t1,
                addr: 0,
                size: 1,
            },
            TraceEvent::Acquire { tid: t1, lock: 3 },
            TraceEvent::Release { tid: t1, lock: 3 },
            TraceEvent::Join {
                parent: t0,
                child: t1,
            },
        ];
        let s = TraceStats::from_events(&events);
        assert_eq!(s.events, 6);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.memory_events(), 2);
        assert_eq!(s.sync_events(), 4);
        assert_eq!(s.locks, 1);
        assert_eq!(s.bytes_written, 4);
        assert_eq!(s.per_thread.len(), 2);
        // The write and read are adjacent: one sync-free segment.
        assert_eq!(s.segments, 1);
        assert_eq!(s.longest_segment, 2);
        assert_eq!(s.size_histogram[&4], 1);
        assert!(s.render(Some(100)).contains("bytes/event"));
    }
}
