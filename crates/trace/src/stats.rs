//! Summary statistics of a stored trace (the `clean-analyze stats`
//! subcommand).

use clean_core::TraceEvent;
use std::collections::BTreeMap;

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
    /// Synchronization-free segments in the stream: maximal runs of
    /// memory events, delimited by sync (acquire/release/fork/join)
    /// events. Sync events belong to no segment.
    pub segments: u64,
    /// Length (in memory events) of the longest SFR segment.
    pub longest_segment: u64,
}

impl TraceStats {
    /// Computes statistics in one pass over an event stream, holding
    /// no event after it is counted.
    pub fn from_events(events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut s = TraceStats::default();
        let mut locks = std::collections::BTreeSet::new();
        // Memory events in the open SFR segment.
        let mut run = 0u64;
        for e in events {
            s.events += 1;
            *s.per_thread.entry(e.tid().raw()).or_insert(0) += 1;
            if e.is_memory() {
                run += 1;
            } else {
                s.close_segment(run);
                run = 0;
            }
            match e {
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
        s.close_segment(run);
        s.locks = locks.len() as u64;
        s
    }

    /// Ends an SFR segment of `len` memory events (none if empty).
    fn close_segment(&mut self, len: u64) {
        if len > 0 {
            self.segments += 1;
            self.longest_segment = self.longest_segment.max(len);
        }
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
    use crate::{TraceReader, TraceWriter};
    use clean_core::ThreadId;

    #[test]
    fn segments_split_on_sync() {
        let t0 = ThreadId::new(0);
        let w = |addr| TraceEvent::Write {
            tid: t0,
            addr,
            size: 4,
        };
        let events = [
            TraceEvent::Acquire { tid: t0, lock: 1 },
            w(0),
            w(4),
            TraceEvent::Acquire { tid: t0, lock: 1 },
            w(8),
            TraceEvent::Release { tid: t0, lock: 1 },
            TraceEvent::Release { tid: t0, lock: 1 },
            w(12),
        ];
        let s = TraceStats::from_events(events);
        assert_eq!((s.segments, s.longest_segment), (3, 2));
        let s = TraceStats::from_events(events[..3].iter().copied());
        assert_eq!((s.segments, s.longest_segment), (1, 2));
        let s = TraceStats::from_events([]);
        assert_eq!((s.segments, s.longest_segment), (0, 0));
    }

    #[test]
    fn streamed_stats_match_the_slice_fold_across_chunk_boundaries() {
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let mut events = vec![TraceEvent::Fork {
            parent: t0,
            child: t1,
        }];
        for i in 0..200usize {
            let tid = if i % 3 == 0 { t1 } else { t0 };
            events.push(TraceEvent::Write {
                tid,
                addr: i * 8,
                size: 8,
            });
            if i % 50 == 49 {
                events.push(TraceEvent::Acquire { tid, lock: 2 });
                events.push(TraceEvent::Release { tid, lock: 2 });
            }
        }
        // 16-byte chunks hold a handful of events each, so every
        // 50-write segment spans several chunk boundaries.
        let mut writer = TraceWriter::new(Vec::new()).unwrap().chunk_bytes(16);
        for e in &events {
            writer.write_event(e).unwrap();
        }
        let (summary, bytes) = writer.finish_into().unwrap();
        assert!(summary.chunks > 20, "{} chunks", summary.chunks);
        let streamed = TraceStats::from_events(
            TraceReader::new(bytes.as_slice())
                .unwrap()
                .map(|e| e.unwrap()),
        );
        let folded = TraceStats::from_events(events.iter().copied());
        assert_eq!(streamed, folded);
        assert_eq!((folded.segments, folded.longest_segment), (4, 50));
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
        let s = TraceStats::from_events(events);
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
