//! Common interface for the baseline detectors CLEAN is compared against
//! (Sections 2.3 and 7): a detector is an analysis engine that consumes a
//! serialized event stream — the standard model for comparing detection
//! algorithms' precision and per-access cost. The event type itself lives
//! in `clean-core` ([`TraceEvent`]) so the CLEAN runtime can record live
//! executions in the same format.

use clean_core::ThreadId;
use core::fmt;

pub use clean_core::{LockId, TraceEvent};

/// The race class reported by a baseline detector. Unlike
/// [`clean_core::RaceKind`], this includes WAR — full detectors find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FullRaceKind {
    /// Write-after-write.
    Waw,
    /// Read-after-write.
    Raw,
    /// Write-after-read — the class CLEAN deliberately does not detect.
    War,
}

impl fmt::Display for FullRaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FullRaceKind::Waw => "WAW",
            FullRaceKind::Raw => "RAW",
            FullRaceKind::War => "WAR",
        })
    }
}

/// A race reported by a baseline detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoundRace {
    /// The race class.
    pub kind: FullRaceKind,
    /// First racy byte address.
    pub addr: usize,
    /// Thread performing the current access.
    pub current: ThreadId,
    /// Thread that performed the earlier, conflicting access.
    pub previous: ThreadId,
}

/// A race-detection analysis engine consuming a serialized trace.
///
/// Engines keep reporting after the first race (they do not stop the
/// "execution"); the experiments compare the *sets* of races found.
pub trait TraceDetector {
    /// Human-readable detector name.
    fn name(&self) -> &'static str;

    /// Processes one event; returns the races this event completes.
    fn process(&mut self, event: &TraceEvent) -> Vec<FoundRace>;

    /// Clears all analysis state.
    fn reset(&mut self);

    /// Approximate resident metadata size in bytes (for the memory
    /// overhead comparisons of Section 4.6).
    fn metadata_bytes(&self) -> usize;
}

/// Runs a detector over a whole trace, collecting every reported race.
pub fn run_detector<D: TraceDetector + ?Sized>(
    detector: &mut D,
    trace: &[TraceEvent],
) -> Vec<FoundRace> {
    let mut races = Vec::new();
    for e in trace {
        races.extend(detector.process(e));
    }
    races
}

/// Accesses for the engines' unit tests: `read`/`write` cover one byte,
/// `read_n`/`write_n` `size` bytes.
#[cfg(test)]
pub(crate) mod test_events {
    use super::TraceEvent;
    use clean_core::ThreadId;

    pub(crate) fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    pub(crate) fn read_n(tid: u16, addr: usize, size: usize) -> TraceEvent {
        let tid = t(tid);
        TraceEvent::Read { tid, addr, size }
    }

    pub(crate) fn write_n(tid: u16, addr: usize, size: usize) -> TraceEvent {
        let tid = t(tid);
        TraceEvent::Write { tid, addr, size }
    }

    pub(crate) fn read(tid: u16, addr: usize) -> TraceEvent {
        read_n(tid, addr, 1)
    }

    pub(crate) fn write(tid: u16, addr: usize) -> TraceEvent {
        write_n(tid, addr, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_kind_display() {
        assert_eq!(FullRaceKind::Waw.to_string(), "WAW");
        assert_eq!(FullRaceKind::Raw.to_string(), "RAW");
        assert_eq!(FullRaceKind::War.to_string(), "WAR");
    }
}
