//! # clean-core
//!
//! The core of **CLEAN** — *"CLEAN: A Race Detector with Cleaner
//! Semantics"* (Segulja & Abdelrahman, ISCA 2015) — a precise detector for
//! write-after-write (WAW) and read-after-write (RAW) data races.
//!
//! CLEAN's insight is that stopping an execution only on WAW and RAW races
//! suffices to guarantee that synchronization-free regions (SFRs) appear to
//! execute in isolation and that their writes appear atomic, for *all*
//! executions — racy or not. Combined with deterministic synchronization
//! (see the `clean-sync` crate), exception-free executions are also
//! deterministic. The race type CLEAN deliberately does not detect — WAR —
//! is exactly the one that makes full precise detection (FastTrack)
//! expensive, because it requires read vector clocks.
//!
//! This crate provides the building blocks:
//!
//! * [`Epoch`] / [`EpochLayout`]: the packed (thread id, clock) word stored
//!   per shared byte (Sections 2.3, 4.1, 4.5),
//! * [`VectorClock`]: epoch-valued vector clocks (Section 4.1),
//! * [`ShadowMemory`]: the fixed-layout, lazily-allocated epoch table with
//!   O(1) deterministic reset (Sections 4.2, 4.5),
//! * [`CleanDetector`]: the Figure 2 race check with CAS-based lock-free
//!   atomicity and the multi-byte vectorization (Sections 4.3, 4.4),
//! * [`RolloverCoordinator`]: globally deterministic metadata resets
//!   (Section 4.5),
//! * [`RaceReport`] / [`RaceKind`]: the precise race exception payload.
//!
//! # Quick example
//!
//! ```
//! use clean_core::{CleanDetector, DetectorConfig, ThreadId, VectorClock};
//!
//! let det = CleanDetector::new(4096, DetectorConfig::new());
//! let layout = det.layout();
//! let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
//! let mut vc0 = VectorClock::new(2, layout);
//! let mut vc1 = VectorClock::new(2, layout);
//!
//! // Thread 0 writes x after a sync operation.
//! vc0.increment(t0)?;
//! det.check_write(&vc0, t0, 0x80, 4)?;
//!
//! // Thread 1 reads x without synchronizing: a RAW race exception.
//! assert!(det.check_read(&vc1, t1, 0x80, 4).is_err());
//!
//! // Had thread 1 acquired a lock released by thread 0 (joining its
//! // vector clock), the read would be ordered and race-free:
//! vc1.join(&vc0);
//! det.check_read(&vc1, t1, 0x80, 4)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod detector;
mod epoch;
mod filter;
mod report;
mod rollover;
mod shadow;
mod stats;
mod trace_event;

pub use clock::{ClockRolloverError, VectorClock};
pub use detector::{AtomicityMode, CleanDetector, DetectorConfig};
pub use epoch::{Epoch, EpochLayout, ThreadId};
pub use filter::{PendingStats, SfrWriteFilter, ThreadCheckState, FILTER_SLOTS, RANGE_SLOTS};
pub use report::{AccessKind, RaceKind, RaceReport};
pub use rollover::RolloverCoordinator;
pub use shadow::{ShadowMemory, ShadowStats, PAGE_EPOCHS};
pub use stats::{DetectorStats, StatsShard, StatsSnapshot, DEFAULT_STATS_SHARDS};
pub use trace_event::{EventSink, LockId, TraceEvent};

// The static check-plan subsystem lives in its own leaf crate
// (`clean-plan`); re-export the detector-facing types so consumers can
// build and install plans without a separate dependency.
pub use clean_plan::{
    CheckPlan, CompiledPlan, Coverage, PlanAction, PlanDecision, PlanEntry, PlanError,
    PlanObserver, PlanProfile, Witness,
};
