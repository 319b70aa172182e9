//! # clean-baselines
//!
//! The race detectors CLEAN is evaluated against (Sections 2.3, 6.2.1 and
//! 7 of the paper), implemented from scratch as trace-analysis engines
//! behind one [`TraceDetector`] interface:
//!
//! * [`CleanEngine`] — CLEAN's WAW/RAW-only check (one epoch per byte, one
//!   comparison per access),
//! * [`FastTrack`] — the full precise detector (adaptive read metadata,
//!   O(n) WAR checks after read sharing),
//! * [`VcFullDetector`] — the classic two-vector-clocks-per-location
//!   detector (O(n) everywhere),
//! * [`TsanLike`] — a ThreadSanitizer-style imprecise detector (4 shadow
//!   cells per 8-byte granule; can miss races).
//!
//! All four keep their per-location state in one sparse shadow table of
//! 512-key pages, keyed by byte (by 8-byte granule for TSan-like), and
//! walk an access's bytes by that table's one rule: every byte of an
//! access is checked and updated, the first racy byte is the one
//! reported, an access that wraps the address space checks nothing, and
//! one that ends exactly at its top is checked like any other.
//!
//! The experiments use these to reproduce the paper's qualitative claims:
//! CLEAN performs the fewest comparisons and keeps the smallest, most
//! regular metadata, FastTrack additionally finds WAR races at the cost of
//! read vector clocks, and TSan-style eviction misses races that CLEAN's
//! fixed-layout epochs retain.
//!
//! # Example
//!
//! ```
//! use clean_baselines::*;
//! use clean_core::ThreadId;
//!
//! let trace = vec![
//!     TraceEvent::Read  { tid: ThreadId::new(0), addr: 0, size: 4 },
//!     TraceEvent::Write { tid: ThreadId::new(1), addr: 0, size: 4 },
//! ];
//! // A WAR race: FastTrack reports it, CLEAN deliberately does not.
//! let mut ft = FastTrack::new(2);
//! let mut clean = CleanEngine::new(2);
//! assert_eq!(run_detector(&mut ft, &trace).len(), 1);
//! assert_eq!(run_detector(&mut clean, &trace).len(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod clean_engine;
mod fasttrack;
mod hb;
mod page_table;
mod tsanlike;
mod vcfull;

pub use api::{run_detector, FoundRace, FullRaceKind, LockId, TraceDetector, TraceEvent};
pub use clean_engine::CleanEngine;
pub use fasttrack::FastTrack;
pub use tsanlike::{TsanLike, GRANULE, SHADOW_CELLS};
pub use vcfull::VcFullDetector;
