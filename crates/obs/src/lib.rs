//! Unified observability for the CLEAN stack.
//!
//! One crate, four pieces, shared by the serving daemon, the fleet
//! router, and the bench harnesses (the detector and the planner do not
//! link it; their counts live in `clean_core::DetectorStats`):
//!
//! - [`Registry`] — a name-keyed metrics registry handing out lock-free
//!   [`Counter`] / [`Gauge`] / [`Hist`] handles. Registration is
//!   mutex-cold; updates are relaxed atomics that every clone of a
//!   handle shares.
//! - [`StageSpans`] — timing spans over the hot pipeline stages
//!   ([`Stage`]). Every serving node builds them at startup; they are
//!   always on.
//! - [`Journal`] — a bounded ring of notable events (evictions,
//!   failovers, bad frames), exposed as comment lines in the text
//!   exposition.
//! - [`Snapshot`] — plain values rendered to / parsed from the
//!   `CMET v1` text exposition ([`EXPOSITION_HEADER`]), with
//!   [`Snapshot::merge`] and [`Snapshot::with_label`] so a router can
//!   fan out METRICS to its backends and fold the answers under `node`
//!   labels.
//!
//! The canonical log2 latency histogram ([`LogHistogram`]) lives here
//! too, promoted from the soak harness so every layer shares one
//! quantile convention.

#![warn(missing_docs)]

mod hist;
mod journal;
mod registry;
mod snapshot;
mod span;

pub use hist::{LogHistogram, HISTOGRAM_BUCKETS};
pub use journal::{Event, Journal, DEFAULT_JOURNAL_CAP};
pub use registry::{Counter, Gauge, Hist, Registry};
pub use snapshot::{metric_key, sanitize_label, ParseError, Snapshot, EXPOSITION_HEADER};
pub use span::{Span, Stage, StageSpans};
