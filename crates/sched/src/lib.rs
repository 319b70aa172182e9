//! # clean-sched
//!
//! Controlled-scheduler model checking for CLEAN: a loom/CHESS-style
//! virtual machine that runs small concurrent programs under a
//! virtualized thread API where **every** instrumented operation is a
//! yield point, plus exploration drivers that enumerate or sample the
//! schedule space and check CLEAN's guarantees on every interleaving.
//!
//! The paper's claims are *for-all-schedules* claims: CLEAN flags a WAW
//! or RAW race on the first racy access of every execution, misses only
//! WAR, and (with deterministic synchronization) makes exception-free
//! executions deterministic. A single OS-scheduled run cannot test such a
//! claim; enumerating the schedule space can. The pieces:
//!
//! * [`vm`] — the token-serialized VM ([`vm::VCtx`], [`vm::run_schedule`])
//!   with the online [`clean_core::CleanDetector`], runtime-identical
//!   vector-clock bookkeeping, trace recording, and a live
//!   [`clean_sync::Kendo`] table observable through
//!   [`clean_sync::SchedHook`];
//! * [`picker`] — scheduling policies: DFS, PCT, replay, Kendo-driven;
//! * [`token`] — the portable `v1:0.1.0.2` schedule token;
//! * [`explore`] — bounded-exhaustive DFS with a persistable, resumable
//!   frontier, and seeded PCT sweeps, both differentially checked;
//! * [`differential`] — online CLEAN vs offline CLEAN/FastTrack/VcFull
//!   agreement on every explored trace;
//! * [`shrink`](mod@shrink) — reduction of failing schedules to minimal repro tokens;
//! * [`programs`] — the built-in corpus, including the seeded
//!   `racy_probe` kernel of the acceptance criteria.
//!
//! # Quick example
//!
//! ```
//! use clean_sched::explore::{explore_dfs, DfsExplorer, ExploreOpts};
//! use clean_sched::programs;
//!
//! let spec = programs::find("racy_probe").unwrap();
//! let mut frontier = DfsExplorer::new();
//! let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
//! assert!(report.complete, "small kernel: DFS exhausts the space");
//! assert!(report.ok(), "{:?}", report.failures);
//! // CLEAN flags the seeded WAW/RAW on every single schedule...
//! assert_eq!(report.clean_race_schedules, report.schedules);
//! // ...and the cell-1 WAR shows up as missed-by-CLEAN-only on the
//! // read-before-write schedules.
//! assert!(report.war_miss_schedules > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod differential;
pub mod explore;
pub mod picker;
pub mod programs;
pub mod shrink;
pub mod token;
pub mod vm;

pub use explore::{explore_dfs, explore_pct, DfsExplorer, ExploreOpts, ExploreReport};
pub use picker::{DefaultPicker, DetPicker, DfsPicker, PctPicker, Picker, ReplayPicker, SchedView};
pub use programs::{Expect, ProgramSpec};
pub use shrink::{shrink, Repro, Shrunk};
pub use token::{Schedule, TokenParseError};
pub use vm::{run_schedule, Execution, OpKind, ProgramFn, Stop, VCtx, VmConfig, VmResult};
