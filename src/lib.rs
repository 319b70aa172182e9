//! # clean
//!
//! A from-scratch Rust reproduction of **"CLEAN: A Race Detector with
//! Cleaner Semantics"** (Segulja & Abdelrahman, ISCA 2015).
//!
//! CLEAN precisely detects only write-after-write (WAW) and
//! read-after-write (RAW) data races — raising a *race exception* that
//! stops the execution on the first occurrence — and orders
//! synchronization operations deterministically with the Kendo algorithm.
//! That combination guarantees, for **every** execution:
//!
//! * synchronization-free regions appear to execute in isolation,
//! * their writes appear atomic (no "out of thin air" values),
//! * and exception-free executions are fully deterministic,
//!
//! while skipping the one race class (WAR) whose detection makes full
//! precise detectors expensive.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`]: epochs, vector clocks, shadow memory, the Figure 2 race
//!   check, rollover coordination ([`clean_core`]),
//! * [`plan`]: the CPLN static check-plan format — elide/coalesce
//!   ranges with soundness witnesses — and its compiler ([`clean_plan`]),
//! * [`sync`]: deterministic mutex/barrier/condvar and thread registry
//!   ([`clean_sync`]),
//! * [`runtime`]: the software-only CLEAN runtime — monitored threads,
//!   checked shared heap, race exceptions ([`clean_runtime`]),
//! * [`baselines`]: FastTrack, two-vector-clock and TSan-like detectors
//!   ([`clean_baselines`]),
//! * [`sim`]: the trace-driven multicore simulator with the hardware
//!   check unit ([`clean_sim`]),
//! * [`workloads`]: the 26 SPLASH-2/PARSEC benchmark models
//!   ([`clean_workloads`]),
//! * [`trace`]: the persistent binary trace store with sharded parallel
//!   offline analysis and the `clean-analyze` CLI ([`clean_trace`]),
//! * [`sched`]: the controlled-scheduler VM with exhaustive/PCT schedule
//!   exploration, differential detector checking, schedule tokens,
//!   shrinking, and the `clean-sched` CLI ([`clean_sched`]),
//! * [`serve`]: the concurrent race-analysis service — digest-addressed
//!   trace store, admission-controlled job queue, verdict cache, and the
//!   `clean-serve` daemon/client CLI ([`clean_serve`]).
//!
//! # Quickstart
//!
//! ```
//! use clean::runtime::{CleanRuntime, RuntimeConfig, CleanError};
//!
//! let rt = CleanRuntime::new(RuntimeConfig::new().heap_size(4096).max_threads(4));
//! let x = rt.alloc_array::<u32>(1)?;
//! let result = rt.run(|ctx| {
//!     let child = ctx.spawn(move |c| c.write(&x, 0, 1u32))?;
//!     ctx.write(&x, 0, 2u32)?; // unordered with the child's write
//!     ctx.join(child)??;
//!     Ok(())
//! });
//! // The WAW race raises CLEAN's race exception.
//! assert!(matches!(result, Err(CleanError::Race(_))) || rt.first_race().is_some());
//! # Ok::<(), CleanError>(())
//! ```

#![warn(missing_docs)]

pub use clean_baselines as baselines;
pub use clean_core as core;
pub use clean_plan as plan;
pub use clean_runtime as runtime;
pub use clean_sched as sched;
pub use clean_serve as serve;
pub use clean_sim as sim;
pub use clean_sync as sync;
pub use clean_trace as trace;
pub use clean_workloads as workloads;
