//! # clean-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! CLEAN paper's evaluation (Section 6). Each experiment is a binary:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Sec. 6.2.2 detection & determinism | `sec622_detection` |
//! | Figure 6 software-only CLEAN slowdown | `fig6_software_overhead` |
//! | Figure 7 shared-access frequency | `fig7_shared_access_freq` |
//! | Figure 8 vectorization impact | `fig8_vectorization` |
//! | Table 1 clock rollover | `table1_rollover` |
//! | Figure 9 hardware detection slowdown | `fig9_hw_overhead` |
//! | Figure 10 access breakdown | `fig10_access_breakdown` |
//! | Figure 11 epoch-size designs | `fig11_epoch_size` |
//!
//! Environment knobs (the host here is much smaller than the paper's
//! dual-socket Xeon): `CLEAN_THREADS` (default 4), `CLEAN_SCALE`
//! (`native`/`simlarge`/`simsmall`, default `simsmall`), `CLEAN_REPS`
//! (timed repetitions, default 2), `CLEAN_RUNS` (Sec 6.2.2 repetitions,
//! default 10; the paper uses 100), `CLEAN_SIM_ACCESSES` (simulated
//! shared accesses per thread, default 12000), `CLEAN_TRACE_DIR` (the
//! persistent trace store experiments record into and replay from,
//! default `target/traces`).

#![warn(missing_docs)]

pub mod soak;

use clean_core::TraceEvent;
use clean_trace::{read_trace, record_kernel_trace, RecordOptions};
use clean_workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reads the worker-thread count (`CLEAN_THREADS`, default 4).
pub fn env_threads() -> usize {
    std::env::var("CLEAN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Reads the input scale (`CLEAN_SCALE`, default simsmall).
pub fn env_scale() -> Scale {
    match std::env::var("CLEAN_SCALE").as_deref() {
        Ok("native") => Scale::Native,
        Ok("simlarge") => Scale::SimLarge,
        _ => Scale::SimSmall,
    }
}

/// Reads the timed-repetition count (`CLEAN_REPS`, default 2).
pub fn env_reps() -> usize {
    std::env::var("CLEAN_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1)
}

/// Reads the Sec 6.2.2 run count (`CLEAN_RUNS`, default 10).
pub fn env_runs() -> usize {
    std::env::var("CLEAN_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
        .max(1)
}

/// Reads the per-thread simulated access count (`CLEAN_SIM_ACCESSES`,
/// default 40000 — large enough that metadata working sets stress the
/// simulated caches like the paper's simsmall inputs do).
pub fn env_sim_accesses() -> u64 {
    std::env::var("CLEAN_SIM_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000)
}

/// The persistent trace store directory (`CLEAN_TRACE_DIR`, default
/// `target/traces` under the workspace root, regardless of the working
/// directory cargo hands test and bench binaries).
pub fn trace_dir() -> PathBuf {
    std::env::var_os("CLEAN_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/traces"))
}

/// Returns the stored execution trace of workload `name`, recording it
/// into the trace store on first use and replaying the stored file on
/// every later run — experiments re-analyze one fixed interleaving
/// instead of regenerating it. A missing or unreadable (truncated,
/// corrupted) store entry is transparently re-recorded.
///
/// # Panics
///
/// Panics if the workload is unknown or the store is not writable.
pub fn cached_kernel_trace(name: &str, opts: &RecordOptions) -> Vec<TraceEvent> {
    cached_kernel_trace_in(&trace_dir(), name, opts)
}

/// [`cached_kernel_trace`] against an explicit store directory.
///
/// # Panics
///
/// Panics if the workload is unknown or the store is not writable.
pub fn cached_kernel_trace_in(dir: &Path, name: &str, opts: &RecordOptions) -> Vec<TraceEvent> {
    let racy = if opts.racy { "-racy" } else { "" };
    let path = dir.join(format!(
        "{name}-t{}-s{}{racy}.cltr",
        opts.threads, opts.seed
    ));
    if let Ok(events) = read_trace(&path) {
        return events;
    }
    std::fs::create_dir_all(dir).expect("create trace store directory");
    record_kernel_trace(name, &path, opts).expect("record workload trace");
    read_trace(&path).expect("read back freshly recorded trace")
}

/// Times `f` over `reps` repetitions and returns the minimum duration and
/// the last result.
pub fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(reps >= 1);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A fixed-width text table writer for the experiment binaries.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", c, w = widths[0]));
                } else {
                    out.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a slowdown factor like the paper ("7.8x").
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_trace_records_once_and_replays() {
        let dir = std::env::temp_dir().join(format!("clean-bench-store-{}", std::process::id()));
        // Pid reuse can resurrect a stale dir from a killed run; start
        // from a known-empty store or the entry counts below lie.
        std::fs::remove_dir_all(&dir).ok();
        // A race-free kernel, so the healed re-recording below repeats the
        // first: CLEAN promises determinism only for exception-free runs.
        let opts = RecordOptions {
            threads: 2,
            racy: false,
            seed: 5,
        };
        let first = cached_kernel_trace_in(&dir, "dedup", &opts);
        assert!(!first.is_empty());
        let stored = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(stored, 1);
        // Second call must replay the stored file, not re-record.
        let again = cached_kernel_trace_in(&dir, "dedup", &opts);
        assert_eq!(first, again);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A corrupted store entry is re-recorded transparently.
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        std::fs::write(entry.path(), b"CLTR\x01garbage").unwrap();
        // Each thread's events repeat exactly; how the threads' concurrent
        // SFRs interleave in the file is physical timing, so compare the
        // per-thread projections (a stable sort keeps each thread's order).
        let healed = cached_kernel_trace_in(&dir, "dedup", &opts);
        let per_thread = |events: &[TraceEvent]| {
            let mut v = events.to_vec();
            v.sort_by_key(|e| e.tid().raw());
            v
        };
        assert_eq!(per_thread(&first), per_thread(&healed));
        // Deterministic synchronization fixes the order in which threads
        // hand each mutex to one another, so every mutex's event sequence
        // across threads repeats too. A barrier's pseudo-lock opens with
        // its arrivals' releases, which race physically: skip it.
        let per_mutex = |events: &[TraceEvent]| {
            let mut locks: std::collections::BTreeMap<u32, Vec<TraceEvent>> = Default::default();
            for e in events {
                if let TraceEvent::Acquire { lock, .. } | TraceEvent::Release { lock, .. } = *e {
                    locks.entry(lock).or_default().push(*e);
                }
            }
            locks.retain(|_, seq| matches!(seq[0], TraceEvent::Acquire { .. }));
            locks
        };
        let mutexes = per_mutex(&first);
        assert!(!mutexes.is_empty(), "dedup's queues hand off mutexes");
        assert_eq!(mutexes, per_mutex(&healed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn measure_returns_result() {
        let (d, v) = measure(3, || 42);
        assert_eq!(v, 42);
        assert!(d <= Duration::from_secs(1));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["bench", "slowdown"]);
        t.row(vec!["lu_cb".into(), "22.00x".into()]);
        t.row(vec!["blackscholes".into(), "1.50x".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("lu_cb"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic]
    fn table_rejects_mismatched_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_x(7.8), "7.80x");
        assert_eq!(fmt_pct(0.104), "10.4%");
    }
}
