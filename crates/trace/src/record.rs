//! Recording helpers: run a workload (live kernel or generated
//! simulator trace) and persist its event stream to disk.

use crate::error::{Result, TraceError};
use crate::writer::{FileSink, WriteSummary};
use clean_runtime::{CleanRuntime, RuntimeConfig};
use clean_workloads::{
    benchmark, export_sim_trace, generate_trace, run_benchmark, KernelParams, TraceGenConfig,
};
use std::path::Path;
use std::sync::Arc;

/// Options of [`record_kernel_trace`].
#[derive(Debug, Clone, Copy)]
pub struct RecordOptions {
    /// Worker threads for the kernel run.
    pub threads: usize,
    /// Run the unmodified ("racy") benchmark version.
    pub racy: bool,
    /// Kernel RNG seed.
    pub seed: u64,
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            threads: 4,
            racy: false,
            seed: 1,
        }
    }
}

/// Runs workload `name` under the CLEAN runtime with a streaming file
/// sink attached and returns the stream summary.
///
/// Detection is disabled so racy executions run to completion (the
/// offline engines want the whole interleaving, not the prefix up to
/// the first race exception); deterministic synchronization stays on so
/// recorded traces are reproducible.
pub fn record_kernel_trace(
    name: &str,
    path: impl AsRef<Path>,
    opts: &RecordOptions,
) -> Result<WriteSummary> {
    let profile = benchmark(name).ok_or_else(|| {
        TraceError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unknown benchmark {name:?}"),
        ))
    })?;
    let sink = Arc::new(FileSink::create(path)?);
    let rt = CleanRuntime::with_trace_sink(
        RuntimeConfig::new()
            .detection(false)
            .heap_size(1 << 22)
            .max_threads((opts.threads + 4).max(8)),
        Box::new(Arc::clone(&sink)),
    );
    let params = KernelParams::new()
        .threads(opts.threads)
        .racy(opts.racy)
        .seed(opts.seed);
    run_benchmark(profile, &rt, &params)
        .map_err(|e| TraceError::Io(std::io::Error::other(format!("kernel failed: {e}"))))?;
    drop(rt);
    Ok(sink.finish()?)
}

/// Generates the simulator trace for profile `name`, flattens it to a
/// serialized event stream, and writes it to `path`.
pub fn record_sim_trace(
    name: &str,
    path: impl AsRef<Path>,
    cfg: &TraceGenConfig,
) -> Result<WriteSummary> {
    let profile = benchmark(name).ok_or_else(|| {
        TraceError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unknown benchmark {name:?}"),
        ))
    })?;
    let events = export_sim_trace(&generate_trace(profile, cfg));
    crate::writer::write_trace(path, &events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_trace;
    use crate::stats::TraceStats;

    #[test]
    fn kernel_recording_roundtrips() {
        let dir = std::env::temp_dir().join("clean-trace-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamcluster.cltr");
        let summary = record_kernel_trace(
            "streamcluster",
            &path,
            &RecordOptions {
                threads: 2,
                racy: false,
                seed: 3,
            },
        )
        .unwrap();
        assert!(summary.events > 0);
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len() as u64, summary.events);
        let stats = TraceStats::from_events(events.iter().copied());
        assert!(stats.memory_events() > 0 && stats.sync_events() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_recording_roundtrips_compactly() {
        let dir = std::env::temp_dir().join("clean-trace-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("barnes-sim.cltr");
        let cfg = TraceGenConfig {
            threads: 4,
            accesses_per_thread: 500,
            seed: 9,
        };
        let summary = record_sim_trace("barnes", &path, &cfg).unwrap();
        assert!(summary.events > 0);
        assert!(
            summary.bytes_per_event() <= 8.0,
            "too large: {} B/event",
            summary.bytes_per_event()
        );
        let events = read_trace(&path).unwrap();
        assert_eq!(events.len() as u64, summary.events);
        std::fs::remove_file(&path).ok();
    }
}
