//! `replay_file`: a seeded CLTR v2 file through
//! `clean-analyze replay --engine clean --stream <file>`, shipped defaults
//! (workers and shards from the host's parallelism). The program is
//! reached only through that CLI, its exit code and what it prints; the
//! file is written with `TraceWriter`.

use crate::gen::{gen_trace, GenTrace, TraceSpec};
use crate::oracle::{self, Key};
use crate::procfs::{self, CliRun};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats;
use crate::{Opts, TempDir};
use clean_trace::TraceWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code of `clean-analyze replay` when it found a race.
const EXIT_RACE: i32 = 10;
/// Kill a replay that runs this long: fifty times the expected second.
const CLI_LIMIT: Duration = Duration::from_secs(60);

/// The file's shape: 2 Mi events keep one replay near a second, so a run
/// fits about ten; 256 KiB of private region per thread puts a million
/// bytes of per-byte epoch state behind the check.
pub const FILE_SPEC: TraceSpec = TraceSpec {
    events: 2 << 20,
    threads: 4,
    region_bytes: 256 << 10,
    racy: true,
};

/// Path of the replay CLI.
pub fn analyze_bin() -> PathBuf {
    procfs::bin_dir().join("clean-analyze")
}

/// Writes `trace` to `path` event by event, as a recorder would.
///
/// # Errors
///
/// I/O failures.
pub fn write_file(path: &Path, trace: &GenTrace) -> Result<(), String> {
    let mut w = TraceWriter::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    for e in &trace.events {
        w.write_event(e).map_err(|e| format!("write event: {e}"))?;
    }
    w.finish().map_err(|e| format!("finish trace: {e}"))?;
    Ok(())
}

/// One replay of `file`; `extra` goes before the path.
///
/// # Errors
///
/// The CLI could not be started.
pub fn replay_cli(file: &Path, extra: &[&str]) -> Result<CliRun, String> {
    let mut args: Vec<String> = ["replay", "--engine", "clean", "--stream"]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect();
    args.push(file.display().to_string());
    procfs::run_cli(&analyze_bin(), &args, CLI_LIMIT)
        .map_err(|e| format!("start {}: {e}", analyze_bin().display()))
}

/// Whether a replay's verdict is exactly `expected`: exit code 10 (or 0
/// for an empty set) and the same race set in the printout.
pub fn verdict_matches(run: &CliRun, expected: &[Key]) -> bool {
    let code = if expected.is_empty() { 0 } else { EXIT_RACE };
    run.code == Some(code)
        && oracle::parse_cli(&run.stdout)
            .is_some_and(|v| v.count == expected.len() && v.races == expected)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = TempDir::new("replay").map_err(|e| format!("temp dir: {e}"))?;
    let file = dir.0.join(format!("seed-{}.cltr", opts.seed));
    let tracer = Arc::new(Tracer::new(opts.trace));
    let mut rec = tracer.recorder();

    // Set-up, five times over for a steady median: generate the events and
    // write the file through `TraceWriter`, the program's recording side.
    // The warm-up replay after it (page cache, binary pages) is a replay
    // like the timed ones, so it stays out of the set-up time.
    let setups = if opts.trace { 1 } else { 5 };
    let mut setup_s = Vec::new();
    let mut trace = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        let t = gen_trace(opts.seed, FILE_SPEC);
        write_file(&file, &t)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        trace = Some(t);
    }
    let trace = trace.expect("at least one set-up");
    let expected = oracle::keys(&trace.expected);
    let events = trace.events.len() as f64;
    let warm = replay_cli(&file, &[])?;
    out.check(verdict_matches(&warm, &expected), || {
        format!("warm-up verdict: code {:?}\n{}", warm.code, warm.stdout)
    });

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut wall_ns: Vec<u64> = Vec::new();
    let mut peak = 0.0f64;
    let mut last = Duration::ZERO;
    while wall_ns.len() < 3 || start.elapsed() + last < budget {
        // A traced run wraps a span around every other replay.
        rec.pause(wall_ns.len().is_multiple_of(2));
        let span = rec.open("trace.replay_cli", 0, wall_ns.len() as u64);
        let run = replay_cli(&file, &[])?;
        rec.close(span);
        last = Duration::from_nanos(run.wall_ns);
        out.check(verdict_matches(&run, &expected), || {
            format!("verdict: code {:?}\n{}", run.code, run.stdout)
        });
        peak = peak.max(run.peak_rss_mb);
        wall_ns.push(run.wall_ns);
    }

    // The oracle's own reference, outside every timer: a sequential CLEAN
    // pass must find exactly the seeded race the CLI was held to.
    rec.pause(false);
    let span = rec.open("baselines.reference_check", 0, u64::MAX);
    let reference = oracle::reference(&trace.events, trace.threads);
    rec.close(span);
    out.check(reference == expected, || {
        format!("reference {reference:?} != seeded {expected:?}")
    });

    let rates: Vec<f64> = wall_ns.iter().map(|&ns| events / ns as f64 * 1e9).collect();
    let parity = |p: usize| -> Vec<f64> { rates.iter().skip(p).step_by(2).copied().collect() };
    let overhead = stats::median(&parity(1)) / stats::median(&parity(0));
    let lat = stats::latency(&mut wall_ns);
    out.note(format!(
        "{} events, {} replays; latency tail at p{:.1} of {} samples",
        events,
        lat.n,
        lat.tail_q * 100.0,
        lat.n
    ));
    out.put("items_per_s", stats::median(&rates));
    out.put("op_p50_us", lat.p50 / 1e3);
    out.put("op_tail_us", lat.tail / 1e3);
    out.put("setup_s", stats::median(&setup_s));
    // The program here is the CLI child; the benchmark process holds the
    // oracle's copy of the events and is not the program's memory.
    out.put("peak_rss_mb", peak);
    if opts.trace {
        drop(rec);
        crate::finish_trace(opts, &tracer, overhead, &mut out)?;
    }
    Ok(out)
}
