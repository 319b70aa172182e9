//! `clean-benchmark` — the repository's benchmark.
//!
//! ```text
//! clean-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! clean-benchmark all    [--seed <n>] [--seconds <s>]
//! clean-benchmark repeat [--seed <n>] [--seconds <s>]
//! clean-benchmark spread [--seed <n>] [--seconds <s>]
//! clean-benchmark manifest
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: one workload,
//! one run, the result as the last line of stdout. `all` runs every
//! workload untraced and traced and prints every metric by name and unit;
//! `repeat` is the calibration record (two same-seed runs and a held-out
//! seed, gaps against the bounds); `spread` runs each workload on several
//! seeds and prints each metric's interquartile spread beside its bound;
//! `manifest` prints `BENCHMARK.json`.
//! Run it through `benchmark/run.sh`, which builds the program first.

mod cmet;
mod gen;
mod online;
mod oracle;
mod probes;
mod procfs;
mod repeat;
mod replay;
mod report;
mod rng;
mod serve;
mod span;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// Default `--seed` of `all` and `repeat`.
const DEFAULT_SEED: u64 = 20150613;
/// Wall-clock cap on one run beyond its measuring time; a workload still
/// going then is killed and counted failed. The contract allows 180 s.
const GRACE: Duration = Duration::from_secs(110);

/// Options of one run of one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Every generated input derives from this.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and emit the per-layer metrics.
    pub trace: bool,
}

/// Where trace files and per-run temporary stores go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    let home = std::env::var_os("CLEAN_BENCH_HOME")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    home.join("out")
}

/// A fresh directory under [`out_dir`], removed when dropped.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `out/tmp-<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `host` block every result carries, as a JSON object.
pub fn host_json() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{},\"threads\":2,\"profile\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("CLEAN_BENCH_RUSTC").replace(['"', '\\'], ""),
        env("CLEAN_BENCH_COMMIT").replace(['"', '\\'], ""),
    )
}

/// Ends a traced main loop: writes `out/trace-<workload>.json`, notes
/// where the self time went, and records the two `bench.*` metrics.
/// `overhead_ratio` is the traced over the untraced value of the
/// workload's headline rate, both measured inside this one run.
///
/// # Errors
///
/// The trace file cannot be written.
pub fn finish_trace(
    opts: &Opts,
    tracer: &span::Tracer,
    overhead_ratio: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = tracer.take();
    let path = out_dir().join(format!("trace-{}.json", opts.workload));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| {
            let json = span::render_json(&opts.workload, opts.seed, &host_json(), &spans);
            std::fs::write(&path, json)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!("{} spans -> {}", spans.len(), path.display()));
    for (name, t) in span::totals_by_name(&spans) {
        out.note(format!(
            "span {name:<24} n={:<8} total={:>10.3} ms  self={:>10.3} ms",
            t.count,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6
        ));
    }
    // Noted, not counted as a failure: the ratio is of two timings a few
    // milliseconds apart on a host whose speed wanders, and says nothing
    // about whether the program answered right.
    out.note(format!(
        "trace overhead: bench.trace_overhead_ratio = {overhead_ratio:.4} (want 0.95..1.05) {}",
        if (0.95..=1.05).contains(&overhead_ratio) {
            "ok"
        } else {
            "OUTSIDE"
        }
    ));
    out.put("bench.trace_overhead_ratio", overhead_ratio);
    out.put("bench.spans", spans.len() as f64);
    Ok(())
}

fn dispatch(opts: &Opts) -> Result<Outcome, String> {
    let mut out = match opts.workload.as_str() {
        "online_local" => online::run(online::Kind::Local, opts),
        "online_stream" => online::run(online::Kind::Stream, opts),
        "online_handoff" => online::run(online::Kind::Handoff, opts),
        "replay_file" => replay::run(opts),
        "serve_hot" => serve::run(serve::Mix::Hot, opts),
        "serve_mixed" => serve::run(serve::Mix::Mixed, opts),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if opts.trace {
        probes::run_all(opts.seed, &mut out)?;
    }
    Ok(out)
}

/// Runs one workload under the watchdog. A run that outlives its measuring
/// time by [`GRACE`] has its children killed and comes back as an error.
pub fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    let (tx, rx) = mpsc::channel();
    let o = opts.clone();
    let worker = std::thread::Builder::new()
        .name(format!("wl-{}", opts.workload))
        .spawn(move || {
            let _ = tx.send(dispatch(&o));
        })
        .map_err(|e| format!("spawn workload thread: {e}"))?;
    let limit = Duration::from_secs_f64(opts.seconds) + GRACE;
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = worker.join();
            result
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            procfs::kill_all();
            Err(format!(
                "{} exceeded its {limit:?} limit; children killed, run counted failed",
                opts.workload
            ))
        }
        // The workload thread panicked; its guards already killed children.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            procfs::kill_all();
            Err(format!("{} panicked", opts.workload))
        }
    }
}

/// Runs one workload in a fresh process — this binary again, with the
/// contract's arguments — and reads its result line back. `all`, `repeat`
/// and `spread` measure this way, as the acceptance harness does: a
/// process's peak resident set is a high-water mark, so runs sharing one
/// process would report each other's memory.
///
/// # Errors
///
/// The child could not be started or printed no result line.
pub fn run_fresh(opts: &Opts) -> Result<(report::Parsed, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start a fresh run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let parsed = stdout
        .lines()
        .last()
        .and_then(report::parse_result)
        .ok_or_else(|| {
            format!(
                "{} printed no result (exit {:?})",
                opts.workload,
                output.status.code()
            )
        })?;
    Ok((parsed, stdout))
}

/// The metrics a run of this kind reports.
fn table(trace: bool) -> &'static [report::MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn print_outcome(opts: &Opts, out: &Outcome) {
    println!(
        "== {} seed={} seconds={} trace={} host={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_json()
    );
    for line in &out.notes {
        println!("   {line}");
    }
    for m in table(opts.trace) {
        if let Some(v) = out.get(m.name) {
            println!("   {:<42} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!(
        "   error_rate {} failed / {} attempted",
        out.failed, out.attempted
    );
}

/// Prints the outcome and, last, the contract's result line.
fn finish(opts: &Opts, result: Result<Outcome, String>) -> ExitCode {
    match result.and_then(|out| {
        print_outcome(opts, &out);
        let line = out.result_json(table(opts.trace))?;
        Ok((out.correct(), line))
    }) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn take(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(v))
}

fn num<T: std::str::FromStr>(v: Option<String>, what: &str, default: T) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad {what}: {s:?}")),
    }
}

fn cmd_all(seed: u64, seconds: f64) -> ExitCode {
    let mut bad = 0;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: w.name.to_string(),
                seed,
                seconds,
                trace,
            };
            match run_fresh(&opts) {
                Ok((parsed, stdout)) => {
                    // Everything but the machine-readable last line.
                    let human = stdout.trim_end().rsplit_once('\n').map_or("", |(h, _)| h);
                    println!("{human}");
                    bad += usize::from(!parsed.correct);
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", w.name);
                    bad += 1;
                }
            }
        }
    }
    if bad == 0 {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("{bad} runs failed");
        ExitCode::from(2)
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = num(take(&mut args, "--seed")?, "--seed", DEFAULT_SEED)?;
    let seconds = num(
        take(&mut args, "--seconds")?,
        "--seconds",
        RUN_SECONDS as f64,
    )?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let workload = take(&mut args, "--workload")?;
    let trace = num(take(&mut args, "--trace")?, "--trace", 0u8)?;
    let sub = args.first().cloned();
    if args.len() > 1 {
        return Err(format!("unexpected arguments: {:?}", &args[1..]));
    }
    match (sub.as_deref(), workload) {
        (None, Some(workload)) => {
            let opts = Opts {
                workload,
                seed,
                seconds,
                trace: trace != 0,
            };
            Ok(finish(&opts, run_workload(&opts)))
        }
        (Some("all"), None) => Ok(cmd_all(seed, seconds)),
        (Some("repeat"), None) => Ok(repeat::run(seed, seconds)),
        (Some("spread"), None) => Ok(repeat::spread(seed, seconds)),
        (Some("manifest"), None) => {
            print!("{}", report::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: clean-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
             clean-benchmark all|repeat|spread|manifest [--seed <n>] [--seconds <s>]"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
