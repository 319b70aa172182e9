//! `clean-analyze` — record, inspect and replay persistent CLEAN traces.
//!
//! ```text
//! clean-analyze record --workload <name> [--racy] [--sim] [--threads N] [--seed N] --out <file>
//! clean-analyze stats  [--quick] <file>
//! clean-analyze digest <file>
//! clean-analyze replay [--engine all|clean|fasttrack|vcfull|tsan] [--shards N]
//!                      [--stream] [--workers N] [--range A..B] <file>
//! clean-analyze diff   [--shards N] <file>
//! clean-analyze plan   [--granule N] [--out <file>] [--against <plan>] <file>
//! ```
//!
//! Exit codes let scripts branch without parsing stdout: 0 = success (no
//! race for `replay`), 10 = race(s) found, 12 = the trace failed to
//! decode (bad magic, truncation, checksum mismatch), 1 = any other
//! error.

use clean_baselines::{FoundRace, FullRaceKind};
use clean_trace::{
    digest_file, read_range, read_table, read_trace, record_kernel_trace, record_sim_trace,
    scan_trace, EngineKind, RecordOptions, Replay, TraceError, TraceStats,
};
use clean_workloads::{derive_plan_from_trace, TraceGenConfig};
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Instant;

/// `replay` found at least one race.
const EXIT_RACE: u8 = 10;
/// The trace file failed to decode (corrupt, truncated, wrong format).
const EXIT_DECODE: u8 = 12;

/// CLI failure, classified so `main` can pick the process exit code.
enum CliError {
    /// The trace could not be decoded.
    Decode(String),
    /// Anything else (usage, I/O, workload errors).
    Other(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Other(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Other(msg.to_string())
    }
}

/// Maps a trace error to the right exit class: I/O problems are generic,
/// everything else means the bytes were not a valid `CLTR` stream.
fn trace_err(e: TraceError) -> CliError {
    match e {
        TraceError::Io(_) => CliError::Other(e.to_string()),
        _ => CliError::Decode(e.to_string()),
    }
}

const USAGE: &str = "\
clean-analyze — persistent trace store & offline race analysis for CLEAN

USAGE:
  clean-analyze record --workload <name> [--racy] [--sim] [--threads N] [--seed N] --out <file>
      Run a workload kernel (or generate its simulator trace with --sim)
      and stream the event trace to <file>.
  clean-analyze stats [--quick] <file>
      Event, thread, lock, access-width and SFR-segment statistics.
      With --quick on a v2 trace only the chunk table is read: event,
      chunk and thread counts without decoding a single event.
  clean-analyze digest <file>
      Print the canonical 128-bit trace digest (the content address the
      serving layer's trace store uses; independent of chunking).
  clean-analyze replay [--engine all|clean|fasttrack|vcfull|tsan] [--shards N]
                       [--stream] [--workers N] [--range A..B] <file>
      Replay the trace through one engine (or all). The trace is never
      loaded into memory: one producer decodes it in stream order (mmap-
      backed when the kernel allows) into bounded queues feeding --shards
      lanes (default: the available parallelism), each a thread owning
      one detector and a share of the 64-byte address granules. One lane
      replays sequentially, and the verdict is the same for any lane
      count. --workers N is an older name for the same number (given
      both, the smaller wins), and --stream is accepted and ignored.
      With --range A..B only events with trace indices in [A, B) are
      replayed, from memory (as a standalone prefix: sync state before
      A is not reconstructed); on v2 traces the table seeks straight to
      the covering chunks.
  clean-analyze diff [--shards N] <file>
      Cross-engine verdict comparison (e.g. the WAR races CLEAN skips).
  clean-analyze plan [--granule N] [--out <file>] [--against <plan>] <file>
      Derive a static check plan (CPLN v1) from the trace's observed
      access pattern: thread-private ranges become elide entries (with
      their soundness witness), strided shared writers coalesce, and the
      remaining shared spans keep their full checks. Prints the coverage
      split; with --out the plan is saved for loading via the runtime's
      check_plan knob. --granule sets the derivation granule in bytes
      (default 64). Saved plans carry a derivation-footprint stamp
      (granule, granule, event and thread counts); --against <plan> audits
      an existing plan file's stamp against this trace's footprint and
      warns loudly (and bumps the plan_stale metric) when they diverge
      beyond 50%.

EXIT CODES:
  0   success; for replay: no race found
  10  replay found at least one race
  12  the trace file failed to decode
  1   any other error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("digest") => cmd_digest(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Other(format!(
            "unknown subcommand {other:?}\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Decode(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(EXIT_DECODE)
        }
        Err(CliError::Other(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value of `--flag value` out of `args`, removing both.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what}: {v:?}"))
}

fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn cmd_record(rest: &[String]) -> Result<ExitCode, CliError> {
    let mut args = rest.to_vec();
    let workload = take_value(&mut args, "--workload")?.ok_or("record needs --workload <name>")?;
    let out = take_value(&mut args, "--out")?.ok_or("record needs --out <file>")?;
    let racy = take_flag(&mut args, "--racy");
    let sim = take_flag(&mut args, "--sim");
    let threads = match take_value(&mut args, "--threads")? {
        Some(v) => parse_num(&v, "--threads")?,
        None => 4,
    };
    let seed = match take_value(&mut args, "--seed")? {
        Some(v) => parse_num(&v, "--seed")?,
        None => 1u64,
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}").into());
    }
    let start = Instant::now();
    let summary = if sim {
        if racy {
            return Err("--sim traces are race-free by construction; drop --racy".into());
        }
        let cfg = TraceGenConfig {
            threads,
            seed,
            ..TraceGenConfig::default()
        };
        record_sim_trace(&workload, &out, &cfg).map_err(|e| e.to_string())?
    } else {
        let opts = RecordOptions {
            threads,
            racy,
            seed,
        };
        record_kernel_trace(&workload, &out, &opts).map_err(|e| e.to_string())?
    };
    println!(
        "recorded {} events to {} ({} bytes, {:.2} B/event, {} chunks) in {:.2?}",
        summary.events,
        out,
        summary.bytes,
        summary.bytes_per_event(),
        summary.chunks,
        start.elapsed(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(rest: &[String]) -> Result<ExitCode, CliError> {
    let mut args = rest.to_vec();
    let quick = take_flag(&mut args, "--quick");
    let [path] = &args[..] else {
        return Err("stats takes exactly one trace file".into());
    };
    let table = read_table(path).map_err(trace_err)?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).ok();
    match &table {
        Some(t) => println!(
            "format v2: {} chunks, {} events, {} thread slots (from the chunk table)",
            t.entries.len(),
            t.total_events,
            t.threads
        ),
        None => println!("format v1: no chunk table"),
    }
    if quick {
        if let Some(t) = &table {
            if let Some(b) = bytes {
                let bpe = if t.total_events == 0 {
                    0.0
                } else {
                    b as f64 / t.total_events as f64
                };
                println!("{b} bytes, {bpe:.2} B/event");
            }
            return Ok(ExitCode::SUCCESS);
        }
        println!("note: --quick needs a v2 chunk table; falling back to a full decode");
    }
    let events = read_trace(path).map_err(trace_err)?;
    print!("{}", TraceStats::from_events(&events).render(bytes));
    Ok(ExitCode::SUCCESS)
}

fn cmd_digest(rest: &[String]) -> Result<ExitCode, CliError> {
    let [path] = rest else {
        return Err("digest takes exactly one trace file".into());
    };
    println!("{}", digest_file(path).map_err(trace_err)?);
    Ok(ExitCode::SUCCESS)
}

fn engines_from_arg(arg: Option<String>) -> Result<Vec<EngineKind>, String> {
    match arg.as_deref() {
        None | Some("all") => Ok(EngineKind::ALL.to_vec()),
        Some(name) => EngineKind::parse(name)
            .map(|k| vec![k])
            .ok_or_else(|| format!("unknown engine {name:?} (clean|fasttrack|vcfull|tsan|all)")),
    }
}

fn verdict_code(any_race: bool) -> ExitCode {
    if any_race {
        ExitCode::from(EXIT_RACE)
    } else {
        ExitCode::SUCCESS
    }
}

fn kind_counts(races: &[FoundRace]) -> (usize, usize, usize) {
    let count = |k| races.iter().filter(|r| r.kind == k).count();
    (
        count(FullRaceKind::Waw),
        count(FullRaceKind::Raw),
        count(FullRaceKind::War),
    )
}

/// Takes a lane-count flag (`--shards`, or its older name `--workers`).
fn lanes_arg(args: &mut Vec<String>, flag: &str) -> Result<Option<usize>, String> {
    let Some(v) = take_value(args, flag)? else {
        return Ok(None);
    };
    match parse_num(&v, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(Some(n)),
    }
}

/// Parses an `A..B` event-index range.
fn parse_range(v: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| format!("bad --range {v:?} (want A..B)"))?;
    let a: u64 = parse_num(a, "--range start")?;
    let b: u64 = parse_num(b, "--range end")?;
    if a >= b {
        return Err(format!("--range {v:?} is empty (start must be below end)"));
    }
    Ok(a..b)
}

fn cmd_replay(rest: &[String]) -> Result<ExitCode, CliError> {
    let mut args = rest.to_vec();
    let engines = engines_from_arg(take_value(&mut args, "--engine")?)?;
    let shards = lanes_arg(&mut args, "--shards")?;
    let workers = lanes_arg(&mut args, "--workers")?;
    let lanes = shards.into_iter().chain(workers).min();
    let lanes = lanes.unwrap_or_else(default_shards);
    // Every whole-trace replay streams; the flag is kept for scripts.
    take_flag(&mut args, "--stream");
    let range = match take_value(&mut args, "--range")? {
        Some(v) => Some(parse_range(&v)?),
        None => None,
    };
    let [path] = &args[..] else {
        return Err("replay takes exactly one trace file".into());
    };
    // Only a range is loaded into memory; a whole trace always streams.
    let slice = match &range {
        Some(range) => {
            let slice = read_range(path, range.clone()).map_err(trace_err)?;
            println!(
                "events {}..{}: {} in range (replayed as a standalone prefix), {lanes} lanes",
                range.start,
                range.end,
                slice.len()
            );
            Some(slice)
        }
        None => {
            let scan = scan_trace(path).map_err(trace_err)?;
            println!(
                "{} events ({} bytes), {lanes} lanes",
                scan.events, scan.bytes
            );
            None
        }
    };
    let mut any_race = false;
    for kind in engines {
        let start = Instant::now();
        let replay = Replay::new(kind).lanes(lanes);
        let (races, detail) = match &slice {
            Some(events) => (
                replay.events(events).map_err(trace_err)?.races,
                String::new(),
            ),
            None => {
                let done = replay.file(path).map_err(trace_err)?;
                let detail = format!(
                    " [{} batches, {}]",
                    done.batches,
                    if done.used_mmap { "mmap" } else { "buffered" },
                );
                (done.races, detail)
            }
        };
        let (waw, raw, war) = kind_counts(&races);
        println!(
            "{:<10} {:>6} races (WAW {waw}, RAW {raw}, WAR {war}) in {:.2?}{detail}",
            kind.name(),
            races.len(),
            start.elapsed(),
        );
        for r in races.iter().take(10) {
            println!(
                "  {} at {:#x}: t{} after t{}",
                r.kind,
                r.addr,
                r.current.raw(),
                r.previous.raw()
            );
        }
        if races.len() > 10 {
            println!("  … {} more", races.len() - 10);
        }
        any_race |= !races.is_empty();
    }
    Ok(verdict_code(any_race))
}

fn cmd_plan(rest: &[String]) -> Result<ExitCode, CliError> {
    let mut args = rest.to_vec();
    let granule = match take_value(&mut args, "--granule")? {
        Some(v) => parse_num(&v, "--granule")?,
        None => 0usize,
    };
    let out = take_value(&mut args, "--out")?;
    let against = take_value(&mut args, "--against")?;
    let [path] = &args[..] else {
        return Err("plan takes exactly one trace file".into());
    };
    let events = read_trace(path).map_err(trace_err)?;
    let (plan, coverage) = derive_plan_from_trace(&events, granule);
    // Derived plans always carry sound witnesses; compiling re-checks
    // the invariant the loader enforces on untrusted plan files.
    plan.compile()
        .map_err(|e| CliError::Other(format!("derived plan failed validation: {e}")))?;
    println!(
        "{} events, {} plan entries",
        events.len(),
        plan.entries.len()
    );
    println!("{}", coverage.render());
    if let Some(against) = &against {
        let old = clean_core::CheckPlan::load(against)
            .map_err(|e| CliError::Other(format!("load {against}: {e}")))?;
        let current = plan
            .profile
            .expect("derived plans always carry a footprint stamp");
        match old.audit_freshness(&current) {
            Some(warning) => eprintln!("WARNING: {against}: {warning}"),
            None if old.profile.is_none() => {
                println!("{against}: no footprint stamp to audit (pre-stamp plan file)");
            }
            None => println!("{against}: stamp is fresh against this trace"),
        }
    }
    if let Some(out) = &out {
        plan.save(out).map_err(|e| e.to_string())?;
        println!("saved CPLN v1 plan to {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn race_set(races: &[FoundRace]) -> HashSet<FoundRace> {
    races.iter().copied().collect()
}

fn cmd_diff(rest: &[String]) -> Result<ExitCode, CliError> {
    let mut args = rest.to_vec();
    let shards = lanes_arg(&mut args, "--shards")?.unwrap_or_else(default_shards);
    let [path] = &args[..] else {
        return Err("diff takes exactly one trace file".into());
    };
    let events = read_trace(path).map_err(trace_err)?;
    let verdicts: Vec<(EngineKind, Vec<FoundRace>)> = EngineKind::ALL
        .iter()
        .map(|&k| Ok((k, Replay::new(k).lanes(shards).events(&events)?.races)))
        .collect::<clean_trace::Result<_>>()
        .map_err(trace_err)?;
    for (kind, races) in &verdicts {
        let (waw, raw, war) = kind_counts(races);
        println!(
            "{:<10} {:>6} races (WAW {waw}, RAW {raw}, WAR {war})",
            kind.name(),
            races.len()
        );
    }
    // CLEAN's deliberate blind spot: WAR races the full detectors see.
    let clean: HashSet<FoundRace> = verdicts
        .iter()
        .find(|(k, _)| *k == EngineKind::Clean)
        .map(|(_, r)| race_set(r))
        .unwrap_or_default();
    let mut war_only: Vec<FoundRace> = Vec::new();
    for (kind, races) in &verdicts {
        if !kind.detects_war() {
            continue;
        }
        for r in races {
            if r.kind == FullRaceKind::War && !clean.contains(r) && !war_only.contains(r) {
                war_only.push(*r);
            }
        }
        // Sanity: on WAW/RAW the full detectors and CLEAN must agree in
        // verdict direction; report divergences rather than asserting
        // (tsan's bounded shadow cells may drop old accesses).
        let theirs = race_set(races);
        let missing: Vec<&FoundRace> = clean.iter().filter(|r| !theirs.contains(r)).collect();
        if !missing.is_empty() {
            println!(
                "note: {} CLEAN race(s) not reported by {} (bounded metadata or WAR ordering)",
                missing.len(),
                kind.name()
            );
        }
    }
    println!("WAR races invisible to CLEAN: {}", war_only.len());
    for r in war_only.iter().take(10) {
        println!(
            "  WAR at {:#x}: t{} after t{}",
            r.addr,
            r.current.raw(),
            r.previous.raw()
        );
    }
    Ok(ExitCode::SUCCESS)
}
