//! Check hot-path benchmark — the check pipeline, online and offline.
//!
//! **Online**: multi-threaded checked-write throughput on one detector
//! through its two entry points — the shipped fast path
//! (`check_write_with` threading a per-thread `ThreadCheckState`: SFR
//! write-set filter, deferred filter-hit stats) and the
//! stateless `check_write` (the same Figure 2 check bodies with none of
//! the per-thread state) — over two workload profiles:
//!
//! * `sfr_local` — a small per-thread working set rewritten many times
//!   per synchronization-free region (the redundancy the write filter
//!   targets); headline "checked-write throughput" number.
//! * `stream` — a sequential sweep over a working set larger than the
//!   filter, plus a per-thread hot accumulator rewritten every few
//!   accesses (the loop-carried sum every real sweep has) — the sweep
//!   itself defeats the filter, the accumulator is what it catches.
//!
//! The two entries run back to back in alternating pairs; headline
//! `online_speedup` is the median per-pair ratio of the fast path over
//! the stateless entry on `sfr_local`.
//!
//! **Plan**: checked-write throughput with a compiled static check plan
//! installed versus without, per action class — `plan_private` (whole
//! footprint provably elidable) and `plan_stride` (range-coalesced
//! filter entries recover the filter-defeating sweep). Plan-off and
//! plan-on run in alternating pairs too; headline `plan_speedup` is the median
//! per-pair ratio on `plan_private`.
//!
//! **Obs**: the observability-bridge ablation — the `sfr_local` shape
//! on one thread through the fast path with and without a `DetectorObs`
//! counters bundle attached, in alternating off/on pairs. The bridge
//! mirrors only at SFR drains, so the median per-pair attach cost must
//! stay under 2% throughput; detached it is one untaken branch per drain
//! (0%, asserted by construction, reported for the record).
//!
//! **Offline**: a synthetic multi-thread trace (~1 GiB at the full
//! profile) replayed off disk through the CLEAN engine by the one replay
//! engine (`Replay::file`) at one lane (sequential, inline) and at N
//! lanes (N = the host's parallelism, clamped to 2..=8), and decoded by
//! a bare `TraceReader`. Decode-only and one-lane replay run in
//! alternating rounds (5 at `--small`, 3 at the full profile); headline
//! `offline_replay_over_decode` is the median per-round ratio of the
//! one-lane replay's seconds over the decode-only seconds: what routing
//! and checking an event cost in units of decoding it, on any host, and
//! the number a slower check raises. The lane ratio is printed and
//! recorded beside its host block but not gated: the one producer bounds
//! the pipeline past about two lanes, so it says more about the host than
//! about the code. Both replays must report identical races.
//!
//! Results land in `BENCH_hotpath.json` (override with `--out`).
//! `--check-baseline <file>` re-reads a checked-in result and fails the
//! run (exit 1) if a headline ratio regressed by more than 20%.
//! `--small` selects the quick CI profile: half-length online, obs and
//! plan cells and a 24 MiB offline trace. `CLEAN_THREADS` and
//! `CLEAN_REPS` scale the online part as for the other experiments.

use clean_bench::{env_reps, env_threads, fmt_pct, fmt_x, measure, trace_dir, Table};
use clean_core::{
    CheckPlan, CleanDetector, CompiledPlan, DetectorConfig, DetectorObs, PlanAction, PlanEntry,
    ThreadCheckState, ThreadId, TraceEvent, VectorClock, Witness,
};
use clean_trace::{EngineKind, Replay, TraceReader, TraceWriter};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The detector entry point an online cell drives.
#[derive(Clone, Copy)]
enum Entry {
    /// `check_write_with` through the thread's `ThreadCheckState` — what
    /// the runtime and scheduler VM call.
    FastPath,
    /// `check_write`: the same check bodies without per-thread state.
    Stateless,
}

impl Entry {
    fn name(self) -> &'static str {
        match self {
            Entry::FastPath => "check_write_with",
            Entry::Stateless => "check_write",
        }
    }
}

/// Alternating pairs per online profile (fast path/stateless) and per
/// plan profile (plan-off/plan-on).
const PAIRS: usize = 5;

/// Obs-off/obs-on pairs of the observability ablation.
const OBS_PAIRS: usize = 21;

/// Threads of the observability ablation. The bridge's cost is per SFR
/// drain and per thread (its counters are per-thread shards), so one
/// thread carries all of it; more threads than cores only add scheduler
/// noise (per-pair spread about ±20% at 4 threads on 2 vCPUs, well under
/// ±1% at one).
const OBS_THREADS: usize = 1;

/// An online workload shape. Each thread owns a disjoint `region`-byte
/// slice of the heap and, per synchronization-free region, writes its
/// `words` 8-byte slots `revisits` times before incrementing its epoch.
struct Profile {
    name: &'static str,
    /// Per-thread heap slice (also the base stride between threads).
    region: usize,
    /// Words touched per sweep.
    words: usize,
    /// Bytes per access.
    access: usize,
    /// Sweeps per SFR: >1 creates the redundancy the filter exploits.
    revisits: usize,
    /// Every `hot_every` sweep accesses, rewrite the thread's first word
    /// — the loop-carried accumulator. 0 disables it. This is what gives
    /// the filter something to catch on a streaming sweep.
    hot_every: usize,
}

/// `sfr_local` fits the 128-slot filter without collisions (64 16-byte
/// words inside the thread's own 4 KiB shadow page — the filter indexes
/// by `addr >> 3`, so wider strides must stay under 1 KiB of slots);
/// `stream` sweeps 32 KiB of 8-byte words so every filter slot is
/// evicted long before it is revisited.
const PROFILES: [Profile; 2] = [
    Profile {
        name: "sfr_local",
        region: 4096,
        words: 64,
        access: 16,
        revisits: 32,
        hot_every: 0,
    },
    Profile {
        name: "stream",
        region: 32768,
        words: 4096,
        access: 8,
        revisits: 1,
        hot_every: 8,
    },
];

/// Measured numbers for one (profile, entry) cell.
struct CellResult {
    maccesses_per_sec: f64,
    filter_hit_rate: f64,
}

/// Runs one profile through one entry point and returns the throughput of
/// the best of `reps` timed repetitions. When `obs_registry` is set, a
/// [`DetectorObs`] counters bundle on that registry is attached to the
/// detector (the observability-ablation cells); `None` leaves the
/// detector exactly as shipped.
fn run_online_cell(
    profile: &Profile,
    entry: Entry,
    threads: usize,
    ops_per_thread: u64,
    reps: usize,
    obs_registry: Option<&clean_obs::Registry>,
) -> CellResult {
    let sweep_ops = profile.words * profile.revisits;
    let hot_ops = sweep_ops.checked_div(profile.hot_every).unwrap_or(0);
    let phase_ops = (sweep_ops + hot_ops) as u64;
    let phases = (ops_per_thread / phase_ops).max(1);
    let accesses = phases * phase_ops * threads as u64;
    let (best, snap) = measure(reps, || {
        let mut det = CleanDetector::new(threads * profile.region, DetectorConfig::new());
        if let Some(registry) = obs_registry {
            det.attach_obs(DetectorObs::new(registry));
        }
        let det = &det;
        let layout = det.layout();
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let tid = ThreadId::new(t as u16);
                    let mut vc = VectorClock::new(threads, layout);
                    let mut state = ThreadCheckState::new();
                    let base = t * profile.region;
                    let check =
                        |vc: &VectorClock, state: &mut ThreadCheckState, addr, size| match entry {
                            Entry::FastPath => det.check_write_with(vc, tid, addr, size, state),
                            Entry::Stateless => det.check_write(vc, tid, addr, size),
                        };
                    for _ in 0..phases {
                        let mut since_hot = 0;
                        for _ in 0..profile.revisits {
                            for w in 0..profile.words {
                                check(&vc, &mut state, base + w * profile.access, profile.access)
                                    .expect("disjoint per-thread regions are race-free");
                                since_hot += 1;
                                if profile.hot_every > 0 && since_hot == profile.hot_every {
                                    // The loop-carried accumulator: the
                                    // thread's first word, rewritten over
                                    // and over — filter food even when
                                    // the sweep itself never revisits.
                                    since_hot = 0;
                                    check(&vc, &mut state, base, 8)
                                        .expect("own accumulator is race-free");
                                }
                            }
                        }
                        // SFR boundary: epoch bump + stats drain + filter
                        // flush, as the runtime does on every release.
                        vc.increment(tid).expect("phase count below rollover");
                        det.drain_check_state(tid, &mut state);
                        state.on_epoch_increment();
                    }
                });
            }
        });
        det.stats()
    });
    assert_eq!(
        snap.total_checked(),
        accesses,
        "every access must be checked exactly once through either entry"
    );
    assert_eq!(snap.races_reported, 0, "workload is race-free");
    CellResult {
        maccesses_per_sec: accesses as f64 / best.as_secs_f64() / 1e6,
        filter_hit_rate: snap.filter_hits as f64 / snap.total_checked() as f64,
    }
}

/// One static-check-plan workload shape: each thread sweeps its own
/// disjoint `region`-byte slice `revisits` times per SFR, and the whole
/// footprint is covered by plan entries of one action class. Throughput
/// is measured with the plan installed versus without (both through the
/// fast path), isolating what each plan action buys.
struct PlanProfile {
    name: &'static str,
    /// Per-thread heap slice (also the base stride between threads).
    region: usize,
    /// Words touched per sweep.
    words: usize,
    /// Bytes per access.
    access: usize,
    /// Sweeps per SFR.
    revisits: usize,
    /// The action class covering every thread's region.
    action: PlanAction,
}

/// `plan_private` is the thread-private-heavy shape (every check provably
/// elidable); `plan_stride` is the filter-defeating sequential sweep the
/// range-coalesced filter entries recover (32 KiB of 8-byte words evicts
/// the 128 direct-mapped slots long before a revisit).
const PLAN_PROFILES: [PlanProfile; 2] = [
    PlanProfile {
        name: "plan_private",
        region: 4096,
        words: 64,
        access: 16,
        revisits: 32,
        action: PlanAction::Elide,
    },
    PlanProfile {
        name: "plan_stride",
        region: 32768,
        words: 4096,
        access: 8,
        revisits: 4,
        action: PlanAction::Coalesce,
    },
];

/// Builds the compiled plan covering every thread's region with the
/// profile's action class (elide entries carry the per-owner witness).
fn plan_for(profile: &PlanProfile, threads: usize) -> Arc<CompiledPlan> {
    let entries = (0..threads)
        .map(|t| {
            let lo = t * profile.region;
            let witness = match profile.action {
                PlanAction::Elide => Some(Witness {
                    owner: t as u32,
                    observed: (profile.words * profile.revisits) as u64,
                    foreign: 0,
                }),
                _ => None,
            };
            PlanEntry {
                lo,
                hi: lo + profile.region,
                action: profile.action,
                witness,
            }
        })
        .collect();
    let compiled = CheckPlan {
        profile: None,
        entries,
    }
    .compile()
    .expect("bench plans carry sound witnesses");
    Arc::new(compiled)
}

/// Runs one plan profile with or without the plan installed and returns
/// Macc/s of the best of `reps` runs.
fn run_plan_cell(
    profile: &PlanProfile,
    plan: Option<Arc<CompiledPlan>>,
    threads: usize,
    ops_per_thread: u64,
    reps: usize,
) -> f64 {
    let sweep_ops = (profile.words * profile.revisits) as u64;
    let phases = (ops_per_thread / sweep_ops).max(1);
    let accesses = phases * sweep_ops * threads as u64;
    let (best, snap) = measure(reps, || {
        let det = CleanDetector::new(
            threads * profile.region,
            DetectorConfig::new().check_plan(plan.clone()),
        );
        let det = &det;
        let layout = det.layout();
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let tid = ThreadId::new(t as u16);
                    let mut vc = VectorClock::new(threads, layout);
                    let mut state = ThreadCheckState::new();
                    let base = t * profile.region;
                    for _ in 0..phases {
                        for _ in 0..profile.revisits {
                            for w in 0..profile.words {
                                det.check_write_with(
                                    &vc,
                                    tid,
                                    base + w * profile.access,
                                    profile.access,
                                    &mut state,
                                )
                                .expect("disjoint per-thread regions are race-free");
                            }
                        }
                        vc.increment(tid).expect("phase count below rollover");
                        det.drain_check_state(tid, &mut state);
                        state.on_epoch_increment();
                    }
                });
            }
        });
        det.stats()
    });
    // Elided checks are skipped by design, never lost: what was not
    // checked must be accounted for by the elision counter.
    assert_eq!(
        snap.total_checked() + snap.plan_elided,
        accesses,
        "{}: every access is either checked or provably elided",
        profile.name
    );
    assert_eq!(snap.races_reported, 0, "workload is race-free");
    if plan.is_some() {
        match profile.action {
            PlanAction::Elide => assert_eq!(
                snap.plan_elided, accesses,
                "{}: the whole footprint is elidable",
                profile.name
            ),
            PlanAction::Coalesce => assert!(
                snap.filter_hits > 0,
                "{}: coalesced ranges must answer revisited sweeps",
                profile.name
            ),
        }
    }
    accesses as f64 / best.as_secs_f64() / 1e6
}

/// Deterministic synthetic trace for the offline comparison: `threads`
/// workers each sweep a private 64 KiB region (writes with a 25% read
/// mix), release their own lock every 64 ops and a shared lock every
/// 4096 ops, plus one seeded WAW pair early on so the race lists the two
/// replay engines must agree on are non-empty.
fn generate_events(
    total: u64,
    threads: usize,
    mut sink: impl FnMut(&TraceEvent) -> io::Result<()>,
) -> io::Result<()> {
    const REGION: usize = 64 * 1024;
    const STRIDE: usize = 1 << 20;
    const RACY_ADDR: usize = 8 << 20;
    let mut emitted = 0u64;
    let mut k = vec![0u64; threads];
    let mut racy_done = false;
    let mut emit = |ev: &TraceEvent, emitted: &mut u64| -> io::Result<bool> {
        if *emitted >= total {
            return Ok(false);
        }
        sink(ev)?;
        *emitted += 1;
        Ok(true)
    };
    loop {
        for (t, counter) in k.iter_mut().enumerate() {
            let tid = ThreadId::new(t as u16);
            let step = *counter;
            *counter += 1;
            if !racy_done && emitted > 512 {
                // Unordered same-address writes by two threads: a WAW
                // race every CLEAN replay must flag identically.
                racy_done = true;
                let a = TraceEvent::Write {
                    tid: ThreadId::new(0),
                    addr: RACY_ADDR,
                    size: 8,
                };
                let b = TraceEvent::Write {
                    tid: ThreadId::new(1),
                    addr: RACY_ADDR,
                    size: 8,
                };
                if !emit(&a, &mut emitted)? || !emit(&b, &mut emitted)? {
                    return Ok(());
                }
            }
            if step > 0 && step.is_multiple_of(4096) {
                let lock = 1000;
                if !emit(&TraceEvent::Acquire { tid, lock }, &mut emitted)?
                    || !emit(&TraceEvent::Release { tid, lock }, &mut emitted)?
                {
                    return Ok(());
                }
            } else if step > 0 && step.is_multiple_of(64) {
                let lock = t as u32;
                if !emit(&TraceEvent::Acquire { tid, lock }, &mut emitted)?
                    || !emit(&TraceEvent::Release { tid, lock }, &mut emitted)?
                {
                    return Ok(());
                }
            }
            let addr = t * STRIDE + (step as usize * 4) % REGION;
            let ev = if step % 4 == 3 {
                TraceEvent::Read { tid, addr, size: 4 }
            } else {
                TraceEvent::Write { tid, addr, size: 4 }
            };
            if !emit(&ev, &mut emitted)? {
                return Ok(());
            }
        }
    }
}

/// Writes a synthetic trace of exactly `events` events to `path` and
/// returns the stream byte size.
fn write_synthetic_trace(path: &Path, events: u64, threads: usize) -> io::Result<u64> {
    let mut w = TraceWriter::create(path).map_err(io::Error::other)?;
    generate_events(events, threads, |ev| w.write_event(ev))?;
    Ok(w.finish()?.bytes)
}

/// Offline comparison results.
struct OfflineResult {
    events: u64,
    bytes: u64,
    /// `std::thread::available_parallelism` on the measuring host.
    parallelism: usize,
    lanes: usize,
    /// A bare `TraceReader` pass over the file, the floor under a replay:
    /// the median round.
    decode_secs: f64,
    /// The median round's one-lane replay.
    one_lane_secs: f64,
    /// The median of the rounds' one-lane over decode-only ratios.
    replay_over_decode: f64,
    lanes_secs: f64,
    batches: u64,
    races_found: usize,
    races_agree: bool,
}

fn run_offline(target_bytes: u64, threads: usize, rounds: usize) -> OfflineResult {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let lanes = parallelism.clamp(2, 8);
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).expect("create trace store directory");

    // Probe the encoder's bytes/event on a prefix, then size the real
    // trace to the byte target.
    let probe_path = dir.join("hotpath-probe.cltr");
    const PROBE_EVENTS: u64 = 1 << 20;
    let probe_bytes =
        write_synthetic_trace(&probe_path, PROBE_EVENTS, threads).expect("write probe trace");
    std::fs::remove_file(&probe_path).ok();
    let bpe = probe_bytes as f64 / PROBE_EVENTS as f64;
    let events = ((target_bytes as f64 / bpe) as u64).max(PROBE_EVENTS);

    let path = dir.join("hotpath-synthetic.cltr");
    println!(
        "  generating {events} events (~{:.0} MiB at {bpe:.1} B/event) ...",
        events as f64 * bpe / (1 << 20) as f64
    );
    let bytes = write_synthetic_trace(&path, events, threads).expect("write synthetic trace");

    let timed = |lanes: usize| {
        let t0 = Instant::now();
        let done = Replay::new(EngineKind::Clean)
            .lanes(lanes)
            .file(&path)
            .expect("offline replay");
        (done, t0.elapsed().as_secs_f64())
    };
    let decode = || {
        let t0 = Instant::now();
        let mut decoded = 0u64;
        for ev in TraceReader::open(&path).expect("open synthetic trace") {
            ev.expect("decode synthetic trace");
            decoded += 1;
        }
        assert_eq!(decoded, events);
        t0.elapsed().as_secs_f64()
    };
    // Decode-only and one-lane replay alternate which goes first, so
    // machine drift moves both halves of a round together.
    println!("  decode only vs 1-lane replay, {rounds} alternating rounds ...");
    let (mut decode_secs, mut one_lane_secs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut one = None;
    for round in 0..rounds {
        let (d, (done, r)) = if round % 2 == 0 {
            let d = decode();
            (d, timed(1))
        } else {
            let r = timed(1);
            (decode(), r)
        };
        println!(
            "    round {round}: decode {d:.2}s, 1 lane {r:.2}s -> {}",
            fmt_x(r / d)
        );
        decode_secs.push(d);
        one_lane_secs.push(r);
        ratios.push(r / d);
        one = Some(done);
    }
    let one = one.expect("at least one round");
    println!("  streaming replay, {lanes} lanes ...");
    let (many, lanes_secs) = timed(lanes);
    std::fs::remove_file(&path).ok();

    assert_eq!(one.events, events);
    let races_agree = one.races == many.races;
    assert!(races_agree, "offline replay verdicts diverged");
    assert!(
        !many.races.is_empty(),
        "the seeded WAW pair must be reported"
    );

    OfflineResult {
        events,
        bytes,
        parallelism,
        lanes,
        decode_secs: median(&decode_secs),
        one_lane_secs: median(&one_lane_secs),
        replay_over_decode: median(&ratios),
        lanes_secs,
        batches: many.batches,
        races_found: many.races.len(),
        races_agree,
    }
}

/// Runs the cells `a` and `b` back to back in `pairs` rounds, alternating
/// which goes first, so machine drift moves both halves of a pair
/// together; returns each cell's per-round results.
fn paired<T>(pairs: usize, a: impl Fn() -> T, b: impl Fn() -> T) -> (Vec<T>, Vec<T>) {
    (0..pairs)
        .map(|pair| {
            if pair % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .unzip()
}

/// Median throughput of a cell's rounds.
fn median_rate(cells: &[CellResult]) -> f64 {
    let rates: Vec<f64> = cells.iter().map(|c| c.maccesses_per_sec).collect();
    median(&rates)
}

/// Median of a non-empty sample (the upper one for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Extracts the first `"key": <number>` occurrence from a JSON string —
/// enough structure awareness for the flat keys this binary emits.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut small = false;
    let mut out = PathBuf::from("BENCH_hotpath.json");
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            "--check-baseline" => {
                baseline = Some(PathBuf::from(
                    args.next().expect("--check-baseline needs a path"),
                ));
            }
            other => {
                eprintln!("unknown flag {other}; usage: bench_hotpath [--small] [--out FILE] [--check-baseline FILE]");
                std::process::exit(2);
            }
        }
    }

    let threads = env_threads();
    let reps = env_reps();
    // The small profile halves the online cells, no further: on 2 vCPUs,
    // cells of 1 << 18 accesses per thread read `online_speedup` about
    // 15% below the full profile that the gate compares against, at
    // 1 << 21 they read level with it.
    let ops_per_thread: u64 = if small { 1 << 21 } else { 1 << 22 };
    let offline_bytes: u64 = if small { 24 << 20 } else { 1 << 30 };
    // One decode/replay round of the small trace spreads from 2.9x to
    // 3.7x on 2 vCPUs; the gate reads the median round.
    let offline_rounds = if small { 5 } else { 3 };
    println!(
        "== bench_hotpath: check hot path ({} profile, {threads} threads, best of {reps}) ==\n",
        if small { "small" } else { "full" }
    );

    // ---- online: fast path vs stateless entry ----
    let mut json_profiles = Vec::new();
    let mut online_speedup = 0.0;
    for profile in &PROFILES {
        println!("online profile `{}`:", profile.name);
        let mut t = Table::new(&["entry", "Macc/s", "filter hits"]);
        let cell = |entry| run_online_cell(profile, entry, threads, ops_per_thread, reps, None);
        let (fast, plain) = paired(PAIRS, || cell(Entry::FastPath), || cell(Entry::Stateless));
        // Every profile carries *some* write redundancy (revisits or the
        // hot accumulator): a filter that never engages means the fast
        // path is not wired through, not a hostile workload.
        assert!(
            fast[0].filter_hit_rate > 0.0,
            "{}: the fast path's write filter never hit",
            profile.name
        );
        let ratios: Vec<f64> = fast
            .iter()
            .zip(&plain)
            .map(|(f, p)| f.maccesses_per_sec / p.maccesses_per_sec)
            .collect();
        let speedup = median(&ratios);
        if profile.name == "sfr_local" {
            online_speedup = speedup;
        }
        let mut cells_json = Vec::new();
        for (entry, cells) in [(Entry::FastPath, &fast), (Entry::Stateless, &plain)] {
            let rate = median_rate(cells);
            t.row(vec![
                entry.name().into(),
                format!("{rate:.1}"),
                fmt_pct(cells[0].filter_hit_rate),
            ]);
            cells_json.push(format!(
                "{{\"name\": \"{}\", \"maccesses_per_sec\": {rate:.3}, \"filter_hit_rate\": {:.4}}}",
                entry.name(),
                cells[0].filter_hit_rate
            ));
        }
        t.print();
        println!(
            "  fast path over stateless: {} (median of {PAIRS} pairs)\n",
            fmt_x(speedup)
        );
        json_profiles.push(format!(
            "    {{\"name\": \"{}\", \"accesses_per_thread\": {}, \"speedup\": {:.3}, \"entries\": [\n      {}\n    ]}}",
            profile.name,
            ops_per_thread,
            speedup,
            cells_json.join(",\n      ")
        ));
    }

    // ---- observability ablation ----
    // The detector obs bridge mirrors counters only at SFR drains (and
    // race reports), never per access, so attaching it must cost under
    // 2% on the drain-heaviest shape; detached, the check path is the
    // shipped code plus one untaken branch per drain — 0% by
    // construction, reported as such. The true cost is far below
    // run-to-run machine drift, so the gate reads the median of the
    // per-pair costs.
    println!(
        "observability bridge (obs-on vs obs-off, sfr_local fast path, {OBS_THREADS} thread, {OBS_PAIRS} pairs):"
    );
    let obs_registry = clean_obs::Registry::new();
    let cell = |registry| {
        run_online_cell(
            &PROFILES[0],
            Entry::FastPath,
            OBS_THREADS,
            ops_per_thread,
            reps,
            registry,
        )
    };
    let (offs, ons) = paired(OBS_PAIRS, || cell(None), || cell(Some(&obs_registry)));
    let costs: Vec<f64> = offs
        .iter()
        .zip(&ons)
        .map(|(off, on)| 1.0 - on.maccesses_per_sec / off.maccesses_per_sec)
        .collect();
    let obs_snap = obs_registry.snapshot();
    assert!(
        obs_snap.counter("detector_sfr_drains", &[]).unwrap_or(0) > 0,
        "obs-on cell must actually mirror drains into the registry"
    );
    let (obs_off, obs_on, obs_cost) = (median_rate(&offs), median_rate(&ons), median(&costs));
    let per_pair: Vec<String> = costs.iter().map(|c| format!("{:.1}%", c * 100.0)).collect();
    println!(
        "  per-pair attach cost [{}]\n  median obs-off {obs_off:.1} Macc/s vs obs-on {obs_on:.1} Macc/s; median per-pair attach cost {:.2}% (budget 2%; negative = on ran faster), 0% detached\n",
        per_pair.join(", "),
        obs_cost * 100.0
    );
    assert!(
        obs_cost < 0.02,
        "attaching DetectorObs cost {:.2}% throughput (median of {OBS_PAIRS} pairs), over the 2% budget",
        obs_cost * 100.0
    );

    // ---- static check-plan ablation ----
    println!("static check plan (plan-on vs plan-off, fast path, median of {PAIRS} pairs):");
    let mut t = Table::new(&["profile", "plan-off Macc/s", "plan-on Macc/s", "speedup"]);
    let mut json_plans = Vec::new();
    let mut plan_speedup = 0.0;
    for profile in &PLAN_PROFILES {
        let plan = plan_for(profile, threads);
        let cell = |plan| run_plan_cell(profile, plan, threads, ops_per_thread, reps);
        let (offs, ons) = paired(PAIRS, || cell(None), || cell(Some(Arc::clone(&plan))));
        let ratios: Vec<f64> = offs.iter().zip(&ons).map(|(off, on)| on / off).collect();
        let (off_rate, on_rate, speedup) = (median(&offs), median(&ons), median(&ratios));
        if profile.name == "plan_private" {
            plan_speedup = speedup;
        }
        t.row(vec![
            profile.name.into(),
            format!("{off_rate:.1}"),
            format!("{on_rate:.1}"),
            fmt_x(speedup),
        ]);
        json_plans.push(format!(
            "    {{\"name\": \"{}\", \"plan_off_maccesses_per_sec\": {off_rate:.3}, \"plan_on_maccesses_per_sec\": {on_rate:.3}, \"speedup\": {speedup:.3}}}",
            profile.name
        ));
    }
    t.print();
    println!();

    // ---- offline replay comparison ----
    println!("offline replay (CLEAN engine):");
    let off = run_offline(offline_bytes, 4, offline_rounds);
    let offline_replay_over_decode = off.replay_over_decode;
    let lane_speedup = off.one_lane_secs / off.lanes_secs;
    println!(
        "  median decode {:.2}s, 1 lane {:.2}s; median per-round ratio {} of decode; {} lanes {:.2}s -> {} over 1 lane ({} events, {:.0} MiB, {} batches, host parallelism {})\n",
        off.decode_secs,
        off.one_lane_secs,
        fmt_x(offline_replay_over_decode),
        off.lanes,
        off.lanes_secs,
        fmt_x(lane_speedup),
        off.events,
        off.bytes as f64 / (1 << 20) as f64,
        off.batches,
        off.parallelism,
    );

    // ---- JSON report ----
    let json = format!(
        "{{\n  \"benchmark\": \"hotpath\",\n  \"profile\": \"{}\",\n  \"threads\": {},\n  \"reps\": {},\n  \"online_speedup\": {:.3},\n  \"offline_replay_over_decode\": {:.3},\n  \"plan_speedup\": {:.3},\n  \"obs\": {{\n    \"threads\": {},\n    \"pairs\": {},\n    \"off_maccesses_per_sec\": {:.3},\n    \"on_maccesses_per_sec\": {:.3},\n    \"on_cost\": {:.4},\n    \"off_cost\": 0.0\n  }},\n  \"verdicts_diverged\": {},\n  \"online_profiles\": [\n{}\n  ],\n  \"plan_profiles\": [\n{}\n  ],\n  \"offline\": {{\n    \"host\": {{\"available_parallelism\": {}, \"lanes\": {}, \"profile\": \"{}\"}},\n    \"events\": {},\n    \"bytes\": {},\n    \"decode_secs\": {:.3},\n    \"one_lane_secs\": {:.3},\n    \"lanes_secs\": {:.3},\n    \"lane_speedup\": {:.3},\n    \"batches\": {},\n    \"races_found\": {},\n    \"races_agree\": {}\n  }}\n}}\n",
        if small { "small" } else { "full" },
        threads,
        reps,
        online_speedup,
        offline_replay_over_decode,
        plan_speedup,
        OBS_THREADS,
        OBS_PAIRS,
        obs_off,
        obs_on,
        obs_cost,
        !off.races_agree,
        json_profiles.join(",\n"),
        json_plans.join(",\n"),
        off.parallelism,
        off.lanes,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        off.events,
        off.bytes,
        off.decode_secs,
        off.one_lane_secs,
        off.lanes_secs,
        lane_speedup,
        off.batches,
        off.races_found,
        off.races_agree,
    );
    std::fs::write(&out, &json).expect("write result JSON");
    println!("wrote {}", out.display());
    println!(
        "headline: online (sfr_local check_write_with vs check_write) {}, offline (1-lane replay over decode) {}, plan (plan_private on vs off) {}, obs attach cost {:.2}%",
        fmt_x(online_speedup),
        fmt_x(offline_replay_over_decode),
        fmt_x(plan_speedup),
        obs_cost * 100.0
    );

    // ---- regression gate ----
    if let Some(base) = baseline {
        let text = std::fs::read_to_string(&base).expect("read baseline JSON");
        // A speedup may fall to 0.8x of its baseline; the offline ratio
        // is a cost, so it may rise to 1/0.8 of its own.
        let mut failed = false;
        for (what, now, higher_is_better) in [
            ("online_speedup", online_speedup, true),
            (
                "offline_replay_over_decode",
                offline_replay_over_decode,
                false,
            ),
            ("plan_speedup", plan_speedup, true),
        ] {
            let was = json_f64(&text, what).unwrap_or_else(|| panic!("baseline {what}"));
            let (bound, limit, regressed) = if higher_is_better {
                ("floor", was * 0.8, now < was * 0.8)
            } else {
                ("ceiling", was / 0.8, now > was / 0.8)
            };
            let verdict = if regressed { "REGRESSED" } else { "ok" };
            println!(
                "baseline check {what}: now {} vs baseline {} ({bound} {}) -> {verdict}",
                fmt_x(now),
                fmt_x(was),
                fmt_x(limit)
            );
            failed |= regressed;
        }
        if failed {
            eprintln!(
                "a headline ratio regressed by more than 20% against {}",
                base.display()
            );
            std::process::exit(1);
        }
    }
}
