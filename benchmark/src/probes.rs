//! The per-layer ledger: small fixed-size probes of each layer, run at the
//! end of every traced run whatever its workload, so that every traced
//! result carries every per-layer metric.
//!
//! A probe calls one layer's public functions directly (a bare detector,
//! the codec, one backend without the router) or reruns a miniature of a
//! workload under a configuration that removes a layer
//! (`RuntimeConfig::baseline()`, detection only, det-sync only, an
//! all-`Elide` plan). Probes are single shots sized in tenths of a second:
//! they say where time goes, and carry no regression bound.

use crate::gen::{gen_trace, TraceSpec};
use crate::online::{self, Inputs, Kind, Rep};
use crate::oracle;
use crate::procfs;
use crate::replay;
use crate::report::Outcome;
use crate::serve;
use crate::span::Tracer;
use crate::stats;
use crate::TempDir;
use clean_core::{CheckPlan, PlanAction, PlanEntry, Witness};
use clean_runtime::{CleanRuntime, RuntimeConfig};
use clean_trace::{digest_events, digest_file, encode_trace, scan_trace, TraceReader};
use std::sync::Arc;
use std::time::Instant;

/// Timed rounds of the miniature online runs.
fn probe_rounds(kind: Kind) -> usize {
    match kind {
        Kind::Local => 24,
        Kind::Stream => 1,
        Kind::Handoff => 16,
    }
}

/// Wall nanoseconds per checked access of a repetition.
fn ns_per_access(rep: &Rep) -> f64 {
    rep.timed_ns as f64 / rep.timed_accesses as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runtime, sync, plan and core probes: the Figure 6 decomposition of each
/// online workload, the bare-detector check costs, and the sync
/// primitives.
fn online_probes(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let off = Arc::new(Tracer::new(false));
    let bare = online::bare_detector_probes(seed);
    out.put("core.check_ns_local", bare.local);
    out.put("core.check_ns_stream_write", bare.stream_write);
    out.put("core.check_ns_stream_read", bare.stream_read);
    out.put("core.check_ns_handoff_read", bare.handoff_read);
    out.put("core.sfr_drain_ns", bare.sfr_drain);

    let mut cas_conflicts = 0u64;
    for kind in [Kind::Local, Kind::Stream, Kind::Handoff] {
        // Per-workload metrics are named `<module>.<what>_<workload>`.
        let name = |stem: &str| format!("{stem}_{}", kind.tag());
        let inputs = Arc::new(Inputs::new(kind, seed, probe_rounds(kind)));
        let mut run = |config: RuntimeConfig, what: &str| -> Result<Rep, String> {
            let rep = online::run_rep(&inputs, config, false, &off, 0);
            out.check(rep.clean_exit && rep.race.is_none(), || {
                format!("{} probe under {what}: {:?}", kind.tag(), rep.race)
            });
            if rep.clean_exit {
                Ok(rep)
            } else {
                Err(format!("{} probe under {what} did not finish", kind.tag()))
            }
        };
        let full = run(RuntimeConfig::new(), "full")?;
        let base = run(RuntimeConfig::baseline(), "baseline")?;
        let det = run(RuntimeConfig::new().det_sync(false), "detection only")?;
        let sync = run(RuntimeConfig::new().detection(false), "det-sync only")?;
        let (t_full, t_base) = (ns_per_access(&full), ns_per_access(&base));
        let (d_det, d_sync) = (ns_per_access(&det) - t_base, ns_per_access(&sync) - t_base);
        out.put(&name("runtime.maccesses_per_s"), 1e3 / t_full);
        out.put(&name("runtime.baseline_maccesses_per_s"), 1e3 / t_base);
        out.put(&name("runtime.slowdown_x"), t_full / t_base);
        out.put(&name("runtime.detection_share"), d_det / t_full);
        out.put(&name("sync.detsync_share"), d_sync / t_full);
        out.put(
            &name("runtime.layers_cover"),
            (t_base + d_det + d_sync) / t_full,
        );
        let d = full
            .stats
            .detector
            .ok_or("full configuration has no detector stats")?;
        out.put(
            &name("core.filter_hit_ratio"),
            ratio(d.filter_hits, d.total_checked()),
        );
        out.put(&name("core.fast_path_ratio"), d.fast_path_fraction());
        out.put(
            &name("core.epoch_updates_per_access"),
            ratio(d.epoch_updates, d.total_checked()),
        );
        cas_conflicts += d.cas_conflicts;
        // Per-thread ns per access through ThreadCtx, less the bare check.
        let through_ctx = 2.0 * t_full;
        match kind {
            Kind::Local => {
                out.put(
                    "runtime.accessor_overhead_ns_local",
                    through_ctx - bare.local,
                );
            }
            Kind::Stream => {
                let bare_mean = (bare.stream_write + bare.stream_read) / 2.0;
                out.put(
                    "runtime.accessor_overhead_ns_stream",
                    through_ctx - bare_mean,
                );
                // Sweep times are summed over both threads.
                let per_sweep = full.timed_accesses as f64 / 2.0;
                out.put(
                    "runtime.stream_write_maccesses_per_s",
                    per_sweep / (full.write_ns as f64 / 2.0) * 1e3,
                );
                out.put(
                    "runtime.stream_read_maccesses_per_s",
                    per_sweep / (full.read_ns as f64 / 2.0) * 1e3,
                );
            }
            Kind::Handoff => {
                out.put(
                    "sync.ops_per_s",
                    full.timed_sync_ops as f64 / full.timed_ns as f64 * 1e9,
                );
            }
        }
    }
    out.put("core.cas_conflicts", cas_conflicts as f64);

    // plan: the stream miniature with every access elided by a plan.
    let inputs = Arc::new(Inputs::new(Kind::Stream, seed, probe_rounds(Kind::Stream)));
    let mut plan = CheckPlan::empty();
    plan.entries = inputs
        .slice_byte_ranges()
        .iter()
        .zip(0u32..)
        .map(|(&(lo, hi), owner)| PlanEntry {
            lo,
            hi,
            action: PlanAction::Elide,
            witness: Some(Witness {
                owner,
                observed: 1,
                foreign: 0,
            }),
        })
        .collect();
    let compiled = Arc::new(plan.compile().map_err(|e| format!("elide plan: {e:?}"))?);
    let rep = online::run_rep(
        &inputs,
        RuntimeConfig::new().check_plan(Some(compiled)),
        false,
        &off,
        0,
    );
    let elided = rep.stats.detector.map_or(0, |d| d.plan_elided);
    out.check(
        rep.clean_exit && elided == rep.stats.shared_accesses(),
        || {
            format!(
                "plan probe elided {elided} of {}",
                rep.stats.shared_accesses()
            )
        },
    );
    out.put("plan.elide_ns_per_access", 2.0 * ns_per_access(&rep));

    // sync: the primitives alone.
    let rt = CleanRuntime::new(RuntimeConfig::new());
    let m = rt.create_mutex();
    const LOCKS: u32 = 100_000;
    let lock_ns = rt
        .run(|ctx| {
            let t = Instant::now();
            for _ in 0..LOCKS {
                ctx.lock(&m)?;
                ctx.unlock(&m)?;
            }
            Ok(t.elapsed().as_nanos() as f64 / f64::from(LOCKS))
        })
        .map_err(|e| format!("lock probe: {e}"))?;
    out.put("sync.lock_pair_ns", lock_ns);

    let rt = CleanRuntime::new(RuntimeConfig::new());
    let b = rt.create_barrier(2);
    const WAITS: u32 = 20_000;
    let barrier_ns = rt
        .run(|ctx| {
            let b2 = Arc::clone(&b);
            let child = ctx.spawn(move |c| {
                for _ in 0..WAITS {
                    c.barrier_wait(&b2)?;
                }
                Ok(())
            })?;
            let t = Instant::now();
            for _ in 0..WAITS {
                ctx.barrier_wait(&b)?;
            }
            let ns = t.elapsed().as_nanos() as f64 / f64::from(WAITS);
            ctx.join(child)??;
            Ok(ns)
        })
        .map_err(|e| format!("barrier probe: {e}"))?;
    out.put("sync.barrier_ns", barrier_ns);

    // runtime: what a program pays before its first access.
    let mut startup_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let rt = CleanRuntime::new(RuntimeConfig::new().heap_size(64 << 20));
        rt.run(|ctx| {
            let child = ctx.spawn(|_| Ok(()))?;
            ctx.join(child)?
        })
        .map_err(|e| format!("startup probe: {e}"))?;
        startup_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.put("runtime.startup_ms", stats::median(&startup_ms));
    Ok(())
}

/// Trace and baselines probes over one half-million-event file.
fn trace_probes(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let spec = TraceSpec {
        events: 500_000,
        ..replay::FILE_SPEC
    };
    let trace = gen_trace(seed ^ 0x7072_6f62, spec);
    let expected = oracle::keys(&trace.expected);
    let events = trace.events.len() as f64;
    let mev_per_s = |t: Instant| events / t.elapsed().as_secs_f64() / 1e6;

    let t = Instant::now();
    let bytes = encode_trace(&trace.events).map_err(|e| format!("encode: {e}"))?;
    out.put("trace.encode_mevents_per_s", mev_per_s(t));
    out.put("trace.bytes_per_event", bytes.len() as f64 / events);

    let dir = TempDir::new("probe-trace").map_err(|e| format!("temp dir: {e}"))?;
    let file = dir.0.join("probe.cltr");
    replay::write_file(&file, &trace)?;

    let t = Instant::now();
    let mut decoded = 0u64;
    for e in TraceReader::open(&file).map_err(|e| format!("open: {e}"))? {
        e.map_err(|e| format!("decode: {e}"))?;
        decoded += 1;
    }
    out.put("trace.decode_mevents_per_s", mev_per_s(t));
    out.check(decoded == trace.events.len() as u64, || {
        format!("decoded {decoded} of {events} events")
    });

    let mut scan_ms = Vec::new();
    for _ in 0..101 {
        let t = Instant::now();
        let scan = scan_trace(&file).map_err(|e| format!("scan: {e}"))?;
        scan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if scan.events != decoded || scan.threads != usize::from(spec.threads) {
            out.check(false, || format!("scan saw {scan:?}"));
        }
    }
    out.put("trace.scan_ms", stats::trimmed_mean(&scan_ms));

    let t = Instant::now();
    let digest = digest_file(&file).map_err(|e| format!("digest: {e}"))?;
    out.put("trace.digest_mevents_per_s", mev_per_s(t));
    out.check(digest == digest_events(&trace.events), || {
        "file digest differs from the digest of its events".into()
    });

    let t = Instant::now();
    let reference = oracle::reference(&trace.events, trace.threads);
    out.put("baselines.clean_check_mevents_per_s", mev_per_s(t));
    out.check(reference == expected, || {
        format!("probe reference {reference:?} != seeded {expected:?}")
    });

    let one = replay::replay_cli(&file, &["--workers", "1", "--shards", "1"])?;
    out.check(replay::verdict_matches(&one, &expected), || {
        format!("1-worker replay: {:?}\n{}", one.code, one.stdout)
    });
    out.put(
        "trace.replay_1worker_mevents_per_s",
        events / one.wall_ns as f64 * 1e3,
    );

    let cpu_before = procfs::reaped_children_cpu_seconds();
    let run = replay::replay_cli(&file, &[])?;
    let cpu = procfs::reaped_children_cpu_seconds() - cpu_before;
    out.check(replay::verdict_matches(&run, &expected), || {
        format!("default replay: {:?}\n{}", run.code, run.stdout)
    });
    out.put(
        "trace.replay_mevents_per_s",
        events / run.wall_ns as f64 * 1e3,
    );
    out.put("trace.replay_cpu_s", cpu);
    out.put("trace.replay_parallelism", cpu / (run.wall_ns as f64 / 1e9));
    out.put(
        "trace.steals",
        oracle::parse_cli(&run.stdout)
            .and_then(|v| v.steals)
            .map_or(0.0, |s| s as f64),
    );
    Ok(())
}

/// The workload-separation self-check, printed with every traced run: the
/// workloads must stress the layers their `why` says they do.
fn separation_check(out: &mut Outcome) {
    type Check = (&'static str, &'static str, fn(f64) -> bool);
    let checks: [Check; 5] = [
        ("core.filter_hit_ratio_local", ">= 0.9", |v| v >= 0.9),
        ("core.filter_hit_ratio_stream", "<= 0.1", |v| v <= 0.1),
        ("serve.jobs_completed_hot", "== 0", |v| v == 0.0),
        ("cache.hit_ratio_hot", "== 1", |v| v == 1.0),
        ("serve.jobs_per_cold_op", "== 1", |v| v == 1.0),
    ];
    for (name, want, ok) in checks {
        let v = out.get(name).unwrap_or(f64::NAN);
        out.check(ok(v), || format!("separation: {name} = {v}, want {want}"));
        out.note(format!(
            "separation: {name} = {v:.4} (want {want}) {}",
            if ok(v) { "ok" } else { "VIOLATED" }
        ));
    }
}

/// Runs every probe and the self-check, adding every per-layer metric
/// (except the two `bench.*`, which the workload's own loop records).
///
/// # Errors
///
/// A probe could not run at all (a child did not start, a file could not
/// be written). Wrong answers are counted in `out`, not returned.
pub fn run_all(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    online_probes(seed, out)?;
    trace_probes(seed, out)?;
    serve::probes(seed, out)?;
    separation_check(out);
    out.note(format!(
        "per-layer probes took {:.1} s",
        t.elapsed().as_secs_f64()
    ));
    Ok(())
}
