//! The benchmark's vocabulary — workloads and metrics by name — and the
//! result a run prints. `BENCHMARK.json` at the repository root is this
//! table rendered by the `manifest` subcommand; a unit test holds the two
//! together.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `<module>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

/// One workload and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what it leaves idle.
    pub why: &'static str,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "online_local",
        why: "2 threads rewrite and reread their own 64 cells per SFR: the SFR filter answers nearly every check, shadow compare and CAS publish idle",
    },
    WorkloadDef {
        name: "online_stream",
        why: "2 threads sweep their own 4 MiB slices, write then read, blocks in seeded order: the filter cannot help, page lookup, epoch compare and CAS publish do the work",
    },
    WorkloadDef {
        name: "online_handoff",
        why: "threads write a span, barrier, read the neighbour's span, mutex every 1024 accesses: foreign-epoch vector-clock compares and the Kendo lock/barrier path carry weight",
    },
    WorkloadDef {
        name: "replay_file",
        why: "a seeded 2 M-event 4-thread CLTR v2 file through clean-analyze replay --stream: decode, shard, check, verdict with no network or store; one seeded WAW must be found",
    },
    WorkloadDef {
        name: "serve_hot",
        why: "router over two 1-worker backends, 64 pre-warmed traces, 2 closed-loop connections of cached ANALYZE: accept, frame, cache lookup and forward work; store, queue and replay idle",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "same fleet: one connection of cached ANALYZE beside one of SUBMIT-new-trace then first ANALYZE (1 in 8 a duplicate SUBMIT): digest, store, queue and replay dominate; hot latency under cold load",
    },
];

/// End-to-end metrics: every workload reports every one, tracing off.
///
/// `items_per_s` counts the workload's own unit of work per wall second
/// (checked accesses, replayed events, cached requests, cold operations);
/// `op_*` time the workload's own operation (one SFR round, one replay CLI
/// run, one cached ANALYZE — on `serve_mixed` the cached ANALYZE beside the
/// cold loop). The bounds are what `CALIBRATION.txt` shows this host can
/// repeat: three times the widest spread seen, capped at the 25 % the
/// contract allows.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("items_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("op_tail_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics: every traced run reports every one.
pub const PER_LAYER: [MetricDef; 80] = [
    // core — bare CleanDetector, no runtime, heap or sync
    lo("core.check_ns_local", "ns"),
    lo("core.check_ns_stream_write", "ns"),
    lo("core.check_ns_stream_read", "ns"),
    lo("core.check_ns_handoff_read", "ns"),
    lo("core.sfr_drain_ns", "ns"),
    hi("core.filter_hit_ratio_local", "ratio"),
    hi("core.filter_hit_ratio_stream", "ratio"),
    hi("core.filter_hit_ratio_handoff", "ratio"),
    hi("core.fast_path_ratio_local", "ratio"),
    hi("core.fast_path_ratio_stream", "ratio"),
    hi("core.fast_path_ratio_handoff", "ratio"),
    lo("core.epoch_updates_per_access_local", "ratio"),
    lo("core.epoch_updates_per_access_stream", "ratio"),
    lo("core.epoch_updates_per_access_handoff", "ratio"),
    lo("core.cas_conflicts", "count"),
    // plan
    lo("plan.elide_ns_per_access", "ns"),
    // sync
    lo("sync.lock_pair_ns", "ns"),
    lo("sync.barrier_ns", "ns"),
    hi("sync.ops_per_s", "1/s"),
    lo("sync.detsync_share_local", "ratio"),
    lo("sync.detsync_share_stream", "ratio"),
    lo("sync.detsync_share_handoff", "ratio"),
    // runtime
    hi("runtime.maccesses_per_s_local", "Macc/s"),
    hi("runtime.maccesses_per_s_stream", "Macc/s"),
    hi("runtime.maccesses_per_s_handoff", "Macc/s"),
    hi("runtime.baseline_maccesses_per_s_local", "Macc/s"),
    hi("runtime.baseline_maccesses_per_s_stream", "Macc/s"),
    hi("runtime.baseline_maccesses_per_s_handoff", "Macc/s"),
    lo("runtime.slowdown_x_local", "x"),
    lo("runtime.slowdown_x_stream", "x"),
    lo("runtime.slowdown_x_handoff", "x"),
    lo("runtime.detection_share_local", "ratio"),
    lo("runtime.detection_share_stream", "ratio"),
    lo("runtime.detection_share_handoff", "ratio"),
    hi("runtime.layers_cover_local", "ratio"),
    hi("runtime.layers_cover_stream", "ratio"),
    hi("runtime.layers_cover_handoff", "ratio"),
    lo("runtime.accessor_overhead_ns_local", "ns"),
    lo("runtime.accessor_overhead_ns_stream", "ns"),
    hi("runtime.stream_write_maccesses_per_s", "Macc/s"),
    hi("runtime.stream_read_maccesses_per_s", "Macc/s"),
    lo("runtime.startup_ms", "ms"),
    // trace
    hi("trace.encode_mevents_per_s", "Mev/s"),
    hi("trace.decode_mevents_per_s", "Mev/s"),
    lo("trace.scan_ms", "ms"),
    lo("trace.bytes_per_event", "B/event"),
    hi("trace.replay_1worker_mevents_per_s", "Mev/s"),
    hi("trace.replay_mevents_per_s", "Mev/s"),
    lo("trace.replay_cpu_s", "s"),
    hi("trace.replay_parallelism", "ratio"),
    hi("trace.steals", "count"),
    hi("trace.digest_mevents_per_s", "Mev/s"),
    // baselines
    hi("baselines.clean_check_mevents_per_s", "Mev/s"),
    // serve
    lo("serve.direct_hot_p50_us", "us"),
    lo("serve.router_hot_p50_us", "us"),
    lo("router.forward_p50_us", "us"),
    lo("serve.submit_p50_us", "us"),
    lo("serve.dup_submit_p50_us", "us"),
    lo("serve.first_analyze_p50_us", "us"),
    lo("serve.cold_p50_us", "us"),
    lo("serve.cold_tail_us", "us"),
    lo("serve.hot_under_cold_p50_us", "us"),
    lo("router.cpu_us_per_op", "us"),
    lo("backend.cpu_us_per_op", "us"),
    lo("router.peak_rss_mb", "MB"),
    lo("backend.peak_rss_mb", "MB"),
    hi("cache.hit_ratio_hot", "ratio"),
    hi("cache.hit_ratio_mixed", "ratio"),
    hi("queue.coalesced", "count"),
    lo("queue.rejected", "count"),
    hi("store.dedup_hits", "count"),
    lo("serve.jobs_completed_hot", "count"),
    lo("serve.jobs_per_cold_op", "ratio"),
    lo("serve.stage_check_share", "ratio"),
    lo("serve.stage_store_insert_share", "ratio"),
    lo("serve.stage_decode_share", "ratio"),
    // obs
    lo("obs.metrics_scrape_ms", "ms"),
    lo("obs.exposition_bytes", "B"),
    // bench — the traced run's own cost on the workload being run
    hi("bench.trace_overhead_ratio", "ratio"),
    hi("bench.spans", "count"),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(def(name).is_some(), "unknown metric {name}");
        self.metrics.push((name.to_string(), value));
    }

    /// Records a checked operation; `ok = false` also notes `what` (for
    /// the first few failures: a loop gone wrong fails a million times).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Folds in the checks and notes another thread collected.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.metrics.extend(other.metrics);
    }

    /// Adds a line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Whether every checked operation was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and
    /// exactly the metrics of `table`.
    ///
    /// # Errors
    ///
    /// Names the first metric of `table` this outcome lacks or holds as a
    /// non-finite number: such a result must not be printed.
    pub fn result_json(&self, table: &[MetricDef]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in table.iter().enumerate() {
            let v = self
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// A result line read back: what `repeat`, `spread` and `all` get from the
/// fresh process they start for every run (a process's peak resident set
/// is a high-water mark, so runs cannot share one).
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The `correct` flag.
    pub correct: bool,
    /// Metric values by name, in the order printed.
    pub metrics: Vec<(String, f64)>,
}

impl Parsed {
    /// The value printed under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Parses a line written by [`Outcome::result_json`].
pub fn parse_result(line: &str) -> Option<Parsed> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let correct = match rest.split_once(',')?.0 {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let mut body = rest.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    // Each entry reads `"name": {"value": V, "unit": "u"}`.
    while let Some((_, entry)) = body.split_once('"') {
        let (name, after_name) = entry.split_once("\": {\"value\": ")?;
        let (value, after_value) = after_name.split_once(',')?;
        metrics.push((name.to_string(), value.parse().ok()?));
        body = after_value.split_once('}')?.1;
    }
    Some(Parsed { correct, metrics })
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, 64, "_.-"), "name {}", m.name);
            assert!(well_formed(m.unit, 16, "_/%.-"), "unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-"));
            assert!(seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_manifest_is_this_table() {
        let on_disk =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `run.sh manifest`"
        );
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn result_line_parses_back() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        for (i, m) in PER_LAYER.iter().enumerate() {
            o.put(m.name, i as f64 * 1.25e-3);
        }
        let parsed = parse_result(&o.result_json(&PER_LAYER).unwrap()).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.metrics.len(), PER_LAYER.len());
        assert_eq!(parsed.get("core.check_ns_local"), Some(0.0));
        assert_eq!(parsed.get("bench.spans"), Some(79.0 * 1.25e-3));
        assert_eq!(parse_result("== online_local seed=1"), None);
    }

    #[test]
    fn result_line_carries_exactly_the_table() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        for m in &END_TO_END {
            o.put(m.name, 1.5);
        }
        o.put("bench.spans", 3.0);
        let line = o.result_json(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("bench.spans"));
        assert!(o.result_json(&PER_LAYER).is_err());
        o.check(false, || "x".into());
        assert!(o
            .result_json(&END_TO_END)
            .unwrap()
            .contains("\"correct\": false"));
    }
}
