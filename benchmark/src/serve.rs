//! `serve_hot` and `serve_mixed`: a `clean-fleet route` child (replication
//! 2) in front of two `clean-serve serve --workers 1` children, driven
//! over loopback by two closed-loop connections from this process. The
//! program is reached only through the two CLIs and
//! `Client::{connect, submit, analyze, metrics, shutdown}`.

use crate::cmet::{self, FleetTotals};
use crate::gen::{gen_trace, GenTrace, TraceSpec};
use crate::oracle::{self, Key};
use crate::procfs::{self, Daemon};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::span::Tracer;
use crate::stats;
use crate::{Opts, TempDir};
use clean_serve::client::Client;
use clean_serve::protocol::Response;
use clean_trace::{digest_events, encode_trace, EngineKind, TraceDigest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which traffic the two connections carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Both connections: cached ANALYZE.
    Hot,
    /// One connection cached ANALYZE, one SUBMIT-new + first ANALYZE.
    Mixed,
}

/// Stored traces whose verdicts are warmed before the clock starts.
pub const HOT_TRACES: usize = 64;
/// Event counts of one cold cycle: every cycle submits one trace of each
/// size (in seeded order), so cycles are equal work. 2 k–20 k events.
const COLD_SIZES: [usize; 8] = [2_000, 4_000, 6_000, 9_000, 12_000, 15_000, 18_000, 20_000];
/// Latency windows: percentiles are taken per window and the run reports
/// the median window, so one stall moves one window, not the result.
const WINDOW: Duration = Duration::from_millis(500);
/// Every this-many cold traces are generated again after the loop and run
/// through the in-process digest and reference engine (all of them are
/// held to the generator's seeded race set while the loop runs).
const REFERENCE_EVERY: u64 = 8;

/// A trace as the benchmark submits it, and the verdict it must get.
#[derive(Debug, Clone)]
pub struct Stored {
    /// Encoded `CLTR` bytes.
    pub bytes: Vec<u8>,
    /// Race set a correct verdict equals (the generator's seeded race).
    pub expected: Vec<Key>,
    /// Event count.
    pub events: usize,
    /// Content address computed on this side.
    pub digest: TraceDigest,
    /// Whether the in-process reference engine agrees with `expected`.
    pub reference_agrees: bool,
}

/// Generates trace number `index` of `seed`.
fn make_trace(seed: u64, index: u64, events: usize, racy: bool) -> GenTrace {
    gen_trace(
        seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        TraceSpec {
            events,
            threads: 2 + (index % 3) as u16,
            region_bytes: 16 << 10,
            racy,
        },
    )
}

fn encode(t: &GenTrace) -> Vec<u8> {
    encode_trace(&t.events).expect("in-memory encode cannot fail")
}

/// Generates, encodes, digests and reference-checks one trace.
pub fn make_stored(seed: u64, index: u64, events: usize, racy: bool) -> Stored {
    let t = make_trace(seed, index, events, racy);
    let expected = oracle::keys(&t.expected);
    Stored {
        bytes: encode(&t),
        events: t.events.len(),
        digest: digest_events(&t.events),
        reference_agrees: oracle::reference(&t.events, t.threads) == expected,
        expected,
    }
}

/// The pre-warmed corpus: 2 k–6 k events each, one in four racy.
pub fn hot_corpus(seed: u64, n: usize) -> Vec<Stored> {
    let mut rng = SplitMix64::fork(seed, 0x686f_7400);
    (0..n as u64)
        .map(|i| {
            let events = 2_000 + rng.below(4_001) as usize;
            make_stored(seed, i, events, i % 4 == 0)
        })
        .collect()
}

/// A router and its two backends, on ephemeral ports over fresh stores.
#[derive(Debug)]
pub struct Fleet {
    /// The `clean-fleet route` child.
    pub router: Daemon,
    /// The `clean-serve serve` children.
    pub backends: Vec<Daemon>,
    _stores: TempDir,
}

impl Fleet {
    /// Starts two backends and a router over them.
    ///
    /// # Errors
    ///
    /// A child failed to start or announce its address.
    pub fn start(tag: &str) -> Result<Fleet, String> {
        let stores = TempDir::new(tag).map_err(|e| format!("temp dir: {e}"))?;
        let bins = procfs::bin_dir();
        let mut backends = Vec::new();
        for i in 0..2 {
            let args = [
                "serve".to_string(),
                "--store".into(),
                stores.0.join(format!("node-{i}")).display().to_string(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--workers".into(),
                "1".into(),
            ];
            backends.push(
                Daemon::spawn(&bins.join("clean-serve"), &args)
                    .map_err(|e| format!("start clean-serve: {e}"))?,
            );
        }
        let mut args = vec!["route".to_string(), "--addr".into(), "127.0.0.1:0".into()];
        for b in &backends {
            args.extend(["--backend".into(), b.addr.clone()]);
        }
        args.extend(["--replication".into(), "2".into()]);
        let router = Daemon::spawn(&bins.join("clean-fleet"), &args)
            .map_err(|e| format!("start clean-fleet: {e}"))?;
        Ok(Fleet {
            router,
            backends,
            _stores: stores,
        })
    }

    /// A new connection to the router.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.router.addr.as_str()).map_err(|e| format!("connect router: {e}"))
    }

    /// One fleet-merged `METRICS` scrape: totals and the raw text.
    ///
    /// # Errors
    ///
    /// Transport failures or an unparsable exposition.
    pub fn scrape(&self) -> Result<(FleetTotals, String), String> {
        let text = self
            .connect()?
            .metrics()
            .map_err(|e| format!("METRICS: {e}"))?;
        Ok((cmet::fleet_totals(&text)?, text))
    }

    /// SUBMITs every trace and takes its first verdict, checking both.
    ///
    /// # Errors
    ///
    /// Transport failures (wrong answers are counted, not returned).
    pub fn warm(&self, corpus: &[Stored], out: &mut Outcome) -> Result<(), String> {
        let mut c = self.connect()?;
        for s in corpus {
            let sub = c
                .submit(s.bytes.clone())
                .map_err(|e| format!("SUBMIT: {e}"))?;
            out.check(
                matches!(sub, Response::Submitted { digest, .. } if digest == s.digest),
                || format!("warm SUBMIT of {}: {sub:?}", s.digest),
            );
            let v = analyze(&mut c, s.digest)?;
            out.check(s.reference_agrees && s.answers(&v, None), || {
                format!("warm ANALYZE of {}: {v:?}", s.digest)
            });
        }
        Ok(())
    }

    /// Sum of the three daemons' peak resident sets, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.backends
            .iter()
            .chain([&self.router])
            .filter_map(|d| procfs::peak_rss_mb(d.pid))
            .sum()
    }

    /// SHUTDOWN through the router, then waits for all three to exit 0.
    pub fn shutdown(self) -> bool {
        let sent = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| format!("SHUTDOWN: {e}")));
        let limit = Duration::from_secs(10);
        let router = self.router.wait_exit(limit);
        // Every backend is waited for, whatever the others did.
        let mut backends = true;
        for b in self.backends {
            backends &= b.wait_exit(limit);
        }
        sent.is_ok() && router && backends
    }
}

/// One waiting ANALYZE under the CLEAN engine.
fn analyze(c: &mut Client, digest: TraceDigest) -> Result<Response, String> {
    c.analyze(digest, EngineKind::Clean, true)
        .map_err(|e| format!("ANALYZE: {e}"))
}

/// Whether `resp` is a CLEAN verdict for `digest` over `events` events
/// with exactly the races `expected` (and, when asked, served from the
/// cache or not).
fn verdict_is(
    resp: &Response,
    digest: TraceDigest,
    events: usize,
    expected: &[Key],
    cached_want: Option<bool>,
) -> bool {
    match resp {
        Response::Verdict {
            digest: d,
            engine: EngineKind::Clean,
            cached,
            races,
            events: n,
        } => {
            *d == digest
                && *n == events as u64
                && cached_want.is_none_or(|w| w == *cached)
                && oracle::wire_keys(races).is_some_and(|k| k == expected)
        }
        _ => false,
    }
}

impl Stored {
    fn answers(&self, resp: &Response, cached_want: Option<bool>) -> bool {
        verdict_is(resp, self.digest, self.events, &self.expected, cached_want)
    }
}

/// `(completion time since origin, latency)` of one operation, ns.
pub type Sample = (u64, u64);

/// What a connection's loop brings back.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Hot ANALYZE samples, or whole cold operations.
    pub ops: Vec<Sample>,
    /// Cold only: fresh SUBMIT latencies, ns.
    pub submit_ns: Vec<u64>,
    /// Cold only: first ANALYZE latencies, ns.
    pub analyze_ns: Vec<u64>,
    /// Cold only: duplicate SUBMIT latencies, ns.
    pub dup_ns: Vec<u64>,
    /// Cold only: completion time of each full cycle: one cold operation
    /// of every size in `COLD_SIZES` and one duplicate SUBMIT.
    pub cycle_ends: Vec<u64>,
    /// Cold only: `(index, events, racy, served digest)` of the traces to
    /// audit after the loop.
    pub audit: Vec<(u64, usize, bool, TraceDigest)>,
    /// The replies checked on this connection, to be absorbed by the run.
    pub checks: Outcome,
}

/// Closed loop of cached ANALYZE over `corpus` until `stop`.
pub fn hot_loop(
    addr: &str,
    corpus: &[Stored],
    seed: u64,
    conn: u64,
    origin: Instant,
    stop: Duration,
    tracer: &Arc<Tracer>,
) -> Result<LoopOut, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SplitMix64::fork(seed, 0x636f_6e00 + conn);
    let mut rec = tracer.recorder();
    let mut out = LoopOut::default();
    loop {
        let t0 = origin.elapsed();
        if t0 >= stop {
            return Ok(out);
        }
        // A traced run wraps a span around every other request, so traced
        // and untraced ones meet the same fleet microseconds apart.
        rec.pause(out.ops.len().is_multiple_of(2));
        let s = &corpus[rng.below(corpus.len() as u64) as usize];
        let span = rec.open("serve.analyze_hot", 0, conn << 32 | out.checks.attempted);
        let resp = analyze(&mut c, s.digest)?;
        rec.close(span);
        let t1 = origin.elapsed();
        out.ops
            .push((t1.as_nanos() as u64, (t1 - t0).as_nanos() as u64));
        out.checks.check(s.answers(&resp, Some(true)), || {
            format!("hot ANALYZE of {}: {resp:?}", s.digest)
        });
    }
}

/// One cold trace, ready to submit.
#[derive(Debug)]
pub struct Cold {
    /// Trace number under the run's seed.
    index: u64,
    /// Target size and raciness it was generated with.
    size: usize,
    racy: bool,
    /// Encoded `CLTR` bytes.
    bytes: Vec<u8>,
    /// Event count and race set a correct first verdict carries.
    events: usize,
    expected: Vec<Key>,
}

/// The cold loop's traces in submission order: cycle after cycle of
/// `COLD_SIZES` in seeded order, every fourth trace racy.
#[derive(Debug)]
pub struct ColdGen {
    seed: u64,
    rng: SplitMix64,
    order: Vec<u32>,
    n: u64,
}

impl ColdGen {
    /// The sequence `seed` names.
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            seed,
            rng: SplitMix64::fork(seed, 0x636f_6c64),
            order: Vec::new(),
            n: 0,
        }
    }
}

impl Iterator for ColdGen {
    type Item = Cold;

    fn next(&mut self) -> Option<Cold> {
        let slot = self.n as usize % COLD_SIZES.len();
        if slot == 0 {
            self.order = self.rng.permutation(COLD_SIZES.len());
        }
        let index = HOT_TRACES as u64 + self.n;
        let (size, racy) = (
            COLD_SIZES[self.order[slot] as usize],
            self.n.is_multiple_of(4),
        );
        self.n += 1;
        let t = make_trace(self.seed, index, size, racy);
        Some(Cold {
            index,
            size,
            racy,
            bytes: encode(&t),
            events: t.events.len(),
            expected: oracle::keys(&t.expected),
        })
    }
}

/// Cold traces generated before the clock starts, per second of measuring:
/// about twice what this fleet completes, so connection B never waits for
/// the generator. A fleet fast enough to drain the pool gets the rest
/// generated between operations, and the run says how many.
const COLD_POOL_PER_S: f64 = 200.0;

/// The pool for a phase of `stop`: whole cycles of `COLD_SIZES`.
pub fn cold_pool(gen: &mut ColdGen, stop: Duration) -> Vec<Cold> {
    let cycles = (stop.as_secs_f64() * COLD_POOL_PER_S / COLD_SIZES.len() as f64).ceil();
    gen.take(cycles as usize * COLD_SIZES.len()).collect()
}

/// Closed loop of cold operations until `stop`: SUBMIT a never-seen trace,
/// take its first verdict; SUBMIT every eighth a second time. Traces come
/// from `pool`, generated before `origin`, then from `gen`.
pub fn cold_loop(
    addr: &str,
    pool: Vec<Cold>,
    mut gen: ColdGen,
    origin: Instant,
    stop: Duration,
    tracer: &Arc<Tracer>,
) -> Result<LoopOut, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rec = tracer.recorder();
    let mut out = LoopOut::default();
    let mut pool = pool.into_iter();
    let mut late = 0u64;
    for n in 0u64.. {
        let cold = match pool.next() {
            Some(cold) => cold,
            None => {
                late += 1;
                gen.next().expect("the sequence does not end")
            }
        };
        let again = (n % 8 == 7).then(|| cold.bytes.clone());
        let t0 = origin.elapsed();
        if t0 >= stop {
            break;
        }
        rec.pause(n.is_multiple_of(2));
        let op = rec.open("serve.cold_op", 0, n);
        let span = rec.open("serve.submit", op.id(), n);
        let sub = c.submit(cold.bytes).map_err(|e| format!("SUBMIT: {e}"))?;
        rec.close(span);
        let t1 = origin.elapsed();
        // The content address is the server's answer; the audit after
        // the loop recomputes it on this side for every eighth trace.
        let Response::Submitted {
            digest,
            dedup: false,
            ..
        } = sub
        else {
            return Err(format!("cold SUBMIT refused: {sub:?}"));
        };
        let span = rec.open("serve.analyze_first", op.id(), n);
        let resp = analyze(&mut c, digest)?;
        rec.close(span);
        rec.close(op);
        let t2 = origin.elapsed();
        out.submit_ns.push((t1 - t0).as_nanos() as u64);
        out.analyze_ns.push((t2 - t1).as_nanos() as u64);
        out.ops
            .push((t2.as_nanos() as u64, (t2 - t0).as_nanos() as u64));
        out.checks.check(
            verdict_is(&resp, digest, cold.events, &cold.expected, Some(false)),
            || format!("first ANALYZE of {digest}: {resp:?}"),
        );
        if n.is_multiple_of(REFERENCE_EVERY) {
            out.audit.push((cold.index, cold.size, cold.racy, digest));
        }
        if let Some(again) = again {
            let t0 = origin.elapsed();
            let span = rec.open("serve.submit_dup", 0, n);
            let sub = c.submit(again).map_err(|e| format!("SUBMIT: {e}"))?;
            rec.close(span);
            let t1 = origin.elapsed();
            out.dup_ns.push((t1 - t0).as_nanos() as u64);
            out.checks.check(
                matches!(sub, Response::Submitted { digest: d, dedup: true, .. } if d == digest),
                || format!("duplicate SUBMIT of {digest}: {sub:?}"),
            );
            // Eight cold operations and their duplicate: one full cycle.
            out.cycle_ends.push(t1.as_nanos() as u64);
        }
    }
    if late > 0 {
        out.checks.note(format!(
            "cold pool ran dry: {late} traces generated between operations (raise COLD_POOL_PER_S)"
        ));
    }
    Ok(out)
}

/// Regenerates each sampled cold trace and holds the digest the server
/// answered and the race set it was checked against to this side's own
/// digest and the in-process reference engine.
pub fn audit_cold(seed: u64, audit: &[(u64, usize, bool, TraceDigest)], out: &mut Outcome) {
    for &(index, size, racy, served) in audit {
        let s = make_stored(seed, index, size, racy);
        out.check(s.digest == served && s.reference_agrees, || {
            format!(
                "audit of cold trace {index}: digest {} vs served {served}",
                s.digest
            )
        });
    }
}

/// Samples grouped into the complete `WINDOW`s of `[0, span)`.
pub fn windows(samples: &[Sample], span: Duration) -> Vec<Vec<u64>> {
    let w = WINDOW.as_nanos() as u64;
    let full = (span.as_nanos() as u64 / w) as usize;
    let mut out = vec![Vec::new(); full];
    for &(end, lat) in samples {
        if let Some(bucket) = out.get_mut((end / w) as usize) {
            bucket.push(lat);
        }
    }
    out
}

/// Rate of each complete cold cycle, cycles per second.
fn cycle_rates(ends: &[u64]) -> Vec<f64> {
    ends.windows(2)
        .map(|pair| 1e9 / (pair[1] - pair[0]) as f64)
        .collect()
}

/// Drives the two connections for `stop`, folds their checks into `out`,
/// and returns both loops' samples and the fleet's counter deltas across
/// the phase (scraped before and after it, outside the clock).
fn drive(
    fleet: &Fleet,
    corpus: &[Stored],
    mix: Mix,
    seed: u64,
    stop: Duration,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<(LoopOut, LoopOut, FleetTotals), String> {
    // The cold connection's inputs, ready before the clock starts, so that
    // it is a closed loop of program work and nothing else.
    let mut gen = ColdGen::new(seed);
    let pool = match mix {
        Mix::Hot => Vec::new(),
        Mix::Mixed => cold_pool(&mut gen, stop),
    };
    let (before, _) = fleet.scrape()?;
    let origin = Instant::now();
    let addr = fleet.router.addr.as_str();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| hot_loop(addr, corpus, seed, 0, origin, stop, tracer));
        let b = s.spawn(|| match mix {
            Mix::Hot => hot_loop(addr, corpus, seed, 1, origin, stop, tracer),
            Mix::Mixed => cold_loop(addr, pool, gen, origin, stop, tracer),
        });
        (a.join(), b.join())
    });
    let mut a = a.map_err(|_| "connection A panicked")??;
    let mut b = b.map_err(|_| "connection B panicked")??;
    let (after, _) = fleet.scrape()?;
    out.absorb(std::mem::take(&mut a.checks));
    out.absorb(std::mem::take(&mut b.checks));
    if mix == Mix::Mixed {
        audit_cold(seed, &b.audit, out);
    }
    Ok((a, b, after.since(&before)))
}

/// Waits (`sync -f`) until the filesystem the stores live on has written
/// out what it holds. A set-up is 128 fsync'd store inserts, and on this
/// host's disk they queue behind whatever the previous fleet's deleted
/// stores left to work off: without the wait the same set-up took 0.30 s
/// or 0.44 s depending on what ran before it.
fn settle_disk() {
    let _ = std::fs::create_dir_all(crate::out_dir());
    let _ = std::process::Command::new("sync")
        .arg("-f")
        .arg(crate::out_dir())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Runs the workload.
pub fn run(mix: Mix, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new(opts.trace));

    // Set-up, five times over for a steady median: corpus, three
    // daemons, SUBMIT and first verdict of every hot trace, each time on a
    // disk that has settled.
    let setups = if opts.trace { 1 } else { 5 };
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..setups {
        if let Some((fleet, _)) = live.take() {
            let fleet: Fleet = fleet;
            let clean = fleet.shutdown();
            out.check(clean, || "set-up fleet did not drain and exit 0".into());
        }
        settle_disk();
        let t0 = Instant::now();
        let corpus = hot_corpus(opts.seed, HOT_TRACES);
        let fleet = Fleet::start(&format!("serve{i}"))?;
        fleet.warm(&corpus, &mut out)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((fleet, corpus));
    }
    let (fleet, corpus) = live.expect("at least one set-up");

    let stop = Duration::from_secs_f64(opts.seconds);
    let (a, b, delta) = drive(&fleet, &corpus, mix, opts.seed, stop, &tracer, &mut out)?;
    let rss = fleet.peak_rss_mb();

    // What the spans cost the request they wrap: median latency of
    // connection A's untraced (even) over its traced (odd) requests.
    let parity_p50 = |p: usize| {
        let mut ns: Vec<u64> = a.ops.iter().skip(p).step_by(2).map(|s| s.1).collect();
        (!ns.is_empty()).then(|| stats::latency(&mut ns).p50)
    };
    let overhead = parity_p50(0)
        .zip(parity_p50(1))
        .map(|(plain, traced)| plain / traced);

    // Hot latency: connection A always, connection B too when it is hot.
    let mut hot = a.ops;
    if mix == Mix::Hot {
        hot.extend_from_slice(&b.ops);
    }
    let mut wins = windows(&hot, stop);
    let lat = stats::pool_medians(&mut wins).ok_or("no complete latency window")?;
    out.note(format!(
        "{} hot ANALYZE, {} complete windows of {:?}, tail at p{:.2} per window",
        hot.len(),
        wins.len(),
        WINDOW,
        lat.tail_q * 100.0
    ));
    // Both latency metrics are of the cached ANALYZE, on both workloads: on
    // serve_mixed that is connection A's, beside the cold loop.
    out.put("op_p50_us", lat.p50 / 1e3);
    out.put("op_tail_us", lat.tail / 1e3);
    match mix {
        Mix::Hot => {
            let per_s: Vec<f64> = wins
                .iter()
                .map(|w| w.len() as f64 / WINDOW.as_secs_f64())
                .collect();
            out.put("items_per_s", stats::median(&per_s));
            // Workload separation: nothing replayed, every lookup hit.
            out.check(delta.jobs_completed == 0 && delta.cache_misses == 0, || {
                format!("serve_hot is not hot: {delta:?}")
            });
            out.note(format!(
                "self-check: jobs_completed delta {} (want 0), cache hit ratio {:.4} (want 1)",
                delta.jobs_completed,
                delta.hit_ratio()
            ));
        }
        Mix::Mixed => {
            let cycles = cycle_rates(&b.cycle_ends);
            if cycles.is_empty() {
                return Err("no complete cold cycle".into());
            }
            out.put(
                "items_per_s",
                stats::median(&cycles) * COLD_SIZES.len() as f64,
            );
            // One connection in a closed loop: the cold operation's latency
            // is the inverse of its rate, so it is noted, not listed twice.
            let mut cold: Vec<u64> = b.ops.iter().map(|s| s.1).collect();
            let l = stats::latency(&mut cold);
            out.note(format!(
                "cold operation: p50 {:.1} us, p{:.1} {:.1} us of {} (reported per layer)",
                l.p50 / 1e3,
                l.tail_q * 100.0,
                l.tail / 1e3,
                l.n
            ));
            let cold_ops = b.ops.len() as u64;
            out.check(delta.jobs_completed == cold_ops, || {
                format!(
                    "{} jobs for {cold_ops} cold operations",
                    delta.jobs_completed
                )
            });
            out.note(format!(
                "{} cold operations in {} complete cycles of {} sizes, {} duplicate SUBMITs; \
                 self-check: {} jobs completed (want one per cold operation)",
                cold_ops,
                b.cycle_ends.len(),
                COLD_SIZES.len(),
                b.dup_ns.len(),
                delta.jobs_completed
            ));
        }
    }
    out.put("setup_s", stats::median(&setup_s));
    out.put("peak_rss_mb", rss);
    let drained = fleet.shutdown();
    out.check(drained, || "fleet did not drain and exit 0".into());
    if opts.trace {
        let overhead = overhead.ok_or("connection A completed fewer than two requests")?;
        crate::finish_trace(opts, &tracer, overhead, &mut out)?;
    }
    Ok(out)
}

fn p50_us(ns: &mut [u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        stats::latency(ns).p50 / 1e3
    }
}

/// Serve, router, cache, queue, store and obs probes on a small fleet of
/// its own: one connection through the router and one straight at a
/// backend for the hot path, a one-second miniature of `serve_mixed` for
/// the cold path, and the `METRICS` scrape itself.
///
/// # Errors
///
/// The fleet could not be started or reached.
pub fn probes(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let off = Arc::new(Tracer::new(false));
    let corpus = hot_corpus(seed ^ 0x7072_6f62, 16);
    let fleet = Fleet::start("probe-serve")?;
    fleet.warm(&corpus, out)?;

    // Straight at backend 0. It holds every trace (replication 2 over two
    // nodes) but has cached only the verdicts it is primary for, so one
    // untimed pass fills its cache first.
    let direct = fleet.backends[0].addr.as_str();
    let mut c = Client::connect(direct).map_err(|e| format!("connect backend: {e}"))?;
    for s in &corpus {
        let v = analyze(&mut c, s.digest)?;
        out.check(s.answers(&v, None), || format!("direct ANALYZE: {v:?}"));
    }
    drop(c);
    let phase = Duration::from_millis(500);
    let one = hot_loop(direct, &corpus, seed, 2, Instant::now(), phase, &off)?;
    let mut lat: Vec<u64> = one.ops.iter().map(|s| s.1).collect();
    let direct_p50 = p50_us(&mut lat);
    out.put("serve.direct_hot_p50_us", direct_p50);

    // The same single connection through the router, with /proc CPU time
    // of router and backends across the phase.
    let cpu = |d: &Daemon| procfs::cpu_seconds(d.pid).unwrap_or(0.0);
    let (before, _) = fleet.scrape()?;
    let (r0, b0) = (
        cpu(&fleet.router),
        fleet.backends.iter().map(cpu).sum::<f64>(),
    );
    let via = hot_loop(
        fleet.router.addr.as_str(),
        &corpus,
        seed,
        3,
        Instant::now(),
        Duration::from_millis(1000),
        &off,
    )?;
    let (r1, b1) = (
        cpu(&fleet.router),
        fleet.backends.iter().map(cpu).sum::<f64>(),
    );
    let (after, _) = fleet.scrape()?;
    let hot = after.since(&before);
    let mut lat: Vec<u64> = via.ops.iter().map(|s| s.1).collect();
    let via_p50 = p50_us(&mut lat);
    let ops = via.ops.len().max(1) as f64;
    out.put("serve.router_hot_p50_us", via_p50);
    out.put("router.forward_p50_us", via_p50 - direct_p50);
    out.put("router.cpu_us_per_op", (r1 - r0) * 1e6 / ops);
    out.put("backend.cpu_us_per_op", (b1 - b0) * 1e6 / ops);
    out.put("cache.hit_ratio_hot", hot.hit_ratio());
    out.put("serve.jobs_completed_hot", hot.jobs_completed as f64);
    out.absorb(one.checks);
    out.absorb(via.checks);

    // A miniature serve_mixed.
    let stop = Duration::from_millis(1500);
    let (hot, mut cold, mixed) = drive(&fleet, &corpus, Mix::Mixed, seed, stop, &off, out)?;
    let mut lat: Vec<u64> = hot.ops.iter().map(|s| s.1).collect();
    out.put("serve.hot_under_cold_p50_us", p50_us(&mut lat));
    let mut whole: Vec<u64> = cold.ops.iter().map(|s| s.1).collect();
    if whole.is_empty() {
        return Err("cold probe completed no operation".into());
    }
    let l = stats::latency(&mut whole);
    out.put("serve.cold_p50_us", l.p50 / 1e3);
    out.put("serve.cold_tail_us", l.tail / 1e3);
    out.put("serve.submit_p50_us", p50_us(&mut cold.submit_ns));
    out.put("serve.first_analyze_p50_us", p50_us(&mut cold.analyze_ns));
    out.put("serve.dup_submit_p50_us", p50_us(&mut cold.dup_ns));
    out.put("cache.hit_ratio_mixed", mixed.hit_ratio());
    out.put("queue.coalesced", mixed.jobs_coalesced as f64);
    out.put("queue.rejected", mixed.jobs_rejected as f64);
    out.put("store.dedup_hits", mixed.dedup_hits as f64);
    out.put(
        "serve.jobs_per_cold_op",
        mixed.jobs_completed as f64 / cold.ops.len() as f64,
    );
    out.put(
        "serve.stage_check_share",
        mixed.stage_share(mixed.stage_check),
    );
    out.put(
        "serve.stage_store_insert_share",
        mixed.stage_share(mixed.stage_store_insert),
    );
    out.put(
        "serve.stage_decode_share",
        mixed.stage_share(mixed.stage_decode),
    );

    // obs: what one fleet-merged scrape costs and weighs.
    let mut scrape_ms = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t = Instant::now();
        bytes = fleet.scrape()?.1.len();
        scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.put("obs.metrics_scrape_ms", stats::median(&scrape_ms));
    out.put("obs.exposition_bytes", bytes as f64);

    let rss = |d: &Daemon| procfs::peak_rss_mb(d.pid).unwrap_or(0.0);
    out.put("router.peak_rss_mb", rss(&fleet.router));
    out.put(
        "backend.peak_rss_mb",
        fleet.backends.iter().map(rss).fold(0.0, f64::max),
    );
    let drained = fleet.shutdown();
    out.check(drained, || "probe fleet did not drain and exit 0".into());
    Ok(())
}
