//! The three online workloads: two monitored threads under the runtime's
//! shipped defaults, reaching the program only through `CleanRuntime`,
//! `RuntimeConfig` and `ThreadCtx`.
//!
//! A *repetition* builds a fresh runtime, runs one untimed warm-up round
//! (first touch of heap and shadow pages) and then a fixed number of timed
//! rounds; a *round* is one synchronization-free region per thread, closed
//! by a barrier. Work per repetition is fixed, so repetitions are
//! comparable and the run reports medians over them.

use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::span::Tracer;
use crate::stats;
use crate::{procfs, Opts};
use clean_core::{
    CleanDetector, DetectorConfig, RaceKind, RaceReport, ThreadCheckState, ThreadId, VectorClock,
};
use clean_runtime::{
    CleanBarrier, CleanError, CleanMutex, CleanRuntime, RuntimeConfig, RuntimeStats, SharedArray,
    ThreadCtx,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which online workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Each thread rewrites and rereads its own 64 cells: the SFR filter
    /// answers nearly every check.
    Local,
    /// Each thread sweeps its own 4 MiB slice, write then read, blocks in
    /// seeded order: page lookup, epoch compare and CAS publish do the work.
    Stream,
    /// Threads write a span, barrier, read the neighbour's span, and take
    /// a mutex every 1024 accesses: foreign epochs and det-sync carry it.
    Handoff,
}

impl Kind {
    /// Short tag used in per-layer metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Local => "local",
            Kind::Stream => "stream",
            Kind::Handoff => "handoff",
        }
    }
}

const LOCAL_CELLS: usize = 64;
const LOCAL_PASSES: usize = 512;
const STREAM_SLICE: usize = 4 << 20 >> 3; // 4 MiB of u64 cells
const STREAM_BLOCK: usize = 4096 >> 3; // 4 KiB of u64 cells
const HANDOFF_SLICE: usize = 1 << 20 >> 3;
const HANDOFF_SPAN: usize = 16 * 1024;
const HANDOFF_LOCK_EVERY: usize = 1024;

/// Seed-derived inputs of one online workload.
#[derive(Debug)]
pub struct Inputs {
    kind: Kind,
    /// Timed rounds per repetition (one more runs first as warm-up).
    pub rounds: usize,
    total_cells: usize,
    /// First cell of each thread's slice.
    base: [usize; 2],
    /// Stream: block visiting order. Handoff: span index per round.
    order: [Vec<u32>; 2],
    /// Folded into every written value.
    salt: u64,
    /// Cell the canary's foreign write lands on (thread 0 writes it in
    /// every round).
    victim: usize,
}

impl Inputs {
    /// Inputs for `kind` under `seed`, with `rounds` timed rounds.
    pub fn new(kind: Kind, seed: u64, rounds: usize) -> Inputs {
        let mut rng = SplitMix64::fork(seed, 0x6f6e_6c00 + kind as u64);
        let salt = rng.next_u64();
        let (total_cells, base, order, victim) = match kind {
            Kind::Local => {
                // Each thread's 64 cells sit at a seeded 64-byte-aligned
                // offset inside its own 8 KiB stretch.
                let base = [0usize, 1024].map(|b| b + 8 * rng.below(96) as usize);
                let victim = base[0] + rng.below(LOCAL_CELLS as u64) as usize;
                (2048, base, [Vec::new(), Vec::new()], victim)
            }
            Kind::Stream => {
                let blocks = STREAM_SLICE / STREAM_BLOCK;
                let order = [rng.permutation(blocks), rng.permutation(blocks)];
                let victim = rng.below(STREAM_SLICE as u64) as usize;
                (2 * STREAM_SLICE, [0, STREAM_SLICE], order, victim)
            }
            Kind::Handoff => {
                // Spans are visited in a seeded order that repeats, so every
                // repetition touches the whole slice (and the same shadow
                // pages) whatever the seed.
                let spans = HANDOFF_SLICE / HANDOFF_SPAN;
                let mut pick = || {
                    let cycle = rng.permutation(spans);
                    (0..=rounds).map(|r| cycle[r % spans]).collect()
                };
                let order: [Vec<u32>; 2] = [pick(), pick()];
                // Inside the span thread 0 writes in round 1, where the
                // canary injects, and before thread 0's second lock section
                // so no release/acquire pair can order the two writes.
                let victim = order[0][1] as usize * HANDOFF_SPAN
                    + rng.below(HANDOFF_LOCK_EVERY as u64) as usize;
                // One extra cell at the end is the mutex-protected counter.
                (2 * HANDOFF_SLICE + 1, [0, HANDOFF_SLICE], order, victim)
            }
        };
        Inputs {
            kind,
            rounds,
            total_cells,
            base,
            order,
            salt,
            victim,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.total_cells * 8 + 4096
    }

    /// Checked accesses one thread performs in one round.
    pub fn accesses_per_round(&self) -> u64 {
        (match self.kind {
            Kind::Local => 2 * LOCAL_CELLS * LOCAL_PASSES,
            Kind::Stream => 2 * STREAM_SLICE,
            Kind::Handoff => 2 * HANDOFF_SPAN + 2 * (2 * HANDOFF_SPAN / HANDOFF_LOCK_EVERY),
        }) as u64
    }

    /// Byte ranges `[lo, hi)` the two threads' slices will occupy, for the
    /// plan probe. Addresses depend only on the heap size and allocation
    /// order, so a scratch runtime laid out like a repetition's answers.
    pub fn slice_byte_ranges(&self) -> [(usize, usize); 2] {
        let scratch = CleanRuntime::new(RuntimeConfig::baseline().heap_size(self.heap_bytes()));
        let arr = scratch
            .alloc_array::<u64>(self.total_cells)
            .expect("heap sized for the array");
        let len = (self.total_cells - self.base[1]).min(self.base[1]);
        self.base
            .map(|b| (arr.addr_of(b), arr.addr_of(b) + 8 * len))
    }
}

/// What one thread brings back from a repetition.
#[derive(Debug, Default)]
struct WorkerOut {
    /// Clock after the barrier closing each round (index 0 = warm-up).
    stamps: Vec<Instant>,
    /// Fold of every value read.
    sum: u64,
    /// Stream only: time inside timed write sweeps and read sweeps.
    write_ns: u64,
    read_ns: u64,
    /// Sync operations issued in timed rounds.
    sync_ops: u64,
}

/// Everything shared by the two workers of one repetition.
#[derive(Clone)]
struct Shared {
    inputs: Arc<Inputs>,
    arr: SharedArray<u64>,
    barrier: Arc<CleanBarrier>,
    mutex: Arc<CleanMutex>,
    inject: bool,
    tracer: Arc<Tracer>,
    root_span: u64,
    rep: u64,
}

/// Result of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Checked accesses in the timed rounds, both threads.
    pub timed_accesses: u64,
    /// Wall time of the timed rounds on thread 0, ns.
    pub timed_ns: u64,
    /// Runtime construction, thread start and the warm-up round, ns.
    pub setup_ns: u64,
    /// Duration of every timed round on every thread, ns.
    pub round_ns: Vec<u64>,
    /// Thread 0's time in odd (span-recording, when tracing) and in even
    /// timed rounds, ns.
    pub odd_even_ns: [u64; 2],
    /// Stream only: ns inside timed write / read sweeps, both threads.
    pub write_ns: u64,
    /// See `write_ns`.
    pub read_ns: u64,
    /// Sync operations in timed rounds, both threads.
    pub timed_sync_ops: u64,
    /// Runtime totals after the run.
    pub stats: RuntimeStats,
    /// Fold of every value the threads read.
    pub checksum: u64,
    /// The race that stopped the run, if one did.
    pub race: Option<RaceReport>,
    /// Byte address of the canary's victim cell.
    pub victim_addr: usize,
    /// False if a worker failed with anything but the race exception.
    pub clean_exit: bool,
}

#[inline]
fn value(salt: u64, round: usize, cell: usize) -> u64 {
    salt ^ ((round as u64) << 40) ^ cell as u64
}

fn worker(ctx: &mut ThreadCtx, who: usize, sh: &Shared) -> Result<WorkerOut, CleanError> {
    let inp = &*sh.inputs;
    let arr = &sh.arr;
    // One CPU each, when the host has two to give (see `pin_current_thread`).
    procfs::pin_current_thread(Some(who));
    let mut rec = sh.tracer.recorder();
    let mut out = WorkerOut {
        stamps: Vec::with_capacity(inp.rounds + 1),
        ..WorkerOut::default()
    };
    let base = inp.base[who];
    let counter = inp.total_cells - 1;
    for round in 0..=inp.rounds {
        let timed = round > 0;
        // A traced run records spans on odd rounds only, so that traced
        // and untraced rounds interleave a few milliseconds apart and the
        // overhead ratio is not at the mercy of the host's drift.
        rec.pause(round % 2 == 0);
        let round_span = rec.open("runtime.round", sh.root_span, sh.rep);
        // The seeded WAW: thread 1 writes, unordered, a cell thread 0
        // writes in this same region.
        let inject = sh.inject && round == 1 && who == 1;
        if inject && inp.kind != Kind::Handoff {
            ctx.write(arr, inp.victim, !inp.salt)?;
        }
        match inp.kind {
            Kind::Local => {
                for pass in 0..LOCAL_PASSES {
                    for c in 0..LOCAL_CELLS {
                        ctx.write(arr, base + c, value(inp.salt, round, pass ^ c))?;
                    }
                    for c in 0..LOCAL_CELLS {
                        out.sum = out.sum.rotate_left(1) ^ ctx.read(arr, base + c)?;
                    }
                }
            }
            Kind::Stream => {
                let t0 = Instant::now();
                let sweep = rec.open("runtime.write_sweep", round_span.id(), sh.rep);
                for &b in &inp.order[who] {
                    let first = base + b as usize * STREAM_BLOCK;
                    for c in first..first + STREAM_BLOCK {
                        ctx.write(arr, c, value(inp.salt, round, c))?;
                    }
                }
                rec.close(sweep);
                let t1 = Instant::now();
                let sweep = rec.open("runtime.read_sweep", round_span.id(), sh.rep);
                for &b in &inp.order[who] {
                    let first = base + b as usize * STREAM_BLOCK;
                    for c in first..first + STREAM_BLOCK {
                        out.sum = out.sum.rotate_left(1) ^ ctx.read(arr, c)?;
                    }
                }
                rec.close(sweep);
                if timed {
                    out.write_ns += (t1 - t0).as_nanos() as u64;
                    out.read_ns += t1.elapsed().as_nanos() as u64;
                }
            }
            Kind::Handoff => {
                let mine = base + inp.order[who][round] as usize * HANDOFF_SPAN;
                let theirs = inp.base[1 - who] + inp.order[1 - who][round] as usize * HANDOFF_SPAN;
                for phase in 0..2 {
                    for i in 0..HANDOFF_SPAN {
                        if i % HANDOFF_LOCK_EVERY == 0 {
                            let s = rec.open("sync.lock_section", round_span.id(), sh.rep);
                            ctx.lock(&sh.mutex)?;
                            let v = ctx.read(arr, counter)?;
                            ctx.write(arr, counter, v.wrapping_add(1))?;
                            ctx.unlock(&sh.mutex)?;
                            rec.close(s);
                            // After the section, not before it: a write
                            // ahead of thread 1's release could be ordered
                            // before thread 0's write through the mutex.
                            if inject && phase == 0 && i == 0 {
                                ctx.write(arr, inp.victim, !inp.salt)?;
                            }
                        }
                        if phase == 0 {
                            ctx.write(arr, mine + i, value(inp.salt, round, mine + i))?;
                        } else {
                            out.sum = out.sum.rotate_left(1) ^ ctx.read(arr, theirs + i)?;
                        }
                    }
                    if phase == 0 {
                        let s = rec.open("sync.barrier_wait", round_span.id(), sh.rep);
                        ctx.barrier_wait(&sh.barrier)?;
                        rec.close(s);
                    }
                }
                if timed {
                    out.sync_ops += 1 + 2 * (2 * HANDOFF_SPAN / HANDOFF_LOCK_EVERY) as u64;
                }
            }
        }
        let s = rec.open("sync.barrier_wait", round_span.id(), sh.rep);
        ctx.barrier_wait(&sh.barrier)?;
        rec.close(s);
        rec.close(round_span);
        out.stamps.push(Instant::now());
        if timed {
            out.sync_ops += 1;
        }
    }
    Ok(out)
}

/// Runs one repetition of `inputs` under `config` (whose heap size is set
/// here). With `inject`, thread 1 performs the seeded unordered write in
/// the first timed round and the run is expected to stop on it.
pub fn run_rep(
    inputs: &Arc<Inputs>,
    config: RuntimeConfig,
    inject: bool,
    tracer: &Arc<Tracer>,
    rep: u64,
) -> Rep {
    let start = Instant::now();
    let mut rec = tracer.recorder();
    let root = rec.open("runtime.run", 0, rep);
    let start_span = rec.open("runtime.new", root.id(), rep);
    let rt = CleanRuntime::new(config.heap_size(inputs.heap_bytes()));
    let arr = rt
        .alloc_array::<u64>(inputs.total_cells)
        .expect("heap sized for the array");
    let shared = Shared {
        inputs: Arc::clone(inputs),
        arr,
        barrier: rt.create_barrier(2),
        mutex: rt.create_mutex(),
        inject,
        tracer: Arc::clone(tracer),
        root_span: root.id(),
        rep,
    };
    rec.close(start_span);
    let result = rt.run(|ctx| {
        let sh = shared.clone();
        let child = ctx.spawn(move |c| worker(c, 1, &sh))?;
        let mine = worker(ctx, 0, &shared);
        let theirs = ctx.join(child)?;
        Ok((mine, theirs))
    });
    rec.close(root);
    procfs::pin_current_thread(None);
    let mut out = Rep {
        stats: rt.stats(),
        race: rt.first_race(),
        victim_addr: arr.addr_of(inputs.victim),
        ..Rep::default()
    };
    let workers = match result {
        Ok((Ok(a), Ok(b))) => [a, b],
        // A race exception surfaces as Err from `run`; anything else that
        // stops a worker is a failure of the repetition.
        _ => return out,
    };
    out.clean_exit = true;
    out.timed_accesses = 2 * inputs.rounds as u64 * inputs.accesses_per_round();
    out.setup_ns = (workers[0].stamps[0] - start).as_nanos() as u64;
    out.timed_ns = (workers[0].stamps[inputs.rounds] - workers[0].stamps[0]).as_nanos() as u64;
    for (round, pair) in workers[0].stamps.windows(2).enumerate() {
        // Pair i closes timed round i + 1: index 0 collects the odd rounds.
        out.odd_even_ns[round % 2] += (pair[1] - pair[0]).as_nanos() as u64;
    }
    for w in &workers {
        out.round_ns
            .extend(w.stamps.windows(2).map(|p| (p[1] - p[0]).as_nanos() as u64));
        out.write_ns += w.write_ns;
        out.read_ns += w.read_ns;
        out.timed_sync_ops += w.sync_ops;
    }
    out.checksum = workers[0].sum ^ workers[1].sum.rotate_left(32);
    out
}

/// Timed rounds per repetition: sized so a repetition takes about a tenth
/// of a second (half a second for the stream's 40 MiB of heap and shadow)
/// and a run fits twenty to a hundred of them.
pub fn timed_rounds(kind: Kind) -> usize {
    match kind {
        Kind::Local => 24,
        Kind::Stream => 2,
        Kind::Handoff => 16,
    }
}

/// Checks one race-free repetition against the oracle: it ran to the end
/// without an exception and performed exactly the accesses the workload
/// defines.
fn rep_is_sound(rep: &Rep, inputs: &Inputs) -> bool {
    let expected = 2 * (inputs.rounds as u64 + 1) * inputs.accesses_per_round();
    rep.clean_exit && rep.race.is_none() && rep.stats.shared_accesses() == expected
}

/// Runs the seeded-WAW canary: the same repetition with one unordered
/// foreign write injected must stop with a WAW at exactly that cell.
pub fn canary(inputs: &Arc<Inputs>, out: &mut Outcome) {
    let rep = run_rep(
        inputs,
        RuntimeConfig::new(),
        true,
        &Arc::new(Tracer::new(false)),
        u64::MAX,
    );
    // The report names the first racing byte range inside the cell; its
    // width depends on how the two 8-byte publications interleaved.
    let raised = rep.race.is_some_and(|r| {
        r.kind == RaceKind::WriteAfterWrite
            && (rep.victim_addr..rep.victim_addr + 8).contains(&r.addr)
    });
    out.check(raised, || {
        format!(
            "canary: expected WAW at {:#x}, got {:?}",
            rep.victim_addr, rep.race
        )
    });
    out.note(format!(
        "canary: seeded WAW at {:#x} {}",
        rep.victim_addr,
        if raised { "raised" } else { "NOT raised" }
    ));
}

/// The online workload `kind`: repetitions under `RuntimeConfig::new()`
/// until the measuring time is used, then the canary.
pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gen_start = Instant::now();
    let inputs = Arc::new(Inputs::new(kind, opts.seed, timed_rounds(kind)));
    let gen_ns = gen_start.elapsed().as_nanos() as u64;
    let tracer = Arc::new(Tracer::new(opts.trace));
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    // rate and set-up time of every sound repetition; their round
    // latencies in pools large enough to have a tail
    let mut plain: Vec<(f64, f64)> = Vec::new();
    let mut round_ns: Vec<Vec<u64>> = Vec::new();
    let mut odd_even_ns = [0u64; 2];
    let mut first: Option<(u64, u64)> = None;
    let mut last_rep = Duration::ZERO;
    let mut n = 0u64;
    while n < 3 || start.elapsed() + last_rep < budget {
        let rep_start = Instant::now();
        let rep = run_rep(&inputs, RuntimeConfig::new(), false, &tracer, n);
        last_rep = rep_start.elapsed();
        n += 1;
        let sound = rep_is_sound(&rep, &inputs);
        out.check(sound, || {
            format!("repetition {n}: {:?} {:?}", rep.race, rep.stats)
        });
        if !sound {
            continue;
        }
        // Exception-free runs are deterministic: same digest, same values.
        let id = (rep.stats.digest(), rep.checksum);
        let same = *first.get_or_insert(id) == id;
        out.check(same, || {
            format!("repetition {n} diverged: {id:?} vs {first:?}")
        });
        let rate = rep.timed_accesses as f64 / rep.timed_ns as f64 * 1e9;
        let setup = (rep.setup_ns + gen_ns) as f64 / 1e9;
        odd_even_ns[0] += rep.odd_even_ns[0];
        odd_even_ns[1] += rep.odd_even_ns[1];
        plain.push((rate, setup));
        stats::pool_add(&mut round_ns, rep.round_ns);
    }
    let lat = stats::pool_medians(&mut round_ns).ok_or("no sound repetition")?;
    let col = |f: fn(&(f64, f64)) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let mut rates = col(|r| r.0);
    rates.sort_by(f64::total_cmp);
    out.note(format!(
        "repetition rates: min {:.3e} median {:.3e} max {:.3e} accesses/s",
        rates[0],
        stats::median(&rates),
        rates[rates.len() - 1]
    ));
    out.note(format!(
        "{} repetitions of {} rounds x 2 threads x {} accesses; round latency from {} samples \
         in {} pools, tail at p{:.1} per pool; every metric is a median over repetitions or pools",
        n,
        inputs.rounds,
        inputs.accesses_per_round(),
        lat.n,
        round_ns.len(),
        lat.tail_q * 100.0
    ));
    out.put("items_per_s", stats::median(&rates));
    out.put("op_p50_us", lat.p50 / 1e3);
    out.put("op_tail_us", lat.tail / 1e3);
    out.put("setup_s", stats::median(&col(|r| r.1)));
    out.put(
        "peak_rss_mb",
        procfs::peak_rss_mb(std::process::id()).ok_or("no /proc/self/status")?,
    );
    canary(&inputs, &mut out);
    if opts.trace {
        // Same work in odd and even rounds: the rate ratio is the inverse
        // of the time ratio.
        let ratio = odd_even_ns[1] as f64 / odd_even_ns[0] as f64;
        crate::finish_trace(opts, &tracer, ratio, &mut out)?;
    }
    Ok(out)
}

/// Nanoseconds per bare-detector call on each online workload's address
/// sequence, and per SFR boundary.
#[derive(Debug, Clone, Copy)]
pub struct BareNs {
    /// `check_*_with` on the `online_local` sequence.
    pub local: f64,
    /// `check_write_with` on the `online_stream` write sweep.
    pub stream_write: f64,
    /// `check_read_with` on the `online_stream` read sweep.
    pub stream_read: f64,
    /// `check_read_with` on a span another thread wrote (`online_handoff`).
    pub handoff_read: f64,
    /// Drain + filter flush + clock increment at an SFR boundary.
    pub sfr_drain: f64,
}

/// One logical thread of a bare-detector probe: what the runtime keeps per
/// monitored thread, minus the runtime.
struct BareThread {
    tid: ThreadId,
    vc: VectorClock,
    state: ThreadCheckState,
}

impl BareThread {
    fn new(index: u16, det: &CleanDetector) -> Self {
        let tid = ThreadId::new(index);
        // Sixteen entries, like the clocks of a default-configured runtime.
        let mut vc = VectorClock::new(16, det.layout());
        vc.increment(tid).expect("first increment fits");
        BareThread {
            tid,
            vc,
            state: ThreadCheckState::new(),
        }
    }

    /// What the runtime does when this thread's SFR ends.
    fn end_sfr(&mut self, det: &CleanDetector) {
        det.drain_check_state(self.tid, &mut self.state);
        self.state.on_epoch_increment();
        self.vc
            .increment(self.tid)
            .expect("probe clocks stay small");
    }

    #[inline]
    fn write(&mut self, det: &CleanDetector, cell: usize) {
        det.check_write_with(&self.vc, self.tid, cell * 8, 8, &mut self.state)
            .expect("probe sequences are race-free");
    }

    #[inline]
    fn read(&mut self, det: &CleanDetector, cell: usize) {
        det.check_read_with(&self.vc, self.tid, cell * 8, 8, &mut self.state)
            .expect("probe sequences are race-free");
    }
}

/// Replays each online workload's address sequence against a bare
/// `CleanDetector` on one OS thread: no runtime, heap, or sync.
pub fn bare_detector_probes(seed: u64) -> BareNs {
    // Clock-read cost, taken off the per-boundary timings below.
    let pairs: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let timer_ns = stats::trimmed_mean(&pairs);

    // local: one thread's rounds, an SFR boundary after each.
    let inp = Inputs::new(Kind::Local, seed, 24);
    let det = CleanDetector::new(inp.heap_bytes(), DetectorConfig::new());
    let mut t0 = BareThread::new(0, &det);
    let mut local_ns = 0u64;
    for round in 0..=inp.rounds {
        let t = Instant::now();
        for _ in 0..LOCAL_PASSES {
            for c in 0..LOCAL_CELLS {
                t0.write(&det, inp.base[0] + c);
            }
            for c in 0..LOCAL_CELLS {
                t0.read(&det, inp.base[0] + c);
            }
        }
        if round > 0 {
            local_ns += t.elapsed().as_nanos() as u64;
        }
        t0.end_sfr(&det);
    }
    let local = local_ns as f64 / (inp.rounds as u64 * inp.accesses_per_round()) as f64;
    // Boundaries alone, each after one full check and one filter hit so
    // there are batched statistics to drain and a filter entry to flush.
    let boundaries: Vec<f64> = (0..2000)
        .map(|_| {
            t0.write(&det, inp.base[0]);
            t0.write(&det, inp.base[0]);
            let t = Instant::now();
            t0.end_sfr(&det);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let sfr_drain = (stats::trimmed_mean(&boundaries) - timer_ns).max(0.0);

    // stream: thread 0's slice, write sweep then read sweep per SFR.
    let inp = Inputs::new(Kind::Stream, seed, 2);
    let det = CleanDetector::new(inp.heap_bytes(), DetectorConfig::new());
    let mut t0 = BareThread::new(0, &det);
    let (mut write_ns, mut read_ns) = (0u64, 0u64);
    for round in 0..=inp.rounds {
        let t = Instant::now();
        for &b in &inp.order[0] {
            let first = inp.base[0] + b as usize * STREAM_BLOCK;
            for c in first..first + STREAM_BLOCK {
                t0.write(&det, c);
            }
        }
        let mid = t.elapsed().as_nanos() as u64;
        for &b in &inp.order[0] {
            let first = inp.base[0] + b as usize * STREAM_BLOCK;
            for c in first..first + STREAM_BLOCK {
                t0.read(&det, c);
            }
        }
        if round > 0 {
            write_ns += mid;
            read_ns += t.elapsed().as_nanos() as u64 - mid;
        }
        t0.end_sfr(&det);
    }
    let sweeps = (inp.rounds * STREAM_SLICE) as f64;

    // handoff: thread 1 writes a span, a barrier's clock exchange, thread
    // 0 reads it — every read meets another thread's current epoch.
    let rounds = 32;
    let inp = Inputs::new(Kind::Handoff, seed, rounds);
    let det = CleanDetector::new(inp.heap_bytes(), DetectorConfig::new());
    let (mut t0, mut t1) = (BareThread::new(0, &det), BareThread::new(1, &det));
    let mut handoff_ns = 0u64;
    for round in 0..=rounds {
        let span = inp.base[1] + inp.order[1][round] as usize * HANDOFF_SPAN;
        for c in span..span + HANDOFF_SPAN {
            t1.write(&det, c);
        }
        let mut all = t0.vc.clone();
        all.join(&t1.vc);
        for t in [&mut t0, &mut t1] {
            t.vc.join(&all);
            t.end_sfr(&det);
        }
        let t = Instant::now();
        for c in span..span + HANDOFF_SPAN {
            t0.read(&det, c);
        }
        if round > 0 {
            handoff_ns += t.elapsed().as_nanos() as u64;
        }
    }
    BareNs {
        local,
        stream_write: write_ns as f64 / sweeps,
        stream_read: read_ns as f64 / sweeps,
        handoff_read: handoff_ns as f64 / (rounds * HANDOFF_SPAN) as f64,
        sfr_drain,
    }
}
