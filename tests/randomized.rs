//! Randomized end-to-end validation: generate arbitrary barrier-phased
//! programs (the structure of the SPLASH/PARSEC models) and check the
//! CLEAN execution-model guarantees on every one of them:
//!
//! * race-free-by-construction programs never raise and are deterministic
//!   (identical outputs and digests across runs);
//! * the same program with one injected same-phase write collision always
//!   raises a WAW race exception — inside the victim cell, between the two
//!   colliding writer threads, in every schedule. Which of the two
//!   unsynchronised stores publishes first is physical timing, so a racy
//!   run is held to exactly that and no more (see DESIGN.md, "What a racy
//!   run promises").
//!
//! Everything about a generated program, including its thread count, is
//! an explicit function of the seed — nothing depends on the OS schedule.

use clean::core::{RaceKind, TraceEvent};
use clean::runtime::{CleanError, CleanRuntime, RaceReport, RuntimeConfig, SharedArray};
use clean::workloads::plan_from_trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CELLS_PER_THREAD: usize = 16;

/// Base seed for every generated program (`CLEAN_TEST_SEED`, default 0):
/// test `i` of a loop runs seed `base + i`, so exporting a failure's
/// printed seed replays that exact program as the first iteration.
fn base_seed() -> u64 {
    std::env::var("CLEAN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Failure context naming the seed and the one-line repro command.
fn repro(test: &str, seed: u64) -> String {
    format!("seed {seed} [repro: CLEAN_TEST_SEED={seed} cargo test --test randomized {test}]")
}

/// One shared-memory operation of a generated program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write my own cell `i` (own partition: race-free within a phase).
    WriteOwn(usize),
    /// Read cell `i` of thread `t`'s partition — only emitted for cells
    /// written in *earlier* phases (ordered by the barrier).
    ReadPrev(usize, usize),
    /// Lock-protected increment of the shared counter.
    LockedAdd,
}

/// A barrier-phased program: `ops[phase][thread]` is that thread's op
/// list for the phase.
#[derive(Debug, Clone)]
struct Program {
    /// Worker count, derived from the seed (2..=4).
    threads: usize,
    ops: Vec<Vec<Vec<Op>>>,
    /// Injected bug: in this phase, threads 0 and 1 write the victim cell.
    collision: Option<usize>,
}

fn generate(seed: u64, phases: usize, ops_per_phase: usize) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    // The whole shape, thread count included, is a function of the seed.
    let threads = 2 + (seed % 3) as usize;
    // written[t][c] = last phase in which thread t wrote its cell c.
    let mut written: Vec<Vec<Option<usize>>> = vec![vec![None; CELLS_PER_THREAD]; threads];
    let mut ops = Vec::new();
    for phase in 0..phases {
        let mut per_thread = Vec::new();
        // Snapshot of what existed before this phase (readable now).
        let snapshot = written.clone();
        for written_t in written.iter_mut() {
            let mut list = Vec::new();
            for _ in 0..ops_per_phase {
                match rng.gen_range(0..10u8) {
                    0..=3 => {
                        // Write-once: rewriting a cell in phase p would
                        // race with same-phase reads justified by earlier
                        // writes, so a written cell becomes read-only.
                        let fresh: Vec<usize> = (0..CELLS_PER_THREAD)
                            .filter(|&c| written_t[c].is_none())
                            .collect();
                        if let Some(&c) = fresh.get(rng.gen_range(0..fresh.len().max(1))) {
                            written_t[c] = Some(phase);
                            list.push(Op::WriteOwn(c));
                        } else {
                            list.push(Op::LockedAdd);
                        }
                    }
                    4..=7 => {
                        // Read something some thread wrote in an earlier
                        // phase (barrier-ordered; never this phase).
                        let t2 = rng.gen_range(0..threads);
                        let candidates: Vec<usize> = (0..CELLS_PER_THREAD)
                            .filter(|&c| snapshot[t2][c].is_some_and(|p| p < phase))
                            .collect();
                        if let Some(&c) = candidates.get(rng.gen_range(0..candidates.len().max(1)))
                        {
                            list.push(Op::ReadPrev(t2, c));
                        }
                    }
                    _ => list.push(Op::LockedAdd),
                }
            }
            per_thread.push(list);
        }
        ops.push(per_thread);
    }
    Program {
        threads,
        ops,
        collision: None,
    }
}

/// The outcome of one monitored run, with everything the assertions need
/// to pin the race to its injected location.
struct RunOutcome {
    result: Result<u64, CleanError>,
    digest: u64,
    first_race: Option<RaceReport>,
    victim_addr: usize,
    /// The event trace, when the config asked for recording.
    trace: Option<Vec<TraceEvent>>,
}

fn run(program: &Program) -> RunOutcome {
    run_with(
        program,
        RuntimeConfig::new().heap_size(1 << 16).max_threads(8),
    )
}

/// Asserts what CLEAN promises about a run of a program with an injected
/// collision, and nothing more: a WAW is raised, the reported byte range
/// lies inside the victim cell, and the racing pair is the two injected
/// writers in either order. Workers get runtime tids 1..=threads (root is
/// 0), so program threads 0 and 1 are runtime tids 1 and 2.
fn assert_injected_race(ctx: &str, out: &RunOutcome) {
    let r = out
        .first_race
        .as_ref()
        .unwrap_or_else(|| panic!("{ctx}: no race report recorded"));
    assert_eq!(
        r.kind,
        RaceKind::WriteAfterWrite,
        "{ctx}: only writes touch the victim cell"
    );
    let cell = out.victim_addr..out.victim_addr + 8;
    assert!(
        cell.start <= r.addr && r.addr + r.size <= cell.end,
        "{ctx}: race at {:#x}+{} must lie inside the victim cell {cell:#x?}",
        r.addr,
        r.size
    );
    let mut pair = [r.current_tid.index(), r.previous_tid().index()];
    pair.sort_unstable();
    assert_eq!(
        pair,
        [1, 2],
        "{ctx}: colliding tids must be the two injected writers"
    );
}

fn run_with(program: &Program, cfg: RuntimeConfig) -> RunOutcome {
    let threads = program.threads;
    let rt = CleanRuntime::new(cfg);
    let cells: SharedArray<u64> = rt.alloc_array(threads * CELLS_PER_THREAD).unwrap();
    let counter: SharedArray<u64> = rt.alloc_array(1).unwrap();
    let victim: SharedArray<u64> = rt.alloc_array(1).unwrap();
    let victim_addr = victim.base_addr();
    let lock = rt.create_mutex();
    let barrier = rt.create_barrier(threads);
    let program = program.clone();
    let result = rt.run(|ctx| {
        let mut kids = Vec::new();
        for t in 0..threads {
            let (lock, barrier) = (lock.clone(), barrier.clone());
            let program = program.clone();
            kids.push(ctx.spawn(move |c| {
                let mut h = 0u64;
                for (phase, per_thread) in program.ops.iter().enumerate() {
                    for op in &per_thread[t] {
                        match *op {
                            Op::WriteOwn(cell) => {
                                let idx = t * CELLS_PER_THREAD + cell;
                                c.write(&cells, idx, (phase as u64) << 8 | cell as u64)?;
                            }
                            Op::ReadPrev(t2, cell) => {
                                h = h.wrapping_mul(31)
                                    ^ c.read(&cells, t2 * CELLS_PER_THREAD + cell)?;
                            }
                            Op::LockedAdd => {
                                c.lock(&lock)?;
                                let v = c.read(&counter, 0)?;
                                c.write(&counter, 0, v + 1)?;
                                c.unlock(&lock)?;
                            }
                        }
                        c.tick(1);
                    }
                    if program.collision == Some(phase) && t < 2 {
                        // The injected bug: threads 0 and 1 write the same
                        // cell in the same phase, unordered.
                        c.write(&victim, 0, t as u64)?;
                    }
                    c.barrier_wait(&barrier)?;
                }
                Ok(h)
            })?);
        }
        let mut out = 0u64;
        for k in kids {
            out = out.wrapping_mul(131) ^ ctx.join(k)??;
        }
        ctx.lock(&lock)?;
        out ^= ctx.read(&counter, 0)?;
        ctx.unlock(&lock)?;
        Ok(out)
    });
    RunOutcome {
        result,
        digest: rt.stats().digest(),
        first_race: rt.first_race(),
        victim_addr,
        trace: rt.recorded_trace(),
    }
}

#[test]
fn random_race_free_programs_are_clean_and_deterministic() {
    let base = base_seed();
    for i in 0..12u64 {
        let seed = base.wrapping_add(i);
        let ctx = repro(
            "random_race_free_programs_are_clean_and_deterministic",
            seed,
        );
        let program = generate(seed, 5, 12);
        let a = run(&program);
        let o1 = a
            .result
            .unwrap_or_else(|e| panic!("{ctx}: unexpected exception {e}"));
        assert_eq!(a.first_race, None, "{ctx}: no race may be recorded");
        let b = run(&program);
        let o2 = b.result.unwrap();
        assert_eq!(o1, o2, "{ctx}: output must be deterministic");
        assert_eq!(a.digest, b.digest, "{ctx}: digest must be deterministic");
    }
}

#[test]
fn derived_check_plans_are_verdict_neutral_across_200_random_seeds() {
    // A derived check plan may only change *which* accesses run through
    // the full Figure 2 check — elided and coalesced ranges must never
    // change what the execution concludes. For 200 generated
    // programs — half race-free, half with an injected WAW — a
    // profiling run with plans off records a trace, a plan is derived
    // from that trace, and the same program re-runs with the plan
    // installed: verdicts must agree, race-free runs must agree on outputs
    // and digests, and both racy runs must raise the injected race. The
    // soundness hinge is that the racing granule always shows foreign
    // accesses in the recorded trace, so it is never classified elidable.
    let base = base_seed();
    for i in 0..200u64 {
        let seed = base.wrapping_add(i);
        let ctx = repro(
            "derived_check_plans_are_verdict_neutral_across_200_random_seeds",
            seed,
        );
        let mut program = generate(seed, 3, 6);
        if i % 2 == 1 {
            program.collision = Some(seed as usize % 3);
        }
        let off = run_with(
            &program,
            RuntimeConfig::new()
                .heap_size(1 << 16)
                .max_threads(8)
                .record_trace(true),
        );
        let events = off
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: profiling run recorded no trace"));
        let (plan, _coverage) = plan_from_trace(events, 0);
        let on = run_with(
            &program,
            RuntimeConfig::new()
                .heap_size(1 << 16)
                .max_threads(8)
                .check_plan(Some(plan)),
        );
        match (&on.result, &off.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{ctx}: outputs diverged");
                assert_eq!(on.digest, off.digest, "{ctx}: digests diverged");
                assert_eq!(on.first_race, None, "{ctx}");
                assert_eq!(off.first_race, None, "{ctx}");
                assert_eq!(i % 2, 0, "{ctx}: injected race not raised");
            }
            (Err(_), Err(_)) => {
                assert_eq!(i % 2, 1, "{ctx}: race-free program raised");
                assert_injected_race(&format!("{ctx} (plan on)"), &on);
                assert_injected_race(&format!("{ctx} (plan off)"), &off);
            }
            (a, b) => panic!("{ctx}: verdicts diverged: plan-on={a:?} plan-off={b:?}"),
        }
    }
}

#[test]
fn injected_collisions_raise_at_the_injected_location() {
    let base = base_seed();
    for i in 0..12u64 {
        let seed = base.wrapping_add(i);
        let ctx = repro("injected_collisions_raise_at_the_injected_location", seed);
        let mut program = generate(seed, 5, 12);
        let phase = seed as usize % 5;
        program.collision = Some(phase);
        let out = run(&program);
        assert!(
            matches!(
                out.result,
                Err(CleanError::Race(_)) | Err(CleanError::Poisoned)
            ),
            "{ctx}: injected WAW must raise, got {:?}",
            out.result
        );
        // Location assertions: not merely *a* race, but *the* race we
        // injected.
        assert_injected_race(&ctx, &out);
    }
}
