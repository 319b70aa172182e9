//! Behavioural tests of the condition-variable paths in `sync_api.rs`,
//! focused on spurious wakeups: a broadcast wakes every waiter but the
//! guarded predicate admits only some of them, so the losers must
//! re-check and re-wait exactly as the Pthread contract demands — under
//! both deterministic synchronization and the plain (uncontrolled) path.
//!
//! Also the determinism of det-sync itself: the sequence of Kendo turns a
//! race-free program is granted, recorded through
//! [`CleanRuntime::set_sched_hook`], must be the same in every run — for
//! the broadcast program and for a mutex-and-barrier program.

use clean_core::ThreadId;
use clean_runtime::{CleanRuntime, RuntimeConfig, RuntimeStats};
use clean_sync::SchedHook;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const WAITERS: usize = 3;

fn runtime(det: bool, hook: Option<Arc<dyn SchedHook>>) -> CleanRuntime {
    let rt = CleanRuntime::new(
        RuntimeConfig::new()
            .heap_size(1 << 16)
            .max_threads(8)
            .det_sync(det),
    );
    if let Some(hook) = hook {
        assert!(rt.set_sched_hook(hook));
    }
    rt
}

/// Producer/consumer round where every slot is announced by `broadcast`,
/// so each round wakes all waiters while only one can consume: the rest
/// experience spurious wakeups and must loop. Returns (wakeups, stats).
fn broadcast_one_slot_rounds(det: bool, hook: Option<Arc<dyn SchedHook>>) -> (u64, RuntimeStats) {
    let rt = runtime(det, hook);
    // data[0] = available slots, data[1] = consumed count,
    // data[2] = payload checked by consumers.
    let data = rt.alloc_array::<u64>(3).unwrap();
    let m = rt.create_mutex();
    let cv = rt.create_condvar();
    let wakeups = Arc::new(AtomicU64::new(0));
    rt.run(|ctx| {
        let mut kids = Vec::new();
        for _ in 0..WAITERS {
            let (m, cv, wakeups) = (m.clone(), cv.clone(), Arc::clone(&wakeups));
            kids.push(ctx.spawn(move |c| {
                c.lock(&m)?;
                // The predicate loop: a wakeup is only a hint. Waiters
                // woken into an empty pantry must wait again.
                while c.read(&data, 0)? == 0 {
                    c.cond_wait(&cv, &m)?;
                    wakeups.fetch_add(1, Ordering::Relaxed);
                }
                let slots = c.read(&data, 0)?;
                c.write(&data, 0, slots - 1)?;
                let done = c.read(&data, 1)? + 1;
                c.write(&data, 1, done)?;
                // The slot's payload was written pre-broadcast; the
                // mutex hand-off must make it visible race-free.
                let payload = c.read(&data, 2)?;
                c.unlock(&m)?;
                Ok(payload)
            })?);
        }
        // One slot per round, announced with a broadcast: every round
        // over-wakes, so all but one wakeup per round are spurious.
        for round in 0..WAITERS as u64 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            ctx.lock(&m)?;
            let slots = ctx.read(&data, 0)?;
            ctx.write(&data, 0, slots + 1)?;
            ctx.write(&data, 2, 40 + round)?;
            ctx.cond_broadcast(&cv)?;
            ctx.unlock(&m)?;
        }
        for k in kids {
            let payload = ctx.join(k)??;
            assert!((40..40 + WAITERS as u64).contains(&payload));
        }
        ctx.lock(&m)?;
        assert_eq!(ctx.read(&data, 0)?, 0, "all slots consumed");
        assert_eq!(ctx.read(&data, 1)?, WAITERS as u64);
        ctx.unlock(&m)?;
        Ok(())
    })
    .unwrap();
    assert!(rt.first_race().is_none(), "{:?}", rt.first_race());
    (wakeups.load(Ordering::Relaxed), rt.stats())
}

#[test]
fn broadcast_over_wakeups_are_spurious_and_rewait_det() {
    let (wakeups, stats) = broadcast_one_slot_rounds(true, None);
    // Every waiter consumed exactly once, yet the broadcasts delivered
    // more wakeups than consumptions: the surplus re-entered cond_wait
    // through the predicate loop instead of claiming a slot.
    assert!(
        wakeups > WAITERS as u64,
        "no spurious wakeup was exercised: {wakeups} wakeups for {WAITERS} slots"
    );
    assert!(stats.sync_ops > 0);
}

#[test]
fn broadcast_over_wakeups_are_spurious_and_rewait_plain() {
    let (wakeups, _) = broadcast_one_slot_rounds(false, None);
    // The plain path's ticket queue drains fully on broadcast, so the
    // same over-wakeup shape holds without deterministic ordering.
    assert!(
        wakeups >= WAITERS as u64,
        "each consumption needs at least one wakeup: {wakeups}"
    );
}

#[test]
fn condvar_rounds_are_deterministic_under_det_sync() {
    let (w1, s1) = broadcast_one_slot_rounds(true, None);
    let (w2, s2) = broadcast_one_slot_rounds(true, None);
    assert_eq!(
        s1.digest(),
        s2.digest(),
        "det-sync condvar interleaving must replay identically"
    );
    assert_eq!(w1, w2, "wakeup count is part of the deterministic outcome");
}

#[test]
fn signal_wakes_exactly_one_waiter() {
    // `cond_signal` must not over-wake: with all waiters parked and one
    // slot signalled per round, every wakeup finds its slot, so no
    // spurious iteration occurs on the signal path (contrast with the
    // broadcast tests above).
    let rt = CleanRuntime::new(RuntimeConfig::new().heap_size(1 << 16).max_threads(8));
    let data = rt.alloc_array::<u64>(2).unwrap();
    let m = rt.create_mutex();
    let cv = rt.create_condvar();
    let wakeups = Arc::new(AtomicU64::new(0));
    rt.run(|ctx| {
        let mut kids = Vec::new();
        for _ in 0..WAITERS {
            let (m, cv, wakeups) = (m.clone(), cv.clone(), Arc::clone(&wakeups));
            kids.push(ctx.spawn(move |c| {
                c.lock(&m)?;
                while c.read(&data, 0)? == 0 {
                    c.cond_wait(&cv, &m)?;
                    wakeups.fetch_add(1, Ordering::Relaxed);
                }
                let slots = c.read(&data, 0)?;
                c.write(&data, 0, slots - 1)?;
                c.unlock(&m)?;
                Ok(())
            })?);
        }
        // Park all waiters before the first signal so each signal can
        // target a waiting thread.
        std::thread::sleep(std::time::Duration::from_millis(30));
        for _ in 0..WAITERS {
            ctx.lock(&m)?;
            let slots = ctx.read(&data, 0)?;
            ctx.write(&data, 0, slots + 1)?;
            ctx.cond_signal(&cv)?;
            ctx.unlock(&m)?;
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        for k in kids {
            ctx.join(k)??;
        }
        Ok(())
    })
    .unwrap();
    assert!(rt.first_race().is_none(), "{:?}", rt.first_race());
    let w = wakeups.load(Ordering::Relaxed);
    assert!(
        (WAITERS as u64..=2 * WAITERS as u64).contains(&w),
        "signal path over-woke: {w} wakeups for {WAITERS} slots"
    );
}

/// Two threads write their own cells, bump a shared counter under a mutex
/// every `LOCK_EVERY` accesses, and meet at a barrier after each round.
/// Race-free.
fn lock_barrier_rounds(hook: Option<Arc<dyn SchedHook>>) -> RuntimeStats {
    const ROUNDS: usize = 4;
    const CELLS: usize = 256;
    const LOCK_EVERY: usize = 32;
    let rt = runtime(true, hook);
    // Two slices of CELLS, then the shared counter.
    let data = rt.alloc_array::<u64>(2 * CELLS + 1).unwrap();
    let counter = 2 * CELLS;
    let m = rt.create_mutex();
    let b = rt.create_barrier(2);
    rt.run(|ctx| {
        let mut kids = Vec::new();
        for t in 0..2 {
            let (m, b) = (m.clone(), b.clone());
            kids.push(ctx.spawn(move |c| {
                for round in 0..ROUNDS {
                    for i in 0..CELLS {
                        c.write(&data, t * CELLS + i, (round * CELLS + i) as u64)?;
                        if i % LOCK_EVERY == 0 {
                            c.lock(&m)?;
                            let n = c.read(&data, counter)?;
                            c.write(&data, counter, n + 1)?;
                            c.unlock(&m)?;
                        }
                    }
                    c.barrier_wait(&b)?;
                }
                Ok(())
            })?);
        }
        for k in kids {
            ctx.join(k)??;
        }
        assert_eq!(
            ctx.read(&data, counter)?,
            (2 * ROUNDS * CELLS / LOCK_EVERY) as u64
        );
        Ok(())
    })
    .unwrap();
    assert!(rt.first_race().is_none(), "{:?}", rt.first_race());
    rt.stats()
}

/// Records every granted Kendo turn as (tid, counter), in grant order.
#[derive(Default)]
struct Grants(Mutex<Vec<(u16, u64)>>);

impl SchedHook for Grants {
    fn on_turn_granted(&self, tid: ThreadId, counter: u64) {
        self.0.lock().unwrap().push((tid.raw(), counter));
    }
}

/// Runs `program` 20 times with a fresh [`Grants`] hook and asserts that
/// every run was granted the same turns and ended with the same digest.
fn assert_grants_repeat(program: impl Fn(Arc<Grants>) -> RuntimeStats) {
    let mut first: Option<(Vec<(u16, u64)>, u64)> = None;
    for run in 0..20 {
        let grants = Arc::new(Grants::default());
        let digest = program(Arc::clone(&grants)).digest();
        let seen = std::mem::take(&mut *grants.0.lock().unwrap());
        assert!(!seen.is_empty(), "the program takes turns");
        match &first {
            None => first = Some((seen, digest)),
            Some((want, want_digest)) => {
                let at = want.iter().zip(&seen).position(|(a, b)| a != b);
                assert!(
                    seen == *want,
                    "run {run}: {} grants against {}, first difference at {at:?}",
                    seen.len(),
                    want.len()
                );
                assert_eq!(digest, *want_digest, "run {run}: digest");
            }
        }
    }
}

#[test]
fn grant_sequences_are_identical_across_runs() {
    assert_grants_repeat(|g| lock_barrier_rounds(Some(g)));
    assert_grants_repeat(|g| broadcast_one_slot_rounds(true, Some(g)).1);
}
