//! The built-in program corpus: small concurrent kernels written against
//! the VM's virtualized thread API, with a declared expectation the
//! explorer checks on every schedule.
//!
//! `racy_probe` mirrors `clean_workloads::kernels::racy_probe` — the
//! seeded two-cell kernel of the acceptance criteria: cell 0 carries a
//! guaranteed WAW/RAW race in *every* schedule (both workers write it
//! unsynchronized), cell 1 carries an unordered read/write pair whose
//! WAR-direction schedules CLEAN deliberately misses while the full
//! baselines flag them.

use crate::vm::{ProgramFn, VmConfig};
use std::sync::Arc;

/// What the explorer should check about a program's executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No detector may report any race on any schedule; executions must
    /// be schedule-independent (same digest everywhere).
    RaceFree,
    /// CLEAN must flag a WAW or RAW race on the first racy access in
    /// *every* schedule.
    CleanRaceAlways,
    /// The full detectors flag a race in every schedule; CLEAN may miss
    /// the schedules where the race manifests as WAR only.
    Racy,
    /// Some schedules deadlock (the scheduler must detect, not hang).
    MayDeadlock,
}

/// A named program of the corpus.
#[derive(Clone)]
pub struct ProgramSpec {
    /// Registry name (CLI `--program`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The expectation checked by exploration.
    pub expect: Expect,
    /// VM configuration the program needs.
    pub cfg: VmConfig,
    /// Factory producing a fresh root body per execution.
    pub factory: ProgramFn,
}

impl std::fmt::Debug for ProgramSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramSpec")
            .field("name", &self.name)
            .field("expect", &self.expect)
            .finish()
    }
}

fn cfg(max_threads: usize) -> VmConfig {
    VmConfig {
        max_threads,
        heap_cells: 8,
        max_steps: 512,
        stop_on_race: false,
        ..VmConfig::default()
    }
}

/// The seeded two-cell racy kernel (acceptance criteria): every worker
/// does `read(0); write(0, id)` — an inter-worker WAW/RAW in every
/// schedule — then `read(1)`, with worker 1 alone writing cell 1, so
/// cell 1 races are WAR in the read-first schedules (CLEAN-missed) and
/// RAW in the write-first ones.
fn racy_probe() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let mut workers = Vec::new();
            for w in 0..2u64 {
                workers.push(c.spawn(move |c| {
                    c.read(0)?;
                    c.write(0, 100 + w)?;
                    c.read(1)?;
                    if w == 1 {
                        c.write(1, 7)?;
                    }
                    Ok(w)
                })?);
            }
            let mut sum = 0;
            for t in workers {
                sum += c.join(t)?;
            }
            Ok(sum)
        })
    })
}

/// Two workers write the same cell with no synchronization: a WAW (or
/// RAW via the preceding read) in every schedule.
fn waw_pair() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let a = c.spawn(|c| {
                c.write(0, 1)?;
                Ok(0)
            })?;
            let b = c.spawn(|c| {
                c.write(0, 2)?;
                Ok(0)
            })?;
            c.join(a)?;
            c.join(b)?;
            c.read(0)
        })
    })
}

/// One reader, one writer, no synchronization: WAR in read-first
/// schedules (CLEAN misses), RAW in write-first ones (CLEAN flags).
fn war_probe() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let r = c.spawn(|c| c.read(0))?;
            let w = c.spawn(|c| {
                c.write(0, 9)?;
                Ok(9)
            })?;
            c.join(r)?;
            c.join(w)?;
            Ok(0)
        })
    })
}

/// A mutex-protected counter incremented by two workers: race-free and
/// deterministic (final value 2) in every schedule.
fn lock_counter() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let m = c.create_mutex();
            let mut workers = Vec::new();
            for _ in 0..2 {
                workers.push(c.spawn(move |c| {
                    c.lock(m)?;
                    let v = c.read(0)?;
                    c.write(0, v + 1)?;
                    c.unlock(m)?;
                    Ok(v)
                })?);
            }
            for t in workers {
                c.join(t)?;
            }
            c.read(0)
        })
    })
}

/// Two workers write their own cell, meet at a barrier, then read each
/// other's cell: race-free across the barrier's release edge.
fn barrier_phase() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let b = c.create_barrier(2);
            let mut workers = Vec::new();
            for w in 0..2usize {
                workers.push(c.spawn(move |c| {
                    c.write(w, w as u64 + 10)?;
                    c.barrier_wait(b)?;
                    c.read(1 - w)
                })?);
            }
            let mut sum = 0;
            for t in workers {
                sum += c.join(t)?;
            }
            Ok(sum)
        })
    })
}

/// A writer updates a cell under the write lock; two readers read it
/// under read locks: race-free through the rwlock's clocks.
fn rw_shared() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let l = c.create_rwlock();
            let wr = c.spawn(move |c| {
                c.write_lock(l)?;
                c.write(0, 5)?;
                c.write_unlock(l)?;
                Ok(0)
            })?;
            let mut readers = Vec::new();
            for _ in 0..2 {
                readers.push(c.spawn(move |c| {
                    c.read_lock(l)?;
                    let v = c.read(0)?;
                    c.read_unlock(l)?;
                    Ok(v)
                })?);
            }
            c.join(wr)?;
            for t in readers {
                c.join(t)?;
            }
            Ok(0)
        })
    })
}

/// Producer/consumer hand-off through a condvar: the producer fills a
/// data cell before raising a mutex-protected flag; the consumer waits
/// (predicate loop) and reads the data afterwards. Race-free in every
/// schedule, including signal-before-wait ones.
fn cv_handoff() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let m = c.create_mutex();
            let cv = c.create_condvar();
            let prod = c.spawn(move |c| {
                c.write(1, 42)?;
                c.lock(m)?;
                c.write(0, 1)?;
                c.cond_signal(cv)?;
                c.unlock(m)?;
                Ok(0)
            })?;
            let cons = c.spawn(move |c| {
                c.lock(m)?;
                while c.read(0)? == 0 {
                    c.cond_wait(cv, m)?;
                }
                c.unlock(m)?;
                c.read(1)
            })?;
            c.join(prod)?;
            c.join(cons)
        })
    })
}

/// The condvar broadcast rounds of `clean-runtime`'s `tests/condvar.rs`:
/// the root publishes one slot per round (cell 0 = free slots, cell 2 =
/// payload) and announces it with a broadcast, which wakes every waiter
/// while only one can consume; the rest re-check and re-wait. Waiters
/// count consumptions in cell 1. Race-free, and never stuck: the root
/// publishes one slot per waiter. Two waiters rather than that test's
/// three keep the space exhaustible (10,172 schedules; three waiters
/// pass 35k schedules without finishing).
fn cv_broadcast() -> ProgramFn {
    const WAITERS: u64 = 2;
    Arc::new(|| {
        Box::new(|c| {
            let m = c.create_mutex();
            let cv = c.create_condvar();
            let mut waiters = Vec::new();
            for _ in 0..WAITERS {
                waiters.push(c.spawn(move |c| {
                    c.lock(m)?;
                    while c.read(0)? == 0 {
                        c.cond_wait(cv, m)?;
                    }
                    let slots = c.read(0)?;
                    c.write(0, slots - 1)?;
                    let done = c.read(1)?;
                    c.write(1, done + 1)?;
                    let payload = c.read(2)?;
                    c.unlock(m)?;
                    Ok(payload)
                })?);
            }
            for round in 0..WAITERS {
                c.lock(m)?;
                let slots = c.read(0)?;
                c.write(0, slots + 1)?;
                c.write(2, 40 + round)?;
                c.cond_broadcast(cv)?;
                c.unlock(m)?;
            }
            for t in waiters {
                c.join(t)?;
            }
            c.read(1)
        })
    })
}

/// A writer initializes a cell under the write lock, spawns a reader
/// while still holding it, publishes by *downgrading* to a shared hold,
/// and keeps reading under that hold. The downgrade's release edge is
/// the only thing ordering the initialization before the reader's load
/// — race-free in every schedule iff that edge exists. (One reader
/// keeps the space exhaustible; multi-reader sharing is `rw_shared`.)
fn rw_downgrade() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let l = c.create_rwlock();
            c.write_lock(l)?;
            let r = c.spawn(move |c| {
                c.read_lock(l)?;
                let v = c.read(0)?;
                c.read_unlock(l)?;
                Ok(v)
            })?;
            // Written while exclusive but *after* the fork, so the fork
            // edge cannot order it — only the downgrade can.
            c.write(0, 77)?;
            c.downgrade(l)?;
            let v = c.read(0)?;
            c.read_unlock(l)?;
            Ok(v + c.join(r)?)
        })
    })
}

/// Downgrade grants a *shared* hold, not a private one: cell 0 written
/// while exclusive is published to the reader by the downgrade edge, but
/// the write to cell 1 afterwards — under the shared hold, concurrent
/// with the reader's shared hold — races (WAR in read-first schedules,
/// which CLEAN misses; RAW in write-first ones, which it flags).
fn rw_downgrade_racy() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let l = c.create_rwlock();
            c.write_lock(l)?;
            c.write(0, 1)?;
            let r = c.spawn(move |c| {
                c.read_lock(l)?;
                c.read(0)?;
                let v = c.read(1)?;
                c.read_unlock(l)?;
                Ok(v)
            })?;
            c.downgrade(l)?;
            c.write(1, 2)?;
            c.read_unlock(l)?;
            c.join(r)?;
            Ok(0)
        })
    })
}

/// The classic AB/BA lock-order inversion: schedules where each worker
/// holds one lock deadlock; the scheduler must detect this, not hang.
fn ab_deadlock() -> ProgramFn {
    Arc::new(|| {
        Box::new(|c| {
            let a = c.create_mutex();
            let b = c.create_mutex();
            let w0 = c.spawn(move |c| {
                c.lock(a)?;
                c.lock(b)?;
                c.unlock(b)?;
                c.unlock(a)?;
                Ok(0)
            })?;
            let w1 = c.spawn(move |c| {
                c.lock(b)?;
                c.lock(a)?;
                c.unlock(a)?;
                c.unlock(b)?;
                Ok(0)
            })?;
            c.join(w0)?;
            c.join(w1)?;
            Ok(0)
        })
    })
}

/// The full program corpus.
pub fn registry() -> Vec<ProgramSpec> {
    vec![
        ProgramSpec {
            name: "racy_probe",
            about: "two-cell seeded kernel: WAW/RAW on cell 0 every schedule, WAR-direction misses on cell 1",
            expect: Expect::CleanRaceAlways,
            cfg: cfg(3),
            factory: racy_probe(),
        },
        ProgramSpec {
            name: "waw_pair",
            about: "two unsynchronized writers to one cell",
            expect: Expect::CleanRaceAlways,
            cfg: cfg(3),
            factory: waw_pair(),
        },
        ProgramSpec {
            name: "war_probe",
            about: "unordered read/write pair: WAR or RAW depending on schedule",
            expect: Expect::Racy,
            cfg: cfg(3),
            factory: war_probe(),
        },
        ProgramSpec {
            name: "lock_counter",
            about: "mutex-protected counter, two workers",
            expect: Expect::RaceFree,
            cfg: cfg(3),
            factory: lock_counter(),
        },
        ProgramSpec {
            name: "barrier_phase",
            about: "write-own / barrier / read-other's, two workers",
            expect: Expect::RaceFree,
            cfg: cfg(3),
            factory: barrier_phase(),
        },
        ProgramSpec {
            name: "rw_shared",
            about: "one writer, two readers through a rwlock",
            expect: Expect::RaceFree,
            cfg: cfg(4),
            factory: rw_shared(),
        },
        ProgramSpec {
            name: "rw_downgrade",
            about: "write-locked init published to a reader by a downgrade, shared re-read after",
            expect: Expect::RaceFree,
            cfg: cfg(2),
            factory: rw_downgrade(),
        },
        ProgramSpec {
            name: "rw_downgrade_racy",
            about: "downgrade leaves only a shared hold: post-downgrade write races with a reader",
            expect: Expect::Racy,
            cfg: cfg(2),
            factory: rw_downgrade_racy(),
        },
        ProgramSpec {
            name: "cv_handoff",
            about: "condvar producer/consumer hand-off with predicate loop",
            expect: Expect::RaceFree,
            cfg: cfg(3),
            factory: cv_handoff(),
        },
        ProgramSpec {
            name: "cv_broadcast",
            about: "one slot per broadcast round: over-woken waiters re-check and re-wait",
            expect: Expect::RaceFree,
            cfg: cfg(3),
            factory: cv_broadcast(),
        },
        ProgramSpec {
            name: "ab_deadlock",
            about: "AB/BA lock-order inversion (deadlocks on some schedules)",
            expect: Expect::MayDeadlock,
            cfg: cfg(3),
            factory: ab_deadlock(),
        },
    ]
}

/// Looks up a program by name.
pub fn find(name: &str) -> Option<ProgramSpec> {
    registry().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique() {
        let names: Vec<_> = registry().iter().map(|p| p.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn find_known_and_unknown() {
        assert!(find("racy_probe").is_some());
        assert!(find("nope").is_none());
    }
}
