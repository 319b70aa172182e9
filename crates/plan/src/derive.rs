//! Plan derivation from an observed access stream.
//!
//! [`PlanObserver`] folds `(tid, addr, size, is_write)` observations —
//! typically replayed from a recorded CLTR trace — into per-granule
//! ownership and stride statistics, then classifies contiguous runs of
//! granules into the two plan actions:
//!
//! * every granule touched by exactly one thread → **elide**, with the
//!   witness (owner, observed count, foreign = 0) recorded per entry;
//! * shared granules whose writes are mostly *sequential* (each write
//!   starts where the thread's previous write ended) → **coalesce**,
//!   the strided-sweep shape the direct-mapped filter slots miss.
//!
//! Every other shared granule gets no entry and is checked as usual.

use crate::{CheckPlan, PlanAction, PlanEntry, PlanProfile, Witness};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Default derivation granule in bytes. Ownership and stride are
/// tracked per granule; plan ranges are unions of whole granules.
pub const DEFAULT_GRANULE: usize = 64;

/// Writes must be at least this sequential (3/4) for a shared granule
/// to classify as strided.
const SEQ_NUM: u64 = 3;
const SEQ_DEN: u64 = 4;

#[derive(Debug, Default, Clone, Copy)]
struct Granule {
    owner: Option<u32>,
    accesses: u64,
    foreign: u64,
    writes: u64,
    seq_writes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Private(u32),
    Strided,
    Shared,
}

/// Coverage statistics for a derived plan: how much of the observed
/// footprint each action class captured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Bytes covered by elide entries.
    pub elide_bytes: u64,
    /// Bytes covered by coalesce entries.
    pub coalesce_bytes: u64,
    /// Elide entry count.
    pub elide_entries: usize,
    /// Coalesce entry count.
    pub coalesce_entries: usize,
    /// Total observed accesses.
    pub observed_accesses: u64,
    /// Accesses that fell in elide ranges (checks a consumer skips
    /// entirely for the owner thread).
    pub elided_accesses: u64,
}

impl Coverage {
    /// Total bytes covered by any plan entry.
    pub fn total_bytes(&self) -> u64 {
        self.elide_bytes + self.coalesce_bytes
    }

    /// Fraction of covered bytes in `class_bytes` (0 when nothing is
    /// covered).
    fn fraction(&self, class_bytes: u64) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        class_bytes as f64 / total as f64
    }

    /// Human-readable multi-line summary (used by `clean-analyze plan`).
    pub fn render(&self) -> String {
        let pct = |b| 100.0 * self.fraction(b);
        let access_pct = if self.observed_accesses == 0 {
            0.0
        } else {
            100.0 * self.elided_accesses as f64 / self.observed_accesses as f64
        };
        format!(
            "elide    {:>6} entries  {:>12} bytes ({:5.1}%)\n\
             coalesce {:>6} entries  {:>12} bytes ({:5.1}%)\n\
             observed {} accesses, {:.1}% in elide ranges",
            self.elide_entries,
            self.elide_bytes,
            pct(self.elide_bytes),
            self.coalesce_entries,
            self.coalesce_bytes,
            pct(self.coalesce_bytes),
            self.observed_accesses,
            access_pct,
        )
    }
}

/// Accumulates observed accesses and derives a [`CheckPlan`].
#[derive(Debug)]
pub struct PlanObserver {
    granule: usize,
    granules: BTreeMap<usize, Granule>,
    last_write_end: HashMap<u32, usize>,
    tids: HashSet<u32>,
    observed: u64,
}

impl PlanObserver {
    /// A fresh observer with the [`DEFAULT_GRANULE`].
    pub fn new() -> Self {
        Self::with_granule(DEFAULT_GRANULE)
    }

    /// A fresh observer with a custom power-of-two granule (clamped to
    /// at least 8 bytes).
    pub fn with_granule(granule: usize) -> Self {
        let granule = granule.max(8).next_power_of_two();
        PlanObserver {
            granule,
            granules: BTreeMap::new(),
            last_write_end: HashMap::new(),
            tids: HashSet::new(),
            observed: 0,
        }
    }

    /// The granule in use.
    pub fn granule(&self) -> usize {
        self.granule
    }

    /// Folds one observed access into the statistics.
    pub fn observe(&mut self, tid: u32, addr: usize, size: usize, is_write: bool) {
        if size == 0 {
            return;
        }
        self.observed += 1;
        self.tids.insert(tid);
        let sequential = is_write && self.last_write_end.get(&tid) == Some(&addr);
        if is_write {
            self.last_write_end.insert(tid, addr.saturating_add(size));
        }
        let first = addr / self.granule;
        let last = (addr + size - 1) / self.granule;
        for g in first..=last {
            let granule = self.granules.entry(g).or_default();
            granule.accesses += 1;
            match granule.owner {
                None => granule.owner = Some(tid),
                Some(owner) if owner != tid => granule.foreign += 1,
                Some(_) => {}
            }
            if is_write {
                granule.writes += 1;
                if sequential {
                    granule.seq_writes += 1;
                }
            }
        }
    }

    /// Observed access count so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The derivation footprint accumulated so far — what
    /// [`derive`](Self::derive) stamps into the plan.
    pub fn profile(&self) -> PlanProfile {
        PlanProfile {
            granule: self.granule,
            granules: self.granules.len() as u64,
            events: self.observed,
            threads: self.tids.len() as u32,
        }
    }

    fn classify(g: &Granule) -> Class {
        match g.owner {
            Some(owner) if g.foreign == 0 => Class::Private(owner),
            _ => {
                if g.writes > 0 && g.seq_writes * SEQ_DEN >= g.writes * SEQ_NUM {
                    Class::Strided
                } else {
                    Class::Shared
                }
            }
        }
    }

    /// Derives the plan and its coverage statistics. The plan always
    /// validates — elide witnesses are only emitted for foreign-free
    /// runs — so `derive().0.compile()` cannot fail.
    pub fn derive(&self) -> (CheckPlan, Coverage) {
        let mut entries: Vec<PlanEntry> = Vec::new();
        let mut coverage = Coverage {
            observed_accesses: self.observed,
            ..Coverage::default()
        };
        // Walk granules in address order, merging adjacent granules of
        // the same class (and owner, for private runs) into one entry.
        let mut run: Option<(usize, usize, Class, u64)> = None; // (first, last, class, accesses)
        let flush = |run: &mut Option<(usize, usize, Class, u64)>, entries: &mut Vec<PlanEntry>| {
            let Some((first, last, class, accesses)) = run.take() else {
                return;
            };
            let lo = first * self.granule;
            let hi = (last + 1) * self.granule;
            let (action, witness) = match class {
                // Shared granules keep their full checks: no entry.
                Class::Shared => return,
                Class::Private(owner) => (
                    PlanAction::Elide,
                    Some(Witness {
                        owner,
                        observed: accesses,
                        foreign: 0,
                    }),
                ),
                Class::Strided => (PlanAction::Coalesce, None),
            };
            entries.push(PlanEntry {
                lo,
                hi,
                action,
                witness,
            });
        };
        for (&g, granule) in &self.granules {
            let class = Self::classify(granule);
            match &mut run {
                Some((_, last, c, accesses)) if *c == class && g == *last + 1 => {
                    *last = g;
                    *accesses += granule.accesses;
                }
                _ => {
                    flush(&mut run, &mut entries);
                    run = Some((g, g, class, granule.accesses));
                }
            }
        }
        flush(&mut run, &mut entries);
        for e in &entries {
            let bytes = (e.hi - e.lo) as u64;
            match e.action {
                PlanAction::Elide => {
                    coverage.elide_bytes += bytes;
                    coverage.elide_entries += 1;
                    coverage.elided_accesses += e.witness.map_or(0, |w| w.observed);
                }
                PlanAction::Coalesce => {
                    coverage.coalesce_bytes += bytes;
                    coverage.coalesce_entries += 1;
                }
            }
        }
        (
            CheckPlan {
                entries,
                profile: Some(self.profile()),
            },
            coverage,
        )
    }
}

impl Default for PlanObserver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanDecision;

    #[test]
    fn private_ranges_become_sound_elides() {
        let mut obs = PlanObserver::new();
        // t0 owns [0, 1024); t1 owns [4096, 8192).
        for i in 0..128 {
            obs.observe(0, i * 8, 8, true);
            obs.observe(1, 4096 + i * 32, 8, i % 2 == 0);
        }
        let (plan, cov) = obs.derive();
        plan.validate().unwrap();
        assert_eq!(cov.elide_entries, 2);
        assert_eq!(cov.coalesce_entries, 0);
        let compiled = plan.compile().unwrap();
        assert_eq!(
            compiled.lookup(0, 8),
            Some(PlanDecision::Elide { owner: 0 })
        );
        assert_eq!(
            compiled.lookup(4096, 8),
            Some(PlanDecision::Elide { owner: 1 })
        );
        assert_eq!(cov.elided_accesses, cov.observed_accesses);
    }

    #[test]
    fn shared_strided_writes_become_coalesce() {
        let mut obs = PlanObserver::new();
        // Both threads sweep the same region sequentially (two passes
        // each) — shared, but stride-dominated.
        for _pass in 0..2 {
            for tid in 0..2u32 {
                for i in 0..512 {
                    obs.observe(tid, i * 8, 8, true);
                }
            }
        }
        let (plan, cov) = obs.derive();
        assert_eq!(cov.coalesce_entries, 1);
        assert_eq!(cov.elide_entries, 0);
        assert_eq!(cov.coalesce_bytes, 4096);
        let compiled = plan.compile().unwrap();
        assert_eq!(compiled.lookup(64, 8), Some(PlanDecision::Coalesce));
    }

    #[test]
    fn shared_random_accesses_get_no_entry() {
        let mut obs = PlanObserver::new();
        // Two threads ping-pong over the same cells with scattered
        // (non-sequential) writes.
        for i in 0..256 {
            let addr = (i % 64) * 16;
            obs.observe((i % 2) as u32, addr, 8, i % 3 == 0);
        }
        let (plan, cov) = obs.derive();
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(cov.total_bytes(), 0);
        assert_eq!(cov.observed_accesses, 256);
    }

    #[test]
    fn mixed_footprint_splits_by_class_and_owner() {
        let mut obs = PlanObserver::new();
        // Adjacent private regions with different owners must not merge.
        for i in 0..8 {
            obs.observe(0, i * 8, 8, true);
            obs.observe(1, 64 + i * 8, 8, true);
        }
        let (plan, cov) = obs.derive();
        assert_eq!(cov.elide_entries, 2, "{plan:?}");
        let compiled = plan.compile().unwrap();
        assert_eq!(
            compiled.lookup(0, 8),
            Some(PlanDecision::Elide { owner: 0 })
        );
        assert_eq!(
            compiled.lookup(64, 8),
            Some(PlanDecision::Elide { owner: 1 })
        );
    }

    #[test]
    fn coverage_renders_percentages() {
        let mut obs = PlanObserver::new();
        obs.observe(0, 0, 8, true);
        let (_, cov) = obs.derive();
        let text = cov.render();
        assert!(text.contains("elide"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn empty_observer_derives_empty_plan() {
        let (plan, cov) = PlanObserver::new().derive();
        assert!(plan.is_empty());
        assert_eq!(cov.total_bytes(), 0);
        assert_eq!(cov.render().lines().count(), 3);
    }
}
