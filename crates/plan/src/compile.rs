//! The detector-facing compiled form of a [`CheckPlan`]: an immutable,
//! sorted range table answered by binary search on the check fast path.

use crate::{CheckPlan, PlanAction, PlanEntry};

/// What the detector should do with one concrete access, as answered by
/// [`CompiledPlan::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecision {
    /// Skip the check entirely — but only if the accessing thread is
    /// `owner`; the caller must enforce the guard. Foreign threads take
    /// the full check path.
    Elide {
        /// The witness owner thread (raw thread id).
        owner: u32,
    },
    /// Insert/probe a growable range entry in the SFR write filter.
    Coalesce,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledEntry {
    lo: usize,
    hi: usize,
    decision: PlanDecision,
}

/// A validated [`CheckPlan`] compiled for fast lookup: entries sorted
/// by range start, answered with one binary search per check.
///
/// Construct with [`CheckPlan::compile`]; an unsound plan never
/// compiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    entries: Vec<CompiledEntry>,
    lo_bound: usize,
    hi_bound: usize,
}

impl CompiledPlan {
    /// Internal: build from an already-validated plan (sorted here).
    pub(crate) fn from_validated(plan: &CheckPlan) -> Self {
        let mut entries: Vec<CompiledEntry> = plan
            .entries
            .iter()
            .map(|e: &PlanEntry| CompiledEntry {
                lo: e.lo,
                hi: e.hi,
                decision: match e.action {
                    PlanAction::Elide => PlanDecision::Elide {
                        owner: e.witness.expect("validated elide has a witness").owner,
                    },
                    PlanAction::Coalesce => PlanDecision::Coalesce,
                },
            })
            .collect();
        entries.sort_by_key(|e| e.lo);
        let lo_bound = entries.first().map_or(usize::MAX, |e| e.lo);
        let hi_bound = entries.last().map_or(0, |e| e.hi);
        CompiledPlan {
            entries,
            lo_bound,
            hi_bound,
        }
    }

    /// The decision for an access of `size` bytes at `addr`, if some
    /// plan range *fully contains* `[addr, addr + size)`. Straddling
    /// accesses get no decision and take the unplanned path — a plan
    /// can only be consulted for accesses it wholly describes.
    #[inline]
    pub fn lookup(&self, addr: usize, size: usize) -> Option<PlanDecision> {
        // One branch rejects everything outside the planned footprint —
        // the common case for a plan covering a few hot regions.
        if addr < self.lo_bound || addr >= self.hi_bound {
            return None;
        }
        // Last entry with lo <= addr.
        let idx = self.entries.partition_point(|e| e.lo <= addr);
        let e = &self.entries[idx.checked_sub(1)?];
        (addr >= e.lo && addr.checked_add(size)? <= e.hi).then_some(e.decision)
    }

    /// Number of compiled ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan compiled to no ranges (every lookup misses).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Witness;

    fn plan() -> CompiledPlan {
        CheckPlan {
            profile: None,
            entries: vec![
                PlanEntry {
                    lo: 0x1000,
                    hi: 0x2000,
                    action: PlanAction::Elide,
                    witness: Some(Witness {
                        owner: 3,
                        observed: 100,
                        foreign: 0,
                    }),
                },
                PlanEntry {
                    lo: 0x4000,
                    hi: 0x5000,
                    action: PlanAction::Coalesce,
                    witness: None,
                },
                PlanEntry {
                    lo: 0x2000,
                    hi: 0x3000,
                    action: PlanAction::Coalesce,
                    witness: None,
                },
            ],
        }
        .compile()
        .unwrap()
    }

    #[test]
    fn lookup_finds_the_covering_range() {
        let p = plan();
        assert_eq!(p.lookup(0x1000, 8), Some(PlanDecision::Elide { owner: 3 }));
        assert_eq!(p.lookup(0x1ff8, 8), Some(PlanDecision::Elide { owner: 3 }));
        assert_eq!(p.lookup(0x2000, 4), Some(PlanDecision::Coalesce));
        assert_eq!(p.lookup(0x4800, 64), Some(PlanDecision::Coalesce));
    }

    #[test]
    fn lookup_misses_outside_and_on_straddles() {
        let p = plan();
        assert_eq!(p.lookup(0x0, 8), None, "below all ranges");
        assert_eq!(p.lookup(0x5000, 1), None, "at exclusive end");
        assert_eq!(p.lookup(0x3000, 8), None, "in the gap");
        assert_eq!(p.lookup(0x1ffc, 8), None, "straddle into adjacent range");
        assert_eq!(p.lookup(0x4ffc, 8), None, "straddle out of the plan");
        assert_eq!(p.lookup(usize::MAX, 8), None, "overflow-safe");
    }

    #[test]
    fn empty_plan_always_misses() {
        let p = CheckPlan::empty().compile().unwrap();
        assert!(p.is_empty());
        assert_eq!(p.lookup(0, 8), None);
        assert_eq!(p.lookup(0x1000, 1), None);
    }

    #[test]
    fn adjacent_ranges_do_not_bleed() {
        // 0x1fff+1-byte access sits wholly in the elide range; the same
        // address with 2 bytes straddles into coalesce and must miss.
        let p = plan();
        assert_eq!(p.lookup(0x1fff, 1), Some(PlanDecision::Elide { owner: 3 }));
        assert_eq!(p.lookup(0x1fff, 2), None);
    }
}
