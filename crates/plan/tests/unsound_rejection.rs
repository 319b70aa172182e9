//! Property tests for the plan load-time soundness gate: a plan whose
//! elide witness does not prove thread-privacy must be rejected by
//! `validate`/`parse`/`compile`, never silently applied — and sound
//! plans must survive a full text round trip unchanged.

use clean_plan::{CheckPlan, PlanAction, PlanDecision, PlanEntry, PlanError, Witness};
use proptest::prelude::*;

fn arb_range() -> impl Strategy<Value = (usize, usize)> {
    (0usize..1 << 20, 1usize..1 << 12).prop_map(|(lo, len)| (lo, lo + len))
}

fn arb_action() -> impl Strategy<Value = PlanAction> {
    proptest::bool::ANY.prop_map(|elide| {
        if elide {
            PlanAction::Elide
        } else {
            PlanAction::Coalesce
        }
    })
}

/// Disjoint sound entries: range k lives in its own 2^20-aligned slab.
fn sound_plan() -> impl Strategy<Value = CheckPlan> {
    proptest::collection::vec((arb_range(), arb_action(), 0u32..8, 1u64..1 << 30), 1..8).prop_map(
        |ranges| CheckPlan {
            profile: None,
            entries: ranges
                .into_iter()
                .enumerate()
                .map(|(k, ((lo, hi), action, owner, observed))| PlanEntry {
                    lo: (k << 21) + lo,
                    hi: (k << 21) + hi,
                    action,
                    witness: (action == PlanAction::Elide).then_some(Witness {
                        owner,
                        observed,
                        foreign: 0,
                    }),
                })
                .collect(),
        },
    )
}

proptest! {
    /// Any nonzero foreign count on any elide entry fails validation
    /// with `UnsoundElide`, regardless of where in the plan it sits.
    #[test]
    fn foreign_witness_is_always_rejected(
        plan in sound_plan(),
        victim in 0usize..8,
        foreign in 1u64..1 << 30,
    ) {
        let mut plan = plan;
        // Force at least one elide entry, then poison one of them.
        if !plan.entries.iter().any(|e| e.action == PlanAction::Elide) {
            let e = &mut plan.entries[0];
            e.action = PlanAction::Elide;
            e.witness = Some(Witness { owner: 0, observed: 1, foreign: 0 });
        }
        let elide_idxs: Vec<usize> = plan
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.action == PlanAction::Elide)
            .map(|(i, _)| i)
            .collect();
        let idx = elide_idxs[victim % elide_idxs.len()];
        let w = plan.entries[idx].witness.as_mut().unwrap();
        w.foreign = foreign;

        prop_assert!(matches!(plan.validate(), Err(PlanError::UnsoundElide { .. })));
        prop_assert!(plan.compile().is_err(), "unsound plan must not compile");
        // The text form is rejected at parse too: the poisoned witness
        // round-trips into the file and the loader refuses it.
        prop_assert!(matches!(
            CheckPlan::parse(&plan.render()),
            Err(PlanError::UnsoundElide { .. })
        ));
    }

    /// Witness-free and zero-observation elides are equally unsound.
    #[test]
    fn evidence_free_elides_are_rejected(
        (lo, hi) in arb_range(),
        strip in proptest::bool::ANY,
        owner in 0u32..8,
    ) {
        let entry = PlanEntry {
            lo,
            hi,
            action: PlanAction::Elide,
            witness: if strip {
                None
            } else {
                Some(Witness { owner, observed: 0, foreign: 0 })
            },
        };
        let plan = CheckPlan { profile: None, entries: vec![entry] };
        prop_assert!(matches!(plan.validate(), Err(PlanError::UnsoundElide { .. })));
        prop_assert!(plan.compile().is_err());
    }

    /// Sound plans round-trip through text and compile; every compiled
    /// elide decision carries its witness owner.
    #[test]
    fn sound_plans_round_trip_and_compile(plan in sound_plan()) {
        plan.validate().unwrap();
        let back = CheckPlan::parse(&plan.render()).unwrap();
        prop_assert_eq!(&back, &plan);
        let compiled = plan.compile().unwrap();
        for e in &plan.entries {
            let hit = compiled.lookup(e.lo, 1).unwrap();
            match (e.action, hit) {
                (PlanAction::Elide, PlanDecision::Elide { owner }) => {
                    prop_assert_eq!(owner, e.witness.unwrap().owner);
                }
                (PlanAction::Coalesce, PlanDecision::Coalesce) => {}
                (a, d) => prop_assert!(false, "action {a:?} compiled to {d:?}"),
            }
        }
    }
}
