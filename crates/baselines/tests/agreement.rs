//! Property-based agreement tests between the detector engines:
//!
//! * FastTrack and the classic two-vector-clock detector are both precise
//!   and must report the same first race: its event, kind and address;
//! * every trace on which CLEAN raises also makes the full detectors
//!   raise (CLEAN's WAW/RAW set is a subset of all races);
//! * on WAW/RAW-free traces CLEAN never reports anything, even when WAR
//!   races are present.

use clean_baselines::{
    run_detector, CleanEngine, FastTrack, FullRaceKind, TraceDetector, TraceEvent, TsanLike,
    VcFullDetector,
};
use clean_core::ThreadId;
use proptest::prelude::*;

const THREADS: u16 = 4;

/// An address in one of three places: the first 32 bytes, where half
/// the accesses meet; either side of the 512-byte boundary between the
/// engines' first two table pages; and the top of the address space,
/// where some accesses end at the very top and some wrap it.
fn arb_addr() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..32,
        0usize..32,
        500usize..516,
        (0usize..12).prop_map(|k| usize::MAX - k),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let tid = 0u16..THREADS;
    prop_oneof![
        (tid.clone(), arb_addr(), 1usize..=8).prop_map(|(t, a, s)| TraceEvent::Read {
            tid: ThreadId::new(t),
            addr: a,
            size: s,
        }),
        (tid.clone(), arb_addr(), 1usize..=8).prop_map(|(t, a, s)| TraceEvent::Write {
            tid: ThreadId::new(t),
            addr: a,
            size: s,
        }),
        (tid.clone(), 0u32..3).prop_map(|(t, l)| TraceEvent::Acquire {
            tid: ThreadId::new(t),
            lock: l,
        }),
        (tid, 0u32..3).prop_map(|(t, l)| TraceEvent::Release {
            tid: ThreadId::new(t),
            lock: l,
        }),
    ]
}

/// The first race `det` reports on `trace`, with its event index, as
/// `(index, kind, addr)`.
fn first_race(
    det: &mut dyn TraceDetector,
    trace: &[TraceEvent],
) -> Option<(usize, FullRaceKind, usize)> {
    trace.iter().enumerate().find_map(|(i, e)| {
        let race = det.process(e).first().copied()?;
        Some((i, race.kind, race.addr))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn precise_detectors_agree_on_raciness(
        trace in proptest::collection::vec(arb_event(), 1..80),
    ) {
        // Up to the first race both are exact, so they agree on where it
        // is: the same event, kind and first racy byte.
        let mut ft = FastTrack::new(THREADS as usize);
        let mut vc = VcFullDetector::new(THREADS as usize);
        let f = first_race(&mut ft, &trace);
        let v = first_race(&mut vc, &trace);
        prop_assert_eq!(f, v, "precise detectors disagreed on the first race");
    }

    #[test]
    fn clean_races_imply_full_detector_races(
        trace in proptest::collection::vec(arb_event(), 1..80),
    ) {
        let mut clean = CleanEngine::new(THREADS as usize);
        let mut ft = FastTrack::new(THREADS as usize);
        let c = run_detector(&mut clean, &trace);
        let f = run_detector(&mut ft, &trace);
        if !c.is_empty() {
            prop_assert!(!f.is_empty(), "CLEAN found {:?} but FastTrack found none", c);
        }
        // And CLEAN never reports a WAR.
        prop_assert!(c.iter().all(|r| r.kind != FullRaceKind::War));
    }

    #[test]
    fn tsan_never_reports_on_clean_and_fasttrack_free_traces(
        trace in proptest::collection::vec(arb_event(), 1..60),
    ) {
        // TSan-like is imprecise by omission (evictions) but its
        // happens-before logic is the same: it must not report a race on
        // traces the precise detectors consider race-free (no false
        // positives beyond precision of the shared hb model).
        let mut ft = FastTrack::new(THREADS as usize);
        if run_detector(&mut ft, &trace).is_empty() {
            let mut tsan = TsanLike::new(THREADS as usize);
            let t = run_detector(&mut tsan, &trace);
            prop_assert!(t.is_empty(), "tsan false positive: {:?}", t);
        }
    }

    #[test]
    fn single_thread_traces_are_race_free(
        ops in proptest::collection::vec((0usize..64, 1usize..=8, prop::bool::ANY), 1..60),
    ) {
        let trace: Vec<TraceEvent> = ops
            .into_iter()
            .map(|(addr, size, w)| {
                if w {
                    TraceEvent::Write { tid: ThreadId::new(0), addr, size }
                } else {
                    TraceEvent::Read { tid: ThreadId::new(0), addr, size }
                }
            })
            .collect();
        let mut clean = CleanEngine::new(1);
        prop_assert!(run_detector(&mut clean, &trace).is_empty());
        let mut ft = FastTrack::new(1);
        prop_assert!(run_detector(&mut ft, &trace).is_empty());
        let mut vc = VcFullDetector::new(1);
        prop_assert!(run_detector(&mut vc, &trace).is_empty());
        let mut ts = TsanLike::new(1);
        prop_assert!(run_detector(&mut ts, &trace).is_empty());
    }

    #[test]
    fn fully_locked_traces_are_race_free(
        ops in proptest::collection::vec(
            (0u16..THREADS, 0usize..16, prop::bool::ANY), 1..50),
    ) {
        // Every access wrapped in the same global lock: no detector may
        // report anything.
        let mut trace = Vec::new();
        for (t, addr, w) in ops {
            let tid = ThreadId::new(t);
            trace.push(TraceEvent::Acquire { tid, lock: 0 });
            trace.push(if w {
                TraceEvent::Write { tid, addr, size: 4 }
            } else {
                TraceEvent::Read { tid, addr, size: 4 }
            });
            trace.push(TraceEvent::Release { tid, lock: 0 });
        }
        let mut clean = CleanEngine::new(THREADS as usize);
        let mut ft = FastTrack::new(THREADS as usize);
        let mut vc = VcFullDetector::new(THREADS as usize);
        let mut ts = TsanLike::new(THREADS as usize);
        prop_assert!(run_detector(&mut clean, &trace).is_empty());
        prop_assert!(run_detector(&mut ft, &trace).is_empty());
        prop_assert!(run_detector(&mut vc, &trace).is_empty());
        prop_assert!(run_detector(&mut ts, &trace).is_empty());
    }
}
