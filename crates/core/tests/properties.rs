//! Property-based tests of the core invariants: vector-clock algebra,
//! epoch packing, shadow-memory consistency against a model, and
//! vectorized/non-vectorized detector equivalence.

use clean_core::{
    CleanDetector, DetectorConfig, Epoch, EpochLayout, RolloverCoordinator, ShadowMemory, ThreadId,
    VectorClock,
};
use proptest::prelude::*;
use std::collections::HashMap;

const N: usize = 4;

/// Byte range the rollover scripts access; the false-negative probe uses
/// an address beyond it, untouched by any script access.
const SCRIPT_RANGE: usize = 256;
const PROBE_ADDR: usize = SCRIPT_RANGE + 64;

/// Outcome of driving one lock-synchronized access script across clock
/// rollovers (see [`run_rollover_script`]).
struct RolloverRun {
    /// Access indices at which a deterministic reset fired.
    reset_indices: Vec<usize>,
    /// Resets the coordinator performed (must match `reset_indices`).
    resets: u64,
    /// Race reports from the detector — the script is fully synchronized,
    /// so every one is a stale-epoch false positive.
    false_positives: usize,
    det: CleanDetector,
    vcs: Vec<VectorClock>,
    global: VectorClock,
    coord: RolloverCoordinator,
}

/// Increments `vcs[i]`, performing the Section 4.5 deterministic reset
/// when the clock is saturated: request the reset, rendezvous at the sync
/// point (clearing shadow memory and the lock clock), reset the other
/// threads' clocks as their own sync points would, then retry.
fn increment_with_reset(
    i: usize,
    vcs: &mut [VectorClock],
    global: &mut VectorClock,
    det: &CleanDetector,
    coord: &RolloverCoordinator,
) -> bool {
    let t = ThreadId::new(i as u16);
    if vcs[i].increment(t).is_ok() {
        return false;
    }
    coord.request_reset();
    coord.sync_point(&mut vcs[i], || {
        det.reset_metadata();
        global.reset();
    });
    for (j, vc) in vcs.iter_mut().enumerate() {
        if j != i {
            vc.reset();
        }
    }
    vcs[i]
        .increment(t)
        .expect("a freshly reset clock cannot saturate");
    true
}

/// Drives a fully lock-synchronized access script — acquire (join the
/// global release clock), start a new SFR (increment), access, release
/// (publish into the global clock) — under a tiny clock layout so the
/// script crosses the rollover boundary, handling each saturation with
/// the deterministic reset protocol.
fn run_rollover_script(bits: u32, script: &[(u16, usize, usize, bool)]) -> RolloverRun {
    let layout = EpochLayout::with_clock_bits(bits);
    let det = CleanDetector::new(512, DetectorConfig::new().layout(layout));
    let coord = RolloverCoordinator::new();
    // The sequential driver stands in for all modeled threads: when it
    // reaches the rendezvous every other thread is (by construction)
    // already at a synchronization point.
    coord.register_thread();
    let mut vcs: Vec<VectorClock> = (0..N).map(|_| VectorClock::new(N, layout)).collect();
    let mut global = VectorClock::new(N, layout);
    let mut reset_indices = Vec::new();
    let mut false_positives = 0;
    for (k, &(tid, addr, size, is_write)) in script.iter().enumerate() {
        let i = (tid as usize) % N;
        let t = ThreadId::new(i as u16);
        vcs[i].join(&global);
        if increment_with_reset(i, &mut vcs, &mut global, &det, &coord) {
            reset_indices.push(k);
        }
        let addr = addr.min(SCRIPT_RANGE - size);
        let res = if is_write {
            det.check_write(&vcs[i], t, addr, size)
        } else {
            det.check_read(&vcs[i], t, addr, size)
        };
        if res.is_err() {
            false_positives += 1;
        }
        global.join(&vcs[i]);
    }
    RolloverRun {
        reset_indices,
        resets: coord.resets_performed(),
        false_positives,
        det,
        vcs,
        global,
        coord,
    }
}

fn arb_vc() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u32..1000, N).prop_map(|clocks| {
        let mut vc = VectorClock::new(N, EpochLayout::paper_default());
        for (i, c) in clocks.into_iter().enumerate() {
            vc.set_clock(ThreadId::new(i as u16), c);
        }
        vc
    })
}

proptest! {
    #[test]
    fn epoch_pack_roundtrip(tid in 0u16..=255, clock in 0u32..(1 << 23)) {
        let layout = EpochLayout::paper_default();
        let e = layout.pack(ThreadId::new(tid), clock);
        prop_assert_eq!(layout.tid(e), ThreadId::new(tid));
        prop_assert_eq!(layout.clock(e), clock);
    }

    #[test]
    fn epoch_roundtrip_any_layout(bits in 1u32..=30, tid_seed in 0u32..u32::MAX, clock_seed in 0u32..u32::MAX) {
        let layout = EpochLayout::with_clock_bits(bits);
        let tid = ThreadId::new((tid_seed as usize % layout.max_threads()) as u16);
        let clock = clock_seed % (layout.max_clock() + 1);
        let e = layout.pack(tid, clock);
        prop_assert_eq!(layout.tid(e), tid);
        prop_assert_eq!(layout.clock(e), clock);
    }

    #[test]
    fn join_is_commutative(a in arb_vc(), b in arb_vc()) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn join_is_associative(a in arb_vc(), b in arb_vc(), c in arb_vc()) {
        let mut left = a.clone();
        left.join(&b);
        left.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut right = a.clone();
        right.join(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn join_is_idempotent_and_upper_bound(a in arb_vc(), b in arb_vc()) {
        let mut j = a.clone();
        j.join(&b);
        let mut jj = j.clone();
        jj.join(&b);
        prop_assert_eq!(&j, &jj);
        prop_assert!(a.le(&j));
        prop_assert!(b.le(&j));
    }

    #[test]
    fn races_with_iff_clock_exceeds_element(vc in arb_vc(), tid in 0u16..(N as u16), clock in 0u32..1000) {
        let layout = EpochLayout::paper_default();
        let e = layout.pack(ThreadId::new(tid), clock);
        let races = vc.races_with(e);
        prop_assert_eq!(races, clock > vc.clock_of(ThreadId::new(tid)));
    }

    #[test]
    fn join_absorbs_write_epochs(mut reader in arb_vc(), writer in arb_vc(), tid in 0u16..(N as u16)) {
        // After joining the writer's clock, none of the writer's epochs race.
        let e = writer.write_epoch(ThreadId::new(tid));
        reader.join(&writer);
        prop_assert!(!reader.races_with(e));
    }

    #[test]
    fn shadow_matches_hashmap_model(
        ops in proptest::collection::vec(
            (0usize..8192, 0u32..5000, prop::bool::ANY), 1..200),
    ) {
        let shadow = ShadowMemory::new(8192);
        let mut model: HashMap<usize, u32> = HashMap::new();
        for (addr, val, use_cas) in ops {
            if use_cas {
                let cur = *model.get(&addr).unwrap_or(&0);
                let ok = shadow
                    .compare_exchange(addr, Epoch::from_raw(cur), Epoch::from_raw(val))
                    .is_ok();
                prop_assert!(ok, "model-matched CAS must succeed");
                model.insert(addr, val);
            } else {
                shadow.store(addr, Epoch::from_raw(val));
                model.insert(addr, val);
            }
            prop_assert_eq!(shadow.load(addr).raw(), model[&addr]);
        }
    }

    #[test]
    fn shadow_reset_clears_everything(
        addrs in proptest::collection::vec(0usize..4096, 1..50),
    ) {
        let shadow = ShadowMemory::new(4096);
        for (i, a) in addrs.iter().enumerate() {
            shadow.store(*a, Epoch::from_raw(i as u32 + 1));
        }
        shadow.reset();
        for a in &addrs {
            prop_assert_eq!(shadow.load(*a), Epoch::ZERO);
        }
    }

    /// Vectorized and per-byte detectors must return identical verdicts on
    /// any sequential access script with synchronization modelled by
    /// explicit vector-clock joins.
    #[test]
    fn vectorized_equals_scalar_detection(
        script in proptest::collection::vec(
            (0u16..(N as u16), 0usize..128, 1usize..=8, prop::bool::ANY, prop::bool::ANY),
            1..120),
    ) {
        let det_v = CleanDetector::new(256, DetectorConfig::new().vectorized(true));
        let det_s = CleanDetector::new(256, DetectorConfig::new().vectorized(false));
        let layout = EpochLayout::paper_default();
        let mut vcs: Vec<VectorClock> =
            (0..N).map(|_| VectorClock::new(N, layout)).collect();
        for (i, vc) in vcs.iter_mut().enumerate() {
            vc.increment(ThreadId::new(i as u16)).unwrap();
        }
        let mut global = VectorClock::new(N, layout);
        for (tid, addr, size, is_write, sync_first) in script {
            let t = ThreadId::new(tid);
            let i = tid as usize;
            if sync_first {
                // Model a global lock: release-acquire through `global`.
                global.join(&vcs[i]);
                vcs[i].join(&global);
                vcs[i].increment(t).unwrap();
            }
            let addr = addr.min(256 - size);
            let (rv, rs) = if is_write {
                (det_v.check_write(&vcs[i], t, addr, size),
                 det_s.check_write(&vcs[i], t, addr, size))
            } else {
                (det_v.check_read(&vcs[i], t, addr, size),
                 det_s.check_read(&vcs[i], t, addr, size))
            };
            prop_assert_eq!(rv.is_err(), rs.is_err(),
                "verdict mismatch at {:?} addr {} size {}", t, addr, size);
            if rv.is_err() {
                // Both stopped: a real execution would end here; stop the
                // script like the race exception would.
                break;
            }
        }
    }

    /// A fully lock-synchronized script stays race-free across any number
    /// of deterministic rollover resets: stale epochs surviving a reset
    /// would surface here as false positives.
    #[test]
    fn rollover_reset_produces_no_false_positives(
        bits in 3u32..=5,
        script in proptest::collection::vec(
            (0u16..(N as u16), 0usize..SCRIPT_RANGE, 1usize..=8, prop::bool::ANY),
            1..250),
    ) {
        let run = run_rollover_script(bits, &script);
        prop_assert_eq!(run.false_positives, 0,
            "synchronized accesses raced after {} resets", run.resets);
        prop_assert_eq!(run.resets, run.reset_indices.len() as u64);
        // Long scripts under tiny clocks must actually cross the boundary:
        // every access increments one thread, so more than N * max_clock
        // SFRs cannot fit in one epoch generation.
        let capacity = N as u64 * u64::from(EpochLayout::with_clock_bits(bits).max_clock());
        if script.len() as u64 > capacity {
            prop_assert!(run.resets > 0, "no reset in {} accesses", script.len());
        }
    }

    /// After the resets, detection stays live: the reset must not leave
    /// clocks or shadow state that mask a genuinely unsynchronized pair
    /// (a stale-epoch false negative).
    #[test]
    fn rollover_reset_produces_no_false_negatives(
        bits in 3u32..=5,
        script in proptest::collection::vec(
            (0u16..(N as u16), 0usize..SCRIPT_RANGE, 1usize..=8, prop::bool::ANY),
            64..250),
    ) {
        let mut run = run_rollover_script(bits, &script);
        let (a, b) = (ThreadId::new(0), ThreadId::new(1));
        // Two new SFRs with no release/acquire between them. Thread 1
        // increments first: if either increment triggers a reset, the
        // writer (thread 0) still enters the probe with a fresh epoch.
        increment_with_reset(1, &mut run.vcs, &mut run.global, &run.det, &run.coord);
        increment_with_reset(0, &mut run.vcs, &mut run.global, &run.det, &run.coord);
        // ...racing on an address no script access ever touched.
        prop_assert!(run.det.check_write(&run.vcs[0], a, PROBE_ADDR, 8).is_ok(),
            "first write to a fresh address cannot race");
        let waw = run.det.check_write(&run.vcs[1], b, PROBE_ADDR, 8);
        prop_assert!(waw.is_err(), "unsynchronized WAW missed after {} resets", run.resets);
        let raw = run.det.check_read(&run.vcs[1], b, PROBE_ADDR, 8);
        prop_assert!(raw.is_err(), "unsynchronized RAW missed after {} resets", run.resets);
    }

    /// Reset points are globally deterministic (Section 4.5): replaying
    /// the same synchronization-point sequence fires the resets at the
    /// same accesses and leaves identical metadata.
    #[test]
    fn rollover_reset_points_are_deterministic(
        bits in 3u32..=5,
        script in proptest::collection::vec(
            (0u16..(N as u16), 0usize..SCRIPT_RANGE, 1usize..=8, prop::bool::ANY),
            1..250),
    ) {
        let one = run_rollover_script(bits, &script);
        let two = run_rollover_script(bits, &script);
        prop_assert_eq!(&one.reset_indices, &two.reset_indices);
        prop_assert_eq!(one.resets, two.resets);
        for addr in (0..SCRIPT_RANGE).step_by(16) {
            prop_assert_eq!(one.det.epoch_at(addr), two.det.epoch_at(addr),
                "shadow diverged at {}", addr);
        }
    }
}
