//! Criterion microbenchmarks of the CLEAN race check (the per-access cost
//! the software slowdown of Figure 6 is made of): single- and multi-byte
//! checks, with and without the Section 4.4 vectorization, plus the
//! vector-clock and shadow-memory primitives.

use clean_core::{
    CleanDetector, DetectorConfig, Epoch, EpochLayout, ShadowMemory, ShadowPageCache, ThreadId,
    VectorClock,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_checks(c: &mut Criterion) {
    let layout = EpochLayout::paper_default();
    let mut vc = VectorClock::new(8, layout);
    vc.increment(ThreadId::new(0)).unwrap();
    let t0 = ThreadId::new(0);

    let mut g = c.benchmark_group("race_check");
    for (name, vectorized, size) in [
        ("write_u8", true, 1usize),
        ("write_u32_vec", true, 4),
        ("write_u64_vec", true, 8),
        ("write_u64_novec", false, 8),
    ] {
        let det = CleanDetector::new(1 << 16, DetectorConfig::new().vectorized(vectorized));
        // Pre-publish so the steady state skips updates (common case).
        det.check_write(&vc, t0, 0, size).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| det.check_write(black_box(&vc), t0, black_box(0), size))
        });
    }
    for (name, vectorized) in [("read_u64_vec", true), ("read_u64_novec", false)] {
        let det = CleanDetector::new(1 << 16, DetectorConfig::new().vectorized(vectorized));
        det.check_write(&vc, t0, 0, 8).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| det.check_read(black_box(&vc), t0, black_box(0), 8))
        });
    }
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let layout = EpochLayout::paper_default();
    let mut g = c.benchmark_group("primitives");
    g.bench_function("vc_join_8", |b| {
        let mut a = VectorClock::new(8, layout);
        let mut other = VectorClock::new(8, layout);
        other.increment(ThreadId::new(3)).unwrap();
        b.iter(|| a.join(black_box(&other)));
    });
    g.bench_function("vc_races_with", |b| {
        let vc = VectorClock::new(8, layout);
        let e = layout.pack(ThreadId::new(2), 5);
        b.iter(|| vc.races_with(black_box(e)));
    });
    g.bench_function("shadow_load", |b| {
        let s = ShadowMemory::new(1 << 16);
        s.store(64, Epoch::from_raw(7));
        let mut cache = ShadowPageCache::new();
        b.iter(|| s.load(black_box(64), &mut cache));
    });
    g.bench_function("shadow_cas", |b| {
        let s = ShadowMemory::new(1 << 16);
        let mut cache = ShadowPageCache::new();
        b.iter_batched(
            || (),
            |_| {
                let cur = s.load(64, &mut cache);
                let next = Epoch::from_raw(cur.raw().wrapping_add(1));
                let _ = s.compare_exchange(64, cur, next, &mut cache);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_checks, bench_primitives);
criterion_main!(benches);
