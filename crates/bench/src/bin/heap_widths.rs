//! Diagnostic: what the shared heap's word width costs.
//! Run with: `cargo run --release -p clean-bench --bin heap_widths`
//! (`CLEAN_THREADS`, `CLEAN_SCALE` as for `fig6_software_overhead`).
//!
//! First, the shared-access mix of the Figure 6 kernels: every checked
//! access of each race-free benchmark, counted by width through a trace
//! sink, and the stores the heap cannot do with plain word stores. A
//! store piece that does not cover a whole word is a compare-and-swap on
//! that word; the last two columns size that cost for the heap's 4-byte
//! words and for 8-byte words.
//!
//! Second, ns per checked access for each width: one thread, a write
//! sweep then a read sweep over a 4096-element array, the median of 9
//! runs of 400 sweeps each, with detection off and on.

use clean_bench::{env_scale, env_threads, fmt_pct, Table};
use clean_core::{EventSink, TraceEvent};
use clean_runtime::{CleanRuntime, RuntimeConfig, Scalar};
use clean_workloads::{race_free_benchmarks, run_benchmark, KernelParams};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Access counters; the kernels' threads record concurrently.
#[derive(Default)]
struct Mix {
    /// Accesses by width in bytes (1..=8).
    by_width: [AtomicU64; 9],
    writes: AtomicU64,
    /// Stores needing a compare-and-swap with 4-byte / 8-byte words.
    cas_stores: [AtomicU64; 2],
}

/// Whether a `size`-byte store at `addr` has a piece that does not cover
/// a whole `word`-byte word.
fn needs_cas(addr: usize, size: usize, word: usize) -> bool {
    !addr.is_multiple_of(word) || !size.is_multiple_of(word)
}

impl EventSink for Mix {
    fn record_event(&self, event: &TraceEvent) {
        match *event {
            TraceEvent::Read { size, .. } => {
                self.by_width[size].fetch_add(1, Relaxed);
            }
            TraceEvent::Write { addr, size, .. } => {
                self.by_width[size].fetch_add(1, Relaxed);
                self.writes.fetch_add(1, Relaxed);
                for (count, word) in self.cas_stores.iter().zip([4, 8]) {
                    if needs_cas(addr, size, word) {
                        count.fetch_add(1, Relaxed);
                    }
                }
            }
            _ => {}
        }
    }
}

fn access_mix() {
    let threads = env_threads();
    let scale = env_scale();
    println!("== Shared-access mix of the Figure 6 kernels ({threads} threads, {scale:?}) ==\n");
    let mut t = Table::new(&[
        "benchmark",
        "accesses",
        "u8",
        "u16",
        "u32",
        "u64",
        "writes",
        "CAS stores, 4B words",
        "CAS stores, 8B words",
    ]);
    let mut total = [0u64; 4];
    for b in race_free_benchmarks() {
        let mix = Arc::new(Mix::default());
        let rt = CleanRuntime::with_trace_sink(
            RuntimeConfig::baseline().heap_size(1 << 23).max_threads(16),
            Box::new(Arc::clone(&mix)),
        );
        run_benchmark(b, &rt, &KernelParams::new().threads(threads).scale(scale))
            .expect("race-free benchmark must complete");
        drop(rt);
        let width = |w: usize| mix.by_width[w].load(Relaxed);
        let all: u64 = (1..=8).map(width).sum();
        let share = |n: u64| fmt_pct(n as f64 / all.max(1) as f64);
        let cas = mix.cas_stores.each_ref().map(|c| c.load(Relaxed));
        t.row(vec![
            b.name.into(),
            all.to_string(),
            share(width(1)),
            share(width(2)),
            share(width(4)),
            share(width(8)),
            share(mix.writes.load(Relaxed)),
            share(cas[0]),
            share(cas[1]),
        ]);
        for (sum, n) in total.iter_mut().zip([all, width(1), cas[0], cas[1]]) {
            *sum += n;
        }
    }
    t.print();
    let [all, bytes, cas4, cas8] = total;
    let share = |n: u64| fmt_pct(n as f64 / all.max(1) as f64);
    println!(
        "\nall benchmarks: {all} accesses, u8 {}, CAS stores {} with 4-byte words, {} with 8-byte words",
        share(bytes),
        share(cas4),
        share(cas8)
    );
}

const ELEMENTS: usize = 4096;
const SWEEPS: usize = 400;
const RUNS: usize = 9;

/// ns per write and per read of one run.
fn sweep<T: Scalar + From<u8>>(config: RuntimeConfig) -> (f64, f64) {
    let rt = CleanRuntime::new(config.heap_size(1 << 20).max_threads(4));
    let a = rt.alloc_array::<T>(ELEMENTS).expect("heap fits the array");
    rt.run(|ctx| {
        let (mut write_ns, mut read_ns) = (0u128, 0u128);
        for s in 0..SWEEPS {
            let t0 = Instant::now();
            for i in 0..ELEMENTS {
                ctx.write(&a, i, T::from(((i + s) & 0x7f) as u8))?;
            }
            let t1 = Instant::now();
            for i in 0..ELEMENTS {
                black_box(ctx.read(&a, i)?);
            }
            read_ns += t1.elapsed().as_nanos();
            write_ns += (t1 - t0).as_nanos();
        }
        let n = (ELEMENTS * SWEEPS) as f64;
        Ok((write_ns as f64 / n, read_ns as f64 / n))
    })
    .expect("a single-threaded sweep cannot race")
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One table row: `T`'s median costs over [`RUNS`] runs.
fn width_row<T: Scalar + From<u8>>(t: &mut Table, width: &str, detection: bool) {
    let config = || {
        RuntimeConfig::new()
            .detection(detection)
            .det_sync(detection)
    };
    let samples: Vec<(f64, f64)> = (0..RUNS).map(|_| sweep::<T>(config())).collect();
    let access = median(samples.iter().map(|(w, r)| (w + r) / 2.0).collect());
    let write = median(samples.iter().map(|s| s.0).collect());
    let read = median(samples.iter().map(|s| s.1).collect());
    t.row(vec![
        width.into(),
        if detection { "full" } else { "baseline" }.into(),
        format!("{access:.2}"),
        format!("{write:.2}"),
        format!("{read:.2}"),
    ]);
}

fn width_costs() {
    println!("\n== ns per checked access, 1 thread, {ELEMENTS} elements, median of {RUNS} ==\n");
    let mut t = Table::new(&["width", "config", "access", "write", "read"]);
    for detection in [false, true] {
        width_row::<u64>(&mut t, "u64", detection);
        width_row::<u32>(&mut t, "u32", detection);
        width_row::<u8>(&mut t, "u8", detection);
    }
    t.print();
}

fn main() {
    access_mix();
    width_costs();
}
