//! The lock-free metrics registry.
//!
//! Registration (looking a metric up by name) takes a mutex — it is
//! cold, done once per metric per component at startup. The returned
//! handles ([`Counter`], [`Gauge`], [`Hist`]) are `Arc`-backed and
//! update with relaxed atomics only. Every metric is bumped at request
//! (or soak-op) granularity, so one shared atomic per metric is enough.

use crate::hist::{LogHistogram, HISTOGRAM_BUCKETS};
use crate::snapshot::{metric_key, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A named monotone counter handle. Cloning shares the same cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge handle (a settable instantaneous value).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (for gauges tracking a live count).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero under concurrent underflow.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A named log2 latency histogram handle, the atomic recording variant
/// of [`LogHistogram`]. Buckets are shared atomics — the 64-way spread
/// plus relaxed ordering keeps recording cheap at request granularity.
#[derive(Debug, Clone)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// Records one latency sample in microseconds (relaxed).
    #[inline]
    pub fn record(&self, micros: u64) {
        let cell = &*self.0;
        cell.buckets[LogHistogram::bucket(micros)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(micros, Ordering::Relaxed);
        cell.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// A plain-value snapshot (approximate while writers run, exact
    /// once they quiesce).
    pub fn snapshot(&self) -> LogHistogram {
        let cell = &*self.0;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&cell.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        LogHistogram::from_parts(
            buckets,
            cell.sum.load(Ordering::Relaxed),
            cell.max.load(Ordering::Relaxed),
        )
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Hist),
}

/// The metrics registry: a name → metric map handing out lock-free
/// handles. One registry per serving component (server, router, bench
/// harness).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, key: String, make: impl FnOnce() -> Slot) -> Slot {
        let mut metrics = self.metrics.lock().expect("registry lock");
        metrics.entry(key).or_insert_with(make).clone()
    }

    /// The counter named `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter named `name` with `labels` baked into its key.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        match self.slot(key.clone(), || {
            Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Counter(c) => c,
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge named `name` with `labels` baked into its key.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        match self.slot(key.clone(), || {
            Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// The histogram named `name` (registered on first use).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn hist(&self, name: &str) -> Hist {
        self.hist_with(name, &[])
    }

    /// The histogram named `name` with `labels` baked into its key.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different kind.
    pub fn hist_with(&self, name: &str, labels: &[(&str, &str)]) -> Hist {
        let key = metric_key(name, labels);
        match self.slot(key.clone(), || {
            Slot::Hist(Hist(Arc::new(HistCell {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })))
        }) {
            Slot::Hist(h) => h,
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// A plain-value snapshot of every registered metric, keyed by the
    /// full `name{label="v"}` strings.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut snap = Snapshot::default();
        for (key, slot) in metrics.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(key.clone(), c.value());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(key.clone(), g.value());
                }
                Slot::Hist(h) => {
                    snap.hists.insert(key.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_key() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        let labeled = reg.counter_with("requests", &[("verb", "submit")]);
        labeled.inc();
        assert_eq!(labeled.value(), 1);
        assert_eq!(a.value(), 7, "labeled key is a distinct metric");
    }

    #[test]
    fn gauge_sets_adds_and_saturates() {
        let reg = Registry::new();
        let g = reg.gauge("conns");
        g.set(5);
        g.add(2);
        g.sub(3);
        assert_eq!(g.value(), 4);
        g.sub(100);
        assert_eq!(g.value(), 0, "sub saturates at zero");
    }

    #[test]
    fn hist_snapshot_matches_plain_recording() {
        let reg = Registry::new();
        let h = reg.hist("lat");
        let mut plain = LogHistogram::new();
        for v in [1u64, 5, 5, 900, 1_000_000] {
            h.record(v);
            plain.record(v);
        }
        assert_eq!(h.snapshot(), plain);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("hammer");
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), threads * per_thread);
        assert_eq!(
            reg.snapshot().counters.get("hammer"),
            Some(&(threads * per_thread))
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }
}
