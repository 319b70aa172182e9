//! Order statistics over exact samples.
//!
//! Latencies are client-side nanosecond timers kept as raw samples and
//! sorted; nothing here buckets. A tail is reported at the highest
//! percentile, capped at p99, that still has at least ten samples beyond
//! it — with fewer than 21 samples no tail is resolvable and the tail
//! collapses onto the median.

/// Samples that must lie beyond a percentile for it to be reported.
pub const BEYOND: usize = 10;

/// Median with the two middle values averaged on even counts.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the samples at or below the 90th percentile: for probes whose
/// single timings are a few clock ticks long, where a median would snap to
/// the clock's resolution and an outlier would own a plain mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let keep = &v[..=rank_index(v.len(), 0.9)];
    keep.iter().sum::<f64>() / keep.len() as f64
}

/// 0-based nearest-rank index of quantile `q` among `n` sorted samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of no samples");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// 0-based index of the reported tail among `n` sorted samples: p99 when
/// ten samples lie beyond it, else the highest rank that keeps ten
/// beyond, never below the median's rank.
pub fn tail_index(n: usize) -> usize {
    let p50 = rank_index(n, 0.5);
    let p99 = rank_index(n, 0.99);
    if n - 1 - p99 >= BEYOND {
        p99
    } else {
        n.saturating_sub(BEYOND + 1).max(p50)
    }
}

/// Median and resolvable tail of one latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at [`tail_index`].
    pub tail: f64,
    /// The quantile `tail` sits at, e.g. 0.99.
    pub tail_q: f64,
}

/// Sorts `samples` in place and summarises them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn latency(samples: &mut [u64]) -> Latency {
    assert!(!samples.is_empty(), "latency of no samples");
    samples.sort_unstable();
    let n = samples.len();
    let t = tail_index(n);
    Latency {
        n,
        p50: samples[rank_index(n, 0.5)] as f64,
        tail: samples[t] as f64,
        tail_q: (t + 1) as f64 / n as f64,
    }
}

/// Summarises each non-empty pool of samples and returns the medians over
/// pools of their p50 and tail (with `n` the total sample count and
/// `tail_q` the first pool's): one stall moves one pool, not the result.
pub fn pool_medians(pools: &mut [Vec<u64>]) -> Option<Latency> {
    let each: Vec<Latency> = pools
        .iter_mut()
        .filter(|p| !p.is_empty())
        .map(|p| latency(p))
        .collect();
    let col = |f: fn(&Latency) -> f64| -> Vec<f64> { each.iter().map(f).collect() };
    each.first().map(|first| Latency {
        n: each.iter().map(|l| l.n).sum(),
        p50: median(&col(|l| l.p50)),
        tail: median(&col(|l| l.tail)),
        tail_q: first.tail_q,
    })
}

/// Samples a pool needs before its tail is taken: p90 with ten beyond.
pub const POOL: usize = 100;

/// Adds one repetition's samples to `pools`: the last pool takes them
/// while it is short of [`POOL`], else they start a new one.
pub fn pool_add(pools: &mut Vec<Vec<u64>>, samples: Vec<u64>) {
    match pools.last_mut() {
        Some(last) if last.len() < POOL => last.extend(samples),
        _ => pools.push(samples),
    }
}

/// Relative gap of `b` from `a`, signed so that positive means `b` is
/// worse for a metric where `higher_is_better` says which way is good.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Interquartile range over the median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // position k*(n+1)/4 in 1-based ranks, linearly interpolated
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(3) - at(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn trimmed_mean_drops_the_slowest_tenth() {
        let mut v = vec![10.0; 18];
        v.extend([12.0, 5000.0]);
        assert!((trimmed_mean(&v) - 10.0).abs() < 1e-12);
        assert_eq!(trimmed_mean(&[3.0]), 3.0);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(rank_index(100, 0.5), 49);
        assert_eq!(rank_index(100, 0.99), 98);
        assert_eq!(rank_index(1, 0.99), 0);
        assert_eq!(rank_index(5, 0.0), 0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples before ten lie beyond it.
        assert_eq!(tail_index(1000), 989);
        assert_eq!(1000 - 1 - tail_index(1000), 10);
        assert_eq!(tail_index(100_000), 98_999);
        // Below that the tail backs off to rank n-11.
        assert_eq!(tail_index(999), 988);
        assert_eq!(tail_index(100), 89);
        assert_eq!(tail_index(21), 10);
        // With too few samples it collapses onto the median.
        assert_eq!(tail_index(20), rank_index(20, 0.5));
        assert_eq!(tail_index(5), 2);
        assert_eq!(tail_index(1), 0);
    }

    #[test]
    fn latency_summary_reports_quantile_used() {
        let mut s: Vec<u64> = (1..=2000).rev().collect();
        let l = latency(&mut s);
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 1000.0);
        assert_eq!(l.tail, 1980.0);
        assert!((l.tail_q - 0.99).abs() < 1e-12);
        let mut few: Vec<u64> = vec![5, 1, 9];
        let l = latency(&mut few);
        assert_eq!((l.p50, l.tail), (5.0, 5.0));
    }

    #[test]
    fn pools_fill_to_a_hundred_and_report_medians() {
        let mut pools = Vec::new();
        for rep in 0..10u64 {
            // 48 samples a repetition: three repetitions make a pool.
            pool_add(&mut pools, (0..48).map(|i| 1000 * rep + i).collect());
        }
        let sizes: Vec<usize> = pools.iter().map(Vec::len).collect();
        assert_eq!(sizes, [144, 144, 144, 48]);
        // One pool stalls; the medians do not move.
        pools[1].iter_mut().for_each(|v| *v += 1_000_000);
        let l = pool_medians(&mut pools).unwrap();
        assert_eq!(l.n, 480);
        assert!(l.p50 < 10_000.0 && l.tail < 10_000.0);
        assert_eq!(pool_medians(&mut [Vec::new()]), None);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 110.0, true) < 0.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
