//! Counter deltas out of `CMET v1` expositions.
//!
//! The serve workloads scrape `METRICS` through the router before and
//! after a phase (never inside a timed loop) and read the phase's work off
//! the difference. The router stamps every backend metric `node="<i>"`, so
//! totals are taken over whole metric families.

use clean_obs::Snapshot;

/// Stage histogram family the daemons register.
const STAGE_FAMILY: &str = "serve_stage_micros";

/// The fleet-wide totals the benchmark reads, as of one scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetTotals {
    /// ANALYZE requests answered from the verdict cache.
    pub cache_hits: u64,
    /// ANALYZE requests that had to queue a replay.
    pub cache_misses: u64,
    /// Replay jobs finished.
    pub jobs_completed: u64,
    /// Requests folded onto an identical in-flight job.
    pub jobs_coalesced: u64,
    /// Requests shed by admission control.
    pub jobs_rejected: u64,
    /// SUBMITs of an already stored trace.
    pub dedup_hits: u64,
    /// Summed `check` stage time, µs.
    pub stage_check: u64,
    /// Summed `store_insert` stage time, µs.
    pub stage_store_insert: u64,
    /// Summed `decode` stage time, µs.
    pub stage_decode: u64,
    /// Summed time of every stage, µs.
    pub stage_all: u64,
}

/// Parses one exposition into fleet totals.
///
/// # Errors
///
/// The text is not valid `CMET v1`.
pub fn fleet_totals(text: &str) -> Result<FleetTotals, String> {
    let snap = Snapshot::parse(text).map_err(|e| format!("bad CMET exposition: {e:?}"))?;
    let stage = |name: &str| -> u64 {
        let label = format!("stage=\"{name}\"");
        snap.hists
            .iter()
            .filter(|(k, _)| k.starts_with(STAGE_FAMILY) && k.contains(&label))
            .map(|(_, h)| h.sum_micros())
            .sum()
    };
    Ok(FleetTotals {
        cache_hits: snap.counter_family_total("cache_hits"),
        cache_misses: snap.counter_family_total("cache_misses"),
        jobs_completed: snap.counter_family_total("jobs_completed"),
        jobs_coalesced: snap.counter_family_total("jobs_coalesced"),
        jobs_rejected: snap.counter_family_total("jobs_rejected"),
        dedup_hits: snap.counter_family_total("submit_dedup_hits"),
        stage_check: stage("check"),
        stage_store_insert: stage("store_insert"),
        stage_decode: stage("decode"),
        stage_all: snap
            .hists
            .iter()
            .filter(|(k, _)| k.starts_with(STAGE_FAMILY))
            .map(|(_, h)| h.sum_micros())
            .sum(),
    })
}

impl FleetTotals {
    /// What happened between `earlier` and `self`. Counters are monotone;
    /// a backwards step (a daemon restart) saturates to zero.
    pub fn since(&self, earlier: &FleetTotals) -> FleetTotals {
        FleetTotals {
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            jobs_completed: self.jobs_completed.saturating_sub(earlier.jobs_completed),
            jobs_coalesced: self.jobs_coalesced.saturating_sub(earlier.jobs_coalesced),
            jobs_rejected: self.jobs_rejected.saturating_sub(earlier.jobs_rejected),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            stage_check: self.stage_check.saturating_sub(earlier.stage_check),
            stage_store_insert: self
                .stage_store_insert
                .saturating_sub(earlier.stage_store_insert),
            stage_decode: self.stage_decode.saturating_sub(earlier.stage_decode),
            stage_all: self.stage_all.saturating_sub(earlier.stage_all),
        }
    }

    /// Cache hits over cache lookups (1 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            1.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// `part` over the time of all stages (0 when no stage ran).
    pub fn stage_share(&self, part: u64) -> f64 {
        if self.stage_all == 0 {
            0.0
        } else {
            part as f64 / self.stage_all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# CMET v1\n\
        counter cache_hits{node=\"0\"} 10\n\
        counter cache_hits{node=\"1\"} 5\n\
        counter cache_misses{node=\"0\"} 2\n\
        counter jobs_completed{node=\"0\"} 2\n\
        counter forwards{node=\"router\"} 40\n\
        hist serve_stage_micros{node=\"0\",stage=\"check\"} sum=300 max=200 buckets=7:2\n\
        hist serve_stage_micros{node=\"0\",stage=\"decode\"} sum=100 max=60 buckets=5:2\n";
    const AFTER: &str = "# CMET v1\n\
        counter cache_hits{node=\"0\"} 30\n\
        counter cache_hits{node=\"1\"} 25\n\
        counter cache_misses{node=\"0\"} 2\n\
        counter cache_misses{node=\"1\"} 10\n\
        counter jobs_completed{node=\"0\"} 2\n\
        counter jobs_completed{node=\"1\"} 10\n\
        counter submit_dedup_hits{node=\"1\"} 3\n\
        counter forwards{node=\"router\"} 140\n\
        hist serve_stage_micros{node=\"0\",stage=\"check\"} sum=300 max=200 buckets=7:2\n\
        hist serve_stage_micros{node=\"1\",stage=\"check\"} sum=900 max=200 buckets=7:9\n\
        hist serve_stage_micros{node=\"0\",stage=\"decode\"} sum=200 max=60 buckets=5:4\n\
        # event 3 something happened\n";

    #[test]
    fn totals_sum_over_node_labels() {
        let t = fleet_totals(AFTER).unwrap();
        assert_eq!(t.cache_hits, 55);
        assert_eq!(t.cache_misses, 12);
        assert_eq!(t.jobs_completed, 12);
        assert_eq!(t.stage_check, 1200);
        assert_eq!(t.stage_all, 1400);
    }

    #[test]
    fn delta_extraction_and_ratios() {
        let d = fleet_totals(AFTER)
            .unwrap()
            .since(&fleet_totals(BEFORE).unwrap());
        assert_eq!(d.cache_hits, 40);
        assert_eq!(d.cache_misses, 10);
        assert_eq!(d.jobs_completed, 10);
        assert_eq!(d.dedup_hits, 3);
        assert_eq!(d.stage_check, 900);
        assert_eq!(d.stage_decode, 100);
        assert!((d.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((d.stage_share(d.stage_check) - 0.9).abs() < 1e-12);
        assert_eq!(FleetTotals::default().hit_ratio(), 1.0);
        assert_eq!(FleetTotals::default().stage_share(0), 0.0);
    }

    #[test]
    fn restart_saturates_and_garbage_is_an_error() {
        let d = fleet_totals(BEFORE)
            .unwrap()
            .since(&fleet_totals(AFTER).unwrap());
        assert_eq!(d.cache_hits, 0);
        assert!(fleet_totals("counter nonsense").is_err());
    }
}
