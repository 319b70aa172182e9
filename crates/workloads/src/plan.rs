//! Static check-plan derivation for workload kernels.
//!
//! A [`CheckPlan`](clean_core::CheckPlan) is derived ahead of time from a
//! recorded profiling run: the benchmark executes once with trace
//! recording on, the Read/Write events feed a
//! [`PlanObserver`](clean_core::PlanObserver), and the resulting plan is
//! compiled for installation via
//! [`RuntimeConfig::check_plan`](clean_runtime::RuntimeConfig::check_plan).
//! The production run then elides provably thread-private checks and
//! range-coalesces strided sweeps.

use clean_core::{CheckPlan, CompiledPlan, Coverage, PlanObserver, TraceEvent};
use clean_runtime::{CleanRuntime, Result, RuntimeConfig};
use std::sync::Arc;

use crate::{run_benchmark, BenchProfile, KernelParams};

/// Folds the Read/Write events of a recorded trace into a derived
/// [`CheckPlan`] plus its coverage statistics. Synchronization events
/// are ignored — ownership, not ordering, drives the classification.
/// `granule` is the derivation granule in bytes; pass 0 for the default
/// (64). The derived plan always validates, so `compile()` cannot fail.
/// The events are folded in one pass; none is held after it is observed.
pub fn derive_plan_from_trace(
    events: impl IntoIterator<Item = TraceEvent>,
    granule: usize,
) -> (CheckPlan, Coverage) {
    let mut obs = if granule == 0 {
        PlanObserver::new()
    } else {
        PlanObserver::with_granule(granule)
    };
    for ev in events {
        match ev {
            TraceEvent::Read { tid, addr, size } => {
                obs.observe(u32::from(tid.raw()), addr, size, false);
            }
            TraceEvent::Write { tid, addr, size } => {
                obs.observe(u32::from(tid.raw()), addr, size, true);
            }
            _ => {}
        }
    }
    obs.derive()
}

/// [`derive_plan_from_trace`], compiled and ready to install via
/// [`RuntimeConfig::check_plan`](clean_runtime::RuntimeConfig::check_plan).
pub fn plan_from_trace(events: &[TraceEvent], granule: usize) -> (Arc<CompiledPlan>, Coverage) {
    let (plan, coverage) = derive_plan_from_trace(events.iter().copied(), granule);
    let compiled = plan
        .compile()
        .expect("derived plans carry sound witnesses by construction");
    (Arc::new(compiled), coverage)
}

/// Derives a benchmark's check plan from one profiling run.
///
/// The profiling run executes `profile` under `cfg` with trace recording
/// forced on and any installed plan cleared, so the observer sees the
/// full unelided access stream. The same `cfg` (plus the returned plan)
/// can then drive the production run.
///
/// # Errors
///
/// Propagates race exceptions and allocation failures from the profiling
/// run.
pub fn derive_benchmark_plan(
    profile: &BenchProfile,
    cfg: RuntimeConfig,
    params: &KernelParams,
) -> Result<(Arc<CompiledPlan>, Coverage)> {
    let rt = CleanRuntime::new(cfg.record_trace(true).check_plan(None));
    run_benchmark(profile, &rt, params)?;
    let events = rt
        .recorded_trace()
        .expect("record_trace was forced on for the profiling run");
    Ok(plan_from_trace(&events, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark;

    #[test]
    fn derived_plan_reruns_clean_with_identical_verdict() {
        let profile = benchmark("blackscholes").unwrap();
        let cfg = RuntimeConfig::new().heap_size(1 << 22).max_threads(12);
        let params = KernelParams::new().threads(2);
        let (plan, cov) = derive_benchmark_plan(profile, cfg.clone(), &params).unwrap();
        assert!(cov.observed_accesses > 0);
        assert!(cov.total_bytes() > 0);

        let rt = CleanRuntime::new(cfg.check_plan(Some(plan)));
        run_benchmark(profile, &rt, &params).unwrap();
        assert!(rt.first_race().is_none());
    }

    #[test]
    fn monte_carlo_footprint_is_elide_heavy() {
        // blackscholes is mostly thread-private Monte Carlo state; the
        // derived plan should find real elision coverage.
        let profile = benchmark("blackscholes").unwrap();
        let cfg = RuntimeConfig::new().heap_size(1 << 22).max_threads(12);
        let (_, cov) =
            derive_benchmark_plan(profile, cfg, &KernelParams::new().threads(2)).unwrap();
        assert!(cov.elide_bytes > 0, "{cov:?}");
    }

    #[test]
    fn plan_from_trace_ignores_sync_events() {
        use clean_core::ThreadId;
        let events = vec![
            TraceEvent::Acquire {
                tid: ThreadId::new(0),
                lock: 1,
            },
            TraceEvent::Write {
                tid: ThreadId::new(0),
                addr: 0,
                size: 8,
            },
            TraceEvent::Release {
                tid: ThreadId::new(0),
                lock: 1,
            },
        ];
        let (_, cov) = plan_from_trace(&events, 0);
        assert_eq!(cov.observed_accesses, 1);
    }
}
