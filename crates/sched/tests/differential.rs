//! Integration tests of the differential detector checks across explored
//! schedules: CLEAN agrees with the full detectors on WAW/RAW, and the
//! races it misses are WAR-only — aggregated over the whole schedule
//! space, per the acceptance criteria.

use clean_baselines::FullRaceKind;
use clean_sched::differential::check;
use clean_sched::explore::{explore_dfs, explore_pct, DfsExplorer, ExploreOpts};
use clean_sched::picker::DefaultPicker;
use clean_sched::programs::find;
use clean_sched::vm::{run_schedule, CELL_BYTES};

#[test]
fn racy_probe_cell1_war_is_missed_by_clean_only() {
    let spec = find("racy_probe").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete);
    assert!(report.ok(), "{:#?}", report.failures);
    // On the read-before-write schedules, cell 1's race manifests as WAR
    // — flagged by the reference detector, skipped by CLEAN.
    assert!(
        report.war_miss_schedules > 0,
        "no schedule exposed the WAR-direction miss"
    );
    assert!(
        report.war_miss_schedules < report.schedules,
        "the write-first schedules turn cell 1 into a RAW that CLEAN flags"
    );
    assert_eq!(
        report.war_miss_addrs,
        vec![CELL_BYTES],
        "the only CLEAN-missed address must be cell 1"
    );
}

#[test]
fn war_probe_race_is_schedule_direction_dependent() {
    let spec = find("war_probe").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete);
    assert!(report.ok(), "{:#?}", report.failures);
    // Read-first schedules: WAR, missed by CLEAN. Write-first: RAW,
    // flagged. Both directions must occur in an exhaustive enumeration.
    assert!(report.war_miss_schedules > 0, "no WAR-direction schedule");
    assert!(report.clean_race_schedules > 0, "no RAW-direction schedule");
    assert_eq!(
        report.war_miss_schedules + report.clean_race_schedules,
        report.schedules,
        "every schedule races one way or the other"
    );
}

#[test]
fn clean_flags_the_first_racy_access() {
    // The online CLEAN race must sit on the *first* racy access of the
    // trace: the same event where the reference detector reports its
    // first non-WAR race.
    let spec = find("racy_probe").unwrap();
    let exec = run_schedule(&spec.factory, &spec.cfg, &mut DefaultPicker, None);
    let (online_idx, online) = exec.clean_races.first().expect("racy_probe races");
    let diff = check(&exec, spec.cfg.max_threads);
    assert!(diff.ok(), "{:#?}", diff.violations);
    let vcfull = diff.engines.iter().find(|e| e.name == "vcfull").unwrap();
    let (ref_idx, ref_race) = vcfull
        .races
        .iter()
        .find(|(_, r)| r.kind != FullRaceKind::War)
        .expect("reference detector sees the race");
    assert_eq!(online_idx, ref_idx);
    assert_eq!(online.addr, ref_race.addr);
}

#[test]
fn differential_clean_on_race_free_programs_under_pct() {
    for name in [
        "lock_counter",
        "barrier_phase",
        "rw_shared",
        "cv_handoff",
        "cv_broadcast",
    ] {
        let spec = find(name).unwrap();
        let report = explore_pct(&spec, 7, 100, 3, &ExploreOpts::default());
        assert_eq!(report.schedules, 100, "{name}");
        assert!(report.ok(), "{name}: {:#?}", report.failures);
        assert_eq!(report.war_miss_schedules, 0, "{name}");
    }
}

#[test]
fn offline_engines_see_the_recorded_trace_identically() {
    // The VM's trace encoding (pseudo-locks for barriers and rwlocks,
    // fork/join edges) must reconstruct the same happens-before relation
    // the online detector used: on every corpus program and schedule
    // direction, online CLEAN and the offline CLEAN engine agree on the
    // full first-race verdict, which `check` enforces.
    for name in [
        "racy_probe",
        "waw_pair",
        "war_probe",
        "lock_counter",
        "barrier_phase",
        "rw_shared",
        "cv_handoff",
        "cv_broadcast",
    ] {
        let spec = find(name).unwrap();
        let exec = run_schedule(&spec.factory, &spec.cfg, &mut DefaultPicker, None);
        let diff = check(&exec, spec.cfg.max_threads);
        assert!(diff.ok(), "{name}: {:#?}", diff.violations);
    }
}
