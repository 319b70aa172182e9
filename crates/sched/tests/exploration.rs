//! Integration tests of the exploration drivers: exhaustive DFS with
//! resumable frontier, PCT seed determinism, schedule replay, shrinking,
//! and deadlock detection — the acceptance criteria of the clean-sched
//! subsystem.

use clean_sched::explore::{explore_dfs, explore_pct, DfsExplorer, ExploreOpts};
use clean_sched::picker::{DefaultPicker, PctPicker, ReplayPicker};
use clean_sched::programs::find;
use clean_sched::shrink::{shrink, Repro};
use clean_sched::vm::run_schedule;
use clean_sync::SchedHook;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn dfs_flags_clean_race_on_every_racy_probe_schedule() {
    let spec = find("racy_probe").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete, "racy_probe space must be exhaustible");
    assert!(report.ok(), "{:#?}", report.failures);
    assert!(report.schedules > 10, "only {} schedules", report.schedules);
    assert_eq!(
        report.clean_race_schedules, report.schedules,
        "CLEAN must flag the seeded WAW/RAW on every schedule"
    );
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn dfs_resume_covers_the_same_space_as_single_shot() {
    let spec = find("racy_probe").unwrap();

    let mut single = DfsExplorer::new();
    let full = explore_dfs(&spec, &mut single, &ExploreOpts::default());
    assert!(full.complete);

    // Resume across "invocations": every chunk serializes the frontier
    // and restores it from the persisted string, as the CLI does.
    let mut chunks = 0;
    let mut total = 0;
    let mut races = 0;
    let mut state = DfsExplorer::new().state();
    loop {
        let mut frontier = DfsExplorer::from_state(&state).unwrap();
        if frontier.exhausted() {
            break;
        }
        let opts = ExploreOpts {
            max_schedules: 7,
            time_budget: None,
        };
        let report = explore_dfs(&spec, &mut frontier, &opts);
        assert!(report.ok(), "{:#?}", report.failures);
        total += report.schedules;
        races += report.clean_race_schedules;
        state = frontier.state();
        chunks += 1;
        assert!(chunks < 10_000, "resume loop not terminating");
    }
    assert!(chunks > 1, "chunk size must actually split the run");
    assert_eq!(total, full.schedules);
    assert_eq!(races, full.clean_race_schedules);
}

#[test]
fn pct_same_seed_reproduces_same_execution() {
    let spec = find("racy_probe").unwrap();
    let run = |seed| {
        let mut p = PctPicker::new(seed, 3, 64);
        run_schedule(&spec.factory, &spec.cfg, &mut p, None)
    };
    let (a, b) = (run(42), run(42));
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.digest(), b.digest());

    // Across seeds the sampler must actually vary the interleaving.
    let schedules: std::collections::HashSet<String> =
        (0..32).map(|s| run(s).schedule.to_string()).collect();
    assert!(schedules.len() > 1, "all 32 seeds gave one schedule");
}

#[test]
fn pct_sweep_meets_expectations() {
    let spec = find("racy_probe").unwrap();
    let report = explore_pct(&spec, 0, 200, 3, &ExploreOpts::default());
    assert_eq!(report.schedules, 200);
    assert!(report.ok(), "{:#?}", report.failures);
    assert_eq!(report.clean_race_schedules, 200);
}

#[test]
fn replay_is_deterministic() {
    let spec = find("racy_probe").unwrap();
    let exec = run_schedule(&spec.factory, &spec.cfg, &mut DefaultPicker, None);
    let replay = |token: Vec<usize>| {
        let mut p = ReplayPicker::strict(token);
        let mut e = run_schedule(&spec.factory, &spec.cfg, &mut p, None);
        e.divergence = p.divergence;
        e
    };
    let (a, b) = (
        replay(exec.schedule.0.clone()),
        replay(exec.schedule.0.clone()),
    );
    assert_eq!(
        a.divergence, None,
        "full token must replay without divergence"
    );
    assert_eq!(b.divergence, None);
    assert_eq!(a.schedule, exec.schedule);
    assert_eq!(a.digest(), exec.digest());
    assert_eq!(b.digest(), exec.digest());
    assert_eq!(
        a.clean_races.first().map(|(i, r)| (*i, r.kind, r.addr)),
        exec.clean_races.first().map(|(i, r)| (*i, r.kind, r.addr)),
    );
}

#[test]
fn shrunk_racy_probe_schedule_is_small_and_replays_deterministically() {
    let spec = find("racy_probe").unwrap();
    let exec = run_schedule(&spec.factory, &spec.cfg, &mut DefaultPicker, None);
    let (_, first) = exec.clean_races.first().expect("racy_probe races");
    let repro = Repro::CleanRace {
        kind: first.kind,
        addr: first.addr,
    };
    let shrunk = shrink(&spec, &exec.schedule, repro).expect("schedule reproduces");
    assert!(
        shrunk.schedule.len() <= 10,
        "shrunk token too long: {} ({} yield points)",
        shrunk.schedule,
        shrunk.schedule.len()
    );
    // The shrunk token reproduces the same race, deterministically.
    let rerun = |token: Vec<usize>| {
        let mut p = ReplayPicker::lenient(token);
        run_schedule(&spec.factory, &spec.cfg, &mut p, None)
    };
    let (a, b) = (
        rerun(shrunk.schedule.0.clone()),
        rerun(shrunk.schedule.0.clone()),
    );
    assert_eq!(a.digest(), b.digest());
    for e in [&a, &b] {
        let (_, r) = e.clean_races.first().expect("shrunk schedule still races");
        assert_eq!((r.kind, r.addr), (first.kind, first.addr));
    }
}

#[test]
fn ab_deadlock_is_detected_not_hung() {
    let spec = find("ab_deadlock").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete);
    assert!(report.ok(), "{:#?}", report.failures);
    assert!(report.deadlocks > 0, "some interleavings must deadlock");
    assert!(
        report.deadlocks < report.schedules,
        "some interleavings must complete"
    );
    assert_eq!(
        report.clean_race_schedules, 0,
        "lock-ordered accesses never race"
    );
}

#[test]
fn race_free_corpus_is_race_free_on_every_schedule() {
    for name in ["lock_counter", "barrier_phase", "cv_handoff"] {
        let spec = find(name).unwrap();
        let mut frontier = DfsExplorer::new();
        let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
        assert!(report.complete, "{name}: space must be exhaustible");
        assert!(report.ok(), "{name}: {:#?}", report.failures);
        assert_eq!(report.clean_race_schedules, 0, "{name} raced");
        assert_eq!(report.deadlocks, 0, "{name} deadlocked");
        assert!(report.schedules > 1, "{name}: trivial schedule space");
    }
    // rw_shared's space is ~84k schedules and cv_broadcast's 10,172
    // (exhausted by the CI sched-explore job in release mode); here a
    // bounded slice of each suffices.
    for name in ["rw_shared", "cv_broadcast"] {
        let spec = find(name).unwrap();
        let mut frontier = DfsExplorer::new();
        let opts = ExploreOpts {
            max_schedules: 2_000,
            time_budget: None,
        };
        let report = explore_dfs(&spec, &mut frontier, &opts);
        assert!(report.ok(), "{name}: {:#?}", report.failures);
        assert_eq!(report.schedules, 2_000);
        assert_eq!(report.clean_race_schedules, 0, "{name} raced");
        assert_eq!(report.deadlocks, 0, "{name} deadlocked");
    }
}

#[test]
fn rw_downgrade_edge_orders_init_before_readers() {
    // The only happens-before source between the write-locked init and
    // the readers' loads is the downgrade's release edge: exhaustive
    // exploration finding zero races on any schedule is exactly the
    // statement that the edge exists and is placed correctly.
    let spec = find("rw_downgrade").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete, "rw_downgrade space must be exhaustible");
    assert!(report.ok(), "{:#?}", report.failures);
    assert_eq!(report.clean_race_schedules, 0, "downgrade edge missing");
    assert_eq!(report.war_miss_schedules, 0);
    assert_eq!(report.deadlocks, 0);
    assert!(report.schedules > 1, "trivial schedule space");
}

#[test]
fn rw_downgrade_leaves_only_a_shared_hold() {
    // After the downgrade the writer holds the lock *shared*: its write
    // to cell 1 races with the concurrent reader in every schedule —
    // WAR direction (CLEAN-missed) when the reader goes first, RAW
    // (CLEAN-flagged) when the writer does.
    let spec = find("rw_downgrade_racy").unwrap();
    let mut frontier = DfsExplorer::new();
    let report = explore_dfs(&spec, &mut frontier, &ExploreOpts::default());
    assert!(report.complete);
    assert!(report.ok(), "{:#?}", report.failures);
    assert!(report.war_miss_schedules > 0, "no WAR-direction schedule");
    assert!(report.clean_race_schedules > 0, "no RAW-direction schedule");
    assert_eq!(
        report.war_miss_schedules + report.clean_race_schedules,
        report.schedules,
        "every schedule must race exactly one way"
    );
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn try_ops_follow_lock_semantics_without_blocking() {
    use clean_sched::vm::{ProgramFn, VmConfig};

    // Single-threaded, so every outcome is schedule-independent: a try
    // op must succeed exactly when the blocking form would be enabled.
    let program: ProgramFn = Arc::new(|| {
        Box::new(|c| {
            let m = c.create_mutex();
            assert!(c.try_lock(m)?, "free mutex must be acquired");
            assert!(!c.try_lock(m)?, "held mutex must fail, not block");
            c.unlock(m)?;
            assert!(c.try_lock(m)?, "released mutex is free again");
            c.unlock(m)?;

            let l = c.create_rwlock();
            assert!(c.try_write(l)?, "free rwlock grants exclusive");
            assert!(!c.try_read(l)?, "writer-held rwlock refuses readers");
            c.downgrade(l)?;
            assert!(!c.try_write(l)?, "shared hold refuses writers");
            assert!(c.try_read(l)?, "shared rwlock admits more readers");
            c.read_unlock(l)?;
            c.read_unlock(l)?;
            assert!(c.try_write(l)?, "fully released rwlock is free");
            c.write_unlock(l)?;
            Ok(1)
        })
    });
    let cfg = VmConfig {
        max_threads: 2,
        ..VmConfig::default()
    };
    let exec = run_schedule(&program, &cfg, &mut DefaultPicker, None);
    assert_eq!(exec.results, vec![Some(1)], "assertions inside the body");
    assert!(exec.clean_races.is_empty());
    assert!(!exec.deadlock);
}

#[test]
fn sched_hook_observes_vm_kendo_activity() {
    #[derive(Default)]
    struct Counter {
        registers: AtomicUsize,
        publishes: AtomicUsize,
    }
    impl SchedHook for Counter {
        fn on_register(&self, _tid: clean_core::ThreadId, _initial: u64) {
            self.registers.fetch_add(1, Ordering::Relaxed);
        }
        fn on_publish(&self, _tid: clean_core::ThreadId, _counter: u64) {
            self.publishes.fetch_add(1, Ordering::Relaxed);
        }
    }
    let spec = find("waw_pair").unwrap();
    let hook = Arc::new(Counter::default());
    let exec = run_schedule(
        &spec.factory,
        &spec.cfg,
        &mut DefaultPicker,
        Some(hook.clone() as Arc<dyn SchedHook>),
    );
    assert!(!exec.clean_races.is_empty());
    assert_eq!(
        hook.registers.load(Ordering::Relaxed),
        3,
        "root + two workers register on the VM's Kendo table"
    );
    assert!(hook.publishes.load(Ordering::Relaxed) >= exec.steps);
}
