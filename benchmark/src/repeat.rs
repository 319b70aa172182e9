//! `repeat` and `spread`: the calibration record.
//!
//! `repeat` runs the untraced benchmark twice on the default seed and once
//! on a held-out seed and prints every end-to-end metric of every workload
//! with the gap between the two same-seed runs beside its bound; `spread`
//! runs every workload on ten consecutive seeds and prints each metric's
//! interquartile range as a share of its median — the acceptance check's
//! own statistic. Both fail when a number exceeds its bound, `setup_s`
//! included: a bound the benchmark cannot repeat within is not a bound.

use crate::report::{Better, Parsed, END_TO_END, WORKLOADS};
use crate::stats::{self, worse_by};
use crate::{run_fresh, Opts};
use std::process::ExitCode;

/// Seed `repeat` holds out: never used while the benchmark was written.
const HELD_OUT_SEED: u64 = 777_000_111;
/// Seeds `spread` runs per workload, as the acceptance check does.
const SPREAD_RUNS: u64 = 10;

/// One fresh untraced run of `workload` per seed.
///
/// # Errors
///
/// A run could not be started, printed no result, or returned a wrong one.
fn measure(workload: &str, seeds: &[u64], seconds: f64) -> Result<Vec<Parsed>, String> {
    seeds
        .iter()
        .map(|&seed| {
            let opts = Opts {
                workload: workload.to_string(),
                seed,
                seconds,
                trace: false,
            };
            match run_fresh(&opts)? {
                (parsed, _) if parsed.correct => Ok(parsed),
                (_, stdout) => Err(format!(
                    "{workload} seed {seed} returned wrong results:\n{stdout}"
                )),
            }
        })
        .collect()
}

/// The values of metric `name` over `sets`.
fn column(sets: &[Parsed], name: &str) -> Result<Vec<f64>, String> {
    sets.iter()
        .map(|p| {
            p.get(name)
                .ok_or_else(|| format!("a run did not report {name}"))
        })
        .collect()
}

fn verdict(over: usize, what: &str) -> ExitCode {
    if over == 0 {
        println!("every {what} is within its bound; every run correct");
        ExitCode::SUCCESS
    } else {
        println!("{over} {what}s exceed their bound");
        ExitCode::from(2)
    }
}

fn repeat(seed: u64, seconds: f64) -> Result<usize, String> {
    println!("repeat: seeds {seed} (twice) and {HELD_OUT_SEED} (held out), {seconds} s per run");
    println!("host {}", crate::host_json());
    println!(
        "{:<15} {:<12} {:>16} {:>16} {:>8} {:>7}  {:>16} {:>8}",
        "workload", "metric", "first", "second", "gap", "bound", "held-out", "vs first"
    );
    let mut over = 0;
    for w in &WORKLOADS {
        let sets = measure(w.name, &[seed, seed, HELD_OUT_SEED], seconds)?;
        for m in &END_TO_END {
            let v = column(&sets, m.name)?;
            let (a, b, c) = (v[0], v[1], v[2]);
            // The gap is symmetric: whichever of the two runs came out
            // worse, by how much of the better one.
            let higher = m.better == Better::Higher;
            let gap = worse_by(a, b, higher).max(worse_by(b, a, higher));
            over += usize::from(gap > m.bound);
            println!(
                "{:<15} {:<12} {:>16.4} {:>16.4} {:>7.2}% {:>6.0}%  {:>16.4} {:>+7.2}% {} {}",
                w.name,
                m.name,
                a,
                b,
                gap * 100.0,
                m.bound * 100.0,
                c,
                worse_by(a, c, higher) * 100.0,
                m.unit,
                if gap > m.bound { "OVER" } else { "ok" }
            );
        }
    }
    Ok(over)
}

fn spread_table(seed: u64, seconds: f64) -> Result<usize, String> {
    println!("spread: {SPREAD_RUNS} seeds from {seed}, {seconds} s per run");
    println!("host {}", crate::host_json());
    println!(
        "{:<15} {:<12} {:>16} {:>8} {:>7}  {:>16} {:>16}",
        "workload", "metric", "median", "iqr", "bound", "min", "max"
    );
    let seeds: Vec<u64> = (seed..seed + SPREAD_RUNS).collect();
    let mut over = 0;
    for w in &WORKLOADS {
        let sets = measure(w.name, &seeds, seconds)?;
        for m in &END_TO_END {
            let v = column(&sets, m.name)?;
            let iqr = stats::iqr_share(&v);
            let is_over = iqr > m.bound;
            over += usize::from(is_over);
            println!(
                "{:<15} {:<12} {:>16.4} {:>7.2}% {:>6.0}%  {:>16.4} {:>16.4} {}{}",
                w.name,
                m.name,
                stats::median(&v),
                iqr * 100.0,
                m.bound * 100.0,
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                m.unit,
                if is_over { " OVER" } else { "" }
            );
        }
    }
    Ok(over)
}

fn finish(result: Result<usize, String>, what: &str) -> ExitCode {
    match result {
        Ok(over) => verdict(over, what),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repeat`: same seed twice and a held-out seed.
pub fn run(seed: u64, seconds: f64) -> ExitCode {
    finish(repeat(seed, seconds), "same-seed gap")
}

/// `spread`: [`SPREAD_RUNS`] consecutive seeds from `seed`.
pub fn spread(seed: u64, seconds: f64) -> ExitCode {
    finish(spread_table(seed, seconds), "spread")
}
