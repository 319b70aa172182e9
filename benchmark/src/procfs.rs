//! Child processes and `/proc` accounting.
//!
//! Every child the benchmark starts is registered here, so that a drop
//! guard, a panic unwinding through a workload, or the per-workload
//! watchdog can kill and reap whatever is still running.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux has used
/// 100 on every architecture this repository builds for; without libc
/// there is no `sysconf` to ask.
pub const CLK_TCK: f64 = 100.0;

/// CPU time fields of one `/proc/<pid>/stat` line, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// User time of the process itself.
    pub utime: u64,
    /// System time of the process itself.
    pub stime: u64,
    /// User time of its waited-for children.
    pub cutime: u64,
    /// System time of its waited-for children.
    pub cstime: u64,
}

/// Parses the CPU fields (14–17) of a `/proc/<pid>/stat` line. The command
/// name in field 2 may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); field 14 is therefore index 11.
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let at = |i: usize| f.get(i)?.parse::<u64>().ok();
    Some(CpuTicks {
        utime: at(11)?,
        stime: at(12)?,
        cutime: at(13)?,
        cstime: at(14)?,
    })
}

/// Parses the `VmHWM:` line (peak resident set, kB) of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn read_proc(pid: u32, file: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// User + system CPU seconds `pid` has used itself.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let t = parse_stat(&read_proc(pid, "stat")?)?;
    Some((t.utime + t.stime) as f64 / CLK_TCK)
}

/// User + system CPU seconds of this process's reaped children.
pub fn reaped_children_cpu_seconds() -> f64 {
    read_proc(std::process::id(), "stat")
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |t| (t.cutime + t.cstime) as f64 / CLK_TCK)
}

/// Peak resident set of `pid` in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    Some(parse_vm_hwm_kb(&read_proc(pid, "status")?)? as f64 * 1024.0 / 1e6)
}

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    // std already links the C library this comes from.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to CPU `cpu`, or with `None` lets it run on
/// every CPU the process is allowed again; returns whether the kernel took
/// it (it refuses a CPU outside the allowed set, and the thread then stays
/// where the scheduler puts it). Threads and child processes started by a
/// pinned thread inherit its mask, so a pin is undone before anything else
/// is started.
///
/// The online workloads pin their two monitored threads to two CPUs: left
/// to itself the scheduler sometimes stacks both on one, and because the
/// threads share cache lines that regime is 2.5 times *faster*, so an
/// unpinned run measures a coin toss between two programs.
pub fn pin_current_thread(cpu: Option<usize>) -> bool {
    const WORDS: usize = 16; // cpu_set_t is 1024 bits
    let mut mask = [u64::MAX; WORDS];
    if let Some(cpu) = cpu {
        if cpu >= WORDS * 64 {
            return false;
        }
        mask = [0; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, correctly sized and aligned buffer of
    // `size_of_val(&mask)` bytes that the call only reads; pid 0 names the
    // calling thread; the function has no other preconditions.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

type Slot = Arc<Mutex<Option<Child>>>;

static REGISTRY: Mutex<Vec<Slot>> = Mutex::new(Vec::new());

fn register(child: Child) -> Slot {
    let slot = Arc::new(Mutex::new(Some(child)));
    if let Ok(mut all) = REGISTRY.lock() {
        all.retain(|s| s.lock().is_ok_and(|c| c.is_some()));
        all.push(Arc::clone(&slot));
    }
    slot
}

fn kill_slot(slot: &Slot) {
    if let Ok(mut guard) = slot.lock() {
        if let Some(mut child) = guard.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Kills and reaps every registered child still alive (watchdog path).
pub fn kill_all() {
    let slots: Vec<Slot> = REGISTRY.lock().map(|a| a.clone()).unwrap_or_default();
    for slot in &slots {
        kill_slot(slot);
    }
}

/// The directory holding the program's CLIs: they are built into the same
/// target directory as this binary.
pub fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A long-running child (`clean-serve serve`, `clean-fleet route`) that
/// announces its ephemeral address on its first stdout line. Killed and
/// reaped on drop unless it already exited.
#[derive(Debug)]
pub struct Daemon {
    slot: Slot,
    /// Process id, for `/proc` reads.
    pub pid: u32,
    /// The `HOST:PORT` it bound.
    pub addr: String,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `bin args…` and waits for its `… listening on HOST:PORT`
    /// line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the child exiting before it announced itself.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let slot = register(child);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().rsplit(' ').next().filter(|a| a.contains(':')) else {
            kill_slot(&slot);
            return Err(io::Error::other(format!(
                "{} did not announce an address: {line:?}",
                bin.display()
            )));
        };
        Ok(Daemon {
            slot,
            pid,
            addr: addr.to_string(),
            _stdout: stdout,
        })
    }

    /// Waits up to `limit` for the daemon to exit by itself (after a
    /// SHUTDOWN frame); returns whether it exited with status 0. A daemon
    /// still running at the limit is killed by the drop that follows.
    pub fn wait_exit(self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            if let Ok(mut guard) = self.slot.lock() {
                match guard.as_mut().map(Child::try_wait) {
                    Some(Ok(Some(status))) => {
                        guard.take();
                        return status.success();
                    }
                    Some(Ok(None)) => {}
                    _ => return false,
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        kill_slot(&self.slot);
    }
}

/// Outcome of one short-lived CLI run.
#[derive(Debug)]
pub struct CliRun {
    /// Exit code (`None` when killed by a signal or the time limit).
    pub code: Option<i32>,
    /// Everything it printed to stdout.
    pub stdout: String,
    /// Spawn-to-exit wall time in nanoseconds (1 ms polling granularity).
    pub wall_ns: u64,
    /// Last `VmHWM` seen before exit, MB.
    pub peak_rss_mb: f64,
}

/// Runs `bin args…` to completion, polling once a millisecond so the
/// child stays killable by the watchdog and its peak RSS can be sampled.
/// Its stdout must fit a pipe buffer (the replay CLI prints a few lines).
///
/// # Errors
///
/// Spawn failures.
pub fn run_cli(bin: &Path, args: &[String], limit: Duration) -> io::Result<CliRun> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let mut out = child.stdout.take().expect("stdout was piped");
    let slot = register(child);
    let mut peak = 0.0f64;
    let mut polls = 0u32;
    let code = loop {
        {
            let mut guard = slot.lock().expect("no holder of a child slot panics");
            match guard.as_mut().map(Child::try_wait) {
                Some(Ok(Some(status))) => {
                    guard.take();
                    break status.code();
                }
                Some(Ok(None)) => {}
                // Killed by the watchdog, or waitpid failed.
                _ => break None,
            }
        }
        if polls.is_multiple_of(8) {
            peak = peak_rss_mb(pid).unwrap_or(peak).max(peak);
        }
        polls += 1;
        if start.elapsed() > limit {
            kill_slot(&slot);
            break None;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut stdout = String::new();
    let _ = out.read_to_string(&mut stdout);
    Ok(CliRun {
        code,
        stdout,
        wall_ns,
        peak_rss_mb: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_hostile_command_names() {
        let line = "4242 (clean serve) x) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    37 12 5 3 20 0 4 0 123456 1000000 500 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                utime: 37,
                stime: 12,
                cutime: 5,
                cstime: 3
            })
        );
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_line_is_found_among_others() {
        let status =
            "Name:\tclean-serve\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn pinning_takes_an_allowed_cpu_and_refuses_an_absurd_one() {
        std::thread::spawn(|| {
            assert!(pin_current_thread(Some(0)));
            assert!(!pin_current_thread(Some(1023)));
            assert!(!pin_current_thread(Some(4096)));
            assert!(pin_current_thread(None));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn own_proc_entries_parse() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some());
        assert!(peak_rss_mb(me).unwrap() > 0.5);
    }

    #[test]
    fn cli_run_reports_code_and_output_and_time_limit_kills() {
        let sh = Path::new("/bin/sh");
        let ok = run_cli(
            sh,
            &["-c".into(), "echo hi; exit 10".into()],
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!((ok.code, ok.stdout.trim()), (Some(10), "hi"));
        let slow = run_cli(
            sh,
            &["-c".into(), "exec sleep 30".into()],
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(slow.code, None);
        assert!(slow.wall_ns < 5_000_000_000);
    }

    #[test]
    fn dropped_daemon_is_killed() {
        let d = Daemon::spawn(
            Path::new("/bin/sh"),
            &[
                "-c".into(),
                "echo listening on 127.0.0.1:1; exec sleep 30".into(),
            ],
        )
        .unwrap();
        assert_eq!(d.addr, "127.0.0.1:1");
        let pid = d.pid;
        drop(d);
        // Reaped, so its /proc entry is gone.
        assert!(read_proc(pid, "stat").is_none());
    }
}
