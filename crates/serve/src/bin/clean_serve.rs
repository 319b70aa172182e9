//! `clean-serve` — run or talk to the concurrent race-analysis service.
//!
//! ```text
//! clean-serve serve   --store <dir> [--addr HOST:PORT] [--max-bytes N]
//!                     [--queue-cap N] [--per-client-cap N] [--workers N] [--shards N]
//!                     [--peer HOST:PORT]... [--acceptors N] [--io-timeout-millis N]
//!                     [--policy <file>]
//! clean-serve submit  <addr> <trace.cltr>
//! clean-serve analyze <addr> <digest> [--engine clean|fasttrack|vcfull|tsan]
//!                     [--no-wait] [--retries N]
//! clean-serve status  <addr> <job>
//! clean-serve stats   <addr>
//! clean-serve metrics <addr>
//! clean-serve suppress list <addr>
//! clean-serve suppress add <addr> <rule...>
//! clean-serve suppress check <addr> <digest> [--engine E] [--retries N]
//! clean-serve suppress prune <addr>
//! clean-serve shutdown <addr>
//! ```
//!
//! Exit codes match `clean-analyze`: 0 = success / trace clean (or every
//! race suppressed to a warning), 10 = analysis found unsuppressed
//! race(s), 1 = any other failure.

mod args;

use args::{parse_num, take_value, take_values};
use clean_serve::client::{stats_text, Client};
use clean_serve::policy::SuppressionPolicy;
use clean_serve::protocol::Response;
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{EngineKind, TraceDigest};
use std::process::ExitCode;

/// `analyze`/`status` returned a verdict with at least one unsuppressed
/// race (races demoted to warnings by a `CSUP` rule do not count).
const EXIT_RACE: u8 = 10;

const USAGE: &str = "\
clean-serve — concurrent race-analysis service for CLEAN traces

USAGE:
  clean-serve serve --store <dir> [--addr HOST:PORT] [--max-bytes N]
                    [--queue-cap N] [--per-client-cap N] [--workers N] [--shards N]
                    [--peer HOST:PORT]... [--acceptors N] [--io-timeout-millis N]
                    [--no-persist-verdicts] [--policy <file>]
      Run the daemon in the foreground. Prints the bound address
      (`listening on HOST:PORT`) once ready; exits after a graceful
      drain when a SHUTDOWN frame arrives. Each --peer names another
      clean-serve node to FETCH missing digests from (fleet mode).
      --policy names a CSUP v1 suppression-rules file (default:
      policy.csup under the store directory; missing = no suppression).
  clean-serve submit <addr> <trace.cltr>
      Upload a recorded trace; prints its content digest.
  clean-serve analyze <addr> <digest> [--engine clean|fasttrack|vcfull|tsan]
                      [--no-wait] [--retries N]
      Analyze a stored trace. Blocks for the verdict unless --no-wait
      (which prints a job id to poll with `status`). Retries load-shed
      requests up to --retries times (default 10).
  clean-serve status <addr> <job>
      Poll a job id from a --no-wait analyze.
  clean-serve stats <addr>
      Print the service counters, read from the METRICS exposition.
  clean-serve metrics <addr>
      Print the `CMET v1` metrics exposition: counters, gauges,
      latency histograms, and the recent-event journal. Against a
      fleet router this is the node-labeled fleet-wide merge.
  clean-serve suppress list <addr>
      Print the active CSUP suppression policy, with the number of
      races each rule has suppressed since it was installed.
  clean-serve suppress add <addr> <rule...>
      Append one rule (e.g. `digest <hex>`, `prefix <hex>`,
      `addr lo..hi [waw|raw|war]`, each optionally with a trailing
      `expires=<unix-secs>` deadline) to the policy and push it live.
      Against a fleet router the new policy lands on every backend.
  clean-serve suppress check <addr> <digest> [--engine E] [--retries N]
      Analyze a digest and report how the active policy classifies it:
      races matched by a rule print as warnings and do not fail.
  clean-serve suppress prune <addr>
      Drop every rule with zero hits, plus every rule whose expires=
      deadline has passed (hits do not keep an aged-out rule alive), and
      push the pruned policy live (resetting the hit counters). Against
      a fleet router the pruned policy lands on every backend.
  clean-serve shutdown <addr>
      Ask the daemon to drain queued jobs and exit.

EXIT CODES:
  0   success; for analyze/status/check: clean, or warnings only
  10  analyze/status/check returned unsuppressed race(s)
  1   any other error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("suppress") => cmd_suppress(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `--flag` from `args` if present, returning whether it was.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let store = take_value(&mut args, "--store")?.ok_or("serve needs --store <dir>")?;
    let mut config = ServerConfig::new(&store);
    if let Some(addr) = take_value(&mut args, "--addr")? {
        config = config.addr(addr);
    }
    if let Some(v) = take_value(&mut args, "--max-bytes")? {
        config = config.store_max_bytes(parse_num(&v, "--max-bytes")?);
    }
    if let Some(v) = take_value(&mut args, "--queue-cap")? {
        config = config.queue_cap(parse_num(&v, "--queue-cap")?);
    }
    if let Some(v) = take_value(&mut args, "--per-client-cap")? {
        config = config.per_client_cap(parse_num(&v, "--per-client-cap")?);
    }
    if let Some(v) = take_value(&mut args, "--workers")? {
        config = config.workers(parse_num(&v, "--workers")?);
    }
    if let Some(v) = take_value(&mut args, "--shards")? {
        config = config.shards(parse_num(&v, "--shards")?);
    }
    let peers = take_values(&mut args, "--peer")?;
    if !peers.is_empty() {
        config = config.peers(peers);
    }
    if let Some(v) = take_value(&mut args, "--acceptors")? {
        config = config.acceptors(parse_num(&v, "--acceptors")?);
    }
    if let Some(v) = take_value(&mut args, "--io-timeout-millis")? {
        config = config.io_timeout_millis(parse_num(&v, "--io-timeout-millis")?);
    }
    if take_flag(&mut args, "--no-persist-verdicts") {
        config = config.persist_verdicts(false);
    }
    if let Some(v) = take_value(&mut args, "--policy")? {
        config = config.policy_path(v);
    }
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let handle = Server::start(config).map_err(|e| format!("start failed: {e}"))?;
    println!("listening on {}", handle.addr());
    handle.wait_until_draining();
    eprintln!("draining...");
    handle.join();
    eprintln!("shutdown complete");
    Ok(ExitCode::SUCCESS)
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))
}

fn rpc_err(e: std::io::Error) -> String {
    format!("request failed: {e}")
}

/// Prints a verdict and picks the exit code; errors on non-verdict frames.
fn report_verdict(response: Response) -> Result<ExitCode, String> {
    match response {
        Response::Verdict {
            digest,
            engine,
            cached,
            races,
            events,
        } => {
            let source = if cached { "cache" } else { "replay" };
            let suppressed = races.iter().filter(|r| r.suppressed).count();
            println!(
                "{digest} engine={} events={events} races={} suppressed={suppressed} ({source})",
                engine.name(),
                races.len()
            );
            for race in &races {
                let r = race.to_found();
                let tag = if race.suppressed { "warning: " } else { "" };
                println!(
                    "  {tag}{} at {:#x}: t{} after t{}",
                    r.kind,
                    r.addr,
                    r.current.raw(),
                    r.previous.raw()
                );
            }
            Ok(if races.len() == suppressed {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_RACE)
            })
        }
        Response::Pending { job } => {
            println!("pending job={job}");
            Ok(ExitCode::SUCCESS)
        }
        Response::RetryAfter { millis } => Err(format!("server busy, retry after {millis} ms")),
        Response::ShuttingDown => Err("server is shutting down".into()),
        Response::Error { code, message } => Err(format!("server error {code}: {message}")),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let [addr, path] = args else {
        return Err("usage: clean-serve submit <addr> <trace.cltr>".into());
    };
    let trace = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut client = connect(addr)?;
    match client.submit(trace).map_err(rpc_err)? {
        Response::Submitted {
            digest,
            dedup,
            bytes,
        } => {
            println!(
                "{digest} bytes={bytes}{}",
                if dedup { " (deduplicated)" } else { "" }
            );
            Ok(ExitCode::SUCCESS)
        }
        Response::ShuttingDown => Err("server is shutting down".into()),
        Response::Error { code, message } => Err(format!("server error {code}: {message}")),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let engine = match take_value(&mut args, "--engine")? {
        Some(name) => EngineKind::parse(&name).ok_or(format!("unknown engine {name:?}"))?,
        None => EngineKind::Clean,
    };
    let no_wait = take_flag(&mut args, "--no-wait");
    let retries: usize = match take_value(&mut args, "--retries")? {
        Some(v) => parse_num(&v, "--retries")?,
        None => 10,
    };
    let [addr, digest] = &args[..] else {
        return Err("usage: clean-serve analyze <addr> <digest> [--engine E] [--no-wait]".into());
    };
    let digest: TraceDigest = digest
        .parse()
        .map_err(|e| format!("bad digest {digest:?}: {e}"))?;
    let mut client = connect(addr)?;
    let response = if no_wait {
        client.analyze(digest, engine, false).map_err(rpc_err)?
    } else {
        client
            .analyze_with_retry(digest, engine, retries)
            .map_err(rpc_err)?
    };
    report_verdict(response)
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let [addr, job] = args else {
        return Err("usage: clean-serve status <addr> <job>".into());
    };
    let job: u64 = parse_num(job, "job id")?;
    let mut client = connect(addr)?;
    report_verdict(client.status(job).map_err(rpc_err)?)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err("usage: clean-serve stats <addr>".into());
    };
    let snap = connect(addr)?.metrics_snapshot().map_err(rpc_err)?;
    print!("{}", stats_text(&snap));
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err("usage: clean-serve metrics <addr>".into());
    };
    let mut client = connect(addr)?;
    let text = client.metrics().map_err(rpc_err)?;
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_suppress(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let [_, addr] = args else {
                return Err("usage: clean-serve suppress list <addr>".into());
            };
            let mut client = connect(addr)?;
            match client.policy().map_err(rpc_err)? {
                Response::Policy { rules, hits, text } => {
                    println!("rules={rules}");
                    if !text.is_empty() {
                        print!("{text}");
                        if !text.ends_with('\n') {
                            println!();
                        }
                    }
                    // The audit trail: races credited to each rule since
                    // it was installed (first matching rule wins).
                    if let Ok(policy) = SuppressionPolicy::parse(&text) {
                        for (rule, hit) in policy.rules().iter().zip(&hits) {
                            println!("hits={hit}  {}", rule.render());
                        }
                    }
                    Ok(ExitCode::SUCCESS)
                }
                Response::Error { code, message } => Err(format!("server error {code}: {message}")),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        Some("add") => {
            let [_, addr, rule @ ..] = args else {
                unreachable!("first() was Some");
            };
            if rule.is_empty() {
                return Err("usage: clean-serve suppress add <addr> <rule...>".into());
            }
            let mut client = connect(addr)?;
            // Read-modify-write: fetch the live text, append one rule
            // line, push the whole policy back (the server validates and
            // persists it atomically before answering).
            let Response::Policy { text, .. } = client.policy().map_err(rpc_err)? else {
                return Err("unexpected reply to policy read".into());
            };
            let line = rule.join(" ");
            let mut next = if text.trim().is_empty() {
                "CSUP v1\n".to_string()
            } else {
                let mut t = text;
                if !t.ends_with('\n') {
                    t.push('\n');
                }
                t
            };
            next.push_str(&line);
            next.push('\n');
            match client.set_policy(next).map_err(rpc_err)? {
                Response::Policy { rules, .. } => {
                    println!("rules={rules}");
                    Ok(ExitCode::SUCCESS)
                }
                Response::Error { code, message } => Err(format!("server error {code}: {message}")),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        Some("prune") => {
            let [_, addr] = args else {
                return Err("usage: clean-serve suppress prune <addr>".into());
            };
            let mut client = connect(addr)?;
            // Read-modify-write like `add`: fetch the live policy and its
            // hit counters, drop every rule that never fired, push the
            // survivors back. The set resets the counters, so a pruned
            // policy starts a fresh audit window.
            let Response::Policy { hits, text, .. } = client.policy().map_err(rpc_err)? else {
                return Err("unexpected reply to policy read".into());
            };
            let policy = SuppressionPolicy::parse(&text)
                .map_err(|e| format!("server sent an unparseable policy: {e}"))?;
            let pruned = policy.prune(&hits);
            let dropped = policy.rules().len() - pruned.rules().len();
            if dropped == 0 {
                println!(
                    "rules={} dropped=0 (every rule has hits)",
                    policy.rules().len()
                );
                return Ok(ExitCode::SUCCESS);
            }
            match client
                .set_policy(pruned.text().to_string())
                .map_err(rpc_err)?
            {
                Response::Policy { rules, .. } => {
                    println!("rules={rules} dropped={dropped}");
                    Ok(ExitCode::SUCCESS)
                }
                Response::Error { code, message } => Err(format!("server error {code}: {message}")),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        Some("check") => cmd_analyze(&args[1..]),
        _ => Err("usage: clean-serve suppress <list|add|check|prune> ...".into()),
    }
}

fn cmd_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err("usage: clean-serve shutdown <addr>".into());
    };
    let mut client = connect(addr)?;
    match client.shutdown().map_err(rpc_err)? {
        Response::ShuttingDown => {
            println!("server draining");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unexpected reply: {other:?}")),
    }
}
