//! `clean-serve` — run or talk to the concurrent race-analysis service.
//!
//! ```text
//! clean-serve serve   --store <dir> [--addr HOST:PORT] [--max-bytes N]
//!                     [--queue-cap N] [--per-client-cap N] [--workers N] [--shards N]
//!                     [--peer HOST:PORT]... [--acceptors N] [--io-timeout-millis N]
//! clean-serve submit  <addr> <trace.cltr>
//! clean-serve analyze <addr> <digest> [--engine clean|fasttrack|vcfull|tsan]
//!                     [--no-wait] [--retries N]
//! clean-serve status  <addr> <job>
//! clean-serve stats   <addr>
//! clean-serve metrics <addr>
//! clean-serve shutdown <addr>
//! ```
//!
//! Exit codes match `clean-analyze`: 0 = success / trace clean, 10 =
//! analysis found race(s), 1 = any other failure.

mod args;

use args::{parse_num, take_value, take_values};
use clean_serve::client::{stats_text, Client};
use clean_serve::protocol::Response;
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{EngineKind, TraceDigest};
use std::process::ExitCode;

/// `analyze`/`status` returned a verdict with at least one race.
const EXIT_RACE: u8 = 10;

const USAGE: &str = "\
clean-serve — concurrent race-analysis service for CLEAN traces

USAGE:
  clean-serve serve --store <dir> [--addr HOST:PORT] [--max-bytes N]
                    [--queue-cap N] [--per-client-cap N] [--workers N] [--shards N]
                    [--peer HOST:PORT]... [--acceptors N] [--io-timeout-millis N]
      Run the daemon in the foreground. Prints the bound address
      (`listening on HOST:PORT`) once ready; exits after a graceful
      drain when a SHUTDOWN frame arrives. Each --peer names another
      clean-serve node to FETCH missing digests from (fleet mode).
      --workers N replay jobs run at once (default: one per core, 1 to
      8); each job's worker decodes the trace for --shards N lane
      threads (default: one per core beside the worker's, 1 to 8).
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
  clean-serve shutdown <addr>
      Ask the daemon to drain queued jobs and exit.

EXIT CODES:
  0   success; for analyze/status: the trace is clean
  10  analyze/status found race(s)
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
            println!(
                "{digest} engine={} events={events} races={} ({source})",
                engine.name(),
                races.len()
            );
            for race in &races {
                let r = race.to_found();
                println!(
                    "  {} at {:#x}: t{} after t{}",
                    r.kind,
                    r.addr,
                    r.current.raw(),
                    r.previous.raw()
                );
            }
            Ok(if races.is_empty() {
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
