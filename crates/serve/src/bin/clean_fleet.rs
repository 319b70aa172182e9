//! `clean-fleet` — run a digest-sharded fleet of `clean-serve` nodes
//! behind a CSRV router.
//!
//! ```text
//! clean-fleet route  --backend HOST:PORT [--backend HOST:PORT]...
//!                    [--addr HOST:PORT] [--replication N]
//!                    [--connect-retries N] [--retry-delay-millis N]
//!                    [--acceptors N] [--io-timeout-millis N]
//! clean-fleet spawn  --nodes N --store-root <dir> [--addr HOST:PORT]
//!                    [--base-port P] [--serve-bin PATH] [--max-bytes N]
//!                    [--replication N]
//! clean-fleet status <addr>
//! clean-fleet metrics <addr>
//! ```
//!
//! `route` fronts already-running backends; `spawn` launches N
//! `clean-serve` child processes on consecutive loopback ports — each
//! configured with every sibling as a FETCH peer — and then routes to
//! them. A SHUTDOWN frame sent to the router drains the whole fleet.

mod args;

use args::{parse_num, take_value, take_values};
use clean_serve::client::{stats_text, Client};
use clean_serve::router::{Router, RouterConfig};
use std::net::TcpStream;
use std::process::{Child, Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "\
clean-fleet — digest-sharded multi-process serving for CLEAN traces

USAGE:
  clean-fleet route --backend HOST:PORT [--backend HOST:PORT]...
                    [--addr HOST:PORT] [--replication N]
                    [--connect-retries N] [--retry-delay-millis N]
                    [--acceptors N] [--io-timeout-millis N]
      Route CSRV requests across already-running clean-serve backends.
      Prints the bound address (`fleet listening on HOST:PORT`).
  clean-fleet spawn --nodes N --store-root <dir> [--addr HOST:PORT]
                    [--base-port P] [--serve-bin PATH] [--max-bytes N]
                    [--replication N]
      Launch N clean-serve children on ports P..P+N (default base 7601),
      each with store <dir>/node-<i> and every sibling as a FETCH peer,
      then route to them. A SHUTDOWN frame drains the whole fleet.
  clean-fleet status <addr>
      Print the fleet-wide service counters from a router address: each
      is the sum over every node of the merged METRICS exposition.
  clean-fleet metrics <addr>
      Print the fleet-wide `CMET v1` metrics merge from a router
      address: every backend's counters, gauges, and histograms under
      `node=\"<i>\"` labels, plus the router's own under
      `node=\"router\"`, plus each node's recent-event journal.

EXIT CODES:
  0  success
  1  any error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("route") => cmd_route(&args[1..]),
        Some("spawn") => cmd_spawn(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
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

/// Applies the router flags shared by `route` and `spawn`.
fn router_flags(config: RouterConfig, args: &mut Vec<String>) -> Result<RouterConfig, String> {
    let mut config = config;
    if let Some(addr) = take_value(args, "--addr")? {
        config = config.addr(addr);
    }
    if let Some(v) = take_value(args, "--replication")? {
        config = config.replication(parse_num(&v, "--replication")?);
    }
    if let Some(v) = take_value(args, "--connect-retries")? {
        config = config.connect_retries(parse_num(&v, "--connect-retries")?);
    }
    if let Some(v) = take_value(args, "--retry-delay-millis")? {
        config = config.retry_delay_millis(parse_num(&v, "--retry-delay-millis")?);
    }
    if let Some(v) = take_value(args, "--acceptors")? {
        config = config.acceptors(parse_num(&v, "--acceptors")?);
    }
    if let Some(v) = take_value(args, "--io-timeout-millis")? {
        config = config.io_timeout_millis(parse_num(&v, "--io-timeout-millis")?);
    }
    Ok(config)
}

/// Runs a started router in the foreground until it drains.
fn run_router(config: RouterConfig) -> Result<ExitCode, String> {
    let handle = Router::start(config).map_err(|e| format!("router start failed: {e}"))?;
    println!("fleet listening on {}", handle.addr());
    handle.wait_until_draining();
    eprintln!("router draining...");
    handle.join();
    eprintln!("router shutdown complete");
    Ok(ExitCode::SUCCESS)
}

fn cmd_route(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let backends = take_values(&mut args, "--backend")?;
    if backends.is_empty() {
        return Err("route needs at least one --backend HOST:PORT".into());
    }
    let config = router_flags(RouterConfig::new(backends), &mut args)?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    run_router(config)
}

/// Blocks until `addr` accepts a TCP connection or the deadline passes.
fn wait_for_bind(addr: &str, deadline: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if TcpStream::connect(addr).is_ok() {
            return Ok(());
        }
        if start.elapsed() > deadline {
            return Err(format!("backend {addr} did not come up"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn cmd_spawn(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let nodes: usize = match take_value(&mut args, "--nodes")? {
        Some(v) => parse_num(&v, "--nodes")?,
        None => return Err("spawn needs --nodes N".into()),
    };
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let store_root =
        take_value(&mut args, "--store-root")?.ok_or("spawn needs --store-root <dir>")?;
    let base_port: u16 = match take_value(&mut args, "--base-port")? {
        Some(v) => parse_num(&v, "--base-port")?,
        None => 7601,
    };
    let serve_bin = match take_value(&mut args, "--serve-bin")? {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            // Default: the clean-serve binary installed beside us.
            let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            me.with_file_name("clean-serve")
        }
    };
    let max_bytes = take_value(&mut args, "--max-bytes")?;

    let addrs: Vec<String> = (0..nodes)
        .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
        .collect();
    let mut children: Vec<Child> = Vec::with_capacity(nodes);
    for (i, addr) in addrs.iter().enumerate() {
        let mut cmd = Command::new(&serve_bin);
        cmd.arg("serve")
            .arg("--store")
            .arg(format!("{store_root}/node-{i}"))
            .arg("--addr")
            .arg(addr);
        for (j, peer) in addrs.iter().enumerate() {
            if j != i {
                cmd.arg("--peer").arg(peer);
            }
        }
        if let Some(v) = &max_bytes {
            cmd.arg("--max-bytes").arg(v);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))?;
        children.push(child);
    }
    for addr in &addrs {
        if let Err(e) = wait_for_bind(addr, Duration::from_secs(10)) {
            for mut child in children {
                let _ = child.kill();
            }
            return Err(e);
        }
    }
    eprintln!("spawned {nodes} clean-serve nodes on ports {base_port}..");

    let config = router_flags(RouterConfig::new(addrs), &mut args)?;
    if !args.is_empty() {
        for mut child in children {
            let _ = child.kill();
        }
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let result = run_router(config);
    // The SHUTDOWN fan-out already told every backend to drain; reap.
    for mut child in children {
        let _ = child.wait();
    }
    result
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err("usage: clean-fleet status <addr>".into());
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let snap = client
        .metrics_snapshot()
        .map_err(|e| format!("request failed: {e}"))?;
    print!("{}", stats_text(&snap));
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let [addr] = args else {
        return Err("usage: clean-fleet metrics <addr>".into());
    };
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let text = client
        .metrics()
        .map_err(|e| format!("request failed: {e}"))?;
    print!("{text}");
    if !text.ends_with('\n') {
        println!();
    }
    Ok(ExitCode::SUCCESS)
}
