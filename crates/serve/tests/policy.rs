//! Suppression-policy integration: a race matched by a `CSUP` rule must
//! be served demoted (`suppressed = true`) with the `suppressed_hits`
//! counter advancing — live after a POLICY set, retroactively for
//! already-cached verdicts, and again after a warm restart that reloads
//! the persisted rules. A POLICY set through the fleet router must land
//! on every backend or fail loudly.

use clean_core::{ThreadId, TraceEvent};
use clean_serve::client::{stat, Client};
use clean_serve::protocol::{error_code, Response};
use clean_serve::router::{Router, RouterConfig};
use clean_serve::server::{Server, ServerConfig};
use clean_trace::{encode_trace, EngineKind, TraceDigest};
use std::net::TcpListener;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clean-policy-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two unordered same-address writes: a guaranteed WAW race at 0x40.
fn racy_trace() -> Vec<u8> {
    let events = [0u16, 1].map(|t| TraceEvent::Write {
        tid: ThreadId::new(t),
        addr: 0x40,
        size: 8,
    });
    encode_trace(&events).unwrap()
}

fn submit(client: &mut Client, trace: Vec<u8>) -> TraceDigest {
    match client.submit(trace).unwrap() {
        Response::Submitted { digest, .. } => digest,
        other => panic!("submit failed: {other:?}"),
    }
}

/// Analyzes and returns `(cached, per-race suppressed flags)`.
fn verdict_flags(client: &mut Client, digest: TraceDigest) -> (bool, Vec<bool>) {
    match client
        .analyze_with_retry(digest, EngineKind::Clean, 50)
        .unwrap()
    {
        Response::Verdict { cached, races, .. } => {
            assert!(!races.is_empty(), "the WAW trace must report races");
            (cached, races.iter().map(|r| r.suppressed).collect())
        }
        other => panic!("analyze failed: {other:?}"),
    }
}

#[test]
fn suppression_demotes_matched_races_live_and_after_warm_restart() {
    let dir = scratch("restart");

    // Phase 1: no policy — the race is served at full severity.
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = submit(&mut client, racy_trace());
    let (cached, flags) = verdict_flags(&mut client, digest);
    assert!(!cached, "first analyze must replay");
    assert!(
        flags.iter().all(|&s| !s),
        "no rule loaded, nothing may be suppressed"
    );
    let hits = stat(&client.metrics_snapshot().unwrap(), "suppressed_hits");
    assert_eq!(hits, 0);

    // Phase 2: push a rule covering the racy address. The verdict is
    // already cached — suppression must reclassify it at serve time.
    match client.set_policy("CSUP v1\naddr 0x40..0x47 waw\n").unwrap() {
        Response::Policy { rules, .. } => assert_eq!(rules, 1),
        other => panic!("set_policy failed: {other:?}"),
    }
    let (cached, flags) = verdict_flags(&mut client, digest);
    assert!(cached, "second analyze must hit the verdict cache");
    assert!(
        flags.iter().all(|&s| s),
        "every WAW at 0x40 must be demoted to a warning"
    );
    let hits = stat(&client.metrics_snapshot().unwrap(), "suppressed_hits");
    assert!(hits >= 1, "suppressed_hits must advance, got {hits}");

    // The set must have persisted beside the store.
    let persisted = std::fs::read_to_string(dir.join("policy.csup")).unwrap();
    assert!(persisted.contains("addr 0x40..0x47 waw"));

    server.shutdown();
    server.join();

    // Phase 3: warm restart — the reloaded policy must demote the
    // persisted-cache verdict exactly as before.
    let warm = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(warm.addr()).unwrap();
    let (cached, flags) = verdict_flags(&mut client, digest);
    assert!(cached, "warm restart must serve from the persisted cache");
    assert!(
        flags.iter().all(|&s| s),
        "suppression must survive the restart"
    );
    assert!(stat(&client.metrics_snapshot().unwrap(), "suppressed_hits") >= 1);
    match client.policy().unwrap() {
        Response::Policy { rules, text, .. } => {
            assert_eq!(rules, 1);
            assert!(text.contains("addr 0x40..0x47 waw"));
        }
        other => panic!("policy read failed: {other:?}"),
    }
    warm.shutdown();
    warm.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_policy_is_rejected_and_leaves_the_active_policy_unchanged() {
    let dir = scratch("reject");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.set_policy("CSUP v1\nprefix feedface\n").unwrap() {
        Response::Policy { rules, .. } => assert_eq!(rules, 1),
        Response::Error { code, message } => panic!("valid policy rejected: {code} {message}"),
        other => panic!("unexpected: {other:?}"),
    }

    // Each malformed shape must come back BAD_POLICY...
    for bad in [
        "not a policy",
        "CSUP v2\n",
        "CSUP v1\ndigest zz\n",
        "CSUP v1\naddr 10..5\n",
        "CSUP v1\nfrobnicate everything\n",
    ] {
        match client.set_policy(bad).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, error_code::BAD_POLICY, "{bad:?}"),
            other => panic!("{bad:?} accepted: {other:?}"),
        }
    }
    // ...without clobbering the last good policy, in memory or on disk.
    match client.policy().unwrap() {
        Response::Policy { text, .. } => assert!(text.contains("prefix feedface")),
        other => panic!("policy read failed: {other:?}"),
    }
    assert!(std::fs::read_to_string(dir.join("policy.csup"))
        .unwrap()
        .contains("prefix feedface"));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_set_through_the_router_lands_on_every_backend() {
    let dir = scratch("fanout");
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    drop(listeners);
    let nodes: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Server::start(ServerConfig::new(dir.join(format!("node-{i}"))).addr(addr.clone()))
                .unwrap()
        })
        .collect();
    let router = Router::start(RouterConfig::new(addrs.clone())).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let digest = submit(&mut client, racy_trace());
    match client.set_policy("CSUP v1\naddr 0x40..0x47\n").unwrap() {
        Response::Policy { rules, .. } => assert_eq!(rules, 1),
        other => panic!("fleet set_policy failed: {other:?}"),
    }
    // Every backend — not just the digest's primary — holds the rules.
    for addr in &addrs {
        let mut direct = Client::connect(addr.as_str()).unwrap();
        match direct.policy().unwrap() {
            Response::Policy { rules, text, .. } => {
                assert_eq!(rules, 1, "backend {addr} missed the policy");
                assert!(text.contains("addr 0x40..0x47"));
            }
            other => panic!("backend {addr} policy read failed: {other:?}"),
        }
    }
    // And verdicts routed anywhere come back demoted.
    let (_, flags) = verdict_flags(&mut client, digest);
    assert!(flags.iter().all(|&s| s));

    match client.shutdown().unwrap() {
        Response::ShuttingDown => {}
        other => panic!("fleet shutdown failed: {other:?}"),
    }
    router.join();
    for node in nodes {
        node.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rule_hits_advance_and_prune_drops_the_dead_rule() {
    let dir = scratch("prune");
    let server = Server::start(ServerConfig::new(&dir)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let digest = submit(&mut client, racy_trace());

    // Rule 1 covers the racy address; rule 2 can never fire.
    let text = "CSUP v1\naddr 0x40..0x47\naddr 0xdead00..0xdeadff\n";
    match client.set_policy(text).unwrap() {
        Response::Policy { rules, hits, .. } => {
            assert_eq!(rules, 2);
            assert_eq!(hits, vec![0, 0], "a fresh policy starts at zero");
        }
        other => panic!("set_policy failed: {other:?}"),
    }
    let (_, flags) = verdict_flags(&mut client, digest);
    let suppressed = flags.iter().filter(|&&s| s).count() as u64;
    assert!(suppressed >= 1);

    // The read reports per-rule credit: all of it on rule 1.
    let (hits, live_text) = match client.policy().unwrap() {
        Response::Policy { hits, text, .. } => (hits, text),
        other => panic!("policy read failed: {other:?}"),
    };
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0], suppressed);
    assert_eq!(hits[1], 0);

    // Prune client-side exactly as the CLI does: drop zero-hit rules,
    // push the survivors. The set resets the audit window.
    let policy = clean_serve::policy::SuppressionPolicy::parse(&live_text).unwrap();
    let pruned = policy.prune(&hits);
    assert_eq!(pruned.rules().len(), 1);
    match client.set_policy(pruned.text()).unwrap() {
        Response::Policy { rules, hits, text } => {
            assert_eq!(rules, 1);
            assert_eq!(hits, vec![0]);
            assert!(text.contains("addr 0x40..0x47"));
            assert!(!text.contains("0xdead00"), "dead rule must be gone");
        }
        other => panic!("prune set failed: {other:?}"),
    }
    // The surviving rule still classifies the cached verdict.
    let (cached, flags) = verdict_flags(&mut client, digest);
    assert!(cached);
    assert!(flags.iter().all(|&s| s));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unparseable_policy_file_fails_startup_loudly() {
    let dir = scratch("startup");
    std::fs::write(dir.join("policy.csup"), "CSUP v1\nnonsense rule\n").unwrap();
    let err = Server::start(ServerConfig::new(&dir)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("line 2"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
