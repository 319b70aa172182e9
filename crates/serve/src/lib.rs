//! # clean-serve
//!
//! A concurrent race-analysis *service* over the offline replay engines
//! of [`clean_trace`]: submit a recorded `CLTR` trace once, analyze it
//! under any detector engine from anywhere, and let the service dedupe
//! storage and memoize verdicts.
//!
//! The moving parts:
//!
//! * [`protocol`] — the `CSRV` length-prefixed binary frame protocol
//!   (SUBMIT / ANALYZE / STATUS / METRICS / SHUTDOWN, plus the FETCH
//!   peer-replication frame),
//! * [`store`] — a digest-addressed on-disk trace store with a
//!   size-bounded LRU, crash-tolerant index, and streaming ingestion,
//! * [`cache`] — the sharded `(digest, engine)` → verdict memo table,
//!   optionally durable beside the store,
//! * [`queue`] — the bounded, admission-controlled job queue that
//!   coalesces identical requests and sheds load with retry-after,
//! * [`server`] — the `clean-serve` daemon wiring the three together
//!   over a replay worker pool, with peer FETCH for fleets,
//! * [`router`] — the `clean-fleet` front that shards requests by
//!   digest prefix across N backends with replication and failover,
//! * [`client`] — a blocking client for the protocol.
//!
//! Both daemons run on one skeleton — acceptor pool, I/O deadlines, frame
//! loop, drain and join — and each supplies only its request handler.
//!
//! The design premise is the same one that justifies the trace store in
//! the first place: a trace digest names an *immutable* event sequence,
//! and every replay engine is a deterministic function of it — so
//! verdicts are facts to be cached, storage deduplicates for free, and
//! concurrent identical requests can share one replay.
//!
//! # Quickstart (in-process)
//!
//! ```
//! use clean_serve::server::{Server, ServerConfig};
//! use clean_serve::client::Client;
//! use clean_serve::protocol::Response;
//! use clean_core::{ThreadId, TraceEvent};
//! use clean_trace::{encode_trace, EngineKind};
//!
//! let dir = std::env::temp_dir().join(format!("clean-serve-doc-{}", std::process::id()));
//! let server = Server::start(ServerConfig::new(&dir)).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! // Two unordered writes to the same address: a WAW race.
//! let events = [0u16, 1].map(|t| TraceEvent::Write {
//!     tid: ThreadId::new(t), addr: 64, size: 8,
//! });
//! let Response::Submitted { digest, .. } = client.submit(encode_trace(&events).unwrap()).unwrap()
//! else { panic!("submit failed") };
//! let Response::Verdict { races, .. } = client.analyze(digest, EngineKind::Clean, true).unwrap()
//! else { panic!("analyze failed") };
//! assert!(!races.is_empty(), "unordered same-address writes race");
//!
//! server.join();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod daemon;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
pub mod store;

pub use cache::{Verdict, VerdictCache, VerdictKey};
pub use client::Client;
pub use protocol::{Request, Response, WireRace};
pub use queue::{Admission, JobQueue, JobState};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{StoreStats, StoredFile, StoredTrace, TraceStore};
