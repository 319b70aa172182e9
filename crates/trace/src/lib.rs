//! # clean-trace
//!
//! Persistent binary trace store and parallel offline race analysis for
//! the CLEAN reproduction — the production-scale form of the paper's
//! Section 3.1.2 debugging workflow: *"if a program execution does
//! trigger a race exception, a precise race detector can be used
//! alongside CLEAN in subsequent runs to systematically detect all
//! races."*
//!
//! Four layers:
//!
//! * **Codec** ([`codec`]): the versioned `CLTR` binary format — tag
//!   byte + LEB128 varints with per-thread address delta encoding,
//!   ~3–5 bytes per event against the 40-byte in-memory enum.
//! * **Store** ([`TraceWriter`] / [`TraceReader`]): streaming,
//!   chunk-framed file I/O with CRC-32 corruption detection;
//!   [`FileSink`] plugs into the runtime's [`EventSink`] capture hook so
//!   executions record straight to disk. [`TraceReader`] is the one way
//!   a trace is read: replay, digest, scan and [`read_range`] all go
//!   through its header, frame, CRC and footer checks, over a buffered
//!   file handle.
//! * **Analysis** ([`replay`]): one engine, [`Replay`], runs any
//!   [`TraceDetector`](clean_baselines::TraceDetector) over a slice or a
//!   trace file. One producer decodes events into shared batches and
//!   hands each to every lane over a bounded queue; each lane is a thread
//!   owning one detector and the events of its address granules, and
//!   lane count 1 is the sequential replay every other lane count
//!   provably agrees with (see [`replay`]'s module docs).
//! * **CLI** (`clean-analyze`): `record`, `stats`, `digest`, `replay`,
//!   `diff`, `plan`.
//!
//! # Example
//!
//! ```no_run
//! use clean_trace::{write_trace, read_trace, EngineKind, Replay};
//! use clean_core::{ThreadId, TraceEvent};
//!
//! let events = vec![
//!     TraceEvent::Write { tid: ThreadId::new(0), addr: 64, size: 4 },
//!     TraceEvent::Write { tid: ThreadId::new(1), addr: 64, size: 4 },
//! ];
//! write_trace("waw.cltr", &events)?;
//! let back = read_trace("waw.cltr")?;
//! assert_eq!(back, events);
//! let replay = Replay::new(EngineKind::Clean).lanes(4);
//! assert_eq!(replay.events(&back)?.races.len(), 1);
//! assert_eq!(replay.file("waw.cltr")?.races.len(), 1);
//! # Ok::<(), clean_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod digest;
mod error;
mod reader;
mod record;
pub mod replay;
mod stats;
pub mod table;
mod writer;

pub use clean_core::{EventSink, TraceEvent};
pub use digest::{digest_events, digest_file, digest_reader, Digester, TraceDigest};
pub use error::{Result, TraceError};
pub use reader::{read_range, read_trace, TraceReader};
pub use record::{record_kernel_trace, record_sim_trace, RecordOptions};
pub use replay::{
    default_lanes, required_threads, scan_trace, EngineKind, Replay, Replayed, TraceScan,
    SHARD_GRANULE,
};
pub use stats::TraceStats;
pub use table::{read_table, ChunkEntry, ChunkTable, TABLE_MAGIC};
pub use writer::{
    encode_trace, write_trace, FileSink, TraceWriter, WriteSummary, DEFAULT_CHUNK_BYTES,
};
