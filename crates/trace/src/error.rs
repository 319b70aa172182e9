//! Error type of the trace store.

use std::fmt;
use std::io;

/// Failures reading, writing or validating a binary trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `CLTR` magic.
    BadMagic([u8; 4]),
    /// The stream's format version is not supported by this reader.
    UnsupportedVersion(u8),
    /// A chunk header or payload ends before its declared length.
    Truncated {
        /// Index of the chunk where the stream ended prematurely.
        chunk: u64,
    },
    /// A chunk's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Index of the corrupt chunk.
        chunk: u64,
        /// CRC stored in the chunk header.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// A chunk payload is malformed (bad tag, varint overflow, or length
    /// inconsistent with the declared event count).
    Corrupt {
        /// Index of the corrupt chunk.
        chunk: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// A v2 chunk table is missing, truncated, corrupt, or inconsistent
    /// with the stream it describes.
    BadTable {
        /// What was wrong.
        reason: &'static str,
    },
    /// The trace decodes, but names more threads than the analysis
    /// engines' epoch layout has thread ids for.
    TooManyThreads {
        /// Thread slots the trace needs.
        threads: usize,
        /// Thread slots the engines support.
        max: usize,
    },
    /// The trace synchronizes one thread more often than the engines'
    /// epoch layout has clock values for.
    ClockOverflow {
        /// The thread whose clock would overflow.
        thread: u16,
        /// Index of the event that would overflow it.
        event: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a CLEAN trace (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::Truncated { chunk } => {
                write!(f, "trace truncated inside chunk {chunk}")
            }
            TraceError::ChecksumMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceError::Corrupt { chunk, reason } => {
                write!(f, "chunk {chunk} corrupt: {reason}")
            }
            TraceError::BadTable { reason } => {
                write!(f, "chunk table invalid: {reason}")
            }
            TraceError::TooManyThreads { threads, max } => write!(
                f,
                "trace needs {threads} thread slots; the engines support {max}"
            ),
            TraceError::ClockOverflow { thread, event } => {
                write!(f, "event {event} overflows thread {thread}'s clock")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Result alias of the trace store.
pub type Result<T> = std::result::Result<T, TraceError>;
