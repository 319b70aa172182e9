//! Streaming trace serialization: [`TraceWriter`] frames encoded events
//! into checksummed chunks, and [`FileSink`] adapts a writer into the
//! runtime's [`EventSink`] capture interface.

use crate::codec::{crc32, Encoder, FORMAT_VERSION, MAGIC};
use crate::error::Result;
use crate::table::{ChunkEntry, ChunkTable};
use clean_core::{EventSink, TraceEvent};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Default chunk payload size: large enough to amortize framing and CRC
/// overhead, small enough that corruption localizes to ~16k events.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Summary of a finished trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Events written.
    pub events: u64,
    /// Total stream bytes, including header and chunk framing.
    pub bytes: u64,
    /// Chunks emitted.
    pub chunks: u64,
}

impl WriteSummary {
    /// Mean stream bytes per event (the ≤ 8 bytes/event target).
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.bytes as f64 / self.events as f64
        }
    }
}

/// Streaming writer of the `CLTR` binary trace format.
///
/// Events are encoded incrementally into an in-memory chunk payload;
/// when the payload reaches the chunk size it is framed (length, event
/// count, CRC-32) and flushed to the underlying writer, and the
/// encoder's delta state resets so each chunk decodes independently.
/// Call [`finish`](Self::finish) to flush the final partial chunk and
/// append the chunk table.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    enc: Encoder,
    payload: Vec<u8>,
    chunk_events: u32,
    chunk_bytes: usize,
    summary: WriteSummary,
    /// Per-chunk table entries accumulated for the footer.
    entries: Vec<ChunkEntry>,
    /// Highest thread id observed (including fork/join children).
    max_tid: u16,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a trace file at `path` (truncating any existing file).
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?))?)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`, writing the stream header immediately.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&[FORMAT_VERSION])?;
        Ok(TraceWriter {
            out,
            enc: Encoder::new(),
            payload: Vec::with_capacity(DEFAULT_CHUNK_BYTES + 64),
            chunk_events: 0,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            summary: WriteSummary {
                events: 0,
                bytes: (MAGIC.len() + 1) as u64,
                chunks: 0,
            },
            entries: Vec::new(),
            max_tid: 0,
        })
    }

    /// Overrides the chunk payload threshold (testing knob).
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes.max(1);
        self
    }

    /// Encodes and buffers one event, flushing a chunk when full.
    ///
    /// # Errors
    ///
    /// I/O failures, and `InvalidInput` for an event the format cannot
    /// hold (a zero-size, oversized or address-wrapping access — see
    /// [`MAX_ACCESS_BYTES`](crate::codec::MAX_ACCESS_BYTES)); the stream
    /// is left as it was before the call.
    pub fn write_event(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.enc
            .encode(event, &mut self.payload)
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidInput, reason))?;
        self.max_tid = self.max_tid.max(event.tid().raw());
        if let TraceEvent::Fork { child, .. } | TraceEvent::Join { child, .. } = *event {
            self.max_tid = self.max_tid.max(child.raw());
        }
        self.chunk_events += 1;
        self.summary.events += 1;
        if self.payload.len() >= self.chunk_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_events == 0 {
            return Ok(());
        }
        self.entries.push(ChunkEntry {
            offset: self.summary.bytes,
            payload_len: self.payload.len() as u32,
            events: self.chunk_events,
            first_event: self.summary.events - u64::from(self.chunk_events),
        });
        let crc = crc32(&self.payload);
        self.out
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.chunk_events.to_le_bytes())?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.summary.bytes += 12 + self.payload.len() as u64;
        self.summary.chunks += 1;
        self.payload.clear();
        self.chunk_events = 0;
        self.enc.reset();
        Ok(())
    }

    /// Flushes the final chunk, writes the end-of-stream marker (an
    /// all-zero frame, so truncation at a chunk boundary is detectable)
    /// and the chunk-table footer, then flushes the underlying writer,
    /// returning the stream summary.
    pub fn finish(self) -> io::Result<WriteSummary> {
        self.finish_into().map(|(summary, _)| summary)
    }

    /// [`finish`](Self::finish), additionally returning the underlying
    /// writer — the way to recover an in-memory stream (`Vec<u8>`) after
    /// encoding, e.g. to submit it over the serving protocol.
    pub fn finish_into(mut self) -> io::Result<(WriteSummary, W)> {
        self.flush_chunk()?;
        self.out.write_all(&[0u8; 12])?;
        self.summary.bytes += 12;
        let table = ChunkTable {
            entries: std::mem::take(&mut self.entries),
            total_events: self.summary.events,
            threads: u32::from(self.max_tid) + 1,
        };
        let footer = table.encode();
        self.out.write_all(&footer)?;
        self.summary.bytes += footer.len() as u64;
        self.out.flush()?;
        Ok((self.summary, self.out))
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.summary.events
    }
}

/// Thread-safe [`EventSink`] that streams a monitored execution to disk.
///
/// Attach with [`CleanRuntime::with_trace_sink`]; keep a second
/// `Arc` handle and call [`finish`](Self::finish) after the execution to
/// flush the final chunk and learn the file size. I/O errors are latched
/// and reported by `finish` (the recording hot path cannot propagate
/// them).
///
/// [`CleanRuntime::with_trace_sink`]: clean_runtime::CleanRuntime::with_trace_sink
#[derive(Debug)]
pub struct FileSink {
    state: Mutex<SinkState>,
}

#[derive(Debug)]
struct SinkState {
    writer: Option<TraceWriter<BufWriter<File>>>,
    error: Option<io::Error>,
}

impl FileSink {
    /// Creates a sink writing the trace to `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Ok(FileSink {
            state: Mutex::new(SinkState {
                writer: Some(TraceWriter::create(path)?),
                error: None,
            }),
        })
    }

    /// Flushes and closes the trace file, returning its summary or the
    /// first I/O error encountered while recording.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&self) -> io::Result<WriteSummary> {
        let mut st = self.state.lock();
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        st.writer
            .take()
            .expect("FileSink::finish called twice")
            .finish()
    }
}

impl EventSink for FileSink {
    fn record_event(&self, event: &TraceEvent) {
        let mut st = self.state.lock();
        if st.error.is_some() {
            return;
        }
        if let Some(w) = st.writer.as_mut() {
            if let Err(e) = w.write_event(event) {
                st.error = Some(e);
            }
        }
    }
}

/// Writes a whole in-memory trace to `path` in one call.
pub fn write_trace(path: impl AsRef<Path>, events: &[TraceEvent]) -> Result<WriteSummary> {
    let mut w = TraceWriter::create(path)?;
    for e in events {
        w.write_event(e)?;
    }
    Ok(w.finish()?)
}

/// Encodes a whole in-memory trace into a `CLTR` byte stream — the form
/// the serving protocol's SUBMIT frame carries.
pub fn encode_trace(events: &[TraceEvent]) -> Result<Vec<u8>> {
    let mut w = TraceWriter::new(Vec::new())?;
    for e in events {
        w.write_event(e)?;
    }
    let (_, bytes) = w.finish_into()?;
    Ok(bytes)
}
