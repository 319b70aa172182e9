//! Streaming trace deserialization: [`TraceReader`] iterates events out
//! of a `CLTR` stream chunk by chunk, validating framing and checksums.
//!
//! A header naming any version but [`FORMAT_VERSION`] is refused before
//! a chunk is read. After the all-zero end-of-stream marker every stream
//! carries a chunk-table footer, which the reader validates *strictly* —
//! CRC, trailer magic, entry-for-entry agreement with the chunks
//! actually decoded, and nothing after it. A stream whose table is
//! missing, truncated or corrupted in any byte therefore fails to read,
//! preserving the invariant that every single-bit flip and every
//! truncation of a trace is detected.
//! The footer read is bounded by the chunks decoded, so a stream cut
//! short by a zeroed frame fails without buffering the rest.
//!
//! Every trace file is read here: replay, digest and scan stream it
//! from the header, and [`read_range`] seeks the same reader to the
//! first chunk its window needs.

use crate::codec::{crc32, Decoder, FORMAT_VERSION, MAGIC};
use crate::error::{Result, TraceError};
use crate::table::{
    parse_footer, read_table, ChunkEntry, ChunkTable, ENTRY_BYTES, FRAME_BYTES, HEADER_BYTES,
    TRAILER_BYTES,
};
use clean_core::TraceEvent;
use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

/// Fills `buf` from `input` until it is full or the input ends,
/// returning how many bytes were read. Only I/O errors are errors.
fn read_full(input: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Reads and checks the stream header: the magic, then
/// [`FORMAT_VERSION`].
///
/// A header cut short is [`TraceError::BadMagic`] carrying the bytes
/// that are there; any other version byte is
/// [`TraceError::UnsupportedVersion`]; an I/O failure stays
/// [`TraceError::Io`].
pub(crate) fn read_header(input: &mut impl Read) -> Result<()> {
    let mut header = [0u8; HEADER_BYTES];
    let filled = read_full(input, &mut header)?;
    if filled < HEADER_BYTES || header[..4] != MAGIC {
        return Err(TraceError::BadMagic(header[..filled.min(4)].to_vec()));
    }
    match header[4] {
        FORMAT_VERSION => Ok(()),
        v => Err(TraceError::UnsupportedVersion(v)),
    }
}

/// Streaming reader of the `CLTR` binary trace format.
///
/// Implements `Iterator<Item = Result<TraceEvent>>`: events decode
/// lazily from an internal chunk buffer; each chunk's CRC-32 is verified
/// before any of its events are surfaced, so a corrupt chunk yields an
/// error instead of garbage events. Reading continues past a fully
/// consumed chunk into the next one; a clean end of stream at a chunk
/// boundary ends iteration once the chunk-table footer validates.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    dec: Decoder,
    /// Decoded payload of the current chunk.
    payload: Vec<u8>,
    /// Read cursor within `payload`.
    pos: usize,
    /// Events remaining to decode in the current chunk.
    chunk_events_left: u32,
    /// Index of the next chunk to load; the current chunk is the one
    /// before it.
    next_chunk: u64,
    /// Set after an error or clean EOF: iteration is over.
    done: bool,
    /// Stream offset consumed so far (header + frames + payloads).
    offset: u64,
    /// Chunk entries observed while decoding, checked against the
    /// footer at end of stream.
    observed: Vec<ChunkEntry>,
    /// Events in fully loaded chunks so far.
    events_seen: u64,
    /// Chunk-table entries every frame must match before its payload is
    /// read, indexed by chunk; empty unless the reader was started
    /// mid-stream by [`read_range`].
    expected: Vec<ChunkEntry>,
}

impl TraceReader<BufReader<File>> {
    /// Opens the trace file at `path` and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps `input`, reading and validating the stream header.
    pub fn new(mut input: R) -> Result<Self> {
        read_header(&mut input)?;
        Ok(TraceReader {
            input,
            dec: Decoder::new(),
            payload: Vec::new(),
            pos: 0,
            chunk_events_left: 0,
            next_chunk: 0,
            done: false,
            offset: HEADER_BYTES as u64,
            observed: Vec::new(),
            events_seen: 0,
            expected: Vec::new(),
        })
    }

    /// Loads and validates the next chunk. `Ok(false)` means the
    /// end-of-stream marker (an all-zero frame) was reached and the
    /// chunk-table footer after it validated. A plain EOF —
    /// even at a chunk boundary — is a truncated stream: every intact
    /// trace ends with the marker.
    fn load_chunk(&mut self) -> Result<bool> {
        let chunk = self.next_chunk;
        let mut frame = [0u8; FRAME_BYTES];
        if read_full(&mut self.input, &mut frame)? < FRAME_BYTES {
            return Err(TraceError::Truncated { chunk });
        }
        let payload_len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let events = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
        if let Some(want) = self.expected.get(chunk as usize) {
            if (payload_len, events) != (want.payload_len, want.events) {
                return Err(TraceError::Corrupt {
                    chunk,
                    reason: "chunk frame disagrees with the chunk table",
                });
            }
        }
        if frame == [0u8; FRAME_BYTES] {
            self.offset += FRAME_BYTES as u64;
            self.verify_footer()?;
            return Ok(false);
        }
        if events == 0 || payload_len == 0 {
            return Err(TraceError::Corrupt {
                chunk,
                reason: "zero-length chunk frame",
            });
        }
        // A corrupt length field must not drive a giant allocation.
        if payload_len > 256 << 20 {
            return Err(TraceError::Corrupt {
                chunk,
                reason: "chunk payload implausibly large",
            });
        }
        self.payload.resize(payload_len as usize, 0);
        if read_full(&mut self.input, &mut self.payload)? < self.payload.len() {
            return Err(TraceError::Truncated { chunk });
        }
        let computed = crc32(&self.payload);
        if computed != stored_crc {
            return Err(TraceError::ChecksumMismatch {
                chunk,
                stored: stored_crc,
                computed,
            });
        }
        self.observed.push(ChunkEntry {
            offset: self.offset,
            payload_len,
            events,
            first_event: self.events_seen,
        });
        self.offset += (FRAME_BYTES + self.payload.len()) as u64;
        self.events_seen += u64::from(events);
        self.next_chunk += 1;
        self.pos = 0;
        self.chunk_events_left = events;
        self.dec.reset();
        Ok(true)
    }

    /// Reads and strictly validates the footer after the end-of-stream
    /// marker: exactly one table entry per decoded chunk plus the
    /// trailer, then end of input. Checks the trailer magic, the CRC and
    /// exact agreement between the table and the chunks this reader
    /// actually decoded.
    fn verify_footer(&mut self) -> Result<()> {
        let footer_len = self.observed.len() * ENTRY_BYTES + TRAILER_BYTES;
        // parse_footer expects the EOS marker to precede the entries;
        // the marker was already consumed, so re-prefix zeros.
        let mut tail = vec![0u8; FRAME_BYTES + footer_len];
        if read_full(&mut self.input, &mut tail[FRAME_BYTES..])? < footer_len {
            return Err(TraceError::BadTable {
                reason: "chunk table cut short",
            });
        }
        if read_full(&mut self.input, &mut [0u8])? != 0 {
            return Err(TraceError::BadTable {
                reason: "bytes after the chunk table",
            });
        }
        let table = parse_footer(&tail, self.offset + footer_len as u64)?;
        if table.entries != self.observed {
            return Err(TraceError::BadTable {
                reason: "table entries disagree with the decoded chunks",
            });
        }
        if table.total_events != self.events_seen {
            return Err(TraceError::BadTable {
                reason: "table event total disagrees with the decoded stream",
            });
        }
        Ok(())
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>> {
        while self.chunk_events_left == 0 {
            if !self.load_chunk()? {
                return Ok(None);
            }
        }
        let chunk = self.next_chunk - 1;
        let mut input = &self.payload[self.pos..];
        let before = input.len();
        let event = self
            .dec
            .decode(&mut input)
            .map_err(|reason| TraceError::Corrupt { chunk, reason })?;
        self.pos += before - input.len();
        self.chunk_events_left -= 1;
        if self.chunk_events_left == 0 && self.pos != self.payload.len() {
            return Err(TraceError::Corrupt {
                chunk,
                reason: "payload longer than its event count",
            });
        }
        Ok(Some(event))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Repositions the reader at the frame of chunk `chunk` of `table`,
    /// this stream's chunk table. From there on each frame must
    /// match its table entry before its payload is read.
    fn seek_to_chunk(&mut self, table: ChunkTable, chunk: usize) -> Result<()> {
        let entry = table.entries[chunk];
        self.input.seek(SeekFrom::Start(entry.offset))?;
        self.next_chunk = chunk as u64;
        self.chunk_events_left = 0;
        self.offset = entry.offset;
        self.events_seen = entry.first_event;
        self.expected = table.entries;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_event() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads a whole trace file into memory.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>> {
    TraceReader::open(path)?.collect()
}

/// Reads the events with trace indices in `range` (clamped to the trace
/// length) — random access built on the chunk table.
///
/// Only the chunks covering the range are read and decoded: the table
/// locates the first covering chunk by binary search, the reader seeks
/// straight to its frame, checks each frame against its table entry,
/// and stops at the end of the range.
///
/// # Errors
///
/// Propagates I/O and decode errors, including a corrupt chunk table.
pub fn read_range(path: impl AsRef<Path>, range: Range<u64>) -> Result<Vec<TraceEvent>> {
    let path = path.as_ref();
    let mut reader = TraceReader::open(path)?;
    let table = read_table(path)?;
    let end = range.end.min(table.total_events);
    let chunk = match table.locate(range.start) {
        Some(chunk) if range.start < end => chunk,
        _ => return Ok(Vec::new()),
    };
    // Trace index of the reader's next event.
    let next = table.entries[chunk].first_event;
    reader.seek_to_chunk(table, chunk)?;
    let mut out = Vec::new();
    for (i, ev) in (next..end).zip(reader) {
        let ev = ev?;
        if i >= range.start {
            out.push(ev);
        }
    }
    Ok(out)
}
