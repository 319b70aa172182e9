//! The `CLTR` chunk-offset table: sizing and random access.
//!
//! Every stream ends with a footer, after the end-of-stream marker,
//! describing every chunk in the stream: its file offset, payload
//! length, event count, and the index of its first event. Because
//! encoder and decoder state reset at chunk boundaries (see
//! [`codec`](crate::codec)), any chunk decodes independently given its
//! offset — the table turns the sequential stream into an indexed one,
//! giving exact totals without a scan and event-index range queries
//! without touching the event encoding (digests are over events, so
//! they are unchanged by the table).
//!
//! Layout, after the all-zero end-of-stream frame:
//!
//! ```text
//! entry * chunk_count   [offset u64][payload_len u32][events u32][first_event u64]   24 B each
//! trailer               [chunk_count u32][total_events u64][threads u32]
//!                       [table_crc u32][magic "CTB2"]                                24 B
//! ```
//!
//! All integers little-endian. `offset` addresses the chunk's 12-byte
//! frame header from the start of the stream. `table_crc` is CRC-32 over
//! the entry bytes followed by `chunk_count`, `total_events`, and
//! `threads` (every trailer field except the CRC and magic themselves).
//! The trailer is fixed-size and last, so the whole table is located
//! from the end of the stream with no stored offset: the entries begin
//! `24 + 24 * chunk_count` bytes before EOF.

use crate::codec::crc32;
use crate::error::{Result, TraceError};
use crate::reader::read_header;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Trailer magic: the last four bytes of every stream.
pub const TABLE_MAGIC: [u8; 4] = *b"CTB2";

/// Encoded size of one chunk-table entry.
pub const ENTRY_BYTES: usize = 24;

/// Encoded size of the fixed trailer.
pub const TRAILER_BYTES: usize = 24;

/// Stream header size (magic + version byte).
pub(crate) const HEADER_BYTES: usize = 5;

/// Chunk frame header size (payload length, event count, CRC).
pub(crate) const FRAME_BYTES: usize = 12;

/// End-of-stream marker size (one all-zero chunk frame).
const EOS_BYTES: usize = FRAME_BYTES;

/// One chunk's description in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Stream offset of the chunk's 12-byte frame header.
    pub offset: u64,
    /// Payload bytes (excluding the frame header).
    pub payload_len: u32,
    /// Events encoded in the chunk.
    pub events: u32,
    /// Trace index of the chunk's first event.
    pub first_event: u64,
}

impl ChunkEntry {
    /// Trace index one past the chunk's last event.
    pub fn end_event(&self) -> u64 {
        self.first_event + u64::from(self.events)
    }

    /// Stream offset one past the chunk's payload.
    pub fn end_offset(&self) -> u64 {
        self.offset + FRAME_BYTES as u64 + u64::from(self.payload_len)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.first_event.to_le_bytes());
    }

    fn decode(b: &[u8]) -> Self {
        ChunkEntry {
            offset: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            payload_len: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            events: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
            first_event: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
        }
    }
}

/// The decoded chunk table: one entry per chunk plus stream totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Per-chunk entries in stream order.
    pub entries: Vec<ChunkEntry>,
    /// Total events in the stream (equals the last entry's
    /// [`end_event`](ChunkEntry::end_event), zero when empty).
    pub total_events: u64,
    /// Analysis thread slots required (highest tid observed plus one;
    /// one for an empty trace).
    pub threads: u32,
}

impl ChunkTable {
    /// Encodes the table (entries + trailer) for appending after the
    /// end-of-stream marker.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * ENTRY_BYTES + TRAILER_BYTES);
        for e in &self.entries {
            e.encode_into(&mut out);
        }
        let crc = self.table_crc(&out);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.total_events.to_le_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&TABLE_MAGIC);
        out
    }

    /// CRC over the entry bytes and every trailer field before the CRC.
    fn table_crc(&self, entry_bytes: &[u8]) -> u32 {
        let mut covered = Vec::with_capacity(entry_bytes.len() + 16);
        covered.extend_from_slice(entry_bytes);
        covered.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        covered.extend_from_slice(&self.total_events.to_le_bytes());
        covered.extend_from_slice(&self.threads.to_le_bytes());
        crc32(&covered)
    }

    /// Index of the chunk containing trace event `event`, or `None`
    /// past the end of the stream.
    pub fn locate(&self, event: u64) -> Option<usize> {
        if event >= self.total_events {
            return None;
        }
        Some(self.entries.partition_point(|e| e.end_event() <= event))
    }

    /// Structural validation against the stream length: contiguous
    /// chunks starting right after the header, consistent event prefix
    /// sums, and a footer that accounts for every remaining byte.
    fn validate(&self, stream_len: u64) -> Result<()> {
        let bad = |reason| Err(TraceError::BadTable { reason });
        let mut next_offset = HEADER_BYTES as u64;
        let mut next_event = 0u64;
        for e in &self.entries {
            if e.payload_len == 0 || e.events == 0 {
                return bad("zero-length chunk entry");
            }
            if e.payload_len as usize > 256 << 20 {
                return bad("chunk entry implausibly large");
            }
            if e.offset != next_offset {
                return bad("chunk offsets not contiguous");
            }
            if e.first_event != next_event {
                return bad("chunk event indices not contiguous");
            }
            next_offset = e.end_offset();
            next_event = e.end_event();
        }
        if next_event != self.total_events {
            return bad("entry event counts disagree with trailer total");
        }
        if self.threads == 0 {
            return bad("zero thread slots");
        }
        // Thread ids are 16 bits wide: no stream needs more slots.
        if self.threads > 1 << 16 {
            return bad("more thread slots than thread ids");
        }
        let table_len = (self.entries.len() * ENTRY_BYTES + TRAILER_BYTES) as u64;
        if next_offset + EOS_BYTES as u64 + table_len != stream_len {
            return bad("table does not account for the stream length");
        }
        Ok(())
    }
}

/// Parses and validates the footer region of a stream given the
/// trailing `EOS + entries + trailer` bytes and the total stream length.
pub(crate) fn parse_footer(tail: &[u8], stream_len: u64) -> Result<ChunkTable> {
    let bad = |reason| Err(TraceError::BadTable { reason });
    if tail.len() < TRAILER_BYTES {
        return bad("stream too short for a chunk-table trailer");
    }
    let trailer = &tail[tail.len() - TRAILER_BYTES..];
    if trailer[20..24] != TABLE_MAGIC {
        return bad("chunk-table trailer magic missing");
    }
    let chunk_count = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes")) as usize;
    let total_events = u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes"));
    let threads = u32::from_le_bytes(trailer[12..16].try_into().expect("4 bytes"));
    let stored_crc = u32::from_le_bytes(trailer[16..20].try_into().expect("4 bytes"));
    let table_len = match chunk_count
        .checked_mul(ENTRY_BYTES)
        .and_then(|n| n.checked_add(TRAILER_BYTES))
    {
        Some(n) if n + EOS_BYTES <= tail.len() => n,
        _ => return bad("chunk count overruns the stream"),
    };
    let entries_start = tail.len() - table_len;
    if tail[entries_start - EOS_BYTES..entries_start]
        .iter()
        .any(|&b| b != 0)
    {
        return bad("end-of-stream marker missing before the table");
    }
    let entry_bytes = &tail[entries_start..tail.len() - TRAILER_BYTES];
    let entries: Vec<ChunkEntry> = entry_bytes
        .chunks_exact(ENTRY_BYTES)
        .map(ChunkEntry::decode)
        .collect();
    let table = ChunkTable {
        entries,
        total_events,
        threads,
    };
    let computed = table.table_crc(entry_bytes);
    if computed != stored_crc {
        return bad("chunk-table checksum mismatch");
    }
    table.validate(stream_len)?;
    Ok(table)
}

/// Reads the chunk table from the trace file at `path` without decoding
/// any events: the header, trailer, and entries are read directly (three
/// small reads).
///
/// # Errors
///
/// I/O errors; [`TraceError::BadMagic`]/[`UnsupportedVersion`] for
/// foreign streams; [`TraceError::BadTable`] when the footer is
/// missing, truncated, corrupt, or inconsistent with the stream length.
///
/// [`UnsupportedVersion`]: TraceError::UnsupportedVersion
pub fn read_table(path: impl AsRef<Path>) -> Result<ChunkTable> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    read_header(&mut file)?;
    if len < (HEADER_BYTES + EOS_BYTES + TRAILER_BYTES) as u64 {
        return Err(TraceError::BadTable {
            reason: "stream too short for a chunk-table trailer",
        });
    }
    let mut trailer = [0u8; TRAILER_BYTES];
    file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    file.read_exact(&mut trailer)?;
    if trailer[20..24] != TABLE_MAGIC {
        return Err(TraceError::BadTable {
            reason: "chunk-table trailer magic missing",
        });
    }
    let chunk_count = u32::from_le_bytes(trailer[0..4].try_into().expect("4 bytes")) as u64;
    let tail_len = match chunk_count
        .checked_mul(ENTRY_BYTES as u64)
        .and_then(|n| n.checked_add((TRAILER_BYTES + EOS_BYTES) as u64))
    {
        Some(n) if n + HEADER_BYTES as u64 <= len => n,
        _ => {
            return Err(TraceError::BadTable {
                reason: "chunk count overruns the stream",
            })
        }
    };
    let mut tail = vec![0u8; tail_len as usize];
    file.seek(SeekFrom::End(-(tail_len as i64)))?;
    file.read_exact(&mut tail)?;
    parse_footer(&tail, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use clean_core::{ThreadId, TraceEvent};

    fn events(n: usize) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::Write {
                tid: ThreadId::new((i % 3) as u16),
                addr: 64 * i,
                size: 4,
            })
            .collect()
    }

    /// The footer of a complete in-memory stream.
    fn footer(stream: &[u8]) -> Result<ChunkTable> {
        parse_footer(&stream[HEADER_BYTES..], stream.len() as u64)
    }

    fn encode_chunked(events: &[TraceEvent], chunk_bytes: usize) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new())
            .unwrap()
            .chunk_bytes(chunk_bytes);
        for e in events {
            w.write_event(e).unwrap();
        }
        w.finish_into().unwrap().1
    }

    #[test]
    fn table_roundtrips_and_locates() {
        let evs = events(1000);
        let bytes = encode_chunked(&evs, 256);
        let table = footer(&bytes).unwrap();
        assert!(table.entries.len() > 2);
        assert_eq!(table.total_events, 1000);
        assert_eq!(table.threads, 3);
        for probe in [0u64, 1, 255, 256, 500, 999] {
            let chunk = table.locate(probe).unwrap();
            let e = &table.entries[chunk];
            assert!(e.first_event <= probe && probe < e.end_event());
        }
        assert_eq!(table.locate(1000), None);
        assert_eq!(table.locate(u64::MAX), None);
    }

    #[test]
    fn empty_trace_table_is_valid() {
        let w = TraceWriter::new(Vec::new()).unwrap();
        let (_, bytes) = w.finish_into().unwrap();
        let table = footer(&bytes).unwrap();
        assert!(table.entries.is_empty());
        assert_eq!(table.total_events, 0);
        assert_eq!(table.threads, 1);
    }

    #[test]
    fn every_footer_corruption_is_detected() {
        let evs = events(500);
        let bytes = encode_chunked(&evs, 512);
        let table = footer(&bytes).unwrap();
        let footer_len = table.entries.len() * ENTRY_BYTES + TRAILER_BYTES;
        let footer_start = bytes.len() - footer_len;
        for pos in footer_start..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    footer(&bad).is_err(),
                    "flip at byte {pos} bit {bit} accepted"
                );
            }
        }
        for cut in footer_start..bytes.len() {
            assert!(footer(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn file_table_matches_in_memory_table() {
        let mut path = std::env::temp_dir();
        path.push(format!("clean-trace-table-{}.cltr", std::process::id()));
        let evs = events(2000);
        let mut w = TraceWriter::create(&path).unwrap().chunk_bytes(512);
        for e in &evs {
            w.write_event(e).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mem = footer(&bytes).unwrap();
        let file = read_table(&path).unwrap();
        assert_eq!(mem, file);
        std::fs::remove_file(&path).ok();
    }
}
