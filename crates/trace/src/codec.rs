//! The compact binary event codec of the `CLTR` format (version 2:
//! chunk-framed events followed by a chunk table).
//!
//! Events serialize as a one-byte tag followed by LEB128 varints; memory
//! addresses are delta-encoded against the *same thread's* previous
//! access (threads walk memory locally, so per-thread deltas are small
//! even in interleaved streams) and zigzag-mapped so negative strides
//! stay short. See `DESIGN.md` ("Binary trace format") for the full
//! layout specification. Encoder and decoder state reset at chunk
//! boundaries, so every chunk decodes independently.

use clean_core::{ThreadId, TraceEvent};

/// File magic: the first four bytes of every trace stream.
pub const MAGIC: [u8; 4] = *b"CLTR";

/// The format version, stored in the fifth byte of the stream: the
/// only one read or written. Every stream carries a chunk-offset table
/// after its end-of-stream marker (see [`table`](crate::table)).
pub const FORMAT_VERSION: u8 = 2;

/// Tag-byte kind values (bits 0..=2).
const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_ACQUIRE: u8 = 2;
const KIND_RELEASE: u8 = 3;
const KIND_FORK: u8 = 4;
const KIND_JOIN: u8 = 5;

/// Tag bit 5: the access width follows as an explicit varint (set when
/// the width is not one of the four common classes).
const FLAG_EXPLICIT_SIZE: u8 = 1 << 5;

/// Common access widths, indexed by tag bits 3..=4.
const SIZE_CLASSES: [usize; 4] = [1, 2, 4, 8];

/// Appends `v` as an unsigned LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `input`.
pub fn read_uvarint(input: &mut &[u8]) -> Result<u64, &'static str> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or("varint runs past end of payload")?;
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err("varint overflows 64 bits");
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint overflows 64 bits");
        }
    }
}

/// Zigzag-maps a signed value so small magnitudes encode short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-8: eight
/// table lookups fold each 8-byte word, one per byte for the tail.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the
/// bytewise entry for `b` carried through `k` more zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Per-thread last-address table for delta encoding. Shared by the
/// encoder and decoder: both must evolve it identically.
#[derive(Debug, Default, Clone)]
struct DeltaState {
    last_addr: Vec<u64>,
}

impl DeltaState {
    /// Returns the previous address for `tid` and records `addr`.
    fn exchange(&mut self, tid: u16, addr: u64) -> u64 {
        let idx = usize::from(tid);
        if idx >= self.last_addr.len() {
            self.last_addr.resize(idx + 1, 0);
        }
        std::mem::replace(&mut self.last_addr[idx], addr)
    }

    fn reset(&mut self) {
        self.last_addr.clear();
    }
}

/// Largest memory access, in bytes, the format holds: 16 MiB, sixteen
/// times the runtime's default heap. The offline engines keep per-byte
/// state, so an event's size is work and memory a reader commits to on
/// the word of whoever wrote the file; the bound caps what one event can
/// ask for. (It does not cap a trace's footprint: many events still add
/// up.)
pub const MAX_ACCESS_BYTES: usize = 1 << 24;

/// The one validity rule both directions enforce on a memory event: it
/// covers between one and [`MAX_ACCESS_BYTES`] bytes and does not wrap
/// the address space. Replay clips accesses to address granules, so a
/// range that breaks the rule has no meaning there — and only a damaged
/// or crafted stream holds one.
fn check_access(addr: usize, size: usize) -> Result<(), &'static str> {
    if size == 0 {
        return Err("zero-size memory access");
    }
    if size > MAX_ACCESS_BYTES {
        return Err("memory access larger than MAX_ACCESS_BYTES");
    }
    if addr.checked_add(size).is_none() {
        return Err("memory access wraps the address space");
    }
    Ok(())
}

/// Streaming event encoder (one chunk's worth of state).
#[derive(Debug, Default)]
pub struct Encoder {
    delta: DeltaState,
}

impl Encoder {
    /// Creates an encoder with fresh delta state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all inter-event state (start of a new chunk).
    pub fn reset(&mut self) {
        self.delta.reset();
    }

    /// Appends the encoding of `event` to `out`.
    ///
    /// # Errors
    ///
    /// Refuses a memory event of size zero, of more than
    /// [`MAX_ACCESS_BYTES`], or whose byte range wraps the address space
    /// (the decoder rejects all three); nothing is appended.
    pub fn encode(&mut self, event: &TraceEvent, out: &mut Vec<u8>) -> Result<(), &'static str> {
        match *event {
            TraceEvent::Read { tid, addr, size } => {
                self.encode_memory(KIND_READ, tid, addr, size, out)?
            }
            TraceEvent::Write { tid, addr, size } => {
                self.encode_memory(KIND_WRITE, tid, addr, size, out)?
            }
            TraceEvent::Acquire { tid, lock } => {
                out.push(KIND_ACQUIRE);
                write_uvarint(out, u64::from(tid.raw()));
                write_uvarint(out, u64::from(lock));
            }
            TraceEvent::Release { tid, lock } => {
                out.push(KIND_RELEASE);
                write_uvarint(out, u64::from(tid.raw()));
                write_uvarint(out, u64::from(lock));
            }
            TraceEvent::Fork { parent, child } => {
                out.push(KIND_FORK);
                write_uvarint(out, u64::from(parent.raw()));
                write_uvarint(out, u64::from(child.raw()));
            }
            TraceEvent::Join { parent, child } => {
                out.push(KIND_JOIN);
                write_uvarint(out, u64::from(parent.raw()));
                write_uvarint(out, u64::from(child.raw()));
            }
        }
        Ok(())
    }

    fn encode_memory(
        &mut self,
        kind: u8,
        tid: ThreadId,
        addr: usize,
        size: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), &'static str> {
        check_access(addr, size)?;
        let mut tag = kind;
        let explicit = match SIZE_CLASSES.iter().position(|&s| s == size) {
            Some(class) => {
                tag |= (class as u8) << 3;
                false
            }
            None => {
                tag |= FLAG_EXPLICIT_SIZE;
                true
            }
        };
        out.push(tag);
        write_uvarint(out, u64::from(tid.raw()));
        let prev = self.delta.exchange(tid.raw(), addr as u64);
        let delta = (addr as u64 as i64).wrapping_sub(prev as i64);
        write_uvarint(out, zigzag(delta));
        if explicit {
            write_uvarint(out, size as u64);
        }
        Ok(())
    }
}

/// Streaming event decoder (one chunk's worth of state).
#[derive(Debug, Default)]
pub struct Decoder {
    delta: DeltaState,
}

impl Decoder {
    /// Creates a decoder with fresh delta state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all inter-event state (start of a new chunk).
    pub fn reset(&mut self) {
        self.delta.reset();
    }

    /// Decodes one event, advancing `input`.
    pub fn decode(&mut self, input: &mut &[u8]) -> Result<TraceEvent, &'static str> {
        let (&tag, rest) = input.split_first().ok_or("payload ends before event tag")?;
        *input = rest;
        let kind = tag & 0x07;
        if tag & 0xc0 != 0 {
            return Err("reserved tag bits set");
        }
        let tid = read_tid(input)?;
        match kind {
            KIND_READ | KIND_WRITE => {
                let delta = unzigzag(read_uvarint(input)?);
                let prev = self.delta.exchange(tid.raw(), 0);
                let addr = (prev as i64).wrapping_add(delta) as u64;
                self.delta.exchange(tid.raw(), addr);
                let size = if tag & FLAG_EXPLICIT_SIZE != 0 {
                    let s = read_uvarint(input)?;
                    usize::try_from(s).map_err(|_| "access size overflows usize")?
                } else {
                    SIZE_CLASSES[usize::from((tag >> 3) & 0x03)]
                };
                let addr = usize::try_from(addr).map_err(|_| "address overflows usize")?;
                check_access(addr, size)?;
                Ok(if kind == KIND_READ {
                    TraceEvent::Read { tid, addr, size }
                } else {
                    TraceEvent::Write { tid, addr, size }
                })
            }
            KIND_ACQUIRE | KIND_RELEASE => {
                if tag & !0x07 != 0 {
                    return Err("size bits set on sync event");
                }
                let lock = read_uvarint(input)?;
                let lock = u32::try_from(lock).map_err(|_| "lock id overflows 32 bits")?;
                Ok(if kind == KIND_ACQUIRE {
                    TraceEvent::Acquire { tid, lock }
                } else {
                    TraceEvent::Release { tid, lock }
                })
            }
            KIND_FORK | KIND_JOIN => {
                if tag & !0x07 != 0 {
                    return Err("size bits set on thread event");
                }
                let child = read_tid(input)?;
                Ok(if kind == KIND_FORK {
                    TraceEvent::Fork { parent: tid, child }
                } else {
                    TraceEvent::Join { parent: tid, child }
                })
            }
            _ => Err("unknown event kind"),
        }
    }
}

fn read_tid(input: &mut &[u8]) -> Result<ThreadId, &'static str> {
    let raw = read_uvarint(input)?;
    let raw = u16::try_from(raw).map_err(|_| "thread id overflows 16 bits")?;
    Ok(ThreadId::new(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u16) -> ThreadId {
        ThreadId::new(i)
    }

    fn roundtrip(events: &[TraceEvent]) -> Vec<TraceEvent> {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for e in events {
            enc.encode(e, &mut buf).unwrap();
        }
        let mut dec = Decoder::new();
        let mut input = &buf[..];
        let mut out = Vec::new();
        while !input.is_empty() {
            out.push(dec.decode(&mut input).unwrap());
        }
        out
    }

    #[test]
    fn varint_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut input = &buf[..];
            assert_eq!(read_uvarint(&mut input).unwrap(), v);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes: more than 64 bits of payload.
        let buf = [0xff; 11];
        let mut input = &buf[..];
        assert!(read_uvarint(&mut input).is_err());
    }

    #[test]
    fn all_event_kinds_roundtrip() {
        let events = vec![
            TraceEvent::Read {
                tid: t(0),
                addr: 0x1000,
                size: 4,
            },
            TraceEvent::Write {
                tid: t(1),
                addr: 0xdead_beef,
                size: 8,
            },
            TraceEvent::Read {
                tid: t(0),
                addr: 0x0ffc,
                size: 1,
            }, // negative delta
            TraceEvent::Write {
                tid: t(2),
                addr: 7,
                size: 3,
            }, // explicit size
            TraceEvent::Acquire { tid: t(3), lock: 0 },
            TraceEvent::Release {
                tid: t(3),
                lock: u32::MAX,
            },
            TraceEvent::Fork {
                parent: t(0),
                child: t(9),
            },
            TraceEvent::Join {
                parent: t(0),
                child: t(9),
            },
        ];
        assert_eq!(roundtrip(&events), events);
    }

    #[test]
    fn deltas_are_per_thread() {
        // Interleaved threads with local strides must not perturb each
        // other's deltas: every encoded memory event stays small.
        let mut events = Vec::new();
        for i in 0..64usize {
            events.push(TraceEvent::Write {
                tid: t(0),
                addr: 0x10_0000 + i * 4,
                size: 4,
            });
            events.push(TraceEvent::Write {
                tid: t(1),
                addr: 0x90_0000 + i * 8,
                size: 8,
            });
        }
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        for e in &events {
            enc.encode(e, &mut buf).unwrap();
        }
        assert_eq!(roundtrip(&events), events);
        // First event per thread pays for the absolute address; the rest
        // are tag + tid + 1-byte delta = 3 bytes.
        assert!(
            buf.len() <= 6 + 6 + 126 * 3,
            "encoding too large: {}",
            buf.len()
        );
    }

    #[test]
    fn truncated_event_rejected() {
        let mut enc = Encoder::new();
        let mut buf = Vec::new();
        enc.encode(
            &TraceEvent::Write {
                tid: t(5),
                addr: 0x123456,
                size: 4,
            },
            &mut buf,
        )
        .unwrap();
        for cut in 0..buf.len() {
            let mut dec = Decoder::new();
            let mut input = &buf[..cut];
            assert!(dec.decode(&mut input).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_tags_rejected() {
        for tag in [
            0x06u8,
            0x07,
            0x40,
            0x80,
            KIND_ACQUIRE | 1 << 3,
            KIND_FORK | FLAG_EXPLICIT_SIZE,
        ] {
            let buf = [tag, 0, 0, 0];
            let mut dec = Decoder::new();
            let mut input = &buf[..];
            assert!(dec.decode(&mut input).is_err(), "tag {tag:#04x} accepted");
        }
    }

    #[test]
    fn empty_oversized_and_wrapping_accesses_are_refused_both_ways() {
        // Each event beside the bytes a crafted stream would carry for
        // it: an explicit-size write of 0 bytes at 0, one of a byte more
        // than the bound (varint 2^24 + 1), and an 8-byte read whose
        // zigzag delta 7 (= -4) puts it at `usize::MAX - 3`.
        let bad: [(TraceEvent, &[u8]); 3] = [
            (
                TraceEvent::Write {
                    tid: t(0),
                    addr: 0,
                    size: 0,
                },
                &[KIND_WRITE | FLAG_EXPLICIT_SIZE, 0, 0, 0],
            ),
            (
                TraceEvent::Write {
                    tid: t(0),
                    addr: 0,
                    size: MAX_ACCESS_BYTES + 1,
                },
                &[
                    KIND_WRITE | FLAG_EXPLICIT_SIZE,
                    0,
                    0,
                    0x81,
                    0x80,
                    0x80,
                    0x08,
                ],
            ),
            (
                TraceEvent::Read {
                    tid: t(1),
                    addr: usize::MAX - 3,
                    size: 8,
                },
                &[KIND_READ | 3 << 3, 1, 7],
            ),
        ];
        for (ev, mut bytes) in bad {
            let mut buf = Vec::new();
            assert!(Encoder::new().encode(&ev, &mut buf).is_err(), "{ev:?}");
            assert!(buf.is_empty(), "a refused event must append nothing");
            assert!(Decoder::new().decode(&mut bytes).is_err(), "{ev:?}");
        }
        // An access that ends exactly at the top still round-trips, and
        // so does one of exactly the bound.
        let top = TraceEvent::Write {
            tid: t(0),
            addr: usize::MAX - 8,
            size: 8,
        };
        let largest = TraceEvent::Read {
            tid: t(1),
            addr: 4096,
            size: MAX_ACCESS_BYTES,
        };
        assert_eq!(roundtrip(&[top, largest]), [top, largest]);
    }

    /// The one-table bytewise CRC the slicing-by-8 loop must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        // Every length through the word loop and the remainder tail, at
        // every alignment of the slice.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..108)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_known_answer() {
        // IEEE CRC-32 of "123456789" is the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
