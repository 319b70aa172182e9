//! Content-addressed on-disk trace store with a size-bounded LRU.
//!
//! Each stored trace lives at `<root>/<digest:032x>.cltr`; the digest is
//! the chunk-size-independent [`clean_trace::digest_events`] identity, so
//! re-encodings of the same event sequence share one entry. A plain-text
//! index file (`<root>/index`) records recency:
//!
//! ```text
//! CSTORE v1
//! <digest hex> <bytes> <seq>
//! ...
//! ```
//!
//! `seq` is a monotonic access counter — the line with the smallest seq
//! is the least recently used entry and the first eviction victim when
//! the byte bound is exceeded. The index is rewritten atomically
//! (temp file + rename); recovery after a crash parses every valid line,
//! ignores a torn tail, and reconciles against the trace files actually
//! on disk, so a stale or truncated index can only cost recency
//! information, never stored traces.

use crate::protocol::error_code;
use clean_trace::{Digester, TraceDigest, TraceReader};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Index file name under the store root.
const INDEX_FILE: &str = "index";
/// Index header line.
const INDEX_HEADER: &str = "CSTORE v1";
/// Stored trace file extension.
const TRACE_EXT: &str = "cltr";

/// Why a submission was refused.
#[derive(Debug)]
pub enum StoreError {
    /// The submitted bytes are not a decodable `CLTR` trace.
    BadTrace(String),
    /// Filesystem failure.
    Io(io::Error),
}

impl StoreError {
    /// The protocol error code this maps to.
    pub fn code(&self) -> u8 {
        match self {
            StoreError::BadTrace(_) => error_code::BAD_TRACE,
            StoreError::Io(_) => error_code::INTERNAL,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadTrace(m) => write!(f, "invalid trace: {m}"),
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result of [`TraceStore::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredTrace {
    /// Content address of the trace.
    pub digest: TraceDigest,
    /// True if an identical trace was already resident.
    pub dedup: bool,
    /// Size of the resident encoding in bytes (the first-stored
    /// encoding wins under dedup).
    pub bytes: u64,
    /// Events in the trace.
    pub events: u64,
}

/// A resident trace as [`TraceStore::path_of`] resolved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredFile {
    /// Where the trace's bytes live.
    pub path: PathBuf,
    /// Which insert of the digest the path belongs to: a digest that is
    /// removed and stored again gets a later generation.
    pub generation: u64,
}

/// A point-in-time view of the store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces currently resident.
    pub traces: u64,
    /// Bytes currently resident.
    pub bytes: u64,
    /// Evictions since the store was opened.
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    seq: u64,
    /// The `seq` the entry was inserted with; recency refreshes leave it.
    generation: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<TraceDigest, Entry>,
    /// In-analysis digests that must not be evicted.
    pinned: HashMap<TraceDigest, usize>,
    next_seq: u64,
    evictions: u64,
}

impl Inner {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// The digest-addressed trace store.
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    /// Byte bound the LRU enforces; `u64::MAX` disables eviction.
    max_bytes: u64,
    inner: Mutex<Inner>,
}

fn trace_file_name(digest: TraceDigest) -> String {
    format!("{digest}.{TRACE_EXT}")
}

/// Parses one `<hex> <bytes> <seq>` index line.
fn parse_index_line(line: &str) -> Option<(TraceDigest, Entry)> {
    let mut parts = line.split_ascii_whitespace();
    let digest: TraceDigest = parts.next()?.parse().ok()?;
    let bytes: u64 = parts.next()?.parse().ok()?;
    let seq: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((
        digest,
        Entry {
            bytes,
            seq,
            generation: seq,
        },
    ))
}

impl TraceStore {
    /// Opens (or creates) a store rooted at `root`, holding at most
    /// `max_bytes` of trace data (`u64::MAX` = unbounded). Recovers the
    /// LRU index from disk, reconciling it with the trace files present.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the root or scanning it.
    pub fn open(root: impl Into<PathBuf>, max_bytes: u64) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;

        // Index entries: best effort, a torn tail or missing file is fine.
        let mut entries = HashMap::new();
        let mut max_seq = 0u64;
        if let Ok(text) = fs::read_to_string(root.join(INDEX_FILE)) {
            let mut lines = text.lines();
            if lines.next() == Some(INDEX_HEADER) {
                for line in lines {
                    if let Some((digest, entry)) = parse_index_line(line) {
                        max_seq = max_seq.max(entry.seq);
                        entries.insert(digest, entry);
                    }
                }
            }
        }

        // Ground truth: the trace files on disk. Files missing from the
        // index get fresh recency; index lines without a file are dropped.
        let mut on_disk = HashSet::new();
        for dirent in fs::read_dir(&root)? {
            let dirent = dirent?;
            let path = dirent.path();
            // Staged ingests from a crashed process are garbage.
            if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(TRACE_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(digest) = stem.parse::<TraceDigest>() else {
                continue;
            };
            let bytes = dirent.metadata()?.len();
            on_disk.insert(digest);
            match entries.get_mut(&digest) {
                // Trust the file size over a stale index line.
                Some(entry) => entry.bytes = bytes,
                None => {
                    max_seq += 1;
                    entries.insert(
                        digest,
                        Entry {
                            bytes,
                            seq: max_seq,
                            generation: max_seq,
                        },
                    );
                }
            }
        }
        entries.retain(|digest, _| on_disk.contains(digest));

        let store = TraceStore {
            root,
            max_bytes,
            inner: Mutex::new(Inner {
                entries,
                pinned: HashMap::new(),
                next_seq: max_seq + 1,
                evictions: 0,
            }),
        };
        {
            let inner = store.inner.lock();
            store.write_index(&inner)?;
        }
        Ok(store)
    }

    /// Validates `trace` as a `CLTR` stream, computes its content
    /// digest, and stores it (deduplicating on digest). May evict
    /// least-recently-used unpinned entries to respect the byte bound.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadTrace`] if the bytes do not decode;
    /// [`StoreError::Io`] on filesystem failure.
    pub fn insert(&self, trace: &[u8]) -> Result<StoredTrace, StoreError> {
        self.insert_stream(&mut &trace[..], trace.len() as u64, None)
    }

    /// Streams exactly `len` bytes from `src` into the store: the bytes
    /// are copied to a uniquely named temp file as they arrive, decoded
    /// *from disk* through the incremental [`Digester`] (the submission
    /// is never buffered in memory), and renamed to their content
    /// address — so a 64 MiB upload costs one file write, not one file
    /// write plus a 64 MiB allocation.
    ///
    /// `expected` is the self-verification hook for peer replication: if
    /// the decoded content digests to anything else, the bytes are
    /// discarded and the insert fails — a peer cannot poison the store
    /// with mislabeled content.
    ///
    /// The full `len` bytes are always consumed from `src` (unless I/O
    /// fails), so a protocol framing layer above survives a rejected
    /// body.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadTrace`] if the bytes do not decode or miss
    /// `expected`; [`StoreError::Io`] on filesystem failure or a short
    /// read from `src`.
    pub fn insert_stream(
        &self,
        src: &mut impl Read,
        len: u64,
        expected: Option<TraceDigest>,
    ) -> Result<StoredTrace, StoreError> {
        static INGEST_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".ingest-{}-{}.tmp",
            std::process::id(),
            INGEST_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let cleanup = |e: StoreError| {
            let _ = fs::remove_file(&tmp);
            e
        };

        let copied = {
            let mut file = io::BufWriter::new(fs::File::create(&tmp)?);
            let copied = io::copy(&mut src.take(len), &mut file).map_err(StoreError::Io);
            match copied.and_then(|n| file.flush().map(|()| n).map_err(StoreError::Io)) {
                Ok(n) => n,
                Err(e) => return Err(cleanup(e)),
            }
        };
        if copied < len {
            return Err(cleanup(StoreError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("submission truncated at {copied} of {len} bytes"),
            ))));
        }

        // Decode from the temp file: the digest doubles as proof the
        // stream is intact (framing, CRCs, event payloads).
        let (digest, events) = match Self::digest_tmp(&tmp) {
            Ok(pair) => pair,
            Err(e) => return Err(cleanup(e)),
        };
        if let Some(want) = expected {
            if digest != want {
                return Err(cleanup(StoreError::BadTrace(format!(
                    "content digests to {digest}, expected {want}"
                ))));
            }
        }

        let mut inner = self.inner.lock();
        let next = inner.next_seq;
        if let Some(entry) = inner.entries.get_mut(&digest) {
            entry.seq = next;
            let bytes = entry.bytes;
            inner.next_seq += 1;
            let _ = fs::remove_file(&tmp);
            self.write_index(&inner)?;
            return Ok(StoredTrace {
                digest,
                dedup: true,
                bytes,
                events,
            });
        }

        fs::rename(&tmp, self.trace_path(digest))?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.insert(
            digest,
            Entry {
                bytes: len,
                seq,
                generation: seq,
            },
        );
        self.evict_locked(&mut inner)?;
        self.write_index(&inner)?;
        Ok(StoredTrace {
            digest,
            dedup: false,
            bytes: len,
            events,
        })
    }

    /// Decodes a staged temp file, returning its content digest and
    /// event count.
    fn digest_tmp(path: &Path) -> Result<(TraceDigest, u64), StoreError> {
        let reader = TraceReader::open(path).map_err(|e| StoreError::BadTrace(e.to_string()))?;
        let mut digester = Digester::new();
        let mut events = 0u64;
        for ev in reader {
            let ev = ev.map_err(|e| StoreError::BadTrace(e.to_string()))?;
            digester.update(&ev);
            events += 1;
        }
        Ok((digester.finish(), events))
    }

    /// Returns the on-disk path of `digest` and refreshes its recency,
    /// or `None` if the store does not hold it.
    pub fn path_of(&self, digest: TraceDigest) -> Option<StoredFile> {
        let mut inner = self.inner.lock();
        let next = inner.next_seq;
        let entry = inner.entries.get_mut(&digest)?;
        entry.seq = next;
        let generation = entry.generation;
        inner.next_seq += 1;
        // Recency refreshes are not durable until the next insert —
        // losing them in a crash only perturbs eviction order.
        Some(StoredFile {
            path: self.trace_path(digest),
            generation,
        })
    }

    /// Whether the store currently holds `digest`.
    pub fn contains(&self, digest: TraceDigest) -> bool {
        self.inner.lock().entries.contains_key(&digest)
    }

    /// Marks `digest` in-analysis: pinned entries are never evicted.
    pub fn pin(&self, digest: TraceDigest) {
        *self.inner.lock().pinned.entry(digest).or_insert(0) += 1;
    }

    /// Releases one [`TraceStore::pin`].
    pub fn unpin(&self, digest: TraceDigest) {
        let mut inner = self.inner.lock();
        if let Some(count) = inner.pinned.get_mut(&digest) {
            *count -= 1;
            if *count == 0 {
                inner.pinned.remove(&digest);
            }
        }
    }

    /// Forgets `digest` and deletes its file if the store still holds
    /// the insert `generation` names: for a stored trace found damaged,
    /// so the next insert of the same content stores it afresh instead
    /// of deduplicating against the damage.
    ///
    /// The generation check is for two replays of one damaged trace:
    /// the first drops it, the client stores the intact bytes again, and
    /// the second, still reading the old unlinked file, fails after that.
    /// Its `remove` must not delete the fresh copy. Returns whether the
    /// entry was removed.
    ///
    /// # Errors
    ///
    /// Filesystem errors deleting the file or rewriting the index.
    pub fn remove(&self, digest: TraceDigest, generation: u64) -> io::Result<bool> {
        let mut inner = self.inner.lock();
        if inner.entries.get(&digest).map(|e| e.generation) != Some(generation) {
            return Ok(false);
        }
        inner.entries.remove(&digest);
        self.remove_trace_file(digest)?;
        self.write_index(&inner)?;
        Ok(true)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            traces: inner.entries.len() as u64,
            bytes: inner.total_bytes(),
            evictions: inner.evictions,
        }
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn trace_path(&self, digest: TraceDigest) -> PathBuf {
        self.root.join(trace_file_name(digest))
    }

    /// Deletes `digest`'s file; one already gone is fine.
    fn remove_trace_file(&self, digest: TraceDigest) -> io::Result<()> {
        match fs::remove_file(self.trace_path(digest)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Evicts least-recently-used unpinned entries until the byte bound
    /// holds (or only pinned entries remain).
    fn evict_locked(&self, inner: &mut Inner) -> io::Result<()> {
        while inner.total_bytes() > self.max_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(digest, _)| !inner.pinned.contains_key(digest))
                .min_by_key(|(_, entry)| entry.seq)
                .map(|(digest, _)| *digest);
            let Some(victim) = victim else {
                break; // everything left is pinned
            };
            inner.entries.remove(&victim);
            inner.evictions += 1;
            self.remove_trace_file(victim)?;
        }
        Ok(())
    }

    /// Rewrites the index atomically from the in-memory state.
    fn write_index(&self, inner: &Inner) -> io::Result<()> {
        let mut text = String::with_capacity(32 + inner.entries.len() * 64);
        text.push_str(INDEX_HEADER);
        text.push('\n');
        let mut lines: Vec<_> = inner.entries.iter().collect();
        lines.sort_by_key(|(_, entry)| entry.seq);
        for (digest, entry) in lines {
            text.push_str(&format!("{digest} {} {}\n", entry.bytes, entry.seq));
        }
        let tmp = self.root.join("index.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.root.join(INDEX_FILE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_core::{ThreadId, TraceEvent};
    use clean_trace::encode_trace;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clean-serve-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_events(seed: u64) -> Vec<TraceEvent> {
        // Two threads write disjoint, seed-dependent addresses: distinct
        // seeds yield distinct digests.
        (0..16)
            .map(|i| TraceEvent::Write {
                tid: ThreadId::new((i % 2) as u16),
                addr: ((seed as usize) << 12) + 64 + 8 * (i as usize),
                size: 8,
            })
            .collect()
    }

    fn sample_trace(seed: u64) -> Vec<u8> {
        encode_trace(&sample_events(seed)).unwrap()
    }

    #[test]
    fn insert_then_dedup() {
        let root = temp_root("dedup");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        let trace = sample_trace(1);
        let first = store.insert(&trace).unwrap();
        assert!(!first.dedup);
        let second = store.insert(&trace).unwrap();
        assert!(second.dedup);
        assert_eq!(second.digest, first.digest);
        assert_eq!(store.stats().traces, 1);
        assert!(store.path_of(first.digest).unwrap().path.is_file());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_deletes_only_the_generation_it_names() {
        let root = temp_root("remove");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        let trace = sample_trace(1);
        let digest = store.insert(&trace).unwrap().digest;
        let old = store.path_of(digest).unwrap();
        assert!(store.remove(digest, old.generation).unwrap());
        assert!(!store.contains(digest));
        assert!(!old.path.exists());
        // Stored again, the digest is a new generation: a late remove of
        // the old one leaves it.
        assert!(!store.insert(&trace).unwrap().dedup);
        let new = store.path_of(digest).unwrap();
        assert!(new.generation > old.generation);
        assert!(!store.remove(digest, old.generation).unwrap());
        assert!(store.contains(digest));
        assert!(new.path.is_file());
        assert!(store.remove(digest, new.generation).unwrap());
        assert!(!store.contains(digest));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        let root = temp_root("garbage");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        assert!(matches!(
            store.insert(b"not a trace"),
            Err(StoreError::BadTrace(_))
        ));
        // A truncated valid prefix must also be rejected.
        let trace = sample_trace(2);
        assert!(matches!(
            store.insert(&trace[..trace.len() - 4]),
            Err(StoreError::BadTrace(_))
        ));
        assert_eq!(store.stats().traces, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lru_eviction_under_small_cap() {
        let root = temp_root("lru");
        let traces: Vec<Vec<u8>> = (0..4).map(sample_trace).collect();
        let cap = traces.iter().map(|t| t.len() as u64).max().unwrap() * 2;
        let store = TraceStore::open(&root, cap).unwrap();
        let digests: Vec<TraceDigest> = traces
            .iter()
            .map(|t| store.insert(t).unwrap().digest)
            .collect();
        let stats = store.stats();
        assert!(stats.bytes <= cap, "{} > {cap}", stats.bytes);
        assert!(stats.evictions >= 2);
        // The newest trace always survives.
        assert!(store.contains(digests[3]));
        // Evicted files are really gone from disk.
        assert!(!store.trace_path(digests[0]).exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let root = temp_root("pin");
        let traces: Vec<Vec<u8>> = (0..3).map(sample_trace).collect();
        let cap = traces.iter().map(|t| t.len() as u64).max().unwrap();
        let store = TraceStore::open(&root, cap).unwrap();
        let first = store.insert(&traces[0]).unwrap().digest;
        store.pin(first);
        store.insert(&traces[1]).unwrap();
        store.insert(&traces[2]).unwrap();
        // Over budget is allowed while pins force it; the pinned trace
        // must still be resident.
        assert!(store.contains(first));
        store.unpin(first);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_recovery_after_truncation() {
        let root = temp_root("recover");
        let digests: Vec<TraceDigest>;
        {
            let store = TraceStore::open(&root, u64::MAX).unwrap();
            digests = (0..3)
                .map(|i| store.insert(&sample_trace(i)).unwrap().digest)
                .collect();
        }
        // Tear the index mid-line.
        let index = root.join(INDEX_FILE);
        let text = fs::read_to_string(&index).unwrap();
        fs::write(&index, &text[..text.len() - 7]).unwrap();

        let store = TraceStore::open(&root, u64::MAX).unwrap();
        let stats = store.stats();
        assert_eq!(stats.traces, 3, "all traces recovered from disk scan");
        for d in &digests {
            assert!(store.contains(*d));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_recovery_with_missing_index() {
        let root = temp_root("noindex");
        let digest;
        {
            let store = TraceStore::open(&root, u64::MAX).unwrap();
            digest = store.insert(&sample_trace(9)).unwrap().digest;
        }
        fs::remove_file(root.join(INDEX_FILE)).unwrap();
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        assert!(store.contains(digest));
        assert_eq!(store.stats().traces, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    /// No staged `.tmp` ingest files may outlive an insert, good or bad.
    fn assert_no_tmp_left(root: &Path) {
        for dirent in fs::read_dir(root).unwrap() {
            let path = dirent.unwrap().path();
            assert_ne!(
                path.extension().and_then(|e| e.to_str()),
                Some("tmp"),
                "leftover staged file {path:?}"
            );
        }
    }

    #[test]
    fn insert_stream_matches_buffered_insert() {
        let root = temp_root("stream");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        let trace = sample_trace(21);
        let streamed = store
            .insert_stream(&mut &trace[..], trace.len() as u64, None)
            .unwrap();
        assert!(!streamed.dedup);
        assert_eq!(streamed.digest, digest_of(&trace));
        assert_eq!(streamed.bytes, trace.len() as u64);
        // The buffered path is the same path: it dedups.
        let buffered = store.insert(&trace).unwrap();
        assert!(buffered.dedup);
        assert_eq!(buffered.digest, streamed.digest);
        assert_no_tmp_left(&root);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn insert_stream_rejects_garbage_and_short_reads_without_litter() {
        let root = temp_root("streambad");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        // Garbage bytes: BadTrace, temp file cleaned up.
        let garbage = b"definitely not CLTR".to_vec();
        assert!(matches!(
            store.insert_stream(&mut &garbage[..], garbage.len() as u64, None),
            Err(StoreError::BadTrace(_))
        ));
        // Source shorter than the declared length: Io, cleaned up.
        let trace = sample_trace(22);
        assert!(matches!(
            store.insert_stream(&mut &trace[..8], trace.len() as u64, None),
            Err(StoreError::Io(_))
        ));
        // Wrong expected digest (a lying peer): BadTrace, cleaned up.
        assert!(matches!(
            store.insert_stream(
                &mut &trace[..],
                trace.len() as u64,
                Some(TraceDigest(0x1234)),
            ),
            Err(StoreError::BadTrace(_))
        ));
        assert_eq!(store.stats().traces, 0);
        assert_no_tmp_left(&root);
        // The right expected digest passes.
        let stored = store
            .insert_stream(&mut &trace[..], trace.len() as u64, Some(digest_of(&trace)))
            .unwrap();
        assert_eq!(stored.digest, digest_of(&trace));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pin_of_absent_digest_protects_a_subsequent_insert() {
        // The peer-fetch ordering: pin first, then fetch + insert, so
        // the freshly fetched trace can never be evicted before the
        // analysis that wanted it runs.
        let root = temp_root("pinabsent");
        let traces: Vec<Vec<u8>> = (0..4).map(sample_trace).collect();
        let cap = traces.iter().map(|t| t.len() as u64).max().unwrap();
        let store = TraceStore::open(&root, cap).unwrap();
        let fetched = digest_of(&traces[0]);
        store.pin(fetched);
        store.insert(&traces[0]).unwrap();
        // Heavy churn: everything unpinned gets evicted, the pinned
        // fetch target survives.
        for t in &traces[1..] {
            store.insert(t).unwrap();
        }
        assert!(store.contains(fetched), "pinned fetch target evicted");
        store.unpin(fetched);
        // Once unpinned it is fair game again.
        store.insert(&traces[1]).unwrap();
        store.insert(&traces[2]).unwrap();
        assert!(!store.contains(fetched), "unpinned entry must be evictable");
        fs::remove_dir_all(&root).unwrap();
    }

    fn digest_of(trace: &[u8]) -> TraceDigest {
        let reader = TraceReader::new(trace).unwrap();
        let mut d = Digester::new();
        for ev in reader {
            d.update(&ev.unwrap());
        }
        d.finish()
    }

    #[test]
    fn digest_is_identical_to_offline_digest() {
        let root = temp_root("digestmatch");
        let store = TraceStore::open(&root, u64::MAX).unwrap();
        let events = sample_events(3);
        let stored = store.insert(&encode_trace(&events).unwrap()).unwrap();
        assert_eq!(stored.digest, clean_trace::digest_events(&events));
        assert_eq!(stored.events, events.len() as u64);
        fs::remove_dir_all(&root).unwrap();
    }
}
