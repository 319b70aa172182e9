//! Sharded verdict cache: memoizes `(digest, engine)` → replay verdict,
//! optionally made durable beside the trace store.
//!
//! Verdicts are immutable facts — a trace's digest pins its exact event
//! sequence, and every engine is a deterministic function of that
//! sequence — so entries never need invalidation and a repeat ANALYZE can
//! be answered without touching the replay engines at all. The map is
//! sharded by key hash so concurrent connection threads recording
//! verdicts for different traces do not serialize on one lock.
//!
//! # Durability
//!
//! A cache opened with [`VerdictCache::open`] appends every verdict to a
//! plain-text log (`verdicts.log` beside the store) and reloads it on
//! startup, so a warm restart serves every previously computed verdict
//! without replaying anything. The log format is line-oriented:
//!
//! ```text
//! CVERD v1
//! <digest hex> <engine> <events> <race count> [kind,addr,cur,prev ...]
//! ```
//!
//! Appends are atomic enough for the purpose: the trailing newline is
//! the last byte of every append, so on reload any tail line missing its
//! newline is discarded as torn (losing one verdict, never corrupting —
//! or worse, misparsing — the rest), and the log is compacted —
//! duplicates dropped, torn lines removed — every time it is opened. Hits served by reloaded entries
//! are counted separately ([`VerdictCache::persist_hits`]) so the
//! warm-restart path is observable in METRICS (`cache_persist_hits`).

use crate::policy::{kind_from_tag, kind_tag};
use clean_baselines::FoundRace;
use clean_core::ThreadId;
use clean_trace::{EngineKind, TraceDigest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log header line.
const LOG_HEADER: &str = "CVERD v1";

/// Cache key: which trace, replayed through which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// Content address of the trace.
    pub digest: TraceDigest,
    /// Detector engine.
    pub engine: EngineKind,
}

/// A finished analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Races found; empty means the trace is clean under this engine.
    pub races: Vec<FoundRace>,
    /// Events replayed.
    pub events: u64,
}

/// A cached verdict plus where it came from.
#[derive(Debug, Clone)]
struct CacheEntry {
    verdict: Verdict,
    /// True if this entry was reloaded from the persisted log rather
    /// than computed in this process lifetime.
    persisted: bool,
}

/// Fixed shard count; a small power of two is plenty for a
/// thread-per-connection server.
const SHARDS: usize = 16;

/// The sharded `(digest, engine)` → [`Verdict`] map.
#[derive(Debug)]
pub struct VerdictCache {
    shards: Vec<Mutex<HashMap<VerdictKey, CacheEntry>>>,
    /// Append handle for the durable log; `None` for a purely in-memory
    /// cache.
    log: Option<Mutex<fs::File>>,
    /// Hits served by entries reloaded from the persisted log.
    persist_hits: AtomicU64,
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders one log line (without the trailing newline).
fn log_line(key: &VerdictKey, verdict: &Verdict) -> String {
    let mut line = format!(
        "{} {} {} {}",
        key.digest,
        key.engine.name(),
        verdict.events,
        verdict.races.len()
    );
    for r in &verdict.races {
        line.push_str(&format!(
            " {},{:x},{},{}",
            kind_tag(r.kind),
            r.addr,
            r.current.raw(),
            r.previous.raw()
        ));
    }
    line
}

/// Parses one log line; `None` for torn or malformed lines.
fn parse_log_line(line: &str) -> Option<(VerdictKey, Verdict)> {
    let mut parts = line.split_ascii_whitespace();
    let digest: TraceDigest = parts.next()?.parse().ok()?;
    let engine = EngineKind::parse(parts.next()?)?;
    let events: u64 = parts.next()?.parse().ok()?;
    let count: usize = parts.next()?.parse().ok()?;
    let mut races = Vec::with_capacity(count);
    for _ in 0..count {
        let mut fields = parts.next()?.split(',');
        let kind = kind_from_tag(fields.next()?)?;
        let addr = usize::from_str_radix(fields.next()?, 16).ok()?;
        let current: u16 = fields.next()?.parse().ok()?;
        let previous: u16 = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        races.push(FoundRace {
            kind,
            addr,
            current: ThreadId::new(current),
            previous: ThreadId::new(previous),
        });
    }
    if parts.next().is_some() {
        return None;
    }
    Some((VerdictKey { digest, engine }, Verdict { races, events }))
}

impl VerdictCache {
    /// Creates an empty, purely in-memory cache.
    pub fn new() -> Self {
        VerdictCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            log: None,
            persist_hits: AtomicU64::new(0),
        }
    }

    /// Opens a durable cache backed by the append-only log at `path`:
    /// reloads every parseable entry (marking them persisted), compacts
    /// the log — duplicate keys and torn tail lines dropped — and keeps
    /// the file open for appends.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating or rewriting the log. A missing or
    /// unparseable log is not an error — it is simply empty.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let cache = VerdictCache::new();
        let mut loaded: Vec<(VerdictKey, Verdict)> = Vec::new();
        if let Ok(text) = fs::read_to_string(&path) {
            // Only newline-terminated lines are trusted: the newline is
            // the last byte of each append, so its absence marks a torn
            // write. A tail torn mid-token could otherwise still parse —
            // to a *wrong* verdict (e.g. a thread id `10` torn to `1`).
            let mut lines = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .map(|l| &l[..l.len() - 1]);
            if lines.next() == Some(LOG_HEADER) {
                for line in lines {
                    if let Some((key, verdict)) = parse_log_line(line) {
                        loaded.push((key, verdict));
                    }
                }
            }
        }

        // Compact: last write per key wins (they are identical facts
        // anyway), torn lines vanish. Atomic tmp+rename so a crash here
        // cannot lose the old log.
        let mut compacted: HashMap<VerdictKey, usize> = HashMap::new();
        for (i, (key, _)) in loaded.iter().enumerate() {
            compacted.insert(*key, i);
        }
        let mut text = String::with_capacity(32 + loaded.len() * 48);
        text.push_str(LOG_HEADER);
        text.push('\n');
        let mut keep: Vec<usize> = compacted.values().copied().collect();
        keep.sort_unstable();
        for &i in &keep {
            let (key, verdict) = &loaded[i];
            text.push_str(&log_line(key, verdict));
            text.push('\n');
        }
        let tmp = path.with_extension("log.tmp");
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, &path)?;

        for &i in &keep {
            let (key, verdict) = loaded[i].clone();
            cache.shard(&key).lock().insert(
                key,
                CacheEntry {
                    verdict,
                    persisted: true,
                },
            );
        }
        let log = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(VerdictCache {
            log: Some(Mutex::new(log)),
            ..cache
        })
    }

    fn shard(&self, key: &VerdictKey) -> &Mutex<HashMap<VerdictKey, CacheEntry>> {
        // The digest is already a high-quality 128-bit hash; fold in the
        // engine so the same trace under different engines spreads out.
        let h = (key.digest.0 as usize) ^ ((key.engine as usize) << 3);
        &self.shards[h % SHARDS]
    }

    /// Looks up a memoized verdict. A hit on an entry reloaded from the
    /// persisted log also bumps [`VerdictCache::persist_hits`].
    pub fn get(&self, key: &VerdictKey) -> Option<Verdict> {
        let entry = self.shard(key).lock().get(key).cloned()?;
        if entry.persisted {
            self.persist_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(entry.verdict)
    }

    /// Records a verdict, appending it to the durable log if there is
    /// one. Log append failures are swallowed: durability is an
    /// optimization, the in-memory entry is authoritative for this
    /// process lifetime.
    pub fn insert(&self, key: VerdictKey, verdict: Verdict) {
        let fresh = self
            .shard(&key)
            .lock()
            .insert(
                key,
                CacheEntry {
                    verdict: verdict.clone(),
                    persisted: false,
                },
            )
            .is_none();
        if fresh {
            if let Some(log) = &self.log {
                let mut line = log_line(&key, &verdict);
                line.push('\n');
                let mut f = log.lock();
                let _ = f.write_all(line.as_bytes());
                let _ = f.flush();
            }
        }
    }

    /// Hits served by entries reloaded from the persisted log.
    pub fn persist_hits(&self) -> u64 {
        self.persist_hits.load(Ordering::Relaxed)
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_baselines::FullRaceKind;

    #[test]
    fn insert_get_roundtrip_across_engines() {
        let cache = VerdictCache::new();
        let digest = TraceDigest(0xfeed_beef);
        for (i, engine) in EngineKind::ALL.into_iter().enumerate() {
            let key = VerdictKey { digest, engine };
            assert_eq!(cache.get(&key), None);
            let verdict = Verdict {
                races: vec![],
                events: i as u64,
            };
            cache.insert(key, verdict.clone());
            assert_eq!(cache.get(&key), Some(verdict));
        }
        assert_eq!(cache.len(), EngineKind::ALL.len());
        assert_eq!(cache.persist_hits(), 0, "nothing was reloaded");
    }

    #[test]
    fn distinct_digests_do_not_collide() {
        let cache = VerdictCache::new();
        for i in 0..100u64 {
            cache.insert(
                VerdictKey {
                    digest: TraceDigest(u128::from(i)),
                    engine: EngineKind::Clean,
                },
                Verdict {
                    races: vec![],
                    events: i,
                },
            );
        }
        assert_eq!(cache.len(), 100);
        for i in 0..100u64 {
            let got = cache
                .get(&VerdictKey {
                    digest: TraceDigest(u128::from(i)),
                    engine: EngineKind::Clean,
                })
                .unwrap();
            assert_eq!(got.events, i);
        }
    }

    fn sample_verdict(racy: bool) -> Verdict {
        Verdict {
            races: if racy {
                vec![
                    FoundRace {
                        kind: FullRaceKind::Waw,
                        addr: 0xdead_beef,
                        current: ThreadId::new(3),
                        previous: ThreadId::new(1),
                    },
                    FoundRace {
                        kind: FullRaceKind::War,
                        addr: 64,
                        current: ThreadId::new(0),
                        previous: ThreadId::new(2),
                    },
                ]
            } else {
                vec![]
            },
            events: 12_345,
        }
    }

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "clean-serve-cache-{tag}-{}/verdicts.log",
            std::process::id()
        ))
    }

    #[test]
    fn log_lines_roundtrip() {
        for racy in [false, true] {
            for engine in EngineKind::ALL {
                let key = VerdictKey {
                    digest: TraceDigest(0x0123_4567_89ab_cdef),
                    engine,
                };
                let verdict = sample_verdict(racy);
                let (k2, v2) = parse_log_line(&log_line(&key, &verdict)).unwrap();
                assert_eq!(k2, key);
                assert_eq!(v2, verdict);
            }
        }
        assert!(parse_log_line("garbage").is_none());
        assert!(parse_log_line("").is_none());
    }

    #[test]
    fn durable_cache_survives_reopen_and_counts_persist_hits() {
        let path = temp_log("reopen");
        let _ = fs::remove_dir_all(path.parent().unwrap());
        let racy_key = VerdictKey {
            digest: TraceDigest(1),
            engine: EngineKind::Clean,
        };
        let clean_key = VerdictKey {
            digest: TraceDigest(2),
            engine: EngineKind::FastTrack,
        };
        {
            let cache = VerdictCache::open(&path).unwrap();
            cache.insert(racy_key, sample_verdict(true));
            cache.insert(clean_key, sample_verdict(false));
            // Fresh entries do not count as persisted hits.
            cache.get(&racy_key).unwrap();
            assert_eq!(cache.persist_hits(), 0);
        }
        let cache = VerdictCache::open(&path).unwrap();
        assert_eq!(cache.len(), 2, "both verdicts reloaded");
        assert_eq!(cache.get(&racy_key), Some(sample_verdict(true)));
        assert_eq!(cache.get(&clean_key), Some(sample_verdict(false)));
        assert_eq!(cache.persist_hits(), 2, "reloaded hits are counted");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_and_duplicates_are_compacted_away() {
        let path = temp_log("compact");
        let _ = fs::remove_dir_all(path.parent().unwrap());
        let key = VerdictKey {
            digest: TraceDigest(9),
            engine: EngineKind::Clean,
        };
        {
            let cache = VerdictCache::open(&path).unwrap();
            cache.insert(key, sample_verdict(true));
        }
        // Duplicate the entry line and tear the tail.
        let mut text = fs::read_to_string(&path).unwrap();
        let entry = text.lines().nth(1).unwrap().to_string();
        text.push_str(&entry);
        text.push('\n');
        text.push_str(&entry[..entry.len() / 2]);
        fs::write(&path, &text).unwrap();

        let cache = VerdictCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1, "duplicates collapse, torn tail dropped");
        assert_eq!(cache.get(&key), Some(sample_verdict(true)));
        // The compacted file on disk has exactly header + one line.
        let lines: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], LOG_HEADER);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_log_is_empty_not_an_error() {
        let path = temp_log("missing");
        let _ = fs::remove_dir_all(path.parent().unwrap());
        let cache = VerdictCache::open(&path).unwrap();
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
