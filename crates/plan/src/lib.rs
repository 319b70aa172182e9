//! # clean-plan
//!
//! Ahead-of-time check-elision planning for the CLEAN race detector —
//! the library-level analogue of "Compiling Away the Overhead of Race
//! Detection": a static pass over a kernel's *access pattern* (observed
//! from a recorded trace, or described by workload metadata) emits a
//! versioned [`CheckPlan`] that tells the detector, per address range,
//! how to treat checks:
//!
//! * **elide** — the range is provably thread-private for one owner
//!   thread; the owner's accesses skip instrumentation entirely. Every
//!   elide entry carries a soundness [`Witness`] (owner, observed
//!   access count, foreign access count) and [`CheckPlan::validate`]
//!   rejects any plan whose witness admits a single foreign access —
//!   an unsound elision is a load-time [`PlanError::UnsoundElide`],
//!   never a silently skipped check.
//! * **coalesce** — the range is swept by strided writers that the
//!   detector's direct-mapped `addr >> 3` SFR filter slots keep
//!   evicting; the detector gives these ranges growable *range* filter
//!   entries that extend with the stride and answer whole re-sweeps.
//!
//! Every byte outside a planned range is checked as usual.
//!
//! The plan is serialized as a line-oriented `CPLN v1` text file:
//!
//! ```text
//! CPLN v1
//! # comments run to end of line; addresses are hex, ranges half-open
//! elide 1000..2000 owner=2 observed=4096 foreign=0
//! coalesce 8000..c000
//! ```
//!
//! [`CompiledPlan`] is the immutable, binary-searchable form the
//! detector consults on its check fast path; [`PlanObserver`] derives a
//! plan (plus [`Coverage`] statistics) from a stream of observed
//! accesses — e.g. a recorded CLTR trace replayed through
//! `clean-analyze plan`.
//!
//! Elision soundness: a witness with `foreign == 0` proves the range
//! was private *in the observed execution*. Under CLEAN's deterministic
//! execution model the same program/input replays the same access
//! interleaving, so observed-private is private in every replay; the
//! compiled plan still guards dynamically (only the witness owner
//! elides — any other thread falls through to the full check) so a
//! plan applied to the wrong workload degrades to extra checks, not to
//! missed ones on foreign threads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod derive;

pub use compile::{CompiledPlan, PlanDecision};
pub use derive::{Coverage, PlanObserver, DEFAULT_GRANULE};

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// First line of every plan file.
pub const PLAN_HEADER: &str = "CPLN v1";

/// Default plan file extension.
pub const PLAN_EXT: &str = "cpln";

/// Relative mismatch above which a stamped plan counts as stale against
/// a freshly derived footprint (see [`CheckPlan::audit_freshness`]).
pub const STALE_THRESHOLD: f64 = 0.5;

/// The derivation footprint stamped into a plan file: how big the
/// observed execution was when the plan was derived. A plan applied to
/// an execution whose footprint diverges wildly from the stamp is
/// *suspect* — still sound (elision is dynamically guarded per owner
/// thread), but likely planning for the wrong workload, so its elide and
/// coalesce ranges degrade to dead weight. [`CheckPlan::audit_freshness`]
/// turns that divergence into a loud warning and a `plan_stale` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanProfile {
    /// Derivation granule in bytes.
    pub granule: usize,
    /// Distinct granules touched by the observed execution.
    pub granules: u64,
    /// Observed access events folded into the derivation.
    pub events: u64,
    /// Distinct threads observed accessing data.
    pub threads: u32,
}

impl PlanProfile {
    /// Canonical single-line rendering (no newline), as stored in the
    /// `CPLN v1` text after the header:
    /// `profile granule=64 granules=128 events=4096 threads=2`.
    pub fn render(&self) -> String {
        format!(
            "profile granule={} granules={} events={} threads={}",
            self.granule, self.granules, self.events, self.threads
        )
    }

    /// Worst relative mismatch between this stamp and `current` across
    /// the footprint quantities, in `[0, 1]`. A granule difference is
    /// reported as a full mismatch (1.0): profiles derived at different
    /// granules are not comparable granule-for-granule.
    pub fn mismatch(&self, current: &PlanProfile) -> f64 {
        if self.granule != current.granule {
            return 1.0;
        }
        fn rel(a: u64, b: u64) -> f64 {
            let hi = a.max(b);
            if hi == 0 {
                return 0.0;
            }
            (hi - a.min(b)) as f64 / hi as f64
        }
        rel(self.granules, current.granules)
            .max(rel(self.events, current.events))
            .max(rel(u64::from(self.threads), u64::from(current.threads)))
    }
}

/// What the detector should do with checks inside a plan range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanAction {
    /// Skip instrumentation entirely for the witness owner thread.
    Elide,
    /// Use a growable range entry in the SFR write filter so strided
    /// sweeps stop thrashing the direct-mapped slots.
    Coalesce,
}

impl PlanAction {
    /// Canonical lowercase tag used in the text format.
    pub fn tag(self) -> &'static str {
        match self {
            PlanAction::Elide => "elide",
            PlanAction::Coalesce => "coalesce",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "elide" => Some(PlanAction::Elide),
            "coalesce" => Some(PlanAction::Coalesce),
            _ => None,
        }
    }
}

/// The soundness evidence behind an [`PlanAction::Elide`] entry.
///
/// Recorded by whatever derived the plan; checked by
/// [`CheckPlan::validate`]. `foreign` must be zero — a range with even
/// one access by a thread other than `owner` is not thread-private and
/// must keep its checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Witness {
    /// The single thread observed accessing the range.
    pub owner: u32,
    /// Total accesses observed inside the range (must be nonzero: an
    /// unobserved range has no evidence at all).
    pub observed: u64,
    /// Accesses by any thread other than `owner` (must be zero).
    pub foreign: u64,
}

/// One planned address range. Ranges are half-open byte ranges
/// `[lo, hi)` in the detector's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanEntry {
    /// Inclusive low end of the range.
    pub lo: usize,
    /// Exclusive high end of the range.
    pub hi: usize,
    /// What to do with checks in the range.
    pub action: PlanAction,
    /// Elision evidence; required (and validated) for `Elide`, ignored
    /// otherwise.
    pub witness: Option<Witness>,
}

impl PlanEntry {
    /// Canonical single-line rendering (no comment, no newline).
    pub fn render(&self) -> String {
        match (self.action, self.witness) {
            (PlanAction::Elide, Some(w)) => format!(
                "elide {:x}..{:x} owner={} observed={} foreign={}",
                self.lo, self.hi, w.owner, w.observed, w.foreign
            ),
            (action, _) => format!("{} {:x}..{:x}", action.tag(), self.lo, self.hi),
        }
    }
}

/// Why a plan failed to parse, validate or load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The text did not parse; names the 1-based line.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A range with `lo >= hi`.
    EmptyRange {
        /// Inclusive low end of the offending range.
        lo: usize,
        /// Exclusive high end of the offending range.
        hi: usize,
    },
    /// Two entries overlap; a byte must have exactly one planned action.
    Overlap {
        /// Rendering of the first entry.
        first: String,
        /// Rendering of the overlapping entry.
        second: String,
    },
    /// An elide entry whose witness does not prove thread-privacy.
    /// This is the load-time gate: an unsound elision is rejected
    /// here, never silently applied.
    UnsoundElide {
        /// Inclusive low end of the rejected range.
        lo: usize,
        /// Exclusive high end of the rejected range.
        hi: usize,
        /// Human-readable reason (missing witness, foreign accesses,
        /// zero observations).
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse { line, message } => write!(f, "plan line {line}: {message}"),
            PlanError::EmptyRange { lo, hi } => write!(f, "empty plan range {lo:x}..{hi:x}"),
            PlanError::Overlap { first, second } => {
                write!(f, "overlapping plan entries: {first:?} and {second:?}")
            }
            PlanError::UnsoundElide { lo, hi, reason } => {
                write!(f, "unsound elide {lo:x}..{hi:x}: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

fn perr(line: usize, message: impl Into<String>) -> PlanError {
    PlanError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_hex(s: &str, line: usize, what: &str) -> Result<usize, PlanError> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    usize::from_str_radix(s, 16).map_err(|_| perr(line, format!("bad {what} address {s:?}")))
}

/// Parses `key=<n>` into the field's own type, so a number too large
/// for it is an error rather than a truncation.
fn parse_kv<T: std::str::FromStr>(token: &str, key: &str, line: usize) -> Result<T, PlanError>
where
    T::Err: fmt::Display,
{
    let v = token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| perr(line, format!("expected {key}=<n>, got {token:?}")))?;
    v.parse()
        .map_err(|e| perr(line, format!("bad {key} value {v:?}: {e}")))
}

fn parse_entry(tokens: &[&str], line: usize) -> Result<PlanEntry, PlanError> {
    let [tag, range, rest @ ..] = tokens else {
        return Err(perr(line, "plan entry needs an action and a range"));
    };
    let action = PlanAction::from_tag(tag)
        .ok_or_else(|| perr(line, format!("unknown plan action {tag:?}")))?;
    let (lo, hi) = range
        .split_once("..")
        .ok_or_else(|| perr(line, format!("range must be lo..hi, got {range:?}")))?;
    let lo = parse_hex(lo, line, "low")?;
    let hi = parse_hex(hi, line, "high")?;
    let witness = match (action, rest) {
        (PlanAction::Elide, [owner, observed, foreign]) => Some(Witness {
            owner: parse_kv(owner, "owner", line)?,
            observed: parse_kv(observed, "observed", line)?,
            foreign: parse_kv(foreign, "foreign", line)?,
        }),
        (PlanAction::Elide, _) => {
            return Err(perr(
                line,
                "elide needs owner=<tid> observed=<n> foreign=<n>",
            ))
        }
        (_, []) => None,
        (_, extra) => return Err(perr(line, format!("unexpected tokens {extra:?}"))),
    };
    Ok(PlanEntry {
        lo,
        hi,
        action,
        witness,
    })
}

/// A versioned static check plan: a set of non-overlapping address
/// ranges, each with one [`PlanAction`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckPlan {
    /// The planned ranges, in file order.
    pub entries: Vec<PlanEntry>,
    /// Derivation footprint stamp, if the deriver recorded one. Absent
    /// on hand-written or pre-stamp plan files; never required.
    pub profile: Option<PlanProfile>,
}

impl CheckPlan {
    /// The empty plan: every check runs unmodified.
    pub fn empty() -> Self {
        CheckPlan::default()
    }

    /// Parses `CPLN v1` text. Whitespace-only input is the empty plan;
    /// anything else must start with the header line. Parsing includes
    /// full validation — an unsound plan never parses.
    ///
    /// # Errors
    ///
    /// [`PlanError`] naming the first offending line or entry.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        if text.trim().is_empty() {
            return Ok(Self::empty());
        }
        let mut entries = Vec::new();
        let mut profile = None;
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if !saw_header {
                if line != PLAN_HEADER {
                    return Err(perr(
                        line_no,
                        format!("expected {PLAN_HEADER:?} header, got {line:?}"),
                    ));
                }
                saw_header = true;
                continue;
            }
            let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
            if tokens.first() == Some(&"profile") {
                if profile.is_some() {
                    return Err(perr(line_no, "duplicate profile directive"));
                }
                let [_, granule, granules, events, threads] = tokens[..] else {
                    return Err(perr(
                        line_no,
                        "profile needs granule=<n> granules=<n> events=<n> threads=<n>",
                    ));
                };
                profile = Some(PlanProfile {
                    granule: parse_kv(granule, "granule", line_no)?,
                    granules: parse_kv(granules, "granules", line_no)?,
                    events: parse_kv(events, "events", line_no)?,
                    threads: parse_kv(threads, "threads", line_no)?,
                });
                continue;
            }
            entries.push(parse_entry(&tokens, line_no)?);
        }
        let plan = CheckPlan { entries, profile };
        plan.validate()?;
        Ok(plan)
    }

    /// Canonical text rendering, header (and profile stamp) included.
    pub fn render(&self) -> String {
        let mut out = format!("{PLAN_HEADER}\n");
        if let Some(p) = &self.profile {
            out.push_str(&p.render());
            out.push('\n');
        }
        for e in &self.entries {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Compares this plan's derivation stamp against a freshly derived
    /// footprint. Returns a human-readable staleness warning — and bumps
    /// the global `plan_stale` counter — when the worst relative
    /// mismatch exceeds [`STALE_THRESHOLD`]; returns `None` for fresh,
    /// comparable, or unstamped plans. Staleness never makes a plan
    /// unsound (elision is per-owner guarded at check time); it makes it
    /// *useless*, which is worth shouting about rather than silently
    /// running with dead ranges.
    pub fn audit_freshness(&self, current: &PlanProfile) -> Option<String> {
        let stamped = self.profile.as_ref()?;
        let mismatch = stamped.mismatch(current);
        if mismatch <= STALE_THRESHOLD {
            return None;
        }
        clean_obs::global().counter("plan_stale").inc();
        Some(format!(
            "stale check plan: derivation stamp [{}] diverges {:.0}% from the \
             current footprint [{}]; the plan still guards soundly but its \
             ranges likely miss — re-derive it for this workload",
            stamped.render(),
            100.0 * mismatch,
            current.render(),
        ))
    }

    /// Loads a plan file. A *missing* plan file is an error: a plan is
    /// asked for by name, not ambient.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` wrapping a [`PlanError`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path.as_ref())?;
        Self::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Atomically writes the canonical rendering to `path`
    /// (tmp + rename).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!("{PLAN_EXT}.tmp"));
        fs::write(&tmp, self.render().as_bytes())?;
        fs::rename(&tmp, path)
    }

    /// Checks structural soundness: non-empty non-overlapping ranges,
    /// and a privacy-proving witness on every elide entry.
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] found, [`PlanError::UnsoundElide`] for
    /// any elision whose witness admits foreign accesses (or carries no
    /// evidence at all).
    pub fn validate(&self) -> Result<(), PlanError> {
        for e in &self.entries {
            if e.lo >= e.hi {
                return Err(PlanError::EmptyRange { lo: e.lo, hi: e.hi });
            }
            if e.action == PlanAction::Elide {
                let w = e.witness.ok_or_else(|| PlanError::UnsoundElide {
                    lo: e.lo,
                    hi: e.hi,
                    reason: "no witness recorded".into(),
                })?;
                if w.foreign != 0 {
                    return Err(PlanError::UnsoundElide {
                        lo: e.lo,
                        hi: e.hi,
                        reason: format!(
                            "witness admits {} foreign access(es) beside owner t{}",
                            w.foreign, w.owner
                        ),
                    });
                }
                if w.observed == 0 {
                    return Err(PlanError::UnsoundElide {
                        lo: e.lo,
                        hi: e.hi,
                        reason: "witness observed no accesses".into(),
                    });
                }
            }
        }
        let mut sorted: Vec<&PlanEntry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| e.lo);
        for pair in sorted.windows(2) {
            if pair[1].lo < pair[0].hi {
                return Err(PlanError::Overlap {
                    first: pair[0].render(),
                    second: pair[1].render(),
                });
            }
        }
        Ok(())
    }

    /// Validates and compiles into the detector-consumable form.
    ///
    /// # Errors
    ///
    /// Any [`CheckPlan::validate`] failure.
    pub fn compile(&self) -> Result<CompiledPlan, PlanError> {
        self.validate()?;
        Ok(CompiledPlan::from_validated(self))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elide(lo: usize, hi: usize, owner: u32) -> PlanEntry {
        PlanEntry {
            lo,
            hi,
            action: PlanAction::Elide,
            witness: Some(Witness {
                owner,
                observed: 16,
                foreign: 0,
            }),
        }
    }

    #[test]
    fn empty_and_whitespace_parse_to_empty_plan() {
        for text in ["", "  \n\t\n", "CPLN v1\n", "CPLN v1\n# nothing\n"] {
            let p = CheckPlan::parse(text).unwrap();
            assert!(p.is_empty(), "{text:?}");
        }
    }

    #[test]
    fn header_is_required() {
        let e = CheckPlan::parse("coalesce 0..10\n").unwrap_err();
        assert!(matches!(e, PlanError::Parse { line: 1, .. }), "{e}");
    }

    #[test]
    fn round_trips_through_text() {
        let plan = CheckPlan {
            profile: None,
            entries: vec![
                elide(0x1000, 0x2000, 2),
                PlanEntry {
                    lo: 0x8000,
                    hi: 0xc000,
                    action: PlanAction::Coalesce,
                    witness: None,
                },
            ],
        };
        let text = plan.render();
        assert_eq!(CheckPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn profile_stamp_round_trips() {
        let plan = CheckPlan {
            profile: Some(PlanProfile {
                granule: 64,
                granules: 128,
                events: 4096,
                threads: 2,
            }),
            entries: vec![elide(0x1000, 0x2000, 2)],
        };
        let text = plan.render();
        assert!(text.contains("profile granule=64 granules=128 events=4096 threads=2"));
        assert_eq!(CheckPlan::parse(&text).unwrap(), plan);
        // Pre-stamp files (no profile line) still parse, to None.
        assert_eq!(
            CheckPlan::parse("CPLN v1\ncoalesce 0..10\n")
                .unwrap()
                .profile,
            None
        );
        // A second stamp is an error, not a silent overwrite.
        let twice = format!(
            "CPLN v1\n{}\n{}\n",
            plan.profile.unwrap().render(),
            plan.profile.unwrap().render()
        );
        assert!(CheckPlan::parse(&twice).is_err());
    }

    #[test]
    fn audit_freshness_flags_divergent_footprints() {
        let stamped = PlanProfile {
            granule: 64,
            granules: 100,
            events: 10_000,
            threads: 4,
        };
        let plan = CheckPlan {
            profile: Some(stamped),
            entries: vec![elide(0, 0x1000, 0)],
        };
        // Identical and mildly drifted footprints are fresh.
        assert_eq!(plan.audit_freshness(&stamped), None);
        let drifted = PlanProfile {
            events: 14_000,
            ..stamped
        };
        assert_eq!(plan.audit_freshness(&drifted), None);
        // A footprint 10x the stamp is loudly stale.
        let grown = PlanProfile {
            granules: 1_000,
            events: 100_000,
            ..stamped
        };
        let warning = plan.audit_freshness(&grown).unwrap();
        assert!(warning.contains("stale check plan"), "{warning}");
        assert!(
            clean_obs::global()
                .snapshot()
                .counter("plan_stale", &[])
                .unwrap()
                >= 1
        );
        // A different derivation granule is always stale…
        let regranuled = PlanProfile {
            granule: 8,
            ..stamped
        };
        assert!(plan.audit_freshness(&regranuled).is_some());
        // …and an unstamped plan has nothing to audit.
        assert_eq!(CheckPlan::empty().audit_freshness(&stamped), None);
    }

    #[test]
    fn parse_errors_name_their_line() {
        for (text, line) in [
            ("CPLN v1\nbogus 0..10\n", 2),
            ("CPLN v1\n\ncoalesce 10\n", 3),
            ("CPLN v1\ncoalesce zz..10\n", 2),
            ("CPLN v1\nelide 0..10\n", 2),
            ("CPLN v1\ncoalesce 0..10 extra\n", 2),
            // The retired `batch` action is an unknown action like any other.
            ("CPLN v1\ncoalesce 0..10\nbatch 10..20\n", 3),
        ] {
            let e = CheckPlan::parse(text).unwrap_err();
            match e {
                PlanError::Parse { line: l, .. } => assert_eq!(l, line, "{text:?}"),
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_too_large_for_their_field_name_their_line() {
        for text in [
            "CPLN v1\nelide 1000..2000 owner=4294967296 observed=5 foreign=0\n",
            "CPLN v1\nelide 1000..2000 owner=1 observed=18446744073709551616 foreign=0\n",
            "CPLN v1\n\nprofile granule=64 granules=1 events=1 threads=4294967296\n",
            "CPLN v1\ncoalesce 10000000000000000..0\n",
        ] {
            let e = CheckPlan::parse(text).unwrap_err();
            let last = text.lines().count();
            assert!(
                matches!(e, PlanError::Parse { line, .. } if line == last),
                "{text:?} → {e:?}"
            );
        }
    }

    #[test]
    fn unsound_elides_are_rejected_at_parse() {
        let e =
            CheckPlan::parse("CPLN v1\nelide 0..100 owner=1 observed=8 foreign=3\n").unwrap_err();
        assert!(matches!(e, PlanError::UnsoundElide { .. }), "{e}");
        let e =
            CheckPlan::parse("CPLN v1\nelide 0..100 owner=1 observed=0 foreign=0\n").unwrap_err();
        assert!(matches!(e, PlanError::UnsoundElide { .. }), "{e}");
    }

    #[test]
    fn overlaps_and_empty_ranges_are_rejected() {
        let plan = CheckPlan {
            profile: None,
            entries: vec![PlanEntry {
                lo: 0x100,
                hi: 0x100,
                action: PlanAction::Coalesce,
                witness: None,
            }],
        };
        assert!(matches!(plan.validate(), Err(PlanError::EmptyRange { .. })));
        let plan = CheckPlan {
            profile: None,
            entries: vec![
                PlanEntry {
                    lo: 0x100,
                    hi: 0x300,
                    action: PlanAction::Coalesce,
                    witness: None,
                },
                PlanEntry {
                    lo: 0x2ff,
                    hi: 0x400,
                    action: PlanAction::Coalesce,
                    witness: None,
                },
            ],
        };
        assert!(matches!(plan.validate(), Err(PlanError::Overlap { .. })));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("clean-cpln-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("kernel.cpln");
        let plan = CheckPlan {
            profile: None,
            entries: vec![elide(0x40, 0x80, 0)],
        };
        plan.save(&path).unwrap();
        assert_eq!(CheckPlan::load(&path).unwrap(), plan);
        fs::write(&path, "not a plan\n").unwrap();
        assert!(CheckPlan::load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
