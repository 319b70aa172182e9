//! `CSUP v1` race-suppression policy: demote known-benign races to
//! warnings at verdict-classification time.
//!
//! Real users of a race-analysis service ask for this first: some races
//! are intentional (lock-free steal retries, seeded probe loops, TSan
//! suppression files in the wild), and re-reporting them on every
//! analysis buries the signal. A policy is a small, versioned,
//! line-oriented rules file:
//!
//! ```text
//! CSUP v1
//! # comments run to end of line
//! digest 00112233445566778899aabbccddeeff   # exact trace digest
//! prefix 0011aa                             # digest hex-prefix
//! addr 1000..1fff waw                       # address range + race kind
//! addr 2000..2fff                           # address range, any kind
//! ```
//!
//! Rules match *races inside verdicts*, never the verdicts themselves:
//! the durable verdict cache keeps raw replay facts, and suppression is
//! re-applied every time a verdict is served. Editing the policy (or
//! reloading it over the wire with a `POLICY` frame) therefore
//! retroactively reclassifies every cached verdict — no invalidation,
//! no replay.
//!
//! `digest` rules suppress every race in a named trace; `prefix` rules
//! generalize that to a digest family (useful when a workload's traces
//! share a seeded prefix corpus); `addr` rules suppress races on an
//! inclusive address range, optionally narrowed to one race kind
//! (`waw` / `raw` / `war`).
//!
//! Any rule may carry a trailing `expires=<unix-secs>` token — an
//! absolute deadline after which the rule stops matching (suppressions
//! should be revisited, not immortal). Aged-out rules are skipped at
//! classification time and dropped by `suppress prune` regardless of
//! their hit counts:
//!
//! ```text
//! addr 1000..1fff waw expires=1790000000   # re-triage after the fix ships
//! ```

use clean_baselines::{FoundRace, FullRaceKind};
use clean_trace::TraceDigest;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// First line of every policy file.
pub const POLICY_HEADER: &str = "CSUP v1";

/// Default policy file name, under the server's store directory.
pub const POLICY_FILE: &str = "policy.csup";

/// One suppression rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Suppress every race in the trace with this exact digest.
    Digest(TraceDigest),
    /// Suppress every race in any trace whose digest hex starts with
    /// this prefix (1..=32 lowercase hex nibbles).
    Prefix(String),
    /// Suppress races on an inclusive address range, optionally limited
    /// to one race kind.
    Addr {
        /// Low end of the address range (inclusive).
        lo: u64,
        /// High end of the address range (inclusive).
        hi: u64,
        /// Restrict to this race kind; `None` matches any kind.
        kind: Option<FullRaceKind>,
    },
}

fn kind_tag(kind: FullRaceKind) -> &'static str {
    match kind {
        FullRaceKind::Waw => "waw",
        FullRaceKind::Raw => "raw",
        FullRaceKind::War => "war",
    }
}

fn kind_from_tag(tag: &str) -> Option<FullRaceKind> {
    match tag {
        "waw" => Some(FullRaceKind::Waw),
        "raw" => Some(FullRaceKind::Raw),
        "war" => Some(FullRaceKind::War),
        _ => None,
    }
}

impl Rule {
    /// Whether this rule suppresses `race` found in trace `digest`.
    pub fn matches(&self, digest: TraceDigest, race: &FoundRace) -> bool {
        match self {
            Rule::Digest(d) => *d == digest,
            Rule::Prefix(p) => format!("{digest}").starts_with(p.as_str()),
            Rule::Addr { lo, hi, kind } => {
                let addr = race.addr as u64;
                addr >= *lo && addr <= *hi && kind.is_none_or(|k| k == race.kind)
            }
        }
    }

    /// Canonical single-line rendering (no comment, no newline).
    pub fn render(&self) -> String {
        match self {
            Rule::Digest(d) => format!("digest {d}"),
            Rule::Prefix(p) => format!("prefix {p}"),
            Rule::Addr { lo, hi, kind } => match kind {
                Some(k) => format!("addr {lo:x}..{hi:x} {}", kind_tag(*k)),
                None => format!("addr {lo:x}..{hi:x}"),
            },
        }
    }
}

/// A policy parse error: which line, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyError {}

fn err(line: usize, message: impl Into<String>) -> PolicyError {
    PolicyError {
        line,
        message: message.into(),
    }
}

fn parse_hex_addr(s: &str, line: usize, what: &str) -> Result<u64, PolicyError> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(s, 16).map_err(|_| err(line, format!("bad {what} address {s:?}")))
}

/// Seconds since the Unix epoch — the clock `expires=` deadlines are
/// measured against.
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Splits a trailing `expires=<unix-secs>` token off a rule's tokens.
fn split_expiry<'a>(
    tokens: &'a [&'a str],
    line: usize,
) -> Result<(&'a [&'a str], Option<u64>), PolicyError> {
    match tokens.split_last() {
        Some((last, rest)) if last.starts_with("expires=") => {
            let v = &last["expires=".len()..];
            let secs = v.parse().map_err(|_| {
                err(
                    line,
                    format!("bad expires deadline {v:?} (want unix seconds)"),
                )
            })?;
            Ok((rest, Some(secs)))
        }
        _ => Ok((tokens, None)),
    }
}

fn parse_rule(tokens: &[&str], line: usize) -> Result<Rule, PolicyError> {
    match tokens {
        ["digest", hex] => {
            let digest: TraceDigest = hex
                .parse()
                .map_err(|e| err(line, format!("bad digest {hex:?}: {e}")))?;
            Ok(Rule::Digest(digest))
        }
        ["prefix", hex] => {
            if hex.is_empty() || hex.len() > 32 {
                return Err(err(
                    line,
                    format!("prefix must be 1..=32 hex chars, got {hex:?}"),
                ));
            }
            if !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(err(line, format!("prefix has non-hex chars: {hex:?}")));
            }
            Ok(Rule::Prefix(hex.to_ascii_lowercase()))
        }
        ["addr", range, rest @ ..] => {
            let (lo, hi) = range
                .split_once("..")
                .ok_or_else(|| err(line, format!("addr range must be lo..hi, got {range:?}")))?;
            let lo = parse_hex_addr(lo, line, "low")?;
            let hi = parse_hex_addr(hi, line, "high")?;
            if lo > hi {
                return Err(err(line, format!("empty addr range {lo:x}..{hi:x}")));
            }
            let kind = match rest {
                [] => None,
                [tag] => Some(
                    kind_from_tag(tag)
                        .ok_or_else(|| err(line, format!("unknown race kind {tag:?}")))?,
                ),
                _ => return Err(err(line, "addr takes at most one race kind")),
            };
            Ok(Rule::Addr { lo, hi, kind })
        }
        [verb, ..] => Err(err(line, format!("unknown rule {verb:?}"))),
        // Blank lines never get here, but a lone `expires=` token does.
        [] => Err(err(line, "expires= without a rule")),
    }
}

/// A parsed, applicable suppression policy.
///
/// The original source text (header and comments included) is retained
/// verbatim so a round trip through the wire or the disk file preserves
/// the operator's annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionPolicy {
    text: String,
    rules: Vec<Rule>,
    /// 1-based source line of each rule, parallel to `rules` — the
    /// anchor that lets [`SuppressionPolicy::prune`] drop a rule's line
    /// while keeping the header and standalone comments.
    lines: Vec<usize>,
    /// Absolute `expires=` deadline of each rule (unix seconds),
    /// parallel to `rules`; `None` never ages out.
    expires: Vec<Option<u64>>,
}

impl Default for SuppressionPolicy {
    fn default() -> Self {
        Self::empty()
    }
}

impl SuppressionPolicy {
    /// The empty policy: suppresses nothing.
    pub fn empty() -> Self {
        SuppressionPolicy {
            text: format!("{POLICY_HEADER}\n"),
            rules: Vec::new(),
            lines: Vec::new(),
            expires: Vec::new(),
        }
    }

    /// Parses policy text. Whitespace-only input is the empty policy;
    /// anything else must start with the `CSUP v1` header line.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] naming the first offending line.
    pub fn parse(text: &str) -> Result<Self, PolicyError> {
        if text.trim().is_empty() {
            return Ok(Self::empty());
        }
        let mut rules = Vec::new();
        let mut lines = Vec::new();
        let mut expires = Vec::new();
        let mut saw_header = false;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if !saw_header {
                if line != POLICY_HEADER {
                    return Err(err(
                        line_no,
                        format!("expected {POLICY_HEADER:?} header, got {line:?}"),
                    ));
                }
                saw_header = true;
                continue;
            }
            let tokens: Vec<&str> = line.split_ascii_whitespace().collect();
            let (tokens, deadline) = split_expiry(&tokens, line_no)?;
            rules.push(parse_rule(tokens, line_no)?);
            lines.push(line_no);
            expires.push(deadline);
        }
        let mut text = text.to_string();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        Ok(SuppressionPolicy {
            text,
            rules,
            lines,
            expires,
        })
    }

    /// Loads a policy file; a missing file is the empty policy.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, or `InvalidData` wrapping a
    /// [`PolicyError`] for unparseable content.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        match fs::read_to_string(path.as_ref()) {
            Ok(text) => Self::parse(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(e),
        }
    }

    /// Atomically writes the policy text to `path` (tmp + rename), so a
    /// crash mid-save cannot leave a half-written policy behind.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("csup.tmp");
        fs::write(&tmp, self.text.as_bytes())?;
        fs::rename(&tmp, path)
    }

    /// The source text, header and comments included.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed rules, in file order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the policy holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Each rule's `expires=` deadline (unix seconds), parallel to
    /// [`SuppressionPolicy::rules`]; `None` never ages out.
    pub fn expiries(&self) -> &[Option<u64>] {
        &self.expires
    }

    /// Whether rule `i` is still live at time `now` (unix seconds).
    fn live(&self, i: usize, now: u64) -> bool {
        self.expires
            .get(i)
            .copied()
            .flatten()
            .is_none_or(|d| now < d)
    }

    /// Whether any live rule suppresses `race` found in trace `digest`.
    pub fn suppresses(&self, digest: TraceDigest, race: &FoundRace) -> bool {
        self.suppresses_at(digest, race, unix_now())
    }

    /// [`SuppressionPolicy::suppresses`] at an explicit time (unix
    /// seconds) — aged-out rules never match.
    pub fn suppresses_at(&self, digest: TraceDigest, race: &FoundRace, now: u64) -> bool {
        self.rules
            .iter()
            .enumerate()
            .any(|(i, r)| self.live(i, now) && r.matches(digest, race))
    }

    /// Per-race suppression flags for a whole verdict, in order, crediting
    /// each suppressed race to the *first* live rule that matched it by
    /// bumping that rule's slot in `hits` (which must have one slot per
    /// rule). First-match credit means a rule whose every match is
    /// already covered by an earlier rule collects no hits — exactly the
    /// redundancy [`SuppressionPolicy::prune`] exists to drop.
    pub fn classify_with_hits(
        &self,
        digest: TraceDigest,
        races: &[FoundRace],
        hits: &mut [u64],
    ) -> Vec<bool> {
        self.classify_with_hits_at(digest, races, hits, unix_now())
    }

    /// [`SuppressionPolicy::classify_with_hits`] at an explicit time —
    /// aged-out rules neither match nor collect hits.
    pub fn classify_with_hits_at(
        &self,
        digest: TraceDigest,
        races: &[FoundRace],
        hits: &mut [u64],
        now: u64,
    ) -> Vec<bool> {
        debug_assert_eq!(hits.len(), self.rules.len());
        races
            .iter()
            .map(|race| {
                let hit = self
                    .rules
                    .iter()
                    .enumerate()
                    .find(|(i, r)| self.live(*i, now) && r.matches(digest, race));
                match hit {
                    Some((i, _)) => {
                        if let Some(h) = hits.get_mut(i) {
                            *h += 1;
                        }
                        true
                    }
                    None => false,
                }
            })
            .collect()
    }

    /// Returns a new policy with every zero-hit rule's source line
    /// removed (`hits` is parallel to [`SuppressionPolicy::rules`]; a
    /// missing slot counts as zero), along with every rule whose
    /// `expires=` deadline has passed — hits do not keep an aged-out
    /// rule alive. The header and standalone comment lines survive; a
    /// comment trailing a pruned rule goes with it.
    pub fn prune(&self, hits: &[u64]) -> Self {
        self.prune_at(hits, unix_now())
    }

    /// [`SuppressionPolicy::prune`] at an explicit time (unix seconds).
    pub fn prune_at(&self, hits: &[u64], now: u64) -> Self {
        let dead: Vec<usize> = self
            .lines
            .iter()
            .enumerate()
            .filter(|&(i, _)| hits.get(i).copied().unwrap_or(0) == 0 || !self.live(i, now))
            .map(|(_, &line)| line)
            .collect();
        if dead.is_empty() {
            return self.clone();
        }
        let mut text = String::with_capacity(self.text.len());
        for (i, raw) in self.text.lines().enumerate() {
            if !dead.contains(&(i + 1)) {
                text.push_str(raw);
                text.push('\n');
            }
        }
        Self::parse(&text).expect("removing whole rule lines keeps the policy parseable")
    }

    /// Returns a new policy with `rule_line` appended (one rule in the
    /// file grammar, without a newline) — the `suppress add` primitive.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] if the appended line does not parse.
    pub fn with_rule_line(&self, rule_line: &str) -> Result<Self, PolicyError> {
        let mut text = self.text.clone();
        text.push_str(rule_line.trim());
        text.push('\n');
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clean_core::ThreadId;

    fn race(kind: FullRaceKind, addr: usize) -> FoundRace {
        FoundRace {
            kind,
            addr,
            current: ThreadId::new(1),
            previous: ThreadId::new(0),
        }
    }

    #[test]
    fn empty_and_whitespace_parse_to_empty_policy() {
        for text in ["", "   \n\t\n", "CSUP v1\n", "CSUP v1\n# nothing\n"] {
            let p = SuppressionPolicy::parse(text).unwrap();
            assert!(p.is_empty(), "{text:?}");
            assert!(!p.suppresses(TraceDigest(1), &race(FullRaceKind::Waw, 64)));
        }
    }

    #[test]
    fn header_is_required() {
        let e = SuppressionPolicy::parse("digest 0011\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("header"), "{e}");
    }

    #[test]
    fn digest_rule_is_exact() {
        let d = TraceDigest(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let text = format!("{POLICY_HEADER}\ndigest {d}\n");
        let p = SuppressionPolicy::parse(&text).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.suppresses(d, &race(FullRaceKind::Waw, 64)));
        assert!(p.suppresses(d, &race(FullRaceKind::War, 0xdead)));
        assert!(!p.suppresses(TraceDigest(d.0 ^ 1), &race(FullRaceKind::Waw, 64)));
    }

    #[test]
    fn prefix_rule_matches_digest_families() {
        let d = TraceDigest(0xab00_0000_0000_0000_0000_0000_0000_0001);
        let p = SuppressionPolicy::parse("CSUP v1\nprefix ab\n").unwrap();
        assert!(p.suppresses(d, &race(FullRaceKind::Raw, 8)));
        assert!(!p.suppresses(TraceDigest(0x0c << 120), &race(FullRaceKind::Raw, 8)));
        // Prefix comparison is on the full 32-char zero-padded hex form.
        let small = TraceDigest(0xab);
        assert!(
            !p.suppresses(small, &race(FullRaceKind::Raw, 8)),
            "0xab renders as 000...0ab and must not match prefix ab"
        );
        assert!(SuppressionPolicy::parse("CSUP v1\nprefix\n").is_err());
        assert!(SuppressionPolicy::parse("CSUP v1\nprefix xyz\n").is_err());
        assert!(
            SuppressionPolicy::parse(&format!("CSUP v1\nprefix {}\n", "0".repeat(33))).is_err()
        );
    }

    #[test]
    fn addr_rule_respects_range_and_kind() {
        let d = TraceDigest(5);
        let p = SuppressionPolicy::parse("CSUP v1\naddr 1000..1fff waw\naddr 0x3000..0x3fff\n")
            .unwrap();
        assert!(p.suppresses(d, &race(FullRaceKind::Waw, 0x1000)));
        assert!(p.suppresses(d, &race(FullRaceKind::Waw, 0x1fff)));
        assert!(
            !p.suppresses(d, &race(FullRaceKind::Waw, 0x2000)),
            "past hi"
        );
        assert!(
            !p.suppresses(d, &race(FullRaceKind::Raw, 0x1500)),
            "kind-narrowed"
        );
        // The second rule has no kind filter.
        assert!(p.suppresses(d, &race(FullRaceKind::Raw, 0x3080)));
        assert!(p.suppresses(d, &race(FullRaceKind::War, 0x3fff)));
    }

    #[test]
    fn bad_rules_name_their_line() {
        for (text, line) in [
            ("CSUP v1\nbogus stuff\n", 2),
            ("CSUP v1\n\naddr 10\n", 3),
            ("CSUP v1\naddr 20..10\n", 2),
            ("CSUP v1\naddr 10..20 waw raw\n", 2),
            ("CSUP v1\ndigest nothex\n", 2),
        ] {
            let e = SuppressionPolicy::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?} → {e}");
        }
    }

    #[test]
    fn comments_and_text_survive_round_trips() {
        let text = "CSUP v1\n# steal retries are intentional\naddr 40..7f raw # probe\n";
        let p = SuppressionPolicy::parse(text).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.text(), text);
        let again = SuppressionPolicy::parse(p.text()).unwrap();
        assert_eq!(again, p);
    }

    #[test]
    fn with_rule_line_appends_and_validates() {
        let p = SuppressionPolicy::empty();
        let p2 = p.with_rule_line("addr 0..ff war").unwrap();
        assert_eq!(p2.len(), 1);
        assert!(p2.suppresses(TraceDigest(1), &race(FullRaceKind::War, 0x40)));
        assert!(p.with_rule_line("addr backwards").is_err());
    }

    #[test]
    fn classify_flags_line_up_with_races() {
        let d = TraceDigest(7);
        let p = SuppressionPolicy::parse("CSUP v1\naddr 100..1ff\n").unwrap();
        let races = [
            race(FullRaceKind::Waw, 0x50),
            race(FullRaceKind::Raw, 0x150),
            race(FullRaceKind::War, 0x250),
        ];
        let mut hits = [0];
        assert_eq!(
            p.classify_with_hits(d, &races, &mut hits),
            vec![false, true, false]
        );
        assert_eq!(hits, [1]);
        assert_eq!(
            SuppressionPolicy::empty().classify_with_hits(d, &races, &mut []),
            vec![false; 3]
        );
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("clean-csup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join(POLICY_FILE);
        assert!(
            SuppressionPolicy::load(&path).unwrap().is_empty(),
            "missing = empty"
        );
        let p = SuppressionPolicy::parse("CSUP v1\nprefix 00ff\n").unwrap();
        p.save(&path).unwrap();
        assert_eq!(SuppressionPolicy::load(&path).unwrap(), p);
        fs::write(&path, "not a policy\n").unwrap();
        assert!(SuppressionPolicy::load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn classify_with_hits_credits_the_first_matching_rule() {
        let d = TraceDigest(9);
        // Rule 2 is fully shadowed by rule 1; rule 3 stands alone.
        let p =
            SuppressionPolicy::parse("CSUP v1\naddr 100..2ff\naddr 100..1ff waw\naddr 400..4ff\n")
                .unwrap();
        let mut hits = vec![0u64; p.len()];
        let flags = p.classify_with_hits(
            d,
            &[
                race(FullRaceKind::Waw, 0x150), // rule 1 (shadows rule 2)
                race(FullRaceKind::Raw, 0x250), // rule 1
                race(FullRaceKind::War, 0x450), // rule 3
                race(FullRaceKind::Waw, 0x800), // no rule
            ],
            &mut hits,
        );
        assert_eq!(flags, vec![true, true, true, false]);
        assert_eq!(hits, vec![2, 0, 1]);
    }

    #[test]
    fn prune_drops_only_zero_hit_rule_lines() {
        let text =
            "CSUP v1\n# keep this note\naddr 100..2ff\naddr 100..1ff waw # shadowed\nprefix ab\n";
        let p = SuppressionPolicy::parse(text).unwrap();
        assert_eq!(p.len(), 3);
        let pruned = p.prune(&[5, 0, 2]);
        assert_eq!(pruned.len(), 2);
        assert_eq!(
            pruned.text(),
            "CSUP v1\n# keep this note\naddr 100..2ff\nprefix ab\n"
        );
        // All-zero hits empty the rule set but keep the header.
        let emptied = p.prune(&[0, 0, 0]);
        assert!(emptied.is_empty());
        assert!(emptied.text().contains(POLICY_HEADER));
        // Nothing to drop: the policy comes back unchanged.
        assert_eq!(p.prune(&[1, 1, 1]), p);
    }

    #[test]
    fn expired_rules_stop_matching_but_text_survives() {
        let d = TraceDigest(3);
        let text = "CSUP v1\naddr 100..1ff expires=1000\naddr 300..3ff\n";
        let p = SuppressionPolicy::parse(text).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.expiries(), &[Some(1000), None]);
        assert_eq!(p.text(), text, "expires token survives the round trip");
        let r = race(FullRaceKind::Waw, 0x150);
        assert!(p.suppresses_at(d, &r, 999), "live before the deadline");
        assert!(!p.suppresses_at(d, &r, 1000), "deadline itself is expired");
        assert!(!p.suppresses_at(d, &r, 5000));
        // The unexpired rule keeps working at any time.
        assert!(p.suppresses_at(d, &race(FullRaceKind::Raw, 0x350), 5000));
    }

    #[test]
    fn expiry_applies_to_every_rule_kind_and_rejects_bad_deadlines() {
        let d = TraceDigest(0xab << 120);
        let text =
            format!("CSUP v1\ndigest {d}\nprefix ab expires=50\naddr 0..ff waw expires=60\n");
        let p = SuppressionPolicy::parse(&text).unwrap();
        assert_eq!(p.expiries(), &[None, Some(50), Some(60)]);
        assert!(SuppressionPolicy::parse("CSUP v1\nprefix ab expires=soon\n").is_err());
        assert!(SuppressionPolicy::parse("CSUP v1\naddr 0..ff expires=-3\n").is_err());
    }

    #[test]
    fn classify_with_hits_skips_expired_rules_and_credits_the_next_live_match() {
        let d = TraceDigest(11);
        // Rule 1 expired; rule 2 covers the same range and must both
        // suppress and collect the credit rule 1 no longer can.
        let p = SuppressionPolicy::parse(
            "CSUP v1\naddr 100..1ff expires=10\naddr 100..1ff\naddr 400..4ff expires=10\n",
        )
        .unwrap();
        let mut hits = vec![0u64; p.len()];
        let flags = p.classify_with_hits_at(
            d,
            &[
                race(FullRaceKind::Waw, 0x150), // rule 1 dead → rule 2
                race(FullRaceKind::War, 0x450), // rule 3 dead, nothing else
            ],
            &mut hits,
            100,
        );
        assert_eq!(flags, vec![true, false]);
        assert_eq!(hits, vec![0, 1, 0]);
    }

    #[test]
    fn prune_drops_aged_out_rules_regardless_of_hits() {
        let text = "CSUP v1\naddr 100..1ff expires=10 # old\naddr 300..3ff\n";
        let p = SuppressionPolicy::parse(text).unwrap();
        // Rule 1 collected hits before it aged out; prune drops it anyway.
        let pruned = p.prune_at(&[7, 3], 100);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.text(), "CSUP v1\naddr 300..3ff\n");
        // Before the deadline the same hits keep both rules.
        assert_eq!(p.prune_at(&[7, 3], 5), p);
    }

    #[test]
    fn a_deadline_without_a_rule_is_an_error() {
        let e = SuppressionPolicy::parse("CSUP v1\nexpires=5\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rules_render_back_to_parseable_lines() {
        let rules = [
            Rule::Digest(TraceDigest(42)),
            Rule::Prefix("abcd".into()),
            Rule::Addr {
                lo: 0x10,
                hi: 0x20,
                kind: Some(FullRaceKind::Raw),
            },
            Rule::Addr {
                lo: 0,
                hi: u64::MAX,
                kind: None,
            },
        ];
        for rule in rules {
            let text = format!("{POLICY_HEADER}\n{}\n", rule.render());
            let p = SuppressionPolicy::parse(&text).unwrap();
            assert_eq!(p.rules(), std::slice::from_ref(&rule), "{text:?}");
        }
    }
}
