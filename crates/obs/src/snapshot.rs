//! Plain-value metric snapshots and the `CMET v1` text exposition.
//!
//! A [`Snapshot`] is what a registry looks like with the atomics
//! stripped out: three ordered maps keyed by the full metric key
//! (`name` or `name{k="v",k2="v2"}` with labels sorted by key). It
//! renders to and parses from a line-oriented text grammar so the
//! router can merge backend expositions without sharing code or
//! memory with them:
//!
//! ```text
//! # CMET v1
//! counter serve_requests_total{verb="submit"} 42
//! gauge store_bytes 65536
//! hist serve_latency_micros{verb="analyze"} sum=1234 max=900 buckets=0:1,9:2
//! # event 17 failover backend=2 digest=ab12
//! ```
//!
//! Lines starting with `#` are comments (the header and journal events
//! travel as comments), so `parse(render(s)) == s` while journal text
//! rides along merge-safely.

use crate::hist::{LogHistogram, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The exposition header line; the version bumps on grammar changes.
pub const EXPOSITION_HEADER: &str = "# CMET v1";

/// Strips characters that would corrupt the line grammar out of a
/// label value: whitespace, quotes, braces, commas, and equals signs
/// are dropped. Call on any value not known to be clean (addresses and
/// digests are; free-form strings are not).
pub fn sanitize_label(value: &str) -> String {
    value
        .chars()
        .filter(|c| !c.is_whitespace() && !matches!(c, '"' | '{' | '}' | ',' | '='))
        .collect()
}

/// Builds the canonical metric key for `name` plus `labels`: labels
/// are sorted by key and baked into the string, so equal metrics have
/// equal keys across processes.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

/// Splits a metric key into its name and label list. The empty label
/// list is returned for bare names; malformed keys come back as-is
/// with no labels (keys are produced by [`metric_key`], so this is a
/// defensive path, not an expected one).
fn split_key(key: &str) -> (&str, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key, Vec::new());
    };
    let Some(stripped) = key[brace..]
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
    else {
        return (key, Vec::new());
    };
    let mut labels = Vec::new();
    for pair in stripped.split(',').filter(|p| !p.is_empty()) {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        let v = v.trim_matches('"');
        labels.push((k.to_string(), v.to_string()));
    }
    (&key[..brace], labels)
}

/// Sums the values of `name` bare and of `name{...}` under any labels.
fn family_total(metrics: &BTreeMap<String, u64>, name: &str) -> u64 {
    metrics
        .iter()
        .filter(|(k, _)| *k == name || k.starts_with(name) && k[name.len()..].starts_with('{'))
        .fold(0, |sum: u64, (_, v)| sum.saturating_add(*v))
}

/// An error from [`Snapshot::parse`]: the offending line number
/// (1-based) and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A plain-value view of a registry at one instant: counters, gauges,
/// and histograms keyed by their full `name{label="v"}` strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotone counters by metric key.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by metric key.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms by metric key.
    pub hists: BTreeMap<String, LogHistogram>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters and gauges add (saturating,
    /// since `other` may be parsed off the wire), histograms merge
    /// element-wise. Adding gauges is the right fleet semantics for the
    /// sizes we expose (bytes and entries held per node).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let sum = self.counters.entry(k.clone()).or_insert(0);
            *sum = sum.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let sum = self.gauges.entry(k.clone()).or_insert(0);
            *sum = sum.saturating_add(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Returns a copy with `key="value"` added to every metric that
    /// does not already carry a `key` label. Existing `key` labels are
    /// preserved, so a router can stamp `node="3"` onto a backend
    /// snapshot without clobbering labels the backend set itself.
    pub fn with_label(&self, key: &str, value: &str) -> Snapshot {
        let relabel = |metric_key_str: &str| -> String {
            let (name, labels) = split_key(metric_key_str);
            if labels.iter().any(|(k, _)| k == key) {
                return metric_key_str.to_string();
            }
            let mut all: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            all.push((key, value));
            metric_key(name, &all)
        };
        let mut out = Snapshot::default();
        for (k, v) in &self.counters {
            out.counters.insert(relabel(k), *v);
        }
        for (k, v) in &self.gauges {
            out.gauges.insert(relabel(k), *v);
        }
        for (k, h) in &self.hists {
            out.hists.insert(relabel(k), h.clone());
        }
        out
    }

    /// Looks up a counter by name and unsorted labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&metric_key(name, labels)).copied()
    }

    /// Looks up a histogram by name and unsorted labels.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LogHistogram> {
        self.hists.get(&metric_key(name, labels))
    }

    /// Sums every counter whose key starts with `name` (bare or with
    /// any label set) — the cross-label total of one metric family.
    pub fn counter_family_total(&self, name: &str) -> u64 {
        family_total(&self.counters, name)
    }

    /// [`Snapshot::counter_family_total`] for gauges: on a router's
    /// merged exposition, the fleet-wide sum of one per-node gauge.
    pub fn gauge_family_total(&self, name: &str) -> u64 {
        family_total(&self.gauges, name)
    }

    /// Renders the `CMET v1` text exposition: the header, then one
    /// line per metric in key order. `extra_comments` (journal events,
    /// typically) are appended as `# `-prefixed lines.
    pub fn render(&self, extra_comments: &[String]) -> String {
        let mut out = String::new();
        out.push_str(EXPOSITION_HEADER);
        out.push('\n');
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = write!(
                out,
                "hist {k} sum={} max={} buckets=",
                h.sum_micros(),
                h.max_micros()
            );
            let mut first = true;
            for (i, &n) in h.bucket_counts().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{i}:{n}");
            }
            out.push('\n');
        }
        for c in extra_comments {
            let _ = writeln!(out, "# {c}");
        }
        out
    }

    /// Parses a `CMET v1` exposition. Comment lines (including journal
    /// events) and blank lines are skipped; the header is required.
    pub fn parse(text: &str) -> Result<Snapshot, ParseError> {
        let err = |line: usize, message: &str| ParseError {
            line,
            message: message.to_string(),
        };
        let mut snap = Snapshot::default();
        let mut saw_header = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                if comment.trim().starts_with("CMET ") {
                    if comment.trim() != "CMET v1" {
                        return Err(err(lineno, "unsupported CMET version"));
                    }
                    saw_header = true;
                }
                continue;
            }
            if !saw_header {
                return Err(err(lineno, "missing `# CMET v1` header"));
            }
            let mut parts = line.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let key = parts
                .next()
                .ok_or_else(|| err(lineno, "missing metric key"))?;
            let rest = parts.next().ok_or_else(|| err(lineno, "missing value"))?;
            match kind {
                "counter" | "gauge" => {
                    let v: u64 = rest
                        .trim()
                        .parse()
                        .map_err(|_| err(lineno, "value is not a u64"))?;
                    let map = if kind == "counter" {
                        &mut snap.counters
                    } else {
                        &mut snap.gauges
                    };
                    map.insert(key.to_string(), v);
                }
                "hist" => {
                    let mut sum = None;
                    let mut max = None;
                    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                    for field in rest.split_whitespace() {
                        let (k, v) = field
                            .split_once('=')
                            .ok_or_else(|| err(lineno, "hist field is not k=v"))?;
                        match k {
                            "sum" => {
                                sum = Some(v.parse().map_err(|_| err(lineno, "bad hist sum"))?);
                            }
                            "max" => {
                                max = Some(v.parse().map_err(|_| err(lineno, "bad hist max"))?);
                            }
                            "buckets" => {
                                for pair in v.split(',').filter(|p| !p.is_empty()) {
                                    let (i, n) = pair
                                        .split_once(':')
                                        .ok_or_else(|| err(lineno, "bucket is not i:n"))?;
                                    let i: usize =
                                        i.parse().map_err(|_| err(lineno, "bad bucket index"))?;
                                    if i >= HISTOGRAM_BUCKETS {
                                        return Err(err(lineno, "bucket index out of range"));
                                    }
                                    buckets[i] =
                                        n.parse().map_err(|_| err(lineno, "bad bucket count"))?;
                                }
                            }
                            _ => return Err(err(lineno, "unknown hist field")),
                        }
                    }
                    let sum = sum.ok_or_else(|| err(lineno, "hist missing sum"))?;
                    let max = max.ok_or_else(|| err(lineno, "hist missing max"))?;
                    snap.hists
                        .insert(key.to_string(), LogHistogram::from_parts(buckets, sum, max));
                }
                _ => return Err(err(lineno, "unknown metric kind")),
            }
        }
        if !saw_header {
            return Err(err(1, "missing `# CMET v1` header"));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters
            .insert(metric_key("requests", &[("verb", "submit")]), 42);
        s.counters.insert("bad_frames".to_string(), 3);
        s.gauges.insert("store_bytes".to_string(), 65536);
        let mut h = LogHistogram::new();
        for v in [1u64, 5, 900, 1_000_000] {
            h.record(v);
        }
        s.hists.insert(metric_key("lat", &[("verb", "analyze")]), h);
        s
    }

    #[test]
    fn render_parse_round_trips() {
        let s = sample();
        let text = s.render(&["event 7 failover backend=2".to_string()]);
        assert!(text.starts_with(EXPOSITION_HEADER));
        assert!(text.contains("# event 7 failover"));
        let parsed = Snapshot::parse(&text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn merge_adds_counters_and_folds_hists() {
        let a = sample();
        let mut b = sample();
        b.merge(&a);
        assert_eq!(b.counter("requests", &[("verb", "submit")]), Some(84));
        assert_eq!(b.gauges["store_bytes"], 131072);
        let h = b.hist("lat", &[("verb", "analyze")]).unwrap();
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn with_label_only_adds_when_absent() {
        let s = sample().with_label("node", "2");
        assert_eq!(
            s.counter("requests", &[("node", "2"), ("verb", "submit")]),
            Some(42)
        );
        assert_eq!(s.counter("bad_frames", &[("node", "2")]), Some(3));
        // A second stamp with a different value must not clobber.
        let again = s.with_label("node", "router");
        assert_eq!(
            again.counter("requests", &[("node", "2"), ("verb", "submit")]),
            Some(42)
        );
    }

    #[test]
    fn family_total_sums_across_labels() {
        let mut s = sample();
        s.counters
            .insert(metric_key("requests", &[("verb", "analyze")]), 8);
        s.counters.insert("requests_other".to_string(), 999);
        assert_eq!(s.counter_family_total("requests"), 50);
        s.gauges
            .insert(metric_key("store_bytes", &[("node", "1")]), 7);
        s.gauges.insert("store_bytes_max".to_string(), 999);
        assert_eq!(s.gauge_family_total("store_bytes"), 65536 + 7);
        assert_eq!(s.gauge_family_total("requests"), 0, "kinds stay apart");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("counter x 1").is_err(), "no header");
        assert!(Snapshot::parse("# CMET v2\ncounter x 1").is_err());
        let bad = format!("{EXPOSITION_HEADER}\ncounter x notanum");
        assert!(Snapshot::parse(&bad).is_err());
        let bad = format!("{EXPOSITION_HEADER}\nhist h sum=1 buckets=0:1");
        assert!(Snapshot::parse(&bad).is_err(), "hist missing max");
        let bad = format!("{EXPOSITION_HEADER}\nhist h sum=1 max=1 buckets=64:1");
        assert!(Snapshot::parse(&bad).is_err(), "bucket out of range");
        let ok = format!("{EXPOSITION_HEADER}\n\n# comment\n");
        assert_eq!(Snapshot::parse(&ok).unwrap(), Snapshot::default());
    }

    #[test]
    fn huge_values_saturate_through_parse_merge_and_totals() {
        let max = u64::MAX;
        let text = format!(
            "{EXPOSITION_HEADER}\ncounter c {max}\ncounter c{{k=\"v\"}} 1\n\
             hist h sum=1 max=1 buckets=0:{max},1:1\n\
             hist g sum=1 max=3 buckets=0:{},1:5\n",
            max - 1
        );
        let mut s = Snapshot::parse(&text).unwrap();
        assert_eq!(s.counter_family_total("c"), max);
        // The count saturates to the top rank; the running bucket sum must
        // not wrap on its way there.
        let g = s.hist("g", &[]).unwrap();
        assert_eq!((g.count(), g.quantile(1.0)), (max, 3));
        s.merge(&s.clone());
        assert_eq!(s.counter("c", &[]), Some(max));
        let h = s.hist("h", &[]).unwrap();
        assert_eq!((h.count(), h.bucket_counts()[0]), (max, max));
    }

    #[test]
    fn sanitize_strips_grammar_characters() {
        assert_eq!(sanitize_label("ab12"), "ab12");
        assert_eq!(sanitize_label("a b\"c{d}e,f=g"), "abcdefg");
    }

    #[test]
    fn metric_key_sorts_labels() {
        assert_eq!(
            metric_key("m", &[("z", "1"), ("a", "2")]),
            "m{a=\"2\",z=\"1\"}"
        );
        assert_eq!(metric_key("m", &[]), "m");
    }
}
