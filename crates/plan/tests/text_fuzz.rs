//! Corruption fuzzing of the `CPLN v1` check-plan text format.
//!
//! The seed is a plan derived from a small synthetic run (elide and
//! coalesce entries plus a profile stamp). Each case damages it one way
//! — flipped bytes, a cut at any offset, a duplicated or dropped line —
//! or writes a boundary number (0, `u32::MAX`, `u32::MAX`+1, `u64::MAX`,
//! `u64::MAX`+1) into one of its numeric tokens. The invariants under
//! test:
//!
//! * `CheckPlan::parse` returns `Ok` or a `PlanError` (a parse error
//!   naming a line of the input), and never panics;
//! * a plan that parses compiles, and renders and parses back equal;
//! * a numeric token that parses carries exactly the number written: the
//!   seed is canonical text, so a plan parsed from it with one number
//!   replaced renders back to the same text, byte for byte.

use clean_plan::{CheckPlan, PlanError, PlanObserver};
use proptest::prelude::*;

/// A canonical rendering of a plan derived from four threads: two
/// private regions (elide), a region both of the first two threads touch
/// (no entry), and a region two writers sweep in order (coalesce).
fn seed() -> String {
    let mut obs = PlanObserver::with_granule(64);
    for pass in 0..2 {
        for addr in (0x1000..0x1400).step_by(8) {
            obs.observe(0, addr, 8, pass == 0);
        }
        for addr in (0x2000..0x2200).step_by(4) {
            obs.observe(1, addr, 4, true);
        }
        for tid in 0..2 {
            obs.observe(tid, 0x3000, 8, true);
        }
        for tid in 2..4 {
            for addr in (0x8000..0x9000).step_by(8) {
                obs.observe(tid, addr, 8, true);
            }
        }
    }
    obs.derive().0.render()
}

const BOUNDARIES: [u128; 5] = [
    0,
    u32::MAX as u128,
    u32::MAX as u128 + 1,
    u64::MAX as u128,
    u64::MAX as u128 + 1,
];

/// Byte spans of every numeric token in `text`, each with its radix:
/// the hex ends of `lo..hi` ranges and the decimal values of `key=n`.
fn numeric_tokens(text: &str) -> Vec<(usize, usize, u32)> {
    let mut spans = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        for token in line.split_ascii_whitespace() {
            let start = at + token.as_ptr() as usize - line.as_ptr() as usize;
            if let Some((lo, _)) = token.split_once("..") {
                spans.push((start, start + lo.len(), 16));
                spans.push((start + lo.len() + 2, start + token.len(), 16));
            } else if let Some((key, _)) = token.split_once('=') {
                spans.push((start + key.len() + 1, start + token.len(), 10));
            }
        }
        at += line.len();
    }
    spans
}

/// `text` with the token at `span` replaced by `value` in its radix.
fn with_number(text: &str, (lo, hi, radix): (usize, usize, u32), value: u128) -> String {
    let number = if radix == 16 {
        format!("{value:x}")
    } else {
        value.to_string()
    };
    format!("{}{number}{}", &text[..lo], &text[hi..])
}

/// One way to damage a file: `kind` picks flips (0), a cut at `at` (1),
/// a duplicated line (2), a dropped line (3) or a boundary number in a
/// numeric token (4, the first flip's position picks the number); `at`
/// indexes a byte, a line or a token, modulo their count.
type Damage = (u8, usize, Vec<(usize, u8)>);

fn damage() -> impl Strategy<Value = Damage> {
    (
        0u8..5,
        0usize..1 << 16,
        prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
    )
}

fn apply((kind, at, flips): &Damage, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
    match kind {
        0 => {
            for (pos, xor) in flips {
                let len = bytes.len();
                bytes[pos % len] ^= xor;
            }
        }
        1 => bytes.truncate(at % (bytes.len() + 1)),
        2 => {
            let line = lines[at % lines.len()];
            lines.insert(at % lines.len(), line);
            bytes = lines.concat().into_bytes();
        }
        3 => {
            lines.remove(at % lines.len());
            bytes = lines.concat().into_bytes();
        }
        _ => {
            let tokens = numeric_tokens(text);
            let value = BOUNDARIES[flips[0].0 % BOUNDARIES.len()];
            return with_number(text, tokens[at % tokens.len()], value);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks the invariants every parse must keep, returning the plan when
/// the text parsed.
fn parse_checked(text: &str) -> Result<Option<CheckPlan>, String> {
    match CheckPlan::parse(text) {
        Ok(plan) => {
            plan.compile()
                .map_err(|e| format!("parsed plan fails to compile: {e}"))?;
            let again = CheckPlan::parse(&plan.render());
            if again.as_ref() != Ok(&plan) {
                return Err(format!("render/parse drift: {again:?} vs {plan:?}"));
            }
            Ok(Some(plan))
        }
        Err(PlanError::Parse { line, message }) => {
            if (1..=text.lines().count().max(1)).contains(&line) {
                Ok(None)
            } else {
                Err(format!(
                    "line {line} ({message}) is not a line of the input"
                ))
            }
        }
        Err(_) => Ok(None),
    }
}

#[test]
fn the_seed_plan_is_canonical_and_covers_every_line_kind() {
    let text = seed();
    let plan = CheckPlan::parse(&text).unwrap();
    assert_eq!(plan.render(), text);
    assert!(plan.profile.is_some());
    for kind in ["elide ", "coalesce "] {
        assert!(text.contains(kind), "{kind:?} missing from {text}");
    }
    assert!(numeric_tokens(&text).len() >= 10);
}

#[test]
fn every_numeric_token_carries_exactly_the_number_written() {
    let text = seed();
    let mut parsed = 0;
    for span in numeric_tokens(&text) {
        for value in BOUNDARIES {
            let damaged = with_number(&text, span, value);
            if let Some(plan) = parse_checked(&damaged).unwrap() {
                assert_eq!(plan.render(), damaged, "value {value} at {span:?}");
                parsed += 1;
            }
        }
    }
    // 0 and u32::MAX fit every field, so some substitutions must parse.
    assert!(parsed > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn damaged_plans_parse_or_name_a_line_and_round_trip(d in damage()) {
        let seed = format!("# derived from a synthetic 4-thread run\n{}", seed());
        let text = apply(&d, &seed);
        if let Err(e) = parse_checked(&text) {
            prop_assert!(false, "{} in {:?}", e, text);
        }
    }
}
