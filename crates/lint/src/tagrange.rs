//! The `tag-range` rule: prove the reserved message-tag ranges in
//! `apc-comm` are pairwise disjoint *at lint time* by parsing the const
//! declarations out of `crates/comm/src/p2p.rs` and
//! `crates/comm/src/bounded.rs` and evaluating their arithmetic.
//!
//! The tag scheme this rule encodes (see the rustdoc on `Tag` in p2p.rs):
//!
//! * stage queues occupy `[STAGE_BASE - 2*(MAX_CHANNEL-1) - 1, STAGE_BASE]`
//!   (channel `c` uses `STAGE_BASE - 2c` for data, `- 2c - 1` for credits);
//! * serve endpoints occupy the same-shaped band below `SERVE_BASE`;
//! * user tags are "small": everything below [`USER_CEILING`] is theirs,
//!   so every reserved range must also sit entirely above it.
//!
//! If a future PR moves a base constant so two bands collide — or makes
//! the arithmetic over/underflow `u32` — this check fails CI with the two
//! offending ranges in the message, before any run can produce crosstalk.

use std::collections::BTreeMap;

use crate::lexer::mask_source;
use crate::rules::Violation;

/// User tags must stay below this; reserved ranges must stay at or above.
/// The pipeline uses single-digit tags, so 2^20 leaves generous headroom
/// on both sides.
pub const USER_CEILING: u64 = 1 << 20;

/// An inclusive tag interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagBand {
    pub name: &'static str,
    pub lo: u64,
    pub hi: u64,
}

impl TagBand {
    fn overlaps(&self, other: &TagBand) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// Evaluate the tag layout from the masked sources of `p2p.rs` and
/// `bounded.rs` and return every violated invariant. An empty vector
/// means the reserved ranges are provably disjoint.
pub fn check_tag_layout(p2p_src: &str, bounded_src: &str) -> Vec<Violation> {
    let file = "crates/comm/src/p2p.rs";
    let mut consts = BTreeMap::new();
    collect_consts(&mask_source(p2p_src).text, &mut consts);
    collect_consts(&mask_source(bounded_src).text, &mut consts);

    let mut out = Vec::new();
    let mut get = |name: &str| match resolve(name, &consts, 0) {
        Ok(v) => Some(v),
        Err(e) => {
            out.push(Violation {
                file: file.to_owned(),
                line: 1,
                rule: "tag-range",
                message: format!("cannot evaluate const `{name}`: {e}"),
            });
            None
        }
    };

    let (Some(stage_base), Some(serve_base), Some(max_channel)) =
        (get("STAGE_BASE"), get("SERVE_BASE"), get("MAX_CHANNEL"))
    else {
        return out;
    };

    let band = |name: &'static str, base: u64| -> Option<TagBand> {
        let span = 2u64
            .checked_mul(max_channel.checked_sub(1)?)?
            .checked_add(1)?;
        Some(TagBand {
            name,
            lo: base.checked_sub(span)?,
            hi: base,
        })
    };
    let mut bands = Vec::new();
    for (name, base) in [("STAGE", stage_base), ("SERVE", serve_base)] {
        match band(name, base) {
            Some(b) => bands.push(b),
            None => out.push(Violation {
                file: file.to_owned(),
                line: 1,
                rule: "tag-range",
                message: format!(
                    "{name} band underflows u32: base {base} cannot hold \
                     2*(MAX_CHANNEL-1)+1 = {} tags",
                    2 * (max_channel.saturating_sub(1)) + 1
                ),
            }),
        }
    }
    bands.push(TagBand {
        name: "USER",
        lo: 0,
        hi: USER_CEILING - 1,
    });

    for i in 0..bands.len() {
        for j in i + 1..bands.len() {
            if bands[i].overlaps(&bands[j]) {
                out.push(Violation {
                    file: file.to_owned(),
                    line: 1,
                    rule: "tag-range",
                    message: format!(
                        "reserved tag ranges collide: {} [{}, {}] overlaps {} [{}, {}]",
                        bands[i].name,
                        bands[i].lo,
                        bands[i].hi,
                        bands[j].name,
                        bands[j].lo,
                        bands[j].hi
                    ),
                });
            }
        }
    }
    out
}

/// Pull `const NAME(: TYPE)? = <expr>;` declarations out of masked source.
/// Visibility qualifiers are skipped by searching for the `const` keyword
/// itself; associated consts (`Tag::X`) are stored under their last path
/// segment, which is how the evaluator references them.
fn collect_consts(masked: &str, into: &mut BTreeMap<String, String>) {
    let bytes = masked.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = masked[from..].find("const ") {
        let start = from + pos;
        from = start + "const ".len();
        // Word boundary: don't match e.g. `APPEND_CONST `.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            continue;
        }
        let rest = &masked[start + "const ".len()..];
        let Some(eq) = rest.find('=') else { continue };
        let Some(semi) = rest[eq..].find(';') else {
            continue;
        };
        let head = rest[..eq].trim();
        let name = head.split(':').next().unwrap_or("").trim().to_owned();
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        let expr = rest[eq + 1..eq + semi].trim().to_owned();
        into.insert(name, expr);
    }
}

/// Resolve a const by name, recursively evaluating references to other
/// consts. `depth` guards against reference cycles.
fn resolve(name: &str, consts: &BTreeMap<String, String>, depth: usize) -> Result<u64, String> {
    if depth > 16 {
        return Err("const reference cycle".into());
    }
    let expr = consts
        .get(name)
        .ok_or_else(|| format!("const `{name}` not found"))?;
    let mut p = Parser {
        bytes: expr.as_bytes(),
        i: 0,
        consts,
        depth,
    };
    let v = p.expr()?;
    p.skip_ws();
    if p.i != p.bytes.len() {
        return Err(format!("trailing input in `{expr}`"));
    }
    Ok(v)
}

/// Recursive-descent evaluator for the subset of const arithmetic the tag
/// constants use: decimal/hex literals (with `_` and type suffixes),
/// `u32::MAX`, references to other consts (`Tag::STAGE_BASE`), a
/// single-argument tuple-struct wrapper (`Tag(expr)`), parentheses, and
/// `+ - * / << >>` with Rust precedence. Arithmetic is checked in u64 and
/// must stay within u32, mirroring what rustc would reject at compile time
/// for a `u32` const.
struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
    consts: &'a BTreeMap<String, String>,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.bytes.len() && self.bytes[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek2(&self) -> (u8, u8) {
        let a = self.bytes.get(self.i).copied().unwrap_or(0);
        let b = self.bytes.get(self.i + 1).copied().unwrap_or(0);
        (a, b)
    }

    /// expr := addsub (('<<'|'>>') addsub)*   — shifts bind loosest.
    fn expr(&mut self) -> Result<u64, String> {
        let mut v = self.addsub()?;
        loop {
            self.skip_ws();
            match self.peek2() {
                (b'<', b'<') => {
                    self.i += 2;
                    let r = self.addsub()?;
                    v = v
                        .checked_shl(u32::try_from(r).map_err(|_| "shift too large")?)
                        .ok_or("shift overflow")?;
                }
                (b'>', b'>') => {
                    self.i += 2;
                    let r = self.addsub()?;
                    v = v
                        .checked_shr(u32::try_from(r).map_err(|_| "shift too large")?)
                        .ok_or("shift overflow")?;
                }
                _ => break,
            }
            self.check_u32(v)?;
        }
        Ok(v)
    }

    fn addsub(&mut self) -> Result<u64, String> {
        let mut v = self.mul()?;
        loop {
            self.skip_ws();
            match self.bytes.get(self.i) {
                Some(b'+') => {
                    self.i += 1;
                    v = v.checked_add(self.mul()?).ok_or("u32 overflow in `+`")?;
                }
                Some(b'-') => {
                    self.i += 1;
                    v = v.checked_sub(self.mul()?).ok_or("u32 underflow in `-`")?;
                }
                _ => break,
            }
            self.check_u32(v)?;
        }
        Ok(v)
    }

    fn mul(&mut self) -> Result<u64, String> {
        let mut v = self.atom()?;
        loop {
            self.skip_ws();
            match self.bytes.get(self.i) {
                Some(b'*') => {
                    self.i += 1;
                    v = v.checked_mul(self.atom()?).ok_or("u32 overflow in `*`")?;
                }
                Some(b'/') => {
                    self.i += 1;
                    let d = self.atom()?;
                    v = v.checked_div(d).ok_or("division by zero")?;
                }
                _ => break,
            }
            self.check_u32(v)?;
        }
        Ok(v)
    }

    fn check_u32(&self, v: u64) -> Result<(), String> {
        if v > u64::from(u32::MAX) {
            return Err(format!("value {v} exceeds u32::MAX"));
        }
        Ok(())
    }

    fn atom(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let Some(&b) = self.bytes.get(self.i) else {
            return Err("unexpected end of expression".into());
        };
        if b == b'(' {
            self.i += 1;
            let v = self.expr()?;
            self.skip_ws();
            if self.bytes.get(self.i) != Some(&b')') {
                return Err("expected `)`".into());
            }
            self.i += 1;
            return Ok(v);
        }
        if b.is_ascii_digit() {
            return self.number();
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            return self.path();
        }
        Err(format!("unexpected byte `{}`", b as char))
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        let hex =
            self.bytes[self.i..].starts_with(b"0x") || self.bytes[self.i..].starts_with(b"0X");
        if hex {
            self.i += 2;
        }
        while self.i < self.bytes.len()
            && (self.bytes[self.i].is_ascii_alphanumeric() || self.bytes[self.i] == b'_')
        {
            self.i += 1;
        }
        let mut text = std::str::from_utf8(&self.bytes[start..self.i])
            .map_err(|_| "non-utf8 number")?
            .replace('_', "");
        // Strip a type suffix (u32, usize, ...).
        for suffix in ["u8", "u16", "u32", "u64", "usize", "i32", "i64"] {
            if let Some(t) = text.strip_suffix(suffix) {
                text = t.to_owned();
                break;
            }
        }
        let v = if let Some(h) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            u64::from_str_radix(h, 16)
        } else {
            text.parse()
        }
        .map_err(|e| format!("bad number `{text}`: {e}"))?;
        self.check_u32(v)?;
        Ok(v)
    }

    /// `u32::MAX`, `Tag::STAGE_BASE`, `STAGE_BASE`, or `Tag(expr)`.
    fn path(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.i += 1;
            } else if b == b':' && self.bytes.get(self.i + 1) == Some(&b':') {
                self.i += 2;
            } else {
                break;
            }
        }
        let path = std::str::from_utf8(&self.bytes[start..self.i]).map_err(|_| "non-utf8 path")?;
        self.skip_ws();
        if self.bytes.get(self.i) == Some(&b'(') {
            // Tuple-struct wrapper like `Tag(u32::MAX - 1)`: the value is
            // the inner expression.
            self.i += 1;
            let v = self.expr()?;
            self.skip_ws();
            if self.bytes.get(self.i) != Some(&b')') {
                return Err("expected `)` after wrapper".into());
            }
            self.i += 1;
            return Ok(v);
        }
        if path == "u32::MAX" {
            return Ok(u64::from(u32::MAX));
        }
        let last = path.rsplit("::").next().unwrap_or(path);
        resolve(last, self.consts, self.depth + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_P2P: &str = "
        pub(crate) const STAGE_BASE: u32 = u32::MAX - 2;
        pub(crate) const SERVE_BASE: u32 = Tag::STAGE_BASE - 2 * (1 << 16);
    ";
    const GOOD_BOUNDED: &str = "const MAX_CHANNEL: u32 = 1 << 16;";

    #[test]
    fn current_layout_is_disjoint() {
        assert!(check_tag_layout(GOOD_P2P, GOOD_BOUNDED).is_empty());
    }

    #[test]
    fn colliding_serve_base_is_caught() {
        let bad = GOOD_P2P.replace("Tag::STAGE_BASE - 2 * (1 << 16)", "Tag::STAGE_BASE - 100");
        let v = check_tag_layout(&bad, GOOD_BOUNDED);
        assert!(
            v.iter()
                .any(|v| v.rule == "tag-range" && v.message.contains("STAGE")),
            "{v:?}"
        );
    }

    #[test]
    fn underflowing_band_is_caught() {
        let v = check_tag_layout(GOOD_P2P, "const MAX_CHANNEL: u32 = 1 << 31;");
        assert!(!v.is_empty());
    }

    #[test]
    fn missing_const_is_a_violation() {
        let v = check_tag_layout(GOOD_P2P, "");
        assert!(v.iter().any(|v| v.message.contains("MAX_CHANNEL")));
    }

    #[test]
    fn user_band_collision_is_caught() {
        // A "reserved" base dropped into user-tag territory.
        let bad = GOOD_P2P.replace("u32::MAX - 2", "1 << 19");
        let v = check_tag_layout(&bad, GOOD_BOUNDED);
        assert!(v.iter().any(|v| v.message.contains("USER")), "{v:?}");
    }

    #[test]
    fn evaluator_handles_hex_suffix_and_precedence() {
        let mut c = BTreeMap::new();
        c.insert("A".to_owned(), "0xFF_u32 + 2 * 3".to_owned());
        c.insert("B".to_owned(), "A << 2".to_owned());
        assert_eq!(resolve("A", &c, 0), Ok(261));
        assert_eq!(resolve("B", &c, 0), Ok(1044));
    }

    #[test]
    fn underflow_in_const_arithmetic_is_an_error() {
        let mut c = BTreeMap::new();
        c.insert("A".to_owned(), "2 - 5".to_owned());
        assert!(resolve("A", &c, 0).is_err());
    }
}
