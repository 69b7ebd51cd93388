//! The per-file analysis driver: path classes, diagnostics, and the
//! in-place suppressions every file may carry.
//!
//! Every check scans the *masked* source produced by [`crate::lexer`] —
//! comments and literal contents are already blanked out — so a pattern
//! match here is a match on real code. A `dead-pub` site is suppressible
//! in place with `// apc-lint: allow(dead-pub): <reason>`; a malformed
//! directive, one naming another rule, and one that suppresses nothing
//! are `allow-syntax` violations, as clippy fails an unfulfilled
//! `#[expect]`.

use crate::lexer::{mask_source, Allow};

/// The one rule an allow may name.
const DEAD_PUB: &str = "dead-pub";

/// Where a file sits in the workspace; decides what it is to `dead-pub`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library and binary code: `crates/*/src/**` and the umbrella `src/`.
    Src,
    /// Integration tests, benches and examples: `crates/*/tests/**`,
    /// `crates/*/benches/**`, top-level `tests/**` and `examples/**`.
    TestLike,
    /// Not scanned (lint fixtures, unknown layout).
    Skip,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    if !rel.ends_with(".rs") || rel.contains("/tests/fixtures/") {
        return FileClass::Skip;
    }
    let test_like = |r: &str| {
        r.starts_with("tests/")
            || r.starts_with("examples/")
            || (r.starts_with("crates/") && (r.contains("/tests/") || r.contains("/benches/")))
    };
    if test_like(rel) {
        return FileClass::TestLike;
    }
    if rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/")) {
        return FileClass::Src;
    }
    FileClass::Skip
}

/// One diagnostic. Rendered as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// The `allow-syntax` violations of one file's directives: a malformed
/// one, and one naming a rule other than `dead-pub`. `rel` is the
/// workspace-relative path used for classification and in diagnostics.
pub fn check_source(rel: &str, src: &str) -> Vec<Violation> {
    if classify(rel) == FileClass::Skip {
        return Vec::new();
    }
    let masked = mask_source(src);
    let mut out = Vec::new();
    for bad in &masked.bad_allows {
        out.push(Violation {
            file: rel.to_owned(),
            line: bad.line,
            rule: "allow-syntax",
            message: bad.what.clone(),
        });
    }
    for allow in &masked.allows {
        if allow.rule != DEAD_PUB {
            out.push(Violation {
                file: rel.to_owned(),
                line: allow.comment_line,
                rule: "allow-syntax",
                message: format!("allow names unknown rule `{}`", allow.rule),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Per-file table of the lines the `allow(dead-pub)`s cover.
pub(crate) struct Suppressions(Vec<Suppression>);

struct Suppression {
    /// The line the allow covers.
    target: usize,
    comment_line: usize,
}

impl Suppressions {
    pub(crate) fn resolve(allows: &[Allow], lines: &[&str]) -> Self {
        let mut entries = Vec::new();
        for a in allows.iter().filter(|a| a.rule == DEAD_PUB) {
            let target = if a.trailing {
                a.comment_line
            } else {
                // A standalone comment applies to the next non-blank code
                // line (comments are already blank in the masked text).
                let mut t = a.comment_line + 1;
                while t <= lines.len() && lines[t - 1].trim().is_empty() {
                    t += 1;
                }
                t
            };
            entries.push(Suppression {
                target,
                comment_line: a.comment_line,
            });
        }
        Suppressions(entries)
    }

    /// The `hits` in `file` that no allow covers, plus an `allow-syntax`
    /// violation for each allow that covers none.
    pub(crate) fn apply(&self, file: &str, hits: Vec<Violation>) -> Vec<Violation> {
        let covers = |s: &Suppression, v: &Violation| s.target == v.line;
        let mut out: Vec<Violation> = self
            .0
            .iter()
            .filter(|s| !hits.iter().any(|v| covers(s, v)))
            .map(|s| Violation {
                file: file.to_owned(),
                line: s.comment_line,
                rule: "allow-syntax",
                message: format!("allow({DEAD_PUB}) suppresses nothing; delete it"),
            })
            .collect();
        out.extend(
            hits.into_iter()
                .filter(|v| !self.0.iter().any(|s| covers(s, v))),
        );
        out
    }
}

/// Mark every line inside a `#[cfg(test)]` item (attribute line through the
/// item's closing brace). Works on masked lines, so braces in strings or
/// comments cannot unbalance the count.
pub(crate) fn cfg_test_lines(lines: &[&str]) -> Vec<bool> {
    let joined = lines.join("\n");
    let mut flags = vec![false; lines.len()];
    // Byte offset -> line number lookup.
    let mut line_starts = vec![0usize];
    for (i, b) in joined.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(l) => l,
        Err(l) => l - 1,
    };

    let mut search = 0usize;
    while let Some(pos) = joined[search..].find("#[cfg(test)]") {
        let start = search + pos;
        let mut i = start + "#[cfg(test)]".len();
        let bytes = joined.as_bytes();
        // Skip whitespace and further attributes to the item, then to its
        // opening `{` (or a `;` for brace-less items).
        let mut depth = 0usize;
        let mut end = joined.len();
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    depth += 1;
                    i += 1;
                    break;
                }
                b';' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => i += 1,
            }
        }
        if depth > 0 {
            while i < bytes.len() && depth > 0 {
                match bytes[i] {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
            end = i.saturating_sub(1);
        }
        let first = line_of(start);
        let last = line_of(end.min(joined.len().saturating_sub(1)));
        for f in flags.iter_mut().take(last + 1).skip(first) {
            *f = true;
        }
        search = start + "#[cfg(test)]".len();
    }
    flags
}

pub(crate) fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/pipeline.rs"), FileClass::Src);
        assert_eq!(classify("src/lib.rs"), FileClass::Src);
        assert_eq!(
            classify("crates/bench/src/bin/write_dataset.rs"),
            FileClass::Src
        );
        assert_eq!(classify("tests/properties.rs"), FileClass::TestLike);
        assert_eq!(
            classify("crates/comm/tests/session_stress.rs"),
            FileClass::TestLike
        );
        assert_eq!(
            classify("crates/bench/benches/figures.rs"),
            FileClass::TestLike
        );
        assert_eq!(
            classify("examples/scoremap_explorer.rs"),
            FileClass::TestLike
        );
        assert_eq!(
            classify("crates/lint/tests/fixtures/dead_pub_bad.rs"),
            FileClass::Skip
        );
        assert_eq!(classify("README.md"), FileClass::Skip);
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "// apc-lint: allow(no-such-rule): hmm\nfn f() {}\n";
        let v = check_source("crates/fake/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
    }
}
