//! The textual lint rules and the per-file analysis driver.
//!
//! Every rule scans the *masked* source produced by [`crate::lexer`] —
//! comments and literal contents are already blanked out — so a pattern
//! match here is a match on real code. Rules are deliberately lexical:
//! they cannot see types, so each one is scoped (see [`FileClass`]) and
//! suppressible in place with
//! `// apc-lint: allow(<rule>): <reason>`. An allow that suppresses
//! nothing is itself reported, as clippy fails an unfulfilled `#[expect]`.

use crate::lexer::{mask_source, Allow};

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: `crates/*/src/**` (minus `src/bin`) and the umbrella
    /// `src/`.
    Lib,
    /// Binary entry points: `**/src/bin/**`. CLI tools may panic on
    /// operator error.
    Bin,
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
    if rel.contains("/src/bin/") {
        return FileClass::Bin;
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
        return FileClass::Lib;
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

/// Static description of a rule, for `--list` and the README.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// Every rule the analyzer knows, in reporting order. The determinism bans
/// (real clocks, hash-ordered collections, raw thread spawns, NaN-unsafe
/// comparators) live in the workspace's `clippy.toml`, which resolves paths.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unwrap-in-lib",
        summary: ".unwrap() / .expect() / bare panic! in library code turns \
                  corrupt or adversarial input into a crash; return a typed \
                  error, or annotate a genuine invariant",
        scope: "lib code only, outside #[cfg(test)]",
    },
    RuleInfo {
        name: "dead-pub",
        summary: "a pub fn/struct/enum/trait/type/const/static whose name no \
                  non-test code uses: callers are crates/*/src, src/ and \
                  benchmark/src outside #[cfg(test)]; pub use re-exports, \
                  tests/, crates/*/tests and examples/ are not. Delete it, or \
                  annotate the test or run that keeps it",
        scope: "workspace-level: pub items in crates/*/src, outside #[cfg(test)]",
    },
];

/// True if `name` is a rule the analyzer knows (valid in an allow).
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Analyze one file's source text. `rel` is the workspace-relative path
/// used both for classification and in diagnostics.
pub fn check_source(rel: &str, src: &str) -> Vec<Violation> {
    let class = classify(rel);
    if class == FileClass::Skip {
        return Vec::new();
    }
    let masked = mask_source(src);
    let lines: Vec<&str> = masked.text.split('\n').collect();
    let test_lines = cfg_test_lines(&lines);
    let suppress = Suppressions::resolve(&masked.allows, &lines);

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
        if !is_known_rule(&allow.rule) {
            out.push(Violation {
                file: rel.to_owned(),
                line: allow.comment_line,
                rule: "allow-syntax",
                message: format!("allow names unknown rule `{}`", allow.rule),
            });
        }
    }

    let mut hits = Vec::new();
    if class == FileClass::Lib {
        for (idx, text) in lines.iter().enumerate() {
            if test_lines[idx] {
                continue;
            }
            for v in unwrap_like(text) {
                hits.push(Violation {
                    file: rel.to_owned(),
                    line: idx + 1,
                    rule: "unwrap-in-lib",
                    message: format!(
                        "{v} in library code; return a typed error or annotate the invariant"
                    ),
                });
            }
        }
    }
    out.extend(suppress.apply("unwrap-in-lib", rel, hits));

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Per-file suppression table resolved from the parsed allows.
pub(crate) struct Suppressions(Vec<Suppression>);

struct Suppression {
    rule: String,
    /// The line the allow covers; `None` for `allow-file`.
    target: Option<usize>,
    comment_line: usize,
}

impl Suppressions {
    pub(crate) fn resolve(allows: &[Allow], lines: &[&str]) -> Self {
        let mut entries = Vec::new();
        for a in allows {
            let target = if a.file_level {
                None
            } else if a.trailing {
                Some(a.comment_line)
            } else {
                // A standalone comment applies to the next non-blank code
                // line (comments are already blank in the masked text).
                let mut t = a.comment_line + 1;
                while t <= lines.len() && lines[t - 1].trim().is_empty() {
                    t += 1;
                }
                Some(t)
            };
            entries.push(Suppression {
                rule: a.rule.clone(),
                target,
                comment_line: a.comment_line,
            });
        }
        Suppressions(entries)
    }

    /// The `hits` of `rule` in `file` that no allow covers, plus an
    /// `allow-syntax` violation for each allow of `rule` that covers none.
    pub(crate) fn apply(&self, rule: &str, file: &str, hits: Vec<Violation>) -> Vec<Violation> {
        let covers = |s: &Suppression, v: &Violation| s.target.is_none_or(|t| t == v.line);
        let mine: Vec<&Suppression> = self.0.iter().filter(|s| s.rule == rule).collect();
        let mut out: Vec<Violation> = mine
            .iter()
            .filter(|s| !hits.iter().any(|v| covers(s, v)))
            .map(|s| Violation {
                file: file.to_owned(),
                line: s.comment_line,
                rule: "allow-syntax",
                message: format!(
                    "allow{}({rule}) suppresses nothing; delete it",
                    if s.target.is_none() { "-file" } else { "" }
                ),
            })
            .collect();
        out.extend(
            hits.into_iter()
                .filter(|v| !mine.iter().any(|s| covers(s, v))),
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

/// `.unwrap()`, `.expect(` and bare `panic!` occurrences on one masked
/// line. Word-bounded so `.unwrap_or(..)` / `.expect_err(..)` don't match.
fn unwrap_like(text: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    for (pat, label) in [
        (".unwrap", ".unwrap()"),
        (".expect", ".expect()"),
        ("panic!", "panic!"),
    ] {
        let mut from = 0usize;
        while let Some(pos) = text[from..].find(pat) {
            let start = from + pos;
            let end = start + pat.len();
            let bytes = text.as_bytes();
            let word_end = end >= bytes.len() || !is_word_byte(bytes[end]);
            let word_start = start == 0 || !is_word_byte(bytes[start - 1]);
            let hit = match pat {
                "panic!" => word_start,
                _ => word_end && next_non_ws(bytes, end) == Some(b'('),
            };
            if hit {
                found.push(label);
            }
            from = end;
        }
    }
    found
}

fn next_non_ws(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Violation> {
        check_source("crates/fake/src/lib.rs", src)
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/pipeline.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(
            classify("crates/bench/src/bin/write_dataset.rs"),
            FileClass::Bin
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
            classify("crates/lint/tests/fixtures/unwrap_bad.rs"),
            FileClass::Skip
        );
        assert_eq!(classify("README.md"), FileClass::Skip);
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn unwrap_variants() {
        let v = lint_lib("fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); }");
        assert_eq!(v.len(), 3);
        assert!(lint_lib(
            "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 0); c.expect_err(\"e\"); }"
        )
        .is_empty());
    }

    #[test]
    fn trailing_and_preceding_allows() {
        let src = "fn f() { a.unwrap(); } // apc-lint: allow(unwrap-in-lib): set just above\n\
                   // apc-lint: allow(unwrap-in-lib): len checked above\n\
                   fn g() { b.unwrap(); }\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "// apc-lint: allow(no-such-rule): hmm\nfn f() {}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
    }
}
