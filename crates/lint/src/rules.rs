//! The textual lint rules and the per-file analysis driver.
//!
//! Every rule scans the *masked* source produced by [`crate::lexer`] —
//! comments and literal contents are already blanked out — so a pattern
//! match here is a match on real code. Rules are deliberately lexical:
//! they cannot see types, so each one is scoped (see [`FileClass`]) and
//! suppressible in place with
//! `// apc-lint: allow(<rule>): <reason>`.

use crate::lexer::{mask_source, Allow};

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: `crates/*/src/**` (minus `src/bin`) and the umbrella
    /// `src/`.
    Lib,
    /// Binary entry points: `**/src/bin/**`. CLI tools may panic on
    /// operator error, but still must not break determinism.
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

/// Every rule the analyzer knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock",
        summary: "Instant::now / SystemTime::now breaks virtual-time determinism; \
                  only the apc-comm timeout machinery and bench harnesses may \
                  read the real clock (annotate those sites)",
        scope: "lib + bin code, outside #[cfg(test)]",
    },
    RuleInfo {
        name: "hash-iter",
        summary: "HashMap/HashSet iteration order is nondeterministic and must \
                  not reach output; use BTreeMap/BTreeSet, sort before iterating, \
                  or annotate a keyed-lookup-only use",
        scope: "lib + bin code, outside #[cfg(test)]",
    },
    RuleInfo {
        name: "unwrap-in-lib",
        summary: ".unwrap() / .expect() / bare panic! in library code turns \
                  corrupt or adversarial input into a crash; return a typed \
                  error, or annotate a genuine invariant",
        scope: "lib code only, outside #[cfg(test)]",
    },
    RuleInfo {
        name: "float-ord",
        summary: "partial_cmp(..).unwrap() in a comparator panics on NaN \
                  mid-collective (the PR-2 score_order bug class); use \
                  f64::total_cmp / f32::total_cmp",
        scope: "everywhere, including tests and benches",
    },
    RuleInfo {
        name: "raw-spawn",
        summary: "std::thread::{spawn, Builder, scope} outside apc-par/apc-comm \
                  bypasses the deterministic runtime and the rank thread budget",
        scope: "lib + bin code outside crates/par and crates/comm",
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

    let mut push = |line: usize, rule: &'static str, message: String| {
        if suppress.allowed(rule, line) {
            return;
        }
        out.push(Violation {
            file: rel.to_owned(),
            line,
            rule,
            message,
        });
    };

    let in_lib_like = matches!(class, FileClass::Lib | FileClass::Bin);
    let exempt_spawn = rel.starts_with("crates/par/") || rel.starts_with("crates/comm/");

    for (idx, text) in lines.iter().enumerate() {
        let line = idx + 1;
        let in_test = test_lines.get(idx).copied().unwrap_or(false);

        if in_lib_like && !in_test {
            if let Some(what) = find_any(text, &["Instant::now", "SystemTime::now"]) {
                push(
                    line,
                    "wall-clock",
                    format!("{what} reads the real clock; determinism runs on virtual time"),
                );
            }
            if let Some(what) = find_word(text, &["HashMap", "HashSet"]) {
                push(
                    line,
                    "hash-iter",
                    format!("{what} has nondeterministic iteration order; use BTreeMap/BTreeSet or annotate a keyed-lookup-only use"),
                );
            }
            if !exempt_spawn {
                if let Some(what) =
                    find_any(text, &["thread::spawn", "thread::Builder", "thread::scope"])
                {
                    push(
                        line,
                        "raw-spawn",
                        format!(
                            "{what} outside apc-par/apc-comm bypasses the deterministic runtime"
                        ),
                    );
                }
            }
        }
        if class == FileClass::Lib && !in_test {
            for v in unwrap_like(text) {
                push(
                    line,
                    "unwrap-in-lib",
                    format!("{v} in library code; return a typed error or annotate the invariant"),
                );
            }
        }
    }

    // float-ord spans lines (rustfmt splits the chain), so it scans the
    // whole masked text and applies everywhere, tests included.
    for (idx, what) in float_ord_sites(&masked.text) {
        if suppress.allowed("float-ord", idx) {
            continue;
        }
        out.push(Violation {
            file: rel.to_owned(),
            line: idx,
            rule: "float-ord",
            message: format!("partial_cmp followed by {what} panics on NaN; use total_cmp"),
        });
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Per-file suppression table resolved from the parsed allows.
pub(crate) struct Suppressions {
    /// (rule, line) pairs allowed inline.
    lines: Vec<(String, usize)>,
    /// Rules allowed file-wide.
    files: Vec<String>,
}

impl Suppressions {
    pub(crate) fn resolve(allows: &[Allow], lines: &[&str]) -> Self {
        let mut line_allows = Vec::new();
        let mut file_allows = Vec::new();
        for a in allows {
            if a.file_level {
                file_allows.push(a.rule.clone());
                continue;
            }
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
            line_allows.push((a.rule.clone(), target));
        }
        Suppressions {
            lines: line_allows,
            files: file_allows,
        }
    }

    pub(crate) fn allowed(&self, rule: &str, line: usize) -> bool {
        self.files.iter().any(|r| r == rule)
            || self.lines.iter().any(|(r, l)| r == rule && *l == line)
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

/// First match of any plain substring pattern in `text`.
fn find_any<'p>(text: &str, patterns: &[&'p str]) -> Option<&'p str> {
    patterns.iter().find(|p| text.contains(*p)).copied()
}

/// First match of any pattern that must stand as a whole word.
fn find_word<'p>(text: &str, patterns: &[&'p str]) -> Option<&'p str> {
    for p in patterns {
        let mut from = 0usize;
        while let Some(pos) = text[from..].find(p) {
            let start = from + pos;
            let end = start + p.len();
            let before_ok = start == 0 || !is_word_byte(text.as_bytes()[start - 1]);
            let after_ok = end >= text.len() || !is_word_byte(text.as_bytes()[end]);
            if before_ok && after_ok {
                return Some(p);
            }
            from = end;
        }
    }
    None
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

/// Find `partial_cmp( … ).unwrap()` / `.expect(` chains in the whole
/// masked text, crossing line breaks. Returns (1-based line, method).
fn float_ord_sites(masked: &str) -> Vec<(usize, &'static str)> {
    let bytes = masked.as_bytes();
    let mut sites = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = masked[from..].find("partial_cmp") {
        let start = from + pos;
        let mut i = start + "partial_cmp".len();
        from = i;
        // Word boundary before (avoid e.g. `my_partial_cmp`).
        if start > 0 && is_word_byte(bytes[start - 1]) {
            continue;
        }
        // Balanced argument list.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Optional whitespace, then `.unwrap` / `.expect`.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'.' {
            continue;
        }
        let rest = &masked[i..];
        let method = if rest.starts_with(".unwrap") && !starts_word(rest, ".unwrap") {
            ".unwrap()"
        } else if rest.starts_with(".expect") && !starts_word(rest, ".expect") {
            ".expect()"
        } else {
            continue;
        };
        let line = 1 + masked[..start].bytes().filter(|&b| b == b'\n').count();
        sites.push((line, method));
    }
    sites
}

/// True when the character right after `prefix` extends it into a longer
/// identifier (e.g. `.unwrap_or`).
fn starts_word(text: &str, prefix: &str) -> bool {
    text.as_bytes()
        .get(prefix.len())
        .is_some_and(|&b| is_word_byte(b))
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
            classify("crates/lint/tests/fixtures/wall_clock/bad.rs"),
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
    fn float_ord_across_lines() {
        let src = "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| {\n        a.partial_cmp(b)\n            .unwrap()\n    });\n}\n";
        let v = check_source("crates/fake/tests/t.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-ord");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn float_ord_ignores_unwrap_or() {
        let src = "fn f(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) }";
        assert!(check_source("crates/fake/src/x.rs", src)
            .iter()
            .all(|v| v.rule != "float-ord"));
    }

    #[test]
    fn trailing_and_preceding_allows() {
        let src =
            "use std::collections::HashMap; // apc-lint: allow(hash-iter): keyed lookups only\n\
                   // apc-lint: allow(unwrap-in-lib): len checked above\n\
                   fn f() { a.unwrap(); }\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn allow_with_unknown_rule_is_flagged() {
        let src = "// apc-lint: allow(no-such-rule): hmm\nfn f() {}\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
    }

    #[test]
    fn bin_files_may_unwrap_but_not_clock() {
        let src = "fn main() { x.unwrap(); let t = std::time::Instant::now(); }";
        let v = check_source("crates/bench/src/bin/tool.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
    }

    #[test]
    fn spawn_exempt_in_par_and_comm() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(check_source("crates/par/src/exec.rs", src)
            .iter()
            .all(|v| v.rule != "raw-spawn"));
        let v = check_source("crates/stage/src/engine.rs", src);
        assert!(v.iter().any(|v| v.rule == "raw-spawn"));
    }
}
