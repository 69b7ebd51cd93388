//! `apc-lint` — in-tree safety lint for the apc workspace.
//!
//! It checks what clippy cannot: unannotated panics in library code and
//! `pub` items that nothing but tests call. The determinism bans (real
//! clocks, hash-ordered collections, raw thread spawns, `partial_cmp`) are
//! the workspace's `clippy.toml`, which resolves paths. This crate is a
//! zero-dependency, hand-rolled analyzer (lexer in [`lexer`], rules in
//! [`rules`], the cross-file caller check in [`deadpub`]) run from CI as
//! `cargo run -p apc-lint`.
//!
//! Rules (see [`rules::RULES`] or `cargo run -p apc-lint -- --list`):
//!
//! | rule | guards against |
//! |------|----------------|
//! | `unwrap-in-lib` | panics on corrupt/adversarial input in libraries |
//! | `dead-pub` | `pub` items that only tests, examples or re-exports name |
//!
//! Violations are suppressed in place, never globally:
//!
//! ```text
//! // apc-lint: allow(unwrap-in-lib): the length is checked one line up
//! // apc-lint: allow-file(unwrap-in-lib): bench harness; panic on I/O error is the failure mode we want
//! ```
//!
//! A directive on its own line applies to the next code line; a trailing
//! directive applies to its own line; the reason is mandatory and an
//! unknown rule name or missing reason is itself a violation
//! (`allow-syntax`), as is an allow that suppresses nothing (the way
//! clippy fails an unfulfilled `#[expect]`).

pub mod deadpub;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use deadpub::check_dead_pub;
pub use rules::{check_source, classify, FileClass, RuleInfo, Violation, RULES};

/// Result of scanning a workspace tree.
#[derive(Debug)]
pub struct Report {
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files actually scanned (diagnostics).
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Scan the workspace rooted at `root`: every `.rs` file under `crates/`,
/// `src/`, `tests/` and `examples/` goes through the textual rules, and
/// `dead-pub` runs over all of them plus `benchmark/src` (a caller only).
/// Files are visited in sorted order so the report is deterministic.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benchmark/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push((relative(root, path), src));
    }

    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    for (rel, src) in &files {
        if classify(rel) == FileClass::Skip {
            continue;
        }
        files_scanned += 1;
        violations.extend(check_source(rel, src));
    }
    let sources: Vec<(&str, &str)> = files
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    violations.extend(check_dead_pub(&sources));

    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule)
            .cmp(&(&b.file, b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(Report {
        violations,
        files_scanned,
    })
}

/// Locate the workspace root from the compiled-in manifest dir, so
/// `cargo run -p apc-lint` works from any cwd inside the repo.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn collect_rs_files(dir: &Path, into: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, into)?;
        } else if name.ends_with(".rs") {
            into.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Minimal JSON string escape for the `--json` output mode (hand-rolled,
/// like everything else in this crate).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
