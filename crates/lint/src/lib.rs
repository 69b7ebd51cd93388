//! `apc-lint` — in-tree lint for the apc workspace.
//!
//! It checks the one thing clippy cannot: `dead-pub`, a `pub` item in
//! `crates/*/src` that nothing but tests, examples or re-exports names
//! (clippy sees one crate at a time, where `pub` is an API). Clippy holds
//! the rest of the policy: the determinism bans are the workspace's
//! `clippy.toml`, and every library crate root denies `unwrap_used`,
//! `expect_used` and `panic`. This crate is a zero-dependency, hand-rolled
//! analyzer (lexer in [`lexer`], path classes and suppressions in
//! [`rules`], the cross-file caller check in [`deadpub`]) run from CI as
//! `cargo run -p apc-lint`.
//!
//! A callerless item is kept with a reasoned allow, never globally:
//!
//! ```text
//! // apc-lint: allow(dead-pub): tests/oracle.rs compares the fast path against it
//! ```
//!
//! A directive on its own line applies to the next code line; a trailing
//! directive applies to its own line; the reason is mandatory. A missing
//! reason, a rule name other than `dead-pub` and an allow that suppresses
//! nothing are each a violation (`allow-syntax`), the way clippy fails an
//! unfulfilled `#[expect]`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod deadpub;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use deadpub::check_dead_pub;
pub use rules::{check_source, classify, FileClass, Violation};

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
/// `src/`, `tests/` and `examples/` has its allows checked, and
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
