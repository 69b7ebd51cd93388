//! The workspace must stay lint-clean: this is the same scan `ci.sh`
//! runs via `cargo run -p apc-lint`, expressed as a test so `cargo test
//! --workspace` alone also catches a regression. Every rule runs,
//! `dead-pub`'s cross-file scan included (`benchmark/src` read as a
//! caller), so a `pub` item whose last caller is deleted fails here.

use apc_lint::{default_root, scan_workspace};

#[test]
fn workspace_is_lint_clean() {
    let root = default_root();
    let report = scan_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "scan looks truncated: only {} files under {}",
        report.files_scanned,
        root.display()
    );
    let diagnostics: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        diagnostics.join("\n")
    );
}
