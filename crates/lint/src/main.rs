//! CLI for apc-lint. See `--help`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

fn main() {
    let code = match std::env::args().nth(1).as_deref() {
        None => scan(),
        Some("--help" | "-h") => {
            print_help();
            0
        }
        Some(other) => {
            eprintln!("apc-lint: unknown argument `{other}` (try --help)");
            2
        }
    };
    std::process::exit(code);
}

fn scan() -> i32 {
    let report = match apc_lint::scan_workspace(&apc_lint::default_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apc-lint: {e}");
            return 2;
        }
    };
    for v in &report.violations {
        println!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
    }
    if report.is_clean() {
        eprintln!("apc-lint: clean ({} files)", report.files_scanned);
    } else {
        eprintln!(
            "apc-lint: {} violation(s) in {} files scanned \
             (keep a justified item with `// apc-lint: allow(dead-pub): <reason>`)",
            report.violations.len(),
            report.files_scanned
        );
    }
    i32::from(!report.is_clean())
}

fn print_help() {
    println!(
        "apc-lint: the workspace's `dead-pub` check
(the determinism bans and the library panic policy are clippy's)

USAGE: cargo run -p apc-lint

Scans the workspace and prints `file:line: rule: message` diagnostics:
  dead-pub      a `pub` item in crates/*/src that no code but tests,
                examples or re-exports names
  allow-syntax  a malformed allow, one naming another rule, or one that
                suppresses nothing
Exits 0 when clean, 1 on any violation, 2 on a usage or I/O error.

Keep a callerless item in place (the reason is mandatory):
  // apc-lint: allow(dead-pub): <the test or run that keeps it>"
    );
}
