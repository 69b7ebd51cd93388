//! CLI for apc-lint. See `--help`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let mut json = false;
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("apc-lint: --root needs a directory");
                    return 2;
                }
            },
            "--help" | "-h" => {
                print_help();
                return 0;
            }
            other => {
                eprintln!("apc-lint: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    if list {
        print_rules(json);
        return 0;
    }

    let root = root.unwrap_or_else(apc_lint::default_root);
    let report = match apc_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apc-lint: {e}");
            return 2;
        }
    };

    if json {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in report.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                apc_lint::json_escape(&v.file),
                v.line,
                v.rule,
                apc_lint::json_escape(&v.message)
            ));
        }
        if !report.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}",
            report.files_scanned,
            report.is_clean()
        ));
        println!("{out}");
    } else {
        for v in &report.violations {
            println!("{}:{}: {}: {}", v.file, v.line, v.rule, v.message);
        }
        if report.is_clean() {
            eprintln!(
                "apc-lint: clean ({} files, {} rules)",
                report.files_scanned,
                apc_lint::RULES.len()
            );
        } else {
            eprintln!(
                "apc-lint: {} violation(s) in {} files scanned \
                 (suppress a justified site with `// apc-lint: allow(<rule>): <reason>`)",
                report.violations.len(),
                report.files_scanned
            );
        }
    }
    i32::from(!report.is_clean())
}

fn print_rules(json: bool) {
    if json {
        let mut out = String::from("{\n  \"rules\": [");
        for (i, r) in apc_lint::RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"scope\": \"{}\", \"summary\": \"{}\"}}",
                r.name,
                apc_lint::json_escape(r.scope),
                apc_lint::json_escape(&normalize_ws(r.summary))
            ));
        }
        out.push_str("\n  ]\n}");
        println!("{out}");
        return;
    }
    for r in apc_lint::RULES {
        println!("{:14} [{}]", r.name, r.scope);
        println!("    {}", normalize_ws(r.summary));
    }
}

/// Collapse the multi-line literal indentation in rule summaries.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn print_help() {
    println!(
        "apc-lint: in-tree safety lint for the apc workspace
(the determinism bans live in the workspace's clippy.toml)

USAGE: cargo run -p apc-lint [--] [--list] [--json] [--root <dir>]

  (no flags)   scan the workspace; print `file:line: rule: message`
               diagnostics and exit 1 if any violation is found
  --list       list every rule with its scope and rationale
  --json       machine-readable output (for both scan and --list)
  --root DIR   scan DIR instead of the compiled-in workspace root

Suppress a justified violation in place (reason is mandatory):
  // apc-lint: allow(<rule>): <reason>        -- this / next line
  // apc-lint: allow-file(<rule>): <reason>   -- whole file"
    );
}
