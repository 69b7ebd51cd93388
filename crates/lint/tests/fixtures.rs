//! Fixture-driven checks of `dead-pub` — a flagged, a clean and an
//! allowed fixture, cross-file cases fed as `(path, source)` pairs —
//! and of `allow-syntax`; plus the two halves of the policy clippy
//! enforces: the root `clippy.toml`'s determinism bans and the library
//! crate roots' panic denies. The fixture directory itself is classified
//! `Skip`, so the workspace scan never trips over these deliberately-bad
//! files.

use apc_lint::{check_dead_pub, check_source, default_root, lexer::mask_source, Violation};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Run a fixture as if it were library source in a non-exempt crate.
fn check_as_lib(name: &str) -> Vec<Violation> {
    check_source("crates/demo/src/lib.rs", &fixture(name))
}

fn rules_hit(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn malformed_allows_are_violations() {
    let bad = check_as_lib("allow_syntax_bad.rs");
    assert_eq!(rules_hit(&bad), ["allow-syntax"], "{bad:?}");
    assert_eq!(bad.len(), 2, "missing reason + unknown rule: {bad:?}");
}

/// `(rule, line)` of each violation.
fn sites(violations: &[Violation]) -> Vec<(&'static str, usize)> {
    violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn a_dead_pub_allow_on_an_item_with_a_caller_is_allow_syntax() {
    let src = fixture("unused_allow_dead_pub_bad.rs");
    let caller = (
        "crates/other/src/lib.rs",
        "fn f() -> f32 { demo::fast_sum(&[]) }",
    );
    let bad = check_dead_pub(&[("crates/demo/src/lib.rs", &src), caller]);
    assert_eq!(sites(&bad), [("allow-syntax", 2)], "{bad:?}");
}

/// `dead-pub` spans files: each fixture is `crates/demo/src/lib.rs`, and
/// `others` are the rest of the workspace. Returns the flagged names.
fn dead_pub(name: &str, others: &[(&str, &str)]) -> Vec<String> {
    let src = fixture(name);
    let mut files = vec![("crates/demo/src/lib.rs", src.as_str())];
    files.extend_from_slice(others);
    check_dead_pub(&files)
        .iter()
        .map(|v| v.message.split('`').nth(1).unwrap_or_default().to_owned())
        .collect()
}

const OTHER_CRATE: (&str, &str) = (
    "crates/other/src/lib.rs",
    "fn drive(m: &demo::Meter) -> u32 { m.reading() }",
);
const BENCHMARK: (&str, &str) = (
    "benchmark/src/main.rs",
    "pub fn unchecked() {}\nfn main() { let _ = demo::bench_entry(); }",
);

#[test]
fn dead_pub_fixtures() {
    let bad = dead_pub("dead_pub_bad.rs", &[]);
    let dead = [
        "reexported_only",
        "tested_only",
        "Orphan",
        "LIMIT",
        "Shade",
        "countdown",
    ];
    assert_eq!(bad, dead);
    assert!(dead_pub("dead_pub_clean.rs", &[OTHER_CRATE, BENCHMARK]).is_empty());
    assert!(dead_pub("dead_pub_allowed.rs", &[]).is_empty());
    assert!(check_as_lib("dead_pub_allowed.rs").is_empty());
}

#[test]
fn dead_pub_test_example_and_cfg_test_uses_are_not_callers() {
    // The bad fixture's own `#[cfg(test)]` module calls four of them.
    let call_all = "fn t() { reexported_only(); tested_only(); let _ = (Orphan, LIMIT); \
                    Shade::Dark.countdown(1); }";
    let others = [
        ("crates/demo/tests/it.rs", call_all),
        ("tests/e2e.rs", call_all),
        ("examples/ex.rs", call_all),
    ];
    assert_eq!(dead_pub("dead_pub_bad.rs", &others).len(), 6);
}

#[test]
fn dead_pub_reexport_comment_and_string_are_not_callers() {
    let umbrella = (
        "src/lib.rs",
        "pub use demo::{\n    reexported_only,\n    tested_only,\n};",
    );
    let bad = dead_pub("dead_pub_bad.rs", &[umbrella]);
    assert!(bad.iter().any(|n| n == "reexported_only"), "{bad:?}");
    assert!(bad.iter().any(|n| n == "tested_only"), "{bad:?}");
}

#[test]
fn dead_pub_benchmark_use_is_a_caller_and_is_not_checked() {
    assert_eq!(
        dead_pub("dead_pub_clean.rs", &[OTHER_CRATE]),
        ["bench_entry"]
    );
    // `unchecked` in benchmark/src has no caller either, and is not reported.
    assert!(dead_pub("dead_pub_clean.rs", &[OTHER_CRATE, BENCHMARK]).is_empty());
}

#[test]
fn dead_pub_method_called_from_another_crate_is_a_caller() {
    assert_eq!(dead_pub("dead_pub_clean.rs", &[BENCHMARK]), ["reading"]);
}

#[test]
fn dead_pub_allow_without_reason_is_allow_syntax() {
    let src = "// apc-lint: allow(dead-pub)\npub fn kept() {}\n";
    let syntax = check_source("crates/demo/src/lib.rs", src);
    assert_eq!(rules_hit(&syntax), ["allow-syntax"], "{syntax:?}");
    let dead = check_dead_pub(&[("crates/demo/src/lib.rs", src)]);
    assert_eq!(
        rules_hit(&dead),
        ["dead-pub"],
        "an unparsed allow suppresses nothing"
    );
}

#[test]
fn clippy_toml_bans_the_determinism_breakers() {
    // Clippy silently bans nothing for a dropped entry, so the list is
    // pinned here: (config key, path), each with a non-empty reason.
    let toml = std::fs::read_to_string(default_root().join("clippy.toml")).expect("clippy.toml");
    let mut key = "";
    let mut banned = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(k) = ["disallowed-methods", "disallowed-types"]
            .into_iter()
            .find(|k| line.starts_with(k))
        {
            key = k;
        }
        if let Some(rest) = line.split("path = \"").nth(1) {
            let path = rest.split('"').next().unwrap_or_default();
            let reason = line
                .split("reason = \"")
                .nth(1)
                .and_then(|r| r.split('"').next());
            assert!(
                reason.is_some_and(|r| !r.is_empty()),
                "{path} has no reason"
            );
            banned.push((key, path));
        }
    }
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "core::cmp::PartialOrd::partial_cmp",
    ] {
        assert!(
            banned.contains(&("disallowed-methods", path)),
            "{path}: {banned:?}"
        );
    }
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            banned.contains(&("disallowed-types", path)),
            "{path}: {banned:?}"
        );
    }
}

#[test]
fn library_crate_roots_deny_panics() {
    // A dropped deny line switches the panic policy off for a whole crate
    // without one clippy error (the crate's `#[expect]`s enable the lints
    // where they sit), so every library crate root is pinned here.
    // Comments are masked, so a commented-out line does not count.
    const DENY: &str = "#![cfg_attr(not(test), \
                        deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]";
    // The one exemption: a bench harness, where panicking on a bad run or
    // I/O error is the failure mode we want.
    const EXEMPT: &str = "crates/bench/src/lib.rs";
    let squeeze = |s: &str| s.split_whitespace().collect::<String>();
    let root = default_root();
    let mut libs = vec!["src/lib.rs".to_owned()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let name = entry.expect("dir entry").file_name();
        let lib = format!("crates/{}/src/lib.rs", name.to_string_lossy());
        if root.join(&lib).is_file() && lib != EXEMPT {
            libs.push(lib);
        }
    }
    for lib in libs {
        let src = std::fs::read_to_string(root.join(&lib)).expect("lib.rs");
        assert!(
            squeeze(&mask_source(&src).text).contains(&squeeze(DENY)),
            "{lib} lacks `{DENY}`"
        );
    }
}
