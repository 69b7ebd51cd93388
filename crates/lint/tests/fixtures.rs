//! Fixture-driven checks of every lint rule: each rule has a flagged
//! snippet, a clean snippet, and a snippet silenced by a reasoned
//! `// apc-lint: allow(...)` — plus `dead-pub`'s cross-file cases fed as
//! `(path, source)` pairs, allows that suppress nothing, and the root
//! `clippy.toml`'s determinism bans.
//! The fixture directory itself is classified `Skip`, so the workspace
//! scan never trips over these deliberately-bad files.

use apc_lint::{check_dead_pub, check_source, default_root, Violation, RULES};

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
fn unwrap_in_lib_fixtures() {
    let bad = check_as_lib("unwrap_bad.rs");
    assert_eq!(rules_hit(&bad), ["unwrap-in-lib"], "{bad:?}");
    assert_eq!(bad.len(), 3, "unwrap, expect and panic!: {bad:?}");
    assert!(check_as_lib("unwrap_clean.rs").is_empty());
    assert!(check_as_lib("unwrap_allowed.rs").is_empty());
}

#[test]
fn unwrap_rule_is_scoped_to_library_code() {
    // The same flagged snippet is legal in a binary, test or bench file.
    let src = fixture("unwrap_bad.rs");
    assert!(check_source("crates/demo/src/bin/tool.rs", &src).is_empty());
    assert!(check_source("crates/demo/tests/it.rs", &src).is_empty());
    assert!(check_source("crates/demo/benches/b.rs", &src).is_empty());
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
fn an_unwrap_allow_on_a_line_without_an_unwrap_is_allow_syntax() {
    let bad = check_as_lib("unused_allow_unwrap_bad.rs");
    assert_eq!(sites(&bad), [("allow-syntax", 3)], "{bad:?}");
}

#[test]
fn a_file_allow_the_rule_finds_nothing_under_is_allow_syntax() {
    // Clean library code, and a binary the rule does not apply to.
    let src = fixture("unused_allow_file_bad.rs");
    for path in ["crates/demo/src/lib.rs", "crates/demo/src/bin/tool.rs"] {
        let bad = check_source(path, &src);
        assert_eq!(sites(&bad), [("allow-syntax", 3)], "{path}: {bad:?}");
    }
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
fn every_rule_has_bad_and_clean_coverage() {
    // Guard against adding a rule without fixture coverage: each rule name
    // must appear in at least one fixture file name.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for rule in RULES {
        let stem = match rule.name {
            "unwrap-in-lib" => "unwrap".to_owned(),
            name => name.replace('-', "_"),
        };
        for suffix in ["_bad.rs", "_clean.rs"] {
            let c = format!("{stem}{suffix}");
            assert!(
                names.contains(&c),
                "missing fixture {c} for rule {}",
                rule.name
            );
        }
    }
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
