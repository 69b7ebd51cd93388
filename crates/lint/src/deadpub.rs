//! The `dead-pub` rule: a `pub` item in `crates/*/src` that no code but
//! tests, examples and re-exports names is dead weight, and the compiler
//! cannot say so (it sees one crate at a time, and `pub` is an API).
//!
//! The rule is name-based, with no resolver: an item is dead when its
//! name, as a whole word in masked source, appears in no caller's code
//! except at `pub` declarations. That misses an item whose name is common
//! (`new`, `len`) and never flags one that is called. A `pub` item that
//! shares its name with a live item is invisible to the rule too (a
//! builder named like another type's called constructor), and `pub`
//! fields are not items it checks.
//!
//! Whose code counts as a caller:
//!
//! * `crates/*/src` (bins included) and the umbrella `src/`, outside
//!   `#[cfg(test)]` — only the first is checked;
//! * `benchmark/src`, the end-to-end caller with a frozen API, read for
//!   names only;
//! * never a `pub use` re-export, a comment or string, `crates/*/tests`,
//!   `tests/` or `examples/`.

use std::collections::BTreeSet;

use crate::lexer::mask_source;
use crate::rules::{cfg_test_lines, classify, is_word_byte, FileClass, Suppressions, Violation};

/// Item kinds whose `pub` declarations the rule checks.
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// A word or punctuation byte of masked code, with its 1-based line.
struct Tok<'a> {
    line: usize,
    text: &'a str,
}

struct Decl {
    file: usize,
    line: usize,
    kind: &'static str,
    name: String,
}

/// Run `dead-pub` over a whole file set, given as `(workspace-relative
/// path, source)` pairs; paths decide what each file is (see the module
/// doc). A callerless item is suppressed with `// apc-lint:
/// allow(dead-pub): <reason>` on the line above its `pub`.
pub fn check_dead_pub(files: &[(&str, &str)]) -> Vec<Violation> {
    let mut used = BTreeSet::new();
    let mut decls = Vec::new();
    for (file, &(rel, src)) in files.iter().enumerate() {
        let checked = if rel.starts_with("benchmark/src/") && rel.ends_with(".rs") {
            false
        } else {
            match classify(rel) {
                FileClass::Lib | FileClass::Bin => rel.starts_with("crates/"),
                FileClass::TestLike | FileClass::Skip => continue,
            }
        };
        let masked = mask_source(src);
        let lines: Vec<&str> = masked.text.split('\n').collect();
        let in_test = cfg_test_lines(&lines);
        let suppress = Suppressions::resolve(&masked.allows, &lines);
        let toks: Vec<Tok> = tokens(&masked.text)
            .into_iter()
            .filter(|t| !in_test[t.line - 1])
            .collect();

        let mut k = 0;
        while k < toks.len() {
            let tok = &toks[k];
            if tok.text == "pub" {
                if let Some(end) = reexport_end(&toks, k) {
                    k = end;
                    continue;
                }
                if let Some((kind, n)) = declared_name(&toks, k) {
                    if checked && !suppress.allowed("dead-pub", tok.line) {
                        decls.push(Decl {
                            file,
                            line: tok.line,
                            kind,
                            name: toks[n].text.to_owned(),
                        });
                    }
                    k = n + 1;
                    continue;
                }
            }
            if !used.contains(tok.text) {
                used.insert(tok.text.to_owned());
            }
            k += 1;
        }
    }

    decls
        .into_iter()
        .filter(|d| !used.contains(&d.name))
        .map(|d| Violation {
            file: files[d.file].0.to_owned(),
            line: d.line,
            rule: "dead-pub",
            message: format!(
                "`{}` (pub {}) has no caller outside tests, examples and re-exports; \
                 delete it, or say which test or run keeps it",
                d.name, d.kind
            ),
        })
        .collect()
}

/// Words and ASCII punctuation of masked code, in order.
fn tokens(code: &str) -> Vec<Tok<'_>> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if is_word_byte(bytes[i]) {
            while i < bytes.len() && is_word_byte(bytes[i]) {
                i += 1;
            }
            out.push(Tok {
                line,
                text: &code[start..i],
            });
            continue;
        }
        if bytes[i] == b'\n' {
            line += 1;
        } else if bytes[i].is_ascii_punctuation() {
            out.push(Tok {
                line,
                text: &code[i..i + 1],
            });
        }
        i += 1;
    }
    out
}

/// For the `pub` at `k`: the index past the `;` of the re-export it opens
/// (`pub use …;`, `pub(crate) use …;`, any number of lines), if it opens one.
fn reexport_end(toks: &[Tok], k: usize) -> Option<usize> {
    let mut i = k + 1;
    if toks.get(i)?.text == "(" {
        i += toks[i..].iter().position(|t| t.text == ")")? + 1;
    }
    if toks.get(i)?.text != "use" {
        return None;
    }
    let semi = toks[i..].iter().position(|t| t.text == ";");
    Some(semi.map_or(toks.len(), |p| i + p + 1))
}

/// For the `pub` at `k`: the item kind and the index of the name it
/// declares (`pub fn f`, `pub const unsafe fn f`, `pub static mut S`, …).
/// `pub(crate)` items, fields and modules are not the rule's business.
fn declared_name(toks: &[Tok], k: usize) -> Option<(&'static str, usize)> {
    let word = |i: usize| toks.get(i).map_or("", |t| t.text);
    let mut i = k + 1;
    while matches!(word(i), "const" | "unsafe" | "async" | "extern")
        && matches!(word(i + 1), "fn" | "unsafe" | "async" | "extern" | "trait")
    {
        i += 1;
    }
    let kind = *KINDS.iter().find(|&&kind| kind == word(i))?;
    i += 1;
    if kind == "static" && word(i) == "mut" {
        i += 1;
    }
    word(i)
        .starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        .then_some((kind, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead(src: &str) -> Vec<String> {
        check_dead_pub(&[("crates/demo/src/lib.rs", src)])
            .into_iter()
            .map(|v| v.message.split('`').nth(1).unwrap_or("").to_owned())
            .collect()
    }

    #[test]
    fn every_item_form_is_found() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const unsafe fn c() {}\n\
                   pub static mut D: u8 = 0;\npub const E: u8 = 0;\npub struct F<T>(T);\n\
                   pub enum G {}\npub unsafe trait H {}\npub type I = u8;\n";
        assert_eq!(dead(src), ["a", "b", "c", "D", "E", "F", "G", "H", "I"]);
    }

    #[test]
    fn restricted_items_fields_and_modules_are_not_checked() {
        let src = "pub(crate) fn a() {}\npub(super) struct B;\npub mod c {}\n\
                   pub struct S {\n    pub field: u8,\n    pub f: fn(u8),\n}\nfn use_s(_: S) {}\n";
        assert!(dead(src).is_empty(), "{:?}", dead(src));
    }

    #[test]
    fn a_call_in_the_same_file_is_a_caller_and_the_declaration_is_not() {
        assert_eq!(dead("pub fn a() {}\npub fn b() { a() }\n"), ["b"]);
    }

    #[test]
    fn multi_line_and_restricted_reexports_are_not_callers() {
        let src = "pub use self::m::{\n    a,\n    b,\n};\npub(crate) use m::c;\n\
                   pub mod m {\n    pub fn a() {}\n    pub fn b() {}\n    pub fn c() {}\n}\n";
        assert_eq!(dead(src), ["a", "b", "c"]);
    }
}
