//! The `dead-pub` rule: a `pub` item in `crates/*/src` that no code but
//! tests, examples and re-exports names is dead weight, and the compiler
//! cannot say so (it sees one crate at a time, and `pub` is an API).
//!
//! The rule is name-based, with no resolver: an item is dead when its
//! name, as a whole word in masked source, appears in no caller's code
//! except at `pub` declarations and inside the items that own it. A `pub`
//! declaration owns its name from `pub` to its closing `;` or `}`, and an
//! `impl` block owns its self type's name, so neither an item's own body
//! nor its own `impl` blocks call it; another item in the same `impl`
//! does. That misses an item whose name is common (`new`, `len`) and
//! never flags one that is called. A `pub` item that shares its name with
//! a live item is invisible to the rule too (a builder named like another
//! type's called constructor), and `pub` fields are not items it checks.
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
/// allow(dead-pub): <reason>` on the line above its `pub`; such an allow
/// on an item that has a caller is reported as `allow-syntax`.
pub fn check_dead_pub(files: &[(&str, &str)]) -> Vec<Violation> {
    let mut used = BTreeSet::new();
    let mut decls = Vec::new();
    let mut suppressions = Vec::new();
    for (file, &(rel, src)) in files.iter().enumerate() {
        let checked = if rel.starts_with("benchmark/src/") && rel.ends_with(".rs") {
            false
        } else {
            match classify(rel) {
                FileClass::Src => rel.starts_with("crates/"),
                FileClass::TestLike | FileClass::Skip => continue,
            }
        };
        let masked = mask_source(src);
        let lines: Vec<&str> = masked.text.split('\n').collect();
        let in_test = cfg_test_lines(&lines);
        if checked {
            suppressions.push((file, Suppressions::resolve(&masked.allows, &lines)));
        }
        let toks: Vec<Tok> = tokens(&masked.text)
            .into_iter()
            .filter(|t| !in_test[t.line - 1])
            .collect();
        let owned = self_uses(&toks);

        let mut k = 0;
        while k < toks.len() {
            let tok = &toks[k];
            if tok.text == "pub" {
                if let Some(end) = reexport_end(&toks, k) {
                    k = end;
                    continue;
                }
                if let Some((kind, n)) = declared_name(&toks, k) {
                    if checked {
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
            if !owned[k] && !used.contains(tok.text) {
                used.insert(tok.text.to_owned());
            }
            k += 1;
        }
    }

    let mut out = Vec::new();
    for (file, suppress) in &suppressions {
        let dead = decls
            .iter()
            .filter(|d| d.file == *file && !used.contains(&d.name))
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
            .collect();
        out.extend(suppress.apply(files[*file].0, dead));
    }
    out
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
    is_name(word(i)).then_some((kind, i))
}

fn is_name(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
}

/// Which tokens are uses of a name inside an item that owns that name: a
/// `pub` declaration owns its own name, an `impl` block its self type's.
fn self_uses(toks: &[Tok]) -> Vec<bool> {
    let mut owned = vec![false; toks.len()];
    for k in 0..toks.len() {
        let name = match toks[k].text {
            "pub" => declared_name(toks, k).map(|(_, n)| toks[n].text),
            "impl" => impl_self_name(toks, k),
            _ => None,
        };
        if let Some(name) = name {
            let span = k..=item_end(toks, k);
            for (tok, own) in toks[span.clone()].iter().zip(&mut owned[span]) {
                *own |= tok.text == name;
            }
        }
    }
    owned
}

/// The index of the `;` or the matching `}` that ends the item opened at
/// `k` (the last token if the file ends first).
fn item_end(toks: &[Tok], k: usize) -> usize {
    let mut depth = 0usize;
    for (i, tok) in toks.iter().enumerate().skip(k) {
        match tok.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0 && matches!(tok.text, ";" | "}") {
            return i;
        }
    }
    toks.len() - 1
}

/// For an item-position `impl` at `k`: the last path segment of its self
/// type (`Reader` in `impl<'a, B: Io> Reader<'a, B>` and in `impl Read for
/// io::Reader`). `None` for an `impl Trait` type and a self type with no
/// name at its top level (a slice, a tuple).
fn impl_self_name<'a>(toks: &[Tok<'a>], k: usize) -> Option<&'a str> {
    let item_start = k.checked_sub(1).map_or("", |p| toks[p].text);
    if !matches!(item_start, "" | ";" | "{" | "}" | "]" | "unsafe") {
        return None;
    }
    let mut depth = 0usize;
    let mut name = None;
    for (i, tok) in toks.iter().enumerate().skip(k + 1) {
        match tok.text {
            "{" | "where" if depth == 0 => break,
            "<" | "(" | "[" => depth += 1,
            ">" if toks[i - 1].text == "-" => {}
            ">" | ")" | "]" => depth = depth.saturating_sub(1),
            "for" if depth == 0 => name = None,
            word if depth == 0 && is_name(word) => name = Some(word),
            _ => {}
        }
    }
    name
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
    fn an_items_own_body_and_impl_blocks_are_not_callers() {
        let src = "pub struct R<'a, B: ?Sized>(&'a B);\n\
                   impl<'a, B: Io + ?Sized> R<'a, B> {\n    pub fn open(b: &B) -> R<'_, B> { R(b) }\n}\n\
                   impl<F: Fn() -> u8> Tr for crate::m::R<'_, F> where F: Copy { fn t() -> R { R } }\n\
                   pub fn spin(n: u8) -> u8 { if n == 0 { 0 } else { spin(n - 1) } }\n\
                   pub fn run(x: impl Into<u8>) -> u8 { open(x) }\n";
        assert_eq!(dead(src), ["R", "spin", "run"]);
    }

    #[test]
    fn trailing_and_standalone_allows_cover_their_item() {
        let src = "pub fn a() {} // apc-lint: allow(dead-pub): the oracle test calls it\n\
                   // apc-lint: allow(dead-pub): the oracle test calls it\n\
                   pub fn b() {}\n";
        assert!(dead(src).is_empty(), "{:?}", dead(src));
    }

    #[test]
    fn multi_line_and_restricted_reexports_are_not_callers() {
        let src = "pub use self::m::{\n    a,\n    b,\n};\npub(crate) use m::c;\n\
                   pub mod m {\n    pub fn a() {}\n    pub fn b() {}\n    pub fn c() {}\n}\n";
        assert_eq!(dead(src), ["a", "b", "c"]);
    }
}
