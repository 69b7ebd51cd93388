//! Hand-rolled Rust surface lexer: masks comments and string/char literal
//! contents out of a source file (in the same spirit as the strict little
//! parser in `apc_store::json`) so [`crate::deadpub`] can read names in
//! code without tripping over prose, and collects the
//! `apc-lint: allow(...)` suppression directives that live in comments.
//!
//! The masked text has exactly the same length and line structure as the
//! input: every byte inside a comment, and every byte inside a string or
//! character literal (the delimiters stay), is replaced by a space, and
//! newlines are kept verbatim. Rules therefore report real line numbers by
//! counting newlines in the masked text.

/// A parsed suppression directive.
///
/// Grammar (inside any `//` or `/* */` comment):
///
/// ```text
/// // apc-lint: allow(<rule>): <reason>   — suppress on this/next line
/// ```
///
/// The reason is mandatory: an allow that cannot say why it exists is
/// reported as an `allow-syntax` violation by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Free-text justification after the second colon.
    pub reason: String,
    /// 1-based line the comment starts on.
    pub comment_line: usize,
    /// True when the comment shares its line with code (trailing comment),
    /// in which case the directive applies to `comment_line` itself rather
    /// than to the next code line.
    pub trailing: bool,
}

/// A comment that contains the `apc-lint:` marker but does not parse as a
/// valid directive (bad shape, unknown form, or missing reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    pub line: usize,
    pub what: String,
}

/// Output of [`mask_source`].
#[derive(Debug)]
pub struct Masked {
    /// Source with comments and literal contents replaced by spaces.
    pub text: String,
    /// Well-formed suppression directives found in comments.
    pub allows: Vec<Allow>,
    /// Malformed `apc-lint:` comments (reported as violations).
    pub bad_allows: Vec<BadAllow>,
}

/// Strip comments and string/char literal contents from `src`.
pub fn mask_source(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut allows = Vec::new();
    let mut bad_allows = Vec::new();
    let mut line = 1usize;
    // True once any non-whitespace code byte has been emitted on the
    // current line — decides whether a comment is trailing.
    let mut code_on_line = false;
    let mut i = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                out.push(b'\n');
                line += 1;
                code_on_line = false;
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
                let comment = &src[start..i];
                scan_comment(comment, line, code_on_line, &mut allows, &mut bad_allows);
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment; Rust block comments nest.
                let start = i;
                let start_line = line;
                let trailing = code_on_line;
                let mut depth = 1usize;
                out.push(b' ');
                out.push(b' ');
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            out.push(b'\n');
                            line += 1;
                        } else {
                            out.push(b' ');
                        }
                        i += 1;
                    }
                }
                let comment = &src[start..i];
                scan_comment(comment, start_line, trailing, &mut allows, &mut bad_allows);
            }
            b'"' => {
                i = mask_string(bytes, i, &mut out, &mut line);
                code_on_line = true;
            }
            b'\'' => {
                i = mask_char_or_lifetime(bytes, i, &mut out);
                code_on_line = true;
            }
            _ => {
                // Raw / byte string prefixes: r" r#" b" br" rb" (only when
                // the prefix is not the tail of a longer identifier).
                let ident_boundary = i == 0 || !is_ident_byte(bytes[i - 1]);
                if ident_boundary && (b == b'r' || b == b'b') {
                    if let Some(next) = raw_or_byte_string(bytes, i, &mut out, &mut line) {
                        i = next;
                        code_on_line = true;
                        continue;
                    }
                }
                out.push(b);
                if !b.is_ascii_whitespace() {
                    code_on_line = true;
                }
                i += 1;
            }
        }
    }

    let text = String::from_utf8_lossy(&out).into_owned();
    Masked {
        text,
        allows,
        bad_allows,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Mask a normal `"..."` string starting at `i` (which points at the
/// opening quote). Returns the index just past the closing quote.
fn mask_string(bytes: &[u8], mut i: usize, out: &mut Vec<u8>, line: &mut usize) -> usize {
    out.push(b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                out.push(b' ');
                if bytes[i + 1] == b'\n' {
                    out.push(b'\n');
                    *line += 1;
                } else {
                    out.push(b' ');
                }
                i += 2;
            }
            b'"' => {
                out.push(b'"');
                return i + 1;
            }
            b'\n' => {
                out.push(b'\n');
                *line += 1;
                i += 1;
            }
            _ => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    i
}

/// Distinguish a char literal from a lifetime at `i` (which points at the
/// `'`). Lifetimes emit the quote and move on; char literals are masked.
fn mask_char_or_lifetime(bytes: &[u8], i: usize, out: &mut Vec<u8>) -> usize {
    // 'x' or '\..' forms; '\u{...}' is the longest escape we accept.
    if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
        // Escaped char literal: scan (bounded) for the closing quote.
        let mut j = i + 2;
        let limit = (i + 16).min(bytes.len());
        while j < limit && bytes[j] != b'\'' {
            j += 1;
        }
        if j < limit {
            out.push(b'\'');
            for _ in (i + 1)..j {
                out.push(b' ');
            }
            out.push(b'\'');
            return j + 1;
        }
    } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\'' {
        out.push(b'\'');
        out.push(b' ');
        out.push(b'\'');
        return i + 3;
    } else if i + 1 < bytes.len() && (bytes[i + 1] & 0x80) != 0 {
        // Multi-byte UTF-8 char literal: find the closing quote.
        let mut j = i + 1;
        let limit = (i + 8).min(bytes.len());
        while j < limit && bytes[j] != b'\'' {
            j += 1;
        }
        if j < limit {
            out.push(b'\'');
            for _ in (i + 1)..j {
                out.push(b' ');
            }
            out.push(b'\'');
            return j + 1;
        }
    }
    // Lifetime (or stray quote): keep the quote, mask nothing.
    out.push(b'\'');
    i + 1
}

/// Try to consume a raw/byte string (`r"`, `r#"`, `b"`, `br#"`, `rb"`)
/// starting at `i`. Returns `None` if this is not one.
fn raw_or_byte_string(
    bytes: &[u8],
    i: usize,
    out: &mut Vec<u8>,
    line: &mut usize,
) -> Option<usize> {
    let mut j = i;
    // Consume a prefix of at most two of {r, b} (covers r, b, rb, br).
    let mut prefix = 0usize;
    while j < bytes.len() && prefix < 2 && (bytes[j] == b'r' || bytes[j] == b'b') {
        j += 1;
        prefix += 1;
    }
    let raw = bytes[i..j].contains(&b'r');
    if raw {
        // Count hashes, then require a quote.
        let mut hashes = 0usize;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'"' {
            return None;
        }
        for _ in i..j {
            out.push(b' ');
        }
        out.push(b'"');
        j += 1;
        // Scan for `"` followed by `hashes` hashes.
        while j < bytes.len() {
            if bytes[j] == b'"' && bytes.len() - j > hashes {
                let end = j + 1 + hashes;
                if bytes[j + 1..end].iter().all(|&h| h == b'#') {
                    out.push(b'"');
                    for _ in 0..hashes {
                        out.push(b' ');
                    }
                    return Some(end);
                }
            }
            if bytes[j] == b'\n' {
                out.push(b'\n');
                *line += 1;
            } else {
                out.push(b' ');
            }
            j += 1;
        }
        Some(j)
    } else {
        // Plain byte string b"..." (escapes like a normal string).
        if j >= bytes.len() || bytes[j] != b'"' {
            return None;
        }
        for _ in i..j {
            out.push(b' ');
        }
        Some(mask_string(bytes, j, out, line))
    }
}

/// Parse a comment that *starts* with the `apc-lint:` marker. Mentions of
/// the marker later in a comment (docs, prose, quoted examples) are not
/// directives — a directive is always the whole comment.
fn scan_comment(
    comment: &str,
    line: usize,
    trailing: bool,
    allows: &mut Vec<Allow>,
    bad_allows: &mut Vec<BadAllow>,
) {
    // Strip exactly the comment opener: `//`, `/*`, plus one optional doc
    // sigil (`/`, `!` or `*`), then whitespace.
    let mut body = comment;
    for opener in ["//", "/*"] {
        if let Some(b) = body.strip_prefix(opener) {
            body = b;
            break;
        }
    }
    let body = body
        .strip_prefix(['/', '!', '*'])
        .unwrap_or(body)
        .trim_start();
    let Some(rest) = body.strip_prefix("apc-lint:") else {
        return;
    };
    let Some(rest) = rest.trim_start().strip_prefix("allow(") else {
        bad_allows.push(BadAllow {
            line,
            what: "expected `allow(<rule>): <reason>`".into(),
        });
        return;
    };
    let Some(close) = rest.find(')') else {
        bad_allows.push(BadAllow {
            line,
            what: "unclosed `(` in allow directive".into(),
        });
        return;
    };
    let rule = rest[..close].trim().to_owned();
    let after = rest[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        bad_allows.push(BadAllow {
            line,
            what: "missing `: <reason>` after allow directive".into(),
        });
        return;
    };
    let reason = reason.trim().trim_end_matches("*/").trim().to_owned();
    if reason.is_empty() {
        bad_allows.push(BadAllow {
            line,
            what: "allow directive must give a reason".into(),
        });
        return;
    }
    allows.push(Allow {
        rule,
        reason,
        comment_line: line,
        trailing,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = r#"let x = "Instant::now"; // Instant::now in a comment
let y = 'a'; /* HashMap */ let z: u8 = b'\n';"#;
        let m = mask_source(src);
        assert!(!m.text.contains("Instant"));
        assert!(!m.text.contains("HashMap"));
        assert!(m.text.contains("let y ="));
        assert_eq!(m.text.lines().count(), src.lines().count());
        assert_eq!(m.text.len(), src.len());
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let src = "let a = r#\"panic!(\"x\")\"#; let b = br\"HashSet\"; let c = b\"unwrap()\";";
        let m = mask_source(src);
        assert!(!m.text.contains("panic!"));
        assert!(!m.text.contains("HashSet"));
        assert!(!m.text.contains("unwrap"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.trim() }";
        let m = mask_source(src);
        assert!(m.text.contains("x.trim()"));
    }

    #[test]
    fn quote_char_literal_does_not_open_string() {
        let src = "let q = '\"'; let bad = HashSet::new();";
        let m = mask_source(src);
        assert!(m.text.contains("HashSet"), "masked: {}", m.text);
    }

    #[test]
    fn parses_standalone_and_trailing_allows() {
        let src = "\n// apc-lint: allow(dead-pub): kept for the oracle\nfoo();\nbar(); // apc-lint: allow(other): why\n";
        let m = mask_source(src);
        assert_eq!(m.allows.len(), 2);
        assert_eq!(m.allows[0].rule, "dead-pub");
        assert_eq!(m.allows[0].reason, "kept for the oracle");
        assert!(!m.allows[0].trailing);
        assert_eq!(m.allows[0].comment_line, 2);
        assert_eq!(m.allows[1].rule, "other");
        assert!(m.allows[1].trailing);
        assert!(m.bad_allows.is_empty());
    }

    #[test]
    fn malformed_allow_is_reported() {
        for bad in [
            "// apc-lint: allow(dead-pub)",         // no reason
            "// apc-lint: allow(dead-pub):",        // empty reason
            "// apc-lint: deny(dead-pub): why not", // unknown form
            "// apc-lint: allow(dead-pub: oops",    // unclosed paren
        ] {
            let m = mask_source(bad);
            assert!(m.allows.is_empty(), "{bad}");
            assert_eq!(m.bad_allows.len(), 1, "{bad}");
        }
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner panic! */ still comment */ code();";
        let m = mask_source(src);
        assert!(!m.text.contains("panic!"));
        assert!(m.text.contains("code();"));
    }
}
