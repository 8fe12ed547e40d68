//! A minimal Rust token scanner.
//!
//! In-house and dependency-free, in the same spirit as `sdm-metadb`'s
//! `sql/lexer.rs`: the rules below need token streams with line numbers
//! — identifiers, string literals, punctuation — not a full grammar.
//! Comments are stripped here, but not before being mined for
//! `analyze:allow(rule: reason)` suppression directives.

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident(String),
    /// Lifetime (`'a`), kept distinct so it never looks like a char.
    Lifetime(String),
    /// String literal content (plain, raw, or byte form).
    Str(String),
    /// Character or byte-character literal.
    Char,
    /// Numeric literal (value not interpreted).
    Num,
    /// Any other single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A suppression directive mined from a comment:
/// `// analyze:allow(rule: reason)`. A directive with an empty reason is
/// **not** honored — the justification is the point — so it is simply
/// never recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Allow {
    /// 1-based line the directive's comment starts on.
    pub line: u32,
    /// The rule id being suppressed.
    pub rule: String,
    /// The (non-empty) justification.
    pub reason: String,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Suppression directives found in comments.
    pub allows: Vec<Allow>,
}

/// Scan `source` into tokens and allow-directives. The scanner is total:
/// unterminated literals simply end at EOF rather than erroring, since a
/// lint must never be the thing that fails to parse the tree it guards
/// (rustc will reject genuinely malformed files on its own).
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &source[start..i];
                // Doc comments (`///`, `//!`) are prose — they *mention*
                // the directive syntax without enacting it.
                if !text.starts_with("///") && !text.starts_with("//!") {
                    mine_allows(text, line, &mut out.allows);
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let (start, start_line) = (i, line);
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = &source[start..i];
                if !text.starts_with("/**") && !text.starts_with("/*!") {
                    mine_allows(text, start_line, &mut out.allows);
                }
            }
            '"' => {
                let (s, ni, nl) = lex_plain_string(source, i, line);
                out.tokens.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
                i = ni;
                line = nl;
            }
            '\'' => {
                // Lifetime or char literal. `'\...'` and `'x'` are
                // chars; `'ident` with no closing quote is a lifetime.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    i = skip_char_literal(b, i);
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                    i += 3;
                } else {
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Lifetime(source[start..j].to_string()),
                        line,
                    });
                    i = j;
                }
            }
            '0'..='9' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // A fraction continues the number only when a digit
                // follows the dot (so `1..n` and `1.method()` survive).
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let ident = &source[start..i];
                // String-literal prefixes: r"", r#""#, b"", br#""#, b''.
                // `r#` is ambiguous: `r#"…"#` is a raw string, `r#type`
                // a raw identifier — peek past the `#`s for a quote.
                let raw_string_follows = i < b.len()
                    && (b[i] == b'"' || {
                        let mut j = i;
                        while j < b.len() && b[j] == b'#' {
                            j += 1;
                        }
                        j > i && j < b.len() && b[j] == b'"'
                    });
                if (ident == "r" || ident == "br") && raw_string_follows {
                    let (s, ni, nl) = lex_raw_string(source, i, line);
                    out.tokens.push(Token {
                        tok: Tok::Str(s),
                        line,
                    });
                    i = ni;
                    line = nl;
                } else if ident == "b" && i < b.len() && b[i] == b'"' {
                    let (s, ni, nl) = lex_plain_string(source, i, line);
                    out.tokens.push(Token {
                        tok: Tok::Str(s),
                        line,
                    });
                    i = ni;
                    line = nl;
                } else if ident == "b" && i < b.len() && b[i] == b'\'' {
                    i = skip_char_literal(b, i);
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                    });
                } else if ident == "r"
                    && i + 1 < b.len()
                    && b[i] == b'#'
                    && is_ident_start(b[i + 1])
                {
                    // Raw identifier `r#ident`: store without the prefix.
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        tok: Tok::Ident(source[start..i].to_string()),
                        line,
                    });
                } else {
                    out.tokens.push(Token {
                        tok: Tok::Ident(ident.to_string()),
                        line,
                    });
                }
            }
            other => {
                out.tokens.push(Token {
                    tok: Tok::Punct(other),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

/// Lex a `"..."` literal starting at the opening quote; returns the
/// content, the index past the closing quote, and the updated line.
fn lex_plain_string(source: &str, start: usize, mut line: u32) -> (String, usize, u32) {
    let b = source.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'"' => return (s, i + 1, line),
            b'\\' => {
                // Keep the common escapes literal enough for prefix
                // checks; exotic ones degrade to their raw char.
                if i + 1 < b.len() {
                    match b[i + 1] {
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'0' => s.push('\0'),
                        b'\n' => line += 1, // line-continuation escape
                        c => s.push(c as char),
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            b'\n' => {
                line += 1;
                s.push('\n');
                i += 1;
            }
            c => {
                s.push(c as char);
                i += 1;
            }
        }
    }
    (s, i, line)
}

/// Lex a raw string starting at the `#`s or quote (the `r`/`br` prefix
/// is already consumed); no escapes, closed by `"` plus the same number
/// of `#`s.
fn lex_raw_string(source: &str, start: usize, mut line: u32) -> (String, usize, u32) {
    let b = source.as_bytes();
    let mut i = start;
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
    }
    let content_start = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"'
            && b.len() - (i + 1) >= hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
        {
            let content = source[content_start..i].to_string();
            return (content, i + 1 + hashes, line);
        }
        i += 1;
    }
    (source[content_start..i].to_string(), i, line)
}

/// Skip a (possibly escaped) char literal starting at the quote.
fn skip_char_literal(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    if i < b.len() && b[i] == b'\\' {
        i += 1;
        if i < b.len() && b[i] == b'u' {
            // \u{...}
            while i < b.len() && b[i] != b'}' && b[i] != b'\'' {
                i += 1;
            }
        } else if i < b.len() && b[i] == b'x' {
            i += 2;
        }
        i += 1;
    } else {
        i += 1;
    }
    while i < b.len() && b[i] != b'\'' {
        i += 1;
    }
    i + 1
}

/// Scan a comment's text for `analyze:allow(rule: reason)` directives.
fn mine_allows(comment: &str, line: u32, out: &mut Vec<Allow>) {
    const MARK: &str = "analyze:allow(";
    let mut rest = comment;
    while let Some(pos) = rest.find(MARK) {
        let after = &rest[pos + MARK.len()..];
        // The reason runs to the *last* close paren so it can itself
        // mention calls, e.g. a reason of `begin() reserved the bytes`.
        if let Some(close) = after.rfind(')') {
            let inner = &after[..close];
            if let Some((rule, reason)) = inner.split_once(':') {
                let (rule, reason) = (rule.trim(), reason.trim());
                if !rule.is_empty() && !reason.is_empty() {
                    out.push(Allow {
                        line,
                        rule: rule.to_string(),
                        reason: reason.to_string(),
                    });
                }
            }
            rest = &after[close..];
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_stripped_strings_kept() {
        let l = lex("let x = \"SELECT 1\"; // let y = \"INSERT INTO t\"");
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["SELECT 1"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(l.tokens.iter().any(|t| t.tok == Tok::Lifetime("a".into())));
        assert_eq!(l.tokens.iter().filter(|t| t.tok == Tok::Char).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        let l = lex(r####"let a = r#"UPDATE "x""#; let b = b"bytes";"####);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["UPDATE \"x\"", "bytes"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let l = lex(r#""a\"b""#);
        assert_eq!(l.tokens[0].tok, Tok::Str("a\"b".into()));
    }

    #[test]
    fn line_numbers_advance() {
        let l = lex("a\nb\n  c");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn raw_idents_lose_prefix() {
        assert_eq!(idents("r#type"), vec!["type"]);
    }

    #[test]
    fn allow_directives_need_rule_and_reason() {
        let l = lex("// analyze:allow(held-io: slot checked above)\n\
             // analyze:allow(held-io)\n\
             /* analyze:allow(ladder: fixture) */");
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].rule, "held-io");
        assert_eq!(l.allows[0].line, 1);
        assert_eq!(l.allows[1].rule, "ladder");
        assert_eq!(l.allows[1].line, 3);
    }

    #[test]
    fn allow_reasons_may_contain_parens() {
        let l = lex("// analyze:allow(panic-under-guard: begin() reserved 8 bytes at `at`)");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].reason, "begin() reserved 8 bytes at `at`");
    }

    #[test]
    fn doc_comments_are_not_mined_for_allows() {
        let l = lex("/// justified behind `// analyze:allow(held-io: why)`\n\
             //! see analyze:allow(ladder: reasons) for details\n\
             /** analyze:allow(held-io: prose) */\n\
             // analyze:allow(held-io: the real one)");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].line, 4);
        assert_eq!(l.allows[0].reason, "the real one");
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ ident");
        assert_eq!(l.tokens.len(), 1);
        assert_eq!(l.tokens[0].tok, Tok::Ident("ident".into()));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let l = lex("1..2 3.max(4) 5.5");
        let nums = l.tokens.iter().filter(|t| t.tok == Tok::Num).count();
        assert_eq!(nums, 5); // 1, 2, 3, 4, 5.5
        assert!(l.tokens.iter().any(|t| t.tok == Tok::Ident("max".into())));
    }
}
