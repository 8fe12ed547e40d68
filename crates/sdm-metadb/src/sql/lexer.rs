//! SQL tokenizer.

use crate::error::{DbError, DbResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (stored as written; keyword matching is
    /// case-insensitive at the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (with `''` escaping).
    Str(String),
    /// `?` positional parameter.
    Param,
    /// Punctuation / operators.
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semi,
}

/// Tokenize `input`.
pub fn lex(input: &str) -> DbResult<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '?' => {
                out.push(Token::Param);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // `--` line comment
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    out.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(DbError::Lex(format!("unexpected '!' at byte {i}")));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // Quotes are ASCII, so the text between two of them is
                // whole UTF-8: copy it as `&str` slices, not byte by byte.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(q) = input[i..].find('\'') else {
                        return Err(DbError::Lex("unterminated string literal".into()));
                    };
                    s.push_str(&input[i..i + q]);
                    i += q + 1;
                    if bytes.get(i) == Some(&b'\'') {
                        s.push('\'');
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Str(s));
            }
            '0'..='9' | '.' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] as char {
                        '0'..='9' => i += 1,
                        '.' if !is_float => {
                            is_float = true;
                            i += 1;
                        }
                        'e' | 'E' => {
                            is_float = true;
                            i += 1;
                            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| DbError::Lex(format!("bad float literal '{text}'")))?;
                    out.push(Token::Float(v));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| DbError::Lex(format!("bad int literal '{text}'")))?;
                    out.push(Token::Int(v));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                // `.` continues an identifier so qualified column names
                // (`table.column`) lex as a single token; a leading digit
                // still routes to the numeric branch above.
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '.')
                {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(DbError::Lex(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_select() {
        let toks = lex("SELECT * FROM t WHERE a >= 10").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Star,
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("a".into()),
                Token::Ge,
                Token::Int(10),
            ]
        );
    }

    #[test]
    fn lex_string_with_escape() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn lex_string_keeps_non_ascii_text() {
        assert_eq!(lex("'é日'").unwrap(), vec![Token::Str("é日".into())]);
        assert_eq!(lex("'''ü'''").unwrap(), vec![Token::Str("'ü'".into())]);
        assert!(matches!(lex("'日"), Err(DbError::Lex(_))));
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(lex("3.5").unwrap(), vec![Token::Float(3.5)]);
        assert_eq!(lex("1e3").unwrap(), vec![Token::Float(1000.0)]);
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
    }

    #[test]
    fn lex_ne_both_spellings() {
        assert_eq!(lex("<>").unwrap(), vec![Token::Ne]);
        assert_eq!(lex("!=").unwrap(), vec![Token::Ne]);
    }

    #[test]
    fn lex_params_and_punct() {
        let toks = lex("(?, ?)").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LParen,
                Token::Param,
                Token::Comma,
                Token::Param,
                Token::RParen
            ]
        );
    }

    #[test]
    fn lex_comment_skipped() {
        let toks = lex("SELECT 1 -- trailing comment\n+ 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn lex_unterminated_string_errors() {
        assert!(matches!(lex("'abc"), Err(DbError::Lex(_))));
    }

    #[test]
    fn lex_bad_char_errors() {
        assert!(matches!(lex("a # b"), Err(DbError::Lex(_))));
    }
}
