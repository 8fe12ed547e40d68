//! In-tree stand-in for the `serde_json` crate (see DESIGN.md, "Hermetic
//! build"): parses JSON text into the `serde` shim's [`Json`] tree.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::Json;

/// Parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// How deeply arrays and objects may nest (`serde_json`'s own limit):
/// the parser recurses once per level, so hostile input must not choose
/// the stack depth.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                self.at += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The rest of an array, after its `[`.
    fn parse_array(&mut self) -> Result<Json> {
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(arr));
        }
        loop {
            arr.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(arr));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// The rest of an object, after its `{`.
    fn parse_object(&mut self) -> Result<Json> {
        let mut obj = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            obj.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(obj));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by this
                            // shim's writer; reject them on input.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one char (the input is a `str`).
                    let c = (self.text.get(self.at..))
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parse JSON text into the [`Json`] tree.
pub fn parse(s: &str) -> Result<Json> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        at: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let text = r#"{"a":-3,"b":[1.5,null,true],"c":"x \"y\"\nz","d":18446744073709551615}"#;
        let v = Json::Obj(vec![
            ("a".into(), Json::I64(-3)),
            (
                "b".into(),
                Json::Arr(vec![Json::F64(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("c".into(), Json::Str("x \"y\"\nz".into())),
            ("d".into(), Json::U64(u64::MAX)),
        ]);
        assert_eq!(parse(text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{ not json").is_err());
        assert!(parse("[1,2] trailing").is_err());
    }

    #[test]
    fn nesting_is_limited_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn float_precision_survives() {
        // `{:?}` prints the shortest text that parses back to the same f64.
        let x = 0.1f64 + 0.2;
        assert_eq!(parse(&format!("{x:?}")).unwrap(), Json::F64(x));
    }
}
