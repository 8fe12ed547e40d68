//! In-tree stand-in for the `serde_json` crate (see DESIGN.md, "Hermetic
//! build"): prints and parses the `serde` shim's [`Json`] tree as JSON
//! text.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Json, Serialize};

/// Serialization/parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

// ---- writing ----

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::I64(i) => out.push_str(&i.to_string()),
        Json::U64(u) => out.push_str(&u.to_string()),
        Json::F64(d) => {
            if d.is_finite() {
                // `{:?}` prints the shortest representation that parses
                // back to the same f64, and always includes `.` or `e`.
                out.push_str(&format!("{d:?}"));
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(a) => {
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, e);
            }
            out.push(']');
        }
        Json::Obj(o) => {
            out.push('{');
            for (i, (k, e)) in o.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_json(out, e);
            }
            out.push('}');
        }
    }
}

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_json(&mut out, &value.to_json());
    Ok(out)
}

// ---- parsing ----

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

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let tree = parse(s)?;
    Ok(T::from_json(&tree)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::I64(-3)),
            (
                "b".into(),
                Json::Arr(vec![Json::F64(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("c".into(), Json::Str("x \"y\"\nz".into())),
            ("d".into(), Json::U64(u64::MAX)),
        ]);
        let text = {
            let mut s = String::new();
            super::write_json(&mut s, &v);
            s
        };
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<(u32, String)> = vec![(1, "one".into()), (2, "two".into())];
        let s = to_string(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Vec<u32>>("{ not json").is_err());
        assert!(from_str::<Vec<u32>>("[1,2] trailing").is_err());
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
        let x = 0.1f64 + 0.2;
        let s = to_string(&x).unwrap();
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, x);
    }
}
