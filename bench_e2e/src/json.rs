//! A JSON writer just big enough for the result files: insertion-ordered
//! objects, numbers with all their digits, escaped strings.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact, single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // worth seeing, so it is written as null and fails the reader.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // Debug keeps a trailing `.0` on whole floats, so a reader can
            // tell a measured 3.0 from a counted 3.
            Json::Num(x) => write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Metric and workload names: a letter or digit first, then at most 63
/// more of `[A-Za-z0-9_.-]` (the limits BENCHMARK.json is held to).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shim parser's tree, mapped back onto ours.
    fn from_parsed(j: &serde::Json) -> Json {
        match j {
            serde::Json::Bool(b) => Json::Bool(*b),
            serde::Json::I64(i) => Json::Int(u64::try_from(*i).expect("test uses no negatives")),
            serde::Json::U64(u) => Json::Int(*u),
            serde::Json::F64(x) => Json::Num(*x),
            serde::Json::Str(s) => Json::Str(s.clone()),
            serde::Json::Arr(a) => Json::Arr(a.iter().map(from_parsed).collect()),
            serde::Json::Obj(o) => Json::obj(o.iter().map(|(k, v)| (k.clone(), from_parsed(v)))),
            serde::Json::Null => panic!("null in test document"),
        }
    }

    #[test]
    fn round_trips_through_a_real_parser() {
        let doc = Json::obj([
            ("core.step_commit.host_s", Json::Num(0.001234567891)),
            ("tiny", Json::Num(1.5e-9)),
            ("whole", Json::Num(3.0)),
            ("pfs.write_ops", Json::Int(3200)),
            ("big", Json::Int(u64::MAX)),
            ("sim_io_mbps-x_1", Json::Num(153.25)),
            ("ok", Json::Bool(true)),
            (
                "why",
                Json::str("quote \" backslash \\ tab \t newline \n bell \u{7}"),
            ),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Num(-2.5)])),
            ("nested", Json::obj([("exact", Json::Bool(false))])),
        ]);
        let parsed = serde_json::parse(&doc.encode()).expect("own output must parse");
        assert_eq!(from_parsed(&parsed), doc);
        let Json::Obj(pairs) = &doc else {
            unreachable!()
        };
        assert!(pairs.iter().all(|(k, _)| valid_name(k)));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn name_rule() {
        for ok in ["setup_s", "core.import.host_s", "9x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "a b", "a/b", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
