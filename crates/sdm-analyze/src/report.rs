//! Findings and the machine-readable report, `ANALYZE.json`.
//!
//! The JSON writer is hand-rolled (the analyzer depends on nothing
//! outside the workspace); the schema is flat and stable so CI can
//! archive and diff it.

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`undo-coverage` or `unused-allow`).
    pub rule: String,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// The trimmed source line, for humans reading the report.
    pub snippet: String,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// One `// analyze:allow(rule: reason)` directive found in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// Rule id it suppresses.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Whether the directive actually suppressed or filtered anything
    /// this run; `false` feeds the `unused-allow` rule.
    pub used: bool,
}

/// The full analysis result for a workspace.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub analyzed_files: usize,
    /// Number of non-test functions scanned.
    pub analyzed_fns: usize,
    /// Rule ids that ran.
    pub rules_checked: Vec<String>,
    /// Findings suppressed by `analyze:allow` directives.
    pub suppressed: usize,
    /// Every suppression directive in the workspace, with usage.
    pub allows: Vec<AllowSite>,
    /// Surviving findings, ordered by file then line.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Serialize to the `ANALYZE.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"analyzed_files\": {},", self.analyzed_files);
        let _ = writeln!(out, "  \"analyzed_fns\": {},", self.analyzed_fns);
        out.push_str("  \"rules_checked\": [");
        for (i, r) in self.rules_checked.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(r));
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        out.push_str("  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(
                out,
                "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}, \"used\": {}}}",
                json_string(&a.file),
                a.line,
                json_string(&a.rule),
                json_string(&a.reason),
                a.used
            );
        }
        if !self.allows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            let _ = write!(
                out,
                "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}",
                json_string(&f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.snippet),
                json_string(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The one-line human summary CI prints.
    pub fn summary(&self) -> String {
        format!(
            "analyzed_files={} analyzed_fns={} rules_checked={} suppressed={} findings={}",
            self.analyzed_files,
            self.analyzed_fns,
            self.rules_checked.len(),
            self.suppressed,
            self.findings.len()
        )
    }
}

/// Escape a string per JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            analyzed_files: 2,
            analyzed_fns: 7,
            rules_checked: vec!["undo-coverage".into()],
            suppressed: 1,
            allows: vec![AllowSite {
                file: "a.rs".into(),
                line: 2,
                rule: "undo-coverage".into(),
                reason: "checked above".into(),
                used: true,
            }],
            findings: vec![Finding {
                rule: "undo-coverage".into(),
                file: "a.rs".into(),
                line: 3,
                snippet: "fn mutate(c: &mut Catalog) {}".into(),
                message: "no".into(),
            }],
        }
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_round_trip_shape() {
        let r = sample();
        let j = r.to_json();
        assert!(j.contains("\"analyzed_files\": 2"));
        assert!(j.contains("\"analyzed_fns\": 7"));
        assert!(j.contains("\"rules_checked\": [\"undo-coverage\"]"));
        assert!(j.contains("\"line\": 3"));
        assert!(j.contains("\"used\": true"));
        assert!(j.contains("\"snippet\": \"fn mutate(c: &mut Catalog) {}\", \"message\": \"no\"}"));
        assert_eq!(
            r.summary(),
            "analyzed_files=2 analyzed_fns=7 rules_checked=1 suppressed=1 findings=1"
        );
    }

    #[test]
    fn empty_findings_is_empty_array() {
        let r = Report {
            analyzed_files: 0,
            analyzed_fns: 0,
            rules_checked: vec![],
            suppressed: 0,
            allows: vec![],
            findings: vec![],
        };
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(r.to_json().contains("\"allows\": []"));
    }
}
