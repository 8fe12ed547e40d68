//! `sdm-analyze`: the workspace invariant checker.
//!
//! A hermetic static-analysis pass over the SDM workspace that enforces
//! the invariants the compiler cannot see. What clippy can check with
//! type information is clippy's: `unwrap_used` / `expect_used`, and
//! `disallowed-methods` for SQL text above `sdm-metadb` (root
//! `clippy.toml`) and for direct filesystem writes inside it outside
//! `wal/` (`crates/sdm-metadb/clippy.toml`). Two rules are left:
//!
//! * **`undo-coverage`** — executor fns taking `&mut Catalog` must
//!   thread an `UndoLog`.
//! * **`unused-allow`** — a suppression directive that suppressed
//!   nothing this run.
//!
//! Findings can be suppressed, with a mandatory justification, by
//! `// analyze:allow(rule-id: reason)` on the same or preceding line.
//! The binary writes `ANALYZE.json` and exits nonzero when findings
//! survive; CI runs it in the lint job.
//!
//! The lock rules (`ladder`, `held-io`, `panic-under-guard`), the call
//! graph and effect summaries they ran on, and the `sdm-ranks` rank
//! registry are gone: `Database` is one `Mutex<Engine>` and has no
//! ranked lock left to follow. `undo-coverage`'s guarantee is also
//! held behaviourally, by the rollback property in
//! `sdm-metadb/tests/crash_recovery.rs`; deleting this crate is the
//! last step of ROADMAP item 16.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scopes;

use std::fs;
use std::path::{Path, PathBuf};

use report::{AllowSite, Finding, Report};
use scopes::Model;

/// Analyze a set of sources given as `(repo-relative path, text)`
/// pairs: every rule, then suppression, then unused-allow.
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut suppressed = 0usize;
    let mut analyzed_fns = 0usize;
    for (path, source) in files {
        let model = Model::build(source);
        analyzed_fns += model.fns.iter().filter(|f| !f.is_test).count();

        // Suppression pass, tracking which directives earned their keep.
        let mut used = vec![false; model.allows.len()];
        for f in rules::check(path, &model) {
            if model.allowed(&f.rule, f.line) {
                for (u, a) in used.iter_mut().zip(&model.allows) {
                    *u |= a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line);
                }
                suppressed += 1;
            } else {
                findings.push(f);
            }
        }

        // Unused suppressions. Directives in test code are exempt (the
        // rules skip test code, so they can never be "used"), and a stale
        // directive can itself be suppressed while it is being cleaned up.
        for (a, used) in model.allows.iter().zip(used) {
            allows.push(AllowSite {
                file: path.clone(),
                line: a.line,
                rule: a.rule.clone(),
                reason: a.reason.clone(),
                used,
            });
            if used || model.is_test_line(a.line) || a.rule == "unused-allow" {
                continue;
            }
            if model.allowed("unused-allow", a.line) {
                suppressed += 1;
                continue;
            }
            findings.push(Finding {
                rule: "unused-allow".into(),
                file: path.clone(),
                line: a.line,
                snippet: model.snippet(a.line),
                message: format!(
                    "`analyze:allow({}: …)` suppressed nothing this run; remove the stale \
                     directive (or fix its rule id / move it to the offending line)",
                    a.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Report {
        analyzed_files: files.len(),
        analyzed_fns,
        rules_checked: rules::RULES.iter().map(|r| r.to_string()).collect(),
        suppressed,
        allows,
        findings,
    }
}

/// Analyze one file's source under its repo-relative path (forward
/// slashes). Returns surviving findings and the suppressed count.
pub fn analyze_file(rel_path: &str, source: &str) -> (Vec<Finding>, usize) {
    let r = analyze_sources(&[(rel_path.to_string(), source.to_string())]);
    (r.findings, r.suppressed)
}

/// Analyze every `.rs` file under `root` and assemble the report.
///
/// Walks `crates/`, `src/`, `tests/`, and `examples/`, skipping
/// `target/` and dot-directories. Files are visited in sorted path
/// order so the report is deterministic.
pub fn analyze_root(root: &Path) -> std::io::Result<Report> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();

    let mut files = Vec::new();
    for path in &paths {
        let source = fs::read_to_string(path)?;
        files.push((rel_path(root, path), source));
    }
    Ok(analyze_sources(&files))
}

/// Recursively collect `.rs` files, skipping `target` and dotted names.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Repo-relative path with forward slashes (rule scopes are defined on
/// this form).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An executor fn that mutates the catalog without threading undo.
    const UNDO_BREAK: &str = "fn mutate(c: &mut Catalog) {}";

    #[test]
    fn analyze_file_runs_all_rules() {
        let src = "// analyze:allow(undo-coverage: nothing below mutates)\n\
                   fn f(&self) {}\n\
                   fn mutate(c: &mut Catalog) {}";
        let (findings, _) = analyze_file("crates/sdm-metadb/src/exec.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["unused-allow", "undo-coverage"]);
    }

    #[test]
    fn unused_allow_is_flagged_and_used_allow_is_not() {
        let stale =
            "fn f() {\n  // analyze:allow(undo-coverage: nothing here mutates)\n  let x = 1;\n}";
        let (findings, _) = analyze_file("crates/sdm-metadb/src/exec.rs", stale);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unused-allow");
        assert_eq!(findings[0].line, 2);

        let used = format!("// analyze:allow(undo-coverage: DDL, undone by DROP)\n{UNDO_BREAK}");
        let (findings, suppressed) = analyze_file("crates/sdm-metadb/src/exec.rs", &used);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unused_allow_skips_test_code() {
        let src =
            "#[cfg(test)] mod tests {\n  // analyze:allow(undo-coverage: fixture)\n  fn t() {}\n}";
        let (findings, _) = analyze_file("crates/sdm-metadb/src/exec.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn report_carries_allow_sites() {
        let src = format!("// analyze:allow(undo-coverage: checked)\n{UNDO_BREAK}");
        let r = analyze_sources(&[("crates/sdm-metadb/src/exec.rs".into(), src)]);
        assert_eq!(r.allows.len(), 1);
        assert!(r.allows[0].used);
        assert_eq!(r.allows[0].rule, "undo-coverage");
        assert_eq!(r.rules_checked.len(), 2);
    }

    #[test]
    fn rel_path_is_forward_slashed() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/x/src/lib.rs");
        assert_eq!(rel_path(root, p), "crates/x/src/lib.rs");
    }
}
