//! End-to-end self-tests: each rule trips on a known-bad fixture and
//! stays quiet on its known-good twin, and the real workspace analyzes
//! clean.
//!
//! Fixtures are inline strings, not files on disk — a standalone `.rs`
//! fixture would itself be scanned by the workspace walk and break the
//! clean-workspace test.

use sdm_analyze::analyze_file;

fn rules_hit(path: &str, src: &str) -> Vec<String> {
    let (findings, _) = analyze_file(path, src);
    findings.into_iter().map(|f| f.rule).collect()
}

// -------------------------------------------------------- undo-coverage

#[test]
fn undo_coverage_bad_signature_is_flagged() {
    let src = "pub fn apply(catalog: &mut Catalog, stmt: &Statement) {}";
    assert_eq!(
        rules_hit("crates/sdm-metadb/src/exec.rs", src),
        ["undo-coverage"]
    );
}

#[test]
fn undo_coverage_good_signature_passes() {
    let src =
        "pub fn apply(catalog: &mut Catalog, stmt: &Statement, undo: Option<&mut UndoLog>) {}";
    assert!(rules_hit("crates/sdm-metadb/src/exec.rs", src).is_empty());
}

// --------------------------------------------------------- unused-allow

#[test]
fn unused_allow_bad_stale_directive_is_flagged() {
    let src = "pub fn f() {\n\
               // analyze:allow(undo-coverage: nothing here mutates)\n\
               let x = 1;\n\
               }";
    assert_eq!(
        rules_hit("crates/sdm-metadb/src/exec.rs", src),
        ["unused-allow"]
    );
}

#[test]
fn unused_allow_good_earning_directive_passes() {
    let src = "// analyze:allow(undo-coverage: fixture for suppression mechanics)\n\
               pub fn apply(catalog: &mut Catalog) {}";
    assert!(rules_hit("crates/sdm-metadb/src/exec.rs", src).is_empty());
}

// ------------------------------------------------------------ workspace

/// The repo's own sources must satisfy every rule — this is the same
/// check CI runs via the binary, kept in-suite so a violation fails
/// `cargo test` even before CI.
#[test]
fn workspace_analyzes_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = sdm_analyze::analyze_root(&root).expect("workspace readable");
    assert!(report.analyzed_files > 100, "walk found the workspace");
    assert!(report.analyzed_fns > 500, "fn scan covers the workspace");
    assert_eq!(report.rules_checked.len(), 2);
    // The same ceilings as CI's lint job; they may only go down.
    assert_eq!(report.suppressed, 0, "a per-file finding is suppressed");
    assert!(
        report.allows.is_empty(),
        "{} `analyze:allow`s exceed the ceiling of 0",
        report.allows.len()
    );
    assert!(
        report
            .allows
            .iter()
            .all(|a| a.used || a.rule == "unused-allow"),
        "stale allow slipped through: {:?}",
        report
            .allows
            .iter()
            .filter(|a| !a.used)
            .map(|a| format!("{}:{} ({})", a.file, a.line, a.rule))
            .collect::<Vec<_>>()
    );
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.findings.is_empty(),
        "workspace has analyzer findings:\n{}",
        rendered.join("\n")
    );
}
