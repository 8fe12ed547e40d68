//! End-to-end self-tests: each rule trips on a known-bad fixture and
//! stays quiet on its known-good twin, and the real workspace analyzes
//! clean.
//!
//! Fixtures are inline strings, not files on disk — a standalone `.rs`
//! fixture would itself be scanned by the workspace walk and break the
//! clean-workspace test.

use sdm_analyze::{analyze_file, analyze_sources};

fn rules_hit(path: &str, src: &str) -> Vec<String> {
    let (findings, _) = analyze_file(path, src);
    findings.into_iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- ladder

#[test]
fn ladder_bad_upward_acquisition_is_flagged() {
    let src = "impl Database {\n\
               fn f(&self) {\n\
               let s = self.stats.lock();\n\
               let c = self.catalog.write();\n\
               }\n\
               }";
    assert_eq!(rules_hit("crates/sdm-metadb/src/db.rs", src), ["ladder"]);
}

#[test]
fn ladder_bad_nested_same_rwlock_is_flagged() {
    let src = "fn f(&self) {\n\
               let a = self.catalog.read();\n\
               let b = self.catalog.read();\n\
               }";
    assert_eq!(rules_hit("crates/sdm-metadb/src/db.rs", src), ["ladder"]);
}

#[test]
fn ladder_good_downward_with_drop_passes() {
    let src = "fn f(&self) {\n\
               let tx = self.tx.lock();\n\
               let c = self.catalog.write();\n\
               drop(c);\n\
               drop(tx);\n\
               self.stats.lock().n += 1;\n\
               }";
    assert!(rules_hit("crates/sdm-metadb/src/db.rs", src).is_empty());
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

// ----------------------------------------------- ladder (cross-function)

/// The seeded interprocedural violation: the upward acquisition is
/// three hops away from the lock already held, spanning two files of
/// the same impl, and the finding must name every hop.
#[test]
fn ladder_bad_cross_fn_upward_acquisition_carries_witness_chain() {
    let db = "impl Database {\n\
              fn outer(&self) {\n\
              let s = self.stats.lock();\n\
              self.mid();\n\
              }\n\
              }";
    let cat = "impl Database {\n\
               fn mid(&self) { self.inner(); }\n\
               fn inner(&self) { let c = self.catalog.write(); }\n\
               }";
    let report = analyze_sources(&[
        ("crates/sdm-metadb/src/db.rs".into(), db.into()),
        ("crates/sdm-metadb/src/catalog.rs".into(), cat.into()),
    ]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "ladder");
    assert_eq!(f.file, "crates/sdm-metadb/src/db.rs");
    let chain = f.chain.join(" → ");
    assert!(chain.contains("Database::outer"), "chain: {chain}");
    assert!(chain.contains("Database::mid"), "chain: {chain}");
    assert!(chain.contains("Database::inner"), "chain: {chain}");
    assert!(chain.contains("catalog(20)"), "chain: {chain}");
}

#[test]
fn ladder_good_cross_fn_downward_chain_passes() {
    let db = "impl Database {\n\
              fn outer(&self) {\n\
              let tx = self.tx.lock();\n\
              self.mid();\n\
              }\n\
              }";
    let cat = "impl Database {\n\
               fn mid(&self) { self.inner(); }\n\
               fn inner(&self) { let c = self.catalog.write(); }\n\
               }";
    let report = analyze_sources(&[
        ("crates/sdm-metadb/src/db.rs".into(), db.into()),
        ("crates/sdm-metadb/src/catalog.rs".into(), cat.into()),
    ]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// -------------------------------------------------------------- held-io

#[test]
fn held_io_bad_fs_call_under_catalog_is_flagged_with_chain() {
    let src = "impl Engine {\n\
               fn checkpoint(&self) {\n\
               let c = self.catalog.write();\n\
               self.spill_segment();\n\
               }\n\
               fn spill_segment(&self) { std::fs::write(path, bytes).ok(); }\n\
               }";
    let (findings, _) = analyze_file("crates/sdm-core/src/engine.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "held-io");
    let chain = findings[0].chain.join(" → ");
    assert!(chain.contains("Engine::spill_segment"), "chain: {chain}");
    assert!(chain.contains("fs::write"), "chain: {chain}");
}

#[test]
fn held_io_good_dropped_guard_or_wal_sync_leader_passes() {
    // Guard released before the I/O helper runs.
    let dropped = "impl Engine {\n\
                   fn checkpoint(&self) {\n\
                   let c = self.catalog.write();\n\
                   drop(c);\n\
                   self.spill_segment();\n\
                   }\n\
                   fn spill_segment(&self) { std::fs::write(path, bytes).ok(); }\n\
                   }";
    assert!(rules_hit("crates/sdm-core/src/engine.rs", dropped).is_empty());
    // The group-commit leader fsyncs under `wal_sync` by design.
    let leader = "impl Engine {\n\
                  fn group_commit(&self) {\n\
                  let g = self.wal_sync.lock();\n\
                  std::fs::write(path, bytes).ok();\n\
                  }\n\
                  }";
    assert!(rules_hit("crates/sdm-core/src/engine.rs", leader).is_empty());
}

// ----------------------------------------------------- panic-under-guard

#[test]
fn panic_under_guard_bad_indexing_under_write_guard_is_flagged() {
    let src = "impl Sim {\n\
               fn commit_epoch(&self) {\n\
               let c = self.catalog.write();\n\
               self.reindex_slots();\n\
               }\n\
               fn reindex_slots(&self) { let v = self.slots[cursor]; }\n\
               }";
    let (findings, _) = analyze_file("crates/sdm-sim/src/lib.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "panic-under-guard");
    let chain = findings[0].chain.join(" → ");
    assert!(chain.contains("Sim::reindex_slots"), "chain: {chain}");
}

#[test]
fn panic_under_guard_good_read_guard_passes() {
    let src = "impl Sim {\n\
               fn commit_epoch(&self) {\n\
               let c = self.catalog.read();\n\
               self.reindex_slots();\n\
               }\n\
               fn reindex_slots(&self) { let v = self.slots[cursor]; }\n\
               }";
    assert!(rules_hit("crates/sdm-sim/src/lib.rs", src).is_empty());
}

// ------------------------------------------- undo-coverage (cross-file)

#[test]
fn undo_coverage_bad_unthreaded_mutator_across_files_is_flagged() {
    let exec = "pub fn apply_batch(catalog: &mut Catalog, undo: Option<&mut UndoLog>) {\n\
                rows::mutate_rows(catalog);\n\
                }";
    let rows = "pub fn mutate_rows(catalog: &mut Catalog) {}";
    let report = analyze_sources(&[
        ("crates/sdm-metadb/src/exec.rs".into(), exec.into()),
        ("crates/sdm-metadb/src/rows.rs".into(), rows.into()),
    ]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "undo-coverage");
    assert!(f.chain.join(" → ").contains("mutate_rows"), "{:?}", f.chain);
}

#[test]
fn undo_coverage_good_undo_threaded_all_the_way_passes() {
    let exec = "pub fn apply_batch(catalog: &mut Catalog, undo: Option<&mut UndoLog>) {\n\
                rows::mutate_rows(catalog, undo);\n\
                }";
    let rows = "pub fn mutate_rows(catalog: &mut Catalog, undo: Option<&mut UndoLog>) {}";
    let report = analyze_sources(&[
        ("crates/sdm-metadb/src/exec.rs".into(), exec.into()),
        ("crates/sdm-metadb/src/rows.rs".into(), rows.into()),
    ]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// --------------------------------------------------------- unused-allow

#[test]
fn unused_allow_bad_stale_directive_is_flagged() {
    let src = "pub fn f() {\n\
               // analyze:allow(ladder: nothing here locks)\n\
               let x = 1;\n\
               }";
    assert_eq!(
        rules_hit("crates/sdm-core/src/sdm.rs", src),
        ["unused-allow"]
    );
}

#[test]
fn unused_allow_good_earning_directive_passes() {
    let src = "pub fn f(&self) {\n\
               let s = self.stats.lock();\n\
               // analyze:allow(ladder: fixture for suppression mechanics)\n\
               let c = self.catalog.write();\n\
               }";
    assert!(rules_hit("crates/sdm-core/src/sdm.rs", src).is_empty());
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
    assert!(report.analyzed_fns > 500, "call graph covers the workspace");
    assert!(report.call_edges > 1000, "call sites resolved");
    assert_eq!(report.rules_checked.len(), 5);
    // The same ceilings as CI's lint job; they may only go down.
    assert_eq!(report.suppressed, 0, "a per-file finding is suppressed");
    assert!(
        report.allows.len() <= 5,
        "{} `analyze:allow`s exceed the ceiling of 5",
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
        .map(|f| {
            format!(
                "{}:{} [{}] {}\n    witness: {}",
                f.file,
                f.line,
                f.rule,
                f.message,
                f.chain.join(" → ")
            )
        })
        .collect();
    assert!(
        report.findings.is_empty(),
        "workspace has analyzer findings:\n{}",
        rendered.join("\n")
    );
}
