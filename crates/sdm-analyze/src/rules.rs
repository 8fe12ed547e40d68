//! Architecture rules: SQL layering, `unwrap`/`expect` on library hot
//! paths, and undo-log coverage.
//!
//! Each rule is scoped by repo-relative path (forward slashes). Rule ids
//! are the ones `analyze:allow(id: reason)` suppresses and DESIGN.md
//! documents.

use crate::lexer::Tok;
use crate::report::Finding;
use crate::scopes::Model;

/// Rule ids, in the order they are reported. The last three are the
/// interprocedural / whole-workspace rules run by `analyze_sources`
/// (`crate::dataflow` and the unused-suppression pass), listed here so
/// the registry is the single source of truth for `rules_checked`.
pub const RULES: &[&str] = &[
    "ladder",
    "sql-layering",
    "unwrap",
    "undo-coverage",
    "wal-ordering",
    "held-io",
    "panic-under-guard",
    "unused-allow",
];

// ---------------------------------------------------------------- sql-layering

/// Statement prefixes that mark a string literal as raw SQL. Matches the
/// CI grep this rule replaces, so the allowlist carries over unchanged.
const SQL_PREFIXES: &[&str] = &[
    "SELECT ",
    "INSERT INTO ",
    "CREATE TABLE ",
    "DELETE FROM ",
    "UPDATE ",
];

/// Crates and trees that sit *above* `sdm-metadb` and therefore must
/// build statements as typed values, never as SQL text.
const SQL_SCOPE: &[&str] = &[
    "crates/sdm-core/",
    "crates/sdm-apps/",
    "crates/sdm-bench/",
    "src/",
    "tests/",
    "examples/",
];

/// The surfaces that exist to exercise SQL text itself.
const SQL_ALLOWLIST: &[&str] = &[
    "crates/sdm-core/src/store.rs",
    "tests/metadb_sql.rs",
    "examples/metadb_tour.rs",
];

/// Rule `sql-layering`: no raw SQL string literals above `sdm-metadb`.
/// Lexer-accurate where the old CI grep was line-based: string literals
/// in comments no longer count, strings split across concatenations do.
pub fn sql_layering(path: &str, model: &Model) -> Vec<Finding> {
    if !SQL_SCOPE.iter().any(|p| path.starts_with(p)) || SQL_ALLOWLIST.contains(&path) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for t in &model.tokens {
        if let Tok::Str(s) = &t.tok {
            if SQL_PREFIXES.iter().any(|p| s.starts_with(p)) {
                findings.push(Finding {
                    rule: "sql-layering".into(),
                    file: path.to_string(),
                    line: t.line,
                    snippet: model.snippet(t.line),
                    message: format!(
                        "raw SQL string literal above sdm-metadb (starts with {:?}); build a \
                         typed `Stmt` instead",
                        &s[..s.len().min(24)]
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

// --------------------------------------------------------------------- unwrap

/// The library tree where a stray panic takes down the whole metadata
/// service rather than one request. `sdm-core`, `sdm-pfs` and `sdm-sim`
/// deny `clippy::unwrap_used` and `expect_used` instead.
const UNWRAP_SCOPE: &str = "crates/sdm-metadb/src/";

/// Rule `unwrap`: `.unwrap()` / `.expect("…")` in non-test library code
/// in `sdm-metadb`. `expect` is only flagged when its first argument is
/// a string literal — `Parser::expect(&Token)` is a grammar method, not a
/// panic. Invariants that are genuinely unreachable stay, justified,
/// behind `// analyze:allow(unwrap: …)`.
pub fn unwrap_rule(path: &str, model: &Model) -> Vec<Finding> {
    if !path.starts_with(UNWRAP_SCOPE) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let toks = &model.tokens;
    for i in 0..toks.len() {
        if !matches!(toks[i].tok, Tok::Punct('.')) {
            continue;
        }
        let Some(Tok::Ident(m)) = toks.get(i + 1).map(|t| &t.tok) else {
            continue;
        };
        let is_unwrap = m == "unwrap"
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('(')))
            && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct(')')));
        let is_expect = m == "expect"
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('(')))
            && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Str(_)));
        if (is_unwrap || is_expect) && !model.is_test_token(i) {
            let line = toks[i + 1].line;
            findings.push(Finding {
                rule: "unwrap".into(),
                file: path.to_string(),
                line,
                snippet: model.snippet(line),
                message: format!(
                    "`.{m}(…)` in non-test library code on a hot path; return a typed error, or \
                     justify with `// analyze:allow(unwrap: why this cannot fail)`"
                ),
                chain: Vec::new(),
            });
        }
    }
    findings
}

// -------------------------------------------------------------- undo-coverage

/// Rule `undo-coverage`: every non-test function in the executor that
/// takes `&mut Catalog` must also thread `Option<&mut UndoLog>` — a
/// mutation path that cannot log undo is a mutation a transaction
/// cannot roll back.
pub fn undo_coverage(path: &str, model: &Model) -> Vec<Finding> {
    if !path.ends_with("sdm-metadb/src/exec.rs") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for f in &model.fns {
        if f.is_test {
            continue;
        }
        let sig = &model.tokens[f.sig.0..f.sig.1.min(model.tokens.len())];
        let takes_mut_catalog = sig.windows(3).any(|w| {
            matches!(&w[0].tok, Tok::Punct('&'))
                && matches!(&w[1].tok, Tok::Ident(m) if m == "mut")
                && matches!(&w[2].tok, Tok::Ident(c) if c == "Catalog")
        });
        let threads_undo = sig
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(u) if u == "UndoLog"));
        if takes_mut_catalog && !threads_undo {
            findings.push(Finding {
                rule: "undo-coverage".into(),
                file: path.to_string(),
                line: f.line,
                snippet: model.snippet(f.line),
                message: format!(
                    "`{}` takes `&mut Catalog` without threading `Option<&mut UndoLog>`: its \
                     mutations cannot be rolled back by an open transaction",
                    f.name
                ),
                chain: Vec::new(),
            });
        }
    }
    findings
}

// --------------------------------------------------------------- wal-ordering

/// Where `sdm-metadb` *is* allowed to touch the filesystem directly: the
/// WAL storage backends (the durability layer itself).
const WAL_FS_ALLOWLIST_PREFIX: &str = "crates/sdm-metadb/src/wal/";

/// `std::fs` free functions that mutate the filesystem. Reads
/// (`fs::read`, `fs::read_dir`, …) are deliberately absent: recovery and
/// snapshot loading read from anywhere.
const FS_MUTATORS: &[&str] = &[
    "write",
    "rename",
    "copy",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "create_dir",
    "create_dir_all",
    "set_permissions",
    "hard_link",
];

/// `File` associated functions that open for writing.
const FILE_WRITERS: &[&str] = &["create", "create_new", "options"];

/// Rule `wal-ordering`: no direct filesystem writes in `sdm-metadb`
/// outside `wal/`. Durable state must flow through the `WalStorage` seam
/// — a stray `fs::write`/`File::create` elsewhere in the engine is a
/// mutation crash recovery can never replay, silently breaking the
/// append-before-apply invariant.
pub fn wal_ordering(path: &str, model: &Model) -> Vec<Finding> {
    if !path.starts_with("crates/sdm-metadb/src/") || path.starts_with(WAL_FS_ALLOWLIST_PREFIX) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let toks = &model.tokens;
    for i in 0..toks.len() {
        let Tok::Ident(w) = &toks[i].tok else {
            continue;
        };
        // `::` lexes as two ':' puncts; the call site is
        // `<head> : : <method> (`.
        let is_path_call = |head: &str, methods: &[&str]| {
            w == head
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
                && matches!(
                    toks.get(i + 3).map(|t| &t.tok),
                    Some(Tok::Ident(m)) if methods.contains(&m.as_str())
                )
                && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Punct('(')))
        };
        let hit = is_path_call("fs", FS_MUTATORS)
            || is_path_call("File", FILE_WRITERS)
            || is_path_call("OpenOptions", &["new"]);
        if hit && !model.is_test_token(i) {
            let line = toks[i].line;
            findings.push(Finding {
                rule: "wal-ordering".into(),
                file: path.to_string(),
                line,
                snippet: model.snippet(line),
                message: "direct filesystem write inside sdm-metadb but outside wal/; durable \
                          mutations must go through the `WalStorage` seam so crash recovery can \
                          replay them, or justify with `// analyze:allow(wal-ordering: …)`"
                    .into(),
                chain: Vec::new(),
            });
        }
    }
    findings
}

/// Run every intraprocedural rule over one file, **pre-suppression**.
/// `analyze_sources` merges these with the interprocedural findings,
/// dedups, and only then applies the `analyze:allow` pass — suppression
/// has to happen after the merge so every directive's usage can be
/// tracked for `unused-allow`.
pub fn intra(path: &str, model: &Model) -> Vec<Finding> {
    let mut all = Vec::new();
    all.extend(crate::ladder::check(path, model));
    all.extend(sql_layering(path, model));
    all.extend(unwrap_rule(path, model));
    all.extend(undo_coverage(path, model));
    all.extend(wal_ordering(path, model));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        crate::analyze_file(path, src).0
    }

    #[test]
    fn sql_flagged_above_metadb_only() {
        let src = r#"fn f() { let q = "SELECT x FROM t"; }"#;
        assert_eq!(findings("crates/sdm-core/src/foo.rs", src).len(), 1);
        assert!(findings("crates/sdm-metadb/src/foo.rs", src).is_empty());
        assert!(findings("crates/sdm-core/src/store.rs", src).is_empty());
    }

    #[test]
    fn sql_in_comment_is_not_flagged() {
        let src = "fn f() {} // the old way: \"SELECT x FROM t\"";
        assert!(findings("crates/sdm-core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_in_scope_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); }";
        assert_eq!(findings("crates/sdm-metadb/src/foo.rs", src).len(), 2);
        assert!(findings("crates/sdm-mesh/src/foo.rs", src).is_empty());
        assert!(findings("crates/sdm-core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn parser_expect_method_not_flagged() {
        let src = "fn f() { self.expect(&Token::LParen)?; x.unwrap_or(0); }";
        assert!(findings("crates/sdm-metadb/src/sql/parser.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_not_flagged() {
        let src = "#[cfg(test)] mod tests { fn t() { x.unwrap(); } }";
        assert!(findings("crates/sdm-metadb/src/foo.rs", src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src =
            "fn f() {\n  // analyze:allow(unwrap: slot was bounds-checked above)\n  x.unwrap();\n}";
        assert!(findings("crates/sdm-metadb/src/foo.rs", src).is_empty());
        let (_, suppressed) = crate::analyze_file("crates/sdm-metadb/src/foo.rs", src);
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "fn f() {\n  // analyze:allow(unwrap)\n  x.unwrap();\n}";
        assert_eq!(findings("crates/sdm-metadb/src/foo.rs", src).len(), 1);
    }

    #[test]
    fn wal_ordering_flags_direct_writes_in_engine_code() {
        let src = "fn f(p: &Path) { fs::write(p, b\"x\").ok(); }";
        let f = findings("crates/sdm-metadb/src/table.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("WalStorage"));
        let src2 = "fn f(p: &Path) { let f = File::create(p); }";
        assert_eq!(findings("crates/sdm-metadb/src/exec.rs", src2).len(), 1);
        let src3 = "fn f(p: &Path) { OpenOptions::new().append(true).open(p); }";
        assert_eq!(findings("crates/sdm-metadb/src/db.rs", src3).len(), 1);
    }

    #[test]
    fn wal_ordering_exempts_wal_persist_reads_and_tests() {
        let write = "fn f(p: &Path) { fs::write(p, b\"x\").ok(); }";
        assert!(findings("crates/sdm-metadb/src/wal/storage.rs", write).is_empty());
        assert!(findings("crates/sdm-core/src/store.rs", write).is_empty());
        let read = "fn f(p: &Path) { fs::read_to_string(p).ok(); fs::read_dir(p).ok(); }";
        assert!(findings("crates/sdm-metadb/src/table.rs", read).is_empty());
        let test = "#[cfg(test)] mod tests { fn t() { fs::write(\"x\", b\"y\").unwrap(); } }";
        assert!(findings("crates/sdm-metadb/src/table.rs", test).is_empty());
    }

    #[test]
    fn undo_coverage_flags_missing_param() {
        let src = "fn mutate(c: &mut Catalog) {}\n\
                   fn good(c: &mut Catalog, undo: Option<&mut UndoLog>) {}\n\
                   fn read(c: &Catalog) {}";
        let f = findings("crates/sdm-metadb/src/exec.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("mutate"));
        assert!(findings("crates/sdm-metadb/src/undo.rs", src).is_empty());
    }
}
