//! Per-file architecture rules: the rule registry and undo-log
//! coverage.
//!
//! Each rule is scoped by repo-relative path (forward slashes). Rule ids
//! are the ones `analyze:allow(id: reason)` suppresses and DESIGN.md
//! documents. SQL layering, `unwrap`/`expect` and direct filesystem
//! writes are clippy's (`disallowed-methods`, `unwrap_used`,
//! `expect_used`; see the two `clippy.toml` files).

use crate::lexer::Tok;
use crate::report::Finding;
use crate::scopes::Model;

/// Rule ids, in the order they are reported. `unused-allow` is the
/// suppression pass of `analyze_sources`, listed here so the registry
/// is the single source of truth for `rules_checked`.
pub const RULES: &[&str] = &["undo-coverage", "unused-allow"];

// -------------------------------------------------------------- undo-coverage

/// Rule `undo-coverage`: every non-test function in the executor that
/// takes `&mut Catalog` must also thread an `UndoLog` — a
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
                    "`{}` takes `&mut Catalog` without threading an `UndoLog`: its \
                     mutations cannot be rolled back by an open transaction",
                    f.name
                ),
            });
        }
    }
    findings
}

/// Run every rule over one file, **pre-suppression**:
/// `analyze_sources` applies the `analyze:allow` pass afterwards, so
/// every directive's usage can be tracked for `unused-allow`.
pub fn check(path: &str, model: &Model) -> Vec<Finding> {
    undo_coverage(path, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        crate::analyze_file(path, src).0
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "// analyze:allow(undo-coverage: a DDL helper, undone by DROP TABLE)\n\
                   fn mutate(c: &mut Catalog) {}";
        assert!(findings("crates/sdm-metadb/src/exec.rs", src).is_empty());
        let (_, suppressed) = crate::analyze_file("crates/sdm-metadb/src/exec.rs", src);
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "// analyze:allow(undo-coverage)\nfn mutate(c: &mut Catalog) {}";
        assert_eq!(findings("crates/sdm-metadb/src/exec.rs", src).len(), 1);
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
