//! Rule `ladder` (intraprocedural half): static lock-ladder order
//! checking within one function body.
//!
//! The documented ladder in `sdm-metadb/src/db.rs` (a thread only ever
//! acquires downward), with ranks from the shared `sdm-ranks` registry:
//!
//! | rank | lock       | acquired via                      |
//! |------|------------|-----------------------------------|
//! | 10   | `tx`       | `tx.lock()`                       |
//! | 20   | `catalog`  | `catalog.read()` / `catalog.write()` |
//! | 24   | `wal_sync` | `wal_sync.lock()`                 |
//! | 26   | `wal_buf`  | `wal_buf.lock()`                  |
//! | 30   | `stats`    | `stats.lock()`                    |
//!
//! `stats` is the leaf: it is taken alone, never nested — under another
//! leaf-ranked lock or under itself.
//!
//! The guard-scope model (named bindings, statement temporaries,
//! construct-scrutinee temporaries, early `drop`s) lives in
//! [`crate::callgraph::walk_body`], which replays each body as an event
//! stream; this rule just compares every [`EventKind::Acquire`] against
//! the guards held at that point. An acquisition whose rank is not
//! strictly greater than every rank currently held is a finding: upward
//! acquisition, same-`RwLock` re-entry (self-deadlock on `std`
//! primitives), or a leaf held across another acquisition. The
//! cross-function half of the rule lives in [`crate::dataflow`]; the
//! runtime rank checker in the `parking_lot` shim enforces the identical
//! policy dynamically.

use crate::callgraph::{walk_body, Event, EventKind};
use crate::report::Finding;
use crate::scopes::Model;

/// Run the ladder rule over every non-test function of `model`.
pub fn check(path: &str, model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        if f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        walk_body(&model.tokens, start, end, &mut |ev: Event| {
            let EventKind::Acquire { lock, rank, .. } = ev.kind else {
                return;
            };
            for h in &ev.held {
                let message = if h.rank > rank {
                    format!(
                        "upward lock acquisition: `{lock}` ({}) acquired while `{}` ({}) is \
                         held — the ladder runs tx → catalog → wal_sync → wal_buf → \
                         stats",
                        sdm_ranks::describe(rank),
                        h.lock,
                        sdm_ranks::describe(h.rank),
                    )
                } else if h.rank == rank && h.lock == lock {
                    format!(
                        "nested acquisition of `{lock}`: re-entering the same lock on one \
                         thread self-deadlocks"
                    )
                } else if h.rank == rank {
                    format!(
                        "leaf `{}` held across acquisition of `{lock}`: leaf mutexes are taken \
                         alone, never nested",
                        h.lock
                    )
                } else {
                    continue;
                };
                findings.push(Finding {
                    rule: "ladder".into(),
                    file: path.to_string(),
                    line: ev.line,
                    snippet: model.snippet(ev.line),
                    message,
                    chain: Vec::new(),
                });
            }
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(body: &str) -> Vec<Finding> {
        let src = format!("impl Database {{ fn f(&self) {{ {body} }} }}");
        let model = Model::build(&src);
        check("crates/sdm-metadb/src/db.rs", &model)
    }

    #[test]
    fn sequential_temporaries_pass() {
        assert!(
            run("self.stats.lock().n += 1; self.stats.lock().insert(k); \
                     let c = self.catalog.read(); drop(c); self.tx.lock().take();")
            .is_empty()
        );
    }

    #[test]
    fn downward_nesting_passes() {
        assert!(run("let mut tx = self.tx.lock(); \
                     let mut catalog = self.catalog.write(); \
                     drop(catalog); drop(tx); self.stats.lock().merge();")
        .is_empty());
    }

    #[test]
    fn upward_acquisition_is_flagged() {
        let f = run("let c = self.catalog.write(); let t = self.tx.lock();");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("upward"));
        // Registry names, not bare numbers.
        assert!(f[0].message.contains("tx(10)"), "{}", f[0].message);
        assert!(f[0].message.contains("catalog(20)"), "{}", f[0].message);
    }

    #[test]
    fn same_rwlock_reentry_is_flagged() {
        let f = run("let a = self.catalog.read(); let b = self.catalog.read();");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("nested acquisition"));
    }

    #[test]
    fn leaf_across_leaf_is_flagged() {
        let f = run("let s = self.stats.lock(); self.stats.lock().get(k);");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("nested acquisition"));
    }

    #[test]
    fn early_drop_releases() {
        assert!(run("let s = self.stats.lock(); drop(s); let c = self.catalog.read();").is_empty());
    }

    #[test]
    fn block_scope_releases_at_close() {
        assert!(run("{ let c = self.catalog.write(); } let t = self.tx.lock();").is_empty());
    }

    #[test]
    fn statement_temp_dies_at_semicolon() {
        assert!(run("self.stats.lock().n += 1; let c = self.catalog.read();").is_empty());
    }

    #[test]
    fn if_let_scrutinee_lives_through_body() {
        let f = run("if let Some(x) = self.stats.lock().get(k) { self.stats.lock().hits += 1; }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("nested acquisition"));
    }

    #[test]
    fn if_let_scrutinee_dies_after_construct() {
        assert!(
            run("if let Some(x) = self.stats.lock().get(k) { use_it(x); } \
                 self.stats.lock().hits += 1;")
            .is_empty()
        );
    }

    #[test]
    fn else_chain_extends_scrutinee() {
        let f = run("if let Some(x) = self.stats.lock().get(k) { a(); } \
                     else { self.stats.lock().miss += 1; }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn impure_let_rhs_is_statement_temp() {
        // The guard in `let cached = self.stats.lock().get(k);` dies at
        // the `;` — the binding holds the *result*, not the guard.
        assert!(run("let cached = self.stats.lock().get(k); self.stats.lock().n += 1;").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)] mod tests { fn t(&self) { let s = self.stats.lock(); \
                   self.tx.lock(); } }";
        let model = Model::build(src);
        assert!(check("crates/sdm-metadb/src/db.rs", &model).is_empty());
    }

    #[test]
    fn wal_sync_then_wal_buf_is_downward() {
        // The group-commit leader: drain the buffer while holding the
        // sync tail — rank 24 then 26, strictly increasing.
        assert!(run("let mut tail = self.wal_sync.lock(); \
                     let mut b = self.wal_buf.lock(); \
                     drop(b); drop(tail);")
        .is_empty());
    }

    #[test]
    fn wal_buf_then_wal_sync_is_flagged() {
        let f = run("let b = self.wal_buf.lock(); let t = self.wal_sync.lock();");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("upward"));
    }

    #[test]
    fn wal_sync_under_catalog_is_downward() {
        // Appending redo under the catalog write lock is legal: 20 → 24.
        assert!(run("let c = self.catalog.write(); let t = self.wal_sync.lock();").is_empty());
    }

    #[test]
    fn downward_into_catalog_while_tx_held_passes() {
        assert!(run("let mut tx = self.tx.lock(); \
                     let n = state.undo.rollback(&mut self.catalog.write()); \
                     drop(tx);")
        .is_empty());
    }
}
