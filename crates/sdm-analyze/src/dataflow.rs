//! Interprocedural effect dataflow: per-fn summaries propagated over
//! call edges to a fixed point, and the rules built on top.
//!
//! A [`Summary`] records what a function does **transitively**: which
//! lock ranks it (or anything it calls) acquires, where it can block on
//! I/O, and where it can panic. Summaries start from each body's direct
//! events and are propagated caller-ward over the call graph until
//! nothing changes; every entry keeps its terminal site plus the first
//! call hop it arrived through, so a finding can print the full
//! **witness chain** (`Database::run_statement → execute_mutation →
//! WalAppender::finish → crc32 → CRC_TABLE[…]`). Entries are only ever inserted,
//! never replaced, so the hop links form a DAG and the propagation is a
//! monotone fixed point — recursion converges because the maps are
//! bounded by the finite site set.
//!
//! The rules this powers:
//!
//! * **cross-function `ladder`** — a call whose callee transitively
//!   acquires rank R while the caller holds rank ≥ R;
//! * **`held-io`** — blocking I/O (`fs::*`, `File` opens,
//!   `thread::sleep`, `.sync_all()`/`.sync_data()`) reachable while the
//!   catalog or a leaf lock is held. The WAL ranks (`wal_sync`,
//!   `wal_buf`) are deliberately not banned: the group-commit leader
//!   fsyncs under `wal_sync` by design, and that is the *only* sanctioned
//!   blocking-under-lock path;
//! * **path-sensitive `undo-coverage`** — a `&mut Catalog` fn reachable
//!   from an exec entry point without `Option<&mut UndoLog>` in its own
//!   signature (the undo thread broke somewhere along the chain);
//! * **`panic-under-guard`** — a panic site (`.unwrap()`,
//!   `.expect("…")`, panicking macros, indexing) reachable while the
//!   `catalog` write guard is held: the panic unwinds mid-mutation and
//!   leaves a torn catalog for every later reader.
//!
//! Suppressions compose with the dataflow at the **terminal site**: a
//! `// analyze:allow(panic-under-guard: …)` (or `unwrap`) on the line
//! that panics removes the site from every summary, so one justified
//! terminal quiets every caller — and that exclusion counts as the
//! directive being *used* for the `unused-allow` rule.

use std::collections::{BTreeMap, HashSet};

use crate::callgraph::{CallEv, Callgraph, EventKind, Held};
use crate::report::Finding;
use crate::scopes::Model;

/// Files whose plain indexing is exempt from `panic-under-guard`: the
/// engine core, where row indexes come from resolving names against the
/// schema (or from index buckets maintained with the rows) and are
/// covered by the equivalence proptests. `.unwrap()`/macros in these
/// files still count.
pub const INDEX_EXEMPT: &[&str] = &[
    "crates/sdm-metadb/src/eval.rs",
    "crates/sdm-metadb/src/exec.rs",
    "crates/sdm-metadb/src/table.rs",
];

/// One transitive effect: its terminal site and the first call hop it
/// reached the summarized fn through (`None` = it happens directly).
#[derive(Debug, Clone)]
pub struct EffectSrc {
    /// Terminal site description (`catalog.write()`, `fs::write(…)`,
    /// `.unwrap(…)`).
    pub what: String,
    /// File index of the terminal site.
    pub file: usize,
    /// Line of the terminal site.
    pub line: u32,
    /// First hop: (callee fn index, call line in the summarized fn).
    pub via: Option<(usize, u32)>,
}

/// Transitive effects of one fn.
#[derive(Debug, Default)]
pub struct Summary {
    /// Lock ranks acquired, keyed by rank.
    pub acquires: BTreeMap<u32, EffectSrc>,
    /// Blocking I/O sites, keyed by terminal (file, line).
    pub io: BTreeMap<(usize, u32), EffectSrc>,
    /// Panic sites, keyed by terminal (file, line).
    pub panics: BTreeMap<(usize, u32), EffectSrc>,
}

/// Tracks which `analyze:allow` directives did something, for the
/// `unused-allow` rule and the report's suppression-site table.
#[derive(Debug)]
pub struct AllowUse {
    used: Vec<Vec<bool>>,
}

impl AllowUse {
    /// One flag per directive, parallel to each model's `allows`.
    pub fn new(files: &[(String, Model)]) -> Self {
        AllowUse {
            used: files
                .iter()
                .map(|(_, m)| vec![false; m.allows.len()])
                .collect(),
        }
    }

    /// Mark every directive in `file` that suppresses `rule` at `line`.
    pub fn mark(&mut self, file: usize, model: &Model, rule: &str, line: u32) {
        for (i, a) in model.allows.iter().enumerate() {
            if a.rule == rule && (a.line == line || a.line + 1 == line) {
                self.used[file][i] = true;
            }
        }
    }

    /// Whether directive `idx` of `file` was used.
    pub fn is_used(&self, file: usize, idx: usize) -> bool {
        self.used[file][idx]
    }
}

/// Whether blocking while holding `rank` is banned (`held-io`): the
/// catalog and the leaves. The WAL ranks are the sanctioned
/// group-commit leader path.
fn io_banned(rank: u32) -> bool {
    rank == sdm_ranks::CATALOG || rank == sdm_ranks::LEAF
}

/// Classify a call event as a blocking-I/O primitive.
fn io_desc(c: &CallEv) -> Option<String> {
    match c.qual.as_deref() {
        Some("fs") => Some(format!("fs::{}(…)", c.name)),
        Some("File")
            if matches!(
                c.name.as_str(),
                "open" | "create" | "create_new" | "options"
            ) =>
        {
            Some(format!("File::{}(…)", c.name))
        }
        Some("OpenOptions") if c.name == "new" => Some("OpenOptions::new(…)".into()),
        Some("thread") if c.name == "sleep" => Some("thread::sleep(…)".into()),
        None if c.method && matches!(c.name.as_str(), "sync_all" | "sync_data") => {
            Some(format!(".{}()", c.name))
        }
        _ => None,
    }
}

/// Reconstruct the acquisition method name for a direct acquire event.
fn acquire_what(lock: &str, write: bool) -> String {
    let method = if !write {
        "read"
    } else if lock == "catalog" {
        "write"
    } else {
        "lock"
    };
    format!("{lock}.{method}()")
}

/// Build every fn's transitive [`Summary`] and run the propagation to a
/// fixed point. Terminal panic/io sites carrying a justifying
/// `analyze:allow` never enter any summary (and the directive is marked
/// used in `allow_use`).
pub fn summarize(
    cg: &Callgraph,
    files: &[(String, Model)],
    allow_use: &mut AllowUse,
) -> Vec<Summary> {
    let n = cg.fns.len();
    let mut sums: Vec<Summary> = (0..n).map(|_| Summary::default()).collect();

    // Direct effects.
    for (fi, f) in cg.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let model = &files[f.file].1;
        let path = &cg.files[f.file];
        for ev in &f.events {
            match &ev.kind {
                EventKind::Acquire { lock, rank, write } => {
                    sums[fi].acquires.entry(*rank).or_insert(EffectSrc {
                        what: acquire_what(lock, *write),
                        file: f.file,
                        line: ev.line,
                        via: None,
                    });
                }
                EventKind::Call(c) => {
                    if let Some(what) = io_desc(c) {
                        if model.allowed("held-io", ev.line) {
                            allow_use.mark(f.file, model, "held-io", ev.line);
                        } else {
                            sums[fi].io.entry((f.file, ev.line)).or_insert(EffectSrc {
                                what,
                                file: f.file,
                                line: ev.line,
                                via: None,
                            });
                        }
                    }
                }
                EventKind::Panic { what, index } => {
                    if *index && INDEX_EXEMPT.contains(&path.as_str()) {
                        continue;
                    }
                    if model.allowed("panic-under-guard", ev.line) {
                        allow_use.mark(f.file, model, "panic-under-guard", ev.line);
                        continue;
                    }
                    if model.allowed("unwrap", ev.line) {
                        allow_use.mark(f.file, model, "unwrap", ev.line);
                        continue;
                    }
                    sums[fi]
                        .panics
                        .entry((f.file, ev.line))
                        .or_insert(EffectSrc {
                            what: what.clone(),
                            file: f.file,
                            line: ev.line,
                            via: None,
                        });
                }
            }
        }
    }

    // Propagate over call edges until nothing changes. Insert-only, so
    // each map grows monotonically toward the finite site set.
    loop {
        let mut changed = false;
        for fi in 0..n {
            if cg.fns[fi].is_test {
                continue;
            }
            let mut add_acq: Vec<(u32, EffectSrc)> = Vec::new();
            let mut add_io: Vec<((usize, u32), EffectSrc)> = Vec::new();
            let mut add_panic: Vec<((usize, u32), EffectSrc)> = Vec::new();
            for ev in &cg.fns[fi].events {
                let EventKind::Call(c) = &ev.kind else {
                    continue;
                };
                for &cal in &c.callees {
                    if cal == fi {
                        continue;
                    }
                    for (&r, src) in &sums[cal].acquires {
                        if !sums[fi].acquires.contains_key(&r) {
                            add_acq.push((r, lift(src, cal, ev.line)));
                        }
                    }
                    for (&k, src) in &sums[cal].io {
                        if !sums[fi].io.contains_key(&k) {
                            add_io.push((k, lift(src, cal, ev.line)));
                        }
                    }
                    for (&k, src) in &sums[cal].panics {
                        if !sums[fi].panics.contains_key(&k) {
                            add_panic.push((k, lift(src, cal, ev.line)));
                        }
                    }
                }
            }
            for (r, src) in add_acq {
                changed |= sums[fi].acquires.insert(r, src).is_none();
            }
            for (k, src) in add_io {
                changed |= sums[fi].io.insert(k, src).is_none();
            }
            for (k, src) in add_panic {
                changed |= sums[fi].panics.insert(k, src).is_none();
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// A callee's effect as seen by its caller: same terminal, first hop
/// through the call.
fn lift(src: &EffectSrc, callee: usize, call_line: u32) -> EffectSrc {
    EffectSrc {
        what: src.what.clone(),
        file: src.file,
        line: src.line,
        via: Some((callee, call_line)),
    }
}

/// `Fn (file:line)` chain element.
fn chain_entry(cg: &Callgraph, f: usize, line: u32) -> String {
    format!(
        "{} ({}:{})",
        cg.fns[f].qualified(),
        cg.files[cg.fns[f].file],
        line
    )
}

/// Follow first-hop links from `first_callee` down to the terminal
/// site, rendering the witness chain. `get` looks the effect up in one
/// fn's summary; `decorate` tags the terminal element (rank names).
fn render_chain(
    cg: &Callgraph,
    caller: usize,
    call_line: u32,
    first_callee: usize,
    get: impl Fn(usize) -> Option<EffectSrc>,
    decorate: &str,
) -> Vec<String> {
    let mut out = vec![chain_entry(cg, caller, call_line)];
    let mut cur = first_callee;
    let mut hops = 0usize;
    loop {
        hops += 1;
        if hops > 64 {
            out.push("…".into());
            break;
        }
        let Some(src) = get(cur) else { break };
        match src.via {
            Some((next, l)) => {
                out.push(chain_entry(cg, cur, l));
                cur = next;
            }
            None => {
                // The fn that performs the effect itself, then the
                // terminal site.
                out.push(cg.fns[cur].qualified());
                let tag = if decorate.is_empty() {
                    String::new()
                } else {
                    format!(" [{decorate}]")
                };
                out.push(format!(
                    "{}{tag} ({}:{})",
                    src.what, cg.files[src.file], src.line
                ));
                break;
            }
        }
    }
    out
}

/// Run the interprocedural rules, returning pre-suppression findings.
pub fn check(
    cg: &Callgraph,
    files: &[(String, Model)],
    sums: &[Summary],
    allow_use: &mut AllowUse,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();

    for (fi, f) in cg.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let path = &cg.files[f.file];
        let model = &files[f.file].1;
        for ev in &f.events {
            match &ev.kind {
                EventKind::Call(c) => {
                    let mut held = ev.held.clone();
                    held.extend(c.arg_acquires.iter().cloned());
                    if held.is_empty() {
                        continue;
                    }
                    check_call(
                        cg,
                        sums,
                        fi,
                        ev.line,
                        c,
                        &held,
                        path,
                        model,
                        &mut seen,
                        &mut findings,
                    );
                }
                EventKind::Panic { what, index } => {
                    let under_write = ev.held.iter().any(|h| h.lock == "catalog" && h.write);
                    if !under_write {
                        continue;
                    }
                    if *index && INDEX_EXEMPT.contains(&path.as_str()) {
                        continue;
                    }
                    if model.allowed("unwrap", ev.line) {
                        allow_use.mark(f.file, model, "unwrap", ev.line);
                        continue;
                    }
                    findings.push(Finding {
                        rule: "panic-under-guard".into(),
                        file: path.clone(),
                        line: ev.line,
                        snippet: model.snippet(ev.line),
                        message: format!(
                            "{what} while the `catalog` write guard is held: a panic here \
                             unwinds mid-mutation and leaves a torn catalog; return a typed \
                             error or justify with `// analyze:allow(panic-under-guard: …)`"
                        ),
                        chain: Vec::new(),
                    });
                }
                EventKind::Acquire { .. } => {} // intra `ladder` covers these
            }
        }
    }

    undo_paths(cg, files, &mut findings);
    findings
}

/// The per-call-site half of [`check`]: compare the callee summaries
/// against the held set.
#[allow(clippy::too_many_arguments)]
fn check_call(
    cg: &Callgraph,
    sums: &[Summary],
    fi: usize,
    line: u32,
    c: &CallEv,
    held: &[Held],
    path: &str,
    model: &Model,
    seen: &mut HashSet<String>,
    findings: &mut Vec<Finding>,
) {
    // Direct blocking I/O under a banned lock.
    if let Some(what) = io_desc(c) {
        if let Some(h) = held.iter().find(|h| io_banned(h.rank)) {
            if seen.insert(format!("hio|{path}|{line}|direct")) {
                findings.push(Finding {
                    rule: "held-io".into(),
                    file: path.to_string(),
                    line,
                    snippet: model.snippet(line),
                    message: held_io_message(&what, h),
                    chain: Vec::new(),
                });
            }
        }
    }
    for &cal in &c.callees {
        if cal == fi {
            continue;
        }
        // Cross-function ladder: the callee transitively acquires a rank
        // not strictly below everything held here.
        for (&r, src) in &sums[cal].acquires {
            for h in held {
                if h.rank < r {
                    continue;
                }
                if !seen.insert(format!("lad|{path}|{line}|{r}|{}", h.lock)) {
                    continue;
                }
                let tlock = src.what.split('.').next().unwrap_or("");
                let message = if h.rank > r {
                    format!(
                        "upward lock acquisition via call chain: `{}` eventually acquires \
                         `{tlock}` ({}) while `{}` ({}) is held — the ladder runs tx → catalog \
                         → wal_sync → wal_buf → stats",
                        cg.fns[cal].qualified(),
                        sdm_ranks::describe(r),
                        h.lock,
                        sdm_ranks::describe(h.rank),
                    )
                } else if tlock == h.lock {
                    format!(
                        "nested acquisition of `{}` via call chain: re-entering the same lock \
                         on one thread self-deadlocks",
                        h.lock
                    )
                } else {
                    format!(
                        "leaf `{}` held across a call chain that acquires `{tlock}` \
                         ({}): leaf mutexes are taken alone, never nested",
                        h.lock,
                        sdm_ranks::describe(r),
                    )
                };
                findings.push(Finding {
                    rule: "ladder".into(),
                    file: path.to_string(),
                    line,
                    snippet: model.snippet(line),
                    message,
                    chain: render_chain(
                        cg,
                        fi,
                        line,
                        cal,
                        |f| sums[f].acquires.get(&r).cloned(),
                        &sdm_ranks::describe(r),
                    ),
                });
            }
        }
        // Blocking I/O reachable under the catalog or a leaf.
        if let Some(h) = held.iter().find(|h| io_banned(h.rank)) {
            for (&k, src) in &sums[cal].io {
                if !seen.insert(format!("hio|{path}|{line}|{}:{}", k.0, k.1)) {
                    continue;
                }
                findings.push(Finding {
                    rule: "held-io".into(),
                    file: path.to_string(),
                    line,
                    snippet: model.snippet(line),
                    message: held_io_message(&src.what, h),
                    chain: render_chain(cg, fi, line, cal, |f| sums[f].io.get(&k).cloned(), ""),
                });
            }
        }
        // Panics reachable while the catalog write guard is held.
        if held.iter().any(|h| h.lock == "catalog" && h.write) {
            for (&k, src) in &sums[cal].panics {
                if !seen.insert(format!("pug|{path}|{line}|{}:{}", k.0, k.1)) {
                    continue;
                }
                findings.push(Finding {
                    rule: "panic-under-guard".into(),
                    file: path.to_string(),
                    line,
                    snippet: model.snippet(line),
                    message: format!(
                        "{} reachable while the `catalog` write guard is held (via `{}`): a \
                         panic unwinds mid-mutation and leaves a torn catalog; justify the \
                         terminal site with `// analyze:allow(panic-under-guard: …)` or return \
                         a typed error",
                        src.what,
                        cg.fns[cal].qualified(),
                    ),
                    chain: render_chain(cg, fi, line, cal, |f| sums[f].panics.get(&k).cloned(), ""),
                });
            }
        }
    }
}

fn held_io_message(what: &str, h: &Held) -> String {
    format!(
        "blocking I/O ({what}) reachable while `{}` ({}) is held: I/O under the catalog or a \
         leaf lock stalls every reader — only the WAL group-commit leader (under `wal_sync`) \
         may block",
        h.lock,
        sdm_ranks::describe(h.rank),
    )
}

/// Path-sensitive undo coverage: BFS from the exec entry points (fns in
/// `exec.rs` that thread both `&mut Catalog` and `UndoLog`); any
/// reachable fn taking `&mut Catalog` without `UndoLog` broke the
/// thread, wherever it lives.
fn undo_paths(cg: &Callgraph, files: &[(String, Model)], findings: &mut Vec<Finding>) {
    let entries: Vec<usize> = (0..cg.fns.len())
        .filter(|&i| {
            let f = &cg.fns[i];
            !f.is_test && f.has_undo && f.has_mut_catalog && cg.files[f.file].ends_with("exec.rs")
        })
        .collect();
    let in_exec = |i: usize| cg.files[cg.fns[i].file].ends_with("exec.rs");
    let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut visited: HashSet<usize> = entries.iter().copied().collect();
    let mut queue: Vec<usize> = entries;
    while let Some(cur) = queue.pop() {
        for ev in &cg.fns[cur].events {
            let EventKind::Call(c) = &ev.kind else {
                continue;
            };
            for &cal in &c.callees {
                if visited.insert(cal) {
                    parent.insert(cal, (cur, ev.line));
                    queue.push(cal);
                }
            }
        }
    }
    // Fns living in exec.rs are already covered (and flagged) by the
    // intraprocedural `undo-coverage` rule; this pass adds the fns the
    // chain reaches *outside* the executor.
    let mut flagged: Vec<usize> = visited
        .iter()
        .copied()
        .filter(|&i| {
            let f = &cg.fns[i];
            !f.is_test && f.has_mut_catalog && !f.has_undo && !in_exec(i)
        })
        .collect();
    flagged.sort();
    for target in flagged {
        let f = &cg.fns[target];
        let mut rev = vec![format!(
            "{} ({}:{})",
            f.qualified(),
            cg.files[f.file],
            f.line
        )];
        let mut node = target;
        while let Some(&(p, l)) = parent.get(&node) {
            rev.push(chain_entry(cg, p, l));
            node = p;
        }
        rev.reverse();
        let entry_name = cg.fns[node].qualified();
        let path = &cg.files[f.file];
        findings.push(Finding {
            rule: "undo-coverage".into(),
            file: path.clone(),
            line: f.line,
            snippet: files[f.file].1.snippet(f.line),
            message: format!(
                "`{}` takes `&mut Catalog` without threading `Option<&mut UndoLog>` yet is \
                 reachable from exec entry `{entry_name}`: mutations on this path cannot be \
                 rolled back by an open transaction",
                f.name
            ),
            chain: rev,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> (Vec<Finding>, Vec<Summary>, Callgraph) {
        let models: Vec<(String, Model)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), Model::build(s)))
            .collect();
        let cg = Callgraph::build(&models);
        let mut used = AllowUse::new(&models);
        let sums = summarize(&cg, &models, &mut used);
        let findings = check(&cg, &models, &sums, &mut used);
        (findings, sums, cg)
    }

    #[test]
    fn cross_fn_upward_acquisition_with_multihop_chain() {
        let src = "impl Database {\n\
                   fn outer(&self) { let s = self.stats.lock(); self.mid(); }\n\
                   fn mid(&self) { self.inner(); }\n\
                   fn inner(&self) { let c = self.catalog.write(); drop(c); }\n\
                   }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-metadb/src/db.rs", src)]);
        let f: Vec<_> = findings.iter().filter(|f| f.rule == "ladder").collect();
        assert_eq!(f.len(), 1, "{findings:?}");
        assert!(f[0].message.contains("upward"));
        assert!(f[0].message.contains("catalog(20)"));
        assert!(f[0].message.contains("stats"));
        // Multi-hop witness chain: outer → mid → inner → terminal.
        let chain = f[0].chain.join(" → ");
        assert!(chain.contains("Database::outer"), "{chain}");
        assert!(chain.contains("Database::mid"), "{chain}");
        assert!(chain.contains("Database::inner"), "{chain}");
        assert!(chain.contains("catalog.write() [catalog(20)]"), "{chain}");
    }

    #[test]
    fn downward_call_chain_is_clean() {
        let src = "impl Database {\n\
                   fn outer(&self) { let t = self.tx.lock(); self.inner(); }\n\
                   fn inner(&self) { self.stats.lock().merge(); }\n\
                   }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-metadb/src/db.rs", src)]);
        assert!(findings.iter().all(|f| f.rule != "ladder"), "{findings:?}");
    }

    #[test]
    fn recursion_converges_and_still_summarizes() {
        let src = "impl Database {\n\
                   fn a(&self) { self.b(); }\n\
                   fn b(&self) { self.a(); self.stats.lock().n += 1; }\n\
                   }";
        let (_f, sums, cg) = analyze(&[("crates/sdm-metadb/src/db.rs", src)]);
        let a = cg.fns.iter().position(|f| f.name == "a").unwrap();
        assert!(sums[a].acquires.contains_key(&sdm_ranks::LEAF));
    }

    #[test]
    fn held_io_direct_and_transitive() {
        let src = "impl Db {\n\
                   fn f(&self) { let c = self.catalog.write(); self.spill(); drop(c); }\n\
                   fn spill(&self) { fs::write(p, b).ok(); }\n\
                   }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-core/src/cache.rs", src)]);
        let f: Vec<_> = findings.iter().filter(|f| f.rule == "held-io").collect();
        assert_eq!(f.len(), 1, "{findings:?}");
        assert!(f[0].message.contains("fs::write"));
        assert!(f[0].chain.join(" → ").contains("Db::spill"));
    }

    #[test]
    fn io_under_wal_sync_is_sanctioned() {
        let src = "impl Wal {\n\
                   fn sync_to(&self) { let mut t = self.wal_sync.lock(); self.flush(); }\n\
                   fn flush(&self) { h.sync_data().ok(); }\n\
                   }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-metadb/src/wal/mod.rs", src)]);
        assert!(findings.iter().all(|f| f.rule != "held-io"), "{findings:?}");
    }

    #[test]
    fn panic_under_write_guard_flagged_not_under_read() {
        let src = "impl Db {\n\
                   fn w(&self) { let c = self.catalog.write(); self.help(); drop(c); }\n\
                   fn r(&self) { let c = self.catalog.read(); self.help(); drop(c); }\n\
                   fn help(&self) { v.unwrap(); }\n\
                   }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-sim/src/grid.rs", src)]);
        let f: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "panic-under-guard")
            .collect();
        assert_eq!(f.len(), 1, "{findings:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].chain.join(" → ").contains("Db::help"));
    }

    #[test]
    fn allow_at_terminal_quiets_every_caller_and_counts_as_used() {
        let src = "impl Db {\n\
                   fn w(&self) { let c = self.catalog.write(); self.help(); drop(c); }\n\
                   fn help(&self) {\n\
                   // analyze:allow(panic-under-guard: slot bounds-checked by the planner)\n\
                   v.unwrap(); }\n\
                   }";
        let models = vec![("crates/sdm-sim/src/grid.rs".to_string(), Model::build(src))];
        let cg = Callgraph::build(&models);
        let mut used = AllowUse::new(&models);
        let sums = summarize(&cg, &models, &mut used);
        let findings = check(&cg, &models, &sums, &mut used);
        assert!(
            findings.iter().all(|f| f.rule != "panic-under-guard"),
            "{findings:?}"
        );
        assert!(used.is_used(0, 0));
    }

    #[test]
    fn undo_break_is_found_across_files_with_chain() {
        let exec = "pub fn execute_mutation(c: &mut Catalog, u: Option<&mut UndoLog>) {\n\
                    table::apply(c);\n\
                    }";
        let table = "pub fn apply(c: &mut Catalog) {}";
        let (findings, _s, _cg) = analyze(&[
            ("crates/sdm-metadb/src/exec.rs", exec),
            ("crates/sdm-metadb/src/table.rs", table),
        ]);
        let f: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "undo-coverage")
            .collect();
        assert_eq!(f.len(), 1, "{findings:?}");
        assert_eq!(f[0].file, "crates/sdm-metadb/src/table.rs");
        let chain = f[0].chain.join(" → ");
        assert!(chain.contains("execute_mutation"), "{chain}");
        assert!(chain.contains("apply"), "{chain}");
    }

    #[test]
    fn indexing_exempt_in_engine_core_only() {
        let engine = "impl Db { fn w(&self, c: C) { let g = self.catalog.write(); rows[0]; } }";
        let (findings, _s, _cg) = analyze(&[("crates/sdm-metadb/src/exec.rs", engine)]);
        assert!(findings.iter().all(|f| f.rule != "panic-under-guard"));
        let (findings2, _s, _cg) = analyze(&[("crates/sdm-metadb/src/undo.rs", engine)]);
        assert!(findings2.iter().any(|f| f.rule == "panic-under-guard"));
    }
}
