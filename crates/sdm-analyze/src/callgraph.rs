//! Call-graph extraction: every workspace fn, its body as an event
//! stream, and call sites resolved to candidate definitions.
//!
//! This is the structural half of the interprocedural analyzer. For each
//! non-test function body the **event walker** ([`walk_body`]) replays
//! the guard-scope model the `ladder` rule established (named bindings,
//! statement temporaries, `if let`/`match` scrutinee temporaries, early
//! `drop`s) and emits a flat stream of [`Event`]s — ranked lock
//! acquisitions, calls, and potential panic sites — each carrying a
//! snapshot of the guards held at that point. [`Callgraph::build`] then
//! resolves every call event to candidate [`FnNode`]s by name.
//!
//! Resolution is deliberately conservative (this is a lint over tokens,
//! not a type checker). Call sites resolve through tiers, taking the
//! first non-empty one and keeping **every** candidate in it:
//!
//! * `self.method(…)` — methods of the caller's own `impl` owner;
//! * `Type::method(…)` — methods whose impl owner is exactly `Type`
//!   (`Self::` uses the caller's owner);
//! * `module::func(…)` (lowercase head) — free fns in the file named
//!   after the module (`exec::execute_mutation` → `exec.rs`); paths
//!   with no matching in-tree file (`std`'s `fs::write`, `mem::take`)
//!   resolve to nothing;
//! * bare `.method(…)` / `free(…)` — same file, then same crate, then
//!   the whole workspace.
//!
//! Ambiguity therefore over-approximates: an effect attributed to any
//! candidate is attributed to the call. That errs toward false
//! positives, which suits a lint whose findings can be justified with
//! `analyze:allow`; the tiering keeps the noise down by preferring the
//! nearest definitions.

use crate::lexer::{Tok, Token};
use crate::scopes::Model;

/// The ranked locks: field name, methods that acquire them, rank. The
/// ranks come from the workspace-wide `sdm_ranks` registry the
/// `parking_lot` shim's runtime checker shares.
pub const RANKED: &[(&str, &[&str], u32)] = &[
    ("tx", &["lock"], sdm_ranks::TX),
    ("catalog", &["read", "write"], sdm_ranks::CATALOG),
    ("wal_sync", &["lock"], sdm_ranks::WAL_SYNC),
    ("wal_buf", &["lock"], sdm_ranks::WAL_BUF),
    ("stats", &["lock"], sdm_ranks::LEAF),
];

/// Look up a ranked lock by field name.
pub fn ranked(name: &str) -> Option<(&'static str, u32)> {
    RANKED
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(n, _, r)| (n, r))
}

/// A guard held at an event: which lock, its rank, and whether it is
/// exclusive (`.write()` / `.lock()` — everything but `.read()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    /// Ranked lock field name (`catalog`, `stats`, …).
    pub lock: &'static str,
    /// Ladder rank from the `sdm_ranks` registry.
    pub rank: u32,
    /// Exclusive acquisition (write guard or mutex).
    pub write: bool,
}

/// A call site found in a body.
#[derive(Debug, Clone)]
pub struct CallEv {
    /// Callee name as written.
    pub name: String,
    /// The path segment directly before `::name(`, if any
    /// (`Wal::sync_to` → `Wal`, `fs::write` → `fs`).
    pub qual: Option<String>,
    /// Whether the call is a method call (`recv.name(…)`).
    pub method: bool,
    /// Whether the receiver is a plain `self.`.
    pub recv_self: bool,
    /// Ranked acquisitions inside the argument list — an argument
    /// temporary like `rollback(&mut self.catalog.write())` holds its
    /// guard across the whole call.
    pub arg_acquires: Vec<Held>,
    /// Candidate callees (indexes into [`Callgraph::fns`]), filled in by
    /// resolution.
    pub callees: Vec<usize>,
}

/// What happened at an event site.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A ranked lock acquisition.
    Acquire {
        /// Lock field name.
        lock: &'static str,
        /// Ladder rank.
        rank: u32,
        /// Exclusive acquisition.
        write: bool,
    },
    /// A call.
    Call(CallEv),
    /// A potential panic site: a panicking macro or slice/map indexing.
    /// `.unwrap()` and `.expect(…)` are plain calls here: clippy's
    /// `unwrap_used` and `expect_used` check them.
    Panic {
        /// Human-readable site description (`unreachable!(…)`,
        /// `indexing (`buf[…]`)`).
        what: String,
        /// Whether this is a plain indexing expression (exemptable per
        /// file: the slot-resolved engine core indexes by construction).
        index: bool,
    },
}

/// One body event with the guards held when it fires.
#[derive(Debug, Clone)]
pub struct Event {
    /// 1-based source line.
    pub line: u32,
    /// Guards held at this point (acquisition events exclude
    /// themselves).
    pub held: Vec<Held>,
    /// The event.
    pub kind: EventKind,
}

/// How long a guard lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    /// Named binding: until its block closes (depth falls below).
    Block(usize),
    /// Statement temporary: until the `;` at this depth (or block end).
    Stmt(usize),
    /// `if let`/`match`/`while` scrutinee temporary: until the construct
    /// whose body opened at this depth closes (tracking `else` chains).
    Construct(usize),
}

#[derive(Debug)]
struct Guard {
    name: Option<String>,
    lock: &'static str,
    rank: u32,
    write: bool,
    end: End,
}

/// Keywords that can be directly followed by `(` without being calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "move", "mut", "ref", "await", "yield", "unsafe", "where", "impl", "dyn", "fn", "use",
    "pub", "mod", "box",
];

/// Macros whose invocation is a panic site.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names owned by the std prelude: iterator adapters,
/// `Option`/`Result` combinators, slice/str methods. An unqualified
/// `.filter(…)` or `.take(…)` on an arbitrary receiver is almost always
/// the prelude method, not a workspace method that happens to share the
/// name — resolving it at *any* tier stitches iterator pipelines into
/// the call graph as phantom edges. (A workspace method with one of
/// these names can still be reached via `self.` with a matching owner
/// or an explicit `Type::name(…)` qualifier.)
const PRELUDE_METHODS: &[&str] = &[
    "filter",
    "map",
    "take",
    "skip",
    "zip",
    "rev",
    "fold",
    "find",
    "position",
    "count",
    "sum",
    "all",
    "any",
    "collect",
    "extend",
    "last",
    "chain",
    "flatten",
    "flat_map",
    "take_while",
    "skip_while",
    "enumerate",
    "cloned",
    "copied",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "and_then",
    "or_else",
    "map_err",
    "map_or",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_str",
    "as_bytes",
    "to_vec",
    "to_string",
    "into_iter",
    "chars",
    "bytes",
    "split",
    "rsplit",
    "join",
    "trim",
    "starts_with",
    "ends_with",
    "parse",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "binary_search",
    "retain",
    "truncate",
    "resize",
    "swap",
    "replace",
];

/// Method/function names too generic to resolve at the *workspace* tier
/// (cross-crate, last resort). Within a file or a crate these resolve
/// normally; across crate boundaries, with no type information, a
/// `.get(…)` or `.wait(…)` matching some unrelated subsystem's method
/// would fabricate call chains between components that never touch.
const WORKSPACE_OPAQUE: &[&str] = &[
    "get", "set", "len", "read", "write", "open", "close", "create", "new", "wait", "notify",
    "push", "pop", "insert", "remove", "clear", "next", "peek", "expect", "run", "sync", "flush",
    "entry", "append", "merge", "apply", "reset", "load", "store", "tick", "lookup", "init",
    "build", "contains", "is_empty", "iter", "clone", "fmt", "eq", "hash", "default", "drain",
    "send", "recv", "start", "stop", "add", "put", "name", "id", "key", "value",
];

/// Walk one fn body `[start, end)`, emitting events with held-guard
/// snapshots. The guard-scope model matches the `ladder` rule's
/// documentation: named `let` bindings of a pure lock expression live to
/// the end of their block (or an explicit `drop(name)`), other guards
/// are statement temporaries, and construct-scrutinee temporaries live
/// through the construct including its `else` chain.
pub fn walk_body(toks: &[Token], start: usize, end: usize, sink: &mut dyn FnMut(Event)) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = start;
    let mut stmt_depth = 0usize;
    // A construct keyword (`if`/`match`/`while`/`for`) seen at `depth`,
    // whose `{` has not been consumed yet.
    let mut pending_construct: Option<usize> = None;
    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                pending_construct = None;
                stmt_start = i + 1;
                stmt_depth = depth;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| match g.end {
                    End::Block(d) | End::Stmt(d) => d <= depth,
                    End::Construct(d) => {
                        // The construct's body closed when depth falls
                        // below d; keep alive through an `else` chain.
                        if depth < d {
                            matches!(toks.get(i + 1).map(|t| &t.tok),
                                     Some(Tok::Ident(w)) if w == "else")
                        } else {
                            true
                        }
                    }
                });
                stmt_start = i + 1;
                stmt_depth = depth;
            }
            Tok::Punct(';') => {
                guards.retain(|g| !matches!(g.end, End::Stmt(d) if d >= depth));
                stmt_start = i + 1;
                stmt_depth = depth;
            }
            Tok::Ident(w) if matches!(w.as_str(), "if" | "match" | "while" | "for") => {
                pending_construct = Some(depth);
            }
            // `drop(name)` — early release of a named guard.
            Tok::Ident(w) if w == "drop" => {
                if let (Some(Tok::Punct('(')), Some(Tok::Ident(name)), Some(Tok::Punct(')'))) = (
                    toks.get(i + 1).map(|t| &t.tok),
                    toks.get(i + 2).map(|t| &t.tok),
                    toks.get(i + 3).map(|t| &t.tok),
                ) {
                    if let Some(pos) = guards
                        .iter()
                        .rposition(|g| g.name.as_deref() == Some(name.as_str()))
                    {
                        guards.remove(pos);
                    }
                }
            }
            Tok::Ident(obj) => {
                // Acquisition: `<name> . <method> ( )`.
                if let Some((lock, rank)) = ranked(obj) {
                    let method = match toks.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(m)) => Some(m.as_str()),
                        _ => None,
                    };
                    let is_acq = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('.')))
                        && method.is_some_and(|m| {
                            RANKED
                                .iter()
                                .any(|(n, ms, _)| *n == lock && ms.contains(&m))
                        })
                        && matches!(toks.get(i + 3).map(|t| &t.tok), Some(Tok::Punct('(')))
                        && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Punct(')')));
                    if is_acq {
                        let write = method != Some("read");
                        sink(Event {
                            line: toks[i].line,
                            held: snapshot(&guards),
                            kind: EventKind::Acquire { lock, rank, write },
                        });
                        let end_kind = classify_scope(
                            toks,
                            stmt_start,
                            i,
                            depth,
                            stmt_depth,
                            pending_construct,
                        );
                        guards.push(Guard {
                            name: binding_name(toks, stmt_start, &end_kind),
                            lock,
                            rank,
                            write,
                            end: end_kind,
                        });
                        i += 5;
                        continue;
                    }
                }
                // Panic macro: `name!(…)` / `name![…]`.
                if PANIC_MACROS.contains(&obj.as_str())
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                {
                    sink(Event {
                        line: toks[i].line,
                        held: snapshot(&guards),
                        kind: EventKind::Panic {
                            what: format!("{obj}!(…)"),
                            index: false,
                        },
                    });
                    i += 2;
                    continue;
                }
                // Indexing: `name[…]` can panic out of range.
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    sink(Event {
                        line: toks[i].line,
                        held: snapshot(&guards),
                        kind: EventKind::Panic {
                            what: format!("indexing (`{obj}[…]`)"),
                            index: true,
                        },
                    });
                }
                // Call: `name(…)`, skipping keywords and definitions.
                if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                    && !NOT_CALLS.contains(&obj.as_str())
                    && !matches!(
                        i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok),
                        Some(Tok::Ident(k)) if k == "fn"
                    )
                {
                    let prev = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok);
                    let method = matches!(prev, Some(Tok::Punct('.')));
                    let qual = if !method
                        && matches!(prev, Some(Tok::Punct(':')))
                        && matches!(
                            i.checked_sub(2).and_then(|p| toks.get(p)).map(|t| &t.tok),
                            Some(Tok::Punct(':'))
                        ) {
                        match i.checked_sub(3).and_then(|p| toks.get(p)).map(|t| &t.tok) {
                            Some(Tok::Ident(q)) => Some(q.clone()),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let recv_self = method
                        && matches!(
                            i.checked_sub(2).and_then(|p| toks.get(p)).map(|t| &t.tok),
                            Some(Tok::Ident(s)) if s == "self"
                        )
                        && !matches!(
                            i.checked_sub(3).and_then(|p| toks.get(p)).map(|t| &t.tok),
                            Some(Tok::Punct('.' | ')' | ']'))
                        );
                    let close = matching_paren(toks, i + 1, end);
                    sink(Event {
                        line: toks[i].line,
                        held: snapshot(&guards),
                        kind: EventKind::Call(CallEv {
                            name: obj.clone(),
                            qual,
                            method,
                            recv_self,
                            arg_acquires: arg_acquisitions(toks, i + 1, close),
                            callees: Vec::new(),
                        }),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// The held-set snapshot attached to an event.
fn snapshot(guards: &[Guard]) -> Vec<Held> {
    guards
        .iter()
        .map(|g| Held {
            lock: g.lock,
            rank: g.rank,
            write: g.write,
        })
        .collect()
}

/// Index of the `)` matching the `(` at `open` (or `end` if unmatched).
fn matching_paren(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    end
}

/// Ranked acquisitions inside a call's argument range `(open, close)`:
/// these guards are argument temporaries held across the call itself.
fn arg_acquisitions(toks: &[Token], open: usize, close: usize) -> Vec<Held> {
    let mut out = Vec::new();
    let mut j = open;
    while j + 4 < close {
        if let Tok::Ident(obj) = &toks[j].tok {
            if let Some((lock, rank)) = ranked(obj) {
                let method = match toks.get(j + 2).map(|t| &t.tok) {
                    Some(Tok::Ident(m)) => Some(m.as_str()),
                    _ => None,
                };
                let is_acq = matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('.')))
                    && method.is_some_and(|m| {
                        RANKED
                            .iter()
                            .any(|(n, ms, _)| *n == lock && ms.contains(&m))
                    })
                    && matches!(toks.get(j + 3).map(|t| &t.tok), Some(Tok::Punct('(')))
                    && matches!(toks.get(j + 4).map(|t| &t.tok), Some(Tok::Punct(')')));
                if is_acq {
                    out.push(Held {
                        lock,
                        rank,
                        write: method != Some("read"),
                    });
                    j += 5;
                    continue;
                }
            }
        }
        j += 1;
    }
    out
}

/// Decide the guard's scope from the shape of the current statement.
fn classify_scope(
    toks: &[Token],
    stmt_start: usize,
    event: usize,
    depth: usize,
    stmt_depth: usize,
    pending_construct: Option<usize>,
) -> End {
    if let Some(d) = pending_construct {
        // Inside a construct header: the scrutinee temporary lives
        // through the construct's body (depth d + 1 closes at d).
        return End::Construct(d + 1);
    }
    // `let <pat> = <pure lock expr> ;` binds the guard for the block.
    // "Pure" means: nothing but a path between `=` and the lock call,
    // and the call's `()` is immediately followed by `;` — otherwise
    // (`.get(k)` chains, call arguments) the guard is a temporary that
    // dies with the statement.
    if matches!(toks.get(stmt_start).map(|t| &t.tok), Some(Tok::Ident(w)) if w == "let") {
        let eq = (stmt_start..event).find(|&j| toks[j].tok == Tok::Punct('='));
        if let Some(eq) = eq {
            let pure_prefix = (eq + 1..event).all(|j| {
                matches!(&toks[j].tok, Tok::Punct('.')) || matches!(&toks[j].tok, Tok::Ident(_))
            });
            let ends_stmt = matches!(toks.get(event + 5).map(|t| &t.tok), Some(Tok::Punct(';')));
            if pure_prefix && ends_stmt {
                return End::Block(depth);
            }
        }
    }
    let _ = stmt_depth;
    End::Stmt(depth)
}

/// The binding name for a block-scoped guard (`let mut <name> = …`).
fn binding_name(toks: &[Token], stmt_start: usize, end: &End) -> Option<String> {
    if !matches!(end, End::Block(_)) {
        return None;
    }
    let mut j = stmt_start + 1; // past `let`
    while let Some(Tok::Ident(w)) = toks.get(j).map(|t| &t.tok) {
        if w == "mut" {
            j += 1;
            continue;
        }
        return Some(w.clone());
    }
    None
}

// ------------------------------------------------------------------ callgraph

/// One workspace function in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Impl-block owner (`Database` for `impl Database` methods).
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Test code (excluded from bodies and from resolution candidates).
    pub is_test: bool,
    /// `&mut Catalog` appears in the signature (not `&mut self`).
    pub has_mut_catalog: bool,
    /// `UndoLog` appears in the signature.
    pub has_undo: bool,
    /// Body events, in source order; empty for test fns and bodyless
    /// declarations.
    pub events: Vec<Event>,
}

impl FnNode {
    /// Impl-qualified display name (`Database::checkpoint`, or the bare
    /// name for free fns).
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Callgraph {
    /// Repo-relative file paths, parallel to the models it was built
    /// from.
    pub files: Vec<String>,
    /// Every fn in the workspace, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// Total resolved call edges (sum of candidate sets).
    pub call_edges: usize,
}

impl Callgraph {
    /// Build the graph over a set of files and resolve every call site.
    pub fn build(files: &[(String, Model)]) -> Callgraph {
        let mut fns = Vec::new();
        for (fi, (_path, model)) in files.iter().enumerate() {
            for f in &model.fns {
                let sig = &model.tokens[f.sig.0..f.sig.1.min(model.tokens.len())];
                let has_mut_catalog = sig.windows(3).any(|w| {
                    matches!(&w[0].tok, Tok::Punct('&'))
                        && matches!(&w[1].tok, Tok::Ident(m) if m == "mut")
                        && matches!(&w[2].tok, Tok::Ident(c) if c == "Catalog")
                });
                let has_undo = sig
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(u) if u == "UndoLog"));
                let mut events = Vec::new();
                if !f.is_test {
                    if let Some((start, end)) = f.body {
                        walk_body(&model.tokens, start, end, &mut |e| events.push(e));
                    }
                }
                fns.push(FnNode {
                    file: fi,
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    line: f.line,
                    is_test: f.is_test,
                    has_mut_catalog,
                    has_undo,
                    events,
                });
            }
        }
        let mut cg = Callgraph {
            files: files.iter().map(|(p, _)| p.clone()).collect(),
            fns,
            call_edges: 0,
        };
        cg.resolve_calls();
        cg
    }

    /// Fill in `CallEv::callees` for every call site.
    fn resolve_calls(&mut self) {
        // Candidate index: non-test fns only (test helpers never shadow
        // library definitions), and nothing from `crates/shims/` — the
        // shims stand in for external crates, so a name colliding with
        // one of theirs (`serde_json`'s `Parser::expect` vs the SQL
        // grammar's) must not leak shim bodies into workspace chains.
        let candidates: Vec<usize> = (0..self.fns.len())
            .filter(|&i| {
                !self.fns[i].is_test && !self.files[self.fns[i].file].starts_with("crates/shims/")
            })
            .collect();
        let stem_of = |path: &str| -> String {
            let parts: Vec<&str> = path.split('/').collect();
            let last = parts.last().copied().unwrap_or("");
            let base = last.strip_suffix(".rs").unwrap_or(last);
            if base == "mod" || base == "lib" || base == "main" {
                parts
                    .len()
                    .checked_sub(2)
                    .and_then(|i| parts.get(i))
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| base.to_string())
            } else {
                base.to_string()
            }
        };
        let crate_of = |path: &str| -> String {
            let mut it = path.split('/');
            match (it.next(), it.next(), it.next()) {
                (Some("crates"), Some("shims"), Some(c)) => format!("shims/{c}"),
                (Some("crates"), Some(c), _) => c.to_string(),
                _ => "root".to_string(),
            }
        };
        let file_stems: Vec<String> = self.files.iter().map(|p| stem_of(p)).collect();
        let file_crates: Vec<String> = self.files.iter().map(|p| crate_of(p)).collect();

        let mut edges = 0usize;
        for caller in 0..self.fns.len() {
            let caller_file = self.fns[caller].file;
            let caller_owner = self.fns[caller].owner.clone();
            // Split borrow: take the events out, resolve, put back.
            let mut events = std::mem::take(&mut self.fns[caller].events);
            for ev in &mut events {
                let EventKind::Call(call) = &mut ev.kind else {
                    continue;
                };
                let named: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].name == call.name)
                    .collect();
                let resolved: Vec<usize> = match &call.qual {
                    Some(q) if q == "Self" || q == "self" => {
                        // `Self::assoc(…)` / `self::free(…)`.
                        match &caller_owner {
                            Some(o) if q == "Self" => named
                                .iter()
                                .copied()
                                .filter(|&i| self.fns[i].owner.as_deref() == Some(o))
                                .collect(),
                            _ => named
                                .iter()
                                .copied()
                                .filter(|&i| {
                                    self.fns[i].file == caller_file && self.fns[i].owner.is_none()
                                })
                                .collect(),
                        }
                    }
                    Some(q) if q.chars().next().is_some_and(|c| c.is_uppercase()) => {
                        // `Type::method(…)`: exact owner match.
                        named
                            .iter()
                            .copied()
                            .filter(|&i| self.fns[i].owner.as_deref() == Some(q.as_str()))
                            .collect()
                    }
                    Some(q) => {
                        // `module::func(…)`: free fns in the module's
                        // file; no in-tree file means `std` (no edge).
                        named
                            .iter()
                            .copied()
                            .filter(|&i| {
                                self.fns[i].owner.is_none() && file_stems[self.fns[i].file] == *q
                            })
                            .collect()
                    }
                    None => {
                        // Owner tier for `self.method(…)`, then
                        // file → crate → workspace among the right kind.
                        if call.recv_self {
                            if let Some(o) = &caller_owner {
                                let own: Vec<usize> = named
                                    .iter()
                                    .copied()
                                    .filter(|&i| self.fns[i].owner.as_deref() == Some(o.as_str()))
                                    .collect();
                                if !own.is_empty() {
                                    call.callees = own;
                                    edges += call.callees.len();
                                    continue;
                                }
                            }
                        }
                        if call.method && PRELUDE_METHODS.contains(&call.name.as_str()) {
                            // A prelude-shadowed adapter name on a
                            // non-`self` receiver (or one the owner tier
                            // above could not claim): treat as std.
                            call.callees = Vec::new();
                            continue;
                        }
                        let kind_ok = |i: usize| -> bool {
                            if call.method {
                                self.fns[i].owner.is_some()
                            } else {
                                self.fns[i].owner.is_none()
                            }
                        };
                        let same_file: Vec<usize> = named
                            .iter()
                            .copied()
                            .filter(|&i| kind_ok(i) && self.fns[i].file == caller_file)
                            .collect();
                        if !same_file.is_empty() {
                            same_file
                        } else {
                            let same_crate: Vec<usize> = named
                                .iter()
                                .copied()
                                .filter(|&i| {
                                    kind_ok(i)
                                        && file_crates[self.fns[i].file] == file_crates[caller_file]
                                })
                                .collect();
                            if !same_crate.is_empty() {
                                same_crate
                            } else if WORKSPACE_OPAQUE.contains(&call.name.as_str()) {
                                // A name this generic crossing a crate
                                // boundary is almost never the workspace
                                // definition (`.wait()` on a condvar,
                                // `.get()` on a map); resolving it would
                                // wire unrelated subsystems together.
                                Vec::new()
                            } else {
                                let ws: Vec<usize> =
                                    named.iter().copied().filter(|&i| kind_ok(i)).collect();
                                // Same reasoning for a name defined in
                                // many places: with no type information
                                // the union would be noise, not an
                                // over-approximation worth having.
                                if ws.len() > 2 {
                                    Vec::new()
                                } else {
                                    ws
                                }
                            }
                        }
                    }
                };
                call.callees = resolved;
                edges += call.callees.len();
            }
            self.fns[caller].events = events;
        }
        self.call_edges = edges;
    }

    /// Number of non-test fns (the denominator CI prints).
    pub fn analyzed_fns(&self) -> usize {
        self.fns.iter().filter(|f| !f.is_test).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> (Vec<(String, Model)>, Callgraph) {
        let models: Vec<(String, Model)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), Model::build(s)))
            .collect();
        let cg = Callgraph::build(&models);
        (models, cg)
    }

    fn find<'a>(cg: &'a Callgraph, name: &str) -> &'a FnNode {
        cg.fns.iter().find(|f| f.name == name).unwrap()
    }

    fn callees_of(cg: &Callgraph, caller: &str, callee_name: &str) -> Vec<String> {
        find(cg, caller)
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call(c) if c.name == callee_name => Some(c),
                _ => None,
            })
            .flat_map(|c| c.callees.iter().map(|&i| cg.fns[i].qualified()))
            .collect()
    }

    #[test]
    fn self_calls_resolve_to_own_impl() {
        let (_m, cg) = graph(&[(
            "crates/a/src/lib.rs",
            "impl Db { fn f(&self) { self.g(); } fn g(&self) {} }\n\
             impl Other { fn g(&self) {} }",
        )]);
        assert_eq!(callees_of(&cg, "f", "g"), vec!["Db::g"]);
    }

    #[test]
    fn type_qualified_calls_resolve_exactly() {
        let (_m, cg) = graph(&[(
            "crates/a/src/lib.rs",
            "impl Wal { fn sync_to(&self) {} }\n\
             impl Db { fn f(&self) { Wal::sync_to(w); } }",
        )]);
        assert_eq!(callees_of(&cg, "f", "sync_to"), vec!["Wal::sync_to"]);
    }

    #[test]
    fn module_qualified_calls_resolve_by_file_stem() {
        let (_m, cg) = graph(&[
            ("crates/a/src/exec.rs", "pub fn run(c: &mut Catalog) {}"),
            (
                "crates/a/src/db.rs",
                "fn f() { exec::run(c); fs::write(p, b); }",
            ),
        ]);
        assert_eq!(callees_of(&cg, "f", "run"), vec!["run"]);
        // `fs` has no in-tree file: std call, no edge.
        assert!(callees_of(&cg, "f", "write").is_empty());
    }

    #[test]
    fn method_calls_tier_file_then_crate_then_workspace() {
        let (_m, cg) = graph(&[
            (
                "crates/a/src/wal.rs",
                "impl Wal { fn f(&self, s: &S) { s.append(x); } }\n\
                 impl FileStorage { fn append(&mut self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Remote { fn append(&mut self) {} }",
            ),
        ]);
        // Same-file candidate wins; the other crate's `append` is not
        // in the set.
        assert_eq!(callees_of(&cg, "f", "append"), vec!["FileStorage::append"]);
    }

    #[test]
    fn ambiguous_methods_keep_every_candidate_in_tier() {
        let (_m, cg) = graph(&[(
            "crates/a/src/storage.rs",
            "impl FileStorage { fn sync(&mut self) {} }\n\
             impl MemStorage { fn sync(&mut self) {} }\n\
             impl Wal { fn flush(&self, t: &T) { t.storage.sync(); } }",
        )]);
        let mut got = callees_of(&cg, "flush", "sync");
        got.sort();
        assert_eq!(got, vec!["FileStorage::sync", "MemStorage::sync"]);
    }

    #[test]
    fn prelude_adapter_names_never_resolve_by_name() {
        let (_m, cg) = graph(&[(
            "crates/a/src/exec.rs",
            "impl Update { fn filter(&self) {} }\n\
             impl Cursor { fn take(&mut self) {} }\n\
             impl Rel { fn f(&self, rows: &[R]) { rows.iter().filter(p); it.take(2); \
             Cursor::take(c); } }",
        )]);
        // `.filter(…)` / `.take(…)` on arbitrary receivers are the std
        // adapters, even though same-crate methods share the names…
        assert!(callees_of(&cg, "f", "filter").is_empty());
        // …but an explicit `Type::name(…)` qualifier still resolves.
        assert_eq!(callees_of(&cg, "f", "take"), vec!["Cursor::take"]);
    }

    #[test]
    fn test_fns_are_not_candidates() {
        let (_m, cg) = graph(&[(
            "crates/a/src/lib.rs",
            "fn f() { helper(); }\n\
             #[cfg(test)] mod tests { fn helper() {} }",
        )]);
        assert!(callees_of(&cg, "f", "helper").is_empty());
    }

    #[test]
    fn arg_acquisitions_are_recorded() {
        let (_m, cg) = graph(&[(
            "crates/a/src/db.rs",
            "impl Db { fn f(&mut self) { state.undo.rollback(&mut self.catalog.write()); } }",
        )]);
        let f = find(&cg, "f");
        let call = f
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call(c) if c.name == "rollback" => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            call.arg_acquires,
            vec![Held {
                lock: "catalog",
                rank: sdm_ranks::CATALOG,
                write: true
            }]
        );
    }

    #[test]
    fn events_carry_held_snapshots() {
        let (_m, cg) = graph(&[(
            "crates/a/src/db.rs",
            "impl Db { fn f(&self) { let c = self.catalog.write(); self.helper(); } \
             fn helper(&self) {} }",
        )]);
        let f = find(&cg, "f");
        let call = f
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call(c) if c.name == "helper"))
            .unwrap();
        assert_eq!(
            call.held,
            vec![Held {
                lock: "catalog",
                rank: sdm_ranks::CATALOG,
                write: true
            }]
        );
    }

    #[test]
    fn macros_and_indexing_are_panic_events() {
        let (_m, cg) = graph(&[(
            "crates/a/src/db.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); unreachable!(\"arm\"); buf[0]; }",
        )]);
        let f = find(&cg, "f");
        let panics: Vec<&str> = f
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Panic { what, .. } => Some(what.as_str()),
                _ => None,
            })
            .collect();
        // `.unwrap()` and `.expect("…")` are calls, left to clippy.
        assert_eq!(panics, vec!["unreachable!(…)", "indexing (`buf[…]`)"]);
    }
}
