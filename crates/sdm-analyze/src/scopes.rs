//! Source model: functions, their signatures and bodies, and test
//! context.
//!
//! Built from the raw token stream in one pass. The model is
//! deliberately shallow — token index ranges, not an AST — but it knows
//! the two things every rule needs: where each function's signature and
//! body live, and whether a given token is test code (inside a
//! `#[cfg(test)]` module or a `#[test]` function).

use crate::lexer::{lex, Allow, Tok, Token};

/// One `fn` item found in the file.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// The `impl` block's type name when the fn is a method
    /// (`impl Database` / `impl WalStorage for FileStorage` both yield
    /// the implementing type), `None` for free functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the signature: from just after the
    /// name to the body's `{` (or the `;` of a bodyless declaration).
    pub sig: (usize, usize),
    /// Token range `[start, end)` of the body including both braces;
    /// `None` for trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether this is test code (`#[test]`, or any enclosing
    /// `#[cfg(test)]` module).
    pub is_test: bool,
}

/// The lexed file plus structure.
#[derive(Debug)]
pub struct Model {
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Suppression directives from comments.
    pub allows: Vec<Allow>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnInfo>,
    /// Token ranges that are test code (test modules and test fns).
    pub test_spans: Vec<(usize, usize)>,
    /// Source split into lines (for snippets).
    pub lines: Vec<String>,
}

impl Model {
    /// Build the model for one file.
    pub fn build(source: &str) -> Self {
        let lexed = lex(source);
        let (fns, test_spans) = scan_items(&lexed.tokens);
        Model {
            tokens: lexed.tokens,
            allows: lexed.allows,
            fns,
            test_spans,
            lines: source.lines().map(str::to_string).collect(),
        }
    }

    /// The trimmed source line `line` (1-based), for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Whether source line `line` (1-based) lies in test code: the line
    /// of any token inside a test span. Comment-only lines between two
    /// test tokens count too, which is what directive mining needs.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| {
            let first = self.tokens.get(s).map(|t| t.line);
            let last = e
                .checked_sub(1)
                .and_then(|j| self.tokens.get(j))
                .map(|t| t.line);
            matches!((first, last), (Some(a), Some(b)) if a <= line && line <= b)
        })
    }

    /// Whether a finding of `rule` at `line` is suppressed by an
    /// `analyze:allow(rule: reason)` on the same or the preceding line.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Walk the token stream once, collecting `fn` items and test spans.
fn scan_items(toks: &[Token]) -> (Vec<FnInfo>, Vec<(usize, usize)>) {
    let mut fns = Vec::new();
    let mut test_spans = Vec::new();
    // Stack of open `#[cfg(test)]` module depths (brace depth at entry).
    let mut test_mod_depths: Vec<(usize, usize)> = Vec::new(); // (depth, span start)
                                                               // Stack of open `impl` blocks: (brace depth at entry, type name).
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut depth = 0usize;
    // Attributes seen since the last item boundary, flattened to words.
    let mut pending_attrs: Vec<Vec<String>> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('#') => {
                // `#[...]` or `#![...]`: collect the attribute's idents.
                let mut j = i + 1;
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                    j += 1;
                }
                if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    let mut words = Vec::new();
                    let mut bdepth = 0usize;
                    while j < toks.len() {
                        match &toks[j].tok {
                            Tok::Punct('[') => bdepth += 1,
                            Tok::Punct(']') => {
                                bdepth -= 1;
                                if bdepth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            Tok::Ident(w) => words.push(w.clone()),
                            Tok::Punct(c @ ('(' | ')')) => words.push(c.to_string()),
                            _ => {}
                        }
                        j += 1;
                    }
                    pending_attrs.push(words);
                    i = j;
                    continue;
                }
                i += 1;
            }
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
                pending_attrs.clear();
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                // A module pushed at depth `d` opens a brace (depth
                // `d + 1`); its closing brace brings depth back *to*
                // `d`, which is when the span ends.
                if let Some(&(d, start)) = test_mod_depths.last() {
                    if depth <= d {
                        test_mod_depths.pop();
                        test_spans.push((start, i + 1));
                    }
                }
                if let Some(&(d, _)) = impl_stack.last() {
                    if depth <= d {
                        impl_stack.pop();
                    }
                }
                i += 1;
                pending_attrs.clear();
            }
            Tok::Ident(w) if w == "mod" => {
                // `mod name {` — enter; `mod name;` — nothing to track.
                let is_test = pending_attrs.iter().any(|a| is_cfg_test(a));
                pending_attrs.clear();
                let mut j = i + 1;
                while j < toks.len() && !matches!(toks[j].tok, Tok::Punct('{') | Tok::Punct(';')) {
                    j += 1;
                }
                if j < toks.len() && toks[j].tok == Tok::Punct('{') {
                    if is_test {
                        test_mod_depths.push((depth, i));
                    }
                    depth += 1;
                }
                i = j + 1;
            }
            Tok::Ident(w) if w == "impl" && at_item_position(toks, i) => {
                pending_attrs.clear();
                let (owner, j) = parse_impl_header(toks, i + 1);
                if j < toks.len() && toks[j].tok == Tok::Punct('{') {
                    impl_stack.push((depth, owner));
                    depth += 1;
                }
                i = j + 1;
            }
            Tok::Ident(w) if w == "fn" => {
                let line = toks[i].line;
                let in_test_mod = !test_mod_depths.is_empty();
                let has_test_attr = pending_attrs.iter().any(|a| is_test_attr(a));
                pending_attrs.clear();
                let name = match toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(n)) => n.clone(),
                    // `fn` inside a type (`fn(...)` pointers): skip.
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let sig_start = i + 2;
                // The signature runs to the body `{` or a `;`
                // (trait-method declaration). Parens and brackets can
                // nest, but a `{` before `;` at nesting level 0 is the
                // body (const-generic braces hide inside `()`/`<>`-free
                // positions rarely enough for a lint).
                let mut j = sig_start;
                let mut pdepth = 0usize;
                let mut body = None;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') => pdepth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => pdepth = pdepth.saturating_sub(1),
                        Tok::Punct(';') if pdepth == 0 => break,
                        Tok::Punct('{') if pdepth == 0 => {
                            // Find the matching close.
                            let mut bdepth = 0usize;
                            let mut k = j;
                            while k < toks.len() {
                                match &toks[k].tok {
                                    Tok::Punct('{') => bdepth += 1,
                                    Tok::Punct('}') => {
                                        bdepth -= 1;
                                        if bdepth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                            body = Some((j, (k + 1).min(toks.len())));
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let sig_end = j;
                let is_test = in_test_mod || has_test_attr;
                if is_test {
                    if let Some((bs, be)) = body {
                        if !in_test_mod {
                            // A `#[test]` fn outside a test module still
                            // masks its own tokens.
                            test_spans.push((i, be.max(bs)));
                        }
                    }
                }
                fns.push(FnInfo {
                    name,
                    owner: impl_stack.last().and_then(|(_, o)| o.clone()),
                    line,
                    sig: (sig_start, sig_end),
                    body,
                    is_test,
                });
                // Continue scanning *inside* the body too (nested fns,
                // nested modules): just step past the `fn` name.
                i += 2;
            }
            // Qualifiers that may sit between an attribute and the item
            // it decorates (`#[test] pub(crate) async fn …`) must not
            // discard the pending attributes.
            Tok::Ident(w)
                if matches!(
                    w.as_str(),
                    "pub"
                        | "unsafe"
                        | "async"
                        | "const"
                        | "extern"
                        | "crate"
                        | "super"
                        | "in"
                        | "self"
                ) =>
            {
                i += 1;
            }
            Tok::Punct('(') | Tok::Punct(')') | Tok::Str(_) => {
                i += 1;
            }
            _ => {
                pending_attrs.clear();
                i += 1;
            }
        }
    }
    // File ended inside a test module (unbalanced braces): close spans.
    while let Some((_, start)) = test_mod_depths.pop() {
        test_spans.push((start, toks.len()));
    }
    (fns, test_spans)
}

/// Whether the `impl` at token `i` starts an item (an impl block) rather
/// than appearing in type position (`fn f(x: impl Trait)`,
/// `-> impl Iterator`). Item position: start of file, after a closing
/// or opening brace, a `;`, a `]` (attribute close), or `unsafe`.
fn at_item_position(toks: &[Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok) {
        None => true,
        Some(Tok::Punct('{' | '}' | ';' | ']')) => true,
        Some(Tok::Ident(w)) => w == "unsafe",
        _ => false,
    }
}

/// Parse an impl header starting just after the `impl` keyword: skip the
/// leading generic parameter list, then take the last ident of the type
/// path — restarting at `for`, so `impl<T> Trait<T> for Type<T>` yields
/// `Type`. Returns the owner and the index of the body `{`.
fn parse_impl_header(toks: &[Token], mut j: usize) -> (Option<String>, usize) {
    if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        j = skip_generics(toks, j);
    }
    let mut owner: Option<String> = None;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Punct('<') => {
                j = skip_generics(toks, j);
                continue;
            }
            Tok::Ident(w) if w == "for" => owner = None,
            Tok::Ident(w) if w == "where" => {
                while j < toks.len() && toks[j].tok != Tok::Punct('{') {
                    j += 1;
                }
                break;
            }
            Tok::Ident(w) if w == "dyn" || w == "mut" => {}
            // Successive path segments overwrite: `fmt::Display` ends at
            // `Display`, `crate::wal::Wal` at `Wal`.
            Tok::Ident(w) => owner = Some(w.clone()),
            _ => {}
        }
        j += 1;
    }
    (owner, j)
}

/// Skip a balanced `<…>` generic list starting at the `<` at `j`. A `>`
/// preceded by `-` is a return arrow inside an `Fn(...) -> T` bound, not
/// a closer.
fn skip_generics(toks: &[Token], mut j: usize) -> usize {
    let mut adepth = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('<') => adepth += 1,
            Tok::Punct('>') => {
                let arrow = j > 0 && toks[j - 1].tok == Tok::Punct('-');
                if !arrow {
                    adepth -= 1;
                    if adepth == 0 {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// `#[cfg(test)]` — exactly, so `cfg(not(test))` stays non-test.
fn is_cfg_test(words: &[String]) -> bool {
    words.len() == 4
        && words[0] == "cfg"
        && words[1] == "("
        && words[2] == "test"
        && words[3] == ")"
}

/// `#[test]` (or a path ending in `test`, e.g. `tokio::test`).
fn is_test_attr(words: &[String]) -> bool {
    words.last().is_some_and(|w| w == "test") && !words.iter().any(|w| w == "cfg")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_bodies() {
        let m = Model::build("fn a() { 1 }\npub fn b(x: i32) -> i32;\nfn c() {}\n");
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(m.fns[0].body.is_some());
        assert!(m.fns[1].body.is_none());
    }

    #[test]
    fn cfg_test_module_marks_tokens() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn t() {}\n}\nfn lib2() {}";
        let m = Model::build(src);
        let by_name = |n: &str| m.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib").is_test);
        assert!(by_name("helper").is_test);
        assert!(by_name("t").is_test);
        assert!(!by_name("lib2").is_test);
        // Lines inside the module are test lines; outside not.
        assert!(m.is_test_line(by_name("helper").line));
        assert!(!m.is_test_line(by_name("lib2").line));
    }

    #[test]
    fn test_attr_fn_outside_module() {
        let m = Model::build("#[test]\nfn t() { boom(); }\nfn lib() {}");
        assert!(m.fns[0].is_test);
        assert!(!m.fns[1].is_test);
        assert!(m.is_test_line(m.fns[0].line));
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let m = Model::build("#[cfg(not(test))]\nmod m { fn f() {} }");
        assert!(!m.fns[0].is_test);
    }

    #[test]
    fn allow_applies_same_and_next_line() {
        let m = Model::build("// analyze:allow(held-io: fine)\nlet x = fs::read(p);\n");
        assert!(m.allowed("held-io", 1));
        assert!(m.allowed("held-io", 2));
        assert!(!m.allowed("held-io", 3));
        assert!(!m.allowed("ladder", 2));
    }

    #[test]
    fn impl_owner_is_tracked() {
        let src = "impl Database { fn method(&self) {} }\n\
                   fn free() {}\n\
                   impl fmt::Display for Value { fn fmt(&self) {} }\n\
                   impl<T: Clone> Handle<T> { fn get(&self) {} }\n\
                   impl WalStorage for FileStorage { fn sync(&mut self) {} }";
        let m = Model::build(src);
        let owner = |n: &str| m.fns.iter().find(|f| f.name == n).unwrap().owner.clone();
        assert_eq!(owner("method").as_deref(), Some("Database"));
        assert_eq!(owner("free"), None);
        assert_eq!(owner("fmt").as_deref(), Some("Value"));
        assert_eq!(owner("get").as_deref(), Some("Handle"));
        assert_eq!(owner("sync").as_deref(), Some("FileStorage"));
    }

    #[test]
    fn impl_in_type_position_is_not_a_block() {
        let src = "fn f(x: impl Iterator<Item = u8>) -> impl Clone { x }\nfn g() {}";
        let m = Model::build(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[1].owner, None);
    }

    #[test]
    fn nested_fn_inherits_then_releases_owner() {
        let src = "impl A { fn m(&self) {} }\nfn free2() {}";
        let m = Model::build(src);
        assert_eq!(m.fns[0].owner.as_deref(), Some("A"));
        assert_eq!(m.fns[1].owner, None);
    }

    #[test]
    fn is_test_line_covers_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\n";
        let m = Model::build(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(4));
    }

    #[test]
    fn sig_range_covers_params() {
        let m = Model::build("fn f(c: &mut Catalog, u: Option<&mut UndoLog>) -> i32 { 0 }");
        let f = &m.fns[0];
        let words: Vec<_> = m.tokens[f.sig.0..f.sig.1]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(words.contains(&"Catalog"));
        assert!(words.contains(&"UndoLog"));
    }
}
