//! Derive macros for the in-tree `serde` shim.
//!
//! Written directly against `proc_macro` (no `syn`/`quote` available in
//! the hermetic build): the input item is token-scanned into a small
//! `Item` description, and the generated impl is emitted as a source
//! string parsed back into a `TokenStream`.
//!
//! Supported shapes — exactly what the workspace uses:
//! * non-generic structs with named fields, honoring `#[serde(skip)]`
//!   (not serialized, `Default` on deserialize) and `#[serde(default)]`
//!   (`Default` when the field is missing);
//! * non-generic enums with unit and tuple variants, encoded in serde's
//!   externally-tagged form (`"Variant"` / `{"Variant": ...}`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    skip: bool,
    default: bool,
}

struct Variant {
    name: String,
    arity: usize,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Attributes found while scanning: `(skip, default)`.
fn scan_serde_attr(group: &TokenStream) -> (bool, bool) {
    let toks: Vec<TokenTree> = group.clone().into_iter().collect();
    // Expect `serde ( ... )`.
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(inner)))
            if id.to_string() == "serde" =>
        {
            let mut skip = false;
            let mut default = false;
            for t in inner.stream() {
                if let TokenTree::Ident(w) = t {
                    match w.to_string().as_str() {
                        "skip" => skip = true,
                        "default" => default = true,
                        other => panic!("serde shim derive: unsupported attribute `{other}`"),
                    }
                }
            }
            (skip, default)
        }
        _ => (false, false), // some other attribute (doc comment etc.)
    }
}

/// Consume leading attributes at `*i`, returning merged serde flags.
fn take_attrs(toks: &[TokenTree], i: &mut usize) -> (bool, bool) {
    let (mut skip, mut default) = (false, false);
    while let Some(TokenTree::Punct(p)) = toks.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(g)) = toks.get(*i + 1) else {
            panic!("serde shim derive: `#` not followed by attribute brackets")
        };
        let (s, d) = scan_serde_attr(&g.stream());
        skip |= s;
        default |= d;
        *i += 2;
    }
    (skip, default)
}

/// Skip `pub`, `pub(...)` at `*i`.
fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn ident_at(toks: &[TokenTree], i: usize, what: &str) -> String {
    match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected {what}, got {other:?}"),
    }
}

/// Split a token group on top-level commas. Commas inside `<...>` type
/// arguments are not split points: `<`/`>` are loose puncts (not token
/// groups), so angle depth is tracked explicitly.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle_depth = 0usize;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                cur.push(t);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
                cur.push(t);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(t),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    take_attrs(&toks, &mut i);
    skip_visibility(&toks, &mut i);
    let kw = ident_at(&toks, i, "`struct` or `enum`");
    i += 1;
    let name = ident_at(&toks, i, "item name");
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (type {name})");
        }
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other =>

            panic!("serde shim derive: {name}: expected braced body, got {other:?} (tuple/unit items unsupported)"),
    };
    let shape = match kw.as_str() {
        "struct" => {
            let mut fields = Vec::new();
            for chunk in split_commas(body) {
                let mut j = 0;
                let (skip, default) = take_attrs(&chunk, &mut j);
                skip_visibility(&chunk, &mut j);
                let fname = ident_at(&chunk, j, "field name");
                fields.push(Field {
                    name: fname,
                    skip,
                    default,
                });
            }
            Shape::Struct(fields)
        }
        "enum" => {
            let mut variants = Vec::new();
            for chunk in split_commas(body) {
                let mut j = 0;
                take_attrs(&chunk, &mut j);
                let vname = ident_at(&chunk, j, "variant name");
                j += 1;
                let arity = match chunk.get(j) {
                    None => 0,
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        split_commas(g.stream()).len()
                    }
                    other => panic!(
                        "serde shim derive: {name}::{vname}: unsupported variant form {other:?}"
                    ),
                };
                variants.push(Variant { name: vname, arity });
            }
            Shape::Enum(variants)
        }
        other => panic!("serde shim derive: expected struct or enum, got `{other}`"),
    };
    Item { name, shape }
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.skip) {
                pushes.push_str(&format!(
                    "obj.push((::std::string::String::from(\"{0}\"), \
                     ::serde::Serialize::to_json(&self.{0})));\n",
                    f.name
                ));
            }
            format!(
                "let mut obj: ::std::vec::Vec<(::std::string::String, ::serde::Json)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Json::Obj(obj)"
            )
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match v.arity {
                    0 => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Json::Str(::std::string::String::from(\"{vn}\")),\n"
                    )),
                    1 => arms.push_str(&format!(
                        "{name}::{vn}(f0) => ::serde::Json::Obj(::std::vec![(\
                         ::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_json(f0))]),\n"
                    )),
                    n => {
                        let binds: Vec<String> = (0..n).map(|k| format!("f{k}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_json({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Json::Obj(::std::vec![(\
                             ::std::string::String::from(\"{vn}\"), \
                             ::serde::Json::Arr(::std::vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_json(&self) -> ::serde::Json {{\n{body}\n}}\n}}\n"
    );
    emit(out)
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.skip {
                    inits.push_str(&format!(
                        "{}: ::core::default::Default::default(),\n",
                        f.name
                    ));
                } else if f.default {
                    inits.push_str(&format!(
                        "{0}: match ::serde::json_find(obj, \"{0}\") {{\n\
                         ::core::option::Option::Some(x) => ::serde::Deserialize::from_json(x)?,\n\
                         ::core::option::Option::None => ::core::default::Default::default(),\n}},\n",
                        f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{0}: match ::serde::json_find(obj, \"{0}\") {{\n\
                         ::core::option::Option::Some(x) => ::serde::Deserialize::from_json(x)?,\n\
                         ::core::option::Option::None => return ::core::result::Result::Err(\
                         ::serde::Error::msg(\"missing field `{0}` in {name}\")),\n}},\n",
                        f.name
                    ));
                }
            }
            format!(
                "let obj = v.as_obj().ok_or_else(|| \
                 ::serde::Error::msg(::std::format!(\"expected object for {name}, got {{}}\", v.kind())))?;\n\
                 ::core::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match v.arity {
                    0 => unit_arms.push_str(&format!(
                        "\"{vn}\" => return ::core::result::Result::Ok({name}::{vn}),\n"
                    )),
                    1 => tagged_arms.push_str(&format!(
                        "\"{vn}\" => return ::core::result::Result::Ok(\
                         {name}::{vn}(::serde::Deserialize::from_json(inner)?)),\n"
                    )),
                    n => {
                        let elems: Vec<String> = (0..n)
                            .map(|k| format!("::serde::Deserialize::from_json(&arr[{k}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let arr = inner.as_arr().ok_or_else(|| \
                             ::serde::Error::msg(\"expected array payload for {name}::{vn}\"))?;\n\
                             if arr.len() != {n} {{ return ::core::result::Result::Err(\
                             ::serde::Error::msg(\"wrong payload arity for {name}::{vn}\")); }}\n\
                             return ::core::result::Result::Ok({name}::{vn}({}));\n}}\n",
                            elems.join(", ")
                        ));
                    }
                }
            }
            format!(
                "if let ::core::option::Option::Some(s) = v.as_str() {{\n\
                 match s {{\n{unit_arms}_ => {{}}\n}}\n}}\n\
                 if let ::core::option::Option::Some(obj) = v.as_obj() {{\n\
                 if obj.len() == 1 {{\n\
                 let (tag, inner) = &obj[0];\n\
                 let _ = inner;\n\
                 match tag.as_str() {{\n{tagged_arms}_ => {{}}\n}}\n}}\n}}\n\
                 ::core::result::Result::Err(::serde::Error::msg(\
                 ::std::format!(\"no variant of {name} matches {{}}\", v.kind())))"
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_json(v: &::serde::Json) -> ::core::result::Result<{name}, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    );
    emit(out)
}

/// The generated impl as tokens.
#[expect(
    clippy::expect_used,
    reason = "a derive has no error channel, and the impl is built from the input's own \
              identifiers: text that does not parse is a bug in this shim"
)]
fn emit(code: String) -> TokenStream {
    code.parse()
        .expect("serde shim derive: generated impl must parse")
}
