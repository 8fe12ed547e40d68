//! In-tree stand-in for the `serde` crate (see DESIGN.md, "Hermetic
//! build").
//!
//! What is left of it is the JSON value tree, [`Json`], that the
//! `serde_json` shim's parser builds; `bench_e2e`'s tests read their own
//! reports back through it. Nothing in the workspace serializes a Rust
//! type.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// A parsed JSON value.
///
/// Integers keep 64-bit precision (separate signed/unsigned variants)
/// so ids and byte offsets parse exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer outside the `i64` range.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}
