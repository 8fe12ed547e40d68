//! In-tree stand-in for the `serde` crate (see DESIGN.md, "Hermetic
//! build").
//!
//! Instead of serde's visitor-based data model, this shim serializes
//! through one concrete tree, [`Json`]: `Serialize` renders a value into
//! the tree, `Deserialize` rebuilds a value from it, and the companion
//! `serde_json` shim prints/parses the tree as JSON text. The derive
//! macros (re-exported from `serde_derive`) understand the attribute
//! subset the workspace uses: `#[serde(skip)]` and `#[serde(default)]`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value tree — the whole serde data model of this shim.
///
/// Integers keep 64-bit precision (separate signed/unsigned variants)
/// so ids and byte offsets survive round trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer outside the `i64` range (or any `u64`).
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

    /// A short name of the variant for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::I64(_) | Json::U64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Find a field in object entries (first match wins).
pub fn json_find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Build an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Render `self` into the [`Json`] tree.
pub trait Serialize {
    /// The tree form of `self`.
    fn to_json(&self) -> Json;
}

/// Rebuild `Self` from a [`Json`] tree.
pub trait Deserialize: Sized {
    /// Parse the tree form back into a value.
    fn from_json(v: &Json) -> Result<Self, Error>;
}

// ---- primitive impls ----

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, Error> {
                let i = match v {
                    Json::I64(i) => *i,
                    Json::U64(u) => i64::try_from(*u)
                        .map_err(|_| Error::msg(format!("{u} out of range for {}", stringify!($t))))?,
                    other => return Err(Error::msg(format!("expected integer, got {}", other.kind()))),
                };
                <$t>::try_from(i).map_err(|_| Error::msg(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, Error> {
                let u = match v {
                    Json::U64(u) => *u,
                    Json::I64(i) => u64::try_from(*i)
                        .map_err(|_| Error::msg(format!("{i} out of range for {}", stringify!($t))))?,
                    other => return Err(Error::msg(format!("expected integer, got {}", other.kind()))),
                };
                <$t>::try_from(u).map_err(|_| Error::msg(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, Error> {
                match v {
                    Json::F64(d) => Ok(*d as $t),
                    Json::I64(i) => Ok(*i as $t),
                    Json::U64(u) => Ok(*u as $t),
                    other => Err(Error::msg(format!("expected number, got {}", other.kind()))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(t) => t.to_json(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        v.as_arr()
            .ok_or_else(|| Error::msg(format!("expected array, got {}", v.kind())))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_json(v: &Json) -> Result<Self, Error> {
        let arr = v.as_arr().ok_or_else(|| Error::msg("expected array"))?;
        if arr.len() != N {
            return Err(Error::msg(format!(
                "expected array of {N}, got {}",
                arr.len()
            )));
        }
        let mut out = [T::default(); N];
        for (o, j) in out.iter_mut().zip(arr) {
            *o = T::from_json(j)?;
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$i.to_json()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self, Error> {
                let arr = v.as_arr().ok_or_else(|| Error::msg("expected array for tuple"))?;
                let want = [$($i),+].len();
                if arr.len() != want {
                    return Err(Error::msg(format!("expected {want}-tuple, got {}", arr.len())));
                }
                Ok(($($t::from_json(&arr[$i])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        v.as_obj()
            .ok_or_else(|| Error::msg(format!("expected object, got {}", v.kind())))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // Sort keys so output is deterministic.
        let mut entries: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, Error> {
        v.as_obj()
            .ok_or_else(|| Error::msg(format!("expected object, got {}", v.kind())))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::from_json(&(-7i64).to_json()).unwrap(), -7);
        assert_eq!(u64::from_json(&(u64::MAX).to_json()).unwrap(), u64::MAX);
        assert_eq!(f64::from_json(&1.5f64.to_json()).unwrap(), 1.5);
        assert_eq!(
            String::from_json(&"hi".to_string().to_json()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<i64>::from_json(&Json::Null).unwrap(), None);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2u32), (3, 4)];
        assert_eq!(Vec::<(u32, u32)>::from_json(&v.to_json()).unwrap(), v);
        let a = [1.0f64, 2.0, 3.0];
        assert_eq!(<[f64; 3]>::from_json(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(i8::from_json(&Json::I64(1000)).is_err());
        assert!(u32::from_json(&Json::I64(-1)).is_err());
    }
}
