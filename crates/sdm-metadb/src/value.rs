//! Values and dynamic typing.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed cell value.
///
/// The derived `PartialEq` says NULL == NULL but compares doubles with
/// IEEE `==` (`NaN != NaN`, `-0.0 == 0.0`): compare `f64::to_bits` to
/// tell doubles apart bit for bit, and use [`Value::sql_eq`] for SQL
/// comparison semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer (covers the paper's INTEGER columns).
    Int(i64),
    /// 64-bit float (DOUBLE columns).
    Double(f64),
    /// Text (VARCHAR columns: file names, dataset names...).
    Text(String),
}

impl Value {
    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Double(_) => "DOUBLE",
            Value::Text(_) => "TEXT",
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int promoted to f64), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view, if an Int.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view, if Text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); numerics
    /// compare cross-type; text compares lexicographically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality (NULL = anything is unknown).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Owned, totally-ordered key under SQL equality — the `BTreeMap`
    /// key of the secondary indexes.
    ///
    /// SQL-equal values share a key. Numeric keys canonicalize through
    /// `f64`:
    ///
    /// * `Int(2)` and `Double(2.0)` key identically;
    /// * `-0.0` keys as `0.0` — they are `=` in SQL, so an indexed probe
    ///   for one must find rows storing the other;
    /// * every NaN payload shares one key. NaN rows are therefore
    ///   *indexed*, but an equality probe never returns them: index
    ///   users re-verify candidates against the real predicate, and
    ///   `NaN = NaN` is unknown under [`Value::sql_cmp`];
    /// * two huge integers (beyond 2^53) that collide after `f64`
    ///   rounding share a key — consistent with [`Value::sql_eq`],
    ///   which compares all numerics through `f64`.
    ///
    /// Keys also sort consistently with [`Value::sql_cmp`] wherever
    /// `sql_cmp` is defined:
    ///
    /// * numerics order by `f64` value via an order-preserving bit
    ///   transform (sign-magnitude flip), so `Int` and `Double` keys
    ///   interleave exactly as `sql_cmp` ranks them;
    /// * text orders lexicographically by bytes, as `sql_cmp` does;
    /// * the pairs `sql_cmp` leaves *undefined* get a fixed arbitrary
    ///   order: `Null < Num < Text`, and the canonical NaN sorts above
    ///   every real number. ORDER BY sorts by this order
    ///   ([`Value::key_cmp`]), so NULL and NaN have a fixed place.
    pub fn ord_key(&self) -> OrdKey {
        match self {
            Value::Null => OrdKey::Null,
            Value::Int(i) => OrdKey::num(*i as f64),
            Value::Double(d) => OrdKey::num(*d),
            Value::Text(s) => OrdKey::Text(s.clone()),
        }
    }

    /// The total order of [`Value::ord_key`] — `NULL < numbers < NaN <
    /// text` — without building a key for two texts. ORDER BY sorts
    /// with it, so where a value lands never depends on the input order.
    pub fn key_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => self.ord_key().cmp(&other.ord_key()),
        }
    }
}

/// An owned key with a total order consistent with [`Value::sql_cmp`]
/// (see [`Value::ord_key`]). `Num` holds canonical `f64` bits passed
/// through an order-preserving transform, so the derived `u64` order
/// *is* numeric order — raw IEEE-754 bits would sort negatives above
/// positives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OrdKey {
    /// NULL sentinel; sorts before every other key so prefix probes on
    /// composite indexes still see rows whose tail columns are NULL.
    Null,
    /// Order-encoded canonical `f64` bits (sign bit flipped for
    /// non-negatives, all bits flipped for negatives).
    Num(u64),
    /// Text by content, byte-lexicographic.
    Text(String),
}

impl OrdKey {
    /// Canonicalize (see [`Value::ord_key`]), then make the bit
    /// pattern order-preserving: for `a < b` as floats,
    /// `enc(a) < enc(b)` as unsigned integers.
    fn num(d: f64) -> OrdKey {
        let canonical = if d == 0.0 {
            0.0f64 // collapse -0.0: SQL says -0.0 = 0.0
        } else if d.is_nan() {
            f64::NAN // collapse NaN payloads into one key
        } else {
            d
        };
        let bits = canonical.to_bits();
        let enc = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        OrdKey::Num(enc)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Double(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_compares_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn text_lexicographic() {
        assert_eq!(
            Value::from("abc").sql_cmp(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("x").sql_eq(&Value::from("x")), Some(true));
    }

    #[test]
    fn text_vs_number_incomparable() {
        assert_eq!(Value::from("1").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }

    #[test]
    fn ord_key_orders_like_sql_cmp() {
        // Every comparable pair orders identically under sql_cmp and
        // ord_key — including negatives, where raw f64 bits would not.
        let vals = [
            Value::Int(i64::MIN),
            Value::Double(-1.0e300),
            Value::Int(-2),
            Value::Double(-1.5),
            Value::Double(-0.0),
            Value::Int(0),
            Value::Double(0.25),
            Value::Int(1),
            Value::Double(1.0),
            Value::Int(1 << 53),
            Value::Double(f64::INFINITY),
            Value::from(""),
            Value::from("a"),
            Value::from("ab"),
        ];
        for a in &vals {
            for b in &vals {
                if let Some(o) = a.sql_cmp(b) {
                    assert_eq!(
                        a.ord_key().cmp(&b.ord_key()),
                        o,
                        "ord_key disagrees with sql_cmp for {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ord_key_canonicalizes_like_index_key() {
        // Int and Double that are SQL-equal share a key.
        assert_eq!(Value::Int(2).ord_key(), Value::Double(2.0).ord_key());
        // -0.0 = 0.0 in SQL: one key, or indexed probes would miss rows
        // a full scan finds.
        assert_eq!(Value::Double(-0.0).ord_key(), Value::Double(0.0).ord_key());
        assert_eq!(Value::Int(0).ord_key(), Value::Double(-0.0).ord_key());
        // All NaN payloads share a key (re-verification rejects them).
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        assert!(payload.is_nan() && payload.to_bits() != quiet.to_bits());
        assert_eq!(
            Value::Double(payload).ord_key(),
            Value::Double(quiet).ord_key()
        );
        assert_ne!(Value::Int(7).ord_key(), Value::Double(quiet).ord_key());
        // Text content decides equality.
        assert_eq!(Value::from("ab").ord_key(), Value::from("ab").ord_key());
        assert_ne!(Value::from("ab").ord_key(), Value::from("ba").ord_key());
        // Huge integers beyond 2^53 may collide after f64 rounding —
        // consistently with sql_eq, which also compares through f64.
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(a.ord_key(), b.ord_key());
        assert_eq!(a.sql_eq(&b), Some(true));
    }

    #[test]
    fn ord_key_classes_and_nan_placement() {
        // Fixed arbitrary order for pairs sql_cmp leaves undefined:
        // Null < every number < every text, NaN above every real.
        assert!(OrdKey::Null < Value::Int(i64::MIN).ord_key());
        assert!(Value::Double(f64::INFINITY).ord_key() < Value::from("").ord_key());
        assert!(Value::Double(f64::INFINITY).ord_key() < Value::Double(f64::NAN).ord_key());
        assert!(Value::Double(f64::NAN).ord_key() < Value::from("").ord_key());
    }

    #[test]
    fn key_cmp_is_the_ord_key_order() {
        let vals = [
            Value::Null,
            Value::Double(f64::NEG_INFINITY),
            Value::Int(-1),
            Value::Double(-0.0),
            Value::Int(0),
            Value::Double(2.5),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NAN),
            Value::from(""),
            Value::from("a"),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    a.key_cmp(b),
                    a.ord_key().cmp(&b.ord_key()),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5usize).as_i64(), Some(5));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("t").as_str(), Some("t"));
        assert!(Value::Null.is_null());
    }
}
