//! Table schemas.

use crate::error::{DbError, DbResult};
use crate::value::Value;

/// Declared column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Double,
    /// Text.
    Text,
}

impl ColType {
    /// Whether `v` may be stored in a column of this type (NULL always
    /// may; Int coerces into Double columns).
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColType::Int, Value::Int(_))
                | (ColType::Double, Value::Double(_))
                | (ColType::Double, Value::Int(_))
                | (ColType::Text, Value::Text(_))
        )
    }

    /// Coerce `v` for storage (Int -> Double in Double columns).
    pub fn coerce(&self, v: Value) -> Value {
        match (self, v) {
            (ColType::Double, Value::Int(i)) => Value::Double(i as f64),
            (_, v) => v,
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-sensitive as written in CREATE TABLE).
    pub name: String,
    /// Declared type.
    pub ctype: ColType,
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; column names must be unique (case-insensitive).
    pub fn new(columns: Vec<Column>) -> DbResult<Self> {
        for (i, c) in columns.iter().enumerate() {
            let later = columns.iter().skip(i + 1);
            if later
                .into_iter()
                .any(|d| c.name.eq_ignore_ascii_case(&d.name))
            {
                return Err(DbError::Parse(format!("duplicate column {}", c.name)));
            }
        }
        Ok(Self { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::NoSuchColumn(name.to_string()))
    }

    /// Validate and coerce a full row for insertion.
    pub fn check_row(&self, row: Vec<Value>) -> DbResult<Vec<Value>> {
        self.validate(&row)?;
        Ok(row
            .into_iter()
            .zip(&self.columns)
            .map(|(v, c)| c.ctype.coerce(v))
            .collect())
    }

    /// Check a row's arity and that every column admits its value.
    fn validate(&self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::Arity(format!(
                "expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        match row
            .iter()
            .zip(&self.columns)
            .find(|(v, c)| !c.ctype.admits(v))
        {
            Some((v, c)) => Err(DbError::Type(format!(
                "column {} ({:?}) cannot store {}",
                c.name,
                c.ctype,
                v.type_name()
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column {
                name: "id".into(),
                ctype: ColType::Int,
            },
            Column {
                name: "score".into(),
                ctype: ColType::Double,
            },
            Column {
                name: "name".into(),
                ctype: ColType::Text,
            },
        ])
        .unwrap()
    }

    #[test]
    fn index_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID").unwrap(), 0);
        assert_eq!(s.index_of("Name").unwrap(), 2);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(Schema::new(vec![
            Column {
                name: "a".into(),
                ctype: ColType::Int
            },
            Column {
                name: "A".into(),
                ctype: ColType::Text
            },
        ])
        .is_err());
    }

    #[test]
    fn check_row_coerces_int_to_double() {
        let s = schema();
        let row = s
            .check_row(vec![Value::Int(1), Value::Int(5), Value::from("x")])
            .unwrap();
        assert!(matches!(row[1], Value::Double(d) if d == 5.0));
    }

    #[test]
    fn check_row_rejects_type_mismatch() {
        let s = schema();
        assert!(matches!(
            s.check_row(vec![
                Value::from("oops"),
                Value::Double(0.0),
                Value::from("x")
            ]),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn check_row_rejects_wrong_arity() {
        let s = schema();
        assert!(matches!(
            s.check_row(vec![Value::Int(1)]),
            Err(DbError::Arity(_))
        ));
    }

    #[test]
    fn null_admitted_everywhere() {
        let s = schema();
        assert!(s
            .check_row(vec![Value::Null, Value::Null, Value::Null])
            .is_ok());
    }
}
