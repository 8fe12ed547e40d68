//! SQL abstract syntax.

use crate::schema::ColType;
use crate::value::Value;

/// A value in a VALUES, SET or WHERE position: a concrete value baked
/// into the statement, or a positional `?` parameter supplied at
/// execution time (the compile-once hot-path shape).
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal value.
    Value(Value),
    /// Positional parameter (0-based).
    Param(usize),
}

impl Operand {
    /// One past the `?` index of this operand; 0 for a literal.
    fn param_count(&self) -> usize {
        match self {
            Operand::Value(_) => 0,
            Operand::Param(i) => i + 1,
        }
    }
}

/// `(column, operand)` pairs: a WHERE clause's pins, `col = v AND …`
/// (empty for no WHERE), or an UPDATE's assignments.
pub type Pins = Vec<(String, Operand)>;

/// What a SELECT lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`: every column, in schema order.
    All,
    /// `c, …`: the named columns, in the order given.
    Cols(Vec<String>),
    /// `COUNT(*)`: one row, the number of matching rows.
    Count,
    /// `MAX(c)`: one row, the largest non-NULL, non-NaN value of `c`
    /// in key order (NULL when there is none).
    Max(String),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// `(name, type)` pairs.
        columns: Vec<(String, ColType)>,
        /// IF NOT EXISTS present.
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// CREATE INDEX name ON table (c1, c2, ...).
    CreateIndex {
        /// Index name (unique within its table).
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed columns, outermost key first.
        columns: Vec<String>,
    },
    /// DROP INDEX name ON table (MySQL 3.23 spelling).
    DropIndex {
        /// Index name.
        name: String,
        /// Owning table.
        table: String,
    },
    /// INSERT INTO ... VALUES (...), (...), ... with every column given
    /// in schema order.
    Insert {
        /// Table name.
        table: String,
        /// Value tuples.
        rows: Vec<Vec<Operand>>,
    },
    /// SELECT.
    Select {
        /// What the statement lists.
        proj: Projection,
        /// Source table.
        table: String,
        /// WHERE pins.
        filter: Pins,
        /// ORDER BY columns, each ascending in key order.
        order_by: Vec<String>,
    },
    /// UPDATE ... SET ...
    Update {
        /// Table name.
        table: String,
        /// `(column, value)` assignments.
        sets: Pins,
        /// WHERE pins.
        filter: Pins,
    },
    /// DELETE FROM.
    Delete {
        /// Table name.
        table: String,
        /// WHERE pins.
        filter: Pins,
    },
}

impl Statement {
    /// The parameters an execution must bind: one past the highest `?`
    /// index among the statement's operands.
    pub(crate) fn param_count(&self) -> usize {
        let ops: Vec<&Operand> = match self {
            Statement::Insert { rows, .. } => rows.iter().flatten().collect(),
            Statement::Select { filter, .. } | Statement::Delete { filter, .. } => {
                filter.iter().map(|(_, o)| o).collect()
            }
            Statement::Update { sets, filter, .. } => {
                sets.iter().chain(filter).map(|(_, o)| o).collect()
            }
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropIndex { .. } => Vec::new(),
        };
        ops.into_iter().map(Operand::param_count).max().unwrap_or(0)
    }
}
