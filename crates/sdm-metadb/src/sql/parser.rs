//! Parser for the SQL subset. The grammar has no recursion: a WHERE
//! clause is a flat list of pins, so no input can nest deeper than one
//! statement.

use crate::error::{DbError, DbResult};
use crate::schema::ColType;
use crate::sql::ast::{Operand, Pins, Projection, Statement};
use crate::sql::lexer::{lex, Token};
use crate::value::Value;

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> DbResult<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.accept(&Token::Semi);
    if p.pos != p.tokens.len() {
        return Err(DbError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> DbResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consume `want` if it is next.
    fn accept(&mut self, want: &Token) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, want: &Token) -> DbResult<()> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(DbError::Parse(format!("expected {want:?}, got {got:?}")))
        }
    }

    /// Consume a keyword (case-insensitive) or error.
    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(DbError::Parse(format!(
                "expected keyword {kw}, got {other:?}"
            ))),
        }
    }

    /// Consume a keyword if present.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    /// `f` once, then again after every `,`.
    fn comma_list<T>(&mut self, mut f: impl FnMut(&mut Self) -> DbResult<T>) -> DbResult<Vec<T>> {
        let mut out = vec![f(self)?];
        while self.accept(&Token::Comma) {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// `( f, f, … )`.
    fn paren_list<T>(&mut self, f: impl FnMut(&mut Self) -> DbResult<T>) -> DbResult<Vec<T>> {
        self.expect(&Token::LParen)?;
        let out = self.comma_list(f)?;
        self.expect(&Token::RParen)?;
        Ok(out)
    }

    fn statement(&mut self) -> DbResult<Statement> {
        if self.accept_kw("CREATE") {
            if self.accept_kw("INDEX") {
                let name = self.ident()?;
                self.expect_kw("ON")?;
                let table = self.ident()?;
                let columns = self.paren_list(Self::ident)?;
                Ok(Statement::CreateIndex {
                    name,
                    table,
                    columns,
                })
            } else {
                self.create_table()
            }
        } else if self.accept_kw("DROP") {
            if self.accept_kw("INDEX") {
                let name = self.ident()?;
                self.expect_kw("ON")?;
                let table = self.ident()?;
                Ok(Statement::DropIndex { name, table })
            } else {
                self.expect_kw("TABLE")?;
                Ok(Statement::DropTable {
                    name: self.ident()?,
                })
            }
        } else if self.accept_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            self.expect_kw("VALUES")?;
            let rows = self.comma_list(|p| p.paren_list(Self::operand))?;
            Ok(Statement::Insert { table, rows })
        } else if self.accept_kw("SELECT") {
            self.select()
        } else if self.accept_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let sets = self.comma_list(Self::pin)?;
            let filter = self.opt_where()?;
            Ok(Statement::Update {
                table,
                sets,
                filter,
            })
        } else if self.accept_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = self.opt_where()?;
            Ok(Statement::Delete { table, filter })
        } else {
            Err(DbError::Parse(format!(
                "unknown statement start: {:?}",
                self.peek()
            )))
        }
    }

    fn coltype(&mut self) -> DbResult<ColType> {
        let t = self.ident()?;
        // Accept MySQL-ish spellings from the paper era.
        let ct = match t.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => ColType::Int,
            "DOUBLE" | "FLOAT" | "REAL" => ColType::Double,
            "TEXT" | "VARCHAR" | "CHAR" => ColType::Text,
            other => return Err(DbError::Parse(format!("unknown column type {other}"))),
        };
        // Optional (N) length suffix, ignored.
        if self.accept(&Token::LParen) {
            loop {
                match self.next()? {
                    Token::RParen => break,
                    Token::Int(_) | Token::Comma => {}
                    other => {
                        return Err(DbError::Parse(format!(
                            "unexpected {other:?} in type suffix"
                        )))
                    }
                }
            }
        }
        Ok(ct)
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.accept_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        let columns = self.paren_list(|p| Ok((p.ident()?, p.coltype()?)))?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    /// `* | COUNT(*) | MAX(c) | c, …`.
    fn projection(&mut self) -> DbResult<Projection> {
        if self.accept(&Token::Star) {
            return Ok(Projection::All);
        }
        let head = self.ident()?;
        if !self.accept(&Token::LParen) {
            let mut cols = vec![head];
            while self.accept(&Token::Comma) {
                cols.push(self.ident()?);
            }
            return Ok(Projection::Cols(cols));
        }
        let proj = match head.to_ascii_uppercase().as_str() {
            "COUNT" => {
                self.expect(&Token::Star)?;
                Projection::Count
            }
            "MAX" => Projection::Max(self.ident()?),
            other => {
                return Err(DbError::Parse(format!(
                    "unknown aggregate function {other}"
                )))
            }
        };
        self.expect(&Token::RParen)?;
        Ok(proj)
    }

    fn select(&mut self) -> DbResult<Statement> {
        let proj = self.projection()?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = self.opt_where()?;
        let order_by = if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            self.comma_list(Self::ident)?
        } else {
            Vec::new()
        };
        Ok(Statement::Select {
            proj,
            table,
            filter,
            order_by,
        })
    }

    /// `WHERE c = v [AND c = v …]`, or no pins without a WHERE.
    fn opt_where(&mut self) -> DbResult<Pins> {
        let mut pins = Vec::new();
        if self.accept_kw("WHERE") {
            pins.push(self.pin()?);
            while self.accept_kw("AND") {
                pins.push(self.pin()?);
            }
        }
        Ok(pins)
    }

    /// `c = v`.
    fn pin(&mut self) -> DbResult<(String, Operand)> {
        let col = self.ident()?;
        self.expect(&Token::Eq)?;
        Ok((col, self.operand()?))
    }

    /// `?`, `NULL`, a string, or a number with an optional leading `-`.
    fn operand(&mut self) -> DbResult<Operand> {
        let negative = self.accept(&Token::Minus);
        let v = match (self.next()?, negative) {
            (Token::Int(i), _) => Value::Int(if negative { -i } else { i }),
            (Token::Float(f), _) => Value::Double(if negative { -f } else { f }),
            (Token::Str(s), false) => Value::Text(s),
            (Token::Ident(s), false) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            (Token::Param, false) => {
                self.params += 1;
                return Ok(Operand::Param(self.params - 1));
            }
            (other, _) => return Err(DbError::Parse(format!("expected a value, got {other:?}"))),
        };
        Ok(Operand::Value(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> Operand {
        Operand::Value(v.into())
    }

    fn pin(c: &str, o: Operand) -> (String, Operand) {
        (c.to_string(), o)
    }

    #[test]
    fn parse_create_table() {
        let s = parse(
            "CREATE TABLE run_table (runid INTEGER, problem_size INTEGER, file_name VARCHAR(64))",
        )
        .unwrap();
        match s {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "run_table");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[2], ("file_name".to_string(), ColType::Text));
                assert!(!if_not_exists);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parse_create_if_not_exists() {
        let s = parse("CREATE TABLE IF NOT EXISTS t (a INT)").unwrap();
        assert!(matches!(
            s,
            Statement::CreateTable {
                if_not_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_insert_with_params() {
        let s = parse("INSERT INTO t VALUES (?, ?, 'x')").unwrap();
        assert_eq!(
            s,
            Statement::Insert {
                table: "t".into(),
                rows: vec![vec![Operand::Param(0), Operand::Param(1), lit("x")]],
            }
        );
    }

    #[test]
    fn parse_multi_row_insert() {
        let s = parse("INSERT INTO t VALUES (1, NULL), (?, 4.5)").unwrap();
        match s {
            Statement::Insert { rows, .. } => assert_eq!(
                rows,
                [
                    vec![lit(1i64), lit(Value::Null)],
                    vec![Operand::Param(0), lit(4.5)]
                ]
            ),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_select_full() {
        let s =
            parse("SELECT a, b FROM t WHERE a = ? AND b = 'f' AND c = ? ORDER BY a, b").unwrap();
        assert_eq!(
            s,
            Statement::Select {
                proj: Projection::Cols(vec!["a".into(), "b".into()]),
                table: "t".into(),
                filter: vec![
                    pin("a", Operand::Param(0)),
                    pin("b", lit("f")),
                    pin("c", Operand::Param(1))
                ],
                order_by: vec!["a".into(), "b".into()],
            }
        );
    }

    #[test]
    fn parse_select_star() {
        let s = parse("SELECT * FROM t;").unwrap();
        assert!(matches!(
            s,
            Statement::Select {
                proj: Projection::All,
                ..
            }
        ));
    }

    #[test]
    fn parse_aggregates() {
        let proj = |sql: &str| match parse(sql).unwrap() {
            Statement::Select { proj, .. } => proj,
            other => panic!("wrong: {other:?}"),
        };
        assert_eq!(proj("SELECT COUNT(*) FROM t"), Projection::Count);
        assert_eq!(proj("select max(v) from t"), Projection::Max("v".into()));
        // An aggregate stands alone in the list.
        assert!(matches!(
            parse("SELECT COUNT(*), MAX(v) FROM t"),
            Err(DbError::Parse(_))
        ));
    }

    /// `sql` is not in the grammar: SELECT reads one table, with no
    /// DISTINCT, JOIN, GROUP BY or HAVING.
    fn rejected(sql: &str) {
        assert!(matches!(parse(sql), Err(DbError::Parse(_))), "{sql}");
    }

    #[test]
    fn parse_select_distinct() {
        rejected("SELECT DISTINCT a FROM t");
    }

    #[test]
    fn parse_group_by_having() {
        rejected("SELECT dataset, COUNT(*) AS n FROM execution_table GROUP BY dataset");
        rejected("SELECT COUNT(*) FROM execution_table HAVING n = 1");
    }

    #[test]
    fn parse_join() {
        rejected("SELECT runid FROM run_table INNER JOIN execution_table ON runid = ?");
        rejected("SELECT * FROM a JOIN b ON x = y");
    }

    #[test]
    fn parse_create_drop_index() {
        let s = parse("CREATE INDEX idx_ds ON execution_table (dataset)").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "idx_ds".into(),
                table: "execution_table".into(),
                columns: vec!["dataset".into()],
            }
        );
        let s = parse("CREATE INDEX idx_rt ON execution_table (runid, timestep)").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "idx_rt".into(),
                table: "execution_table".into(),
                columns: vec!["runid".into(), "timestep".into()],
            }
        );
        let s = parse("DROP INDEX idx_ds ON execution_table").unwrap();
        assert_eq!(
            s,
            Statement::DropIndex {
                name: "idx_ds".into(),
                table: "execution_table".into()
            }
        );
    }

    #[test]
    fn transaction_control_is_not_sql() {
        // Transactions are `Database::transaction` closures.
        for sql in ["BEGIN", "START TRANSACTION", "COMMIT;", "ROLLBACK"] {
            assert!(matches!(parse(sql), Err(DbError::Parse(_))), "{sql}");
        }
    }

    #[test]
    fn parse_update() {
        let s = parse("UPDATE t SET a = 1, b = ? WHERE c = ?").unwrap();
        assert_eq!(
            s,
            Statement::Update {
                table: "t".into(),
                sets: vec![pin("a", lit(1i64)), pin("b", Operand::Param(0))],
                filter: vec![pin("c", Operand::Param(1))],
            }
        );
    }

    #[test]
    fn parse_delete() {
        let s = parse("DELETE FROM t WHERE a = NULL").unwrap();
        assert_eq!(
            s,
            Statement::Delete {
                table: "t".into(),
                filter: vec![pin("a", lit(Value::Null))],
            }
        );
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Statement::Delete { filter, .. } if filter.is_empty()));
    }

    #[test]
    fn parse_negative_number() {
        let s = parse("SELECT * FROM t WHERE a = -5 AND b = -0.0").unwrap();
        let Statement::Select { filter, .. } = s else {
            panic!("wrong shape");
        };
        assert_eq!(filter[0].1, lit(-5i64));
        assert!(
            matches!(filter[1].1, Operand::Value(Value::Double(z)) if z.to_bits() == (-0.0f64).to_bits())
        );
        // The sign is a number's, not an operator.
        rejected("SELECT * FROM t WHERE a = - ?");
        rejected("SELECT * FROM t WHERE a = -'x'");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
        assert!(parse("DROP TABLE t extra").is_err());
    }

    #[test]
    fn unknown_statement_rejected() {
        assert!(matches!(parse("EXPLAIN t"), Err(DbError::Parse(_))));
    }

    #[test]
    fn unknown_aggregate_rejected() {
        assert!(parse("SELECT MEDIAN(x) FROM t").is_err());
        assert!(parse("SELECT MAX(*) FROM t").is_err());
        assert!(parse("SELECT COUNT(x) FROM t").is_err());
    }

    #[test]
    fn varchar_length_suffix_ignored() {
        assert!(parse("CREATE TABLE t (s VARCHAR(255), n INT)").is_ok());
    }
}
