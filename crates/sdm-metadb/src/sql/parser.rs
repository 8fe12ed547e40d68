//! Recursive-descent parser.

use crate::error::{DbError, DbResult};
use crate::schema::ColType;
use crate::sql::ast::{AggFunc, BinOp, Expr, OrderBy, SelExpr, SelectItem, Statement};
use crate::sql::lexer::{lex, Token};
use crate::value::Value;

/// Deepest expression the parser accepts, counting nested constructs
/// (parentheses, `NOT`, unary minus) and operator chains alike. It
/// bounds the parser's own recursion, the evaluator's (`eval_ast`
/// recurses once per tree level) and the AST's recursive drop, so
/// hostile text is a [`DbError::Parse`] instead of a stack overflow.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parse one SQL statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> DbResult<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
        nesting: 0,
    };
    let stmt = p.statement()?;
    p.eat_optional_semi();
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
    /// Expression constructs currently open on the parser's call stack.
    nesting: usize,
}

/// Levels of `e`: 1 for a leaf. Recurses at most one level past
/// [`MAX_EXPR_DEPTH`], because [`bounded`] has checked every subtree.
fn depth(e: &Expr) -> usize {
    match e {
        Expr::Lit(_) | Expr::Col(_) | Expr::Param(_) => 1,
        Expr::Neg(e) | Expr::Not(e) | Expr::IsNull { expr: e, .. } => 1 + depth(e),
        Expr::Binary { lhs, rhs, .. } => 1 + depth(lhs).max(depth(rhs)),
    }
}

/// `e`, unless it is deeper than [`MAX_EXPR_DEPTH`]. Every node the
/// parser builds passes through here, so no deeper tree is ever built.
fn bounded(e: Expr) -> DbResult<Expr> {
    if depth(&e) > MAX_EXPR_DEPTH {
        return Err(too_deep());
    }
    Ok(e)
}

fn too_deep() -> DbError {
    DbError::Parse(format!(
        "expression nested deeper than {MAX_EXPR_DEPTH} levels"
    ))
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> DbResult<Expr> {
    bounded(Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    })
}

impl Parser {
    /// Run `f` one expression level deeper, refusing to descend past
    /// [`MAX_EXPR_DEPTH`] open constructs.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> DbResult<T>) -> DbResult<T> {
        if self.nesting >= MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.nesting += 1;
        let out = f(self);
        self.nesting -= 1;
        out
    }

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

    fn eat_optional_semi(&mut self) {
        if matches!(self.peek(), Some(Token::Semi)) {
            self.pos += 1;
        }
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

    fn statement(&mut self) -> DbResult<Statement> {
        if self.accept_kw("CREATE") {
            if self.accept_kw("INDEX") {
                self.create_index()
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
            self.insert()
        } else if self.accept_kw("SELECT") {
            self.select()
        } else if self.accept_kw("UPDATE") {
            self.update()
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
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
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
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ct = self.coltype()?;
            columns.push((col, ct));
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => return Err(DbError::Parse(format!("expected , or ), got {other:?}"))),
            }
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn create_index(&mut self) -> DbResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = vec![self.ident()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            columns.push(self.ident()?);
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
        })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                match self.next()? {
                    Token::Comma => continue,
                    Token::RParen => break,
                    other => return Err(DbError::Parse(format!("expected , or ), got {other:?}"))),
                }
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                match self.next()? {
                    Token::Comma => continue,
                    Token::RParen => break,
                    other => return Err(DbError::Parse(format!("expected , or ), got {other:?}"))),
                }
            }
            rows.push(row);
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                continue;
            }
            break;
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    /// One SELECT-list item: column, or `FUNC(col)` / `COUNT(*)`, with an
    /// optional `AS alias`.
    fn select_item(&mut self) -> DbResult<SelectItem> {
        let head = self.ident()?;
        let expr = if matches!(self.peek(), Some(Token::LParen)) {
            let func = match head.to_ascii_uppercase().as_str() {
                "COUNT" => AggFunc::Count,
                "SUM" => AggFunc::Sum,
                "AVG" => AggFunc::Avg,
                "MIN" => AggFunc::Min,
                "MAX" => AggFunc::Max,
                other => {
                    return Err(DbError::Parse(format!(
                        "unknown aggregate function {other}"
                    )))
                }
            };
            self.pos += 1; // (
            let arg = if matches!(self.peek(), Some(Token::Star)) {
                self.pos += 1;
                if func != AggFunc::Count {
                    return Err(DbError::Parse(format!("{}(*) is not valid", func.name())));
                }
                None
            } else {
                Some(self.ident()?)
            };
            self.expect(&Token::RParen)?;
            SelExpr::Agg { func, arg }
        } else {
            SelExpr::Col(head)
        };
        let alias = if self.accept_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn select(&mut self) -> DbResult<Statement> {
        let items = if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            None
        } else {
            let mut items = vec![self.select_item()?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                items.push(self.select_item()?);
            }
            Some(items)
        };
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = self.opt_where()?;
        let mut order_by = Vec::new();
        if self.accept_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let column = self.ident()?;
                let desc = if self.accept_kw("DESC") {
                    true
                } else {
                    self.accept_kw("ASC");
                    false
                };
                order_by.push(OrderBy { column, desc });
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    continue;
                }
                break;
            }
        }
        let limit = if self.accept_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => return Err(DbError::Parse(format!("bad LIMIT operand {other:?}"))),
            }
        } else {
            None
        };
        Ok(Statement::Select {
            items,
            table,
            filter,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> DbResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            sets.push((col, self.expr()?));
            if matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                continue;
            }
            break;
        }
        let filter = self.opt_where()?;
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn opt_where(&mut self) -> DbResult<Option<Expr>> {
        if self.accept_kw("WHERE") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // Expression grammar: or_expr > and_expr > not_expr > cmp > add > mul > unary > atom
    fn expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.accept_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.accept_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.accept_kw("NOT") {
            let inner = self.nested(Self::not_expr)?;
            bounded(Expr::Not(Box::new(inner)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> DbResult<Expr> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL
        if self.accept_kw("IS") {
            let negated = self.accept_kw("NOT");
            self.expect_kw("NULL")?;
            return bounded(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        binary(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = binary(op, lhs, rhs)?;
        }
    }

    fn mul_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = binary(op, lhs, rhs)?;
        }
    }

    fn unary_expr(&mut self) -> DbResult<Expr> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.pos += 1;
            let inner = self.nested(Self::unary_expr)?;
            return bounded(Expr::Neg(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> DbResult<Expr> {
        match self.next()? {
            Token::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Lit(Value::Double(f))),
            Token::Str(s) => Ok(Expr::Lit(Value::Text(s))),
            Token::Param => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Token::LParen => {
                let e = self.nested(Self::expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Expr::Lit(Value::Null)),
            Token::Ident(s) => Ok(Expr::Col(s)),
            other => Err(DbError::Parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: the projected column names of a parsed SELECT.
    fn cols_of(s: &Statement) -> Option<Vec<String>> {
        match s {
            Statement::Select { items, .. } => items
                .as_ref()
                .map(|v| v.iter().map(SelectItem::output_name).collect()),
            other => panic!("not a select: {other:?}"),
        }
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
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Expr::Param(0));
                assert_eq!(rows[0][1], Expr::Param(1));
                assert_eq!(rows[0][2], Expr::Lit(Value::Text("x".into())));
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_multi_row_insert() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)").unwrap();
        match s {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
                assert_eq!(rows.len(), 2);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_select_full() {
        let s = parse(
            "SELECT a, b FROM t WHERE a > 1 AND b = 'f' OR NOT a <= 0 ORDER BY a DESC, b LIMIT 5",
        )
        .unwrap();
        assert_eq!(cols_of(&s), Some(vec!["a".to_string(), "b".to_string()]));
        match s {
            Statement::Select {
                table,
                filter,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(table, "t");
                assert!(filter.is_some());
                assert_eq!(order_by.len(), 2);
                assert!(order_by[0].desc && !order_by[1].desc);
                assert_eq!(limit, Some(5));
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_select_star() {
        let s = parse("SELECT * FROM t;").unwrap();
        assert!(matches!(s, Statement::Select { items: None, .. }));
    }

    #[test]
    fn parse_aggregates() {
        let s = parse("SELECT COUNT(*), SUM(v) AS total, MAX(v) FROM t").unwrap();
        match &s {
            Statement::Select {
                items: Some(items), ..
            } => {
                assert_eq!(
                    items[0].expr,
                    SelExpr::Agg {
                        func: AggFunc::Count,
                        arg: None
                    }
                );
                assert_eq!(
                    items[1].expr,
                    SelExpr::Agg {
                        func: AggFunc::Sum,
                        arg: Some("v".into())
                    }
                );
                assert_eq!(items[1].alias.as_deref(), Some("total"));
                assert_eq!(items[2].output_name(), "max(v)");
            }
            other => panic!("wrong: {other:?}"),
        }
        assert_eq!(
            cols_of(&s),
            Some(vec!["count(*)".into(), "total".into(), "max(v)".into()])
        );
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
        rejected("SELECT COUNT(*) AS n FROM execution_table HAVING n > 1");
    }

    #[test]
    fn parse_join() {
        rejected(
            "SELECT run_table.runid FROM run_table \
             INNER JOIN execution_table ON run_table.runid = execution_table.runid",
        );
        rejected("SELECT * FROM a JOIN b ON a.x = b.y");
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
        let s = parse("UPDATE t SET a = a + 1, b = ? WHERE c = 2").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_delete() {
        let s = parse("DELETE FROM t WHERE a IS NOT NULL").unwrap();
        match s {
            Statement::Delete {
                filter: Some(Expr::IsNull { negated: true, .. }),
                ..
            } => {}
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_precedence_and_parens() {
        let s = parse("SELECT * FROM t WHERE a = 1 + 2 * 3").unwrap();
        // 1 + (2*3), compared to a.
        if let Statement::Select {
            filter: Some(Expr::Binary {
                op: BinOp::Eq, rhs, ..
            }),
            ..
        } = s
        {
            assert!(matches!(*rhs, Expr::Binary { op: BinOp::Add, .. }));
        } else {
            panic!("wrong shape");
        }
        let s2 = parse("SELECT * FROM t WHERE a = (1 + 2) * 3").unwrap();
        if let Statement::Select {
            filter: Some(Expr::Binary {
                op: BinOp::Eq, rhs, ..
            }),
            ..
        } = s2
        {
            assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
        } else {
            panic!("wrong shape");
        }
    }

    #[test]
    fn parse_negative_number() {
        let s = parse("SELECT * FROM t WHERE a = -5").unwrap();
        if let Statement::Select {
            filter: Some(Expr::Binary { rhs, .. }),
            ..
        } = s
        {
            assert!(matches!(*rhs, Expr::Neg(_)));
        } else {
            panic!("wrong shape");
        }
    }

    #[test]
    fn parse_qualified_columns() {
        let s = parse("SELECT t.a FROM t WHERE t.a > 0").unwrap();
        assert_eq!(cols_of(&s), Some(vec!["t.a".to_string()]));
        if let Statement::Select {
            filter: Some(Expr::Binary { lhs, .. }),
            ..
        } = s
        {
            assert_eq!(*lhs, Expr::Col("t.a".into()));
        } else {
            panic!("wrong shape");
        }
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
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn varchar_length_suffix_ignored() {
        assert!(parse("CREATE TABLE t (s VARCHAR(255), n INT)").is_ok());
    }
}
