//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (roughly):
//! ```text
//! query   := SELECT (STAR | item (',' item)*) FROM tref (',' tref)*
//!            [WHERE expr] [GROUP BY expr (',' expr)*]
//!            [ORDER BY key (',' key)*] [LIMIT int] [';']
//! item    := expr [AS ident]
//! tref    := ident [ident]
//! expr    := or
//! or      := and (OR and)*
//! and     := not (AND not)*
//! not     := [NOT] cmp
//! cmp     := sum (('='|'<>'|'<'|'<='|'>'|'>=') sum
//!             | [NOT] LIKE str | IS [NOT] NULL)?
//! sum     := prod (('+'|'-') prod)*
//! prod    := unary (('*'|'/') unary)*
//! unary   := '-' unary | atom
//! atom    := literal | EXTRACT '(' str FROM expr ')'
//!          | ident '(' (STAR | expr (',' expr)*) ')'   -- function call
//!          | ident ['.' ident] | '(' expr ')'
//! ```

use crate::value::Value;

use super::ast::{BinOp, Expr, OrderKey, Query, SelectItem, TableRef};
use super::lexer::{lex, Token};

/// Deepest expression [`parse`] accepts. Each parenthesis, function call,
/// unary operator and link of a binary chain counts one level; the paper's
/// queries need fewer than ten. The planner, the executor and `Drop` all
/// recurse over the tree, so the bound is what keeps a hostile query from
/// overflowing the stack of the thread that runs it.
pub(crate) const MAX_EXPR_DEPTH: usize = 128;

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlParseError(pub String);

impl std::fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for SqlParseError {}

/// Parse a SELECT statement. An expression nested more than 128 levels
/// deep (parentheses, calls, unary minus and the links of an operator
/// chain each count) is refused.
pub fn parse(sql: &str) -> Result<Query, SqlParseError> {
    let tokens = lex(sql).map_err(|e| SqlParseError(e.to_string()))?;
    let mut p = Parser { tokens, pos: 0, params: 0, depth: 0 };
    let q = p.query()?;
    p.eat_optional_semi();
    if p.pos != p.tokens.len() {
        return Err(SqlParseError(format!("trailing tokens starting at {}", p.peek_text())));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Number of `?` placeholders seen so far; assigns positional indices.
    params: usize,
    /// Expression levels open at the current token (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_text(&self) -> String {
        self.peek().map(|t| t.to_string()).unwrap_or_else(|| "<eof>".to_string())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlParseError(format!("expected {t}, found {}", self.peek_text())))
        }
    }

    /// Consume a keyword (case-insensitive identifier).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlParseError(format!("expected {kw}, found {}", self.peek_text())))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlParseError(format!(
                "expected identifier, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
            ))),
        }
    }

    /// Open one more expression level, refusing past [`MAX_EXPR_DEPTH`].
    /// The caller closes what it opened by restoring `depth`.
    fn deeper(&mut self) -> Result<(), SqlParseError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(SqlParseError(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(())
    }

    fn eat_optional_semi(&mut self) {
        let _ = self.eat(&Token::Semi);
    }

    fn query(&mut self) -> Result<Query, SqlParseError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        let mut star = false;
        if self.eat(&Token::Star) {
            star = true;
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
                items.push(SelectItem { expr, alias });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        loop {
            let name = self.ident()?;
            // optional alias: an identifier that is not a clause keyword
            let alias = match self.peek() {
                Some(Token::Ident(s))
                    if !["WHERE", "GROUP", "ORDER", "LIMIT", "AS"]
                        .iter()
                        .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                _ => {
                    if self.eat_kw("AS") {
                        Some(self.ident()?)
                    } else {
                        None
                    }
                }
            };
            from.push(TableRef { name, alias });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlParseError(format!(
                        "LIMIT expects a non-negative integer, found {}",
                        other.map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query { items, star, distinct, from, where_clause, group_by, having, order_by, limit })
    }

    /// One expression, one level deeper than its context.
    fn expr(&mut self) -> Result<Expr, SqlParseError> {
        let outer = self.depth;
        self.deeper()?;
        let e = self.or_expr()?;
        self.depth = outer;
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<Expr, SqlParseError> {
        let outer = self.depth;
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            self.deeper()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlParseError> {
        let outer = self.depth;
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            self.deeper()?;
            let rhs = self.not_expr()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlParseError> {
        if self.eat_kw("NOT") {
            // NOT x  desugars to  x = false
            let inner = self.cmp_expr()?;
            return Ok(Expr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(inner),
                rhs: Box::new(Expr::Literal(Value::Bool(false))),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, SqlParseError> {
        let lhs = self.sum_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.sum_expr()?;
            return Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        // postfix predicates: [NOT] LIKE / IN / BETWEEN, IS [NOT] NULL
        let negated = if self.peek_kw("NOT") {
            let next_is_postfix = matches!(
                self.tokens.get(self.pos + 1),
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("LIKE")
                    || s.eq_ignore_ascii_case("IN")
                    || s.eq_ignore_ascii_case("BETWEEN")
            );
            if next_is_postfix {
                self.pos += 1;
                true
            } else {
                return Ok(lhs);
            }
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            return match self.next() {
                Some(Token::Str(p)) => Ok(Expr::Like { expr: Box::new(lhs), pattern: p, negated }),
                other => Err(SqlParseError(format!(
                    "LIKE expects a string pattern, found {}",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
                ))),
            };
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.sum_expr()?;
            self.expect_kw("AND")?;
            let hi = self.sum_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(SqlParseError("dangling NOT".into()));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        Ok(lhs)
    }

    fn sum_expr(&mut self) -> Result<Expr, SqlParseError> {
        let outer = self.depth;
        let mut lhs = self.prod_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.prod_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn prod_expr(&mut self) -> Result<Expr, SqlParseError> {
        let outer = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, SqlParseError> {
        if self.eat(&Token::Minus) {
            let outer = self.depth;
            self.deeper()?;
            let inner = self.unary_expr()?;
            self.depth = outer;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, SqlParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(x)) => Ok(Expr::Literal(Value::Float(x))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Question) => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("EXTRACT") {
                    self.expect(&Token::LParen)?;
                    let field = match self.next() {
                        Some(Token::Str(s)) => s,
                        Some(Token::Ident(s)) => s, // extract(epoch from …)
                        other => {
                            return Err(SqlParseError(format!(
                                "EXTRACT expects a field, found {}",
                                other.map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
                            )))
                        }
                    };
                    self.expect_kw("FROM")?;
                    let from = self.expr()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Extract { field, from: Box::new(from) });
                }
                if self.eat(&Token::LParen) {
                    // function call
                    if self.eat(&Token::Star) {
                        self.expect(&Token::RParen)?;
                        if name.eq_ignore_ascii_case("count") {
                            return Ok(Expr::CountStar);
                        }
                        return Err(SqlParseError(format!("{name}(*) is not supported")));
                    }
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen)?;
                    }
                    return Ok(Expr::Call { name: name.to_ascii_lowercase(), args });
                }
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column { table: Some(name), name: col });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(SqlParseError(format!(
                "unexpected token {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_1() {
        // the exact shape of the paper's Query 1 (Fig 10)
        let q = parse(
            "SELECT a.tag, \
               min(extract('epoch' from (t.endtime-t.starttime))), \
               max(extract('epoch' from (t.endtime-t.starttime))), \
               sum(extract('epoch' from (t.endtime-t.starttime))), \
               avg(extract('epoch' from (t.endtime-t.starttime))) \
             FROM hworkflow w, hactivity a, hactivation t \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 432 \
             GROUP BY a.tag",
        )
        .unwrap();
        assert_eq!(q.items.len(), 5);
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.from[0].binding(), "w");
        assert_eq!(q.group_by.len(), 1);
        assert!(q.items[1].expr.contains_aggregate());
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_histogram_query() {
        let q = parse(
            "SELECT extract ('epoch' from (t.endtime-t.starttime)) \
             FROM hworkflow w, hactivity a, hactivation t \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 1 \
             ORDER BY t.endtime",
        )
        .unwrap();
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].descending);
    }

    #[test]
    fn parses_like_and_order_desc() {
        let q = parse(
            "SELECT f.fname, f.fsize FROM hfile f WHERE f.fname LIKE '%.dlg' ORDER BY f.fsize DESC LIMIT 10",
        )
        .unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Like { negated: false, .. })));
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_select_star() {
        let q = parse("SELECT * FROM hworkflow").unwrap();
        assert!(q.star);
        assert!(q.items.is_empty());
    }

    #[test]
    fn parses_count_star_and_alias() {
        let q = parse("SELECT count(*) AS n FROM t GROUP BY x").unwrap();
        assert_eq!(q.items[0].alias.as_deref(), Some("n"));
        assert_eq!(q.items[0].expr, Expr::CountStar);
    }

    #[test]
    fn parses_is_null_and_not_like() {
        let q = parse("SELECT a FROM t WHERE a IS NOT NULL AND b NOT LIKE 'x%'").unwrap();
        let w = q.where_clause.unwrap();
        match w {
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                assert!(matches!(*lhs, Expr::IsNull { negated: true, .. }));
                assert!(matches!(*rhs, Expr::Like { negated: true, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        // must parse as 1 + (2*3)
        match &q.items[0].expr {
            Expr::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus() {
        let q = parse("SELECT -4.0 FROM t WHERE feb < -2").unwrap();
        assert!(matches!(q.items[0].expr, Expr::Neg(_)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse("SELECT sum(*) FROM t").is_err());
    }

    #[test]
    fn parses_distinct_and_having() {
        let q =
            parse("SELECT DISTINCT dept FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept")
                .unwrap();
        assert!(q.distinct);
        assert!(q.having.is_some());
        assert!(q.having.as_ref().unwrap().contains_aggregate());
    }

    #[test]
    fn parses_in_and_between() {
        let q = parse(
            "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x') \
                       AND c BETWEEN 1 AND 10 AND d NOT BETWEEN -5 AND 5",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let mut in_count = 0;
        let mut between_count = 0;
        fn walk(e: &Expr, in_c: &mut i32, bw_c: &mut i32) {
            match e {
                Expr::InList { negated, list, .. } => {
                    *in_c += 1;
                    if !*negated {
                        assert_eq!(list.len(), 3);
                    }
                }
                Expr::Between { .. } => *bw_c += 1,
                Expr::Binary { lhs, rhs, .. } => {
                    walk(lhs, in_c, bw_c);
                    walk(rhs, in_c, bw_c);
                }
                _ => {}
            }
        }
        walk(&w, &mut in_count, &mut between_count);
        assert_eq!(in_count, 2);
        assert_eq!(between_count, 2);
    }

    #[test]
    fn parses_positional_params() {
        let q = parse("SELECT a FROM t WHERE a >= ? AND b IN (?, ?) HAVING max(c) > ?").unwrap();
        let mut seen = Vec::new();
        fn walk(e: &Expr, seen: &mut Vec<usize>) {
            match e {
                Expr::Param(i) => seen.push(*i),
                Expr::Binary { lhs, rhs, .. } => {
                    walk(lhs, seen);
                    walk(rhs, seen);
                }
                Expr::InList { expr, list, .. } => {
                    walk(expr, seen);
                    list.iter().for_each(|e| walk(e, seen));
                }
                Expr::Call { args, .. } => args.iter().for_each(|e| walk(e, seen)),
                _ => {}
            }
        }
        walk(q.where_clause.as_ref().unwrap(), &mut seen);
        walk(q.having.as_ref().unwrap(), &mut seen);
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dangling_not_rejected() {
        assert!(parse("SELECT a FROM t WHERE a NOT 5").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT a FROM t;").is_ok());
    }
}
