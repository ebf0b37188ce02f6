//! The expression layer the planner and the Volcano operators share:
//! column bindings, evaluation of one expression over a row (scalar
//! functions and `LIKE` included), ORDER BY keys, parameter binding, and
//! the result/error types every query returns.
//!
//! Integer `+`, `-`, `*`, unary minus and `abs` are exact in `i64`; an
//! overflow is a [`QueryError::Type`], never a panic or a wrapped value.

use std::fmt;
use std::str::Chars;

use crate::table::{DbError, Schema};
use crate::value::Value;

use super::ast::{BinOp, Expr, Query};
use super::parser::SqlParseError;

/// Query result: column names + rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) — panics out of range, for tests.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // compute column widths
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{:<w$}", c, w = widths[i])?;
        }
        writeln!(f)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "-+-")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{:<w$}", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// SQL text failed to parse.
    Parse(SqlParseError),
    /// Catalog error (unknown table, …).
    Db(DbError),
    /// A column reference resolved to nothing.
    UnknownColumn(String),
    /// An unqualified column matched several tables.
    AmbiguousColumn(String),
    /// Unknown function name.
    UnknownFunction(String),
    /// Type error during evaluation.
    Type(String),
    /// Parameter binding error: wrong count or an unbound `?` placeholder.
    Param(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Db(e) => write!(f, "{e}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QueryError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            QueryError::UnknownFunction(n) => write!(f, "unknown function: {n}"),
            QueryError::Type(m) => write!(f, "type error: {m}"),
            QueryError::Param(m) => write!(f, "parameter error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SqlParseError> for QueryError {
    fn from(e: SqlParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<DbError> for QueryError {
    fn from(e: DbError) -> Self {
        QueryError::Db(e)
    }
}

/// Column bindings of the joined row: `(binding, column) → flat index`.
#[derive(Clone)]
pub(crate) struct Bindings {
    /// (table binding name, schema, offset into the flat row)
    pub(crate) tables: Vec<(String, Schema, usize)>,
    pub(crate) width: usize,
}

impl Bindings {
    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize, QueryError> {
        match table {
            Some(t) => {
                for (binding, schema, off) in &self.tables {
                    if binding.eq_ignore_ascii_case(t) {
                        return schema
                            .index_of(name)
                            .map(|i| off + i)
                            .ok_or_else(|| QueryError::UnknownColumn(format!("{t}.{name}")));
                    }
                }
                Err(QueryError::UnknownColumn(format!("{t}.{name}")))
            }
            None => {
                let mut found = None;
                for (_, schema, off) in &self.tables {
                    if let Some(i) = schema.index_of(name) {
                        if found.is_some() {
                            return Err(QueryError::AmbiguousColumn(name.to_string()));
                        }
                        found = Some(off + i);
                    }
                }
                found.ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
            }
        }
    }

    /// Can every column of `expr` be resolved against the first `n_tables`
    /// tables? Used for predicate push-down during the join.
    pub(crate) fn expr_bound(&self, expr: &Expr, n_tables: usize) -> bool {
        let upto = Bindings {
            tables: self.tables[..n_tables].to_vec(),
            width: self.tables[..n_tables].iter().map(|(_, s, _)| s.arity()).sum(),
        };
        fn walk(b: &Bindings, e: &Expr) -> bool {
            match e {
                Expr::Column { table, name } => b.resolve(table.as_deref(), name).is_ok(),
                Expr::Literal(_) | Expr::CountStar | Expr::Param(_) => true,
                Expr::Binary { lhs, rhs, .. } => walk(b, lhs) && walk(b, rhs),
                Expr::Call { args, .. } => args.iter().all(|a| walk(b, a)),
                Expr::Extract { from, .. } => walk(b, from),
                Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Neg(expr) => {
                    walk(b, expr)
                }
                Expr::InList { expr, list, .. } => walk(b, expr) && list.iter().all(|e| walk(b, e)),
                Expr::Between { expr, lo, hi, .. } => walk(b, expr) && walk(b, lo) && walk(b, hi),
            }
        }
        walk(&upto, expr)
    }
}

/// Split an expression into its AND-ed conjuncts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            let mut v = conjuncts(lhs);
            v.extend(conjuncts(rhs));
            v
        }
        other => vec![other],
    }
}

/// Evaluation context: one row, or — in the reference executor, which
/// evaluates aggregates per group instead of accumulating them — a group.
pub(crate) enum Ctx<'a> {
    Row(&'a [Value]),
    #[cfg(test)]
    Group(&'a [&'a Vec<Value>]),
}

pub(crate) fn eval(expr: &Expr, b: &Bindings, ctx: &Ctx<'_>) -> Result<Value, QueryError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        // `?` placeholders are substituted by `bind_params` before execution;
        // one surviving to evaluation means parameterized SQL was run
        // without its values.
        Expr::Param(i) => Err(QueryError::Param(format!(
            "unbound parameter ?{} — pass its value to `ProvenanceStore::query_rows`",
            i + 1
        ))),
        Expr::Column { table, name } => {
            let idx = b.resolve(table.as_deref(), name)?;
            match ctx {
                Ctx::Row(row) => Ok(row[idx].clone()),
                // outside an aggregate, a column in a grouped query takes its
                // value from the first row of the group
                #[cfg(test)]
                Ctx::Group(rows) => Ok(rows.first().map(|r| r[idx].clone()).unwrap_or(Value::Null)),
            }
        }
        Expr::Neg(inner) => {
            let v = eval(inner, b, ctx)?;
            match v {
                Value::Int(i) => {
                    i.checked_neg().map(Value::Int).ok_or_else(|| overflow(format!("-({i})")))
                }
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(QueryError::Type(format!("cannot negate {other}"))),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = eval(lhs, b, ctx)?;
            let c = eval(rhs, b, ctx)?;
            binary(*op, a, c)
        }
        Expr::Extract { field, from } => {
            if !field.eq_ignore_ascii_case("epoch") {
                return Err(QueryError::Type(format!("extract field {field:?} not supported")));
            }
            let v = eval(from, b, ctx)?;
            match v {
                Value::Timestamp(t) => Ok(Value::Float(t)),
                Value::Float(f) => Ok(Value::Float(f)),
                Value::Int(i) => Ok(Value::Float(i as f64)),
                Value::Null => Ok(Value::Null),
                other => Err(QueryError::Type(format!("extract epoch from {other}"))),
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, b, ctx)?;
            match v {
                Value::Text(s) => {
                    let m = like_match(pattern, &s);
                    Ok(Value::Bool(m != *negated))
                }
                Value::Null => Ok(Value::Null),
                other => Err(QueryError::Type(format!("LIKE on non-text {other}"))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, b, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, b, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for e in list {
                let cand = eval(e, b, ctx)?;
                if v.sql_eq(&cand) == Some(true) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between { expr, lo, hi, negated } => {
            let v = eval(expr, b, ctx)?;
            let l = eval(lo, b, ctx)?;
            let h = eval(hi, b, ctx)?;
            match (v.compare(&l), v.compare(&h)) {
                (Some(cl), Some(ch)) => {
                    let inside = cl.is_ge() && ch.is_le();
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::CountStar => match ctx {
            Ctx::Row(_) => Ok(Value::Int(1)),
            #[cfg(test)]
            Ctx::Group(rows) => Ok(Value::Int(rows.len() as i64)),
        },
        Expr::Call { name, args } => {
            if super::ast::is_aggregate(name) {
                return match ctx {
                    Ctx::Row(_) => {
                        Err(QueryError::Type(format!("aggregate {name} outside grouped context")))
                    }
                    #[cfg(test)]
                    Ctx::Group(rows) => super::reference::aggregate(name, args, b, rows),
                };
            }
            // scalar functions
            let vals: Result<Vec<Value>, _> = args.iter().map(|a| eval(a, b, ctx)).collect();
            scalar_fn(name, &vals?)
        }
    }
}

/// The error for an integer expression whose value does not fit an `i64`.
fn overflow(expr: String) -> QueryError {
    QueryError::Type(format!("integer overflow in {expr}"))
}

fn binary(op: BinOp, a: Value, c: Value) -> Result<Value, QueryError> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(a.is_truthy() && c.is_truthy())),
        Or => Ok(Value::Bool(a.is_truthy() || c.is_truthy())),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let cmp = a.compare(&c);
            Ok(match cmp {
                None => Value::Null,
                Some(o) => Value::Bool(match op {
                    Eq => o.is_eq(),
                    NotEq => !o.is_eq(),
                    Lt => o.is_lt(),
                    LtEq => o.is_le(),
                    Gt => o.is_gt(),
                    GtEq => o.is_ge(),
                    _ => unreachable!(),
                }),
            })
        }
        Add | Sub | Mul | Div => {
            if a.is_null() || c.is_null() {
                return Ok(Value::Null);
            }
            match (&a, &c, op) {
                // timestamp - timestamp = interval seconds (Float)
                (Value::Timestamp(x), Value::Timestamp(y), Sub) => return Ok(Value::Float(x - y)),
                (&Value::Int(x), &Value::Int(y), Add | Sub | Mul) => {
                    let (r, sym) = match op {
                        Add => (x.checked_add(y), " + "),
                        Sub => (x.checked_sub(y), " - "),
                        _ => (x.checked_mul(y), " * "),
                    };
                    return r.map(Value::Int).ok_or_else(|| overflow(format!("{x}{sym}{y}")));
                }
                _ => {}
            }
            let (x, y) = match (a.as_f64(), c.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(QueryError::Type(format!("arithmetic on {a} and {c}"))),
            };
            Ok(Value::Float(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Ok(Value::Null); // SQL-ish: avoid panics
                    }
                    x / y
                }
                _ => unreachable!(),
            }))
        }
    }
}

fn scalar_fn(name: &str, args: &[Value]) -> Result<Value, QueryError> {
    let arg1 = || {
        args.first().cloned().ok_or_else(|| QueryError::Type(format!("{name} needs an argument")))
    };
    match name {
        "abs" => match arg1()? {
            Value::Int(i) => {
                i.checked_abs().map(Value::Int).ok_or_else(|| overflow(format!("abs({i})")))
            }
            Value::Float(f) => Ok(Value::Float(f.abs())),
            Value::Null => Ok(Value::Null),
            other => Err(QueryError::Type(format!("abs({other})"))),
        },
        "lower" => match arg1()? {
            Value::Text(s) => Ok(Value::Text(s.to_lowercase())),
            Value::Null => Ok(Value::Null),
            other => Err(QueryError::Type(format!("lower({other})"))),
        },
        "upper" => match arg1()? {
            Value::Text(s) => Ok(Value::Text(s.to_uppercase())),
            Value::Null => Ok(Value::Null),
            other => Err(QueryError::Type(format!("upper({other})"))),
        },
        "length" => match arg1()? {
            Value::Text(s) => Ok(Value::Int(s.len() as i64)),
            Value::Null => Ok(Value::Null),
            other => Err(QueryError::Type(format!("length({other})"))),
        },
        "round" => {
            let v = arg1()?;
            let digits = match args.get(1) {
                Some(Value::Int(d)) => *d,
                None => 0,
                Some(other) => return Err(QueryError::Type(format!("round digits: {other}"))),
            };
            match v {
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    Ok(Value::Float((f * m).round() / m))
                }
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Null => Ok(Value::Null),
                other => Err(QueryError::Type(format!("round({other})"))),
            }
        }
        other => Err(QueryError::UnknownFunction(other.to_string())),
    }
}

/// SQL LIKE matcher: `%` = any run, `_` = any single char.
///
/// Greedy with one backtrack point: on a mismatch only the last `%` seen
/// needs to absorb one more character, because any run an earlier `%`
/// could take, the last one can take as well. So it allocates nothing and
/// keeps two positions per string; time is O(|pattern| · |text|) at worst.
fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // the pattern just past the last `%`, and the text it resumes from
    let mut retry: Option<(Chars<'_>, Chars<'_>)> = None;
    loop {
        let mut p_next = p.clone();
        let mut t_next = t.clone();
        match (p_next.next(), t_next.next()) {
            (Some('%'), _) => {
                p = p_next;
                retry = Some((p.clone(), t.clone()));
                continue;
            }
            (Some(pc), Some(tc)) if pc == '_' || pc == tc => {
                (p, t) = (p_next, t_next);
                continue;
            }
            (None, None) => return true,
            _ => {}
        }
        // mismatch: the last `%` takes one more character, if any are left
        let Some((rp, rt)) = &mut retry else { return false };
        if rt.next().is_none() {
            return false;
        }
        (p, t) = (rp.clone(), rt.clone());
    }
}

/// Derive an output column name for a select item.
pub(crate) fn item_name(item: &super::ast::SelectItem) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Call { name, .. } => name.clone(),
        Expr::CountStar => "count".to_string(),
        Expr::Extract { field, .. } => field.clone(),
        _ => "expr".to_string(),
    }
}

/// Replace every [`Expr::Param`] in the query with the matching literal from
/// `params`. Errors if the placeholder count differs from `params.len()`.
pub(crate) fn bind_params(q: &mut Query, params: &[Value]) -> Result<(), QueryError> {
    fn walk(e: &mut Expr, params: &[Value], seen: &mut usize) -> Result<(), QueryError> {
        match e {
            Expr::Param(i) => {
                *seen = (*seen).max(*i + 1);
                let v = params.get(*i).ok_or_else(|| {
                    QueryError::Param(format!(
                        "query needs at least {} parameter(s), got {}",
                        *i + 1,
                        params.len()
                    ))
                })?;
                *e = Expr::Literal(v.clone());
                Ok(())
            }
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, params, seen)?;
                walk(rhs, params, seen)
            }
            Expr::Call { args, .. } => args.iter_mut().try_for_each(|a| walk(a, params, seen)),
            Expr::Extract { from, .. } => walk(from, params, seen),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Neg(expr) => {
                walk(expr, params, seen)
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, params, seen)?;
                list.iter_mut().try_for_each(|e| walk(e, params, seen))
            }
            Expr::Between { expr, lo, hi, .. } => {
                walk(expr, params, seen)?;
                walk(lo, params, seen)?;
                walk(hi, params, seen)
            }
            Expr::Column { .. } | Expr::Literal(_) | Expr::CountStar => Ok(()),
        }
    }
    let mut seen = 0usize;
    for item in &mut q.items {
        walk(&mut item.expr, params, &mut seen)?;
    }
    if let Some(w) = &mut q.where_clause {
        walk(w, params, &mut seen)?;
    }
    for g in &mut q.group_by {
        walk(g, params, &mut seen)?;
    }
    if let Some(h) = &mut q.having {
        walk(h, params, &mut seen)?;
    }
    for k in &mut q.order_by {
        walk(&mut k.expr, params, &mut seen)?;
    }
    if seen != params.len() {
        return Err(QueryError::Param(format!(
            "query has {seen} placeholder(s) but {} parameter(s) were supplied",
            params.len()
        )));
    }
    Ok(())
}

/// Evaluate the ORDER BY keys for one output row. A bare, unqualified name
/// that matches an output column (a select-list alias or derived name) sorts
/// by the projected value — SQL's "ORDER BY output name" rule — otherwise
/// the key is evaluated as an expression over the underlying row/group.
pub(crate) fn order_keys(
    q: &Query,
    b: &Bindings,
    ctx: &Ctx<'_>,
    projected: &[Value],
    columns: &[String],
) -> Result<Vec<Value>, QueryError> {
    q.order_by
        .iter()
        .map(|k| {
            if let Expr::Column { table: None, name } = &k.expr {
                if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    return Ok(projected[i].clone());
                }
            }
            eval(&k.expr, b, ctx)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::{parse, run_query};
    use crate::storage::PagedDb;
    use crate::value::ValueType;

    fn execute(db: &PagedDb, sql: &str) -> Result<ResultSet, QueryError> {
        run_query(db, &parse(sql)?)
    }

    fn execute_with_params(
        db: &PagedDb,
        sql: &str,
        params: &[Value],
    ) -> Result<ResultSet, QueryError> {
        let mut q = parse(sql)?;
        bind_params(&mut q, params)?;
        run_query(db, &q)
    }

    fn db() -> PagedDb {
        let mut db = PagedDb::in_memory();
        db.create_table(
            "emp",
            Schema::new(&[
                ("id", ValueType::Int),
                ("name", ValueType::Text),
                ("dept", ValueType::Text),
                ("salary", ValueType::Float),
            ]),
        )
        .unwrap();
        let rows = [
            (1, "ann", "eng", 100.0),
            (2, "bob", "eng", 80.0),
            (3, "cid", "ops", 60.0),
            (4, "dee", "ops", 70.0),
            (5, "eve", "mgmt", 150.0),
        ];
        for (id, name, dept, sal) in rows {
            db.insert(
                "emp",
                vec![Value::Int(id), Value::from(name), Value::from(dept), Value::Float(sal)],
            )
            .unwrap();
        }
        db.create_table(
            "dept",
            Schema::new(&[("dname", ValueType::Text), ("floor", ValueType::Int)]),
        )
        .unwrap();
        for (d, f) in [("eng", 3), ("ops", 1), ("mgmt", 9)] {
            db.insert("dept", vec![Value::from(d), Value::Int(f)]).unwrap();
        }
        db
    }

    #[test]
    fn simple_projection_and_filter() {
        let r = execute(&db(), "SELECT name FROM emp WHERE salary > 75 ORDER BY name").unwrap();
        assert_eq!(r.columns, vec!["name"]);
        let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["ann", "bob", "eve"]);
    }

    #[test]
    fn select_star_qualified_columns() {
        let r = execute(&db(), "SELECT * FROM dept ORDER BY floor").unwrap();
        assert_eq!(r.columns, vec!["dept.dname", "dept.floor"]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.cell(0, 0), &Value::from("ops"));
    }

    #[test]
    fn join_with_pushdown() {
        let r = execute(
            &db(),
            "SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.dname AND d.floor = 3 ORDER BY e.name",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, 0), &Value::from("ann"));
        assert_eq!(r.cell(1, 0), &Value::from("bob"));
    }

    #[test]
    fn group_by_aggregates() {
        let r = execute(
            &db(),
            "SELECT dept, count(*), min(salary), max(salary), sum(salary), avg(salary) \
             FROM emp GROUP BY dept ORDER BY dept",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["dept", "count", "min", "max", "sum", "avg"]);
        assert_eq!(r.len(), 3);
        // eng: 2 rows, 80..100
        assert_eq!(r.cell(0, 0), &Value::from("eng"));
        assert_eq!(r.cell(0, 1), &Value::Int(2));
        assert_eq!(r.cell(0, 2), &Value::Float(80.0));
        assert_eq!(r.cell(0, 3), &Value::Float(100.0));
        assert_eq!(r.cell(0, 4), &Value::Float(180.0));
        assert_eq!(r.cell(0, 5), &Value::Float(90.0));
    }

    #[test]
    fn implicit_single_group() {
        let r = execute(&db(), "SELECT count(*), avg(salary) FROM emp").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::Int(5));
        assert_eq!(r.cell(0, 1), &Value::Float(92.0));
    }

    #[test]
    fn aggregate_over_empty_input() {
        let r =
            execute(&db(), "SELECT count(*), max(salary) FROM emp WHERE salary > 1000").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::Int(0));
        assert!(r.cell(0, 1).is_null());
    }

    #[test]
    fn like_patterns() {
        let r = execute(&db(), "SELECT name FROM emp WHERE name LIKE '%e%' ORDER BY name").unwrap();
        let names: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(names, vec!["dee", "eve"]);
        let r2 = execute(&db(), "SELECT name FROM emp WHERE name LIKE '_ob'").unwrap();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.cell(0, 0), &Value::from("bob"));
        let r3 = execute(&db(), "SELECT count(*) FROM emp WHERE name NOT LIKE '%e%'").unwrap();
        assert_eq!(r3.cell(0, 0), &Value::Int(3));
    }

    #[test]
    fn arithmetic_and_aliases() {
        let r = execute(&db(), "SELECT salary * 2 AS double_pay FROM emp WHERE id = 1").unwrap();
        assert_eq!(r.columns, vec!["double_pay"]);
        assert_eq!(r.cell(0, 0), &Value::Float(200.0));
    }

    #[test]
    fn division_by_zero_yields_null() {
        let r = execute(&db(), "SELECT salary / 0 FROM emp WHERE id = 1").unwrap();
        assert!(r.cell(0, 0).is_null());
    }

    #[test]
    fn order_by_desc_and_limit() {
        let r =
            execute(&db(), "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, 0), &Value::from("eve"));
        assert_eq!(r.cell(1, 0), &Value::from("ann"));
    }

    #[test]
    fn extract_epoch_from_timestamps() {
        let mut db = PagedDb::in_memory();
        db.create_table(
            "t",
            Schema::new(&[("starttime", ValueType::Timestamp), ("endtime", ValueType::Timestamp)]),
        )
        .unwrap();
        db.insert("t", vec![Value::Timestamp(10.0), Value::Timestamp(35.5)]).unwrap();
        let r = execute(&db, "SELECT extract('epoch' from (endtime - starttime)) FROM t").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Float(25.5));
    }

    #[test]
    fn unknown_column_and_table_errors() {
        assert!(matches!(
            execute(&db(), "SELECT nope FROM emp"),
            Err(QueryError::UnknownColumn(_))
        ));
        assert!(matches!(execute(&db(), "SELECT 1 FROM missing"), Err(QueryError::Db(_))));
        assert!(matches!(
            execute(&db(), "SELECT e.bad FROM emp e"),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        // dname only in dept, name only in emp — but join both and use a
        // column that exists in both via self-join
        let err = execute(&db(), "SELECT name FROM emp a, emp b").unwrap_err();
        assert!(matches!(err, QueryError::AmbiguousColumn(_)));
    }

    #[test]
    fn is_null_handling() {
        let mut db = db();
        db.insert("emp", vec![Value::Int(6), Value::Null, Value::from("eng"), Value::Float(10.0)])
            .unwrap();
        let r = execute(&db, "SELECT id FROM emp WHERE name IS NULL").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::Int(6));
        let r2 = execute(&db, "SELECT count(*) FROM emp WHERE name IS NOT NULL").unwrap();
        assert_eq!(r2.cell(0, 0), &Value::Int(5));
        // count(name) skips NULLs
        let r3 = execute(&db, "SELECT count(name) FROM emp").unwrap();
        assert_eq!(r3.cell(0, 0), &Value::Int(5));
    }

    #[test]
    #[allow(clippy::approx_constant)] // round(3.14159, 2) tests rounding, not π
    fn scalar_functions() {
        let r = execute(
            &db(),
            "SELECT upper(name), lower(dept), length(name), abs(-5), round(3.14159, 2) FROM emp WHERE id = 1",
        )
        .unwrap();
        assert_eq!(r.cell(0, 0), &Value::from("ANN"));
        assert_eq!(r.cell(0, 1), &Value::from("eng"));
        assert_eq!(r.cell(0, 2), &Value::Int(3));
        assert_eq!(r.cell(0, 3), &Value::Int(5));
        assert_eq!(r.cell(0, 4), &Value::Float(3.14));
    }

    #[test]
    fn unknown_function_error() {
        assert!(matches!(
            execute(&db(), "SELECT frobnicate(name) FROM emp"),
            Err(QueryError::UnknownFunction(_))
        ));
    }

    #[test]
    fn display_renders_table() {
        let r = execute(&db(), "SELECT name, salary FROM emp WHERE id = 1").unwrap();
        let s = r.to_string();
        assert!(s.contains("name"));
        assert!(s.contains("ann"));
        assert!(s.contains("100"));
        assert!(s.lines().count() >= 3, "header + separator + row");
    }

    #[test]
    fn like_match_edge_cases() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("%.dlg", "GOL_4C5P.dlg"));
        assert!(!like_match("%.dlg", "GOL_4C5P.log"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "acb"));
        assert!(like_match("__", "ab"));
        assert!(!like_match("__", "a"));
    }

    #[test]
    fn or_predicates() {
        let r =
            execute(&db(), "SELECT count(*) FROM emp WHERE dept = 'eng' OR dept = 'mgmt'").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(3));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = execute(&db(), "SELECT DISTINCT dept FROM emp ORDER BY dept").unwrap();
        let got: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(got, vec!["eng", "mgmt", "ops"]);
        // without DISTINCT there are five rows
        let all = execute(&db(), "SELECT dept FROM emp").unwrap();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn having_filters_groups() {
        let r = execute(
            &db(),
            "SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept",
        )
        .unwrap();
        assert_eq!(r.len(), 2, "mgmt (1 row) is filtered out");
        assert_eq!(r.cell(0, 0), &Value::from("eng"));
        assert_eq!(r.cell(1, 0), &Value::from("ops"));
    }

    #[test]
    fn having_with_avg_condition() {
        let r = execute(
            &db(),
            "SELECT dept, avg(salary) FROM emp GROUP BY dept HAVING avg(salary) >= 90 ORDER BY dept",
        )
        .unwrap();
        assert_eq!(r.len(), 2); // eng avg 90, mgmt avg 150
    }

    #[test]
    fn in_list_membership() {
        let r = execute(&db(), "SELECT count(*) FROM emp WHERE dept IN ('eng', 'mgmt')").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(3));
        let r2 =
            execute(&db(), "SELECT count(*) FROM emp WHERE dept NOT IN ('eng', 'mgmt')").unwrap();
        assert_eq!(r2.cell(0, 0), &Value::Int(2));
        // numeric IN with cross-type compare
        let r3 = execute(&db(), "SELECT count(*) FROM emp WHERE id IN (1, 3, 99)").unwrap();
        assert_eq!(r3.cell(0, 0), &Value::Int(2));
    }

    #[test]
    fn between_inclusive() {
        let r = execute(&db(), "SELECT count(*) FROM emp WHERE salary BETWEEN 60 AND 100").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(4), "60 and 100 are inclusive");
        let r2 =
            execute(&db(), "SELECT count(*) FROM emp WHERE salary NOT BETWEEN 60 AND 100").unwrap();
        assert_eq!(r2.cell(0, 0), &Value::Int(1));
    }

    #[test]
    fn in_with_null_is_unknown() {
        let mut db = db();
        db.insert("emp", vec![Value::Int(7), Value::Null, Value::from("eng"), Value::Float(1.0)])
            .unwrap();
        // NULL IN (...) is unknown -> excluded by WHERE
        let r = execute(&db, "SELECT count(*) FROM emp WHERE name IN ('ann', 'bob')").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(2));
    }

    #[test]
    fn order_by_select_alias() {
        let r =
            execute(&db(), "SELECT name, salary * 2 AS pay2 FROM emp ORDER BY pay2 DESC LIMIT 2")
                .unwrap();
        assert_eq!(r.cell(0, 0), &Value::from("eve"));
        assert_eq!(r.cell(1, 0), &Value::from("ann"));
        // grouped: order by an aggregate alias
        let g = execute(
            &db(),
            "SELECT dept, count(*) AS n FROM emp GROUP BY dept ORDER BY n DESC, dept",
        )
        .unwrap();
        assert_eq!(g.cell(0, 1), &Value::Int(2));
        assert_eq!(g.cell(2, 1), &Value::Int(1));
    }

    #[test]
    fn params_bind_typed_values() {
        let r = execute_with_params(
            &db(),
            "SELECT name FROM emp WHERE salary >= ? AND dept = ? ORDER BY name",
            &[Value::Float(75.0), Value::from("eng")],
        )
        .unwrap();
        let names: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(names, vec!["ann", "bob"]);
    }

    #[test]
    fn params_in_having_and_order() {
        let r = execute_with_params(
            &db(),
            "SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) >= ? ORDER BY dept",
            &[Value::Int(2)],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn params_are_values_not_sql() {
        // a hostile string binds as plain text instead of splicing into the query
        let r = execute_with_params(
            &db(),
            "SELECT count(*) FROM emp WHERE name = ?",
            &[Value::from("x' OR '1'='1")],
        )
        .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(0));
    }

    #[test]
    fn param_count_mismatch_errors() {
        let too_few = execute_with_params(&db(), "SELECT id FROM emp WHERE id = ?", &[]);
        assert!(matches!(too_few, Err(QueryError::Param(_))), "{too_few:?}");
        let too_many = execute_with_params(
            &db(),
            "SELECT id FROM emp WHERE id = ?",
            &[Value::Int(1), Value::Int(2)],
        );
        assert!(matches!(too_many, Err(QueryError::Param(_))), "{too_many:?}");
    }

    #[test]
    fn unbound_param_rejected_by_plain_execute() {
        let err = execute(&db(), "SELECT id FROM emp WHERE id = ?").unwrap_err();
        assert!(matches!(err, QueryError::Param(_)), "{err:?}");
        assert!(err.to_string().contains("unbound parameter"));
    }

    #[test]
    fn three_way_join_counts() {
        // cross join sizes multiply when no predicate applies
        let r = execute(&db(), "SELECT count(*) FROM dept a, dept b").unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(9));
    }
}
