//! SQL execution: join, filter, group, aggregate, order, project.
//!
//! The executor is a straightforward iterator-free implementation with one
//! real optimization: the WHERE clause is split into conjuncts and each
//! conjunct is applied as soon as every column it mentions is bound, so
//! selective predicates (e.g. `w.wkfid = 432`) prune the join early instead
//! of filtering a full cross product.

use std::collections::HashMap;
use std::fmt;

use crate::table::{Database, DbError, Schema};
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

/// Evaluation context: one row, or a group of rows for aggregates.
pub(crate) enum Ctx<'a> {
    Row(&'a [Value]),
    Group(&'a [&'a Vec<Value>]),
}

pub(crate) fn eval(expr: &Expr, b: &Bindings, ctx: &Ctx<'_>) -> Result<Value, QueryError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        // `?` placeholders are substituted by `bind_params` before execution;
        // one surviving to evaluation means parameterized SQL was run
        // without its values.
        Expr::Param(i) => Err(QueryError::Param(format!(
            "unbound parameter ?{} — pass its value to `ProvenanceStore::query`",
            i + 1
        ))),
        Expr::Column { table, name } => {
            let idx = b.resolve(table.as_deref(), name)?;
            match ctx {
                Ctx::Row(row) => Ok(row[idx].clone()),
                // outside an aggregate, a column in a grouped query takes its
                // value from the first row of the group (valid because the
                // planner requires it to be a GROUP BY key)
                Ctx::Group(rows) => Ok(rows.first().map(|r| r[idx].clone()).unwrap_or(Value::Null)),
            }
        }
        Expr::Neg(inner) => {
            let v = eval(inner, b, ctx)?;
            match v {
                Value::Int(i) => Ok(Value::Int(-i)),
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
            Ctx::Group(rows) => Ok(Value::Int(rows.len() as i64)),
            Ctx::Row(_) => Ok(Value::Int(1)),
        },
        Expr::Call { name, args } => {
            if super::ast::is_aggregate(name) {
                let rows: Vec<&Vec<Value>> = match ctx {
                    Ctx::Group(rows) => rows.to_vec(),
                    // aggregate over a non-grouped query treats the whole
                    // result as one group; handled by the caller — a single
                    // row behaves as a group of one here
                    Ctx::Row(_) => {
                        return Err(QueryError::Type(format!(
                            "aggregate {name} outside grouped context"
                        )))
                    }
                };
                if args.len() != 1 {
                    return Err(QueryError::Type(format!("{name} takes one argument")));
                }
                let mut vals = Vec::with_capacity(rows.len());
                for r in rows {
                    let v = eval(&args[0], b, &Ctx::Row(r))?;
                    if !v.is_null() {
                        vals.push(v);
                    }
                }
                return aggregate(name, &vals);
            }
            // scalar functions
            let vals: Result<Vec<Value>, _> = args.iter().map(|a| eval(a, b, ctx)).collect();
            scalar_fn(name, &vals?)
        }
    }
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
            // timestamp - timestamp = interval seconds (Float)
            if let (Value::Timestamp(x), Value::Timestamp(y)) = (&a, &c) {
                if op == Sub {
                    return Ok(Value::Float(x - y));
                }
            }
            let (x, y) = match (a.as_f64(), c.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(QueryError::Type(format!("arithmetic on {a} and {c}"))),
            };
            let both_int = matches!(a, Value::Int(_)) && matches!(c, Value::Int(_)) && op != Div;
            let r = match op {
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
            };
            Ok(if both_int { Value::Int(r as i64) } else { Value::Float(r) })
        }
    }
}

pub(crate) fn aggregate(name: &str, vals: &[Value]) -> Result<Value, QueryError> {
    let lower = name.to_ascii_lowercase();
    if lower == "count" {
        return Ok(Value::Int(vals.len() as i64));
    }
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    match lower.as_str() {
        "min" => Ok(vals
            .iter()
            .cloned()
            .reduce(|a, b| if a.compare(&b).is_none_or(|o| o.is_le()) { a } else { b })
            .unwrap_or(Value::Null)),
        "max" => Ok(vals
            .iter()
            .cloned()
            .reduce(|a, b| if a.compare(&b).is_none_or(|o| o.is_ge()) { a } else { b })
            .unwrap_or(Value::Null)),
        "sum" | "avg" => {
            let mut s = 0.0;
            for v in vals {
                s += v
                    .as_f64()
                    .ok_or_else(|| QueryError::Type(format!("{name} over non-numeric {v}")))?;
            }
            if lower == "avg" {
                s /= vals.len() as f64;
            }
            Ok(Value::Float(s))
        }
        other => Err(QueryError::UnknownFunction(other.to_string())),
    }
}

fn scalar_fn(name: &str, args: &[Value]) -> Result<Value, QueryError> {
    let arg1 = || {
        args.first().cloned().ok_or_else(|| QueryError::Type(format!("{name} needs an argument")))
    };
    match name {
        "abs" => match arg1()? {
            Value::Int(i) => Ok(Value::Int(i.abs())),
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
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // dynamic programming over (pattern idx, text idx)
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '%' {
            dp[i][0] = dp[i - 1][0];
        }
    }
    for i in 1..=p.len() {
        for j in 1..=t.len() {
            dp[i][j] = match p[i - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && c == t[j - 1],
            };
        }
    }
    dp[p.len()][t.len()]
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

/// Execute a parsed query.
pub fn execute_query(db: &Database, q: &Query) -> Result<ResultSet, QueryError> {
    // bind FROM tables
    let mut tables = Vec::new();
    let mut offset = 0usize;
    for tr in &q.from {
        let t = db.table(&tr.name)?;
        tables.push((tr.binding().to_string(), t.schema.clone(), offset));
        offset += t.schema.arity();
    }
    let bindings = Bindings { tables, width: offset };

    let preds: Vec<&Expr> = q.where_clause.as_ref().map(conjuncts).unwrap_or_default();
    // assign each conjunct to the earliest join step where it is fully bound
    let mut pred_at: Vec<Vec<&Expr>> = vec![Vec::new(); q.from.len() + 1];
    for p in preds {
        match (1..=q.from.len()).find(|&n| bindings.expr_bound(p, n)) {
            Some(n) => pred_at[n].push(p),
            // will fail with UnknownColumn during evaluation; evaluate last
            None => pred_at[q.from.len()].push(p),
        }
    }

    // incremental nested-loop join with predicate push-down
    let mut joined: Vec<Vec<Value>> = vec![Vec::new()];
    for (n, tr) in q.from.iter().enumerate() {
        let t = db.table(&tr.name)?;
        let mut next = Vec::new();
        for base in &joined {
            for row in t.rows() {
                let mut combined = base.clone();
                combined.extend(row.iter().cloned());
                let mut keep = true;
                for p in &pred_at[n + 1] {
                    let v = eval(p, &bindings, &Ctx::Row(&combined))?;
                    if !v.is_truthy() {
                        keep = false;
                        break;
                    }
                }
                if keep {
                    next.push(combined);
                }
            }
        }
        joined = next;
    }
    debug_assert!(joined.iter().all(|r| r.len() == bindings.width));

    let grouped = !q.group_by.is_empty() || q.items.iter().any(|i| i.expr.contains_aggregate());

    // (row values for projection, order keys)
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let columns: Vec<String>;

    if q.star {
        if grouped {
            return Err(QueryError::Type("SELECT * cannot be grouped".to_string()));
        }
        columns = bindings
            .tables
            .iter()
            .flat_map(|(b, s, _)| s.columns.iter().map(move |c| format!("{b}.{}", c.name)))
            .collect();
        for row in &joined {
            let keys = order_keys(q, &bindings, &Ctx::Row(row), row, &columns)?;
            out_rows.push((row.clone(), keys));
        }
    } else if grouped {
        columns = q.items.iter().map(item_name).collect();
        // group rows by GROUP BY key values
        let mut groups: HashMap<String, Vec<&Vec<Value>>> = HashMap::new();
        let mut group_order: Vec<String> = Vec::new();
        for row in &joined {
            let mut key = String::new();
            for g in &q.group_by {
                let v = eval(g, &bindings, &Ctx::Row(row))?;
                key.push_str(&format!("{v}\u{1}"));
            }
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                group_order.push(key.clone());
                Vec::new()
            });
            entry.push(row);
        }
        if q.group_by.is_empty() && !joined.is_empty() {
            // implicit single group
            groups.insert(String::new(), joined.iter().collect());
            group_order = vec![String::new()];
        }
        if q.group_by.is_empty() && joined.is_empty() {
            // aggregates over empty input yield one row (count=0, others NULL)
            groups.insert(String::new(), Vec::new());
            group_order = vec![String::new()];
        }
        for key in &group_order {
            let rows = &groups[key];
            let ctx = Ctx::Group(rows);
            if let Some(h) = &q.having {
                if !eval(h, &bindings, &ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut vals = Vec::with_capacity(q.items.len());
            for item in &q.items {
                vals.push(eval(&item.expr, &bindings, &ctx)?);
            }
            let keys = order_keys(q, &bindings, &ctx, &vals, &columns)?;
            out_rows.push((vals, keys));
        }
    } else {
        columns = q.items.iter().map(item_name).collect();
        for row in &joined {
            let ctx = Ctx::Row(row);
            let mut vals = Vec::with_capacity(q.items.len());
            for item in &q.items {
                vals.push(eval(&item.expr, &bindings, &ctx)?);
            }
            let keys = order_keys(q, &bindings, &ctx, &vals, &columns)?;
            out_rows.push((vals, keys));
        }
    }

    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|(vals, _)| {
            let key: String = vals.iter().map(|v| format!("{v}\u{1}")).collect();
            seen.insert(key)
        });
    }
    if !q.order_by.is_empty() {
        out_rows.sort_by(|(_, ka), (_, kb)| {
            for (k, spec) in ka.iter().zip(kb).zip(&q.order_by) {
                let (a, b) = k;
                // total_cmp, not compare: NULLs sort first instead of
                // breaking sort_by's total-order contract
                let ord = a.total_cmp(b);
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    let mut rows: Vec<Vec<Value>> = out_rows.into_iter().map(|(v, _)| v).collect();
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    Ok(ResultSet { columns, rows })
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
    use crate::sql::parse;
    use crate::table::Schema;
    use crate::value::ValueType;

    fn execute(db: &Database, sql: &str) -> Result<ResultSet, QueryError> {
        execute_query(db, &parse(sql)?)
    }

    fn execute_with_params(
        db: &Database,
        sql: &str,
        params: &[Value],
    ) -> Result<ResultSet, QueryError> {
        let mut q = parse(sql)?;
        bind_params(&mut q, params)?;
        execute_query(db, &q)
    }

    fn db() -> Database {
        let mut db = Database::new();
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
        let mut db = Database::new();
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
