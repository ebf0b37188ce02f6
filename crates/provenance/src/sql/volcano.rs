//! Volcano-style executor: an open/next/close pipeline of operators pulling
//! rows through the planned access paths.
//!
//! Two operator families:
//!
//! - **Row operators** (`Op`) produce flat joined rows: `ScanOp` (seq /
//!   index-eq / index-range / index-probe access), `FilterOp`,
//!   `NlJoinOp`, `EmptyRowOp`.
//! - **Tuple operators** (`TupleOp`) carry `(projected values, sort keys)`
//!   pairs: `ProjectOp`, `AggOp` (streaming accumulators), `DistinctOp`,
//!   `SortOp`, `LimitOp`.
//!
//! Operators never borrow the storage: they receive an `ExecCtx` (a
//! `&dyn TableProvider`) on every `next` call, and all scan positions are
//! plain rowids. A query is built and drained whole by [`run_query`], so
//! the context — and with it the store's lock, which the store's one read
//! holds around the call — lives exactly as long as the query.
//!
//! Semantics contract: for any query the pipeline produces *row-identical*
//! output (values **and** order) to the tree-walking reference executor
//! that the crate's tests keep as its oracle (`sql::reference`, test-only),
//! with or without indexes under it. Index access paths may fetch a
//! superset of matching rows (see [`crate::storage::keys`]); every
//! predicate is re-applied by `FilterOp`, so supersets never leak into
//! results.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

use crate::storage::{keys, TableProvider};
use crate::value::Value;

use super::ast::{is_aggregate, Expr, Query};
use super::expr::{eval, item_name, order_keys, Bindings, Ctx, QueryError, ResultSet};
use super::plan::{explain_lines, plan_query, Access, Plan, TableStep};

/// Per-query execution context: the storage the operators read through,
/// borrowed for as long as [`run_query`] drains the pipeline.
struct ExecCtx<'a> {
    /// The tables the operators read.
    pub provider: &'a dyn TableProvider,
}

/// A joined-row operator. `next` returns the next flat row or `None`.
trait Op {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError>;
}

/// A projected-tuple operator: `(output values, ORDER BY keys)`.
trait TupleOp {
    #[allow(clippy::type_complexity)]
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError>;
}

fn bound_slice(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

enum ScanState {
    Start,
    /// Sequential scan: next rowid to read.
    Seq(u64),
    /// Index access: matched rowids (ascending) and how many are consumed.
    Rowids {
        rids: Vec<u64>,
        pos: usize,
    },
    Done,
}

/// Reads one table through its planned access path, emitting `outer ++ row`.
struct ScanOp {
    table: String,
    access: Access,
    bindings: Arc<Bindings>,
    /// Prefix row from the enclosing join (empty for the first table).
    outer: Vec<Value>,
    state: ScanState,
    buf: VecDeque<Vec<Value>>,
}

const SCAN_BATCH: usize = 64;

impl ScanOp {
    fn new(step: &TableStep, bindings: Arc<Bindings>) -> ScanOp {
        ScanOp {
            table: step.table.clone(),
            access: step.access.clone(),
            bindings,
            outer: Vec::new(),
            state: ScanState::Start,
            buf: VecDeque::new(),
        }
    }

    /// Bind a new outer row and restart the scan (inner side of a join).
    fn rebind(&mut self, outer: Vec<Value>) {
        self.outer = outer;
        self.state = ScanState::Start;
        self.buf.clear();
    }

    fn open(&self, cx: &ExecCtx<'_>) -> Result<ScanState, QueryError> {
        let rowids = |lo: Bound<Vec<u8>>, hi: Bound<Vec<u8>>| {
            cx.provider
                .index_rowids(&self.table, self.index_name(), bound_slice(&lo), bound_slice(&hi))
                .map_err(QueryError::Db)
        };
        match &self.access {
            Access::SeqScan => Ok(ScanState::Seq(0)),
            Access::IndexEq { key, .. } => {
                let (lo, hi) = keys::eq_range(key);
                Ok(ScanState::Rowids { rids: rowids(lo, hi)?, pos: 0 })
            }
            Access::IndexProbe { key_exprs, .. } => {
                let mut vals = Vec::with_capacity(key_exprs.len());
                for e in key_exprs {
                    let v = eval(e, &self.bindings, &Ctx::Row(&self.outer))?;
                    if v.is_null() {
                        // eq with NULL matches nothing; empty is a valid
                        // superset of the true match set
                        return Ok(ScanState::Rowids { rids: Vec::new(), pos: 0 });
                    }
                    vals.push(v);
                }
                let (lo, hi) = keys::eq_range(&vals);
                Ok(ScanState::Rowids { rids: rowids(lo, hi)?, pos: 0 })
            }
            Access::IndexRange { lo, hi, .. } => {
                let lob = match lo {
                    Some((v, inc)) => keys::lo_bound(v, *inc),
                    None => Bound::Unbounded,
                };
                let hib = match hi {
                    Some((v, inc)) => keys::hi_bound(v, *inc),
                    None => Bound::Unbounded,
                };
                Ok(ScanState::Rowids { rids: rowids(lob, hib)?, pos: 0 })
            }
        }
    }

    fn index_name(&self) -> &str {
        match &self.access {
            Access::IndexEq { index, .. }
            | Access::IndexProbe { index, .. }
            | Access::IndexRange { index, .. } => index,
            Access::SeqScan => "",
        }
    }

    fn combined(&self, row: Vec<Value>) -> Vec<Value> {
        let mut c = Vec::with_capacity(self.outer.len() + row.len());
        c.extend(self.outer.iter().cloned());
        c.extend(row);
        c
    }
}

impl Op for ScanOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError> {
        loop {
            match &mut self.state {
                ScanState::Start => self.state = self.open(cx)?,
                ScanState::Seq(pos) => {
                    if let Some(row) = self.buf.pop_front() {
                        return Ok(Some(self.combined(row)));
                    }
                    let mut batch = Vec::new();
                    cx.provider.scan_batch(&self.table, pos, SCAN_BATCH, &mut batch)?;
                    if batch.is_empty() {
                        self.state = ScanState::Done;
                    } else {
                        self.buf.extend(batch);
                    }
                }
                ScanState::Rowids { rids, pos } => {
                    if let Some(row) = self.buf.pop_front() {
                        return Ok(Some(self.combined(row)));
                    }
                    if *pos >= rids.len() {
                        self.state = ScanState::Done;
                        continue;
                    }
                    let end = (*pos + SCAN_BATCH).min(rids.len());
                    let rows = cx.provider.fetch_batch(&self.table, &rids[*pos..end])?;
                    *pos = end;
                    self.buf.extend(rows.into_iter().flatten());
                }
                ScanState::Done => return Ok(None),
            }
        }
    }
}

/// Emits exactly one zero-width row (`FROM`-less queries).
struct EmptyRowOp {
    done: bool,
}

impl Op for EmptyRowOp {
    fn next(&mut self, _cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(Vec::new()))
    }
}

/// Keeps rows for which every predicate is truthy.
struct FilterOp {
    input: Box<dyn Op>,
    preds: Vec<Expr>,
    bindings: Arc<Bindings>,
}

impl Op for FilterOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError> {
        'rows: while let Some(row) = self.input.next(cx)? {
            for p in &self.preds {
                if !eval(p, &self.bindings, &Ctx::Row(&row))?.is_truthy() {
                    continue 'rows;
                }
            }
            return Ok(Some(row));
        }
        Ok(None)
    }
}

/// Nested-loop join: for each left row, rebind + drain the right scan
/// (which handles index-probe access itself).
struct NlJoinOp {
    left: Box<dyn Op>,
    right: ScanOp,
    active: bool,
}

impl Op for NlJoinOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError> {
        loop {
            if !self.active {
                match self.left.next(cx)? {
                    Some(l) => {
                        self.right.rebind(l);
                        self.active = true;
                    }
                    None => return Ok(None),
                }
            }
            match self.right.next(cx)? {
                Some(row) => return Ok(Some(row)),
                None => self.active = false,
            }
        }
    }
}

/// Projection for non-grouped queries (plain items or `SELECT *`).
struct ProjectOp {
    input: Box<dyn Op>,
    q: Arc<Query>,
    bindings: Arc<Bindings>,
    columns: Arc<Vec<String>>,
}

impl TupleOp for ProjectOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError> {
        let Some(row) = self.input.next(cx)? else { return Ok(None) };
        let ctx = Ctx::Row(&row);
        if self.q.star {
            let keys = order_keys(&self.q, &self.bindings, &ctx, &row, &self.columns)?;
            return Ok(Some((row, keys)));
        }
        let mut vals = Vec::with_capacity(self.q.items.len());
        for item in &self.q.items {
            vals.push(eval(&item.expr, &self.bindings, &ctx)?);
        }
        let keys = order_keys(&self.q, &self.bindings, &ctx, &vals, &self.columns)?;
        Ok(Some((vals, keys)))
    }
}

/// Accumulator state for one aggregate expression within one group.
#[derive(Clone)]
struct Acc {
    /// Argument expression (absent for `count(*)` and arity errors).
    arg: Option<Expr>,
    state: AccState,
    /// Deferred error, raised only when the aggregate's value is used —
    /// mirrors the reference executor's lazy per-group evaluation.
    err: Option<QueryError>,
}

#[derive(Clone)]
enum AccState {
    CountStar(i64),
    Count(i64),
    MinMax { min: bool, cur: Option<Value> },
    Sum { name: String, sum: f64, n: u64, avg: bool },
}

impl Acc {
    fn for_expr(e: &Expr) -> Acc {
        match e {
            Expr::CountStar => Acc { arg: None, state: AccState::CountStar(0), err: None },
            Expr::Call { name, args } => {
                if args.len() != 1 {
                    return Acc {
                        arg: None,
                        state: AccState::Count(0),
                        err: Some(QueryError::Type(format!("{name} takes one argument"))),
                    };
                }
                let arg = Some(args[0].clone());
                let state = match name.to_ascii_lowercase().as_str() {
                    "count" => AccState::Count(0),
                    "min" => AccState::MinMax { min: true, cur: None },
                    "max" => AccState::MinMax { min: false, cur: None },
                    "sum" => AccState::Sum { name: name.clone(), sum: 0.0, n: 0, avg: false },
                    "avg" => AccState::Sum { name: name.clone(), sum: 0.0, n: 0, avg: true },
                    other => unreachable!("non-aggregate {other} in registry"),
                };
                Acc { arg, state, err: None }
            }
            other => unreachable!("non-aggregate expr in registry: {other:?}"),
        }
    }

    fn accumulate(&mut self, b: &Bindings, row: &[Value]) {
        if self.err.is_some() {
            return;
        }
        if let AccState::CountStar(n) = &mut self.state {
            *n += 1;
            return;
        }
        let arg = self.arg.as_ref().expect("non-count(*) aggregate has an argument");
        let v = match eval(arg, b, &Ctx::Row(row)) {
            Ok(v) => v,
            Err(e) => {
                self.err = Some(e);
                return;
            }
        };
        if v.is_null() {
            return; // aggregates skip NULL inputs
        }
        match &mut self.state {
            AccState::Count(n) => *n += 1,
            AccState::MinMax { min, cur } => match cur {
                None => *cur = Some(v),
                Some(a) => {
                    // same fold as the reference `reduce`: keep the earlier
                    // value on incomparable pairs
                    let keep = if *min {
                        a.compare(&v).is_none_or(|o| o.is_le())
                    } else {
                        a.compare(&v).is_none_or(|o| o.is_ge())
                    };
                    if !keep {
                        *cur = Some(v);
                    }
                }
            },
            AccState::Sum { name, sum, n, .. } => match v.as_f64() {
                Some(x) => {
                    *sum += x;
                    *n += 1;
                }
                None => {
                    self.err = Some(QueryError::Type(format!("{name} over non-numeric {v}")));
                }
            },
            AccState::CountStar(_) => unreachable!("handled above"),
        }
    }

    fn finalize(&self) -> Result<Value, QueryError> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        Ok(match &self.state {
            AccState::CountStar(n) | AccState::Count(n) => Value::Int(*n),
            AccState::MinMax { cur, .. } => cur.clone().unwrap_or(Value::Null),
            AccState::Sum { sum, n, avg, .. } => {
                if *n == 0 {
                    Value::Null
                } else if *avg {
                    Value::Float(sum / *n as f64)
                } else {
                    Value::Float(*sum)
                }
            }
        })
    }
}

/// Collect the *top-level* aggregate nodes of `e` (not descending into
/// aggregate arguments — those evaluate per row), deduplicated structurally.
fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    let is_agg =
        matches!(e, Expr::CountStar) || matches!(e, Expr::Call { name, .. } if is_aggregate(name));
    if is_agg {
        if !out.contains(e) {
            out.push(e.clone());
        }
        return;
    }
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            collect_aggs(lhs, out);
            collect_aggs(rhs, out);
        }
        Expr::Call { args, .. } => args.iter().for_each(|a| collect_aggs(a, out)),
        Expr::Extract { from, .. } => collect_aggs(from, out),
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Neg(expr) => {
            collect_aggs(expr, out)
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            list.iter().for_each(|e| collect_aggs(e, out));
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::CountStar => {}
    }
}

/// Rewrite `e`, replacing each registry aggregate with its computed value
/// (or raising its deferred error, only now that the value is used).
fn subst(
    e: &Expr,
    registry: &[Expr],
    finals: &[Result<Value, QueryError>],
) -> Result<Expr, QueryError> {
    if let Some(i) = registry.iter().position(|r| r == e) {
        return match &finals[i] {
            Ok(v) => Ok(Expr::Literal(v.clone())),
            Err(err) => Err(err.clone()),
        };
    }
    Ok(match e {
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(subst(lhs, registry, finals)?),
            rhs: Box::new(subst(rhs, registry, finals)?),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| subst(a, registry, finals)).collect::<Result<_, _>>()?,
        },
        Expr::Extract { field, from } => {
            Expr::Extract { field: field.clone(), from: Box::new(subst(from, registry, finals)?) }
        }
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(subst(expr, registry, finals)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(subst(expr, registry, finals)?), negated: *negated }
        }
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(subst(expr, registry, finals)?),
            list: list.iter().map(|e| subst(e, registry, finals)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::Between { expr, lo, hi, negated } => Expr::Between {
            expr: Box::new(subst(expr, registry, finals)?),
            lo: Box::new(subst(lo, registry, finals)?),
            hi: Box::new(subst(hi, registry, finals)?),
            negated: *negated,
        },
        Expr::Neg(x) => Expr::Neg(Box::new(subst(x, registry, finals)?)),
        other => other.clone(),
    })
}

struct GroupState {
    first_row: Option<Vec<Value>>,
    accs: Vec<Acc>,
}

/// Streaming aggregation: one pass over the input maintaining per-group
/// accumulators (never the group's rows), then emission in first-seen group
/// order with aggregate values substituted into the output expressions.
struct AggOp {
    input: Box<dyn Op>,
    q: Arc<Query>,
    bindings: Arc<Bindings>,
    columns: Arc<Vec<String>>,
    registry: Vec<Expr>,
    templates: Vec<Acc>,
    groups: Vec<GroupState>,
    index: HashMap<String, usize>,
    consumed: bool,
    emit: usize,
}

impl AggOp {
    fn new(
        input: Box<dyn Op>,
        q: Arc<Query>,
        bindings: Arc<Bindings>,
        columns: Arc<Vec<String>>,
    ) -> AggOp {
        let mut registry = Vec::new();
        for item in &q.items {
            collect_aggs(&item.expr, &mut registry);
        }
        if let Some(h) = &q.having {
            collect_aggs(h, &mut registry);
        }
        for k in &q.order_by {
            collect_aggs(&k.expr, &mut registry);
        }
        let templates = registry.iter().map(Acc::for_expr).collect();
        AggOp {
            input,
            q,
            bindings,
            columns,
            registry,
            templates,
            groups: Vec::new(),
            index: HashMap::new(),
            consumed: false,
            emit: 0,
        }
    }

    fn consume(&mut self, cx: &ExecCtx<'_>) -> Result<(), QueryError> {
        while let Some(row) = self.input.next(cx)? {
            let mut key = String::new();
            for g in &self.q.group_by {
                let v = eval(g, &self.bindings, &Ctx::Row(&row))?;
                key.push_str(&format!("{v}\u{1}"));
            }
            let gi = match self.index.get(&key) {
                Some(&i) => i,
                None => {
                    self.groups.push(GroupState { first_row: None, accs: self.templates.clone() });
                    self.index.insert(key, self.groups.len() - 1);
                    self.groups.len() - 1
                }
            };
            let g = &mut self.groups[gi];
            if g.first_row.is_none() {
                g.first_row = Some(row.clone());
            }
            for acc in &mut g.accs {
                acc.accumulate(&self.bindings, &row);
            }
        }
        // aggregates over empty, ungrouped input still yield one row
        // (count = 0, min/max/sum/avg = NULL)
        if self.groups.is_empty() && self.q.group_by.is_empty() {
            self.groups.push(GroupState { first_row: None, accs: self.templates.clone() });
        }
        Ok(())
    }
}

impl TupleOp for AggOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError> {
        if !self.consumed {
            self.consume(cx)?;
            self.consumed = true;
        }
        while self.emit < self.groups.len() {
            let g = &self.groups[self.emit];
            self.emit += 1;
            let finals: Vec<Result<Value, QueryError>> = g.accs.iter().map(Acc::finalize).collect();
            // non-aggregate columns take the group's first row (NULLs when
            // the group is the implicit empty one)
            let row0 =
                g.first_row.clone().unwrap_or_else(|| vec![Value::Null; self.bindings.width]);
            let ctx = Ctx::Row(&row0);
            if let Some(h) = &self.q.having {
                let e = subst(h, &self.registry, &finals)?;
                if !eval(&e, &self.bindings, &ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut vals = Vec::with_capacity(self.q.items.len());
            for item in &self.q.items {
                let e = subst(&item.expr, &self.registry, &finals)?;
                vals.push(eval(&e, &self.bindings, &ctx)?);
            }
            let mut sort_keys = Vec::with_capacity(self.q.order_by.len());
            for k in &self.q.order_by {
                // "ORDER BY output name" rule, same as the reference
                if let Expr::Column { table: None, name } = &k.expr {
                    if let Some(i) = self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
                    {
                        sort_keys.push(vals[i].clone());
                        continue;
                    }
                }
                let e = subst(&k.expr, &self.registry, &finals)?;
                sort_keys.push(eval(&e, &self.bindings, &ctx)?);
            }
            return Ok(Some((vals, sort_keys)));
        }
        Ok(None)
    }
}

/// `SELECT DISTINCT`: drop repeated projected rows, keeping first occurrence.
struct DistinctOp {
    input: Box<dyn TupleOp>,
    seen: HashSet<String>,
}

impl TupleOp for DistinctOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError> {
        while let Some((vals, keys)) = self.input.next(cx)? {
            let key: String = vals.iter().map(|v| format!("{v}\u{1}")).collect();
            if self.seen.insert(key) {
                return Ok(Some((vals, keys)));
            }
        }
        Ok(None)
    }
}

/// Buffering sort over the ORDER BY keys (stable, NULL-tolerant compare).
struct SortOp {
    input: Box<dyn TupleOp>,
    descending: Vec<bool>,
    #[allow(clippy::type_complexity)]
    sorted: Option<std::vec::IntoIter<(Vec<Value>, Vec<Value>)>>,
}

impl TupleOp for SortOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError> {
        if self.sorted.is_none() {
            let mut rows = Vec::new();
            while let Some(t) = self.input.next(cx)? {
                rows.push(t);
            }
            rows.sort_by(|(_, ka), (_, kb)| {
                for ((a, b), desc) in ka.iter().zip(kb).zip(&self.descending) {
                    // same total order as the reference executor's sort
                    let ord = a.total_cmp(b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.sorted = Some(rows.into_iter());
        }
        Ok(self.sorted.as_mut().expect("buffered above").next())
    }
}

/// Stop after `remaining` rows — enforced inside the pipeline, so upstream
/// operators are never pulled past the cap.
struct LimitOp {
    input: Box<dyn TupleOp>,
    remaining: usize,
}

impl TupleOp for LimitOp {
    fn next(&mut self, cx: &ExecCtx<'_>) -> Result<Option<(Vec<Value>, Vec<Value>)>, QueryError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next(cx)? {
            Some(t) => {
                self.remaining -= 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}

/// A fully built query pipeline: its output columns and the operator
/// [`run_query`] pulls rows from.
struct Pipeline {
    pub(crate) columns: Vec<String>,
    tail: Box<dyn TupleOp>,
}

impl Pipeline {
    /// Pull the next output row.
    fn next_row(&mut self, cx: &ExecCtx<'_>) -> Result<Option<Vec<Value>>, QueryError> {
        Ok(self.tail.next(cx)?.map(|(vals, _)| vals))
    }
}

/// Plan `q` and assemble its operator pipeline over `provider`.
fn build_pipeline(provider: &dyn TableProvider, q: &Query) -> Result<Pipeline, QueryError> {
    let (bindings, plan) = plan_query(q, provider)?;
    build_pipeline_planned(q, bindings, &plan)
}

fn build_pipeline_planned(
    q: &Query,
    bindings: Arc<Bindings>,
    plan: &Plan,
) -> Result<Pipeline, QueryError> {
    let grouped = !q.group_by.is_empty() || q.items.iter().any(|i| i.expr.contains_aggregate());
    if q.star && grouped {
        return Err(QueryError::Type("SELECT * cannot be grouped".to_string()));
    }
    let columns: Vec<String> = if q.star {
        bindings
            .tables
            .iter()
            .flat_map(|(b, s, _)| s.columns.iter().map(move |c| format!("{b}.{}", c.name)))
            .collect()
    } else {
        q.items.iter().map(item_name).collect()
    };

    let src: Box<dyn Op> = match plan.steps.split_first() {
        None => Box::new(EmptyRowOp { done: false }),
        Some((first, rest)) => {
            let mut cur: Box<dyn Op> = Box::new(ScanOp::new(first, Arc::clone(&bindings)));
            if !first.filters.is_empty() {
                cur = Box::new(FilterOp {
                    input: cur,
                    preds: first.filters.clone(),
                    bindings: Arc::clone(&bindings),
                });
            }
            for step in rest {
                cur = Box::new(NlJoinOp {
                    left: cur,
                    right: ScanOp::new(step, Arc::clone(&bindings)),
                    active: false,
                });
                if !step.filters.is_empty() {
                    cur = Box::new(FilterOp {
                        input: cur,
                        preds: step.filters.clone(),
                        bindings: Arc::clone(&bindings),
                    });
                }
            }
            cur
        }
    };

    let q = Arc::new(q.clone());
    let columns = Arc::new(columns);
    let mut tail: Box<dyn TupleOp> = if grouped {
        Box::new(AggOp::new(src, Arc::clone(&q), Arc::clone(&bindings), Arc::clone(&columns)))
    } else {
        Box::new(ProjectOp {
            input: src,
            q: Arc::clone(&q),
            bindings: Arc::clone(&bindings),
            columns: Arc::clone(&columns),
        })
    };
    if q.distinct {
        tail = Box::new(DistinctOp { input: tail, seen: HashSet::new() });
    }
    if !q.order_by.is_empty() {
        tail = Box::new(SortOp {
            input: tail,
            descending: q.order_by.iter().map(|k| k.descending).collect(),
            sorted: None,
        });
    }
    if let Some(n) = q.limit {
        tail = Box::new(LimitOp { input: tail, remaining: n });
    }
    Ok(Pipeline { columns: Arc::unwrap_or_clone(columns), tail })
}

/// Run a parsed query through the Volcano pipeline, materializing the result.
pub fn run_query(provider: &dyn TableProvider, q: &Query) -> Result<ResultSet, QueryError> {
    let mut pipe = build_pipeline(provider, q)?;
    let cx = ExecCtx { provider };
    let mut rows = Vec::new();
    while let Some(row) = pipe.next_row(&cx)? {
        rows.push(row);
    }
    Ok(ResultSet { columns: pipe.columns, rows })
}

/// Build the `EXPLAIN` result for `q`: one `plan` column, one row per line
/// of the rendered operator tree.
pub fn explain_query(provider: &dyn TableProvider, q: &Query) -> Result<ResultSet, QueryError> {
    let (_, plan) = plan_query(q, provider)?;
    let rows = explain_lines(q, &plan).into_iter().map(|l| vec![Value::Text(l)]).collect();
    Ok(ResultSet { columns: vec!["plan".to_string()], rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use crate::sql::reference::execute_query;
    use crate::storage::PagedDb;
    use crate::table::Schema;
    use crate::value::ValueType;

    /// Mirrored fixture: the same rows in an index-free and an indexed
    /// `PagedDb`.
    fn fixtures() -> (PagedDb, PagedDb) {
        let emp = Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("dept", ValueType::Text),
            ("salary", ValueType::Float),
        ]);
        let dept = Schema::new(&[("dname", ValueType::Text), ("floor", ValueType::Int)]);
        let mut db = PagedDb::in_memory();
        let mut pg = PagedDb::in_memory();
        db.create_table("emp", emp.clone()).unwrap();
        db.create_table("dept", dept.clone()).unwrap();
        pg.create_table("emp", emp).unwrap();
        pg.create_table("dept", dept).unwrap();
        pg.create_index("emp", "ix_emp_id", &["id"]).unwrap();
        pg.create_index("emp", "ix_emp_dept", &["dept"]).unwrap();
        pg.create_index("emp", "ix_emp_dept_salary", &["dept", "salary"]).unwrap();
        pg.create_index("emp", "ix_emp_salary", &["salary"]).unwrap();
        pg.create_index("dept", "ix_dept_dname", &["dname"]).unwrap();
        let rows = [
            (1, "ann", "eng", 100.0),
            (2, "bob", "eng", 80.0),
            (3, "cid", "ops", 60.0),
            (4, "dee", "ops", 70.0),
            (5, "eve", "mgmt", 150.0),
            (6, "fay", "eng", 80.0),
        ];
        for (id, name, dp, sal) in rows {
            let row = vec![Value::Int(id), Value::from(name), Value::from(dp), Value::Float(sal)];
            db.insert("emp", row.clone()).unwrap();
            pg.insert("emp", row).unwrap();
        }
        for (d, f) in [("eng", 3), ("ops", 1), ("mgmt", 9)] {
            let row = vec![Value::from(d), Value::Int(f)];
            db.insert("dept", row.clone()).unwrap();
            pg.insert("dept", row).unwrap();
        }
        (db, pg)
    }

    /// Assert the reference, the pipeline over the index-free store and the
    /// pipeline over the indexed one all return identical results for `sql`.
    fn check(sql: &str) {
        let (db, pg) = fixtures();
        let q = parse(sql).unwrap();
        let reference = execute_query(&db, &q).unwrap();
        let v_plain = run_query(&db, &q).unwrap();
        let v_indexed = run_query(&pg, &q).unwrap();
        assert_eq!(reference, v_plain, "volcano/index-free diverged: {sql}");
        assert_eq!(reference, v_indexed, "volcano/indexed diverged: {sql}");
    }

    #[test]
    fn parity_on_representative_queries() {
        for sql in [
            "SELECT * FROM emp",
            "SELECT name FROM emp WHERE dept = 'eng' ORDER BY name",
            "SELECT name FROM emp WHERE dept = 'eng' AND salary = 80 ORDER BY id",
            "SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.dname ORDER BY e.id",
            "SELECT dept, count(*) AS n, avg(salary) FROM emp GROUP BY dept ORDER BY n DESC, dept",
            "SELECT count(*), min(salary), max(salary) FROM emp WHERE salary > 75",
            "SELECT DISTINCT dept FROM emp ORDER BY dept",
            "SELECT name FROM emp WHERE salary >= 70 AND salary <= 100 ORDER BY salary, name",
            "SELECT name FROM emp WHERE salary BETWEEN 60 AND 80 ORDER BY id",
            "SELECT count(*) FROM emp WHERE salary > 1000",
            "SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept",
            "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2",
            "SELECT upper(name) FROM emp WHERE id = 3",
            "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname AND d.floor > 2 ORDER BY e.id",
            "SELECT count(*) FROM emp WHERE dept IN ('eng', 'mgmt')",
            "SELECT name FROM emp WHERE name LIKE '%e%' ORDER BY name",
        ] {
            check(sql);
        }
    }

    #[test]
    fn index_eq_lookup_is_chosen_and_correct() {
        let (_, pg) = fixtures();
        let q = parse("SELECT name FROM emp WHERE dept = 'eng' ORDER BY id").unwrap();
        let (_, plan) = plan_query(&q, &pg).unwrap();
        match &plan.steps[0].access {
            Access::IndexEq { index, key, .. } => {
                assert!(index.starts_with("ix_emp_dept"), "{index}");
                assert_eq!(key[0], Value::from("eng"));
            }
            other => panic!("expected IndexEq, got {other:?}"),
        }
        // longest prefix: dept + salary eq → two-column index wins
        let q2 = parse("SELECT name FROM emp WHERE dept = 'eng' AND salary = 80").unwrap();
        let (_, plan2) = plan_query(&q2, &pg).unwrap();
        match &plan2.steps[0].access {
            Access::IndexEq { index, key, .. } => {
                assert_eq!(index, "ix_emp_dept_salary");
                assert_eq!(key.len(), 2);
            }
            other => panic!("expected two-column IndexEq, got {other:?}"),
        }
    }

    #[test]
    fn index_range_is_chosen_for_inequalities() {
        let (_, pg) = fixtures();
        let q = parse("SELECT name FROM emp WHERE salary >= 80 AND salary < 120").unwrap();
        let (_, plan) = plan_query(&q, &pg).unwrap();
        match &plan.steps[0].access {
            Access::IndexRange { index, lo, hi, .. } => {
                assert_eq!(index, "ix_emp_salary");
                assert_eq!(lo, &Some((Value::Int(80), true)));
                assert_eq!(hi, &Some((Value::Int(120), false)));
            }
            other => panic!("expected IndexRange, got {other:?}"),
        }
    }

    #[test]
    fn join_probes_through_the_index() {
        let (_, pg) = fixtures();
        let q =
            parse("SELECT e.name FROM dept d, emp e WHERE e.dept = d.dname ORDER BY e.id").unwrap();
        let (_, plan) = plan_query(&q, &pg).unwrap();
        assert!(matches!(plan.steps[0].access, Access::SeqScan));
        match &plan.steps[1].access {
            Access::IndexProbe { index, .. } => {
                assert!(index.starts_with("ix_emp_dept"), "{index}")
            }
            other => panic!("expected IndexProbe, got {other:?}"),
        }
    }

    #[test]
    fn filters_are_never_dropped_by_index_selection() {
        let (_, pg) = fixtures();
        let q = parse("SELECT name FROM emp WHERE dept = 'eng' AND salary = 80").unwrap();
        let (_, plan) = plan_query(&q, &pg).unwrap();
        // both conjuncts remain as filters even though the index consumed both
        assert_eq!(plan.steps[0].filters.len(), 2);
    }

    #[test]
    fn explain_renders_the_tree() {
        let (_, pg) = fixtures();
        let q = parse(
            "SELECT e.dept, count(*) FROM emp e, dept d WHERE e.dept = d.dname \
             GROUP BY e.dept ORDER BY e.dept LIMIT 10",
        )
        .unwrap();
        let r = explain_query(&pg, &q).unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Limit 10"), "{joined}");
        assert!(joined.contains("Sort"), "{joined}");
        assert!(joined.contains("StreamingAggregate"), "{joined}");
        assert!(joined.contains("NestedLoopJoin"), "{joined}");
        assert!(joined.contains("IndexProbe dept"), "{joined}");
    }

    #[test]
    fn pipeline_streams_without_full_materialization() {
        let (db, _) = fixtures();
        let q = parse("SELECT name FROM emp").unwrap();
        let mut pipe = build_pipeline(&db, &q).unwrap();
        let cx = ExecCtx { provider: &db };
        // pull two rows and stop: a pipeline yields rows as pulled, not
        // after a full materialization, and can be dropped mid-stream
        assert!(pipe.next_row(&cx).unwrap().is_some());
        assert!(pipe.next_row(&cx).unwrap().is_some());
    }

    #[test]
    fn limit_zero_short_circuits() {
        let (db, _) = fixtures();
        let q = parse("SELECT name FROM emp LIMIT 0").unwrap();
        let r = run_query(&db, &q).unwrap();
        assert!(r.rows.is_empty());
    }
}
