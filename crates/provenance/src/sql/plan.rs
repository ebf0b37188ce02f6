//! Query planner: access-path selection for the Volcano executor.
//!
//! The planner keeps the reference executor's join order (FROM order) and
//! predicate placement (each WHERE conjunct attaches to the earliest join
//! step where all its columns are bound), then picks an access path per
//! table:
//!
//! 1. **Index eq / probe** — the index with the longest prefix of columns
//!    covered by equality conjuncts whose other side is bound *before* this
//!    step (ties → first index in catalog order). All-literal keys become a
//!    static [`Access::IndexEq`]; keys referencing outer columns become an
//!    [`Access::IndexProbe`] re-evaluated per outer row.
//! 2. **Index range** — a literal `<`/`<=`/`>`/`>=`/`BETWEEN` bound on the
//!    first column of an index.
//! 3. **Sequential scan** otherwise.
//!
//! Safety doctrine: index access may return a *superset* of matches (key
//! truncation widens bounds — see [`crate::storage::keys`]), so the planner
//! never removes a conjunct it consumed: every conjunct is re-applied as a
//! filter. Index selection is purely an optimization; correctness only
//! requires the access path to never *miss* a true match.

use std::sync::Arc;

use crate::storage::{IndexMeta, TableProvider};
use crate::value::Value;

use super::ast::{BinOp, Expr, Query};
use super::expr::{conjuncts, Bindings, QueryError};

/// How one table of the join is read.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Full scan in rowid (insertion) order.
    SeqScan,
    /// Exact-match lookup on an eq-prefix of an index, key known at plan time.
    IndexEq {
        /// Index name.
        index: String,
        /// Indexed columns covered by the key (prefix of the index columns).
        columns: Vec<String>,
        /// Literal key values, one per covered column.
        key: Vec<Value>,
    },
    /// Eq-prefix lookup whose key is evaluated against the outer row of the
    /// join on every probe (an index nested-loop join).
    IndexProbe {
        /// Index name.
        index: String,
        /// Indexed columns covered by the key.
        columns: Vec<String>,
        /// Key expressions, bound over the preceding join steps.
        key_exprs: Vec<Expr>,
    },
    /// Range scan on the first column of an index, literal bounds.
    IndexRange {
        /// Index name.
        index: String,
        /// The bounded column (first column of the index).
        column: String,
        /// Lower bound `(value, inclusive)`.
        lo: Option<(Value, bool)>,
        /// Upper bound `(value, inclusive)`.
        hi: Option<(Value, bool)>,
    },
}

/// One join step: read `table` via `access`, keep rows passing `filters`.
#[derive(Debug, Clone)]
pub struct TableStep {
    /// Catalog table name.
    pub table: String,
    /// Binding name (alias or table name).
    pub binding: String,
    /// Chosen access path.
    pub access: Access,
    /// Conjuncts first fully bound at this step — **all** of them, including
    /// any the access path consumed (superset pre-filter doctrine).
    pub filters: Vec<Expr>,
}

/// A planned query: join steps in FROM order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Join pipeline, one step per FROM table.
    pub steps: Vec<TableStep>,
}

/// Column bindings + plan for `q` over `provider`.
pub(crate) fn plan_query(
    q: &Query,
    provider: &dyn TableProvider,
) -> Result<(Arc<Bindings>, Plan), QueryError> {
    let mut tables = Vec::new();
    let mut offset = 0usize;
    for tr in &q.from {
        let schema = provider.schema_of(&tr.name)?;
        tables.push((tr.binding().to_string(), schema.clone(), offset));
        offset += schema.arity();
    }
    let bindings = Arc::new(Bindings { tables, width: offset });

    // assign each conjunct to the earliest join step where it is fully bound
    // (mirrors the reference executor exactly, including the "unresolvable
    // predicates evaluate last" rule)
    let preds: Vec<&Expr> = q.where_clause.as_ref().map(conjuncts).unwrap_or_default();
    let mut pred_at: Vec<Vec<Expr>> = vec![Vec::new(); q.from.len() + 1];
    for p in preds {
        match (1..=q.from.len()).find(|&n| bindings.expr_bound(p, n)) {
            Some(n) => pred_at[n].push(p.clone()),
            None => pred_at[q.from.len()].push(p.clone()),
        }
    }

    let mut steps = Vec::with_capacity(q.from.len());
    for (n, tr) in q.from.iter().enumerate() {
        let filters = std::mem::take(&mut pred_at[n + 1]);
        let indexes = provider.indexes_of(&tr.name);
        let access = choose_access(&bindings, n, &filters, &indexes);
        steps.push(TableStep {
            table: tr.name.clone(),
            binding: tr.binding().to_string(),
            access,
            filters,
        });
    }
    Ok((bindings, Plan { steps }))
}

/// An equality candidate on one column of the current table.
struct EqCand {
    col: usize,
    rhs: Expr,
}

/// Is `e` this step's column? Returns its column index within the table.
fn own_column(b: &Bindings, step: usize, e: &Expr) -> Option<usize> {
    let Expr::Column { table, name } = e else { return None };
    let (_, schema, off) = &b.tables[step];
    let flat = b.resolve(table.as_deref(), name).ok()?;
    if flat >= *off && flat < off + schema.arity() {
        Some(flat - off)
    } else {
        None
    }
}

fn choose_access(b: &Bindings, step: usize, filters: &[Expr], indexes: &[IndexMeta]) -> Access {
    if indexes.is_empty() {
        return Access::SeqScan;
    }
    let (_, schema, _) = &b.tables[step];

    // equality candidates: `col = rhs` / `rhs = col` with rhs bound over the
    // *previous* steps (literals qualify — they are bound over zero tables)
    let mut eqs: Vec<EqCand> = Vec::new();
    for f in filters {
        if let Expr::Binary { op: BinOp::Eq, lhs, rhs } = f {
            for (c, r) in [(lhs, rhs), (rhs, lhs)] {
                if let Some(col) = own_column(b, step, c) {
                    if b.expr_bound(r, step) {
                        eqs.push(EqCand { col, rhs: (**r).clone() });
                    }
                }
            }
        }
    }

    // pick the index with the longest eq-covered prefix (tie → first index);
    // per column prefer a literal rhs so the access can be static
    let mut best: Option<(usize, &IndexMeta, Vec<&EqCand>)> = None;
    for ix in indexes {
        let mut chosen = Vec::new();
        for col_name in &ix.columns {
            let Some(ci) = schema.index_of(col_name) else { break };
            let cand = eqs
                .iter()
                .filter(|e| e.col == ci)
                .max_by_key(|e| matches!(e.rhs, Expr::Literal(_)));
            match cand {
                Some(c) => chosen.push(c),
                None => break,
            }
        }
        if !chosen.is_empty() && best.as_ref().is_none_or(|(n, _, _)| chosen.len() > *n) {
            best = Some((chosen.len(), ix, chosen));
        }
    }
    if let Some((n, ix, chosen)) = best {
        let columns = ix.columns[..n].to_vec();
        if chosen.iter().all(|c| matches!(c.rhs, Expr::Literal(_))) {
            let key = chosen
                .iter()
                .map(|c| match &c.rhs {
                    Expr::Literal(v) => v.clone(),
                    _ => unreachable!("all-literal checked above"),
                })
                .collect();
            return Access::IndexEq { index: ix.name.clone(), columns, key };
        }
        return Access::IndexProbe {
            index: ix.name.clone(),
            columns,
            key_exprs: chosen.into_iter().map(|c| c.rhs.clone()).collect(),
        };
    }

    // range on the first column of some index, literal bounds only
    for ix in indexes {
        let Some(ci) = ix.columns.first().and_then(|c| schema.index_of(c)) else { continue };
        let mut lo: Option<(Value, bool)> = None;
        let mut hi: Option<(Value, bool)> = None;
        for f in filters {
            match f {
                Expr::Binary { op, lhs, rhs }
                    if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) =>
                {
                    // normalize to `col OP literal`
                    let (lit_side, op) = if own_column(b, step, lhs) == Some(ci) {
                        (rhs, *op)
                    } else if own_column(b, step, rhs) == Some(ci) {
                        (lhs, flip(*op))
                    } else {
                        continue;
                    };
                    let Expr::Literal(v) = &**lit_side else { continue };
                    match op {
                        BinOp::Gt => lo.get_or_insert((v.clone(), false)),
                        BinOp::GtEq => lo.get_or_insert((v.clone(), true)),
                        BinOp::Lt => hi.get_or_insert((v.clone(), false)),
                        BinOp::LtEq => hi.get_or_insert((v.clone(), true)),
                        _ => unreachable!(),
                    };
                }
                Expr::Between { expr, lo: l, hi: h, negated: false }
                    if own_column(b, step, expr) == Some(ci) =>
                {
                    if let (Expr::Literal(lv), Expr::Literal(hv)) = (&**l, &**h) {
                        lo.get_or_insert((lv.clone(), true));
                        hi.get_or_insert((hv.clone(), true));
                    }
                }
                _ => {}
            }
        }
        if lo.is_some() || hi.is_some() {
            return Access::IndexRange {
                index: ix.name.clone(),
                column: ix.columns[0].clone(),
                lo,
                hi,
            };
        }
    }
    Access::SeqScan
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Render `plan` (plus the query's tail shape) as one text line per row,
/// the payload of `EXPLAIN <query>`.
pub fn explain_lines(q: &Query, plan: &Plan) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(n) = q.limit {
        out.push(format!("Limit {n}"));
    }
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|k| format!("{:?}{}", kind_of(&k.expr), if k.descending { " DESC" } else { "" }))
            .collect();
        out.push(format!("Sort [{}]", keys.join(", ")));
    }
    if q.distinct {
        out.push("Distinct".to_string());
    }
    let grouped = !q.group_by.is_empty() || q.items.iter().any(|i| i.expr.contains_aggregate());
    if grouped {
        out.push(format!("StreamingAggregate ({} key(s))", q.group_by.len()));
    }
    out.push("Project".to_string());
    if plan.steps.is_empty() {
        out.push("  Values (1 empty row)".to_string());
    } else {
        render_join(&plan.steps, 1, &mut out);
    }
    out
}

/// Render the left-deep join tree: `steps[..n-1]` is the outer input of the
/// join with `steps[n-1]`.
fn render_join(steps: &[TableStep], depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    if steps.len() == 1 {
        out.push(format!("{pad}{}", step_line(&steps[0])));
        return;
    }
    out.push(format!("{pad}NestedLoopJoin"));
    render_join(&steps[..steps.len() - 1], depth + 1, out);
    out.push(format!("{}{}", "  ".repeat(depth + 1), step_line(&steps[steps.len() - 1])));
}

fn step_line(step: &TableStep) -> String {
    let filters = if step.filters.is_empty() {
        String::new()
    } else {
        format!("  [{} filter(s)]", step.filters.len())
    };
    match &step.access {
        Access::SeqScan => format!("SeqScan {} AS {}{}", step.table, step.binding, filters),
        Access::IndexEq { index, columns, .. } => format!(
            "IndexScan {} AS {} USING {} ({} =){}",
            step.table,
            step.binding,
            index,
            columns.join(", "),
            filters
        ),
        Access::IndexProbe { index, columns, .. } => format!(
            "IndexProbe {} AS {} USING {} ({} =){}",
            step.table,
            step.binding,
            index,
            columns.join(", "),
            filters
        ),
        Access::IndexRange { index, column, lo, hi } => {
            let mut range = Vec::new();
            if let Some((v, inc)) = lo {
                range.push(format!("{column} >{} {v}", if *inc { "=" } else { "" }));
            }
            if let Some((v, inc)) = hi {
                range.push(format!("{column} <{} {v}", if *inc { "=" } else { "" }));
            }
            format!(
                "IndexRange {} AS {} USING {} ({}){}",
                step.table,
                step.binding,
                index,
                range.join(" AND "),
                filters
            )
        }
    }
}

fn kind_of(e: &Expr) -> &'static str {
    match e {
        Expr::Column { .. } => "col",
        Expr::Literal(_) => "lit",
        Expr::Call { .. } | Expr::CountStar => "call",
        _ => "expr",
    }
}
