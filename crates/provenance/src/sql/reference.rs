//! The tree-walking reference executor, and the property that holds the
//! shipped Volcano pipeline to it.
//!
//! [`execute_query`] materializes every FROM table through
//! [`TableProvider::scan_batch`], joins them in FROM order with each WHERE
//! conjunct applied at the first step where all its columns are bound,
//! then groups, projects, deduplicates, sorts and truncates whole
//! vectors. It shares the expression layer ([`super::expr`]) with the
//! pipeline but none of its planning or operators, so it is the oracle:
//! for every query the pipeline must return identical columns and rows in
//! identical order, or refuse it with the same error.

use std::collections::{HashMap, HashSet};

use crate::storage::TableProvider;
use crate::value::Value;

use super::ast::{Expr, Query};
use super::expr::{conjuncts, eval, item_name, order_keys, Bindings, Ctx, QueryError, ResultSet};

/// Every row of `table`, in rowid order.
fn scan_all(provider: &dyn TableProvider, table: &str) -> Result<Vec<Vec<Value>>, QueryError> {
    let (mut pos, mut rows) = (0u64, Vec::new());
    loop {
        let before = rows.len();
        provider.scan_batch(table, &mut pos, 256, &mut rows)?;
        if rows.len() == before {
            return Ok(rows);
        }
    }
}

/// The aggregate call `name(args)` over the rows of one group.
pub(super) fn aggregate(
    name: &str,
    args: &[Expr],
    b: &Bindings,
    rows: &[&Vec<Value>],
) -> Result<Value, QueryError> {
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
    let lower = name.to_ascii_lowercase();
    if lower == "count" {
        return Ok(Value::Int(vals.len() as i64));
    }
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    match lower.as_str() {
        "min" => Ok(vals
            .into_iter()
            .reduce(|a, b| if a.compare(&b).is_none_or(|o| o.is_le()) { a } else { b })
            .unwrap_or(Value::Null)),
        "max" => Ok(vals
            .into_iter()
            .reduce(|a, b| if a.compare(&b).is_none_or(|o| o.is_ge()) { a } else { b })
            .unwrap_or(Value::Null)),
        "sum" | "avg" => {
            let mut s = 0.0;
            for v in &vals {
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

/// Execute a parsed query by walking it (see the module docs).
pub(crate) fn execute_query(
    provider: &dyn TableProvider,
    q: &Query,
) -> Result<ResultSet, QueryError> {
    // bind FROM tables
    let mut tables = Vec::new();
    let mut offset = 0usize;
    for tr in &q.from {
        let schema = provider.schema_of(&tr.name)?;
        let arity = schema.arity();
        tables.push((tr.binding().to_string(), schema, offset));
        offset += arity;
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
        let rows = scan_all(provider, &tr.name)?;
        let mut next = Vec::new();
        for base in &joined {
            for row in &rows {
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
        if q.group_by.is_empty() {
            // one implicit group, even over empty input (count = 0, others NULL)
            groups.insert(String::new(), joined.iter().collect());
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
        let mut seen = HashSet::new();
        out_rows.retain(|(vals, _)| {
            let key: String = vals.iter().map(|v| format!("{v}\u{1}")).collect();
            seen.insert(key)
        });
    }
    if !q.order_by.is_empty() {
        out_rows.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), spec) in ka.iter().zip(kb).zip(&q.order_by) {
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

/// The three-engine parity property:
///
/// 1. [`execute_query`] over an index-free [`PagedDb`],
/// 2. the Volcano pipeline over that same store (the planner picks
///    `SeqScan` everywhere — no indexes exist),
/// 3. the Volcano pipeline over a mirror with B+tree indexes (the planner
///    picks `IndexScan`/`IndexRange`/`IndexProbe` where it can)
///
/// must agree on every query: identical columns, identical rows in
/// identical order, or the same refusal to run. Random tables × random
/// queries; any divergence is a planner or executor bug by construction
/// (index access paths may over-approximate but never drop rows, and the
/// executor re-applies every predicate).
mod tests {
    use proptest::prelude::*;

    use super::execute_query;
    use crate::sql::{parse, run_query};
    use crate::storage::{PagedDb, TableProvider};
    use crate::table::Schema;
    use crate::value::{Value, ValueType};

    fn schema_t() -> Schema {
        Schema::new(&[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("val", ValueType::Float),
            ("name", ValueType::Text),
            ("flag", ValueType::Bool),
        ])
    }

    fn schema_u() -> Schema {
        Schema::new(&[("gid", ValueType::Int), ("label", ValueType::Text)])
    }

    /// Raw material for one `t` row: `(id, grp, val_num, name, nulls, flag)`.
    /// `grp` comes from a small domain so joins and GROUP BY produce real
    /// collisions; the `nulls` selector makes `val`/`name` NULL on some rows to
    /// exercise three-valued logic on every path.
    type TRowSeed = (i64, i64, i64, String, u8, u8);

    fn t_row(seed: &TRowSeed) -> Vec<Value> {
        let (id, grp, val_num, name, nulls, flag) = seed;
        let val = if nulls % 4 == 0 { Value::Null } else { Value::Float(*val_num as f64 / 4.0) };
        let name = if nulls / 4 == 0 { Value::Null } else { Value::from(name.as_str()) };
        vec![Value::Int(*id), Value::Int(*grp), val, name, Value::Bool(flag % 2 == 0)]
    }

    /// The same rows in an index-free store and in an indexed mirror.
    fn mirrored(t_rows: &[Vec<Value>], u_rows: &[Vec<Value>]) -> (PagedDb, PagedDb) {
        let fill = || {
            let mut db = PagedDb::in_memory();
            db.create_table("t", schema_t()).unwrap();
            db.create_table("u", schema_u()).unwrap();
            for r in t_rows {
                db.insert("t", r.clone()).unwrap();
            }
            for r in u_rows {
                db.insert("u", r.clone()).unwrap();
            }
            db
        };
        let (plain, mut pg) = (fill(), fill());
        // indexes over every interesting column shape: unique int, low-cardinality
        // int, nullable float, nullable text, composite
        pg.create_index("t", "ix_t_id", &["id"]).unwrap();
        pg.create_index("t", "ix_t_grp", &["grp"]).unwrap();
        pg.create_index("t", "ix_t_val", &["val"]).unwrap();
        pg.create_index("t", "ix_t_name", &["name"]).unwrap();
        pg.create_index("t", "ix_t_grp_id", &["grp", "id"]).unwrap();
        pg.create_index("u", "ix_u_gid", &["gid"]).unwrap();
        (plain, pg)
    }

    const ITEMS: [&str; 7] = [
        "*",
        "t.id, t.grp",
        "t.grp, count(*)",
        "t.grp, count(t.val), min(t.name), max(t.id)",
        "sum(t.val), avg(t.id)",
        "t.name",
        "t.id, t.val, t.flag",
    ];

    /// One WHERE conjunct from its raw material `(kind, int key, text key)`.
    /// Kinds cover index-eligible equalities and ranges on every indexed column
    /// plus non-sargable shapes the planner must leave to the filter.
    fn conjunct((kind, k, s): &(usize, i64, String)) -> String {
        match kind % 11 {
            0 => format!("t.id = {}", k % 64),
            1 => format!("t.grp = {}", k % 6),
            2 => format!("t.val >= {}", (k % 30) as f64 / 4.0),
            3 => format!("t.val < {}", (k % 30) as f64 / 4.0),
            4 => format!("t.name <= '{s}'"),
            5 => format!("t.name = '{s}'"),
            6 => "t.flag = TRUE".to_string(),
            7 => "t.name IS NOT NULL".to_string(),
            8 => format!("t.id >= {}", k % 64),
            9 => format!("t.id < {}", k % 64),
            // arithmetic on the column defeats every index
            _ => format!("t.id + 1 > {}", k % 12),
        }
    }

    /// Assemble a random query from index-selected parts, covering every
    /// operator in the pipeline: filters, joins, grouped and ungrouped
    /// aggregates, HAVING, DISTINCT, ORDER BY, LIMIT.
    #[allow(clippy::too_many_arguments)]
    fn make_sql(
        item_ix: usize,
        join_ix: usize,
        wh: &[(usize, i64, String)],
        group_ix: usize,
        having_ix: usize,
        distinct_ix: usize,
        order_ix: usize,
        limit_ix: usize,
    ) -> String {
        let items = ITEMS[item_ix % ITEMS.len()];
        let mut conjs: Vec<String> = wh.iter().map(conjunct).collect();
        let from = if join_ix.is_multiple_of(4) {
            conjs.insert(0, "t.grp = u.gid".to_string());
            "t, u"
        } else {
            "t"
        };
        let wh = if conjs.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conjs.join(" AND "))
        };
        let group = if group_ix.is_multiple_of(3) { " GROUP BY t.grp" } else { "" };
        let having = if !group.is_empty() && having_ix.is_multiple_of(4) {
            " HAVING count(*) >= 2"
        } else {
            ""
        };
        let distinct = if distinct_ix.is_multiple_of(5) { "DISTINCT " } else { "" };
        let order =
            ["", " ORDER BY t.id", " ORDER BY t.grp DESC, t.id", " ORDER BY t.name"][order_ix % 4];
        let limit = if limit_ix.is_multiple_of(3) {
            format!(" LIMIT {}", limit_ix / 3)
        } else {
            String::new()
        };
        format!("SELECT {distinct}{items} FROM {from}{wh}{group}{having}{order}{limit}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn three_engines_agree_on_random_queries(
            t_seeds in prop::collection::vec(
                (0i64..64, 0i64..6, -100i64..100, "[a-c]{0,3}", 0u8..16, 0u8..2), 0..40),
            u_seeds in prop::collection::vec((0i64..6, "[x-z]{1,2}"), 0..8),
            wh in prop::collection::vec((0usize..11, 0i64..1024, "[a-c]{0,2}"), 0..3),
            shape in (0usize..64, 0usize..64, 0usize..64, 0usize..64, 0usize..64, 0usize..64),
        ) {
            let t_rows: Vec<Vec<Value>> = t_seeds.iter().map(t_row).collect();
            let u_rows: Vec<Vec<Value>> = u_seeds
                .iter()
                .map(|(gid, label)| vec![Value::Int(*gid), Value::from(label.as_str())])
                .collect();
            let (plain, pg) = mirrored(&t_rows, &u_rows);
            let (item_ix, join_ix, group_ix, having_ix, distinct_ix, order_limit) = shape;
            let sql = make_sql(
                item_ix, join_ix, &wh, group_ix, having_ix, distinct_ix,
                order_limit, order_limit / 4,
            );
            let q = parse(&sql).expect("generated SQL parses");

            let reference = execute_query(&plain, &q);
            let volcano_plain = run_query(&plain, &q);
            let volcano_indexed = run_query(&pg, &q);

            match (&reference, &volcano_plain, &volcano_indexed) {
                (Ok(a), Ok(b), Ok(c)) => {
                    prop_assert_eq!(&a.columns, &b.columns, "columns (plain) for {}", sql);
                    prop_assert_eq!(&a.rows, &b.rows, "rows (plain) for {}", sql);
                    prop_assert_eq!(&a.columns, &c.columns, "columns (indexed) for {}", sql);
                    prop_assert_eq!(&a.rows, &c.rows, "rows (indexed) for {}", sql);
                }
                (Err(ea), Err(eb), Err(ec)) => {
                    // engines must refuse the same queries; message equality
                    // pins the error down to the same cause
                    prop_assert_eq!(ea.to_string(), eb.to_string(), "error (plain) for {}", sql);
                    prop_assert_eq!(ea.to_string(), ec.to_string(), "error (indexed) for {}", sql);
                }
                _ => prop_assert!(
                    false,
                    "engines disagree on success for {}: reference {:?} plain {:?} indexed {:?}",
                    sql,
                    reference.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
                    volcano_plain.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
                    volcano_indexed.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
                ),
            }
        }

        /// The paged store's structural invariants survive arbitrary insert
        /// orders (B+tree splits at every shape the rows can force).
        #[test]
        fn paged_integrity_holds_for_random_tables(
            t_seeds in prop::collection::vec(
                (0i64..64, 0i64..6, -100i64..100, "[a-c]{0,3}", 0u8..16, 0u8..2), 0..80),
            u_seeds in prop::collection::vec((0i64..6, "[x-z]{1,2}"), 0..20),
        ) {
            let t_rows: Vec<Vec<Value>> = t_seeds.iter().map(t_row).collect();
            let u_rows: Vec<Vec<Value>> = u_seeds
                .iter()
                .map(|(gid, label)| vec![Value::Int(*gid), Value::from(label.as_str())])
                .collect();
            let (_, pg) = mirrored(&t_rows, &u_rows);
            if let Err(e) = pg.verify_integrity() {
                prop_assert!(false, "integrity violated: {}", e);
            }
            // and every row is there
            prop_assert_eq!(pg.row_count("t").unwrap(), t_rows.len() as u64);
            prop_assert_eq!(pg.row_count("u").unwrap(), u_rows.len() as u64);
        }
    }
}
