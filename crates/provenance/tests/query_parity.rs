//! Property tests for the three-engine query-parity invariant:
//!
//! 1. the reference tree-walking executor over the in-memory [`Database`],
//! 2. the Volcano pipeline over the same [`Database`] (planner picks
//!    `SeqScan` everywhere — no indexes exist),
//! 3. the Volcano pipeline over a [`PagedDb`] mirror with B+tree indexes
//!    (planner picks `IndexScan`/`IndexRange`/`IndexProbe` where it can)
//!
//! must agree on every query: identical columns, identical rows in
//! identical order, or the same refusal to run. Random tables × random
//! queries; any divergence is a planner or executor bug by construction
//! (index access paths may over-approximate but never drop rows, and the
//! executor re-applies every predicate).

use proptest::prelude::*;

use provenance::sql::{execute_query, parse, run_query};
use provenance::storage::{PagedDb, TableProvider};
use provenance::{Database, Schema, Value, ValueType};

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

/// Mirror the same rows into the reference store and an indexed paged store.
fn mirrored(t_rows: &[Vec<Value>], u_rows: &[Vec<Value>]) -> (Database, PagedDb) {
    let mut db = Database::new();
    db.create_table("t", schema_t()).unwrap();
    db.create_table("u", schema_u()).unwrap();
    let mut pg = PagedDb::in_memory();
    pg.create_table("t", schema_t()).unwrap();
    pg.create_table("u", schema_u()).unwrap();
    for r in t_rows {
        db.insert("t", r.clone()).unwrap();
        pg.insert("t", r.clone()).unwrap();
    }
    for r in u_rows {
        db.insert("u", r.clone()).unwrap();
        pg.insert("u", r.clone()).unwrap();
    }
    // indexes over every interesting column shape: unique int, low-cardinality
    // int, nullable float, nullable text, composite
    pg.create_index("t", "ix_t_id", &["id"]).unwrap();
    pg.create_index("t", "ix_t_grp", &["grp"]).unwrap();
    pg.create_index("t", "ix_t_val", &["val"]).unwrap();
    pg.create_index("t", "ix_t_name", &["name"]).unwrap();
    pg.create_index("t", "ix_t_grp_id", &["grp", "id"]).unwrap();
    pg.create_index("u", "ix_u_gid", &["gid"]).unwrap();
    (db, pg)
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
    let wh =
        if conjs.is_empty() { String::new() } else { format!(" WHERE {}", conjs.join(" AND ")) };
    let group = if group_ix.is_multiple_of(3) { " GROUP BY t.grp" } else { "" };
    let having =
        if !group.is_empty() && having_ix.is_multiple_of(4) { " HAVING count(*) >= 2" } else { "" };
    let distinct = if distinct_ix.is_multiple_of(5) { "DISTINCT " } else { "" };
    let order =
        ["", " ORDER BY t.id", " ORDER BY t.grp DESC, t.id", " ORDER BY t.name"][order_ix % 4];
    let limit =
        if limit_ix.is_multiple_of(3) { format!(" LIMIT {}", limit_ix / 3) } else { String::new() };
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
        let (db, pg) = mirrored(&t_rows, &u_rows);
        let (item_ix, join_ix, group_ix, having_ix, distinct_ix, order_limit) = shape;
        let sql = make_sql(
            item_ix, join_ix, &wh, group_ix, having_ix, distinct_ix,
            order_limit, order_limit / 4,
        );
        let q = parse(&sql).expect("generated SQL parses");

        let reference = execute_query(&db, &q);
        let volcano_mem = run_query(&db as &dyn TableProvider, &q);
        let volcano_paged = run_query(&pg as &dyn TableProvider, &q);

        match (&reference, &volcano_mem, &volcano_paged) {
            (Ok(a), Ok(b), Ok(c)) => {
                prop_assert_eq!(&a.columns, &b.columns, "columns (mem) for {}", sql);
                prop_assert_eq!(&a.rows, &b.rows, "rows (mem) for {}", sql);
                prop_assert_eq!(&a.columns, &c.columns, "columns (paged) for {}", sql);
                prop_assert_eq!(&a.rows, &c.rows, "rows (paged) for {}", sql);
            }
            (Err(ea), Err(eb), Err(ec)) => {
                // engines must refuse the same queries; message equality
                // pins the error down to the same cause
                prop_assert_eq!(ea.to_string(), eb.to_string(), "error (mem) for {}", sql);
                prop_assert_eq!(ea.to_string(), ec.to_string(), "error (paged) for {}", sql);
            }
            _ => prop_assert!(
                false,
                "engines disagree on success for {}: reference {:?} mem {:?} paged {:?}",
                sql,
                reference.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
                volcano_mem.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
                volcano_paged.as_ref().map(|r| r.len()).map_err(|e| e.to_string()),
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
