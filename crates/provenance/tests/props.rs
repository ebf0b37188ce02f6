//! Property-based tests for the provenance store and SQL engine.

use proptest::prelude::*;

use provenance::sql::{execute_query, parse, QueryError, ResultSet};
use provenance::{Database, Schema, Value, ValueType};

/// Parse + run on the reference engine.
fn execute(db: &Database, sql: &str) -> Result<ResultSet, QueryError> {
    execute_query(db, &parse(sql)?)
}

/// Reference implementation of SQL LIKE used to check the engine's matcher.
fn like_reference(pattern: &str, text: &str) -> bool {
    fn go(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| go(rest, &t[k..])),
            Some(('_', rest)) => !t.is_empty() && go(rest, &t[1..]),
            Some((c, rest)) => t.first() == Some(c) && go(rest, &t[1..]),
        }
    }
    go(&p_chars(pattern), &p_chars(text))
}

fn p_chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

fn tiny_db(values: &[(i64, String)]) -> Database {
    let mut db = Database::new();
    db.create_table("t", Schema::new(&[("n", ValueType::Int), ("s", ValueType::Text)])).unwrap();
    for (n, s) in values {
        db.insert("t", vec![Value::Int(*n), Value::Text(s.clone())]).unwrap();
    }
    db
}

proptest! {
    #[test]
    fn like_matches_reference(pattern in "[ab%_]{0,6}", text in "[ab]{0,8}") {
        let db = tiny_db(&[(1, text.clone())]);
        let sql = format!("SELECT count(*) FROM t WHERE s LIKE '{pattern}'");
        let rs = execute(&db, &sql).unwrap();
        let engine_match = rs.cell(0, 0) == &Value::Int(1);
        prop_assert_eq!(engine_match, like_reference(&pattern, &text),
            "pattern {:?} text {:?}", pattern, text);
    }

    #[test]
    fn count_matches_row_count(rows in prop::collection::vec((0i64..100, "[a-z]{0,5}"), 0..50)) {
        let data: Vec<(i64, String)> = rows;
        let db = tiny_db(&data);
        let rs = execute(&db, "SELECT count(*) FROM t").unwrap();
        prop_assert_eq!(rs.cell(0, 0), &Value::Int(data.len() as i64));
    }

    #[test]
    fn sum_and_avg_agree(rows in prop::collection::vec(0i64..1000, 1..50)) {
        let data: Vec<(i64, String)> = rows.iter().map(|&n| (n, String::new())).collect();
        let db = tiny_db(&data);
        let rs = execute(&db, "SELECT sum(n), avg(n), count(n) FROM t").unwrap();
        let sum = rs.cell(0, 0).as_f64().unwrap();
        let avg = rs.cell(0, 1).as_f64().unwrap();
        let count = rs.cell(0, 2).as_f64().unwrap();
        prop_assert!((sum - avg * count).abs() < 1e-6 * (1.0 + sum.abs()));
        let want: i64 = rows.iter().sum();
        prop_assert!((sum - want as f64).abs() < 1e-9);
    }

    #[test]
    fn min_max_bound_all_values(rows in prop::collection::vec(-1000i64..1000, 1..50)) {
        let data: Vec<(i64, String)> = rows.iter().map(|&n| (n, String::new())).collect();
        let db = tiny_db(&data);
        let rs = execute(&db, "SELECT min(n), max(n) FROM t").unwrap();
        let min = rs.cell(0, 0).as_f64().unwrap() as i64;
        let max = rs.cell(0, 1).as_f64().unwrap() as i64;
        prop_assert_eq!(min, *rows.iter().min().unwrap());
        prop_assert_eq!(max, *rows.iter().max().unwrap());
    }

    #[test]
    fn where_filter_partition(rows in prop::collection::vec(0i64..100, 0..60), cut in 0i64..100) {
        let data: Vec<(i64, String)> = rows.iter().map(|&n| (n, String::new())).collect();
        let db = tiny_db(&data);
        let lo = execute(&db, &format!("SELECT count(*) FROM t WHERE n < {cut}")).unwrap();
        let hi = execute(&db, &format!("SELECT count(*) FROM t WHERE n >= {cut}")).unwrap();
        let total = lo.cell(0, 0).as_f64().unwrap() + hi.cell(0, 0).as_f64().unwrap();
        prop_assert_eq!(total as usize, data.len());
    }

    #[test]
    fn order_by_sorts(rows in prop::collection::vec(-50i64..50, 1..40)) {
        let data: Vec<(i64, String)> = rows.iter().map(|&n| (n, String::new())).collect();
        let db = tiny_db(&data);
        let asc = execute(&db, "SELECT n FROM t ORDER BY n").unwrap();
        let got: Vec<i64> = asc.rows.iter().map(|r| r[0].as_f64().unwrap() as i64).collect();
        let mut want = rows.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let desc = execute(&db, "SELECT n FROM t ORDER BY n DESC").unwrap();
        let got_d: Vec<i64> = desc.rows.iter().map(|r| r[0].as_f64().unwrap() as i64).collect();
        let mut want_d = rows.clone();
        want_d.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got_d, want_d);
    }

    #[test]
    fn limit_truncates(rows in prop::collection::vec(0i64..100, 0..40), lim in 0usize..50) {
        let data: Vec<(i64, String)> = rows.iter().map(|&n| (n, String::new())).collect();
        let db = tiny_db(&data);
        let rs = execute(&db, &format!("SELECT n FROM t LIMIT {lim}")).unwrap();
        prop_assert_eq!(rs.len(), data.len().min(lim));
    }

    #[test]
    fn group_by_partitions_rows(rows in prop::collection::vec((0i64..5, "[ab]{1}"), 1..60)) {
        let data: Vec<(i64, String)> = rows;
        let db = tiny_db(&data);
        let rs = execute(&db, "SELECT s, count(*) FROM t GROUP BY s").unwrap();
        let total: f64 = rs.rows.iter().map(|r| r[1].as_f64().unwrap()).sum();
        prop_assert_eq!(total as usize, data.len());
        // group count equals distinct key count
        let mut keys: Vec<&String> = data.iter().map(|(_, s)| s).collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(rs.len(), keys.len());
    }

    #[test]
    fn value_compare_consistent_with_f64(a in -1e6..1e6f64, b in -1e6..1e6f64) {
        let va = Value::Float(a);
        let vb = Value::Float(b);
        prop_assert_eq!(va.compare(&vb), Some(a.total_cmp(&b)));
    }

    #[test]
    fn arithmetic_matches_rust(a in -1000i64..1000, b in -1000i64..1000) {
        let db = tiny_db(&[(0, String::new())]);
        let rs = execute(&db, &format!("SELECT {a} + {b}, {a} * {b}, {a} - {b} FROM t")).unwrap();
        prop_assert_eq!(rs.cell(0, 0).as_f64().unwrap() as i64, a + b);
        prop_assert_eq!(rs.cell(0, 1).as_f64().unwrap() as i64, a * b);
        prop_assert_eq!(rs.cell(0, 2).as_f64().unwrap() as i64, a - b);
    }
}
