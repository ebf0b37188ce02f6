//! The provenance store's secondary indexes are the ones its queries use.
//!
//! Every query the crates ship against a `ProvenanceStore` is `EXPLAIN`ed:
//! each plan must read exactly the indexes pinned beside it (so a query that
//! falls back to a `SeqScan` on an indexed column fails here), and those
//! indexes together with `ix_hactivation_taskid` — which rewrites a
//! `RUNNING` row in place, outside any query — must be `PROV_INDEXES`, no
//! more (an index no query reads is pure ingest cost) and no fewer.

use std::collections::BTreeSet;

use provenance::provwf::{self, PROV_INDEXES};
use provenance::{provn, steering, ProvenanceStore, Value};
use scidock::analysis;

/// The benchmark's steering shapes (`benchmark/src/steer.rs`), copied as
/// text with one drawn literal each: the task-id probe, the pair-key probe
/// and its Query 1.
const BENCH_TASK_PROBE: &str = "SELECT taskid, status, pairkey FROM hactivation WHERE taskid = 7";
const BENCH_PAIR_PROBE: &str = "SELECT taskid, status FROM hactivation \
     WHERE pairkey = '1AEC:042:/exp/input/:/exp/input/'";
const BENCH_QUERY1: &str = "SELECT a.tag, count(*), \
     avg(extract('epoch' from (t.endtime-t.starttime))) \
     FROM hactivity a, hactivation t WHERE a.actid = t.actid \
     GROUP BY a.tag ORDER BY a.tag";

/// `(query, its `?` parameters, the indexes its plan reads in plan order)`.
fn shipped() -> Vec<(&'static str, Vec<Value>, Vec<&'static str>)> {
    let wkf = || vec![Value::Int(1)];
    vec![
        (steering::STATUS_SUMMARY_SQL, vec![], vec![]),
        (steering::FAILURES_BY_ACTIVITY_SQL, vec![], vec!["ix_hactivation_actid"]),
        (
            steering::ACTIVATIONS_SINCE_SQL,
            vec![Value::Timestamp(0.0)],
            vec!["ix_hactivation_endtime"],
        ),
        (steering::SLOWEST_ACTIVATIONS_SQL, vec![], vec!["ix_hactivation_actid"]),
        (steering::PROBLEMATIC_PAIRS_SQL, vec![Value::Int(2)], vec![]),
        (steering::THROUGHPUT_SQL, vec![], vec!["ix_hactivation_status"]),
        (steering::DATA_VOLUME_SQL, vec![], vec![]),
        (provn::WORKFLOWS_SQL, vec![], vec![]),
        (
            provwf::ACTIVITY_BY_TAG_SQL,
            vec![Value::Int(1), Value::from("dock")],
            vec!["ix_hactivity_wkfid"],
        ),
        (provwf::FINISHED_TASKS_SQL, vec![Value::Int(1)], vec!["ix_hactivation_actid"]),
        (provwf::OUTPUT_CELLS_SQL, vec![], vec![]),
        (provn::MACHINES_SQL, vec![], vec![]),
        (provn::ACTIVATIONS_SQL, vec![], vec!["ix_hactivity_actid"]),
        (provn::FILES_SQL, vec![], vec![]),
        (provn::PARAMETERS_SQL, vec![], vec![]),
        (
            analysis::PAIR_RESULTS_SQL,
            vec![],
            vec![
                "ix_hparameter_pname",
                "ix_hparameter_taskid",
                "ix_hparameter_taskid",
                "ix_hparameter_taskid",
            ],
        ),
        (
            analysis::DURATIONS_SQL,
            wkf(),
            vec!["ix_hworkflow_wkfid", "ix_hactivity_wkfid", "ix_hactivation_actid"],
        ),
        (
            analysis::PER_ACTIVITY_SQL,
            wkf(),
            vec!["ix_hworkflow_wkfid", "ix_hactivity_wkfid", "ix_hactivation_actid"],
        ),
        (BENCH_TASK_PROBE, vec![], vec!["ix_hactivation_taskid"]),
        (BENCH_PAIR_PROBE, vec![], vec!["ix_hactivation_pairkey"]),
        (BENCH_QUERY1, vec![], vec!["ix_hactivation_actid"]),
    ]
}

/// The index names an `EXPLAIN` of `sql` reads, in plan order, and the plan.
fn indexes_read(p: &ProvenanceStore, sql: &str, params: &[Value]) -> (Vec<String>, String) {
    let rs =
        p.query_rows(&format!("EXPLAIN {sql}"), params).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let plan: Vec<&str> = rs.rows.iter().filter_map(|r| r[0].as_str()).collect();
    let used = plan
        .iter()
        .filter_map(|line| line.split(" USING ").nth(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    (used, plan.join("\n"))
}

#[test]
fn prov_indexes_are_the_ones_the_shipped_queries_use() {
    let p = ProvenanceStore::new();
    let mut union: BTreeSet<String> = BTreeSet::from(["ix_hactivation_taskid".to_string()]);
    for (sql, params, want) in shipped() {
        let (used, plan) = indexes_read(&p, sql, &params);
        assert_eq!(used, want, "{sql}\n{plan}");
        union.extend(used);
    }
    let installed: BTreeSet<String> =
        PROV_INDEXES.iter().map(|(_, name, _)| name.to_string()).collect();
    assert_eq!(installed.len(), PROV_INDEXES.len(), "index names are unique");
    assert_eq!(union, installed, "the shipped queries read exactly PROV_INDEXES");
}
