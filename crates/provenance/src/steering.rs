//! Canned runtime-steering queries — the paper's §V.C workflow: while a
//! campaign runs, the scientist probes the provenance database to find
//! failures, hot spots, and problematic inputs without browsing output
//! directories. Each helper wraps one SQL query against the PROV-Wf schema
//! and returns typed rows.
//!
//! On a paged store these queries run through secondary indexes instead of
//! full scans (`status`, `actid`, `endtime`, …); prefix any of the SQL
//! below with `EXPLAIN` via [`ProvenanceStore::query`] to see the chosen
//! access path.

use crate::provwf::ProvenanceStore;
use crate::sql::QueryError;
use crate::value::Value;

/// SQL behind [`status_summary`] (public so dashboards can `EXPLAIN` it).
pub const STATUS_SUMMARY_SQL: &str =
    "SELECT status, count(*) FROM hactivation GROUP BY status ORDER BY status";

/// SQL behind [`failures_by_activity`].
pub const FAILURES_BY_ACTIVITY_SQL: &str =
    "SELECT a.tag, count(*) FROM hactivity a, hactivation t \
     WHERE t.status = 'FAILED' AND a.actid = t.actid \
     GROUP BY a.tag ORDER BY a.tag";

/// SQL behind [`activations_since`].
pub const ACTIVATIONS_SINCE_SQL: &str =
    "SELECT t.taskid, t.status, t.pairkey, extract('epoch' from t.endtime) AS fin \
     FROM hactivation t WHERE t.endtime >= ? ORDER BY t.endtime, t.taskid";

/// Per-status activation counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusCount {
    /// The status label (`FINISHED`, `FAILED`, `ABORTED`, `BLACKLISTED`,
    /// or `RUNNING` for in-flight activations flushed by live steering).
    pub status: String,
    /// Activations with that status.
    pub count: i64,
}

/// Activation counts by terminal status.
pub fn status_summary(prov: &ProvenanceStore) -> Result<Vec<StatusCount>, QueryError> {
    let rs = prov.query_rows(STATUS_SUMMARY_SQL, &[])?;
    Ok(rs
        .rows
        .iter()
        .filter_map(|r| {
            Some(StatusCount { status: r[0].as_str()?.to_string(), count: r[1].as_f64()? as i64 })
        })
        .collect())
}

/// Failure counts per activity (where is the workflow fragile?).
///
/// On a paged store the `t.status = 'FAILED'` conjunct drives an index
/// lookup and each activity is matched by an index probe on `actid` — the
/// query reads only failed rows no matter how large the table is.
pub fn failures_by_activity(prov: &ProvenanceStore) -> Result<Vec<(String, i64)>, QueryError> {
    let rs = prov.query_rows(FAILURES_BY_ACTIVITY_SQL, &[])?;
    Ok(rs
        .rows
        .iter()
        .filter_map(|r| Some((r[0].as_str()?.to_string(), r[1].as_f64()? as i64)))
        .collect())
}

/// One row of [`activations_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecentActivation {
    /// The activation's task id.
    pub task: i64,
    /// Status string as stored.
    pub status: String,
    /// Receptor–ligand pair key.
    pub pair_key: String,
    /// Seconds-since-epoch end time.
    pub end_time: f64,
}

/// Activations whose `endtime` is at or after `since`, oldest first — the
/// incremental "what happened since I last looked" steering poll. The bound
/// is a typed `?` parameter; on a paged store it becomes a B+tree range
/// scan over the `endtime` index.
pub fn activations_since(
    prov: &ProvenanceStore,
    since: f64,
) -> Result<Vec<RecentActivation>, QueryError> {
    let mut cur = prov.query(ACTIVATIONS_SINCE_SQL, &[Value::Timestamp(since)])?;
    let mut out = Vec::new();
    while let Some(row) = cur.next_row()? {
        let (Ok(task), Ok(status), Ok(pair), Ok(end)) =
            (row.int(0), row.text(1), row.text(2), row.float(3))
        else {
            continue;
        };
        out.push(RecentActivation {
            task,
            status: status.to_string(),
            pair_key: pair.to_string(),
            end_time: end,
        });
    }
    Ok(out)
}

/// One row of [`slowest_activations`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlowActivation {
    /// Activity tag (e.g. `autodockvina1k`).
    pub activity: String,
    /// Receptor–ligand pair key the activation processed.
    pub pair_key: String,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
}

/// The `n` slowest finished activations, slowest first.
///
/// The paper's anomaly hunt — "several activities with abnormal execution
/// time (they remain in looping state) when processing specific ligands" —
/// is exactly this query followed by a look at the pair keys.
///
/// `n` is applied as a typed `LIMIT` on the parsed query (never interpolated
/// into the SQL text), so `n = 0` yields an empty result rather than a
/// syntax surprise.
pub fn slowest_activations(
    prov: &ProvenanceStore,
    n: usize,
) -> Result<Vec<SlowActivation>, QueryError> {
    let rs = prov.query_limited(
        "SELECT a.tag, t.pairkey, extract('epoch' from (t.endtime - t.starttime)) AS dur \
         FROM hactivity a, hactivation t \
         WHERE a.actid = t.actid AND t.status = 'FINISHED' \
         ORDER BY dur DESC",
        n,
    )?;
    Ok(rs
        .rows
        .iter()
        .filter_map(|r| {
            Some(SlowActivation {
                activity: r[0].as_str()?.to_string(),
                pair_key: r[1].as_str()?.to_string(),
                seconds: r[2].as_f64()?,
            })
        })
        .collect())
}

/// Pair keys that were retried at least `min_retries` times ("problematic
/// ligands that could present the same behavior").
///
/// `min_retries` is bound as a typed `?` parameter after parsing (like the
/// `LIMIT` handling in [`slowest_activations`]), never interpolated into the
/// SQL text.
pub fn problematic_pairs(
    prov: &ProvenanceStore,
    min_retries: i64,
) -> Result<Vec<(String, i64)>, QueryError> {
    let rs = prov.query_rows(
        "SELECT pairkey, max(retries) AS r FROM hactivation \
         GROUP BY pairkey HAVING max(retries) >= ? ORDER BY pairkey",
        &[Value::Int(min_retries)],
    )?;
    Ok(rs
        .rows
        .iter()
        .filter_map(|r| Some((r[0].as_str()?.to_string(), r[1].as_f64()? as i64)))
        .collect())
}

/// Activation throughput: finished activations per time bucket of
/// `bucket_s` simulated/real seconds — the "how is the run progressing"
/// steering view.
///
/// Streams through a [`ProvenanceStore::query`] cursor: the bucket map is
/// built row by row without materializing the end-time column, and the
/// store lock is released between pulls.
pub fn throughput(prov: &ProvenanceStore, bucket_s: f64) -> Result<Vec<(i64, i64)>, QueryError> {
    assert!(bucket_s > 0.0, "bucket width must be positive");
    let mut cur = prov.query(
        "SELECT extract('epoch' from endtime) FROM hactivation WHERE status = 'FINISHED'",
        &[],
    )?;
    let mut buckets: std::collections::BTreeMap<i64, i64> = Default::default();
    while let Some(row) = cur.next_row()? {
        if let Ok(t) = row.float(0) {
            *buckets.entry((t / bucket_s) as i64).or_default() += 1;
        }
    }
    Ok(buckets.into_iter().collect())
}

/// Total data volume recorded in `hfile`, in bytes (the paper's "600 GB per
/// execution" bookkeeping).
pub fn data_volume_bytes(prov: &ProvenanceStore) -> Result<f64, QueryError> {
    let rs = prov.query_rows("SELECT sum(fsize) FROM hfile", &[])?;
    Ok(rs.rows.first().and_then(|r| r[0].as_f64()).unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provwf::{ActivationRecord, ActivationStatus};

    fn fill(p: &ProvenanceStore) {
        let w = p.begin_workflow("SciDock", "", "/e");
        let babel = p.register_activity(w, "babel", "Map");
        let dock = p.register_activity(w, "vina", "Map");
        let mk = |act, status, start: f64, dur: f64, retries, pair: &str| ActivationRecord {
            activity: act,
            workflow: w,
            status,
            start_time: start,
            end_time: start + dur,
            machine: None,
            retries,
            pair_key: pair.into(),
        };
        p.record_activation(&mk(babel, ActivationStatus::Finished, 0.0, 2.0, 0, "A:x"));
        p.record_activation(&mk(babel, ActivationStatus::Failed, 3.0, 1.0, 0, "B:x"));
        p.record_activation(&mk(babel, ActivationStatus::Finished, 5.0, 2.5, 1, "B:x"));
        p.record_activation(&mk(dock, ActivationStatus::Finished, 10.0, 60.0, 0, "A:x"));
        p.record_activation(&mk(dock, ActivationStatus::Failed, 70.0, 5.0, 0, "B:x"));
        p.record_activation(&mk(dock, ActivationStatus::Failed, 76.0, 5.0, 1, "B:x"));
        p.record_activation(&mk(dock, ActivationStatus::Finished, 82.0, 55.0, 2, "B:x"));
        p.record_activation(&mk(dock, ActivationStatus::Aborted, 90.0, 300.0, 0, "C:x"));
        let t = p.record_activation(&mk(dock, ActivationStatus::Finished, 140.0, 40.0, 0, "D:x"));
        p.record_file(t, dock, w, "D_x.dlg", 50_000, "/e/vina/3/");
        p.record_file(t, dock, w, "D_x.log", 10_000, "/e/vina/3/");
    }

    fn store() -> ProvenanceStore {
        let p = ProvenanceStore::new();
        fill(&p);
        p
    }

    fn paged_store() -> ProvenanceStore {
        let p = ProvenanceStore::new_paged();
        fill(&p);
        p
    }

    /// The `plan` column of an EXPLAIN, joined into one string.
    fn plan_of(p: &ProvenanceStore, sql: &str) -> String {
        let rs = p
            .query_rows(&format!("EXPLAIN {sql}"), &[Value::Timestamp(0.0)])
            .or_else(|_| p.query_rows(&format!("EXPLAIN {sql}"), &[]));
        rs.unwrap()
            .rows
            .iter()
            .filter_map(|r| r[0].as_str().map(str::to_string))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn status_summary_counts() {
        for p in [store(), paged_store()] {
            let s = status_summary(&p).unwrap();
            let get = |name: &str| s.iter().find(|c| c.status == name).map(|c| c.count);
            assert_eq!(get("FINISHED"), Some(5));
            assert_eq!(get("FAILED"), Some(3));
            assert_eq!(get("ABORTED"), Some(1));
            assert_eq!(get("BLACKLISTED"), None);
        }
    }

    #[test]
    fn failures_grouped_by_activity() {
        for p in [store(), paged_store()] {
            let f = failures_by_activity(&p).unwrap();
            assert_eq!(f, vec![("babel".to_string(), 1), ("vina".to_string(), 2)]);
        }
    }

    #[test]
    fn activations_since_filters_by_end_time() {
        for p in [store(), paged_store()] {
            let all = activations_since(&p, 0.0).unwrap();
            assert_eq!(all.len(), 9);
            let recent = activations_since(&p, 100.0).unwrap();
            // end times ≥ 100: the 137-second vina row, the 180-second one,
            // and the 390-second aborted one
            assert_eq!(recent.len(), 3);
            assert!(recent.windows(2).all(|w| w[0].end_time <= w[1].end_time));
            assert_eq!(recent.last().unwrap().status, "ABORTED");
        }
    }

    #[test]
    fn failure_join_probes_actid_index_on_paged_store() {
        let plan = plan_of(&paged_store(), FAILURES_BY_ACTIVITY_SQL);
        assert!(
            plan.contains("IndexProbe hactivation AS t USING ix_hactivation_actid (actid =)"),
            "the join key should probe the actid index:\n{plan}"
        );
        // the consumed join conjunct and the status filter are both re-applied
        assert!(plan.contains("[2 filter(s)]"), "{plan}");
    }

    /// The point shapes a steering client polls with: each is an index scan,
    /// not a pass over every activation.
    #[test]
    fn equality_predicates_use_their_index_on_paged_store() {
        let p = paged_store();
        for (col, literal) in [("status", "'FAILED'"), ("taskid", "3"), ("pairkey", "'D:x'")] {
            let plan =
                plan_of(&p, &format!("SELECT count(*) FROM hactivation WHERE {col} = {literal}"));
            let want = format!(
                "IndexScan hactivation AS hactivation USING ix_hactivation_{col} ({col} =)"
            );
            assert!(plan.contains(&want), "{col} equality should pick its index:\n{plan}");
        }
    }

    #[test]
    fn since_query_uses_endtime_range_on_paged_store() {
        let plan = plan_of(&paged_store(), ACTIVATIONS_SINCE_SQL);
        assert!(
            plan.contains("IndexRange hactivation") && plan.contains("ix_hactivation_endtime"),
            "endtime bound should become a B+tree range scan:\n{plan}"
        );
    }

    #[test]
    fn mem_store_plans_full_scans() {
        let plan = plan_of(&store(), FAILURES_BY_ACTIVITY_SQL);
        assert!(plan.contains("SeqScan"), "{plan}");
        assert!(!plan.contains("Index"), "no indexes on the mem backing:\n{plan}");
    }

    #[test]
    fn slowest_finds_the_long_dockings() {
        for p in [store(), paged_store()] {
            let s = slowest_activations(&p, 2).unwrap();
            assert_eq!(s.len(), 2);
            assert_eq!(s[0].activity, "vina");
            assert!(s[0].seconds >= s[1].seconds);
            assert!((s[0].seconds - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn slowest_with_zero_limit_is_empty() {
        // regression: n used to be spliced into the SQL text via format!;
        // the typed LIMIT path must treat 0 as "no rows", not a parse quirk
        assert_eq!(slowest_activations(&store(), 0).unwrap(), vec![]);
    }

    #[test]
    fn slowest_limit_larger_than_table_returns_all() {
        let s = slowest_activations(&store(), 1000).unwrap();
        assert_eq!(s.len(), 5, "five FINISHED activations exist");
    }

    #[test]
    fn problematic_pairs_by_retry_count() {
        for p in [store(), paged_store()] {
            let pp = problematic_pairs(&p, 2).unwrap();
            assert_eq!(pp, vec![("B:x".to_string(), 2)]);
            let loose = problematic_pairs(&p, 1).unwrap();
            assert_eq!(loose.len(), 1, "only B:x was retried");
        }
    }

    #[test]
    fn problematic_pairs_binds_threshold_as_typed_param() {
        // regression: min_retries used to be spliced into the SQL via
        // format!. Extreme values must bind cleanly instead of producing
        // a malformed or surprising query.
        assert_eq!(problematic_pairs(&store(), i64::MIN).unwrap().len(), 4);
        assert_eq!(problematic_pairs(&store(), i64::MAX).unwrap(), vec![]);
        assert_eq!(problematic_pairs(&store(), 0).unwrap().len(), 4);
    }

    #[test]
    fn throughput_buckets() {
        for p in [store(), paged_store()] {
            // finished end times: 2.0, 7.5, 70.0, 137.0, 180.0 → buckets of 60 s
            let t = throughput(&p, 60.0).unwrap();
            let total: i64 = t.iter().map(|(_, c)| c).sum();
            assert_eq!(total, 5);
            assert_eq!(t[0], (0, 2));
        }
    }

    #[test]
    fn data_volume_sums_files() {
        assert_eq!(data_volume_bytes(&store()).unwrap(), 60_000.0);
        assert_eq!(data_volume_bytes(&ProvenanceStore::new()).unwrap(), 0.0);
        assert_eq!(data_volume_bytes(&paged_store()).unwrap(), 60_000.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let _ = throughput(&store(), 0.0);
    }
}
