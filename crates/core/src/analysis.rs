//! Result analysis: Table 3 (FEB(−) counts, average FEB, average RMSD per
//! ligand) and the top-interaction ranking of §V.D.

use cumulus::Relation;
use provenance::{ProvenanceStore, Value};

/// One docked pair's extracted values.
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// Receptor id.
    pub receptor: String,
    /// Ligand code.
    pub ligand: String,
    /// Program name (`autodock4` / `vina`).
    pub engine: String,
    /// Estimated free energy of binding, kcal/mol (negative = favorable).
    pub feb: f64,
    /// Reported RMSD in Å.
    pub rmsd: f64,
}

/// Collect pair results from a docking activity's output relation
/// (`[receptor, ligand, engine, feb, rmsd, log_file]`).
pub fn results_from_relation(rel: &Relation) -> Vec<PairResult> {
    rel.tuples
        .iter()
        .filter_map(|t| {
            Some(PairResult {
                receptor: t[0].as_str()?.to_string(),
                ligand: t[1].as_str()?.to_string(),
                engine: t[2].as_str()?.to_string(),
                feb: t[3].as_f64()?,
                rmsd: t[4].as_f64()?,
            })
        })
        .collect()
}

/// SQL behind [`results_from_provenance`]: one row per docked pair, joined
/// from its four extracted parameters.
pub const PAIR_RESULTS_SQL: &str = "SELECT p_pair.pvalue_text, p_engine.pvalue_text, \
                      p_feb.pvalue_num, p_rmsd.pvalue_num \
               FROM hparameter p_pair, hparameter p_engine, hparameter p_feb, hparameter p_rmsd \
               WHERE p_pair.pname = 'pair' \
                 AND p_engine.pname = 'engine' \
                 AND p_feb.pname = 'feb' \
                 AND p_rmsd.pname = 'rmsd' \
                 AND p_pair.taskid = p_engine.taskid \
                 AND p_pair.taskid = p_feb.taskid \
                 AND p_pair.taskid = p_rmsd.taskid";

/// SQL behind [`activation_durations`] (`?` = the workflow id): the
/// paper's Fig. 5 query.
pub const DURATIONS_SQL: &str = "SELECT extract('epoch' from (t.endtime-t.starttime)) \
     FROM hworkflow w, hactivity a, hactivation t \
     WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = ? \
     ORDER BY t.endtime";

/// SQL behind [`per_activity_stats`] (`?` = the workflow id): the paper's
/// Query 1 (Fig. 10).
pub const PER_ACTIVITY_SQL: &str = "SELECT a.tag, \
       min(extract('epoch' from (t.endtime-t.starttime))), \
       max(extract('epoch' from (t.endtime-t.starttime))), \
       sum(extract('epoch' from (t.endtime-t.starttime))), \
       avg(extract('epoch' from (t.endtime-t.starttime))) \
     FROM hworkflow w, hactivity a, hactivation t \
     WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = ? \
     GROUP BY a.tag ORDER BY a.tag";

/// Collect pair results from the provenance store (the extractor-recorded
/// `feb`/`rmsd`/`pair`/`engine` parameters), via the SQL engine.
pub fn results_from_provenance(prov: &ProvenanceStore) -> Vec<PairResult> {
    let rs = prov
        .query_rows(PAIR_RESULTS_SQL, &[])
        .unwrap_or_else(|e| panic!("provenance query failed: {e}"));
    rs.rows
        .iter()
        .filter_map(|r| {
            let pair = r[0].as_str()?;
            let (receptor, ligand) = pair.split_once('-')?;
            Some(PairResult {
                receptor: receptor.to_string(),
                ligand: ligand.to_string(),
                engine: r[1].as_str()?.to_string(),
                feb: r[2].as_f64()?,
                rmsd: r[3].as_f64()?,
            })
        })
        .collect()
}

/// One row of Table 3 for one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Ligand code.
    pub ligand: String,
    /// Number of pairs with negative FEB (favorable interactions).
    pub feb_neg_count: usize,
    /// Average FEB over the FEB(−) pairs, kcal/mol.
    pub avg_feb_neg: f64,
    /// Average RMSD over all docked pairs, Å.
    pub avg_rmsd: f64,
}

/// Compute Table 3 rows for one engine, restricted to `ligands` (the paper
/// uses 042/074/0D6/0E6).
pub fn table3(results: &[PairResult], engine: &str, ligands: &[&str]) -> Vec<Table3Row> {
    ligands
        .iter()
        .map(|lig| {
            let rows: Vec<&PairResult> =
                results.iter().filter(|r| r.engine == engine && r.ligand == *lig).collect();
            let neg: Vec<&&PairResult> = rows.iter().filter(|r| r.feb < 0.0).collect();
            let avg_feb_neg = if neg.is_empty() {
                0.0
            } else {
                neg.iter().map(|r| r.feb).sum::<f64>() / neg.len() as f64
            };
            let avg_rmsd = if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|r| r.rmsd).sum::<f64>() / rows.len() as f64
            };
            Table3Row { ligand: lig.to_string(), feb_neg_count: neg.len(), avg_feb_neg, avg_rmsd }
        })
        .collect()
}

/// Total FEB(−) count for one engine (the paper's "287 with AD4, 355 with
/// Vina" headline for the first 1,000 pairs).
pub fn total_feb_negative(results: &[PairResult], engine: &str) -> usize {
    results.iter().filter(|r| r.engine == engine && r.feb < 0.0).count()
}

/// The best (most negative FEB) interactions across engines, `n` of them —
/// the paper's "best three interactions are 2HHN-0E6, 1S4V-0D6 and
/// 1HUC-0D6" analysis.
pub fn top_interactions(results: &[PairResult], n: usize) -> Vec<PairResult> {
    let mut v: Vec<PairResult> = results.to_vec();
    v.sort_by(|a, b| a.feb.total_cmp(&b.feb));
    v.truncate(n);
    v
}

/// Render Table 3 in the paper's layout (both engines side by side).
pub fn render_table3(ad4: &[Table3Row], vina: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Ligand | FEB(-) AD4 | FEB(-) Vina | avgFEB AD4 | avgFEB Vina | avgRMSD AD4 | avgRMSD Vina\n",
    );
    out.push_str(
        "-------+------------+-------------+------------+-------------+-------------+-------------\n",
    );
    for (a, v) in ad4.iter().zip(vina) {
        assert_eq!(a.ligand, v.ligand, "rows must align by ligand");
        out.push_str(&format!(
            "{:>6} | {:>10} | {:>11} | {:>10.1} | {:>11.1} | {:>11.1} | {:>12.1}\n",
            a.ligand,
            a.feb_neg_count,
            v.feb_neg_count,
            a.avg_feb_neg,
            v.avg_feb_neg,
            a.avg_rmsd,
            v.avg_rmsd
        ));
    }
    out
}

/// Histogram of values into `bins` equal-width buckets over [min, max].
/// Returns `(bucket_low, bucket_high, count)` triples (Fig. 5's shape).
pub fn histogram(values: &[f64], bins: usize) -> Vec<(f64, f64, usize)> {
    assert!(bins > 0, "need at least one bin");
    if values.is_empty() {
        return Vec::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / bins as f64).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let mut b = ((v - lo) / width) as usize;
        if b >= bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + i as f64 * width, lo + (i + 1) as f64 * width, c))
        .collect()
}

/// Activation durations of a workflow, via the paper's Fig. 5 query.
pub fn activation_durations(prov: &ProvenanceStore, wkfid: i64) -> Vec<f64> {
    prov.query_rows(DURATIONS_SQL, &[Value::Int(wkfid)])
        .map(|rs| rs.rows.iter().filter_map(|r| r[0].as_f64()).collect())
        .unwrap_or_default()
}

/// Per-activity duration stats (tag, min, max, sum, avg) — the paper's
/// Query 1 (Fig. 10) — for Fig. 6's per-activity distribution.
pub fn per_activity_stats(prov: &ProvenanceStore, wkfid: i64) -> Vec<(String, f64, f64, f64, f64)> {
    prov.query_rows(PER_ACTIVITY_SQL, &[Value::Int(wkfid)])
        .map(|rs| {
            rs.rows
                .iter()
                .filter_map(|r| {
                    Some((
                        r[0].as_str()?.to_string(),
                        r[1].as_f64()?,
                        r[2].as_f64()?,
                        r[3].as_f64()?,
                        r[4].as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(receptor: &str, ligand: &str, engine: &str, feb: f64, rmsd: f64) -> PairResult {
        PairResult {
            receptor: receptor.into(),
            ligand: ligand.into(),
            engine: engine.into(),
            feb,
            rmsd,
        }
    }

    fn sample() -> Vec<PairResult> {
        vec![
            mk("2HHN", "0E6", "autodock4", -7.2, 53.0),
            mk("1S4V", "0D6", "autodock4", -8.4, 55.0),
            mk("1HUC", "0D6", "autodock4", 1.5, 50.0),
            mk("2HHN", "0E6", "vina", -5.2, 9.5),
            mk("1S4V", "0D6", "vina", -5.7, 9.7),
            mk("1HUC", "0D6", "vina", -4.0, 10.1),
        ]
    }

    #[test]
    fn table3_counts_and_averages() {
        let rows = table3(&sample(), "autodock4", &["0D6", "0E6"]);
        assert_eq!(rows.len(), 2);
        let d6 = &rows[0];
        assert_eq!(d6.ligand, "0D6");
        assert_eq!(d6.feb_neg_count, 1, "only 1S4V-0D6 is negative for AD4");
        assert!((d6.avg_feb_neg + 8.4).abs() < 1e-12);
        assert!((d6.avg_rmsd - 52.5).abs() < 1e-12, "avg of 55 and 50");
        let e6 = &rows[1];
        assert_eq!(e6.feb_neg_count, 1);
    }

    #[test]
    fn table3_empty_ligand_is_zeroed() {
        let rows = table3(&sample(), "autodock4", &["042"]);
        assert_eq!(rows[0].feb_neg_count, 0);
        assert_eq!(rows[0].avg_feb_neg, 0.0);
        assert_eq!(rows[0].avg_rmsd, 0.0);
    }

    #[test]
    fn feb_negative_totals() {
        let r = sample();
        assert_eq!(total_feb_negative(&r, "autodock4"), 2);
        assert_eq!(total_feb_negative(&r, "vina"), 3);
    }

    #[test]
    fn top_interactions_sorted_most_negative_first() {
        let top = top_interactions(&sample(), 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].receptor, "1S4V");
        assert!((top[0].feb - (-8.4)).abs() < 1e-12);
        assert!(top.windows(2).all(|w| w[0].feb <= w[1].feb));
    }

    #[test]
    fn render_table3_layout() {
        let ad4 = table3(&sample(), "autodock4", &["0D6", "0E6"]);
        let vina = table3(&sample(), "vina", &["0D6", "0E6"]);
        let s = render_table3(&ad4, &vina);
        assert!(s.contains("0D6"));
        assert!(s.contains("0E6"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "align by ligand")]
    fn render_table3_misaligned_panics() {
        let ad4 = table3(&sample(), "autodock4", &["0D6"]);
        let vina = table3(&sample(), "vina", &["0E6"]);
        render_table3(&ad4, &vina);
    }

    #[test]
    fn histogram_bins() {
        let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0];
        let h = histogram(&vals, 4);
        assert_eq!(h.len(), 4);
        let total: usize = h.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 7);
        // last bin [4,5] holds the 4.0 plus the three 5.0s
        assert_eq!(h[3].2, 4);
        assert!(histogram(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        histogram(&[1.0], 0);
    }

    #[test]
    fn results_from_relation_roundtrip() {
        let mut rel = Relation::new(&["receptor", "ligand", "engine", "feb", "rmsd", "log_file"]);
        rel.push(vec![
            "2HHN".into(),
            "0E6".into(),
            "vina".into(),
            Value::Float(-5.5),
            Value::Float(9.0),
            "/x.log".into(),
        ]);
        let rs = results_from_relation(&rel);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].receptor, "2HHN");
        assert_eq!(rs[0].feb, -5.5);
    }

    #[test]
    fn results_from_provenance_four_way_join() {
        let prov = ProvenanceStore::new();
        let w = prov.begin_workflow("t", "", "");
        let a = prov.register_activity(w, "vina", "Map");
        let task = prov.record_activation(&provenance::ActivationRecord {
            activity: a,
            workflow: w,
            status: provenance::ActivationStatus::Finished,
            start_time: 0.0,
            end_time: 1.0,
            machine: None,
            retries: 0,
            pair_key: "2HHN:0E6".into(),
        });
        prov.record_parameter(task, w, "feb", Some(-6.1), None);
        prov.record_parameter(task, w, "rmsd", Some(8.8), None);
        prov.record_parameter(task, w, "pair", None, Some("2HHN-0E6"));
        prov.record_parameter(task, w, "engine", None, Some("vina"));
        let rs = results_from_provenance(&prov);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].receptor, "2HHN");
        assert_eq!(rs[0].ligand, "0E6");
        assert_eq!(rs[0].engine, "vina");
        assert_eq!(rs[0].feb, -6.1);
    }
}
