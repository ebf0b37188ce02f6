//! W3C PROV-N export of the provenance graph.
//!
//! The paper states SciCumulus' repository "is based on the W3C PROV and
//! PROV-Wf models". This module serializes the PROV-Wf relational content
//! into PROV-N (the textual notation of the W3C PROV family):
//!
//! * workflow executions and activations → `activity(…)`
//! * produced files → `entity(…)` + `wasGeneratedBy(…)`
//! * VMs → `agent(…)` + `wasAssociatedWith(…)`
//! * activation membership in its activity/workflow → `wasInformedBy(…)`

use std::fmt::Write as _;

use crate::provwf::{ProvenanceStore, WorkflowId};
use crate::value::Value;

/// Workflow executions, as both exports read them.
pub const WORKFLOWS_SQL: &str = "SELECT wkfid, tag FROM hworkflow ORDER BY wkfid";

/// Machines, for [`export_provn`]'s agents.
pub const MACHINES_SQL: &str =
    "SELECT vmid, vmname, instancetype, cores FROM hmachine ORDER BY vmid";

/// Activations with their activity tag, as both exports read them.
pub const ACTIVATIONS_SQL: &str = "SELECT t.taskid, t.wkfid, a.tag, t.status, t.retries, \
     t.pairkey, extract('epoch' from t.starttime), extract('epoch' from t.endtime), t.vmid \
     FROM hactivation t, hactivity a WHERE t.actid = a.actid ORDER BY t.taskid";

/// Produced files, as both exports read them.
pub const FILES_SQL: &str = "SELECT fileid, taskid, fname, fsize, fdir FROM hfile ORDER BY fileid";

/// Extracted parameters, as both exports read them.
pub const PARAMETERS_SQL: &str = "SELECT paramid, taskid, pname, pvalue_num, pvalue_text \
     FROM hparameter ORDER BY paramid";

/// Escape a PROV-N string literal.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Make a safe local identifier from free text.
fn ident(prefix: &str, raw: &str) -> String {
    let cleaned: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{prefix}{cleaned}")
}

/// Serialize the whole store as a PROV-N document.
pub fn export_provn(store: &ProvenanceStore) -> String {
    let mut out = String::new();
    out.push_str("document\n");
    out.push_str("  prefix scw <https://example.org/scicumulus#>\n");
    out.push_str("  prefix provwf <https://example.org/prov-wf#>\n\n");

    // workflows
    if let Ok(wfs) = store.query_rows(WORKFLOWS_SQL, &[]) {
        for row in &wfs.rows {
            let id = row[0].as_f64().unwrap_or(0.0) as i64;
            let tag = row[1].as_str().unwrap_or("");
            let _ = writeln!(
                out,
                "  activity(scw:workflow_{id}, -, -, [provwf:type=\"workflow\", provwf:tag=\"{}\"])",
                esc(tag)
            );
        }
    }

    // machines → agents
    if let Ok(ms) = store.query_rows(MACHINES_SQL, &[]) {
        for row in &ms.rows {
            let id = row[0].as_f64().unwrap_or(0.0) as i64;
            let name = row[1].as_str().unwrap_or("");
            let itype = row[2].as_str().unwrap_or("");
            let cores = row[3].as_f64().unwrap_or(0.0) as i64;
            let _ = writeln!(
                out,
                "  agent(scw:vm_{id}, [provwf:name=\"{}\", provwf:instanceType=\"{}\", provwf:cores=\"{cores}\"])",
                esc(name),
                esc(itype)
            );
        }
    }

    // activations → activities with times, associations, membership
    if let Ok(acts) = store.query_rows(ACTIVATIONS_SQL, &[]) {
        for row in &acts.rows {
            let task = row[0].as_f64().unwrap_or(0.0) as i64;
            let wkf = row[1].as_f64().unwrap_or(0.0) as i64;
            let tag = row[2].as_str().unwrap_or("");
            let status = row[3].as_str().unwrap_or("");
            let start = row[6].as_f64().unwrap_or(0.0);
            let end = row[7].as_f64().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  activity(scw:task_{task}, {start:.3}, {end:.3}, [provwf:activity=\"{}\", provwf:status=\"{}\", provwf:pair=\"{}\"])",
                esc(tag),
                esc(status),
                esc(row[5].as_str().unwrap_or(""))
            );
            let _ = writeln!(out, "  wasInformedBy(scw:task_{task}, scw:workflow_{wkf})");
            if let Some(vm) = row[8].as_f64() {
                let _ =
                    writeln!(out, "  wasAssociatedWith(scw:task_{task}, scw:vm_{}, -)", vm as i64);
            }
        }
    }

    // files → entities generated by their activation
    if let Ok(files) = store.query_rows(FILES_SQL, &[]) {
        for row in &files.rows {
            let fid = row[0].as_f64().unwrap_or(0.0) as i64;
            let task = row[1].as_f64().unwrap_or(0.0) as i64;
            let fname = row[2].as_str().unwrap_or("");
            let fsize = row[3].as_f64().unwrap_or(0.0) as i64;
            let ent = ident("scw:file_", &format!("{fid}_{fname}"));
            let _ = writeln!(
                out,
                "  entity({ent}, [provwf:fileName=\"{}\", provwf:size=\"{fsize}\", provwf:dir=\"{}\"])",
                esc(fname),
                esc(row[4].as_str().unwrap_or(""))
            );
            let _ = writeln!(out, "  wasGeneratedBy({ent}, scw:task_{task}, -)");
        }
    }

    // extracted parameters → entity attributes on a value node
    if let Ok(params) = store.query_rows(PARAMETERS_SQL, &[]) {
        for row in &params.rows {
            let pid = row[0].as_f64().unwrap_or(0.0) as i64;
            let task = row[1].as_f64().unwrap_or(0.0) as i64;
            let pname = row[2].as_str().unwrap_or("");
            let value = match (&row[3], &row[4]) {
                (Value::Null, Value::Null) => String::new(),
                (v, Value::Null) => v.to_string(),
                (_, v) => v.to_string(),
            };
            let _ = writeln!(
                out,
                "  entity(scw:param_{pid}, [provwf:name=\"{}\", provwf:value=\"{}\"])",
                esc(pname),
                esc(&value)
            );
            let _ = writeln!(out, "  wasGeneratedBy(scw:param_{pid}, scw:task_{task}, -)");
        }
    }

    out.push_str("endDocument\n");
    out
}

/// Replace path segments that are pure activation indices with `*`.
///
/// Working directories embed the activation's submission-order part index
/// (`expdir/activity/3/`), and submission order is a scheduling artifact:
/// two runs of the same workflow under different dispatchers (or thread
/// counts) number their activations differently. Canonical export masks the
/// numeric segments so directories compare by shape, not by schedule.
fn canonical_dir(dir: &str) -> String {
    let normalized: Vec<&str> = dir
        .split('/')
        .map(
            |seg| {
                if !seg.is_empty() && seg.bytes().all(|b| b.is_ascii_digit()) {
                    "*"
                } else {
                    seg
                }
            },
        )
        .collect();
    normalized.join("/")
}

/// Serialize the store as a **canonical** PROV-N document: byte-identical
/// across runs that performed the same logical work, regardless of how the
/// work was scheduled.
///
/// Canonicalization differs from [`export_provn`] in four ways:
///
/// * rows are ordered by content — activations by `(workflow, activity tag,
///   pair key, retries, status)`, files and parameters by their owning
///   activation then name — instead of by insertion id;
/// * task/file/param identifiers are renumbered in that canonical order, so
///   ids assigned in scheduling order never leak into the document;
/// * wall-clock timestamps are omitted (`-, -`), since no two runs share a
///   clock;
/// * machine agents and `wasAssociatedWith` are omitted — *where* an
///   activation ran is deployment detail, not workflow provenance — and
///   working directories have their numeric (submission-order) segments
///   masked by `canonical_dir`.
///
/// This is the form cross-backend parity is asserted on: a local run and a
/// distributed run of the same workflow must export the same bytes.
pub fn export_provn_canonical(store: &ProvenanceStore) -> String {
    export_provn_canonical_impl(store, None)
}

/// [`export_provn_canonical`] scoped to one workflow execution: only rows
/// belonging to `wkf` are exported, and the workflow is renumbered to 1.
///
/// This is the campaign-parity form: a campaign run through `scidockd`
/// (whose store holds many workflows) exports the same bytes as the same
/// workflow run one-shot into a fresh store.
pub fn export_provn_canonical_for(store: &ProvenanceStore, wkf: WorkflowId) -> String {
    export_provn_canonical_impl(store, Some(wkf.0))
}

fn export_provn_canonical_impl(store: &ProvenanceStore, only_wkf: Option<i64>) -> String {
    let mut out = String::new();
    out.push_str("document\n");
    out.push_str("  prefix scw <https://example.org/scicumulus#>\n");
    out.push_str("  prefix provwf <https://example.org/prov-wf#>\n\n");

    // workflows, renumbered in wkfid order (begin_workflow order is logical,
    // not a scheduling artifact)
    let mut wkf_canon: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    if let Ok(wfs) = store.query_rows(WORKFLOWS_SQL, &[]) {
        let kept = wfs.rows.iter().filter(|row| {
            let id = row[0].as_f64().unwrap_or(0.0) as i64;
            only_wkf.is_none_or(|w| w == id)
        });
        for (n, row) in kept.enumerate() {
            let id = row[0].as_f64().unwrap_or(0.0) as i64;
            wkf_canon.insert(id, n + 1);
            let _ = writeln!(
                out,
                "  activity(scw:workflow_{}, -, -, [provwf:type=\"workflow\", provwf:tag=\"{}\"])",
                n + 1,
                esc(row[1].as_str().unwrap_or(""))
            );
        }
    }

    // activations sorted by content; taskid → canonical id map for files/params
    let mut task_canon: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    if let Ok(acts) = store.query_rows(ACTIVATIONS_SQL, &[]) {
        let mut rows: Vec<(i64, i64, String, String, i64, String)> = acts
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_f64().unwrap_or(0.0) as i64,
                    r[1].as_f64().unwrap_or(0.0) as i64,
                    r[2].as_str().unwrap_or("").to_string(),
                    r[3].as_str().unwrap_or("").to_string(),
                    r[4].as_f64().unwrap_or(0.0) as i64,
                    r[5].as_str().unwrap_or("").to_string(),
                )
            })
            .collect();
        rows.retain(|r| only_wkf.is_none_or(|w| w == r.1));
        rows.sort_by(|a, b| (a.1, &a.2, &a.5, a.4, &a.3).cmp(&(b.1, &b.2, &b.5, b.4, &b.3)));
        for (n, (task, wkf, tag, status, retries, pair)) in rows.iter().enumerate() {
            let canon = n + 1;
            task_canon.insert(*task, canon);
            let _ = writeln!(
                out,
                "  activity(scw:task_{canon}, -, -, [provwf:activity=\"{}\", provwf:status=\"{}\", provwf:pair=\"{}\", provwf:retries=\"{retries}\"])",
                esc(tag),
                esc(status),
                esc(pair)
            );
            let _ = writeln!(
                out,
                "  wasInformedBy(scw:task_{canon}, scw:workflow_{})",
                wkf_canon.get(wkf).copied().unwrap_or(0)
            );
        }
    }

    // files sorted under their canonical activation, dirs masked
    if let Ok(files) = store.query_rows(FILES_SQL, &[]) {
        let mut rows: Vec<(usize, String, i64, String)> = files
            .rows
            .iter()
            .map(|r| {
                (
                    task_canon.get(&(r[1].as_f64().unwrap_or(0.0) as i64)).copied().unwrap_or(0),
                    r[2].as_str().unwrap_or("").to_string(),
                    r[3].as_f64().unwrap_or(0.0) as i64,
                    canonical_dir(r[4].as_str().unwrap_or("")),
                )
            })
            .collect();
        if only_wkf.is_some() {
            rows.retain(|r| r.0 != 0); // 0 = task outside the scoped workflow
        }
        rows.sort();
        for (n, (task, fname, fsize, fdir)) in rows.iter().enumerate() {
            let ent = ident("scw:file_", &format!("{}_{fname}", n + 1));
            let _ = writeln!(
                out,
                "  entity({ent}, [provwf:fileName=\"{}\", provwf:size=\"{fsize}\", provwf:dir=\"{}\"])",
                esc(fname),
                esc(fdir)
            );
            let _ = writeln!(out, "  wasGeneratedBy({ent}, scw:task_{task}, -)");
        }
    }

    // parameters sorted under their canonical activation
    if let Ok(params) = store.query_rows(PARAMETERS_SQL, &[]) {
        let mut rows: Vec<(usize, String, String)> = params
            .rows
            .iter()
            .map(|r| {
                let value = match (&r[3], &r[4]) {
                    (Value::Null, Value::Null) => String::new(),
                    (v, Value::Null) => v.to_string(),
                    (_, v) => v.to_string(),
                };
                (
                    task_canon.get(&(r[1].as_f64().unwrap_or(0.0) as i64)).copied().unwrap_or(0),
                    r[2].as_str().unwrap_or("").to_string(),
                    value,
                )
            })
            .collect();
        if only_wkf.is_some() {
            rows.retain(|r| r.0 != 0); // 0 = task outside the scoped workflow
        }
        rows.sort();
        for (n, (task, pname, value)) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "  entity(scw:param_{}, [provwf:name=\"{}\", provwf:value=\"{}\"])",
                n + 1,
                esc(pname),
                esc(value)
            );
            let _ = writeln!(out, "  wasGeneratedBy(scw:param_{}, scw:task_{task}, -)", n + 1);
        }
    }

    out.push_str("endDocument\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provwf::{ActivationRecord, ActivationStatus};

    fn store_with_content() -> ProvenanceStore {
        let p = ProvenanceStore::new();
        let w = p.begin_workflow("SciDock", "Docking", "/root/scidock/");
        let a = p.register_activity(w, "autodock4", "Map");
        let vm = p.register_machine("vm-0", "m3.xlarge", 4);
        let t = p.record_activation(&ActivationRecord {
            activity: a,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: 1.0,
            end_time: 43.5,
            machine: Some(vm),
            retries: 0,
            pair_key: "2HHN:0E6".into(),
        });
        p.record_file(t, a, w, "0E6_2HHN.dlg", 65740, "/root/exp/autodock4/1/");
        p.record_parameter(t, w, "feb", Some(-7.2), None);
        p.record_parameter(t, w, "engine", None, Some("autodock4"));
        p
    }

    #[test]
    fn document_structure() {
        let text = export_provn(&store_with_content());
        assert!(text.starts_with("document\n"));
        assert!(text.trim_end().ends_with("endDocument"));
        assert!(text.contains("prefix scw"));
    }

    #[test]
    fn workflow_and_task_activities() {
        let text = export_provn(&store_with_content());
        assert!(text.contains("activity(scw:workflow_1"));
        assert!(text.contains("provwf:tag=\"SciDock\""));
        assert!(text.contains("activity(scw:task_1, 1.000, 43.500"));
        assert!(text.contains("provwf:status=\"FINISHED\""));
        assert!(text.contains("wasInformedBy(scw:task_1, scw:workflow_1)"));
    }

    #[test]
    fn vm_agent_and_association() {
        let text = export_provn(&store_with_content());
        assert!(text.contains("agent(scw:vm_1"));
        assert!(text.contains("provwf:instanceType=\"m3.xlarge\""));
        assert!(text.contains("wasAssociatedWith(scw:task_1, scw:vm_1, -)"));
    }

    #[test]
    fn file_entity_generated_by_task() {
        let text = export_provn(&store_with_content());
        assert!(text.contains("provwf:fileName=\"0E6_2HHN.dlg\""));
        assert!(text.contains("provwf:size=\"65740\""));
        let ent_line = text.lines().find(|l| l.contains("provwf:fileName")).unwrap();
        let ent_id = ent_line.trim().strip_prefix("entity(").unwrap();
        let ent_id = &ent_id[..ent_id.find(',').unwrap()];
        assert!(text.contains(&format!("wasGeneratedBy({ent_id}, scw:task_1, -)")));
    }

    #[test]
    fn parameters_exported() {
        let text = export_provn(&store_with_content());
        assert!(text.contains("provwf:name=\"feb\""));
        assert!(text.contains("provwf:value=\"-7.2\""));
        assert!(text.contains("provwf:value=\"autodock4\""));
    }

    #[test]
    fn escaping_quotes_and_backslashes() {
        let p = ProvenanceStore::new();
        let _ = p.begin_workflow("has \"quotes\" and \\slash", "", "");
        let text = export_provn(&p);
        assert!(text.contains("has \\\"quotes\\\" and \\\\slash"));
    }

    #[test]
    fn empty_store_is_valid_document() {
        let text = export_provn(&ProvenanceStore::new());
        assert!(text.starts_with("document\n"));
        assert!(text.contains("endDocument"));
        assert!(!text.contains("activity("));
    }

    #[test]
    fn ident_sanitizes() {
        assert_eq!(ident("p:", "a b/c.d"), "p:a_b_c_d");
        assert_eq!(ident("p:", "ok-name_1"), "p:ok-name_1");
    }

    #[test]
    fn canonical_dir_masks_numeric_segments() {
        assert_eq!(canonical_dir("/root/exp/autodock4/17/"), "/root/exp/autodock4/*/");
        assert_eq!(canonical_dir("/exp/vina2k/0/sub"), "/exp/vina2k/*/sub");
        assert_eq!(canonical_dir("relative/3"), "relative/*");
        assert_eq!(canonical_dir(""), "");
    }

    /// Two stores fed the same logical rows in *different schedule orders*
    /// (timestamps, insertion order, part-index dirs, machine attribution
    /// all differ) must export byte-identical canonical documents.
    #[test]
    fn canonical_export_is_schedule_order_independent() {
        let fill = |pairs: &[(&str, i64)], shuffle: bool, t_base: f64, dir_base: usize| {
            let p = ProvenanceStore::new();
            let w = p.begin_workflow("SciDock", "Docking", "/root/scidock/");
            let a = p.register_activity(w, "autodock4", "Map");
            let mut rows: Vec<(usize, (&str, i64))> = pairs.iter().copied().enumerate().collect();
            if shuffle {
                rows.reverse();
                let vm = p.register_machine("vm-9", "m3.xlarge", 4);
                let _ = vm; // only one store has machines at all
            }
            for (j, (pair, retries)) in rows {
                let t = p.record_activation(&ActivationRecord {
                    activity: a,
                    workflow: w,
                    status: if retries > 0 {
                        ActivationStatus::Failed
                    } else {
                        ActivationStatus::Finished
                    },
                    start_time: t_base + j as f64,
                    end_time: t_base + j as f64 + 1.5,
                    machine: None,
                    retries,
                    pair_key: pair.to_string(),
                });
                p.record_file(
                    t,
                    a,
                    w,
                    &format!("{pair}.dlg"),
                    100 + retries,
                    &format!("/root/exp/autodock4/{}/", dir_base + j),
                );
                p.record_parameter(t, w, "feb", Some(-(retries as f64) - 5.0), None);
            }
            p
        };
        let pairs = [("2HHN:0E6", 0i64), ("1AEC:042", 0), ("1AEC:042", 1), ("3GCS:XYZ", 0)];
        let a = fill(&pairs, false, 0.0, 0);
        let b = fill(&pairs, true, 1000.0, 7);
        assert_ne!(export_provn(&a), export_provn(&b), "plain export sees the schedule");
        let ca = export_provn_canonical(&a);
        assert_eq!(ca, export_provn_canonical(&b), "canonical export must not");
        // content is intact: statuses, retries, masked dirs, params
        assert!(ca.contains("provwf:status=\"FAILED\""));
        assert!(ca.contains("provwf:retries=\"1\""));
        assert!(ca.contains("provwf:dir=\"/root/exp/autodock4/*/\""));
        assert!(ca.contains("provwf:value=\"-5\"") || ca.contains("provwf:value=\"-5.0\""));
        assert!(!ca.contains("wasAssociatedWith"), "no machine attribution");
    }

    /// A store holding many workflows (the `scidockd` shape) must export
    /// each one, scoped, byte-identically to a fresh store holding only
    /// that workflow — including renumbering the workflow to 1.
    #[test]
    fn scoped_canonical_export_matches_a_fresh_store() {
        let fill = |p: &ProvenanceStore, tag: &str, pairs: &[&str]| {
            let w = p.begin_workflow(tag, "Docking", "/root/scidock/");
            let a = p.register_activity(w, "autodock4", "Map");
            for (j, pair) in pairs.iter().enumerate() {
                let t = p.record_activation(&ActivationRecord {
                    activity: a,
                    workflow: w,
                    status: ActivationStatus::Finished,
                    start_time: j as f64,
                    end_time: j as f64 + 1.0,
                    machine: None,
                    retries: 0,
                    pair_key: pair.to_string(),
                });
                p.record_file(t, a, w, &format!("{pair}.dlg"), 100, "/root/exp/autodock4/1/");
                p.record_parameter(t, w, "feb", Some(-6.0), None);
            }
            w
        };
        let shared = ProvenanceStore::new();
        let w1 = fill(&shared, "campaign-a", &["2HHN:0E6", "1AEC:042"]);
        let w2 = fill(&shared, "campaign-b", &["3GCS:XYZ"]);

        let solo_a = ProvenanceStore::new();
        fill(&solo_a, "campaign-a", &["2HHN:0E6", "1AEC:042"]);
        let solo_b = ProvenanceStore::new();
        fill(&solo_b, "campaign-b", &["3GCS:XYZ"]);

        let scoped_a = export_provn_canonical_for(&shared, w1);
        let scoped_b = export_provn_canonical_for(&shared, w2);
        assert_eq!(scoped_a, export_provn_canonical(&solo_a));
        assert_eq!(scoped_b, export_provn_canonical(&solo_b));
        assert!(scoped_a.contains("workflow_1") && !scoped_a.contains("campaign-b"));
        assert!(scoped_b.contains("workflow_1") && !scoped_b.contains("campaign-a"));
        assert_ne!(scoped_a, scoped_b);
    }
}
