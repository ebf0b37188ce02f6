//! Query-parity tests for crash recovery: every externally observable view
//! of the store — the PROV-N export, all `steering::*` helpers, and the
//! paper's Query 1 / Query 2 — must be **identical** on a reopened store to
//! what an in-memory store holding the same committed rows answers.
//!
//! Two recovery paths are covered: a clean close/reopen of an on-disk
//! store (WAL replay and snapshot+WAL after a checkpoint), and a
//! fault-injected crash whose recovered state is some prefix of the call
//! sequence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use provenance::durable::io::{DirEnv, FaultEnv, FaultPlan, MemEnv};
use provenance::durable::testing::TempDir;
use provenance::provwf::{ActivationRecord, ActivationStatus, MachineId, ProvenanceStore};
use provenance::steering;
use provenance::{export_provn, Durability, DurableOptions, Value};

/// Apply the first `steps` calls of a fixed, SciDock-shaped mutation
/// sequence: one workflow, two activities, a VM, and a stream of
/// activations with mixed statuses, retries, files, parameters, and output
/// tuples. Deterministic, so any prefix can be rebuilt in memory.
fn populate(p: &ProvenanceStore, steps: usize) {
    let mut budget = steps;
    let take = |n: &mut usize| {
        if *n == 0 {
            false
        } else {
            *n -= 1;
            true
        }
    };

    if !take(&mut budget) {
        return;
    }
    let w = p.begin_workflow("SciDock", "docking campaign", "/root/exp_SciDock");
    if !take(&mut budget) {
        return;
    }
    let babel = p.register_activity(w, "babel1k", "Map");
    if !take(&mut budget) {
        return;
    }
    let vina = p.register_activity(w, "autodockvina1k", "Map");
    if !take(&mut budget) {
        return;
    }
    let vm: MachineId = p.register_machine("vm-001", "m3.xlarge", 4);

    let statuses = [
        ActivationStatus::Finished,
        ActivationStatus::Finished,
        ActivationStatus::Failed,
        ActivationStatus::Finished,
        ActivationStatus::Aborted,
        ActivationStatus::Blacklisted,
        ActivationStatus::Running,
        ActivationStatus::Finished,
    ];
    for i in 0.. {
        if !take(&mut budget) {
            return;
        }
        let act = if i % 2 == 0 { babel } else { vina };
        let start = i as f64 * 3.5;
        let t = p.record_activation(&ActivationRecord {
            activity: act,
            workflow: w,
            status: statuses[i % statuses.len()],
            start_time: start,
            end_time: start + 2.0 + (i % 5) as f64 * 7.0,
            machine: Some(vm),
            retries: (i % 4) as i64,
            pair_key: format!("1AEC:{i:03}"),
        });
        if !take(&mut budget) {
            return;
        }
        p.record_file(t, act, w, &format!("out_{i}.dlg"), 1000 + i as i64 * 37, "/e/d/");
        if !take(&mut budget) {
            return;
        }
        p.record_parameter(t, w, "exhaustiveness", Some(8.0 + i as f64), None);
        if !take(&mut budget) {
            return;
        }
        p.record_output_tuple(
            t,
            act,
            w,
            &format!("1AEC:{i:03}"),
            i,
            &[Value::Float(-7.5 - i as f64 / 10.0), Value::Text(format!("pose{i}"))],
        );
    }
}

/// Enough steps to exercise every status and several retry levels.
const FULL: usize = 44;

/// Everything a scientist can observe about a store, in one comparable
/// bundle: the PROV-N document, each steering helper, and the paper's
/// Query 1 / Query 2 result rows.
#[derive(Debug, PartialEq)]
struct Observed {
    provn: String,
    status_summary: Vec<steering::StatusCount>,
    failures: Vec<(String, i64)>,
    slowest: Vec<steering::SlowActivation>,
    problematic: Vec<(String, i64)>,
    throughput: Vec<(i64, i64)>,
    data_volume: f64,
    query1: Vec<Vec<Value>>,
    query2: Vec<Vec<Value>>,
}

fn observe(p: &ProvenanceStore) -> Observed {
    let query1 = p
        .query_rows(
            "SELECT a.tag, \
               min(extract('epoch' from (t.endtime-t.starttime))), \
               max(extract('epoch' from (t.endtime-t.starttime))), \
               sum(extract('epoch' from (t.endtime-t.starttime))), \
               avg(extract('epoch' from (t.endtime-t.starttime))) \
             FROM hworkflow w, hactivity a, hactivation t \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid \
             GROUP BY a.tag ORDER BY a.tag",
            &[],
        )
        .unwrap()
        .rows;
    let query2 = p
        .query_rows(
            "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
             FROM hworkflow w, hactivity a, hactivation t, hfile f \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
             AND f.fname LIKE '%.dlg' ORDER BY f.fname",
            &[],
        )
        .unwrap()
        .rows;
    Observed {
        provn: export_provn(p),
        status_summary: steering::status_summary(p).unwrap(),
        failures: steering::failures_by_activity(p).unwrap(),
        slowest: steering::slowest_activations(p, 5).unwrap(),
        problematic: steering::problematic_pairs(p, 2).unwrap(),
        throughput: steering::throughput(p, 10.0).unwrap(),
        data_volume: steering::data_volume_bytes(p).unwrap(),
        query1,
        query2,
    }
}

fn sync_options() -> DurableOptions {
    DurableOptions { durability: Durability::Sync, checkpoint_every: 0, ..Default::default() }
}

/// Reference view: a fresh in-memory store driven with the same prefix.
fn reference(steps: usize) -> Observed {
    let p = ProvenanceStore::new();
    populate(&p, steps);
    observe(&p)
}

#[test]
fn paged_and_mem_stores_answer_every_query_identically() {
    // same mutation sequence into both backings, no durability involved:
    // the B+tree/heap-file engine and the Vec-of-rows engine must be
    // observationally indistinguishable, including byte-identical
    // canonical PROV-N
    let mem = ProvenanceStore::new();
    let paged = ProvenanceStore::new_paged();
    assert!(!mem.is_paged());
    assert!(paged.is_paged());
    populate(&mem, FULL);
    populate(&paged, FULL);
    assert_eq!(observe(&mem), observe(&paged));
    assert_eq!(
        provenance::export_provn_canonical(&mem),
        provenance::export_provn_canonical(&paged),
        "canonical PROV-N must be byte-identical across backings"
    );
    paged.verify_integrity().expect("paged structural invariants hold");
    assert!(
        paged.cache_stats().hits > 0,
        "queries over the paged store must actually go through the page cache"
    );
}

/// Write `n` finished activations (0–2 files, 0–2 parameters, 0–3 tuples
/// each, every third one over a `RUNNING` row that was there first) either
/// as the per-row call sequence a finished activation used to be, or as
/// one `commit_activation` each.
fn finished_stream(p: &ProvenanceStore, n: usize, whole: bool) {
    let w = p.begin_workflow("SciDock", "docking campaign", "/root/exp_SciDock");
    let act = p.register_activity(w, "autodockvina1k", "Map");
    for i in 0..n {
        let running = ActivationRecord {
            activity: act,
            workflow: w,
            status: ActivationStatus::Running,
            start_time: i as f64,
            end_time: i as f64,
            machine: None,
            retries: (i % 3) as i64,
            pair_key: format!("2HHN:{i:03}"),
        };
        let finished = ActivationRecord {
            status: ActivationStatus::Finished,
            end_time: i as f64 + 4.5,
            ..running.clone()
        };
        let names = [format!("out_{i}.dlg"), format!("out_{i}.log")];
        let files: Vec<(&str, i64, &str)> =
            names[..i % 3].iter().map(|n| (n.as_str(), 100 + i as i64, "/e/vina/")).collect();
        let all_params = [
            ("feb".to_string(), Some(-6.0 - i as f64 / 8.0), None),
            ("pose".to_string(), None, Some(format!("pose{i}"))),
        ];
        let params = &all_params[..(i + 1) % 3];
        let all_tuples =
            [vec![Value::Float(-6.5), Value::Text(format!("t{i}"))], vec![], vec![Value::Int(7)]];
        let tuples = &all_tuples[..i % 4];
        // as the steering bridge would have: a RUNNING row published earlier
        let published = (i % 3 == 0).then(|| p.record_activation(&running));
        if whole {
            p.commit_activation(published, &finished, &files, params, tuples);
            continue;
        }
        let t = published.unwrap_or_else(|| p.record_activation(&running));
        for (name, size, dir) in files {
            p.record_file(t, act, w, name, size, dir);
        }
        for (name, num, text) in params {
            p.record_parameter(t, w, name, *num, text.as_deref());
        }
        for (ti, tuple) in tuples.iter().enumerate() {
            p.record_output_tuple(t, act, w, &finished.pair_key, ti, tuple);
        }
        assert!(p.update_activation(t, &finished));
    }
}

#[test]
fn commit_activation_writes_the_rows_of_the_per_row_calls() {
    // same ids, same values, same order within every table — on both
    // backings, and again after the whole-activation records are replayed
    let per_row = ProvenanceStore::new();
    finished_stream(&per_row, 24, false);
    let expect = per_row.dump_tables();
    let provn = provenance::export_provn_canonical(&per_row);

    let env = MemEnv::new();
    let durable = ProvenanceStore::open_env(Box::new(env.clone()), sync_options()).unwrap();
    for (whole, store) in [
        (false, ProvenanceStore::new_paged()),
        (true, ProvenanceStore::new()),
        (true, ProvenanceStore::new_paged()),
        (true, durable),
    ] {
        finished_stream(&store, 24, whole);
        assert_eq!(store.dump_tables(), expect, "whole = {whole}, paged = {}", store.is_paged());
        assert_eq!(provenance::export_provn_canonical(&store), provn);
        store.verify_integrity().expect("paged structural invariants hold");
    }
    let replayed = ProvenanceStore::open_env(Box::new(env), sync_options()).unwrap();
    assert_eq!(replayed.dump_tables(), expect);
    assert_eq!(observe(&replayed), observe(&per_row));
}

#[test]
fn clean_reopen_on_disk_answers_every_query_identically() {
    let dir = TempDir::new("parity-clean");
    let open = || {
        let env = DirEnv::new(dir.path()).unwrap();
        ProvenanceStore::open_env(Box::new(env), sync_options()).unwrap()
    };

    let p = open();
    populate(&p, FULL);
    let before = observe(&p);
    assert_eq!(before, reference(FULL), "durable and in-memory stores agree while open");
    drop(p);

    // reopen #1: recovery is pure WAL replay
    let p = open();
    let after = observe(&p);
    assert_eq!(after.provn, before.provn, "PROV-N export is byte-identical after WAL replay");
    assert_eq!(after, before);

    // checkpoint, then reopen #2: recovery is snapshot + empty WAL
    assert!(p.checkpoint(), "checkpoint must succeed on a durable store");
    drop(p);
    let p = open();
    let after = observe(&p);
    assert_eq!(after.provn, before.provn, "PROV-N export is byte-identical after snapshot load");
    assert_eq!(after, before);
}

#[test]
fn crash_recovered_store_answers_like_its_committed_prefix() {
    // crash at several depths: early (schema only), mid-stream, near the end
    for crash_at in [3usize, 17, 29, FULL - 1] {
        let env = MemEnv::new();
        // append #1 is the WAL header, so call n is append n + 1
        let fault = FaultEnv::new(
            Box::new(env.clone()),
            Arc::new(FaultPlan::panic_after(crash_at as u64 + 1)),
        );
        let p = ProvenanceStore::open_env(Box::new(fault), sync_options()).unwrap();
        let died = catch_unwind(AssertUnwindSafe(|| populate(&p, FULL))).is_err();
        assert!(died, "the injected fault must fire (crash_at {crash_at})");
        // a killed process runs no destructors
        std::mem::forget(p);

        let rp = ProvenanceStore::open_env(Box::new(env), sync_options()).unwrap();
        assert!(rp.is_paged(), "durable stores recover onto the paged backing");
        rp.verify_integrity().expect("recovered paged store passes structural checks");
        assert_eq!(
            observe(&rp),
            reference(crash_at),
            "recovered store at crash point {crash_at} answers exactly like \
             an in-memory store holding the committed prefix"
        );
    }
}

#[test]
fn torn_tail_on_disk_still_answers_like_a_committed_prefix() {
    let dir = TempDir::new("parity-torn");
    let wal_path = dir.path().join("wal.log");
    let p = ProvenanceStore::open_env(Box::new(DirEnv::new(dir.path()).unwrap()), sync_options())
        .unwrap();
    populate(&p, FULL);
    drop(p);

    // tear the on-disk log: keep 70% and smear a torn half-frame of junk
    let wal = std::fs::read(&wal_path).unwrap();
    let mut torn = wal[..wal.len() * 7 / 10].to_vec();
    torn.extend_from_slice(&[0xAB; 11]);
    std::fs::write(&wal_path, torn).unwrap();

    let rp = ProvenanceStore::open_env(Box::new(DirEnv::new(dir.path()).unwrap()), sync_options())
        .unwrap();
    rp.verify_integrity().expect("recovered paged store passes structural checks");
    let got = observe(&rp);
    // the recovered state must be *some* committed prefix — find it and
    // require full query parity at that depth
    let m = (0..=FULL)
        .rev()
        .find(|&m| reference(m) == got)
        .expect("recovered queries match no call prefix");
    assert!(m < FULL, "truncation must have lost the tail");
    assert!(m > 0, "70% of the WAL holds more than zero calls");
}
