//! The local execution backend: runs workflow activations *for real* on
//! worker threads of this process — one campaign of the crate's run scope
//! (`serve`'s directory), whose engine runs it over the thread port — with
//! provenance capture, failure injection, retry, and poison-input
//! blacklisting.
//!
//! This is the backend SciDock's biological results (Table 3) come from;
//! cloud-scale timing studies use [`crate::simbackend`] instead. It reads
//! the fleet, run and endpoint fields of its [`RunConfig`](crate::RunConfig):
//! `workers` threads, clamped into the fleet bounds.
//!
//! Dispatch is ready-driven dataflow (the private `dispatch` module): the
//! instant one pair's activity-N activation finishes, its output tuples flow
//! into activity N+1 activations, while slower pairs are still in activity
//! N. Barriers remain only where the algebra requires the whole input
//! relation — `Reduce` (group boundaries unknown until every upstream tuple
//! exists) and `SRQuery`/`MRQuery` (relation-level queries). A chain of
//! Map-like activities therefore pays `max over pairs of sum(chain)` instead
//! of `sum over activities of max(stage)`.
//!
//! What happens to each activation is the private `lifecycle` module's
//! business, and failure fates are keyed by `(activity tag, pair key,
//! attempt)` — schedule-order independent — so every thread count (and every
//! backend) finishes/fails/aborts/blacklists the *same* activations and
//! fills provenance with the same rows (tuple order within a relation and
//! workdir numbering differ: activations are numbered by arrival).

use std::sync::Arc;

use provenance::ProvenanceStore;

use crate::backend::{Backend, LocalBackend, RunReport, Workflow};
use crate::error::CumulusError;
use crate::serve::Directory;

/// A run on threads of this process: the one campaign of a directory — the
/// run scope `scidockd` turns too — whose engine holds it over the thread
/// port's fleet by the daemon's rule (`workers` clamped into the bounds,
/// fixed without a `scheduler`), turned on the calling thread.
impl Backend for LocalBackend {
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunReport, CumulusError> {
        wf.def.validate().map_err(CumulusError::Invalid)?;
        let store = Arc::clone(store);
        let mut dir =
            Directory::on_threads(self.cfg.clone(), Arc::new(|_| None), store, "cumulus-worker")?;
        let mut report = dir.run_one(wf.clone(), "dispatcher")?;
        report.metrics = dir.close();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Relation;
    use crate::obs::BoundAddr;
    use crate::serve::RunConfig;
    use crate::workflow::{Activity, FileStore, WorkflowDef};
    use cloudsim::FailureModel;
    use provenance::Value;
    use provenance::WorkflowId;
    use std::time::Instant;
    use telemetry::Telemetry;

    /// `def` over `input` through the local backend.
    fn run_local(
        def: &WorkflowDef,
        input: Relation,
        files: Arc<FileStore>,
        prov: Arc<ProvenanceStore>,
        cfg: &RunConfig,
    ) -> Result<RunReport, CumulusError> {
        let wf = Workflow { def: def.clone(), input, files };
        LocalBackend::new(cfg.clone()).run(&wf, &prov)
    }

    fn double_fn() -> crate::workflow::ActivityFn {
        Arc::new(|tuples, _ctx| {
            Ok(tuples
                .iter()
                .map(|t| {
                    let n = t[0].as_f64().unwrap_or(0.0);
                    vec![Value::Float(n * 2.0)]
                })
                .collect())
        })
    }

    fn input(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for k in 0..n {
            r.push(vec![Value::Int(k)]);
        }
        r
    }

    fn simple_workflow() -> WorkflowDef {
        WorkflowDef {
            tag: "test".into(),
            description: "test wf".into(),
            expdir: "/exp".into(),
            activities: vec![
                Activity::map("double", &["x"], double_fn()),
                Activity::map("double2", &["x"], double_fn()),
            ],
            deps: vec![vec![], vec![0]],
        }
    }

    #[test]
    fn chain_executes_and_collects() {
        let report = run_local(
            &simple_workflow(),
            input(10),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        assert_eq!(report.finished, 20); // 10 activations × 2 activities
        assert_eq!(report.final_output().len(), 10);
        let mut got: Vec<f64> =
            report.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, (0..10).map(|k| k as f64 * 4.0).collect::<Vec<_>>());
    }

    #[test]
    fn provenance_rows_recorded() {
        let prov = Arc::new(ProvenanceStore::new());
        let _ = run_local(
            &simple_workflow(),
            input(5),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[])
            .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(10));
        let acts = prov.query_rows("SELECT tag FROM hactivity ORDER BY actid", &[]).unwrap();
        assert_eq!(acts.len(), 2);
        assert_eq!(acts.cell(0, 0), &Value::from("double"));
    }

    #[test]
    fn files_and_params_recorded() {
        let func: crate::workflow::ActivityFn = Arc::new(|tuples, ctx| {
            ctx.write_file("result.dlg", "DOCKED blah");
            ctx.record_param("feb", Some(-6.5), None);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/root/exp".into(),
            activities: vec![Activity::map("dock", &["x"], func)],
            deps: vec![vec![]],
        };
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let _ = run_local(
            &wf,
            input(3),
            Arc::clone(&files),
            Arc::clone(&prov),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        let r =
            prov.query_rows("SELECT fname, fdir FROM hfile WHERE fname LIKE '%.dlg'", &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.cell(0, 0), &Value::from("result.dlg"));
        assert!(r.cell(0, 1).to_string().starts_with("/root/exp/dock/"));
        let p = prov
            .query_rows("SELECT avg(pvalue_num) FROM hparameter WHERE pname = 'feb'", &[])
            .unwrap();
        assert_eq!(p.cell(0, 0), &Value::Float(-6.5));
        assert_eq!(files.len(), 3);
    }

    #[test]
    fn failures_are_retried() {
        let cfg = RunConfig {
            workers: 4,
            failures: FailureModel {
                fail_rate: 0.3,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 5,
            },
            max_retries: 10,
            ..Default::default()
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local(
            &simple_workflow(),
            input(30),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .unwrap();
        // with generous retries every activation eventually finishes
        assert_eq!(report.finished, 60);
        assert!(report.failed_attempts > 0, "the 30% fail rate must bite");
        let failed = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap();
        assert_eq!(
            failed.cell(0, 0),
            &Value::Int(report.failed_attempts as i64),
            "provenance sees every failed attempt"
        );
    }

    #[test]
    fn hangs_are_aborted_and_dropped() {
        let cfg = RunConfig {
            workers: 2,
            failures: FailureModel {
                fail_rate: 0.0,
                hang_rate: 0.5,
                fail_at_fraction: 0.5,
                seed: 2,
            },
            max_retries: 1,
            ..Default::default()
        };
        let report = run_local(
            &simple_workflow(),
            input(40),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert!(report.aborted > 5, "half the activations should hang");
        // dropped tuples shrink downstream relations
        assert!(report.final_output().len() < 40);
        assert_eq!(report.finished + report.aborted, 40 + report.outputs[0].len());
    }

    #[test]
    fn blacklist_skips_execution() {
        let mut wf = simple_workflow();
        wf.activities[0] = wf.activities[0]
            .clone()
            .with_blacklist(Arc::new(|t| matches!(t[0], Value::Int(k) if k % 2 == 0)));
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local(
            &wf,
            input(10),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        assert_eq!(report.blacklisted, 5);
        assert_eq!(report.final_output().len(), 5);
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'BLACKLISTED'", &[])
            .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(5));
    }

    #[test]
    fn invalid_workflow_rejected() {
        let mut wf = simple_workflow();
        wf.deps = vec![vec![], vec![5]];
        let err = run_local(
            &wf,
            input(1),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap_err();
        assert!(matches!(err, CumulusError::Invalid(_)));
    }

    #[test]
    fn domain_errors_count_as_failures() {
        let func: crate::workflow::ActivityFn =
            Arc::new(|_t, _c| Err(crate::workflow::ActivityError("bad input".into())));
        let wf = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("always_fails", &["x"], func)],
            deps: vec![vec![]],
        };
        let cfg = RunConfig { workers: 4, max_retries: 2, ..Default::default() };
        let report = run_local(
            &wf,
            input(4),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 0);
        assert_eq!(report.failed_attempts, 4 * 3); // initial + 2 retries each
        assert!(report.final_output().is_empty());
    }

    #[test]
    fn splitmap_reduce_query_pipeline() {
        use crate::algebra::Operator;
        // SplitMap: each input k fans out to k copies
        let split: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let n = tuples[0][0].as_f64().unwrap_or(0.0) as i64;
            Ok((0..n).map(|_| vec![Value::Int(n), Value::Int(1)]).collect())
        });
        // Reduce by the key column: sum the counts
        let reduce: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let key = tuples[0][0].clone();
            let total: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
            Ok(vec![vec![key, Value::Float(total)]])
        });
        // SRQuery: one activation totalling everything
        let query: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let grand: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
            Ok(vec![vec![Value::Float(grand)]])
        });
        let wf = WorkflowDef {
            tag: "algebra".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("fanout", &["k", "one"], split).with_operator(Operator::SplitMap),
                Activity::map("sum_by_k", &["k", "total"], reduce)
                    .with_operator(Operator::Reduce { keys: vec!["k".into()] }),
                Activity::map("grand_total", &["grand"], query).with_operator(Operator::SRQuery),
            ],
            deps: vec![vec![], vec![0], vec![1]],
        };
        let mut rel = Relation::new(&["k"]);
        for k in [2i64, 3, 4] {
            rel.push(vec![Value::Int(k)]);
        }
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local(
            &wf,
            rel,
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        // fanout: 3 activations producing 2+3+4 = 9 tuples
        assert_eq!(report.outputs[0].len(), 9);
        // reduce: 3 groups (k = 2, 3, 4), each summing to k
        assert_eq!(report.outputs[1].len(), 3);
        for t in &report.outputs[1].tuples {
            assert_eq!(t[0].as_f64(), t[1].as_f64(), "group sum equals its key");
        }
        // SRQuery: one tuple with the grand total 9
        assert_eq!(report.final_output().len(), 1);
        assert_eq!(report.final_output().tuples[0][0].as_f64(), Some(9.0));
        // activation counts in provenance: 3 + 3 + 1
        let q = prov
            .query_rows(
                "SELECT a.tag, count(*) FROM hactivity a, hactivation t \
                 WHERE a.actid = t.actid GROUP BY a.tag ORDER BY a.tag",
                &[],
            )
            .unwrap();
        let counts: Vec<(String, f64)> =
            q.rows.iter().map(|r| (r[0].to_string(), r[1].as_f64().unwrap())).collect();
        assert_eq!(
            counts,
            vec![
                ("fanout".to_string(), 3.0),
                ("grand_total".to_string(), 1.0),
                ("sum_by_k".to_string(), 3.0)
            ]
        );
    }

    #[test]
    fn resume_skips_finished_activations() {
        // first run: every activation fails permanently for half the tuples
        let func_calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let fc = Arc::clone(&func_calls);
        let func: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            fc.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "resumable".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("work", &["x"], func)],
            deps: vec![vec![]],
        };
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        // run 1: heavy failures, no retries -> some tuples dropped
        let cfg1 = RunConfig {
            workers: 2,
            failures: FailureModel {
                fail_rate: 0.5,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 9,
            },
            max_retries: 0,
            resume_from: None,
            ..Default::default()
        };
        let r1 = run_local(&wf, input(20), Arc::clone(&files), Arc::clone(&prov), &cfg1).unwrap();
        assert!(r1.finished < 20, "some activations must drop");
        assert!(r1.failed_attempts > 0);
        let calls_after_run1 = func_calls.load(std::sync::atomic::Ordering::SeqCst);

        // run 2: resume from run 1 with failures off — only the dropped
        // activations execute
        let cfg2 = RunConfig {
            workers: 2,
            failures: FailureModel::none(),
            max_retries: 0,
            resume_from: Some(r1.workflow),
            ..Default::default()
        };
        let r2 = run_local(&wf, input(20), Arc::clone(&files), Arc::clone(&prov), &cfg2).unwrap();
        assert_eq!(r2.resumed, r1.finished, "every finished activation is reused");
        assert_eq!(r2.finished + r2.resumed, 20, "the full relation is recovered");
        assert_eq!(r2.final_output().len(), 20);
        let calls_after_run2 = func_calls.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(
            calls_after_run2 - calls_after_run1,
            20 - r1.finished,
            "the function only runs for previously-dropped tuples"
        );
    }

    #[test]
    fn resume_preserves_tuple_values() {
        let wf = simple_workflow();
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let r1 = run_local(
            &wf,
            input(5),
            Arc::clone(&files),
            Arc::clone(&prov),
            &RunConfig { workers: 4, ..RunConfig::default() },
        )
        .unwrap();
        let cfg2 = RunConfig { workers: 4, resume_from: Some(r1.workflow), ..Default::default() };
        let r2 = run_local(&wf, input(5), files, Arc::clone(&prov), &cfg2).unwrap();
        assert_eq!(r2.resumed, 10, "both activities fully resumed");
        assert_eq!(r2.finished, 0);
        let mut a: Vec<f64> =
            r1.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        let mut b: Vec<f64> =
            r2.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "resumed relation is value-identical");
    }

    // ---- thread-count parity & pipelining behavior ----

    /// Tuples of a relation, sorted into a canonical order for comparison
    /// (outputs are collected in completion order).
    fn sorted_tuples(rel: &Relation) -> Vec<String> {
        let mut v: Vec<String> = rel
            .tuples
            .iter()
            .map(|t| t.iter().map(|x| x.to_string()).collect::<Vec<_>>().join("|"))
            .collect();
        v.sort();
        v
    }

    fn status_counts(prov: &ProvenanceStore, wkf: WorkflowId) -> Vec<(String, i64)> {
        let q = prov
            .query_rows(
                "SELECT status, count(*) FROM hactivation \
                 GROUP BY status ORDER BY status",
                &[],
            )
            .unwrap();
        let _ = wkf;
        q.rows.iter().map(|r| (r[0].to_string(), r[1].as_f64().unwrap() as i64)).collect()
    }

    /// A messy workflow: fan-out, routing, blacklist, reduce, query — the
    /// whole algebra — run serially (the deterministic order) and on four
    /// threads with failures and hangs on. Every aggregate the engine
    /// reports, and the canonical provenance, must match.
    #[test]
    fn one_thread_matches_four_threads_semantics() {
        use crate::algebra::Operator;
        let mk_wf = || {
            let split: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let n = tuples[0][0].as_f64().unwrap_or(0.0) as i64;
                Ok((0..(n % 3) + 1).map(|j| vec![Value::Int(n), Value::Int(j)]).collect())
            });
            let work: crate::workflow::ActivityFn = Arc::new(|tuples, ctx| {
                ctx.write_file("out.txt", "x");
                Ok(tuples
                    .iter()
                    .map(|t| vec![t[0].clone(), Value::Float(t[1].as_f64().unwrap_or(0.0) * 10.0)])
                    .collect())
            });
            let reduce: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let key = tuples[0][0].clone();
                let total: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
                Ok(vec![vec![key, Value::Float(total)]])
            });
            let query: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let grand: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
                Ok(vec![vec![Value::Float(grand)]])
            });
            WorkflowDef {
                tag: "parity".into(),
                description: String::new(),
                expdir: "/e".into(),
                activities: vec![
                    Activity::map("fanout", &["k", "j"], split).with_operator(Operator::SplitMap),
                    Activity::map("work", &["k", "v"], work)
                        .with_blacklist(Arc::new(|t| matches!(t[0], Value::Int(k) if k == 7))),
                    Activity::map("sum_k", &["k", "total"], reduce)
                        .with_operator(Operator::Reduce { keys: vec!["k".into()] }),
                    Activity::map("grand", &["grand"], query).with_operator(Operator::SRQuery),
                ],
                deps: vec![vec![], vec![0], vec![1], vec![2]],
            }
        };
        let failures =
            FailureModel { fail_rate: 0.15, hang_rate: 0.05, fail_at_fraction: 0.5, seed: 42 };
        let run = |threads: usize| {
            let prov = Arc::new(ProvenanceStore::new());
            let cfg = RunConfig {
                workers: threads,
                failures,
                max_retries: 2,
                resume_from: None,
                ..Default::default()
            };
            let rep =
                run_local(&mk_wf(), input(25), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                    .unwrap();
            (rep, prov)
        };
        let (serial, sprov) = run(1);
        let (parallel, pprov) = run(4);

        assert_eq!(parallel.finished, serial.finished);
        assert_eq!(parallel.failed_attempts, serial.failed_attempts);
        assert_eq!(parallel.aborted, serial.aborted);
        assert_eq!(parallel.blacklisted, serial.blacklisted);
        assert_eq!(parallel.resumed, serial.resumed);
        assert!(
            serial.failed_attempts > 0 && serial.aborted > 0 && serial.blacklisted > 0,
            "the parity scenario must actually exercise failures/hangs/blacklist"
        );
        assert_eq!(parallel.outputs.len(), serial.outputs.len());
        for (p, s) in parallel.outputs.iter().zip(&serial.outputs) {
            assert_eq!(sorted_tuples(p), sorted_tuples(s), "per-activity relations match");
        }
        assert_eq!(
            status_counts(&pprov, parallel.workflow),
            status_counts(&sprov, serial.workflow),
            "identical provenance row counts per status"
        );
        assert_eq!(
            provenance::export_provn_canonical(&pprov),
            provenance::export_provn_canonical(&sprov),
            "canonical provenance is byte-identical across thread counts"
        );
    }

    /// The point of the tentpole: an activity-1 straggler must not stop
    /// other pairs from reaching activity 2.
    #[test]
    fn straggler_does_not_block_downstream() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t0 = Instant::now();
        let slow: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            if tuples[0][0] == Value::Int(0) {
                std::thread::sleep(std::time::Duration::from_millis(400));
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(tuples.to_vec())
        });
        let reached = Arc::new(AtomicUsize::new(0));
        let first_entry_ms = Arc::new(AtomicUsize::new(usize::MAX));
        let (rc, fe) = (Arc::clone(&reached), Arc::clone(&first_entry_ms));
        let second: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            rc.fetch_add(1, Ordering::SeqCst);
            fe.fetch_min(t0.elapsed().as_millis() as usize, Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "straggler".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("slow_stage", &["x"], slow),
                Activity::map("fast_stage", &["x"], second),
            ],
            deps: vec![vec![], vec![0]],
        };
        let cfg = RunConfig { workers: 4, ..Default::default() };
        let report = run_local(
            &wf,
            input(8),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 16);
        // pair 0 held activity 1 for ~400 ms; the other 7 pairs must have
        // entered activity 2 long before that
        let first = first_entry_ms.load(Ordering::SeqCst);
        assert!(
            first < 300,
            "first pair reached activity 2 after {first} ms — pipelining is not happening"
        );
    }

    /// Diamond dependencies (two upstreams into one consumer) with routing
    /// stay correct under streaming delivery.
    #[test]
    fn diamond_with_route_filter_parity() {
        let ident: crate::workflow::ActivityFn = Arc::new(|t, _| Ok(t.to_vec()));
        let mk = || WorkflowDef {
            tag: "diamond".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("src_a", &["x"], Arc::clone(&ident)),
                Activity::map("src_b", &["x"], Arc::clone(&ident)),
                Activity::map("join", &["x"], Arc::clone(&ident)).with_route("x", Value::Int(3)),
            ],
            deps: vec![vec![], vec![], vec![0, 1]],
        };
        let run = |threads| {
            run_local(
                &mk(),
                input(6),
                Arc::new(FileStore::new()),
                Arc::new(ProvenanceStore::new()),
                &RunConfig { workers: threads, ..Default::default() },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        // both sources emit 0..6; the route keeps only x == 3, twice
        assert_eq!(serial.final_output().len(), 2);
        assert_eq!(sorted_tuples(parallel.final_output()), sorted_tuples(serial.final_output()));
        assert_eq!(parallel.finished, serial.finished);
    }

    // ---- telemetry & live steering ----

    /// Split a Chrome-trace string into its event objects (each starts with
    /// `{"ph":`) — enough structure for the assertions below without a JSON
    /// parser in the test.
    fn trace_events(trace: &str) -> Vec<&str> {
        let starts: Vec<usize> = trace.match_indices("{\"ph\":").map(|(i, _)| i).collect();
        starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let e = starts.get(k + 1).copied().unwrap_or(trace.len());
                &trace[s..e]
            })
            .collect()
    }

    fn event_field_u64(ev: &str, key: &str) -> Option<u64> {
        let i = ev.find(key)? + key.len();
        let rest = &ev[i..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Acceptance: a pipelined run with a sink attached exports valid
    /// Chrome-trace JSON whose activation spans — which enclose `settle` —
    /// all sit on the worker-thread tracks, none on the engine's, and its
    /// report carries a metrics snapshot.
    #[test]
    fn pipelined_run_exports_chrome_trace_with_nested_activation_spans() {
        let tel = Telemetry::attached();
        let cfg = RunConfig { workers: 2, telemetry: tel.clone(), ..Default::default() };
        let report = run_local(
            &simple_workflow(),
            input(6),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 12);

        // the metrics snapshot rode along on the report
        let snap = report.metrics.as_ref().expect("sink attached => metrics present");
        let h = snap.histogram("activation.double").expect("per-activity histogram");
        assert_eq!(h.count, 6);
        assert!(h.p95_s >= h.p50_s);

        let trace = tel.export_chrome_trace().unwrap();
        telemetry::json::validate(&trace).unwrap_or_else(|off| {
            panic!("invalid trace JSON at byte {off}: …{}…", &trace[off.saturating_sub(40)..off])
        });

        let evs = trace_events(&trace);
        let tids_named = |name: &str| -> std::collections::HashSet<u64> {
            evs.iter()
                .filter(|e| e.starts_with("{\"ph\":\"M\"") && e.contains(name))
                .filter_map(|e| event_field_u64(e, "\"tid\":"))
                .collect()
        };
        let worker_tids = tids_named("\"cumulus-worker-");
        let dispatcher = tids_named("\"dispatcher\"");
        assert_eq!(worker_tids.len(), 2, "one named track per worker thread");
        assert_eq!(dispatcher.len(), 1, "the engine thread names its track");
        let activation_tids: Vec<u64> = evs
            .iter()
            .filter(|e| e.starts_with("{\"ph\":\"X\"") && e.contains("\"cat\":\"activation\""))
            .filter_map(|e| event_field_u64(e, "\"tid\":"))
            .collect();
        assert_eq!(activation_tids.len(), 12, "one activation span per attempt");
        for tid in activation_tids {
            assert!(worker_tids.contains(&tid), "activation span on track {tid}: {trace}");
            assert!(!dispatcher.contains(&tid), "an activation settled on the engine thread");
        }
    }

    /// A one-shot run is a campaign like any other: mid-run, `/campaigns`
    /// lists it as one `running` row whose progress never exceeds what was
    /// submitted.
    #[test]
    fn a_one_shot_run_shows_up_on_campaigns_mid_run() {
        use std::time::Duration;
        let slow: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "slow".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("slow", &["x"], slow)],
            deps: vec![vec![]],
        };
        let bound = BoundAddr::new();
        let mut cfg = RunConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..RunConfig::default()
        };
        cfg.metrics_bound = Some(bound.clone());
        let run = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_local(&wf, input(8), Arc::new(FileStore::new()), prov, &cfg)
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("the endpoint comes up");
        let mut running = None;
        while running.is_none() && !run.is_finished() {
            // the endpoint goes with the run
            let scraped = crate::obs::http_get(addr, "/campaigns", Duration::from_secs(2));
            let Ok((code, body)) = scraped else { break };
            assert_eq!(code, 200);
            if body.contains("\"state\":\"running\"") {
                running = Some(body);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = run.join().expect("run thread").expect("run");
        assert_eq!(report.finished, 8);
        let body = running.expect("/campaigns never listed the run while it ran");
        telemetry::json::validate(&body).expect("valid campaigns JSON");
        assert_eq!(body.matches("\"id\":").count(), 1, "one campaign: {body}");
        let done = event_field_u64(&body, "\"done\":").expect("done");
        let total = event_field_u64(&body, "\"total\":").expect("total");
        assert!(done <= total && total <= 8, "{body}");
    }

    /// Run 8 slow activations on an endpoint with `events` as the caller's
    /// log, and return what `/events` served once it showed the run's
    /// `campaign_started` and an `activation_finished`, mid-run.
    fn scrape_events_mid_run(events: Option<crate::obs::EventLog>) -> String {
        use std::time::Duration;
        let slow: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "slow".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("slow", &["x"], slow)],
            deps: vec![vec![]],
        };
        let bound = BoundAddr::new();
        let mut cfg = RunConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..RunConfig::default()
        };
        cfg.metrics_bound = Some(bound.clone());
        cfg.events = events;
        let run = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_local(&wf, input(8), Arc::new(FileStore::new()), prov, &cfg)
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("the endpoint comes up");
        let shows = |body: &str, kind: &str| body.contains(&format!("\"kind\":\"{kind}\""));
        let mut seen = None;
        while seen.is_none() && !run.is_finished() {
            let scraped = crate::obs::http_get(addr, "/events", Duration::from_secs(2));
            let Ok((code, body)) = scraped else { break };
            assert_eq!(code, 200);
            if shows(&body, "campaign_started") && shows(&body, "activation_finished") {
                seen = Some(body);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(run.join().expect("run thread").expect("run").finished, 8);
        let body = seen.expect("/events never showed the run's events while it ran");
        for line in body.lines() {
            telemetry::json::validate(line).expect("valid event JSON");
        }
        body
    }

    /// A run scope has one event log: with an endpoint and no log of the
    /// caller's, `/events` serves what the engine and the run emit into the
    /// ring the scope made for it, mid-run.
    #[test]
    fn an_endpoint_without_a_callers_log_serves_the_runs_events_mid_run() {
        scrape_events_mid_run(None);
    }

    /// A caller's file log buffers nothing on its own, but under an endpoint
    /// the scope turns its ring on: `/events` serves the run mid-run and the
    /// file still gets every event.
    #[test]
    fn an_endpoint_over_a_callers_file_log_serves_the_runs_events_and_writes_the_file() {
        let path = std::env::temp_dir()
            .join(format!("localbackend-file-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = crate::obs::EventLog::with_file(&path).expect("the event file");
        scrape_events_mid_run(Some(log.clone()));
        let written = std::fs::read_to_string(&path).expect("the event file");
        let _ = std::fs::remove_file(&path);
        assert_eq!(written.lines().count() as u64, log.len(), "every event written");
        assert!(written.contains("\"kind\":\"campaign_finished\""), "{written}");
    }

    /// `threads = 0` runs on the one thread it is clamped to, and says so.
    #[test]
    fn zero_threads_runs_on_one_and_reports_it() {
        let report = run_local(
            &simple_workflow(),
            input(5),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &RunConfig { workers: 0, ..RunConfig::default() },
        )
        .unwrap();
        assert_eq!(report.finished, 10);
        assert_eq!(report.peak_workers, 1);
    }

    /// A `max_active` of 0, set as a field, is read as one: the run's one
    /// campaign starts and the run returns. It runs on its own thread, so a
    /// run that never returns fails the test instead of hanging it.
    #[test]
    fn a_zero_max_active_still_starts_the_run() {
        let cfg = RunConfig { max_active: 0, ..RunConfig::default() };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            let files = Arc::new(FileStore::new());
            let report = run_local(&simple_workflow(), input(3), files, prov, &cfg);
            let _ = done_tx.send(report.map(|r| r.finished));
        });
        let finished = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the run returns within 10 s");
        assert_eq!(finished.expect("the run succeeds"), 6);
    }

    /// Acceptance: with `steering_tick` set, `steering::status_summary`
    /// answers *during* the run — activations observe other activations as
    /// RUNNING — and no RUNNING rows survive the run.
    #[test]
    fn steering_tick_exposes_running_rows_mid_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let prov = Arc::new(ProvenanceStore::new());
        let max_running_seen = Arc::new(AtomicUsize::new(0));
        let (p2, seen) = (Arc::clone(&prov), Arc::clone(&max_running_seen));
        let func: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            // give the 10 ms ticker time to publish this attempt, then ask
            // the steering API what is in flight right now
            std::thread::sleep(std::time::Duration::from_millis(60));
            let running = provenance::steering::status_summary(&p2)
                .unwrap()
                .into_iter()
                .find(|s| s.status == "RUNNING")
                .map(|s| s.count as usize)
                .unwrap_or(0);
            seen.fetch_max(running, Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "live".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("slow", &["x"], func)],
            deps: vec![vec![]],
        };
        let cfg = RunConfig {
            workers: 4,
            steering_tick: Some(std::time::Duration::from_millis(10)),
            ..Default::default()
        };
        let report =
            run_local(&wf, input(8), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg).unwrap();
        assert_eq!(report.finished, 8);
        assert!(
            max_running_seen.load(Ordering::SeqCst) >= 1,
            "a mid-run steering query must see in-flight activations as RUNNING"
        );
        // every RUNNING row was replaced in place by its terminal row
        let statuses = status_counts(&prov, report.workflow);
        assert_eq!(statuses, vec![("FINISHED".to_string(), 8)]);
    }

    /// Satellite: the steering queries themselves agree across thread
    /// counts on a failure-heavy workload.
    #[test]
    fn steering_queries_agree_across_thread_counts() {
        use provenance::steering;
        let failures =
            FailureModel { fail_rate: 0.3, hang_rate: 0.05, fail_at_fraction: 0.5, seed: 11 };
        let run = |threads| {
            let prov = Arc::new(ProvenanceStore::new());
            let cfg = RunConfig {
                workers: threads,
                failures,
                max_retries: 2,
                steering_tick: Some(std::time::Duration::from_millis(5)),
                ..Default::default()
            };
            let rep = run_local(
                &simple_workflow(),
                input(30),
                Arc::new(FileStore::new()),
                Arc::clone(&prov),
                &cfg,
            )
            .unwrap();
            (rep, prov)
        };
        let (srep, sprov) = run(1);
        let (_prep, pprov) = run(4);
        assert!(srep.failed_attempts > 0, "scenario must exercise failures");

        let ssum = steering::status_summary(&sprov).unwrap();
        let psum = steering::status_summary(&pprov).unwrap();
        assert_eq!(
            ssum.iter().map(|s| (s.status.clone(), s.count)).collect::<Vec<_>>(),
            psum.iter().map(|s| (s.status.clone(), s.count)).collect::<Vec<_>>(),
            "status_summary must agree across thread counts (and hold no RUNNING residue)"
        );
        assert!(ssum.iter().all(|s| s.status != "RUNNING"));
        assert_eq!(
            steering::failures_by_activity(&sprov).unwrap(),
            steering::failures_by_activity(&pprov).unwrap(),
            "failures_by_activity must agree across thread counts"
        );
    }
}
