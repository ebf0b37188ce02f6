//! Property tests for the durable storage engine's recovery invariant:
//! **any byte prefix of the WAL recovers to a committed prefix of the
//! mutation sequence** — never a torn record, never reordered state.
//!
//! A seeded driver applies a random mutation sequence to a store; each
//! top-level call — a per-row mutation or a whole `commit_activation` —
//! commits exactly one WAL frame, so "prefix of calls" and "prefix of
//! frames" coincide. The tests then cut the WAL at random byte offsets (with
//! and without garbage tails), or kill the store with a fault-injected panic
//! mid-sequence, reopen, and require the recovered tables to be byte-equal
//! to one of the prefix states — and, a record being atomic, to hold no
//! output row of an activation whose `hactivation` row is missing.
//!
//! The same file holds the deterministic checks of the two policies that
//! count *mutations* rather than frames: the checkpoint rule and the
//! group-commit cadence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};
use provenance::provwf::{ActivationRecord, ActivationStatus, ActivityId, TaskId, WorkflowId};
use provenance::{Durability, DurableOptions, ProvenanceStore, Value};
use telemetry::Telemetry;

/// SplitMix64 — the driver's own deterministic RNG, independent of the
/// proptest shim internals.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const STATUSES: [ActivationStatus; 5] = [
    ActivationStatus::Finished,
    ActivationStatus::Failed,
    ActivationStatus::Aborted,
    ActivationStatus::Blacklisted,
    ActivationStatus::Running,
];

/// Apply exactly `steps` mutations to `p`, deterministically from `seed`.
/// Two stores driven with the same `(seed, steps)` receive identical calls
/// and allocate identical ids.
fn drive(p: &ProvenanceStore, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut wkfs: Vec<WorkflowId> = Vec::new();
    let mut acts: Vec<(ActivityId, WorkflowId)> = Vec::new();
    let mut tasks: Vec<(TaskId, ActivityId, WorkflowId)> = Vec::new();
    for i in 0..steps {
        // ensure prerequisites exist so every branch is a single commit
        let choice = if wkfs.is_empty() {
            0
        } else if acts.is_empty() {
            1
        } else if tasks.is_empty() {
            2
        } else {
            rng.below(9)
        };
        match choice {
            0 => wkfs.push(p.begin_workflow(&format!("wf{i}"), "prop", "/e")),
            1 => {
                let w = wkfs[rng.below(wkfs.len() as u64) as usize];
                acts.push((p.register_activity(w, &format!("act{i}"), "Map"), w));
            }
            2 | 3 => {
                let (a, w) = acts[rng.below(acts.len() as u64) as usize];
                let start = rng.below(1000) as f64 / 10.0;
                let rec = ActivationRecord {
                    activity: a,
                    workflow: w,
                    status: STATUSES[rng.below(5) as usize],
                    start_time: start,
                    end_time: start + rng.below(600) as f64 / 10.0,
                    machine: None,
                    retries: rng.below(4) as i64,
                    pair_key: format!("R{}:L{i}", rng.below(9)),
                };
                tasks.push((p.record_activation(&rec), a, w));
            }
            4 => {
                let (t, a, w) = tasks[rng.below(tasks.len() as u64) as usize];
                let rec = ActivationRecord {
                    activity: a,
                    workflow: w,
                    status: STATUSES[rng.below(5) as usize],
                    start_time: 1.0,
                    end_time: 1.0 + rng.below(100) as f64,
                    machine: None,
                    retries: rng.below(4) as i64,
                    pair_key: format!("upd{i}"),
                };
                assert!(p.update_activation(t, &rec));
            }
            5 => {
                let (t, a, w) = tasks[rng.below(tasks.len() as u64) as usize];
                p.record_file(t, a, w, &format!("f{i}.dlg"), rng.below(1 << 20) as i64, "/e/d/");
            }
            6 => {
                let (t, _, w) = tasks[rng.below(tasks.len() as u64) as usize];
                if rng.below(2) == 0 {
                    p.record_parameter(t, w, &format!("p{i}"), Some(rng.below(100) as f64), None);
                } else {
                    p.record_parameter(t, w, &format!("p{i}"), None, Some("text'val"));
                }
            }
            7 => {
                let (t, a, w) = tasks[rng.below(tasks.len() as u64) as usize];
                let tuple: Vec<Value> = match rng.below(3) {
                    0 => vec![],
                    1 => vec![Value::Int(i as i64)],
                    _ => vec![Value::Float(i as f64 / 3.0), Value::Text(format!("t{i}"))],
                };
                p.record_output_tuple(t, a, w, &format!("R{}:Lo", rng.below(9)), i, &tuple);
            }
            _ => {
                // a finished activation whole, over a RUNNING row when one exists
                let (a, w) = acts[rng.below(acts.len() as u64) as usize];
                let running = (rng.below(3) == 0)
                    .then(|| tasks[rng.below(tasks.len() as u64) as usize])
                    .filter(|(_, ta, _)| *ta == a);
                let rec = ActivationRecord {
                    activity: a,
                    workflow: w,
                    status: ActivationStatus::Finished,
                    start_time: 2.0,
                    end_time: 2.0 + rng.below(50) as f64,
                    machine: None,
                    retries: rng.below(3) as i64,
                    pair_key: format!("R{}:C{i}", rng.below(9)),
                };
                let fname = format!("c{i}.dlg");
                let files = [(fname.as_str(), rng.below(1 << 16) as i64, "/e/c/")];
                let params = [(format!("q{i}"), Some(i as f64), None), ("note".into(), None, None)];
                let tuples = [vec![Value::Int(i as i64), Value::Text(format!("c{i}"))], vec![]];
                let nfiles = rng.below(2) as usize;
                let nparams = rng.below(3) as usize;
                let ntuples = rng.below(3) as usize;
                let t = p.commit_activation(
                    running.map(|(t, _, _)| t),
                    &rec,
                    &files[..nfiles],
                    &params[..nparams],
                    &tuples[..ntuples],
                );
                if running.is_none() {
                    tasks.push((t, a, w));
                }
            }
        }
    }
}

/// No `hfile` / `hparameter` / `houtput` row may name a task that has no
/// `hactivation` row. (The driver only ever attaches rows to recorded
/// tasks, so an orphan can only come from recovering part of a record.)
fn assert_no_orphans(tables: &[(String, Vec<Vec<Value>>)]) {
    let rows = |name: &str| &tables.iter().find(|(n, _)| n == name).expect("PROV-Wf table").1;
    let tasks: std::collections::HashSet<i64> =
        rows("hactivation").iter().map(|r| r[0].as_f64().expect("taskid") as i64).collect();
    for table in ["hfile", "hparameter", "houtput"] {
        for r in rows(table) {
            let task = r[1].as_f64().expect("taskid") as i64;
            assert!(tasks.contains(&task), "{table} row {r:?} outlived its activation");
        }
    }
}

fn sync_options() -> DurableOptions {
    // checkpoint_every: 0 keeps every frame in the WAL so a byte cut maps
    // cleanly onto a call prefix
    DurableOptions { durability: Durability::Sync, checkpoint_every: 0, ..Default::default() }
}

/// The tables of a fresh in-memory store after the first `m` calls.
fn prefix_state(seed: u64, m: usize) -> Vec<(String, Vec<Vec<Value>>)> {
    let p = ProvenanceStore::new();
    drive(&p, seed, m);
    p.dump_tables()
}

/// Assert `recovered` equals some call-prefix state, returning the match.
fn assert_is_prefix(recovered: &[(String, Vec<Vec<Value>>)], seed: u64, steps: usize) -> usize {
    for m in (0..=steps).rev() {
        if prefix_state(seed, m) == recovered {
            return m;
        }
    }
    panic!("recovered state matches no prefix (seed {seed})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ≥ 100 random crash points in total: 48 cases × 3 cuts each.
    #[test]
    fn any_wal_byte_prefix_recovers_to_a_call_prefix(
        seed in 0u64..u64::MAX / 2,
        steps in 1usize..24,
        cuts in prop::collection::vec(0u64..u64::MAX / 2, 3usize..=3),
        junk_len in 0usize..24,
    ) {
        let env = MemEnv::new();
        let p = ProvenanceStore::open_env(Box::new(env.clone()), sync_options()).unwrap();
        drive(&p, seed, steps);
        drop(p);
        let wal = env.wal_bytes();
        // the 12-byte header (magic + version) is written and synced once at
        // creation, so crashes tear the frame region, never the header
        const WAL_HEADER: usize = 12;

        for (k, cut_seed) in cuts.iter().enumerate() {
            let span = (wal.len() - WAL_HEADER) as u64 + 1;
            let cut = WAL_HEADER + (*cut_seed % span) as usize;
            let mut bytes = wal[..cut].to_vec();
            if k == 2 {
                // garbage tail: recovery must stop at the first bad frame
                let mut jr = Rng(*cut_seed);
                bytes.extend((0..junk_len).map(|_| jr.next() as u8));
            }
            let torn = MemEnv::new();
            torn.set_wal_bytes(bytes);
            let rp = ProvenanceStore::open_env(Box::new(torn.clone()), sync_options())
                .expect("a torn tail is recoverable, never a hard error");
            let recovered = rp.dump_tables();
            assert_no_orphans(&recovered);
            let m = assert_is_prefix(&recovered, seed, steps);
            if cut >= wal.len() && k != 2 {
                prop_assert_eq!(m, steps, "an uncut WAL recovers everything");
            }
            // the recovered store accepts new writes where it left off
            rp.begin_workflow("after-recovery", "", "/e");
            drop(rp);
            let again = ProvenanceStore::open_env(Box::new(torn), sync_options()).unwrap();
            prop_assert!(!again.workflows().is_empty());
        }
    }

    /// Injected process death after a random number of WAL appends: the
    /// reopened store sees exactly the acknowledged prefix.
    #[test]
    fn panic_crash_recovers_exactly_the_acknowledged_prefix(
        seed in 0u64..u64::MAX / 2,
        steps in 2usize..24,
        crash_frac in 1u64..100,
    ) {
        let crash_at = 1 + (crash_frac as usize * steps) / 100;
        let env = MemEnv::new();
        // append #1 is the log header, so frame n is append n + 1
        let fault = FaultEnv::new(
            Box::new(env.clone()),
            Arc::new(FaultPlan::panic_after(crash_at as u64 + 1)),
        );
        let p = ProvenanceStore::open_env(Box::new(fault), sync_options()).unwrap();
        let died = catch_unwind(AssertUnwindSafe(|| drive(&p, seed, steps))).is_err();
        // a killed process runs no destructors
        std::mem::forget(p);
        prop_assert!(died || crash_at >= steps);

        let rp = ProvenanceStore::open_env(Box::new(env), sync_options()).unwrap();
        let m = assert_is_prefix(&rp.dump_tables(), seed, steps);
        // Sync mode: every append that returned is durable, so the recovered
        // prefix is exactly the calls that completed before the panic
        prop_assert_eq!(m, crash_at.min(steps), "seed {}", seed);
    }

    /// A short (torn) write on the last append is truncated away and the
    /// store stays usable.
    #[test]
    fn short_write_is_truncated_on_reopen(
        seed in 0u64..u64::MAX / 2,
        steps in 2usize..16,
    ) {
        let env = MemEnv::new();
        // append #1 is the log header, so the last frame is append steps + 1
        let fault = FaultEnv::new(
            Box::new(env.clone()),
            Arc::new(FaultPlan::short_write_at(steps as u64 + 1)),
        );
        let p = ProvenanceStore::open_env(Box::new(fault), sync_options()).unwrap();
        // the torn append panics the commit path (crash semantics)
        let died = catch_unwind(AssertUnwindSafe(|| drive(&p, seed, steps))).is_err();
        std::mem::forget(p);
        prop_assert!(died);

        let rp = ProvenanceStore::open_env(Box::new(env), sync_options()).unwrap();
        let m = assert_is_prefix(&rp.dump_tables(), seed, steps);
        prop_assert_eq!(m, steps - 1, "everything before the torn frame survives");
    }
}

fn open(env: &MemEnv, options: DurableOptions) -> ProvenanceStore {
    ProvenanceStore::open_env(Box::new(env.clone()), options).expect("env opens")
}

fn finished(a: ActivityId, w: WorkflowId, i: usize) -> ActivationRecord {
    ActivationRecord {
        activity: a,
        workflow: w,
        status: ActivationStatus::Finished,
        start_time: i as f64,
        end_time: i as f64 + 1.5,
        machine: None,
        retries: 0,
        pair_key: format!("R:L{i}"),
    }
}

/// Cut the WAL at *every* byte inside an activation record: the reopened
/// store has none of that activation's rows and every earlier record whole.
#[test]
fn a_cut_anywhere_inside_an_activation_record_loses_all_of_it_and_nothing_else() {
    let env = MemEnv::new();
    let p = open(&env, sync_options());
    let w = p.begin_workflow("wf", "atomic", "/e");
    let a = p.register_activity(w, "vina", "Map");
    p.commit_activation(None, &finished(a, w, 0), &[("a.dlg", 1, "/e/0/")], &[], &[vec![]]);
    let t = p.record_activation(&ActivationRecord {
        status: ActivationStatus::Running,
        ..finished(a, w, 1)
    });
    let before = p.dump_tables();
    let record_start = env.wal_bytes().len();
    // the record under test: two files, two parameters, three tuples (one
    // of arity 0), and the FINISHED row written over a RUNNING one
    let task = p.commit_activation(
        Some(t),
        &finished(a, w, 1),
        &[("b.dlg", 65_740, "/e/1/"), ("b.out", 100, "/e/1/")],
        &[("feb".into(), Some(-7.25), None), ("note".into(), None, Some("text'val".into()))],
        &[vec![Value::Float(-7.25), Value::Text("pose".into())], vec![], vec![Value::Int(3)]],
    );
    assert_eq!(task, t);
    let after = p.dump_tables();
    assert_ne!(after, before);
    drop(p);

    let wal = env.wal_bytes();
    assert!(wal.len() - record_start > 200, "the record is one frame of a few hundred bytes");
    for cut in record_start..=wal.len() {
        let torn = MemEnv::new();
        torn.set_wal_bytes(wal[..cut].to_vec());
        let recovered = open(&torn, sync_options()).dump_tables();
        assert_no_orphans(&recovered);
        let expect = if cut == wal.len() { &after } else { &before };
        assert_eq!(&recovered, expect, "cut at byte {} of the record", cut - record_start);
    }
}

/// Checkpoints are spaced by the store's own size: `checkpoint_every` is the
/// floor, and from then on one is due when the log tail holds as many
/// mutations as the snapshot holds rows. 40 000 mutations take a handful
/// (every 64 would be 625), and the rule survives a restart because both
/// of its terms are recounted at open.
#[test]
fn checkpoints_are_spaced_by_what_the_snapshot_covers() {
    const EVERY: u64 = 64;
    const K: u64 = 4; // mutations per activation below; they add 5 rows
    let tel = Telemetry::attached();
    let options = || DurableOptions {
        durability: Durability::default(),
        checkpoint_every: EVERY,
        telemetry: tel.clone(),
    };
    let checkpoints = tel.counter("provstore.checkpoints").expect("attached");
    let env = MemEnv::new();
    let twin = ProvenanceStore::new(); // never checkpointed
    let mut p = open(&env, options());
    let setup = |p: &ProvenanceStore| {
        let w = p.begin_workflow("wf", "ckpt", "/e");
        (p.register_activity(w, "vina", "Map"), w)
    };
    let (a, w) = setup(&p);
    assert_eq!(setup(&twin), (a, w));

    // the test's own account of the rule's two terms
    let (mut tail, mut rows, mut covered) = (2u64, 2u64, 0u64);
    for i in 0..10_000usize {
        if i == 5_000 {
            // close and reopen mid-way: tail and covered rows must come back
            drop(p);
            p = open(&env, options());
        }
        let seen = checkpoints.get();
        for store in [&p, &twin] {
            store.commit_activation(
                None,
                &finished(a, w, i),
                &[("o.dlg", i as i64, "/e/d/")],
                &[("feb".into(), Some(-7.5), None)],
                &[vec![Value::Float(-7.5), Value::Text(format!("pose{i}"))]],
            );
        }
        tail += K;
        rows += K + 1;
        let due = tail >= EVERY.max(covered);
        assert_eq!(checkpoints.get() - seen, u64::from(due), "activation {i}: tail {tail}");
        if due {
            // it fired with the record that reached the threshold, so the
            // tail recovery would replay never exceeds it by a whole record
            assert!(tail < EVERY.max(covered) + K);
            (tail, covered) = (0, rows);
        }
    }
    assert!(checkpoints.get() <= 11, "{} checkpoints for 40k mutations", checkpoints.get());
    assert_eq!(p.dump_tables(), twin.dump_tables());
    drop(p);
    assert_eq!(open(&env, options()).dump_tables(), twin.dump_tables());

    // 0 still means manual only
    let manual = MemEnv::new();
    let p = open(&manual, DurableOptions { checkpoint_every: 0, ..options() });
    let seen = checkpoints.get();
    drive(&p, 7, 300);
    assert_eq!(checkpoints.get(), seen);
    assert!(manual.snapshot_bytes().is_none());
}

/// Packing an activation's mutations into one record must not thin out the
/// fsyncs: a record counts once per mutation toward `max_ops`.
#[test]
fn group_commit_cadence_counts_mutations_not_records() {
    let batched =
        Durability::Batched { max_ops: 64, max_delay: std::time::Duration::from_secs(3600) };
    // the same 4 + 160 × 4 mutations, row by row and activation by activation
    let syncs = |whole: bool, durability: Durability| {
        let tel = Telemetry::attached();
        let env = MemEnv::new();
        let p =
            open(&env, DurableOptions { durability, checkpoint_every: 0, telemetry: tel.clone() });
        let w = p.begin_workflow("wf", "cadence", "/e");
        let a = p.register_activity(w, "vina", "Map");
        p.register_activity(w, "babel", "Map");
        p.register_machine("vm", "m3.xlarge", 4);
        let group_commits = tel.histogram("provstore.group_commit").expect("attached");
        for i in 0..160usize {
            let rec = finished(a, w, i);
            let tuple = [Value::Int(i as i64)];
            let before = group_commits.count();
            if whole {
                p.commit_activation(
                    None,
                    &rec,
                    &[("o.dlg", 9, "/e/d/")],
                    &[("feb".into(), Some(-7.5), None)],
                    &[tuple.to_vec()],
                );
                if durability == Durability::Sync {
                    assert_eq!(group_commits.count(), before + 1, "synced before returning");
                }
            } else {
                let t = p.record_activation(&rec);
                p.record_file(t, a, w, "o.dlg", 9, "/e/d/");
                p.record_parameter(t, w, "feb", Some(-7.5), None);
                p.record_output_tuple(t, a, w, &rec.pair_key, 0, &tuple);
            }
        }
        group_commits.count()
    };
    assert_eq!(syncs(false, batched), 644 / 64);
    assert_eq!(syncs(true, batched), 644 / 64, "same mutations, same number of fsyncs");
    assert_eq!(syncs(true, Durability::Sync), 4 + 160);

    // records that do not divide the batch: the unsynced window still ends
    // with the record that fills it
    let tel = Telemetry::attached();
    let p = open(
        &MemEnv::new(),
        DurableOptions { durability: batched, checkpoint_every: 0, telemetry: tel.clone() },
    );
    let w = p.begin_workflow("wf", "cadence", "/e");
    let a = p.register_activity(w, "vina", "Map");
    for i in 0..100usize {
        // 7 mutations
        p.commit_activation(
            None,
            &finished(a, w, i),
            &[("a", 1, "/"), ("b", 2, "/"), ("c", 3, "/")],
            &[("x".into(), None, None), ("y".into(), None, None)],
            &[vec![]],
        );
    }
    let batches = tel.histogram("provstore.commit_batch").expect("attached");
    assert!(batches.count() >= 702 / (64 + 6));
    assert!(batches.max() < 64 + 7, "largest synced batch was {}", batches.max());
}

/// A version-1 log, byte for byte as the PR 14 build wrote it for the seven
/// calls replayed in [`the_v1_calls`] (`Durability::Sync`, no checkpoint).
#[rustfmt::skip]
const V1_WAL: [u8; 471] = [
    0x53, 0x43, 0x57, 0x46, 0x57, 0x41, 0x4c, 0x31, 0x01, 0x00, 0x00, 0x00, 0x1a, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x77, 0x66, 0x01, 0x00, 0x00, 0x00, 0x64, 0x02, 0x00, 0x00, 0x00,
    0x2f, 0x65, 0x66, 0x35, 0xd7, 0xc8, 0x20, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x76, 0x69, 0x6e, 0x61, 0x03, 0x00, 0x00, 0x00, 0x4d,
    0x61, 0x70, 0x7f, 0x1f, 0xea, 0x54, 0x3a, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x52, 0x3a, 0x4c, 0xb9, 0x48, 0xb2, 0xa5,
    0x40, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x6f, 0x2e, 0x64, 0x6c, 0x67, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00,
    0x00, 0x00, 0x2f, 0x65, 0x2f, 0x76, 0x69, 0x6e, 0x61, 0x2f, 0x30, 0x2f, 0xc1, 0x49, 0x3a, 0x4d,
    0x2a, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x66, 0x65, 0x62, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x1d, 0xc0, 0x00, 0xe7, 0x68, 0xfb, 0x98, 0x43, 0x00, 0x00, 0x00, 0x06, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x52, 0x3a, 0x4c, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x1d, 0xc0, 0x03, 0x01, 0x00, 0x00, 0x00, 0x78, 0x40, 0x0e, 0x5b, 0x85, 0x3a, 0x00, 0x00,
    0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x40, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x52, 0x3a, 0x4c, 0x87, 0x42, 0x1d, 0x46,
];

/// The calls behind [`V1_WAL`]: the per-row sequence a finished activation
/// used to be.
fn the_v1_calls(p: &ProvenanceStore) {
    let w = p.begin_workflow("wf", "d", "/e");
    let a = p.register_activity(w, "vina", "Map");
    let mut rec = ActivationRecord {
        activity: a,
        workflow: w,
        status: ActivationStatus::Running,
        start_time: 0.5,
        end_time: 0.5,
        machine: None,
        retries: 1,
        pair_key: "R:L".into(),
    };
    let t = p.record_activation(&rec);
    p.record_file(t, a, w, "o.dlg", 77, "/e/vina/0/");
    p.record_parameter(t, w, "feb", Some(-7.25), None);
    p.record_output_tuple(t, a, w, "R:L", 0, &[Value::Float(-7.25), Value::Text("x".into())]);
    rec.status = ActivationStatus::Finished;
    rec.end_time = 2.0;
    assert!(p.update_activation(t, &rec));
}

/// A log written before WAL version 2 opens and replays; and because a
/// build from then would truncate a record kind it does not know as a torn
/// tail, the log is folded into a snapshot and restarted under the current
/// header before anything is appended to it.
#[test]
fn a_version_1_log_replays_and_is_upgraded_before_it_is_appended_to() {
    assert_eq!(V1_WAL[8..12], [1, 0, 0, 0], "the fixture carries a version-1 header");
    let reference = ProvenanceStore::new();
    the_v1_calls(&reference);

    // manual checkpoints only: the upgrade is not a matter of policy
    let env = MemEnv::new();
    env.set_wal_bytes(V1_WAL.to_vec());
    let p = open(&env, sync_options());
    assert_eq!(p.dump_tables(), reference.dump_tables());
    assert_eq!(env.wal_bytes()[8..], [2, 0, 0, 0], "restarted: a version-2 header, no frames");
    assert!(env.snapshot_bytes().is_some(), "the version-1 records now live in a snapshot");

    // appended to, with the record kind version 1 did not have
    let (a, w) = (ActivityId(1), WorkflowId(1));
    for store in [&p, &reference] {
        store.commit_activation(None, &finished(a, w, 2), &[("n.dlg", 5, "/e/")], &[], &[vec![]]);
    }
    drop(p);
    let p = open(&env, sync_options());
    assert_eq!(p.dump_tables(), reference.dump_tables());
    assert_eq!(p.begin_workflow("next", "", ""), WorkflowId(2), "id counters carried over");

    // a torn version-1 log is repaired the same way as ever
    let torn = MemEnv::new();
    torn.set_wal_bytes(V1_WAL[..V1_WAL.len() - 5].to_vec());
    let p = open(&torn, sync_options());
    let rows = p.query_rows("SELECT status FROM hactivation", &[]).unwrap().rows;
    assert_eq!(rows, vec![vec![Value::from("RUNNING")]], "all but the torn last record");
}
