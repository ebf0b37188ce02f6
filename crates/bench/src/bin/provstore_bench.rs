//! Measure the overhead of durable provenance over the in-memory store.
//!
//! The workload is the hot path of a docking campaign: per activation one
//! `commit_activation` carrying the `FINISHED` row, one file, one parameter
//! and one output tuple (4 mutations = 1 WAL record; "per-op" below is per
//! mutation). Three stores run the identical stream:
//!
//! 1. **in-memory** — `ProvenanceStore::new()`, the default everywhere;
//! 2. **durable, group commit** — `Durability::Batched` (the durable
//!    default: fsync per 64 ops or 20 ms, whichever first);
//! 3. **durable, sync** — `Durability::Sync`, one fsync per record (the
//!    upper bound a steering-critical deployment would pay).
//!
//! ```sh
//! cargo run --release -p scidock-bench --bin provstore_bench            # full
//! cargo run --release -p scidock-bench --bin provstore_bench -- --smoke # CI
//! ```
//!
//! The run *asserts* (exit code 1 on failure) that group-commit durability
//! stays within `PROVSTORE_OVERHEAD_X` (default 50×) of the in-memory
//! per-op cost — the documented bound under which `LocalConfig::durability`
//! is safe to leave on for real campaigns. Sync mode is reported but not
//! bounded: its cost is one fsync per record by definition and entirely
//! device-dependent.
//!
//! Four more gates are counts, not clocks, so they hold on any machine:
//! N activations make exactly N + 4 `provstore.wal_appends` (one record per
//! activation plus the four registrations); 40 000 mutations under
//! `checkpoint_every = 64` take at most 11 `provstore.checkpoints` (one
//! every 64 would be 625); the 500-activation smoke stream, single-threaded
//! under `Batched { max_ops: 64 }`, makes exactly 32 `provstore.group_commit`
//! fsyncs (2 004 mutations / 64, plus the closing `flush_wal` — taking the
//! fsync off the store's lock must not thin them out); and 100 000 monotone
//! keys fill their B+tree leaves (at most 1.1 × the pages full leaves take).

use std::time::{Duration, Instant};

use provenance::durable::io::{DirEnv, MemEnv};
use provenance::durable::testing::TempDir;
use provenance::provwf::{ActivationRecord, ActivationStatus, ProvenanceStore};
use provenance::storage::btree::BTree;
use provenance::storage::page::PAGE_SIZE;
use provenance::storage::pager::{MemPageStore, PageCache};
use provenance::{Durability, DurableOptions, Value};
use telemetry::Telemetry;

/// Run the campaign-shaped mutation stream; returns (ops, wall seconds).
fn workload(p: &ProvenanceStore, activations: usize) -> (u64, f64) {
    let t0 = Instant::now();
    let w = p.begin_workflow("bench", "provstore_bench", "/bench");
    let babel = p.register_activity(w, "babel1k", "Map");
    let vina = p.register_activity(w, "autodockvina1k", "Map");
    let vm = p.register_machine("vm-001", "m3.xlarge", 4);
    let mut ops: u64 = 4;
    for i in 0..activations {
        let act = if i % 2 == 0 { babel } else { vina };
        let start = i as f64 * 0.25;
        p.commit_activation(
            None,
            &ActivationRecord {
                activity: act,
                workflow: w,
                status: ActivationStatus::Finished,
                start_time: start,
                end_time: start + 30.0,
                machine: Some(vm),
                retries: 0,
                pair_key: format!("1AEC:{i:04}"),
            },
            &[(&format!("out_{i}.dlg"), 64_000 + i as i64, "/bench/d/")],
            &[("exhaustiveness".to_string(), Some(8.0), None)],
            &[vec![Value::Float(-7.5), Value::Text(format!("pose{i}"))]],
        );
        ops += 4;
    }
    p.flush_wal();
    (ops, t0.elapsed().as_secs_f64())
}

struct Row {
    label: &'static str,
    per_op_us: f64,
    ops_per_s: f64,
}

fn report(label: &'static str, ops: u64, secs: f64) -> Row {
    let per_op_us = secs / ops as f64 * 1e6;
    let ops_per_s = ops as f64 / secs;
    println!("{label:<26} | {ops:>7} | {per_op_us:>12.2} | {ops_per_s:>11.0}");
    Row { label, per_op_us, ops_per_s }
}

fn durable_run(activations: usize, durability: Durability, tel: &Telemetry) -> (u64, f64) {
    let dir = TempDir::new("provstore-bench");
    let env = DirEnv::new(dir.path()).expect("scratch dir");
    let p = ProvenanceStore::open_env(
        Box::new(env),
        DurableOptions { durability, telemetry: tel.clone(), ..Default::default() },
    )
    .expect("fresh durable store");
    workload(&p, activations)
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.counter(name).map_or(0, |c| c.get())
}

/// Print the gate's outcome; exit 1 when it does not hold.
fn gate(ok: bool, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
    println!("OK: {what}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let activations = if smoke { 500 } else { 5_000 };
    let bound_x: f64 =
        std::env::var("PROVSTORE_OVERHEAD_X").ok().and_then(|v| v.parse().ok()).unwrap_or(50.0);

    println!(
        "provstore_bench: {activations} activations x 4 mutations \
         (file + parameter + output tuple + activation row, one record each)"
    );
    println!();
    println!("{:<26} | {:>7} | {:>12} | {:>11}", "store", "ops", "per-op (us)", "ops/s");
    println!("{:-<26}-+-{:-<7}-+-{:-<12}-+-{:-<11}", "", "", "", "");

    // warm-up: page in the binary and the allocator
    workload(&ProvenanceStore::new(), activations / 10);

    let (ops, secs) = workload(&ProvenanceStore::new(), activations);
    let mem = report("in-memory (default)", ops, secs);

    let tel_batched = Telemetry::attached();
    let (ops, secs) = durable_run(activations, Durability::default(), &tel_batched);
    let batched = report("durable, group commit", ops, secs);

    let tel_sync = Telemetry::attached();
    let (ops, secs) = durable_run(activations, Durability::Sync, &tel_sync);
    let sync = report("durable, sync", ops, secs);

    println!();
    for (label, tel) in [("group commit", &tel_batched), ("sync", &tel_sync)] {
        if let Some(snap) = tel.snapshot() {
            for h in &snap.histograms {
                if h.name == "provstore.wal_append" || h.name == "provstore.group_commit" {
                    println!(
                        "{label}: {} n={} p50={:.1} us p95={:.1} us max={:.1} us",
                        h.name,
                        h.count,
                        h.p50_s * 1e6,
                        h.p95_s * 1e6,
                        h.max_s * 1e6
                    );
                }
            }
        }
    }

    let batched_x = batched.per_op_us / mem.per_op_us;
    let sync_x = sync.per_op_us / mem.per_op_us;
    println!();
    println!(
        "durable overhead vs in-memory: group commit {batched_x:.1}x, sync {sync_x:.1}x \
         (bound for group commit: {bound_x:.0}x)"
    );
    let _ = (batched.label, batched.ops_per_s, sync.label, sync.ops_per_s);
    if batched_x > bound_x {
        eprintln!(
            "FAIL: group-commit durability is {batched_x:.1}x the in-memory per-op cost \
             (limit {bound_x:.0}x)"
        );
        std::process::exit(1);
    }
    println!("OK: group-commit durability is within the documented bound");

    let appends = counter(&tel_batched, "provstore.wal_appends");
    gate(
        appends == activations as u64 + 4,
        &format!("{activations} activations + 4 registrations made {appends} WAL appends"),
    );

    // 4 + 9 999 x 4 = 40 000 mutations, checkpoint floor 64
    let tel = Telemetry::attached();
    let p = ProvenanceStore::open_env(
        Box::new(MemEnv::new()),
        DurableOptions { checkpoint_every: 64, telemetry: tel.clone(), ..Default::default() },
    )
    .expect("fresh durable store");
    let (ops, _) = workload(&p, 9_999);
    let checkpoints = counter(&tel, "provstore.checkpoints");
    gate(
        ops == 40_000 && checkpoints <= 11,
        &format!("{ops} mutations at checkpoint_every = 64 took {checkpoints} checkpoints"),
    );

    // the smoke stream again, with the batch's age out of the picture
    let tel = Telemetry::attached();
    let by_count = Durability::Batched { max_ops: 64, max_delay: Duration::from_secs(3600) };
    let p = ProvenanceStore::open_env(
        Box::new(MemEnv::new()),
        DurableOptions { durability: by_count, telemetry: tel.clone(), ..Default::default() },
    )
    .expect("fresh durable store");
    let (ops, _) = workload(&p, 500);
    let fsyncs = tel.histogram("provstore.group_commit").map_or(0, |h| h.count());
    gate(
        ops == 2_004 && fsyncs == 32,
        &format!("{ops} mutations at max_ops = 64 and a closing flush made {fsyncs} fsyncs"),
    );

    // rowid-shaped keys: 8 bytes, ascending; 20 bytes a leaf entry, 9 a header
    let cache = PageCache::new(Box::new(MemPageStore::new()), 64);
    let before = cache.pages_allocated();
    let mut tree = BTree::create(&cache);
    for i in 0..100_000u64 {
        tree.insert(&cache, &i.to_be_bytes(), i);
    }
    let pages = u64::from(cache.pages_allocated() - before);
    let full_leaves = 100_000u64.div_ceil((PAGE_SIZE as u64 - 9) / 20);
    gate(
        pages * 10 <= full_leaves * 11,
        &format!("100000 monotone keys took {pages} B+tree pages ({full_leaves} full leaves)"),
    );
}
