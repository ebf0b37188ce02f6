//! The SQL engine's answer to any text is a result or an error, never a
//! panic: `scidockd` runs every client's `SDC1 Query` through
//! `ProvenanceStore::query_limited` on a connection thread, so a query that
//! panics — or overflows that thread's stack — takes the daemon down.
//!
//! The corpus is every query the crates ship, the paper's Queries 1 and 2,
//! and the queries that used to crash (nesting past the parser's depth
//! bound, integer overflow). Seeded mutations of it — truncation, a byte
//! replaced, a byte or SQL fragment inserted, a slice spliced in from
//! another query — run against a populated store, the way
//! `provenance::codec::testing::check_codec` damages encoded frames.

use cumulus::{backend, sched};
use provenance::codec::testing::Gen;
use provenance::{provn, steering, ActivationRecord, ActivationStatus, ProvenanceStore, Value};
use scidock::analysis;

/// Mutated copies run per corpus query.
const MUTATIONS: usize = 96;

/// Fragments an insertion may add, so that mutations reach the parser and
/// the executor instead of stopping at the lexer.
const FRAGMENTS: [&str; 20] = [
    "(",
    ")",
    " - ",
    " + ",
    " * ",
    " / 0",
    " OR ",
    " AND ",
    " NOT ",
    "'",
    ", ",
    " LIKE '%_%'",
    " IN (1, NULL)",
    " BETWEEN 1 AND ",
    " IS NULL",
    "9223372036854775807",
    "abs(",
    "count(*)",
    " GROUP BY 1",
    " ORDER BY 1 DESC",
];

fn corpus() -> Vec<String> {
    let shipped = [
        steering::STATUS_SUMMARY_SQL,
        steering::FAILURES_BY_ACTIVITY_SQL,
        steering::ACTIVATIONS_SINCE_SQL,
        steering::SLOWEST_ACTIVATIONS_SQL,
        steering::PROBLEMATIC_PAIRS_SQL,
        steering::THROUGHPUT_SQL,
        steering::DATA_VOLUME_SQL,
        provn::WORKFLOWS_SQL,
        provn::MACHINES_SQL,
        provn::ACTIVATIONS_SQL,
        provn::FILES_SQL,
        provn::PARAMETERS_SQL,
        backend::FINISHED_TIMES_SQL,
        backend::ACTIVITY_TAGS_SQL,
        sched::ACTIVITY_PROFILES_SQL,
        analysis::PAIR_RESULTS_SQL,
        analysis::DURATIONS_SQL,
        analysis::PER_ACTIVITY_SQL,
    ];
    // `query_limited` binds no parameters: each `?` becomes a literal
    let mut out: Vec<String> = shipped.iter().map(|sql| sql.replace('?', "1")).collect();
    out.push(
        "SELECT a.tag, min(extract('epoch' from (t.endtime-t.starttime))), \
         max(extract('epoch' from (t.endtime-t.starttime))) \
         FROM hworkflow w, hactivity a, hactivation t \
         WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 1 GROUP BY a.tag"
            .into(),
    );
    out.push(
        "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
         FROM hworkflow w, hactivity a, hactivation t, hfile f \
         WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
         AND f.fname LIKE '%.dlg'"
            .into(),
    );
    out.extend(crashers());
    out
}

/// Queries that panicked or overflowed the stack before the engine
/// bounded nesting and checked integer arithmetic.
fn crashers() -> Vec<String> {
    let n = 10_000;
    vec![
        format!("SELECT {}1{} FROM hworkflow", "(".repeat(n), ")".repeat(n)),
        format!("SELECT 1{} FROM hworkflow", " + 1".repeat(n)),
        format!("SELECT wkfid FROM hworkflow WHERE wkfid = 1{}", " OR wkfid = 1".repeat(n)),
        "SELECT -(-9223372036854775807 - 1) FROM hworkflow".into(),
        "SELECT abs(-9223372036854775807 - 1) FROM hworkflow".into(),
        "SELECT 9223372036854775807 * 2 FROM hworkflow".into(),
    ]
}

fn populated() -> ProvenanceStore {
    let p = ProvenanceStore::new();
    let vm = p.register_machine("vm-1", "m3.xlarge", 4);
    for wkf in 0..2 {
        let w = p.begin_workflow("SciDock", "docking", "/exp/SciDock/");
        let acts = ["babel", "autodock4", "vina"].map(|tag| p.register_activity(w, tag, "Map"));
        for i in 0..12i64 {
            let status = [
                ActivationStatus::Finished,
                ActivationStatus::Failed,
                ActivationStatus::Finished,
                ActivationStatus::Blacklisted,
            ][i as usize % 4];
            let rec = ActivationRecord {
                activity: acts[i as usize % 3],
                workflow: w,
                status,
                start_time: (wkf * 100 + i) as f64,
                end_time: (wkf * 100 + i) as f64 + 1.5,
                machine: Some(vm),
                retries: i % 3,
                pair_key: format!("R{}:L{i}", i % 2),
            };
            let files = [("out.dlg", 1000 + i, "/e/"), ("log.txt", 10, "/e/")];
            let params = [("feb".to_string(), Some(-7.0 - i as f64), None)];
            p.commit_activation(None, &rec, &files, &params, &[vec![Value::Int(i)]]);
        }
    }
    p
}

/// A position in `s` at a space or at its end: where an insertion keeps
/// the tokens around it whole.
fn boundary(g: &mut Gen, s: &[u8]) -> usize {
    let spaces: Vec<usize> =
        (0..s.len()).filter(|&i| s[i] == b' ').chain(std::iter::once(s.len())).collect();
    spaces[g.below(spaces.len())]
}

/// Damage `sql` once, by one of the four mutation kinds.
fn mutate(g: &mut Gen, sql: &[u8], corpus: &[String]) -> Vec<u8> {
    let mut m = sql.to_vec();
    match g.below(4) {
        0 => m.truncate(g.below(m.len() + 1)),
        1 => {
            let at = g.below(m.len());
            m[at] = g.u8();
        }
        2 => {
            let at = boundary(g, &m);
            m.splice(at..at, FRAGMENTS[g.below(FRAGMENTS.len())].bytes());
        }
        _ => {
            let donor = corpus[g.below(corpus.len())].as_bytes();
            let (a, b) = (boundary(g, donor), boundary(g, donor));
            let at = boundary(g, &m);
            m.splice(at..at, donor[a.min(b)..a.max(b)].iter().copied());
        }
    }
    m
}

#[test]
fn the_crashers_are_errors() {
    let p = populated();
    for sql in crashers() {
        assert!(p.query_limited(&sql, 100).is_err(), "{}", &sql[..60]);
    }
}

#[test]
fn mutated_queries_are_answered_or_refused_never_a_panic() {
    let p = populated();
    let (corpus, crashers) = (corpus(), crashers());
    let mut g = Gen::new(0x5EED);
    let mut answered = 0;
    for sql in &corpus {
        assert!(p.query_limited(sql, 100).is_ok() || crashers.contains(sql), "{sql}");
        for _ in 0..MUTATIONS {
            let m = mutate(&mut g, sql.as_bytes(), &corpus);
            let text = String::from_utf8_lossy(&m);
            let run = std::panic::catch_unwind(|| p.query_limited(&text, 100).is_ok());
            match run {
                Ok(ok) => answered += usize::from(ok),
                Err(_) => panic!("query panicked: {text:?}"),
            }
        }
    }
    // some mutations get past the lexer and parser to the executor (161 of
    // the 2,496 at this seed)
    assert!(answered > corpus.len() * MUTATIONS / 25, "{answered} answered");
}
