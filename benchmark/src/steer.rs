//! The steering load: the paper's §V.C runtime queries, sent open loop on a
//! fixed schedule while campaigns ingest, and closed loop once they are done.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cumulus::serve::ServeClient;
use provenance::ProvenanceStore;
use scidock::{SciDockConfig, LIGAND_CODES, RECEPTOR_IDS};
use telemetry::Telemetry;

/// Open-loop rate: one query every 50 ms (20 Hz).
pub const PERIOD: Duration = Duration::from_millis(50);
/// A steering query slower than this (from its due time) is counted as slow.
/// It is reported, not failed: on a shared host a stall of the whole box
/// queues a second of open-loop queries behind it, and that says nothing
/// about whether the program answered correctly.
pub const LIMIT: Duration = Duration::from_secs(1);
/// Closed-loop queries sent after the last campaign finished.
pub const IDLE_QUERIES: usize = 200;

/// The five query shapes, sent round-robin.
pub const SHAPES: [&str; 5] = ["q_status", "q_fail", "q_task", "q_pair", "q_query1"];

/// The paper's Query 1 shape (Fig. 10): per-activity count and average
/// duration over the `hactivity ⋈ hactivation` join.
const QUERY1_SQL: &str = "SELECT a.tag, count(*), \
     avg(extract('epoch' from (t.endtime-t.starttime))) \
     FROM hactivity a, hactivation t WHERE a.actid = t.actid \
     GROUP BY a.tag ORDER BY a.tag";

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// always draws the same campaign order and the same probe literals.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generates the SQL of the mix. The literals of the two probe shapes are
/// drawn per query from the seed: a task id below `max_task`, and the pair
/// key of a first-activity activation among `receptors × ligands`.
pub struct Mix {
    rng: Rng,
    max_task: u64,
    receptors: usize,
    ligands: usize,
    input_dir: String,
}

impl Mix {
    /// A mix probing the first `receptors × ligands` pairs and task ids up
    /// to `max_task`.
    pub fn new(seed: u64, max_task: u64, receptors: usize, ligands: usize) -> Mix {
        // the engine keys an activation by its input tuple, each cell cut
        // to 24 bytes; for the first activity that is receptor, ligand and
        // the two staged input paths (the idle phase checks that these
        // probes do find rows, so a change of that rule cannot pass unseen)
        let path = format!("{}/input/", SciDockConfig::default().expdir.trim_end_matches('/'));
        let input_dir = path[..path.len().min(24)].to_string();
        Mix { rng: Rng::new(seed), max_task: max_task.max(1), receptors, ligands, input_dir }
    }

    /// SQL of the `i`-th query of the round-robin.
    pub fn sql(&mut self, i: usize) -> String {
        match i % SHAPES.len() {
            0 => provenance::steering::STATUS_SUMMARY_SQL.to_string(),
            1 => provenance::steering::FAILURES_BY_ACTIVITY_SQL.to_string(),
            2 => format!(
                "SELECT taskid, status, pairkey FROM hactivation WHERE taskid = {}",
                1 + self.rng.below(self.max_task)
            ),
            3 => {
                let r = RECEPTOR_IDS[self.rng.below(self.receptors as u64) as usize];
                let l = LIGAND_CODES[self.rng.below(self.ligands as u64) as usize];
                let d = &self.input_dir;
                format!("SELECT taskid, status FROM hactivation WHERE pairkey = '{r}:{l}:{d}:{d}'")
            }
            _ => QUERY1_SQL.to_string(),
        }
    }
}

/// Something steering queries can be sent to: the daemon over `SDC1`, or a
/// store shared with an in-process master.
pub trait Target {
    /// Run one query; the row count on success.
    fn run(&mut self, sql: &str) -> Result<usize, String>;
}

impl Target for ServeClient {
    fn run(&mut self, sql: &str) -> Result<usize, String> {
        self.query(sql).map(|(_, rows)| rows.len()).map_err(|e| e.to_string())
    }
}

impl Target for &ProvenanceStore {
    fn run(&mut self, sql: &str) -> Result<usize, String> {
        self.query_rows(sql, &[]).map(|rs| rs.rows.len()).map_err(|e| e.to_string())
    }
}

/// One timed steering query.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Index into [`SHAPES`].
    pub shape: usize,
    /// Completion minus due time (open loop) or minus send time (closed).
    pub latency: Duration,
    /// How long after its due time the query was sent (0 closed loop).
    pub late: Duration,
    /// Rows returned; `None` when the query errored.
    pub rows: Option<usize>,
}

impl Sample {
    /// Did the query error? A failed op.
    pub fn failed(&self) -> bool {
        self.rows.is_none()
    }

    /// Did the query miss [`LIMIT`]? Reported, not a failed op.
    pub fn slow(&self) -> bool {
        self.latency > LIMIT
    }
}

/// When the `i`-th open-loop query is due, from the start of the schedule.
pub fn due(i: usize) -> Duration {
    PERIOD * i as u32
}

/// Open-loop accounting: latency is timed from the due time, so the wait a
/// stall imposes on the queries queued behind it is counted, and lateness
/// says how far behind its schedule the generator sent.
pub fn account(
    shape: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    rows: Option<usize>,
) -> Sample {
    Sample { shape, latency: done.saturating_sub(due), late: sent.saturating_sub(due), rows }
}

/// Send the mix on the 20 Hz schedule until `stop` is set. A query that
/// overruns its period makes the next ones late; none is skipped.
pub fn open_loop(
    target: &mut impl Target,
    mix: &mut Mix,
    stop: &AtomicBool,
    tel: &Telemetry,
) -> Vec<Sample> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for i in 0.. {
        let due = due(i);
        // sleep in short steps so the schedule ends soon after `stop`
        while t0.elapsed() < due && !stop.load(Ordering::SeqCst) {
            std::thread::sleep((due - t0.elapsed().min(due)).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sql = mix.sql(i);
        let sent = t0.elapsed();
        let rows = {
            let _span = tel.span("steer", SHAPES[i % SHAPES.len()]);
            target.run(&sql).ok()
        };
        out.push(account(i % SHAPES.len(), due, sent, t0.elapsed(), rows));
    }
    out
}

/// Send [`IDLE_QUERIES`] of the mix back to back (reads alone on the loaded
/// store).
pub fn closed_loop(target: &mut impl Target, mix: &mut Mix, tel: &Telemetry) -> Vec<Sample> {
    (0..IDLE_QUERIES)
        .map(|i| {
            let sql = mix.sql(i);
            let t0 = Instant::now();
            let _span = tel.span("steer.idle", SHAPES[i % SHAPES.len()]);
            let rows = target.run(&sql).ok();
            Sample { shape: i % SHAPES.len(), latency: t0.elapsed(), late: Duration::ZERO, rows }
        })
        .collect()
}

/// Latencies of `samples` in milliseconds.
pub fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn schedule_is_fixed_at_20_hz() {
        assert_eq!(due(0), Duration::ZERO);
        assert_eq!(due(1), MS(50));
        assert_eq!(due(240), MS(12_000));
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_reported() {
        // on time: sent at its due time, 3 ms of service
        let s = account(0, MS(100), MS(100), MS(103), Some(4));
        assert_eq!((s.latency, s.late, s.failed()), (MS(3), Duration::ZERO, false));
        // a 120 ms stall before it: the same 3 ms query now reads 123 ms
        let s = account(1, MS(150), MS(270), MS(273), Some(0));
        assert_eq!((s.latency, s.late), (MS(123), MS(120)));
        // sent early never happens, but must not underflow
        let s = account(2, MS(200), MS(199), MS(201), Some(1));
        assert_eq!((s.latency, s.late), (MS(1), Duration::ZERO));
        // an error is a failed op; a miss of the 1 s limit is only counted
        assert!(account(3, MS(0), MS(0), MS(5), None).failed());
        let over = account(4, MS(0), MS(900), MS(1001), Some(1));
        assert!(over.slow() && !over.failed());
        assert!(!account(4, MS(0), MS(900), MS(1000), Some(1)).slow());
    }

    /// A target that takes a scripted time per query.
    struct Scripted(Vec<Duration>, usize);
    impl Target for Scripted {
        fn run(&mut self, _sql: &str) -> Result<usize, String> {
            let d = self.0[self.1 % self.0.len()];
            self.1 += 1;
            std::thread::sleep(d);
            Ok(1)
        }
    }

    #[test]
    fn a_stall_delays_the_queries_behind_it_and_none_is_skipped() {
        // query 0 overruns two periods; 1 and 2 are sent late, back to back
        let mut target = Scripted(vec![MS(120), MS(1), MS(1), MS(1)], 0);
        let stop = AtomicBool::new(false);
        let mut mix = Mix::new(1, 10, 2, 2);
        let samples = std::thread::scope(|s| {
            let h = s.spawn(|| open_loop(&mut target, &mut mix, &stop, &Telemetry::disabled()));
            std::thread::sleep(MS(230));
            stop.store(true, Ordering::SeqCst);
            h.join().unwrap()
        });
        assert!(samples.len() >= 4, "queries 0..=3 were due before the stop: {samples:?}");
        assert!(samples[0].latency >= MS(120) && samples[0].late < MS(20));
        assert!(samples[1].late >= MS(60), "due at 50 ms, sent after 120 ms: {:?}", samples[1]);
        assert!(samples[1].latency >= samples[1].late);
        assert!(samples[2].late >= MS(10), "due at 100 ms, sent after 121 ms: {:?}", samples[2]);
        let shapes: Vec<usize> = samples.iter().take(4).map(|s| s.shape).collect();
        assert_eq!(shapes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn literals_follow_the_seed() {
        let sqls = |seed| {
            let mut m = Mix::new(seed, 1000, 4, 6);
            (0..10).map(|i| m.sql(i)).collect::<Vec<_>>()
        };
        assert_eq!(sqls(11), sqls(11));
        assert_ne!(sqls(11), sqls(12));
        let s = sqls(11);
        assert_eq!(s[0], s[5], "the fixed shapes do not depend on the seed");
        assert!(s[3].contains(":/root/exp_SciDock/input/:/root/exp_SciDock/input/'"), "{}", s[3]);
    }
}
