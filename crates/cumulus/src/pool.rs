//! A from-scratch work-stealing thread pool.
//!
//! Fills the role MPJ (MPI for Java) plays in SciCumulus' distribution
//! layer: the *local* backend executes activations on this pool. Built on
//! `crossbeam::deque` (per-worker LIFO deques + a global FIFO injector, idle
//! workers steal from siblings) and `parking_lot` synchronization.
//!
//! One submission API: [`Pool::spawn`] hands one job to the pool and returns
//! immediately. A job reports its own outcome — the ready-driven local
//! backend dispatcher sends each activation's over a channel — so
//! activations keep flowing without stage barriers.
//!
//! Idle workers park on a condvar and are woken per-push. The wakeup
//! protocol avoids missed notifications by (a) incrementing `queued` before
//! the job becomes stealable and (b) re-checking `queued` under `idle_lock`
//! before sleeping; the wait itself keeps a generous timeout purely as a
//! backstop against bugs, not as a polling loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use telemetry::{Histogram, Telemetry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time pool activity counters (see [`Pool::stats`]).
///
/// The atomics behind these are always on — they cost one relaxed
/// `fetch_add` on already-slow paths (parking, stealing), so they are
/// maintained even when no telemetry sink is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs handed to the pool.
    pub submitted: u64,
    /// Jobs that finished executing (including panicked ones).
    pub completed: u64,
    /// Times a worker went to sleep on the idle condvar.
    pub parks: u64,
    /// Parked workers woken by a notification (the designed wakeup path).
    pub unparks: u64,
    /// Parked workers woken only by the 250 ms backstop timeout — in a
    /// healthy pool this stays 0 modulo shutdown races; a growing count
    /// means notifications are being missed.
    pub timeout_wakeups: u64,
    /// Jobs obtained by stealing from a sibling worker's deque.
    pub steals: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    timeout_wakeups: AtomicU64,
    steals: AtomicU64,
}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    /// Jobs pushed but not yet *popped* by a worker. This is the parking
    /// predicate: when it is zero there is nothing to pick up, so sleeping
    /// is safe. (Jobs still running on other workers don't count — a parked
    /// worker can do nothing about those.)
    queued: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    stats: StatCells,
    telemetry: Telemetry,
    /// Cached handle so the submit path never hits the histogram registry.
    queue_wait: Option<Arc<Histogram>>,
}

impl Shared {
    /// Publish one job: count it, make it stealable, wake one sleeper.
    ///
    /// `queued` is incremented *before* the push so a worker that observes
    /// the job in `find_job` never sees a stale zero; the notify is taken
    /// under `idle_lock` so it cannot land between a worker's re-check and
    /// its wait.
    fn inject(&self, job: Job) {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        self.telemetry.gauge("pool.queue_depth", depth as f64);
        self.injector.push(job);
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_one();
    }
}

/// A fixed-size work-stealing thread pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers (min 1) that record into
    /// `telemetry`: per-job spans and queue-wait samples on named worker
    /// tracks, plus park/steal counters flushed on drop.
    pub fn with_telemetry(threads: usize, telemetry: Telemetry) -> Pool {
        let threads = threads.max(1);
        let locals: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = locals.iter().map(|w| w.stealer()).collect();
        let queue_wait = telemetry.histogram("pool.queue_wait");
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            stats: StatCells::default(),
            telemetry,
            queue_wait,
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cumulus-worker-{i}"))
                    .spawn(move || worker_loop(i, local, shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool { shared, workers, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Activity counters so far (always available, telemetry or not).
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            parks: s.parks.load(Ordering::Relaxed),
            unparks: s.unparks.load(Ordering::Relaxed),
            timeout_wakeups: s.timeout_wakeups.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
        }
    }

    /// Submit one job without blocking. A panic inside the job is caught
    /// and dropped, never raised on a worker: the job is responsible for
    /// reporting its own outcome, e.g. over a channel.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        // the telemetry prologue compiles to two branch-only no-ops when no
        // sink is attached (now_ns() returns 0, queue_wait is None)
        let tel = self.shared.telemetry.clone();
        let enqueued_ns = tel.now_ns();
        let queue_wait = self.shared.queue_wait.clone();
        self.shared.inject(Box::new(move || {
            if let Some(h) = &queue_wait {
                h.record(tel.now_ns().saturating_sub(enqueued_ns));
            }
            let _job_span = tel.span("pool", "job");
            let _ = catch_unwind(AssertUnwindSafe(job));
        }));
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // publish the lifetime counters to the attached sink (no-op when
        // disabled) so MetricsSnapshot sees them alongside spans
        let tel = &self.shared.telemetry;
        if tel.is_enabled() {
            let s = self.stats();
            tel.count("pool.submitted", s.submitted);
            tel.count("pool.completed", s.completed);
            tel.count("pool.parks", s.parks);
            tel.count("pool.unparks", s.unparks);
            tel.count("pool.timeout_wakeups", s.timeout_wakeups);
            tel.count("pool.steals", s.steals);
        }
    }
}

fn worker_loop(index: usize, local: Worker<Job>, shared: Arc<Shared>) {
    shared.telemetry.name_current_track(&format!("cumulus-worker-{index}"));
    loop {
        if let Some(job) = find_job(index, &local, &shared) {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            job();
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Nothing to pick up: park until a push wakes us. The re-check of
        // `queued` under `idle_lock` closes the race with `inject` (which
        // bumps `queued` before pushing and notifies under the same lock),
        // so the timeout is only a backstop, not a polling interval.
        let mut g = shared.idle_lock.lock();
        if shared.queued.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            shared.stats.parks.fetch_add(1, Ordering::Relaxed);
            let timed_out =
                shared.idle_cv.wait_for(&mut g, std::time::Duration::from_millis(250)).timed_out();
            if timed_out {
                shared.stats.timeout_wakeups.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.unparks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn find_job(index: usize, local: &Worker<Job>, shared: &Shared) -> Option<Job> {
    // 1. local deque
    if let Some(j) = local.pop() {
        return Some(j);
    }
    // 2. global injector (grab a batch to amortize contention)
    loop {
        match shared.injector.steal_batch_and_pop(local) {
            crossbeam::deque::Steal::Success(j) => return Some(j),
            crossbeam::deque::Steal::Empty => break,
            crossbeam::deque::Steal::Retry => continue,
        }
    }
    // 3. steal from siblings
    for (k, s) in shared.stealers.iter().enumerate() {
        if k == index {
            continue;
        }
        loop {
            match s.steal() {
                crossbeam::deque::Steal::Success(j) => {
                    shared.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(j);
                }
                crossbeam::deque::Steal::Empty => break,
                crossbeam::deque::Steal::Retry => continue,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn pool(threads: usize) -> Pool {
        Pool::with_telemetry(threads, Telemetry::disabled())
    }

    /// Spawn `f(0) .. f(n - 1)` and block until every job has ended; the
    /// values of those that did not panic, by index.
    fn run_all<T: Send + 'static>(
        pool: &Pool,
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let (f, tx) = (Arc::clone(&f), tx.clone());
            pool.spawn(move || {
                let _ = tx.send((i, f(i)));
            });
        }
        drop(tx);
        // ends when the last job has dropped its sender, panicked or not
        let mut out: Vec<(usize, T)> = rx.iter().collect();
        out.sort_by_key(|(i, _)| *i);
        out.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = pool(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(run_all(&pool, 3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn actually_parallel() {
        // 8 jobs that each sleep 30 ms on 8 threads must finish well under
        // the serial 240 ms
        let pool = pool(8);
        let t0 = Instant::now();
        run_all(&pool, 8, |_| std::thread::sleep(Duration::from_millis(30)));
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_millis(200), "took {elapsed:?}, not parallel");
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let pool = pool(4);
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        run_all(&pool, 1000, move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn pool_survives_job_panic() {
        let pool = pool(1);
        let out = run_all(&pool, 2, |i| if i == 0 { panic!("boom") } else { 2 });
        assert_eq!(out, vec![2], "the panic reached nobody");
        // the single worker survived it and still runs jobs
        assert_eq!(run_all(&pool, 3, |i| i * 10), vec![0, 10, 20]);
    }

    #[test]
    fn uneven_workloads_balance() {
        // one long job + many short ones: stealing should keep total time
        // near the long job's duration
        let pool = pool(4);
        let t0 = Instant::now();
        run_all(&pool, 40, |i| {
            let ms = if i == 0 { 80 } else { 5 };
            std::thread::sleep(Duration::from_millis(ms));
        });
        let elapsed = t0.elapsed();
        // serial would be 80 + 39*5 = 275 ms; balanced is ~80-150 ms
        assert!(elapsed < Duration::from_millis(220), "took {elapsed:?}");
    }

    #[test]
    fn parked_pool_wakes_promptly() {
        let pool = pool(2);
        // let the workers park
        std::thread::sleep(Duration::from_millis(120));
        let t0 = Instant::now();
        run_all(&pool, 1, |_| ());
        assert!(
            t0.elapsed() < Duration::from_millis(60),
            "parked worker was not woken by push (took {:?})",
            t0.elapsed()
        );
    }

    #[test]
    fn missed_wakeup_regression_spawn_after_park() {
        // Regression pin for the PR-1 wakeup fix: a spawn that lands right
        // after a worker's park-predicate check must still wake it via the
        // condvar, never via the 250 ms backstop timeout. Run many
        // park→spawn cycles; if any spawn were missed, its job would stall
        // for the full backstop and the latency bound here trips.
        let pool = pool(2);
        for round in 0..20 {
            // drain and give both workers time to park
            std::thread::sleep(Duration::from_millis(5));
            let t0 = Instant::now();
            run_all(&pool, 1, move |_| round);
            let waited = t0.elapsed();
            assert!(
                waited < Duration::from_millis(150),
                "round {round}: parked worker woke only via backstop ({waited:?})"
            );
        }
        // `completed` is bumped by the worker *after* the job reports, so
        // give the last increment a moment to land
        std::thread::sleep(Duration::from_millis(20));
        let s = pool.stats();
        assert!(s.parks > 0, "workers never parked; the test exercised nothing");
        assert!(s.unparks > 0, "no condvar wakeups recorded: {s:?}");
        assert_eq!(s.submitted, 20);
        assert_eq!(s.completed, 20);
    }

    #[test]
    fn stats_count_submissions_and_steals() {
        let pool = pool(4);
        run_all(&pool, 200, |i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let s = pool.stats();
        assert_eq!(s.submitted, 200);
        assert_eq!(s.completed, 200);
    }

    #[test]
    fn telemetry_records_queue_wait_and_worker_tracks() {
        let tel = telemetry::Telemetry::attached();
        {
            let pool = Pool::with_telemetry(2, tel.clone());
            run_all(&pool, 16, |_| std::thread::sleep(Duration::from_millis(1)));
        } // drop flushes counters
        let snap = tel.snapshot().unwrap();
        let qw = snap.histogram("pool.queue_wait").expect("queue-wait histogram");
        assert_eq!(qw.count, 16);
        assert_eq!(snap.counter("pool.submitted"), Some(16));
        assert_eq!(snap.counter("pool.completed"), Some(16));
        assert!(
            snap.tracks.iter().any(|t| t.name.starts_with("cumulus-worker-")),
            "worker threads should register named tracks: {:?}",
            snap.tracks
        );
        assert!(snap.gauge("pool.queue_depth").is_some(), "queue depth gauge sampled");
    }
}
