//! The engine's port onto worker threads of this process — what `scidockd`
//! and the local backend both run their activations on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use telemetry::Telemetry;

use crate::engine::{Job, PortEvent, WorkerPort};
use crate::error::CumulusError;
use crate::lifecycle::{ActivityCtx, Attempt};

enum WorkerMsg {
    Run { id: u64, ctx: Arc<ActivityCtx>, job: Job },
    Drain,
}

/// Worker threads of this process, one activation slot each. A worker runs
/// `begin` → execute → `settle` itself, through the lifecycle every backend
/// shares — which is why a run's canonical PROV-N does not depend on the
/// backend; `settle` queues the attempt's rows for the owner's committer
/// and the worker moves on. It reports on the owner's channel, as whatever
/// message `M` that channel carries.
///
/// Dropping the port drains and joins its workers, so an owner unwinding
/// past its engine leaves no thread writing behind it.
pub(crate) struct ThreadPort<M: From<PortEvent> + Send + 'static> {
    tx: Sender<M>,
    tel: Telemetry,
    /// Worker `i`'s thread and telemetry track are named `<prefix>-<i>`.
    prefix: &'static str,
    workers: Vec<(Sender<WorkerMsg>, Option<JoinHandle<()>>)>,
    /// Launched since the engine last asked.
    fresh: usize,
}

impl<M: From<PortEvent> + Send + 'static> ThreadPort<M> {
    pub(crate) fn new(tx: Sender<M>, tel: &Telemetry, prefix: &'static str) -> ThreadPort<M> {
        ThreadPort { tx, tel: tel.clone(), prefix, workers: Vec::new(), fresh: 0 }
    }
}

impl<M: From<PortEvent> + Send + 'static> WorkerPort for ThreadPort<M> {
    fn slots(&self) -> usize {
        1
    }

    fn launch(&mut self) -> Result<(), CumulusError> {
        let worker = self.workers.len();
        let (tx, rx) = channel::<WorkerMsg>();
        let (events, tel) = (self.tx.clone(), self.tel.clone());
        let name = format!("{}-{worker}", self.prefix);
        let handle = std::thread::Builder::new().name(name.clone()).spawn(move || {
            tel.name_current_track(&name);
            let mut completed = 0;
            while let Ok(WorkerMsg::Run { id, ctx, job }) = rx.recv() {
                let run = || ctx.run_dispatched(&job.key, job.attempt, &job.part, job.part_index);
                // an activity function's panic is a FAILED attempt already:
                // what escapes is a fault of the lifecycle itself, e.g. a
                // dead committer, and the owner dies of it
                let settled = match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(settled) => settled,
                    Err(payload) => {
                        let _ = events.send(PortEvent::Panicked(payload).into());
                        return;
                    }
                };
                completed += 1;
                let ev = PortEvent::Settled { worker, job: id, settled };
                if events.send(ev.into()).is_err() {
                    return; // the owner is gone; no one to retire to
                }
            }
            let _ = events.send(PortEvent::Retired { worker, completed }.into());
        })?;
        self.workers.push((tx, Some(handle)));
        self.fresh += 1;
        Ok(())
    }

    fn joined(&mut self) -> Result<(usize, usize), CumulusError> {
        Ok((std::mem::take(&mut self.fresh), 0))
    }

    fn run(&mut self, worker: usize, id: u64, ctx: &Arc<ActivityCtx>, job: &Job) -> bool {
        let msg = WorkerMsg::Run { id, ctx: Arc::clone(ctx), job: job.clone() };
        self.workers[worker].0.send(msg).is_ok()
    }

    fn drain(&mut self, worker: usize) -> bool {
        self.workers[worker].0.send(WorkerMsg::Drain).is_ok()
    }

    fn sever(&mut self, worker: usize) -> Vec<(u64, Attempt)> {
        // only ever a thread that has left its loop (retired, or dead)
        if let Some(h) = self.workers[worker].1.take() {
            let _ = h.join();
        }
        Vec::new() // attempts begin and settle on the worker thread
    }

    fn shutdown(&mut self) {
        for worker in 0..self.workers.len() {
            self.drain(worker);
        }
        for worker in 0..self.workers.len() {
            self.sever(worker);
        }
    }
}

impl<M: From<PortEvent> + Send + 'static> Drop for ThreadPort<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
