//! # cumulus — a SciCumulus-style cloud Scientific Workflow Management System
//!
//! The workflow engine of the SciDock reproduction:
//!
//! * [`algebra`] — the relational workflow algebra (Map/SplitMap/Reduce/
//!   Filter/SRQuery/MRQuery over relations of tuples);
//! * [`xmlspec`] — the SciCumulus XML workflow dialect (paper Fig. 2),
//!   rendered from a built workflow;
//! * [`workflow`] — executable workflow definitions and the shared file
//!   store activations exchange artifacts through;
//! * [`localbackend`] — real parallel execution on threads of this process
//!   (the MPJ stand-in), with provenance capture, failure injection, retries,
//!   and poison-input blacklisting (the activation lifecycle itself is one
//!   private module shared with [`distbackend`] and [`serve`]);
//! * [`distbackend`] — one workflow across worker processes speaking the
//!   `SDW2` frame protocol: backpressure, heartbeats, hang and straggler
//!   detection, reassignment of a lost worker's activations;
//! * [`sched`] — the weighted greedy ready queue and the master cost model;
//! * [`fleet`] — the elastic fleet layer: the [`Scheduler`]
//!   trait (placement + scale decisions, separated from resource
//!   bookkeeping) with the queue-depth policy, driven identically by the
//!   distributed backend and the simulator; no policy is a fixed fleet;
//! * [`obs`] — the live observability plane: structured event log, fleet
//!   health view, and a std-only HTTP endpoint serving Prometheus text
//!   exposition, snapshot JSON, health and events mid-run;
//! * [`template`] — %TAG% activity command templates (the instrumentation
//!   mechanism of paper Figs. 2–3);
//! * [`simbackend`] — the paper's simulator: a discrete-event cost model
//!   of the SciCumulus master on an elastic EC2 fleet, for the cloud-scale
//!   studies of Figures 7–9 ([`simulate_tasks`] over a task DAG; it is not
//!   a [`Backend`] and does not drive the engine, but drains its fleet by
//!   the engine's rule);
//! * [`serve`] — `scidockd`, the always-on campaign service: many
//!   concurrent campaigns from many tenants over one shared elastic fleet
//!   and one durable provenance store, with fair-share scheduling and
//!   explicit admission control.
//!
//! Every run is a campaign of one run scope, [`serve`]'s campaign directory,
//! started from one [`RunConfig`]: `scidockd` turns one on its engine thread
//! for many campaigns, and [`localbackend`] and [`distbackend`] each turn one
//! on the calling thread for their one campaign. A directory owns one private engine
//! (`engine.rs`) — the table of live runs, the worker table, admission →
//! fair share → placement → dispatch, the fleet-policy tick, worker loss and
//! reassignment, the health view — which reaches its workers only through a
//! small `WorkerPort`: `SDW2` connections for [`distbackend`], worker threads
//! of this process (`threadport.rs`) for the other two. It also starts one
//! private committer (`commit.rs`), the one thread that writes activation
//! rows into its provenance store and publishes the `RUNNING` rows live
//! steering queries see.

#![warn(missing_docs)]

pub mod algebra;
pub mod backend;
mod commit;
mod dispatch;
pub mod distbackend;
mod engine;
pub mod error;
pub mod fleet;
mod lifecycle;
pub mod localbackend;
pub mod obs;
pub mod sched;
pub mod serve;
pub mod simbackend;
pub mod template;
mod threadport;
pub mod workflow;
pub mod xmlspec;

pub use algebra::{Operator, Relation, Tuple};
pub use backend::{activity_timings, ActivityTiming, Backend, LocalBackend, RunReport, Workflow};
pub use distbackend::{run_dist, KillPlan};
pub use error::CumulusError;
pub use fleet::{
    FleetSnapshot, QueueDepthConfig, QueueDepthScheduler, ScaleDecision, ScaleEvent, Scheduler,
    SchedulerFactory,
};
pub use obs::{BoundAddr, EventLog, HealthView, ObsEvent, Severity};
pub use sched::MasterCostModel;
pub use serve::{
    CampaignResolver, CampaignState, CampaignStatus, Daemon, RunConfig, ServeClient, SubmitOutcome,
};
pub use simbackend::{simulate_tasks, SimConfig, SimReport, SimTask, SimWorkflow};
pub use template::{Template, TemplateError};
pub use workflow::{
    digest, ActivationCtx, Activity, ActivityError, ActivityFn, Blob, Contents, FetchFn, FileStore,
    WorkflowDef,
};

// `RunConfig` under the names `benchmark/src`, their only caller, spells
#[doc(hidden)]
pub type LocalConfig = RunConfig;
#[doc(hidden)]
pub type DistConfig = RunConfig;
