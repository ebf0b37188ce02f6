//! # cumulus — a SciCumulus-style cloud Scientific Workflow Management System
//!
//! The workflow engine of the SciDock reproduction:
//!
//! * [`algebra`] — the relational workflow algebra (Map/SplitMap/Reduce/
//!   Filter/SRQuery/MRQuery over relations of tuples);
//! * [`xmlspec`] — the SciCumulus XML workflow dialect (paper Fig. 2) with a
//!   from-scratch XML parser;
//! * [`workflow`] — executable workflow definitions and the shared file
//!   store activations exchange artifacts through;
//! * [`pool`] — a from-scratch work-stealing thread pool (the MPJ stand-in);
//! * [`localbackend`] — real parallel execution on the pool, with
//!   provenance capture, failure injection, retries, and poison-input
//!   blacklisting (the activation lifecycle itself is one private module
//!   shared with [`distbackend`] and [`serve`]);
//! * [`distbackend`] — one workflow across worker processes speaking the
//!   `SDW1` frame protocol: backpressure, heartbeats, hang and straggler
//!   detection, reassignment of a lost worker's activations;
//! * [`sched`] — the weighted greedy scheduler and its master cost model;
//! * [`fleet`] — the elastic fleet layer: the [`Scheduler`]
//!   trait (placement + scale decisions, separated from resource
//!   bookkeeping) with fixed, queue-depth, and cost-aware policies, driven
//!   identically by the distributed backend and the simulator;
//! * [`steer`] — the live-steering bridge that publishes in-flight
//!   activation state into the provenance store on a tick, so the paper's
//!   §V.C runtime queries answer during a run;
//! * [`obs`] — the live observability plane: structured event log, fleet
//!   health view, and a std-only HTTP endpoint serving Prometheus text
//!   exposition, snapshot JSON, health and events mid-run;
//! * [`template`] — %TAG% activity command templates (the instrumentation
//!   mechanism of paper Figs. 2–3);
//! * [`simbackend`] — a discrete-event simulation of the engine on an
//!   elastic EC2 fleet, for the cloud-scale studies of Figures 7–9;
//! * [`serve`] — `scidockd`, the always-on campaign service: many
//!   concurrent campaigns from many tenants over one shared elastic fleet
//!   and one durable provenance store, with fair-share scheduling and
//!   explicit admission control.
//!
//! [`distbackend`] and [`serve`] are two owners of one private engine
//! (`engine.rs`) — the table of live runs, the worker table, admission →
//! fair share → placement → dispatch, the fleet-policy tick, worker loss and
//! reassignment, the health view — which reaches its workers only through a
//! small `WorkerPort` each of them implements: `SDW1` connections there,
//! worker threads here. The local backend still runs on [`pool`].

#![warn(missing_docs)]

pub mod algebra;
pub mod backend;
mod dispatch;
pub mod distbackend;
mod engine;
pub mod error;
pub mod fleet;
mod lifecycle;
pub mod localbackend;
pub mod obs;
pub mod pool;
pub mod sched;
pub mod serve;
pub mod simbackend;
pub mod steer;
pub mod template;
pub mod workflow;
pub mod xmlspec;

pub use algebra::{Operator, Relation, Tuple};
pub use backend::{
    ActivityTiming, Backend, DistBackend, LocalBackend, RunOutcome, SimBackend, Workflow,
};
pub use distbackend::{run_dist, DistConfig, KillPlan};
pub use error::CumulusError;
pub use fleet::{
    upward_ranks, CostAwareConfig, CostAwareScheduler, FixedScheduler, FleetSnapshot,
    QueueDepthConfig, QueueDepthScheduler, ScaleDecision, ScaleEvent, Scheduler, SchedulerFactory,
};
pub use localbackend::{LocalConfig, RunReport};
pub use obs::{BoundAddr, EventLog, HealthView, ObsEvent, Severity};
pub use pool::Pool;
pub use sched::{MasterCostModel, Policy};
pub use serve::{
    CampaignResolver, CampaignState, CampaignStatus, Daemon, ServeClient, ServeConfig,
    SubmitOutcome,
};
pub use simbackend::{simulate_tasks, SimConfig, SimReport, SimTask};
pub use steer::SteeringBridge;
pub use template::{Template, TemplateError};
pub use workflow::{
    ActivationCtx, Activity, ActivityError, ActivityFn, FetchFn, FileStore, WorkflowDef,
};
