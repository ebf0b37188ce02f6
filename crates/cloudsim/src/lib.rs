//! # cloudsim — discrete-event cloud execution substrate
//!
//! Simulates the paper's Amazon EC2 deployment: the instance catalog of
//! Table 1 ([`instance`]), elastic VM acquisition with boot latency and
//! virtualization performance noise ([`vm`]), an s3fs-style shared
//! filesystem transfer model ([`sharedfs`]), deterministic failure/hang
//! injection ([`failure`]), and the deterministic event queue the workflow
//! engine's simulated backend runs on ([`des`]).
//!
//! The simulation exists because the evaluation (Figures 7–9) measures
//! scheduling behaviour at up to 128 virtual cores — hardware this
//! reproduction does not assume. All components are deterministic given
//! their seeds.

#![warn(missing_docs)]

pub mod billing;
pub mod des;
pub mod failure;
pub mod instance;
pub mod sharedfs;
pub mod vm;

pub use billing::BillingModel;
pub use des::{EventQueue, SimTime};
pub use failure::{FailureModel, Fate};
pub use instance::{
    fleet_for_cores, InstanceType, CATALOG, M1_SMALL, M3_2XLARGE, M3_LARGE, M3_XLARGE,
};
pub use sharedfs::SharedFsModel;
pub use vm::{sim_ns, Cluster, NoiseModel, Vm, VmId};
