//! # scidock-suite — facade over the SciDock reproduction workspace
//!
//! Re-exports every crate of the workspace so examples and downstream users
//! need a single dependency:
//!
//! * [`molkit`] — molecular structures, formats, preparation;
//! * [`docking`] — AD4-style and Vina-style docking engines;
//! * [`provenance`] — PROV-Wf store + SQL engine;
//! * [`cloudsim`] — discrete-event cloud substrate;
//! * [`cumulus`] — the SciCumulus-style workflow system;
//! * [`scidock`] — the SciDock workflow, dataset, and experiments.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use cloudsim;
pub use cumulus;
pub use docking;
pub use molkit;
pub use provenance;
pub use scidock;

/// The README's Rust snippets, compiled (and run, unless marked `no_run`)
/// as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
