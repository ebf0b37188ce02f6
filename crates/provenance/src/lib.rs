//! # provenance — PROV-Wf store + SQL subset engine
//!
//! SciCumulus' analytical backbone, rebuilt in Rust: a thread-safe
//! relational database with the PROV-Wf provenance schema (`hworkflow`,
//! `hactivity`, `hactivation`, `hfile`, `hparameter`, `hmachine`) and a
//! from-scratch SQL engine able to run the paper's Query 1 / Query 2
//! verbatim.
//!
//! Every store keeps its tables in one paged engine (slotted-page heap
//! files + B+tree indexes, see [`storage`]), in memory or under a WAL, and
//! one Volcano-style executor plans index access paths over it.
//! Every query runs through [`ProvenanceStore::query_rows`] (or its capped
//! form, [`ProvenanceStore::query_limited`]): whole, under one hold of the
//! tables' lock, into a materialized [`ResultSet`].
//!
//! ```
//! use provenance::provwf::{ActivationRecord, ActivationStatus, ProvenanceStore};
//! use provenance::Value;
//!
//! let p = ProvenanceStore::new();
//! let w = p.begin_workflow("SciDock", "Docking", "/root/scidock/");
//! let act = p.register_activity(w, "babel", "Map");
//! p.record_activation(&ActivationRecord {
//!     activity: act,
//!     workflow: w,
//!     status: ActivationStatus::Finished,
//!     start_time: 0.0,
//!     end_time: 2.4,
//!     machine: None,
//!     retries: 0,
//!     pair_key: "1AEC:042".into(),
//! });
//! let rs = p.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap();
//! assert_eq!(rs.cell(0, 0), &Value::Int(1));
//!
//! // `?` placeholders bind typed values after parsing:
//! let rs = p
//!     .query_rows("SELECT pairkey FROM hactivation WHERE endtime >= ?", &[Value::Timestamp(1.0)])
//!     .unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::from("1AEC:042")]]);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod provn;
pub mod provwf;
pub mod sql;
pub mod steering;
pub mod storage;
pub mod table;
pub mod value;

pub use durable::{Durability, DurableError, DurableOptions};
pub use provn::{export_provn, export_provn_canonical, export_provn_canonical_for};
pub use provwf::{
    ActivationOutputs, ActivationRecord, ActivationStatus, ActivationWrite, ActivityId, MachineId,
    ProvenanceStore, TaskId, WorkflowId,
};
pub use sql::{QueryError, ResultSet};
pub use table::{DbError, Schema};
pub use value::{Value, ValueType};
