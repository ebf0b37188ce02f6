//! # provenance — PROV-Wf store + SQL subset engine
//!
//! SciCumulus' analytical backbone, rebuilt in Rust: a thread-safe
//! relational database with the PROV-Wf provenance schema (`hworkflow`,
//! `hactivity`, `hactivation`, `hfile`, `hparameter`, `hmachine`) and a
//! from-scratch SQL engine able to run the paper's Query 1 / Query 2
//! verbatim.
//!
//! Two storage backings share one API: a plain in-memory [`Database`]
//! and a paged engine (slotted-page heap files + B+tree indexes, see
//! [`storage`]) whose Volcano-style executor plans index access paths.
//! Queries run through [`ProvenanceStore::query`], which returns a
//! streaming [`QueryCursor`] — or [`ProvenanceStore::query_rows`] for a
//! materialized [`ResultSet`].
//!
//! ```
//! use provenance::provwf::{ActivationRecord, ActivationStatus, ProvenanceStore};
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
//! // Streaming cursor with typed row accessors:
//! let mut cur = p.query("SELECT count(*) FROM hactivation", &[]).unwrap();
//! let row = cur.next_row().unwrap().unwrap();
//! assert_eq!(row.int(0).unwrap(), 1);
//!
//! // Or materialize everything at once:
//! let rs = p.query_rows("SELECT pairkey FROM hactivation", &[]).unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

#![warn(missing_docs)]

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
    ActivationRecord, ActivationStatus, ActivityId, MachineId, ProvenanceStore, QueryCursor, Row,
    TaskId, WorkflowId,
};
pub use sql::{QueryError, ResultSet};
pub use table::{Database, DbError, Schema, Table};
pub use value::{Value, ValueType};
