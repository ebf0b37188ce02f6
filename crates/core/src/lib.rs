//! # scidock — the SciDock molecular-docking virtual-screening workflow
//!
//! The paper's primary contribution, rebuilt on the substrates of this
//! workspace:
//!
//! * [`dataset`] — the Table 2 inputs: 238 cysteine-protease receptors ×
//!   42 ligands (~10,000 pairs), generated deterministically;
//! * [`activities`] — the eight SciDock activities (Fig. 1) as executable
//!   [`cumulus`] workflow activities, including the adaptive AD4/Vina size
//!   split and the Hg blacklist rule;
//! * [`receptors`] — the bounded per-process receptor cache under them: Hg
//!   screen, receptor preparation, grids and map files, each once per
//!   receptor however many pairs and campaigns use it;
//! * [`cost`] — the activity cost model calibrated to the paper's Fig. 10
//!   provenance measurements, for the simulated cloud-scale studies;
//! * [`analysis`] — Table 3 (FEB(−) counts, average FEB/RMSD) and top-
//!   interaction ranking;
//! * [`redock`] — §V.D's suggested refinements: redocking from a known pose
//!   and AD4↔Vina engine-agreement checks;
//! * [`experiments`] — drivers that regenerate every table and figure of
//!   the evaluation section.
//!
//! ```no_run
//! use scidock::activities::{EngineMode, SciDockConfig};
//! use scidock::experiments::run_screening;
//!
//! // dock two receptors against one ligand with Vina, on 4 threads
//! let out = run_screening(&["1HUC", "2HHN"], &["0D6"], EngineMode::VinaOnly,
//!                         4, &SciDockConfig::default());
//! for r in &out.results {
//!     println!("{}-{}: FEB {:.1} kcal/mol", r.receptor, r.ligand, r.feb);
//! }
//! // the provenance DB answers the paper's queries
//! let q = out.prov.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap();
//! println!("{q}");
//! ```

#![warn(missing_docs)]

pub mod activities;
pub mod analysis;
pub mod cost;
pub mod dataset;
pub mod experiments;
pub mod receptors;
pub mod redock;

pub use activities::{build_scidock, scidock_xml_spec, stage_inputs, EngineMode, SciDockConfig};
pub use analysis::{table3, top_interactions, total_feb_negative, PairResult, Table3Row};
pub use cost::{build_sim_tasks, CostModel};
pub use dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};
pub use experiments::{
    headline, run_screening, scaling_sweep, simulate_at, Headline, ScalePoint, ScreeningOutcome,
    SweepConfig, PAPER_CORE_COUNTS,
};
pub use receptors::ReceptorCache;
