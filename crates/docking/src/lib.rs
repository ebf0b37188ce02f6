//! # docking — AD4-style and Vina-style molecular docking engines
//!
//! The compute substrate of the SciDock reproduction. Implements, from
//! scratch:
//!
//! * the AutoDock 4 empirical free-energy function (vdW, 12-10 H-bond,
//!   distance-dependent-dielectric electrostatics, Gaussian desolvation,
//!   torsional entropy) — [`params`], [`scoring`];
//! * AutoGrid-style precomputed affinity maps with trilinear interpolation —
//!   [`grid`], [`autogrid`];
//! * ligand pose representation over PDBQT torsion trees — [`conformation`];
//! * the Lamarckian genetic algorithm (AD4) and Monte-Carlo iterated local
//!   search (Vina) with Solis–Wets refinement — [`search`];
//! * `.dlg` / Vina-log rendering and re-parsing — [`dlg`];
//! * a one-call docking API — [`engine`].
//!
//! ```
//! use docking::engine::{dock, DockConfig, EngineKind};
//! use docking::search::LgaConfig;
//! use molkit::formats::pdbqt::PdbqtLigand;
//! use molkit::synth::{generate_ligand, generate_receptor, LigandParams, ReceptorParams};
//! use molkit::torsion::build_torsion_tree;
//! use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};
//!
//! let mut receptor = generate_receptor("1HUC", &ReceptorParams {
//!     min_residues: 40, max_residues: 50, hg_fraction: 0.0 });
//! assign_ad_types(&mut receptor);
//!
//! let mut lig = generate_ligand("0D6", &LigandParams {
//!     min_heavy: 8, max_heavy: 10, hang_fraction: 0.0 });
//! assign_ad_types(&mut lig);
//! molkit::charges::assign_gasteiger(&mut lig, &Default::default());
//! merge_nonpolar_hydrogens(&mut lig);
//! let tree = build_torsion_tree(&lig);
//! let ligand = PdbqtLigand { mol: lig, tree };
//!
//! let cfg = DockConfig {
//!     ad4_runs: 1,
//!     lga: LgaConfig { population: 6, generations: 3, ..Default::default() },
//!     grid_spacing: 1.0,
//!     ..Default::default()
//! };
//! let result = dock(&receptor, &ligand, EngineKind::Ad4, &cfg).unwrap();
//! assert!(result.feb.is_finite());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod autogrid;
pub mod celllist;
pub mod cluster;
pub mod conformation;
pub mod dlg;
pub mod energy;
pub mod engine;
pub mod grid;
pub mod gridio;
pub mod mapfile;
#[cfg(test)]
mod oracle;
pub mod params;
pub mod scoring;
pub mod search;
pub mod vexp;

pub use cluster::{cluster_poses, PoseCluster};
pub use energy::EnergyModel;
pub use engine::{dock, ClusterInfo, DockConfig, DockError, DockResult, EngineKind, Mode};
