//! # hcc-bench
//!
//! Figure regeneration for the paper's entire evaluation: [`figures`]
//! computes the data series behind Tables/Figures 1–14 and renders them
//! in the rows the paper reports, the serving ([`serving`]), chaos
//! ([`chaos`]) and watchtower ([`watch`]) soaks run on top of it, and
//! [`figures::ablations`] renders the DESIGN.md ablations (bounce-pool
//! reuse, UVM batching/prefetch, crypto choice, ring depth, crypto
//! workers) in virtual time.
//!
//! Everything is reached through one front door, the `hcc_lab` bin
//! ([`lab`]): render a figure with e.g. `hcc_lab figures fig05` (no
//! name renders them all) and compare its table against the
//! corresponding figure (see EXPERIMENTS.md at the repo root for the
//! recorded comparison).
//!
//! All simulation-backed figures route their runs through the [`engine`]:
//! a parallel, memoizing executor of `hcc_workloads::Scenario` requests,
//! so each distinct (app, mode, seed, calibration) combination simulates
//! exactly once per run no matter how many figures ask for it.

pub mod chaos;
pub mod cli;
pub mod engine;
pub mod explain;
pub mod faults;
pub mod figures;
pub mod lab;
pub mod obs;
pub mod report;
pub mod serving;
pub mod watch;

pub use engine::ExperimentEngine;
pub use figures::cfg;
