//! # nvbm — the repository's benchmark
//!
//! Drives the pipeline a user of the reproduction runs — trace set-up,
//! serial and sharded replay, mount and serve, backup and restore —
//! through each layer's public functions, over three workloads chosen to
//! stress different layers ([`workload`]). An untraced run gives the
//! end-to-end metrics; a separate traced run gives the per-layer split.
//! Every run checks that the simulated results and the served, backed-up
//! and restored data are exactly right ([`run::Recorder::check`]).
//! `BENCHMARK.json` names every metric with its unit, direction and
//! regression bound ([`table`]).

#![warn(missing_docs)]

pub mod compare;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod run;
pub mod serve;
pub mod stats;
pub mod store;
pub mod table;
pub mod workload;
