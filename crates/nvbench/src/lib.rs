//! # nvbench — experiment harness for the NVOverlay reproduction
//!
//! One bench target per table/figure of the paper (see DESIGN.md §5 and
//! `benches/`). This library holds the shared experiment driver:
//! building each scheme, running a workload trace through it, and
//! collecting the quantities the figures report — plus the parallel
//! engine ([`par`]) the figure drivers fan their run matrices out with.

#![warn(missing_docs)]

pub mod chrome;
pub mod exp;
pub mod export;
pub mod par;
pub mod prof;

pub use chrome::{chrome_profile_json, chrome_trace_json, ChromeMeta};
pub use exp::{
    run_nvoverlay, run_picl_walker, run_scheme, run_scheme_sharded, run_scheme_sharded_prof,
    run_scheme_stats, EnvScale, ExpResult, NvoDetail, Scheme, ShardedSchemeRun,
};
pub use export::{registry_json, registry_tsv};
/// Re-export of the shared JSON helper (moved to `nvsim::json` so the
/// store and chaos crates can parse documents without a dependency on
/// the bench harness). Existing `nvbench::json::...` paths keep working.
pub use nvsim::json;
pub use par::{default_jobs, gen_traces, run_matrix, run_matrix_stats, run_ordered};
pub use prof::{bottleneck_table, profile_json, profile_structural_json, Spans};
