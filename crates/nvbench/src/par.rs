//! Parallel experiment engine.
//!
//! Every figure and ablation in the suite is a matrix of independent
//! (scheme, workload, config) simulations. This module fans those runs
//! out over a work-queue of OS threads (`std::thread::scope`, no
//! external crates) while keeping the *output byte-identical to the
//! serial driver*: results are collected by submission index, so
//! consumers iterate them in exactly the order a `for` loop would have
//! produced. Each simulation is single-threaded and deterministic;
//! parallelism only changes wall-clock time, never results.
//!
//! Worker count comes from [`default_jobs`]: the `NVO_JOBS` environment
//! variable if set, otherwise `std::thread::available_parallelism`.
//! `jobs <= 1` degrades to a plain serial loop on the calling thread —
//! the determinism regression test (`tests/determinism.rs`) pins the
//! parallel engine against that path.
//!
//! Traces are the expensive shared input: [`gen_traces`] generates each
//! workload trace once (itself in parallel), packs it into the flat
//! replay encoding, and hands out `Arc<PackedTrace>` clones, so an
//! N-scheme sweep neither regenerates nor re-packs the workload N
//! times.

use crate::exp::{run_scheme, run_scheme_stats, ExpResult, Scheme};
pub use nvsim::par::run_ordered;
use nvsim::stats::SystemStats;
use nvsim::trace::PackedTrace;
use nvsim::SimConfig;
use nvworkloads::{generate, SuiteParams, Workload};
use std::sync::Arc;

/// The worker count: `NVO_JOBS` if set to a positive integer, else the
/// machine's available parallelism, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("NVO_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Generates one trace per workload (in parallel), packs it, and shares
/// each via `Arc`, in the order given.
pub fn gen_traces(
    workloads: &[Workload],
    params: &SuiteParams,
    jobs: usize,
) -> Vec<Arc<PackedTrace>> {
    run_ordered(workloads.len(), jobs, |i| {
        Arc::new(generate(workloads[i], params).to_packed())
    })
}

/// Runs every (trace × scheme) pair of the matrix in parallel. The
/// result is row-per-trace, column-per-scheme, in the given orders —
/// the same nesting as the serial double loop.
pub fn run_matrix(
    schemes: &[Scheme],
    cfg: &Arc<SimConfig>,
    traces: &[Arc<PackedTrace>],
    jobs: usize,
) -> Vec<Vec<ExpResult>> {
    let cols = schemes.len();
    let flat = run_ordered(traces.len() * cols, jobs, |i| {
        run_scheme(schemes[i % cols], cfg, &traces[i / cols])
    });
    let mut rows = Vec::with_capacity(traces.len());
    let mut it = flat.into_iter();
    for _ in 0..traces.len() {
        rows.push(it.by_ref().take(cols).collect());
    }
    rows
}

/// [`run_matrix`], but each cell also carries the scheme's full stats
/// block so consumers can aggregate with [`SystemStats::merge`] instead
/// of re-deriving scalars. Same ordering guarantee as [`run_matrix`].
pub fn run_matrix_stats(
    schemes: &[Scheme],
    cfg: &Arc<SimConfig>,
    traces: &[Arc<PackedTrace>],
    jobs: usize,
) -> Vec<Vec<(ExpResult, SystemStats)>> {
    let cols = schemes.len();
    let flat = run_ordered(traces.len() * cols, jobs, |i| {
        let (res, stats, _) = run_scheme_stats(schemes[i % cols], cfg, &traces[i / cols]);
        (res, stats)
    });
    let mut rows = Vec::with_capacity(traces.len());
    let mut it = flat.into_iter();
    for _ in 0..traces.len() {
        rows.push(it.by_ref().take(cols).collect());
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_env_overrides_default() {
        // Serialized via the single-threaded test below only reading —
        // set and restore around the check.
        std::env::set_var("NVO_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::set_var("NVO_JOBS", "not-a-number");
        assert!(default_jobs() >= 1);
        std::env::remove_var("NVO_JOBS");
        assert!(default_jobs() >= 1);
    }
}
