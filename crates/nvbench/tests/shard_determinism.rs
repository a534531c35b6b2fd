//! Differential test: sharded replay must be *worker-count invisible*.
//! The shard plan, the epoch-barrier protocol, and the cross-island
//! exchange maps depend only on the trace and the machine configuration
//! — never on which OS thread ran which island — so for every figure
//! scheme × workload pair, `--shards 1/2/4/8` must produce identical
//! `ExpResult`s, byte-identical `SystemStats`, and byte-identical
//! metrics-tree dumps. With the `trace` feature on, per-kind structured
//! event counts must match too (event *order* may differ: workers
//! interleave, but each island emits the same events either way).

use nvbench::{default_jobs, gen_traces, run_ordered, run_scheme_sharded, EnvScale, Scheme};
use nvworkloads::Workload;

const WORKLOADS: [Workload; 4] = [
    Workload::HashTable,
    Workload::BTree,
    Workload::Art,
    Workload::Kmeans,
];

const SHARDS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn sharded_replay_is_worker_count_invisible() {
    let cfg = std::sync::Arc::new(EnvScale::Quick.sim_config());
    let params = EnvScale::Quick.suite_params();
    let jobs = default_jobs();
    let traces = gen_traces(&WORKLOADS, &params, jobs);
    let schemes = Scheme::FIGURE;

    // Each (scheme, workload) cell runs every shard count and compares
    // against the 1-worker reference; cells fan out over the pool.
    let cols = schemes.len();
    run_ordered(WORKLOADS.len() * cols, jobs, |i| {
        let (s, t) = (schemes[i % cols], &traces[i / cols]);
        let w = WORKLOADS[i / cols];
        let base = run_scheme_sharded(s, &cfg, t, SHARDS[0]);
        let base_tree = base.metrics.dump_tree();
        for &n in &SHARDS[1..] {
            let run = run_scheme_sharded(s, &cfg, t, n);
            assert_eq!(
                base.result, run.result,
                "{s} on {w}: ExpResult diverged at {n} shards"
            );
            assert_eq!(
                base.stats, run.stats,
                "{s} on {w}: SystemStats diverged at {n} shards"
            );
            assert_eq!(
                base_tree,
                run.metrics.dump_tree(),
                "{s} on {w}: metrics tree diverged at {n} shards"
            );
            assert_eq!(base.sharded, run.sharded, "{s} on {w}: capability flapped");
            assert_eq!(
                (base.islands, base.windows, base.imported_lines),
                (run.islands, run.windows, run.imported_lines),
                "{s} on {w}: shard summary diverged at {n} shards"
            );
        }
        // The capability flag routes exactly one figure scheme serially.
        assert_eq!(base.sharded, s != Scheme::HwShadow, "{s}: capability flag");
    });
}

#[test]
fn sharded_replay_reports_plan_shape() {
    // The shard summary reflects the machine topology: Quick scale is
    // 16 cores / 2 per VD = 8 islands, and the barrier cadence is the
    // per-thread share of the epoch budget.
    let cfg = std::sync::Arc::new(EnvScale::Quick.sim_config());
    let params = EnvScale::Quick.suite_params();
    let trace = nvworkloads::generate(Workload::HashTable, &params).to_packed();
    let run = run_scheme_sharded(Scheme::NvOverlay, &cfg, &trace, 4);
    assert!(run.sharded);
    assert_eq!(run.islands, (cfg.cores / cfg.cores_per_vd) as usize);
    assert!(run.windows > 0, "a non-empty trace has at least one window");
    assert!(
        run.imported_lines > 0,
        "shared-heap workloads cross island boundaries"
    );
}

#[cfg(feature = "trace")]
#[test]
fn sharded_replay_emits_identical_event_counts() {
    use nvsim::nvtrace::{self, EventKind, TraceConfig};

    // Per-worker rings merge into this thread's recorder at the end of
    // each sharded run. Capacity is sized so nothing is overwritten —
    // only then are per-kind counts comparable across worker groupings.
    let big = TraceConfig {
        capacity: 1 << 22,
        sample_every: 1,
    };
    let cfg = std::sync::Arc::new(EnvScale::Quick.sim_config());
    let params = EnvScale::Quick.suite_params();
    let trace = nvworkloads::generate(Workload::BTree, &params).to_packed();
    for s in [Scheme::NvOverlay, Scheme::SwLogging, Scheme::Picl] {
        nvtrace::install(big);
        let _ = run_scheme_sharded(s, &cfg, &trace, 1);
        let one = nvtrace::take().expect("tracer installed");
        assert_eq!(one.overwritten, 0, "{s}: ring too small for the run");
        for &n in &[2usize, 8] {
            nvtrace::install(big);
            let _ = run_scheme_sharded(s, &cfg, &trace, n);
            let many = nvtrace::take().expect("tracer installed");
            assert_eq!(many.overwritten, 0, "{s}: ring too small at {n} shards");
            for kind in EventKind::ALL {
                assert_eq!(
                    one.count(kind),
                    many.count(kind),
                    "{s}: event count for {} diverged at {n} shards",
                    kind.name()
                );
            }
            assert_eq!(one.accepted, many.accepted, "{s}: accepted total");
        }
    }
}
