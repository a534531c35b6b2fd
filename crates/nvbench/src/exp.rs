//! Shared experiment driver.
//!
//! Builds any of the seven systems (ideal + five baselines + NVOverlay),
//! replays a workload trace against it, and collects the quantities the
//! paper's figures report: wall-clock cycles, NVM bytes by purpose,
//! eviction-reason decomposition, bandwidth series, and NVOverlay's
//! mapping-table metrics.

use nvbaselines::{CommitKind, EpochCommitSystem, IdealSystem, Picl, PiclLevel};
use nvoverlay::system::{NvOverlayOptions, NvOverlaySystem};
use nvsim::memsys::{MemorySystem, Runner};
use nvsim::metrics::Registry;
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};
use nvsim::trace::PackedTrace;
use nvsim::SimConfig;
use std::fmt;
use std::sync::Arc;

/// The schemes compared across the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// No snapshotting (Fig 11's normalization baseline).
    Ideal,
    /// Software undo logging.
    SwLogging,
    /// Software shadow paging.
    SwShadow,
    /// ThyNVM-like hardware shadow paging.
    HwShadow,
    /// PiCL hardware undo logging (LLC level).
    Picl,
    /// PiCL at the L2 level.
    PiclL2,
    /// NVOverlay.
    NvOverlay,
    /// NVOverlay with the battery-backed OMC buffer (Fig 16).
    NvOverlayBuffered,
}

impl Scheme {
    /// The six schemes of Fig 11/12, figure order.
    pub const FIGURE: [Scheme; 6] = [
        Scheme::SwLogging,
        Scheme::SwShadow,
        Scheme::HwShadow,
        Scheme::Picl,
        Scheme::PiclL2,
        Scheme::NvOverlay,
    ];

    /// Every scheme, for listings.
    pub const ALL: [Scheme; 8] = [
        Scheme::Ideal,
        Scheme::SwLogging,
        Scheme::SwShadow,
        Scheme::HwShadow,
        Scheme::Picl,
        Scheme::PiclL2,
        Scheme::NvOverlay,
        Scheme::NvOverlayBuffered,
    ];

    /// Parses a scheme label (case/punctuation-insensitive).
    pub fn from_name(s: &str) -> Option<Scheme> {
        let k = s.to_ascii_lowercase().replace([' ', '-', '_', '+'], "");
        Scheme::ALL.into_iter().find(|x| {
            x.name()
                .to_ascii_lowercase()
                .replace([' ', '-', '_', '+'], "")
                == k
        })
    }

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Ideal => "Ideal",
            Scheme::SwLogging => "SW Logging",
            Scheme::SwShadow => "SW Shadow",
            Scheme::HwShadow => "HW Shadow",
            Scheme::Picl => "PiCL",
            Scheme::PiclL2 => "PiCL-L2",
            Scheme::NvOverlay => "NVOverlay",
            Scheme::NvOverlayBuffered => "NVOverlay+Buf",
        }
    }

    /// Instantiates the scheme's memory system. The configuration handle
    /// is shared (`Arc` bump), not cloned, so matrix sweeps hand every
    /// cell the same immutable config.
    pub fn build(&self, cfg: &Arc<SimConfig>) -> Box<dyn MemorySystem> {
        struct Boxed<'a>(&'a Arc<SimConfig>);
        impl Build for Boxed<'_> {
            type Out = Box<dyn MemorySystem>;
            fn with<S: MemorySystem + 'static>(
                self,
                build: impl Fn(Arc<SimConfig>) -> S + Sync,
            ) -> Self::Out {
                Box::new(build(Arc::clone(self.0)))
            }
        }
        self.dispatch(Boxed(cfg))
    }

    /// Hands the scheme's concrete constructor to `b` — the one place a
    /// scheme meets its type, so each replay path monomorphizes over
    /// the system it runs.
    fn dispatch<B: Build>(self, b: B) -> B::Out {
        match self {
            Scheme::Ideal => b.with(IdealSystem::new_shared),
            Scheme::SwLogging | Scheme::SwShadow | Scheme::HwShadow => {
                let kind = self.commit_kind();
                b.with(move |c| EpochCommitSystem::new_shared(c, kind))
            }
            Scheme::Picl => b.with(|c| Picl::new_shared(c, PiclLevel::Llc)),
            Scheme::PiclL2 => b.with(|c| Picl::new_shared(c, PiclLevel::L2)),
            Scheme::NvOverlay => b.with(NvOverlaySystem::new_shared),
            Scheme::NvOverlayBuffered => b.with(NvOverlaySystem::with_omc_buffer_shared),
        }
    }

    /// The epoch-commit variation behind SW Logging, SW Shadow and HW
    /// Shadow.
    ///
    /// # Panics
    /// Panics for the other schemes, which are not epoch-commit systems.
    pub fn commit_kind(&self) -> CommitKind {
        match self {
            Scheme::SwLogging => CommitKind::UndoLog,
            Scheme::SwShadow => CommitKind::SwShadow,
            Scheme::HwShadow => CommitKind::HwShadow,
            _ => panic!("{self} is not an epoch-commit scheme"),
        }
    }

    /// Whether the scheme's memory system replays island-sharded —
    /// [`MemorySystem::shardable`] as a static property, so dispatchers
    /// can route without constructing a throwaway system just to ask.
    /// Must agree with every instance's answer; a test pins that.
    pub fn shardable(&self) -> bool {
        !matches!(self, Scheme::HwShadow)
    }
}

/// A use of one scheme's constructor, generic over the system type it
/// builds (see [`Scheme::dispatch`]).
trait Build {
    type Out;
    fn with<S: MemorySystem + 'static>(
        self,
        build: impl Fn(Arc<SimConfig>) -> S + Sync,
    ) -> Self::Out;
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The measured outcome of one (scheme, workload) run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpResult {
    /// Wall-clock cycles of the run.
    pub cycles: u64,
    /// Persistence stall cycles summed over cores.
    pub stall_cycles: u64,
    /// NVM bytes by purpose.
    pub data_bytes: u64,
    /// Log bytes.
    pub log_bytes: u64,
    /// Mapping-metadata bytes.
    pub meta_bytes: u64,
    /// Context-dump bytes.
    pub context_bytes: u64,
    /// NVM write-request count (data only).
    pub data_writes: u64,
    /// Eviction-reason decomposition.
    pub evict_capacity: u64,
    /// Coherence-driven (downgrade+invalidation) plus log writes.
    pub evict_coherence_log: u64,
    /// Tag-walk write-backs.
    pub evict_tag_walk: u64,
    /// Store-evictions (NVOverlay only).
    pub evict_store: u64,
    /// Epochs completed.
    pub epochs: u64,
    /// NVM bandwidth series resampled to 100 buckets (bytes per bucket).
    pub bandwidth_100: Vec<u64>,
    /// Bandwidth bucket width in cycles (before resampling).
    pub bucket_cycles: u64,
}

impl ExpResult {
    fn from_stats(stats: &SystemStats, cycles: u64, stall: u64) -> Self {
        let ev = &stats.evictions;
        Self {
            cycles,
            stall_cycles: stall,
            data_bytes: stats.nvm.bytes(NvmWriteKind::Data),
            log_bytes: stats.nvm.bytes(NvmWriteKind::Log),
            meta_bytes: stats.nvm.bytes(NvmWriteKind::MapMetadata),
            context_bytes: stats.nvm.bytes(NvmWriteKind::Context),
            data_writes: stats.nvm.writes(NvmWriteKind::Data),
            evict_capacity: ev.count(EvictReason::CapacityMiss),
            evict_coherence_log: ev.count(EvictReason::CoherenceDowngrade)
                + ev.count(EvictReason::CoherenceInvalidation)
                + ev.count(EvictReason::LogWrite)
                + ev.count(EvictReason::EpochFlush),
            evict_tag_walk: ev.count(EvictReason::TagWalk),
            evict_store: ev.count(EvictReason::StoreEviction),
            epochs: stats.epochs_completed,
            bandwidth_100: stats.nvm_bandwidth.resample(100),
            bucket_cycles: stats.nvm_bandwidth.bucket_cycles(),
        }
    }

    /// Total NVM bytes across all purposes.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes + self.log_bytes + self.meta_bytes + self.context_bytes
    }
}

/// Runs `trace` against `scheme` under `cfg` and collects the result.
pub fn run_scheme(scheme: Scheme, cfg: &Arc<SimConfig>, trace: &PackedTrace) -> ExpResult {
    run_scheme_stats(scheme, cfg, trace).0
}

/// Like [`run_scheme`], but also returns the scheme's full stats block
/// (for [`SystemStats::merge`]-based aggregation) and its hierarchical
/// metrics registry (for the flat exporters).
pub fn run_scheme_stats(
    scheme: Scheme,
    cfg: &Arc<SimConfig>,
    trace: &PackedTrace,
) -> (ExpResult, SystemStats, Registry) {
    /// Drives one concrete system through the replay loop. Monomorphized
    /// per scheme type so the scheme's whole access path inlines into its
    /// loop — this is the hot part of every figure sweep; keep it free of
    /// `dyn`.
    struct Serial<'a>(&'a Arc<SimConfig>, &'a PackedTrace);
    impl Build for Serial<'_> {
        type Out = (ExpResult, SystemStats, Registry);
        fn with<S: MemorySystem + 'static>(
            self,
            build: impl Fn(Arc<SimConfig>) -> S + Sync,
        ) -> Self::Out {
            let mut sys = build(Arc::clone(self.0));
            let report = Runner::new().run_packed(&mut sys, self.1);
            let res = ExpResult::from_stats(sys.stats(), report.cycles, report.stall_cycles);
            (res, sys.stats().clone(), sys.metrics())
        }
    }
    scheme.dispatch(Serial(cfg, trace))
}

/// Outcome of one sharded scheme run: the standard result triple plus
/// the shard-execution summary (zeroed when the scheme fell back to the
/// serial path).
#[derive(Clone, Debug)]
pub struct ShardedSchemeRun {
    /// The figure-level result.
    pub result: ExpResult,
    /// The merged stats block (ascending island order).
    pub stats: SystemStats,
    /// The merged metrics registry (ascending island order).
    pub metrics: Registry,
    /// Whether the sharded path actually ran (`false`: the scheme is
    /// serial-only and [`run_scheme_stats`] drove it instead).
    pub sharded: bool,
    /// Islands in the plan (0 when serial).
    pub islands: usize,
    /// Barrier windows in the plan (0 when serial).
    pub windows: u64,
    /// Windows at which islands actually rendezvoused — the plan's
    /// coalesced cadence (0 when serial).
    pub rendezvous_windows: u64,
    /// Cross-island exchange entries applied (0 when serial).
    pub imported_lines: u64,
    /// Stall-attribution profile (`Some` only when profiling was
    /// requested *and* the sharded path actually ran).
    pub profile: Option<nvsim::ShardProfile>,
}

/// Like [`run_scheme_stats`], but replays the trace island-sharded over
/// `shards` worker threads (see `nvsim::shard`). The result is
/// invariant to `shards` by construction — the plan, the barrier
/// protocol, and the exchange maps depend only on the trace and the
/// machine configuration — which `tests/shard_determinism.rs` pins.
///
/// Schemes whose `MemorySystem::shardable` is `false` (HW Shadow's
/// global checkpoint quiesce) fall back to the serial driver, so every
/// scheme remains runnable under any `--shards` value.
pub fn run_scheme_sharded(
    scheme: Scheme,
    cfg: &Arc<SimConfig>,
    trace: &PackedTrace,
    shards: usize,
) -> ShardedSchemeRun {
    run_scheme_sharded_prof(scheme, cfg, trace, shards, false)
}

/// [`run_scheme_sharded`] with optional stall-attribution profiling.
/// With `profiled` set (and the scheme actually shardable), the returned
/// [`ShardedSchemeRun::profile`] carries the full
/// [`nvsim::ShardProfile`]; the replay results are byte-identical either
/// way.
pub fn run_scheme_sharded_prof(
    scheme: Scheme,
    cfg: &Arc<SimConfig>,
    trace: &PackedTrace,
    shards: usize,
    profiled: bool,
) -> ShardedSchemeRun {
    if !scheme.shardable() {
        let (result, stats, metrics) = run_scheme_stats(scheme, cfg, trace);
        return ShardedSchemeRun {
            result,
            stats,
            metrics,
            sharded: false,
            islands: 0,
            windows: 0,
            rendezvous_windows: 0,
            imported_lines: 0,
            profile: None,
        };
    }
    // The memoized plan: the 6-scheme matrix (and every shard count of a
    // sweep) builds each workload's plan once. Fetch time is charged to
    // the profiler's plan-build bucket — near zero on a cache hit.
    let plan_t0 = std::time::Instant::now();
    let plan = nvsim::ShardPlan::cached(trace, cfg);
    let plan_build_ns = plan_t0.elapsed().as_nanos() as u64;
    let icfg = Arc::new(cfg.island_config());
    scheme.dispatch(ShardExec {
        cfg: &icfg,
        trace,
        plan: &plan,
        shards,
        profiled,
        plan_build_ns,
    })
}

/// The sharded replay: monomorphized per scheme type (see
/// [`run_scheme_stats`] for why).
struct ShardExec<'p> {
    cfg: &'p Arc<SimConfig>,
    trace: &'p PackedTrace,
    plan: &'p nvsim::ShardPlan,
    shards: usize,
    profiled: bool,
    plan_build_ns: u64,
}

impl Build for ShardExec<'_> {
    type Out = ShardedSchemeRun;
    fn with<S: MemorySystem + 'static>(
        self,
        build: impl Fn(Arc<SimConfig>) -> S + Sync,
    ) -> Self::Out {
        let (report, mut profile) = Runner::new().run_packed_sharded_prof(
            |_| build(Arc::clone(self.cfg)),
            self.trace,
            self.plan,
            self.shards,
            self.profiled,
        );
        if let Some(p) = profile.as_mut() {
            p.plan_build_ns = self.plan_build_ns;
        }
        let result = ExpResult::from_stats(&report.stats, report.cycles, report.stall_cycles);
        ShardedSchemeRun {
            result,
            stats: report.stats,
            metrics: report.metrics,
            sharded: true,
            islands: report.islands,
            windows: report.windows,
            rendezvous_windows: report.rendezvous_windows,
            imported_lines: report.imported_lines,
            profile,
        }
    }
}

/// NVOverlay-specific measurements (Fig 13 / Fig 16).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NvoDetail {
    /// Aggregate Master Mapping Table size in bytes.
    pub master_bytes: u64,
    /// Lines mapped by the master tables (the write working set).
    pub master_entries: u64,
    /// OMC buffer hits / misses.
    pub buffer_hits: u64,
    /// OMC buffer misses.
    pub buffer_misses: u64,
    /// The recoverable epoch at the end of the run.
    pub rec_epoch: u64,
    /// Distinct DRAM OID tags in use (the §V-F tagging-overhead metric).
    pub dram_oid_tags: u64,
}

/// Runs NVOverlay with explicit options and returns both the common
/// result and the backend detail.
pub fn run_nvoverlay(
    cfg: &Arc<SimConfig>,
    opts: NvOverlayOptions,
    trace: &PackedTrace,
) -> (ExpResult, NvoDetail) {
    let mut sys = NvOverlaySystem::with_options_shared(Arc::clone(cfg), opts);
    let report = Runner::new().run_packed(&mut sys, trace);
    let res = ExpResult::from_stats(sys.stats(), report.cycles, report.stall_cycles);
    let detail = NvoDetail {
        master_bytes: sys.mnm().master_size_bytes(),
        master_entries: sys.mnm().master_entries(),
        buffer_hits: sys.mnm().buffer_hits(),
        buffer_misses: sys.mnm().buffer_misses(),
        rec_epoch: sys.rec_epoch(),
        dram_oid_tags: sys.hierarchy().dram().oid_tag_count() as u64,
    };
    (res, detail)
}

/// Runs PiCL with its walker toggled (Fig 15 ablation).
pub fn run_picl_walker(
    cfg: &Arc<SimConfig>,
    level: PiclLevel,
    walker: bool,
    trace: &PackedTrace,
) -> ExpResult {
    let mut sys = Picl::with_walker_shared(Arc::clone(cfg), level, walker);
    let report = Runner::new().run_packed(&mut sys, trace);
    ExpResult::from_stats(sys.stats(), report.cycles, report.stall_cycles)
}

/// Experiment scale taken from the environment: `NVB_SCALE` ∈
/// {`quick`, `standard`, `full`}, default `standard`. `full` matches the
/// paper's proportions most closely but takes minutes per figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvScale {
    /// CI-sized.
    Quick,
    /// Default.
    Standard,
    /// Large.
    Full,
}

impl EnvScale {
    /// Reads `NVB_SCALE` from the environment.
    pub fn from_env() -> Self {
        match std::env::var("NVB_SCALE").as_deref() {
            Ok("quick") => EnvScale::Quick,
            Ok("full") => EnvScale::Full,
            _ => EnvScale::Standard,
        }
    }

    /// The suite parameters for this scale.
    pub fn suite_params(&self) -> nvworkloads::SuiteParams {
        match self {
            EnvScale::Quick => nvworkloads::SuiteParams {
                threads: 16,
                ops: 4_000,
                warmup_ops: 40_000,
                seed: 0xC0FFEE,
            },
            EnvScale::Standard => nvworkloads::SuiteParams {
                threads: 16,
                ops: 25_000,
                warmup_ops: 150_000,
                seed: 0xC0FFEE,
            },
            EnvScale::Full => nvworkloads::SuiteParams {
                threads: 16,
                ops: 120_000,
                warmup_ops: 600_000,
                seed: 0xC0FFEE,
            },
        }
    }

    /// The simulated configuration for this scale: Table II geometry with
    /// the epoch size scaled to the trace volume (the paper's 1 M-store
    /// epochs scale to the suite's store counts; see EXPERIMENTS.md).
    pub fn sim_config(&self) -> SimConfig {
        let epoch = match self {
            EnvScale::Quick => 800,
            EnvScale::Standard => 3_000,
            EnvScale::Full => 12_000,
        };
        SimConfig::builder()
            .epoch_size_stores(epoch)
            .build()
            .expect("valid default config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvworkloads::{generate, SuiteParams, Workload};

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(16, 2)
            .l1(8 * 1024, 4, 4)
            .l2(64 * 1024, 8, 8)
            .llc(2 * 1024 * 1024, 8, 30, 4)
            .epoch_size_stores(2_000)
            .build()
            .unwrap()
    }

    #[test]
    fn all_schemes_run_the_same_trace() {
        let cfg = Arc::new(small_cfg());
        let p = SuiteParams {
            threads: 16,
            ops: 1_500,
            warmup_ops: 0,
            seed: 1,
        };
        let trace = generate(Workload::HashTable, &p).to_packed();
        for s in [Scheme::Ideal, Scheme::NvOverlay, Scheme::Picl] {
            let r = run_scheme(s, &cfg, &trace);
            assert!(r.cycles > 0, "{s}");
        }
    }

    #[test]
    fn static_shardable_agrees_with_every_instance() {
        // `Scheme::shardable` answers without constructing a system;
        // this pins it to what each constructed instance reports so the
        // two can never drift apart.
        let cfg = Arc::new(small_cfg());
        for s in Scheme::ALL {
            assert_eq!(
                s.shardable(),
                s.build(&cfg).shardable(),
                "{s}: static shardable diverged from the instance"
            );
        }
    }

    #[test]
    fn figure_shape_holds_on_a_small_run() {
        // The qualitative ordering of the paper must hold even at small
        // scale: SW schemes slowest; PiCL/NVOverlay near-ideal; PiCL
        // writes more bytes than NVOverlay; PiCL-L2 more than PiCL.
        let cfg = Arc::new(small_cfg());
        let p = SuiteParams {
            threads: 16,
            ops: 3_000,
            warmup_ops: 30_000,
            seed: 2,
        };
        let trace = generate(Workload::BTree, &p).to_packed();
        let ideal = run_scheme(Scheme::Ideal, &cfg, &trace);
        let swl = run_scheme(Scheme::SwLogging, &cfg, &trace);
        let nvo = run_scheme(Scheme::NvOverlay, &cfg, &trace);
        let picl = run_scheme(Scheme::Picl, &cfg, &trace);
        let picl_l2 = run_scheme(Scheme::PiclL2, &cfg, &trace);

        assert!(swl.cycles > nvo.cycles, "SW logging slower than NVOverlay");
        // (The unit-test config uses deliberately tiny caches; the full
        // figure runs land closer to the paper's ~1.0–1.4.)
        assert!(
            nvo.cycles < ideal.cycles * 2,
            "NVOverlay within 2x of ideal: {} vs {}",
            nvo.cycles,
            ideal.cycles
        );
        assert!(
            picl.cycles < ideal.cycles * 2,
            "PiCL within 2x of ideal: {} vs {}",
            picl.cycles,
            ideal.cycles
        );
        assert!(
            picl.total_bytes() > nvo.total_bytes(),
            "PiCL writes more than NVOverlay: {} vs {}",
            picl.total_bytes(),
            nvo.total_bytes()
        );
        assert!(
            picl_l2.total_bytes() >= picl.total_bytes(),
            "PiCL-L2 >= PiCL: {} vs {}",
            picl_l2.total_bytes(),
            picl.total_bytes()
        );
    }
}
