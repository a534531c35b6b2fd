//! Deterministic crash-site exploration.
//!
//! [`prepare`] runs the workload once per scheme with the NVM fault
//! plane attached (the *oracle run*), harvests the persistence-order
//! journal, and picks a stratified, seeded sample of crash sites — every
//! journal index is a candidate, so crash points fall *inside* OMC
//! flushes (between two `MasterChunk` writes of one merge), mid-`Mmaster`
//! root update, mid-undo-log flush, and at plain data writes.
//!
//! Each site check ([`ChaosRun::check_site`]) is a pure function of the
//! journal and the site's derived seed: draw a crash cut, rebuild the
//! durable state, run the production recovery procedure against it,
//! optionally inject a mapping-word bit flip (which recovery must
//! *detect*), and verify the three consistency-cut invariants of
//! `tests/crash_consistency.rs` against the trace oracle. Site checks
//! are `Sync` and independent, so callers may fan them out across
//! threads (`nvbench::par`) without perturbing the result.

use crate::oracle::TraceOracle;
use crate::rebuild::{
    rebuild_undo, undo_commit_cutoff, undo_expected, RebuildFidelity, RebuiltState,
};
use crate::report::{ChaosReport, Violation};
use nvbaselines::{CommitKind, EpochCommitSystem};
use nvoverlay::recovery::{recover_durable, RecoveryError};
use nvoverlay::system::NvOverlaySystem;
use nvsim::addr::{LineAddr, Token};
use nvsim::config::SimConfig;
use nvsim::fastmap::FastHashMap;
use nvsim::fault::{CrashCut, FaultPlane, PersistPayload, WriteRecord};
use nvsim::memsys::Runner;
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::rng::Rng64;
use nvsim::trace::Trace;

/// Per-site seed mixer (splitmix64 increment): keeps site seeds
/// independent of the order sites were selected in.
pub(crate) const SEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The scheme whose crash behavior is explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosScheme {
    /// The NVOverlay system (multi-snapshot overlay + Mmaster recovery).
    NvOverlay,
    /// The software undo-logging baseline (WAL + epoch commit markers).
    SwUndo,
}

impl ChaosScheme {
    /// Parses a CLI scheme name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "nvoverlay" => Some(Self::NvOverlay),
            "sw-undo" => Some(Self::SwUndo),
            _ => None,
        }
    }

    /// Canonical name (stable in reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::NvOverlay => "nvoverlay",
            Self::SwUndo => "sw-undo",
        }
    }
}

/// Where in the persistence flow a crash site sits, keyed by the write
/// being issued when the crash hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteCategory {
    /// A data write: an overlay version slot or a home-location flush.
    Data,
    /// A Master Mapping Table metadata chunk mid-OMC-flush.
    OmcFlushMeta,
    /// The `rec-epoch` master root pointer update.
    MasterRoot,
    /// A processor context dump at an epoch boundary.
    Context,
    /// An undo-log entry (software logging).
    UndoLog,
    /// An epoch commit marker (software logging).
    EpochCommit,
}

impl SiteCategory {
    /// All categories, in stable report order.
    pub const ALL: [SiteCategory; 6] = [
        SiteCategory::Data,
        SiteCategory::OmcFlushMeta,
        SiteCategory::MasterRoot,
        SiteCategory::Context,
        SiteCategory::UndoLog,
        SiteCategory::EpochCommit,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            SiteCategory::Data => "data",
            SiteCategory::OmcFlushMeta => "omc-flush-meta",
            SiteCategory::MasterRoot => "master-root",
            SiteCategory::Context => "context",
            SiteCategory::UndoLog => "undo-log",
            SiteCategory::EpochCommit => "epoch-commit",
        }
    }

    fn index(self) -> usize {
        SiteCategory::ALL
            .iter()
            .position(|c| *c == self)
            .expect("listed")
    }
}

fn category_of(rec: &WriteRecord) -> SiteCategory {
    match &rec.payload {
        Some(PersistPayload::MasterChunk { .. }) => SiteCategory::OmcFlushMeta,
        Some(PersistPayload::RecEpochRoot { .. }) => SiteCategory::MasterRoot,
        Some(PersistPayload::Context { .. }) => SiteCategory::Context,
        Some(PersistPayload::UndoLog { .. }) => SiteCategory::UndoLog,
        Some(PersistPayload::EpochCommit { .. }) => SiteCategory::EpochCommit,
        Some(PersistPayload::Version { .. }) | Some(PersistPayload::DataHome { .. }) | None => {
            SiteCategory::Data
        }
    }
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The scheme under test.
    pub scheme: ChaosScheme,
    /// Number of crash sites to explore (capped by the journal length).
    pub sites: usize,
    /// Master seed: fixes the site sample and every per-site cut.
    pub seed: u64,
    /// Probability a cut's boundary write is torn rather than lost.
    pub torn_p: f64,
    /// Probability of injecting a mapping-word bit flip at a site
    /// (NVOverlay only; recovery must detect it).
    pub flip_p: f64,
    /// Recovery rebuild fidelity ([`RebuildFidelity::BrokenNoEpochFilter`]
    /// is the harness self-test mode — invariants must then fire).
    pub fidelity: RebuildFidelity,
    /// Run the oracle sim under sustained OMC backpressure: NVM queue
    /// depth 1 and 4× write latency, deepening the in-flight windows.
    pub stress_backpressure: bool,
}

impl ChaosConfig {
    /// Defaults for `scheme`: 200 sites, seed 7, torn 25%, flip 10%,
    /// exact fidelity, no backpressure.
    pub fn new(scheme: ChaosScheme) -> Self {
        Self {
            scheme,
            sites: 200,
            seed: 7,
            torn_p: 0.25,
            flip_p: 0.10,
            fidelity: RebuildFidelity::Exact,
            stress_backpressure: false,
        }
    }
}

/// The outcome of one crash-site check.
#[derive(Clone, Debug)]
pub struct SiteResult {
    /// Journal index of the crash site.
    pub site: usize,
    /// Category of the write being issued at the crash.
    pub category: SiteCategory,
    /// The derived per-site seed (replay with `--sites 1`-style tools).
    pub seed: u64,
    /// Accepted writes dropped or torn by the cut.
    pub dropped: usize,
    /// Category of the torn boundary write, if the cut tore one.
    pub torn: Option<SiteCategory>,
    /// Mapping-word bit flips injected at this site.
    pub flips: usize,
    /// Faults recovery correctly *detected* (torn root, corrupt mapping).
    pub detected: Vec<&'static str>,
    /// The epoch recovery restored (0 = nothing recoverable).
    pub recovered_epoch: u64,
    /// Lines in the recovered image.
    pub recovered_lines: usize,
    /// Invariant violations — empty means the site is consistent.
    pub violations: Vec<String>,
}

/// One prepared exploration: the oracle run's journal plus the selected
/// site sample. Site checks borrow it immutably and are independent.
pub struct ChaosRun {
    plane: FaultPlane,
    oracle: TraceOracle,
    cfg: ChaosConfig,
    /// Selected `(journal index, category)` sites, ascending.
    sites: Vec<(usize, SiteCategory)>,
    run_cycles: u64,
}

/// Runs the workload once with the fault plane attached and selects the
/// crash-site sample. Deterministic for a given `(trace, simcfg, cfg)`.
pub fn prepare(trace: &Trace, simcfg: &SimConfig, cfg: ChaosConfig) -> ChaosRun {
    let mut simcfg = simcfg.clone();
    if cfg.stress_backpressure {
        simcfg.nvm_queue_depth = 1;
        simcfg.nvm_write_latency *= 4;
    }
    let (plane, run_cycles) = match cfg.scheme {
        ChaosScheme::NvOverlay => {
            let mut sys = NvOverlaySystem::new(&simcfg);
            sys.nvm.enable_fault_plane();
            let report = Runner::new().run(&mut sys, trace);
            (
                sys.nvm.take_fault_plane().expect("plane attached"),
                report.cycles,
            )
        }
        ChaosScheme::SwUndo => {
            let mut sys = EpochCommitSystem::new(&simcfg, CommitKind::UndoLog);
            sys.nvm.enable_fault_plane();
            let report = Runner::new().run(&mut sys, trace);
            (
                sys.nvm.take_fault_plane().expect("plane attached"),
                report.cycles,
            )
        }
    };
    let oracle = TraceOracle::new(trace);
    let sites = select_sites(&plane, &cfg);
    ChaosRun {
        plane,
        oracle,
        cfg,
        sites,
        run_cycles,
    }
}

/// Stratified site sample: every journal index (plus the end-of-run
/// crash) is a candidate, bucketed by category; the budget is spread
/// round-robin across non-empty buckets so rare-but-critical sites
/// (root updates, mid-flush metadata chunks) are always represented,
/// then drawn per bucket by seeded partial Fisher–Yates.
fn select_sites(plane: &FaultPlane, cfg: &ChaosConfig) -> Vec<(usize, SiteCategory)> {
    let mut pools: [Vec<usize>; 6] = Default::default();
    for r in plane.records() {
        pools[category_of(r).index()].push(r.id as usize);
    }
    // The end-of-run crash (all writes issued, queue possibly wet).
    pools[SiteCategory::Data.index()].push(plane.len());

    let mut quota = [0usize; 6];
    let mut budget = cfg.sites;
    loop {
        let mut progressed = false;
        for c in 0..6 {
            if budget == 0 {
                break;
            }
            if quota[c] < pools[c].len() {
                quota[c] += 1;
                budget -= 1;
                progressed = true;
            }
        }
        if budget == 0 || !progressed {
            break;
        }
    }

    let mut rng = Rng64::seed_from_u64(cfg.seed ^ 0x51_7E5);
    let mut out = Vec::new();
    for c in 0..6 {
        let pool = &mut pools[c];
        for i in 0..quota[c] {
            let j = i + rng.gen_range(0..(pool.len() - i) as u64) as usize;
            pool.swap(i, j);
            out.push((pool[i], SiteCategory::ALL[c]));
        }
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    out
}

impl ChaosRun {
    /// Number of selected sites (≤ `cfg.sites`).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The journal of the oracle run.
    pub fn plane(&self) -> &FaultPlane {
        &self.plane
    }

    /// The exploration parameters.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Checks one selected site. Pure: depends only on the journal and
    /// the site's derived seed, never on other sites — safe to fan out.
    pub fn check_site(&self, i: usize) -> SiteResult {
        let (site, category) = self.sites[i];
        let seed = self.cfg.seed ^ (site as u64).wrapping_mul(SEED_GOLDEN);
        let mut rng = Rng64::seed_from_u64(seed);
        let cut = self.plane.crash_cut(site, &mut rng, self.cfg.torn_p);
        let scope = TraceScope::new(Track::Fault);
        scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 0);
        if !cut.lost.is_empty() {
            scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 3);
        }
        if cut.torn.is_some() {
            scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 1);
        }
        let torn = cut
            .torn
            .map(|id| category_of(&self.plane.records()[id as usize]));
        let mut res = SiteResult {
            site,
            category,
            seed,
            dropped: cut.dropped_count(),
            torn,
            flips: 0,
            detected: Vec::new(),
            recovered_epoch: 0,
            recovered_lines: 0,
            violations: Vec::new(),
        };
        match self.cfg.scheme {
            ChaosScheme::NvOverlay => self.check_nvoverlay(&cut, &mut rng, &scope, &mut res),
            ChaosScheme::SwUndo => self.check_sw_undo(&cut, &mut res),
        }
        res
    }

    fn check_nvoverlay(
        &self,
        cut: &CrashCut,
        rng: &mut Rng64,
        scope: &TraceScope,
        res: &mut SiteResult,
    ) {
        let mut rb = RebuiltState::rebuild(&self.plane, cut, self.cfg.fidelity);
        // A torn rec-epoch root must be *detected*, then recovery falls
        // back to the previous durable root cell.
        if res.torn == Some(SiteCategory::MasterRoot) {
            match recover_durable(&rb) {
                Err(RecoveryError::TornMasterRoot { .. }) => res.detected.push("torn-master-root"),
                other => res.violations.push(format!(
                    "torn rec-epoch root went undetected (recovery returned {other:?})"
                )),
            }
            rb.fallback_to_previous_root();
        }
        // In-array corruption: flip one bit of one mapping word; the
        // parity check must refuse to recover until the word is healed.
        // Only meaningful when a durable root exists — with no committed
        // epoch, recovery stops before the mapping scan and no data is
        // at risk.
        use nvoverlay::recovery::DurableState as _;
        if rb.root().epoch > 0 && rng.gen_bool(self.cfg.flip_p) {
            if let Some((line, original, bit)) = rb.inject_flip(rng) {
                res.flips += 1;
                scope.emit(EventKind::FaultInjected, cut.crash_time, res.site as u64, 2);
                match recover_durable(&rb) {
                    Err(RecoveryError::CorruptMapping { line: bad, .. }) if bad == line => {
                        res.detected.push("corrupt-mapping");
                    }
                    other => res.violations.push(format!(
                        "bit {bit} flipped in the mapping word of line {:#x} went \
                         undetected (recovery returned {other:?})",
                        line.raw()
                    )),
                }
                rb.heal(line, original);
            }
        }
        match recover_durable(&rb) {
            Ok(img) => {
                res.recovered_epoch = img.epoch();
                res.recovered_lines = img.len();
                let map: FastHashMap<LineAddr, Token> = img.iter().collect();
                self.check_token_validity(&map, res);
                self.check_prefix_cut(&map, res);
                // Invariant 3: the image equals the journal-derived
                // expectation at the recovered epoch.
                let expected = nvoverlay_expected(&self.plane, cut, img.epoch());
                if map != expected {
                    res.violations.push(format!(
                        "recovered image diverges from the journal expectation at \
                         epoch {} ({} vs {} lines)",
                        img.epoch(),
                        map.len(),
                        expected.len()
                    ));
                }
            }
            // No committed epoch survived this cut: an empty restart is
            // the correct answer.
            Err(RecoveryError::NothingRecoverable) => {}
            Err(e) => res
                .violations
                .push(format!("unexpected recovery failure: {e}")),
        }
    }

    fn check_sw_undo(&self, cut: &CrashCut, res: &mut SiteResult) {
        let recovered = rebuild_undo(&self.plane, cut);
        let expected = undo_expected(&self.plane, cut);
        res.recovered_epoch = undo_commit_cutoff(&self.plane, cut);
        res.recovered_lines = recovered.len();
        if recovered != expected {
            res.violations.push(format!(
                "undo rollback diverges from the journal expectation ({} vs {} lines)",
                recovered.len(),
                expected.len()
            ));
        }
        self.check_token_validity(&recovered, res);
        self.check_prefix_cut(&recovered, res);
    }

    /// Invariant 1 (see [`crate::invariants::check_token_validity`]).
    fn check_token_validity(&self, img: &FastHashMap<LineAddr, Token>, res: &mut SiteResult) {
        crate::invariants::check_token_validity(&self.oracle, img, &mut res.violations);
    }

    /// Invariant 2 (see [`crate::invariants::check_prefix_cut`]).
    fn check_prefix_cut(&self, img: &FastHashMap<LineAddr, Token>, res: &mut SiteResult) {
        crate::invariants::check_prefix_cut(&self.oracle, img, &mut res.violations);
    }

    /// Aggregates site results into a report (deterministic field order;
    /// violations in ascending site order).
    pub fn summarize(&self, results: &[SiteResult]) -> ChaosReport {
        let mut category_counts: Vec<(String, usize)> = SiteCategory::ALL
            .iter()
            .map(|c| (c.name().to_string(), 0))
            .collect();
        for r in results {
            category_counts[r.category.index()].1 += 1;
        }
        let mut violations: Vec<Violation> = Vec::new();
        for r in results {
            for m in &r.violations {
                violations.push(Violation {
                    site: r.site,
                    category: r.category.name().to_string(),
                    message: m.clone(),
                });
            }
        }
        violations.sort_by(|a, b| (a.site, &a.message).cmp(&(b.site, &b.message)));
        ChaosReport {
            scheme: self.cfg.scheme.name().to_string(),
            seed: self.cfg.seed,
            sites_requested: self.cfg.sites,
            sites_explored: results.len(),
            journal_writes: self.plane.len(),
            run_cycles: self.run_cycles,
            category_counts,
            torn_sites: results.iter().filter(|r| r.torn.is_some()).count(),
            dropped_writes: results.iter().map(|r| r.dropped).sum(),
            flips_injected: results.iter().map(|r| r.flips).sum(),
            faults_detected: results.iter().map(|r| r.detected.len()).sum(),
            max_recovered_epoch: results.iter().map(|r| r.recovered_epoch).max().unwrap_or(0),
            violations,
        }
    }
}

/// The journal-derived expected NVOverlay image at `root_epoch`: the
/// newest durable version at or below the root per line (latest journal
/// write wins among equal epochs). Re-derived here, independently of
/// [`RebuiltState`]'s query path, as the invariant-3 reference.
fn nvoverlay_expected(
    plane: &FaultPlane,
    cut: &CrashCut,
    root_epoch: u64,
) -> FastHashMap<LineAddr, Token> {
    let mut best: FastHashMap<LineAddr, (u64, u64, Token)> = FastHashMap::default();
    for r in plane.records() {
        if !cut.survives(r.id) {
            continue;
        }
        if let Some(PersistPayload::Version { line, token, epoch }) = &r.payload {
            if *epoch <= root_epoch {
                let e = best.entry(*line).or_insert((*epoch, r.id, *token));
                if (*epoch, r.id) >= (e.0, e.1) {
                    *e = (*epoch, r.id, *token);
                }
            }
        }
    }
    best.into_iter().map(|(l, (_, _, t))| (l, t)).collect()
}

/// Serial convenience: prepare, check every site, summarize.
pub fn explore(trace: &Trace, simcfg: &SimConfig, cfg: ChaosConfig) -> ChaosReport {
    let run = prepare(trace, simcfg, cfg);
    let results: Vec<SiteResult> = (0..run.site_count()).map(|i| run.check_site(i)).collect();
    run.summarize(&results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::{Addr, ThreadId};
    use nvsim::trace::TraceBuilder;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(64)
            .build()
            .unwrap()
    }

    /// 4 threads, private regions plus a shared line every 5th store.
    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new(4);
        for round in 0..160u64 {
            for t in 0..4u16 {
                let addr = if (round + t as u64).is_multiple_of(5) {
                    Addr::new(0x9000 * 64)
                } else {
                    Addr::new((0x1000 * (t as u64 + 1) + round % 24) * 64)
                };
                b.store(ThreadId(t), addr);
            }
        }
        b.build()
    }

    #[test]
    fn nvoverlay_sites_are_consistent_and_deterministic() {
        let cfg = ChaosConfig {
            sites: 60,
            ..ChaosConfig::new(ChaosScheme::NvOverlay)
        };
        let trace = small_trace();
        let a = explore(&trace, &small_cfg(), cfg.clone());
        assert!(
            a.violations.is_empty(),
            "unexpected violations: {:#?}",
            a.violations
        );
        assert!(a.sites_explored > 0);
        assert!(a.max_recovered_epoch >= 2, "several epochs must commit");
        // The sample must include interior metadata and root sites.
        let count = |name: &str| {
            a.category_counts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert!(count("omc-flush-meta") > 0, "{:?}", a.category_counts);
        assert!(count("master-root") > 0, "{:?}", a.category_counts);
        // Byte-identical on a second run.
        let b = explore(&trace, &small_cfg(), cfg);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn broken_recovery_is_caught() {
        let cfg = ChaosConfig {
            sites: 60,
            fidelity: RebuildFidelity::BrokenNoEpochFilter,
            ..ChaosConfig::new(ChaosScheme::NvOverlay)
        };
        let report = explore(&small_trace(), &small_cfg(), cfg);
        assert!(
            !report.violations.is_empty(),
            "an epoch-filter-less recovery must violate the cut invariants"
        );
    }

    #[test]
    fn sw_undo_sites_are_consistent() {
        let cfg = ChaosConfig {
            sites: 40,
            ..ChaosConfig::new(ChaosScheme::SwUndo)
        };
        let report = explore(&small_trace(), &small_cfg(), cfg);
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {:#?}",
            report.violations
        );
        assert!(report.sites_explored > 0);
    }

    /// The SW-undo checker's self-test: at a crash in the middle of a
    /// real epoch flush, an image that skips the undo rollback must fail
    /// the checks `check_sw_undo` applies, while the real rollback passes
    /// them at the same cut.
    #[test]
    fn sw_undo_checker_catches_a_skipped_rollback() {
        // The trace and machine of `nvo chaos kmeans --scheme sw-undo
        // --scale quick`.
        let params = nvworkloads::SuiteParams {
            threads: 16,
            ops: 4_000,
            warmup_ops: 40_000,
            seed: 0xC0FFEE,
        };
        let trace = nvworkloads::generate(nvworkloads::Workload::Kmeans, &params);
        let simcfg = SimConfig::builder().epoch_size_stores(800).build().unwrap();
        let run = prepare(&trace, &simcfg, ChaosConfig::new(ChaosScheme::SwUndo));
        let records = run.plane().records();
        // The home writes of the first epoch flush after a commit, with
        // at least two writes: crash halfway through it, every write
        // issued before the site durable. Committed data precedes it and
        // its commit marker never issued.
        let flush_of = |epoch: u64| -> Vec<usize> {
            let home = |r: &WriteRecord| matches!(r.payload, Some(PersistPayload::DataHome { epoch: e, .. }) if e == epoch);
            (0..records.len()).filter(|&i| home(&records[i])).collect()
        };
        let flush = (1..)
            .map(flush_of)
            .find(|f| f.len() >= 2)
            .expect("a multi-line flush after the first commit");
        let site = flush[flush.len() / 2];
        let cut = run.plane().cut_with_durable_prefix(site, usize::MAX, false);
        let expected = undo_expected(run.plane(), &cut);
        assert_eq!(
            rebuild_undo(run.plane(), &cut),
            expected,
            "the real rollback passes"
        );

        // Broken recovery: the surviving home data as it stands, the open
        // epoch's overwrites included.
        let mut broken = FastHashMap::default();
        for r in &records[..site] {
            if let Some(PersistPayload::DataHome { line, token, .. }) = r.payload {
                if cut.survives(r.id) {
                    broken.insert(line, token);
                }
            }
        }
        let mut violations = Vec::new();
        crate::invariants::check_prefix_cut(&run.oracle, &broken, &mut violations);
        assert!(
            broken != expected || !violations.is_empty(),
            "an image without the undo rollback must be caught"
        );
    }

    #[test]
    fn backpressure_deepens_the_inflight_window() {
        let base = ChaosConfig {
            sites: 40,
            torn_p: 0.0,
            flip_p: 0.0,
            ..ChaosConfig::new(ChaosScheme::NvOverlay)
        };
        let trace = small_trace();
        let calm = explore(&trace, &small_cfg(), base.clone());
        let stressed = explore(
            &trace,
            &small_cfg(),
            ChaosConfig {
                stress_backpressure: true,
                ..base
            },
        );
        assert!(calm.violations.is_empty() && stressed.violations.is_empty());
        assert!(
            stressed.dropped_writes >= calm.dropped_writes,
            "backpressure ({}) should keep at least as many writes in flight as calm ({})",
            stressed.dropped_writes,
            calm.dropped_writes
        );
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in [ChaosScheme::NvOverlay, ChaosScheme::SwUndo] {
            assert_eq!(ChaosScheme::from_name(s.name()), Some(s));
        }
        assert_eq!(ChaosScheme::from_name("dram"), None);
    }
}
