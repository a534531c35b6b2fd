//! The NVM crash target: crashes the simulated memory system.
//!
//! [`NvmTarget::prepare`] runs the workload once with the NVM fault
//! plane attached (the *oracle run*) and keeps the persistence-order
//! journal. Every journal index is a candidate crash site, so crash
//! points fall *inside* OMC flushes (between two `MasterChunk` writes of
//! one merge), mid-`Mmaster` root update, mid-undo-log flush, and at
//! plain data writes.
//!
//! A check draws a crash cut, rebuilds the durable state, runs the
//! production recovery procedure against it, optionally injects a
//! mapping-word bit flip (which recovery must *detect*), and verifies
//! the three consistency-cut invariants of `tests/crash_consistency.rs`
//! against the trace oracle.

use crate::explore::{sites_line, verdict, ChaosConfig, CrashTarget, Outcome, Tally};
use crate::oracle::TraceOracle;
use crate::rebuild::{
    rebuild_undo, undo_commit_cutoff, undo_expected, RebuildFidelity, RebuiltState,
};
use crate::report::ChaosReport;
use nvbaselines::{CommitKind, EpochCommitSystem};
use nvoverlay::recovery::{recover_durable, DurableState as _, RecoveryError};
use nvoverlay::system::NvOverlaySystem;
use nvsim::addr::{LineAddr, Token};
use nvsim::config::SimConfig;
use nvsim::fastmap::FastHashMap;
use nvsim::fault::{CrashCut, FaultPlane, PersistPayload};
use nvsim::memsys::Runner;
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::rng::Rng64;
use nvsim::trace::Trace;

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
/// being issued when the crash hits: a data write (an overlay version
/// slot or a home-location flush), a Master Mapping Table chunk
/// mid-OMC-flush, the `rec-epoch` root update, a context dump, an
/// undo-log entry, an epoch commit marker.
const CATEGORIES: [&str; 6] = [
    "data",
    "omc-flush-meta",
    "master-root",
    "context",
    "undo-log",
    "epoch-commit",
];

/// The index in [`CATEGORIES`] of a write's payload.
fn category_of(payload: &Option<PersistPayload>) -> usize {
    match payload {
        Some(PersistPayload::MasterChunk { .. }) => 1,
        Some(PersistPayload::RecEpochRoot { .. }) => 2,
        Some(PersistPayload::Context { .. }) => 3,
        Some(PersistPayload::UndoLog { .. }) => 4,
        Some(PersistPayload::EpochCommit { .. }) => 5,
        Some(PersistPayload::Version { .. } | PersistPayload::DataHome { .. }) | None => 0,
    }
}

/// The oracle run of one scheme: its NVM write journal and the trace
/// oracle. Checks borrow it immutably and are independent.
pub struct NvmTarget {
    scheme: ChaosScheme,
    fidelity: RebuildFidelity,
    plane: FaultPlane,
    oracle: TraceOracle,
    run_cycles: u64,
}

impl NvmTarget {
    /// Runs the workload once under `scheme` with the fault plane
    /// attached. `fidelity` is how recovery rebuilds NVOverlay's
    /// durable state ([`RebuildFidelity::BrokenNoEpochFilter`] is the
    /// harness self-test mode — invariants must then fire).
    /// `stress_backpressure` runs under sustained OMC backpressure: NVM
    /// queue depth 1 and 4× write latency, deepening the in-flight
    /// windows. Deterministic for given arguments.
    pub fn prepare(
        trace: &Trace,
        simcfg: &SimConfig,
        scheme: ChaosScheme,
        fidelity: RebuildFidelity,
        stress_backpressure: bool,
    ) -> NvmTarget {
        let mut simcfg = simcfg.clone();
        if stress_backpressure {
            simcfg.nvm_queue_depth = 1;
            simcfg.nvm_write_latency *= 4;
        }
        let (plane, report) = match scheme {
            ChaosScheme::NvOverlay => {
                let mut sys = NvOverlaySystem::new(&simcfg);
                sys.nvm.enable_fault_plane();
                let report = Runner::new().run(&mut sys, trace);
                (sys.nvm.take_fault_plane(), report)
            }
            ChaosScheme::SwUndo => {
                let mut sys = EpochCommitSystem::new(&simcfg, CommitKind::UndoLog);
                sys.nvm.enable_fault_plane();
                let report = Runner::new().run(&mut sys, trace);
                (sys.nvm.take_fault_plane(), report)
            }
        };
        NvmTarget {
            scheme,
            fidelity,
            plane: plane.expect("plane attached"),
            oracle: TraceOracle::new(trace),
            run_cycles: report.cycles,
        }
    }

    /// The journal of the oracle run.
    pub fn plane(&self) -> &FaultPlane {
        &self.plane
    }

    /// Recovers NVOverlay's durable state under `cut`: `[flips injected,
    /// faults detected, recovered epoch]`.
    fn check_nvoverlay(
        &self,
        cut: &CrashCut,
        rng: &mut Rng64,
        flip_p: f64,
        scope: &TraceScope,
        violations: &mut Vec<String>,
    ) -> [u64; 3] {
        let (mut flips, mut detected) = (0, 0);
        let mut rb = RebuiltState::rebuild(&self.plane, cut, self.fidelity);
        // A torn rec-epoch root must be *detected*, then recovery falls
        // back to the previous durable root cell.
        let torn = cut
            .torn
            .map(|id| &self.plane.records()[id as usize].payload);
        if let Some(Some(PersistPayload::RecEpochRoot { .. })) = torn {
            match recover_durable(&rb) {
                Err(RecoveryError::TornMasterRoot { .. }) => detected += 1,
                other => violations.push(format!(
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
        if rb.root().epoch > 0 && rng.gen_bool(flip_p) {
            if let Some((line, original, bit)) = rb.inject_flip(rng) {
                flips += 1;
                scope.emit(EventKind::FaultInjected, cut.crash_time, cut.site as u64, 2);
                match recover_durable(&rb) {
                    Err(RecoveryError::CorruptMapping { line: bad, .. }) if bad == line => {
                        detected += 1;
                    }
                    other => violations.push(format!(
                        "bit {bit} flipped in the mapping word of line {:#x} went \
                         undetected (recovery returned {other:?})",
                        line.raw()
                    )),
                }
                rb.heal(line, original);
            }
        }
        let img = match recover_durable(&rb) {
            Ok(img) => img,
            // No committed epoch survived this cut: an empty restart is
            // the correct answer.
            Err(RecoveryError::NothingRecoverable) => return [flips, detected, 0],
            Err(e) => {
                violations.push(format!("unexpected recovery failure: {e}"));
                return [flips, detected, 0];
            }
        };
        let map: FastHashMap<LineAddr, Token> = img.iter().collect();
        self.oracle.check_cut(&map, violations);
        // Invariant 3: the image equals the journal-derived expectation
        // at the recovered epoch.
        let expected = nvoverlay_expected(&self.plane, cut, img.epoch());
        if map != expected {
            violations.push(format!(
                "recovered image diverges from the journal expectation at \
                 epoch {} ({} vs {} lines)",
                img.epoch(),
                map.len(),
                expected.len()
            ));
        }
        [flips, detected, img.epoch()]
    }

    /// Rolls SW undo logging back under `cut`: `[0, 0, committed epochs]`.
    fn check_sw_undo(&self, cut: &CrashCut, violations: &mut Vec<String>) -> [u64; 3] {
        let recovered = rebuild_undo(&self.plane, cut);
        let expected = undo_expected(&self.plane, cut);
        if recovered != expected {
            violations.push(format!(
                "undo rollback diverges from the journal expectation ({} vs {} lines)",
                recovered.len(),
                expected.len()
            ));
        }
        self.oracle.check_cut(&recovered, violations);
        [0, 0, undo_commit_cutoff(&self.plane, cut)]
    }
}

impl CrashTarget for NvmTarget {
    fn scheme(&self) -> Option<&'static str> {
        Some(self.scheme.name())
    }

    fn journal(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("journal_writes", self.plane.len() as u64),
            ("run_cycles", self.run_cycles),
        ]
    }

    fn categories(&self) -> &'static [&'static str] {
        &CATEGORIES
    }

    /// Stratified sample without repeats: every journal index (plus the
    /// end-of-run crash) is a candidate, bucketed by category; the
    /// budget is spread round-robin across non-empty buckets so
    /// rare-but-critical sites (root updates, mid-flush metadata
    /// chunks) are always represented, then drawn per bucket by seeded
    /// partial Fisher–Yates. Ascending by site, each keyed by its site,
    /// so a site's draws do not depend on the sample around it.
    fn sample(&self, cfg: &ChaosConfig) -> Vec<(usize, usize, u64)> {
        let mut pools: [Vec<usize>; 6] = Default::default();
        for r in self.plane.records() {
            pools[category_of(&r.payload)].push(r.id as usize);
        }
        // The end-of-run crash (all writes issued, queue possibly wet).
        pools[0].push(self.plane.len());

        let mut quota = [0usize; 6];
        let mut budget = cfg.sites;
        while budget > 0 && quota.iter().zip(&pools).any(|(q, p)| *q < p.len()) {
            for (q, pool) in quota.iter_mut().zip(&pools) {
                if budget > 0 && *q < pool.len() {
                    *q += 1;
                    budget -= 1;
                }
            }
        }

        let mut rng = Rng64::seed_from_u64(cfg.seed ^ 0x51_7E5);
        let mut out = Vec::new();
        for (c, pool) in pools.iter_mut().enumerate() {
            for i in 0..quota[c] {
                let j = i + rng.gen_range(0..(pool.len() - i) as u64) as usize;
                pool.swap(i, j);
                out.push((pool[i], c, pool[i] as u64));
            }
        }
        out.sort_unstable_by_key(|&(s, _, _)| s);
        out
    }

    fn check(&self, site: usize, rng: &mut Rng64, cfg: &ChaosConfig) -> Outcome {
        let cut = self.plane.crash_cut(site, rng, cfg.torn_p);
        let scope = TraceScope::new(Track::Fault);
        scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 0);
        if !cut.lost.is_empty() {
            scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 3);
        }
        if cut.torn.is_some() {
            scope.emit(EventKind::FaultInjected, cut.crash_time, site as u64, 1);
        }
        let mut violations = Vec::new();
        let [flips, detected, epoch] = match self.scheme {
            ChaosScheme::NvOverlay => {
                self.check_nvoverlay(&cut, rng, cfg.flip_p, &scope, &mut violations)
            }
            ChaosScheme::SwUndo => self.check_sw_undo(&cut, &mut violations),
        };
        let dropped = cut.lost.len() + usize::from(cut.torn.is_some());
        Outcome {
            torn: cut.torn.is_some(),
            counts: vec![dropped as u64, flips, detected, epoch],
            names: Vec::new(),
            violations,
        }
    }

    fn tallies(&self) -> &'static [(&'static str, Tally)] {
        &[
            ("dropped_writes", Tally::Sum),
            ("flips_injected", Tally::Sum),
            ("faults_detected", Tally::Sum),
            ("max_recovered_epoch", Tally::Max),
        ]
    }

    fn summary(&self, r: &ChaosReport) -> String {
        let n = |key| r.num(key).unwrap_or_default();
        format!(
            "chaos {}: {} sites over a {}-write journal (seed {})\n{}  faults: {} writes \
             dropped, {} torn, {} bit flips injected, {} detected by recovery\n  max \
             recovered epoch: {}\n{}",
            self.scheme.name(),
            n("sites_explored"),
            n("journal_writes"),
            n("seed"),
            sites_line(r),
            n("dropped_writes"),
            n("torn_sites"),
            n("flips_injected"),
            n("faults_detected"),
            n("max_recovered_epoch"),
            verdict(
                r,
                "invariants: all sites consistent",
                "INVARIANT VIOLATIONS"
            )
        )
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
