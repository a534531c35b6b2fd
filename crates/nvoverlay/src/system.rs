//! The complete NVOverlay machine: CST frontend + MNM backend behind the
//! [`MemorySystem`] trait.
//!
//! The system owns the versioned hierarchy, the OMC array and the NVM
//! device. After every access it drains the frontend's events:
//!
//! * versions leaving a VD are handed to the MNM (async NVM writes whose
//!   *backpressure* — not completion — stalls the triggering access);
//! * epoch advances dump processor contexts and trigger the VD's tag
//!   walker; the walker's `min-ver` report drives the distributed
//!   recoverable-epoch pipeline.

use crate::cst::{AdvanceCause, CstConfig, CstEvent, VersionOut, VersionedHierarchy};
use crate::mnm::{Mnm, OmcConfig};
use crate::recovery::{self, RecoveredImage, RecoveryError};
use nvsim::addr::{Addr, CoreId, LineAddr, Token, VdId};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::fault::PersistPayload;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::nvm::Nvm;
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};

/// Builder-style options for [`NvOverlaySystem`].
#[derive(Clone, Debug)]
pub struct NvOverlayOptions {
    /// CST knobs (epoch advance stall, context size, initial epoch).
    pub cst: CstConfig,
    /// OMC knobs (pool size, retention, buffer).
    pub omc: OmcConfig,
    /// Number of OMCs (address-partitioned, §V-F).
    pub omc_count: usize,
    /// Run the tag walker on every epoch advance (the paper's policy:
    /// "NVOverlay initiates tag walk after an epoch completes").
    pub walk_on_epoch_advance: bool,
}

impl Default for NvOverlayOptions {
    fn default() -> Self {
        Self {
            cst: CstConfig::default(),
            omc: OmcConfig::default(),
            omc_count: 2,
            walk_on_epoch_advance: true,
        }
    }
}

/// The full NVOverlay system under simulation.
pub struct NvOverlaySystem {
    hier: VersionedHierarchy,
    mnm: Mnm,
    nvm: Nvm,
    opts: NvOverlayOptions,
    stats: SystemStats,
    /// Recycled event buffer for the per-access drain (swapped with the
    /// hierarchy's buffer instead of allocating each access).
    ev_scratch: Vec<CstEvent>,
    /// Epoch advances forced by shard-barrier Lamport sync
    /// (`raise_epoch_floor`), for the profiler's epoch-sync attribution.
    /// Deterministic: the barrier schedule depends only on the plan.
    sync_epoch_raises: u64,
    /// Stall cycles charged by those forced advances.
    sync_stall_cycles: Cycle,
}

impl NvOverlaySystem {
    /// Creates a system with default options.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_options(cfg, NvOverlayOptions::default())
    }

    /// [`NvOverlaySystem::new`] over a shared configuration handle.
    pub fn new_shared(cfg: std::sync::Arc<SimConfig>) -> Self {
        Self::with_options_shared(cfg, NvOverlayOptions::default())
    }

    /// Creates a system with explicit options.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate or `omc_count` is zero.
    pub fn with_options(cfg: &SimConfig, opts: NvOverlayOptions) -> Self {
        Self::with_options_shared(std::sync::Arc::new(cfg.clone()), opts)
    }

    /// [`NvOverlaySystem::with_options`] over a shared configuration —
    /// matrix sweeps hand every cell the same `Arc` instead of cloning.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate or `omc_count` is zero.
    pub fn with_options_shared(cfg: std::sync::Arc<SimConfig>, opts: NvOverlayOptions) -> Self {
        let mnm = Mnm::new(opts.omc_count, cfg.vd_count() as usize, opts.omc.clone());
        let nvm = Nvm::new(
            cfg.nvm_banks,
            cfg.nvm_write_latency,
            cfg.nvm_read_latency,
            cfg.nvm_queue_depth,
            cfg.bandwidth_bucket_cycles,
        );
        let bucket = cfg.bandwidth_bucket_cycles;
        let hier = VersionedHierarchy::new_shared(cfg, opts.cst.clone());
        Self {
            hier,
            mnm,
            nvm,
            opts,
            stats: SystemStats::new(bucket),
            ev_scratch: Vec::new(),
            sync_epoch_raises: 0,
            sync_stall_cycles: 0,
        }
    }

    /// Convenience: a system with the battery-backed OMC buffer enabled
    /// (geometry mirroring the LLC, as in the paper's Fig 16 experiment).
    pub fn with_omc_buffer(cfg: &SimConfig) -> Self {
        Self::with_omc_buffer_shared(std::sync::Arc::new(cfg.clone()))
    }

    /// [`NvOverlaySystem::with_omc_buffer`] over a shared configuration
    /// handle.
    pub fn with_omc_buffer_shared(cfg: std::sync::Arc<SimConfig>) -> Self {
        let sets = cfg.llc.sets();
        let opts = NvOverlayOptions {
            omc: OmcConfig {
                buffer: Some((sets, cfg.llc.ways)),
                ..OmcConfig::default()
            },
            ..NvOverlayOptions::default()
        };
        Self::with_options_shared(cfg, opts)
    }

    /// The versioned hierarchy (inspection).
    pub fn hierarchy(&self) -> &VersionedHierarchy {
        &self.hier
    }

    /// The MNM backend (inspection).
    pub fn mnm(&self) -> &Mnm {
        &self.mnm
    }

    /// The NVM device (byte accounting, bandwidth series).
    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Mutable device access — used by the chaos harness to attach and
    /// harvest the persistence-order fault plane around a run.
    pub fn nvm_mut(&mut self) -> &mut Nvm {
        &mut self.nvm
    }

    /// The persisted recoverable epoch.
    pub fn rec_epoch(&self) -> u64 {
        self.mnm.rec_epoch()
    }

    /// Crash recovery: rebuilds the image at `rec-epoch` (§V-E).
    ///
    /// # Errors
    /// [`RecoveryError::NothingRecoverable`] when no epoch has committed.
    pub fn recover(&self) -> Result<RecoveredImage, RecoveryError> {
        recovery::recover(&self.mnm)
    }

    /// Time-travel read of `line` at `epoch` (§V-E).
    pub fn time_travel(&self, line: LineAddr, epoch: u64) -> Option<Token> {
        self.mnm.time_travel(line, epoch)
    }

    /// A read-only multi-epoch view for tools (deltas, diffs, contexts).
    pub fn snapshots(&self) -> crate::store::SnapshotStore<'_> {
        crate::store::SnapshotStore::new(&self.mnm)
    }

    /// Handles a version arriving at the backend; returns backpressure
    /// stall for the in-flight access.
    fn persist_version(&mut self, v: VersionOut, now: Cycle) -> Cycle {
        self.stats.evictions.record(v.reason);
        if v.reason == EvictReason::StoreEviction {
            TraceScope::new(Track::System).emit(
                EventKind::StoreEviction,
                now,
                v.line.raw(),
                v.abs_epoch,
            );
        }
        let stall = self
            .mnm
            .receive_version(&mut self.nvm, now, v.line, v.token, v.abs_epoch);
        if stall > 0 {
            TraceScope::new(Track::System).emit(
                EventKind::OmcBackpressure,
                now,
                stall,
                v.line.raw(),
            );
        }
        stall
    }

    /// Handles an epoch advance: context dumps + tag walk + min-ver
    /// report. Background work — no stall beyond what the hierarchy
    /// already charged.
    fn on_epoch_advance(&mut self, vd: VdId, ended_epoch: u64, now: Cycle) {
        self.stats.epochs_completed += 1;
        TraceScope::new(Track::Vd(vd.0)).emit(
            EventKind::EpochAdvance,
            now,
            ended_epoch,
            ended_epoch + 1,
        );
        let cores = self.hier.config().cores_per_vd as u64;
        let bytes = self.hier.cst_config().context_bytes_per_core;
        let blob = ((vd.0 as u64) << 48) | ended_epoch;
        for c in 0..cores {
            self.nvm
                .write(now, vd.0 as u64 * 64 + c, NvmWriteKind::Context, bytes);
            self.nvm.annotate_last(PersistPayload::Context {
                vd: vd.0,
                epoch: ended_epoch,
                blob,
            });
        }
        // The context blob is modeled as a deterministic token derived
        // from (vd, epoch); recovery checks it is present (§V-E).
        self.mnm.record_context(vd, ended_epoch, blob);
        if self.opts.walk_on_epoch_advance {
            let walker = TraceScope::new(Track::Vd(vd.0));
            walker.emit(EventKind::TagWalkStart, now, ended_epoch, 0);
            let (versions, min_ver) = self.hier.tag_walk(vd);
            walker.emit(EventKind::TagWalkEnd, now, min_ver, versions.len() as u64);
            for v in versions {
                self.stats.evictions.record(v.reason);
                self.mnm
                    .receive_version(&mut self.nvm, now, v.line, v.token, v.abs_epoch);
            }
            self.mnm.report_min_ver(&mut self.nvm, now, vd, min_ver);
        }
        // O(cache) invariant sweep — debug/`strict-invariants` builds only.
        self.hier.debug_validate();
    }

    /// Drains frontend events; returns extra access-path stall.
    ///
    /// Versions are delivered to the OMC *before* any epoch-advance
    /// handling: an access can evict a version and trigger an epoch
    /// advance at once, and the min-ver report that follows the walk must
    /// not overtake an in-flight version on its way to the OMC (the NoC
    /// delivers both on the same ordered channel; processing them out of
    /// order would let `rec-epoch` commit an epoch whose last version is
    /// still in flight).
    fn drain_events(&mut self, now: Cycle) -> Cycle {
        let mut stall = 0;
        // Swap the hierarchy's event buffer with a recycled scratch vector
        // so the per-access drain allocates nothing in steady state.
        let mut events = std::mem::take(&mut self.ev_scratch);
        events.clear();
        self.hier.swap_events(&mut events);
        for e in &events {
            if let CstEvent::Version(v) = e {
                stall = stall.max(self.persist_version(*v, now));
            }
        }
        for e in &events {
            match *e {
                CstEvent::DirtyTransfer { vd, abs_epoch } => {
                    self.mnm.clamp_min_ver(vd, abs_epoch);
                }
                CstEvent::EpochAdvanced { vd, from_abs, .. } => {
                    self.on_epoch_advance(vd, from_abs, now);
                }
                CstEvent::Version(_) => {}
            }
        }
        self.ev_scratch = events;
        stall
    }

    /// Copies device-side counters into the stats block.
    fn sync_stats(&mut self) {
        self.stats.nvm = self.nvm.stats().clone();
        self.stats.nvm_bandwidth = self.nvm.bandwidth().clone();
        self.stats.access = self.hier.counters().clone();
        self.stats.omc_buffer_hits = self.mnm.buffer_hits();
        self.stats.omc_buffer_misses = self.mnm.buffer_misses();
    }
}

impl MemorySystem for NvOverlaySystem {
    fn name(&self) -> &'static str {
        "NVOverlay"
    }

    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        now: Cycle,
    ) -> AccessOutcome {
        let (lat, hier_stall, value) = self.hier.access(core, op, addr, token);
        let bp = self.drain_events(now + lat);
        let persist_stall = hier_stall + bp;
        self.stats.persist_stall_cycles += persist_stall;
        AccessOutcome {
            latency: lat + bp,
            persist_stall,
            value,
        }
    }

    fn epoch_mark(&mut self, core: CoreId, now: Cycle) -> Cycle {
        let vd = self.hier.vd_of(core);
        let stall = self
            .hier
            .advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
        let bp = self.drain_events(now + stall);
        self.stats.persist_stall_cycles += stall + bp;
        stall + bp
    }

    fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        self.hier.import_line(line, token)
    }

    fn import_lines(
        &mut self,
        entries: &[nvsim::shard::ExchangeEntry],
        island: u16,
        golden: &mut nvsim::memsys::Oracle,
    ) -> u64 {
        self.hier.import_lines(entries, island, golden)
    }

    fn epoch_floor(&self) -> u64 {
        (0..self.hier.config().vd_count())
            .map(|v| self.hier.epoch_abs(VdId(v)))
            .max()
            .unwrap_or(0)
    }

    fn raise_epoch_floor(&mut self, floor: u64, now: Cycle) -> Cycle {
        // Lamport sync at a shard barrier: every VD whose epoch is
        // behind the global floor advances with `CoherenceSync` — the
        // same cause a cross-VD coherence hit would have charged — and
        // the versions each advance flushes drain through the MNM
        // exactly as mid-run advances do.
        let mut stall = 0;
        for v in 0..self.hier.config().vd_count() {
            let vd = VdId(v);
            while self.hier.epoch_abs(vd) < floor {
                stall += self
                    .hier
                    .advance_epoch_explicit(vd, AdvanceCause::CoherenceSync);
                stall += self.drain_events(now + stall);
                self.sync_epoch_raises += 1;
            }
        }
        self.stats.persist_stall_cycles += stall;
        self.sync_stall_cycles += stall;
        stall
    }

    fn finish(&mut self, now: Cycle) {
        let versions = self.hier.drain();
        for v in versions {
            self.stats.evictions.record(v.reason);
            self.mnm
                .receive_version(&mut self.nvm, now, v.line, v.token, v.abs_epoch);
        }
        // Handle the EpochAdvanced events the drain produced (contexts).
        let events = self.hier.take_events();
        let mut final_epoch = 0;
        for e in events {
            match e {
                CstEvent::Version(v) => {
                    self.stats.evictions.record(v.reason);
                    self.mnm
                        .receive_version(&mut self.nvm, now, v.line, v.token, v.abs_epoch);
                }
                CstEvent::EpochAdvanced {
                    vd,
                    from_abs,
                    to_abs,
                    ..
                } => {
                    self.stats.epochs_completed += 1;
                    TraceScope::new(Track::Vd(vd.0)).emit(
                        EventKind::EpochAdvance,
                        now,
                        from_abs,
                        to_abs,
                    );
                    let cores = self.hier.config().cores_per_vd as u64;
                    let bytes = self.hier.cst_config().context_bytes_per_core;
                    let blob = ((vd.0 as u64) << 48) | from_abs;
                    for c in 0..cores {
                        self.nvm
                            .write(now, vd.0 as u64 * 64 + c, NvmWriteKind::Context, bytes);
                        self.nvm.annotate_last(PersistPayload::Context {
                            vd: vd.0,
                            epoch: from_abs,
                            blob,
                        });
                    }
                    self.mnm.record_context(vd, from_abs, blob);
                    final_epoch = final_epoch.max(to_abs);
                }
                CstEvent::DirtyTransfer { vd, abs_epoch } => {
                    self.mnm.clamp_min_ver(vd, abs_epoch);
                }
            }
        }
        // Everything before the post-drain epochs is persistent.
        let rec_target = final_epoch.saturating_sub(1).max(self.mnm.rec_epoch());
        self.mnm.finish(&mut self.nvm, now, rec_target);
        self.sync_stats();
    }

    fn stats(&self) -> &SystemStats {
        &self.stats
    }

    fn metrics(&self) -> nvsim::metrics::Registry {
        let mut reg = nvsim::metrics::Registry::new();
        self.stats.metrics_into(&mut reg, "sys");
        self.hier.metrics_into(&mut reg, "cst");
        self.mnm.metrics_into(&mut reg, "mnm");
        self.nvm.metrics_into(&mut reg, "nvm");
        // Shard-barrier epoch-sync attribution (0 on serial runs; under
        // sharding the values depend only on the plan, so they stay
        // byte-identical across worker counts).
        reg.set_counter("sync.epoch_raises", self.sync_epoch_raises);
        reg.set_counter("sync.stall_cycles", self.sync_stall_cycles);
        reg
    }
}

impl std::fmt::Debug for NvOverlaySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvOverlaySystem")
            .field("hier", &self.hier)
            .field("mnm", &self.mnm)
            .field("rec_epoch", &self.mnm.rec_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::ThreadId;
    use nvsim::memsys::Runner;
    use nvsim::trace::TraceBuilder;

    fn small_cfg(epoch_stores: u64) -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(epoch_stores)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_recovery_matches_golden_image() {
        let cfg = small_cfg(50);
        let mut sys = NvOverlaySystem::new(&cfg);
        let mut tb = TraceBuilder::new(4);
        for i in 0..2000u64 {
            let t = ThreadId((i % 4) as u16);
            if i % 4 == 0 {
                tb.load(t, Addr::new((i % 80) * 64));
            } else {
                tb.store(t, Addr::new(((i * 13) % 200) * 64));
            }
        }
        let trace = tb.build();
        let report = Runner::new().run(&mut sys, &trace);
        let img = sys.recover().expect("recoverable after finish");
        for (line, token) in &report.golden_image {
            assert_eq!(img.read(line), Some(*token), "line {line}");
        }
        assert_eq!(img.len(), report.golden_image.len());
    }

    #[test]
    fn rec_epoch_advances_during_the_run() {
        let cfg = small_cfg(20);
        let mut sys = NvOverlaySystem::new(&cfg);
        let mut tb = TraceBuilder::new(4);
        for i in 0..4000u64 {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % 50) * 64));
        }
        let trace = tb.build();
        // Probe before finish by running manually through the Runner and
        // checking afterwards that epochs committed during execution.
        let _ = Runner::new().run(&mut sys, &trace);
        assert!(
            sys.stats().epochs_completed > 10,
            "epochs advanced: {}",
            sys.stats().epochs_completed
        );
        assert!(sys.rec_epoch() > 0);
    }

    #[test]
    fn nvm_accounting_has_data_metadata_and_context() {
        let cfg = small_cfg(25);
        let mut sys = NvOverlaySystem::new(&cfg);
        let mut tb = TraceBuilder::new(4);
        for i in 0..1000u64 {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % 100) * 64));
        }
        let trace = tb.build();
        let _ = Runner::new().run(&mut sys, &trace);
        let s = sys.stats();
        assert!(s.nvm.bytes(NvmWriteKind::Data) > 0);
        assert!(s.nvm.bytes(NvmWriteKind::MapMetadata) > 0);
        assert!(s.nvm.bytes(NvmWriteKind::Context) > 0);
        assert_eq!(s.nvm.bytes(NvmWriteKind::Log), 0, "NVOverlay never logs");
    }

    #[test]
    fn time_travel_reads_historic_epochs() {
        let cfg = small_cfg(1_000_000);
        let mut sys = NvOverlaySystem::new(&cfg);
        // Epoch 1: write line 0 = A. Mark. Epoch 2: line 0 = B. Finish.
        let mut tb = TraceBuilder::new(4);
        let a = tb.store(ThreadId(0), Addr::new(0));
        tb.epoch_mark(ThreadId(0));
        let b = tb.store(ThreadId(0), Addr::new(0));
        let trace = tb.build();
        let _ = Runner::new().run(&mut sys, &trace);
        assert_eq!(sys.time_travel(LineAddr::new(0), 1), Some(a));
        let later = sys.time_travel(LineAddr::new(0), 10);
        assert_eq!(later, Some(b), "fall-through to the newest version");
    }

    #[test]
    fn omc_buffer_reduces_nvm_writes() {
        let cfg = small_cfg(1_000_000); // one giant epoch, like Fig 16
        let make_trace = || {
            let mut tb = TraceBuilder::new(4);
            for i in 0..3000u64 {
                // Revisit a small set of lines repeatedly from two VDs to
                // force redundant write-backs.
                let t = ThreadId((i % 4) as u16);
                tb.store(t, Addr::new((i % 150) * 64));
            }
            tb.build()
        };
        let mut plain = NvOverlaySystem::new(&cfg);
        let _ = Runner::new().run(&mut plain, &make_trace());
        let mut buffered = NvOverlaySystem::with_omc_buffer(&cfg);
        let _ = Runner::new().run(&mut buffered, &make_trace());
        let pw = plain.stats().nvm.writes(NvmWriteKind::Data);
        let bw = buffered.stats().nvm.writes(NvmWriteKind::Data);
        assert!(
            bw <= pw,
            "buffer must not increase data writes: {bw} vs {pw}"
        );
        assert!(buffered.stats().omc_buffer_hits > 0);
    }
}
