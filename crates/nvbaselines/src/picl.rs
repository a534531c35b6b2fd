//! PiCL and PiCL-L2 (paper §VI-B).
//!
//! PiCL is hardware undo logging: a background log entry (72 B) captures
//! each line's pre-image on its first write per epoch, dirty data is
//! written to its NVM home when it leaves the chip, and an epoch-boundary
//! tag walk (PiCL's ACS) evicts the previous epoch's dirty lines. All of
//! it is background work — PiCL's Fig 11 bars sit at ≈1.0 — but the log
//! doubles the written bytes (Fig 12's 1.4×–1.9×) and the walks burst at
//! epoch boundaries (Fig 17).
//!
//! PiCL proper assumes an *inclusive monolithic* LLC to buffer dirty data
//! on-chip; **PiCL-L2** is the paper's hypothetical variant for modern
//! non-inclusive-LLC parts, with the persistence boundary at the small
//! per-VD L2s: every dirty L2 eviction writes NVM, and version tags are
//! lost below the L2 so bouncing lines are re-logged — the source of its
//! extra slowdown and 1.8×–2.3× write amplification.

use crate::common::{BaselineCore, DATA_BYTES, LOG_ENTRY_BYTES};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::fastmap::{FastHashMap, FastHashSet};
use nvsim::hierarchy::{EpochId, HierarchyEvent};
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};

/// Where PiCL's version tracking and tag walks live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PiclLevel {
    /// The original design: inclusive LLC buffering (paper's "PiCL").
    Llc,
    /// The hypothetical L2-level variant (paper's "PiCL-L2").
    L2,
}

/// The PiCL hardware undo-logging scheme.
pub struct Picl {
    core: BaselineCore,
    level: PiclLevel,
    walker_enabled: bool,
    /// PiCL-L2 only: lines currently resident in an L2 whose pre-image has
    /// been logged this epoch (tags are lost when a line leaves the L2,
    /// forcing a conservative re-log on return).
    logged_resident: FastHashSet<LineAddr>,
    /// Undo log of not-yet-committed epochs: (epoch, line, pre-image).
    undo: Vec<(EpochId, LineAddr, Token)>,
    /// NVM home image (data writes land here).
    nvm_image: FastHashMap<LineAddr, Token>,
    /// Last epoch whose data is fully on NVM.
    committed_epoch: EpochId,
    walk_writes: u64,
}

impl Picl {
    /// Creates PiCL at the given tracking level.
    pub fn new(cfg: &SimConfig, level: PiclLevel) -> Self {
        Self::with_walker(cfg, level, true)
    }

    /// Creates PiCL over a shared configuration handle.
    pub fn new_shared(cfg: std::sync::Arc<SimConfig>, level: PiclLevel) -> Self {
        Self::with_walker_shared(cfg, level, true)
    }

    /// Creates PiCL with the tag walker optionally disabled (the Fig 15b
    /// ablation — without its walker PiCL can only persist data through
    /// natural evictions).
    pub fn with_walker(cfg: &SimConfig, level: PiclLevel, walker_enabled: bool) -> Self {
        Self::with_walker_shared(std::sync::Arc::new(cfg.clone()), level, walker_enabled)
    }

    /// [`Picl::with_walker`] over a shared configuration handle.
    pub fn with_walker_shared(
        cfg: std::sync::Arc<SimConfig>,
        level: PiclLevel,
        walker_enabled: bool,
    ) -> Self {
        Self {
            core: BaselineCore::new_shared(cfg),
            level,
            walker_enabled,
            logged_resident: FastHashSet::default(),
            undo: Vec::new(),
            nvm_image: FastHashMap::default(),
            committed_epoch: 0,
            walk_writes: 0,
        }
    }

    /// The underlying hierarchy (inspection/debugging).
    pub fn hierarchy(&self) -> &nvsim::hierarchy::Hierarchy {
        &self.core.hier
    }

    /// The scheme's NVM device (inspection: byte and wear accounting).
    pub fn nvm(&self) -> &nvsim::nvm::Nvm {
        &self.core.nvm
    }

    /// Data writes issued by the tag walker so far (Fig 15).
    pub fn walk_writes(&self) -> u64 {
        self.walk_writes
    }

    /// Last fully committed epoch.
    pub fn committed_epoch(&self) -> EpochId {
        self.committed_epoch
    }

    /// The image crash recovery would produce: NVM home data with the
    /// undo log of uncommitted epochs applied in reverse.
    pub fn recovered_image(&self) -> FastHashMap<LineAddr, Token> {
        let mut img = self.nvm_image.clone();
        for (epoch, line, old) in self.undo.iter().rev() {
            if *epoch > self.committed_epoch {
                if *old == 0 {
                    img.remove(line);
                } else {
                    img.insert(*line, *old);
                }
            }
        }
        img
    }

    fn write_home(
        &mut self,
        now: Cycle,
        line: LineAddr,
        token: Token,
        reason: EvictReason,
    ) -> Cycle {
        let t = self
            .core
            .nvm
            .write(now, line.raw(), NvmWriteKind::Data, DATA_BYTES);
        self.core.stats.evictions.record(reason);
        self.nvm_image.insert(line, token);
        t.backpressure_stall(now)
    }

    fn log_pre_image(&mut self, now: Cycle, line: LineAddr, old: Token, epoch: EpochId) -> Cycle {
        let t = self
            .core
            .nvm
            .write(now, line.raw() ^ 0x7777, NvmWriteKind::Log, LOG_ENTRY_BYTES);
        self.core.stats.evictions.record(EvictReason::LogWrite);
        TraceScope::new(Track::Scheme).emit(EventKind::LogWrite, now, line.raw(), LOG_ENTRY_BYTES);
        self.undo.push((epoch, line, old));
        t.backpressure_stall(now)
    }

    /// Epoch-boundary pipeline: advance the global epoch, then tag-walk
    /// the previous epoch's dirty lines to NVM (background).
    fn commit_epoch(&mut self, now: Cycle) {
        let ending = self.core.hier.epoch(nvsim::addr::VdId(0));
        self.core.hier.advance_all_epochs();
        self.core.stats.epochs_completed += 1;
        self.logged_resident.clear();

        if !self.walker_enabled {
            // Ablation: no walk; the epoch's data persists only through
            // natural evictions (recovery fidelity is not maintained).
            return;
        }
        // Tag walk: write back dirty lines of epochs <= ending.
        let walker = TraceScope::new(Track::Scheme);
        walker.emit(EventKind::TagWalkStart, now, ending, 0);
        let walk_writes_before = self.walk_writes;
        match self.level {
            PiclLevel::Llc => {
                // Inclusive-LLC walk: covers the LLC and (since our
                // substrate LLC is non-inclusive) the L2s it would have
                // contained.
                let dirty = self.core.hier.dirty_llc_lines(|_, oid| oid <= ending);
                for d in dirty {
                    self.core.hier.clean_llc_line(d.line);
                    let _ = self.write_home(now, d.line, d.token, EvictReason::TagWalk);
                    self.walk_writes += 1;
                }
                for vd in 0..self.core.hier.config().vd_count() {
                    let vd = nvsim::addr::VdId(vd);
                    let dirty = self.core.hier.dirty_l2_lines(vd, |_, oid| oid <= ending);
                    for d in dirty {
                        self.core.hier.clean_l2_line(vd, d.line);
                        let _ = self.write_home(now, d.line, d.token, EvictReason::TagWalk);
                        self.walk_writes += 1;
                    }
                }
            }
            PiclLevel::L2 => {
                for vd in 0..self.core.hier.config().vd_count() {
                    let vd = nvsim::addr::VdId(vd);
                    let dirty = self.core.hier.dirty_l2_lines(vd, |_, oid| oid <= ending);
                    for d in dirty {
                        self.core.hier.clean_l2_line(vd, d.line);
                        let _ = self.write_home(now, d.line, d.token, EvictReason::TagWalk);
                        self.walk_writes += 1;
                    }
                }
            }
        }
        walker.emit(
            EventKind::TagWalkEnd,
            now,
            ending,
            self.walk_writes - walk_writes_before,
        );
        // Everything of `ending` is now home: the epoch commits and its
        // undo entries can be dropped.
        self.committed_epoch = ending;
        self.undo.retain(|(e, _, _)| *e > ending);
    }

    fn handle_events(&mut self, now: Cycle) -> Cycle {
        let mut stall = 0;
        let events = self.core.take_event_scratch();
        for e in events.iter().copied() {
            match e {
                HierarchyEvent::StoreCommitted {
                    line,
                    old_token,
                    new_oid,
                    first_in_epoch,
                    ..
                } => {
                    let must_log = match self.level {
                        PiclLevel::Llc => first_in_epoch,
                        // Tags are lost below the L2: re-log whenever the
                        // line is not a known-logged resident.
                        PiclLevel::L2 => !self.logged_resident.contains(&line),
                    };
                    if must_log {
                        // Background hardware logging: only NVM queue
                        // backpressure is visible to the core.
                        stall = stall.max(self.log_pre_image(now, line, old_token, new_oid));
                        if self.level == PiclLevel::L2 {
                            self.logged_resident.insert(line);
                        }
                    }
                }
                HierarchyEvent::EpochTrigger { .. } => {
                    self.commit_epoch(now);
                }
                HierarchyEvent::L2Writeback {
                    line,
                    token,
                    reason,
                    ..
                } => {
                    if self.level == PiclLevel::L2 {
                        // Persistence boundary at the L2: the line's data
                        // must be home before the tag is lost.
                        stall = stall.max(self.write_home(now, line, token, reason));
                        self.logged_resident.remove(&line);
                    }
                }
                HierarchyEvent::LlcWriteback {
                    line,
                    token,
                    reason,
                    ..
                } => {
                    if self.level == PiclLevel::Llc {
                        stall = stall.max(self.write_home(now, line, token, reason));
                    }
                }
            }
        }
        self.core.return_event_scratch(events);
        stall
    }
}

impl MemorySystem for Picl {
    fn name(&self) -> &'static str {
        match self.level {
            PiclLevel::Llc => "PiCL",
            PiclLevel::L2 => "PiCL-L2",
        }
    }

    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        now: Cycle,
    ) -> AccessOutcome {
        let (lat, value) = self.core.hier.access(core, op, addr, token);
        let stall = self.handle_events(now + lat);
        self.core.stats.persist_stall_cycles += stall;
        AccessOutcome {
            latency: lat + stall,
            persist_stall: stall,
            value,
        }
    }

    fn epoch_mark(&mut self, _core: CoreId, now: Cycle) -> Cycle {
        self.commit_epoch(now);
        0
    }

    fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        self.core.import_line(line, token)
    }

    fn import_lines(
        &mut self,
        entries: &[nvsim::shard::ExchangeEntry],
        island: u16,
        golden: &mut nvsim::memsys::Oracle,
    ) -> u64 {
        self.core.import_lines(entries, island, golden)
    }

    fn finish(&mut self, now: Cycle) {
        self.commit_epoch(now);
        // Drain any remaining dirty data (from the epoch just opened).
        let rest = self.core.hier.drain_dirty();
        for d in rest {
            let _ = self.write_home(now, d.line, d.token, EvictReason::Drain);
        }
        self.commit_epoch(now);
        self.core.sync_stats();
    }

    fn stats(&self) -> &SystemStats {
        &self.core.stats
    }
}

impl std::fmt::Debug for Picl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Picl")
            .field("level", &self.level)
            .field("committed_epoch", &self.committed_epoch)
            .field("walk_writes", &self.walk_writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::ThreadId;
    use nvsim::memsys::Runner;
    use nvsim::trace::TraceBuilder;

    fn cfg(epoch: u64) -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(epoch)
            .build()
            .unwrap()
    }

    fn mk_trace(n: u64, lines: u64) -> nvsim::trace::Trace {
        let mut tb = TraceBuilder::new(4);
        for i in 0..n {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % lines) * 64));
        }
        tb.build()
    }

    #[test]
    fn logs_and_data_both_reach_nvm() {
        let mut sys = Picl::new(&cfg(1_000_000), PiclLevel::Llc);
        let trace = mk_trace(30, 10);
        let report = Runner::new().run(&mut sys, &trace);
        let s = sys.stats();
        assert_eq!(
            s.nvm.writes(NvmWriteKind::Log),
            10,
            "one log per line/epoch"
        );
        assert_eq!(
            s.nvm.writes(NvmWriteKind::Data),
            10,
            "walk writes each line"
        );
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(&l), Some(t));
        }
    }

    #[test]
    fn recovery_rolls_back_uncommitted_epochs() {
        let cfg_ = cfg(1_000_000);
        let mut sys = Picl::new(&cfg_, PiclLevel::Llc);
        // Epoch 1: A=1. Commit (epoch mark). Epoch 2: A=2 (uncommitted).
        let mut tb = TraceBuilder::new(4);
        let a1 = tb.store(ThreadId(0), Addr::new(0));
        tb.epoch_mark(ThreadId(0));
        let _a2 = tb.store(ThreadId(0), Addr::new(0));
        let trace = tb.build();
        // Run manually without finish to observe mid-run state: use the
        // Runner but check committed_epoch afterwards (finish commits
        // everything, so recovery equals golden here).
        let report = Runner::new().run(&mut sys, &trace);
        let img = sys.recovered_image();
        for (l, t) in &report.golden_image {
            assert_eq!(img.get(&l), Some(t));
        }
        let _ = a1;
        assert!(sys.committed_epoch() >= 2);
    }

    #[test]
    fn picl_l2_writes_more_than_picl() {
        // Working set larger than L2 (64 lines) but smaller than LLC:
        // PiCL-L2 pays a data write per L2 eviction; PiCL buffers in LLC.
        let cfg_ = cfg(2_000);
        let trace = mk_trace(20_000, 150);
        let mut llc = Picl::new(&cfg_, PiclLevel::Llc);
        let _ = Runner::new().run(&mut llc, &trace);
        let mut l2 = Picl::new(&cfg_, PiclLevel::L2);
        let _ = Runner::new().run(&mut l2, &trace);
        let b_llc = llc.stats().nvm.total_bytes();
        let b_l2 = l2.stats().nvm.total_bytes();
        assert!(
            b_l2 > b_llc,
            "PiCL-L2 ({b_l2}) must write more than PiCL ({b_llc})"
        );
    }

    #[test]
    fn walks_dominate_evictions_for_picl() {
        let cfg_ = cfg(500);
        let trace = mk_trace(10_000, 60);
        let mut sys = Picl::new(&cfg_, PiclLevel::Llc);
        let _ = Runner::new().run(&mut sys, &trace);
        let walks = sys.stats().evictions.count(EvictReason::TagWalk);
        assert!(walks > 0, "tag walker produced write-backs");
        assert!(sys.walk_writes() == walks);
    }
}
