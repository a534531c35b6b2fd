//! The epoch-commit baselines of paper §VI-B: SW Logging, SW Shadow and
//! HW Shadow.
//!
//! All three track the epoch's write set and, at the epoch boundary,
//! clean it (`clwb`), persist it and commit. They differ only in what is
//! persisted and which writes stall, so one [`EpochCommitSystem`] runs
//! them and a [`CommitKind`] picks the variation:
//!
//! | Kind | First store of a line | Data at the boundary | Commit |
//! |---|---|---|---|
//! | [`CommitKind::UndoLog`] | synchronous 72-byte undo-log write | barriered, to the home location | fenced commit marker |
//! | [`CommitKind::SwShadow`] | — | barriered, to the flipped shadow slot | barriered mapping-table entries |
//! | [`CommitKind::HwShadow`] | — | background, to the flipped shadow slot | barriered mapping-table entries |
//!
//! - **SW Logging.** "Software generates and flushes an undo log entry
//!   before the first write. We assume that the software library tracks
//!   the write set, and flushes them at the end of an epoch. All NVM
//!   writes use barriers." The log write plus the barriered flush that
//!   stalls every core give the 2×–23× slowdown bar of Fig 11 and the ≈2×
//!   write amplification of Fig 12.
//! - **SW Shadow.** "Software tracks the write set and flushes dirty
//!   lines back at the end of each epoch. Software also maintains a
//!   persistent mapping table, which is updated at the end of an epoch.
//!   All NVM writes use barriers." Data is written once, so there is no
//!   log amplification, but the flush and the table update both stall
//!   all cores (slightly better than SW Logging in Fig 11).
//! - **HW Shadow.** "We model hardware shadow paging using a
//!   three-version, cache line granularity shadow scheme similar to
//!   ThyNVM. Hardware can overlap the persistence of the previous epoch
//!   with the execution of the current epoch. However, the centralized
//!   mapping table is updated synchronously." Data streams to NVM in the
//!   background (only NVM backpressure is visible), a dirty line evicted
//!   from the LLC mid-epoch is shadowed at once, and the table update
//!   stalls every core (the moderate Fig 11 overhead). Because data leaves
//!   through the (large) LLC side once per epoch, HW Shadow writes *less*
//!   than NVOverlay on L2-thrashing workloads like kmeans (Fig 12). Its
//!   checkpoint quiesces the whole machine, so it replays only serially.

use crate::common::{BaselineCore, WriteSet, DATA_BYTES, LOG_ENTRY_BYTES, TABLE_ENTRY_BYTES};
use nvoverlay::mnm::{NvmLoc, RadixTable};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::fault::PersistPayload;
use nvsim::hierarchy::HierarchyEvent;
use nvsim::linetable::LineTable;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};
use std::sync::Arc;

/// Which §VI-B scheme an [`EpochCommitSystem`] models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitKind {
    /// Software undo logging ("SW Logging").
    UndoLog,
    /// Software shadow paging ("SW Shadow").
    SwShadow,
    /// ThyNVM-like hardware shadow paging ("HW Shadow").
    HwShadow,
}

/// A write-set-tracking scheme that persists and commits each epoch at
/// its boundary.
pub struct EpochCommitSystem {
    kind: CommitKind,
    core: BaselineCore,
    /// Lines dirtied this epoch, in first-store order.
    write_set: WriteSet,
    /// Image as of the last committed epoch (what recovery reproduces).
    committed_image: LineTable<LineAddr, Token>,
    epochs_committed: u64,
    /// Shadow kinds: the persistent mapping table (same radix shape as
    /// NVOverlay's master table, which the paper also charges 8-byte
    /// entry writes for).
    table: RadixTable,
    /// Shadow kinds: each line's current slot of two, flipped each commit.
    shadow_flip: LineTable<LineAddr, bool>,
}

impl EpochCommitSystem {
    /// Creates the scheme.
    pub fn new(cfg: &SimConfig, kind: CommitKind) -> Self {
        Self::new_shared(Arc::new(cfg.clone()), kind)
    }

    /// Creates the scheme over a shared configuration handle.
    pub fn new_shared(cfg: Arc<SimConfig>, kind: CommitKind) -> Self {
        Self {
            kind,
            core: BaselineCore::new_shared(cfg),
            write_set: WriteSet::default(),
            committed_image: LineTable::new(),
            epochs_committed: 0,
            table: RadixTable::new(),
            shadow_flip: LineTable::new(),
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

    /// Mutable device access — used by the chaos harness to attach and
    /// harvest the persistence-order fault plane around a run.
    pub fn nvm_mut(&mut self) -> &mut nvsim::nvm::Nvm {
        &mut self.core.nvm
    }

    /// The image recovery would restore: the last committed epoch (for
    /// SW Logging, NVM home data with the open epoch rolled back through
    /// the undo log).
    pub fn recovered_image(&self) -> &LineTable<LineAddr, Token> {
        &self.committed_image
    }

    /// Epochs committed so far.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs_committed
    }

    /// Closes the epoch: every write-set line is cleaned (clwb) and
    /// written to NVM, then the epoch commits; all cores stall until the
    /// commit is durable. Returns the stall past `now`.
    fn commit_epoch(&mut self, now: Cycle) -> Cycle {
        let kind = self.kind;
        // SW Logging's write-ahead fence: no home-location overwrite may
        // start before every already-accepted undo-log entry is durable,
        // or a crash mid-flush could leave new data with no pre-image to
        // roll back.
        let mut done = match kind {
            CommitKind::UndoLog => self.core.nvm.persist_horizon().max(now),
            CommitKind::SwShadow | CommitKind::HwShadow => now,
        };
        let lines = self.write_set.take();
        if kind == CommitKind::UndoLog {
            TraceScope::new(Track::Scheme).emit(
                EventKind::EpochFlush,
                now,
                self.epochs_committed,
                lines.len() as u64,
            );
        }
        // Data phase. HW Shadow's writes run in the background: they
        // occupy NVM banks but never move `done`.
        for &line in &lines {
            let (token, _dirty) = self.core.hier.clwb(line);
            let key = match kind {
                CommitKind::UndoLog => line.raw(),
                CommitKind::SwShadow | CommitKind::HwShadow => {
                    let flip = self.shadow_flip.or_default(line);
                    *flip = !*flip;
                    line.raw() * 2 + u64::from(*flip)
                }
            };
            let t = self
                .core
                .nvm
                .write(done, key, NvmWriteKind::Data, DATA_BYTES);
            if kind == CommitKind::UndoLog {
                self.core.nvm.annotate_last(PersistPayload::DataHome {
                    line,
                    token,
                    epoch: self.epochs_committed,
                });
            }
            self.core.stats.evictions.record(EvictReason::EpochFlush);
            if kind != CommitKind::HwShadow {
                done = t.completion;
            }
            self.committed_image.insert(line, token);
        }
        // Commit phase, behind barriers.
        match kind {
            // The durable commit marker: once it persists, the epoch's
            // flush is complete and its undo log is dead.
            CommitKind::UndoLog => {
                let t = self.core.nvm.write_fenced(
                    done,
                    0xC0_0417 ^ self.epochs_committed,
                    NvmWriteKind::MapMetadata,
                    8,
                );
                self.core.nvm.annotate_last(PersistPayload::EpochCommit {
                    epoch: self.epochs_committed,
                });
                done = t.completion;
            }
            // The atomic mapping-table update. HW Shadow's is ThyNVM's
            // "non-overlappable mapping table update" (§II-C): the next
            // epoch cannot start until the table is consistent.
            CommitKind::SwShadow | CommitKind::HwShadow => {
                for &line in &lines {
                    // SW Shadow maps the line to its flipped slot, HW
                    // Shadow to the line's own slot.
                    let (key, slot) = if kind == CommitKind::SwShadow {
                        let flip = *self.shadow_flip.get(line).expect("flipped above");
                        (0xAAAA, ((line.raw() % 32) * 2 + u64::from(flip)) as u8)
                    } else {
                        (0x3333, (line.raw() % 64) as u8)
                    };
                    let page = (line.raw() / 64) as u32;
                    let fx = self.table.insert(line, NvmLoc { page, slot });
                    let t = self.core.nvm.write(
                        done,
                        line.raw() ^ key,
                        NvmWriteKind::MapMetadata,
                        fx.entry_writes * TABLE_ENTRY_BYTES,
                    );
                    done = t.completion;
                }
            }
        }
        self.core.hier.advance_all_epochs();
        self.epochs_committed += 1;
        self.core.stats.epochs_completed += 1;
        self.core.stall_all_until(done);
        done.saturating_sub(now)
    }

    fn handle_events(&mut self, now: Cycle) -> Cycle {
        let mut stall = 0;
        let events = self.core.take_event_scratch();
        for e in events.iter().copied() {
            match e {
                HierarchyEvent::StoreCommitted {
                    line,
                    old_token,
                    first_in_epoch,
                    ..
                } => {
                    if first_in_epoch && self.kind == CommitKind::UndoLog {
                        // Synchronous undo-log entry before the write.
                        let t = self.core.nvm.write(
                            now,
                            line.raw() ^ 0x5555,
                            NvmWriteKind::Log,
                            LOG_ENTRY_BYTES,
                        );
                        self.core.nvm.annotate_last(PersistPayload::UndoLog {
                            line,
                            prev: old_token,
                            epoch: self.epochs_committed,
                        });
                        self.core.stats.evictions.record(EvictReason::LogWrite);
                        TraceScope::new(Track::Scheme).emit(
                            EventKind::LogWrite,
                            now,
                            line.raw(),
                            LOG_ENTRY_BYTES,
                        );
                        stall += t.sync_stall(now);
                    }
                    self.write_set.insert(line);
                }
                HierarchyEvent::EpochTrigger { .. } => {
                    stall += self.commit_epoch(now + stall);
                }
                // HW Shadow shadows a dirty line evicted from the LLC
                // mid-epoch at once (it may not survive until the
                // boundary), in the background. Its current value is then
                // persistent, so it leaves the write set until it is
                // dirtied again.
                HierarchyEvent::LlcWriteback {
                    line,
                    token,
                    reason,
                    ..
                } if self.kind == CommitKind::HwShadow => {
                    self.core
                        .nvm
                        .write(now, line.raw(), NvmWriteKind::Data, DATA_BYTES);
                    self.core.stats.evictions.record(reason);
                    self.committed_image.insert(line, token);
                    self.write_set.remove(line);
                }
                // Otherwise natural write-backs go to the DRAM working
                // copy only; persistence is the epoch commit's job.
                HierarchyEvent::L2Writeback { .. } | HierarchyEvent::LlcWriteback { .. } => {}
            }
        }
        self.core.return_event_scratch(events);
        stall
    }
}

impl MemorySystem for EpochCommitSystem {
    fn name(&self) -> &'static str {
        match self.kind {
            CommitKind::UndoLog => "SW Logging",
            CommitKind::SwShadow => "SW Shadow",
            CommitKind::HwShadow => "HW Shadow",
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
        let quiesce = self.core.pending_stall(core, now);
        let (lat, value) = self.core.hier.access(core, op, addr, token);
        let stall = self.handle_events(now + quiesce + lat);
        let persist_stall = quiesce + stall;
        self.core.stats.persist_stall_cycles += persist_stall;
        AccessOutcome {
            latency: lat + persist_stall,
            persist_stall,
            value,
        }
    }

    fn epoch_mark(&mut self, _core: CoreId, now: Cycle) -> Cycle {
        let stall = self.commit_epoch(now);
        self.core.stats.persist_stall_cycles += stall;
        stall
    }

    /// ThyNVM-style checkpointing quiesces *every* core at a global
    /// barrier — there is no per-VD machine to carve islands out of, so
    /// HW Shadow declares itself serial-only and `nvbench` falls back to
    /// the serial replay path.
    fn shardable(&self) -> bool {
        self.kind != CommitKind::HwShadow
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
        let _ = self.core.hier.drain_dirty();
        self.core.sync_stats();
    }

    fn stats(&self) -> &SystemStats {
        &self.core.stats
    }
}

impl std::fmt::Debug for EpochCommitSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCommitSystem")
            .field("kind", &self.kind)
            .field("write_set", &self.write_set.len())
            .field("epochs_committed", &self.epochs_committed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::ThreadId;
    use nvsim::memsys::Runner;
    use nvsim::trace::{Trace, TraceBuilder};

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

    /// `rounds` passes of one store to each of 10 lines, all on thread 0.
    fn ten_lines(rounds: u64) -> Trace {
        let mut tb = TraceBuilder::new(4);
        for _ in 0..rounds {
            for i in 0..10u64 {
                tb.store(ThreadId(0), Addr::new(i * 64));
            }
        }
        tb.build()
    }

    /// `n` stores round-robin over 4 threads and `lines` lines.
    fn spread(n: u64, lines: u64) -> Trace {
        let mut tb = TraceBuilder::new(4);
        for i in 0..n {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % lines) * 64));
        }
        tb.build()
    }

    #[test]
    fn logs_once_per_line_per_epoch_and_flushes_data() {
        let mut sys = EpochCommitSystem::new(&cfg(1_000_000), CommitKind::UndoLog);
        let report = Runner::new().run(&mut sys, &ten_lines(3));
        let s = sys.stats();
        assert_eq!(s.nvm.writes(NvmWriteKind::Log), 10, "one log per line");
        assert_eq!(s.nvm.writes(NvmWriteKind::Data), 10, "final flush");
        assert!(report.stall_cycles > 0, "barriers stall the core");
        // Recovery equals the golden image after the final commit.
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t));
        }
    }

    #[test]
    fn epoch_boundaries_restart_logging() {
        let mut sys = EpochCommitSystem::new(&cfg(5), CommitKind::UndoLog);
        let mut tb = TraceBuilder::new(4);
        for i in 0..20u64 {
            tb.store(ThreadId(0), Addr::new((i % 2) * 64));
        }
        let trace = tb.build();
        let _ = Runner::new().run(&mut sys, &trace);
        // 20 stores over 2 lines, epoch every 5 stores → 4 epochs, each
        // re-logging both lines (2 logs/epoch).
        assert!(sys.epochs_committed() >= 4);
        assert!(sys.stats().nvm.writes(NvmWriteKind::Log) >= 8);
    }

    #[test]
    fn write_amplification_is_roughly_double() {
        let mut sys = EpochCommitSystem::new(&cfg(50), CommitKind::UndoLog);
        let _ = Runner::new().run(&mut sys, &spread(1000, 100));
        let s = sys.stats();
        let log = s.nvm.bytes(NvmWriteKind::Log) as f64;
        let data = s.nvm.bytes(NvmWriteKind::Data) as f64;
        let amp = (log + data) / data;
        assert!(
            amp > 1.5 && amp < 2.5,
            "undo logging doubles the write volume, got {amp:.2}"
        );
    }

    #[test]
    fn writes_data_once_plus_table_metadata() {
        let mut sys = EpochCommitSystem::new(&cfg(1_000_000), CommitKind::SwShadow);
        let report = Runner::new().run(&mut sys, &ten_lines(3));
        let s = sys.stats();
        assert_eq!(s.nvm.writes(NvmWriteKind::Data), 10, "each line once");
        assert_eq!(s.nvm.writes(NvmWriteKind::Log), 0, "no log");
        assert!(s.nvm.bytes(NvmWriteKind::MapMetadata) > 0);
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t));
        }
    }

    #[test]
    fn shadow_has_less_write_amp_than_logging() {
        let trace = spread(1500, 100);
        let bytes = |kind| {
            let mut sys = EpochCommitSystem::new(&cfg(100), kind);
            let _ = Runner::new().run(&mut sys, &trace);
            sys.stats().nvm.total_bytes()
        };
        let shadow = bytes(CommitKind::SwShadow);
        let undo = bytes(CommitKind::UndoLog);
        assert!(
            shadow < undo,
            "shadow ({shadow}) must write less than undo logging ({undo})"
        );
    }

    #[test]
    fn data_written_once_per_epoch_with_metadata() {
        let mut sys = EpochCommitSystem::new(&cfg(1_000_000), CommitKind::HwShadow);
        let report = Runner::new().run(&mut sys, &ten_lines(5));
        let s = sys.stats();
        assert_eq!(s.nvm.writes(NvmWriteKind::Data), 10);
        assert_eq!(s.nvm.writes(NvmWriteKind::Log), 0);
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t));
        }
    }

    #[test]
    fn hw_shadow_persists_llc_victims_mid_epoch() {
        // 600 lines, each stored once, in one epoch: more than the
        // 256-line LLC holds, so dirty victims leave it mid-epoch.
        let mut tb = TraceBuilder::new(4);
        for i in 0..600u64 {
            tb.store(ThreadId(0), Addr::new(i * 64));
        }
        let trace = tb.build();
        let mut sys = EpochCommitSystem::new(&cfg(1_000_000), CommitKind::HwShadow);
        let report = Runner::new().run(&mut sys, &trace);
        let s = sys.stats();
        let victims = s.evictions.count(EvictReason::CapacityMiss);
        assert!(victims > 0, "the LLC must spill dirty lines");
        // A victim persisted mid-epoch leaves the write set: the boundary
        // writes only the lines still pending, so each line is written
        // once.
        assert_eq!(s.evictions.count(EvictReason::EpochFlush), 600 - victims);
        assert_eq!(s.nvm.writes(NvmWriteKind::Data), 600);
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t));
        }
    }

    #[test]
    fn hw_shadow_stalls_less_than_sw_shadow() {
        let trace = spread(2000, 120);
        let cycles = |kind| {
            let mut sys = EpochCommitSystem::new(&cfg(50), kind);
            Runner::new().run(&mut sys, &trace).cycles
        };
        let (hw, sw) = (cycles(CommitKind::HwShadow), cycles(CommitKind::SwShadow));
        assert!(
            hw < sw,
            "overlapped persistence must beat barriers: {hw} vs {sw}"
        );
    }
}
