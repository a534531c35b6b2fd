//! Software Undo Logging (paper §VI-B "SW Logging").
//!
//! "Software generates and flushes an undo log entry before the first
//! write. We assume that the software library tracks the write set, and
//! flushes them at the end of an epoch. All NVM writes use barriers."
//!
//! Every first store to a line per epoch pays a *synchronous* 72-byte log
//! write (clwb + sfence ≈ stall until the NVM accepts and completes it);
//! at every epoch boundary the whole write set is flushed line by line
//! behind barriers while all cores stall. This is the 2×–23× slowdown bar
//! of Fig 11 and the ≈2× write amplification of Fig 12.

use crate::common::{BaselineCore, WriteSet, DATA_BYTES, LOG_ENTRY_BYTES};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::fault::PersistPayload;
use nvsim::hierarchy::HierarchyEvent;
use nvsim::linetable::LineTable;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};

/// The software undo-logging scheme.
pub struct SwUndoLogging {
    core: BaselineCore,
    /// Lines dirtied this epoch (the library's write set).
    write_set: WriteSet,
    /// Undo log of the current epoch: (line, pre-image) — used for
    /// functional recovery verification.
    undo_log: Vec<(LineAddr, Token)>,
    /// Image as of the last committed epoch (what recovery reproduces).
    committed_image: LineTable<LineAddr, Token>,
    epochs_committed: u64,
}

impl SwUndoLogging {
    /// Creates the scheme.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(std::sync::Arc::new(cfg.clone()))
    }

    /// Creates the scheme over a shared configuration handle.
    pub fn new_shared(cfg: std::sync::Arc<SimConfig>) -> Self {
        Self {
            core: BaselineCore::new_shared(cfg),
            write_set: WriteSet::default(),
            undo_log: Vec::new(),
            committed_image: LineTable::new(),
            epochs_committed: 0,
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

    /// The image recovery would restore (last committed epoch): data in
    /// NVM home locations with the current epoch's writes rolled back via
    /// the undo log.
    pub fn recovered_image(&self) -> &LineTable<LineAddr, Token> {
        &self.committed_image
    }

    /// Epochs committed so far.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs_committed
    }

    /// Mutable device access — used by the chaos harness to attach and
    /// harvest the persistence-order fault plane around a run.
    pub fn nvm_mut(&mut self) -> &mut nvsim::nvm::Nvm {
        &mut self.core.nvm
    }

    /// Synchronous epoch-boundary flush: every write-set line is cleaned
    /// (clwb) and written to its NVM home behind a barrier; all cores
    /// stall until the last write is durable.
    fn commit_epoch(&mut self, now: Cycle) -> Cycle {
        // Write-ahead fence: no home-location overwrite may start before
        // every already-accepted undo-log entry is durable, or a crash
        // mid-flush could leave new data with no pre-image to roll back.
        let mut done = self.core.nvm.persist_horizon().max(now);
        let lines = self.write_set.take();
        TraceScope::new(Track::Scheme).emit(
            EventKind::EpochFlush,
            now,
            self.epochs_committed,
            lines.len() as u64,
        );
        for line in lines {
            let (token, _dirty) = self.core.hier.clwb(line);
            let t = self
                .core
                .nvm
                .write(done, line.raw(), NvmWriteKind::Data, DATA_BYTES);
            self.core.nvm.annotate_last(PersistPayload::DataHome {
                line,
                token,
                epoch: self.epochs_committed,
            });
            self.core.stats.evictions.record(EvictReason::EpochFlush);
            // Barriered: the next flush starts after this one is durable.
            done = t.completion;
            self.committed_image.insert(line, token);
        }
        // Durable commit marker behind a barrier: once it persists, the
        // epoch's flush is complete and its undo log is dead.
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
        self.undo_log.clear();
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
                    if first_in_epoch {
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
                        self.undo_log.push((line, old_token));
                    }
                    self.write_set.insert(line);
                }
                HierarchyEvent::EpochTrigger { .. } => {
                    stall += self.commit_epoch(now + stall);
                }
                // Natural write-backs go to the DRAM working copy only;
                // persistence is the software's explicit job.
                HierarchyEvent::L2Writeback { .. } | HierarchyEvent::LlcWriteback { .. } => {}
            }
        }
        self.core.return_event_scratch(events);
        stall
    }
}

impl MemorySystem for SwUndoLogging {
    fn name(&self) -> &'static str {
        "SW Logging"
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

    fn epoch_mark(&mut self, core: CoreId, now: Cycle) -> Cycle {
        let _ = core;
        let stall = self.commit_epoch(now);
        self.core.stats.persist_stall_cycles += stall;
        stall
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

    fn finish(&mut self, now: Cycle) -> Cycle {
        let end = self.commit_epoch(now);
        let _ = self.core.hier.drain_dirty();
        self.core.sync_stats();
        now + end
    }

    fn stats(&self) -> &SystemStats {
        &self.core.stats
    }
}

impl std::fmt::Debug for SwUndoLogging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwUndoLogging")
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

    #[test]
    fn logs_once_per_line_per_epoch_and_flushes_data() {
        let mut sys = SwUndoLogging::new(&cfg(1_000_000));
        let mut tb = TraceBuilder::new(4);
        // 10 lines, 3 stores each.
        for r in 0..3u64 {
            for i in 0..10u64 {
                let _ = r;
                tb.store(ThreadId(0), Addr::new(i * 64));
            }
        }
        let trace = tb.build();
        let report = Runner::new().run(&mut sys, &trace);
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
        let mut sys = SwUndoLogging::new(&cfg(5));
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
        let mut sys = SwUndoLogging::new(&cfg(50));
        let mut tb = TraceBuilder::new(4);
        for i in 0..1000u64 {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % 100) * 64));
        }
        let trace = tb.build();
        let _ = Runner::new().run(&mut sys, &trace);
        let s = sys.stats();
        let log = s.nvm.bytes(NvmWriteKind::Log) as f64;
        let data = s.nvm.bytes(NvmWriteKind::Data) as f64;
        let amp = (log + data) / data;
        assert!(
            amp > 1.5 && amp < 2.5,
            "undo logging doubles the write volume, got {amp:.2}"
        );
    }
}
