//! Software Shadow Paging (paper §VI-B "SW Shadow").
//!
//! "Software tracks the write set and flushes dirty lines back at the end
//! of each epoch. Software also maintains a persistent mapping table,
//! which is updated at the end of an epoch. All NVM writes use barriers."
//!
//! Data is written once (to a shadow location), so there is no log write
//! amplification — but every epoch boundary synchronously flushes the
//! write set *and* the mapping-table updates behind barriers, stalling
//! all cores (the Fig 11 "SW Shadow" bar, slightly better than SW
//! Logging).

use crate::common::{BaselineCore, WriteSet, DATA_BYTES, TABLE_ENTRY_BYTES};
use nvoverlay::mnm::{NvmLoc, RadixTable};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::hierarchy::HierarchyEvent;
use nvsim::linetable::LineTable;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};

/// The software shadow-paging scheme.
pub struct SwShadow {
    core: BaselineCore,
    write_set: WriteSet,
    /// The persistent shadow mapping table (same radix shape as
    /// NVOverlay's master table, which the paper also charges 8-byte
    /// entry writes for).
    table: RadixTable,
    /// Shadow slot allocator: two slots per line, flipped each commit.
    shadow_flip: LineTable<LineAddr, bool>,
    committed_image: LineTable<LineAddr, Token>,
    epochs_committed: u64,
}

impl SwShadow {
    /// Creates the scheme.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(std::sync::Arc::new(cfg.clone()))
    }

    /// Creates the scheme over a shared configuration handle.
    pub fn new_shared(cfg: std::sync::Arc<SimConfig>) -> Self {
        Self {
            core: BaselineCore::new_shared(cfg),
            write_set: WriteSet::default(),
            table: RadixTable::new(),
            shadow_flip: LineTable::new(),
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

    /// The image recovery would restore.
    pub fn recovered_image(&self) -> &LineTable<LineAddr, Token> {
        &self.committed_image
    }

    /// Epochs committed so far.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs_committed
    }

    fn commit_epoch(&mut self, now: Cycle) -> Cycle {
        let mut done = now;
        let lines = self.write_set.take();
        // Phase 1: barriered data writes to shadow locations.
        for &line in &lines {
            let (token, _) = self.core.hier.clwb(line);
            let flip = self.shadow_flip.or_default(line);
            *flip = !*flip;
            let shadow_key = line.raw() * 2 + u64::from(*flip);
            let t = self
                .core
                .nvm
                .write(done, shadow_key, NvmWriteKind::Data, DATA_BYTES);
            self.core.stats.evictions.record(EvictReason::EpochFlush);
            done = t.completion;
            self.committed_image.insert(line, token);
        }
        // Phase 2: barriered mapping-table updates (atomic commit).
        for &line in &lines {
            let flip = *self.shadow_flip.get(line).expect("flipped in phase 1");
            let fx = self.table.insert(
                line,
                NvmLoc {
                    page: (line.raw() / 64) as u32,
                    slot: ((line.raw() % 64) * 2 + u64::from(flip) % 2) as u8 % 64,
                },
            );
            let t = self.core.nvm.write(
                done,
                line.raw() ^ 0xAAAA,
                NvmWriteKind::MapMetadata,
                fx.entry_writes * TABLE_ENTRY_BYTES,
            );
            done = t.completion;
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
                HierarchyEvent::StoreCommitted { line, .. } => {
                    self.write_set.insert(line);
                }
                HierarchyEvent::EpochTrigger { .. } => {
                    stall += self.commit_epoch(now + stall);
                }
                HierarchyEvent::L2Writeback { .. } | HierarchyEvent::LlcWriteback { .. } => {}
            }
        }
        self.core.return_event_scratch(events);
        stall
    }
}

impl MemorySystem for SwShadow {
    fn name(&self) -> &'static str {
        "SW Shadow"
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

impl std::fmt::Debug for SwShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwShadow")
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
    fn writes_data_once_plus_table_metadata() {
        let mut sys = SwShadow::new(&cfg(1_000_000));
        let mut tb = TraceBuilder::new(4);
        for r in 0..3u64 {
            for i in 0..10u64 {
                let _ = r;
                tb.store(ThreadId(0), Addr::new(i * 64));
            }
        }
        let trace = tb.build();
        let report = Runner::new().run(&mut sys, &trace);
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
        let run = |mk: &mut dyn FnMut() -> Box<dyn MemorySystem>| {
            let mut tb = TraceBuilder::new(4);
            for i in 0..1500u64 {
                tb.store(ThreadId((i % 4) as u16), Addr::new((i % 100) * 64));
            }
            let trace = tb.build();
            let mut sys = mk();
            let _ = Runner::new().run(sys.as_mut(), &trace);
            sys.stats().nvm.total_bytes()
        };
        let cfg_ = cfg(100);
        let shadow = run(&mut || Box::new(SwShadow::new(&cfg_)));
        let undo = run(&mut || Box::new(crate::sw_undo::SwUndoLogging::new(&cfg_)));
        assert!(
            shadow < undo,
            "shadow ({shadow}) must write less than undo logging ({undo})"
        );
    }
}
