//! Hardware Shadow Paging (paper §VI-B "HW Shadow").
//!
//! "We model hardware shadow paging using a three-version, cache line
//! granularity shadow scheme similar to ThyNVM. Hardware can overlap the
//! persistence of the previous epoch with the execution of the current
//! epoch. However, the centralized mapping table is updated
//! synchronously."
//!
//! At an epoch boundary the epoch's dirty lines are cleaned and their
//! data streams to NVM *in the background* (overlapped — only NVM
//! backpressure is visible), while the mapping-table update runs
//! synchronously and stalls every core (the moderate Fig 11 overhead).
//! Because data leaves through the (large) LLC side once per epoch, HW
//! Shadow writes *less* than NVOverlay on L2-thrashing workloads like
//! kmeans (Fig 12).

use crate::common::{BaselineCore, WriteSet, DATA_BYTES, TABLE_ENTRY_BYTES};
use nvoverlay::mnm::{NvmLoc, RadixTable};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::hierarchy::HierarchyEvent;
use nvsim::linetable::LineTable;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::stats::{EvictReason, NvmWriteKind, SystemStats};

/// The ThyNVM-like hardware shadow-paging scheme.
pub struct HwShadow {
    core: BaselineCore,
    write_set: WriteSet,
    table: RadixTable,
    shadow_flip: LineTable<LineAddr, bool>,
    committed_image: LineTable<LineAddr, Token>,
    epochs_committed: u64,
}

impl HwShadow {
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

    /// Epochs committed.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs_committed
    }

    fn commit_epoch(&mut self, now: Cycle) -> Cycle {
        let lines = self.write_set.take();
        // Background data persistence: overlapped with execution; the
        // writes occupy NVM banks but impose no synchronous stall.
        for &line in &lines {
            let (token, _) = self.core.hier.clwb(line);
            let flip = self.shadow_flip.or_default(line);
            *flip = !*flip;
            self.core.nvm.write(
                now,
                line.raw() * 2 + u64::from(*flip),
                NvmWriteKind::Data,
                DATA_BYTES,
            );
            self.core.stats.evictions.record(EvictReason::EpochFlush);
            self.committed_image.insert(line, token);
        }
        // Synchronous, centralized mapping-table update: the next epoch
        // cannot start until the table is consistent (ThyNVM's
        // "non-overlappable mapping table updates", §II-C).
        let mut done = now;
        for &line in &lines {
            let flip = *self.shadow_flip.get(line).expect("set above");
            let fx = self.table.insert(
                line,
                NvmLoc {
                    page: (line.raw() / 64) as u32,
                    slot: (line.raw() % 64) as u8,
                },
            );
            let _ = flip;
            let t = self.core.nvm.write(
                done,
                line.raw() ^ 0x3333,
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
                // A dirty line evicted from the LLC mid-epoch must be
                // shadowed immediately (it may not survive until the
                // boundary). Background write.
                HierarchyEvent::LlcWriteback {
                    line,
                    token,
                    reason,
                    ..
                } => {
                    self.core
                        .nvm
                        .write(now, line.raw(), NvmWriteKind::Data, DATA_BYTES);
                    self.core.stats.evictions.record(reason);
                    self.committed_image.insert(line, token);
                    // The line's current value is persistent; drop it from
                    // the pending set so the boundary does not rewrite it
                    // unless it is dirtied again.
                    self.write_set.remove(line);
                }
                HierarchyEvent::L2Writeback { .. } => {}
            }
        }
        self.core.return_event_scratch(events);
        stall
    }
}

impl MemorySystem for HwShadow {
    fn name(&self) -> &'static str {
        "HW Shadow"
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
    /// the scheme declares itself serial-only and `nvbench` falls back
    /// to the serial replay path.
    fn shardable(&self) -> bool {
        false
    }

    fn finish(&mut self, now: Cycle) -> Cycle {
        let end = self.commit_epoch(now);
        let _ = self.core.hier.drain_dirty();
        self.core.sync_stats();
        (now + end).max(self.core.nvm.persist_horizon())
    }

    fn stats(&self) -> &SystemStats {
        &self.core.stats
    }
}

impl std::fmt::Debug for HwShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwShadow")
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
    fn data_written_once_per_epoch_with_metadata() {
        let mut sys = HwShadow::new(&cfg(1_000_000));
        let mut tb = TraceBuilder::new(4);
        for r in 0..5u64 {
            for i in 0..10u64 {
                let _ = r;
                tb.store(ThreadId(0), Addr::new(i * 64));
            }
        }
        let trace = tb.build();
        let report = Runner::new().run(&mut sys, &trace);
        let s = sys.stats();
        assert_eq!(s.nvm.writes(NvmWriteKind::Data), 10);
        assert_eq!(s.nvm.writes(NvmWriteKind::Log), 0);
        for (l, t) in &report.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t));
        }
    }

    #[test]
    fn hw_shadow_stalls_less_than_sw_shadow() {
        let cfg_ = cfg(50);
        let mk_trace = || {
            let mut tb = TraceBuilder::new(4);
            for i in 0..2000u64 {
                tb.store(ThreadId((i % 4) as u16), Addr::new((i % 120) * 64));
            }
            tb.build()
        };
        let mut hw = HwShadow::new(&cfg_);
        let rh = Runner::new().run(&mut hw, &mk_trace());
        let mut sw = crate::sw_shadow::SwShadow::new(&cfg_);
        let rs = Runner::new().run(&mut sw, &mk_trace());
        assert!(
            rh.cycles < rs.cycles,
            "overlapped persistence must beat barriers: {} vs {}",
            rh.cycles,
            rs.cycles
        );
    }
}
