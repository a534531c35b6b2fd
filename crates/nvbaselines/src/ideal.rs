//! The ideal NVM system with no snapshotting — the normalization baseline
//! of Fig 11 ("All numbers are normalized to baseline execution without
//! snapshotting").

use crate::common::BaselineCore;
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem};
use nvsim::stats::SystemStats;

/// A system that runs the hierarchy and persists nothing.
#[derive(Debug)]
pub struct IdealSystem {
    core: BaselineCore,
}

impl IdealSystem {
    /// Creates the ideal system.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(std::sync::Arc::new(cfg.clone()))
    }

    /// Creates the ideal system over a shared configuration handle.
    pub fn new_shared(cfg: std::sync::Arc<SimConfig>) -> Self {
        Self {
            core: BaselineCore::new_shared(cfg),
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
}

impl MemorySystem for IdealSystem {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        _now: Cycle,
    ) -> AccessOutcome {
        let (latency, value) = self.core.hier.access(core, op, addr, token);
        AccessOutcome {
            latency,
            persist_stall: 0,
            value,
        }
    }

    fn epoch_mark(&mut self, _core: CoreId, _now: Cycle) -> Cycle {
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

    fn finish(&mut self, now: Cycle) -> Cycle {
        let _ = self.core.hier.drain_dirty();
        self.core.sync_stats();
        now
    }

    fn stats(&self) -> &SystemStats {
        &self.core.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::ThreadId;
    use nvsim::memsys::Runner;
    use nvsim::trace::TraceBuilder;

    #[test]
    fn ideal_never_touches_nvm() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(10)
            .build()
            .unwrap();
        let mut sys = IdealSystem::new(&cfg);
        let mut tb = TraceBuilder::new(4);
        for i in 0..500u64 {
            tb.store(ThreadId((i % 4) as u16), Addr::new((i % 64) * 64));
        }
        let trace = tb.build();
        let report = Runner::new().run(&mut sys, &trace);
        assert_eq!(sys.stats().nvm.total_bytes(), 0);
        assert_eq!(report.stall_cycles, 0);
    }
}
