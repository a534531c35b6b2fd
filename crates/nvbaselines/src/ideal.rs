//! The ideal NVM system with no snapshotting — the normalization baseline
//! of Fig 11 ("All numbers are normalized to baseline execution without
//! snapshotting").

use nvsim::config::SimConfig;
use nvsim::hierarchy::Hierarchy;
use nvsim::memsys::{SchemeCore, SchemeHooks};
use nvsim::Cycle;
use std::sync::Arc;

/// A system that runs the hierarchy and persists nothing: the empty
/// scheme. It ignores every event and only writes dirty data back to
/// DRAM at the end.
#[derive(Debug)]
pub struct IdealSystem {
    core: SchemeCore<Hierarchy>,
}

impl IdealSystem {
    /// Creates the ideal system.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()))
    }

    /// Creates the ideal system over a shared configuration handle.
    pub fn new_shared(cfg: Arc<SimConfig>) -> Self {
        Self {
            core: SchemeCore::new(Hierarchy::new_shared(cfg)),
        }
    }
}

nvsim::deref_scheme_core!(IdealSystem, Hierarchy);

impl SchemeHooks for IdealSystem {
    type Hier = Hierarchy;

    fn label(&self) -> &'static str {
        "Ideal"
    }

    fn on_finish(&mut self, _now: Cycle) {
        let _ = self.core.hier.drain_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::{Addr, ThreadId};
    use nvsim::memsys::{MemorySystem, Runner};
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
