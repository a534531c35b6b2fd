//! Shared plumbing for the baseline schemes.

use nvsim::addr::{CoreId, LineAddr};
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::hierarchy::{Hierarchy, HierarchyEvent};
use nvsim::linetable::LineTable;
use nvsim::nvm::Nvm;
use nvsim::stats::SystemStats;
use std::sync::Arc;

/// The parts every baseline owns: the shared hierarchy, an NVM device,
/// the stats block and a per-core "resume time" used to model global
/// quiesce stalls (epoch flushes that halt all cores).
pub struct BaselineCore {
    /// The non-versioned MESI hierarchy.
    pub hier: Hierarchy,
    /// The scheme's NVM device.
    pub nvm: Nvm,
    /// Statistics (synced from devices at `finish`).
    pub stats: SystemStats,
    /// Per-core earliest resume time after a global stall.
    pub core_resume: Vec<Cycle>,
    /// Recycled scratch copy of the hierarchy's per-access events —
    /// schemes `mem::take` it around their handler loop so the hot path
    /// never allocates (see [`BaselineCore::take_event_scratch`]).
    pub ev_scratch: Vec<HierarchyEvent>,
}

impl BaselineCore {
    /// Builds the shared parts from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()))
    }

    /// Builds the shared parts over a shared configuration handle.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new_shared(cfg: Arc<SimConfig>) -> Self {
        let nvm = Nvm::new(
            cfg.nvm_banks,
            cfg.nvm_write_latency,
            cfg.nvm_read_latency,
            cfg.nvm_queue_depth,
            cfg.bandwidth_bucket_cycles,
        );
        Self {
            nvm,
            stats: SystemStats::new(cfg.bandwidth_bucket_cycles),
            core_resume: vec![0; cfg.cores as usize],
            ev_scratch: Vec::new(),
            hier: Hierarchy::new_shared(cfg),
        }
    }

    /// Takes the recycled event buffer, refilled with the hierarchy's
    /// latest events. The caller iterates it (the borrow on `self` is
    /// released) and MUST hand it back via
    /// [`BaselineCore::return_event_scratch`] so the next access reuses
    /// the capacity instead of allocating.
    pub fn take_event_scratch(&mut self) -> Vec<HierarchyEvent> {
        let mut buf = std::mem::take(&mut self.ev_scratch);
        buf.clear();
        buf.extend_from_slice(self.hier.events());
        buf
    }

    /// Returns the scratch buffer taken by
    /// [`BaselineCore::take_event_scratch`].
    pub fn return_event_scratch(&mut self, buf: Vec<HierarchyEvent>) {
        self.ev_scratch = buf;
    }

    /// Stall this core owes from a previous global quiesce.
    pub fn pending_stall(&mut self, core: CoreId, now: Cycle) -> Cycle {
        let r = self.core_resume[core.index()];
        r.saturating_sub(now)
    }

    /// Halts every core until `t` (global quiesce, e.g. a software epoch
    /// flush or a synchronous mapping-table update).
    pub fn stall_all_until(&mut self, t: Cycle) {
        for r in &mut self.core_resume {
            *r = (*r).max(t);
        }
    }

    /// Installs a cross-island line at its DRAM home during a sharded
    /// replay barrier (delegates to
    /// [`Hierarchy::import_line`]). Baselines share this so every
    /// scheme's `MemorySystem::import_line` behaves identically.
    pub fn import_line(&mut self, line: nvsim::addr::LineAddr, token: nvsim::addr::Token) -> bool {
        self.hier.import_line(line, token)
    }

    /// Batched variant of [`BaselineCore::import_line`] (delegates to
    /// [`Hierarchy::import_lines`]): one pass over the sorted exchange
    /// run, applied deposits mirrored into `golden`.
    pub fn import_lines(
        &mut self,
        entries: &[nvsim::shard::ExchangeEntry],
        island: u16,
        golden: &mut nvsim::memsys::Oracle,
    ) -> u64 {
        self.hier.import_lines(entries, island, golden)
    }

    /// Copies device counters into the stats block.
    pub fn sync_stats(&mut self) {
        self.stats.nvm = self.nvm.stats().clone();
        self.stats.nvm_bandwidth = self.nvm.bandwidth().clone();
        self.stats.access = self.hier.counters().clone();
    }
}

impl std::fmt::Debug for BaselineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineCore")
            .field("hier", &self.hier)
            .finish()
    }
}

/// The lines a software or shadow scheme must flush at the next epoch
/// boundary, in first-store order.
///
/// A line leaves the set early when it is persisted mid-epoch (HW
/// Shadow's LLC write-back); its slot becomes a tombstone, so removal is
/// O(1) and a line dirtied again afterwards joins at the end — the order
/// a `Vec::retain` + `push` would give, without the O(set) rescan.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    order: Vec<Option<LineAddr>>,
    slot: LineTable<LineAddr, usize>,
}

impl WriteSet {
    /// Records a store; only a line's first store since it last left the
    /// set takes a place in the order.
    pub(crate) fn insert(&mut self, line: LineAddr) {
        if !self.slot.contains_key(line) {
            self.slot.insert(line, self.order.len());
            self.order.push(Some(line));
        }
    }

    /// Drops a line from the set; returns whether it was present.
    pub(crate) fn remove(&mut self, line: LineAddr) -> bool {
        match self.slot.remove(line) {
            Some(i) => {
                self.order[i] = None;
                true
            }
            None => false,
        }
    }

    /// Empties the set, returning its lines in order.
    pub(crate) fn take(&mut self) -> Vec<LineAddr> {
        self.slot.clear();
        self.order.drain(..).flatten().collect()
    }

    /// Lines currently in the set.
    pub(crate) fn len(&self) -> usize {
        self.slot.len()
    }
}

/// Size in bytes of one undo/redo log entry (paper §VII-B: "each log
/// entry takes 72 bytes (64B data + 8B address tag)").
pub const LOG_ENTRY_BYTES: u64 = 72;

/// Size of a cache line's data payload.
pub const DATA_BYTES: u64 = 64;

/// Size of one mapping-table entry write.
pub const TABLE_ENTRY_BYTES: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::rng::Rng64;

    #[test]
    fn write_set_orders_like_retain_and_push() {
        let l = LineAddr::new;
        let mut ws = WriteSet::default();
        for n in [1, 2, 3, 4] {
            ws.insert(l(n));
        }
        ws.insert(l(2)); // already present: keeps its place
        assert!(ws.remove(l(3)), "evicted only");
        assert!(ws.remove(l(1)));
        ws.insert(l(1)); // evicted, then dirtied again: joins at the end
        assert!(!ws.remove(l(9)));
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.take(), vec![l(2), l(4), l(1)]);
        assert_eq!(ws.len(), 0);
        assert!(ws.take().is_empty());
    }

    #[test]
    fn write_set_matches_vec_model_under_seeded_traffic() {
        let mut rng = Rng64::seed_from_u64(0x5E7);
        let mut ws = WriteSet::default();
        let mut model: Vec<LineAddr> = Vec::new();
        for step in 0..20_000 {
            let line = LineAddr::new(rng.gen_range(0..64u64));
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    ws.insert(line);
                    if !model.contains(&line) {
                        model.push(line);
                    }
                }
                6..=8 => {
                    let present = model.contains(&line);
                    model.retain(|l| *l != line);
                    assert_eq!(ws.remove(line), present, "step {step}");
                }
                _ => assert_eq!(ws.take(), std::mem::take(&mut model), "step {step}"),
            }
            assert_eq!(ws.len(), model.len(), "step {step}");
        }
    }
}
