//! The baseline MESI/MOESI hierarchy: the [`Coherence`] engine under
//! the baseline line policy.
//!
//! This is the cache system the five *baseline* schemes run on. The
//! hierarchy is purely functional + timing: it knows nothing about
//! persistence. Every access returns the latency it took plus a list of
//! [`HierarchyEvent`]s (stores committed, dirty write-backs with their
//! reason, epoch triggers). A scheme in `nvbaselines` interprets the
//! events — generating log writes, flushing write sets, walking tags —
//! and charges any persistence stalls on top.
//!
//! A line carries its token and the epoch of its last store. NVOverlay
//! runs the same engine under its versioned policy (`nvoverlay::cst`).

use crate::addr::{Addr, CoreId, LineAddr, Token, VdId};
use crate::clock::Cycle;
use crate::coherence::{Coherence, Line, LinePolicy, LlcLine, Response};
use crate::config::SimConfig;
use crate::memsys::MemOp;
use crate::mesi::MesiState;
use crate::stats::EvictReason;
use std::sync::Arc;

/// An epoch number as tracked by the *baseline* hierarchy.
///
/// Baselines use a monotonically increasing 64-bit epoch; the 16-bit
/// wrap-around OID machinery is specific to NVOverlay and lives there.
pub type EpochId = u64;

/// Something the hierarchy did that a persistence scheme may care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchyEvent {
    /// A store retired. `first_in_epoch` is true when this is the first
    /// store to the line in the current epoch (undo-logging trigger).
    StoreCommitted {
        /// The line written.
        line: LineAddr,
        /// The line's content before the store (undo-log pre-image).
        old_token: Token,
        /// Epoch of the previous store to the line.
        old_oid: EpochId,
        /// Epoch the store happened in.
        new_oid: EpochId,
        /// Whether this is the first store to the line this epoch.
        first_in_epoch: bool,
    },
    /// A dirty line left an L2 (downward): capacity eviction or coherence
    /// downgrade. PiCL-L2-style schemes persist on this event.
    L2Writeback {
        /// The VD whose L2 wrote back.
        vd: VdId,
        /// The line written back.
        line: LineAddr,
        /// Newest content.
        token: Token,
        /// Epoch of the last store.
        oid: EpochId,
        /// Why it left.
        reason: EvictReason,
    },
    /// A dirty line left the LLC toward memory. LLC-based schemes (PiCL)
    /// persist on this event; the hierarchy has already updated the DRAM
    /// working copy.
    LlcWriteback {
        /// The line written back.
        line: LineAddr,
        /// Newest content.
        token: Token,
        /// Epoch of the last store.
        oid: EpochId,
        /// Why it left.
        reason: EvictReason,
    },
    /// A VD crossed the configured store budget for one epoch; the scheme
    /// should advance epochs per its own policy.
    EpochTrigger {
        /// The VD whose budget expired.
        vd: VdId,
    },
}

/// A dirty line surfaced by a flush/drain/walk helper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyLine {
    /// The line.
    pub line: LineAddr,
    /// Its newest content.
    pub token: Token,
    /// Epoch of its last store.
    pub oid: EpochId,
}

/// The baseline line policy: a line carries the epoch of its last store,
/// stores update in place, and data leaving an L2 or the LLC surfaces as
/// events.
#[derive(Debug)]
pub struct BaselinePolicy {
    vd_epoch: Vec<EpochId>,
    events: Vec<HierarchyEvent>,
}

impl LinePolicy for BaselinePolicy {
    type Tag = EpochId;
    type Ver = EpochId;
    type Event = HierarchyEvent;

    fn events_mut(&mut self) -> &mut Vec<HierarchyEvent> {
        &mut self.events
    }

    fn settled(tag: EpochId) -> EpochId {
        tag
    }

    fn dram_tag(raw: Option<u16>) -> EpochId {
        raw.map(u64::from).unwrap_or(0)
    }

    fn respond(&self, tag: EpochId, _vd: VdId) -> EpochId {
        tag
    }

    fn install(ver: &EpochId) -> EpochId {
        *ver
    }

    fn refill(l2: &mut Line<EpochId>, r: &Response<EpochId>) {
        if r.dirty {
            l2.token = r.token;
            l2.tag = r.ver;
        }
    }

    fn arrive(_: &mut Coherence<Self>, _: VdId, _: &Response<EpochId>) -> Cycle {
        0
    }

    fn store_evicts(&self, _: &Line<EpochId>, _: VdId) -> bool {
        false
    }

    fn commit(&mut self, l: &mut Line<EpochId>, vd: VdId, line: LineAddr, token: Token) {
        let epoch = self.vd_epoch[vd.index()];
        self.events.push(HierarchyEvent::StoreCommitted {
            line,
            old_token: l.token,
            old_oid: l.tag,
            new_oid: epoch,
            first_in_epoch: l.tag != epoch,
        });
        *l = Line {
            state: MesiState::M,
            token,
            tag: epoch,
        };
    }

    fn budget_expired(h: &mut Coherence<Self>, vd: VdId) -> Cycle {
        h.policy.events.push(HierarchyEvent::EpochTrigger { vd });
        0
    }

    fn putx(h: &mut Coherence<Self>, vd: VdId, line: LineAddr, l1: Line<EpochId>, _: EvictReason) {
        *h.l2s[vd.index()]
            .peek_mut(line)
            .expect("inclusion: L2 must hold every L1 line") = Line {
            state: MesiState::M,
            ..l1
        };
    }

    fn merge(
        _: &mut Coherence<Self>,
        _: VdId,
        _: LineAddr,
        l2: Line<EpochId>,
        l1: Option<Line<EpochId>>,
        _: EvictReason,
    ) -> Line<EpochId> {
        l1.unwrap_or(l2)
    }

    fn transfer_state(_dirty: bool) -> MesiState {
        MesiState::M
    }

    fn write_back(
        h: &mut Coherence<Self>,
        vd: VdId,
        line: LineAddr,
        newest: Line<EpochId>,
        reason: EvictReason,
    ) {
        let dirty = newest.state.is_dirty();
        h.llc_install(
            line,
            LlcLine {
                dirty,
                token: newest.token,
                tag: newest.tag,
            },
        );
        if dirty {
            h.policy.events.push(HierarchyEvent::L2Writeback {
                vd,
                line,
                token: newest.token,
                oid: newest.tag,
                reason,
            });
        }
    }

    fn llc_victim(h: &mut Coherence<Self>, line: LineAddr, victim: LlcLine<EpochId>) {
        h.policy.events.push(HierarchyEvent::LlcWriteback {
            line,
            token: victim.token,
            oid: victim.tag,
            reason: EvictReason::CapacityMiss,
        });
    }
}

/// The baseline MESI/MOESI hierarchy. The engine's accessors
/// (`config`, `counters`, `noc`, `dram`, `import_lines`, ...) are reached
/// through `Deref`.
pub struct Hierarchy(Coherence<BaselinePolicy>);

impl std::ops::Deref for Hierarchy {
    type Target = Coherence<BaselinePolicy>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for Hierarchy {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl crate::memsys::Machine for Hierarchy {
    type Policy = BaselinePolicy;
}

impl Hierarchy {
    /// Builds a hierarchy from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()))
    }

    /// Builds a hierarchy sharing an already-wrapped configuration —
    /// matrix sweeps hand every cell the same `Arc` instead of cloning
    /// the config per hierarchy.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new_shared(cfg: Arc<SimConfig>) -> Self {
        let policy = BaselinePolicy {
            vd_epoch: vec![1; cfg.vd_count() as usize],
            events: Vec::new(),
        };
        Self(Coherence::new(cfg, policy))
    }

    /// Current epoch of a VD.
    pub fn epoch(&self, vd: VdId) -> EpochId {
        self.policy.vd_epoch[vd.index()]
    }

    /// Advances one VD's epoch and resets its store budget.
    pub fn advance_epoch(&mut self, vd: VdId) {
        self.debug_validate();
        self.policy.vd_epoch[vd.index()] += 1;
        self.store_counts[vd.index()] = 0;
    }

    /// Advances all VDs to a common next epoch (global-epoch schemes).
    pub fn advance_all_epochs(&mut self) {
        self.debug_validate();
        let next = self.policy.vd_epoch.iter().copied().max().unwrap_or(0) + 1;
        self.policy.vd_epoch.fill(next);
        self.store_counts.fill(0);
    }

    /// Events produced by the most recent [`Hierarchy::access`].
    pub fn events(&self) -> &[HierarchyEvent] {
        &self.policy.events
    }

    /// Performs one access and returns `(latency, value)` — the value
    /// loaded (for loads) or stored (for stores), letting callers verify
    /// read coherence end-to-end. Inspect [`Hierarchy::events`]
    /// afterwards for persistence-relevant events.
    pub fn access(&mut self, core: CoreId, op: MemOp, addr: Addr, token: Token) -> (Cycle, Token) {
        self.policy.events.clear();
        let (lat, _, value) = self.0.access(core, op, addr, token);
        (lat, value)
    }

    // ---- Scheme-facing maintenance operations -------------------------

    /// All dirty LLC lines matching `pred` (tag-walk read phase).
    pub fn dirty_llc_lines(
        &self,
        mut pred: impl FnMut(LineAddr, EpochId) -> bool,
    ) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for slice in &self.llc {
            for (l, m) in slice.iter() {
                if m.dirty && pred(l, m.tag) {
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.tag,
                    });
                }
            }
        }
        out
    }

    /// Marks an LLC line clean after the scheme persisted it (walker
    /// write-back downgrade). Also refreshes the DRAM working copy so that
    /// clean-copy semantics stay exact.
    pub fn clean_llc_line(&mut self, line: LineAddr) {
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek_mut(line) {
            if m.dirty {
                m.dirty = false;
                let t = m.token;
                self.dram.write(line, t);
            }
        }
    }

    /// All dirty lines of `vd`'s L2 matching `pred` (L2 tag walk), in the
    /// L2's tag-walk order. A dirty L1 copy holds the newest data, so it
    /// is reported in place of the L2's (the highest dirty core wins).
    ///
    /// The VD's dirty L1 lines are gathered once, keyed by the L2 slot
    /// that inclusion gives them, and merged into a single pass over the
    /// L2, so no L2 line probes the L1s.
    pub fn dirty_l2_lines(
        &self,
        vd: VdId,
        mut pred: impl FnMut(LineAddr, EpochId) -> bool,
    ) -> Vec<DirtyLine> {
        let l2 = &self.l2s[vd.index()];
        let mut l1_dirty: Vec<(usize, Token, EpochId)> = Vec::new();
        for c in self.local_cores(vd) {
            for (l, m) in self.l1s[c as usize].iter() {
                if m.state.is_dirty() {
                    let slot = l2
                        .slot_of(l)
                        .expect("inclusion: L2 must hold every L1 line");
                    l1_dirty.push((slot, m.token, m.tag));
                }
            }
        }
        // Stable: within one slot the cores stay ascending, last one wins.
        l1_dirty.sort_by_key(|&(slot, _, _)| slot);
        let mut l1_dirty = l1_dirty.into_iter().peekable();
        let mut out = Vec::new();
        for (slot, l, m) in l2.iter_slots() {
            let mut token = m.token;
            let mut oid = m.tag;
            let mut dirty = m.state.is_dirty();
            while let Some((_, t, o)) = l1_dirty.next_if(|&(s, _, _)| s == slot) {
                token = t;
                oid = o;
                dirty = true;
            }
            if dirty && pred(l, oid) {
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        out
    }

    /// Marks an L2 line (and its L1 copies) clean after the scheme
    /// persisted it, refreshing the DRAM working copy and reconciling any
    /// stale LLC copy (a dirty LLC copy can survive an E-grant fetch that
    /// was later silently upgraded; the VD's data is authoritative).
    pub fn clean_l2_line(&mut self, vd: VdId, line: LineAddr) {
        let mut newest: Option<(Token, EpochId)> = None;
        if let Some(m) = self.l2s[vd.index()].peek_mut(line) {
            if m.state.is_dirty() {
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                newest = Some((m.token, m.tag));
            }
        }
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() {
                    m.state = MesiState::E;
                    newest = Some((m.token, m.tag));
                }
            }
        }
        if let Some((t, oid)) = newest {
            // Fold newest into L2 so later evictions stay consistent.
            if let Some(m) = self.l2s[vd.index()].peek_mut(line) {
                m.token = t;
                m.tag = oid;
            }
            let s = self.slice_of(line);
            if let Some(m) = self.llc[s].peek_mut(line) {
                m.token = t;
                m.tag = oid;
                m.dirty = false;
            }
            self.dram.write(line, t);
        }
    }

    /// `clwb`-style flush of one line: cleans every cached copy, folds
    /// the newest content into every remaining copy and the DRAM home,
    /// and returns the newest content plus whether any copy was dirty.
    /// Used by the software schemes' barrier flushes.
    ///
    /// Folding matters: downgrading a dirty L1 copy to clean without
    /// pushing its data into the L2 would let a later silent clean
    /// eviction drop the newest value.
    pub fn clwb(&mut self, line: LineAddr) -> (Token, bool) {
        let mut token = self.dram.peek(line);
        let mut dirty = false;
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek(line) {
            if m.dirty {
                token = m.token;
                dirty = true;
            }
        }
        // The directory names exactly the VDs whose L2 holds the line
        // (checked by `check_structure`), and L1s are inclusive in
        // their VD's L2, so only those caches are probed: the holders'
        // L2s, then their L1s, each ascending — the order a scan of the
        // whole machine would meet the copies in.
        let holders = self.dir.entry(line).map(|e| e.sharers());
        for vd in holders.into_iter().flatten() {
            let m = self.l2s[vd as usize]
                .peek(line)
                .expect("directory sharers hold the line");
            if m.state.is_dirty() {
                token = m.token;
                dirty = true;
            }
        }
        for vd in holders.into_iter().flatten() {
            for c in self.local_cores(VdId(vd)) {
                if let Some(m) = self.l1s[c as usize].peek(line) {
                    if m.state.is_dirty() {
                        token = m.token;
                        dirty = true;
                    }
                }
            }
        }
        // Clean every copy and fold the newest data into all of them.
        if let Some(m) = self.llc[s].peek_mut(line) {
            m.dirty = false;
            m.token = token;
        }
        for vd in holders.into_iter().flatten() {
            let m = self.l2s[vd as usize].peek_mut(line).expect("probed above");
            if m.state.is_dirty() {
                // Owned copies stay shared after cleaning.
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
            }
            m.token = token;
            for c in self.local_cores(VdId(vd)) {
                if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                    if m.state.is_dirty() {
                        m.state = MesiState::E;
                    }
                    m.token = token;
                }
            }
        }
        if dirty {
            self.dram.write(line, token);
        }
        (token, dirty)
    }

    /// Flushes every dirty line in the hierarchy to DRAM and returns them
    /// (newest copy each). Used at the end of a run. Each array is walked
    /// once, in place, in tag-walk order.
    pub fn drain_dirty(&mut self) -> Vec<DirtyLine> {
        self.debug_validate();
        let h = &mut self.0;
        let mut out: Vec<DirtyLine> = Vec::new();
        let cores_per_vd = h.cfg.cores_per_vd as usize;
        let slices = h.cfg.llc_slices as u64;
        // L1 dirty lines fold into L2s first.
        for (core, l1) in h.l1s.iter_mut().enumerate() {
            let l2 = &mut h.l2s[core / cores_per_vd];
            for (l, m) in l1.iter_mut() {
                if m.state.is_dirty() {
                    let l2m = l2
                        .peek_mut(l)
                        .expect("inclusion: L2 must hold every L1 line");
                    l2m.token = m.token;
                    l2m.tag = m.tag;
                    l2m.state = MesiState::M;
                    m.state = MesiState::E;
                }
            }
        }
        // L2 dirty lines. Any LLC copy of the same line is reconciled:
        // the owning VD's data is authoritative (a stale dirty LLC copy
        // can survive an E-grant fetch that was silently upgraded).
        for l2 in &mut h.l2s {
            for (l, m) in l2.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.tag);
                if let Some(c) = h.llc[(l.raw() % slices) as usize].peek_mut(l) {
                    c.token = t;
                    c.tag = oid;
                    c.dirty = false;
                }
                h.dram.write(l, t);
                out.push(DirtyLine {
                    line: l,
                    token: t,
                    oid,
                });
            }
        }
        // Remaining LLC dirty lines.
        for slice in &mut h.llc {
            for (l, m) in slice.iter_mut() {
                if m.dirty {
                    m.dirty = false;
                    h.dram.write(l, m.token);
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.tag,
                    });
                }
            }
        }
        out
    }

    /// Runs [`Coherence::assert_structure`] at epoch boundaries and
    /// before the final drain in builds with `debug_assertions` (every
    /// `cargo test`); compiles to nothing in release builds.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        self.assert_structure();
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cores", &self.cfg.cores)
            .field("vds", &self.cfg.vd_count())
            .field("loads", &self.counters.loads)
            .field("stores", &self.counters.stores)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4) // 8 sets
            .l2(4096, 4, 8) // 16 sets
            .llc(16 * 1024, 4, 30, 2) // 2 slices, 32 sets each
            .epoch_size_stores(1_000_000)
            .build()
            .unwrap()
    }

    fn addr(line: u64) -> Addr {
        Addr::new(line * 64)
    }

    #[test]
    fn load_miss_then_hit() {
        let mut h = Hierarchy::new(&small_cfg());
        let (lat1, _) = h.access(CoreId(0), MemOp::Load, addr(1), 0);
        assert!(lat1 > h.config().l1.latency, "first access misses");
        assert_eq!(h.counters().mem_fetches, 1);
        let (lat2, v) = h.access(CoreId(0), MemOp::Load, addr(1), 0);
        assert_eq!(v, 0, "unwritten line loads zero");
        assert_eq!(lat2, h.config().l1.latency, "second access hits L1");
        assert_eq!(h.counters().l1_hits, 1);
    }

    #[test]
    fn store_then_remote_load_transfers_newest_data() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(5), 77);
        // Core 2 is in the other VD.
        h.access(CoreId(2), MemOp::Load, addr(5), 0);
        // The downgrade deposited dirty data into the LLC and produced a
        // writeback event.
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::L2Writeback {
                reason: EvictReason::CoherenceDowngrade,
                token: 77,
                ..
            }
        )));
        assert_eq!(h.newest_token(LineAddr::new(5)), 77);
        // Both VDs can now read it cheaply, and see the stored value.
        let (lat, v) = h.access(CoreId(0), MemOp::Load, addr(5), 0);
        assert_eq!(lat, h.config().l1.latency);
        assert_eq!(v, 77);
    }

    #[test]
    fn remote_store_invalidates_and_moves_ownership() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(9), 1);
        h.access(CoreId(2), MemOp::Store, addr(9), 2);
        assert_eq!(h.newest_token(LineAddr::new(9)), 2);
        // Core 0 must re-fetch (its copy was invalidated) and sees the
        // remote store's value.
        let (lat, v) = h.access(CoreId(0), MemOp::Load, addr(9), 0);
        assert!(lat > h.config().l1.latency);
        assert_eq!(v, 2);
        assert_eq!(h.newest_token(LineAddr::new(9)), 2);
    }

    #[test]
    fn sibling_l1_store_transfer_within_vd() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(3), 10);
        // Core 1 shares VD 0; its store must see/replace core 0's copy.
        h.access(CoreId(1), MemOp::Store, addr(3), 11);
        assert_eq!(h.newest_token(LineAddr::new(3)), 11);
        // Core 0's copy was invalidated.
        let (lat, v) = h.access(CoreId(0), MemOp::Load, addr(3), 0);
        assert!(lat > h.config().l1.latency, "sibling invalidated the copy");
        assert_eq!(v, 11);
        assert_eq!(h.newest_token(LineAddr::new(3)), 11);
    }

    #[test]
    fn store_commit_events_track_first_write_per_epoch() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(7), 1);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: true,
                ..
            }
        )));
        h.access(CoreId(0), MemOp::Store, addr(7), 2);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: false,
                old_token: 1,
                ..
            }
        )));
        // New epoch: first write again.
        h.advance_epoch(VdId(0));
        h.access(CoreId(0), MemOp::Store, addr(7), 3);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: true,
                old_token: 2,
                ..
            }
        )));
    }

    #[test]
    fn epoch_trigger_fires_on_store_budget() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(3)
            .build()
            .unwrap();
        let mut h = Hierarchy::new(&cfg);
        let mut triggers = 0;
        for i in 0..6 {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
            triggers += h
                .events()
                .iter()
                .filter(|e| matches!(e, HierarchyEvent::EpochTrigger { .. }))
                .count();
        }
        assert_eq!(triggers, 2);
    }

    #[test]
    fn capacity_evictions_cascade_to_dram() {
        let cfg = small_cfg();
        let mut h = Hierarchy::new(&cfg);
        // Write far more lines than LLC capacity (16KB = 256 lines).
        let total = 2_000u64;
        for i in 0..total {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
        }
        let _ = h.drain_dirty();
        for i in 0..total {
            assert_eq!(
                h.newest_token(LineAddr::new(i)),
                i + 1,
                "line {i} lost its data in the eviction cascade"
            );
        }
        assert!(h.dram().writes() > 0, "dirty LLC victims reached DRAM");
    }

    #[test]
    fn clwb_cleans_and_returns_newest() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(4), 99);
        let (tok, dirty) = h.clwb(LineAddr::new(4));
        assert_eq!(tok, 99);
        assert!(dirty);
        assert_eq!(h.dram().peek(LineAddr::new(4)), 99);
        let (_, dirty2) = h.clwb(LineAddr::new(4));
        assert!(!dirty2, "second clwb finds the line clean");
        // The copy is still cached: hit at L1 latency with the value.
        let (lat, v) = h.access(CoreId(0), MemOp::Load, addr(4), 0);
        assert_eq!(lat, h.config().l1.latency);
        assert_eq!(v, 99);
    }

    #[test]
    fn drain_returns_every_dirty_line_once() {
        let mut h = Hierarchy::new(&small_cfg());
        for i in 0..10u64 {
            h.access(CoreId((i % 4) as u16), MemOp::Store, addr(i), 100 + i);
        }
        let drained = h.drain_dirty();
        let mut lines: Vec<u64> = drained.iter().map(|d| d.line.raw()).collect();
        lines.sort_unstable();
        let before = lines.len();
        lines.dedup();
        assert_eq!(lines.len(), before, "no line drained twice");
        assert_eq!(lines.len(), 10);
        for d in &drained {
            assert_eq!(h.dram().peek(d.line), d.token);
        }
        assert!(h.drain_dirty().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn l2_tag_walk_sees_l1_newest_data() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(2), 5);
        let dirty = h.dirty_l2_lines(VdId(0), |_, _| true);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].token, 5, "walker must see the L1's newer data");
        h.clean_l2_line(VdId(0), LineAddr::new(2));
        assert!(h.dirty_l2_lines(VdId(0), |_, _| true).is_empty());
        assert_eq!(h.dram().peek(LineAddr::new(2)), 5);
    }

    #[test]
    fn llc_tag_walk_filters_by_epoch() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(11), 1);
        // Downgrade to push dirty data into the LLC.
        h.access(CoreId(2), MemOp::Load, addr(11), 0);
        h.advance_epoch(VdId(0));
        h.access(CoreId(0), MemOp::Store, addr(12), 2);
        h.access(CoreId(2), MemOp::Load, addr(12), 0);
        let old = h.dirty_llc_lines(|_, oid| oid < 2);
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].line, LineAddr::new(11));
        h.clean_llc_line(old[0].line);
        assert!(h.dirty_llc_lines(|_, oid| oid < 2).is_empty());
    }

    // ---- Seeded differential walks -----------------------------------
    //
    // Each walk/flush helper is checked against a brute-force scan that
    // probes every L1, L2 and LLC (the pre-directory algorithms), on twin
    // hierarchies driven by the same seeded access stream: same return
    // values, same order, and the same cache/DRAM state afterwards.

    const UNIVERSE: u64 = 400;

    fn diff_cfg(protocol: crate::config::Protocol) -> SimConfig {
        SimConfig::builder()
            .cores(8, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(1_000_000)
            .protocol(protocol)
            .build()
            .unwrap()
    }

    /// Every copy of every line plus the DRAM image and directory.
    fn dump(h: &Hierarchy) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, c) in h.l1s.iter().enumerate() {
            for (l, m) in c.iter() {
                let _ = writeln!(out, "L1[{i}] {l} {m:?}");
            }
        }
        for (i, c) in h.l2s.iter().enumerate() {
            for (l, m) in c.iter() {
                let _ = writeln!(out, "L2[{i}] {l} {m:?}");
            }
        }
        for (i, c) in h.llc.iter().enumerate() {
            for (l, m) in c.iter() {
                let _ = writeln!(out, "LLC[{i}] {l} {m:?}");
            }
        }
        for n in 0..UNIVERSE {
            let l = LineAddr::new(n);
            let _ = writeln!(out, "{l} dram {} dir {:?}", h.dram.peek(l), h.dir.entry(l));
        }
        let _ = writeln!(out, "dram writes {}", h.dram.writes());
        out
    }

    fn scan_clwb(h: &mut Hierarchy, line: LineAddr) -> (Token, bool) {
        let mut token = h.dram.peek(line);
        let mut dirty = false;
        let s = h.slice_of(line);
        if let Some(m) = h.llc[s].peek(line) {
            if m.dirty {
                token = m.token;
                dirty = true;
            }
        }
        for m in h.l2s.iter().filter_map(|c| c.peek(line)) {
            if m.state.is_dirty() {
                token = m.token;
                dirty = true;
            }
        }
        for m in h.l1s.iter().filter_map(|c| c.peek(line)) {
            if m.state.is_dirty() {
                token = m.token;
                dirty = true;
            }
        }
        if let Some(m) = h.llc[s].peek_mut(line) {
            m.dirty = false;
            m.token = token;
        }
        for m in h.l2s.iter_mut().filter_map(|c| c.peek_mut(line)) {
            if m.state.is_dirty() {
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
            }
            m.token = token;
        }
        for m in h.l1s.iter_mut().filter_map(|c| c.peek_mut(line)) {
            if m.state.is_dirty() {
                m.state = MesiState::E;
            }
            m.token = token;
        }
        if dirty {
            h.dram.write(line, token);
        }
        (token, dirty)
    }

    fn scan_dirty_l2(h: &Hierarchy, vd: VdId, max_oid: EpochId) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for (l, m) in h.l2s[vd.index()].iter() {
            let (mut token, mut oid, mut dirty) = (m.token, m.tag, m.state.is_dirty());
            for c in h.local_cores(vd) {
                if let Some(lm) = h.l1s[c as usize].peek(l) {
                    if lm.state.is_dirty() {
                        (token, oid, dirty) = (lm.token, lm.tag, true);
                    }
                }
            }
            if dirty && oid <= max_oid {
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        out
    }

    fn scan_dirty_llc(h: &Hierarchy, max_oid: EpochId) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for slice in &h.llc {
            for (l, m) in slice.iter() {
                if m.dirty && m.tag <= max_oid {
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.tag,
                    });
                }
            }
        }
        out
    }

    fn scan_drain(h: &mut Hierarchy) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for core in 0..h.l1s.len() {
            let vd = core / h.cfg.cores_per_vd as usize;
            for l in h.l1s[core].lines_where(|_, m| m.state.is_dirty()) {
                let m = *h.l1s[core].peek(l).unwrap();
                let l2 = h.l2s[vd].peek_mut(l).unwrap();
                (l2.token, l2.tag, l2.state) = (m.token, m.tag, MesiState::M);
                h.l1s[core].peek_mut(l).unwrap().state = MesiState::E;
            }
        }
        for vd in 0..h.l2s.len() {
            for l in h.l2s[vd].lines_where(|_, m| m.state.is_dirty()) {
                let m = h.l2s[vd].peek_mut(l).unwrap();
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (token, oid) = (m.token, m.tag);
                let s = h.slice_of(l);
                if let Some(c) = h.llc[s].peek_mut(l) {
                    (c.token, c.tag, c.dirty) = (token, oid, false);
                }
                h.dram.write(l, token);
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        for s in 0..h.llc.len() {
            for l in h.llc[s].lines_where(|_, m| m.dirty) {
                let m = h.llc[s].peek_mut(l).unwrap();
                m.dirty = false;
                let (token, oid) = (m.token, m.tag);
                h.dram.write(l, token);
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        out
    }

    fn differential_walks(protocol: crate::config::Protocol, seed: u64) {
        let cfg = diff_cfg(protocol);
        let (mut h, mut twin) = (Hierarchy::new(&cfg), Hierarchy::new(&cfg));
        let mut rng = crate::rng::Rng64::seed_from_u64(seed);
        let mut token = 1;
        let (mut clwb_dirty, mut l2_walked, mut llc_walked) = (0, 0, 0);
        for step in 0..6_000 {
            let core = CoreId(rng.gen_range(0..8u16));
            // A hot shared region plus a cold tail that thrashes the LLC.
            let line = if rng.gen_bool(0.7) {
                rng.gen_range(0..48u64)
            } else {
                rng.gen_range(0..UNIVERSE)
            };
            let op = if rng.gen_bool(0.5) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            token += 1;
            let a = h.access(core, op, addr(line), token);
            assert_eq!(a, twin.access(core, op, addr(line), token));
            match rng.gen_range(0..40u32) {
                0..=3 => {
                    let l = LineAddr::new(rng.gen_range(0..48u64));
                    let got = h.clwb(l);
                    assert_eq!(got, scan_clwb(&mut twin, l), "clwb {l} at step {step}");
                    clwb_dirty += u32::from(got.1);
                }
                4 => {
                    let vd = VdId(rng.gen_range(0..4u16));
                    let max_oid = h.epoch(vd) - rng.gen_range(0..2u64);
                    let got = h.dirty_l2_lines(vd, |_, oid| oid <= max_oid);
                    assert_eq!(got, scan_dirty_l2(&h, vd, max_oid), "step {step}");
                    l2_walked += got.len();
                    for d in got {
                        h.clean_l2_line(vd, d.line);
                        twin.clean_l2_line(vd, d.line);
                    }
                }
                5 => {
                    let max_oid = h.epoch(VdId(0));
                    let got = h.dirty_llc_lines(|_, oid| oid <= max_oid);
                    assert_eq!(got, scan_dirty_llc(&h, max_oid), "step {step}");
                    llc_walked += got.len();
                    for d in got {
                        h.clean_llc_line(d.line);
                        twin.clean_llc_line(d.line);
                    }
                }
                6 => {
                    h.advance_all_epochs();
                    twin.advance_all_epochs();
                }
                _ => {}
            }
            if step % 500 == 0 {
                assert_eq!(dump(&h), dump(&twin), "state diverged at step {step}");
            }
        }
        assert!(
            clwb_dirty > 20 && l2_walked > 20 && llc_walked > 20,
            "walks had work"
        );
        let drained = h.drain_dirty();
        assert!(!drained.is_empty());
        assert_eq!(drained, scan_drain(&mut twin));
        assert_eq!(dump(&h), dump(&twin));
    }

    #[test]
    fn walks_match_brute_force_scans_mesi() {
        for seed in [1, 2, 3] {
            differential_walks(crate::config::Protocol::Mesi, seed);
        }
    }

    #[test]
    fn walks_match_brute_force_scans_moesi() {
        for seed in [1, 2, 3] {
            differential_walks(crate::config::Protocol::Moesi, seed);
        }
    }

    #[test]
    fn many_threads_functional_correctness() {
        // Random-ish mixed traffic across 4 cores; final tokens must match
        // a simple sequential model of the same access order.
        let mut h = Hierarchy::new(&small_cfg());
        let mut model = std::collections::HashMap::new();
        let mut tok = 1u64;
        for i in 0..4000u64 {
            let core = CoreId((i % 4) as u16);
            let line = (i * 7 + i / 13) % 97;
            if i % 3 == 0 {
                h.access(core, MemOp::Load, addr(line), 0);
            } else {
                h.access(core, MemOp::Store, addr(line), tok);
                model.insert(line, tok);
                tok += 1;
            }
        }
        for (line, expect) in model {
            assert_eq!(h.newest_token(LineAddr::new(line)), expect, "line {line}");
        }
    }
}
