//! A complete, non-versioned 3-level MESI hierarchy.
//!
//! This is the cache system the five *baseline* schemes run on: private
//! L1-Ds, one shared inclusive L2 per Versioned Domain (L2 cluster), and a
//! distributed **non-inclusive** LLC with a sparse directory — the
//! organization the paper assumes for modern multicores (§II-D).
//!
//! The hierarchy is purely functional + timing: it knows nothing about
//! persistence. Instead every access returns the latency it took plus a
//! list of [`HierarchyEvent`]s (stores committed, dirty write-backs with
//! their reason, epoch triggers). A scheme in `nvbaselines` interprets the
//! events — generating log writes, flushing write sets, walking tags —
//! and charges any persistence stalls on top.
//!
//! NVOverlay does **not** use this type; its versioned hierarchy (with the
//! modified eviction behaviour of §IV) lives in the `nvoverlay` crate and
//! shares only the low-level building blocks.

use crate::addr::{Addr, CoreId, LineAddr, Token, VdId};
use crate::cache::CacheArray;
use crate::clock::Cycle;
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::memsys::MemOp;
use crate::mesi::{MesiState, Permission};
use crate::noc::{MsgKind, Noc};
use crate::stats::{AccessCounters, EvictReason};
use std::sync::Arc;

/// An epoch number as tracked by the *baseline* hierarchy.
///
/// Baselines use a monotonically increasing 64-bit epoch; the 16-bit
/// wrap-around OID machinery is specific to NVOverlay and lives there.
pub type EpochId = u64;

/// Per-line L1 metadata.
#[derive(Clone, Copy, Debug)]
struct L1Line {
    state: MesiState,
    token: Token,
    /// Epoch of the last store to this line (for first-write detection).
    oid: EpochId,
}

/// Per-line L2 metadata.
#[derive(Clone, Copy, Debug)]
struct L2Line {
    state: MesiState,
    token: Token,
    oid: EpochId,
}

/// Per-line LLC metadata (non-inclusive victim cache).
#[derive(Clone, Copy, Debug)]
struct LlcLine {
    dirty: bool,
    token: Token,
    oid: EpochId,
}

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

/// The baseline MESI hierarchy.
pub struct Hierarchy {
    cfg: Arc<SimConfig>,
    l1s: Vec<CacheArray<L1Line>>,
    l2s: Vec<CacheArray<L2Line>>,
    llc: Vec<CacheArray<LlcLine>>,
    dir: crate::directory::Directory,
    noc: Noc,
    dram: Dram,
    vd_epoch: Vec<EpochId>,
    store_counts: Vec<u64>,
    counters: AccessCounters,
    events: Vec<HierarchyEvent>,
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
        cfg.validate().expect("invalid SimConfig");
        let vds = cfg.vd_count() as usize;
        let slices = cfg.llc_slices as u64;
        let slice_sets = cfg.llc_slice_bytes() / (crate::addr::LINE_BYTES * cfg.llc.ways as u64);
        Self {
            l1s: (0..cfg.cores as usize)
                .map(|_| CacheArray::from_params(&cfg.l1))
                .collect(),
            l2s: (0..vds).map(|_| CacheArray::from_params(&cfg.l2)).collect(),
            llc: (0..slices)
                .map(|_| CacheArray::with_stride(slice_sets, cfg.llc.ways, slices))
                .collect(),
            dir: crate::directory::Directory::new(),
            noc: Noc::new(cfg.noc_hop_latency),
            dram: Dram::new(cfg.dram_latency, cfg.dram_oid_superblock_lines),
            vd_epoch: vec![1; vds],
            store_counts: vec![0; vds],
            counters: AccessCounters::default(),
            events: Vec::new(),
            cfg,
        }
    }

    /// The shared configuration handle (for constructing sibling
    /// components without another clone).
    pub fn config_shared(&self) -> &Arc<SimConfig> {
        &self.cfg
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The VD a core belongs to.
    pub fn vd_of(&self, core: CoreId) -> VdId {
        VdId(core.0 / self.cfg.cores_per_vd)
    }

    fn slice_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.cfg.llc_slices as u64) as usize
    }

    fn local_cores(&self, vd: VdId) -> std::ops::Range<u16> {
        let base = vd.0 * self.cfg.cores_per_vd;
        base..base + self.cfg.cores_per_vd
    }

    /// Current epoch of a VD.
    pub fn epoch(&self, vd: VdId) -> EpochId {
        self.vd_epoch[vd.index()]
    }

    /// Advances one VD's epoch and resets its store budget.
    pub fn advance_epoch(&mut self, vd: VdId) {
        self.debug_validate();
        self.vd_epoch[vd.index()] += 1;
        self.store_counts[vd.index()] = 0;
    }

    /// Advances all VDs to a common next epoch (global-epoch schemes).
    pub fn advance_all_epochs(&mut self) {
        self.debug_validate();
        let next = self.vd_epoch.iter().copied().max().unwrap_or(0) + 1;
        for e in &mut self.vd_epoch {
            *e = next;
        }
        for c in &mut self.store_counts {
            *c = 0;
        }
    }

    /// Access counters (hits per level, etc.).
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The NoC model (for traffic reports).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// The DRAM working memory.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to the DRAM working memory.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Events produced by the most recent [`Hierarchy::access`].
    pub fn events(&self) -> &[HierarchyEvent] {
        &self.events
    }

    /// Performs one access and returns `(latency, value)` — the value
    /// loaded (for loads) or stored (for stores), letting callers verify
    /// read coherence end-to-end. Inspect [`Hierarchy::events`]
    /// afterwards for persistence-relevant events.
    pub fn access(&mut self, core: CoreId, op: MemOp, addr: Addr, token: Token) -> (Cycle, Token) {
        self.events.clear();
        let line = addr.line();
        let vd = self.vd_of(core);
        let perm = match op {
            MemOp::Load => Permission::Read,
            MemOp::Store => Permission::Write,
        };
        match op {
            MemOp::Load => self.counters.loads += 1,
            MemOp::Store => self.counters.stores += 1,
        }

        let mut lat = self.cfg.l1.latency;

        if self.cfg.replay_fast_path {
            // L1 hit with sufficient permission: single-probe fast path.
            // The one `get_mut` probe both classifies the hit and yields
            // the mutable slot a store needs — the reference path probes
            // twice (`get` + `commit_store`'s `peek_mut`). Everything
            // observable (counters, LRU promotion, events, store budget)
            // is identical to the reference path below.
            let epoch = self.vd_epoch[vd.index()];
            if let Some(l) = self.l1s[core.index()].get_mut(line) {
                if perm.satisfied_by(l.state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Store {
                        debug_assert!(l.state.is_writable(), "store commit requires M/E");
                        let old_token = l.token;
                        let old_oid = l.oid;
                        l.token = token;
                        l.oid = epoch;
                        l.state = MesiState::M;
                        self.events.push(HierarchyEvent::StoreCommitted {
                            line,
                            old_token,
                            old_oid,
                            new_oid: epoch,
                            first_in_epoch: old_oid != epoch,
                        });
                        let sc = &mut self.store_counts[vd.index()];
                        *sc += 1;
                        if *sc >= self.cfg.epoch_size_stores {
                            *sc = 0;
                            self.events.push(HierarchyEvent::EpochTrigger { vd });
                        }
                        return (lat, token);
                    }
                    return (lat, l.token);
                }
            }
        } else {
            // Reference path: L1 hit with sufficient permission.
            let l1_hit = self.l1s[core.index()].get(line).map(|l| (l.state, l.token));
            if let Some((state, value)) = l1_hit {
                if perm.satisfied_by(state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Store {
                        self.commit_store(core, vd, line, token);
                        return (lat, token);
                    }
                    return (lat, value);
                }
            }
        }

        // L1 miss (or upgrade). Go to the L2.
        lat += self.cfg.l2.latency;
        lat += self.ensure_l2(vd, line, perm);

        // Intra-VD: resolve sibling L1 copies. After a load-resolve,
        // siblings retain S copies: the new fill must then also be S
        // (granting E beside a live sharer would let a later store skip
        // the sibling invalidation).
        let (sib_lat, sibling_retains) = self.resolve_sibling_l1s(core, vd, line, op);
        lat += sib_lat;

        // Fill or upgrade the L1.
        let l2_meta = *self.l2s[vd.index()]
            .peek(line)
            .expect("L2 must hold the line after ensure_l2 (inclusion)");
        let fill_state = match op {
            MemOp::Load if sibling_retains => MesiState::S,
            MemOp::Load => match l2_meta.state {
                MesiState::M | MesiState::E => MesiState::E,
                // The L2 keeps the dirty Owned copy; L1s read it Shared.
                MesiState::S | MesiState::O => MesiState::S,
                MesiState::I => unreachable!("ensure_l2 grants at least S"),
            },
            MemOp::Store => MesiState::E,
        };
        // Fill and (for stores) retire in one pass: the commit mutates the
        // line the fill just placed, so no second probe is needed. Commit
        // effects and the victim writeback touch different lines and
        // disjoint event streams, so applying the commit to the stack copy
        // before the insert is observationally identical to the reference
        // fill-then-commit sequence.
        let epoch = self.vd_epoch[vd.index()];
        match self.l1s[core.index()].peek_mut(line) {
            Some(l) => {
                l.state = fill_state;
                l.token = l2_meta.token;
                l.oid = l2_meta.oid;
                if op == MemOp::Store {
                    Self::commit_store_line(
                        l,
                        vd,
                        line,
                        token,
                        epoch,
                        self.cfg.epoch_size_stores,
                        &mut self.store_counts[vd.index()],
                        &mut self.events,
                    );
                }
            }
            None => {
                let mut meta = L1Line {
                    state: fill_state,
                    token: l2_meta.token,
                    oid: l2_meta.oid,
                };
                if op == MemOp::Store {
                    Self::commit_store_line(
                        &mut meta,
                        vd,
                        line,
                        token,
                        epoch,
                        self.cfg.epoch_size_stores,
                        &mut self.store_counts[vd.index()],
                        &mut self.events,
                    );
                }
                let victim = self.l1s[core.index()].insert(line, meta);
                if let Some((vline, vmeta)) = victim {
                    self.l1_writeback(vd, vline, vmeta);
                }
            }
        }

        if op == MemOp::Store {
            return (lat, token);
        }
        (lat, l2_meta.token)
    }

    /// Retires a store into an L1 line that already has write permission.
    fn commit_store(&mut self, core: CoreId, vd: VdId, line: LineAddr, token: Token) {
        let epoch = self.vd_epoch[vd.index()];
        let l = self.l1s[core.index()]
            .peek_mut(line)
            .expect("store commit requires a resident L1 line");
        Self::commit_store_line(
            l,
            vd,
            line,
            token,
            epoch,
            self.cfg.epoch_size_stores,
            &mut self.store_counts[vd.index()],
            &mut self.events,
        );
    }

    /// The store-retire body, operating on an already-located L1 slot so
    /// callers holding the line's `&mut` (the fill path) commit without a
    /// second probe. Borrows only fields disjoint from the L1 arrays.
    #[allow(clippy::too_many_arguments)]
    fn commit_store_line(
        l: &mut L1Line,
        vd: VdId,
        line: LineAddr,
        token: Token,
        epoch: EpochId,
        epoch_size_stores: u64,
        sc: &mut u64,
        events: &mut Vec<HierarchyEvent>,
    ) {
        debug_assert!(l.state.is_writable(), "store commit requires M/E");
        let old_token = l.token;
        let old_oid = l.oid;
        l.token = token;
        l.oid = epoch;
        l.state = MesiState::M;
        events.push(HierarchyEvent::StoreCommitted {
            line,
            old_token,
            old_oid,
            new_oid: epoch,
            first_in_epoch: old_oid != epoch,
        });
        *sc += 1;
        if *sc >= epoch_size_stores {
            *sc = 0;
            events.push(HierarchyEvent::EpochTrigger { vd });
        }
    }

    /// Handles a dirty/clean line evicted from an L1: fold it into the L2
    /// (which must hold the line, by inclusion).
    fn l1_writeback(&mut self, vd: VdId, line: LineAddr, meta: L1Line) {
        if meta.state.is_dirty() {
            let l2 = self.l2s[vd.index()]
                .peek_mut(line)
                .expect("inclusion: L2 must hold every L1 line");
            l2.token = meta.token;
            l2.oid = meta.oid;
            l2.state = MesiState::M;
        }
    }

    /// Invalidates or downgrades sibling L1 copies within the VD, folding
    /// dirty data into the L2. Returns extra latency plus whether any
    /// sibling retains a (Shared) copy afterwards — loads downgrade
    /// siblings in place, stores invalidate them.
    fn resolve_sibling_l1s(
        &mut self,
        core: CoreId,
        vd: VdId,
        line: LineAddr,
        op: MemOp,
    ) -> (Cycle, bool) {
        let mut lat = 0;
        let mut retains = false;
        for c in self.local_cores(vd) {
            if c == core.0 {
                continue;
            }
            let ci = c as usize;
            match op {
                MemOp::Store => {
                    let Some(meta) = self.l1s[ci].remove(line) else {
                        continue;
                    };
                    lat += self.cfg.l1.latency;
                    self.l1_writeback(vd, line, meta);
                }
                MemOp::Load => {
                    let Some(l) = self.l1s[ci].peek_mut(line) else {
                        continue;
                    };
                    lat += self.cfg.l1.latency;
                    retains = true;
                    let meta = *l;
                    if meta.state.is_dirty() {
                        self.l1_writeback(vd, line, meta);
                        let l = self.l1s[ci].peek_mut(line).expect("probed present");
                        l.state = MesiState::S;
                    } else {
                        l.state = MesiState::S;
                    }
                }
            }
        }
        (lat, retains)
    }

    /// Ensures the VD's L2 holds `line` with permission `perm`. Returns
    /// extra latency beyond the L2 lookup already charged.
    fn ensure_l2(&mut self, vd: VdId, line: LineAddr, perm: Permission) -> Cycle {
        if let Some(l2) = self.l2s[vd.index()].get(line) {
            if perm.satisfied_by(l2.state) {
                self.counters.l2_hits += 1;
                return 0;
            }
        }
        // Inter-VD transaction through the directory at the LLC.
        let mut lat = self.cfg.llc.latency;
        lat += match perm {
            Permission::Read => self.noc.send(MsgKind::GetS),
            Permission::Write => self.noc.send(MsgKind::GetX),
        };

        let (token, oid, state, got_dirty_data) = match perm {
            Permission::Write => self.dir_getx(vd, line, &mut lat),
            Permission::Read => self.dir_gets(vd, line, &mut lat),
        };

        // Install into the L2 (upgrade in place or fill).
        match self.l2s[vd.index()].peek_mut(line) {
            Some(l) => {
                l.state = state;
                if got_dirty_data {
                    l.token = token;
                    l.oid = oid;
                }
            }
            None => {
                let victim = self.l2s[vd.index()].insert(line, L2Line { state, token, oid });
                if let Some((vline, vmeta)) = victim {
                    self.evict_l2_line(vd, vline, vmeta, EvictReason::CapacityMiss);
                }
            }
        }
        lat
    }

    /// Directory GETX: acquire exclusive ownership for `vd`.
    /// Returns (token, oid, new L2 state, whether data is dirty w.r.t. memory).
    fn dir_getx(
        &mut self,
        vd: VdId,
        line: LineAddr,
        lat: &mut Cycle,
    ) -> (Token, EpochId, MesiState, bool) {
        let entry = self.dir.entry(line).copied();
        if let Some(e) = entry {
            if let Some(owner) = e.owner() {
                if owner != vd.0 {
                    // Forward invalidation to the owner; data moves
                    // cache-to-cache (ownership transfer, no LLC write).
                    // Under MOESI the Owned line may have plain sharers
                    // too — invalidate them alongside.
                    for sh in e.sharers_except(vd.0) {
                        if sh == owner {
                            continue;
                        }
                        *lat += self.noc.send(MsgKind::FwdGetX);
                        self.noc.send(MsgKind::InvAck);
                        self.invalidate_vd_clean(VdId(sh), line);
                        self.dir.remove_node(line, sh);
                    }
                    *lat += self.noc.send(MsgKind::FwdGetX);
                    *lat += self.cfg.l2.latency;
                    let (token, oid, dirty) = self.strip_vd(VdId(owner), line);
                    *lat += self.noc.send(MsgKind::CacheToCache);
                    self.dir.remove_node(line, owner);
                    self.dir.set_owner(line, vd.0);
                    // Drop any LLC copy. It can be dirty: a sole-fetcher
                    // GETS leaves a dirty LLC line behind while granting E,
                    // and the E owner may have silently upgraded to M. The
                    // requester's copy must then stay dirty w.r.t. memory.
                    let s = self.slice_of(line);
                    let llc_dirty = self.llc[s].remove(line).is_some_and(|m| m.dirty);
                    return (token, oid, MesiState::M, dirty || llc_dirty);
                }
                // We already own it. Under MOESI this is the O→M upgrade:
                // invalidate the other sharers, then write freely.
                for sh in e.sharers_except(vd.0) {
                    *lat += self.noc.send(MsgKind::FwdGetX);
                    self.noc.send(MsgKind::InvAck);
                    self.invalidate_vd_clean(VdId(sh), line);
                    self.dir.remove_node(line, sh);
                }
                self.dir.set_owner(line, vd.0);
                let l2 = self.l2s[vd.index()].peek(line).expect("owner holds line");
                let dirty = l2.state.is_dirty();
                let st = if dirty { MesiState::M } else { MesiState::E };
                return (l2.token, l2.oid, st, dirty);
            }
            // Shared: invalidate every other sharer (clean by MESI).
            for s in e.sharers_except(vd.0) {
                *lat += self.noc.send(MsgKind::FwdGetX);
                self.noc.send(MsgKind::InvAck);
                self.invalidate_vd_clean(VdId(s), line);
                self.dir.remove_node(line, s);
            }
            // Data source: our own S copy, the LLC, or DRAM.
            let own = self.l2s[vd.index()].peek(line).copied();
            let s = self.slice_of(line);
            let llc_copy = self.llc[s].remove(line);
            let (token, oid, dirty) = if let Some(c) = llc_copy {
                self.counters.llc_hits += 1;
                (c.token, c.oid, c.dirty)
            } else if let Some(o) = own {
                (o.token, o.oid, false)
            } else {
                *lat += self.dram.latency();
                self.counters.mem_fetches += 1;
                let t = self.dram.read(line);
                let oid = self.dram.oid(line).map(u64::from).unwrap_or(0);
                (t, oid, false)
            };
            self.dir.remove_node(line, vd.0); // clear own S membership
            self.dir.set_owner(line, vd.0);
            let st = if dirty { MesiState::M } else { MesiState::E };
            return (token, oid, st, dirty);
        }
        // Nobody caches it: LLC then DRAM.
        let s = self.slice_of(line);
        let llc_copy = self.llc[s].remove(line);
        let (token, oid, dirty) = if let Some(c) = llc_copy {
            self.counters.llc_hits += 1;
            (c.token, c.oid, c.dirty)
        } else {
            *lat += self.dram.latency();
            self.counters.mem_fetches += 1;
            let t = self.dram.read(line);
            let oid = self.dram.oid(line).map(u64::from).unwrap_or(0);
            (t, oid, false)
        };
        self.dir.set_owner(line, vd.0);
        let st = if dirty { MesiState::M } else { MesiState::E };
        (token, oid, st, dirty)
    }

    /// Directory GETS: acquire a readable copy for `vd`.
    fn dir_gets(
        &mut self,
        vd: VdId,
        line: LineAddr,
        lat: &mut Cycle,
    ) -> (Token, EpochId, MesiState, bool) {
        let entry = self.dir.entry(line).copied();
        if let Some(e) = entry {
            if let Some(owner) = e.owner() {
                debug_assert_ne!(owner, vd.0, "self-owned lines hit in ensure_l2");
                *lat += self.noc.send(MsgKind::FwdGetS);
                *lat += self.cfg.l2.latency;
                if self.cfg.protocol == crate::config::Protocol::Moesi {
                    // MOESI: the owner keeps its dirty data Owned in place
                    // and supplies it cache-to-cache — no LLC write, no
                    // write-back event.
                    let (token, oid) = self.downgrade_vd_moesi(VdId(owner), line);
                    *lat += self.noc.send(MsgKind::CacheToCache);
                    self.dir.add_sharer_keep_owner(line, vd.0);
                    return (token, oid, MesiState::S, false);
                }
                // MESI: forward downgrade; dirty data is written to the LLC.
                let (token, oid, dirty) = self.downgrade_vd(VdId(owner), line);
                *lat += self.noc.send(MsgKind::Data);
                if dirty {
                    self.llc_install(
                        line,
                        LlcLine {
                            dirty: true,
                            token,
                            oid,
                        },
                        EvictReason::CapacityMiss,
                    );
                    self.events.push(HierarchyEvent::L2Writeback {
                        vd: VdId(owner),
                        line,
                        token,
                        oid,
                        reason: EvictReason::CoherenceDowngrade,
                    });
                }
                self.dir.downgrade_owner(line);
                self.dir.add_sharer(line, vd.0);
                return (token, oid, MesiState::S, false);
            }
            // Shared already: LLC or DRAM supplies data.
            let s = self.slice_of(line);
            let (token, oid) = if let Some(c) = self.llc[s].get(line) {
                self.counters.llc_hits += 1;
                (c.token, c.oid)
            } else {
                *lat += self.dram.latency();
                self.counters.mem_fetches += 1;
                let t = self.dram.read(line);
                let oid = self.dram.oid(line).map(u64::from).unwrap_or(0);
                (t, oid)
            };
            self.dir.add_sharer(line, vd.0);
            return (token, oid, MesiState::S, false);
        }
        // Sole fetcher gets Exclusive (MESI).
        let s = self.slice_of(line);
        let (token, oid, dirty) = if let Some(c) = self.llc[s].get(line) {
            self.counters.llc_hits += 1;
            (c.token, c.oid, c.dirty)
        } else {
            *lat += self.dram.latency();
            self.counters.mem_fetches += 1;
            let t = self.dram.read(line);
            let oid = self.dram.oid(line).map(u64::from).unwrap_or(0);
            (t, oid, false)
        };
        self.dir.set_owner(line, vd.0);
        // A dirty LLC copy stays in the LLC (it still backs memory); the
        // fetcher's copy is clean-exclusive relative to the LLC.
        let _ = dirty;
        (token, oid, MesiState::E, false)
    }

    /// Removes all copies of `line` from `vd` (L1s + L2), returning the
    /// newest token/oid and whether it was dirty.
    fn strip_vd(&mut self, vd: VdId, line: LineAddr) -> (Token, EpochId, bool) {
        let l2meta = self.l2s[vd.index()]
            .remove(line)
            .expect("directory says the VD caches the line");
        let mut token = l2meta.token;
        let mut oid = l2meta.oid;
        let mut dirty = l2meta.state.is_dirty();
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                if m.state.is_dirty() {
                    token = m.token;
                    oid = m.oid;
                    dirty = true;
                }
            }
        }
        (token, oid, dirty)
    }

    /// Downgrades all copies of `line` in `vd` to S, returning the newest
    /// token/oid and whether any copy was dirty.
    fn downgrade_vd(&mut self, vd: VdId, line: LineAddr) -> (Token, EpochId, bool) {
        let mut token;
        let mut oid;
        let mut dirty;
        {
            let l2 = self.l2s[vd.index()]
                .peek_mut(line)
                .expect("directory says the VD caches the line");
            token = l2.token;
            oid = l2.oid;
            dirty = l2.state.is_dirty();
            l2.state = MesiState::S;
        }
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() {
                    token = m.token;
                    oid = m.oid;
                    dirty = true;
                }
                m.state = MesiState::S;
            }
        }
        if dirty {
            // Fold the newest data into the L2 copy (now S, clean: the
            // data is about to be deposited in the LLC).
            let l2 = self.l2s[vd.index()].peek_mut(line).expect("still resident");
            l2.token = token;
            l2.oid = oid;
        }
        (token, oid, dirty)
    }

    /// MOESI downgrade: folds the newest data into the L2 as Owned (the
    /// owner keeps write-back responsibility); L1 copies drop to S.
    /// Returns the newest token/oid.
    fn downgrade_vd_moesi(&mut self, vd: VdId, line: LineAddr) -> (Token, EpochId) {
        let (mut token, mut oid);
        {
            let l2 = self.l2s[vd.index()]
                .peek_mut(line)
                .expect("directory says the VD caches the line");
            token = l2.token;
            oid = l2.oid;
        }
        let mut dirty = false;
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() {
                    token = m.token;
                    oid = m.oid;
                    dirty = true;
                }
                m.state = MesiState::S;
                m.token = token;
            }
        }
        let l2 = self.l2s[vd.index()].peek_mut(line).expect("resident");
        if dirty || l2.state.is_dirty() {
            l2.state = MesiState::O;
        } else {
            l2.state = MesiState::S;
        }
        l2.token = token;
        l2.oid = oid;
        (token, oid)
    }

    /// Invalidates a clean shared copy in `vd`.
    fn invalidate_vd_clean(&mut self, vd: VdId, line: LineAddr) {
        self.l2s[vd.index()].remove(line);
        for c in self.local_cores(vd) {
            self.l1s[c as usize].remove(line);
        }
    }

    /// Evicts a line from an L2 (with inclusion handling) into the LLC.
    fn evict_l2_line(&mut self, vd: VdId, line: LineAddr, meta: L2Line, reason: EvictReason) {
        let mut token = meta.token;
        let mut oid = meta.oid;
        let mut dirty = meta.state.is_dirty();
        // Inclusion: pull back (and invalidate) any L1 copies.
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                if m.state.is_dirty() {
                    token = m.token;
                    oid = m.oid;
                    dirty = true;
                }
            }
        }
        self.dir.remove_node(line, vd.0);
        self.noc.send(MsgKind::PutX);
        self.llc_install(line, LlcLine { dirty, token, oid }, reason);
        if dirty {
            self.events.push(HierarchyEvent::L2Writeback {
                vd,
                line,
                token,
                oid,
                reason,
            });
        }
    }

    /// Installs (or refreshes) a line in its LLC slice; handles the LLC
    /// victim, writing dirty victims to DRAM.
    fn llc_install(&mut self, line: LineAddr, meta: LlcLine, victim_reason: EvictReason) {
        let s = self.slice_of(line);
        if let Some(existing) = self.llc[s].peek_mut(line) {
            if meta.dirty {
                *existing = meta;
            }
            return;
        }
        if let Some((vline, vmeta)) = self.llc[s].insert(line, meta) {
            if vmeta.dirty {
                self.dram.write(vline, vmeta.token);
                self.events.push(HierarchyEvent::LlcWriteback {
                    line: vline,
                    token: vmeta.token,
                    oid: vmeta.oid,
                    reason: victim_reason,
                });
            }
        }
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
                if m.dirty && pred(l, m.oid) {
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.oid,
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
                    l1_dirty.push((slot, m.token, m.oid));
                }
            }
        }
        // Stable: within one slot the cores stay ascending, last one wins.
        l1_dirty.sort_by_key(|&(slot, _, _)| slot);
        let mut l1_dirty = l1_dirty.into_iter().peekable();
        let mut out = Vec::new();
        for (slot, l, m) in l2.iter_slots() {
            let mut token = m.token;
            let mut oid = m.oid;
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
                newest = Some((m.token, m.oid));
            }
        }
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() {
                    m.state = MesiState::E;
                    newest = Some((m.token, m.oid));
                }
            }
        }
        if let Some((t, oid)) = newest {
            // Fold newest into L2 so later evictions stay consistent.
            if let Some(m) = self.l2s[vd.index()].peek_mut(line) {
                m.token = t;
                m.oid = oid;
            }
            let s = self.slice_of(line);
            if let Some(m) = self.llc[s].peek_mut(line) {
                m.token = t;
                m.oid = oid;
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
        // (checked by `assert_directory_exact`), and L1s are inclusive in
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
        let mut out: Vec<DirtyLine> = Vec::new();
        let cores_per_vd = self.cfg.cores_per_vd as usize;
        let slices = self.cfg.llc_slices as u64;
        // L1 dirty lines fold into L2s first.
        for (core, l1) in self.l1s.iter_mut().enumerate() {
            let l2 = &mut self.l2s[core / cores_per_vd];
            for (l, m) in l1.iter_mut() {
                if m.state.is_dirty() {
                    let l2m = l2
                        .peek_mut(l)
                        .expect("inclusion: L2 must hold every L1 line");
                    l2m.token = m.token;
                    l2m.oid = m.oid;
                    l2m.state = MesiState::M;
                    m.state = MesiState::E;
                }
            }
        }
        // L2 dirty lines. Any LLC copy of the same line is reconciled:
        // the owning VD's data is authoritative (a stale dirty LLC copy
        // can survive an E-grant fetch that was silently upgraded).
        for l2 in &mut self.l2s {
            for (l, m) in l2.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.oid);
                if let Some(c) = self.llc[(l.raw() % slices) as usize].peek_mut(l) {
                    c.token = t;
                    c.oid = oid;
                    c.dirty = false;
                }
                self.dram.write(l, t);
                out.push(DirtyLine {
                    line: l,
                    token: t,
                    oid,
                });
            }
        }
        // Remaining LLC dirty lines.
        for slice in &mut self.llc {
            for (l, m) in slice.iter_mut() {
                if m.dirty {
                    m.dirty = false;
                    self.dram.write(l, m.token);
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.oid,
                    });
                }
            }
        }
        out
    }

    /// Checks the two facts the directory-guided flush relies on, in
    /// O(cache contents): the directory's sharers of a line are exactly
    /// the VDs whose L2 holds it, and every L1 copy sits in its own VD's
    /// L2 (inclusion).
    ///
    /// # Panics
    /// On the first violation, with the line's full state.
    pub fn assert_directory_exact(&self) {
        for (vd, l2) in self.l2s.iter().enumerate() {
            for (l, _) in l2.iter() {
                assert!(
                    self.dir.entry(l).is_some_and(|e| e.is_sharer(vd as u16)),
                    "L2[{vd}] holds {l} but the directory does not list VD {vd}: {}",
                    self.debug_line_state(l)
                );
            }
        }
        for (l, e) in self.dir.iter() {
            for vd in e.sharers() {
                assert!(
                    self.l2s[vd as usize].contains(l),
                    "the directory lists VD {vd} for {l} but its L2 does not hold it: {}",
                    self.debug_line_state(l)
                );
            }
        }
        for (core, l1) in self.l1s.iter().enumerate() {
            let vd = core / self.cfg.cores_per_vd as usize;
            for (l, _) in l1.iter() {
                assert!(
                    self.l2s[vd].contains(l),
                    "inclusion: L1[{core}] holds {l} outside L2[{vd}]: {}",
                    self.debug_line_state(l)
                );
            }
        }
    }

    /// Runs [`Hierarchy::assert_directory_exact`] at epoch boundaries and
    /// before the final drain in builds with `debug_assertions` (every
    /// `cargo test`); compiles to nothing in release builds.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        self.assert_directory_exact();
    }

    /// Debug: human-readable state of every copy of `line`.
    pub fn debug_line_state(&self, line: LineAddr) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            if let Some(m) = l1.peek(line) {
                let _ = write!(out, "L1[{}]:{}/e{}/t{} ", i, m.state, m.oid, m.token);
            }
        }
        for (i, l2) in self.l2s.iter().enumerate() {
            if let Some(m) = l2.peek(line) {
                let _ = write!(out, "L2[{}]:{}/e{}/t{} ", i, m.state, m.oid, m.token);
            }
        }
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek(line) {
            let _ = write!(
                out,
                "LLC:{}/e{}/t{} ",
                if m.dirty { "D" } else { "C" },
                m.oid,
                m.token
            );
        }
        if let Some(e) = self.dir.entry(line) {
            let _ = write!(
                out,
                "dir[own={:?},sh={:?}] ",
                e.owner(),
                e.sharers().collect::<Vec<_>>()
            );
        }
        let _ = write!(out, "dram:t{}", self.dram.peek(line));
        out
    }

    /// The newest visible content of a line anywhere in the system
    /// (verification helper).
    pub fn newest_token(&self, line: LineAddr) -> Token {
        for l1 in &self.l1s {
            if let Some(m) = l1.peek(line) {
                if m.state.is_dirty() {
                    return m.token;
                }
            }
        }
        for l2 in &self.l2s {
            if let Some(m) = l2.peek(line) {
                if m.state.is_dirty() {
                    return m.token;
                }
            }
        }
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek(line) {
            if m.dirty {
                return m.token;
            }
        }
        // Clean copies equal memory.
        self.dram.peek(line)
    }

    /// Installs a cross-island line at its DRAM home during a sharded
    /// replay barrier (see [`crate::shard`]). Returns `true` if the
    /// token was written. If any cache level still holds the line, the
    /// island's own copy is authoritative and the import is skipped —
    /// keeping the island's coherence lattice untouched is what lets
    /// each island evolve exactly as its local trace dictates.
    pub fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        if self.l1s.iter().any(|c| c.peek(line).is_some())
            || self.l2s.iter().any(|c| c.peek(line).is_some())
            || self.llc[self.slice_of(line)].peek(line).is_some()
        {
            return false;
        }
        self.dram.write(line, token);
        true
    }

    /// Batched [`Hierarchy::import_line`] over one window's sorted
    /// exchange run: one pass, own-island entries skipped inline,
    /// applied deposits mirrored into `golden`. Amortizes the per-line
    /// call dispatch of the sharded barrier's import phase.
    pub fn import_lines(
        &mut self,
        entries: &[crate::shard::ExchangeEntry],
        island: u16,
        golden: &mut crate::fastmap::FastMap<LineAddr, Token>,
    ) -> u64 {
        let mut applied = 0;
        for e in entries {
            if e.src == island {
                continue;
            }
            if self.l1s.iter().any(|c| c.peek(e.line).is_some())
                || self.l2s.iter().any(|c| c.peek(e.line).is_some())
                || self.llc[self.slice_of(e.line)].peek(e.line).is_some()
            {
                continue;
            }
            self.dram.write(e.line, e.token);
            golden.insert(e.line, e.token);
            applied += 1;
        }
        applied
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
            let (mut token, mut oid, mut dirty) = (m.token, m.oid, m.state.is_dirty());
            for c in h.local_cores(vd) {
                if let Some(lm) = h.l1s[c as usize].peek(l) {
                    if lm.state.is_dirty() {
                        (token, oid, dirty) = (lm.token, lm.oid, true);
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
                if m.dirty && m.oid <= max_oid {
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.oid,
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
                (l2.token, l2.oid, l2.state) = (m.token, m.oid, MesiState::M);
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
                let (token, oid) = (m.token, m.oid);
                let s = h.slice_of(l);
                if let Some(c) = h.llc[s].peek_mut(l) {
                    (c.token, c.oid, c.dirty) = (token, oid, false);
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
                let (token, oid) = (m.token, m.oid);
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
