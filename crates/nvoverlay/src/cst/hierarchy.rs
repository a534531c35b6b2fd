//! The version-tagged cache hierarchy — NVOverlay's modified access
//! protocol (paper §IV).
//!
//! Structurally identical to `nvsim`'s baseline hierarchy (private L1s,
//! per-VD inclusive L2s, distributed non-inclusive LLC slices, sparse
//! directory), but every L1/L2 line carries an OID tag and a *persisted*
//! bit, and the eviction paths implement the Version Access Protocol:
//!
//! * **Store-eviction** (§IV-A1): a store hitting a dirty, unpersisted
//!   version of an older epoch first pushes that version into the L2, then
//!   completes in place under the current epoch.
//! * **Version PUTX** (§IV-A2): when an L1 version lands on an older dirty
//!   L2 version, the L2 version is evicted to the OMC first.
//! * **External downgrade** (§IV-A3, Fig 5): the newest version is
//!   deposited in the LLC and persisted; an older L2 version goes to the
//!   OMC *only* (it is not the current memory image — optimization 1).
//! * **External invalidation** (§IV-A3, Fig 6): the newest version moves
//!   cache-to-cache to the requestor without touching LLC or OMC
//!   (optimization 2); its persistence obligation travels with it. Older
//!   versions go to the OMC.
//! * **Epoch synchronization** (§IV-B2): every response carries the line's
//!   OID as its RV; a VD observing an RV newer than its epoch stalls,
//!   dumps context, and advances (Lamport clock).
//! * **Tag walker** (§IV-C): persists dirty versions older than the VD's
//!   current epoch and reports `min-ver` to the OMC.
//! * **Wrap-around** (§IV-D): when a VD's epoch crosses between the two
//!   16-bit groups, lines still tagged in the newly-entered group are
//!   flushed out of the hierarchy before the tags are recycled, and DRAM
//!   tags of that group are scrubbed.
//!
//! ### Modeling notes
//!
//! The hardware encodes "this version has reached the OMC" as the M→E
//! downgrade performed by the tag walker. We track the same fact in an
//! explicit `persisted` bit and keep the MESI dirty bit for the DRAM
//! working-copy chain; the two encodings are behaviourally equivalent and
//! the bit keeps the DRAM image exact in simulation.
//!
//! The hierarchy is *mechanism only*: versions leaving a VD surface as
//! [`CstEvent::Version`] events / return values; `NvOverlaySystem` routes
//! them to the MNM backend and charges NVM time.

use crate::epoch::{Epoch, HALF_SPACE};
use nvsim::addr::{Addr, CoreId, LineAddr, Token, VdId};
use nvsim::cache::CacheArray;
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::directory::Directory;
use nvsim::dram::Dram;
use nvsim::memsys::MemOp;
use nvsim::mesi::{MesiState, Permission};
use nvsim::noc::{MsgKind, Noc};
use nvsim::stats::{AccessCounters, EvictReason};
use std::sync::Arc;

/// CST-specific tuning knobs on top of [`SimConfig`].
#[derive(Clone, Debug)]
pub struct CstConfig {
    /// Cycles a VD's cores stall to drain queues at an epoch advance.
    pub epoch_advance_stall: Cycle,
    /// Bytes of processor context dumped per core at an epoch advance.
    pub context_bytes_per_core: u64,
    /// Absolute epoch the system starts in (useful to exercise 16-bit
    /// wrap-around in tests; clamped to at least 1).
    pub initial_epoch: u64,
}

impl Default for CstConfig {
    fn default() -> Self {
        Self {
            epoch_advance_stall: 30,
            context_bytes_per_core: 256,
            initial_epoch: 1,
        }
    }
}

/// A dirty version leaving its Versioned Domain, bound for the OMC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionOut {
    /// The line.
    pub line: LineAddr,
    /// The version's content.
    pub token: Token,
    /// Absolute epoch of the version (reconstructed from the 16-bit tag).
    pub abs_epoch: u64,
    /// Why it left.
    pub reason: EvictReason,
}

/// What caused an epoch advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceCause {
    /// The per-VD store budget was exhausted.
    StoreBudget,
    /// A coherence response carried a newer epoch (Lamport sync).
    CoherenceSync,
    /// The workload requested a boundary (`TraceEvent::EpochMark`).
    ExplicitMark,
    /// Final drain at the end of a run.
    Finish,
}

/// Events produced by an access (drained by the system each access).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CstEvent {
    /// A version left a VD and must be persisted by the OMC.
    Version(VersionOut),
    /// A VD advanced its epoch. The system dumps core contexts.
    EpochAdvanced {
        /// The VD that advanced.
        vd: VdId,
        /// Epoch before.
        from_abs: u64,
        /// Epoch after.
        to_abs: u64,
        /// Why.
        cause: AdvanceCause,
    },
    /// An *unpersisted* version moved cache-to-cache into `vd`
    /// (optimization 2): the receiving L2 controller refreshes its
    /// `min-ver` at the OMC with the version's epoch, otherwise the
    /// recoverable epoch could advance past an obligation that changed
    /// hands between two walks.
    DirtyTransfer {
        /// The VD that now holds the obligation.
        vd: VdId,
        /// The version's epoch.
        abs_epoch: u64,
    },
}

/// Per-line L1/L2 metadata of the versioned hierarchy.
#[derive(Clone, Copy, Debug)]
struct VLine {
    state: MesiState,
    token: Token,
    oid: Epoch,
    /// This copy's version has already been handed to the OMC.
    persisted: bool,
}

impl VLine {
    fn unpersisted_version(&self) -> bool {
        self.state.is_dirty() && !self.persisted
    }
}

/// Per-line LLC metadata (no version protocol below the VDs, §IV-A4; the
/// OID rides along so responses can carry RV and DRAM tags stay fresh).
#[derive(Clone, Copy, Debug)]
struct VLlcLine {
    token: Token,
    oid: Epoch,
    /// Newer than the DRAM working copy.
    dirty: bool,
}

/// Result of a directory transaction.
#[derive(Clone, Copy, Debug)]
struct FetchResult {
    token: Token,
    /// Absolute epoch the response's RV denotes.
    rv_abs: u64,
    state: MesiState,
    /// The fetched copy is newer than the DRAM working copy.
    dram_dirty: bool,
    /// The fetched copy's version has already been handed to the OMC
    /// (false only for a C2C-transferred unpersisted version).
    persisted: bool,
}

/// The CST versioned hierarchy.
pub struct VersionedHierarchy {
    cfg: Arc<SimConfig>,
    cst: CstConfig,
    l1s: Vec<CacheArray<VLine>>,
    l2s: Vec<CacheArray<VLine>>,
    llc: Vec<CacheArray<VLlcLine>>,
    dir: Directory,
    noc: Noc,
    dram: Dram,
    vd_abs: Vec<u64>,
    store_counts: Vec<u64>,
    counters: AccessCounters,
    events: Vec<CstEvent>,
    wrap_flushes: u64,
}

impl VersionedHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: &SimConfig, cst: CstConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()), cst)
    }

    /// Builds the hierarchy sharing an already-wrapped configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new_shared(cfg: Arc<SimConfig>, cst: CstConfig) -> Self {
        cfg.validate().expect("invalid SimConfig");
        let vds = cfg.vd_count() as usize;
        let slices = cfg.llc_slices as u64;
        let slice_sets = cfg.llc_slice_bytes() / (nvsim::addr::LINE_BYTES * cfg.llc.ways as u64);
        let initial = cst.initial_epoch.max(1);
        Self {
            cst,
            l1s: (0..cfg.cores as usize)
                .map(|_| CacheArray::from_params(&cfg.l1))
                .collect(),
            l2s: (0..vds).map(|_| CacheArray::from_params(&cfg.l2)).collect(),
            llc: (0..slices)
                .map(|_| CacheArray::with_stride(slice_sets, cfg.llc.ways, slices))
                .collect(),
            dir: Directory::new(),
            noc: Noc::new(cfg.noc_hop_latency),
            dram: Dram::new(cfg.dram_latency, cfg.dram_oid_superblock_lines),
            vd_abs: vec![initial; vds],
            store_counts: vec![0; vds],
            counters: AccessCounters::default(),
            events: Vec::new(),
            wrap_flushes: 0,
            cfg,
        }
    }

    /// The simulator configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The shared configuration handle.
    pub fn config_shared(&self) -> &Arc<SimConfig> {
        &self.cfg
    }

    /// The CST configuration in force.
    pub fn cst_config(&self) -> &CstConfig {
        &self.cst
    }

    /// The VD a core belongs to.
    pub fn vd_of(&self, core: CoreId) -> VdId {
        VdId(core.0 / self.cfg.cores_per_vd)
    }

    /// A VD's current absolute epoch.
    pub fn epoch_abs(&self, vd: VdId) -> u64 {
        self.vd_abs[vd.index()]
    }

    /// A VD's current 16-bit epoch tag.
    pub fn epoch_tag(&self, vd: VdId) -> Epoch {
        Epoch::from_abs(self.vd_abs[vd.index()])
    }

    /// Access counters.
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The NoC (traffic accounting).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// The DRAM working memory.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Group-crossing wrap flushes performed so far.
    pub fn wrap_flushes(&self) -> u64 {
        self.wrap_flushes
    }

    /// Publishes CST-side metrics under `prefix`: per-VD epoch gauges,
    /// wrap flushes, NoC message counts, and DRAM OID footprint.
    pub fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.set_counter(&p("wrap_flushes"), self.wrap_flushes);
        for vd in 0..self.cfg.vd_count() {
            reg.set_gauge(
                &p(&format!("vd{vd}.epoch_abs")),
                self.vd_abs[vd as usize] as f64,
            );
        }
        for kind in MsgKind::ALL {
            reg.set_counter(&p(&format!("noc.{kind}")), self.noc.count(kind));
        }
        reg.set_counter(&p("noc.total"), self.noc.total());
        reg.set_counter(&p("dram.reads"), self.dram.reads());
        reg.set_counter(&p("dram.oid_tags"), self.dram.oid_tag_count() as u64);
    }

    /// Events produced since the last [`VersionedHierarchy::take_events`].
    pub fn events(&self) -> &[CstEvent] {
        &self.events
    }

    /// Drains the event buffer (system-side consumption).
    pub fn take_events(&mut self) -> Vec<CstEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the event buffer into `buf` by swapping — the hot-path
    /// variant of [`VersionedHierarchy::take_events`]: the consumer hands
    /// back its (cleared) scratch vector so neither side reallocates.
    pub fn swap_events(&mut self, buf: &mut Vec<CstEvent>) {
        debug_assert!(buf.is_empty(), "swap_events expects a cleared buffer");
        std::mem::swap(&mut self.events, buf);
    }

    fn slice_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.cfg.llc_slices as u64) as usize
    }

    fn local_cores(&self, vd: VdId) -> std::ops::Range<u16> {
        let base = vd.0 * self.cfg.cores_per_vd;
        base..base + self.cfg.cores_per_vd
    }

    /// Reconstructs a line tag into an absolute epoch relative to the VD
    /// currently holding the line.
    fn abs_of(&self, tag: Epoch, vd: VdId) -> u64 {
        crate::epoch::reconstruct_abs(tag, self.vd_abs[vd.index()])
    }

    fn emit_version(&mut self, line: LineAddr, token: Token, abs_epoch: u64, reason: EvictReason) {
        self.events.push(CstEvent::Version(VersionOut {
            line,
            token,
            abs_epoch,
            reason,
        }));
    }

    // ---------------------------------------------------------------
    // Epoch management
    // ---------------------------------------------------------------

    /// Advances `vd` to absolute epoch `to`. Returns the stall charged to
    /// the VD's in-flight access.
    fn advance_epoch(&mut self, vd: VdId, to: u64, cause: AdvanceCause) -> Cycle {
        let from = self.vd_abs[vd.index()];
        debug_assert!(to > from, "epochs only move forward");
        if from / HALF_SPACE != to / HALF_SPACE {
            self.wrap_flush(to);
        }
        self.vd_abs[vd.index()] = to;
        self.store_counts[vd.index()] = 0;
        self.events.push(CstEvent::EpochAdvanced {
            vd,
            from_abs: from,
            to_abs: to,
            cause,
        });
        self.cst.epoch_advance_stall
    }

    /// Advances a VD's epoch by one for an explicit mark or the system's
    /// policy. Returns the stall.
    pub fn advance_epoch_explicit(&mut self, vd: VdId, cause: AdvanceCause) -> Cycle {
        let to = self.vd_abs[vd.index()] + 1;
        self.advance_epoch(vd, to, cause)
    }

    /// Synchronizes `vd` to a response's RV if newer (Lamport rule).
    /// Spurious "future" RVs from stale DRAM tags are clamped to the
    /// system-wide maximum epoch: causality guarantees no genuine RV can
    /// exceed the epoch of the VD that produced it.
    fn sync_epoch(&mut self, vd: VdId, rv_abs: u64) -> Cycle {
        let cur = self.vd_abs[vd.index()];
        let max_abs = self.vd_abs.iter().copied().max().unwrap_or(cur);
        let to = rv_abs.min(max_abs);
        if to > cur {
            return self.advance_epoch(vd, to, AdvanceCause::CoherenceSync);
        }
        0
    }

    /// §IV-D group flush: before epochs enter a recycled half-space
    /// generation, every cache line still tagged in that half-space is
    /// flushed out of the hierarchy (unpersisted versions to the OMC,
    /// dirty data home to DRAM), and DRAM tags of the group are scrubbed.
    fn wrap_flush(&mut self, entering_abs: u64) {
        self.wrap_flushes += 1;
        let entering_group = Epoch::from_abs(entering_abs).group();
        // A tag in the entering group is, by the invariant this flush
        // maintains, from that group's *previous* generation: resolve it
        // strictly into the past (the normal ±half-space reconstruction
        // would read it as "future").
        let gen_base = entering_abs >> 16 << 16;
        let stale_abs = |tag: Epoch| {
            let cand = gen_base + tag.raw() as u64;
            if cand >= entering_abs {
                cand.saturating_sub(1 << 16)
            } else {
                cand
            }
        };
        for vdix in 0..self.l2s.len() {
            let vd = VdId(vdix as u16);
            // Collect lines where the L2 copy or any L1 copy is tagged in
            // the entering group; flush the whole line out of the VD.
            let mut stale: Vec<LineAddr> =
                self.l2s[vdix].lines_where(|_, m| m.oid.group() == entering_group);
            for c in self.local_cores(vd) {
                for l in self.l1s[c as usize].lines_where(|_, m| m.oid.group() == entering_group) {
                    if !stale.contains(&l) {
                        stale.push(l);
                    }
                }
            }
            for line in stale {
                for c in self.local_cores(vd) {
                    if let Some(m) = self.l1s[c as usize].remove(line) {
                        if m.unpersisted_version() {
                            let abs = stale_abs(m.oid);
                            self.emit_version(line, m.token, abs, EvictReason::EpochFlush);
                        }
                        if m.state.is_dirty() {
                            self.dram.write(line, m.token);
                        }
                    }
                }
                if let Some(m) = self.l2s[vdix].remove(line) {
                    if m.unpersisted_version() {
                        let abs = stale_abs(m.oid);
                        self.emit_version(line, m.token, abs, EvictReason::EpochFlush);
                    }
                    if m.state.is_dirty() {
                        self.dram.write(line, m.token);
                    }
                }
                self.dir.remove_node(line, vd.0);
            }
        }
        for s in 0..self.llc.len() {
            let stale: Vec<LineAddr> =
                self.llc[s].lines_where(|_, m| m.oid.group() == entering_group);
            for line in stale {
                let m = self.llc[s].remove(line).expect("listed");
                if m.dirty {
                    self.dram.write(line, m.token);
                }
            }
        }
        let boundary = Epoch::from_abs(entering_abs / HALF_SPACE * HALF_SPACE);
        self.dram
            .scrub_oids(|t| Epoch(t).group() == entering_group, boundary.raw());
    }

    // ---------------------------------------------------------------
    // Access path
    // ---------------------------------------------------------------

    /// Performs one access. Returns `(latency, persist_stall_within,
    /// value)` — the value loaded or stored; version evictions and epoch
    /// advances appear in [`VersionedHierarchy::take_events`].
    pub fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
    ) -> (Cycle, Cycle, Token) {
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
        let mut stall = 0;

        if self.cfg.replay_fast_path {
            // Single-probe L1 fast path. A store hitting a writable line
            // whose version is same-epoch (or persisted/clean — no
            // store-eviction possible) updates the slot in place with the
            // one `get_mut` probe; the reference path probes three times
            // (`get` + `commit_store`'s `peek` + `peek_mut`). Stores that
            // DO need the §IV-A1 store-eviction fall through to the
            // reference `commit_store`. Observable state (counters, LRU,
            // events, store budget, epoch advances) is identical.
            let cur_tag = Epoch::from_abs(self.vd_abs[vd.index()]);
            let mut committed = false;
            let mut needs_reference_commit = false;
            if let Some(l) = self.l1s[core.index()].get_mut(line) {
                if perm.satisfied_by(l.state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Store {
                        debug_assert!(l.state.is_writable(), "store commit requires M/E");
                        if l.oid == cur_tag || !l.unpersisted_version() {
                            l.token = token;
                            l.oid = cur_tag;
                            l.state = MesiState::M;
                            l.persisted = false;
                            committed = true;
                        } else {
                            needs_reference_commit = true;
                        }
                    } else {
                        return (lat, 0, l.token);
                    }
                }
            }
            if committed {
                let sc = &mut self.store_counts[vd.index()];
                *sc += 1;
                if *sc >= self.cfg.epoch_size_stores {
                    let to = self.vd_abs[vd.index()] + 1;
                    stall += self.advance_epoch(vd, to, AdvanceCause::StoreBudget);
                }
                return (lat + stall, stall, token);
            }
            if needs_reference_commit {
                stall += self.commit_store(core, vd, line, token);
                return (lat + stall, stall, token);
            }
        } else {
            // Reference path: L1 hit with sufficient permission.
            if let Some((state, value)) =
                self.l1s[core.index()].get(line).map(|l| (l.state, l.token))
            {
                if perm.satisfied_by(state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Store {
                        stall += self.commit_store(core, vd, line, token);
                        return (lat + stall, stall, token);
                    }
                    return (lat + stall, stall, value);
                }
            }
        }

        lat += self.cfg.l2.latency;
        let (extra, sync_stall) = self.ensure_l2(vd, line, perm);
        lat += extra;
        stall += sync_stall;

        lat += self.resolve_sibling_l1s(core, vd, line, op);
        // After a load-resolve, siblings retain S copies: the new fill
        // must then also be S (granting E beside a live sharer would let
        // a later store skip the sibling invalidation).
        let sibling_retains = op == MemOp::Load
            && self
                .local_cores(vd)
                .any(|c| c != core.0 && self.l1s[c as usize].contains(line));

        // Fill or upgrade the L1 from the L2.
        let l2_meta = *self.l2s[vd.index()]
            .peek(line)
            .expect("L2 holds the line after ensure_l2 (inclusion)");
        let fill_state = match op {
            MemOp::Load if sibling_retains => MesiState::S,
            MemOp::Load => match l2_meta.state {
                MesiState::M | MesiState::E => MesiState::E,
                // The L2 keeps the dirty Owned version; L1s read Shared.
                MesiState::S | MesiState::O => MesiState::S,
                MesiState::I => unreachable!("ensure_l2 grants at least S"),
            },
            MemOp::Store => MesiState::E,
        };
        match self.l1s[core.index()].peek_mut(line) {
            Some(l) => {
                debug_assert!(!l.state.is_dirty(), "upgrades start from a clean state");
                l.state = fill_state;
                l.token = l2_meta.token;
                l.oid = l2_meta.oid;
                l.persisted = true;
            }
            None => {
                // The L1 fill mirrors the L2's data; the L2 keeps version
                // custody, so the L1 copy starts "persisted".
                let fill = VLine {
                    state: fill_state,
                    token: l2_meta.token,
                    oid: l2_meta.oid,
                    persisted: true,
                };
                if let Some((vline, vmeta)) = self.l1s[core.index()].insert(line, fill) {
                    self.l1_evict(vd, vline, vmeta);
                }
            }
        }

        if op == MemOp::Store {
            stall += self.commit_store(core, vd, line, token);
            return (lat + stall, stall, token);
        }
        (lat + stall, stall, l2_meta.token)
    }

    /// Retires a store into an L1 line with write permission, applying the
    /// version access protocol (§IV-A1).
    fn commit_store(&mut self, core: CoreId, vd: VdId, line: LineAddr, token: Token) -> Cycle {
        let cur_tag = self.epoch_tag(vd);
        let meta = *self.l1s[core.index()]
            .peek(line)
            .expect("store commit requires a resident L1 line");
        debug_assert!(meta.state.is_writable(), "store commit requires M/E");

        if meta.unpersisted_version() && meta.oid != cur_tag {
            // Immutable old version: store-eviction into the L2 first.
            self.putx_to_l2(vd, line, meta.token, meta.oid, EvictReason::StoreEviction);
        }
        let l = self.l1s[core.index()].peek_mut(line).expect("resident");
        l.token = token;
        l.oid = cur_tag;
        l.state = MesiState::M;
        l.persisted = false;

        let sc = &mut self.store_counts[vd.index()];
        *sc += 1;
        if *sc >= self.cfg.epoch_size_stores {
            let to = self.vd_abs[vd.index()] + 1;
            return self.advance_epoch(vd, to, AdvanceCause::StoreBudget);
        }
        0
    }

    /// Folds a version coming down from an L1 into the L2 (§IV-A2 PUTX):
    /// if the L2 holds an *older unpersisted* version, that version is
    /// evicted to the OMC before being overwritten.
    fn putx_to_l2(
        &mut self,
        vd: VdId,
        line: LineAddr,
        token: Token,
        oid: Epoch,
        reason: EvictReason,
    ) {
        let l2 = self.l2s[vd.index()]
            .peek_mut(line)
            .expect("inclusion: L2 must hold every L1 line");
        debug_assert!(
            !l2.state.is_dirty() || oid.at_least(l2.oid),
            "L1 versions are never older than the L2 version (§IV-A2 invariant)"
        );
        let displaced = if l2.unpersisted_version() && oid != l2.oid {
            Some((l2.token, l2.oid))
        } else {
            None
        };
        l2.token = token;
        l2.oid = oid;
        l2.state = MesiState::M;
        l2.persisted = false;
        if let Some((dtok, doid)) = displaced {
            let dabs = self.abs_of(doid, vd);
            self.emit_version(line, dtok, dabs, reason);
        }
    }

    /// Handles an L1 capacity eviction.
    fn l1_evict(&mut self, vd: VdId, line: LineAddr, meta: VLine) {
        if !meta.state.is_dirty() {
            return;
        }
        if meta.unpersisted_version() {
            self.putx_to_l2(vd, line, meta.token, meta.oid, EvictReason::CapacityMiss);
        } else {
            // Persisted but DRAM-dirty: fold data into the L2 copy.
            let l2 = self.l2s[vd.index()]
                .peek_mut(line)
                .expect("inclusion: L2 must hold every L1 line");
            if meta.oid.at_least(l2.oid) {
                l2.token = meta.token;
                l2.oid = meta.oid;
                l2.state = MesiState::M;
                l2.persisted = true;
            }
        }
    }

    /// Invalidates/downgrades sibling L1 copies within the VD.
    fn resolve_sibling_l1s(&mut self, core: CoreId, vd: VdId, line: LineAddr, op: MemOp) -> Cycle {
        let mut lat = 0;
        for c in self.local_cores(vd) {
            if c == core.0 {
                continue;
            }
            let ci = c as usize;
            if !self.l1s[ci].contains(line) {
                continue;
            }
            lat += self.cfg.l1.latency;
            let meta = *self.l1s[ci].peek(line).expect("probed present");
            if meta.state.is_dirty() {
                if meta.unpersisted_version() {
                    let reason = match op {
                        MemOp::Store => EvictReason::CoherenceInvalidation,
                        MemOp::Load => EvictReason::CoherenceDowngrade,
                    };
                    // Intra-VD transfer: the version moves to the L2 (it
                    // stays inside the VD, so no OMC write — unless it
                    // displaces an older L2 version).
                    self.putx_to_l2(vd, line, meta.token, meta.oid, reason);
                } else {
                    let l2 = self.l2s[vd.index()].peek_mut(line).expect("inclusion");
                    if meta.oid.at_least(l2.oid) {
                        l2.token = meta.token;
                        l2.oid = meta.oid;
                        l2.state = MesiState::M;
                        l2.persisted = true;
                    }
                }
            }
            match op {
                MemOp::Store => {
                    self.l1s[ci].remove(line);
                }
                MemOp::Load => {
                    let l = self.l1s[ci].peek_mut(line).expect("probed present");
                    l.state = MesiState::S;
                    l.persisted = true;
                }
            }
        }
        lat
    }

    /// Ensures the VD's L2 holds `line` with `perm`. Returns
    /// `(extra latency, epoch-sync stall)`.
    fn ensure_l2(&mut self, vd: VdId, line: LineAddr, perm: Permission) -> (Cycle, Cycle) {
        if let Some(l2) = self.l2s[vd.index()].get(line) {
            if perm.satisfied_by(l2.state) {
                self.counters.l2_hits += 1;
                return (0, 0);
            }
        }
        let mut lat = self.cfg.llc.latency;
        lat += match perm {
            Permission::Read => self.noc.send(MsgKind::GetS),
            Permission::Write => self.noc.send(MsgKind::GetX),
        };

        let fetch = match perm {
            Permission::Write => self.dir_getx(vd, line, &mut lat),
            Permission::Read => self.dir_gets(vd, line, &mut lat),
        };

        // Coherence-driven epoch update (§IV-B2) before the line installs.
        let stall = self.sync_epoch(vd, fetch.rv_abs);
        let rv = Epoch::from_abs(fetch.rv_abs);
        if fetch.state == MesiState::M && !fetch.persisted {
            // A persistence obligation arrived via C2C transfer.
            self.events.push(CstEvent::DirtyTransfer {
                vd,
                abs_epoch: fetch.rv_abs,
            });
        }

        match self.l2s[vd.index()].peek_mut(line) {
            Some(l) => {
                debug_assert!(
                    !l.state.is_dirty() || l.state == MesiState::O,
                    "upgrades start from a clean or Owned state"
                );
                l.state = fetch.state;
                l.token = fetch.token;
                l.oid = rv;
                l.persisted = fetch.persisted;
            }
            None => {
                let fill = VLine {
                    state: fetch.state,
                    token: fetch.token,
                    oid: rv,
                    persisted: fetch.persisted,
                };
                if let Some((vline, vmeta)) = self.l2s[vd.index()].insert(line, fill) {
                    self.l2_capacity_evict(vd, vline, vmeta);
                }
            }
        }
        // A dirty fetched copy must keep M so the DRAM chain stays exact.
        if fetch.dram_dirty {
            let l = self.l2s[vd.index()].peek_mut(line).expect("installed");
            l.state = MesiState::M;
        }
        (lat, stall)
    }

    /// Directory GETX (§IV-A3/Fig 6, optimization 2): the newest version
    /// moves cache-to-cache with its persistence obligation; older
    /// versions in the previous owner are evicted to the OMC.
    fn dir_getx(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> FetchResult {
        let entry = self.dir.entry(line).copied();
        if let Some(e) = entry {
            if let Some(owner) = e.owner() {
                if owner != vd.0 {
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
                    let (token, abs, dirty, persisted) =
                        self.strip_vd_for_invalidation(VdId(owner), line);
                    *lat += self.noc.send(MsgKind::CacheToCache);
                    self.dir.remove_node(line, owner);
                    self.dir.set_owner(line, vd.0);
                    let s = self.slice_of(line);
                    let llc_dirty = self.llc[s].remove(line).is_some_and(|m| m.dirty);
                    return FetchResult {
                        token,
                        rv_abs: abs,
                        state: if dirty || llc_dirty {
                            MesiState::M
                        } else {
                            MesiState::E
                        },
                        dram_dirty: dirty || llc_dirty,
                        persisted,
                    };
                }
                // We already own it (the MOESI O→M upgrade): invalidate
                // the other sharers; the version and its persistence
                // custody stay in place.
                for sh in e.sharers_except(vd.0) {
                    *lat += self.noc.send(MsgKind::FwdGetX);
                    self.noc.send(MsgKind::InvAck);
                    self.invalidate_vd_clean(VdId(sh), line);
                    self.dir.remove_node(line, sh);
                }
                self.dir.set_owner(line, vd.0);
                let l2 = self.l2s[vd.index()].peek(line).expect("owner holds line");
                let dirty = l2.state.is_dirty();
                return FetchResult {
                    token: l2.token,
                    rv_abs: self.abs_of(l2.oid, vd),
                    state: if dirty { MesiState::M } else { MesiState::E },
                    dram_dirty: dirty,
                    persisted: l2.persisted,
                };
            }
            for sh in e.sharers_except(vd.0) {
                *lat += self.noc.send(MsgKind::FwdGetX);
                self.noc.send(MsgKind::InvAck);
                self.invalidate_vd_clean(VdId(sh), line);
                self.dir.remove_node(line, sh);
            }
            let own = self.l2s[vd.index()].peek(line).map(|o| (o.token, o.oid));
            let s = self.slice_of(line);
            let llc_copy = self.llc[s].remove(line);
            let (token, abs, dirty) = if let Some(c) = llc_copy {
                self.counters.llc_hits += 1;
                (c.token, self.abs_of(c.oid, vd), c.dirty)
            } else if let Some((t, oid)) = own {
                (t, self.abs_of(oid, vd), false)
            } else {
                *lat += self.dram.latency();
                self.counters.mem_fetches += 1;
                let t = self.dram.read(line);
                let oid = self.dram.oid(line).map(Epoch).unwrap_or(Epoch(0));
                (t, self.abs_of(oid, vd), false)
            };
            self.dir.remove_node(line, vd.0);
            self.dir.set_owner(line, vd.0);
            return FetchResult {
                token,
                rv_abs: abs,
                state: if dirty { MesiState::M } else { MesiState::E },
                dram_dirty: dirty,
                persisted: true,
            };
        }
        let s = self.slice_of(line);
        let llc_copy = self.llc[s].remove(line);
        let (token, abs, dirty) = if let Some(c) = llc_copy {
            self.counters.llc_hits += 1;
            (c.token, self.abs_of(c.oid, vd), c.dirty)
        } else {
            *lat += self.dram.latency();
            self.counters.mem_fetches += 1;
            let t = self.dram.read(line);
            let oid = self.dram.oid(line).map(Epoch).unwrap_or(Epoch(0));
            (t, self.abs_of(oid, vd), false)
        };
        self.dir.set_owner(line, vd.0);
        FetchResult {
            token,
            rv_abs: abs,
            state: if dirty { MesiState::M } else { MesiState::E },
            dram_dirty: dirty,
            persisted: true,
        }
    }

    /// Directory GETS (§IV-A3/Fig 5, optimization 1): the newest version
    /// lands in the LLC and is persisted; an older L2 version is persisted
    /// without touching the LLC.
    fn dir_gets(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> FetchResult {
        let entry = self.dir.entry(line).copied();
        if let Some(e) = entry {
            if let Some(owner) = e.owner() {
                debug_assert_ne!(owner, vd.0, "self-owned lines hit in ensure_l2");
                *lat += self.noc.send(MsgKind::FwdGetS);
                *lat += self.cfg.l2.latency;
                if self.cfg.protocol == nvsim::config::Protocol::Moesi {
                    // MOESI: the newest version stays Owned (and possibly
                    // unpersisted) in the owner — no LLC deposit, no OMC
                    // write. Only an older displaced L2 version is
                    // persisted (inside the helper).
                    let (token, abs) = self.downgrade_vd_moesi(VdId(owner), line);
                    *lat += self.noc.send(MsgKind::CacheToCache);
                    self.dir.add_sharer_keep_owner(line, vd.0);
                    return FetchResult {
                        token,
                        rv_abs: abs,
                        state: MesiState::S,
                        dram_dirty: false,
                        persisted: true,
                    };
                }
                let (token, abs, was_dirty) = self.downgrade_vd(VdId(owner), line);
                *lat += self.noc.send(MsgKind::Data);
                if was_dirty {
                    self.llc_install(
                        line,
                        VLlcLine {
                            token,
                            oid: Epoch::from_abs(abs),
                            dirty: true,
                        },
                    );
                }
                self.dir.downgrade_owner(line);
                self.dir.add_sharer(line, vd.0);
                return FetchResult {
                    token,
                    rv_abs: abs,
                    state: MesiState::S,
                    dram_dirty: false,
                    persisted: true,
                };
            }
            let s = self.slice_of(line);
            let (token, abs) = if let Some(c) = self.llc[s].get(line).map(|c| (c.token, c.oid)) {
                self.counters.llc_hits += 1;
                (c.0, self.abs_of(c.1, vd))
            } else {
                *lat += self.dram.latency();
                self.counters.mem_fetches += 1;
                let t = self.dram.read(line);
                let oid = self.dram.oid(line).map(Epoch).unwrap_or(Epoch(0));
                (t, self.abs_of(oid, vd))
            };
            self.dir.add_sharer(line, vd.0);
            return FetchResult {
                token,
                rv_abs: abs,
                state: MesiState::S,
                dram_dirty: false,
                persisted: true,
            };
        }
        let s = self.slice_of(line);
        let (token, abs) = if let Some(c) = self.llc[s].get(line).map(|c| (c.token, c.oid)) {
            self.counters.llc_hits += 1;
            (c.0, self.abs_of(c.1, vd))
        } else {
            *lat += self.dram.latency();
            self.counters.mem_fetches += 1;
            let t = self.dram.read(line);
            let oid = self.dram.oid(line).map(Epoch).unwrap_or(Epoch(0));
            (t, self.abs_of(oid, vd))
        };
        self.dir.set_owner(line, vd.0);
        FetchResult {
            token,
            rv_abs: abs,
            state: MesiState::E,
            dram_dirty: false,
            persisted: true,
        }
    }

    /// External invalidation of `vd`'s copies (Fig 6). Returns the newest
    /// version `(token, abs, dirty, persisted)` for the C2C transfer;
    /// older unpersisted versions are evicted to the OMC.
    fn strip_vd_for_invalidation(&mut self, vd: VdId, line: LineAddr) -> (Token, u64, bool, bool) {
        let l2meta = self.l2s[vd.index()]
            .remove(line)
            .expect("directory says the VD caches the line");
        let mut newest_token = l2meta.token;
        let mut newest_oid = l2meta.oid;
        let mut newest_dirty = l2meta.state.is_dirty();
        let mut newest_persisted = l2meta.persisted;
        let mut older: Option<(Token, Epoch)> = None;

        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                if m.state.is_dirty() && m.oid.newer_than(newest_oid) {
                    if l2meta.unpersisted_version() {
                        older = Some((l2meta.token, l2meta.oid));
                    }
                    newest_token = m.token;
                    newest_oid = m.oid;
                    newest_dirty = true;
                    newest_persisted = m.persisted;
                } else if m.state.is_dirty() && m.oid == newest_oid {
                    newest_token = m.token;
                    newest_dirty = true;
                    newest_persisted = newest_persisted && m.persisted;
                }
            }
        }
        if let Some((t, oid)) = older {
            let abs = self.abs_of(oid, vd);
            self.emit_version(line, t, abs, EvictReason::CoherenceInvalidation);
        }
        let abs = self.abs_of(newest_oid, vd);
        (
            newest_token,
            abs,
            newest_dirty,
            newest_persisted || !newest_dirty,
        )
    }

    /// External downgrade of `vd`'s copies (Fig 5). The newest version is
    /// persisted to the OMC and returned; an older L2 version is persisted
    /// without an LLC write (optimization 1).
    fn downgrade_vd(&mut self, vd: VdId, line: LineAddr) -> (Token, u64, bool) {
        let l2meta = *self.l2s[vd.index()]
            .peek(line)
            .expect("directory says the VD caches the line");
        let mut newest_token = l2meta.token;
        let mut newest_oid = l2meta.oid;
        let mut newest_unpersisted = l2meta.unpersisted_version();
        let mut newest_dirty = l2meta.state.is_dirty();
        let mut older: Option<(Token, Epoch)> = None;

        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() && m.oid.newer_than(newest_oid) {
                    if l2meta.unpersisted_version() {
                        older = Some((l2meta.token, l2meta.oid));
                    }
                    newest_token = m.token;
                    newest_oid = m.oid;
                    newest_unpersisted = !m.persisted;
                    newest_dirty = true;
                } else if m.state.is_dirty() && m.oid == newest_oid {
                    newest_token = m.token;
                    newest_unpersisted = newest_unpersisted || !m.persisted;
                    newest_dirty = true;
                }
                m.state = MesiState::S;
                m.persisted = true;
                m.token = newest_token;
                m.oid = newest_oid;
            }
        }
        if let Some((t, oid)) = older {
            let abs = self.abs_of(oid, vd);
            self.emit_version(line, t, abs, EvictReason::CoherenceDowngrade);
        }
        let abs = self.abs_of(newest_oid, vd);
        if newest_unpersisted {
            self.emit_version(line, newest_token, abs, EvictReason::CoherenceDowngrade);
        }
        let l2 = self.l2s[vd.index()].peek_mut(line).expect("resident");
        l2.token = newest_token;
        l2.oid = newest_oid;
        l2.state = MesiState::S;
        l2.persisted = true;
        (newest_token, abs, newest_dirty)
    }

    /// MOESI downgrade (versioned): the newest version folds into the L2
    /// as Owned — it keeps both its dirty data and, if unpersisted, its
    /// persistence custody. An older displaced L2 version is evicted to
    /// the OMC. Returns the newest `(token, abs_epoch)` for the response.
    fn downgrade_vd_moesi(&mut self, vd: VdId, line: LineAddr) -> (Token, u64) {
        let l2meta = *self.l2s[vd.index()]
            .peek(line)
            .expect("directory says the VD caches the line");
        let mut newest_token = l2meta.token;
        let mut newest_oid = l2meta.oid;
        let mut newest_persisted = l2meta.persisted;
        let mut newest_dirty = l2meta.state.is_dirty();
        let mut older: Option<(Token, Epoch)> = None;

        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() && m.oid.newer_than(newest_oid) {
                    if l2meta.unpersisted_version() {
                        older = Some((l2meta.token, l2meta.oid));
                    }
                    newest_token = m.token;
                    newest_oid = m.oid;
                    newest_persisted = m.persisted;
                    newest_dirty = true;
                } else if m.state.is_dirty() && m.oid == newest_oid {
                    newest_token = m.token;
                    newest_persisted = newest_persisted && m.persisted;
                    newest_dirty = true;
                }
                m.state = MesiState::S;
                m.persisted = true;
                m.token = newest_token;
                m.oid = newest_oid;
            }
        }
        if let Some((t, oid)) = older {
            let abs = self.abs_of(oid, vd);
            self.emit_version(line, t, abs, EvictReason::CoherenceDowngrade);
        }
        let l2 = self.l2s[vd.index()].peek_mut(line).expect("resident");
        l2.token = newest_token;
        l2.oid = newest_oid;
        l2.state = if newest_dirty {
            MesiState::O
        } else {
            MesiState::S
        };
        l2.persisted = if newest_dirty { newest_persisted } else { true };
        let abs = self.abs_of(newest_oid, vd);
        (newest_token, abs)
    }

    /// Invalidates a clean shared copy.
    fn invalidate_vd_clean(&mut self, vd: VdId, line: LineAddr) {
        self.l2s[vd.index()].remove(line);
        for c in self.local_cores(vd) {
            self.l1s[c as usize].remove(line);
        }
    }

    /// Handles an L2 capacity eviction (§IV-A2): dirty versions go to the
    /// LLC *and*, if unpersisted, to the OMC via the LLC-bypass path.
    fn l2_capacity_evict(&mut self, vd: VdId, line: LineAddr, meta: VLine) {
        let mut newest_token = meta.token;
        let mut newest_oid = meta.oid;
        let mut newest_unpersisted = meta.unpersisted_version();
        let mut newest_dirty = meta.state.is_dirty();
        let mut older: Option<(Token, Epoch)> = None;

        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                if m.state.is_dirty() && m.oid.newer_than(newest_oid) {
                    if meta.unpersisted_version() {
                        older = Some((meta.token, meta.oid));
                    }
                    newest_token = m.token;
                    newest_oid = m.oid;
                    newest_unpersisted = !m.persisted;
                    newest_dirty = true;
                } else if m.state.is_dirty() && m.oid == newest_oid {
                    newest_token = m.token;
                    newest_unpersisted = newest_unpersisted || !m.persisted;
                    newest_dirty = true;
                }
            }
        }
        self.dir.remove_node(line, vd.0);
        self.noc.send(MsgKind::PutX);
        if let Some((t, oid)) = older {
            let abs = self.abs_of(oid, vd);
            self.emit_version(line, t, abs, EvictReason::CapacityMiss);
        }
        if newest_unpersisted {
            let abs = self.abs_of(newest_oid, vd);
            self.noc.send(MsgKind::OmcEvict);
            self.emit_version(line, newest_token, abs, EvictReason::CapacityMiss);
        }
        self.llc_install(
            line,
            VLlcLine {
                token: newest_token,
                oid: newest_oid,
                dirty: newest_dirty,
            },
        );
    }

    /// Installs a line into its LLC slice; dirty victims go home to DRAM
    /// (their versions were persisted when they left their VD, §IV-A4).
    fn llc_install(&mut self, line: LineAddr, meta: VLlcLine) {
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
                let raw = vmeta.oid.raw();
                self.dram
                    .update_oid(vline, raw, |a, b| Epoch(a).newer_than(Epoch(b)));
            }
        }
    }

    // ---------------------------------------------------------------
    // Tag walker (§IV-C) and drain
    // ---------------------------------------------------------------

    /// Runs the VD's tag walker: every unpersisted dirty version older
    /// than the VD's current epoch is handed to the OMC (returned) and
    /// marked persisted. Returns `(versions, min_ver)`, `min_ver` being
    /// the smallest absolute epoch still unpersisted afterwards.
    ///
    /// The L2 and then each of the VD's L1s is walked once, in place, in
    /// tag-walk order. Whatever the walk leaves unpersisted is tagged with
    /// the current epoch, so `min_ver` is the VD's current epoch (checked
    /// against a rescan in debug builds).
    pub fn tag_walk(&mut self, vd: VdId) -> (Vec<VersionOut>, u64) {
        let cur_tag = self.epoch_tag(vd);
        let cur_abs = self.vd_abs[vd.index()];
        let mut out = Vec::new();
        let mut walk = |arr: &mut CacheArray<VLine>| {
            for (line, m) in arr.iter_mut() {
                if m.unpersisted_version() && m.oid != cur_tag {
                    m.persisted = true;
                    out.push(VersionOut {
                        line,
                        token: m.token,
                        abs_epoch: crate::epoch::reconstruct_abs(m.oid, cur_abs),
                        reason: EvictReason::TagWalk,
                    });
                }
            }
        };
        walk(&mut self.l2s[vd.index()]);
        // The hardware walker is L2-level; the VD's few L1s are walked too
        // so min-ver is exact (see DESIGN.md §6).
        for c in self.local_cores(vd) {
            walk(&mut self.l1s[c as usize]);
        }
        debug_assert!(
            self.min_unpersisted(vd).is_none_or(|m| m == cur_abs),
            "the walk left an older version unpersisted"
        );
        (out, cur_abs)
    }

    /// Smallest absolute epoch of any unpersisted version in the VD.
    pub fn min_unpersisted(&self, vd: VdId) -> Option<u64> {
        let cur_abs = self.vd_abs[vd.index()];
        let mut min: Option<u64> = None;
        let mut consider = |oid: Epoch| {
            let abs = crate::epoch::reconstruct_abs(oid, cur_abs);
            min = Some(min.map_or(abs, |m: u64| m.min(abs)));
        };
        for (_, m) in self.l2s[vd.index()].iter() {
            if m.unpersisted_version() {
                consider(m.oid);
            }
        }
        for c in self.local_cores(vd) {
            for (_, m) in self.l1s[c as usize].iter() {
                if m.unpersisted_version() {
                    consider(m.oid);
                }
            }
        }
        min
    }

    /// Final drain: advances every VD one epoch and persists *all*
    /// unpersisted versions (including current-epoch ones). Dirty data
    /// also goes home to DRAM. Returns the persisted versions. Each
    /// array is walked once, in place, in tag-walk order.
    pub fn drain(&mut self) -> Vec<VersionOut> {
        let mut out = Vec::new();
        for vdix in 0..self.l2s.len() {
            let vd = VdId(vdix as u16);
            let to = self.vd_abs[vdix] + 1;
            self.advance_epoch(vd, to, AdvanceCause::Finish);
            let (walked, _) = self.tag_walk(vd);
            // End-of-run drain traffic is attributed to `Drain`, not the
            // walker, so eviction-reason decompositions (Fig 15) are not
            // polluted by the shutdown flush.
            out.extend(walked.into_iter().map(|v| VersionOut {
                reason: EvictReason::Drain,
                ..v
            }));
            debug_assert_eq!(self.min_unpersisted(vd), None, "drain walked everything");
        }
        let cores_per_vd = self.cfg.cores_per_vd as usize;
        for (core, l1) in self.l1s.iter_mut().enumerate() {
            let l2 = &mut self.l2s[core / cores_per_vd];
            for (line, m) in l1.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                let l2m = l2.peek_mut(line).expect("inclusion");
                if m.oid.at_least(l2m.oid) {
                    l2m.token = m.token;
                    l2m.oid = m.oid;
                    l2m.state = MesiState::M;
                    l2m.persisted = true;
                }
                m.state = MesiState::E;
            }
        }
        let slices = self.cfg.llc_slices as u64;
        for l2 in &mut self.l2s {
            for (line, m) in l2.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.oid);
                // Reconcile any stale LLC copy: the owning VD's data is
                // authoritative (a dirty LLC copy can survive an E-grant
                // fetch that was silently upgraded, and must not regress
                // the DRAM image in the pass below).
                if let Some(c) = self.llc[(line.raw() % slices) as usize].peek_mut(line) {
                    c.token = t;
                    c.oid = oid;
                    c.dirty = false;
                }
                self.dram.write(line, t);
                self.dram
                    .update_oid(line, oid.raw(), |a, b| Epoch(a).newer_than(Epoch(b)));
            }
        }
        for slice in &mut self.llc {
            for (line, m) in slice.iter_mut() {
                if m.dirty {
                    m.dirty = false;
                    self.dram.write(line, m.token);
                    self.dram
                        .update_oid(line, m.oid.raw(), |a, b| Epoch(a).newer_than(Epoch(b)));
                }
            }
        }
        out
    }

    /// Debug: human-readable state of every copy of `line` (tests only).
    pub fn debug_line_state(&self, line: LineAddr) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            if let Some(m) = l1.peek(line) {
                let _ = write!(
                    out,
                    "L1[{}]:{}/{}{} ",
                    i,
                    m.state,
                    m.oid.raw(),
                    if m.persisted { "P" } else { "U" }
                );
            }
        }
        for (i, l2) in self.l2s.iter().enumerate() {
            if let Some(m) = l2.peek(line) {
                let _ = write!(
                    out,
                    "L2[{}]:{}/{}{} ",
                    i,
                    m.state,
                    m.oid.raw(),
                    if m.persisted { "P" } else { "U" }
                );
            }
        }
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek(line) {
            let _ = write!(
                out,
                "LLC:{}/{} ",
                m.oid.raw(),
                if m.dirty { "D" } else { "C" }
            );
        }
        let _ = write!(out, "dram:{}", self.dram.peek(line));
        out
    }

    /// The newest visible content of a line anywhere (verification).
    pub fn newest_token(&self, line: LineAddr) -> Token {
        let mut best: Option<(Epoch, Token)> = None;
        let mut consider = |oid: Epoch, tok: Token| match best {
            None => best = Some((oid, tok)),
            Some((boid, _)) if oid.newer_than(boid) => best = Some((oid, tok)),
            _ => {}
        };
        for l1 in &self.l1s {
            if let Some(m) = l1.peek(line) {
                if m.state.is_dirty() {
                    consider(m.oid, m.token);
                }
            }
        }
        for l2 in &self.l2s {
            if let Some(m) = l2.peek(line) {
                if m.state.is_dirty() {
                    consider(m.oid, m.token);
                }
            }
        }
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek(line) {
            if m.dirty {
                consider(m.oid, m.token);
            }
        }
        best.map(|(_, t)| t).unwrap_or_else(|| self.dram.peek(line))
    }

    /// Installs a cross-island line at its DRAM home during a sharded
    /// replay barrier (see `nvsim::shard`). Returns `true` if the token
    /// was written. If any CST level still holds the line, the island's
    /// own versioned copy is authoritative and the import is skipped —
    /// the overlay chain and OID tags stay exactly as the island's
    /// local trace produced them.
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

    /// Batched [`VersionedHierarchy::import_line`] over one window's
    /// sorted exchange run (see `nvsim::shard`): one pass, own-island
    /// entries skipped inline, applied deposits mirrored into `golden`.
    pub fn import_lines(
        &mut self,
        entries: &[nvsim::shard::ExchangeEntry],
        island: u16,
        golden: &mut nvsim::fastmap::FastMap<LineAddr, Token>,
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

impl VersionedHierarchy {
    /// Invariant 1 + 2: inclusion and L1-not-older-than-L2 (§IV-A2).
    pub(crate) fn check_inclusion_and_order(
        &self,
        out: &mut Vec<super::invariants::InvariantViolation>,
    ) {
        use super::invariants::InvariantViolation as V;
        for core in 0..self.l1s.len() {
            let vd = core / self.cfg.cores_per_vd as usize;
            for (line, m) in self.l1s[core].iter() {
                match self.l2s[vd].peek(line) {
                    None => out.push(V::InclusionBroken {
                        core: core as u16,
                        line,
                    }),
                    Some(l2) => {
                        if l2.oid.newer_than(m.oid) {
                            out.push(V::VersionOrderBroken {
                                core: core as u16,
                                line,
                                l1_oid: m.oid.raw(),
                                l2_oid: l2.oid.raw(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Invariant 3: single writer per VD; exclusivity across VDs.
    pub(crate) fn check_writers(&self, out: &mut Vec<super::invariants::InvariantViolation>) {
        use super::invariants::InvariantViolation as V;
        use std::collections::HashMap;
        // Per line: which VDs hold copies, and whether their L2 is M/E.
        let mut holders: HashMap<LineAddr, Vec<(u16, bool)>> = HashMap::new();
        for (vdix, l2) in self.l2s.iter().enumerate() {
            for (line, m) in l2.iter() {
                holders
                    .entry(line)
                    .or_default()
                    .push((vdix as u16, m.state.is_writable()));
            }
        }
        for (line, hs) in &holders {
            if let Some((w, _)) = hs.iter().find(|(_, writable)| *writable) {
                if let Some((o, _)) = hs.iter().find(|(v, _)| v != w) {
                    out.push(V::WritableShared {
                        line: *line,
                        writer_vd: *w,
                        other_vd: *o,
                    });
                }
            }
        }
        // At most one dirty (M or O) L2 copy of a line system-wide.
        let mut dirty_l2: HashMap<LineAddr, Vec<u16>> = HashMap::new();
        for (vdix, l2) in self.l2s.iter().enumerate() {
            for (line, m) in l2.iter() {
                if m.state.is_dirty() {
                    dirty_l2.entry(line).or_default().push(vdix as u16);
                }
            }
        }
        for (line, vds) in dirty_l2 {
            if vds.len() > 1 {
                out.push(V::WritableShared {
                    line,
                    writer_vd: vds[0],
                    other_vd: vds[1],
                });
            }
        }
        // Within each VD: at most one dirty L1 copy of a line.
        for vd in 0..self.l2s.len() {
            let mut dirty_seen: HashMap<LineAddr, u32> = HashMap::new();
            for c in self.local_cores(VdId(vd as u16)) {
                for (line, m) in self.l1s[c as usize].iter() {
                    if m.state.is_dirty() {
                        *dirty_seen.entry(line).or_default() += 1;
                    }
                }
            }
            for (line, n) in dirty_seen {
                if n > 1 {
                    out.push(V::MultipleWriters {
                        vd: vd as u16,
                        line,
                    });
                }
            }
        }
    }

    /// Invariant 4 + 5: every cached tag reconstructs at or before its
    /// VD's current epoch (and hence within the half-space window).
    pub(crate) fn check_tag_windows(&self, out: &mut Vec<super::invariants::InvariantViolation>) {
        use super::invariants::InvariantViolation as V;
        for (vdix, cur_abs) in self.vd_abs.iter().enumerate() {
            let cur = Epoch::from_abs(*cur_abs);
            let check = |line: LineAddr, oid: Epoch, out: &mut Vec<_>| {
                if oid.newer_than(cur) {
                    out.push(V::FutureVersion {
                        vd: vdix as u16,
                        line,
                        oid: oid.raw(),
                        cur: cur.raw(),
                    });
                }
            };
            for (line, m) in self.l2s[vdix].iter() {
                check(line, m.oid, out);
            }
            for c in self.local_cores(VdId(vdix as u16)) {
                for (line, m) in self.l1s[c as usize].iter() {
                    check(line, m.oid, out);
                }
            }
        }
        // LLC tags must be at or before the global maximum epoch.
        let max_abs = self.vd_abs.iter().copied().max().unwrap_or(1);
        let max_tag = Epoch::from_abs(max_abs);
        for slice in &self.llc {
            for (line, m) in slice.iter() {
                if m.oid.newer_than(max_tag) {
                    out.push(V::FutureVersion {
                        vd: u16::MAX,
                        line,
                        oid: m.oid.raw(),
                        cur: max_tag.raw(),
                    });
                }
            }
        }
    }
}

impl std::fmt::Debug for VersionedHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedHierarchy")
            .field("cores", &self.cfg.cores)
            .field("vds", &self.cfg.vd_count())
            .field("epochs", &self.vd_abs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(1_000_000)
            .build()
            .unwrap()
    }

    fn hier() -> VersionedHierarchy {
        VersionedHierarchy::new(&small_cfg(), CstConfig::default())
    }

    fn addr(line: u64) -> Addr {
        Addr::new(line * 64)
    }

    fn versions(h: &mut VersionedHierarchy) -> Vec<VersionOut> {
        h.take_events()
            .into_iter()
            .filter_map(|e| match e {
                CstEvent::Version(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn store_in_same_epoch_updates_in_place() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.access(CoreId(0), MemOp::Store, addr(1), 11);
        assert!(
            versions(&mut h).is_empty(),
            "same-epoch rewrite is in place"
        );
        assert_eq!(h.newest_token(LineAddr::new(1)), 11);
    }

    #[test]
    fn store_after_epoch_advance_store_evicts_old_version() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        // Old version @e1 is dirty & unpersisted: the store pushes it to L2
        // (intra-VD, no OMC write yet).
        h.access(CoreId(0), MemOp::Store, addr(1), 20);
        assert!(versions(&mut h).is_empty(), "version moved L1→L2 only");
        // A second advance + store displaces the L2 version to the OMC.
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        h.access(CoreId(0), MemOp::Store, addr(1), 30);
        let v = versions(&mut h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, 10, "epoch-1 version displaced to OMC");
        assert_eq!(v[0].abs_epoch, 1);
        assert_eq!(v[0].reason, EvictReason::StoreEviction);
        assert_eq!(h.newest_token(LineAddr::new(1)), 30);
    }

    #[test]
    fn tag_walker_persists_old_versions_and_reports_min_ver() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.access(CoreId(0), MemOp::Store, addr(2), 20);
        assert_eq!(h.min_unpersisted(VdId(0)), Some(1));
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (walked, min_ver) = h.tag_walk(VdId(0));
        assert_eq!(walked.len(), 2);
        assert!(walked.iter().all(|v| v.abs_epoch == 1));
        assert!(walked.iter().all(|v| v.reason == EvictReason::TagWalk));
        assert_eq!(min_ver, 2, "nothing older than the current epoch remains");
        // Second walk finds nothing.
        let (walked2, _) = h.tag_walk(VdId(0));
        assert!(walked2.is_empty());
        // Data is still cached and current.
        assert_eq!(h.newest_token(LineAddr::new(1)), 10);
    }

    #[test]
    fn remote_load_downgrade_persists_newest_version() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(5), 50);
        h.take_events();
        h.access(CoreId(2), MemOp::Load, addr(5), 0);
        let v = versions(&mut h);
        assert_eq!(v.len(), 1, "downgrade persists the version once");
        assert_eq!(v[0].token, 50);
        assert_eq!(v[0].reason, EvictReason::CoherenceDowngrade);
        // Walker afterwards has nothing to do for that line.
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (walked, _) = h.tag_walk(VdId(0));
        assert!(walked.is_empty());
    }

    #[test]
    fn remote_store_c2c_transfers_obligation_without_omc_write() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(5), 50);
        h.take_events();
        // Remote store: optimization 2 — no OMC write; the version and its
        // persistence obligation move to VD 1.
        h.access(CoreId(2), MemOp::Store, addr(5), 60);
        let v = versions(&mut h);
        assert!(v.is_empty(), "C2C invalidation must not write the OMC");
        // The obligation now sits in VD 1: epoch sync made VD 1's epoch
        // match, and the (overwritten) version is current-epoch.
        assert_eq!(h.newest_token(LineAddr::new(5)), 60);
        assert_eq!(h.min_unpersisted(VdId(1)), Some(h.epoch_abs(VdId(1))));
    }

    #[test]
    fn epoch_syncs_on_reading_future_data() {
        let cfg = small_cfg();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        // VD 0 advances to epoch 5.
        for _ in 0..4 {
            h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        }
        assert_eq!(h.epoch_abs(VdId(0)), 5);
        h.access(CoreId(0), MemOp::Store, addr(9), 99);
        h.take_events();
        assert_eq!(h.epoch_abs(VdId(1)), 1);
        // VD 1 reads the epoch-5 line: Lamport sync to 5.
        let (_lat, _stall, v) = h.access(CoreId(2), MemOp::Load, addr(9), 0);
        assert_eq!(v, 99, "reader sees the future epoch's value");
        assert_eq!(h.epoch_abs(VdId(1)), 5);
        let advanced = h.take_events().into_iter().any(|e| {
            matches!(
                e,
                CstEvent::EpochAdvanced {
                    vd: VdId(1),
                    to_abs: 5,
                    cause: AdvanceCause::CoherenceSync,
                    ..
                }
            )
        });
        assert!(advanced);
    }

    #[test]
    fn epoch_advances_on_store_budget() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(3)
            .build()
            .unwrap();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        for i in 0..7 {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
        }
        assert_eq!(
            h.epoch_abs(VdId(0)),
            3,
            "two budget advances after 7 stores"
        );
        assert_eq!(h.epoch_abs(VdId(1)), 1, "VD 1 did not store");
    }

    #[test]
    fn capacity_eviction_sends_unpersisted_version_to_omc_and_llc() {
        let mut h = hier();
        // L2 is 64 lines; write 200 distinct lines from one core.
        for i in 0..200 {
            h.access(CoreId(0), MemOp::Store, addr(i), 1000 + i);
        }
        let v = versions(&mut h);
        assert!(!v.is_empty(), "L2 capacity evictions persist versions");
        assert!(v.iter().all(|x| x.reason == EvictReason::CapacityMiss));
        // All data still reachable.
        for i in 0..200 {
            assert_eq!(h.newest_token(LineAddr::new(i)), 1000 + i, "line {i}");
        }
    }

    #[test]
    fn drain_persists_everything_and_updates_dram() {
        let mut h = hier();
        for i in 0..50 {
            h.access(CoreId((i % 4) as u16), MemOp::Store, addr(i), 500 + i);
        }
        h.take_events();
        let drained = h.drain();
        // Every line's final version must be persisted by *someone*
        // (either an earlier coherence/capacity event or the drain).
        for vd in 0..2 {
            assert_eq!(h.min_unpersisted(VdId(vd)), None);
        }
        assert!(!drained.is_empty());
        for i in 0..50 {
            assert_eq!(h.dram().peek(LineAddr::new(i)), 500 + i, "line {i}");
        }
    }

    #[test]
    fn wrap_around_group_flush_fires_and_preserves_data() {
        // A line written at a Lower-group epoch must be flushed out of the
        // hierarchy when epochs re-enter the Lower group one full 16-bit
        // wrap later (its tag would otherwise alias as "new").
        let cfg = small_cfg();
        let cst = CstConfig {
            initial_epoch: 2,
            ..CstConfig::default()
        };
        let mut h = VersionedHierarchy::new(&cfg, cst);
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.take_events();

        let mut flushed = Vec::new();
        // Advance VD 0 through two group crossings (into Upper at 32768,
        // back into Lower at 65536).
        while h.epoch_abs(VdId(0)) < 2 * HALF_SPACE + 1 {
            h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
            for e in h.take_events() {
                if let CstEvent::Version(v) = e {
                    if v.reason == EvictReason::EpochFlush {
                        flushed.push(v);
                    }
                }
            }
            if h.epoch_abs(VdId(0)) == HALF_SPACE + 5 {
                // While in the Upper group the Lower-tagged line is still
                // resident and current.
                assert_eq!(h.wrap_flushes(), 1);
                assert_eq!(h.newest_token(LineAddr::new(1)), 10);
                assert!(flushed.is_empty(), "nothing tagged Upper existed");
            }
        }
        assert_eq!(h.wrap_flushes(), 2);
        assert_eq!(flushed.len(), 1, "the old Lower-group version flushed");
        assert_eq!(flushed[0].token, 10);
        assert_eq!(flushed[0].abs_epoch, 2);
        // The data survived the flush (home in DRAM) and stays readable.
        assert_eq!(h.newest_token(LineAddr::new(1)), 10);
        // New stores after the wrap work normally.
        h.access(CoreId(0), MemOp::Store, addr(3), 30);
        assert_eq!(h.newest_token(LineAddr::new(3)), 30);
    }

    #[test]
    fn functional_correctness_mixed_sharing() {
        let mut h = hier();
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
            if i % 500 == 499 {
                let vd = VdId(((i / 500) % 2) as u16);
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                h.tag_walk(vd);
            }
        }
        for (line, expect) in model {
            assert_eq!(h.newest_token(LineAddr::new(line)), expect, "line {line}");
        }
    }

    #[test]
    fn version_stream_has_no_duplicate_line_epoch_after_walk() {
        // Once a (line, epoch) version is persisted by the walker, later
        // evictions must not re-emit it.
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(4), 44);
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (w, _) = h.tag_walk(VdId(0));
        assert_eq!(w.len(), 1);
        // Remote load later: the version is persisted; only a clean copy
        // transfer happens.
        h.access(CoreId(2), MemOp::Load, addr(4), 0);
        let v = versions(&mut h);
        assert!(
            v.iter()
                .all(|x| !(x.line == LineAddr::new(4) && x.abs_epoch == 1)),
            "persisted version re-emitted: {v:?}"
        );
    }

    // ---- Seeded differential walks -----------------------------------
    //
    // `tag_walk` and `drain` against brute-force scans (the list-then-
    // re-probe algorithms, with min-ver from a full rescan) on twin
    // hierarchies fed the same seeded stream: same versions in the same
    // order, same min-ver, same cache/DRAM state afterwards.

    const UNIVERSE: u64 = 400;

    fn dump(h: &VersionedHierarchy) -> String {
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
            let _ = writeln!(out, "{l} dram {} {:?}", h.dram.peek(l), h.dram.oid(l));
        }
        let _ = writeln!(out, "epochs {:?} dram writes {}", h.vd_abs, h.dram.writes());
        out
    }

    fn scan_tag_walk(h: &mut VersionedHierarchy, vd: VdId) -> (Vec<VersionOut>, u64) {
        let cur_tag = h.epoch_tag(vd);
        let cur_abs = h.vd_abs[vd.index()];
        let mut out = Vec::new();
        let mut arrays: Vec<&mut CacheArray<VLine>> = vec![&mut h.l2s[vd.index()]];
        let cpv = h.cfg.cores_per_vd as usize;
        arrays.extend(h.l1s[vd.index() * cpv..][..cpv].iter_mut());
        for arr in arrays {
            for line in arr.lines_where(|_, m| m.unpersisted_version() && m.oid != cur_tag) {
                let m = arr.peek_mut(line).unwrap();
                m.persisted = true;
                out.push(VersionOut {
                    line,
                    token: m.token,
                    abs_epoch: crate::epoch::reconstruct_abs(m.oid, cur_abs),
                    reason: EvictReason::TagWalk,
                });
            }
        }
        (out, h.min_unpersisted(vd).unwrap_or(cur_abs))
    }

    fn scan_drain(h: &mut VersionedHierarchy) -> Vec<VersionOut> {
        let mut out = Vec::new();
        for vdix in 0..h.l2s.len() {
            let vd = VdId(vdix as u16);
            let to = h.vd_abs[vdix] + 1;
            h.advance_epoch(vd, to, AdvanceCause::Finish);
            let (walked, _) = scan_tag_walk(h, vd);
            out.extend(walked.into_iter().map(|v| VersionOut {
                reason: EvictReason::Drain,
                ..v
            }));
        }
        for core in 0..h.l1s.len() {
            for line in h.l1s[core].lines_where(|_, m| m.state.is_dirty()) {
                let m = *h.l1s[core].peek(line).unwrap();
                let vd = core / h.cfg.cores_per_vd as usize;
                let l2 = h.l2s[vd].peek_mut(line).unwrap();
                if m.oid.at_least(l2.oid) {
                    (l2.token, l2.oid, l2.state, l2.persisted) =
                        (m.token, m.oid, MesiState::M, true);
                }
                h.l1s[core].peek_mut(line).unwrap().state = MesiState::E;
            }
        }
        let newer = |a: u16, b: u16| Epoch(a).newer_than(Epoch(b));
        for vdix in 0..h.l2s.len() {
            for line in h.l2s[vdix].lines_where(|_, m| m.state.is_dirty()) {
                let m = h.l2s[vdix].peek_mut(line).unwrap();
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.oid);
                let s = h.slice_of(line);
                if let Some(c) = h.llc[s].peek_mut(line) {
                    (c.token, c.oid, c.dirty) = (t, oid, false);
                }
                h.dram.write(line, t);
                h.dram.update_oid(line, oid.raw(), newer);
            }
        }
        for s in 0..h.llc.len() {
            for line in h.llc[s].lines_where(|_, m| m.dirty) {
                let m = h.llc[s].peek_mut(line).unwrap();
                m.dirty = false;
                let (t, oid) = (m.token, m.oid);
                h.dram.write(line, t);
                h.dram.update_oid(line, oid.raw(), newer);
            }
        }
        out
    }

    fn differential_walks(protocol: nvsim::config::Protocol, seed: u64) {
        let cfg = SimConfig::builder()
            .cores(8, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(150)
            .protocol(protocol)
            .build()
            .unwrap();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        let mut twin = VersionedHierarchy::new(&cfg, CstConfig::default());
        let mut rng = nvsim::rng::Rng64::seed_from_u64(seed);
        let mut walked = 0;
        for step in 0..6_000u64 {
            let core = CoreId(rng.gen_range(0..8u16));
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
            let a = h.access(core, op, addr(line), step + 1);
            assert_eq!(a, twin.access(core, op, addr(line), step + 1));
            assert_eq!(h.take_events(), twin.take_events(), "step {step}");
            match rng.gen_range(0..30u32) {
                0..=2 => {
                    let vd = VdId(rng.gen_range(0..4u16));
                    let got = h.tag_walk(vd);
                    assert_eq!(got, scan_tag_walk(&mut twin, vd), "walk at step {step}");
                    walked += got.0.len();
                }
                3 => {
                    let vd = VdId(rng.gen_range(0..4u16));
                    h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                    twin.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                    assert_eq!(h.take_events(), twin.take_events());
                }
                _ => {}
            }
            if step % 500 == 0 {
                assert_eq!(dump(&h), dump(&twin), "state diverged at step {step}");
            }
        }
        assert!(walked > 50, "walks had work ({walked})");
        let drained = h.drain();
        assert!(!drained.is_empty());
        assert_eq!(drained, scan_drain(&mut twin));
        assert_eq!(h.take_events(), twin.take_events());
        assert_eq!(dump(&h), dump(&twin));
    }

    #[test]
    fn walks_match_brute_force_scans_mesi() {
        for seed in [1, 2, 3] {
            differential_walks(nvsim::config::Protocol::Mesi, seed);
        }
    }

    #[test]
    fn walks_match_brute_force_scans_moesi() {
        for seed in [1, 2, 3] {
            differential_walks(nvsim::config::Protocol::Moesi, seed);
        }
    }
}
