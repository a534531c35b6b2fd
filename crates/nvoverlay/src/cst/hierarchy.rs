//! The version-tagged cache hierarchy — NVOverlay's Version Access
//! Protocol (paper §IV) as a line policy over `nvsim`'s one MESI/MOESI
//! engine ([`nvsim::coherence`]).
//!
//! The engine is the baseline protocol, unchanged (private L1s, per-VD
//! inclusive L2s, distributed non-inclusive LLC slices, sparse
//! directory). [`VersionPolicy`] tags every copy with a 16-bit OID and a
//! *persisted* bit and supplies the protocol's hooks:
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
//!
//! On top of the engine, [`VersionedHierarchy`] adds:
//!
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
use nvsim::addr::{LineAddr, Token, VdId};
use nvsim::clock::Cycle;
use nvsim::coherence::{Coherence, Line, LinePolicy, LlcLine, Response};
use nvsim::config::SimConfig;
use nvsim::mesi::MesiState;
use nvsim::noc::MsgKind;
use nvsim::stats::EvictReason;
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

/// The version tag every L1, L2 and LLC copy carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VTag {
    /// Epoch of the version's last store.
    pub oid: Epoch,
    /// The version has already been handed to the OMC.
    pub persisted: bool,
}

/// An L1 or L2 copy under the versioned policy.
type VLine = Line<VTag>;

/// A dirty copy whose version has not reached the OMC.
fn unpersisted(l: &VLine) -> bool {
    l.state.is_dirty() && !l.tag.persisted
}

/// What a response tells the requester: the absolute epoch its RV
/// denotes, and whether the version has already been handed to the OMC
/// (false only for a cache-to-cache transferred unpersisted version).
#[derive(Clone, Copy, Debug)]
pub struct Rv {
    abs: u64,
    persisted: bool,
}

/// NVOverlay's Version Access Protocol as a line policy: per-VD epochs,
/// the event stream, and the wrap-around state.
#[derive(Debug)]
pub struct VersionPolicy {
    cst: CstConfig,
    vd_abs: Vec<u64>,
    events: Vec<CstEvent>,
    wrap_flushes: u64,
}

type Core = Coherence<VersionPolicy>;

impl VersionPolicy {
    /// Reconstructs a line tag into an absolute epoch relative to the VD
    /// currently holding the line.
    fn abs_of(&self, tag: Epoch, vd: VdId) -> u64 {
        crate::epoch::reconstruct_abs(tag, self.vd_abs[vd.index()])
    }

    fn emit(&mut self, line: LineAddr, l: &VLine, vd: VdId, reason: EvictReason) {
        let abs_epoch = self.abs_of(l.tag.oid, vd);
        self.events.push(CstEvent::Version(VersionOut {
            line,
            token: l.token,
            abs_epoch,
            reason,
        }));
    }
}

fn newer_oid(a: u16, b: u16) -> bool {
    Epoch(a).newer_than(Epoch(b))
}

impl LinePolicy for VersionPolicy {
    type Tag = VTag;
    type Ver = Rv;
    type Event = CstEvent;

    fn events_mut(&mut self) -> &mut Vec<CstEvent> {
        &mut self.events
    }

    fn settled(tag: VTag) -> VTag {
        VTag {
            persisted: true,
            ..tag
        }
    }

    fn dram_tag(raw: Option<u16>) -> VTag {
        VTag {
            oid: Epoch(raw.unwrap_or(0)),
            persisted: true,
        }
    }

    fn respond(&self, tag: VTag, vd: VdId) -> Rv {
        Rv {
            abs: self.abs_of(tag.oid, vd),
            persisted: tag.persisted,
        }
    }

    fn install(rv: &Rv) -> VTag {
        VTag {
            oid: Epoch::from_abs(rv.abs),
            persisted: rv.persisted,
        }
    }

    fn refill(l2: &mut VLine, r: &Response<Rv>) {
        l2.token = r.token;
        l2.tag = Self::install(&r.ver);
    }

    /// Coherence-driven epoch update (§IV-B2), and the `min-ver` hand-off
    /// of a persistence obligation that arrived cache-to-cache.
    fn arrive(h: &mut Core, vd: VdId, r: &Response<Rv>) -> Cycle {
        let stall = sync_epoch(h, vd, r.ver.abs);
        if r.state == MesiState::M && !r.ver.persisted {
            h.policy.events.push(CstEvent::DirtyTransfer {
                vd,
                abs_epoch: r.ver.abs,
            });
        }
        stall
    }

    /// An immutable old version (dirty, unpersisted, older epoch) must be
    /// store-evicted first (§IV-A1).
    fn store_evicts(&self, l: &VLine, vd: VdId) -> bool {
        unpersisted(l) && l.tag.oid != Epoch::from_abs(self.vd_abs[vd.index()])
    }

    fn commit(&mut self, l: &mut VLine, vd: VdId, _: LineAddr, token: Token) {
        *l = Line {
            state: MesiState::M,
            token,
            tag: VTag {
                oid: Epoch::from_abs(self.vd_abs[vd.index()]),
                persisted: false,
            },
        };
    }

    fn budget_expired(h: &mut Core, vd: VdId) -> Cycle {
        let to = h.policy.vd_abs[vd.index()] + 1;
        advance_epoch(h, vd, to, AdvanceCause::StoreBudget)
    }

    /// §IV-A2 PUTX: an unpersisted L1 version landing on an older
    /// unpersisted L2 version evicts that one to the OMC first. A
    /// persisted (DRAM-dirty) L1 copy only folds its data into the L2.
    fn putx(h: &mut Core, vd: VdId, line: LineAddr, l1: VLine, reason: EvictReason) {
        let l2 = h.l2s[vd.index()]
            .peek_mut(line)
            .expect("inclusion: L2 must hold every L1 line");
        let mut displaced = None;
        if unpersisted(&l1) {
            debug_assert!(
                !l2.state.is_dirty() || l1.tag.oid.at_least(l2.tag.oid),
                "L1 versions are never older than the L2 version (§IV-A2 invariant)"
            );
            displaced = (unpersisted(l2) && l1.tag.oid != l2.tag.oid).then_some(*l2);
        } else if !l1.tag.oid.at_least(l2.tag.oid) {
            return;
        }
        *l2 = Line {
            state: MesiState::M,
            ..l1
        };
        if let Some(d) = displaced {
            h.policy.emit(line, &d, vd, reason);
        }
    }

    /// The newest version is the dirty L1 copy unless the L2's is newer;
    /// an unpersisted L2 version it supersedes goes to the OMC.
    fn merge(
        h: &mut Core,
        vd: VdId,
        line: LineAddr,
        l2: VLine,
        l1: Option<VLine>,
        reason: EvictReason,
    ) -> VLine {
        let mut newest = l2;
        let mut dirty = l2.state.is_dirty();
        if let Some(m) = l1 {
            if m.tag.oid.newer_than(l2.tag.oid) {
                if unpersisted(&l2) {
                    h.policy.emit(line, &l2, vd, reason);
                }
                newest.token = m.token;
                newest.tag = m.tag;
                dirty = true;
            } else if m.tag.oid == l2.tag.oid {
                newest.token = m.token;
                newest.tag.persisted &= m.tag.persisted;
                dirty = true;
            }
        }
        if !dirty {
            newest.tag.persisted = true;
        } else if !newest.state.is_dirty() {
            newest.state = MesiState::M;
        }
        newest
    }

    fn transfer_state(dirty: bool) -> MesiState {
        if dirty {
            MesiState::M
        } else {
            MesiState::E
        }
    }

    /// An unpersisted newest version is persisted on its way down; after
    /// an L2 capacity eviction it bypasses the LLC to the OMC (§IV-A2).
    fn write_back(h: &mut Core, vd: VdId, line: LineAddr, newest: VLine, reason: EvictReason) {
        if unpersisted(&newest) {
            if reason == EvictReason::CapacityMiss {
                h.noc.send(MsgKind::OmcEvict);
            }
            h.policy.emit(line, &newest, vd, reason);
        }
        h.llc_install(
            line,
            LlcLine {
                dirty: newest.state.is_dirty(),
                token: newest.token,
                tag: Self::settled(newest.tag),
            },
        );
    }

    /// LLC victims' versions were persisted when they left their VD
    /// (§IV-A4); only the DRAM OID tag follows them home.
    fn llc_victim(h: &mut Core, line: LineAddr, victim: LlcLine<VTag>) {
        h.dram.update_oid(line, victim.tag.oid.raw(), newer_oid);
    }
}

/// Advances `vd` to absolute epoch `to`. Returns the stall charged to
/// the VD's in-flight access.
fn advance_epoch(h: &mut Core, vd: VdId, to: u64, cause: AdvanceCause) -> Cycle {
    let from = h.policy.vd_abs[vd.index()];
    debug_assert!(to > from, "epochs only move forward");
    // The first VD to enter a half-space generation flushes its group's
    // previous generation system-wide; VDs following it there find only
    // fresh tags in that group.
    let newest = h.policy.vd_abs.iter().copied().max().unwrap_or(from);
    if to / HALF_SPACE > newest / HALF_SPACE {
        wrap_flush(h, to);
    }
    h.policy.vd_abs[vd.index()] = to;
    h.store_counts[vd.index()] = 0;
    h.policy.events.push(CstEvent::EpochAdvanced {
        vd,
        from_abs: from,
        to_abs: to,
        cause,
    });
    h.policy.cst.epoch_advance_stall
}

/// Synchronizes `vd` to a response's RV if newer (Lamport rule).
/// Spurious "future" RVs from stale DRAM tags are clamped to the
/// system-wide maximum epoch: causality guarantees no genuine RV can
/// exceed the epoch of the VD that produced it.
fn sync_epoch(h: &mut Core, vd: VdId, rv_abs: u64) -> Cycle {
    let cur = h.policy.vd_abs[vd.index()];
    let max_abs = h.policy.vd_abs.iter().copied().max().unwrap_or(cur);
    let to = rv_abs.min(max_abs);
    if to > cur {
        return advance_epoch(h, vd, to, AdvanceCause::CoherenceSync);
    }
    0
}

/// §IV-D group flush: before epochs enter a recycled half-space
/// generation, every cache line still tagged in that half-space is
/// flushed out of the hierarchy (unpersisted versions to the OMC, dirty
/// data home to DRAM), and DRAM tags of the group are scrubbed.
fn wrap_flush(h: &mut Core, entering_abs: u64) {
    h.policy.wrap_flushes += 1;
    let entering_group = Epoch::from_abs(entering_abs).group();
    // A tag in the entering group is, by the invariant this flush
    // maintains, from that group's *previous* generation: resolve it
    // strictly into the past (the normal ±half-space reconstruction would
    // read it as "future").
    let gen_base = entering_abs >> 16 << 16;
    let stale_abs = |tag: Epoch| {
        let cand = gen_base + tag.raw() as u64;
        if cand >= entering_abs {
            cand.saturating_sub(1 << 16)
        } else {
            cand
        }
    };
    let stale_tag = |_: LineAddr, m: &VLine| m.tag.oid.group() == entering_group;
    for vdix in 0..h.l2s.len() {
        let vd = VdId(vdix as u16);
        // Lines whose L2 copy or any L1 copy is tagged in the entering
        // group leave the VD whole.
        let mut stale: Vec<LineAddr> = h.l2s[vdix].lines_where(stale_tag);
        for c in h.local_cores(vd) {
            for l in h.l1s[c as usize].lines_where(stale_tag) {
                if !stale.contains(&l) {
                    stale.push(l);
                }
            }
        }
        for line in stale {
            let cores = h.local_cores(vd);
            let l1s: Vec<VLine> = cores
                .filter_map(|c| h.l1s[c as usize].remove(line))
                .collect();
            let mut dirty = false;
            // The L2 copy first: an L1 version is never older, so the
            // newest data reaches DRAM last.
            for m in h.l2s[vdix].remove(line).into_iter().chain(l1s) {
                if unpersisted(&m) {
                    h.policy.events.push(CstEvent::Version(VersionOut {
                        line,
                        token: m.token,
                        abs_epoch: stale_abs(m.tag.oid),
                        reason: EvictReason::EpochFlush,
                    }));
                }
                if m.state.is_dirty() {
                    h.dram.write(line, m.token);
                    dirty = true;
                }
            }
            if dirty {
                // The VD's data is authoritative: an LLC copy left behind
                // by an E grant that was silently upgraded is stale now.
                let s = h.slice_of(line);
                h.llc[s].remove(line);
            }
            h.dir.remove_node(line, vd.0);
        }
    }
    for s in 0..h.llc.len() {
        for line in h.llc[s].lines_where(|_, m| m.tag.oid.group() == entering_group) {
            let m = h.llc[s].remove(line).expect("listed");
            if m.dirty {
                h.dram.write(line, m.token);
            }
        }
    }
    let boundary = Epoch::from_abs(entering_abs / HALF_SPACE * HALF_SPACE);
    h.dram
        .scrub_oids(|t| Epoch(t).group() == entering_group, boundary.raw());
}

/// The CST versioned hierarchy: the coherence engine under
/// [`VersionPolicy`], plus the tag walker, the drain and the epoch
/// controls. The engine's accessors (`config`, `counters`, `noc`,
/// `dram`, `import_lines`, `access`, ...) are reached through `Deref`.
pub struct VersionedHierarchy(Core);

impl std::ops::Deref for VersionedHierarchy {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.0
    }
}

impl std::ops::DerefMut for VersionedHierarchy {
    fn deref_mut(&mut self) -> &mut Core {
        &mut self.0
    }
}

impl nvsim::memsys::Machine for VersionedHierarchy {
    type Policy = VersionPolicy;
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
        let policy = VersionPolicy {
            vd_abs: vec![cst.initial_epoch.max(1); cfg.vd_count() as usize],
            cst,
            events: Vec::new(),
            wrap_flushes: 0,
        };
        Self(Coherence::new(cfg, policy))
    }

    /// The CST configuration in force.
    pub fn cst_config(&self) -> &CstConfig {
        &self.policy.cst
    }

    /// A VD's current absolute epoch.
    pub fn epoch_abs(&self, vd: VdId) -> u64 {
        self.policy.vd_abs[vd.index()]
    }

    /// A VD's current 16-bit epoch tag.
    pub fn epoch_tag(&self, vd: VdId) -> Epoch {
        Epoch::from_abs(self.epoch_abs(vd))
    }

    /// Every VD's current absolute epoch.
    pub(crate) fn epochs_abs(&self) -> &[u64] {
        &self.policy.vd_abs
    }

    /// Group-crossing wrap flushes performed so far.
    pub fn wrap_flushes(&self) -> u64 {
        self.policy.wrap_flushes
    }

    /// Publishes CST-side metrics under `prefix`: per-VD epoch gauges,
    /// wrap flushes, NoC message counts, and DRAM OID footprint.
    pub fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.set_counter(&p("wrap_flushes"), self.policy.wrap_flushes);
        for (vd, abs) in self.policy.vd_abs.iter().enumerate() {
            reg.set_gauge(&p(&format!("vd{vd}.epoch_abs")), *abs as f64);
        }
        for kind in MsgKind::ALL {
            reg.set_counter(&p(&format!("noc.{kind}")), self.noc.count(kind));
        }
        reg.set_counter(&p("noc.total"), self.noc.total());
        reg.set_counter(&p("dram.reads"), self.dram.reads());
        reg.set_counter(&p("dram.oid_tags"), self.dram.oid_tag_count() as u64);
    }

    /// Drains the event buffer (system-side consumption).
    pub fn take_events(&mut self) -> Vec<CstEvent> {
        std::mem::take(&mut self.policy.events)
    }

    /// Advances a VD's epoch by one for an explicit mark or the system's
    /// policy. Returns the stall.
    pub fn advance_epoch_explicit(&mut self, vd: VdId, cause: AdvanceCause) -> Cycle {
        let to = self.epoch_abs(vd) + 1;
        advance_epoch(&mut self.0, vd, to, cause)
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
        let cur_abs = self.epoch_abs(vd);
        let h = &mut self.0;
        let mut out = Vec::new();
        let mut walk = |arr: &mut nvsim::cache::CacheArray<VLine>| {
            for (line, m) in arr.iter_mut() {
                if unpersisted(m) && m.tag.oid != cur_tag {
                    m.tag.persisted = true;
                    out.push(VersionOut {
                        line,
                        token: m.token,
                        abs_epoch: crate::epoch::reconstruct_abs(m.tag.oid, cur_abs),
                        reason: EvictReason::TagWalk,
                    });
                }
            }
        };
        walk(&mut h.l2s[vd.index()]);
        // The hardware walker is L2-level; the VD's few L1s are walked too
        // so min-ver is exact (see DESIGN.md §6).
        for c in h.local_cores(vd) {
            walk(&mut h.l1s[c as usize]);
        }
        debug_assert!(
            self.min_unpersisted(vd).is_none_or(|m| m == cur_abs),
            "the walk left an older version unpersisted"
        );
        (out, cur_abs)
    }

    /// Smallest absolute epoch of any unpersisted version in the VD.
    pub fn min_unpersisted(&self, vd: VdId) -> Option<u64> {
        let cur_abs = self.epoch_abs(vd);
        let l1s = self.local_cores(vd).map(|c| &self.l1s[c as usize]);
        std::iter::once(&self.l2s[vd.index()])
            .chain(l1s)
            .flat_map(|arr| arr.iter())
            .filter(|(_, m)| unpersisted(m))
            .map(|(_, m)| crate::epoch::reconstruct_abs(m.tag.oid, cur_abs))
            .min()
    }

    /// Final drain: advances every VD one epoch and persists *all*
    /// unpersisted versions (including current-epoch ones). Dirty data
    /// also goes home to DRAM. Returns the persisted versions. Each
    /// array is walked once, in place, in tag-walk order.
    pub fn drain(&mut self) -> Vec<VersionOut> {
        let mut out = Vec::new();
        for vdix in 0..self.l2s.len() {
            let vd = VdId(vdix as u16);
            self.advance_epoch_explicit(vd, AdvanceCause::Finish);
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
        let h = &mut self.0;
        let cores_per_vd = h.cfg.cores_per_vd as usize;
        for (core, l1) in h.l1s.iter_mut().enumerate() {
            let l2 = &mut h.l2s[core / cores_per_vd];
            for (line, m) in l1.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                let l2m = l2.peek_mut(line).expect("inclusion");
                if m.tag.oid.at_least(l2m.tag.oid) {
                    *l2m = Line {
                        state: MesiState::M,
                        token: m.token,
                        tag: VersionPolicy::settled(m.tag),
                    };
                }
                m.state = MesiState::E;
            }
        }
        let slices = h.cfg.llc_slices as u64;
        for l2 in &mut h.l2s {
            for (line, m) in l2.iter_mut() {
                if !m.state.is_dirty() {
                    continue;
                }
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.tag.oid);
                // Reconcile any stale LLC copy: the owning VD's data is
                // authoritative (a dirty LLC copy can survive an E-grant
                // fetch that was silently upgraded, and must not regress
                // the DRAM image in the pass below).
                if let Some(c) = h.llc[(line.raw() % slices) as usize].peek_mut(line) {
                    c.token = t;
                    c.tag.oid = oid;
                    c.dirty = false;
                }
                h.dram.write(line, t);
                h.dram.update_oid(line, oid.raw(), newer_oid);
            }
        }
        for slice in &mut h.llc {
            for (line, m) in slice.iter_mut() {
                if m.dirty {
                    m.dirty = false;
                    h.dram.write(line, m.token);
                    h.dram.update_oid(line, m.tag.oid.raw(), newer_oid);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for VersionedHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedHierarchy")
            .field("cores", &self.cfg.cores)
            .field("vds", &self.cfg.vd_count())
            .field("epochs", &self.policy.vd_abs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::{Addr, CoreId};
    use nvsim::cache::CacheArray;
    use nvsim::memsys::MemOp;

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
    fn wrap_flush_writes_the_newest_data_home() {
        // Two lines still cached when their group comes round again:
        // Y has an older dirty L2 version under a newer dirty L1 one (a
        // store-eviction), and X sits dirty in VD 1's L1 beside a stale
        // dirty LLC copy (an E grant from the LLC, then a silent store).
        // The flush must leave the newest data in DRAM for both.
        let cst = CstConfig {
            initial_epoch: 2,
            ..CstConfig::default()
        };
        let mut h = VersionedHierarchy::new(&small_cfg(), cst);
        h.access(CoreId(0), MemOp::Store, addr(1), 1);
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.access(CoreId(0), MemOp::Store, addr(1), 2);
        h.access(CoreId(0), MemOp::Store, addr(2), 10);
        // Four more lines in X's L2 set push it down to the LLC.
        for k in 1..=4 {
            h.access(CoreId(0), MemOp::Store, addr(2 + 16 * k), 100 + k);
        }
        h.access(CoreId(2), MemOp::Load, addr(2), 0);
        h.access(CoreId(2), MemOp::Store, addr(2), 11);
        h.take_events();
        while h.epoch_abs(VdId(1)) < 2 * HALF_SPACE + 1 {
            for vd in [VdId(0), VdId(1)] {
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
            }
            h.take_events();
        }
        assert_eq!(h.wrap_flushes(), 2);
        assert_eq!(h.dram().peek(LineAddr::new(1)), 2);
        assert_eq!(h.dram().peek(LineAddr::new(2)), 11);
        assert_eq!(h.newest_token(LineAddr::new(2)), 11);
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
        let _ = writeln!(
            out,
            "epochs {:?} dram writes {}",
            h.epochs_abs(),
            h.dram.writes()
        );
        out
    }

    fn scan_tag_walk(h: &mut VersionedHierarchy, vd: VdId) -> (Vec<VersionOut>, u64) {
        let cur_tag = h.epoch_tag(vd);
        let cur_abs = h.epoch_abs(vd);
        let mut out = Vec::new();
        let c = &mut h.0;
        let cpv = c.cfg.cores_per_vd as usize;
        let mut arrays: Vec<&mut CacheArray<VLine>> = vec![&mut c.l2s[vd.index()]];
        arrays.extend(c.l1s[vd.index() * cpv..][..cpv].iter_mut());
        for arr in arrays {
            for line in arr.lines_where(|_, m| unpersisted(m) && m.tag.oid != cur_tag) {
                let m = arr.peek_mut(line).unwrap();
                m.tag.persisted = true;
                out.push(VersionOut {
                    line,
                    token: m.token,
                    abs_epoch: crate::epoch::reconstruct_abs(m.tag.oid, cur_abs),
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
            let to = h.epoch_abs(vd) + 1;
            advance_epoch(&mut h.0, vd, to, AdvanceCause::Finish);
            let (walked, _) = scan_tag_walk(h, vd);
            out.extend(walked.into_iter().map(|v| VersionOut {
                reason: EvictReason::Drain,
                ..v
            }));
        }
        let h = &mut h.0;
        for core in 0..h.l1s.len() {
            for line in h.l1s[core].lines_where(|_, m| m.state.is_dirty()) {
                let m = *h.l1s[core].peek(line).unwrap();
                let vd = core / h.cfg.cores_per_vd as usize;
                let l2 = h.l2s[vd].peek_mut(line).unwrap();
                if m.tag.oid.at_least(l2.tag.oid) {
                    (l2.token, l2.tag.oid, l2.state, l2.tag.persisted) =
                        (m.token, m.tag.oid, MesiState::M, true);
                }
                h.l1s[core].peek_mut(line).unwrap().state = MesiState::E;
            }
        }
        for vdix in 0..h.l2s.len() {
            for line in h.l2s[vdix].lines_where(|_, m| m.state.is_dirty()) {
                let m = h.l2s[vdix].peek_mut(line).unwrap();
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (t, oid) = (m.token, m.tag.oid);
                let s = h.slice_of(line);
                if let Some(c) = h.llc[s].peek_mut(line) {
                    (c.token, c.tag.oid, c.dirty) = (t, oid, false);
                }
                h.dram.write(line, t);
                h.dram.update_oid(line, oid.raw(), newer_oid);
            }
        }
        for s in 0..h.llc.len() {
            for line in h.llc[s].lines_where(|_, m| m.dirty) {
                let m = h.llc[s].peek_mut(line).unwrap();
                m.dirty = false;
                let (t, oid) = (m.token, m.tag.oid);
                h.dram.write(line, t);
                h.dram.update_oid(line, oid.raw(), newer_oid);
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
