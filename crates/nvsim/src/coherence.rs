//! The one MESI/MOESI coherence engine, generic over a line policy.
//!
//! [`Coherence`] owns the machine every scheme runs on: private L1-Ds, one
//! shared inclusive L2 per Versioned Domain (L2 cluster), a distributed
//! **non-inclusive** LLC with a sparse directory (the organization the
//! paper assumes, §II-D), the NoC, DRAM and the access counters. It also
//! owns the whole access path: the single-probe L1 fast path and the
//! reference path it is checked against, L2 fills, directory GETS/GETX,
//! sibling-L1 resolution, owner strips and downgrades, clean
//! invalidations and LLC installs.
//!
//! What differs between schemes is a [`LinePolicy`], dispatched
//! statically:
//!
//! * the metadata a line carries beside its state and token
//!   ([`LinePolicy::Tag`]);
//! * the store-commit rule ([`LinePolicy::store_evicts`],
//!   [`LinePolicy::commit`], [`LinePolicy::budget_expired`]);
//! * how a VD gives a line up: the L1→L2 PUTX ([`LinePolicy::putx`]),
//!   folding its copies into the newest version ([`LinePolicy::merge`]),
//!   the ownership transfer ([`LinePolicy::transfer_state`]) and the
//!   write-back toward the LLC ([`LinePolicy::write_back`]);
//! * what a coherence response carries and what its arrival does
//!   ([`LinePolicy::respond`], [`LinePolicy::arrive`]);
//! * where dirty LLC victims go besides DRAM ([`LinePolicy::llc_victim`]);
//! * what the policy tells its scheme after an access
//!   ([`LinePolicy::Event`], drained once per access by
//!   [`crate::memsys::SchemeHooks`]).
//!
//! The baseline policy lives in [`crate::hierarchy`]; NVOverlay's version
//! access protocol is a policy in the `nvoverlay` crate. The engine never
//! asks which policy it serves: the baseline protocol is unchanged, and
//! versioning is hooks on it, as in the paper.

use crate::addr::{Addr, CoreId, LineAddr, Token, VdId};
use crate::cache::CacheArray;
use crate::clock::Cycle;
use crate::config::{Protocol, SimConfig};
use crate::directory::{DirEntry, Directory};
use crate::dram::Dram;
use crate::memsys::MemOp;
use crate::mesi::{MesiState, Permission};
use crate::noc::{MsgKind, Noc};
use crate::stats::{AccessCounters, EvictReason};
use std::fmt;
use std::sync::Arc;

/// One L1 or L2 copy of a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<T> {
    /// Coherence state.
    pub state: MesiState,
    /// Content.
    pub token: Token,
    /// Policy metadata (an epoch stamp, a version tag).
    pub tag: T,
}

/// One LLC copy of a line (the LLC is below the coherence protocol).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LlcLine<T> {
    /// Newer than the DRAM working copy.
    pub dirty: bool,
    /// Content.
    pub token: Token,
    /// Policy metadata of the version the LLC holds.
    pub tag: T,
}

/// A coherence response granting a line to a requesting VD.
#[derive(Clone, Copy, Debug)]
pub struct Response<V> {
    /// Content.
    pub token: Token,
    /// What the response tells the requester about the version.
    pub ver: V,
    /// State the requester's L2 installs.
    pub state: MesiState,
    /// The data is newer than the DRAM working copy.
    pub dirty: bool,
}

/// Everything a scheme's cache lines do differently: metadata, the
/// store-commit rule, how a VD gives a line up, response arrival and the
/// LLC-victim sink. Hooks that touch the machine take the whole engine.
pub trait LinePolicy: Sized {
    /// Metadata an L1, L2 or LLC copy carries beside its state and token.
    type Tag: Copy + fmt::Debug;
    /// What a coherence response carries about the version.
    type Ver: Copy;
    /// What the policy reports to its scheme (stores, write-backs, epoch
    /// changes); buffered until the scheme drains it.
    type Event;

    /// The buffer of events not yet drained.
    fn events_mut(&mut self) -> &mut Vec<Self::Event>;

    /// The tag of a copy that carries no persistence obligation: L1 fills,
    /// shared copies, LLC deposits.
    fn settled(tag: Self::Tag) -> Self::Tag;
    /// The tag DRAM supplies with a fill, from its raw OID tag if any.
    fn dram_tag(raw: Option<u16>) -> Self::Tag;
    /// The response version for a copy tagged `tag`, as seen from `vd`.
    fn respond(&self, tag: Self::Tag, vd: VdId) -> Self::Ver;
    /// The tag a fresh L2 fill installs from a response.
    fn install(ver: &Self::Ver) -> Self::Tag;
    /// Refreshes the token and tag of an L2 copy upgraded in place (the
    /// engine has already set its state).
    fn refill(l2: &mut Line<Self::Tag>, r: &Response<Self::Ver>);
    /// A response arrived at `vd`'s L2, before the line installs. Returns
    /// any stall charged to the access.
    fn arrive(h: &mut Coherence<Self>, vd: VdId, r: &Response<Self::Ver>) -> Cycle;

    /// Whether a store into the writable L1 copy `l` must first push the
    /// copy's version into the L2.
    fn store_evicts(&self, l: &Line<Self::Tag>, vd: VdId) -> bool;
    /// Retires a store into the writable L1 copy `l` in place.
    fn commit(&mut self, l: &mut Line<Self::Tag>, vd: VdId, line: LineAddr, token: Token);
    /// `vd` used up its per-epoch store budget (the engine has reset it).
    fn budget_expired(h: &mut Coherence<Self>, vd: VdId) -> Cycle;

    /// A dirty L1 copy `l1` comes down into the VD's L2 (the L2 holds the
    /// line by inclusion).
    fn putx(h: &mut Coherence<Self>, vd: VdId, line: LineAddr, l1: Line<Self::Tag>, r: EvictReason);
    /// Folds a VD's L2 copy and its dirty L1 copy, if any, into the VD's
    /// newest version; a dirty result has state `M` (or the L2's `O`).
    fn merge(
        h: &mut Coherence<Self>,
        vd: VdId,
        line: LineAddr,
        l2: Line<Self::Tag>,
        l1: Option<Line<Self::Tag>>,
        r: EvictReason,
    ) -> Line<Self::Tag>;
    /// The state a GETX requester installs when ownership moves
    /// cache-to-cache and the data is `dirty` relative to DRAM.
    fn transfer_state(dirty: bool) -> MesiState;
    /// `vd`'s newest version leaves toward the LLC (capacity eviction, or
    /// a MESI downgrade of dirty data): deposit it with
    /// [`Coherence::llc_install`] and report what the policy needs.
    fn write_back(
        h: &mut Coherence<Self>,
        vd: VdId,
        line: LineAddr,
        newest: Line<Self::Tag>,
        r: EvictReason,
    );
    /// A dirty LLC victim went home; DRAM already holds its token.
    fn llc_victim(h: &mut Coherence<Self>, line: LineAddr, victim: LlcLine<Self::Tag>);
}

/// The MESI/MOESI hierarchy, generic over its line policy. Fields are
/// public for the policy's own maintenance operations (walks, drains,
/// flushes); the access path is [`Coherence::access`].
pub struct Coherence<P: LinePolicy> {
    /// The configuration in force.
    pub cfg: Arc<SimConfig>,
    /// Private L1-Ds, one per core.
    pub l1s: Vec<CacheArray<Line<P::Tag>>>,
    /// Inclusive L2s, one per VD.
    pub l2s: Vec<CacheArray<Line<P::Tag>>>,
    /// Non-inclusive LLC slices.
    pub llc: Vec<CacheArray<LlcLine<P::Tag>>>,
    /// The sparse directory at the LLC: the VDs whose L2 holds each line.
    pub dir: Directory,
    /// The interconnect.
    pub noc: Noc,
    /// DRAM working memory.
    pub dram: Dram,
    /// Stores each VD retired in its current epoch.
    pub store_counts: Vec<u64>,
    /// Access counters.
    pub counters: AccessCounters,
    /// The line policy and its state.
    pub policy: P,
}

/// A structural coherence violation found by [`Coherence::check_structure`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An L1 copy sits outside its VD's L2 (inclusion).
    Inclusion {
        /// The core whose L1 holds the orphan.
        core: u16,
        /// The line.
        line: LineAddr,
    },
    /// An L2 holds a line the directory does not list it for.
    Unlisted {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
    },
    /// The directory lists a VD whose L2 does not hold the line.
    StaleSharer {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
    },
    /// A writable (M/E) L2 copy sits beside another VD's copy.
    WritableShared {
        /// The line.
        line: LineAddr,
        /// The VD holding it writable.
        writer_vd: u16,
        /// Another VD holding a copy.
        other_vd: u16,
    },
    /// Two VDs hold dirty (M/O) L2 copies of one line.
    MultipleDirty {
        /// The line.
        line: LineAddr,
        /// Two of the VDs.
        vds: (u16, u16),
    },
    /// Two L1s of one VD hold dirty copies of one line.
    MultipleWriters {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
    },
}

impl Violation {
    /// The line the violation concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            Violation::Inclusion { line, .. }
            | Violation::Unlisted { line, .. }
            | Violation::StaleSharer { line, .. }
            | Violation::WritableShared { line, .. }
            | Violation::MultipleDirty { line, .. }
            | Violation::MultipleWriters { line, .. } => line,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Inclusion { core, line } => {
                write!(
                    f,
                    "inclusion broken: core{core} L1 holds {line} without an L2 copy"
                )
            }
            Violation::Unlisted { vd, line } => {
                write!(
                    f,
                    "L2[{vd}] holds {line} but the directory does not list it"
                )
            }
            Violation::StaleSharer { vd, line } => {
                write!(
                    f,
                    "the directory lists vd{vd} for {line} but its L2 does not hold it"
                )
            }
            Violation::WritableShared {
                line,
                writer_vd,
                other_vd,
            } => write!(
                f,
                "{line} writable in vd{writer_vd} while vd{other_vd} holds a copy"
            ),
            Violation::MultipleDirty { line, vds } => {
                write!(f, "{line} dirty in the L2s of vd{} and vd{}", vds.0, vds.1)
            }
            Violation::MultipleWriters { vd, line } => {
                write!(f, "multiple dirty L1 copies of {line} in vd{vd}")
            }
        }
    }
}

impl<P: LinePolicy> Coherence<P> {
    /// Builds the machine for a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: Arc<SimConfig>, policy: P) -> Self {
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
            dir: Directory::new(),
            noc: Noc::new(cfg.noc_hop_latency),
            dram: Dram::new(cfg.dram_latency, cfg.dram_oid_superblock_lines),
            store_counts: vec![0; vds],
            counters: AccessCounters::default(),
            policy,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The VD a core belongs to.
    pub fn vd_of(&self, core: CoreId) -> VdId {
        VdId(core.0 / self.cfg.cores_per_vd)
    }

    /// The LLC slice homing `line`.
    pub fn slice_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.cfg.llc_slices as u64) as usize
    }

    /// The cores of a VD.
    pub fn local_cores(&self, vd: VdId) -> std::ops::Range<u16> {
        let base = vd.0 * self.cfg.cores_per_vd;
        base..base + self.cfg.cores_per_vd
    }

    /// Access counters (hits per level, etc.).
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The NoC model (traffic accounting).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// The DRAM working memory.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Performs one access. Returns `(latency, stall, value)`: the latency
    /// including any stall the policy charged, that stall, and the value
    /// loaded or stored.
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

        // L1 hit with sufficient permission. The fast path's one
        // `get_mut` probe both classifies the hit and yields the slot a
        // store commits into; the reference path probes again. Everything
        // observable (counters, LRU, events, budgets) is identical.
        if self.cfg.replay_fast_path {
            if let Some(l) = self.l1s[core.index()].get_mut(line) {
                if perm.satisfied_by(l.state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Load {
                        return (lat, 0, l.token);
                    }
                    debug_assert!(l.state.is_writable(), "store commit requires M/E");
                    let stall = if self.policy.store_evicts(l, vd) {
                        self.commit_store(core, vd, line, token)
                    } else {
                        self.policy.commit(l, vd, line, token);
                        self.count_store(vd)
                    };
                    return (lat + stall, stall, token);
                }
            }
        } else {
            let hit = self.l1s[core.index()].get(line).map(|l| (l.state, l.token));
            if let Some((state, value)) = hit {
                if perm.satisfied_by(state) {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Load {
                        return (lat, 0, value);
                    }
                    let stall = self.commit_store(core, vd, line, token);
                    return (lat + stall, stall, token);
                }
            }
        }

        // L1 miss (or upgrade): go to the L2.
        lat += self.cfg.l2.latency;
        let (extra, mut stall) = self.ensure_l2(vd, line, perm);
        lat += extra;
        // Resolve sibling L1 copies. After a load-resolve siblings keep S
        // copies, so the fill must be S too (an E grant beside a live
        // sharer would let a later store skip the sibling invalidation).
        let (sib_lat, sibling_retains) = self.resolve_sibling_l1s(core, vd, line, op);
        lat += sib_lat;

        let l2 = *self.l2s[vd.index()]
            .peek(line)
            .expect("L2 must hold the line after ensure_l2 (inclusion)");
        let state = match op {
            MemOp::Load if sibling_retains => MesiState::S,
            MemOp::Load => match l2.state {
                MesiState::M | MesiState::E => MesiState::E,
                // The L2 keeps the dirty Owned copy; L1s read it Shared.
                MesiState::S | MesiState::O => MesiState::S,
                MesiState::I => unreachable!("ensure_l2 grants at least S"),
            },
            MemOp::Store => MesiState::E,
        };
        // Fill (or upgrade) and, for stores, retire in one pass: the
        // commit mutates the line the fill places. A fill is settled, so
        // it never store-evicts, and the victim's write-back touches
        // another line, so committing before the insert is
        // observationally the fill-then-commit sequence.
        let mut fill = Line {
            state,
            token: l2.token,
            tag: P::settled(l2.tag),
        };
        let victim = match self.l1s[core.index()].peek_mut(line) {
            Some(l) => {
                debug_assert!(!l.state.is_dirty(), "upgrades start from a clean state");
                *l = fill;
                if op == MemOp::Store {
                    self.policy.commit(l, vd, line, token);
                }
                None
            }
            None => {
                if op == MemOp::Store {
                    self.policy.commit(&mut fill, vd, line, token);
                }
                self.l1s[core.index()].insert(line, fill)
            }
        };
        if let Some((vline, vmeta)) = victim.filter(|(_, m)| m.state.is_dirty()) {
            P::putx(self, vd, vline, vmeta, EvictReason::CapacityMiss);
        }
        if op == MemOp::Store {
            stall += self.count_store(vd);
            return (lat + stall, stall, token);
        }
        (lat + stall, stall, l2.token)
    }

    /// Retires a store into a writable L1 copy through the reference
    /// path: store-evict the old version if the policy says so, then
    /// commit.
    fn commit_store(&mut self, core: CoreId, vd: VdId, line: LineAddr, token: Token) -> Cycle {
        let old = *self.l1s[core.index()]
            .peek(line)
            .expect("store commit requires a resident L1 line");
        debug_assert!(old.state.is_writable(), "store commit requires M/E");
        if self.policy.store_evicts(&old, vd) {
            P::putx(self, vd, line, old, EvictReason::StoreEviction);
        }
        let l = self.l1s[core.index()].peek_mut(line).expect("resident");
        self.policy.commit(l, vd, line, token);
        self.count_store(vd)
    }

    /// Counts a retired store against `vd`'s epoch budget.
    fn count_store(&mut self, vd: VdId) -> Cycle {
        let sc = &mut self.store_counts[vd.index()];
        *sc += 1;
        if *sc < self.cfg.epoch_size_stores {
            return 0;
        }
        *sc = 0;
        P::budget_expired(self, vd)
    }

    /// Invalidates or downgrades sibling L1 copies within the VD, folding
    /// dirty data into the L2. Returns the extra latency and whether a
    /// sibling keeps a (Shared) copy.
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
            let l1 = &mut self.l1s[c as usize];
            let (meta, reason) = match op {
                MemOp::Store => (l1.remove(line), EvictReason::CoherenceInvalidation),
                MemOp::Load => {
                    let copy = l1.peek_mut(line).map(|l| {
                        let meta = *l;
                        l.state = MesiState::S;
                        l.tag = P::settled(l.tag);
                        meta
                    });
                    (copy, EvictReason::CoherenceDowngrade)
                }
            };
            let Some(meta) = meta else {
                continue;
            };
            lat += self.cfg.l1.latency;
            retains |= op == MemOp::Load;
            if meta.state.is_dirty() {
                P::putx(self, vd, line, meta, reason);
            }
        }
        (lat, retains)
    }

    /// Ensures `vd`'s L2 holds `line` with `perm`. Returns the extra
    /// latency beyond the L2 lookup and the stall the response charged.
    fn ensure_l2(&mut self, vd: VdId, line: LineAddr, perm: Permission) -> (Cycle, Cycle) {
        if let Some(l2) = self.l2s[vd.index()].get(line) {
            if perm.satisfied_by(l2.state) {
                self.counters.l2_hits += 1;
                return (0, 0);
            }
        }
        // Inter-VD transaction through the directory at the LLC.
        let mut lat = self.cfg.llc.latency;
        let r = match perm {
            Permission::Read => {
                lat += self.noc.send(MsgKind::GetS);
                self.dir_gets(vd, line, &mut lat)
            }
            Permission::Write => {
                lat += self.noc.send(MsgKind::GetX);
                self.dir_getx(vd, line, &mut lat)
            }
        };
        let stall = P::arrive(self, vd, &r);
        match self.l2s[vd.index()].peek_mut(line) {
            Some(l) => {
                debug_assert!(
                    !l.state.is_dirty() || l.state == MesiState::O,
                    "upgrades start from a clean or Owned state"
                );
                l.state = r.state;
                P::refill(l, &r);
            }
            None => {
                let fill = Line {
                    state: r.state,
                    token: r.token,
                    tag: P::install(&r.ver),
                };
                if let Some((vline, vmeta)) = self.l2s[vd.index()].insert(line, fill) {
                    self.evict_l2_line(vd, vline, vmeta);
                }
            }
        }
        (lat, stall)
    }

    /// Invalidates every clean copy other VDs hold, except `keep`'s.
    fn invalidate_sharers(
        &mut self,
        e: DirEntry,
        vd: VdId,
        line: LineAddr,
        keep: Option<u16>,
        lat: &mut Cycle,
    ) {
        for sh in e.sharers_except(vd.0).filter(|&s| Some(s) != keep) {
            *lat += self.noc.send(MsgKind::FwdGetX);
            self.noc.send(MsgKind::InvAck);
            self.l2s[sh as usize].remove(line);
            for c in self.local_cores(VdId(sh)) {
                self.l1s[c as usize].remove(line);
            }
            self.dir.remove_node(line, sh);
        }
    }

    /// A fill from DRAM.
    fn fetch_dram(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> (Token, P::Ver) {
        *lat += self.dram.latency();
        self.counters.mem_fetches += 1;
        let token = self.dram.read(line);
        let tag = P::dram_tag(self.dram.oid(line));
        (token, self.policy.respond(tag, vd))
    }

    /// Directory GETX: acquires exclusive ownership for `vd`.
    fn dir_getx(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> Response<P::Ver> {
        let entry = self.dir.entry(line).copied();
        let owner = entry.and_then(|e| e.owner());
        // Under MOESI an Owned line may have plain sharers beside its
        // owner; every other copy is invalidated.
        if let Some(e) = entry {
            self.invalidate_sharers(e, vd, line, owner, lat);
        }
        if let Some(owner) = owner.filter(|&o| o != vd.0) {
            // Forward to the owner: the data moves cache-to-cache
            // (ownership transfer, no LLC write).
            *lat += self.noc.send(MsgKind::FwdGetX);
            *lat += self.cfg.l2.latency;
            let ovd = VdId(owner);
            let l2 = self.l2s[ovd.index()]
                .remove(line)
                .expect("directory says the VD caches the line");
            let newest = self.gather(ovd, line, l2, true, EvictReason::CoherenceInvalidation);
            *lat += self.noc.send(MsgKind::CacheToCache);
            self.dir.remove_node(line, owner);
            self.dir.set_owner(line, vd.0);
            // Drop any LLC copy. It can be dirty: a sole-fetcher GETS
            // leaves a dirty LLC line behind while granting E, and the E
            // owner may have upgraded silently. The requester's copy must
            // then stay dirty relative to memory.
            let s = self.slice_of(line);
            let llc_dirty = self.llc[s].remove(line).is_some_and(|m| m.dirty);
            let dirty = newest.state.is_dirty() || llc_dirty;
            return Response {
                token: newest.token,
                ver: self.policy.respond(newest.tag, ovd),
                state: P::transfer_state(dirty),
                dirty,
            };
        }
        if owner.is_some() {
            // We own it already: the MOESI O→M upgrade keeps the data.
            self.dir.set_owner(line, vd.0);
            let l2 = *self.l2s[vd.index()].peek(line).expect("owner holds line");
            let dirty = l2.state.is_dirty();
            return Response {
                token: l2.token,
                ver: self.policy.respond(l2.tag, vd),
                state: if dirty { MesiState::M } else { MesiState::E },
                dirty,
            };
        }
        // Data source: the LLC, our own S copy, or DRAM.
        let own = self.l2s[vd.index()].peek(line).copied();
        let s = self.slice_of(line);
        let (token, ver, dirty) = if let Some(c) = self.llc[s].remove(line) {
            self.counters.llc_hits += 1;
            (c.token, self.policy.respond(c.tag, vd), c.dirty)
        } else if let Some(o) = own {
            (o.token, self.policy.respond(P::settled(o.tag), vd), false)
        } else {
            let (t, v) = self.fetch_dram(vd, line, lat);
            (t, v, false)
        };
        self.dir.remove_node(line, vd.0);
        self.dir.set_owner(line, vd.0);
        Response {
            token,
            ver,
            state: if dirty { MesiState::M } else { MesiState::E },
            dirty,
        }
    }

    /// Directory GETS: acquires a readable copy for `vd`.
    fn dir_gets(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> Response<P::Ver> {
        let entry = self.dir.entry(line).copied();
        if let Some(owner) = entry.and_then(|e| e.owner()) {
            debug_assert_ne!(owner, vd.0, "self-owned lines hit in ensure_l2");
            *lat += self.noc.send(MsgKind::FwdGetS);
            *lat += self.cfg.l2.latency;
            let ovd = VdId(owner);
            // MOESI: the owner keeps its dirty data Owned in place and
            // supplies it cache-to-cache, with no LLC write. MESI: the
            // owner drops to S and dirty data goes down to the LLC.
            let moesi = self.cfg.protocol == Protocol::Moesi;
            let newest = self.downgrade(ovd, line, moesi);
            let ver = self.policy.respond(P::settled(newest.tag), ovd);
            if moesi {
                *lat += self.noc.send(MsgKind::CacheToCache);
                self.dir.add_sharer_keep_owner(line, vd.0);
            } else {
                *lat += self.noc.send(MsgKind::Data);
                if newest.state.is_dirty() {
                    P::write_back(self, ovd, line, newest, EvictReason::CoherenceDowngrade);
                }
                self.dir.downgrade_owner(line);
                self.dir.add_sharer(line, vd.0);
            }
            return Response {
                token: newest.token,
                ver,
                state: MesiState::S,
                dirty: false,
            };
        }
        // Shared or uncached: the LLC or DRAM supplies data. A dirty LLC
        // copy stays in the LLC (it still backs memory), so the fetched
        // copy is clean relative to it.
        let s = self.slice_of(line);
        let (token, ver) = if let Some(c) = self.llc[s].get(line).copied() {
            self.counters.llc_hits += 1;
            (c.token, self.policy.respond(c.tag, vd))
        } else {
            self.fetch_dram(vd, line, lat)
        };
        let state = if entry.is_some() {
            self.dir.add_sharer(line, vd.0);
            MesiState::S
        } else {
            // The sole fetcher gets Exclusive.
            self.dir.set_owner(line, vd.0);
            MesiState::E
        };
        Response {
            token,
            ver,
            state,
            dirty: false,
        }
    }

    /// Collects `vd`'s L1 copies of `line` (removing them if `remove`)
    /// and folds them with its L2 copy into the newest version.
    fn gather(
        &mut self,
        vd: VdId,
        line: LineAddr,
        l2: Line<P::Tag>,
        remove: bool,
        r: EvictReason,
    ) -> Line<P::Tag> {
        let mut dirty_l1 = None;
        for c in self.local_cores(vd) {
            let l1 = &mut self.l1s[c as usize];
            let m = if remove {
                l1.remove(line)
            } else {
                l1.peek(line).copied()
            };
            if let Some(m) = m.filter(|m| m.state.is_dirty()) {
                dirty_l1 = Some(m);
            }
        }
        P::merge(self, vd, line, l2, dirty_l1, r)
    }

    /// Downgrades `vd`'s copies of `line` to Shared, keeping a dirty
    /// newest version Owned in the L2 if `keep_owned` (MOESI). Returns
    /// the newest version.
    fn downgrade(&mut self, vd: VdId, line: LineAddr, keep_owned: bool) -> Line<P::Tag> {
        let l2 = *self.l2s[vd.index()]
            .peek(line)
            .expect("directory says the VD caches the line");
        let newest = self.gather(vd, line, l2, false, EvictReason::CoherenceDowngrade);
        let shared = Line {
            state: MesiState::S,
            token: newest.token,
            tag: P::settled(newest.tag),
        };
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                *m = shared;
            }
        }
        let l2 = self.l2s[vd.index()].peek_mut(line).expect("resident");
        *l2 = if keep_owned && newest.state.is_dirty() {
            Line {
                state: MesiState::O,
                ..newest
            }
        } else {
            shared
        };
        newest
    }

    /// Evicts a line from an L2 (pulling back its L1 copies, by
    /// inclusion) toward the LLC.
    fn evict_l2_line(&mut self, vd: VdId, line: LineAddr, meta: Line<P::Tag>) {
        let newest = self.gather(vd, line, meta, true, EvictReason::CapacityMiss);
        self.dir.remove_node(line, vd.0);
        self.noc.send(MsgKind::PutX);
        P::write_back(self, vd, line, newest, EvictReason::CapacityMiss);
    }

    /// Installs (or, if dirty, refreshes) a line in its LLC slice. A dirty
    /// victim goes home to DRAM and on to [`LinePolicy::llc_victim`].
    pub fn llc_install(&mut self, line: LineAddr, meta: LlcLine<P::Tag>) {
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
                P::llc_victim(self, vline, vmeta);
            }
        }
    }

    /// The newest visible content of a line anywhere in the system
    /// (verification helper): the dirty copy nearest the cores, else the
    /// memory image clean copies equal.
    pub fn newest_token(&self, line: LineAddr) -> Token {
        let dirty = |m: &&Line<P::Tag>| m.state.is_dirty();
        let mut cached = self
            .l1s
            .iter()
            .chain(&self.l2s)
            .filter_map(|c| c.peek(line));
        if let Some(m) = cached.find(dirty) {
            return m.token;
        }
        match self.llc[self.slice_of(line)].peek(line) {
            Some(m) if m.dirty => m.token,
            _ => self.dram.peek(line),
        }
    }

    /// Whether any cache level holds `line`.
    fn cached(&self, line: LineAddr) -> bool {
        self.l1s.iter().chain(&self.l2s).any(|c| c.contains(line))
            || self.llc[self.slice_of(line)].contains(line)
    }

    /// Installs a cross-island line at its DRAM home during a sharded
    /// replay barrier (see [`crate::shard`]). Returns `true` if the token
    /// was written. If any cache level still holds the line, the island's
    /// own copy is authoritative and the import is skipped, so the
    /// island's coherence (and version) state evolves exactly as its
    /// local trace dictates.
    pub fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        if self.cached(line) {
            return false;
        }
        self.dram.write(line, token);
        true
    }

    /// Batched [`Coherence::import_line`] over one window's sorted
    /// exchange run: one pass, own-island entries skipped inline, applied
    /// deposits mirrored into `golden`.
    pub fn import_lines(
        &mut self,
        entries: &[crate::shard::ExchangeEntry],
        island: u16,
        golden: &mut crate::memsys::Oracle,
    ) -> u64 {
        let mut applied = 0;
        for e in entries {
            if e.src != island && self.import_line(e.line, e.token) {
                golden.insert(e.line, e.token);
                applied += 1;
            }
        }
        applied
    }

    /// Checks the protocol's structural invariants in O(cache contents):
    ///
    /// * every L1 copy sits in its VD's L2 (inclusion);
    /// * the directory lists exactly the VDs whose L2 holds each line;
    /// * a writable (M/E) L2 copy has no other VD's copy beside it;
    /// * at most one L2 copy of a line is dirty system-wide;
    /// * at most one L1 copy of a line is dirty within a VD.
    ///
    /// Returns every violation found (empty = healthy).
    pub fn check_structure(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (vd, l2) in self.l2s.iter().enumerate() {
            let vd = vd as u16;
            for (line, _) in l2.iter() {
                if !self.dir.entry(line).is_some_and(|e| e.is_sharer(vd)) {
                    out.push(Violation::Unlisted { vd, line });
                }
            }
        }
        for (line, e) in self.dir.iter() {
            let mut writer = None;
            let mut dirty = None;
            for vd in e.sharers() {
                let Some(m) = self.l2s[vd as usize].peek(line) else {
                    out.push(Violation::StaleSharer { vd, line });
                    continue;
                };
                if m.state.is_writable() {
                    writer = Some(vd);
                }
                if m.state.is_dirty() {
                    if let Some(d) = dirty {
                        out.push(Violation::MultipleDirty { line, vds: (d, vd) });
                    }
                    dirty = Some(vd);
                }
            }
            if let Some(w) = writer {
                if let Some(o) = e.sharers().find(|&s| s != w) {
                    out.push(Violation::WritableShared {
                        line,
                        writer_vd: w,
                        other_vd: o,
                    });
                }
            }
        }
        for (core, l1) in self.l1s.iter().enumerate() {
            let vd = self.vd_of(CoreId(core as u16));
            for (line, m) in l1.iter() {
                if !self.l2s[vd.index()].contains(line) {
                    out.push(Violation::Inclusion {
                        core: core as u16,
                        line,
                    });
                }
                let later = (core as u16 + 1)..self.local_cores(vd).end;
                if m.state.is_dirty()
                    && later
                        .filter_map(|c| self.l1s[c as usize].peek(line))
                        .any(|s| s.state.is_dirty())
                {
                    out.push(Violation::MultipleWriters { vd: vd.0, line });
                }
            }
        }
        out
    }

    /// Panics with a readable report if [`Coherence::check_structure`]
    /// finds anything.
    ///
    /// # Panics
    /// On any structural violation, listing each with its line's state.
    pub fn assert_structure(&self) {
        let v = self.check_structure();
        assert!(
            v.is_empty(),
            "coherence structure violated:\n{}",
            v.iter()
                .map(|x| format!("  - {x}: {}", self.debug_line_state(x.line())))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Debug: human-readable state of every copy of `line`.
    pub fn debug_line_state(&self, line: LineAddr) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, arrays) in [("L1", &self.l1s), ("L2", &self.l2s)] {
            for (i, c) in arrays.iter().enumerate() {
                if let Some(m) = c.peek(line) {
                    let _ = write!(out, "{name}[{i}]:{}/{:?}/t{} ", m.state, m.tag, m.token);
                }
            }
        }
        if let Some(m) = self.llc[self.slice_of(line)].peek(line) {
            let d = if m.dirty { "D" } else { "C" };
            let _ = write!(out, "LLC:{d}/{:?}/t{} ", m.tag, m.token);
        }
        if let Some(e) = self.dir.entry(line) {
            let sh: Vec<u16> = e.sharers().collect();
            let _ = write!(out, "dir[own={:?},sh={sh:?}] ", e.owner());
        }
        let _ = write!(out, "dram:t{}", self.dram.peek(line));
        out
    }
}
