//! The Overlay Memory Controller (paper §V).
//!
//! One OMC owns an address partition: it receives versions evicted from
//! the CST frontend, packs them into per-epoch overlay data pages on NVM,
//! tracks them in volatile per-epoch mapping tables, and continuously
//! merges committed epochs into the persistent Master Mapping Table. It
//! garbage-collects fully-superseded pages by reference count and, under
//! storage pressure, performs *version compaction* (§V-D).

use super::buffer::OmcBuffer;
use super::pool::{NvmLoc, PagePool, SLOTS_PER_PAGE};
use super::table::{encode_loc, MasterTable, RadixTable};
use nvsim::addr::{LineAddr, Token};
use nvsim::clock::Cycle;
use nvsim::fastmap::FastMap;
use nvsim::fault::PersistPayload;
use nvsim::nvm::Nvm;
use nvsim::stats::NvmWriteKind;
use std::collections::BTreeMap;

/// What happens to per-epoch mapping tables after their epoch is merged
/// into the master table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotRetention {
    /// Reclaim the DRAM immediately (crash-recovery-only deployments; the
    /// paper's §V-D "DRAM pages used by per-epoch tables can be reclaimed
    /// as soon as they are merged"). Time-travel reads of merged epochs
    /// become unavailable.
    DropMerged,
    /// Keep per-epoch tables for time-travel / debugging reads (§V-E).
    KeepAll,
}

/// OMC tuning knobs.
#[derive(Clone, Debug)]
pub struct OmcConfig {
    /// Initial overlay pool size in 4-KiB pages.
    pub pool_pages: usize,
    /// Pool utilization above which version compaction starts (§V-F
    /// "space overhead threshold").
    pub compaction_threshold: f64,
    /// Pages the OS grants when the pool is exhausted and compaction
    /// cannot help (0 disables growth).
    pub grow_pages: usize,
    /// Table retention policy.
    pub retention: SnapshotRetention,
    /// Battery-backed write-back buffer geometry `(sets, ways)`, if any.
    pub buffer: Option<(u64, u32)>,
}

impl Default for OmcConfig {
    fn default() -> Self {
        Self {
            pool_pages: 64 * 1024, // 256 MiB of overlay storage
            compaction_threshold: 0.90,
            grow_pages: 16 * 1024,
            retention: SnapshotRetention::KeepAll,
            buffer: None,
        }
    }
}

/// Cumulative OMC statistics.
#[derive(Clone, Debug, Default)]
pub struct OmcStats {
    /// Versions received from the frontend.
    pub versions_received: u64,
    /// Version writes absorbed by the battery-backed buffer.
    pub buffer_hits: u64,
    /// Version writes that reached the NVM pool.
    pub buffer_misses: u64,
    /// Versions copied by compaction (the §V-D write amplification).
    pub compaction_copies: u64,
    /// Overlay pages freed by GC or compaction.
    pub pages_freed: u64,
    /// Compaction passes run.
    pub compactions: u64,
}

#[derive(Debug, Default)]
struct EpochState {
    /// Volatile mapping table for the epoch (None once reclaimed).
    table: Option<RadixTable>,
    /// Data pages belonging to the epoch.
    pages: Vec<u32>,
    /// The open page and its next free slot.
    open: Option<(u32, u8)>,
    /// Versions of this epoch were relocated by compaction; per-epoch
    /// reads are no longer exact.
    compacted: bool,
}

impl EpochState {
    /// The table per-epoch reads may use: retained and not compacted.
    fn readable(&self) -> Option<&RadixTable> {
        if self.compacted {
            None
        } else {
            self.table.as_ref()
        }
    }
}

/// A zero-copy view of one epoch's retained mapping table on one OMC.
///
/// Obtained from [`Omc::epoch_reader`]; reads only versions captured in
/// exactly that epoch (no fall-through).
#[derive(Clone, Copy)]
pub struct EpochReader<'a> {
    omc: &'a Omc,
    table: &'a RadixTable,
}

impl EpochReader<'_> {
    /// The version of `line` captured in this epoch, if any.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<Token> {
        self.table.get(line).and_then(|loc| self.omc.read_loc(loc))
    }
}

/// One Overlay Memory Controller.
pub struct Omc {
    cfg: OmcConfig,
    pool: PagePool,
    epochs: BTreeMap<u64, EpochState>,
    master: MasterTable,
    merged_through: u64,
    /// Master-referenced version count per data page (Fig 9's "Ref Count").
    refcount: FastMap<u32, u32>,
    /// Which lines live in which page slot (page occupancy metadata, used
    /// by GC/compaction).
    page_contents: FastMap<u32, Vec<(LineAddr, u8)>>,
    buffer: Option<OmcBuffer>,
    stats: OmcStats,
    /// Re-entrancy guard: compaction's own slot allocations must not
    /// trigger another compaction pass.
    compacting: bool,
}

impl Omc {
    /// Creates an OMC.
    pub fn new(cfg: OmcConfig) -> Self {
        let buffer = cfg.buffer.map(|(sets, ways)| OmcBuffer::new(sets, ways));
        Self {
            pool: PagePool::new(cfg.pool_pages),
            cfg,
            epochs: BTreeMap::new(),
            master: MasterTable::new(),
            merged_through: 0,
            refcount: FastMap::new(),
            page_contents: FastMap::new(),
            buffer,
            stats: OmcStats::default(),
            compacting: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OmcConfig {
        &self.cfg
    }

    /// Publishes this OMC's metrics under `prefix` (e.g. `omc.0`).
    pub fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.set_counter(&p("versions_received"), self.stats.versions_received);
        reg.set_counter(&p("buffer_hits"), self.stats.buffer_hits);
        reg.set_counter(&p("buffer_misses"), self.stats.buffer_misses);
        reg.set_counter(&p("compaction_copies"), self.stats.compaction_copies);
        reg.set_counter(&p("compactions"), self.stats.compactions);
        reg.set_counter(&p("pages_freed"), self.stats.pages_freed);
        reg.set_counter(&p("merged_through"), self.merged_through);
        reg.set_counter(&p("master.entries"), self.master.tree().len());
        reg.set_counter(&p("master.bytes"), self.master.tree().size_bytes());
        reg.set_counter(&p("pool.high_water_pages"), self.pool.high_water() as u64);
        reg.set_gauge(&p("pool.utilization"), self.pool.utilization());
        reg.set_counter(&p("epoch_table_dram_bytes"), self.epoch_table_dram_bytes());
        reg.set_gauge(
            &p("buffer_occupancy"),
            self.buffer.as_ref().map_or(0.0, |b| b.len() as f64),
        );
    }

    /// Statistics so far.
    pub fn stats(&self) -> &OmcStats {
        &self.stats
    }

    /// The master mapping table.
    pub fn master(&self) -> &MasterTable {
        &self.master
    }

    /// The overlay page pool.
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }

    /// Highest epoch merged into the master table.
    pub fn merged_through(&self) -> u64 {
        self.merged_through
    }

    /// DRAM consumed by volatile per-epoch tables right now.
    pub fn epoch_table_dram_bytes(&self) -> u64 {
        self.epochs
            .values()
            .filter_map(|s| s.table.as_ref())
            .map(RadixTable::size_bytes)
            .sum()
    }

    /// Receives one version from the frontend at time `now`; writes it to
    /// the buffer or the NVM pool. Returns the backpressure stall an
    /// access-path enqueuer would observe (background callers ignore it).
    pub fn receive_version(
        &mut self,
        nvm: &mut Nvm,
        now: Cycle,
        line: LineAddr,
        token: Token,
        abs_epoch: u64,
    ) -> Cycle {
        self.stats.versions_received += 1;
        if self.buffer.is_some() {
            let outcome = self
                .buffer
                .as_mut()
                .expect("checked")
                .offer(line, token, abs_epoch);
            if outcome.hit {
                self.stats.buffer_hits += 1;
                return 0;
            }
            self.stats.buffer_misses += 1;
            let mut stall = 0;
            for v in outcome.spilled {
                stall = stall.max(self.commit_version(nvm, now, v.line, v.token, v.abs_epoch));
            }
            stall
        } else {
            self.stats.buffer_misses += 1;
            self.commit_version(nvm, now, line, token, abs_epoch)
        }
    }

    /// Writes a version to its epoch's overlay page and maps it in the
    /// epoch table. Returns the backpressure stall.
    fn commit_version(
        &mut self,
        nvm: &mut Nvm,
        now: Cycle,
        line: LineAddr,
        token: Token,
        abs_epoch: u64,
    ) -> Cycle {
        // Redundant write-back within one epoch (no buffer to absorb it):
        // overwrite the already-allocated slot.
        if let Some(loc) = self
            .epochs
            .get(&abs_epoch)
            .and_then(|s| s.table.as_ref())
            .and_then(|t| t.get(line))
        {
            self.pool.write(loc, token);
            let t = nvm.write(now, line.raw(), NvmWriteKind::Data, 64);
            nvm.annotate_last(PersistPayload::Version {
                line,
                token,
                epoch: abs_epoch,
            });
            return t.backpressure_stall(now);
        }

        let copies_before = self.stats.compaction_copies;
        let loc = self.allocate_slot(abs_epoch, line);
        // Compaction triggered inside the allocation rewrites live
        // versions: charge their NVM data writes (the §V-D write
        // amplification) — background traffic, no stall returned.
        let copied = self.stats.compaction_copies - copies_before;
        for i in 0..copied {
            nvm.write(now, line.raw().wrapping_add(i), NvmWriteKind::Data, 64);
        }
        self.pool.write(loc, token);
        let st = self
            .epochs
            .get_mut(&abs_epoch)
            .expect("created by allocate");
        st.table
            .as_mut()
            .expect("unmerged epoch keeps its table")
            .insert(line, loc);
        let t = nvm.write(now, line.raw(), NvmWriteKind::Data, 64);
        nvm.annotate_last(PersistPayload::Version {
            line,
            token,
            epoch: abs_epoch,
        });
        t.backpressure_stall(now)
    }

    /// Finds a free slot in the epoch's open page, opening a new page (and
    /// compacting / growing under pressure) as needed.
    fn allocate_slot(&mut self, abs_epoch: u64, line: LineAddr) -> NvmLoc {
        let needs_page = match self.epochs.get(&abs_epoch).and_then(|s| s.open) {
            Some((_, slot)) => slot as usize >= SLOTS_PER_PAGE,
            None => true,
        };
        if needs_page {
            if !self.compacting && self.pool.utilization() >= self.cfg.compaction_threshold {
                self.compact(abs_epoch);
            }
            let page = match self.pool.allocate() {
                Ok(p) => p,
                Err(_) => {
                    if !self.compacting {
                        self.compact(abs_epoch);
                    }
                    match self.pool.allocate() {
                        Ok(p) => p,
                        Err(_) => {
                            assert!(
                                self.cfg.grow_pages > 0,
                                "overlay pool exhausted and growth disabled"
                            );
                            self.pool.grow(self.cfg.grow_pages);
                            self.pool.allocate().expect("grown pool has space")
                        }
                    }
                }
            };
            let st = self.epochs.entry(abs_epoch).or_insert_with(|| EpochState {
                table: Some(RadixTable::new()),
                ..EpochState::default()
            });
            if st.table.is_none() {
                st.table = Some(RadixTable::new());
            }
            st.pages.push(page);
            st.open = Some((page, 0));
            self.page_contents.insert(page, Vec::new());
        }
        let st = self.epochs.get_mut(&abs_epoch).expect("page opened");
        let (page, slot) = st.open.expect("open page exists");
        st.open = Some((page, slot + 1));
        self.page_contents
            .get_mut(&page)
            .expect("page registered")
            .push((line, slot));
        NvmLoc { page, slot }
    }

    /// Merges every epoch table up to and including `through` into the
    /// master table (background, §V-C). Buffered versions of those epochs
    /// are spilled first so their NVM locations exist. Returns the
    /// metadata bytes written (charged to NVM by the caller via the
    /// `nvm.write` calls already performed here).
    pub fn merge_through(&mut self, nvm: &mut Nvm, now: Cycle, through: u64) -> u64 {
        if let Some(buf) = self.buffer.as_mut() {
            let spill = buf.drain_below(through + 1);
            for v in spill {
                self.stats.buffer_misses += 1;
                self.commit_version(nvm, now, v.line, v.token, v.abs_epoch);
            }
        }
        let mut meta_entry_writes = 0u64;
        // Leaf mapping entries merged this call, in merge order, as the
        // encoded 8-byte words the metadata chunks carry to NVM.
        let mut merged_words: Vec<(LineAddr, u64)> = Vec::new();
        let to_merge: Vec<u64> = self
            .epochs
            .range(self.merged_through + 1..=through)
            .map(|(e, _)| *e)
            .collect();
        for e in to_merge {
            let entries: Vec<(LineAddr, NvmLoc)> = {
                let st = self.epochs.get_mut(&e).expect("listed");
                match self.cfg.retention {
                    SnapshotRetention::DropMerged => st
                        .table
                        .take()
                        .map(|t| t.iter().collect())
                        .unwrap_or_default(),
                    SnapshotRetention::KeepAll => st
                        .table
                        .as_ref()
                        .map(|t| t.iter().collect())
                        .unwrap_or_default(),
                }
            };
            for (l, loc) in entries {
                let fx = self.master.merge_in(l, loc);
                meta_entry_writes += fx.entry_writes;
                merged_words.push((l, encode_loc(loc)));
                *self.refcount.or_default(loc.page) += 1;
                if let Some(old) = fx.displaced {
                    if old != loc {
                        self.unreference(old);
                    }
                }
            }
        }
        self.merged_through = self.merged_through.max(through);
        // Metadata streams to NVM in 256-byte chunks; each chunk carries
        // up to 32 of the merged leaf entries (later chunks are pointer
        // traffic), so a crash mid-merge durably retains an entry prefix.
        let meta_bytes = meta_entry_writes * 8;
        let mut remaining = meta_bytes;
        let mut chunk_key = now;
        let mut chunk_ix = 0usize;
        while remaining > 0 {
            let c = remaining.min(256);
            nvm.write(now, chunk_key, NvmWriteKind::MapMetadata, c);
            let lo = (chunk_ix * 32).min(merged_words.len());
            let hi = (lo + 32).min(merged_words.len());
            nvm.annotate_last(PersistPayload::MasterChunk {
                entries: merged_words[lo..hi].to_vec(),
            });
            chunk_key = chunk_key.wrapping_add(1);
            chunk_ix += 1;
            remaining -= c;
        }
        meta_bytes
    }

    /// Drops a master reference to a version location; frees the page when
    /// no references remain and the policy allows.
    fn unreference(&mut self, loc: NvmLoc) {
        let rc = self
            .refcount
            .get_mut(&loc.page)
            .expect("displaced location was referenced");
        *rc -= 1;
        if *rc == 0 && self.cfg.retention == SnapshotRetention::DropMerged {
            self.free_page(loc.page);
        }
    }

    fn free_page(&mut self, page: u32) {
        self.refcount.remove(&page);
        self.page_contents.remove(&page);
        for st in self.epochs.values_mut() {
            st.pages.retain(|&p| p != page);
            if let Some((open, _)) = st.open {
                if open == page {
                    st.open = None;
                }
            }
        }
        self.pool.free(page);
        self.stats.pages_freed += 1;
    }

    /// §V-D version compaction: starting from the oldest merged epoch that
    /// still owns pages, copy live (master-referenced) versions into
    /// `current_epoch` as if freshly written, then free the source pages.
    pub fn compact(&mut self, current_epoch: u64) {
        if self.compacting {
            return;
        }
        self.compacting = true;
        self.stats.compactions += 1;
        let candidates: Vec<u64> = self
            .epochs
            .range(..=self.merged_through)
            .filter(|(e, s)| **e < current_epoch && !s.pages.is_empty())
            .map(|(e, _)| *e)
            .collect();
        for e in candidates {
            let pages = self
                .epochs
                .get(&e)
                .map(|s| s.pages.clone())
                .unwrap_or_default();
            for page in pages {
                let contents = self.page_contents.get(&page).cloned().unwrap_or_default();
                let mut moved = Vec::new();
                let mut dead = Vec::new();
                for (line, slot) in contents {
                    let loc = NvmLoc { page, slot };
                    if self.master.get(line) == Some(loc) {
                        let token = self.pool.read(loc).expect("live version has data");
                        moved.push((line, token));
                    } else {
                        dead.push((line, loc));
                    }
                }
                // Dead versions are reclaimed with the page: drop their
                // per-epoch entries so no stale mapping can alias into a
                // reused page (such reads correctly become None).
                if let Some(st) = self.epochs.get_mut(&e) {
                    if let Some(t) = st.table.as_mut() {
                        for (line, loc) in &dead {
                            t.remove_if(*line, *loc);
                        }
                    }
                }
                for (line, token) in moved {
                    self.stats.compaction_copies += 1;
                    // The paper sketches copying live versions "as if
                    // written in the current epoch". That is only sound
                    // if the master-live version is globally newest — but
                    // a newer version may still be unpersisted in the
                    // caches (invisible to the OMC) or unmerged in a
                    // later epoch table; re-tagging the old data above it
                    // would resurrect stale values. We therefore relocate
                    // within the version's *own* epoch: per-line history
                    // order is preserved exactly, dead slots are still
                    // reclaimed, and time-travel reads stay valid (see
                    // DESIGN.md §7).
                    let target_epoch = e;
                    let new_loc = self.allocate_slot(target_epoch, line);
                    let _ = current_epoch;
                    self.pool.write(new_loc, token);
                    let st = self.epochs.get_mut(&target_epoch).expect("slot allocated");
                    if let Some(t) = st.table.as_mut() {
                        t.insert(line, new_loc);
                    }
                    // Master points at the new home immediately; a later
                    // merge re-inserting the same location is idempotent.
                    let fx = self.master.merge_in(line, new_loc);
                    *self.refcount.or_default(new_loc.page) += 1;
                    if let Some(old) = fx.displaced {
                        let rc = self.refcount.get_mut(&old.page).expect("referenced");
                        *rc -= 1;
                    }
                }
                // The page now holds no live versions; free it.
                if self.refcount.get(&page).copied().unwrap_or(0) == 0 {
                    self.free_page(page);
                }
            }
            if let Some(st) = self.epochs.get_mut(&e) {
                // Same-epoch relocation keeps the epoch's history exact,
                // so per-epoch (time-travel) reads remain valid.
                st.compacted = false;
                st.open = None;
            }
            // Oldest-first, stop as soon as the pressure is relieved
            // (§V-D compaction starts "from the oldest epoch still having
            // versions mapped by Mmaster").
            if self.pool.utilization() < self.cfg.compaction_threshold {
                break;
            }
        }
        self.compacting = false;
    }

    /// Simulates a power loss + restart of this OMC (§V-E "Volatile OMC
    /// data structures are also rebuilt during the recovery"): volatile
    /// per-epoch tables and occupancy metadata are dropped, then the page
    /// reference counts are rebuilt by scanning the persistent master
    /// table. Requires the battery-backed buffer to have been flushed
    /// (it is part of the persistence domain).
    ///
    /// # Panics
    /// Panics if the buffer still holds versions (the battery flush must
    /// run first).
    pub fn simulate_reboot(&mut self) {
        if let Some(b) = &self.buffer {
            assert!(
                b.is_empty(),
                "flush the battery-backed buffer before reboot"
            );
        }
        // Volatile state is lost.
        self.epochs.clear();
        self.refcount.clear();
        self.page_contents.clear();
        // Rebuild refcounts (and page occupancy) from the master table.
        let entries: Vec<(LineAddr, NvmLoc)> = self.master.tree().iter().collect();
        for (line, loc) in entries {
            *self.refcount.or_default(loc.page) += 1;
            self.page_contents
                .or_default(loc.page)
                .push((line, loc.slot));
        }
    }

    /// Drains the battery-backed buffer (shutdown / final flush).
    pub fn drain_buffer(&mut self, nvm: &mut Nvm, now: Cycle) {
        if let Some(buf) = self.buffer.as_mut() {
            let all = buf.drain();
            for v in all {
                self.stats.buffer_misses += 1;
                self.commit_version(nvm, now, v.line, v.token, v.abs_epoch);
            }
        }
    }

    /// Resolves a mapping-table location to its stored version — the one
    /// shared helper behind every read path (master reads, time-travel
    /// fall-through, epoch deltas, image iteration), so the
    /// location-to-data step cannot drift between them.
    #[inline]
    fn read_loc(&self, loc: NvmLoc) -> Option<Token> {
        self.pool.read(loc)
    }

    /// Reads the current consistent image's version of `line` (via the
    /// master table), as crash recovery does.
    pub fn read_master(&self, line: LineAddr) -> Option<Token> {
        self.master.get(line).and_then(|loc| self.read_loc(loc))
    }

    /// Time-travel read (§V-E): the version of `line` visible at `epoch`,
    /// found by falling through per-epoch tables from `epoch` downward.
    ///
    /// Returns `None` when the line has no version at or before `epoch`,
    /// or `Err`-like `None` when the covering epoch's table was reclaimed
    /// or compacted away (use [`SnapshotRetention::KeepAll`] to retain).
    pub fn time_travel(&self, line: LineAddr, epoch: u64) -> Option<Token> {
        if let Some(buf) = self.buffer.as_ref() {
            if let Some(v) = buf.get(line) {
                if v.abs_epoch <= epoch {
                    return Some(v.token);
                }
            }
        }
        for (_, st) in self.epochs.range(..=epoch).rev() {
            if st.compacted {
                continue;
            }
            if let Some(t) = st.table.as_ref() {
                if let Some(loc) = t.get(line) {
                    return self.read_loc(loc);
                }
            }
        }
        None
    }

    /// Epochs this OMC has versions for (ascending), with whether each is
    /// still individually readable (table retained and not compacted).
    pub fn epochs(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.epochs
            .iter()
            .map(|(e, st)| (*e, st.readable().is_some()))
    }

    /// A zero-copy reader over exactly `epoch`'s retained mapping table;
    /// `None` when the epoch is reclaimed, compacted, or absent here.
    pub fn epoch_reader(&self, epoch: u64) -> Option<EpochReader<'_>> {
        let table = self.epochs.get(&epoch)?.readable()?;
        Some(EpochReader { omc: self, table })
    }

    /// Iterates the versions captured in exactly `epoch` (its incremental
    /// delta), if the epoch's table is retained.
    pub fn epoch_delta(&self, epoch: u64) -> Option<impl Iterator<Item = (LineAddr, Token)> + '_> {
        let r = self.epoch_reader(epoch)?;
        Some(
            r.table
                .iter()
                .filter_map(move |(l, loc)| self.read_loc(loc).map(|tok| (l, tok))),
        )
    }

    /// Iterates the master image `(line, token)`.
    pub fn master_image(&self) -> impl Iterator<Item = (LineAddr, Token)> + '_ {
        self.master
            .tree()
            .iter()
            .filter_map(|(l, loc)| self.read_loc(loc).map(|t| (l, t)))
    }

    /// The buffer, if configured (statistics).
    pub fn buffer(&self) -> Option<&OmcBuffer> {
        self.buffer.as_ref()
    }
}

impl std::fmt::Debug for Omc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Omc")
            .field("epochs", &self.epochs.len())
            .field("merged_through", &self.merged_through)
            .field("master_entries", &self.master.tree().len())
            .field("pool_allocated", &self.pool.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> Nvm {
        Nvm::new(4, 400, 200, 8, 100_000)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn omc() -> Omc {
        Omc::new(OmcConfig {
            pool_pages: 8,
            grow_pages: 8,
            ..OmcConfig::default()
        })
    }

    #[test]
    fn versions_commit_and_merge_into_master() {
        let mut o = omc();
        let mut n = nvm();
        o.receive_version(&mut n, 0, line(1), 11, 1);
        o.receive_version(&mut n, 0, line(2), 22, 1);
        assert_eq!(o.read_master(line(1)), None, "not merged yet");
        o.merge_through(&mut n, 0, 1);
        assert_eq!(o.read_master(line(1)), Some(11));
        assert_eq!(o.read_master(line(2)), Some(22));
        assert_eq!(o.merged_through(), 1);
        assert!(n.stats().bytes(NvmWriteKind::Data) >= 128);
        assert!(n.stats().bytes(NvmWriteKind::MapMetadata) > 0);
    }

    #[test]
    fn newer_epochs_win_in_master() {
        let mut o = omc();
        let mut n = nvm();
        o.receive_version(&mut n, 0, line(1), 11, 1);
        o.receive_version(&mut n, 0, line(1), 99, 2);
        o.merge_through(&mut n, 0, 2);
        assert_eq!(o.read_master(line(1)), Some(99));
    }

    #[test]
    fn time_travel_falls_through_to_older_epochs() {
        let mut o = omc();
        let mut n = nvm();
        o.receive_version(&mut n, 0, line(1), 11, 1);
        o.receive_version(&mut n, 0, line(2), 22, 2);
        o.receive_version(&mut n, 0, line(1), 33, 3);
        o.merge_through(&mut n, 0, 3);
        assert_eq!(o.time_travel(line(1), 1), Some(11));
        assert_eq!(o.time_travel(line(1), 2), Some(11), "fall-through to e1");
        assert_eq!(o.time_travel(line(1), 3), Some(33));
        assert_eq!(o.time_travel(line(2), 1), None, "not yet written at e1");
        assert_eq!(o.time_travel(line(2), 3), Some(22));
    }

    #[test]
    fn same_epoch_rewrite_reuses_the_slot() {
        let mut o = omc();
        let mut n = nvm();
        o.receive_version(&mut n, 0, line(1), 11, 1);
        o.receive_version(&mut n, 0, line(1), 12, 1);
        o.merge_through(&mut n, 0, 1);
        assert_eq!(o.read_master(line(1)), Some(12));
        assert_eq!(o.pool().allocated(), 1, "one page, one slot reused");
    }

    #[test]
    fn buffer_absorbs_same_epoch_rewrites() {
        let mut o = Omc::new(OmcConfig {
            pool_pages: 8,
            buffer: Some((4, 2)),
            ..OmcConfig::default()
        });
        let mut n = nvm();
        o.receive_version(&mut n, 0, line(1), 11, 1);
        o.receive_version(&mut n, 0, line(1), 12, 1);
        o.receive_version(&mut n, 0, line(1), 13, 1);
        assert_eq!(o.stats().buffer_hits, 2);
        assert_eq!(n.stats().writes(NvmWriteKind::Data), 0, "all buffered");
        o.merge_through(&mut n, 0, 1);
        assert_eq!(
            n.stats().writes(NvmWriteKind::Data),
            1,
            "one spill at merge"
        );
        assert_eq!(o.read_master(line(1)), Some(13));
    }

    #[test]
    fn gc_frees_fully_superseded_pages_under_drop_merged() {
        let mut o = Omc::new(OmcConfig {
            pool_pages: 8,
            retention: SnapshotRetention::DropMerged,
            ..OmcConfig::default()
        });
        let mut n = nvm();
        // Epoch 1 writes 64 lines → exactly one full page.
        for i in 0..64 {
            o.receive_version(&mut n, 0, line(i), 100 + i, 1);
        }
        o.merge_through(&mut n, 0, 1);
        assert_eq!(o.pool().allocated(), 1);
        // Epoch 2 rewrites all 64 lines → epoch-1 page fully superseded.
        for i in 0..64 {
            o.receive_version(&mut n, 0, line(i), 200 + i, 2);
        }
        o.merge_through(&mut n, 0, 2);
        assert_eq!(o.stats().pages_freed, 1, "epoch-1 page collected");
        assert_eq!(o.pool().allocated(), 1);
        assert_eq!(o.read_master(line(5)), Some(205));
    }

    #[test]
    fn keep_all_retains_old_epochs_for_time_travel() {
        let mut o = omc();
        let mut n = nvm();
        for i in 0..64 {
            o.receive_version(&mut n, 0, line(i), 100 + i, 1);
        }
        o.merge_through(&mut n, 0, 1);
        for i in 0..64 {
            o.receive_version(&mut n, 0, line(i), 200 + i, 2);
        }
        o.merge_through(&mut n, 0, 2);
        assert_eq!(o.stats().pages_freed, 0);
        assert_eq!(o.time_travel(line(5), 1), Some(105));
        assert_eq!(o.time_travel(line(5), 2), Some(205));
    }

    #[test]
    fn compaction_copies_live_versions_and_frees_pages() {
        let mut o = Omc::new(OmcConfig {
            pool_pages: 8,
            retention: SnapshotRetention::KeepAll,
            ..OmcConfig::default()
        });
        let mut n = nvm();
        // Epoch 1: 64 lines (1 page). Epoch 2 rewrites half of them.
        for i in 0..64 {
            o.receive_version(&mut n, 0, line(i), 100 + i, 1);
        }
        for i in 0..32 {
            o.receive_version(&mut n, 0, line(i), 200 + i, 2);
        }
        o.merge_through(&mut n, 0, 2);
        let before = o.pool().allocated();
        o.compact(3);
        // Lines 32..64 (still live from epoch 1) are relocated into a
        // fresh epoch-1 page (same-epoch relocation — see the compaction
        // comment); the old half-dead page is freed.
        assert_eq!(o.stats().compaction_copies, 32);
        assert!(o.pool().allocated() <= before, "compaction frees pages");
        assert!(o.stats().pages_freed >= 1);
        for i in 32..64 {
            assert_eq!(o.read_master(line(i)), Some(100 + i), "line {i} survives");
        }
        for i in 0..32 {
            assert_eq!(o.read_master(line(i)), Some(200 + i));
        }
        // Live versions keep their per-epoch history after relocation;
        // superseded (dead) versions are reclaimed — reading them at
        // their old epoch now correctly falls through to nothing.
        assert_eq!(o.time_travel(line(40), 1), Some(140));
        assert_eq!(o.time_travel(line(5), 1), None, "dead version reclaimed");
        assert_eq!(o.time_travel(line(5), 2), Some(205));
    }

    #[test]
    fn pool_pressure_triggers_growth_when_compaction_cannot_help() {
        let mut o = Omc::new(OmcConfig {
            pool_pages: 2,
            grow_pages: 4,
            ..OmcConfig::default()
        });
        let mut n = nvm();
        // 3 pages worth of distinct live lines in one epoch.
        for i in 0..192 {
            o.receive_version(&mut n, 0, line(i), i, 1);
        }
        assert!(o.pool().total_pages() > 2, "pool grew under pressure");
        o.merge_through(&mut n, 0, 1);
        for i in 0..192 {
            assert_eq!(o.read_master(line(i)), Some(i));
        }
    }
}
