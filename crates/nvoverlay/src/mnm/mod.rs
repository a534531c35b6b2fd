//! Multi-snapshot NVM Mapping (MNM) — the NVOverlay backend (paper §V).
//!
//! The backend is a set of [`omc::Omc`]s, each owning an address
//! partition (§V-F "Scaling to Large NVM Arrays"). One OMC is the
//! *master*: it maintains the per-VD `min-ver` array, computes the
//! recoverable epoch, orders the merge on every OMC, and atomically
//! persists `rec-epoch` (§V-B).
//!
//! ## Recoverable-epoch pipeline
//!
//! Each VD's tag walker reports `min-ver` — the smallest epoch still
//! holding unpersisted versions in that VD. Epoch *E* is fully persistent
//! once every VD's `min-ver` exceeds *E*, so the recoverable epoch is
//! `min(min-vers) − 1`. Before the master OMC persists the new
//! `rec-epoch`, every OMC merges the per-epoch tables up to it into its
//! Master Mapping Table; recovery therefore only ever scans master tables
//! (see DESIGN.md for the ordering argument).

pub mod buffer;
pub mod omc;
pub mod pool;
pub mod table;

pub use buffer::{BufferOutcome, BufferedVersion, OmcBuffer};
pub use omc::{EpochReader, Omc, OmcConfig, OmcStats, SnapshotRetention};
pub use pool::{NvmLoc, PagePool, PoolExhausted};
pub use table::{InsertEffect, MasterTable, RadixTable};

use nvsim::addr::{LineAddr, Token, VdId};
use nvsim::clock::Cycle;
use nvsim::fault::PersistPayload;
use nvsim::nvm::Nvm;
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use nvsim::stats::NvmWriteKind;

/// The full MNM backend: one or more OMCs plus the distributed
/// recoverable-epoch machinery.
pub struct Mnm {
    omcs: Vec<Omc>,
    /// Latest reported `min-ver` per VD (master OMC state).
    min_vers: Vec<u64>,
    /// The persisted recoverable epoch.
    rec_epoch: u64,
    /// Highest epoch ever observed (for compaction targets).
    max_epoch_seen: u64,
    /// Processor context dumps: (vd, epoch) → context blob token.
    contexts: nvsim::fastmap::FastHashMap<(u16, u64), Token>,
}

impl Mnm {
    /// Creates a backend with `omc_count` OMCs for `vd_count` VDs.
    ///
    /// # Panics
    /// Panics if `omc_count` or `vd_count` is zero.
    pub fn new(omc_count: usize, vd_count: usize, cfg: OmcConfig) -> Self {
        assert!(omc_count > 0, "at least one OMC required");
        assert!(vd_count > 0, "at least one VD required");
        Self {
            omcs: (0..omc_count).map(|_| Omc::new(cfg.clone())).collect(),
            min_vers: vec![0; vd_count],
            rec_epoch: 0,
            max_epoch_seen: 0,
            contexts: nvsim::fastmap::FastHashMap::default(),
        }
    }

    /// The OMC index owning `line`'s address partition.
    ///
    /// Address-interleave at *page* granularity: every line of a page
    /// maps to the same OMC, so leaf mapping nodes stay dense (finer
    /// interleaving would halve Fig 13's leaf occupancy per OMC). This is
    /// the single routing function — every read and write path, and the
    /// `nvserve` shard planner, must agree on it.
    pub fn route(&self, line: LineAddr) -> usize {
        (line.page().raw() % self.omcs.len() as u64) as usize
    }

    /// The OMC owning `line` (the shared routing helper behind every
    /// line-addressed read path).
    fn omc_for(&self, line: LineAddr) -> &Omc {
        &self.omcs[self.route(line)]
    }

    /// The persisted recoverable epoch (0 = nothing recoverable yet).
    pub fn rec_epoch(&self) -> u64 {
        self.rec_epoch
    }

    /// The highest epoch any version was ever received for. The gap to
    /// [`Mnm::rec_epoch`] is the recoverable-epoch lag a serving layer
    /// reports: captured-but-not-yet-durable history.
    pub fn max_epoch_seen(&self) -> u64 {
        self.max_epoch_seen
    }

    /// The OMCs (stats, inspection).
    pub fn omcs(&self) -> &[Omc] {
        &self.omcs
    }

    /// Publishes MNM-wide and per-OMC metrics under `prefix`.
    pub fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.rec_epoch"), self.rec_epoch);
        for (i, mv) in self.min_vers.iter().enumerate() {
            reg.set_counter(&format!("{prefix}.min_ver.vd{i}"), *mv);
        }
        for (i, o) in self.omcs.iter().enumerate() {
            o.metrics_into(reg, &format!("{prefix}.omc.{i}"));
        }
    }

    /// Receives a version from the frontend. Returns the backpressure
    /// stall for an access-path enqueuer.
    pub fn receive_version(
        &mut self,
        nvm: &mut Nvm,
        now: Cycle,
        line: LineAddr,
        token: Token,
        abs_epoch: u64,
    ) -> Cycle {
        self.max_epoch_seen = self.max_epoch_seen.max(abs_epoch);
        let o = self.route(line);
        self.omcs[o].receive_version(nvm, now, line, token, abs_epoch)
    }

    /// A VD's tag walker reports its `min-ver` to the master OMC. If the
    /// recoverable epoch advances, every OMC merges through it and the
    /// master OMC atomically persists the new `rec-epoch` (one 8-byte
    /// write). Returns the new recoverable epoch if it advanced.
    pub fn report_min_ver(
        &mut self,
        nvm: &mut Nvm,
        now: Cycle,
        vd: VdId,
        min_ver: u64,
    ) -> Option<u64> {
        let slot = &mut self.min_vers[vd.index()];
        debug_assert!(*slot <= min_ver, "min-ver reports are monotonic");
        *slot = min_ver;
        let min = self.min_vers.iter().copied().min().expect("non-empty");
        if min == 0 {
            return None; // some VD has not reported yet
        }
        let candidate = min - 1;
        if candidate > self.rec_epoch {
            for (i, o) in self.omcs.iter_mut().enumerate() {
                let merged_entries = o.merge_through(nvm, now, candidate);
                TraceScope::new(Track::Omc(i as u16)).emit(
                    EventKind::OmcFlush,
                    now,
                    candidate,
                    merged_entries,
                );
            }
            self.rec_epoch = candidate;
            // Atomic 8-byte rec-epoch pointer write by the master OMC,
            // behind a persistence fence: the root must not become durable
            // before any version or mapping write it covers, or a crash
            // could retain the root while losing committed state.
            nvm.write_fenced(now, candidate, NvmWriteKind::MapMetadata, 8);
            nvm.annotate_last(PersistPayload::RecEpochRoot { epoch: candidate });
            Some(candidate)
        } else {
            None
        }
    }

    /// Lowers a VD's cached `min-ver` when an unpersisted version of
    /// `abs_epoch` migrated into it (C2C transfer): the recoverable epoch
    /// must not advance past an obligation that changed hands between two
    /// tag walks.
    pub fn clamp_min_ver(&mut self, vd: VdId, abs_epoch: u64) {
        let slot = &mut self.min_vers[vd.index()];
        if *slot > abs_epoch {
            *slot = abs_epoch;
        }
    }

    /// Final shutdown flush: every buffer drains, everything merges, and
    /// `rec-epoch` moves to `final_epoch`.
    pub fn finish(&mut self, nvm: &mut Nvm, now: Cycle, final_epoch: u64) {
        for (i, o) in self.omcs.iter_mut().enumerate() {
            o.drain_buffer(nvm, now);
            let merged_entries = o.merge_through(nvm, now, final_epoch);
            TraceScope::new(Track::Omc(i as u16)).emit(
                EventKind::OmcFlush,
                now,
                final_epoch,
                merged_entries,
            );
        }
        if final_epoch > self.rec_epoch {
            self.rec_epoch = final_epoch;
            nvm.write_fenced(now, final_epoch, NvmWriteKind::MapMetadata, 8);
            nvm.annotate_last(PersistPayload::RecEpochRoot { epoch: final_epoch });
        }
    }

    /// Simulates a power loss + restart: every OMC drops its volatile
    /// state and rebuilds from persistent structures. Per-epoch
    /// (time-travel) reads become unavailable; master reads, GC and
    /// compaction keep working.
    pub fn simulate_reboot(&mut self) {
        for o in &mut self.omcs {
            o.simulate_reboot();
        }
        self.contexts.retain(|(_, e), _| *e <= self.rec_epoch);
    }

    /// Reads the recoverable image's version of a line.
    pub fn read_master(&self, line: LineAddr) -> Option<Token> {
        self.omc_for(line).read_master(line)
    }

    /// Time-travel read at `epoch` (§V-E).
    pub fn time_travel(&self, line: LineAddr, epoch: u64) -> Option<Token> {
        self.omc_for(line).time_travel(line, epoch)
    }

    /// Iterates the full recoverable image across all OMCs.
    pub fn master_image(&self) -> impl Iterator<Item = (LineAddr, Token)> + '_ {
        self.omcs.iter().flat_map(|o| o.master_image())
    }

    /// All epochs with captured versions (ascending, deduplicated across
    /// OMCs), with whether each is individually readable everywhere.
    pub fn epochs(&self) -> Vec<(u64, bool)> {
        let mut map: std::collections::BTreeMap<u64, bool> = std::collections::BTreeMap::new();
        for o in &self.omcs {
            for (e, readable) in o.epochs() {
                map.entry(e)
                    .and_modify(|r| *r = *r && readable)
                    .or_insert(readable);
            }
        }
        map.into_iter().collect()
    }

    /// The incremental delta captured in exactly `epoch`, across all OMCs
    /// (None if any OMC has reclaimed or compacted that epoch's table).
    pub fn epoch_delta(&self, epoch: u64) -> Option<Vec<(LineAddr, Token)>> {
        let mut out = Vec::new();
        for o in &self.omcs {
            match o.epoch_delta(epoch) {
                Some(it) => out.extend(it),
                None => {
                    // The OMC may simply have no versions for this epoch.
                    if o.epochs().any(|(e, _)| e == epoch) {
                        return None;
                    }
                }
            }
        }
        out.sort_by_key(|(l, _)| l.raw());
        Some(out)
    }

    /// Records a processor context dump for `(vd, epoch)` (§III-C: cores
    /// "dump their internal context to the NVM at the end of every
    /// epoch"). The blob is modeled as a token.
    pub fn record_context(&mut self, vd: VdId, epoch: u64, blob: Token) {
        self.contexts.insert((vd.0, epoch), blob);
    }

    /// The context dumped by `vd` at the end of `epoch`, if recorded.
    pub fn context(&self, vd: VdId, epoch: u64) -> Option<Token> {
        self.contexts.get(&(vd.0, epoch)).copied()
    }

    /// Every recorded context dump as `(vd, epoch, blob)`, sorted by
    /// `(vd, epoch)`. Export hook for the persistent snapshot store: the
    /// contexts map is otherwise private, and the store needs a
    /// deterministic ordering to produce content-addressed layers.
    pub fn contexts_sorted(&self) -> Vec<(u16, u64, Token)> {
        let mut out: Vec<(u16, u64, Token)> = self
            .contexts
            .iter()
            .map(|((vd, epoch), blob)| (*vd, *epoch, *blob))
            .collect();
        out.sort_unstable_by_key(|&(vd, epoch, _)| (vd, epoch));
        out
    }

    /// Number of versioned domains this backend was built for.
    pub fn vd_count(&self) -> usize {
        self.min_vers.len()
    }

    /// Records that `abs_epoch` was observed without receiving a
    /// version. Restore hook: a rebuilt backend replays only captured
    /// deltas, so this preserves `max_epoch_seen` across backup/restore
    /// even when the newest observed epochs carried no versions.
    pub fn note_epoch_seen(&mut self, abs_epoch: u64) {
        self.max_epoch_seen = self.max_epoch_seen.max(abs_epoch);
    }

    /// Aggregate size of all master tables in bytes (Fig 13 numerator).
    pub fn master_size_bytes(&self) -> u64 {
        self.omcs
            .iter()
            .map(|o| o.master().tree().size_bytes())
            .sum()
    }

    /// Aggregate number of lines mapped by the master tables.
    pub fn master_entries(&self) -> u64 {
        self.omcs.iter().map(|o| o.master().tree().len()).sum()
    }

    /// Aggregate DRAM held by volatile per-epoch tables.
    pub fn epoch_table_dram_bytes(&self) -> u64 {
        self.omcs.iter().map(|o| o.epoch_table_dram_bytes()).sum()
    }

    /// Aggregate buffer hit count (Fig 16).
    pub fn buffer_hits(&self) -> u64 {
        self.omcs.iter().map(|o| o.stats().buffer_hits).sum()
    }

    /// Aggregate buffer miss count.
    pub fn buffer_misses(&self) -> u64 {
        self.omcs.iter().map(|o| o.stats().buffer_misses).sum()
    }

    /// Aggregate versions received.
    pub fn versions_received(&self) -> u64 {
        self.omcs.iter().map(|o| o.stats().versions_received).sum()
    }
}

impl std::fmt::Debug for Mnm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mnm")
            .field("omcs", &self.omcs.len())
            .field("rec_epoch", &self.rec_epoch)
            .field("min_vers", &self.min_vers)
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

    fn mnm(omcs: usize) -> Mnm {
        Mnm::new(
            omcs,
            2,
            OmcConfig {
                pool_pages: 64,
                ..OmcConfig::default()
            },
        )
    }

    #[test]
    fn rec_epoch_is_min_of_min_vers_minus_one() {
        let mut m = mnm(2);
        let mut n = nvm();
        for i in 0..10 {
            m.receive_version(&mut n, 0, line(i), i, 1);
        }
        assert_eq!(m.rec_epoch(), 0);
        // VD0 walked and is at epoch 3; VD1 still at 1.
        assert_eq!(m.report_min_ver(&mut n, 0, VdId(0), 3), None);
        assert_eq!(m.rec_epoch(), 0, "VD1 has not reported past epoch 1");
        // VD1 reports min-ver 2: every VD is past epoch 1 → rec = 1.
        assert_eq!(m.report_min_ver(&mut n, 0, VdId(1), 2), Some(1));
        assert_eq!(m.rec_epoch(), 1);
        // The merged image is readable.
        for i in 0..10 {
            assert_eq!(m.read_master(line(i)), Some(i));
        }
    }

    #[test]
    fn versions_route_across_omcs_and_image_unions() {
        let mut m = mnm(3);
        let mut n = nvm();
        // One line in each of 30 distinct pages: page-granular routing
        // spreads them 10/10/10 across the three OMCs.
        for i in 0..30 {
            m.receive_version(&mut n, 0, line(i * 64), 100 + i, 1);
        }
        m.finish(&mut n, 0, 1);
        let mut img: Vec<_> = m.master_image().collect();
        img.sort_by_key(|(l, _)| l.raw());
        assert_eq!(img.len(), 30);
        for (i, (l, t)) in img.iter().enumerate() {
            assert_eq!(l.raw(), i as u64 * 64);
            assert_eq!(*t, 100 + i as u64);
        }
        assert!(m.omcs().iter().all(|o| o.stats().versions_received == 10));
    }

    #[test]
    fn finish_drains_and_advances_rec() {
        let mut m = Mnm::new(
            1,
            1,
            OmcConfig {
                pool_pages: 16,
                buffer: Some((8, 2)),
                ..OmcConfig::default()
            },
        );
        let mut n = nvm();
        m.receive_version(&mut n, 0, line(1), 7, 5);
        assert_eq!(m.read_master(line(1)), None);
        m.finish(&mut n, 0, 5);
        assert_eq!(m.rec_epoch(), 5);
        assert_eq!(m.read_master(line(1)), Some(7));
    }

    #[test]
    fn time_travel_routes_to_the_right_omc() {
        let mut m = mnm(2);
        let mut n = nvm();
        // Lines in different pages → different OMCs.
        m.receive_version(&mut n, 0, line(4), 40, 1);
        m.receive_version(&mut n, 0, line(64 + 5), 50, 2);
        m.finish(&mut n, 0, 2);
        assert_eq!(m.time_travel(line(4), 1), Some(40));
        assert_eq!(m.time_travel(line(64 + 5), 1), None);
        assert_eq!(m.time_travel(line(64 + 5), 2), Some(50));
    }
}
