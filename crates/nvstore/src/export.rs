//! The bridge between a live [`Mnm`] and the store.
//!
//! [`SnapshotExport`] is the store's canonical, order-normalized view
//! of a snapshot: the recoverable epoch, the source topology, every
//! captured per-epoch overlay delta (sorted by line within each epoch),
//! the master mapping at the recoverable epoch, and the processor
//! context dumps. Exports are *exact* — if any epoch's tables were
//! reclaimed or compacted, export fails with a typed error instead of
//! silently producing a lossy backup.
//!
//! A restored export rebuilds a **real** `Mnm` by replaying the deltas
//! through `receive_version` and finishing at the recorded recoverable
//! epoch, so everything downstream of a live backend — §V-E recovery
//! (`DurableState`), `SnapshotStore` epoch resolution including 16-bit
//! wrap semantics, and `nvserve::Mount` — works unchanged on a restored
//! snapshot.

use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
use nvsim::nvm::Nvm;
use nvsim::{LineAddr, VdId};

use crate::error::StoreError;

/// A complete, order-normalized snapshot image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotExport {
    /// Recoverable epoch at export time.
    pub rec_epoch: u64,
    /// Newest epoch any OMC had seen at export time.
    pub max_epoch_seen: u64,
    /// Number of OMCs in the source topology.
    pub omcs: usize,
    /// Number of versioned domains in the source topology.
    pub vds: usize,
    /// Overlay pool size (pages) of the source OMC config.
    pub pool_pages: usize,
    /// `(epoch, sorted (line, token) pairs)`, ascending by epoch. May
    /// include epochs beyond `rec_epoch` (captured but not yet
    /// recoverable); those restore as not-yet-recoverable too.
    pub deltas: Vec<(u64, Vec<(u64, u64)>)>,
    /// The master mapping at `rec_epoch`, sorted by line.
    pub master: Vec<(u64, u64)>,
    /// Context dumps `(vd, epoch, blob)`, sorted by `(vd, epoch)`.
    pub contexts: Vec<(u64, u64, u64)>,
}

impl SnapshotExport {
    /// Captures an exact export of `mnm`.
    ///
    /// # Errors
    /// [`StoreError::BufferNotDrained`] when an OMC buffer still holds
    /// versions (finish the epoch first, as `nvserve::Mount` requires);
    /// [`StoreError::UnreadableEpoch`] when any captured epoch's tables
    /// were reclaimed or compacted away.
    pub fn from_mnm(mnm: &Mnm) -> Result<SnapshotExport, StoreError> {
        for (i, omc) in mnm.omcs().iter().enumerate() {
            if let Some(buf) = omc.buffer() {
                if !buf.is_empty() {
                    return Err(StoreError::BufferNotDrained {
                        omc: i,
                        buffered: buf.len(),
                    });
                }
            }
        }
        let mut deltas = Vec::new();
        for (epoch, readable) in mnm.epochs() {
            if !readable {
                return Err(StoreError::UnreadableEpoch { epoch });
            }
            let lines = mnm
                .epoch_delta(epoch)
                .ok_or(StoreError::UnreadableEpoch { epoch })?;
            deltas.push((
                epoch,
                lines
                    .into_iter()
                    .map(|(l, t)| (l.raw(), t))
                    .collect::<Vec<_>>(),
            ));
        }
        let master = sorted_master(mnm);
        let contexts = mnm
            .contexts_sorted()
            .into_iter()
            .map(|(vd, epoch, blob)| (vd as u64, epoch, blob))
            .collect();
        Ok(SnapshotExport {
            rec_epoch: mnm.rec_epoch(),
            max_epoch_seen: mnm.max_epoch_seen(),
            omcs: mnm.omcs().len(),
            vds: mnm.vd_count(),
            pool_pages: mnm.omcs()[0].config().pool_pages,
            deltas,
            master,
            contexts,
        })
    }

    /// A snapshot of this export as it stood at epoch `upto`: deltas,
    /// contexts and the recoverable epoch clamped to `upto`, with the
    /// master image re-derived by last-writer-wins fall-through over
    /// the surviving recoverable deltas. Used to stage incremental
    /// backups (the truncated export's layer chain is a prefix of the
    /// full one, so the layers are shared).
    pub fn truncated(&self, upto: u64) -> SnapshotExport {
        if upto >= self.max_epoch_seen {
            return self.clone();
        }
        let rec_epoch = self.rec_epoch.min(upto);
        let deltas: Vec<(u64, Vec<(u64, u64)>)> = self
            .deltas
            .iter()
            .filter(|&&(e, _)| e <= upto)
            .cloned()
            .collect();
        let master = fall_through(&deltas, rec_epoch);
        SnapshotExport {
            rec_epoch,
            max_epoch_seen: upto,
            omcs: self.omcs,
            vds: self.vds,
            pool_pages: self.pool_pages,
            deltas,
            master,
            contexts: self
                .contexts
                .iter()
                .filter(|&&(_, e, _)| e <= upto)
                .copied()
                .collect(),
        }
    }

    /// Rebuilds a live backend from this export by replaying every
    /// delta through `receive_version` and finishing at the recorded
    /// recoverable epoch. The returned `Mnm` passes §V-E recovery,
    /// resolves epochs (including 16-bit wrap rejection) exactly as the
    /// original did, and mounts under `nvserve`.
    ///
    /// # Errors
    /// [`StoreError::Checksum`] when the replayed master image diverges
    /// from the export's recorded master — the defense against a store
    /// that silently stitched layers from different snapshots together.
    pub fn rebuild(&self) -> Result<(Mnm, Nvm), StoreError> {
        let cfg = OmcConfig {
            pool_pages: self.pool_pages,
            // Never compact during replay: compaction would reclaim
            // per-epoch tables and make the restored snapshot lossier
            // than the backup. Growth covers any pool pressure.
            compaction_threshold: 2.0,
            grow_pages: 16 * 1024,
            retention: SnapshotRetention::KeepAll,
            buffer: None,
        };
        let mut nvm = Nvm::new(4, 400, 200, 8, 100_000);
        let mut mnm = Mnm::new(self.omcs.max(1), self.vds.max(1), cfg);
        for (epoch, lines) in &self.deltas {
            for &(line, token) in lines {
                mnm.receive_version(&mut nvm, 0, LineAddr::new(line), token, *epoch);
            }
        }
        for &(vd, epoch, blob) in &self.contexts {
            mnm.record_context(VdId(vd as u16), epoch, blob);
        }
        mnm.finish(&mut nvm, 0, self.rec_epoch);
        mnm.note_epoch_seen(self.max_epoch_seen);
        let rebuilt = sorted_master(&mnm);
        if rebuilt != self.master {
            return Err(StoreError::Checksum {
                path: "<rebuild>".to_string(),
                detail: format!(
                    "replayed master image diverges from the stored master ({} vs {} lines)",
                    rebuilt.len(),
                    self.master.len()
                ),
            });
        }
        Ok((mnm, nvm))
    }
}

/// `mnm`'s master image sorted by line. The image is one address-ordered
/// run per OMC, and the stable sort merges concatenated runs in linear
/// time where an unstable sort would not notice them.
fn sorted_master(mnm: &Mnm) -> Vec<(u64, u64)> {
    let mut master: Vec<(u64, u64)> = mnm.master_image().map(|(l, t)| (l.raw(), t)).collect();
    master.sort_by_key(|&(l, _)| l);
    master
}

/// The master image that last-writer-wins fall-through over `deltas`
/// yields at `rec_epoch`: every line written by a delta of epoch
/// `<= rec_epoch`, holding the token of the latest such delta (later in
/// `deltas` wins; within one delta, later in its list wins), sorted by
/// line. A stable sort keeps writers of one line in delta order, so the
/// last of each run is the winner.
pub(crate) fn fall_through(deltas: &[(u64, Vec<(u64, u64)>)], rec_epoch: u64) -> Vec<(u64, u64)> {
    let mut lines: Vec<(u64, u64)> = deltas
        .iter()
        .filter(|(epoch, _)| *epoch <= rec_epoch)
        .flat_map(|(_, lines)| lines.iter().copied())
        .collect();
    lines.sort_by_key(|&(line, _)| line);
    // `dedup_by` hands (later, kept): fold each later writer into the
    // kept head of its run.
    lines.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_mnm() -> (Mnm, Nvm) {
        let mut nvm = Nvm::new(4, 400, 200, 8, 100_000);
        let mut mnm = Mnm::new(2, 2, OmcConfig::default());
        for epoch in 1..=4u64 {
            for k in 0..8u64 {
                mnm.receive_version(
                    &mut nvm,
                    0,
                    LineAddr::new(k * 7 + epoch),
                    100 * epoch + k,
                    epoch,
                );
            }
        }
        mnm.record_context(VdId(0), 3, 0xc0);
        mnm.record_context(VdId(1), 3, 0xc1);
        mnm.finish(&mut nvm, 0, 3);
        (mnm, nvm)
    }

    #[test]
    fn export_rebuild_round_trips() {
        let (mnm, _nvm) = seeded_mnm();
        let export = SnapshotExport::from_mnm(&mnm).unwrap();
        assert_eq!(export.rec_epoch, 3);
        assert_eq!(export.max_epoch_seen, 4);
        assert_eq!(export.deltas.len(), 4);

        let (restored, _) = export.rebuild().unwrap();
        assert_eq!(restored.rec_epoch(), mnm.rec_epoch());
        assert_eq!(restored.max_epoch_seen(), mnm.max_epoch_seen());
        assert_eq!(restored.epochs(), mnm.epochs());
        for epoch in 1..=4u64 {
            assert_eq!(restored.epoch_delta(epoch), mnm.epoch_delta(epoch));
            for k in 0..8u64 {
                let l = LineAddr::new(k * 7 + epoch);
                assert_eq!(restored.time_travel(l, 3), mnm.time_travel(l, 3));
            }
        }
        assert_eq!(restored.context(VdId(0), 3), Some(0xc0));
        // And the round trip is a fixed point.
        assert_eq!(SnapshotExport::from_mnm(&restored).unwrap(), export);
    }

    #[test]
    fn truncated_is_a_prefix_snapshot() {
        let (mnm, _nvm) = seeded_mnm();
        let export = SnapshotExport::from_mnm(&mnm).unwrap();
        let cut = export.truncated(2);
        assert_eq!(cut.rec_epoch, 2);
        assert_eq!(cut.max_epoch_seen, 2);
        assert_eq!(cut.deltas.len(), 2);
        assert!(cut.contexts.is_empty());
        // The truncated master equals fall-through over epochs <= 2.
        let (restored, _) = cut.rebuild().unwrap();
        for &(l, _) in &cut.master {
            assert_eq!(
                restored.read_master(LineAddr::new(l)),
                mnm.time_travel(LineAddr::new(l), 2)
            );
        }
    }

    #[test]
    fn fall_through_keeps_the_last_writer() {
        // Seeded deltas over a few lines, so most lines are rewritten
        // across epochs and within one; checked against a map model.
        let mut rng = nvsim::rng::Rng64::seed_from_u64(0xFA11);
        for _ in 0..32 {
            let deltas: Vec<(u64, Vec<(u64, u64)>)> = (1..=rng.gen_range(1u64..8))
                .map(|e| {
                    let n = rng.gen_range(0usize..12);
                    (
                        e,
                        (0..n)
                            .map(|_| (rng.gen_range(0u64..10), rng.gen_u64()))
                            .collect(),
                    )
                })
                .collect();
            let rec = rng.gen_range(0u64..9);
            let mut model = std::collections::BTreeMap::new();
            for (_, lines) in deltas.iter().filter(|(e, _)| *e <= rec) {
                model.extend(lines.iter().copied());
            }
            let want: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(fall_through(&deltas, rec), want);
        }
    }

    #[test]
    fn rebuild_detects_a_stitched_master() {
        let (mnm, _nvm) = seeded_mnm();
        let mut export = SnapshotExport::from_mnm(&mnm).unwrap();
        export.master[0].1 ^= 1;
        assert!(matches!(export.rebuild(), Err(StoreError::Checksum { .. })));
    }
}
