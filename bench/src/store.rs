//! Backup and restore through the snapshot store:
//! `SnapshotExport::from_mnm` → `Store::backup` (a prefix, then the
//! incremental full image) → `Store::open`/`restore` →
//! `SnapshotExport::rebuild`.
//!
//! The timed pairs run on the store's in-memory backend (`MemIo`), so
//! they time the store's own work: export, layer encoding, checksums,
//! the manifest, verification and the rebuild. On a shared virtual disk
//! the ~650 fsyncs of one btree-hifreq backup took from 100 to 260 ms
//! from run to run, which buried that work. One backup and restore per
//! run goes through a real `DiskIo` directory, as a check of the on-disk
//! path.

use crate::run::{ms, Inputs, Recorder};
use nvstore::{BackupStats, DiskIo, MemIo, SnapshotExport, Store, StoreError, StoreIo};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed backup-and-restore pairs per round.
pub const PAIRS_PER_ROUND: usize = 3;

/// The image's export, taken once: every backup must export exactly it,
/// and every restore must give it back.
pub struct Backups<'a> {
    inp: &'a Inputs,
    reference: SnapshotExport,
}

/// Exports the image as the reference and round-trips it once through a
/// fresh on-disk store. `None`, with a failed check, when the image
/// cannot be exported.
pub fn prepare<'a>(inp: &'a Inputs, rec: &mut Recorder) -> Option<Backups<'a>> {
    let reference = match SnapshotExport::from_mnm(inp.image.mnm()) {
        Ok(e) => e,
        Err(e) => {
            rec.check(1, false, || format!("export failed: {e}"));
            return None;
        }
    };
    let b = Backups { inp, reference };
    let dir = rec.scratch_dir("disk");
    let disk = DiskIo::create(&dir).map_err(|e| StoreError::Io {
        path: dir.display().to_string(),
        detail: e.to_string(),
    });
    let r = disk.and_then(|io| b.pair(io)).map(|(ok, _, _)| ok);
    rec.check(2, matches!(r, Ok(true)), || match &r {
        Err(e) => format!("on-disk backup or restore failed: {e}"),
        Ok(_) => "the on-disk store gave back a different image".to_string(),
    });
    let _ = std::fs::remove_dir_all(&dir);
    Some(b)
}

/// The time of each step of a backup (export, prefix, incremental full)
/// and of a restore (open, read, rebuild).
type Steps = [Duration; 3];

impl Backups<'_> {
    /// Backs the image up into `io` — export, the first half of the
    /// epochs, then the whole image, which shares the prefix's layers —
    /// then opens the store again, restores the full backup (every layer
    /// verified) and rebuilds a live backend. Returns whether the export,
    /// the restored image and the rebuilt backend's export all equal the
    /// reference, with the incremental backup's stats and the steps'
    /// times.
    fn pair<I: StoreIo>(&self, io: I) -> Result<(bool, BackupStats, [Steps; 2]), StoreError> {
        let t0 = Instant::now();
        let export = SnapshotExport::from_mnm(self.inp.image.mnm())?;
        let t1 = Instant::now();
        let mut store = Store::open(io)?;
        store.backup("prefix", &export.truncated(export.rec_epoch / 2))?;
        let t2 = Instant::now();
        let incr = store.backup("full", &export)?;
        let t3 = Instant::now();
        let io = store.into_io();

        let r0 = Instant::now();
        let store = Store::open(io)?;
        let r1 = Instant::now();
        let restored = store.restore("full")?;
        let r2 = Instant::now();
        let (mnm, _nvm) = black_box(restored.rebuild()?);
        let r3 = Instant::now();

        let same = export == self.reference
            && restored == self.reference
            && SnapshotExport::from_mnm(&mnm)? == self.reference;
        Ok((
            same,
            incr,
            [[t1 - t0, t2 - t1, t3 - t2], [r1 - r0, r2 - r1, r3 - r2]],
        ))
    }

    /// [`PAIRS_PER_ROUND`] timed backup-and-restore pairs, each in a
    /// fresh in-memory store.
    pub fn round(&self, rec: &mut Recorder) {
        for _ in 0..PAIRS_PER_ROUND {
            let r = self.pair(MemIo::new());
            if let Ok((_, incr, [backup, restore])) = &r {
                let total = |s: &Steps| ms(s.iter().sum());
                rec.record("backup_ms", total(backup));
                rec.record("store.export_ms", ms(backup[0]));
                rec.record("store.backup_prefix_ms", ms(backup[1]));
                rec.record("store.backup_incr_ms", ms(backup[2]));
                rec.record("store.new_layers", incr.new_layers as f64);
                rec.record("store.shared_layers", incr.shared_layers as f64);
                rec.record("store.new_kb", incr.new_bytes as f64 / 1024.0);
                rec.record("restore_ms", total(restore));
                rec.record("store.open_ms", ms(restore[0]));
                rec.record("store.restore_read_ms", ms(restore[1]));
                rec.record("store.rebuild_ms", ms(restore[2]));
            }
            let ok = matches!(r, Ok((true, _, _)));
            rec.check(2, ok, || match &r {
                Err(e) => format!("backup or restore failed: {e}"),
                Ok(_) => "a backup or restore gave back a different image".to_string(),
            });
        }
    }
}
