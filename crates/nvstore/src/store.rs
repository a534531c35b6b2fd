//! The store proper: `open` / `backup` / `restore` / `remove` / `gc`.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   ROOT.0, ROOT.1            ping-pong root cells (the commit point)
//!   manifests/<version>.json  immutable manifest per committed version
//!   layers/<id>.layer         content-addressed layer files
//!   quarantine/<id>.layer     layers parked by GC (still restorable)
//!   tmp/                      shadow files (never read after a crash)
//! ```
//!
//! ## The commit-point argument
//!
//! Every mutation follows the same journaled shadow protocol, in this
//! order: (1) new layer files are written to `tmp/` and renamed into
//! `layers/` — content-addressed, so they overwrite nothing live;
//! (2) the new manifest is written to `tmp/` and renamed to
//! `manifests/<v>.json` — a fresh name, referenced by nothing;
//! (3) the root cell `ROOT.<v mod 2>` is written: seq, manifest length,
//! manifest FNV-1a, cell FNV-1a. Step (3) is the **single commit
//! point**, and it overwrites the *older* of the two cells — the same
//! ping-pong the simulator uses for the rec-epoch root
//! (`Nvm::write_fenced`). A crash after any prefix of completed
//! operations therefore leaves: the old root valid and every file it
//! references untouched (steps 1–2 only add), or the new root valid
//! with all its files already durable. A *torn* root-cell write fails
//! the cell checksum and falls back to the surviving cell. No prefix
//! yields a hybrid.
//!
//! GC never deletes referenced data: layers whose refcount reaches zero
//! are renamed into `quarantine/` (and restore falls back to the
//! quarantine copy), so even a stale root resurrected by corruption of
//! the newest manifest still finds its layer bytes.

use crate::error::StoreError;
use crate::export::{fall_through, SnapshotExport};
use crate::io::{IoError, StoreIo};
use crate::layer::{encode_lines, fnv1a, Layer, LayerId, LayerKind, LayerPayload};
use crate::manifest::{BackupEntry, LayerMeta, Manifest, MANIFEST_SCHEMA};

/// Magic bytes opening a root cell.
pub const ROOT_MAGIC: [u8; 4] = *b"NVRT";
const ROOT_LEN: usize = 40;

/// What `backup` did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackupStats {
    /// Layers written by this backup.
    pub new_layers: usize,
    /// Layers shared with existing backups (already in the store).
    pub shared_layers: usize,
    /// Bytes of new layer data written.
    pub new_bytes: u64,
}

/// What `gc` did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Zero-ref layers moved to quarantine by this sweep.
    pub quarantined: usize,
    /// Referenced layers kept.
    pub live: usize,
}

struct RootCell {
    seq: u64,
    manifest_len: u64,
    manifest_fnv: u64,
}

fn encode_root(cell: &RootCell) -> Vec<u8> {
    let mut out = Vec::with_capacity(ROOT_LEN);
    out.extend_from_slice(&ROOT_MAGIC);
    out.extend_from_slice(&(MANIFEST_SCHEMA as u16).to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&cell.seq.to_le_bytes());
    out.extend_from_slice(&cell.manifest_len.to_le_bytes());
    out.extend_from_slice(&cell.manifest_fnv.to_le_bytes());
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

enum RootRead {
    /// Torn, missing, or checksum-failed: ignore this cell.
    Invalid,
    /// Written by a future schema.
    Future(u64),
    /// A valid cell.
    Valid(RootCell),
}

fn decode_root(bytes: &[u8]) -> RootRead {
    if bytes.len() != ROOT_LEN || bytes[..4] != ROOT_MAGIC {
        return RootRead::Invalid;
    }
    let body = &bytes[..ROOT_LEN - 8];
    let stored = u64::from_le_bytes(bytes[ROOT_LEN - 8..].try_into().expect("fixed len"));
    if fnv1a(body) != stored {
        return RootRead::Invalid;
    }
    let schema = u16::from_le_bytes([bytes[4], bytes[5]]) as u64;
    if schema > MANIFEST_SCHEMA {
        return RootRead::Future(schema);
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("fixed len"));
    RootRead::Valid(RootCell {
        seq: word(8),
        manifest_len: word(16),
        manifest_fnv: word(24),
    })
}

fn io_err(e: IoError) -> StoreError {
    StoreError::Io {
        path: e.path().to_string(),
        detail: e.to_string(),
    }
}

fn manifest_path(version: u64) -> String {
    format!("manifests/{version:08}.json")
}

fn layer_path(id: LayerId) -> String {
    format!("layers/{id}.layer")
}

fn quarantine_path(id: LayerId) -> String {
    format!("quarantine/{id}.layer")
}

/// An open snapshot store over an I/O backend.
pub struct Store<I: StoreIo> {
    io: I,
    manifest: Manifest,
}

impl<I: StoreIo> Store<I> {
    /// Opens (or initializes) the store, electing the newest fully
    /// valid (root cell, manifest) pair. When the newest root's
    /// manifest fails validation, the surviving cell's state is used —
    /// a clean restore of the prior consistent manifest.
    ///
    /// # Errors
    /// Typed [`StoreError`]s only: `TornManifest` when a non-fresh
    /// store has no valid pair left, `SchemaVersion` for stores written
    /// by a future version, plus `Checksum`/`MissingLayer`/
    /// `RefcountUnderflow` when every candidate manifest is internally
    /// inconsistent.
    pub fn open(io: I) -> Result<Store<I>, StoreError> {
        let mut cells: Vec<RootCell> = Vec::new();
        for slot in 0..2u64 {
            match io.read(&format!("ROOT.{slot}")) {
                Err(_) => {}
                Ok(bytes) => match decode_root(&bytes) {
                    RootRead::Invalid => {}
                    RootRead::Future(found) => {
                        return Err(StoreError::SchemaVersion {
                            found,
                            supported: MANIFEST_SCHEMA,
                        })
                    }
                    RootRead::Valid(cell) => cells.push(cell),
                },
            }
        }
        cells.sort_by_key(|c| std::cmp::Reverse(c.seq));

        if cells.is_empty() {
            // No valid root. A crash during the very first commit can
            // legitimately leave layer/manifest files with no (or a
            // torn) root cell — the prior consistent state is the empty
            // store. But a manifest of version >= 2 proves an earlier
            // commit once had a valid root, so losing *both* cells is
            // corruption, not a crash prefix.
            let max_published = io
                .list("manifests")
                .map_err(io_err)?
                .iter()
                .filter_map(|name| name.strip_suffix(".json")?.parse::<u64>().ok())
                .max()
                .unwrap_or(0);
            if max_published >= 2 {
                return Err(StoreError::TornManifest {
                    detail: "both root cells torn or missing in a committed store".to_string(),
                });
            }
            return Ok(Store {
                io,
                manifest: Manifest::default(),
            });
        }

        let mut first_err: Option<StoreError> = None;
        for cell in &cells {
            match Self::load_state(&io, cell) {
                Ok(manifest) => return Ok(Store { io, manifest }),
                Err(e) => first_err = Some(first_err.unwrap_or(e)),
            }
        }
        Err(first_err.expect("at least one candidate was tried"))
    }

    fn load_state(io: &I, cell: &RootCell) -> Result<Manifest, StoreError> {
        let path = manifest_path(cell.seq);
        let text = io.read(&path).map_err(|_| StoreError::TornManifest {
            detail: format!("root cell seq {} references a missing manifest", cell.seq),
        })?;
        if text.len() as u64 != cell.manifest_len || fnv1a(&text) != cell.manifest_fnv {
            return Err(StoreError::TornManifest {
                detail: format!("manifest {path} does not match its root-cell checksum"),
            });
        }
        let text = String::from_utf8(text).map_err(|_| StoreError::TornManifest {
            detail: format!("manifest {path} is not UTF-8"),
        })?;
        let manifest = Manifest::parse(&text)?;
        if manifest.version != cell.seq {
            return Err(StoreError::TornManifest {
                detail: format!(
                    "manifest {path} records version {}, root cell says {}",
                    manifest.version, cell.seq
                ),
            });
        }
        manifest.verify_refs()?;
        for &(id, _) in &manifest.layers {
            if !io.exists(&layer_path(id)) && !io.exists(&quarantine_path(id)) {
                return Err(StoreError::MissingLayer { id });
            }
        }
        Ok(manifest)
    }

    /// The currently committed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Consumes the store, returning the backend.
    pub fn into_io(self) -> I {
        self.io
    }

    fn commit(&mut self, mut next: Manifest) -> Result<(), StoreError> {
        next.version = self.manifest.version + 1;
        let v = next.version;
        let text = next.to_json();
        let bytes = text.as_bytes();
        // Shadow, publish, then flip the root — see the module docs for
        // why this ordering makes the root write the sole commit point.
        self.io.write("tmp/manifest.json", bytes).map_err(io_err)?;
        self.io
            .rename("tmp/manifest.json", &manifest_path(v))
            .map_err(io_err)?;
        let cell = encode_root(&RootCell {
            seq: v,
            manifest_len: bytes.len() as u64,
            manifest_fnv: fnv1a(bytes),
        });
        self.io
            .write(&format!("ROOT.{}", v % 2), &cell)
            .map_err(io_err)?;
        // Committed. Prune manifests older than the surviving cell
        // (only versions v and v-1 are reachable from the roots).
        for name in self.io.list("manifests").map_err(io_err)? {
            if let Some(ver) = name
                .strip_suffix(".json")
                .and_then(|s| s.parse::<u64>().ok())
            {
                if ver + 1 < v {
                    let _ = self.io.remove(&format!("manifests/{name}"));
                }
            }
        }
        self.manifest = next;
        Ok(())
    }

    /// Backs `snapshot` up under `name`, writing only layers absent
    /// from the store (incremental: shared epoch prefixes produce
    /// shared layers, by content addressing).
    ///
    /// # Errors
    /// [`StoreError::BackupExists`] for duplicate names, plus I/O
    /// failures.
    pub fn backup(
        &mut self,
        name: &str,
        snapshot: &SnapshotExport,
    ) -> Result<BackupStats, StoreError> {
        if self.manifest.backup(name).is_some() {
            return Err(StoreError::BackupExists {
                name: name.to_string(),
            });
        }
        let mut stats = BackupStats::default();
        let mut next = self.manifest.clone();

        // Each layer is encoded once; its id is the encoding's trailing
        // checksum, and each delta chains to the previous delta's id.
        let mut deltas = Vec::with_capacity(snapshot.deltas.len());
        let mut parent = None;
        for (epoch, lines) in &snapshot.deltas {
            let encoded = encode_lines(LayerKind::Delta, *epoch, parent, lines);
            let id = self.publish(
                &mut next,
                &mut stats,
                LayerKind::Delta,
                *epoch,
                parent,
                encoded,
            )?;
            deltas.push((*epoch, id));
            parent = Some(id);
        }
        let encoded = encode_lines(
            LayerKind::Master,
            snapshot.rec_epoch,
            parent,
            &snapshot.master,
        );
        let master = self.publish(
            &mut next,
            &mut stats,
            LayerKind::Master,
            snapshot.rec_epoch,
            parent,
            encoded,
        )?;
        let context = if snapshot.contexts.is_empty() {
            None
        } else {
            let layer = Layer {
                kind: LayerKind::Context,
                epoch: snapshot.rec_epoch,
                parent: None,
                payload: LayerPayload::Contexts(snapshot.contexts.clone()),
            };
            let encoded = layer.encode();
            Some(self.publish(
                &mut next,
                &mut stats,
                layer.kind,
                layer.epoch,
                None,
                encoded,
            )?)
        };

        next.backups.push(BackupEntry {
            name: name.to_string(),
            rec_epoch: snapshot.rec_epoch,
            max_epoch_seen: snapshot.max_epoch_seen,
            omcs: snapshot.omcs,
            vds: snapshot.vds,
            pool_pages: snapshot.pool_pages,
            master,
            context,
            deltas,
        });
        self.commit(next)?;
        Ok(stats)
    }

    /// Adds one encoded layer to the backup staged in `next`: counts it
    /// as new or shared, publishes its bytes unless `layers/` has them,
    /// and takes a reference. Returns the layer's id.
    fn publish(
        &mut self,
        next: &mut Manifest,
        stats: &mut BackupStats,
        kind: LayerKind,
        epoch: u64,
        parent: Option<LayerId>,
        encoded: Vec<u8>,
    ) -> Result<LayerId, StoreError> {
        let id = LayerId::sealed(&encoded);
        let published = layer_path(id);
        if next.layer_meta(id).is_some() {
            stats.shared_layers += 1;
        } else {
            stats.new_layers += 1;
            stats.new_bytes += encoded.len() as u64;
        }
        // (Re-)publish the bytes whenever `layers/` lacks them — covers
        // both genuinely new layers and a quarantined layer being
        // referenced again after GC.
        if !self.io.exists(&published) {
            let tmp = format!("tmp/{id}.layer");
            self.io.write(&tmp, &encoded).map_err(io_err)?;
            self.io.rename(&tmp, &published).map_err(io_err)?;
        }
        match next.layers.binary_search_by_key(&id, |&(lid, _)| lid) {
            Ok(i) => next.layers[i].1.refs += 1,
            Err(i) => next.layers.insert(
                i,
                (
                    id,
                    LayerMeta {
                        kind,
                        epoch,
                        parent,
                        bytes: encoded.len() as u64,
                        refs: 1,
                    },
                ),
            ),
        }
        next.quarantine.retain(|&q| q != id);
        Ok(id)
    }

    fn read_layer(&self, id: LayerId) -> Result<Layer, StoreError> {
        let published = layer_path(id);
        let bytes = match self.io.read(&published) {
            Ok(b) => b,
            // GC parks zero-ref layers instead of deleting them, so a
            // backup resurrected from a stale root still restores.
            Err(_) => self
                .io
                .read(&quarantine_path(id))
                .map_err(|_| StoreError::MissingLayer { id })?,
        };
        let layer = Layer::decode(&bytes, &published)?;
        let sealed = LayerId::sealed(&bytes);
        if sealed != id {
            return Err(StoreError::Checksum {
                path: published,
                detail: format!("content id {sealed} does not match file name"),
            });
        }
        Ok(layer)
    }

    /// Restores the named backup, fully verifying every layer checksum,
    /// the parent chain, and that the stored master image equals
    /// last-writer-wins fall-through over the recoverable deltas (the
    /// anti-hybrid cross-check).
    ///
    /// # Errors
    /// [`StoreError::BackupNotFound`], plus any checksum/chain/missing-
    /// layer failure.
    pub fn restore(&self, name: &str) -> Result<SnapshotExport, StoreError> {
        let entry = self
            .manifest
            .backup(name)
            .ok_or_else(|| StoreError::BackupNotFound {
                name: name.to_string(),
            })?;
        let chain_err = |id: LayerId, detail: String| StoreError::Checksum {
            path: layer_path(id),
            detail,
        };

        let mut deltas = Vec::with_capacity(entry.deltas.len());
        let mut parent: Option<LayerId> = None;
        for &(epoch, id) in &entry.deltas {
            let layer = self.read_layer(id)?;
            if layer.kind != LayerKind::Delta || layer.epoch != epoch {
                return Err(chain_err(
                    id,
                    format!("expected the delta layer of epoch {epoch}"),
                ));
            }
            if layer.parent != parent {
                return Err(chain_err(id, "parent chain mismatch".to_string()));
            }
            parent = Some(id);
            let LayerPayload::Lines(lines) = layer.payload else {
                return Err(chain_err(
                    id,
                    "delta layer with context payload".to_string(),
                ));
            };
            deltas.push((epoch, lines));
        }

        let master_layer = self.read_layer(entry.master)?;
        if master_layer.kind != LayerKind::Master
            || master_layer.epoch != entry.rec_epoch
            || master_layer.parent != parent
        {
            return Err(chain_err(
                entry.master,
                "master layer does not terminate this backup's chain".to_string(),
            ));
        }
        let LayerPayload::Lines(master) = master_layer.payload else {
            return Err(chain_err(
                entry.master,
                "master layer with context payload".to_string(),
            ));
        };

        let contexts = match entry.context {
            None => Vec::new(),
            Some(id) => {
                let layer = self.read_layer(id)?;
                if layer.kind != LayerKind::Context {
                    return Err(chain_err(id, "expected a context layer".to_string()));
                }
                let LayerPayload::Contexts(triples) = layer.payload else {
                    return Err(chain_err(id, "context layer with line payload".to_string()));
                };
                triples
            }
        };

        // Anti-hybrid cross-check: the master image must equal
        // fall-through over the recoverable deltas. Layers stitched
        // from two different snapshots cannot pass this.
        if fall_through(&deltas, entry.rec_epoch) != master {
            return Err(chain_err(
                entry.master,
                "master image diverges from delta-chain fall-through".to_string(),
            ));
        }

        Ok(SnapshotExport {
            rec_epoch: entry.rec_epoch,
            max_epoch_seen: entry.max_epoch_seen,
            omcs: entry.omcs,
            vds: entry.vds,
            pool_pages: entry.pool_pages,
            deltas,
            master,
            contexts,
        })
    }

    /// Removes the named backup, decrementing its layers' refcounts.
    /// The layer files stay until [`Store::gc`] quarantines them.
    ///
    /// # Errors
    /// [`StoreError::BackupNotFound`]; [`StoreError::RefcountUnderflow`]
    /// when a refcount would go below zero (a corrupt manifest that
    /// `open` validation was robbed of).
    pub fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        let entry =
            self.manifest
                .backup(name)
                .cloned()
                .ok_or_else(|| StoreError::BackupNotFound {
                    name: name.to_string(),
                })?;
        let mut next = self.manifest.clone();
        next.backups.retain(|b| b.name != name);
        for id in entry.layer_ids() {
            let i = next
                .layers
                .binary_search_by_key(&id, |&(lid, _)| lid)
                .map_err(|_| StoreError::MissingLayer { id })?;
            let meta = &mut next.layers[i].1;
            if meta.refs == 0 {
                return Err(StoreError::RefcountUnderflow {
                    id,
                    stored: 0,
                    actual: 0,
                });
            }
            meta.refs -= 1;
        }
        self.commit(next)
    }

    /// Sweeps zero-ref layers into `quarantine/` (never an immediate
    /// delete: quarantined bytes still serve restores of resurrected
    /// stale roots) and drops leftover shadow files.
    pub fn gc(&mut self) -> Result<GcStats, StoreError> {
        let mut next = self.manifest.clone();
        let zero: Vec<LayerId> = next
            .layers
            .iter()
            .filter(|(_, meta)| meta.refs == 0)
            .map(|&(id, _)| id)
            .collect();
        for &id in &zero {
            let published = layer_path(id);
            if self.io.exists(&published) {
                self.io
                    .rename(&published, &quarantine_path(id))
                    .map_err(io_err)?;
            }
            // Already parked by an interrupted sweep: nothing to move.
        }
        for name in self.io.list("tmp").map_err(io_err)? {
            let _ = self.io.remove(&format!("tmp/{name}"));
        }
        next.layers.retain(|(_, meta)| meta.refs > 0);
        let mut quarantine = next.quarantine.clone();
        quarantine.extend(zero.iter().copied());
        quarantine.sort_unstable();
        quarantine.dedup();
        next.quarantine = quarantine;
        let stats = GcStats {
            quarantined: zero.len(),
            live: next.layers.len(),
        };
        self.commit(next)?;
        Ok(stats)
    }

    /// Deletes every quarantined layer file for good. Safe because
    /// `backup` republishes into `layers/` any quarantined layer that
    /// becomes referenced again.
    pub fn purge_quarantine(&mut self) -> Result<usize, StoreError> {
        let files = self.io.list("quarantine").map_err(io_err)?;
        let count = files.len();
        for name in files {
            self.io
                .remove(&format!("quarantine/{name}"))
                .map_err(io_err)?;
        }
        let mut next = self.manifest.clone();
        next.quarantine.clear();
        self.commit(next)?;
        Ok(count)
    }

    /// Fully verifies the store: refcounts, every backup's layer
    /// checksums, parent chains, and master cross-checks. Returns the
    /// number of backups checked.
    pub fn validate(&self) -> Result<usize, StoreError> {
        self.manifest.verify_refs()?;
        let names: Vec<String> = self
            .manifest
            .backups
            .iter()
            .map(|b| b.name.clone())
            .collect();
        for name in &names {
            self.restore(name)?;
        }
        Ok(names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::replay;
    use crate::io::MemIo;

    fn snap(epochs: std::ops::RangeInclusive<u64>, rec: u64) -> SnapshotExport {
        let deltas: Vec<(u64, Vec<(u64, u64)>)> = epochs
            .clone()
            .map(|e| (e, vec![(e % 3, e * 100), (10 + e, e)]))
            .collect();
        let mut master: std::collections::BTreeMap<u64, u64> = Default::default();
        for (e, lines) in &deltas {
            if *e <= rec {
                for &(l, t) in lines {
                    master.insert(l, t);
                }
            }
        }
        SnapshotExport {
            rec_epoch: rec,
            max_epoch_seen: *epochs.end(),
            omcs: 2,
            vds: 2,
            pool_pages: 1024,
            deltas,
            master: master.into_iter().collect(),
            contexts: vec![(0, rec, 7)],
        }
    }

    #[test]
    fn backup_restore_round_trips() {
        let mut store = Store::open(MemIo::new()).unwrap();
        let s = snap(1..=4, 3);
        let stats = store.backup("a", &s).unwrap();
        assert_eq!(stats.new_layers, 6); // 4 deltas + master + context
        assert_eq!(store.restore("a").unwrap(), s);
        assert!(matches!(
            store.restore("nope"),
            Err(StoreError::BackupNotFound { .. })
        ));
        assert!(matches!(
            store.backup("a", &s),
            Err(StoreError::BackupExists { .. })
        ));
    }

    #[test]
    fn incremental_backup_shares_prefix_layers() {
        let mut store = Store::open(MemIo::new()).unwrap();
        let full = snap(1..=4, 3);
        let base = full.truncated(2);
        store.backup("base", &base).unwrap();
        let stats = store.backup("head", &full).unwrap();
        // Epochs 1..=2 are shared; epochs 3..=4, the master and the
        // context differ.
        assert_eq!(stats.shared_layers, 2);
        assert_eq!(stats.new_layers, 4);
        // Backing up identical content again under a new name writes
        // nothing at all.
        let again = store.backup("head2", &full).unwrap();
        assert_eq!(again.new_layers, 0);
        assert_eq!(again.new_bytes, 0);
        assert_eq!(store.restore("head2").unwrap(), full);
    }

    #[test]
    fn restore_refuses_a_master_layer_from_another_snapshot() {
        use crate::io::StoreIo as _;
        let mut store = Store::open(MemIo::new()).unwrap();
        let s = snap(1..=4, 3);
        let other = snap(1..=4, 2);
        assert_ne!(s.master, other.master);
        store.backup("a", &s).unwrap();
        store.backup("b", &other).unwrap();
        let a = store.manifest().backup("a").unwrap().clone();
        let b = store.manifest().backup("b").unwrap().clone();
        // Point a's manifest entry at `master`, moving one reference.
        let stitch = |store: &mut Store<MemIo>, master: LayerId| {
            let mut next = store.manifest.clone();
            for (id, meta) in &mut next.layers {
                meta.refs += u64::from(*id == master);
                meta.refs -= u64::from(*id == a.master);
            }
            next.backups[0].master = master;
            store.commit(next).unwrap();
            Store::open(store.io.clone()).unwrap().restore("a")
        };

        // b's master layer as stored: its chain is b's, not a's.
        let mut swapped = Store::open(store.io.clone()).unwrap();
        assert!(matches!(
            stitch(&mut swapped, b.master),
            Err(StoreError::Checksum { .. })
        ));

        // b's master image re-sealed onto a's chain: every checksum and
        // parent link verifies, so only the fall-through check can see
        // the hybrid.
        let grafted = Layer {
            kind: LayerKind::Master,
            epoch: s.rec_epoch,
            parent: a.deltas.last().map(|&(_, id)| id),
            payload: LayerPayload::Lines(other.master.clone()),
        };
        let id = grafted.id();
        store.io.write(&layer_path(id), &grafted.encode()).unwrap();
        let meta = LayerMeta {
            kind: LayerKind::Master,
            epoch: s.rec_epoch,
            parent: grafted.parent,
            bytes: grafted.encode().len() as u64,
            refs: 0,
        };
        let at = store.manifest.layers.partition_point(|&(lid, _)| lid < id);
        store.manifest.layers.insert(at, (id, meta));
        match stitch(&mut store, id) {
            Err(StoreError::Checksum { detail, .. }) => {
                assert!(detail.contains("fall-through"), "{detail}")
            }
            other => panic!("grafted master restored: {other:?}"),
        }
    }

    #[test]
    fn reopen_finds_committed_state() {
        let mut store = Store::open(MemIo::new()).unwrap();
        let s = snap(1..=3, 3);
        store.backup("a", &s).unwrap();
        let io = store.into_io();
        let store = Store::open(io).unwrap();
        assert_eq!(store.restore("a").unwrap(), s);
        assert_eq!(store.manifest().version, 1);
    }

    #[test]
    fn gc_quarantines_and_restore_falls_back() {
        let mut store = Store::open(MemIo::new()).unwrap();
        let full = snap(1..=4, 3);
        store.backup("base", &full.truncated(2)).unwrap();
        store.backup("head", &full).unwrap();
        store.remove("head").unwrap();
        let stats = store.gc().unwrap();
        assert_eq!(stats.quarantined, 4); // head-only: deltas 3,4 + master + context
        assert!(stats.live > 0);
        assert_eq!(store.manifest().quarantine.len(), 4);
        // The surviving backup still restores and validates.
        assert_eq!(store.validate().unwrap(), 1);
        // Re-backing-up the full snapshot resurrects quarantined
        // layers into layers/.
        let stats = store.backup("head3", &full).unwrap();
        assert_eq!(stats.new_layers, 4);
        assert!(store.manifest().quarantine.is_empty());
        let purged = store.purge_quarantine().unwrap();
        assert_eq!(purged, 4);
        assert_eq!(store.restore("head3").unwrap(), full);
    }

    #[test]
    fn remove_then_gc_then_purge_is_idempotent() {
        let mut store = Store::open(MemIo::new()).unwrap();
        store.backup("only", &snap(1..=2, 2)).unwrap();
        store.remove("only").unwrap();
        store.gc().unwrap();
        let second = store.gc().unwrap();
        assert_eq!(second.quarantined, 0);
        store.purge_quarantine().unwrap();
        assert_eq!(store.purge_quarantine().unwrap(), 0);
        assert!(matches!(
            store.remove("only"),
            Err(StoreError::BackupNotFound { .. })
        ));
    }

    #[test]
    fn every_crash_prefix_of_a_full_script_opens_to_a_consistent_state() {
        // Record a backup → backup → remove → gc script, then replay a
        // crash at every journal prefix (and a torn variant of each
        // boundary write) and require: open succeeds, the manifest is
        // one of the committed states, and every listed backup restores
        // to exactly the image that state committed.
        let full = snap(1..=4, 3);
        let base = full.truncated(2);
        let mut store = Store::open(MemIo::recording()).unwrap();
        store.backup("base", &base).unwrap();
        store.backup("head", &full).unwrap();
        store.remove("head").unwrap();
        store.gc().unwrap();
        let mut io = store.into_io();
        let journal = io.take_journal();
        assert!(journal.len() > 10);
        for site in 0..=journal.len() {
            for torn_keep in [None, Some(0), Some(5)] {
                let fs = replay(&journal, site, torn_keep);
                let store = Store::open(fs).unwrap_or_else(|e| {
                    panic!("open failed at crash site {site} (torn {torn_keep:?}): {e}")
                });
                let version = store.manifest().version;
                let expect: &[(&str, &SnapshotExport)] = match version {
                    0 => &[],
                    1 => &[("base", &base)],
                    2 => &[("base", &base), ("head", &full)],
                    3 | 4 => &[("base", &base)],
                    v => panic!("impossible manifest version {v} at site {site}"),
                };
                let names: Vec<&str> = store
                    .manifest()
                    .backups
                    .iter()
                    .map(|b| b.name.as_str())
                    .collect();
                assert_eq!(
                    names,
                    expect.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                    "hybrid backup set at site {site}"
                );
                for (name, image) in expect {
                    assert_eq!(
                        &store.restore(name).unwrap_or_else(|e| panic!(
                            "restore of {name} failed at site {site}: {e}"
                        )),
                        *image,
                        "hybrid image for {name} at site {site}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupting_any_live_file_yields_a_typed_error_or_prior_state() {
        let mut store = Store::open(MemIo::new()).unwrap();
        let s = snap(1..=3, 3);
        store.backup("a", &s).unwrap();
        let io = store.into_io();
        for path in io.paths() {
            for bit in [0u64, 63, 1007] {
                let mut fs = io.clone();
                fs.flip_bit(&path, bit);
                match Store::open(fs) {
                    Err(e) => {
                        // Typed error; which one depends on the victim.
                        let _ = e.name();
                    }
                    Ok(store) => match store.restore("a") {
                        Err(e) => {
                            let _ = e.name();
                        }
                        Ok(image) => assert_eq!(
                            image, s,
                            "flip of {path} bit {bit} silently changed the image"
                        ),
                    },
                }
            }
        }
    }

    #[test]
    fn both_roots_lost_in_a_committed_store_is_torn_manifest() {
        let mut store = Store::open(MemIo::new()).unwrap();
        store.backup("a", &snap(1..=2, 2)).unwrap();
        store.backup("b", &snap(1..=3, 3)).unwrap();
        let mut io = store.into_io();
        use crate::io::StoreIo as _;
        io.remove("ROOT.0").unwrap();
        io.remove("ROOT.1").unwrap();
        assert!(matches!(
            Store::open(io),
            Err(StoreError::TornManifest { .. })
        ));
    }
}
