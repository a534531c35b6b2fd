//! Rebuilding post-crash durable state from a journal crash cut.
//!
//! The fault plane ([`nvsim::fault::FaultPlane`]) records every NVM write
//! with its semantic payload; a [`CrashCut`] says which of those writes
//! survived. This module replays the surviving writes into the durable
//! state each scheme's recovery procedure would find on the device:
//!
//! * [`RebuiltState`] — the NVOverlay view (epoch-tagged version slots,
//!   master mapping words, the `rec-epoch` root ping-pong cell). It
//!   implements [`DurableState`], so the production
//!   [`nvoverlay::recovery::recover_durable`] runs against it unchanged.
//! * [`rebuild_undo`]/[`undo_expected`] — the software-undo-logging view
//!   (home locations, undo log, epoch commit markers) and the
//!   journal-derived image it must reconstruct.

use nvoverlay::recovery::{DurableState, RootCell};
use nvsim::addr::{LineAddr, Token};
use nvsim::fastmap::FastHashMap;
use nvsim::fault::{CrashCut, FaultPlane, PersistPayload};
use nvsim::rng::Rng64;

/// How faithfully the rebuilt state falls through to a line's version
/// at the root epoch.
///
/// `BrokenNoEpochFilter` is a deliberately wrong implementation kept for
/// harness self-tests: it ignores the root epoch and always returns the
/// newest durable version, which leaks post-`rec-epoch` writes into the
/// "recovered" image. The chaos invariants must catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildFidelity {
    /// Correct §V-E semantics: newest durable version at or below the
    /// root epoch.
    Exact,
    /// Intentionally broken: newest durable version, epoch ignored.
    BrokenNoEpochFilter,
}

/// Durable NVOverlay state reconstructed from a crash cut.
#[derive(Clone, Debug)]
pub struct RebuiltState {
    /// line → durable versions as `(epoch, journal id, token)`, in
    /// journal order (id ascending).
    versions: FastHashMap<LineAddr, Vec<(u64, u64, Token)>>,
    /// Master mapping words replayed from durable `MasterChunk` writes.
    words: FastHashMap<LineAddr, u64>,
    /// The epoch of the last durable `rec-epoch` root write (0: none).
    root: u64,
    /// Epoch named by a root write torn by the crash, if any. While set,
    /// `root()` reports a torn cell and recovery must fall back.
    torn_root: Option<u64>,
    fidelity: RebuildFidelity,
}

impl RebuiltState {
    /// Replays the surviving prefix of the journal into durable NVOverlay
    /// state.
    ///
    /// Torn-write semantics: data-sized writes (versions, contexts) are
    /// line-atomic — torn means lost. A torn `MasterChunk` keeps a
    /// deterministic prefix of its entries. A torn `RecEpochRoot` leaves
    /// the cell failing its integrity check until
    /// [`fallback_to_previous_root`](Self::fallback_to_previous_root).
    pub fn rebuild(plane: &FaultPlane, cut: &CrashCut, fidelity: RebuildFidelity) -> Self {
        let mut s = Self {
            versions: FastHashMap::default(),
            words: FastHashMap::default(),
            root: 0,
            torn_root: None,
            fidelity,
        };
        for r in plane.records() {
            let torn = cut.torn == Some(r.id);
            if !cut.survives(r.id) && !torn {
                continue;
            }
            match (&r.payload, torn) {
                (Some(PersistPayload::Version { line, token, epoch }), false) => {
                    s.versions
                        .entry(*line)
                        .or_default()
                        .push((*epoch, r.id, *token));
                }
                (Some(PersistPayload::MasterChunk { entries }), false) => {
                    for (l, w) in entries {
                        s.words.insert(*l, *w);
                    }
                }
                (Some(PersistPayload::MasterChunk { entries }), true) => {
                    // Torn chunk: a deterministic prefix of its ≤32 words
                    // made it to the array before the crash.
                    let keep = (r.id as usize) % (entries.len() + 1);
                    for (l, w) in &entries[..keep] {
                        s.words.insert(*l, *w);
                    }
                }
                (Some(PersistPayload::RecEpochRoot { epoch }), false) => {
                    s.root = *epoch;
                }
                (Some(PersistPayload::RecEpochRoot { epoch }), true) => {
                    s.torn_root = Some(*epoch);
                }
                // Context dumps carry nothing recovery reads; torn data
                // writes are line-atomic: simply lost. Undo-logging
                // payloads don't belong to this scheme view.
                _ => {}
            }
        }
        s
    }

    /// Drops the torn root: recovery restarts from the previous durable
    /// `rec-epoch` cell (the paper's ping-pong root makes this safe —
    /// at most one cell can be torn).
    pub fn fallback_to_previous_root(&mut self) {
        self.torn_root = None;
    }

    /// Flips one random bit in one random master mapping word, modeling
    /// in-array corruption. Returns `(line, original word, bit)` so the
    /// caller can assert detection and then [`heal`](Self::heal) the
    /// word. `None` when no mapping words survived the crash.
    pub fn inject_flip(&mut self, rng: &mut Rng64) -> Option<(LineAddr, u64, u32)> {
        if self.words.is_empty() {
            return None;
        }
        let mut keys: Vec<LineAddr> = self.words.keys().copied().collect();
        keys.sort_by_key(|l| l.raw());
        let line = keys[rng.gen_range(0..keys.len() as u64) as usize];
        let bit = rng.gen_range(0..64u64) as u32;
        let original = self.words[&line];
        self.words.insert(line, original ^ (1u64 << bit));
        Some((line, original, bit))
    }

    /// Restores a mapping word corrupted by [`inject_flip`](Self::inject_flip).
    pub fn heal(&mut self, line: LineAddr, word: u64) {
        self.words.insert(line, word);
    }
}

impl DurableState for RebuiltState {
    fn root(&self) -> RootCell {
        if let Some(epoch) = self.torn_root {
            return RootCell { epoch, torn: true };
        }
        RootCell {
            epoch: self.root,
            torn: false,
        }
    }

    fn mapping_words(&self) -> Box<dyn Iterator<Item = (LineAddr, u64)> + '_> {
        Box::new(self.words.iter().map(|(l, w)| (*l, *w)))
    }

    fn image(&self, epoch: u64) -> Box<dyn Iterator<Item = (LineAddr, Token)> + '_> {
        let bound = match self.fidelity {
            RebuildFidelity::Exact => epoch,
            RebuildFidelity::BrokenNoEpochFilter => u64::MAX,
        };
        // Newest durable version at or below the bound; among equals the
        // latest journal write wins (re-persisted slots).
        Box::new(self.versions.iter().filter_map(move |(line, vs)| {
            vs.iter()
                .filter(|(e, _, _)| *e <= bound)
                .max_by_key(|(e, id, _)| (*e, *id))
                .map(|(_, _, t)| (*line, *t))
        }))
    }
}

/// The number of epochs with a durable commit marker under `cut`:
/// epochs `0..cutoff` committed; anything at or beyond `cutoff` must be
/// rolled back.
pub fn undo_commit_cutoff(plane: &FaultPlane, cut: &CrashCut) -> u64 {
    let mut cutoff = 0u64;
    for r in plane.records() {
        if let Some(PersistPayload::EpochCommit { epoch }) = &r.payload {
            if cut.survives(r.id) {
                cutoff = cutoff.max(*epoch + 1);
            }
        }
    }
    cutoff
}

/// The image software undo-logging recovery reconstructs from a crash
/// cut: replay surviving home-location writes, find the newest durable
/// epoch commit marker `C`, then roll back every home overwrite from
/// epochs newer than `C` using the (write-ahead, hence durable) undo log.
/// A rolled-back line whose pre-image token is 0 was never committed —
/// it reverts to zero-fill and leaves the image.
pub fn rebuild_undo(plane: &FaultPlane, cut: &CrashCut) -> FastHashMap<LineAddr, Token> {
    let cutoff = undo_commit_cutoff(plane, cut);

    // Home array: last surviving write per line, tagged with its epoch.
    let mut home: FastHashMap<LineAddr, (u64, Token)> = FastHashMap::default();
    // Undo log: earliest surviving pre-image per line among epochs ≥ cutoff.
    let mut undo: FastHashMap<LineAddr, Token> = FastHashMap::default();
    for r in plane.records() {
        if !cut.survives(r.id) {
            continue;
        }
        match &r.payload {
            Some(PersistPayload::DataHome { line, token, epoch }) => {
                home.insert(*line, (*epoch, *token));
            }
            Some(PersistPayload::UndoLog { line, prev, epoch }) if *epoch >= cutoff => {
                undo.entry(*line).or_insert(*prev);
            }
            _ => {}
        }
    }
    let mut image: FastHashMap<LineAddr, Token> = FastHashMap::default();
    for (line, (epoch, token)) in home {
        if epoch >= cutoff {
            // Uncommitted overwrite: roll back to the logged pre-image.
            match undo.get(&line) {
                Some(&prev) if prev != 0 => {
                    image.insert(line, prev);
                }
                _ => {}
            }
        } else {
            image.insert(line, token);
        }
    }
    image
}

/// The journal-derived *expected* image for software undo logging: home
/// writes of epochs older than the newest durable commit marker, replayed
/// in journal order. Computed without consulting the undo log, so it is
/// an independent check on [`rebuild_undo`].
pub fn undo_expected(plane: &FaultPlane, cut: &CrashCut) -> FastHashMap<LineAddr, Token> {
    let cutoff = undo_commit_cutoff(plane, cut);
    let mut image = FastHashMap::default();
    for r in plane.records() {
        if let Some(PersistPayload::DataHome { line, token, epoch }) = &r.payload {
            if *epoch < cutoff && cut.survives(r.id) {
                image.insert(*line, *token);
            }
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvoverlay::mnm::{table::encode_loc, NvmLoc};
    use nvoverlay::recovery::{recover_durable, RecoveryError};

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// A synthetic journal: three version writes across two epochs plus a
    /// root for epoch 1 only.
    fn synthetic_plane() -> FaultPlane {
        let mut p = FaultPlane::default();
        // id 0: line 1 @ epoch 1 (durable below).
        p.record(0, 10);
        p.annotate_last(PersistPayload::Version {
            line: line(1),
            token: 11,
            epoch: 1,
        });
        // id 1: root -> epoch 1.
        p.record(10, 20);
        p.annotate_last(PersistPayload::RecEpochRoot { epoch: 1 });
        // id 2: line 2 @ epoch 2 (will be lost in the cut).
        p.record(20, 40);
        p.annotate_last(PersistPayload::Version {
            line: line(2),
            token: 22,
            epoch: 2,
        });
        // id 3: line 3 @ epoch 2 (durable past-root version).
        p.record(20, 30);
        p.annotate_last(PersistPayload::Version {
            line: line(3),
            token: 33,
            epoch: 2,
        });
        p
    }

    #[test]
    fn broken_fidelity_leaks_past_root_versions_and_exact_does_not() {
        let plane = synthetic_plane();
        // Crash at site 4 (end), losing id 2 only (id 3 completes first).
        let cut = plane.cut_with_durable_prefix(4, 1, false);
        assert!(cut.survives(3) && !cut.survives(2), "cut shape: {cut:?}");

        let exact = RebuiltState::rebuild(&plane, &cut, RebuildFidelity::Exact);
        let img = recover_durable(&exact).unwrap();
        assert_eq!(img.epoch(), 1);
        assert_eq!(img.read(line(1)), Some(11));
        assert_eq!(img.read(line(3)), None, "epoch 2 is past the root");

        let broken = RebuiltState::rebuild(&plane, &cut, RebuildFidelity::BrokenNoEpochFilter);
        let img = recover_durable(&broken).unwrap();
        assert_eq!(
            img.read(line(3)),
            Some(33),
            "the broken rebuild leaks the uncommitted epoch-2 write"
        );
    }

    #[test]
    fn torn_root_falls_back_to_the_previous_cell() {
        let mut plane = FaultPlane::default();
        plane.record(0, 10);
        plane.annotate_last(PersistPayload::RecEpochRoot { epoch: 1 });
        plane.record(10, 20);
        plane.annotate_last(PersistPayload::RecEpochRoot { epoch: 2 });
        // Tear the epoch-2 root write (the only in-flight write).
        let cut = plane.cut_with_durable_prefix(2, 0, true);
        assert_eq!(cut.torn, Some(1));
        let mut s = RebuiltState::rebuild(&plane, &cut, RebuildFidelity::Exact);
        assert_eq!(
            recover_durable(&s).unwrap_err(),
            RecoveryError::TornMasterRoot { epoch: 2 }
        );
        s.fallback_to_previous_root();
        assert_eq!(
            s.root(),
            RootCell {
                epoch: 1,
                torn: false
            }
        );
    }

    #[test]
    fn torn_master_chunk_keeps_a_prefix() {
        let mut plane = FaultPlane::default();
        let entries: Vec<(LineAddr, u64)> = (0..4)
            .map(|i| {
                (
                    line(i),
                    encode_loc(NvmLoc {
                        page: i as u32,
                        slot: 0,
                    }),
                )
            })
            .collect();
        plane.record(0, 10);
        plane.annotate_last(PersistPayload::MasterChunk { entries });
        let cut = plane.cut_with_durable_prefix(1, 0, true);
        let s = RebuiltState::rebuild(&plane, &cut, RebuildFidelity::Exact);
        // id 0, 4 entries → prefix of 0 % 5 = 0 words.
        assert_eq!(s.mapping_words().count(), 0);
    }

    #[test]
    fn injected_flip_is_caught_by_recovery_and_heals() {
        let mut plane = FaultPlane::default();
        plane.record(0, 5);
        plane.annotate_last(PersistPayload::Version {
            line: line(1),
            token: 7,
            epoch: 1,
        });
        plane.record(5, 10);
        plane.annotate_last(PersistPayload::MasterChunk {
            entries: vec![(line(1), encode_loc(NvmLoc { page: 9, slot: 3 }))],
        });
        plane.record(10, 20);
        plane.annotate_last(PersistPayload::RecEpochRoot { epoch: 1 });
        let cut = plane.cut_with_durable_prefix(3, 3, false);
        let mut s = RebuiltState::rebuild(&plane, &cut, RebuildFidelity::Exact);

        let mut rng = Rng64::seed_from_u64(99);
        let (l, original, _bit) = s.inject_flip(&mut rng).unwrap();
        match recover_durable(&s) {
            Err(RecoveryError::CorruptMapping { line: bad, .. }) => assert_eq!(bad, l),
            other => panic!("flip not detected: {other:?}"),
        }
        s.heal(l, original);
        assert_eq!(recover_durable(&s).unwrap().read(line(1)), Some(7));
    }

    #[test]
    fn undo_rollback_matches_the_journal_expectation() {
        let mut p = FaultPlane::default();
        // Epoch 0: log + home for line 1, then the commit marker.
        p.record(0, 5);
        p.annotate_last(PersistPayload::UndoLog {
            line: line(1),
            prev: 0,
            epoch: 0,
        });
        p.record(5, 10);
        p.annotate_last(PersistPayload::DataHome {
            line: line(1),
            token: 10,
            epoch: 0,
        });
        p.record(10, 15);
        p.annotate_last(PersistPayload::EpochCommit { epoch: 0 });
        // Epoch 1: log for line 1 (prev = committed 10), home overwrite,
        // marker never durable.
        p.record(15, 20);
        p.annotate_last(PersistPayload::UndoLog {
            line: line(1),
            prev: 10,
            epoch: 1,
        });
        p.record(20, 25);
        p.annotate_last(PersistPayload::DataHome {
            line: line(1),
            token: 99,
            epoch: 1,
        });
        // Crash right after the epoch-1 home write, all 5 writes durable.
        let cut = p.cut_with_durable_prefix(5, 5, false);
        let recovered = rebuild_undo(&p, &cut);
        let expected = undo_expected(&p, &cut);
        assert_eq!(expected.get(&line(1)), Some(&10));
        assert_eq!(recovered, expected, "rollback restores the pre-image");
    }

    #[test]
    fn undo_rollback_removes_lines_never_committed() {
        let mut p = FaultPlane::default();
        p.record(0, 5);
        p.annotate_last(PersistPayload::UndoLog {
            line: line(4),
            prev: 0,
            epoch: 0,
        });
        p.record(5, 10);
        p.annotate_last(PersistPayload::DataHome {
            line: line(4),
            token: 40,
            epoch: 0,
        });
        // No commit marker: everything rolls back to zero-fill.
        let cut = p.cut_with_durable_prefix(2, 2, false);
        assert!(rebuild_undo(&p, &cut).is_empty());
        assert!(undo_expected(&p, &cut).is_empty());
    }
}
