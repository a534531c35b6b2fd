//! Crash recovery and snapshot retrieval (paper §V-E).
//!
//! After a crash, recovery reads `rec-epoch`, scans the Master Mapping
//! Table(s) and loads every mapped version into its home address,
//! reconstructing the consistent memory image as of the recoverable
//! epoch. Processor contexts dumped at that epoch's boundary complete the
//! restart (contexts are modeled as byte counts; see `system`).

use crate::mnm::{table, Mnm};
use nvsim::addr::{LineAddr, Token};
use nvsim::nvtrace::{EventKind, TraceScope, Track};
use std::fmt;

/// Why recovery could not produce an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// No epoch has been fully persisted yet (`rec-epoch` is 0).
    NothingRecoverable,
    /// The `rec-epoch` root pointer was torn by the crash: the 8-byte
    /// cell fails its integrity check. Recovery must fall back to the
    /// previous root (the paper's atomic pointer write means at most one
    /// of the ping-pong cells can be torn).
    TornMasterRoot {
        /// The epoch the torn cell would have named.
        epoch: u64,
    },
    /// A Master Mapping Table entry fails its parity check — the word
    /// was corrupted in place (e.g. a stray bit flip in the NVM array).
    CorruptMapping {
        /// The line whose mapping word is corrupt.
        line: LineAddr,
        /// The raw 8-byte word as read back.
        raw: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NothingRecoverable => {
                f.write_str("no epoch has been fully persisted yet")
            }
            RecoveryError::TornMasterRoot { epoch } => {
                write!(f, "rec-epoch root cell (epoch {epoch}) is torn")
            }
            RecoveryError::CorruptMapping { line, raw } => {
                write!(
                    f,
                    "master mapping entry for line {:#x} is corrupt (word {raw:#018x})",
                    line.raw()
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The durable `rec-epoch` root cell as read back after a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootCell {
    /// The recoverable epoch the cell names (0 = never written).
    pub epoch: u64,
    /// Whether the cell failed its integrity check (torn write).
    pub torn: bool,
}

/// What survives on NVM after a crash, as recovery sees it. The live
/// [`Mnm`] implements this (clean-shutdown recovery, the existing
/// [`recover`] path); the `nvchaos` crate implements it over a durable
/// state reconstructed from a crash cut of the NVM write journal.
pub trait DurableState {
    /// The `rec-epoch` root pointer.
    fn root(&self) -> RootCell;

    /// Every persisted Master Mapping Table entry as its raw 8-byte word
    /// (see [`table::encode_loc`]), for integrity checking.
    fn mapping_words(&self) -> Box<dyn Iterator<Item = (LineAddr, u64)> + '_>;

    /// The durable image as of `epoch`: each line with a version at or
    /// below it, once, with the newest such version. Any order; runs that
    /// ascend by line make [`recover_durable`]'s sort a merge.
    fn image(&self, epoch: u64) -> Box<dyn Iterator<Item = (LineAddr, Token)> + '_>;
}

impl DurableState for Mnm {
    fn root(&self) -> RootCell {
        RootCell {
            epoch: self.rec_epoch(),
            torn: false,
        }
    }

    fn mapping_words(&self) -> Box<dyn Iterator<Item = (LineAddr, u64)> + '_> {
        Box::new(self.omcs().iter().flat_map(|o| {
            o.master()
                .tree()
                .iter()
                .map(|(l, loc)| (l, table::encode_loc(loc)))
        }))
    }

    fn image(&self, _epoch: u64) -> Box<dyn Iterator<Item = (LineAddr, Token)> + '_> {
        // The live master tables already map exactly the rec-epoch image,
        // one address-ordered run per OMC.
        Box::new(self.master_image())
    }
}

/// A reconstructed memory image: `(line, token)` pairs sorted by line.
#[derive(Clone, Debug, Default)]
pub struct RecoveredImage {
    epoch: u64,
    lines: Vec<(LineAddr, Token)>,
}

impl RecoveredImage {
    /// The epoch this image represents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reads one line of the image (None = never written as of the
    /// epoch, i.e. still zero-filled).
    pub fn read(&self, line: LineAddr) -> Option<Token> {
        self.lines
            .binary_search_by_key(&line, |&(l, _)| l)
            .ok()
            .map(|i| self.lines[i].1)
    }

    /// Number of mapped lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the image maps nothing.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates `(line, token)` pairs in ascending line order, each line
    /// once.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Token)> + '_ {
        self.lines.iter().copied()
    }
}

/// Rebuilds the consistent image at `rec-epoch` by scanning the master
/// tables (crash recovery, §V-E).
///
/// # Errors
/// [`RecoveryError::NothingRecoverable`] when no epoch has committed.
pub fn recover(mnm: &Mnm) -> Result<RecoveredImage, RecoveryError> {
    recover_durable(mnm)
}

/// Rebuilds the consistent image from any [`DurableState`] — the general
/// §V-E procedure: read the `rec-epoch` root, validate every master
/// mapping word, then load each mapped line's version as of the root
/// epoch in one pass over [`DurableState::image`].
///
/// # Errors
/// * [`RecoveryError::TornMasterRoot`] when the root cell is torn;
/// * [`RecoveryError::NothingRecoverable`] when no epoch has committed;
/// * [`RecoveryError::CorruptMapping`] when a mapping word fails parity.
pub fn recover_durable<S: DurableState + ?Sized>(
    state: &S,
) -> Result<RecoveredImage, RecoveryError> {
    // Recovery runs post-crash with no simulation clock; trace events use
    // the step ordinal as their timestamp to preserve ordering.
    let scope = TraceScope::new(Track::Recovery);
    let root = state.root();
    scope.emit(EventKind::RecoveryStep, 0, 0, root.epoch);
    if root.torn {
        return Err(RecoveryError::TornMasterRoot { epoch: root.epoch });
    }
    if root.epoch == 0 {
        return Err(RecoveryError::NothingRecoverable);
    }
    for (line, raw) in state.mapping_words() {
        if table::decode_loc(raw).is_none() {
            return Err(RecoveryError::CorruptMapping { line, raw });
        }
    }
    let mut lines: Vec<(LineAddr, Token)> = state.image(root.epoch).collect();
    // Stable sort: each OMC's run is already ascending, so this merges.
    lines.sort_by_key(|&(l, _)| l);
    debug_assert!(
        lines.windows(2).all(|w| w[0].0 < w[1].0),
        "DurableState::image yielded a line twice"
    );
    scope.emit(EventKind::RecoveryStep, 1, 1, lines.len() as u64);
    Ok(RecoveredImage {
        epoch: root.epoch,
        lines,
    })
}

/// Rebuilds the image *as of* `epoch` by falling through per-epoch tables
/// (time-travel/debugging reads, §V-E). Requires
/// [`crate::mnm::SnapshotRetention::KeepAll`]; lines whose covering epochs
/// were reclaimed read as `None`.
pub fn snapshot_at(
    mnm: &Mnm,
    epoch: u64,
    lines: impl IntoIterator<Item = LineAddr>,
) -> RecoveredImage {
    let mut lines: Vec<(LineAddr, Token)> = lines
        .into_iter()
        .filter_map(|l| mnm.time_travel(l, epoch).map(|t| (l, t)))
        .collect();
    lines.sort_unstable_by_key(|&(l, _)| l);
    lines.dedup();
    RecoveredImage { epoch, lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnm::{Mnm, OmcConfig};
    use nvsim::nvm::Nvm;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn recover_errors_before_any_commit() {
        let m = Mnm::new(1, 1, OmcConfig::default());
        assert_eq!(recover(&m).unwrap_err(), RecoveryError::NothingRecoverable);
    }

    #[test]
    fn recover_reads_the_master_image() {
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 16,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        for i in 0..20 {
            m.receive_version(&mut n, 0, line(i), 900 + i, 1);
        }
        m.finish(&mut n, 0, 1);
        let img = recover(&m).unwrap();
        assert_eq!(img.epoch(), 1);
        assert_eq!(img.len(), 20);
        assert_eq!(img.read(line(7)), Some(907));
        assert_eq!(img.read(line(99)), None);
    }

    /// A hand-built durable state for exercising the error paths.
    struct FakeDurable {
        root: RootCell,
        words: Vec<(LineAddr, u64)>,
        versions: Vec<(LineAddr, u64, Token)>,
    }

    impl DurableState for FakeDurable {
        fn root(&self) -> RootCell {
            self.root
        }
        fn mapping_words(&self) -> Box<dyn Iterator<Item = (LineAddr, u64)> + '_> {
            Box::new(self.words.iter().copied())
        }
        fn image(&self, epoch: u64) -> Box<dyn Iterator<Item = (LineAddr, Token)> + '_> {
            let mut newest = std::collections::BTreeMap::new();
            for &(l, e, t) in self.versions.iter().filter(|(_, e, _)| *e <= epoch) {
                let n = newest.entry(l).or_insert((e, t));
                if e > n.0 {
                    *n = (e, t);
                }
            }
            Box::new(newest.into_iter().map(|(l, (_, t))| (l, t)))
        }
    }

    #[test]
    fn torn_root_is_reported() {
        let s = FakeDurable {
            root: RootCell {
                epoch: 4,
                torn: true,
            },
            words: vec![],
            versions: vec![],
        };
        let err = recover_durable(&s).unwrap_err();
        assert_eq!(err, RecoveryError::TornMasterRoot { epoch: 4 });
        assert_eq!(err.to_string(), "rec-epoch root cell (epoch 4) is torn");
    }

    #[test]
    fn corrupt_mapping_word_is_detected() {
        use crate::mnm::{table::encode_loc, NvmLoc};
        let good = encode_loc(NvmLoc { page: 3, slot: 7 });
        let s = FakeDurable {
            root: RootCell {
                epoch: 1,
                torn: false,
            },
            words: vec![(line(1), good), (line(2), good ^ (1 << 20))],
            versions: vec![(line(1), 1, 10), (line(2), 1, 20)],
        };
        let err = recover_durable(&s).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::CorruptMapping {
                line: line(2),
                raw: good ^ (1 << 20)
            }
        );
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn recover_durable_falls_through_to_the_root_epoch() {
        let s = FakeDurable {
            root: RootCell {
                epoch: 2,
                torn: false,
            },
            words: vec![],
            versions: vec![
                (line(1), 1, 10),
                (line(1), 3, 30), // beyond the root: not recovered
                (line(2), 2, 20),
            ],
        };
        let img = recover_durable(&s).unwrap();
        assert_eq!(img.epoch(), 2);
        assert_eq!(img.read(line(1)), Some(10), "epoch 3 version excluded");
        assert_eq!(img.read(line(2)), Some(20));
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            RecoveryError::NothingRecoverable.to_string(),
            "no epoch has been fully persisted yet"
        );
        let e = RecoveryError::CorruptMapping {
            line: line(0x40),
            raw: 0x8000_0000_0000_0001,
        };
        assert_eq!(
            e.to_string(),
            "master mapping entry for line 0x40 is corrupt (word 0x8000000000000001)"
        );
    }

    #[test]
    fn snapshot_at_reconstructs_old_epochs() {
        let mut m = Mnm::new(
            1,
            1,
            OmcConfig {
                pool_pages: 16,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        m.receive_version(&mut n, 0, line(1), 10, 1);
        m.receive_version(&mut n, 0, line(2), 20, 1);
        m.receive_version(&mut n, 0, line(1), 11, 2);
        m.finish(&mut n, 0, 2);
        let at1 = snapshot_at(&m, 1, [line(1), line(2), line(3)]);
        assert_eq!(at1.read(line(1)), Some(10));
        assert_eq!(at1.read(line(2)), Some(20));
        assert_eq!(at1.read(line(3)), None);
        let at2 = snapshot_at(&m, 2, [line(1), line(2)]);
        assert_eq!(at2.read(line(1)), Some(11));
        assert_eq!(at2.read(line(2)), Some(20), "fall-through to epoch 1");
        assert_eq!(at2.iter().count(), 2);
    }
}
