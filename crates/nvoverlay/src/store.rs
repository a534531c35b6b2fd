//! High-level snapshot access — the paper's "persistent, multiversioned
//! memory system" (§I) as a library surface.
//!
//! [`SnapshotStore`] is a read-only view over the MNM backend for
//! downstream tools (debuggers, replicators, backup agents): list the
//! captured epochs, read any line at any epoch, extract an epoch's
//! incremental delta, and diff two epochs.

use crate::mnm::Mnm;
use nvsim::addr::{LineAddr, Token, VdId};
use nvsim::fastmap::FastHashMap;
use std::fmt;

/// How far back of the recoverable epoch a snapshot can be addressed
/// before the 16-bit OID epoch-sense tags wrap and version provenance
/// becomes ambiguous (paper §IV-B). Requests older than this window are
/// rejected with [`QueryError::Wrapped`] rather than answered with data
/// whose epoch tags may alias a later generation.
pub const EPOCH_SENSE_WINDOW: u64 = 1 << 16;

/// Why a point-in-time read request cannot be served (typed — callers
/// never see a panic for a bad epoch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Epoch 0 is the pre-history sentinel (`rec-epoch == 0` means
    /// "nothing recoverable"), never an addressable snapshot.
    EpochZero,
    /// The requested epoch lies beyond the recoverable epoch: its
    /// versions may still be unpersisted in the caches, so no consistent
    /// snapshot exists for it yet.
    NotYetRecoverable {
        /// The epoch the caller asked for.
        requested: u64,
        /// The newest epoch that is fully durable (0 = none).
        recoverable: u64,
    },
    /// The epoch was captured but its per-epoch mapping tables were
    /// reclaimed ([`crate::mnm::SnapshotRetention::DropMerged`]), so it
    /// can no longer be served exactly.
    NotRetained {
        /// The epoch whose tables are gone.
        epoch: u64,
    },
    /// The epoch is older than the 16-bit epoch-sense window below the
    /// recoverable epoch: its OID tags have wrapped and can alias a
    /// later generation.
    Wrapped {
        /// The epoch the caller asked for.
        requested: u64,
        /// The recoverable epoch the window is anchored at.
        recoverable: u64,
    },
}

impl QueryError {
    /// The bare variant name (`"EpochZero"`, `"NotYetRecoverable"`, ...),
    /// used by the CLI to print a stable, greppable error class next to
    /// the human message and to pick the documented exit code.
    pub fn name(&self) -> &'static str {
        match self {
            QueryError::EpochZero => "EpochZero",
            QueryError::NotYetRecoverable { .. } => "NotYetRecoverable",
            QueryError::NotRetained { .. } => "NotRetained",
            QueryError::Wrapped { .. } => "Wrapped",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EpochZero => f.write_str("epoch 0 is not an addressable snapshot"),
            QueryError::NotYetRecoverable {
                requested,
                recoverable,
            } => write!(
                f,
                "epoch {requested} is not yet recoverable (recoverable epoch is {recoverable})"
            ),
            QueryError::NotRetained { epoch } => write!(
                f,
                "epoch {epoch}'s per-epoch tables were reclaimed or compacted"
            ),
            QueryError::Wrapped {
                requested,
                recoverable,
            } => write!(
                f,
                "epoch {requested} is beyond the epoch-sense window ({EPOCH_SENSE_WINDOW} epochs below {recoverable})"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// One line's change between two epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineChange {
    /// The line that changed.
    pub line: LineAddr,
    /// Its value at the *from* epoch (None = not yet written).
    pub before: Option<Token>,
    /// Its value at the *to* epoch.
    pub after: Option<Token>,
}

/// Read-only, multi-epoch view over a snapshotted address space.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotStore<'a> {
    mnm: &'a Mnm,
}

impl<'a> SnapshotStore<'a> {
    /// Opens a store over a backend.
    pub fn new(mnm: &'a Mnm) -> Self {
        Self { mnm }
    }

    /// The recoverable epoch (every epoch at or before it is durable).
    pub fn recoverable_epoch(&self) -> u64 {
        self.mnm.rec_epoch()
    }

    /// Captured epochs, ascending, with whether each is individually
    /// readable (per-epoch table retained).
    pub fn epochs(&self) -> Vec<(u64, bool)> {
        self.mnm.epochs()
    }

    /// Reads one line as of `epoch` (fall-through semantics, §V-E).
    pub fn read_at(&self, line: LineAddr, epoch: u64) -> Option<Token> {
        self.mnm.time_travel(line, epoch)
    }

    /// Validates that `epoch` names a servable snapshot: non-zero, at or
    /// below the recoverable epoch, inside the epoch-sense window, and
    /// (when the epoch captured versions) with its tables still retained.
    ///
    /// # Errors
    /// Any [`QueryError`] variant; see each for the rejected class.
    pub fn resolve_epoch(&self, epoch: u64) -> Result<u64, QueryError> {
        if epoch == 0 {
            return Err(QueryError::EpochZero);
        }
        let recoverable = self.recoverable_epoch();
        if epoch > recoverable {
            return Err(QueryError::NotYetRecoverable {
                requested: epoch,
                recoverable,
            });
        }
        if recoverable - epoch >= EPOCH_SENSE_WINDOW {
            return Err(QueryError::Wrapped {
                requested: epoch,
                recoverable,
            });
        }
        if self
            .epochs()
            .iter()
            .any(|(e, readable)| *e == epoch && !readable)
        {
            return Err(QueryError::NotRetained { epoch });
        }
        Ok(epoch)
    }

    /// [`SnapshotStore::read_at`] with the epoch validated first: the
    /// serving-layer read path (`nvserve`). `Ok(None)` means the epoch is
    /// servable but the line was never written at or before it.
    ///
    /// # Errors
    /// Any [`QueryError`] variant (see [`SnapshotStore::resolve_epoch`]).
    pub fn read_at_checked(&self, line: LineAddr, epoch: u64) -> Result<Option<Token>, QueryError> {
        self.resolve_epoch(epoch).map(|e| self.read_at(line, e))
    }

    /// The incremental delta captured in exactly `epoch` — what a
    /// replication agent ships (§V-E "Remote Replication").
    ///
    /// Returns `None` when the epoch's tables were reclaimed (use
    /// [`crate::mnm::SnapshotRetention::KeepAll`]).
    pub fn delta(&self, epoch: u64) -> Option<Vec<(LineAddr, Token)>> {
        self.mnm.epoch_delta(epoch)
    }

    /// Diffs two epochs (`from < to`): every line whose visible value
    /// differs, with both values.
    ///
    /// Returns `None` if any epoch in `(from, to]` is no longer
    /// individually readable.
    pub fn diff(&self, from: u64, to: u64) -> Option<Vec<LineChange>> {
        assert!(from < to, "diff requires from < to");
        // Lines that could have changed = union of the deltas in (from, to].
        let mut candidates: FastHashMap<LineAddr, ()> = FastHashMap::default();
        for (e, _) in self.epochs() {
            if e > from && e <= to {
                for (l, _) in self.delta(e)? {
                    candidates.insert(l, ());
                }
            }
        }
        let mut out: Vec<LineChange> = candidates
            .into_keys()
            .filter_map(|line| {
                let before = self.read_at(line, from);
                let after = self.read_at(line, to);
                (before != after).then_some(LineChange {
                    line,
                    before,
                    after,
                })
            })
            .collect();
        out.sort_by_key(|c| c.line.raw());
        Some(out)
    }

    /// The processor context `vd` dumped at the end of `epoch` (§III-C);
    /// recovery restores these alongside the memory image.
    pub fn context(&self, vd: VdId, epoch: u64) -> Option<Token> {
        self.mnm.context(vd, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnm::{Mnm, OmcConfig};
    use nvsim::nvm::Nvm;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn setup() -> (Mnm, Nvm) {
        (
            Mnm::new(
                2,
                2,
                OmcConfig {
                    pool_pages: 32,
                    ..OmcConfig::default()
                },
            ),
            Nvm::new(4, 400, 200, 8, 100_000),
        )
    }

    #[test]
    fn epochs_deltas_and_reads() {
        let (mut m, mut n) = setup();
        m.receive_version(&mut n, 0, line(1), 10, 1);
        m.receive_version(&mut n, 0, line(64), 11, 1);
        m.receive_version(&mut n, 0, line(1), 20, 2);
        m.finish(&mut n, 0, 2);
        let store = SnapshotStore::new(&m);
        assert_eq!(store.recoverable_epoch(), 2);
        assert_eq!(store.epochs(), vec![(1, true), (2, true)]);
        let d1 = store.delta(1).unwrap();
        assert_eq!(d1, vec![(line(1), 10), (line(64), 11)]);
        let d2 = store.delta(2).unwrap();
        assert_eq!(d2, vec![(line(1), 20)]);
        assert_eq!(store.read_at(line(64), 2), Some(11), "fall-through");
    }

    #[test]
    fn diff_reports_exact_changes() {
        let (mut m, mut n) = setup();
        m.receive_version(&mut n, 0, line(1), 10, 1);
        m.receive_version(&mut n, 0, line(64), 11, 1);
        m.receive_version(&mut n, 0, line(1), 20, 2);
        m.receive_version(&mut n, 0, line(128), 30, 3);
        m.finish(&mut n, 0, 3);
        let store = SnapshotStore::new(&m);
        let d = store.diff(1, 3).unwrap();
        assert_eq!(
            d,
            vec![
                LineChange {
                    line: line(1),
                    before: Some(10),
                    after: Some(20)
                },
                LineChange {
                    line: line(128),
                    before: None,
                    after: Some(30)
                },
            ]
        );
        assert!(store.diff(2, 3).unwrap().len() == 1);
    }

    #[test]
    fn contexts_are_retrievable() {
        let (mut m, mut n) = setup();
        m.record_context(VdId(0), 5, 0xAA);
        m.record_context(VdId(1), 5, 0xBB);
        m.finish(&mut n, 0, 5);
        let store = SnapshotStore::new(&m);
        assert_eq!(store.context(VdId(0), 5), Some(0xAA));
        assert_eq!(store.context(VdId(1), 5), Some(0xBB));
        assert_eq!(store.context(VdId(0), 4), None);
    }

    #[test]
    fn checked_reads_accept_exactly_the_recoverable_range() {
        let (mut m, mut n) = setup();
        m.receive_version(&mut n, 0, line(1), 10, 1);
        m.receive_version(&mut n, 0, line(1), 20, 2);
        m.finish(&mut n, 0, 2);
        let store = SnapshotStore::new(&m);
        // Boundary: epoch 0 is the sentinel, never servable.
        assert_eq!(
            store.read_at_checked(line(1), 0),
            Err(QueryError::EpochZero)
        );
        // Boundaries: 1 and rec-epoch are both servable.
        assert_eq!(store.read_at_checked(line(1), 1), Ok(Some(10)));
        assert_eq!(store.read_at_checked(line(1), 2), Ok(Some(20)));
        // Boundary: rec-epoch + 1 is not yet recoverable.
        assert_eq!(
            store.read_at_checked(line(1), 3),
            Err(QueryError::NotYetRecoverable {
                requested: 3,
                recoverable: 2
            })
        );
        // A servable epoch where the line was never written is Ok(None),
        // distinct from every error.
        assert_eq!(store.read_at_checked(line(999), 2), Ok(None));
    }

    #[test]
    fn checked_reads_reject_nothing_recoverable() {
        let (m, _) = setup();
        let store = SnapshotStore::new(&m);
        assert_eq!(
            store.read_at_checked(line(1), 1),
            Err(QueryError::NotYetRecoverable {
                requested: 1,
                recoverable: 0
            })
        );
    }

    #[test]
    fn checked_reads_reject_wrapped_epochs() {
        let (mut m, mut n) = setup();
        let newest = EPOCH_SENSE_WINDOW + 5;
        m.receive_version(&mut n, 0, line(1), 10, 4);
        m.receive_version(&mut n, 0, line(1), 20, newest);
        m.finish(&mut n, 0, newest);
        let store = SnapshotStore::new(&m);
        // Boundary: exactly window-many epochs below rec is wrapped...
        assert_eq!(
            store.resolve_epoch(newest - EPOCH_SENSE_WINDOW),
            Err(QueryError::Wrapped {
                requested: 5,
                recoverable: newest
            })
        );
        // ...one epoch newer is still addressable.
        assert_eq!(store.resolve_epoch(newest - EPOCH_SENSE_WINDOW + 1), Ok(6));
        assert_eq!(store.read_at_checked(line(1), newest), Ok(Some(20)));
    }

    #[test]
    fn checked_reads_reject_reclaimed_epochs() {
        use crate::mnm::SnapshotRetention;
        let mut m = Mnm::new(
            1,
            1,
            OmcConfig {
                pool_pages: 16,
                retention: SnapshotRetention::DropMerged,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        m.receive_version(&mut n, 0, line(1), 10, 1);
        m.finish(&mut n, 0, 1);
        let store = SnapshotStore::new(&m);
        assert_eq!(
            store.resolve_epoch(1),
            Err(QueryError::NotRetained { epoch: 1 })
        );
        assert_eq!(
            store.read_at_checked(line(1), 1),
            Err(QueryError::NotRetained { epoch: 1 })
        );
    }

    #[test]
    fn query_error_display_is_stable() {
        assert_eq!(
            QueryError::EpochZero.to_string(),
            "epoch 0 is not an addressable snapshot"
        );
        assert_eq!(
            QueryError::NotYetRecoverable {
                requested: 9,
                recoverable: 4
            }
            .to_string(),
            "epoch 9 is not yet recoverable (recoverable epoch is 4)"
        );
        assert_eq!(
            QueryError::NotRetained { epoch: 3 }.to_string(),
            "epoch 3's per-epoch tables were reclaimed or compacted"
        );
    }

    #[test]
    #[should_panic(expected = "from < to")]
    fn diff_rejects_reversed_range() {
        let (m, _) = setup();
        let store = SnapshotStore::new(&m);
        let _ = store.diff(3, 1);
    }
}
