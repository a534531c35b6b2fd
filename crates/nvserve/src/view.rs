//! Mounting a recovered NVM image and resolving point-in-time epochs.
//!
//! A [`Mount`] wraps a finished [`Mnm`] the way a recovery tool would
//! attach to a crashed machine's NVM DIMMs: it first runs the full §V-E
//! recovery procedure ([`nvoverlay::recovery::recover_durable`]) to
//! validate the durable state and learn the key universe, then builds an
//! [`EpochDirectory`] — an immutable, binary-searchable index of every
//! snapshot epoch the OMCs retain — so that per-query epoch resolution
//! never touches the OMCs' internal `BTreeMap`s.
//!
//! [`EpochDirectory::resolve`] enforces exactly the same rules as
//! [`nvoverlay::SnapshotStore::resolve_epoch`] (epoch 0, not yet
//! recoverable, outside the sense window, reclaimed) and returns the same
//! typed [`QueryError`]s; a unit test pins the parity.

use nvoverlay::mnm::Mnm;
use nvoverlay::recovery::{recover_durable, RecoveryError};
use nvoverlay::{QueryError, EPOCH_SENSE_WINDOW};
use nvsim::fastmap::FastMap;
use nvsim::{LineAddr, Token};

/// Why a [`Mount`] could not be established over an [`Mnm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MountError {
    /// The §V-E recovery procedure rejected the durable state.
    Recovery(RecoveryError),
    /// An OMC's battery-backed buffer still holds undrained versions.
    ///
    /// The serving layer answers from per-epoch overlay tables only, so
    /// it requires the write-back buffers to have been flushed (as
    /// `Mnm::finish` / power-down does); serving over a live buffer
    /// would silently miss the newest versions.
    BufferNotDrained {
        /// Index of the offending OMC.
        omc: usize,
        /// Number of versions still buffered there.
        buffered: usize,
    },
}

impl MountError {
    /// The bare variant name (`"Recovery"`, `"BufferNotDrained"`), used
    /// by the CLI to print a stable error class and pick the documented
    /// exit code.
    pub fn name(&self) -> &'static str {
        match self {
            MountError::Recovery(_) => "Recovery",
            MountError::BufferNotDrained { .. } => "BufferNotDrained",
        }
    }
}

impl std::fmt::Display for MountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MountError::Recovery(e) => write!(f, "recovery failed: {e:?}"),
            MountError::BufferNotDrained { omc, buffered } => write!(
                f,
                "OMC {omc} write-back buffer holds {buffered} undrained version(s); \
                 finish/drain before mounting"
            ),
        }
    }
}

impl std::error::Error for MountError {}

impl From<RecoveryError> for MountError {
    fn from(e: RecoveryError) -> Self {
        MountError::Recovery(e)
    }
}

/// Immutable index of the snapshot epochs an [`Mnm`] retains.
///
/// Built once at mount time; every per-query epoch validation and
/// fall-through walk reads this directory instead of re-merging the
/// OMCs' epoch maps.
#[derive(Debug, Clone)]
pub struct EpochDirectory {
    /// All epochs any OMC has versions for (ascending), with whether each
    /// is still individually readable on every OMC that has it.
    epochs: Vec<(u64, bool)>,
    /// The recoverable epoch (`rec-epoch`) at mount time.
    recoverable: u64,
    /// The newest epoch any OMC has ever received a version for.
    max_seen: u64,
}

impl EpochDirectory {
    /// Snapshots the epoch state of `mnm`.
    pub fn new(mnm: &Mnm) -> Self {
        EpochDirectory {
            epochs: mnm.epochs(),
            recoverable: mnm.rec_epoch(),
            max_seen: mnm.max_epoch_seen(),
        }
    }

    /// The recoverable epoch this directory serves up to.
    pub fn recoverable(&self) -> u64 {
        self.recoverable
    }

    /// The newest epoch any OMC had received versions for at mount time.
    pub fn max_seen(&self) -> u64 {
        self.max_seen
    }

    /// How many epochs of in-flight work the recoverable epoch trails
    /// the newest version seen by (the paper's persist lag, in epochs).
    pub fn lag(&self) -> u64 {
        self.max_seen.saturating_sub(self.recoverable)
    }

    /// All epochs with retained versions (ascending) and whether each is
    /// individually readable.
    pub fn epochs(&self) -> &[(u64, bool)] {
        &self.epochs
    }

    /// The epochs a query may target: readable and accepted by
    /// [`resolve`](Self::resolve).
    pub fn servable(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .filter(|(e, readable)| *readable && self.resolve(*e).is_ok())
            .map(|(e, _)| *e)
            .collect()
    }

    /// Validates `epoch` as a query target, mirroring
    /// [`nvoverlay::SnapshotStore::resolve_epoch`] exactly.
    ///
    /// # Errors
    /// The same [`QueryError`] taxonomy as the store-level resolver:
    /// epoch 0, not yet recoverable, outside the 16-bit sense window, or
    /// reclaimed/compacted away.
    pub fn resolve(&self, epoch: u64) -> Result<EpochView, QueryError> {
        if epoch == 0 {
            return Err(QueryError::EpochZero);
        }
        if epoch > self.recoverable {
            return Err(QueryError::NotYetRecoverable {
                requested: epoch,
                recoverable: self.recoverable,
            });
        }
        if self.recoverable - epoch >= EPOCH_SENSE_WINDOW {
            return Err(QueryError::Wrapped {
                requested: epoch,
                recoverable: self.recoverable,
            });
        }
        if let Ok(i) = self.epochs.binary_search_by_key(&epoch, |&(e, _)| e) {
            if !self.epochs[i].1 {
                return Err(QueryError::NotRetained { epoch });
            }
        }
        Ok(EpochView { epoch })
    }

    /// The retained epochs at or before `epoch` (ascending slice); the
    /// fall-through walk iterates it in reverse.
    pub fn through(&self, epoch: u64) -> &[(u64, bool)] {
        let cut = self.epochs.partition_point(|&(e, _)| e <= epoch);
        &self.epochs[..cut]
    }
}

/// A validated point-in-time read target.
///
/// Obtained only from [`EpochDirectory::resolve`]; holding one proves the
/// epoch passed the recoverability checks at mount time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochView {
    epoch: u64,
}

impl EpochView {
    /// The resolved epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Multiplier for spreading page numbers across sub-shards
/// (Fibonacci hashing; also used by `nvsim::fastmap`).
const LANE_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A recovered NVM image mounted for serving.
///
/// Owns the [`EpochDirectory`] and the sorted key universe (every line in
/// the recovered image); borrows the [`Mnm`] immutably so worker threads
/// can share it (`Mnm` holds no interior mutability).
pub struct Mount<'a> {
    mnm: &'a Mnm,
    dir: EpochDirectory,
    keys: Vec<LineAddr>,
    image_epoch: u64,
    subshards: usize,
}

impl<'a> Mount<'a> {
    /// Validates the durable state and mounts it with `subshards` serving
    /// shards per OMC (clamped to at least 1).
    ///
    /// # Errors
    /// [`MountError::Recovery`] when §V-E recovery rejects the state;
    /// [`MountError::BufferNotDrained`] when an OMC buffer still holds
    /// versions (serve only a finished / powered-down `Mnm`).
    pub fn new(mnm: &'a Mnm, subshards: usize) -> Result<Self, MountError> {
        for (i, omc) in mnm.omcs().iter().enumerate() {
            if let Some(buf) = omc.buffer() {
                if !buf.is_empty() {
                    return Err(MountError::BufferNotDrained {
                        omc: i,
                        buffered: buf.len(),
                    });
                }
            }
        }
        let img = recover_durable(mnm)?;
        let mut keys: Vec<LineAddr> = img.iter().map(|(l, _)| l).collect();
        keys.sort_unstable_by_key(|l| l.raw());
        Ok(Mount {
            mnm,
            dir: EpochDirectory::new(mnm),
            keys,
            image_epoch: img.epoch(),
            subshards: subshards.max(1),
        })
    }

    /// The mounted mapping controller.
    pub fn mnm(&self) -> &'a Mnm {
        self.mnm
    }

    /// The epoch directory built at mount time.
    pub fn dir(&self) -> &EpochDirectory {
        &self.dir
    }

    /// Every line present in the recovered image (ascending).
    pub fn keys(&self) -> &[LineAddr] {
        &self.keys
    }

    /// The epoch the recovered image was rebuilt at.
    pub fn image_epoch(&self) -> u64 {
        self.image_epoch
    }

    /// Serving shards per OMC.
    pub fn subshards(&self) -> usize {
        self.subshards
    }

    /// Total serving shards (`omc_count × subshards`).
    pub fn shards(&self) -> usize {
        self.mnm.omcs().len() * self.subshards
    }

    /// The serving shard that owns `line`.
    ///
    /// The OMC part must agree with [`Mnm::route`] (page-granularity
    /// modulo); the sub-shard part hashes the per-OMC page lane so one
    /// shard's epoch tables cover a stable page subset.
    pub fn shard_of(&self, line: LineAddr) -> usize {
        let omcs = self.mnm.omcs().len();
        let omc = self.mnm.route(line);
        let lane = (line.page().raw() / omcs as u64).wrapping_mul(LANE_MIX) >> 32;
        omc * self.subshards + (lane as usize % self.subshards)
    }

    /// Copies `shard`'s slice of `epoch`'s incremental delta into a
    /// lookup table (empty when the epoch is unreadable there, matching
    /// `Omc::time_travel`'s transparent fall-through past reclaimed or
    /// compacted epochs).
    ///
    /// An inspection helper: serving never calls it, as shards read the
    /// retained tables in place through `Omc::epoch_reader`.
    pub fn materialize(&self, epoch: u64, shard: usize) -> FastMap<LineAddr, Token> {
        let omc = shard / self.subshards;
        match self.mnm.omcs()[omc].epoch_delta(epoch) {
            None => FastMap::new(),
            Some(delta) => delta.filter(|(l, _)| self.shard_of(*l) == shard).collect(),
        }
    }
}

impl std::fmt::Debug for Mount<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mount")
            .field("image_epoch", &self.image_epoch)
            .field("keys", &self.keys.len())
            .field("epochs", &self.dir.epochs.len())
            .field("shards", &self.shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvoverlay::mnm::OmcConfig;
    use nvsim::nvm::Nvm;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn nvm() -> Nvm {
        Nvm::new(4, 400, 200, 8, 100_000)
    }

    /// Builds a finished two-OMC Mnm with `epochs` snapshots over `lines`
    /// lines, each epoch rewriting every line.
    fn built(epochs: u64, lines: u64) -> (Mnm, Nvm) {
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 64,
                ..OmcConfig::default()
            },
        );
        let mut n = nvm();
        for e in 1..=epochs {
            for l in 0..lines {
                m.receive_version(&mut n, 0, line(l), 1000 * e + l, e);
            }
        }
        m.finish(&mut n, 0, epochs);
        (m, n)
    }

    #[test]
    fn mount_exposes_sorted_recovered_keys() {
        let (m, _n) = built(3, 10);
        let mnt = Mount::new(&m, 4).unwrap();
        assert_eq!(mnt.image_epoch(), 3);
        assert_eq!(mnt.keys().len(), 10);
        assert!(mnt.keys().windows(2).all(|w| w[0].raw() < w[1].raw()));
        assert_eq!(mnt.shards(), 8);
    }

    #[test]
    fn mount_rejects_unrecoverable_state() {
        let m = Mnm::new(1, 1, OmcConfig::default());
        assert_eq!(
            Mount::new(&m, 1).unwrap_err(),
            MountError::Recovery(RecoveryError::NothingRecoverable)
        );
    }

    #[test]
    fn shard_routing_agrees_with_mnm_route() {
        let (m, _n) = built(2, 32);
        let mnt = Mount::new(&m, 4).unwrap();
        for l in 0..32 {
            let shard = mnt.shard_of(line(l));
            assert_eq!(shard / mnt.subshards(), m.route(line(l)));
            assert!(shard < mnt.shards());
        }
    }

    #[test]
    fn directory_resolve_matches_snapshot_store() {
        let (m, _n) = built(4, 8);
        let dir = EpochDirectory::new(&m);
        // Compare against the store-level resolver for a band of epochs
        // around the recoverable range.
        let store = nvoverlay::SnapshotStore::new(&m);
        for e in 0..=dir.recoverable() + 3 {
            let got = dir.resolve(e).map(|v| v.epoch());
            let want = store.resolve_epoch(e);
            assert_eq!(got, want, "epoch {e}");
        }
    }

    #[test]
    fn through_slices_the_walk_window() {
        let (m, _n) = built(4, 8);
        let dir = EpochDirectory::new(&m);
        let upto = dir.through(2);
        assert!(upto.iter().all(|&(e, _)| e <= 2));
        let all = dir.through(u64::MAX);
        assert_eq!(all.len(), dir.epochs().len());
    }

    #[test]
    fn materialized_tables_partition_each_epoch_delta() {
        let (m, _n) = built(3, 16);
        let mnt = Mount::new(&m, 3).unwrap();
        for e in 1..=3 {
            let mut total = 0usize;
            for shard in 0..mnt.shards() {
                let t = mnt.materialize(e, shard);
                for (l, tok) in t.iter() {
                    assert_eq!(mnt.shard_of(*l), shard);
                    assert_eq!(m.time_travel(*l, e), Some(*tok));
                }
                total += t.len();
            }
            let omc_total: usize = m
                .omcs()
                .iter()
                .filter_map(|o| o.epoch_delta(e).map(|d| d.count()))
                .sum();
            assert_eq!(total, omc_total, "epoch {e} delta partition");
        }
    }
}
