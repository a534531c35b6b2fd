//! The typed error surface of the snapshot store.
//!
//! Robustness contract: every way the store can fail — I/O, torn
//! writes, bit flips, truncated files, stale manifests, hand-edited
//! refcounts, future schema versions — maps to exactly one
//! [`StoreError`] variant. The chaos explorer (`nvo chaos --scheme store`)
//! asserts that seeded faults only ever surface as these values, never
//! as panics or silently wrong images, and the CLI assigns each variant
//! a documented exit code.

use std::fmt;

use crate::layer::LayerId;

/// Everything that can go wrong inside the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The I/O backend failed (permission, disk full, unreadable file).
    Io {
        /// Store-relative path of the failing operation.
        path: String,
        /// Backend-specific detail.
        detail: String,
    },
    /// A layer or root cell failed its embedded FNV-1a checksum, or its
    /// framing (magic, entry counts, chain linkage) is inconsistent.
    Checksum {
        /// Store-relative path of the corrupt file.
        path: String,
        /// What exactly failed to verify.
        detail: String,
    },
    /// No fully valid (root cell, manifest) pair exists: both root
    /// cells are torn/missing while the store is non-empty, or every
    /// valid root points at a manifest whose length/checksum no longer
    /// matches.
    TornManifest {
        /// What exactly was torn.
        detail: String,
    },
    /// The manifest references a layer whose file exists neither in
    /// `layers/` nor in the GC quarantine.
    MissingLayer {
        /// The missing layer's content id.
        id: LayerId,
    },
    /// A layer's stored reference count disagrees with the number of
    /// backups that actually reference it. The stored count is purely
    /// redundant — this redundancy is what detects a manifest that
    /// would otherwise let GC reap a still-referenced layer.
    RefcountUnderflow {
        /// The inconsistent layer's id.
        id: LayerId,
        /// The refcount recorded in the manifest.
        stored: u64,
        /// The refcount recomputed from the backup list.
        actual: u64,
    },
    /// The manifest or a layer was written by a future schema version.
    SchemaVersion {
        /// The version found on disk.
        found: u64,
        /// The newest version this build understands.
        supported: u64,
    },
    /// No backup with the requested name exists.
    BackupNotFound {
        /// The requested backup name.
        name: String,
    },
    /// A backup with the requested name already exists (backups are
    /// immutable; pick a new name or `remove` first).
    BackupExists {
        /// The conflicting backup name.
        name: String,
    },
    /// An epoch's per-epoch tables were reclaimed or compacted in the
    /// live `Mnm`, so the snapshot cannot be exported exactly.
    UnreadableEpoch {
        /// The unreadable epoch.
        epoch: u64,
    },
    /// An OMC's battery-backed buffer still holds undrained versions;
    /// exporting now would silently miss them (same precondition as
    /// `nvserve::Mount`).
    BufferNotDrained {
        /// Index of the offending OMC.
        omc: usize,
        /// Number of versions still buffered there.
        buffered: usize,
    },
}

impl StoreError {
    /// The bare variant name (`"Checksum"`, `"TornManifest"`, ...),
    /// used by the CLI to print a stable, greppable error class next to
    /// the human message and to pick the documented exit code.
    pub fn name(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "Io",
            StoreError::Checksum { .. } => "Checksum",
            StoreError::TornManifest { .. } => "TornManifest",
            StoreError::MissingLayer { .. } => "MissingLayer",
            StoreError::RefcountUnderflow { .. } => "RefcountUnderflow",
            StoreError::SchemaVersion { .. } => "SchemaVersion",
            StoreError::BackupNotFound { .. } => "BackupNotFound",
            StoreError::BackupExists { .. } => "BackupExists",
            StoreError::UnreadableEpoch { .. } => "UnreadableEpoch",
            StoreError::BufferNotDrained { .. } => "BufferNotDrained",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "I/O failure on {path}: {detail}"),
            StoreError::Checksum { path, detail } => {
                write!(f, "checksum/framing failure in {path}: {detail}")
            }
            StoreError::TornManifest { detail } => {
                write!(f, "no valid root-cell/manifest pair: {detail}")
            }
            StoreError::MissingLayer { id } => {
                write!(f, "layer {id} is referenced but absent from the store")
            }
            StoreError::RefcountUnderflow { id, stored, actual } => write!(
                f,
                "layer {id} refcount mismatch: manifest records {stored}, backups reference {actual}"
            ),
            StoreError::SchemaVersion { found, supported } => write!(
                f,
                "store schema {found} is newer than supported schema {supported}"
            ),
            StoreError::BackupNotFound { name } => write!(f, "no backup named {name:?}"),
            StoreError::BackupExists { name } => {
                write!(f, "backup {name:?} already exists (backups are immutable)")
            }
            StoreError::UnreadableEpoch { epoch } => write!(
                f,
                "epoch {epoch}'s tables were reclaimed or compacted; snapshot cannot be exported exactly"
            ),
            StoreError::BufferNotDrained { omc, buffered } => write!(
                f,
                "OMC {omc} write-back buffer holds {buffered} undrained version(s); finish the epoch before backing up"
            ),
        }
    }
}

impl std::error::Error for StoreError {}
