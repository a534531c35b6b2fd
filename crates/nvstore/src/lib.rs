//! # nvstore — crash-consistent persistent snapshot store
//!
//! nvchaos proves that in-simulation crash cuts recover to a consistent
//! §V-E image; this crate makes snapshots *durable artifacts*. It
//! serializes per-epoch overlay deltas and the master mapping
//! (`Mmaster`) of an [`nvoverlay::mnm::Mnm`] into an on-disk,
//! content-fingerprinted layer store:
//!
//! * [`layer`] — immutable, content-addressed layers (FNV-1a 64-bit
//!   ids, embedded checksums, parent chains linking each epoch delta to
//!   its predecessor). Identical content always produces byte-identical
//!   layer files, so layers are shared between backups and a repeated
//!   backup writes nothing.
//! * [`manifest`] — the versioned manifest: every backup's layer list
//!   plus a reference count per layer. Schema-versioned JSON, parsed by
//!   the suite's own [`nvsim::json`].
//! * [`store`] — the store itself: `open` / `backup` / `restore` /
//!   `remove` / `gc` over a [`io::StoreIo`] backend. Mutations follow a
//!   journaled shadow-file protocol (write temp, checksum, publish) and
//!   commit through ping-pong root cells (`ROOT.0`/`ROOT.1`), mirroring
//!   the rec-epoch root-cell fencing the simulator enforces with
//!   `Nvm::write_fenced`: a crash after **any** prefix of completed
//!   writes leaves either the previous or the new manifest fully valid,
//!   never a hybrid.
//! * [`export`] — [`export::SnapshotExport`]: the bridge between a live
//!   `Mnm` and the store. A restored export rebuilds a real `Mnm` that
//!   passes §V-E recovery and mounts under `nvserve`.
//! * [`io`] / [`fault`] — the disk backend, plus the in-memory
//!   journaling backend and [`fault::replay`], which rebuilds the
//!   filesystem after a prefix cut with a torn tail write for the
//!   `nvo chaos --scheme store` explorer.
//!
//! Every failure is a typed [`StoreError`] — the store never panics on
//! corrupt input and never serves a partial image.

#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod fault;
pub mod io;
pub mod layer;
pub mod manifest;
pub mod store;

pub use error::StoreError;
pub use export::SnapshotExport;
pub use io::{DiskIo, MemIo, StoreIo, StoreOp};
pub use layer::{fnv1a, Layer, LayerId, LayerKind, LayerPayload};
pub use manifest::{BackupEntry, LayerMeta, Manifest, MANIFEST_SCHEMA};
pub use store::{BackupStats, GcStats, Store};
