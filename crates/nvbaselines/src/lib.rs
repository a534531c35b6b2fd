//! # nvbaselines — the paper's five comparison schemes, plus the ideal
//! no-snapshot system
//!
//! Each scheme implements [`nvsim::memsys::MemorySystem`] on top of the
//! shared non-versioned MESI hierarchy ([`nvsim::hierarchy::Hierarchy`])
//! and models the persistence behaviour the paper ascribes to it (§VI-B):
//!
//! | Scheme | Module | Mechanism |
//! |---|---|---|
//! | Ideal (no snapshotting) | [`ideal`] | normalization baseline of Fig 11 |
//! | SW Undo Logging | [`epoch_commit`] ([`CommitKind::UndoLog`]) | synchronous undo log before first write; barriered write-set flush at epoch end |
//! | SW Shadow Paging | [`epoch_commit`] ([`CommitKind::SwShadow`]) | barriered write-set flush to shadow locations + synchronous persistent mapping-table update |
//! | HW Shadow (ThyNVM-like) | [`epoch_commit`] ([`CommitKind::HwShadow`]) | background data persistence overlapped with execution; synchronous mapping-table update at epoch end |
//! | PiCL | [`picl`] | hardware undo logging, version-tagged inclusive LLC, epoch-boundary tag walks |
//! | PiCL-L2 | [`picl`] (L2 level) | PiCL with the persistence boundary at the (small) L2s |
//!
//! The three epoch-commit schemes are one [`EpochCommitSystem`]: the same
//! write-set tracking and boundary flush, with the kind choosing what is
//! persisted and which writes stall.
//!
//! All schemes run identical traces through identical hierarchies, so the
//! cycle and write-amplification comparisons of Figs 11/12 are
//! apples-to-apples.

#![warn(missing_docs)]

pub mod common;
pub mod epoch_commit;
pub mod ideal;
pub mod picl;

pub use epoch_commit::{CommitKind, EpochCommitSystem};
pub use ideal::IdealSystem;
pub use picl::{Picl, PiclLevel};
