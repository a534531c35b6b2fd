//! # nvbaselines — the paper's five comparison schemes, plus the ideal
//! no-snapshot system
//!
//! Each scheme is a [`SchemeHooks`](nvsim::memsys::SchemeHooks) impl over
//! a [`SchemeCore`](nvsim::memsys::SchemeCore) that owns the shared
//! non-versioned MESI hierarchy ([`nvsim::hierarchy::Hierarchy`]), the NVM
//! device and the stats. The one blanket `MemorySystem` impl in `nvsim`
//! runs the access, drains the hierarchy's events and sums the stall; a
//! scheme supplies what the paper ascribes to it (§VI-B) — its event
//! handling, epoch commit and finish-time drain:
//!
//! | Scheme | Module | Events it handles | Epoch commit and finish |
//! |---|---|---|---|
//! | Ideal (no snapshotting) | [`ideal`] | none (the empty scheme; Fig 11's normalization baseline) | dirty data back to DRAM at the end |
//! | SW Undo Logging | [`epoch_commit`] ([`CommitKind::UndoLog`]) | synchronous undo log before a line's first write | barriered write-set flush, fenced commit marker |
//! | SW Shadow Paging | [`epoch_commit`] ([`CommitKind::SwShadow`]) | write-set tracking | barriered flush to shadow slots + synchronous mapping-table update |
//! | HW Shadow (ThyNVM-like) | [`epoch_commit`] ([`CommitKind::HwShadow`]) | write-set tracking; LLC victims shadowed at once | background flush + synchronous mapping-table update; serial-only |
//! | PiCL | [`picl`] | background undo log; LLC write-backs persist | epoch-boundary tag walk of the LLC and L2s |
//! | PiCL-L2 | [`picl`] (L2 level) | re-log below the L2; L2 write-backs persist | tag walk of the L2s |
//!
//! The three epoch-commit schemes are one [`EpochCommitSystem`]: the same
//! write-set tracking and boundary flush, with the kind choosing what is
//! persisted and which writes stall. [`common`] holds their write set and
//! the NVM entry sizes.
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
