//! # nvchaos — deterministic fault injection and crash-site exploration
//!
//! NVOverlay's claim is not "fast snapshots" but *recoverable* fast
//! snapshots: after an arbitrary power cut, scanning the Master Mapping
//! Table at `rec-epoch` must reconstruct a consistent cut of the
//! workload (paper §III-C, §V-E). This crate tests that claim the hard
//! way, by crashing the system everywhere and recovering.
//!
//! One driver crashes two layers. A [`CrashTarget`] holds an oracle
//! run's write journal, its site categories and sample, and a check that
//! cuts the journal at a site (tearing the boundary write and flipping a
//! bit when its seeded draws say so), recovers, and tests the result.
//! [`explore()`] fans the checks out and tallies one [`ChaosReport`],
//! whose JSON [`ChaosReport::from_json`] reads back.
//!
//! * [`NvmTarget`] crashes the simulated NVM of NVOverlay or the
//!   SW-undo baseline over [`nvsim::fault`], which journals every NVM
//!   write with its logical payload; a crash durably retains only a
//!   prefix-closed subset — in device drain order — of the in-flight
//!   window, with at most one torn boundary write. [`rebuild`] replays
//!   a cut into the durable state recovery would find
//!   ([`rebuild::RebuiltState`] implements the production
//!   [`nvoverlay::recovery::DurableState`]). Sites fall *inside* OMC
//!   flushes and mid-`Mmaster` update; beyond crashes the target injects
//!   faults recovery must *detect*: torn `rec-epoch` roots, single-bit
//!   flips in mapping words, sustained NVM backpressure.
//! * [`StoreTarget`] crashes the on-disk backup store over
//!   [`nvstore::fault`]: prefix cuts of a scripted backup → backup →
//!   remove → gc session, torn tail writes and bit flips in surviving
//!   files, each of which must restore a committed manifest exactly or
//!   fail with a typed error.
//! * [`oracle::TraceOracle`] holds ground truth about the workload
//!   (per-thread write order, single-writer lines) and holds every
//!   recovered image of either target to the same consistency-cut
//!   checks.
//!
//! Determinism: one oracle run per target; each site check is a pure
//! function of `(journal, master seed, site)`. Two runs with the same
//! seed produce byte-identical JSON, whatever the worker count.

pub mod explore;
pub mod nvm;
pub mod oracle;
pub mod rebuild;
pub mod report;
pub mod store_chaos;

pub use explore::{explore, ChaosConfig, CrashTarget};
pub use nvm::{ChaosScheme, NvmTarget};
pub use oracle::TraceOracle;
pub use rebuild::{rebuild_undo, undo_expected, RebuildFidelity, RebuiltState};
pub use report::{ChaosReport, Field, ReportError, Violation};
pub use store_chaos::{MountCheck, StoreTarget};
