//! # nvoverlay — NVOverlay (ISCA 2021) in Rust
//!
//! A from-scratch reproduction of *NVOverlay: Enabling Efficient and
//! Scalable High-Frequency Snapshotting to NVM* (Wang et al., ISCA 2021).
//!
//! NVOverlay captures persistent snapshots of a process's full physical
//! address space to NVM hundreds of times per second with two mechanisms:
//!
//! * **Coherent Snapshot Tracking** ([`cst`]) — a version-tagged cache
//!   hierarchy with per-Versioned-Domain epochs forming a Lamport clock,
//!   tracking exactly what changed since the last snapshot without
//!   persistence barriers and without global epoch synchronization.
//! * **Multi-snapshot NVM Mapping** ([`mnm`]) — an Overlay Memory
//!   Controller that shadow-maps evicted versions into per-epoch NVM
//!   overlay pages, merges them into a persistent Master Mapping Table,
//!   and supports random access to any retained snapshot — with no
//!   logging, hence no log write amplification.
//!
//! [`system::NvOverlaySystem`] wires the two together behind `nvsim`'s
//! [`nvsim::memsys::MemorySystem`] trait; [`recovery`] implements crash
//! recovery and time-travel reads.
//!
//! ## Example
//!
//! ```
//! use nvoverlay::system::NvOverlaySystem;
//! use nvsim::{SimConfig, Runner};
//! use nvsim::trace::TraceBuilder;
//! use nvsim::addr::{Addr, ThreadId};
//!
//! let cfg = SimConfig::builder()
//!     .cores(4, 2)
//!     .epoch_size_stores(100)
//!     .build()
//!     .unwrap();
//! let mut sys = NvOverlaySystem::new(&cfg);
//! let mut tb = TraceBuilder::new(4);
//! for i in 0..1000u64 {
//!     tb.store(ThreadId((i % 4) as u16), Addr::new((i % 64) * 64));
//! }
//! let trace = tb.build();
//! let report = Runner::new().run(&mut sys, &trace);
//! assert!(report.cycles > 0);
//! // Crash recovery reproduces the golden memory image.
//! let img = sys.recover().expect("recoverable");
//! for (line, token) in &report.golden_image {
//!     assert_eq!(img.read(line), Some(*token));
//! }
//! ```

#![warn(missing_docs)]

pub mod cst;
pub mod epoch;
pub mod mnm;
pub mod recovery;
pub mod store;
pub mod system;

pub use epoch::Epoch;
pub use store::{QueryError, SnapshotStore, EPOCH_SENSE_WINDOW};
pub use system::NvOverlaySystem;
