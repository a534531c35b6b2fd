//! # nvserve — concurrent time-travel query service over recovered snapshots
//!
//! NVOverlay's Multi-snapshot NVM Mapping retains every merged epoch's
//! overlay mapping table (§V-E), so any recoverable snapshot can be read
//! at random. This crate turns that capability into a *service*: mount a
//! finished [`nvoverlay::mnm::Mnm`]'s durable state the way a recovery
//! tool attaches to NVM DIMMs, then answer concurrent batched
//! point-in-time reads — `GET key AS OF epoch E` — for any epoch the
//! typed resolver accepts.
//!
//! The pipeline:
//!
//! 1. [`view::Mount`] runs the full §V-E recovery procedure to validate
//!    the durable state, learns the key universe, and freezes an
//!    [`view::EpochDirectory`] of retained epochs.
//! 2. [`driver::plan`] scripts a deterministic multi-session load —
//!    zipfian keys, newest-biased epochs, scheduled bad-epoch probes —
//!    as a pure function of the seed.
//! 3. [`server::serve`] validates each batch once (typed
//!    [`nvoverlay::QueryError`] rejections), flattens accepted queries
//!    onto `omc_count × subshards` serving shards in canonical order,
//!    and fans the shards across worker threads. Each shard answers its
//!    queue serially by walking its OMC's retained per-epoch radix tables
//!    in place ([`nvoverlay::mnm::EpochReader`]); nothing is copied or
//!    cached.
//! 4. [`report::ServeReport`] carries only worker-count-independent
//!    values plus an FNV-1a answer digest, so `1 == 2 == 4 == 8` workers
//!    is checkable with `cmp` — wall-clock throughput travels separately
//!    in [`server::ServeOutcome`].
//!
//! Answers are bit-equal to [`nvoverlay::mnm::Mnm::time_travel`] on the
//! same epoch (the differential suite pins this against the trace
//! oracle for every recoverable epoch).
//!
//! ## Example
//!
//! ```
//! use nvoverlay::mnm::{Mnm, OmcConfig};
//! use nvsim::nvm::Nvm;
//! use nvsim::addr::LineAddr;
//! use nvserve::{Mount, ServeConfig, driver, server};
//!
//! // Build three snapshots of four lines, then crash.
//! let mut m = Mnm::new(2, 1, OmcConfig { pool_pages: 16, ..OmcConfig::default() });
//! let mut n = Nvm::new(4, 400, 200, 8, 100_000);
//! for e in 1..=3 {
//!     for l in 0..4u64 {
//!         m.receive_version(&mut n, 0, LineAddr::new(l), 100 * e + l, e);
//!     }
//! }
//! m.finish(&mut n, 0, 3);
//!
//! // Mount and serve a scripted load.
//! let mount = Mount::new(&m, 2).unwrap();
//! let cfg = ServeConfig { sessions: 2, batches: 4, batch: 8, ..ServeConfig::default() };
//! let plan = driver::plan(&mount, &cfg).unwrap();
//! let out = server::serve(&mount, &plan, &cfg);
//! assert_eq!(out.report.answered, out.report.enqueued);
//!
//! // Point-in-time reads resolve through the same typed path.
//! let view = mount.dir().resolve(2).unwrap();
//! assert_eq!(mount.mnm().time_travel(LineAddr::new(1), view.epoch()), Some(201));
//! assert!(mount.dir().resolve(99).is_err());
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod report;
pub mod server;
pub mod view;

pub use driver::{EpochSelect, LoadPlan, Zipf};
pub use report::{CacheStats, ServeReport, ShardReport};
pub use server::{serve, ServeConfig, ServeOutcome};
pub use view::{EpochDirectory, EpochView, Mount, MountError};
