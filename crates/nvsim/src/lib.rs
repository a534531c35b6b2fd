//! # nvsim — deterministic multicore cache/NVM timing simulator
//!
//! `nvsim` is the substrate on which the NVOverlay reproduction is built. It
//! plays the role zsim played in the paper: a fast, deterministic,
//! trace-driven timing model of a multicore memory hierarchy with a banked
//! NVDIMM at the bottom.
//!
//! The crate provides reusable building blocks:
//!
//! * [`addr`] — strongly-typed byte/line/page addresses and geometry math.
//! * [`mesi`] — the MESI coherence state lattice.
//! * [`cache`] — a generic set-associative cache array with LRU replacement
//!   and per-line user metadata.
//! * [`directory`] — sparse sharer directories (used at the L2 and LLC).
//! * [`noc`] — a hop-latency interconnect model with message accounting.
//! * [`dram`] / [`nvm`] — device models. The NVM model has banked write
//!   occupancy, bounded queues with backpressure, byte accounting by purpose
//!   (data / log / mapping metadata / context), and bandwidth time series.
//! * [`trace`] — per-thread memory access traces and deterministic
//!   interleaving.
//! * [`coherence`] — the one MESI/MOESI engine (private L1s, per-domain
//!   inclusive L2s, distributed non-inclusive LLC slices, sparse
//!   directory), generic over a line policy that supplies line metadata,
//!   the store-commit rule, the eviction paths and the response hooks.
//! * [`hierarchy`] — the engine under the baseline policy; the five
//!   baseline schemes in `nvbaselines` are built on it. NVOverlay's
//!   versioned policy lives in the `nvoverlay` crate.
//! * [`memsys`] — the [`memsys::MemorySystem`] trait every snapshotting
//!   scheme implements, and the deterministic run loop.
//! * [`fastmap`] — open-addressing maps and an Fx-style hasher for the
//!   simulator's hot paths (directory entries, OMC bookkeeping).
//! * [`linetable`] — page-indexed per-line tables for the state whose
//!   keys cover the trace footprint (DRAM image and OID tags, NVM wear,
//!   the load-value oracle, write sets).
//! * [`fault`] — persistence-order shadow model: a journal of every NVM
//!   write with logical payloads, in-flight windows, and prefix-closed
//!   crash cuts with torn-write boundaries. Drives the `nvchaos`
//!   crash-site explorer.
//! * [`shard`] — island-sharded replay planning: partitions a packed
//!   trace by VD into independent sub-machines with epoch-barrier
//!   windows and canonical cross-island exchange maps, all derived from
//!   the trace alone so results are invariant to the worker count.
//! * [`json`] — a minimal hand-rolled JSON parser/escaper shared by the
//!   report exporters and the persistent snapshot store (zero external
//!   dependencies).
//! * [`par`] — an ordered fan-out of independent tasks over worker
//!   threads, byte-identical to the serial loop.
//! * [`rng`] — deterministic xoshiro256++ randomness (no external crates).
//! * [`nvtrace`] — structured event tracing into a per-thread ring
//!   buffer (flight recorder). Compiled out without the `trace` cargo
//!   feature; a single branch when compiled in but idle.
//! * [`metrics`] — hierarchical named counters/gauges/histograms with a
//!   deterministic tree dump and cheap cross-run merging.
//! * [`prof`] — stall attribution for sharded replay: per-shard,
//!   per-window wall-time accounting over {compute, barrier-wait,
//!   exchange-apply, epoch-sync, merge}, deterministic straggler
//!   analysis from simulated clocks, and an Amdahl-style scaling model.
//!
//! ## Example
//!
//! ```
//! use nvsim::config::SimConfig;
//!
//! let cfg = SimConfig::default();
//! assert_eq!(cfg.cores, 16);
//! assert_eq!(cfg.cores_per_vd, 2);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod clock;
pub mod coherence;
pub mod config;
pub mod directory;
pub mod dram;
pub mod fastmap;
pub mod fault;
pub mod hierarchy;
pub mod json;
pub mod linetable;
pub mod memsys;
pub mod mesi;
pub mod metrics;
pub mod noc;
pub mod nvm;
pub mod nvtrace;
pub mod par;
pub mod prof;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod trace_io;

pub use addr::{Addr, CoreId, LineAddr, PageAddr, ThreadId, Token, VdId};
pub use clock::Cycle;
pub use config::SimConfig;
pub use memsys::{AccessOutcome, MemOp, MemorySystem, RunReport, Runner, ShardedRunReport};
pub use prof::{ProfBucket, ShardProfile};
pub use shard::ShardPlan;
