//! NVDIMM device model.
//!
//! Models the paper's Table II NVM: 16 banks, 133 ns write occupancy per
//! 64-byte line. Each bank is busy for the duration of a write; writes to a
//! busy bank queue behind it. A bounded per-bank queue produces
//! *backpressure*: when the queue window is exceeded, the enqueuer must
//! stall until a slot frees. This is what lets bursty schemes (PiCL's
//! epoch-boundary tag walks, software epoch flushes) lose performance while
//! schemes that spread writes out (NVOverlay) do not — the effect behind
//! Fig 11 and Fig 17.
//!
//! Byte accounting is decomposed by [`NvmWriteKind`] and fed into a
//! [`BandwidthSeries`] for Fig 17.

use crate::clock::Cycle;
use crate::fault::{FaultPlane, PersistPayload};
use crate::linetable::LineTable;
use crate::metrics::{Hist, Registry};
use crate::nvtrace::{EventKind, TraceScope, Track};
use crate::stats::{BandwidthSeries, NvmBytes, NvmWriteKind};

/// Endurance summary — NVM cells wear out after a bounded number of
/// Program/Erase cycles (§II-B), so write distribution matters as much as
/// write volume.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WearReport {
    /// Distinct data keys (≈ lines) ever written.
    pub unique_keys: u64,
    /// Total data writes.
    pub total_writes: u64,
    /// Writes to the single hottest key (worst-case wear).
    pub max_key_writes: u64,
    /// Mean writes per written key.
    pub mean_key_writes: f64,
}

/// Result of enqueuing one NVM write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteTicket {
    /// Earliest time the enqueuer may proceed. Asynchronous (background)
    /// writers stall only until this time; it exceeds the enqueue time only
    /// under backpressure.
    pub accept_time: Cycle,
    /// Time at which the write is durable. Synchronous writers (persistence
    /// barriers) stall until this time.
    pub completion: Cycle,
}

impl WriteTicket {
    /// Backpressure stall implied for an asynchronous writer entering at
    /// `now`.
    pub fn backpressure_stall(&self, now: Cycle) -> Cycle {
        self.accept_time.saturating_sub(now)
    }

    /// Full persistence stall implied for a synchronous writer entering at
    /// `now`.
    pub fn sync_stall(&self, now: Cycle) -> Cycle {
        self.completion.saturating_sub(now)
    }
}

/// A banked NVM device.
#[derive(Clone, Debug)]
pub struct Nvm {
    bank_busy_until: Vec<Cycle>,
    write_latency: Cycle,
    read_latency: Cycle,
    queue_window: Cycle,
    stats: NvmBytes,
    series: BandwidthSeries,
    reads: u64,
    /// Data writes per key (line-like: keys of one page are adjacent).
    wear: LineTable<u64, u64>,
    /// Queueing delay (start − enqueue) of each accepted write.
    queue_delay: Hist,
    /// Persistence-order shadow journal, when fault exploration is on.
    plane: Option<Box<FaultPlane>>,
}

impl Nvm {
    /// Creates an NVM with `banks` banks, per-line write occupancy
    /// `write_latency`, read latency `read_latency`, a backpressure window
    /// of `queue_depth` writes per bank, and bandwidth buckets of
    /// `bucket_cycles`.
    ///
    /// # Panics
    /// Panics if `banks`, `write_latency` or `bucket_cycles` is zero.
    pub fn new(
        banks: u16,
        write_latency: Cycle,
        read_latency: Cycle,
        queue_depth: u32,
        bucket_cycles: Cycle,
    ) -> Self {
        assert!(banks > 0, "NVM needs at least one bank");
        assert!(write_latency > 0, "write latency must be positive");
        Self {
            bank_busy_until: vec![0; banks as usize],
            write_latency,
            read_latency,
            queue_window: queue_depth as Cycle * write_latency,
            stats: NvmBytes::new(),
            series: BandwidthSeries::new(bucket_cycles),
            reads: 0,
            wear: LineTable::new(),
            queue_delay: Hist::new(),
            plane: None,
        }
    }

    /// Attaches a fresh [`FaultPlane`]: from now on every accepted write
    /// is journaled for crash-cut reconstruction.
    pub fn enable_fault_plane(&mut self) {
        self.plane = Some(Box::new(FaultPlane::default()));
    }

    /// The shadow journal, if fault exploration is on.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.plane.as_deref()
    }

    /// Detaches and returns the shadow journal.
    pub fn take_fault_plane(&mut self) -> Option<FaultPlane> {
        self.plane.take().map(|b| *b)
    }

    /// Attaches the logical persistent effect to the most recent write.
    /// No-op unless a fault plane is enabled.
    pub fn annotate_last(&mut self, payload: PersistPayload) {
        if let Some(p) = &mut self.plane {
            p.annotate_last(payload);
        }
    }

    fn bank_of(&self, key: u64) -> usize {
        // Multiplicative hash spreads sequential line addresses over banks.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % self.bank_busy_until.len()
    }

    /// Occupancy charged for a write of `bytes` bytes (proportional to the
    /// per-line latency, minimum one cycle).
    fn occupancy(&self, bytes: u64) -> Cycle {
        ((self.write_latency * bytes).div_ceil(64)).max(1)
    }

    /// Enqueues a write of `bytes` bytes keyed by `key` (bank selector,
    /// typically the line address) at time `now`.
    pub fn write(&mut self, now: Cycle, key: u64, kind: NvmWriteKind, bytes: u64) -> WriteTicket {
        let bank = self.bank_of(key);
        let busy = self.bank_busy_until[bank];
        // Backpressure: the enqueuer may not run further ahead of the bank
        // than the queue window.
        let accept_time = busy.saturating_sub(self.queue_window).max(now);
        let start = busy.max(accept_time);
        let completion = start + self.occupancy(bytes);
        self.bank_busy_until[bank] = completion;
        self.stats.record(kind, bytes);
        self.series.record(completion, bytes);
        self.queue_delay.record(start.saturating_sub(now));
        TraceScope::new(Track::NvmBank(bank as u16)).emit(
            EventKind::NvmBankBusy,
            start,
            completion - start,
            bytes,
        );
        if kind == NvmWriteKind::Data {
            *self.wear.or_default(key) += 1;
        }
        if let Some(p) = &mut self.plane {
            p.record(now, completion);
        }
        WriteTicket {
            accept_time,
            completion,
        }
    }

    /// Enqueues a write behind a persistence fence: it is not issued
    /// before every previously accepted write is durable, so its
    /// completion orders after all of them. Used for ordering-critical
    /// updates such as the recoverable-epoch root pointer — a crash cut
    /// that retains the fenced write retains everything it depends on.
    pub fn write_fenced(
        &mut self,
        now: Cycle,
        key: u64,
        kind: NvmWriteKind,
        bytes: u64,
    ) -> WriteTicket {
        let fence = self.persist_horizon().max(now);
        self.write(fence, key, kind, bytes)
    }

    /// Reads a line; returns the completion time.
    pub fn read(&mut self, now: Cycle, _key: u64) -> Cycle {
        self.reads += 1;
        now + self.read_latency
    }

    /// Time at which every accepted write is durable.
    pub fn persist_horizon(&self) -> Cycle {
        self.bank_busy_until.iter().copied().max().unwrap_or(0)
    }

    /// Byte/write accounting by purpose.
    pub fn stats(&self) -> &NvmBytes {
        &self.stats
    }

    /// Bandwidth time series.
    pub fn bandwidth(&self) -> &BandwidthSeries {
        &self.series
    }

    /// Total reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Per-line write occupancy (cycles).
    pub fn write_latency(&self) -> Cycle {
        self.write_latency
    }

    /// Read latency (cycles).
    pub fn read_latency(&self) -> Cycle {
        self.read_latency
    }

    /// Publishes the device's metrics under `prefix` (e.g. `nvm`).
    pub fn metrics_into(&self, reg: &mut Registry, prefix: &str) {
        for kind in NvmWriteKind::ALL {
            reg.set_counter(&format!("{prefix}.bytes.{kind}"), self.stats.bytes(kind));
            reg.set_counter(&format!("{prefix}.writes.{kind}"), self.stats.writes(kind));
        }
        reg.set_counter(&format!("{prefix}.reads"), self.reads);
        reg.set_gauge(
            &format!("{prefix}.persist_horizon"),
            self.persist_horizon() as f64,
        );
        reg.record_hist(&format!("{prefix}.queue_delay"), self.queue_delay.clone());
        let wear = self.wear_report();
        reg.set_counter(&format!("{prefix}.wear.unique_lines"), wear.unique_keys);
        reg.set_counter(
            &format!("{prefix}.wear.max_line_writes"),
            wear.max_key_writes,
        );
    }

    /// Endurance summary over all data writes so far.
    pub fn wear_report(&self) -> WearReport {
        let unique = self.wear.len() as u64;
        let total: u64 = self.wear.values().sum();
        WearReport {
            unique_keys: unique,
            total_writes: total,
            max_key_writes: self.wear.values().copied().max().unwrap_or(0),
            mean_key_writes: if unique == 0 {
                0.0
            } else {
                total as f64 / unique as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> Nvm {
        // 1 bank to make serialization observable.
        Nvm::new(1, 400, 200, 2, 100_000)
    }

    #[test]
    fn single_bank_serializes_writes() {
        let mut n = nvm();
        let t1 = n.write(0, 1, NvmWriteKind::Data, 64);
        assert_eq!(t1.accept_time, 0);
        assert_eq!(t1.completion, 400);
        let t2 = n.write(0, 2, NvmWriteKind::Data, 64);
        assert_eq!(t2.completion, 800, "second write queues behind the first");
        assert_eq!(t2.accept_time, 0, "within the queue window");
    }

    #[test]
    fn backpressure_kicks_in_past_queue_window() {
        let mut n = nvm(); // window = 2 * 400 = 800
        n.write(0, 1, NvmWriteKind::Data, 64); // busy until 400
        n.write(0, 2, NvmWriteKind::Data, 64); // busy until 800
        n.write(0, 3, NvmWriteKind::Data, 64); // busy until 1200
        let t = n.write(0, 4, NvmWriteKind::Data, 64);
        // Bank busy until 1200; enqueuer must wait until 1200 - 800 = 400.
        assert_eq!(t.accept_time, 400);
        assert_eq!(t.backpressure_stall(0), 400);
        assert_eq!(t.completion, 1600);
        assert_eq!(t.sync_stall(0), 1600);
    }

    #[test]
    fn small_writes_use_proportional_occupancy() {
        let mut n = nvm();
        let t = n.write(0, 1, NvmWriteKind::MapMetadata, 8);
        assert_eq!(t.completion, 50, "8/64 of 400 cycles");
        let t2 = n.write(0, 2, NvmWriteKind::Log, 72);
        assert_eq!(t2.completion, 50 + 450, "72/64 of 400 cycles, ceil");
    }

    #[test]
    fn idle_bank_resets_queueing() {
        let mut n = nvm();
        n.write(0, 1, NvmWriteKind::Data, 64);
        let t = n.write(10_000, 2, NvmWriteKind::Data, 64);
        assert_eq!(t.accept_time, 10_000);
        assert_eq!(t.completion, 10_400);
    }

    #[test]
    fn stats_and_series_accumulate() {
        let mut n = nvm();
        n.write(0, 1, NvmWriteKind::Data, 64);
        n.write(0, 2, NvmWriteKind::Log, 72);
        assert_eq!(n.stats().total_bytes(), 136);
        assert_eq!(n.stats().bytes(NvmWriteKind::Log), 72);
        assert_eq!(n.bandwidth().buckets().iter().sum::<u64>(), 136);
        assert_eq!(n.persist_horizon(), 850);
    }

    #[test]
    fn multiple_banks_spread_load() {
        let mut n = Nvm::new(16, 400, 200, 8, 100_000);
        let mut max_completion = 0;
        for k in 0..16u64 {
            let t = n.write(0, k, NvmWriteKind::Data, 64);
            max_completion = max_completion.max(t.completion);
        }
        // With 16 banks and a spreading hash, 16 writes should not fully
        // serialize (16 * 400 = 6400).
        assert!(
            max_completion < 6400,
            "expected parallelism across banks, horizon {max_completion}"
        );
    }

    #[test]
    fn wear_report_tracks_hot_keys() {
        let mut n = nvm();
        for _ in 0..5 {
            n.write(0, 7, NvmWriteKind::Data, 64);
        }
        n.write(0, 8, NvmWriteKind::Data, 64);
        n.write(0, 9, NvmWriteKind::Log, 72); // logs do not wear data keys
        let w = n.wear_report();
        assert_eq!(w.unique_keys, 2);
        assert_eq!(w.total_writes, 6);
        assert_eq!(w.max_key_writes, 5);
        assert!((w.mean_key_writes - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fenced_write_completes_after_every_prior_write() {
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        let mut latest = 0;
        for k in 0..8u64 {
            latest = latest.max(n.write(0, k, NvmWriteKind::Data, 64).completion);
        }
        let t = n.write_fenced(0, 0xFEED, NvmWriteKind::MapMetadata, 8);
        assert!(
            t.completion > latest,
            "fenced write must order after the horizon ({} <= {latest})",
            t.completion
        );
    }

    #[test]
    fn fault_plane_journals_writes_when_enabled() {
        let mut n = nvm();
        n.write(0, 1, NvmWriteKind::Data, 64); // before enabling: not journaled
        n.enable_fault_plane();
        n.write(500, 2, NvmWriteKind::Log, 72);
        n.annotate_last(crate::fault::PersistPayload::EpochCommit { epoch: 3 });
        let p = n.take_fault_plane().expect("plane was enabled");
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.records()[0].payload,
            Some(crate::fault::PersistPayload::EpochCommit { epoch: 3 })
        );
        assert!(n.fault_plane().is_none(), "plane detached");
    }

    #[test]
    fn reads_count_and_complete() {
        let mut n = nvm();
        assert_eq!(n.read(100, 5), 300);
        assert_eq!(n.reads(), 1);
    }
}
