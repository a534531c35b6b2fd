//! The three benchmark workloads and their seeded builders.
//!
//! Each workload stresses a different part of the pipeline (README.md
//! gives the measured traits); all use the Standard-scale machine of
//! Table II and differ only in the trace, the epoch length and the serve
//! load.

use nvserve::{EpochSelect, ServeConfig};
use nvsim::trace::Trace;
use nvsim::SimConfig;
use nvworkloads::{SuiteParams, Workload};

/// The seed used when none is given (the suite's own default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Worker threads for serving, and shards for sharded replay: the
/// benchmark's load comes from one process with at most two threads.
pub const THREADS: usize = 2;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// Read- and L1-bound control.
    KmeansL1,
    /// Write-heavy miss path.
    HashtableMiss,
    /// The paper's high-frequency snapshot regime.
    BtreeHifreq,
}

impl BenchWorkload {
    /// Every workload, in run order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::KmeansL1,
        BenchWorkload::HashtableMiss,
        BenchWorkload::BtreeHifreq,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::KmeansL1 => "kmeans-l1",
            BenchWorkload::HashtableMiss => "hashtable-miss",
            BenchWorkload::BtreeHifreq => "btree-hifreq",
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The generator parameters for `seed`.
    pub fn params(self, seed: u64) -> SuiteParams {
        let ops = match self {
            BenchWorkload::HashtableMiss => 100_000,
            BenchWorkload::KmeansL1 | BenchWorkload::BtreeHifreq => 25_000,
        };
        SuiteParams {
            threads: 16,
            ops,
            warmup_ops: 150_000,
            seed,
        }
    }

    fn suite(self) -> Workload {
        match self {
            BenchWorkload::KmeansL1 => Workload::Kmeans,
            BenchWorkload::HashtableMiss => Workload::HashTable,
            BenchWorkload::BtreeHifreq => Workload::BTree,
        }
    }

    /// Generates the workload's trace for `seed`.
    pub fn generate(self, seed: u64) -> Trace {
        nvworkloads::generate(self.suite(), &self.params(seed))
    }

    /// The simulated machine: Table II geometry with the workload's
    /// epoch length (stores per epoch).
    pub fn sim_config(self) -> SimConfig {
        let epoch = match self {
            BenchWorkload::BtreeHifreq => 300,
            BenchWorkload::KmeansL1 | BenchWorkload::HashtableMiss => 3_000,
        };
        SimConfig::builder()
            .epoch_size_stores(epoch)
            .build()
            .expect("Table II geometry with a positive epoch is valid")
    }

    /// The serve load for `seed`: 16 sessions over every servable epoch,
    /// keys drawn uniformly. Under a skewed (zipfian) draw the few
    /// hottest keys, which the seed picks, set how deep every walk goes,
    /// and throughput moved up to twofold from seed to seed; uniform keys
    /// and many batches average over the whole key and epoch space.
    ///
    /// kmeans-l1 and hashtable-miss serve 16 × 512 batches of 256 keys
    /// from a cache that holds all their epochs. btree-hifreq's 200+
    /// epochs overflow the 128-table cache, so each query walks dozens
    /// of tables and often materialises them; it serves 16 × 8 batches
    /// of 16 keys to keep a call near one second.
    pub fn serve_config(self, seed: u64, workers: usize) -> ServeConfig {
        let (batches, batch) = match self {
            BenchWorkload::BtreeHifreq => (8, 16),
            BenchWorkload::KmeansL1 | BenchWorkload::HashtableMiss => (512, 256),
        };
        ServeConfig {
            sessions: 16,
            batches,
            batch,
            workers,
            cache_cap: 128,
            subshards: 4,
            seed: seed ^ 0x5345_5256_4531,
            theta: 0.0,
            epochs: EpochSelect::All,
            error_probes: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in BenchWorkload::ALL {
            assert_eq!(BenchWorkload::from_name(w.name()), Some(w));
        }
        assert_eq!(BenchWorkload::from_name("kmeans"), None);
    }

    #[test]
    fn names_match_the_metric_table() {
        let names: Vec<String> = BenchWorkload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, crate::table::Table::builtin().workloads);
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for w in BenchWorkload::ALL {
            let fp = |seed| w.generate(seed).to_packed().fingerprint();
            assert_eq!(fp(DEFAULT_SEED), fp(DEFAULT_SEED), "{}", w.name());
            assert_ne!(fp(DEFAULT_SEED), fp(DEFAULT_SEED + 1), "{}", w.name());
        }
    }

    #[test]
    fn workloads_differ_in_epoch_length_and_serve_load() {
        let b = BenchWorkload::BtreeHifreq;
        let k = BenchWorkload::KmeansL1;
        assert_eq!(b.sim_config().epoch_size_stores, 300);
        assert_eq!(k.sim_config().epoch_size_stores, 3_000);
        let q = |c: ServeConfig| c.sessions * c.batches * c.batch;
        assert_eq!(q(b.serve_config(1, THREADS)), 2_048);
        assert_eq!(q(k.serve_config(1, THREADS)), 2_097_152);
    }
}
