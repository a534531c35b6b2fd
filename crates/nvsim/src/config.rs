//! Simulation configuration (the paper's Table II) and its builder.

use crate::addr::LINE_BYTES;
use crate::clock::Cycle;
use std::fmt;

/// The coherence protocol variant the hierarchies run.
///
/// The paper states NVOverlay "does not modify the baseline protocol" and
/// extends to "mainstream derivations such as MOESI" (§IV, §IV-E); both
/// are implemented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Protocol {
    /// Directory-based MESI (the paper's baseline).
    #[default]
    Mesi,
    /// MOESI: external downgrades leave dirty data Owned in place instead
    /// of depositing it in the LLC.
    Moesi,
}

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: Cycle,
}

impl CacheParams {
    /// Number of sets implied by size, line size and associativity.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }

    /// Number of lines this cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

/// Errors produced by [`SimConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A cache's geometry is not realizable (zero sets, non-power-of-two
    /// sets, or capacity not divisible by line × ways).
    BadCacheGeometry {
        /// Which cache level was misconfigured.
        level: &'static str,
    },
    /// `cores` is zero or not divisible by `cores_per_vd`.
    BadTopology,
    /// A latency, bank count, queue depth or epoch size is zero.
    ZeroParameter {
        /// Which parameter was zero.
        name: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadCacheGeometry { level } => {
                write!(f, "cache geometry for {level} is not realizable")
            }
            ConfigError::BadTopology => {
                write!(
                    f,
                    "core count must be positive and divisible by cores per VD"
                )
            }
            ConfigError::ZeroParameter { name } => {
                write!(f, "parameter {name} must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full simulated-system configuration.
///
/// Defaults reproduce the paper's Table II:
///
/// | Component | Configuration |
/// |---|---|
/// | Processor | 16 cores @ 3 GHz |
/// | L1-D | 32 KB, 64 B lines, 8-way, 4 cycles |
/// | L2 | 256 KB, 64 B lines, 8-way, 8 cycles |
/// | Shared LLC | 32 MB, 64 B lines, 16-way, 30 cycles |
/// | DRAM | 4 controllers, ~50 ns |
/// | NVDIMM | 16 banks, 133 ns write latency |
///
/// Construct via [`SimConfig::default`] or [`SimConfig::builder`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of cores (= workload threads).
    pub cores: u16,
    /// Cores sharing one inclusive L2 (one Versioned Domain).
    pub cores_per_vd: u16,
    /// Private L1-D parameters.
    pub l1: CacheParams,
    /// Per-VD shared L2 parameters.
    pub l2: CacheParams,
    /// LLC parameters (aggregate over all slices).
    pub llc: CacheParams,
    /// Number of address-interleaved LLC slices.
    pub llc_slices: u16,
    /// One-way NoC hop latency added to every inter-VD / LLC transaction.
    pub noc_hop_latency: Cycle,
    /// DRAM access latency (cycles).
    pub dram_latency: Cycle,
    /// Number of DRAM controllers (address-interleaved).
    pub dram_controllers: u16,
    /// Number of NVM banks.
    pub nvm_banks: u16,
    /// NVM write occupancy per 64-byte line (cycles). 133 ns @ 3 GHz ≈ 400.
    pub nvm_write_latency: Cycle,
    /// NVM read latency (cycles).
    pub nvm_read_latency: Cycle,
    /// Maximum per-bank queueing delay before enqueuers must stall
    /// (backpressure window), expressed in write slots.
    pub nvm_queue_depth: u32,
    /// Stores per VD before the epoch auto-advances. The paper uses 1 M
    /// store uops at full scale; the default is scaled to the suite's
    /// default trace sizes (see EXPERIMENTS.md).
    pub epoch_size_stores: u64,
    /// Core frequency in GHz (for converting cycles to wall time).
    pub freq_ghz: f64,
    /// Width of NVM bandwidth time-series buckets (cycles).
    pub bandwidth_bucket_cycles: Cycle,
    /// OID tagging granularity in DRAM, in lines per shared tag
    /// (1 = per-line, 4 = the paper's "super block" option, §V-F).
    pub dram_oid_superblock_lines: u32,
    /// Coherence protocol variant.
    pub protocol: Protocol,
    /// Enables the single-probe L1-hit fast path in the hierarchies.
    /// Statistically invisible — identical stats, metrics and event
    /// streams either way; the flag exists so differential tests can pin
    /// the fast path against the reference path.
    pub replay_fast_path: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cores: 16,
            cores_per_vd: 2,
            l1: CacheParams {
                size_bytes: 32 * 1024,
                ways: 8,
                latency: 4,
            },
            l2: CacheParams {
                size_bytes: 256 * 1024,
                ways: 8,
                latency: 8,
            },
            llc: CacheParams {
                size_bytes: 32 * 1024 * 1024,
                ways: 16,
                latency: 30,
            },
            llc_slices: 4,
            noc_hop_latency: 4,
            dram_latency: 150,
            dram_controllers: 4,
            nvm_banks: 16,
            nvm_write_latency: 400,
            nvm_read_latency: 200,
            nvm_queue_depth: 8,
            epoch_size_stores: 20_000,
            freq_ghz: 3.0,
            bandwidth_bucket_cycles: 100_000,
            dram_oid_superblock_lines: 1,
            protocol: Protocol::Mesi,
            replay_fast_path: true,
        }
    }
}

impl SimConfig {
    /// Starts building a configuration from the Table II defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }

    /// Number of Versioned Domains (L2 clusters).
    pub fn vd_count(&self) -> u16 {
        self.cores / self.cores_per_vd
    }

    /// Capacity of one LLC slice in bytes.
    pub fn llc_slice_bytes(&self) -> u64 {
        self.llc.size_bytes / self.llc_slices as u64
    }

    /// The configuration of one replay island: the slice of this
    /// machine owned by a single Versioned Domain. The island keeps the
    /// VD's cores, L1s and L2 exactly, and takes a proportional share of
    /// the shared back end (LLC slices, DRAM controllers, NVM banks).
    /// `epoch_size_stores` and `bandwidth_bucket_cycles` are unchanged so
    /// the per-VD epoch cadence and the bandwidth-series bucket width —
    /// which merged series must agree on — are preserved.
    ///
    /// If the proportional LLC share does not divide into a power-of-two
    /// set count, the island keeps the aggregate LLC geometry instead
    /// (capacity fidelity is a modeling choice; validity is not).
    pub fn island_config(&self) -> SimConfig {
        let islands = self.vd_count().max(1);
        let mut c = self.clone();
        c.cores = self.cores_per_vd;
        c.llc_slices = (self.llc_slices / islands).max(1);
        let min_llc = LINE_BYTES * c.llc.ways as u64 * c.llc_slices as u64;
        c.llc.size_bytes = (self.llc.size_bytes / islands as u64).max(min_llc);
        c.nvm_banks = (self.nvm_banks / islands).max(1);
        c.dram_controllers = (self.dram_controllers / islands).max(1);
        if c.validate().is_err() {
            c.llc = self.llc;
            c.llc_slices = self.llc_slices;
        }
        debug_assert!(c.validate().is_ok(), "island config must stay valid");
        c
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0
            || self.cores_per_vd == 0
            || !self.cores.is_multiple_of(self.cores_per_vd)
        {
            return Err(ConfigError::BadTopology);
        }
        for (level, p, slices) in [
            ("L1", &self.l1, 1u64),
            ("L2", &self.l2, 1u64),
            ("LLC", &self.llc, self.llc_slices as u64),
        ] {
            if p.ways == 0 || slices == 0 {
                return Err(ConfigError::BadCacheGeometry { level });
            }
            let per_slice = p.size_bytes / slices;
            let denom = LINE_BYTES * p.ways as u64;
            if per_slice == 0 || per_slice % denom != 0 {
                return Err(ConfigError::BadCacheGeometry { level });
            }
            let sets = per_slice / denom;
            if !sets.is_power_of_two() {
                return Err(ConfigError::BadCacheGeometry { level });
            }
        }
        for (name, v) in [
            ("l1.latency", self.l1.latency),
            ("l2.latency", self.l2.latency),
            ("llc.latency", self.llc.latency),
            ("dram_latency", self.dram_latency),
            ("nvm_write_latency", self.nvm_write_latency),
            ("nvm_read_latency", self.nvm_read_latency),
            ("epoch_size_stores", self.epoch_size_stores),
            ("bandwidth_bucket_cycles", self.bandwidth_bucket_cycles),
            ("nvm_banks", self.nvm_banks as u64),
            ("nvm_queue_depth", self.nvm_queue_depth as u64),
            ("dram_controllers", self.dram_controllers as u64),
            ("llc_slices", self.llc_slices as u64),
            (
                "dram_oid_superblock_lines",
                self.dram_oid_superblock_lines as u64,
            ),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroParameter { name });
            }
        }
        Ok(())
    }
}

/// Chained builder for [`SimConfig`].
///
/// ```
/// use nvsim::config::SimConfig;
/// let cfg = SimConfig::builder()
///     .cores(8, 2)
///     .epoch_size_stores(5_000)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.vd_count(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets core count and cores per Versioned Domain.
    pub fn cores(mut self, cores: u16, cores_per_vd: u16) -> Self {
        self.cfg.cores = cores;
        self.cfg.cores_per_vd = cores_per_vd;
        self
    }

    /// Sets L1-D parameters.
    pub fn l1(mut self, size_bytes: u64, ways: u32, latency: Cycle) -> Self {
        self.cfg.l1 = CacheParams {
            size_bytes,
            ways,
            latency,
        };
        self
    }

    /// Sets L2 parameters.
    pub fn l2(mut self, size_bytes: u64, ways: u32, latency: Cycle) -> Self {
        self.cfg.l2 = CacheParams {
            size_bytes,
            ways,
            latency,
        };
        self
    }

    /// Sets LLC parameters (aggregate size) and slice count.
    pub fn llc(mut self, size_bytes: u64, ways: u32, latency: Cycle, slices: u16) -> Self {
        self.cfg.llc = CacheParams {
            size_bytes,
            ways,
            latency,
        };
        self.cfg.llc_slices = slices;
        self
    }

    /// Sets NVM device parameters.
    pub fn nvm(mut self, banks: u16, write_latency: Cycle, read_latency: Cycle) -> Self {
        self.cfg.nvm_banks = banks;
        self.cfg.nvm_write_latency = write_latency;
        self.cfg.nvm_read_latency = read_latency;
        self
    }

    /// Sets the automatic epoch length in stores per VD.
    pub fn epoch_size_stores(mut self, stores: u64) -> Self {
        self.cfg.epoch_size_stores = stores;
        self
    }

    /// Sets the coherence protocol variant.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.cfg.protocol = protocol;
        self
    }

    /// Enables or disables the L1-hit fast path (on by default). Turning
    /// it off forces every access through the reference full-protocol
    /// path; results are identical either way.
    pub fn replay_fast_path(mut self, enabled: bool) -> Self {
        self.cfg.replay_fast_path = enabled;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if any constraint is violated.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_ii() {
        let cfg = SimConfig::default();
        cfg.validate().expect("default must validate");
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.vd_count(), 8);
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.llc.lines(), 512 * 1024);
        assert_eq!(cfg.nvm_banks, 16);
    }

    #[test]
    fn builder_round_trip() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(16 * 1024, 4, 3)
            .epoch_size_stores(1000)
            .build()
            .unwrap();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.vd_count(), 2);
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.epoch_size_stores, 1000);
    }

    #[test]
    fn bad_topology_is_rejected() {
        let err = SimConfig::builder().cores(10, 4).build().unwrap_err();
        assert_eq!(err, ConfigError::BadTopology);
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        let err = SimConfig::builder()
            .l1(3 * 1024, 8, 4) // 6 sets
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadCacheGeometry { level: "L1" }));
    }

    #[test]
    fn zero_epoch_rejected() {
        let err = SimConfig::builder()
            .epoch_size_stores(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::ZeroParameter {
                name: "epoch_size_stores"
            }
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConfigError::BadCacheGeometry { level: "L2" };
        assert!(e.to_string().contains("L2"));
    }
}
