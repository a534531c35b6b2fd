//! A host-speed probe, and the normalisation it drives.
//!
//! On a shared virtual machine the host's speed drifts by a quarter over
//! seconds to minutes, moving every timed metric of a run together, so
//! two runs of one commit could differ by more than any useful regression
//! bound. The probe is a fixed piece of work in this crate's own code — a
//! small set-associative cache model, the branchy table lookups the
//! simulator itself spends its time on — timed right before and right
//! after each measured phase, on as many threads as the phase runs. No
//! change outside the benchmark can move it, so the two samples say how
//! fast the host was while the phase ran, and [`normalise`] restates the
//! phase's host-timed metrics at the [`REFERENCE_MS`] host speed.
//!
//! A cache model tracks the simulator's slow spells better than a walk
//! over a table that misses every cache: over ten btree-hifreq runs on a
//! 2-vCPU Xeon virtual machine with busy neighbours, NVOverlay replay
//! throughput spread 25% raw, 16% restated by such a walk and 6% restated
//! by this model.
//!
//! The probe cannot tell a slow host from a benchmarked program that
//! keeps working between phases (a thread left spinning, say): such a
//! program would slow the probe and have its own slowness cancelled.

use std::hint::black_box;
use std::time::Instant;

/// The probe's median sample on the reference host (2 vCPUs of an Intel
/// Xeon under KVM, when quiet), on one thread and on two. Only the scale
/// of the normalised numbers depends on them.
pub const REFERENCE_MS: [f64; 2] = [16.5, 21.5];

/// Restates `value`, measured while the host ran at `speed` times the
/// reference speed, at the reference speed: on a host at half speed a
/// duration (unit `s`, `ms` or `us`) is halved and a rate (unit `…/s`)
/// doubled. Other metrics — sizes, simulated ratios — are returned
/// unchanged.
pub fn normalise(value: f64, unit: &str, speed: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => value * speed,
        u if u.ends_with("/s") => value / speed,
        _ => value,
    }
}

/// Sets and ways of the cache model: 512 KiB of tags and 256 KiB of
/// stamps, about a core's L2.
const SETS: usize = 8192;
const WAYS: usize = 8;
/// Lookups per sample.
const LOOKUPS: u32 = 1 << 20;

/// A set-associative cache of line tags with least-recently-used
/// replacement.
struct CacheModel {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    clock: u32,
    state: u64,
}

impl CacheModel {
    fn new(seed: u64) -> CacheModel {
        CacheModel {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            clock: 0,
            state: seed | 1,
        }
    }

    /// [`LOOKUPS`] lookups, seven in ten to 4,096 hot lines and the rest
    /// spread over a million; a miss replaces the set's least recently
    /// used way. Returns the hits.
    fn run(&mut self) -> u64 {
        let mut x = self.state;
        let mut hits = 0u64;
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if x % 10 < 7 {
                (x >> 8) & 0xFFF
            } else {
                (x >> 8) & 0xF_FFFF
            };
            self.clock = self.clock.wrapping_add(1);
            let set = (line as usize % SETS) * WAYS;
            let tags = &mut self.tags[set..set + WAYS];
            let stamps = &mut self.stamps[set..set + WAYS];
            if let Some(way) = tags.iter().position(|&t| t == line) {
                stamps[way] = self.clock;
                hits += 1;
            } else {
                let lru = (0..WAYS).min_by_key(|&w| stamps[w]).unwrap_or(0);
                tags[lru] = line;
                stamps[lru] = self.clock;
            }
        }
        self.state = x;
        hits
    }
}

/// The probe: one cache model per thread it can run on.
pub struct Probe {
    models: [CacheModel; 2],
}

impl Probe {
    /// Allocates the models.
    pub fn new() -> Probe {
        Probe {
            models: [
                CacheModel::new(0x2545_F491_4F6C_DD1D),
                CacheModel::new(0x9E37_79B9_7F4A_7C15),
            ],
        }
    }

    /// One timed run of a cache model on each of `threads` (1 or 2)
    /// threads; returns the host's speed relative to the reference host
    /// (below 1: slower), from the wall time until the last one finished.
    pub fn sample(&mut self, threads: usize) -> f64 {
        assert!(
            threads == 1 || threads == 2,
            "the probe runs 1 or 2 threads"
        );
        let t = Instant::now();
        let hits = if threads == 1 {
            self.models[0].run()
        } else {
            let [a, b] = &mut self.models;
            std::thread::scope(|s| {
                let other = s.spawn(|| b.run());
                a.run() + other.join().expect("the cache model does not panic")
            })
        };
        let elapsed = t.elapsed();
        black_box(hits);
        REFERENCE_MS[threads - 1] / (elapsed.as_secs_f64() * 1e3)
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_and_rates_move_with_the_host_and_nothing_else_does() {
        // A host running at half the reference speed doubles durations
        // and halves rates; normalising undoes both.
        let slow = 0.5;
        assert_eq!(normalise(20.0, "ms", slow), 10.0);
        assert_eq!(normalise(3.0, "s", slow), 1.5);
        assert_eq!(normalise(0.5, "us", slow), 0.25);
        assert_eq!(normalise(2.0, "Maccess/s", slow), 4.0);
        assert_eq!(normalise(100.0, "query/s", slow), 200.0);
        assert_eq!(normalise(480.0, "MiB", slow), 480.0);
        assert_eq!(normalise(1.03, "ratio", slow), 1.03);
        assert_eq!(normalise(7.0, "ms", 1.0), 7.0);
    }

    #[test]
    fn the_cache_model_hits_its_hot_lines_and_evicts_the_oldest() {
        let mut m = CacheModel::new(7);
        let hits = m.run();
        // The 4,096 hot lines fit; most of the other three in ten miss.
        let rate = hits as f64 / f64::from(LOOKUPS);
        assert!((0.65..0.75).contains(&rate), "hit rate {rate}");
        assert!(Probe::new().sample(2) > 0.0);
    }
}
