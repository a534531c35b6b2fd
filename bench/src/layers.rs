//! The traced replay loop: where replay host time goes, by layer.
//!
//! [`replay`] is a copy of `Runner::run_packed`'s loop that times a
//! random 1 in [`SAMPLE_EVERY`] iterations end to end. A timed
//! iteration is split into the scheduler part (scan-min pick, clock
//! update, golden-model check, cursor advance) and the
//! `MemorySystem::access` call; the call is charged to the deepest
//! hierarchy level whose access counter moved, or to `persist` when the
//! access carried a persistence stall. Untimed iterations run exactly
//! the code of the runner, so the simulation is unchanged — the caller
//! checks cycles, stall and statistics against an untraced run.
//!
//! A few iterations cost far more than the rest — a table inside the
//! memory system growing, a long tag walk — and a 1-in-16 draw catches
//! too few of them to say what they cost: on hashtable-miss nine PiCL
//! accesses of over a millisecond each held a quarter of the loop. The
//! replay is deterministic, so a discovery replay that times every
//! iteration ([`Timing::All`]) finds them, and the measured replays time
//! those iterations always and draw only among the rest.

use nvbaselines::Picl;
use nvoverlay::system::NvOverlaySystem;
use nvsim::addr::{CoreId, LineAddr, ThreadId, Token};
use nvsim::clock::{CoreClock, Cycle};
use nvsim::fastmap::FastMap;
use nvsim::memsys::{MemOp, MemorySystem};
use nvsim::stats::AccessCounters;
use nvsim::trace::{PackedEvent, PackedTrace};
use std::time::Instant;

/// One iteration in this many is timed (on average; the choice is random
/// so the sample cannot alias with the scheduler's core rotation).
pub const SAMPLE_EVERY: u64 = 16;

/// An iteration at least this long is slow: timed in every replay.
pub const SLOW_NS: u64 = 10_000;

/// `Runner::new()`'s inter-access gap. The fidelity check against the
/// untraced run fails if the runner's default ever changes.
const GAP: Cycle = 20;

/// Where a timed access was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// LLC slice, directory or cache-to-cache transfer.
    Llc,
    /// Fill from DRAM/NVM.
    Mem,
    /// Any access that stalled on persistence (epoch advance, tag walk,
    /// store-eviction, OMC backpressure), and explicit epoch marks.
    Persist,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [Class::L1, Class::L2, Class::Llc, Class::Mem, Class::Persist];

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Class::L1 => "l1",
            Class::L2 => "l2",
            Class::Llc => "llc",
            Class::Mem => "mem",
            Class::Persist => "persist",
        }
    }

    fn of(before: &AccessCounters, after: &AccessCounters, persist_stall: Cycle) -> Class {
        if persist_stall > 0 {
            Class::Persist
        } else if after.mem_fetches != before.mem_fetches {
            Class::Mem
        } else if after.llc_hits != before.llc_hits {
            Class::Llc
        } else if after.l2_hits != before.l2_hits {
            Class::L2
        } else if after.l1_hits != before.l1_hits {
            Class::L1
        } else {
            // Past the L2 without an LLC or memory count: the directory
            // supplied the line from another domain.
            Class::Llc
        }
    }
}

/// A memory system whose hierarchy counters can be read mid-run.
pub trait Layered: MemorySystem {
    /// The live access counters (`SystemStats.access` is only synced at
    /// `finish`).
    fn counters(&self) -> &AccessCounters;
}

impl Layered for NvOverlaySystem {
    fn counters(&self) -> &AccessCounters {
        self.hierarchy().counters()
    }
}

impl Layered for Picl {
    fn counters(&self) -> &AccessCounters {
        self.hierarchy().counters()
    }
}

/// Which iterations a traced replay times.
#[derive(Clone, Copy, Debug)]
pub enum Timing<'a> {
    /// Every iteration: the discovery replay.
    All,
    /// Every iteration listed in `always` (ascending), and a random 1 in
    /// [`SAMPLE_EVERY`] of the others, drawn by `seed`.
    Sampled {
        /// Seed of the draw.
        seed: u64,
        /// Iterations timed always.
        always: &'a [u64],
    },
}

/// The timed part of one stratum of iterations: those timed always, or
/// those drawn from.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Timed access nanoseconds per class ([`Class::ALL`] order).
    pub class_ns: [u64; 5],
    /// Timed accesses per class.
    pub class_n: [u64; 5],
    /// Timed scheduler nanoseconds.
    pub sched_ns: u64,
    /// Iterations in the stratum.
    pub iterations: u64,
    /// Of those, the timed ones.
    pub timed: u64,
}

impl Tally {
    /// How many iterations of the stratum each timed one stands for.
    fn scale(&self) -> f64 {
        self.iterations as f64 / self.timed.max(1) as f64
    }
}

/// What one traced replay measured.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// The iterations timed always.
    pub always: Tally,
    /// The iterations drawn from.
    pub drawn: Tally,
    /// Timed iterations at least [`SLOW_NS`] long, ascending.
    pub slow: Vec<u64>,
    /// All iterations (accesses plus epoch marks).
    pub iterations: u64,
    /// Accesses replayed.
    pub accesses: u64,
    /// Nanoseconds in `MemorySystem::finish` (the final drain).
    pub finish_ns: u64,
    /// Loop plus finish wall nanoseconds, less the timer's own cost.
    pub loop_ns: u64,
    /// Simulated wall-clock cycles (as `RunReport::cycles`).
    pub cycles: Cycle,
    /// Simulated persistence stall cycles (as `RunReport::stall_cycles`).
    pub stall_cycles: Cycle,
    /// Loads that disagreed with the golden model.
    pub load_value_mismatches: u64,
}

impl Split {
    /// The estimate, over the whole loop, of what `part` of a tally
    /// measured: each stratum's timed part scaled to all its iterations.
    fn total(&self, part: impl Fn(&Tally) -> u64) -> f64 {
        [&self.always, &self.drawn]
            .iter()
            .map(|t| part(t) as f64 * t.scale())
            .sum()
    }

    /// The loop time the timed parts account for: the scaled access and
    /// scheduler samples plus the final drain.
    fn attributed_ns(&self) -> f64 {
        let timed = self.total(|t| t.class_ns.iter().sum::<u64>() + t.sched_ns);
        (timed + self.finish_ns as f64).max(1.0)
    }

    /// Mean nanoseconds of one access of `class`, timed in isolation
    /// (0 when none was timed).
    pub fn class_mean_ns(&self, class: Class) -> f64 {
        let i = class as usize;
        let n = self.total(|t| t.class_n[i]);
        if n == 0.0 {
            0.0
        } else {
            self.total(|t| t.class_ns[i]) / n
        }
    }

    /// Share of the attributed loop time spent in `class` accesses.
    pub fn class_share(&self, class: Class) -> f64 {
        self.total(|t| t.class_ns[class as usize]) / self.attributed_ns()
    }

    /// Loop nanoseconds per access spent in the scheduler, by its share
    /// of the attributed time.
    pub fn sched_per_access_ns(&self) -> f64 {
        let share = self.total(|t| t.sched_ns) / self.attributed_ns();
        share * self.loop_ns as f64 / self.accesses.max(1) as f64
    }

    /// Attributed time over loop wall time. Below 1, part of the loop
    /// went unseen; above 1, iterations timed one by one cost more than
    /// their share of the pipelined loop (each clock read stalls the
    /// CPU's overlap of neighbouring iterations), so the shares above are
    /// normalised to the attributed total rather than to the wall time.
    pub fn attributed_frac(&self) -> f64 {
        self.attributed_ns() / self.loop_ns.max(1) as f64
    }
}

/// The cost of one `Instant::now()` read, as the median of many
/// back-to-back reads. An interval between two reads carries about one
/// read's cost, which the split subtracts.
pub fn timer_cost_ns() -> u64 {
    let mut d: Vec<u64> = (0..2_001)
        .map(|_| Instant::now())
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as u64)
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// xorshift64: the cheapest draw that keeps the sample unbiased.
#[inline]
fn draw(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Replays `trace` on `system` exactly as `Runner::new().run_packed`
/// does, timing the iterations `timing` selects.
pub fn replay<S: Layered>(
    system: &mut S,
    trace: &PackedTrace,
    timer_ns: u64,
    timing: Timing<'_>,
) -> Split {
    let (all, seed, always) = match timing {
        Timing::All => (true, 0, &[][..]),
        Timing::Sampled { seed, always } => (false, seed, always),
    };
    let n = trace.thread_count();
    let mut clocks: Vec<CoreClock> = (0..n).map(|_| CoreClock::new()).collect();
    let mut cursors = vec![0usize; n];
    let mut golden: FastMap<LineAddr, Token> =
        FastMap::with_capacity((trace.store_count() as usize).min(1 << 20));
    let streams: Vec<&[PackedEvent]> = (0..n).map(|i| trace.thread(ThreadId(i as u16))).collect();
    let mut wake: Vec<Cycle> = (0..n)
        .map(|i| if streams[i].is_empty() { Cycle::MAX } else { 0 })
        .collect();
    let mut split = Split::default();
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next_always = 0;
    let mut timer_reads = 0u64;
    let loop_t0 = Instant::now();

    loop {
        let iteration = split.iterations;
        let forced = all || always.get(next_always) == Some(&iteration);
        next_always += usize::from(forced && !all);
        let drawn = draw(&mut rng).is_multiple_of(SAMPLE_EVERY);
        // The counter snapshot is taken before t0 and the access is
        // classified after t3, so the timed intervals hold only the
        // replay's own work (plus the clock reads, subtracted below).
        let before = (forced || drawn).then(|| system.counters().clone());
        let t0 = before.as_ref().map(|_| Instant::now());
        let mut i = usize::MAX;
        let mut t = Cycle::MAX;
        for (c, &w) in wake.iter().enumerate() {
            if w < t {
                t = w;
                i = c;
            }
        }
        if i == usize::MAX {
            timer_reads += u64::from(t0.is_some());
            break;
        }
        let core = CoreId(i as u16);
        let events = streams[i];
        let e = events[cursors[i]];
        // (t1, t2, the access's persistence stall; `None` for a mark).
        let mut timed = None;
        if !e.is_mark() {
            let (op, addr, token) = (e.op(), e.addr(), e.token());
            let t1 = t0.map(|_| Instant::now());
            let out = system.access(core, op, addr, token, t);
            if let Some(t1) = t1 {
                timed = Some((t1, Instant::now(), Some(out.persist_stall)));
            }
            let lat = out.latency.max(1);
            clocks[i].advance(lat - out.persist_stall.min(lat));
            clocks[i].stall(out.persist_stall.min(lat));
            clocks[i].advance(GAP);
            match op {
                MemOp::Store => {
                    golden.insert(addr.line(), token);
                }
                MemOp::Load => {
                    let expect = golden.get(&addr.line()).copied().unwrap_or(0);
                    if out.value != expect {
                        split.load_value_mismatches += 1;
                    }
                }
            }
            split.accesses += 1;
        } else {
            let t1 = t0.map(|_| Instant::now());
            let stall = system.epoch_mark(core, t);
            if let Some(t1) = t1 {
                timed = Some((t1, Instant::now(), None));
            }
            clocks[i].stall(stall);
            clocks[i].advance(1);
        }
        cursors[i] += 1;
        wake[i] = if cursors[i] < events.len() {
            clocks[i].now()
        } else {
            Cycle::MAX
        };
        split.iterations += 1;
        let tally = if forced {
            &mut split.always
        } else {
            &mut split.drawn
        };
        tally.iterations += 1;
        if let (Some(before), Some(t0), Some((t1, t2, stall))) = (before, t0, timed) {
            let t3 = Instant::now();
            let class = stall.map_or(Class::Persist, |s| Class::of(&before, system.counters(), s));
            let ns = |a: Instant, b: Instant| ((b - a).as_nanos() as u64).saturating_sub(timer_ns);
            tally.class_ns[class as usize] += ns(t1, t2);
            tally.class_n[class as usize] += 1;
            tally.sched_ns += ns(t0, t1) + ns(t2, t3);
            tally.timed += 1;
            timer_reads += 4;
            if ns(t0, t3) >= SLOW_NS {
                split.slow.push(iteration);
            }
        }
    }

    split.cycles = clocks.iter().map(|c| c.now()).max().unwrap_or(0);
    let finish_t0 = Instant::now();
    system.finish(split.cycles);
    let end = Instant::now();
    split.finish_ns = (end - finish_t0).as_nanos() as u64;
    split.loop_ns =
        ((end - loop_t0).as_nanos() as u64).saturating_sub((timer_reads + 1) * timer_ns);
    split.stall_cycles = clocks.iter().map(|c| c.stall_cycles()).sum();
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::memsys::Runner;
    use nvsim::SimConfig;
    use nvworkloads::{generate, SuiteParams, Workload};
    use std::sync::Arc;

    #[test]
    fn traced_loop_reproduces_the_runner() {
        let cfg = Arc::new(
            SimConfig::builder()
                .epoch_size_stores(200)
                .build()
                .expect("valid"),
        );
        let p = SuiteParams {
            threads: 16,
            ops: 1_500,
            warmup_ops: 3_000,
            seed: 3,
        };
        let trace = generate(Workload::BTree, &p).to_packed();
        let mut plain = NvOverlaySystem::new_shared(Arc::clone(&cfg));
        let report = Runner::new().run_packed(&mut plain, &trace);
        let always = [0, 5, 17];
        for timing in [
            Timing::All,
            Timing::Sampled {
                seed: 1,
                always: &always,
            },
        ] {
            let mut traced = NvOverlaySystem::new_shared(Arc::clone(&cfg));
            let split = replay(&mut traced, &trace, timer_cost_ns(), timing);
            assert_eq!(split.cycles, report.cycles);
            assert_eq!(split.stall_cycles, report.stall_cycles);
            assert_eq!(split.accesses, report.accesses);
            assert_eq!(split.load_value_mismatches, 0);
            assert_eq!(traced.stats(), plain.stats());
            assert_eq!(traced.metrics().dump_tree(), plain.metrics().dump_tree());
            let (a, d) = (&split.always, &split.drawn);
            assert_eq!(a.iterations + d.iterations, split.iterations);
            assert_eq!(a.timed, a.iterations, "listed iterations are all timed");
            for t in [a, d] {
                assert_eq!(t.class_n.iter().sum::<u64>(), t.timed);
            }
            if let Timing::All = timing {
                assert_eq!(a.iterations, split.iterations);
            } else {
                assert_eq!(a.iterations, 3);
                assert!(d.timed > 0 && d.timed < d.iterations);
            }
        }
    }

    #[test]
    fn classification_prefers_the_deepest_level_and_persist() {
        let before = AccessCounters::default();
        let mut after = before.clone();
        after.l1_hits = 1;
        assert_eq!(Class::of(&before, &after, 0), Class::L1);
        after.mem_fetches = 1;
        assert_eq!(Class::of(&before, &after, 0), Class::Mem);
        assert_eq!(Class::of(&before, &after, 5), Class::Persist);
        assert_eq!(Class::of(&before, &before, 0), Class::Llc);
    }

    #[test]
    fn split_ratios_scale_each_stratum_to_its_iterations() {
        let s = Split {
            // One slow persist access, timed always.
            always: Tally {
                class_ns: [0, 0, 0, 0, 500],
                class_n: [0, 0, 0, 0, 1],
                sched_ns: 0,
                iterations: 1,
                timed: 1,
            },
            // 10 of 160 L1 hits drawn.
            drawn: Tally {
                class_ns: [100, 0, 0, 0, 0],
                class_n: [10, 0, 0, 0, 0],
                sched_ns: 50,
                iterations: 160,
                timed: 10,
            },
            iterations: 161,
            accesses: 161,
            finish_ns: 600,
            loop_ns: 3_500,
            ..Split::default()
        };
        // Attributed: 1600 (L1) + 500 (persist) + 800 (sched) + 600.
        assert_eq!(s.class_mean_ns(Class::L1), 10.0);
        assert_eq!(s.class_mean_ns(Class::Persist), 500.0);
        assert_eq!(s.class_mean_ns(Class::Mem), 0.0);
        assert!((s.class_share(Class::L1) - 1600.0 / 3500.0).abs() < 1e-12);
        assert!((s.class_share(Class::Persist) - 500.0 / 3500.0).abs() < 1e-12);
        assert!((s.sched_per_access_ns() - 800.0 / 161.0).abs() < 1e-12);
        assert!((s.attributed_frac() - 1.0).abs() < 1e-12);
    }
}
