//! Replay: serial and sharded throughput (untraced rounds), the
//! per-layer split of NVOverlay and PiCL (traced), and the sharded stall
//! profile.

use crate::layers::{self, Class, Layered, Timing};
use crate::run::{Inputs, Recorder};
use crate::stats::Summary;
use crate::workload::THREADS;
use nvbaselines::{Picl, PiclLevel};
use nvbench::{
    run_ordered, run_scheme_sharded, run_scheme_sharded_prof, run_scheme_stats, ExpResult, Scheme,
};
use nvoverlay::system::NvOverlaySystem;
use nvsim::memsys::{MemorySystem, Runner};
use nvsim::stats::{EvictReason, SystemStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Ideal, the five baselines, then NVOverlay (last, so `SERIAL[6]`).
const SERIAL: [Scheme; 7] = [
    Scheme::Ideal,
    Scheme::SwLogging,
    Scheme::SwShadow,
    Scheme::HwShadow,
    Scheme::Picl,
    Scheme::PiclL2,
    Scheme::NvOverlay,
];

/// The schemes that replay island-sharded (HW Shadow cannot).
const SHARDED: [Scheme; 6] = [
    Scheme::Ideal,
    Scheme::SwLogging,
    Scheme::SwShadow,
    Scheme::Picl,
    Scheme::PiclL2,
    Scheme::NvOverlay,
];

/// Traced rounds taken even when the budget has run out.
const MIN_TRACED_ROUNDS: usize = 3;

/// Profiled sharded runs in a traced run.
const PROFILE_RUNS: usize = 3;

/// Fewest traced-loop seconds the per-layer split must explain.
pub const MIN_ATTRIBUTED: f64 = 0.95;

/// A replay's simulated outcome, compared across every repetition.
#[derive(Clone, Debug, PartialEq)]
struct Sim {
    cycles: u64,
    stall_cycles: u64,
    stats: SystemStats,
}

impl Sim {
    fn of(r: &ExpResult, stats: SystemStats) -> Sim {
        Sim {
            cycles: r.cycles,
            stall_cycles: r.stall_cycles,
            stats,
        }
    }
}

/// The outcomes every timed replay must reproduce exactly.
pub struct References {
    serial: Vec<Sim>,
    sharded: Vec<(ExpResult, SystemStats)>,
}

/// The check round: one `Runner::run_packed` pass per serial scheme (the
/// runner's load-value oracle must see no mismatch) and one 1-shard pass
/// per sharded scheme, on [`THREADS`] threads since none is timed. Also
/// records Fig 11's and Fig 12's ratios, which every later replay
/// reproduces.
pub fn references(inp: &Inputs, rec: &mut Recorder) -> References {
    eprintln!("nvbm: {}: check round", inp.workload.name());
    let (cfg, trace) = (&inp.cfg, &inp.trace);
    // NVOverlay, last, already ran: its pass built the image.
    let others = run_ordered(SERIAL.len() - 1, THREADS, |i| {
        let mut sys = SERIAL[i].build(cfg);
        let report = Runner::new().run_packed(&mut *sys, trace);
        (report, sys.stats().clone())
    });
    let nvo = (inp.image_report.clone(), inp.image.stats().clone());
    let accesses = trace.access_count();
    let serial: Vec<Sim> = SERIAL
        .iter()
        .zip(others.into_iter().chain([nvo]))
        .map(|(s, (report, stats))| {
            rec.check(
                1,
                report.load_value_mismatches == 0 && report.accesses == accesses,
                || {
                    format!(
                        "{s}: {} load-value mismatches over {} of {accesses} accesses",
                        report.load_value_mismatches, report.accesses
                    )
                },
            );
            Sim {
                cycles: report.cycles,
                stall_cycles: report.stall_cycles,
                stats,
            }
        })
        .collect();
    let sharded = run_ordered(SHARDED.len(), THREADS, |i| {
        let r = run_scheme_sharded(SHARDED[i], cfg, trace, 1);
        (r.result, r.stats)
    });
    let (ideal, picl, nvo) = (&serial[0], &serial[4], &serial[6]);
    rec.record(
        "sim_cycles_vs_ideal",
        nvo.cycles as f64 / ideal.cycles as f64,
    );
    rec.record(
        "sim_nvm_bytes_vs_picl",
        nvo.stats.nvm.total_bytes() as f64 / picl.stats.nvm.total_bytes() as f64,
    );
    References { serial, sharded }
}

/// One timed serial round: every serial scheme, each probed on its own
/// and each of which must reproduce its reference exactly.
pub fn serial(inp: &Inputs, rec: &mut Recorder, refs: &References, round: usize) {
    let maccess = inp.trace.access_count() as f64 / 1e6;
    let mut secs = [0f64; SERIAL.len()];
    let speeds = rec.probed_each(1, SERIAL.len(), |rec, i| {
        let s = SERIAL[i];
        let t = Instant::now();
        let (res, stats, _) = black_box(run_scheme_stats(s, &inp.cfg, &inp.trace));
        secs[i] = t.elapsed().as_secs_f64();
        let ok = Sim::of(&res, stats) == refs.serial[i];
        rec.check(1, ok, || {
            format!("{s}: round {round} differs from the runner's check pass")
        });
    });
    let base = &secs[..6];
    rec.record_at("replay_nvo_maccess_s", maccess / secs[6], speeds[6]);
    rec.record_at(
        "replay_base_maccess_s",
        6.0 * maccess / base.iter().sum::<f64>(),
        time_weighted(base, &speeds),
    );
}

/// One timed sharded round: every shardable scheme at [`THREADS`] shards,
/// each probed on its own and each of which must reproduce its 1-shard
/// reference exactly.
pub fn sharded(inp: &Inputs, rec: &mut Recorder, refs: &References, round: usize) {
    let maccess = inp.trace.access_count() as f64 / 1e6;
    let mut secs = [0f64; SHARDED.len()];
    let speeds = rec.probed_each(THREADS, SHARDED.len(), |rec, i| {
        let s = SHARDED[i];
        let t = Instant::now();
        let r = black_box(run_scheme_sharded(s, &inp.cfg, &inp.trace, THREADS));
        secs[i] = t.elapsed().as_secs_f64();
        let ok = (&r.result, &r.stats) == (&refs.sharded[i].0, &refs.sharded[i].1);
        rec.check(1, ok, || {
            format!("{s}: {THREADS}-shard round {round} differs from 1 shard")
        });
    });
    rec.record_at(
        "replay_sharded_maccess_s",
        SHARDED.len() as f64 * maccess / secs.iter().sum::<f64>(),
        time_weighted(&secs, &speeds),
    );
}

/// The host speed over replays that took `secs` at `speeds`: each
/// replay's speed weighted by its time, so the summed time restated at
/// the reference speed is the sum of the replays' restated times.
fn time_weighted(secs: &[f64], speeds: &[f64]) -> f64 {
    let restated: f64 = secs.iter().zip(speeds).map(|(t, s)| t * s).sum();
    restated / secs.iter().sum::<f64>()
}

/// The iterations of `build`'s replay that take at least
/// [`layers::SLOW_NS`], found by a replay that times every iteration.
fn slow_iterations<S: Layered>(
    inp: &Inputs,
    build: impl Fn(Arc<nvsim::SimConfig>) -> S,
    timer_ns: u64,
) -> Vec<u64> {
    let mut sys = build(Arc::clone(&inp.cfg));
    layers::replay(&mut sys, &inp.trace, timer_ns, Timing::All).slow
}

/// One traced replay of `scheme` (timing the iterations in `slow` and a
/// draw by `seed`) against its untraced twin; records the split under
/// `replay.<label>.*` and returns the traced and untraced seconds and the
/// split's attributed share.
fn traced_pair<S: Layered>(
    inp: &Inputs,
    rec: &mut Recorder,
    (label, scheme): (&str, Scheme),
    build: impl Fn(Arc<nvsim::SimConfig>) -> S,
    timer_ns: u64,
    (seed, slow): (u64, &[u64]),
) -> (f64, f64, f64) {
    let t = Instant::now();
    let (res, stats, reg) = run_scheme_stats(scheme, &inp.cfg, &inp.trace);
    let untraced = t.elapsed().as_secs_f64();

    // Timed like `run_scheme_stats`: build, replay, stats, metrics, drop.
    let t = Instant::now();
    let mut sys = build(Arc::clone(&inp.cfg));
    let timing = Timing::Sampled { seed, always: slow };
    let split = layers::replay(&mut sys, &inp.trace, timer_ns, timing);
    let (traced_stats, traced_reg) = (sys.stats().clone(), sys.metrics());
    drop(sys);
    let traced = t.elapsed().as_secs_f64();

    let same = split.cycles == res.cycles
        && split.stall_cycles == res.stall_cycles
        && split.load_value_mismatches == 0
        && traced_stats == stats
        && traced_reg.dump_tree() == reg.dump_tree();
    rec.check(1, same, || {
        format!("{scheme}: the traced loop diverged from the untraced replay")
    });
    for class in Class::ALL {
        let key = |part: &str| format!("replay.{label}.{}.{part}", class.name());
        rec.record(&key("ns"), split.class_mean_ns(class));
        rec.record(&key("share"), split.class_share(class));
    }
    let attributed = split.attributed_frac();
    rec.record(
        &format!("replay.{label}.sched_ns"),
        split.sched_per_access_ns(),
    );
    rec.record(
        &format!("replay.{label}.drain_ms"),
        split.finish_ns as f64 / 1e6,
    );
    rec.record(&format!("replay.{label}.attributed_frac"), attributed);
    if scheme == Scheme::NvOverlay {
        // Structural counts behind the sim_* ratios and NVOverlay's
        // persist path.
        let omc_versions: u64 = (0..)
            .map_while(|i| reg.counter(&format!("mnm.omc.{i}.versions_received")))
            .sum();
        rec.record("sim.nvo.nvm_bytes", stats.nvm.total_bytes() as f64);
        rec.record("sim.nvo.nvm_writes", stats.nvm.total_writes() as f64);
        rec.record("sim.nvo.epochs", stats.epochs_completed as f64);
        rec.record(
            "sim.nvo.store_evictions",
            stats.evictions.count(EvictReason::StoreEviction) as f64,
        );
        rec.record(
            "sim.nvo.tag_walk_evictions",
            stats.evictions.count(EvictReason::TagWalk) as f64,
        );
        rec.record("sim.nvo.omc_versions", omc_versions as f64);
    }
    (traced, untraced, attributed)
}

/// Traced replay of NVOverlay and PiCL, each next to its untraced twin,
/// until the budget is spent and at least [`MIN_TRACED_ROUNDS`] rounds
/// ran. A discovery replay of each first finds its slow iterations,
/// which every round times; every round draws other iterations besides.
/// Returns whether the median split of both explains at least
/// [`MIN_ATTRIBUTED`] of the loop.
pub fn traced(inp: &Inputs, rec: &mut Recorder) -> bool {
    eprintln!("nvbm: {}: traced replay", inp.workload.name());
    let timer_ns = layers::timer_cost_ns();
    let picl_build = |cfg| Picl::new_shared(cfg, PiclLevel::Llc);
    let nvo_slow = slow_iterations(inp, NvOverlaySystem::new_shared, timer_ns);
    let picl_slow = slow_iterations(inp, picl_build, timer_ns);
    let started = Instant::now();
    let (mut nvo, mut picl) = (Vec::new(), Vec::new());
    let mut round = 0u64;
    while nvo.len() < MIN_TRACED_ROUNDS || started.elapsed() < inp.budget {
        let (tn, un, an) = traced_pair(
            inp,
            rec,
            ("nvo", Scheme::NvOverlay),
            NvOverlaySystem::new_shared,
            timer_ns,
            (round, &nvo_slow),
        );
        let (tp, up, ap) = traced_pair(
            inp,
            rec,
            ("picl", Scheme::Picl),
            picl_build,
            timer_ns,
            (round, &picl_slow),
        );
        rec.record("replay.traced_overhead", (tn + tp) / (un + up) - 1.0);
        nvo.push(an);
        picl.push(ap);
        round += 1;
    }
    let valid = [nvo, picl]
        .iter()
        .all(|a| Summary::of(a).median >= MIN_ATTRIBUTED);
    if !valid {
        eprintln!(
            "nvbm: {}: the per-layer split explains less than {MIN_ATTRIBUTED} of the loop; \
             layer numbers are invalid",
            inp.workload.name()
        );
    }
    valid
}

/// NVOverlay's sharded stall profile: where the 2-shard replay's wall
/// time goes, plus the plan's structural counts.
pub fn sharded_profile(inp: &Inputs, rec: &mut Recorder) {
    let plain = run_scheme_sharded(Scheme::NvOverlay, &inp.cfg, &inp.trace, THREADS);
    for _ in 0..PROFILE_RUNS {
        let r = run_scheme_sharded_prof(Scheme::NvOverlay, &inp.cfg, &inp.trace, THREADS, true);
        let same = r.result == plain.result && r.stats == plain.stats;
        rec.check(1, same, || {
            "NVOverlay: the profiled sharded replay diverged from the unprofiled one".to_string()
        });
        let Some(p) = r.profile else {
            rec.check(0, false, || {
                "NVOverlay: the sharded replay returned no profile".to_string()
            });
            return;
        };
        let buckets = p.bucket_ns();
        let total = p.accountable_ns().max(1) as f64;
        for (name, ns) in [
            ("compute", buckets[0]),
            ("barrier_wait", buckets[1]),
            ("exchange_apply", buckets[2]),
            ("epoch_sync", buckets[3]),
            ("merge", buckets[5]),
        ] {
            rec.record(&format!("shard.nvo.{name}_frac"), ns as f64 / total);
        }
    }
    rec.record("shard.windows", plain.windows as f64);
    rec.record("shard.rendezvous_windows", plain.rendezvous_windows as f64);
    rec.record("shard.imported_lines", plain.imported_lines as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_aggregate_takes_the_speed_that_restates_its_summed_time() {
        // 1 s at full speed and 3 s at half speed restate to 1 + 1.5 s.
        let speed = time_weighted(&[1.0, 3.0], &[1.0, 0.5]);
        assert_eq!(4.0 * speed, 2.5);
    }
}
