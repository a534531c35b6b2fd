//! One workload's run: set-up, the measured phases, and the result.
//!
//! A run records every sample under its metric name, counts every
//! operation it issued against the correctness gate, and finally reports
//! the metrics `BENCHMARK.json` lists for its mode — the end-to-end list
//! untraced, the per-layer list traced.

use crate::probe::{normalise, Probe};
use crate::stats::Summary;
use crate::table::{num, obj, string, Table};
use crate::workload::{BenchWorkload, THREADS};
use crate::{replay, serve, store};
use nvoverlay::system::NvOverlaySystem;
use nvsim::json::JsonValue;
use nvsim::memsys::{RunReport, Runner};
use nvsim::trace::PackedTrace;
use nvsim::{ShardPlan, SimConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up rounds whose median is `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Untraced rounds taken even when the budget has run out. Two keep a
/// run on a host at half speed within about 40 seconds.
const MIN_ROUNDS: usize = 2;
/// `Mount::new` calls per untraced round, each followed by a batch of
/// closed-loop point reads; reads per batch (the p99 of 3,125 reads rests
/// on 31 reads beyond it).
const MOUNTS_PER_ROUND: usize = 4;
const READS_PER_BATCH: usize = 3_125;
/// Store rounds in a traced run.
const TRACED_STORE_ROUNDS: usize = 5;

/// The inputs every phase reads.
pub struct Inputs {
    /// The workload.
    pub workload: BenchWorkload,
    /// Its seed.
    pub seed: u64,
    /// How long the measured rounds run (after their minimum count).
    pub budget: Duration,
    /// The simulated machine.
    pub cfg: Arc<SimConfig>,
    /// The replayed trace.
    pub trace: PackedTrace,
    /// NVOverlay after one full replay and drain: the durable image serve
    /// and store work from.
    pub image: NvOverlaySystem,
    /// The run report of that replay.
    pub image_report: RunReport,
}

/// One recorded sample, with the host's speed (relative to the
/// reference host) while it was taken; 1 outside a probed phase.
#[derive(Clone, Copy, Debug)]
struct Sample {
    value: f64,
    speed: f64,
}

/// What the phases write: samples per metric, and the correctness gate —
/// operations attempted and failed, with the reason for each failure.
pub struct Recorder {
    samples: BTreeMap<String, Vec<Sample>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    scratch: PathBuf,
    /// The host-speed probe (untraced runs only).
    probe: Option<Probe>,
    /// While a probed phase runs: the samples it took, by metric and
    /// index.
    in_phase: Option<Vec<(String, usize)>>,
    /// The host speed of every probed phase.
    speeds: Vec<f64>,
}

impl Recorder {
    fn new(scratch: PathBuf, probe: Option<Probe>) -> Recorder {
        Recorder {
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            scratch,
            probe,
            in_phase: None,
            speeds: Vec::new(),
        }
    }

    /// Records one sample of `metric`; inside a probed phase it takes the
    /// phase's host speed.
    pub fn record(&mut self, metric: &str, value: f64) {
        let list = self.samples.entry(metric.to_string()).or_default();
        if let Some(taken) = &mut self.in_phase {
            taken.push((metric.to_string(), list.len()));
        }
        list.push(Sample { value, speed: 1.0 });
    }

    /// Records one sample of `metric` taken while the host ran at `speed`
    /// times the reference speed.
    pub fn record_at(&mut self, metric: &str, value: f64, speed: f64) {
        let list = self.samples.entry(metric.to_string()).or_default();
        list.push(Sample { value, speed });
    }

    /// Runs `n` phases back to back, each using `threads` threads, with a
    /// probe sample on as many threads before the first and after each
    /// one; stamps every sample phase `i` records with the host speed the
    /// probes on either side of it saw, and returns those speeds. Without
    /// a probe (a traced run) it only runs the phases, at speed 1.
    pub fn probed_each(
        &mut self,
        threads: usize,
        n: usize,
        mut phase: impl FnMut(&mut Recorder, usize),
    ) -> Vec<f64> {
        let Some(mut probe) = self.probe.take() else {
            (0..n).for_each(|i| phase(self, i));
            return vec![1.0; n];
        };
        let mut before = probe.sample(threads);
        let mut speeds = Vec::with_capacity(n);
        for i in 0..n {
            self.in_phase = Some(Vec::new());
            phase(self, i);
            let taken = self.in_phase.take().unwrap_or_default();
            let after = probe.sample(threads);
            // The harmonic mean: the speed at which both probes' work
            // would have taken their summed time.
            let speed = 2.0 / (1.0 / before + 1.0 / after);
            for (metric, j) in taken {
                if let Some(s) = self.samples.get_mut(&metric).and_then(|l| l.get_mut(j)) {
                    s.speed = speed;
                }
            }
            speeds.push(speed);
            before = after;
        }
        self.speeds.extend(&speeds);
        self.probe = Some(probe);
        speeds
    }

    /// [`Recorder::probed_each`] for one phase.
    pub fn probed(&mut self, threads: usize, phase: impl FnOnce(&mut Recorder)) {
        let mut phase = Some(phase);
        self.probed_each(threads, 1, |rec, _| {
            if let Some(f) = phase.take() {
                f(rec);
            }
        });
    }

    /// Counts `ops` operations; when `ok` is false all of them failed,
    /// for the reason `why` gives.
    pub fn check(&mut self, ops: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            let msg = why();
            eprintln!("nvbm: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// An empty directory named `name` under the run's scratch root.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Where a run keeps its on-disk stores: next to the build output, so it
/// stays inside the checkout the benchmark was built in.
fn scratch_root(workload: BenchWorkload) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    target
        .join("nvbm-scratch")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Builds the workload's inputs [`SETUP_ROUNDS`] times — generate, pack,
/// plan, and the NVOverlay image serve and store need — and keeps the
/// last round's. Each round's time is a `setup_s` sample.
pub fn setup(workload: BenchWorkload, seed: u64, budget: Duration, rec: &mut Recorder) -> Inputs {
    let cfg = Arc::new(workload.sim_config());
    let mut last = None;
    rec.probed_each(1, SETUP_ROUNDS, |rec, _| {
        // Free the previous round's inputs before building the next.
        drop(last.take());
        let t0 = Instant::now();
        let raw = workload.generate(seed);
        let t1 = Instant::now();
        let trace = raw.to_packed();
        let t2 = Instant::now();
        let plan = ShardPlan::new(&trace, &cfg);
        let t3 = Instant::now();
        let mut image = NvOverlaySystem::new_shared(Arc::clone(&cfg));
        let report = Runner::new().run_packed(&mut image, &trace);
        let t4 = Instant::now();
        rec.record("setup_s", (t4 - t0).as_secs_f64());
        rec.record("setup.gen_ms", ms(t1 - t0));
        rec.record("setup.pack_ms", ms(t2 - t1));
        rec.record("setup.plan_ms", ms(t3 - t2));
        drop((raw, plan));
        last = Some((trace, image, report));
    });
    let (trace, image, image_report) = last.expect("at least one set-up round");
    rec.record("trace.accesses", trace.access_count() as f64);
    rec.record(
        "trace.store_frac",
        trace.store_count() as f64 / trace.access_count() as f64,
    );
    // Warm the plan memo the sharded replays fetch from.
    let _ = ShardPlan::cached(&trace, &cfg);
    Inputs {
        workload,
        seed,
        budget,
        cfg,
        trace,
        image,
        image_report,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The host's parallelism and CPU model, recorded with every result.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What one run produced.
pub struct Outcome {
    /// The workload's detail record: every metric's summary, the gate,
    /// and the host.
    pub detail: JsonValue,
    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub result: JsonValue,
    /// Whether every check passed and every metric was measured.
    pub correct: bool,
}

/// Runs one workload end to end (untraced) or layer by layer (traced).
pub fn run(workload: BenchWorkload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mode = if traced { "traced" } else { "untraced" };
    eprintln!("nvbm: {} seed {seed} ({mode}): set-up", workload.name());
    let probe = (!traced).then(Probe::new);
    let mut rec = Recorder::new(scratch_root(workload), probe);
    let budget = Duration::from_secs(seconds);
    let inp = setup(workload, seed, budget, &mut rec);
    let layers_valid = if traced {
        layer_split(&inp, &mut rec)
    } else {
        end_to_end(&inp, &mut rec);
        true
    };
    if let Some(mib) = peak_rss_mib() {
        rec.record("peak_rss_mb", mib);
    }
    finish(workload, seed, &mut rec, traced, layers_valid)
}

/// The untraced run: after the check round, rounds that each take a
/// share of every phase — serial replays, sharded replays, one serve
/// call, mounts and point reads, backups and restores — until the budget
/// is spent and at least [`MIN_ROUNDS`] ran. The host has slow spells
/// from milliseconds to minutes long: spreading every metric's samples
/// over the whole run keeps a spell from landing on one metric only, and
/// probing around each phase restates its samples at the reference speed.
fn end_to_end(inp: &Inputs, rec: &mut Recorder) {
    let refs = replay::references(inp, rec);
    let served = serve::prepare(inp, rec);
    let backups = store::prepare(inp, rec);
    eprintln!("nvbm: {}: measuring", inp.workload.name());
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < inp.budget {
        replay::serial(inp, rec, &refs, round);
        replay::sharded(inp, rec, &refs, round);
        if let Some(s) = &served {
            rec.probed(THREADS, |rec| s.serve_once(rec));
            rec.probed(1, |rec| {
                for batch in 0..MOUNTS_PER_ROUND {
                    s.mount_once(rec);
                    s.point_reads(rec, READS_PER_BATCH, round * MOUNTS_PER_ROUND + batch);
                }
            });
        }
        if let Some(b) = &backups {
            rec.probed(1, |rec| b.round(rec));
        }
        round += 1;
    }
}

/// The traced run: the replay split of NVOverlay and PiCL, the sharded
/// profile, the serve split and the store split. Returns whether the
/// replay split explains enough of its loop to be trusted.
fn layer_split(inp: &Inputs, rec: &mut Recorder) -> bool {
    let valid = replay::traced(inp, rec);
    replay::sharded_profile(inp, rec);
    if let Some(s) = serve::prepare(inp, rec) {
        s.layers(rec);
    }
    if let Some(b) = store::prepare(inp, rec) {
        for _ in 0..TRACED_STORE_ROUNDS {
            b.round(rec);
        }
    }
    valid
}

/// Summarises every metric of the mode's table into the detail record
/// and the result line; a metric without a finite sample fails the run.
/// Host-timed samples of a probed phase are reported at the reference
/// host speed (see [`crate::probe`]); the detail record keeps each raw
/// median and the host speeds the probes saw.
fn finish(
    workload: BenchWorkload,
    seed: u64,
    rec: &mut Recorder,
    traced: bool,
    layers_valid: bool,
) -> Outcome {
    let table = Table::builtin();
    let mut summaries = Vec::new();
    for def in table.metrics(traced) {
        let summary = rec
            .samples
            .get(&def.name)
            .map(|samples| {
                let scaled: Vec<f64> = samples
                    .iter()
                    .map(|s| normalise(s.value, &def.unit, s.speed))
                    .collect();
                let raw: Vec<f64> = samples.iter().map(|s| s.value).collect();
                (Summary::of(&scaled), Summary::of(&raw).median)
            })
            .filter(|(s, _)| s.median.is_finite());
        rec.check(0, summary.is_some(), || {
            format!("metric {} was not measured", def.name)
        });
        if let Some((s, raw_median)) = summary {
            summaries.push((def, s, raw_median));
        }
    }
    let correct = rec.failures.is_empty();
    let (nproc, cpu) = host();
    let speeds = match rec.speeds.as_slice() {
        [] => JsonValue::Null,
        all => {
            let s = Summary::of(all);
            obj([
                ("median", num(s.median)),
                ("min", num(s.min)),
                ("max", num(s.max)),
                ("n", num(s.n as f64)),
            ])
        }
    };
    let metric_detail = summaries.iter().map(|(def, s, raw_median)| {
        (
            def.name.clone(),
            obj([
                ("unit", string(&def.unit)),
                ("median", num(s.median)),
                ("q1", num(s.q1)),
                ("q3", num(s.q3)),
                ("min", num(s.min)),
                ("max", num(s.max)),
                ("n", num(s.n as f64)),
                ("raw_median", num(*raw_median)),
            ]),
        )
    });
    let detail = obj([
        ("workload", string(workload.name())),
        ("seed", num(seed as f64)),
        ("traced", JsonValue::Bool(traced)),
        ("nproc", num(nproc as f64)),
        ("cpu", string(cpu)),
        ("threads_max", num(THREADS as f64)),
        ("correct", JsonValue::Bool(correct)),
        ("layers_valid", JsonValue::Bool(layers_valid)),
        ("attempted", num(rec.attempted as f64)),
        ("failed", num(rec.failed as f64)),
        (
            "failures",
            JsonValue::Array(rec.failures.iter().map(string).collect()),
        ),
        ("host_speed", speeds),
        ("metrics", obj(metric_detail)),
    ]);
    let result = obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(rec.attempted.max(1) as f64)),
        ("failed", num(rec.failed as f64)),
        (
            "metrics",
            obj(summaries.iter().map(|(def, s, _)| {
                (
                    def.name.clone(),
                    obj([("value", num(s.median)), ("unit", string(&def.unit))]),
                )
            })),
        ),
    ]);
    Outcome {
        detail,
        result,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_failed_operations_with_reasons() {
        let mut rec = Recorder::new(PathBuf::new(), None);
        rec.check(10, true, || unreachable!("passing checks format nothing"));
        rec.check(3, false, || "three broke".to_string());
        assert_eq!((rec.attempted, rec.failed), (13, 3));
        assert_eq!(rec.failures, ["three broke"]);
    }

    fn recorded(traced: bool, skip: Option<&str>) -> Outcome {
        let mut rec = Recorder::new(PathBuf::new(), None);
        rec.check(7, true, String::new);
        for (i, def) in Table::builtin().metrics(traced).iter().enumerate() {
            if Some(def.name.as_str()) != skip {
                for v in [1.0, 2.0, 4.0] {
                    rec.record(&def.name, v * (i + 1) as f64);
                }
            }
        }
        finish(BenchWorkload::KmeansL1, 9, &mut rec, traced, true)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_parses() {
        for traced in [false, true] {
            let out = recorded(traced, None);
            assert!(out.correct);
            let line = crate::table::to_json(&out.result);
            let parsed = nvsim::json::parse(&line).expect("result line parses");
            let JsonValue::Object(pairs) = &parsed else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("attempted").and_then(JsonValue::as_u64), Some(7));
            let metrics = parsed.get("metrics").expect("metrics");
            let defs = Table::builtin();
            let defs = defs.metrics(traced);
            let JsonValue::Object(m) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(m.len(), defs.len());
            let first = metrics.get(&defs[0].name).expect("first metric");
            assert_eq!(first.get("value").and_then(JsonValue::as_f64), Some(2.0));
            assert_eq!(
                first.get("unit").and_then(JsonValue::as_str),
                Some(defs[0].unit.as_str())
            );
        }
    }

    #[test]
    fn detail_record_summarises_every_metric_and_parses() {
        let out = recorded(false, None);
        let text = crate::table::to_json(&out.detail);
        let d = nvsim::json::parse(&text).expect("detail parses");
        assert_eq!(
            d.get("workload").and_then(JsonValue::as_str),
            Some("kmeans-l1")
        );
        let s = d
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s summary");
        for (k, v) in [("median", 2.0), ("q1", 1.0), ("q3", 4.0), ("n", 3.0)] {
            assert_eq!(s.get(k).and_then(JsonValue::as_f64), Some(v), "{k}");
        }
    }

    #[test]
    fn a_probed_phase_stamps_only_its_own_samples() {
        let mut rec = Recorder::new(PathBuf::new(), Some(Probe::new()));
        rec.record("outside", 1.0);
        rec.probed(2, |rec| rec.record("inside", 1.0));
        let speed = |m: &str| rec.samples[m][0].speed;
        assert_eq!(speed("outside"), 1.0);
        assert!(speed("inside") > 0.0 && speed("inside").is_finite());
        assert_eq!(rec.speeds, [speed("inside")]);
        let mut traced = Recorder::new(PathBuf::new(), None);
        traced.probed(1, |rec| rec.record("inside", 1.0));
        assert_eq!(traced.samples["inside"][0].speed, 1.0);
        assert!(traced.speeds.is_empty());
    }

    #[test]
    fn probed_host_times_are_restated_at_the_reference_speed() {
        let mut rec = Recorder::new(PathBuf::new(), None);
        for def in &Table::builtin().end_to_end {
            rec.record(&def.name, 10.0);
        }
        // Every sample was taken while the host ran at half the
        // reference speed.
        for s in rec.samples.values_mut().flatten() {
            s.speed = 0.5;
        }
        let out = finish(BenchWorkload::KmeansL1, 1, &mut rec, false, true);
        let field = |doc: &JsonValue, metric: &str, key: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get(key))
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(field(&out.result, "mount_ms", "value"), Some(5.0));
        assert_eq!(field(&out.result, "serve_qps", "value"), Some(20.0));
        assert_eq!(field(&out.result, "peak_rss_mb", "value"), Some(10.0));
        assert_eq!(field(&out.detail, "mount_ms", "raw_median"), Some(10.0));
    }

    #[test]
    fn a_metric_left_unmeasured_makes_the_run_incorrect() {
        let out = recorded(false, Some("serve_qps"));
        assert!(!out.correct);
        assert_eq!(
            out.result.get("correct").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
}
