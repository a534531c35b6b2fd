//! Mount and serve: `Mount::new`, the scripted concurrent load through
//! `server::serve`, and closed-loop point reads through
//! `EpochDirectory::resolve` + `Mnm::time_travel`.

use crate::run::{ms, Inputs, Recorder};
use crate::stats::percentile;
use crate::workload::THREADS;
use nvoverlay::recovery::recover_durable;
use nvserve::{driver, serve, LoadPlan, Mount, ServeConfig, ServeOutcome};
use nvsim::rng::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// Serving shards per OMC.
const SUBSHARDS: usize = 4;
/// Serve answers re-read through `Mnm::time_travel`.
const CHECKED_ANSWERS: usize = 256;
/// Traced: recovery runs, plans, serve calls and sampled table
/// materialisations.
const RECOVERIES: usize = 5;
const PLANS: usize = 3;
const TRACED_SERVES: usize = 3;
const MATERIALIZE_SAMPLES: usize = 512;

/// A mounted image with its scripted load, checked once against the
/// reference reader; every timed call must reproduce that reference.
pub struct Served<'a> {
    inp: &'a Inputs,
    mount: Mount<'a>,
    plan: LoadPlan,
    cfg: ServeConfig,
    digest: u64,
    answered: u64,
    servable: Vec<u64>,
}

/// Checks [`CHECKED_ANSWERS`] evenly spaced answers of `out` against the
/// reference reader. Every batch is servable (no probes, epochs drawn
/// from the servable set), so answers follow the plan's canonical order.
fn check_answers(rec: &mut Recorder, mount: &Mount<'_>, plan: &LoadPlan, out: &ServeOutcome) {
    let queries: Vec<_> = plan
        .sessions
        .iter()
        .flat_map(|s| &s.batches)
        .flat_map(|batch| batch.keys.iter().map(move |&k| (k, batch.epoch)))
        .collect();
    let complete =
        out.answers.len() == queries.len() && out.report.answered == queries.len() as u64;
    rec.check(0, complete, || {
        format!(
            "serve answered {} of {} planned queries",
            out.answers.len(),
            queries.len()
        )
    });
    if !complete {
        return;
    }
    let stride = (queries.len() / CHECKED_ANSWERS).max(1);
    let wrong = queries
        .iter()
        .zip(&out.answers)
        .step_by(stride)
        .filter(|((line, epoch), got)| mount.mnm().time_travel(*line, *epoch) != **got)
        .count();
    let checked = queries.len().div_ceil(stride) as u64;
    rec.check(checked, wrong == 0, || {
        format!("{wrong} of {checked} sampled serve answers differ from Mnm::time_travel")
    });
}

/// Mounts the image, scripts the workload's load, and serves it once with
/// one worker as the reference: its answers are checked against
/// `Mnm::time_travel`, and its digest is what every multi-worker call
/// must reproduce. `None` (with a failed check) when the image cannot be
/// mounted or has nothing to serve.
pub fn prepare<'a>(inp: &'a Inputs, rec: &mut Recorder) -> Option<Served<'a>> {
    let mount = Mount::new(inp.image.mnm(), SUBSHARDS);
    rec.check(1, mount.is_ok(), || format!("Mount::new failed: {mount:?}"));
    let mount = mount.ok()?;
    let reference_cfg = inp.workload.serve_config(inp.seed, 1);
    let t = Instant::now();
    let plan = driver::plan(&mount, &reference_cfg);
    rec.record("serve.plan_ms", ms(t.elapsed()));
    rec.check(1, plan.is_some(), || {
        "the mounted image has nothing to serve".to_string()
    });
    let plan = plan?;
    let reference = serve(&mount, &plan, &reference_cfg);
    check_answers(rec, &mount, &plan, &reference);
    let r = &reference.report;
    rec.record("serve.hit_rate", r.hit_rate());
    rec.record("serve.evictions", r.cache.evictions as f64);
    rec.record(
        "serve.lookups_per_query",
        r.fallthrough as f64 / r.answered.max(1) as f64,
    );
    let servable = mount.dir().servable();
    rec.record("serve.servable_epochs", servable.len() as f64);
    Some(Served {
        inp,
        cfg: inp.workload.serve_config(inp.seed, THREADS),
        digest: r.digest,
        answered: r.answered,
        mount,
        plan,
        servable,
    })
}

impl Served<'_> {
    /// One timed `Mount::new` over the same image.
    pub fn mount_once(&self, rec: &mut Recorder) {
        let t = Instant::now();
        let m = black_box(Mount::new(self.inp.image.mnm(), SUBSHARDS));
        rec.record("mount_ms", ms(t.elapsed()));
        rec.check(1, m.is_ok(), || format!("Mount::new failed: {m:?}"));
    }

    /// One timed `serve` call with [`THREADS`] workers; its digest must
    /// equal the one-worker reference's.
    pub fn serve_once(&self, rec: &mut Recorder) {
        let t = Instant::now();
        let out = serve(&self.mount, &self.plan, &self.cfg);
        let wall = t.elapsed().as_secs_f64();
        let same = out.report.digest == self.digest && out.report.answered == self.answered;
        rec.check(1, same, || {
            format!(
                "serve digest {:016x} with {THREADS} workers, {:016x} with 1",
                out.report.digest, self.digest
            )
        });
        rec.record("serve_qps", out.report.answered as f64 / wall);
        rec.record("serve.shard_phase_frac", out.wall_secs / wall);
    }

    /// One client's closed loop of `n` point-in-time reads, seeded by the
    /// run's seed and `batch`: each read resolves its epoch and walks the
    /// OMC tables before the next is sent. Records the loop's p50 and p99.
    pub fn point_reads(&self, rec: &mut Recorder, n: usize, batch: usize) {
        let (keys, servable) = (self.mount.keys(), &self.servable);
        if keys.is_empty() || servable.is_empty() {
            rec.check(1, false, || "no keys or epochs to read".to_string());
            return;
        }
        let mut rng = Rng64::seed_from_u64(self.inp.seed ^ 0x5449_4D45 ^ batch as u64);
        let mut lat = Vec::with_capacity(n);
        let mut rejected = 0u64;
        for _ in 0..n {
            let key = keys[rng.gen_range(0..keys.len())];
            let epoch = servable[rng.gen_range(0..servable.len())];
            let t = Instant::now();
            match self.mount.dir().resolve(epoch) {
                Ok(view) => {
                    black_box(self.mount.mnm().time_travel(key, view.epoch()));
                }
                Err(_) => rejected += 1,
            }
            lat.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        rec.check(n as u64, rejected == 0, || {
            format!("{rejected} point reads of servable epochs were rejected")
        });
        lat.sort_by(f64::total_cmp);
        for (metric, p) in [("time_travel_p50_us", 0.5), ("time_travel_p99_us", 0.99)] {
            if let Some(v) = percentile(&lat, p) {
                rec.record(metric, v);
            }
        }
    }

    /// The traced split: §V-E recovery (the bulk of a mount), plan
    /// building, the threaded shard phase of a serve call, and the cost of
    /// materialising one epoch table for one shard (a cache miss).
    pub fn layers(&self, rec: &mut Recorder) {
        for _ in 0..RECOVERIES {
            let t = Instant::now();
            let ok = black_box(recover_durable(self.inp.image.mnm())).is_ok();
            rec.record("serve.recover_ms", ms(t.elapsed()));
            rec.check(1, ok, || "§V-E recovery rejected the image".to_string());
        }
        for _ in 0..PLANS {
            let t = Instant::now();
            black_box(driver::plan(&self.mount, &self.cfg));
            rec.record("serve.plan_ms", ms(t.elapsed()));
        }
        for _ in 0..TRACED_SERVES {
            self.serve_once(rec);
        }
        let pairs: Vec<(u64, usize)> = self
            .servable
            .iter()
            .flat_map(|&e| (0..self.mount.shards()).map(move |s| (e, s)))
            .collect();
        let stride = (pairs.len() / MATERIALIZE_SAMPLES).max(1);
        let (mut ns, mut n) = (0u128, 0u32);
        for &(epoch, shard) in pairs.iter().step_by(stride) {
            let t = Instant::now();
            black_box(self.mount.materialize(epoch, shard));
            ns += t.elapsed().as_nanos();
            n += 1;
        }
        rec.record(
            "serve.materialize_us",
            ns as f64 / 1e3 / f64::from(n.max(1)),
        );
    }
}
