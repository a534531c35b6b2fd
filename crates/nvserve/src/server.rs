//! The concurrent serve engine.
//!
//! Queries are planned up front ([`crate::driver::plan`]), validated once
//! per batch against the [`crate::view::EpochDirectory`], and flattened
//! into per-shard queues in canonical `(session, batch, key)` order. The
//! shard count is fixed by the mount (`omc_count × subshards`) and is
//! **independent of the worker count**: worker `w` of `W` processes
//! shards `w, w+W, w+2W, …`, each shard serially in queue order. Results
//! are merged in ascending shard order, so answers, counters, and the
//! report digest are byte-identical for 1, 2, 4, or 8 workers — only
//! wall-clock time changes.
//!
//! A query `GET key AS OF epoch E` answers exactly like
//! `Mnm::time_travel`: the version found by falling through the retained
//! epoch tables from `E` downward (reclaimed epochs are skipped), or
//! `None` when the line has no version at or before `E`. Each shard reads
//! it in one lookup of its OMC's per-line version index
//! ([`nvoverlay::mnm::Omc::version_at`]) and the retained page data;
//! nothing is copied or cached.

use crate::driver::{EpochSelect, LoadPlan};
use crate::report::{CacheStats, ServeReport, ShardReport};
use crate::view::Mount;
use nvoverlay::QueryError;
use nvsim::{LineAddr, Token};

/// Tuning for one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent client sessions to script.
    pub sessions: usize,
    /// Batches per session.
    pub batches: usize,
    /// Keys per batch.
    pub batch: usize,
    /// Worker threads (clamped to the shard count; must not change any
    /// output other than wall-clock time).
    pub workers: usize,
    /// Ignored: shards read the retained epoch tables directly and cache
    /// nothing. Kept for callers that still set it.
    pub cache_cap: usize,
    /// Serving shards per OMC.
    pub subshards: usize,
    /// Load-plan seed.
    pub seed: u64,
    /// Zipfian skew for key draws.
    pub theta: f64,
    /// Which epochs batches may target.
    pub epochs: EpochSelect,
    /// Whether to script deliberate bad-epoch probe batches.
    pub error_probes: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sessions: 8,
            batches: 16,
            batch: 32,
            workers: 1,
            cache_cap: 128,
            subshards: 4,
            seed: 0x5345_5256_4531, // "SERVE1"
            theta: 0.99,
            epochs: EpochSelect::All,
            error_probes: true,
        }
    }
}

/// A single flattened query bound for one shard.
#[derive(Debug, Clone, Copy)]
struct Query {
    line: LineAddr,
    epoch: u64,
}

/// What one shard produced: answers in its queue order, plus the
/// directory epochs its queries fell through (see [`run_shard`]).
struct ShardOut {
    answers: Vec<Option<Token>>,
    fallthrough: u64,
}

/// Stable label for a [`QueryError`] kind (report key and CLI output).
pub fn error_kind(e: &QueryError) -> &'static str {
    match e {
        QueryError::EpochZero => "epoch_zero",
        QueryError::NotYetRecoverable { .. } => "not_yet_recoverable",
        QueryError::NotRetained { .. } => "not_retained",
        QueryError::Wrapped { .. } => "wrapped",
    }
}

/// All error kinds in report order.
pub const ERROR_KINDS: [&str; 4] = [
    "epoch_zero",
    "not_yet_recoverable",
    "not_retained",
    "wrapped",
];

/// The outcome of a serve run: the deterministic report plus wall time.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Deterministic results — identical across worker counts.
    pub report: ServeReport,
    /// Every accepted query's answer in canonical `(session, batch,
    /// key)` order (rejected batches contribute nothing). Deterministic;
    /// the differential suite checks each entry against the reference
    /// time-travel reader and the trace oracle.
    pub answers: Vec<Option<Token>>,
    /// Wall-clock seconds for the threaded phase (never in the report).
    pub wall_secs: f64,
}

impl ServeOutcome {
    /// Answered queries per wall-clock second (0 when instantaneous).
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.answered as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// FNV-1a 64-bit fold of one word into `h`.
#[inline]
fn fnv(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the scripted load against the mount.
///
/// Validation, flattening, and the digest all walk the plan in canonical
/// `(session, batch, key)` order; only the shard execution in between is
/// threaded.
pub fn serve(mount: &Mount<'_>, plan: &LoadPlan, cfg: &ServeConfig) -> ServeOutcome {
    let shard_count = mount.shards();
    // 1. Validate each batch once; flatten accepted queries to shards.
    let mut queues: Vec<Vec<Query>> = vec![Vec::new(); shard_count];
    let mut errors = [0u64; ERROR_KINDS.len()];
    let mut batch_ok: Vec<Vec<bool>> = Vec::with_capacity(plan.sessions.len());
    let mut enqueued = 0u64;
    for session in &plan.sessions {
        let mut ok_row = Vec::with_capacity(session.batches.len());
        for batch in &session.batches {
            match mount.dir().resolve(batch.epoch) {
                Ok(view) => {
                    ok_row.push(true);
                    for &line in &batch.keys {
                        queues[mount.shard_of(line)].push(Query {
                            line,
                            epoch: view.epoch(),
                        });
                        enqueued += 1;
                    }
                }
                Err(e) => {
                    ok_row.push(false);
                    let kind = error_kind(&e);
                    let ix = ERROR_KINDS.iter().position(|k| *k == kind).unwrap();
                    errors[ix] += 1;
                }
            }
        }
        batch_ok.push(ok_row);
    }

    // 2. Execute shards across workers (shard count fixed; worker count
    //    only changes which thread runs which shard).
    let workers = cfg.workers.max(1).min(shard_count.max(1));
    let mut outs: Vec<Option<ShardOut>> = Vec::new();
    outs.resize_with(shard_count, || None);
    let started = std::time::Instant::now();
    if workers <= 1 {
        for (ix, queue) in queues.iter().enumerate() {
            outs[ix] = Some(run_shard(mount, ix, queue));
        }
    } else {
        let queues_ref = &queues;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        let mut ix = w;
                        while ix < shard_count {
                            mine.push((ix, run_shard(mount, ix, &queues_ref[ix])));
                            ix += workers;
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (ix, out) in h.join().expect("serve worker panicked") {
                    outs[ix] = Some(out);
                }
            }
        });
    }
    let wall_secs = started.elapsed().as_secs_f64();

    // 3. Reassemble in canonical order: digest + aggregate counters.
    let mut cursors = vec![0usize; shard_count];
    let mut digest = FNV_OFFSET;
    let mut answered = 0u64;
    let mut answers_some = 0u64;
    let mut answers_none = 0u64;
    let mut answers = Vec::with_capacity(enqueued as usize);
    for (s, session) in plan.sessions.iter().enumerate() {
        for (b, batch) in session.batches.iter().enumerate() {
            digest = fnv(digest, s as u64);
            digest = fnv(digest, b as u64);
            digest = fnv(digest, batch.epoch);
            if !batch_ok[s][b] {
                digest = fnv(digest, u64::MAX);
                continue;
            }
            for &line in &batch.keys {
                let shard = mount.shard_of(line);
                let out = outs[shard].as_ref().expect("shard ran");
                let ans = out.answers[cursors[shard]];
                cursors[shard] += 1;
                answers.push(ans);
                answered += 1;
                digest = fnv(digest, line.raw());
                match ans {
                    Some(tok) => {
                        answers_some += 1;
                        digest = fnv(digest, 1 + tok);
                    }
                    None => {
                        answers_none += 1;
                        digest = fnv(digest, 0);
                    }
                }
            }
        }
    }

    let mut fallthrough = 0u64;
    let mut per_shard = Vec::with_capacity(shard_count);
    for (ix, out) in outs.iter().enumerate() {
        let out = out.as_ref().expect("shard ran");
        fallthrough += out.fallthrough;
        per_shard.push(ShardReport {
            shard: ix,
            queries: out.answers.len() as u64,
            fallthrough: out.fallthrough,
        });
    }

    let dir = mount.dir();
    let report = ServeReport {
        sessions: plan.sessions.len(),
        batches_per_session: plan.sessions.first().map_or(0, |s| s.batches.len()),
        batch: cfg.batch,
        shards: shard_count,
        subshards: mount.subshards(),
        seed: cfg.seed,
        epoch_select: cfg.epochs.to_string(),
        rec_epoch: dir.recoverable(),
        max_epoch_seen: dir.max_seen(),
        lag: dir.lag(),
        image_epoch: mount.image_epoch(),
        image_lines: mount.keys().len() as u64,
        epochs_listed: dir.epochs().len() as u64,
        epochs_servable: dir.servable().len() as u64,
        enqueued,
        probes: plan.probes as u64,
        errors: ERROR_KINDS
            .iter()
            .zip(errors.iter())
            .map(|(k, &v)| ((*k).to_string(), v))
            .collect(),
        answered,
        answers_some,
        answers_none,
        cache: CacheStats::default(),
        fallthrough,
        digest,
        per_shard,
    };
    ServeOutcome {
        report,
        answers,
        wall_secs,
    }
}

/// Serves one shard's queue serially through its OMC's per-line version
/// index ([`nvoverlay::mnm::Omc::version_at`]).
///
/// `fallthrough` counts, per query, the directory epochs from `E` down
/// to the answering one (all of `dir().through(E)` when there is no
/// answer): the epochs a fall-through walk over the retained tables
/// would visit. It is computed from the answering epoch's directory
/// position, not by walking.
fn run_shard(mount: &Mount<'_>, shard: usize, queue: &[Query]) -> ShardOut {
    let omc = &mount.mnm().omcs()[shard / mount.subshards()];
    let mut answers = Vec::with_capacity(queue.len());
    let mut fallthrough = 0u64;
    for q in queue {
        let visible = mount.dir().through(q.epoch);
        let ans = omc.version_at(q.line, q.epoch);
        let below = ans.map_or(0, |(e, _)| visible.partition_point(|&(x, _)| x < e));
        fallthrough += (visible.len() - below) as u64;
        answers.push(ans.map(|(_, token)| token));
    }
    ShardOut {
        answers,
        fallthrough,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver;
    use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
    use nvsim::nvm::Nvm;

    fn built(epochs: u64, lines: u64) -> Mnm {
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 256,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        for e in 1..=epochs {
            for l in 0..lines {
                // Each epoch rewrites a sliding half of the lines.
                if (l + e) % 2 == 0 || e == 1 {
                    m.receive_version(&mut n, 0, LineAddr::new(l), 1000 * e + l, e);
                }
            }
        }
        m.finish(&mut n, 0, epochs);
        m
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            sessions: 4,
            batches: 6,
            batch: 8,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn answers_match_time_travel() {
        let m = built(5, 40);
        let mount = Mount::new(&m, 4).unwrap();
        let cfg = cfg();
        let plan = driver::plan(&mount, &cfg).unwrap();
        let out = serve(&mount, &plan, &cfg);
        assert!(out.report.answered > 0);
        // Re-walk the plan and check every accepted query against the
        // reference reader.
        for session in &plan.sessions {
            for batch in &session.batches {
                if mount.dir().resolve(batch.epoch).is_err() {
                    continue;
                }
                for &line in &batch.keys {
                    let want = m.time_travel(line, batch.epoch);
                    // Redundant single query through a fresh shard run:
                    let shard = mount.shard_of(line);
                    let query = [Query {
                        line,
                        epoch: batch.epoch,
                    }];
                    let got = run_shard(&mount, shard, &query);
                    assert_eq!(got.answers[0], want, "line {line:?} @ {}", batch.epoch);
                    let walked = walk_shard(&mount, shard, &query);
                    assert_eq!((got.answers, got.fallthrough), walked);
                }
            }
        }
    }

    #[test]
    fn report_is_identical_across_worker_counts() {
        let m = built(6, 64);
        let mount = Mount::new(&m, 4).unwrap();
        let base = cfg();
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let cfg = ServeConfig {
                workers,
                ..base.clone()
            };
            let plan = driver::plan(&mount, &cfg).unwrap();
            let out = serve(&mount, &plan, &cfg);
            reports.push(out.report.to_json("unit", "unit"));
        }
        for r in &reports[1..] {
            assert_eq!(r, &reports[0]);
        }
    }

    #[test]
    fn probe_batches_surface_typed_errors() {
        let m = built(4, 32);
        let mount = Mount::new(&m, 2).unwrap();
        let cfg = ServeConfig {
            sessions: 8,
            batches: 13,
            batch: 4,
            ..ServeConfig::default()
        };
        let plan = driver::plan(&mount, &cfg).unwrap();
        assert!(plan.probes > 0);
        let out = serve(&mount, &plan, &cfg);
        let rejected: u64 = out.report.errors.iter().map(|(_, v)| v).sum();
        assert_eq!(rejected, plan.probes as u64);
        // Probes target epoch 0 and epochs past the recoverable head.
        let zero = out.report.errors.iter().find(|(k, _)| k == "epoch_zero");
        let ahead = out
            .report
            .errors
            .iter()
            .find(|(k, _)| k == "not_yet_recoverable");
        assert!(zero.map_or(0, |(_, v)| *v) + ahead.map_or(0, |(_, v)| *v) == rejected);
    }

    #[test]
    fn latest_only_load_walks_from_the_head() {
        let m = built(8, 64);
        let mount = Mount::new(&m, 2).unwrap();
        let cfg = ServeConfig {
            epochs: EpochSelect::Latest,
            error_probes: false,
            ..cfg()
        };
        let plan = driver::plan(&mount, &cfg).unwrap();
        let out = serve(&mount, &plan, &cfg);
        assert_eq!(out.report.answered, out.report.enqueued);
        // Every walk probes at least the head table; nothing is cached.
        assert!(out.report.fallthrough >= out.report.answered);
        assert_eq!(out.report.cache, CacheStats::default());
        assert_eq!(out.report.hit_rate(), 1.0);
    }

    /// The fall-through walk shards made before the per-line version
    /// index, kept as the reference for [`run_shard`]: one
    /// `epoch_reader` per directory epoch on the shard's OMC, scanned
    /// backwards from each query's epoch. Returns the answers and the
    /// directory epochs visited.
    fn walk_shard(mount: &Mount<'_>, shard: usize, queue: &[Query]) -> (Vec<Option<Token>>, u64) {
        let omc = &mount.mnm().omcs()[shard / mount.subshards()];
        let readers: Vec<_> = mount
            .dir()
            .epochs()
            .iter()
            .map(|&(e, _)| omc.epoch_reader(e))
            .collect();
        let mut answers = Vec::with_capacity(queue.len());
        let mut visited = 0u64;
        for q in queue {
            let visible = &readers[..mount.dir().through(q.epoch).len()];
            let mut ans = None;
            for r in visible.iter().rev() {
                visited += 1;
                if let Some(tok) = r.and_then(|r| r.get(q.line)) {
                    ans = Some(tok);
                    break;
                }
            }
            answers.push(ans);
        }
        (answers, visited)
    }

    /// Serves every line at every epoch up to the newest one seen (one
    /// `run_shard` call per shard) and checks, per OMC and epoch, that the
    /// served answer and `fallthrough` equal the reference walk's, that
    /// the answer equals `Mnm::time_travel`, that `epoch_reader` exists
    /// exactly when `epochs()` flags the epoch readable there, and that it
    /// agrees with `epoch_delta` line for line. Returns, per epoch, the
    /// readable flag on each OMC (`false` when reclaimed or absent).
    fn check_direct_reads(m: &Mnm, lines: &[LineAddr]) -> Vec<Vec<bool>> {
        let mount = Mount::new(m, 2).unwrap();
        let top = m.max_epoch_seen();
        let mut queues = vec![Vec::new(); mount.shards()];
        for &line in lines {
            for epoch in 1..=top {
                queues[mount.shard_of(line)].push(Query { line, epoch });
            }
        }
        for (shard, queue) in queues.iter().enumerate() {
            let out = run_shard(&mount, shard, queue);
            let walked = walk_shard(&mount, shard, queue);
            assert_eq!((&out.answers, out.fallthrough), (&walked.0, walked.1));
            for (q, got) in queue.iter().zip(&out.answers) {
                let want = m.time_travel(q.line, q.epoch);
                assert_eq!(*got, want, "line {:?} @ {}", q.line, q.epoch);
            }
        }
        (1..=top)
            .map(|e| {
                m.omcs()
                    .iter()
                    .map(|omc| {
                        let flag = omc.epochs().any(|(x, readable)| x == e && readable);
                        let reader = omc.epoch_reader(e);
                        assert_eq!(reader.is_some(), flag, "epoch {e}");
                        match (reader, omc.epoch_delta(e)) {
                            (Some(r), Some(delta)) => {
                                let delta: std::collections::HashMap<u64, Token> =
                                    delta.map(|(l, t)| (l.raw(), t)).collect();
                                for &l in lines {
                                    assert_eq!(r.get(l), delta.get(&l.raw()).copied());
                                }
                            }
                            (None, None) => {}
                            _ => panic!("epoch_reader and epoch_delta disagree at {e}"),
                        }
                        flag
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn direct_reads_skip_epochs_dropped_after_merge() {
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 64,
                retention: SnapshotRetention::DropMerged,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        // Four lines in each of pages 0..4: even pages route to OMC 0,
        // odd pages to OMC 1, which only sees even epochs.
        let lines: Vec<LineAddr> = (0..16).map(|i| LineAddr::new(i * 16)).collect();
        for e in 1..=8u64 {
            for &l in &lines {
                if (l.raw() / 16 + e) % 3 != 0 && (m.route(l) == 0 || e % 2 == 0) {
                    m.receive_version(&mut n, 0, l, 1000 * e + l.raw(), e);
                }
            }
        }
        // rec-epoch 4: epochs 1..=4 merge and drop their tables, 5..=8
        // stay readable wherever they were written.
        m.report_min_ver(&mut n, 0, nvsim::VdId(0), 5);
        assert_eq!(m.rec_epoch(), 4);
        let flags = check_direct_reads(&m, &lines);
        assert!(flags[..4].iter().flatten().all(|&f| !f), "merged → dropped");
        assert!(
            flags
                .iter()
                .any(|f| f.contains(&true) && f.contains(&false)),
            "some epoch is readable on one OMC only: {flags:?}"
        );
    }

    #[test]
    fn direct_reads_survive_compaction() {
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 4,
                compaction_threshold: 0.5,
                grow_pages: 4,
                ..OmcConfig::default()
            },
        );
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        // OMC 0 rewrites half of pages 0 and 2 every epoch and merges as
        // it goes, so its tiny pool compacts; OMC 1 writes page 1 once.
        let hot: Vec<LineAddr> = (0..64).chain(128..192).map(LineAddr::new).collect();
        let cold: Vec<LineAddr> = (64..80).map(LineAddr::new).collect();
        for &l in &cold {
            m.receive_version(&mut n, 0, l, l.raw(), 1);
        }
        for e in 1..=10u64 {
            for &l in &hot {
                if e == 1 || (l.raw() + e) % 2 == 0 {
                    m.receive_version(&mut n, 0, l, 1000 * e + l.raw(), e);
                }
            }
            if e > 1 {
                m.report_min_ver(&mut n, 0, nvsim::VdId(0), e);
            }
        }
        m.finish(&mut n, 0, 10);
        let (o0, o1) = (m.omcs()[0].stats(), m.omcs()[1].stats());
        assert!(o0.compactions > 0 && o0.compaction_copies > 0, "{o0:?}");
        assert_eq!(o1.compactions, 0, "{o1:?}");
        let lines: Vec<LineAddr> = hot.iter().chain(&cold).copied().collect();
        let flags = check_direct_reads(&m, &lines);
        assert!(
            flags
                .iter()
                .any(|f| f.contains(&true) && f.contains(&false)),
            "some epoch is readable on one OMC only: {flags:?}"
        );
    }
}
