//! Differential suite: nvserve answers vs the reference time-travel
//! reader and the nvchaos trace oracle, for every recoverable epoch of
//! four workloads, byte-identical across worker counts.
//!
//! For each workload the test replays a scaled-down trace through the
//! full NVOverlay system, mounts the durable state, and submits one
//! batch per servable epoch covering a stride-sample of the recovered
//! key universe through the real serve engine (shard queues, the OMCs'
//! per-line version index, worker threads). Every answer must:
//!
//! 1. equal `Mnm::time_travel(line, epoch)` — the reference reader the
//!    recovery module tests pin against the paper's §V-E semantics;
//! 2. be a token the oracle saw written to that line (no fabrication);
//! 3. advance monotonically in per-line program order across ascending
//!    epochs for single-writer lines;
//! 4. at the recoverable head, equal the §V-E recovered image.
//!
//! The whole report (including the answer digest) must serialize
//! byte-identically for 1, 2, 4, and 8 workers, and its identity fields
//! (digest, answer split, epochs fallen through) are pinned to
//! constants.

use nvchaos::TraceOracle;
use nvoverlay::system::NvOverlaySystem;
use nvserve::driver::{BatchPlan, LoadPlan, SessionPlan};
use nvserve::{serve, Mount, ServeConfig};
use nvsim::memsys::Runner;
use nvsim::{LineAddr, SimConfig};
use nvworkloads::{generate, SuiteParams, Workload};

const WORKLOADS: [Workload; 4] = [
    Workload::HashTable,
    Workload::BTree,
    Workload::Art,
    Workload::Kmeans,
];

fn params() -> SuiteParams {
    SuiteParams {
        threads: 8,
        ops: 1_000,
        warmup_ops: 1_500,
        seed: 0xC0FFEE,
    }
}

fn config() -> SimConfig {
    SimConfig::builder()
        .epoch_size_stores(250)
        .build()
        .expect("valid config")
}

/// At most this many sampled keys per batch (stride over the universe).
const SAMPLE_CAP: usize = 300;

fn sample(keys: &[LineAddr]) -> Vec<LineAddr> {
    let stride = keys.len().div_ceil(SAMPLE_CAP).max(1);
    keys.iter().step_by(stride).copied().collect()
}

#[test]
fn serve_matches_time_travel_and_oracle_everywhere() {
    for w in WORKLOADS {
        let trace = generate(w, &params());
        let oracle = TraceOracle::new(&trace);
        let cfg = config();
        let mut sys = NvOverlaySystem::new(&cfg);
        let _ = Runner::new().run(&mut sys, &trace);
        let img = sys.recover().expect("recoverable after a clean run");

        let scfg = ServeConfig {
            error_probes: false,
            ..ServeConfig::default()
        };
        let mount = Mount::new(sys.mnm(), scfg.subshards).expect("mountable");
        let servable = mount.dir().servable();
        assert!(
            servable.len() >= 3,
            "{w}: want several servable epochs, got {servable:?}"
        );
        let keys = sample(mount.keys());
        assert!(!keys.is_empty(), "{w}: empty key sample");

        // One session, one batch per servable epoch (ascending), same
        // sampled keys each time — exactly the shape the monotonicity
        // check needs.
        let plan = LoadPlan {
            sessions: vec![SessionPlan {
                id: 0,
                batches: servable
                    .iter()
                    .map(|&e| BatchPlan {
                        epoch: e,
                        keys: keys.clone(),
                    })
                    .collect(),
            }],
            probes: 0,
        };

        let out = serve(&mount, &plan, &scfg);
        assert_eq!(
            out.answers.len(),
            servable.len() * keys.len(),
            "{w}: every query answered"
        );

        // Single-writer lines for the monotonicity check (answer tokens
        // must move forward in program order as the epoch advances).
        let private: std::collections::HashSet<u64> = oracle
            .private_lines()
            .iter()
            .map(|(l, _)| l.raw())
            .collect();
        let mut last_pos: Vec<Option<usize>> = vec![None; keys.len()];

        for (bi, &epoch) in servable.iter().enumerate() {
            for (ki, &line) in keys.iter().enumerate() {
                let got = out.answers[bi * keys.len() + ki];
                // 1. Reference reader.
                let want = sys.mnm().time_travel(line, epoch);
                assert_eq!(
                    got, want,
                    "{w}: line {line:?} @ epoch {epoch} diverged from time_travel"
                );
                if let Some(token) = got {
                    // 2. The oracle saw this exact write.
                    assert!(
                        oracle.written_to(line, token),
                        "{w}: line {line:?} @ epoch {epoch}: token {token} never written"
                    );
                    // 3. Per-line program order advances with the epoch.
                    if private.contains(&line.raw()) {
                        let pos = oracle
                            .writes_to(line)
                            .iter()
                            .position(|&t| t == token)
                            .expect("token is in the line's write sequence");
                        if let Some(prev) = last_pos[ki] {
                            assert!(
                                pos >= prev,
                                "{w}: line {line:?} went backwards ({prev} -> {pos}) \
                                 between epochs"
                            );
                        }
                        last_pos[ki] = Some(pos);
                    }
                }
                // 4. The recoverable head equals the recovered image.
                if epoch == mount.dir().recoverable() {
                    assert_eq!(
                        got,
                        img.read(line),
                        "{w}: line {line:?} at the head diverged from recovery"
                    );
                }
            }
        }
    }
}

/// `(digest, answers_some, answers_none, fallthrough)` of the default
/// scripted load per workload, in [`WORKLOADS`] order. Captured when
/// shards still answered from materialized per-epoch table copies; the
/// direct walk must visit the same epochs and return the same answers.
const PINNED: [(u64, u64, u64, u64); 4] = [
    (0x2abe_469a_94af_16a8, 434, 78, 4062),
    (0x1938_f2df_dba7_6671, 383, 129, 2598),
    (0xde47_426a_5813_8315, 443, 69, 1123),
    (0x6178_3059_5891_57ac, 477, 35, 1429),
];

#[test]
fn serve_reports_are_byte_identical_across_worker_counts() {
    for (w, pinned) in WORKLOADS.into_iter().zip(PINNED) {
        let trace = generate(w, &params());
        let cfg = config();
        let mut sys = NvOverlaySystem::new(&cfg);
        let _ = Runner::new().run(&mut sys, &trace);

        let base = ServeConfig {
            sessions: 4,
            batches: 8,
            batch: 16,
            ..ServeConfig::default()
        };
        let mount = Mount::new(sys.mnm(), base.subshards).expect("mountable");
        let mut reference: Option<(String, Vec<Option<u64>>)> = None;
        for workers in [1usize, 2, 4, 8] {
            let scfg = ServeConfig {
                workers,
                ..base.clone()
            };
            let plan = nvserve::driver::plan(&mount, &scfg).expect("plan");
            let out = serve(&mount, &plan, &scfg);
            let r = &out.report;
            assert_eq!(
                (r.digest, r.answers_some, r.answers_none, r.fallthrough),
                pinned,
                "{w}: serve identity moved with {workers} workers"
            );
            let json = r.to_json(w.name(), "NVOverlay");
            match &reference {
                None => reference = Some((json, out.answers)),
                Some((ref_json, ref_answers)) => {
                    assert_eq!(
                        &json, ref_json,
                        "{w}: report changed with {workers} workers"
                    );
                    assert_eq!(
                        &out.answers, ref_answers,
                        "{w}: answers changed with {workers} workers"
                    );
                }
            }
        }
    }
}
