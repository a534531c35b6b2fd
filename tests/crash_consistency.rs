//! Mid-run crash consistency.
//!
//! The paper's §III-C relaxed epoch model: a snapshot "may not be the
//! exact memory image at any real-time point", but it must be a
//! *consistent cut* of the causality order. Two layers of testing:
//!
//! * [`boundary_crash_smoke`] — the original fast smoke: stop issuing
//!   accesses at a few points (no shutdown drain) and recover from the
//!   live master tables, checking the three cut invariants by hand.
//! * The `nvchaos` harness tests — crash *inside* the persistence
//!   machinery itself: the persistence-order journal makes every NVM
//!   write a crash site, so cuts land between the metadata chunks of
//!   one OMC flush, mid-`Mmaster` root update, and inside context
//!   dumps, with in-flight writes dropped or torn. The same three
//!   invariants are checked per site against the trace oracle.

use nvoverlay_suite::chaos::{explore, ChaosConfig, ChaosScheme, NvmTarget, RebuildFidelity};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::addr::{Addr, CoreId, LineAddr, ThreadId, Token};
use nvoverlay_suite::sim::memsys::{MemOp, MemorySystem};
use nvoverlay_suite::sim::trace::{Trace, TraceBuilder};
use nvoverlay_suite::sim::SimConfig;
use std::collections::HashMap;

fn cfg() -> SimConfig {
    SimConfig::builder()
        .cores(8, 2)
        .l1(4 * 1024, 4, 4)
        .l2(32 * 1024, 8, 8)
        .llc(512 * 1024, 8, 30, 2)
        .epoch_size_stores(300)
        .build()
        .unwrap()
}

/// One interleaved access plan: (core, line, token, seq-within-thread).
fn build_plan() -> Vec<(CoreId, LineAddr, Token)> {
    // Each of 8 threads writes a private region round-robin; every 7th
    // access goes to a shared region (cross-VD coherence traffic).
    let mut plan = Vec::new();
    let mut token = 1u64;
    for round in 0..1200u64 {
        for t in 0..8u16 {
            let line = if (round + t as u64).is_multiple_of(7) {
                LineAddr::new(0x9000 + (round % 40))
            } else {
                LineAddr::new(0x1000 * (t as u64 + 1) + round % 200)
            };
            plan.push((CoreId(t), line, token));
            token += 1;
        }
    }
    plan
}

/// The same plan as a replayable [`Trace`] for the chaos harness.
fn plan_trace() -> Trace {
    let mut b = TraceBuilder::new(8);
    for (c, l, tok) in build_plan() {
        b.store_with_token(ThreadId(c.0), Addr::from(l), tok);
    }
    b.build()
}

#[test]
fn boundary_crash_smoke() {
    let cfg = cfg();
    let plan = build_plan();

    // Thread-order metadata: token -> (thread, seq).
    let mut order: HashMap<Token, (u16, u64)> = HashMap::new();
    let mut seqs = [0u64; 8];
    // Written tokens per line, in issue order.
    let mut line_writes: HashMap<LineAddr, Vec<Token>> = HashMap::new();
    for (c, l, tok) in &plan {
        order.insert(*tok, (c.0, seqs[c.index()]));
        seqs[c.index()] += 1;
        line_writes.entry(*l).or_default().push(*tok);
    }

    for crash_at in [4500usize, 9599] {
        let mut sys = NvOverlaySystem::new(&cfg);
        let mut now = 0u64;
        for (c, l, tok) in plan.iter().take(crash_at) {
            let out = sys.access(*c, MemOp::Store, Addr::from(*l), *tok, now);
            now += out.latency + 2;
        }
        // CRASH: no finish(), no drain. Recover from what is durable.
        let rec = sys.rec_epoch();
        if rec == 0 {
            continue; // nothing committed yet at this crash point
        }
        let img = sys.recover().expect("rec_epoch > 0");
        assert!(!img.is_empty(), "crash@{crash_at}: empty image");

        // (1) Every recovered token was really written to that line.
        for (l, t) in img.iter() {
            let writes = line_writes
                .get(&l)
                .unwrap_or_else(|| panic!("crash@{crash_at}: unknown line {l}"));
            assert!(
                writes.contains(&t),
                "crash@{crash_at}: line {l} has token {t} never written there"
            );
        }

        // (2) Prefix-cut property on private lines: for each thread, the
        // recovered "last write seq" per private line must be the latest
        // write to that line below a single cut point.
        for t in 0..8u16 {
            // Private lines of thread t with their recovered seq.
            let mut recovered: Vec<(LineAddr, u64)> = Vec::new();
            for (l, tok) in img.iter() {
                if l.raw() >= 0x9000 {
                    continue; // shared region
                }
                if (l.raw() / 0x1000) != (t as u64 + 1) {
                    continue;
                }
                let (tt, s) = order[&tok];
                assert_eq!(tt, t, "private line recovered with foreign token");
                recovered.push((l, s));
            }
            // Cut point: max recovered seq for the thread.
            let Some(&(_, cut)) = recovered.iter().max_by_key(|(_, s)| *s) else {
                continue;
            };
            // Every private line whose last write at-or-before `cut`
            // exists must be recovered at exactly that write.
            for (l, writes) in &line_writes {
                if l.raw() >= 0x9000 || (l.raw() / 0x1000) != (t as u64 + 1) {
                    continue;
                }
                let expect = writes.iter().rfind(|tok| order[tok].1 <= cut).copied();
                if let Some(e) = expect {
                    assert_eq!(
                        img.read(*l),
                        Some(e),
                        "crash@{crash_at}, thread {t}: line {l} not at the cut"
                    );
                }
            }
        }

        // (3) The image equals the fall-through snapshot at rec-epoch.
        let snap = nvoverlay_suite::overlay::recovery::snapshot_at(
            sys.mnm(),
            rec,
            img.iter().map(|(l, _)| l),
        );
        for (l, t) in img.iter() {
            assert_eq!(snap.read(l), Some(t), "crash@{crash_at}: snapshot mismatch");
        }
    }
}

/// The ported harness test: crash sites land *inside* OMC flushes
/// (between the metadata chunks of one merge), mid-`Mmaster` root
/// update, and inside context dumps; each cut drops or tears in-flight
/// writes before recovery runs. Every explored site must uphold the
/// three consistency-cut invariants.
#[test]
fn interior_crash_sites_are_consistent_cuts() {
    let ccfg = ChaosConfig {
        sites: 160,
        ..ChaosConfig::default()
    };
    let target = NvmTarget::prepare(
        &plan_trace(),
        &cfg(),
        ChaosScheme::NvOverlay,
        RebuildFidelity::Exact,
        false,
    );
    let report = explore(&target, &ccfg, 1);

    assert!(
        report.ok(),
        "interior crash sites violated the cut invariants: {:#?}",
        report.violations
    );
    // The stratified sample must actually land inside the OMC flush and
    // the Mmaster update sequences, not just at data writes.
    let sites_in = |category: &str| {
        let mut counts = report
            .counts("sites_by_category")
            .unwrap_or_default()
            .iter();
        counts.find(|(c, _)| c == category).map_or(0, |(_, n)| *n)
    };
    assert!(
        sites_in("omc-flush-meta") > 0,
        "no crash site inside an OMC flush"
    );
    assert!(
        sites_in("master-root") > 0,
        "no crash site at an Mmaster root update"
    );
    // The cuts must be doing real damage: in-flight writes dropped, and
    // several epochs still recovered underneath.
    assert!(
        report.num("dropped_writes") > Some(0),
        "cuts never dropped a write"
    );
    assert!(
        report.num("max_recovered_epoch") >= Some(3),
        "too few epochs recovered"
    );
}

/// Harness self-test: a recovery implementation that ignores the
/// rec-epoch filter (leaking uncommitted versions into the image) must
/// be caught by the same invariants that pass above.
#[test]
fn broken_recovery_is_demonstrably_caught() {
    let ccfg = ChaosConfig {
        sites: 120,
        ..ChaosConfig::default()
    };
    let target = NvmTarget::prepare(
        &plan_trace(),
        &cfg(),
        ChaosScheme::NvOverlay,
        RebuildFidelity::BrokenNoEpochFilter,
        false,
    );
    let report = explore(&target, &ccfg, 1);
    assert!(
        !report.ok(),
        "an epoch-filter-less recovery slipped past the invariants"
    );
}

#[test]
fn crash_points_cover_multiple_epochs() {
    // Make sure the tests above actually exercise committed state.
    let cfg = cfg();
    let plan = build_plan();
    let mut sys = NvOverlaySystem::new(&cfg);
    let mut now = 0u64;
    for (c, l, tok) in &plan {
        let out = sys.access(*c, MemOp::Store, Addr::from(*l), *tok, now);
        now += out.latency + 2;
    }
    assert!(
        sys.rec_epoch() >= 3,
        "plan must commit several epochs mid-run, got {}",
        sys.rec_epoch()
    );
}
