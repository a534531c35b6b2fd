//! Cross-crate integration: every scheme runs the same workloads on the
//! same hierarchy, recovers consistent images, and behaves
//! deterministically.

use nvoverlay_suite::baselines::{CommitKind, EpochCommitSystem, IdealSystem, Picl, PiclLevel};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::memsys::{MemorySystem, Runner};
use nvoverlay_suite::sim::stats::NvmWriteKind;
use nvoverlay_suite::sim::SimConfig;
use nvoverlay_suite::workloads::{generate, SuiteParams, Workload};

fn cfg() -> SimConfig {
    SimConfig::builder()
        .cores(16, 2)
        .l1(8 * 1024, 4, 4)
        .l2(64 * 1024, 8, 8)
        .llc(2 * 1024 * 1024, 8, 30, 4)
        .epoch_size_stores(1_000)
        .build()
        .unwrap()
}

fn params() -> SuiteParams {
    SuiteParams {
        threads: 16,
        ops: 2_500,
        warmup_ops: 10_000,
        seed: 123,
    }
}

#[test]
fn nvoverlay_recovers_every_workload_exactly() {
    let cfg = cfg();
    for w in Workload::ALL {
        let trace = generate(w, &params());
        let mut sys = NvOverlaySystem::new(&cfg);
        let report = Runner::new().run(&mut sys, &trace);
        assert_eq!(report.load_value_mismatches, 0, "{w}: stale loads");
        let img = sys.recover().unwrap_or_else(|e| panic!("{w}: {e}"));
        assert_eq!(
            img.len(),
            report.golden_image.len(),
            "{w}: image line-count mismatch"
        );
        for (line, token) in &report.golden_image {
            assert_eq!(img.read(line), Some(*token), "{w}: line {line}");
        }
    }
}

#[test]
fn every_scheme_returns_coherent_load_values_under_both_protocols() {
    // The runner cross-checks every load against its golden model; any
    // stale value is a coherence bug. Checked under MESI and MOESI.
    for protocol in [
        nvoverlay_suite::sim::config::Protocol::Mesi,
        nvoverlay_suite::sim::config::Protocol::Moesi,
    ] {
        let cfg = SimConfig { protocol, ..cfg() };
        every_scheme_coherent(&cfg);
    }
}

fn every_scheme_coherent(cfg: &SimConfig) {
    for w in [Workload::BTree, Workload::Kmeans, Workload::Intruder] {
        let trace = generate(w, &params());
        let factories: Vec<Box<dyn Fn() -> Box<dyn MemorySystem>>> = vec![
            Box::new(|| Box::new(IdealSystem::new(cfg))),
            Box::new(|| Box::new(EpochCommitSystem::new(cfg, CommitKind::UndoLog))),
            Box::new(|| Box::new(EpochCommitSystem::new(cfg, CommitKind::SwShadow))),
            Box::new(|| Box::new(EpochCommitSystem::new(cfg, CommitKind::HwShadow))),
            Box::new(|| Box::new(Picl::new(cfg, PiclLevel::Llc))),
            Box::new(|| Box::new(Picl::new(cfg, PiclLevel::L2))),
            Box::new(|| Box::new(NvOverlaySystem::new(cfg))),
        ];
        for mk in &factories {
            let mut sys = mk();
            let r = Runner::new().run(sys.as_mut(), &trace);
            assert_eq!(
                r.load_value_mismatches,
                0,
                "{w} / {} ({:?}): stale loads",
                sys.name(),
                cfg.protocol
            );
        }
    }
}

#[test]
fn software_schemes_recover_the_committed_image() {
    let cfg = cfg();
    let trace = generate(Workload::RbTree, &params());
    for kind in [
        CommitKind::UndoLog,
        CommitKind::SwShadow,
        CommitKind::HwShadow,
    ] {
        let mut sys = EpochCommitSystem::new(&cfg, kind);
        let r = Runner::new().run(&mut sys, &trace);
        for (l, t) in &r.golden_image {
            assert_eq!(sys.recovered_image().get(l), Some(t), "{kind:?}");
        }
    }
    let mut picl = Picl::new(&cfg, PiclLevel::Llc);
    let r = Runner::new().run(&mut picl, &trace);
    let img = picl.recovered_image();
    for (l, t) in &r.golden_image {
        assert_eq!(img.get(l), Some(t));
    }
}

#[test]
fn all_schemes_are_deterministic() {
    let cfg = cfg();
    let trace = generate(Workload::Vacation, &params());
    let run = |mk: &dyn Fn() -> Box<dyn MemorySystem>| {
        let mut sys = mk();
        let r = Runner::new().run(sys.as_mut(), &trace);
        (r.cycles, sys.stats().nvm.total_bytes())
    };
    let factories: Vec<Box<dyn Fn() -> Box<dyn MemorySystem>>> = vec![
        Box::new(|| Box::new(IdealSystem::new(&cfg))),
        Box::new(|| Box::new(EpochCommitSystem::new(&cfg, CommitKind::UndoLog))),
        Box::new(|| Box::new(Picl::new(&cfg, PiclLevel::L2))),
        Box::new(|| Box::new(NvOverlaySystem::new(&cfg))),
    ];
    for f in &factories {
        assert_eq!(run(f.as_ref()), run(f.as_ref()), "non-deterministic run");
    }
}

#[test]
fn paper_orderings_hold_across_the_suite() {
    // The headline claims, checked per workload: (1) NVOverlay never
    // writes log bytes; (2) PiCL's total bytes exceed NVOverlay's on the
    // index workloads (Fig 12's 29%–47% reduction claim); (3) software
    // schemes stall, hardware schemes stall less.
    let cfg = cfg();
    for w in [
        Workload::HashTable,
        Workload::BTree,
        Workload::Art,
        Workload::RbTree,
    ] {
        let trace = generate(w, &params());
        let mut nvo = NvOverlaySystem::new(&cfg);
        let rn = Runner::new().run(&mut nvo, &trace);
        let mut picl = Picl::new(&cfg, PiclLevel::Llc);
        let rp = Runner::new().run(&mut picl, &trace);
        let mut swl = EpochCommitSystem::new(&cfg, CommitKind::UndoLog);
        let rs = Runner::new().run(&mut swl, &trace);

        assert_eq!(nvo.stats().nvm.bytes(NvmWriteKind::Log), 0, "{w}");
        assert!(
            picl.stats().nvm.total_bytes() > nvo.stats().nvm.total_bytes(),
            "{w}: PiCL {} vs NVOverlay {}",
            picl.stats().nvm.total_bytes(),
            nvo.stats().nvm.total_bytes()
        );
        assert!(
            rs.cycles > rp.cycles && rs.cycles > rn.cycles,
            "{w}: software logging must be slowest"
        );
    }
}

#[test]
fn epoch_marks_drive_every_scheme() {
    // Explicit epoch marks produce snapshots/commits under all schemes.
    let cfg = cfg();
    let mut tb = nvoverlay_suite::sim::trace::TraceBuilder::new(4);
    for e in 0..5 {
        for i in 0..50u64 {
            tb.store(
                nvoverlay_suite::sim::addr::ThreadId((i % 4) as u16),
                nvoverlay_suite::sim::addr::Addr::new((e * 100 + i) * 64),
            );
        }
        tb.epoch_mark(nvoverlay_suite::sim::addr::ThreadId(0));
    }
    let trace = tb.build();
    let mut nvo = NvOverlaySystem::new(&cfg);
    let _ = Runner::new().run(&mut nvo, &trace);
    assert!(nvo.stats().epochs_completed >= 5);
    let mut swl = EpochCommitSystem::new(&cfg, CommitKind::UndoLog);
    let _ = Runner::new().run(&mut swl, &trace);
    assert!(swl.epochs_committed() >= 5);
}
