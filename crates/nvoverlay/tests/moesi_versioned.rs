//! MOESI under the versioned hierarchy (paper §IV-E: the design extends
//! to MOESI without modifying the state machine).

use nvoverlay::cst::{AdvanceCause, CstConfig, CstEvent, VersionedHierarchy};
use nvoverlay::system::NvOverlaySystem;
use nvsim::addr::{Addr, CoreId, ThreadId, VdId};
use nvsim::config::Protocol;
use nvsim::memsys::{MemOp, MemorySystem, Runner};
use nvsim::trace::TraceBuilder;
use nvsim::SimConfig;

fn cfg(protocol: Protocol) -> SimConfig {
    SimConfig::builder()
        .cores(8, 2)
        .l1(1024, 2, 4)
        .l2(4096, 4, 8)
        .llc(16 * 1024, 4, 30, 2)
        .epoch_size_stores(200)
        .protocol(protocol)
        .build()
        .unwrap()
}

fn addr(line: u64) -> Addr {
    Addr::new(line * 64)
}

#[test]
fn moesi_downgrade_keeps_version_custody_in_the_owner() {
    let c = SimConfig {
        epoch_size_stores: 1_000_000,
        ..cfg(Protocol::Moesi)
    };
    let mut h = VersionedHierarchy::new(&c, CstConfig::default());
    h.access(CoreId(0), MemOp::Store, addr(5), 50);
    h.take_events();
    // Remote load: MESI would persist the version; MOESI keeps it Owned.
    let (_, _, v) = h.access(CoreId(2), MemOp::Load, addr(5), 0);
    assert_eq!(v, 50);
    let versions: Vec<_> = h
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, CstEvent::Version(_)))
        .collect();
    assert!(
        versions.is_empty(),
        "MOESI downgrade must not emit a version: {versions:?}"
    );
    // Custody (the unpersisted version) is still in VD0.
    assert_eq!(h.min_unpersisted(VdId(0)), Some(1));
    // The walker later persists it as usual.
    h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
    h.take_events();
    let (walked, min_ver) = h.tag_walk(VdId(0));
    assert_eq!(walked.len(), 1);
    assert_eq!(walked[0].token, 50);
    assert_eq!(min_ver, 2);
}

#[test]
fn moesi_recovery_is_exact_for_every_suite_workload() {
    let c = cfg(Protocol::Moesi);
    let p = nvworkloads::SuiteParams {
        threads: 8,
        ops: 1_500,
        warmup_ops: 6_000,
        seed: 77,
    };
    for w in [
        nvworkloads::Workload::BTree,
        nvworkloads::Workload::Kmeans,
        nvworkloads::Workload::Intruder,
        nvworkloads::Workload::Ssca2,
    ] {
        let trace = nvworkloads::generate(w, &p);
        let mut sys = NvOverlaySystem::new(&c);
        let report = Runner::new().run(&mut sys, &trace);
        assert_eq!(report.load_value_mismatches, 0, "{w}: stale loads");
        let img = sys.recover().expect("recoverable");
        assert_eq!(img.len(), report.golden_image.len(), "{w}");
        for (line, token) in &report.golden_image {
            assert_eq!(img.read(line), Some(*token), "{w}: line {line}");
        }
    }
}

#[test]
fn moesi_invariants_hold_under_random_traffic() {
    let c = cfg(Protocol::Moesi);
    let mut h = VersionedHierarchy::new(&c, CstConfig::default());
    let mut x = 7u64;
    for i in 0..20_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let core = CoreId((x >> 33) as u16 % 8);
        let line = (x >> 40) % 120;
        if x.is_multiple_of(3) {
            h.access(core, MemOp::Store, addr(line), i + 1);
        } else {
            h.access(core, MemOp::Load, addr(line), 0);
        }
        if i % 1024 == 0 {
            h.assert_invariants();
        }
    }
    h.drain();
    h.assert_invariants();
}

#[test]
fn moesi_writes_fewer_nvm_bytes_on_read_shared_data() {
    // A producer/consumer pattern: one VD writes, others repeatedly read.
    // MESI persists the version at every downgrade cycle; MOESI keeps it
    // Owned and persists once per epoch via the walker.
    let mk_trace = || {
        let mut tb = TraceBuilder::new(8);
        for round in 0..600u64 {
            for l in 0..8u64 {
                tb.store(ThreadId(0), addr(l));
            }
            for reader in [2u16, 4, 6] {
                for l in 0..8u64 {
                    tb.load(ThreadId(reader), addr(l));
                }
            }
            let _ = round;
        }
        tb.build()
    };
    let mut mesi = NvOverlaySystem::new(&cfg(Protocol::Mesi));
    let _ = Runner::new().run(&mut mesi, &mk_trace());
    let mut moesi = NvOverlaySystem::new(&cfg(Protocol::Moesi));
    let _ = Runner::new().run(&mut moesi, &mk_trace());
    let b_mesi = mesi.stats().nvm.total_bytes();
    let b_moesi = moesi.stats().nvm.total_bytes();
    assert!(
        b_moesi < b_mesi,
        "MOESI must reduce downgrade-driven NVM writes: {b_moesi} vs {b_mesi}"
    );
}
