//! Recovery exactness across the whole configuration space: OMC buffer
//! on/off × retention policy × OMC count × protocol × storage pressure
//! (compaction live). The golden image must recover exactly under every
//! combination.

use nvoverlay::mnm::{OmcConfig, SnapshotRetention};
use nvoverlay::system::{NvOverlayOptions, NvOverlaySystem};
use nvsim::config::Protocol;
use nvsim::memsys::Runner;
use nvsim::SimConfig;
use nvworkloads::{generate, SuiteParams, Workload};

fn base_cfg(protocol: Protocol) -> SimConfig {
    SimConfig::builder()
        .cores(8, 2)
        .l1(2 * 1024, 2, 4)
        .l2(8 * 1024, 4, 8)
        .llc(64 * 1024, 4, 30, 2)
        .epoch_size_stores(400)
        .protocol(protocol)
        .build()
        .unwrap()
}

fn trace() -> nvsim::trace::Trace {
    generate(
        Workload::HashTable,
        &SuiteParams {
            threads: 8,
            ops: 1_200,
            warmup_ops: 3_000,
            seed: 5,
        },
    )
}

#[test]
fn recovery_is_exact_across_the_options_matrix() {
    let trace = trace();
    for protocol in [Protocol::Mesi, Protocol::Moesi] {
        let cfg = base_cfg(protocol);
        for retention in [SnapshotRetention::KeepAll, SnapshotRetention::DropMerged] {
            for omc_count in [1usize, 3] {
                for buffer in [None, Some((64u64, 4u32))] {
                    let opts = NvOverlayOptions {
                        omc: OmcConfig {
                            pool_pages: 256,
                            retention,
                            buffer,
                            ..OmcConfig::default()
                        },
                        omc_count,
                        ..NvOverlayOptions::default()
                    };
                    let mut sys = NvOverlaySystem::with_options(&cfg, opts);
                    let report = Runner::new().run(&mut sys, &trace);
                    assert_eq!(report.load_value_mismatches, 0);
                    let img = sys.recover().expect("recoverable");
                    let tag = format!(
                        "{protocol:?}/{retention:?}/omcs={omc_count}/buf={}",
                        buffer.is_some()
                    );
                    assert_eq!(img.len(), report.golden_image.len(), "{tag}");
                    for (l, t) in &report.golden_image {
                        assert_eq!(img.read(l), Some(*t), "{tag}: line {l}");
                    }
                }
            }
        }
    }
}

#[test]
fn recovery_is_exact_under_compaction_pressure() {
    // A pool small enough that version compaction must run repeatedly.
    let cfg = base_cfg(Protocol::Mesi);
    let trace = trace();
    let opts = NvOverlayOptions {
        omc: OmcConfig {
            pool_pages: 24,
            grow_pages: 8,
            compaction_threshold: 0.7,
            retention: SnapshotRetention::KeepAll,
            ..OmcConfig::default()
        },
        omc_count: 2,
        ..NvOverlayOptions::default()
    };
    let mut sys = NvOverlaySystem::with_options(&cfg, opts);
    let report = Runner::new().run(&mut sys, &trace);
    let compactions: u64 = sys.mnm().omcs().iter().map(|o| o.stats().compactions).sum();
    assert!(compactions > 0, "the pool pressure must trigger compaction");
    let img = sys.recover().expect("recoverable");
    for (l, t) in &report.golden_image {
        assert_eq!(img.read(l), Some(*t), "line {l}");
    }
}

#[test]
fn reboot_rebuilds_volatile_state_and_preserves_the_image() {
    use nvoverlay::mnm::Mnm;
    use nvsim::addr::LineAddr;
    use nvsim::nvm::Nvm;

    let mut m = Mnm::new(
        2,
        2,
        OmcConfig {
            pool_pages: 64,
            retention: SnapshotRetention::DropMerged,
            ..OmcConfig::default()
        },
    );
    let mut n = Nvm::new(4, 400, 200, 8, 100_000);
    for i in 0..200u64 {
        m.receive_version(&mut n, 0, LineAddr::new(i * 3), 1000 + i, 1 + i / 50);
    }
    m.finish(&mut n, 0, 4);
    let before: Vec<_> = {
        let mut v: Vec<_> = m.master_image().collect();
        v.sort_by_key(|(l, _)| l.raw());
        v
    };

    // Power loss + restart.
    m.simulate_reboot();
    let after: Vec<_> = {
        let mut v: Vec<_> = m.master_image().collect();
        v.sort_by_key(|(l, _)| l.raw());
        v
    };
    assert_eq!(before, after, "the persistent image survives the reboot");
    assert_eq!(m.rec_epoch(), 4);

    // The rebuilt refcounts keep GC working: superseding every line must
    // free the old pages.
    let freed_before: u64 = m.omcs().iter().map(|o| o.stats().pages_freed).sum();
    for i in 0..200u64 {
        m.receive_version(&mut n, 0, LineAddr::new(i * 3), 5000 + i, 10);
    }
    // All VDs report past epoch 10 so it merges.
    use nvsim::addr::VdId;
    m.report_min_ver(&mut n, 0, VdId(0), 11);
    m.report_min_ver(&mut n, 0, VdId(1), 11);
    let freed_after: u64 = m.omcs().iter().map(|o| o.stats().pages_freed).sum();
    assert!(
        freed_after > freed_before,
        "GC must keep collecting after the reboot ({freed_before} -> {freed_after})"
    );
    assert_eq!(m.read_master(LineAddr::new(9)), Some(5003));
}
