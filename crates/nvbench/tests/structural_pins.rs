//! Structural results pinned to constants.
//!
//! `replay_fastpath` and `shard_determinism` compare two runs of the same
//! mapping-table and accounting code, so a change that shifts both sides
//! alike passes them. This test pins the figures' structural outputs —
//! cycles, stall cycles, the NVM byte breakdown, and the master table's
//! size and entry count — to constants, for the schemes whose NVM
//! metadata goes through `RadixTable` (NVOverlay with and without the
//! OMC buffer, SW Shadow, HW Shadow) on the Quick B+Tree and Hash Table
//! traces. A second test pins the OMC's garbage collection and version
//! compaction on the Quick B+Tree under a small pool (`KeepAll`,
//! `DropMerged`, and GC after `simulate_reboot`): the per-OMC counters,
//! the master table and the NVM bytes by kind. The default pool never
//! frees a page, so nothing else pins those paths' numbers. A deliberate
//! model change must update the constants here.

use nvbench::{default_jobs, gen_traces, run_nvoverlay, run_ordered, run_scheme, EnvScale, Scheme};
use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
use nvoverlay::system::{NvOverlayOptions, NvOverlaySystem};
use nvsim::memsys::Runner;
use nvsim::nvm::Nvm;
use nvsim::stats::NvmWriteKind;
use nvworkloads::Workload;
use std::sync::Arc;

/// One pinned run: cycles, stall cycles, NVM bytes as
/// `[data, log, meta, context]`, and `(master_bytes, master_entries)`
/// for the NVOverlay schemes.
type Row = (u64, u64, [u64; 4], Option<(u64, u64)>);

const WORKLOADS: [Workload; 2] = [Workload::BTree, Workload::HashTable];
const SCHEMES: [Scheme; 4] = [
    Scheme::NvOverlay,
    Scheme::NvOverlayBuffered,
    Scheme::SwShadow,
    Scheme::HwShadow,
];

/// Rows in `WORKLOADS` × `SCHEMES` order.
#[rustfmt::skip]
const PINS: &[Row] = &[
    // B+Tree
    (708744, 2630618, [1005632, 0, 117472, 44544], Some((181248, 7894))),
    (579434, 569810, [922048, 0, 117704, 45056], Some((181248, 7894))),
    (6984038, 97136988, [926976, 0, 118216, 0], None),
    (1683638, 17202888, [926976, 0, 118216, 0], None),
    // Hash Table
    (306944, 2000482, [509056, 0, 60632, 8192], Some((130560, 7108))),
    (150420, 240, [472256, 0, 60624, 8192], Some((130560, 7108))),
    (2680856, 40486600, [475200, 0, 60952, 0], None),
    (585856, 6966600, [475200, 0, 60952, 0], None),
];

#[test]
fn structural_results_match_pinned_constants() {
    let cfg = Arc::new(EnvScale::Quick.sim_config());
    let jobs = default_jobs();
    let traces = gen_traces(&WORKLOADS, &EnvScale::Quick.suite_params(), jobs);
    let cols = SCHEMES.len();
    let rows: Vec<Row> = run_ordered(WORKLOADS.len() * cols, jobs, |i| {
        let (scheme, trace) = (SCHEMES[i % cols], &traces[i / cols]);
        let buffered = match scheme {
            Scheme::NvOverlay => false,
            Scheme::NvOverlayBuffered => true,
            _ => {
                let r = run_scheme(scheme, &cfg, trace);
                let bytes = [r.data_bytes, r.log_bytes, r.meta_bytes, r.context_bytes];
                return (r.cycles, r.stall_cycles, bytes, None);
            }
        };
        let opts = NvOverlayOptions {
            omc: OmcConfig {
                buffer: buffered.then(|| (cfg.llc.sets(), cfg.llc.ways)),
                ..OmcConfig::default()
            },
            ..NvOverlayOptions::default()
        };
        let (r, d) = run_nvoverlay(&cfg, opts, trace);
        let bytes = [r.data_bytes, r.log_bytes, r.meta_bytes, r.context_bytes];
        (
            r.cycles,
            r.stall_cycles,
            bytes,
            Some((d.master_bytes, d.master_entries)),
        )
    });
    let listing: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    for (i, (got, want)) in rows.iter().zip(PINS).enumerate() {
        assert_eq!(
            got,
            want,
            "{} on {}: structural result drifted; every row now:\n{listing}",
            SCHEMES[i % cols],
            WORKLOADS[i / cols].name()
        );
    }
    assert_eq!(rows.len(), PINS.len(), "rows now:\n{listing}");
}

/// One OMC's garbage-collection and compaction outcome: versions
/// received, compaction copies, pages freed, compaction passes, pool
/// high water, and total page allocations.
type OmcRow = [u64; 6];

/// One pinned GC run: the OMCs' rows, `(master_bytes, master_entries)`,
/// and NVM bytes as `[data, log, meta, context]`.
type GcRow<Omcs> = (Omcs, (u64, u64), [u64; 4]);

/// A pool small enough that version compaction runs again and again on
/// the Quick B+Tree trace, and has to grow the pool too.
fn pressured(retention: SnapshotRetention) -> OmcConfig {
    OmcConfig {
        pool_pages: 128,
        grow_pages: 32,
        compaction_threshold: 0.7,
        retention,
        ..OmcConfig::default()
    }
}

fn gc_row(mnm: &Mnm, nvm: &Nvm) -> GcRow<Vec<OmcRow>> {
    let omcs = mnm
        .omcs()
        .iter()
        .map(|o| {
            let s = o.stats();
            [
                s.versions_received,
                s.compaction_copies,
                s.pages_freed,
                s.compactions,
                o.pool().high_water() as u64,
                o.pool().total_allocations(),
            ]
        })
        .collect();
    let bytes = NvmWriteKind::ALL.map(|k| nvm.stats().bytes(k));
    (omcs, (mnm.master_size_bytes(), mnm.master_entries()), bytes)
}

/// Rows: NVOverlay on the Quick B+Tree under compaction pressure with
/// `KeepAll`, then with `DropMerged`, then the reboot leg (see the test).
#[rustfmt::skip]
const GC_PINS: &[GcRow<&[OmcRow]>] = &[
    (&[[7996, 4284, 102, 6, 91, 192], [7712, 4435, 103, 5, 91, 189]], (181248, 7894), [1563328, 0, 117656, 45568]),
    (&[[7996, 4284, 103, 6, 91, 192], [7712, 4435, 103, 5, 91, 189]], (181248, 7894), [1563328, 0, 117656, 45568]),
    (&[[9316, 0, 90, 63, 152, 152], [9072, 0, 86, 59, 148, 148]], (181248, 7894), [1176832, 0, 149576, 0]),
];

#[test]
fn omc_gc_and_compaction_match_pinned_constants() {
    let cfg = Arc::new(EnvScale::Quick.sim_config());
    let trace = &gen_traces(&[Workload::BTree], &EnvScale::Quick.suite_params(), 1)[0];
    let run = |retention| {
        let opts = NvOverlayOptions {
            omc: pressured(retention),
            ..NvOverlayOptions::default()
        };
        let mut sys = NvOverlaySystem::with_options_shared(Arc::clone(&cfg), opts);
        Runner::new().run_packed(&mut sys, trace);
        sys
    };
    let keep = run(SnapshotRetention::KeepAll);
    let drop = run(SnapshotRetention::DropMerged);
    let mut rows = vec![
        gc_row(keep.mnm(), keep.nvm()),
        gc_row(drop.mnm(), drop.nvm()),
    ];

    // Reboot leg: the KeepAll run's retained epoch deltas, replayed into
    // a pressured DropMerged backend that merges every epoch; then a
    // power loss, and one more epoch superseding every master line, so
    // GC runs on the reference counts the reboot rebuilt.
    let src = keep.mnm();
    let mut mnm = Mnm::new(
        src.omcs().len(),
        src.vd_count(),
        pressured(SnapshotRetention::DropMerged),
    );
    let mut nvm = Nvm::new(4, 400, 200, 8, 100_000);
    let mut last = 0;
    for (epoch, _) in src.epochs() {
        for (line, token) in src.epoch_delta(epoch).expect("KeepAll retains every epoch") {
            mnm.receive_version(&mut nvm, 0, line, token, epoch);
        }
        mnm.finish(&mut nvm, 0, epoch);
        last = epoch;
    }
    mnm.simulate_reboot();
    let image: Vec<_> = mnm.master_image().collect();
    for (line, token) in image {
        mnm.receive_version(&mut nvm, 0, line, !token, last + 1);
    }
    mnm.finish(&mut nvm, 0, last + 1);
    rows.push(gc_row(&mnm, &nvm));

    let listing: String = rows
        .iter()
        .map(|(o, m, b)| format!("    (&{o:?}, {m:?}, {b:?}),\n"))
        .collect();
    for (i, (got, want)) in rows.iter().zip(GC_PINS).enumerate() {
        assert_eq!(
            (got.0.as_slice(), got.1, got.2),
            *want,
            "GC row {i} drifted; every row now:\n{listing}"
        );
    }
    assert_eq!(rows.len(), GC_PINS.len(), "rows now:\n{listing}");
}
