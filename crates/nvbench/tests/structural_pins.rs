//! Structural results pinned to constants.
//!
//! `replay_fastpath` and `shard_determinism` compare two runs of the same
//! mapping-table and accounting code, so a change that shifts both sides
//! alike passes them. This test pins the figures' structural outputs to
//! constants for every scheme on the Quick B+Tree and Hash Table traces:
//! cycles, stall cycles, the NVM byte breakdown, the master table's size
//! and entry count (NVOverlay), and the coherence outcome — L1, L2 and
//! LLC hits, memory fetches and the NoC message total. A MOESI leg pins
//! PiCL and NVOverlay under the other protocol. A second test pins the
//! OMC's garbage collection and version compaction on the Quick B+Tree
//! under a small pool (`KeepAll`, `DropMerged`, and GC after
//! `simulate_reboot`): the per-OMC counters, the master table and the NVM
//! bytes by kind. The default pool never frees a page, so nothing else
//! pins those paths' numbers. A deliberate model change must update the
//! constants here.

use nvbaselines::{HwShadow, IdealSystem, Picl, PiclLevel, SwShadow, SwUndoLogging};
use nvbench::{default_jobs, gen_traces, run_ordered, EnvScale, Scheme};
use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
use nvoverlay::system::{NvOverlayOptions, NvOverlaySystem};
use nvsim::config::Protocol;
use nvsim::memsys::{MemorySystem, Runner};
use nvsim::noc::Noc;
use nvsim::nvm::Nvm;
use nvsim::stats::NvmWriteKind;
use nvsim::trace::PackedTrace;
use nvsim::SimConfig;
use nvworkloads::Workload;
use std::sync::Arc;

/// One pinned run: cycles, stall cycles, NVM bytes as
/// `[data, log, meta, context]`, `(master_bytes, master_entries)` for
/// the NVOverlay schemes, and the coherence outcome as
/// `[l1_hits, l2_hits, llc_hits, mem_fetches, noc_messages]`.
type Row = (u64, u64, [u64; 4], Option<(u64, u64)>, [u64; 5]);

const WORKLOADS: [Workload; 2] = [Workload::BTree, Workload::HashTable];

/// The MESI rows cover `Scheme::ALL`; the MOESI leg covers these.
const MOESI_SCHEMES: [Scheme; 2] = [Scheme::Picl, Scheme::NvOverlay];

/// Rows in `WORKLOADS` × `Scheme::ALL` order (MESI), then `WORKLOADS` ×
/// `MOESI_SCHEMES` order (MOESI).
#[rustfmt::skip]
const PINS: &[Row] = &[
    // MESI, B+Tree: Ideal, SW Logging, SW Shadow, HW Shadow, PiCL, PiCL-L2, NVOverlay, NVOverlay+Buf
    (530348, 0, [0, 0, 0, 0], None, [168451, 5457, 10213, 10087, 69393]),
    (6846738, 95060208, [928768, 1044864, 96, 0], None, [168444, 5511, 3460, 11500, 69330]),
    (6984038, 97136988, [926976, 0, 118216, 0], None, [168476, 5459, 3501, 11451, 69324]),
    (1683638, 17202888, [926976, 0, 118216, 0], None, [168476, 5459, 3501, 11451, 69324]),
    (928530, 5815298, [928320, 1044360, 0, 0], None, [168409, 5532, 3330, 11586, 69322]),
    (959508, 6360486, [1021312, 1125504, 0, 0], None, [168378, 5405, 3580, 11429, 69785]),
    (708744, 2630618, [1005632, 0, 117472, 44544], Some((181248, 7894)), [168509, 5305, 10286, 10085, 69665]),
    (579434, 569810, [922048, 0, 117704, 45056], Some((181248, 7894)), [168523, 5491, 10140, 10081, 69174]),
    // MESI, Hash Table
    (150420, 0, [0, 0, 0, 0], None, [3251, 124, 782, 9509, 15277]),
    (2687714, 40318908, [474944, 534312, 16, 0], None, [3247, 124, 509, 9509, 15284]),
    (2680856, 40486600, [475200, 0, 60952, 0], None, [3251, 124, 510, 9509, 15277]),
    (585856, 6966600, [475200, 0, 60952, 0], None, [3251, 124, 510, 9509, 15277]),
    (384126, 3558810, [476160, 535680, 0, 0], None, [3244, 126, 497, 9509, 15287]),
    (414822, 4017490, [514368, 570096, 0, 0], None, [3244, 129, 520, 9509, 15285]),
    (306944, 2000482, [509056, 0, 60632, 8192], Some((130560, 7108)), [3249, 125, 782, 9509, 15368]),
    (150420, 240, [472256, 0, 60624, 8192], Some((130560, 7108)), [3251, 124, 782, 9509, 15369]),
    // MOESI: PiCL, NVOverlay on B+Tree, then on Hash Table
    (916836, 5908402, [931840, 1048320, 0, 0], None, [168401, 5495, 1, 8272, 79752]),
    (542866, 231678, [991872, 0, 118120, 44032], Some((181248, 7894)), [168453, 5402, 0, 8272, 79889]),
    (387236, 3618534, [475968, 535464, 0, 0], None, [3242, 127, 7, 9508, 15303]),
    (237180, 853424, [501952, 0, 60656, 8192], Some((130560, 7108)), [3251, 126, 13, 9508, 15366]),
];

/// Replays `trace` on `sys` and reads the row off the finished system.
fn row<S: MemorySystem>(
    mut sys: S,
    trace: &PackedTrace,
    noc: impl Fn(&S) -> &Noc,
    master: impl Fn(&S) -> Option<(u64, u64)>,
) -> Row {
    let r = Runner::new().run_packed(&mut sys, trace);
    let st = sys.stats();
    let a = &st.access;
    (
        r.cycles,
        r.stall_cycles,
        [
            NvmWriteKind::Data,
            NvmWriteKind::Log,
            NvmWriteKind::MapMetadata,
            NvmWriteKind::Context,
        ]
        .map(|k| st.nvm.bytes(k)),
        master(&sys),
        [
            a.l1_hits,
            a.l2_hits,
            a.llc_hits,
            a.mem_fetches,
            noc(&sys).total(),
        ],
    )
}

fn no_master<S>(_: &S) -> Option<(u64, u64)> {
    None
}

fn run_row(scheme: Scheme, cfg: &Arc<SimConfig>, trace: &PackedTrace) -> Row {
    let c = || Arc::clone(cfg);
    match scheme {
        Scheme::Ideal => row(
            IdealSystem::new_shared(c()),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::SwLogging => row(
            SwUndoLogging::new_shared(c()),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::SwShadow => row(
            SwShadow::new_shared(c()),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::HwShadow => row(
            HwShadow::new_shared(c()),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::Picl => row(
            Picl::new_shared(c(), PiclLevel::Llc),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::PiclL2 => row(
            Picl::new_shared(c(), PiclLevel::L2),
            trace,
            |s| s.hierarchy().noc(),
            no_master,
        ),
        Scheme::NvOverlay | Scheme::NvOverlayBuffered => {
            let opts = NvOverlayOptions {
                omc: OmcConfig {
                    buffer: (scheme == Scheme::NvOverlayBuffered)
                        .then(|| (cfg.llc.sets(), cfg.llc.ways)),
                    ..OmcConfig::default()
                },
                ..NvOverlayOptions::default()
            };
            row(
                NvOverlaySystem::with_options_shared(c(), opts),
                trace,
                |s| s.hierarchy().noc(),
                |s| Some((s.mnm().master_size_bytes(), s.mnm().master_entries())),
            )
        }
    }
}

#[test]
fn structural_results_match_pinned_constants() {
    let mesi = Arc::new(EnvScale::Quick.sim_config());
    let moesi = Arc::new(SimConfig {
        protocol: Protocol::Moesi,
        ..EnvScale::Quick.sim_config()
    });
    let mut cells: Vec<(Scheme, &Arc<SimConfig>, usize)> = Vec::new();
    for w in 0..WORKLOADS.len() {
        cells.extend(Scheme::ALL.map(|s| (s, &mesi, w)));
    }
    for w in 0..WORKLOADS.len() {
        cells.extend(MOESI_SCHEMES.map(|s| (s, &moesi, w)));
    }
    let jobs = default_jobs();
    let traces = gen_traces(&WORKLOADS, &EnvScale::Quick.suite_params(), jobs);
    let rows: Vec<Row> = run_ordered(cells.len(), jobs, |i| {
        let (scheme, cfg, w) = cells[i];
        run_row(scheme, cfg, &traces[w])
    });
    let listing: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    for (i, (got, want)) in rows.iter().zip(PINS).enumerate() {
        let (scheme, cfg, w) = cells[i];
        assert_eq!(
            got,
            want,
            "{scheme} on {} ({:?}): structural result drifted; every row now:\n{listing}",
            WORKLOADS[w].name(),
            cfg.protocol
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
