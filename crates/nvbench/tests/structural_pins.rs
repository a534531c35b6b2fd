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
//! pins those paths' numbers. A third test pins the per-line state the
//! other two never read, for every scheme on both traces, serially and at
//! 2 shards: NVM wear, DRAM reads, writes and OID tags, the committed
//! image of SW Logging, SW Shadow and HW Shadow (length, an order-free
//! digest and the epochs committed), the load-value oracle's image
//! (length and digest) and its mismatch count. A deliberate model change
//! must update the constants here.

use nvbaselines::{EpochCommitSystem, IdealSystem, Picl, PiclLevel};
use nvbench::{default_jobs, gen_traces, run_ordered, EnvScale, Scheme};
use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
use nvoverlay::system::{NvOverlayOptions, NvOverlaySystem};
use nvsim::addr::{Addr, CoreId, LineAddr, Token};
use nvsim::config::Protocol;
use nvsim::dram::Dram;
use nvsim::linetable::LineTable;
use nvsim::memsys::{AccessOutcome, MemOp, MemorySystem, Runner};
use nvsim::noc::Noc;
use nvsim::nvm::Nvm;
use nvsim::shard::ExchangeEntry;
use nvsim::stats::{NvmWriteKind, SystemStats};
use nvsim::trace::PackedTrace;
use nvsim::{Cycle, ShardPlan, SimConfig};
use nvworkloads::Workload;
use std::sync::{Arc, Mutex};

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
        Scheme::SwLogging | Scheme::SwShadow | Scheme::HwShadow => row(
            EpochCommitSystem::new_shared(c(), scheme.commit_kind()),
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

/// One machine's per-line state: NVM wear as `[unique_keys,
/// total_writes, max_key_writes]`, DRAM as `[reads, writes, oid_tags]`
/// and the committed image as `[len, digest, epochs_committed]` (zeros
/// for schemes without one).
type Lines = ([u64; 3], [u64; 3], [u64; 3]);

/// One pinned per-line run: wear, DRAM and the committed image (summed
/// over islands; the hottest key is the maximum), the oracle image as
/// `(len, digest)`, and the load-value mismatch count.
type LineRow = ([u64; 3], [u64; 3], [u64; 3], (u64, u64), u64);

/// Wraps a scheme so its per-line state is read when the runner finishes
/// it. Sharded replay drops every island machine inside the runner, so
/// this is the only place the state can be seen.
struct Probe<'a, S> {
    sys: S,
    island: usize,
    read: fn(&S) -> Lines,
    sink: &'a Mutex<Vec<(usize, Lines)>>,
}

impl<S: MemorySystem> MemorySystem for Probe<'_, S> {
    fn name(&self) -> &'static str {
        self.sys.name()
    }
    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        now: Cycle,
    ) -> AccessOutcome {
        self.sys.access(core, op, addr, token, now)
    }
    fn epoch_mark(&mut self, core: CoreId, now: Cycle) -> Cycle {
        self.sys.epoch_mark(core, now)
    }
    fn finish(&mut self, now: Cycle) {
        self.sys.finish(now);
        let lines = (self.read)(&self.sys);
        self.sink.lock().expect("sink").push((self.island, lines));
    }
    fn stats(&self) -> &SystemStats {
        self.sys.stats()
    }
    fn metrics(&self) -> nvsim::metrics::Registry {
        self.sys.metrics()
    }
    fn shardable(&self) -> bool {
        self.sys.shardable()
    }
    fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        self.sys.import_line(line, token)
    }
    fn import_lines(
        &mut self,
        entries: &[ExchangeEntry],
        island: u16,
        golden: &mut nvsim::memsys::Oracle,
    ) -> u64 {
        self.sys.import_lines(entries, island, golden)
    }
    fn epoch_floor(&self) -> u64 {
        self.sys.epoch_floor()
    }
    fn raise_epoch_floor(&mut self, floor: u64, now: Cycle) -> Cycle {
        self.sys.raise_epoch_floor(floor, now)
    }
}

fn lines_of(nvm: &Nvm, dram: &Dram, committed: [u64; 3]) -> Lines {
    let w = nvm.wear_report();
    (
        [w.unique_keys, w.total_writes, w.max_key_writes],
        [dram.reads(), dram.writes(), dram.oid_tag_count() as u64],
        committed,
    )
}

/// A committed image as `[len, digest, epochs_committed]`.
fn committed_of(image: &LineTable<LineAddr, Token>, epochs: u64) -> [u64; 3] {
    [image.len() as u64, image_digest(image), epochs]
}

/// An order-free digest of a line image (the oracle's or a committed
/// one).
fn image_digest(image: &LineTable<LineAddr, Token>) -> u64 {
    image.iter().fold(0u64, |acc, (l, t)| {
        let h = (l.raw() ^ t.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc.wrapping_add(h ^ (h >> 31))
    })
}

/// Replays `trace` on machines from `build`, serially (`plan` is `None`)
/// or island-sharded on 2 workers, and reads the per-line row.
fn line_row<S: MemorySystem>(
    build: impl Fn() -> S + Sync,
    read: fn(&S) -> Lines,
    trace: &PackedTrace,
    plan: Option<&ShardPlan>,
) -> LineRow {
    let sink = Mutex::new(Vec::new());
    let probe = |island| Probe {
        sys: build(),
        island,
        read,
        sink: &sink,
    };
    let (image, mismatches) = match plan {
        None => {
            let r = Runner::new().run_packed(&mut probe(0), trace);
            (r.golden_image, r.load_value_mismatches)
        }
        Some(plan) => {
            let r = Runner::new()
                .run_packed_sharded_prof(probe, trace, plan, 2, false)
                .0;
            (r.golden_image, r.load_value_mismatches)
        }
    };
    let mut islands = sink.into_inner().expect("sink");
    islands.sort_by_key(|(i, _)| *i);
    let (mut wear, mut dram, mut committed) = ([0u64; 3], [0u64; 3], [0u64; 3]);
    for (_, (w, d, c)) in islands {
        wear = [wear[0] + w[0], wear[1] + w[1], wear[2].max(w[2])];
        dram = [dram[0] + d[0], dram[1] + d[1], dram[2] + d[2]];
        committed = [
            committed[0] + c[0],
            committed[1].wrapping_add(c[1]),
            committed[2] + c[2],
        ];
    }
    let digest = image_digest(&image);
    (
        wear,
        dram,
        committed,
        (image.len() as u64, digest),
        mismatches,
    )
}

fn run_line_row(
    scheme: Scheme,
    cfg: &Arc<SimConfig>,
    trace: &PackedTrace,
    plan: Option<&ShardPlan>,
) -> LineRow {
    let c = || Arc::clone(cfg);
    // Every scheme exposes its NVM device and its hierarchy's DRAM; the
    // epoch-commit schemes also their committed image.
    macro_rules! row {
        ($build:expr) => {
            line_row(
                || $build,
                |s| lines_of(s.nvm(), s.hierarchy().dram(), [0; 3]),
                trace,
                plan,
            )
        };
        ($build:expr, committed) => {
            line_row(
                || $build,
                |s| {
                    let committed = committed_of(s.recovered_image(), s.epochs_committed());
                    lines_of(s.nvm(), s.hierarchy().dram(), committed)
                },
                trace,
                plan,
            )
        };
    }
    match scheme {
        Scheme::Ideal => row!(IdealSystem::new_shared(c())),
        Scheme::SwLogging | Scheme::SwShadow | Scheme::HwShadow => row!(
            EpochCommitSystem::new_shared(c(), scheme.commit_kind()),
            committed
        ),
        Scheme::Picl => row!(Picl::new_shared(c(), PiclLevel::Llc)),
        Scheme::PiclL2 => row!(Picl::new_shared(c(), PiclLevel::L2)),
        Scheme::NvOverlay => row!(NvOverlaySystem::new_shared(c())),
        Scheme::NvOverlayBuffered => row!(NvOverlaySystem::with_omc_buffer_shared(c())),
    }
}

/// Rows in `WORKLOADS` × `Scheme::ALL` order (serial), then `WORKLOADS` ×
/// the shardable schemes (2 shards; HW Shadow replays only serially).
#[rustfmt::skip]
const LINE_PINS: &[LineRow] = &[
    // Serial, B+Tree: Ideal, SW Logging, SW Shadow, HW Shadow, PiCL, PiCL-L2, NVOverlay, NVOverlay+Buf
    ([0, 0, 0], [10087, 7894, 0], [0, 0, 0], (7894, 14263240910054523457), 0),
    ([7894, 14512, 7], [11500, 14512, 0], [7894, 2309242198901865000, 12], (7894, 2309242198901865000), 0),
    ([11867, 14484, 4], [11451, 14484, 0], [7894, 15775056642783527483, 12], (7894, 15775056642783527483), 0),
    ([11867, 14484, 4], [11451, 14484, 0], [7894, 15775056642783527483, 12], (7894, 15775056642783527483), 0),
    ([7894, 14505, 8], [11586, 14505, 0], [0, 0, 0], (7894, 2726060519535774189), 0),
    ([7894, 15958, 16], [11429, 14156, 0], [0, 0, 0], (7894, 5363524270880486254), 0),
    ([7894, 15713, 11], [10085, 7894, 7894], [0, 0, 0], (7894, 15331796608253814805), 0),
    ([7894, 14407, 8], [10081, 7894, 7894], [0, 0, 0], (7894, 6927507255018695919), 0),
    // Serial, Hash Table
    ([0, 0, 0], [9509, 7108, 0], [0, 0, 0], (7108, 3408221680568699379), 0),
    ([7108, 7421, 2], [9509, 7421, 0], [7108, 3812150227755412821, 2], (7108, 3812150227755412821), 0),
    ([7425, 7425, 1], [9509, 7425, 0], [7108, 3408221680568699379, 2], (7108, 3408221680568699379), 0),
    ([7425, 7425, 1], [9509, 7425, 0], [7108, 3408221680568699379, 2], (7108, 3408221680568699379), 0),
    ([7108, 7440, 2], [9509, 7440, 0], [0, 0, 0], (7108, 10925837018137220416), 0),
    ([7108, 8037, 4], [9509, 7408, 0], [0, 0, 0], (7108, 3792430063651808255), 0),
    ([7108, 7954, 4], [9509, 7108, 7108], [0, 0, 0], (7108, 8517423312107117975), 0),
    ([7108, 7379, 2], [9509, 7108, 7108], [0, 0, 0], (7108, 3408221680568699379), 0),
    // 2 shards, B+Tree: Ideal, SW Logging, SW Shadow, PiCL, PiCL-L2, NVOverlay, NVOverlay+Buf
    ([0, 0, 0], [18719, 53783, 0], [0, 0, 0], (7894, 7390995486339656635), 0),
    ([13990, 15583, 4], [18719, 55376, 0], [13990, 7544326417564304435, 82], (7894, 7390995486339656635), 0),
    ([15432, 15583, 2], [18719, 55376, 0], [13990, 13325058086852275776, 82], (7894, 7390995486339656635), 0),
    ([13990, 15583, 4], [18719, 55376, 0], [0, 0, 0], (7894, 4138912670543433080), 0),
    ([13990, 15583, 4], [18719, 55376, 0], [0, 0, 0], (7894, 4138912670543433080), 0),
    ([13990, 15696, 4], [18719, 53783, 13990], [0, 0, 0], (7894, 7390995486339656635), 0),
    ([13990, 15585, 4], [18719, 53783, 13990], [0, 0, 0], (7894, 7390995486339656635), 0),
    // 2 shards, Hash Table
    ([0, 0, 0], [10437, 9693, 0], [0, 0, 0], (7108, 15261579232889248287), 0),
    ([7871, 7911, 2], [10437, 9733, 0], [7871, 884141190170994428, 16], (7108, 15261579232889248287), 0),
    ([7911, 7911, 1], [10437, 9733, 0], [7871, 884141190170994428, 16], (7108, 15261579232889248287), 0),
    ([7871, 7911, 2], [10437, 9733, 0], [0, 0, 0], (7108, 15261579232889248287), 0),
    ([7871, 8036, 2], [10437, 9733, 0], [0, 0, 0], (7108, 15261579232889248287), 0),
    ([7871, 7954, 2], [10437, 9693, 7871], [0, 0, 0], (7108, 15261579232889248287), 0),
    ([7871, 7911, 2], [10437, 9693, 7871], [0, 0, 0], (7108, 15261579232889248287), 0),
];

#[test]
fn per_line_state_matches_pinned_constants() {
    let cfg = Arc::new(EnvScale::Quick.sim_config());
    let island = Arc::new(cfg.island_config());
    let jobs = default_jobs();
    let traces = gen_traces(&WORKLOADS, &EnvScale::Quick.suite_params(), jobs);
    let plans: Vec<Arc<ShardPlan>> = traces.iter().map(|t| ShardPlan::cached(t, &cfg)).collect();
    let mut cells: Vec<(Scheme, bool, usize)> = Vec::new();
    for w in 0..WORKLOADS.len() {
        cells.extend(Scheme::ALL.map(|s| (s, false, w)));
    }
    for w in 0..WORKLOADS.len() {
        cells.extend(
            Scheme::ALL
                .into_iter()
                .filter(|s| s.shardable())
                .map(|s| (s, true, w)),
        );
    }
    let rows: Vec<LineRow> = run_ordered(cells.len(), jobs, |i| {
        let (scheme, sharded, w) = cells[i];
        if sharded {
            run_line_row(scheme, &island, &traces[w], Some(&plans[w]))
        } else {
            run_line_row(scheme, &cfg, &traces[w], None)
        }
    });
    let listing: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    for (i, (got, want)) in rows.iter().zip(LINE_PINS).enumerate() {
        let (scheme, sharded, w) = cells[i];
        assert_eq!(
            got,
            want,
            "{scheme} on {} (sharded: {sharded}): per-line state drifted; every row now:\n{listing}",
            WORKLOADS[w].name()
        );
    }
    assert_eq!(rows.len(), LINE_PINS.len(), "rows now:\n{listing}");
}
