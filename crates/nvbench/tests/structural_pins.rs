//! Structural results pinned to constants.
//!
//! `replay_fastpath` and `shard_determinism` compare two runs of the same
//! mapping-table and accounting code, so a change that shifts both sides
//! alike passes them. This test pins the figures' structural outputs —
//! cycles, stall cycles, the NVM byte breakdown, and the master table's
//! size and entry count — to constants, for the schemes whose NVM
//! metadata goes through `RadixTable` (NVOverlay with and without the
//! OMC buffer, SW Shadow, HW Shadow) on the Quick B+Tree and Hash Table
//! traces. A deliberate model change must update the constants here.

use nvbench::{default_jobs, gen_traces, run_nvoverlay, run_ordered, run_scheme, EnvScale, Scheme};
use nvoverlay::mnm::OmcConfig;
use nvoverlay::system::NvOverlayOptions;
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
