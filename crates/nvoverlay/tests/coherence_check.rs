//! Per-access coherence check on seeded random streams.
//!
//! Both hierarchies — the baseline (`nvsim::hierarchy::Hierarchy`) and
//! NVOverlay's versioned one — run on one coherence engine. This test
//! feeds them random multi-core streams over a tiny machine (2–4 VDs,
//! 2-way sets everywhere, so evictions, downgrades and invalidations are
//! constant) under MESI and MOESI, with both the L1 fast path and the
//! reference path, and after every access checks:
//!
//! * the engine's structural checker (`Coherence::check_structure`):
//!   L1 ⊆ L2, directory sharers equal the L2 holders, no writable copy
//!   beside another VD's copy, at most one dirty L2 copy system-wide, at
//!   most one dirty L1 copy per VD (the versioned hierarchy adds its
//!   version-order and tag-window checks);
//! * that every load returns the flat model's value: the last token
//!   stored to the line.
//!
//! Epoch boundaries, tag walks, `clwb`s and L2/LLC walks ride along, and
//! some seeds start the versioned hierarchy just below a 16-bit group
//! boundary so the wrap-around flush runs too.

use nvoverlay::cst::{AdvanceCause, CstConfig, VersionedHierarchy};
use nvoverlay::epoch::HALF_SPACE;
use nvsim::addr::{Addr, CoreId, LineAddr, VdId};
use nvsim::config::Protocol;
use nvsim::hierarchy::Hierarchy;
use nvsim::memsys::MemOp;
use nvsim::rng::Rng64;
use nvsim::SimConfig;
use std::collections::HashMap;

const STEPS: u64 = 3_000;
const LINES: u64 = 40;

/// 2 cores per VD; L1 2 sets, L2 4 sets, LLC 2 slices of 4 sets; all
/// 2-way.
fn tiny(vds: u16, protocol: Protocol, fast_path: bool) -> SimConfig {
    SimConfig::builder()
        .cores(vds * 2, 2)
        .l1(256, 2, 4)
        .l2(512, 2, 8)
        .llc(1024, 2, 30, 2)
        .epoch_size_stores(37)
        .protocol(protocol)
        .replay_fast_path(fast_path)
        .build()
        .unwrap()
}

fn fail(what: &str, seed: u64, step: u64, report: String, state: String) -> ! {
    panic!("{what} after access {step} (seed {seed}):\n{report}\n{state}")
}

fn drive(seed: u64, vds: u16, protocol: Protocol, fast_path: bool) {
    let cfg = tiny(vds, protocol, fast_path);
    let cst = CstConfig {
        initial_epoch: if seed.is_multiple_of(2) {
            HALF_SPACE - 40
        } else {
            1
        },
        ..CstConfig::default()
    };
    let mut base = Hierarchy::new(&cfg);
    let mut ver = VersionedHierarchy::new(&cfg, cst);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = Rng64::seed_from_u64(seed);
    for step in 0..STEPS {
        let core = CoreId(rng.gen_range(0..vds * 2));
        let line = if rng.gen_bool(0.6) {
            rng.gen_range(0..8u64)
        } else {
            rng.gen_range(0..LINES)
        };
        let (op, token) = if rng.gen_bool(0.5) {
            (MemOp::Store, step + 1)
        } else {
            (MemOp::Load, 0)
        };
        let addr = Addr::new(line * 64);
        let want = if op == MemOp::Store {
            model.insert(line, token);
            token
        } else {
            model.get(&line).copied().unwrap_or(0)
        };
        let l = LineAddr::new(line);
        let (_, got) = base.access(core, op, addr, token);
        if got != want {
            fail(
                "baseline load value",
                seed,
                step,
                format!("{got} != {want}"),
                base.debug_line_state(l),
            );
        }
        let v = base.check_structure();
        if !v.is_empty() {
            fail(
                "baseline structure",
                seed,
                step,
                format!("{v:?}"),
                base.debug_line_state(l),
            );
        }
        let (_, _, got) = ver.access(core, op, addr, token);
        if got != want {
            fail(
                "versioned load value",
                seed,
                step,
                format!("{got} != {want}"),
                ver.debug_line_state(l),
            );
        }
        let v = ver.check_invariants();
        if !v.is_empty() {
            fail(
                "versioned invariants",
                seed,
                step,
                format!("{v:?}"),
                ver.debug_line_state(l),
            );
        }
        // Maintenance operations between accesses.
        let vd = VdId(rng.gen_range(0..vds));
        match rng.gen_range(0..64u32) {
            0 => base.advance_all_epochs(),
            1 => {
                base.clwb(LineAddr::new(rng.gen_range(0..LINES)));
            }
            2 => {
                for d in base.dirty_l2_lines(vd, |_, _| true) {
                    base.clean_l2_line(vd, d.line);
                }
            }
            3 => {
                for d in base.dirty_llc_lines(|_, _| true) {
                    base.clean_llc_line(d.line);
                }
            }
            4 => {
                ver.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
            }
            5 => {
                ver.tag_walk(vd);
            }
            _ => {}
        }
        ver.take_events();
    }
    base.drain_dirty();
    ver.drain();
    base.assert_structure();
    ver.assert_invariants();
    for (line, token) in model {
        let l = LineAddr::new(line);
        assert_eq!(base.newest_token(l), token, "baseline {l} (seed {seed})");
        assert_eq!(ver.newest_token(l), token, "versioned {l} (seed {seed})");
    }
}

fn sweep(protocol: Protocol) {
    for seed in 1..=20u64 {
        let vds = 2 + (seed % 3) as u16;
        drive(seed, vds, protocol, seed % 3 != 0);
    }
}

#[test]
fn every_access_is_coherent_mesi() {
    sweep(Protocol::Mesi);
}

#[test]
fn every_access_is_coherent_moesi() {
    sweep(Protocol::Moesi);
}
