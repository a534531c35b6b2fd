//! Randomized property tests for the invariants listed in DESIGN.md §6.
//!
//! Previously written with `proptest`; the build environment has no
//! registry access, so each property now drives a seeded [`Rng64`]
//! generator over many randomized cases. Cases are fully deterministic
//! per seed, so failures reproduce exactly.

use nvoverlay_suite::overlay::epoch::{reconstruct_abs, Epoch, HALF_SPACE};
use nvoverlay_suite::overlay::mnm::{NvmLoc, OmcBuffer, PagePool, RadixTable};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::addr::{Addr, LineAddr, ThreadId};
use nvoverlay_suite::sim::cache::CacheArray;
use nvoverlay_suite::sim::memsys::Runner;
use nvoverlay_suite::sim::rng::Rng64;
use nvoverlay_suite::sim::trace::TraceBuilder;
use nvoverlay_suite::sim::SimConfig;
use std::collections::HashMap;

const CASES: u64 = 64;

/// Epoch serial arithmetic is a strict total order within half the
/// space: exactly one of {a newer b, b newer a, a == b}.
#[test]
fn epoch_order_is_total_within_window() {
    let mut rng = Rng64::seed_from_u64(0x01);
    for _ in 0..CASES {
        let base = rng.gen_range(0u64..u64::from(u16::MAX) * 4);
        let d = rng.gen_range(1u64..HALF_SPACE);
        let a = Epoch::from_abs(base + d);
        let b = Epoch::from_abs(base);
        assert!(a.newer_than(b));
        assert!(!b.newer_than(a));
        assert!(!a.newer_than(a));
        assert!(a.at_least(b) && a.at_least(a));
    }
}

/// Tag reconstruction inverts tagging for any reference within the
/// half-space window.
#[test]
fn epoch_reconstruction_round_trips() {
    let mut rng = Rng64::seed_from_u64(0x02);
    for _ in 0..CASES {
        let abs = rng.gen_range(0u64..1 << 40);
        let delta = rng.gen_range(0u64..HALF_SPACE - 1) as i64;
        let sign = if abs.is_multiple_of(2) { 1 } else { -1 };
        let reference = abs as i64 + sign * delta;
        if reference < 0 {
            continue;
        }
        let got = reconstruct_abs(Epoch::from_abs(abs), reference as u64);
        assert_eq!(got, abs);
    }
}

/// The radix table behaves exactly like a map from lines to locations,
/// and its size metric only grows with node count.
#[test]
fn radix_table_matches_model() {
    let mut rng = Rng64::seed_from_u64(0x03);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..300);
        let mut table = RadixTable::new();
        let mut model: HashMap<u64, NvmLoc> = HashMap::new();
        for _ in 0..n {
            let line = rng.gen_range(0u64..1 << 30);
            let loc = NvmLoc {
                page: rng.gen_range(0u32..512),
                slot: rng.gen_range(0u8..64),
            };
            let fx = table.insert(LineAddr::new(line), loc);
            let old = model.insert(line, loc);
            assert_eq!(fx.displaced, old);
        }
        assert_eq!(table.len(), model.len() as u64);
        for (&line, &loc) in &model {
            assert_eq!(table.get(LineAddr::new(line)), Some(loc));
        }
        let listed: HashMap<u64, NvmLoc> = table.iter().map(|(l, v)| (l.raw(), v)).collect();
        assert_eq!(listed, model);
    }
}

/// Differential test of the radix table against the tree it models: a
/// `BTreeMap` line → location plus the distinct index prefixes of every
/// line ever mapped (nodes are never freed, so a prefix, once present,
/// stays a node). Every insert's effect, every node count, the Fig 13
/// size metric and the iteration order must agree, on address mixes
/// that share and split paths at every level — the top index bit (byte
/// address bit 47) included — with rewrites and removals of live lines.
#[test]
fn radix_table_tree_accounting_matches_model() {
    use std::collections::{BTreeMap, BTreeSet};
    const TOP: u64 = 1 << 42; // lines in the 48-bit space
    let mut rng = Rng64::seed_from_u64(0x0B);
    for _ in 0..CASES {
        let mut table = RadixTable::new();
        let mut model: BTreeMap<u64, NvmLoc> = BTreeMap::new();
        // Node identities: (depth, prefix) with depth 1–3 the inner
        // nodes below the root and depth 4 the leaves.
        let mut nodes: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut used: Vec<u64> = Vec::new();
        for _ in 0..rng.gen_range(1usize..400) {
            let line = match rng.gen_range(0u8..5) {
                0 if !used.is_empty() => used[rng.gen_range(0..used.len())],
                0 | 1 => rng.gen_range(0u64..1 << 12),
                2 => TOP - 1 - rng.gen_range(0u64..1 << 12),
                3 => rng.gen_range(0u64..TOP),
                _ => (rng.gen_range(0u64..1 << 9) << 33) | rng.gen_range(0u64..64),
            };
            let loc = NvmLoc {
                page: rng.gen_range(0u32..8),
                slot: rng.gen_range(0u8..4),
            };
            let l = LineAddr::new(line);
            match rng.gen_range(0u8..4) {
                0 => {
                    // Half the removals name the live location.
                    let live = model.get(&line).copied().filter(|_| rng.gen_bool(0.5));
                    let loc = live.unwrap_or(loc);
                    let removed = model.get(&line) == Some(&loc);
                    if removed {
                        model.remove(&line);
                    }
                    assert_eq!(table.remove_if(l, loc), removed, "remove_if {line:#x}");
                }
                1 => assert_eq!(table.get(l), model.get(&line).copied(), "get {line:#x}"),
                _ => {
                    let created = (1..=4u32)
                        .filter(|&depth| nodes.insert((depth, line >> (6 + 9 * (4 - depth)))))
                        .count() as u64;
                    let fx = table.insert(l, loc);
                    assert_eq!(fx.displaced, model.insert(line, loc), "displaced {line:#x}");
                    assert_eq!(fx.nodes_created, created, "nodes created by {line:#x}");
                    assert_eq!(fx.entry_writes, created + 1, "entry writes of {line:#x}");
                    used.push(line);
                }
            }
            let leaves = nodes.iter().filter(|&&(depth, _)| depth == 4).count() as u64;
            let inner = 1 + nodes.len() as u64 - leaves;
            assert_eq!((table.inner_nodes(), table.leaf_nodes()), (inner, leaves));
            assert_eq!(table.size_bytes(), inner * 4096 + leaves * 512);
            assert_eq!(table.len(), model.len() as u64);
        }
        let listed: Vec<(u64, NvmLoc)> = table.iter().map(|(l, v)| (l.raw(), v)).collect();
        let want: Vec<(u64, NvmLoc)> = model.iter().map(|(&l, &v)| (l, v)).collect();
        assert_eq!(listed, want, "iter lists every mapping in address order");
        let slots = (table.leaf_nodes() * 64) as f64;
        let occupancy = if slots == 0.0 {
            0.0
        } else {
            model.len() as f64 / slots
        };
        assert_eq!(table.leaf_occupancy(), occupancy);
    }
}

/// The page pool never double-allocates, never loses pages, and its
/// bitmap agrees with a reference model.
#[test]
fn page_pool_matches_model() {
    let mut rng = Rng64::seed_from_u64(0x04);
    for _ in 0..CASES {
        let steps = rng.gen_range(1usize..300);
        let mut pool = PagePool::new(64);
        let mut live: Vec<u32> = Vec::new();
        for _ in 0..steps {
            let alloc = rng.gen_bool(0.5);
            if alloc || live.is_empty() {
                match pool.allocate() {
                    Ok(p) => {
                        assert!(!live.contains(&p), "double allocation of {p}");
                        live.push(p);
                    }
                    Err(_) => assert_eq!(live.len(), 64),
                }
            } else {
                let p = live.swap_remove(live.len() / 2);
                pool.free(p);
                assert!(!pool.is_allocated(p));
            }
            assert_eq!(pool.allocated(), live.len());
            for &p in &live {
                assert!(pool.is_allocated(p));
            }
        }
    }
}

/// The OMC buffer conserves versions: every offered (line, epoch)
/// version is either retained (newest per line), spilled, or was
/// superseded by a same-epoch rewrite.
#[test]
fn omc_buffer_conserves_versions() {
    let mut rng = Rng64::seed_from_u64(0x05);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let mut buf = OmcBuffer::new(4, 2);
        // Model: newest (epoch, token) per (line, epoch) pair still owed.
        let mut owed: HashMap<(u64, u64), u64> = HashMap::new();
        let mut spilled: Vec<(u64, u64, u64)> = Vec::new();
        for i in 0..n {
            let line = rng.gen_range(0u64..24);
            let ep_step = rng.gen_range(1u64..4);
            let token = 1000 + i as u64;
            // Epochs per line must be non-decreasing (protocol order).
            let max_ep = owed
                .keys()
                .filter(|(l, _)| *l == line)
                .map(|(_, e)| *e)
                .max()
                .unwrap_or(0);
            let epoch = ep_step + max_ep;
            let out = buf.offer(LineAddr::new(line), token, epoch);
            owed.insert((line, epoch), token);
            for s in out.spilled {
                spilled.push((s.line.raw(), s.abs_epoch, s.token));
            }
        }
        for s in buf.drain() {
            spilled.push((s.line.raw(), s.abs_epoch, s.token));
        }
        // Everything owed must be accounted for among spills (exactly the
        // newest token of each (line, epoch)).
        for ((line, epoch), token) in owed {
            assert!(
                spilled.contains(&(line, epoch, token)),
                "version (line {line}, epoch {epoch}) lost"
            );
        }
    }
}

/// The cache array holds exactly what a bounded model predicts: every
/// resident line maps to the value last inserted/updated, and capacity
/// is never exceeded.
#[test]
fn cache_array_matches_model() {
    let mut rng = Rng64::seed_from_u64(0x06);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..300);
        let mut cache: CacheArray<u64> = CacheArray::new(4, 2);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for i in 0..n {
            let line = rng.gen_range(0u64..64);
            let v = i as u64;
            if cache.contains(LineAddr::new(line)) {
                *cache.get_mut(LineAddr::new(line)).unwrap() = v;
            } else if let Some((gone, _)) = cache.insert(LineAddr::new(line), v) {
                model.remove(&gone.raw());
            }
            model.insert(line, v);
            assert!(cache.len() <= cache.capacity());
        }
        for (line, v) in &model {
            assert_eq!(cache.peek(LineAddr::new(*line)), Some(v));
        }
        assert_eq!(cache.len(), model.len());
    }
}

/// The versioned hierarchy's protocol invariants (inclusion, version
/// ordering, single-writer, tag windows) hold at every quiescent point
/// of ANY random access sequence.
#[test]
fn cst_invariants_hold_under_random_traffic() {
    use nvoverlay_suite::overlay::cst::{AdvanceCause, CstConfig, VersionedHierarchy};
    use nvoverlay_suite::sim::addr::{CoreId, VdId};
    use nvoverlay_suite::sim::memsys::MemOp;
    let mut rng = Rng64::seed_from_u64(0x07);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..300);
        let epoch = rng.gen_range(10u64..100);
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(epoch)
            .build()
            .unwrap();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        for i in 0..n {
            let t = rng.gen_range(0u16..4);
            let line = rng.gen_range(0u64..120);
            let op = if rng.gen_bool(0.5) {
                MemOp::Store
            } else {
                MemOp::Load
            };
            h.access(CoreId(t), op, Addr::new(line * 64), i as u64 + 1);
            if i % 16 == 0 {
                let v = h.check_invariants();
                assert!(v.is_empty(), "violations after access {i}: {v:?}");
            }
            if i % 64 == 63 {
                let vd = VdId((i as u16 / 64) % 2);
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                h.tag_walk(vd);
            }
        }
        h.drain();
        let v = h.check_invariants();
        assert!(v.is_empty(), "violations after drain: {v:?}");
    }
}

/// Trace serialization round-trips any random trace bit-exactly.
#[test]
fn trace_io_round_trips() {
    let mut rng = Rng64::seed_from_u64(0x08);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..300);
        let mut tb = TraceBuilder::new(4);
        for _ in 0..n {
            let t = rng.gen_range(0u16..4);
            let line = rng.gen_range(0u64..1000);
            match rng.gen_range(0u8..3) {
                0 => {
                    tb.load(ThreadId(t), Addr::new(line * 64));
                }
                1 => {
                    tb.store(ThreadId(t), Addr::new(line * 64));
                }
                _ => {
                    tb.epoch_mark(ThreadId(t));
                }
            }
        }
        let trace = tb.build();
        let mut buf = Vec::new();
        nvoverlay_suite::sim::trace_io::write_trace(&trace, &mut buf).unwrap();
        let back = nvoverlay_suite::sim::trace_io::read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.thread_count(), trace.thread_count());
        for t in 0..4u16 {
            assert_eq!(back.thread(ThreadId(t)), trace.thread(ThreadId(t)));
        }
    }
}

/// SnapshotStore::diff equals a brute-force model over any random
/// version stream.
#[test]
fn snapshot_diff_matches_model() {
    use nvoverlay_suite::overlay::mnm::{Mnm, OmcConfig};
    use nvoverlay_suite::overlay::SnapshotStore;
    use nvoverlay_suite::sim::nvm::Nvm;

    let mut rng = Rng64::seed_from_u64(0x09);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..150);
        let mut m = Mnm::new(
            2,
            1,
            OmcConfig {
                pool_pages: 64,
                ..OmcConfig::default()
            },
        );
        let mut nvm = Nvm::new(4, 400, 200, 8, 100_000);
        // Per-line epochs must be non-decreasing (protocol order); build a
        // model of value-at-epoch as we go.
        let mut next_ep: HashMap<u64, u64> = HashMap::new();
        let mut writes: Vec<(u64, u64, u64)> = Vec::new(); // (line, epoch, token)
        let mut max_ep = 1;
        for i in 0..n {
            let line = rng.gen_range(0u64..24);
            let ep = rng.gen_range(1u64..6);
            let e = next_ep.get(&line).copied().unwrap_or(1).max(ep);
            next_ep.insert(line, e);
            let token = 10_000 + i as u64;
            m.receive_version(&mut nvm, 0, LineAddr::new(line), token, e);
            writes.push((line, e, token));
            max_ep = max_ep.max(e);
        }
        m.finish(&mut nvm, 0, max_ep);
        let store = SnapshotStore::new(&m);

        let value_at = |line: u64, epoch: u64| -> Option<u64> {
            writes
                .iter()
                .rfind(|(l, e, _)| *l == line && *e <= epoch)
                .map(|(_, _, t)| *t)
        };
        // Check diff between every adjacent epoch pair up to max_ep.
        for from in 1..max_ep {
            let to = from + 1;
            let d = store.diff(from, to).expect("readable");
            // Model: lines whose value differs.
            let mut expect: Vec<u64> = (0..24)
                .filter(|&l| value_at(l, from) != value_at(l, to))
                .collect();
            expect.sort_unstable();
            let got: Vec<u64> = d.iter().map(|c| c.line.raw()).collect();
            assert_eq!(got, expect, "diff({from}, {to})");
            for c in d {
                assert_eq!(c.before, value_at(c.line.raw(), from));
                assert_eq!(c.after, value_at(c.line.raw(), to));
            }
        }
    }
}

/// End-to-end: ANY random multithreaded trace recovers exactly the
/// golden image after finish (the headline correctness property).
#[test]
fn random_traces_recover_exactly() {
    let mut rng = Rng64::seed_from_u64(0x0A);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..400);
        let epoch = rng.gen_range(20u64..200);
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(epoch)
            .build()
            .unwrap();
        let mut tb = TraceBuilder::new(4);
        for _ in 0..n {
            let t = rng.gen_range(0u16..4);
            let line = rng.gen_range(0u64..160);
            if rng.gen_bool(0.5) {
                tb.store(ThreadId(t), Addr::new(line * 64));
            } else {
                tb.load(ThreadId(t), Addr::new(line * 64));
            }
        }
        let trace = tb.build();
        if trace.store_count() == 0 {
            continue;
        }
        let mut sys = NvOverlaySystem::new(&cfg);
        let report = Runner::new().run(&mut sys, &trace);
        let img = sys.recover().expect("stores committed");
        assert_eq!(img.len(), report.golden_image.len());
        for (line, token) in &report.golden_image {
            assert_eq!(img.read(line), Some(*token));
        }
    }
}
