//! Executable invariants of the versioned hierarchy.
//!
//! DESIGN.md §6 lists the invariants CST maintains; this module makes
//! them checkable at any quiescent point (between accesses). The checker
//! is exhaustive and O(cache contents) — meant for tests and debugging,
//! not the simulation fast path.
//!
//! The protocol's structural invariants — inclusion, an exact directory,
//! single writer per VD, no writable copy beside another VD's, at most
//! one dirty L2 copy — are the coherence engine's own checker,
//! [`nvsim::coherence::Coherence::check_structure`], shared with the
//! baselines. The versioned ones are checked here:
//!
//! 1. **Version ordering (§IV-A2)** — an L1 copy's OID is never older
//!    than the L2 copy's OID for the same line.
//! 2. **Tag-window discipline** — every cached OID reconstructs within
//!    half the epoch space of its VD's current epoch (the wrap-around
//!    flush guarantee, §IV-D).
//! 3. **Version causality** — no cached version is tagged newer than its
//!    VD's current epoch.

use super::hierarchy::VersionedHierarchy;
use crate::epoch::Epoch;
use nvsim::addr::{LineAddr, VdId};
use nvsim::coherence::Violation;
use std::fmt;

/// A violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A structural coherence invariant (inclusion, directory, writers).
    Structural(Violation),
    /// An L1 version is older than the L2 version of the same line.
    VersionOrderBroken {
        /// Core whose L1 violates the order.
        core: u16,
        /// The line.
        line: LineAddr,
        /// L1 OID tag.
        l1_oid: u16,
        /// L2 OID tag.
        l2_oid: u16,
    },
    /// A cached version is tagged in the future of its VD's epoch.
    FutureVersion {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
        /// The offending tag.
        oid: u16,
        /// The VD's current tag.
        cur: u16,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Structural(v) => v.fmt(f),
            InvariantViolation::VersionOrderBroken {
                core,
                line,
                l1_oid,
                l2_oid,
            } => write!(
                f,
                "version order broken on {line}: core{core} L1 @{l1_oid} older than L2 @{l2_oid}"
            ),
            InvariantViolation::FutureVersion { vd, line, oid, cur } => {
                write!(f, "vd{vd} caches {line} @{oid}, newer than its epoch {cur}")
            }
        }
    }
}

impl VersionedHierarchy {
    /// Checks every invariant; returns all violations found (empty =
    /// healthy). Quiescent-point use only.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut v: Vec<_> = self
            .check_structure()
            .into_iter()
            .map(InvariantViolation::Structural)
            .collect();
        self.check_version_order(&mut v);
        self.check_tag_windows(&mut v);
        v
    }

    /// An L1 copy is never older than its L2 copy (§IV-A2).
    fn check_version_order(&self, out: &mut Vec<InvariantViolation>) {
        for (core, l1) in self.l1s.iter().enumerate() {
            let vd = self.vd_of(nvsim::addr::CoreId(core as u16));
            for (line, m) in l1.iter() {
                if let Some(l2) = self.l2s[vd.index()].peek(line) {
                    if l2.tag.oid.newer_than(m.tag.oid) {
                        out.push(InvariantViolation::VersionOrderBroken {
                            core: core as u16,
                            line,
                            l1_oid: m.tag.oid.raw(),
                            l2_oid: l2.tag.oid.raw(),
                        });
                    }
                }
            }
        }
    }

    /// Every cached tag reconstructs at or before its VD's current epoch
    /// (and hence within the half-space window); LLC tags at or before
    /// the global maximum.
    fn check_tag_windows(&self, out: &mut Vec<InvariantViolation>) {
        let mut check = |vd: u16, line: LineAddr, oid: Epoch, cur: Epoch| {
            if oid.newer_than(cur) {
                out.push(InvariantViolation::FutureVersion {
                    vd,
                    line,
                    oid: oid.raw(),
                    cur: cur.raw(),
                });
            }
        };
        for (vdix, cur_abs) in self.epochs_abs().iter().enumerate() {
            let cur = Epoch::from_abs(*cur_abs);
            let l1s = self
                .local_cores(VdId(vdix as u16))
                .map(|c| &self.l1s[c as usize]);
            for arr in std::iter::once(&self.l2s[vdix]).chain(l1s) {
                for (line, m) in arr.iter() {
                    check(vdix as u16, line, m.tag.oid, cur);
                }
            }
        }
        let max_abs = self.epochs_abs().iter().copied().max().unwrap_or(1);
        let max_tag = Epoch::from_abs(max_abs);
        for slice in &self.llc {
            for (line, m) in slice.iter() {
                check(u16::MAX, line, m.tag.oid, max_tag);
            }
        }
    }

    /// Panics with a readable report if any invariant is violated
    /// (test helper).
    ///
    /// # Panics
    /// Panics when [`VersionedHierarchy::check_invariants`] is non-empty.
    pub fn assert_invariants(&self) {
        let v = self.check_invariants();
        assert!(
            v.is_empty(),
            "versioned hierarchy invariants violated:\n{}",
            v.iter()
                .map(|x| format!("  - {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Hot-path validation hook, called by `NvOverlaySystem` at quiescent
    /// points (epoch advances and the final drain).
    ///
    /// The checks are O(cache contents) — far too expensive for release
    /// sweeps, which replay millions of accesses. This compiles to
    /// nothing unless the build carries `debug_assertions` (every `cargo
    /// test`) or the `strict-invariants` cargo feature (opt-in release
    /// validation, forwarded from the workspace root as
    /// `nvoverlay-suite/strict-invariants`).
    ///
    /// # Panics
    /// As [`VersionedHierarchy::assert_invariants`], when enabled.
    #[inline]
    pub fn debug_validate(&self) {
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        self.assert_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{AdvanceCause, CstConfig};
    use nvsim::addr::{Addr, CoreId, VdId};
    use nvsim::config::SimConfig;
    use nvsim::memsys::MemOp;

    fn hier() -> VersionedHierarchy {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(100)
            .build()
            .unwrap();
        VersionedHierarchy::new(&cfg, CstConfig::default())
    }

    #[test]
    fn fresh_hierarchy_is_healthy() {
        hier().assert_invariants();
    }

    #[test]
    fn invariants_hold_through_mixed_traffic() {
        let mut h = hier();
        for i in 0..3000u64 {
            let core = CoreId((i % 4) as u16);
            let line = (i * 13 + i / 17) % 150;
            if i % 3 == 0 {
                h.access(core, MemOp::Load, Addr::new(line * 64), 0);
            } else {
                h.access(core, MemOp::Store, Addr::new(line * 64), i);
            }
            if i % 257 == 0 {
                h.assert_invariants();
            }
            if i % 500 == 499 {
                let vd = VdId(((i / 500) % 2) as u16);
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                h.tag_walk(vd);
                h.assert_invariants();
            }
        }
        h.drain();
        h.assert_invariants();
    }

    #[test]
    fn invariants_hold_across_wrap() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(10)
            .build()
            .unwrap();
        let cst = CstConfig {
            initial_epoch: crate::epoch::HALF_SPACE - 30,
            ..CstConfig::default()
        };
        let mut h = VersionedHierarchy::new(&cfg, cst);
        for i in 0..800u64 {
            h.access(
                CoreId((i % 4) as u16),
                MemOp::Store,
                Addr::new((i % 40) * 64),
                i + 1,
            );
            if i % 100 == 99 {
                h.assert_invariants();
            }
        }
        assert!(h.wrap_flushes() >= 1, "the run crossed a group boundary");
        h.assert_invariants();
    }
}
