//! The store crash target: crashes the on-disk snapshot store.
//!
//! Where the NVM target crashes the *simulated memory system*, this one
//! crashes the *backup machinery* around it. [`StoreTarget::prepare`]
//! runs the workload once, exports the exact snapshot image, and records
//! a full backup → incremental backup → remove → gc script against a
//! journaling in-memory store. A check replays a prefix cut of the op
//! journal (optionally tearing the boundary write to a byte prefix,
//! optionally flipping one bit in a surviving file — latent media
//! corruption), reopens the store, and asserts the robustness contract:
//!
//! * a **clean crash prefix** (no flip) must open to one of the
//!   script's committed manifests, list exactly that version's backup
//!   set, and restore every listed backup to the byte-exact image that
//!   commit captured — never a panic, never a hybrid;
//! * a **corrupted image** (flip injected) may additionally fail with a
//!   typed [`StoreError`] — but whatever *does* restore is held to the
//!   same exactness;
//! * every successful restore must also pass the consistency-cut
//!   invariants ([`TraceOracle::check_cut`]) against the trace oracle,
//!   rebuild a live backend whose `time_travel` agrees with the stored
//!   master, and (when the caller injects a [`MountCheck`]) mount under
//!   the query service.

use crate::explore::{sites_line, verdict, ChaosConfig, CrashTarget, Outcome, Tally};
use crate::oracle::TraceOracle;
use crate::report::ChaosReport;
use nvoverlay::mnm::Mnm;
use nvoverlay::system::NvOverlaySystem;
use nvsim::addr::{LineAddr, Token};
use nvsim::config::SimConfig;
use nvsim::fastmap::FastHashMap;
use nvsim::memsys::Runner;
use nvsim::rng::Rng64;
use nvsim::trace::Trace;
use nvstore::{fault, MemIo, SnapshotExport, Store, StoreError, StoreOp};

/// A caller-injected mount probe: given the rebuilt live backend and
/// the restored export, verify the snapshot actually serves (the `nvo`
/// CLI injects `nvserve::Mount` here; the crate itself stays free of a
/// dependency cycle on the query service).
pub type MountCheck = dyn Fn(&Mnm, &SnapshotExport) -> Result<(), String> + Sync;

/// Where in the store's commit protocol a crash site sits, keyed by the
/// op at the crash boundary. Stable kebab-case names, in report order.
const CATEGORIES: [&str; 9] = [
    "shadow-write",
    "root-write",
    "data-write",
    "layer-publish",
    "manifest-publish",
    "quarantine-move",
    "rename",
    "remove",
    "end-of-script",
];

/// The index in [`CATEGORIES`] of the op at a crash boundary.
fn category_of(op: Option<&StoreOp>) -> usize {
    match op {
        Some(StoreOp::Write { path, .. }) if path.starts_with("tmp/") => 0,
        Some(StoreOp::Write { path, .. }) if path.starts_with("ROOT.") => 1,
        Some(StoreOp::Write { .. }) => 2,
        Some(StoreOp::Rename { to, .. }) if to.starts_with("layers/") => 3,
        Some(StoreOp::Rename { to, .. }) if to.starts_with("manifests/") => 4,
        Some(StoreOp::Rename { to, .. }) if to.starts_with("quarantine/") => 5,
        Some(StoreOp::Rename { .. }) => 6,
        Some(StoreOp::Remove { .. }) => 7,
        None => 8,
    }
}

/// The op journal of the scripted session, the two snapshot images it
/// committed, and the trace oracle. Checks borrow it immutably and are
/// independent.
pub struct StoreTarget<'a> {
    journal: Vec<StoreOp>,
    oracle: TraceOracle,
    /// The full snapshot image ("head" in the script).
    full: SnapshotExport,
    /// The truncated prefix image ("base" in the script).
    base: SnapshotExport,
    mount_check: Option<&'a MountCheck>,
}

impl<'a> StoreTarget<'a> {
    /// Runs the workload once, exports the snapshot, and records the
    /// scripted store session. Every exact restore is also handed to
    /// `mount_check`. Deterministic for a given `(trace, simcfg)`.
    ///
    /// # Errors
    /// A typed [`StoreError`] when the export or the fault-free scripted
    /// session itself fails — a harness setup failure, not a chaos
    /// finding.
    pub fn prepare(
        trace: &Trace,
        simcfg: &SimConfig,
        mount_check: Option<&'a MountCheck>,
    ) -> Result<StoreTarget<'a>, StoreError> {
        let mut sys = NvOverlaySystem::new(simcfg);
        let _ = Runner::new().run(&mut sys, trace);
        let full = SnapshotExport::from_mnm(sys.mnm())?;
        let base = full.truncated((full.rec_epoch / 2).max(1));

        // The scripted session every crash cut is a prefix of: an initial
        // backup, an incremental backup sharing its layer prefix, a remove,
        // and a GC sweep — so cuts land inside layer publication, manifest
        // publication, root flips, pruning, and quarantine moves.
        let mut store = Store::open(MemIo::recording())?;
        store.backup("base", &base)?;
        store.backup("head", &full)?;
        store.remove("head")?;
        store.gc()?;
        Ok(StoreTarget {
            journal: store.into_io().take_journal(),
            oracle: TraceOracle::new(trace),
            full,
            base,
            mount_check,
        })
    }

    /// Checks a store that opened after the cut: `[manifest version,
    /// restores checked, mounts checked]`.
    fn check_open_store(
        &self,
        store: &Store<MemIo>,
        corrupted: bool,
        errors: &mut Vec<&'static str>,
        violations: &mut Vec<String>,
    ) -> [u64; 3] {
        let version = store.manifest().version;
        let mut checked = [version, 0, 0];
        // The script commits exactly five manifests; anything else is a
        // state no prefix of the script ever produced.
        let expect: &[(&str, &SnapshotExport)] = match version {
            0 => &[],
            1 => &[("base", &self.base)],
            2 => &[("base", &self.base), ("head", &self.full)],
            3 | 4 => &[("base", &self.base)],
            v => {
                violations.push(format!(
                    "opened to manifest version {v}, which no prefix of the script committed"
                ));
                return checked;
            }
        };
        let names: Vec<&str> = store
            .manifest()
            .backups
            .iter()
            .map(|b| b.name.as_str())
            .collect();
        let want: Vec<&str> = expect.iter().map(|(n, _)| *n).collect();
        if names != want {
            violations.push(format!(
                "hybrid backup set {names:?} at manifest version {version} (committed state has {want:?})"
            ));
            return checked;
        }
        for (name, image) in expect {
            match store.restore(name) {
                Err(e) => {
                    errors.push(e.name());
                    if !corrupted {
                        violations.push(format!(
                            "restore of {name} failed on a clean crash prefix: {e}"
                        ));
                    }
                }
                Ok(got) => {
                    checked[1] += 1;
                    if got != **image {
                        violations.push(format!(
                            "restored {name} diverges from the image its commit captured \
                             ({} vs {} master lines)",
                            got.master.len(),
                            image.master.len()
                        ));
                        continue;
                    }
                    checked[2] += self.check_restored(name, &got, violations);
                }
            }
        }
        checked
    }

    /// The deep checks on an exact restore: the consistency-cut
    /// invariants against the trace oracle, a live-backend rebuild
    /// whose `time_travel` agrees with the stored master, and the
    /// injected mount probe. Returns the mounts checked (0 or 1).
    fn check_restored(
        &self,
        name: &str,
        got: &SnapshotExport,
        violations: &mut Vec<String>,
    ) -> u64 {
        let map: FastHashMap<LineAddr, Token> = got
            .master
            .iter()
            .map(|&(l, t)| (LineAddr::new(l), t))
            .collect();
        self.oracle.check_cut(&map, violations);
        let (mnm, _nvm) = match got.rebuild() {
            Ok(live) => live,
            Err(e) => {
                violations.push(format!(
                    "restored {name} failed to rebuild a live backend: {e}"
                ));
                return 0;
            }
        };
        let stride = (got.master.len() / 16).max(1);
        for &(l, t) in got.master.iter().step_by(stride) {
            if mnm.time_travel(LineAddr::new(l), got.rec_epoch) != Some(t) {
                violations.push(format!(
                    "time_travel({l:#x}, {}) on the rebuilt backend diverges from \
                     the restored master of {name}",
                    got.rec_epoch
                ));
            }
        }
        let Some(check) = self.mount_check else {
            return 0;
        };
        if let Err(msg) = check(&mnm, got) {
            violations.push(format!("mount check failed for {name}: {msg}"));
        }
        1
    }
}

impl CrashTarget for StoreTarget<'_> {
    fn scheme(&self) -> Option<&'static str> {
        None
    }

    fn journal(&self) -> Vec<(&'static str, u64)> {
        let mut ops = [0u64; 3];
        for op in &self.journal {
            ops[match op {
                StoreOp::Write { .. } => 0,
                StoreOp::Rename { .. } => 1,
                StoreOp::Remove { .. } => 2,
            }] += 1;
        }
        vec![
            ("journal_writes", ops[0]),
            ("journal_renames", ops[1]),
            ("journal_removes", ops[2]),
        ]
    }

    fn categories(&self) -> &'static [&'static str] {
        &CATEGORIES
    }

    /// Shuffled rounds with repeats over `0..=len`: every distinct site
    /// is drawn once (in seeded shuffled order) before any site repeats,
    /// so a budget larger than the journal still covers every site while
    /// extra draws revisit sites with fresh torn/flip coin flips: each
    /// check is keyed by its index in the sample.
    fn sample(&self, cfg: &ChaosConfig) -> Vec<(usize, usize, u64)> {
        let distinct = self.journal.len() + 1;
        let mut out = Vec::with_capacity(cfg.sites);
        let mut round = 0u64;
        while out.len() < cfg.sites {
            let mut pool: Vec<usize> = (0..distinct).collect();
            let mut rng = Rng64::seed_from_u64(cfg.seed ^ 0x0057_07E5 ^ round);
            for i in 0..pool.len() {
                let j = i + rng.gen_range(0..(pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            let take = (cfg.sites - out.len()).min(pool.len());
            for &s in &pool[..take] {
                out.push((s, category_of(self.journal.get(s)), out.len() as u64));
            }
            round += 1;
        }
        out
    }

    fn check(&self, site: usize, rng: &mut Rng64, cfg: &ChaosConfig) -> Outcome {
        let torn_keep = match self.journal.get(site) {
            Some(StoreOp::Write { data, .. }) if !data.is_empty() && rng.gen_bool(cfg.torn_p) => {
                Some(rng.gen_range(0..data.len() as u64) as usize)
            }
            _ => None,
        };
        let mut fs = fault::replay(&self.journal, site, torn_keep);
        let mut flips = 0;
        if rng.gen_bool(cfg.flip_p) {
            let paths = fs.paths();
            if !paths.is_empty() {
                let path = &paths[rng.gen_range(0..paths.len() as u64) as usize];
                flips = u64::from(fs.flip_bit(path, rng.next_u64()));
            }
        }
        let corrupted = flips > 0;
        let (mut names, mut violations) = (Vec::new(), Vec::new());
        let [version, restores, mounts] = match Store::open(fs) {
            Err(e) => {
                names.push(e.name());
                if !corrupted {
                    violations.push(format!(
                        "clean crash prefix at site {site} failed to open: {e}"
                    ));
                }
                [0; 3]
            }
            Ok(store) => self.check_open_store(&store, corrupted, &mut names, &mut violations),
        };
        Outcome {
            torn: torn_keep.is_some(),
            counts: vec![flips, restores, mounts, version],
            names,
            violations,
        }
    }

    fn tallies(&self) -> &'static [(&'static str, Tally)] {
        &[
            ("flips_injected", Tally::Sum),
            ("typed_errors", Tally::Names),
            ("restores_checked", Tally::Sum),
            ("mounts_checked", Tally::Sum),
            ("max_manifest_version", Tally::Max),
        ]
    }

    fn summary(&self, r: &ChaosReport) -> String {
        let n = |key| r.num(key).unwrap_or_default();
        let typed: Vec<String> = (r.counts("typed_errors").unwrap_or_default().iter())
            .map(|(name, c)| format!("{name} {c}"))
            .collect();
        let (writes, renames, removes) = (
            n("journal_writes"),
            n("journal_renames"),
            n("journal_removes"),
        );
        format!(
            "store chaos: {} fault sites over a {}-op journal ({writes} writes, {renames} \
             renames, {removes} removes; seed {})\n{}  faults: {} torn writes, {} bit flips; \
             typed errors: {}\n  checked: {} exact restores, {} mounts; max manifest version \
             {}\n{}",
            n("sites_explored"),
            writes + renames + removes,
            n("seed"),
            sites_line(r),
            n("torn_sites"),
            n("flips_injected"),
            if typed.is_empty() {
                "none".to_string()
            } else {
                typed.join(", ")
            },
            n("restores_checked"),
            n("mounts_checked"),
            n("max_manifest_version"),
            verdict(
                r,
                "contract: every site restored a committed state or failed typed",
                "CONTRACT VIOLATIONS"
            )
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::explore::{explore, tests::assert_pinned};
    use nvsim::addr::{Addr, ThreadId};
    use nvsim::trace::TraceBuilder;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(2 * 1024, 4, 4)
            .l2(8 * 1024, 8, 8)
            .llc(64 * 1024, 8, 30, 2)
            .epoch_size_stores(60)
            .build()
            .unwrap()
    }

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new(4);
        let mut token = 1u64;
        for round in 0..120u64 {
            for t in 0..4u16 {
                let line = if (round + t as u64).is_multiple_of(9) {
                    LineAddr::new(0x7000 + round % 16)
                } else {
                    LineAddr::new(0x1000 * (t as u64 + 1) + round % 48)
                };
                b.store_with_token(ThreadId(t), Addr::from(line), token);
                token += 1;
            }
        }
        b.build()
    }

    pub(crate) fn explore_store(cfg: ChaosConfig, mount_check: Option<&MountCheck>) -> ChaosReport {
        let target = StoreTarget::prepare(&small_trace(), &small_cfg(), mount_check).unwrap();
        explore(&target, &cfg, 1)
    }

    #[test]
    fn every_site_upholds_the_store_contract() {
        let cfg = ChaosConfig {
            sites: 120,
            ..ChaosConfig::default()
        };
        let report = explore_store(cfg, None);
        assert!(
            report.ok(),
            "store contract violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| format!("site {} [{}]: {}", v.site, v.category, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.num("sites_explored"), Some(120));
        assert!(
            report.num("restores_checked") > Some(0),
            "no restore was ever checked"
        );
        assert_eq!(report.num("max_manifest_version"), Some(4));
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ChaosConfig {
            sites: 40,
            ..ChaosConfig::default()
        };
        let a = explore_store(cfg.clone(), None);
        let b = explore_store(cfg, None);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn flips_surface_as_typed_errors_not_panics() {
        // Force corruption on every site: every typed failure must be a
        // named StoreError variant, and clean opens must still restore
        // exact images (the check flags anything else as a violation).
        let cfg = ChaosConfig {
            sites: 80,
            flip_p: 1.0,
            ..ChaosConfig::default()
        };
        let report = explore_store(cfg, None);
        assert!(
            report.ok(),
            "corrupted sites broke the contract:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.message.clone())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.num("flips_injected") > Some(0),
            "flip_p=1.0 never flipped"
        );
    }

    #[test]
    fn mount_check_is_invoked_and_failures_are_violations() {
        let cfg = ChaosConfig {
            sites: 12,
            flip_p: 0.0,
            ..ChaosConfig::default()
        };
        let fail: Box<MountCheck> = Box::new(|_, _| Err("synthetic mount failure".into()));
        let report = explore_store(cfg, Some(&*fail));
        assert!(report.num("mounts_checked") > Some(0));
        assert!(report
            .violations
            .iter()
            .any(|v| v.message.contains("synthetic mount failure")));
    }

    /// The report bytes of the store explorer before it shared the
    /// driver with the NVM target, at one worker and at four.
    #[test]
    fn reports_match_their_pinned_digests() {
        let target = StoreTarget::prepare(&small_trace(), &small_cfg(), None).unwrap();
        for (sites, flip_p, pin) in [
            (120, 0.10, (550, 0x7bb7_9c5b_42a0_b984)),
            (80, 1.0, (566, 0xdb3b_24ae_083d_2e9c)),
        ] {
            let cfg = ChaosConfig {
                sites,
                flip_p,
                ..ChaosConfig::default()
            };
            assert_pinned(&target, &cfg, pin);
        }
    }
}
