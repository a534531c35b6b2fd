//! The crash explorer: one driver for every crash target.
//!
//! A [`CrashTarget`] owns an oracle run's write journal and knows how to
//! crash it: its site categories, its site sample, and a check that
//! cuts the journal at a site (tearing the boundary write and flipping
//! a bit when the seeded draws say so), recovers, and tests the result.
//! [`explore`] draws the sample, fans the checks out across worker
//! threads, and tallies one [`ChaosReport`].
//!
//! Each check is a pure function of the target and its derived seed, so
//! checks are independent and the report does not depend on the worker
//! count or schedule: two runs with the same seed produce byte-identical
//! JSON.

use crate::report::{ChaosReport, Field, Violation};
use nvsim::par::run_ordered;
use nvsim::rng::Rng64;
use std::collections::BTreeMap;

/// Per-site seed mixer (splitmix64 increment): keeps site seeds
/// independent of the order sites were selected in.
const SEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Exploration parameters, shared by every target.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Number of crash sites to explore (the NVM sample is capped by
    /// the journal length).
    pub sites: usize,
    /// Master seed: fixes the site sample and every per-site draw.
    pub seed: u64,
    /// Probability a cut's boundary write is torn rather than lost.
    pub torn_p: f64,
    /// Probability of injecting a bit flip at a site, which recovery
    /// must detect (NVOverlay's mapping words and the store's files;
    /// the SW-undo checker draws none).
    pub flip_p: f64,
}

impl Default for ChaosConfig {
    /// 200 sites, seed 7, torn 25%, flip 10%.
    fn default() -> Self {
        ChaosConfig {
            sites: 200,
            seed: 7,
            torn_p: 0.25,
            flip_p: 0.10,
        }
    }
}

/// How the report tallies one of a target's per-site values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tally {
    /// Sum of the sites' next count.
    Sum,
    /// Maximum of the sites' next count (0 with no sites).
    Max,
    /// Occurrences of each of the sites' names, name-sorted.
    Names,
}

/// What one crash-site check found.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether the cut tore its boundary write.
    pub torn: bool,
    /// One count per [`Tally::Sum`] or [`Tally::Max`] entry of the
    /// target's [`CrashTarget::tallies`], in that order.
    pub counts: Vec<u64>,
    /// Names for the target's [`Tally::Names`] entry.
    pub names: Vec<&'static str>,
    /// Invariant violations — empty means the site is consistent.
    pub violations: Vec<String>,
}

/// A layer that can be crashed at any point of a recorded journal.
pub trait CrashTarget: Sync {
    /// The scheme name the report carries, if any.
    fn scheme(&self) -> Option<&'static str>;

    /// The journal fields the report carries before its category
    /// counts.
    fn journal(&self) -> Vec<(&'static str, u64)>;

    /// Stable site-category names, in report order.
    fn categories(&self) -> &'static [&'static str];

    /// The seeded site sample, one `(journal index, category index,
    /// seed key)` per check; the check's seed derives from its key.
    fn sample(&self, cfg: &ChaosConfig) -> Vec<(usize, usize, u64)>;

    /// Crashes the journal at `site` with the draws of `rng`, recovers,
    /// and checks the recovered state. Pure: depends only on the target,
    /// the site and the seed.
    fn check(&self, site: usize, rng: &mut Rng64, cfg: &ChaosConfig) -> Outcome;

    /// The report's tallies after `torn_sites`, in report order.
    fn tallies(&self) -> &'static [(&'static str, Tally)];

    /// The text summary of a report of this target.
    fn summary(&self, report: &ChaosReport) -> String;
}

/// Checks every sampled site of `target` across `jobs` worker threads
/// and tallies the report. The report is the same for every `jobs`.
pub fn explore(target: &dyn CrashTarget, cfg: &ChaosConfig, jobs: usize) -> ChaosReport {
    let sites = target.sample(cfg);
    let outcomes = run_ordered(sites.len(), jobs, |i| {
        let (site, _, key) = sites[i];
        let seed = cfg.seed ^ key.wrapping_mul(SEED_GOLDEN);
        target.check(site, &mut Rng64::seed_from_u64(seed), cfg)
    });

    let names = target.categories();
    let mut by_category: Vec<(String, u64)> = names.iter().map(|c| (c.to_string(), 0)).collect();
    let mut violations = Vec::new();
    for (&(site, c, _), o) in sites.iter().zip(&outcomes) {
        by_category[c].1 += 1;
        violations.extend(o.violations.iter().map(|m| Violation {
            site,
            category: names[c].to_string(),
            message: m.clone(),
        }));
    }
    violations.sort_by(|a, b| (a.site, &a.message).cmp(&(b.site, &b.message)));

    let num = |key: &str, n: u64| (key.to_string(), Field::Num(n));
    let mut fields = vec![
        num("seed", cfg.seed),
        num("sites_requested", cfg.sites as u64),
        num("sites_explored", outcomes.len() as u64),
    ];
    fields.extend(target.journal().into_iter().map(|(k, n)| num(k, n)));
    fields.push(("sites_by_category".into(), Field::Counts(by_category)));
    fields.push(num(
        "torn_sites",
        outcomes.iter().filter(|o| o.torn).count() as u64,
    ));
    let mut column = 0;
    for &(key, tally) in target.tallies() {
        let field = if tally == Tally::Names {
            let mut seen = BTreeMap::new();
            for &name in outcomes.iter().flat_map(|o| &o.names) {
                *seen.entry(name.to_string()).or_insert(0) += 1;
            }
            Field::Counts(seen.into_iter().collect())
        } else {
            let k = column;
            column += 1;
            let values = outcomes.iter().map(move |o| o.counts[k]);
            Field::Num(match tally {
                Tally::Sum => values.sum(),
                _ => values.max().unwrap_or(0),
            })
        };
        fields.push((key.to_string(), field));
    }
    ChaosReport {
        scheme: target.scheme().map(str::to_string),
        fields,
        violations,
    }
}

/// The summary line of the sites explored per category.
pub(crate) fn sites_line(report: &ChaosReport) -> String {
    let by_category = report.counts("sites_by_category").unwrap_or_default();
    let by_cat: Vec<String> = (by_category.iter())
        .filter(|(_, n)| *n > 0)
        .map(|(c, n)| format!("{c} {n}"))
        .collect();
    format!("  sites: {}\n", by_cat.join(", "))
}

/// The summary's verdict: `clean` when every site passed, else
/// `heading` and the first ten violations.
pub(crate) fn verdict(report: &ChaosReport, clean: &str, heading: &str) -> String {
    if report.ok() {
        return format!("  {clean}\n");
    }
    let mut s = format!("  {heading}: {}\n", report.violations.len());
    for v in report.violations.iter().take(10) {
        s += &format!("    site {} [{}]: {}\n", v.site, v.category, v.message);
    }
    if report.violations.len() > 10 {
        s += &format!("    ... ({} more)\n", report.violations.len() - 10);
    }
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::nvm::{ChaosScheme, NvmTarget};
    use crate::oracle::TraceOracle;
    use crate::rebuild::{rebuild_undo, undo_expected, RebuildFidelity};
    use nvsim::addr::{Addr, ThreadId};
    use nvsim::config::SimConfig;
    use nvsim::fastmap::FastHashMap;
    use nvsim::fault::{PersistPayload, WriteRecord};
    use nvsim::trace::{Trace, TraceBuilder};

    pub(crate) fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(64)
            .build()
            .unwrap()
    }

    /// 4 threads, private regions plus a shared line every 5th store.
    pub(crate) fn small_trace() -> Trace {
        let mut b = TraceBuilder::new(4);
        for round in 0..160u64 {
            for t in 0..4u16 {
                let addr = if (round + t as u64).is_multiple_of(5) {
                    Addr::new(0x9000 * 64)
                } else {
                    Addr::new((0x1000 * (t as u64 + 1) + round % 24) * 64)
                };
                b.store(ThreadId(t), addr);
            }
        }
        b.build()
    }

    fn target(scheme: ChaosScheme, fidelity: RebuildFidelity, stress: bool) -> NvmTarget {
        NvmTarget::prepare(&small_trace(), &small_cfg(), scheme, fidelity, stress)
    }

    pub(crate) fn explore_nvm(scheme: ChaosScheme, cfg: ChaosConfig) -> ChaosReport {
        explore(&target(scheme, RebuildFidelity::Exact, false), &cfg, 1)
    }

    fn sites(sites: usize) -> ChaosConfig {
        ChaosConfig {
            sites,
            ..ChaosConfig::default()
        }
    }

    /// Asserts the report of `target` under `cfg` has the pinned
    /// `(length, FNV-1a digest)` at one worker and at four.
    pub(crate) fn assert_pinned(target: &dyn CrashTarget, cfg: &ChaosConfig, pin: (usize, u64)) {
        for jobs in [1, 4] {
            let json = explore(target, cfg, jobs).to_json();
            let got = (json.len(), nvstore::fnv1a(json.as_bytes()));
            assert_eq!(got, pin, "{} sites at {jobs} jobs:\n{json}", cfg.sites);
        }
    }

    /// The report bytes of the NVM explorer before it shared the driver
    /// with the store target, at one worker and at four.
    #[test]
    fn reports_match_their_pinned_digests() {
        use ChaosScheme::{NvOverlay, SwUndo};
        use RebuildFidelity::{BrokenNoEpochFilter, Exact};
        for (scheme, fidelity, n, pin) in [
            (NvOverlay, Exact, 60, (444, 0x30c5_699d_7604_bf33)),
            (
                NvOverlay,
                BrokenNoEpochFilter,
                60,
                (26449, 0xba83_397c_07d8_e986),
            ),
            (SwUndo, Exact, 40, (439, 0xb3ce_3349_7351_655c)),
        ] {
            assert_pinned(&target(scheme, fidelity, false), &sites(n), pin);
        }
    }

    #[test]
    fn nvoverlay_sites_are_consistent_and_deterministic() {
        let a = explore_nvm(ChaosScheme::NvOverlay, sites(60));
        assert!(
            a.violations.is_empty(),
            "unexpected violations: {:#?}",
            a.violations
        );
        assert!(a.num("sites_explored") > Some(0));
        assert!(
            a.num("max_recovered_epoch") >= Some(2),
            "several epochs must commit"
        );
        // The sample must include interior metadata and root sites.
        let by_category = a.counts("sites_by_category").unwrap();
        let count = |name: &str| by_category.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(count("omc-flush-meta") > 0, "{by_category:?}");
        assert!(count("master-root") > 0, "{by_category:?}");
        // Byte-identical on a second run.
        let b = explore_nvm(ChaosScheme::NvOverlay, sites(60));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn broken_recovery_is_caught() {
        let broken = target(
            ChaosScheme::NvOverlay,
            RebuildFidelity::BrokenNoEpochFilter,
            false,
        );
        let report = explore(&broken, &sites(60), 1);
        assert!(
            !report.violations.is_empty(),
            "an epoch-filter-less recovery must violate the cut invariants"
        );
    }

    #[test]
    fn sw_undo_sites_are_consistent() {
        let report = explore_nvm(ChaosScheme::SwUndo, sites(40));
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {:#?}",
            report.violations
        );
        assert!(report.num("sites_explored") > Some(0));
    }

    /// The SW-undo checker's self-test: at a crash in the middle of a
    /// real epoch flush, an image that skips the undo rollback must fail
    /// the checks the SW-undo check applies, while the real rollback
    /// passes them at the same cut.
    #[test]
    fn sw_undo_checker_catches_a_skipped_rollback() {
        // The trace and machine of `nvo chaos kmeans --scheme sw-undo
        // --scale quick`.
        let params = nvworkloads::SuiteParams {
            threads: 16,
            ops: 4_000,
            warmup_ops: 40_000,
            seed: 0xC0FFEE,
        };
        let trace = nvworkloads::generate(nvworkloads::Workload::Kmeans, &params);
        let simcfg = SimConfig::builder().epoch_size_stores(800).build().unwrap();
        let run = NvmTarget::prepare(
            &trace,
            &simcfg,
            ChaosScheme::SwUndo,
            RebuildFidelity::Exact,
            false,
        );
        let records = run.plane().records();
        // The home writes of the first epoch flush after a commit, with
        // at least two writes: crash halfway through it, every write
        // issued before the site durable. Committed data precedes it and
        // its commit marker never issued.
        let flush_of = |epoch: u64| -> Vec<usize> {
            let home = |r: &WriteRecord| matches!(r.payload, Some(PersistPayload::DataHome { epoch: e, .. }) if e == epoch);
            (0..records.len()).filter(|&i| home(&records[i])).collect()
        };
        let flush = (1..)
            .map(flush_of)
            .find(|f| f.len() >= 2)
            .expect("a multi-line flush after the first commit");
        let site = flush[flush.len() / 2];
        let cut = run.plane().cut_with_durable_prefix(site, usize::MAX, false);
        let expected = undo_expected(run.plane(), &cut);
        assert_eq!(
            rebuild_undo(run.plane(), &cut),
            expected,
            "the real rollback passes"
        );

        // Broken recovery: the surviving home data as it stands, the open
        // epoch's overwrites included.
        let mut broken = FastHashMap::default();
        for r in &records[..site] {
            if let Some(PersistPayload::DataHome { line, token, .. }) = r.payload {
                if cut.survives(r.id) {
                    broken.insert(line, token);
                }
            }
        }
        let mut violations = Vec::new();
        let oracle = TraceOracle::new(&trace);
        oracle.check_cut(&broken, &mut violations);
        assert!(
            broken != expected || !violations.is_empty(),
            "an image without the undo rollback must be caught"
        );
    }

    #[test]
    fn backpressure_deepens_the_inflight_window() {
        let cfg = ChaosConfig {
            sites: 40,
            torn_p: 0.0,
            flip_p: 0.0,
            ..ChaosConfig::default()
        };
        let run = |stress| {
            let t = target(ChaosScheme::NvOverlay, RebuildFidelity::Exact, stress);
            explore(&t, &cfg, 1)
        };
        let (calm, stressed) = (run(false), run(true));
        assert!(calm.violations.is_empty() && stressed.violations.is_empty());
        let dropped = |r: &ChaosReport| r.num("dropped_writes").unwrap();
        assert!(
            dropped(&stressed) >= dropped(&calm),
            "backpressure ({}) should keep at least as many writes in flight as calm ({})",
            dropped(&stressed),
            dropped(&calm)
        );
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in [ChaosScheme::NvOverlay, ChaosScheme::SwUndo] {
            assert_eq!(ChaosScheme::from_name(s.name()), Some(s));
        }
        assert_eq!(ChaosScheme::from_name("dram"), None);
    }
}
