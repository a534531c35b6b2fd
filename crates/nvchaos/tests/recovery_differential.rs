//! Seeded differential test of §V-E recovery: `recover_durable` against
//! a per-line reference, over live mapping controllers (1–3 OMCs, both
//! retention policies, before and after a simulated reboot) and over
//! crash cuts of their write journals rebuilt at both fidelities.
//!
//! Every case checks the same three things: the recovered `(line,
//! token)` set equals the reference, its lines are strictly ascending,
//! and `read` answers every mapped line and `None` for unmapped ones.

use nvchaos::{RebuildFidelity, RebuiltState};
use nvoverlay::mnm::{Mnm, OmcConfig, SnapshotRetention};
use nvoverlay::recovery::{recover_durable, DurableState, RecoveredImage, RecoveryError};
use nvsim::fault::{FaultPlane, PersistPayload};
use nvsim::nvm::Nvm;
use nvsim::rng::Rng64;
use nvsim::{LineAddr, Token, VdId};
use std::collections::BTreeMap;

/// Lines the driver writes: eight 64-line pages, so every OMC count
/// splits them across its controllers.
const UNIVERSE: u64 = 8 * 64;

/// Checks `img` against `reference` as the module doc says.
fn check(case: &str, img: &RecoveredImage, reference: &BTreeMap<LineAddr, Token>) {
    let got: Vec<(LineAddr, Token)> = img.iter().collect();
    let want: Vec<(LineAddr, Token)> = reference.iter().map(|(l, t)| (*l, *t)).collect();
    assert_eq!(got, want, "{case}: image differs from the reference");
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{case}: lines not strictly ascending"
    );
    assert_eq!(img.len(), reference.len(), "{case}");
    for raw in 0..UNIVERSE + 64 {
        let l = LineAddr::new(raw);
        assert_eq!(
            img.read(l),
            reference.get(&l).copied(),
            "{case}: read {l:?}"
        );
    }
}

/// Drives an `Mnm` with a journaling NVM through 6–9 epochs of seeded
/// writes over a small, compacting pool, advancing `rec-epoch` two
/// epochs behind so the newest epochs stay unmerged. Returns the
/// controller, its write journal and the writes at or below the final
/// `rec-epoch`, newest per line.
fn drive(
    omcs: usize,
    retention: SnapshotRetention,
    seed: u64,
) -> (Mnm, FaultPlane, BTreeMap<LineAddr, Token>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut m = Mnm::new(
        omcs,
        1,
        OmcConfig {
            pool_pages: 8,
            compaction_threshold: 0.5,
            grow_pages: 8,
            retention,
            buffer: None,
        },
    );
    let mut nvm = Nvm::new(4, 400, 200, 8, 100_000);
    nvm.enable_fault_plane();
    let mut token = 1;
    let mut now = 0;
    let epochs = 6 + rng.gen_range(0..4u64);
    let mut committed = BTreeMap::new();
    for epoch in 1..=epochs {
        for _ in 0..rng.gen_range(20..120u64) {
            let line = LineAddr::new(rng.gen_range(0..UNIVERSE));
            now += 50;
            m.receive_version(&mut nvm, now, line, token, epoch);
            if epoch + 2 <= epochs {
                committed.insert(line, token);
            }
            token += 1;
        }
        // The one VD reports min-ver = epoch - 1, so rec-epoch trails by
        // two epochs and the newest stay unmerged.
        m.report_min_ver(&mut nvm, now, VdId(0), epoch - 1);
    }
    assert_eq!(m.rec_epoch(), epochs - 2);
    let plane = nvm.take_fault_plane().expect("plane was enabled");
    (m, plane, committed)
}

/// The per-line reference for a live `Mnm`: the master image's lines,
/// each read back through the master table on its own.
fn master_reference(m: &Mnm) -> BTreeMap<LineAddr, Token> {
    m.master_image()
        .map(|(l, _)| (l, m.read_master(l).expect("mapped line reads")))
        .collect()
}

/// The journal's fall-through at `root` under `cut`: each line's newest
/// surviving version at or below the root (any epoch for the broken
/// fidelity), the latest journal write winning among equal epochs.
fn journal_reference(
    plane: &FaultPlane,
    cut: &nvsim::fault::CrashCut,
    root: u64,
    fidelity: RebuildFidelity,
) -> BTreeMap<LineAddr, Token> {
    let mut newest: BTreeMap<LineAddr, (u64, u64, Token)> = BTreeMap::new();
    for r in plane.records() {
        if let Some(PersistPayload::Version { line, token, epoch }) = &r.payload {
            let admitted = fidelity == RebuildFidelity::BrokenNoEpochFilter || *epoch <= root;
            if cut.survives(r.id) && admitted {
                let v = newest.entry(*line).or_insert((*epoch, r.id, *token));
                if (*epoch, r.id) > (v.0, v.1) {
                    *v = (*epoch, r.id, *token);
                }
            }
        }
    }
    newest.into_iter().map(|(l, (_, _, t))| (l, t)).collect()
}

#[test]
fn live_recovery_matches_the_per_line_master_reads() {
    for seed in 0..4u64 {
        for omcs in 1..=3 {
            for retention in [SnapshotRetention::KeepAll, SnapshotRetention::DropMerged] {
                let case = format!("seed {seed}, {omcs} OMC(s), {retention:?}");
                let (mut m, _, committed) = drive(omcs, retention, seed * 31 + omcs as u64);
                let img = recover_durable(&m).unwrap();
                assert_eq!(img.epoch(), m.rec_epoch(), "{case}");
                let reference = master_reference(&m);
                assert_eq!(
                    reference, committed,
                    "{case}: master is not the committed image"
                );
                check(&case, &img, &reference);

                m.simulate_reboot();
                let case = format!("{case}, after reboot");
                let rebooted = recover_durable(&m).unwrap();
                check(&case, &rebooted, &master_reference(&m));
                check(&case, &rebooted, &reference);
            }
        }
    }
}

#[test]
fn crash_cut_recovery_matches_the_journal_fall_through() {
    let mut recovered = 0;
    for seed in 0..3u64 {
        for omcs in 1..=3 {
            let (_, plane, _) = drive(
                omcs,
                SnapshotRetention::KeepAll,
                1000 + seed * 7 + omcs as u64,
            );
            let mut rng = Rng64::seed_from_u64(seed);
            for _ in 0..24 {
                let site = rng.gen_range(0..plane.len() + 1);
                let cut = plane.crash_cut(site, &mut rng, 0.3);
                for fidelity in [RebuildFidelity::Exact, RebuildFidelity::BrokenNoEpochFilter] {
                    let case = format!("seed {seed}, {omcs} OMC(s), site {site}, {fidelity:?}");
                    let mut rb = RebuiltState::rebuild(&plane, &cut, fidelity);
                    if rb.root().torn {
                        rb.fallback_to_previous_root();
                    }
                    let img = match recover_durable(&rb) {
                        Ok(img) => img,
                        Err(RecoveryError::NothingRecoverable) => continue,
                        Err(e) => panic!("{case}: {e}"),
                    };
                    let root = rb.root().epoch;
                    assert_eq!(img.epoch(), root, "{case}");
                    check(
                        &case,
                        &img,
                        &journal_reference(&plane, &cut, root, fidelity),
                    );
                    recovered += usize::from(!img.is_empty());
                }
            }
        }
    }
    // 3 seeds × 3 OMC counts × 24 sites × 2 fidelities = 432 cases.
    assert!(
        recovered > 200,
        "only {recovered} cuts recovered a non-empty image"
    );
}
