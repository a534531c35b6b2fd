//! Low-latency crash recovery (the paper's §I usage model 4, §V-E).
//!
//! Runs the same workload under NVOverlay and under software undo
//! logging, "crashes" both, and compares (a) that both recover a
//! consistent epoch-boundary image and (b) what the snapshotting cost
//! during the run — the trade the paper quantifies in Figs 11/12.
//!
//! Then it crashes *harder*, via the `nvchaos` persistence-order
//! journal: a power cut that tears the 8-byte `rec-epoch` root pointer
//! mid-write (recovery detects the torn cell and falls back to the
//! previous root), and a stray bit flip in a Master Mapping Table word
//! (the parity check refuses to recover until the word is healed).
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use nvoverlay_suite::baselines::{CommitKind, EpochCommitSystem};
use nvoverlay_suite::chaos::{ChaosScheme, NvmTarget, RebuildFidelity, RebuiltState};
use nvoverlay_suite::overlay::recovery::{recover_durable, RecoveryError};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::fault::{CrashCut, PersistPayload};
use nvoverlay_suite::sim::memsys::{MemorySystem, Runner};
use nvoverlay_suite::sim::rng::Rng64;
use nvoverlay_suite::sim::stats::NvmWriteKind;
use nvoverlay_suite::sim::SimConfig;
use nvoverlay_suite::workloads::{generate, SuiteParams, Workload};

fn main() {
    let cfg = SimConfig::builder()
        .epoch_size_stores(1_500)
        .build()
        .expect("valid configuration");
    let params = SuiteParams {
        threads: 16,
        ops: 6_000,
        warmup_ops: 24_000,
        seed: 7,
    };
    let trace = generate(Workload::HashTable, &params);
    println!(
        "workload: hash-table bulk insert, {} accesses / {} stores",
        trace.access_count(),
        trace.store_count()
    );

    // --- NVOverlay ---------------------------------------------------
    let mut nvo = NvOverlaySystem::new(&cfg);
    let r1 = Runner::new().run(&mut nvo, &trace);
    let image = nvo.recover().expect("recoverable");
    for (line, token) in &r1.golden_image {
        assert_eq!(image.read(line), Some(*token), "NVOverlay image diverged");
    }
    let s1 = nvo.stats();
    println!();
    println!("NVOverlay:");
    println!("  cycles:            {:>12}", r1.cycles);
    println!(
        "  persist stalls:    {:>12} (across 16 cores)",
        r1.stall_cycles
    );
    println!(
        "  NVM bytes:         {:>12} (log bytes: {})",
        s1.nvm.total_bytes(),
        s1.nvm.bytes(NvmWriteKind::Log)
    );
    println!("  snapshots:         {:>12}", s1.epochs_completed);
    println!(
        "  recovered image:   {:>12} lines at epoch {}",
        image.len(),
        image.epoch()
    );

    // --- SW undo logging ---------------------------------------------
    let mut swl = EpochCommitSystem::new(&cfg, CommitKind::UndoLog);
    let r2 = Runner::new().run(&mut swl, &trace);
    for (line, token) in &r2.golden_image {
        assert_eq!(
            swl.recovered_image().get(line),
            Some(token),
            "SW logging image diverged"
        );
    }
    let s2 = swl.stats();
    println!();
    println!("SW undo logging:");
    println!(
        "  cycles:            {:>12}  ({:.1}x NVOverlay)",
        r2.cycles,
        r2.cycles as f64 / r1.cycles as f64
    );
    println!("  persist stalls:    {:>12}", r2.stall_cycles);
    println!(
        "  NVM bytes:         {:>12}  ({:.2}x NVOverlay, {} log bytes)",
        s2.nvm.total_bytes(),
        s2.nvm.total_bytes() as f64 / s1.nvm.total_bytes() as f64,
        s2.nvm.bytes(NvmWriteKind::Log)
    );
    println!("  epochs committed:  {:>12}", swl.epochs_committed());

    println!();
    println!("both recover a consistent image; NVOverlay does it without barriers or logs.");

    // --- adversarial crashes (nvchaos) -------------------------------
    // Re-run NVOverlay with the persistence-order fault plane attached,
    // harvesting the journal of every NVM write. Shorter epochs here so
    // the run advances `rec-epoch` (and rewrites its root cell) many
    // times mid-run — the fallback demo needs a previous root to land on.
    let chaos_cfg = SimConfig::builder()
        .epoch_size_stores(400)
        .build()
        .expect("valid configuration");
    let run = NvmTarget::prepare(
        &trace,
        &chaos_cfg,
        ChaosScheme::NvOverlay,
        RebuildFidelity::Exact,
        false,
    );
    let plane = run.plane();

    // A power cut exactly while the last `rec-epoch` root pointer is
    // being written: the 8-byte cell is torn. The root write is fenced
    // behind everything issued before it, so "all earlier writes
    // durable, root torn" is a legal prefix-closed cut.
    let root = plane
        .records()
        .iter()
        .rev()
        .find(|r| matches!(r.payload, Some(PersistPayload::RecEpochRoot { .. })))
        .expect("the run commits at least one epoch");
    let cut = CrashCut {
        site: root.id as usize + 1,
        crash_time: root.enqueue,
        lost: vec![],
        torn: Some(root.id),
    };
    let mut state = RebuiltState::rebuild(plane, &cut, RebuildFidelity::Exact);
    println!();
    println!("torn-write crash (power cut mid-root-update):");
    match recover_durable(&state) {
        Err(e @ RecoveryError::TornMasterRoot { .. }) => {
            println!("  detected: {e}");
        }
        other => panic!("torn root went undetected: {other:?}"),
    }
    state.fallback_to_previous_root();
    let img = recover_durable(&state).expect("the previous root cell is intact");
    println!(
        "  fell back to the previous root: epoch {}, {} lines recovered",
        img.epoch(),
        img.len()
    );

    // In-array corruption: one bit of one master mapping word flips.
    // Every mapping word carries a parity bit, so recovery refuses to
    // trust the table instead of silently loading a wrong version.
    println!();
    println!("detected-corruption recovery (bit flip in a mapping word):");
    let mut rng = Rng64::seed_from_u64(7);
    let (line, original, bit) = state.inject_flip(&mut rng).expect("mapping words survived");
    match recover_durable(&state) {
        Err(e @ RecoveryError::CorruptMapping { .. }) => {
            println!("  flipped bit {bit}; detected: {e}");
        }
        other => panic!("bit flip went undetected: {other:?}"),
    }
    state.heal(line, original);
    let healed = recover_durable(&state).expect("healed table recovers again");
    println!(
        "  healed the word: epoch {}, {} lines recovered",
        healed.epoch(),
        healed.len()
    );
}
