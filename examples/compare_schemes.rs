//! Head-to-head scheme comparison on one workload — a miniature of the
//! paper's Figs 11 and 12 you can point at any workload:
//!
//! ```sh
//! cargo run --release --example compare_schemes -- kmeans
//! cargo run --release --example compare_schemes -- "B+Tree"
//! ```

use nvoverlay_suite::baselines::{CommitKind, EpochCommitSystem, IdealSystem, Picl, PiclLevel};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::memsys::{MemorySystem, Runner};
use nvoverlay_suite::sim::stats::NvmWriteKind;
use nvoverlay_suite::sim::SimConfig;
use nvoverlay_suite::workloads::{generate, SuiteParams, Workload};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "B+Tree".to_string());
    let workload = Workload::from_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}; one of:");
        for w in Workload::ALL {
            eprintln!("  {w}");
        }
        std::process::exit(2);
    });

    let cfg = SimConfig::builder()
        .epoch_size_stores(1_500)
        .build()
        .expect("valid configuration");
    let params = SuiteParams {
        threads: 16,
        ops: 6_000,
        warmup_ops: 24_000,
        seed: 0xC0FFEE,
    };
    let trace = generate(workload, &params);
    println!(
        "{workload}: {} accesses, {} stores, write set {} KiB",
        trace.access_count(),
        trace.store_count(),
        trace.write_footprint() * 64 / 1024
    );
    println!();
    println!(
        "{:<12} {:>10} {:>8} {:>12} {:>10} {:>10}",
        "scheme", "cycles", "norm", "NVM bytes", "log B", "snapshots"
    );

    let mut systems: Vec<Box<dyn MemorySystem>> = vec![
        Box::new(IdealSystem::new(&cfg)),
        Box::new(EpochCommitSystem::new(&cfg, CommitKind::UndoLog)),
        Box::new(EpochCommitSystem::new(&cfg, CommitKind::SwShadow)),
        Box::new(EpochCommitSystem::new(&cfg, CommitKind::HwShadow)),
        Box::new(Picl::new(&cfg, PiclLevel::Llc)),
        Box::new(Picl::new(&cfg, PiclLevel::L2)),
        Box::new(NvOverlaySystem::new(&cfg)),
    ];
    let mut base = None;
    for sys in &mut systems {
        let report = Runner::new().run(sys.as_mut(), &trace);
        let s = sys.stats();
        let b = *base.get_or_insert(report.cycles);
        println!(
            "{:<12} {:>10} {:>8.2} {:>12} {:>10} {:>10}",
            sys.name(),
            report.cycles,
            report.cycles as f64 / b as f64,
            s.nvm.total_bytes(),
            s.nvm.bytes(NvmWriteKind::Log),
            s.epochs_completed
        );
    }

    // Endurance view for NVOverlay (P/E cycles are the paper's §II-B
    // motivation for avoiding write amplification).
    let mut nvo = NvOverlaySystem::new(&cfg);
    let _ = Runner::new().run(&mut nvo, &trace);
    let w = nvo.nvm().wear_report();
    println!();
    println!(
        "NVOverlay wear: {} unique NVM lines, {} data writes, hottest line x{} (mean {:.2})",
        w.unique_keys, w.total_writes, w.max_key_writes, w.mean_key_writes
    );
}
