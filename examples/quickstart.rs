//! Quickstart: run a multithreaded workload under NVOverlay, snapshot it
//! hundreds of times, and recover the exact memory image after a
//! simulated crash.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::memsys::{MemorySystem, Runner};
use nvoverlay_suite::sim::SimConfig;
use nvoverlay_suite::workloads::{generate, SuiteParams, Workload};

fn main() {
    // The paper's Table II system, with epochs scaled to this small run.
    let cfg = SimConfig::builder()
        .epoch_size_stores(2_000)
        .build()
        .expect("valid configuration");

    // 16 threads bulk-inserting random keys into a shared B+Tree.
    let params = SuiteParams {
        threads: 16,
        ops: 8_000,
        warmup_ops: 30_000,
        seed: 42,
    };
    let trace = generate(Workload::BTree, &params);
    println!(
        "workload: B+Tree bulk insert — {} accesses, {} stores, {} KiB written",
        trace.access_count(),
        trace.store_count(),
        trace.write_footprint() * 64 / 1024
    );

    // Run it under NVOverlay.
    let mut system = NvOverlaySystem::new(&cfg);
    let report = Runner::new().run(&mut system, &trace);

    let stats = system.stats();
    println!(
        "executed {} accesses in {} cycles ({} snapshots committed)",
        report.accesses, report.cycles, stats.epochs_completed
    );
    println!(
        "NVM traffic: {} KiB data + {} KiB mapping metadata, zero log bytes",
        stats
            .nvm
            .bytes(nvoverlay_suite::sim::stats::NvmWriteKind::Data)
            / 1024,
        stats
            .nvm
            .bytes(nvoverlay_suite::sim::stats::NvmWriteKind::MapMetadata)
            / 1024,
    );
    println!("recoverable epoch: {}", system.rec_epoch());

    // Crash! Recover from the Master Mapping Table and verify the image
    // byte-for-byte (token-for-token) against the run's golden image.
    let image = system.recover().expect("at least one epoch committed");
    let mut verified = 0;
    for (line, token) in &report.golden_image {
        assert_eq!(
            image.read(line),
            Some(*token),
            "recovered image diverges at {line}"
        );
        verified += 1;
    }
    println!("crash recovery verified: {verified} lines match the golden image exactly");
}
