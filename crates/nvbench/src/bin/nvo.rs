//! `nvo` — command-line driver for the NVOverlay reproduction.
//!
//! ```text
//! nvo list
//! nvo run --workload B+Tree --scheme NVOverlay [--scale quick|standard|full] [--shards N] [--json] [--stats-out s.json]
//! nvo run --trace t.nvtr --scheme PiCL
//! nvo trace-gen --workload kmeans --out t.nvtr [--scale quick]
//! nvo trace B+Tree --scheme NVOverlay [--scale quick] [--trace-out t.json] [--stats-out s.json]
//! nvo snapshots --workload RBTree [--scale quick]
//! nvo chaos B+Tree --scheme nvoverlay --sites 200 --seed 7 [--jobs N] [--out report.json]
//! nvo profile B+Tree --scheme NVOverlay --shards 4 [--scale quick] [--out p.json] [--structural-out s.json] [--chrome c.json]
//! nvo serve B+Tree --sessions 8 --batch 32 --epochs all --workers 4 [--seed S] [--out serve.json] [--stats-out s.json]
//! nvo query B+Tree --key 0x1f40 --epoch 7
//! nvo backup B+Tree --store ./snaps --name nightly [--upto E] [--scale quick]
//! nvo restore --store ./snaps --name nightly [--verify]
//! nvo store ls|rm|gc|validate --store ./snaps [--name N] [--purge]
//! nvo chaos B+Tree --store --sites 200 --seed 7 [--jobs N] [--out report.json]
//! nvo perf [--jobs N] [--shards N] [--profile] [--serve] [--scale quick|standard|full] [--out BENCH_perf.json] [--baseline <file>]
//! ```
//!
//! `nvo trace` needs the `trace` cargo feature
//! (`cargo build --release -p nvbench --features trace`); the stock
//! build compiles the tracer out entirely.
//!
//! ## Exit codes
//!
//! `0` success, `1` generic failure, `2` usage. Typed error classes map
//! to stable documented codes (the variant name is printed to stderr as
//! `error[<Variant>]: <message>` so scripts can grep it):
//!
//! | range | class | codes |
//! |---|---|---|
//! | 10–13 | `QueryError` | EpochZero 10, NotYetRecoverable 11, NotRetained 12, Wrapped 13 |
//! | 20–22 | `MountError` | Recovery 20, BufferNotDrained 21, nothing-to-serve 22 |
//! | 30–39 | `StoreError` | Io 30, Checksum 31, TornManifest 32, MissingLayer 33, RefcountUnderflow 34, SchemaVersion 35, BackupNotFound 36, BackupExists 37, UnreadableEpoch 38, BufferNotDrained 39 |

use nvbench::{
    bottleneck_table, chrome_profile_json, chrome_trace_json, default_jobs, gen_traces,
    profile_json, profile_structural_json, registry_json, run_matrix_stats, run_scheme_sharded,
    run_scheme_sharded_prof, run_scheme_stats, ChromeMeta, EnvScale, ExpResult, Scheme, Spans,
};
use nvoverlay::store::QueryError;
use nvoverlay::system::NvOverlaySystem;
use nvserve::{
    driver as serve_driver, server as serve_engine, EpochSelect, Mount, MountError, ServeConfig,
};
use nvsim::memsys::Runner;
use nvsim::stats::{NvmWriteKind, SystemStats};
use nvsim::trace::Trace;
use nvstore::{DiskIo, SnapshotExport, Store, StoreError};
use nvworkloads::{generate, Workload};
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage:\n  nvo list\n  nvo run --workload <name> --scheme <name> [--scale quick|standard|full] [--shards N] [--json] [--stats-out <file>]\n  nvo run --trace <file.nvtr> --scheme <name>\n  nvo trace-gen --workload <name> --out <file.nvtr> [--scale ...]\n  nvo trace <workload> --scheme <name> [--scale ...] [--trace-out <file>] [--stats-out <file>] [--buffer-cap N] [--sample N]\n  nvo snapshots --workload <name> [--scale ...]\n  nvo diff --workload <name> --from <epoch> --to <epoch> [--scale ...]\n  nvo chaos <workload> --scheme nvoverlay|sw-undo [--sites N] [--seed S] [--scale ...] [--jobs N] [--torn-p P] [--flip-p P] [--stress-backpressure] [--broken-recovery] [--out <file>] [--json]\n  nvo chaos <workload> --store [--sites N] [--seed S] [--scale ...] [--jobs N] [--torn-p P] [--flip-p P] [--out <file>] [--json]\n  nvo profile <workload> [--scheme <name>] [--shards N] [--scale ...] [--out <file>] [--structural-out <file>] [--chrome <file>] [--json]\n  nvo serve <workload> [--sessions N] [--batches K] [--batch B] [--epochs all|latest|A..B] [--workers W] [--subshards S] [--seed S] [--theta T] [--no-probes] [--scale ...] [--out <file>] [--stats-out <file>] [--json]\n  nvo query <workload> --key <byte-addr> [--epoch E|latest] [--scale ...]\n  nvo backup <workload> --store <dir> [--name <backup>] [--upto E] [--scale ...]\n  nvo restore --store <dir> [--name <backup>] [--verify]\n  nvo store <ls|rm|gc|validate> --store <dir> [--name <backup>] [--purge]\n  nvo perf [--jobs N] [--shards N] [--profile] [--serve] [--scale ...] [--out BENCH_perf.json] [--serve-out BENCH_serve.json] [--baseline <file>]"
    );
    exit(2)
}

/// Typed-error exits: print `error[<Variant>]: <message>` and exit with
/// the class's documented code (see the module docs).
fn exit_query(e: &QueryError) -> ! {
    eprintln!("error[{}]: {e}", e.name());
    exit(match e {
        QueryError::EpochZero => 10,
        QueryError::NotYetRecoverable { .. } => 11,
        QueryError::NotRetained { .. } => 12,
        QueryError::Wrapped { .. } => 13,
    })
}

fn exit_mount(e: &MountError) -> ! {
    eprintln!("error[{}]: {e}", e.name());
    exit(match e {
        MountError::Recovery(_) => 20,
        MountError::BufferNotDrained { .. } => 21,
    })
}

/// `nvo serve` found a mountable image but nothing matching the load
/// plan — distinct from a mount rejection.
const EXIT_SERVE_EMPTY: i32 = 22;

fn exit_store(e: &StoreError) -> ! {
    eprintln!("error[{}]: {e}", e.name());
    exit(match e {
        StoreError::Io { .. } => 30,
        StoreError::Checksum { .. } => 31,
        StoreError::TornManifest { .. } => 32,
        StoreError::MissingLayer { .. } => 33,
        StoreError::RefcountUnderflow { .. } => 34,
        StoreError::SchemaVersion { .. } => 35,
        StoreError::BackupNotFound { .. } => 36,
        StoreError::BackupExists { .. } => 37,
        StoreError::UnreadableEpoch { .. } => 38,
        StoreError::BufferNotDrained { .. } => 39,
    })
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if key == "json"
                || key == "stress-backpressure"
                || key == "broken-recovery"
                || key == "profile"
                || key == "serve"
                || key == "no-probes"
                || key == "verify"
                || key == "purge"
            {
                out.insert(key.to_string(), "1".into());
                i += 1;
            } else if key == "store" && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                // `--store` is a mode toggle for `nvo chaos` (no value)
                // but takes a directory everywhere else.
                out.insert(key.to_string(), "1".into());
                i += 1;
            } else if i + 1 < args.len() {
                out.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                eprintln!("flag --{key} needs a value");
                usage();
            }
        } else {
            eprintln!("unexpected argument {a:?}");
            usage();
        }
    }
    out
}

fn scale_of(flags: &HashMap<String, String>) -> EnvScale {
    match flags.get("scale").map(String::as_str) {
        Some("quick") => EnvScale::Quick,
        Some("full") => EnvScale::Full,
        Some("standard") | None => EnvScale::Standard,
        Some(other) => {
            eprintln!("unknown scale {other:?}");
            usage();
        }
    }
}

fn load_workload(flags: &HashMap<String, String>, scale: EnvScale) -> Trace {
    if let Some(path) = flags.get("trace") {
        let f = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(1);
        });
        return nvsim::trace_io::read_trace(std::io::BufReader::new(f)).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
    }
    let Some(wname) = flags.get("workload") else {
        eprintln!("--workload or --trace is required");
        usage();
    };
    let Some(w) = Workload::from_name(wname) else {
        eprintln!("unknown workload {wname:?} (see `nvo list`)");
        exit(2);
    };
    generate(w, &scale.suite_params())
}

fn cmd_list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {w}");
    }
    println!("schemes:");
    for s in Scheme::ALL {
        println!("  {}", s.name());
    }
}

fn cmd_run(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let Some(sname) = flags.get("scheme") else {
        eprintln!("--scheme is required");
        usage();
    };
    let Some(scheme) = Scheme::from_name(sname) else {
        eprintln!("unknown scheme {sname:?} (see `nvo list`)");
        exit(2);
    };
    let cfg = Arc::new(scale.sim_config());
    // `--shards N` replays through the island-sharded runner. Results
    // are invariant to N, so CI compares the outputs of different
    // counts byte-for-byte (sharded results intentionally differ from
    // the serial path's: islands are independent sub-machines).
    let (r, reg) = match shards_requested(&flags) {
        Some(n) => {
            let run = run_scheme_sharded(scheme, &cfg, &trace.to_packed(), n);
            (run.result, run.metrics)
        }
        None => {
            let (r, _stats, reg) = run_scheme_stats(scheme, &cfg, &trace.to_packed());
            (r, reg)
        }
    };
    if let Some(path) = flags.get("stats-out") {
        let wname = flags.get("workload").map(String::as_str).unwrap_or("-");
        let json = registry_json(&reg, &[("scheme", scheme.name()), ("workload", wname)]);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if flags.contains_key("json") {
        println!(
            "{{\"scheme\":\"{}\",\"cycles\":{},\"stall_cycles\":{},\"data_bytes\":{},\"log_bytes\":{},\"meta_bytes\":{},\"context_bytes\":{},\"data_writes\":{},\"epochs\":{},\"evict\":{{\"capacity\":{},\"coherence_log\":{},\"tag_walk\":{},\"store_evict\":{}}}}}",
            scheme.name(),
            r.cycles,
            r.stall_cycles,
            r.data_bytes,
            r.log_bytes,
            r.meta_bytes,
            r.context_bytes,
            r.data_writes,
            r.epochs,
            r.evict_capacity,
            r.evict_coherence_log,
            r.evict_tag_walk,
            r.evict_store,
        );
    } else {
        println!("scheme        {}", scheme.name());
        println!("cycles        {}", r.cycles);
        println!("stall cycles  {}", r.stall_cycles);
        println!(
            "NVM bytes     {} (data {}, log {}, metadata {}, context {})",
            r.total_bytes(),
            r.data_bytes,
            r.log_bytes,
            r.meta_bytes,
            r.context_bytes
        );
        println!("data writes   {}", r.data_writes);
        println!("epochs        {}", r.epochs);
        println!(
            "evictions     capacity {} / coherence+log {} / tag-walk {} / store-evict {}",
            r.evict_capacity, r.evict_coherence_log, r.evict_tag_walk, r.evict_store
        );
    }
}

fn cmd_trace_gen(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let Some(out) = flags.get("out") else {
        eprintln!("--out is required");
        usage();
    };
    let f = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1);
    });
    nvsim::trace_io::write_trace(&trace, std::io::BufWriter::new(f)).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "wrote {} ({} threads, {} accesses, {} stores)",
        out,
        trace.thread_count(),
        trace.access_count(),
        trace.store_count()
    );
}

/// `nvo trace` — one instrumented run with the structured-event tracer
/// on, exporting a Perfetto-loadable Chrome trace and (optionally) the
/// flat metrics registry.
fn cmd_trace(flags: HashMap<String, String>) {
    if !nvsim::nvtrace::compiled_in() {
        eprintln!(
            "nvo trace requires the `trace` feature; rebuild with\n  cargo build --release -p nvbench --features trace"
        );
        exit(2);
    }
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let sname = flags
        .get("scheme")
        .map(String::as_str)
        .unwrap_or("NVOverlay");
    let Some(scheme) = Scheme::from_name(sname) else {
        eprintln!("unknown scheme {sname:?} (see `nvo list`)");
        exit(2);
    };
    let mut tcfg = nvsim::nvtrace::TraceConfig::default();
    if let Some(v) = flags.get("buffer-cap") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => tcfg.capacity = n,
            _ => {
                eprintln!("--buffer-cap must be a positive integer, got {v:?}");
                exit(2);
            }
        }
    }
    if let Some(v) = flags.get("sample") {
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => tcfg.sample_every = n,
            _ => {
                eprintln!("--sample must be a positive integer, got {v:?}");
                exit(2);
            }
        }
    }
    let cfg = Arc::new(scale.sim_config());
    nvsim::nvtrace::install(tcfg);
    let (res, _stats, reg) = run_scheme_stats(scheme, &cfg, &trace.to_packed());
    let log = nvsim::nvtrace::take().expect("tracer was installed");

    let wname = flags.get("workload").map(String::as_str).unwrap_or("-");
    println!(
        "traced {} on {}: {} cycles, {} events kept ({} accepted, {} overwritten, {} sampled out)",
        scheme.name(),
        wname,
        res.cycles,
        log.events.len(),
        log.accepted,
        log.overwritten,
        log.total_sampled_out()
    );
    for kind in nvsim::nvtrace::EventKind::ALL {
        let n = log.count(kind);
        if n > 0 {
            println!("  {:>8} {}", n, kind.name());
        }
    }

    let trace_out = flags
        .get("trace-out")
        .cloned()
        .unwrap_or_else(|| "nvo_trace.json".to_string());
    let meta = ChromeMeta {
        scheme: scheme.name().to_string(),
        workload: wname.to_string(),
    };
    std::fs::write(&trace_out, chrome_trace_json(&log, &meta)).unwrap_or_else(|e| {
        eprintln!("cannot write {trace_out}: {e}");
        exit(1);
    });
    println!("  wrote {trace_out} (load it at ui.perfetto.dev)");
    if let Some(path) = flags.get("stats-out") {
        let json = registry_json(&reg, &[("scheme", scheme.name()), ("workload", wname)]);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("  wrote {path}");
    }
}

fn cmd_snapshots(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let cfg = scale.sim_config();
    let mut sys = NvOverlaySystem::new(&cfg);
    let _ = Runner::new().run(&mut sys, &trace);
    let store = sys.snapshots();
    println!("recoverable epoch: {}", store.recoverable_epoch());
    let epochs = store.epochs();
    println!("captured epochs: {}", epochs.len());
    for (e, readable) in epochs.iter().take(20) {
        let delta = if *readable {
            store
                .delta(*e)
                .map(|d| format!("{} lines", d.len()))
                .unwrap_or_else(|| "-".into())
        } else {
            "reclaimed".into()
        };
        println!("  epoch {e:>6}: {delta}");
    }
    if epochs.len() > 20 {
        println!("  ... ({} more)", epochs.len() - 20);
    }
    let wear = sys.nvm().wear_report();
    println!(
        "NVM wear: {} unique lines, {} writes, hottest line written {} times (mean {:.2})",
        wear.unique_keys, wear.total_writes, wear.max_key_writes, wear.mean_key_writes
    );
}

fn cmd_diff(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let (Some(from), Some(to)) = (
        flags.get("from").and_then(|v| v.parse::<u64>().ok()),
        flags.get("to").and_then(|v| v.parse::<u64>().ok()),
    ) else {
        eprintln!("--from <epoch> and --to <epoch> are required");
        usage();
    };
    if from >= to {
        eprintln!("--from must be less than --to");
        exit(2);
    }
    let cfg = scale.sim_config();
    let mut sys = NvOverlaySystem::new(&cfg);
    let _ = Runner::new().run(&mut sys, &trace);
    let store = sys.snapshots();
    let last = store.recoverable_epoch();
    if to > last {
        eprintln!("epoch {to} exceeds the recoverable epoch {last}");
        exit(1);
    }
    match store.diff(from, to) {
        None => {
            eprintln!("an epoch in ({from}, {to}] is no longer individually readable");
            exit(1);
        }
        Some(changes) => {
            println!(
                "{} lines changed between epoch {from} and epoch {to}:",
                changes.len()
            );
            for c in changes.iter().take(30) {
                println!(
                    "  {:#012x}: {} -> {}",
                    c.line.raw() * 64,
                    c.before.map_or("-".into(), |t| t.to_string()),
                    c.after.map_or("-".into(), |t| t.to_string()),
                );
            }
            if changes.len() > 30 {
                println!("  ... ({} more)", changes.len() - 30);
            }
        }
    }
}

/// `nvo chaos` — deterministic crash-site exploration: run the workload
/// once with the NVM fault plane attached, then fan independent
/// crash/recovery checks out across `--jobs` workers. Exits nonzero if
/// any site violates a consistency-cut invariant.
fn cmd_chaos(flags: HashMap<String, String>) {
    let sname = flags
        .get("scheme")
        .map(String::as_str)
        .unwrap_or("nvoverlay");
    let scheme = nvchaos::ChaosScheme::from_name(sname);
    // The self-test breaks NVOverlay's rebuild; no other checker reads
    // it, so elsewhere the flag would pass without testing anything.
    if flags.contains_key("broken-recovery")
        && (flags.contains_key("store") || scheme == Some(nvchaos::ChaosScheme::SwUndo))
    {
        eprintln!("--broken-recovery applies only to --scheme nvoverlay");
        exit(2);
    }
    if flags.contains_key("store") {
        return cmd_chaos_store(flags);
    }
    let Some(scheme) = scheme else {
        eprintln!("unknown chaos scheme {sname:?} (expected nvoverlay or sw-undo)");
        exit(2);
    };
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let mut ccfg = nvchaos::ChaosConfig::new(scheme);
    if let Some(v) = flags.get("sites") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => ccfg.sites = n,
            _ => {
                eprintln!("--sites must be a positive integer, got {v:?}");
                exit(2);
            }
        }
    }
    if let Some(v) = flags.get("seed") {
        match v.parse::<u64>() {
            Ok(n) => ccfg.seed = n,
            _ => {
                eprintln!("--seed must be an integer, got {v:?}");
                exit(2);
            }
        }
    }
    for (flag, slot) in [("torn-p", &mut ccfg.torn_p), ("flip-p", &mut ccfg.flip_p)] {
        if let Some(v) = flags.get(flag) {
            match v.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => *slot = p,
                _ => {
                    eprintln!("--{flag} must be a probability in [0, 1], got {v:?}");
                    exit(2);
                }
            }
        }
    }
    ccfg.stress_backpressure = flags.contains_key("stress-backpressure");
    if flags.contains_key("broken-recovery") {
        // Harness self-test: a recovery that ignores the rec-epoch
        // filter must make the invariants fire.
        ccfg.fidelity = nvchaos::RebuildFidelity::BrokenNoEpochFilter;
    }
    let jobs = jobs_of(&flags);

    let run = nvchaos::prepare(&trace, &scale.sim_config(), ccfg);
    let results = nvbench::run_ordered(run.site_count(), jobs, |i| run.check_site(i));
    let report = run.summarize(&results);
    let json = report.to_json();

    if let Some(path) = flags.get("out") {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if flags.contains_key("json") {
        print!("{json}");
    } else {
        println!(
            "chaos {}: {} sites over a {}-write journal (seed {})",
            report.scheme, report.sites_explored, report.journal_writes, report.seed
        );
        let by_cat: Vec<String> = report
            .category_counts
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{c} {n}"))
            .collect();
        println!("  sites: {}", by_cat.join(", "));
        println!(
            "  faults: {} writes dropped, {} torn, {} bit flips injected, {} detected by recovery",
            report.dropped_writes, report.torn_sites, report.flips_injected, report.faults_detected
        );
        println!("  max recovered epoch: {}", report.max_recovered_epoch);
        if report.ok() {
            println!("  invariants: all sites consistent");
        } else {
            println!("  INVARIANT VIOLATIONS: {}", report.violations.len());
            for v in report.violations.iter().take(10) {
                println!("    site {} [{}]: {}", v.site, v.category, v.message);
            }
            if report.violations.len() > 10 {
                println!("    ... ({} more)", report.violations.len() - 10);
            }
        }
    }
    if !report.ok() {
        exit(1);
    }
}

/// The worker count for a command: `--jobs` beats `NVO_JOBS` beats the
/// machine's available parallelism.
fn jobs_of(flags: &HashMap<String, String>) -> usize {
    match flags.get("jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs must be a positive integer, got {v:?}");
                exit(2);
            }
        },
        None => default_jobs(),
    }
}

/// The sharded-replay worker count, if sharding was requested at all:
/// `--shards` beats `NVO_SHARDS`; neither means the serial replay path.
/// One worker still runs the sharded algorithm (every island in turn) —
/// same results as any other worker count, no thread overlap.
fn shards_requested(flags: &HashMap<String, String>) -> Option<usize> {
    if let Some(v) = flags.get("shards") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => return Some(n),
            _ => {
                eprintln!("--shards must be a positive integer, got {v:?}");
                exit(2);
            }
        }
    }
    if let Ok(v) = std::env::var("NVO_SHARDS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return Some(n);
            }
        }
    }
    None
}

/// Extracts a named throughput object (e.g. `"throughput_maccess_s"`)
/// from a perf-report JSON (the exact format `nvo perf` writes) as
/// scheme-name → value pairs.
fn parse_throughput_baseline(json: &str, key: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return out;
    };
    let Some(open) = json[start..].find('{') else {
        return out;
    };
    let rest = &json[start + open + 1..];
    let Some(close) = rest.find('}') else {
        return out;
    };
    for pair in rest[..close].split(',') {
        let mut it = pair.splitn(2, ':');
        let (Some(k), Some(v)) = (it.next(), it.next()) else {
            continue;
        };
        if let Ok(n) = v.trim().parse::<f64>() {
            out.insert(k.trim().trim_matches('"').to_string(), n);
        }
    }
    out
}

/// Renders a per-scheme value table as JSON object members
/// (`"name": value` pairs, scheme order).
fn throughput_table_of(schemes: &[Scheme], vals: &[f64]) -> String {
    schemes
        .iter()
        .enumerate()
        .map(|(si, s)| format!("\"{}\": {:.4}", s.name(), vals[si]))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Microseconds for the JSON report. Sub-microsecond readings are below
/// the monotonic clock's meaningful granularity on the hosts we run on,
/// so they clamp to zero instead of encoding noise digits.
fn micros(secs: f64) -> u64 {
    let us = (secs * 1e6).round();
    if us < 1.0 {
        0
    } else {
        us as u64
    }
}

/// `nvo profile` — one stall-attributed island-sharded replay: runs the
/// workload through `run_scheme_sharded_prof`, prints the human-readable
/// bottleneck table (six-bucket wall-time decomposition, Amdahl-style
/// scaling forecast, per-window straggler diagnosis), and writes the
/// machine-readable profile JSON with its wall-clock fields strictly
/// segregated from the identity-checkable structural counters
/// (`--structural-out` emits the latter alone, for CI `cmp`).
/// `--chrome` additionally renders per-island utilization lanes and the
/// straggler lane as a Perfetto-loadable trace.
fn cmd_profile(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let sname = flags
        .get("scheme")
        .map(String::as_str)
        .unwrap_or("NVOverlay");
    let Some(scheme) = Scheme::from_name(sname) else {
        eprintln!("unknown scheme {sname:?} (see `nvo list`)");
        exit(2);
    };
    let shards = shards_requested(&flags).unwrap_or_else(default_host);
    let cfg = Arc::new(scale.sim_config());
    let run = run_scheme_sharded_prof(scheme, &cfg, &trace.to_packed(), shards, true);
    if !run.sharded {
        eprintln!(
            "{} is serial-only (MemorySystem::shardable is false); there is no sharded replay to profile",
            scheme.name()
        );
        exit(2);
    }
    let p = run.profile.expect("sharded profiled run carries a profile");
    let wname = flags.get("workload").map(String::as_str).unwrap_or("-");
    if !flags.contains_key("json") {
        println!(
            "profiled {} on {} ({} shards requested): {} cycles, {} imported lines",
            scheme.name(),
            wname,
            shards,
            run.result.cycles,
            run.imported_lines
        );
        print!("{}", bottleneck_table(&p));
    }

    let shards_str = shards.to_string();
    let meta: [(&str, &str); 3] = [
        ("scheme", scheme.name()),
        ("workload", wname),
        ("shards", &shards_str),
    ];
    let full = profile_json(&p, &meta);
    if flags.contains_key("json") {
        print!("{full}");
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "nvo_profile.json".to_string());
    std::fs::write(&out, &full).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    if !flags.contains_key("json") {
        println!("wrote {out}");
    }
    if let Some(path) = flags.get("structural-out") {
        std::fs::write(path, profile_structural_json(&p)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        if !flags.contains_key("json") {
            println!("wrote {path} (deterministic structural counters only)");
        }
    }
    if let Some(path) = flags.get("chrome") {
        let cmeta = ChromeMeta {
            scheme: scheme.name().to_string(),
            workload: wname.to_string(),
        };
        std::fs::write(path, chrome_profile_json(&p, &cmeta)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        if !flags.contains_key("json") {
            println!("wrote {path} (load it at ui.perfetto.dev)");
        }
    }
}

/// Builds a [`ServeConfig`] from CLI flags (defaults from
/// `ServeConfig::default`, workers from `--workers`).
fn serve_config_of(flags: &HashMap<String, String>) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    for (flag, slot) in [
        ("sessions", &mut cfg.sessions),
        ("batches", &mut cfg.batches),
        ("batch", &mut cfg.batch),
        ("workers", &mut cfg.workers),
        ("subshards", &mut cfg.subshards),
    ] {
        if let Some(v) = flags.get(flag) {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => *slot = n,
                _ => {
                    eprintln!("--{flag} must be a positive integer, got {v:?}");
                    exit(2);
                }
            }
        }
    }
    if let Some(v) = flags.get("seed") {
        match v.parse::<u64>() {
            Ok(n) => cfg.seed = n,
            _ => {
                eprintln!("--seed must be an integer, got {v:?}");
                exit(2);
            }
        }
    }
    if let Some(v) = flags.get("theta") {
        match v.parse::<f64>() {
            Ok(t) if (0.0..=5.0).contains(&t) => cfg.theta = t,
            _ => {
                eprintln!("--theta must be a skew in [0, 5], got {v:?}");
                exit(2);
            }
        }
    }
    if let Some(v) = flags.get("epochs") {
        cfg.epochs = match v.as_str() {
            "all" => EpochSelect::All,
            "latest" => EpochSelect::Latest,
            other => match other.split_once("..") {
                Some((lo, hi)) => match (lo.parse::<u64>(), hi.parse::<u64>()) {
                    (Ok(lo), Ok(hi)) if lo <= hi => EpochSelect::Range(lo, hi),
                    _ => {
                        eprintln!("--epochs range must be <lo>..<hi>, got {v:?}");
                        exit(2);
                    }
                },
                None => {
                    eprintln!("--epochs must be all, latest, or <lo>..<hi>, got {v:?}");
                    exit(2);
                }
            },
        };
    }
    cfg.error_probes = !flags.contains_key("no-probes");
    cfg
}

/// Replays the workload through NVOverlay and mounts the resulting
/// durable state for serving.
fn mounted_system(flags: &HashMap<String, String>, scale: EnvScale) -> NvOverlaySystem {
    let trace = load_workload(flags, scale);
    let cfg = scale.sim_config();
    let mut sys = NvOverlaySystem::new(&cfg);
    let _ = Runner::new().run(&mut sys, &trace);
    sys
}

/// `nvo serve` — mounts the recovered image left behind by one NVOverlay
/// run and serves a scripted concurrent load of batched point-in-time
/// reads against it. The report (and `--out` file) is deterministic:
/// byte-identical across `--workers` counts and repeated runs of one
/// seed; wall-clock throughput goes to stdout only.
fn cmd_serve(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let scfg = serve_config_of(&flags);
    let sys = mounted_system(&flags, scale);
    let mount = Mount::new(sys.mnm(), scfg.subshards).unwrap_or_else(|e| exit_mount(&e));
    let Some(plan) = serve_driver::plan(&mount, &scfg) else {
        eprintln!("nothing to serve: the image is empty or no epoch matches --epochs");
        exit(EXIT_SERVE_EMPTY);
    };
    let out = serve_engine::serve(&mount, &plan, &scfg);
    let wname = flags.get("workload").map(String::as_str).unwrap_or("-");
    let json = out.report.to_json(wname, "NVOverlay");
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if let Some(path) = flags.get("stats-out") {
        let mut reg = nvsim::metrics::Registry::new();
        out.report.metrics_into(&mut reg, "serve");
        let stats = registry_json(&reg, &[("scheme", "NVOverlay"), ("workload", wname)]);
        std::fs::write(path, stats).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if flags.contains_key("json") {
        print!("{json}");
        return;
    }
    let r = &out.report;
    println!(
        "served {wname}: {} sessions x {} batches x {} keys over {} shards ({} workers)",
        r.sessions, r.batches_per_session, r.batch, r.shards, scfg.workers,
    );
    println!(
        "  mount: rec-epoch {} (max seen {}, lag {}), {} image lines, {} servable epochs",
        r.rec_epoch, r.max_epoch_seen, r.lag, r.image_lines, r.epochs_servable
    );
    println!(
        "  answered {} of {} enqueued ({} hit a version, {} empty); {} probe batches rejected",
        r.answered,
        r.enqueued,
        r.answers_some,
        r.answers_none,
        r.errors.iter().map(|(_, v)| v).sum::<u64>(),
    );
    println!(
        "  epoch tables probed: {:.2} per query ({} over {} answers)",
        r.fallthrough as f64 / r.answered.max(1) as f64,
        r.fallthrough,
        r.answered
    );
    println!(
        "  {:.0} queries/s ({:.3}s wall), digest {:016x}",
        out.queries_per_sec(),
        out.wall_secs,
        r.digest
    );
}

/// `nvo query` — a one-shot point-in-time read: `GET key AS OF epoch`.
/// Typed epoch rejections (`QueryError`) print `error[<Variant>]` to
/// stderr and exit with the class's documented code (10–13).
fn cmd_query(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let Some(keystr) = flags.get("key") else {
        eprintln!("--key <byte-addr> is required");
        usage();
    };
    let byte = match keystr.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => keystr.parse::<u64>(),
    }
    .unwrap_or_else(|_| {
        eprintln!("--key must be a byte address (decimal or 0x-hex), got {keystr:?}");
        exit(2);
    });
    let line = nvsim::addr::Addr::new(byte).line();
    let sys = mounted_system(&flags, scale);
    let mount = Mount::new(sys.mnm(), 1).unwrap_or_else(|e| exit_mount(&e));
    let epoch = match flags.get("epoch").map(String::as_str) {
        None | Some("latest") => mount.dir().recoverable(),
        Some(v) => v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("--epoch must be an epoch number or `latest`, got {v:?}");
            exit(2);
        }),
    };
    match mount.dir().resolve(epoch) {
        Err(e) => exit_query(&e),
        Ok(view) => match mount.mnm().time_travel(line, view.epoch()) {
            Some(token) => {
                println!("{byte:#012x} @ epoch {}: {token}", view.epoch());
            }
            None => {
                println!(
                    "{byte:#012x} @ epoch {}: no version at or before this epoch",
                    view.epoch()
                );
            }
        },
    }
}

fn store_dir_of(flags: &HashMap<String, String>) -> &str {
    match flags.get("store").map(String::as_str) {
        Some(dir) if dir != "1" => dir,
        _ => {
            eprintln!("--store <dir> is required");
            usage();
        }
    }
}

fn open_store(dir: &str) -> Store<DiskIo> {
    let io = DiskIo::create(dir).unwrap_or_else(|e| {
        eprintln!("cannot open store at {dir}: {e}");
        exit(1);
    });
    Store::open(io).unwrap_or_else(|e| exit_store(&e))
}

/// `nvo backup` — replays the workload, exports the exact snapshot
/// image, and writes it into the on-disk layer store. Incremental by
/// content addressing: a second backup of the same (or a prefix) image
/// reports `0 new layers`.
fn cmd_backup(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let dir = store_dir_of(&flags).to_string();
    let name = flags.get("name").map(String::as_str).unwrap_or("snapshot");
    let sys = mounted_system(&flags, scale);
    let mut export = SnapshotExport::from_mnm(sys.mnm()).unwrap_or_else(|e| exit_store(&e));
    if let Some(v) = flags.get("upto") {
        match v.parse::<u64>() {
            Ok(e) => export = export.truncated(e),
            _ => {
                eprintln!("--upto must be an epoch number, got {v:?}");
                exit(2);
            }
        }
    }
    let mut store = open_store(&dir);
    let stats = store
        .backup(name, &export)
        .unwrap_or_else(|e| exit_store(&e));
    println!(
        "backed up {name} into {dir}: {} new layers ({} bytes), {} shared; \
         rec-epoch {}, {} epochs captured; manifest v{}",
        stats.new_layers,
        stats.new_bytes,
        stats.shared_layers,
        export.rec_epoch,
        export.deltas.len(),
        store.manifest().version
    );
}

/// `nvo restore` — reads a backup out of the store (full checksum,
/// chain, and anti-hybrid verification) and rebuilds a live backend
/// from it. `--verify` additionally mounts the result under the query
/// service and sweeps point-in-time reads against the stored master.
fn cmd_restore(flags: HashMap<String, String>) {
    let dir = store_dir_of(&flags);
    let name = flags.get("name").map(String::as_str).unwrap_or("snapshot");
    let store = open_store(dir);
    let export = store.restore(name).unwrap_or_else(|e| exit_store(&e));
    let (mnm, _nvm) = export.rebuild().unwrap_or_else(|e| exit_store(&e));
    println!(
        "restored {name} from {dir}: rec-epoch {} (max seen {}), {} epochs captured, \
         {} master lines, {} contexts",
        export.rec_epoch,
        export.max_epoch_seen,
        export.deltas.len(),
        export.master.len(),
        export.contexts.len()
    );
    if flags.contains_key("verify") {
        let mount = Mount::new(&mnm, 1).unwrap_or_else(|e| exit_mount(&e));
        let mut checked = 0usize;
        if export.rec_epoch > 0 {
            let view = mount
                .dir()
                .resolve(export.rec_epoch)
                .unwrap_or_else(|e| exit_query(&e));
            let stride = (export.master.len() / 64).max(1);
            for &(l, t) in export.master.iter().step_by(stride) {
                let got = mount
                    .mnm()
                    .time_travel(nvsim::addr::LineAddr::new(l), view.epoch());
                if got != Some(t) {
                    eprintln!(
                        "error[Checksum]: mounted read of line {l:#x} at epoch {} returned \
                         {got:?}, stored master says {t}",
                        view.epoch()
                    );
                    exit(31);
                }
                checked += 1;
            }
        }
        println!(
            "verified: recovery passed, mounted under the query service, \
             {checked} point-in-time reads match the stored master"
        );
    }
}

/// `nvo store <ls|rm|gc|validate>` — maintenance of an on-disk layer
/// store: list contents, drop a backup, sweep unreferenced layers into
/// quarantine (`--purge` deletes the quarantine for good), or fully
/// re-verify every backup.
fn cmd_store(args: &[String]) {
    let Some(sub) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("nvo store needs a subcommand: ls, rm, gc, or validate");
        usage();
    };
    let flags = parse_flags(&args[1..]);
    let dir = store_dir_of(&flags);
    match sub.as_str() {
        "ls" => {
            let store = open_store(dir);
            let m = store.manifest();
            let layer_bytes: u64 = m.layers.iter().map(|(_, meta)| meta.bytes).sum();
            println!(
                "store {dir}: manifest v{}, {} backups, {} layers ({} bytes), {} quarantined",
                m.version,
                m.backups.len(),
                m.layers.len(),
                layer_bytes,
                m.quarantine.len()
            );
            for b in &m.backups {
                println!(
                    "  {}: rec-epoch {} (max seen {}), {} delta layers, {} OMCs x {} VDs",
                    b.name,
                    b.rec_epoch,
                    b.max_epoch_seen,
                    b.deltas.len(),
                    b.omcs,
                    b.vds
                );
            }
        }
        "rm" => {
            let Some(name) = flags.get("name") else {
                eprintln!("--name <backup> is required");
                usage();
            };
            let mut store = open_store(dir);
            store.remove(name).unwrap_or_else(|e| exit_store(&e));
            println!("removed {name} from {dir}; run `nvo store gc` to quarantine its layers");
        }
        "gc" => {
            let mut store = open_store(dir);
            let stats = store.gc().unwrap_or_else(|e| exit_store(&e));
            println!(
                "gc {dir}: {} layers quarantined, {} live",
                stats.quarantined, stats.live
            );
            if flags.contains_key("purge") {
                let purged = store.purge_quarantine().unwrap_or_else(|e| exit_store(&e));
                println!("purged {purged} quarantined layer files");
            }
        }
        "validate" => {
            let store = open_store(dir);
            let n = store.validate().unwrap_or_else(|e| exit_store(&e));
            println!("store {dir} is consistent: {n} backups fully verified");
        }
        other => {
            eprintln!("unknown store subcommand {other:?} (expected ls, rm, gc, or validate)");
            usage();
        }
    }
}

/// `nvo chaos --store` — crashes the backup machinery instead of the
/// simulated NVM: replays seeded prefix cuts (with torn tail writes and
/// bit flips) of a recorded backup → backup → remove → gc session and
/// requires a clean prior-manifest restore or a typed `StoreError` at
/// every site. Every exact restore is additionally mounted under the
/// query service and spot-checked against `time_travel`.
fn cmd_chaos_store(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let trace = load_workload(&flags, scale);
    let mut cfg = nvchaos::StoreChaosConfig::default();
    if let Some(v) = flags.get("sites") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => cfg.sites = n,
            _ => {
                eprintln!("--sites must be a positive integer, got {v:?}");
                exit(2);
            }
        }
    }
    if let Some(v) = flags.get("seed") {
        match v.parse::<u64>() {
            Ok(n) => cfg.seed = n,
            _ => {
                eprintln!("--seed must be an integer, got {v:?}");
                exit(2);
            }
        }
    }
    for (flag, slot) in [("torn-p", &mut cfg.torn_p), ("flip-p", &mut cfg.flip_p)] {
        if let Some(v) = flags.get(flag) {
            match v.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => *slot = p,
                _ => {
                    eprintln!("--{flag} must be a probability in [0, 1], got {v:?}");
                    exit(2);
                }
            }
        }
    }
    let jobs = jobs_of(&flags);

    let run =
        nvchaos::prepare_store(&trace, &scale.sim_config(), cfg).unwrap_or_else(|e| exit_store(&e));
    // The mount probe nvchaos cannot name itself (it would cycle on
    // nvserve): every exact restore must also mount and answer like
    // `time_travel` does.
    let mount_check = |mnm: &nvoverlay::mnm::Mnm, export: &SnapshotExport| -> Result<(), String> {
        let mount =
            Mount::new(mnm, 1).map_err(|e| format!("mount rejected the restored image: {e}"))?;
        if export.rec_epoch == 0 {
            return Ok(());
        }
        let view = mount
            .dir()
            .resolve(export.rec_epoch)
            .map_err(|e| format!("resolve({}) failed: {e}", export.rec_epoch))?;
        let stride = (export.master.len() / 8).max(1);
        for &(l, t) in export.master.iter().step_by(stride) {
            if mount
                .mnm()
                .time_travel(nvsim::addr::LineAddr::new(l), view.epoch())
                != Some(t)
            {
                return Err(format!(
                    "mounted read of line {l:#x} diverges from the stored master"
                ));
            }
        }
        Ok(())
    };
    let results = nvbench::run_ordered(run.site_count(), jobs, |i| {
        run.check_site(i, Some(&mount_check))
    });
    let report = run.summarize(&results);
    let json = report.to_json();

    if let Some(path) = flags.get("out") {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
    }
    if flags.contains_key("json") {
        print!("{json}");
    } else {
        println!(
            "store chaos: {} fault sites over a {}-op journal ({} writes, {} renames, {} removes; seed {})",
            report.sites_explored,
            report.journal_writes + report.journal_renames + report.journal_removes,
            report.journal_writes,
            report.journal_renames,
            report.journal_removes,
            report.seed
        );
        let by_cat: Vec<String> = report
            .category_counts
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{c} {n}"))
            .collect();
        println!("  sites: {}", by_cat.join(", "));
        let typed: Vec<String> = report
            .typed_errors
            .iter()
            .map(|(n, c)| format!("{n} {c}"))
            .collect();
        println!(
            "  faults: {} torn writes, {} bit flips; typed errors: {}",
            report.torn_sites,
            report.flips_injected,
            if typed.is_empty() {
                "none".to_string()
            } else {
                typed.join(", ")
            }
        );
        println!(
            "  checked: {} exact restores, {} mounts; max manifest version {}",
            report.restores_checked, report.mounts_checked, report.max_manifest_version
        );
        if report.ok() {
            println!("  contract: every site restored a committed state or failed typed");
        } else {
            println!("  CONTRACT VIOLATIONS: {}", report.violations.len());
            for v in report.violations.iter().take(10) {
                println!("    site {} [{}]: {}", v.site, v.category, v.message);
            }
            if report.violations.len() > 10 {
                println!("    ... ({} more)", report.violations.len() - 10);
            }
        }
    }
    if !report.ok() {
        exit(1);
    }
}

/// `nvo perf` — times the parallel experiment engine against the serial
/// driver on a fixed 6-scheme × 4-workload matrix, reports per-scheme
/// serial replay throughput (Maccesses/s), then replays the same matrix
/// through the island-sharded runner at several worker counts
/// (`--shards`/`NVO_SHARDS` picks the headline count) and reports the
/// intra-workload sharded throughput and speedup. Writes
/// `BENCH_perf.json` with the per-phase breakdown (plan building timed
/// apart from replay). `--baseline <file>` gates the run against a
/// checked-in report: any scheme dropping more than 20% below its
/// baseline throughput (serial or sharded) fails the command, as does
/// any scheme whose serial/sharded overhead ratio exceeds its absolute
/// `sharded_overhead_ratio` ceiling; the throughput floors (not the
/// overhead ceilings, which are host-independent) are
/// announced-and-skipped on 1-way hosts, where one worker thread cannot
/// express a sharded speedup.
fn cmd_perf(flags: HashMap<String, String>) {
    let scale = scale_of(&flags);
    let jobs = jobs_of(&flags);
    let shards = shards_requested(&flags).unwrap_or(1);
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let cfg = Arc::new(scale.sim_config());
    let params = scale.suite_params();
    let workloads = [
        Workload::HashTable,
        Workload::BTree,
        Workload::Art,
        Workload::Kmeans,
    ];
    let schemes = Scheme::FIGURE;

    println!(
        "perf: {} schemes x {} workloads (scale {scale:?}), serial vs {jobs} jobs",
        schemes.len(),
        workloads.len()
    );

    // Phase timings for both drivers: trace generation, replay, stats.
    let mut timing = [Spans::new(), Spans::new()]; // [serial, parallel]

    // Serial pass, timed per scheme: each scheme replays every workload
    // on the calling thread, which yields the per-scheme throughput
    // table on top of the aggregate phase timing.
    let mut scheme_secs = vec![0.0f64; schemes.len()];
    let serial_traces = timing[0].time("trace_gen", || gen_traces(&workloads, &params, 1));
    let total_accesses: u64 = serial_traces.iter().map(|t| t.access_count()).sum();
    let serial_rows: Vec<Vec<(ExpResult, SystemStats)>> = timing[0].time("replay", || {
        let mut rows: Vec<Vec<(ExpResult, SystemStats)>> = (0..serial_traces.len())
            .map(|_| Vec::with_capacity(schemes.len()))
            .collect();
        for (ti, trace) in serial_traces.iter().enumerate() {
            for (si, s) in schemes.iter().enumerate() {
                let t0 = Instant::now();
                let (res, stats, _) = run_scheme_stats(*s, &cfg, trace);
                scheme_secs[si] += t0.elapsed().as_secs_f64();
                rows[ti].push((res, stats));
            }
        }
        rows
    });

    // Parallel pass through the matrix engine.
    let par_traces = timing[1].time("trace_gen", || gen_traces(&workloads, &params, jobs));
    let par_rows = timing[1].time("replay", || {
        run_matrix_stats(&schemes, &cfg, &par_traces, jobs)
    });

    // Stats phase for both: merge every run's stats block into one
    // aggregate (the same `SystemStats::merge` the figure drivers use)
    // and derive the summary scalars from it.
    for (di, rows) in [&serial_rows, &par_rows].into_iter().enumerate() {
        let (cycles, merged) = timing[di].time("stats", || {
            let mut merged = SystemStats::default();
            let mut cycles = 0u64;
            for (r, s) in rows.iter().flat_map(|row| row.iter()) {
                cycles += r.cycles;
                merged.merge(s);
            }
            (cycles, merged)
        });
        let bytes: u64 = NvmWriteKind::ALL.iter().map(|k| merged.nvm.bytes(*k)).sum();
        // The stats phase is microseconds-scale: print and report it in
        // µs — seconds with six decimals (`0.000005`) is below the
        // clock's meaningful resolution and reads as noise.
        println!(
            "  {}: trace-gen {:.3}s, replay {:.3}s, stats {}us, total {:.3}s (sum cycles {cycles}, sum NVM bytes {bytes})",
            if di == 0 { "serial  " } else { "parallel" },
            timing[di].secs("trace_gen"),
            timing[di].secs("replay"),
            micros(timing[di].secs("stats")),
            timing[di].total_secs(),
        );
    }

    // Per-scheme replay throughput over the serial pass: every scheme
    // replays the same `total_accesses` events, so Maccesses/s is
    // directly comparable across schemes and across commits.
    let maccess: Vec<f64> = scheme_secs
        .iter()
        .map(|s| total_accesses as f64 / 1e6 / s.max(1e-9))
        .collect();
    println!("  replay throughput, serial ({total_accesses} accesses per scheme):");
    for (si, s) in schemes.iter().enumerate() {
        println!("    {:<12} {:>8.2} Maccess/s", s.name(), maccess[si]);
    }

    // Sharded replay phase: the same matrix through the island-sharded
    // runner, once per probed worker count. Count 1 is the reference
    // for both determinism (results must be invariant to the worker
    // count) and the sharded speedup; 2/4/8 are always probed so the
    // determinism check covers the whole worker-count ladder (and the
    // 8-way point exposes cadence/exchange races a 2-way run hides).
    let shard_counts: Vec<usize> = {
        let mut v = vec![1, 2, 4, 8, shards];
        v.sort_unstable();
        v.dedup();
        v
    };

    // Plan pre-build, timed apart from replay: each workload's shard
    // plan (island split, filtered exchange arena, rendezvous cadence)
    // is built once here and memoized, so every sweep iteration below
    // hits the plan cache and `replay_s` measures replay alone.
    let plan_t0 = Instant::now();
    for trace in &par_traces {
        let _ = nvsim::ShardPlan::cached(trace, &cfg);
    }
    let plan_build_s = plan_t0.elapsed().as_secs_f64();
    println!(
        "  sharded plan build: {}us ({} workloads, shared across schemes and worker counts)",
        micros(plan_build_s),
        par_traces.len()
    );
    let mut sharded_secs = vec![0.0f64; shard_counts.len()];
    let mut scheme_sharded_secs = vec![0.0f64; schemes.len()];
    // Denominator for the overhead ratio: serial replays of the same
    // cell timed back-to-back with its headline sharded replays, in
    // palindromic order (sharded, serial, serial, sharded). The serial
    // pass above ran much earlier in the process, and host drift
    // (frequency scaling, allocator state) between the two sampling
    // points would otherwise masquerade as sharding overhead; within a
    // cell the first run additionally pays a cache/allocator warm-up
    // the second rides on. The palindrome charges each mode one edge
    // and one middle position, cancelling both effects. Each cell takes
    // OVERHEAD_REPS palindromic samples and keeps each mode's *best*
    // pair: on a shared 1-way host, co-tenant bursts can inflate a
    // single sample severalfold, and the minimum is the standard
    // noise-robust estimator of the true cost — a burst would have to
    // hit the same cell in every rep to survive.
    let mut scheme_serial_adj_secs = vec![0.0f64; schemes.len()];
    const OVERHEAD_REPS: usize = 3;
    let mut sharded_identical = true;
    let mut reference: Vec<(ExpResult, SystemStats, String)> = Vec::new();
    for (ci, &count) in shard_counts.iter().enumerate() {
        let t0 = Instant::now();
        let mut extra_secs = 0.0f64;
        let mut cell = 0usize;
        for trace in &par_traces {
            for (si, s) in schemes.iter().enumerate() {
                let ts = Instant::now();
                let run = run_scheme_sharded(*s, &cfg, trace, count);
                if count == shards {
                    let sweep_run_s = ts.elapsed().as_secs_f64();
                    let tx = Instant::now();
                    let mut best_sh = f64::INFINITY;
                    let mut best_se = f64::INFINITY;
                    for rep in 0..OVERHEAD_REPS {
                        // The first palindrome reuses the sweep replay
                        // as its leading sharded edge.
                        let sh_lead = if rep == 0 {
                            sweep_run_s
                        } else {
                            let t = Instant::now();
                            let _ = run_scheme_sharded(*s, &cfg, trace, count);
                            t.elapsed().as_secs_f64()
                        };
                        let t = Instant::now();
                        let _ = run_scheme_stats(*s, &cfg, trace);
                        let _ = run_scheme_stats(*s, &cfg, trace);
                        let se = t.elapsed().as_secs_f64();
                        let t = Instant::now();
                        let _ = run_scheme_sharded(*s, &cfg, trace, count);
                        best_sh = best_sh.min(sh_lead + t.elapsed().as_secs_f64());
                        best_se = best_se.min(se);
                    }
                    scheme_sharded_secs[si] += best_sh;
                    scheme_serial_adj_secs[si] += best_se;
                    extra_secs += tx.elapsed().as_secs_f64();
                }
                let out = (run.result, run.stats, run.metrics.dump_tree());
                if ci == 0 {
                    reference.push(out);
                } else if reference[cell] != out {
                    sharded_identical = false;
                }
                cell += 1;
            }
        }
        // The palindromes' extra replays are interleaved into this pass
        // for drift cancellation but are not part of the sweep; keep
        // them out of the phase timing.
        sharded_secs[ci] = t0.elapsed().as_secs_f64() - extra_secs;
    }
    let ref_secs = sharded_secs[0];
    let req_secs = sharded_secs[shard_counts.iter().position(|&c| c == shards).unwrap()];
    let sharded_speedup = ref_secs / req_secs.max(1e-9);
    let sharded_meaningful = default_host() > 1 && shards > 1;
    // Each cell contributes its best palindrome's two sharded replays,
    // so the totals cover the matrix twice at the headline count.
    let sharded_maccess: Vec<f64> = scheme_sharded_secs
        .iter()
        .map(|s| 2.0 * total_accesses as f64 / 1e6 / s.max(1e-9))
        .collect();
    println!("  replay throughput, sharded ({shards} shards):");
    for (si, s) in schemes.iter().enumerate() {
        println!(
            "    {:<12} {:>8.2} Maccess/s",
            s.name(),
            sharded_maccess[si]
        );
    }
    println!(
        "  sharded output identical across {shard_counts:?} shards: {}",
        if sharded_identical {
            "yes"
        } else {
            "NO — BUG"
        }
    );
    println!(
        "  sharded speedup: {sharded_speedup:.2}x ({shards} shards vs 1, host parallelism {}){}",
        default_host(),
        if sharded_meaningful {
            ""
        } else {
            " — not meaningful on this host, gate skipped"
        }
    );

    // Per-scheme sharding overhead: serial time over sharded time, both
    // sampled back-to-back in the sweep above (best palindrome per
    // cell) so host drift and co-tenant bursts cancel. >1
    // means sharding costs throughput at this worker count
    // (plan/barrier/exchange/merge overhead); the ratio is meaningful
    // even on a 1-way host, so regressions are visible before a
    // multi-way box exists.
    let overhead_ratio: Vec<f64> = scheme_sharded_secs
        .iter()
        .zip(&scheme_serial_adj_secs)
        .map(|(sharded, serial)| sharded / serial.max(1e-9))
        .collect();
    println!(
        "  sharding overhead (sharded/serial time, best of {OVERHEAD_REPS} palindromic samples):"
    );
    for (si, s) in schemes.iter().enumerate() {
        println!("    {:<12} {:>8.3}x", s.name(), overhead_ratio[si]);
    }

    // Profiled sharded pass (--profile): the same matrix once more with
    // stall attribution on. Verifies the profiler is result-invisible
    // (outputs still match the 1-worker reference), attributes ≥95% of
    // wall-time to the six buckets, and stays within noise of the
    // unprofiled pass's wall time.
    let profile_enabled = flags.contains_key("profile");
    let mut profile_block = String::new();
    let mut profile_failed = false;
    if profile_enabled {
        let mut scheme_prof_secs = vec![0.0f64; schemes.len()];
        let mut min_attr = 1.0f64;
        let mut profiled_identical = true;
        let mut showcase: Option<nvsim::ShardProfile> = None;
        let t0 = Instant::now();
        let mut cell = 0usize;
        for (ti, trace) in par_traces.iter().enumerate() {
            for (si, s) in schemes.iter().enumerate() {
                let ts = Instant::now();
                let run = run_scheme_sharded_prof(*s, &cfg, trace, shards, true);
                scheme_prof_secs[si] += ts.elapsed().as_secs_f64();
                let out = (run.result, run.stats, run.metrics.dump_tree());
                if reference[cell] != out {
                    profiled_identical = false;
                }
                cell += 1;
                if let Some(p) = run.profile {
                    min_attr = min_attr.min(p.attributed_fraction());
                    if ti == 0 && *s == Scheme::NvOverlay {
                        showcase = Some(p);
                    }
                }
            }
        }
        let prof_secs = t0.elapsed().as_secs_f64();
        let overhead = prof_secs / req_secs.max(1e-9) - 1.0;
        let prof_maccess: Vec<f64> = scheme_prof_secs
            .iter()
            .map(|s| total_accesses as f64 / 1e6 / s.max(1e-9))
            .collect();
        println!(
            "  profiled sharded pass: {prof_secs:.3}s ({:+.1}% vs unprofiled), min attributed {:.1}%, outputs identical: {}",
            100.0 * overhead,
            100.0 * min_attr,
            if profiled_identical { "yes" } else { "NO — BUG" }
        );
        if let Some(p) = &showcase {
            println!("  --- NVOverlay / {} ---", workloads[0]);
            for line in bottleneck_table(p).lines() {
                println!("  {line}");
            }
        }
        if min_attr < 0.95 {
            eprintln!(
                "PROFILE: only {:.1}% of sharded wall-time attributed to the six buckets (< 95%)",
                100.0 * min_attr
            );
            profile_failed = true;
        }
        if overhead > 0.02 {
            println!(
                "  PROFILE: overhead {:+.1}% exceeds the 2% target (wall-clock noise tolerated up to 10%)",
                100.0 * overhead
            );
        }
        if overhead > 0.10 {
            // Same convention as the speedup gates: wall-clock ratios
            // on a 1-way host are scheduler noise, so announce the
            // skip instead of false-failing.
            if default_host() > 1 {
                eprintln!(
                    "PROFILE: profiled pass {:+.1}% slower than unprofiled — instrumentation is no longer cheap",
                    100.0 * overhead
                );
                profile_failed = true;
            } else {
                println!(
                    "  PROFILE: overhead gate not meaningful on this host (parallelism 1), skipped"
                );
            }
        }
        if !profiled_identical {
            eprintln!("PROFILE: profiling changed the sharded replay results");
            profile_failed = true;
        }
        // The forecast clamps at the island count — requesting more
        // workers than islands cannot help, so 8 and 16 repeat the
        // cap's value on an 8-island topology. The report says so
        // explicitly (`island_cap` + the clamped-k list) instead of
        // leaving the duplicated values to look like a bug.
        let (serial_frac, island_cap, pred, clamped) = showcase
            .as_ref()
            .map(|p| {
                (
                    p.serial_fraction(),
                    p.island_cap(),
                    [2usize, 4, 8, 16].map(|k| p.predicted_speedup(k)),
                    [2usize, 4, 8, 16]
                        .iter()
                        .filter(|&&k| p.speedup_clamped(k))
                        .map(|k| k.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                )
            })
            .unwrap_or((0.0, 1, [1.0; 4], String::new()));
        profile_block = format!(
            ",\n  \"profile\": {{\"throughput_profiled_maccess_s\": {{{}}}, \"attributed_fraction_min\": {:.4}, \"overhead_vs_unprofiled\": {:.4}, \"outputs_identical\": {}, \"nvoverlay_serial_fraction\": {:.6}, \"nvoverlay_island_cap\": {}, \"nvoverlay_predicted_speedup\": {{\"2\": {:.4}, \"4\": {:.4}, \"8\": {:.4}, \"16\": {:.4}}}, \"nvoverlay_predicted_speedup_clamped\": [{}]}}",
            throughput_table_of(&schemes, &prof_maccess),
            min_attr,
            overhead,
            profiled_identical,
            serial_frac,
            island_cap,
            pred[0],
            pred[1],
            pred[2],
            pred[3],
            clamped,
        );
    }

    // Serving-layer pass (--serve): replay each workload through
    // NVOverlay once, mount the durable state, and serve the default
    // scripted load at `jobs` workers and again at 1 worker. Gates:
    // the two reports must be byte-identical (worker-count
    // determinism). Writes `BENCH_serve.json` with queries/s and epoch
    // tables probed per query for each workload; `--baseline`
    // additionally enforces `serve_queries_s` floors (>20% drop
    // fails), skipped on 1-way hosts like the other threaded floors.
    let serve_enabled = flags.contains_key("serve");
    let mut serve_failed = false;
    if serve_enabled {
        let serve_out_path = flags
            .get("serve-out")
            .cloned()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        let scfg = ServeConfig {
            workers: jobs,
            ..ServeConfig::default()
        };
        let scfg_ref = ServeConfig {
            workers: 1,
            ..scfg.clone()
        };
        let mut serve_identical = true;
        let mut qps = vec![0.0f64; workloads.len()];
        let mut lookups = vec![0.0f64; workloads.len()];
        let mut answered = vec![0u64; workloads.len()];
        for (ti, trace) in par_traces.iter().enumerate() {
            let mut sys = NvOverlaySystem::new(&cfg);
            let _ = Runner::new().run_packed(&mut sys, trace);
            let mount = Mount::new(sys.mnm(), scfg.subshards).unwrap_or_else(|e| {
                eprintln!("SERVE: cannot mount {}: {e}", workloads[ti]);
                exit(1);
            });
            let Some(plan) = serve_driver::plan(&mount, &scfg) else {
                eprintln!("SERVE: nothing to serve for {}", workloads[ti]);
                exit(1);
            };
            let wname = workloads[ti].name();
            let out = serve_engine::serve(&mount, &plan, &scfg);
            let ref_out = serve_engine::serve(&mount, &plan, &scfg_ref);
            if out.report.to_json(wname, "NVOverlay") != ref_out.report.to_json(wname, "NVOverlay")
            {
                serve_identical = false;
            }
            qps[ti] = out.queries_per_sec();
            lookups[ti] = out.report.fallthrough as f64 / out.report.answered.max(1) as f64;
            answered[ti] = out.report.answered;
        }
        println!("  serve pass ({jobs} workers vs 1, default load):");
        for (ti, w) in workloads.iter().enumerate() {
            println!(
                "    {:<12} {:>10.0} queries/s, {:>6.2} tables probed per query",
                w.name(),
                qps[ti],
                lookups[ti]
            );
        }
        println!(
            "  serve output identical across worker counts: {}",
            if serve_identical { "yes" } else { "NO — BUG" }
        );
        if !serve_identical {
            eprintln!("SERVE: worker count changed the serve report");
            serve_failed = true;
        }
        let table_of = |vals: &[f64]| {
            workloads
                .iter()
                .enumerate()
                .map(|(ti, w)| format!("\"{}\": {:.4}", w.name(), vals[ti]))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let u64_table_of = |vals: &[u64]| {
            workloads
                .iter()
                .enumerate()
                .map(|(ti, w)| format!("\"{}\": {}", w.name(), vals[ti]))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let serve_json = format!(
            "{{\n  \"scale\": \"{:?}\",\n  \"workers\": {},\n  \"config\": {{\"sessions\": {}, \"batches\": {}, \"batch\": {}, \"subshards\": {}, \"seed\": {}, \"theta\": {:.4}, \"epochs\": \"{}\"}},\n  \"serve_queries_s\": {{{}}},\n  \"lookups_per_query\": {{{}}},\n  \"answered\": {{{}}},\n  \"outputs_identical\": {}\n}}\n",
            scale,
            jobs,
            scfg.sessions,
            scfg.batches,
            scfg.batch,
            scfg.subshards,
            scfg.seed,
            scfg.theta,
            scfg.epochs,
            table_of(&qps),
            table_of(&lookups),
            u64_table_of(&answered),
            serve_identical,
        );
        std::fs::write(&serve_out_path, serve_json).unwrap_or_else(|e| {
            eprintln!("cannot write {serve_out_path}: {e}");
            exit(1);
        });
        println!("  wrote {serve_out_path}");
        if let Some(path) = flags.get("baseline") {
            let txt = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                exit(1);
            });
            let base = parse_throughput_baseline(&txt, "serve_queries_s");
            if base.is_empty() {
                println!("  serve baseline gate: no serve_queries_s table in {path}, skipped");
            } else if default_host() <= 1 {
                println!(
                    "  serve baseline gate: {} floors SKIPPED (host parallelism 1)",
                    base.len()
                );
            } else {
                for (ti, w) in workloads.iter().enumerate() {
                    if let Some(&b) = base.get(w.name()) {
                        if qps[ti] < b * 0.8 {
                            eprintln!(
                                "REGRESSION: {} serve throughput {:.0} queries/s is >20% below baseline {:.0}",
                                w.name(),
                                qps[ti],
                                b
                            );
                            serve_failed = true;
                        }
                    }
                }
                if !serve_failed {
                    println!("  serve baseline gate: all workloads within 20% of {path}");
                }
            }
        }
    }

    let identical = serial_rows == par_rows && sharded_identical;
    let totals = [timing[0].total_secs(), timing[1].total_secs()];
    let speedup = totals[0] / totals[1].max(1e-9);
    // A 1-CPU host (or a single-job invocation) cannot show a parallel
    // speedup; annotate the report and skip the speedup gate there.
    let meaningful = default_host() > 1 && jobs > 1;
    println!(
        "  parallel output identical to serial: {}",
        if identical { "yes" } else { "NO — BUG" }
    );
    println!(
        "  speedup: {speedup:.2}x ({jobs} jobs, host parallelism {}){}",
        default_host(),
        if meaningful {
            ""
        } else {
            " — not meaningful on this host, gate skipped"
        }
    );

    let throughput_table = |vals: &[f64]| throughput_table_of(&schemes, vals);
    let shard_counts_json = shard_counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"matrix\": {{\"schemes\": {}, \"workloads\": {}, \"scale\": \"{:?}\"}},\n  \"host_parallelism\": {},\n  \"jobs\": {},\n  \"shards\": {},\n  \"accesses_per_scheme\": {},\n  \"serial\": {{\"trace_gen_s\": {:.6}, \"replay_s\": {:.6}, \"stats_us\": {}, \"total_s\": {:.6}}},\n  \"parallel\": {{\"trace_gen_s\": {:.6}, \"replay_s\": {:.6}, \"stats_us\": {}, \"total_s\": {:.6}}},\n  \"sharded\": {{\"counts\": [{}], \"plan_build_s\": {:.6}, \"replay_1_s\": {:.6}, \"replay_s\": {:.6}}},\n  \"throughput_maccess_s\": {{{}}},\n  \"throughput_sharded_maccess_s\": {{{}}},\n  \"sharded_overhead_ratio\": {{{}}},\n  \"speedup\": {:.4},\n  \"speedup_meaningful\": {},\n  \"sharded_speedup\": {:.4},\n  \"sharded_speedup_meaningful\": {},\n  \"outputs_identical\": {}{}\n}}\n",
        schemes.len(),
        workloads.len(),
        scale,
        default_host(),
        jobs,
        shards,
        total_accesses,
        timing[0].secs("trace_gen"),
        timing[0].secs("replay"),
        micros(timing[0].secs("stats")),
        totals[0],
        timing[1].secs("trace_gen"),
        timing[1].secs("replay"),
        micros(timing[1].secs("stats")),
        totals[1],
        shard_counts_json,
        plan_build_s,
        ref_secs,
        req_secs,
        throughput_table(&maccess),
        throughput_table(&sharded_maccess),
        throughput_table(&overhead_ratio),
        speedup,
        meaningful,
        sharded_speedup,
        sharded_meaningful,
        identical,
        profile_block,
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        exit(1);
    });
    println!("  wrote {out_path}");

    // Throughput regression gate against a checked-in baseline report.
    let mut regressed = false;
    if let Some(path) = flags.get("baseline") {
        let txt = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            exit(1);
        });
        let base = parse_throughput_baseline(&txt, "throughput_maccess_s");
        if base.is_empty() {
            eprintln!("baseline {path} has no throughput_maccess_s table");
            exit(1);
        }
        for (si, s) in schemes.iter().enumerate() {
            if let Some(&b) = base.get(s.name()) {
                let floor = b * 0.8;
                if maccess[si] < floor {
                    eprintln!(
                        "REGRESSION: {} replay throughput {:.2} Maccess/s is >20% below baseline {:.2}",
                        s.name(),
                        maccess[si],
                        b
                    );
                    regressed = true;
                }
            }
        }
        // Sharded floors only bind where a sharded speedup is
        // expressible; a 1-way host announces the skip instead of
        // silently passing.
        let base_sharded = parse_throughput_baseline(&txt, "throughput_sharded_maccess_s");
        if !base_sharded.is_empty() {
            if !sharded_meaningful {
                println!(
                    "  baseline gate: {} sharded floors SKIPPED (host parallelism {}, {} shards)",
                    base_sharded.len(),
                    default_host(),
                    shards
                );
            } else {
                for (si, s) in schemes.iter().enumerate() {
                    if let Some(&b) = base_sharded.get(s.name()) {
                        let floor = b * 0.8;
                        if sharded_maccess[si] < floor {
                            eprintln!(
                                "REGRESSION: {} sharded throughput {:.2} Maccess/s is >20% below baseline {:.2}",
                                s.name(),
                                sharded_maccess[si],
                                b
                            );
                            regressed = true;
                        }
                    }
                }
            }
        }
        // Sharding-overhead gate: the serial/sharded throughput ratio
        // is a pure overhead measure, meaningful on any host. The
        // baseline values are absolute ceilings (1.10 everywhere since
        // the plan-cache/coalescing rework), and exceeding one FAILS
        // the run — barrier/exchange/plan regressions must surface
        // even where the sharded-throughput floors are skipped.
        let mut base_ratio = parse_throughput_baseline(&txt, "sharded_overhead_ratio");
        if base_ratio.is_empty() && !base_sharded.is_empty() {
            // Older baselines carry only the two throughput tables;
            // derive the ceiling from them.
            for (k, serial) in &base {
                if let Some(shd) = base_sharded.get(k) {
                    base_ratio.insert(k.clone(), serial / shd.max(1e-9));
                }
            }
        }
        for (si, s) in schemes.iter().enumerate() {
            if let Some(&b) = base_ratio.get(s.name()) {
                if overhead_ratio[si] > b {
                    eprintln!(
                        "REGRESSION: {} sharded overhead ratio {:.3} exceeds the {:.2} ceiling (serial/sharded throughput)",
                        s.name(),
                        overhead_ratio[si],
                        b
                    );
                    regressed = true;
                }
            }
        }
        if !regressed {
            println!("  baseline gate: all schemes within 20% of {path}");
        }
    }
    if !identical {
        exit(1);
    }
    if meaningful && speedup < 1.0 {
        eprintln!("parallel driver slower than serial on a multi-core host");
        exit(1);
    }
    if sharded_meaningful && sharded_speedup < 1.0 {
        eprintln!("sharded replay slower than one worker on a multi-core host");
        exit(1);
    }
    if regressed || profile_failed || serve_failed {
        exit(1);
    }
}

fn default_host() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses `<subcommand> [<workload>] --flags ...` — an optional
/// positional workload name before the flags (trace, chaos, profile,
/// serve, and query all accept it).
fn flags_with_positional_workload(args: &[String]) -> HashMap<String, String> {
    let (positional, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
        _ => (None, args),
    };
    let mut flags = parse_flags(rest);
    if let Some(w) = positional {
        flags.entry("workload".to_string()).or_insert(w);
    }
    flags
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(parse_flags(&args[1..])),
        Some("trace-gen") => cmd_trace_gen(parse_flags(&args[1..])),
        Some("trace") => cmd_trace(flags_with_positional_workload(&args[1..])),
        Some("snapshots") => cmd_snapshots(parse_flags(&args[1..])),
        Some("diff") => cmd_diff(parse_flags(&args[1..])),
        Some("chaos") => cmd_chaos(flags_with_positional_workload(&args[1..])),
        Some("profile") => cmd_profile(flags_with_positional_workload(&args[1..])),
        Some("serve") => cmd_serve(flags_with_positional_workload(&args[1..])),
        Some("query") => cmd_query(flags_with_positional_workload(&args[1..])),
        Some("backup") => cmd_backup(flags_with_positional_workload(&args[1..])),
        Some("restore") => cmd_restore(parse_flags(&args[1..])),
        Some("store") => cmd_store(&args[1..]),
        Some("perf") => cmd_perf(parse_flags(&args[1..])),
        _ => usage(),
    }
}
