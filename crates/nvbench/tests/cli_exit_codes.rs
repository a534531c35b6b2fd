//! Pins the documented `nvo` exit-code contract (see the module docs of
//! `src/bin/nvo.rs`): every typed error class maps to a stable exit
//! code, and the variant name reaches stderr as `error[<Variant>]` so
//! scripts and CI can grep the class without parsing prose.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nvo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvo"))
        .args(args)
        .output()
        .expect("nvo binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvo-exit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn usage_errors_exit_2() {
    let out = nvo(&["definitely-not-a-subcommand"]);
    assert_eq!(out.status.code(), Some(2));
    let out = nvo(&["restore"]); // --store is required
    assert_eq!(out.status.code(), Some(2));
    // The broken-rebuild self-test exists only for NVOverlay's recovery,
    // store chaos has no NVM queue to stress, and the SW undo checker
    // draws no bit flips.
    for (scheme, flag) in [
        ("sw-undo", "--broken-recovery"),
        ("store", "--broken-recovery"),
        ("store", "--stress-backpressure"),
        ("sw-undo", "--flip-p 0.5"),
    ] {
        let mut args = vec![
            "chaos", "kmeans", "--sites", "20", "--scale", "quick", "--scheme", scheme,
        ];
        args.extend(flag.split(' '));
        let out = nvo(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{scheme} {flag}: {}",
            stderr_of(&out)
        );
        let flag = flag.split(' ').next().unwrap_or_default();
        assert!(
            stderr_of(&out).starts_with(flag),
            "{scheme} {flag}: wrong refusal"
        );
    }
}

#[test]
fn a_chaos_seed_past_2_pow_53_exits_2() {
    // The report stores the seed as a JSON number, exact only up to
    // 2^53; a larger seed would write a report its parser refuses.
    for scheme in ["nvoverlay", "store"] {
        let args = format!(
            "chaos kmeans --sites 4 --scale quick --scheme {scheme} --seed {}",
            (1u64 << 53) + 1
        );
        let out = nvo(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{scheme}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).starts_with("--seed must be at most 2^53 (9007199254740992)"),
            "{scheme}: {}",
            stderr_of(&out)
        );
    }
    // 2^53 itself still runs, and its report reads back.
    let args = format!(
        "chaos kmeans --sites 4 --scale quick --seed {} --json",
        1u64 << 53
    );
    let out = nvo(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let report = nvchaos::ChaosReport::from_json(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(report.map(|r| r.num("seed")), Ok(Some(1 << 53)));
}

#[test]
fn flags_outside_the_subcommand_table_exit_2() {
    for line in [
        "run --workload B+Tree --scheme NVOverlay --scale quick --shrads 4",
        "chaos B+Tree --scale quick --sied 9",
        "serve B+Tree --shards 4",
        "diff --workload B+Tree --from 1 --to 3 --epochs 3",
        "chaos B+Tree --store",
        "run --workload B+Tree --scheme PiCL --json --json",
        "chaos B+Tree --sites 0",
        "query B+Tree --key",
    ] {
        let out = nvo(&line.split(' ').collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(2), "{line}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("usage: nvo"), "{line}: no usage");
    }
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_exits_2() {
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_nvo"))
        .args(["chaos", "B+Tree", "--out"])
        .arg(std::ffi::OsStr::from_bytes(b"report\xff.json"))
        .output()
        .expect("nvo binary runs");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
}

#[test]
fn store_dir_named_1_is_a_directory() {
    let dir = temp_store("one");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nvo"))
        .args(["backup", "kmeans", "--store", "1", "--scale", "quick"])
        .current_dir(&dir)
        .output()
        .expect("nvo binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(dir.join("1").join("layers").is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_perf_baseline_exits_1_before_the_run() {
    let dir = temp_store("baseline");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, body) in [
        (
            "truncated.json",
            r#"{"throughput_maccess_s": {"PiCL": 1.0}"#,
        ),
        (
            "no_ratio.json",
            r#"{"throughput_maccess_s": {"PiCL": 1.0}}"#,
        ),
    ] {
        std::fs::write(dir.join(file), body).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_nvo"))
            .args(["perf", "--scale", "quick", "--baseline", file])
            .current_dir(&dir)
            .output()
            .expect("nvo binary runs");
        assert_eq!(out.status.code(), Some(1), "{file}: {}", stderr_of(&out));
        assert!(out.stdout.is_empty(), "{file}: the run started");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nvo_shards_no_longer_switches_run_to_sharded_replay() {
    let args = [
        "run",
        "--workload",
        "kmeans",
        "--scheme",
        "NVOverlay",
        "--scale",
        "quick",
        "--json",
    ];
    let serial = nvo(&args);
    let with_env = Command::new(env!("CARGO_BIN_EXE_nvo"))
        .args(args)
        .env("NVO_SHARDS", "2")
        .output()
        .expect("nvo binary runs");
    assert_eq!(
        serial.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&serial)
    );
    assert_eq!(serial.stdout, with_env.stdout);
}

#[test]
fn query_errors_use_the_10_range_with_variant_names() {
    // Epoch 0 is the pre-history sentinel: EpochZero, exit 10.
    let out = nvo(&[
        "query", "B+Tree", "--key", "0x1f40", "--epoch", "0", "--scale", "quick",
    ]);
    assert_eq!(out.status.code(), Some(10), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("error[EpochZero]"));

    // An epoch beyond the recoverable one: NotYetRecoverable, exit 11.
    let out = nvo(&[
        "query", "B+Tree", "--key", "0x1f40", "--epoch", "99999", "--scale", "quick",
    ]);
    assert_eq!(out.status.code(), Some(11), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("error[NotYetRecoverable]"));
}

#[test]
fn store_errors_use_the_30_range_with_variant_names() {
    let dir = temp_store("store");
    let dirs = dir.to_str().unwrap();

    // Restoring from an empty store: BackupNotFound, exit 36.
    let out = nvo(&["restore", "--store", dirs, "--name", "missing"]);
    assert_eq!(out.status.code(), Some(36), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("error[BackupNotFound]"));

    // A real backup, then one corrupted layer byte: Checksum, exit 31.
    let out = nvo(&[
        "backup", "B+Tree", "--store", dirs, "--name", "a", "--scale", "quick",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let layers = dir.join("layers");
    let victim = std::fs::read_dir(&layers)
        .expect("layers dir exists after backup")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .min()
        .expect("backup wrote at least one layer");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&victim, &bytes).unwrap();
    let out = nvo(&["restore", "--store", dirs, "--name", "a"]);
    assert_eq!(out.status.code(), Some(31), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("error[Checksum]"));

    // Duplicate backup names: BackupExists, exit 37 (heal the flipped
    // byte first so open-time validation sees a clean store).
    bytes[mid] ^= 1;
    std::fs::write(&victim, &bytes).unwrap();
    let out = nvo(&[
        "backup", "B+Tree", "--store", dirs, "--name", "a", "--scale", "quick",
    ]);
    assert_eq!(out.status.code(), Some(37), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("error[BackupExists]"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_without_out_writes_no_file() {
    let dir = temp_store("profile");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nvo"))
        .args(["profile", "B+Tree", "--scale", "quick", "--shards", "1"])
        .current_dir(&dir)
        .output()
        .expect("nvo binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "nvo profile left {left:?} behind");
    let _ = std::fs::remove_dir_all(&dir);
}
