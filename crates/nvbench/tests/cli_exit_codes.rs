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
    // The broken-rebuild self-test exists only for NVOverlay's recovery.
    for target in [&["--scheme", "sw-undo"][..], &["--store"]] {
        let mut args = vec!["chaos", "kmeans", "--sites", "20", "--scale", "quick"];
        args.extend_from_slice(target);
        args.push("--broken-recovery");
        let out = nvo(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{target:?}: {}",
            stderr_of(&out)
        );
    }
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
