//! `nvbm compare` on fixture run files, through the library and the CLI.

use nvbm::compare::{compare, Verdict};
use nvbm::table::Table;
use nvsim::json::{self, JsonValue};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("fixture exists")
}

fn verdicts(a: &str, b: &str) -> Vec<(String, Verdict)> {
    let (a, b) = (json::parse(a).unwrap(), json::parse(b).unwrap());
    compare(&a, &b, &Table::builtin())
        .expect("run files compare")
        .into_iter()
        .map(|r| (r.metric, r.verdict))
        .collect()
}

fn verdict_of(rows: &[(String, Verdict)], metric: &str) -> Verdict {
    rows.iter()
        .find(|(m, _)| m == metric)
        .unwrap_or_else(|| panic!("{metric} compared"))
        .1
}

#[test]
fn a_file_against_itself_is_all_ok() {
    let base = fixture("base.json");
    let rows = verdicts(&base, &base);
    assert_eq!(rows.len(), Table::builtin().end_to_end.len());
    assert!(rows.iter().all(|(_, v)| *v == Verdict::Ok), "{rows:?}");
}

#[test]
fn each_verdict_follows_the_bound_and_the_spread() {
    let rows = verdicts(&fixture("base.json"), &fixture("candidate.json"));
    // 5 % slower set-up is inside its 25 % bound.
    assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Ok);
    // 30 % less throughput with tight spreads: a regression.
    assert_eq!(
        verdict_of(&rows, "replay_nvo_maccess_s"),
        Verdict::Regression
    );
    // 30 % more queries/s: better by more than the bound.
    assert_eq!(verdict_of(&rows, "serve_qps"), Verdict::Better);
    // A 57 % spread against a 25 % bound settles nothing.
    assert_eq!(verdict_of(&rows, "backup_ms"), Verdict::Unresolved);
    // Same seed, different simulated cycles: the model changed.
    assert_eq!(verdict_of(&rows, "sim_cycles_vs_ideal"), Verdict::Changed);
    assert_eq!(verdict_of(&rows, "sim_nvm_bytes_vs_picl"), Verdict::Ok);
}

#[test]
fn simulated_metrics_follow_the_bound_across_seeds() {
    let other_seed = fixture("candidate.json").replace("\"seed\": 1,", "\"seed\": 2,");
    let rows = verdicts(&fixture("base.json"), &other_seed);
    // 1.03 → 1.04 is within its bound once the inputs differ.
    assert_eq!(verdict_of(&rows, "sim_cycles_vs_ideal"), Verdict::Ok);
}

#[test]
fn a_missing_metric_fails_and_a_traced_file_is_refused() {
    let base = fixture("base.json");
    let without = base.replace("\"mount_ms\"", "\"renamed_ms\"");
    let rows = verdicts(&base, &without);
    assert_eq!(verdict_of(&rows, "mount_ms"), Verdict::Missing);
    assert!(Verdict::Missing.fails());

    let traced = json::parse(&base.replace(
        "\"traced\": false, \"seeds\": [1]",
        "\"traced\": true, \"seeds\": [1]",
    ))
    .unwrap();
    assert_eq!(traced.get("traced"), Some(&JsonValue::Bool(true)));
    let err = compare(&traced, &json::parse(&base).unwrap(), &Table::builtin()).unwrap_err();
    assert!(err.contains("traced"), "{err}");
}

/// A run file of kmeans-l1 runs whose NVOverlay replay medians are
/// `medians`, each run's own samples spread ±40% around its median.
fn runs(medians: &[f64]) -> JsonValue {
    let records: Vec<String> = medians
        .iter()
        .enumerate()
        .map(|(seed, m)| {
            format!(
                r#"{{"workload": "kmeans-l1", "seed": {seed}, "metrics": {{"replay_nvo_maccess_s":
                {{"unit": "Maccess/s", "median": {m}, "q1": {}, "q3": {}, "min": {}, "max": {}, "n": 3}}}}}}"#,
                0.6 * m,
                1.4 * m,
                0.6 * m,
                1.4 * m
            )
        })
        .collect();
    json::parse(&format!(
        r#"{{"traced": false, "workloads": [{}]}}"#,
        records.join(", ")
    ))
    .unwrap()
}

fn nvo_verdict(a: &JsonValue, b: &JsonValue) -> Verdict {
    compare(a, b, &Table::builtin())
        .expect("run files compare")
        .into_iter()
        .find(|r| r.metric == "replay_nvo_maccess_s")
        .expect("replay_nvo_maccess_s compared")
        .verdict
}

#[test]
fn several_runs_per_side_are_judged_by_their_run_to_run_spread() {
    // One run each: its own samples spread 80%, wider than any bound.
    assert_eq!(
        nvo_verdict(&runs(&[5.0]), &runs(&[5.0])),
        Verdict::Unresolved
    );
    // Three runs each: their medians agree to within 4%.
    let base = runs(&[4.9, 5.0, 5.1]);
    assert_eq!(nvo_verdict(&base, &runs(&[4.95, 5.0, 5.05])), Verdict::Ok);
    // 30% less throughput on every run: a regression.
    assert_eq!(
        nvo_verdict(&base, &runs(&[3.4, 3.5, 3.6])),
        Verdict::Regression
    );
}

fn nvbm(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nvbm"))
        .args(args)
        .output()
        .expect("nvbm runs");
    (
        out.status.code().expect("exited"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn the_cli_exits_non_zero_on_a_regression() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let (base, cand) = (format!("{dir}/base.json"), format!("{dir}/candidate.json"));
    let (code, out) = nvbm(&["compare", &base, &base]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 failing, 0 unresolved"), "{out}");
    let (code, out) = nvbm(&["compare", &base, &cand]);
    assert_eq!(code, 1, "{out}");
    for word in ["REGRESSION", "unresolved", "CHANGED", "better"] {
        assert!(out.contains(word), "{word} missing from\n{out}");
    }
}

#[test]
fn the_cli_rejects_bad_arguments_with_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &[][..],
        &["--workload", "kmeans-l1", "--trace", "2"][..],
        &["--workload", "kmeans-l1", "--seed", "x"][..],
        &["--workload", "kmeans-l1", "--seed", "1,2"][..],
        &["compare", "only-one.json"][..],
        &["run"][..],
    ] {
        assert_eq!(nvbm(args).0, 2, "{args:?}");
    }
}
