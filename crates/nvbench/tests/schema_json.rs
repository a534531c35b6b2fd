//! Schema versioning of the JSON artifacts, checked through
//! `nvbench::json` (the parser CI and downstream tooling use).
//!
//! Both durable JSON documents — chaos reports (`--out` artifacts) and
//! the store manifest — carry a leading `schema` field. The contract:
//! today's writers emit the current version, today's readers accept
//! every version up to it and reject anything newer with a typed
//! error, so a future format bump fails loudly instead of being
//! misparsed.

use nvbench::json;
use nvchaos::report::{ChaosReport, Field, Violation, CHAOS_REPORT_SCHEMA};
use nvstore::{Manifest, StoreError, MANIFEST_SCHEMA};

fn sample_report() -> ChaosReport {
    let num = |key: &str, n| (key.to_string(), Field::Num(n));
    let by_category = vec![("omc-metadata".into(), 4), ("master-root".into(), 2)];
    ChaosReport {
        scheme: Some("nvoverlay".into()),
        fields: vec![
            num("seed", 7),
            num("sites_requested", 8),
            num("sites_explored", 6),
            num("journal_writes", 40),
            num("run_cycles", 1234),
            ("sites_by_category".into(), Field::Counts(by_category)),
            num("torn_sites", 1),
            num("dropped_writes", 3),
            num("flips_injected", 2),
            num("faults_detected", 2),
            num("max_recovered_epoch", 5),
        ],
        violations: vec![Violation {
            site: 3,
            category: "master-root".into(),
            message: "example \"quoted\" violation".into(),
        }],
    }
}

#[test]
fn chaos_report_schema_round_trips_through_the_json_parser() {
    let text = sample_report().to_json();
    let doc = json::parse(&text).expect("report JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_u64()),
        Some(CHAOS_REPORT_SCHEMA)
    );
    // The schema field leads the document so even a truncated artifact
    // reveals its version.
    assert!(text.trim_start().starts_with("{\n  \"schema\":"));
    // Full round trip: parse back to a report that serializes to the
    // identical bytes.
    let back = ChaosReport::from_json(&text).expect("own output parses");
    assert_eq!(back.to_json(), text);
}

#[test]
fn chaos_reports_from_the_future_are_rejected() {
    let text = sample_report().to_json().replace(
        &format!("\"schema\": {CHAOS_REPORT_SCHEMA},"),
        &format!("\"schema\": {},", CHAOS_REPORT_SCHEMA + 41),
    );
    // The edited document still parses as JSON — rejection is a
    // versioning decision, not a syntax error.
    assert!(json::parse(&text).is_ok());
    let err = ChaosReport::from_json(&text)
        .expect_err("future schema must be rejected")
        .to_string();
    assert!(
        err.contains(&format!("schema {}", CHAOS_REPORT_SCHEMA + 41)),
        "error names the offending version: {err}"
    );
}

#[test]
fn manifest_schema_round_trips_through_the_json_parser() {
    let text = Manifest::default().to_json();
    let doc = json::parse(&text).expect("manifest JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_u64()),
        Some(MANIFEST_SCHEMA)
    );
    assert_eq!(Manifest::parse(&text).unwrap(), Manifest::default());
}

#[test]
fn manifests_from_the_future_are_rejected() {
    let text = Manifest::default().to_json().replace(
        &format!("\"schema\": {MANIFEST_SCHEMA},"),
        &format!("\"schema\": {},", MANIFEST_SCHEMA + 1),
    );
    assert!(json::parse(&text).is_ok());
    match Manifest::parse(&text) {
        Err(StoreError::SchemaVersion { found, supported }) => {
            assert_eq!(found, MANIFEST_SCHEMA + 1);
            assert_eq!(supported, MANIFEST_SCHEMA);
        }
        other => panic!("expected SchemaVersion, got {other:?}"),
    }
}
