//! The JSON exploration report, one type for every crash target.
//!
//! Hand-rolled serialization (the workspace carries no serde): field
//! order is fixed, category counts follow the target's category order,
//! and violations ascend by site — so two runs with the same seed
//! produce byte-identical reports, which CI exploits (`cmp` of two
//! runs). The driver's fields frame the target's own: its journal
//! fields sit before `sites_by_category`, its tallies after
//! `torn_sites`.

use std::fmt::{self, Write as _};

use nvsim::json::{self, JsonValue};

/// Schema version stamped into every report (`"schema"`, the first
/// field). [`ChaosReport::from_json`] rejects reports written by a
/// future schema instead of silently misreading them.
pub const CHAOS_REPORT_SCHEMA: u64 = 1;

/// One invariant violation, locating the crash site that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Journal index of the crash site.
    pub site: usize,
    /// Category of the site (one of the target's category names).
    pub category: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// A report field's value: a number, or counts by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// A seed, a size, a sum or a maximum.
    Num(u64),
    /// Occurrences per name, in report order.
    Counts(Vec<(String, u64)>),
}

/// Aggregated outcome of one crash exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// Canonical scheme name; the store target has none.
    pub scheme: Option<String>,
    /// Every field between the scheme and the violations, in report
    /// order: `seed`, `sites_requested`, `sites_explored`, the target's
    /// journal fields, `sites_by_category`, `torn_sites` and the
    /// target's tallies.
    pub fields: Vec<(String, Field)>,
    /// Every invariant violation found (empty = all sites consistent).
    pub violations: Vec<Violation>,
}

/// Why [`ChaosReport::from_json`] refused a text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// The text is not JSON.
    Json(json::JsonError),
    /// The report was written by a newer schema.
    Schema {
        /// The report's schema version.
        found: u64,
    },
    /// A field is missing, out of place or of the wrong type.
    Field(String),
    /// The fields parse, but [`ChaosReport::to_json`] renders them
    /// differently.
    NotCanonical,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "malformed report JSON: {e}"),
            ReportError::Schema { found } => write!(
                f,
                "report schema {found} is newer than supported {CHAOS_REPORT_SCHEMA}"
            ),
            ReportError::Field(key) => write!(f, "missing or misplaced field {key}"),
            ReportError::NotCanonical => f.write_str("report is not in its rendered form"),
        }
    }
}

impl std::error::Error for ReportError {}

impl ChaosReport {
    /// Whether every explored site upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The numeric field named `key`.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Field::Num(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// The count field named `key`.
    pub fn counts(&self, key: &str) -> Option<&[(String, u64)]> {
        self.fields.iter().find_map(|(k, v)| match v {
            Field::Counts(c) if k == key => Some(&c[..]),
            _ => None,
        })
    }

    /// Deterministic JSON rendering (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"schema\": {CHAOS_REPORT_SCHEMA},\n");
        if let Some(scheme) = &self.scheme {
            let _ = writeln!(s, "  \"scheme\": \"{}\",", json::escape(scheme));
        }
        for (key, v) in &self.fields {
            let v = match v {
                Field::Num(n) => n.to_string(),
                Field::Counts(c) => {
                    let items: Vec<String> = (c.iter())
                        .map(|(name, n)| format!("\"{}\": {n}", json::escape(name)))
                        .collect();
                    format!("{{{}}}", items.join(", "))
                }
            };
            let _ = writeln!(s, "  \"{}\": {v},", json::escape(key));
        }
        let _ = writeln!(s, "  \"violation_count\": {},", self.violations.len());
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"site\": {}, \"category\": \"{}\", \"message\": \"{}\"}}",
                v.site,
                json::escape(&v.category),
                json::escape(&v.message)
            );
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses a report rendered by [`ChaosReport::to_json`], of either
    /// target. Only that rendering is accepted: a text that parses
    /// renders back to the same bytes.
    ///
    /// # Errors
    /// A [`ReportError`] for text that is not JSON, a report from a
    /// future schema, a missing, misplaced or mistyped field, and any
    /// text that is not the report's rendered form.
    pub fn from_json(text: &str) -> Result<ChaosReport, ReportError> {
        let doc = json::parse(text).map_err(ReportError::Json)?;
        let mut fields = match &doc {
            JsonValue::Object(pairs) => pairs.iter().peekable(),
            _ => return Err(ReportError::Field("schema".into())),
        };
        let found = num(take(&mut fields, "schema")?, "schema")?;
        if found > CHAOS_REPORT_SCHEMA {
            return Err(ReportError::Schema { found });
        }
        let mut report = ChaosReport {
            scheme: match fields.next_if(|(k, _)| k == "scheme") {
                Some((_, v)) => Some(text_of(v, "scheme")?.into()),
                None => None,
            },
            fields: Vec::new(),
            violations: Vec::new(),
        };
        while let Some((key, v)) = fields.next_if(|(k, _)| k != "violation_count") {
            let v = match v {
                JsonValue::Object(items) => Field::Counts(
                    (items.iter())
                        .map(|(name, n)| Ok((name.clone(), num(n, key)?)))
                        .collect::<Result<_, ReportError>>()?,
                ),
                _ => Field::Num(num(v, key)?),
            };
            report.fields.push((key.clone(), v));
        }
        take(&mut fields, "violation_count")?;
        let items = take(&mut fields, "violations")?.as_array();
        for item in items.ok_or(ReportError::Field("violations".into()))? {
            let get = |key: &str| item.get(key).ok_or(ReportError::Field(key.into()));
            report.violations.push(Violation {
                site: num(get("site")?, "site")? as usize,
                category: text_of(get("category")?, "category")?.into(),
                message: text_of(get("message")?, "message")?.into(),
            });
        }
        for key in ["seed", "sites_requested", "sites_explored", "torn_sites"] {
            report.num(key).ok_or(ReportError::Field(key.into()))?;
        }
        let by_category = report.counts("sites_by_category");
        by_category.ok_or(ReportError::Field("sites_by_category".into()))?;
        if report.to_json() != text {
            return Err(ReportError::NotCanonical);
        }
        Ok(report)
    }
}

/// The report's top-level fields, in document order.
type Fields<'a> = std::iter::Peekable<std::slice::Iter<'a, (String, JsonValue)>>;

/// The next field, which must be `key`.
fn take<'a>(fields: &mut Fields<'a>, key: &str) -> Result<&'a JsonValue, ReportError> {
    match fields.next_if(|(k, _)| k == key) {
        Some((_, v)) => Ok(v),
        None => Err(ReportError::Field(key.into())),
    }
}

fn num(v: &JsonValue, key: &str) -> Result<u64, ReportError> {
    v.as_u64().ok_or_else(|| ReportError::Field(key.into()))
}

fn text_of<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, ReportError> {
    v.as_str().ok_or_else(|| ReportError::Field(key.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, tests::explore_nvm, ChaosConfig};
    use crate::nvm::ChaosScheme;
    use crate::store_chaos::tests::explore_store;
    use nvsim::rng::Rng64;

    fn sample() -> ChaosReport {
        let num = |k: &str, n| (k.to_string(), Field::Num(n));
        let by_category = vec![("data".into(), 100), ("master-root".into(), 20)];
        ChaosReport {
            scheme: Some("nvoverlay".into()),
            fields: vec![
                num("seed", 7),
                num("sites_requested", 200),
                num("sites_explored", 120),
                num("journal_writes", 4096),
                num("run_cycles", 999),
                ("sites_by_category".into(), Field::Counts(by_category)),
                num("torn_sites", 5),
                num("dropped_writes", 40),
                num("flips_injected", 11),
                num("faults_detected", 16),
                num("max_recovered_epoch", 9),
            ],
            violations: vec![],
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = sample().to_json();
        assert!(j.starts_with("{\n  \"schema\": 1,\n  \"scheme\": \"nvoverlay\",\n"));
        assert!(j.contains("\"sites_by_category\": {\"data\": 100, \"master-root\": 20},"));
        assert!(j.contains("\"violation_count\": 0,"));
        assert!(j.ends_with("\"violations\": []\n}\n"));
        assert_eq!(sample().to_json(), j, "rendering is deterministic");
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let mut r = sample();
        r.violations.push(Violation {
            site: 9,
            category: "master-root".into(),
            message: "cut \"torn\"".into(),
        });
        let j = r.to_json();
        let back = ChaosReport::from_json(&j).unwrap();
        assert_eq!(back, r);
        // A store report: no scheme, and a count tally.
        r.scheme = None;
        r.fields.push((
            "typed_errors".into(),
            Field::Counts(vec![("Checksum".into(), 3)]),
        ));
        let j = r.to_json();
        assert!(j.contains("\"typed_errors\": {\"Checksum\": 3},"));
        assert_eq!(ChaosReport::from_json(&j).unwrap(), r);
    }

    #[test]
    fn future_schema_reports_are_rejected() {
        let j = sample()
            .to_json()
            .replace("\"schema\": 1,", "\"schema\": 99,");
        let err = ChaosReport::from_json(&j).unwrap_err();
        assert_eq!(err, ReportError::Schema { found: 99 });
        assert!(err.to_string().contains("schema 99"), "got: {err}");
        assert!(ChaosReport::from_json("{").is_err());
        assert!(ChaosReport::from_json("{}").is_err());
    }

    #[test]
    fn violations_render_with_escaping() {
        let mut r = sample();
        r.violations.push(Violation {
            site: 3,
            category: "data".into(),
            message: "token \"9\"\nlost".into(),
        });
        let j = r.to_json();
        assert!(!r.ok());
        assert!(j.contains(
            "{\"site\": 3, \"category\": \"data\", \"message\": \"token \\\"9\\\"\\nlost\"}"
        ));
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        assert_eq!(json::escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json::escape("tab\there"), "tab\\there");
    }

    /// Seeded byte flips, truncations and field deletions of both
    /// targets' reports: each mutation is refused with a typed error or
    /// parses back to exactly its own bytes, and none panics.
    #[test]
    fn mutated_reports_are_refused_or_round_trip() {
        let broken = crate::nvm::NvmTarget::prepare(
            &crate::explore::tests::small_trace(),
            &crate::explore::tests::small_cfg(),
            ChaosScheme::NvOverlay,
            crate::rebuild::RebuildFidelity::BrokenNoEpochFilter,
            false,
        );
        let store = ChaosConfig {
            sites: 80,
            flip_p: 1.0,
            ..ChaosConfig::default()
        };
        let reports = [
            explore_nvm(ChaosScheme::NvOverlay, ChaosConfig::default()),
            explore(&broken, &ChaosConfig::default(), 1),
            explore_store(store, None),
        ];
        let mut rng = Rng64::seed_from_u64(26);
        let (mut parsed, mut refused) = (0, 0);
        for report in &reports {
            let text = report.to_json();
            assert_eq!(ChaosReport::from_json(&text).as_ref(), Ok(report));
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            for i in 0..900 {
                let mut bytes = text.clone().into_bytes();
                match i % 3 {
                    0 => {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] ^= 1 << rng.gen_range(0..8u8);
                    }
                    1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                    _ => {
                        let drop = rng.gen_range(0..lines.len());
                        bytes = lines
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != drop)
                            .flat_map(|(_, l)| l.bytes())
                            .collect();
                    }
                }
                let mutated = String::from_utf8_lossy(&bytes);
                match ChaosReport::from_json(&mutated) {
                    Ok(back) => {
                        assert_eq!(back.to_json(), mutated, "parsed but renders otherwise");
                        parsed += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
        }
        assert!(
            parsed > 0 && refused > 0,
            "{parsed} parsed, {refused} refused"
        );
    }
}
