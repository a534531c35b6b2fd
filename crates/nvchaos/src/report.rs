//! The JSON exploration report.
//!
//! Hand-rolled serialization (the workspace carries no serde): field
//! order is fixed, maps are emitted in [`SiteCategory`] order, and
//! violations ascend by site — so two runs with the same seed produce
//! byte-identical reports, which CI exploits (`cmp` of two runs).
//!
//! [`SiteCategory`]: crate::explore::SiteCategory

use std::fmt::Write as _;

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
    /// Category of the site (see `SiteCategory::name`).
    pub category: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// Aggregated outcome of one chaos exploration.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Canonical scheme name.
    pub scheme: String,
    /// Master seed of the exploration.
    pub seed: u64,
    /// Sites asked for on the command line.
    pub sites_requested: usize,
    /// Sites actually explored (capped by the journal length).
    pub sites_explored: usize,
    /// NVM writes recorded by the oracle run.
    pub journal_writes: usize,
    /// Cycles the oracle run took.
    pub run_cycles: u64,
    /// Explored sites per category, in stable category order.
    pub category_counts: Vec<(String, usize)>,
    /// Sites whose cut tore a write on the durability boundary.
    pub torn_sites: usize,
    /// Total accepted writes dropped or torn across all cuts.
    pub dropped_writes: usize,
    /// Mapping-word bit flips injected.
    pub flips_injected: usize,
    /// Faults recovery correctly detected (torn roots, corrupt words).
    pub faults_detected: usize,
    /// Newest epoch any site recovered.
    pub max_recovered_epoch: u64,
    /// Every invariant violation found (empty = all sites consistent).
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// Whether every explored site upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic JSON rendering (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", CHAOS_REPORT_SCHEMA);
        let _ = writeln!(s, "  \"scheme\": \"{}\",", json::escape(&self.scheme));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"sites_requested\": {},", self.sites_requested);
        let _ = writeln!(s, "  \"sites_explored\": {},", self.sites_explored);
        let _ = writeln!(s, "  \"journal_writes\": {},", self.journal_writes);
        let _ = writeln!(s, "  \"run_cycles\": {},", self.run_cycles);
        s.push_str("  \"sites_by_category\": {");
        for (i, (name, n)) in self.category_counts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", json::escape(name), n);
        }
        s.push_str("},\n");
        let _ = writeln!(s, "  \"torn_sites\": {},", self.torn_sites);
        let _ = writeln!(s, "  \"dropped_writes\": {},", self.dropped_writes);
        let _ = writeln!(s, "  \"flips_injected\": {},", self.flips_injected);
        let _ = writeln!(s, "  \"faults_detected\": {},", self.faults_detected);
        let _ = writeln!(
            s,
            "  \"max_recovered_epoch\": {},",
            self.max_recovered_epoch
        );
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

    /// Parses a report previously rendered by [`ChaosReport::to_json`].
    ///
    /// # Errors
    /// A message naming the malformed field, or the unsupported schema
    /// version for reports written by a future tool.
    pub fn from_json(text: &str) -> Result<ChaosReport, String> {
        let v = json::parse(text).map_err(|e| format!("malformed report JSON: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("report is missing the schema field")?;
        if schema > CHAOS_REPORT_SCHEMA {
            return Err(format!(
                "report schema {schema} is newer than supported {CHAOS_REPORT_SCHEMA}"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key}"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing numeric field {key}"))
        };
        let mut category_counts = Vec::new();
        match v.get("sites_by_category") {
            Some(JsonValue::Object(pairs)) => {
                for (name, n) in pairs {
                    let n = n
                        .as_u64()
                        .ok_or_else(|| format!("non-numeric count for category {name}"))?;
                    category_counts.push((name.clone(), n as usize));
                }
            }
            _ => return Err("missing object field sites_by_category".to_string()),
        }
        let mut violations = Vec::new();
        for item in v
            .get("violations")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field violations")?
        {
            violations.push(Violation {
                site: item
                    .get("site")
                    .and_then(JsonValue::as_u64)
                    .ok_or("violation missing site")? as usize,
                category: item
                    .get("category")
                    .and_then(JsonValue::as_str)
                    .ok_or("violation missing category")?
                    .to_string(),
                message: item
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .ok_or("violation missing message")?
                    .to_string(),
            });
        }
        Ok(ChaosReport {
            scheme: str_field("scheme")?,
            seed: num_field("seed")?,
            sites_requested: num_field("sites_requested")? as usize,
            sites_explored: num_field("sites_explored")? as usize,
            journal_writes: num_field("journal_writes")? as usize,
            run_cycles: num_field("run_cycles")?,
            category_counts,
            torn_sites: num_field("torn_sites")? as usize,
            dropped_writes: num_field("dropped_writes")? as usize,
            flips_injected: num_field("flips_injected")? as usize,
            faults_detected: num_field("faults_detected")? as usize,
            max_recovered_epoch: num_field("max_recovered_epoch")?,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChaosReport {
        ChaosReport {
            scheme: "nvoverlay".into(),
            seed: 7,
            sites_requested: 200,
            sites_explored: 120,
            journal_writes: 4096,
            run_cycles: 999,
            category_counts: vec![("data".into(), 100), ("master-root".into(), 20)],
            torn_sites: 5,
            dropped_writes: 40,
            flips_injected: 11,
            faults_detected: 16,
            max_recovered_epoch: 9,
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
        assert_eq!(back.to_json(), j, "parse/render is a fixed point");
    }

    #[test]
    fn future_schema_reports_are_rejected() {
        let j = sample()
            .to_json()
            .replace("\"schema\": 1,", "\"schema\": 99,");
        let err = ChaosReport::from_json(&j).unwrap_err();
        assert!(err.contains("schema 99"), "got: {err}");
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
}
