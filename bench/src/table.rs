//! The metric table and the JSON writer.
//!
//! `BENCHMARK.json` at the repository root is the one place that names
//! every metric with its unit, direction and regression bound; the
//! benchmark embeds it at build time, emits exactly the metrics it lists,
//! and `nvbm compare` judges deltas against its bounds.

use nvsim::json::{self, JsonValue};

/// The repository's benchmark description, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the table.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed metric table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDef>,
}

impl Table {
    /// The table embedded from `BENCHMARK.json`.
    ///
    /// # Panics
    /// Panics if the embedded file is malformed (a build-time mistake,
    /// caught by the unit tests).
    pub fn builtin() -> Table {
        Table::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    /// Parses a benchmark description.
    ///
    /// # Errors
    /// A message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Table, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[JsonValue], String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "a workload has no name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| format!("a `{key}` metric lacks `{f}`"))
                    };
                    let better = field("better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("`better` must be lower or higher, got {better:?}"));
                    }
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        lower_is_better: better == "lower",
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Table {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("`run_seconds` is missing")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metric list a run emits: per-layer when traced.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Serialises `v` as compact JSON. Numbers print with every digit Rust's
/// shortest round-trip formatting gives; a non-finite number prints as
/// `null` (JSON has no spelling for it).
pub fn to_json(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
        JsonValue::Number(_) => out.push_str("null"),
        JsonValue::String(s) => {
            out.push('"');
            out.push_str(&json::escape(s));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(&json::escape(k));
                out.push_str("\": ");
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Shorthand for an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Shorthand for a number.
pub fn num(n: impl Into<f64>) -> JsonValue {
    JsonValue::Number(n.into())
}

/// Shorthand for a string.
pub fn string(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_table_obeys_the_benchmark_contract() {
        let t = Table::builtin();
        assert_eq!(
            t.workloads,
            ["kmeans-l1", "hashtable-miss", "btree-hifreq"].map(String::from)
        );
        assert!((1..=60).contains(&t.run_seconds));
        let setup = t
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &t.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", m.name);
            assert!(
                b <= setup.bound.unwrap(),
                "setup_s must carry the largest bound"
            );
        }
        assert!(t.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = t
            .end_to_end
            .iter()
            .chain(&t.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }

    #[test]
    fn writer_round_trips_through_the_suite_parser() {
        let v = obj([
            ("s", string("quote \" and \\ and \n")),
            ("n", num(1.2034)),
            ("i", num(42u32)),
            ("neg", num(-0.5)),
            ("b", JsonValue::Bool(true)),
            ("z", JsonValue::Null),
            (
                "a",
                JsonValue::Array(vec![num(1u8), obj([("k", num(2u8))])]),
            ),
        ]);
        let text = to_json(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
        assert!(text.contains("\"i\": 42"), "{text}");
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        assert_eq!(to_json(&num(f64::NAN)), "null");
        assert_eq!(to_json(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn malformed_tables_are_refused() {
        assert!(Table::parse("{}").is_err());
        let bad = r#"{"workloads": [], "run_seconds": 1, "end_to_end":
            [{"name": "x", "unit": "s", "better": "sideways"}], "per_layer": []}"#;
        assert!(Table::parse(bad).unwrap_err().contains("better"));
    }
}
