//! `nvbm compare A.json B.json`: each end-to-end metric of each workload,
//! B's median against A's, judged by the metric's bound. A file holding
//! one run of a workload is judged by the spread of that run's samples;
//! one holding several (`nvbm run --seed 1,2,…`) by the median and spread
//! of its runs' medians, run to run.

use crate::stats::Summary;
use crate::table::Table;
use nvsim::json::JsonValue;
use std::fmt;

/// Simulated results: for one seed they must not move at all.
const EXACT: [&str; 2] = ["sim_cycles_vs_ideal", "sim_nvm_bytes_vs_picl"];

/// The verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound, or every B sample (or run) beats
    /// every A sample (or run).
    Better,
    /// Worse by more than the bound.
    Regression,
    /// A spread (IQR over median) wider than the bound: no conclusion.
    Unresolved,
    /// A simulated metric moved under the same seed.
    Changed,
    /// Absent from one of the files.
    Missing,
}

impl Verdict {
    /// Whether the verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regression | Verdict::Changed | Verdict::Missing
        )
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "CHANGED",
            Verdict::Missing => "MISSING",
        })
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's and B's medians (NaN when missing).
    pub a: f64,
    /// B's median.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The wider of the two sides' IQR-over-median spreads.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A metric's summary as a run file records it.
pub fn read_summary(v: &JsonValue) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(JsonValue::as_f64);
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: v.get("n").and_then(JsonValue::as_u64)? as usize,
    })
}

/// The records of a run file, grouped by workload in first-seen order.
fn workloads(doc: &JsonValue) -> Result<Vec<(&str, Vec<&JsonValue>)>, String> {
    if doc.get("traced").and_then(JsonValue::as_bool) == Some(true) {
        return Err("a traced run holds no end-to-end metrics to compare".to_string());
    }
    let records = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("not an nvbm run file (no `workloads` list)")?;
    let mut groups: Vec<(&str, Vec<&JsonValue>)> = Vec::new();
    for r in records {
        let name = r
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("a workload record has no name")?;
        match groups.iter_mut().find(|(n, _)| *n == name) {
            Some((_, runs)) => runs.push(r),
            None => groups.push((name, vec![r])),
        }
    }
    Ok(groups)
}

/// One side's summary of `metric`: with one run, that run's own (the
/// spread of its samples); with several, the summary of the runs'
/// medians (the run-to-run spread). `None` when a run lacks the metric.
fn side(runs: &[&JsonValue], metric: &str) -> Option<Summary> {
    let per_run = runs
        .iter()
        .map(|r| r.get("metrics")?.get(metric).and_then(read_summary))
        .collect::<Option<Vec<Summary>>>()?;
    match per_run.as_slice() {
        [] => None,
        [one] => Some(*one),
        many => Some(Summary::of(
            &many.iter().map(|s| s.median).collect::<Vec<_>>(),
        )),
    }
}

/// The seeds of a workload's runs, sorted.
fn seeds(runs: &[&JsonValue]) -> Vec<u64> {
    let mut seeds: Vec<u64> = runs
        .iter()
        .filter_map(|r| r.get("seed").and_then(JsonValue::as_u64))
        .collect();
    seeds.sort_unstable();
    seeds
}

/// Compares every end-to-end metric of every workload in `a` with `b`.
///
/// # Errors
/// A message when either document is not an untraced run file.
pub fn compare(a: &JsonValue, b: &JsonValue, table: &Table) -> Result<Vec<Row>, String> {
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, ra) in &wa {
        let rb = wb
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[][..], |(_, r)| r.as_slice());
        let same_seeds = seeds(ra) == seeds(rb);
        for def in &table.end_to_end {
            let bound = def.bound.unwrap_or(0.0);
            let mut row = Row {
                workload: name.to_string(),
                metric: def.name.clone(),
                a: f64::NAN,
                b: f64::NAN,
                worse: 0.0,
                bound,
                spread: 0.0,
                verdict: Verdict::Missing,
            };
            if let (Some(sa), Some(sb)) = (side(ra, &def.name), side(rb, &def.name)) {
                let sign = if def.lower_is_better { 1.0 } else { -1.0 };
                let all_better = if def.lower_is_better {
                    sb.max < sa.min
                } else {
                    sb.min > sa.max
                };
                row.a = sa.median;
                row.b = sb.median;
                row.worse = sign * (sb.median - sa.median) / sa.median.abs();
                row.spread = sa.iqr_frac().max(sb.iqr_frac());
                row.verdict = if same_seeds && EXACT.contains(&def.name.as_str()) {
                    if sa.median == sb.median {
                        Verdict::Ok
                    } else {
                        Verdict::Changed
                    }
                } else if row.spread > bound {
                    if all_better {
                        Verdict::Better
                    } else {
                        Verdict::Unresolved
                    }
                } else if row.worse > bound {
                    Verdict::Regression
                } else if row.worse < -bound {
                    Verdict::Better
                } else {
                    Verdict::Ok
                };
            }
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Renders the rows as an aligned table, one line per metric.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<25} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<25} {:>14.6} {:>14.6} {:>+7.2}% {:>6.1}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse,
            100.0 * r.bound,
            100.0 * r.spread,
            r.verdict
        ));
    }
    out
}
