//! `nvbm` — the repository benchmark's command line (see README.md).

use nvbm::stats::Summary;
use nvbm::table::{self, num, obj, string, Table};
use nvbm::workload::{BenchWorkload, DEFAULT_SEED};
use nvbm::{compare, run};
use nvsim::json::{self, JsonValue};
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage:
  nvbm --workload <name> [--seed N] [--seconds S] [--trace 0|1]
      one workload in this process; the last stdout line is the result
  nvbm run [--traced] [--seed N[,N...]] [--seconds S] --out FILE.json
      every workload for each seed, each in its own child process, into
      one run file
  nvbm compare A.json B.json
      B's end-to-end medians against A's; exits 1 on a regression
workloads: kmeans-l1, hashtable-miss, btree-hifreq";

fn usage_error(msg: &str) -> ! {
    eprintln!("nvbm: {msg}\n{USAGE}");
    exit(2);
}

struct Opts {
    workload: Option<BenchWorkload>,
    seeds: Vec<u64>,
    seconds: u64,
    traced: bool,
    out: Option<String>,
}

fn parse_u64(flag: &str, v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| usage_error(&format!("{flag} needs a whole number, got {v:?}")))
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        workload: None,
        seeds: vec![DEFAULT_SEED],
        seconds: Table::builtin().run_seconds,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            o.traced = true;
            continue;
        }
        let Some(v) = it.next() else {
            usage_error(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(
                    BenchWorkload::from_name(v)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {v:?}"))),
                )
            }
            "--seed" => o.seeds = v.split(',').map(|s| parse_u64(flag, s)).collect(),
            "--seconds" => o.seconds = parse_u64(flag, v),
            "--trace" => {
                o.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            "--out" => o.out = Some(v.clone()),
            _ => usage_error(&format!("unknown option {flag:?}")),
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&parse_opts(&args[1..])),
        Some("compare") => cmd_compare(&args[1..]),
        Some("-h" | "--help") => println!("{USAGE}"),
        _ => cmd_workload(&parse_opts(&args)),
    }
}

/// One workload in this process: the detail record, then the result as
/// the last line of stdout.
fn cmd_workload(o: &Opts) {
    let Some(w) = o.workload else {
        usage_error("--workload is required")
    };
    let [seed] = o.seeds[..] else {
        usage_error("--workload takes one seed")
    };
    let out = run::run(w, seed, o.seconds, o.traced);
    println!("{}", table::to_json(&out.detail));
    println!("{}", table::to_json(&out.result));
    if !out.correct {
        exit(1);
    }
}

/// Runs one workload in a child process and returns its detail record.
fn child(w: BenchWorkload, seed: u64, o: &Opts) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find nvbm itself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (_result, detail) = (lines.next(), lines.next());
    detail
        .and_then(|d| json::parse(d).ok())
        .ok_or_else(|| format!("the {} run printed no result ({})", w.name(), output.status))
}

/// `nvbm run`: every workload for each seed, each in its own child
/// process, one after another, so each one's peak RSS is its own. The
/// workloads take turns, so a slow spell of the host spreads over all of
/// them.
fn cmd_run(o: &Opts) {
    let Some(path) = o.out.as_deref() else {
        usage_error("run needs --out FILE.json")
    };
    let (nproc, cpu) = run::host();
    let mut records = Vec::new();
    let mut ok = true;
    for (&seed, w) in o
        .seeds
        .iter()
        .flat_map(|s| BenchWorkload::ALL.iter().map(move |&w| (s, w)))
    {
        match child(w, seed, o) {
            Ok(d) => {
                let flag = |k: &str| d.get(k).and_then(JsonValue::as_bool) == Some(true);
                ok &= flag("correct") && (!o.traced || flag("layers_valid"));
                records.push(d);
            }
            Err(e) => {
                eprintln!("nvbm: {e}");
                ok = false;
                records.push(obj([
                    ("workload", string(w.name())),
                    ("seed", num(seed as f64)),
                    ("correct", JsonValue::Bool(false)),
                    ("error", string(e)),
                ]));
            }
        }
    }
    let mut doc = vec![
        ("schema", num(1u8)),
        ("tool", string("nvbm")),
        ("traced", JsonValue::Bool(o.traced)),
        (
            "seeds",
            JsonValue::Array(o.seeds.iter().map(|&s| num(s as f64)).collect()),
        ),
        ("seconds", num(o.seconds as f64)),
        ("nproc", num(nproc as f64)),
        ("cpu", string(cpu)),
    ];
    if o.traced {
        doc.push(("traits", traits(&records)));
    }
    let lines = summary(&records);
    doc.push(("workloads", JsonValue::Array(records)));
    let text = table::to_json(&obj(doc)) + "\n";
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("nvbm: cannot write {path}: {e}");
        exit(1);
    }
    print!("{lines}");
    println!("wrote {path}");
    if !ok {
        exit(1);
    }
}

/// Whether each workload does what it was chosen for, from a traced run:
/// L1 share peaks on kmeans-l1, memory-plus-LLC share on
/// hashtable-miss, persist share on btree-hifreq, and only btree-hifreq
/// has more servable epochs than the 128-table serve cache holds. A
/// workload's value is the median over its runs.
fn traits(records: &[JsonValue]) -> JsonValue {
    let value = |w: BenchWorkload, metric: &str| {
        let runs: Vec<f64> = records
            .iter()
            .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(w.name()))
            .filter_map(|r| {
                r.get("metrics")?
                    .get(metric)
                    .and_then(compare::read_summary)
            })
            .map(|s| s.median)
            .collect();
        if runs.is_empty() {
            f64::NAN
        } else {
            Summary::of(&runs).median
        }
    };
    let peaks_on = |winner: BenchWorkload, of: &dyn Fn(BenchWorkload) -> f64| {
        BenchWorkload::ALL
            .iter()
            .filter(|&&w| w != winner)
            .all(|&w| of(winner) > of(w))
    };
    let checks = [
        (
            "l1_share_peaks_on_kmeans-l1",
            peaks_on(BenchWorkload::KmeansL1, &|w| {
                value(w, "replay.nvo.l1.share")
            }),
        ),
        (
            "miss_share_peaks_on_hashtable-miss",
            peaks_on(BenchWorkload::HashtableMiss, &|w| {
                value(w, "replay.nvo.mem.share") + value(w, "replay.nvo.llc.share")
            }),
        ),
        (
            "persist_share_peaks_on_btree-hifreq",
            peaks_on(BenchWorkload::BtreeHifreq, &|w| {
                value(w, "replay.nvo.persist.share")
            }),
        ),
        (
            "only_btree-hifreq_overflows_the_serve_cache",
            BenchWorkload::ALL.iter().all(|&w| {
                (value(w, "serve.servable_epochs") > 128.0) == (w == BenchWorkload::BtreeHifreq)
            }),
        ),
    ];
    for (name, held) in checks {
        if !held {
            eprintln!("nvbm: workload trait does not hold: {name}");
        }
    }
    obj(checks.map(|(k, v)| (k, JsonValue::Bool(v))))
}

/// One line per workload and metric: median, unit, sample count, spread.
fn summary(records: &[JsonValue]) -> String {
    let mut out = String::new();
    for r in records {
        let name = r.get("workload").and_then(JsonValue::as_str).unwrap_or("?");
        let correct = r.get("correct").and_then(JsonValue::as_bool) == Some(true);
        out.push_str(&format!(
            "{name}: {}\n",
            if correct { "correct" } else { "FAILED" }
        ));
        if let Some(JsonValue::Object(metrics)) = r.get("metrics") {
            for (metric, m) in metrics {
                let Some(s) = compare::read_summary(m) else {
                    continue;
                };
                out.push_str(&format!(
                    "  {metric:<32} {:>16.6} {:<10} n={:<3} iqr {:.1}%\n",
                    s.median,
                    m.get("unit").and_then(JsonValue::as_str).unwrap_or(""),
                    s.n,
                    100.0 * s.iqr_frac()
                ));
            }
        }
    }
    out
}

/// `nvbm compare A.json B.json`.
fn cmd_compare(args: &[String]) {
    let [a, b] = args else {
        usage_error("compare takes two run files")
    };
    let load = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("nvbm: cannot read {path}: {e}");
            exit(2);
        });
        json::parse(&text).unwrap_or_else(|e| {
            eprintln!("nvbm: {path}: {e}");
            exit(2);
        })
    };
    let rows = compare::compare(&load(a), &load(b), &Table::builtin()).unwrap_or_else(|e| {
        eprintln!("nvbm: {e}");
        exit(2);
    });
    print!("{}", compare::render(&rows));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} metrics compared: {failing} failing, {unresolved} unresolved",
        rows.len()
    );
    if failing > 0 {
        exit(1);
    }
}
