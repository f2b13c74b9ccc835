//! Results: the line one run prints, sets of runs (`record`), and the
//! comparisons made over them (`compare`, `selfcheck`, `smoke`).
//!
//! A *result set* is what `bench/results/BENCH_<pr>.json` holds: per
//! workload × end-to-end metric the median, quartiles, sample count and
//! values of N untraced runs, the per-layer ledger of one traced run,
//! and the host facts. Repetition happens here, across processes — a
//! single run never reports a statistic over repeats of itself.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde::{get_field, Value};

use crate::host;
use crate::spec::{is_measured, Better, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats;

/// One run's result, as printed and as parsed back from a child.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn metrics_value(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(*value)),
                            ("unit".into(), Value::Str(unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The object `BENCHMARK.json`'s contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`, on one line.
    pub fn contract_line(&self) -> String {
        let object = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), self.metrics_value()),
        ]);
        serde_json::to_string(&object).expect("result serializes")
    }

    /// The full run report written under `bench/out/`.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("schema".into(), Value::Str("predictsim-bench-run/1".into())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("seconds".into(), Value::UInt(self.seconds)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), self.metrics_value()),
        ])
    }
}

/// `name → value[key]` for every entry of the JSON object `value[field]`
/// whose `key` is a number.
fn numbers_under(value: &Value, field: &str, key: &str) -> BTreeMap<String, f64> {
    let entries: BTreeMap<String, Value> = get_field(value, field).unwrap_or_default();
    entries
        .into_iter()
        .filter_map(|(name, entry)| Some((name, get_field::<f64>(&entry, key).ok()?)))
        .collect()
}

/// What a child run reported: correctness, counts and metric values.
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    wall_s: f64,
}

/// Runs one workload in a child process of this same executable and
/// parses the last line it printed.
fn run_child(workload: &str, seed: u64, trace: bool, smoke: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let started = std::time::Instant::now();
    let output = command.output().map_err(|e| format!("spawn bench: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let parsed: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = numbers_under(&parsed, "metrics", "value");
    if metrics.is_empty() {
        return Err(format!("{workload}: result line has no metrics"));
    }
    let correct = get_field(&parsed, "correct").unwrap_or(false);
    if !correct {
        for line in stdout.lines().filter(|l| l.contains("FAILED")) {
            eprintln!("{workload}: {}", line.trim());
        }
    }
    Ok(ChildResult {
        correct,
        failed: get_field(&parsed, "failed").unwrap_or(0),
        metrics,
        wall_s,
    })
}

/// One workload's share of a result set.
#[derive(Debug, Default)]
struct WorkloadRuns {
    /// End-to-end metric → one value per untraced run.
    end_to_end: BTreeMap<String, Vec<f64>>,
    /// The traced run's ledger.
    per_layer: BTreeMap<String, f64>,
    incorrect_runs: u64,
}

type ResultSet = BTreeMap<String, WorkloadRuns>;

/// Runs every workload `runs` times untraced plus once traced, in
/// `sets` interleaved sets (set 0 run, set 1 run, set 0 run, …), so
/// that slow drift of the host lands on every set alike. With
/// `vary_seed` every untraced run gets a seed of its own, as the
/// acceptance pipeline does; the traced run keeps the default seed, the
/// one the pins and the ledger's exact counts belong to.
fn run_sets(sets: usize, runs: u64, vary_seed: bool) -> Result<Vec<ResultSet>, String> {
    let mut results: Vec<ResultSet> = (0..sets).map(|_| ResultSet::new()).collect();
    for workload in &WORKLOADS {
        for run in 0..=runs {
            // The last pass is the traced one.
            let trace = run == runs;
            for (set, result) in results.iter_mut().enumerate() {
                let seed = if vary_seed && !trace {
                    DEFAULT_SEED + run * sets as u64 + set as u64
                } else {
                    DEFAULT_SEED
                };
                let child = run_child(workload.name, seed, trace, false)?;
                eprintln!(
                    "  {} set {set} {} seed {seed}: {:.1} s, correct {}",
                    workload.name,
                    if trace {
                        "traced".to_string()
                    } else {
                        format!("run {run}")
                    },
                    child.wall_s,
                    child.correct
                );
                let entry = result.entry(workload.name.to_string()).or_default();
                entry.incorrect_runs += u64::from(!child.correct);
                if trace {
                    entry.per_layer = child.metrics;
                } else {
                    for (name, value) in child.metrics {
                        entry.end_to_end.entry(name).or_default().push(value);
                    }
                }
            }
        }
    }
    Ok(results)
}

fn set_to_value(set: &ResultSet, runs: u64) -> Value {
    let workloads = set
        .iter()
        .map(|(name, runs_of)| {
            let end_to_end = END_TO_END
                .iter()
                .filter_map(|spec| {
                    let values = runs_of.end_to_end.get(spec.name)?;
                    let (q1, median, q3) = stats::quartiles(values);
                    Some((
                        spec.name.to_string(),
                        Value::Map(vec![
                            ("unit".into(), Value::Str(spec.unit.into())),
                            ("n".into(), Value::UInt(values.len() as u64)),
                            ("median".into(), Value::Float(median)),
                            ("q1".into(), Value::Float(q1)),
                            ("q3".into(), Value::Float(q3)),
                            ("spread".into(), Value::Float(stats::spread(values))),
                            (
                                "values".into(),
                                Value::Seq(values.iter().map(|v| Value::Float(*v)).collect()),
                            ),
                        ]),
                    ))
                })
                .collect();
            let per_layer = runs_of
                .per_layer
                .iter()
                .map(|(metric, value)| (metric.clone(), Value::Float(*value)))
                .collect();
            (
                name.clone(),
                Value::Map(vec![
                    ("incorrect_runs".into(), Value::UInt(runs_of.incorrect_runs)),
                    ("end_to_end".into(), Value::Map(end_to_end)),
                    ("per_layer".into(), Value::Map(per_layer)),
                ]),
            )
        })
        .collect();
    Value::Map(vec![
        ("schema".into(), Value::Str("predictsim-bench-set/1".into())),
        ("host".into(), host::facts()),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        ("runs_per_workload".into(), Value::UInt(runs)),
        // `record` gives every untraced run a seed of its own.
        ("seeds_vary".into(), Value::Bool(true)),
        ("workloads".into(), Value::Map(workloads)),
    ])
}

/// `bench record`: one result set over `runs` seeds, written to `out`.
pub fn record(runs: u64, out: &str) -> Result<ExitCode, String> {
    let sets = run_sets(1, runs.max(1), true)?;
    let text = serde_json::to_string_pretty(&set_to_value(&sets[0], runs.max(1)))
        .expect("result set serializes");
    std::fs::write(out, text + "\n").map_err(|e| format!("write {out}: {e}"))?;
    let incorrect: u64 = sets[0].values().map(|w| w.incorrect_runs).sum();
    print_set(&sets[0]);
    println!("wrote {out}; {incorrect} incorrect runs");
    Ok(if incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_set(set: &ResultSet) {
    for (workload, runs_of) in set {
        for spec in &END_TO_END {
            if let Some(values) = runs_of.end_to_end.get(spec.name) {
                let (q1, median, q3) = stats::quartiles(values);
                println!(
                    "{workload:18} {:16} median {median:>14.4} {:6} q1 {q1:>14.4} q3 {q3:>14.4} spread {:>6.2}% of bound {:.0}% (n={})",
                    spec.name,
                    spec.unit,
                    stats::spread(values) * 100.0,
                    spec.bound * 100.0,
                    values.len()
                );
            }
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b`
/// is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Workload → metric → the value of every untraced run.
type RunValues = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The runs behind one result-set file.
fn values_of(value: &Value) -> RunValues {
    let workloads: BTreeMap<String, Value> = get_field(value, "workloads").unwrap_or_default();
    workloads
        .into_iter()
        .map(|(workload, body)| {
            let metrics: BTreeMap<String, Value> =
                get_field(&body, "end_to_end").unwrap_or_default();
            let values = metrics
                .into_iter()
                .filter_map(|(name, entry)| Some((name, get_field(&entry, "values").ok()?)))
                .collect();
            (workload, values)
        })
        .collect()
}

fn run_values(set: &ResultSet) -> RunValues {
    set.iter()
        .map(|(workload, runs_of)| (workload.clone(), runs_of.end_to_end.clone()))
        .collect()
}

/// Prints workload × metric medians of `a` and `b` side by side and
/// returns the pairs where `b` is worse than `a` by more than the bound.
/// A pair whose runs spread wider than the bound is *unresolved*, not
/// unchanged, unless every run of `b` reads better than every run of
/// `a`. Stand-in latencies (`spec::is_measured`) are left out: they
/// would gate `cpu_ms_per_cell` a second time.
fn compare(a: &RunValues, b: &RunValues) -> Vec<String> {
    let mut regressions = Vec::new();
    for (workload, metrics_a) in a {
        for spec in END_TO_END.iter().filter(|m| is_measured(workload, m.name)) {
            let (Some(va), Some(vb)) = (
                metrics_a.get(spec.name),
                b.get(workload).and_then(|m| m.get(spec.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let worse = worsening(spec.better, ma, mb);
            let spread = stats::spread(va).max(stats::spread(vb));
            let b_always_better = va
                .iter()
                .all(|&x| vb.iter().all(|&y| worsening(spec.better, x, y) < 0.0));
            let verdict = if worse > spec.bound {
                regressions.push(format!("{workload} {}", spec.name));
                "REGRESSION"
            } else if spread > spec.bound && !b_always_better {
                "unresolved: runs spread wider than the bound"
            } else if worse > spec.bound / 2.0 {
                "over half the bound"
            } else {
                "ok"
            };
            println!(
                "{workload:18} {:16} A {ma:>14.4} B {mb:>14.4} {:6} worse by {:>7.2}% (bound {:.0}%, spread {:.1}%) {verdict}",
                spec.name,
                spec.unit,
                worse * 100.0,
                spec.bound * 100.0,
                spread * 100.0
            );
        }
    }
    regressions
}

/// `bench compare A.json B.json`: is B worse than A beyond a bound?
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let value: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Ok(values_of(&value))
    };
    let regressions = compare(&load(a)?, &load(b)?);
    if regressions.is_empty() {
        println!("no end-to-end metric of B is worse than A beyond its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("regressions: {regressions:?}");
        Ok(ExitCode::FAILURE)
    }
}

/// `bench selfcheck`: two interleaved sets of the same build must agree
/// within every bound, in both directions, and every exact count of the
/// traced runs must be identical. A pair over half its bound means the
/// workload should get longer, not the bound wider.
pub fn selfcheck(runs: u64) -> Result<ExitCode, String> {
    let sets = run_sets(2, runs, false)?;
    println!("set A");
    print_set(&sets[0]);
    println!("set B");
    print_set(&sets[1]);
    let (a, b) = (run_values(&sets[0]), run_values(&sets[1]));
    println!("B against A");
    let mut problems = compare(&a, &b);
    println!("A against B");
    problems.extend(compare(&b, &a));
    for (workload, runs_a) in &sets[0] {
        let runs_b = &sets[1][workload];
        if runs_a.incorrect_runs + runs_b.incorrect_runs > 0 {
            problems.push(format!("{workload}: incorrect runs"));
        }
        for (metric, value_a) in &runs_a.per_layer {
            let exact = crate::spec::PER_LAYER
                .iter()
                .any(|m| m.name == metric && m.unit == "count")
                && !metric.starts_with("trace.");
            if exact && runs_b.per_layer.get(metric) != Some(value_a) {
                problems.push(format!(
                    "{workload} {metric}: {value_a} vs {:?}",
                    runs_b.per_layer.get(metric)
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("selfcheck passed: the two sets agree within every bound and every count repeats");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("selfcheck FAILED: {problems:?}");
        Ok(ExitCode::FAILURE)
    }
}

/// `bench smoke`: every workload shrunk, traced (which also runs the
/// production section), all output checks on; timings are printed, not
/// compared.
pub fn smoke() -> Result<ExitCode, String> {
    let started = std::time::Instant::now();
    let mut bad = 0;
    for workload in &WORKLOADS {
        let child = run_child(workload.name, DEFAULT_SEED, true, true)?;
        println!(
            "smoke {:18} {:>5.1} s  correct {}  failed {}",
            workload.name, child.wall_s, child.correct, child.failed
        );
        bad += u64::from(!child.correct);
    }
    println!("smoke suite: {:.1} s", started.elapsed().as_secs_f64());
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let result = RunResult {
            workload: "w".into(),
            seed: 1,
            seconds: 1,
            smoke: false,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s".into(), 1.25, "s".into())],
        };
        assert_eq!(
            result.contract_line(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn compare_flags_only_what_exceeds_its_bound() {
        let set = |cells: f64, hit: f64| {
            BTreeMap::from([(
                "campaign_cold".to_string(),
                BTreeMap::from([
                    ("cells_per_s".to_string(), vec![cells, cells * 1.01]),
                    ("hit_p50_ms".to_string(), vec![hit, hit * 1.01]),
                ]),
            )])
        };
        let bound = END_TO_END[1].bound;
        let (inside, outside) = (100.0 * (1.0 - bound * 0.8), 100.0 * (1.0 - bound * 1.2));
        // `hit_p50_ms` is a stand-in on this workload: never gated.
        assert!(compare(&set(100.0, 1.0), &set(inside, 9.0)).is_empty());
        assert_eq!(
            compare(&set(100.0, 1.0), &set(outside, 1.0)),
            vec!["campaign_cold cells_per_s".to_string()]
        );
    }
}
