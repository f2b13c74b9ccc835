//! `bench`: the repo's benchmark, one workload per process.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench smoke                      every workload shrunk, traced, checks on
//! bench record [--runs N] --out FILE   N seeds per workload + a traced run
//! bench selfcheck [--runs N]       two interleaved sets must agree
//! bench compare A.json B.json
//! ```
//!
//! A run sets up, executes one long fixed-work measured section through
//! production entry points with tracing off, verifies its outputs and
//! prints every metric by name with its unit; the last line of standard
//! output is the result object `BENCHMARK.json` describes. `--trace 1`
//! additionally re-runs the same inputs through the harness's own
//! decorators and prints the per-layer ledger instead.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use predictsim_perfbench::host;
use predictsim_perfbench::report::{self, RunResult};
use predictsim_perfbench::spec::{
    is_measured, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use predictsim_perfbench::workloads::{self, Ctx};
use serde::Value;

const USAGE: &str = "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       bench smoke | record [--runs N] --out FILE | selfcheck [--runs N]
       bench compare A.json B.json";

/// `--flag value` pairs, `--smoke` and positionals of one invocation.
struct Args {
    values: BTreeMap<String, String>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            values: BTreeMap::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                flag if flag.starts_with("--") => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    parsed.values.insert(flag.to_string(), value.clone());
                }
                _ => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.values.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got `{text}`")),
        }
    }
}

/// Runs one workload in this process and prints its result.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let epoch = Instant::now();
    let name = args
        .values
        .get("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let ctx = Ctx {
        seed: args.number("--seed", DEFAULT_SEED)?,
        seconds: args.number("--seconds", RUN_SECONDS)?.max(1),
        smoke: args.smoke,
        trace: args.number("--trace", 0)? != 0,
        epoch,
        calibration: host::Calibration::new(),
    };
    let outcome = workloads::run(name, &ctx).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {known:?}")
    })?;

    let mut checks = outcome.checks;
    let wall = outcome.measured.wall_s;
    let cells = outcome.attempted - outcome.failed_ops;
    let metrics: Vec<(String, f64, String)> = if ctx.trace {
        let mut ledger: BTreeMap<&str, f64> = outcome.ledger.iter().copied().collect();
        ledger.insert("trace.spans", outcome.spans.count() as f64);
        ledger.insert("host.calib_before_ms", outcome.measured.calib_before_ms);
        ledger.insert("host.calib_after_ms", outcome.measured.calib_after_ms);
        // Every layer reports on every workload; one it never enters
        // reads 0.
        let gap = outcome.spans.worst_self_sum_gap();
        checks.check(gap <= 0.05, || {
            format!(
                "per-layer self times miss a cell span by {:.1}%",
                gap * 100.0
            )
        });
        PER_LAYER
            .iter()
            .map(|m| {
                let value = ledger.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect()
    } else {
        // Where no latency is measured the two latency metrics stand in
        // with a copy of `cpu_ms_per_cell` (`spec::LATENCY_WORKLOAD`).
        let cpu_ms_per_cell = outcome.measured.cpu_s * 1e3 / cells.max(1) as f64;
        let latency = |metric: &str, measured: Option<f64>| {
            assert_eq!(
                measured.is_some(),
                is_measured(name, metric),
                "{name} {metric}: spec::LATENCY_WORKLOAD disagrees with the workload"
            );
            measured.unwrap_or(cpu_ms_per_cell)
        };
        // In the order of `END_TO_END`.
        let values = [
            outcome.measured.setup_s,
            cells as f64 / wall,
            outcome.jobs as f64 / wall,
            cpu_ms_per_cell,
            outcome.measured.peak_rss_mb,
            latency("hit_p50_ms", outcome.hit_p50_ms),
            latency("miss_p50_ms", outcome.miss_p50_ms),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name.to_string(), value, m.unit.to_string()))
            .collect()
    };
    let failed = outcome.failed_ops + checks.failed.len() as u64;
    let result = RunResult {
        workload: name.clone(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        smoke: ctx.smoke,
        trace: ctx.trace,
        correct: failed == 0,
        attempted: outcome.attempted.max(1),
        failed,
        metrics,
    };

    // Human-readable report first; the contract's object is the last line.
    println!(
        "workload {name} seed {} seconds {} trace {} smoke {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        u8::from(ctx.smoke)
    );
    println!(
        "measured section: {:.3} s wall, {:.3} s cpu, {} cells, {} jobs; set-up {:.3} s, peaking at {:.1} MB; calibration {:.1} / {:.1} ms",
        wall,
        outcome.measured.cpu_s,
        cells,
        outcome.jobs,
        outcome.measured.setup_s,
        outcome.measured.setup_peak_rss_mb,
        outcome.measured.calib_before_ms,
        outcome.measured.calib_after_ms
    );
    for (note, value) in &outcome.notes {
        println!("  note {note} = {value}");
    }
    for (name, value, unit) in &result.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "checks: {} passed, {} failed",
        checks.passed,
        checks.failed.len()
    );
    for failure in &checks.failed {
        println!("  FAILED {failure}");
    }

    let out = workloads::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let suffix = if ctx.smoke { "-smoke" } else { "" };
    let write = |file: String, value: &Value| {
        let text = serde_json::to_string_pretty(value).expect("report serializes");
        std::fs::write(out.join(file), text).map_err(|e| format!("write bench/out: {e}"))
    };
    let mut report = result.to_value();
    if let Value::Map(entries) = &mut report {
        entries.push(("host".into(), host::facts()));
        entries.push((
            "notes".into(),
            Value::Map(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ));
        entries.push((
            "failed_checks".into(),
            Value::Seq(checks.failed.iter().cloned().map(Value::Str).collect()),
        ));
    }
    write(
        format!("run-{name}-trace{}{suffix}.json", u8::from(ctx.trace)),
        &report,
    )?;
    if !outcome.pins.observed.is_empty() {
        let observed = Value::Map(
            outcome
                .pins
                .observed
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        );
        write(format!("observed-pins-{name}{suffix}.json"), &observed)?;
    }
    if ctx.trace {
        let trace = Value::Map(vec![
            ("workload".into(), Value::Str(name.clone())),
            ("seed".into(), Value::UInt(ctx.seed)),
            ("spans".into(), outcome.spans.to_value()),
        ]);
        write(format!("trace-{name}{suffix}.json"), &trace)?;
    }

    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = Args::parse(rest)?;
    match command {
        "run" => run_workload(&args),
        "smoke" => report::smoke(),
        "record" => {
            let out = args
                .values
                .get("--out")
                .ok_or_else(|| format!("record needs --out FILE\n{USAGE}"))?;
            report::record(args.number("--runs", 10)?, out)
        }
        "selfcheck" => report::selfcheck(args.number("--runs", 3)?.max(3)),
        "compare" => match args.positional.as_slice() {
            [a, b] => report::compare_files(a, b),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
