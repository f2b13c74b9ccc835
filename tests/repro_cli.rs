//! The `repro` binary's command-line contract, driven as a subprocess:
//! what it prints, what it exits with, and what it leaves on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use predictsim::experiments::DEFAULT_SEED;
use predictsim::serve::{batch_result_json, Submission, WorkloadRequest};
use predictsim::sim::hash::fnv1a64;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predictsim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    repro_under(None, cwd, args)
}

/// `repro` with `REPRO_FAULTS` set to `faults` (unset for `None`).
fn repro_under(faults: Option<&str>, cwd: &Path, args: &[&str]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command.args(args).current_dir(cwd);
    match faults {
        Some(plan) => command.env("REPRO_FAULTS", plan),
        None => command.env_remove("REPRO_FAULTS"),
    };
    command.output().expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const SENTINEL: &str =
    "# sentinel\n\n<!-- repro:timing:begin -->\nold\n<!-- repro:timing:end -->\n";

/// Byte identity of `repro all --scale 0.01 --out`, pinned. Regenerate
/// after an intentional change (and review the diff) with
/// `GOLDEN_REGEN=1 cargo test --test repro_cli`.
const ARTIFACTS_GOLDEN: &str = "tests/golden/artifacts.fnv";

/// Byte identity of the cell files a cold `repro table1 --scale 0.01
/// --cache` writes, plus the cold and warm `cache summary:` lines.
/// `GOLDEN_REGEN=1` rewrites it, as for [`ARTIFACTS_GOLDEN`].
const CACHE_CELLS_GOLDEN: &str = "tests/golden/cache_cells.fnv";

/// One `fnv1a64-hex  file-name` line per file in `dir`, sorted by name.
fn file_hashes(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .collect();
    names.sort();
    let mut manifest = String::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("read file");
        manifest.push_str(&format!("{:016x}  {name}\n", fnv1a64(&bytes)));
    }
    manifest
}

fn cache_summary(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find(|line| line.starts_with("cache summary:"))
        .expect("cache summary on stderr")
        .to_string()
}

/// Compares `manifest` with the committed `golden` file, or rewrites it
/// under `GOLDEN_REGEN`.
fn assert_golden(golden: &str, manifest: &str, what: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(golden, manifest).expect("write golden");
        panic!("manifest regenerated at {golden} — rerun without GOLDEN_REGEN");
    }
    let pinned = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("missing golden file {golden} ({e}); regenerate with GOLDEN_REGEN=1")
    });
    assert_eq!(
        manifest, pinned,
        "{what} drifted from {golden}; if the change is intentional, regenerate with \
         GOLDEN_REGEN=1 and review the diff"
    );
}

/// `repro all --timing` at scale 0.01, in a directory holding a
/// sentinel `EXPERIMENTS.md`; its artifacts match [`ARTIFACTS_GOLDEN`].
#[test]
fn all_prints_timing_on_stdout_and_keeps_table6() {
    let dir = scratch("all");
    std::fs::write(dir.join("EXPERIMENTS.md"), SENTINEL).expect("write sentinel");

    let full = repro(
        &dir,
        &["all", "--scale", "0.01", "--timing", "--out", "full"],
    );
    assert!(full.status.success(), "{full:?}");
    let full_text = stdout(&full);
    assert!(
        full_text.contains("## Timing (`repro --timing`)")
            && full_text.contains("experiments: all"),
        "a bare `all --timing` must print its section on stdout:\n{full_text}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("EXPERIMENTS.md")).expect("sentinel still there"),
        SENTINEL,
        "repro must not rewrite documentation in its working directory"
    );
    assert!(
        full_text.contains("## Table 6"),
        "default runs keep Table 6"
    );

    let manifest = file_hashes(&dir.join("full")) + &cache_summary(&full) + "\n";
    assert_golden(
        ARTIFACTS_GOLDEN,
        &manifest,
        "`repro all --scale 0.01` artifacts",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `progress: table1 [k/12] cell — source` lines of one run: one
/// per cell, counters 1..=12 in some order, each source passing `how`.
fn assert_progress(out: &Output, how: impl Fn(&str) -> bool) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut counters = Vec::new();
    for line in stderr
        .lines()
        .filter_map(|l| l.strip_prefix("progress: table1 ["))
    {
        let (counter, rest) = line.split_once("/12] ").expect("a k/12 counter");
        counters.push(counter.parse::<usize>().expect("numeric counter"));
        let (_, source) = rest.split_once(" — ").expect("a source after the dash");
        assert!(how(source), "{line}");
    }
    counters.sort_unstable();
    assert_eq!(counters, (1..=12).collect::<Vec<_>>(), "{stderr}");
}

/// A cold then warm `table1 --progress --cache` pair: the cell files
/// are byte-pinned by [`CACHE_CELLS_GOLDEN`] (equal cell bytes are what
/// keep old cache directories resumable), the warm run is served from
/// disk alone, and each run journals one progress line per cell.
#[test]
fn cache_cells_and_progress_lines_are_pinned() {
    let dir = scratch("cells");
    let args: Vec<&str> = "table1 --scale 0.01 --progress --cache cells"
        .split(' ')
        .collect();
    let (cold, warm) = (repro(&dir, &args), repro(&dir, &args));
    assert!(
        cold.status.success() && warm.status.success(),
        "{cold:?} {warm:?}"
    );
    assert_eq!(stdout(&cold), stdout(&warm), "warm stdout equals cold");
    assert_progress(&cold, |source| {
        let secs = source
            .strip_prefix("simulated in ")
            .and_then(|s| s.strip_suffix('s'));
        secs.is_some_and(|secs| secs.parse::<f64>().is_ok())
    });
    assert_progress(&warm, |source| source == "disk hit");
    let warm_summary = cache_summary(&warm);
    assert!(
        warm_summary.contains("simulated=0 memory_hits=0 disk_hits=12"),
        "{warm_summary}"
    );
    // The directory holds `cell-*.json` files only: a stray file (a
    // leaked temp file, say) fails the pin too.
    let cells = file_hashes(&dir.join("cells"));
    let manifest = format!("{cells}{}\n{warm_summary}\n", cache_summary(&cold));
    assert_golden(CACHE_CELLS_GOLDEN, &manifest, "`table1 --cache` cell files");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exit 2, the reason on stderr (returned), nothing run.
fn assert_rejected(args: &[&str], reason: &str) -> String {
    assert_rejected_under(None, args, reason)
}

fn assert_rejected_under(faults: Option<&str>, args: &[&str], reason: &str) -> String {
    let out = repro_under(faults, &std::env::temp_dir(), args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains(reason), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} ran something: {out:?}");
    err
}

#[test]
fn misspelt_experiment_is_rejected_with_the_valid_names() {
    let err = assert_rejected(&["tabel6"], "unknown experiment \"tabel6\"");
    for name in ["table1", "table6", "ablation", "all", "scenario", "serve"] {
        assert!(err.contains(name), "valid name {name} listed: {err}");
    }
}

/// A non-positive scale used to reach an assertion in workload
/// generation (exit 101). `--full` sets the scale too, so pairing it
/// with `--scale` is refused in either order rather than won by the
/// last flag.
#[test]
fn non_positive_scale_is_rejected() {
    for scale in ["0", "-1", "nan", "inf"] {
        assert_rejected(
            &["table1", "--scale", scale],
            "error: --scale must be a positive number",
        );
    }
    for args in [
        ["all", "--scale", "0.1", "--full"],
        ["all", "--full", "--scale", "0.1"],
    ] {
        assert_rejected(&args, "error: --full is --scale 1.0");
    }
}

/// The dominated-triple sweep is gone: its flag is an unknown option,
/// and the usage text no longer mentions it or its Table 6 caveat.
#[test]
fn prune_flag_is_gone() {
    assert_rejected(&["all", "--prune"], "unknown option \"--prune\"");
    let help = repro(&std::env::temp_dir(), &["--help"]);
    assert!(help.status.success(), "{help:?}");
    let usage = stdout(&help);
    assert!(usage.contains("--full"), "{usage}");
    assert!(!usage.contains("prune"), "{usage}");
    assert!(!usage.contains("Table 6 skipped"), "{usage}");
}

/// The cache directory is never trimmed, so its size knob is an
/// unknown option rather than a silent no-op.
#[test]
fn cache_budget_flag_is_gone() {
    assert_rejected(
        &["all", "--cache-budget", "8G"],
        "unknown option \"--cache-budget\"",
    );
}

/// `repro scenario` and the serve daemon resolve the same names the
/// same way: the CLI's `scenario.json` is byte-equal to the daemon's
/// batch result for the same submission.
#[test]
fn scenario_json_is_the_daemon_batch_result() {
    let dir = scratch("scenario");
    let out = repro(
        &dir,
        &[
            "scenario",
            "--log",
            "KTH",
            "--scale",
            "0.01",
            "--scheduler",
            "easy-sjbf",
            "--predictor",
            "ave2",
            "--correction",
            "incremental",
            "--out",
            "out",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(dir.join("out/scenario.json")).expect("scenario.json");
    let mut submission = Submission::new(WorkloadRequest::Preset {
        log: "KTH".into(),
        scale: 0.01,
        seed: DEFAULT_SEED,
    });
    submission.scheduler = Some("easy-sjbf".into());
    submission.predictor = Some("ave2".into());
    submission.correction = Some("incremental".into());
    assert_eq!(written, batch_result_json(&submission).expect("batch run"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Policy names and the cluster resolve before the workload loads: a
/// misspelt scheduler on a missing log is a registry error, not an IO
/// error, and nothing is simulated.
#[test]
fn scenario_resolves_names_before_loading() {
    for (args, reason) in [
        (
            &[
                "scenario",
                "--swf",
                "/nonexistent.swf",
                "--scheduler",
                "round-robin",
            ][..],
            "error: unknown scheduler \"round-robin\"",
        ),
        (
            &["scenario", "--cluster", "cluster:8xturbo"],
            "error: malformed cluster \"cluster:8xturbo\"",
        ),
    ] {
        let out = repro(&std::env::temp_dir(), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(reason), "{args:?}: {err}");
        assert!(!err.contains("cannot read"), "{args:?} loaded first: {err}");
        assert!(!stdout(&out).contains("## Scenario"), "{args:?}: {out:?}");
    }
}

/// A `REPRO_FAULTS` plan that cannot do what it says — a site nothing
/// consults (a typo, or a site since deleted), or a clause that does
/// not parse — must not run fault-free with exit 0: "chaos artifacts
/// equal clean ones" would then pass vacuously.
#[test]
fn fault_plan_that_cannot_fire_is_rejected() {
    for (plan, token) in [
        ("cache.raed:p=1", "cache.raed"),
        ("seed=1,cache.read:p=0.5,disk.sync:max=1", "disk.sync"),
        ("cache.read:p=oops", "oops"),
        ("index.flush:p=1", "index.flush"),
    ] {
        let err = assert_rejected_under(Some(plan), &["--list"], "error: REPRO_FAULTS:");
        assert!(err.contains(token), "{plan}: offending token named: {err}");
        for site in ["cache.read", "cache.remove", "serve.write", "cell.panic"] {
            assert!(
                err.contains(site),
                "{plan}: known site {site} listed: {err}"
            );
        }
    }
    // A valid plan is announced and runs.
    let ok = repro_under(
        Some("seed=3,cache.read:p=0.5"),
        &std::env::temp_dir(),
        &["--list"],
    );
    assert!(ok.status.success(), "{ok:?}");
    let err = String::from_utf8_lossy(&ok.stderr).into_owned();
    assert!(
        err.contains("fault injection active (REPRO_FAULTS): seed=3 cache.read(p=0.5)"),
        "{err}"
    );
}
