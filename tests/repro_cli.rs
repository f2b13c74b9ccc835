//! The `repro` binary's command-line contract, driven as a subprocess:
//! what it prints, what it exits with, and what it leaves on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use predictsim::experiments::CampaignResult;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("predictsim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .env_remove("REPRO_FAULTS")
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn campaigns(dir: &Path) -> Vec<CampaignResult> {
    let text = std::fs::read_to_string(dir.join("campaigns.json")).expect("campaigns.json");
    serde_json::from_str(&text).expect("campaigns.json parses")
}

/// The rendered body of one `## `-headed stdout section: from its header
/// to the `  wrote <artifact>` line that follows it under `--out`.
fn section<'a>(stdout: &'a str, header: &str) -> &'a str {
    let start = stdout
        .find(header)
        .unwrap_or_else(|| panic!("no {header:?} in:\n{stdout}"));
    let rest = &stdout[start..];
    &rest[..rest
        .find("\n  wrote ")
        .expect("section ends in a wrote line")]
}

const SENTINEL: &str =
    "# sentinel\n\n<!-- repro:timing:begin -->\nold\n<!-- repro:timing:end -->\n";

/// `repro all` twice at scale 0.01 — exhaustive with `--timing` in a
/// directory holding a sentinel `EXPERIMENTS.md`, then with `--prune` —
/// in one test because the exhaustive run is both the `--timing`
/// subject and the reference the sweep is compared against.
#[test]
fn all_prints_timing_on_stdout_and_survives_prune() {
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

    let swept = repro(
        &dir,
        &["all", "--scale", "0.01", "--prune", "--out", "swept"],
    );
    assert!(
        swept.status.success(),
        "`repro all --prune` (what `--full` runs) must finish: {swept:?}"
    );
    let text = stdout(&swept);
    let note = "Table 6 skipped under --prune";
    assert!(text.contains(note), "skip note on stdout:\n{text}");
    assert!(
        String::from_utf8_lossy(&swept.stderr).contains(note),
        "skip note on stderr"
    );
    assert!(!text.contains("## Table 6"));
    assert!(!dir.join("swept/table6.json").exists());
    assert!(text.contains("Headline: C-V triple reduces AVEbsld by"));
    assert_eq!(
        section(&text, "## Table 1"),
        section(&full_text, "## Table 1"),
        "Table 1 does not depend on the sweep mode"
    );
    // Every cell the sweep reports is the exhaustive run's cell, and the
    // surviving triple set is the same on every log.
    let exact = campaigns(&dir.join("full"));
    let swept = campaigns(&dir.join("swept"));
    assert_eq!(swept.len(), exact.len());
    let names = |c: &CampaignResult| -> Vec<String> {
        c.results.iter().map(|r| r.triple.clone()).collect()
    };
    for (s, e) in swept.iter().zip(&exact) {
        assert_eq!(s.log, e.log);
        assert_eq!(names(s), names(&swept[0]), "{}: ragged triple set", s.log);
        assert!(
            s.results.len() < e.results.len(),
            "{}: nothing pruned",
            s.log
        );
        for r in &s.results {
            assert_eq!(Some(r), e.get(&r.triple), "{} {}", s.log, r.triple);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misspelt_experiment_is_rejected_with_the_valid_names() {
    let dir = scratch("typo");
    let out = repro(&dir, &["tabel6"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment \"tabel6\""), "{err}");
    for name in ["table1", "table6", "ablation", "all", "scenario", "serve"] {
        assert!(err.contains(name), "valid name {name} listed: {err}");
    }
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
