//! `repro` — regenerate every table and figure of the paper, or run any
//! single scenario by registry name.
//!
//! The usage text — experiments, options, environment — is [`USAGE`]
//! at the bottom of this file, printed by `repro --help`.

use std::io::Write as _;
#[cfg(unix)]
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Instant;

use predictsim_experiments::{
    ablate_basis, ablate_correction, ablate_loss, ablate_optimizer, ablate_scheduler,
    campaign_triples, fig3, fig4_fig5, parse_cluster, parse_triple, reference_triples,
    render_ablation, render_ecdf_series, render_fig3, render_registry, render_table1,
    render_table6, render_table7, render_table8, run_campaign_loaded, set_progress, table1, table6,
    table7, table8, CampaignResult, ExperimentSetup, HeuristicTriple, LoadedWorkload, PhaseTimer,
    Scenario, SimCache, SwfSource, SyntheticSource, TripleResult, WorkloadSource, DEFAULT_SEED,
    QUICK_SCALE,
};

struct Options {
    setup: ExperimentSetup,
    out_dir: Option<std::path::PathBuf>,
    experiments: Vec<String>,
    threads: Option<usize>,
    timing: bool,
    cache_dir: Option<std::path::PathBuf>,
    progress: bool,
    swf: Option<std::path::PathBuf>,
    log: Option<String>,
    scheduler: Option<String>,
    predictor: Option<String>,
    correction: Option<String>,
    cluster: Option<String>,
    listen: Option<String>,
}

/// The write end of the SIGINT self-pipe (-1 until
/// [`install_sigint_handler`] makes it).
#[cfg(unix)]
static SIGINT_PIPE: AtomicI32 = AtomicI32::new(-1);

/// Writes one byte to the self-pipe. An atomic load and `write(2)` are
/// async-signal-safe; everything else happens on normal threads.
#[cfg(unix)]
extern "C" fn note_sigint(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    let fd = SIGINT_PIPE.load(Ordering::SeqCst);
    if fd >= 0 {
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

/// Routes SIGINT to [`note_sigint`] so the daemon can drain instead of
/// dying with jobs in flight, and returns the wait for it: a blocking
/// read of the self-pipe's other end, which wakes for nothing else.
fn install_sigint_handler() -> impl FnOnce() {
    #[cfg(unix)]
    {
        use std::io::Read as _;
        use std::os::fd::IntoRawFd as _;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        let (mut wake, notify) = match std::os::unix::net::UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: cannot make the SIGINT pipe: {e}");
                std::process::exit(2);
            }
        };
        SIGINT_PIPE.store(notify.into_raw_fd(), Ordering::SeqCst);
        unsafe {
            signal(SIGINT, note_sigint);
        }
        move || {
            let mut byte = [0u8; 1];
            while let Err(e) = wake.read(&mut byte) {
                if e.kind() != std::io::ErrorKind::Interrupted {
                    break;
                }
            }
        }
    }
    #[cfg(not(unix))]
    || loop {
        std::thread::park();
    }
}

/// Every positional `repro` accepts; anything else is a typo, not a
/// silent no-op.
const EXPERIMENTS: [&str; 13] = [
    "table1", "table6", "table7", "table8", "fig3", "fig4", "fig5", "ablation", "all", "scenario",
    "serve", "list", "help",
];

fn parse_args() -> Result<Options, String> {
    let mut setup = ExperimentSetup {
        scale: QUICK_SCALE,
        seed: DEFAULT_SEED,
    };
    let mut out_dir = None;
    let mut experiments = Vec::new();
    let mut threads = None;
    let mut timing = false;
    let mut cache_dir = None;
    let mut progress = false;
    let mut full = false;
    let mut scale_given = false;
    let mut swf = None;
    let mut log = None;
    let mut scheduler = None;
    let mut predictor = None;
    let mut correction = None;
    let mut cluster = None;
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => experiments.push("list".into()),
            "--swf" => {
                swf = Some(std::path::PathBuf::from(
                    args.next().ok_or("--swf needs a file path")?,
                ));
            }
            "--log" => log = Some(args.next().ok_or("--log needs a preset name")?),
            "--scheduler" => {
                scheduler = Some(args.next().ok_or("--scheduler needs a registry name")?);
            }
            "--predictor" => {
                predictor = Some(args.next().ok_or("--predictor needs a registry name")?);
            }
            "--correction" => {
                correction = Some(args.next().ok_or("--correction needs a registry name")?);
            }
            "--cluster" => {
                cluster = Some(args.next().ok_or("--cluster needs a spec")?);
            }
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                setup.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                // Workload generation asserts this; reject it as a typo
                // here rather than as a panic there.
                if !(setup.scale.is_finite() && setup.scale > 0.0) {
                    return Err("--scale must be a positive number".into());
                }
                scale_given = true;
            }
            "--full" => full = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                setup.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--out" => {
                out_dir = Some(std::path::PathBuf::from(
                    args.next().ok_or("--out needs a directory")?,
                ));
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--timing" => timing = true,
            "--cache" => {
                cache_dir = Some(std::path::PathBuf::from(
                    args.next().ok_or("--cache needs a directory")?,
                ));
            }
            "--progress" => progress = true,
            "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
            "--help" | "-h" => {
                experiments.clear();
                experiments.push("help".into());
                break;
            }
            other if EXPERIMENTS.contains(&other) => experiments.push(other.to_string()),
            other if !other.starts_with('-') => {
                return Err(format!(
                    "unknown experiment {other:?} (valid: {})",
                    EXPERIMENTS.join(" ")
                ));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    // Scenario flags without an experiment imply a single scenario run;
    // with other experiments named they would be silently dead, so that
    // is an error rather than a surprise.
    let scenario_flags = swf.is_some()
        || log.is_some()
        || scheduler.is_some()
        || predictor.is_some()
        || correction.is_some()
        || cluster.is_some();
    if scenario_flags && experiments.is_empty() {
        experiments.push("scenario".into());
    } else if scenario_flags && !experiments.iter().any(|e| e == "scenario" || e == "help") {
        return Err(
            "--swf/--log/--scheduler/--predictor/--correction/--cluster only apply to \
             the `scenario` experiment; add `scenario` to the experiment list"
                .into(),
        );
    }
    // Same rule for `--listen`: it only configures the daemon.
    if listen.is_some() && experiments.is_empty() {
        experiments.push("serve".into());
    } else if listen.is_some() && !experiments.iter().any(|e| e == "serve" || e == "help") {
        return Err("--listen only applies to the `serve` experiment; run `repro serve`".into());
    }
    if experiments.iter().any(|e| e == "serve") && experiments.len() > 1 {
        return Err("`serve` runs alone; drop the other experiments".into());
    }
    if experiments.is_empty() {
        experiments.push("help".into());
    }
    // `--full` is the one-command resumable full-scale run: it composes
    // the persistent cache (default directory `repro-cache` unless
    // `--cache` names one) and the per-cell progress journal, so a
    // killed run can be relaunched and resumes from the cells it already
    // wrote.
    if full {
        if scale_given {
            return Err("--full is --scale 1.0; pass one of --full and --scale".into());
        }
        setup.scale = 1.0;
        progress = true;
        if cache_dir.is_none() {
            cache_dir = Some(std::path::PathBuf::from("repro-cache"));
        }
    }
    Ok(Options {
        setup,
        out_dir,
        experiments,
        threads,
        timing,
        cache_dir,
        progress,
        swf,
        log,
        scheduler,
        predictor,
        correction,
        cluster,
        listen,
    })
}

fn write_json<T: serde::Serialize>(dir: &Option<std::path::PathBuf>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create --out directory");
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path).expect("create artifact file");
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    file.write_all(json.as_bytes()).expect("write artifact");
    println!("  wrote {}", path.display());
}

/// One log's campaign timing + cache effectiveness, for the `--timing`
/// breakdown.
struct CampaignLogStat {
    log: String,
    secs: f64,
    simulated: u64,
    hits: u64,
}

/// Campaigns (128 triples + 2 clairvoyant references per log) are the
/// expensive shared input of table6/table7/fig3; compute them once —
/// through the process-wide simulation cache.
fn campaigns(
    workloads: &[LoadedWorkload],
    stats_out: &mut Vec<CampaignLogStat>,
) -> Vec<CampaignResult> {
    let mut triples = campaign_triples();
    triples.extend(reference_triples());
    let cache = SimCache::global();
    workloads
        .iter()
        .map(|w| {
            let t0 = Instant::now();
            let before = cache.stats();
            let c = run_campaign_loaded(w, &triples);
            let delta = cache.stats().since(before);
            let secs = t0.elapsed().as_secs_f64();
            eprintln!(
                "  campaign {}: {} triples x {} jobs in {:.1}s ({} simulated, {} cache hits)",
                c.log,
                c.results.len(),
                c.jobs,
                secs,
                delta.simulated,
                delta.hits(),
            );
            stats_out.push(CampaignLogStat {
                log: c.log.clone(),
                secs,
                simulated: delta.simulated,
                hits: delta.hits(),
            });
            c
        })
        .collect()
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\nrun `repro --help` for usage");
            std::process::exit(2);
        }
    };
    if opts.experiments.iter().any(|e| e == "help") {
        print!("{USAGE}");
        return;
    }
    // Check and announce a REPRO_FAULTS plan before any work: a chaos
    // run must never be mistaken for a clean one when comparing
    // artifacts, and a plan that cannot fire must not pass as one.
    match predictsim_faultline::active_summary() {
        Ok(Some(plan)) => eprintln!("fault injection active (REPRO_FAULTS): {plan}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: REPRO_FAULTS: {e}");
            std::process::exit(2);
        }
    }
    if opts.experiments.iter().any(|e| e == "list") {
        print!("{}", render_registry());
        if opts.experiments.iter().all(|e| e == "list") {
            return;
        }
    }
    set_progress(opts.progress);
    if let Some(dir) = &opts.cache_dir {
        SimCache::global().set_persist_dir(Some(dir.clone()));
        eprintln!("persistent simulation cache: {}", dir.display());
    }
    if opts.experiments.iter().any(|e| e == "serve") {
        run_serve(&opts);
        return;
    }
    match opts.threads {
        // The override is thread-local; every fan-out in `run` starts
        // from this thread, so the whole pipeline inherits the width.
        Some(n) => rayon::pool::with_num_threads(n, || run(&opts)),
        None => run(&opts),
    }
}

/// `repro serve` — start the simulation daemon and run until SIGINT,
/// then drain: reject queued jobs and cancel in-flight simulations.
fn run_serve(opts: &Options) {
    let wait_for_sigint = install_sigint_handler();
    let mut cfg = predictsim_serve::ServeConfig::default();
    if let Some(addr) = &opts.listen {
        cfg.addr = addr.clone();
    }
    if let Some(n) = opts.threads {
        cfg.workers = n;
    }
    let server = match predictsim_serve::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start the daemon: {e}");
            std::process::exit(2);
        }
    };
    // The smoke test and scripted clients scrape this line for the
    // resolved (possibly ephemeral) port; keep its shape stable.
    eprintln!("repro serve: listening on {}", server.addr());
    wait_for_sigint();
    eprintln!(
        "repro serve: draining ({} job(s) in flight)",
        server.active_jobs()
    );
    server.shutdown();
    eprintln!("repro serve: drained, bye");
}

/// Runs one scenario picked entirely by registry names. The preset
/// resolves first, then the policy names and the cluster (as the serve
/// daemon resolves a submission), and only then does the workload load.
fn run_scenario(opts: &Options, timer: &mut PhaseTimer) {
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {e}\nrun `repro --list` for the registered policy names");
        std::process::exit(2);
    };
    let source: Box<dyn WorkloadSource> = match &opts.swf {
        Some(path) => Box::new(SwfSource::new(path)),
        None => {
            let spec = match &opts.log {
                Some(name) => opts
                    .setup
                    .spec(name)
                    .unwrap_or_else(|| fail(&format!("no Table 4 preset matches {name:?}"))),
                None => opts
                    .setup
                    .specs()
                    .into_iter()
                    .next()
                    .expect("presets exist"),
            };
            Box::new(SyntheticSource::new(spec, opts.setup.seed))
        }
    };
    let triple = parse_triple(
        opts.scheduler.as_deref(),
        opts.predictor.as_deref(),
        opts.correction.as_deref(),
    )
    .unwrap_or_else(|e| fail(&e));
    let cluster = opts
        .cluster
        .as_deref()
        .map(parse_cluster)
        .transpose()
        .unwrap_or_else(|e| fail(&e));

    println!("## Scenario — {}\n", triple.name());
    let loaded = timer.time("scenario workload load", || source.load());
    let loaded = loaded.unwrap_or_else(|e| fail(&e));
    eprintln!(
        "  loaded {}: {} jobs, m={}",
        loaded.name,
        loaded.jobs.len(),
        loaded.machine_size
    );
    if let Some(report) = &loaded.cleaning {
        eprintln!(
            "  cleaning: kept {} | dropped {} unrunnable, {} oversize | repaired {} estimates, {} inversions",
            report.kept,
            report.dropped_unrunnable,
            report.dropped_oversize,
            report.repaired_estimates,
            report.repaired_inversions,
        );
    }
    // Ingestion accounting: the streaming loader must report zero
    // intermediate record vectors (CI pins this through --timing).
    let record_vecs = usize::from(loaded.stats.buffered_records > 0);
    eprintln!(
        "  ingest: {} · record_vecs={record_vecs} ({} buffered records) · {} users",
        if loaded.stats.streamed {
            "streamed"
        } else {
            "buffered"
        },
        loaded.stats.buffered_records,
        loaded.jobs.user_count(),
    );
    timer.note(format!(
        "scenario ingest: {} jobs · record_vecs={record_vecs} · {} interned users",
        loaded.jobs.len(),
        loaded.jobs.user_count(),
    ));
    let config = match cluster {
        Some(cluster) => {
            eprintln!("  cluster: {cluster} ({} procs)", cluster.total_procs());
            predictsim_sim::SimConfig { cluster }
        }
        None => loaded.sim_config(),
    };
    let result = timer.time("scenario simulation", || {
        Scenario::from_triple(&triple).run_on(&loaded.jobs, config)
    });
    let result = result.unwrap_or_else(|e| fail(&e));
    let summary = TripleResult::from_sim(&triple, &result);
    println!("| metric | value |\n|---|---|");
    println!(
        "| workload | {} ({} jobs, m={}) |",
        loaded.name,
        loaded.jobs.len(),
        loaded.machine_size
    );
    println!("| AVEbsld | {:.2} |", summary.ave_bsld);
    println!("| max bsld | {:.1} |", summary.max_bsld);
    println!("| mean wait | {:.0} s |", summary.mean_wait);
    println!("| utilization | {:.1}% |", 100.0 * summary.utilization);
    println!("| corrections | {} |", summary.corrections);
    println!("| prediction MAE | {:.0} s |", summary.mae);
    println!();
    write_json(&opts.out_dir, "scenario.json", &summary);
}

fn run(opts: &Options) {
    // `all` covers the paper pipeline; `scenario` and `list` only run
    // when named explicitly.
    let wants = |name: &str| {
        opts.experiments
            .iter()
            .any(|e| e == name || (e == "all" && name != "scenario" && name != "list"))
    };
    let needs_campaigns = wants("table6") || wants("table7") || wants("fig3");
    let needs_presets = [
        "table1", "table6", "table7", "table8", "fig3", "fig4", "fig5",
    ]
    .iter()
    .any(|e| wants(e))
        || wants("ablation");
    let threads = rayon::current_num_threads();

    println!(
        "# predictsim repro — scale {}, seed {}, {} pool thread(s)\n",
        opts.setup.scale, opts.setup.seed, threads
    );
    let mut timer = PhaseTimer::new();

    if wants("scenario") {
        run_scenario(opts, &mut timer);
    }

    // Generate once, then load into shared fingerprinted arenas: every
    // experiment below reads the same `LoadedWorkload`s, so the per-log
    // fingerprint is computed exactly once and no fan-out ever clones a
    // job vector.
    let workloads: Vec<LoadedWorkload> = if needs_presets {
        timer.time("workload generation", || {
            opts.setup
                .workloads()
                .into_iter()
                .map(|w| {
                    eprintln!(
                        "  generated {}: {} jobs, m={}, offered util {:.2}",
                        w.name,
                        w.jobs.len(),
                        w.machine_size,
                        w.stats.offered_utilization
                    );
                    LoadedWorkload::from(w)
                })
                .collect()
        })
    } else {
        Vec::new()
    };

    if wants("table1") {
        println!("## Table 1 — EASY vs EASY-Clairvoyant (§2.2)\n");
        let rows = timer.time("table1", || table1(&workloads));
        println!("{}", render_table1(&rows));
        write_json(&opts.out_dir, "table1.json", &rows);
    }

    let campaign_results = if needs_campaigns {
        eprintln!(
            "running campaigns ({} sims/log)...",
            campaign_triples().len() + 2,
        );
        let mut per_log = Vec::new();
        let cs = timer.time("campaigns", || campaigns(&workloads, &mut per_log));
        for stat in per_log {
            timer.record(&format!("campaigns · {}", stat.log), stat.secs);
            timer.note(format!(
                "campaigns · {}: {} cells simulated, {} cache hits",
                stat.log, stat.simulated, stat.hits,
            ));
        }
        write_json(&opts.out_dir, "campaigns.json", &cs);
        Some(cs)
    } else {
        None
    };

    if wants("table6") {
        let cs = campaign_results.as_ref().expect("campaigns computed");
        println!("## Table 6 — AVEbsld overview (§6.3.1)\n");
        let rows = timer.time("table6", || table6(cs));
        println!("{}", render_table6(&rows));
        write_json(&opts.out_dir, "table6.json", &rows);
    }

    let cross_validation = wants("table7").then(|| {
        let cs = campaign_results.as_ref().expect("campaigns computed");
        println!("## Table 7 — cross-validated triple selection (§6.3.3)\n");
        let outcome = timer.time("table7 (cross-validation)", || table7(cs));
        println!("{}", render_table7(&outcome));
        write_json(&opts.out_dir, "table7.json", &outcome);
        outcome
    });

    if wants("fig3") {
        let cs = campaign_results.as_ref().expect("campaigns computed");
        println!("## Figure 3 — inter-log correlation (§6.3.2)\n");
        let fig = timer.time("fig3", || fig3(cs, "Metacentrum", "SDSC-BLUE"));
        println!("{}", render_fig3(&fig));
        write_json(&opts.out_dir, "fig3.json", &fig);
    }

    if wants("table8") || wants("fig4") || wants("fig5") {
        let curie = workloads
            .iter()
            .find(|w| w.name.starts_with("Curie"))
            .expect("Curie preset present");
        if wants("table8") {
            println!("## Table 8 — MAE vs mean E-Loss on {} (§6.4)\n", curie.name);
            let rows = timer.time("table8", || table8(curie));
            println!("{}", render_table8(&rows));
            write_json(&opts.out_dir, "table8.json", &rows);
        }
        if wants("fig4") || wants("fig5") {
            let fig = timer.time("fig4+fig5", || fig4_fig5(curie, 193));
            if wants("fig4") {
                println!(
                    "## Figure 4 — ECDF of prediction errors on {} (§6.4)\n",
                    fig.log
                );
                println!("{}", render_ecdf_series(&fig.error_series, "h"));
            }
            if wants("fig5") {
                println!(
                    "## Figure 5 — ECDF of predicted values on {} (§6.4)\n",
                    fig.log
                );
                println!("{}", render_ecdf_series(&fig.value_series, "h"));
            }
            write_json(&opts.out_dir, "fig4_fig5.json", &fig);
        }
    }

    if wants("ablation") {
        let w = workloads.first().expect("at least one workload");
        println!("## Ablations (on {})\n", w.name);
        let ablations = timer.time("ablations", || {
            [
                ("Scheduler (clairvoyant)", ablate_scheduler(w)),
                (
                    "Correction mechanism (E-Loss learner)",
                    ablate_correction(w),
                ),
                ("Optimizer", ablate_optimizer(w)),
                ("Basis degree", ablate_basis(w)),
                ("Loss shape x weighting", ablate_loss(w)),
            ]
        });
        for (title, rows) in ablations {
            println!("{}", render_ablation(title, &rows));
            write_json(
                &opts.out_dir,
                &format!(
                    "ablation_{}.json",
                    title.split(' ').next().expect("word").to_lowercase()
                ),
                &rows,
            );
        }
    }

    // Close with the headline comparison so `repro all` ends on the
    // paper's summary numbers.
    if let Some(outcome) = &cross_validation {
        println!("---");
        println!(
            "Headline: C-V triple reduces AVEbsld by {:.0}% vs EASY (paper: 28%), {:.0}% vs EASY++ (paper: 11%), max {:.0}% (paper: 86%).",
            outcome.mean_reduction_vs_easy(),
            outcome.mean_reduction_vs_easypp(),
            outcome.max_reduction_vs_easy(),
        );
        println!(
            "Paper's winning triple: {}; ours: {}.",
            HeuristicTriple::paper_winner().name(),
            outcome.global_winner
        );
    }

    let cache_stats = SimCache::global().stats();
    // The summary line is append-only (pinned by a format test): the CI
    // cache smokes anchor on the `simulated=` prefix and grep
    // individual ` key=` fields.
    eprintln!("{}", cache_stats.summary_line());
    timer.note(format!(
        "cache totals: {} cells simulated, {} memory hits, {} disk hits",
        cache_stats.simulated, cache_stats.memory_hits, cache_stats.disk_hits
    ));
    if cache_stats.disk_rejects > 0 {
        timer.note(format!(
            "persistent cache: {} corrupt/mismatched file(s) rejected and re-simulated",
            cache_stats.disk_rejects
        ));
    }
    if cache_stats.disk_retries > 0 {
        timer.note(format!(
            "persistent cache: {} transient IO error(s) absorbed by retry",
            cache_stats.disk_retries
        ));
    }
    if cache_stats.degraded {
        timer.note(
            "persistent cache: degraded to memory-only after repeated hard disk failures"
                .to_string(),
        );
    }
    if cache_stats.panicked_cells > 0 {
        timer.note(format!(
            "panic isolation: {} cell attempt(s) panicked and were caught",
            cache_stats.panicked_cells
        ));
    }
    eprintln!("\ntotal wall time: {:.1}s", timer.total());
    if opts.timing {
        let experiments = opts.experiments.join(" ");
        println!(
            "{}",
            timer.render_markdown(opts.setup.scale, opts.setup.seed, threads, &experiments)
        );
    }
}

const USAGE: &str = "\
repro — regenerate the tables and figures of Gaussier et al. (SC'15)

USAGE: repro [OPTIONS] <EXPERIMENT>...

EXPERIMENTS
  table1     EASY vs EASY-Clairvoyant per log           (Table 1)
  table6     AVEbsld overview of all heuristic triples  (Table 6)
  table7     cross-validated triple selection           (Table 7)
  table8     MAE vs mean E-Loss on Curie                (Table 8)
  fig3       inter-log scatter + Pearson aggregate      (Figure 3)
  fig4       ECDF of prediction errors on Curie         (Figure 4)
  fig5       ECDF of predicted values on Curie          (Figure 5)
  ablation   scheduler/correction/optimizer/basis/loss ablations
  all        everything above
  scenario   one simulation picked by the scenario options below
  serve      simulation daemon: newline-delimited JSON over local TCP,
             streaming metrics, results byte-identical to `scenario`

OPTIONS
  --scale F    preset scale factor (default 0.05; 1.0 = full Table 4)
  --full       the resumable full-scale run: --scale 1.0 composed with
               --cache (default directory ./repro-cache) and --progress;
               kill it at any point and relaunch the same command to
               simulate exactly the cells not yet on disk. It sets the
               scale, so it does not combine with --scale
  --seed N     workload generation seed (default 20150101)
  --out DIR    also write JSON artifacts to DIR
  --threads N  pin the worker-pool width (default: RAYON_NUM_THREADS or
               the machine's parallelism); results are identical at any N
  --timing     print a per-phase wall-clock section on stdout (with a
               per-log campaigns breakdown and cache-effectiveness counts)
  --cache DIR  persist simulated cells to DIR and reuse them across runs
               (a repeated run over unchanged workloads simulates nothing;
               a killed run resumes). The directory is never trimmed:
               `rm -r DIR` is how it shrinks
  --progress   per-cell progress lines on stderr (`progress: campaign
               KTH-SP2 [17/130] ... — simulated in 12.4s`); redirect
               stderr to a file to get a resume journal
  --list       print every registered scheduler/predictor/correction name

SCENARIO OPTIONS (imply the scenario experiment when no other is named)
  --swf FILE      simulate this SWF log instead of a synthetic preset
  --log NAME      synthetic Table 4 preset (prefix match; default KTH-SP2)
  --scheduler S   e.g. easy, easy-sjbf, fcfs, conservative  (default easy)
  --predictor P   e.g. requested, ave2, clairvoyant,
                  ml(u=lin,o=sq,g=area) or ml:u=lin,o=sq,g=area
                  (default requested)
  --correction C  e.g. req-time, incremental, rec-doubling  (default none)
  --cluster SPEC  place the workload on an explicit cluster: `64` is one
                  homogeneous 64-processor machine (the legacy model);
                  `cluster:64x1+32x0.5` is two ordered partitions — 64
                  full-speed processors, then 32 at half speed — routed
                  first-fit (default: the workload's own machine)

SERVE OPTIONS (imply the serve experiment when no other is named)
  --listen ADDR  bind address (default 127.0.0.1:0 — an ephemeral port,
                 printed on stderr once the daemon is up). The daemon runs
                 --threads simulation workers (default 2) and queues up
                 to 16 submissions before answering `busy`

ENVIRONMENT
  REPRO_FAULTS  seeded deterministic fault injection for robustness
                testing, e.g. `seed=42,cache.read:p=0.05,cell.panic:max=1`.
                Clause grammar: `seed=N` or
                `site[:p=F][:max=N][:after=N][:kind=transient|hard]`.
                Sites: cache.read, cache.write, cache.rename,
                cache.remove, serve.read, serve.write, swf.read,
                cell.panic; an unknown site or a malformed plan is an
                error (exit 2). Artifacts stay
                byte-identical to a fault-free run (the hardening under
                test); absorbed faults show up in the cache summary
                counters (disk_retries, degraded, panicked_cells).
                Unset (the default) = zero-overhead passthrough.

Ctrl-C drains the daemon (in-flight jobs cancel cooperatively). A batch
run can be killed at any point: every cell already simulated is a
complete file in the --cache directory, and the relaunch resumes there.
";
