//! `serve_mix`: the only workload where a person waits on one cell.
//!
//! An in-process `Server::start` (2 workers, queue 16, no persist dir)
//! and 2 closed-loop, persistent `serve::Client` connections. The cell
//! set is 16 triples sampled from `campaign_triples()` by the seed ×
//! {KTH@0.25, CTC-SP2@0.1}, half per client. A round = barrier →
//! `SimCache::global().clear_memory()` → each client requests its 16
//! cells once (cold, on memoized workloads) and then four more times
//! (memory hits): 32 misses + 128 hits, 20/80 by construction. Every
//! request crosses protocol parse, registry parse, queue admission,
//! worker hand-off, cache lookup, frame write and the transport.

use std::sync::Barrier;
use std::time::Instant;

use predictsim_experiments::{campaign_triples, HeuristicTriple, LoadedWorkload, SimCache};
use predictsim_serve::{
    batch_result_json, build_workload, Client, Frame, ServeConfig, Server, Submission,
    WorkloadRequest,
};
use predictsim_sim::ClusterSpec;
use serde::Value;

use super::{cache_count_rows, overhead_share, splitmix64, warm_up, Checks, Ctx, Outcome, Pins};
use crate::decor::{layer_rows, push_cell_spans, run_traced_cell};
use crate::layers::probe_rows;
use crate::span::Spans;
use crate::spec::DEFAULT_SEED;
use crate::stats;

const CLIENTS: usize = 2;
/// Passes over a client's cells per round: one cold, then four warm.
const PASSES: usize = 5;
/// One round on the reference host: 80 requests per client at the
/// transport's 88 ms floor.
const ROUND_REF_S: f64 = 7.04;

/// The seeded request schedule: `triples` distinct campaign triples
/// (a partial Fisher–Yates shuffle driven by splitmix64) crossed with
/// the two presets, triple-major. Client `c` owns the indices ≡ `c`
/// (mod 2), i.e. one preset each.
pub fn request_schedule(seed: u64, triples: usize, presets: &[(&str, f64)]) -> Vec<Submission> {
    let mut pool: Vec<HeuristicTriple> = campaign_triples();
    let mut state = seed;
    let mut schedule = Vec::with_capacity(triples * presets.len());
    for i in 0..triples.min(pool.len()) {
        let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
        for &(log, scale) in presets {
            // The daemon generates presets itself, so they stay at the
            // default generator seed; here the seed picks the triples.
            let mut submission = Submission::new(WorkloadRequest::Preset {
                log: log.into(),
                scale,
                seed: DEFAULT_SEED,
            });
            submission.scheduler = Some(pool[i].variant.name().into());
            submission.predictor = Some(pool[i].prediction.name());
            submission.correction = pool[i].correction.map(|c| c.name().into());
            schedule.push(submission);
        }
    }
    schedule
}

/// Reassembles the triple a submission names.
fn triple_of(submission: &Submission) -> HeuristicTriple {
    let mut name = submission.predictor.clone().unwrap_or_default();
    for part in [&submission.correction, &submission.scheduler]
        .into_iter()
        .flatten()
    {
        name.push('+');
        name.push_str(part);
    }
    name.parse().expect("schedule holds registry names")
}

struct Setup {
    server: Server,
    clients: Vec<Client>,
    schedule: Vec<Submission>,
}

fn presets(ctx: &Ctx) -> [(&'static str, f64); 2] {
    if ctx.smoke {
        [("KTH", 0.02), ("CTC", 0.01)]
    } else {
        [("KTH", 0.25), ("CTC", 0.1)]
    }
}

fn setup(ctx: &Ctx) -> Setup {
    // Width 1: the daemon's workers are not pool threads, and a width-2
    // pool warm-up peaked at 20–23 MB, run to run, above what the daemon
    // itself needs — `peak_rss_mb` would have been the harness's.
    warm_up(ctx, 1);
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .expect("start the in-process daemon");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the daemon"))
        .collect();
    let triples = if ctx.smoke { 2 } else { 16 };
    let schedule = request_schedule(ctx.seed, triples, &presets(ctx));
    // One request per preset so the daemon's workload memo is warm: the
    // measured misses are cold cells on memoized workloads.
    for submission in schedule.iter().take(CLIENTS) {
        let _ = request(&mut clients[0], submission, ctx.epoch, 0);
    }
    Setup {
        server,
        clients,
        schedule,
    }
}

/// One request as its client saw it, on the run's clock.
struct Sample {
    submission: usize,
    round: u64,
    submit_ns: u64,
    ack_ns: u64,
    result_ns: u64,
    /// `source` of the result frame, or the error code.
    outcome: Result<String, String>,
    result: Value,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.result_ns - self.submit_ns) as f64 / 1e6
    }

    fn is_hit(&self) -> bool {
        matches!(&self.outcome, Ok(source) if source == "memory" || source == "coalesced")
    }

    fn is_miss(&self) -> bool {
        matches!(&self.outcome, Ok(source) if source == "simulated")
    }
}

/// Submits and reads frames until this job's `result` or an `error`.
fn request(client: &mut Client, submission: &Submission, epoch: Instant, index: usize) -> Sample {
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let submitted = Instant::now();
    let mut sample = Sample {
        submission: index,
        round: 0,
        submit_ns: ns(submitted),
        ack_ns: 0,
        result_ns: 0,
        outcome: Err("io".into()),
        result: Value::Null,
    };
    if client.submit(submission).is_err() {
        sample.result_ns = ns(Instant::now());
        return sample;
    }
    loop {
        let frame = client.next_frame();
        let now = ns(Instant::now());
        match frame {
            Ok(Some(Ok(Frame::Ack { .. }))) => sample.ack_ns = now,
            Ok(Some(Ok(Frame::Result { source, result, .. }))) => {
                sample.outcome = Ok(source);
                sample.result = result;
                sample.result_ns = now;
                return sample;
            }
            Ok(Some(Ok(Frame::Error { code, .. }))) => {
                sample.outcome = Err(code);
                sample.result_ns = now;
                return sample;
            }
            Ok(Some(Ok(_))) => {} // metrics frames of this job
            Ok(Some(Err(_))) | Ok(None) | Err(_) => {
                sample.result_ns = now;
                return sample;
            }
        }
    }
}

/// Runs `rounds` rounds on both clients and returns every sample.
fn run_rounds(ctx: &Ctx, setup: &mut Setup, first_round: u64, rounds: u64) -> Vec<Sample> {
    let barrier = Barrier::new(CLIENTS);
    let schedule = &setup.schedule;
    let (barrier, epoch) = (&barrier, ctx.epoch);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in first_round..first_round + rounds {
                        barrier.wait();
                        if c == 0 {
                            SimCache::global().clear_memory();
                        }
                        barrier.wait();
                        for _ in 0..PASSES {
                            for (index, submission) in schedule.iter().enumerate() {
                                if index % CLIENTS == c {
                                    let mut sample = request(client, submission, epoch, index);
                                    sample.round = round;
                                    seen.push(sample);
                                }
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("client thread"));
        }
    });
    samples
}

fn p50_ms(samples: &[&Sample]) -> f64 {
    stats::median(&samples.iter().map(|s| s.latency_ms()).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setup = setup(ctx);
    let rounds = ctx.units(ROUND_REF_S, if ctx.smoke { 1 } else { 2 });
    let mut checks = Checks::default();
    let cache = SimCache::global();

    let stats_before = cache.stats();
    let (mut samples, measured) = ctx.measure(|| run_rounds(ctx, &mut setup, 0, rounds));
    let delta = cache.stats().since(stats_before);
    let untraced = samples.len();

    // The traced run doubles the rounds: the ledger's tails need the
    // samples, and the spans are made from the same client-side clock
    // reads, so the two halves differ only by run-to-run noise.
    let mut traced_wall_s = 0.0;
    if ctx.trace {
        let started = Instant::now();
        samples.extend(run_rounds(ctx, &mut setup, rounds, rounds));
        traced_wall_s = started.elapsed().as_secs_f64();
    }

    // What was served: one batch result and one job count per submission.
    let started = Instant::now();
    let workloads: Vec<LoadedWorkload> = setup
        .schedule
        .iter()
        .take(CLIENTS)
        .map(|s| build_workload(&s.workload).expect("preset builds"))
        .collect();
    let workload_build_ms = started.elapsed().as_secs_f64() * 1e3 / workloads.len() as f64;
    let expected: Vec<String> = setup
        .schedule
        .iter()
        .map(|s| batch_result_json(s).expect("batch result"))
        .collect();

    let per_round = (setup.schedule.len() * PASSES) as u64;
    let misses_per_round = setup.schedule.len() as u64;
    let mut failed_ops = 0u64;
    let mut jobs = 0u64;
    let mut result_bytes = 0usize;
    let mut payload_mismatches = 0u64;
    for (i, sample) in samples.iter().enumerate() {
        if sample.outcome.is_err() {
            failed_ops += 1;
            continue;
        }
        if i < untraced {
            jobs += workloads[sample.submission % CLIENTS].jobs.len() as u64;
        }
        let served = serde_json::to_string_pretty(&sample.result).unwrap_or_default();
        result_bytes += served.len();
        payload_mismatches += u64::from(served != expected[sample.submission]);
    }
    checks.check(payload_mismatches == 0, || {
        format!("{payload_mismatches} result payloads differ from batch_result_json")
    });
    let total_rounds = if ctx.trace { 2 * rounds } else { rounds };
    for round in 0..total_rounds {
        let of_round = || samples.iter().filter(move |s| s.round == round);
        let misses = of_round().filter(|s| s.is_miss()).count() as u64;
        let hits = of_round().filter(|s| s.is_hit()).count() as u64;
        checks.check(
            misses == misses_per_round && hits == per_round - misses_per_round,
            || format!("round {round}: {misses} simulated / {hits} memory-or-coalesced"),
        );
    }
    for sample in samples.iter().filter(|s| s.outcome.is_err()) {
        eprintln!(
            "request {} of round {} failed: {:?}",
            sample.submission, sample.round, sample.outcome
        );
    }

    let measured_samples = &samples[..untraced];
    let hits: Vec<&Sample> = measured_samples.iter().filter(|s| s.is_hit()).collect();
    let misses: Vec<&Sample> = measured_samples.iter().filter(|s| s.is_miss()).collect();
    let (hit_p50_ms, miss_p50_ms) = (p50_ms(&hits), p50_ms(&misses));
    let mut notes = vec![
        ("rounds".to_string(), rounds as f64),
        ("hit_samples".to_string(), hits.len() as f64),
        ("miss_samples".to_string(), misses.len() as f64),
    ];

    let mut ledger = Vec::new();
    let mut spans = Spans::default();
    if ctx.trace {
        for sample in &samples {
            let id = spans.new_cell();
            let root = spans.push(
                id,
                None,
                "serve.request",
                sample.submit_ns,
                sample.result_ns,
            );
            if sample.ack_ns > 0 {
                spans.push(
                    id,
                    Some(root),
                    "serve.ack_wait",
                    sample.submit_ns,
                    sample.ack_ns,
                );
                spans.push(
                    id,
                    Some(root),
                    "serve.result_wait",
                    sample.ack_ns,
                    sample.result_ns,
                );
            }
        }
        // Pure transport: ping → pong on a connection already in use.
        let pings = ctx.probe_reps(30);
        let mut ping_ms = Vec::new();
        for _ in 0..pings {
            let started = Instant::now();
            let ponged = setup.clients[0].ping().is_ok()
                && matches!(setup.clients[0].next_frame(), Ok(Some(Ok(Frame::Pong))));
            checks.check(ponged, || "ping was not answered with pong".into());
            ping_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let mut connect_ms = Vec::new();
        for _ in 0..ctx.probe_reps(20) {
            let started = Instant::now();
            let connected = Client::connect(setup.server.addr()).is_ok();
            connect_ms.push(started.elapsed().as_secs_f64() * 1e3);
            checks.check(connected, || "fresh connection refused".into());
        }
        // The round's 32 cold cells once more, decorated, for the
        // sim / core rows behind `miss_p50_ms`.
        let mut traced_cells = Vec::new();
        for (index, submission) in setup.schedule.iter().enumerate() {
            let workload = &workloads[index % CLIENTS];
            let cluster = ClusterSpec::single(workload.machine_size);
            match run_traced_cell(ctx.epoch, &triple_of(submission), &workload.jobs, cluster) {
                Ok(cell) => {
                    let pretty = serde_json::to_string_pretty(&cell.result).unwrap_or_default();
                    checks.check(cell.verified && pretty == expected[index], || {
                        format!("traced cell {index} fails audit or differs from batch")
                    });
                    traced_cells.push(cell);
                }
                Err(e) => checks.check(false, || format!("traced cell {index}: {e}")),
            }
        }
        for cell in &traced_cells {
            push_cell_spans(&mut spans, cell);
        }

        let all_hits: Vec<f64> = samples
            .iter()
            .filter(|s| s.is_hit())
            .map(Sample::latency_ms)
            .collect();
        let all_misses: Vec<f64> = samples
            .iter()
            .filter(|s| s.is_miss())
            .map(Sample::latency_ms)
            .collect();
        let ack_ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.ack_ns > 0)
            .map(|s| (s.ack_ns - s.submit_ns) as f64 / 1e6)
            .collect();
        let (hit_tail_pct, hit_tail) = stats::tail(&all_hits, 95.0);
        let (miss_tail_pct, miss_tail) = stats::tail(&all_misses, 90.0);
        let ping_p50 = stats::median(&ping_ms);
        let served = samples.iter().filter(|s| s.outcome.is_ok()).count().max(1);
        let busy = samples
            .iter()
            .filter(|s| matches!(&s.outcome, Err(code) if code == "busy"))
            .count();
        ledger.extend(layer_rows(&traced_cells));
        ledger.extend(cache_count_rows(&delta));
        ledger.extend(probe_rows(ctx, &mut checks));
        ledger.extend([
            ("serve.requests", samples.len() as f64),
            ("serve.rounds", total_rounds as f64),
            ("serve.ping_p50_ms", ping_p50),
            ("serve.ack_p50_ms", stats::median(&ack_ms)),
            ("serve.hit_p50_ms", stats::median(&all_hits)),
            ("serve.hit_p95_ms", hit_tail),
            ("serve.miss_p50_ms", stats::median(&all_misses)),
            ("serve.miss_p90_ms", miss_tail),
            ("serve.self_ms_p50", stats::median(&all_hits) - ping_p50),
            ("serve.connect_ms_p50", stats::median(&connect_ms)),
            ("serve.workload_build_ms", workload_build_ms),
            (
                "serve.result_bytes_mean",
                result_bytes as f64 / served as f64,
            ),
            ("serve.busy_rejects", busy as f64),
            ("serve.error_frames", failed_ops as f64),
            (
                "trace.overhead_share",
                overhead_share(traced_wall_s, measured.wall_s),
            ),
        ]);
        notes.extend([
            ("ledger_hit_samples".to_string(), all_hits.len() as f64),
            ("ledger_miss_samples".to_string(), all_misses.len() as f64),
            ("hit_tail_percentile".to_string(), hit_tail_pct),
            ("miss_tail_percentile".to_string(), miss_tail_pct),
        ]);
    }
    drop(setup.clients);
    setup.server.shutdown();

    let attempted = untraced as u64;
    let failed_measured = measured_samples
        .iter()
        .filter(|s| s.outcome.is_err())
        .count() as u64;
    Outcome {
        measured,
        jobs,
        hit_p50_ms: Some(hit_p50_ms),
        miss_p50_ms: Some(miss_p50_ms),
        attempted,
        failed_ops: failed_measured,
        checks,
        pins: Pins::default(),
        ledger,
        spans,
        notes,
    }
}
