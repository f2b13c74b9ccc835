//! Large-workload engine throughput: one full simulation of a deep,
//! high-utilization trace per iteration — the regime the §6 campaigns
//! and full-scale SWF replays live in, where queue depth and running-set
//! size make the kernel's indexed state, incremental availability
//! profile, and allocation-free scheduler passes matter.
//!
//! The recorded numbers (jobs simulated per second, plus an 8-way
//! campaign-style fan-out at pool widths 1 and 8) land in the
//! engine-throughput table of `EXPERIMENTS.md`. CI only compiles this
//! bench (its wall-time smoke job gave way to `bench/smoke.sh`'s exact
//! pins); `ENGINE_LARGE_SMOKE=1` cuts sampling to 2 for a quick local
//! run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use predictsim_bench::large_workload;
use predictsim_sim::predict::{ClairvoyantPredictor, RequestedTimePredictor};
use predictsim_sim::scheduler::{ConservativeScheduler, EasyScheduler};
use predictsim_sim::simulate;

fn smoke_samples(full: usize) -> usize {
    if std::env::var_os("ENGINE_LARGE_SMOKE").is_some() {
        2
    } else {
        full
    }
}

fn engine_large(c: &mut Criterion) {
    let w = large_workload();
    let cfg = w.sim_config();
    let jobs = w.jobs.len() as u64;

    let mut g = c.benchmark_group("engine_large");
    g.sample_size(smoke_samples(10));
    g.throughput(criterion::Throughput::Elements(jobs));
    g.bench_function("easy_sjbf_clairvoyant", |b| {
        b.iter(|| {
            let mut sched = EasyScheduler::sjbf();
            let mut pred = ClairvoyantPredictor;
            std::hint::black_box(simulate(&w.jobs, cfg, &mut sched, &mut pred, None).unwrap())
        })
    });
    g.bench_function("easy_sjbf_requested", |b| {
        b.iter(|| {
            let mut sched = EasyScheduler::sjbf();
            let mut pred = RequestedTimePredictor;
            std::hint::black_box(simulate(&w.jobs, cfg, &mut sched, &mut pred, None).unwrap())
        })
    });
    g.bench_function("conservative_clairvoyant", |b| {
        b.iter(|| {
            let mut sched = ConservativeScheduler::new();
            let mut pred = ClairvoyantPredictor;
            std::hint::black_box(simulate(&w.jobs, cfg, &mut sched, &mut pred, None).unwrap())
        })
    });

    // Scratch health on this workload: warm passes must not reallocate,
    // and the EASY tie fallback must stay rare (printed, not asserted —
    // the test suite pins the invariant).
    let mut sched = EasyScheduler::sjbf();
    let mut pred = ClairvoyantPredictor;
    simulate(&w.jobs, cfg, &mut sched, &mut pred, None).unwrap();
    let s = sched.stats();
    eprintln!(
        "engine_large scheduler stats: {} passes, {} reallocating, {} slow (tie fallback)",
        s.passes, s.reallocating_passes, s.slow_passes
    );
    g.finish();
}

/// Campaign-style fan-out of the large simulation across the thread
/// pool: 8 independent EASY-SJBF runs at widths 1 and 8. Jobs/sec here
/// is aggregate engine throughput, the number the multi-log campaigns
/// and policy sweeps see.
fn engine_large_fanout(c: &mut Criterion) {
    use rayon::prelude::*;
    let w = large_workload();
    let cfg = w.sim_config();
    let runs = 8usize;

    let mut g = c.benchmark_group("engine_large_fanout");
    g.sample_size(smoke_samples(5));
    g.throughput(criterion::Throughput::Elements(
        w.jobs.len() as u64 * runs as u64,
    ));
    for width in [1usize, 8] {
        g.bench_with_input(BenchmarkId::new("easy_sjbf_x8", width), &width, |b, &n| {
            b.iter(|| {
                rayon::pool::with_num_threads(n, || {
                    let results: Vec<f64> = (0..runs)
                        .collect::<Vec<_>>()
                        .par_iter()
                        .map(|_| {
                            let mut sched = EasyScheduler::sjbf();
                            let mut pred = ClairvoyantPredictor;
                            simulate(&w.jobs, cfg, &mut sched, &mut pred, None)
                                .unwrap()
                                .ave_bsld()
                        })
                        .collect();
                    std::hint::black_box(results)
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, engine_large, engine_large_fanout);
criterion_main!(benches);
