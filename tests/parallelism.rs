//! The pool-size probe: `run_campaign_loaded` must demonstrably fan out
//! over more than one OS thread.
//!
//! The probe measures from outside the pool: this test binary installs a
//! global allocator that counts every thread on its first allocation.
//! An idle scoped worker allocates nothing, so the threads that start
//! allocating during the campaign are the workers that claimed cells.
//! The file deliberately contains a single test and no other parallel
//! work: integration-test files are separate processes, so no other
//! thread starts while the campaign runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use predictsim::experiments::CorrectionKind;
use predictsim::prelude::*;

/// Threads that have allocated at least once.
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SEEN: Cell<bool> = const { Cell::new(false) };
}

fn note_thread() {
    let _ = SEEN.try_with(|seen| {
        if !seen.replace(true) {
            THREADS_SEEN.fetch_add(1, Ordering::Relaxed);
        }
    });
}

struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note_thread` touches only a
// `const` thread-local and an atomic, and never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_thread();
        // SAFETY: the caller's `layout` guarantees pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_thread();
        // SAFETY: `ptr` came from `System`; the caller's guarantees pass
        // through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static THREAD_COUNTING: ThreadCounting = ThreadCounting;

#[test]
fn campaign_fans_out_across_multiple_os_threads() {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 4_000;
    spec.duration = 40 * 86_400;
    spec.utilization = 0.85;
    let w: LoadedWorkload = generate(&spec, 7).into();
    // Eight triples, several of them expensive learning simulations
    // spanning multiple OS timeslices each, so every worker has time to
    // claim work before the first one drains the queue — even on a
    // single-core machine, where participation depends on preemption.
    let triples = vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        HeuristicTriple::paper_winner(),
        HeuristicTriple::clairvoyant(Variant::Easy),
        HeuristicTriple::clairvoyant(Variant::EasySjbf),
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::e_loss()),
            correction: Some(CorrectionKind::RecursiveDoubling),
            variant: Variant::Easy,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ave2,
            correction: Some(CorrectionKind::RequestedTime),
            variant: Variant::EasySjbf,
        },
        HeuristicTriple {
            prediction: PredictionTechnique::Ml(MlConfig::new(
                AsymmetricLoss::SQUARED,
                WeightingScheme::Constant,
            )),
            correction: Some(CorrectionKind::Incremental),
            variant: Variant::EasySjbf,
        },
    ];

    let before = THREADS_SEEN.load(Ordering::Relaxed);
    let campaign = rayon::pool::with_num_threads(4, || run_campaign_loaded(&w, &triples));
    let workers = THREADS_SEEN.load(Ordering::Relaxed) - before;

    assert_eq!(campaign.results.len(), triples.len());
    assert!(
        workers >= 2,
        "expected > 1 OS worker thread to claim cells, {workers} new threads allocated"
    );

    // And the parallel run is still the sequential run, result-wise —
    // compared against a *fresh* sequential simulation, not the
    // memoized cells of the parallel run.
    predictsim::experiments::SimCache::global().clear_memory();
    let sequential = rayon::pool::with_num_threads(1, || run_campaign_loaded(&w, &triples));
    assert_eq!(campaign, sequential);
}
