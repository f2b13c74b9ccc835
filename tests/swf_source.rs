//! SWF round-trip fixture: a synthetic workload written out with
//! `swf::writer` and loaded back through [`SwfSource`] must simulate to
//! the *byte-identical* engine outcome as the in-memory jobs — the
//! guarantee that makes the SWF loader path a drop-in workload source
//! for every experiment. And what the loader makes of a dirty log is
//! clean: every job is simulatable, and a clean log loads unchanged.

use predictsim::prelude::*;
use predictsim::swf::{write_log, SwfHeader, SwfLog, SwfRecord, MISSING};
use proptest::prelude::*;

fn fixture_workload() -> GeneratedWorkload {
    let mut spec = WorkloadSpec::toy();
    spec.jobs = 400;
    spec.duration = 4 * 86_400;
    spec.utilization = 0.85;
    generate(&spec, 20150101)
}

fn triples_under_test() -> Vec<HeuristicTriple> {
    vec![
        HeuristicTriple::standard_easy(),
        HeuristicTriple::easy_plus_plus(),
        // The ML path exercises per-user features, so the user-id
        // round trip matters here.
        HeuristicTriple::paper_winner(),
    ]
}

#[test]
fn swf_written_workload_round_trips_to_identical_jobs() {
    let w = fixture_workload();
    let text = write_log(&w.to_swf());
    let loaded = SwfSource::from_text(w.name.clone(), text).load().unwrap();
    assert_eq!(loaded.machine_size, w.machine_size);
    assert_eq!(
        &loaded.jobs[..],
        &w.jobs[..],
        "write_log → SwfSource must reproduce every job field (id, submit, \
         run, requested, procs, user, swf_id)"
    );
    let report = loaded.cleaning.expect("SWF path reports cleaning");
    assert_eq!(report.kept, w.jobs.len(), "cleaning must drop nothing");
    assert_eq!(report.dropped_unrunnable + report.dropped_oversize, 0);
}

#[test]
fn swf_source_simulates_byte_identically_to_in_memory_workload() {
    let w = fixture_workload();
    let text = write_log(&w.to_swf());
    let loaded = SwfSource::from_text(w.name.clone(), text).load().unwrap();

    for triple in triples_under_test() {
        let direct = Scenario::from_triple(&triple)
            .run_on(&w.jobs, w.sim_config())
            .expect("direct simulation");
        let via_swf = Scenario::from_triple(&triple)
            .run_on(&loaded.jobs, loaded.sim_config())
            .expect("SWF-path simulation");
        assert_eq!(
            direct,
            via_swf,
            "{}: SWF-loaded workload must yield the identical SimResult",
            triple.name()
        );
        // Field equality is the semantic contract; the rendered form
        // pins the "byte-identical" phrasing directly.
        assert_eq!(format!("{direct:?}"), format!("{via_swf:?}"));
    }
}

#[test]
fn swf_file_on_disk_behaves_like_the_text_fixture() {
    let w = fixture_workload();
    let path = std::env::temp_dir().join("predictsim_swf_source_fixture.swf");
    std::fs::write(&path, write_log(&w.to_swf())).expect("write fixture");
    let loaded = SwfSource::new(&path).load().expect("file-backed load");
    std::fs::remove_file(&path).ok();
    let triple: HeuristicTriple = "ave2+incremental+easy-sjbf"
        .parse()
        .expect("registry names resolve");
    let via_file = Scenario::from_triple(&triple)
        .run_on(&loaded.jobs, loaded.sim_config())
        .expect("file-backed scenario");

    let direct = Scenario::from_triple(&HeuristicTriple::easy_plus_plus())
        .run_on(&w.jobs, w.sim_config())
        .expect("direct simulation");
    assert_eq!(direct, via_file);
}

/// Strategy producing an arbitrary but structurally valid SWF record.
fn arb_record() -> impl Strategy<Value = SwfRecord> {
    (
        0u64..1_000_000,
        0i64..10_000_000,
        prop_oneof![Just(MISSING), 0i64..1_000_000],
        prop_oneof![Just(MISSING), 1i64..100_000],
        prop_oneof![Just(MISSING), 1i64..100_000],
        prop_oneof![Just(MISSING), 1i64..2_000_000],
        prop_oneof![Just(MISSING), 0i64..10_000],
    )
        .prop_map(
            |(job_id, submit, run, alloc, req_procs, req_time, user)| SwfRecord {
                submit_time: submit,
                run_time: run,
                allocated_procs: alloc,
                requested_procs: req_procs,
                requested_time: req_time,
                status: 1,
                user_id: user,
                ..SwfRecord::empty(job_id)
            },
        )
}

/// Loads `records` on a 1024-processor machine.
fn load(records: Vec<SwfRecord>) -> LoadedWorkload {
    let log = SwfLog {
        header: SwfHeader::synthetic(1024, "dirty"),
        records,
    };
    SwfSource::from_text("dirty", write_log(&log))
        .load()
        .expect("a parsed log of small values loads")
}

/// Writes a loaded workload back out the way a generated one is
/// exported ([`GeneratedWorkload::to_swf`], which writes no statistics).
fn export(w: &LoadedWorkload) -> String {
    let generated = GeneratedWorkload {
        name: w.name.clone(),
        machine_size: w.machine_size,
        jobs: w.jobs.to_vec(),
        stats: fixture_workload().stats,
    };
    write_log(&generated.to_swf())
}

proptest! {
    /// Cleaning is idempotent: a loaded log, exported and loaded again,
    /// has nothing left to drop, repair or reorder, and gives the same
    /// jobs.
    #[test]
    fn cleaning_is_idempotent(records in prop::collection::vec(arb_record(), 0..50)) {
        let first = load(records);
        let again = SwfSource::from_text("dirty", export(&first)).load().expect("reload");
        let report = again.cleaning.expect("SWF path reports cleaning");
        prop_assert_eq!(report.dropped_unrunnable, 0);
        prop_assert_eq!(report.dropped_oversize, 0);
        prop_assert_eq!(report.repaired_estimates, 0);
        prop_assert_eq!(report.repaired_inversions, 0);
        prop_assert!(!report.reordered);
        prop_assert_eq!(report.kept, first.jobs.len());
        prop_assert_eq!(&again.jobs[..], &first.jobs[..]);
    }

    /// Every loaded job is simulatable and consistent: positive run
    /// time, procs within the machine, requested ≥ run, submit order.
    #[test]
    fn cleaned_records_are_simulatable(records in prop::collection::vec(arb_record(), 0..50)) {
        let w = load(records);
        for job in w.jobs.iter() {
            prop_assert!(job.run >= 1);
            prop_assert!((1..=w.machine_size).contains(&job.procs));
            prop_assert!(job.requested >= job.run, "requested {} < run {}", job.requested, job.run);
        }
        for pair in w.jobs.windows(2) {
            prop_assert!(pair[0].submit <= pair[1].submit);
        }
    }
}
