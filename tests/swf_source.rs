//! SWF round-trip fixture: a synthetic workload written out with
//! `swf::writer` and loaded back through [`SwfSource`] must simulate to
//! the *byte-identical* engine outcome as the in-memory jobs — the
//! guarantee that makes the SWF loader path a drop-in workload source
//! for every experiment.

use predictsim::prelude::*;
use predictsim::swf::write_log;

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
