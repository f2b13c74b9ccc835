//! `BENCHMARK.json` at the repo root must say what `spec.rs` says, and
//! stay inside the limits its consumer enforces.

use predictsim_perfbench::spec::{
    is_measured, END_TO_END, LATENCY_WORKLOAD, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use serde::{get_field, Value};

fn text(value: &Value, name: &str) -> String {
    get_field(value, name).unwrap_or_else(|e| panic!("{e}"))
}

fn items(value: &Value, name: &str) -> Vec<Value> {
    get_field(value, name).unwrap_or_else(|e| panic!("{e}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_renders_the_spec_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(raw.len() <= 64 * 1024);
    let json: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");

    assert_eq!(get_field::<u64>(&json, "run_seconds"), Ok(RUN_SECONDS));
    assert_eq!(items(&json, "paths"), [Value::Str("bench".into())]);

    let workloads = items(&json, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(valid_name(spec.name));
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
    }

    let end_to_end = items(&json, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.as_str());
        assert_eq!(get_field::<f64>(entry, "bound"), Ok(spec.bound));
        assert!(spec.bound > 0.0 && spec.bound <= 0.25);
        assert!(valid_name(spec.name) && valid_unit(spec.unit));
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    assert!(WORKLOADS.iter().any(|w| w.name == LATENCY_WORKLOAD));
    let stand_ins = |workload| {
        END_TO_END
            .iter()
            .filter(|m| !is_measured(workload, m.name))
            .count()
    };
    assert_eq!(stand_ins(LATENCY_WORKLOAD), 0);
    assert_eq!(stand_ins("campaign_cold"), 2);

    let per_layer = items(&json, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit);
        assert_eq!(text(entry, "better"), spec.better.as_str());
        assert!(
            valid_name(spec.name) && valid_unit(spec.unit),
            "{}",
            spec.name
        );
    }
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}
