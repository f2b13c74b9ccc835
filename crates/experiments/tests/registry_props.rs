//! Property tests of the policy registry: every registered name parses,
//! builds, and `Display`s back to itself; arbitrary unknown names produce
//! typed [`RegistryError`]s — never panics.

use proptest::prelude::*;

use predictsim_experiments::{
    campaign_triples, parse_cluster, parse_ml, registered_corrections, registered_predictors,
    registered_schedulers, CorrectionKind, HeuristicTriple, PredictionTechnique, RegistryError,
    Variant,
};
use predictsim_sim::{ClusterSpec, Partition};

/// A strategy over arbitrary short names drawn from the characters policy
/// names use (so collisions with real names are possible and filtered).
fn name_chars() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..40, 1..24).prop_map(|indices| {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789()=,+/-";
        indices
            .into_iter()
            .map(|i| ALPHABET[i % ALPHABET.len()] as char)
            .collect()
    })
}

proptest! {
    /// Any registered scheduler name parses, builds a scheduler whose
    /// display name matches, and round-trips through `Display`.
    #[test]
    fn registered_schedulers_round_trip(index in 0usize..4) {
        let entry = &registered_schedulers()[index];
        let variant: Variant = entry.name.parse().expect("registered scheduler parses");
        prop_assert_eq!(variant.to_string(), entry.name.clone());
        prop_assert_eq!(variant.build().name(), entry.name.clone());
    }

    /// Any registered predictor name parses, builds a predictor whose
    /// display name matches, and round-trips through `Display`.
    #[test]
    fn registered_predictors_round_trip(index in 0usize..23) {
        let entry = &registered_predictors()[index];
        let prediction: PredictionTechnique =
            entry.name.parse().expect("registered predictor parses");
        prop_assert_eq!(prediction.to_string(), entry.name.clone());
        prop_assert_eq!(prediction.build().name(), entry.name.clone());
    }

    /// Any registered correction name parses, builds, and round-trips.
    #[test]
    fn registered_corrections_round_trip(index in 0usize..3) {
        let entry = &registered_corrections()[index];
        let kind: CorrectionKind = entry.name.parse().expect("registered correction parses");
        prop_assert_eq!(kind.to_string(), entry.name.clone());
        // Building must succeed; the built policy has its own long-form
        // display name, so only existence is asserted here.
        let _policy = kind.build();
    }

    /// Every name in the §6.2 campaign grid (picked at random) parses
    /// back to the exact triple that produced it.
    #[test]
    fn campaign_triple_names_round_trip(index in 0usize..128) {
        let triples = campaign_triples();
        let triple = &triples[index];
        let parsed: HeuristicTriple = triple.name().parse().expect("campaign triple parses");
        prop_assert_eq!(&parsed, triple);
        prop_assert_eq!(parsed.to_string(), triple.name());
    }

    /// Arbitrary names never panic the parsers: they either resolve to a
    /// registered policy (and then round-trip) or return the matching
    /// typed error.
    #[test]
    fn arbitrary_names_parse_or_fail_typed(name in name_chars()) {
        match name.parse::<Variant>() {
            Ok(v) => prop_assert_eq!(v.to_string(), name.clone()),
            Err(RegistryError::UnknownScheduler(n)) => prop_assert_eq!(n, name.clone()),
            Err(other) => return Err(TestCaseError::fail(format!("wrong error {other:?}"))),
        }
        match name.parse::<CorrectionKind>() {
            // Aliases (`requested-time`, `recursive-doubling`) canonicalize.
            Ok(c) => prop_assert!(
                c.to_string() == name || matches!(name.as_str(), "requested-time" | "recursive-doubling")
            ),
            Err(RegistryError::UnknownCorrection(n)) => prop_assert_eq!(n, name.clone()),
            Err(other) => return Err(TestCaseError::fail(format!("wrong error {other:?}"))),
        }
        match name.parse::<PredictionTechnique>() {
            Ok(p) => {
                // The colon form canonicalizes to the display form; both
                // parse back to the same technique.
                let display = p.to_string();
                let reparsed: PredictionTechnique =
                    display.parse().expect("display form parses");
                prop_assert_eq!(reparsed, p);
            }
            Err(RegistryError::UnknownPredictor(n)) => prop_assert_eq!(n, name.clone()),
            Err(RegistryError::MalformedMl { spec, .. }) => {
                prop_assert_eq!(spec, name.clone());
                prop_assert!(name.starts_with("ml(") || name.starts_with("ml:"));
            }
            Err(other) => return Err(TestCaseError::fail(format!("wrong error {other:?}"))),
        }
        // Triple parsing composes the three parsers; same guarantee.
        match name.parse::<HeuristicTriple>() {
            Ok(t) => {
                let reparsed: HeuristicTriple = t.name().parse().expect("round trip");
                prop_assert_eq!(reparsed, t);
            }
            Err(_typed) => {} // any RegistryError variant is acceptable
        }
    }

    /// Any valid cluster — 1 to 8 partitions, assorted sizes and speeds
    /// (speed 1.0 included, so the legacy single-homogeneous display form
    /// `cluster:<n>` is exercised) — round-trips through its canonical
    /// `Display` form via the registry parser.
    #[test]
    fn cluster_specs_round_trip(
        parts in prop::collection::vec((1u32..=512, 0usize..5), 1..9)
    ) {
        const SPEEDS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];
        let partitions: Vec<Partition> = parts
            .into_iter()
            .map(|(size, speed)| Partition {
                size,
                speed: SPEEDS[speed],
            })
            .collect();
        let spec = ClusterSpec::from_partitions(&partitions).expect("valid partitions");
        let display = spec.to_string();
        let reparsed = parse_cluster(&display).expect("canonical form parses");
        prop_assert_eq!(reparsed, spec);
        prop_assert_eq!(reparsed.to_string(), display);
    }

    /// The legacy shorthand — a bare processor count — always parses to
    /// the single homogeneous machine.
    #[test]
    fn legacy_machine_size_shorthand_parses(procs in 1u32..1_000_000) {
        let spec = parse_cluster(&procs.to_string()).expect("bare count parses");
        prop_assert_eq!(spec, ClusterSpec::single(procs));
        prop_assert!(spec.is_single_homogeneous());
        prop_assert_eq!(parse_cluster(&spec.to_string()).expect("round trip"), spec);
    }

    /// Arbitrary strings never panic the cluster parser: they resolve to
    /// a spec that round-trips, or fail with `MalformedCluster`.
    #[test]
    fn arbitrary_cluster_specs_parse_or_fail_typed(name in name_chars()) {
        match parse_cluster(&name) {
            Ok(spec) => {
                prop_assert_eq!(parse_cluster(&spec.to_string()).expect("canonical"), spec);
            }
            Err(RegistryError::MalformedCluster { spec, .. }) => {
                prop_assert_eq!(spec, name.clone());
            }
            Err(other) => return Err(TestCaseError::fail(format!("wrong error {other:?}"))),
        }
    }

    /// Fuzzed `ml(...)` bodies never panic: they parse to a config that
    /// round-trips, or fail with `MalformedMl`.
    #[test]
    fn fuzzed_ml_specs_parse_or_fail_typed(body in name_chars(), colon in 0u8..2) {
        let spec = if colon == 0 {
            format!("ml({body})")
        } else {
            format!("ml:{body}")
        };
        match parse_ml(&spec) {
            Ok(cfg) => prop_assert_eq!(parse_ml(&cfg.name()).expect("canonical form"), cfg),
            Err(RegistryError::MalformedMl { spec: s, .. }) => prop_assert_eq!(s, spec),
            Err(other) => return Err(TestCaseError::fail(format!("wrong error {other:?}"))),
        }
    }
}
