//! The string-keyed policy registry: the triple and cluster grammars,
//! [`RegistryError`], and the `repro --list` renderer.
//!
//! Every scheduling policy, prediction technique, and correction
//! mechanism in the workspace is addressable by a stable name —
//! `"easy-sjbf"`, `"ave2"`, `"ml(u=lin,o=sq,g=area)"`, `"incremental"` —
//! and every name round-trips: `parse(name).to_string() == name`. The
//! `repro` binary's `--scheduler/--predictor/--correction/--cluster`
//! flags, the serve daemon's submissions, and `repro --list` are all
//! fronts over this module.
//!
//! Each name is spelled once, in a table beside the type it names; that
//! table's type prints, parses and lists it:
//!
//! * **Schedulers**: [`Variant`]'s table (`easy`, `easy-sjbf`, `fcfs`,
//!   `conservative`).
//! * **Corrections**: [`CorrectionKind`]'s table (`req-time`,
//!   `incremental`, `rec-doubling`; `requested-time` and
//!   `recursive-doubling` parse as aliases).
//! * **Predictors**: [`PredictionTechnique`]'s three baselines
//!   (`clairvoyant`, `requested`, `ave2`), and the learning family, whose
//!   grammar is [`MlConfig`]'s `name` and `FromStr` in `predictsim-core`:
//!   the display form `ml(u=<lin|sq>,o=<lin|sq>,g=<1|q/p|p/q|small|area>)`
//!   or the colon form `ml:u=sq,o=sq,g=q/p`, optionally suffixed with
//!   `+sgd` / `+adagrad` and `+lin-basis`. The codes come from the tables
//!   of `BasisLoss`, `WeightingScheme`, `OptimizerKind` and `Basis`.
//! * **Triples** ([`HeuristicTriple`], here): `<predictor>[+<correction>]+
//!   <scheduler>`, exactly the names the campaign tables print.
//!
//! Unknown names never panic; they return a typed [`RegistryError`].

use std::str::FromStr;

use predictsim_core::{ml_grid, MlConfig};
use predictsim_sim::ClusterSpec;

use crate::triple::{CorrectionKind, HeuristicTriple, PredictionTechnique, Variant};

/// A name that failed to resolve against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Not a registered scheduler (backfilling variant) name.
    UnknownScheduler(String),
    /// Not a registered prediction-technique name.
    UnknownPredictor(String),
    /// Not a registered correction-mechanism name.
    UnknownCorrection(String),
    /// A `ml(...)` / `ml:...` spec whose body does not parse.
    MalformedMl {
        /// The offending spec, as given.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A heuristic-triple name missing its scheduler segment.
    MalformedTriple(String),
    /// A `--cluster` spec that does not parse as a [`ClusterSpec`].
    MalformedCluster {
        /// The offending spec, as given.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownScheduler(name) => {
                write!(f, "unknown scheduler {name:?} (try `repro --list`)")
            }
            RegistryError::UnknownPredictor(name) => {
                write!(f, "unknown predictor {name:?} (try `repro --list`)")
            }
            RegistryError::UnknownCorrection(name) => {
                write!(f, "unknown correction {name:?} (try `repro --list`)")
            }
            RegistryError::MalformedMl { spec, reason } => {
                write!(f, "malformed ml spec {spec:?}: {reason}")
            }
            RegistryError::MalformedTriple(name) => {
                write!(
                    f,
                    "malformed triple {name:?}: expected <predictor>[+<correction>]+<scheduler>"
                )
            }
            RegistryError::MalformedCluster { spec, reason } => {
                write!(
                    f,
                    "malformed cluster {spec:?}: {reason} \
                     (expected `<procs>` or `cluster:<size>[x<speed>][+<size>[x<speed>]...]`)"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl FromStr for HeuristicTriple {
    type Err = RegistryError;

    /// Parses a campaign triple name such as
    /// `"ml(u=lin,o=sq,g=area)+incremental+easy-sjbf"`.
    ///
    /// The last `+`-segment is the scheduler; the segment before it is
    /// taken as the correction when it parses as one (predictor names may
    /// themselves contain `+` — `"ml(...)+sgd"` — so segments that are
    /// not corrections fold back into the predictor).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let malformed = || RegistryError::MalformedTriple(s.to_string());
        let (rest, scheduler) = s.rsplit_once('+').ok_or_else(malformed)?;
        let variant = scheduler.parse().map_err(|_| malformed())?;
        let (prediction, correction) = match rest.rsplit_once('+') {
            Some((head, tail)) => match tail.parse() {
                Ok(kind) => (head, Some(kind)),
                Err(_) => (rest, None),
            },
            None => (rest, None),
        };
        Ok(HeuristicTriple {
            prediction: prediction.parse()?,
            correction,
            variant,
        })
    }
}

/// Parses a learning-configuration spec (see [`MlConfig`]'s `FromStr`
/// for the grammar): the display form `ml(u=..,o=..,g=..)` or the colon
/// form `ml:u=..,o=..,g=..`, each with optional `+sgd`/`+adagrad` and
/// `+lin-basis` suffixes.
pub fn parse_ml(spec: &str) -> Result<MlConfig, RegistryError> {
    spec.parse().map_err(|reason| RegistryError::MalformedMl {
        spec: spec.to_string(),
        reason,
    })
}

/// Resolves the three policy names of a scenario into a triple — the
/// one place that knows the defaults: an unset name is the standard
/// EASY configuration (scheduler `easy`, predictor `requested`, no
/// correction).
pub fn parse_triple(
    scheduler: Option<&str>,
    predictor: Option<&str>,
    correction: Option<&str>,
) -> Result<HeuristicTriple, RegistryError> {
    Ok(HeuristicTriple {
        prediction: match predictor {
            Some(name) => name.parse()?,
            None => PredictionTechnique::RequestedTime,
        },
        correction: correction.map(str::parse).transpose()?,
        variant: match scheduler {
            Some(name) => name.parse()?,
            None => Variant::Easy,
        },
    })
}

/// Parses a cluster spec — the legacy `"64"` shorthand or the
/// `"cluster:64x1+32x0.5"` grammar (see [`ClusterSpec`]) — into a typed
/// value, folding parse failures into a [`RegistryError`] like every
/// other registry name. The parsed spec round-trips through
/// [`ClusterSpec`]'s canonical `Display` form.
pub fn parse_cluster(spec: &str) -> Result<ClusterSpec, RegistryError> {
    spec.parse::<ClusterSpec>()
        .map_err(|e| RegistryError::MalformedCluster {
            spec: spec.to_string(),
            reason: e.to_string(),
        })
}

/// One registry row: a canonical policy name and a one-line description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyEntry {
    /// Canonical (round-tripping) name.
    pub name: String,
    /// One-line human description.
    pub description: String,
}

/// The registered schedulers (backfilling variants, §5.1).
pub fn registered_schedulers() -> Vec<PolicyEntry> {
    entries(&Variant::TABLE).collect()
}

/// The registered prediction techniques (§6.2): the three baselines plus
/// the 20 learning configurations of the Table 5 grid.
pub fn registered_predictors() -> Vec<PolicyEntry> {
    let grid = ml_grid().into_iter().map(|cfg| PolicyEntry {
        name: cfg.name(),
        description: format!(
            "NAG-trained polynomial regression, {} loss, g={} weight (Table 5)",
            cfg.loss.code(),
            cfg.weighting.code()
        ),
    });
    entries(&PredictionTechnique::BASELINES)
        .chain(grid)
        .collect()
}

/// The registered correction mechanisms (§5.2).
pub fn registered_corrections() -> Vec<PolicyEntry> {
    entries(&CorrectionKind::TABLE).collect()
}

/// The rows of a `(value, name, description)` table.
fn entries<T>(table: &'static [(T, &str, &str)]) -> impl Iterator<Item = PolicyEntry> {
    table.iter().map(|&(_, name, description)| PolicyEntry {
        name: name.into(),
        description: description.into(),
    })
}

/// Renders the whole registry as the `repro --list` inventory.
pub fn render_registry() -> String {
    let section = |title: &str, entries: &[PolicyEntry]| {
        let mut out = format!("## {title}\n\n");
        for e in entries {
            out.push_str(&format!("  {:<28} {}\n", e.name, e.description));
        }
        out.push('\n');
        out
    };
    let mut out = String::from("# Registered policies\n\n");
    out.push_str(&section("Schedulers", &registered_schedulers()));
    out.push_str(&section("Predictors", &registered_predictors()));
    out.push_str(&section("Corrections", &registered_corrections()));
    out.push_str(
        "Combine as `<predictor>[+<correction>]+<scheduler>` (a heuristic triple),\n\
         e.g. `ml(u=lin,o=sq,g=area)+incremental+easy-sjbf`. The colon form\n\
         `ml:u=lin,o=sq,g=area` is accepted anywhere the display form is.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_core::{Basis, OptimizerKind};

    #[test]
    fn schedulers_round_trip() {
        for entry in registered_schedulers() {
            let v: Variant = entry.name.parse().expect("registered name parses");
            assert_eq!(v.to_string(), entry.name);
        }
    }

    #[test]
    fn corrections_round_trip_and_aliases_resolve() {
        for entry in registered_corrections() {
            let c: CorrectionKind = entry.name.parse().expect("registered name parses");
            assert_eq!(c.to_string(), entry.name);
        }
        assert_eq!(
            "requested-time".parse::<CorrectionKind>().unwrap(),
            CorrectionKind::RequestedTime
        );
        assert_eq!(
            "recursive-doubling".parse::<CorrectionKind>().unwrap(),
            CorrectionKind::RecursiveDoubling
        );
    }

    #[test]
    fn predictors_round_trip() {
        for entry in registered_predictors() {
            let p: PredictionTechnique = entry.name.parse().expect("registered name parses");
            assert_eq!(p.to_string(), entry.name);
        }
    }

    #[test]
    fn colon_form_is_equivalent_to_display_form() {
        let a: PredictionTechnique = "ml:u=sq,o=sq,g=q/p".parse().unwrap();
        let b: PredictionTechnique = "ml(u=sq,o=sq,g=q/p)".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "ml(u=sq,o=sq,g=q/p)");
    }

    #[test]
    fn ml_suffixes_parse_in_both_forms() {
        let cfg = parse_ml("ml(u=lin,o=sq,g=area)+sgd+lin-basis").unwrap();
        assert_eq!(cfg.optimizer, OptimizerKind::Sgd);
        assert_eq!(cfg.basis, Basis::Linear);
        let colon = parse_ml("ml:u=lin,o=sq,g=area+adagrad").unwrap();
        assert_eq!(colon.optimizer, OptimizerKind::AdaGrad);
        // Round trip through the display name.
        assert_eq!(parse_ml(&cfg.name()).unwrap(), cfg);
    }

    #[test]
    fn triples_round_trip() {
        for triple in [
            HeuristicTriple::standard_easy(),
            HeuristicTriple::easy_plus_plus(),
            HeuristicTriple::paper_winner(),
            HeuristicTriple::clairvoyant(Variant::EasySjbf),
        ] {
            let parsed: HeuristicTriple = triple.name().parse().expect("triple name parses");
            assert_eq!(parsed, triple);
            assert_eq!(parsed.to_string(), triple.name());
        }
    }

    #[test]
    fn defaults_are_standard_easy() {
        let defaults = parse_triple(None, None, None).unwrap();
        assert_eq!(defaults, HeuristicTriple::standard_easy());
        assert_eq!(defaults.name(), "requested+easy");
    }

    #[test]
    fn every_campaign_triple_round_trips() {
        for triple in crate::triple::campaign_triples() {
            let parsed: HeuristicTriple = triple.name().parse().expect("campaign name parses");
            assert_eq!(parsed, triple, "{}", triple.name());
        }
    }

    #[test]
    fn unknown_names_give_typed_errors() {
        assert!(matches!(
            "sjf".parse::<Variant>(),
            Err(RegistryError::UnknownScheduler(_))
        ));
        assert!(matches!(
            "oracle".parse::<PredictionTechnique>(),
            Err(RegistryError::UnknownPredictor(_))
        ));
        assert!(matches!(
            "triple-doubling".parse::<CorrectionKind>(),
            Err(RegistryError::UnknownCorrection(_))
        ));
        assert!(matches!(
            "just-one-segment".parse::<HeuristicTriple>(),
            Err(RegistryError::MalformedTriple(_))
        ));
        assert!(matches!(
            "ml(u=cubic,o=sq,g=area)".parse::<PredictionTechnique>(),
            Err(RegistryError::MalformedMl { .. })
        ));
        assert!(matches!(
            parse_ml("ml(u=lin,o=sq)"),
            Err(RegistryError::MalformedMl { .. })
        ));
        assert!(matches!(
            parse_ml("ml(u=lin,o=sq,g=area"),
            Err(RegistryError::MalformedMl { .. })
        ));
        let err = "sjf".parse::<Variant>().unwrap_err();
        assert!(err.to_string().contains("sjf"));
    }

    #[test]
    fn cluster_specs_round_trip_through_the_registry() {
        // Legacy shorthand: a bare processor count is the single
        // homogeneous machine, displayed canonically as `cluster:<n>`.
        let legacy = parse_cluster("64").unwrap();
        assert_eq!(legacy, ClusterSpec::single(64));
        assert_eq!(legacy.to_string(), "cluster:64");
        assert_eq!(parse_cluster(&legacy.to_string()).unwrap(), legacy);
        // Heterogeneous forms round-trip through the canonical display.
        for spec in ["cluster:64x1+32x0.5", "cluster:16x2", "cluster:8+8+8"] {
            let parsed = parse_cluster(spec).unwrap();
            assert_eq!(parse_cluster(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn malformed_cluster_specs_give_typed_errors() {
        for bad in [
            "",
            "cluster:",
            "cluster:0",
            "cluster:8x-1",
            "cluster:8xfast",
            "potato",
        ] {
            let err = parse_cluster(bad).unwrap_err();
            assert!(
                matches!(err, RegistryError::MalformedCluster { .. }),
                "{bad:?} must be MalformedCluster, got {err:?}"
            );
            assert!(err.to_string().contains("malformed cluster"));
        }
        // Too many partitions is rejected, not truncated.
        let wide = format!("cluster:{}", ["4"; 9].join("+"));
        assert!(matches!(
            parse_cluster(&wide),
            Err(RegistryError::MalformedCluster { .. })
        ));
    }

    #[test]
    fn registry_rendering_lists_everything() {
        let listing = render_registry();
        assert!(listing.contains("easy-sjbf"));
        assert!(listing.contains("ml(u=lin,o=sq,g=area)"));
        assert!(listing.contains("rec-doubling"));
        assert_eq!(registered_predictors().len(), 3 + 20);
    }

    #[test]
    fn registry_rendering_is_pinned() {
        // FNV-1a 64 of the `repro --list` text before the spellings moved
        // into tables beside their types: every line of it is rebuilt
        // from those tables, byte for byte.
        let listing = render_registry();
        let hash = listing.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((hash, listing.len()), (0xac0a_bfda_b800_e990, 3182));
    }
}
