//! Heuristic triples (§6.2): prediction technique × correction mechanism
//! × backfilling variant.
//!
//! "For each workload log, the experimental campaign runs 128
//! simulations": 20 learning configurations (Table 5) plus AVE₂, each
//! crossed with 3 corrections and 2 backfilling variants (126), plus the
//! Requested Time prediction (no correction applicable) under both
//! variants (2). [`campaign_triples`] enumerates exactly that set;
//! [`reference_triples`] adds the clairvoyant upper bounds of Table 6.
//!
//! [`Variant`], [`CorrectionKind`] and [`PredictionTechnique`]'s baselines
//! each hold one table of their values, names and `repro --list`
//! descriptions; `name`, `Display`, `FromStr`, `ALL`/`PAPER` and the
//! registry's listings all read it. An `ml(...)` name is
//! [`MlConfig`]'s own, in `predictsim-core`.

use std::str::FromStr;

use serde::{Deserialize, Serialize};

use predictsim_core::{
    ml_grid, Ave2Predictor, IncrementalCorrection, MlConfig, MlPredictor,
    RecursiveDoublingCorrection,
};
use predictsim_sim::{
    ClairvoyantPredictor, ConservativeScheduler, CorrectionPolicy, EasyScheduler, FcfsScheduler,
    Job, RequestedTimeCorrection, RequestedTimePredictor, RuntimePredictor, Scheduler, SimConfig,
    SimError, SimResult,
};

use crate::registry::{parse_ml, RegistryError};
use crate::scenario::Scenario;

/// A prediction technique of §6.2.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictionTechnique {
    /// Exact running times (upper-bound reference).
    Clairvoyant,
    /// The user-requested time — standard EASY's information.
    RequestedTime,
    /// AVE₂(k) of Tsafrir et al. \[24\].
    Ave2,
    /// A learning configuration from the Table 5 grid.
    Ml(MlConfig),
}

impl PredictionTechnique {
    /// Instantiates a fresh predictor (with empty learning state).
    pub fn build(&self) -> Box<dyn RuntimePredictor + Send> {
        match self {
            PredictionTechnique::Clairvoyant => Box::new(ClairvoyantPredictor),
            PredictionTechnique::RequestedTime => Box::new(RequestedTimePredictor),
            PredictionTechnique::Ave2 => Box::new(Ave2Predictor::new()),
            PredictionTechnique::Ml(cfg) => Box::new(MlPredictor::new(*cfg)),
        }
    }

    /// The three baselines, each with its name and description (the
    /// learning family is named by [`MlConfig`]).
    #[rustfmt::skip]
    pub(crate) const BASELINES: [(PredictionTechnique, &'static str, &'static str); 3] = [
        (Self::Clairvoyant, "clairvoyant", "exact running times (upper-bound reference, Table 1/6)"),
        (Self::RequestedTime, "requested", "the user-requested time — standard EASY's information"),
        (Self::Ave2, "ave2", "AVE2(k) of Tsafrir et al. [24]; EASY++'s predictor"),
    ];

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            PredictionTechnique::Ml(cfg) => cfg.name(),
            baseline => {
                let row = Self::BASELINES.iter().find(|(value, ..)| value == baseline);
                row.expect("every baseline has a name").1.to_string()
            }
        }
    }
}

impl FromStr for PredictionTechnique {
    type Err = RegistryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match named(&Self::BASELINES, s) {
            Some(baseline) => Ok(baseline),
            None if s.starts_with("ml(") || s.starts_with("ml:") => Ok(Self::Ml(parse_ml(s)?)),
            None => Err(RegistryError::UnknownPredictor(s.to_string())),
        }
    }
}

/// A correction mechanism of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrectionKind {
    /// Fall back to the requested time.
    RequestedTime,
    /// Tsafrir's fixed-increment list.
    Incremental,
    /// Double the elapsed running time.
    RecursiveDoubling,
}

impl CorrectionKind {
    /// Each mechanism, in declaration order, with its name and
    /// description.
    #[rustfmt::skip]
    pub(crate) const TABLE: [(CorrectionKind, &'static str, &'static str); 3] = [
        (Self::RequestedTime, "req-time", "fall back to the requested time (§5.2)"),
        (Self::Incremental, "incremental", "Tsafrir's fixed-increment list (§5.2)"),
        (Self::RecursiveDoubling, "rec-doubling", "double the elapsed running time (§5.2)"),
    ];

    /// The three §5.2 mechanisms.
    pub const ALL: [CorrectionKind; 3] = [Self::TABLE[0].0, Self::TABLE[1].0, Self::TABLE[2].0];

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn CorrectionPolicy + Send + Sync> {
        match self {
            CorrectionKind::RequestedTime => Box::new(RequestedTimeCorrection),
            CorrectionKind::Incremental => Box::new(IncrementalCorrection::new()),
            CorrectionKind::RecursiveDoubling => Box::new(RecursiveDoublingCorrection),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        Self::TABLE[*self as usize].1
    }
}

/// A mechanism parses by its name, or by the name its built policy gives
/// itself (`requested-time`, `recursive-doubling`), which `Display` never
/// prints.
impl FromStr for CorrectionKind {
    type Err = RegistryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        named(&Self::TABLE, s)
            .or_else(|| Self::ALL.into_iter().find(|kind| kind.build().name() == s))
            .ok_or_else(|| RegistryError::UnknownCorrection(s.to_string()))
    }
}

/// A backfilling variant of §5.1 (plus FCFS for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// EASY backfilling, FCFS backfill order.
    Easy,
    /// EASY with Shortest-Job-Backfilled-First order \[24\].
    EasySjbf,
    /// No backfilling (ablation only; not part of the 128).
    Fcfs,
    /// Conservative backfilling \[14\] (ablation only; not part of the
    /// 128).
    Conservative,
}

impl Variant {
    /// Each variant, in declaration order, with its name and description.
    #[rustfmt::skip]
    pub(crate) const TABLE: [(Variant, &'static str, &'static str); 4] = [
        (Self::Easy, "easy", "EASY backfilling, FCFS backfill order (§5.1)"),
        (Self::EasySjbf, "easy-sjbf", "EASY with Shortest-Job-Backfilled-First order [24]"),
        (Self::Fcfs, "fcfs", "first-come-first-served, no backfilling (ablation)"),
        (Self::Conservative, "conservative", "conservative backfilling [14] (ablation)"),
    ];

    /// The paper's two evaluated variants.
    pub const PAPER: [Variant; 2] = [Self::TABLE[0].0, Self::TABLE[1].0];

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match self {
            Variant::Easy => Box::new(EasyScheduler::new()),
            Variant::EasySjbf => Box::new(EasyScheduler::sjbf()),
            Variant::Fcfs => Box::new(FcfsScheduler),
            Variant::Conservative => Box::new(ConservativeScheduler::new()),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        Self::TABLE[*self as usize].1
    }
}

impl FromStr for Variant {
    type Err = RegistryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        named(&Self::TABLE, s).ok_or_else(|| RegistryError::UnknownScheduler(s.to_string()))
    }
}

// Each policy displays as its name.
macro_rules! display_as_name {
    ($($policy:ty),*) => {$(
        impl std::fmt::Display for $policy {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.name())
            }
        }
    )*};
}
display_as_name!(
    Variant,
    CorrectionKind,
    PredictionTechnique,
    HeuristicTriple
);

/// The value a `(value, name, description)` table names `s`.
fn named<T: Clone>(table: &[(T, &str, &str)], s: &str) -> Option<T> {
    let row = table.iter().find(|(_, name, _)| *name == s);
    row.map(|(value, ..)| value.clone())
}

/// One heuristic triple: prediction × correction × variant.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicTriple {
    /// Prediction technique.
    pub prediction: PredictionTechnique,
    /// Correction mechanism; `None` for techniques that never
    /// under-predict (Requested Time, Clairvoyant).
    pub correction: Option<CorrectionKind>,
    /// Backfilling variant.
    pub variant: Variant,
}

impl HeuristicTriple {
    /// Standard EASY backfilling: `(Requested Time, –, EASY)` (§6.2).
    pub fn standard_easy() -> Self {
        Self {
            prediction: PredictionTechnique::RequestedTime,
            correction: None,
            variant: Variant::Easy,
        }
    }

    /// EASY++ of Tsafrir et al.: `(AVE₂, Incremental, EASY-SJBF)` (§6.2).
    pub fn easy_plus_plus() -> Self {
        Self {
            prediction: PredictionTechnique::Ave2,
            correction: Some(CorrectionKind::Incremental),
            variant: Variant::EasySjbf,
        }
    }

    /// The paper's cross-validation winner (§6.3.3): E-Loss learning +
    /// Incremental correction + EASY-SJBF.
    pub fn paper_winner() -> Self {
        Self {
            prediction: PredictionTechnique::Ml(MlConfig::e_loss()),
            correction: Some(CorrectionKind::Incremental),
            variant: Variant::EasySjbf,
        }
    }

    /// Clairvoyant reference under the given variant (Table 6's first two
    /// columns).
    pub fn clairvoyant(variant: Variant) -> Self {
        Self {
            prediction: PredictionTechnique::Clairvoyant,
            correction: None,
            variant,
        }
    }

    /// Display name, e.g. `"ml(u=lin,o=sq,g=area)+incremental+easy-sjbf"`.
    pub fn name(&self) -> String {
        let mut s = self.prediction.name();
        if let Some(c) = &self.correction {
            s.push('+');
            s.push_str(c.name());
        }
        s.push('+');
        s.push_str(self.variant.name());
        s
    }

    /// Runs this triple on a workload: [`Scenario::run_on`].
    pub fn run(&self, jobs: &[Job], config: SimConfig) -> Result<SimResult, SimError> {
        Scenario::from_triple(self).run_on(jobs, config)
    }
}

/// The §6.2 campaign: exactly 128 triples per log.
pub fn campaign_triples() -> Vec<HeuristicTriple> {
    let mut triples = Vec::with_capacity(128);
    // (20 ML configurations + AVE₂) × 3 corrections × 2 variants = 126.
    let learners = ml_grid().into_iter().map(PredictionTechnique::Ml);
    for prediction in learners.chain([PredictionTechnique::Ave2]) {
        for correction in CorrectionKind::ALL {
            for variant in Variant::PAPER {
                triples.push(HeuristicTriple {
                    prediction: prediction.clone(),
                    correction: Some(correction),
                    variant,
                });
            }
        }
    }
    // Requested Time × 2 (no correction can fire: p ≤ p̃ after cleaning).
    for variant in Variant::PAPER {
        triples.push(HeuristicTriple {
            prediction: PredictionTechnique::RequestedTime,
            correction: None,
            variant,
        });
    }
    triples
}

/// The clairvoyant references of Table 6 (not counted in the 128).
pub fn reference_triples() -> Vec<HeuristicTriple> {
    Variant::PAPER.map(HeuristicTriple::clairvoyant).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_has_exactly_128_triples() {
        let triples = campaign_triples();
        assert_eq!(triples.len(), 128, "§6.2: 128 simulations per log");
        // All names unique.
        let names: std::collections::HashSet<String> = triples.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 128);
    }

    #[test]
    fn tables_follow_declaration_order() {
        for (i, (value, ..)) in Variant::TABLE.into_iter().enumerate() {
            assert_eq!(value as usize, i);
        }
        for (i, (value, ..)) in CorrectionKind::TABLE.into_iter().enumerate() {
            assert_eq!(value as usize, i);
        }
    }

    #[test]
    fn named_triples() {
        assert_eq!(HeuristicTriple::standard_easy().name(), "requested+easy");
        assert_eq!(
            HeuristicTriple::easy_plus_plus().name(),
            "ave2+incremental+easy-sjbf"
        );
        assert_eq!(
            HeuristicTriple::paper_winner().name(),
            "ml(u=lin,o=sq,g=area)+incremental+easy-sjbf"
        );
    }

    #[test]
    fn standard_easy_and_easypp_are_in_the_campaign() {
        let names: Vec<String> = campaign_triples().iter().map(|t| t.name()).collect();
        assert!(names.contains(&HeuristicTriple::standard_easy().name()));
        assert!(names.contains(&HeuristicTriple::easy_plus_plus().name()));
        assert!(names.contains(&HeuristicTriple::paper_winner().name()));
    }

    #[test]
    fn triples_run() {
        use predictsim_sim::{JobId, Time};
        let jobs: Vec<Job> = (0..30)
            .map(|i| Job {
                id: JobId(i),
                submit: Time(i as i64 * 50),
                run: 100 + (i as i64 % 5) * 60,
                requested: 2000,
                procs: 1 + i % 4,
                user: i % 3,
                user_ix: i % 3,
                swf_id: i as u64,
            })
            .collect();
        let cfg = SimConfig::single(8);
        for triple in [
            HeuristicTriple::standard_easy(),
            HeuristicTriple::easy_plus_plus(),
            HeuristicTriple::paper_winner(),
            HeuristicTriple::clairvoyant(Variant::EasySjbf),
        ] {
            let res = triple.run(&jobs, cfg).unwrap();
            assert_eq!(res.outcomes.len(), 30, "{}", triple.name());
        }
    }
}
