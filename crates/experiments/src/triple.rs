//! Heuristic triples (§6.2): prediction technique × correction mechanism
//! × backfilling variant.
//!
//! "For each workload log, the experimental campaign runs 128
//! simulations": 20 learning configurations (Table 5) plus AVE₂, each
//! crossed with 3 corrections and 2 backfilling variants (126), plus the
//! Requested Time prediction (no correction applicable) under both
//! variants (2). [`campaign_triples`] enumerates exactly that set;
//! [`reference_triples`] adds the clairvoyant upper bounds of Table 6.

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

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            PredictionTechnique::Clairvoyant => "clairvoyant".into(),
            PredictionTechnique::RequestedTime => "requested".into(),
            PredictionTechnique::Ave2 => "ave2".into(),
            PredictionTechnique::Ml(cfg) => cfg.name(),
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
    /// The three §5.2 mechanisms.
    pub const ALL: [CorrectionKind; 3] = [
        CorrectionKind::RequestedTime,
        CorrectionKind::Incremental,
        CorrectionKind::RecursiveDoubling,
    ];

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
        match self {
            CorrectionKind::RequestedTime => "req-time",
            CorrectionKind::Incremental => "incremental",
            CorrectionKind::RecursiveDoubling => "rec-doubling",
        }
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
    /// The paper's two evaluated variants.
    pub const PAPER: [Variant; 2] = [Variant::Easy, Variant::EasySjbf];

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
        match self {
            Variant::Easy => "easy",
            Variant::EasySjbf => "easy-sjbf",
            Variant::Fcfs => "fcfs",
            Variant::Conservative => "conservative",
        }
    }
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
    // 20 ML configurations × 3 corrections × 2 variants = 120.
    for cfg in ml_grid() {
        for correction in CorrectionKind::ALL {
            for variant in Variant::PAPER {
                triples.push(HeuristicTriple {
                    prediction: PredictionTechnique::Ml(cfg),
                    correction: Some(correction),
                    variant,
                });
            }
        }
    }
    // AVE₂ × 3 × 2 = 6.
    for correction in CorrectionKind::ALL {
        for variant in Variant::PAPER {
            triples.push(HeuristicTriple {
                prediction: PredictionTechnique::Ave2,
                correction: Some(correction),
                variant,
            });
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
    Variant::PAPER
        .iter()
        .map(|&v| HeuristicTriple::clairvoyant(v))
        .collect()
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
