//! Prediction techniques (§6.2 of the paper).
//!
//! The experiment campaign crosses these predictors with correction
//! mechanisms and backfilling variants:
//!
//! * **Clairvoyant** and **Requested Time** — in `predictsim_sim::predict`
//!   (no learning state);
//! * [`Ave2Predictor`] — AVE₂(k): the mean of the user's last two recorded
//!   running times (Tsafrir et al. \[24\]), "surprisingly good given its
//!   simplicity" (§3.2); the prediction half of EASY++;
//! * [`MlPredictor`] — the paper's contribution: the on-line NAG-trained
//!   ℓ2-regularized degree-2 polynomial regression over the Table 2
//!   features, with a configurable asymmetric weighted loss
//!   ([`MlConfig`]). [`MlPredictor::e_loss`] builds the winning E-Loss
//!   configuration of §6.3.3.

use std::collections::VecDeque;

use predictsim_sim::{Job, RuntimePredictor, SystemView};

use crate::basis::Basis;
use crate::features::{FeatureExtractor, N_FEATURES};
use crate::loss::{loss_shapes, AsymmetricLoss};
use crate::model::{OnlineRegression, DEFAULT_ETA, DEFAULT_L2};
use crate::optimizer::{AdaGradOptimizer, NagOptimizer, OnlineOptimizer, SgdOptimizer};
use crate::weighting::WeightingScheme;

/// AVE₂(k): predicts the average of the user's last two recorded running
/// times; falls back to the requested time while the user has no history.
#[derive(Debug, Clone, Default)]
pub struct Ave2Predictor {
    extractor: FeatureExtractor,
}

impl Ave2Predictor {
    /// A fresh AVE₂ predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RuntimePredictor for Ave2Predictor {
    fn predict(&mut self, job: &Job, _system: &SystemView<'_>) -> f64 {
        self.extractor
            .ave2(job.user_ix)
            .unwrap_or(job.requested as f64)
    }

    fn observe(&mut self, job: &Job, actual_run: i64, system: &SystemView<'_>) {
        self.extractor
            .record_completion(job, actual_run, system.now.0);
    }

    fn name(&self) -> String {
        "ave2".into()
    }
}

/// Which optimizer an [`MlPredictor`] trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerKind {
    /// Normalized Adaptive Gradient \[19\] — the paper's choice.
    #[default]
    Nag,
    /// Plain SGD (ablation).
    Sgd,
    /// AdaGrad (ablation).
    AdaGrad,
}

/// Which basis the model expands features with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BasisKind {
    /// Degree-2 polynomial (Equation 1, the paper's choice).
    #[default]
    Polynomial,
    /// Degree-1 (ablation).
    Linear,
}

/// Configuration of a learning-based predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlConfig {
    /// Loss shape (under/over basis losses).
    pub loss: AsymmetricLoss,
    /// Per-job weight scheme γ.
    pub weighting: WeightingScheme,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Basis degree.
    pub basis: BasisKind,
}

impl MlConfig {
    /// The paper's default training setup for a given loss + weighting.
    pub fn new(loss: AsymmetricLoss, weighting: WeightingScheme) -> Self {
        Self {
            loss,
            weighting,
            optimizer: OptimizerKind::Nag,
            basis: BasisKind::Polynomial,
        }
    }

    /// The winning configuration of §6.3.3: E-Loss shape with the
    /// large-area weight.
    pub fn e_loss() -> Self {
        Self::new(AsymmetricLoss::E_LOSS, WeightingScheme::LargeArea)
    }

    /// Display name, e.g. `"ml(u=lin,o=sq,g=area)"`.
    pub fn name(&self) -> String {
        let mut name = format!("ml({},{})", self.loss.code(), self.weighting.code());
        if self.optimizer != OptimizerKind::Nag {
            name.push_str(match self.optimizer {
                OptimizerKind::Sgd => "+sgd",
                OptimizerKind::AdaGrad => "+adagrad",
                OptimizerKind::Nag => unreachable!(),
            });
        }
        if self.basis == BasisKind::Linear {
            name.push_str("+lin-basis");
        }
        name
    }

    fn build_model(&self) -> OnlineRegression {
        let basis = match self.basis {
            BasisKind::Polynomial => Basis::polynomial(N_FEATURES),
            BasisKind::Linear => Basis::linear(N_FEATURES),
        };
        let dim = basis.output_dim();
        let optimizer: Box<dyn OnlineOptimizer> = match self.optimizer {
            OptimizerKind::Nag => Box::new(NagOptimizer::new(dim, DEFAULT_ETA)),
            OptimizerKind::Sgd => Box::new(SgdOptimizer::new(DEFAULT_ETA)),
            OptimizerKind::AdaGrad => Box::new(AdaGradOptimizer::new(dim, DEFAULT_ETA)),
        };
        OnlineRegression::with_parts(basis, optimizer, self.loss, self.weighting, DEFAULT_L2)
    }
}

/// The 20 loss-function configurations of Table 5 (4 shapes × 5 weights),
/// each with the paper's default NAG training.
pub fn ml_grid() -> Vec<MlConfig> {
    let mut grid = Vec::with_capacity(20);
    for loss in loss_shapes() {
        for weighting in WeightingScheme::ALL {
            grid.push(MlConfig::new(loss, weighting));
        }
    }
    grid
}

/// The paper's learning-based running-time predictor (§4.2).
///
/// At each submission it extracts the Table 2 features, records them, and
/// predicts through the polynomial model; at each completion it performs
/// one on-line learning step with the features *as they were at
/// submission* — the strict on-line train/test protocol.
pub struct MlPredictor {
    config: MlConfig,
    extractor: FeatureExtractor,
    model: OnlineRegression,
    /// Features captured at submit time, consumed at completion: a
    /// window over job ids from the oldest to the newest one predicted
    /// but not yet observed, so it spans the ids in flight, not the
    /// trace.
    pending: VecDeque<Option<[f64; N_FEATURES]>>,
    /// Job id of `pending`'s front slot.
    pending_base: usize,
    /// Number of `Some` entries in `pending` (jobs predicted but not yet
    /// observed).
    in_flight: usize,
}

impl MlPredictor {
    /// Builds a predictor from `config`.
    pub fn new(config: MlConfig) -> Self {
        Self {
            config,
            extractor: FeatureExtractor::new(),
            model: config.build_model(),
            pending: VecDeque::new(),
            pending_base: 0,
            in_flight: 0,
        }
    }

    /// The winning §6.3.3 E-Loss predictor.
    pub fn e_loss() -> Self {
        Self::new(MlConfig::e_loss())
    }

    /// The configuration this predictor was built from.
    pub fn config(&self) -> &MlConfig {
        &self.config
    }

    /// Number of learning steps taken so far.
    pub fn examples(&self) -> u64 {
        self.model.examples()
    }

    /// Cumulative weighted loss (the Equation 2 objective so far).
    pub fn cumulative_loss(&self) -> f64 {
        self.model.cumulative_loss()
    }
}

impl RuntimePredictor for MlPredictor {
    fn predict(&mut self, job: &Job, system: &SystemView<'_>) -> f64 {
        let x = self.extractor.extract(job, system);
        self.extractor.record_submit(job);
        let raw = self.model.predict(&x);
        let index = job.id.index();
        if self.pending.is_empty() {
            self.pending_base = index;
        }
        // Ids need not arrive in order: one below the window extends it
        // at the front.
        while index < self.pending_base {
            self.pending.push_front(None);
            self.pending_base -= 1;
        }
        let offset = index - self.pending_base;
        if offset >= self.pending.len() {
            self.pending.resize(offset + 1, None);
        }
        if self.pending[offset].replace(x).is_none() {
            self.in_flight += 1;
        }
        raw // the engine clamps into [1, p̃_j]
    }

    fn observe(&mut self, job: &Job, actual_run: i64, system: &SystemView<'_>) {
        self.extractor
            .record_completion(job, actual_run, system.now.0);
        let slot = job.id.index().checked_sub(self.pending_base);
        if let Some(x) = slot
            .and_then(|offset| self.pending.get_mut(offset))
            .and_then(Option::take)
        {
            self.in_flight -= 1;
            while let Some(None) = self.pending.front() {
                self.pending.pop_front();
                self.pending_base += 1;
            }
            while let Some(None) = self.pending.back() {
                self.pending.pop_back();
            }
            self.model.learn(&x, actual_run as f64, job.procs as f64);
        }
    }

    fn name(&self) -> String {
        self.config.name()
    }

    fn wants_user_running_index(&self) -> bool {
        true // Table 2's current-state features are per-user aggregates
    }
}

impl std::fmt::Debug for MlPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlPredictor")
            .field("config", &self.config)
            .field("examples", &self.model.examples())
            .field("pending", &self.in_flight)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictsim_sim::{JobId, Time};

    fn job(id: u32, user: u32, run: i64, requested: i64) -> Job {
        Job {
            id: JobId(id),
            submit: Time(id as i64 * 10),
            run,
            requested,
            procs: 2,
            user,
            user_ix: user,
            swf_id: id as u64,
        }
    }

    fn view(now: i64) -> SystemView<'static> {
        SystemView {
            now: Time(now),
            machine_size: 64,
            running: &[],
            user_running: None,
        }
    }

    #[test]
    fn ave2_falls_back_to_requested() {
        let mut p = Ave2Predictor::new();
        assert_eq!(p.predict(&job(0, 1, 100, 5000), &view(0)), 5000.0);
    }

    #[test]
    fn ave2_averages_last_two() {
        let mut p = Ave2Predictor::new();
        p.observe(&job(0, 1, 100, 5000), 100, &view(100));
        assert_eq!(p.predict(&job(1, 1, 0, 5000), &view(150)), 100.0);
        p.observe(&job(1, 1, 300, 5000), 300, &view(400));
        assert_eq!(p.predict(&job(2, 1, 0, 5000), &view(450)), 200.0);
        p.observe(&job(2, 1, 500, 5000), 500, &view(900));
        // Only the last two count: (500+300)/2.
        assert_eq!(p.predict(&job(3, 1, 0, 5000), &view(950)), 400.0);
        assert_eq!(p.name(), "ave2");
    }

    #[test]
    fn ave2_is_per_user() {
        let mut p = Ave2Predictor::new();
        p.observe(&job(0, 1, 100, 5000), 100, &view(100));
        assert_eq!(p.predict(&job(1, 2, 0, 7777), &view(150)), 7777.0);
    }

    #[test]
    fn grid_has_20_configs_with_unique_names() {
        let grid = ml_grid();
        assert_eq!(grid.len(), 20);
        let names: std::collections::HashSet<String> = grid.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn ml_learns_a_repetitive_user() {
        // A user whose jobs always run ~1000s while requesting 36000s.
        // After a few dozen completions the model should predict far
        // closer to 1000 than to the requested bound.
        let mut p = MlPredictor::new(MlConfig::new(
            AsymmetricLoss::SQUARED,
            WeightingScheme::Constant,
        ));
        let mut last_pred = f64::NAN;
        for i in 0..300 {
            let j = job(i, 1, 1000, 36_000);
            let raw = p.predict(&j, &view(i as i64 * 100));
            last_pred = raw.clamp(1.0, 36_000.0);
            p.observe(&j, 1000, &view(i as i64 * 100 + 50));
        }
        assert_eq!(p.examples(), 300);
        assert!(
            (last_pred - 1000.0).abs() < 500.0,
            "prediction {last_pred} did not approach the true 1000s"
        );
    }

    #[test]
    fn eloss_config_name() {
        assert_eq!(MlConfig::e_loss().name(), "ml(u=lin,o=sq,g=area)");
        let mut cfg = MlConfig::e_loss();
        cfg.optimizer = OptimizerKind::Sgd;
        assert!(cfg.name().contains("+sgd"));
        cfg.basis = BasisKind::Linear;
        assert!(cfg.name().contains("+lin-basis"));
    }

    #[test]
    fn pending_features_are_consumed() {
        let mut p = MlPredictor::e_loss();
        let j = job(0, 1, 100, 1000);
        p.predict(&j, &view(0));
        assert!(format!("{p:?}").contains("pending: 1"));
        p.observe(&j, 100, &view(200));
        assert_eq!(p.examples(), 1);
    }

    #[test]
    fn observe_without_predict_is_harmless() {
        // A predictor attached mid-simulation may see completions of jobs
        // it never predicted; it must not learn from unknown features.
        let mut p = MlPredictor::e_loss();
        p.observe(&job(5, 1, 100, 1000), 100, &view(0));
        assert_eq!(p.examples(), 0);
    }

    #[test]
    fn pending_window_spans_only_the_ids_in_flight() {
        // 100 000 submissions, at most 50 in flight, each completion a
        // pseudo-random one of them: the window holds exactly the ids
        // from the oldest to the newest job in flight.
        let mut p = MlPredictor::new(MlConfig::new(
            AsymmetricLoss::SQUARED,
            WeightingScheme::Constant,
        ));
        let mut in_flight = std::collections::BTreeSet::new();
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut widest = 0;
        for id in 0..100_000u32 {
            p.predict(&job(id, id % 7, 100, 1000), &view(id as i64 * 10));
            in_flight.insert(id);
            if in_flight.len() == 50 || id == 99_999 {
                while in_flight.len() > 25 * usize::from(id < 99_999) {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let pick = (rng >> 33) as usize % in_flight.len();
                    let done = *in_flight.iter().nth(pick).unwrap();
                    in_flight.remove(&done);
                    p.observe(&job(done, done % 7, 100, 1000), 100, &view(id as i64 * 10));
                    let span = match (in_flight.first(), in_flight.last()) {
                        (Some(lo), Some(hi)) => (hi - lo) as usize + 1,
                        _ => 0,
                    };
                    assert_eq!(p.pending.len(), span);
                    assert_eq!(p.in_flight, in_flight.len());
                    widest = widest.max(p.pending.len());
                }
            }
        }
        assert_eq!(p.examples(), 100_000);
        assert!(p.pending.is_empty());
        assert!(widest < 10_000, "window reached {widest} slots");
    }

    #[test]
    fn pending_window_takes_ids_out_of_order() {
        let mut p = MlPredictor::e_loss();
        p.predict(&job(10, 1, 100, 1000), &view(0));
        // Below the window's base: it extends at the front.
        p.predict(&job(3, 1, 100, 1000), &view(0));
        assert_eq!((p.pending_base, p.pending.len()), (3, 8));
        // A completion nobody predicted learns nothing.
        p.observe(&job(7, 1, 100, 1000), 100, &view(50));
        assert_eq!(p.examples(), 0);
        // A second predict of one id replaces its features, and still
        // counts one job in flight.
        p.predict(&job(10, 1, 100, 1000), &view(60));
        assert!(format!("{p:?}").contains("pending: 2"));
        p.observe(&job(3, 1, 100, 1000), 100, &view(100));
        assert_eq!((p.pending_base, p.pending.len()), (10, 1));
        p.observe(&job(10, 1, 100, 1000), 100, &view(200));
        p.observe(&job(10, 1, 100, 1000), 100, &view(300));
        assert_eq!(p.examples(), 2);
        assert!(p.pending.is_empty());
        // An empty window re-anchors at the next id, however low.
        p.predict(&job(1, 1, 100, 1000), &view(400));
        assert_eq!((p.pending_base, p.pending.len()), (1, 1));
        p.observe(&job(1, 1, 100, 1000), 100, &view(500));
        assert_eq!(p.examples(), 3);
    }
}
