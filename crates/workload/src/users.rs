//! The user population model.
//!
//! Each synthetic user owns a handful of *job classes* — applications the
//! user runs repeatedly, each with its own lognormal running-time
//! distribution and characteristic processor request. Successive jobs of
//! one user strongly tend to repeat the same class (session locality),
//! which produces the temporal running-time dependence that the paper's
//! per-user features (and the AVE₂ baseline) exploit: "two successive
//! running times are enough to predict running time with good accuracy"
//! (§4.1, citing \[24\]).
//!
//! Users also differ in *estimation style*: a per-user over-estimation
//! factor, following the observation of \[23\] that users wildly pad their
//! requested times — and in activity level, following the usual Zipf-like
//! activity skew of production logs.

use rand::Rng;

use crate::sampling;
use crate::spec::WorkloadSpec;

/// One application a user runs repeatedly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobClass {
    /// Lognormal location of running times (log-seconds).
    pub mu: f64,
    /// Lognormal scale of running times: small values make the class
    /// highly predictable from history.
    pub sigma: f64,
    /// Processor request used by (almost) every run of this class.
    pub procs: u32,
    /// Relative probability of picking this class when starting a
    /// session.
    pub weight: f64,
}

impl JobClass {
    /// Samples a raw (pre-calibration) running time for this class.
    pub(crate) fn sample_runtime<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        sampling::lognormal(rng, self.mu, self.sigma)
    }

    /// The *habitual requested time* of this class, in raw
    /// (pre-calibration) units: users do not estimate per job — they
    /// reuse a single padded figure per application (Tsafrir, Etsion &
    /// Feitelson \[23\]), sized so the application "never" gets killed.
    /// We model it as the ~93rd percentile of the class's runtime
    /// distribution; the user's personal padding factor multiplies this
    /// later. The key property is that *within* a class, the request
    /// carries no information about the individual run — exactly the
    /// weak runtime/estimate correlation observed in production logs.
    pub(crate) fn habitual_request(&self) -> f64 {
        (self.mu + 1.5 * self.sigma).exp()
    }

    /// Samples the processor request; a small minority of runs deviate
    /// from the class's canonical size.
    pub(crate) fn sample_procs<R: Rng + ?Sized>(&self, rng: &mut R, machine: u32) -> u32 {
        if rng.gen::<f64>() < 0.9 {
            self.procs
        } else {
            sampling::proc_request(rng, machine, (self.procs.max(1) as f64).log2(), 0.8)
        }
    }
}

/// One synthetic user.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct User {
    /// Population index (engine `Job::user` is `id + 1`: 0 is reserved
    /// for "unknown user" by the SWF conversion).
    pub id: u32,
    /// The user's applications.
    pub classes: Vec<JobClass>,
    /// Relative submission activity (Zipf-like across the population).
    pub activity: f64,
    /// The user's requested-time over-estimation factor (≥ 1).
    pub overestimate: f64,
    /// Whether this user rounds requests up to modal values.
    pub rounds_to_modal: bool,
    /// Hour of day (0–24) around which the user's submissions peak.
    pub peak_hour: f64,
}

impl User {
    /// Picks a class index to start a session with.
    pub(crate) fn pick_class<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
        sampling::weighted_index(rng, &weights)
    }
}

/// Builds the user population for `spec`.
pub(crate) fn build_users<R: Rng + ?Sized>(spec: &WorkloadSpec, rng: &mut R) -> Vec<User> {
    let mut users = Vec::with_capacity(spec.users);
    for id in 0..spec.users {
        let n_classes = 1 + rng.gen_range(0..spec.classes_per_user);
        let classes = (0..n_classes)
            .map(|_| {
                // Class medians spread over ~minutes to ~half a day; the
                // later utilization calibration rescales globally.
                let mu = sampling::normal_with(rng, (1800.0f64).ln(), 1.6);
                let sigma = rng.gen_range(0.1..0.6);
                let procs = sampling::proc_request(
                    rng,
                    spec.machine_size,
                    spec.procs_mean_log2,
                    spec.procs_sigma_log2,
                );
                JobClass {
                    mu,
                    sigma,
                    procs,
                    weight: rng.gen_range(0.2..1.0),
                }
            })
            .collect();
        // Zipf-like activity: a few users dominate the log.
        let activity = 1.0 / (1.0 + id as f64).powf(0.8);
        // Over-estimation factor: lognormal around the spec's median, with
        // a floor at 1 (requests never below actual, enforced later too).
        let overestimate =
            sampling::lognormal(rng, spec.overestimate_median.ln(), spec.overestimate_sigma)
                .max(1.0);
        let rounds_to_modal = rng.gen::<f64>() < spec.modal_round_prob;
        // Peak activity hours concentrated in the working day.
        let peak_hour = sampling::normal_with(rng, 13.0, 3.0).rem_euclid(24.0);
        users.push(User {
            id: id as u32,
            classes,
            activity,
            overestimate,
            rounds_to_modal,
            peak_hour,
        });
    }
    users
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn users() -> Vec<User> {
        let mut rng = StdRng::seed_from_u64(1);
        build_users(&WorkloadSpec::toy(), &mut rng)
    }

    #[test]
    fn population_matches_spec() {
        let spec = WorkloadSpec::toy();
        let us = users();
        assert_eq!(us.len(), spec.users);
        for (i, u) in us.iter().enumerate() {
            assert_eq!(u.id, i as u32);
            assert!(!u.classes.is_empty());
            assert!(u.classes.len() <= spec.classes_per_user);
            assert!(u.overestimate >= 1.0);
            assert!((0.0..24.0).contains(&u.peak_hour));
            for c in &u.classes {
                assert!(c.procs >= 1 && c.procs <= spec.machine_size);
                assert!(c.sigma > 0.0);
            }
        }
    }

    #[test]
    fn activity_is_skewed() {
        let us = users();
        assert!(us[0].activity > us.last().unwrap().activity * 5.0);
    }

    #[test]
    fn class_runtimes_are_clustered() {
        // Per-class runtimes vary much less than cross-class runtimes —
        // the locality signal. Compare within-class spread to the class
        // median for a tight class.
        let mut rng = StdRng::seed_from_u64(2);
        let class = JobClass {
            mu: (3600.0f64).ln(),
            sigma: 0.2,
            procs: 8,
            weight: 1.0,
        };
        let samples: Vec<f64> = (0..500).map(|_| class.sample_runtime(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let within = samples
            .iter()
            .filter(|&&x| (x / mean - 1.0).abs() < 0.5)
            .count();
        assert!(within > 450, "class runtimes too dispersed: {within}/500");
    }

    #[test]
    fn class_procs_mostly_canonical() {
        let mut rng = StdRng::seed_from_u64(3);
        let class = JobClass {
            mu: 8.0,
            sigma: 0.3,
            procs: 16,
            weight: 1.0,
        };
        let canonical = (0..1000)
            .filter(|_| class.sample_procs(&mut rng, 64) == 16)
            .count();
        assert!(canonical > 850, "only {canonical}/1000 canonical sizes");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = {
            let mut rng = StdRng::seed_from_u64(9);
            build_users(&WorkloadSpec::toy(), &mut rng)
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(9);
            build_users(&WorkloadSpec::toy(), &mut rng)
        };
        assert_eq!(a, b);
    }
}
