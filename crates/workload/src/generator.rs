//! Workload generation: from a [`WorkloadSpec`] to a simulated job stream.
//!
//! The pipeline (all deterministic from the seed):
//!
//! 1. build the user population ([`crate::users`]);
//! 2. generate submission *sessions* — bursts of same-class jobs placed on
//!    a day/week activity cycle — until the target job count is reached;
//! 3. calibrate running times so total work hits the spec's utilization
//!    (`Σ p·q ≈ u · m · T`), preserving all per-user structure;
//! 4. derive requested times from each user's over-estimation style
//!    (modal rounding per \[23\]);
//! 5. inject crash noise: a fraction of jobs die early *after* their
//!    request was set, yielding exactly the pathological
//!    (tiny `p`, huge `p̃`) records the paper's robustness discussion
//!    (§4.1, §6.5) worries about.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use predictsim_sim::{intern_users, Job, JobId, Time, DAY, HOUR};
use predictsim_swf::{SwfHeader, SwfLog, SwfRecord, MISSING};

use crate::sampling;
use crate::spec::WorkloadSpec;
use crate::users::{build_users, User};

/// A generated workload: simulator-ready jobs plus provenance.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// Name of the generating spec.
    pub name: String,
    /// Machine size to simulate with.
    pub machine_size: u32,
    /// Jobs sorted by submission, densely numbered.
    pub jobs: Vec<Job>,
    /// Descriptive statistics of the generated stream.
    pub stats: WorkloadStats,
}

/// Summary statistics of a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Distinct users that actually submitted.
    pub active_users: usize,
    /// Total work `Σ p·q` in processor-seconds.
    pub total_work: f64,
    /// Expected utilization `total_work / (m · duration)`.
    pub offered_utilization: f64,
    /// Mean running time, seconds.
    pub mean_run: f64,
    /// Mean processor request.
    pub mean_procs: f64,
    /// Mean over-estimation ratio `p̃ / p`.
    pub mean_overestimate: f64,
    /// Jobs replaced by crash noise.
    pub crashed_jobs: usize,
}

/// User populations larger than this pick sessions via
/// [`sampling::CumulativeSampler`]; all pinned Table 4 presets (≤ 800
/// users) stay on the original subtract-chain, keeping their generated
/// bytes frozen.
const FAST_SAMPLER_CUTOVER: usize = 10_000;

struct RawJob {
    submit: i64,
    user: u32,
    runtime: f64,
    /// The class's habitual request (same raw units as `runtime`),
    /// already multiplied by the user's padding factor.
    request: f64,
    procs: u32,
}

/// Generates the workload for `spec`, deterministically from `seed`.
///
/// # Panics
///
/// Panics if the spec fails validation.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> GeneratedWorkload {
    spec.validate().expect("invalid workload spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let users = build_users(spec, &mut rng);
    let activity: Vec<f64> = users.iter().map(|u| u.activity).collect();

    // Above the cutover, user selection switches from the O(users)
    // subtract-chain to a prefix-sum binary search — mandatory for the
    // cloud-scale presets (10^5–10^6 users), byte-preserving below it
    // because every pinned preset has at most 800 users and both
    // samplers consume exactly one RNG draw.
    let fast_sampler =
        (users.len() > FAST_SAMPLER_CUTOVER).then(|| sampling::CumulativeSampler::new(&activity));

    // Phase 1 — sessions until enough arrivals.
    let mut raw: Vec<RawJob> = Vec::with_capacity(spec.jobs + 64);
    while raw.len() < spec.jobs {
        let user_ix = match &fast_sampler {
            Some(sampler) => sampler.sample(&mut rng),
            None => sampling::weighted_index(&mut rng, &activity),
        };
        generate_session(spec, &users[user_ix], &mut rng, &mut raw);
    }
    raw.sort_by_key(|r| r.submit);
    raw.truncate(spec.jobs);

    // Phase 2 — utilization calibration. Requests scale with runtimes so
    // the class-level "habitual request" semantics survive calibration.
    let target_work = spec.utilization * spec.machine_size as f64 * spec.duration as f64;
    let raw_work: f64 = raw.iter().map(|r| r.runtime * r.procs as f64).sum();
    let scale = if raw_work > 0.0 {
        target_work / raw_work
    } else {
        1.0
    };
    let max_run = (7 * DAY) as f64;
    for r in &mut raw {
        r.runtime = (r.runtime * scale).clamp(10.0, max_run);
        r.request = (r.request * scale).clamp(10.0, 2.0 * max_run);
    }

    // Phase 3 — requested times, then crash injection.
    let mut jobs = Vec::with_capacity(raw.len());
    let mut crashed = 0usize;
    let mut sum_over = 0.0;
    for (i, r) in raw.iter().enumerate() {
        let user = &users[r.user as usize];
        let mut run = r.runtime.round() as i64;
        let requested = requested_time(run, r.request, user, &mut rng);
        if rng.gen::<f64>() < spec.crash_rate {
            // The job dies early; the user's request reflected the
            // *intended* runtime, so it stays untouched.
            run = rng.gen_range(20..300);
            crashed += 1;
        }
        let run = run.clamp(1, requested);
        sum_over += requested as f64 / run as f64;
        jobs.push(Job {
            id: JobId(i as u32),
            submit: Time(r.submit),
            run,
            requested,
            procs: r.procs,
            // Engine user ids are 1-based: `job_from_swf` reserves 0 for
            // records with no user, so generated users start at 1 and the
            // SWF export stays a true inverse without special cases.
            user: r.user + 1,
            user_ix: 0, // interned below, once the final job order is fixed
            swf_id: i as u64 + 1,
        });
    }

    // Dense user interning over the final sorted job order — the same
    // first-appearance rule every workload loader applies, so an SWF
    // round trip reproduces identical `user_ix` assignments. The distinct
    // count doubles as the active-user statistic.
    let active_users = intern_users(&mut jobs) as usize;
    let total_work: f64 = jobs.iter().map(|j| j.run as f64 * j.procs as f64).sum();
    let stats = WorkloadStats {
        jobs: jobs.len(),
        active_users,
        total_work,
        offered_utilization: total_work / (spec.machine_size as f64 * spec.duration as f64),
        mean_run: jobs.iter().map(|j| j.run as f64).sum::<f64>() / jobs.len().max(1) as f64,
        mean_procs: jobs.iter().map(|j| j.procs as f64).sum::<f64>() / jobs.len().max(1) as f64,
        mean_overestimate: sum_over / jobs.len().max(1) as f64,
        crashed_jobs: crashed,
    };

    GeneratedWorkload {
        name: spec.name.clone(),
        machine_size: spec.machine_size,
        jobs,
        stats,
    }
}

/// One submission burst of a user.
fn generate_session(spec: &WorkloadSpec, user: &User, rng: &mut StdRng, out: &mut Vec<RawJob>) {
    // Place the session on the weekly cycle: weekdays dominate.
    let days = (spec.duration / DAY).max(1);
    let day = loop {
        let d = rng.gen_range(0..days);
        let weekday = d % 7; // day 0 is a Monday by convention
        let weight = if weekday < 5 { 1.0 } else { 0.35 };
        if rng.gen::<f64>() < weight {
            break d;
        }
    };
    // Time of day around the user's peak hour.
    let hour = sampling::normal_with(rng, user.peak_hour, 3.0).rem_euclid(24.0);
    let mut t = day * DAY + (hour * HOUR as f64) as i64;

    let n_jobs = 1 + sampling::geometric(rng, spec.session_len_mean) as usize;
    let mut class_idx = user.pick_class(rng);
    for _ in 0..n_jobs {
        if rng.gen::<f64>() > spec.session_repeat_prob {
            class_idx = user.pick_class(rng);
        }
        let class = &user.classes[class_idx];
        t += sampling::exponential(rng, 300.0) as i64 + 1;
        if t >= spec.duration {
            break;
        }
        out.push(RawJob {
            submit: t,
            user: user.id,
            runtime: class.sample_runtime(rng),
            request: class.habitual_request() * user.overestimate,
            procs: class.sample_procs(rng, spec.machine_size),
        });
    }
}

/// The user's requested time: the class's habitual padded figure,
/// rounded the way this user rounds, raised to the actual runtime when
/// the habit would have under-shot (those jobs would otherwise be
/// killed; users learn to bump the estimate).
fn requested_time(run: i64, habitual: f64, user: &User, rng: &mut StdRng) -> i64 {
    let padded = habitual * rng.gen_range(0.95..1.1);
    let rounded = if user.rounds_to_modal {
        sampling::round_to_modal(padded.round() as i64)
    } else {
        // Round up to the next 5 minutes.
        let raw = padded.round() as i64;
        ((raw + 299) / 300) * 300
    };
    let floor = if user.rounds_to_modal {
        sampling::round_to_modal(run)
    } else {
        ((run + 299) / 300) * 300
    };
    rounded.max(floor).max(run).max(60)
}

impl GeneratedWorkload {
    /// Exports the workload as an SWF log (usable by any SWF consumer,
    /// including this repository's own parser — round-trip tested).
    pub fn to_swf(&self) -> SwfLog {
        let mut log = SwfLog {
            header: SwfHeader::synthetic(self.machine_size as u64, &self.name),
            records: Vec::with_capacity(self.jobs.len()),
        };
        for j in &self.jobs {
            let mut r = SwfRecord::empty(j.swf_id);
            r.submit_time = j.submit.0;
            r.wait_time = MISSING;
            r.run_time = j.run;
            r.allocated_procs = j.procs as i64;
            r.requested_procs = j.procs as i64;
            r.requested_time = j.requested;
            r.status = if j.run < j.requested { 1 } else { 0 };
            // Exact inverse of `job_from_swf`'s user mapping (SWF user
            // `u` maps to engine user `u + 1`, MISSING to 0), so a
            // write → parse → convert round trip reproduces the jobs
            // byte-for-byte. Generated users are 1-based, so MISSING
            // only appears for jobs that came from user-less records.
            r.user_id = if j.user == 0 {
                MISSING
            } else {
                j.user as i64 - 1
            };
            log.records.push(r);
        }
        log
    }

    /// Convenience: a `SimConfig` for this workload's machine.
    pub fn sim_config(&self) -> predictsim_sim::SimConfig {
        predictsim_sim::SimConfig::single(self.machine_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> GeneratedWorkload {
        generate(&WorkloadSpec::toy(), 7)
    }

    #[test]
    fn generates_requested_count_sorted_and_numbered() {
        let w = toy();
        assert_eq!(w.jobs.len(), 2000);
        for (i, j) in w.jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u32));
            assert!(j.validate().is_ok());
            assert!(j.requested >= j.run);
            assert!(j.procs <= w.machine_size);
            assert!(j.submit.0 >= 0);
        }
        for pair in w.jobs.windows(2) {
            assert!(pair[0].submit <= pair[1].submit);
        }
    }

    #[test]
    fn utilization_is_calibrated() {
        let w = toy();
        let u = w.stats.offered_utilization;
        // Clamping and crash injection bleed some work; stay in a band.
        assert!(
            (0.4..1.1).contains(&u),
            "offered utilization {u} far from the 0.75 target"
        );
    }

    #[test]
    fn overestimation_is_substantial() {
        let w = toy();
        assert!(
            w.stats.mean_overestimate > 2.0,
            "mean overestimate {} too small to matter",
            w.stats.mean_overestimate
        );
    }

    #[test]
    fn crash_fraction_near_spec() {
        let w = toy();
        let spec_rate = WorkloadSpec::toy().crash_rate;
        let frac = w.stats.crashed_jobs as f64 / w.stats.jobs as f64;
        assert!(
            (frac - spec_rate).abs() < 0.04,
            "crash fraction {frac} far from spec {spec_rate}"
        );
    }

    #[test]
    fn per_user_runtime_locality_exists() {
        // For users with enough jobs, consecutive runtimes should often be
        // within 50% of each other (session/class locality) — this is the
        // signal AVE₂ and the ML features rely on.
        let w = toy();
        // BTreeMap: deterministic iteration order, unlike std::HashMap
        // whose per-instance random seed could make this test flaky and
        // would leak ordering if a map like this ever fed generation.
        let mut per_user: std::collections::BTreeMap<u32, Vec<i64>> = Default::default();
        for j in &w.jobs {
            per_user.entry(j.user).or_default().push(j.run);
        }
        let mut close = 0usize;
        let mut total = 0usize;
        for runs in per_user.values().filter(|r| r.len() >= 10) {
            for pair in runs.windows(2) {
                let (a, b) = (pair[0] as f64, pair[1] as f64);
                if (a / b).max(b / a) < 2.0 {
                    close += 1;
                }
                total += 1;
            }
        }
        assert!(total > 100, "not enough per-user sequences ({total})");
        let frac = close as f64 / total as f64;
        assert!(
            frac > 0.5,
            "locality too weak: only {frac:.2} of pairs close"
        );
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = generate(&WorkloadSpec::toy(), 7);
        let b = generate(&WorkloadSpec::toy(), 7);
        assert_eq!(a.jobs, b.jobs);
        let c = generate(&WorkloadSpec::toy(), 8);
        assert_ne!(a.jobs, c.jobs, "different seeds must differ");
    }

    #[test]
    fn fast_sampler_path_is_deterministic_and_plausible() {
        // Above FAST_SAMPLER_CUTOVER the prefix-sum sampler drives user
        // selection; it must be just as deterministic, and still spread
        // sessions across the population.
        let mut spec = WorkloadSpec::toy();
        spec.users = FAST_SAMPLER_CUTOVER + 2_000;
        spec.jobs = 1_500;
        let a = generate(&spec, 3);
        let b = generate(&spec, 3);
        assert_eq!(a.jobs, b.jobs);
        assert!(
            a.stats.active_users > 300,
            "only {} distinct users from a {}-user population",
            a.stats.active_users,
            spec.users
        );
    }

    /// Regression pin: generation must be byte-stable across processes
    /// and platforms, not merely within one process (an iteration-order
    /// leak from a randomly seeded map would pass the in-process
    /// double-generation check above but break this fingerprint).
    #[test]
    fn generation_fingerprint_is_pinned() {
        let w = toy();
        let mut bytes = Vec::with_capacity(w.jobs.len() * 48);
        for j in &w.jobs {
            for word in [
                j.id.0 as u64,
                j.submit.0 as u64,
                j.run as u64,
                j.requested as u64,
                j.procs as u64,
                j.user as u64,
                j.user_ix as u64,
                j.swf_id,
            ] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        assert_eq!(
            predictsim_sim::hash::fnv1a64(&bytes),
            PINNED_TOY_FINGERPRINT,
            "toy workload (seed 7) changed — generation is no longer \
             deterministic across runs, or the pipeline changed on purpose \
             (update the pin only in the latter case)"
        );
    }

    /// FNV-1a over the toy workload's job words, recorded from a known
    /// good build.
    const PINNED_TOY_FINGERPRINT: u64 = 4361125763112862718;

    #[test]
    fn swf_export_round_trips_through_parser() {
        let w = toy();
        let text = predictsim_swf::write_log(&w.to_swf());
        let log = predictsim_swf::parse_log(&text).unwrap();
        assert_eq!(log.header.machine_size(), Some(w.machine_size as u64));
        // A generated log has nothing to clean (the SWF loader's own
        // round trip pins that), so conversion alone must reproduce it.
        let mut jobs: Vec<Job> = (0u32..)
            .zip(&log.records)
            .map(|(i, r)| predictsim_sim::job_from_swf(JobId(i), r).unwrap())
            .collect();
        predictsim_sim::intern_users(&mut jobs);
        assert_eq!(
            &jobs[..],
            &w.jobs[..],
            "write → parse → convert must reproduce every field, \
             interned user_ix included"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let w = toy();
        assert_eq!(w.stats.jobs, w.jobs.len());
        assert!(w.stats.active_users > 5);
        assert!(w.stats.mean_run > 10.0);
        assert!(w.stats.mean_procs >= 1.0);
        let work: f64 = w.jobs.iter().map(|j| j.run as f64 * j.procs as f64).sum();
        assert!((work - w.stats.total_work).abs() < 1e-6);
    }
}
