//! Bounded slowdown (§5.3 of the paper).
//!
//! For a job `j` with waiting time `wait_j` and actual running time `p_j`,
//! the *bounded slowdown* is
//!
//! ```text
//! bsld(j) = max( (wait_j + p_j) / max(p_j, τ), 1 )
//! ```
//!
//! where `τ` is a constant preventing very small jobs from reaching huge
//! slowdown values. Following the paper (and the literature it cites, \[4\]),
//! `τ = 10` seconds; this is [`DEFAULT_TAU`].
//!
//! The scheduling objective used throughout the paper's evaluation is the
//! average of `bsld` over all jobs, `AVEbsld`; a simulation result
//! computes it (`SimResult::ave_bsld` in `predictsim-sim`).

/// The paper's value of the bounding constant τ, in seconds (§5.3).
pub const DEFAULT_TAU: f64 = 10.0;

/// Bounded slowdown of a single job (§5.3).
///
/// `wait` and `run` are the job's waiting and running times in seconds, and
/// `tau` the bounding constant (use [`DEFAULT_TAU`] to follow the paper).
///
/// The result is always ≥ 1, and equals 1 for any job that starts
/// immediately (`wait == 0`).
///
/// # Examples
///
/// ```
/// use predictsim_metrics::{bounded_slowdown, DEFAULT_TAU};
///
/// // A job that waited as long as it ran has slowdown 2.
/// assert_eq!(bounded_slowdown(100.0, 100.0, DEFAULT_TAU), 2.0);
/// // Tiny jobs are bounded by tau: a 1s job waiting 9s is *not* slowed
/// // down 10x, because the denominator is clamped to tau = 10s.
/// assert_eq!(bounded_slowdown(9.0, 1.0, DEFAULT_TAU), 1.0);
/// ```
pub fn bounded_slowdown(wait: f64, run: f64, tau: f64) -> f64 {
    let denom = run.max(tau);
    debug_assert!(denom > 0.0, "bounded_slowdown denominator must be positive");
    ((wait + run) / denom).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wait_gives_unit_slowdown() {
        assert_eq!(bounded_slowdown(0.0, 500.0, DEFAULT_TAU), 1.0);
    }

    #[test]
    fn long_job_slowdown_is_flow_over_run() {
        // 1h wait, 1h run -> slowdown 2.
        assert_eq!(bounded_slowdown(3600.0, 3600.0, DEFAULT_TAU), 2.0);
    }

    #[test]
    fn tiny_job_is_bounded_by_tau() {
        // 1s job waiting 99s: unbounded slowdown would be 100, bounded uses
        // denominator tau=10 -> (99+1)/10 = 10.
        assert_eq!(bounded_slowdown(99.0, 1.0, DEFAULT_TAU), 10.0);
    }

    #[test]
    fn slowdown_never_below_one() {
        assert_eq!(bounded_slowdown(0.0, 1.0, DEFAULT_TAU), 1.0);
        assert_eq!(bounded_slowdown(0.0, 0.0, DEFAULT_TAU), 1.0);
    }
}
