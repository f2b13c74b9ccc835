//! Wall-clock accounting for `repro --timing`: per-phase timers and the
//! markdown section `repro` prints from them.

use std::time::Instant;

/// Accumulates named phase durations for one `repro` run.
#[derive(Debug)]
pub struct PhaseTimer {
    started: Instant,
    phases: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimer {
    /// Starts the run clock.
    pub fn new() -> Self {
        PhaseTimer {
            started: Instant::now(),
            phases: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Runs `f`, recording its wall-clock under `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let result = f();
        self.phases
            .push((name.to_string(), t0.elapsed().as_secs_f64()));
        result
    }

    /// Records an externally measured duration (sub-phase rows, e.g. the
    /// per-log breakdown of the campaigns phase).
    pub fn record(&mut self, name: &str, secs: f64) {
        self.phases.push((name.to_string(), secs));
    }

    /// Appends a free-form annotation rendered after the timing table
    /// (cache-effectiveness counts and the like).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The recorded `(phase, seconds)` pairs, in execution order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// Seconds since the timer was created.
    pub fn total(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Renders the timing section `repro --timing` prints: a heading,
    /// the run configuration (including which experiments ran, so a
    /// partial run can never masquerade as a full one), and one row per
    /// phase.
    pub fn render_markdown(
        &self,
        scale: f64,
        seed: u64,
        threads: usize,
        experiments: &str,
    ) -> String {
        let mut out = format!(
            "## Timing (`repro --timing`)\n\n\
             Configuration: scale {scale}, seed {seed}, {threads} pool thread{}, \
             experiments: {experiments}.\n\n\
             | phase | wall-clock (s) |\n|---|---|\n",
            if threads == 1 { "" } else { "s" },
        );
        for (name, secs) in &self.phases {
            out.push_str(&format!("| {name} | {secs:.2} |\n"));
        }
        out.push_str(&format!("| **total** | **{:.2}** |\n", self.total()));
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("- {note}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_phases_in_order() {
        let mut t = PhaseTimer::new();
        let x = t.time("alpha", || 2 + 2);
        assert_eq!(x, 4);
        t.time("beta", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let names: Vec<&str> = t.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert!(t.phases()[1].1 > 0.0);
        assert!(t.total() >= t.phases()[1].1);
    }

    #[test]
    fn render_contains_config_and_rows() {
        let mut t = PhaseTimer::new();
        t.time("campaigns", || ());
        let md = t.render_markdown(0.05, 20150101, 8, "all");
        assert!(md.contains("scale 0.05, seed 20150101, 8 pool threads"));
        assert!(md.contains("experiments: all"));
        assert!(md.contains("| campaigns |"));
        assert!(md.contains("**total**"));
    }
}
