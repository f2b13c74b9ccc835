//! Experiment setup: which workloads, at what scale, from which seed.

use predictsim_workload::{all_six, generate, GeneratedWorkload, WorkloadSpec};

/// Default scale factor for the quick (CI-sized) experiment runs.
pub const QUICK_SCALE: f64 = 0.05;

/// Seed used by default throughout the repro harness: results in the
/// committed EXPERIMENTS.md were produced with this seed.
pub const DEFAULT_SEED: u64 = 20150101;

/// How the repro harness generates its workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSetup {
    /// Scale factor applied to the Table 4 presets (1.0 = full size).
    pub scale: f64,
    /// Workload generation seed.
    pub seed: u64,
}

impl ExperimentSetup {
    /// Quick setup (5% of the full log sizes): the default for `repro`,
    /// test suites and `bench/`; a full campaign finishes in seconds.
    pub fn quick() -> Self {
        Self {
            scale: QUICK_SCALE,
            seed: DEFAULT_SEED,
        }
    }

    /// Full Table 4 sizes (28k–495k jobs per log).
    pub fn full() -> Self {
        Self {
            scale: 1.0,
            seed: DEFAULT_SEED,
        }
    }

    /// The six log specs at this setup's scale.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        if (self.scale - 1.0).abs() < f64::EPSILON {
            all_six()
        } else {
            all_six()
                .into_iter()
                .map(|s| s.scaled(self.scale))
                .collect()
        }
    }

    /// Generates all six workloads.
    pub fn workloads(&self) -> Vec<GeneratedWorkload> {
        self.specs()
            .iter()
            .map(|s| generate(s, self.seed))
            .collect()
    }

    /// Finds one Table 4 spec at this setup's scale by name prefix
    /// (case-insensitive) — the lookup rule `--log` and
    /// [`ExperimentSetup::workload`] share. Names outside Table 4 fall
    /// back to the full preset registry (`toy`, the cloud-scale
    /// `millions-of-users` stressor), scaled the same way.
    pub fn spec(&self, name: &str) -> Option<WorkloadSpec> {
        self.specs()
            .into_iter()
            .find(|s| {
                s.name
                    .to_ascii_lowercase()
                    .starts_with(&name.to_ascii_lowercase())
            })
            .or_else(|| {
                let s = predictsim_workload::by_name(name)?;
                Some(if (self.scale - 1.0).abs() < f64::EPSILON {
                    s
                } else {
                    s.scaled(self.scale)
                })
            })
    }

    /// Generates one workload by Table 4 name (case-insensitive).
    pub fn workload(&self, name: &str) -> Option<GeneratedWorkload> {
        self.spec(name).map(|s| generate(&s, self.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_scales_all_six() {
        let setup = ExperimentSetup::quick();
        let specs = setup.specs();
        assert_eq!(specs.len(), 6);
        assert!(specs.iter().all(|s| s.name.contains('@')));
        // 5% of KTH's 28k jobs.
        assert_eq!(specs[0].jobs, 1400);
    }

    #[test]
    fn full_setup_uses_table4_sizes() {
        let specs = ExperimentSetup::full().specs();
        assert_eq!(specs[0].jobs, 28_000);
        assert_eq!(specs[4].jobs, 312_000);
        assert!(!specs[0].name.contains('@'));
    }

    #[test]
    fn workload_lookup_by_prefix() {
        let setup = ExperimentSetup {
            scale: 0.01,
            seed: 1,
        };
        let w = setup.workload("curie").expect("curie exists");
        assert_eq!(w.machine_size, 80_640);
        assert!(setup.workload("nope").is_none());
    }

    #[test]
    fn non_table4_presets_resolve_scaled() {
        let setup = ExperimentSetup {
            scale: 0.001,
            seed: 1,
        };
        let s = setup.spec("millions-of-users").expect("registry fallback");
        assert_eq!(s.jobs, 1_000, "scaled to 0.1%");
        assert_eq!(s.users, 400_000, "population is not scaled");
        let full = ExperimentSetup::full()
            .spec("millions-of-users")
            .expect("full scale");
        assert_eq!(full.jobs, 1_000_000);
    }
}
