//! The cluster model: an ordered set of processor partitions.
//!
//! The paper's platform (§2.3) is one homogeneous pool of `m`
//! processors. A [`ClusterSpec`] generalizes that to an *ordered* list
//! of partitions, each with its own processor count and a relative
//! speed factor; the 1-partition / speed-1.0 case is the exact legacy
//! machine, and every simulation on such a spec is byte-identical to
//! the pre-cluster engine (the golden-trace tests pin this).
//!
//! ## Semantics
//!
//! * **Placement** — the engine routes jobs *first-fit by partition
//!   order*: each scheduling instant runs one scheduler pass per
//!   partition, in declaration order, over the shared FCFS queue.
//!   Earlier partitions therefore get first pick; ties are resolved by
//!   that fixed order, never by iteration order of a map or by thread
//!   timing, so heterogeneous runs are as deterministic as homogeneous
//!   ones.
//! * **Speed scaling** — a job with actual running time `p` placed on a
//!   partition of speed `s` runs for `ceil(p / s)` seconds (at least 1);
//!   see [`Partition::scaled_run`]. The requested time `p̃` is a
//!   wall-clock contract with the user and is *not* scaled: a slow
//!   partition can push a job past its request, in which case it is
//!   killed at `p̃` exactly as on the legacy machine. Speed 1.0 skips
//!   the float division (a measured saving, not a different value).
//! * **Identity** — [`ClusterSpec::fingerprint`] and the canonical
//!   [`std::fmt::Display`] form distinguish specs with equal total
//!   processor counts (`cluster:64` vs `cluster:32x1+32x1`), which the
//!   experiment cache keys rely on.
//!
//! ## Grammar
//!
//! ```text
//! SPEC      := SIZE                      (legacy shorthand, speed 1.0)
//!            | "cluster:" PART ("+" PART)*
//! PART      := SIZE ("x" SPEED)?
//! SIZE      := positive integer         (processors)
//! SPEED     := positive finite float    (default 1.0)
//! ```
//!
//! `64`, `cluster:64` and `cluster:64x1` all denote the same legacy
//! machine and display canonically as `cluster:64`.

use crate::hash::fnv1a64;

/// Maximum number of partitions a [`ClusterSpec`] can hold. Keeping the
/// spec a fixed-size `Copy` value lets `SimConfig` stay `Copy` and keeps
/// every per-partition loop allocation-free.
pub const MAX_PARTITIONS: usize = 8;

/// One partition: a pool of identical processors with a relative speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Processor count of this partition.
    pub size: u32,
    /// Relative speed factor (1.0 = the paper's reference machine; 0.5
    /// runs jobs twice as long). Positive and finite.
    pub speed: f64,
}

impl Partition {
    /// The wall-clock running time of a job whose reference running
    /// time is `run`, on this partition: `ceil(run / speed)`, at least
    /// one second. Speed 1.0 returns `run` untouched. The float path
    /// would give the same value (`run ≥ 1` is validated and runs stay
    /// below 2⁵³); the branch is kept for its measured cost: without it
    /// `campaign_cold` fell from 48.5 to 44.8 `cells_per_s` and user CPU
    /// rose from 34.6 to 36.7 s (slower in 4 of 5 alternating pairs on a
    /// 2-vCPU host).
    #[inline]
    pub fn scaled_run(&self, run: i64) -> i64 {
        if self.speed == 1.0 {
            run
        } else {
            ((run as f64 / self.speed).ceil() as i64).max(1)
        }
    }
}

/// An ordered, fixed-capacity list of [`Partition`]s — the machine a
/// simulation runs on. See the module docs for semantics and grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    len: u8,
    parts: [Partition; MAX_PARTITIONS],
}

/// A malformed cluster specification (see the module-level grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterSpecError {
    /// The spec string or partition list was empty.
    Empty,
    /// More than [`MAX_PARTITIONS`] partitions.
    TooManyPartitions {
        /// How many were given.
        given: usize,
    },
    /// A partition's processor count was zero or unparsable.
    BadSize {
        /// The offending partition text.
        part: String,
    },
    /// A partition's speed was non-positive, non-finite, or unparsable.
    BadSpeed {
        /// The offending partition text.
        part: String,
    },
}

impl std::fmt::Display for ClusterSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterSpecError::Empty => write!(f, "empty cluster spec"),
            ClusterSpecError::TooManyPartitions { given } => {
                write!(
                    f,
                    "{given} partitions exceed the maximum of {MAX_PARTITIONS}"
                )
            }
            ClusterSpecError::BadSize { part } => {
                write!(f, "partition {part:?} needs a positive processor count")
            }
            ClusterSpecError::BadSpeed { part } => {
                write!(f, "partition {part:?} needs a positive finite speed")
            }
        }
    }
}

impl std::error::Error for ClusterSpecError {}

impl ClusterSpec {
    /// The legacy machine: one partition of `machine_size` processors at
    /// speed 1.0.
    pub fn single(machine_size: u32) -> Self {
        let mut parts = [Partition {
            size: 0,
            speed: 1.0,
        }; MAX_PARTITIONS];
        parts[0] = Partition {
            size: machine_size,
            speed: 1.0,
        };
        Self { len: 1, parts }
    }

    /// Builds a spec from an explicit partition list.
    pub fn from_partitions(partitions: &[Partition]) -> Result<Self, ClusterSpecError> {
        if partitions.is_empty() {
            return Err(ClusterSpecError::Empty);
        }
        if partitions.len() > MAX_PARTITIONS {
            return Err(ClusterSpecError::TooManyPartitions {
                given: partitions.len(),
            });
        }
        let mut parts = [Partition {
            size: 0,
            speed: 1.0,
        }; MAX_PARTITIONS];
        for (i, p) in partitions.iter().enumerate() {
            if p.size == 0 {
                return Err(ClusterSpecError::BadSize {
                    part: format!("{}x{}", p.size, p.speed),
                });
            }
            if !(p.speed.is_finite() && p.speed > 0.0) {
                return Err(ClusterSpecError::BadSpeed {
                    part: format!("{}x{}", p.size, p.speed),
                });
            }
            parts[i] = *p;
        }
        Ok(Self {
            len: partitions.len() as u8,
            parts,
        })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false — a spec holds at least one partition.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The partitions, in routing (first-fit) order.
    pub fn partitions(&self) -> &[Partition] {
        &self.parts[..self.len as usize]
    }

    /// The partition at `index`.
    pub fn part(&self, index: usize) -> Partition {
        self.parts[index]
    }

    /// Total processors across all partitions — the `m` that aggregate
    /// metrics (utilization) and workload validation totals refer to.
    pub fn total_procs(&self) -> u32 {
        self.partitions().iter().map(|p| p.size).sum()
    }

    /// The widest partition — the largest job the cluster can run.
    pub fn max_partition_size(&self) -> u32 {
        self.partitions().iter().map(|p| p.size).max().unwrap_or(0)
    }

    /// Whether this is the exact legacy machine: one partition at
    /// speed 1.0. Simulations on such specs are byte-identical to the
    /// pre-cluster engine.
    pub fn is_single_homogeneous(&self) -> bool {
        self.len == 1 && self.parts[0].speed == 1.0
    }

    /// A stable content hash over the canonical encoding (partition
    /// count, then each partition's size and speed bits, little-endian).
    /// Two specs with equal total processors but different partitioning
    /// or speeds hash differently — the cache-identity requirement.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(1 + self.len() * 12);
        bytes.push(self.len);
        for p in self.partitions() {
            bytes.extend_from_slice(&p.size.to_le_bytes());
            bytes.extend_from_slice(&p.speed.to_bits().to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

impl std::fmt::Display for ClusterSpec {
    /// Canonical form: `cluster:64` for the legacy machine, otherwise
    /// `cluster:<size>x<speed>+...` with shortest-round-trip speeds.
    /// Parsing the rendered string yields the identical spec.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster:")?;
        if self.is_single_homogeneous() {
            return write!(f, "{}", self.parts[0].size);
        }
        for (i, p) in self.partitions().iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{}x{}", p.size, p.speed)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ClusterSpec {
    type Err = ClusterSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ClusterSpecError::Empty);
        }
        let body = s.strip_prefix("cluster:").unwrap_or(s);
        if body.is_empty() {
            return Err(ClusterSpecError::Empty);
        }
        let mut partitions = Vec::new();
        for part in body.split('+') {
            let part = part.trim();
            let (size_text, speed_text) = match part.split_once('x') {
                Some((size, speed)) => (size, Some(speed)),
                None => (part, None),
            };
            let size: u32 = size_text
                .trim()
                .parse()
                .ok()
                .filter(|&v| v > 0)
                .ok_or_else(|| ClusterSpecError::BadSize { part: part.into() })?;
            let speed: f64 = match speed_text {
                Some(text) => text
                    .trim()
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| ClusterSpecError::BadSpeed { part: part.into() })?,
                None => 1.0,
            };
            partitions.push(Partition { size, speed });
        }
        Self::from_partitions(&partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_the_legacy_machine() {
        let c = ClusterSpec::single(64);
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_procs(), 64);
        assert_eq!(c.max_partition_size(), 64);
        assert!(c.is_single_homogeneous());
        assert_eq!(c.to_string(), "cluster:64");
    }

    #[test]
    fn parses_legacy_shorthand_and_prefixed_forms() {
        let bare: ClusterSpec = "64".parse().unwrap();
        let prefixed: ClusterSpec = "cluster:64".parse().unwrap();
        let explicit: ClusterSpec = "cluster:64x1".parse().unwrap();
        assert_eq!(bare, ClusterSpec::single(64));
        assert_eq!(prefixed, bare);
        assert_eq!(explicit, bare);
    }

    #[test]
    fn parses_heterogeneous_specs() {
        let c: ClusterSpec = "cluster:64x1.0+32x0.5".parse().unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.part(0).size, 64);
        assert_eq!(c.part(0).speed, 1.0);
        assert_eq!(c.part(1).size, 32);
        assert_eq!(c.part(1).speed, 0.5);
        assert_eq!(c.total_procs(), 96);
        assert_eq!(c.max_partition_size(), 64);
        assert!(!c.is_single_homogeneous());
        assert_eq!(c.to_string(), "cluster:64x1+32x0.5");
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "64",
            "cluster:64",
            "cluster:64x1.0+32x0.5",
            "cluster:8x2+8x2+8x2",
            "cluster:32x1+32x1",
            "cluster:16x0.25",
        ] {
            let c: ClusterSpec = text.parse().unwrap();
            let rendered = c.to_string();
            let reparsed: ClusterSpec = rendered.parse().unwrap();
            assert_eq!(reparsed, c, "{text} -> {rendered}");
            assert_eq!(
                reparsed.to_string(),
                rendered,
                "canonical form is a fixpoint"
            );
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        assert_eq!("".parse::<ClusterSpec>(), Err(ClusterSpecError::Empty));
        assert_eq!(
            "cluster:".parse::<ClusterSpec>(),
            Err(ClusterSpecError::Empty)
        );
        assert!(matches!(
            "cluster:0".parse::<ClusterSpec>(),
            Err(ClusterSpecError::BadSize { .. })
        ));
        assert!(matches!(
            "cluster:64x0".parse::<ClusterSpec>(),
            Err(ClusterSpecError::BadSpeed { .. })
        ));
        assert!(matches!(
            "cluster:64x-1".parse::<ClusterSpec>(),
            Err(ClusterSpecError::BadSpeed { .. })
        ));
        assert!(matches!(
            "cluster:64xNaN".parse::<ClusterSpec>(),
            Err(ClusterSpecError::BadSpeed { .. })
        ));
        assert!(matches!(
            "cluster:abc".parse::<ClusterSpec>(),
            Err(ClusterSpecError::BadSize { .. })
        ));
        assert!(matches!(
            "cluster:1+1+1+1+1+1+1+1+1".parse::<ClusterSpec>(),
            Err(ClusterSpecError::TooManyPartitions { given: 9 })
        ));
    }

    #[test]
    fn equal_totals_fingerprint_differently() {
        let a: ClusterSpec = "cluster:64".parse().unwrap();
        let b: ClusterSpec = "cluster:32x1+32x1".parse().unwrap();
        let c: ClusterSpec = "cluster:64x0.5".parse().unwrap();
        assert_eq!(a.total_procs(), b.total_procs());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
        // Same spec, same fingerprint — stable across construction paths.
        assert_eq!(
            a.fingerprint(),
            "64".parse::<ClusterSpec>().unwrap().fingerprint()
        );
    }

    #[test]
    fn speed_scaling_rule() {
        let fast = Partition {
            size: 8,
            speed: 2.0,
        };
        let slow = Partition {
            size: 8,
            speed: 0.5,
        };
        let unit = Partition {
            size: 8,
            speed: 1.0,
        };
        assert_eq!(unit.scaled_run(100), 100);
        assert_eq!(fast.scaled_run(100), 50);
        assert_eq!(slow.scaled_run(100), 200);
        assert_eq!(fast.scaled_run(101), 51, "ceil, not floor");
        assert_eq!(fast.scaled_run(1), 1, "never below one second");
    }
}
