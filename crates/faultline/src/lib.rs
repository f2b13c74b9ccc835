//! # predictsim-faultline
//!
//! Seeded, **deterministic** fault injection for the IO surfaces of the
//! reproduction: the disk cache (`experiments::cache`), the serve
//! socket loop, the SWF trace reader, and the simulation worker
//! cells. Production code asks this crate — at named *injection sites*
//! such as `"cache.write"` or `"cell.panic"` — whether a fault should
//! fire *now*; with no plan installed every query is a zero-cost
//! passthrough (one relaxed atomic load), so hot paths and golden pins
//! are untouched.
//!
//! A *fault plan* maps site names to a firing rule:
//!
//! * `p` — firing probability per call (default `1.0`);
//! * `max` — cap on total fires for the site (default unlimited);
//! * `after` — number of initial calls to leave untouched (default `0`);
//! * `kind` — `transient` (surfaced as [`std::io::ErrorKind::Interrupted`],
//!   retryable) or `hard` (surfaced as a generic IO error, not
//!   retryable). Default `transient`.
//!
//! Decisions are a pure function of `(plan seed, site name, per-site
//! call index)` — no wall clock, no global RNG — so a plan replays
//! identically across runs, threads notwithstanding (each site call
//! atomically takes the next index). Two runs with the same plan and
//! the same per-site call sequences fire the same faults.
//!
//! A plan has one spelling, the grammar below. Binaries read it from the
//! `REPRO_FAULTS` environment variable (parsed once, on first query; it
//! may only name the sites production code consults — [`active_summary`]
//! is the startup check); tests pass it to [`FaultPlan::parse`] and
//! install the result with [`with_plan`]. Comma-separated clauses:
//!
//! ```text
//! REPRO_FAULTS="seed=42,cache.write:p=0.05:max=3,cell.panic:p=1:max=1,swf.read:p=0.01:kind=transient"
//! ```
//!
//! Tests that install a plan affect the *whole process*; keep such
//! tests in their own integration-test binary and serialize them with
//! [`with_plan`], which holds a process-wide lock and uninstalls the
//! plan (restoring passthrough) when the closure finishes — even by
//! panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

// ---------------------------------------------------------------------------
// Plan description
// ---------------------------------------------------------------------------

/// How a fired fault is surfaced to the injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// A retryable hiccup: IO sites surface it as
    /// [`std::io::ErrorKind::Interrupted`]; hardened callers absorb it
    /// with a bounded retry.
    Transient,
    /// A persistent failure: IO sites surface it as a generic IO error.
    /// Hardened callers degrade (e.g. the disk cache falls back to
    /// memory-only) rather than retry forever.
    Hard,
}

/// Firing rule for one injection site.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultSpec {
    /// Probability in `[0, 1]` that any given call fires.
    p: f64,
    /// Cap on the total number of fires (`None` = unlimited).
    max: Option<u64>,
    /// Number of initial calls that never fire.
    after: u64,
    /// How a fire is surfaced.
    kind: FaultKind,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            p: 1.0,
            max: None,
            after: 0,
            kind: FaultKind::Transient,
        }
    }
}

/// A complete fault plan: a seed plus per-site firing rules.
///
/// Build one with [`FaultPlan::parse`] (the `REPRO_FAULTS` grammar),
/// then activate it with [`with_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, FaultSpec>,
}

impl FaultPlan {
    /// Parse the `REPRO_FAULTS` grammar (see the crate docs). An empty
    /// (or all-whitespace) string yields an empty plan, which installs
    /// as "no faults".
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan {
            seed: 0,
            sites: BTreeMap::new(),
        };
        for clause in text.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| PlanError(format!("bad seed `{seed}`")))?;
                continue;
            }
            let mut parts = clause.split(':');
            let site = parts.next().expect("split yields at least one part").trim();
            if site.is_empty() || site.contains('=') {
                return Err(PlanError(format!(
                    "bad clause `{clause}`: expected `site[:key=value...]` or `seed=N`"
                )));
            }
            let mut spec = FaultSpec::default();
            for opt in parts {
                let opt = opt.trim();
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| PlanError(format!("bad option `{opt}` in `{clause}`")))?;
                match key.trim() {
                    "p" => {
                        let p: f64 = value
                            .trim()
                            .parse()
                            .map_err(|_| PlanError(format!("bad p `{value}` in `{clause}`")))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(PlanError(format!(
                                "p out of range [0,1]: `{value}` in `{clause}`"
                            )));
                        }
                        spec.p = p;
                    }
                    "max" => {
                        spec.max =
                            Some(value.trim().parse().map_err(|_| {
                                PlanError(format!("bad max `{value}` in `{clause}`"))
                            })?);
                    }
                    "after" => {
                        spec.after = value
                            .trim()
                            .parse()
                            .map_err(|_| PlanError(format!("bad after `{value}` in `{clause}`")))?;
                    }
                    "kind" => {
                        spec.kind = match value.trim() {
                            "transient" => FaultKind::Transient,
                            "hard" => FaultKind::Hard,
                            other => {
                                return Err(PlanError(format!(
                                    "bad kind `{other}` in `{clause}` (transient|hard)"
                                )))
                            }
                        };
                    }
                    other => {
                        return Err(PlanError(format!(
                            "unknown option `{other}` in `{clause}` (p|max|after|kind)"
                        )));
                    }
                }
            }
            plan.sites.insert(site.to_string(), spec);
        }
        Ok(plan)
    }

    /// True when the plan names no sites (installing it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// One-line human summary: every site's `p`, and its `max`, `after`
    /// and `hard` when set — the `repro` banner, via [`active_summary`].
    fn summary(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for (site, spec) in &self.sites {
            out.push_str(&format!(" {site}(p={}", spec.p));
            if let Some(max) = spec.max {
                out.push_str(&format!(",max={max}"));
            }
            if spec.after > 0 {
                out.push_str(&format!(",after={}", spec.after));
            }
            if spec.kind == FaultKind::Hard {
                out.push_str(",hard");
            }
            out.push(')');
        }
        out
    }
}

/// Error from [`FaultPlan::parse`] or the [`active_summary`] check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

// ---------------------------------------------------------------------------
// Active plan (global state)
// ---------------------------------------------------------------------------

struct ActiveSite {
    name: String,
    spec: FaultSpec,
    calls: AtomicU64,
    fired: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    /// [`FaultPlan::summary`] of the installed plan.
    summary: String,
    // Linear scan: plans name a handful of sites and lookups are off
    // the zero-fault fast path anyway.
    sites: Vec<ActiveSite>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn plan_slot() -> &'static Mutex<Option<Arc<ActivePlan>>> {
    static SLOT: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);
    &SLOT
}

/// Every site production code consults. A `REPRO_FAULTS` clause naming
/// anything else could never fire, so the environment plan rejects it;
/// plans built in code ([`with_plan`]) may use any name.
const KNOWN_SITES: [&str; 8] = [
    "cache.read",
    "cache.write",
    "cache.rename",
    "cache.remove",
    "serve.read",
    "serve.write",
    "swf.read",
    "cell.panic",
];

/// Parses, validates and installs the `REPRO_FAULTS` plan. Runs under
/// `ENV_INIT`, i.e. at most once per process.
fn install_env_plan() -> Result<(), PlanError> {
    let Ok(text) = std::env::var("REPRO_FAULTS") else {
        return Ok(());
    };
    let plan = FaultPlan::parse(&text)
        .and_then(|plan| {
            match plan
                .sites
                .keys()
                .find(|s| !KNOWN_SITES.contains(&s.as_str()))
            {
                Some(site) => Err(PlanError(format!("unknown site `{site}`"))),
                None => Ok(plan),
            }
        })
        .map_err(|PlanError(why)| {
            PlanError(format!("{why} (known sites: {})", KNOWN_SITES.join(", ")))
        })?;
    install(Some(plan));
    Ok(())
}

fn current_plan() -> Option<Arc<ActivePlan>> {
    ENV_INIT.call_once(|| {
        if let Err(err) = install_env_plan() {
            // A binary that skipped the `active_summary` startup check:
            // a typo'd plan silently running fault-free would be worse
            // than noise on stderr.
            eprintln!("warning: ignoring REPRO_FAULTS: {err}");
        }
    });
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    plan_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Install `plan` process-wide (replacing any previous plan, resetting
/// all per-site counters); `None` — or an empty plan — restores the
/// zero-cost passthrough.
fn install(plan: Option<FaultPlan>) {
    let active = plan.filter(|p| !p.is_empty()).map(|p| {
        Arc::new(ActivePlan {
            seed: p.seed,
            summary: p.summary(),
            sites: p
                .sites
                .into_iter()
                .map(|(name, spec)| ActiveSite {
                    name,
                    spec,
                    calls: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                })
                .collect(),
        })
    });
    let mut slot = plan_slot().lock().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(active.is_some(), Ordering::Relaxed);
    *slot = active;
}

/// True when a non-empty fault plan is active. One relaxed atomic load
/// (plus a one-time `REPRO_FAULTS` parse on the very first call).
fn enabled() -> bool {
    if !ENV_INIT.is_completed() {
        return current_plan().is_some();
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with `plan` installed, serialized against every other
/// `with_plan` caller in the process, and uninstall the plan afterwards
/// — even if `f` panics. This is the only safe way to use faults from
/// tests that share a binary.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            install(None);
        }
    }
    let _uninstall = Uninstall;
    install(Some(plan));
    f()
}

/// Fired-fault counts per site, for assertions and the `repro` banner.
/// Empty when no plan is active.
pub fn fired_counts() -> Vec<(String, u64)> {
    match current_plan() {
        None => Vec::new(),
        Some(plan) => plan
            .sites
            .iter()
            .map(|s| (s.name.clone(), s.fired.load(Ordering::Relaxed)))
            .collect(),
    }
}

/// The startup check for binaries that honour `REPRO_FAULTS`: parses
/// the environment plan (if this call is the first query) and returns a
/// one-line description of the active plan for log banners, `None` in
/// passthrough mode. A plan that does not parse, or that names a site
/// nothing consults, is an error listing the known sites — the caller
/// should refuse to run rather than run fault-free.
pub fn active_summary() -> Result<Option<String>, PlanError> {
    let mut checked = Ok(());
    ENV_INIT.call_once(|| checked = install_env_plan());
    checked?;
    Ok(current_plan().map(|plan| plan.summary.clone()))
}

// ---------------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------------

fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(bits: u64) -> f64 {
    // 53 high-entropy bits → [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn roll(plan: &ActivePlan, site: &ActiveSite) -> Option<FaultKind> {
    let call = site.calls.fetch_add(1, Ordering::Relaxed);
    if call < site.spec.after {
        return None;
    }
    let bits = splitmix64(plan.seed ^ fnv1a(&site.name) ^ call.wrapping_add(1));
    if unit(bits) >= site.spec.p {
        return None;
    }
    if let Some(max) = site.spec.max {
        // Exact cap even under concurrent callers.
        if site
            .fired
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fired| {
                (fired < max).then_some(fired + 1)
            })
            .is_err()
        {
            return None;
        }
    } else {
        site.fired.fetch_add(1, Ordering::Relaxed);
    }
    Some(site.spec.kind)
}

/// The decision behind [`io_fault`], [`maybe_panic`] and [`FaultyRead`].
fn fault_at(site: &str) -> Option<FaultKind> {
    let plan = current_plan()?;
    let active = plan.sites.iter().find(|s| s.name == site)?;
    roll(&plan, active)
}

/// Decide whether `site` fires on this call (consuming one call index),
/// mapped to an [`io::Error`]: transient faults become
/// [`io::ErrorKind::Interrupted`] (retryable), hard faults a generic
/// error. `None` means "proceed with the real operation" — always, in
/// passthrough mode or for sites the plan doesn't name.
pub fn io_fault(site: &str) -> Option<io::Error> {
    match fault_at(site)? {
        FaultKind::Transient => Some(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient fault at {site}"),
        )),
        FaultKind::Hard => Some(io::Error::other(format!("injected hard fault at {site}"))),
    }
}

/// Panic (deterministically) if `site` fires — the poison-cell
/// injection used to exercise `catch_unwind` isolation in the serve
/// worker pool and campaign fan-out.
pub fn maybe_panic(site: &str) {
    if fault_at(site).is_some() {
        panic!("injected panic at fault site {site}");
    }
}

// ---------------------------------------------------------------------------
// FaultyRead
// ---------------------------------------------------------------------------

/// A [`Read`] adapter that consults a fault site on every `read` call.
///
/// * transient fire → the call returns [`io::ErrorKind::Interrupted`]
///   without consuming input (standard-library buffered readers retry
///   this transparently, which is exactly the property the hardened
///   trace readers rely on);
/// * hard fire → the stream is *truncated mid-record*: the call
///   delivers at most half of what the inner reader produced, and every
///   later call reports end-of-file.
///
/// In passthrough mode the adapter forwards straight to the inner
/// reader.
pub struct FaultyRead<R> {
    inner: R,
    site: &'static str,
    truncated: bool,
}

impl<R: Read> FaultyRead<R> {
    /// Wrap `inner`, consulting `site` on every read.
    pub fn new(inner: R, site: &'static str) -> Self {
        FaultyRead {
            inner,
            site,
            truncated: false,
        }
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.truncated {
            return Ok(0);
        }
        if enabled() {
            match fault_at(self.site) {
                Some(FaultKind::Transient) => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("injected transient fault at {}", self.site),
                    ));
                }
                Some(FaultKind::Hard) => {
                    self.truncated = true;
                    let n = self.inner.read(buf)?;
                    return Ok(n / 2);
                }
                None => {}
            }
        }
        self.inner.read(buf)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42, cache.write:p=0.05:max=3:kind=transient ,cell.panic:max=1, index.flush:p=0.5:after=2:kind=hard",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.sites["cache.write"],
            FaultSpec {
                p: 0.05,
                max: Some(3),
                after: 0,
                kind: FaultKind::Transient
            }
        );
        assert_eq!(
            plan.sites["cell.panic"],
            FaultSpec {
                p: 1.0,
                max: Some(1),
                after: 0,
                kind: FaultKind::Transient
            }
        );
        assert_eq!(
            plan.sites["index.flush"],
            FaultSpec {
                p: 0.5,
                max: None,
                after: 2,
                kind: FaultKind::Hard
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "seed=x",
            "site:p=nope",
            "site:p=1.5",
            "site:frobnicate=1",
            "site:kind=soft",
            "site:p",
            "=5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ,").unwrap().is_empty());
    }

    #[test]
    fn passthrough_without_plan() {
        // Note: other tests in this binary install plans via with_plan,
        // which serializes on a lock and uninstalls afterwards; outside
        // it, every query must be inert.
        with_plan(FaultPlan::parse("").unwrap(), || {
            assert!(fault_at("cache.write").is_none());
            assert!(io_fault("cache.write").is_none());
            maybe_panic("cell.panic");
            assert!(fired_counts().is_empty());
            assert_eq!(active_summary(), Ok(None));
        });
    }

    #[test]
    fn deterministic_across_installs() {
        let plan = || FaultPlan::parse("seed=7,s:p=0.3").unwrap();
        let run = || {
            with_plan(plan(), || {
                (0..200)
                    .map(|_| fault_at("s").is_some())
                    .collect::<Vec<_>>()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let fires = a.iter().filter(|f| **f).count();
        // p = 0.3 over 200 calls: loose bounds, deterministic anyway.
        assert!((30..=90).contains(&fires), "unexpected fire count {fires}");
    }

    #[test]
    fn seed_changes_decisions() {
        let decisions = |seed| {
            let plan = FaultPlan::parse(&format!("seed={seed},s:p=0.5")).unwrap();
            with_plan(plan, || {
                (0..64).map(|_| fault_at("s").is_some()).collect::<Vec<_>>()
            })
        };
        assert_ne!(decisions(1), decisions(2));
    }

    #[test]
    fn max_and_after_are_honored() {
        let plan = FaultPlan::parse("seed=0,s:p=1:max=3:after=5:kind=hard").unwrap();
        with_plan(plan, || {
            let fires: Vec<bool> = (0..12).map(|_| fault_at("s").is_some()).collect();
            assert_eq!(&fires[..5], &[false; 5], "first `after` calls must pass");
            assert_eq!(fires.iter().filter(|f| **f).count(), 3, "capped at max");
            assert_eq!(fired_counts(), vec![("s".to_string(), 3)]);
        });
    }

    #[test]
    fn io_fault_kinds_map_to_errorkind() {
        let plan = FaultPlan::parse("seed=0,t:max=1,h:kind=hard:max=1").unwrap();
        with_plan(plan, || {
            assert_eq!(io_fault("t").unwrap().kind(), io::ErrorKind::Interrupted);
            let hard = io_fault("h").unwrap();
            assert_ne!(hard.kind(), io::ErrorKind::Interrupted);
            assert!(io_fault("t").is_none(), "max=1 exhausted");
        });
    }

    #[test]
    fn maybe_panic_fires() {
        let plan = FaultPlan::parse("boom:max=1").unwrap();
        with_plan(plan, || {
            let err = std::panic::catch_unwind(|| maybe_panic("boom")).unwrap_err();
            let text = err.downcast_ref::<String>().expect("panic payload");
            assert!(text.contains("boom"), "{text}");
            maybe_panic("boom"); // exhausted → no panic
        });
    }

    #[test]
    fn faulty_read_transient_is_transparent_under_bufreader() {
        let data = b"line one\nline two\nline three\n";
        let plan = FaultPlan::parse("seed=3,test.read:p=0.7").unwrap();
        let lines = with_plan(plan, || {
            // Tiny capacity so the reader takes many inner reads.
            let faulty = FaultyRead::new(&data[..], "test.read");
            let reader = BufReader::with_capacity(4, faulty);
            reader.lines().map(|l| l.unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(lines, vec!["line one", "line two", "line three"]);
    }

    #[test]
    fn faulty_read_hard_truncates_to_eof() {
        let data = vec![0xABu8; 1024];
        let plan = FaultPlan::parse("test.trunc:kind=hard").unwrap();
        let total = with_plan(plan, || {
            let mut faulty = FaultyRead::new(&data[..], "test.trunc");
            let mut out = Vec::new();
            faulty.read_to_end(&mut out).unwrap();
            out.len()
        });
        assert!(total < data.len(), "stream must be truncated, got {total}");
        // And EOF is sticky.
    }

    #[test]
    fn with_plan_uninstalls_on_panic() {
        let plan = FaultPlan::parse("s:p=1").unwrap();
        let _ = std::panic::catch_unwind(|| {
            with_plan(plan, || panic!("boom"));
        });
        assert!(
            fault_at("s").is_none(),
            "plan must be gone after panicking with_plan"
        );
    }

    /// The banner `repro` prints is the installed plan's full summary,
    /// `max`, `after` and `hard` included.
    #[test]
    fn summary_mentions_sites() {
        let plan = FaultPlan::parse("seed=9,cache.write:p=0.25:max=2,cell.panic:kind=hard:after=4")
            .unwrap();
        let banner = with_plan(plan, active_summary)
            .unwrap()
            .expect("plan active");
        assert_eq!(
            banner,
            "seed=9 cache.write(p=0.25,max=2) cell.panic(p=1,after=4,hard)"
        );
    }
}
