//! Host facts and process accounting read from `/proc` (no libc
//! dependency), plus the calibration kernel that tells a disturbed run
//! from a slow program.

use std::time::Instant;

use serde::Value;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (including
/// ones that already exited), at `USER_HZ` resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MiB; 0 when `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set size (Linux ≥ 4.0: `5` to
/// `clear_refs`), so that a peak read later belongs to what ran in
/// between. Returns whether the kernel took it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `nproc`, CPU model, `rustc -V` and the git revision, recorded beside
/// every set of numbers. `git` is asked only when the repo root holds a
/// `.git` (an exported checkout does not: its revision is `unknown`), so
/// it never goes looking through parent directories.
pub fn facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git_rev = std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", root, "rev-parse", "--short", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(rustc)),
        ("git_rev".into(), Value::Str(git_rev)),
    ])
}

/// A fixed integer + pointer-chase kernel (~50 ms): timed right before
/// and right after every measured section. The program under test never
/// runs inside it, so when it reads slow the host was disturbed.
pub struct Calibration {
    next: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Builds the chase table in place: Sattolo's shuffle, driven by a
    /// fixed LCG, leaves one cycle through 2^20 slots. The table is 4 MiB
    /// — past L2, and small beside the smallest workload's resident set,
    /// because it stays allocated and so sits under every `peak_rss_mb`.
    pub fn new() -> Self {
        const SLOTS: usize = 1 << 20;
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..SLOTS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            next.swap(i, j);
        }
        Self { next }
    }

    /// One timed pass, milliseconds.
    pub fn run_ms(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..(1 << 19) {
            at = self.next[at as usize];
        }
        let mut mix = u64::from(at) | 1;
        for i in 0..(1u64 << 23) {
            mix = (mix ^ (mix >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i;
        }
        std::hint::black_box(mix);
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// What one measured section cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// Process start (`epoch`) to the start of the section: everything
    /// the run did before its measured work.
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` when the section started: what set-up alone peaked at.
    pub setup_peak_rss_mb: f64,
    /// `VmHWM` at the end of the section, reset at its start: the most
    /// that was resident while it ran, inputs included. Where the kernel
    /// refuses the reset it is the peak of the whole process.
    pub peak_rss_mb: f64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

/// Runs `section` once between two calibration passes, reading wall
/// clock, process CPU time and `VmHWM` around it; set-up's own peak is
/// read first and then cleared, so it cannot stand in for the section's.
/// `epoch` is the process start.
pub fn measure<T>(
    epoch: Instant,
    calibration: &Calibration,
    section: impl FnOnce() -> T,
) -> (T, Measured) {
    let calib_before_ms = calibration.run_ms();
    let setup_peak_rss_mb = peak_rss_mb();
    reset_peak_rss();
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let out = section();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let peak_rss_mb = peak_rss_mb();
    let calib_after_ms = calibration.run_ms();
    (
        out,
        Measured {
            setup_s: started.duration_since(epoch).as_secs_f64(),
            wall_s,
            cpu_s,
            setup_peak_rss_mb,
            peak_rss_mb,
            calib_before_ms,
            calib_after_ms,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 1.0);
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
