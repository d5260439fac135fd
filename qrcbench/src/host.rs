//! Host readings from `/proc`: the resident-set high-water mark and the
//! CPU time the hypervisor stole. Steal is a diagnostic printed beside
//! the metrics, never a metric: it tells a slow run from a slow program.

use std::time::{SystemTime, UNIX_EPOCH};

/// Resets the process's peak resident set to its current size
/// (`5` → `/proc/self/clear_refs`), so the next [`peak_rss_mib`]
/// reading covers only what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set since start or the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Aggregate CPU jiffies: `(steal, total)` from the first `/proc/stat`
/// line, or `None` where the file is missing or malformed.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Adds the `(steal, total)` jiffies between two [`cpu_jiffies`]
/// readings to a running sum; `None` once any reading failed.
pub fn add_jiffies(
    sum: Option<(u64, u64)>,
    before: Option<(u64, u64)>,
    after: Option<(u64, u64)>,
) -> Option<(u64, u64)> {
    let ((steal, total), (s0, t0), (s1, t1)) = (sum?, before?, after?);
    Some((steal + s1.saturating_sub(s0), total + t1.saturating_sub(t0)))
}

/// Wall-clock seconds since the Unix epoch.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}
