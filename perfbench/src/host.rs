//! Host diagnostics printed next to every result: core count, the
//! hypervisor's steal share over the timed phase, load average, peak
//! RSS and the commit. None of them gates a run.

use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU tick counters from `/proc/stat`: (steal, total).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of CPU ticks stolen by the hypervisor between two samples.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a repository.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU seconds (user + system) from a `/proc` stat file. The kernel
/// books stolen time as steal, not to the task, so this excludes it.
fn stat_cpu_s(path: &str) -> Option<f64> {
    /// `/proc` reports CPU time in USER_HZ ticks, 100 per second on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after "pid (comm) ": utime and stime are the 12th and 13th.
    let fields: Vec<&str> = stat
        .get(stat.rfind(')')? + 2..)?
        .split_whitespace()
        .collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / TICKS_PER_S)
}

/// CPU seconds this process has used, exited threads included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat").unwrap_or(0.0)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat").unwrap_or(0.0)
}
