//! What the ledger reads from the host: CPU time, peak memory, hardware
//! threads.  Linux `/proc` only — the benchmark's numbers are taken there.

use std::fs;

/// Total CPU nanoseconds consumed so far by every live thread of this
/// process (`/proc/self/task/*/schedstat`, first field — nanosecond
/// resolution, where `/proc/self/stat` only has 10 ms ticks).  Pool
/// workers live as long as their service, so nothing measured exits
/// between two samples of one round.
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    let mut seen = false;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        if let Some(first) = fs::read_to_string(path)
            .ok()
            .as_deref()
            .and_then(|s| s.split_whitespace().next())
        {
            total += first.parse::<u64>().ok()?;
            seen = true;
        }
    }
    seen.then_some(total)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
