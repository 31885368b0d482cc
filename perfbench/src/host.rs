//! Facts about the process and host: memory counters from `/proc`, and
//! the run record (cores, CPU model, commit, compiler).

use std::path::Path;

/// A `kB` field of `/proc/self/status`, in KiB.
pub fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

pub fn rss_mib() -> f64 {
    status_kib("VmRSS") as f64 / 1024.0
}

pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") as f64 / 1024.0
}

/// Resident KiB of the mappings of `file` (the model bundle).
pub fn mapped_kib(file: &Path) -> u64 {
    let Some(name) = file.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap_or_default();
    let mut inside = false;
    let mut total = 0;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if first.contains('-') && !first.ends_with(':') {
            inside = line.ends_with(name);
        } else if inside {
            if let Some(rest) = line.strip_prefix("Rss:") {
                total += rest
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    total
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run record line.
pub fn record(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "run: workload={workload} seed={seed} seconds={seconds} trace={} cores={} cpu=\"{}\" commit={} rustc=\"{}\"",
        u8::from(trace),
        cores(),
        cpu_model(),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_RUSTC"),
    )
}
