//! Provenance of a run (commit, processor, caches) and the process's peak memory.

use crate::report::string;
use std::path::Path;

/// The commit the checkout was made from, when it is a git checkout.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the unified or data cache of `level` seen by cpu0, e.g. `"2048K"`.
fn cache_size(level: &str) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if read("level").ok().as_deref() == Some(level)
            && read("type").map(|t| t != "Instruction").unwrap_or(false)
        {
            return read("size").unwrap_or_else(|_| "unknown".into());
        }
    }
    "unknown".into()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `(key, encoded JSON value)` pairs for the run record.
pub fn provenance() -> Vec<(&'static str, String)> {
    vec![
        ("git_sha", string(&git_sha())),
        ("nproc", nproc().to_string()),
        ("cpu_model", string(&cpu_model())),
        ("l2", string(&cache_size("2"))),
        ("l3", string(&cache_size("3"))),
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
