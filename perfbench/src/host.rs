//! The host a run measured on: revision, parallelism, CPU steal and peak
//! memory. Everything is read from the checkout or `/proc/self`-style
//! kernel files; nothing is spawned.

use std::fs;

/// The checked-out revision from `.git/HEAD` in the working directory, or
/// `"none"` outside a git checkout. Only the working directory is read.
pub fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| packed_ref(r))
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head.to_string(),
    }
}

fn packed_ref(name: &str) -> std::io::Result<String> {
    let packed = fs::read_to_string(".git/packed-refs")?;
    packed
        .lines()
        .find_map(|l| {
            l.strip_suffix(name)
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .ok_or_else(|| std::io::Error::other("ref not packed"))
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Sum of every field.
    pub total: u64,
    /// The `steal` field (time the hypervisor ran someone else).
    pub steal: u64,
    /// The `user` field.
    pub user: u64,
}

impl CpuTimes {
    /// Reads `/proc/stat`; zeros where it is unavailable.
    pub fn now() -> Self {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Self {
            total: f.iter().sum(),
            steal: f.get(7).copied().unwrap_or(0),
            user: f.first().copied().unwrap_or(0),
        }
    }

    /// Jiffies elapsed since `earlier`, field by field.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
            user: self.user.saturating_sub(earlier.user),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Live threads of this process (`Threads:` in `/proc/self/status`).
pub fn thread_count() -> usize {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}
