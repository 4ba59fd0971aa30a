//! Process and host facts for the run record.

use std::path::Path;

/// The process's resident high-water mark (`VmHWM`) in MiB, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from: the `.git` metadata when the
/// checkout is a repository, else `unknown`. Read directly from the files
/// so the benchmark runs no external program.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// An environment variable's value, or `unset`.
pub fn env_or_unset(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unset".to_owned())
}
