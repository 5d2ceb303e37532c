//! What a result needs to be compared across hosts: where and how it was
//! measured, and the process's peak memory.

use std::process::Command;

/// Host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// The host's name.
    pub host: String,
    /// The CPU model string.
    pub cpu_model: String,
    /// CPUs available to this process.
    pub nproc: usize,
    /// The commit measured, when the tree is a git checkout, with `-dirty`
    /// appended when the simulator crates or the benchmark have changes
    /// that are not committed.
    pub commit: String,
    /// The compiler that built the benchmark and the simulator.
    pub rustc: &'static str,
    /// The build profile.
    pub profile: &'static str,
}

impl HostInfo {
    /// Reads the facts of the running host and build.
    pub fn read() -> HostInfo {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim()))
            .unwrap_or("unknown")
            .to_string();
        let host = match read("/proc/sys/kernel/hostname").trim() {
            "" => "unknown".to_string(),
            name => name.to_string(),
        };
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
        };
        // The measured code is the simulator crates and the benchmark; a
        // change to either that is not committed marks the commit dirty.
        let commit = match git(&["rev-parse", "HEAD"]) {
            None => "unknown (not a git checkout)".to_string(),
            Some(head) => match git(&["status", "--porcelain", "--", "crates", "perfbench"]) {
                Some(changes) if changes.trim().is_empty() => head.trim().to_string(),
                _ => format!("{}-dirty", head.trim()),
            },
        };
        HostInfo {
            host,
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }
}

/// The process's peak resident memory in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
