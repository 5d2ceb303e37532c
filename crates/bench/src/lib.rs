//! Shared helpers for the figure-regeneration binaries.
//!
//! Every binary accepts `--quick` (or the `VPC_QUICK=1` environment
//! variable) to run with short simulation windows, and prints the same
//! rows/series as the corresponding figure or table of the paper.
//! Reproduction notes for each experiment live in `EXPERIMENTS.md` at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use vpc::experiments::RunBudget;
use vpc::report::TimingReport;
use vpc_sim::{exec, trace};

pub mod harness;
pub mod scenarios;

/// Parses the standard CLI: `--quick` selects short windows.
pub fn budget_from_args() -> RunBudget {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("VPC_QUICK").is_ok_and(|v| v == "1");
    if quick {
        RunBudget::quick()
    } else {
        RunBudget::standard()
    }
}

/// Flags that take a value, as `--flag VALUE` or `--flag=VALUE`.
const VALUE_FLAGS: [&str; 2] = ["--jobs", "--trace"];

/// The first argument in `args` (program name excluded) that is neither
/// one of the `known` flags nor the value after a known `--jobs` or
/// `--trace`. Missing or malformed values are left to the flag's own
/// parser ([`jobs_from_args`], [`trace_from_args`]).
pub fn unknown_flag(args: &[String], known: &[&str]) -> Option<String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if !known.contains(&name) || (inline_value && !VALUE_FLAGS.contains(&name)) {
            return Some(arg.clone());
        }
        if !inline_value && VALUE_FLAGS.contains(&name) {
            iter.next();
        }
    }
    None
}

/// Exits with status 2 and an error naming the offending argument when
/// the command line holds anything but the binary's `known` flags, so a
/// typo such as `--quik` cannot silently run at full length.
pub fn reject_unknown_flags(known: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args, known) {
        eprintln!("error: unknown flag {flag:?} (this binary takes {})", known.join(", "));
        std::process::exit(2);
    }
}

/// Parses `--jobs N` / `--jobs=N`, installs it as the process-wide worker
/// count override, and returns the effective worker count (falling back
/// to `VPC_JOBS`, then the host's available parallelism). Exits with an
/// error on a malformed value — silently running serial would defeat the
/// point of the flag.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut explicit = None;
    let mut i = 1;
    while i < args.len() {
        let value = if let Some(v) = args[i].strip_prefix("--jobs=") {
            Some(v.to_string())
        } else if args[i] == "--jobs" {
            i += 1;
            args.get(i).cloned()
        } else {
            i += 1;
            continue;
        };
        match value.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => explicit = Some(n),
            _ => {
                eprintln!("error: --jobs needs a positive integer, got {value:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    exec::set_jobs(explicit);
    exec::jobs()
}

/// Drains the per-job timings behind the run just finished and prints
/// them to **stderr** (stdout must stay byte-identical across `--jobs`
/// settings, so wall-clock noise never lands there).
pub fn report_timings(what: &str, jobs: usize, wall: Duration) {
    let timings = TimingReport::drain();
    if timings.is_empty() {
        return;
    }
    eprintln!(
        "-- {what}: {:.3} s wall at --jobs {jobs}, effective parallelism {:.1}x --",
        wall.as_secs_f64(),
        timings.total.as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );
    eprint!("{timings}");
}

/// Whether `--json` was passed (machine-readable output).
pub fn json_requested() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Whether `--metrics` was passed (QoS ledger / histogram summaries on
/// **stderr** — stdout stays byte-identical with or without the flag).
pub fn metrics_requested() -> bool {
    std::env::args().any(|a| a == "--metrics")
}

/// Parses `--trace <path>` / `--trace=path` and, when present, turns on
/// per-job trace capture in the [`vpc_sim::exec`] pool (ring capacity
/// [`trace::DEFAULT_CAPACITY`] per job). Exits with an error on a missing
/// path — silently not tracing would defeat the point of the flag.
pub fn trace_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let mut path = None;
    let mut i = 1;
    while i < args.len() {
        let value = if let Some(v) = args[i].strip_prefix("--trace=") {
            Some(v.to_string())
        } else if args[i] == "--trace" {
            i += 1;
            args.get(i).cloned()
        } else {
            i += 1;
            continue;
        };
        match value {
            Some(v) if !v.is_empty() => path = Some(PathBuf::from(v)),
            _ => {
                eprintln!("error: --trace needs an output path");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if path.is_some() {
        trace::set_capture(Some(trace::DEFAULT_CAPACITY));
    }
    path
}

/// Sanitizes a job label into a filename fragment (`fig5/Loads 2B` →
/// `fig5-Loads-2B`).
pub fn label_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '-' })
        .collect()
}

/// Derives the per-job trace path `out.<slug>.json` from the main
/// `--trace` path `out.json`.
pub fn job_trace_path(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    base.with_file_name(format!("{stem}.{}.json", label_slug(label)))
}

/// Drains the per-job trace logs behind the run just finished, writes the
/// merged Chrome trace to `base` (one process lane per job) and one file
/// per job next to it, and reports what was written to **stderr**.
pub fn write_job_traces(base: &Path) {
    let jobs = trace::take_job_logs();
    if jobs.is_empty() {
        eprintln!("-- no trace events captured; nothing written to {} --", base.display());
        return;
    }
    let write = |path: &Path, doc: &vpc::json::JsonValue| {
        if let Err(err) = vpc::trace::write_chrome_trace(path, doc) {
            eprintln!("error: cannot write trace {}: {err}", path.display());
            std::process::exit(1);
        }
    };
    write(base, &vpc::trace::chrome_trace_jobs(&jobs));
    for (label, log) in &jobs {
        write(&job_trace_path(base, label), &vpc::trace::chrome_trace(label, log));
    }
    eprintln!(
        "-- wrote {} ({} jobs, {} events, {} dropped) + per-job traces --",
        base.display(),
        jobs.len(),
        jobs.iter().map(|(_, l)| l.events().len()).sum::<usize>(),
        jobs.iter().map(|(_, l)| l.dropped()).sum::<u64>(),
    );
}

/// Prints a standard experiment header.
pub fn header(title: &str, budget: RunBudget) {
    println!("== {title} ==");
    println!("(warmup {} cycles, measured {} cycles)", budget.warmup, budget.window);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_selection_follows_env() {
        // One test covers both states: the process environment is shared
        // across tests, so mutate-and-restore must not race another test.
        std::env::remove_var("VPC_QUICK");
        assert_eq!(budget_from_args(), RunBudget::standard());
        std::env::set_var("VPC_QUICK", "1");
        assert_eq!(budget_from_args(), RunBudget::quick());
        std::env::remove_var("VPC_QUICK");
    }

    #[test]
    fn unknown_flags_are_named() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let known = ["--quick", "--json", "--jobs", "--trace"];
        let ok = args(&["--quick", "--jobs", "4", "--trace=out.json", "--json", "--trace", "t"]);
        assert_eq!(unknown_flag(&ok, &known), None);
        assert_eq!(unknown_flag(&args(&[]), &known), None);
        assert_eq!(unknown_flag(&args(&["--quik"]), &known).as_deref(), Some("--quik"));
        assert_eq!(
            unknown_flag(&args(&["--quick", "--metrics"]), &known).as_deref(),
            Some("--metrics")
        );
        assert_eq!(unknown_flag(&args(&["--json=1"]), &known).as_deref(), Some("--json=1"));
        assert_eq!(unknown_flag(&args(&["stray"]), &known).as_deref(), Some("stray"));
        // The value after a value-taking flag is consumed, not checked.
        assert_eq!(unknown_flag(&args(&["--jobs", "--bogus"]), &known), None);
        assert_eq!(
            unknown_flag(&args(&["--jobs", "2", "--bogus"]), &known).as_deref(),
            Some("--bogus")
        );
    }
}
