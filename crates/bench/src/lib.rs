//! Shared helpers for the figure-regeneration binaries.
//!
//! Every figure binary accepts `--quick` to run with short simulation
//! windows, and prints the same rows/series as the corresponding figure
//! or table of the paper. Reproduction notes for each experiment live in
//! `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use vpc::experiments::RunBudget;
use vpc::report::TimingReport;
use vpc_sim::exec::Pool;
use vpc_sim::trace;

/// What a figure binary's command line asks for.
#[derive(Debug)]
pub struct Cli {
    /// `--quick` selects [`RunBudget::quick`], else [`RunBudget::standard`].
    pub budget: RunBudget,
    /// The experiment pool: `--jobs N` workers (default: the host's
    /// available parallelism), capturing one trace per job when `--trace`
    /// is given.
    pub pool: Pool,
    /// `--trace <path>`: where the Chrome trace goes.
    pub trace: Option<PathBuf>,
    /// `--json`: machine-readable stdout.
    pub json: bool,
    /// `--metrics`: QoS ledger / histogram summaries on **stderr** (stdout
    /// stays byte-identical with or without the flag).
    pub metrics: bool,
}

impl Cli {
    /// Parses `args` (program name excluded), accepting only the `known`
    /// flags.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Cli, String> {
        if let Some(flag) = unknown_flag(args, known) {
            return Err(format!("unknown flag {flag:?} (this binary takes {})", known.join(", ")));
        }
        let trace = trace_from_args(args)?;
        let capture = trace.as_ref().map(|_| trace::DEFAULT_CAPACITY);
        Ok(Cli {
            budget: budget_from_args(args),
            pool: Pool::new(jobs_from_args(args)?).with_capture(capture),
            trace,
            json: args.iter().any(|a| a == "--json"),
            metrics: args.iter().any(|a| a == "--metrics"),
        })
    }

    /// Parses the process arguments; on an unknown flag or a malformed
    /// value, exits with status 2 and an error naming it, so a typo such
    /// as `--quik` cannot silently run at full length.
    pub fn from_env(known: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&args, known).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// Reports what the run just finished left in the pool: the per-job
    /// timings on **stderr** (stdout must stay byte-identical across
    /// `--jobs` settings, so wall-clock noise never lands there), then,
    /// under `--trace`, the merged and per-job Chrome traces.
    pub fn finish(&mut self, what: &str, wall: Duration) {
        report_timings(what, &mut self.pool, wall);
        if let Some(path) = &self.trace {
            write_job_traces(path, &mut self.pool);
        }
    }
}

/// Whether `args` ask for `--quick` (short windows).
pub fn budget_from_args(args: &[String]) -> RunBudget {
    if args.iter().any(|a| a == "--quick") {
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

/// Every value given to `flag` in `args`, as `--flag VALUE` or
/// `--flag=VALUE` (`None` for a trailing `--flag` with no value).
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<Option<&'a str>> {
    let mut values = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            values.push(iter.next().map(String::as_str));
        } else if let Some(v) = arg.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            values.push(Some(v));
        }
    }
    values
}

/// The worker count `args` ask for: the last `--jobs N` / `--jobs=N`,
/// else the host's available parallelism. A malformed value is an error —
/// silently running serial would defeat the point of the flag.
pub fn jobs_from_args(args: &[String]) -> Result<usize, String> {
    let mut jobs = None;
    for value in flag_values(args, "--jobs") {
        match value.map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => jobs = Some(n),
            _ => return Err(format!("--jobs needs a positive integer, got {value:?}")),
        }
    }
    Ok(jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)))
}

/// The trace output path `args` ask for with `--trace <path>` /
/// `--trace=path`. A missing path is an error — silently not tracing
/// would defeat the point of the flag.
pub fn trace_from_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut path = None;
    for value in flag_values(args, "--trace") {
        match value {
            Some(v) if !v.is_empty() => path = Some(PathBuf::from(v)),
            _ => return Err("--trace needs an output path".into()),
        }
    }
    Ok(path)
}

/// Drains the pool's per-job timings and prints them to **stderr**.
pub fn report_timings(what: &str, pool: &mut Pool, wall: Duration) {
    let timings = TimingReport::from_timings(pool.take_timings());
    if timings.is_empty() {
        return;
    }
    eprintln!(
        "-- {what}: {:.3} s wall at --jobs {}, effective parallelism {:.1}x --",
        wall.as_secs_f64(),
        pool.workers(),
        timings.total.as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );
    eprint!("{timings}");
}

/// Derives the per-job trace path `out.<slug>.json` from the main
/// `--trace` path `out.json`, where the slug is the job label with every
/// character but ASCII alphanumerics, `.` and `-` replaced by `-`
/// (`fig5/Loads 2B` → `fig5-Loads-2B`).
pub fn job_trace_path(base: &Path, label: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '-' })
        .collect();
    base.with_file_name(format!("{stem}.{slug}.json"))
}

/// Writes a Chrome trace document, exiting with status 1 when it cannot.
pub fn write_trace(path: &Path, doc: &vpc::json::JsonValue) {
    if let Err(err) = vpc::trace::write_chrome_trace(path, doc) {
        eprintln!("error: cannot write trace {}: {err}", path.display());
        std::process::exit(1);
    }
}

/// Drains the pool's per-job trace logs, writes the merged Chrome trace
/// to `base` (one process lane per job) and one file per job next to it,
/// and reports what was written to **stderr**.
fn write_job_traces(base: &Path, pool: &mut Pool) {
    let jobs = pool.take_logs();
    if jobs.is_empty() {
        eprintln!("-- no trace events captured; nothing written to {} --", base.display());
        return;
    }
    write_trace(base, &vpc::trace::chrome_trace_jobs(&jobs));
    for (label, log) in &jobs {
        write_trace(&job_trace_path(base, label), &vpc::trace::chrome_trace(label, log));
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn quick_jobs_and_trace_are_read_from_the_argument_list() {
        assert_eq!(budget_from_args(&args(&[])), RunBudget::standard());
        assert_eq!(budget_from_args(&args(&["--json", "--quick"])), RunBudget::quick());

        assert_eq!(jobs_from_args(&args(&["--jobs", "3"])), Ok(3));
        assert_eq!(jobs_from_args(&args(&["--jobs=5", "--quick"])), Ok(5));
        assert_eq!(jobs_from_args(&args(&["--jobs", "2", "--jobs=7"])), Ok(7), "last wins");
        assert!(jobs_from_args(&args(&[])).expect("default worker count") >= 1);
        for bad in [&["--jobs", "0"][..], &["--jobs", "four"], &["--jobs"], &["--jobs="]] {
            let err = jobs_from_args(&args(bad)).expect_err("malformed --jobs");
            assert!(err.contains("--jobs needs a positive integer"), "{bad:?}: {err}");
        }

        assert_eq!(trace_from_args(&args(&["--quick"])), Ok(None));
        assert_eq!(trace_from_args(&args(&["--trace", "t.json"])), Ok(Some("t.json".into())));
        assert_eq!(trace_from_args(&args(&["--trace=u.json"])), Ok(Some("u.json".into())));
        for bad in [&["--trace"][..], &["--trace="], &["--quick", "--trace", ""]] {
            let err = trace_from_args(&args(bad)).expect_err("missing --trace path");
            assert!(err.contains("--trace needs an output path"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn cli_builds_the_pool_the_flags_ask_for() {
        let known = ["--quick", "--json", "--jobs", "--trace"];
        let cli = Cli::parse(&args(&["--quick", "--jobs", "3", "--trace=t.json"]), &known)
            .expect("known flags parse");
        assert_eq!(cli.budget, RunBudget::quick());
        assert_eq!(cli.pool.workers(), 3);
        assert_eq!(cli.trace.as_deref(), Some(Path::new("t.json")));
        assert!(!cli.json && !cli.metrics);
        let err = Cli::parse(&args(&["--metrics"]), &known).expect_err("not a known flag");
        assert!(err.contains("\"--metrics\""), "{err}");
        let err = Cli::parse(&args(&["--jobs", "0"]), &known).expect_err("bad worker count");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn unknown_flags_are_named() {
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
