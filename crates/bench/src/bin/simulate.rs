//! A general-purpose driver for the simulated CMP: pick workloads, an
//! arbiter policy, shares, banks and channel topology from the command
//! line and get per-thread IPCs, QoS targets, utilization and latency.
//!
//! ```sh
//! cargo run --release -p vpc-bench --bin simulate -- \
//!     --workloads art,mcf,Loads,Stores \
//!     --arbiter vpc --shares 1/2,1/6,1/6,1/6 \
//!     --banks 2 --warmup 50000 --cycles 200000
//! ```
//!
//! Workloads: any SPEC profile name, `Loads`, `Stores`, or `idle`.
//! Arbiters: `fcfs`, `row`, `rr`, `vpc`, `drr`, `sfq`.
//! Channels: `private` (default), `shared-fcfs`, `shared-fq`.

use std::path::PathBuf;
use std::process::ExitCode;

use vpc::experiments::fig5;
use vpc::metrics::QosLedger;
use vpc::prelude::*;
use vpc_mem::ChannelMode;
use vpc_sim::trace;
use vpc_workloads::SPEC_NAMES;

#[derive(Debug)]
struct Args {
    workloads: Vec<WorkloadSpec>,
    arbiter: String,
    shares: Vec<Share>,
    banks: usize,
    warmup: u64,
    cycles: u64,
    channels: String,
    lru_capacity: bool,
    trace: Option<PathBuf>,
    metrics: bool,
}

fn parse_workload(name: &str) -> Result<WorkloadSpec, String> {
    match name {
        "Loads" | "loads" => Ok(WorkloadSpec::Loads),
        "Stores" | "stores" => Ok(WorkloadSpec::Stores),
        "idle" => Ok(WorkloadSpec::Idle),
        other => {
            SPEC_NAMES.iter().find(|&&b| b == other).map(|&b| WorkloadSpec::Spec(b)).ok_or_else(
                || format!("unknown workload {other:?} (SPEC names, Loads, Stores, idle)"),
            )
        }
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: vec![
            WorkloadSpec::Spec("art"),
            WorkloadSpec::Spec("mcf"),
            WorkloadSpec::Spec("gcc"),
            WorkloadSpec::Spec("gzip"),
        ],
        arbiter: "vpc".into(),
        shares: Vec::new(),
        banks: 2,
        warmup: 50_000,
        cycles: 200_000,
        channels: "private".into(),
        lru_capacity: false,
        trace: None,
        metrics: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workloads" => {
                args.workloads = value("--workloads")?
                    .split(',')
                    .map(parse_workload)
                    .collect::<Result<_, _>>()?;
            }
            "--arbiter" => args.arbiter = value("--arbiter")?,
            "--shares" => {
                args.shares = value("--shares")?
                    .split(',')
                    .map(|s| s.parse::<Share>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--banks" => {
                args.banks = value("--banks")?.parse().map_err(|e| format!("--banks: {e}"))?;
            }
            "--warmup" => {
                args.warmup = value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--cycles" => {
                args.cycles = value("--cycles")?.parse().map_err(|e| format!("--cycles: {e}"))?;
                if args.cycles == 0 {
                    return Err("--cycles 0: the measured window needs at least one cycle".into());
                }
            }
            "--channels" => args.channels = value("--channels")?,
            "--lru-capacity" => args.lru_capacity = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                println!(
                    "usage: simulate [--workloads a,b,c,d] [--arbiter fcfs|row|rr|vpc|drr|sfq]\n\
                     \x20               [--shares p/q,...] [--banks N] [--warmup N] [--cycles N]\n\
                     \x20               [--channels private|shared-fcfs|shared-fq] [--lru-capacity]\n\
                     \x20               [--trace out.json] [--metrics]\n\
                     \n\
                     --trace writes a Chrome trace_event JSON of the measured window\n\
                     (open in chrome://tracing or Perfetto); --metrics prints the\n\
                     per-thread QoS ledger and L2 latency percentiles to stderr.\n\
                     Neither flag changes stdout."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.shares.is_empty() {
        let n = args.workloads.len() as u32;
        args.shares = vec![Share::new(1, n).map_err(|e| e.to_string())?; n as usize];
    }
    if args.shares.len() != args.workloads.len() {
        return Err("need exactly one share per workload".into());
    }
    if Share::checked_sum(args.shares.iter().copied()).is_none() {
        let sum: f64 = args.shares.iter().map(|s| s.as_f64()).sum();
        return Err(format!(
            "--shares sum to {sum:.3}; shares over-commit the cache unless they sum to at most 1"
        ));
    }
    let sets = CmpConfig::table1().l2.total_sets;
    if args.banks == 0 || !sets.is_multiple_of(args.banks) {
        return Err(format!(
            "--banks {}: the bank count must divide the L2's {sets} sets evenly",
            args.banks
        ));
    }
    Ok(args)
}

fn build_arbiter(args: &Args) -> Result<ArbiterPolicy, String> {
    let shares = args.shares.clone();
    Ok(match args.arbiter.as_str() {
        "fcfs" => ArbiterPolicy::Fcfs,
        "row" => ArbiterPolicy::RowFcfs,
        "rr" => ArbiterPolicy::RoundRobin,
        "vpc" => ArbiterPolicy::Vpc { shares, order: IntraThreadOrder::ReadOverWrite },
        "drr" => ArbiterPolicy::Drr { shares },
        "sfq" => ArbiterPolicy::Sfq { shares },
        other => return Err(format!("unknown arbiter {other:?}")),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let threads = args.workloads.len();
    if threads == 0 || threads > 8 {
        return Err("1 to 8 workloads required".into());
    }

    let mut cfg = CmpConfig::table1_with_threads(threads).with_banks(args.banks);
    cfg.l2.arbiter = build_arbiter(&args)?;
    cfg.l2.capacity = if args.lru_capacity {
        CapacityPolicy::Lru
    } else {
        CapacityPolicy::Vpc { shares: args.shares.clone() }
    };
    cfg.channels = match args.channels.as_str() {
        "private" => ChannelMode::PerThread,
        "shared-fcfs" => ChannelMode::SharedFcfs,
        "shared-fq" => ChannelMode::SharedFq { shares: args.shares.clone() },
        other => return Err(format!("unknown channel mode {other:?}")),
    };

    let base = CmpConfig::table1_with_threads(threads).with_banks(args.banks);
    let mut sys = CmpSystem::new(cfg, &args.workloads);
    sys.run(args.warmup);
    if args.trace.is_some() {
        // The simulation runs on this thread, so the thread-local
        // recorder sees the whole measured window.
        trace::install(trace::DEFAULT_CAPACITY);
    }
    let snap = sys.snapshot();
    let mut ledger = args.metrics.then(|| {
        let entitlements = args.shares.iter().map(|&s| (s, s)).collect();
        QosLedger::new(entitlements, fig5::QOS_WINDOW, fig5::QOS_SLACK)
    });
    match &mut ledger {
        Some(ledger) => sys.run_with_ledger(args.cycles, ledger),
        None => sys.run(args.cycles),
    }
    let m = sys.measure(&snap);
    let trace_log = if args.trace.is_some() { trace::take() } else { None };

    println!(
        "== simulate: {} threads, {} banks, arbiter {}, channels {} ==",
        threads, args.banks, args.arbiter, args.channels
    );
    println!(
        "{:<10} {:>7} {:>8} {:>8} {:>9} {:>12} {:>10}",
        "thread", "share", "IPC", "target", "IPC/tgt", "L2 lat mean", "gathering"
    );
    for (i, w) in args.workloads.iter().enumerate() {
        let thread = ThreadId(i as u8);
        let target = if args.shares[i].is_zero() {
            0.0
        } else {
            target_ipc(&base, *w, args.shares[i], args.shares[i], args.warmup, args.cycles)
        };
        let hist = sys.l2().read_latency(thread);
        let norm = if target > 0.0 { m.ipc[i] / target } else { f64::NAN };
        println!(
            "{:<10} {:>7} {:>8.3} {:>8.3} {:>9.3} {:>12.1} {:>9.1}%",
            w.name(),
            args.shares[i].to_string(),
            m.ipc[i],
            target,
            norm,
            hist.mean(),
            m.gathering_rate[i] * 100.0,
        );
    }
    println!(
        "utilization: data {:.1}%  bus {:.1}%  tag {:.1}%",
        m.util.data_array * 100.0,
        m.util.data_bus * 100.0,
        m.util.tag_array * 100.0
    );

    if let Some(path) = &args.trace {
        let log = trace_log.expect("recorder installed before the measured window");
        let doc = vpc::trace::chrome_trace("simulate", &log);
        vpc::trace::write_chrome_trace(path, &doc)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!(
            "-- wrote {} ({} events, {} dropped) --",
            path.display(),
            log.events().len(),
            log.dropped(),
        );
    }
    if let Some(ledger) = &ledger {
        eprint!("{ledger}");
        for (i, w) in args.workloads.iter().enumerate() {
            let hist = sys.l2().read_latency(ThreadId(i as u8));
            eprintln!(
                "  {} L2 read latency p50/p90/p99: {}/{}/{} cycles",
                w.name(),
                hist.p50(),
                hist.p90(),
                hist.p99(),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn bank_counts_that_do_not_divide_the_sets_are_rejected() {
        for banks in ["0", "3"] {
            let err = parse(&["--banks", banks]).expect_err("bank count must be rejected");
            assert!(err.contains(&format!("--banks {banks}")), "{err}");
            assert!(err.contains("8192 sets"), "{err}");
        }
        assert_eq!(parse(&["--banks", "4"]).expect("4 divides 8192").banks, 4);
    }

    #[test]
    fn empty_measured_window_is_rejected() {
        let err = parse(&["--cycles", "0"]).expect_err("a zero-cycle window has no IPC");
        assert!(err.contains("--cycles 0"), "{err}");
        assert_eq!(parse(&["--cycles", "1"]).expect("one cycle is a window").cycles, 1);
    }

    #[test]
    fn jobs_is_not_a_simulate_flag() {
        // One CmpSystem run is serial; a worker count would do nothing.
        let err = parse(&["--jobs", "4"]).expect_err("--jobs is not taken");
        assert!(err.contains("unknown flag \"--jobs\""), "{err}");
    }

    #[test]
    fn over_committed_shares_are_rejected() {
        let args = ["--workloads", "Loads,Stores,Stores,Stores", "--shares", "3/4,3/4,1/4,1/4"];
        let err = parse(&args).expect_err("shares summing to 2 must be rejected");
        assert!(err.contains("sum to 2.000"), "{err}");
        let args = ["--workloads", "Loads,Stores,Stores,Stores", "--shares", "1/2,1/4,1/8,1/8"];
        assert!(parse(&args).is_ok(), "shares summing to exactly 1 are accepted");
    }
}
