//! Figure 5: microbenchmark L2 utilization vs. number of banks.
//!
//! `--trace out.json` additionally records the 4-thread contention
//! variant (one Loads stream vs. three Stores streams under equal-share
//! VPC arbiters) as a Chrome trace_event file, plus one per-job trace
//! for each grid point. `--metrics` prints the QoS ledger of the same
//! scenario under VPC and FCFS to stderr. Neither flag changes stdout.

use std::time::Instant;

use vpc::experiments::fig5;
use vpc::prelude::*;
use vpc::report::{to_json, Fig5Report};
use vpc_sim::trace;

fn main() {
    let mut cli =
        vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace", "--metrics"]);
    let budget = cli.budget;
    let start = Instant::now();
    let result = fig5::run(&mut cli.pool, &CmpConfig::table1(), budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig5Report::from(&result)));
    } else {
        vpc_bench::header("Figure 5", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig5", &mut cli.pool, wall);

    if let Some(path) = &cli.trace {
        // The headline trace is the 4-thread contention scenario: that is
        // where grant/defer interleaving and virtual times mean something.
        // The single-thread grid points land in per-job side files.
        let log = fig5::trace_scenario(&CmpConfig::table1(), budget, trace::DEFAULT_CAPACITY);
        vpc_bench::write_trace(
            path,
            &vpc::trace::chrome_trace("fig5/contention Loads+3xStores", &log),
        );
        eprintln!(
            "-- wrote {} ({} events, {} dropped; contention scenario) --",
            path.display(),
            log.events().len(),
            log.dropped(),
        );
        for (label, job_log) in cli.pool.take_logs() {
            let job_path = vpc_bench::job_trace_path(path, &label);
            vpc_bench::write_trace(&job_path, &vpc::trace::chrome_trace(&label, &job_log));
        }
    }

    if cli.metrics {
        let base = CmpConfig::table1();
        for (name, arbiter) in
            [("VPC (equal shares)", ArbiterPolicy::vpc_equal(4)), ("FCFS", ArbiterPolicy::Fcfs)]
        {
            let ledger = fig5::qos_ledger(&base, arbiter, budget);
            eprintln!("-- contention scenario under {name} --");
            eprint!("{ledger}");
        }
    }
}
