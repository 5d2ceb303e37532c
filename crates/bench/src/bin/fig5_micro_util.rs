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
    vpc_bench::reject_unknown_flags(&["--quick", "--json", "--jobs", "--trace", "--metrics"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    let start = Instant::now();
    let result = fig5::run(&CmpConfig::table1(), budget);
    let wall = start.elapsed();
    if vpc_bench::json_requested() {
        println!("{}", to_json(&Fig5Report::from(&result)));
    } else {
        vpc_bench::header("Figure 5", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig5", jobs, wall);

    if let Some(path) = &trace_path {
        // The headline trace is the 4-thread contention scenario: that is
        // where grant/defer interleaving and virtual times mean something.
        // The single-thread grid points land in per-job side files.
        let log = fig5::trace_scenario(&CmpConfig::table1(), budget, trace::DEFAULT_CAPACITY);
        let doc = vpc::trace::chrome_trace("fig5/contention Loads+3xStores", &log);
        if let Err(err) = vpc::trace::write_chrome_trace(path, &doc) {
            eprintln!("error: cannot write trace {}: {err}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "-- wrote {} ({} events, {} dropped; contention scenario) --",
            path.display(),
            log.events().len(),
            log.dropped(),
        );
        for (label, job_log) in trace::take_job_logs() {
            let job_path = vpc_bench::job_trace_path(path, &label);
            let job_doc = vpc::trace::chrome_trace(&label, &job_log);
            if let Err(err) = vpc::trace::write_chrome_trace(&job_path, &job_doc) {
                eprintln!("error: cannot write trace {}: {err}", job_path.display());
                std::process::exit(1);
            }
        }
    }

    if vpc_bench::metrics_requested() {
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
