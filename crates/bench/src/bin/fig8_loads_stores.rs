//! Figure 8: Loads + Stores under RoW-FCFS, FCFS, and VPC arbiters.

use std::time::Instant;

use vpc::experiments::fig8;
use vpc::prelude::*;
use vpc::report::{to_json, Fig8Report};

fn main() {
    vpc_bench::reject_unknown_flags(&["--quick", "--json", "--jobs", "--trace"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    let start = Instant::now();
    let result = fig8::run(&CmpConfig::table1_with_threads(2), budget);
    let wall = start.elapsed();
    if vpc_bench::json_requested() {
        println!("{}", to_json(&Fig8Report::from(&result)));
    } else {
        vpc_bench::header("Figure 8", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig8", jobs, wall);
    if let Some(path) = &trace_path {
        vpc_bench::write_job_traces(path);
    }
}
