//! Figure 7: L2 write fraction and store gathering rate.

use std::time::Instant;

use vpc::experiments::fig7;
use vpc::prelude::*;
use vpc::report::{to_json, Fig7Report};

fn main() {
    vpc_bench::reject_unknown_flags(&["--quick", "--json", "--jobs", "--trace"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    let start = Instant::now();
    let result = fig7::run(&CmpConfig::table1(), budget);
    let wall = start.elapsed();
    if vpc_bench::json_requested() {
        println!("{}", to_json(&Fig7Report::from(&result)));
    } else {
        vpc_bench::header("Figure 7", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig7", jobs, wall);
    if let Some(path) = &trace_path {
        vpc_bench::write_job_traces(path);
    }
}
