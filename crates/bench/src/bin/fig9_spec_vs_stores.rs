//! Figure 9: SPEC subject thread vs. three Stores background threads.

use std::time::Instant;

use vpc::experiments::fig9;
use vpc::prelude::*;
use vpc::report::{to_json, Fig9Report};
use vpc_workloads::SPEC_NAMES;

fn main() {
    vpc_bench::reject_unknown_flags(&["--quick", "--json", "--jobs", "--trace"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    let start = Instant::now();
    let result = fig9::run(&CmpConfig::table1(), &SPEC_NAMES, budget);
    let wall = start.elapsed();
    if vpc_bench::json_requested() {
        println!("{}", to_json(&Fig9Report::from(&result)));
    } else {
        vpc_bench::header("Figure 9", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig9", jobs, wall);
    if let Some(path) = &trace_path {
        vpc_bench::write_job_traces(path);
    }
}
