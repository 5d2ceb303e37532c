//! Headline result: heterogeneous 4-thread mixes, FCFS vs. VPC.

use std::time::Instant;

use vpc::experiments::fig10;
use vpc::prelude::*;
use vpc::report::{to_json, Fig10Report};

fn main() {
    vpc_bench::reject_unknown_flags(&["--quick", "--json", "--jobs", "--trace"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    let start = Instant::now();
    let result = fig10::run(&CmpConfig::table1(), &fig10::MIXES, budget);
    let wall = start.elapsed();
    if vpc_bench::json_requested() {
        println!("{}", to_json(&Fig10Report::from(&result)));
    } else {
        vpc_bench::header("Heterogeneous mixes (abstract's 14% / 25% claim)", budget);
        println!("{result}");
    }
    vpc_bench::report_timings("fig10", jobs, wall);
    if let Some(path) = &trace_path {
        vpc_bench::write_job_traces(path);
    }
}
