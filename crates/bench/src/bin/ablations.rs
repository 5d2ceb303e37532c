//! Ablations: reordering, capacity manager, preemption latency, work
//! conservation.

use std::time::Instant;

use vpc::experiments::ablations;
use vpc::prelude::*;

fn main() {
    vpc_bench::reject_unknown_flags(&["--quick", "--jobs", "--trace"]);
    let budget = vpc_bench::budget_from_args();
    let jobs = vpc_bench::jobs_from_args();
    let trace_path = vpc_bench::trace_from_args();
    vpc_bench::header("Ablations", budget);
    let base = CmpConfig::table1();
    let start = Instant::now();
    println!("{}", ablations::reorder(&base, budget));
    println!("{}", ablations::capacity(&base, budget));
    println!("{}", ablations::preemption(&base, budget));
    println!("{}", ablations::memory_fq(&base, budget));
    println!("{}", ablations::prefetch(&base, budget));
    println!("{}", ablations::fairness_policies(&base, budget));
    println!("{}", ablations::scaling(&base, budget));
    println!("{}", ablations::work_conservation(&base, budget));
    vpc_bench::report_timings("ablations", jobs, start.elapsed());
    if let Some(path) = &trace_path {
        vpc_bench::write_job_traces(path);
    }
}
