//! One benchmark per table/figure of the paper: each scenario runs a
//! reduced-budget version of the corresponding experiment end to end, so
//! the bench both regenerates every result's machinery and tracks the
//! harness's performance over time. The full-length runs (paper-scale
//! windows, all benchmarks/mixes) live in the other `vpc-bench` binaries.
//!
//! Run with `--json` for machine-readable output, and `--quick` for a
//! fast smoke pass. The scenario list itself lives in
//! [`vpc_bench::scenarios`].

use std::time::Instant;

use vpc_bench::harness::Suite;

fn main() {
    let mut suite = Suite::from_args("figures");
    let jobs = vpc_bench::jobs_from_args();
    let start = Instant::now();

    vpc_bench::scenarios::figures(&mut suite);

    suite.finish();
    vpc_bench::report_timings("bench_figures", jobs, start.elapsed());
}
