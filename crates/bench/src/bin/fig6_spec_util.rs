//! Figure 6: SPEC solo L2 utilization.

use std::time::Instant;

use vpc::experiments::fig6;
use vpc::prelude::*;
use vpc::report::{to_json, Fig6Report};

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace"]);
    let start = Instant::now();
    let result = fig6::run(&mut cli.pool, &CmpConfig::table1(), cli.budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig6Report::from(&result)));
    } else {
        vpc_bench::header("Figure 6", cli.budget);
        println!("{result}");
    }
    cli.finish("fig6", wall);
}
