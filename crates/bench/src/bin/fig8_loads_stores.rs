//! Figure 8: Loads + Stores under RoW-FCFS, FCFS, and VPC arbiters.

use std::time::Instant;

use vpc::experiments::fig8;
use vpc::prelude::*;
use vpc::report::{to_json, Fig8Report};

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace"]);
    let start = Instant::now();
    let result = fig8::run(&mut cli.pool, &CmpConfig::table1_with_threads(2), cli.budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig8Report::from(&result)));
    } else {
        vpc_bench::header("Figure 8", cli.budget);
        println!("{result}");
    }
    cli.finish("fig8", wall);
}
