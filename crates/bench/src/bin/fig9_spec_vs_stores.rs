//! Figure 9: SPEC subject thread vs. three Stores background threads.

use std::time::Instant;

use vpc::experiments::fig9;
use vpc::prelude::*;
use vpc::report::{to_json, Fig9Report};
use vpc_workloads::SPEC_NAMES;

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace"]);
    let start = Instant::now();
    let result = fig9::run(&mut cli.pool, &CmpConfig::table1(), &SPEC_NAMES, cli.budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig9Report::from(&result)));
    } else {
        vpc_bench::header("Figure 9", cli.budget);
        println!("{result}");
    }
    cli.finish("fig9", wall);
}
