//! Figure 7: L2 write fraction and store gathering rate.

use std::time::Instant;

use vpc::experiments::fig7;
use vpc::prelude::*;
use vpc::report::{to_json, Fig7Report};

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace"]);
    let start = Instant::now();
    let result = fig7::run(&mut cli.pool, &CmpConfig::table1(), cli.budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig7Report::from(&result)));
    } else {
        vpc_bench::header("Figure 7", cli.budget);
        println!("{result}");
    }
    cli.finish("fig7", wall);
}
