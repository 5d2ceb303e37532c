//! Headline result: heterogeneous 4-thread mixes, FCFS vs. VPC.

use std::time::Instant;

use vpc::experiments::fig10;
use vpc::prelude::*;
use vpc::report::{to_json, Fig10Report};

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--json", "--jobs", "--trace"]);
    let start = Instant::now();
    let result = fig10::run(&mut cli.pool, &CmpConfig::table1(), &fig10::MIXES, cli.budget);
    let wall = start.elapsed();
    if cli.json {
        println!("{}", to_json(&Fig10Report::from(&result)));
    } else {
        vpc_bench::header("Heterogeneous mixes (abstract's 14% / 25% claim)", cli.budget);
        println!("{result}");
    }
    cli.finish("fig10", wall);
}
