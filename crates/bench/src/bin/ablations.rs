//! Ablations: reordering, capacity manager, preemption latency, work
//! conservation.

use std::time::Instant;

use vpc::experiments::ablations;
use vpc::prelude::*;

fn main() {
    let mut cli = vpc_bench::Cli::from_env(&["--quick", "--jobs", "--trace"]);
    let (pool, budget) = (&mut cli.pool, cli.budget);
    vpc_bench::header("Ablations", budget);
    let base = CmpConfig::table1();
    let start = Instant::now();
    println!("{}", ablations::reorder(pool, &base, budget));
    println!("{}", ablations::capacity(pool, &base, budget));
    println!("{}", ablations::preemption(pool, &base, budget));
    println!("{}", ablations::memory_fq(pool, &base, budget));
    println!("{}", ablations::prefetch(pool, &base, budget));
    println!("{}", ablations::fairness_policies(pool, &base, budget));
    println!("{}", ablations::scaling(pool, &base, budget));
    println!("{}", ablations::work_conservation(pool, &base, budget));
    cli.finish("ablations", start.elapsed());
}
