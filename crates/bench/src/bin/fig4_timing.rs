//! Figure 4: timing of back-to-back reads to different cache banks.

use vpc::experiments::fig4;
use vpc::prelude::*;

fn main() {
    vpc_bench::Cli::from_env(&["--quick", "--jobs"]);
    // `--quick` and `--jobs` are accepted for CLI uniformity with the
    // other binaries; the timing probe is one short fixed simulation.
    let base = CmpConfig::table1();
    println!("{}", fig4::run(&base));
}
