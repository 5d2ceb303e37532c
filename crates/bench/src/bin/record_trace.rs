//! Records any built-in workload into the trace text format on stdout, so
//! traces can be inspected, edited, and replayed through
//! `vpc_workloads::TraceWorkload`.
//!
//! ```sh
//! cargo run --release -p vpc-bench --bin record_trace -- art 10000 > art.trace
//! ```

use std::process::ExitCode;

use vpc_cpu::Workload;
use vpc_sim::ThreadId;
use vpc_workloads::{loads_micro, record, spec, stores_micro, SPEC_NAMES};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "art".into());
    let count = args.next().unwrap_or_else(|| "10000".into());
    if let Some(extra) = args.next() {
        eprintln!("error: unexpected argument {extra:?} (usage: record_trace [WORKLOAD] [OPS])");
        return ExitCode::from(2);
    }
    let count: usize = match count.parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: bad op count: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workload: Box<dyn Workload> = match name.as_str() {
        "Loads" | "loads" => Box::new(loads_micro(ThreadId(0))),
        "Stores" | "stores" => Box::new(stores_micro(ThreadId(0))),
        other => match spec::workload(other, ThreadId(0)) {
            Some(w) => Box::new(w),
            None => {
                eprintln!(
                    "error: unknown workload {other:?}; try Loads, Stores, or one of {SPEC_NAMES:?}"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    print!(
        "# {count} ops of {name}, recorded by record_trace\n{}",
        record(workload.as_mut(), count)
    );
    ExitCode::SUCCESS
}
