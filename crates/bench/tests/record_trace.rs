//! The `record_trace` command line: a workload name and an op count, and
//! nothing after them.

use std::process::Command;

fn record_trace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_record_trace")).args(args).output().expect("binary runs")
}

#[test]
fn records_the_requested_number_of_ops() {
    let out = record_trace(&["art", "3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 trace");
    assert!(stdout.starts_with("# 3 ops of art, recorded by record_trace\n"), "{stdout}");
}

#[test]
fn arguments_after_the_op_count_are_rejected_by_name() {
    for extra in [&["junk"][..], &["--quick"], &["junk", "--quick"]] {
        let mut args = vec!["art", "3"];
        args.extend_from_slice(extra);
        let out = record_trace(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no trace is printed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unexpected argument {:?}", extra[0])), "{stderr}");
    }
}
