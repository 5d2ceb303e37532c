//! The headline guarantee of the parallel experiment engine: running a
//! figure grid with `--jobs 4` produces output *byte-identical* to
//! `--jobs 1`. Each figure runner here renders its `ToJson` report, and
//! each ablation its `Display` text (what the `ablations` binary prints),
//! under both worker counts, and the strings are compared.
//!
//! Each render gets its own pool, so these tests share no state and run
//! in parallel with each other and with every other test.

use vpc::experiments::{fig10, fig5, fig6, fig7, fig8, fig9, RunBudget};
use vpc::prelude::*;
use vpc::report::{
    to_json, Fig10Report, Fig5Report, Fig6Report, Fig7Report, Fig8Report, Fig9Report,
};
use vpc_sim::exec::Pool;

/// Renders `render(pool)` once on a 1-worker pool and once on a 4-worker
/// pool, returning both strings.
fn render_at_1_and_4(render: impl Fn(&mut Pool) -> String) -> (String, String) {
    (render(&mut Pool::new(1)), render(&mut Pool::new(4)))
}

fn small_base() -> CmpConfig {
    let mut cfg = CmpConfig::table1();
    cfg.l2.total_sets = 1024;
    cfg
}

#[test]
fn fig5_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|pool| {
        to_json(&Fig5Report::from(&fig5::run(pool, &base, RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig5 output depends on the worker count");
}

#[test]
fn fig6_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|pool| {
        to_json(&Fig6Report::from(&fig6::run(pool, &base, RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig6 output depends on the worker count");
}

#[test]
fn fig7_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|pool| {
        to_json(&Fig7Report::from(&fig7::run(pool, &base, RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig7 output depends on the worker count");
}

#[test]
fn fig8_is_serial_equivalent() {
    let base = {
        let mut cfg = CmpConfig::table1_with_threads(2);
        cfg.l2.total_sets = 1024;
        cfg
    };
    let (serial, parallel) = render_at_1_and_4(|pool| {
        to_json(&Fig8Report::from(&fig8::run(pool, &base, RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig8 output depends on the worker count");
}

#[test]
fn fig9_is_serial_equivalent() {
    // Two benchmarks (14 simulations) keep the debug-mode runtime sane;
    // the full 18-benchmark grid goes through the same code path.
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|pool| {
        to_json(&Fig9Report::from(&fig9::run(pool, &base, &["gcc", "art"], RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig9 output depends on the worker count");
}

#[test]
fn fig10_is_serial_equivalent() {
    let base = small_base();
    let (serial, parallel) = render_at_1_and_4(|pool| {
        let mixes = [["gcc", "gzip", "twolf", "ammp"]];
        to_json(&Fig10Report::from(&fig10::run(pool, &base, &mixes, RunBudget::quick())))
    });
    assert_eq!(serial, parallel, "fig10 output depends on the worker count");
}

/// One test per ablation runner, at `tests/experiments_smoke.rs`'s
/// scale (the 1024-set base, a tiny budget), comparing the `Display`
/// text the `ablations` binary prints.
macro_rules! ablations_are_serial_equivalent {
    ($($runner:ident),* $(,)?) => {$(
        #[test]
        fn $runner() {
            let base = super::small_base();
            let budget = RunBudget { warmup: 6_000, window: 20_000 };
            let (serial, parallel) = super::render_at_1_and_4(|pool| {
                ablations::$runner(pool, &base, budget).to_string()
            });
            assert_eq!(serial, parallel, "output depends on the worker count");
        }
    )*};
}

mod ablation_is_serial_equivalent {
    use vpc::experiments::{ablations, RunBudget};

    ablations_are_serial_equivalent!(
        reorder,
        capacity,
        preemption,
        memory_fq,
        prefetch,
        fairness_policies,
        scaling,
        work_conservation,
    );
}
