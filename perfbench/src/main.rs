//! The repository benchmark for the Virtual Private Caches simulator.
//!
//! ```text
//! perfbench --workload <l2_contention|spec_mix|mem_bound|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --record
//! ```
//!
//! With `--trace 0` (the default) a run repeats whole batches of the
//! workload through `CmpSystem` on this one thread until `--seconds` of
//! wall time have passed, and prints the end-to-end metrics. With
//! `--trace 1` it runs the benchmark's own cycle loop untraced and traced,
//! and the layer probes, for as long, and prints the per-layer metrics. Every
//! batch must reproduce the simulated statistics recorded for it. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--record` rewrites `perfbench/expected.txt` from the current
//! simulator. See `perfbench/README.md` for the workloads and metrics.

mod gate;
mod host;
mod machine;
mod probes;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use vpc::prelude::*;
use vpc_sim::Histogram;

use crate::gate::{Expected, Stats};
use crate::machine::{Counts, Machine, Spans};
use crate::workloads::{Input, Length, Workload, DEFAULT_SEED, SHORT, SLICE_CYCLES};

const USAGE: &str = "usage: perfbench --workload <l2_contention|spec_mix|mem_bound|all> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --record";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            out.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => out.workloads = vec![Workload::from_name(value).ok_or_else(bad)?],
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workloads.is_empty() && !out.record {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// One metric of a result.
#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one workload's run produced.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one batch as attempted, and as failed if it panicked
    /// (`None`) or its statistics miss the recorded ones.
    fn check<T>(
        &mut self,
        expected: &Expected,
        workload: Workload,
        input: &Input,
        length: Length,
        batch: Option<(T, Stats)>,
    ) -> Option<T> {
        self.attempted += 1;
        let verdict = batch
            .ok_or_else(|| format!("{} {}: the batch panicked", workload.name(), input.key))
            .and_then(|(value, stats)| {
                gate::check(expected, workload, input, length, &stats).map(|()| value)
            });
        verdict
            .map_err(|e| {
                eprintln!("perfbench: FAILED {e}");
                self.failed += 1;
            })
            .ok()
    }

    /// Runs `batch` (one simulated batch job) and checks it.
    fn gate<T>(
        &mut self,
        expected: &Expected,
        workload: Workload,
        input: &Input,
        length: Length,
        batch: impl FnOnce() -> (T, Stats),
    ) -> Option<T> {
        let batch = catch_unwind(AssertUnwindSafe(batch)).ok();
        self.check(expected, workload, input, length, batch)
    }
}

/// The parts a timed run is cut into by wall time.
const PARTS: usize = 3;

/// The percentile of an input's window slice times that times its window.
const SLICE_PCT: usize = 90;

/// The percentile of an input's set-up times that is its set-up time.
const SETUP_PCT: usize = 75;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One input's batch in a timed round: host times of its set-up (its
/// construction and its warm-up slices) and of each slice of its window.
struct Timed {
    setup_s: f64,
    window_ms: Vec<f64>,
    instructions: u64,
    summary: String,
}

/// Runs `sys` for one slice and returns its host time in ms.
fn slice_ms(sys: &mut CmpSystem) -> f64 {
    let t = Instant::now();
    sys.run(SLICE_CYCLES);
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed round: a batch of every input, all built first and then run
/// slice by slice in turn, so that every input meets the same host speeds.
fn timed_round(cfg: &CmpConfig, inputs: &[Input], len: Length) -> Vec<(Timed, Stats)> {
    let mut batches: Vec<(CmpSystem, Timed)> = inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            let sys = CmpSystem::new(cfg.clone(), &input.specs);
            let timed = Timed {
                setup_s: t.elapsed().as_secs_f64(),
                window_ms: Vec::new(),
                instructions: 0,
                summary: String::new(),
            };
            (sys, timed)
        })
        .collect();
    for _ in 0..len.warmup / SLICE_CYCLES {
        for (sys, timed) in &mut batches {
            timed.setup_s += slice_ms(sys) / 1e3;
        }
    }
    let retired = |sys: &CmpSystem| -> u64 {
        (0..cfg.processors).map(|t| sys.core(ThreadId(t as u8)).retired()).sum()
    };
    let before: Vec<_> = batches.iter().map(|(sys, _)| (sys.snapshot(), retired(sys))).collect();
    for _ in 0..len.window / SLICE_CYCLES {
        for (sys, timed) in &mut batches {
            timed.window_ms.push(slice_ms(sys));
        }
    }
    batches
        .into_iter()
        .zip(inputs)
        .zip(before)
        .map(|(((sys, mut timed), input), (snap, retired_before))| {
            let m = sys.measure(&snap);
            timed.instructions = retired(&sys) - retired_before;
            timed.summary = format!(
                "{}: IPC sum {:.3}, data array {:.1}% busy",
                input.key,
                m.ipc.iter().sum::<f64>(),
                m.util.data_array * 100.0
            );
            let threads = (0..cfg.processors).map(|t| sys.core(ThreadId(t as u8)));
            (timed, Stats::of(threads, sys.l2()))
        })
        .collect()
}

/// Host times of every repeat of one input in a run.
#[derive(Debug, Default)]
struct Repeats {
    /// Construction plus warm-up, per repeat.
    setups_s: Vec<f64>,
    /// Every window slice of every repeat, by the part of the run its
    /// round started in.
    window_ms: [Vec<f64>; PARTS],
    /// Instructions retired in the window (the same on every repeat).
    instructions: u64,
}

/// The end-to-end run: rounds of [`timed_round`] through `CmpSystem` until
/// `seconds` of wall time have passed (at least one round).
///
/// The host's speed moves between levels for seconds at a time (see
/// README.md, Noise). A high percentile of the slice times sits on its
/// usual level unless a slow spell fills a tenth of the time, where the
/// mean and the median follow how long it spent on each level. So the run
/// is cut into [`PARTS`] parts by wall time; in each, an input's window is
/// timed as its slice count times the [`SLICE_PCT`]th percentile of its
/// window slices there (they simulate about the same amount of work); and
/// the throughput metrics are the median over the parts, which a slow
/// spell confined to one part does not move. An input's set-up is the
/// [`SETUP_PCT`]th percentile of its repeats' set-ups (fewer samples, so a
/// lower rank), and `setup_s` the median over the inputs.
fn run_timed(w: Workload, seed: u64, seconds: f64, expected: &Expected) -> Outcome {
    let start = Instant::now();
    let (cfg, len, inputs) = (w.config(), w.length(), w.inputs(seed));
    let mut out = Outcome::default();
    let mut repeats: Vec<Repeats> = inputs.iter().map(|_| Repeats::default()).collect();
    let mut rounds = 0;
    loop {
        let part =
            ((start.elapsed().as_secs_f64() / seconds * PARTS as f64) as usize).min(PARTS - 1);
        let round = catch_unwind(AssertUnwindSafe(|| timed_round(&cfg, &inputs, len)));
        let mut batches = round.map_or_else(|_| Vec::new(), |b| b.into_iter().map(Some).collect());
        batches.resize_with(inputs.len(), || None);
        for ((input, r), batch) in inputs.iter().zip(&mut repeats).zip(batches) {
            let Some(b) = out.check(expected, w, input, len, batch) else { continue };
            if r.setups_s.is_empty() {
                println!("  {}", b.summary);
                r.instructions = b.instructions;
            }
            r.setups_s.push(b.setup_s);
            r.window_ms[part].extend(b.window_ms);
        }
        rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let parts: Vec<Part> = (0..PARTS).filter_map(|p| Part::of(&repeats, p, len)).collect();
    let median_over_parts = |f: &dyn Fn(&Part) -> f64| {
        let mut v: Vec<f64> = parts.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&mut v)
        }
    };
    let mut setups: Vec<f64> = repeats
        .iter_mut()
        .filter(|r| !r.setups_s.is_empty())
        .map(|r| {
            r.setups_s.sort_by(f64::total_cmp);
            stats::percentile(&r.setups_s, SETUP_PCT)
        })
        .collect();
    let slices: usize = parts.iter().map(|p| p.slices_ms.len()).sum();
    let fewest = parts.iter().map(|p| stats::beyond(p.slices_ms.len(), 90)).min().unwrap_or(0);
    println!(
        "  {} batches ({} failed) in {rounds} rounds, {slices} window slices of \
         {SLICE_CYCLES} cycles in {} parts (at least {fewest} beyond p90 in each), \
         slice_ms_p50 {:.4} ms, {:.2} s wall",
        out.attempted,
        out.failed,
        parts.len(),
        median_over_parts(&|p| stats::percentile(&p.slices_ms, 50)),
        start.elapsed().as_secs_f64()
    );
    let rate = |n: u64, p: &Part| n as f64 / p.window_s.max(f64::MIN_POSITIVE);
    out.metrics = vec![
        metric("sim_cycles_per_s", median_over_parts(&|p| rate(p.cycles, p)), "1/s"),
        metric("sim_kips", median_over_parts(&|p| rate(p.instructions, p) / 1e3), "kinst/s"),
        metric("slice_ms_p90", median_over_parts(&|p| stats::percentile(&p.slices_ms, 90)), "ms"),
        metric("setup_s", if setups.is_empty() { 0.0 } else { stats::median(&mut setups) }, "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    out
}

/// What one part of a timed run measured, over the inputs that ran in it.
struct Part {
    cycles: u64,
    instructions: u64,
    /// The inputs' windows, each timed as its slice count times the
    /// [`SLICE_PCT`]th percentile of its slices in the part.
    window_s: f64,
    /// Every window slice of the part, sorted.
    slices_ms: Vec<f64>,
}

impl Part {
    /// Part `part` of `repeats`, or `None` if no window ran in it.
    fn of(repeats: &[Repeats], part: usize, len: Length) -> Option<Part> {
        let slices_per_window = (len.window / SLICE_CYCLES) as f64;
        let mut p = Part { cycles: 0, instructions: 0, window_s: 0.0, slices_ms: Vec::new() };
        for r in repeats.iter().filter(|r| !r.window_ms[part].is_empty()) {
            let mut slices = r.window_ms[part].clone();
            slices.sort_by(f64::total_cmp);
            p.window_s += stats::percentile(&slices, SLICE_PCT) * slices_per_window / 1e3;
            p.cycles += len.window;
            p.instructions += r.instructions;
            p.slices_ms.extend(slices);
        }
        p.slices_ms.sort_by(f64::total_cmp);
        (!p.slices_ms.is_empty()).then_some(p)
    }
}

/// The traced run: for each input, the benchmark's own loop untraced and
/// then traced, round after round until `seconds` of wall time have passed
/// (and every input has run once); the layer probes run after the first
/// round. Simulated counts come from the first round, so they are exact for
/// a seed. The tracing overhead compares each input's quickest untraced and
/// traced windows.
fn run_traced(w: Workload, seed: u64, seconds: f64, expected: &Expected) -> (Outcome, Spans) {
    let start = Instant::now();
    let (cfg, len, inputs) = (w.config(), w.length(), w.inputs(seed));
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut quickest = vec![(f64::INFINITY, f64::INFINITY); inputs.len()];
    let mut counts = Counts::default();
    let mut latency = Histogram::new();
    let mut probe_ns = [0.0; 4];
    for k in 0.. {
        let input = &inputs[k % inputs.len()];
        let plain = out.gate(expected, w, input, len, || {
            let mut m = Machine::new(&cfg, input);
            m.run(len.warmup);
            let t = Instant::now();
            m.run(len.window);
            (t.elapsed().as_secs_f64(), m.stats())
        });
        let traced = out.gate(expected, w, input, len, || {
            let mut m = Machine::new(&cfg, input);
            m.run(len.warmup);
            let before = m.counts();
            let t = Instant::now();
            m.run_traced(len.window, &mut spans);
            let elapsed = t.elapsed().as_secs_f64();
            ((elapsed, m.counts().since(before), m.read_latency()), m.stats())
        });
        if let (Some(p), Some((t, window, hist))) = (plain, traced) {
            let q = &mut quickest[k % inputs.len()];
            *q = (q.0.min(p), q.1.min(t));
            if k < inputs.len() {
                counts = counts.plus(window);
                latency.merge(&hist);
            }
        }
        if k + 1 == inputs.len() {
            probe_ns = run_probes(&cfg, &counts, &inputs, seed);
        }
        if k + 1 >= inputs.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let ran = quickest.iter().filter(|q| q.0.is_finite());
    let (plain_s, traced_s) = ran.fold((0.0, 0.0), |(p, t), q| (p + q.0, t + q.1));
    let ns = spans.per_cycle();
    println!(
        "  {} batches ({} failed), {} traced cycles (every {}th, clock read {:.1} ns), \
         quickest windows untraced {:.3} s, traced {:.3} s, {:.2} s wall",
        out.attempted,
        out.failed,
        spans.sampled,
        machine::SAMPLE_STRIDE,
        spans.clock_ns,
        plain_s,
        traced_s,
        start.elapsed().as_secs_f64()
    );
    let [grant_ns, victim_ns, mem_request_ns, op_ns] = probe_ns;
    let c = &counts;
    let kcycles = c.cycles as f64 / 1e3;
    let per_kcycle = |n: u64| if c.cycles == 0 { 0.0 } else { n as f64 / kcycles };
    let bank_cycles = c.cycles * cfg.l2.banks as u64;
    let core_cycles = c.cycles * cfg.processors as u64;
    let mut m = Vec::new();
    m.push(metric("cpu.tick_ns_per_cycle", ns.cpu, "ns"));
    for t in 0..4 {
        m.push(metric(format!("cpu.ipc.t{t}"), ratio(c.retired[t], c.cycles), "inst/cycle"));
    }
    m.extend([
        metric("cpu.dispatch_stall_frac", ratio(c.dispatch_stall, core_cycles), "ratio"),
        metric("cpu.store_stall_frac", ratio(c.store_stall, core_cycles), "ratio"),
        metric(
            "cpu.l1_load_miss_ratio",
            ratio(c.l1_load_misses, c.l1_load_hits + c.l1_load_misses),
            "ratio",
        ),
        metric("cache.tick_ns_per_cycle", ns.cache, "ns"),
        metric("cache.reads_per_kcycle", per_kcycle(c.reads()), "1/kcycle"),
        metric("cache.writes_per_kcycle", per_kcycle(c.writes()), "1/kcycle"),
        metric("cache.castouts_per_kcycle", per_kcycle(c.castouts), "1/kcycle"),
        metric("cache.read_hit_ratio", ratio(c.read_hits, c.reads()), "ratio"),
        metric("cache.sgb_gather_ratio", ratio(c.stores_gathered, c.stores_in), "ratio"),
        metric("cache.tag_util", ratio(c.tag_busy, bank_cycles), "ratio"),
        metric("cache.data_util", ratio(c.data_busy, bank_cycles), "ratio"),
        metric("cache.bus_util", ratio(c.bus_busy, bank_cycles), "ratio"),
        metric("cache.read_latency_p50_cycles", latency.p50() as f64, "cycles"),
        metric("cache.read_latency_p99_cycles", latency.p99() as f64, "cycles"),
        metric("delivery.ns_per_cycle", ns.delivery, "ns"),
        metric("system.loop_ns_per_cycle", ns.system(), "ns"),
        metric("trace.overhead_frac", traced_s / plain_s.max(f64::MIN_POSITIVE) - 1.0, "ratio"),
        metric("arbiters.grant_ns", grant_ns, "ns"),
    ]);
    for t in 0..4 {
        let share = ratio(c.thread_data_busy[t], c.data_busy);
        m.push(metric(format!("arbiters.data_share.t{t}"), share, "ratio"));
    }
    m.extend([
        metric("capacity.victim_ns", victim_ns, "ns"),
        metric("mem.request_ns", mem_request_ns, "ns"),
        metric("mem.requests_per_kcycle", per_kcycle(c.mem_requests()), "1/kcycle"),
        metric("workloads.op_ns", op_ns, "ns"),
    ]);
    out.metrics = m;
    (out, spans)
}

/// Runs the layer probes, shaped by the workload's machine and by the
/// traffic `counts` measured on it: arbiter grant, victim choice, memory
/// request and workload operation, each in ns.
fn run_probes(cfg: &CmpConfig, counts: &Counts, inputs: &[Input], seed: u64) -> [f64; 4] {
    let c = counts;
    let shape = probes::Shape {
        arbiter: cfg.l2.resource_arbiters().1.clone(),
        capacity: cfg.l2.capacity.clone(),
        ways: cfg.l2.ways,
        service: (cfg.l2.data_latency, cfg.l2.write_latency()),
        mem: (cfg.mem, cfg.channels.clone()),
        l2_write_frac: ratio(c.writes(), c.reads() + c.writes()),
        mem_write_frac: ratio(c.castouts, c.mem_requests()),
        specs: inputs.iter().flat_map(|i| i.specs.iter().copied()).collect(),
        seed,
    };
    [
        probes::grant_ns(&shape),
        probes::victim_ns(&shape),
        probes::mem_request_ns(&shape),
        probes::op_ns(&shape),
    ]
}

/// Writes `spans` next to the benchmark executable and returns the path.
fn write_spans(w: Workload, seed: u64, spans: &Spans) -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new(".")).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.json", w.name()));
    std::fs::write(&path, spans.chrome_json())?;
    Ok(path)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (name to value and unit).
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

fn metadata_line(args: &Args, info: &host::HostInfo) -> String {
    let names: Vec<String> = args.workloads.iter().map(|w| json_string(w.name())).collect();
    format!(
        "{{\"perfbench\": {{\"host\": {}, \"cpu_model\": {}, \"nproc\": {}, \"commit\": {}, \
         \"rustc\": {}, \"profile\": {}, \"sim_threads\": 1, \"seed\": {}, \"trace\": {}, \
         \"seconds\": {}, \"workloads\": [{}]}}}}",
        json_string(&info.host),
        json_string(&info.cpu_model),
        info.nproc,
        json_string(&info.commit),
        json_string(info.rustc),
        json_string(info.profile),
        args.seed,
        args.trace,
        json_number(args.seconds),
        names.join(", ")
    )
}

/// Rewrites `expected.txt` from `CmpSystem::run` for every input at the
/// full and the short length.
fn record() -> ExitCode {
    let mut table = Expected::default();
    for w in Workload::ALL {
        let cfg = w.config();
        for input in w.all_inputs() {
            for len in [w.length(), SHORT] {
                let mut sys = CmpSystem::new(cfg.clone(), &input.specs);
                sys.run(len.warmup);
                sys.run(len.window);
                let threads = (0..cfg.processors).map(|t| sys.core(ThreadId(t as u8)));
                table.insert(w, &input, len, Stats::of(threads, sys.l2()));
            }
            eprintln!("recorded {} {}", w.name(), input.key);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
    match std::fs::write(path, table.render()) {
        Ok(()) => {
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record();
    }
    let expected = match Expected::recorded() {
        Ok(table) => table,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", metadata_line(&args, &host::HostInfo::read()));
    let (mut attempted, mut failed, mut all_metrics) = (0, 0, Vec::new());
    for &w in &args.workloads {
        println!(
            "{} (seed {}, {} inputs, {}+{} cycles per batch, {}):",
            w.name(),
            args.seed,
            w.inputs(args.seed).len(),
            w.length().warmup,
            w.length().window,
            if args.trace { "traced" } else { "timed" }
        );
        let out = if args.trace {
            let (out, spans) = run_traced(w, args.seed, args.seconds, &expected);
            match write_spans(w, args.seed, &spans) {
                Ok(path) => println!("  spans: {}", path.display()),
                Err(e) => eprintln!("perfbench: spans not written: {e}"),
            }
            out
        } else {
            run_timed(w, args.seed, args.seconds, &expected)
        };
        for m in &out.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        attempted += out.attempted;
        failed += out.failed;
        if args.workloads.len() == 1 {
            all_metrics = out.metrics;
        } else {
            println!("{}", result_line(out.attempted, out.failed, &out.metrics));
            all_metrics.extend(
                out.metrics
                    .into_iter()
                    .map(|m| Metric { name: format!("{}.{}", w.name(), m.name), ..m }),
            );
        }
    }
    println!("{}", result_line(attempted, failed, &all_metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload spec_mix --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::SpecMix]);
        assert_eq!((a.seed, a.seconds, a.trace, a.record), (42, 10.0, true, false));
        let d = args("--workload all").expect("valid");
        assert_eq!(d.workloads, Workload::ALL.to_vec());
        assert_eq!(d.seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload hit",
            "--workload mem_bound --trace 2",
            "--workload mem_bound --seed -1",
            "--workload mem_bound --seconds",
            "--workload mem_bound --seconds nan",
            "--workload mem_bound --verbose 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(3, 0, &[metric("setup_s", 0.8127, "s"), metric("x", f64::NAN, "s")]);
        let parsed = vpc::json::JsonValue::parse(&line).expect("result line is JSON");
        let vpc::json::JsonValue::Object(fields) = parsed else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(line.contains("\"x\": {\"value\": null"));
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }

    /// A short round of every workload through `CmpSystem`, interleaved as
    /// the timed run interleaves it, passes the gate; and the same seed
    /// repeats it.
    #[test]
    fn short_runs_pass_the_gate_and_repeat_exactly() {
        let expected = Expected::recorded().expect("recorded table parses");
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, 2] {
                let inputs = &w.inputs(seed)[..2.min(w.inputs(seed).len())];
                let run = || -> Vec<Stats> {
                    let round = timed_round(&w.config(), inputs, SHORT);
                    assert_eq!(round.len(), inputs.len());
                    for (timed, _) in &round {
                        assert_eq!(timed.window_ms.len() as u64, SHORT.window / SLICE_CYCLES);
                    }
                    round.into_iter().map(|(_, stats)| stats).collect()
                };
                let (first, second) = (run(), run());
                assert_eq!(first, second, "{} seed {seed}", w.name());
                for (input, stats) in inputs.iter().zip(&first) {
                    gate::check(&expected, w, input, SHORT, stats).expect("matches the record");
                }
            }
        }
    }

    #[test]
    fn a_wrong_record_fails_the_batch() {
        let w = Workload::MemBound;
        let input = &w.inputs(DEFAULT_SEED)[0];
        let mut out = Outcome::default();
        let empty = Expected::default();
        assert!(out.gate(&empty, w, input, SHORT, || ((), Stats::of([], &dummy_l2()))).is_none());
        assert!(out.gate(&empty, w, input, SHORT, || -> ((), Stats) { panic!("boom") }).is_none());
        assert_eq!((out.attempted, out.failed), (2, 2));
    }

    fn dummy_l2() -> vpc_cache::SharedL2 {
        let cfg = Workload::MemBound.config();
        vpc_cache::SharedL2::with_channel_mode(cfg.l2, cfg.mem, cfg.channels)
    }
}
