//! The benchmark's own copy of the simulated machine's cycle loop, with
//! sampled layer spans.
//!
//! [`Machine`] assembles the same parts `CmpSystem::new` does and runs the
//! same per-cycle sequence `CmpSystem` runs: every core ticks, then the
//! shared L2 (banks, store gathering, arbiters, capacity, memory
//! controller) ticks, then ready read responses are delivered to their
//! cores. It never skips a cycle. The correctness gate holds it to the
//! statistics recorded from `CmpSystem::run`, which proves both loops
//! simulate the same program.
//!
//! Layers are named after the crates: `cpu` is `Core::tick` summed over
//! the cores, `cache` is `SharedL2::tick`, `delivery` is
//! `SharedL2::pop_response` plus `Core::on_l2_response`, and `system` is
//! the cycle span minus those three.

use std::fmt::Write as _;
use std::time::Instant;

use vpc::prelude::*;
use vpc_cache::SharedL2;
use vpc_cpu::Core;
use vpc_sim::{Cycle, Histogram};

use crate::gate::Stats;
use crate::workloads::Input;

/// Every `SAMPLE_STRIDE`-th cycle is traced. Odd, so the samples do not
/// alias with the L2's half-frequency clock; large enough that the five
/// clock reads of a traced cycle stay a small share of the loop.
pub const SAMPLE_STRIDE: Cycle = 61;

/// Cycles whose spans are kept for the span file; later cycles only add
/// to the totals.
const KEPT_CYCLES: usize = 2_000;

/// Cores, shared L2 and the cycle counter.
#[derive(Debug)]
pub struct Machine {
    cores: Vec<Core>,
    l2: SharedL2,
    now: Cycle,
}

impl Machine {
    /// Builds the machine `CmpSystem::new(cfg, &input.specs)` would.
    pub fn new(cfg: &CmpConfig, input: &Input) -> Machine {
        let cores = input
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let thread = ThreadId(i as u8);
                Core::new(cfg.core, thread, spec.build(thread))
            })
            .collect();
        let l2 = SharedL2::with_channel_mode(cfg.l2.clone(), cfg.mem, cfg.channels.clone());
        Machine { cores, l2, now: 0 }
    }

    /// Simulates `cycles` cycles untraced.
    pub fn run(&mut self, cycles: Cycle) {
        let end = self.now + cycles;
        while self.now < end {
            for core in &mut self.cores {
                core.tick(self.now, &mut self.l2);
            }
            self.l2.tick(self.now);
            while let Some(resp) = self.l2.pop_response(self.now) {
                self.cores[resp.thread.index()].on_l2_response(resp.line, self.now);
            }
            self.now += 1;
        }
    }

    /// Simulates `cycles` cycles, recording the spans of every
    /// [`SAMPLE_STRIDE`]-th cycle into `spans`.
    pub fn run_traced(&mut self, cycles: Cycle, spans: &mut Spans) {
        let end = self.now + cycles;
        while self.now < end {
            let sample_at = self.now.next_multiple_of(SAMPLE_STRIDE).min(end);
            if sample_at > self.now {
                self.run(sample_at - self.now);
                continue;
            }
            let cycle = self.now;
            let start = Instant::now();
            for core in &mut self.cores {
                core.tick(self.now, &mut self.l2);
            }
            let cpu_end = Instant::now();
            self.l2.tick(self.now);
            let cache_end = Instant::now();
            while let Some(resp) = self.l2.pop_response(self.now) {
                self.cores[resp.thread.index()].on_l2_response(resp.line, self.now);
            }
            let delivery_end = Instant::now();
            self.now += 1;
            spans.record(cycle, [start, cpu_end, cache_end, delivery_end, Instant::now()]);
        }
    }

    /// The gate's counters.
    pub fn stats(&self) -> Stats {
        Stats::of(&self.cores, &self.l2)
    }

    /// Cumulative layer counters at the current cycle.
    pub fn counts(&self) -> Counts {
        let mut c = Counts { cycles: self.now, ..Counts::default() };
        for (i, core) in self.cores.iter().enumerate() {
            let s = core.stats();
            let l1 = core.l1_stats();
            c.retired[i] = core.retired();
            c.thread_data_busy[i] = self.l2.thread_data_busy(core.thread());
            c.dispatch_stall += s.dispatch_stall_cycles.get();
            c.store_stall += s.store_stall_cycles.get();
            c.l1_load_hits += l1.load_hits.get();
            c.l1_load_misses += l1.load_misses.get();
            let port = self.l2.port_stats(core.thread());
            c.stores_in += port.stores_in.get();
            c.stores_gathered += port.stores_gathered.get();
        }
        let s = self.l2.stats();
        c.read_hits = s.read_hits.get();
        c.read_misses = s.read_misses.get();
        c.write_hits = s.write_hits.get();
        c.write_misses = s.write_misses.get();
        c.castouts = s.castouts.get();
        (c.tag_busy, c.data_busy, c.bus_busy) = self.l2.busy_cycles();
        c
    }

    /// L2 read latency over every thread since cycle zero.
    pub fn read_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for core in &self.cores {
            h.merge(&self.l2.read_latency(core.thread()));
        }
        h
    }
}

/// Simulated event counts of a window, summed over threads except where
/// kept per thread. Every workload runs four threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions per thread.
    pub retired: [u64; 4],
    /// Data-array busy cycles per thread.
    pub thread_data_busy: [u64; 4],
    /// Core-cycles in which nothing dispatched.
    pub dispatch_stall: u64,
    /// Core-cycles in which retirement waited for the L2 store port.
    pub store_stall: u64,
    /// L1 load hits.
    pub l1_load_hits: u64,
    /// L1 load misses.
    pub l1_load_misses: u64,
    /// L2 read hits.
    pub read_hits: u64,
    /// L2 read misses.
    pub read_misses: u64,
    /// L2 write hits.
    pub write_hits: u64,
    /// L2 write misses (write-allocate fetches).
    pub write_misses: u64,
    /// Dirty victims written back to memory.
    pub castouts: u64,
    /// Stores that reached a store gathering buffer.
    pub stores_in: u64,
    /// Stores merged into a pending entry.
    pub stores_gathered: u64,
    /// Tag-array busy cycles, summed over banks.
    pub tag_busy: u64,
    /// Data-array busy cycles, summed over banks.
    pub data_busy: u64,
    /// Data-bus busy cycles, summed over banks.
    pub bus_busy: u64,
}

impl Counts {
    fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            cycles: f(self.cycles, o.cycles),
            retired: std::array::from_fn(|i| f(self.retired[i], o.retired[i])),
            thread_data_busy: std::array::from_fn(|i| {
                f(self.thread_data_busy[i], o.thread_data_busy[i])
            }),
            dispatch_stall: f(self.dispatch_stall, o.dispatch_stall),
            store_stall: f(self.store_stall, o.store_stall),
            l1_load_hits: f(self.l1_load_hits, o.l1_load_hits),
            l1_load_misses: f(self.l1_load_misses, o.l1_load_misses),
            read_hits: f(self.read_hits, o.read_hits),
            read_misses: f(self.read_misses, o.read_misses),
            write_hits: f(self.write_hits, o.write_hits),
            write_misses: f(self.write_misses, o.write_misses),
            castouts: f(self.castouts, o.castouts),
            stores_in: f(self.stores_in, o.stores_in),
            stores_gathered: f(self.stores_gathered, o.stores_gathered),
            tag_busy: f(self.tag_busy, o.tag_busy),
            data_busy: f(self.data_busy, o.data_busy),
            bus_busy: f(self.bus_busy, o.bus_busy),
        }
    }

    /// The counts accumulated between `start` and `self`.
    pub fn since(self, start: Counts) -> Counts {
        self.zip(start, |a, b| a - b)
    }

    /// The sum of two windows' counts.
    pub fn plus(self, other: Counts) -> Counts {
        self.zip(other, |a, b| a + b)
    }

    /// L2 reads.
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// L2 writes.
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Requests the L2 sent to memory: line fetches and castouts.
    pub fn mem_requests(&self) -> u64 {
        self.read_misses + self.write_misses + self.castouts
    }
}

/// Host-time totals per layer over the traced cycles, plus the spans of
/// the first [`KEPT_CYCLES`] of them.
///
/// Every span also contains the cost of one clock read (the read that
/// ends it), which is as large as a small layer's work. [`Spans::new`]
/// measures that cost once and [`Spans::per_cycle`] subtracts it; the span
/// file keeps the raw stamps.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    kept: Vec<(Cycle, [u64; 5])>,
    /// Traced cycles.
    pub sampled: u64,
    /// Summed ns: cycle span, cpu, cache, delivery.
    totals: [u64; 4],
    /// Median ns of an empty span: two back-to-back clock reads.
    pub clock_ns: f64,
}

/// Host ns per traced cycle in each layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerNs {
    /// The whole cycle span.
    pub cycle: f64,
    /// `Core::tick`, summed over cores.
    pub cpu: f64,
    /// `SharedL2::tick`.
    pub cache: f64,
    /// Response delivery.
    pub delivery: f64,
}

impl LayerNs {
    /// The cycle span's self time: the loop's own work between and after
    /// the layer calls.
    pub fn system(&self) -> f64 {
        self.cycle - self.cpu - self.cache - self.delivery
    }
}

impl Spans {
    /// An empty recorder, with the clock-read cost measured.
    pub fn new() -> Spans {
        let mut empty: Vec<f64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                Instant::now().duration_since(start).as_nanos() as f64
            })
            .collect();
        Spans {
            epoch: Instant::now(),
            kept: Vec::new(),
            sampled: 0,
            totals: [0; 4],
            clock_ns: crate::stats::median(&mut empty),
        }
    }

    fn record(&mut self, cycle: Cycle, stamps: [Instant; 5]) {
        let ns: [u64; 5] =
            stamps.map(|t| t.saturating_duration_since(self.epoch).as_nanos() as u64);
        self.totals[0] += ns[4] - ns[0];
        for layer in 0..3 {
            self.totals[layer + 1] += ns[layer + 1] - ns[layer];
        }
        self.sampled += 1;
        if self.kept.len() < KEPT_CYCLES {
            self.kept.push((cycle, ns));
        }
    }

    /// Mean host ns per traced cycle, by layer, less the clock reads (zero
    /// before any sample). The cycle span holds four reads: the ends of
    /// the three layer spans and its own.
    pub fn per_cycle(&self) -> LayerNs {
        if self.sampled == 0 {
            return LayerNs { cycle: 0.0, cpu: 0.0, cache: 0.0, delivery: 0.0 };
        }
        let n = self.sampled as f64;
        let [cycle, cpu, cache, delivery] = self.totals.map(|t| t as f64 / n - self.clock_ns);
        LayerNs { cycle: cycle - 3.0 * self.clock_ns, cpu, cache, delivery }
    }

    /// The kept spans in Chrome `trace_event` JSON: one complete event per
    /// span, the cycle span the parent of its three layer spans, all four
    /// sharing the cycle number as their id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let names = ["cycle", "cpu", "cache", "delivery"];
        let mut first = true;
        for (cycle, ns) in &self.kept {
            let bounds = [(ns[0], ns[4]), (ns[0], ns[1]), (ns[1], ns[2]), (ns[2], ns[3])];
            for (name, (start, end)) in names.iter().zip(bounds) {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                     \"args\":{{\"cycle\":{cycle}}}}}",
                    start as f64 / 1000.0,
                    (end - start) as f64 / 1000.0
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, Expected};
    use crate::workloads::{Workload, SHORT};
    use vpc::json::JsonValue;

    #[test]
    fn traced_and_untraced_loops_match_the_recorded_statistics() {
        let expected = Expected::recorded().expect("recorded table parses");
        for w in Workload::ALL {
            let input = &w.inputs(crate::workloads::DEFAULT_SEED)[0];
            let mut plain = Machine::new(&w.config(), input);
            plain.run(SHORT.warmup + SHORT.window);
            check(&expected, w, input, SHORT, &plain.stats()).expect("untraced loop");
            let mut traced = Machine::new(&w.config(), input);
            let mut spans = Spans::new();
            traced.run(SHORT.warmup);
            traced.run_traced(SHORT.window, &mut spans);
            check(&expected, w, input, SHORT, &traced.stats()).expect("traced loop");
            let window = SHORT.warmup..SHORT.warmup + SHORT.window;
            let sampled = window.filter(|c| c.is_multiple_of(SAMPLE_STRIDE)).count();
            assert_eq!(spans.sampled, sampled as u64);
            assert!(spans.clock_ns >= 0.0);
        }
    }

    #[test]
    fn counts_difference_and_sum() {
        let a = Counts { cycles: 10, retired: [1, 2, 3, 4], castouts: 5, ..Counts::default() };
        let b = Counts { cycles: 4, retired: [1, 1, 1, 1], castouts: 2, ..Counts::default() };
        let d = a.since(b);
        assert_eq!(d.cycles, 6);
        assert_eq!(d.retired, [0, 1, 2, 3]);
        assert_eq!(d.plus(b), a);
    }

    #[test]
    fn span_file_is_valid_json() {
        let input = &Workload::MemBound.inputs(1)[0];
        let mut m = Machine::new(&Workload::MemBound.config(), input);
        let mut spans = Spans::new();
        m.run_traced(100, &mut spans);
        let text = spans.chrome_json();
        let parsed = JsonValue::parse(&text).expect("span file parses");
        let JsonValue::Object(fields) = parsed else { panic!("span file is not an object") };
        let Some((_, JsonValue::Array(events))) = fields.iter().find(|(k, _)| k == "traceEvents")
        else {
            panic!("span file has no event list")
        };
        assert_eq!(events.len(), 4 * 100usize.div_ceil(SAMPLE_STRIDE as usize));
    }
}
