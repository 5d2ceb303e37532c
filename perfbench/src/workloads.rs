//! The benchmark's three workloads and how a seed picks their inputs.
//!
//! Each workload is a batch job on the Table 1 machine: construct the
//! system, warm it up for [`Length::warmup`] cycles, then measure
//! [`Length::window`] cycles. The seed picks a list of inputs; a run
//! simulates them in turn, one batch each, and repeats the list until its
//! time is up, so that every input is timed many times over. The simulator
//! only ever receives the resulting [`CmpConfig`] and [`WorkloadSpec`]s.
//!
//! Why each workload, and which layer it loads, is written at its
//! variant below and in `perfbench/README.md`.

use vpc::experiments::{fig10, fig5};
use vpc::prelude::*;
use vpc_mem::ChannelMode;
use vpc_sim::SplitMix64;

/// Simulated cycles per timed slice of a measured window.
pub const SLICE_CYCLES: u64 = 10_000;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Warm-up and measured cycles of one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Length {
    /// Cycles simulated before measurement starts.
    pub warmup: u64,
    /// Measured cycles (a whole number of [`SLICE_CYCLES`] slices).
    pub window: u64,
}

/// The short length the self-tests run, recorded for every input.
pub const SHORT: Length = Length { warmup: 20_000, window: 20_000 };

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Loads thread and three Stores threads
    /// ([`fig5::contention_workloads`]) under VPC arbiters with equal 1/4
    /// shares, on the full 8192-set L2 with per-thread channels. The seed
    /// picks which core runs Loads.
    ///
    /// Why: the shared-bandwidth layer does almost all the work. Per 1,000
    /// cycles there are about 62 L2 reads and 94 writes, the data array is
    /// 100% busy and all four threads stay backlogged, so the arbiters
    /// order writes beside reads (Read-over-Write) on every grant and every
    /// store passes a gathering buffer (Stores writes distinct lines, so
    /// none gathers). The 2,048-line working
    /// set is resident after the warm-up, so there are no L2 misses after
    /// it; memory, capacity management and the cores (IPC sum 0.20) are
    /// nearly idle.
    L2Contention,
    /// The paper's target configuration: the heterogeneous 4-benchmark
    /// mixes of [`fig10::MIXES`] under VPC arbiters and the VPC capacity
    /// manager (equal shares), full 8192-set L2, per-thread channels. The
    /// seed picks the order of the mixes, and so the mix a run starts
    /// with.
    ///
    /// Why: every layer is busy. Cores retire an IPC sum of 2.2–4.6
    /// depending on the mix, there are 4–42 L2 misses per 1,000 cycles,
    /// and the data array is 99% busy. This is the cores-heavy workload.
    /// A run covers every mix because one mix per seed would make
    /// `sim_kips` differ about twofold between seeds.
    ///
    /// The 16 MB L2 is not full when measurement starts: its 262,144 lines
    /// take 6M–60M cycles of misses to fill, depending on the mix, which
    /// no warm-up here can afford. Fills therefore take an invalid way and
    /// the capacity manager's victim choice is not reached; `mem_bound`
    /// measures that path. The short warm-up fills the L1s and the arbiter
    /// and buffer queues; a longer one would only load more of an L2 that
    /// stays far from full.
    SpecMix,
    /// Four streaming profiles from {mcf, lucas, equake, swim, wupwise};
    /// the seed picks which four and their order on the cores. The L2 is
    /// cut to 64 sets so the working sets exceed it, with FCFS arbiters,
    /// Table 1's VPC capacity manager (equal way quotas) and one shared
    /// FCFS DRAM channel.
    ///
    /// Why: memory and victim selection do the work. The 2,048-line L2 is
    /// full after the warm-up, so every fill has the capacity manager
    /// choose a victim among the 32 ways of its set; memory requests, L2
    /// read latency and IPC are in `perfbench/README.md`. The fair-queuing
    /// arbiters are bypassed.
    MemBound,
}

/// The streaming profiles `mem_bound` draws from.
const STREAMING: [&str; 5] = ["mcf", "lucas", "equake", "swim", "wupwise"];

/// One input of a workload: what the cores run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Stable name of the input, the key of its expected statistics.
    pub key: String,
    /// The workload each core runs.
    pub specs: Vec<WorkloadSpec>,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::L2Contention, Workload::SpecMix, Workload::MemBound];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::L2Contention => "l2_contention",
            Workload::SpecMix => "spec_mix",
            Workload::MemBound => "mem_bound",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated machine.
    pub fn config(self) -> CmpConfig {
        let quarter = Share::new(1, 4).expect("1/4 is a valid share");
        match self {
            Workload::L2Contention => CmpConfig::table1().with_vpc_shares(vec![quarter; 4]),
            Workload::SpecMix => CmpConfig::table1()
                .with_vpc_shares(vec![quarter; 4])
                .with_capacity(CapacityPolicy::vpc_equal(4)),
            Workload::MemBound => {
                let mut cfg = CmpConfig::table1()
                    .with_arbiter(ArbiterPolicy::Fcfs)
                    .with_channels(ChannelMode::SharedFcfs);
                cfg.l2.total_sets = 64;
                cfg
            }
        }
    }

    /// Warm-up and window of one batch. The warm-ups load each input's
    /// reused working set (and fill `mem_bound`'s 64-set L2); each pass
    /// over a seed's inputs measures at least 100 slices. The windows are
    /// short so that a run repeats every input many times.
    pub fn length(self) -> Length {
        match self {
            Workload::L2Contention => Length { warmup: 300_000, window: 1_000_000 },
            Workload::SpecMix => Length { warmup: 100_000, window: 200_000 },
            Workload::MemBound => Length { warmup: 200_000, window: 200_000 },
        }
    }

    /// The inputs a run with `seed` simulates, in order. The same seed
    /// always gives the same list.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        let mut rng = SplitMix64::new(seed);
        match self {
            Workload::L2Contention => vec![contention_input(rng.below(4) as usize)],
            Workload::SpecMix => {
                shuffled(&mut rng, fig10::MIXES.len()).into_iter().map(mix_input).collect()
            }
            Workload::MemBound => shuffled(&mut rng, STREAMING.len())
                .into_iter()
                .map(|left_out| {
                    let mut four: Vec<&'static str> = (0..STREAMING.len())
                        .filter(|&i| i != left_out)
                        .map(|i| STREAMING[i])
                        .collect();
                    let order = shuffled(&mut rng, four.len());
                    four = order.into_iter().map(|i| four[i]).collect();
                    streaming_input(&four)
                })
                .collect(),
        }
    }

    /// Every input some seed can pick: the inputs whose expected
    /// statistics are recorded.
    pub fn all_inputs(self) -> Vec<Input> {
        match self {
            Workload::L2Contention => (0..4).map(contention_input).collect(),
            Workload::SpecMix => (0..fig10::MIXES.len()).map(mix_input).collect(),
            Workload::MemBound => {
                let mut out = Vec::new();
                permutations(&STREAMING, 4, &mut Vec::new(), &mut out);
                out.iter().map(|four| streaming_input(four)).collect()
            }
        }
    }
}

fn contention_input(loads_core: usize) -> Input {
    let mut specs = fig5::contention_workloads().to_vec();
    specs.swap(0, loads_core);
    Input { key: format!("loads@{loads_core}"), specs }
}

fn mix_input(mix: usize) -> Input {
    let names = fig10::MIXES[mix];
    Input { key: names.join("+"), specs: names.iter().map(|n| WorkloadSpec::Spec(n)).collect() }
}

fn streaming_input(names: &[&'static str]) -> Input {
    Input { key: names.join("+"), specs: names.iter().map(|n| WorkloadSpec::Spec(n)).collect() }
}

/// A seeded Fisher–Yates shuffle of `0..n`.
fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Appends to `out` every ordered choice of `k` distinct items of `pool`.
fn permutations(
    pool: &[&'static str],
    k: usize,
    prefix: &mut Vec<&'static str>,
    out: &mut Vec<Vec<&'static str>>,
) {
    if prefix.len() == k {
        out.push(prefix.clone());
        return;
    }
    for &item in pool {
        if !prefix.contains(&item) {
            prefix.push(item);
            permutations(pool, k, prefix, out);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            for seed in [0, DEFAULT_SEED, 7, u64::MAX] {
                assert_eq!(w.inputs(seed), w.inputs(seed), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn seeds_pick_every_choice_the_workload_offers() {
        let loads_cores: std::collections::BTreeSet<String> =
            (0..64).map(|s| Workload::L2Contention.inputs(s)[0].key.clone()).collect();
        assert_eq!(loads_cores.len(), 4);
        let first_mixes: std::collections::BTreeSet<String> =
            (0..64).map(|s| Workload::SpecMix.inputs(s)[0].key.clone()).collect();
        assert_eq!(first_mixes.len(), fig10::MIXES.len());
        let first_streams: std::collections::BTreeSet<String> =
            (0..400).map(|s| Workload::MemBound.inputs(s)[0].key.clone()).collect();
        assert!(first_streams.len() > 60, "only {} orders drawn", first_streams.len());
    }

    #[test]
    fn every_picked_input_is_recorded() {
        for w in Workload::ALL {
            let all = w.all_inputs();
            for seed in 0..50 {
                for input in w.inputs(seed) {
                    assert!(all.contains(&input), "{} seed {seed}: {}", w.name(), input.key);
                }
            }
        }
        assert_eq!(Workload::MemBound.all_inputs().len(), 5 * 4 * 3 * 2);
    }

    #[test]
    fn a_run_covers_every_mix_and_every_left_out_profile() {
        let mut mixes: Vec<String> =
            Workload::SpecMix.inputs(3).into_iter().map(|i| i.key).collect();
        mixes.sort();
        let mut all: Vec<String> = fig10::MIXES.iter().map(|m| m.join("+")).collect();
        all.sort();
        assert_eq!(mixes, all);
        let inputs = Workload::MemBound.inputs(3);
        for name in STREAMING {
            let without = inputs.iter().filter(|i| !i.key.split('+').any(|n| n == name)).count();
            assert_eq!(without, 1, "{name} is left out of exactly one input");
        }
    }

    #[test]
    fn contention_puts_loads_on_the_picked_core() {
        let input = contention_input(2);
        assert_eq!(input.specs[2], WorkloadSpec::Loads);
        assert_eq!(input.specs.iter().filter(|s| **s == WorkloadSpec::Stores).count(), 3);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn a_pass_holds_enough_slices_for_a_p90() {
        for w in Workload::ALL {
            let len = w.length();
            assert_eq!(len.window % SLICE_CYCLES, 0);
            let slices = w.inputs(DEFAULT_SEED).len() as u64 * len.window / SLICE_CYCLES;
            assert!(slices >= crate::stats::min_samples(90, 10) as u64, "{}", w.name());
        }
    }
}
