//! Layer probes: each drives one layer's public API alone, with inputs
//! shaped by a workload (its policy, thread count, associativity, channel
//! mode and the read/write mix measured on it), and reports host ns per
//! operation as the median of [`REPS`] timed repetitions.
//!
//! These layers run inside `SharedL2::tick`, so the cycle-loop spans
//! cannot separate them; the probes time them from outside.

use std::hint::black_box;
use std::time::Instant;

use vpc::prelude::*;
use vpc_arbiters::ArbRequest;
use vpc_capacity::{ReplacementPolicy, TagSet, TrueLru, VpcCapacityManager};
use vpc_mem::{ChannelMode, MemConfig, MemRequest, MemoryController};
use vpc_sim::{AccessKind, LineAddr, SplitMix64};

use crate::stats::median;

/// Timed repetitions per probe.
const REPS: usize = 5;
/// Threads every workload runs.
const THREADS: usize = 4;

/// What a workload tells the probes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// L2 arbiter policy (the data array's, which every workload shares
    /// with the tag array and data bus).
    pub arbiter: ArbiterPolicy,
    /// L2 replacement policy.
    pub capacity: CapacityPolicy,
    /// L2 associativity.
    pub ways: usize,
    /// Data-array service cycles of a read and of a write.
    pub service: (u64, u64),
    /// Memory configuration and channel topology.
    pub mem: (MemConfig, ChannelMode),
    /// Share of L2 requests that are writes.
    pub l2_write_frac: f64,
    /// Share of memory requests that are castouts (writes).
    pub mem_write_frac: f64,
    /// The workloads every input runs, all inputs together.
    pub specs: Vec<WorkloadSpec>,
    /// Seed of the probes' request streams.
    pub seed: u64,
}

fn per_op_ns(mut rep: impl FnMut() -> (std::time::Duration, u64)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (elapsed, ops) = rep();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Host ns per grant: `ArbiterPolicy::build`, then enqueue one request and
/// select one, keeping every thread backlogged as on a saturated data
/// array.
pub fn grant_ns(shape: &Shape) -> f64 {
    const GRANTS: u64 = 200_000;
    const BACKLOG: u64 = 16;
    let mut rng = SplitMix64::new(shape.seed);
    let requests: Vec<ArbRequest> = (0..GRANTS + BACKLOG)
        .map(|id| {
            let thread = ThreadId(rng.below(THREADS as u64) as u8);
            if rng.chance(shape.l2_write_frac) {
                ArbRequest::new(id, thread, AccessKind::Write, shape.service.1)
            } else {
                ArbRequest::new(id, thread, AccessKind::Read, shape.service.0)
            }
        })
        .collect();
    per_op_ns(|| {
        let mut arb = shape.arbiter.build(THREADS);
        let mut now = 0;
        for req in &requests[..BACKLOG as usize] {
            arb.enqueue(*req, now);
        }
        let start = Instant::now();
        for req in &requests[BACKLOG as usize..] {
            arb.enqueue(*req, now);
            let granted = arb.select(now).expect("the arbiter holds a backlog");
            now += black_box(granted).service_time;
        }
        (start.elapsed(), GRANTS)
    })
}

/// Host ns per victim: `ReplacementPolicy::choose_victim` on full
/// `TagSet`s with the workload's associativity and policy, each victim
/// then refilled by the requesting thread (untimed) so occupancy evolves
/// as the policy steers it.
pub fn victim_ns(shape: &Shape) -> f64 {
    const SETS: usize = 256;
    const ROUNDS: u64 = 200;
    let policy: Box<dyn ReplacementPolicy> = match &shape.capacity {
        CapacityPolicy::Lru => Box::new(TrueLru),
        CapacityPolicy::Vpc { shares } => {
            Box::new(VpcCapacityManager::from_shares(shares, shape.ways as u32))
        }
    };
    per_op_ns(|| {
        let mut rng = SplitMix64::new(shape.seed);
        let mut now = 0;
        let mut line = || LineAddr(rng.next_u64() >> 16);
        let mut sets: Vec<TagSet> = (0..SETS).map(|_| TagSet::new(shape.ways)).collect();
        for set in &mut sets {
            for way in 0..shape.ways {
                set.fill(way, line(), ThreadId((way % THREADS) as u8), now);
                now += 1;
            }
        }
        let mut victims = vec![0; SETS];
        let mut elapsed = std::time::Duration::ZERO;
        for round in 0..ROUNDS {
            let requester = |i: usize| ThreadId(((i as u64 + round) % THREADS as u64) as u8);
            let start = Instant::now();
            for (i, set) in sets.iter().enumerate() {
                victims[i] = policy.choose_victim(black_box(set), requester(i));
            }
            elapsed += start.elapsed();
            for (i, set) in sets.iter_mut().enumerate() {
                set.fill(victims[i], line(), requester(i), now);
                now += 1;
            }
        }
        (elapsed, ROUNDS * SETS as u64)
    })
}

/// Host ns per memory request: `MemoryController::with_mode` with the
/// workload's channel topology, every thread offering a request each
/// cycle (the workload's fetch/castout mix), the controller ticked every
/// cycle until every read has returned.
pub fn mem_request_ns(shape: &Shape) -> f64 {
    const REQUESTS: u64 = 20_000;
    per_op_ns(|| {
        let mut rng = SplitMix64::new(shape.seed);
        let (config, mode) = &shape.mem;
        let mut mc = MemoryController::with_mode(*config, THREADS, mode.clone());
        let (mut issued, mut reads_out, mut now) = (0, 0u64, 0);
        let start = Instant::now();
        while issued < REQUESTS || reads_out > 0 {
            for t in 0..THREADS {
                let thread = ThreadId(t as u8);
                let kind = if rng.chance(shape.mem_write_frac) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if issued < REQUESTS && mc.can_accept(thread, kind) {
                    let line = LineAddr(rng.next_u64() >> 20);
                    mc.enqueue(MemRequest { thread, line, kind, token: issued }, now);
                    issued += 1;
                    reads_out += u64::from(kind == AccessKind::Read);
                }
            }
            mc.tick(now);
            while let Some(resp) = mc.pop_response() {
                black_box(resp);
                reads_out -= 1;
            }
            now += 1;
        }
        (start.elapsed(), REQUESTS)
    })
}

/// Host ns per instruction generated: `Workload::next_op` round-robin over
/// one generator per (input, core) of the workload.
pub fn op_ns(shape: &Shape) -> f64 {
    const OPS: u64 = 1_000_000;
    per_op_ns(|| {
        let mut generators: Vec<Box<dyn vpc_cpu::Workload>> = shape
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| spec.build(ThreadId((i % THREADS) as u8)))
            .collect();
        let n = generators.len() as u64;
        let start = Instant::now();
        for i in 0..OPS {
            black_box(generators[(i % n) as usize].next_op());
        }
        (start.elapsed(), OPS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn shape(w: Workload) -> Shape {
        let cfg = w.config();
        Shape {
            arbiter: cfg.l2.arbiter.clone(),
            capacity: cfg.l2.capacity.clone(),
            ways: cfg.l2.ways,
            service: (cfg.l2.data_latency, cfg.l2.write_latency()),
            mem: (cfg.mem, cfg.channels.clone()),
            l2_write_frac: 0.5,
            mem_write_frac: 0.25,
            specs: w.inputs(1).into_iter().flat_map(|i| i.specs).collect(),
            seed: 1,
        }
    }

    #[test]
    fn every_probe_measures_a_positive_time() {
        for w in Workload::ALL {
            let s = shape(w);
            for (name, ns) in [
                ("grant", grant_ns(&s)),
                ("victim", victim_ns(&s)),
                ("mem", mem_request_ns(&s)),
                ("op", op_ns(&s)),
            ] {
                assert!(ns > 0.0 && ns.is_finite(), "{} {name}: {ns}", w.name());
            }
        }
    }
}
