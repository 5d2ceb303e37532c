//! The correctness gate: a batch's simulated statistics against the values
//! recorded for its workload, input and length.
//!
//! The recorded values live in `perfbench/expected.txt`, one line per
//! (workload, input, length):
//!
//! ```text
//! <workload> <input> <warmup> <window> <value> ... (one per Stats::names)
//! ```
//!
//! `perfbench --record` rewrites the file from the current simulator. Do
//! that only for a deliberate behaviour change; a speed-only change must
//! pass against the old file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vpc_cache::SharedL2;
use vpc_cpu::Core;

use crate::workloads::{Input, Length, Workload};

/// Counters a batch must reproduce exactly, cumulative from cycle zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats(Vec<u64>);

/// Shared L2 counters, in [`Stats`] order after the per-thread retired
/// instructions.
const L2_FIELDS: [&str; 8] = [
    "read_hits",
    "read_misses",
    "write_hits",
    "write_misses",
    "castouts",
    "tag_busy",
    "data_busy",
    "bus_busy",
];

/// Per-thread SGB counters, in [`Stats`] order.
const SGB_FIELDS: [&str; 5] =
    ["stores_in", "stores_gathered", "writes_out", "loads_out", "partial_flushes"];

impl Stats {
    /// Reads the counters of a machine built from `cores` and `l2`.
    pub fn of<'a>(cores: impl IntoIterator<Item = &'a Core>, l2: &SharedL2) -> Stats {
        let cores: Vec<&Core> = cores.into_iter().collect();
        let mut v: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
        let l2s = l2.stats();
        v.extend([
            l2s.read_hits.get(),
            l2s.read_misses.get(),
            l2s.write_hits.get(),
            l2s.write_misses.get(),
            l2s.castouts.get(),
        ]);
        let (tag, data, bus) = l2.busy_cycles();
        v.extend([tag, data, bus]);
        for core in &cores {
            let p = l2.port_stats(core.thread());
            v.extend([
                p.stores_in.get(),
                p.stores_gathered.get(),
                p.writes_out.get(),
                p.loads_out.get(),
                p.partial_flushes.get(),
            ]);
        }
        Stats(v)
    }

    /// The name of each counter, for `threads` threads.
    pub fn names(threads: usize) -> Vec<String> {
        let mut names: Vec<String> = (0..threads).map(|t| format!("retired.t{t}")).collect();
        names.extend(L2_FIELDS.map(String::from));
        for t in 0..threads {
            names.extend(SGB_FIELDS.iter().map(|f| format!("sgb.t{t}.{f}")));
        }
        names
    }

    /// Describes how `self` differs from `expected`, or `None` if equal.
    pub fn mismatch(&self, expected: &Stats) -> Option<String> {
        if self == expected {
            return None;
        }
        if self.0.len() != expected.0.len() {
            return Some(format!("{} counters, expected {}", self.0.len(), expected.0.len()));
        }
        let threads = self.0.len().saturating_sub(L2_FIELDS.len()) / (1 + SGB_FIELDS.len());
        let names = Stats::names(threads);
        let diffs: Vec<String> = self
            .0
            .iter()
            .zip(&expected.0)
            .zip(&names)
            .filter(|((got, want), _)| got != want)
            .map(|((got, want), name)| format!("{name} {got} (expected {want})"))
            .collect();
        Some(diffs.join(", "))
    }
}

/// The recorded statistics, by (workload, input, warm-up, window).
#[derive(Debug, Default)]
pub struct Expected(BTreeMap<Key, Stats>);

type Key = (String, String, u64, u64);

fn key(workload: Workload, input: &Input, length: Length) -> Key {
    (workload.name().to_string(), input.key.clone(), length.warmup, length.window)
}

impl Expected {
    /// The table built into this binary from `perfbench/expected.txt`.
    pub fn recorded() -> Result<Expected, String> {
        Expected::parse(include_str!("../expected.txt"))
    }

    /// Parses the table format described in the module docs.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut table = Expected::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("expected.txt line {}: {what}", i + 1);
            let mut fields = line.split_whitespace();
            let workload = fields.next().ok_or_else(|| err("no workload"))?.to_string();
            let input = fields.next().ok_or_else(|| err("no input"))?.to_string();
            let mut numbers = fields.map(|f| f.parse::<u64>().map_err(|_| err(f)));
            let mut next = |what: &str| numbers.next().ok_or_else(|| err(what))?;
            let warmup = next("no warm-up")?;
            let window = next("no window")?;
            let values = numbers.collect::<Result<Vec<u64>, String>>()?;
            if values.is_empty() {
                return Err(err("no counters"));
            }
            table.0.insert((workload, input, warmup, window), Stats(values));
        }
        Ok(table)
    }

    /// The statistics recorded for `input` of `workload` at `length`.
    pub fn get(&self, workload: Workload, input: &Input, length: Length) -> Option<&Stats> {
        self.0.get(&key(workload, input, length))
    }

    /// Records `stats`.
    pub fn insert(&mut self, workload: Workload, input: &Input, length: Length, stats: Stats) {
        self.0.insert(key(workload, input, length), stats);
    }

    /// Renders the table in the format [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Expected simulated statistics per (workload, input, warm-up, window),\n\
             # cumulative from cycle zero. Written by `perfbench --record`.\n",
        );
        let _ = writeln!(out, "# counters: {}", Stats::names(4).join(" "));
        for ((workload, input, warmup, window), stats) in &self.0 {
            let _ = write!(out, "{workload} {input} {warmup} {window}");
            for v in &stats.0 {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }
}

/// Checks `stats` of one batch against the recorded table.
pub fn check(
    expected: &Expected,
    workload: Workload,
    input: &Input,
    length: Length,
    stats: &Stats,
) -> Result<(), String> {
    let want = expected.get(workload, input, length).ok_or_else(|| {
        format!(
            "no expected statistics for {} {} at {}+{} cycles",
            workload.name(),
            input.key,
            length.warmup,
            length.window
        )
    })?;
    match stats.mismatch(want) {
        None => Ok(()),
        Some(diff) => Err(format!("{} {}: {diff}", workload.name(), input.key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips() {
        let input = &Workload::MemBound.all_inputs()[3];
        let len = Length { warmup: 5, window: 10 };
        let mut table = Expected::default();
        table.insert(Workload::MemBound, input, len, Stats((0..32).collect()));
        let parsed = Expected::parse(&table.render()).expect("rendered table parses");
        assert_eq!(parsed.get(Workload::MemBound, input, len), Some(&Stats((0..32).collect())));
        assert_eq!(parsed.get(Workload::SpecMix, input, len), None);
    }

    #[test]
    fn mismatches_name_the_counter() {
        let want = Stats((0..32).collect());
        let mut got = want.clone();
        got.0[4] += 1;
        let diff = got.mismatch(&want).expect("differs");
        assert_eq!(diff, "read_hits 5 (expected 4)");
        assert_eq!(want.mismatch(&want), None);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Expected::parse("spec_mix a 1 2 x").is_err());
        assert!(Expected::parse("spec_mix a 1 2").is_err());
        assert!(Expected::parse("spec_mix").is_err());
        assert!(Expected::parse("# only a comment\n\n").is_ok());
    }

    #[test]
    fn recorded_table_covers_every_input_at_both_lengths() {
        let table = Expected::recorded().expect("recorded table parses");
        for w in Workload::ALL {
            for input in w.all_inputs() {
                for len in [w.length(), crate::workloads::SHORT] {
                    assert!(table.get(w, &input, len).is_some(), "{} {}", w.name(), input.key);
                }
            }
        }
    }
}
