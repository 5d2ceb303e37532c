//! A scoped thread-pool / job-map layer for embarrassingly-parallel
//! experiment grids.
//!
//! The paper's evaluation is a grid of *independent* simulations (one per
//! benchmark, per share point, per mix). Each simulation is a pure
//! function of its configuration — every workload owns its RNG seed — so
//! the grid can run on as many worker threads as the host offers while
//! producing output *byte-identical* to a serial run: [`Pool::map`]
//! joins results in input order, and nothing about a job's execution
//! depends on which worker ran it or when.
//!
//! # Model
//!
//! A [`Job`] is a labeled closure. A [`Pool`] is a value its caller owns:
//! it holds the worker count, the optional per-job trace capture
//! capacity, and what its batches left behind. [`Pool::map`] runs a batch
//! of jobs across up to that many scoped worker threads (borrowing from
//! the caller's stack is fine), returns the results in input order, and
//! propagates the first panic (in input order) with the failing job's
//! label attached. Per-job wall-clock timings, and with capture on each
//! job's trace log, are appended to the pool in input order, where
//! [`Pool::take_timings`] and [`Pool::take_logs`] drain them. Two pools
//! share nothing, so independent callers (tests included) never see each
//! other's records.
//!
//! ```
//! use vpc_sim::exec::{Job, Pool};
//!
//! let mut pool = Pool::new(4);
//! let jobs = (0..8).map(|i| Job::new(format!("square/{i}"), move || i * i)).collect();
//! assert_eq!(pool.map(jobs), vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(pool.take_timings().len(), 8);
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::{self, TraceLog};

/// A labeled unit of independent work.
pub struct Job<'a, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps a closure with a label used in timing reports and panic
    /// messages.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Job<'a, T> {
        Job { label: label.into(), run: Box::new(run) }
    }
}

/// Wall-clock cost of one completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTiming {
    /// The job's label.
    pub label: String,
    /// Wall-clock time the job's closure ran for.
    pub elapsed: Duration,
}

/// A worker count plus the records of the batches run on it.
#[derive(Debug)]
pub struct Pool {
    workers: usize,
    capture: Option<usize>,
    timings: Vec<JobTiming>,
    logs: Vec<(String, TraceLog)>,
}

impl Pool {
    /// A pool running up to `workers` jobs at once (0 counts as 1), with
    /// trace capture off.
    pub fn new(workers: usize) -> Pool {
        Pool { workers: workers.max(1), capture: None, timings: Vec::new(), logs: Vec::new() }
    }

    /// Turns per-job trace capture on (`Some(capacity)`) or off: each
    /// later job runs with a fresh recorder of that capacity on its
    /// thread, and its log lands in [`Pool::take_logs`] under its label.
    pub fn with_capture(mut self, capacity: Option<usize>) -> Pool {
        self.capture = capacity;
        self
    }

    /// The most jobs this pool runs at once.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drains every job timing recorded since the last call, in batch
    /// order and within a batch in input order.
    pub fn take_timings(&mut self) -> Vec<JobTiming> {
        std::mem::take(&mut self.timings)
    }

    /// Drains every per-job trace log captured since the last call, in
    /// batch order and within a batch in input order.
    pub fn take_logs(&mut self) -> Vec<(String, TraceLog)> {
        std::mem::take(&mut self.logs)
    }

    /// Runs `jobs` across up to [`Pool::workers`] threads and returns
    /// their results **in input order**.
    ///
    /// Each job runs exactly once. With one worker (or a single job)
    /// everything runs on the calling thread — the parallel and serial
    /// paths are otherwise identical, which is what makes `--jobs N`
    /// output byte-identical to `--jobs 1`. Per-job timings (and captured
    /// logs) are appended to the pool in input order regardless of
    /// completion order.
    ///
    /// # Panics
    ///
    /// If a job panics, every remaining job still runs (no hang, no
    /// detached threads), its timing is still recorded, and `map` then
    /// panics with the input-order-first failing job's label and panic
    /// message.
    pub fn map<T: Send>(&mut self, jobs: Vec<Job<'_, T>>) -> Vec<T> {
        let n = jobs.len();
        let workers = self.workers.min(n.max(1));
        let capture = self.capture;

        let mut outcomes: Vec<Option<Outcome<T>>> = if workers <= 1 || n <= 1 {
            jobs.into_iter().map(|job| Some(run_one(job, capture))).collect()
        } else {
            let slots: Vec<Mutex<Option<Job<'_, T>>>> =
                jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            let results: Vec<Mutex<Option<Outcome<T>>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = slots[i]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job claimed twice");
                        *results[i].lock().expect("result slot poisoned") =
                            Some(run_one(job, capture));
                    });
                }
            });
            results
                .into_iter()
                .map(|slot| slot.into_inner().expect("result slot poisoned"))
                .collect()
        };

        let mut out = Vec::with_capacity(n);
        let mut failure: Option<(String, String)> = None;
        for outcome in outcomes.iter_mut() {
            let (label, result, elapsed, log) = outcome.take().expect("job never ran");
            self.timings.push(JobTiming { label: label.clone(), elapsed });
            if let Some(log) = log {
                self.logs.push((label.clone(), log));
            }
            match result {
                Ok(value) => out.push(value),
                Err(payload) => {
                    if failure.is_none() {
                        failure = Some((label, payload_message(payload.as_ref()).to_string()));
                    }
                }
            }
        }
        if let Some((label, message)) = failure {
            panic!("job '{label}' panicked: {message}");
        }
        out
    }
}

/// What one finished job leaves behind: its label, its result (or the
/// caught panic payload), its wall-clock cost, and — when per-job trace
/// capture is on — the events it recorded.
type Outcome<T> = (String, std::thread::Result<T>, Duration, Option<TraceLog>);

/// Runs one job, catching panics so a worker thread never unwinds.
///
/// With a `capture` capacity the job runs with a fresh thread-local
/// recorder (each job runs entirely on one thread, so its events cannot
/// interleave with another job's) and the resulting log travels back
/// with the outcome.
fn run_one<T>(job: Job<'_, T>, capture: Option<usize>) -> Outcome<T> {
    let Job { label, run } = job;
    if let Some(capacity) = capture {
        trace::install(capacity);
    }
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(run));
    let elapsed = start.elapsed();
    let log = if capture.is_some() { trace::take() } else { None };
    (label, result, elapsed, log)
}

/// Renders a caught panic payload for the re-thrown message.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(at: u64) -> trace::TraceEvent {
        let data =
            trace::EventData::LoadReturn { thread: crate::ThreadId(0), line: crate::LineAddr(at) };
        trace::TraceEvent { at, data }
    }

    /// A batch of `n` jobs labeled `name/i`, job `i` emitting `marker(i)`.
    fn marking_batch(name: &str, n: u64) -> Vec<Job<'static, ()>> {
        (0..n).map(|i| Job::new(format!("{name}/{i}"), move || trace::emit(|| marker(i)))).collect()
    }

    /// What a capturing pool of capacity 4 should hold after
    /// `marking_batch(name, n)`.
    fn marking_logs(name: &str, n: u64) -> Vec<(String, TraceLog)> {
        let log = |i| {
            let mut log = TraceLog::new(4);
            log.push(marker(i));
            log
        };
        (0..n).map(|i| (format!("{name}/{i}"), log(i))).collect()
    }

    fn labels(logs: &[(String, TraceLog)]) -> Vec<String> {
        logs.iter().map(|(label, _)| label.clone()).collect()
    }

    fn timing_labels(pool: &mut Pool) -> Vec<String> {
        pool.take_timings().into_iter().map(|t| t.label).collect()
    }

    #[test]
    fn preserves_input_order_at_any_parallelism() {
        for parallelism in [0usize, 1, 2, 3, 8, 64] {
            let jobs = (0..17).map(|i| Job::new(format!("id/{i}"), move || i)).collect();
            assert_eq!(Pool::new(parallelism).map(jobs), (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<Job<'_, u32>>::new()), Vec::<u32>::new());
        assert!(pool.take_timings().is_empty());
    }

    #[test]
    fn borrows_from_the_caller_scope() {
        let inputs = [10u64, 20, 30];
        let jobs = inputs.iter().map(|v| Job::new("borrow", move || v * 2)).collect();
        assert_eq!(Pool::new(2).map(jobs), vec![20, 40, 60]);
    }

    #[test]
    fn records_one_timing_per_job_in_input_order() {
        let mut pool = Pool::new(3);
        pool.map(marking_batch("t", 5));
        assert_eq!(timing_labels(&mut pool), labels(&marking_logs("t", 5)));
        assert!(pool.take_timings().is_empty(), "take_timings drains the pool");
    }

    #[test]
    fn captures_one_log_per_job_only_when_asked() {
        let mut plain = Pool::new(2);
        plain.map(marking_batch("c", 3));
        assert!(plain.take_logs().is_empty());

        let mut capturing = Pool::new(2).with_capture(Some(4));
        capturing.map(marking_batch("c", 3));
        assert_eq!(capturing.take_logs(), marking_logs("c", 3));
        assert!(!trace::is_enabled(), "capture leaves no recorder armed on the caller");
    }

    #[test]
    fn concurrent_pools_keep_their_own_records() {
        // Two capturing pools on two threads. The first job of each batch
        // waits for the other's, so both batches are in flight at once,
        // and neither pool is drained before both batches have joined.
        let overlap = std::sync::Barrier::new(2);
        let joined = std::sync::Barrier::new(2);
        let run = |name: &str, n: u64, workers: usize| {
            let mut pool = Pool::new(workers).with_capture(Some(4));
            let overlap = &overlap;
            let jobs = (0..n).map(|i| {
                Job::new(format!("{name}/{i}"), move || {
                    if i == 0 {
                        overlap.wait();
                    }
                    trace::emit(|| marker(i));
                })
            });
            pool.map(jobs.collect());
            joined.wait();
            (timing_labels(&mut pool), pool.take_logs())
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run("a", 5, 1));
            let b = scope.spawn(|| run("b", 7, 3));
            (a.join().expect("pool a"), b.join().expect("pool b"))
        });
        for ((timings, logs), (name, n)) in [(a, ("a", 5)), (b, ("b", 7))] {
            let expected = marking_logs(name, n);
            assert_eq!(timings, labels(&expected), "pool {name}'s timings");
            assert_eq!(logs, expected, "pool {name}'s logs");
        }
    }

    #[test]
    fn panic_carries_the_input_order_first_label() {
        let jobs: Vec<Job<'_, ()>> = (0..6)
            .map(|i| {
                Job::new(format!("p/{i}"), move || {
                    if i >= 4 {
                        panic!("boom {i}");
                    }
                })
            })
            .collect();
        let mut pool = Pool::new(3);
        let err =
            panic::catch_unwind(AssertUnwindSafe(|| pool.map(jobs))).expect_err("a job panicked");
        let message = payload_message(err.as_ref()).to_string();
        assert!(
            message.contains("'p/4'") && message.contains("boom 4"),
            "unexpected panic message: {message}"
        );
        assert_eq!(pool.take_timings().len(), 6, "every job ran and was timed");
    }
}
