//! Deterministic parallel execution: the [`Executor`] abstraction.
//!
//! Every hot loop in the workspace (Lagrange inner-root evaluation,
//! partition statistics, k-means passes, PF scoring) is shaped the same
//! way: an embarrassingly parallel map over element indices, sometimes
//! followed by a reduction. `Executor` packages exactly that shape behind
//! two primitives — [`par_map_index`](Executor::par_map_index) and
//! [`par_chunks_reduce`](Executor::par_chunks_reduce) — with one hard
//! rule that makes parallelism safe to thread through numerical code:
//!
//! > **Determinism rule.** Chunk boundaries are a function of the input
//! > length only — never of the worker count — and per-chunk partial
//! > results are combined in fixed chunk order on the calling thread. The
//! > serial executor runs the *same* chunks sequentially.
//!
//! Consequently a computation produces bit-identical results whether it
//! runs on the [`Serial`](Executor::serial) executor or a
//! [`ThreadPool`](Executor::thread_pool) of any size; thread scheduling
//! affects wall-clock time only. The property tests in
//! `tests/properties.rs` assert this across the solver and heuristic
//! pipelines.
//!
//! Workers are `std::thread::scope` threads, spawned per call: workloads here
//! are long (10⁴–10⁶ elements), so spawn cost is noise, and scoped
//! threads let closures borrow the caller's stack without `'static`
//! gymnastics. The worker count comes from `--threads` on the CLIs or the
//! `FRESHEN_THREADS` environment variable (see
//! [`Executor::from_threads`]); the default is serial, preserving
//! historical single-threaded behavior everywhere an executor is not
//! explicitly configured.
//!
//! When built with an enabled [`Recorder`], every parallel region emits
//! an `exec.worker` span per worker (with the worker index and the number
//! of tasks it claimed) plus `exec.par_calls` / `exec.par_tasks`
//! counters, so pool utilization shows up in Chrome traces next to the
//! solver and heuristic spans.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use freshen_obs::Recorder;

/// Default elements-per-chunk granularity for chunked reductions. Small
/// enough to balance 4–8 workers at `N = 10⁵`, large enough that per-chunk
/// overhead is negligible.
pub const DEFAULT_CHUNK: usize = 8_192;

/// Environment variable consulted by [`Executor::from_env`] for the
/// worker count.
pub const THREADS_ENV: &str = "FRESHEN_THREADS";

/// Minimum per-worker slice of a `par_map_index`; below this, splitting
/// further only adds scheduling overhead. Affects load balancing only,
/// never results.
const MIN_MAP_CHUNK: usize = 1_024;

/// A serial or thread-pool execution strategy for data-parallel loops.
///
/// Cheap to clone (a worker count plus a [`Recorder`] handle); the
/// default is [`Executor::serial`], so embedding an `Executor` field in a
/// solver or scheduler changes nothing until a pool is configured.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
    recorder: Recorder,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// The serial executor: every primitive runs inline on the calling
    /// thread, over the same chunks a pool would use.
    pub fn serial() -> Self {
        Executor {
            workers: 1,
            recorder: Recorder::disabled(),
        }
    }

    /// A pool of `workers` scoped std threads (clamped to at least
    /// 1; `thread_pool(1)` is equivalent to [`Executor::serial`]).
    pub fn thread_pool(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            recorder: Recorder::disabled(),
        }
    }

    /// Worker count from the `FRESHEN_THREADS` environment variable
    /// (serial when unset or unparsable).
    pub fn from_env() -> Self {
        let workers = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Self::thread_pool(workers)
    }

    /// Resolve a worker count with the CLI precedence: an explicit
    /// `--threads` value wins, `Some(0)`/`None` fall back to
    /// `FRESHEN_THREADS`, and an unset environment means serial.
    pub fn from_threads(threads: Option<usize>) -> Self {
        match threads {
            Some(n) if n > 0 => Self::thread_pool(n),
            _ => Self::from_env(),
        }
    }

    /// Attach a recorder so parallel regions emit per-worker spans and
    /// counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether this executor spawns worker threads (`workers > 1`).
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }

    /// The recorder parallel regions report to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Run `tasks` independent jobs and collect their results in task
    /// order. Serial executors (or single-task calls) run inline; pools
    /// hand task indices to workers through an atomic cursor. Results are
    /// placed by task index, so the output order never depends on
    /// scheduling.
    fn run_tasks<R, F>(&self, tasks: usize, run: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if !self.is_parallel() || tasks <= 1 {
            return (0..tasks).map(run).collect();
        }
        let workers = self.workers.min(tasks);
        self.recorder.counter("exec.par_calls").inc();
        self.recorder.counter("exec.par_tasks").add(tasks as u64);
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let next = &next;
                    let run = &run;
                    let recorder = &self.recorder;
                    scope.spawn(move || {
                        let mut span = recorder.span("exec.worker");
                        span.arg("worker", w);
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            local.push((i, run(i)));
                        }
                        span.arg("tasks", local.len());
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index claimed exactly once"))
            .collect()
    }

    /// Map `f` over `0..len`, returning results in index order. The map is
    /// applied per element, so the output is identical for any worker
    /// count (chunking here affects load balance only).
    pub fn par_map_index<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunk = len
            .div_ceil(self.workers.max(1) * 4)
            .max(MIN_MAP_CHUNK)
            .min(len.max(1));
        let chunks = chunk_ranges(len, chunk);
        let parts = self.run_tasks(chunks.len(), |c| {
            chunks[c].clone().map(&f).collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(len);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Split `0..len` into fixed chunks of `chunk` elements, map each
    /// chunk to a partial result, then fold the partials **in chunk
    /// order** on the calling thread. Because the boundaries depend only
    /// on `len` and `chunk`, and the fold order is fixed, the result is
    /// bit-identical at any worker count — the serial executor reduces
    /// the very same partials. Returns `None` when `len == 0`.
    pub fn par_chunks_reduce<R, M, F>(&self, len: usize, chunk: usize, map: M, fold: F) -> Option<R>
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
        F: FnMut(R, R) -> R,
    {
        let chunks = chunk_ranges(len, chunk.max(1));
        let parts = self.run_tasks(chunks.len(), |c| map(chunks[c].clone()));
        parts.into_iter().reduce(fold)
    }

    /// Map over caller-supplied index ranges (for example a solver's
    /// fixed chunks), returning results in range order.
    pub fn map_ranges<R, M>(&self, ranges: &[Range<usize>], map: M) -> Vec<R>
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
    {
        self.run_tasks(ranges.len(), |c| map(ranges[c].clone()))
    }

    /// [`map_ranges`](Self::map_ranges) that also hands each task the
    /// matching sub-slice of `out` (`&mut out[range]`), so a pass can
    /// write its per-element results in place instead of returning them
    /// for a serial copy. Ranges must be ascending, disjoint and within
    /// `out`.
    ///
    /// # Panics
    /// Panics when the ranges overlap, descend or run past `out`.
    pub fn map_ranges_mut<T, R, M>(&self, ranges: &[Range<usize>], out: &mut [T], map: M) -> Vec<R>
    where
        T: Send,
        R: Send,
        M: Fn(Range<usize>, &mut [T]) -> R + Sync,
    {
        let mut slots = Vec::with_capacity(ranges.len());
        let (mut rest, mut offset) = (out, 0usize);
        for range in ranges {
            let (_, tail) = rest.split_at_mut(range.start - offset);
            let (mine, tail) = tail.split_at_mut(range.len());
            slots.push(Mutex::new(mine));
            (rest, offset) = (tail, range.end);
        }
        self.run_tasks(ranges.len(), |c| {
            let mut slot = slots[c].lock().expect("each slot is locked by one task");
            map(ranges[c].clone(), &mut slot)
        })
    }

    /// Run two closures, overlapping them on a pool (`a` on a worker
    /// thread, `b` on the calling thread) and sequentially (`a` then `b`)
    /// on the serial executor. The results are independent of which path
    /// ran.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB,
        RA: Send,
    {
        if !self.is_parallel() {
            let ra = a();
            (ra, b())
        } else {
            std::thread::scope(|scope| {
                let handle = scope.spawn(a);
                let rb = b();
                (handle.join().expect("joined task panicked"), rb)
            })
        }
    }
}

/// Contiguous ranges of `chunk` indices covering `0..len` (the last range
/// may be short). Depends only on `len` and `chunk`, never on worker
/// count — callers that pre-compute chunk lists (the Lagrange solver's
/// allocation loop) rely on this to keep results identical across
/// executors.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    (0..len.div_ceil(chunk))
        .map(|c| {
            let start = c * chunk;
            start..(start + chunk).min(len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::NeumaierSum;

    #[test]
    fn map_ranges_mut_writes_in_place_identically_on_pool() {
        let ranges = chunk_ranges(10_000, 999);
        let run = |exec: Executor| {
            let mut out = vec![0usize; 10_000];
            let sums = exec.map_ranges_mut(&ranges, &mut out, |range, out| {
                for (k, o) in range.clone().zip(out.iter_mut()) {
                    *o = k * 3;
                }
                range.sum::<usize>()
            });
            (out, sums)
        };
        let serial = run(Executor::serial());
        assert_eq!(serial, run(Executor::thread_pool(4)));
        assert_eq!(serial.0[1234], 3702);
        assert_eq!(serial.1.iter().sum::<usize>(), (0..10_000).sum::<usize>());
    }

    #[test]
    fn par_map_preserves_order_on_pool() {
        let serial = Executor::serial().par_map_index(10_000, |x| x * 3);
        let pooled = Executor::thread_pool(4).par_map_index(10_000, |x| x * 3);
        assert_eq!(serial, pooled);
        assert_eq!(serial[1234], 3702);
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert!(Executor::thread_pool(8).par_map_index(0, |x| x).is_empty());
        assert_eq!(
            Executor::thread_pool(8).par_map_index(3, |i| i + 1),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn chunked_reduce_is_bit_identical_across_worker_counts() {
        // Float accumulation is order-sensitive; the fixed chunk
        // boundaries and fold order must make the result exactly equal.
        let values: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64) * 0.618).sin() / (1.0 + i as f64))
            .collect();
        let sum_with = |workers: usize| {
            Executor::thread_pool(workers)
                .par_chunks_reduce(
                    values.len(),
                    1_000,
                    |range| {
                        let mut acc = NeumaierSum::new();
                        for &v in &values[range] {
                            acc.add(v);
                        }
                        acc
                    },
                    |mut a, b| {
                        a.merge(b);
                        a
                    },
                )
                .unwrap()
                .total()
        };
        let serial = sum_with(1);
        for workers in [2, 4, 8] {
            let pooled = sum_with(workers);
            assert_eq!(serial.to_bits(), pooled.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn chunked_reduce_empty_input() {
        let out = Executor::thread_pool(2).par_chunks_reduce(0, 64, |_| 1u64, |a, b| a + b);
        assert_eq!(out, None);
    }

    #[test]
    fn map_ranges_keeps_range_order() {
        let ranges = vec![0..3, 3..5, 5..11, 11..11];
        let out = Executor::thread_pool(3).map_ranges(&ranges, |r| r.len());
        assert_eq!(out, vec![3, 2, 6, 0]);
    }

    #[test]
    fn join_runs_both_closures() {
        for exec in [Executor::serial(), Executor::thread_pool(2)] {
            let (a, b) = exec.join(|| 6 * 7, || "side".len());
            assert_eq!((a, b), (42, 4));
        }
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Executor::serial().workers(), 1);
        assert!(!Executor::serial().is_parallel());
        assert_eq!(Executor::thread_pool(0).workers(), 1);
        assert_eq!(Executor::thread_pool(4).workers(), 4);
        assert!(Executor::thread_pool(4).is_parallel());
        assert_eq!(Executor::from_threads(Some(3)).workers(), 3);
        assert_eq!(Executor::default().workers(), 1);
    }

    #[test]
    fn env_fallback_resolution() {
        // One test owns FRESHEN_THREADS to avoid races; restore the
        // ambient value (CI sets it for the pool-path test job).
        let previous = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "7");
        assert_eq!(Executor::from_env().workers(), 7);
        assert_eq!(Executor::from_threads(None).workers(), 7);
        assert_eq!(Executor::from_threads(Some(0)).workers(), 7);
        assert_eq!(Executor::from_threads(Some(2)).workers(), 2);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(Executor::from_env().workers(), 1);
        match previous {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn pool_reports_worker_spans_and_counters() {
        let recorder = Recorder::enabled();
        let exec = Executor::thread_pool(4).with_recorder(recorder.clone());
        let out = exec.par_map_index(20_000, |i| i as u64);
        assert_eq!(out.len(), 20_000);
        assert!(recorder.counter_value("exec.par_calls").unwrap() >= 1);
        assert!(recorder.counter_value("exec.par_tasks").unwrap() >= 2);
        let trace = recorder.chrome_trace_json().unwrap();
        assert!(
            trace.contains("exec.worker"),
            "missing worker span: {trace}"
        );
    }

    #[test]
    fn serial_executor_emits_no_parallel_telemetry() {
        let recorder = Recorder::enabled();
        let exec = Executor::serial().with_recorder(recorder.clone());
        let _ = exec.par_map_index(10_000, |i| i);
        assert_eq!(recorder.counter_value("exec.par_calls"), None);
    }
}
