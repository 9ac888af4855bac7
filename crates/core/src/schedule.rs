//! Turning refresh frequencies into a concrete Fixed-Order timetable.
//!
//! The solvers output *frequencies* `fᵢ` (refreshes per period). The mirror
//! needs actual poll instants. Following the paper (§2.2), we use the
//! **Fixed Order** synchronization-order policy of Cho & Garcia-Molina:
//! every object is refreshed at a fixed interval `1/fᵢ`, in the same
//! repeating order. Each element is given a deterministic *phase* so the
//! refresh load spreads evenly over the period instead of bursting at
//! `t = 0` — with identical phases a 250 000-refresh schedule would demand
//! all its bandwidth in the first instant.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled synchronization operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncOp {
    /// When the refresh fires (periods).
    pub time: f64,
    /// Which element to refresh.
    pub element: usize,
}

/// A Fixed-Order synchronization schedule over a finite horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedOrderSchedule {
    ops: Vec<SyncOp>,
    horizon: f64,
}

/// Deterministic per-element phase in `[0, 1)`: a Weyl sequence
/// (`i·φ mod 1` with `φ` the golden-ratio conjugate), which spreads phases
/// near-uniformly without randomness.
#[inline]
pub fn element_phase(element: usize) -> f64 {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    (element as f64 * GOLDEN).fract()
}

impl FixedOrderSchedule {
    /// Materialize the schedule for `freqs` over `[0, horizon)`.
    ///
    /// Element `i` with `fᵢ > 0` is refreshed at times
    /// `(k + φᵢ)/fᵢ` for `k = 0, 1, …` below the horizon, where `φᵢ` is the
    /// deterministic phase of [`element_phase`]. Elements with `fᵢ = 0` are
    /// never refreshed. Ops are sorted by time, ties by element: this is
    /// [`ScheduleStream`] collected.
    ///
    /// # Panics
    /// Panics when `horizon` is non-positive or any frequency is negative
    /// or non-finite.
    pub fn build(freqs: &[f64], horizon: f64) -> Self {
        FixedOrderSchedule {
            ops: ScheduleStream::new(freqs, horizon).collect(),
            horizon,
        }
    }

    /// The scheduled operations, in time order.
    pub fn ops(&self) -> &[SyncOp] {
        &self.ops
    }

    /// Schedule horizon (periods).
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Total number of refresh operations in the horizon.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no element is ever refreshed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Refresh counts per element (length = `n`).
    pub fn counts(&self, n: usize) -> Vec<usize> {
        let mut c = vec![0usize; n];
        for op in &self.ops {
            c[op.element] += 1;
        }
        c
    }

    /// Maximum number of ops falling in any window of length `window` —
    /// a burstiness measure; phased schedules keep this near
    /// `⌈Σfᵢ·window⌉`.
    pub fn peak_ops_in_window(&self, window: f64) -> usize {
        assert!(window > 0.0);
        let mut peak = 0usize;
        let mut lo = 0usize;
        for hi in 0..self.ops.len() {
            while self.ops[hi].time - self.ops[lo].time > window {
                lo += 1;
            }
            peak = peak.max(hi - lo + 1);
        }
        peak
    }
}

/// Streaming Fixed-Order schedule: yields [`SyncOp`]s in time order (ties
/// by element) without materializing the whole horizon. It merges the
/// per-element arithmetic sequences with a binary heap (`O(log N)` per op),
/// so memory stays `O(N)` however long the horizon. It is the workspace's
/// one timetable expansion: [`FixedOrderSchedule::build`] collects it.
#[derive(Debug)]
pub struct ScheduleStream {
    heap: BinaryHeap<HeapEntry>,
    intervals: Vec<f64>,
    horizon: f64,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    time: f64,
    element: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time; tie-break on element for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.element.cmp(&self.element))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ScheduleStream {
    /// Create a stream over `[0, horizon)` for the given frequencies.
    ///
    /// # Panics
    /// Panics on non-positive horizon or invalid frequencies.
    pub fn new(freqs: &[f64], horizon: f64) -> Self {
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be positive"
        );
        let mut heap = BinaryHeap::with_capacity(freqs.len());
        let mut intervals = vec![f64::INFINITY; freqs.len()];
        for (i, &f) in freqs.iter().enumerate() {
            assert!(f.is_finite() && f >= 0.0, "frequency {i} invalid: {f}");
            if f > 0.0 {
                let interval = 1.0 / f;
                intervals[i] = interval;
                let first = element_phase(i) * interval;
                if first < horizon {
                    heap.push(HeapEntry {
                        time: first,
                        element: i,
                    });
                }
            }
        }
        ScheduleStream {
            heap,
            intervals,
            horizon,
        }
    }
}

impl Iterator for ScheduleStream {
    type Item = SyncOp;

    fn next(&mut self) -> Option<SyncOp> {
        let top = self.heap.pop()?;
        let next_t = top.time + self.intervals[top.element];
        if next_t < self.horizon {
            self.heap.push(HeapEntry {
                time: next_t,
                element: top.element,
            });
        }
        Some(SyncOp {
            time: top.time,
            element: top.element,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Independent expansion to check the stream against: every element's
    /// ops materialized in element order, then stably sorted by time.
    fn materialized(freqs: &[f64], horizon: f64) -> Vec<SyncOp> {
        let mut ops = Vec::new();
        for (i, &f) in freqs.iter().enumerate() {
            if f <= 0.0 {
                continue;
            }
            let interval = 1.0 / f;
            let mut t = element_phase(i) * interval;
            while t < horizon {
                ops.push(SyncOp {
                    time: t,
                    element: i,
                });
                t += interval;
            }
        }
        ops.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap_or(Ordering::Equal));
        ops
    }

    #[test]
    fn phases_in_unit_interval_and_distinct() {
        let phases: Vec<f64> = (0..100).map(element_phase).collect();
        assert!(phases.iter().all(|p| (0.0..1.0).contains(p)));
        // Weyl sequence: all distinct for small n.
        for i in 0..phases.len() {
            for j in (i + 1)..phases.len() {
                assert!((phases[i] - phases[j]).abs() > 1e-9);
            }
        }
    }

    #[test]
    fn build_counts_match_frequencies() {
        let freqs = [2.0, 0.0, 5.0];
        let sched = FixedOrderSchedule::build(&freqs, 10.0);
        let counts = sched.counts(3);
        // With phase in [0,1) intervals, count is either floor or ceil of f·H.
        assert!((19..=21).contains(&counts[0]), "{counts:?}");
        assert_eq!(counts[1], 0);
        assert!((49..=51).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn build_ops_sorted_and_in_horizon() {
        let freqs = [1.3, 2.7, 0.4];
        let sched = FixedOrderSchedule::build(&freqs, 7.0);
        let ops = sched.ops();
        assert!(!ops.is_empty());
        for w in ops.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(ops.iter().all(|o| (0.0..7.0).contains(&o.time)));
    }

    #[test]
    fn build_intervals_are_fixed() {
        let freqs = [4.0];
        let sched = FixedOrderSchedule::build(&freqs, 5.0);
        let times: Vec<f64> = sched.ops().iter().map(|o| o.time).collect();
        for w in times.windows(2) {
            assert!((w[1] - w[0] - 0.25).abs() < 1e-12, "fixed 1/f spacing");
        }
    }

    #[test]
    fn zero_frequency_never_synced() {
        let sched = FixedOrderSchedule::build(&[0.0, 0.0], 100.0);
        assert!(sched.is_empty());
        assert_eq!(sched.len(), 0);
    }

    #[test]
    fn phased_schedule_is_not_bursty() {
        // 100 elements each at 1 sync/period: a phase-less schedule would
        // put all 100 ops at t=0; phased, any 0.1-window holds ~10.
        let freqs = vec![1.0; 100];
        let sched = FixedOrderSchedule::build(&freqs, 1.0);
        let peak = sched.peak_ops_in_window(0.1);
        assert!(peak <= 20, "peak window load {peak} too bursty");
    }

    #[test]
    fn stream_matches_materialized() {
        let mut rng = SplitMix64::new(0x5eed);
        for case in 0..500 {
            // Zero frequencies (no ops) and frequencies repeated across
            // elements, among random ones.
            let choices = [0.0, 1.0, 2.0, 0.5];
            let freqs: Vec<f64> = (0..1 + rng.below(12))
                .map(|_| match rng.below(3) {
                    0 => choices[rng.below(4)],
                    _ => rng.range(0.0, 6.0),
                })
                .collect();
            let horizon = rng.range(0.1, 12.0);
            let oracle = materialized(&freqs, horizon);
            let streamed: Vec<SyncOp> = ScheduleStream::new(&freqs, horizon).collect();
            assert_eq!(oracle.len(), streamed.len(), "case {case}: {freqs:?}");
            for (a, b) in oracle.iter().zip(&streamed) {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "case {case}: {freqs:?}");
                assert_eq!(a.element, b.element, "case {case}: {freqs:?}");
            }
            assert_eq!(
                FixedOrderSchedule::build(&freqs, horizon).ops(),
                &streamed[..]
            );
        }
    }

    #[test]
    fn stream_is_time_ordered() {
        let freqs = [0.3, 9.0, 2.2];
        let mut last = -1.0;
        for op in ScheduleStream::new(&freqs, 3.0) {
            assert!(op.time >= last);
            last = op.time;
        }
    }

    #[test]
    fn stream_empty_for_zero_freqs() {
        assert_eq!(ScheduleStream::new(&[0.0; 5], 10.0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn build_rejects_bad_horizon() {
        FixedOrderSchedule::build(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn build_rejects_negative_frequency() {
        FixedOrderSchedule::build(&[-1.0], 1.0);
    }
}
