//! Stochastic event generators: source updates and user requests.
//!
//! Both are Poisson processes realized as exponential inter-arrival
//! streams. Each generator owns its RNG so update, access, and any future
//! noise streams are statistically independent given distinct seeds.

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::{chunk_ranges, Executor, DEFAULT_CHUNK};
use freshen_core::rng::SplitMix64;
use freshen_workload::dist::Exponential;

/// Per-element Poisson update stream (the paper's Update Generator).
///
/// Maintains the next update instant for every element with a positive
/// change rate; [`UpdateGenerator::next_event`] yields `(time, element)`
/// pairs in time order via an internal binary heap.
#[derive(Debug)]
pub struct UpdateGenerator {
    heap: std::collections::BinaryHeap<NextUpdate>,
    rates: Vec<f64>,
    rng: SplitMix64,
}

#[derive(Debug, PartialEq)]
struct NextUpdate {
    time: f64,
    element: usize,
}
impl Eq for NextUpdate {}
impl Ord for NextUpdate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.element.cmp(&self.element))
    }
}
impl PartialOrd for NextUpdate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl UpdateGenerator {
    /// Create a generator for the given per-period change rates.
    ///
    /// # Panics
    /// Panics on negative or non-finite rates.
    pub fn new(change_rates: &[f64], seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut heap = std::collections::BinaryHeap::new();
        for (i, &rate) in change_rates.iter().enumerate() {
            assert!(rate.is_finite() && rate >= 0.0, "change rate {i} invalid");
            if rate > 0.0 {
                let t = Exponential::new(rate).sample(&mut rng);
                heap.push(NextUpdate {
                    time: t,
                    element: i,
                });
            }
        }
        UpdateGenerator {
            heap,
            rates: change_rates.to_vec(),
            rng,
        }
    }

    /// The next `(time, element)` update at or before `horizon`, advancing
    /// the stream. `None` once every next update lies beyond the horizon.
    pub fn next_event(&mut self, horizon: f64) -> Option<(f64, usize)> {
        let top = self.heap.peek()?;
        if top.time >= horizon {
            return None;
        }
        let NextUpdate { time, element } = self.heap.pop().expect("peeked entry exists");
        let next = time + Exponential::new(self.rates[element]).sample(&mut self.rng);
        self.heap.push(NextUpdate {
            time: next,
            element,
        });
        Some((time, element))
    }

    /// Peek at the next update time without consuming it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}

/// Poisson user-request stream (the paper's User Request Generator).
///
/// Requests arrive at `total_rate` per period; each request targets an
/// element drawn from the master-profile probabilities.
#[derive(Debug)]
pub struct AccessGenerator {
    cdf: Vec<f64>,
    inter_arrival: Exponential,
    next_time: f64,
    rng: SplitMix64,
}

impl AccessGenerator {
    /// Create from access probabilities (must sum to ~1) and a total
    /// request rate per period. A degenerate profile (NaN, negative
    /// entries, bad sum) or a non-positive or non-finite rate comes back as
    /// a [`CoreError`].
    pub fn try_new(access_probs: &[f64], total_rate: f64, seed: u64) -> Result<Self> {
        Self::try_new_with_executor(access_probs, total_rate, seed, &Executor::serial())
    }

    /// [`try_new`](Self::try_new) with the CDF built as a chunked parallel
    /// scan on `executor`: per-chunk local prefix sums run concurrently,
    /// chunk offsets are folded serially in fixed chunk order, so the CDF
    /// is identical at any worker count. The built CDF is validated to be
    /// finite and non-decreasing before the sum check, so a poisoned
    /// profile (a NaN or negative probability) yields
    /// [`CoreError::Inconsistent`] rather than a NaN CDF that would
    /// otherwise panic element selection at sample time.
    pub fn try_new_with_executor(
        access_probs: &[f64],
        total_rate: f64,
        seed: u64,
        executor: &Executor,
    ) -> Result<Self> {
        if access_probs.is_empty() {
            return Err(CoreError::Empty);
        }
        if !total_rate.is_finite() || total_rate <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "total access rate",
                index: None,
                value: total_rate,
            });
        }
        let chunks = chunk_ranges(access_probs.len(), DEFAULT_CHUNK);
        let parts = executor.map_ranges(&chunks, |range| {
            let mut local = Vec::with_capacity(range.len());
            let mut acc = 0.0;
            for i in range {
                acc += access_probs[i];
                local.push(acc);
            }
            local
        });
        let mut cdf = Vec::with_capacity(access_probs.len());
        let mut acc = 0.0;
        for local in parts {
            let chunk_total = local.last().copied().unwrap_or(0.0);
            cdf.extend(local.into_iter().map(|v| acc + v));
            acc += chunk_total;
        }
        let mut prev = 0.0;
        for &c in &cdf {
            if !c.is_finite() || c < prev {
                return Err(CoreError::Inconsistent {
                    routine: "access-generator",
                    invariant: "cdf must be finite and non-decreasing",
                });
            }
            prev = c;
        }
        if (acc - 1.0).abs() >= 1e-6 {
            return Err(CoreError::ProbabilityNotNormalized { sum: acc });
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let mut rng = SplitMix64::new(seed);
        let inter_arrival = Exponential::new(total_rate);
        let first = inter_arrival.sample(&mut rng);
        Ok(AccessGenerator {
            cdf,
            inter_arrival,
            next_time: first,
            rng,
        })
    }

    /// The next `(time, element)` access at or before `horizon`, advancing
    /// the stream.
    pub fn next_event(&mut self, horizon: f64) -> Option<(f64, usize)> {
        if self.next_time >= horizon {
            return None;
        }
        let t = self.next_time;
        self.next_time += self.inter_arrival.sample(&mut self.rng);
        let u = self.rng.next_f64();
        // total_cmp: the CDF is validated finite at construction, but the
        // selection path must stay panic-free regardless.
        let element = match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        };
        Some((t, element))
    }

    /// Peek at the next access time.
    pub fn peek_time(&self) -> f64 {
        self.next_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_counts_match_rates() {
        let rates = [5.0, 1.0, 0.0];
        let mut generator = UpdateGenerator::new(&rates, 1);
        let horizon = 2000.0;
        let mut counts = [0usize; 3];
        while let Some((t, e)) = generator.next_event(horizon) {
            assert!(t < horizon);
            counts[e] += 1;
        }
        let r0 = counts[0] as f64 / horizon;
        let r1 = counts[1] as f64 / horizon;
        assert!((r0 - 5.0).abs() < 0.2, "element 0 rate {r0}");
        assert!((r1 - 1.0).abs() < 0.1, "element 1 rate {r1}");
        assert_eq!(counts[2], 0, "zero-rate element never updates");
    }

    #[test]
    fn update_times_are_ordered() {
        let mut generator = UpdateGenerator::new(&[3.0, 2.0, 7.0], 2);
        let mut last = 0.0;
        for _ in 0..1000 {
            let (t, _) = generator.next_event(f64::MAX).unwrap();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn update_deterministic_per_seed() {
        let mut a = UpdateGenerator::new(&[1.0, 2.0], 42);
        let mut b = UpdateGenerator::new(&[1.0, 2.0], 42);
        for _ in 0..100 {
            assert_eq!(a.next_event(1e9), b.next_event(1e9));
        }
    }

    #[test]
    fn access_rate_and_mix() {
        let probs = [0.7, 0.2, 0.1];
        let mut generator = AccessGenerator::try_new(&probs, 50.0, 3).unwrap();
        let horizon = 500.0;
        let mut counts = [0usize; 3];
        let mut total = 0usize;
        while let Some((_, e)) = generator.next_event(horizon) {
            counts[e] += 1;
            total += 1;
        }
        let rate = total as f64 / horizon;
        assert!((rate - 50.0).abs() < 1.5, "arrival rate {rate}");
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / total as f64;
            assert!((frac - probs[i]).abs() < 0.02, "element {i} mix {frac}");
        }
    }

    #[test]
    fn access_none_beyond_horizon() {
        let mut generator = AccessGenerator::try_new(&[1.0], 1.0, 4).unwrap();
        // Drain a short horizon, then confirm exhaustion is sticky for it.
        while generator.next_event(1.0).is_some() {}
        assert!(generator.peek_time() >= 1.0);
        assert!(generator.next_event(1.0).is_none());
    }

    /// Regression: a poisoned profile (NaN or negative entry) used to pass
    /// construction and panic later inside `binary_search_by` when the NaN
    /// CDF entry hit `partial_cmp().expect()`. It must now fail cleanly at
    /// construction with `CoreError::Inconsistent`.
    #[test]
    fn poisoned_profile_is_a_clean_error() {
        for probs in [
            vec![0.5, f64::NAN, 0.5],
            vec![0.5, f64::INFINITY],
            vec![1.5, -0.5],
        ] {
            match AccessGenerator::try_new(&probs, 1.0, 0) {
                Err(CoreError::Inconsistent { routine, .. }) => {
                    assert_eq!(routine, "access-generator");
                }
                other => panic!("expected Inconsistent for {probs:?}, got {other:?}"),
            }
        }
        assert!(matches!(
            AccessGenerator::try_new(&[], 1.0, 0),
            Err(CoreError::Empty)
        ));
        assert!(matches!(
            AccessGenerator::try_new(&[1.0], f64::NAN, 0),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            AccessGenerator::try_new(&[0.5, 0.1], 1.0, 0),
            Err(CoreError::ProbabilityNotNormalized { .. })
        ));
    }
}
