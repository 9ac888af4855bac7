//! Estimating change frequencies from observed poll history.
//!
//! The paper assumes "it is possible to obtain the number of updates to an
//! element over some time period", citing Cho & Garcia-Molina's estimation
//! work (its ref \[4\]) for how a poller can estimate a Poisson change rate
//! from *incomplete* observations: each poll only reveals **whether** the
//! element changed since the previous poll, not how many times.
//!
//! Implemented estimators, for an element polled `n` times at regular
//! interval `I` with `x` polls detecting a change:
//!
//! * **naive**: `λ̂ = x / (n·I)` — biased low, because multiple changes
//!   within one interval are counted once;
//! * **ratio (MLE)**: `λ̂ = −ln(1 − x/n) / I` — the maximum-likelihood
//!   estimator, undefined when `x = n`;
//! * **bias-reduced** (Cho & Garcia-Molina's recommended estimator):
//!   `λ̂ = −ln((n − x + 0.5) / (n + 0.5)) / I` — well-defined for all
//!   `0 ≤ x ≤ n` and far less biased for frequently changing elements.
//!
//! The online estimators fold one poll at a time, each behind the same
//! `observe(element, interval, changed)` / `rates(fallback)` interface:
//! [`EwmaRateEstimator`] (stochastic approximation with a constant or a
//! decreasing gain), [`WindowRateEstimator`] and [`LlnRateEstimator`]
//! (the bias-reduced form over a sliding window or the whole history).

use std::collections::VecDeque;

use crate::error::{CoreError, Result};

/// Poll history for one element: `n` polls at fixed interval `interval`,
/// `x` of which detected a change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollHistory {
    /// Number of polls performed.
    pub polls: u64,
    /// Number of polls that detected a change since the previous poll.
    pub changes_detected: u64,
    /// Interval between polls, in periods.
    pub interval: f64,
}

impl PollHistory {
    /// Create a validated poll history.
    pub fn new(polls: u64, changes_detected: u64, interval: f64) -> Result<Self> {
        if polls == 0 {
            return Err(CoreError::InvalidConfig(
                "poll history needs at least one poll".into(),
            ));
        }
        if changes_detected > polls {
            return Err(CoreError::InvalidConfig(format!(
                "detected {changes_detected} changes in only {polls} polls"
            )));
        }
        if !interval.is_finite() || interval <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "poll interval",
                index: None,
                value: interval,
            });
        }
        Ok(PollHistory {
            polls,
            changes_detected,
            interval,
        })
    }

    /// True when this history cannot produce a meaningful estimate: no
    /// polls, or a non-finite/non-positive interval. Reachable despite
    /// [`new`](Self::new)'s validation because the fields are public.
    fn is_degenerate(&self) -> bool {
        self.polls == 0 || !self.interval.is_finite() || self.interval <= 0.0
    }

    /// Naive estimator `x / (n·I)` — biased low when changes are frequent.
    ///
    /// Always finite: degenerate histories (zero polls or a zero/negative/
    /// non-finite interval, reachable through the public fields) yield 0
    /// when nothing was detected and the documented [`RATE_CAP`] otherwise,
    /// never `inf`/NaN.
    pub fn estimate_naive(&self) -> f64 {
        if self.is_degenerate() {
            return if self.changes_detected == 0 {
                0.0
            } else {
                RATE_CAP
            };
        }
        let raw = self.changes_detected as f64 / (self.polls as f64 * self.interval);
        raw.min(RATE_CAP)
    }

    /// Maximum-likelihood estimator `−ln(1 − x/n) / I`.
    ///
    /// Returns `None` when every poll detected a change (`x = n`), where
    /// the MLE diverges (`−ln(0) → ∞`), and for degenerate histories
    /// (zero polls or a non-finite/non-positive interval); finite results
    /// are capped at [`RATE_CAP`].
    pub fn estimate_mle(&self) -> Option<f64> {
        if self.is_degenerate() || self.changes_detected >= self.polls {
            return None;
        }
        let r = self.changes_detected as f64 / self.polls as f64;
        Some((-(1.0 - r).ln() / self.interval).min(RATE_CAP))
    }

    /// Cho & Garcia-Molina's bias-reduced estimator
    /// `−ln((n − x + 0.5)/(n + 0.5)) / I` — defined for all `x ≤ n` and the
    /// one the paper's pipeline would consume.
    ///
    /// Like [`estimate_naive`](Self::estimate_naive), degenerate histories
    /// produce 0 or the documented [`RATE_CAP`] rather than `inf`/NaN, so
    /// a corrupt history can never leak a non-finite rate into the solver.
    pub fn estimate_bias_reduced(&self) -> f64 {
        if self.is_degenerate() {
            return if self.changes_detected == 0 {
                0.0
            } else {
                RATE_CAP
            };
        }
        let n = self.polls as f64;
        let x = self.changes_detected as f64;
        // `+ 0.0` turns the `−ln 1 = −0.0` of `x = 0` into `+0.0` and
        // leaves the bits of every other rate as they are.
        (-(((n - x + 0.5) / (n + 0.5)).ln()) / self.interval).min(RATE_CAP) + 0.0
    }
}

/// Floor applied to online rate estimates so downstream [`Problem`]
/// builders (which require strictly positive change rates) never see an
/// exact zero.
///
/// [`Problem`]: crate::problem::Problem
pub const RATE_FLOOR: f64 = 1e-9;

/// Cap applied to rate estimates: a run of all-changed polls over a
/// vanishing (or corrupt) interval must not blow the estimate out to
/// infinity. Every estimator in this module returns values `≤ RATE_CAP`.
pub const RATE_CAP: f64 = 1e9;

/// Check a stochastic-approximation gain `g ∈ (0, 1]`.
pub fn check_gain(gain: f64) -> Result<()> {
    if gain.is_finite() && gain > 0.0 && gain <= 1.0 {
        return Ok(());
    }
    Err(CoreError::InvalidValue {
        what: "estimator gain",
        index: None,
        value: gain,
    })
}

/// Check a decreasing-gain exponent `d ∈ (0.5, 1]`, the range where the
/// gains `g/(1 + k)^d` meet the Robbins–Monro conditions.
pub fn check_gain_decay(decay: f64) -> Result<()> {
    if decay.is_finite() && decay > 0.5 && decay <= 1.0 {
        return Ok(());
    }
    Err(CoreError::InvalidValue {
        what: "estimator gain decay",
        index: None,
        value: decay,
    })
}

/// Check a sliding-window length: at least one poll.
pub fn check_window(len: usize) -> Result<()> {
    if len == 0 {
        return Err(CoreError::InvalidConfig(
            "sliding window needs at least one slot".into(),
        ));
    }
    Ok(())
}

/// Reject a poll of an element outside `0..len`, or one whose interval
/// is not finite and positive.
fn check_observation(len: usize, element: usize, interval: f64) -> Result<()> {
    if element >= len {
        return Err(CoreError::InvalidValue {
            what: "estimator element",
            index: Some(element),
            value: element as f64,
        });
    }
    if !interval.is_finite() || interval <= 0.0 {
        return Err(CoreError::InvalidValue {
            what: "poll interval",
            index: Some(element),
            value: interval,
        });
    }
    Ok(())
}

/// The bias-reduced estimate over `polls` polls with `detections` changes
/// and intervals summing to `interval_sum`, clamped to
/// `[RATE_FLOOR, RATE_CAP]`; exactly `fallback` when `polls` is 0.
fn bias_reduced_rate(polls: u64, detections: u64, interval_sum: f64, fallback: f64) -> f64 {
    if polls == 0 {
        return fallback;
    }
    PollHistory {
        polls,
        changes_detected: detections,
        interval: interval_sum / polls as f64,
    }
    .estimate_bias_reduced()
    .clamp(RATE_FLOOR, RATE_CAP)
}

/// Stochastic-approximation online change-rate estimator, following
/// Avrachenkov, Patil & Thoppe's online estimators for web-page change
/// rates.
///
/// Each poll of element `i` after interval `τ` reveals the Bernoulli
/// indicator `I = 1{changed}` with `E[I] = 1 − e^{−λᵢτ}`. The estimator
/// takes one step toward the root of that moment equation, with a gain
/// `η_k` set by the element's poll count `k`:
///
/// ```text
/// λ̂ ← λ̂ + (η_k/τ) · (I − (1 − e^{−λ̂τ}))    η_k = g / (1 + k)^d
/// ```
///
/// The `1/τ` scaling keeps the step in rate units, so convergence speed
/// is first-order independent of the polling interval. Two schedules:
///
/// * **constant gain** (`d = 0`, [`new`](Self::new)): the EWMA case.
///   Old observations decay geometrically, so the estimate *tracks* a
///   drifting λ, but its noise floor never shrinks;
/// * **decreasing gain** (`d ∈ (0.5, 1]`, [`decreasing`](Self::decreasing)):
///   the Robbins–Monro conditions (`Ση_k = ∞`, `Ση_k² < ∞`) hold, so on a
///   stationary source the iterate converges almost surely and the noise
///   floor vanishes. After a rate shift it re-converges more slowly (the
///   gain has already decayed), the trade `exp_estimators` measures.
#[derive(Debug, Clone)]
pub struct EwmaRateEstimator {
    rates: Vec<f64>,
    seen: Vec<u64>,
    gain: f64,
    /// Gain decay exponent `d`; 0 is the constant-gain schedule.
    decay: f64,
}

impl EwmaRateEstimator {
    /// Create a constant-gain (EWMA) estimator over `n` elements with
    /// step `gain ∈ (0, 1]`, starting every element at the `prior` rate
    /// (e.g. the fleet-wide mean).
    pub fn new(n: usize, gain: f64, prior: f64) -> Result<Self> {
        Self::from_prior(n, gain, 0.0, prior)
    }

    /// Create a decreasing-gain estimator over `n` elements: initial gain
    /// `gain ∈ (0, 1]` decaying as `(1 + k)^{-decay}` with
    /// `decay ∈ (0.5, 1]`, starting every element at the `prior` rate.
    pub fn decreasing(n: usize, gain: f64, decay: f64, prior: f64) -> Result<Self> {
        check_gain_decay(decay)?;
        Self::from_prior(n, gain, decay, prior)
    }

    fn from_prior(n: usize, gain: f64, decay: f64, prior: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        check_gain(gain)?;
        if !prior.is_finite() || prior <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "prior change rate",
                index: None,
                value: prior,
            });
        }
        Ok(EwmaRateEstimator {
            rates: vec![prior; n],
            seen: vec![0; n],
            gain,
            decay,
        })
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Fold in one poll outcome: `element` was polled `interval` periods
    /// after its previous poll and `changed` says whether new content was
    /// found.
    pub fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        check_observation(self.rates.len(), element, interval)?;
        let eta = if self.decay == 0.0 {
            self.gain
        } else {
            self.gain / (1.0 + self.seen[element] as f64).powf(self.decay)
        };
        let lambda = self.rates[element];
        let expected = 1.0 - (-lambda * interval).exp();
        let indicator = f64::from(changed);
        let step = eta / interval * (indicator - expected);
        self.rates[element] = (lambda + step).clamp(RATE_FLOOR, RATE_CAP);
        self.seen[element] += 1;
        Ok(())
    }

    /// Current rate estimate for one element.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn rate(&self, element: usize) -> f64 {
        self.rates[element]
    }

    /// Polls folded in for one element so far.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn observations(&self, element: usize) -> u64 {
        self.seen[element]
    }

    /// Current rate estimates for all elements; never-polled elements get
    /// exactly `fallback` instead of the prior.
    pub fn rates(&self, fallback: f64) -> Vec<f64> {
        self.rates
            .iter()
            .zip(&self.seen)
            .map(|(&r, &n)| if n == 0 { fallback } else { r })
            .collect()
    }

    /// The raw per-element estimates, including priors for never-polled
    /// elements — the checkpointable state, unlike [`rates`](Self::rates)
    /// which substitutes a fallback.
    pub fn raw_rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-element observation counts (the checkpointable companion to
    /// [`raw_rates`](Self::raw_rates); they also position a decreasing
    /// gain schedule, so kill/resume continues the same sequence).
    pub fn observation_counts(&self) -> &[u64] {
        &self.seen
    }

    /// Rebuild an estimator from checkpointed state. `gain` and `decay`
    /// come from configuration (`decay` 0 for constant gain);
    /// `rates`/`seen` are what [`raw_rates`](Self::raw_rates) and
    /// [`observation_counts`](Self::observation_counts) exported.
    pub fn from_state(rates: Vec<f64>, seen: Vec<u64>, gain: f64, decay: f64) -> Result<Self> {
        if rates.is_empty() {
            return Err(CoreError::Empty);
        }
        if seen.len() != rates.len() {
            return Err(CoreError::LengthMismatch {
                what: "estimator observation counts",
                expected: rates.len(),
                actual: seen.len(),
            });
        }
        check_gain(gain)?;
        if decay != 0.0 {
            check_gain_decay(decay)?;
        }
        for (i, &r) in rates.iter().enumerate() {
            if !r.is_finite() || r <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "estimator rate",
                    index: Some(i),
                    value: r,
                });
            }
        }
        Ok(EwmaRateEstimator {
            rates,
            seen,
            gain,
            decay,
        })
    }
}

/// Sliding-window online change-rate estimator: keeps the last `window`
/// poll outcomes per element and re-runs Cho & Garcia-Molina's
/// bias-reduced estimator over them, using the window's mean interval.
///
/// Compared to [`EwmaRateEstimator`] the window forgets *sharply* rather
/// than geometrically: after `window` polls a rate change is fully
/// reflected, at the cost of `O(window)` memory per element.
#[derive(Debug, Clone)]
pub struct WindowRateEstimator {
    window: usize,
    /// Per element: the retained `(interval, changed)` pairs, newest last.
    polls: Vec<VecDeque<(f64, bool)>>,
}

impl WindowRateEstimator {
    /// Create an estimator over `n` elements remembering the last
    /// `window ≥ 1` polls each.
    pub fn new(n: usize, window: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        check_window(window)?;
        Ok(WindowRateEstimator {
            window,
            polls: vec![VecDeque::with_capacity(window); n],
        })
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.polls.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.polls.is_empty()
    }

    /// Fold in one poll outcome, evicting the oldest once the window is
    /// full.
    pub fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        check_observation(self.polls.len(), element, interval)?;
        let polls = &mut self.polls[element];
        if polls.len() == self.window {
            polls.pop_front();
        }
        polls.push_back((interval, changed));
        Ok(())
    }

    /// Bias-reduced rate estimate over one element's window, or `fallback`
    /// when it has never been polled.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn rate(&self, element: usize, fallback: f64) -> f64 {
        let polls = &self.polls[element];
        let detections = polls.iter().filter(|&&(_, changed)| changed).count() as u64;
        let interval_sum = polls.iter().map(|&(interval, _)| interval).sum::<f64>();
        bias_reduced_rate(polls.len() as u64, detections, interval_sum, fallback)
    }

    /// Polls currently inside one element's window.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn observations(&self, element: usize) -> u64 {
        self.polls[element].len() as u64
    }

    /// Rate estimates for all elements (never-polled elements get
    /// `fallback`).
    pub fn rates(&self, fallback: f64) -> Vec<f64> {
        (0..self.polls.len())
            .map(|i| self.rate(i, fallback))
            .collect()
    }

    /// Window capacity (polls remembered per element).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Checkpointable contents: per element, the retained
    /// `(interval, changed)` pairs oldest-first.
    pub fn entries(&self) -> Vec<Vec<(f64, bool)>> {
        self.polls
            .iter()
            .map(|p| p.iter().copied().collect())
            .collect()
    }

    /// Rebuild an estimator from checkpointed state exported by
    /// [`entries`](Self::entries).
    pub fn from_state(window: usize, entries: Vec<Vec<(f64, bool)>>) -> Result<Self> {
        let mut estimator = WindowRateEstimator::new(entries.len(), window)?;
        for (element, polls) in entries.into_iter().enumerate() {
            if polls.len() > window {
                return Err(CoreError::InvalidConfig(format!(
                    "element {element} carries {} polls for a window of {window}",
                    polls.len()
                )));
            }
            for (interval, changed) in polls {
                estimator.observe(element, interval, changed)?;
            }
        }
        Ok(estimator)
    }
}

/// Law-of-large-numbers online change-rate estimator, following
/// Avrachenkov, Patil & Thoppe's LLN estimator for web-page change rates.
///
/// Keeps the *full-history* sufficient statistics per element — polls
/// `n`, detections `x`, and the summed inter-poll interval — in O(1)
/// memory, and inverts the Bernoulli moment equation over the mean
/// interval with Cho & Garcia-Molina's bias-reduced form (finite even at
/// `x = n`). By the strong law of large numbers `x/n → 1 − e^{−λĪ}`
/// almost surely for a stationary source, so the estimate is strongly
/// consistent with estimation error shrinking as `O(1/√n)` — unlike the
/// constant-gain [`EwmaRateEstimator`], whose variance floor never
/// shrinks. The flip side: it averages over its whole history, so after a
/// rate shift the bias decays only as `O(1/n)` per poll.
#[derive(Debug, Clone)]
pub struct LlnRateEstimator {
    polls: Vec<u64>,
    detections: Vec<u64>,
    interval_sum: Vec<f64>,
}

impl LlnRateEstimator {
    /// Create an estimator over `n` elements.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        Ok(LlnRateEstimator {
            polls: vec![0; n],
            detections: vec![0; n],
            interval_sum: vec![0.0; n],
        })
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.polls.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.polls.is_empty()
    }

    /// Fold in one poll outcome.
    pub fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        check_observation(self.polls.len(), element, interval)?;
        self.polls[element] += 1;
        if changed {
            self.detections[element] += 1;
        }
        self.interval_sum[element] += interval;
        Ok(())
    }

    /// Bias-reduced full-history rate estimate for one element, or
    /// `fallback` when it has never been polled.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn rate(&self, element: usize, fallback: f64) -> f64 {
        bias_reduced_rate(
            self.polls[element],
            self.detections[element],
            self.interval_sum[element],
            fallback,
        )
    }

    /// Polls folded in for one element so far.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn observations(&self, element: usize) -> u64 {
        self.polls[element]
    }

    /// Rate estimates for all elements (never-polled elements get exactly
    /// `fallback`).
    pub fn rates(&self, fallback: f64) -> Vec<f64> {
        (0..self.polls.len())
            .map(|i| self.rate(i, fallback))
            .collect()
    }

    /// Checkpointable state: per element `(polls, detections,
    /// interval_sum)`.
    pub fn state(&self) -> (&[u64], &[u64], &[f64]) {
        (&self.polls, &self.detections, &self.interval_sum)
    }

    /// Rebuild an estimator from checkpointed state exported by
    /// [`state`](Self::state).
    pub fn from_state(
        polls: Vec<u64>,
        detections: Vec<u64>,
        interval_sum: Vec<f64>,
    ) -> Result<Self> {
        if polls.is_empty() {
            return Err(CoreError::Empty);
        }
        if detections.len() != polls.len() {
            return Err(CoreError::LengthMismatch {
                what: "estimator detections",
                expected: polls.len(),
                actual: detections.len(),
            });
        }
        if interval_sum.len() != polls.len() {
            return Err(CoreError::LengthMismatch {
                what: "estimator interval sums",
                expected: polls.len(),
                actual: interval_sum.len(),
            });
        }
        for (i, ((&n, &x), &iv)) in polls.iter().zip(&detections).zip(&interval_sum).enumerate() {
            if x > n {
                return Err(CoreError::InvalidConfig(format!(
                    "element {i} detected {x} changes in only {n} polls"
                )));
            }
            if !iv.is_finite() || iv < 0.0 || (n > 0 && iv <= 0.0) {
                return Err(CoreError::InvalidValue {
                    what: "estimator interval sum",
                    index: Some(i),
                    value: iv,
                });
            }
        }
        Ok(LlnRateEstimator {
            polls,
            detections,
            interval_sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_validation() {
        assert!(PollHistory::new(0, 0, 1.0).is_err());
        assert!(PollHistory::new(5, 6, 1.0).is_err());
        assert!(PollHistory::new(5, 5, 0.0).is_err());
        assert!(PollHistory::new(5, 5, f64::NAN).is_err());
        assert!(PollHistory::new(5, 5, 1.0).is_ok());
    }

    #[test]
    fn naive_underestimates_fast_changers() {
        // True rate 4 changes/interval: nearly every poll sees a change, so
        // the naive estimate saturates near 1/I while the truth is 4/I.
        let h = PollHistory::new(100, 99, 1.0).unwrap();
        assert!(h.estimate_naive() < 1.0);
        assert!(h.estimate_bias_reduced() > 3.0);
    }

    #[test]
    fn mle_matches_known_value() {
        // x/n = 1 - e^{-λI}; with λ=1, I=1: ratio = 1 - 1/e ≈ 0.632.
        let n = 1000u64;
        let x = ((1.0 - (-1.0f64).exp()) * n as f64).round() as u64;
        let h = PollHistory::new(n, x, 1.0).unwrap();
        let est = h.estimate_mle().unwrap();
        assert!((est - 1.0).abs() < 0.01, "estimated {est}");
    }

    #[test]
    fn mle_diverges_when_all_polls_changed() {
        let h = PollHistory::new(10, 10, 1.0).unwrap();
        assert!(h.estimate_mle().is_none());
        // ... but the bias-reduced estimator still returns a finite value.
        assert!(h.estimate_bias_reduced().is_finite());
    }

    #[test]
    fn bias_reduced_close_to_mle_for_moderate_ratios() {
        let h = PollHistory::new(10_000, 4_000, 1.0).unwrap();
        let mle = h.estimate_mle().unwrap();
        let br = h.estimate_bias_reduced();
        assert!((mle - br).abs() < 1e-3, "mle={mle} br={br}");
    }

    #[test]
    fn zero_detections_zero_rateish() {
        let h = PollHistory::new(100, 0, 1.0).unwrap();
        assert_eq!(h.estimate_naive(), 0.0);
        // With x = 0 the bias-reduced estimator is exactly 0 too:
        // −ln((n+0.5)/(n+0.5)) = −0, returned as +0.
        let br = h.estimate_bias_reduced();
        assert_eq!(br.to_bits(), 0.0f64.to_bits(), "+0.0, not −0.0");
    }

    #[test]
    fn interval_scales_estimates() {
        let h1 = PollHistory::new(100, 50, 1.0).unwrap();
        let h2 = PollHistory::new(100, 50, 2.0).unwrap();
        assert!((h1.estimate_bias_reduced() / h2.estimate_bias_reduced() - 2.0).abs() < 1e-12);
    }

    /// Deterministic synthetic poll feed: polls at fixed `interval`
    /// against a true Poisson rate, with change indicators drawn from the
    /// exact detection probability via a fixed low-discrepancy sequence.
    fn feed_polls(observe: &mut dyn FnMut(f64, bool), true_rate: f64, interval: f64, polls: usize) {
        let p_change = 1.0 - (-true_rate * interval).exp();
        for k in 0..polls {
            // Weyl sequence: equidistributed in [0,1), no RNG needed.
            let u = ((k as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
            observe(interval, u < p_change);
        }
    }

    #[test]
    fn ewma_estimator_converges_to_true_rate() {
        let mut e = EwmaRateEstimator::new(1, 0.05, 1.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 3.0, 0.25, 4000);
        let est = e.rate(0);
        assert!((est - 3.0).abs() < 0.45, "estimated {est}, want ≈3");
        assert_eq!(e.observations(0), 4000);
    }

    #[test]
    fn ewma_estimator_tracks_a_rate_shift() {
        let mut e = EwmaRateEstimator::new(1, 0.05, 2.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 2.0, 0.5, 2000);
        let before = e.rate(0);
        // The source speeds up 3x; the constant gain forgets the old
        // regime geometrically.
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 6.0, 0.5, 2000);
        let after = e.rate(0);
        assert!(before < 3.0, "pre-shift estimate {before}");
        assert!(after > 4.0, "post-shift estimate {after} must move up");
    }

    #[test]
    fn ewma_estimator_fallback_and_validation() {
        let e = EwmaRateEstimator::new(2, 0.1, 5.0).unwrap();
        assert_eq!(e.rates(7.0), vec![7.0, 7.0], "unpolled gets fallback");
        assert!(EwmaRateEstimator::new(0, 0.1, 1.0).is_err());
        assert!(EwmaRateEstimator::new(2, 0.0, 1.0).is_err());
        assert!(EwmaRateEstimator::new(2, 1.5, 1.0).is_err());
        assert!(EwmaRateEstimator::new(2, 0.1, 0.0).is_err());
        let mut e = EwmaRateEstimator::new(2, 0.1, 1.0).unwrap();
        assert!(e.observe(5, 1.0, true).is_err(), "out of range");
        assert!(e.observe(0, 0.0, true).is_err(), "bad interval");
        assert!(e.observe(0, f64::NAN, true).is_err());
    }

    #[test]
    fn ewma_estimator_stays_positive_and_finite() {
        let mut e = EwmaRateEstimator::new(1, 1.0, 1.0).unwrap();
        // Pathological feed: all-changed at tiny intervals, then
        // all-unchanged — the clamp keeps the estimate in (0, RATE_CAP].
        for _ in 0..100 {
            e.observe(0, 1e-9, true).unwrap();
        }
        assert!(e.rate(0) <= RATE_CAP && e.rate(0) > 0.0);
        for _ in 0..100 {
            e.observe(0, 1e-9, false).unwrap();
        }
        assert!(e.rate(0) >= RATE_FLOOR);
    }

    #[test]
    fn window_estimator_converges_to_true_rate() {
        let mut e = WindowRateEstimator::new(1, 512).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 3.0, 0.25, 1000);
        let est = e.rate(0, 99.0);
        assert!((est - 3.0).abs() < 0.4, "estimated {est}, want ≈3");
        assert_eq!(e.observations(0), 512, "window caps retained polls");
    }

    #[test]
    fn window_estimator_forgets_old_regime_completely() {
        let mut e = WindowRateEstimator::new(1, 200).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 8.0, 0.25, 400);
        // Fill the entire window with the slow regime: the old fast
        // regime must have zero influence left.
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 1.0, 0.25, 200);
        let est = e.rate(0, 99.0);
        assert!((est - 1.0).abs() < 0.3, "estimated {est}, want ≈1");
    }

    #[test]
    fn window_estimator_fallback_and_validation() {
        let e = WindowRateEstimator::new(3, 10).unwrap();
        assert_eq!(e.rates(4.0), vec![4.0, 4.0, 4.0]);
        assert!(WindowRateEstimator::new(0, 10).is_err());
        assert!(WindowRateEstimator::new(3, 0).is_err());
        let mut e = WindowRateEstimator::new(3, 10).unwrap();
        assert!(e.observe(9, 1.0, true).is_err());
        assert!(e.observe(0, -1.0, true).is_err());
    }

    #[test]
    fn online_estimators_agree_with_batch_in_steady_state() {
        // Same regular feed into the batch and both online estimators:
        // everything should land near the same bias-reduced answer.
        let (mut polls, mut detections) = (0u64, 0u64);
        let mut ewma = EwmaRateEstimator::new(1, 0.02, 2.0).unwrap();
        let mut window = WindowRateEstimator::new(1, 1000).unwrap();
        feed_polls(
            &mut |i, c| {
                polls += 1;
                detections += u64::from(c);
                ewma.observe(0, i, c).unwrap();
                window.observe(0, i, c).unwrap();
            },
            2.0,
            0.5,
            1000,
        );
        let b = PollHistory::new(polls, detections, 0.5)
            .unwrap()
            .estimate_bias_reduced();
        let e = ewma.rate(0);
        let w = window.rate(0, 0.0);
        assert!((b - w).abs() < 0.05, "batch {b} vs window {w}");
        assert!((b - e).abs() < 0.4, "batch {b} vs ewma {e}");
    }

    #[test]
    fn degenerate_histories_never_produce_non_finite_estimates() {
        // The public fields bypass `new`'s validation, so corrupt
        // histories are constructible; every estimator must stay finite.
        let degenerates = [
            PollHistory {
                polls: 10,
                changes_detected: 3,
                interval: 0.0,
            },
            PollHistory {
                polls: 10,
                changes_detected: 3,
                interval: f64::NAN,
            },
            PollHistory {
                polls: 10,
                changes_detected: 3,
                interval: -1.0,
            },
            PollHistory {
                polls: 0,
                changes_detected: 0,
                interval: 1.0,
            },
        ];
        for h in degenerates {
            assert!(h.estimate_naive().is_finite(), "naive inf for {h:?}");
            assert!(h.estimate_naive() <= RATE_CAP, "naive above cap for {h:?}");
            assert!(
                h.estimate_bias_reduced().is_finite(),
                "bias-reduced inf for {h:?}"
            );
            assert!(h.estimate_mle().is_none(), "mle defined for {h:?}");
        }
        // Degenerate with zero detections: estimates are exactly 0.
        let quiet = PollHistory {
            polls: 0,
            changes_detected: 0,
            interval: 0.0,
        };
        assert_eq!(quiet.estimate_naive(), 0.0);
        assert_eq!(quiet.estimate_bias_reduced(), 0.0);
    }

    #[test]
    fn saturated_detection_ratio_is_capped_not_infinite() {
        // x = n with a tiny interval: −ln(0)-style blow-ups must cap at
        // RATE_CAP instead of leaking inf into the solver.
        let h = PollHistory::new(10, 10, 1e-300).unwrap();
        assert!(h.estimate_mle().is_none(), "MLE diverges at x = n");
        let br = h.estimate_bias_reduced();
        assert!(br.is_finite() && br <= RATE_CAP, "bias-reduced {br}");
        let naive = h.estimate_naive();
        assert!(naive.is_finite() && naive <= RATE_CAP, "naive {naive}");
    }

    #[test]
    fn lln_estimator_converges_to_true_rate() {
        let mut e = LlnRateEstimator::new(1).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 3.0, 0.25, 4000);
        let est = e.rate(0, 99.0);
        assert!((est - 3.0).abs() < 0.2, "estimated {est}, want ≈3");
        assert_eq!(e.observations(0), 4000);
    }

    #[test]
    fn lln_estimator_fallback_and_validation() {
        let e = LlnRateEstimator::new(2).unwrap();
        assert_eq!(e.rates(7.0), vec![7.0, 7.0], "unpolled gets fallback");
        assert!(LlnRateEstimator::new(0).is_err());
        let mut e = LlnRateEstimator::new(2).unwrap();
        assert!(e.observe(5, 1.0, true).is_err(), "out of range");
        assert!(e.observe(0, 0.0, true).is_err(), "bad interval");
        // x = n stays finite through the bias-reduced inversion.
        for _ in 0..50 {
            e.observe(0, 0.5, true).unwrap();
        }
        assert!(e.rate(0, 0.0).is_finite());
    }

    #[test]
    fn lln_state_roundtrip() {
        let mut e = LlnRateEstimator::new(3).unwrap();
        feed_polls(&mut |i, c| e.observe(1, i, c).unwrap(), 2.0, 0.5, 100);
        let (polls, detections, intervals) = e.state();
        let back =
            LlnRateEstimator::from_state(polls.to_vec(), detections.to_vec(), intervals.to_vec())
                .unwrap();
        assert_eq!(back.rates(9.0), e.rates(9.0));
        assert!(LlnRateEstimator::from_state(vec![1], vec![2], vec![1.0]).is_err());
        assert!(LlnRateEstimator::from_state(vec![1], vec![0], vec![]).is_err());
        assert!(LlnRateEstimator::from_state(vec![1], vec![0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn sa_estimator_converges_to_true_rate() {
        let mut e = EwmaRateEstimator::decreasing(1, 1.0, 0.6, 1.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 3.0, 0.25, 4000);
        let est = e.rate(0);
        assert!((est - 3.0).abs() < 0.25, "estimated {est}, want ≈3");
        assert_eq!(e.observations(0), 4000);
    }

    #[test]
    fn sa_beats_constant_gain_in_steady_state() {
        // Same feed: the decreasing-gain iterate must land closer to the
        // truth than the constant-gain EWMA, whose noise floor persists.
        let mut sa = EwmaRateEstimator::decreasing(1, 1.0, 0.6, 1.0).unwrap();
        let mut ewma = EwmaRateEstimator::new(1, 0.05, 1.0).unwrap();
        feed_polls(
            &mut |i, c| {
                sa.observe(0, i, c).unwrap();
                ewma.observe(0, i, c).unwrap();
            },
            2.0,
            0.5,
            8000,
        );
        let sa_err = (sa.rate(0) - 2.0).abs();
        let ewma_err = (ewma.rate(0) - 2.0).abs();
        assert!(
            sa_err <= ewma_err + 1e-9,
            "sa error {sa_err} vs ewma error {ewma_err}"
        );
    }

    #[test]
    fn sa_estimator_fallback_and_validation() {
        let e = EwmaRateEstimator::decreasing(2, 0.5, 0.75, 5.0).unwrap();
        assert_eq!(e.rates(7.0), vec![7.0, 7.0], "unpolled gets fallback");
        assert!(EwmaRateEstimator::decreasing(0, 0.5, 0.75, 1.0).is_err());
        assert!(EwmaRateEstimator::decreasing(2, 0.0, 0.75, 1.0).is_err());
        assert!(EwmaRateEstimator::decreasing(2, 1.5, 0.75, 1.0).is_err());
        assert!(
            EwmaRateEstimator::decreasing(2, 0.5, 0.5, 1.0).is_err(),
            "decay too small"
        );
        assert!(
            EwmaRateEstimator::decreasing(2, 0.5, 1.5, 1.0).is_err(),
            "decay too large"
        );
        assert!(EwmaRateEstimator::decreasing(2, 0.5, 0.75, 0.0).is_err());
        let mut e = EwmaRateEstimator::decreasing(2, 0.5, 0.75, 1.0).unwrap();
        assert!(e.observe(5, 1.0, true).is_err(), "out of range");
        assert!(e.observe(0, 0.0, true).is_err(), "bad interval");
    }

    #[test]
    fn sa_state_roundtrip_continues_the_gain_schedule() {
        let mut e = EwmaRateEstimator::decreasing(2, 1.0, 0.6, 1.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 2.0, 0.5, 500);
        let back = EwmaRateEstimator::from_state(
            e.raw_rates().to_vec(),
            e.observation_counts().to_vec(),
            1.0,
            0.6,
        )
        .unwrap();
        assert_eq!(back.raw_rates(), e.raw_rates());
        assert_eq!(back.observations(0), 500);
        // Continuing both from the same point stays bit-identical.
        let mut a = e.clone();
        let mut b = back;
        feed_polls(&mut |i, c| a.observe(0, i, c).unwrap(), 2.0, 0.5, 100);
        feed_polls(&mut |i, c| b.observe(0, i, c).unwrap(), 2.0, 0.5, 100);
        assert_eq!(a.raw_rates(), b.raw_rates());
        assert!(EwmaRateEstimator::from_state(vec![1.0], vec![0, 0], 0.5, 0.75).is_err());
        assert!(EwmaRateEstimator::from_state(vec![-1.0], vec![0], 0.5, 0.75).is_err());
        assert!(EwmaRateEstimator::from_state(vec![1.0], vec![0], 0.5, 0.3).is_err());
    }

    /// The constant-gain (EWMA) update rule as its own estimator wrote it.
    fn ewma_step(lambda: f64, gain: f64, interval: f64, changed: bool) -> f64 {
        let expected = 1.0 - (-lambda * interval).exp();
        let indicator = f64::from(changed);
        let step = gain / interval * (indicator - expected);
        (lambda + step).clamp(RATE_FLOOR, RATE_CAP)
    }

    /// The decreasing-gain (SA) update rule as its own estimator wrote it,
    /// `k` polls into the element's gain schedule.
    fn sa_step(
        lambda: f64,
        k: u64,
        (gain, decay): (f64, f64),
        interval: f64,
        changed: bool,
    ) -> f64 {
        let eta = gain / (1.0 + k as f64).powf(decay);
        let expected = 1.0 - (-lambda * interval).exp();
        let indicator = f64::from(changed);
        let step = eta / interval * (indicator - expected);
        (lambda + step).clamp(RATE_FLOOR, RATE_CAP)
    }

    #[test]
    fn gain_schedules_reproduce_the_separate_update_rules_bit_for_bit() {
        let (n, prior) = (6, 1.0);
        for (gain, decay) in [(0.1, 0.0), (0.5, 0.6), (0.5, 1.0)] {
            let mut estimator = if decay == 0.0 {
                EwmaRateEstimator::new(n, gain, prior)
            } else {
                EwmaRateEstimator::decreasing(n, gain, decay, prior)
            }
            .unwrap();
            let mut rates = vec![prior; n];
            let mut seen = vec![0u64; n];
            let mut rng = crate::rng::SplitMix64::new(0x5a ^ decay.to_bits());
            for k in 0..6000 {
                if k == 3000 {
                    estimator = EwmaRateEstimator::from_state(
                        estimator.raw_rates().to_vec(),
                        estimator.observation_counts().to_vec(),
                        gain,
                        decay,
                    )
                    .unwrap();
                }
                // Element 5 is never polled; the rest change at 0.3–3.5.
                let i = rng.below(n - 1);
                let interval = rng.range(0.05, 2.0);
                let truth = 0.3 + 0.8 * i as f64;
                let changed = rng.next_f64() < 1.0 - (-truth * interval).exp();
                estimator.observe(i, interval, changed).unwrap();
                rates[i] = if decay == 0.0 {
                    ewma_step(rates[i], gain, interval, changed)
                } else {
                    sa_step(rates[i], seen[i], (gain, decay), interval, changed)
                };
                seen[i] += 1;
            }
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(estimator.raw_rates()),
                bits(&rates),
                "g={gain} d={decay}"
            );
            assert_eq!(estimator.observation_counts(), &seen[..]);
            assert_eq!(estimator.rates(7.0)[n - 1], 7.0);
        }
    }
}
