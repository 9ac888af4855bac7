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
        (-(((n - x + 0.5) / (n + 0.5)).ln()) / self.interval).min(RATE_CAP)
    }
}

/// A batch estimator that accumulates poll outcomes per element and emits
/// the change-rate vector the scheduler consumes. This is the mirror-side
/// component the paper describes: "frequency estimates would be
/// periodically communicated to the mirror".
#[derive(Debug, Clone)]
pub struct ChangeRateEstimator {
    polls: Vec<u64>,
    detections: Vec<u64>,
    interval: f64,
}

impl ChangeRateEstimator {
    /// Create an estimator over `n` elements polled at `interval`.
    pub fn new(n: usize, interval: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if !interval.is_finite() || interval <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "poll interval",
                index: None,
                value: interval,
            });
        }
        Ok(ChangeRateEstimator {
            polls: vec![0; n],
            detections: vec![0; n],
            interval,
        })
    }

    /// Record the outcome of polling `element`: did it change since the
    /// previous poll?
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn record_poll(&mut self, element: usize, changed: bool) {
        self.polls[element] += 1;
        if changed {
            self.detections[element] += 1;
        }
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.polls.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.polls.is_empty()
    }

    /// Bias-reduced rate estimates for all elements. Elements never polled
    /// get `fallback` (e.g. the fleet-wide mean rate) rather than a bogus 0.
    pub fn rates(&self, fallback: f64) -> Vec<f64> {
        self.polls
            .iter()
            .zip(&self.detections)
            .map(|(&n, &x)| {
                if n == 0 {
                    fallback
                } else {
                    PollHistory {
                        polls: n,
                        changes_detected: x,
                        interval: self.interval,
                    }
                    .estimate_bias_reduced()
                }
            })
            .collect()
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

/// Recursive (constant-gain stochastic-approximation) online change-rate
/// estimator, following Avrachenkov, Patil & Thoppe's online estimators
/// for web-page change rates.
///
/// Each poll of element `i` after interval `τ` reveals the Bernoulli
/// indicator `I = 1{changed}` with `E[I] = 1 − e^{−λᵢτ}`. The estimator
/// performs one stochastic-approximation step toward the root of that
/// moment equation:
///
/// ```text
/// λ̂ ← λ̂ + (g/τ) · (I − (1 − e^{−λ̂τ}))
/// ```
///
/// With a constant gain `g ∈ (0, 1]` this is the recursive analogue of an
/// exponentially weighted moving average: the fixed point is the true rate
/// and old observations decay geometrically, so the estimate *tracks* a
/// drifting λ instead of averaging over its whole history. The `1/τ`
/// scaling keeps the step size in rate units, making convergence speed
/// first-order independent of the polling interval.
#[derive(Debug, Clone)]
pub struct EwmaRateEstimator {
    rates: Vec<f64>,
    seen: Vec<u64>,
    gain: f64,
}

impl EwmaRateEstimator {
    /// Create an estimator over `n` elements with step `gain ∈ (0, 1]`,
    /// starting every element at the `prior` rate (e.g. the fleet-wide
    /// mean).
    pub fn new(n: usize, gain: f64, prior: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if !gain.is_finite() || gain <= 0.0 || gain > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain",
                index: None,
                value: gain,
            });
        }
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
        if element >= self.rates.len() {
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
        let lambda = self.rates[element];
        let expected = 1.0 - (-lambda * interval).exp();
        let indicator = f64::from(changed);
        let step = self.gain / interval * (indicator - expected);
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

    /// Current rate estimates for all elements. The `fallback` replaces
    /// the prior for elements never polled, mirroring
    /// [`ChangeRateEstimator::rates`].
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
    /// [`raw_rates`](Self::raw_rates)).
    pub fn observation_counts(&self) -> &[u64] {
        &self.seen
    }

    /// Rebuild an estimator from checkpointed state. The `gain` comes from
    /// configuration; `rates`/`seen` are what
    /// [`raw_rates`](Self::raw_rates) and
    /// [`observation_counts`](Self::observation_counts) exported.
    pub fn from_state(rates: Vec<f64>, seen: Vec<u64>, gain: f64) -> Result<Self> {
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
        if !gain.is_finite() || gain <= 0.0 || gain > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain",
                index: None,
                value: gain,
            });
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
        Ok(EwmaRateEstimator { rates, seen, gain })
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
    // Per element: ring of (interval, changed) pairs, newest last.
    intervals: Vec<std::collections::VecDeque<f64>>,
    changes: Vec<std::collections::VecDeque<bool>>,
}

impl WindowRateEstimator {
    /// Create an estimator over `n` elements remembering the last
    /// `window ≥ 1` polls each.
    pub fn new(n: usize, window: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if window == 0 {
            return Err(CoreError::InvalidConfig(
                "sliding window needs at least one slot".into(),
            ));
        }
        Ok(WindowRateEstimator {
            window,
            intervals: vec![std::collections::VecDeque::with_capacity(window); n],
            changes: vec![std::collections::VecDeque::with_capacity(window); n],
        })
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Fold in one poll outcome, evicting the oldest once the window is
    /// full.
    pub fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        if element >= self.intervals.len() {
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
        if self.intervals[element].len() == self.window {
            self.intervals[element].pop_front();
            self.changes[element].pop_front();
        }
        self.intervals[element].push_back(interval);
        self.changes[element].push_back(changed);
        Ok(())
    }

    /// Bias-reduced rate estimate over one element's window, or `fallback`
    /// when it has never been polled.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn rate(&self, element: usize, fallback: f64) -> f64 {
        let n = self.intervals[element].len() as u64;
        if n == 0 {
            return fallback;
        }
        let x = self.changes[element].iter().filter(|&&c| c).count() as u64;
        let mean_interval =
            self.intervals[element].iter().sum::<f64>() / self.intervals[element].len() as f64;
        let estimate = PollHistory {
            polls: n,
            changes_detected: x,
            interval: mean_interval,
        }
        .estimate_bias_reduced();
        estimate.clamp(RATE_FLOOR, RATE_CAP)
    }

    /// Polls currently inside one element's window.
    ///
    /// # Panics
    /// Panics when `element` is out of range.
    pub fn observations(&self, element: usize) -> u64 {
        self.intervals[element].len() as u64
    }

    /// Rate estimates for all elements (never-polled elements get
    /// `fallback`).
    pub fn rates(&self, fallback: f64) -> Vec<f64> {
        (0..self.intervals.len())
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
        self.intervals
            .iter()
            .zip(&self.changes)
            .map(|(iv, ch)| iv.iter().copied().zip(ch.iter().copied()).collect())
            .collect()
    }

    /// Rebuild an estimator from checkpointed state exported by
    /// [`entries`](Self::entries).
    pub fn from_state(window: usize, entries: Vec<Vec<(f64, bool)>>) -> Result<Self> {
        if entries.is_empty() {
            return Err(CoreError::Empty);
        }
        if window == 0 {
            return Err(CoreError::InvalidConfig(
                "sliding window needs at least one slot".into(),
            ));
        }
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
        if element >= self.polls.len() {
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
        let n = self.polls[element];
        if n == 0 {
            return fallback;
        }
        let estimate = PollHistory {
            polls: n,
            changes_detected: self.detections[element],
            interval: self.interval_sum[element] / n as f64,
        }
        .estimate_bias_reduced();
        estimate.clamp(RATE_FLOOR, RATE_CAP)
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

/// Stochastic-approximation online change-rate estimator with a
/// *decreasing* gain sequence, following Avrachenkov, Patil & Thoppe's SA
/// estimator for web-page change rates.
///
/// The update is the same moment-equation step as the constant-gain
/// [`EwmaRateEstimator`]:
///
/// ```text
/// λ̂ ← λ̂ + (η_k/τ) · (I − (1 − e^{−λ̂τ}))    η_k = g₀ / (1 + k)^d
/// ```
///
/// but with gain `η_k` decaying in the element's poll count `k`. Under
/// the standard Robbins–Monro conditions (`Ση_k = ∞`, `Ση_k² < ∞`, which
/// `d ∈ (0.5, 1]` satisfies) the iterate converges almost surely to the
/// true rate on a stationary source — the noise floor vanishes instead of
/// persisting as with a constant gain. After a rate shift it re-converges
/// more slowly than EWMA (the gain has already decayed), which is the
/// classic tracking-vs-precision trade the `exp_estimators` bench
/// measures.
#[derive(Debug, Clone)]
pub struct SaRateEstimator {
    rates: Vec<f64>,
    seen: Vec<u64>,
    gain: f64,
    decay: f64,
}

impl SaRateEstimator {
    /// Create an estimator over `n` elements with initial gain
    /// `gain ∈ (0, 1]` decaying as `(1 + k)^{-decay}` with
    /// `decay ∈ (0.5, 1]`, starting every element at the `prior` rate.
    pub fn new(n: usize, gain: f64, decay: f64, prior: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if !gain.is_finite() || gain <= 0.0 || gain > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain",
                index: None,
                value: gain,
            });
        }
        if !decay.is_finite() || decay <= 0.5 || decay > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain decay",
                index: None,
                value: decay,
            });
        }
        if !prior.is_finite() || prior <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "prior change rate",
                index: None,
                value: prior,
            });
        }
        Ok(SaRateEstimator {
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

    /// Fold in one poll outcome with the element's current (decayed) gain.
    pub fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        if element >= self.rates.len() {
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
        let k = self.seen[element] as f64;
        let eta = self.gain / (1.0 + k).powf(self.decay);
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

    /// The raw per-element estimates including priors — the
    /// checkpointable state.
    pub fn raw_rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-element observation counts (the checkpointable companion to
    /// [`raw_rates`](Self::raw_rates); they also position the gain
    /// schedule, so kill/resume continues the same decay sequence).
    pub fn observation_counts(&self) -> &[u64] {
        &self.seen
    }

    /// Rebuild an estimator from checkpointed state. `gain`/`decay` come
    /// from configuration; `rates`/`seen` are what
    /// [`raw_rates`](Self::raw_rates) and
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
        if !gain.is_finite() || gain <= 0.0 || gain > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain",
                index: None,
                value: gain,
            });
        }
        if !decay.is_finite() || decay <= 0.5 || decay > 1.0 {
            return Err(CoreError::InvalidValue {
                what: "estimator gain decay",
                index: None,
                value: decay,
            });
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
        Ok(SaRateEstimator {
            rates,
            seen,
            gain,
            decay,
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
        // −ln((n+0.5)/(n+0.5)) = 0.
        let br = h.estimate_bias_reduced();
        assert!(br.abs() < 1e-12);
    }

    #[test]
    fn interval_scales_estimates() {
        let h1 = PollHistory::new(100, 50, 1.0).unwrap();
        let h2 = PollHistory::new(100, 50, 2.0).unwrap();
        assert!((h1.estimate_bias_reduced() / h2.estimate_bias_reduced() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_estimator_roundtrip() {
        let mut e = ChangeRateEstimator::new(2, 1.0).unwrap();
        // Element 0 changes every poll (fast); element 1 rarely.
        for i in 0..100 {
            e.record_poll(0, i % 2 == 0);
            e.record_poll(1, i == 0);
        }
        let rates = e.rates(99.0);
        assert!(rates[0] > rates[1]);
        assert!(rates[1] > 0.0);
    }

    #[test]
    fn batch_estimator_fallback_for_unpolled() {
        let e = ChangeRateEstimator::new(3, 1.0).unwrap();
        assert_eq!(e.rates(7.0), vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn batch_estimator_validation() {
        assert!(ChangeRateEstimator::new(0, 1.0).is_err());
        assert!(ChangeRateEstimator::new(3, -1.0).is_err());
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
        let mut batch = ChangeRateEstimator::new(1, 0.5).unwrap();
        let mut ewma = EwmaRateEstimator::new(1, 0.02, 2.0).unwrap();
        let mut window = WindowRateEstimator::new(1, 1000).unwrap();
        feed_polls(
            &mut |i, c| {
                batch.record_poll(0, c);
                ewma.observe(0, i, c).unwrap();
                window.observe(0, i, c).unwrap();
            },
            2.0,
            0.5,
            1000,
        );
        let b = batch.rates(0.0)[0];
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
        let mut e = SaRateEstimator::new(1, 1.0, 0.6, 1.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 3.0, 0.25, 4000);
        let est = e.rate(0);
        assert!((est - 3.0).abs() < 0.25, "estimated {est}, want ≈3");
        assert_eq!(e.observations(0), 4000);
    }

    #[test]
    fn sa_beats_constant_gain_in_steady_state() {
        // Same feed: the decreasing-gain iterate must land closer to the
        // truth than the constant-gain EWMA, whose noise floor persists.
        let mut sa = SaRateEstimator::new(1, 1.0, 0.6, 1.0).unwrap();
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
        let e = SaRateEstimator::new(2, 0.5, 0.75, 5.0).unwrap();
        assert_eq!(e.rates(7.0), vec![7.0, 7.0], "unpolled gets fallback");
        assert!(SaRateEstimator::new(0, 0.5, 0.75, 1.0).is_err());
        assert!(SaRateEstimator::new(2, 0.0, 0.75, 1.0).is_err());
        assert!(SaRateEstimator::new(2, 1.5, 0.75, 1.0).is_err());
        assert!(
            SaRateEstimator::new(2, 0.5, 0.5, 1.0).is_err(),
            "decay too small"
        );
        assert!(
            SaRateEstimator::new(2, 0.5, 1.5, 1.0).is_err(),
            "decay too large"
        );
        assert!(SaRateEstimator::new(2, 0.5, 0.75, 0.0).is_err());
        let mut e = SaRateEstimator::new(2, 0.5, 0.75, 1.0).unwrap();
        assert!(e.observe(5, 1.0, true).is_err(), "out of range");
        assert!(e.observe(0, 0.0, true).is_err(), "bad interval");
    }

    #[test]
    fn sa_state_roundtrip_continues_the_gain_schedule() {
        let mut e = SaRateEstimator::new(2, 1.0, 0.6, 1.0).unwrap();
        feed_polls(&mut |i, c| e.observe(0, i, c).unwrap(), 2.0, 0.5, 500);
        let back = SaRateEstimator::from_state(
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
        assert!(SaRateEstimator::from_state(vec![1.0], vec![0, 0], 0.5, 0.75).is_err());
        assert!(SaRateEstimator::from_state(vec![-1.0], vec![0], 0.5, 0.75).is_err());
    }
}
