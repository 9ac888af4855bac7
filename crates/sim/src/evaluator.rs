//! The Freshness Evaluator (paper Figure 4), monitoring mode.
//!
//! Tracks two empirical views of perceived freshness while the simulation
//! runs:
//!
//! * **access scoring** — Definition 3's "keep score at each access":
//!   the fraction of simulated user requests that found a fresh copy;
//! * **time integration** — the time average of
//!   `Σᵢ pᵢ·freshᵢ(t)`, accumulated by watching freshness flips, which
//!   estimates the same expectation without access-sampling noise.
//!
//! Both start accumulating only after a configurable warm-up so the
//! all-fresh initial state does not bias the estimates. The analytic mode
//! (`Σ pᵢ·F̄(λᵢ, fᵢ)`) lives in `freshen_core::freshness` and is compared
//! against these in the integration tests.

use freshen_core::exec::Executor;
use freshen_core::policy::sum_terms;

/// Monitoring-mode evaluator state.
#[derive(Debug, Clone)]
pub struct FreshnessEvaluator {
    weights: Vec<f64>,
    /// Total profile weight (constant; `Σ weights`).
    total_weight: f64,
    /// Current freshness flag per element.
    fresh: Vec<bool>,
    /// Σ of weights of currently-fresh elements (kept incrementally).
    fresh_weight: f64,
    /// Integral of `fresh_weight` over measured time.
    weighted_fresh_time: f64,
    /// Per stale element: the time of the first source change the mirror
    /// has not yet seen — the instant its age started growing.
    stale_since: Vec<f64>,
    /// Σ over stale elements of `weight·stale_since` (kept incrementally,
    /// so the age integral advances in O(1) per event).
    weighted_stale_since: f64,
    /// Integral of `Σ_{stale i} wᵢ·(t − stale_sinceᵢ)` over measured time.
    weighted_age_time: f64,
    /// When measurement started (warm-up end).
    measure_start: f64,
    /// Last time the integral was advanced to.
    last_time: f64,
    /// Whether measurement has begun.
    measuring: bool,
    /// Accesses scored since measurement began.
    measured_accesses: u64,
    /// Of those, the accesses that found a fresh copy.
    fresh_accesses: u64,
}

impl FreshnessEvaluator {
    /// Create an evaluator; `weights` are the access probabilities, all
    /// elements start fresh.
    pub fn new(weights: &[f64]) -> Self {
        Self::with_executor(weights, &Executor::serial())
    }

    /// [`new`](Self::new) with the initial profile mass summed by
    /// [`sum_terms`] on `executor`. Identical at any worker count; the
    /// per-event scoring path is O(1) and stays serial.
    pub fn with_executor(weights: &[f64], executor: &Executor) -> Self {
        let [total] = sum_terms([weights], executor, |[w]| [w]);
        FreshnessEvaluator {
            weights: weights.to_vec(),
            total_weight: total,
            fresh: vec![true; weights.len()],
            fresh_weight: total,
            weighted_fresh_time: 0.0,
            stale_since: vec![0.0; weights.len()],
            weighted_stale_since: 0.0,
            weighted_age_time: 0.0,
            measure_start: 0.0,
            last_time: 0.0,
            measuring: false,
            measured_accesses: 0,
            fresh_accesses: 0,
        }
    }

    /// Begin measuring at `time` (end of warm-up). Accesses and freshness
    /// time before this call are ignored.
    pub fn start_measurement(&mut self, time: f64) {
        self.measure_start = time;
        self.last_time = time;
        self.measuring = true;
    }

    /// Whether measurement has begun.
    pub fn is_measuring(&self) -> bool {
        self.measuring
    }

    /// Advance the time integrals to `time`.
    fn advance(&mut self, time: f64) {
        if self.measuring && time > self.last_time {
            let dt = time - self.last_time;
            self.weighted_fresh_time += self.fresh_weight * dt;
            // Age of stale element i grows as (t − stale_sinceᵢ); the
            // weighted sum integrates in closed form between events.
            let stale_weight = self.total_weight - self.fresh_weight;
            self.weighted_age_time +=
                stale_weight * (time * time - self.last_time * self.last_time) / 2.0
                    - self.weighted_stale_since * dt;
            self.last_time = time;
        }
    }

    /// Record that `element`'s source copy changed at `time`.
    pub fn on_update(&mut self, time: f64, element: usize) {
        self.advance(time);
        if self.fresh[element] {
            self.fresh[element] = false;
            self.fresh_weight -= self.weights[element];
            self.stale_since[element] = time;
            self.weighted_stale_since += self.weights[element] * time;
        }
    }

    /// Record that the mirror refreshed `element` at `time`.
    pub fn on_sync(&mut self, time: f64, element: usize) {
        self.on_sync_applied(time, element, true);
    }

    /// Record a refresh whose arriving content may itself already be stale
    /// (link-transfer model: the snapshot was taken at transfer start).
    ///
    /// A still-stale arrival leaves the element's age clock running from
    /// its original first-unseen-change instant — a conservative (upper
    /// bound) accounting, since the arriving snapshot may have absorbed
    /// some of the backlog.
    pub fn on_sync_applied(&mut self, time: f64, element: usize, up_to_date: bool) {
        self.advance(time);
        if self.fresh[element] != up_to_date {
            self.fresh[element] = up_to_date;
            if up_to_date {
                self.fresh_weight += self.weights[element];
                self.weighted_stale_since -= self.weights[element] * self.stale_since[element];
            } else {
                self.fresh_weight -= self.weights[element];
                self.stale_since[element] = time;
                self.weighted_stale_since += self.weights[element] * time;
            }
        }
    }

    /// Record a user access at `time`; scores it when measuring.
    pub fn on_access(&mut self, time: f64, element: usize) {
        self.advance(time);
        if self.measuring {
            self.measured_accesses += 1;
            self.fresh_accesses += u64::from(self.fresh[element]);
        }
    }

    /// Close the integral at the simulation end time.
    pub fn finish(&mut self, time: f64) {
        self.advance(time);
    }

    /// Time-averaged perceived freshness over the measured window, or
    /// `None` when no time was measured.
    pub fn time_averaged_pf(&self) -> Option<f64> {
        let span = self.last_time - self.measure_start;
        if !self.measuring || span <= 0.0 {
            return None;
        }
        Some(self.weighted_fresh_time / span)
    }

    /// Time-averaged perceived **age** over the measured window — the
    /// profile-weighted mean time since each copy's first unseen change
    /// (0 while fresh). `None` when no time was measured.
    pub fn time_averaged_age(&self) -> Option<f64> {
        let span = self.last_time - self.measure_start;
        if !self.measuring || span <= 0.0 {
            return None;
        }
        Some(self.weighted_age_time / span)
    }

    /// Access-scored perceived freshness (Definition 3), or `None` before
    /// any measured access.
    pub fn access_pf(&self) -> Option<f64> {
        (self.measured_accesses > 0)
            .then(|| self.fresh_accesses as f64 / self.measured_accesses as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_weighted_fresh_time() {
        let mut ev = FreshnessEvaluator::new(&[0.75, 0.25]);
        ev.start_measurement(0.0);
        // Element 0 stale during [1, 3): weight drops to 0.25 for 2 units.
        ev.on_update(1.0, 0);
        ev.on_sync(3.0, 0);
        ev.finish(4.0);
        // Integral: 1·1 + 2·0.25 + 1·1 = 2.5 over 4 units.
        assert!((ev.time_averaged_pf().unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn warmup_excluded() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        // Stale for the whole warm-up, refreshed exactly at measurement start.
        ev.on_update(0.5, 0);
        ev.start_measurement(10.0);
        ev.on_sync(10.0, 0);
        ev.finish(20.0);
        // Only the measured window counts — and it was fully fresh.
        assert!((ev.time_averaged_pf().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn access_scores_only_when_measuring() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.on_access(0.1, 0); // warm-up access: ignored
        assert_eq!(ev.access_pf(), None);
        ev.start_measurement(1.0);
        ev.on_access(1.5, 0);
        ev.on_update(2.0, 0);
        ev.on_access(2.5, 0);
        assert_eq!(ev.access_pf(), Some(0.5));
    }

    #[test]
    fn duplicate_updates_and_syncs_idempotent() {
        let mut ev = FreshnessEvaluator::new(&[0.5, 0.5]);
        ev.start_measurement(0.0);
        ev.on_update(1.0, 0);
        ev.on_update(1.5, 0); // already stale
        ev.on_sync(2.0, 0);
        ev.on_sync(2.5, 0); // already fresh
        ev.finish(3.0);
        // Stale weight 0.5 during [1,2): integral = 3 − 0.5 = 2.5.
        assert!((ev.time_averaged_pf().unwrap() - 2.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_measurement_yields_none() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.on_update(1.0, 0);
        ev.finish(2.0);
        assert_eq!(ev.time_averaged_pf(), None);
        assert_eq!(ev.access_pf(), None);
    }

    #[test]
    fn age_integrates_linearly_while_stale() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.start_measurement(0.0);
        ev.on_update(1.0, 0); // age starts growing at t=1
        ev.on_sync(3.0, 0); // age resets after 2 time units
        ev.finish(4.0);
        // ∫ age = ∫₁³ (t−1) dt = 2; averaged over 4 units = 0.5.
        assert!((ev.time_averaged_age().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn age_weighted_across_elements() {
        let mut ev = FreshnessEvaluator::new(&[0.75, 0.25]);
        ev.start_measurement(0.0);
        ev.on_update(0.0, 0); // heavy element stale the whole time
        ev.finish(2.0);
        // ∫ 0.75·t dt over [0,2] = 1.5; /2 = 0.75.
        assert!((ev.time_averaged_age().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn age_second_update_does_not_reset_clock() {
        // Age counts from the FIRST unseen change.
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.start_measurement(0.0);
        ev.on_update(1.0, 0);
        ev.on_update(2.0, 0); // later change: clock keeps running from t=1
        ev.finish(3.0);
        // ∫₁³ (t−1) dt = 2; /3.
        assert!((ev.time_averaged_age().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn age_spanning_warmup_counts_preexisting_staleness() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.on_update(1.0, 0); // goes stale during warm-up
        ev.start_measurement(2.0);
        ev.finish(4.0);
        // Age at t ∈ [2,4] is (t−1): ∫ = (3+1)·2/2... ∫₂⁴(t−1)dt = 4; /2 = 2.
        assert!((ev.time_averaged_age().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stale_arrival_keeps_age_clock() {
        let mut ev = FreshnessEvaluator::new(&[1.0]);
        ev.start_measurement(0.0);
        ev.on_update(1.0, 0);
        // A transfer completes with still-stale content: clock keeps running.
        ev.on_sync_applied(2.0, 0, false);
        ev.on_sync(3.0, 0);
        ev.finish(3.0);
        // ∫₁³ (t−1) dt = 2; /3.
        assert!((ev.time_averaged_age().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }
}
