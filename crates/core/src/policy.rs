//! Synchronization-order policies and their freshness laws.
//!
//! The paper adopts the **Fixed Order** policy throughout, citing Cho &
//! Garcia-Molina's result that it beats randomized alternatives. This
//! module makes that choice explicit and testable by also implementing the
//! **Poisson** (memoryless random) policy:
//!
//! | Policy | Sync instants | Time-averaged freshness |
//! |---|---|---|
//! | [`SyncPolicy::FixedOrder`] | evenly spaced, interval `1/f` | `(f/λ)(1 − e^{−λ/f})` |
//! | [`SyncPolicy::Poisson`]    | Poisson process at rate `f`   | `f / (λ + f)` |
//!
//! For every `r = λ/f > 0`, `(1 − e^{−r})/r > 1/(1 + r)`, so Fixed Order
//! strictly dominates — regular spacing wastes no interval being either
//! too early or too late. The ablation binary `exp_policy` and the
//! simulator's Poisson mode (`freshen_sim::Simulation::with_sync_policy`)
//! quantify the gap end to end.
//!
//! Every sum of freshness or age terms (PF, GF, perceived age) runs
//! through [`sum_terms`], so a schedule scores the same bits whichever
//! entry point or executor scored it.

use crate::exec::{Executor, DEFAULT_CHUNK};
use crate::freshness::{freshness_gradient, steady_state_freshness};
use crate::numeric::NeumaierSum;

/// How refreshes of one element are placed in time, given its frequency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Refresh at fixed, evenly spaced intervals (the paper's policy).
    #[default]
    FixedOrder,
    /// Refresh at exponentially distributed intervals (memoryless).
    Poisson,
}

impl SyncPolicy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SyncPolicy::FixedOrder => "fixed-order",
            SyncPolicy::Poisson => "poisson",
        }
    }

    /// Time-averaged freshness of an element with change rate `lambda`
    /// refreshed at frequency `f` under this policy.
    #[inline]
    pub fn freshness(&self, lambda: f64, f: f64) -> f64 {
        match self {
            SyncPolicy::FixedOrder => steady_state_freshness(lambda, f),
            SyncPolicy::Poisson => {
                debug_assert!(lambda >= 0.0 && f >= 0.0);
                if lambda <= 0.0 {
                    1.0
                } else if f <= 0.0 {
                    0.0
                } else {
                    f / (lambda + f)
                }
            }
        }
    }

    /// Marginal freshness `∂F̄/∂f` under this policy.
    #[inline]
    pub fn gradient(&self, lambda: f64, f: f64) -> f64 {
        match self {
            SyncPolicy::FixedOrder => freshness_gradient(lambda, f),
            SyncPolicy::Poisson => {
                debug_assert!(lambda > 0.0 && f >= 0.0);
                let d = lambda + f;
                lambda / (d * d)
            }
        }
    }

    /// Time-averaged age under this policy.
    ///
    /// Fixed Order: see [`crate::freshness::steady_state_age`]. Poisson
    /// (memoryless syncing at rate `f`): conditioning on the exponential
    /// time-since-last-sync gives the closed form `Ā = λ / (f·(f + λ))`.
    #[inline]
    pub fn age(&self, lambda: f64, f: f64) -> f64 {
        match self {
            SyncPolicy::FixedOrder => crate::freshness::steady_state_age(lambda, f),
            SyncPolicy::Poisson => {
                debug_assert!(lambda >= 0.0 && f >= 0.0);
                if lambda <= 0.0 {
                    0.0
                } else if f <= 0.0 {
                    f64::INFINITY
                } else {
                    lambda / (f * (f + lambda))
                }
            }
        }
    }

    /// Perceived freshness `Σ wᵢ·F̄(λᵢ, fᵢ)` under this policy, summed by
    /// [`sum_terms`] on `executor`.
    pub fn perceived_freshness(
        &self,
        weights: &[f64],
        lambdas: &[f64],
        freqs: &[f64],
        executor: &Executor,
    ) -> f64 {
        let [pf] = sum_terms([weights, lambdas, freqs], executor, |[w, l, f]| {
            [weighted(w, || self.freshness(l, f))]
        });
        pf
    }

    /// Perceived **age** `Σ wᵢ·Ā(λᵢ, fᵢ)` under this policy, summed by
    /// [`sum_terms`] on `executor`. Infinite as soon as a read element
    /// (`wᵢ > 0`) that changes gets no bandwidth.
    pub fn perceived_age(
        &self,
        weights: &[f64],
        lambdas: &[f64],
        freqs: &[f64],
        executor: &Executor,
    ) -> f64 {
        let [age] = sum_terms([weights, lambdas, freqs], executor, |[w, l, f]| {
            [weighted(w, || self.age(l, f))]
        });
        age
    }

    /// Unweighted mean freshness `Σ F̄(λᵢ, fᵢ) / N` (the general-freshness
    /// metric) under this policy, summed by [`sum_terms`] on `executor`;
    /// 0 for no elements.
    pub fn mean_freshness(&self, lambdas: &[f64], freqs: &[f64], executor: &Executor) -> f64 {
        let [total] = sum_terms([lambdas, freqs], executor, |[l, f]| [self.freshness(l, f)]);
        if lambdas.is_empty() {
            0.0
        } else {
            total / lambdas.len() as f64
        }
    }
}

/// Compensated sums of `K` per-element terms over `C` equal-length
/// columns: the one order in which the workspace sums freshness and age.
/// The columns are cut into chunks of [`DEFAULT_CHUNK`] elements, each
/// chunk keeps one [`NeumaierSum`] per term, and the partials are merged
/// in chunk order on the calling thread ([`Executor::par_chunks_reduce`]),
/// so every executor, serial or pooled, returns the same bits. `terms`
/// maps one element's column values to its terms and runs once per
/// element, so one pass can sum several metrics that share a per-element
/// value.
///
/// # Panics
/// Panics when the columns differ in length.
pub fn sum_terms<const C: usize, const K: usize>(
    columns: [&[f64]; C],
    executor: &Executor,
    terms: impl Fn([f64; C]) -> [f64; K] + Sync,
) -> [f64; K] {
    let len = columns.first().map_or(0, |c| c.len());
    assert!(
        columns.iter().all(|c| c.len() == len),
        "column length mismatch: {:?}",
        columns.map(<[f64]>::len)
    );
    executor
        .par_chunks_reduce(
            len,
            DEFAULT_CHUNK,
            |range| {
                // Cut every column to the chunk, so the loop indexes them
                // without bounds checks.
                let chunk = columns.map(|c| &c[range.clone()]);
                let mut acc = [NeumaierSum::new(); K];
                for i in 0..range.len() {
                    for (sum, term) in acc.iter_mut().zip(terms(chunk.map(|c| c[i]))) {
                        sum.add(term);
                    }
                }
                acc
            },
            |mut a, b| {
                for (a, b) in a.iter_mut().zip(b) {
                    a.merge(b);
                }
                a
            },
        )
        .map_or([0.0; K], |acc| acc.map(|a| a.total()))
}

/// `w·x()`, or exactly 0 without evaluating `x` when `w` is 0: an element
/// nobody reads adds nothing, not even the infinite age of a starved one.
#[inline]
pub(crate) fn weighted(w: f64, x: impl FnOnce() -> f64) -> f64 {
    if w == 0.0 {
        0.0
    } else {
        w * x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_freshness_closed_form() {
        assert_eq!(SyncPolicy::Poisson.freshness(2.0, 2.0), 0.5);
        assert_eq!(SyncPolicy::Poisson.freshness(1.0, 3.0), 0.75);
        assert_eq!(SyncPolicy::Poisson.freshness(1.0, 0.0), 0.0);
        assert_eq!(SyncPolicy::Poisson.freshness(0.0, 5.0), 1.0);
    }

    #[test]
    fn fixed_order_dominates_poisson_everywhere() {
        // (1 − e^{−r})/r > 1/(1+r) for all r > 0.
        for lam in [0.1, 1.0, 5.0, 50.0] {
            for f in [0.01, 0.5, 1.0, 10.0, 100.0] {
                let fo = SyncPolicy::FixedOrder.freshness(lam, f);
                let po = SyncPolicy::Poisson.freshness(lam, f);
                assert!(
                    fo > po,
                    "fixed-order must dominate: λ={lam} f={f}: {fo} vs {po}"
                );
            }
        }
    }

    #[test]
    fn policies_agree_at_extremes() {
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            assert_eq!(policy.freshness(3.0, 0.0), 0.0, "{:?}", policy);
            assert!(policy.freshness(3.0, 1e9) > 1.0 - 1e-6);
            assert_eq!(policy.freshness(0.0, 1.0), 1.0);
        }
    }

    #[test]
    fn poisson_gradient_matches_finite_difference() {
        let lam = 2.5;
        for f in [0.1, 1.0, 4.0] {
            let h = 1e-6;
            let num = (SyncPolicy::Poisson.freshness(lam, f + h)
                - SyncPolicy::Poisson.freshness(lam, f - h))
                / (2.0 * h);
            let ana = SyncPolicy::Poisson.gradient(lam, f);
            assert!((num - ana).abs() < 1e-6, "f={f}: {num} vs {ana}");
        }
    }

    #[test]
    fn perceived_freshness_weighted_sum() {
        let pf = SyncPolicy::Poisson.perceived_freshness(
            &[0.5, 0.5],
            &[1.0, 1.0],
            &[1.0, 3.0],
            &Executor::serial(),
        );
        assert!((pf - 0.5 * (0.5 + 0.75)).abs() < 1e-12);
    }

    #[test]
    fn poisson_age_closed_form() {
        // λ = f = 2: Ā = 2/(2·4) = 0.25.
        assert!((SyncPolicy::Poisson.age(2.0, 2.0) - 0.25).abs() < 1e-12);
        assert_eq!(SyncPolicy::Poisson.age(0.0, 1.0), 0.0);
        assert_eq!(SyncPolicy::Poisson.age(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn fixed_order_age_beats_poisson_age() {
        // Lower age is better; regular spacing wins here too.
        for lam in [0.5, 2.0, 10.0] {
            for f in [0.5, 1.0, 5.0] {
                assert!(
                    SyncPolicy::FixedOrder.age(lam, f) < SyncPolicy::Poisson.age(lam, f),
                    "λ={lam} f={f}"
                );
            }
        }
    }

    #[test]
    fn default_is_fixed_order() {
        assert_eq!(SyncPolicy::default(), SyncPolicy::FixedOrder);
        assert_eq!(SyncPolicy::default().name(), "fixed-order");
    }
}
