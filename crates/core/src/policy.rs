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
//! Each law is also a type, [`FixedOrder`] and [`Poisson`], implementing
//! [`FreshnessLaw`]. [`SyncPolicy`] is the runtime choice: every
//! per-element loop (the sums here, scoring, the solver's kernel, the
//! certificate) matches it once per call and runs a loop generic over
//! the law, so no element pays for the match.
//!
//! Every sum of freshness or age terms (PF, GF, perceived age) runs
//! through [`sum_terms`], so a schedule scores the same bits whichever
//! entry point or executor scored it.

use crate::exec::{Executor, DEFAULT_CHUNK};
use crate::freshness::{
    freshness_gradient, phi_series, steady_state_age, steady_state_freshness, PHI_SERIES_BELOW,
};
use crate::numeric::NeumaierSum;

/// One synchronization policy's per-element formulas, as a type: a loop
/// generic over `L: FreshnessLaw` is compiled once per law and names it,
/// instead of matching a [`SyncPolicy`] per element.
pub trait FreshnessLaw {
    /// Kernel steps one funded element costs in [`invert`](Self::invert).
    const KERNEL_STEPS: usize;

    /// Time-averaged freshness `F̄(λ, f)`.
    fn freshness(lambda: f64, f: f64) -> f64;

    /// Marginal freshness `∂F̄/∂f` (defined for `λ > 0`).
    fn gradient(lambda: f64, f: f64) -> f64;

    /// Time-averaged age.
    fn age(lambda: f64, f: f64) -> f64;

    /// The water-filling kernel's inversion: the frequency `f > 0` at
    /// which `p·∂F̄/∂f = τ`, given `λτ < p` with `τ = μs + γc`, and its
    /// elasticity `−d ln f/d ln μ` (only the `μs` share of `τ` moves).
    /// The cost is the same for every element: no loop exit depends on
    /// the data.
    fn invert(p: f64, lam: f64, s: f64, mu: f64, tau: f64) -> (f64, f64);
}

/// The Fixed-Order law: `F̄ = (f/λ)(1 − e^{−λ/f})`, the paper's.
#[derive(Debug, Clone, Copy)]
pub struct FixedOrder;

/// The Poisson (memoryless) law: `F̄ = f/(λ + f)`.
#[derive(Debug, Clone, Copy)]
pub struct Poisson;

/// Halley steps the Fixed-Order inversion takes from its two-branch start
/// (within 6% of the root everywhere). Halley converges cubically, so two
/// steps reach ~3e-14 relative error and every element costs the same.
const HALLEY_STEPS: usize = 2;

impl FreshnessLaw for FixedOrder {
    const KERNEL_STEPS: usize = HALLEY_STEPS;

    #[inline]
    fn freshness(lambda: f64, f: f64) -> f64 {
        steady_state_freshness(lambda, f)
    }

    #[inline]
    fn gradient(lambda: f64, f: f64) -> f64 {
        freshness_gradient(lambda, f)
    }

    #[inline]
    fn age(lambda: f64, f: f64) -> f64 {
        steady_state_age(lambda, f)
    }

    /// `∂F̄/∂f = φ(λ/f)/λ`, so with `y = λτ/p` stationarity reads
    /// `φ(x) = y` for `x = λ/f`: every element sits on the one locus
    /// `x = ψ(y)`, `ψ = φ⁻¹`, found from a two-branch start by two
    /// Halley steps.
    #[inline]
    fn invert(p: f64, lam: f64, s: f64, mu: f64, tau: f64) -> (f64, f64) {
        let inv_p = 1.0 / p;
        let lam_tau = lam * tau;
        // 1 − y from the inputs: no cancellation as y → 1.
        let (y, q) = (lam_tau * inv_p, (p - lam_tau) * inv_p);
        let (x, x_dphi) = fixed_order_root(y.max(f64::MIN_POSITIVE), q);
        // d ln x/d ln y = y/(x·φ′(x)); only the μ share of y moves.
        (lam / x, lam * mu * s * inv_p / x_dphi)
    }
}

impl FreshnessLaw for Poisson {
    const KERNEL_STEPS: usize = 0;

    #[inline]
    fn freshness(lambda: f64, f: f64) -> f64 {
        debug_assert!(lambda >= 0.0 && f >= 0.0);
        if lambda <= 0.0 {
            1.0
        } else if f <= 0.0 {
            0.0
        } else {
            f / (lambda + f)
        }
    }

    #[inline]
    fn gradient(lambda: f64, f: f64) -> f64 {
        debug_assert!(lambda > 0.0 && f >= 0.0);
        let d = lambda + f;
        lambda / (d * d)
    }

    /// Conditioning on the exponential time-since-last-sync gives the
    /// closed form `Ā = λ / (f·(f + λ))`.
    #[inline]
    fn age(lambda: f64, f: f64) -> f64 {
        debug_assert!(lambda >= 0.0 && f >= 0.0);
        if lambda <= 0.0 {
            0.0
        } else if f <= 0.0 {
            f64::INFINITY
        } else {
            lambda / (f * (f + lambda))
        }
    }

    /// Closed form: `f = √(pλ/τ) − λ`.
    #[inline]
    fn invert(p: f64, lam: f64, s: f64, mu: f64, tau: f64) -> (f64, f64) {
        let root = (p * lam / tau).sqrt();
        let f = root - lam;
        (f, 0.5 * root / f * (mu * s / tau))
    }
}

/// Solve `φ(x) = y` for `x = ψ(y) = −1 − W₋₁(−(1 − y)/e)` at a fixed
/// cost, given `y ∈ (0, 1)` and `q = 1 − y` formed by the caller from its
/// inputs. Returns the root and `x·φ′(x)` at the last step's point (the
/// elasticity's denominator).
///
/// The start takes one of two branches: the branch-point series in
/// `s = √(2y)` below `y = 0.6`, the `W₋₁` asymptotic in `L = −ln q`
/// above. It is within 6% of the root on all of `(0, 1)`, and
/// [`HALLEY_STEPS`] Halley steps (`φ′ = x·e^{−x}`,
/// `φ″ = (1 − x)·e^{−x}`, one `exp` each) bring it to ~3e-14. The
/// residual `φ(x) − y` is the series minus `y` below
/// [`PHI_SERIES_BELOW`] and `q − (1 + x)·e^{−x}` above, so neither tail
/// cancels.
#[inline]
fn fixed_order_root(y: f64, q: f64) -> (f64, f64) {
    let mut x = if y < 0.6 {
        let s = (2.0 * y).sqrt();
        s * (1.0
            + s * (1.0 / 3.0
                + s * (11.0 / 72.0
                    + s * (43.0 / 540.0 + s * (769.0 / 17280.0 + s * (221.0 / 8505.0))))))
    } else {
        let l = -q.ln();
        let l1 = l.ln_1p();
        l + l1 + l1 / (1.0 + l)
    };
    let mut x_dphi = 0.0;
    for _ in 0..HALLEY_STEPS {
        let e = (-x).exp();
        let h = if x < PHI_SERIES_BELOW {
            phi_series(x) - y
        } else {
            q - (1.0 + x) * e
        };
        x_dphi = x * x * e;
        // x − 2hφ′/(2φ′² − hφ″), divided through by e^{−x}.
        x -= 2.0 * h * x / (2.0 * x_dphi - h * (1.0 - x));
    }
    (x, x_dphi)
}

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
            SyncPolicy::FixedOrder => FixedOrder::freshness(lambda, f),
            SyncPolicy::Poisson => Poisson::freshness(lambda, f),
        }
    }

    /// Marginal freshness `∂F̄/∂f` under this policy.
    #[inline]
    pub fn gradient(&self, lambda: f64, f: f64) -> f64 {
        match self {
            SyncPolicy::FixedOrder => FixedOrder::gradient(lambda, f),
            SyncPolicy::Poisson => Poisson::gradient(lambda, f),
        }
    }

    /// Time-averaged age under this policy: see
    /// [`crate::freshness::steady_state_age`] for Fixed Order; Poisson's
    /// closed form is `Ā = λ / (f·(f + λ))`.
    #[inline]
    pub fn age(&self, lambda: f64, f: f64) -> f64 {
        match self {
            SyncPolicy::FixedOrder => FixedOrder::age(lambda, f),
            SyncPolicy::Poisson => Poisson::age(lambda, f),
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
        fn sum<L: FreshnessLaw>(columns: [&[f64]; 3], executor: &Executor) -> f64 {
            let [pf] = sum_terms(columns, executor, |[w, l, f]| {
                [weighted(w, || L::freshness(l, f))]
            });
            pf
        }
        let columns = [weights, lambdas, freqs];
        match self {
            SyncPolicy::FixedOrder => sum::<FixedOrder>(columns, executor),
            SyncPolicy::Poisson => sum::<Poisson>(columns, executor),
        }
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
        fn sum<L: FreshnessLaw>(columns: [&[f64]; 3], executor: &Executor) -> f64 {
            let [age] = sum_terms(columns, executor, |[w, l, f]| {
                [weighted(w, || L::age(l, f))]
            });
            age
        }
        let columns = [weights, lambdas, freqs];
        match self {
            SyncPolicy::FixedOrder => sum::<FixedOrder>(columns, executor),
            SyncPolicy::Poisson => sum::<Poisson>(columns, executor),
        }
    }

    /// Unweighted mean freshness `Σ F̄(λᵢ, fᵢ) / N` (the general-freshness
    /// metric) under this policy, summed by [`sum_terms`] on `executor`;
    /// 0 for no elements.
    pub fn mean_freshness(&self, lambdas: &[f64], freqs: &[f64], executor: &Executor) -> f64 {
        fn sum<L: FreshnessLaw>(columns: [&[f64]; 2], executor: &Executor) -> f64 {
            let [total] = sum_terms(columns, executor, |[l, f]| [L::freshness(l, f)]);
            total
        }
        let total = match self {
            SyncPolicy::FixedOrder => sum::<FixedOrder>([lambdas, freqs], executor),
            SyncPolicy::Poisson => sum::<Poisson>([lambdas, freqs], executor),
        };
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
