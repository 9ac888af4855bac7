//! The Fixed-Order freshness formula and the perceived-freshness metric.
//!
//! Following Cho & Garcia-Molina (SIGMOD 2000) — the paper's ref \[5\] — an
//! element whose source copy changes as a Poisson process with rate `λ`
//! (changes per period) and which the mirror refreshes `f` times per period
//! at *evenly spaced* instants (the **Fixed-Order** policy) has
//! time-averaged freshness
//!
//! ```text
//! F̄(λ, f) = (f/λ) · (1 − e^{−λ/f})        with F̄(λ, 0) = 0.
//! ```
//!
//! Writing `r = λ/f` (expected number of source changes per refresh
//! interval) this is `F̄ = (1 − e^{−r}) / r`, a strictly decreasing function
//! of `r` — refresh more often than the object changes and freshness
//! approaches 1; refresh much less often and it approaches 0.
//!
//! The paper's contribution is to weight each element's freshness by its
//! access probability `pᵢ`, producing **perceived freshness**
//! `PF = Σᵢ pᵢ · F̄(λᵢ, fᵢ)` (Definitions 3–4, plus the identity
//! `E[PF(A)] = Σ pᵢ F̄ᵢ` proved in their technical report).
//!
//! [`perceived_freshness`] and [`general_freshness`] sum serially in the
//! workspace's one scoring order, [`crate::policy::sum_terms`]: fixed
//! chunks of compensated (Neumaier) partials, so million-element PF
//! evaluations keep full precision and match a pooled evaluation bit for
//! bit.

use crate::exec::Executor;
use crate::policy::SyncPolicy;

/// Expected number of source changes per refresh interval below which we
/// switch to a Taylor expansion of `(1 − e^{−r})/r` to avoid catastrophic
/// cancellation.
const SMALL_R: f64 = 1e-5;

/// Time-averaged freshness of one element under the Fixed-Order policy.
///
/// * `lambda` — change frequency (Poisson rate, changes per period), `≥ 0`.
/// * `f` — synchronization frequency (refreshes per period), `≥ 0`.
///
/// Edge cases: `f == 0` yields `0` (never refreshed ⇒ eventually always
/// stale) unless `lambda == 0`, in which case the element never changes and
/// is always fresh (`1`).
///
/// ```
/// use freshen_core::freshness::steady_state_freshness;
/// // Refresh as often as it changes: F = 1 - 1/e ≈ 0.632.
/// let f = steady_state_freshness(2.0, 2.0);
/// assert!((f - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// // Never refreshed => 0; never changes => 1.
/// assert_eq!(steady_state_freshness(3.0, 0.0), 0.0);
/// assert_eq!(steady_state_freshness(0.0, 0.0), 1.0);
/// ```
#[inline]
pub fn steady_state_freshness(lambda: f64, f: f64) -> f64 {
    debug_assert!(lambda >= 0.0, "change rate must be non-negative");
    debug_assert!(f >= 0.0, "sync frequency must be non-negative");
    if lambda <= 0.0 {
        return 1.0;
    }
    if f <= 0.0 {
        return 0.0;
    }
    let r = lambda / f;
    freshness_of_ratio(r)
}

/// Freshness as a function of the change-to-refresh ratio `r = λ/f`.
///
/// `F(r) = (1 − e^{−r}) / r`, continuously extended with `F(0) = 1`.
#[inline]
pub fn freshness_of_ratio(r: f64) -> f64 {
    debug_assert!(r >= 0.0);
    if r < SMALL_R {
        // (1 - e^{-r})/r = 1 - r/2 + r²/6 - r³/24 + ...
        1.0 - r / 2.0 + r * r / 6.0
    } else {
        (1.0 - (-r).exp()) / r
    }
}

/// Below this `x`, [`phi`] sums its Taylor series: the closed form
/// `1 − (1 + x)·e^{−x}` cancels there, to a relative error of `~ε/x²`.
pub const PHI_SERIES_BELOW: f64 = 0.25;

/// `φ(x) = 1 − (1 + x)·e^{−x}`, the Fixed-Order marginal value in units
/// of `1/λ`: with `r = λ/f`, `∂F̄/∂f = φ(r)/λ` (the paper's Appendix,
/// Eq. 5–6). `φ` rises from 0 at `x = 0` (as `x²/2`) to 1 as `x → ∞`,
/// and `φ′(x) = x·e^{−x}`, `φ″(x) = (1 − x)·e^{−x}`.
///
/// Accurate to a few ulp everywhere: the series below
/// [`PHI_SERIES_BELOW`], the closed form above it.
///
/// ```
/// use freshen_core::freshness::phi;
/// assert!((phi(1.0) - (1.0 - 2.0 * (-1.0f64).exp())).abs() < 1e-16);
/// // φ(x) ≈ x²/2 near zero, computed without cancellation.
/// assert!((phi(1e-6) / 5e-13 - 1.0).abs() < 1e-6);
/// ```
#[inline]
pub fn phi(x: f64) -> f64 {
    if x < PHI_SERIES_BELOW {
        phi_series(x)
    } else {
        1.0 - (1.0 + x) * (-x).exp()
    }
}

/// The Taylor series `φ(x) = Σ_{k≥2} (−1)ᵏ (k − 1)·xᵏ/k!`, summed to
/// `k = 12`: a few ulp below [`PHI_SERIES_BELOW`], no cancellation.
#[inline]
pub fn phi_series(x: f64) -> f64 {
    const C: [f64; 11] = [
        1.0 / 2.0,
        -1.0 / 3.0,
        1.0 / 8.0,
        -1.0 / 30.0,
        1.0 / 144.0,
        -1.0 / 840.0,
        1.0 / 5760.0,
        -1.0 / 45360.0,
        1.0 / 403200.0,
        -1.0 / 3991680.0,
        1.0 / 43545600.0,
    ];
    let mut acc = 0.0;
    for &c in C.iter().rev() {
        acc = acc * x + c;
    }
    acc * x * x
}

/// Marginal freshness per unit of extra sync frequency:
/// `g(f; λ) = ∂F̄/∂f = (1/λ)(1 − e^{−λ/f}) − (1/f)·e^{−λ/f} = φ(λ/f)/λ`.
///
/// `g` is strictly decreasing in `f` (because `F̄` is strictly concave in
/// `f`), falling from `1/λ` as `f → 0⁺` toward `0` as `f → ∞`. The exact
/// Lagrange solver in `freshen-solver` equalizes `pᵢ·g(fᵢ; λᵢ)` across all
/// elements receiving bandwidth (the paper's Appendix, Eq. 5). Computed
/// through [`phi`], so the solver's kernel and the KKT audit read the
/// same marginal value.
///
/// ```
/// use freshen_core::freshness::freshness_gradient;
/// let lambda = 2.0;
/// // Near zero frequency the marginal value approaches 1/λ ...
/// assert!((freshness_gradient(lambda, 1e-9) - 0.5).abs() < 1e-6);
/// // ... and it decreases with f.
/// assert!(freshness_gradient(lambda, 1.0) > freshness_gradient(lambda, 2.0));
/// ```
#[inline]
pub fn freshness_gradient(lambda: f64, f: f64) -> f64 {
    debug_assert!(
        lambda > 0.0,
        "gradient is defined for positive change rates"
    );
    debug_assert!(f >= 0.0);
    if f <= 0.0 {
        return 1.0 / lambda;
    }
    let r = lambda / f;
    if r > 700.0 {
        // e^{-r} underflows; the limit is exactly 1/λ.
        return 1.0 / lambda;
    }
    phi(r) / lambda
}

/// Perceived freshness of an allocation: `PF = Σᵢ wᵢ · F̄(λᵢ, fᵢ)`.
///
/// `weights` are typically access probabilities summing to 1, in which case
/// the result lies in `[0, 1]`; with unnormalized weights the result is the
/// correspondingly scaled expectation. Slices must have equal length.
///
/// ```
/// use freshen_core::freshness::perceived_freshness;
/// let p = [0.5, 0.5];
/// let lam = [1.0, 1.0];
/// let f = [1.0, 1.0];
/// let pf = perceived_freshness(&p, &lam, &f);
/// assert!((pf - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// ```
pub fn perceived_freshness(weights: &[f64], lambdas: &[f64], freqs: &[f64]) -> f64 {
    SyncPolicy::FixedOrder.perceived_freshness(weights, lambdas, freqs, &Executor::serial())
}

/// *General* (interest-blind) freshness of an allocation: the unweighted
/// mean `Σᵢ F̄(λᵢ, fᵢ) / N` — Definition 2 of the paper and the objective of
/// Cho & Garcia-Molina's scheduler (the paper's "GF technique").
pub fn general_freshness(lambdas: &[f64], freqs: &[f64]) -> f64 {
    SyncPolicy::FixedOrder.mean_freshness(lambdas, freqs, &Executor::serial())
}

/// Time-averaged **age** of an element under the Fixed-Order policy:
/// the expected time since the first unseen source change (0 while the
/// copy is fresh).
///
/// Cho & Garcia-Molina's companion metric to freshness. For sync interval
/// `I = 1/f` and `r = λ/f`:
///
/// ```text
/// Ā(λ, f) = I · [ 1/2 − 1/r + (1 − e^{−r})/r² ]
/// ```
///
/// derived by conditioning on the offset `u ∈ [0, I)` since the last
/// sync: `E[age | u] = u − (1/λ)(1 − e^{−λu})`, averaged over `u`.
///
/// Limits: `f → ∞` gives 0; `f → 0` diverges (a never-refreshed copy ages
/// without bound, returned as `f64::INFINITY`); `λ = 0` gives 0 (a static
/// copy is never out of date).
///
/// ```
/// use freshen_core::freshness::steady_state_age;
/// assert_eq!(steady_state_age(1.0, 0.0), f64::INFINITY);
/// assert_eq!(steady_state_age(0.0, 1.0), 0.0);
/// // Very volatile object: stale almost immediately, mean age ≈ I/2.
/// assert!((steady_state_age(1e6, 2.0) - 0.25).abs() < 1e-3);
/// ```
#[inline]
pub fn steady_state_age(lambda: f64, f: f64) -> f64 {
    debug_assert!(lambda >= 0.0 && f >= 0.0);
    if lambda <= 0.0 {
        return 0.0;
    }
    if f <= 0.0 {
        return f64::INFINITY;
    }
    let r = lambda / f;
    let bracket = if r < 1e-3 {
        // 1/2 − 1/r + (1−e^{−r})/r² = r/6 − r²/24 + r³/120 − …
        r / 6.0 - r * r / 24.0 + r * r * r / 120.0
    } else {
        0.5 - 1.0 / r + (1.0 - (-r).exp()) / (r * r)
    };
    bracket / f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn freshness_at_equal_rates_is_one_minus_inv_e() {
        for lam in [0.5, 1.0, 3.0, 10.0] {
            let f = steady_state_freshness(lam, lam);
            assert!(close(f, 1.0 - (-1.0f64).exp(), 1e-12), "lam={lam} gave {f}");
        }
    }

    #[test]
    fn freshness_monotone_in_frequency() {
        let lam = 2.5;
        let mut prev = 0.0;
        for k in 1..200 {
            let f = steady_state_freshness(lam, k as f64 * 0.1);
            assert!(f > prev, "freshness must strictly increase with f");
            prev = f;
        }
    }

    #[test]
    fn freshness_monotone_decreasing_in_change_rate() {
        let f = 2.0;
        let mut prev = 1.0;
        for k in 1..200 {
            let fr = steady_state_freshness(k as f64 * 0.1, f);
            assert!(fr < prev, "freshness must strictly decrease with λ");
            prev = fr;
        }
    }

    #[test]
    fn freshness_bounds() {
        for lam in [0.1, 1.0, 7.0] {
            for f in [0.0, 0.01, 1.0, 100.0] {
                let fr = steady_state_freshness(lam, f);
                assert!((0.0..=1.0).contains(&fr));
            }
        }
    }

    #[test]
    fn freshness_small_ratio_series_matches_exact() {
        // Just above the Taylor cutoff, both branches must agree.
        let r: f64 = 2e-5;
        let exact = (1.0 - (-r).exp()) / r;
        let series = 1.0 - r / 2.0 + r * r / 6.0;
        assert!(close(exact, series, 1e-12));
    }

    #[test]
    fn freshness_high_frequency_approaches_one() {
        assert!(steady_state_freshness(1.0, 1e9) > 1.0 - 1e-9);
    }

    #[test]
    fn freshness_zero_frequency_is_zero() {
        assert_eq!(steady_state_freshness(5.0, 0.0), 0.0);
    }

    #[test]
    fn static_object_always_fresh() {
        assert_eq!(steady_state_freshness(0.0, 0.0), 1.0);
        assert_eq!(steady_state_freshness(0.0, 3.0), 1.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let lam = 3.0;
        for f in [0.2, 0.7, 1.0, 2.5, 10.0, 100.0] {
            let h = 1e-6 * f;
            let num = (steady_state_freshness(lam, f + h) - steady_state_freshness(lam, f - h))
                / (2.0 * h);
            let ana = freshness_gradient(lam, f);
            assert!(
                close(num, ana, 1e-5),
                "f={f}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn gradient_matches_high_precision_reference() {
        // (λ, f, g(f; λ)) with g from 50-digit arithmetic on the exact
        // binary inputs, over r = λ/f ∈ [1e-8, 700]: the series side, the
        // series/closed-form seam at r = 0.25 and the saturated tail.
        const REFERENCE: [(f64, f64, f64); 50] = [
            (1.0, 100000000.0, 4.999999966666667e-17),
            (1.0, 10000000.0, 4.999999666666679e-15),
            (1.0, 1000000.0, 4.999996666667917e-13),
            (1.0, 199999.99999999997, 1.2499958333411462e-11),
            (1.0, 99999.99999999999, 4.9999666667916676e-11),
            (1.0, 99009.900990099, 5.100465656763409e-11),
            (1.0, 49999.99999999999, 1.9999733335333329e-10),
            (1.0, 33333.333333333336, 4.499910001012491e-10),
            (1.0, 20000.0, 1.2499583341145729e-09),
            (1.0, 10000.0, 4.9996666791663335e-09),
            (1.0, 1000.0, 4.996667916333403e-07),
            (1.0, 100.0, 4.966791334026589e-05),
            (1.0, 10.0, 0.004678840160444469),
            (1.0, 4.001600640256102, 0.02647955406189723),
            (1.0, 4.0, 0.026499021160743916),
            (1.0, 3.3333333333333335, 0.03693631311376677),
            (1.0, 2.0, 0.09020401043104986),
            (1.0, 1.0, 0.26424111765711533),
            (1.0, 0.5, 0.5939941502901619),
            (1.0, 0.2, 0.9595723180054871),
            (1.0, 0.1, 0.9995006007726127),
            (1.0, 0.025, 0.9999999999999998),
            (1.0, 0.01, 1.0),
            (1.0, 0.0033333333333333335, 1.0),
            (1.0, 0.0014285714285714286, 1.0),
            (2.5, 250000000.0, 1.9999999866666667e-17),
            (2.5, 25000000.0, 1.9999998666666716e-15),
            (2.5, 2500000.0, 1.9999986666671668e-13),
            (2.5, 499999.99999999994, 4.999983333364584e-12),
            (2.5, 249999.99999999997, 1.999986666716667e-11),
            (2.5, 247524.75247524751, 2.0401862627053635e-11),
            (2.5, 124999.99999999999, 7.999893334133331e-11),
            (2.5, 83333.33333333333, 1.799964000404997e-10),
            (2.5, 50000.0, 4.999833336458292e-10),
            (2.5, 25000.0, 1.9998666716665335e-09),
            (2.5, 2500.0, 1.998667166533361e-07),
            (2.5, 250.0, 1.9867165336106356e-05),
            (2.5, 25.0, 0.001871536064177788),
            (2.5, 10.004001600640256, 0.01059182162475889),
            (2.5, 10.0, 0.010599608464297566),
            (2.5, 8.333333333333334, 0.014774525245506707),
            (2.5, 5.0, 0.03608160417241994),
            (2.5, 2.5, 0.10569644706284614),
            (2.5, 1.25, 0.23759766011606476),
            (2.5, 0.5, 0.38382892720219486),
            (2.5, 0.25, 0.39980024030904504),
            (2.5, 0.0625, 0.3999999999999999),
            (2.5, 0.025, 0.4),
            (2.5, 0.008333333333333333, 0.4),
            (2.5, 0.0035714285714285713, 0.4),
        ];
        for (lam, f, want) in REFERENCE {
            let got = freshness_gradient(lam, f);
            let rel = (got - want).abs() / want;
            assert!(
                rel <= 1e-13,
                "λ={lam} f={f}: {got:e} vs {want:e} (rel {rel:e})"
            );
        }
    }

    #[test]
    fn phi_series_and_closed_form_agree_at_the_seam() {
        let x = PHI_SERIES_BELOW;
        let closed = 1.0 - (1.0 + x) * (-x).exp();
        assert!((phi_series(x) - closed).abs() <= closed * 1e-14);
    }

    #[test]
    fn gradient_limit_at_zero_is_inv_lambda() {
        for lam in [0.5, 2.0, 9.0] {
            assert!(close(freshness_gradient(lam, 0.0), 1.0 / lam, 1e-12));
            assert!(close(freshness_gradient(lam, 1e-12), 1.0 / lam, 1e-6));
        }
    }

    #[test]
    fn gradient_strictly_decreasing() {
        let lam = 1.7;
        let mut prev = f64::INFINITY;
        for k in 0..500 {
            let f = 0.01 + k as f64 * 0.05;
            let g = freshness_gradient(lam, f);
            assert!(g < prev, "gradient must strictly decrease (f={f})");
            assert!(g > 0.0, "gradient stays positive");
            prev = g;
        }
    }

    #[test]
    fn gradient_huge_frequency_tiny() {
        assert!(freshness_gradient(1.0, 1e6) < 1e-11);
    }

    #[test]
    fn perceived_freshness_weighted_average() {
        let p = [0.8, 0.2];
        let lam = [1.0, 1.0];
        // first element perfectly fresh, second never refreshed
        let f = [1e12, 0.0];
        let pf = perceived_freshness(&p, &lam, &f);
        assert!(close(pf, 0.8, 1e-9));
    }

    #[test]
    fn perceived_freshness_zero_weight_ignores_staleness() {
        // "If a given item is never accessed, it does not contribute ...
        // regardless of how stale its value is."
        let pf = perceived_freshness(&[1.0, 0.0], &[1.0, 100.0], &[10.0, 0.0]);
        let alone = perceived_freshness(&[1.0], &[1.0], &[10.0]);
        assert_eq!(pf, alone);
    }

    #[test]
    fn general_freshness_is_unweighted_mean() {
        let lam = [1.0, 2.0];
        let f = [1.0, 2.0];
        let gf = general_freshness(&lam, &f);
        let expect = (steady_state_freshness(1.0, 1.0) + steady_state_freshness(2.0, 2.0)) / 2.0;
        assert!(close(gf, expect, 1e-15));
    }

    #[test]
    fn general_freshness_empty_is_zero() {
        assert_eq!(general_freshness(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn perceived_freshness_length_mismatch_panics() {
        perceived_freshness(&[1.0], &[1.0, 2.0], &[1.0, 2.0]);
    }

    // ---- age metric ------------------------------------------------------

    #[test]
    fn age_decreasing_in_frequency() {
        let lam = 3.0;
        let mut prev = f64::INFINITY;
        for k in 1..100 {
            let a = steady_state_age(lam, k as f64 * 0.2);
            assert!(a < prev, "age must fall as refreshes speed up");
            assert!(a >= 0.0);
            prev = a;
        }
    }

    #[test]
    fn age_increasing_in_change_rate() {
        let f = 2.0;
        let mut prev = 0.0;
        for k in 1..100 {
            let a = steady_state_age(k as f64 * 0.3, f);
            assert!(a > prev, "age must rise with volatility");
            prev = a;
        }
    }

    #[test]
    fn age_matches_direct_numeric_integration() {
        // Ā = (1/I)∫₀ᴵ [u − (1/λ)(1 − e^{−λu})] du, integrated numerically.
        for (lam, f) in [(1.0, 2.0), (4.0, 1.0), (0.5, 0.5)] {
            let interval: f64 = 1.0 / f;
            let steps = 200_000;
            let mut acc = 0.0;
            for k in 0..steps {
                let u = (k as f64 + 0.5) * interval / steps as f64;
                acc += u - (1.0 - (-lam * u).exp()) / lam;
            }
            let numeric = acc / steps as f64;
            let analytic = steady_state_age(lam, f);
            assert!(
                (numeric - analytic).abs() < 1e-6 * (1.0 + analytic),
                "λ={lam} f={f}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn age_small_ratio_series_continuous() {
        let lam = 1.0;
        // Straddle the series cutoff r = 1e-3 (f = λ/r). Ā ≈ r²/(6λ) here,
        // so the two nearby r's genuinely differ by ~0.4%; any branch
        // discontinuity would dwarf 1%.
        let below = steady_state_age(lam, lam / 0.999e-3);
        let above = steady_state_age(lam, lam / 1.001e-3);
        assert!((below - above).abs() < above * 1e-2);
    }

    #[test]
    fn age_extremes() {
        assert_eq!(steady_state_age(0.0, 0.0), 0.0);
        assert_eq!(steady_state_age(2.0, 0.0), f64::INFINITY);
        assert!(steady_state_age(1.0, 1e9) < 1e-9);
    }

    #[test]
    fn perceived_age_weighted_and_infinite_on_starved() {
        let perceived_age = |w: &[f64], lam: &[f64], f: &[f64]| {
            SyncPolicy::FixedOrder.perceived_age(w, lam, f, &Executor::serial())
        };
        let a = perceived_age(&[0.5, 0.5], &[1.0, 1.0], &[1.0, 1.0]);
        assert!((a - steady_state_age(1.0, 1.0)).abs() < 1e-12);
        // Starve a weighted element: infinite perceived age.
        let inf = perceived_age(&[0.5, 0.5], &[1.0, 1.0], &[1.0, 0.0]);
        assert!(inf.is_infinite());
        // Zero-weight starved element is fine.
        let ok = perceived_age(&[1.0, 0.0], &[1.0, 1.0], &[1.0, 0.0]);
        assert!(ok.is_finite());
    }
}
