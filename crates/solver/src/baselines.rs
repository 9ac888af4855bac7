//! Interest-blind baseline refresh policies from related work.
//!
//! These exist so the experiment harness can show where profile-aware
//! scheduling wins:
//!
//! * [`solve_uniform`] — every object refreshed at the same rate (the
//!   naive mirror);
//! * [`solve_proportional`] — refresh rate proportional to change rate,
//!   the policy implied by TTL-style cache coherence (paper ref \[7\]): a
//!   document's time-to-live tracks its change interval, so faster-changing
//!   documents get proportionally more polls.
//!
//! [`solve_grid_search`] is different in kind: not a baseline *policy*
//! but a brute-force *verification oracle* — it enumerates every
//! bandwidth split on a dense grid and keeps the best, with no appeal to
//! KKT theory at all. The differential audit harness uses it to confirm
//! the analytic solvers on small instances.

use freshen_core::error::{CoreError, Result};
use freshen_core::problem::{Problem, Solution};

/// Uniform allocation: `fᵢ = B / Σsⱼ` (each object refreshed equally often;
/// with sizes, the budget is spread by size so it stays feasible).
pub fn solve_uniform(problem: &Problem) -> Solution {
    let total_size: f64 = problem.sizes().iter().sum();
    let f = problem.bandwidth() / total_size;
    Solution::evaluate(problem, vec![f; problem.len()])
}

/// Change-proportional ("TTL-ish") allocation:
/// `fᵢ ∝ λᵢ / sᵢ`, scaled to exactly exhaust the budget.
///
/// Interest-blind *and* — as Cho & Garcia-Molina showed and Table 1
/// reiterates — counterproductive for hopelessly volatile objects, which
/// soak up bandwidth without ever staying fresh.
pub fn solve_proportional(problem: &Problem) -> Solution {
    let weights: Vec<f64> = problem
        .change_rates()
        .iter()
        .zip(problem.sizes())
        .map(|(&l, &s)| l / s)
        .collect();
    let denom: f64 = weights
        .iter()
        .zip(problem.sizes())
        .map(|(&w, &s)| w * s)
        .sum();
    if denom <= 0.0 {
        // Nothing ever changes; refreshing is pointless.
        return Solution::evaluate(problem, vec![0.0; problem.len()]);
    }
    let scale = problem.bandwidth() / denom;
    let freqs: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
    Solution::evaluate(problem, freqs)
}

/// Dense grid-search oracle for tiny instances: splits the budget into
/// `steps` equal bandwidth units and exhaustively enumerates every way
/// to distribute them over the elements (`C(steps+n−1, n−1)` feasible
/// points — exponential in `n`, so callers should keep `n ≤ ~6`).
///
/// Exists purely as an independent check on the analytic solvers: it
/// shares no code path and no optimality theory with them, so agreement
/// within the grid's `O(B²/steps²)` resolution is real evidence. The
/// returned solution exhausts the budget exactly (the last element
/// absorbs the remainder of each enumeration).
///
/// Errors on `steps == 0` or `n > 8` (the enumeration would explode).
pub fn solve_grid_search(problem: &Problem, steps: usize) -> Result<Solution> {
    if steps == 0 {
        return Err(CoreError::InvalidConfig(
            "grid search needs at least one step".into(),
        ));
    }
    let n = problem.len();
    if n > 8 {
        return Err(CoreError::InvalidConfig(format!(
            "grid search is an exhaustive oracle for tiny instances (n ≤ 8), got n = {n}"
        )));
    }
    let unit = problem.bandwidth() / steps as f64;
    let mut freqs = vec![0.0f64; n];
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut evaluated = 0usize;

    // Depth-first enumeration: element i takes k of the remaining units,
    // the last element absorbs whatever is left (budget exhaustion by
    // construction).
    fn descend(
        problem: &Problem,
        unit: f64,
        i: usize,
        remaining: usize,
        freqs: &mut Vec<f64>,
        best: &mut Option<(f64, Vec<f64>)>,
        evaluated: &mut usize,
    ) {
        let n = problem.len();
        if i == n - 1 {
            freqs[i] = remaining as f64 * unit / problem.sizes()[i];
            let pf = problem.perceived_freshness(freqs);
            *evaluated += 1;
            if best.as_ref().is_none_or(|(b, _)| pf > *b) {
                *best = Some((pf, freqs.clone()));
            }
            return;
        }
        for k in 0..=remaining {
            freqs[i] = k as f64 * unit / problem.sizes()[i];
            descend(problem, unit, i + 1, remaining - k, freqs, best, evaluated);
        }
        freqs[i] = 0.0;
    }
    descend(
        problem,
        unit,
        0,
        steps,
        &mut freqs,
        &mut best,
        &mut evaluated,
    );

    let (pf, freqs) = best.expect("grid enumeration visits at least one point");
    debug_assert!(pf.is_finite());
    let mut solution = Solution::evaluate(problem, freqs);
    solution.iterations = evaluated;
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::LagrangeSolver;

    fn toy() -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .access_probs(vec![0.5, 0.2, 0.15, 0.1, 0.05])
            .bandwidth(5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_spreads_evenly() {
        let sol = solve_uniform(&toy());
        assert!(sol.frequencies.iter().all(|&f| (f - 1.0).abs() < 1e-12));
        assert!((sol.bandwidth_used - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_with_sizes_stays_feasible() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .sizes(vec![1.0, 3.0])
            .bandwidth(8.0)
            .build()
            .unwrap();
        let sol = solve_uniform(&p);
        assert!((sol.bandwidth_used - 8.0).abs() < 1e-9);
        assert!((sol.frequencies[0] - sol.frequencies[1]).abs() < 1e-12);
    }

    #[test]
    fn proportional_tracks_change_rates() {
        let sol = solve_proportional(&toy());
        // λ = (1..5), Σλ = 15, B = 5 ⇒ f = λ/3.
        for (i, &f) in sol.frequencies.iter().enumerate() {
            assert!((f - (i + 1) as f64 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn proportional_all_static_allocates_nothing() {
        let p = Problem::builder()
            .change_rates(vec![0.0, 0.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let sol = solve_proportional(&p);
        assert_eq!(sol.frequencies, vec![0.0, 0.0]);
    }

    #[test]
    fn optimal_dominates_all_baselines() {
        let p = toy();
        let opt = LagrangeSolver::default().solve(&p).unwrap();
        let uni = solve_uniform(&p);
        let prop = solve_proportional(&p);
        assert!(opt.perceived_freshness >= uni.perceived_freshness - 1e-9);
        assert!(opt.perceived_freshness >= prop.perceived_freshness - 1e-9);
    }

    #[test]
    fn grid_search_agrees_with_the_exact_solver() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 3.0, 5.0])
            .access_probs(vec![0.5, 0.3, 0.2])
            .bandwidth(4.0)
            .build()
            .unwrap();
        let exact = LagrangeSolver::default().solve(&p).unwrap();
        let grid = solve_grid_search(&p, 64).unwrap();
        // The exact optimum dominates any grid point, and the grid's best
        // point must come within its quadratic resolution of it.
        assert!(exact.perceived_freshness >= grid.perceived_freshness - 1e-12);
        assert!(
            exact.perceived_freshness - grid.perceived_freshness < 1e-2,
            "grid {} vs exact {}",
            grid.perceived_freshness,
            exact.perceived_freshness
        );
        assert!((grid.bandwidth_used - 4.0).abs() < 1e-9, "budget exhausted");
    }

    #[test]
    fn grid_search_exact_on_a_grid_aligned_optimum() {
        // Two identical elements: the optimum is the even split, which
        // lies exactly on any even-step grid.
        let p = Problem::builder()
            .change_rates(vec![2.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let grid = solve_grid_search(&p, 30).unwrap();
        assert!((grid.frequencies[0] - 1.5).abs() < 1e-12);
        assert!((grid.frequencies[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn grid_search_guards_its_domain() {
        let p = toy();
        assert!(solve_grid_search(&p, 0).is_err());
        let big = Problem::builder()
            .change_rates(vec![1.0; 9])
            .access_probs(vec![1.0 / 9.0; 9])
            .bandwidth(9.0)
            .build()
            .unwrap();
        assert!(solve_grid_search(&big, 10).is_err());
    }
}
