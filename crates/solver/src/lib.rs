//! # freshen-solver
//!
//! Solvers for the perceived-freshness bandwidth-allocation problem
//! (the paper's Core Problem §2.1 and Extended Problem §5.1):
//!
//! maximize `Σ pᵢ·F̄(fᵢ, λᵢ)` subject to `Σ sᵢ·fᵢ = B`, `fᵢ ≥ 0`.
//!
//! * [`lagrange`] — the **exact** solution by the method of Lagrange
//!   multipliers (the paper's Appendix), implemented as a water-filling
//!   scheme: a safeguarded Newton search on the multiplier `μ` over
//!   passes that evaluate each element's `pᵢ·∂F̄/∂f = μ·sᵢ` root in
//!   closed form (a fixed number of Halley steps). Runs in `O(N)` per
//!   pass and reproduces the paper's Table 1 to two decimals.
//! * [`repair`] — **incremental KKT repair**: when drift touched only a
//!   small subset of elements, re-solve warm-started from the previous
//!   optimum's water level on the same kernel and root-finder, once the
//!   previous solution is checked to seed it. Always paired with the
//!   strict [`SolutionAudit`](freshen_core::SolutionAudit) certificate
//!   ("repair then certify").
//! * [`projected_gradient`] — a *generic* non-linear-programming solver
//!   (projected gradient ascent on the weighted simplex). This stands in
//!   for the proprietary IMSL library the authors used and exists to
//!   reproduce the §3 scalability narrative: a generic NLP iterates many
//!   times over all `N` variables and falls behind the specialized solver
//!   and the heuristics as `N` grows.
//! * [`tiered`] — the **multi-tier relay** solver: block-coordinate
//!   ascent over a `freshen_core::topology` DAG with per-tier budgets,
//!   adjoint marginal-value weights, per-tier inner water-filling on the
//!   flat solver, an outer budget split priced by one flat solve over
//!   every tier's entries, and strict per-tier KKT certification.
//! * [`baselines`] — interest-blind comparators from related work:
//!   uniform allocation, change-proportional ("TTL-ish") allocation, and a
//!   sampling-based greedy policy in the spirit of Cho & Ntoulas
//!   (the paper's ref \[6\]).
//!
//! The paper's **GF technique** (Cho & Garcia-Molina's average-freshness
//! scheduler, its ref \[5\]) is the exact solver applied to a uniform
//! profile; see [`solve_general_freshness`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baselines;
pub mod lagrange;
pub mod projected_gradient;
pub mod repair;
pub mod tiered;

pub use lagrange::LagrangeSolver;
pub use projected_gradient::ProjectedGradientSolver;
pub use repair::RepairOutcome;
pub use tiered::{TieredSolution, TieredSolver};

use freshen_core::error::Result;
use freshen_core::problem::{Problem, Solution};

/// Solve for the perceived-freshness-optimal schedule (the paper's **PF
/// technique**) with default solver settings.
pub fn solve_perceived_freshness(problem: &Problem) -> Result<Solution> {
    LagrangeSolver::default().solve(problem)
}

/// Solve with the interest-blind objective (the paper's **GF technique**,
/// i.e. Cho & Garcia-Molina's average-freshness scheduler), then evaluate
/// the resulting schedule against the *true* profile of `problem`.
///
/// The returned [`Solution`]'s `perceived_freshness` is therefore "what
/// users actually experience under a profile-blind schedule" — the quantity
/// plotted as `GF_TECHNIQUE` in the paper's Figure 3.
pub fn solve_general_freshness(problem: &Problem) -> Result<Solution> {
    let uniform = problem.with_uniform_interest();
    let sol = LagrangeSolver::default().solve(&uniform)?;
    let mut evaluated = Solution::evaluate(problem, sol.frequencies);
    evaluated.multiplier = sol.multiplier;
    evaluated.iterations = sol.iterations;
    Ok(evaluated)
}
