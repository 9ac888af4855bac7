//! Exact solution of the freshening problem by Lagrange multipliers.
//!
//! The paper's Appendix shows the optimum satisfies, for some multiplier
//! `μ ≥ 0`,
//!
//! ```text
//! pᵢ · ∂F̄(fᵢ, λᵢ)/∂fᵢ = μ·sᵢ     whenever fᵢ > 0,
//! pᵢ / λᵢ             ≤ μ·sᵢ     whenever fᵢ = 0,
//! Σ sᵢ·fᵢ = B.
//! ```
//!
//! (`sᵢ = 1` in the core problem; the extended problem's constraint
//! `Σ sᵢfᵢ = B` contributes the `sᵢ` factor on the right.) Under Fixed
//! Order, `∂F̄/∂f = φ(λ/f)/λ` with `φ(x) = 1 − (1 + x)e^{−x}`
//! ([`phi`](freshen_core::freshness::phi)), so with `x = λ/f` and
//! `y = λ·μs/p` stationarity is `φ(x) = y`: every funded element sits on
//! one locus `x = ψ(y)`, `ψ = φ⁻¹ = −1 − W₋₁(−(1 − y)/e)` (paper Eq. 6,
//! Figure 1). `Σ sᵢ·fᵢ(μ)` falls monotonically in `μ`. The solver
//! therefore:
//!
//! 1. evaluates `ψ` at a fixed cost per element — a two-branch start
//!    (series in `√(2y)`, `W₋₁` asymptotic in `−ln(1 − y)`) and a fixed
//!    number of Halley steps, one `exp` each, with no loop exit that
//!    depends on the data (Poisson is closed form);
//! 2. reads each element's elasticity `−d ln f/d ln μ` off the same
//!    evaluation, so every allocation pass also yields the slope of the
//!    spend in `ln μ`;
//! 3. finds the water level with one safeguarded Newton root-finder on
//!    `ln μ` (Illinois false position once the budget is bracketed and
//!    Newton leaves the bracket or stalls), starting from a closed-form
//!    estimate or a warm-start hint.
//!
//! A solve costs `O(N·k)` for the `k ≈ 5–15` passes the root-finder
//! takes. This replaces the authors' generic IMSL non-linear-programming
//! package with a specialized scheme that produces the *same* optimum (it
//! solves the same KKT system) — validated against the paper's published
//! Table 1 numbers.
//!
//! # Parallel evaluation
//!
//! Each pass evaluates `N` independent closed-form roots, so it
//! parallelizes embarrassingly: the active set is split into fixed
//! chunks and each chunk's water-filling runs on the solver's
//! [`Executor`], with per-chunk bandwidth partials merged in chunk order
//! (compensated) so results match the serial path exactly. The water
//! level is the only coupling between elements, so this one
//! decomposition is all the parallelism the solve needs.

use std::ops::Range;

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::{chunk_ranges, Executor, DEFAULT_CHUNK};
use freshen_core::freshness::{phi_series, PHI_SERIES_BELOW};
use freshen_core::numeric::NeumaierSum;
use freshen_core::policy::SyncPolicy;
use freshen_core::problem::{Problem, Solution};
use freshen_core::soa::PackedColumns;
use freshen_obs::Recorder;

/// Change rates below this are treated as "static": the element is always
/// fresh and never worth bandwidth.
pub(crate) const STATIC_RATE: f64 = 1e-12;

/// Halley steps the Fixed-Order kernel takes from its two-branch start
/// (within 6% of the root everywhere). Halley converges cubically, so two
/// steps reach ~3e-14 relative error and every element costs the same.
const HALLEY_STEPS: usize = 2;

/// Cap on one element's elasticity `−d ln f/d ln μ` in a pass's spend
/// slope. Elements hovering near the starvation threshold have a
/// double-exponentially flat marginal, so their pointwise elasticity can
/// reach 10¹⁰× their actual bounded response (`f` can only fall to 0) —
/// one such element poisons the aggregate slope and freezes Newton into
/// micro-steps. Ordinary elements have elasticity O(1) (½ on the
/// `f ≫ λ` side of the locus) and are untouched.
pub(crate) const MAX_ELASTICITY: f64 = 1e3;

/// Write into `f` the convex combination of the allocations measured at
/// the two ends of an exhausted multiplier bracket, `(allocation, spend)`
/// each, whose spends straddle `budget`. Spend is linear in the
/// allocation, so the weight `α = (B − used_hi)/(used_lo − used_hi)` makes
/// the blend budget-exact; every element that differs between the ends
/// has its marginal inside the bracket, so the blend is optimal to float
/// precision.
pub(crate) fn blend_bracket_ends(
    f: &mut [f64],
    (lo, used_lo): (&[f64], f64),
    (hi, used_hi): (&[f64], f64),
    budget: f64,
) {
    let alpha = (budget - used_hi) / (used_lo - used_hi);
    for (f, (&lo, &hi)) in f.iter_mut().zip(lo.iter().zip(hi)) {
        *f = alpha * lo + (1.0 - alpha) * hi;
    }
}

/// Exact KKT/water-filling solver.
#[derive(Debug, Clone)]
pub struct LagrangeSolver {
    /// Relative tolerance on the bandwidth constraint.
    pub budget_tol: f64,
    /// Maximum allocation passes of the water-level search.
    pub max_outer: usize,
    /// Maximum Newton iterations per element in [`repair`](Self::repair)'s
    /// warm per-element solves. The full solve's kernel takes a fixed
    /// number of Halley steps and ignores it.
    pub max_inner: usize,
    /// Synchronization policy whose freshness law is optimized (the paper
    /// uses Fixed Order; Poisson is provided for the policy ablation).
    pub policy: SyncPolicy,
    /// Observability sink (disabled by default; see `freshen-obs`).
    pub recorder: Recorder,
    /// Execution strategy for the per-probe water-filling pass (serial by
    /// default; see [`Executor`]). Results are identical at any worker
    /// count.
    pub executor: Executor,
    /// Per-poll cost weight `γ ≥ 0`: the solver maximizes
    /// `PF − γ·Σ cᵢfᵢ` instead of bare PF. At the default 0 every code
    /// path is bitwise identical to the cost-blind solve (the levy terms
    /// reduce to exact `+0.0`s). With `γ > 0` the stationarity target
    /// becomes `pᵢ·g(fᵢ) = μ·sᵢ + γ·cᵢ` and the budget may legitimately
    /// go unspent (`μ = 0`, an *interior* optimum) once the marginal
    /// freshness of a poll no longer covers its price.
    pub cost_weight: f64,
}

impl Default for LagrangeSolver {
    fn default() -> Self {
        LagrangeSolver {
            budget_tol: 1e-10,
            max_outer: 200,
            max_inner: 100,
            policy: SyncPolicy::FixedOrder,
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
            cost_weight: 0.0,
        }
    }
}

impl LagrangeSolver {
    /// Solve the problem to optimality.
    ///
    /// Returns the optimal frequencies, the achieved metrics, and the
    /// multiplier `μ*`. Elements with zero interest or (near-)zero change
    /// rate receive zero bandwidth, as the KKT conditions require.
    pub fn solve(&self, problem: &Problem) -> Result<Solution> {
        self.solve_impl(problem, None)
    }

    /// Solve with a warm-start hint for the multiplier — typically the
    /// `multiplier` of the previous period's [`Solution`].
    ///
    /// The paper's §3 motivation is *periodic* re-solving as profiles and
    /// change rates drift; successive optima have nearby multipliers, so
    /// starting the Newton search at the old `μ*` instead of the cold
    /// estimate skips most of its approach (a hint at the exact `μ*`
    /// converges in one pass). Invalid hints (non-positive, non-finite,
    /// or beyond the starvation bound) are ignored and the cold path
    /// runs; the returned solution is always the same optimum either way.
    pub fn solve_warm(&self, problem: &Problem, multiplier_hint: f64) -> Result<Solution> {
        self.solve_impl(problem, Some(multiplier_hint))
    }

    /// Attach an observability recorder (builder form; the `recorder`
    /// field can also be set directly).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach an execution strategy (builder form; the `executor` field
    /// can also be set directly). The optimum is identical at any worker
    /// count — only wall-clock time changes.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Set the per-poll cost weight `γ` (builder form; the `cost_weight`
    /// field can also be set directly). See the field docs for the
    /// objective change.
    pub fn with_cost_weight(mut self, cost_weight: f64) -> Self {
        self.cost_weight = cost_weight;
        self
    }

    /// Solve `max PF` subject to `Σ sᵢfᵢ ≤ B` **and** `Σ cᵢfᵢ ≤ C`: the
    /// cost-budget-constrained variant. Returns the optimum together with
    /// the cost constraint's shadow price in `cost_multiplier`.
    ///
    /// The cost constraint is dualized: for a levy `γ ≥ 0`, a
    /// [`cost_weight`](Self::cost_weight) solve maximizes `PF − γ·cost`,
    /// and the spend of that solution is monotone non-increasing in `γ`
    /// (a larger levy prices more polls out). The method therefore probes
    /// `γ = 0` first — if the cost-blind optimum already fits in `C`, the
    /// constraint is slack and the plain solve is returned — and
    /// otherwise geometrically bisects `γ` on
    /// `(0, max pᵢ/(λᵢcᵢ)]` (above which nothing is polled and the spend
    /// is 0) until the spend matches `C`. Each probe is a full inner
    /// solve, warm-started from the previous probe's water level. If the
    /// spend jumps across `C` at a starvation threshold and the bracket
    /// exhausts, the feasible (`spend ≤ C`) side is returned, so the cost
    /// budget is never overdrawn.
    pub fn solve_cost_budget(&self, problem: &Problem, cost_budget: f64) -> Result<Solution> {
        if !cost_budget.is_finite() || cost_budget <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "cost budget",
                index: None,
                value: cost_budget,
            });
        }
        let rec = &self.recorder;
        rec.counter("solver.cost_budget_solves").inc();

        // γ = 0 probe: plain (cost-blind) solve.
        let base = LagrangeSolver {
            cost_weight: 0.0,
            ..self.clone()
        };
        let plain = base.solve(problem)?;
        if problem.cost_used(&plain.frequencies) <= cost_budget {
            return Ok(plain); // cost constraint slack; shadow price 0
        }

        // γ upper bound: above the largest p/(λc) the levy exceeds every
        // element's zero-frequency marginal value and nothing is polled.
        // Zero-cost elements are exempt from the levy and impose no bound.
        let p = problem.access_probs();
        let lam = problem.change_rates();
        let gamma_limit = (0..problem.len())
            .filter(|&i| p[i] > 0.0 && lam[i] > STATIC_RATE && problem.poll_cost(i) > 0.0)
            .map(|i| p[i] / (lam[i] * problem.poll_cost(i)))
            .fold(0.0f64, f64::max);
        if gamma_limit <= 0.0 {
            // Every active element polls for free, yet the spend exceeds
            // the cost budget: no levy can reduce it.
            return Err(CoreError::NoConvergence {
                routine: "cost-budget dual bisection",
                iterations: 1,
                residual: (problem.cost_used(&plain.frequencies) - cost_budget) / cost_budget,
            });
        }

        let solve_at = |gamma: f64, hint: Option<f64>| -> Result<(Solution, f64)> {
            let solver = LagrangeSolver {
                cost_weight: gamma,
                ..self.clone()
            };
            let sol = match hint {
                Some(h) => solver.solve_warm(problem, h)?,
                None => solver.solve(problem)?,
            };
            let spend = problem.cost_used(&sol.frequencies);
            Ok((sol, spend))
        };

        // Bracket: spend(γ_lo) > C ≥ spend(γ_hi). γ_lo = 0 is the plain
        // solve above; γ_hi = γ_limit spends exactly 0.
        let mut gamma_lo = 0.0f64;
        let mut gamma_hi = gamma_limit;
        let mut best: Option<(Solution, f64)> = None; // feasible side
        let mut hint = plain.multiplier;
        for iter in 0..self.max_outer {
            let gamma = if gamma_lo > 0.0 {
                (gamma_lo * gamma_hi).sqrt()
            } else {
                // No positive under-budget levy known yet: walk down
                // geometrically from the kill-everything bound.
                gamma_hi * 0.25
            };
            let (sol, spend) = solve_at(gamma, hint)?;
            hint = sol.multiplier.filter(|&m| m > 0.0).or(hint);
            rec.event(
                "solver.cost_budget",
                &[
                    ("iter", &iter),
                    ("gamma", &gamma),
                    ("residual", &((spend - cost_budget) / cost_budget)),
                ],
            );
            if spend <= cost_budget {
                gamma_hi = gamma;
                let better = match &best {
                    Some((_, prev)) => spend > *prev,
                    None => true,
                };
                if better {
                    best = Some((sol, spend));
                }
                if spend >= cost_budget * (1.0 - self.budget_tol.max(1e-12) * 1e3) {
                    break; // spend within tolerance of C from below
                }
            } else {
                gamma_lo = gamma;
            }
            if gamma_lo > 0.0 && gamma_hi - gamma_lo <= gamma_hi * 1e-12 {
                break; // bracket exhausted (spend jump at a threshold)
            }
        }
        match best {
            Some((sol, _)) => Ok(sol),
            None => Err(CoreError::NoConvergence {
                routine: "cost-budget dual bisection",
                iterations: self.max_outer,
                residual: f64::INFINITY,
            }),
        }
    }

    /// Gather the active set — positive interest and a genuinely changing
    /// source copy — into contiguous structure-of-arrays columns. Every
    /// pass of the water-level search then sweeps linear memory; the
    /// gather happens exactly once per solve instead of once per pass.
    pub(crate) fn pack_active(&self, problem: &Problem) -> PackedColumns {
        let p = problem.access_probs();
        let lam = problem.change_rates();
        let active: Vec<usize> = (0..problem.len())
            .filter(|&i| p[i] > 0.0 && lam[i] > STATIC_RATE)
            .collect();
        PackedColumns::gather(problem, &active)
    }

    /// The water-level solve behind [`solve`](Self::solve) and
    /// [`solve_warm`](Self::solve_warm). Passes run over the packed active
    /// columns in fixed chunks (a function of the active count only, so
    /// the pass is bit-identical across worker counts); the final
    /// schedule is scattered back through the pack permutation once,
    /// after convergence.
    fn solve_impl(&self, problem: &Problem, hint: Option<f64>) -> Result<Solution> {
        let mut cols = self.pack_active(problem);
        let chunks = chunk_ranges(cols.len(), DEFAULT_CHUNK);
        let n = problem.len();
        let m = cols.len();
        let budget = problem.bandwidth();
        let gamma = self.cost_weight;
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "solver cost weight",
                index: None,
                value: gamma,
            });
        }

        let rec = &self.recorder;
        let mut solve_span = rec.span("solver.lagrange.solve");
        solve_span.arg("n", n);
        solve_span.arg("chunks", chunks.len());
        rec.counter("solver.solves").inc();
        let c_outer = rec.counter("solver.outer_iters");
        let c_inner = rec.counter("solver.inner_iters");

        if cols.is_empty() {
            // Nothing worth refreshing; all-zero allocation is optimal.
            let mut sol = Solution::evaluate_with_policy(problem, vec![0.0; n], self.policy);
            sol.multiplier = Some(0.0);
            if gamma > 0.0 {
                sol.cost_multiplier = Some(gamma);
            }
            return Ok(sol);
        }

        // μ upper bound: above the largest zero-frequency marginal value
        // p/(λs), every element's optimal frequency is 0. With a poll levy
        // the γ·c tax comes off the numerator first (clamped at 0: an
        // element whose levy already exceeds its marginal value never
        // receives bandwidth at any μ ≥ 0). The γ = 0 branch keeps the
        // historical `p/(λs)` expression bitwise unchanged.
        let mu_hi_limit = cols
            .p()
            .iter()
            .zip(cols.lambda())
            .zip(cols.s())
            .zip(cols.c())
            .map(|(((&p, &lam), &s), &c)| {
                if gamma > 0.0 {
                    (p / lam - gamma * c).max(0.0) / s
                } else {
                    p / (lam * s)
                }
            })
            .fold(0.0f64, f64::max);
        if mu_hi_limit <= 0.0 {
            // γ > 0 and the levy prices every element out of the market:
            // the unconstrained optimum of PF − γ·cost is the empty
            // schedule, well under budget.
            let mut sol = Solution::evaluate_with_policy(problem, vec![0.0; n], self.policy);
            sol.multiplier = Some(0.0);
            sol.cost_multiplier = Some(gamma);
            return Ok(sol);
        }

        let mut fill = PackedFill {
            solver: self,
            chunks: &chunks,
            cols: &mut cols,
            // The μ = μ_hi_limit allocation: all zero, spending nothing.
            hi: vec![0.0; m],
            lo: vec![0.0; m],
        };

        // With a levy active the budget constraint may not bind: the μ = 0
        // allocation (each element polled until its marginal freshness
        // equals its price) can already fit inside `B`. Probe it first —
        // if it fits, it is the interior optimum and no water level is
        // needed. Zero-cost elements make the μ = 0 allocation unbounded,
        // so the probe only runs when every active element is taxed.
        let mut probed = 0usize;
        if gamma > 0.0 && fill.cols.c().iter().all(|&c| c > 0.0) {
            let interior = fill.fill(0.0);
            probed = 1;
            c_outer.add(1);
            c_inner.add(interior.steps as u64);
            rec.event(
                "solver.outer",
                &[
                    ("phase", &"interior"),
                    ("iter", &1usize),
                    ("mu", &0.0),
                    ("residual", &((interior.used - budget) / budget)),
                ],
            );
            if interior.used <= budget {
                let mut freqs = vec![0.0; n];
                fill.cols.scatter_f(&mut freqs);
                let mut sol = Solution::evaluate_with_policy(problem, freqs, self.policy);
                sol.multiplier = Some(0.0);
                sol.cost_multiplier = Some(gamma);
                sol.iterations = 1;
                return Ok(sol);
            }
        }

        // Start from the warm-start hint when it is usable (a hit is a
        // hint the search actually starts from; out-of-range or
        // non-finite hints fall back to the cold start).
        let start = match hint {
            Some(h) if h.is_finite() && h > 0.0 && h < mu_hi_limit => {
                rec.counter("solver.warm_start.hit").inc();
                h
            }
            other => {
                if other.is_some() {
                    rec.counter("solver.warm_start.miss").inc();
                }
                let (p, lam, s) = (fill.cols.p(), fill.cols.lambda(), fill.cols.s());
                sqrt_law_level(
                    p.iter().zip(lam).zip(s).map(|((&p, &l), &s)| (p, l, s)),
                    budget,
                    mu_hi_limit,
                )
            }
        };
        let level = self.water_level(&mut fill, budget, self.budget_tol, mu_hi_limit, start)?;
        let PackedFill { cols, lo, hi, .. } = fill;
        match level.straddle {
            // The optimum sits on (or the budget is huge relative to) a
            // starvation threshold: `f(μ)` for the boundary element jumps
            // numerically because its marginal is float-flat near `p/(λs)`
            // — `∂F̄/∂f → 1/λ` double-exponentially as f → 0 — so no float
            // μ lands inside the gap. The two bracket ends straddle the
            // budget.
            Some(ends) => blend_bracket_ends(cols.f_mut(), (&lo, ends.0), (&hi, ends.1), budget),
            // Converged: snap the (already tiny) residual multiplicatively.
            None => snap_to_budget(cols.f_mut(), level.used, budget),
        }

        let passes = probed + level.passes;
        c_outer.add(level.passes as u64);
        c_inner.add(level.steps as u64);
        let mut freqs = vec![0.0; n];
        cols.scatter_f(&mut freqs);
        let mut sol = Solution::evaluate_with_policy(problem, freqs, self.policy);
        sol.multiplier = Some(level.mu);
        if gamma > 0.0 {
            sol.cost_multiplier = Some(gamma);
        }
        sol.iterations = passes;
        Ok(sol)
    }

    /// The one safeguarded root-finder on the water level μ, shared by
    /// every water-filling solve (flat, warm, each γ probe of
    /// [`solve_cost_budget`](Self::solve_cost_budget), and the tiered
    /// shared-price split): find μ where the pass spends `budget`.
    ///
    /// Spend falls monotonically in μ and, where most of it sits on the
    /// `f ∝ μ^{−1/2}` side of the solution locus, is nearly a power law,
    /// so Newton works in logarithms: each step solves
    /// `ln used(μ) = ln B` along the slope `−d ln used/d ln μ`. The pass
    /// measures that slope itself (`Σ sᵢfᵢEᵢ / used`, elasticities capped
    /// at [`MAX_ELASTICITY`]); because the cap understates elements at
    /// their starvation threshold, the step uses the secant through the
    /// previous pass when that is steeper.
    ///
    /// A pass over budget fixes the bracket's low end, one under it the
    /// high end; the high end starts at `mu_limit`, where nothing is
    /// funded, and until a pass overspends, a Newton step that is not
    /// downhill inside the bracket marches μ down 1000-fold. Once both
    /// ends are known, a Newton step that leaves the bracket, or a
    /// residual that failed to halve over two passes, is replaced by an
    /// Illinois false-position step in `(ln μ, used − B)`.
    ///
    /// Stops when `|used − B| ≤ tol·B`, or when the bracket has closed
    /// to `tol·μ` without that (the optimum straddles a starvation
    /// threshold): then `straddle` carries both ends' spends for
    /// [`blend_bracket_ends`].
    pub(crate) fn water_level(
        &self,
        fill: &mut impl WaterFill,
        budget: f64,
        tol: f64,
        mu_limit: f64,
        start: f64,
    ) -> Result<Level> {
        let rec = &self.recorder;
        let (mut mu_lo, mut used_lo) = (0.0f64, f64::INFINITY);
        let (mut mu_hi, mut used_hi) = (mu_limit, 0.0f64);
        // Illinois weights on the ends' residuals, and which end moved last.
        let (mut w_lo, mut w_hi) = (1.0f64, 1.0f64);
        let mut last_end = None;
        // |used − B| one and two passes back.
        let mut history = [f64::INFINITY; 2];
        let (mut mu, mut phase) = (start, "start");
        let mut steps = 0usize;
        let mut passes = 0usize;
        // (ln μ, ln used) of the previous pass, for the secant slope.
        let mut previous: Option<(f64, f64)> = None;
        while passes < self.max_outer {
            passes += 1;
            let pass = fill.fill(mu);
            steps += pass.steps;
            let residual = pass.used - budget;
            rec.event(
                "solver.outer",
                &[
                    ("phase", &phase),
                    ("iter", &passes),
                    ("mu", &mu),
                    ("residual", &(residual / budget)),
                ],
            );
            if residual.abs() <= budget * tol {
                return Ok(Level {
                    mu,
                    used: pass.used,
                    passes,
                    steps,
                    straddle: None,
                });
            }
            let end = if residual > 0.0 { End::Lo } else { End::Hi };
            match end {
                End::Lo => (mu_lo, used_lo) = (mu, pass.used),
                End::Hi => (mu_hi, used_hi) = (mu, pass.used),
            }
            fill.keep(end);
            if last_end == Some(end) {
                // The same end moved twice: halve the stale end's weight.
                match end {
                    End::Lo => w_hi *= 0.5,
                    End::Hi => w_lo *= 0.5,
                }
            } else {
                (w_lo, w_hi) = (1.0, 1.0);
            }
            last_end = Some(end);
            if mu_lo > 0.0 && mu_hi - mu_lo <= mu_hi * tol {
                return Ok(Level {
                    mu: mu_lo,
                    used: budget,
                    passes,
                    steps,
                    straddle: Some((used_lo, used_hi)),
                });
            }

            // Newton in logs: ln used(μ) = ln B along the steeper of the
            // pass's capped analytic slope and the secant through the
            // previous pass. The cap makes the analytic slope a lower
            // bound on the near-threshold response; the secant measures
            // it, so steps stop overshooting as they shrink.
            let (ln_mu, ln_used) = (mu.ln(), pass.used.ln());
            let mut slope = pass.slope / pass.used;
            if let Some((prev_mu, prev_used)) = previous {
                let secant = (prev_used - ln_used) / (ln_mu - prev_mu);
                if secant > slope {
                    slope = secant;
                }
            }
            previous = Some((ln_mu, ln_used));
            let newton = if slope > 0.0 && pass.used > 0.0 {
                (ln_mu + (pass.used / budget).ln() / slope).exp()
            } else {
                f64::NAN
            };
            let stalled = residual.abs() > 0.5 * history[1];
            history = [residual.abs(), history[0]];
            let inside = newton > mu_lo && newton < mu_hi;
            (mu, phase) = if mu_lo == 0.0 {
                // No pass has overspent yet: Newton, or march down.
                if inside {
                    (newton, "newton")
                } else {
                    (mu * 1e-3, "march")
                }
            } else if inside && !stalled {
                (newton, "newton")
            } else {
                let (u_lo, u_hi) = (mu_lo.ln(), mu_hi.ln());
                let (r_lo, r_hi) = (w_lo * (used_lo - budget), w_hi * (used_hi - budget));
                let falsi = (u_hi - r_hi * (u_hi - u_lo) / (r_hi - r_lo)).exp();
                if falsi > mu_lo && falsi < mu_hi {
                    (falsi, "illinois")
                } else {
                    ((mu_lo * mu_hi).sqrt(), "bisect")
                }
            };
        }
        Err(CoreError::NoConvergence {
            routine: "lagrange water-level search",
            iterations: passes,
            residual: history[0] / budget,
        })
    }

    /// For a fixed multiplier, fill the packed frequency column with each
    /// active element's optimal frequency; returns the bandwidth
    /// consumed, the spend-weighted elasticity sum and the kernel steps.
    ///
    /// Each chunk of the packed columns is water-filled as one executor
    /// task over contiguous `p`/`λ`/`s` slices, writing its frequencies in
    /// place. The per-chunk partials are merged in chunk order (the spend
    /// compensated), so the pass is bit-identical at any worker count.
    fn allocate(&self, chunks: &[Range<usize>], cols: &mut PackedColumns, mu: f64) -> Pass {
        let (ro, f) = cols.parts_mut();
        let parts = self.executor.map_ranges_mut(chunks, f, |range, out| {
            let mut used = NeumaierSum::new();
            let mut slope = 0.0f64;
            let mut funded = 0usize;
            for (k, f) in range.zip(out) {
                let (fk, elasticity) = self.water_fill(ro.p[k], ro.lambda[k], ro.s[k], ro.c[k], mu);
                *f = fk;
                let spend = ro.s[k] * fk;
                used.add(spend);
                slope += spend * elasticity;
                funded += usize::from(fk > 0.0);
            }
            (used, slope, funded)
        });
        let mut used = NeumaierSum::new();
        let mut slope = 0.0f64;
        let mut funded = 0usize;
        for (part_used, part_slope, part_funded) in parts {
            used.merge(part_used);
            slope += part_slope;
            funded += part_funded;
        }
        Pass {
            used: used.total(),
            slope,
            steps: funded * self.kernel_steps(),
        }
    }

    /// Kernel steps one funded element costs: the fixed Halley count under
    /// Fixed Order, none for the closed-form Poisson law.
    fn kernel_steps(&self) -> usize {
        match self.policy {
            SyncPolicy::FixedOrder => HALLEY_STEPS,
            SyncPolicy::Poisson => 0,
        }
    }

    /// Solve `p·g(f; λ) = μ·s + γ·c` for `f ≥ 0` (unique root; 0 when the
    /// zero-frequency marginal value does not exceed the levy-adjusted
    /// threshold). With the solver's default `cost_weight = 0` the levy
    /// vanishes and this is exactly `p·g(f; λ) = μ·s`.
    ///
    /// Public because it *is* the paper's Figure 1: for a fixed water level
    /// `μ`, this maps a (p, λ) pair to the sync frequency the optimum would
    /// grant it — the solution locus `∂F̄/∂f = μ/p` (paper Eq. 6). The
    /// unit-cost `c = 1.0` is assumed here; cost-aware callers go through
    /// [`element_frequency_costed`](Self::element_frequency_costed).
    pub fn element_frequency(&self, p: f64, lam: f64, s: f64, mu: f64) -> f64 {
        self.water_fill(p, lam, s, 1.0, mu).0
    }

    /// [`element_frequency`](Self::element_frequency) with an explicit
    /// per-poll cost `c` for the `γ·c` levy term.
    pub fn element_frequency_costed(&self, p: f64, lam: f64, s: f64, c: f64, mu: f64) -> f64 {
        self.water_fill(p, lam, s, c, mu).0
    }

    /// [`water_fill`](Self::water_fill)'s frequency plus the kernel steps
    /// it took, for repair's per-element reseeds.
    pub(crate) fn element_frequency_counted(
        &self,
        p: f64,
        lam: f64,
        s: f64,
        c: f64,
        mu: f64,
    ) -> (f64, usize) {
        let (f, _) = self.water_fill(p, lam, s, c, mu);
        (f, if f > 0.0 { self.kernel_steps() } else { 0 })
    }

    /// The closed-form water-filling kernel: element `(p, λ, s, c)`'s
    /// optimal frequency at water level `μ`, and its elasticity
    /// `E = −d ln f/d ln μ` capped at [`MAX_ELASTICITY`] (both 0 when the
    /// element is starved).
    ///
    /// Under Fixed Order, `∂F̄/∂f = φ(λ/f)/λ`, so with
    /// `y = λ(μs + γc)/p` stationarity reads `φ(x) = y` for `x = λ/f`:
    /// every element sits on the one locus `x = ψ(y)`, `ψ = φ⁻¹`, found
    /// by [`fixed_order_root`] at a fixed cost. `y ≥ 1` means the
    /// zero-frequency marginal `p/λ` is already under the threshold.
    /// Poisson is closed form: `f = √(pλ/(μs + γc)) − λ`.
    ///
    /// The cost is the same for every funded element: no loop exits on
    /// the data, so consecutive elements overlap in the pipeline.
    /// `μs + γc` must be positive.
    #[inline]
    pub(crate) fn water_fill(&self, p: f64, lam: f64, s: f64, c: f64, mu: f64) -> (f64, f64) {
        let tau = mu * s + self.cost_weight * c;
        let lam_tau = lam * tau;
        if lam_tau >= p {
            return (0.0, 0.0); // not worth any bandwidth at this water level
        }
        let (f, elasticity) = match self.policy {
            SyncPolicy::FixedOrder => {
                let inv_p = 1.0 / p;
                // 1 − y from the inputs: no cancellation as y → 1.
                let (y, q) = (lam_tau * inv_p, (p - lam_tau) * inv_p);
                let (x, x_dphi) = fixed_order_root(y.max(f64::MIN_POSITIVE), q);
                // d ln x/d ln y = y/(x·φ′(x)); only the μ share of y moves.
                (lam / x, lam * mu * s * inv_p / x_dphi)
            }
            SyncPolicy::Poisson => {
                let root = (p * lam / tau).sqrt();
                let f = root - lam;
                (f, 0.5 * root / f * (mu * s / tau))
            }
        };
        (f, elasticity.min(MAX_ELASTICITY))
    }
}

/// Scale `f`, which spends `used`, to spend `budget`: the multiplicative
/// snap of a converged solve's tiny residual. Evaluated as
/// `f + f·(B − used)/used`, where `B − used` is exact, so each element
/// takes one rounding instead of the two of `f·(B/used)`.
pub(crate) fn snap_to_budget(f: &mut [f64], used: f64, budget: f64) {
    if used > 0.0 {
        let correction = (budget - used) / used;
        for f in f {
            *f += *f * correction;
        }
    }
}

/// Which end of the water-level bracket a pass landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// Over budget: μ is below the water level.
    Lo,
    /// Under budget: μ is above it.
    Hi,
}

/// What one allocation pass at a trial water level measured.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pass {
    /// Bandwidth `Σ sᵢfᵢ` allocated.
    pub used: f64,
    /// `Σ sᵢfᵢEᵢ = −d used/d ln μ`, each elasticity capped.
    pub slope: f64,
    /// Kernel steps taken.
    pub steps: usize,
}

/// A water-filling problem as [`LagrangeSolver::water_level`] sees it.
pub(crate) trait WaterFill {
    /// Allocate at water level `mu`.
    fn fill(&mut self, mu: f64) -> Pass;
    /// Keep the last pass's allocation as the bracket's `end`.
    fn keep(&mut self, end: End);
}

/// Where the water-level search stopped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    /// The converged μ, or the bracket's low end after a straddle.
    pub mu: f64,
    /// Spend at `mu` (the budget itself after a straddle).
    pub used: f64,
    /// Allocation passes spent.
    pub passes: usize,
    /// Kernel steps spent.
    pub steps: usize,
    /// `(used_lo, used_hi)` of the kept ends when the bracket closed on a
    /// straddle; their allocations blend to the budget.
    pub straddle: Option<(f64, f64)>,
}

/// The flat solve's [`WaterFill`]: passes write the packed frequency
/// column, and keeping an end swaps that column with the end's buffer,
/// so no pass copies an allocation.
struct PackedFill<'a> {
    solver: &'a LagrangeSolver,
    chunks: &'a [Range<usize>],
    cols: &'a mut PackedColumns,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl WaterFill for PackedFill<'_> {
    fn fill(&mut self, mu: f64) -> Pass {
        self.solver.allocate(self.chunks, self.cols, mu)
    }

    fn keep(&mut self, end: End) {
        self.cols.swap_f(match end {
            End::Lo => &mut self.lo,
            End::Hi => &mut self.hi,
        });
    }
}

/// Cold-start water level from the small-`x` law `φ(x) ≈ x²/2`, under
/// which `f = √(pλ/(2μs))` and the spend is `μ^{−1/2}·Σ√(pλs/2)`: the μ
/// that spends `budget` under that law. Since `φ(x) ≤ x²/2`, the true
/// spend there is at most `budget`, so the start sits at or above the
/// water level; it is kept below `mu_limit`.
pub(crate) fn sqrt_law_level(
    terms: impl Iterator<Item = (f64, f64, f64)>,
    budget: f64,
    mu_limit: f64,
) -> f64 {
    let root_sum: f64 = terms.map(|(p, lam, s)| (0.5 * p * lam * s).sqrt()).sum();
    let level = (root_sum / budget).powi(2);
    if level > 0.0 && level < mu_limit {
        level
    } else {
        0.5 * mu_limit
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use freshen_core::audit::SolutionAudit;
    use freshen_core::freshness::{freshness_gradient, perceived_freshness, phi};

    /// Zipf-interest instances whose every fifth element's change rate is
    /// scaled by `tilt`: drifting `tilt` moves a fixed stripe of elements,
    /// and some `(n, tilt)` put the budget on a starvation threshold.
    pub(crate) fn striped(n: usize, tilt: f64) -> Problem {
        let rates: Vec<f64> = (0..n)
            .map(|i| (0.1 + (i % 13) as f64 * 0.4) * if i % 5 == 0 { tilt } else { 1.0 })
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        Problem::builder()
            .change_rates(rates)
            .access_weights(weights)
            .bandwidth(n as f64 / 3.0)
            .build()
            .unwrap()
    }

    fn toy(probs: Vec<f64>) -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .access_probs(probs)
            .bandwidth(5.0)
            .build()
            .unwrap()
    }

    fn assert_close(actual: &[f64], expected: &[f64], tol: f64) {
        assert_eq!(actual.len(), expected.len());
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() <= tol,
                "index {i}: got {a:.4}, expected {e:.4} (all: {actual:?})"
            );
        }
    }

    // ---- The paper's Table 1 -------------------------------------------

    #[test]
    fn table1_row_b_uniform_profile() {
        // P1 = uniform: matches Cho & Garcia-Molina's classic example.
        let sol = LagrangeSolver::default().solve(&toy(vec![0.2; 5])).unwrap();
        assert_close(&sol.frequencies, &[1.15, 1.36, 1.35, 1.14, 0.00], 0.01);
    }

    #[test]
    fn table1_row_c_aligned_profile() {
        // P2 = (1..5)/15: pᵢ ∝ λᵢ ⇒ fᵢ = B·pᵢ exactly.
        let probs: Vec<f64> = (1..=5).map(|i| i as f64 / 15.0).collect();
        let sol = LagrangeSolver::default().solve(&toy(probs)).unwrap();
        assert_close(
            &sol.frequencies,
            &[1.0 / 3.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 5.0 / 3.0],
            0.01,
        );
    }

    #[test]
    fn table1_row_d_reverse_profile() {
        // P3 = (5..1)/15.
        let probs: Vec<f64> = (1..=5).rev().map(|i| i as f64 / 15.0).collect();
        let sol = LagrangeSolver::default().solve(&toy(probs)).unwrap();
        assert_close(&sol.frequencies, &[1.68, 1.83, 1.49, 0.00, 0.00], 0.01);
    }

    // ---- KKT / optimality structure ------------------------------------

    #[test]
    fn budget_is_consumed_exactly() {
        let sol = LagrangeSolver::default().solve(&toy(vec![0.2; 5])).unwrap();
        assert!((sol.bandwidth_used - 5.0).abs() < 1e-8);
        assert!(sol.frequencies.iter().all(|&f| f >= 0.0));
    }

    #[test]
    fn kkt_stationarity_holds() {
        let problem = toy(vec![0.1, 0.2, 0.3, 0.25, 0.15]);
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        let mu = sol.multiplier.unwrap();
        for i in 0..5 {
            let f = sol.frequencies[i];
            let p = problem.access_probs()[i];
            let lam = problem.change_rates()[i];
            if f > 1e-9 {
                let marginal = p * freshness_gradient(lam, f);
                assert!(
                    (marginal - mu).abs() < mu * 1e-4,
                    "element {i}: marginal {marginal:.6e} vs μ {mu:.6e}"
                );
            } else {
                assert!(
                    p / lam <= mu * (1.0 + 1e-6),
                    "starved element must satisfy KKT"
                );
            }
        }
    }

    #[test]
    fn optimal_beats_feasible_alternatives() {
        let problem = toy(vec![0.3, 0.1, 0.25, 0.05, 0.3]);
        let opt = LagrangeSolver::default().solve(&problem).unwrap();
        let candidates: [&[f64]; 4] = [
            &[1.0; 5],
            &[5.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 5.0],
            &[2.5, 0.5, 1.0, 0.5, 0.5],
        ];
        for cand in candidates {
            let pf = problem.perceived_freshness(cand);
            assert!(
                opt.perceived_freshness >= pf - 1e-9,
                "optimal {} must beat candidate {} ({cand:?})",
                opt.perceived_freshness,
                pf
            );
        }
    }

    #[test]
    fn zero_interest_elements_starved() {
        let problem = Problem::builder()
            .change_rates(vec![1.0, 1.0, 1.0])
            .access_probs(vec![0.5, 0.5, 0.0])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert_eq!(sol.frequencies[2], 0.0);
        assert!(sol.frequencies[0] > 0.0 && sol.frequencies[1] > 0.0);
        // Identical active elements split the budget evenly.
        assert!((sol.frequencies[0] - sol.frequencies[1]).abs() < 1e-6);
    }

    #[test]
    fn static_elements_starved() {
        let problem = Problem::builder()
            .change_rates(vec![0.0, 2.0])
            .access_probs(vec![0.9, 0.1])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert_eq!(sol.frequencies[0], 0.0, "static object needs no bandwidth");
        assert!((sol.frequencies[1] - 1.0).abs() < 1e-8);
        // The static hot object still contributes p·1 to PF.
        assert!(sol.perceived_freshness > 0.9);
    }

    #[test]
    fn all_static_problem_allocates_nothing() {
        let problem = Problem::builder()
            .change_rates(vec![0.0, 0.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert_eq!(sol.frequencies, vec![0.0, 0.0]);
        assert!((sol.perceived_freshness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_element_gets_everything() {
        let problem = Problem::builder()
            .change_rates(vec![3.0])
            .access_probs(vec![1.0])
            .bandwidth(7.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!((sol.frequencies[0] - 7.0).abs() < 1e-8);
    }

    // ---- Kernel and water-level search ----------------------------------

    #[test]
    fn kernel_lands_on_the_stationarity_locus() {
        // p·g(f) = μ·s, i.e. φ(λ/f) = y, across the whole locus y ∈ (0, 1):
        // both start branches, the series/closed-form residual seam, and
        // the stiff end where f → λ/40.
        let solver = LagrangeSolver::default();
        let ys = (0..=130)
            .map(|k| 10f64.powf(-14.0 + k as f64 * 0.1))
            .chain((1..200).map(|k| k as f64 / 200.0))
            .chain((10..=130).map(|k| 1.0 - 10f64.powf(-k as f64 * 0.1)));
        for y in ys {
            for lam in [0.3, 2.5] {
                let (p, s) = (0.7, 1.3);
                let mu = y * p / (lam * s);
                let (f, elasticity) = solver.water_fill(p, lam, s, 1.0, mu);
                assert!(f > 0.0 && elasticity > 0.0, "λ={lam} y={y:e}: f {f}");
                let got = phi(lam / f);
                assert!(
                    (got - y).abs() <= y * 1e-13 + 1e-16,
                    "λ={lam} y={y:e}: φ(λ/f) = {got:e}"
                );
                let marginal = p * freshness_gradient(lam, f) / s;
                assert!((marginal - mu).abs() <= mu * 1e-12 + 1e-16 * p / (lam * s));
            }
        }
        // At and past the threshold p/(λs) nothing is allocated.
        assert_eq!(
            solver.water_fill(0.7, 2.5, 1.3, 1.0, 0.7 / 3.25),
            (0.0, 0.0)
        );
        assert_eq!(solver.water_fill(0.7, 2.5, 1.3, 1.0, 1.0), (0.0, 0.0));
    }

    #[test]
    fn kernel_elasticity_matches_finite_difference() {
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            for gamma in [0.0, 0.05] {
                let solver = LagrangeSolver {
                    policy,
                    cost_weight: gamma,
                    ..Default::default()
                };
                let (p, lam, s, c) = (0.4, 1.7, 0.8, 2.0);
                for mu in [1e-6, 1e-3, 0.05, 0.2] {
                    let (f, elasticity) = solver.water_fill(p, lam, s, c, mu);
                    if f <= 0.0 {
                        continue;
                    }
                    let h = 1e-6;
                    let up = solver.water_fill(p, lam, s, c, mu * (1.0 + h)).0;
                    let down = solver.water_fill(p, lam, s, c, mu * (1.0 - h)).0;
                    let numeric = -(up.ln() - down.ln()) / ((1.0 + h).ln() - (1.0 - h).ln());
                    assert!(
                        (numeric - elasticity).abs() <= 1e-5 * (1.0 + elasticity),
                        "{policy:?} γ={gamma} μ={mu}: numeric {numeric} vs {elasticity}"
                    );
                }
            }
        }
    }

    #[test]
    fn water_level_passes_stay_low_on_the_striped_grid() {
        // 49 striped instances, some with the budget on a starvation
        // threshold. Bisection took a median of 38 passes here and up to
        // 56; the Newton search must stay well under both, certify every
        // solve, and a warm start from its own answer may never cost more
        // than the cold solve did.
        let solver = LagrangeSolver::default();
        let mut passes = Vec::new();
        for n in [300, 500, 1000, 2000, 3000, 5000, 10_000] {
            for tilt in [0.7, 0.9, 1.1, 1.35, 2.0, 4.0, 6.0] {
                let problem = striped(n, tilt);
                let cold = solver.solve(&problem).unwrap();
                let report = SolutionAudit::default()
                    .check(&problem, &cold, solver.policy)
                    .unwrap();
                assert!(report.is_clean(), "n={n} tilt={tilt}: {}", report.to_json());
                let warm = solver
                    .solve_warm(&problem, cold.multiplier.unwrap())
                    .unwrap();
                assert!(
                    warm.iterations <= cold.iterations,
                    "n={n} tilt={tilt}: warm {} vs cold {}",
                    warm.iterations,
                    cold.iterations
                );
                passes.push(cold.iterations);
            }
        }
        passes.sort_unstable();
        let median = passes[passes.len() / 2];
        let worst = passes[passes.len() - 1];
        assert!(median <= 15, "median passes {median} ({passes:?})");
        assert!(worst <= 56, "worst passes {worst} ({passes:?})");
    }

    // ---- Sized (extended) problem ---------------------------------------

    #[test]
    fn sized_problem_respects_weighted_budget() {
        let problem = Problem::builder()
            .change_rates(vec![2.0, 2.0, 2.0])
            .access_probs(vec![1.0 / 3.0; 3])
            .sizes(vec![1.0, 2.0, 4.0])
            .bandwidth(6.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!((sol.bandwidth_used - 6.0).abs() < 1e-8);
        // Identical except size: smaller objects get more refreshes.
        assert!(sol.frequencies[0] > sol.frequencies[1]);
        assert!(sol.frequencies[1] > sol.frequencies[2]);
    }

    #[test]
    fn sized_kkt_stationarity() {
        let problem = Problem::builder()
            .change_rates(vec![1.0, 3.0, 2.0])
            .access_probs(vec![0.5, 0.3, 0.2])
            .sizes(vec![0.5, 1.5, 3.0])
            .bandwidth(4.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        let mu = sol.multiplier.unwrap();
        for i in 0..3 {
            let f = sol.frequencies[i];
            if f > 1e-9 {
                let marginal = problem.access_probs()[i]
                    * freshness_gradient(problem.change_rates()[i], f)
                    / problem.sizes()[i];
                assert!(
                    (marginal - mu).abs() < mu * 1e-4,
                    "element {i}: marginal/s {marginal:.6e} vs μ {mu:.6e}"
                );
            }
        }
    }

    #[test]
    fn size_blind_schedule_is_worse_on_sized_world() {
        // Paper Figure 10/§5.3: ignoring sizes wastes bandwidth on large
        // objects. Solve both ways, evaluate both on the sized problem.
        let n = 50;
        let sizes: Vec<f64> = (0..n).map(|i| 0.2 + 3.0 * (i as f64 / n as f64)).collect();
        let problem = Problem::builder()
            .change_rates((0..n).map(|i| 0.5 + i as f64 * 0.1).collect())
            .access_probs(vec![1.0 / n as f64; n])
            .sizes(sizes)
            .bandwidth(20.0)
            .build()
            .unwrap();
        let aware = LagrangeSolver::default().solve(&problem).unwrap();

        let blind_sol = LagrangeSolver::default()
            .solve(&problem.with_uniform_sizes())
            .unwrap();
        // The size-blind schedule overdraws the real (sized) budget; scale
        // it down to feasibility before comparing.
        let used = problem.bandwidth_used(&blind_sol.frequencies);
        let scale = problem.bandwidth() / used;
        let blind: Vec<f64> = blind_sol.frequencies.iter().map(|f| f * scale).collect();

        let blind_pf = problem.perceived_freshness(&blind);
        assert!(
            aware.perceived_freshness > blind_pf + 0.01,
            "size-aware {} vs size-blind {}",
            aware.perceived_freshness,
            blind_pf
        );
    }

    // ---- Poisson-policy solves -------------------------------------------

    #[test]
    fn poisson_policy_matches_closed_form() {
        // Under the Poisson law the KKT system has a closed form:
        // pλ/(λ+f)² = μ  ⇒  f = max(0, sqrt(pλ/μ) − λ).
        let problem = toy(vec![0.1, 0.2, 0.3, 0.25, 0.15]);
        let solver = LagrangeSolver {
            policy: SyncPolicy::Poisson,
            ..Default::default()
        };
        let sol = solver.solve(&problem).unwrap();
        let mu = sol.multiplier.unwrap();
        for i in 0..5 {
            let p = problem.access_probs()[i];
            let lam = problem.change_rates()[i];
            let expected = ((p * lam / mu).sqrt() - lam).max(0.0);
            assert!(
                (sol.frequencies[i] - expected).abs() < 1e-5 * (1.0 + expected),
                "element {i}: {} vs closed form {expected}",
                sol.frequencies[i]
            );
        }
        assert!((sol.bandwidth_used - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_order_optimum_dominates_poisson_optimum() {
        // Optimizing under the better freshness law yields better
        // freshness: PF*_fixed ≥ PF*_poisson on the same instance.
        let problem = toy(vec![0.3, 0.25, 0.2, 0.15, 0.1]);
        let fixed = LagrangeSolver::default().solve(&problem).unwrap();
        let poisson = LagrangeSolver {
            policy: SyncPolicy::Poisson,
            ..Default::default()
        }
        .solve(&problem)
        .unwrap();
        assert!(
            fixed.perceived_freshness > poisson.perceived_freshness,
            "fixed-order optimum {} must beat poisson optimum {}",
            fixed.perceived_freshness,
            poisson.perceived_freshness
        );
    }

    // ---- Scaling sanity --------------------------------------------------

    #[test]
    fn moderate_problem_solves_quickly_and_tightly() {
        let n = 2000;
        let problem = Problem::builder()
            .change_rates((0..n).map(|i| 0.1 + (i % 17) as f64 * 0.3).collect())
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .bandwidth(n as f64 / 4.0)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!((sol.bandwidth_used - problem.bandwidth()).abs() < problem.bandwidth() * 1e-6);
        // PF must beat uniform spreading.
        let uniform_pf = perceived_freshness(
            problem.access_probs(),
            problem.change_rates(),
            &vec![0.25; n],
        );
        assert!(sol.perceived_freshness >= uniform_pf - 1e-9);
    }

    #[test]
    fn warm_start_reaches_same_optimum_faster() {
        let problem = toy(vec![0.3, 0.25, 0.2, 0.15, 0.1]);
        let solver = LagrangeSolver::default();
        let cold = solver.solve(&problem).unwrap();
        let warm = solver
            .solve_warm(&problem, cold.multiplier.unwrap())
            .unwrap();
        for (a, b) in cold.frequencies.iter().zip(&warm.frequencies) {
            assert!((a - b).abs() < 1e-6, "warm and cold optima agree");
        }
        assert!(
            warm.iterations < cold.iterations,
            "warm start should save iterations: warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn warm_start_survives_profile_drift() {
        // Re-solve after the profile shifts, warm-started from the stale
        // multiplier: same optimum as cold solving the new problem.
        let solver = LagrangeSolver::default();
        let old = solver.solve(&toy(vec![0.2; 5])).unwrap();
        let drifted = toy(vec![0.35, 0.25, 0.2, 0.12, 0.08]);
        let warm = solver
            .solve_warm(&drifted, old.multiplier.unwrap())
            .unwrap();
        let cold = solver.solve(&drifted).unwrap();
        for (a, b) in cold.frequencies.iter().zip(&warm.frequencies) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_ignores_garbage_hints() {
        let problem = toy(vec![0.2; 5]);
        let solver = LagrangeSolver::default();
        let cold = solver.solve(&problem).unwrap();
        for hint in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e9] {
            let warm = solver.solve_warm(&problem, hint).unwrap();
            for (a, b) in cold.frequencies.iter().zip(&warm.frequencies) {
                assert!((a - b).abs() < 1e-6, "hint {hint}: optima must agree");
            }
        }
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let probs = vec![0.4, 0.3, 0.2, 0.1];
        let rates = vec![2.0, 1.0, 4.0, 0.5];
        let mut last_pf = 0.0;
        for budget in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0] {
            let problem = Problem::builder()
                .change_rates(rates.clone())
                .access_probs(probs.clone())
                .bandwidth(budget)
                .build()
                .unwrap();
            let sol = LagrangeSolver::default().solve(&problem).unwrap();
            assert!(
                sol.perceived_freshness >= last_pf - 1e-9,
                "PF must be monotone in bandwidth"
            );
            last_pf = sol.perceived_freshness;
        }
        assert!(last_pf > 0.9, "ample bandwidth approaches full freshness");
    }

    // ---- Parallel mode ---------------------------------------------------

    fn scale_problem(n: usize) -> Problem {
        Problem::builder()
            .change_rates((0..n).map(|i| 0.1 + (i % 17) as f64 * 0.3).collect())
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .sizes((0..n).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect())
            .bandwidth(n as f64 / 4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn pool_solve_is_bit_identical_to_serial() {
        // Fixed chunk boundaries + in-order compensated merges: the pool
        // must reproduce the serial optimum exactly, not approximately.
        let problem = scale_problem(20_000);
        let serial = LagrangeSolver::default().solve(&problem).unwrap();
        for workers in [2, 4] {
            let pooled = LagrangeSolver::default()
                .with_executor(Executor::thread_pool(workers))
                .solve(&problem)
                .unwrap();
            assert_eq!(serial.frequencies, pooled.frequencies, "workers={workers}");
            assert_eq!(serial.iterations, pooled.iterations);
            assert_eq!(serial.multiplier, pooled.multiplier);
        }
    }

    #[test]
    fn recorder_tracks_iterations_and_warm_starts() {
        let problem = toy(vec![0.2; 5]);
        let rec = Recorder::enabled();
        let solver = LagrangeSolver::default().with_recorder(rec.clone());
        let cold = solver.solve(&problem).unwrap();
        assert_eq!(rec.counter_value("solver.solves"), Some(1));
        assert_eq!(
            rec.counter_value("solver.outer_iters"),
            Some(cold.iterations as u64)
        );
        assert!(rec.counter_value("solver.inner_iters").unwrap() > 0);
        assert!(rec.counter_value("solver.warm_start.hit").is_none());

        let warm = solver
            .solve_warm(&problem, cold.multiplier.unwrap())
            .unwrap();
        assert_eq!(rec.counter_value("solver.warm_start.hit"), Some(1));
        solver.solve_warm(&problem, f64::NAN).unwrap();
        assert_eq!(rec.counter_value("solver.warm_start.miss"), Some(1));
        assert_eq!(rec.counter_value("solver.solves"), Some(3));

        // The per-outer-iteration KKT residual trail reaches the journal,
        // and instrumentation does not perturb the optimum.
        assert!(rec.metrics_json().unwrap().contains("solver.outer"));
        for (a, b) in cold.frequencies.iter().zip(&warm.frequencies) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    // ---- Cost-aware objective -------------------------------------------

    fn costed(costs: Vec<f64>, bandwidth: f64) -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .access_probs(vec![0.3, 0.25, 0.2, 0.15, 0.1])
            .costs(costs)
            .bandwidth(bandwidth)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_cost_weight_is_bit_identical_to_plain_solve() {
        let problem = costed(vec![2.0, 0.5, 1.0, 3.0, 0.25], 5.0);
        let plain = LagrangeSolver::default().solve(&problem).unwrap();
        let costless = LagrangeSolver::default()
            .with_cost_weight(0.0)
            .solve(&problem)
            .unwrap();
        assert_eq!(plain.frequencies, costless.frequencies);
        assert_eq!(plain.multiplier, costless.multiplier);
        assert_eq!(plain.iterations, costless.iterations);
        assert_eq!(costless.cost_multiplier, None);
    }

    #[test]
    fn cost_aware_poisson_matches_closed_form() {
        // Poisson law: p·λ/(λ+f)² = μ·s + γ·c has the closed form
        // f = max(0, sqrt(pλ/(μs+γc)) − λ).
        let problem = costed(vec![2.0, 0.5, 1.0, 3.0, 0.25], 5.0);
        let solver = LagrangeSolver {
            policy: SyncPolicy::Poisson,
            cost_weight: 0.02,
            ..Default::default()
        };
        let sol = solver.solve(&problem).unwrap();
        let mu = sol.multiplier.unwrap();
        assert_eq!(sol.cost_multiplier, Some(0.02));
        for i in 0..5 {
            let p = problem.access_probs()[i];
            let lam = problem.change_rates()[i];
            let tau = mu + 0.02 * problem.poll_cost(i);
            let expected = ((p * lam / tau).sqrt() - lam).max(0.0);
            assert!(
                (sol.frequencies[i] - expected).abs() < 1e-5 * (1.0 + expected),
                "element {i}: {} vs closed form {expected}",
                sol.frequencies[i]
            );
        }
    }

    #[test]
    fn heavy_levy_leaves_budget_unspent() {
        // Ample bandwidth + a real levy: the optimum is interior (μ = 0)
        // and deliberately underspends the bandwidth budget.
        let problem = costed(vec![1.0; 5], 500.0);
        let sol = LagrangeSolver::default()
            .with_cost_weight(0.05)
            .solve(&problem)
            .unwrap();
        assert_eq!(sol.multiplier, Some(0.0));
        assert_eq!(sol.cost_multiplier, Some(0.05));
        assert!(
            sol.bandwidth_used < 500.0 * 0.9,
            "levy must stop spending before the budget: used {}",
            sol.bandwidth_used
        );
        // Each funded element sits at its price point p·g(f) = γ·c.
        let mu = 0.0;
        for i in 0..5 {
            let f = sol.frequencies[i];
            if f > 1e-9 {
                let marginal =
                    problem.access_probs()[i] * freshness_gradient(problem.change_rates()[i], f);
                let tau = mu + 0.05 * problem.poll_cost(i);
                assert!(
                    (marginal - tau).abs() < tau * 1e-4,
                    "element {i}: marginal {marginal:.6e} vs levy {tau:.6e}"
                );
            }
        }
    }

    #[test]
    fn pricing_out_everything_yields_empty_schedule() {
        // γ above max p/(λc): no element's marginal value covers its levy.
        let problem = costed(vec![1.0; 5], 5.0);
        let sol = LagrangeSolver::default()
            .with_cost_weight(10.0)
            .solve(&problem)
            .unwrap();
        assert!(sol.frequencies.iter().all(|&f| f == 0.0));
        assert_eq!(sol.multiplier, Some(0.0));
        assert_eq!(sol.cost_multiplier, Some(10.0));
    }

    #[test]
    fn larger_levy_never_increases_spend() {
        let problem = costed(vec![2.0, 0.5, 1.0, 3.0, 0.25], 5.0);
        let mut last_spend = f64::INFINITY;
        for gamma in [0.0, 0.005, 0.02, 0.05, 0.1, 0.3] {
            let sol = LagrangeSolver::default()
                .with_cost_weight(gamma)
                .solve(&problem)
                .unwrap();
            let spend = problem.cost_used(&sol.frequencies);
            assert!(
                spend <= last_spend + 1e-9,
                "spend must be monotone in γ: {spend} after {last_spend} at γ={gamma}"
            );
            last_spend = spend;
        }
    }

    #[test]
    fn cost_budget_solve_respects_both_budgets() {
        let problem = costed(vec![2.0, 0.5, 1.0, 3.0, 0.25], 5.0);
        let solver = LagrangeSolver::default();
        let plain = solver.solve(&problem).unwrap();
        let unconstrained_spend = problem.cost_used(&plain.frequencies);

        // A binding cost budget: tighter than the plain solve's spend.
        let cap = unconstrained_spend * 0.6;
        let sol = solver.solve_cost_budget(&problem, cap).unwrap();
        let spend = problem.cost_used(&sol.frequencies);
        assert!(
            spend <= cap * (1.0 + 1e-9),
            "cost budget overdrawn: {spend} > {cap}"
        );
        assert!(
            spend >= cap * 0.99,
            "dual bisection should spend close to the cap: {spend} vs {cap}"
        );
        let gamma = sol.cost_multiplier.expect("binding cap ⇒ positive levy");
        assert!(gamma > 0.0);
        assert!(sol.perceived_freshness < plain.perceived_freshness);

        // A slack cost budget returns the plain optimum untouched.
        let slack = solver
            .solve_cost_budget(&problem, unconstrained_spend * 2.0)
            .unwrap();
        assert_eq!(slack.frequencies, plain.frequencies);
        assert_eq!(slack.cost_multiplier, None);
    }

    #[test]
    fn cost_budget_rejects_bad_caps() {
        let problem = costed(vec![1.0; 5], 5.0);
        let solver = LagrangeSolver::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(solver.solve_cost_budget(&problem, bad).is_err());
        }
    }

    #[test]
    fn invalid_cost_weight_is_rejected() {
        let problem = costed(vec![1.0; 5], 5.0);
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let res = LagrangeSolver::default()
                .with_cost_weight(bad)
                .solve(&problem);
            assert!(res.is_err(), "cost weight {bad} must be rejected");
        }
    }
}
