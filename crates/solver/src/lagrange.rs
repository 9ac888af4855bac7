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
//! 3. finds the water level with one safeguarded root-finder on `ln μ`.
//!    With `γ = 0` element `i` spends `λᵢsᵢ·G(μ·aᵢ)`, `aᵢ = λᵢsᵢ/pᵢ`, for
//!    the law's unit inversion `G`, so the spend at any μ is a sum over
//!    the distribution of `a`: the cold start is the root of that sum
//!    over a log-bucketed histogram of `a`, built in the pass that bounds
//!    μ. Each allocation pass also collects its *zone*, the elements
//!    near their starvation threshold, and the next trial level solves
//!    the budget with the rest of the spend expanded to second order in
//!    `ln μ` and the zone evaluated exactly; that step also names the
//!    threshold on which the budget straddles. Newton (Illinois false
//!    position once the budget is bracketed and Newton leaves the bracket
//!    or stalls) takes over where the zone step does not reach.
//!
//! A cold solve costs `O(N·k)` for the `k = 2` passes the search takes on
//! smooth instances (3 on small ones and on straddles). This replaces the
//! authors' generic IMSL non-linear-programming package with a
//! specialized scheme that produces the *same* optimum (it solves the
//! same KKT system) — validated against the paper's published Table 1
//! numbers.
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
use freshen_core::numeric::NeumaierSum;
use freshen_core::policy::{FixedOrder, FreshnessLaw, Poisson, SyncPolicy};
use freshen_core::problem::{Problem, Solution, STATIC_RATE};
use freshen_core::soa::PackedColumns;
use freshen_obs::{Recorder, SpanGuard};

/// Cap on one element's elasticity `−d ln f/d ln μ` in a pass's spend
/// slope. Elements hovering near the starvation threshold have a
/// double-exponentially flat marginal, so their pointwise elasticity can
/// reach 10¹⁰× their actual bounded response (`f` can only fall to 0) —
/// one such element poisons the aggregate slope and freezes Newton into
/// micro-steps. Ordinary elements have elasticity O(1) (½ on the
/// `f ≫ λ` side of the locus) and are untouched.
const MAX_ELASTICITY: f64 = 1e3;

/// Relative tolerance of [`LagrangeSolver::solve_cost_budget`]'s levy
/// search and of its inner water levels. The cost spend is not snapped
/// the way the bandwidth spend is, so this bounds how far the cap can be
/// overdrawn.
const COST_BUDGET_TOL: f64 = 1e-10;

/// Mantissa bits, beside the 11 exponent bits, of the key that buckets
/// an element's `a = λs/p` in the cold start's spend histogram: 64
/// buckets per octave, so `a` varies by at most 1/64 inside one. Spend
/// is smooth in `a` below the threshold region, and a bucket evaluated at
/// its spend-weighted mean `a` errs only in the second order of that
/// spread. The histogram's root then lies within about 1e-5 of μ* on
/// 10⁶-element Zipf plans (5 bits: up to 1.5e-4), whose `a` spans 26
/// octaves, under 1,700 buckets.
const HIST_BITS: u32 = 6;

/// Elements per task of the pass that bounds μ and builds the spend
/// histogram, sixteen chunks. Each task returns its own partial
/// histogram, allocated on its worker; wider tasks keep fewer of them (8
/// instead of 123 at 10⁶ elements). With one partial per chunk,
/// plan-1m's peak RSS read 190–205 MB in spot runs against the parent's
/// 194 MB; with spans it stays at the parent's.
const HIST_SPAN: usize = 16 * DEFAULT_CHUNK;

/// Level `y = μā` of a bucket past which the spend histogram spreads the
/// bucket over its width instead of placing it at its mean `ā`. Below it
/// `G` is smooth enough that a point errs by under 1e-6 of the spend per
/// bucket; toward the starvation threshold `y = 1` it steepens, and a
/// bucket across the threshold, at a point, would spend all or nothing,
/// an error of 1e-3. A spread bucket costs ten kernel calls per model
/// pass, so only the few buckets this close to the threshold are spread.
const HIST_SMOOTH: f64 = 0.9;

/// Midpoints at which a spread bucket's funded part is averaged.
const HIST_SLICES: usize = 8;

/// Half-width `W`, in `ln y` (`y = λτ/p`, `τ = μs + γc`), of a pass's
/// zone: the elements with `y ∈ [e^{−W}, e^{W}]`. A zone step moves `ln μ`
/// by less than `W/2` ([`ZONE_STEP`]), and `ln y` moves by no more than
/// `ln μ`, so an element outside the zone keeps its funding over the step, and
/// its elasticity stays bounded (≈17 under Fixed Order at `y = e^{−W/2}`,
/// ≈100 under Poisson): the bulk's spend is smooth there, and its
/// second-order expansion in `ln μ` follows it.
const ZONE_WIDTH: f64 = 0.02;

/// How far, in `ln μ`, a zone step may move from its pass: `W/2`.
const ZONE_STEP: f64 = 0.5 * ZONE_WIDTH;

/// How far, in `ln μ`, a warm hint may lie from the histogram's root and
/// still be the first trial level. A zone step from a level `δ` off
/// leaves a residual of about `10·δ³` of the budget (third order; 9e-9 at
/// `δ = 1e-3` on 10⁶-element Zipf plans), so from a hint this close one
/// zone step finishes the solve. From a farther hint it would take two,
/// while the root itself (within about 1e-5 of μ* at 10⁶ elements) takes
/// one, so the search starts at the root.
const HINT_REACH: f64 = 1e-3;

/// The largest share of a pass's elements its zone may hold: `1/64` of
/// them, counting at least one full chunk. Each model evaluation of a
/// zone step costs one kernel call per zone element on the calling
/// thread, so a larger zone (elements crowding one threshold) would cost
/// a pass or more per step; past it, the pass keeps no zone and the
/// search takes its Newton step. Zones of plan-like instances hold well
/// under 1% of the elements, unevenly across chunks.
const ZONE_SHARE: usize = 64;

/// Zone elements one chunk collects before it gives the pass's zone up,
/// an eighth of a full chunk: this bounds the memory a crowded pass
/// spends on its zone to a byte per element.
const ZONE_CHUNK_CAP: usize = DEFAULT_CHUNK / 8;

/// Model evaluations one zone step may spend. Every other evaluation at
/// least halves the step's bracket, from `W/2` down to `tol/4`: about 22
/// halvings at `tol = 1e-8`, 35 at the tiered split's 1e-12.
const ZONE_ITERS: usize = 80;

/// Zone steps one search may take. A smooth solve takes one or two, a
/// straddle two more; past this cap the search keeps to the Newton and
/// Illinois steps, whose convergence does not rest on the zone model.
const ZONE_STEPS: usize = 8;

/// Write into `f` the convex combination of the allocations measured at
/// the two ends of an exhausted multiplier bracket, `(allocation, spend)`
/// each, whose spends straddle `budget`. Spend is linear in the
/// allocation, so the weight `α = (B − used_hi)/(used_lo − used_hi)` makes
/// the blend budget-exact; every element that differs between the ends
/// has its marginal inside the bracket, so the blend is optimal to float
/// precision.
fn blend_bracket_ends(
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
    /// Relative tolerance on the bandwidth constraint: the water-level
    /// search stops once a pass spends within `budget_tol·B` of `B`, and
    /// the final snap then scales the allocation to spend `B`.
    ///
    /// The default, 1e-8, is the strict certificate's own budget
    /// allowance, and the snap keeps the result well inside its spread
    /// tolerance. Every funded element's elasticity
    /// `E = −d ln f/d ln τ` (`τ = μs + γc`) is at least ½:
    ///
    /// * Fixed Order, with `x = λ/f`: `E = φ(x)/(x²e^{−x})`, and `E ≥ ½`
    ///   is `2 − (2 + 2x + x²)e^{−x} ≥ 0`, which holds because
    ///   `eˣ ≥ 1 + x + x²/2`;
    /// * Poisson: `E = √(pλ/τ)/(2f) > ½`.
    ///
    /// The marginal moves by `−1/E` per unit of `ln f`, so a snap after a
    /// pass with relative residual `r` moves each funded marginal, relative
    /// to its `τ`, by at most about `2|r|`: 2e-8 at the default, 50×
    /// inside the certificate's 1e-6. Tighter tolerances buy nothing the
    /// snap does not already give, and cost about one more pass each: a
    /// zone step cubes its residual, from ~1e-5 after the histogram's
    /// start to ~1e-10. Callers may still set one.
    pub budget_tol: f64,
    /// Maximum allocation passes of the water-level search.
    pub max_outer: usize,
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
            budget_tol: 1e-8,
            max_outer: 200,
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
    /// change rates drift; successive optima have nearby multipliers. The
    /// cold start already lands within ~1e-5 of `μ*` on large instances,
    /// so the search starts at the hint only when it lies within 1e-3 of
    /// that start (a hint at the exact `μ*` converges in one pass); a
    /// farther hint costs exactly a cold solve. Invalid hints
    /// (non-positive, non-finite, or beyond the starvation bound) are
    /// ignored and the cold path runs; the returned solution is always
    /// the same optimum either way.
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
    /// (a larger levy prices more polls out). The first pass is the plain
    /// solve (`γ = 0`): if it already fits in `C`, the constraint is slack
    /// and that solve is returned. Otherwise the water-level search finds
    /// the levy on `(0, max pᵢ/(λᵢcᵢ))` (above which nothing taxed is
    /// polled) whose spend is `C`. Each of its passes water-fills the
    /// active set at one `γ`, warm from the previous pass's `μ`, and
    /// measures the spend's slope in `ln γ` with `μ` re-solved; the
    /// columns are gathered and scattered once per call. The cost spend
    /// is not snapped, so the levy search and every levied water level
    /// run to the tighter of `budget_tol` and 1e-10, and the spend ends
    /// within that fraction of `C`; when it jumps across `C` at a
    /// starvation threshold, the allocations at the two ends of the final
    /// bracket are blended to spend `C` exactly, and the under-budget
    /// end's levy and `μ` are reported. `iterations` counts every
    /// allocation pass of the call.
    pub fn solve_cost_budget(&self, problem: &Problem, cost_budget: f64) -> Result<Solution> {
        if !cost_budget.is_finite() || cost_budget <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "cost budget",
                index: None,
                value: cost_budget,
            });
        }
        self.recorder.counter("solver.cost_budget_solves").inc();
        let solver = LagrangeSolver {
            cost_weight: 0.0,
            ..self.clone()
        };
        let (mut cols, chunks, _span) = solver.pack(problem)?;
        // Above the largest p/(λc) the levy exceeds every taxed element's
        // zero-frequency marginal value, so nothing taxed is polled and
        // the spend is 0.
        let (p, lam, c) = (cols.p(), cols.lambda(), cols.c());
        let gamma_limit = p
            .iter()
            .zip(lam)
            .zip(c)
            .filter(|(_, &c)| c > 0.0)
            .map(|((&p, &lam), &c)| p / (lam * c))
            .fold(0.0f64, f64::max);
        let root_sum = p
            .iter()
            .zip(lam)
            .zip(c)
            .map(|((&p, &l), &c)| sqrt_law_term(p, l, c))
            .sum();
        let start = sqrt_law_level(root_sum, cost_budget, gamma_limit);
        let m = cols.len();
        let mut levy = LevyFill {
            solver,
            chunks: &chunks,
            cols: &mut cols,
            bandwidth: problem.bandwidth(),
            tol: self.budget_tol.min(COST_BUDGET_TOL),
            mu: 0.0,
            passes: 0,
            lo: vec![0.0; m],
            hi: vec![0.0; m],
            hi_end: (gamma_limit, 0.0),
        };
        let (gamma, mu) = if levy.fill(0.0)?.used <= cost_budget {
            (0.0, levy.mu) // the cost constraint is slack: shadow price 0
        } else {
            let tol = levy.tol;
            let level = self.water_level(&mut levy, cost_budget, tol, gamma_limit, start)?;
            match level.straddle {
                // Report the under-budget end's levy and water level: a
                // levied solve at the reported levy (as the engine runs)
                // then lands on that end, not on the one that overdraws C.
                Some(ends) => {
                    let (lo, hi) = ((&levy.lo[..], ends.0), (&levy.hi[..], ends.1));
                    blend_bracket_ends(levy.cols.f_mut(), lo, hi, cost_budget);
                    levy.hi_end
                }
                None => (level.mu, levy.mu),
            }
        };
        levy.solver.cost_weight = gamma;
        Ok(levy.solver.finish(problem, levy.cols, mu, levy.passes))
    }

    /// Check the solver's levy, gather the active set — positive interest
    /// and a genuinely changing source copy — into contiguous
    /// structure-of-arrays columns with their pass chunks, and open the
    /// solve's span. Every pass then sweeps linear memory; the gather
    /// happens exactly once per solve instead of once per pass.
    fn pack(&self, problem: &Problem) -> Result<(PackedColumns, Vec<Range<usize>>, SpanGuard)> {
        let gamma = self.cost_weight;
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "solver cost weight",
                index: None,
                value: gamma,
            });
        }
        let (p, lam) = (problem.access_probs(), problem.change_rates());
        let cols = PackedColumns::gather(problem, &self.executor, |i| {
            p[i] > 0.0 && lam[i] > STATIC_RATE
        });
        let chunks = chunk_ranges(cols.len(), DEFAULT_CHUNK);
        let rec = &self.recorder;
        let mut span = rec.span("solver.lagrange.solve");
        span.arg("n", problem.len());
        span.arg("chunks", chunks.len());
        rec.counter("solver.solves").inc();
        Ok((cols, chunks, span))
    }

    /// The water-level solve behind [`solve`](Self::solve) and
    /// [`solve_warm`](Self::solve_warm): pack, fill, scatter once.
    fn solve_impl(&self, problem: &Problem, hint: Option<f64>) -> Result<Solution> {
        let (mut cols, chunks, _span) = self.pack(problem)?;
        let budget = problem.bandwidth();
        let (mu, passes) = self.fill_columns(&mut cols, &chunks, budget, hint, self.budget_tol)?;
        Ok(self.finish(problem, &cols, mu, passes))
    }

    /// Water-fill the packed columns at the solver's levy to spend
    /// `budget` to within `tol·budget`, from the warm start `hint` when
    /// usable, and leave the allocation in their frequency column.
    /// Returns the water level μ and the allocation passes spent.
    fn fill_columns(
        &self,
        cols: &mut PackedColumns,
        chunks: &[Range<usize>],
        budget: f64,
        hint: Option<f64>,
        tol: f64,
    ) -> Result<(f64, usize)> {
        let gamma = self.cost_weight;
        let rec = &self.recorder;
        let c_outer = rec.counter("solver.outer_iters");
        let c_inner = rec.counter("solver.inner_iters");

        if cols.is_empty() {
            // Nothing worth refreshing; all-zero allocation is optimal.
            return Ok((0.0, 0));
        }

        // μ upper bound: above the largest zero-frequency marginal value
        // p/(λs), every element's optimal frequency is 0. With a poll levy
        // the γ·c tax comes off the numerator first (clamped at 0: an
        // element whose levy already exceeds its marginal value never
        // receives bandwidth at any μ ≥ 0). The same pass parks each
        // element's `a = λs/p` in the frequency column, which the first
        // allocation pass overwrites, and buckets it for the cold start's
        // spend histogram; the spans' buckets merge in span order.
        let spans = chunk_ranges(cols.len(), HIST_SPAN);
        let (ro, f) = cols.parts_mut();
        let parts = self.executor.map_ranges_mut(&spans, f, |range, a| {
            let mut limit = 0.0f64;
            for (k, a) in range.clone().zip(a.iter_mut()) {
                let (p, lam, s, c) = (ro.p[k], ro.lambda[k], ro.s[k], ro.c[k]);
                limit = limit.max(if gamma > 0.0 {
                    (p / lam - gamma * c).max(0.0) / s
                } else {
                    p / (lam * s)
                });
                *a = lam * s / p;
            }
            let histogram = chunk_histogram(&ro.lambda[range.clone()], &ro.s[range], a);
            (limit, histogram)
        });
        let mu_hi_limit = parts.iter().map(|part| part.0).fold(0.0f64, f64::max);
        if mu_hi_limit <= 0.0 {
            // γ > 0 and the levy prices every element out of the market:
            // the unconstrained optimum of PF − γ·cost is the empty
            // schedule, well under budget.
            cols.f_mut().fill(0.0);
            return Ok((0.0, 0));
        }
        let buckets = merge_histograms(parts.into_iter().map(|part| part.1).collect());

        // With a levy active the budget constraint may not bind: the μ = 0
        // allocation (each element polled until its marginal freshness
        // equals its price) can already fit inside `B`. Probe it first —
        // if it fits, it is the interior optimum and no water level is
        // needed. Zero-cost elements make the μ = 0 allocation unbounded,
        // so the probe only runs when every active element is taxed.
        let mut probed = 0usize;
        if gamma > 0.0 && cols.c().iter().all(|&c| c > 0.0) {
            let (interior, _) = self.allocate(chunks, cols, 0.0);
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
                return Ok((0.0, 1));
            }
        }

        // The cold start is the histogram's root, the level at which the
        // spend model spends the budget. A warm-start hint is the first
        // trial level instead when it is usable and within `HINT_REACH` of
        // that root, so a far hint costs no more than the cold start (a
        // hit is a hint the search actually starts from). The histogram
        // is built at γ = 0, so under a levy a usable hint always starts.
        let usable = |h: f64| h.is_finite() && h > 0.0 && h < mu_hi_limit;
        let root = || self.histogram_root(&buckets, budget, tol, mu_hi_limit);
        let start = match hint {
            None => root(),
            Some(h) => {
                let root = (gamma == 0.0 || !usable(h)).then(root);
                let hit = usable(h) && root.is_none_or(|root| (h / root).ln().abs() < HINT_REACH);
                rec.counter(if hit {
                    "solver.warm_start.hit"
                } else {
                    "solver.warm_start.miss"
                })
                .inc();
                root.filter(|_| !hit).unwrap_or(h)
            }
        };
        let m = cols.len();
        let mut fill = PackedFill {
            solver: self,
            chunks,
            cols,
            // The μ = μ_hi_limit allocation: all zero, spending nothing.
            hi: vec![0.0; m],
            lo: vec![0.0; m],
            zone: None,
        };
        let level = self.water_level(&mut fill, budget, tol, mu_hi_limit, start)?;
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
            None => self.snap_to_budget(chunks, cols.f_mut(), level.used, budget),
        }
        c_outer.add(level.passes as u64);
        c_inner.add(level.steps as u64);
        Ok((level.mu, probed + level.passes))
    }

    /// The cold start: the level at which the spend histogram `buckets`
    /// (see [`merge_histograms`]) spends `budget`. Its model spend is
    /// `Ũ(μ) = Σ_b W_b·G(μ·ā_b)`, with `W_b = Σλs` and `ā_b` the
    /// `λs`-weighted mean `a` of bucket `b`, and `G(y)` the law's unit
    /// inversion, the frequency of `p = λ = s = 1` at level `y`; buckets
    /// near the starvation threshold are spread over their width
    /// ([`HistFill`]). For `γ = 0` this is the true spend up to the spread
    /// of `a` inside a bucket. The water-level search finds it from the
    /// √-law estimate, or returns that estimate if the search fails.
    fn histogram_root(&self, buckets: &[Bucket], budget: f64, tol: f64, mu_limit: f64) -> f64 {
        let root_sum = buckets.iter().map(|b| b.w / (2.0 * b.a).sqrt()).sum();
        let guess = sqrt_law_level(root_sum, budget, mu_limit);
        let mut model = HistFill {
            solver: self,
            buckets,
        };
        self.water_level(&mut model, budget, tol, mu_limit, guess)
            .map_or(guess, |level| level.mu)
    }

    /// Finish a solve: scatter the packed allocation into a full-length
    /// schedule and evaluate it, with water level `mu`, the solver's levy
    /// (when positive) and `passes` allocation passes.
    fn finish(&self, problem: &Problem, cols: &PackedColumns, mu: f64, passes: usize) -> Solution {
        let mut freqs = vec![0.0; problem.len()];
        cols.scatter_f(&mut freqs, &self.executor);
        let mut sol = Solution::evaluate_with(problem, freqs, self.policy, &self.executor);
        sol.multiplier = Some(mu);
        if self.cost_weight > 0.0 {
            sol.cost_multiplier = Some(self.cost_weight);
        }
        sol.iterations = passes;
        sol
    }

    /// The solver's one multiplier search: the water level μ of every
    /// solve (flat and warm, and the tiered budget split, which pools its
    /// tiers into one flat solve), and the levy γ of
    /// [`solve_cost_budget`](Self::solve_cost_budget), whose passes are
    /// themselves water-level solves. Finds the level where a pass spends
    /// `budget`.
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
    /// Before any of these, the fill may offer a zone step
    /// ([`WaterFill::zone_step`]), which the search takes, up to
    /// [`ZONE_STEPS`] times, when it lies inside the bracket.
    ///
    /// Stops when `|used − B| ≤ tol·B`, or when the bracket has closed
    /// to `tol·μ` without that (the optimum straddles a starvation
    /// threshold): then `straddle` carries both ends' spends for
    /// [`blend_bracket_ends`].
    fn water_level<F: WaterFill>(
        &self,
        fill: &mut F,
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
        let (mut passes, mut zone_steps) = (0usize, 0usize);
        // (ln μ, ln used) of the previous pass, for the secant slope.
        let mut previous: Option<(f64, f64)> = None;
        while passes < self.max_outer {
            passes += 1;
            let pass = fill.fill(mu)?;
            steps += pass.steps;
            let residual = pass.used - budget;
            if F::PASSES {
                rec.event(
                    "solver.outer",
                    &[
                        ("phase", &phase),
                        ("iter", &passes),
                        ("mu", &mu),
                        ("residual", &(residual / budget)),
                    ],
                );
            }
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
            let zone = if zone_steps < ZONE_STEPS {
                fill.zone_step(mu, &pass, budget, tol)
                    .filter(|&(step, _)| step > mu_lo && step < mu_hi)
            } else {
                None
            };
            (mu, phase) = if let Some(step) = zone {
                zone_steps += 1;
                step
            } else if mu_lo == 0.0 {
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
    /// consumed, the spend-weighted elasticity sum and the kernel steps,
    /// and the pass's [`Zone`], or `None` when it held more than its
    /// share of the elements ([`ZONE_SHARE`]). The zone test compares `λτ`
    /// against `p·e^{±W}`, so it takes no `ln` and no division.
    ///
    /// Each chunk of the packed columns is water-filled as one executor
    /// task over contiguous `p`/`λ`/`s` slices, writing its frequencies in
    /// place. The per-chunk partials are merged in chunk order (the spend
    /// compensated, the zones concatenated), so the pass is bit-identical
    /// at any worker count.
    fn allocate(
        &self,
        chunks: &[Range<usize>],
        cols: &mut PackedColumns,
        mu: f64,
    ) -> (Pass, Option<Zone>) {
        match self.policy {
            SyncPolicy::FixedOrder => self.allocate_as::<FixedOrder>(chunks, cols, mu),
            SyncPolicy::Poisson => self.allocate_as::<Poisson>(chunks, cols, mu),
        }
    }

    /// [`allocate`](Self::allocate) under the law `L`.
    fn allocate_as<L: Curvature>(
        &self,
        chunks: &[Range<usize>],
        cols: &mut PackedColumns,
        mu: f64,
    ) -> (Pass, Option<Zone>) {
        let gamma = self.cost_weight;
        let (zone_lo, zone_hi) = ((-ZONE_WIDTH).exp(), ZONE_WIDTH.exp());
        let (ro, f) = cols.parts_mut();
        let parts = self.executor.map_ranges_mut(chunks, f, |range, out| {
            let mut used = NeumaierSum::new();
            let mut slope = 0.0f64;
            let mut funded = 0usize;
            let (mut zone, mut crowded) = (Zone::default(), false);
            for (k, f) in range.zip(out) {
                let (p, lam, s, c) = (ro.p[k], ro.lambda[k], ro.s[k], ro.c[k]);
                let (fk, elasticity) = self.kernel::<L>(p, lam, s, c, mu);
                *f = fk;
                let spend = s * fk;
                used.add(spend);
                slope += spend * elasticity;
                funded += usize::from(fk > 0.0);
                let lam_tau = lam * (mu * s + gamma * c);
                if lam_tau >= zone_lo * p && lam_tau <= zone_hi * p {
                    if zone.members.len() < ZONE_CHUNK_CAP {
                        zone.members.push(k);
                    } else {
                        crowded = true;
                    }
                } else if fk > 0.0 {
                    let rho = if gamma > 0.0 {
                        mu * s / (mu * s + gamma * c)
                    } else {
                        1.0
                    };
                    zone.bulk_used += spend;
                    zone.bulk_slope += spend * elasticity;
                    zone.bulk_curvature += s * L::curvature(lam, fk, elasticity, rho);
                }
            }
            (used, slope, funded, (!crowded).then_some(zone))
        });
        let mut used = NeumaierSum::new();
        let mut slope = 0.0f64;
        let mut funded = 0usize;
        let mut zone = Some(Zone::default());
        for (part_used, part_slope, part_funded, part_zone) in parts {
            used.merge(part_used);
            slope += part_slope;
            funded += part_funded;
            zone = zone.zip(part_zone).map(|(mut zone, part)| {
                zone.members.extend(part.members);
                zone.bulk_used += part.bulk_used;
                zone.bulk_slope += part.bulk_slope;
                zone.bulk_curvature += part.bulk_curvature;
                zone
            });
        }
        let pass = Pass {
            used: used.total(),
            slope,
            steps: funded * L::KERNEL_STEPS,
        };
        let share = (cols.len() + DEFAULT_CHUNK) / ZONE_SHARE;
        (pass, zone.filter(|zone| zone.members.len() <= share))
    }

    /// Scale `f`, which spends `used`, to spend `budget`, chunk by chunk
    /// on the executor: the multiplicative snap of a converged solve's
    /// tiny residual. Evaluated as `f + f·(B − used)/used`, where
    /// `B − used` is exact, so each element takes one rounding instead of
    /// the two of `f·(B/used)`.
    fn snap_to_budget(&self, chunks: &[Range<usize>], f: &mut [f64], used: f64, budget: f64) {
        if used > 0.0 {
            let correction = (budget - used) / used;
            self.executor.map_ranges_mut(chunks, f, |_, f| {
                for f in f {
                    *f += *f * correction;
                }
            });
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
    /// unit cost `c = 1.0` is assumed for the `γ·c` levy term.
    pub fn element_frequency(&self, p: f64, lam: f64, s: f64, mu: f64) -> f64 {
        self.water_fill(p, lam, s, 1.0, mu).0
    }

    /// The closed-form water-filling kernel: element `(p, λ, s, c)`'s
    /// optimal frequency at water level `μ`, and its elasticity
    /// `E = −d ln f/d ln μ` capped at [`MAX_ELASTICITY`] (both 0 when the
    /// element is starved). Matches the policy once; the passes call
    /// [`kernel`](Self::kernel) under a named law.
    pub(crate) fn water_fill(&self, p: f64, lam: f64, s: f64, c: f64, mu: f64) -> (f64, f64) {
        match self.policy {
            SyncPolicy::FixedOrder => self.kernel::<FixedOrder>(p, lam, s, c, mu),
            SyncPolicy::Poisson => self.kernel::<Poisson>(p, lam, s, c, mu),
        }
    }

    /// [`water_fill`](Self::water_fill) under the law `L`.
    ///
    /// Under Fixed Order, `∂F̄/∂f = φ(λ/f)/λ`, so with
    /// `y = λ(μs + γc)/p` stationarity reads `φ(x) = y` for `x = λ/f`:
    /// every element sits on the one locus `x = ψ(y)`, `ψ = φ⁻¹`, found
    /// at a fixed cost by [`FreshnessLaw::invert`]. `y ≥ 1` means the
    /// zero-frequency marginal `p/λ` is already under the threshold.
    /// Poisson is closed form: `f = √(pλ/(μs + γc)) − λ`.
    ///
    /// The cost is the same for every funded element: no loop exits on
    /// the data, so consecutive elements overlap in the pipeline.
    /// `μs + γc` must be positive.
    #[inline]
    fn kernel<L: FreshnessLaw>(&self, p: f64, lam: f64, s: f64, c: f64, mu: f64) -> (f64, f64) {
        let tau = mu * s + self.cost_weight * c;
        if lam * tau >= p {
            return (0.0, 0.0); // not worth any bandwidth at this water level
        }
        let (f, elasticity) = L::invert(p, lam, s, mu, tau);
        (f, elasticity.min(MAX_ELASTICITY))
    }
}

/// Which end of the water-level bracket a pass landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Over budget: μ is below the water level.
    Lo,
    /// Under budget: μ is above it.
    Hi,
}

/// What one pass at a trial level measured.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// Spend at the level: bandwidth `Σ sᵢfᵢ` for a water level, cost
    /// `Σ cᵢfᵢ` for a levy.
    used: f64,
    /// `−d used/d ln level`; for a water level `Σ sᵢfᵢEᵢ`, each elasticity
    /// capped.
    slope: f64,
    /// Kernel steps taken.
    steps: usize,
}

/// A problem as [`LagrangeSolver::water_level`] sees it: a spend that
/// falls monotonically in one level.
trait WaterFill {
    /// Whether each fill is an allocation pass, recorded as a
    /// `solver.outer` event; the histogram's model passes are not.
    const PASSES: bool = true;
    /// Allocate at level `mu`.
    fn fill(&mut self, mu: f64) -> Result<Pass>;
    /// Keep the last pass's allocation as the bracket's `end`.
    fn keep(&mut self, end: End);
    /// A next trial level and its phase name from the last fill, `pass`
    /// at level `mu`, that a budget search to `tol` should take before
    /// its Newton step, if the fill can offer one.
    fn zone_step(
        &self,
        _mu: f64,
        _pass: &Pass,
        _budget: f64,
        _tol: f64,
    ) -> Option<(f64, &'static str)> {
        None
    }
}

/// Where the water-level search stopped.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// The converged level, or the bracket's low end after a straddle.
    mu: f64,
    /// Spend at `mu` (the budget itself after a straddle).
    used: f64,
    /// Passes spent.
    passes: usize,
    /// Kernel steps spent.
    steps: usize,
    /// `(used_lo, used_hi)` of the kept ends when the bracket closed on a
    /// straddle; their allocations blend to the budget.
    straddle: Option<(f64, f64)>,
}

/// What a pass records for the zone step: the zone, the elements with
/// `λτ/p ∈ [e^{−W}, e^{W}]` ([`ZONE_WIDTH`]), and the sums over the
/// funded bulk, every other element.
#[derive(Debug, Clone, Default)]
struct Zone {
    /// Packed indices of the zone's elements, ascending.
    members: Vec<usize>,
    /// The bulk's spend `Σ sᵢfᵢ`.
    bulk_used: f64,
    /// The bulk's slope `Σ sᵢfᵢEᵢ`, `−d/d ln μ` of its spend.
    bulk_slope: f64,
    /// The bulk's curvature `Σ sᵢ·d²fᵢ/d(ln μ)²`.
    bulk_curvature: f64,
}

/// A law's curvature of one funded element's frequency in `ln μ`, from
/// the kernel's outputs: the bulk's second-order term in a zone step.
/// Outside the zone no elasticity reaches [`MAX_ELASTICITY`], so `E`
/// here is exact.
trait Curvature: FreshnessLaw {
    /// `d²f/d(ln μ)²` for change rate `λ`, frequency `f > 0`, elasticity
    /// `E` and level share `ρ = μs/τ`.
    fn curvature(lam: f64, f: f64, elasticity: f64, rho: f64) -> f64;
}

impl Curvature for FixedOrder {
    /// With `x = λ/f`, `E = ρ·φ(x)/(x²e^{−x})` and `dx/d ln τ = xE/ρ`, so
    /// `d²f/d(ln μ)² = f·((3 − x)E² − E)`: `ρ` cancels, and `f·x = λ`
    /// spares the division.
    #[inline]
    fn curvature(lam: f64, f: f64, elasticity: f64, _rho: f64) -> f64 {
        (3.0 * f - lam) * elasticity * elasticity - f * elasticity
    }
}

impl Curvature for Poisson {
    /// `f + λ = √(pλ/τ)` falls as `τ^{−1/2}`, so
    /// `d²f/d(ln μ)² = f·E·(3ρ/2 − 1)`.
    #[inline]
    fn curvature(_lam: f64, f: f64, elasticity: f64, rho: f64) -> f64 {
        f * elasticity * (1.5 * rho - 1.0)
    }
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
    /// The last pass's zone (see [`LagrangeSolver::allocate`]).
    zone: Option<Zone>,
}

impl PackedFill<'_> {
    /// The spend `Σ sᵢfᵢ` of the packed elements `zone` at level `mu`,
    /// each evaluated by the kernel, and its slope `Σ sᵢfᵢEᵢ`.
    fn zone_spend(&self, zone: &[usize], mu: f64) -> (f64, f64) {
        let cols = &*self.cols;
        let (mut used, mut slope) = (NeumaierSum::new(), 0.0f64);
        for &k in zone {
            let s = cols.s()[k];
            let (p, lam, c) = (cols.p()[k], cols.lambda()[k], cols.c()[k]);
            let (f, elasticity) = self.solver.water_fill(p, lam, s, c, mu);
            used.add(s * f);
            slope += s * f * elasticity;
        }
        (used.total(), slope)
    }
}

impl WaterFill for PackedFill<'_> {
    fn fill(&mut self, mu: f64) -> Result<Pass> {
        let (pass, zone) = self.solver.allocate(self.chunks, self.cols, mu);
        self.zone = zone;
        Ok(pass)
    }

    fn keep(&mut self, end: End) {
        self.cols.swap_f(match end {
            End::Lo => &mut self.lo,
            End::Hi => &mut self.hi,
        });
    }

    /// The zone step: the root, within [`ZONE_STEP`] of `ln μ`, of
    ///
    /// ```text
    /// U_bulk·exp(−E·d + κ·d²/2) + Σ_zone sᵢ·fᵢ(μ′) = B,   d = ln(μ′/μ),
    /// ```
    ///
    /// where the bulk (the pass minus its zone) spends `U_bulk` with
    /// log-slope `−E` and log-curvature `κ`, and each zone element is
    /// evaluated by the kernel. No bulk element changes its funding
    /// inside the window, so the bulk's spend is smooth there and its
    /// second-order expansion follows it to third order; the zone holds
    /// every threshold the spend can jump at. The root is found by Newton
    /// in `ln μ′` on the model, bisecting whenever a step fails to halve
    /// the bracket.
    ///
    /// When the bracket closes to `tol/4` without the model spending `B`
    /// to `tol/4`, the spend jumps across `B` at a zone element's
    /// threshold inside it, and the step goes to the side of that
    /// threshold the pass is on; a pass already within `tol/2` of the
    /// threshold steps to the other side instead, so the search's bracket
    /// closes there and the two ends blend (phase `straddle`).
    fn zone_step(
        &self,
        mu: f64,
        pass: &Pass,
        budget: f64,
        tol: f64,
    ) -> Option<(f64, &'static str)> {
        let zone = self.zone.as_ref()?;
        let u0 = mu.ln();
        let bulk = zone.bulk_used;
        let (elasticity, kappa) = if bulk > 0.0 {
            let elasticity = zone.bulk_slope / bulk;
            (
                elasticity,
                zone.bulk_curvature / bulk - elasticity * elasticity,
            )
        } else {
            (0.0, 0.0)
        };
        // The model's spend minus B at ln μ′ = u, and its slope −d/du.
        let model = |u: f64| {
            let (used, slope) = self.zone_spend(&zone.members, u.exp());
            let d = u - u0;
            let bulk = bulk * (d * (0.5 * kappa * d - elasticity)).exp();
            (
                bulk + used - budget,
                (elasticity - kappa * d) * bulk + slope,
            )
        };
        // Bracket the model's root inside the window: r(a) > 0 ≥ r(b).
        let over = pass.used > budget;
        let far = if over { u0 + ZONE_STEP } else { u0 - ZONE_STEP };
        if (model(far).0 > 0.0) == over {
            return None; // the root lies outside the window
        }
        let (mut a, mut b) = if over { (u0, far) } else { (far, u0) };
        let (mut u, mut r, mut slope) = (u0, pass.used - budget, pass.slope);
        let mut halved = true;
        for _ in 0..ZONE_ITERS {
            let newton = u + r / slope;
            let width = b - a;
            u = if halved && newton > a && newton < b {
                newton
            } else {
                0.5 * (a + b)
            };
            (r, slope) = model(u);
            if r.abs() <= 0.25 * tol * budget {
                return Some((u.exp(), "zone"));
            }
            if r > 0.0 {
                a = u;
            } else {
                b = u;
            }
            halved = b - a <= 0.5 * width;
            if b - a <= 0.25 * tol {
                return Some(match over {
                    true if b - u0 <= 0.5 * tol => (b.exp(), "straddle"),
                    true => (a.exp(), "zone"),
                    false if u0 - a <= 0.5 * tol => (a.exp(), "straddle"),
                    false => (b.exp(), "zone"),
                });
            }
        }
        None
    }
}

/// The cold start's [`WaterFill`]: the spend model of
/// [`LagrangeSolver::histogram_root`], one unit-inversion term per
/// histogram bucket. It keeps no allocation and records no passes.
struct HistFill<'a> {
    solver: &'a LagrangeSolver,
    buckets: &'a [Bucket],
}

impl WaterFill for HistFill<'_> {
    const PASSES: bool = false;

    /// A bucket below [`HIST_SMOOTH`] spends `W·G(μā)`. One above it is
    /// spread evenly over `ln y ∈ [ln(μā) − h/2, ln(μā) + h/2]`, its width
    /// `h` centred on its mean, and spends `W/h·∫G(e^t)dt` over the part of
    /// that range below the threshold `t = 0`, by the midpoint rule; its
    /// slope is `W/h·(G(y_lo) − G(y_hi))` at the range's ends. So the
    /// model is continuous across each bucket's threshold.
    fn fill(&mut self, mu: f64) -> Result<Pass> {
        // Zero cost: the unit term carries no levy.
        let unit = |y: f64| self.solver.water_fill(1.0, 1.0, 1.0, 0.0, y);
        let (mut used, mut slope) = (NeumaierSum::new(), 0.0f64);
        for &Bucket { w, a, h } in self.buckets {
            let y = mu * a;
            if y < HIST_SMOOTH {
                let (g, elasticity) = unit(y);
                used.add(w * g);
                slope += w * g * elasticity;
                continue;
            }
            let (lo, hi) = (y.ln() - 0.5 * h, y.ln() + 0.5 * h);
            let funded = hi.min(0.0) - lo;
            if funded.is_nan() || funded <= 0.0 {
                continue; // starved, or an `a` of ∞, whose range is NaN
            }
            let step = funded / HIST_SLICES as f64;
            let sum: f64 = (0..HIST_SLICES)
                .map(|k| unit((lo + (k as f64 + 0.5) * step).exp()).0)
                .sum();
            used.add(w * sum * step / h);
            slope += w / h * (unit(lo.exp()).0 - unit(hi.exp()).0);
        }
        Ok(Pass {
            used: used.total(),
            slope,
            steps: 0,
        })
    }

    fn keep(&mut self, _end: End) {}
}

/// One bucket of the spend histogram.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// `W = Σλs` over the bucket's elements.
    w: f64,
    /// The `λs`-weighted mean `ā` of their `a = λs/p`.
    a: f64,
    /// The bucket's width in `ln a`.
    h: f64,
}

/// The key of `a`'s histogram bucket: its exponent and top [`HIST_BITS`]
/// mantissa bits (`a` is positive, so the sign bit is 0).
fn bucket_key(a: f64) -> usize {
    (a.to_bits() >> (52 - HIST_BITS)) as usize
}

/// One chunk's spend histogram: `(key, Σλs, Σλs·a)` for each occupied
/// bucket, ascending in key, given the chunk's `λ`, `s` and `a = λs/p`.
fn chunk_histogram(lam: &[f64], s: &[f64], a: &[f64]) -> Vec<(usize, f64, f64)> {
    let (lo, hi) = a.iter().fold((usize::MAX, 0), |(lo, hi), &a| {
        (lo.min(bucket_key(a)), hi.max(bucket_key(a)))
    });
    let mut table = vec![(0.0f64, 0.0f64); hi.saturating_sub(lo) + 1];
    for ((&lam, &s), &a) in lam.iter().zip(s).zip(a) {
        let (w, cell) = (lam * s, &mut table[bucket_key(a) - lo]);
        *cell = (cell.0 + w, cell.1 + w * a);
    }
    (lo..)
        .zip(table)
        .filter(|&(_, (w, _))| w > 0.0)
        .map(|(key, (w, wa))| (key, w, wa))
        .collect()
}

/// Merge the chunks' histograms in chunk order into one [`Bucket`] per
/// occupied key, ascending in `a`.
fn merge_histograms(parts: Vec<Vec<(usize, f64, f64)>>) -> Vec<Bucket> {
    let lo = parts
        .iter()
        .filter_map(|part| part.first())
        .map(|b| b.0)
        .min();
    let hi = parts
        .iter()
        .filter_map(|part| part.last())
        .map(|b| b.0)
        .max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Vec::new();
    };
    let mut table = vec![(0.0f64, 0.0f64); hi - lo + 1];
    for &(key, w, wa) in parts.iter().flatten() {
        let cell = &mut table[key - lo];
        *cell = (cell.0 + w, cell.1 + wa);
    }
    let edge = |key: usize| f64::from_bits((key as u64) << (52 - HIST_BITS));
    (lo..)
        .zip(table)
        .filter(|&(_, (w, _))| w > 0.0)
        .map(|(key, (w, wa))| Bucket {
            w,
            a: wa / w,
            h: (edge(key + 1) / edge(key)).ln(),
        })
        .collect()
}

/// The cost-budget search's [`WaterFill`] over one gathered column set: a
/// pass at levy γ water-fills the columns at γ, warm from the previous
/// pass's μ, and sweeps them once for the cost spend `Σ cᵢfᵢ` and its
/// slope in `ln γ`. Keeping an end swaps the frequency column with the
/// end's buffer; the high end's levy and μ are recorded too.
struct LevyFill<'a> {
    /// The cost-blind solver; each pass sets its levy.
    solver: LagrangeSolver,
    chunks: &'a [Range<usize>],
    cols: &'a mut PackedColumns,
    /// The bandwidth budget `B`.
    bandwidth: f64,
    /// Tolerance of the levied passes and of the levy search.
    tol: f64,
    /// Water level of the last pass.
    mu: f64,
    /// Allocation passes of every pass so far.
    passes: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    hi_end: (f64, f64),
}

impl LevyFill<'_> {
    /// Sweep the columns once, under the law `L`, for the cost spend of
    /// the allocation at levy `gamma` and water level `mu` and its slope
    /// in `ln γ`.
    fn measure<L: FreshnessLaw>(&self, gamma: f64, mu: f64) -> Pass {
        let cols = &*self.cols;
        let mut spend = NeumaierSum::new();
        let (mut acc, mut asc, mut ass) = (0.0f64, 0.0f64, 0.0f64);
        for k in 0..cols.len() {
            let (f, s, c) = (cols.f()[k], cols.s()[k], cols.c()[k]);
            spend.add(c * f);
            if f > 0.0 && gamma > 0.0 {
                let tau = mu * s + gamma * c;
                let (p, lam) = (cols.p()[k], cols.lambda()[k]);
                let a = f * self.solver.kernel::<L>(p, lam, 1.0, 0.0, tau).1 / tau;
                (acc, asc, ass) = (acc + a * c * c, asc + a * s * c, ass + a * s * s);
            }
        }
        let slope = if mu > 0.0 { acc - asc * asc / ass } else { acc };
        Pass {
            used: spend.total(),
            slope: gamma * slope,
            steps: 0, // the inner passes count their own
        }
    }
}

impl WaterFill for LevyFill<'_> {
    fn fill(&mut self, gamma: f64) -> Result<Pass> {
        self.solver.cost_weight = gamma;
        // The plain (γ = 0) pass is the cold solve `solve` runs, at the
        // solver's own tolerance; levied passes start warm and run to the
        // levy search's.
        let (hint, tol) = if gamma > 0.0 {
            (Some(self.mu), self.tol)
        } else {
            (None, self.solver.budget_tol)
        };
        let (mu, passes) =
            self.solver
                .fill_columns(self.cols, self.chunks, self.bandwidth, hint, tol)?;
        (self.mu, self.passes) = (mu, self.passes + passes);

        // With τ = μs + γc, E = −d ln f/d ln τ and a = fE/τ, a levy step
        // moves f by −a·dτ. Holding Σsf = B re-solves μ with
        // dμ/dγ = −Σasc/Σas², so −d spend/d ln γ is
        // γ·(Σac² − (Σasc)²/Σas²), or γ·Σac² when μ = 0. The kernel at
        // unit size, no levy and level τ returns E whole.
        Ok(match self.solver.policy {
            SyncPolicy::FixedOrder => self.measure::<FixedOrder>(gamma, mu),
            SyncPolicy::Poisson => self.measure::<Poisson>(gamma, mu),
        })
    }

    fn keep(&mut self, end: End) {
        match end {
            End::Lo => self.cols.swap_f(&mut self.lo),
            End::Hi => {
                self.cols.swap_f(&mut self.hi);
                self.hi_end = (self.solver.cost_weight, self.mu);
            }
        }
    }
}

/// Level estimate from the small-`x` law `φ(x) ≈ x²/2`, under which
/// `f = √(pλ/(2μs))` and the spend is `μ^{−1/2}·Σ√(pλs/2)`: the level
/// that spends `budget` under that law, given `root_sum`, the sum of the
/// elements' [`sqrt_law_term`]s (or of the histogram buckets' `W/√(2ā)`).
/// Since `φ(x) ≤ x²/2`, the true spend there is at most `budget`, so the
/// estimate sits at or above the water level; it is kept below
/// `mu_limit`. It starts the levy search and the histogram's own search.
fn sqrt_law_level(root_sum: f64, budget: f64, mu_limit: f64) -> f64 {
    let level = (root_sum / budget).powi(2);
    if level > 0.0 && level < mu_limit {
        level
    } else {
        0.5 * mu_limit
    }
}

/// One element's `√(pλs/2)`, its term of [`sqrt_law_level`]'s sum.
#[inline]
fn sqrt_law_term(p: f64, lam: f64, s: f64) -> f64 {
    (0.5 * p * lam * s).sqrt()
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

    /// The Zipf instances of the benchmark's certified-plan workload at a
    /// smaller `n`: Zipf(0.9) interest over a random ranking, change rates
    /// `0.05 + 4u²` with `u` a golden-ratio sequence over the ranks, sizes
    /// `U(0.5, 1.5)` and a budget of `n/4`.
    fn zipf_plan(n: usize, seed: u64) -> Problem {
        let mut rng = freshen_core::rng::SplitMix64::new(seed);
        let mut by_rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut by_rank);
        let (mut rates, mut weights) = (vec![0.0; n], vec![0.0; n]);
        for (r, &i) in by_rank.iter().enumerate() {
            let u = ((r + 1) as f64 * 0.618_033_988_749_894_9).fract();
            rates[i] = 0.05 + 4.0 * u * u;
            weights[i] = ((r + 1) as f64).powf(-0.9);
        }
        Problem::builder()
            .change_rates(rates)
            .access_weights(weights)
            .sizes((0..n).map(|_| 0.5 + rng.next_f64()).collect())
            .bandwidth(n as f64 / 4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn stop_rule_certifies_every_solve_in_no_more_passes() {
        // The water level stops at the certificate's own budget allowance,
        // 1e-8·B; the snap then moves each funded marginal by at most
        // about 2e-8 of its threshold. Every solve must certify inside
        // that bound and spend the budget, and none may take more passes
        // than the 1e-10 stop rule it replaces.
        let tight = |policy| LagrangeSolver {
            policy,
            budget_tol: 1e-10,
            ..Default::default()
        };
        // Both laws on the striped grid and on the Zipf instances. Under
        // Poisson, seed 41's instance funds element 11455 at 5.3e-6, a
        // share below the certificate's support cut, so slackness checks
        // it at that frequency.
        let mut instances: Vec<Problem> = [300, 1000, 3000, 10_000]
            .into_iter()
            .flat_map(|n| [0.7, 1.1, 1.35, 2.0, 6.0].map(|tilt| striped(n, tilt)))
            .collect();
        instances.extend([5, 23, 31, 41].map(|seed| zipf_plan(30_000, seed)));
        let (mut passes, mut before) = (0, 0);
        for (k, problem) in instances.iter().enumerate() {
            for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
                let solver = LagrangeSolver {
                    policy,
                    ..Default::default()
                };
                let sol = solver.solve(problem).unwrap();
                let report = SolutionAudit::default()
                    .check(problem, &sol, policy)
                    .unwrap();
                assert!(report.is_clean(), "{k} {policy:?}: {}", report.to_json());
                assert!(
                    report.max_spread <= 2.1e-8,
                    "{k} {policy:?}: {}",
                    report.to_json()
                );
                // The snap rounds once per element, so the spend can land
                // an ulp of B off under either stop rule.
                let ulp = f64::EPSILON * problem.bandwidth();
                assert!(report.budget_residual <= 2.0 * ulp, "{k} {policy:?}");
                let old = tight(policy).solve(problem).unwrap();
                assert!(
                    sol.iterations <= old.iterations,
                    "{k} {policy:?}: {} passes vs {}",
                    sol.iterations,
                    old.iterations
                );
                let pf_shift = (sol.perceived_freshness - old.perceived_freshness).abs();
                assert!(
                    pf_shift <= 1e-12 * old.perceived_freshness,
                    "{k} {policy:?}"
                );
                (passes, before) = (passes + sol.iterations, before + old.iterations);
            }
        }
        assert!(passes < before, "{passes} passes vs {before}");
    }

    /// The striped grid and the plan-like Zipf instances, each under both
    /// laws.
    fn search_instances() -> Vec<(String, Problem)> {
        let mut instances = Vec::new();
        for n in [300, 500, 1000, 2000, 3000, 5000, 10_000] {
            for tilt in [0.7, 0.9, 1.1, 1.35, 2.0, 4.0, 6.0] {
                instances.push((format!("striped({n}, {tilt})"), striped(n, tilt)));
            }
        }
        for seed in [5, 23, 31, 41] {
            instances.push((format!("zipf_plan(30000, {seed})"), zipf_plan(30_000, seed)));
        }
        instances
    }

    #[test]
    fn cold_solves_take_at_most_three_passes_and_certify() {
        // The histogram's root starts within ~1e-3 of μ* on these
        // instances (1e-5 at 10⁶ elements) and a zone step ends a smooth
        // solve; a straddle takes one more pass. Warm from its own answer,
        // a solve never costs more than cold.
        let mut passes = [0usize; 2];
        for (name, problem) in search_instances() {
            for (k, policy) in [SyncPolicy::FixedOrder, SyncPolicy::Poisson]
                .into_iter()
                .enumerate()
            {
                let solver = LagrangeSolver {
                    policy,
                    ..Default::default()
                };
                let sol = solver.solve(&problem).unwrap();
                let report = SolutionAudit::default()
                    .check(&problem, &sol, policy)
                    .unwrap();
                assert!(report.is_clean(), "{name} {policy:?}: {}", report.to_json());
                assert!(
                    sol.iterations <= 3,
                    "{name} {policy:?}: {} passes",
                    sol.iterations
                );
                let warm = solver
                    .solve_warm(&problem, sol.multiplier.unwrap())
                    .unwrap();
                assert!(
                    warm.iterations <= sol.iterations,
                    "{name} {policy:?}: warm {}",
                    warm.iterations
                );
                passes[k] += sol.iterations;
            }
        }
        // 53 instances: at most a handful of straddles take a third pass.
        assert!(passes.iter().all(|&p| p <= 53 * 2 + 8), "passes {passes:?}");
    }

    #[test]
    fn straddles_close_in_three_passes() {
        // The budget falls inside one element's float-width jump at its
        // starvation threshold. Newton and Illinois took 17–30 passes to
        // shrink the bracket to tol·μ here (15 on scale_problem(100000));
        // the zone names the threshold, so one pass lands beside it, one
        // on its other side, and the two ends blend.
        let cases = [
            ("striped(500, 0.7)", striped(500, 0.7)),
            ("striped(500, 1.1)", striped(500, 1.1)),
            ("striped(1000, 1.35)", striped(1000, 1.35)),
            ("scale_problem(100000)", scale_problem(100_000)),
        ];
        for (name, problem) in cases {
            let rec = Recorder::enabled();
            let solver = LagrangeSolver::default().with_recorder(rec.clone());
            let sol = solver.solve(&problem).unwrap();
            let journal = rec.metrics_json().unwrap();
            assert!(journal.contains("straddle"), "{name}: no straddle step");
            assert!(sol.iterations <= 3, "{name}: {} passes", sol.iterations);
            let report = SolutionAudit::default()
                .check(&problem, &sol, solver.policy)
                .unwrap();
            assert!(report.is_clean(), "{name}: {}", report.to_json());
            let warm = solver
                .solve_warm(&problem, sol.multiplier.unwrap())
                .unwrap();
            assert!(
                warm.iterations <= 2,
                "{name}: warm {} passes",
                warm.iterations
            );
        }
    }

    #[test]
    fn pool_solves_match_serial_on_the_search_instances() {
        // The histogram merges its chunks in chunk order and the zones
        // concatenate in chunk order, so every trial level, and with it
        // the solution, is the same at any worker count.
        let mut instances = search_instances();
        instances.push(("scale_problem(100000)".into(), scale_problem(100_000)));
        for (name, problem) in instances {
            for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
                let solver = LagrangeSolver {
                    policy,
                    ..Default::default()
                };
                let serial = solver.solve(&problem).unwrap();
                for workers in [1, 2, 3] {
                    let pooled = solver
                        .clone()
                        .with_executor(Executor::thread_pool(workers))
                        .solve(&problem)
                        .unwrap();
                    let case = format!("{name} {policy:?} workers={workers}");
                    assert_eq!(serial.frequencies, pooled.frequencies, "{case}");
                    assert_eq!(serial.multiplier, pooled.multiplier, "{case}");
                    assert_eq!(serial.iterations, pooled.iterations, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_crowd_at_one_threshold_falls_back_to_newton_and_certifies() {
        // 20,000 identical elements share one threshold, and the budget
        // sits inside their joint jump: the zone is the whole pass, far
        // past its share, so the search keeps to Newton and Illinois
        // steps. It must still blend the straddle, certify, and match the
        // pool bit for bit.
        let (n, hot) = (20_000, 50);
        let (p_hot, p_cold) = (0.01, 0.5 / n as f64);
        let solver = LagrangeSolver::default();
        // At the crowd's threshold μ = p_cold the hot elements spend this;
        // the crowd then spends up to n/40, and 0.01 each is inside that.
        let f_hot = solver.element_frequency(p_hot, 1.0, 1.0, p_cold);
        let problem = Problem::builder()
            .change_rates(vec![1.0; n + hot])
            .access_probs(
                (0..n + hot)
                    .map(|i| if i < hot { p_hot } else { p_cold })
                    .collect(),
            )
            .bandwidth(hot as f64 * f_hot + n as f64 * 0.01)
            .build()
            .unwrap();
        let sol = solver.solve(&problem).unwrap();
        let report = SolutionAudit::default()
            .check(&problem, &sol, solver.policy)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(sol.iterations <= 60, "{} passes", sol.iterations);
        let pooled = solver
            .with_executor(Executor::thread_pool(2))
            .solve(&problem)
            .unwrap();
        assert_eq!(sol.frequencies, pooled.frequencies);
    }

    #[test]
    fn kernel_curvature_matches_finite_difference() {
        // The bulk's second-order term: d²f/d(ln μ)² from (λ, f, E, ρ).
        fn check<L: Curvature>(policy: SyncPolicy) {
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
                    let h = 1e-4f64;
                    let up = solver.water_fill(p, lam, s, c, mu * h.exp()).0;
                    let down = solver.water_fill(p, lam, s, c, mu * (-h).exp()).0;
                    let numeric = (up - 2.0 * f + down) / (h * h);
                    let rho = mu * s / (mu * s + gamma * c);
                    let exact = L::curvature(lam, f, elasticity, rho);
                    assert!(
                        (numeric - exact).abs() <= 1e-4 * f * (1.0 + elasticity * elasticity),
                        "{policy:?} γ={gamma} μ={mu}: numeric {numeric} vs {exact}"
                    );
                }
            }
        }
        check::<FixedOrder>(SyncPolicy::FixedOrder);
        check::<Poisson>(SyncPolicy::Poisson);
    }

    #[test]
    fn kernel_elasticity_is_at_least_one_half() {
        // E = −d ln f/d ln μ ≥ ½ for every funded element of either law:
        // the bound behind the 1e-8 stop rule.
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let solver = LagrangeSolver {
                policy,
                ..Default::default()
            };
            let ys = (0..=130)
                .map(|k| 10f64.powf(-14.0 + k as f64 * 0.1))
                .chain((1..200).map(|k| k as f64 / 200.0))
                .chain((10..=130).map(|k| 1.0 - 10f64.powf(-k as f64 * 0.1)));
            for y in ys {
                for (p, lam, s) in [(0.7, 0.3, 1.3), (0.05, 2.5, 0.5)] {
                    let mu = y * p / (lam * s);
                    let (f, elasticity) = solver.water_fill(p, lam, s, 1.0, mu);
                    assert!(f > 0.0, "{policy:?} y={y:e}");
                    assert!(elasticity >= 0.5, "{policy:?} y={y:e}: E = {elasticity}");
                }
            }
        }
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
        // The histogram's start is exact on a five-element toy (one pass),
        // so this runs on a plan-like instance, where it is within ~1e-5:
        // a hint at the exact μ* converges in one pass, the cold solve in
        // two.
        let problem = zipf_plan(30_000, 5);
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
            "the levy search should spend close to the cap: {spend} vs {cap}"
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

    /// [`striped`] with per-poll costs `0.5 + 0.4·(i mod 7)`.
    fn striped_costed(n: usize, tilt: f64) -> Problem {
        let base = striped(n, tilt);
        Problem::builder()
            .change_rates(base.change_rates().to_vec())
            .access_probs(base.access_probs().to_vec())
            .costs((0..n).map(|i| 0.5 + 0.4 * (i % 7) as f64).collect())
            .bandwidth(base.bandwidth())
            .build()
            .unwrap()
    }

    #[test]
    fn cost_budget_blends_a_levy_straddle_to_spend_the_cap() {
        // The spend jumps across this cap at one element's starvation
        // threshold, so no float levy spends it. Returning the feasible
        // end left 0.26% of the cap unspent at a positive levy; the blend
        // of both ends spends the cap.
        let problem = striped_costed(100, 0.7);
        let solver = LagrangeSolver::default();
        let plain = solver.solve(&problem).unwrap();
        let cap = 0.45 * problem.cost_used(&plain.frequencies);
        let sol = solver.solve_cost_budget(&problem, cap).unwrap();
        let spend = problem.cost_used(&sol.frequencies);
        assert!(
            (spend - cap).abs() <= cap * 1e-12,
            "spend {spend} vs cap {cap}"
        );
        let gamma = sol.cost_multiplier.expect("binding cap ⇒ positive levy");
        let report = SolutionAudit::default()
            .check_with_cost(&problem, &sol, solver.policy, gamma)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
    }

    #[test]
    fn cost_budget_spends_binding_caps_and_certifies_on_the_striped_grid() {
        // 228 binding caps, k/20 of the plain solve's cost spend. Each
        // solve must spend its cap to within [C(1 − 1e-9), C(1 + tol)] and
        // certify at its levy. The γ bisection took 23,629 passes here;
        // the levy search must take at most two thirds of that.
        let solver = LagrangeSolver::default();
        let mut passes = 0;
        for n in [100, 300, 1000] {
            for tilt in [0.7, 1.0, 1.35, 2.0] {
                let problem = striped_costed(n, tilt);
                let plain = solver.solve(&problem).unwrap();
                let spend0 = problem.cost_used(&plain.frequencies);
                for k in 1..20 {
                    let cap = spend0 * k as f64 / 20.0;
                    let sol = solver.solve_cost_budget(&problem, cap).unwrap();
                    let spend = problem.cost_used(&sol.frequencies);
                    assert!(
                        spend >= cap * (1.0 - 1e-9) && spend <= cap * (1.0 + solver.budget_tol),
                        "n={n} tilt={tilt} k={k}: spend {spend} vs cap {cap}"
                    );
                    let gamma = sol.cost_multiplier.expect("binding cap ⇒ positive levy");
                    let report = SolutionAudit::default()
                        .check_with_cost(&problem, &sol, solver.policy, gamma)
                        .unwrap();
                    assert!(
                        report.is_clean(),
                        "n={n} tilt={tilt} k={k}: {}",
                        report.to_json()
                    );
                    passes += sol.iterations;
                }
            }
        }
        assert!(passes * 3 <= 23_629 * 2, "{passes} passes");
    }

    #[test]
    fn cost_budget_keeps_its_tolerance_under_the_looser_stop_rule() {
        // The cost spend is not snapped, so the levy search keeps 1e-10
        // while plain solves stop at 1e-8; a caller's tighter tolerance
        // wins.
        for budget_tol in [1e-8, 1e-12] {
            let solver = LagrangeSolver {
                budget_tol,
                ..Default::default()
            };
            let tol = budget_tol.min(COST_BUDGET_TOL);
            for tilt in [0.7, 1.35, 4.0] {
                let problem = striped_costed(1000, tilt);
                let plain = solver.solve(&problem).unwrap();
                for share in [0.3, 0.6, 0.9] {
                    let cap = share * problem.cost_used(&plain.frequencies);
                    let sol = solver.solve_cost_budget(&problem, cap).unwrap();
                    let spend = problem.cost_used(&sol.frequencies);
                    assert!(
                        (spend - cap).abs() <= cap * tol,
                        "tol={budget_tol} tilt={tilt} share={share}: {spend} vs {cap}"
                    );
                }
            }
        }
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
