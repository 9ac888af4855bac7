//! Incremental KKT repair: patch a previous optimum after localized drift
//! instead of re-running the full water-level search.
//!
//! The periodic re-solve loop (`freshen-heuristics`' `AdaptiveScheduler`)
//! usually faces *localized* drift: a handful of elements changed their
//! rates or interest while the rest of the problem — and therefore the
//! water level `μ*` — barely moved. A full warm re-solve still pays
//! `O(passes · N)`: its Newton search starts at the old `μ*` but has no
//! way to know which elements moved, so every pass re-evaluates every
//! element.
//!
//! Repair exploits what the full search cannot know:
//!
//! 1. **The untouched elements are already at their optimum for the old
//!    multiplier `μ0`.** Their bandwidth at `μ0` is known without a pass,
//!    and a linear model of their response (a sampled analytic slope,
//!    then secants measured between exact passes) lets a cheap
//!    `O(|touched|)` frontier Newton converge `μ` before the first full
//!    pass.
//! 2. **Warm per-element solves start next to their roots.** Seeded from
//!    the previous frequency, each element's Newton root find converges
//!    in 1–3 steps, and the budget residual's analytic derivative
//!    `dR/dμ = Σ_{f>0} s²/(p·g′(f))` falls out of the same pass.
//!
//! The touched set steers *seeding only*: touched elements are re-solved
//! cold at the previous multiplier (their old frequency may be arbitrarily
//! stale), untouched elements keep their previous frequency as the warm
//! seed. Correctness never depends on the touched set being exact, because
//! every probe refines **all** active elements to the full inner tolerance
//! at the probed multiplier.
//!
//! Repair is always paired with certification ("repair then certify"): the
//! caller runs the strict [`SolutionAudit`](freshen_core::SolutionAudit)
//! certificate over the repaired solution and falls back to a full warm
//! re-solve when it fails. See `freshen-heuristics::adaptive`.

use std::ops::Range;

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::{chunk_ranges, DEFAULT_CHUNK};
use freshen_core::numeric::NeumaierSum;
use freshen_core::problem::{Problem, Solution};
use freshen_core::soa::PackedColumns;

use crate::lagrange::{
    blend_bracket_ends, snap_to_budget, LagrangeSolver, MAX_ELASTICITY, STATIC_RATE,
};

/// Hard cap on repair Newton probes (full warm passes over the active
/// set). Far above the typical 1–3; hitting it means the drift was global
/// after all and the caller should fall back to a full re-solve.
const MAX_PROBES: usize = 40;

/// Cap on frontier-only Newton probes (each is `O(|touched|)`, so these
/// are nearly free relative to a full pass). The model converges in 3–5
/// probes when the drift really was local.
const FRONTIER_PROBES: usize = 12;

/// Stride for the sampled analytic rest-slope estimate accumulated during
/// the reseed pass. Every `SLOPE_SAMPLE_STRIDE`-th untouched element pays
/// one extra derivative evaluation; the sampled slope, rescaled by the
/// sampled-vs-total bandwidth ratio, aims the frontier Newton phase. The
/// aim only has to be right to a few percent (the first exact pass
/// measures the true secant), so a 1-in-16 sample is plenty — and ~6% of
/// the cost of evaluating every element.
const SLOPE_SAMPLE_STRIDE: usize = 16;

/// Linear model of the non-frontier ("rest") bandwidth around an anchor
/// multiplier: `rest(μ) ≈ used + slope·(μ − anchor_mu)`. Drives the cheap
/// frontier Newton iteration between (and before) exact passes.
struct RestModel {
    /// Multiplier the model is anchored at.
    anchor_mu: f64,
    /// Rest bandwidth at the anchor.
    used: f64,
    /// d(rest bandwidth)/dμ at the anchor.
    slope: f64,
    /// Bandwidth budget the residual is taken against.
    budget: f64,
}

/// A repaired solution plus the work it took, for instrumentation and for
/// the repair-vs-full-re-solve benchmark columns.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired (budget-exact, KKT-stationary) solution.
    pub solution: Solution,
    /// Multiplier probes spent (each probe is one warm pass over the
    /// active set).
    pub probes: usize,
    /// Total inner Newton iterations across all probes.
    pub inner_iters: usize,
}

impl LagrangeSolver {
    /// Repair `previous` after drift touched the elements in `touched`
    /// (original problem indices; an empty slice means "seeding comes
    /// entirely from the previous frequencies").
    ///
    /// `problem` is the *post-drift* problem; `previous` is the optimum of
    /// the pre-drift problem. Returns the optimum of `problem` (to the
    /// solver's budget tolerance) or [`CoreError::NoConvergence`] when the
    /// Newton iteration on `μ` fails to settle — the caller's cue to run a
    /// full re-solve.
    ///
    /// Errors with [`CoreError::LengthMismatch`] when `previous` does not
    /// match the problem size and [`CoreError::InvalidValue`] when it
    /// carries no usable multiplier: repair *requires* a warm `μ` seed.
    pub fn repair(
        &self,
        problem: &Problem,
        previous: &Solution,
        touched: &[usize],
    ) -> Result<RepairOutcome> {
        let n = problem.len();
        if previous.frequencies.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "previous solution frequencies",
                expected: n,
                actual: previous.frequencies.len(),
            });
        }
        let mu0 = previous.multiplier.unwrap_or(f64::NAN);
        if !(mu0.is_finite() && mu0 > 0.0) {
            return Err(CoreError::InvalidValue {
                what: "previous solution multiplier",
                index: None,
                value: mu0,
            });
        }
        if !self.cost_weight.is_finite() || self.cost_weight < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "solver cost weight",
                index: None,
                value: self.cost_weight,
            });
        }

        let rec = &self.recorder;
        let mut span = rec.span("solver.repair");
        span.arg("n", n);
        span.arg("touched", touched.len());
        rec.counter("solver.repairs").inc();

        // Pack the active set seeded from the previous frequencies. The
        // active-set filter matches the full solve exactly, so repair and
        // re-solve agree on which elements can receive bandwidth.
        let p_all = problem.access_probs();
        let lam_all = problem.change_rates();
        let active: Vec<usize> = (0..n)
            .filter(|&i| p_all[i] > 0.0 && lam_all[i] > STATIC_RATE)
            .collect();
        let mut cols = PackedColumns::gather_seeded(problem, &active, &previous.frequencies);
        let chunks = chunk_ranges(cols.len(), DEFAULT_CHUNK);
        let budget = problem.bandwidth();

        if cols.is_empty() {
            let mut sol = Solution::evaluate_with_policy(problem, vec![0.0; n], self.policy);
            sol.multiplier = Some(0.0);
            if self.cost_weight > 0.0 {
                sol.cost_multiplier = Some(self.cost_weight);
            }
            return Ok(RepairOutcome {
                solution: sol,
                probes: 0,
                inner_iters: 0,
            });
        }

        // Full-depth reseed of the touched elements at the old water
        // level: their previous frequency may be arbitrarily stale, so a
        // warm bracket around it could start far from the new root. The
        // packed indices of the touched elements form the *frontier* the
        // cheap Newton phase below iterates on.
        let mut stale = vec![false; n];
        for &i in touched {
            if i < n {
                stale[i] = true;
            }
        }
        let mut inner_total = 0usize;
        let mut frontier: Vec<usize> = Vec::new();
        let mut rest_used0 = NeumaierSum::new();
        let mut slope_sample = NeumaierSum::new();
        let mut used_sample = NeumaierSum::new();
        let mut rest_seen = 0usize;
        {
            let (ro, f) = cols.parts_mut();
            for (k, &i) in ro.ids.iter().enumerate() {
                if stale[i] {
                    let (fi, iters) = self.element_frequency_counted(
                        ro.p[k],
                        ro.lambda[k],
                        ro.s[k],
                        ro.c[k],
                        mu0,
                    );
                    f[k] = fi;
                    inner_total += iters;
                    frontier.push(k);
                } else {
                    rest_used0.add(ro.s[k] * f[k]);
                    if rest_seen.is_multiple_of(SLOPE_SAMPLE_STRIDE) {
                        slope_sample.add(self.slope_term(
                            ro.p[k],
                            ro.lambda[k],
                            ro.s[k],
                            f[k],
                            mu0,
                        ));
                        used_sample.add(ro.s[k] * f[k]);
                    }
                    rest_seen += 1;
                }
            }
        }
        let rest_used0 = rest_used0.total();
        // Sampled analytic rest slope, rescaled from the sample's
        // bandwidth to the full rest bandwidth. The Phase-B residual error
        // is proportional to this slope's error, and it propagates
        // multiplicatively through every later secant pass — a measured
        // ~4%-accurate slope instead of the elasticity-1 guess (−used/μ,
        // ~10% off) is routinely the difference between 3 and 4 exact
        // passes.
        let rest_slope0 = {
            let used_s = used_sample.total();
            let slope_s = slope_sample.total();
            if used_s > 0.0 && slope_s < 0.0 {
                slope_s * (rest_used0 / used_s)
            } else {
                -rest_used0 / mu0 // degenerate sample: elasticity-1 guess
            }
        };

        // Frontier Newton: the untouched elements are *already* at their
        // μ0 optimum (they came from the previous solve, whose per-element
        // tolerance matches ours), so their bandwidth at μ0 is known
        // without any root finding, and their aggregate response to a
        // small multiplier move is well approximated to first order. That
        // turns every trial multiplier into an O(|touched|) exact
        // recompute plus an O(1) model term, so the multiplier is already
        // Newton-converged (to model accuracy) before the first full pass.
        // The exact passes below re-anchor the model at every pass —
        // typically 2 of them bracket the tolerance instead of 4–6.
        //
        // The anchor slope is the sampled analytic estimate from the
        // reseed pass; the first exact pass replaces it with the measured
        // secant, so it only has to be right to a few percent to aim the
        // first pass well.
        let mut mu = self.frontier_newton(
            &mut cols,
            &frontier,
            &RestModel {
                anchor_mu: mu0,
                used: rest_used0,
                slope: rest_slope0,
                budget,
            },
            mu0,
            (mu0 / 64.0, mu0 * 64.0),
            &mut inner_total,
        );

        // Safeguarded Newton on the scalar budget residual
        // R(μ) = Σ s·f(μ) − B, with the analytic dR/dμ accumulated by the
        // same warm pass. Bracket sides are learned from probe signs
        // (R > 0 ⇔ μ too low) and guard the Newton step.
        //
        // Only *exact* passes may set a bracket side. The reseed pass's
        // `rest_used0` is exact exactly when the drift really was
        // confined to the touched set; when it was not (the drift monitor
        // under-reported), the untouched seeds are the *old* problem's
        // optimum — budget-snapped, so the μ0 residual they imply is ≈ 0
        // even though the true residual at μ0 is large. Treating that
        // phantom sign as a bracket side pins the search at μ0 (`repair`
        // then diverges and the certify path runs a needless full
        // re-solve). As model anchors the stale values are harmless:
        // model and secant steps only *propose* multipliers, and every
        // proposal is checked against brackets measured by true passes.
        let mut mu_lo = 0.0f64; // largest μ seen with R > 0 (over budget)
        let mut mu_hi = f64::INFINITY; // smallest μ seen with R < 0

        // Spend and allocation measured at each bracket end, for the
        // straddle blend when the bracket runs out of resolution. They are
        // kept from the probes because re-measuring them later starts the
        // warm inner solves elsewhere, and the re-measured spends need not
        // straddle the budget.
        let (mut used_lo, mut f_lo) = (0.0f64, Vec::new());
        let (mut used_hi, mut f_hi) = (0.0f64, Vec::new());
        let mut probes = 0usize;
        let mut converged = false;
        let mut used = 0.0f64;
        let mut prev_mu = mu0;
        let mut prev_rest_used = rest_used0;
        while probes < MAX_PROBES {
            probes += 1;
            let (pass_used, drdmu, inner) = self.warm_pass(&chunks, &mut cols, mu);
            used = pass_used;
            inner_total += inner;
            let residual = used - budget;
            rec.event(
                "solver.repair.probe",
                &[
                    ("iter", &probes),
                    ("mu", &mu),
                    ("residual", &(residual / budget)),
                ],
            );
            if residual.abs() <= budget * self.budget_tol {
                converged = true;
                break;
            }
            if residual > 0.0 {
                if mu >= mu_lo {
                    (mu_lo, used_lo) = (mu, used);
                    f_lo.clear();
                    f_lo.extend_from_slice(cols.f());
                }
            } else if mu <= mu_hi {
                (mu_hi, used_hi) = (mu, used);
                f_hi.clear();
                f_hi.extend_from_slice(cols.f());
            }
            // Step selection: re-anchor the frontier model at this pass
            // with a *secant* rest slope measured between the last two
            // exact passes, then let the cheap frontier iteration converge
            // the next multiplier against it. The secant beats the
            // analytic `dR/dμ` here because the analytic slope is biased a
            // few percent by starvation-boundary elements (their pointwise
            // derivative wildly overstates their bounded response; see
            // [`MAX_ELASTICITY`]), and a few percent of slope error caps
            // plain Newton at a ~25× residual reduction per pass. The
            // measured secant — kinks and all — plus exact frontier
            // recomputes leaves only second-order model error, so the next
            // pass typically lands inside tolerance. Plain Newton and
            // geometric bisection backstop the model.
            let rest_used_now = {
                let (s, f) = (cols.s(), cols.f());
                let mut front_used = NeumaierSum::new();
                for &k in &frontier {
                    front_used.add(s[k] * f[k]);
                }
                used - front_used.total()
            };
            let rest_secant = if mu != prev_mu {
                (rest_used_now - prev_rest_used) / (mu - prev_mu)
            } else {
                f64::NAN
            };
            let model_mu = if rest_secant.is_finite() && rest_secant < 0.0 {
                let model = RestModel {
                    anchor_mu: mu,
                    used: rest_used_now,
                    slope: rest_secant,
                    budget,
                };
                let bounds = (mu_lo.max(mu / 64.0), mu_hi.min(mu * 64.0));
                self.frontier_newton(&mut cols, &frontier, &model, mu, bounds, &mut inner_total)
            } else {
                f64::NAN
            };
            prev_mu = mu;
            prev_rest_used = rest_used_now;
            let newton = if drdmu < 0.0 {
                mu - residual / drdmu
            } else {
                f64::NAN
            };
            mu = if model_mu.is_finite() && model_mu != mu && model_mu > mu_lo && model_mu < mu_hi {
                model_mu
            } else if newton.is_finite() && newton > mu_lo && newton < mu_hi {
                newton
            } else if mu_hi.is_finite() && mu_lo > 0.0 {
                (mu_lo * mu_hi).sqrt() // geometric bisect inside the bracket
            } else if residual > 0.0 {
                mu * 2.0 // no upper side known yet: march up
            } else {
                mu * 0.5 // no lower side known yet: march down
            };
            if mu_hi.is_finite() && mu_lo > 0.0 && mu_hi - mu_lo <= mu_hi * self.budget_tol {
                // The bracket pins μ* to the budget tolerance, yet no probe
                // met the budget: the optimum straddles a starvation
                // threshold (one element's f jumps across the bracket) or
                // the warm inner solves' resolution. The allocations
                // measured at the two ends straddle the budget; blend them
                // as the full solve does.
                blend_bracket_ends(cols.f_mut(), (&f_lo, used_lo), (&f_hi, used_hi), budget);
                (mu, used, converged) = (mu_lo, budget, true);
                break;
            }
        }
        if !converged {
            return Err(CoreError::NoConvergence {
                routine: "kkt repair newton",
                iterations: probes,
                residual: (used - budget).abs() / budget,
            });
        }

        // Multiplicative snap of the (already tiny) residual, exactly as
        // the full solve does at convergence.
        snap_to_budget(cols.f_mut(), used, budget);

        rec.counter("solver.repair.probes").add(probes as u64);
        rec.counter("solver.repair.inner_iters")
            .add(inner_total as u64);

        let mut freqs = vec![0.0; n];
        cols.scatter_f(&mut freqs);
        let mut sol = Solution::evaluate_with_policy(problem, freqs, self.policy);
        sol.multiplier = Some(mu);
        if self.cost_weight > 0.0 {
            sol.cost_multiplier = Some(self.cost_weight);
        }
        sol.iterations = probes;
        Ok(RepairOutcome {
            solution: sol,
            probes,
            inner_iters: inner_total,
        })
    }

    /// One element's contribution to the residual slope `dR/dμ`, with the
    /// [`MAX_ELASTICITY`] cap applied (see the constant's doc). Zero for
    /// starved elements and non-concave points.
    fn slope_term(&self, p: f64, lam: f64, s: f64, f: f64, mu: f64) -> f64 {
        if !f.is_finite() || f <= 0.0 {
            return 0.0;
        }
        let g2 = self.policy.second_derivative(lam, f);
        if g2 >= 0.0 {
            return 0.0;
        }
        let raw = s * s / (p * g2); // negative
        if mu > 0.0 {
            raw.max(-MAX_ELASTICITY * s * f / mu)
        } else {
            raw
        }
    }

    /// The cheap half of "repair then certify": exact warm recomputes of
    /// the frontier elements plus the linear [`RestModel`] for everyone
    /// else, Newton-iterated on the scalar budget residual. Each probe is
    /// `O(|frontier|)` — nearly free next to a full pass — so the
    /// multiplier arrives at the next exact pass already converged to
    /// model accuracy. Returns the model-converged μ (never outside the
    /// caller's open `bounds`; on any sign of trouble it simply returns
    /// early and lets the exact safeguarded loop take over). Frontier
    /// frequencies in `cols` are left refined as warm seeds.
    fn frontier_newton(
        &self,
        cols: &mut PackedColumns,
        frontier: &[usize],
        model: &RestModel,
        start_mu: f64,
        bounds: (f64, f64),
        inner_total: &mut usize,
    ) -> f64 {
        let (floor, ceil) = bounds;
        let (p, lam, s, f_now) = (cols.p(), cols.lambda(), cols.s(), cols.f());
        let c = cols.c();
        let mut f_front: Vec<f64> = frontier.iter().map(|&k| f_now[k]).collect();
        let mut mu = start_mu;
        for _ in 0..FRONTIER_PROBES {
            let mut front_used = NeumaierSum::new();
            let mut front_slope = NeumaierSum::new();
            for (j, &k) in frontier.iter().enumerate() {
                let (fk, iters) =
                    self.element_frequency_warm(p[k], lam[k], s[k], c[k], mu, f_front[j]);
                f_front[j] = fk;
                *inner_total += iters;
                front_used.add(s[k] * fk);
                front_slope.add(self.slope_term(p[k], lam[k], s[k], fk, mu));
            }
            let residual = model.used + model.slope * (mu - model.anchor_mu) + front_used.total()
                - model.budget;
            if residual.abs() <= model.budget * self.budget_tol {
                break;
            }
            let slope = model.slope + front_slope.total();
            let next = if slope < 0.0 {
                mu - residual / slope
            } else {
                f64::NAN
            };
            // The model is only trusted near its anchor; a step escaping
            // the caller's bounds means the drift was global after all —
            // leave μ where it is for the exact loop to sort out.
            if !(next.is_finite() && next > floor && next < ceil) {
                break;
            }
            if (next - mu).abs() <= mu * 1e-15 {
                mu = next;
                break;
            }
            mu = next;
        }
        let f = cols.f_mut();
        for (j, &k) in frontier.iter().enumerate() {
            f[k] = f_front[j];
        }
        mu
    }

    /// One warm pass at multiplier `mu`: refine every packed element's
    /// frequency from its current value and return the consumed bandwidth,
    /// the analytic residual derivative `dR/dμ`, and the inner iterations
    /// spent. Chunked on the solver's executor with in-order compensated
    /// merges — bit-identical at any worker count.
    fn warm_pass(
        &self,
        chunks: &[Range<usize>],
        cols: &mut PackedColumns,
        mu: f64,
    ) -> (f64, f64, usize) {
        let (p, lam, s) = (cols.p(), cols.lambda(), cols.s());
        let c = cols.c();
        let f0 = cols.f();
        let parts = self.executor.map_ranges(chunks, |range| {
            let mut local = Vec::with_capacity(range.len());
            let mut used = NeumaierSum::new();
            let mut slope = NeumaierSum::new();
            let mut inner = 0usize;
            for k in range {
                let (f, iters) = self.element_frequency_warm(p[k], lam[k], s[k], c[k], mu, f0[k]);
                local.push(f);
                used.add(s[k] * f);
                slope.add(self.slope_term(p[k], lam[k], s[k], f, mu));
                inner += iters;
            }
            (local, used, slope, inner)
        });
        let freqs = cols.f_mut();
        let mut used = NeumaierSum::new();
        let mut slope = NeumaierSum::new();
        let mut inner = 0usize;
        for (range, (local, part_used, part_slope, part_inner)) in chunks.iter().zip(parts) {
            freqs[range.clone()].copy_from_slice(&local);
            used.merge(part_used);
            slope.merge(part_slope);
            inner += part_inner;
        }
        (used.total(), slope.total(), inner)
    }

    /// Warm variant of the per-element root find: solve
    /// `p·g(f; λ) = μ·s + γ·c` starting from the seed `f0` (the element's
    /// frequency at a nearby multiplier). Falls back to the cold solve
    /// when the seed carries no information (`f0 ≤ 0`: the element just
    /// entered the support). The γ levy shifts the target exactly as in
    /// the cold path — and because γ is constant across probes it leaves
    /// the residual slope `df/dμ = s/(p·g″)` untouched, so the repair
    /// Newton machinery needs no other change.
    fn element_frequency_warm(
        &self,
        p: f64,
        lam: f64,
        s: f64,
        c: f64,
        mu: f64,
        f0: f64,
    ) -> (f64, usize) {
        let t = (mu * s + self.cost_weight * c) / p;
        if t >= 1.0 / lam {
            return (0.0, 0); // left the support at this water level
        }
        if !f0.is_finite() || f0 <= 0.0 {
            return self.element_frequency_counted(p, lam, s, c, mu);
        }
        // Newton on h(f) = g(f) − t starting *at* the seed — for a good
        // seed (a nearby multiplier's optimum) the very first residual
        // check exits, and one corrective step handles the rest. The
        // bracket [lo, hi] is learned from residual signs as the iteration
        // walks (g is strictly decreasing), safeguarding exactly like the
        // cold path and matching its tolerances so warm and cold agree to
        // the same precision.
        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        let mut f = f0;
        let mut iters = 0;
        for _ in 0..self.max_inner {
            iters += 1;
            let h = self.policy.gradient(lam, f) - t;
            if h.abs() <= t * 1e-12 {
                break;
            }
            if h > 0.0 {
                lo = f;
            } else {
                hi = f;
            }
            let dh = self.policy.second_derivative(lam, f);
            let newton = if dh < 0.0 { f - h / dh } else { f64::NAN };
            f = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                lo * 2.0 // no upper side yet: double toward the root
            };
            if hi.is_finite() && (hi - lo) <= f * 1e-14 {
                break;
            }
        }
        (f, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::tests::striped;
    use freshen_core::audit::SolutionAudit;

    #[test]
    fn repair_matches_full_resolve_after_local_drift() {
        let solver = LagrangeSolver::default();
        let before = striped(600, 1.0);
        let previous = solver.solve(&before).unwrap();
        let after = striped(600, 1.35);
        let touched: Vec<usize> = (0..600).filter(|i| i % 5 == 0).collect();

        let repaired = solver.repair(&after, &previous, &touched).unwrap();
        let full = solver.solve(&after).unwrap();
        assert!(
            (repaired.solution.perceived_freshness - full.perceived_freshness).abs() < 1e-9,
            "repair PF {} vs full PF {}",
            repaired.solution.perceived_freshness,
            full.perceived_freshness
        );
        assert!(
            (repaired.solution.bandwidth_used - after.bandwidth()).abs() < after.bandwidth() * 1e-8
        );
    }

    #[test]
    fn repaired_solution_passes_strict_certificate() {
        let solver = LagrangeSolver::default();
        let before = striped(400, 1.0);
        let previous = solver.solve(&before).unwrap();
        let after = striped(400, 0.7);
        let touched: Vec<usize> = (0..400).filter(|i| i % 5 == 0).collect();
        let repaired = solver.repair(&after, &previous, &touched).unwrap();
        let report = SolutionAudit::default()
            .check(&after, &repaired.solution, solver.policy)
            .unwrap();
        assert!(report.is_clean(), "strict audit failed: {report:?}");
    }

    #[test]
    fn repair_needs_no_more_passes_than_a_warm_resolve() {
        // What the adaptive loop runs when it does not repair is a full
        // solve warm-started from the previous multiplier; repair must not
        // cost more full passes than that.
        let solver = LagrangeSolver::default();
        let before = striped(2000, 1.0);
        let previous = solver.solve(&before).unwrap();
        let after = striped(2000, 1.1);
        let touched: Vec<usize> = (0..2000).filter(|i| i % 5 == 0).collect();
        let repaired = solver.repair(&after, &previous, &touched).unwrap();
        let warm = solver
            .solve_warm(&after, previous.multiplier.unwrap())
            .unwrap();
        assert!(
            repaired.probes <= warm.iterations,
            "repair probes {} vs warm re-solve passes {}",
            repaired.probes,
            warm.iterations
        );
    }

    #[test]
    fn repair_handles_empty_touched_set() {
        let solver = LagrangeSolver::default();
        let problem = striped(300, 1.0);
        let previous = solver.solve(&problem).unwrap();
        // No drift at all: repair must reproduce the same optimum almost
        // immediately.
        let repaired = solver.repair(&problem, &previous, &[]).unwrap();
        assert!(
            (repaired.solution.perceived_freshness - previous.perceived_freshness).abs() < 1e-12
        );
        assert!(repaired.probes <= 2, "took {} probes", repaired.probes);
    }

    #[test]
    fn repair_requires_a_multiplier_seed() {
        let solver = LagrangeSolver::default();
        let problem = striped(50, 1.0);
        let mut previous = solver.solve(&problem).unwrap();
        previous.multiplier = None;
        assert!(matches!(
            solver.repair(&problem, &previous, &[]),
            Err(CoreError::InvalidValue { .. })
        ));
    }

    #[test]
    fn repair_rejects_mismatched_previous() {
        let solver = LagrangeSolver::default();
        let previous = solver.solve(&striped(50, 1.0)).unwrap();
        let other = striped(60, 1.0);
        assert!(matches!(
            solver.repair(&other, &previous, &[]),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn repair_handles_support_changes() {
        // Drift big enough to push elements across the starvation
        // boundary in both directions.
        let solver = LagrangeSolver::default();
        let before = striped(500, 1.0);
        let previous = solver.solve(&before).unwrap();
        let after = striped(500, 6.0);
        let touched: Vec<usize> = (0..500).filter(|i| i % 5 == 0).collect();
        let repaired = solver.repair(&after, &previous, &touched).unwrap();
        let full = solver.solve(&after).unwrap();
        assert!(
            (repaired.solution.perceived_freshness - full.perceived_freshness).abs() < 1e-9,
            "support-changing repair PF {} vs full {}",
            repaired.solution.perceived_freshness,
            full.perceived_freshness
        );
    }

    #[test]
    fn cost_aware_repair_matches_full_resolve_and_certifies() {
        // "Repair then certify" must keep working when the solver carries
        // a poll levy: the repaired optimum agrees with the cost-aware
        // full solve and passes the cost-adjusted strict certificate.
        let solver = LagrangeSolver::default().with_cost_weight(1e-4);
        let base = striped(600, 1.0);
        let costs: Vec<f64> = (0..600).map(|i| 0.5 + (i % 7) as f64 * 0.4).collect();
        let before = Problem::builder()
            .change_rates(base.change_rates().to_vec())
            .access_probs(base.access_probs().to_vec())
            .costs(costs.clone())
            .bandwidth(base.bandwidth() / 8.0)
            .build()
            .unwrap();
        let previous = solver.solve(&before).unwrap();
        assert!(previous.multiplier.unwrap() > 0.0, "budget must bind here");

        let drifted = striped(600, 1.35);
        let after = Problem::builder()
            .change_rates(drifted.change_rates().to_vec())
            .access_probs(drifted.access_probs().to_vec())
            .costs(costs)
            .bandwidth(drifted.bandwidth() / 8.0)
            .build()
            .unwrap();
        let touched: Vec<usize> = (0..600).filter(|i| i % 5 == 0).collect();

        let repaired = solver.repair(&after, &previous, &touched).unwrap();
        let full = solver.solve(&after).unwrap();
        assert!(
            (repaired.solution.perceived_freshness - full.perceived_freshness).abs() < 1e-9,
            "cost-aware repair PF {} vs full PF {}",
            repaired.solution.perceived_freshness,
            full.perceived_freshness
        );
        assert_eq!(repaired.solution.cost_multiplier, Some(1e-4));

        let report = SolutionAudit::default()
            .check_with_cost(&after, &repaired.solution, solver.policy, 1e-4)
            .unwrap();
        assert!(report.is_clean(), "cost-adjusted audit failed: {report:?}");
    }

    #[test]
    fn repair_counts_are_recorded() {
        use freshen_obs::Recorder;
        let rec = Recorder::enabled();
        let solver = LagrangeSolver::default().with_recorder(rec.clone());
        let problem = striped(100, 1.0);
        let previous = solver.solve(&problem).unwrap();
        solver.repair(&problem, &previous, &[0, 5]).unwrap();
        assert_eq!(rec.counter_value("solver.repairs"), Some(1));
        assert!(rec.counter_value("solver.repair.probes").unwrap() >= 1);
    }
}
