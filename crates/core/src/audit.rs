//! Machine-checkable optimality certificates (the paper's Appendix,
//! Eq. 5) for solver output.
//!
//! The water-filling optimum has an *exact* first-order certificate: a
//! feasible allocation `f` maximizes perceived freshness iff there is a
//! multiplier `μ ≥ 0` such that
//!
//! * **stationarity on the support** — every funded element equalizes
//!   marginal value per unit bandwidth: `pᵢ·g(fᵢ; λᵢ) = μ·sᵢ` whenever
//!   `fᵢ > 0`;
//! * **complementary slackness off it** — unfunded elements cannot beat
//!   the waterline even at zero: `pᵢ·g(0⁺; λᵢ) = pᵢ/λᵢ ≤ μ·sᵢ`;
//! * **budget exhaustion** — `Σ sᵢ·fᵢ = B` (the marginal value is
//!   strictly positive, so leftover bandwidth is always a bug);
//! * **non-negativity** — `fᵢ ≥ 0`.
//!
//! [`SolutionAudit`] checks all four against a [`Problem`] +
//! [`Solution`] pair and returns a machine-readable [`AuditReport`]:
//! every breach becomes an [`AuditViolation`] with the element, the
//! measured value, and the limit it broke. Because the certificate is a
//! property of the *output*, the same checker audits the exact Lagrange
//! solver (serial or pooled), the generic projected-gradient
//! NLP, and any heuristic's expanded allocation — no access to solver
//! internals required.
//!
//! Static elements (`λ ≤ 1e-12`, the solver's own threshold) and
//! zero-interest elements are excluded from the marginal conditions:
//! their optimal allocation is zero, and funding them at all is reported
//! as its own violation kind.

use freshen_obs::json::push_f64;

use crate::error::{CoreError, Result};
use crate::numeric::NeumaierSum;
use crate::policy::SyncPolicy;
use crate::problem::{Problem, Solution};

/// Change rates at or below this are "static" — the same cutoff the
/// Lagrange solver uses to drop elements from the active set.
const STATIC_RATE: f64 = 1e-12;

/// What a certificate condition breach looks like, mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// `|Σ sᵢfᵢ − B|` exceeded the budget tolerance.
    BudgetResidual,
    /// A frequency was negative.
    NegativeFrequency,
    /// A frequency was NaN or infinite.
    NonFiniteFrequency,
    /// A funded element's marginal value strayed from the waterline.
    MarginalSpread,
    /// An unfunded element could profitably be funded
    /// (`pᵢ/λᵢ > μ·sᵢ` beyond tolerance).
    Slackness,
    /// A static (never-changing) element received bandwidth.
    StaticFunded,
}

impl ViolationKind {
    /// Stable machine-readable name (used in the JSON report).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::BudgetResidual => "budget-residual",
            ViolationKind::NegativeFrequency => "negative-frequency",
            ViolationKind::NonFiniteFrequency => "non-finite-frequency",
            ViolationKind::MarginalSpread => "marginal-spread",
            ViolationKind::Slackness => "slackness",
            ViolationKind::StaticFunded => "static-funded",
        }
    }
}

/// One condition breach: which condition, where, by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditViolation {
    /// Which certificate condition broke.
    pub kind: ViolationKind,
    /// Offending element, when the condition is per-element.
    pub element: Option<usize>,
    /// Measured value (residual, spread, excess — kind-dependent).
    pub value: f64,
    /// The tolerance it exceeded.
    pub limit: f64,
}

/// The result of checking one allocation against the KKT certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Problem size.
    pub elements: usize,
    /// Elements with a meaningful bandwidth share (`fᵢsᵢ` above the
    /// support threshold).
    pub funded: usize,
    /// The budget `B`.
    pub budget: f64,
    /// `|Σ sᵢfᵢ − B|` (compensated summation).
    pub budget_residual: f64,
    /// The multiplier `μ` the conditions were checked against.
    pub multiplier: f64,
    /// True when the solution carried no multiplier and `μ` was
    /// estimated as the mean funded marginal value.
    pub multiplier_estimated: bool,
    /// Max relative deviation `|pᵢ·g(fᵢ)/sᵢ − μ| / μ` over the support.
    pub max_spread: f64,
    /// Max relative excess `(pᵢ/(λᵢsᵢ) − μ)/μ` over unfunded elements
    /// (0 when every unfunded element is priced out, as it should be).
    pub max_slack_excess: f64,
    /// Smallest frequency in the allocation.
    pub min_frequency: f64,
    /// The per-poll cost weight `γ` the conditions were checked against
    /// (0 for the classic cost-blind certificate).
    pub cost_weight: f64,
    /// Every condition breach found.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True iff no condition was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Hand-rolled deterministic JSON (the machine-readable form the CLI
    /// and CI consume).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 96 * self.violations.len());
        s.push_str("{\"elements\":");
        s.push_str(&self.elements.to_string());
        s.push_str(",\"funded\":");
        s.push_str(&self.funded.to_string());
        s.push_str(",\"budget\":");
        push_f64(&mut s, self.budget);
        s.push_str(",\"budget_residual\":");
        push_f64(&mut s, self.budget_residual);
        s.push_str(",\"multiplier\":");
        push_f64(&mut s, self.multiplier);
        s.push_str(",\"multiplier_estimated\":");
        s.push_str(if self.multiplier_estimated {
            "true"
        } else {
            "false"
        });
        s.push_str(",\"max_spread\":");
        push_f64(&mut s, self.max_spread);
        s.push_str(",\"max_slack_excess\":");
        push_f64(&mut s, self.max_slack_excess);
        s.push_str(",\"min_frequency\":");
        push_f64(&mut s, self.min_frequency);
        s.push_str(",\"cost_weight\":");
        push_f64(&mut s, self.cost_weight);
        s.push_str(",\"clean\":");
        s.push_str(if self.is_clean() { "true" } else { "false" });
        s.push_str(",\"violations\":[");
        for (k, v) in self.violations.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str("{\"kind\":\"");
            s.push_str(v.kind.name());
            s.push_str("\",\"element\":");
            match v.element {
                Some(i) => s.push_str(&i.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"value\":");
            push_f64(&mut s, v.value);
            s.push_str(",\"limit\":");
            push_f64(&mut s, v.limit);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// The KKT certificate checker. Tolerances are public fields so callers
/// can tighten or loosen per solver class; [`SolutionAudit::default`] is
/// the strict profile the exact solvers must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolutionAudit {
    /// Budget residual allowance, relative to `B`.
    pub budget_tol: f64,
    /// Allowed relative deviation of funded marginals from `μ`.
    pub spread_tol: f64,
    /// Allowed relative excess of an unfunded element's zero-frequency
    /// marginal over `μ`.
    pub slack_tol: f64,
    /// An element is "funded" when its bandwidth share `fᵢsᵢ` exceeds
    /// this fraction of the budget.
    pub support_tol: f64,
}

impl Default for SolutionAudit {
    /// The strict profile: spread ≤ 1e-6, budget residual ≤ 1e-8·B.
    fn default() -> Self {
        SolutionAudit {
            budget_tol: 1e-8,
            spread_tol: 1e-6,
            slack_tol: 1e-6,
            support_tol: 1e-9,
        }
    }
}

impl SolutionAudit {
    /// The relaxed profile for generic iterative NLP output (the
    /// projected-gradient solver converges in objective value long
    /// before its marginals equalize to exact-solver precision).
    pub fn relaxed() -> Self {
        SolutionAudit {
            budget_tol: 1e-6,
            spread_tol: 5e-2,
            slack_tol: 5e-2,
            support_tol: 1e-7,
        }
    }

    /// Check `solution` against the classic cost-blind certificate for
    /// `problem` under `policy`. Errors only on structural mismatch
    /// (wrong length); condition breaches are *reported*, not raised.
    pub fn check(
        &self,
        problem: &Problem,
        solution: &Solution,
        policy: SyncPolicy,
    ) -> Result<AuditReport> {
        self.check_with_cost(problem, solution, policy, 0.0)
    }

    /// Check `solution` against the *cost-adjusted* certificate: the
    /// optimum of `max PF − γ·Σcᵢfᵢ  s.t.  Σsᵢfᵢ ≤ B` satisfies, for
    /// some `μ ≥ 0`,
    ///
    /// * stationarity on the support: `pᵢ·g(fᵢ) = μ·sᵢ + γ·cᵢ`;
    /// * slackness off it: `pᵢ/λᵢ ≤ μ·sᵢ + γ·cᵢ`;
    /// * either the budget binds (`μ > 0`, `Σsᵢfᵢ = B`) or the optimum
    ///   is interior (`μ = 0`, `Σsᵢfᵢ ≤ B`) — with `γ > 0` the marginal
    ///   value of bandwidth can legitimately hit zero before the budget
    ///   is spent, so `Some(0.0)` is a genuine multiplier there, not a
    ///   missing one.
    ///
    /// `check_with_cost(…, 0.0)` is exactly the classic certificate
    /// ([`check`](Self::check) delegates here).
    pub fn check_with_cost(
        &self,
        problem: &Problem,
        solution: &Solution,
        policy: SyncPolicy,
        cost_weight: f64,
    ) -> Result<AuditReport> {
        let n = problem.len();
        let freqs = &solution.frequencies;
        if freqs.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "audited frequencies",
                expected: n,
                actual: freqs.len(),
            });
        }
        if !cost_weight.is_finite() || cost_weight < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "audit cost weight",
                index: None,
                value: cost_weight,
            });
        }
        let gamma = cost_weight;
        let budget = problem.bandwidth();
        let p = problem.access_probs();
        let lam = problem.change_rates();
        let sizes = problem.sizes();
        // Per-poll cost of element `i`; 1.0 when no cost column is set.
        // Only consulted when γ > 0, so cost-blind audits never pay for
        // the lookup.
        let cost = |i: usize| -> f64 {
            match problem.poll_costs() {
                Some(c) => c[i],
                None => 1.0,
            }
        };

        let mut violations = Vec::new();
        let mut used = NeumaierSum::default();
        let mut min_frequency = f64::INFINITY;
        for (i, &f) in freqs.iter().enumerate() {
            if !f.is_finite() {
                violations.push(AuditViolation {
                    kind: ViolationKind::NonFiniteFrequency,
                    element: Some(i),
                    value: f,
                    limit: 0.0,
                });
                continue;
            }
            min_frequency = min_frequency.min(f);
            if f < 0.0 {
                violations.push(AuditViolation {
                    kind: ViolationKind::NegativeFrequency,
                    element: Some(i),
                    value: f,
                    limit: 0.0,
                });
            }
            used.add(f * sizes[i]);
        }
        // A cost-aware interior optimum (declared μ = 0) legitimately
        // under-spends; there the budget condition is one-sided.
        let interior = gamma > 0.0 && solution.multiplier == Some(0.0);
        let budget_residual = if interior {
            (used.total() - budget).max(0.0)
        } else {
            (used.total() - budget).abs()
        };
        if budget_residual > self.budget_tol * budget {
            violations.push(AuditViolation {
                kind: ViolationKind::BudgetResidual,
                element: None,
                value: budget_residual,
                limit: self.budget_tol * budget,
            });
        }

        // Classify the support and collect funded marginal values
        // `pᵢ·g(fᵢ)/sᵢ` (per unit of bandwidth, so sized problems audit
        // identically to uniform ones). With γ > 0 the per-poll levy is
        // subtracted first: the *bandwidth* marginal on the support is
        // `(pᵢ·g(fᵢ) − γ·cᵢ)/sᵢ = μ`.
        let support_share = self.support_tol * budget;
        let mut funded = Vec::new();
        for i in 0..n {
            let f = freqs[i];
            if !f.is_finite() || f < 0.0 {
                continue;
            }
            let share = f * sizes[i];
            if share <= support_share {
                continue;
            }
            if lam[i] <= STATIC_RATE {
                violations.push(AuditViolation {
                    kind: ViolationKind::StaticFunded,
                    element: Some(i),
                    value: share,
                    limit: support_share,
                });
                continue;
            }
            let levy = if gamma > 0.0 { gamma * cost(i) } else { 0.0 };
            funded.push((i, (p[i] * policy.gradient(lam[i], f) - levy) / sizes[i]));
        }

        let mu_floor_ok = |mu: f64| mu > 0.0 || (gamma > 0.0 && mu == 0.0);
        let (multiplier, multiplier_estimated) = match solution.multiplier {
            Some(mu) if mu.is_finite() && mu_floor_ok(mu) => (mu, false),
            _ => {
                let mean = if funded.is_empty() {
                    0.0
                } else {
                    funded.iter().map(|&(_, v)| v).sum::<f64>() / funded.len() as f64
                };
                (mean, true)
            }
        };

        // Stationarity on the support: the cost-adjusted bandwidth
        // marginal must sit on the waterline. Spreads are normalized by
        // the full per-element threshold `τᵢ = μ·sᵢ + γ·cᵢ` (in marginal
        // units, `μ + γ·cᵢ/sᵢ`) so an interior optimum (μ = 0, γ > 0)
        // still yields a well-defined relative deviation.
        let mut max_spread = 0.0f64;
        for &(i, v) in &funded {
            let tau = multiplier
                + if gamma > 0.0 {
                    gamma * cost(i) / sizes[i]
                } else {
                    0.0
                };
            if tau <= 0.0 {
                continue;
            }
            let spread = (v - multiplier).abs() / tau;
            max_spread = max_spread.max(spread);
            if spread > self.spread_tol {
                violations.push(AuditViolation {
                    kind: ViolationKind::MarginalSpread,
                    element: Some(i),
                    value: spread,
                    limit: self.spread_tol,
                });
            }
        }

        // Complementary slackness off the support: the marginal at
        // `f → 0⁺` is `pᵢ/λᵢ` per refresh, `pᵢ/(λᵢsᵢ)` per unit of
        // bandwidth, and must not beat the waterline plus the per-poll
        // levy.
        let mut max_slack_excess = 0.0f64;
        for i in 0..n {
            let f = freqs[i];
            if !f.is_finite() || f < 0.0 || f * sizes[i] > support_share {
                continue;
            }
            if lam[i] <= STATIC_RATE || p[i] <= 0.0 {
                continue;
            }
            let tau = multiplier
                + if gamma > 0.0 {
                    gamma * cost(i) / sizes[i]
                } else {
                    0.0
                };
            if tau <= 0.0 {
                continue;
            }
            let at_zero = p[i] / (lam[i] * sizes[i]);
            let excess = (at_zero - tau) / tau;
            if excess > 0.0 {
                max_slack_excess = max_slack_excess.max(excess);
            }
            if excess > self.slack_tol {
                violations.push(AuditViolation {
                    kind: ViolationKind::Slackness,
                    element: Some(i),
                    value: excess,
                    limit: self.slack_tol,
                });
            }
        }

        Ok(AuditReport {
            elements: n,
            funded: funded.len(),
            budget,
            budget_residual,
            multiplier,
            multiplier_estimated,
            max_spread,
            max_slack_excess,
            min_frequency: if min_frequency.is_finite() {
                min_frequency
            } else {
                0.0
            },
            cost_weight: gamma,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two identical elements: by symmetry the even split is the exact
    /// optimum, so the strict certificate must come back clean.
    #[test]
    fn symmetric_optimum_is_certified_clean() {
        let problem = Problem::builder()
            .change_rates(vec![2.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let solution = Solution::evaluate(&problem, vec![1.5, 1.5]);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(report.funded, 2);
        assert!(report.multiplier_estimated, "no μ in an evaluated solution");
        assert!(report.max_spread <= 1e-12, "identical marginals");
    }

    /// Poisson policy has a closed-form water-filling solution
    /// `fᵢ = √(pᵢλᵢ/(μsᵢ)) − λᵢ`: construct it exactly for a chosen μ
    /// and verify the checker accepts it with the declared multiplier.
    #[test]
    fn closed_form_poisson_optimum_is_certified() {
        let (p, lam) = (vec![0.6f64, 0.4], vec![1.0f64, 2.0]);
        let mu = 0.05f64;
        let freqs: Vec<f64> = p
            .iter()
            .zip(&lam)
            .map(|(&pi, &li)| (pi * li / mu).sqrt() - li)
            .collect();
        let budget: f64 = freqs.iter().sum();
        let problem = Problem::builder()
            .change_rates(lam)
            .access_probs(p)
            .bandwidth(budget)
            .build()
            .unwrap();
        let mut solution = Solution::evaluate_with_policy(&problem, freqs, SyncPolicy::Poisson);
        solution.multiplier = Some(mu);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::Poisson)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(!report.multiplier_estimated);
    }

    #[test]
    fn unbalanced_marginals_are_flagged() {
        let problem = Problem::builder()
            .change_rates(vec![2.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        // Feasible but lopsided: budget holds, stationarity breaks.
        let solution = Solution::evaluate(&problem, vec![2.5, 0.5]);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MarginalSpread));
        assert!(report.max_spread > 0.1);
    }

    #[test]
    fn starving_a_profitable_element_breaks_slackness() {
        let problem = Problem::builder()
            .change_rates(vec![2.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        // All budget on element 0: element 1's zero-frequency marginal
        // p/λ beats the (deeply waterlogged) waterline.
        let solution = Solution::evaluate(&problem, vec![3.0, 0.0]);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Slackness));
        assert!(report.max_slack_excess > 0.0);
    }

    #[test]
    fn budget_leak_and_negativity_are_flagged() {
        let problem = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(2.0)
            .build()
            .unwrap();
        // Built by hand: a corrupt allocation like this can't even be
        // scored (evaluate asserts non-negativity) — but it can be
        // audited.
        let solution = Solution {
            frequencies: vec![1.5, -0.2],
            perceived_freshness: 0.0,
            general_freshness: 0.0,
            bandwidth_used: 1.3,
            multiplier: None,
            cost_multiplier: None,
            iterations: 0,
        };
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::BudgetResidual));
        assert!(kinds.contains(&ViolationKind::NegativeFrequency));
        assert!(report.min_frequency < 0.0);
    }

    #[test]
    fn funded_static_element_is_flagged() {
        let problem = Problem::builder()
            .change_rates(vec![0.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let solution = Solution::evaluate(&problem, vec![1.0, 1.0]);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::StaticFunded && v.element == Some(0)));
    }

    #[test]
    fn length_mismatch_is_a_structural_error() {
        let problem = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let other = Problem::builder()
            .change_rates(vec![1.0])
            .access_probs(vec![1.0])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let solution = Solution::evaluate(&other, vec![1.0]);
        assert!(SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .is_err());
    }

    /// Poisson policy closed form with a per-poll levy: stationarity is
    /// `p·λ/(λ+f)² = μ·s + γ·c`, so `f = √(pλ/(μs+γc)) − λ`. Build that
    /// allocation exactly and check the cost-adjusted certificate.
    #[test]
    fn cost_adjusted_closed_form_is_certified() {
        let (p, lam) = (vec![0.6f64, 0.4], vec![1.0f64, 2.0]);
        let costs = vec![2.0f64, 0.5];
        let (mu, gamma) = (0.03f64, 0.02f64);
        let freqs: Vec<f64> = p
            .iter()
            .zip(&lam)
            .zip(&costs)
            .map(|((&pi, &li), &ci)| (pi * li / (mu + gamma * ci)).sqrt() - li)
            .collect();
        let budget: f64 = freqs.iter().sum();
        let problem = Problem::builder()
            .change_rates(lam)
            .access_probs(p)
            .costs(costs)
            .bandwidth(budget)
            .build()
            .unwrap();
        let mut solution = Solution::evaluate_with_policy(&problem, freqs, SyncPolicy::Poisson);
        solution.multiplier = Some(mu);
        let report = SolutionAudit::default()
            .check_with_cost(&problem, &solution, SyncPolicy::Poisson, gamma)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(report.cost_weight, gamma);
        // The same allocation fails the cost-blind certificate: the raw
        // marginals p·g/s are *not* equalized once polls are priced.
        let blind = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::Poisson)
            .unwrap();
        assert!(!blind.is_clean(), "cost-blind audit must flag the spread");
    }

    /// An interior cost-aware optimum (μ = 0): stationarity against the
    /// levy alone, budget one-sided.
    #[test]
    fn interior_cost_optimum_may_underspend() {
        let (p, lam) = (vec![0.5f64, 0.5], vec![1.0f64, 1.0]);
        let gamma = 0.1f64;
        // μ = 0: f = √(pλ/(γc)) − λ with c = 1.
        let freqs: Vec<f64> = p
            .iter()
            .zip(&lam)
            .map(|(&pi, &li)| (pi * li / gamma).sqrt() - li)
            .collect();
        let used: f64 = freqs.iter().sum();
        let problem = Problem::builder()
            .change_rates(lam)
            .access_probs(p)
            .bandwidth(used * 2.0) // twice what the interior optimum needs
            .build()
            .unwrap();
        let mut solution = Solution::evaluate_with_policy(&problem, freqs, SyncPolicy::Poisson);
        solution.multiplier = Some(0.0);
        let report = SolutionAudit::default()
            .check_with_cost(&problem, &solution, SyncPolicy::Poisson, gamma)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(!report.multiplier_estimated, "Some(0.0) is genuine here");
        // The cost-blind certificate would call the unspent budget a bug.
        let blind = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::Poisson)
            .unwrap();
        assert!(blind
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::BudgetResidual));
    }

    #[test]
    fn cost_audit_rejects_bad_weight() {
        let problem = Problem::builder()
            .change_rates(vec![1.0])
            .access_probs(vec![1.0])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let solution = Solution::evaluate(&problem, vec![1.0]);
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(SolutionAudit::default()
                .check_with_cost(&problem, &solution, SyncPolicy::FixedOrder, bad)
                .is_err());
        }
    }

    #[test]
    fn report_json_is_machine_readable() {
        let problem = Problem::builder()
            .change_rates(vec![2.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let solution = Solution::evaluate(&problem, vec![2.5, 0.5]);
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"kind\":\"marginal-spread\""));
        // Deterministic: same input, same bytes.
        assert_eq!(json, report.to_json());
    }
}
