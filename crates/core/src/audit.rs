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
//!   the waterline even at zero: `pᵢ·g(0⁺; λᵢ) = pᵢ/λᵢ ≤ μ·sᵢ`; an
//!   element funded below the support cut is held to `pᵢ·g(fᵢ) ≤ μ·sᵢ` at
//!   its own frequency;
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
//! Static elements (`λ ≤` [`STATIC_RATE`], the solver's own threshold) and
//! zero-interest elements are excluded from the marginal conditions:
//! their optimal allocation is zero, and funding them at all is reported
//! as its own violation kind.

use std::ops::Range;

use freshen_obs::json::push_f64;

use crate::error::{CoreError, Result};
use crate::exec::{Executor, DEFAULT_CHUNK};
use crate::numeric::NeumaierSum;
use crate::policy::{FixedOrder, FreshnessLaw, Poisson, SyncPolicy};
use crate::problem::{Problem, Solution, STATIC_RATE};

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
    /// Max relative excess `(pᵢ·g(fᵢ)/sᵢ − τᵢ)/τᵢ` over unfunded
    /// elements, `g(0) = 1/λᵢ` (0 when every unfunded element is priced
    /// out, as it should be).
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
///
/// The check is one pass over fixed chunks of [`DEFAULT_CHUNK`] elements
/// on [`executor`](Self::executor): each chunk keeps its compensated
/// spend, its smallest frequency, its funded count, its largest spread
/// and slack excess, and its violations by kind in element order, and
/// the chunks merge in chunk order, so the report is the same at any
/// worker count. A solution without a usable multiplier takes one more
/// pass, serial and in element order, for the mean funded marginal.
#[derive(Debug, Clone)]
pub struct SolutionAudit {
    /// Budget residual allowance, relative to `B`.
    pub budget_tol: f64,
    /// Allowed relative deviation of funded marginals from `μ`.
    pub spread_tol: f64,
    /// Allowed relative excess of an unfunded element's marginal over
    /// its threshold `τᵢ = μ + γcᵢ/sᵢ`. The marginal is taken at the
    /// element's own frequency: `pᵢ/(λᵢsᵢ)` at `fᵢ = 0`, and
    /// `pᵢ·g(fᵢ)/sᵢ` for a positive frequency below the support cut.
    pub slack_tol: f64,
    /// An element is "funded" when its bandwidth share `fᵢsᵢ` exceeds
    /// this fraction of the budget.
    pub support_tol: f64,
    /// Execution strategy for the certificate's pass (serial by
    /// default). The report is identical at any worker count.
    pub executor: Executor,
}

impl Default for SolutionAudit {
    /// The strict profile: spread ≤ 1e-6, budget residual ≤ 1e-8·B.
    fn default() -> Self {
        SolutionAudit {
            budget_tol: 1e-8,
            spread_tol: 1e-6,
            slack_tol: 1e-6,
            support_tol: 1e-9,
            executor: Executor::serial(),
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
            executor: Executor::serial(),
        }
    }

    /// Run the certificate's pass on `executor` (builder form; the
    /// `executor` field can also be set directly). The report is the
    /// same at any worker count.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
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
    ///
    /// Violations are listed by kind — non-finite or negative
    /// frequencies, the budget residual, funded static elements, marginal
    /// spread, slackness — each kind in element order.
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
        Ok(match policy {
            SyncPolicy::FixedOrder => self.check_as::<FixedOrder>(problem, solution, cost_weight),
            SyncPolicy::Poisson => self.check_as::<Poisson>(problem, solution, cost_weight),
        })
    }

    /// [`check_with_cost`](Self::check_with_cost) under the law `L`, on
    /// validated inputs.
    fn check_as<L: FreshnessLaw>(
        &self,
        problem: &Problem,
        solution: &Solution,
        gamma: f64,
    ) -> AuditReport {
        let budget = problem.bandwidth();
        let columns = Columns {
            p: problem.access_probs(),
            lam: problem.change_rates(),
            sizes: problem.sizes(),
            costs: problem.poll_costs(),
            freqs: &solution.frequencies,
            gamma,
            support_share: self.support_tol * budget,
        };
        let mu_floor_ok = |mu: f64| mu > 0.0 || (gamma > 0.0 && mu == 0.0);
        let (multiplier, multiplier_estimated) = match solution.multiplier {
            Some(mu) if mu.is_finite() && mu_floor_ok(mu) => (mu, false),
            _ => (columns.mean_funded_marginal::<L>(), true),
        };
        let tally = self
            .executor
            .par_chunks_reduce(
                problem.len(),
                DEFAULT_CHUNK,
                |range| self.tally::<L>(&columns, multiplier, range),
                Tally::merge,
            )
            .unwrap_or_else(Tally::new);

        // A cost-aware interior optimum (declared μ = 0) legitimately
        // under-spends; there the budget condition is one-sided.
        let interior = gamma > 0.0 && solution.multiplier == Some(0.0);
        let used = tally.spend.total();
        let budget_residual = if interior {
            (used - budget).max(0.0)
        } else {
            (used - budget).abs()
        };
        let mut violations = tally.malformed;
        if budget_residual > self.budget_tol * budget {
            violations.push(AuditViolation {
                kind: ViolationKind::BudgetResidual,
                element: None,
                value: budget_residual,
                limit: self.budget_tol * budget,
            });
        }
        violations.extend(tally.static_funded);
        violations.extend(tally.spread);
        violations.extend(tally.slackness);

        AuditReport {
            elements: problem.len(),
            funded: tally.funded,
            budget,
            budget_residual,
            multiplier,
            multiplier_estimated,
            max_spread: tally.max_spread,
            max_slack_excess: tally.max_slack_excess,
            min_frequency: if tally.min_frequency.is_finite() {
                tally.min_frequency
            } else {
                0.0
            },
            cost_weight: gamma,
            violations,
        }
    }

    /// One chunk of the certificate at water level `mu`.
    ///
    /// Funded elements (bandwidth share `fᵢsᵢ` above the support
    /// threshold) must sit on the waterline: their cost-adjusted
    /// bandwidth marginal `(pᵢ·g(fᵢ) − γ·cᵢ)/sᵢ` (per unit of bandwidth,
    /// so sized problems audit like uniform ones) equals `μ`. Spreads are
    /// normalized by the full per-element threshold `τᵢ = μ + γ·cᵢ/sᵢ`,
    /// so an interior optimum (μ = 0, γ > 0) still yields a well-defined
    /// relative deviation. Off the support, the marginal at the element's
    /// own frequency, `pᵢ/(λᵢsᵢ)` per unit of bandwidth at `fᵢ = 0`, must
    /// not beat `τᵢ`.
    fn tally<L: FreshnessLaw>(&self, columns: &Columns, mu: f64, range: Range<usize>) -> Tally {
        let Columns {
            p,
            lam,
            sizes,
            freqs,
            support_share,
            ..
        } = *columns;
        let mut tally = Tally::new();
        for i in range {
            let f = freqs[i];
            if !f.is_finite() {
                tally.malformed.push(AuditViolation {
                    kind: ViolationKind::NonFiniteFrequency,
                    element: Some(i),
                    value: f,
                    limit: 0.0,
                });
                continue;
            }
            tally.min_frequency = tally.min_frequency.min(f);
            let share = f * sizes[i];
            tally.spend.add(share);
            if f < 0.0 {
                tally.malformed.push(AuditViolation {
                    kind: ViolationKind::NegativeFrequency,
                    element: Some(i),
                    value: f,
                    limit: 0.0,
                });
                continue;
            }
            if share > support_share {
                if lam[i] <= STATIC_RATE {
                    tally.static_funded.push(AuditViolation {
                        kind: ViolationKind::StaticFunded,
                        element: Some(i),
                        value: share,
                        limit: support_share,
                    });
                    continue;
                }
                tally.funded += 1;
                let tau = columns.threshold(mu, i);
                if tau <= 0.0 {
                    continue;
                }
                let spread = (columns.marginal::<L>(i, f) - mu).abs() / tau;
                tally.max_spread = tally.max_spread.max(spread);
                if spread > self.spread_tol {
                    tally.spread.push(AuditViolation {
                        kind: ViolationKind::MarginalSpread,
                        element: Some(i),
                        value: spread,
                        limit: self.spread_tol,
                    });
                }
            } else {
                if lam[i] <= STATIC_RATE || p[i] <= 0.0 {
                    continue;
                }
                let tau = columns.threshold(mu, i);
                if tau <= 0.0 {
                    continue;
                }
                let excess = (columns.unfunded_marginal::<L>(i, f) - tau) / tau;
                if excess > 0.0 {
                    tally.max_slack_excess = tally.max_slack_excess.max(excess);
                }
                if excess > self.slack_tol {
                    tally.slackness.push(AuditViolation {
                        kind: ViolationKind::Slackness,
                        element: Some(i),
                        value: excess,
                        limit: self.slack_tol,
                    });
                }
            }
        }
        tally
    }
}

/// The columns and constants one certificate reads.
#[derive(Clone, Copy)]
struct Columns<'a> {
    p: &'a [f64],
    lam: &'a [f64],
    sizes: &'a [f64],
    /// Per-poll costs; every cost is 1.0 when absent.
    costs: Option<&'a [f64]>,
    freqs: &'a [f64],
    /// The per-poll cost weight `γ`.
    gamma: f64,
    /// The bandwidth share above which an element is funded.
    support_share: f64,
}

impl Columns<'_> {
    /// `τᵢ = μ + γ·cᵢ/sᵢ`, element `i`'s waterline in marginal units.
    /// Costs are only read when `γ > 0`, so cost-blind audits never pay
    /// for the lookup.
    #[inline]
    fn threshold(&self, mu: f64, i: usize) -> f64 {
        mu + if self.gamma > 0.0 {
            self.gamma * self.cost(i) / self.sizes[i]
        } else {
            0.0
        }
    }

    #[inline]
    fn cost(&self, i: usize) -> f64 {
        self.costs.map_or(1.0, |c| c[i])
    }

    /// Funded element `i`'s cost-adjusted bandwidth marginal
    /// `(pᵢ·g(fᵢ) − γ·cᵢ)/sᵢ`.
    #[inline]
    fn marginal<L: FreshnessLaw>(&self, i: usize, f: f64) -> f64 {
        let levy = if self.gamma > 0.0 {
            self.gamma * self.cost(i)
        } else {
            0.0
        };
        (self.p[i] * L::gradient(self.lam[i], f) - levy) / self.sizes[i]
    }

    /// Element `i`'s bandwidth marginal before the levy, `pᵢ·g(fᵢ)/sᵢ`,
    /// for an element below the support cut: `pᵢ/(λᵢsᵢ)` at `fᵢ = 0`.
    /// Slackness holds it to `τᵢ` one-sidedly, at its own frequency: `g`
    /// falls as `f` grows, so a frequency too small to count as funded
    /// passes only if the marginal there is priced out, and a starved
    /// element whose marginal stays above `τᵢ` still fails.
    #[inline]
    fn unfunded_marginal<L: FreshnessLaw>(&self, i: usize, f: f64) -> f64 {
        if f > 0.0 {
            self.p[i] * L::gradient(self.lam[i], f) / self.sizes[i]
        } else {
            self.p[i] / (self.lam[i] * self.sizes[i])
        }
    }

    /// The mean funded marginal, the multiplier estimate for a solution
    /// that carries none: a plain sum in element order over the funded,
    /// changing elements (0 when there are none).
    fn mean_funded_marginal<L: FreshnessLaw>(&self) -> f64 {
        let mut funded = 0usize;
        let total: f64 = (0..self.freqs.len())
            .filter(|&i| {
                let f = self.freqs[i];
                f.is_finite()
                    && f >= 0.0
                    && f * self.sizes[i] > self.support_share
                    && self.lam[i] > STATIC_RATE
            })
            .map(|i| {
                funded += 1;
                self.marginal::<L>(i, self.freqs[i])
            })
            .sum();
        if funded == 0 {
            0.0
        } else {
            total / funded as f64
        }
    }
}

/// One chunk's share of a certificate; chunks merge in chunk order.
#[derive(Debug)]
struct Tally {
    /// Compensated spend `Σ sᵢfᵢ` over the finite frequencies.
    spend: NeumaierSum,
    min_frequency: f64,
    funded: usize,
    max_spread: f64,
    max_slack_excess: f64,
    /// Non-finite and negative frequencies, in element order.
    malformed: Vec<AuditViolation>,
    static_funded: Vec<AuditViolation>,
    spread: Vec<AuditViolation>,
    slackness: Vec<AuditViolation>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            spend: NeumaierSum::new(),
            min_frequency: f64::INFINITY,
            funded: 0,
            max_spread: 0.0,
            max_slack_excess: 0.0,
            malformed: Vec::new(),
            static_funded: Vec::new(),
            spread: Vec::new(),
            slackness: Vec::new(),
        }
    }

    /// Append `next`, the following chunk's tally.
    fn merge(mut self, next: Tally) -> Tally {
        self.spend.merge(next.spend);
        self.min_frequency = self.min_frequency.min(next.min_frequency);
        self.funded += next.funded;
        self.max_spread = self.max_spread.max(next.max_spread);
        self.max_slack_excess = self.max_slack_excess.max(next.max_slack_excess);
        self.malformed.extend(next.malformed);
        self.static_funded.extend(next.static_funded);
        self.spread.extend(next.spread);
        self.slackness.extend(next.slackness);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The certificate as it was written before the one-pass form: four
    /// serial walks and a funded-marginal vector. The parity tests hold
    /// [`SolutionAudit::check_with_cost`] to its report byte for byte.
    fn oracle(
        audit: &SolutionAudit,
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
        if budget_residual > audit.budget_tol * budget {
            violations.push(AuditViolation {
                kind: ViolationKind::BudgetResidual,
                element: None,
                value: budget_residual,
                limit: audit.budget_tol * budget,
            });
        }

        // Classify the support and collect funded marginal values
        // `pᵢ·g(fᵢ)/sᵢ` (per unit of bandwidth, so sized problems audit
        // identically to uniform ones). With γ > 0 the per-poll levy is
        // subtracted first: the *bandwidth* marginal on the support is
        // `(pᵢ·g(fᵢ) − γ·cᵢ)/sᵢ = μ`.
        let support_share = audit.support_tol * budget;
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
            if spread > audit.spread_tol {
                violations.push(AuditViolation {
                    kind: ViolationKind::MarginalSpread,
                    element: Some(i),
                    value: spread,
                    limit: audit.spread_tol,
                });
            }
        }

        // Complementary slackness off the support: the marginal at
        // `f → 0⁺` is `pᵢ/λᵢ` per refresh, `pᵢ/(λᵢsᵢ)` per unit of
        // bandwidth, and must not beat the waterline plus the per-poll
        // levy; an element funded below the cut is held to the same
        // bound at its own frequency.
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
            // Below the cut but positive, the marginal at the element's
            // own frequency.
            let marginal = if f > 0.0 {
                p[i] * policy.gradient(lam[i], f) / sizes[i]
            } else {
                p[i] / (lam[i] * sizes[i])
            };
            let excess = (marginal - tau) / tau;
            if excess > 0.0 {
                max_slack_excess = max_slack_excess.max(excess);
            }
            if excess > audit.slack_tol {
                violations.push(AuditViolation {
                    kind: ViolationKind::Slackness,
                    element: Some(i),
                    value: excess,
                    limit: audit.slack_tol,
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

    /// A random `n`-element instance and an allocation on its waterline
    /// at level `mu` and levy `gamma` under the law `L`: Zipf-like
    /// interest with every eleventh element unread and every ninth
    /// static, and optionally random sizes and per-poll costs. The
    /// budget is the allocation's spend.
    fn waterline<L: FreshnessLaw>(
        rng: &mut SplitMix64,
        n: usize,
        sized: bool,
        (mu, gamma): (f64, f64),
    ) -> (Problem, Vec<f64>) {
        let lam: Vec<f64> = (0..n)
            .map(|i| {
                if i % 9 == 4 {
                    0.0
                } else {
                    rng.range(0.05, 8.0)
                }
            })
            .collect();
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                if i % 11 == 6 && n > 1 {
                    0.0
                } else {
                    1.0 / (1.0 + i as f64)
                }
            })
            .collect();
        let mut builder = Problem::builder()
            .change_rates(lam)
            .access_weights(weights)
            .bandwidth(1.0);
        if sized {
            builder = builder
                .sizes((0..n).map(|_| rng.range(0.25, 4.0)).collect())
                .costs((0..n).map(|_| rng.range(0.5, 3.0)).collect());
        }
        let problem = builder.build().unwrap();
        let (p, lam, s) = (
            problem.access_probs(),
            problem.change_rates(),
            problem.sizes(),
        );
        let freqs: Vec<f64> = (0..n)
            .map(|i| {
                let tau = mu * s[i] + gamma * problem.poll_cost(i);
                if lam[i] <= STATIC_RATE || p[i] <= 0.0 || lam[i] * tau >= p[i] {
                    0.0
                } else {
                    L::invert(p[i], lam[i], s[i], mu, tau).0
                }
            })
            .collect();
        let budget = problem.bandwidth_used(&freqs).max(1e-300);
        let problem = Problem::builder()
            .change_rates(problem.change_rates().to_vec())
            .access_probs(problem.access_probs().to_vec())
            .sizes(problem.sizes().to_vec())
            .costs(problem.poll_costs().map_or(vec![1.0; n], <[f64]>::to_vec))
            .bandwidth(budget)
            .build()
            .unwrap();
        (problem, freqs)
    }

    /// Break `freqs` in every way the certificate reports: NaN, ±inf and
    /// negative entries, a funded static element, a funded element off
    /// the waterline, a starved one that breaks slackness, and one moved
    /// to a positive frequency below the support cut that breaks it too.
    fn doctor(rng: &mut SplitMix64, problem: &Problem, freqs: &mut [f64]) {
        let n = freqs.len();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.75] {
            freqs[rng.below(n)] = bad;
        }
        if let Some(i) = (0..n).find(|&i| problem.change_rates()[i] <= STATIC_RATE) {
            freqs[i] = 2.5;
        }
        let funded: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0.0).collect();
        if funded.len() >= 2 {
            freqs[funded[rng.below(funded.len())]] *= 1.1;
            freqs[funded[0]] = 0.0;
        }
        if funded.len() >= 3 {
            let below = funded[funded.len() / 2];
            let cut = SolutionAudit::default().support_tol * problem.bandwidth();
            freqs[below] = 0.5 * cut / problem.sizes()[below];
        }
    }

    /// The one-pass certificate against the oracle, byte for byte on
    /// `to_json`, on serial, 2- and 3-worker executors: sizes that end on
    /// and just past a chunk boundary, both laws, sized and costed
    /// problems, clean and doctored allocations, and multipliers that are
    /// usable, absent, NaN or 0, with and without a levy.
    #[test]
    fn one_pass_certificate_matches_the_oracle_at_any_worker_count() {
        let mut rng = SplitMix64::new(0xa0d17);
        let executors = [
            Executor::serial(),
            Executor::thread_pool(2),
            Executor::thread_pool(3),
        ];
        let mut compared = 0;
        for n in [1, 7, 8192, 8193, 24_593] {
            for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
                for sized in [false, true] {
                    let gamma = if sized { 0.02 } else { 0.0 };
                    let mu = rng.range(0.05, 0.6) / n as f64;
                    let (problem, clean) = match policy {
                        SyncPolicy::FixedOrder => {
                            waterline::<FixedOrder>(&mut rng, n, sized, (mu, gamma))
                        }
                        SyncPolicy::Poisson => {
                            waterline::<Poisson>(&mut rng, n, sized, (mu, gamma))
                        }
                    };
                    let mut doctored = clean.clone();
                    doctor(&mut rng, &problem, &mut doctored);
                    for freqs in [&clean, &doctored] {
                        for multiplier in [Some(mu), None, Some(f64::NAN), Some(0.0)] {
                            let solution = Solution {
                                frequencies: freqs.clone(),
                                perceived_freshness: 0.0,
                                general_freshness: 0.0,
                                bandwidth_used: 0.0,
                                multiplier,
                                cost_multiplier: None,
                                iterations: 0,
                            };
                            for cost_weight in [0.0, gamma] {
                                for audit in [SolutionAudit::default(), SolutionAudit::relaxed()] {
                                    let want =
                                        oracle(&audit, &problem, &solution, policy, cost_weight)
                                            .unwrap()
                                            .to_json();
                                    for exec in &executors {
                                        let got = audit
                                            .clone()
                                            .with_executor(exec.clone())
                                            .check_with_cost(
                                                &problem,
                                                &solution,
                                                policy,
                                                cost_weight,
                                            )
                                            .unwrap()
                                            .to_json();
                                        assert_eq!(
                                            got,
                                            want,
                                            "n={n} {policy:?} sized={sized} μ={multiplier:?} \
                                             γ={cost_weight} workers={}",
                                            exec.workers()
                                        );
                                        compared += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 5 * 2 * 2 * 2 * 4 * 2 * 2 * 3);
    }

    /// Every report kind shows up in the parity corpus, so the parity
    /// test compares each one's ordering rather than empty lists.
    #[test]
    fn parity_corpus_breaks_every_condition() {
        let mut rng = SplitMix64::new(7);
        let (problem, mut freqs) = waterline::<FixedOrder>(&mut rng, 8193, true, (1e-5, 0.0));
        doctor(&mut rng, &problem, &mut freqs);
        let solution = Solution {
            frequencies: freqs,
            perceived_freshness: 0.0,
            general_freshness: 0.0,
            bandwidth_used: 0.0,
            multiplier: Some(1e-5),
            cost_multiplier: None,
            iterations: 0,
        };
        let report = SolutionAudit::default()
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        for kind in [
            ViolationKind::NonFiniteFrequency,
            ViolationKind::NegativeFrequency,
            ViolationKind::BudgetResidual,
            ViolationKind::StaticFunded,
            ViolationKind::MarginalSpread,
            ViolationKind::Slackness,
        ] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "{kind:?} missing: {}",
                report.to_json()
            );
        }
    }

    /// The best-funded element starved to a positive frequency below the
    /// support cut keeps a marginal above the waterline there, so it fails
    /// slackness under either law, as it would at zero.
    #[test]
    fn an_element_starved_below_the_cut_is_still_flagged() {
        let mut rng = SplitMix64::new(11);
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let mu = 1e-3;
            let (problem, mut freqs) = match policy {
                SyncPolicy::FixedOrder => waterline::<FixedOrder>(&mut rng, 64, true, (mu, 0.0)),
                SyncPolicy::Poisson => waterline::<Poisson>(&mut rng, 64, true, (mu, 0.0)),
            };
            let best = (0..freqs.len())
                .max_by(|&a, &b| freqs[a].total_cmp(&freqs[b]))
                .unwrap();
            let cut = SolutionAudit::default().support_tol * problem.bandwidth();
            freqs[best] = 0.5 * cut / problem.sizes()[best];
            assert!(freqs[best] > 0.0);
            let solution = Solution {
                frequencies: freqs,
                perceived_freshness: 0.0,
                general_freshness: 0.0,
                bandwidth_used: 0.0,
                multiplier: Some(mu),
                cost_multiplier: None,
                iterations: 0,
            };
            let report = SolutionAudit::default()
                .check(&problem, &solution, policy)
                .unwrap();
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::Slackness && v.element == Some(best)),
                "{policy:?}: {}",
                report.to_json()
            );
        }
    }

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
        let mut solution =
            Solution::evaluate_with(&problem, freqs, SyncPolicy::Poisson, &Executor::serial());
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
        let mut solution =
            Solution::evaluate_with(&problem, freqs, SyncPolicy::Poisson, &Executor::serial());
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
        let mut solution =
            Solution::evaluate_with(&problem, freqs, SyncPolicy::Poisson, &Executor::serial());
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
