//! The bandwidth-allocation problem: elements, budgets, and solutions.
//!
//! The paper's **Core Problem** (§2.1): given change frequencies `λᵢ` and
//! access probabilities `pᵢ`, find sync frequencies `fᵢ ≥ 0` maximizing
//! `Σ pᵢ·F̄(fᵢ, λᵢ)` subject to `Σ fᵢ = B`.
//!
//! The **Extended Problem** (§5.1) adds object sizes `sᵢ` and replaces the
//! constraint with `Σ sᵢ·fᵢ ≤ B` — one refresh of a 3-unit object costs 3
//! units of bandwidth.
//!
//! [`Problem`] carries both forms (the core problem is the extended problem
//! with all sizes 1). Solvers live in `freshen-solver`; heuristics in
//! `freshen-heuristics`; both consume and produce the types defined here.

use freshen_obs::json::{push_float, push_u64};

use crate::error::{CoreError, Result};
use crate::exec::Executor;
use crate::freshness::{general_freshness, perceived_freshness};
use crate::json::Json;
use crate::numeric::neumaier_sum;
use crate::policy::{sum_terms, weighted, FixedOrder, FreshnessLaw, Poisson, SyncPolicy};

/// Tolerance used when checking that access probabilities sum to one.
pub const PROB_SUM_TOL: f64 = 1e-6;

/// Change rates at or below this are "static": the element is always
/// fresh and never worth bandwidth. The one cutoff the solvers, the
/// certificate and the tier splits share.
pub const STATIC_RATE: f64 = 1e-12;

/// One mirrored object, as the scheduler sees it.
///
/// This is a convenience view; [`Problem`] stores the same data in
/// structure-of-arrays form for cache-friendly bulk math.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Element {
    /// Index of the element within the problem.
    pub id: usize,
    /// Poisson change frequency at the source (changes per period).
    pub change_rate: f64,
    /// Aggregate access probability from the master profile.
    pub access_prob: f64,
    /// Object size in bandwidth units (1.0 in the fixed-size core problem).
    pub size: f64,
}

/// An instance of the (core or extended) freshening problem.
///
/// Invariants enforced at construction:
/// * all vectors have the same non-zero length;
/// * `λᵢ ≥ 0`, `pᵢ ≥ 0`, `sᵢ > 0`, all finite;
/// * `Σ pᵢ = 1 ± 1e-6` (use [`ProblemBuilder::access_weights`] to have the
///   builder normalize raw weights for you);
/// * bandwidth `B > 0` and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    change_rates: Vec<f64>,
    access_probs: Vec<f64>,
    sizes: Vec<f64>,
    bandwidth: f64,
    uniform_sizes: bool,
    /// Per-poll monetary cost `cᵢ` of refreshing element `i` once.
    /// `None` means the uniform core-problem cost of 1.0 per poll.
    costs: Option<Vec<f64>>,
}

impl Problem {
    /// Start building a problem.
    pub fn builder() -> ProblemBuilder {
        ProblemBuilder::default()
    }

    /// Number of elements `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.change_rates.len()
    }

    /// True when the problem has no elements (never constructible through
    /// the builder, but kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.change_rates.is_empty()
    }

    /// Change frequencies `λᵢ` (per period).
    #[inline]
    pub fn change_rates(&self) -> &[f64] {
        &self.change_rates
    }

    /// Access probabilities `pᵢ` (sum to 1).
    #[inline]
    pub fn access_probs(&self) -> &[f64] {
        &self.access_probs
    }

    /// Object sizes `sᵢ` in bandwidth units.
    #[inline]
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// Total sync bandwidth `B` per period: refresh *count* when sizes are
    /// uniform at 1, byte-bandwidth otherwise.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// True when every size equals 1.0 — i.e. this is the paper's Core
    /// Problem and bandwidth is simply a refresh count.
    #[inline]
    pub fn has_uniform_sizes(&self) -> bool {
        self.uniform_sizes
    }

    /// Per-poll costs `cᵢ`, when an explicit cost column was provided.
    /// `None` means every poll costs the uniform 1.0.
    #[inline]
    pub fn poll_costs(&self) -> Option<&[f64]> {
        self.costs.as_deref()
    }

    /// Per-poll cost of element `i` (1.0 when no cost column was set).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn poll_cost(&self, i: usize) -> f64 {
        match &self.costs {
            Some(c) => c[i],
            None => {
                assert!(i < self.len(), "poll_cost index out of bounds");
                1.0
            }
        }
    }

    /// True when every poll costs the same 1.0 — either because no cost
    /// column was set or because the provided column is all-ones.
    #[inline]
    pub fn has_uniform_costs(&self) -> bool {
        match &self.costs {
            Some(c) => c.iter().all(|&x| x == 1.0),
            None => true,
        }
    }

    /// Total per-period poll spend of an allocation: `Σ cᵢ·fᵢ`
    /// (compensated summation, matching [`bandwidth_used`]).
    ///
    /// [`bandwidth_used`]: Problem::bandwidth_used
    pub fn cost_used(&self, freqs: &[f64]) -> f64 {
        assert_eq!(freqs.len(), self.len(), "freqs length mismatch");
        match &self.costs {
            Some(c) => neumaier_sum(c.iter().zip(freqs).map(|(&c, &f)| c * f)),
            None => neumaier_sum(freqs.iter().copied()),
        }
    }

    /// Element view at index `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn element(&self, i: usize) -> Element {
        Element {
            id: i,
            change_rate: self.change_rates[i],
            access_prob: self.access_probs[i],
            size: self.sizes[i],
        }
    }

    /// Iterate over element views.
    pub fn elements(&self) -> impl Iterator<Item = Element> + '_ {
        (0..self.len()).map(move |i| self.element(i))
    }

    /// Bandwidth consumed by an allocation: `Σ sᵢ·fᵢ` (compensated
    /// summation, so million-element budgets don't drift).
    pub fn bandwidth_used(&self, freqs: &[f64]) -> f64 {
        assert_eq!(freqs.len(), self.len(), "freqs length mismatch");
        neumaier_sum(self.sizes.iter().zip(freqs).map(|(&s, &f)| s * f))
    }

    /// Check an allocation for feasibility: non-negative, finite, and within
    /// the bandwidth budget (to relative tolerance `tol`).
    pub fn is_feasible(&self, freqs: &[f64], tol: f64) -> bool {
        freqs.len() == self.len()
            && freqs.iter().all(|f| f.is_finite() && *f >= 0.0)
            && self.bandwidth_used(freqs) <= self.bandwidth * (1.0 + tol)
    }

    /// Perceived freshness of an allocation against this problem's profile
    /// (Fixed-Order policy, the paper's default), summed serially.
    pub fn perceived_freshness(&self, freqs: &[f64]) -> f64 {
        perceived_freshness(&self.access_probs, &self.change_rates, freqs)
    }

    /// Perceived freshness under an explicit synchronization policy,
    /// summed on `executor`: the same bits at any worker count — see
    /// [`sum_terms`].
    pub fn perceived_freshness_with(
        &self,
        policy: SyncPolicy,
        freqs: &[f64],
        executor: &Executor,
    ) -> f64 {
        policy.perceived_freshness(&self.access_probs, &self.change_rates, freqs, executor)
    }

    /// Interest-blind average freshness of an allocation (Definition 2).
    pub fn general_freshness(&self, freqs: &[f64]) -> f64 {
        general_freshness(&self.change_rates, freqs)
    }

    /// A copy of this problem with uniform access probabilities — the
    /// objective optimized by the paper's **GF technique** (Cho &
    /// Garcia-Molina's interest-blind scheduler).
    pub fn with_uniform_interest(&self) -> Problem {
        let n = self.len();
        Problem {
            change_rates: self.change_rates.clone(),
            access_probs: vec![1.0 / n as f64; n],
            sizes: self.sizes.clone(),
            bandwidth: self.bandwidth,
            uniform_sizes: self.uniform_sizes,
            costs: self.costs.clone(),
        }
    }

    /// A copy of this problem with every size reset to 1 (the core-problem
    /// view of an extended problem). Used for the paper's Figure 10
    /// comparison of size-aware vs size-blind schedules.
    pub fn with_uniform_sizes(&self) -> Problem {
        Problem {
            change_rates: self.change_rates.clone(),
            access_probs: self.access_probs.clone(),
            sizes: vec![1.0; self.len()],
            bandwidth: self.bandwidth,
            uniform_sizes: true,
            costs: self.costs.clone(),
        }
    }

    /// Restrict the problem to a subset of element indices, renormalizing
    /// access probabilities over the subset. Used by mirror-content
    /// selection (§7 future work) and by partition-local subproblems.
    ///
    /// Returns an error when `indices` is empty, out of bounds, or selects
    /// elements whose total access probability is zero.
    pub fn restrict_to(&self, indices: &[usize], bandwidth: f64) -> Result<Problem> {
        if indices.is_empty() {
            return Err(CoreError::Empty);
        }
        let mut lam = Vec::with_capacity(indices.len());
        let mut p = Vec::with_capacity(indices.len());
        let mut s = Vec::with_capacity(indices.len());
        let mut c = self
            .costs
            .as_ref()
            .map(|_| Vec::with_capacity(indices.len()));
        for &i in indices {
            if i >= self.len() {
                return Err(CoreError::InvalidValue {
                    what: "restrict_to index",
                    index: Some(i),
                    value: i as f64,
                });
            }
            lam.push(self.change_rates[i]);
            p.push(self.access_probs[i]);
            s.push(self.sizes[i]);
            if let (Some(sub), Some(full)) = (c.as_mut(), self.costs.as_ref()) {
                sub.push(full[i]);
            }
        }
        let total = neumaier_sum(p.iter().copied());
        if total <= 0.0 {
            return Err(CoreError::ProbabilityNotNormalized { sum: total });
        }
        for w in &mut p {
            *w /= total;
        }
        let mut builder = Problem::builder()
            .change_rates(lam)
            .access_probs(p)
            .sizes(s)
            .bandwidth(bandwidth);
        if let Some(sub) = c {
            builder = builder.costs(sub);
        }
        builder.build()
    }

    /// The problem file format the CLI reads and writes: one member per
    /// line, floats as [`push_float`] renders them.
    ///
    /// ```text
    /// {
    ///   "change_rates": [1.0, 2.0],
    ///   "access_probs": [0.5, 0.5],
    ///   "sizes": [1.0, 1.0],
    ///   "bandwidth": 1.0,
    ///   "uniform_sizes": true,
    ///   "costs": null
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + 24 * 3 * self.len());
        out.push_str("{\n  \"change_rates\": ");
        push_float_array(&mut out, &self.change_rates);
        out.push_str(",\n  \"access_probs\": ");
        push_float_array(&mut out, &self.access_probs);
        out.push_str(",\n  \"sizes\": ");
        push_float_array(&mut out, &self.sizes);
        out.push_str(",\n  \"bandwidth\": ");
        push_float(&mut out, self.bandwidth);
        out.push_str(",\n  \"uniform_sizes\": ");
        out.push_str(if self.uniform_sizes { "true" } else { "false" });
        out.push_str(",\n  \"costs\": ");
        match &self.costs {
            Some(costs) => push_float_array(&mut out, costs),
            None => out.push_str("null"),
        }
        out.push_str("\n}");
        out
    }

    /// Read a problem file written by [`to_json`](Self::to_json). The
    /// document goes through [`ProblemBuilder`], so a file is held to
    /// every construction invariant — equal lengths, `λᵢ ≥ 0`, `sᵢ > 0`,
    /// `Σ pᵢ = 1`, `B > 0` — and a `uniform_sizes` flag must agree with
    /// the sizes. `sizes`, `uniform_sizes` and `costs` may be omitted;
    /// unknown members are rejected.
    pub fn from_json(text: &str) -> Result<Problem> {
        let doc = Json::parse(text)?;
        let field = |key| member(&doc, "problem", key);
        expect_members(&doc, "problem", PROBLEM_MEMBERS)?;
        let mut builder = Problem::builder()
            .change_rates(field("change_rates")?.as_f64_vec("change_rates")?)
            .access_probs(field("access_probs")?.as_f64_vec("access_probs")?)
            .bandwidth(field("bandwidth")?.as_f64("bandwidth")?);
        if let Some(sizes) = doc.get("sizes") {
            builder = builder.sizes(sizes.as_f64_vec("sizes")?);
        }
        if let Some(costs) = doc.get("costs").filter(|c| **c != Json::Null) {
            builder = builder.costs(costs.as_f64_vec("costs")?);
        }
        let problem = builder.build()?;
        match doc.get("uniform_sizes") {
            None => Ok(problem),
            Some(&Json::Bool(flag)) if flag == problem.uniform_sizes => Ok(problem),
            Some(&Json::Bool(flag)) => Err(CoreError::InvalidConfig(format!(
                "problem: uniform_sizes is {flag} but the sizes {} all 1",
                if flag { "are not" } else { "are" }
            ))),
            Some(_) => Err(CoreError::InvalidConfig(
                "problem: uniform_sizes must be true or false".into(),
            )),
        }
    }
}

const PROBLEM_MEMBERS: &[&str] = &[
    "change_rates",
    "access_probs",
    "sizes",
    "bandwidth",
    "uniform_sizes",
    "costs",
];

const SOLUTION_MEMBERS: &[&str] = &[
    "frequencies",
    "perceived_freshness",
    "general_freshness",
    "bandwidth_used",
    "multiplier",
    "cost_multiplier",
    "iterations",
];

/// Reject a document that is not an object or has a member outside
/// `known`, so a misspelled key fails instead of being ignored.
fn expect_members(doc: &Json, what: &str, known: &[&str]) -> Result<()> {
    match doc
        .as_obj(what)?
        .iter()
        .find(|(k, _)| !known.contains(&k.as_str()))
    {
        Some((key, _)) => Err(CoreError::InvalidConfig(format!(
            "{what}: unknown member `{key}`"
        ))),
        None => Ok(()),
    }
}

/// The required member `key` of `doc`.
fn member<'a>(doc: &'a Json, what: &str, key: &str) -> Result<&'a Json> {
    doc.get(key)
        .ok_or_else(|| CoreError::InvalidConfig(format!("{what}: missing `{key}`")))
}

/// Append `[a, b, …]` with each value rendered by [`push_float`].
fn push_float_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_float(out, v);
    }
    out.push(']');
}

/// Builder for [`Problem`]; validates every invariant on [`build`].
///
/// [`build`]: ProblemBuilder::build
#[derive(Debug, Default, Clone)]
pub struct ProblemBuilder {
    change_rates: Vec<f64>,
    access_probs: Vec<f64>,
    sizes: Option<Vec<f64>>,
    costs: Option<Vec<f64>>,
    bandwidth: f64,
    normalize: bool,
}

impl ProblemBuilder {
    /// Set the per-element change frequencies `λᵢ`.
    pub fn change_rates(mut self, rates: Vec<f64>) -> Self {
        self.change_rates = rates;
        self
    }

    /// Set access probabilities `pᵢ`; must sum to 1.
    pub fn access_probs(mut self, probs: Vec<f64>) -> Self {
        self.access_probs = probs;
        self.normalize = false;
        self
    }

    /// Set raw (unnormalized) access weights; the builder divides by their
    /// sum. Convenient when the profile is a frequency count.
    pub fn access_weights(mut self, weights: Vec<f64>) -> Self {
        self.access_probs = weights;
        self.normalize = true;
        self
    }

    /// Set object sizes; omit for the fixed-size core problem (all 1.0).
    pub fn sizes(mut self, sizes: Vec<f64>) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Set per-poll costs `cᵢ`; omit for the uniform-cost problem
    /// (every poll costs 1.0). Costs must be finite and non-negative —
    /// a zero cost marks an element whose refreshes are free.
    pub fn costs(mut self, costs: Vec<f64>) -> Self {
        self.costs = Some(costs);
        self
    }

    /// Set the bandwidth budget `B` per period.
    pub fn bandwidth(mut self, b: f64) -> Self {
        self.bandwidth = b;
        self
    }

    /// Validate and construct the [`Problem`].
    pub fn build(self) -> Result<Problem> {
        let n = self.change_rates.len();
        if n == 0 {
            return Err(CoreError::Empty);
        }
        if self.access_probs.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "access_probs",
                expected: n,
                actual: self.access_probs.len(),
            });
        }
        let sizes = self.sizes.unwrap_or_else(|| vec![1.0; n]);
        if sizes.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "sizes",
                expected: n,
                actual: sizes.len(),
            });
        }
        for (i, &l) in self.change_rates.iter().enumerate() {
            if !l.is_finite() || l < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "change_rates",
                    index: Some(i),
                    value: l,
                });
            }
        }
        let mut probs = self.access_probs;
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "access_probs",
                    index: Some(i),
                    value: p,
                });
            }
        }
        // Compensated sum: naive accumulation over 10⁶ probabilities can
        // drift by the same order as PROB_SUM_TOL itself.
        let sum = neumaier_sum(probs.iter().copied());
        if self.normalize {
            if sum <= 0.0 {
                return Err(CoreError::ProbabilityNotNormalized { sum });
            }
            for p in &mut probs {
                *p /= sum;
            }
        } else if (sum - 1.0).abs() > PROB_SUM_TOL {
            return Err(CoreError::ProbabilityNotNormalized { sum });
        }
        let mut uniform_sizes = true;
        for (i, &s) in sizes.iter().enumerate() {
            if !s.is_finite() || s <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "sizes",
                    index: Some(i),
                    value: s,
                });
            }
            if s != 1.0 {
                uniform_sizes = false;
            }
        }
        if let Some(costs) = &self.costs {
            if costs.len() != n {
                return Err(CoreError::LengthMismatch {
                    what: "costs",
                    expected: n,
                    actual: costs.len(),
                });
            }
            for (i, &c) in costs.iter().enumerate() {
                if !c.is_finite() || c < 0.0 {
                    return Err(CoreError::InvalidValue {
                        what: "costs",
                        index: Some(i),
                        value: c,
                    });
                }
            }
        }
        if !self.bandwidth.is_finite() || self.bandwidth <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "bandwidth",
                index: None,
                value: self.bandwidth,
            });
        }
        Ok(Problem {
            change_rates: self.change_rates,
            access_probs: probs,
            sizes,
            bandwidth: self.bandwidth,
            uniform_sizes,
            costs: self.costs,
        })
    }
}

/// The output of a solver or heuristic: an allocation plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Per-element sync frequencies `fᵢ` (per period).
    pub frequencies: Vec<f64>,
    /// Perceived freshness achieved, `Σ pᵢ F̄(λᵢ, fᵢ)`.
    pub perceived_freshness: f64,
    /// Interest-blind average freshness achieved.
    pub general_freshness: f64,
    /// Bandwidth consumed, `Σ sᵢ fᵢ`.
    pub bandwidth_used: f64,
    /// The Lagrange multiplier `μ` at the solution, when the producing
    /// algorithm computes one (exact solvers do; heuristics report the
    /// multiplier of their reduced problem).
    pub multiplier: Option<f64>,
    /// The cost weight `γ` the producing solve priced polls at: the fixed
    /// `--poll-cost` weight in cost-aware mode, or the levy that
    /// `freshen_solver::LagrangeSolver::solve_cost_budget` found for a
    /// cost budget. `None` for cost-blind solves.
    pub cost_multiplier: Option<f64>,
    /// Iterations the producing algorithm spent.
    pub iterations: usize,
}

impl Solution {
    /// Score an allocation against a problem, producing a [`Solution`]
    /// record with metrics filled in (Fixed-Order policy, serial).
    pub fn evaluate(problem: &Problem, frequencies: Vec<f64>) -> Solution {
        Self::evaluate_with(
            problem,
            frequencies,
            SyncPolicy::FixedOrder,
            &Executor::serial(),
        )
    }

    /// Score an allocation under `policy` on `executor`. PF, GF
    /// (`Σ F̄ᵢ/N`) and the spend `Σ sᵢfᵢ` come from one [`sum_terms`]
    /// pass that evaluates each `F̄ᵢ` once, so PF and GF equal
    /// [`Problem::perceived_freshness_with`] and
    /// [`SyncPolicy::mean_freshness`] bit for bit at any worker count.
    pub fn evaluate_with(
        problem: &Problem,
        frequencies: Vec<f64>,
        policy: SyncPolicy,
        executor: &Executor,
    ) -> Solution {
        fn score<L: FreshnessLaw>(columns: [&[f64]; 4], executor: &Executor) -> [f64; 3] {
            sum_terms(columns, executor, |[p, l, s, f]| {
                let fresh = L::freshness(l, f);
                [weighted(p, || fresh), fresh, s * f]
            })
        }
        let columns = [
            problem.access_probs(),
            problem.change_rates(),
            problem.sizes(),
            &frequencies,
        ];
        let [pf, total, used] = match policy {
            SyncPolicy::FixedOrder => score::<FixedOrder>(columns, executor),
            SyncPolicy::Poisson => score::<Poisson>(columns, executor),
        };
        Solution {
            frequencies,
            perceived_freshness: pf,
            general_freshness: total / problem.len() as f64,
            bandwidth_used: used,
            multiplier: None,
            cost_multiplier: None,
            iterations: 0,
        }
    }

    /// The solution file format the CLI writes and `--schedule` reads,
    /// laid out like [`Problem::to_json`]; absent multipliers are `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192 + 24 * self.frequencies.len());
        out.push_str("{\n  \"frequencies\": ");
        push_float_array(&mut out, &self.frequencies);
        for (key, v) in [
            ("perceived_freshness", Some(self.perceived_freshness)),
            ("general_freshness", Some(self.general_freshness)),
            ("bandwidth_used", Some(self.bandwidth_used)),
            ("multiplier", self.multiplier),
            ("cost_multiplier", self.cost_multiplier),
        ] {
            out.push_str(",\n  \"");
            out.push_str(key);
            out.push_str("\": ");
            match v {
                Some(v) => push_float(&mut out, v),
                None => out.push_str("null"),
            }
        }
        out.push_str(",\n  \"iterations\": ");
        push_u64(&mut out, self.iterations as u64);
        out.push_str("\n}");
        out
    }

    /// Read a solution file written by [`to_json`](Self::to_json). Every
    /// frequency must be finite and non-negative; `multiplier` and
    /// `cost_multiplier` may be omitted, and unknown members are
    /// rejected.
    pub fn from_json(text: &str) -> Result<Solution> {
        let doc = Json::parse(text)?;
        let field = |key| member(&doc, "solution", key);
        let number = |key| field(key)?.as_f64(key);
        let optional = |key| match doc.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_f64(key).map(Some),
        };
        expect_members(&doc, "solution", SOLUTION_MEMBERS)?;
        let frequencies = field("frequencies")?.as_f64_vec("frequencies")?;
        if let Some((i, &f)) = frequencies
            .iter()
            .enumerate()
            .find(|(_, f)| !f.is_finite() || **f < 0.0)
        {
            return Err(CoreError::InvalidValue {
                what: "frequencies",
                index: Some(i),
                value: f,
            });
        }
        Ok(Solution {
            frequencies,
            perceived_freshness: number("perceived_freshness")?,
            general_freshness: number("general_freshness")?,
            bandwidth_used: number("bandwidth_used")?,
            multiplier: optional("multiplier")?,
            cost_multiplier: optional("cost_multiplier")?,
            iterations: field("iterations")?.as_usize("iterations")?,
        })
    }

    /// Number of elements receiving zero bandwidth ("starved" objects —
    /// the paper's §7 observes many objects legitimately get none).
    pub fn starved_count(&self) -> usize {
        self.frequencies.iter().filter(|f| **f <= 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .access_probs(vec![0.2; 5])
            .bandwidth(5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let p = toy();
        assert_eq!(p.len(), 5);
        assert!(p.has_uniform_sizes());
        assert_eq!(p.bandwidth(), 5.0);
    }

    #[test]
    fn builder_rejects_empty() {
        let err = Problem::builder().bandwidth(1.0).build().unwrap_err();
        assert_eq!(err, CoreError::Empty);
    }

    #[test]
    fn builder_rejects_length_mismatch() {
        let err = Problem::builder()
            .change_rates(vec![1.0, 2.0])
            .access_probs(vec![1.0])
            .bandwidth(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::LengthMismatch {
                what: "access_probs",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_negative_rate() {
        let err = Problem::builder()
            .change_rates(vec![1.0, -2.0])
            .access_probs(vec![0.5, 0.5])
            .bandwidth(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidValue {
                what: "change_rates",
                index: Some(1),
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_unnormalized_probs() {
        let err = Problem::builder()
            .change_rates(vec![1.0, 2.0])
            .access_probs(vec![0.5, 0.6])
            .bandwidth(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::ProbabilityNotNormalized { .. }));
    }

    #[test]
    fn builder_normalizes_weights() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0])
            .access_weights(vec![10.0, 20.0, 30.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let probs = p.access_probs();
        assert!((probs[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((probs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_zero_weight_sum() {
        let err = Problem::builder()
            .change_rates(vec![1.0])
            .access_weights(vec![0.0])
            .bandwidth(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::ProbabilityNotNormalized { .. }));
    }

    #[test]
    fn builder_rejects_zero_size() {
        let err = Problem::builder()
            .change_rates(vec![1.0])
            .access_probs(vec![1.0])
            .sizes(vec![0.0])
            .bandwidth(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidValue { what: "sizes", .. }));
    }

    #[test]
    fn builder_rejects_bad_bandwidth() {
        for b in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Problem::builder()
                .change_rates(vec![1.0])
                .access_probs(vec![1.0])
                .bandwidth(b)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                CoreError::InvalidValue {
                    what: "bandwidth",
                    ..
                }
            ));
        }
    }

    #[test]
    fn uniform_size_detection() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .sizes(vec![1.0, 2.0])
            .bandwidth(1.0)
            .build()
            .unwrap();
        assert!(!p.has_uniform_sizes());
        assert!(p.with_uniform_sizes().has_uniform_sizes());
    }

    #[test]
    fn bandwidth_used_weights_by_size() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .sizes(vec![1.0, 3.0])
            .bandwidth(10.0)
            .build()
            .unwrap();
        assert_eq!(p.bandwidth_used(&[2.0, 2.0]), 8.0);
    }

    #[test]
    fn feasibility_checks() {
        let p = toy();
        assert!(p.is_feasible(&[1.0; 5], 1e-9));
        assert!(!p.is_feasible(&[2.0; 5], 1e-9)); // over budget
        assert!(!p.is_feasible(&[1.0; 4], 1e-9)); // wrong length
        assert!(!p.is_feasible(&[1.0, 1.0, 1.0, 1.0, -0.1], 1e-9)); // negative
    }

    #[test]
    fn uniform_interest_flattens_profile() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0])
            .access_probs(vec![0.9, 0.1])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let u = p.with_uniform_interest();
        assert_eq!(u.access_probs(), &[0.5, 0.5]);
        // change rates and bandwidth preserved
        assert_eq!(u.change_rates(), p.change_rates());
        assert_eq!(u.bandwidth(), p.bandwidth());
    }

    #[test]
    fn element_views() {
        let p = toy();
        let e = p.element(2);
        assert_eq!(e.id, 2);
        assert_eq!(e.change_rate, 3.0);
        assert_eq!(e.size, 1.0);
        assert_eq!(p.elements().count(), 5);
    }

    #[test]
    fn restrict_to_renormalizes() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0])
            .access_probs(vec![0.2, 0.3, 0.5])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let sub = p.restrict_to(&[1, 2], 2.0).unwrap();
        assert_eq!(sub.len(), 2);
        assert!((sub.access_probs()[0] - 0.375).abs() < 1e-12);
        assert!((sub.access_probs()[1] - 0.625).abs() < 1e-12);
        assert_eq!(sub.bandwidth(), 2.0);
    }

    #[test]
    fn restrict_to_rejects_empty_and_oob() {
        let p = toy();
        assert!(p.restrict_to(&[], 1.0).is_err());
        assert!(p.restrict_to(&[99], 1.0).is_err());
    }

    #[test]
    fn solution_evaluate_fills_metrics() {
        let p = toy();
        let s = Solution::evaluate(&p, vec![1.0; 5]);
        assert!((s.bandwidth_used - 5.0).abs() < 1e-12);
        assert!(s.perceived_freshness > 0.0 && s.perceived_freshness < 1.0);
        assert!(s.general_freshness > 0.0 && s.general_freshness < 1.0);
        // Uniform profile: PF equals GF.
        assert!((s.perceived_freshness - s.general_freshness).abs() < 1e-12);
        assert_eq!(s.starved_count(), 0);
    }

    #[test]
    fn starved_count_counts_zeros() {
        let p = toy();
        let s = Solution::evaluate(&p, vec![0.0, 2.0, 3.0, 0.0, 0.0]);
        assert_eq!(s.starved_count(), 3);
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let p = Problem::builder()
            .change_rates(vec![0.1, 1.0 / 3.0, 7.0, 1e-9])
            .access_weights(vec![3.0, 1.0, 2.0, 0.5])
            .sizes(vec![1.0, 2.5, 0.125, 3.0])
            .costs(vec![0.0, 1.0, 2.0, 0.3])
            .bandwidth(2.0)
            .build()
            .unwrap();
        for p in [toy(), p] {
            let back = Problem::from_json(&p.to_json()).unwrap();
            assert_eq!(back, p);
            for (a, b) in back.access_probs().iter().zip(p.access_probs()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let mut s = Solution::evaluate(&toy(), vec![0.5, 1.0 / 3.0, 2.0, 0.0, 1e-300]);
        s.multiplier = Some(0.25);
        s.iterations = 17;
        let back = Solution::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(
            back.perceived_freshness.to_bits(),
            s.perceived_freshness.to_bits()
        );
        assert!(s.to_json().contains("\"bandwidth_used\": "));
        assert!(toy().to_json().contains("\"bandwidth\": 5.0,"));
    }

    #[test]
    fn problem_files_are_validated() {
        let ok = r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5], "bandwidth": 1}"#;
        assert_eq!(Problem::from_json(ok).unwrap().len(), 2);
        for (why, doc) in [
            (
                "length mismatch",
                r#"{"change_rates": [1], "access_probs": [0.5, 0.5], "bandwidth": 1}"#,
            ),
            (
                "negative rate",
                r#"{"change_rates": [-1, 2], "access_probs": [0.5, 0.5], "bandwidth": 1}"#,
            ),
            (
                "probs not summing to 1",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.6], "bandwidth": 1}"#,
            ),
            (
                "zero bandwidth",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5], "bandwidth": 0}"#,
            ),
            (
                "zero size",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5], "sizes": [1, 0], "bandwidth": 1}"#,
            ),
            (
                "false uniform flag",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5], "sizes": [1, 2], "uniform_sizes": true, "bandwidth": 1}"#,
            ),
            (
                "missing bandwidth",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5]}"#,
            ),
            (
                "unknown member",
                r#"{"change_rates": [1, 2], "access_probs": [0.5, 0.5], "bandwidth": 1, "budget": 2}"#,
            ),
            ("not an object", "[1, 2]"),
        ] {
            assert!(Problem::from_json(doc).is_err(), "accepted {why}");
        }
        for (why, doc) in [
            (
                "negative frequency",
                r#"{"frequencies": [1, -1], "perceived_freshness": 0.5, "general_freshness": 0.5, "bandwidth_used": 0, "iterations": 0}"#,
            ),
            (
                "missing iterations",
                r#"{"frequencies": [1], "perceived_freshness": 0.5, "general_freshness": 0.5, "bandwidth_used": 1}"#,
            ),
            (
                "unknown member",
                r#"{"frequencies": [1], "perceived_freshness": 0.5, "general_freshness": 0.5, "bandwidth_used": 1, "iterations": 0, "mu": 1}"#,
            ),
        ] {
            assert!(Solution::from_json(doc).is_err(), "accepted {why}");
        }
    }

    #[test]
    fn costs_default_to_uniform_one() {
        let p = toy();
        assert!(p.poll_costs().is_none());
        assert!(p.has_uniform_costs());
        assert_eq!(p.poll_cost(3), 1.0);
        // With no cost column, spend is just Σ fᵢ.
        assert_eq!(p.cost_used(&[1.0, 2.0, 3.0, 4.0, 5.0]), 15.0);
    }

    #[test]
    fn explicit_costs_are_validated_and_used() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0])
            .access_probs(vec![0.5, 0.5])
            .costs(vec![0.5, 3.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        assert!(!p.has_uniform_costs());
        assert_eq!(p.poll_cost(0), 0.5);
        assert_eq!(p.cost_used(&[2.0, 1.0]), 4.0);
    }

    #[test]
    fn builder_rejects_bad_costs() {
        for bad in [vec![1.0], vec![-1.0, 1.0], vec![f64::NAN, 1.0]] {
            let err = Problem::builder()
                .change_rates(vec![1.0, 2.0])
                .access_probs(vec![0.5, 0.5])
                .costs(bad)
                .bandwidth(1.0)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                CoreError::LengthMismatch { what: "costs", .. }
                    | CoreError::InvalidValue { what: "costs", .. }
            ));
        }
    }

    #[test]
    fn costs_survive_copies_and_restriction() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0])
            .access_probs(vec![0.2, 0.3, 0.5])
            .costs(vec![1.0, 2.0, 4.0])
            .bandwidth(3.0)
            .build()
            .unwrap();
        assert_eq!(
            p.with_uniform_interest().poll_costs(),
            Some(&[1.0, 2.0, 4.0][..])
        );
        assert_eq!(
            p.with_uniform_sizes().poll_costs(),
            Some(&[1.0, 2.0, 4.0][..])
        );
        let sub = p.restrict_to(&[1, 2], 2.0).unwrap();
        assert_eq!(sub.poll_costs(), Some(&[2.0, 4.0][..]));
    }
}
