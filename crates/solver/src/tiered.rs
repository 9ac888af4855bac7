//! Tiered solves over a relay [`Topology`]: per-tier water-filling with
//! adjoint marginal-value weights, plus an outer budget-split search.
//!
//! # The block structure
//!
//! A tiered schedule assigns a frequency to every *(link, element)*
//! pair, subject to one bandwidth budget per node (a node pays for the
//! polls it issues over its incoming links). Edge PF — the objective —
//! is, per element, multilinear in the per-hop freshness factors of the
//! composed recursion (`freshen_core::topology`): holding every other
//! node fixed, node `n`'s contribution is
//!
//! ```text
//! Σᵢ σ_{n,i} · (1 − Π_{l→n} (1 − a_{l,i}·F̄(λᵢ, f_{l,i})))  + const
//! ```
//!
//! where `a_{l,i}` is the upstream node's composed freshness and
//! `σ_{n,i} = ∂(edge PF)/∂F_{n,i}` is the **adjoint weight** — computed
//! by a reverse topological sweep exactly like back-propagation
//! (`σ = pᵢ/|sinks|` at a sink; upstream, each outgoing link passes
//! back its own hop factor times the other-parent staleness product).
//! Fixing the weights, each node's subproblem is a *flat* freshening
//! problem over its (link, element) entries — concave water-filling with
//! per-entry interest `w_{l,i} = σ_{n,i}·a_{l,i}·Π_{l'≠l}(1 − a·F̄)` —
//! which the existing [`LagrangeSolver`] solves exactly.
//! The tiered solver is block-coordinate ascent over nodes in
//! topological order: sweep, re-solve each block against refreshed
//! weights, repeat until the schedule reaches a fixed point. For trees
//! (every node a single parent) each block solve is the exact block
//! maximizer, so the ascent is monotone; with parallel relays the
//! cross-link terms make the linearized block an approximation, so each
//! block update is safeguarded — reverted if it fails to improve the
//! true edge PF.
//!
//! A fixed point is exactly a KKT point of the tiered program: the
//! water-filling stationarity `w_{l,i}·F̄'(λᵢ, f_{l,i}) = μₙ·sᵢ` *is*
//! the tiered stationarity condition once `w` carries the adjoint
//! chain-rule factors. Each tier's block is therefore certified by the
//! strict [`SolutionAudit`] against its recorded weights — the same
//! certificate the flat solvers must pass.
//!
//! # Budget split
//!
//! [`TieredSolver::solve_split`] searches over the division of one
//! total budget across tiers, reusing the dual machinery of
//! [`solve_cost_budget`](LagrangeSolver::solve_cost_budget): at the
//! split optimum every tier's water level (marginal edge-PF per unit of
//! bandwidth) is equal, otherwise moving bandwidth from the
//! lowest-marginal tier to the highest would raise edge PF. So the
//! outer search finds one **shared price** `μ` over all tiers' entries
//! at once — per-entry frequencies from the flat solve's closed-form
//! kernel, total spend monotone decreasing in `μ`, the level found by the
//! flat solve's Newton root-finder — until the total budget is met; each
//! tier's budget is whatever it consumed at that shared level. Weights
//! and budgets are alternated to a joint fixed point.

use freshen_core::audit::{AuditReport, SolutionAudit};
use freshen_core::error::{CoreError, Result};
use freshen_core::numeric::NeumaierSum;
use freshen_core::policy::SyncPolicy;
use freshen_core::problem::{Problem, Solution};
use freshen_core::topology::{TieredSchedule, Topology};

use crate::lagrange::{
    blend_bracket_ends, sqrt_law_level, End, LagrangeSolver, Pass, WaterFill, STATIC_RATE,
};

/// Smallest share of the total budget a budget split hands any tier, so
/// no tier is frozen out of the next weight-refresh round.
const SPLIT_FLOOR: f64 = 1e-9;

/// Relative tolerance of the shared-price search on the total spend.
const SPLIT_TOL: f64 = 1e-12;

/// Block-coordinate tiered solver over a relay [`Topology`].
#[derive(Debug, Clone)]
pub struct TieredSolver {
    /// The flat water-filling solver used for every per-tier block
    /// solve (its `policy`, `executor`, and tolerances apply; its
    /// `cost_weight` must stay 0 — tier budgets are hard constraints).
    pub base: LagrangeSolver,
    /// Maximum block-ascent sweeps over the nodes.
    pub max_rounds: usize,
    /// Relative edge-PF improvement under which the ascent stops.
    pub pf_tol: f64,
}

impl Default for TieredSolver {
    fn default() -> Self {
        TieredSolver {
            base: LagrangeSolver::default(),
            max_rounds: 24,
            pf_tol: 1e-12,
        }
    }
}

/// The record of one tier's final block solve — enough to rebuild the
/// synthetic flat problem and re-check its KKT certificate.
#[derive(Debug, Clone)]
pub struct NodeSolve {
    /// Node index in the topology.
    pub node: usize,
    /// The tier's (link, element) entries, in solve order.
    pub entries: Vec<(usize, usize)>,
    /// Raw adjoint marginal-value weight of each entry at the final
    /// accepted block solve.
    pub weights: Vec<f64>,
    /// Water-level multiplier of the block solve, in the synthetic
    /// (weight-normalized) problem's units; `None` when the tier had no
    /// positive-weight entry and was left unfunded.
    pub multiplier: Option<f64>,
    /// Bandwidth the block solve consumed.
    pub spend: f64,
    /// Allocation passes of the block solve's water-level search.
    pub iterations: usize,
}

/// A solved tiered schedule with its per-tier solve records.
#[derive(Debug, Clone)]
pub struct TieredSolution {
    /// Per-link frequencies.
    pub schedule: TieredSchedule,
    /// Edge PF (mean over sinks) under the composed recursion.
    pub edge_pf: f64,
    /// Per-node PF.
    pub node_pf: Vec<f64>,
    /// Per-node bandwidth spend.
    pub node_spend: Vec<f64>,
    /// Per-node budgets the solve ran against (the topology's for
    /// [`TieredSolver::solve`]; the discovered split for
    /// [`TieredSolver::solve_split`]).
    pub budgets: Vec<f64>,
    /// Block-ascent sweeps performed.
    pub rounds: usize,
    /// Final block-solve record per non-source node, in topological
    /// order — the input to [`TieredSolver::certify`].
    pub nodes: Vec<NodeSolve>,
}

impl TieredSolver {
    /// The per-hop freshness factor of the base policy.
    #[inline]
    fn hop(&self, lam: f64, f: f64) -> f64 {
        self.base.policy.freshness(lam, f)
    }

    fn policy(&self) -> SyncPolicy {
        self.base.policy
    }

    /// The tier's (link, element) entries: incoming links in topology
    /// order, carried elements ascending within each.
    fn entries_for(topo: &Topology, node: usize) -> Vec<(usize, usize)> {
        let mut entries = Vec::new();
        for &l in topo.incoming(node) {
            match &topo.links()[l].elements {
                None => entries.extend((0..topo.n_elements()).map(|i| (l, i))),
                Some(subset) => entries.extend(subset.iter().map(|&i| (l, i))),
            }
        }
        entries
    }

    /// Adjoint weights `σ_{n,i} = ∂(edge PF)/∂F_{n,i}` by a reverse
    /// topological sweep (for DAGs whose paths re-merge this is the
    /// first-order sensitivity; exact on trees).
    fn adjoint(
        &self,
        topo: &Topology,
        problem: &Problem,
        schedule: &TieredSchedule,
        fresh: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let n = topo.n_elements();
        let lam = problem.change_rates();
        let p = problem.access_probs();
        let mut sigma = vec![vec![0.0f64; n]; topo.node_count()];
        let sink_w = 1.0 / topo.sinks().len() as f64;
        for &s in topo.sinks() {
            for i in 0..n {
                sigma[s][i] = p[i] * sink_w;
            }
        }
        for &node in topo.order().iter().rev() {
            for &l in topo.outgoing(node) {
                let child = topo.links()[l].to;
                for i in 0..n {
                    if !topo.links()[l].carries(i) || sigma[child][i] == 0.0 {
                        continue;
                    }
                    let hop = self.hop(lam[i], schedule.link_freqs[l][i]);
                    if hop == 0.0 {
                        continue;
                    }
                    let mut other = 1.0f64;
                    for &l2 in topo.incoming(child) {
                        if l2 != l && topo.links()[l2].carries(i) {
                            other *= 1.0
                                - fresh[topo.links()[l2].from][i]
                                    * self.hop(lam[i], schedule.link_freqs[l2][i]);
                        }
                    }
                    sigma[node][i] += sigma[child][i] * hop * other;
                }
            }
        }
        sigma
    }

    /// Raw water-filling weight of each of `node`'s entries:
    /// `σ_{n,i} · a_{l,i} · Π_{l'≠l}(1 − a_{l',i}·F̄(λᵢ, f_{l',i}))`.
    // The weight needs the whole sweep state (topology, schedule,
    // upstream freshness, adjoints) plus the node's coordinates;
    // bundling them into a struct would hide which solve the state
    // belongs to.
    #[allow(clippy::too_many_arguments)]
    fn node_weights(
        &self,
        topo: &Topology,
        problem: &Problem,
        schedule: &TieredSchedule,
        fresh: &[Vec<f64>],
        sigma: &[Vec<f64>],
        node: usize,
        entries: &[(usize, usize)],
    ) -> Vec<f64> {
        let lam = problem.change_rates();
        entries
            .iter()
            .map(|&(l, i)| {
                let a = fresh[topo.links()[l].from][i];
                if a == 0.0 || sigma[node][i] == 0.0 {
                    return 0.0;
                }
                let mut other = 1.0f64;
                for &l2 in topo.incoming(node) {
                    if l2 != l && topo.links()[l2].carries(i) {
                        other *= 1.0
                            - fresh[topo.links()[l2].from][i]
                                * self.hop(lam[i], schedule.link_freqs[l2][i]);
                    }
                }
                sigma[node][i] * a * other
            })
            .collect()
    }

    /// Build the tier's synthetic flat problem. Returns `None` when no
    /// entry has positive weight (the tier deserves no bandwidth).
    ///
    /// When the entry set is exactly the full catalog over one link,
    /// the weights are bit-for-bit the problem's access probabilities,
    /// and the tier's poll-cost scale is 1, the synthetic problem
    /// reuses those probabilities through the non-normalizing
    /// `access_probs` path — so a single-tier topology's block solve is
    /// byte-identical to the flat solve of the same problem.
    fn synth_problem(
        &self,
        topo: &Topology,
        problem: &Problem,
        node: usize,
        entries: &[(usize, usize)],
        weights: &[f64],
        budget: f64,
    ) -> Result<Option<Problem>> {
        if weights.iter().all(|&w| w <= 0.0) {
            return Ok(None);
        }
        let full_catalog = entries.len() == problem.len()
            && entries
                .iter()
                .enumerate()
                .all(|(k, &(l, i))| l == entries[0].0 && i == k);
        let verbatim = full_catalog
            && topo.poll_costs()[node] == 1.0
            && weights
                .iter()
                .zip(problem.access_probs())
                .all(|(w, p)| w.to_bits() == p.to_bits());

        let lam: Vec<f64> = entries
            .iter()
            .map(|&(_, i)| problem.change_rates()[i])
            .collect();
        let sizes: Vec<f64> = entries.iter().map(|&(_, i)| problem.sizes()[i]).collect();
        let mut builder = Problem::builder()
            .change_rates(lam)
            .sizes(sizes)
            .bandwidth(budget);
        builder = if verbatim {
            builder.access_probs(weights.to_vec())
        } else {
            builder.access_weights(weights.to_vec())
        };
        let scale = topo.poll_costs()[node];
        if problem.poll_costs().is_some() || scale != 1.0 {
            builder = builder.costs(
                entries
                    .iter()
                    .map(|&(_, i)| problem.poll_cost(i) * scale)
                    .collect(),
            );
        }
        builder.build().map(Some)
    }

    /// Solve the tiered program against the topology's own per-node
    /// budgets. The problem's `bandwidth` field is ignored — budgets
    /// live on the topology.
    pub fn solve(&self, topo: &Topology, problem: &Problem) -> Result<TieredSolution> {
        if topo.n_elements() != problem.len() {
            return Err(CoreError::LengthMismatch {
                what: "tiered solve elements",
                expected: topo.n_elements(),
                actual: problem.len(),
            });
        }
        if self.base.cost_weight != 0.0 {
            return Err(CoreError::InvalidValue {
                what: "tiered solver cost weight",
                index: None,
                value: self.base.cost_weight,
            });
        }
        let policy = self.policy();
        let tiers: Vec<usize> = topo.order().iter().copied().filter(|&n| n != 0).collect();
        let entries: Vec<Vec<(usize, usize)>> =
            tiers.iter().map(|&n| Self::entries_for(topo, n)).collect();

        let mut schedule = TieredSchedule::zero(topo);
        let mut records: Vec<Option<NodeSolve>> = vec![None; tiers.len()];
        let mut rounds = 0usize;
        let mut prev_pf = f64::NEG_INFINITY;
        let p = problem.access_probs();

        for round in 1..=self.max_rounds {
            rounds = round;
            let before = schedule.clone();
            for (t, &node) in tiers.iter().enumerate() {
                let fresh = topo.node_freshness(problem, &schedule, policy)?;
                // Round 1 bootstraps with myopic weights (σ = pᵢ at
                // every node, as if each tier were user-facing): the
                // true adjoint is zero below any still-unfunded node,
                // which would starve the whole chain forever.
                let sigma = if round == 1 {
                    vec![p.to_vec(); topo.node_count()]
                } else {
                    self.adjoint(topo, problem, &schedule, &fresh)
                };
                let weights =
                    self.node_weights(topo, problem, &schedule, &fresh, &sigma, node, &entries[t]);
                let synth = self.synth_problem(
                    topo,
                    problem,
                    node,
                    &entries[t],
                    &weights,
                    topo.budgets()[node],
                )?;
                let Some(synth) = synth else {
                    for &(l, i) in &entries[t] {
                        schedule.link_freqs[l][i] = 0.0;
                    }
                    records[t] = Some(NodeSolve {
                        node,
                        entries: entries[t].clone(),
                        weights,
                        multiplier: None,
                        spend: 0.0,
                        iterations: 0,
                    });
                    continue;
                };
                // Always cold (no warm start), so a re-solve of an
                // unchanged block reproduces its schedule bitwise and the
                // ascent can detect its fixed point exactly.
                let sol = self.base.solve(&synth)?;
                let old: Vec<f64> = entries[t]
                    .iter()
                    .map(|&(l, i)| schedule.link_freqs[l][i])
                    .collect();
                let pf_before = topo.edge_pf(problem, &schedule, policy)?;
                for (k, &(l, i)) in entries[t].iter().enumerate() {
                    schedule.link_freqs[l][i] = sol.frequencies[k];
                }
                let pf_after = topo.edge_pf(problem, &schedule, policy)?;
                // Multi-parent blocks are linearized, so the update is
                // safeguarded: keep it only if the true objective did
                // not regress (ties go to the new, certified block).
                if pf_after + 1e-15 * pf_before.abs() < pf_before {
                    for (k, &(l, i)) in entries[t].iter().enumerate() {
                        schedule.link_freqs[l][i] = old[k];
                    }
                    continue;
                }
                records[t] = Some(NodeSolve {
                    node,
                    entries: entries[t].clone(),
                    weights,
                    multiplier: sol.multiplier,
                    spend: sol.bandwidth_used,
                    iterations: sol.iterations,
                });
            }
            let pf = topo.edge_pf(problem, &schedule, policy)?;
            let fixed_point = schedule == before;
            let converged = round > 1 && (pf - prev_pf).abs() <= self.pf_tol * pf.abs().max(1.0);
            prev_pf = pf;
            if fixed_point || converged {
                break;
            }
        }

        let node_pf = topo.node_pf(problem, &schedule, policy)?;
        let node_spend = topo.node_spend(problem, &schedule)?;
        let edge_pf = topo.edge_pf(problem, &schedule, policy)?;
        let nodes = records
            .into_iter()
            .zip(&tiers)
            .zip(&entries)
            .map(|((rec, &node), entry)| {
                rec.unwrap_or(NodeSolve {
                    node,
                    entries: entry.clone(),
                    weights: vec![0.0; entry.len()],
                    multiplier: None,
                    spend: 0.0,
                    iterations: 0,
                })
            })
            .collect();
        Ok(TieredSolution {
            schedule,
            edge_pf,
            node_pf,
            node_spend,
            budgets: topo.budgets().to_vec(),
            rounds,
            nodes,
        })
    }

    /// Divide one `total_budget` across the tiers and solve: alternate
    /// a tiered solve (fixing budgets, refreshing adjoint weights) with
    /// a shared-price water-fill over *all* tiers' entries (fixing
    /// weights, rebalancing budgets) until the split stabilizes. Each
    /// round's candidate hands any share a tier cannot spend to the
    /// tiers that can, and the candidate with the highest edge PF is
    /// returned. Its `budgets` is the discovered split: it sums to
    /// `total_budget`, no tier overdraws, and each tier spends its share
    /// up to the solver's budget tolerance (an idle tier keeps only the
    /// split floor, a `1e-9` share).
    pub fn solve_split(
        &self,
        topo: &Topology,
        problem: &Problem,
        total_budget: f64,
    ) -> Result<TieredSolution> {
        if !total_budget.is_finite() || total_budget <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "total budget",
                index: None,
                value: total_budget,
            });
        }
        // Seed: split proportional to the access weight entering each
        // tier (the access-weighted heuristic), with a floor so every
        // tier can participate in round 1.
        let mut budgets = vec![0.0f64; topo.node_count()];
        {
            let p = problem.access_probs();
            let mut total_w = 0.0f64;
            for (node, b) in budgets.iter_mut().enumerate().skip(1) {
                let w: f64 = Self::entries_for(topo, node)
                    .iter()
                    .map(|&(_, i)| p[i])
                    .sum();
                *b = w;
                total_w += w;
            }
            for b in budgets.iter_mut().skip(1) {
                *b = (*b / total_w).max(1e-6) * total_budget;
            }
            let sum: f64 = budgets.iter().skip(1).sum();
            for b in budgets.iter_mut().skip(1) {
                *b *= total_budget / sum;
            }
        }
        let mut best: Option<TieredSolution> = None;
        for _ in 0..self.max_rounds {
            let sol = self.solve(&topo.with_budgets(&budgets)?, problem)?;
            let next = self.shared_price_split(&sol, problem, total_budget)?;
            let delta = next
                .iter()
                .zip(&budgets)
                .skip(1)
                .map(|(a, b)| (a - b).abs() / total_budget)
                .fold(0.0f64, f64::max);
            let candidate = self.hand_over_unspent(topo, problem, budgets, sol)?;
            let keep = match &best {
                Some(prev) => candidate.edge_pf >= prev.edge_pf,
                None => true,
            };
            if keep {
                best = Some(candidate);
            }
            budgets = next;
            if delta <= 1e-9 {
                break;
            }
        }
        Ok(best.expect("at least one split iteration ran"))
    }

    /// Make a round's solution deliver its whole split. A tier leaves
    /// part of its share unspent when no downstream value reaches its
    /// entries (its adjoint weights are zero). It keeps what it spent
    /// (at least the split floor), the tiers that spent theirs take the
    /// rest pro rata, and the round is re-solved at that split until no
    /// tier leaves more than the solver's budget tolerance unspent.
    fn hand_over_unspent(
        &self,
        topo: &Topology,
        problem: &Problem,
        mut budgets: Vec<f64>,
        mut sol: TieredSolution,
    ) -> Result<TieredSolution> {
        let floor = SPLIT_FLOOR * budgets.iter().sum::<f64>();
        for _ in 0..self.max_rounds {
            let kept: Vec<f64> = budgets
                .iter()
                .zip(&sol.node_spend)
                .map(|(&b, &s)| {
                    if b - s.max(floor) > b * self.base.budget_tol {
                        s.max(floor)
                    } else {
                        b
                    }
                })
                .collect();
            let handed: f64 = budgets.iter().zip(&kept).map(|(b, k)| b - k).sum();
            let spent_share: f64 = budgets
                .iter()
                .zip(&kept)
                .skip(1)
                .filter(|(b, k)| b == k)
                .map(|(b, _)| b)
                .sum();
            if handed <= 0.0 || spent_share <= 0.0 {
                break;
            }
            for (b, &k) in budgets.iter_mut().zip(&kept).skip(1) {
                *b = if *b == k {
                    k * (1.0 + handed / spent_share)
                } else {
                    k
                };
            }
            sol = self.solve(&topo.with_budgets(&budgets)?, problem)?;
        }
        Ok(sol)
    }

    /// Water-fill every tier's entries against one shared price: find
    /// the `μ` at which the total spend meets `total_budget` with the
    /// flat solve's root-finder, then read each tier's budget off its
    /// spend at that level.
    fn shared_price_split(
        &self,
        sol: &TieredSolution,
        problem: &Problem,
        total_budget: f64,
    ) -> Result<Vec<f64>> {
        let solver = LagrangeSolver {
            cost_weight: 0.0,
            ..self.base.clone()
        };
        // (weight, λ, s, tier-slot) for every fundable entry.
        let mut entries: Vec<(f64, f64, f64, usize)> = Vec::new();
        for (t, rec) in sol.nodes.iter().enumerate() {
            for (k, &(_, i)) in rec.entries.iter().enumerate() {
                let w = rec.weights[k];
                let lam = problem.change_rates()[i];
                if w > 0.0 && lam > STATIC_RATE {
                    entries.push((w, lam, problem.sizes()[i], t));
                }
            }
        }
        let n_tiers = sol.nodes.len();
        let node_count = sol.budgets.len();
        if entries.is_empty() {
            // Nothing fundable anywhere: fall back to an even split.
            let mut budgets = vec![total_budget / n_tiers as f64; node_count];
            budgets[0] = 0.0;
            return Ok(budgets);
        }
        let mu_limit = entries
            .iter()
            .map(|&(w, lam, s, _)| w / (lam * s))
            .fold(0.0f64, f64::max);
        let start = sqrt_law_level(
            entries.iter().map(|&(w, lam, s, _)| (w, lam, s)),
            total_budget,
            mu_limit,
        );
        let mut fill = TierFill {
            solver: &solver,
            entries: &entries,
            spends: vec![0.0; n_tiers],
            lo: vec![0.0; n_tiers],
            hi: vec![0.0; n_tiers],
        };
        let level = solver.water_level(&mut fill, total_budget, SPLIT_TOL, mu_limit, start)?;
        let spends = match level.straddle {
            Some((used_lo, used_hi)) => {
                let mut spends = vec![0.0; n_tiers];
                blend_bracket_ends(
                    &mut spends,
                    (&fill.lo, used_lo),
                    (&fill.hi, used_hi),
                    total_budget,
                );
                spends
            }
            None => fill.spends,
        };
        // Scale multiplicatively so the split sums to the total budget
        // exactly, with a relative floor so no tier is frozen out of
        // the next weight-refresh round.
        let sum: f64 = spends.iter().sum();
        let mut budgets = vec![0.0f64; node_count];
        if sum <= 0.0 {
            for b in budgets.iter_mut().skip(1) {
                *b = total_budget / n_tiers as f64;
            }
            return Ok(budgets);
        }
        for (t, rec) in sol.nodes.iter().enumerate() {
            budgets[rec.node] = (spends[t] / sum).max(SPLIT_FLOOR) * total_budget;
        }
        let bsum: f64 = budgets.iter().skip(1).sum();
        for b in budgets.iter_mut().skip(1) {
            *b *= total_budget / bsum;
        }
        Ok(budgets)
    }

    /// Re-check every tier's block solve against the strict KKT
    /// certificate: rebuild the synthetic flat problem from the
    /// recorded adjoint weights and audit the tier's frequencies at the
    /// recorded water level. Returns one report per non-source node in
    /// topological order (unfunded tiers audit their all-zero schedule
    /// against a zero budget-use, trivially clean).
    pub fn certify(
        &self,
        topo: &Topology,
        problem: &Problem,
        sol: &TieredSolution,
    ) -> Result<Vec<AuditReport>> {
        let audit = SolutionAudit::default();
        let policy = self.policy();
        let mut reports = Vec::with_capacity(sol.nodes.len());
        for rec in &sol.nodes {
            let freqs: Vec<f64> = rec
                .entries
                .iter()
                .map(|&(l, i)| sol.schedule.link_freqs[l][i])
                .collect();
            let synth = self.synth_problem(
                topo,
                problem,
                rec.node,
                &rec.entries,
                &rec.weights,
                sol.budgets[rec.node],
            )?;
            let report = match synth {
                Some(synth) => {
                    let mut flat = Solution::evaluate_with_policy(&synth, freqs, policy);
                    flat.multiplier = rec.multiplier;
                    audit.check(&synth, &flat, policy)?
                }
                None => {
                    // Unfunded tier (every adjoint weight 0): the
                    // all-zero schedule is the interior optimum of a
                    // levied stand-in problem — audit it in the
                    // cost-adjusted interior form (μ = 0, γ at the
                    // starvation price) where under-spend is legitimate.
                    let synth = Problem::builder()
                        .change_rates(
                            rec.entries
                                .iter()
                                .map(|&(_, i)| problem.change_rates()[i])
                                .collect(),
                        )
                        .access_weights(vec![1.0; rec.entries.len()])
                        .bandwidth(sol.budgets[rec.node].max(f64::MIN_POSITIVE))
                        .build()?;
                    let mut flat = Solution::evaluate_with_policy(&synth, freqs, policy);
                    flat.multiplier = Some(0.0);
                    let gamma = synth
                        .access_probs()
                        .iter()
                        .zip(synth.change_rates())
                        .filter(|(_, &l)| l > STATIC_RATE)
                        .map(|(&p, &l)| p / l)
                        .fold(0.0f64, f64::max)
                        .max(f64::MIN_POSITIVE);
                    audit.check_with_cost(&synth, &flat, policy, gamma)?
                }
            };
            reports.push(report);
        }
        Ok(reports)
    }
}

/// The shared-price split's [`WaterFill`]: a pass prices every tier's
/// entries at one `μ` and records each tier's spend.
struct TierFill<'a> {
    solver: &'a LagrangeSolver,
    /// `(weight, λ, s, tier)` per fundable entry.
    entries: &'a [(f64, f64, f64, usize)],
    spends: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl WaterFill for TierFill<'_> {
    fn fill(&mut self, mu: f64) -> Pass {
        let mut per_tier = vec![NeumaierSum::new(); self.spends.len()];
        let mut slope = 0.0f64;
        for &(w, lam, s, t) in self.entries {
            let (f, elasticity) = self.solver.water_fill(w, lam, s, 1.0, mu);
            per_tier[t].add(s * f);
            slope += s * f * elasticity;
        }
        let mut total = NeumaierSum::new();
        for (spend, acc) in self.spends.iter_mut().zip(per_tier) {
            *spend = acc.total();
            total.add(*spend);
        }
        Pass {
            used: total.total(),
            slope,
            steps: 0,
        }
    }

    fn keep(&mut self, end: End) {
        match end {
            End::Lo => self.lo.copy_from_slice(&self.spends),
            End::Hi => self.hi.copy_from_slice(&self.spends),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(n: usize) -> Problem {
        Problem::builder()
            .change_rates((0..n).map(|i| 0.2 + (i % 13) as f64 * 0.4).collect())
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .sizes((0..n).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect())
            .bandwidth(n as f64 / 3.0)
            .build()
            .unwrap()
    }

    fn chain(relay_budget: f64, edge_budget: f64, n: usize) -> Topology {
        Topology::builder()
            .source("origin")
            .tier("relay", relay_budget)
            .tier("edge", edge_budget)
            .link("origin", "relay")
            .link("relay", "edge")
            .build(n)
            .unwrap()
    }

    #[test]
    fn single_tier_is_byte_identical_to_flat_solve() {
        let n = 600;
        let problem = problem(n);
        let topo = Topology::builder()
            .source("origin")
            .tier("edge", problem.bandwidth())
            .link("origin", "edge")
            .build(n)
            .unwrap();
        let flat = LagrangeSolver::default().solve(&problem).unwrap();
        let tiered = TieredSolver::default().solve(&topo, &problem).unwrap();
        assert_eq!(tiered.schedule.link_freqs[0], flat.frequencies);
        assert_eq!(tiered.nodes[0].multiplier, flat.multiplier);
        assert_eq!(
            tiered.nodes[0].spend.to_bits(),
            flat.bandwidth_used.to_bits()
        );
    }

    #[test]
    fn two_tier_chain_spends_both_budgets_and_certifies() {
        let n = 400;
        let problem = problem(n);
        let topo = chain(150.0, 90.0, n);
        let solver = TieredSolver::default();
        let sol = solver.solve(&topo, &problem).unwrap();
        assert!(sol.edge_pf > 0.0 && sol.edge_pf < 1.0);
        // γ = 0 water-filling binds each tier's budget.
        assert!(
            (sol.node_spend[1] - 150.0).abs() < 150.0 * 1e-6,
            "{}",
            sol.node_spend[1]
        );
        assert!(
            (sol.node_spend[2] - 90.0).abs() < 90.0 * 1e-6,
            "{}",
            sol.node_spend[2]
        );
        assert!(topo.check_budgets(&problem, &sol.schedule, 1e-6).is_ok());
        // Edge PF can't beat either single hop's ceiling.
        assert!(sol.edge_pf <= sol.node_pf[1] + 1e-12);
        for (rec, report) in sol
            .nodes
            .iter()
            .zip(solver.certify(&topo, &problem, &sol).unwrap())
        {
            assert!(
                report.is_clean(),
                "tier {} audit: {}",
                rec.node,
                report.to_json()
            );
        }
    }

    #[test]
    fn chain_beats_naive_relay_split_of_same_link_budgets() {
        // The adjoint-weighted ascent should beat a uniform per-link
        // allocation of the same budgets.
        let n = 300;
        let problem = problem(n);
        let topo = chain(120.0, 70.0, n);
        let sol = TieredSolver::default().solve(&topo, &problem).unwrap();
        let mut uniform = TieredSchedule::zero(&topo);
        let s = problem.sizes();
        let total_size: f64 = s.iter().sum();
        for i in 0..n {
            uniform.link_freqs[0][i] = 120.0 / total_size;
            uniform.link_freqs[1][i] = 70.0 / total_size;
        }
        let uniform_pf = topo
            .edge_pf(&problem, &uniform, SyncPolicy::FixedOrder)
            .unwrap();
        assert!(
            sol.edge_pf > uniform_pf,
            "solved {} vs uniform {}",
            sol.edge_pf,
            uniform_pf
        );
    }

    #[test]
    fn parallel_relays_solve_and_certify() {
        let n = 200;
        let problem = problem(n);
        let topo = Topology::builder()
            .source("origin")
            .tier("r1", 60.0)
            .tier("r2", 40.0)
            .tier("edge", 80.0)
            .link("origin", "r1")
            .link("origin", "r2")
            .link("r1", "edge")
            .link("r2", "edge")
            .build(n)
            .unwrap();
        let solver = TieredSolver::default();
        let sol = solver.solve(&topo, &problem).unwrap();
        assert!(sol.edge_pf > 0.0);
        assert!(topo.check_budgets(&problem, &sol.schedule, 1e-6).is_ok());
        for report in solver.certify(&topo, &problem, &sol).unwrap() {
            assert!(report.is_clean(), "{}", report.to_json());
        }
    }

    #[test]
    fn split_covers_total_budget_without_overdrawing_any_tier() {
        let n = 250;
        let problem = problem(n);
        let topo = chain(1.0, 1.0, n); // placeholder budgets; split overrides
        let total = 160.0;
        let solver = TieredSolver::default();
        let sol = solver.solve_split(&topo, &problem, total).unwrap();
        let split_sum: f64 = sol.budgets.iter().skip(1).sum();
        assert!(
            (split_sum - total).abs() <= total * 1e-6,
            "split sums to {split_sum}, want {total}"
        );
        for node in 1..topo.node_count() {
            assert!(
                sol.node_spend[node] <= sol.budgets[node] * (1.0 + 1e-6),
                "tier {node} overdrawn: spend {} budget {}",
                sol.node_spend[node],
                sol.budgets[node]
            );
        }
        // The discovered split must not lose to the naive even split.
        let even = topo.with_budgets(&[0.0, total / 2.0, total / 2.0]).unwrap();
        let even_sol = solver.solve(&even, &problem).unwrap();
        assert!(
            sol.edge_pf >= even_sol.edge_pf - 1e-9,
            "split {} vs even {}",
            sol.edge_pf,
            even_sol.edge_pf
        );
    }

    #[test]
    fn unspent_share_is_handed_to_the_tiers_that_spend() {
        // Striped relays on a tight budget: the edge funds only the even
        // stripe, so no downstream value reaches r1 and it spends none of
        // its share.
        let n = 8;
        let problem = problem(n);
        let even: Vec<usize> = (0..n).step_by(2).collect();
        let odd: Vec<usize> = (1..n).step_by(2).collect();
        let topo = Topology::builder()
            .source("origin")
            .tier("r0", 1.0)
            .tier("r1", 1.0)
            .tier("edge", 1.0)
            .link_subset("origin", "r0", even.clone())
            .link_subset("origin", "r1", odd.clone())
            .link_subset("r0", "edge", even)
            .link_subset("r1", "edge", odd)
            .build(n)
            .unwrap();
        let budgets = vec![0.0, 0.06, 0.04, 0.1];
        let solver = TieredSolver::default();
        let plain = solver
            .solve(&topo.with_budgets(&budgets).unwrap(), &problem)
            .unwrap();
        assert_eq!(plain.node_spend[2], 0.0);
        let handed = solver
            .hand_over_unspent(&topo, &problem, budgets, plain.clone())
            .unwrap();
        let split: f64 = handed.budgets.iter().sum();
        assert!((split - 0.2).abs() <= 0.2 * 1e-12, "split {split}");
        // Every tier spends its share, bar the floor an idle tier keeps.
        for (&b, &s) in handed.budgets.iter().zip(&handed.node_spend) {
            let slack = SPLIT_FLOOR * 0.2 + b * solver.base.budget_tol;
            assert!(b - s <= slack, "spends {s} of {b}");
        }
        assert!(
            handed.edge_pf > plain.edge_pf,
            "handed {} vs plain {}",
            handed.edge_pf,
            plain.edge_pf
        );
    }

    #[test]
    fn rejects_mismatched_universe_and_levied_base() {
        let problem = problem(10);
        let topo = chain(5.0, 5.0, 11);
        assert!(TieredSolver::default().solve(&topo, &problem).is_err());
        let topo = chain(5.0, 5.0, 10);
        let levied = TieredSolver {
            base: LagrangeSolver::default().with_cost_weight(0.1),
            ..TieredSolver::default()
        };
        assert!(levied.solve(&topo, &problem).is_err());
        assert!(TieredSolver::default()
            .solve_split(&topo, &problem, -1.0)
            .is_err());
    }
}
