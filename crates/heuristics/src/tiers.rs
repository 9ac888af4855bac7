//! Budget-division heuristics across the tiers of a relay
//! [`Topology`] — the cheap baselines the tiered solver's shared-price
//! split is benchmarked against.
//!
//! Each rule turns one total bandwidth budget into a per-node budget
//! vector (source pinned at 0) in a single pass over the problem, with
//! no solves. [`split_budget`] guarantees the result sums to the total
//! (compensated) and gives every tier a positive share, so the vector
//! is always accepted by [`Topology::with_budgets`] and, by
//! construction, can never overdraw: the budgets *are* the constraint
//! the downstream solve runs against.

use freshen_core::error::{CoreError, Result};
use freshen_core::numeric::NeumaierSum;
use freshen_core::problem::{Problem, STATIC_RATE};
use freshen_core::topology::Topology;

/// The division rule for [`split_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierSplit {
    /// Proportional to the catalog bytes a tier serves: `Σ sᵢ` over the
    /// elements its incoming links carry. The "size of the job" rule —
    /// blind to interest and change rates.
    Proportional,
    /// Proportional to the user interest flowing through the tier:
    /// `Σ pᵢ` over carried elements. Tiers serving hot content get
    /// more.
    AccessWeighted,
    /// Proportional to the tier's aggregate zero-frequency marginal
    /// value per unit of bandwidth, `Σ pᵢ/(λᵢ·sᵢ)` over carried
    /// elements with `λᵢ >` [`STATIC_RATE`] (static elements never take
    /// bandwidth from the solvers) — the water-filling starvation bound
    /// summed over the tier, so tiers whose content is cheap to keep
    /// fresh (slow-changing, hot, small) are funded first.
    MarginalValue,
}

impl TierSplit {
    /// All rules, for sweeps.
    pub const ALL: [TierSplit; 3] = [
        TierSplit::Proportional,
        TierSplit::AccessWeighted,
        TierSplit::MarginalValue,
    ];

    /// Stable identifier used in bench reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            TierSplit::Proportional => "proportional",
            TierSplit::AccessWeighted => "access_weighted",
            TierSplit::MarginalValue => "marginal_value",
        }
    }
}

/// Divide `total_budget` across the non-source tiers of `topology`
/// by `rule`. Returns one budget per node (index 0, the source, is 0);
/// entries are positive, and their compensated sum equals
/// `total_budget` to the last rescaling.
pub fn split_budget(
    topology: &Topology,
    problem: &Problem,
    rule: TierSplit,
    total_budget: f64,
) -> Result<Vec<f64>> {
    if !total_budget.is_finite() || total_budget <= 0.0 {
        return Err(CoreError::InvalidValue {
            what: "tier split total budget",
            index: None,
            value: total_budget,
        });
    }
    if topology.n_elements() != problem.len() {
        return Err(CoreError::LengthMismatch {
            what: "tier split elements",
            expected: topology.n_elements(),
            actual: problem.len(),
        });
    }
    let p = problem.access_probs();
    let lam = problem.change_rates();
    let s = problem.sizes();
    let node_count = topology.node_count();

    let mut scores = vec![0.0f64; node_count];
    for (node, score) in scores.iter_mut().enumerate().skip(1) {
        let mut acc = NeumaierSum::new();
        for &l in topology.incoming(node) {
            let link = &topology.links()[l];
            let mut add = |i: usize| {
                acc.add(match rule {
                    TierSplit::Proportional => s[i],
                    TierSplit::AccessWeighted => p[i],
                    TierSplit::MarginalValue => {
                        if lam[i] > STATIC_RATE {
                            p[i] / (lam[i] * s[i])
                        } else {
                            0.0
                        }
                    }
                });
            };
            match &link.elements {
                None => (0..problem.len()).for_each(&mut add),
                Some(subset) => subset.iter().copied().for_each(&mut add),
            }
        }
        *score = acc.total();
    }

    // A floor keeps degenerate tiers (zero interest, all-static
    // content) funded at a sliver instead of tripping the positive-
    // budget invariant; then one multiplicative rescale pins the sum.
    let tiers = (node_count - 1) as f64;
    let floor = 1e-6 / tiers;
    let score_sum: f64 = scores.iter().sum();
    let mut budgets = vec![0.0f64; node_count];
    if score_sum <= 0.0 {
        for b in budgets.iter_mut().skip(1) {
            *b = total_budget / tiers;
        }
        return Ok(budgets);
    }
    for (b, &score) in budgets.iter_mut().zip(&scores).skip(1) {
        *b = (score / score_sum).max(floor);
    }
    let share_sum: f64 = budgets.iter().sum();
    for b in budgets.iter_mut().skip(1) {
        *b *= total_budget / share_sum;
    }
    Ok(budgets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Topology {
        Topology::builder()
            .source("s")
            .tier("relay", 1.0)
            .tier("edge", 1.0)
            .link("s", "relay")
            .link_subset("relay", "edge", (0..n / 2).collect())
            .build(n)
            .unwrap()
    }

    fn problem(n: usize) -> Problem {
        Problem::builder()
            .change_rates((0..n).map(|i| 0.5 + i as f64).collect())
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .sizes((0..n).map(|i| 1.0 + (i % 3) as f64).collect())
            .bandwidth(10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn every_rule_sums_to_total_and_stays_positive() {
        let topo = chain(8);
        let problem = problem(8);
        for rule in TierSplit::ALL {
            let budgets = split_budget(&topo, &problem, rule, 100.0).unwrap();
            assert_eq!(budgets[0], 0.0, "{}", rule.name());
            let sum: f64 = budgets.iter().skip(1).sum();
            assert!((sum - 100.0).abs() < 1e-9, "{}: {sum}", rule.name());
            assert!(budgets.iter().skip(1).all(|&b| b > 0.0), "{}", rule.name());
            // The vector must be directly usable as topology budgets.
            assert!(topo.with_budgets(&budgets).is_ok(), "{}", rule.name());
        }
    }

    #[test]
    fn rules_rank_tiers_differently() {
        // The edge carries only the hot half of the catalog, so the
        // access-weighted rule funds it more generously than the
        // byte-proportional rule does.
        let topo = chain(8);
        let problem = problem(8);
        let by_size = split_budget(&topo, &problem, TierSplit::Proportional, 100.0).unwrap();
        let by_access = split_budget(&topo, &problem, TierSplit::AccessWeighted, 100.0).unwrap();
        assert!(by_access[2] > by_size[2]);
    }

    #[test]
    fn degenerate_scores_fall_back_to_even_split() {
        let topo = chain(4);
        // All-static catalog: marginal-value scores are all zero.
        let problem = Problem::builder()
            .change_rates(vec![0.0; 4])
            .access_weights(vec![1.0; 4])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let budgets = split_budget(&topo, &problem, TierSplit::MarginalValue, 60.0).unwrap();
        assert_eq!(budgets, vec![0.0, 30.0, 30.0]);
    }

    #[test]
    fn marginal_value_split_ignores_static_elements() {
        // A relay mirrors {0, 1, 2}; edge A carries {0, 1}, edge B {2}.
        // Element 2 is static at any rate at or below the cutoff, so it
        // must weigh in the split exactly as a λ = 0 element does.
        let topo = Topology::builder()
            .source("s")
            .tier("relay", 1.0)
            .tier("a", 1.0)
            .tier("b", 1.0)
            .link("s", "relay")
            .link_subset("relay", "a", vec![0, 1])
            .link_subset("relay", "b", vec![2])
            .build(3)
            .unwrap();
        let split = |lam2: f64| {
            let problem = Problem::builder()
                .change_rates(vec![1.0, 2.0, lam2])
                .access_probs(vec![0.4, 0.4, 0.2])
                .bandwidth(1.0)
                .build()
                .unwrap();
            split_budget(&topo, &problem, TierSplit::MarginalValue, 4.0).unwrap()
        };
        let bits = |b: Vec<f64>| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(split(1e-13)), bits(split(0.0)));
    }

    #[test]
    fn rejects_bad_inputs() {
        let topo = chain(4);
        let four = problem(4);
        assert!(split_budget(&topo, &four, TierSplit::Proportional, 0.0).is_err());
        assert!(split_budget(&topo, &four, TierSplit::Proportional, f64::NAN).is_err());
        let wrong = problem(5);
        assert!(split_budget(&topo, &wrong, TierSplit::Proportional, 1.0).is_err());
    }
}
