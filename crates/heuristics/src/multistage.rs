//! The multi-stage alternative the paper considered and rejected (§3.2).
//!
//! Instead of collapsing each partition to one representative, transform
//! the original problem "into a number of smaller problems, in which only
//! a small number of elements participate", and solve each exactly. The
//! paper's verdict: "it does not make sense for large problems because it
//! is still very costly to run … if it is tolerable to solve the
//! optimization problem over 1000 elements, you would have to solve 1000
//! such problems for a database with 1,000,000 elements."
//!
//! We implement it as a two-level scheme so the comparison is fair:
//!
//! 1. partition and reduce exactly as the representative pipeline does,
//!    which fixes each partition's *bandwidth share*;
//! 2. then solve each partition's member set **exactly** (another
//!    Lagrange solve per partition) instead of spreading the share by
//!    FFA/FBA.
//!
//! Quality is therefore at least that of the representative pipeline on
//! the same partitions (exact within-partition allocation dominates a
//! uniform spread), at the cost of `k` extra solver runs over `N/k`
//! elements each — the cost structure the paper objects to. The
//! `MULTISTAGE` and `EXACT` rows of `exp_fig9` time it against the
//! representative pipeline and the exact solve at Figure 9's scale.

use freshen_core::error::Result;
use freshen_core::problem::{Problem, Solution};
use freshen_solver::LagrangeSolver;

use crate::partition::{PartitionCriterion, Partitioning};
use crate::reduce::ReducedProblem;

/// Outcome of the multi-stage scheme.
#[derive(Debug, Clone)]
pub struct MultiStageSolution {
    /// The expanded per-element schedule and its metrics.
    pub solution: Solution,
    /// How many sub-problems were solved exactly (stage-2 solver runs).
    pub subproblems_solved: usize,
}

/// Run the two-level multi-stage scheme.
///
/// `criterion`/`k`/`reference_frequency` configure stage 1 exactly as in
/// the representative pipeline. Partitions whose aggregate interest is
/// zero receive no bandwidth (and no stage-2 solve).
pub fn solve_multistage(
    problem: &Problem,
    criterion: PartitionCriterion,
    k: usize,
    reference_frequency: f64,
) -> Result<MultiStageSolution> {
    let partitioning = Partitioning::by_criterion(problem, criterion, k, reference_frequency)?;
    let reduced = ReducedProblem::build(problem, &partitioning)?;
    let solver = LagrangeSolver::default();
    let stage1 = solver.solve(reduced.problem())?;

    // Stage 2: each active partition's bandwidth share is Mⱼ·s̄ⱼ·f̄ⱼ;
    // solve the member set exactly under that share.
    let members = partitioning.members();
    let mut freqs = vec![0.0; problem.len()];
    let mut subproblems = 0usize;
    for (idx, &g) in reduced.active_partitions().iter().enumerate() {
        let share = stage1.frequencies[idx] * reduced.problem().sizes()[idx];
        if share <= 0.0 {
            continue;
        }
        let group = &members[g];
        let sub = problem.restrict_to(group, share)?;
        let sub_sol = solver.solve(&sub)?;
        subproblems += 1;
        for (local, &i) in group.iter().enumerate() {
            freqs[i] = sub_sol.frequencies[local];
        }
    }

    let mut solution = Solution::evaluate(problem, freqs);
    solution.multiplier = stage1.multiplier;
    Ok(MultiStageSolution {
        solution,
        subproblems_solved: subproblems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::AllocationPolicy;
    use crate::pipeline::{HeuristicConfig, HeuristicScheduler};
    use freshen_solver::solve_perceived_freshness;
    use freshen_workload::scenario::{Alignment, Scenario};

    fn table2_problem() -> Problem {
        Scenario::table2(0.8, Alignment::ShuffledChange, 42)
            .problem()
            .unwrap()
    }

    #[test]
    fn multistage_is_feasible_and_budget_tight() {
        let p = table2_problem();
        let ms = solve_multistage(&p, PartitionCriterion::PerceivedFreshness, 20, 1.0).unwrap();
        assert!(p.is_feasible(&ms.solution.frequencies, 1e-6));
        assert!(
            (ms.solution.bandwidth_used - p.bandwidth()).abs() < p.bandwidth() * 1e-5,
            "budget tight: used {}",
            ms.solution.bandwidth_used
        );
        assert!(ms.subproblems_solved > 0 && ms.subproblems_solved <= 20);
    }

    #[test]
    fn multistage_beats_representative_pipeline_on_same_partitions() {
        // Exact within-partition allocation dominates uniform spreading —
        // the quality side of the paper's trade-off.
        let p = table2_problem();
        let k = 10;
        let ms = solve_multistage(&p, PartitionCriterion::PerceivedFreshness, k, 1.0).unwrap();
        let rep = HeuristicScheduler::new(HeuristicConfig {
            criterion: PartitionCriterion::PerceivedFreshness,
            num_partitions: k,
            kmeans_iterations: 0,
            allocation: AllocationPolicy::FixedBandwidth,
            reference_frequency: 1.0,
        })
        .unwrap()
        .solve(&p)
        .unwrap();
        assert!(
            ms.solution.perceived_freshness >= rep.solution.perceived_freshness - 1e-9,
            "multistage {} must dominate representative {} at equal k",
            ms.solution.perceived_freshness,
            rep.solution.perceived_freshness
        );
    }

    #[test]
    fn multistage_bounded_by_global_optimum() {
        let p = table2_problem();
        let opt = solve_perceived_freshness(&p).unwrap().perceived_freshness;
        for k in [1, 5, 50] {
            let ms = solve_multistage(&p, PartitionCriterion::PerceivedFreshness, k, 1.0).unwrap();
            assert!(
                ms.solution.perceived_freshness <= opt + 1e-7,
                "k={k}: multistage cannot beat the global optimum"
            );
        }
    }

    #[test]
    fn single_partition_multistage_is_globally_optimal() {
        // One block covering everything ⇒ stage 2 is the exact solve.
        let p = table2_problem();
        let opt = solve_perceived_freshness(&p).unwrap().perceived_freshness;
        let ms = solve_multistage(&p, PartitionCriterion::PerceivedFreshness, 1, 1.0).unwrap();
        assert!((ms.solution.perceived_freshness - opt).abs() < 1e-6);
        assert_eq!(ms.subproblems_solved, 1);
    }

    #[test]
    fn multistage_handles_zero_interest_partitions() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0])
            .access_probs(vec![0.5, 0.5, 0.0, 0.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let ms = solve_multistage(&p, PartitionCriterion::AccessProb, 2, 1.0).unwrap();
        assert_eq!(ms.solution.frequencies[2], 0.0);
        assert_eq!(ms.solution.frequencies[3], 0.0);
        assert!(p.is_feasible(&ms.solution.frequencies, 1e-6));
    }
}
