//! Spreading a partition's bandwidth over its members (paper §5.3).
//!
//! After the reduced problem is solved, partition `j` holds a
//! representative frequency `f̄ⱼ` (and mean size `s̄ⱼ`). Two policies turn
//! that into per-member frequencies:
//!
//! * **FFA — Fixed (refresh) Frequency Allocation**: every member gets
//!   `fᵢ = f̄ⱼ`. Correct when all objects share one size; with variable
//!   sizes it hands large objects disproportionate *bandwidth*.
//! * **FBA — Fixed Bandwidth Allocation**: every member gets the same
//!   bandwidth `f̄ⱼ·s̄ⱼ`, i.e. frequency `fᵢ = f̄ⱼ·s̄ⱼ/sᵢ` — "smaller
//!   objects will get higher number of refreshes than larger objects
//!   although they are in the same partition". The paper finds FBA always
//!   wins once sizes vary (Figure 11).
//!
//! Both policies consume exactly the partition's share `Mⱼ·s̄ⱼ·f̄ⱼ` of the
//! budget, so the expanded allocation is feasible by construction.

use freshen_core::exec::Executor;
use freshen_core::problem::Problem;

use crate::partition::Partitioning;
use crate::reduce::ReducedProblem;

/// Intra-partition bandwidth-spreading policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Every member refreshed at the representative frequency (FFA).
    FixedFrequency,
    /// Every member granted the representative *bandwidth* (FBA).
    FixedBandwidth,
}

impl AllocationPolicy {
    /// Display name matching the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            AllocationPolicy::FixedFrequency => "FIXED_FREQUENCY (FFA)",
            AllocationPolicy::FixedBandwidth => "FIXED_BANDWIDTH (FBA)",
        }
    }

    /// Expand representative frequencies to a full allocation.
    ///
    /// `rep_freqs` must align with `reduced.active_partitions()`. Members
    /// of dropped (empty or zero-interest) partitions receive 0. The
    /// per-member spread runs on `executor`; each member's frequency
    /// depends only on its own partition lookup, so the expansion is
    /// identical at any worker count.
    pub fn expand_exec(
        &self,
        problem: &Problem,
        partitioning: &Partitioning,
        reduced: &ReducedProblem,
        rep_freqs: &[f64],
        executor: &Executor,
    ) -> Vec<f64> {
        let lookup = reduced.representative_lookup(rep_freqs, partitioning.num_partitions());
        executor.par_map_index(problem.len(), |i| {
            let g = partitioning.partition_of(i);
            match lookup[g] {
                Some((f_rep, s_mean)) => match self {
                    AllocationPolicy::FixedFrequency => f_rep,
                    AllocationPolicy::FixedBandwidth => f_rep * s_mean / problem.sizes()[i],
                },
                None => 0.0,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized_problem() -> Problem {
        Problem::builder()
            .change_rates(vec![2.0, 2.0, 1.0, 1.0])
            .access_probs(vec![0.25; 4])
            .sizes(vec![1.0, 3.0, 2.0, 2.0])
            .bandwidth(8.0)
            .build()
            .unwrap()
    }

    fn setup() -> (Problem, Partitioning, ReducedProblem) {
        let p = sized_problem();
        let part = Partitioning::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let red = ReducedProblem::build(&p, &part).unwrap();
        (p, part, red)
    }

    #[test]
    fn ffa_gives_equal_frequencies() {
        let (p, part, red) = setup();
        let freqs = AllocationPolicy::FixedFrequency.expand_exec(
            &p,
            &part,
            &red,
            &[1.5, 0.5],
            &Executor::serial(),
        );
        assert_eq!(freqs, vec![1.5, 1.5, 0.5, 0.5]);
    }

    #[test]
    fn fba_gives_equal_bandwidth() {
        let (p, part, red) = setup();
        // Partition 0: s̄ = 2 ⇒ member bandwidth = f̄·s̄ = 3 each.
        let freqs = AllocationPolicy::FixedBandwidth.expand_exec(
            &p,
            &part,
            &red,
            &[1.5, 0.5],
            &Executor::serial(),
        );
        assert!((freqs[0] - 3.0).abs() < 1e-12, "size-1 member: f = 3/1");
        assert!((freqs[1] - 1.0).abs() < 1e-12, "size-3 member: f = 3/3");
        // Per-member bandwidth equal within the partition.
        assert!((freqs[0] * 1.0 - freqs[1] * 3.0).abs() < 1e-12);
    }

    #[test]
    fn both_policies_spend_the_same_partition_budget() {
        let (p, part, red) = setup();
        let reps = [1.5, 0.5];
        for policy in [
            AllocationPolicy::FixedFrequency,
            AllocationPolicy::FixedBandwidth,
        ] {
            let freqs = policy.expand_exec(&p, &part, &red, &reps, &Executor::serial());
            let used = p.bandwidth_used(&freqs);
            // Partition budgets: M·s̄·f̄ = 2·2·1.5 + 2·2·0.5 = 8.
            assert!((used - 8.0).abs() < 1e-9, "{policy:?} used {used}");
        }
    }

    #[test]
    fn identical_policies_on_uniform_sizes() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 2.0, 3.0, 4.0])
            .access_probs(vec![0.25; 4])
            .bandwidth(4.0)
            .build()
            .unwrap();
        let part = Partitioning::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let red = ReducedProblem::build(&p, &part).unwrap();
        let a = AllocationPolicy::FixedFrequency.expand_exec(
            &p,
            &part,
            &red,
            &[1.0, 1.0],
            &Executor::serial(),
        );
        let b = AllocationPolicy::FixedBandwidth.expand_exec(
            &p,
            &part,
            &red,
            &[1.0, 1.0],
            &Executor::serial(),
        );
        assert_eq!(a, b, "FFA ≡ FBA when all sizes are 1");
    }

    #[test]
    fn dropped_partitions_get_zero() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 1.0, 1.0])
            .access_probs(vec![0.5, 0.5, 0.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let part = Partitioning::from_assignment(vec![0, 0, 1], 2).unwrap();
        let red = ReducedProblem::build(&p, &part).unwrap();
        // Only partition 0 is active; rep vector has one entry.
        let freqs = AllocationPolicy::FixedFrequency.expand_exec(
            &p,
            &part,
            &red,
            &[1.0],
            &Executor::serial(),
        );
        assert_eq!(freqs, vec![1.0, 1.0, 0.0]);
    }
}
