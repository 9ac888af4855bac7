//! The end-to-end heuristic scheduler: partition → (k-means) → reduce →
//! solve → allocate.
//!
//! This is the production entry point for large mirrors. Configure the
//! partition criterion (the paper's winner is PF-Partitioning), the number
//! of partitions, an optional k-Means refinement budget, and the
//! intra-partition allocation policy; [`HeuristicScheduler::solve`] returns
//! a full per-element schedule plus the bookkeeping the experiments plot.
//!
//! Quality/scale intuition from the paper:
//! * more partitions → closer to optimal, but the reduced solve grows;
//! * a few k-Means iterations on *few* partitions beats many raw
//!   partitions per unit of computation (Figures 8–9);
//! * with variable sizes, use [`AllocationPolicy::FixedBandwidth`]
//!   (Figure 11) and [`PartitionCriterion::PerceivedFreshnessPerSize`].

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::Executor;
use freshen_core::problem::{Problem, Solution};
use freshen_obs::Recorder;
use freshen_solver::LagrangeSolver;

use crate::allocate::AllocationPolicy;
use crate::kmeans;
use crate::partition::{PartitionCriterion, Partitioning};
use crate::reduce::ReducedProblem;

/// Configuration of the heuristic pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicConfig {
    /// Sorting criterion for the initial partitions.
    pub criterion: PartitionCriterion,
    /// Number of partitions `k` (clamped to `N` at solve time).
    pub num_partitions: usize,
    /// k-Means refinement iterations (0 = none).
    pub kmeans_iterations: usize,
    /// Intra-partition spreading policy.
    pub allocation: AllocationPolicy,
    /// Reference frequency `f₀` for the PF criteria (paper uses 1.0).
    pub reference_frequency: f64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            criterion: PartitionCriterion::PerceivedFreshness,
            num_partitions: 50,
            kmeans_iterations: 0,
            allocation: AllocationPolicy::FixedBandwidth,
            reference_frequency: 1.0,
        }
    }
}

/// The pipeline's output: the schedule plus diagnostics.
#[derive(Debug, Clone)]
pub struct HeuristicSolution {
    /// The expanded per-element schedule and its metrics.
    pub solution: Solution,
    /// The (possibly k-Means-refined) partitioning actually used.
    pub partitioning: Partitioning,
    /// Size of the reduced problem handed to the exact solver.
    pub reduced_elements: usize,
    /// k-Means iterations actually executed (early exit on convergence).
    pub kmeans_iterations_run: usize,
}

/// The scalable scheduler.
#[derive(Debug, Clone, Default)]
pub struct HeuristicScheduler {
    config: HeuristicConfig,
    solver: LagrangeSolver,
    recorder: Recorder,
    executor: Executor,
}

impl HeuristicScheduler {
    /// Create a scheduler, validating the configuration.
    pub fn new(config: HeuristicConfig) -> Result<Self> {
        if config.num_partitions == 0 {
            return Err(CoreError::InvalidConfig(
                "num_partitions must be positive".into(),
            ));
        }
        if !config.reference_frequency.is_finite() || config.reference_frequency <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "reference_frequency",
                index: None,
                value: config.reference_frequency,
            });
        }
        Ok(HeuristicScheduler {
            config,
            solver: LagrangeSolver::default(),
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &HeuristicConfig {
        &self.config
    }

    /// Attach an observability recorder; it also flows into the embedded
    /// exact solver and the k-means refinement rounds.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.solver.recorder = recorder.clone();
        self.recorder = recorder;
        self
    }

    /// Attach an execution strategy; it also flows into the embedded exact
    /// solver. Every pipeline stage produces the same result at any worker
    /// count (see [`freshen_core::exec`]).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.solver.executor = executor.clone();
        self.executor = executor;
        self
    }

    /// Run the full pipeline on `problem`, with one span per stage.
    pub fn solve(&self, problem: &Problem) -> Result<HeuristicSolution> {
        let rec = &self.recorder;
        let mut pipeline_span = rec.span("heuristic.pipeline");
        pipeline_span.arg("n", problem.len());
        pipeline_span.arg("k", self.config.num_partitions);

        let initial = {
            let _span = rec.span("heuristic.partition");
            Partitioning::by_criterion_exec(
                problem,
                self.config.criterion,
                self.config.num_partitions,
                self.config.reference_frequency,
                &self.executor,
            )?
        };
        let (partitioning, ran) = {
            let _span = rec.span("heuristic.kmeans");
            kmeans::refine_observed_exec(
                problem,
                &initial,
                self.config.kmeans_iterations,
                rec,
                &self.executor,
            )?
        };

        let (reduced, rep) = {
            let mut span = rec.span("heuristic.representative_solve");
            let reduced = ReducedProblem::build_exec(problem, &partitioning, &self.executor)?;
            span.arg("reduced_elements", reduced.problem().len());
            let rep = self.solver.solve(reduced.problem())?;
            (reduced, rep)
        };
        let freqs = {
            let _span = rec.span("heuristic.spread_allocation");
            self.config.allocation.expand_exec(
                problem,
                &partitioning,
                &reduced,
                &rep.frequencies,
                &self.executor,
            )
        };

        let mut solution = Solution::evaluate_with(
            problem,
            freqs,
            freshen_core::policy::SyncPolicy::FixedOrder,
            &self.executor,
        );
        solution.multiplier = rep.multiplier;
        solution.iterations = rep.iterations;
        rec.gauge("heuristic.pf").set(solution.perceived_freshness);
        Ok(HeuristicSolution {
            solution,
            reduced_elements: reduced.problem().len(),
            partitioning,
            kmeans_iterations_run: ran,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshen_solver::solve_perceived_freshness;
    use freshen_workload::scenario::{Alignment, Scenario};

    fn table2_problem() -> Problem {
        Scenario::table2(0.8, Alignment::ShuffledChange, 42)
            .problem()
            .unwrap()
    }

    fn heuristic_pf(problem: &Problem, config: HeuristicConfig) -> f64 {
        HeuristicScheduler::new(config)
            .unwrap()
            .solve(problem)
            .unwrap()
            .solution
            .perceived_freshness
    }

    #[test]
    fn heuristic_is_feasible_and_spends_budget() {
        let p = table2_problem();
        let h = HeuristicScheduler::new(HeuristicConfig::default())
            .unwrap()
            .solve(&p)
            .unwrap();
        assert!(p.is_feasible(&h.solution.frequencies, 1e-6));
        assert!(
            (h.solution.bandwidth_used - p.bandwidth()).abs() < p.bandwidth() * 1e-6,
            "heuristic leaves no budget idle: used {}",
            h.solution.bandwidth_used
        );
    }

    #[test]
    fn heuristic_bounded_by_optimal() {
        let p = table2_problem();
        let opt = solve_perceived_freshness(&p).unwrap();
        for k in [5, 20, 100] {
            let pf = heuristic_pf(
                &p,
                HeuristicConfig {
                    num_partitions: k,
                    ..Default::default()
                },
            );
            assert!(
                pf <= opt.perceived_freshness + 1e-9,
                "k={k}: heuristic {pf} exceeds optimal {}",
                opt.perceived_freshness
            );
        }
    }

    #[test]
    fn more_partitions_approach_optimal() {
        let p = table2_problem();
        let opt = solve_perceived_freshness(&p).unwrap().perceived_freshness;
        let few = heuristic_pf(
            &p,
            HeuristicConfig {
                num_partitions: 3,
                ..Default::default()
            },
        );
        let many = heuristic_pf(
            &p,
            HeuristicConfig {
                num_partitions: 250,
                ..Default::default()
            },
        );
        assert!(
            many >= few - 1e-9,
            "more partitions cannot hurt much: few={few} many={many}"
        );
        assert!(
            opt - many < 0.02,
            "250 partitions of 500 elements is near-optimal: gap {}",
            opt - many
        );
    }

    #[test]
    fn n_partitions_equals_optimal() {
        // One element per partition: the heuristic degenerates to the
        // exact solve.
        let p = table2_problem();
        let opt = solve_perceived_freshness(&p).unwrap().perceived_freshness;
        let pf = heuristic_pf(
            &p,
            HeuristicConfig {
                num_partitions: p.len(),
                ..Default::default()
            },
        );
        assert!((opt - pf).abs() < 1e-6, "opt {opt} vs heuristic {pf}");
    }

    #[test]
    fn kmeans_refinement_does_not_hurt() {
        let p = table2_problem();
        let base = heuristic_pf(
            &p,
            HeuristicConfig {
                num_partitions: 20,
                kmeans_iterations: 0,
                ..Default::default()
            },
        );
        let refined = heuristic_pf(
            &p,
            HeuristicConfig {
                num_partitions: 20,
                kmeans_iterations: 10,
                ..Default::default()
            },
        );
        // The paper's headline improvement; allow a small tolerance since
        // k-means optimizes cohesion, not PF directly.
        assert!(
            refined >= base - 0.01,
            "k-means refinement should help or be neutral: {base} → {refined}"
        );
    }

    #[test]
    fn pf_partitioning_beats_lambda_partitioning() {
        // The paper's Figure 5(a)/7 finding under shuffled-change.
        let p = table2_problem();
        let k = 25;
        let pf = heuristic_pf(
            &p,
            HeuristicConfig {
                criterion: PartitionCriterion::PerceivedFreshness,
                num_partitions: k,
                ..Default::default()
            },
        );
        let lam = heuristic_pf(
            &p,
            HeuristicConfig {
                criterion: PartitionCriterion::ChangeRate,
                num_partitions: k,
                ..Default::default()
            },
        );
        assert!(
            pf > lam,
            "PF-partitioning {pf} should beat λ-partitioning {lam} at k={k}"
        );
    }

    #[test]
    fn sized_problem_fba_beats_ffa() {
        use freshen_workload::scenario::{SizeAlignment, SizeDist};
        let p = Scenario::builder()
            .num_objects(400)
            .updates_per_period(800.0)
            .syncs_per_period(200.0)
            .zipf_theta(1.0)
            .alignment(Alignment::ShuffledChange)
            .size_dist(SizeDist::Pareto { shape: 1.1 })
            .size_alignment(SizeAlignment::ReverseOfChange)
            .seed(7)
            .build()
            .unwrap()
            .problem()
            .unwrap();
        let k = 15;
        let fba = heuristic_pf(
            &p,
            HeuristicConfig {
                criterion: PartitionCriterion::PerceivedFreshnessPerSize,
                num_partitions: k,
                allocation: AllocationPolicy::FixedBandwidth,
                ..Default::default()
            },
        );
        let ffa = heuristic_pf(
            &p,
            HeuristicConfig {
                criterion: PartitionCriterion::PerceivedFreshnessPerSize,
                num_partitions: k,
                allocation: AllocationPolicy::FixedFrequency,
                ..Default::default()
            },
        );
        assert!(
            fba >= ffa,
            "FBA {fba} must not lose to FFA {ffa} on Pareto sizes (paper Fig 11)"
        );
    }

    #[test]
    fn config_validation() {
        assert!(HeuristicScheduler::new(HeuristicConfig {
            num_partitions: 0,
            ..Default::default()
        })
        .is_err());
        assert!(HeuristicScheduler::new(HeuristicConfig {
            reference_frequency: 0.0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn single_partition_still_works() {
        let p = table2_problem();
        let h = HeuristicScheduler::new(HeuristicConfig {
            num_partitions: 1,
            ..Default::default()
        })
        .unwrap()
        .solve(&p)
        .unwrap();
        assert_eq!(h.reduced_elements, 1);
        // Everyone gets the same frequency under FFA-equivalent expansion.
        let f0 = h.solution.frequencies[0];
        assert!(h
            .solution
            .frequencies
            .iter()
            .all(|&f| (f - f0).abs() < 1e-9));
    }

    #[test]
    fn pool_pipeline_matches_serial_exactly() {
        let p = table2_problem();
        let config = HeuristicConfig {
            num_partitions: 20,
            kmeans_iterations: 5,
            ..Default::default()
        };
        let serial = HeuristicScheduler::new(config.clone())
            .unwrap()
            .solve(&p)
            .unwrap();
        for workers in [2, 4] {
            let pooled = HeuristicScheduler::new(config.clone())
                .unwrap()
                .with_executor(Executor::thread_pool(workers))
                .solve(&p)
                .unwrap();
            assert_eq!(
                serial.solution.frequencies, pooled.solution.frequencies,
                "workers={workers}"
            );
            assert_eq!(serial.partitioning, pooled.partitioning);
            assert_eq!(
                serial.solution.perceived_freshness.to_bits(),
                pooled.solution.perceived_freshness.to_bits()
            );
        }
    }

    #[test]
    fn recorder_traces_every_stage() {
        use freshen_obs::Recorder;
        let p = table2_problem();
        let rec = Recorder::enabled();
        let config = HeuristicConfig {
            num_partitions: 20,
            kmeans_iterations: 5,
            ..Default::default()
        };
        let observed = HeuristicScheduler::new(config.clone())
            .unwrap()
            .with_recorder(rec.clone())
            .solve(&p)
            .unwrap();
        let plain = HeuristicScheduler::new(config).unwrap().solve(&p).unwrap();
        assert_eq!(
            observed.solution.frequencies, plain.solution.frequencies,
            "observability must not change the schedule"
        );
        let trace = rec.chrome_trace_json().unwrap();
        for stage in [
            "heuristic.pipeline",
            "heuristic.partition",
            "heuristic.kmeans",
            "heuristic.representative_solve",
            "heuristic.spread_allocation",
        ] {
            assert!(trace.contains(stage), "missing stage span {stage}");
        }
        // The embedded exact solver reports through the same recorder.
        assert!(rec.counter_value("solver.solves").unwrap() >= 1);
        let pf = rec.gauge_value("heuristic.pf").unwrap();
        assert!((pf - observed.solution.perceived_freshness).abs() < 1e-12);
    }
}
