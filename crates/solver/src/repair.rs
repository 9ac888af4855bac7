//! Incremental KKT repair: re-solve after localized drift, warm-started
//! from the previous optimum's water level.
//!
//! The periodic re-solve loop (`freshen-heuristics`' `AdaptiveScheduler`)
//! usually faces *localized* drift: a handful of elements changed their
//! rates or interest while the rest of the problem barely moved, so the
//! previous optimum's water level `μ0` is a close start for the new one.
//! Repair checks that `previous` can seed that start (its length matches
//! and it carries a positive multiplier) and runs
//! [`solve_warm`](LagrangeSolver::solve_warm) from `μ0`: the shared
//! kernel and water-level root-finder, with the usual straddle blend,
//! snap and evaluation, and no search of its own. Correctness therefore
//! never depends on the touched set, which is only recorded on the
//! `solver.repair` span.
//!
//! Repair is always paired with certification ("repair then certify"): the
//! caller runs the strict [`SolutionAudit`](freshen_core::SolutionAudit)
//! certificate over the repaired solution and falls back to a full warm
//! re-solve when it fails. See `freshen-heuristics::adaptive`.

use freshen_core::error::{CoreError, Result};
use freshen_core::problem::{Problem, Solution};

use crate::lagrange::LagrangeSolver;

/// A repaired solution plus the work it took, for instrumentation and for
/// the repair-vs-warm-re-solve benchmark rows.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired (budget-exact, KKT-stationary) solution.
    pub solution: Solution,
    /// Allocation passes over the active set.
    pub probes: usize,
}

impl LagrangeSolver {
    /// Repair `previous` after drift touched the elements in `touched`
    /// (original problem indices; recorded for tracing only).
    ///
    /// `problem` is the *post-drift* problem; `previous` is the optimum of
    /// the pre-drift problem. Returns the optimum of `problem` (to the
    /// solver's budget tolerance) or [`CoreError::NoConvergence`] when the
    /// water-level search fails to settle — the caller's cue to run a
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

        let solution = self.solve_warm(problem, mu0)?;
        let probes = solution.iterations;
        rec.counter("solver.repair.probes").add(probes as u64);
        Ok(RepairOutcome { solution, probes })
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

    /// `striped(n, tilt)` with every change rate also scaled by
    /// `1 + w·sin(0.7i)`: drift the stripe's touched set does not report.
    fn wobbled(n: usize, tilt: f64, w: f64) -> Problem {
        let base = striped(n, tilt);
        let rates = base
            .change_rates()
            .iter()
            .enumerate()
            .map(|(i, &r)| r * (1.0 + w * (0.7 * i as f64).sin()))
            .collect();
        Problem::builder()
            .change_rates(rates)
            .access_probs(base.access_probs().to_vec())
            .bandwidth(base.bandwidth())
            .build()
            .unwrap()
    }

    #[test]
    fn repair_converges_when_the_touched_set_under_reports_drift() {
        // Drift the stripe and wobble every element by up to w, then name
        // the stripe or nothing as touched. Every repair must converge,
        // certify strictly and match the warm re-solve, and in total cost
        // no more passes than the warm re-solves.
        let solver = LagrangeSolver::default();
        let (mut repair_passes, mut warm_passes) = (0, 0);
        for n in [300, 500, 1000, 2000, 3000, 5000, 10_000] {
            let previous = solver.solve(&striped(n, 1.0)).unwrap();
            let stripe: Vec<usize> = (0..n).step_by(5).collect();
            for tilt in [0.7, 0.9, 1.1, 1.35, 2.0, 4.0, 6.0] {
                for w in [0.0, 0.01] {
                    let after = wobbled(n, tilt, w);
                    let warm = solver
                        .solve_warm(&after, previous.multiplier.unwrap())
                        .unwrap();
                    for touched in [&stripe[..], &[]] {
                        let case = format!("n={n} tilt={tilt} w={w} |touched|={}", touched.len());
                        let repaired = solver
                            .repair(&after, &previous, touched)
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                        let report = SolutionAudit::default()
                            .check(&after, &repaired.solution, solver.policy)
                            .unwrap();
                        assert!(report.is_clean(), "{case}: {}", report.to_json());
                        assert!(
                            (repaired.solution.perceived_freshness - warm.perceived_freshness)
                                .abs()
                                < 1e-9,
                            "{case}: repair PF {} vs warm PF {}",
                            repaired.solution.perceived_freshness,
                            warm.perceived_freshness
                        );
                        repair_passes += repaired.probes;
                        warm_passes += warm.iterations;
                    }
                }
            }
        }
        assert!(
            repair_passes <= warm_passes,
            "repair {repair_passes} vs warm re-solve {warm_passes} passes"
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
