//! Adaptive rescheduling: decide *when* to re-solve and do it cheaply.
//!
//! The paper's §3 motivation for the heuristics is that "for large
//! real-world problems for which the contents of the mirror or the user
//! interests might change, we would need to periodically solve the Core
//! Problem". This module packages that loop:
//!
//! * [`DriftMonitor`] quantifies how far the current `(p, λ)` estimates
//!   have drifted from the ones the active schedule was computed for,
//!   using a symmetrized KL divergence on the normalized vectors, and
//!   recommends a re-solve when the drift crosses a threshold;
//! * [`AdaptiveScheduler`] owns the active schedule and re-solves on
//!   demand — warm-starting the exact solver from the previous Lagrange
//!   multiplier ([`LagrangeSolver::solve_warm`]), which converges in one
//!   pass when the drift left the multiplier in place and costs no more
//!   than a cold solve's two or three when it did not.

use freshen_core::audit::SolutionAudit;
use freshen_core::error::{CoreError, Result};
use freshen_core::problem::{Problem, Solution};
use freshen_solver::LagrangeSolver;

/// Symmetrized KL divergence (Jeffreys divergence) between two positive
/// vectors, each normalized to sum to 1 first. Zero entries are smoothed
/// with a tiny ε so elements appearing/disappearing stay finite.
///
/// # Errors
/// [`CoreError::LengthMismatch`] when the vectors differ in length;
/// [`CoreError::InvalidValue`] when either vector's total mass is
/// non-positive or non-finite (a divergence over it is meaningless).
pub fn jeffreys_divergence(a: &[f64], b: &[f64]) -> Result<f64> {
    Ok(jeffreys_terms(a, b)?.fold(0.0, |d, term| d + term))
}

/// Check `a` and `b` as [`jeffreys_divergence`] documents, then yield its
/// per-element terms `(p − q)·ln(p/q)`, with `p` and `q` the entries of
/// `a` and `b` normalized by their totals and floored at ε.
fn jeffreys_terms<'a>(a: &'a [f64], b: &'a [f64]) -> Result<impl Iterator<Item = f64> + 'a> {
    if a.len() != b.len() {
        return Err(CoreError::LengthMismatch {
            what: "divergence vectors",
            expected: a.len(),
            actual: b.len(),
        });
    }
    const EPS: f64 = 1e-12;
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    for sum in [sa, sb] {
        if !sum.is_finite() || sum <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "divergence mass",
                index: None,
                value: sum,
            });
        }
    }
    Ok(a.iter().zip(b).map(move |(&x, &y)| {
        let p = (x / sa).max(EPS);
        let q = (y / sb).max(EPS);
        (p - q) * (p / q).ln()
    }))
}

/// Drift detector comparing live `(p, λ)` estimates against the snapshot
/// the active schedule was computed from.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    baseline_probs: Vec<f64>,
    baseline_rates: Vec<f64>,
    threshold: f64,
}

impl DriftMonitor {
    /// Create a monitor with a Jeffreys-divergence `threshold` (a typical
    /// operating point is 0.01–0.1: ~0.02 corresponds to a few percent of
    /// interest mass moving between objects).
    pub fn new(problem: &Problem, threshold: f64) -> Result<Self> {
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "drift threshold",
                index: None,
                value: threshold,
            });
        }
        Ok(DriftMonitor {
            baseline_probs: problem.access_probs().to_vec(),
            baseline_rates: problem.change_rates().to_vec(),
            threshold,
        })
    }

    /// Total drift of `current` against the baseline: the sum of the
    /// profile divergence and the change-rate divergence.
    ///
    /// # Errors
    /// Fails when `current` has a different element count (the divergence
    /// is undefined across mirror-size changes).
    pub fn drift(&self, current: &Problem) -> Result<f64> {
        Ok(
            jeffreys_divergence(self.baseline_probs.as_slice(), current.access_probs())?
                + jeffreys_divergence(self.baseline_rates.as_slice(), current.change_rates())?,
        )
    }

    /// Should the schedule be recomputed for `current`?
    pub fn needs_resolve(&self, current: &Problem) -> Result<bool> {
        Ok(self.drift(current)? > self.threshold)
    }

    /// The configured re-solve threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The baseline access probabilities the active schedule was computed
    /// for — the checkpointable half of the monitor's state.
    pub fn baseline_probs(&self) -> &[f64] {
        &self.baseline_probs
    }

    /// The baseline change rates the active schedule was computed for.
    pub fn baseline_rates(&self) -> &[f64] {
        &self.baseline_rates
    }

    /// Rebuild a monitor from checkpointed baselines. `threshold` comes
    /// from configuration.
    pub fn from_state(
        baseline_probs: Vec<f64>,
        baseline_rates: Vec<f64>,
        threshold: f64,
    ) -> Result<Self> {
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(CoreError::InvalidValue {
                what: "drift threshold",
                index: None,
                value: threshold,
            });
        }
        if baseline_probs.len() != baseline_rates.len() {
            return Err(CoreError::LengthMismatch {
                what: "drift baselines",
                expected: baseline_probs.len(),
                actual: baseline_rates.len(),
            });
        }
        Ok(DriftMonitor {
            baseline_probs,
            baseline_rates,
            threshold,
        })
    }

    /// The elements responsible for the measured drift: indices whose
    /// per-element Jeffreys contribution (profile term plus change-rate
    /// term) exceeds twice the mean contribution.
    ///
    /// Localized drift concentrates its divergence on the few elements
    /// that actually moved — their contributions sit orders of magnitude
    /// above the mean, while the untouched majority only carries the
    /// second-order wobble that renormalization induces. The cut at
    /// `2×mean` therefore isolates the movers without a tuning knob.
    ///
    /// Its size gates incremental KKT repair
    /// ([`AdaptiveScheduler::with_repair_fraction`]), which receives the
    /// set ([`LagrangeSolver::repair`]). The repaired optimum never
    /// depends on the set being exact: a fuzzy classification can only
    /// open or close the gate.
    pub fn touched(&self, current: &Problem) -> Result<Vec<usize>> {
        let contributions = self.drift_contributions(current)?;
        let n = contributions.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mean = contributions.iter().sum::<f64>() / n as f64;
        let cut = 2.0 * mean;
        Ok((0..n).filter(|&i| contributions[i] > cut).collect())
    }

    /// Per-element Jeffreys contributions (profile + rate terms), the
    /// decomposition [`drift`](Self::drift) sums.
    fn drift_contributions(&self, current: &Problem) -> Result<Vec<f64>> {
        let probs = jeffreys_terms(&self.baseline_probs, current.access_probs())?;
        let rates = jeffreys_terms(&self.baseline_rates, current.change_rates())?;
        Ok(probs.zip(rates).map(|(a, b)| a + b).collect())
    }

    /// Re-baseline after a re-solve.
    pub fn rebaseline(&mut self, problem: &Problem) {
        self.baseline_probs.clear();
        self.baseline_probs
            .extend_from_slice(problem.access_probs());
        self.baseline_rates.clear();
        self.baseline_rates
            .extend_from_slice(problem.change_rates());
    }
}

/// A stateful scheduler that re-solves only when drift warrants it,
/// warm-starting from the previous multiplier.
#[derive(Debug)]
pub struct AdaptiveScheduler {
    solver: LagrangeSolver,
    monitor: DriftMonitor,
    current: Solution,
    resolves: usize,
    skips: usize,
    repairs: usize,
    repair_fallbacks: usize,
    repair_fraction: f64,
    last_drift: Option<f64>,
}

impl AdaptiveScheduler {
    /// Solve the initial problem and arm the drift monitor.
    ///
    /// Incremental repair is off by default
    /// ([`with_repair_fraction`](Self::with_repair_fraction) enables it).
    pub fn new(problem: &Problem, drift_threshold: f64) -> Result<Self> {
        Self::new_costed(problem, drift_threshold, 0.0)
    }

    /// [`new`](Self::new) with a per-poll cost weight `γ` on the solver's
    /// objective: every solve (initial, warm re-solve, and repair) then
    /// maximizes `PF − γ·Σ cᵢfᵢ` and the repair certificate checks the
    /// cost-adjusted stationarity condition. `γ = 0` is exactly
    /// [`new`](Self::new).
    pub fn new_costed(problem: &Problem, drift_threshold: f64, cost_weight: f64) -> Result<Self> {
        let solver = LagrangeSolver::default().with_cost_weight(cost_weight);
        let current = solver.solve(problem)?;
        Ok(AdaptiveScheduler {
            solver,
            monitor: DriftMonitor::new(problem, drift_threshold)?,
            current,
            resolves: 1,
            skips: 0,
            repairs: 0,
            repair_fallbacks: 0,
            repair_fraction: 0.0,
            last_drift: None,
        })
    }

    /// Set the solver's per-poll cost weight without re-solving (builder
    /// form) — for the [`from_state`](Self::from_state) restore path,
    /// where `current` was exported by a scheduler already running at
    /// this weight.
    pub fn with_cost_weight(mut self, cost_weight: f64) -> Self {
        self.solver.cost_weight = cost_weight;
        self
    }

    /// The per-poll cost weight γ the solver is operating at.
    pub fn cost_weight(&self) -> f64 {
        self.solver.cost_weight
    }

    /// Enable incremental KKT repair (builder form): when a re-solve
    /// fires and the drift monitor attributes the drift to at most
    /// `fraction` of the elements, re-solve through
    /// [`LagrangeSolver::repair`] and certify the repaired solution with
    /// the strict [`SolutionAudit`] ("repair then certify"). A failed
    /// repair or a failed certificate falls back to the full warm
    /// re-solve and is counted in
    /// [`repair_fallbacks`](Self::repair_fallbacks).
    ///
    /// `0.0` (the default) disables repair; values are clamped to
    /// `[0.0, 1.0]`; non-finite values disable.
    pub fn with_repair_fraction(mut self, fraction: f64) -> Self {
        self.repair_fraction = if fraction.is_finite() {
            fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// Attach an execution strategy for subsequent re-solves (builder
    /// form). The initial solve in [`new`](Self::new) runs serially; later
    /// drift-triggered solves use the configured executor — the optimum is
    /// identical either way.
    pub fn with_executor(mut self, executor: freshen_core::exec::Executor) -> Self {
        self.solver.executor = executor;
        self
    }

    /// The active schedule.
    pub fn schedule(&self) -> &Solution {
        &self.current
    }

    /// Exact solves performed so far (including the initial one).
    pub fn resolves(&self) -> usize {
        self.resolves
    }

    /// Updates that were absorbed without re-solving.
    pub fn skips(&self) -> usize {
        self.skips
    }

    /// Re-solves served by certified incremental repair (a subset of
    /// [`resolves`](Self::resolves)).
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Repair attempts that fell back to the full warm re-solve (repair
    /// diverged or its certificate failed).
    pub fn repair_fallbacks(&self) -> usize {
        self.repair_fallbacks
    }

    /// The configured repair gate: the largest touched-set fraction
    /// repair is attempted for (0 = disabled).
    pub fn repair_fraction(&self) -> f64 {
        self.repair_fraction
    }

    /// Drift measured by the most recent [`observe`](Self::observe) or
    /// [`resolve`](Self::resolve) call, if any — handy for gauges.
    pub fn last_drift(&self) -> Option<f64> {
        self.last_drift
    }

    /// The drift monitor (baselines + threshold) — checkpointable state.
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Rebuild a scheduler from checkpointed state without re-solving:
    /// `current` is the schedule that was active at checkpoint time and
    /// `monitor` carries the matching baselines, so the restored scheduler
    /// makes byte-identical decisions from the next observation on.
    pub fn from_state(
        current: Solution,
        monitor: DriftMonitor,
        resolves: usize,
        skips: usize,
        last_drift: Option<f64>,
    ) -> Result<Self> {
        if current.frequencies.is_empty() {
            return Err(CoreError::Empty);
        }
        if monitor.baseline_probs().len() != current.frequencies.len() {
            return Err(CoreError::LengthMismatch {
                what: "scheduler baselines",
                expected: current.frequencies.len(),
                actual: monitor.baseline_probs().len(),
            });
        }
        Ok(AdaptiveScheduler {
            solver: LagrangeSolver::default(),
            monitor,
            current,
            resolves,
            skips,
            repairs: 0,
            repair_fallbacks: 0,
            repair_fraction: 0.0,
            last_drift,
        })
    }

    /// Restore the repair counters alongside [`from_state`](Self::from_state)
    /// (builder form): a restored scheduler with matching counters and
    /// repair gate makes byte-identical decisions — and exports
    /// byte-identical state — from the next observation on.
    pub fn with_repair_counters(mut self, repairs: usize, repair_fallbacks: usize) -> Self {
        self.repairs = repairs;
        self.repair_fallbacks = repair_fallbacks;
        self
    }

    fn check_size(&self, problem: &Problem) -> Result<()> {
        if problem.len() != self.current.frequencies.len() {
            return Err(CoreError::LengthMismatch {
                what: "adaptive problem size",
                expected: self.current.frequencies.len(),
                actual: problem.len(),
            });
        }
        Ok(())
    }

    fn resolve_inner(&mut self, problem: &Problem) -> Result<()> {
        let hint = self.current.multiplier.unwrap_or(0.0);
        if hint > 0.0 && self.try_repair(problem)? {
            return Ok(());
        }
        self.current = if hint > 0.0 {
            self.solver.solve_warm(problem, hint)?
        } else {
            self.solver.solve(problem)?
        };
        self.monitor.rebaseline(problem);
        self.resolves += 1;
        Ok(())
    }

    /// Repair-then-certify: attempt incremental repair when the gate is
    /// open and the drift is localized enough; install the repaired
    /// schedule only when the strict KKT certificate passes. Returns
    /// whether the repair was installed; `Ok(false)` (repair not
    /// attempted, diverged, or decertified) means the caller must run the
    /// full re-solve.
    fn try_repair(&mut self, problem: &Problem) -> Result<bool> {
        if self.repair_fraction <= 0.0 {
            return Ok(false);
        }
        let touched = self.monitor.touched(problem)?;
        if touched.len() as f64 > self.repair_fraction * problem.len() as f64 {
            return Ok(false); // drift too broad: full re-solve is cheaper
        }
        let repaired = match self.solver.repair(problem, &self.current, &touched) {
            Ok(outcome) => outcome.solution,
            Err(CoreError::NoConvergence { .. }) => {
                self.repair_fallbacks += 1;
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        // Certify against the solver's actual objective, on its executor:
        // with a poll levy active the stationarity targets shift to
        // `μ·s + γ·c`, and the cost-blind certificate would reject every
        // correct repair.
        let certificate = SolutionAudit::default()
            .with_executor(self.solver.executor.clone())
            .check_with_cost(
                problem,
                &repaired,
                self.solver.policy,
                self.solver.cost_weight,
            )?;
        if !certificate.is_clean() {
            self.repair_fallbacks += 1;
            return Ok(false);
        }
        self.current = repaired;
        self.monitor.rebaseline(problem);
        self.resolves += 1;
        self.repairs += 1;
        Ok(true)
    }

    /// Feed the latest estimates. Re-solves (warm-started) when the drift
    /// monitor fires; otherwise keeps the active schedule. Returns whether
    /// a re-solve happened.
    ///
    /// The element count must stay fixed (the paper's model: "copies are
    /// not added or deleted at the mirror").
    pub fn observe(&mut self, problem: &Problem) -> Result<bool> {
        self.check_size(problem)?;
        let drift = self.monitor.drift(problem)?;
        self.last_drift = Some(drift);
        if drift <= self.monitor.threshold() {
            self.skips += 1;
            return Ok(false);
        }
        self.resolve_inner(problem)?;
        Ok(true)
    }

    /// Re-solve unconditionally (still warm-started from the previous
    /// multiplier) and re-baseline the drift monitor. This is the
    /// "re-solve every epoch" oracle policy the drift-gated loop is
    /// measured against.
    pub fn resolve(&mut self, problem: &Problem) -> Result<()> {
        self.check_size(problem)?;
        self.last_drift = Some(self.monitor.drift(problem)?);
        self.resolve_inner(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshen_workload::scenario::{Alignment, Scenario};

    fn base_problem() -> Problem {
        Scenario::table2(1.0, Alignment::ShuffledChange, 42)
            .problem()
            .unwrap()
    }

    fn perturbed(problem: &Problem, factor: f64) -> Problem {
        // Tilt the profile: even elements gain, odd elements lose.
        let probs: Vec<f64> = problem
            .access_probs()
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % 2 == 0 { p * factor } else { p / factor })
            .collect();
        Problem::builder()
            .change_rates(problem.change_rates().to_vec())
            .access_weights(probs)
            .bandwidth(problem.bandwidth())
            .build()
            .unwrap()
    }

    #[test]
    fn divergence_zero_iff_identical() {
        let a = [0.2, 0.3, 0.5];
        assert_eq!(jeffreys_divergence(&a, &a).unwrap(), 0.0);
        let b = [0.5, 0.3, 0.2];
        assert!(jeffreys_divergence(&a, &b).unwrap() > 0.0);
    }

    #[test]
    fn divergence_symmetric_and_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        let scaled: Vec<f64> = a.iter().map(|x| x * 7.0).collect();
        let ab = jeffreys_divergence(&a, &b).unwrap();
        let ba = jeffreys_divergence(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(jeffreys_divergence(&a, &scaled).unwrap() < 1e-12);
    }

    #[test]
    fn divergence_grows_with_perturbation() {
        let p = base_problem();
        let small = perturbed(&p, 1.05);
        let large = perturbed(&p, 1.5);
        let monitor = DriftMonitor::new(&p, 0.01).unwrap();
        assert!(monitor.drift(&small).unwrap() < monitor.drift(&large).unwrap());
    }

    #[test]
    fn monitor_ignores_noise_fires_on_drift() {
        let p = base_problem();
        let monitor = DriftMonitor::new(&p, 0.02).unwrap();
        assert!(!monitor.needs_resolve(&p).unwrap(), "no drift, no fire");
        assert!(
            !monitor.needs_resolve(&perturbed(&p, 1.01)).unwrap(),
            "1% tilt is noise"
        );
        assert!(
            monitor.needs_resolve(&perturbed(&p, 2.0)).unwrap(),
            "2x tilt must fire"
        );
    }

    #[test]
    fn monitor_validates_threshold() {
        let p = base_problem();
        assert!(DriftMonitor::new(&p, 0.0).is_err());
        assert!(DriftMonitor::new(&p, f64::NAN).is_err());
    }

    #[test]
    fn adaptive_skips_noise_and_tracks_drift() {
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02).unwrap();
        assert_eq!(sched.resolves(), 1);

        // Noise: no re-solve, schedule unchanged.
        let noisy = perturbed(&p, 1.005);
        assert!(!sched.observe(&noisy).unwrap());
        assert_eq!(sched.skips(), 1);

        // Real drift: re-solve fires and the new schedule is optimal for
        // the drifted problem.
        let drifted = perturbed(&p, 2.0);
        assert!(sched.observe(&drifted).unwrap());
        assert_eq!(sched.resolves(), 2);
        let direct = LagrangeSolver::default().solve(&drifted).unwrap();
        for (a, b) in sched.schedule().frequencies.iter().zip(&direct.frequencies) {
            assert!((a - b).abs() < 1e-6, "warm re-solve equals cold solve");
        }

        // After re-baselining, the same drifted problem reads as no-drift.
        assert!(!sched.observe(&drifted).unwrap());
    }

    #[test]
    fn adaptive_rejects_size_change() {
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02).unwrap();
        let smaller = Scenario::table2(1.0, Alignment::ShuffledChange, 1)
            .problem()
            .unwrap()
            .restrict_to(&(0..100).collect::<Vec<_>>(), 50.0)
            .unwrap();
        assert!(sched.observe(&smaller).is_err());
    }

    #[test]
    fn divergence_length_mismatch_is_an_error() {
        let err = jeffreys_divergence(&[1.0], &[0.5, 0.5]).unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }), "{err}");
    }

    #[test]
    fn divergence_non_positive_mass_is_an_error() {
        assert!(jeffreys_divergence(&[0.0, 0.0], &[0.5, 0.5]).is_err());
        assert!(jeffreys_divergence(&[0.5, 0.5], &[-1.0, 0.5]).is_err());
        assert!(jeffreys_divergence(&[f64::NAN, 1.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn monitor_fires_exactly_once_per_crossing() {
        // A drift that crosses the threshold triggers exactly one re-solve;
        // holding at the drifted point afterwards triggers none until the
        // *next* crossing.
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02).unwrap();
        let drifted = perturbed(&p, 2.0);

        let mut fired = 0;
        for _ in 0..5 {
            if sched.observe(&drifted).unwrap() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "one crossing, one re-solve");
        assert_eq!(sched.resolves(), 2);
        assert_eq!(sched.skips(), 4);

        // Drift back to the original profile: a second crossing, again
        // exactly one re-solve.
        let mut fired_back = 0;
        for _ in 0..5 {
            if sched.observe(&p).unwrap() {
                fired_back += 1;
            }
        }
        assert_eq!(fired_back, 1, "second crossing, second re-solve");
        assert_eq!(sched.resolves(), 3);
    }

    #[test]
    fn monitor_never_fires_under_tiny_drift() {
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02).unwrap();
        for step in 0..10 {
            // A slow wobble well inside the threshold.
            let tiny = perturbed(&p, 1.0 + 0.002 * (step % 3) as f64);
            assert!(!sched.observe(&tiny).unwrap(), "tiny drift must not fire");
        }
        assert_eq!(sched.resolves(), 1, "only the initial solve");
        assert_eq!(sched.skips(), 10);
    }

    #[test]
    fn warm_resolve_no_costlier_than_cold_solve() {
        // The warm-started re-solve must reach the same optimum in no more
        // passes than a cold solve of the drifted problem. The cold solve
        // starts at its spend histogram's root and takes two or three
        // passes, so a hint this far from the new optimum starts there too.
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02).unwrap();
        let drifted = perturbed(&p, 1.8);

        sched.resolve(&drifted).unwrap();
        let warm = sched.schedule();
        let cold = LagrangeSolver::default().solve(&drifted).unwrap();

        assert!(
            (warm.perceived_freshness - cold.perceived_freshness).abs() < 1e-9,
            "same optimum"
        );
        assert!(
            warm.iterations <= cold.iterations && cold.iterations <= 3,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    fn locally_perturbed(problem: &Problem, stride: usize, factor: f64) -> Problem {
        let probs: Vec<f64> = problem
            .access_probs()
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % stride == 0 { p * factor } else { p })
            .collect();
        Problem::builder()
            .change_rates(problem.change_rates().to_vec())
            .access_weights(probs)
            .bandwidth(problem.bandwidth())
            .build()
            .unwrap()
    }

    #[test]
    fn touched_set_isolates_local_drift() {
        let p = base_problem();
        let monitor = DriftMonitor::new(&p, 0.02).unwrap();
        let drifted = locally_perturbed(&p, 50, 3.0);
        let touched = monitor.touched(&drifted).unwrap();
        assert!(!touched.is_empty());
        assert!(
            touched.len() <= p.len() / 10,
            "local drift flagged {} of {} elements",
            touched.len(),
            p.len()
        );
        // The heavy movers are flagged. (Renormalization also lets a few
        // heavy *non*-movers into the set — harmless: the touched set only
        // gates repair, it never decides the optimum.)
        let movers = touched.iter().filter(|&&i| i % 50 == 0).count();
        assert!(movers > 0, "at least the heavy movers must be flagged");
        assert!(monitor.touched(&p).unwrap().is_empty(), "no drift, no set");
    }

    #[test]
    fn repair_gated_scheduler_matches_full_resolve() {
        let p = base_problem();
        let mut plain = AdaptiveScheduler::new(&p, 0.02).unwrap();
        let mut gated = AdaptiveScheduler::new(&p, 0.02)
            .unwrap()
            .with_repair_fraction(0.2);
        let drifted = locally_perturbed(&p, 40, 2.5);
        assert!(plain.observe(&drifted).unwrap());
        assert!(gated.observe(&drifted).unwrap());
        assert_eq!(
            gated.repairs(),
            1,
            "localized drift must take the repair path"
        );
        assert_eq!(gated.repair_fallbacks(), 0);
        assert!(
            (gated.schedule().perceived_freshness - plain.schedule().perceived_freshness).abs()
                < 1e-9,
            "repaired PF {} vs full re-solve PF {}",
            gated.schedule().perceived_freshness,
            plain.schedule().perceived_freshness
        );
    }

    #[test]
    fn cost_aware_repair_path_certifies() {
        // "Repair then certify" under a poll levy: the certificate must
        // check the cost-adjusted stationarity condition, or every
        // correct cost-aware repair would decertify and fall back.
        let p = base_problem();
        let mu0 = LagrangeSolver::default()
            .solve(&p)
            .unwrap()
            .multiplier
            .unwrap();
        let gamma = mu0 * 0.25; // levy well under the water level: budget binds
        let mut gated = AdaptiveScheduler::new_costed(&p, 0.02, gamma)
            .unwrap()
            .with_repair_fraction(0.2);
        assert_eq!(gated.cost_weight(), gamma);
        let drifted = locally_perturbed(&p, 40, 2.5);
        assert!(gated.observe(&drifted).unwrap());
        assert_eq!(gated.repairs(), 1, "cost-aware repair must certify");
        assert_eq!(gated.repair_fallbacks(), 0);
        let direct = LagrangeSolver::default()
            .with_cost_weight(gamma)
            .solve(&drifted)
            .unwrap();
        assert!(
            (gated.schedule().perceived_freshness - direct.perceived_freshness).abs() < 1e-9,
            "cost-aware repaired PF {} vs direct cost-aware PF {}",
            gated.schedule().perceived_freshness,
            direct.perceived_freshness
        );
    }

    #[test]
    fn broad_drift_bypasses_repair() {
        let p = base_problem();
        let mut gated = AdaptiveScheduler::new(&p, 0.02)
            .unwrap()
            .with_repair_fraction(0.05);
        // Every element moves: the touched set exceeds the gate, so the
        // full warm re-solve runs and no fallback is charged.
        let drifted = perturbed(&p, 2.0);
        assert!(gated.observe(&drifted).unwrap());
        assert_eq!(gated.repairs(), 0);
        assert_eq!(gated.resolves(), 2);
    }

    #[test]
    fn repair_counters_survive_state_roundtrip() {
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.02)
            .unwrap()
            .with_repair_fraction(0.2);
        let drifted = locally_perturbed(&p, 40, 2.5);
        assert!(sched.observe(&drifted).unwrap());
        assert_eq!(sched.repairs(), 1);

        let restored = AdaptiveScheduler::from_state(
            sched.schedule().clone(),
            DriftMonitor::from_state(
                sched.monitor().baseline_probs().to_vec(),
                sched.monitor().baseline_rates().to_vec(),
                0.02,
            )
            .unwrap(),
            sched.resolves(),
            sched.skips(),
            sched.last_drift(),
        )
        .unwrap()
        .with_repair_counters(sched.repairs(), sched.repair_fallbacks())
        .with_repair_fraction(0.2);
        assert_eq!(restored.repairs(), 1);
        assert_eq!(restored.repair_fallbacks(), 0);
        assert_eq!(restored.repair_fraction(), 0.2);
    }

    #[test]
    fn forced_resolve_records_drift_and_counts() {
        let p = base_problem();
        let mut sched = AdaptiveScheduler::new(&p, 0.5).unwrap();
        assert!(sched.last_drift().is_none());
        // Under-threshold drift: observe skips but records the measurement.
        let mild = perturbed(&p, 1.05);
        assert!(!sched.observe(&mild).unwrap());
        let seen = sched.last_drift().unwrap();
        assert!(seen > 0.0 && seen < 0.5, "drift measured: {seen}");
        // Forced resolve ignores the threshold entirely.
        sched.resolve(&mild).unwrap();
        assert_eq!(sched.resolves(), 2);
    }
}
