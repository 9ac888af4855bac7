//! **Estimator race + cost frontier** (DESIGN.md §16) — the four online
//! change-rate estimators against synthetic drift, and the cost-aware
//! solver's PF/cost trade-off.
//!
//! **Leg 1 (race):** every estimator sees the *same* Bernoulli poll
//! outcomes — element `i` polled every `Δ` periods reveals
//! `I ~ Bernoulli(1 − e^{−λᵢ(t)Δ})` — under three drift regimes:
//!
//! * `stationary` — constant true rates: the convergent estimators (LLN,
//!   SA) must drive their error toward zero while constant-gain EWMA
//!   sits on its variance floor;
//! * `step` — all rates jump ×2 early in the run (10% in): after the
//!   long tail both LLN and SA must again beat EWMA's floor, the
//!   paper-motivating case (the asserted acceptance criterion);
//! * `diurnal` — rates follow a raised cosine: the tracking regime where
//!   a constant gain earns its keep (reported, not asserted).
//!
//! The score is the mean relative absolute error over the final 20% of
//! polls (`tail_error` in the telemetry).
//!
//! **Leg 2 (cost sweep):** a Table-2 scenario with a heterogeneous
//! per-poll cost column is solved under an increasing cost levy γ. The
//! binary asserts the PF/cost frontier is monotone (spend and PF both
//! non-increasing in γ) and that *every* point passes the strict
//! cost-adjusted KKT certificate — including a cost-budget-constrained
//! solve and a certified incremental-repair point.
//!
//! Pass `--smoke` for a seconds-scale run (used by CI). Telemetry lands
//! in `results/BENCH_estimators.json`.

use freshen_bench::{header, row, timed, BenchReport, BenchRun};
use freshen_core::audit::SolutionAudit;
use freshen_core::estimate::{EwmaRateEstimator, LlnRateEstimator, WindowRateEstimator};
use freshen_core::problem::Problem;
use freshen_core::rng::SplitMix64;
use freshen_heuristics::adaptive::AdaptiveScheduler;
use freshen_solver::LagrangeSolver;
use freshen_workload::scenario::{Alignment, Scenario};

/// Poll spacing for the race (periods). Chosen so the detection
/// probability stays well inside (0, 1) for every rate in the grid —
/// saturated polls carry no rate information.
const POLL_INTERVAL: f64 = 0.4;

/// The drift regimes of leg 1.
#[derive(Clone, Copy, PartialEq)]
enum Drift {
    Stationary,
    Step,
    Diurnal,
}

impl Drift {
    fn name(self) -> &'static str {
        match self {
            Drift::Stationary => "stationary",
            Drift::Step => "step",
            Drift::Diurnal => "diurnal",
        }
    }
}

struct Race {
    n: usize,
    polls: usize,
    seed: u64,
}

impl Race {
    /// Base (pre-drift) rate of element `i`: a geometric spread
    /// 0.3–1.2, kept low enough that even the doubled post-step rates
    /// don't saturate the detection probability.
    fn base_rate(&self, i: usize) -> f64 {
        0.3 * 1.414f64.powi((i % 5) as i32)
    }

    /// True rate of element `i` at the `k`-th poll.
    fn true_rate(&self, drift: Drift, i: usize, k: usize) -> f64 {
        let base = self.base_rate(i);
        match drift {
            Drift::Stationary => base,
            // The step lands 10% into the run, leaving a long tail for
            // the convergent estimators to re-converge over.
            Drift::Step => {
                if k >= self.polls / 10 {
                    2.0 * base
                } else {
                    base
                }
            }
            // Four full cycles per run, ±60% swing.
            Drift::Diurnal => {
                let phase = 8.0 * std::f64::consts::PI * k as f64 / self.polls as f64;
                base * (1.0 + 0.6 * phase.sin())
            }
        }
    }

    /// Race all four estimators on one drift regime. Returns the four
    /// tail errors in catalogue order (ewma, window, lln, sa).
    fn run(&self, drift: Drift) -> [f64; 4] {
        let n = self.n;
        let prior = 1.0;
        let mut ewma = EwmaRateEstimator::new(n, 0.1, prior).expect("ewma builds");
        let mut window = WindowRateEstimator::new(n, 8).expect("window builds");
        let mut lln = LlnRateEstimator::new(n).expect("lln builds");
        // Decay 0.6 sits at the fast end of the Robbins–Monro range
        // (0.5, 1]: the gain shrinks slowly enough to absorb the early
        // step change yet still drives the variance to zero.
        let mut sa = EwmaRateEstimator::decreasing(n, 0.5, 0.6, prior).expect("sa builds");

        let mut rng = SplitMix64::new(self.seed ^ drift.name().len() as u64);
        let tail_start = self.polls - self.polls / 5;
        let mut err = [0.0f64; 4];
        let mut samples = 0u64;
        for k in 0..self.polls {
            for i in 0..n {
                let lambda = self.true_rate(drift, i, k);
                let q = 1.0 - (-lambda * POLL_INTERVAL).exp();
                let changed = rng.next_f64() < q;
                ewma.observe(i, POLL_INTERVAL, changed).expect("observe");
                window.observe(i, POLL_INTERVAL, changed).expect("observe");
                lln.observe(i, POLL_INTERVAL, changed).expect("observe");
                sa.observe(i, POLL_INTERVAL, changed).expect("observe");
            }
            if k >= tail_start {
                let estimates = [
                    ewma.rates(prior),
                    window.rates(prior),
                    lln.rates(prior),
                    sa.rates(prior),
                ];
                for (slot, rates) in err.iter_mut().zip(&estimates) {
                    for (i, &est) in rates.iter().enumerate() {
                        let truth = self.true_rate(drift, i, k);
                        *slot += (est - truth).abs() / truth;
                    }
                }
                samples += n as u64;
            }
        }
        err.map(|e| e / samples as f64)
    }
}

/// The cost-sweep problem: a Table-2 scenario with a heterogeneous
/// per-poll cost column grafted on.
fn costed_problem(seed: u64) -> Problem {
    let base = Scenario::table2(1.0, Alignment::ShuffledChange, seed)
        .problem()
        .expect("scenario problem builds");
    let costs = (0..base.len())
        .map(|i| 0.5 + (i % 7) as f64 * 0.4)
        .collect();
    Problem::builder()
        .change_rates(base.change_rates().to_vec())
        .access_probs(base.access_probs().to_vec())
        .sizes(base.sizes().to_vec())
        .costs(costs)
        .bandwidth(base.bandwidth())
        .build()
        .expect("costed problem builds")
}

fn spend(problem: &Problem, frequencies: &[f64]) -> f64 {
    let costs = problem.poll_costs().expect("cost column present");
    frequencies.iter().zip(costs).map(|(&f, &c)| f * c).sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let race = if smoke {
        Race {
            n: 24,
            polls: 600,
            seed: 7,
        }
    } else {
        Race {
            n: 128,
            polls: 4000,
            seed: 7,
        }
    };

    let mut bench = BenchReport::new("estimators")
        .with_meta("smoke", smoke)
        .with_meta("elements", race.n)
        .with_meta("polls", race.polls)
        .with_meta("poll_interval", POLL_INTERVAL)
        .with_meta("seed", race.seed);

    println!(
        "# Estimator race: {} elements, {} polls each, tail = final 20%",
        race.n, race.polls
    );
    header(&["run", "tail_error"]);
    let mut step_errors = [0.0f64; 4];
    for drift in [Drift::Stationary, Drift::Step, Drift::Diurnal] {
        let (errors, wall) = timed(|| race.run(drift));
        if drift == Drift::Step {
            step_errors = errors;
        }
        for (label, err) in ["ewma", "window", "lln", "sa"].iter().zip(errors) {
            let name = format!("{}/{}", drift.name(), label);
            row(&name, &[err]);
            bench.push(BenchRun {
                name,
                wall_seconds: wall / 4.0,
                pf: None,
                solver_iterations: None,
                events_per_sec: None,
                tail_error: Some(err),
            });
        }
    }
    // The acceptance criterion: after an early step change, both
    // convergent estimators must beat constant-gain EWMA's variance
    // floor over the long tail.
    let [ewma_err, _, lln_err, sa_err] = step_errors;
    assert!(
        lln_err < ewma_err,
        "LLN tail error {lln_err:.4} must beat EWMA {ewma_err:.4} on the step leg"
    );
    assert!(
        sa_err < ewma_err,
        "SA tail error {sa_err:.4} must beat EWMA {ewma_err:.4} on the step leg"
    );
    println!(
        "# step leg: LLN {:.4} and SA {:.4} both beat EWMA {:.4}",
        lln_err, sa_err, ewma_err
    );

    // ---- Leg 2: the PF/cost frontier under an increasing levy. ----
    let problem = costed_problem(race.seed);
    let audit = SolutionAudit::default();
    let policy = LagrangeSolver::default().policy;
    println!(
        "# Cost sweep: {} objects, strict certificates armed",
        problem.len()
    );
    header(&["run", "pf", "spend"]);

    let gammas = [0.0, 0.002, 0.005, 0.01, 0.02, 0.05];
    let mut frontier: Vec<(f64, f64)> = Vec::new();
    for &gamma in &gammas {
        let solver = LagrangeSolver::default().with_cost_weight(gamma);
        let (solution, wall) = timed(|| solver.solve(&problem).expect("cost-aware solve"));
        let report = audit
            .check_with_cost(&problem, &solution, policy, gamma)
            .expect("audit runs");
        assert!(
            report.is_clean(),
            "gamma={gamma}: strict cost-adjusted certificate failed: {report:?}"
        );
        let pf = solution.perceived_freshness;
        let used = spend(&problem, &solution.frequencies);
        let name = format!("cost/gamma={gamma}");
        row(&name, &[pf, used]);
        bench.push(BenchRun {
            name,
            wall_seconds: wall,
            pf: Some(pf),
            solver_iterations: Some(solution.iterations as u64),
            events_per_sec: None,
            tail_error: None,
        });
        frontier.push((pf, used));
    }
    for pair in frontier.windows(2) {
        let ((pf_lo, spend_lo), (pf_hi, spend_hi)) = (pair[0], pair[1]);
        assert!(
            pf_hi <= pf_lo + 1e-12 && spend_hi <= spend_lo + 1e-9,
            "frontier must be monotone: ({pf_lo}, {spend_lo}) -> ({pf_hi}, {spend_hi})"
        );
    }
    println!("# frontier monotone over {} levies", gammas.len());

    // Cost-budget-constrained point: cap the spend at 60% of the
    // unconstrained schedule's and let the solver calibrate the levy.
    let cap = 0.6 * frontier[0].1;
    let solver = LagrangeSolver::default();
    let (capped, wall) = timed(|| {
        solver
            .solve_cost_budget(&problem, cap)
            .expect("cost-budget solve")
    });
    let gamma_star = capped.cost_multiplier.unwrap_or(0.0);
    let capped_spend = spend(&problem, &capped.frequencies);
    assert!(
        capped_spend <= cap * (1.0 + 1e-9),
        "budgeted spend {capped_spend} exceeds cap {cap}"
    );
    let report = audit
        .check_with_cost(&problem, &capped, policy, gamma_star)
        .expect("audit runs");
    assert!(
        report.is_clean(),
        "cost-budget certificate failed: {report:?}"
    );
    row("cost/budgeted", &[capped.perceived_freshness, capped_spend]);
    bench.push(BenchRun {
        name: "cost/budgeted".into(),
        wall_seconds: wall,
        pf: Some(capped.perceived_freshness),
        solver_iterations: Some(capped.iterations as u64),
        events_per_sec: None,
        tail_error: None,
    });
    println!(
        "# budgeted: spend {capped_spend:.2} <= cap {cap:.2} (calibrated levy {gamma_star:.5})"
    );

    // Repair-path point: a certified incremental repair under a levy.
    // The scheduler's internal certificate is the cost-adjusted one, so
    // a counted repair here *is* a certified cost-aware repair. Repair
    // needs the bandwidth budget to bind (μ > 0), so this leg tightens
    // the budget and keeps the levy small relative to μ*.
    let gamma = 1e-4;
    let problem = Problem::builder()
        .change_rates(problem.change_rates().to_vec())
        .access_probs(problem.access_probs().to_vec())
        .sizes(problem.sizes().to_vec())
        .costs(problem.poll_costs().expect("cost column").to_vec())
        .bandwidth(problem.bandwidth() / 4.0)
        .build()
        .expect("tightened problem builds");
    let mut scheduler = AdaptiveScheduler::new_costed(&problem, 1e-9, gamma)
        .expect("scheduler builds")
        .with_repair_fraction(0.25);
    let mut rates = problem.change_rates().to_vec();
    for r in rates.iter_mut().take(problem.len() / 10) {
        *r *= 1.5;
    }
    let perturbed = Problem::builder()
        .change_rates(rates)
        .access_probs(problem.access_probs().to_vec())
        .sizes(problem.sizes().to_vec())
        .costs(problem.poll_costs().expect("cost column").to_vec())
        .bandwidth(problem.bandwidth())
        .build()
        .expect("perturbed problem builds");
    let (_, wall) = timed(|| scheduler.resolve(&perturbed).expect("resolve"));
    assert!(
        scheduler.repairs() == 1 && scheduler.repair_fallbacks() == 0,
        "local perturbation must take the certified repair path (repairs={}, fallbacks={})",
        scheduler.repairs(),
        scheduler.repair_fallbacks()
    );
    let repaired = scheduler.schedule().clone();
    row(
        "cost/repair",
        &[
            repaired.perceived_freshness,
            spend(&perturbed, &repaired.frequencies),
        ],
    );
    bench.push(BenchRun {
        name: "cost/repair".into(),
        wall_seconds: wall,
        pf: Some(repaired.perceived_freshness),
        solver_iterations: Some(repaired.iterations as u64),
        events_per_sec: None,
        tail_error: None,
    });
    println!("# repair under levy {gamma}: certified incremental repair, no fallback");

    match bench.write() {
        Ok(path) => println!("# telemetry: {}", path.display()),
        Err(e) => eprintln!("# telemetry write failed: {e}"),
    }
}
