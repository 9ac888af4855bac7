//! The verification layer end to end: KKT certificates on every solver
//! family, differential parity between independent solution methods, and
//! the engine's poll-credit ledger under injected failures.

use freshen::core::exec::Executor;
use freshen::core::SyncPolicy;
use freshen::engine::LivePollSource;
use freshen::prelude::*;
use freshen::solver::baselines::solve_grid_search;
use freshen::solver::ProjectedGradientSolver;
use freshen::workload::scenario::SizeDist;

fn table1_problem(probs: Vec<f64>) -> Problem {
    Problem::builder()
        .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
        .access_probs(probs)
        .bandwidth(5.0)
        .build()
        .unwrap()
}

fn table2_problem(theta: f64, seed: u64) -> Problem {
    Scenario::table2(theta, Alignment::ShuffledChange, seed)
        .problem()
        .unwrap()
}

fn assert_clean(report: &AuditReport, label: &str) {
    assert!(
        report.is_clean(),
        "{label} failed its certificate: {}",
        report.to_json()
    );
}

#[test]
fn lagrange_solutions_carry_a_clean_certificate() {
    let audit = SolutionAudit::default();
    let solver = LagrangeSolver::default();
    let profiles = [
        vec![0.2; 5],
        (1..=5).map(|i| i as f64 / 15.0).collect::<Vec<_>>(),
        (1..=5).rev().map(|i| i as f64 / 15.0).collect::<Vec<_>>(),
    ];
    for (k, probs) in profiles.into_iter().enumerate() {
        let problem = table1_problem(probs);
        let solution = solver.solve(&problem).unwrap();
        let report = audit
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert_clean(&report, &format!("table1 profile {k}"));
    }
    for theta in [0.0, 1.0, 2.0] {
        let problem = table2_problem(theta, 42);
        let solution = solver.solve(&problem).unwrap();
        let report = audit
            .check(&problem, &solution, SyncPolicy::FixedOrder)
            .unwrap();
        assert_clean(&report, &format!("table2 θ={theta}"));
    }
}

#[test]
fn pool_solves_match_serial_and_pass_audit() {
    let problem = table2_problem(1.0, 7);
    let serial = LagrangeSolver::default().solve(&problem).unwrap();
    for workers in [2, 4, 8] {
        let pooled = LagrangeSolver::default()
            .with_executor(Executor::thread_pool(workers))
            .solve(&problem)
            .unwrap();
        let report = SolutionAudit::default()
            .check(&problem, &pooled, SyncPolicy::FixedOrder)
            .unwrap();
        assert_clean(&report, &format!("pool workers={workers}"));
        assert_eq!(
            pooled.frequencies, serial.frequencies,
            "worker count must not move the optimum (workers={workers})"
        );
    }
}

#[test]
fn pool_solves_stay_cost_aware_under_a_levy() {
    // Differential pin of the pooled solve against the serial one when a
    // per-poll cost levy γ > 0 is active: the cost column must shape the
    // pooled allocation exactly as it shapes the serial one, and the
    // cost-adjusted certificate must hold at any worker count.
    let base = table2_problem(1.0, 7);
    let n = base.len();
    let costed = Problem::builder()
        .change_rates(base.change_rates().to_vec())
        .access_probs(base.access_probs().to_vec())
        .costs((0..n).map(|i| 0.5 + (i % 5) as f64 * 0.75).collect())
        .bandwidth(base.bandwidth())
        .build()
        .unwrap();
    let gamma = 2e-3;
    let solver = LagrangeSolver {
        cost_weight: gamma,
        ..Default::default()
    };
    let serial = solver.solve(&costed).unwrap();
    let blind = LagrangeSolver::default().solve(&costed).unwrap();
    assert!(
        costed.cost_used(&serial.frequencies) < costed.cost_used(&blind.frequencies),
        "the levy must reshape the costed optimum for the pin to mean anything"
    );
    let audit = SolutionAudit::default();
    for workers in [2, 4, 8] {
        let pooled = solver
            .clone()
            .with_executor(Executor::thread_pool(workers))
            .solve(&costed)
            .unwrap();
        assert_eq!(
            pooled.cost_multiplier,
            Some(gamma),
            "workers={workers}: the levy must survive the pooled path"
        );
        assert_eq!(pooled.frequencies, serial.frequencies, "workers={workers}");
        let report = audit
            .check_with_cost(&costed, &pooled, SyncPolicy::FixedOrder, gamma)
            .unwrap();
        assert_clean(&report, &format!("costed pool workers={workers}"));
    }
}

#[test]
fn projected_gradient_passes_the_audit() {
    let problem = table1_problem(vec![0.2; 5]);
    // Audit-grade NLP: a tight convergence tolerance brings the KKT
    // spread under the strict certificate's 1e-6.
    let tight = ProjectedGradientSolver {
        max_iters: 50_000,
        rel_tol: 1e-16,
        ..Default::default()
    };
    let solution = tight.solve(&problem).unwrap();
    let report = SolutionAudit::default()
        .check(&problem, &solution, SyncPolicy::FixedOrder)
        .unwrap();
    assert_clean(&report, "projected gradient (rel_tol 1e-16)");

    // Default settings stop earlier (spread ~1e-5..1e-4): still a valid
    // allocation, certified by the relaxed profile built for NLP output.
    let solution = ProjectedGradientSolver::default().solve(&problem).unwrap();
    let strict = SolutionAudit::default()
        .check(&problem, &solution, SyncPolicy::FixedOrder)
        .unwrap();
    assert!(
        !strict.is_clean(),
        "default PG should NOT meet the strict exact-solver bar \
         (if it does, tighten the strict profile): {}",
        strict.to_json()
    );
    let relaxed = SolutionAudit::relaxed()
        .check(&problem, &solution, SyncPolicy::FixedOrder)
        .unwrap();
    assert_clean(&relaxed, "projected gradient (default, relaxed profile)");
}

#[test]
fn grid_search_brackets_the_exact_solver() {
    // Differential check against a method with *no shared code* with the
    // Lagrange solver: exhaustive search over the bandwidth simplex.
    let problem = Problem::builder()
        .change_rates(vec![1.0, 3.0, 6.0])
        .access_probs(vec![0.5, 0.3, 0.2])
        .bandwidth(3.0)
        .build()
        .unwrap();
    let exact = LagrangeSolver::default().solve(&problem).unwrap();
    let grid = solve_grid_search(&problem, 120).unwrap();
    assert!(
        exact.perceived_freshness >= grid.perceived_freshness - 1e-12,
        "grid ({}) must not beat the certified optimum ({})",
        grid.perceived_freshness,
        exact.perceived_freshness
    );
    assert!(
        exact.perceived_freshness - grid.perceived_freshness < 5e-3,
        "a 120-step grid should land within O(Δ²) of the optimum: gap {}",
        exact.perceived_freshness - grid.perceived_freshness
    );
}

#[test]
fn simulator_confirms_the_analytic_model() {
    // The discrete-event simulator measures PF by integrating actual
    // staleness intervals — an independent path to the same number the
    // analytic evaluator computes in closed form.
    let problem = table1_problem(vec![0.2; 5]);
    let solution = LagrangeSolver::default().solve(&problem).unwrap();
    let report = Simulation::new(
        &problem,
        &solution.frequencies,
        SimConfig {
            periods: 400.0,
            warmup_periods: 20.0,
            accesses_per_period: 200.0,
            seed: 9,
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(
        (report.time_averaged_pf - report.analytic_pf).abs() < 0.02,
        "measured PF {} vs analytic {} — the model and the simulator disagree",
        report.time_averaged_pf,
        report.analytic_pf
    );
}

#[test]
fn heuristic_allocations_conserve_the_budget_under_pareto_sizes() {
    // FFA and FBA must hand back schedules that respect Σ sᵢfᵢ ≤ B even
    // with heavy-tailed object sizes (the paper's shape-1.1 web sizing).
    let problem = Scenario::builder()
        .num_objects(300)
        .updates_per_period(600.0)
        .syncs_per_period(150.0)
        .zipf_theta(1.0)
        .update_std_dev(1.0)
        .alignment(Alignment::ShuffledChange)
        .size_dist(SizeDist::Pareto { shape: 1.1 })
        .seed(17)
        .build()
        .unwrap()
        .problem()
        .unwrap();
    let budget = problem.bandwidth();
    for allocation in [
        AllocationPolicy::FixedFrequency,
        AllocationPolicy::FixedBandwidth,
    ] {
        let config = HeuristicConfig {
            allocation,
            ..HeuristicConfig::default()
        };
        let heuristic = HeuristicScheduler::new(config)
            .unwrap()
            .solve(&problem)
            .unwrap();
        let used: f64 = heuristic
            .solution
            .frequencies
            .iter()
            .zip(problem.sizes())
            .map(|(&f, &s)| f * s)
            .sum();
        assert!(
            used <= budget * (1.0 + 1e-9),
            "{} overspends: {used} > {budget}",
            allocation.name()
        );
        assert!(
            used >= budget * 0.99,
            "{} strands bandwidth: {used} of {budget}",
            allocation.name()
        );
        assert!(heuristic
            .solution
            .frequencies
            .iter()
            .all(|f| f.is_finite() && *f >= 0.0));
    }
}

#[test]
fn cli_audit_subcommand_certifies_scenarios_end_to_end() {
    let run = |argv: &[&str]| {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let result = freshen_cli::run(&argv, &mut buf);
        (result, String::from_utf8(buf).unwrap())
    };
    // Table-1-scale scenario through every audited solver family.
    for extra in [&[][..], &["--threads", "4"][..], &["--solver", "pg"][..]] {
        let mut argv = vec![
            "audit",
            "--objects",
            "100",
            "--updates",
            "200",
            "--syncs",
            "50",
            "--theta",
            "1.0",
            "--seed",
            "3",
        ];
        argv.extend_from_slice(extra);
        let (result, report) = run(&argv);
        result.unwrap_or_else(|e| panic!("{extra:?}: {e}\n{report}"));
        assert!(report.contains("\"clean\":true"), "{extra:?}: {report}");
    }
    // A violation must surface as a command failure (CI exit status 1).
    let (result, report) = run(&["audit"]);
    assert!(result.is_err(), "bare invocation must fail: {report}");
}

#[test]
fn engine_ledger_balances_under_injected_failures() {
    // A budget-starved, failure-injected run through the public engine
    // API: the per-epoch conservation law must hold on every epoch even
    // while polls are retried, abandoned, and shed.
    let prior = Problem::builder()
        .change_rates(vec![3.0, 2.0, 1.5, 1.0, 0.5])
        .access_weights(vec![5.0, 4.0, 3.0, 2.0, 1.0])
        .bandwidth(5.0)
        .build()
        .unwrap();
    let config = EngineConfig {
        epochs: 12,
        warmup_epochs: 2,
        failure_rate: 0.35,
        max_retries: 1,
        budget_factor: 0.6,
        seed: 23,
        audit: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&prior, config).unwrap();
    let accesses = freshen::engine::LiveAccessStream::new(prior.access_probs(), 80.0, 31, 12.0);
    let mut source = LivePollSource::new(prior.change_rates(), 37, 24.0).unwrap();
    let report = engine.run(accesses, &mut source).unwrap();

    let ledger = engine.ledger().expect("audit flag arms the ledger");
    assert_eq!(ledger.epochs().len(), report.epochs.len());
    assert!(
        ledger.is_clean(),
        "credit leaked: {:?}",
        ledger
            .epochs()
            .iter()
            .filter(|e| e.violated)
            .collect::<Vec<_>>()
    );
    assert!(ledger.max_residual() < 1e-9);
    let abandoned: u64 = ledger.epochs().iter().map(|e| e.abandoned).sum();
    assert!(
        abandoned > 0,
        "the starved run must exercise the abandonment path the ledger guards"
    );
}
