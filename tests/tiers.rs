//! Multi-tier relay freshening, end to end: the topology model, the
//! composed-freshness analytics, the tiered budget-split solver, and the
//! Monte-Carlo cross-check.
//!
//! The two acceptance gates of the tiered subsystem live here:
//!
//! * a **single-tier** topology must reproduce the flat
//!   [`LagrangeSolver`] *byte for byte* — tiering degenerates exactly,
//!   not approximately;
//! * a **two-tier chain**'s reported edge PF must match the
//!   independently-written cache-chain product formula (Bastopcu &
//!   Ulukus-style composed freshness) within 1e-6.

use freshen::core::exec::Executor;
use freshen::heuristics::{split_budget, TierSplit};
use freshen::prelude::*;
use freshen::workload::tiers::{parallel_relay, two_tier_chain};

/// The paper-style element universe used throughout this file.
fn universe(n: usize) -> Problem {
    Problem::builder()
        .change_rates((0..n).map(|i| 0.3 + (i % 7) as f64 * 0.45).collect())
        .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
        .bandwidth(0.5 * n as f64)
        .build()
        .expect("universe builds")
}

/// Single-hop steady-state freshness under `policy` — written out
/// locally so the chain test does not lean on the library's own
/// composed recursion.
fn hop(policy: SyncPolicy, lam: f64, f: f64) -> f64 {
    if f <= 0.0 {
        return if lam <= 0.0 { 1.0 } else { 0.0 };
    }
    if lam <= 0.0 {
        return 1.0;
    }
    match policy {
        SyncPolicy::FixedOrder => (f / lam) * (1.0 - (-lam / f).exp()),
        SyncPolicy::Poisson => f / (lam + f),
    }
}

#[test]
fn single_tier_topology_is_byte_identical_to_flat_solve() {
    let n = 200;
    let problem = universe(n);
    let topo = Topology::builder()
        .source("origin")
        .tier("mirror", problem.bandwidth())
        .link("origin", "mirror")
        .build(n)
        .expect("single-tier topology");
    for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
        let flat = LagrangeSolver {
            policy,
            ..Default::default()
        }
        .solve(&problem)
        .expect("flat solve");
        let tiered = TieredSolver {
            base: LagrangeSolver {
                policy,
                ..Default::default()
            },
            ..Default::default()
        }
        .solve(&topo, &problem)
        .expect("tiered solve");
        for i in 0..n {
            assert_eq!(
                tiered.schedule.link_freqs[0][i].to_bits(),
                flat.frequencies[i].to_bits(),
                "{policy:?}: frequency {i} must be bitwise identical"
            );
        }
        assert_eq!(
            tiered.edge_pf.to_bits(),
            problem
                .perceived_freshness_with(policy, &flat.frequencies, &Executor::serial())
                .to_bits(),
            "{policy:?}: edge PF is the flat PF"
        );
    }
}

#[test]
fn two_tier_chain_edge_pf_matches_the_analytic_product_within_1e6() {
    let n = 48;
    let problem = universe(n);
    let topo = Topology::builder()
        .source("origin")
        .tier("relay", 14.0)
        .tier("edge", 9.0)
        .link("origin", "relay")
        .link("relay", "edge")
        .build(n)
        .expect("chain topology");
    for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
        let solver = TieredSolver {
            base: LagrangeSolver {
                policy,
                ..Default::default()
            },
            ..Default::default()
        };
        let solution = solver.solve(&topo, &problem).expect("chain solve");
        // Independent recomputation: for Poisson source changes the
        // edge copy is fresh iff the exponential age exceeds the sum of
        // the per-hop waits, so composed freshness is the product of
        // the single-hop laws (the cache-chain result).
        let p = problem.access_probs();
        let lam = problem.change_rates();
        let mut expected = 0.0;
        for i in 0..n {
            let through_relay = hop(policy, lam[i], solution.schedule.link_freqs[0][i]);
            let through_edge = hop(policy, lam[i], solution.schedule.link_freqs[1][i]);
            expected += p[i] * through_relay * through_edge;
        }
        assert!(
            (solution.edge_pf - expected).abs() < 1e-6,
            "{policy:?}: reported {} vs analytic product {expected}",
            solution.edge_pf
        );
        // And every tier of the solution carries a strict certificate.
        let reports = solver
            .certify(&topo, &problem, &solution)
            .expect("certification runs");
        assert_eq!(reports.len(), 2);
        for (tier, report) in reports.iter().enumerate() {
            assert!(
                report.is_clean(),
                "{policy:?}: tier {tier} violations: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn generated_scenarios_solve_split_and_certify() {
    for scenario in [
        two_tier_chain(40, 3).expect("chain scenario"),
        parallel_relay(36, 3, 5).expect("parallel scenario"),
    ] {
        let solver = TieredSolver::default();
        let solution = solver
            .solve_split(&scenario.topology, &scenario.problem, scenario.total_budget)
            .expect("split solve");
        // The split must cover the whole budget without overdrawing any
        // tier, and beat (or match) every division heuristic.
        let spent: f64 = solution.node_spend.iter().sum();
        assert!(
            (spent - scenario.total_budget).abs() < 1e-6 * scenario.total_budget,
            "{}: spent {spent} of {}",
            scenario.name,
            scenario.total_budget
        );
        for (node, (&spend, &budget)) in solution
            .node_spend
            .iter()
            .zip(&solution.budgets)
            .enumerate()
        {
            assert!(
                spend <= budget + 1e-6 * budget.max(1.0),
                "{}: node {node} overdraws ({spend} > {budget})",
                scenario.name
            );
        }
        for rule in TierSplit::ALL {
            let budgets = split_budget(
                &scenario.topology,
                &scenario.problem,
                rule,
                scenario.total_budget,
            )
            .expect("heuristic split");
            let topo = scenario.topology.with_budgets(&budgets).expect("budgets");
            let fixed = TieredSolver::default()
                .solve(&topo, &scenario.problem)
                .expect("heuristic-budget solve");
            assert!(
                solution.edge_pf >= fixed.edge_pf - 1e-9,
                "{}: solver split {} loses to {} ({})",
                scenario.name,
                solution.edge_pf,
                rule.name(),
                fixed.edge_pf
            );
        }
        let reports = solver
            .certify(&scenario.topology, &scenario.problem, &solution)
            .expect("certification runs");
        assert!(
            reports.iter().all(|r| r.is_clean()),
            "{}: uncertified tier",
            scenario.name
        );
    }
}

#[test]
fn monte_carlo_measurement_agrees_with_the_solved_chain() {
    let scenario = two_tier_chain(24, 11).expect("chain scenario");
    let solver = TieredSolver::default();
    let solution = solver
        .solve(&scenario.topology, &scenario.problem)
        .expect("chain solve");
    let report = simulate_tiered(
        &scenario.topology,
        &scenario.problem,
        &solution.schedule,
        solver.base.policy,
        &TieredSimConfig {
            horizon: 800.0,
            warmup: 30.0,
            seed: 17,
            replications: 8,
        },
    )
    .expect("simulation runs");
    assert!(
        (report.analytic_edge_pf - solution.edge_pf).abs() < 1e-12,
        "simulator's analytic view must equal the solver's"
    );
    assert!(
        report.edge_gap() < 0.03,
        "measured {} vs analytic {}",
        report.measured_edge_pf,
        report.analytic_edge_pf
    );
}
