//! Property tests of the core invariants, spanning the freshness model,
//! the exact solver, the heuristics, the projection, and the runtime.
//!
//! Each property runs through [`check`] on inputs drawn from a seeded
//! [`SplitMix64`]; a failing case names its seed. Inputs that once failed
//! (shrunk regressions) and the deterministic problem family run as
//! explicit cases beside the generated ones.

use freshen::core::exec::{Executor, DEFAULT_CHUNK};
use freshen::core::freshness::{freshness_gradient, perceived_freshness, steady_state_freshness};
use freshen::core::numeric::NeumaierSum;
use freshen::core::rng::SplitMix64;
use freshen::core::schedule::{element_phase, FixedOrderSchedule, ScheduleStream};
use freshen::engine::audit::LedgerAudit;
use freshen::engine::EngineConfig;
use freshen::engine::{PollDispatcher, PollSource};
use freshen::heuristics::partition::{PartitionCriterion, Partitioning};
use freshen::heuristics::{AllocationPolicy, HeuristicConfig, HeuristicScheduler};
use freshen::prelude::*;
use freshen::serve::{ExitReason, ServeWorkload, Server, Snapshot};
use freshen::solver::projected_gradient::project_weighted_simplex;

/// Base seed of every property's case stream.
const SEED: u64 = 0x5EED;

/// Run `property` on `cases` inputs, case `c` drawing from
/// `SplitMix64::new(seed + c)`. A failure re-panics naming the case seed,
/// so `check(1, <that seed>, …)` replays exactly the failing case.
fn check(cases: u64, seed: u64, property: impl Fn(&mut SplitMix64)) {
    for case in 0..cases {
        let case_seed = seed.wrapping_add(case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut SplitMix64::new(case_seed))
        }));
        if let Err(panic) = outcome {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!("property failed on case seed {case_seed}: {msg}");
        }
    }
}

/// A plausible problem with 2..=24 elements and, when `with_sizes`,
/// sizes in [0.1, 8).
fn gen_problem(rng: &mut SplitMix64, with_sizes: bool) -> Problem {
    let n = 2 + rng.below(23);
    let rates: Vec<f64> = (0..n).map(|_| rng.range(0.05, 20.0)).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.range(0.01, 10.0)).collect();
    let sizes = if with_sizes {
        (0..n).map(|_| rng.range(0.1, 8.0)).collect()
    } else {
        vec![1.0; n]
    };
    Problem::builder()
        .change_rates(rates)
        .access_weights(weights)
        .sizes(sizes)
        .bandwidth(rng.range(0.5, 50.0))
        .build()
        .expect("generated problem is valid")
}

/// Build a serve configuration writing its checkpoint under `dir`.
fn serve_config_for(
    dir: &std::path::Path,
    tag: &str,
    epochs: usize,
    seed: u64,
) -> freshen::serve::ServeConfig {
    freshen::serve::ServeConfig {
        engine: EngineConfig {
            epochs,
            warmup_epochs: 1,
            failure_rate: 0.1,
            seed,
            ..EngineConfig::default()
        },
        checkpoint_path: dir.join(format!("{tag}.snapshot")),
        ..freshen::serve::ServeConfig::default()
    }
}

// ---- freshness function ------------------------------------------------

#[test]
fn freshness_in_unit_interval() {
    check(64, SEED, |rng| {
        let (lam, f) = (rng.range(0.0, 100.0), rng.range(0.0, 100.0));
        let fr = steady_state_freshness(lam, f);
        assert!((0.0..=1.0).contains(&fr));
    });
}

#[test]
fn freshness_monotone_in_f() {
    check(64, SEED, |rng| {
        let (lam, f, df) = (
            rng.range(0.01, 50.0),
            rng.range(0.01, 50.0),
            rng.range(0.01, 10.0),
        );
        assert!(steady_state_freshness(lam, f + df) > steady_state_freshness(lam, f));
    });
}

#[test]
fn gradient_positive_and_decreasing() {
    check(64, SEED, |rng| {
        let (lam, f, df) = (
            rng.range(0.01, 50.0),
            rng.range(0.01, 50.0),
            rng.range(0.01, 10.0),
        );
        let g1 = freshness_gradient(lam, f);
        let g2 = freshness_gradient(lam, f + df);
        assert!(g1 > 0.0);
        assert!(g2 < g1);
    });
}

#[test]
fn concavity_midpoint() {
    check(64, SEED, |rng| {
        let (lam, a, b) = (
            rng.range(0.01, 20.0),
            rng.range(0.01, 20.0),
            rng.range(0.01, 20.0),
        );
        // F((a+b)/2) ≥ (F(a)+F(b))/2 for concave F.
        let mid = steady_state_freshness(lam, 0.5 * (a + b));
        let avg = 0.5 * (steady_state_freshness(lam, a) + steady_state_freshness(lam, b));
        assert!(mid >= avg - 1e-12);
    });
}

// ---- exact solver ------------------------------------------------------

#[test]
fn solver_feasible_and_budget_tight() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!(sol.frequencies.iter().all(|&f| f >= 0.0 && f.is_finite()));
        assert!((sol.bandwidth_used - problem.bandwidth()).abs() < problem.bandwidth() * 1e-6);
    });
}

#[test]
fn solver_beats_uniform_allocation() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        let uniform = vec![problem.bandwidth() / problem.len() as f64; problem.len()];
        let upf = problem.perceived_freshness(&uniform);
        assert!(
            sol.perceived_freshness >= upf - 1e-9,
            "optimal {} vs uniform {}",
            sol.perceived_freshness,
            upf
        );
    });
}

#[test]
fn solver_kkt_equalized_marginals() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        let mu = sol.multiplier.unwrap();
        for i in 0..problem.len() {
            let f = sol.frequencies[i];
            if f > 1e-6 {
                let marginal =
                    problem.access_probs()[i] * freshness_gradient(problem.change_rates()[i], f);
                assert!(
                    (marginal - mu).abs() <= mu * 1e-3 + 1e-12,
                    "element {i}: marginal {marginal:e} vs mu {mu:e}"
                );
            }
        }
    });
}

#[test]
fn solver_sized_feasible() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!(problem.is_feasible(&sol.frequencies, 1e-6));
        assert!((sol.bandwidth_used - problem.bandwidth()).abs() < problem.bandwidth() * 1e-6);
    });
}

/// Scaling all access weights by a constant must not change the optimal
/// schedule (weights are normalized anyway) — exercised via the weighted
/// builder.
fn scale_invariance_case(problem: &Problem, scale: f64) {
    let sol1 = LagrangeSolver::default().solve(problem).unwrap();
    let scaled = Problem::builder()
        .change_rates(problem.change_rates().to_vec())
        .access_weights(problem.access_probs().iter().map(|p| p * scale).collect())
        .bandwidth(problem.bandwidth())
        .build()
        .unwrap();
    let sol2 = LagrangeSolver::default().solve(&scaled).unwrap();
    for (a, b) in sol1.frequencies.iter().zip(&sol2.frequencies) {
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }
}

#[test]
fn solver_scale_invariance() {
    // A shrunk failure recorded by an earlier run of this property.
    let regression = Problem::builder()
        .change_rates(vec![
            8.476644132236167,
            9.103595067588103,
            17.052167439392676,
            4.785027565523369,
            17.25535054128656,
            1.6015217581319305,
            8.076398194778212,
            3.7639727452883194,
            13.579660739222604,
            13.977539888866433,
        ])
        .access_probs(vec![
            0.04178828671009556,
            0.04396406782452231,
            0.21898577662838328,
            0.07799587569845967,
            0.15448857468649188,
            0.03405600774496937,
            0.10934649386131286,
            0.05302188722607338,
            0.1722712252664457,
            0.09408180435324585,
        ])
        .bandwidth(5.336434333529094)
        .build()
        .expect("regression problem builds");
    scale_invariance_case(&regression, 2.192824510007468);
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        scale_invariance_case(&problem, rng.range(0.5, 4.0));
    });
}

/// Generalized Table-1-row-(c) identity: pᵢ ∝ λᵢ ⇒ fᵢ = B·pᵢ.
/// The budget is tied to the total change volume so every optimal
/// frequency keeps λ/f ≤ 10: below that the marginal ∂F̄/∂f is
/// float-flat near 1/λ and the identity, while true analytically,
/// is not numerically recoverable (the objective itself is flat).
fn proportional_frequencies_case(n: usize, factor: f64, base: f64) {
    let rates: Vec<f64> = (1..=n).map(|i| base * i as f64).collect();
    let budget = factor * rates.iter().sum::<f64>();
    let problem = Problem::builder()
        .change_rates(rates.clone())
        .access_weights(rates.clone())
        .bandwidth(budget)
        .build()
        .unwrap();
    let sol = LagrangeSolver::default().solve(&problem).unwrap();
    for (f, p) in sol.frequencies.iter().zip(problem.access_probs()) {
        assert!(
            (f - budget * p).abs() < 1e-4 * budget,
            "f {} vs B·p {}",
            f,
            budget * p
        );
    }
}

#[test]
fn proportional_interest_gives_proportional_frequencies() {
    // Shrunk failures recorded when the budget was absolute; they now
    // run with the recorded budget as the change-volume factor.
    proportional_frequencies_case(11, 1.0, 3.2697461537170724);
    proportional_frequencies_case(9, 3.1416578249078735, 2.122989062904964);
    check(64, SEED, |rng| {
        let n = 2 + rng.below(10);
        proportional_frequencies_case(n, rng.range(0.1, 2.0), rng.range(0.1, 5.0));
    });
}

// ---- heuristics --------------------------------------------------------

#[test]
fn heuristic_never_beats_optimal() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let (k, iters) = (1 + rng.below(7), rng.below(4));
        let opt = LagrangeSolver::default().solve(&problem).unwrap();
        let h = HeuristicScheduler::new(HeuristicConfig {
            num_partitions: k,
            kmeans_iterations: iters,
            ..Default::default()
        })
        .unwrap()
        .solve(&problem)
        .unwrap();
        assert!(h.solution.perceived_freshness <= opt.perceived_freshness + 1e-7);
        assert!(problem.is_feasible(&h.solution.frequencies, 1e-6));
    });
}

#[test]
fn heuristic_spends_full_budget() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        let k = 1 + rng.below(7);
        for allocation in [
            AllocationPolicy::FixedFrequency,
            AllocationPolicy::FixedBandwidth,
        ] {
            let h = HeuristicScheduler::new(HeuristicConfig {
                criterion: PartitionCriterion::PerceivedFreshnessPerSize,
                num_partitions: k,
                allocation,
                ..Default::default()
            })
            .unwrap()
            .solve(&problem)
            .unwrap();
            assert!(
                (h.solution.bandwidth_used - problem.bandwidth()).abs()
                    < problem.bandwidth() * 1e-6,
                "{allocation:?}: used {} of {}",
                h.solution.bandwidth_used,
                problem.bandwidth()
            );
        }
    });
}

#[test]
fn partitioning_is_a_partition() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let k = 1 + rng.below(9);
        for criterion in PartitionCriterion::CORE {
            let part = Partitioning::by_criterion(&problem, criterion, k, 1.0).unwrap();
            assert_eq!(part.len(), problem.len());
            let counts = part.counts();
            assert_eq!(counts.iter().sum::<usize>(), problem.len());
            // Contiguous-run construction: sizes differ by at most one run.
            let max = counts.iter().max().unwrap();
            assert!(counts.iter().all(|c| *c <= *max));
        }
    });
}

// ---- projection --------------------------------------------------------

#[test]
fn projection_feasible() {
    check(64, SEED, |rng| {
        let n = 1 + rng.below(15);
        let b = rng.range(0.1, 20.0);
        let mut y: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let a: Vec<f64> = (0..n).map(|_| rng.range(0.1, 5.0)).collect();
        project_weighted_simplex(&mut y, &a, b);
        let used: f64 = y.iter().zip(&a).map(|(&x, &w)| x * w).sum();
        assert!((used - b).abs() < 1e-6 * b.max(1.0));
        assert!(y.iter().all(|&x| x >= 0.0));
    });
}

// ---- schedules ---------------------------------------------------------

#[test]
fn schedule_counts_track_frequencies() {
    check(64, SEED, |rng| {
        let freqs: Vec<f64> = (0..1 + rng.below(11))
            .map(|_| rng.range(0.0, 8.0))
            .collect();
        let horizon = rng.range(0.5, 20.0);
        let schedule = FixedOrderSchedule::build(&freqs, horizon);
        let counts = schedule.counts(freqs.len());
        for (i, (&count, &f)) in counts.iter().zip(&freqs).enumerate() {
            let expected = f * horizon;
            assert!(
                (count as f64 - expected).abs() <= 1.0 + 1e-9,
                "element {i}: {count} ops vs f·H = {expected}"
            );
        }
        // Ops sorted and inside the horizon.
        for w in schedule.ops().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(schedule
            .ops()
            .iter()
            .all(|o| o.time >= 0.0 && o.time < horizon));
    });
}

#[test]
fn schedule_stream_equals_materialized() {
    check(64, SEED, |rng| {
        let freqs: Vec<f64> = (0..1 + rng.below(9)).map(|_| rng.range(0.0, 5.0)).collect();
        let horizon = rng.range(0.5, 10.0);
        // Expanded here, independently of the stream: element i fires at
        // (k + φᵢ)/fᵢ below the horizon, sorted by time, then element.
        let mut materialized: Vec<(f64, usize)> = Vec::new();
        for (i, &f) in freqs.iter().enumerate() {
            if f > 0.0 {
                let times = (0..).map(|k| (k as f64 + element_phase(i)) / f);
                materialized.extend(times.take_while(|&t| t < horizon).map(|t| (t, i)));
            }
        }
        materialized.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let streamed: Vec<_> = ScheduleStream::new(&freqs, horizon).collect();
        assert_eq!(materialized.len(), streamed.len());
        for (a, b) in materialized.iter().zip(&streamed) {
            assert!((a.0 - b.time).abs() < 1e-12);
            assert_eq!(a.1, b.element);
        }
    });
}

// ---- synchronization policies ------------------------------------------

#[test]
fn fixed_order_law_dominates_poisson_law() {
    check(64, SEED, |rng| {
        let (lam, f) = (rng.range(0.01, 50.0), rng.range(0.01, 50.0));
        assert!(SyncPolicy::FixedOrder.freshness(lam, f) > SyncPolicy::Poisson.freshness(lam, f));
    });
}

#[test]
fn poisson_solver_feasible_and_kkt() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let solver = LagrangeSolver {
            policy: SyncPolicy::Poisson,
            ..Default::default()
        };
        let sol = solver.solve(&problem).unwrap();
        assert!(problem.is_feasible(&sol.frequencies, 1e-6));
        let mu = sol.multiplier.unwrap();
        for i in 0..problem.len() {
            let f = sol.frequencies[i];
            if f > 1e-6 {
                let marginal = problem.access_probs()[i]
                    * SyncPolicy::Poisson.gradient(problem.change_rates()[i], f);
                assert!((marginal - mu).abs() <= mu * 1e-3 + 1e-12);
            }
        }
    });
}

#[test]
fn fixed_optimum_dominates_poisson_optimum_property() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let fixed = LagrangeSolver::default().solve(&problem).unwrap();
        let poisson = LagrangeSolver {
            policy: SyncPolicy::Poisson,
            ..Default::default()
        }
        .solve(&problem)
        .unwrap();
        // Each optimum is scored under its own law; the fixed-order law is
        // pointwise larger, so its optimum must be at least as good.
        assert!(fixed.perceived_freshness >= poisson.perceived_freshness - 1e-9);
    });
}

// ---- robustness under extreme magnitudes -------------------------------

#[test]
fn solver_survives_wild_magnitudes() {
    check(64, SEED, |rng| {
        // Rates spanning 11 orders of magnitude, budgets spanning 8: the
        // solver must stay finite, feasible, and budget-tight.
        let n = 2 + rng.below(8);
        let rates: Vec<f64> = (0..n)
            .map(|_| 10f64.powi(rng.below(11) as i32 - 5))
            .collect();
        let weights: Vec<f64> = (0..n)
            .map(|_| 10f64.powi(rng.below(8) as i32 - 4))
            .collect();
        let budget = 10f64.powi(rng.below(8) as i32 - 3);
        let problem = Problem::builder()
            .change_rates(rates)
            .access_weights(weights)
            .bandwidth(budget)
            .build()
            .unwrap();
        let sol = LagrangeSolver::default().solve(&problem).unwrap();
        assert!(sol.frequencies.iter().all(|f| f.is_finite() && *f >= 0.0));
        assert!((sol.bandwidth_used - budget).abs() < budget * 1e-6);
        assert!((0.0..=1.0 + 1e-9).contains(&sol.perceived_freshness));
    });
}

// ---- verification layer ------------------------------------------------

#[test]
fn exact_solutions_pass_the_kkt_audit() {
    // The solver's own stopping tolerance bounds how tightly random
    // problems equalize marginals, so the property uses a 1e-3 spread
    // (matching `solver_kkt_equalized_marginals`); the strict 1e-6
    // profile is pinned on deterministic problems below.
    let audit = SolutionAudit {
        spread_tol: 1e-3,
        slack_tol: 1e-3,
        budget_tol: 1e-6,
        ..Default::default()
    };
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let solver = LagrangeSolver {
                policy,
                ..Default::default()
            };
            let sol = solver.solve(&problem).unwrap();
            let report = audit.check(&problem, &sol, policy).unwrap();
            assert!(report.is_clean(), "{policy:?}: {}", report.to_json());
        }
    });
}

/// The credit-conservation law must hold for *any* dispatcher setting:
/// saturated or idle, flaky or reliable, big or small backlog cap.
/// Element `i` gets priority `n − i`, and the budget is `n`.
fn ledger_balances_case(config: &EngineConfig, freqs: &[f64], epochs: usize) {
    let n = freqs.len();
    let priorities: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
    let mut dispatcher = PollDispatcher::new(n, n as f64, config).unwrap();
    let mut ledger = LedgerAudit::new();
    let mut source = EverChanging;
    for epoch in 0..epochs {
        let credit_in = dispatcher.total_credit();
        let outcome = dispatcher
            .run_epoch(
                epoch,
                epoch as f64,
                1.0,
                freqs,
                &priorities,
                &mut source,
                &Recorder::disabled(),
            )
            .unwrap();
        let record = ledger.record(
            epoch,
            credit_in,
            freqs,
            1.0,
            &outcome,
            dispatcher.total_credit(),
            dispatcher.min_credit(),
        );
        assert!(!record.violated, "epoch {epoch}: {record:?}");
    }
    assert!(ledger.is_clean(), "{:?}", ledger.epochs());
}

#[test]
fn dispatcher_ledger_balances() {
    // Fixed settings first, covering the saturated-with-failures corner
    // that historically leaked credit.
    for (failure_rate, budget_factor, max_retries) in
        [(0.0, 1.0, 2u32), (0.5, 0.5, 0), (0.35, 0.7, 3)]
    {
        let config = EngineConfig {
            failure_rate,
            budget_factor,
            max_retries,
            max_backlog: 2.0,
            seed: 11,
            ..EngineConfig::default()
        };
        ledger_balances_case(&config, &[2.5, 1.5, 1.0], 8);
    }
    check(64, SEED, |rng| {
        let n = 1 + rng.below(7);
        let config = EngineConfig {
            failure_rate: rng.range(0.0, 0.9),
            budget_factor: rng.range(0.2, 1.5),
            max_backlog: rng.range(1.0, 6.0),
            max_retries: rng.below(4) as u32,
            seed: rng.below(1000) as u64,
            ..EngineConfig::default()
        };
        let freq_scale = rng.range(0.1, 4.0);
        let freqs: Vec<f64> = (0..n)
            .map(|i| freq_scale * (1.0 + i as f64 * 0.5))
            .collect();
        ledger_balances_case(&config, &freqs, 6);
    });
}

// ---- perceived freshness metric ----------------------------------------

#[test]
fn pf_bounded_by_weights() {
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let fscale = rng.range(0.0, 10.0);
        let freqs: Vec<f64> = problem.change_rates().iter().map(|&l| l * fscale).collect();
        let pf = perceived_freshness(problem.access_probs(), problem.change_rates(), &freqs);
        assert!((0.0..=1.0 + 1e-12).contains(&pf));
    });
}

/// The flat loop PF was summed with before every score went through
/// `sum_terms`: one compensated sum in element order, zero weights
/// skipped. Up to one chunk, the chunked reduction must be exactly it.
fn flat_pf_oracle(policy: SyncPolicy, weights: &[f64], lambdas: &[f64], freqs: &[f64]) -> f64 {
    let mut acc = NeumaierSum::new();
    for ((&w, &l), &f) in weights.iter().zip(lambdas).zip(freqs) {
        if w != 0.0 {
            acc.add(w * policy.freshness(l, f));
        }
    }
    acc.total()
}

/// An `n`-element problem whose elements are, at random, unread and
/// starved, unread, static (`λ = 0`) and starved, or read and refreshed
/// (element 0 always the last, so some weight is positive), with its
/// frequencies.
fn gen_scored(rng: &mut SplitMix64, n: usize) -> (Problem, Vec<f64>) {
    let (mut weights, mut rates, mut freqs) = (vec![], vec![], vec![]);
    for i in 0..n {
        let kind = if i == 0 { 3 } else { rng.below(8) };
        let (unread, fixed) = (kind <= 1, kind == 2);
        let starved = kind == 0 || fixed;
        weights.push(if unread { 0.0 } else { rng.range(0.01, 10.0) });
        rates.push(if fixed { 0.0 } else { rng.range(0.05, 20.0) });
        freqs.push(if starved { 0.0 } else { rng.range(0.01, 30.0) });
    }
    let problem = Problem::builder()
        .change_rates(rates)
        .access_weights(weights)
        .bandwidth(n as f64 / 4.0)
        .build()
        .expect("generated problem is valid");
    (problem, freqs)
}

#[test]
fn scores_are_one_reduction_at_any_worker_count() {
    let executors = [
        Executor::serial(),
        Executor::thread_pool(2),
        Executor::thread_pool(3),
    ];
    let bits = |x: f64| x.to_bits();
    for n in [
        1,
        7,
        DEFAULT_CHUNK,
        DEFAULT_CHUNK + 1,
        3 * DEFAULT_CHUNK + 17,
    ] {
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            check(3, SEED + n as u64, |rng| {
                let (problem, f) = gen_scored(rng, n);
                let (p, lam) = (problem.access_probs(), problem.change_rates());
                let scores = |exec: &Executor| {
                    [
                        bits(policy.perceived_freshness(p, lam, &f, exec)),
                        bits(policy.mean_freshness(lam, &f, exec)),
                        bits(policy.perceived_age(p, lam, &f, exec)),
                    ]
                };
                let serial = scores(&executors[0]);
                assert!(
                    f64::from_bits(serial[2]).is_finite(),
                    "n={n}: starved reads"
                );
                for exec in &executors {
                    assert_eq!(scores(exec), serial, "n={n} {policy:?} {exec:?}");
                    let solution = Solution::evaluate_with(&problem, f.clone(), policy, exec);
                    let pf = problem.perceived_freshness_with(policy, &f, exec);
                    assert_eq!(bits(solution.perceived_freshness), bits(pf));
                    assert_eq!(bits(solution.general_freshness), serial[1]);
                }
                if policy == SyncPolicy::FixedOrder {
                    assert_eq!(bits(problem.perceived_freshness(&f)), serial[0]);
                    assert_eq!(bits(problem.general_freshness(&f)), serial[1]);
                }
                if n <= DEFAULT_CHUNK {
                    assert_eq!(bits(flat_pf_oracle(policy, p, lam, &f)), serial[0]);
                }
            });
        }
    }
    // The plan-1m rescoring gate in miniature: a pooled solve records the
    // PF and GF that a serial rescore of its schedule reads.
    let (problem, _) = gen_scored(&mut SplitMix64::new(SEED), 3 * DEFAULT_CHUNK + 17);
    let solution = LagrangeSolver::default()
        .with_executor(Executor::thread_pool(2))
        .solve(&problem)
        .unwrap();
    let f = &solution.frequencies;
    assert_eq!(
        bits(solution.perceived_freshness),
        bits(problem.perceived_freshness(f))
    );
    assert_eq!(
        bits(solution.general_freshness),
        bits(problem.general_freshness(f))
    );
}

// ---- parallel execution layer ------------------------------------------

/// Chunk boundaries depend only on problem size, so a pool solve must
/// reproduce the serial schedule exactly — not just within tolerance.
fn pool_solver_case(problem: &Problem, workers: usize) {
    let serial = LagrangeSolver::default().solve(problem).unwrap();
    let pooled = LagrangeSolver::default()
        .with_executor(Executor::thread_pool(workers))
        .solve(problem)
        .unwrap();
    assert_eq!(
        serial.frequencies,
        pooled.frequencies,
        "n={} workers={workers}: pool schedule must be identical",
        problem.len()
    );
    assert!(
        (serial.perceived_freshness - pooled.perceived_freshness).abs() < 1e-9,
        "serial {} vs {workers}-worker {}",
        serial.perceived_freshness,
        pooled.perceived_freshness
    );
}

/// Incremental repair on a pool must reproduce the serial repair exactly.
fn pool_repair_case(problem: &Problem, workers: usize) {
    let previous = LagrangeSolver::default().solve(problem).unwrap();
    let (after, touched) = tilt_rates(problem, 97, 1.6);
    let serial = LagrangeSolver::default()
        .repair(&after, &previous, &touched)
        .unwrap();
    let pooled = LagrangeSolver::default()
        .with_executor(Executor::thread_pool(workers))
        .repair(&after, &previous, &touched)
        .unwrap();
    assert_eq!(
        serial.solution.frequencies,
        pooled.solution.frequencies,
        "n={} workers={workers}: pool repair must be identical",
        problem.len()
    );
    assert_eq!(serial.solution.multiplier, pooled.solution.multiplier);
    assert_eq!(serial.probes, pooled.probes);
}

#[test]
fn pool_solver_matches_serial() {
    for n in [3usize, 17, 120, 999] {
        for workers in [2usize, 4] {
            pool_solver_case(&fixed_problem(n), workers);
        }
    }
    // More elements than one chunk (`DEFAULT_CHUNK`), so passes split.
    let large = fixed_problem(20_000);
    for workers in [1usize, 2, 4] {
        pool_repair_case(&large, workers);
    }
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        pool_solver_case(&problem, [2usize, 4][rng.below(2)]);
    });
}

fn pool_heuristic_case(problem: &Problem, config: HeuristicConfig, workers: usize) {
    let serial = HeuristicScheduler::new(config.clone())
        .unwrap()
        .solve(problem)
        .unwrap();
    let pooled = HeuristicScheduler::new(config)
        .unwrap()
        .with_executor(Executor::thread_pool(workers))
        .solve(problem)
        .unwrap();
    assert_eq!(
        serial.solution.frequencies,
        pooled.solution.frequencies,
        "n={} workers={workers}: heuristic schedule must be identical",
        problem.len()
    );
    assert!(
        (serial.solution.perceived_freshness - pooled.solution.perceived_freshness).abs() < 1e-9
    );
}

#[test]
fn pool_heuristic_matches_serial() {
    for (n, k) in [(24usize, 3usize), (120, 6), (999, 8)] {
        for workers in [2usize, 4] {
            let config = HeuristicConfig {
                num_partitions: k,
                ..Default::default()
            };
            pool_heuristic_case(&fixed_problem(n), config, workers);
        }
    }
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        let config = HeuristicConfig {
            num_partitions: 1 + rng.below(7),
            kmeans_iterations: rng.below(4),
            ..Default::default()
        };
        pool_heuristic_case(&problem, config, [2usize, 4][rng.below(2)]);
    });
}

/// Two runs at the same worker count must agree bit-for-bit.
fn pool_determinism_case(problem: &Problem, workers: usize) {
    let solve = || {
        LagrangeSolver::default()
            .with_executor(Executor::thread_pool(workers))
            .solve(problem)
            .unwrap()
    };
    let a = solve();
    let b = solve();
    assert_eq!(a.frequencies, b.frequencies, "workers={workers}");
    assert_eq!(
        a.perceived_freshness.to_bits(),
        b.perceived_freshness.to_bits()
    );
    assert_eq!(a.bandwidth_used.to_bits(), b.bandwidth_used.to_bits());
}

#[test]
fn pool_runs_are_deterministic() {
    for workers in [2usize, 3, 4] {
        pool_determinism_case(&fixed_problem(500), workers);
    }
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, true);
        pool_determinism_case(&problem, 2 + rng.below(3));
    });
}

// ---- incremental KKT repair ----------------------------------------------

#[test]
fn repair_matches_full_resolve_property() {
    check(64, SEED, |rng| {
        // Drift a strided subset of the change rates, then repair the old
        // optimum: the patched schedule must match a from-scratch re-solve
        // of the drifted problem to 1e-9 in PF and clear the strict
        // certificate.
        let problem = gen_problem(rng, true);
        let (stride, tilt) = (1 + rng.below(5), rng.range(1.05, 3.0));
        let solver = LagrangeSolver::default();
        let before = solver.solve(&problem).unwrap();
        let (after, touched) = tilt_rates(&problem, stride, tilt);
        let repaired = solver.repair(&after, &before, &touched).unwrap().solution;
        let full = solver.solve(&after).unwrap();
        assert!(
            (repaired.perceived_freshness - full.perceived_freshness).abs() < 1e-9,
            "repair {} vs full {}",
            repaired.perceived_freshness,
            full.perceived_freshness
        );
        let report = SolutionAudit::default()
            .check(&after, &repaired, solver.policy)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());
    });
}

// ---- serve: checkpoint/restore -----------------------------------------

/// Drain a served run after `split` epochs, resume it from the
/// checkpoint, and require the resumed report to match an uninterrupted
/// run byte for byte; the snapshot codec must be an exact identity on
/// the way.
fn checkpoint_restore_case(problem: Problem, split: usize, seed: u64, tag: &str) {
    let dir = std::env::temp_dir().join("freshen-properties-serve");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let workload = ServeWorkload::Live {
        problem,
        access_rate: 90.0,
    };
    let config = serve_config_for(&dir, tag, split + 3, seed);
    let reference = Server::new(workload.clone(), config.clone())
        .expect("server builds")
        .run()
        .expect("uninterrupted run")
        .report
        .expect("completed")
        .to_json();

    let mut drain = config.clone();
    drain.drain_after = Some(split);
    Server::new(workload.clone(), drain)
        .expect("server builds")
        .run()
        .expect("drained leg");

    let bytes = std::fs::read(&config.checkpoint_path).expect("snapshot bytes");
    let snapshot = Snapshot::decode(&bytes).expect("valid snapshot");
    assert_eq!(
        snapshot.encode(),
        bytes,
        "{tag}: codec must be an exact identity"
    );

    let mut resume = config.clone();
    resume.resume = Some(config.checkpoint_path.clone());
    let resumed = Server::new(workload, resume)
        .expect("server builds")
        .run()
        .expect("resumed leg");
    assert_eq!(resumed.exit, ExitReason::Completed);
    assert_eq!(
        resumed.report.expect("completed").to_json(),
        reference,
        "{tag}: resumed report diverged"
    );
}

#[test]
fn checkpoint_restore_resumes_byte_identically() {
    for (n, split, seed) in [(3usize, 1usize, 5u64), (9, 2, 77), (20, 4, 4242)] {
        checkpoint_restore_case(fixed_problem(n), split, seed, &format!("fixed-{n}-{split}"));
    }
    check(64, SEED, |rng| {
        let problem = gen_problem(rng, false);
        let (split, seed) = (1 + rng.below(4), rng.below(1 << 16) as u64);
        checkpoint_restore_case(problem, split, seed, &format!("case-{seed}-{split}"));
    });
}

// ---- deterministic problem family and helpers ----------------------------

/// Poll source whose objects always changed — the worst case for credit
/// accounting (every successful poll does estimator-visible work).
struct EverChanging;

impl PollSource for EverChanging {
    fn poll(&mut self, _element: usize, _time: f64) -> bool {
        true
    }
}

/// Deterministic problem family: striped rates, harmonic weights, mixed
/// sizes — same construction idea as the scaling benchmark.
fn fixed_problem(n: usize) -> Problem {
    let rates: Vec<f64> = (0..n).map(|i| 0.1 + (i % 13) as f64 * 0.4).collect();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let sizes: Vec<f64> = (0..n).map(|i| 0.25 + (i % 5) as f64 * 0.5).collect();
    Problem::builder()
        .change_rates(rates)
        .access_weights(weights)
        .sizes(sizes)
        .bandwidth(n as f64 / 3.0)
        .build()
        .expect("fixed problem builds")
}

/// Tilt every `stride`-th change rate by `factor`, returning the drifted
/// problem and the touched index set.
fn tilt_rates(problem: &Problem, stride: usize, factor: f64) -> (Problem, Vec<usize>) {
    let mut rates = problem.change_rates().to_vec();
    let mut touched = Vec::new();
    for (i, r) in rates.iter_mut().enumerate() {
        if i % stride == 0 {
            *r *= factor;
            touched.push(i);
        }
    }
    let after = Problem::builder()
        .change_rates(rates)
        .access_probs(problem.access_probs().to_vec())
        .sizes(problem.sizes().to_vec())
        .bandwidth(problem.bandwidth())
        .build()
        .expect("tilted problem builds");
    (after, touched)
}

#[test]
fn repair_matches_full_resolve_across_subset_sizes() {
    // Fixed-seed pin of `repair_matches_full_resolve_property`: drift
    // subsets of one element, ~1%, ~10%, and 100% of N, and require the
    // repaired schedule to match the full re-solve within 1e-9 PF *and*
    // pass the strict KKT certificate after every repair.
    let n = 400;
    let problem = fixed_problem(n);
    let solver = LagrangeSolver::default();
    let before = solver.solve(&problem).unwrap();
    for (stride, label) in [(n, "single"), (97, "1%"), (11, "10%"), (1, "100%")] {
        let (after, touched) = tilt_rates(&problem, stride, 1.6);
        let repaired = solver
            .repair(&after, &before, &touched)
            .unwrap_or_else(|e| panic!("{label}: repair failed: {e}"))
            .solution;
        let full = solver.solve(&after).unwrap();
        assert!(
            (repaired.perceived_freshness - full.perceived_freshness).abs() < 1e-9,
            "{label} ({} touched): repair PF {} vs full {}",
            touched.len(),
            repaired.perceived_freshness,
            full.perceived_freshness
        );
        let report = SolutionAudit::default()
            .check(&after, &repaired, solver.policy)
            .unwrap();
        assert!(
            report.is_clean(),
            "{label}: certificate failed: {}",
            report.to_json()
        );
    }
}

#[test]
fn dispatcher_queue_reuse_has_no_steady_state_churn() {
    // The dispatcher's scratch buffers (the plan keys, the admitted list
    // and the retry heap) are cleared and reused, never rebuilt, so after
    // the first epoch sizes them, fifty steady-state epochs must not move
    // the allocation counter — neither the dispatcher's own
    // `queue_grows()` tally nor the `engine.queue_grows` obs counter.
    let config = EngineConfig {
        failure_rate: 0.2,
        max_retries: 2,
        seed: 17,
        ..EngineConfig::default()
    };
    let freqs = [2.5, 1.5, 1.0, 0.5];
    let priorities = [4.0, 3.0, 2.0, 1.0];
    let recorder = Recorder::enabled();
    let mut dispatcher = PollDispatcher::new(4, 4.0, &config).unwrap();
    let mut source = EverChanging;
    let mut run = |dispatcher: &mut PollDispatcher, epoch: usize| {
        dispatcher
            .run_epoch(
                epoch,
                epoch as f64,
                1.0,
                &freqs,
                &priorities,
                &mut source,
                &recorder,
            )
            .unwrap();
    };
    run(&mut dispatcher, 0);
    let grows_after_first = dispatcher.queue_grows();
    let counter_after_first = recorder.counter_value("engine.queue_grows").unwrap_or(0);
    assert!(grows_after_first > 0, "first epoch sizes the queue");
    for epoch in 1..=50 {
        run(&mut dispatcher, epoch);
    }
    assert_eq!(
        dispatcher.queue_grows(),
        grows_after_first,
        "steady-state epochs must not reallocate queue storage"
    );
    assert_eq!(
        recorder.counter_value("engine.queue_grows").unwrap_or(0),
        counter_after_first,
        "obs allocation counter must stay flat after warm-up"
    );
}

#[test]
fn audit_certifies_fixed_problems_strictly() {
    // On the deterministic family the exact solver must clear the strict
    // certificate (spread ≤ 1e-6, budget residual ≤ 1e-8·B), under both
    // synchronization laws.
    for n in [3usize, 17, 120] {
        let problem = fixed_problem(n);
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let solver = LagrangeSolver {
                policy,
                ..Default::default()
            };
            let sol = solver.solve(&problem).unwrap();
            let report = SolutionAudit::default()
                .check(&problem, &sol, policy)
                .unwrap();
            assert!(report.is_clean(), "n={n} {policy:?}: {}", report.to_json());
        }
    }
}

// ---- cost-aware objective + convergent estimators ------------------------

/// The fixed problem family with a heterogeneous per-poll cost column.
fn costed_fixed_problem(n: usize) -> Problem {
    let base = fixed_problem(n);
    Problem::builder()
        .change_rates(base.change_rates().to_vec())
        .access_probs(base.access_probs().to_vec())
        .sizes(base.sizes().to_vec())
        .costs((0..n).map(|i| 0.5 + (i % 7) as f64 * 0.3).collect())
        .bandwidth(base.bandwidth())
        .build()
        .expect("costed problem builds")
}

fn cost_spend(problem: &Problem, frequencies: &[f64]) -> f64 {
    let costs = problem.poll_costs().expect("cost column present");
    frequencies.iter().zip(costs).map(|(&f, &c)| f * c).sum()
}

#[test]
fn zero_levy_solve_is_byte_identical_to_plain() {
    // A zero cost weight must not merely approximate the cost-blind
    // solver — it must reproduce it bit for bit, so enabling the cost
    // path can never perturb existing schedules.
    for n in [3, 40, 400] {
        let plain_problem = fixed_problem(n);
        let costed_problem = costed_fixed_problem(n);
        let plain = LagrangeSolver::default().solve(&plain_problem).unwrap();
        let levied = LagrangeSolver::default()
            .with_cost_weight(0.0)
            .solve(&costed_problem)
            .unwrap();
        for (i, (a, b)) in plain
            .frequencies
            .iter()
            .zip(&levied.frequencies)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "n={n}, element {i}: {a} != {b}");
        }
        assert_eq!(plain.multiplier, levied.multiplier, "n={n}");
        assert_eq!(levied.cost_multiplier, None, "n={n}");
    }
}

#[test]
fn cost_budget_solve_never_overdraws_and_certifies() {
    // Across caps from deep to mild, the levy search must return a
    // schedule spending at most the cap — and, at a positive levy, all of
    // it — and the returned levy must certify under the strict
    // cost-adjusted KKT conditions.
    let n = 200;
    let problem = costed_fixed_problem(n);
    let solver = LagrangeSolver::default();
    let unconstrained = solver.solve(&problem).unwrap();
    let spend0 = cost_spend(&problem, &unconstrained.frequencies);
    assert!(spend0 > 0.0, "unconstrained schedule must poll");
    for frac in [0.1, 0.3, 0.5, 0.8, 0.95] {
        let cap = frac * spend0;
        let sol = solver.solve_cost_budget(&problem, cap).unwrap();
        let used = cost_spend(&problem, &sol.frequencies);
        assert!(
            used <= cap * (1.0 + 1e-9),
            "frac={frac}: spend {used} exceeds cap {cap}"
        );
        let gamma = sol.cost_multiplier.unwrap_or(0.0);
        assert!(
            gamma == 0.0 || used >= cap * (1.0 - 1e-9),
            "frac={frac}: spend {used} leaves cap {cap} unspent at levy {gamma}"
        );
        let report = SolutionAudit::default()
            .check_with_cost(&problem, &sol, solver.policy, gamma)
            .unwrap();
        assert!(
            report.is_clean(),
            "frac={frac}: certificate failed: {}",
            report.to_json()
        );
    }
}

#[test]
fn lln_and_sa_converge_where_ewma_plateaus() {
    // On a stationary fixed-seed stream the convergent estimators' error
    // keeps shrinking while constant-gain EWMA sits on its variance
    // floor: after a long run, per-element LLN and SA estimates must be
    // within 10% of truth and both must beat EWMA's aggregate error.
    use freshen::core::estimate::{EwmaRateEstimator, LlnRateEstimator};

    let n = 8;
    let interval = 0.4;
    let polls = 6000;
    let rates: Vec<f64> = (0..n)
        .map(|i| 0.3 * 1.414f64.powi((i % 5) as i32))
        .collect();
    let mut ewma = EwmaRateEstimator::new(n, 0.1, 1.0).unwrap();
    let mut lln = LlnRateEstimator::new(n).unwrap();
    let mut sa = EwmaRateEstimator::decreasing(n, 0.5, 0.6, 1.0).unwrap();
    let mut rng = SplitMix64::new(11);
    for _ in 0..polls {
        for (i, &lambda) in rates.iter().enumerate() {
            let changed = rng.next_f64() < 1.0 - (-lambda * interval).exp();
            ewma.observe(i, interval, changed).unwrap();
            lln.observe(i, interval, changed).unwrap();
            sa.observe(i, interval, changed).unwrap();
        }
    }
    let (mut ewma_err, mut lln_err, mut sa_err) = (0.0f64, 0.0f64, 0.0f64);
    for (i, &lambda) in rates.iter().enumerate() {
        let lln_rel = (lln.rate(i, 1.0) - lambda).abs() / lambda;
        let sa_rel = (sa.rate(i) - lambda).abs() / lambda;
        // The SA bound is looser: its residual noise scales with 1/λ in
        // relative terms, so low-rate elements sit higher above truth.
        assert!(lln_rel < 0.15, "element {i}: LLN off by {lln_rel:.3}");
        assert!(sa_rel < 0.25, "element {i}: SA off by {sa_rel:.3}");
        ewma_err += (ewma.rate(i) - lambda).abs() / lambda;
        lln_err += lln_rel;
        sa_err += sa_rel;
    }
    assert!(
        lln_err < ewma_err && sa_err < ewma_err,
        "convergent estimators must beat the EWMA floor \
         (ewma {ewma_err:.3}, lln {lln_err:.3}, sa {sa_err:.3})"
    );
}

// ---- tiered budget-split invariants --------------------------------------

/// Check one tiered solution against the no-overdraw contract: every
/// tier's spend within its budget, and (for split solves) the spends
/// covering the requested total.
fn assert_no_overdraw(name: &str, solution: &freshen::solver::TieredSolution, total: Option<f64>) {
    for (node, (&spend, &budget)) in solution
        .node_spend
        .iter()
        .zip(&solution.budgets)
        .enumerate()
    {
        assert!(
            spend <= budget + 1e-6 * budget.max(1.0),
            "{name}: tier {node} overdraws its budget ({spend} > {budget})"
        );
        assert!(spend >= 0.0, "{name}: tier {node} negative spend {spend}");
    }
    if let Some(total) = total {
        let spent: f64 = solution.node_spend.iter().sum();
        assert!(
            (spent - total).abs() <= 1e-6 * total,
            "{name}: split spends {spent} of the requested {total}"
        );
    }
}

#[test]
fn tiered_split_never_overdraws_any_tier_property() {
    check(16, SEED, |rng| {
        let n = 4 + rng.below(9);
        let seed = rng.below(1000) as u64;
        let scale = rng.range(0.2, 3.0);
        let scenario = if rng.below(2) == 1 {
            freshen::workload::tiers::parallel_relay(n, 2, seed).expect("scenario")
        } else {
            freshen::workload::tiers::two_tier_chain(n, seed).expect("scenario")
        };
        let total = scale * scenario.total_budget;
        let solution = TieredSolver::default()
            .solve_split(&scenario.topology, &scenario.problem, total)
            .expect("split solve");
        assert_no_overdraw(scenario.name, &solution, Some(total));
    });
}

#[test]
fn tiered_split_never_overdraws_any_tier() {
    // Fixed-seed pin of the property above: sweep both generated
    // deployments across sizes, seeds, and budget scales; neither a
    // fixed-budget tiered solve nor a budget-split solve may overdraw any
    // tier.
    for (n, seed) in [(5usize, 1u64), (8, 7), (12, 42)] {
        for scale in [0.25, 1.0, 2.5] {
            let chain = freshen::workload::tiers::two_tier_chain(n, seed).expect("chain");
            let striped = freshen::workload::tiers::parallel_relay(n, 2, seed).expect("striped");
            for scenario in [chain, striped] {
                let solver = TieredSolver::default();
                let fixed = solver
                    .solve(&scenario.topology, &scenario.problem)
                    .expect("fixed-budget solve");
                assert_no_overdraw(scenario.name, &fixed, None);
                let total = scale * scenario.total_budget;
                let split = solver
                    .solve_split(&scenario.topology, &scenario.problem, total)
                    .expect("split solve");
                assert_no_overdraw(scenario.name, &split, Some(total));
            }
        }
    }
}
