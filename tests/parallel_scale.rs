//! Acceptance test for the parallel execution layer: at N = 10⁵ the
//! pooled solve plus parallel PF evaluation must match the serial optimum
//! to 1e-6, and — when the machine actually has the cores — finish at
//! least 2× faster on a 4-worker pool.
//!
//! PF parity is asserted unconditionally; the speedup assertion is gated
//! on `std::thread::available_parallelism()` ≥ 4 because on a smaller box
//! a pool cannot beat the serial pass no matter how the work is split.

use std::time::Instant;

use freshen::core::exec::Executor;
use freshen::prelude::*;

const N: usize = 100_000;
const THREADS: usize = 4;

/// Same deterministic mirror family as `exp_scale`: striped rates,
/// harmonic access weights, striped sizes.
fn scale_problem(n: usize) -> Problem {
    let rates: Vec<f64> = (0..n).map(|i| 0.1 + (i % 17) as f64 * 0.3).collect();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let sizes: Vec<f64> = (0..n).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
    Problem::builder()
        .change_rates(rates)
        .access_weights(weights)
        .sizes(sizes)
        .bandwidth(n as f64 / 4.0)
        .build()
        .expect("scale problem builds")
}

#[test]
fn pool_parallel_solve_matches_serial_and_scales() {
    let problem = scale_problem(N);

    // Serial baseline: global solve + serial evaluation. Best-of-two so a
    // cold first pass (page faults, lazy allocation) doesn't skew timing.
    let serial_solver = LagrangeSolver::default();
    let mut serial_wall = f64::INFINITY;
    let mut serial_pf = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        let solution = serial_solver.solve(&problem).expect("serial solve");
        let pf = problem.perceived_freshness(&solution.frequencies);
        serial_wall = serial_wall.min(start.elapsed().as_secs_f64());
        serial_pf = pf;
    }

    let executor = Executor::thread_pool(THREADS);
    let solver = LagrangeSolver::default().with_executor(executor.clone());
    let mut pool_wall = f64::INFINITY;
    let mut pool_pf = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        let solution = solver.solve(&problem).expect("pooled solve");
        let pf = problem.perceived_freshness_exec(&solution.frequencies, &executor);
        pool_wall = pool_wall.min(start.elapsed().as_secs_f64());
        pool_pf = pf;
    }

    // Pool equivalence: the pooled optimum recovers the serial PF.
    let parity = (pool_pf - serial_pf).abs();
    assert!(
        parity < 1e-6,
        "pooled PF {pool_pf} vs serial {serial_pf} (parity {parity:.3e})"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < THREADS {
        eprintln!(
            "skipping speedup assertion: {cores} cores available, \
             {THREADS} required (parity checked: {parity:.3e})"
        );
        return;
    }
    let speedup = serial_wall / pool_wall.max(f64::MIN_POSITIVE);
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup at {THREADS} threads on {cores} cores; \
         got {speedup:.2}x (serial {serial_wall:.3}s, pool {pool_wall:.3}s)"
    );
}
