//! **Figure 9** — perceived freshness vs wall-clock solve time (big case).
//!
//! Four families of points, each (wall-clock seconds, PF):
//! * `CLUSTER_LINE` — plain PF-partitioning (0 iterations) across a range
//!   of partition counts: each point is (time to partition+solve, PF);
//! * per-cluster-count series — for k ∈ {50, 150, 200, 300, 400}, the
//!   trajectory as k-Means iterations grow through
//!   {0, 1, 3, 5, 7, 10, 15, 25};
//! * `MULTISTAGE` — §3.2's rejected multi-stage alternative at the same
//!   k: PF-partitioning (reference frequency 1), then one exact solve per
//!   partition under its stage-1 bandwidth share;
//! * `EXACT` — the exact solve of the whole problem.
//!
//! Paper shape: a few k-Means iterations on few partitions reach, in
//! seconds, quality that raw partitioning needs far more partitions (and
//! time) to match. Absolute seconds differ from the authors' 2003 testbed;
//! the trade-off's shape is the reproduction target. The last two
//! families test §3.2's cost argument against the alternatives it
//! rejects.
//!
//! Honour `FRESHEN_N` to scale the mirror down for smoke tests.

use freshen_bench::{big_case_n, header, heuristic_pf, row, timed};
use freshen_heuristics::multistage::solve_multistage;
use freshen_heuristics::{HeuristicConfig, PartitionCriterion};
use freshen_solver::LagrangeSolver;
use freshen_workload::scenario::Scenario;

fn main() {
    let n = big_case_n();
    let problem = Scenario::table3_scaled(n, 42)
        .problem()
        .expect("table3 scenario builds");

    println!("# Figure 9: PF vs solve time (big case, N = {n})");
    header(&["series", "time_seconds", "perceived_freshness"]);

    // CLUSTER_LINE: 0-iteration PF-partitioning across partition counts.
    for k in [25usize, 50, 100, 150, 200, 300, 400, 500] {
        let (pf, secs) = timed(|| {
            heuristic_pf(
                &problem,
                HeuristicConfig {
                    criterion: PartitionCriterion::PerceivedFreshness,
                    num_partitions: k,
                    kmeans_iterations: 0,
                    ..Default::default()
                },
            )
        });
        row(&format!("CLUSTER_LINE_k{k}"), &[secs, pf]);
    }

    // Refinement trajectories per cluster count.
    for k in [50usize, 150, 200, 300, 400] {
        for iters in [0usize, 1, 3, 5, 7, 10, 15, 25] {
            let (pf, secs) = timed(|| {
                heuristic_pf(
                    &problem,
                    HeuristicConfig {
                        criterion: PartitionCriterion::PerceivedFreshness,
                        num_partitions: k,
                        kmeans_iterations: iters,
                        ..Default::default()
                    },
                )
            });
            row(&format!("{k}_CLUSTERS_it{iters}"), &[secs, pf]);
        }
    }

    for k in [50usize, 150, 200, 300, 400] {
        let (pf, secs) = timed(|| {
            solve_multistage(&problem, PartitionCriterion::PerceivedFreshness, k, 1.0)
                .expect("multi-stage solve succeeds")
                .solution
                .perceived_freshness
        });
        row(&format!("MULTISTAGE_k{k}"), &[secs, pf]);
    }

    let (pf, secs) = timed(|| {
        LagrangeSolver::default()
            .solve(&problem)
            .expect("exact solve succeeds")
            .perceived_freshness
    });
    row("EXACT", &[secs, pf]);
}
