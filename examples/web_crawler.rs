//! A search-engine-scale refresh scheduler — the paper's big case plus the
//! §5 object-size extension: 200 000 pages, Pareto-distributed page sizes
//! (most pages tiny, a few huge), large stable media vs small volatile
//! pages, limited crawl bandwidth.
//!
//! Demonstrates the scalable pipeline: PF/s-partitioning, a few k-Means
//! refinement iterations, Fixed *Bandwidth* Allocation — and why solving
//! exactly at this scale is the wrong tool (we time both).
//!
//! ```text
//! cargo run --release --example web_crawler
//! ```

use std::time::Instant;

use freshen::heuristics::partition::PartitionCriterion;
use freshen::prelude::*;
use freshen::workload::scenario::{SizeAlignment, SizeDist};

fn main() {
    let n = 200_000;
    // Interest: Zipf(1.1) — web access is heavily skewed. Change rates:
    // gamma, shuffled against interest. Sizes: Pareto(1.1) with big pages
    // changing rarely (images/video) and small pages often (tickers).
    let problem = Scenario::builder()
        .num_objects(n)
        .updates_per_period(2.0 * n as f64)
        .syncs_per_period(0.5 * n as f64)
        .zipf_theta(1.1)
        .update_std_dev(2.0)
        .alignment(Alignment::ShuffledChange)
        .size_dist(SizeDist::Pareto { shape: 1.1 })
        .size_alignment(SizeAlignment::ReverseOfChange)
        .seed(11)
        .build()
        .expect("valid scenario")
        .problem()
        .expect("problem materializes");
    println!(
        "crawl scheduling for {n} pages, budget {} size-units/period",
        problem.bandwidth()
    );

    // The scalable pipeline: 100 partitions, 5 k-means iterations, FBA.
    let start = Instant::now();
    let heuristic = HeuristicScheduler::new(HeuristicConfig {
        criterion: PartitionCriterion::PerceivedFreshnessPerSize,
        num_partitions: 100,
        kmeans_iterations: 5,
        allocation: AllocationPolicy::FixedBandwidth,
        reference_frequency: 1.0,
    })
    .expect("valid config")
    .solve(&problem)
    .expect("heuristic solves");
    let heuristic_time = start.elapsed();
    println!(
        "heuristic (100 partitions + 5 k-means iters): PF {:.4} in {:.2?} (reduced to {} representatives)",
        heuristic.solution.perceived_freshness, heuristic_time, heuristic.reduced_elements
    );

    // The exact solver still works here (our Lagrange scheme is O(N) per
    // probe) — but a generic NLP would not.
    let start = Instant::now();
    let exact = LagrangeSolver::default()
        .solve(&problem)
        .expect("exact solves");
    let exact_time = start.elapsed();
    println!(
        "exact Lagrange solve:                         PF {:.4} in {:.2?}",
        exact.perceived_freshness, exact_time
    );
    println!(
        "heuristic captures {:.1}% of optimal perceived freshness",
        100.0 * heuristic.solution.perceived_freshness / exact.perceived_freshness
    );

    // Crawl-plan summary: how refreshes distribute over page sizes.
    let freqs = &heuristic.solution.frequencies;
    let mut small = (0.0, 0.0); // (syncs, bandwidth) for pages < 1 unit
    let mut large = (0.0, 0.0);
    for (&f, &s) in freqs.iter().zip(problem.sizes()) {
        let cell = if s < 1.0 { &mut small } else { &mut large };
        cell.0 += f;
        cell.1 += f * s;
    }
    println!(
        "\nsmall pages (<1 unit): {:.0} refreshes using {:.0} bandwidth",
        small.0, small.1
    );
    println!(
        "large pages (>=1 unit): {:.0} refreshes using {:.0} bandwidth",
        large.0, large.1
    );
    println!("(FBA gives small volatile pages many cheap refreshes — paper §5.3)");
}
