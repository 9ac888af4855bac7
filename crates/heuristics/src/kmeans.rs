//! k-Means refinement of an initial partitioning (paper §4.1.3).
//!
//! "Empirically we have seen that the partitions can be improved by
//! running several iterations of a k-Means clustering algorithm" — starting
//! from the sorted contiguous partitions and cleaning up the grouping with
//! Euclidean distance in normalized feature space. The features are the
//! element's access probability and its change rate normalized to sum to 1
//! (paper Eq. 3 / footnote 6); with variable object sizes, the normalized
//! size joins as a third coordinate.
//!
//! The paper's headline: *very few* iterations on a *small* number of
//! clusters reach solution quality that raw sorted partitioning needs many
//! more partitions (and much more solve time) to match.

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::{Executor, DEFAULT_CHUNK};
use freshen_core::problem::Problem;
use freshen_obs::Recorder;

use crate::partition::Partitioning;

/// Per-element feature vectors for clustering: `(p, λ′, s′)` with `λ′` and
/// `s′` normalized to sum to 1 (sizes included only for non-uniform-size
/// problems; the third coordinate is 0 otherwise, which leaves distances
/// unchanged).
pub fn feature_vectors(problem: &Problem) -> Vec<[f64; 3]> {
    let n = problem.len();
    let lam_total: f64 = problem.change_rates().iter().sum();
    let lam_scale = if lam_total > 0.0 {
        1.0 / lam_total
    } else {
        0.0
    };
    let use_sizes = !problem.has_uniform_sizes();
    let size_total: f64 = problem.sizes().iter().sum();
    let size_scale = if use_sizes && size_total > 0.0 {
        1.0 / size_total
    } else {
        0.0
    };
    (0..n)
        .map(|i| {
            [
                problem.access_probs()[i],
                problem.change_rates()[i] * lam_scale,
                problem.sizes()[i] * size_scale,
            ]
        })
        .collect()
}

/// Total within-cluster sum of squared distances — the k-Means objective.
/// Non-increasing across refinement iterations (asserted by tests).
pub fn within_cluster_ss(features: &[[f64; 3]], partitioning: &Partitioning) -> f64 {
    let centroids = compute_centroids(features, partitioning);
    let mut ss = 0.0;
    for (i, f) in features.iter().enumerate() {
        let c = &centroids[partitioning.partition_of(i)];
        ss += dist2(f, c);
    }
    ss
}

/// Refine `initial` with up to `iterations` Lloyd steps; returns the new
/// partitioning and the number of iterations actually executed (early exit
/// when an iteration moves no element).
///
/// With `iterations == 0` the input partitioning is returned unchanged —
/// the "0 iterations" point on the paper's Figure 8 plots.
///
/// Each Lloyd round records a span carrying its element-movement count,
/// plus a `kmeans.moves` counter. The assignment and centroid-update
/// passes run on `executor`: the nearest-centroid choice is per element
/// (current assignment read-only), and centroid sums merge per-chunk
/// partials in fixed chunk order, so refinement is identical at any
/// worker count.
pub fn refine_observed_exec(
    problem: &Problem,
    initial: &Partitioning,
    iterations: usize,
    recorder: &Recorder,
    executor: &Executor,
) -> Result<(Partitioning, usize)> {
    if initial.len() != problem.len() {
        return Err(CoreError::LengthMismatch {
            what: "partitioning",
            expected: problem.len(),
            actual: initial.len(),
        });
    }
    if iterations == 0 {
        return Ok((initial.clone(), 0));
    }
    let features = feature_vectors(problem);
    let k = initial.num_partitions();
    let mut assignment: Vec<usize> = initial.assignment().to_vec();
    let mut centroids = compute_centroids(&features, initial);
    let mut ran = 0;
    let c_rounds = recorder.counter("kmeans.rounds");
    let c_moves = recorder.counter("kmeans.moves");

    for _ in 0..iterations {
        ran += 1;
        let mut round_span = recorder.span("heuristic.kmeans_round");
        round_span.arg("round", ran);
        // Nearest-centroid pass: each element's choice depends only on the
        // (read-only) centroids, so it maps per element; keeping the
        // current cluster on ties (strict `<` move rule) makes the result
        // scheduling-independent. Moves are applied serially afterwards.
        let best_of: Vec<usize> = executor.par_map_index(features.len(), |i| {
            let f = &features[i];
            let mut best = assignment[i];
            let mut best_d = dist2(f, &centroids[best]);
            for (g, c) in centroids.iter().enumerate() {
                let d = dist2(f, c);
                if d < best_d {
                    best_d = d;
                    best = g;
                }
            }
            best
        });
        let mut moves = 0usize;
        for (slot, best) in assignment.iter_mut().zip(best_of) {
            if best != *slot {
                *slot = best;
                moves += 1;
            }
        }
        round_span.arg("moves", moves);
        c_rounds.inc();
        c_moves.add(moves as u64);
        if moves == 0 {
            break;
        }
        // Recompute centroids; empty clusters keep their previous position
        // so they can recapture elements in a later iteration.
        let part = Partitioning::from_assignment(assignment.clone(), k)?;
        let fresh = compute_centroids_with_fallback(&features, &part, &centroids, executor);
        centroids = fresh;
    }
    Ok((Partitioning::from_assignment(assignment, k)?, ran))
}

fn compute_centroids(features: &[[f64; 3]], partitioning: &Partitioning) -> Vec<[f64; 3]> {
    compute_centroids_with_fallback(
        features,
        partitioning,
        &vec![[0.0; 3]; partitioning.num_partitions()],
        &Executor::serial(),
    )
}

/// Per-cluster feature sums and member counts, reduced chunk-by-chunk in
/// fixed order so centroid positions match the serial pass exactly.
fn compute_centroids_with_fallback(
    features: &[[f64; 3]],
    partitioning: &Partitioning,
    fallback: &[[f64; 3]],
    executor: &Executor,
) -> Vec<[f64; 3]> {
    let k = partitioning.num_partitions();
    let (sums, counts) = executor
        .par_chunks_reduce(
            features.len(),
            DEFAULT_CHUNK,
            |range| {
                let mut sums = vec![[0.0f64; 3]; k];
                let mut counts = vec![0usize; k];
                for i in range {
                    let g = partitioning.partition_of(i);
                    for d in 0..3 {
                        sums[g][d] += features[i][d];
                    }
                    counts[g] += 1;
                }
                (sums, counts)
            },
            |(mut sums, mut counts), (other_sums, other_counts)| {
                for g in 0..k {
                    for d in 0..3 {
                        sums[g][d] += other_sums[g][d];
                    }
                    counts[g] += other_counts[g];
                }
                (sums, counts)
            },
        )
        .unwrap_or_else(|| (vec![[0.0f64; 3]; k], vec![0usize; k]));
    (0..k)
        .map(|g| {
            if counts[g] == 0 {
                fallback[g]
            } else {
                let m = counts[g] as f64;
                [sums[g][0] / m, sums[g][1] / m, sums[g][2] / m]
            }
        })
        .collect()
}

#[inline]
fn dist2(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionCriterion;

    fn clustered_problem() -> Problem {
        // Two natural clusters in (p, λ): four hot/slow and four cold/fast.
        Problem::builder()
            .change_rates(vec![1.0, 1.1, 0.9, 1.0, 10.0, 9.5, 10.5, 10.0])
            .access_probs(vec![0.2, 0.21, 0.19, 0.2, 0.05, 0.05, 0.05, 0.05])
            .bandwidth(4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_iterations_is_identity() {
        let p = clustered_problem();
        let init = Partitioning::by_criterion(&p, PartitionCriterion::ChangeRate, 2, 1.0).unwrap();
        let (out, ran) =
            refine_observed_exec(&p, &init, 0, &Recorder::disabled(), &Executor::serial()).unwrap();
        assert_eq!(out, init);
        assert_eq!(ran, 0);
    }

    #[test]
    fn recovers_natural_clusters_from_bad_start() {
        let p = clustered_problem();
        // Deliberately bad start: interleaved assignment.
        let init = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let (out, _) =
            refine_observed_exec(&p, &init, 20, &Recorder::disabled(), &Executor::serial())
                .unwrap();
        // All hot/slow elements end up together, all cold/fast together.
        let g0 = out.partition_of(0);
        for i in 1..4 {
            assert_eq!(out.partition_of(i), g0, "hot cluster intact");
        }
        let g4 = out.partition_of(4);
        assert_ne!(g0, g4);
        for i in 5..8 {
            assert_eq!(out.partition_of(i), g4, "cold cluster intact");
        }
    }

    #[test]
    fn objective_non_increasing() {
        let p = clustered_problem();
        let feats = feature_vectors(&p);
        let init = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let mut prev = within_cluster_ss(&feats, &init);
        let mut current = init;
        for _ in 0..5 {
            let (next, ran) =
                refine_observed_exec(&p, &current, 1, &Recorder::disabled(), &Executor::serial())
                    .unwrap();
            let ss = within_cluster_ss(&feats, &next);
            assert!(ss <= prev + 1e-15, "k-means objective must not increase");
            prev = ss;
            current = next;
            if ran == 0 {
                break;
            }
        }
    }

    #[test]
    fn early_exit_when_converged() {
        let p = clustered_problem();
        let init = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let (stable, _) =
            refine_observed_exec(&p, &init, 50, &Recorder::disabled(), &Executor::serial())
                .unwrap();
        // Re-running from a converged state stops after one no-move pass.
        let (again, ran) =
            refine_observed_exec(&p, &stable, 50, &Recorder::disabled(), &Executor::serial())
                .unwrap();
        assert_eq!(again, stable);
        assert_eq!(ran, 1, "single pass detects convergence");
    }

    #[test]
    fn feature_vectors_normalized() {
        let p = clustered_problem();
        let feats = feature_vectors(&p);
        let lam_sum: f64 = feats.iter().map(|f| f[1]).sum();
        assert!((lam_sum - 1.0).abs() < 1e-9);
        // Uniform sizes: third coordinate suppressed.
        assert!(feats.iter().all(|f| f[2] == 0.0));
    }

    #[test]
    fn feature_vectors_include_sizes_when_variable() {
        let p = Problem::builder()
            .change_rates(vec![1.0, 1.0])
            .access_probs(vec![0.5, 0.5])
            .sizes(vec![1.0, 3.0])
            .bandwidth(1.0)
            .build()
            .unwrap();
        let feats = feature_vectors(&p);
        assert!((feats[0][2] - 0.25).abs() < 1e-12);
        assert!((feats[1][2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cluster_count_preserved() {
        let p = clustered_problem();
        let init = Partitioning::by_criterion(&p, PartitionCriterion::AccessProb, 3, 1.0).unwrap();
        let (out, _) =
            refine_observed_exec(&p, &init, 10, &Recorder::disabled(), &Executor::serial())
                .unwrap();
        assert_eq!(out.num_partitions(), 3);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn rejects_mismatched_partitioning() {
        let p = clustered_problem();
        let init = Partitioning::single(3);
        assert!(
            refine_observed_exec(&p, &init, 1, &Recorder::disabled(), &Executor::serial()).is_err()
        );
    }

    #[test]
    fn observed_refine_records_rounds_and_movement() {
        let p = clustered_problem();
        let init = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
        let rec = Recorder::enabled();
        let (observed, ran) =
            refine_observed_exec(&p, &init, 20, &rec, &Executor::serial()).unwrap();
        let (plain, _) =
            refine_observed_exec(&p, &init, 20, &Recorder::disabled(), &Executor::serial())
                .unwrap();
        assert_eq!(observed, plain, "observability must not change clustering");
        assert_eq!(rec.counter_value("kmeans.rounds"), Some(ran as u64));
        assert!(rec.counter_value("kmeans.moves").unwrap() > 0);
        let trace = rec.chrome_trace_json().unwrap();
        assert!(trace.contains("heuristic.kmeans_round"));
        assert!(trace.contains("\"moves\""));
    }
}
