//! The online runtime end to end: determinism of trace replay, and the
//! headline drift-gating claim — near-oracle realized perceived freshness
//! on a drifting workload at a small fraction of the oracle's re-solves.

use freshen::engine::{
    DriftingAccessStream, Engine, EngineConfig, EngineReport, LivePollSource, ReplayPollSource,
    ResolvePolicy,
};
use freshen::prelude::*;
use freshen::workload::trace::{AccessRecord, PollRecord};

/// A synthetic recorded trace: deterministic arithmetic, no RNG, so the
/// replay-determinism check cannot be confounded by generator state.
fn recorded_trace(n: usize) -> (Vec<AccessRecord>, Vec<PollRecord>) {
    let mut accesses = Vec::new();
    for k in 0..1500 {
        accesses.push(AccessRecord {
            time: k as f64 * 0.01,
            element: (k * k + k / 3) % n,
        });
    }
    let mut polls = Vec::new();
    for k in 0..300 {
        polls.push(PollRecord {
            time: k as f64 * 0.05,
            element: k % n,
            changed: (k * 7 + 1) % 5 < 2,
        });
    }
    (accesses, polls)
}

fn replay_once(config: &EngineConfig, n: usize, bandwidth: f64) -> EngineReport {
    let (accesses, polls) = recorded_trace(n);
    let prior = Problem::builder()
        .change_rates(vec![1.0; n])
        .access_weights(vec![1.0; n])
        .bandwidth(bandwidth)
        .build()
        .unwrap();
    let mut source = ReplayPollSource::new(n, &polls).unwrap();
    Engine::new(&prior, config.clone())
        .unwrap()
        .with_recorder(Recorder::enabled())
        .run(accesses.into_iter().map(Ok), &mut source)
        .unwrap()
}

#[test]
fn trace_replay_with_same_seed_is_byte_identical() {
    let config = EngineConfig {
        epochs: 15,
        warmup_epochs: 3,
        failure_rate: 0.15,
        seed: 99,
        ..EngineConfig::default()
    };
    let first = replay_once(&config, 5, 10.0);
    let second = replay_once(&config, 5, 10.0);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "same trace + same seed must reproduce the report byte for byte"
    );
    // Sanity: the run actually exercised the interesting paths.
    assert!(first.polls_failed > 0, "failure injection engaged");
    assert!(first.accesses == 1500, "every access ingested");

    // A different seed changes the injected failures, hence the bytes.
    let reseeded = replay_once(
        &EngineConfig {
            seed: 100,
            ..config
        },
        5,
        10.0,
    );
    assert_ne!(first.to_json(), reseeded.to_json());
}

/// The §9 drifting workload: interest profile flips mid-run, change rates
/// spread geometrically, engine prior is uniform (it must learn both).
struct Drifting {
    n: usize,
    epochs: usize,
}

impl Drifting {
    fn run(&self, policy: ResolvePolicy) -> EngineReport {
        let n = self.n;
        let true_rates: Vec<f64> = (0..n).map(|i| 0.25 * 1.6f64.powi((i % 7) as i32)).collect();
        let mut before: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let sum: f64 = before.iter().sum();
        before.iter_mut().for_each(|p| *p /= sum);
        let mut after = before.clone();
        after.reverse();

        let config = EngineConfig {
            epochs: self.epochs,
            warmup_epochs: self.epochs / 10,
            drift_threshold: 0.12,
            resolve_policy: policy,
            failure_rate: 0.05,
            seed: 7,
            ..EngineConfig::default()
        };
        let horizon = config.horizon();
        let accesses = DriftingAccessStream::new(
            &before,
            &after,
            200.0,
            horizon / 2.0,
            horizon,
            config.seed ^ 0xACCE55,
        )
        .unwrap();
        let mut source = LivePollSource::new(&true_rates, config.seed ^ 0x50_11, horizon).unwrap();
        let prior = Problem::builder()
            .change_rates(vec![1.0; n])
            .access_weights(vec![1.0; n])
            .bandwidth(n as f64 / 2.0)
            .build()
            .unwrap();
        Engine::new(&prior, config)
            .unwrap()
            .run(accesses, &mut source)
            .unwrap()
    }
}

#[test]
fn drift_gated_engine_tracks_oracle_with_few_resolves() {
    let workload = Drifting { n: 20, epochs: 30 };
    let gated = workload.run(ResolvePolicy::DriftGated);
    let oracle = workload.run(ResolvePolicy::EveryEpoch);

    // The oracle re-solves after every epoch, by definition.
    assert_eq!(oracle.resolve_fraction(), 1.0);
    assert!(oracle.realized_pf > 0.0);

    // Headline claim 1: realized PF within 5% of the oracle.
    assert!(
        gated.realized_pf >= 0.95 * oracle.realized_pf,
        "gated PF {} vs oracle PF {} (ratio {:.4})",
        gated.realized_pf,
        oracle.realized_pf,
        gated.realized_pf / oracle.realized_pf
    );

    // Headline claim 2: at most a quarter of the oracle's re-solves.
    let gated_resolves = gated.epochs.iter().filter(|e| e.resolved).count();
    let oracle_resolves = oracle.epochs.iter().filter(|e| e.resolved).count();
    assert!(
        4 * gated_resolves <= oracle_resolves,
        "gated re-solved {gated_resolves}/{oracle_resolves} epochs"
    );

    // The gate did fire at least once: the mid-run interest flip is real
    // drift that must be caught, not ignored.
    assert!(
        gated_resolves >= 1,
        "the profile flip must trigger a re-solve"
    );
    // And the drift signal itself is visible in the report.
    let max_drift = gated.epochs.iter().map(|e| e.drift).fold(0.0, f64::max);
    assert!(
        max_drift > 0.12,
        "recorded drift should cross the threshold"
    );
}
