//! Integration tests for the serve layer's crash-recovery contract
//! (DESIGN.md §12): a run killed at an epoch boundary and resumed from
//! its checkpoint finishes with a report **byte-identical** to an
//! uninterrupted same-seed run, and every malformed snapshot is rejected
//! with a clean `CoreError` — never a panic, never a partial restore.

use std::path::PathBuf;

use freshen::core::error::CoreError;
use freshen::core::problem::Problem;
use freshen::engine::EngineConfig;
use freshen::serve::{ExitReason, ServeConfig, ServeWorkload, Server, Snapshot};
use freshen::workload::trace::{AccessRecord, PollRecord};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("freshen-serve-recovery")
        .join(tag);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn live_workload(n: usize) -> ServeWorkload {
    let rates: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    ServeWorkload::Live {
        problem: Problem::builder()
            .change_rates(rates)
            .access_weights(weights)
            .bandwidth(n as f64 * 0.75)
            .build()
            .expect("problem builds"),
        access_rate: 120.0,
    }
}

fn serve_config(dir: &std::path::Path, epochs: usize) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            epochs,
            warmup_epochs: 2,
            failure_rate: 0.1,
            seed: 23,
            ..EngineConfig::default()
        },
        checkpoint_path: dir.join("run.snapshot"),
        ..ServeConfig::default()
    }
}

fn reference_json(workload: &ServeWorkload, config: &ServeConfig) -> String {
    Server::new(workload.clone(), config.clone())
        .expect("server builds")
        .run()
        .expect("uninterrupted run")
        .report
        .expect("completed run has a report")
        .to_json()
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_boundary() {
    let dir = temp_dir("boundaries");
    let workload = live_workload(6);
    let epochs = 10;
    let config = serve_config(&dir, epochs);
    let expected = reference_json(&workload, &config);

    // Kill at the first boundary, mid-run, and the second-to-last epoch.
    for kill_at in [1usize, epochs / 2, epochs - 1] {
        let mut first = config.clone();
        first.drain_after = Some(kill_at);
        let drained = Server::new(workload.clone(), first)
            .expect("server builds")
            .run()
            .expect("drained leg");
        assert_eq!(drained.exit, ExitReason::Drained);
        assert_eq!(drained.epochs_run, kill_at);
        assert!(drained.report.is_none(), "a drained run has no report");

        let mut second = config.clone();
        second.resume = Some(config.checkpoint_path.clone());
        let resumed = Server::new(workload.clone(), second)
            .expect("server builds")
            .run()
            .expect("resumed leg");
        assert_eq!(resumed.exit, ExitReason::Completed);
        assert_eq!(resumed.epochs_run, epochs - kill_at);
        assert_eq!(
            resumed.report.expect("completed").to_json(),
            expected,
            "kill at epoch {kill_at}: resumed report diverged"
        );
    }
}

#[test]
fn decayed_profile_resumes_through_the_snapshot_at_every_boundary() {
    // At profile decay 0.9 the learner folds its scale every ~421
    // accesses, so 400 accesses per period cross a fold about every epoch.
    // A kill at every boundary must resume through the snapshot's raw
    // profile weights and scale to the uninterrupted report.
    let dir = temp_dir("decayed-profile");
    let workload = match live_workload(6) {
        ServeWorkload::Live { problem, .. } => ServeWorkload::Live {
            problem,
            access_rate: 400.0,
        },
        other => other,
    };
    let epochs = 8;
    let mut config = serve_config(&dir, epochs);
    config.engine.profile_decay = 0.9;
    let expected = reference_json(&workload, &config);
    for kill_at in 1..epochs {
        let mut first = config.clone();
        first.drain_after = Some(kill_at);
        let drained = Server::new(workload.clone(), first)
            .expect("server builds")
            .run()
            .expect("drained leg");
        assert_eq!(drained.exit, ExitReason::Drained);

        let bytes = std::fs::read(&config.checkpoint_path).expect("snapshot bytes");
        let snapshot = Snapshot::decode(&bytes).expect("valid snapshot");
        assert_eq!(
            snapshot.encode(),
            bytes,
            "kill at {kill_at}: codec identity"
        );
        assert!(snapshot.engine.profile_scale >= 1.0);

        let mut second = config.clone();
        second.resume = Some(config.checkpoint_path.clone());
        let resumed = Server::new(workload.clone(), second)
            .expect("server builds")
            .run()
            .expect("resumed leg");
        assert_eq!(
            resumed.report.expect("completed").to_json(),
            expected,
            "kill at epoch {kill_at}: resumed report diverged"
        );
        if kill_at == epochs - 1 {
            assert!(
                snapshot.engine.profile_observations >= 4 * 422,
                "only {} accesses: fewer than three folds",
                snapshot.engine.profile_observations
            );
        }
    }
}

#[test]
fn estimator_variants_and_cost_levy_resume_byte_identically() {
    // Format-V4 state: the LLN and SA estimators checkpoint different
    // sufficient statistics than EWMA, and a poll levy adds the schedule's
    // cost multiplier. Kill/resume parity must hold for every variant.
    use freshen::engine::EstimatorKind;
    let workload = live_workload(6);
    let cases = [
        ("lln", EstimatorKind::Lln, 0.0),
        (
            "sa",
            EstimatorKind::Sa {
                gain: 0.5,
                decay: 0.75,
            },
            0.0,
        ),
        ("lln-levy", EstimatorKind::Lln, 0.01),
    ];
    for (tag, estimator, poll_cost) in cases {
        let dir = temp_dir(&format!("estimators-{tag}"));
        let epochs = 10;
        let mut config = serve_config(&dir, epochs);
        config.engine.estimator = estimator;
        config.engine.poll_cost = poll_cost;
        let expected = reference_json(&workload, &config);

        let mut first = config.clone();
        first.drain_after = Some(epochs / 2);
        let drained = Server::new(workload.clone(), first)
            .expect("server builds")
            .run()
            .expect("drained leg");
        assert_eq!(drained.exit, ExitReason::Drained, "{tag}");

        // The on-disk V4 snapshot is an exact codec identity.
        let bytes = std::fs::read(&config.checkpoint_path).expect("snapshot bytes");
        let snapshot = Snapshot::decode(&bytes).expect("valid snapshot");
        assert_eq!(snapshot.encode(), bytes, "{tag}: codec identity");

        let mut second = config.clone();
        second.resume = Some(config.checkpoint_path.clone());
        let resumed = Server::new(workload.clone(), second)
            .expect("server builds")
            .run()
            .expect("resumed leg");
        assert_eq!(resumed.exit, ExitReason::Completed, "{tag}");
        assert_eq!(
            resumed.report.expect("completed").to_json(),
            expected,
            "{tag}: resumed report diverged"
        );
    }
}

#[test]
fn replay_workload_recovers_identically_too() {
    let n = 4;
    let mut accesses = Vec::new();
    for k in 0..600 {
        accesses.push(AccessRecord {
            time: k as f64 * 0.015,
            element: [0, 1, 0, 2, 3, 0][k % 6],
        });
    }
    let mut polls = Vec::new();
    for k in 0..90 {
        polls.push(PollRecord {
            time: k as f64 * 0.1,
            element: k % n,
            changed: k % 3 != 2,
        });
    }
    let workload = ServeWorkload::Replay {
        elements: n,
        bandwidth: 4.0,
        accesses,
        polls,
    };
    let dir = temp_dir("replay");
    let config = serve_config(&dir, 9);
    let expected = reference_json(&workload, &config);

    let mut first = config.clone();
    first.drain_after = Some(4);
    Server::new(workload.clone(), first)
        .expect("server builds")
        .run()
        .expect("drained leg");
    let mut second = config.clone();
    second.resume = Some(config.checkpoint_path.clone());
    let resumed = Server::new(workload, second)
        .expect("server builds")
        .run()
        .expect("resumed leg");
    assert_eq!(resumed.report.expect("completed").to_json(), expected);
}

#[test]
fn checkpoint_cadence_and_double_resume_hold_the_invariant() {
    // Periodic checkpoints plus a *chain* of two kills: resuming a
    // resumed run must still land on the reference bytes.
    let dir = temp_dir("cadence");
    let workload = live_workload(5);
    let epochs = 12;
    let mut config = serve_config(&dir, epochs);
    config.checkpoint_every = 3;
    let expected = reference_json(&workload, &config);

    let mut leg1 = config.clone();
    leg1.drain_after = Some(4);
    let outcome = Server::new(workload.clone(), leg1)
        .expect("server builds")
        .run()
        .expect("leg 1");
    // Cadence checkpoint at epoch 3 + drain checkpoint at epoch 4.
    assert_eq!(outcome.checkpoints, 2);

    let mut leg2 = config.clone();
    leg2.resume = Some(config.checkpoint_path.clone());
    leg2.drain_after = Some(4);
    let outcome = Server::new(workload.clone(), leg2)
        .expect("server builds")
        .run()
        .expect("leg 2");
    assert_eq!(outcome.exit, ExitReason::Drained);

    let mut leg3 = config.clone();
    leg3.resume = Some(config.checkpoint_path.clone());
    let resumed = Server::new(workload, leg3)
        .expect("server builds")
        .run()
        .expect("leg 3");
    assert_eq!(resumed.epochs_run, epochs - 8);
    assert_eq!(resumed.report.expect("completed").to_json(), expected);
}

#[test]
fn repair_active_run_resumes_byte_identically() {
    // Kill-and-resume with incremental KKT repair armed wide open
    // (`repair_fraction = 1.0`): the repair/fallback counters must ride
    // the snapshot (format v3) so the resumed run repairs from the same
    // tallies and lands on the reference bytes.
    let dir = temp_dir("repair-active");
    let workload = live_workload(6);
    let epochs = 12;
    let mut config = serve_config(&dir, epochs);
    config.engine.repair_fraction = 1.0;
    config.engine.drift_threshold = 0.01; // resolve (and so repair) often
    let expected = reference_json(&workload, &config);
    assert!(
        expected.contains("\"repairs\": "),
        "report must carry the repair counter"
    );

    let kill_at = epochs / 2;
    let mut first = config.clone();
    first.drain_after = Some(kill_at);
    Server::new(workload.clone(), first)
        .expect("server builds")
        .run()
        .expect("drained leg");

    // The snapshot itself must carry the mid-run repair tallies.
    let bytes = std::fs::read(&config.checkpoint_path).expect("snapshot bytes");
    let snapshot = Snapshot::decode(&bytes).expect("valid snapshot");
    assert!(
        snapshot.engine.repairs > 0,
        "a wide-open repair gate must have repaired before epoch {kill_at} \
         (resolves {} skips {})",
        snapshot.engine.resolves,
        snapshot.engine.skips,
    );

    let mut second = config.clone();
    second.resume = Some(config.checkpoint_path.clone());
    let resumed = Server::new(workload, second)
        .expect("server builds")
        .run()
        .expect("resumed leg");
    assert_eq!(resumed.exit, ExitReason::Completed);
    assert_eq!(
        resumed.report.expect("completed").to_json(),
        expected,
        "repair-active resume diverged"
    );
}

#[test]
fn corrupt_snapshots_are_clean_errors_never_panics() {
    let dir = temp_dir("corrupt");
    let workload = live_workload(4);
    let config = serve_config(&dir, 8);
    let mut drain = config.clone();
    drain.drain_after = Some(3);
    Server::new(workload.clone(), drain)
        .expect("server builds")
        .run()
        .expect("produce a good snapshot");
    let good = std::fs::read(&config.checkpoint_path).expect("snapshot bytes");
    assert!(Snapshot::decode(&good).is_ok(), "sanity: snapshot is valid");

    let resume_with = |bytes: &[u8], tag: &str| -> CoreError {
        let path = dir.join(format!("{tag}.snapshot"));
        std::fs::write(&path, bytes).expect("write corrupt file");
        let mut cfg = config.clone();
        cfg.resume = Some(path);
        Server::new(workload.clone(), cfg)
            .expect("server builds")
            .run()
            .expect_err("corrupt snapshot must be rejected")
    };

    // Truncated file — every prefix must fail cleanly.
    for cut in [0, 7, 12, good.len() / 3, good.len() - 1] {
        let err = resume_with(&good[..cut], &format!("truncated-{cut}"));
        assert!(err.to_string().contains("snapshot"), "cut {cut}: {err}");
    }
    // Flipped CRC byte.
    let mut bad = good.clone();
    bad[9] ^= 0x40;
    let err = resume_with(&bad, "bad-crc");
    assert!(err.to_string().contains("CRC"), "{err}");
    // Flipped payload byte (caught by the CRC before decoding).
    let mut bad = good.clone();
    let mid = 12 + (good.len() - 12) / 2;
    bad[mid] ^= 0xFF;
    let err = resume_with(&bad, "bad-payload");
    assert!(err.to_string().contains("CRC"), "{err}");
    // Wrong magic and unsupported version.
    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"NOPE");
    let err = resume_with(&bad, "bad-magic");
    assert!(err.to_string().contains("magic"), "{err}");
    let mut bad = good.clone();
    bad[4] = 0xEE;
    let err = resume_with(&bad, "bad-version");
    assert!(err.to_string().contains("version"), "{err}");

    // Shape mismatches: the snapshot is intact but belongs to another
    // run — wrong element count, then wrong seed.
    let mut cfg = config.clone();
    cfg.resume = Some(config.checkpoint_path.clone());
    let err = Server::new(live_workload(5), cfg)
        .expect("server builds")
        .run()
        .expect_err("element-count mismatch");
    assert!(
        matches!(err, CoreError::LengthMismatch { .. }),
        "wrong-N must be a length error, got: {err}"
    );
    let mut cfg = config.clone();
    cfg.resume = Some(config.checkpoint_path.clone());
    cfg.engine.seed = 999;
    let err = Server::new(workload, cfg)
        .expect("server builds")
        .run()
        .expect_err("seed mismatch");
    assert!(err.to_string().contains("does not match"), "{err}");

    // A missing file is an error too, not a fresh start.
    let mut cfg = config.clone();
    cfg.resume = Some(dir.join("does-not-exist.snapshot"));
    let err = Server::new(live_workload(4), cfg)
        .expect("server builds")
        .run()
        .expect_err("missing snapshot");
    assert!(err.to_string().contains("snapshot read"), "{err}");
}

#[test]
fn http_shutdown_drains_and_the_drained_run_resumes() {
    use std::time::Duration;

    let dir = temp_dir("http");
    let workload = live_workload(4);
    let mut config = serve_config(&dir, 30);
    config.listen = Some("127.0.0.1:0".to_string());
    config.epoch_throttle = Some(Duration::from_millis(2));
    let checkpoint = config.checkpoint_path.clone();

    let mut reference = config.clone();
    reference.listen = None;
    reference.epoch_throttle = None;
    let expected = reference_json(&workload, &reference);

    let server = Server::new(workload.clone(), config.clone())
        .expect("server builds")
        .with_recorder(freshen::obs::Recorder::enabled());
    let addr = server.local_addr().expect("bound");
    let probe = std::thread::spawn(move || {
        let (status, body) = freshen::serve::request(addr, "GET", "/status").expect("/status");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"running\""), "{body}");
        std::thread::sleep(Duration::from_millis(10));
        let (status, _) = freshen::serve::request(addr, "POST", "/shutdown").expect("/shutdown");
        assert_eq!(status, 200);
    });
    let outcome = server.run().expect("served run");
    probe.join().expect("probe");
    assert_eq!(outcome.exit, ExitReason::Drained);
    assert!(outcome.epochs_run < 30, "shutdown landed mid-run");

    let mut resume = config;
    resume.listen = None;
    resume.epoch_throttle = None;
    resume.resume = Some(checkpoint);
    let resumed = Server::new(workload, resume)
        .expect("server builds")
        .run()
        .expect("resumed run");
    assert_eq!(resumed.report.expect("completed").to_json(), expected);
}
