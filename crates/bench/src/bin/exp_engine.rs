//! **Online engine benchmark** (DESIGN.md §9) — the drift-gated online
//! runtime against the re-solve-every-epoch oracle on a drifting
//! workload.
//!
//! Both runs share the same seeds, the same live update processes, and
//! the same access stream: a step change in user interest at mid-run
//! (the canonical §9 drifting workload). The oracle re-solves the Core
//! Problem at the end of *every* epoch; the engine re-solves only when
//! Jeffreys drift between its freshly estimated `(p̂, λ̂)` and the active
//! schedule's baseline crosses the threshold. The claim being measured:
//! near-oracle realized perceived freshness at a small fraction of the
//! re-solves.
//!
//! Pass `--smoke` for a seconds-scale run (used by CI); the full run uses
//! a larger mirror and longer horizon. Telemetry lands in
//! `results/BENCH_engine.json` (steady-state events/sec, realized PF).

use freshen_bench::{header, row, timed, BenchReport, BenchRun};
use freshen_core::problem::Problem;
use freshen_engine::{
    DriftingAccessStream, Engine, EngineConfig, EngineReport, LivePollSource, ResolvePolicy,
};
use freshen_obs::Recorder;

struct Workload {
    n: usize,
    epochs: usize,
    access_rate: f64,
    drift_threshold: f64,
    seed: u64,
}

impl Workload {
    /// Ground-truth change rates: a geometric spread the engine must
    /// discover (its prior is deliberately uniform).
    fn true_rates(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| 0.25 * 1.6f64.powi((i % 7) as i32))
            .collect()
    }

    /// Interest profile before the switch: mass concentrated on the low
    /// indices.
    fn profile_before(&self) -> Vec<f64> {
        normalize((0..self.n).map(|i| 1.0 / (i + 1) as f64).collect())
    }

    /// Interest profile after the switch: the same law, reversed — a step
    /// change in what users care about.
    fn profile_after(&self) -> Vec<f64> {
        let mut p = self.profile_before();
        p.reverse();
        p
    }

    /// The engine's prior belief: uniform interest, uniform rates.
    fn prior(&self) -> Problem {
        Problem::builder()
            .change_rates(vec![1.0; self.n])
            .access_weights(vec![1.0; self.n])
            .bandwidth(self.n as f64 / 2.0)
            .build()
            .expect("prior problem builds")
    }

    fn config(&self, policy: ResolvePolicy) -> EngineConfig {
        EngineConfig {
            epochs: self.epochs,
            warmup_epochs: self.epochs / 10,
            drift_threshold: self.drift_threshold,
            resolve_policy: policy,
            failure_rate: 0.05,
            seed: self.seed,
            // Benchmarks always run with the poll-credit ledger armed:
            // a conservation breach invalidates the numbers, so it
            // aborts the experiment instead of being published.
            audit: true,
            ..EngineConfig::default()
        }
    }

    /// One full engine run under `policy`, on freshly rebuilt (but
    /// identically seeded) streams so both policies see the same world.
    fn run(&self, policy: ResolvePolicy) -> (EngineReport, BenchRun, f64) {
        let config = self.config(policy);
        let horizon = config.horizon();
        let accesses = DriftingAccessStream::new(
            &self.profile_before(),
            &self.profile_after(),
            self.access_rate,
            horizon / 2.0,
            horizon,
            self.seed ^ 0xACCE55,
        )
        .expect("access stream");
        let mut source =
            LivePollSource::new(&self.true_rates(), self.seed ^ 0x50_11, horizon).expect("source");
        let recorder = Recorder::enabled();
        let label = match policy {
            ResolvePolicy::DriftGated => "engine-drift-gated",
            ResolvePolicy::EveryEpoch => "engine-oracle",
        };
        let (report, wall) = timed(|| {
            let mut engine = Engine::new(&self.prior(), config)
                .expect("engine builds")
                .with_recorder(recorder.clone());
            let report = engine
                .run(accesses, &mut source)
                .expect("engine run succeeds");
            let ledger = engine.ledger().expect("audit is armed");
            assert!(
                ledger.is_clean(),
                "{label}: poll-credit ledger breached ({} epoch(s)); \
                 benchmark numbers would be invalid",
                ledger.violations()
            );
            eprintln!(
                "# {label}: ledger clean over {} epochs (max residual {:.2e})",
                ledger.epochs().len(),
                ledger.max_residual()
            );
            report
        });
        let run = BenchRun::from_recorder(label, wall, &recorder);
        (report, run, wall)
    }
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let sum: f64 = v.iter().sum();
    for x in &mut v {
        *x /= sum;
    }
    v
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The drift threshold absorbs per-element estimation noise, which
    // grows with mirror size: larger mirrors need a wider dead-band for
    // the gate to separate real drift from jitter.
    let workload = if smoke {
        Workload {
            n: 20,
            epochs: 24,
            access_rate: 200.0,
            drift_threshold: 0.1,
            seed: 7,
        }
    } else {
        Workload {
            n: 200,
            epochs: 80,
            access_rate: 2000.0,
            drift_threshold: 0.3,
            seed: 7,
        }
    };

    println!(
        "# Online engine vs. re-solve-every-epoch oracle ({} elements, {} epochs, drift at mid-run)",
        workload.n, workload.epochs
    );
    header(&[
        "run",
        "realized_pf",
        "resolves",
        "resolve_fraction",
        "events",
        "events_per_sec",
    ]);

    let mut bench = BenchReport::new("engine")
        .with_meta("smoke", smoke)
        .with_meta("elements", workload.n)
        .with_meta("epochs", workload.epochs)
        .with_meta("access_rate", workload.access_rate)
        .with_meta("seed", workload.seed);
    let (gated, gated_run, _) = workload.run(ResolvePolicy::DriftGated);
    let (oracle, oracle_run, _) = workload.run(ResolvePolicy::EveryEpoch);
    for (report, run) in [(&gated, &gated_run), (&oracle, &oracle_run)] {
        row(
            &run.name,
            &[
                report.realized_pf,
                report.resolves as f64,
                report.resolve_fraction(),
                report.events as f64,
                run.events_per_sec.unwrap_or(0.0),
            ],
        );
        bench.push(run.clone());
    }

    println!(
        "# PF ratio (gated/oracle): {:.4}; re-solve ratio: {:.4}",
        gated.realized_pf / oracle.realized_pf,
        gated.resolve_fraction() / oracle.resolve_fraction().max(f64::MIN_POSITIVE),
    );
    match bench.write() {
        Ok(path) => println!("# telemetry: {}", path.display()),
        Err(e) => eprintln!("# telemetry write failed: {e}"),
    }
}
