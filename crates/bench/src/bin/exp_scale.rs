//! **Parallel scaling benchmark** — the Lagrange solve plus PF
//! evaluation across mirror sizes and worker counts, with hot-path
//! columns for incremental KKT repair and the poll dispatcher.
//!
//! For each mirror size N the serial baseline is the global Lagrange
//! solve followed by a serial PF evaluation; its wall time also yields
//! the single-thread solve throughput (elements/sec). Each (N, threads)
//! cell then runs the same solve on a thread pool (the allocation passes
//! fanned out in fixed chunks) plus the chunked parallel PF evaluation,
//! reporting wall-clock speedup over the serial baseline and PF parity
//! |pf − pf_serial| (the pool is bit-identical, so parity is 0).
//!
//! Three extra rows per size exercise the re-solve and dispatch paths:
//!
//! * `warm/…` — tilt ~1% of the change rates and re-solve, warm-started
//!   from the previous multiplier: what the adaptive loop runs when it
//!   does not repair.
//! * `repair/…` — the same drift through incremental KKT repair, the
//!   adaptive loop's other re-solve path, certified with the strict
//!   [`SolutionAudit`]; its `solver_iterations` are repair's passes, and
//!   the printed `speedup` column is warm re-solve time over repair time.
//! * `dispatch/…` — run the poll dispatcher (packed-key top-k admission,
//!   drain in admission order merged with a retry heap) over the solved
//!   schedule for a few epochs and report events/sec (single-thread; the
//!   dispatcher is serial by design) and its scratch buffers'
//!   `queue_grows`.
//!
//! Each (N, threads) cell also has a `certified/…` row: the pool solve
//! followed by the strict certificate on the same executor, the path an
//! offline certified plan runs. Its `speedup` is over the one-thread
//! certified row, its `solver_iterations` are the solve's passes, and its
//! `events_per_sec` counts active-element passes per second (the printed
//! `ns per active element per pass` is its inverse).
//!
//! A cell whose first run takes under [`REPEAT_BELOW_SECONDS`] is timed
//! as the median of at least [`REPEATS`] runs that together take that
//! long, each with a fresh recorder and with its setup (solver clone,
//! dispatcher, thread pool) outside the timed region, so the CI
//! regression guard does not read a single noisy sample.
//!
//! Grid: N ∈ {10⁴, 10⁵, 10⁶, 10⁷} × threads ∈ {1, 2, 4, 8}, keeping the
//! thread counts the machine has cores for; pass `--smoke` for the
//! CI-sized grid N ∈ {10⁴, 10⁵}. Telemetry lands in
//! `results/BENCH_scale.json`, stamped with the available core count.

use freshen_bench::{header, row, timed, BenchReport, BenchRun};
use freshen_core::exec::Executor;
use freshen_core::policy::SyncPolicy;
use freshen_core::problem::{Problem, STATIC_RATE};
use freshen_core::SolutionAudit;
use freshen_engine::{EngineConfig, PollDispatcher, PollSource};
use freshen_obs::Recorder;
use freshen_solver::LagrangeSolver;

/// Epochs driven through the dispatcher per size (the first epoch sizes
/// its scratch buffers; all epochs count toward throughput).
const DISPATCH_EPOCHS: usize = 3;

/// Fewest runs timed per cell when its first run is short.
const REPEATS: usize = 5;

/// A cell whose first run takes at least this long is timed once; a
/// shorter cell repeats until its runs add up to this long, so that its
/// median rides out bursts of host load shorter than about half of it.
const REPEAT_BELOW_SECONDS: f64 = 1.0;

/// Time `run` over the state `setup` builds outside the timed region,
/// each run with a fresh enabled recorder and a fresh state: once when
/// the first run takes [`REPEAT_BELOW_SECONDS`] or more, else at least
/// [`REPEATS`] times and until the runs add up to
/// [`REPEAT_BELOW_SECONDS`]. Returns the median run's output, recorder
/// and wall seconds.
fn median_timed<S, T>(
    mut setup: impl FnMut(&Recorder) -> S,
    mut run: impl FnMut(&mut S) -> T,
) -> (T, Recorder, f64) {
    let mut samples = Vec::with_capacity(REPEATS);
    let mut total = 0.0;
    while samples.len() < REPEATS || total < REPEAT_BELOW_SECONDS {
        let recorder = Recorder::enabled();
        let mut state = setup(&recorder);
        let (out, wall) = timed(|| run(&mut state));
        total += wall;
        samples.push((wall, out, recorder));
        if samples[0].0 >= REPEAT_BELOW_SECONDS {
            break;
        }
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, out, recorder) = samples.swap_remove(samples.len() / 2);
    (out, recorder, wall)
}

/// Deterministic synthetic mirror: striped rates, Zipf-flavoured access
/// weights, and a striped size mix — no RNG, so every run and every
/// worker count sees byte-identical inputs.
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

/// Tilt every `stride`-th change rate by ×1.5, returning the drifted
/// problem and the touched ids — the localized-drift input incremental
/// repair is built for.
fn drifted(problem: &Problem, stride: usize) -> (Problem, Vec<usize>) {
    let mut rates = problem.change_rates().to_vec();
    let mut touched = Vec::new();
    for i in (0..rates.len()).step_by(stride) {
        rates[i] *= 1.5;
        touched.push(i);
    }
    let after = Problem::builder()
        .change_rates(rates)
        .access_probs(problem.access_probs().to_vec())
        .sizes(problem.sizes().to_vec())
        .bandwidth(problem.bandwidth())
        .build()
        .expect("drifted problem builds");
    (after, touched)
}

/// Poll source for the dispatcher throughput row: alternating outcomes,
/// no RNG, O(1) per poll.
struct StripedSource;

impl PollSource for StripedSource {
    fn poll(&mut self, element: usize, _time: f64) -> bool {
        !element.is_multiple_of(3)
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A pool wider than the machine only measures contention.
    let thread_grid: Vec<usize> = [1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cores)
        .collect();

    println!("# Pool solve+evaluate scaling ({cores} cores available)");
    header(&[
        "run",
        "n",
        "threads",
        "wall_seconds",
        "speedup",
        "pf",
        "pf_parity",
    ]);

    let mut bench = BenchReport::new("scale")
        .with_meta("smoke", smoke)
        .with_meta("cores", cores)
        .with_meta(
            "sizes",
            sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
        )
        .with_meta(
            "threads",
            thread_grid
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
        );
    let base = LagrangeSolver::default();
    let solver_with = |recorder: &Recorder| base.clone().with_recorder(recorder.clone());
    for &n in sizes {
        let problem = scale_problem(n);

        // Serial baseline: global solve + serial evaluation. Wall time
        // doubles as the single-thread solve throughput figure.
        let ((serial_solution, serial_pf), serial_recorder, serial_wall) =
            median_timed(solver_with, |solver| {
                let solution = solver.solve(&problem).expect("serial solve");
                let pf = problem.perceived_freshness(&solution.frequencies);
                (solution, pf)
            });
        let solve_elements_per_sec = n as f64 / serial_wall.max(f64::MIN_POSITIVE);
        println!("# solve/n={n}: {solve_elements_per_sec:.0} elements/sec single-thread");
        let label = format!("serial/n={n}");
        row(&label, &[n as f64, 1.0, serial_wall, 1.0, serial_pf, 0.0]);
        let mut serial_run = BenchRun::from_recorder(&label, serial_wall, &serial_recorder);
        serial_run.pf = Some(serial_pf);
        serial_run.events_per_sec = Some(solve_elements_per_sec);
        bench.push(serial_run);

        // Incremental repair vs. a full warm re-solve on ~1% local drift.
        // Both start from the same certified previous optimum; the repair
        // output must itself clear the strict KKT certificate.
        let stride = (n / 100).max(2);
        let (after, touched) = drifted(&problem, stride);
        let mu = serial_solution.multiplier.expect("serial solve converged");
        let (full, warm_recorder, full_wall) = median_timed(solver_with, |solver| {
            solver.solve_warm(&after, mu).expect("full warm re-solve")
        });
        let label = format!("warm/n={n}");
        let warm_pf = after.perceived_freshness(&full.frequencies);
        row(&label, &[n as f64, 1.0, full_wall, 1.0, warm_pf, 0.0]);
        let mut warm_run = BenchRun::from_recorder(&label, full_wall, &warm_recorder);
        warm_run.pf = Some(warm_pf);
        bench.push(warm_run);
        let (outcome, _, repair_wall) = median_timed(solver_with, |solver| {
            solver
                .repair(&after, &serial_solution, &touched)
                .expect("repair converges on local drift")
        });
        let repair_speedup = full_wall / repair_wall.max(f64::MIN_POSITIVE);
        println!(
            "# repair/n={n}: {} passes in {repair_wall:.3}s vs warm re-solve {} passes in \
             {full_wall:.3}s ({repair_speedup:.2}x)",
            outcome.probes, full.iterations,
        );
        let repaired = outcome.solution;
        let certificate = SolutionAudit::default()
            .check(&after, &repaired, base.policy)
            .expect("audit runs");
        assert!(
            certificate.is_clean(),
            "n={n}: repaired solution failed the strict certificate: {}",
            certificate.to_json()
        );
        let repair_pf = after.perceived_freshness(&repaired.frequencies);
        let label = format!("repair/n={n}");
        row(
            &label,
            &[
                n as f64,
                1.0,
                repair_wall,
                repair_speedup,
                repair_pf,
                (touched.len() as f64) / n as f64,
            ],
        );
        bench.push(BenchRun {
            name: label,
            wall_seconds: repair_wall,
            pf: Some(repair_pf),
            solver_iterations: Some(outcome.probes as u64),
            events_per_sec: None,
            tail_error: None,
        });

        // Dispatcher throughput over the solved schedule
        // (single-thread by design: the drain is a serial total order).
        let config = EngineConfig {
            failure_rate: 0.05,
            max_retries: 1,
            seed: 7,
            ..EngineConfig::default()
        };
        let priorities: Vec<f64> = problem
            .access_probs()
            .iter()
            .zip(problem.change_rates())
            .map(|(&p, &l)| p * l)
            .collect();
        let new_dispatcher = |_: &Recorder| {
            PollDispatcher::new(n, problem.bandwidth(), &config).expect("dispatcher builds")
        };
        let ((events, queue_grows), _, dispatch_wall) =
            median_timed(new_dispatcher, |dispatcher| {
                let mut events = 0u64;
                for epoch in 0..DISPATCH_EPOCHS {
                    let outcome = dispatcher
                        .run_epoch(
                            epoch,
                            epoch as f64,
                            1.0,
                            &serial_solution.frequencies,
                            &priorities,
                            &mut StripedSource,
                            &Recorder::disabled(),
                        )
                        .expect("dispatch epoch");
                    events += outcome.dispatched;
                }
                (events, dispatcher.queue_grows())
            });
        let events_per_sec = events as f64 / dispatch_wall.max(f64::MIN_POSITIVE);
        println!("# dispatch/n={n}: {events_per_sec:.0} events/sec single-thread");
        let label = format!("dispatch/n={n}");
        row(
            &label,
            &[
                n as f64,
                1.0,
                dispatch_wall,
                events_per_sec,
                serial_pf,
                queue_grows as f64,
            ],
        );
        bench.push(BenchRun {
            name: label,
            wall_seconds: dispatch_wall,
            pf: None,
            solver_iterations: None,
            events_per_sec: Some(events_per_sec),
            tail_error: None,
        });

        let active = problem
            .access_probs()
            .iter()
            .zip(problem.change_rates())
            .filter(|&(&p, &lam)| p > 0.0 && lam > STATIC_RATE)
            .count();
        // The one-thread certified plan, the baseline of the others.
        let mut certified_serial_wall = None;
        for &threads in &thread_grid {
            let pool_solver = |recorder: &Recorder| {
                let executor = Executor::thread_pool(threads).with_recorder(recorder.clone());
                (
                    solver_with(recorder).with_executor(executor.clone()),
                    executor,
                )
            };
            let (pf, recorder, wall) = median_timed(pool_solver, |(solver, executor)| {
                let solution = solver.solve(&problem).expect("pool solve");
                problem.perceived_freshness_with(
                    SyncPolicy::FixedOrder,
                    &solution.frequencies,
                    executor,
                )
            });
            let speedup = serial_wall / wall.max(f64::MIN_POSITIVE);
            let parity = (pf - serial_pf).abs();
            let label = format!("pool/n={n}/threads={threads}");
            row(
                &label,
                &[n as f64, threads as f64, wall, speedup, pf, parity],
            );
            let mut run = BenchRun::from_recorder(&label, wall, &recorder);
            run.pf = Some(pf);
            bench.push(run);

            // The certified plan: the same solve, then the strict
            // certificate on the same executor.
            let ((pf, passes), recorder, wall) = median_timed(pool_solver, |(solver, executor)| {
                let solution = solver.solve(&problem).expect("certified solve");
                let certificate = SolutionAudit::default()
                    .with_executor(executor.clone())
                    .check(&problem, &solution, base.policy)
                    .expect("audit runs");
                assert!(
                    certificate.is_clean(),
                    "n={n}: solution failed the strict certificate: {}",
                    certificate.to_json()
                );
                (solution.perceived_freshness, solution.iterations)
            });
            let element_passes = (active * passes) as f64;
            let label = format!("certified/n={n}/threads={threads}");
            println!(
                "# {label}: {passes} passes, {:.1} ns per active element per pass",
                wall * 1e9 / element_passes
            );
            let baseline = *certified_serial_wall.get_or_insert(wall);
            let speedup = baseline / wall.max(f64::MIN_POSITIVE);
            row(
                &label,
                &[
                    n as f64,
                    threads as f64,
                    wall,
                    speedup,
                    pf,
                    (pf - serial_pf).abs(),
                ],
            );
            let mut run = BenchRun::from_recorder(&label, wall, &recorder);
            run.pf = Some(pf);
            run.events_per_sec = Some(element_passes / wall.max(f64::MIN_POSITIVE));
            bench.push(run);
        }
    }

    match bench.write() {
        Ok(path) => println!("# telemetry: {}", path.display()),
        Err(e) => eprintln!("# telemetry write failed: {e}"),
    }
}
