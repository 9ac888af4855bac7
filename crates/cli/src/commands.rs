//! The subcommands: scenario, solve, heuristic, simulate, timetable,
//! estimate, engine, audit.

use std::io::Write;

use freshen_core::audit::SolutionAudit;
use freshen_core::exec::Executor;
use freshen_core::policy::SyncPolicy;
use freshen_core::problem::{Problem, Solution};
use freshen_core::schedule::ScheduleStream;
use freshen_engine::{
    Engine, EngineConfig, EstimatorKind, LiveAccessStream, LivePollSource, PollSource,
    ReplayPollSource, ResolvePolicy,
};
use freshen_fleet::{Fleet, FleetConfig, FleetSpec};
use freshen_heuristics::{
    AllocationPolicy, HeuristicConfig, HeuristicScheduler, PartitionCriterion,
};
use freshen_obs::{Recorder, SloConfig};
use freshen_serve::{ServeConfig, ServeWorkload, Server, ACCESS_SEED_SALT, POLL_SEED_SALT};
use freshen_sim::{SimConfig, Simulation};
use freshen_solver::{LagrangeSolver, ProjectedGradientSolver};
use freshen_workload::scenario::{Alignment, Scenario, SizeAlignment, SizeDist};

fn read_problem(path: &str) -> Result<Problem, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read problem file `{path}`: {e}"))?;
    Problem::from_json(&text).map_err(|e| format!("cannot parse problem `{path}`: {e}"))
}

fn read_schedule(path: &str, expected_len: usize) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read schedule file `{path}`: {e}"))?;
    let sol =
        Solution::from_json(&text).map_err(|e| format!("cannot parse schedule `{path}`: {e}"))?;
    if sol.frequencies.len() != expected_len {
        return Err(format!(
            "schedule covers {} elements but the problem has {expected_len}",
            sol.frequencies.len()
        ));
    }
    Ok(sol.frequencies)
}

fn parse_policy(raw: Option<&str>) -> Result<SyncPolicy, String> {
    match raw {
        None | Some("fixed") => Ok(SyncPolicy::FixedOrder),
        Some("poisson") => Ok(SyncPolicy::Poisson),
        Some(other) => Err(format!("unknown policy `{other}` (fixed|poisson)")),
    }
}

fn write_json(text: &str, out: &mut dyn Write) -> Result<(), String> {
    writeln!(out, "{text}").map_err(|e| e.to_string())
}

/// Build the observability recorder for a command from its
/// `--metrics-out` / `--trace-out` flags: enabled only when at least one
/// output is requested, so un-instrumented invocations pay nothing.
fn obs_recorder(args: &crate::ParsedArgs) -> (Recorder, Option<&str>, Option<&str>) {
    let metrics = args.get("metrics-out");
    let trace = args.get("trace-out");
    let recorder = if metrics.is_some() || trace.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    (recorder, metrics, trace)
}

/// Build the executor for a command from its `--threads` flag: an
/// explicit positive value wins, `0` or absence falls back to the
/// `FRESHEN_THREADS` environment variable, and an unset environment means
/// serial execution.
fn exec_from_args(args: &crate::ParsedArgs, recorder: &Recorder) -> Result<Executor, String> {
    let threads: usize = args.parsed_or("threads", 0usize)?;
    let threads = if threads == 0 { None } else { Some(threads) };
    Ok(Executor::from_threads(threads).with_recorder(recorder.clone()))
}

/// Flush the requested observability outputs after a command finishes.
fn write_obs_outputs(
    recorder: &Recorder,
    metrics: Option<&str>,
    trace: Option<&str>,
) -> Result<(), String> {
    if let (Some(path), Some(json)) = (metrics, recorder.metrics_json()) {
        std::fs::write(path, json)
            .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
    }
    if let (Some(path), Some(json)) = (trace, recorder.chrome_trace_json()) {
        std::fs::write(path, json).map_err(|e| format!("cannot write trace file `{path}`: {e}"))?;
    }
    Ok(())
}

/// `freshen scenario` — generate a synthetic problem as JSON.
pub fn cmd_scenario(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "objects",
        "updates",
        "syncs",
        "theta",
        "alignment",
        "std-dev",
        "pareto-sizes",
        "size-alignment",
        "seed",
    ])?;
    let mut builder = Scenario::builder()
        .num_objects(args.require_parsed("objects")?)
        .updates_per_period(args.require_parsed("updates")?)
        .syncs_per_period(args.require_parsed("syncs")?)
        .zipf_theta(args.parsed_or("theta", 0.0)?)
        .update_std_dev(args.parsed_or("std-dev", 1.0)?)
        .seed(args.parsed_or("seed", 0u64)?);
    builder = builder.alignment(match args.get("alignment") {
        None | Some("shuffled") => Alignment::ShuffledChange,
        Some("aligned") => Alignment::Aligned,
        Some("reverse") => Alignment::Reverse,
        Some(other) => return Err(format!("unknown alignment `{other}`")),
    });
    if let Some(shape) = args.get("pareto-sizes") {
        let shape: f64 = shape
            .parse()
            .map_err(|_| format!("--pareto-sizes: cannot parse `{shape}`"))?;
        builder = builder.size_dist(SizeDist::Pareto { shape });
        builder = builder.size_alignment(match args.get("size-alignment") {
            None | Some("aligned") => SizeAlignment::AlignedWithChange,
            Some("reverse") => SizeAlignment::ReverseOfChange,
            Some("shuffled") => SizeAlignment::Shuffled,
            Some(other) => return Err(format!("unknown size-alignment `{other}`")),
        });
    } else if args.get("size-alignment").is_some() {
        return Err("--size-alignment requires --pareto-sizes".into());
    }
    let problem = builder
        .build()
        .map_err(|e| e.to_string())?
        .problem()
        .map_err(|e| e.to_string())?;
    write_json(&problem.to_json(), out)
}

/// `freshen solve` — exact Lagrange solve, or a tiered relay solve when
/// `--topology` names a spec file.
pub fn cmd_solve(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "input",
        "policy",
        "threads",
        "metrics-out",
        "trace-out",
        "topology",
        "split-budget",
    ])?;
    if let Some(spec_path) = args.get("topology") {
        return cmd_solve_topology(args, spec_path, out);
    }
    if args.get("split-budget").is_some() {
        return Err("--split-budget requires --topology".into());
    }
    let (recorder, metrics, trace) = obs_recorder(args);
    let executor = exec_from_args(args, &recorder)?;
    let problem = read_problem(args.require("input")?)?;
    let solver = LagrangeSolver {
        policy: parse_policy(args.get("policy"))?,
        recorder: recorder.clone(),
        executor,
        ..Default::default()
    };
    let solution = solver.solve(&problem).map_err(|e| e.to_string())?;
    write_obs_outputs(&recorder, metrics, trace)?;
    write_json(&solution.to_json(), out)
}

/// The `--topology` arm of `freshen solve`: load a relay spec, solve the
/// tiered program (optionally re-splitting one total budget across
/// tiers), certify every tier, and emit the per-link schedule.
///
/// The spec file is `{"topology": {nodes, links}, "problem": {...}}`;
/// an external `--input problem.json` may replace the inline block.
fn cmd_solve_topology(
    args: &crate::ParsedArgs,
    spec_path: &str,
    out: &mut dyn Write,
) -> Result<(), String> {
    use freshen_core::json::Json;
    use freshen_core::topology::{problem_from_json, Topology};
    use freshen_solver::TieredSolver;

    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read topology spec `{spec_path}`: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let problem = match doc.get("problem") {
        Some(block) => problem_from_json(block).map_err(|e| e.to_string())?,
        None => read_problem(args.require("input").map_err(|_| {
            format!("spec `{spec_path}` has no inline \"problem\" block; pass --input")
        })?)?,
    };
    let topo_doc = doc.get("topology").unwrap_or(&doc);
    let topology = Topology::from_spec(topo_doc, problem.len()).map_err(|e| e.to_string())?;

    let solver = TieredSolver {
        base: LagrangeSolver {
            policy: parse_policy(args.get("policy"))?,
            executor: exec_from_args(args, &Recorder::disabled())?,
            ..Default::default()
        },
        ..Default::default()
    };
    let solution = match args.get("split-budget") {
        Some(raw) => {
            let total: f64 = raw
                .parse()
                .map_err(|_| format!("--split-budget: cannot parse `{raw}`"))?;
            solver
                .solve_split(&topology, &problem, total)
                .map_err(|e| e.to_string())?
        }
        None => solver
            .solve(&topology, &problem)
            .map_err(|e| e.to_string())?,
    };
    let reports = solver
        .certify(&topology, &problem, &solution)
        .map_err(|e| e.to_string())?;
    let certified = reports.iter().filter(|r| r.is_clean()).count();

    let list = |xs: &[f64]| -> String {
        let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", parts.join(","))
    };
    let mut links = Vec::new();
    for (l, link) in topology.links().iter().enumerate() {
        links.push(format!(
            "{{\"from\":\"{}\",\"to\":\"{}\",\"frequencies\":{}}}",
            topology.names()[link.from],
            topology.names()[link.to],
            list(&solution.schedule.link_freqs[l])
        ));
    }
    writeln!(
        out,
        "{{\n  \"edge_pf\": {},\n  \"rounds\": {},\n  \"certified_tiers\": {},\n  \"tiers\": {},\n  \"node_pf\": {},\n  \"node_spend\": {},\n  \"budgets\": {},\n  \"links\": [{}]\n}}",
        solution.edge_pf,
        solution.rounds,
        certified,
        reports.len(),
        list(&solution.node_pf),
        list(&solution.node_spend),
        list(&solution.budgets),
        links.join(",")
    )
    .map_err(|e| e.to_string())
}

/// `freshen heuristic` — the scalable pipeline.
pub fn cmd_heuristic(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "input",
        "partitions",
        "kmeans",
        "criterion",
        "allocation",
        "threads",
        "metrics-out",
        "trace-out",
    ])?;
    let (recorder, metrics, trace) = obs_recorder(args);
    let executor = exec_from_args(args, &recorder)?;
    let problem = read_problem(args.require("input")?)?;
    let criterion = match args.get("criterion") {
        None | Some("pf") => PartitionCriterion::PerceivedFreshness,
        Some("p") => PartitionCriterion::AccessProb,
        Some("lambda") => PartitionCriterion::ChangeRate,
        Some("p-over-lambda") => PartitionCriterion::AccessOverChange,
        Some("pf-size") => PartitionCriterion::PerceivedFreshnessPerSize,
        Some("size") => PartitionCriterion::Size,
        Some(other) => return Err(format!("unknown criterion `{other}`")),
    };
    let allocation = match args.get("allocation") {
        None | Some("fba") => AllocationPolicy::FixedBandwidth,
        Some("ffa") => AllocationPolicy::FixedFrequency,
        Some(other) => return Err(format!("unknown allocation `{other}` (fba|ffa)")),
    };
    let config = HeuristicConfig {
        criterion,
        num_partitions: args.require_parsed("partitions")?,
        kmeans_iterations: args.parsed_or("kmeans", 0usize)?,
        allocation,
        reference_frequency: 1.0,
    };
    let result = HeuristicScheduler::new(config)
        .map_err(|e| e.to_string())?
        .with_recorder(recorder.clone())
        .with_executor(executor)
        .solve(&problem)
        .map_err(|e| e.to_string())?;
    write_obs_outputs(&recorder, metrics, trace)?;
    write_json(&result.solution.to_json(), out)
}

/// `freshen simulate` — run the discrete-event simulator.
pub fn cmd_simulate(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "input",
        "schedule",
        "periods",
        "warmup",
        "accesses",
        "seed",
        "policy",
        "threads",
        "metrics-out",
        "trace-out",
    ])?;
    let (recorder, metrics, trace) = obs_recorder(args);
    let executor = exec_from_args(args, &recorder)?;
    let problem = read_problem(args.require("input")?)?;
    let freqs = read_schedule(args.require("schedule")?, problem.len())?;
    let config = SimConfig {
        periods: args.parsed_or("periods", 50.0)?,
        warmup_periods: args.parsed_or("warmup", 2.0)?,
        accesses_per_period: args.parsed_or("accesses", 1000.0)?,
        seed: args.parsed_or("seed", 0u64)?,
    };
    let report = Simulation::new(&problem, &freqs, config)
        .map_err(|e| e.to_string())?
        .with_sync_policy(parse_policy(args.get("policy"))?)
        .with_recorder(recorder.clone())
        .with_executor(executor)
        .run()
        .map_err(|e| e.to_string())?;
    write_obs_outputs(&recorder, metrics, trace)?;
    write_json(&report.summary_json(), out)
}

/// `freshen estimate` — learn a problem from access/poll logs (§7 loop):
/// ship your request log and poll log, get a ready-to-solve problem JSON.
pub fn cmd_estimate(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "elements",
        "bandwidth",
        "accesses",
        "polls",
        "smoothing",
        "fallback-rate",
    ])?;
    let n: usize = args.require_parsed("elements")?;
    let bandwidth: f64 = args.require_parsed("bandwidth")?;
    let access_path = args.require("accesses")?;
    let access_text = std::fs::read_to_string(access_path)
        .map_err(|e| format!("cannot read access log `{access_path}`: {e}"))?;
    let accesses =
        freshen_workload::trace::parse_access_log(&access_text).map_err(|e| e.to_string())?;
    let polls = match args.get("polls") {
        None => Vec::new(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read poll log `{path}`: {e}"))?;
            freshen_workload::trace::parse_poll_log(&text).map_err(|e| e.to_string())?
        }
    };
    let smoothing: f64 = args.parsed_or("smoothing", 0.5)?;
    let fallback: f64 = args.parsed_or("fallback-rate", 1.0)?;
    let learned =
        freshen_workload::trace::learn_from_logs(n, &accesses, &polls, smoothing, fallback)
            .map_err(|e| e.to_string())?;
    let problem = Problem::builder()
        .change_rates(learned.change_rates)
        .access_probs(learned.access_probs)
        .bandwidth(bandwidth)
        .build()
        .map_err(|e| e.to_string())?;
    write_json(&problem.to_json(), out)
}

/// The flags `engine` accepts, all of which `serve` accepts too: the
/// workload, the engine configuration that [`engine_config_from_args`]
/// parses, and the outputs.
const ENGINE_FLAGS: &[&str] = &[
    "trace",
    "polls",
    "elements",
    "bandwidth",
    "live",
    "access-rate",
    "epochs",
    "epoch-len",
    "warmup",
    "drift-threshold",
    "policy",
    "estimator",
    "gain",
    "decay",
    "window",
    "poll-cost",
    "cost-budget",
    "smoothing",
    "fallback-rate",
    "budget-factor",
    "max-backlog",
    "failure-rate",
    "max-retries",
    "retry-backoff",
    "seed",
    "threads",
    "progress",
    "slo-target-pf",
    "report-out",
    "metrics-out",
    "trace-out",
];

/// The flags only `serve` accepts, beside [`ENGINE_FLAGS`].
const SERVE_FLAGS: &[&str] = &[
    "listen",
    "checkpoint-every",
    "checkpoint",
    "resume",
    "drain-after",
];

/// Parse the engine-configuration flags shared by `engine` and `serve`.
fn engine_config_from_args(args: &crate::ParsedArgs) -> Result<EngineConfig, String> {
    let defaults = EngineConfig::default();
    let estimator = match args.get("estimator") {
        None | Some("ewma") => EstimatorKind::Ewma {
            gain: args.parsed_or("gain", 0.1)?,
        },
        Some("window") => EstimatorKind::Window {
            len: args.parsed_or("window", 8usize)?,
        },
        Some("lln") => EstimatorKind::Lln,
        Some("sa") => EstimatorKind::Sa {
            gain: args.parsed_or("gain", 0.5)?,
            decay: args.parsed_or("decay", 0.75)?,
        },
        Some(other) => return Err(format!("unknown estimator `{other}` (ewma|window|lln|sa)")),
    };
    let resolve_policy = match args.get("policy") {
        None | Some("drift") => ResolvePolicy::DriftGated,
        Some("oracle") => ResolvePolicy::EveryEpoch,
        Some(other) => return Err(format!("unknown policy `{other}` (drift|oracle)")),
    };
    // `--slo-target-pf` arms the SLO engine with a perceived-freshness
    // floor; the remaining rules keep their defaults. Absent, the run
    // carries telemetry but no health evaluation.
    let slo = match args.get("slo-target-pf") {
        None => None,
        Some(_) => Some(SloConfig {
            target_pf: args.require_parsed("slo-target-pf")?,
            ..SloConfig::default()
        }),
    };
    // `--poll-cost` sets the levy directly; `--cost-budget` has the
    // solver calibrate it from the spend cap (mutually exclusive —
    // `EngineConfig::validate` enforces that).
    let cost_budget = match args.get("cost-budget") {
        None => None,
        Some(_) => Some(args.require_parsed("cost-budget")?),
    };
    Ok(EngineConfig {
        slo,
        poll_cost: args.parsed_or("poll-cost", defaults.poll_cost)?,
        cost_budget,
        progress_every: args.parsed_or("progress", 0usize)?,
        epochs: args.parsed_or("epochs", defaults.epochs)?,
        epoch_len: args.parsed_or("epoch-len", defaults.epoch_len)?,
        warmup_epochs: args.parsed_or("warmup", defaults.warmup_epochs)?,
        drift_threshold: args.parsed_or("drift-threshold", defaults.drift_threshold)?,
        resolve_policy,
        estimator,
        smoothing: args.parsed_or("smoothing", defaults.smoothing)?,
        fallback_rate: args.parsed_or("fallback-rate", defaults.fallback_rate)?,
        budget_factor: args.parsed_or("budget-factor", defaults.budget_factor)?,
        max_backlog: args.parsed_or("max-backlog", defaults.max_backlog)?,
        failure_rate: args.parsed_or("failure-rate", defaults.failure_rate)?,
        max_retries: args.parsed_or("max-retries", defaults.max_retries)?,
        retry_backoff: args.parsed_or("retry-backoff", defaults.retry_backoff)?,
        seed: args.parsed_or("seed", defaults.seed)?,
        ..defaults
    })
}

/// `freshen engine` — run the online freshening runtime over a recorded
/// trace (`--trace`/`--polls`) or a live simulated workload (`--live`).
pub fn cmd_engine(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(ENGINE_FLAGS)?;
    let (recorder, metrics, trace_out) = obs_recorder(args);
    let executor = exec_from_args(args, &recorder)?;
    let config = engine_config_from_args(args)?;

    let report = match (args.get("trace"), args.get("live")) {
        (Some(_), Some(_)) => {
            return Err("--trace and --live are mutually exclusive".into());
        }
        (Some(access_path), None) => {
            // Trace replay: streaming access reader (O(1) memory), poll
            // outcomes grouped per element.
            let n: usize = args.require_parsed("elements")?;
            let bandwidth: f64 = args.require_parsed("bandwidth")?;
            let file = std::fs::File::open(access_path)
                .map_err(|e| format!("cannot read access log `{access_path}`: {e}"))?;
            let accesses =
                freshen_workload::trace::AccessLogReader::new(std::io::BufReader::new(file));
            let polls = match args.get("polls") {
                None => Vec::new(),
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read poll log `{path}`: {e}"))?;
                    freshen_workload::trace::parse_poll_log(&text).map_err(|e| e.to_string())?
                }
            };
            let prior = Problem::builder()
                .change_rates(vec![config.fallback_rate; n])
                .access_weights(vec![1.0; n])
                .bandwidth(bandwidth)
                .build()
                .map_err(|e| e.to_string())?;
            let mut source = ReplayPollSource::new(n, &polls).map_err(|e| e.to_string())?;
            run_engine(
                &prior,
                config,
                accesses,
                &mut source,
                recorder.clone(),
                executor,
            )?
        }
        (None, Some(problem_path)) => {
            // Live mode: the problem file supplies the ground truth the
            // engine must discover through its own polls and accesses.
            let problem = read_problem(problem_path)?;
            let access_rate: f64 = args.parsed_or("access-rate", 100.0)?;
            let horizon = config.horizon();
            let accesses = LiveAccessStream::new(
                problem.access_probs(),
                access_rate,
                config.seed ^ ACCESS_SEED_SALT,
                horizon,
            )
            .map_err(|e| e.to_string())?;
            let mut source = LivePollSource::new(
                problem.change_rates(),
                config.seed ^ POLL_SEED_SALT,
                horizon,
            )
            .map_err(|e| e.to_string())?;
            run_engine(
                &problem,
                config,
                accesses,
                &mut source,
                recorder.clone(),
                executor,
            )?
        }
        (None, None) => {
            return Err("one of --trace or --live is required".into());
        }
    };

    write_obs_outputs(&recorder, metrics, trace_out)?;
    let json = report.to_json();
    match args.get("report-out") {
        Some(path) => std::fs::write(path, &json)
            .map_err(|e| format!("cannot write report file `{path}`: {e}")),
        None => out.write_all(json.as_bytes()).map_err(|e| e.to_string()),
    }
}

fn run_engine<I>(
    prior: &Problem,
    config: EngineConfig,
    accesses: I,
    source: &mut dyn PollSource,
    recorder: Recorder,
    executor: Executor,
) -> Result<freshen_engine::EngineReport, String>
where
    I: IntoIterator<Item = freshen_core::error::Result<freshen_workload::trace::AccessRecord>>,
{
    Engine::new(prior, config)
        .map_err(|e| e.to_string())?
        .with_recorder(recorder)
        .with_executor(executor)
        .run(accesses, source)
        .map_err(|e| e.to_string())
}

/// `freshen serve` — run the engine as a long-lived service with
/// checkpoint/restore, graceful shutdown, and an HTTP control plane.
pub fn cmd_serve(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[ENGINE_FLAGS, SERVE_FLAGS].concat())?;
    let (mut recorder, metrics, trace_out) = obs_recorder(args);
    if args.get("listen").is_some() {
        // The control plane's /metrics route needs a live recorder even
        // when no file outputs were requested.
        recorder = Recorder::enabled();
    }
    let executor = exec_from_args(args, &recorder)?;
    let config = engine_config_from_args(args)?;

    let workload = match (args.get("trace"), args.get("live")) {
        (Some(_), Some(_)) => {
            return Err("--trace and --live are mutually exclusive".into());
        }
        (Some(access_path), None) => {
            let elements: usize = args.require_parsed("elements")?;
            let bandwidth: f64 = args.require_parsed("bandwidth")?;
            let file = std::fs::File::open(access_path)
                .map_err(|e| format!("cannot read access log `{access_path}`: {e}"))?;
            // Serve replays may resume mid-run, so the log is held in
            // memory (unlike the one-shot engine's streaming reader).
            let accesses: Result<Vec<_>, _> =
                freshen_workload::trace::AccessLogReader::new(std::io::BufReader::new(file))
                    .collect();
            let accesses = accesses.map_err(|e| e.to_string())?;
            let polls = match args.get("polls") {
                None => Vec::new(),
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read poll log `{path}`: {e}"))?;
                    freshen_workload::trace::parse_poll_log(&text).map_err(|e| e.to_string())?
                }
            };
            ServeWorkload::Replay {
                elements,
                bandwidth,
                accesses,
                polls,
            }
        }
        (None, Some(problem_path)) => ServeWorkload::Live {
            problem: read_problem(problem_path)?,
            access_rate: args.parsed_or("access-rate", 100.0)?,
        },
        (None, None) => {
            return Err("one of --trace or --live is required".into());
        }
    };

    let drain_after = match args.get("drain-after") {
        None => None,
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|e| format!("cannot parse --drain-after `{raw}`: {e}"))?,
        ),
    };
    let serve_config = ServeConfig {
        engine: config,
        listen: args.get("listen").map(String::from),
        checkpoint_every: args.parsed_or("checkpoint-every", 0usize)?,
        checkpoint_path: args.get("checkpoint").unwrap_or("freshen.snapshot").into(),
        resume: args.get("resume").map(std::path::PathBuf::from),
        drain_after,
        epoch_throttle: None,
    };

    let server = Server::new(workload, serve_config)
        .map_err(|e| e.to_string())?
        .with_recorder(recorder.clone())
        .with_executor(executor);
    if let Some(addr) = server.local_addr() {
        writeln!(out, "control plane listening on http://{addr}").map_err(|e| e.to_string())?;
    }
    let outcome = server.run().map_err(|e| e.to_string())?;
    write_obs_outputs(&recorder, metrics, trace_out)?;

    match outcome.report {
        Some(report) => {
            let json = report.to_json();
            match args.get("report-out") {
                Some(path) => std::fs::write(path, &json)
                    .map_err(|e| format!("cannot write report file `{path}`: {e}")),
                None => out.write_all(json.as_bytes()).map_err(|e| e.to_string()),
            }
        }
        None => writeln!(
            out,
            "drained after {} epoch(s); {} checkpoint(s) written",
            outcome.epochs_run, outcome.checkpoints
        )
        .map_err(|e| e.to_string()),
    }
}

/// `freshen fleet` — drive a spec-declared multi-tenant fleet behind
/// one control plane, with per-tenant checkpoints and quarantine on
/// resume.
pub fn cmd_fleet(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "spec",
        "listen",
        "snapshot-dir",
        "resume-dir",
        "checkpoint-every",
        "drain-after",
        "threads",
        "report-out",
        "metrics-out",
        "trace-out",
    ])?;
    let (mut recorder, metrics, trace_out) = obs_recorder(args);
    if args.get("listen").is_some() {
        // The control plane's /metrics routes need a live recorder even
        // when no file outputs were requested.
        recorder = Recorder::enabled();
    }
    let executor = exec_from_args(args, &recorder)?;

    let spec_path = args.require("spec")?;
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read fleet spec `{spec_path}`: {e}"))?;
    let mut spec = FleetSpec::parse(&spec_text).map_err(|e| e.to_string())?;
    if let Some(every) = args.get("checkpoint-every") {
        spec.checkpoint_every = every
            .parse()
            .map_err(|e| format!("cannot parse --checkpoint-every `{every}`: {e}"))?;
    }
    let drain_after = match args.get("drain-after") {
        None => None,
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|e| format!("cannot parse --drain-after `{raw}`: {e}"))?,
        ),
    };
    let config = FleetConfig {
        listen: args.get("listen").map(String::from),
        snapshot_dir: args.get("snapshot-dir").unwrap_or("fleet-snapshots").into(),
        resume_dir: args.get("resume-dir").map(std::path::PathBuf::from),
        drain_after,
        round_throttle: None,
    };

    let fleet = Fleet::new(spec, config)
        .map_err(|e| e.to_string())?
        .with_recorder(recorder.clone())
        .with_executor(executor);
    if let Some(addr) = fleet.local_addr() {
        writeln!(out, "control plane listening on http://{addr}").map_err(|e| e.to_string())?;
    }
    let outcome = fleet.run().map_err(|e| e.to_string())?;
    write_obs_outputs(&recorder, metrics, trace_out)?;

    let quarantined: Vec<&str> = outcome
        .tenants
        .iter()
        .filter(|t| t.quarantined)
        .map(|t| t.id.as_str())
        .collect();
    if !quarantined.is_empty() {
        writeln!(out, "quarantined tenant(s): {}", quarantined.join(", "))
            .map_err(|e| e.to_string())?;
    }
    if outcome.tenants.iter().any(|t| t.report.is_some()) {
        let json = outcome.reports_json();
        match args.get("report-out") {
            Some(path) => std::fs::write(path, &json)
                .map_err(|e| format!("cannot write report file `{path}`: {e}"))?,
            None => out.write_all(json.as_bytes()).map_err(|e| e.to_string())?,
        }
    } else {
        writeln!(
            out,
            "drained after {} round(s); {} checkpoint(s) written",
            outcome.rounds_run, outcome.checkpoints
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `freshen audit` — check the KKT optimality certificate of a schedule.
///
/// Two input modes:
///
/// * **JSON mode** (`--input problem.json [--schedule schedule.json]`):
///   audit an existing schedule against its problem, or re-solve and
///   audit when no schedule is given.
/// * **Scenario mode** (`--objects/--updates/--syncs/...`): generate the
///   paper-style workload in-process, solve it, and audit the result —
///   no files needed, so it doubles as a self-test.
///
/// The report is printed as JSON either way; any violation turns the
/// exit status into a failure, so `freshen audit` slots directly into
/// CI.
pub fn cmd_audit(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&[
        "input", "schedule", "objects", "updates", "syncs", "theta", "std-dev", "seed", "policy",
        "solver", "threads", "relaxed",
    ])?;
    let policy = parse_policy(args.get("policy"))?;
    let executor = exec_from_args(args, &Recorder::disabled())?;

    let problem = match (args.get("input"), args.get("objects")) {
        (Some(_), Some(_)) => {
            return Err("--input and --objects are mutually exclusive".into());
        }
        (Some(path), None) => read_problem(path)?,
        (None, Some(_)) => Scenario::builder()
            .num_objects(args.require_parsed("objects")?)
            .updates_per_period(args.require_parsed("updates")?)
            .syncs_per_period(args.require_parsed("syncs")?)
            .zipf_theta(args.parsed_or("theta", 0.0)?)
            .update_std_dev(args.parsed_or("std-dev", 1.0)?)
            .alignment(Alignment::ShuffledChange)
            .seed(args.parsed_or("seed", 0u64)?)
            .build()
            .map_err(|e| e.to_string())?
            .problem()
            .map_err(|e| e.to_string())?,
        (None, None) => {
            return Err("one of --input or --objects is required".into());
        }
    };

    let solution = match args.get("schedule") {
        Some(path) => {
            // Audit a pre-computed schedule file as-is. The metric
            // evaluators assert on malformed frequencies, so only score
            // the schedule when it is well-formed — the audit itself
            // flags the malformed entries either way.
            let frequencies = read_schedule(path, problem.len())?;
            if frequencies.iter().all(|f| f.is_finite() && *f >= 0.0) {
                Solution::evaluate(&problem, frequencies)
            } else {
                Solution {
                    frequencies,
                    perceived_freshness: 0.0,
                    general_freshness: 0.0,
                    bandwidth_used: 0.0,
                    multiplier: None,
                    cost_multiplier: None,
                    iterations: 0,
                }
            }
        }
        None => match args.get("solver") {
            None | Some("exact") => {
                let solver = LagrangeSolver {
                    policy,
                    executor: executor.clone(),
                    ..Default::default()
                };
                solver.solve(&problem).map_err(|e| e.to_string())?
            }
            Some("pg") => {
                if policy != SyncPolicy::FixedOrder {
                    return Err("--solver pg supports only --policy fixed".into());
                }
                // Audit-grade settings: converge until the KKT spread
                // clears the strict certificate.
                ProjectedGradientSolver {
                    max_iters: 50_000,
                    rel_tol: 1e-16,
                    ..Default::default()
                }
                .solve(&problem)
                .map_err(|e| e.to_string())?
            }
            Some(other) => return Err(format!("unknown solver `{other}` (exact|pg)")),
        },
    };

    let audit = if args.get("relaxed").is_some() {
        SolutionAudit::relaxed()
    } else {
        SolutionAudit::default()
    }
    .with_executor(executor);
    let report = audit
        .check(&problem, &solution, policy)
        .map_err(|e| e.to_string())?;
    writeln!(out, "{}", report.to_json()).map_err(|e| e.to_string())?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "audit found {} violation(s); see the report above",
            report.violations.len()
        ))
    }
}

/// `freshen timetable` — expand a schedule into concrete sync instants,
/// writing each as the stream yields it, so memory stays flat in the
/// horizon. Rows go through a buffer: a line-buffered stdout would
/// otherwise cost one `write(2)` per row.
pub fn cmd_timetable(args: &crate::ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.expect_only(&["input", "schedule", "horizon"])?;
    let problem = read_problem(args.require("input")?)?;
    let freqs = read_schedule(args.require("schedule")?, problem.len())?;
    let horizon: f64 = args.require_parsed("horizon")?;
    if !horizon.is_finite() || horizon <= 0.0 {
        return Err("--horizon must be positive".into());
    }
    let mut out = std::io::BufWriter::new(out);
    writeln!(out, "time,element").map_err(|e| e.to_string())?;
    for op in ScheduleStream::new(&freqs, horizon) {
        writeln!(out, "{:.6},{}", op.time, op.element).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParsedArgs;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A scratch directory of this process for one test: tests run on
    /// parallel threads, so two that share file names need their own.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("freshen-cmd-{}", std::process::id()))
            .join(test);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn engine_flags_arm_slo_and_progress() {
        let cfg = engine_config_from_args(&parsed(&[
            "--slo-target-pf",
            "0.9",
            "--progress",
            "25",
            "--epochs",
            "40",
        ]))
        .unwrap();
        assert_eq!(cfg.progress_every, 25);
        let slo = cfg.slo.expect("--slo-target-pf arms the SLO engine");
        assert_eq!(slo.target_pf, 0.9);
        assert_eq!(slo.breach_after, SloConfig::default().breach_after);

        let cfg = engine_config_from_args(&parsed(&["--epochs", "40"])).unwrap();
        assert!(cfg.slo.is_none(), "no flag, no SLO evaluation");
        assert_eq!(cfg.progress_every, 0);
    }

    #[test]
    fn scenario_emits_valid_problem_json() {
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&["--objects", "10", "--updates", "20", "--syncs", "5"]),
            &mut buf,
        )
        .unwrap();
        let p = Problem::from_json(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(p.len(), 10);
        assert_eq!(p.bandwidth(), 5.0);
    }

    #[test]
    fn scenario_with_pareto_sizes() {
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&[
                "--objects",
                "50",
                "--updates",
                "100",
                "--syncs",
                "25",
                "--pareto-sizes",
                "1.5",
                "--size-alignment",
                "reverse",
            ]),
            &mut buf,
        )
        .unwrap();
        let p = Problem::from_json(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert!(!p.has_uniform_sizes());
    }

    #[test]
    fn scenario_rejects_typo_option() {
        let mut buf = Vec::new();
        let err = cmd_scenario(
            &parsed(&["--object", "10", "--updates", "20", "--syncs", "5"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("--object"));
    }

    #[test]
    fn scenario_size_alignment_requires_sizes() {
        let mut buf = Vec::new();
        let err = cmd_scenario(
            &parsed(&[
                "--objects",
                "10",
                "--updates",
                "20",
                "--syncs",
                "5",
                "--size-alignment",
                "reverse",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("--pareto-sizes"));
    }

    #[test]
    fn solve_roundtrip_and_policy_flag() {
        let dir = tmpdir("solve_roundtrip_and_policy_flag");
        let path = dir.join("p1.json");
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&["--objects", "8", "--updates", "16", "--syncs", "4"]),
            &mut buf,
        )
        .unwrap();
        std::fs::write(&path, &buf).unwrap();

        let mut fixed = Vec::new();
        cmd_solve(&parsed(&["--input", path.to_str().unwrap()]), &mut fixed).unwrap();
        let fixed = Solution::from_json(std::str::from_utf8(&fixed).unwrap()).unwrap();

        let mut poisson = Vec::new();
        cmd_solve(
            &parsed(&["--input", path.to_str().unwrap(), "--policy", "poisson"]),
            &mut poisson,
        )
        .unwrap();
        let poisson = Solution::from_json(std::str::from_utf8(&poisson).unwrap()).unwrap();
        assert!(fixed.perceived_freshness > poisson.perceived_freshness);
    }

    #[test]
    fn threads_flag_is_accepted_by_parallel_commands() {
        // Each command must get past option validation with --threads set:
        // the first failure has to be the missing input file, not an
        // unknown-option complaint.
        let mut buf = Vec::new();
        for run in [
            cmd_solve(
                &parsed(&["--input", "/nonexistent.json", "--threads", "4"]),
                &mut buf,
            ),
            cmd_heuristic(
                &parsed(&[
                    "--input",
                    "/nonexistent.json",
                    "--partitions",
                    "2",
                    "--threads",
                    "4",
                ]),
                &mut buf,
            ),
            cmd_simulate(
                &parsed(&[
                    "--input",
                    "/nonexistent.json",
                    "--schedule",
                    "/nonexistent.json",
                    "--threads",
                    "4",
                ]),
                &mut buf,
            ),
            cmd_engine(
                &parsed(&[
                    "--trace",
                    "/nonexistent.csv",
                    "--elements",
                    "2",
                    "--bandwidth",
                    "1.0",
                    "--threads",
                    "4",
                ]),
                &mut buf,
            ),
        ] {
            let err = run.unwrap_err();
            assert!(err.contains("cannot read"), "{err}");
        }
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        let mut buf = Vec::new();
        let err = cmd_solve(
            &parsed(&["--input", "/nonexistent.json", "--threads", "lots"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn solve_reports_missing_file() {
        let mut buf = Vec::new();
        let err = cmd_solve(&parsed(&["--input", "/nonexistent.json"]), &mut buf).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn simulate_rejects_mismatched_schedule() {
        let dir = tmpdir("simulate_rejects_mismatched_schedule");
        let p1 = dir.join("p_a.json");
        let p2 = dir.join("p_b.json");
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&["--objects", "8", "--updates", "16", "--syncs", "4"]),
            &mut buf,
        )
        .unwrap();
        std::fs::write(&p1, &buf).unwrap();
        buf.clear();
        cmd_scenario(
            &parsed(&["--objects", "9", "--updates", "16", "--syncs", "4"]),
            &mut buf,
        )
        .unwrap();
        std::fs::write(&p2, &buf).unwrap();
        // Schedule solved for the 8-element problem...
        buf.clear();
        cmd_solve(&parsed(&["--input", p1.to_str().unwrap()]), &mut buf).unwrap();
        let sched = dir.join("s_a.json");
        std::fs::write(&sched, &buf).unwrap();
        // ... rejected against the 9-element problem.
        buf.clear();
        let err = cmd_simulate(
            &parsed(&[
                "--input",
                p2.to_str().unwrap(),
                "--schedule",
                sched.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("covers 8 elements"));
    }

    #[test]
    fn timetable_requires_positive_horizon() {
        let dir = tmpdir("timetable_requires_positive_horizon");
        let p = dir.join("p_h.json");
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&["--objects", "4", "--updates", "8", "--syncs", "2"]),
            &mut buf,
        )
        .unwrap();
        std::fs::write(&p, &buf).unwrap();
        buf.clear();
        cmd_solve(&parsed(&["--input", p.to_str().unwrap()]), &mut buf).unwrap();
        let s = dir.join("s_h.json");
        std::fs::write(&s, &buf).unwrap();
        buf.clear();
        let err = cmd_timetable(
            &parsed(&[
                "--input",
                p.to_str().unwrap(),
                "--schedule",
                s.to_str().unwrap(),
                "--horizon",
                "0",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("horizon"));
    }

    #[test]
    fn estimate_learns_problem_from_logs() {
        let dir = tmpdir("estimate_learns_problem_from_logs");
        let access = dir.join("access.csv");
        std::fs::write(&access, "time,element\n0.1,0\n0.2,0\n0.3,0\n0.4,1\n").unwrap();
        let polls = dir.join("polls.csv");
        std::fs::write(
            &polls,
            "time,element,changed\n1.0,0,1\n2.0,0,0\n1.0,1,1\n2.0,1,1\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        cmd_estimate(
            &parsed(&[
                "--elements",
                "3",
                "--bandwidth",
                "2.0",
                "--accesses",
                access.to_str().unwrap(),
                "--polls",
                polls.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let p = Problem::from_json(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(p.len(), 3);
        // Element 0 is hottest; element 2 keeps a smoothed positive prob.
        assert!(p.access_probs()[0] > p.access_probs()[1]);
        assert!(p.access_probs()[2] > 0.0);
        // Element 1 changed on every poll ⇒ higher estimated rate than 0.
        assert!(p.change_rates()[1] > p.change_rates()[0]);
        // Never-polled element 2 got the default fallback rate.
        assert!((p.change_rates()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_prints_an_unchanged_element_as_positive_zero() {
        let dir = tmpdir("estimate_prints_an_unchanged_element_as_positive_zero");
        let access = dir.join("access.csv");
        std::fs::write(&access, "time,element\n0.1,0\n0.2,1\n").unwrap();
        let polls = dir.join("polls.csv");
        std::fs::write(
            &polls,
            "time,element,changed\n1.0,0,1\n2.0,0,0\n1.0,1,0\n2.0,1,0\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        cmd_estimate(
            &parsed(&[
                "--elements",
                "2",
                "--bandwidth",
                "1.0",
                "--accesses",
                access.to_str().unwrap(),
                "--polls",
                polls.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = std::str::from_utf8(&buf).unwrap();
        assert!(!text.contains("-0"), "{text}");
        let p = Problem::from_json(text).unwrap();
        assert_eq!(p.change_rates()[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn estimate_rejects_bad_log() {
        let dir = tmpdir("estimate_rejects_bad_log");
        let access = dir.join("bad_access.csv");
        std::fs::write(&access, "not,a,log\n").unwrap();
        let mut buf = Vec::new();
        let err = cmd_estimate(
            &parsed(&[
                "--elements",
                "2",
                "--bandwidth",
                "1.0",
                "--accesses",
                access.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    fn write_engine_trace(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
        let access = dir.join("engine_access.csv");
        let mut access_lines = String::from("time,element\n");
        for k in 0..200 {
            let _ = std::fmt::Write::write_fmt(
                &mut access_lines,
                format_args!("{:.3},{}\n", k as f64 * 0.05, [0, 0, 0, 1, 2][k % 5]),
            );
        }
        std::fs::write(&access, access_lines).unwrap();
        let polls = dir.join("engine_polls.csv");
        let mut poll_lines = String::from("time,element,changed\n");
        for k in 0..60 {
            let _ = std::fmt::Write::write_fmt(
                &mut poll_lines,
                format_args!(
                    "{:.3},{},{}\n",
                    k as f64 * 0.15,
                    k % 3,
                    u8::from(k % 2 == 0)
                ),
            );
        }
        std::fs::write(&polls, poll_lines).unwrap();
        (access, polls)
    }

    #[test]
    fn engine_trace_mode_runs_and_is_deterministic() {
        let dir = tmpdir("engine_trace_mode_runs_and_is_deterministic");
        let (access, polls) = write_engine_trace(&dir);
        let args = |seed: &str| {
            parsed(&[
                "--trace",
                access.to_str().unwrap(),
                "--polls",
                polls.to_str().unwrap(),
                "--elements",
                "3",
                "--bandwidth",
                "6.0",
                "--epochs",
                "10",
                "--warmup",
                "2",
                "--failure-rate",
                "0.1",
                "--seed",
                seed,
            ])
        };
        let run = |args: &ParsedArgs| {
            let mut buf = Vec::new();
            cmd_engine(args, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let first = run(&args("5"));
        assert!(first.contains("\"realized_pf\""));
        assert!(first.contains("\"epochs\""));
        assert_eq!(first, run(&args("5")), "same trace + seed ⇒ same bytes");
        assert_ne!(first, run(&args("6")), "seed changes failure injection");
    }

    /// What `cmd` prints for `args`.
    fn output(cmd: fn(&ParsedArgs, &mut dyn Write) -> Result<(), String>, args: &[&str]) -> String {
        let mut buf = Vec::new();
        cmd(&parsed(args), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn write_live_problem(path: &std::path::Path) {
        let args = [
            "--objects",
            "6",
            "--updates",
            "12",
            "--syncs",
            "3",
            "--seed",
            "4",
        ];
        std::fs::write(path, output(cmd_scenario, &args)).unwrap();
    }

    #[test]
    fn serve_prints_the_report_engine_prints() {
        let dir = tmpdir("serve_prints_the_report_engine_prints");
        let problem = dir.join("serve_engine.json");
        write_live_problem(&problem);
        let checkpoint = dir.join("serve_engine.snap");
        let live = [
            "--live",
            problem.to_str().unwrap(),
            "--epochs",
            "12",
            "--seed",
            "3",
        ];
        let engine = output(cmd_engine, &live);
        assert!(engine.contains("\"realized_pf\""), "{engine}");
        let serve = [&live[..], &["--checkpoint", checkpoint.to_str().unwrap()]].concat();
        assert_eq!(output(cmd_serve, &serve), engine);
    }

    #[test]
    fn serve_drained_and_resumed_prints_the_uninterrupted_report() {
        let dir = tmpdir("serve_drained_and_resumed_prints_the_uninterrupted_report");
        let problem = dir.join("serve_resume.json");
        write_live_problem(&problem);
        let checkpoint = dir.join("serve_resume.snap");
        let checkpoint = checkpoint.to_str().unwrap();
        let args = [
            "--live",
            problem.to_str().unwrap(),
            "--epochs",
            "12",
            "--seed",
            "3",
            "--checkpoint",
            checkpoint,
        ];
        let full = output(cmd_serve, &args);
        let drained = output(cmd_serve, &[&args[..], &["--drain-after", "5"]].concat());
        assert!(drained.starts_with("drained after 5 epoch(s)"), "{drained}");
        let resumed = output(cmd_serve, &[&args[..], &["--resume", checkpoint]].concat());
        assert_eq!(resumed, full);
    }

    #[test]
    fn fleet_drained_and_resumed_prints_the_uninterrupted_reports() {
        let dir = tmpdir("fleet_drained_and_resumed_prints_the_uninterrupted_reports");
        let spec = dir.join("fleet_resume.json");
        std::fs::write(
            &spec,
            r#"{"checkpoint_every": 2, "tenants": [
                {"id": "acme", "objects": 6, "seed": 7, "epochs": 10},
                {"id": "bolt", "objects": 5, "seed": 11, "epochs": 8, "scenario": "flash-crowd"}
            ]}"#,
        )
        .unwrap();
        let spec = spec.to_str().unwrap();
        let full_dir = dir.join("fleet-full");
        let resume_dir = dir.join("fleet-resume");
        let (full_dir, resume_dir) = (full_dir.to_str().unwrap(), resume_dir.to_str().unwrap());
        let full = output(cmd_fleet, &["--spec", spec, "--snapshot-dir", full_dir]);
        assert!(
            full.contains("\"acme\": {") && full.contains("\"bolt\": {"),
            "{full}"
        );
        let drain = [
            "--spec",
            spec,
            "--snapshot-dir",
            resume_dir,
            "--drain-after",
            "5",
        ];
        let drained = output(cmd_fleet, &drain);
        assert!(drained.starts_with("drained after 5 round(s)"), "{drained}");
        let resume = [
            "--spec",
            spec,
            "--snapshot-dir",
            resume_dir,
            "--resume-dir",
            resume_dir,
        ];
        assert_eq!(output(cmd_fleet, &resume), full);
    }

    #[test]
    fn engine_writes_report_and_metrics_files() {
        let dir = tmpdir("engine_writes_report_and_metrics_files");
        let (access, polls) = write_engine_trace(&dir);
        let report_path = dir.join("engine_report.json");
        let metrics_path = dir.join("engine_metrics.json");
        let mut buf = Vec::new();
        cmd_engine(
            &parsed(&[
                "--trace",
                access.to_str().unwrap(),
                "--polls",
                polls.to_str().unwrap(),
                "--elements",
                "3",
                "--bandwidth",
                "6.0",
                "--epochs",
                "8",
                "--warmup",
                "1",
                "--estimator",
                "window",
                "--window",
                "6",
                "--report-out",
                report_path.to_str().unwrap(),
                "--metrics-out",
                metrics_path.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        assert!(buf.is_empty(), "--report-out redirects the report");
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("\"resolves\""));
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("engine.dispatch_latency"));
    }

    #[test]
    fn engine_requires_exactly_one_mode() {
        let mut buf = Vec::new();
        let err = cmd_engine(&parsed(&[]), &mut buf).unwrap_err();
        assert!(err.contains("--trace or --live"), "{err}");
        let err =
            cmd_engine(&parsed(&["--trace", "a.csv", "--live", "p.json"]), &mut buf).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn engine_live_rejects_a_bad_access_rate() {
        let dir = tmpdir("engine_live_rejects_a_bad_access_rate");
        let problem = dir.join("bad_rate.json");
        write_live_problem(&problem);
        for rate in ["0", "-1", "nan", "inf"] {
            let mut buf = Vec::new();
            let err = cmd_engine(
                &parsed(&[
                    "--live",
                    problem.to_str().unwrap(),
                    "--access-rate",
                    rate,
                    "--epochs",
                    "4",
                ]),
                &mut buf,
            )
            .unwrap_err();
            assert!(err.contains("access rate"), "--access-rate {rate}: {err}");
        }
    }

    #[test]
    fn engine_rejects_unknown_estimator_and_policy() {
        let mut buf = Vec::new();
        let err = cmd_engine(
            &parsed(&["--trace", "a.csv", "--estimator", "magic"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("magic"));
        let err = cmd_engine(
            &parsed(&["--trace", "a.csv", "--policy", "sometimes"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("sometimes"));
    }

    #[test]
    fn audit_scenario_mode_certifies_the_exact_solver() {
        let mut buf = Vec::new();
        cmd_audit(
            &parsed(&[
                "--objects",
                "60",
                "--updates",
                "120",
                "--syncs",
                "30",
                "--theta",
                "1.0",
                "--seed",
                "11",
            ]),
            &mut buf,
        )
        .unwrap();
        let report = String::from_utf8(buf).unwrap();
        assert!(report.contains("\"clean\":true"), "{report}");
        assert!(report.contains("\"violations\":[]"), "{report}");
    }

    #[test]
    fn audit_covers_pooled_and_pg_solvers() {
        for extra in [&["--threads", "4"][..], &["--solver", "pg"][..]] {
            let mut args = vec![
                "--objects",
                "40",
                "--updates",
                "80",
                "--syncs",
                "20",
                "--theta",
                "0.5",
            ];
            args.extend_from_slice(extra);
            let mut buf = Vec::new();
            cmd_audit(&parsed(&args), &mut buf).unwrap();
            let report = String::from_utf8(buf).unwrap();
            assert!(report.contains("\"clean\":true"), "{extra:?}: {report}");
        }
    }

    #[test]
    fn audit_poisson_policy_certifies_too() {
        let mut buf = Vec::new();
        cmd_audit(
            &parsed(&[
                "--objects",
                "30",
                "--updates",
                "60",
                "--syncs",
                "15",
                "--policy",
                "poisson",
            ]),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("\"clean\":true"));
    }

    #[test]
    fn audit_rejects_bad_invocations() {
        let mut buf = Vec::new();
        let err = cmd_audit(&parsed(&[]), &mut buf).unwrap_err();
        assert!(err.contains("--input or --objects"), "{err}");
        let err =
            cmd_audit(&parsed(&["--input", "p.json", "--objects", "5"]), &mut buf).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = cmd_audit(
            &parsed(&[
                "--objects",
                "5",
                "--updates",
                "10",
                "--syncs",
                "2",
                "--solver",
                "magic",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("magic"), "{err}");
        let err = cmd_audit(
            &parsed(&[
                "--objects",
                "5",
                "--updates",
                "10",
                "--syncs",
                "2",
                "--solver",
                "pg",
                "--policy",
                "poisson",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("only --policy fixed"), "{err}");
    }

    #[test]
    fn heuristic_unknown_criterion_rejected() {
        let dir = tmpdir("heuristic_unknown_criterion_rejected");
        let p = dir.join("p_c.json");
        let mut buf = Vec::new();
        cmd_scenario(
            &parsed(&["--objects", "4", "--updates", "8", "--syncs", "2"]),
            &mut buf,
        )
        .unwrap();
        std::fs::write(&p, &buf).unwrap();
        buf.clear();
        let err = cmd_heuristic(
            &parsed(&[
                "--input",
                p.to_str().unwrap(),
                "--partitions",
                "2",
                "--criterion",
                "magic",
            ]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("magic"));
    }

    const TIER_SPEC: &str = r#"{
      "topology": {
        "nodes": [
          {"id": "origin", "role": "source"},
          {"id": "relay", "budget": 6.0},
          {"id": "edge", "budget": 4.0}
        ],
        "links": [
          {"from": "origin", "to": "relay"},
          {"from": "relay", "to": "edge", "elements": [0, 1, 2]}
        ]
      },
      "problem": {
        "change_rates": [0.5, 1.0, 1.5, 2.0, 2.5, 0.8],
        "access_probs": [6, 5, 4, 3, 2, 1],
        "bandwidth": 6.0
      }
    }"#;

    #[test]
    fn solve_topology_emits_certified_schedule() {
        let dir = tmpdir("solve_topology_emits_certified_schedule");
        let spec = dir.join("tiers.json");
        std::fs::write(&spec, TIER_SPEC).unwrap();
        let mut buf = Vec::new();
        cmd_solve(&parsed(&["--topology", spec.to_str().unwrap()]), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"certified_tiers\": 2"), "{text}");
        assert!(text.contains("\"tiers\": 2"), "{text}");
        assert!(
            text.contains("\"from\":\"relay\",\"to\":\"edge\""),
            "{text}"
        );
        // Hand-rolled output must be parseable by the hand-rolled parser.
        let doc = freshen_core::json::Json::parse(&text).unwrap();
        let pf = doc.get("edge_pf").unwrap().as_f64("edge_pf").unwrap();
        assert!(pf > 0.0 && pf < 1.0);
    }

    #[test]
    fn solve_topology_split_budget_rebalances_tiers() {
        let dir = tmpdir("solve_topology_split_budget_rebalances_tiers");
        let spec = dir.join("tiers_split.json");
        std::fs::write(&spec, TIER_SPEC).unwrap();
        let mut buf = Vec::new();
        cmd_solve(
            &parsed(&[
                "--topology",
                spec.to_str().unwrap(),
                "--split-budget",
                "10",
                "--policy",
                "poisson",
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let doc = freshen_core::json::Json::parse(&text).unwrap();
        let budgets = doc.get("budgets").unwrap().as_arr("budgets").unwrap();
        let total: f64 = budgets.iter().map(|b| b.as_f64("budget").unwrap()).sum();
        assert!((total - 10.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn solve_topology_flags_require_topology() {
        let err = cmd_solve(&parsed(&["--split-budget", "5"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--split-budget requires --topology"), "{err}");
        let err = cmd_solve(&parsed(&["--shards", "4"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("unknown option `--shards`"), "{err}");
    }

    #[test]
    fn solve_topology_without_problem_block_demands_input() {
        let dir = tmpdir("solve_topology_without_problem_block_demands_input");
        let spec = dir.join("tiers_noprob.json");
        std::fs::write(
            &spec,
            r#"{"topology": {"nodes": [{"id":"s","role":"source"},{"id":"e","budget":1.0}],
                "links": [{"from":"s","to":"e"}]}}"#,
        )
        .unwrap();
        let err = cmd_solve(
            &parsed(&["--topology", spec.to_str().unwrap()]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("pass --input"), "{err}");
    }
}
