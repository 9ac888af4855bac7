//! # freshen-cli
//!
//! The `freshen` command-line tool: operate the freshening scheduler on
//! JSON problem files without writing Rust.
//!
//! ```text
//! freshen scenario --objects 500 --updates 1000 --syncs 250 --theta 1.0 > problem.json
//! freshen solve --input problem.json > schedule.json
//! freshen heuristic --input problem.json --partitions 50 --kmeans 5 > schedule.json
//! freshen simulate --input problem.json --schedule schedule.json --periods 100
//! freshen timetable --input problem.json --schedule schedule.json --horizon 2
//! ```
//!
//! Subcommands:
//!
//! | command | what it does |
//! |---|---|
//! | `scenario` | generate a synthetic problem (paper-style workload) as JSON |
//! | `solve` | exact Lagrange solve (optionally under the Poisson policy) |
//! | `heuristic` | the scalable partition/k-means/allocate pipeline |
//! | `simulate` | run the discrete-event simulator on a schedule |
//! | `timetable` | expand a schedule into concrete sync instants (CSV) |
//! | `estimate` | learn a problem from access/poll logs (the §7 loop) |
//! | `engine` | run the online runtime: streaming estimation + drift-gated re-solves |
//! | `serve` | run the engine as a service: checkpoint/restore + HTTP control plane |
//! | `fleet` | drive many tenant engines behind one control plane (spec-declared) |
//! | `audit` | check a schedule's KKT optimality certificate (CI-friendly exit status) |
//!
//! Argument parsing is hand-rolled (`--key value` pairs), and JSON goes
//! through the workspace's own reader and writer, so the tool has no
//! dependencies outside the workspace.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod commands;

use std::io::Write;

pub use args::ParsedArgs;

/// Dispatch a full command line (without the program name) and write the
/// result to `out`. Returns a human-readable error string on failure.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), String> {
    let (command, rest) = argv
        .split_first()
        .ok_or_else(|| format!("no subcommand given\n\n{USAGE}"))?;
    let parsed = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "scenario" => commands::cmd_scenario(&parsed, out),
        "solve" => commands::cmd_solve(&parsed, out),
        "heuristic" => commands::cmd_heuristic(&parsed, out),
        "simulate" => commands::cmd_simulate(&parsed, out),
        "timetable" => commands::cmd_timetable(&parsed, out),
        "estimate" => commands::cmd_estimate(&parsed, out),
        "engine" => commands::cmd_engine(&parsed, out),
        "serve" => commands::cmd_serve(&parsed, out),
        "fleet" => commands::cmd_fleet(&parsed, out),
        "audit" => commands::cmd_audit(&parsed, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
freshen — application-aware data freshening scheduler

USAGE:
  freshen scenario  --objects N --updates U --syncs B [--theta T]
                    [--alignment aligned|reverse|shuffled] [--std-dev S]
                    [--pareto-sizes SHAPE] [--size-alignment aligned|reverse|shuffled]
                    [--seed S]
  freshen solve     --input problem.json [--policy fixed|poisson] [--threads T]
                    [--metrics-out metrics.json] [--trace-out trace.json]
  freshen solve     --topology spec.json [--input problem.json] [--split-budget B]
                    [--policy fixed|poisson] [--threads T]
  freshen heuristic --input problem.json --partitions K [--kmeans N]
                    [--criterion pf|p|lambda|p-over-lambda|pf-size|size]
                    [--allocation fba|ffa] [--threads T]
                    [--metrics-out metrics.json] [--trace-out trace.json]
  freshen simulate  --input problem.json --schedule schedule.json
                    [--periods P] [--warmup W] [--accesses A] [--seed S]
                    [--policy fixed|poisson] [--threads T]
                    [--metrics-out metrics.json] [--trace-out trace.json]
  freshen timetable --input problem.json --schedule schedule.json --horizon H
  freshen estimate  --elements N --bandwidth B --accesses access_log.csv
                    [--polls poll_log.csv] [--smoothing A] [--fallback-rate R]
  freshen engine    (--trace access.csv [--polls poll.csv] --elements N --bandwidth B
                     | --live problem.json [--access-rate R])
                    [--epochs E] [--epoch-len L] [--warmup W] [--drift-threshold D]
                    [--policy drift|oracle] [--estimator ewma|window|lln|sa]
                    [--gain G] [--window K] [--decay D]
                    [--poll-cost GAMMA | --cost-budget C]
                    [--failure-rate F] [--max-retries R] [--retry-backoff T]
                    [--budget-factor C] [--max-backlog M] [--seed S] [--threads T]
                    [--report-out report.json] [--metrics-out metrics.json]
                    [--trace-out trace.json]
  freshen serve     (--trace access.csv [--polls poll.csv] --elements N --bandwidth B
                     | --live problem.json [--access-rate R])
                    [--listen ADDR:PORT] [--checkpoint PATH] [--checkpoint-every N]
                    [--resume PATH] [--drain-after N]
                    [engine flags as above] [--report-out report.json]
  freshen fleet     --spec fleet.json [--listen ADDR:PORT]
                    [--snapshot-dir DIR] [--resume-dir DIR]
                    [--checkpoint-every N] [--drain-after N] [--threads T]
                    [--report-out reports.json] [--metrics-out metrics.json]
                    [--trace-out trace.json]
  freshen audit     (--input problem.json [--schedule schedule.json]
                     | --objects N --updates U --syncs B [--theta T] [--std-dev S] [--seed S])
                    [--policy fixed|poisson] [--solver exact|pg] [--threads T] [--relaxed 1]
  freshen help

Parallelism: --threads T runs the solver / pipeline / scoring passes on a
T-worker pool (results are identical at any T). --threads 0 or omission
defers to the FRESHEN_THREADS environment variable; unset means serial.";

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn no_subcommand_is_an_error() {
        let err = run_to_string(&[]).unwrap_err();
        assert!(err.contains("no subcommand"));
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let err = run_to_string(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("heuristic"));
    }

    #[test]
    fn scenario_then_solve_roundtrip_through_json() {
        let problem_json = run_to_string(&[
            "scenario",
            "--objects",
            "20",
            "--updates",
            "40",
            "--syncs",
            "10",
            "--theta",
            "1.0",
            "--seed",
            "3",
        ])
        .unwrap();
        // Feed it back through a temp file.
        let dir = std::env::temp_dir().join("freshen-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let problem_path = dir.join("problem.json");
        std::fs::write(&problem_path, &problem_json).unwrap();
        let schedule_json =
            run_to_string(&["solve", "--input", problem_path.to_str().unwrap()]).unwrap();
        assert!(schedule_json.contains("perceived_freshness"));
        let schedule_path = dir.join("schedule.json");
        std::fs::write(&schedule_path, &schedule_json).unwrap();

        // Heuristic, simulate, and timetable all consume the same files.
        let heuristic = run_to_string(&[
            "heuristic",
            "--input",
            problem_path.to_str().unwrap(),
            "--partitions",
            "4",
            "--kmeans",
            "2",
        ])
        .unwrap();
        assert!(heuristic.contains("frequencies"));

        let sim = run_to_string(&[
            "simulate",
            "--input",
            problem_path.to_str().unwrap(),
            "--schedule",
            schedule_path.to_str().unwrap(),
            "--periods",
            "20",
            "--accesses",
            "100",
        ])
        .unwrap();
        assert!(sim.contains("time_averaged_pf"));

        let timetable = run_to_string(&[
            "timetable",
            "--input",
            problem_path.to_str().unwrap(),
            "--schedule",
            schedule_path.to_str().unwrap(),
            "--horizon",
            "1.0",
        ])
        .unwrap();
        assert!(timetable.starts_with("time,element"));
    }
}
