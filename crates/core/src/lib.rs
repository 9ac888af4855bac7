//! # freshen-core
//!
//! Core model for **application-aware data freshening**, a reproduction of
//! Carney, Lee & Zdonik, *"Scalable Application-Aware Data Freshening"*
//! (ICDE 2003).
//!
//! A *mirror site* keeps local copies of `N` objects owned by a remote
//! *source*. The source does not push updates, so the mirror polls
//! ("synchronizes") each copy. Bandwidth is limited: only `B` refreshes (or
//! `B` units of byte-bandwidth, once object sizes are modeled) may be spent
//! per period. Each object `i` changes at the source as a Poisson process
//! with rate `λᵢ` and is accessed by users with probability `pᵢ` (derived
//! from aggregated user *profiles*).
//!
//! This crate provides:
//!
//! * [`freshness`] — the Fixed-Order freshness formula `F̄(λ, f)`, its
//!   derivative, and the **perceived freshness** metric
//!   `PF = Σ pᵢ·F̄(λᵢ, fᵢ)`;
//! * [`problem`] — the optimization problem types ([`Problem`],
//!   [`Solution`]) shared by the exact solvers in `freshen-solver` and the
//!   scalable heuristics in `freshen-heuristics`;
//! * [`profile`] — individual user profiles and their (optionally weighted)
//!   aggregation into the master profile the scheduler consumes;
//! * [`schedule`] — turning refresh *frequencies* into a concrete
//!   Fixed-Order timetable of sync operations;
//! * [`estimate`] — estimating per-object change frequencies from observed
//!   poll history (the paper assumes these estimates exist; we build the
//!   estimator of its ref \[4\]);
//! * [`selection`] — the paper's §7 future-work extension: choosing *which*
//!   objects to mirror when the mirror is smaller than the database;
//! * [`audit`] — the KKT optimality certificate checker
//!   ([`SolutionAudit`]) that turns the Appendix's Eq. 5 conditions into
//!   a machine-readable [`AuditReport`] for any solver's output;
//! * [`exec`] — the deterministic [`Executor`] abstraction (serial or
//!   scoped std thread pool) behind every parallel hot loop;
//! * [`soa`] — structure-of-arrays column views ([`ProblemColumns`],
//!   [`PackedColumns`]): gather the hot columns once, then run every
//!   solver probe over contiguous memory instead of per-probe index
//!   indirection;
//! * [`numeric`] — compensated (Neumaier) summation so million-element
//!   accumulations stay accurate;
//! * [`topology`] — multi-tier relay topologies ([`Topology`]): a
//!   validated source → relay(s) → edge-mirror DAG with per-tier budgets
//!   and the composed-freshness recursion that scores a
//!   [`TieredSchedule`] at the edge;
//! * [`json`] — the JSON reader that problem, solution and spec files
//!   are parsed with;
//! * [`rng`] — [`SplitMix64`](rng::SplitMix64), the one seeded generator
//!   every random stream in the workspace draws from.
//!
//! ## Quick start
//!
//! ```
//! use freshen_core::problem::Problem;
//! use freshen_core::freshness::perceived_freshness;
//!
//! // Five objects changing 1..=5 times per period, uniform interest,
//! // budget of 5 refreshes per period.
//! let problem = Problem::builder()
//!     .change_rates(vec![1.0, 2.0, 3.0, 4.0, 5.0])
//!     .access_probs(vec![0.2; 5])
//!     .bandwidth(5.0)
//!     .build()
//!     .unwrap();
//!
//! // Any feasible allocation can be scored:
//! let naive = vec![1.0; 5];
//! let pf = perceived_freshness(problem.access_probs(), problem.change_rates(), &naive);
//! assert!(pf > 0.0 && pf < 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod audit;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod freshness;
pub mod json;
pub mod numeric;
pub mod policy;
pub mod problem;
pub mod profile;
pub mod rng;
pub mod schedule;
pub mod selection;
pub mod soa;
pub mod topology;

pub use audit::{AuditReport, AuditViolation, SolutionAudit, ViolationKind};
pub use error::{CoreError, Result};
pub use exec::Executor;
pub use policy::SyncPolicy;
pub use problem::{Element, Problem, Solution};
pub use soa::{ColumnsRef, PackedColumns, ProblemColumns};
pub use topology::{TieredSchedule, Topology, TopologyBuilder};
