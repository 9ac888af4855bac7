//! `freshen-serve`: the long-running service runtime around
//! [`freshen-engine`](freshen_engine).
//!
//! The engine's epoch loop is a deterministic pure function of its
//! inputs; this crate makes that function *operable* without breaking
//! it. Three pieces:
//!
//! 1. **Checkpoint/restore** ([`snapshot`]) — a versioned, CRC-checked
//!    binary snapshot of everything the run carries across epochs:
//!    estimator state, the access profile's raw weights and scale, drift
//!    baselines, the dispatcher's credit ledger, the poll source's replay
//!    position, and the access stream's consumed count. Snapshots are written atomically (temp
//!    file + rename) at epoch boundaries, where the engine's state
//!    contract holds exactly. A run killed at epoch `k` and resumed
//!    produces a final report **byte-identical** to an uninterrupted
//!    same-seed run.
//! 2. **Control plane** ([`http`]) — a zero-dependency HTTP/1.1 server
//!    on [`std::net::TcpListener`] exposing `GET /status`, `/schedule`,
//!    `/metrics` (the freshen-obs export) and `POST /checkpoint`,
//!    `/shutdown`. Handlers never touch engine state: control actions
//!    latch flags the serve loop consumes between epochs, so request
//!    timing cannot perturb the deterministic run.
//! 3. **The serve loop** ([`service`]) — one drive loop, [`drive`],
//!    steps [`Tenant`]s in rounds. A tenant is one served engine with
//!    its access stream, poll source, recorder and views. Each round
//!    steps every unfinished tenant one epoch, checkpoints on a cadence
//!    or on demand, and publishes the views; shutdown drains: finish the
//!    in-flight round, write final snapshots, exit cleanly. [`Server`]
//!    drives one tenant; `freshen-fleet` drives one per tenant spec
//!    through the same loop, adding its manifest and aggregate views as
//!    the loop's [`Host`].
//!
//! Crash recovery is validation-first: a truncated, bit-flipped,
//! mis-versioned, or shape-mismatched snapshot is rejected with a
//! [`CoreError`](freshen_core::error::CoreError) before any state is
//! touched — never a panic, and never a partial restore.
//!
//! ```
//! use freshen_core::problem::Problem;
//! use freshen_engine::EngineConfig;
//! use freshen_serve::{ServeConfig, ServeWorkload, Server};
//!
//! let problem = Problem::builder()
//!     .change_rates(vec![2.0, 1.0])
//!     .access_weights(vec![3.0, 1.0])
//!     .bandwidth(2.0)
//!     .build()
//!     .unwrap();
//! let dir = std::env::temp_dir().join("freshen-serve-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let config = ServeConfig {
//!     engine: EngineConfig { epochs: 4, warmup_epochs: 1, ..EngineConfig::default() },
//!     checkpoint_path: dir.join("doc.snapshot"),
//!     ..ServeConfig::default()
//! };
//! let workload = ServeWorkload::Live { problem, access_rate: 40.0 };
//! let outcome = Server::new(workload, config).unwrap().run().unwrap();
//! assert!(outcome.report.unwrap().realized_pf > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod http;
pub mod service;
pub mod snapshot;

pub use http::{
    health_response, metrics_response, percent_decode, register_control_routes,
    register_shutdown_route, register_status_routes, request, request_full, timeseries_response,
    ControlPlane, ControlShared, Request, Response, RouteParams, Router,
};
pub use service::{
    bind_control_plane, drive, publish, publish_engine_views, ExitReason, Host, ServeConfig,
    ServeOutcome, ServeWorkload, Server, Tenant, ACCESS_SEED_SALT, POLL_SEED_SALT,
};
pub use snapshot::{Snapshot, SnapshotShape, SourceState};
