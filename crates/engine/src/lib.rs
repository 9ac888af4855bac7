//! `freshen-engine`: the deterministic online freshening runtime.
//!
//! The offline crates answer "what schedule is optimal for a *known*
//! `(p, λ, B)`?". This crate closes the loop the paper leaves open in
//! operation: the workload is only observable through events, and the
//! parameters drift. The engine ingests interleaved access/poll event
//! streams — replayed from `workload::trace` logs or generated live by
//! `freshen-sim` — and runs an epoch loop that
//!
//! 1. executes the active schedule through a bandwidth-budgeted
//!    priority-queue dispatcher ([`dispatch`]), with per-element
//!    retry/backoff on injected poll failures and graceful degradation
//!    (stale-but-served) when the budget saturates;
//! 2. folds every poll outcome and access event into incremental
//!    estimators — EWMA or sliding-window change-rate estimation plus a
//!    decayed-count access profile — producing a fresh `(p̂, λ̂)`
//!    snapshot each epoch;
//! 3. feeds that snapshot to the drift-gated
//!    [`AdaptiveScheduler`](freshen_heuristics::adaptive::AdaptiveScheduler),
//!    re-solving (warm-started) only when Jeffreys drift crosses the
//!    threshold — or every epoch under the oracle policy used as the
//!    re-solve baseline in benchmarks.
//!
//! An optional per-epoch ledger audit ([`audit`]) re-derives the
//! dispatcher's credit conservation law (`credit_in + accrued = executed
//! + retained + shed`) from independent inputs and counts breaches on
//! the `audit.violations` obs counter — enable it with
//! [`EngineConfig::audit`].
//!
//! Everything is deterministic: seeded generators, SplitMix64 failure
//! injection (`freshen_core::rng`), total-order sorts, and a report
//! serializer on `freshen_obs::json` make
//! a replayed run byte-identical ([`EngineReport::to_json`]).
//!
//! ```
//! use freshen_core::problem::Problem;
//! use freshen_engine::{Engine, EngineConfig, LiveAccessStream, LivePollSource};
//!
//! let prior = Problem::builder()
//!     .change_rates(vec![4.0, 1.0, 0.25])
//!     .access_weights(vec![8.0, 1.0, 1.0])
//!     .bandwidth(3.0)
//!     .build()
//!     .unwrap();
//! let config = EngineConfig { epochs: 10, seed: 7, ..EngineConfig::default() };
//! let accesses = LiveAccessStream::new(prior.access_probs(), 40.0, 7, 10.0).unwrap();
//! let mut source = LivePollSource::new(prior.change_rates(), 8, 20.0).unwrap();
//! let report = Engine::new(&prior, config)
//!     .unwrap()
//!     .run(accesses, &mut source)
//!     .unwrap();
//! assert!(report.realized_pf > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod audit;
pub mod config;
pub mod dispatch;
pub mod report;
pub mod runtime;
pub mod source;
pub mod state;
pub mod stream;

pub use audit::{EpochLedger, LedgerAudit};
pub use config::{EngineConfig, EstimatorKind, ResolvePolicy};
pub use dispatch::{EpochOutcome, ExecutedPoll, PollDispatcher};
pub use report::{EngineReport, EpochStats};
pub use runtime::Engine;
pub use source::{LivePollSource, LivePollState, PollSource, ReplayPollSource};
pub use state::{EngineState, EstimatorState};
pub use stream::{replay_accesses, BoxedAccessStream, DriftingAccessStream, LiveAccessStream};
