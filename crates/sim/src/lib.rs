//! # freshen-sim
//!
//! Discrete-event simulator for mirror synchronization — the paper's
//! Figure 4 architecture, built from scratch:
//!
//! ```text
//!                ┌───────────────────────┐
//!   Update ───▶  │  Source (versions)    │
//!   Generator    └──────────┬────────────┘
//!                           │ sync request/response
//!                ┌──────────▼────────────┐     ┌──────────────────────┐
//!   Sync     ──▶ │  Mirror (local copies)│ ◀── │ User Request Generator│
//!   Scheduler    └──────────┬────────────┘     └──────────────────────┘
//!                           │ observations
//!                ┌──────────▼────────────┐
//!                │  Freshness Evaluator  │  (analytic + monitoring modes)
//!                └───────────────────────┘
//! ```
//!
//! * the **Update Generator** drives each element's source copy with an
//!   independent Poisson process at its change rate `λᵢ`;
//! * the **Synchronization Scheduler** replays a Fixed-Order schedule
//!   derived from the refresh frequencies under test
//!   ([`freshen_core::schedule::ScheduleStream`]);
//! * the **User Request Generator** issues accesses as a Poisson process
//!   whose element choice follows the master profile;
//! * the **Freshness Evaluator** runs in the paper's two modes at once:
//!   *analytic* (closed-form `Σ pᵢ·F̄(λᵢ, fᵢ)`) and *monitoring* (score
//!   each simulated access; integrate per-element fresh time). The paper
//!   verified its results in both modes; our integration tests require the
//!   two modes to agree within statistical tolerance.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod evaluator;
pub mod generators;
pub mod simulation;
pub mod state;
pub mod tiered;

pub use simulation::{SimConfig, SimReport, Simulation};
pub use tiered::{simulate_tiered, TieredSimConfig, TieredSimReport};
