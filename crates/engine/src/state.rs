//! Checkpointable engine state: everything [`Engine`] carries across
//! epochs, extracted into one plain-data struct.
//!
//! The contract is exactness: [`Engine::restore_state`] applied to a
//! freshly constructed engine (same prior, same config) leaves it in a
//! state from which every subsequent [`Engine::step`] makes decisions
//! byte-identical to the engine that exported the state. That is what
//! lets `freshen-serve` extend the determinism rule across process
//! boundaries — a run killed at epoch `k` and restored finishes with the
//! same report as an uninterrupted run.
//!
//! Two deliberate omissions keep the state small and portable:
//!
//! * **Configuration** (gains, thresholds, decay, seeds) is not state —
//!   the restoring process supplies the same [`EngineConfig`], which the
//!   serve layer's snapshot shape header verifies before restoring.
//! * **RNG internals** are never serialized. Every stochastic input is
//!   either a pure function of `(seed, counters)` (the dispatcher's
//!   failure draws) or replayable by consumed-event count (the live
//!   sources) — see [`LivePollState`](crate::LivePollState).
//!
//! [`Engine`]: crate::Engine
//! [`Engine::step`]: crate::Engine::step
//! [`Engine::restore_state`]: crate::Engine::restore_state
//! [`EngineConfig`]: crate::EngineConfig

use freshen_core::problem::Solution;
use freshen_obs::{SloState, TimeSeriesState};

use crate::report::EpochStats;

/// Snapshot of the configured change-rate estimator's learned state.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorState {
    /// State of an [`EwmaRateEstimator`](freshen_core::estimate::EwmaRateEstimator),
    /// under either gain schedule (`EstimatorKind::Ewma` or `Sa`). The
    /// schedule's parameters live in the config; `seen` resumes a
    /// decreasing step-size sequence exactly.
    Ewma {
        /// Per-element rate estimates (priors included).
        rates: Vec<f64>,
        /// Per-element polls folded in (the gain-schedule index).
        seen: Vec<u64>,
    },
    /// State of a [`WindowRateEstimator`](freshen_core::estimate::WindowRateEstimator).
    Window {
        /// Window capacity — recorded so a snapshot taken under one
        /// window length cannot silently restore under another.
        window: usize,
        /// Per element, the retained `(interval, changed)` pairs
        /// oldest-first.
        entries: Vec<Vec<(f64, bool)>>,
    },
    /// State of an [`LlnRateEstimator`](freshen_core::estimate::LlnRateEstimator):
    /// the full-history sufficient statistics.
    Lln {
        /// Per-element poll counts.
        polls: Vec<u64>,
        /// Per-element change-detection counts.
        detections: Vec<u64>,
        /// Per-element summed poll intervals.
        interval_sum: Vec<f64>,
    },
}

/// Everything the engine carries across epochs, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Last successful poll instant per element.
    pub last_poll: Vec<f64>,
    /// Change-rate estimator state.
    pub estimator: EstimatorState,
    /// Profile learner's raw per-element weights `wᵢ`; the decayed
    /// access counts are `wᵢ / profile_scale`. Carried raw, not as
    /// counts, so a restored learner folds at the same access.
    pub profile_weights: Vec<f64>,
    /// Profile learner's global growth factor `g`, in `[1, 2⁶⁴)` (exactly
    /// 1 at `profile_decay` 1.0).
    pub profile_scale: f64,
    /// Profile learner's lifetime observation count.
    pub profile_observations: u64,
    /// The active schedule (frequencies + the warm-start multiplier).
    pub schedule: Solution,
    /// Drift-monitor baseline access probabilities.
    pub baseline_probs: Vec<f64>,
    /// Drift-monitor baseline change rates.
    pub baseline_rates: Vec<f64>,
    /// Exact solves performed so far (including the initial one).
    pub resolves: u64,
    /// Re-solve decisions absorbed without solving.
    pub skips: u64,
    /// Resolves satisfied by certified incremental KKT repair (a subset
    /// of `resolves`).
    pub repairs: u64,
    /// Repair attempts that failed the certificate (or diverged) and
    /// fell back to a full warm re-solve.
    pub repair_fallbacks: u64,
    /// Drift measured by the most recent decision, if any.
    pub last_drift: Option<f64>,
    /// Dispatcher per-element outstanding poll credit.
    pub credit: Vec<f64>,
    /// Dispatcher per-element lifetime attempt counters (these key the
    /// deterministic failure draws).
    pub attempts: Vec<u64>,
    /// Per-epoch statistics of the run so far; its length is the epoch
    /// counter.
    pub history: Vec<EpochStats>,
    /// Telemetry time-series ring contents (possibly downsampled).
    pub series: TimeSeriesState,
    /// SLO evaluator state, present when the exporting engine had SLO
    /// rules armed.
    pub slo: Option<SloState>,
}

impl EngineState {
    /// The epoch the exporting engine would run next.
    pub fn epoch(&self) -> usize {
        self.history.len()
    }

    /// Mirror size the state was exported for.
    pub fn elements(&self) -> usize {
        self.last_poll.len()
    }
}
