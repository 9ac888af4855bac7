//! Engine configuration: estimator choice, re-solve policy, dispatch
//! budget, and failure-injection knobs.

use freshen_core::error::{CoreError, Result};
use freshen_core::estimate;
use freshen_core::profile::ProfileEstimator;
use freshen_obs::SloConfig;

/// Which incremental change-rate estimator the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Constant-gain stochastic-approximation estimator
    /// ([`EwmaRateEstimator::new`]) — `O(1)` memory per element, geometric
    /// forgetting with step `gain ∈ (0, 1]`.
    ///
    /// [`EwmaRateEstimator::new`]: freshen_core::estimate::EwmaRateEstimator::new
    Ewma {
        /// Stochastic-approximation step size.
        gain: f64,
    },
    /// Sliding-window bias-reduced estimator ([`WindowRateEstimator`]) —
    /// `O(window)` memory per element, sharp forgetting.
    ///
    /// [`WindowRateEstimator`]: freshen_core::estimate::WindowRateEstimator
    Window {
        /// Polls remembered per element.
        len: usize,
    },
    /// Law-of-large-numbers estimator ([`LlnRateEstimator`]) — full-history
    /// sufficient statistics in `O(1)` memory per element, strongly
    /// consistent on stationary streams (error `O(1/√n)`), but forgets a
    /// regime shift only at `O(1/n)`.
    ///
    /// [`LlnRateEstimator`]: freshen_core::estimate::LlnRateEstimator
    Lln,
    /// Decreasing-gain stochastic-approximation estimator
    /// ([`EwmaRateEstimator::decreasing`]) — Robbins–Monro schedule
    /// `η_k = gain/(1+k)^decay`, almost-sure convergence with a vanishing
    /// noise floor on stationary streams.
    ///
    /// [`EwmaRateEstimator::decreasing`]: freshen_core::estimate::EwmaRateEstimator::decreasing
    Sa {
        /// Initial gain `g₀ ∈ (0, 1]`.
        gain: f64,
        /// Gain decay exponent, in `(0.5, 1]` for Robbins–Monro
        /// convergence.
        decay: f64,
    },
}

/// When does the engine re-solve the Core Problem?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvePolicy {
    /// Re-solve only when the drift monitor fires (the production
    /// policy): warm-started, so small drifts are cheap.
    DriftGated,
    /// Re-solve at the end of every epoch regardless of drift — the
    /// oracle the drift-gated policy is benchmarked against.
    EveryEpoch,
}

/// Full engine configuration. [`EngineConfig::default`] is a reasonable
/// operating point for period-scale epochs; every field is a plain value
/// so configs stay copyable and comparable in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of epochs to run.
    pub epochs: usize,
    /// Epoch length in periods: the cadence of estimation, drift checks,
    /// and dispatch planning.
    pub epoch_len: f64,
    /// Leading epochs excluded from the realized-PF average while the
    /// estimators settle.
    pub warmup_epochs: usize,
    /// Jeffreys-divergence threshold handed to the drift monitor.
    pub drift_threshold: f64,
    /// Re-solve policy (drift-gated vs. every-epoch oracle).
    pub resolve_policy: ResolvePolicy,
    /// Incremental-repair gate: when a re-solve fires and the drift
    /// monitor localises it to at most this fraction of elements, the
    /// scheduler patches the previous optimum by KKT repair (then
    /// certifies with the strict audit) instead of re-running the full
    /// warm-started water-fill. `0.0` disables repair entirely.
    pub repair_fraction: f64,
    /// Change-rate estimator choice.
    pub estimator: EstimatorKind,
    /// Per-observation decay of the access-profile counts (1.0 = plain
    /// counting; slightly below 1.0 = exponential forgetting), in
    /// `[ProfileEstimator::MIN_DECAY, 1]`. An access costs O(1) either way
    /// (see [`ProfileEstimator`]).
    pub profile_decay: f64,
    /// Additive smoothing pseudo-count for the access profile (> 0 keeps
    /// never-accessed elements schedulable).
    pub smoothing: f64,
    /// Change rate assumed for never-polled elements.
    pub fallback_rate: f64,
    /// Multiplier on the problem bandwidth when sizing the per-epoch
    /// dispatch budget: < 1.0 deliberately starves the dispatcher to
    /// exercise graceful degradation.
    pub budget_factor: f64,
    /// Maximum poll backlog (in polls) an element may carry across
    /// epochs before the excess is shed (stale-but-served degradation).
    pub max_backlog: f64,
    /// Probability that any individual poll attempt fails (injected
    /// deterministically from the seed).
    pub failure_rate: f64,
    /// Retries allowed per planned poll after its first failed attempt.
    pub max_retries: u32,
    /// Delay (periods) added per retry attempt.
    pub retry_backoff: f64,
    /// Master seed: failure injection derives from it, so a fixed seed
    /// plus a fixed input stream reproduces the run byte-for-byte.
    pub seed: u64,
    /// Run the per-epoch poll-credit ledger audit
    /// ([`LedgerAudit`](crate::audit::LedgerAudit)): every epoch the
    /// dispatcher's conservation law is checked and breaches are counted
    /// on the `audit.violations` obs counter. Off by default — the check
    /// is cheap (one pass over the credit vector) but exists for tests,
    /// CI, and debugging, not the hot path.
    pub audit: bool,
    /// Freshness-SLO rules evaluated against every epoch's telemetry
    /// sample ([`SloEngine`](freshen_obs::SloEngine)). `None` disables
    /// evaluation; the time-series ring is populated either way.
    pub slo: Option<SloConfig>,
    /// Emit a one-line progress summary to stderr every this many epochs
    /// (0 disables). Purely cosmetic: never touches reports, snapshots,
    /// or any deterministic output.
    pub progress_every: usize,
    /// Per-poll cost weight `γ` handed to the scheduler's solver: every
    /// solve (initial, warm, repair) maximizes `PF − γ·Σ cᵢfᵢ` against
    /// the problem's cost column and the repair certificate checks the
    /// cost-adjusted KKT condition. `0.0` (the default) is the cost-blind
    /// objective, bit-for-bit.
    pub poll_cost: f64,
    /// Optional cost-spend cap `C`. When set, the engine calibrates the
    /// levy once at startup — the levy search
    /// (`LagrangeSolver::solve_cost_budget`) on the *prior* problem
    /// yields the shadow price γ\*, which is then installed as the
    /// operating `poll_cost` for the whole run. Mutually exclusive with a
    /// nonzero `poll_cost` (the cap decides the levy; setting both is a
    /// config error). Calibration is a pure function of the prior, so a
    /// restored run re-derives the identical levy.
    pub cost_budget: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epochs: 40,
            epoch_len: 1.0,
            warmup_epochs: 5,
            drift_threshold: 0.05,
            resolve_policy: ResolvePolicy::DriftGated,
            repair_fraction: 0.1,
            estimator: EstimatorKind::Ewma { gain: 0.1 },
            profile_decay: 0.9995,
            smoothing: 0.5,
            fallback_rate: 1.0,
            budget_factor: 1.0,
            max_backlog: 2.0,
            failure_rate: 0.0,
            max_retries: 2,
            retry_backoff: 0.05,
            seed: 0,
            audit: false,
            slo: None,
            progress_every: 0,
            poll_cost: 0.0,
            cost_budget: None,
        }
    }
}

impl EngineConfig {
    /// Validate every knob; the error names the offending field.
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &'static str, value: f64) -> CoreError {
            CoreError::InvalidValue {
                what,
                index: None,
                value,
            }
        }
        if self.epochs == 0 {
            return Err(CoreError::InvalidConfig("engine needs ≥ 1 epoch".into()));
        }
        if self.warmup_epochs >= self.epochs {
            return Err(CoreError::InvalidConfig(format!(
                "warmup ({}) must leave at least one measured epoch of {}",
                self.warmup_epochs, self.epochs
            )));
        }
        if !self.epoch_len.is_finite() || self.epoch_len <= 0.0 {
            return Err(bad("epoch length", self.epoch_len));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold <= 0.0 {
            return Err(bad("drift threshold", self.drift_threshold));
        }
        if !self.repair_fraction.is_finite() || !(0.0..=1.0).contains(&self.repair_fraction) {
            return Err(bad("repair fraction", self.repair_fraction));
        }
        match self.estimator {
            EstimatorKind::Ewma { gain } => estimate::check_gain(gain)?,
            EstimatorKind::Window { len } => estimate::check_window(len)?,
            EstimatorKind::Lln => {}
            EstimatorKind::Sa { gain, decay } => {
                estimate::check_gain(gain)?;
                estimate::check_gain_decay(decay)?;
            }
        }
        if !self.poll_cost.is_finite() || self.poll_cost < 0.0 {
            return Err(bad("poll cost weight", self.poll_cost));
        }
        if let Some(cap) = self.cost_budget {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(bad("cost budget", cap));
            }
            if self.poll_cost > 0.0 {
                return Err(CoreError::InvalidConfig(
                    "cost budget and poll cost are mutually exclusive: the cap calibrates \
                     the levy itself"
                        .into(),
                ));
            }
        }
        if !(ProfileEstimator::MIN_DECAY..=1.0).contains(&self.profile_decay) {
            return Err(bad("profile decay", self.profile_decay));
        }
        if !self.smoothing.is_finite() || self.smoothing <= 0.0 {
            return Err(bad("profile smoothing", self.smoothing));
        }
        if !self.fallback_rate.is_finite() || self.fallback_rate <= 0.0 {
            return Err(bad("fallback change rate", self.fallback_rate));
        }
        if !self.budget_factor.is_finite() || self.budget_factor <= 0.0 {
            return Err(bad("budget factor", self.budget_factor));
        }
        if !self.max_backlog.is_finite() || self.max_backlog < 1.0 {
            return Err(bad("max backlog", self.max_backlog));
        }
        if !self.failure_rate.is_finite() || !(0.0..1.0).contains(&self.failure_rate) {
            return Err(bad("failure rate", self.failure_rate));
        }
        if !self.retry_backoff.is_finite() || self.retry_backoff < 0.0 {
            return Err(bad("retry backoff", self.retry_backoff));
        }
        if let Some(slo) = &self.slo {
            slo.validate().map_err(CoreError::InvalidConfig)?;
        }
        Ok(())
    }

    /// Total simulated horizon in periods.
    pub fn horizon(&self) -> f64 {
        self.epochs as f64 * self.epoch_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_names_each_bad_field() {
        let ok = EngineConfig::default();
        let cases: Vec<(EngineConfig, &str)> = vec![
            (
                EngineConfig {
                    epochs: 0,
                    ..ok.clone()
                },
                "epoch",
            ),
            (
                EngineConfig {
                    warmup_epochs: 40,
                    ..ok.clone()
                },
                "warmup",
            ),
            (
                EngineConfig {
                    epoch_len: 0.0,
                    ..ok.clone()
                },
                "epoch length",
            ),
            (
                EngineConfig {
                    drift_threshold: -1.0,
                    ..ok.clone()
                },
                "drift threshold",
            ),
            (
                EngineConfig {
                    repair_fraction: 1.5,
                    ..ok.clone()
                },
                "repair fraction",
            ),
            (
                EngineConfig {
                    estimator: EstimatorKind::Ewma { gain: 2.0 },
                    ..ok.clone()
                },
                "gain",
            ),
            (
                EngineConfig {
                    estimator: EstimatorKind::Window { len: 0 },
                    ..ok.clone()
                },
                "window",
            ),
            (
                EngineConfig {
                    profile_decay: 0.0,
                    ..ok.clone()
                },
                "decay",
            ),
            (
                EngineConfig {
                    profile_decay: 1e-20,
                    ..ok.clone()
                },
                "decay",
            ),
            (
                EngineConfig {
                    smoothing: 0.0,
                    ..ok.clone()
                },
                "smoothing",
            ),
            (
                EngineConfig {
                    fallback_rate: f64::NAN,
                    ..ok.clone()
                },
                "fallback",
            ),
            (
                EngineConfig {
                    budget_factor: 0.0,
                    ..ok.clone()
                },
                "budget",
            ),
            (
                EngineConfig {
                    max_backlog: 0.5,
                    ..ok.clone()
                },
                "backlog",
            ),
            (
                EngineConfig {
                    failure_rate: 1.0,
                    ..ok.clone()
                },
                "failure",
            ),
            (
                EngineConfig {
                    retry_backoff: -0.1,
                    ..ok.clone()
                },
                "backoff",
            ),
            (
                EngineConfig {
                    slo: Some(SloConfig {
                        target_pf: 2.0,
                        ..SloConfig::default()
                    }),
                    ..ok.clone()
                },
                "slo",
            ),
            (
                EngineConfig {
                    estimator: EstimatorKind::Sa {
                        gain: 0.5,
                        decay: 0.3,
                    },
                    ..ok.clone()
                },
                "decay",
            ),
            (
                EngineConfig {
                    poll_cost: -0.1,
                    ..ok.clone()
                },
                "poll cost",
            ),
            (
                EngineConfig {
                    cost_budget: Some(0.0),
                    ..ok.clone()
                },
                "cost budget",
            ),
            (
                EngineConfig {
                    poll_cost: 0.1,
                    cost_budget: Some(5.0),
                    ..ok.clone()
                },
                "mutually exclusive",
            ),
        ];
        for (config, hint) in cases {
            let err = config.validate().unwrap_err().to_string().to_lowercase();
            assert!(err.contains(hint), "error `{err}` should mention `{hint}`");
        }
    }

    #[test]
    fn horizon_is_epochs_times_length() {
        let c = EngineConfig {
            epochs: 8,
            epoch_len: 2.5,
            ..EngineConfig::default()
        };
        assert_eq!(c.horizon(), 20.0);
    }
}
