//! The engine proper: the epoch loop closing the paper's operational
//! loop online.
//!
//! Per epoch the engine (1) executes the active schedule through the
//! budgeted dispatcher, (2) folds the resulting poll outcomes and the
//! epoch's access events into the incremental estimators, (3) feeds the
//! fresh `(p̂, λ̂)` snapshot to the drift-gated adaptive scheduler, and
//! (4) scores the epoch: perceived freshness of the *achieved* poll
//! frequencies under the epoch's estimates.
//!
//! Determinism: given a fixed input stream, poll source, and config, the
//! run — every dispatch, failure, estimate, drift value, and re-solve
//! decision — is a pure function, and [`EngineReport::to_json`] is
//! byte-identical across repeats. Wall-clock only enters the obs metrics
//! (`events_per_sec`), never the report.

use std::iter::Peekable;
use std::time::Instant;

use freshen_core::error::{CoreError, Result};
use freshen_core::estimate::{EwmaRateEstimator, LlnRateEstimator, WindowRateEstimator};
use freshen_core::exec::Executor;
use freshen_core::problem::{Problem, Solution};
use freshen_core::profile::ProfileEstimator;
use freshen_heuristics::adaptive::{AdaptiveScheduler, DriftMonitor};
use freshen_obs::{EpochSample, Health, Recorder, SloEngine, TimeSeries};
use freshen_workload::trace::AccessRecord;

use crate::audit::LedgerAudit;
use crate::config::{EngineConfig, EstimatorKind, ResolvePolicy};
use crate::dispatch::PollDispatcher;
use crate::report::{EngineReport, EpochStats};
use crate::source::PollSource;
use crate::state::{EngineState, EstimatorState};

/// The configured change-rate estimator behind one interface. Both
/// stochastic-approximation kinds (constant and decreasing gain) are one
/// [`EwmaRateEstimator`]; the kind and its schedule come from the config.
#[derive(Debug)]
enum RateTracker {
    Ewma(EwmaRateEstimator),
    Window(WindowRateEstimator),
    Lln(LlnRateEstimator),
}

impl RateTracker {
    fn new(n: usize, kind: EstimatorKind, prior: f64) -> Result<Self> {
        Ok(match kind {
            EstimatorKind::Ewma { gain } => {
                RateTracker::Ewma(EwmaRateEstimator::new(n, gain, prior)?)
            }
            EstimatorKind::Window { len } => RateTracker::Window(WindowRateEstimator::new(n, len)?),
            EstimatorKind::Lln => RateTracker::Lln(LlnRateEstimator::new(n)?),
            EstimatorKind::Sa { gain, decay } => {
                RateTracker::Ewma(EwmaRateEstimator::decreasing(n, gain, decay, prior)?)
            }
        })
    }

    fn observe(&mut self, element: usize, interval: f64, changed: bool) -> Result<()> {
        match self {
            RateTracker::Ewma(e) => e.observe(element, interval, changed),
            RateTracker::Window(e) => e.observe(element, interval, changed),
            RateTracker::Lln(e) => e.observe(element, interval, changed),
        }
    }

    fn rates(&self, fallback: f64) -> Vec<f64> {
        match self {
            RateTracker::Ewma(e) => e.rates(fallback),
            RateTracker::Window(e) => e.rates(fallback),
            RateTracker::Lln(e) => e.rates(fallback),
        }
    }

    fn export(&self) -> EstimatorState {
        match self {
            RateTracker::Ewma(e) => EstimatorState::Ewma {
                rates: e.raw_rates().to_vec(),
                seen: e.observation_counts().to_vec(),
            },
            RateTracker::Window(e) => EstimatorState::Window {
                window: e.window(),
                entries: e.entries(),
            },
            RateTracker::Lln(e) => {
                let (polls, detections, interval_sum) = e.state();
                EstimatorState::Lln {
                    polls: polls.to_vec(),
                    detections: detections.to_vec(),
                    interval_sum: interval_sum.to_vec(),
                }
            }
        }
    }

    /// Rebuild from exported state; the kind and its parameters come from
    /// `config` and must match the snapshot's shape.
    fn restore(n: usize, kind: EstimatorKind, state: EstimatorState) -> Result<Self> {
        let len = match &state {
            EstimatorState::Ewma { rates, .. } => rates.len(),
            EstimatorState::Window { entries, .. } => entries.len(),
            EstimatorState::Lln { polls, .. } => polls.len(),
        };
        if len != n {
            return Err(CoreError::LengthMismatch {
                what: "estimator state",
                expected: n,
                actual: len,
            });
        }
        Ok(match (kind, state) {
            (EstimatorKind::Ewma { gain }, EstimatorState::Ewma { rates, seen }) => {
                RateTracker::Ewma(EwmaRateEstimator::from_state(rates, seen, gain, 0.0)?)
            }
            (EstimatorKind::Sa { gain, decay }, EstimatorState::Ewma { rates, seen }) => {
                RateTracker::Ewma(EwmaRateEstimator::from_state(rates, seen, gain, decay)?)
            }
            (EstimatorKind::Window { len }, EstimatorState::Window { window, entries }) => {
                if window != len {
                    return Err(CoreError::InvalidConfig(format!(
                        "snapshot window {window} does not match configured window {len}"
                    )));
                }
                RateTracker::Window(WindowRateEstimator::from_state(window, entries)?)
            }
            (
                EstimatorKind::Lln,
                EstimatorState::Lln {
                    polls,
                    detections,
                    interval_sum,
                },
            ) => RateTracker::Lln(LlnRateEstimator::from_state(
                polls,
                detections,
                interval_sum,
            )?),
            _ => {
                return Err(CoreError::InvalidConfig(
                    "snapshot estimator kind does not match the configured estimator".into(),
                ))
            }
        })
    }
}

/// The online freshening runtime. Construct with a prior [`Problem`]
/// (the operator's initial belief about `(p, λ)` and the bandwidth
/// budget), then [`run`](Engine::run) it over an access stream and a
/// poll source.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    bandwidth: f64,
    /// The prior's per-poll cost column, re-attached to every rebuilt
    /// estimates problem (costs are operator-declared, not estimated).
    costs: Option<Vec<f64>>,
    profile: ProfileEstimator,
    rates: RateTracker,
    scheduler: AdaptiveScheduler,
    dispatcher: PollDispatcher,
    recorder: Recorder,
    executor: Executor,
    estimates: Problem,
    last_poll: Vec<f64>,
    /// Each element's poll frequency achieved in the current epoch,
    /// refilled by every [`step`](Engine::step). It carries no state
    /// across epochs: it is a field only so its allocation is reused.
    achieved: Vec<f64>,
    ledger: Option<LedgerAudit>,
    /// Per-epoch stats of the run in progress; its length is the epoch
    /// counter, so [`step`](Engine::step) needs no separate index.
    history: Vec<EpochStats>,
    /// Bounded telemetry ring of per-epoch samples (always populated;
    /// downsamples itself rather than growing with run length).
    series: TimeSeries,
    /// Freshness-SLO evaluator, armed by [`EngineConfig::slo`].
    slo: Option<SloEngine>,
}

impl Engine {
    /// Validate the config, solve the prior problem for the initial
    /// schedule, and arm estimators, drift monitor, and dispatcher.
    pub fn new(prior: &Problem, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let n = prior.len();
        let slo = match &config.slo {
            Some(rules) => Some(SloEngine::new(rules.clone()).map_err(CoreError::InvalidConfig)?),
            None => None,
        };
        // Operating levy: explicit `poll_cost`, or the shadow price γ* a
        // binding `cost_budget` implies on the prior (a pure function of
        // the prior, so restores re-derive the same levy). Under a cap
        // the initial schedule is the cost-budget solution itself: a
        // fresh solve at its levy can land on the other side of a
        // starvation threshold and overdraw the cap.
        let scheduler = match config.cost_budget {
            Some(cap) => {
                let solution =
                    freshen_solver::LagrangeSolver::default().solve_cost_budget(prior, cap)?;
                let levy = solution.cost_multiplier.unwrap_or(0.0);
                let monitor = DriftMonitor::new(prior, config.drift_threshold)?;
                AdaptiveScheduler::from_state(solution, monitor, 1, 0, None)?.with_cost_weight(levy)
            }
            None => AdaptiveScheduler::new_costed(prior, config.drift_threshold, config.poll_cost)?,
        };
        Ok(Engine {
            bandwidth: prior.bandwidth(),
            costs: prior.poll_costs().map(<[f64]>::to_vec),
            profile: ProfileEstimator::new(n, config.profile_decay)?,
            rates: RateTracker::new(n, config.estimator, config.fallback_rate)?,
            scheduler: scheduler.with_repair_fraction(config.repair_fraction),
            dispatcher: PollDispatcher::new(n, prior.bandwidth(), &config)?,
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
            estimates: prior.clone(),
            last_poll: vec![0.0; n],
            achieved: Vec::new(),
            ledger: config.audit.then(LedgerAudit::new),
            history: Vec::new(),
            series: TimeSeries::default(),
            slo,
            config,
        })
    }

    /// Attach a metrics/trace recorder (builder-style, like the solver
    /// and simulator).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Run re-solves (and the solver's inner allocation loop) on
    /// `executor`. With a thread pool, each epoch's drift-gated re-solve
    /// is spawned onto a worker and overlapped with the epoch's PF
    /// scoring, so the event loop never blocks on the solver; the solver
    /// itself also parallelizes its water-filling pass. Reports stay
    /// byte-identical at any worker count — the two overlapped steps are
    /// data-independent.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.scheduler = self.scheduler.with_executor(executor.clone());
        self.executor = executor;
        self
    }

    /// Mirror size.
    pub fn len(&self) -> usize {
        self.last_poll.len()
    }

    /// True when tracking zero elements (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.last_poll.is_empty()
    }

    /// Run the configured number of epochs, ingesting `accesses` (any
    /// stream of time-ordered [`AccessRecord`]s — a streaming trace
    /// reader or a live generator) and polling `source`.
    ///
    /// Equivalent to resetting the epoch history and calling
    /// [`step`](Engine::step) until [`EngineConfig::epochs`] epochs have
    /// run, then [`report`](Engine::report).
    pub fn run<I>(&mut self, accesses: I, source: &mut dyn PollSource) -> Result<EngineReport>
    where
        I: IntoIterator<Item = Result<AccessRecord>>,
    {
        let started = Instant::now();
        let mut accesses = accesses.into_iter().peekable();
        self.history.clear();
        if let Some(ledger) = &mut self.ledger {
            ledger.clear();
        }
        while self.history.len() < self.config.epochs {
            self.step(&mut accesses, source)?;
        }
        let totals = self.report();

        // Throughput and headline gauges for bench telemetry; wall time
        // stays out of the report itself.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.recorder
                .gauge("events_per_sec")
                .set(totals.events as f64 / elapsed);
        }
        self.recorder.gauge("pf").set(totals.realized_pf);
        Ok(totals)
    }

    /// Execute exactly one epoch: dispatch the active schedule, fold poll
    /// outcomes and the epoch's accesses into the estimators, run the
    /// drift-gated re-solve decision, and append the epoch's stats to the
    /// [`history`](Engine::history).
    ///
    /// This is the unit `freshen-serve` drives: it checkpoints between
    /// steps and drains after the in-flight step on shutdown. The epoch
    /// index is `history().len()`, so a restored engine continues exactly
    /// where the exporting one stopped.
    pub fn step<I>(
        &mut self,
        accesses: &mut Peekable<I>,
        source: &mut dyn PollSource,
    ) -> Result<EpochStats>
    where
        I: Iterator<Item = Result<AccessRecord>>,
    {
        let n = self.len();
        let epoch = self.history.len();
        let resolve_counter = self.recorder.counter("engine.resolves");
        let skip_counter = self.recorder.counter("engine.skips");
        let repair_counter = self.recorder.counter("engine.repairs");
        let repair_fallback_counter = self.recorder.counter("engine.repair_fallbacks");
        let audit_counter = self.recorder.counter("audit.violations");
        let offload_counter = self.recorder.counter("engine.offloaded_resolves");
        let drift_gauge = self.recorder.gauge("engine.drift");
        let pf_gauge = self.recorder.gauge("engine.realized_pf");

        let mut span = self.recorder.span("engine.epoch");
        span.arg("epoch", epoch);
        let epoch_start = epoch as f64 * self.config.epoch_len;
        let epoch_end = epoch_start + self.config.epoch_len;

        // 1. Execute the active schedule under the budget.
        let freqs = &self.scheduler.schedule().frequencies;
        let priorities: Vec<f64> = self
            .estimates
            .access_probs()
            .iter()
            .zip(self.estimates.change_rates())
            .map(|(&p, &l)| p * l)
            .collect();
        let credit_in = self
            .ledger
            .is_some()
            .then(|| self.dispatcher.total_credit());
        let outcome = self.dispatcher.run_epoch(
            epoch,
            epoch_start,
            self.config.epoch_len,
            freqs,
            &priorities,
            source,
            &self.recorder,
        )?;
        if let Some(ledger) = &mut self.ledger {
            let record = ledger.record(
                epoch,
                credit_in.expect("sampled when the ledger is armed"),
                freqs,
                self.config.epoch_len,
                &outcome,
                self.dispatcher.total_credit(),
                self.dispatcher.min_credit(),
            );
            if record.violated {
                audit_counter.inc();
            }
        }

        // 2. Fold poll outcomes into the change-rate estimator.
        for poll in &outcome.polls {
            let interval = (poll.time - self.last_poll[poll.element]).max(1e-9);
            self.rates.observe(poll.element, interval, poll.changed)?;
            self.last_poll[poll.element] = poll.time;
        }

        // ... and the epoch's accesses into the profile estimator.
        let mut epoch_accesses = 0u64;
        let mut stale_served = 0u64;
        while let Some(record) = accesses.peek() {
            match record {
                Ok(a) if a.time < epoch_end => {
                    if a.element >= n {
                        return Err(CoreError::InvalidValue {
                            what: "access element",
                            index: Some(a.element),
                            value: a.element as f64,
                        });
                    }
                    self.profile.observe(a.element);
                    epoch_accesses += 1;
                    if outcome.starved[a.element] {
                        stale_served += 1;
                    }
                    accesses.next();
                }
                Ok(_) => break,
                Err(_) => {
                    // Surface the stream error (unwrap is safe: we
                    // just peeked an Err).
                    return Err(accesses.next().expect("peeked item").unwrap_err());
                }
            }
        }

        // 3. Fresh estimates → drift monitor → (maybe) warm re-solve.
        self.estimates = self.estimates_problem(&self.rates, &self.profile)?;
        // 4. ... overlapped with scoring the epoch (estimates at the
        // achieved frequencies). The re-solve decision and the PF
        // score read the same immutable estimates and touch disjoint
        // state, so on a pool the solve runs on a worker while the
        // score runs here — the loop never blocks on the solver. Poll
        // counts are exact in f64, so each frequency is `count / len`.
        self.achieved.clear();
        self.achieved.resize(n, 0.0);
        for poll in &outcome.polls {
            self.achieved[poll.element] += 1.0;
        }
        for frequency in &mut self.achieved {
            *frequency /= self.config.epoch_len;
        }
        if self.executor.is_parallel() {
            offload_counter.inc();
        }
        let repairs_before = self.scheduler.repairs();
        let fallbacks_before = self.scheduler.repair_fallbacks();
        let (resolve_outcome, realized_pf) = {
            let scheduler = &mut self.scheduler;
            let estimates = &self.estimates;
            let achieved = &self.achieved;
            let policy = self.config.resolve_policy;
            self.executor.join(
                move || match policy {
                    ResolvePolicy::DriftGated => scheduler.observe(estimates),
                    ResolvePolicy::EveryEpoch => scheduler.resolve(estimates).map(|_| true),
                },
                || estimates.perceived_freshness(achieved),
            )
        };
        let resolved = resolve_outcome?;
        let drift = self.scheduler.last_drift().unwrap_or(0.0);
        if resolved {
            resolve_counter.inc();
        } else {
            skip_counter.inc();
        }
        repair_counter.add((self.scheduler.repairs() - repairs_before) as u64);
        repair_fallback_counter.add((self.scheduler.repair_fallbacks() - fallbacks_before) as u64);
        drift_gauge.set(drift);
        pf_gauge.set(realized_pf);

        let stats = EpochStats {
            index: epoch,
            start: epoch_start,
            drift,
            resolved,
            accesses: epoch_accesses,
            stale_served,
            dispatched: outcome.dispatched,
            succeeded: outcome.polls.len() as u64,
            failures: outcome.failures,
            retries: outcome.retries,
            deferred: outcome.deferred,
            shed: outcome.shed,
            realized_pf,
        };
        self.history.push(stats.clone());
        self.observe_epoch(&stats, epoch_end);
        Ok(stats)
    }

    /// Fold one finished epoch into the telemetry ring and (when armed)
    /// the SLO evaluator. Everything here reads deterministic run state
    /// only — wall clock never enters the sample.
    fn observe_epoch(&mut self, stats: &EpochStats, epoch_end: f64) {
        // Exact order statistics over the per-element ages at epoch end
        // (time since last successful poll).
        let mut ages: Vec<f64> = self.last_poll.iter().map(|&t| epoch_end - t).collect();
        let (age_p50, age_p95, age_max) = age_quantiles(&mut ages);
        let mut sample = EpochSample {
            epoch: stats.index as u64,
            realized_pf: stats.realized_pf,
            drift: stats.drift,
            age_p50,
            age_p95,
            age_max,
            credit: self.dispatcher.total_credit(),
            resolves: self.scheduler.resolves() as u64,
            skips: self.scheduler.skips() as u64,
            shed: stats.shed,
            dispatched: stats.dispatched,
            accesses: stats.accesses,
            stale_served: stats.stale_served,
            health: Health::Ok.as_u8(),
            requests: 0,
            request_p95_us: 0.0,
        };
        if let Some(slo) = &mut self.slo {
            let transition = slo.evaluate(&sample);
            sample.health = slo.health().as_u8();
            self.recorder.counter("obs.slo.evaluations").inc();
            if let Some(alert) = transition {
                let counter = match alert.health {
                    Health::Ok => "obs.slo.recoveries",
                    Health::Warn => "obs.slo.warns",
                    Health::Breach => "obs.slo.breaches",
                };
                self.recorder.counter(counter).inc();
                self.recorder.event(
                    "slo.transition",
                    &[
                        ("epoch", &alert.epoch),
                        ("state", &alert.health.as_str()),
                        ("rule", &alert.rule),
                        ("value", &alert.value),
                        ("threshold", &alert.threshold),
                    ],
                );
            }
        }
        self.series.push(sample);
        if self.config.progress_every > 0
            && (stats.index + 1).is_multiple_of(self.config.progress_every)
        {
            eprintln!(
                "epoch {:>6}  pf {:.4}  health {}  credit {:.2}  dispatched {}  shed {:.2}",
                stats.index,
                stats.realized_pf,
                self.health().as_str(),
                sample.credit,
                stats.dispatched,
                stats.shed,
            );
        }
    }

    /// The report over every epoch stepped so far. Totals are derived
    /// entirely from the epoch history plus the scheduler's counters, so
    /// the report is identical whether the epochs ran in one process or
    /// across a checkpoint/restore boundary.
    pub fn report(&self) -> EngineReport {
        let mut totals = EngineReport {
            elements: self.len(),
            epoch_len: self.config.epoch_len,
            seed: self.config.seed,
            events: 0,
            accesses: 0,
            polls_succeeded: 0,
            polls_failed: 0,
            retries: 0,
            deferred: 0,
            resolves: self.scheduler.resolves() as u64,
            skips: self.scheduler.skips() as u64,
            repairs: self.scheduler.repairs() as u64,
            repair_fallbacks: self.scheduler.repair_fallbacks() as u64,
            realized_pf: 0.0,
            epochs: self.history.clone(),
        };
        for e in &self.history {
            totals.events += e.accesses + e.dispatched;
            totals.accesses += e.accesses;
            totals.polls_succeeded += e.succeeded;
            totals.polls_failed += e.failures;
            totals.retries += e.retries;
            totals.deferred += e.deferred;
        }
        let measured: Vec<f64> = self
            .history
            .iter()
            .skip(self.config.warmup_epochs)
            .map(|e| e.realized_pf)
            .collect();
        totals.realized_pf = measured.iter().sum::<f64>() / measured.len().max(1) as f64;
        totals
    }

    /// Per-epoch stats accumulated by [`step`](Engine::step) /
    /// [`run`](Engine::run) so far.
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// The epoch the next [`step`](Engine::step) will execute.
    pub fn epoch(&self) -> usize {
        self.history.len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active poll schedule.
    pub fn schedule(&self) -> &Solution {
        self.scheduler.schedule()
    }

    /// Export every piece of cross-epoch state as plain data — see
    /// [`EngineState`] for the exactness contract.
    pub fn export_state(&self) -> EngineState {
        EngineState {
            last_poll: self.last_poll.clone(),
            estimator: self.rates.export(),
            profile_weights: self.profile.weights().to_vec(),
            profile_scale: self.profile.scale(),
            profile_observations: self.profile.observations(),
            schedule: self.scheduler.schedule().clone(),
            baseline_probs: self.scheduler.monitor().baseline_probs().to_vec(),
            baseline_rates: self.scheduler.monitor().baseline_rates().to_vec(),
            resolves: self.scheduler.resolves() as u64,
            skips: self.scheduler.skips() as u64,
            repairs: self.scheduler.repairs() as u64,
            repair_fallbacks: self.scheduler.repair_fallbacks() as u64,
            last_drift: self.scheduler.last_drift(),
            credit: self.dispatcher.credit().to_vec(),
            attempts: self.dispatcher.attempt_counts().to_vec(),
            history: self.history.clone(),
            series: self.series.export(),
            slo: self.slo.as_ref().map(|s| s.export()),
        }
    }

    /// Inject state exported by [`export_state`](Engine::export_state)
    /// into this engine, which must have been constructed with the same
    /// prior shape and configuration. After a successful restore, every
    /// subsequent [`step`](Engine::step) is byte-identical to the engine
    /// that exported the state.
    ///
    /// Validation happens before any mutation: an inconsistent state (a
    /// length mismatch, a mismatched estimator kind, non-finite values, a
    /// gapped history) comes back as a [`CoreError`] and leaves the
    /// engine untouched.
    pub fn restore_state(&mut self, state: EngineState) -> Result<()> {
        let n = self.len();
        if state.last_poll.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "last-poll instants",
                expected: n,
                actual: state.last_poll.len(),
            });
        }
        for (i, &t) in state.last_poll.iter().enumerate() {
            if !t.is_finite() || t < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "last-poll instant",
                    index: Some(i),
                    value: t,
                });
            }
        }
        if state.profile_weights.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "profile weights",
                expected: n,
                actual: state.profile_weights.len(),
            });
        }
        if state.baseline_probs.len() != n || state.schedule.frequencies.len() != n {
            return Err(CoreError::LengthMismatch {
                what: "scheduler state",
                expected: n,
                actual: state
                    .baseline_probs
                    .len()
                    .max(state.schedule.frequencies.len()),
            });
        }
        for (k, e) in state.history.iter().enumerate() {
            if e.index != k {
                return Err(CoreError::Inconsistent {
                    routine: "engine-restore",
                    invariant: "epoch history must be gapless and ordered",
                });
            }
        }

        // Build every fallible component before mutating anything.
        let series = TimeSeries::from_state(self.series.capacity(), &state.series)
            .map_err(|e| CoreError::InvalidConfig(format!("telemetry series: {e}")))?;
        // SLO state restores only when this engine has rules armed; an
        // armed engine restoring a pre-SLO snapshot starts evaluating
        // fresh, and an unarmed engine ignores any carried SLO state.
        let slo = match (&self.config.slo, &state.slo) {
            (Some(rules), Some(slo_state)) => Some(
                SloEngine::from_state(rules.clone(), slo_state)
                    .map_err(CoreError::InvalidConfig)?,
            ),
            (Some(rules), None) => {
                Some(SloEngine::new(rules.clone()).map_err(CoreError::InvalidConfig)?)
            }
            (None, _) => None,
        };
        let rates = RateTracker::restore(n, self.config.estimator, state.estimator)?;
        let profile = ProfileEstimator::from_state(
            state.profile_weights,
            state.profile_scale,
            self.config.profile_decay,
            state.profile_observations,
        )?;
        let monitor = DriftMonitor::from_state(
            state.baseline_probs,
            state.baseline_rates,
            self.config.drift_threshold,
        )?;
        let scheduler = AdaptiveScheduler::from_state(
            state.schedule,
            monitor,
            state.resolves as usize,
            state.skips as usize,
            state.last_drift,
        )?
        .with_repair_fraction(self.config.repair_fraction)
        .with_repair_counters(state.repairs as usize, state.repair_fallbacks as usize)
        .with_executor(self.executor.clone())
        // Same operating levy the constructor derived (explicit, or the
        // cost-budget calibration — this engine already carries it).
        .with_cost_weight(self.scheduler.cost_weight());
        // The live `(p̂, λ̂)` snapshot is a pure function of estimator
        // state, so it is recomputed rather than checkpointed. Before the
        // first epoch it is the prior, which the fresh engine already
        // holds.
        let estimates = if state.history.is_empty() {
            None
        } else {
            Some(self.estimates_problem(&rates, &profile)?)
        };
        self.dispatcher
            .restore_state(state.credit, state.attempts)?;
        self.rates = rates;
        self.profile = profile;
        self.scheduler = scheduler;
        self.last_poll = state.last_poll;
        self.history = state.history;
        self.series = series;
        self.slo = slo;
        if let Some(estimates) = estimates {
            self.estimates = estimates;
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.clear();
        }
        Ok(())
    }

    /// The `(p̂, λ̂)` problem of `rates` and `profile`: their current
    /// estimates under the prior's bandwidth and cost column.
    fn estimates_problem(
        &self,
        rates: &RateTracker,
        profile: &ProfileEstimator,
    ) -> Result<Problem> {
        let mut builder = Problem::builder()
            .change_rates(rates.rates(self.config.fallback_rate))
            .access_weights(profile.access_probs_smoothed(self.config.smoothing))
            .bandwidth(self.bandwidth);
        if let Some(costs) = &self.costs {
            builder = builder.costs(costs.clone());
        }
        builder.build()
    }

    /// The engine's current `(p̂, λ̂)` snapshot (the prior before the
    /// first epoch completes).
    pub fn estimates(&self) -> &Problem {
        &self.estimates
    }

    /// The adaptive scheduler (active schedule, resolve/skip counters).
    pub fn scheduler(&self) -> &AdaptiveScheduler {
        &self.scheduler
    }

    /// The poll-credit ledger from the most recent run, when
    /// [`EngineConfig::audit`] is on (`None` otherwise). Each epoch's
    /// conservation residual and breach flag are retained for
    /// post-mortem inspection.
    pub fn ledger(&self) -> Option<&LedgerAudit> {
        self.ledger.as_ref()
    }

    /// The bounded per-epoch telemetry ring (always populated).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The SLO evaluator, when [`EngineConfig::slo`] armed one.
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Current SLO health; `Ok` when no rules are armed.
    pub fn health(&self) -> Health {
        self.slo.as_ref().map_or(Health::Ok, |s| s.health())
    }

    /// The `/health` JSON body, when SLO rules are armed.
    pub fn health_json(&self) -> Option<String> {
        self.slo
            .as_ref()
            .map(|s| s.health_json(self.history.len().saturating_sub(1) as u64))
    }

    /// Stamp wall-clock control-plane load onto the retained sample for
    /// `epoch` (see [`TimeSeries::annotate_requests`]); annotations never
    /// feed back into reports or SLO evaluation.
    pub fn annotate_requests(&mut self, epoch: u64, requests: u64, p95_us: f64) {
        self.series.annotate_requests(epoch, requests, p95_us);
    }
}

/// Exact nearest-rank p50 and p95, and the max, of non-empty `ages`, by
/// selection in O(n) (reordering `ages`): one selection at the p95 rank,
/// one at the p50 rank inside its left part, and the max of its right
/// part. Under the total order equal keys have equal bits, so these are
/// the values a full sort would read.
fn age_quantiles(ages: &mut [f64]) -> (f64, f64, f64) {
    let n = ages.len();
    let rank = |q: f64| (((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1);
    let (i50, i95) = (rank(0.50), rank(0.95));
    let (left, &mut p95, right) = ages.select_nth_unstable_by(i95, f64::total_cmp);
    let max = right.iter().copied().max_by(f64::total_cmp).unwrap_or(p95);
    let p50 = if i50 < i95 {
        *left.select_nth_unstable_by(i50, f64::total_cmp).1
    } else {
        p95
    };
    (p50, p95, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{LivePollSource, ReplayPollSource};
    use crate::stream::{replay_accesses, LiveAccessStream};
    use freshen_workload::trace::PollRecord;

    fn prior(n: usize, bandwidth: f64) -> Problem {
        Problem::builder()
            .change_rates(vec![2.0; n])
            .access_weights(vec![1.0; n])
            .bandwidth(bandwidth)
            .build()
            .unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            epochs: 8,
            warmup_epochs: 2,
            seed: 13,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn age_quantiles_by_selection_match_the_sorted_ranks() {
        let by_sort = |ages: &[f64]| {
            let mut sorted = ages.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            let rank = |q: f64| {
                let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                sorted[idx.min(sorted.len() - 1)]
            };
            (rank(0.50), rank(0.95), sorted[sorted.len() - 1])
        };
        let mut rng = freshen_core::rng::SplitMix64::new(29);
        let mut cases: Vec<Vec<f64>> =
            vec![vec![3.5], vec![2.0, 1.0], vec![1.0, 1.0], vec![0.0, -0.0]];
        for n in [3, 19, 20, 21, 100, 1_001] {
            cases.push((0..n).map(|_| rng.range(0.0, 50.0)).collect());
            // Heavy ties: a handful of distinct ages, signed zeros among them.
            let levels = [0.0, -0.0, 1.5, 1.5, 7.25];
            cases.push((0..n).map(|_| levels[rng.below(levels.len())]).collect());
        }
        for ages in cases {
            let (p50, p95, max) = age_quantiles(&mut ages.clone());
            let (s50, s95, smax) = by_sort(&ages);
            assert_eq!(
                [p50.to_bits(), p95.to_bits(), max.to_bits()],
                [s50.to_bits(), s95.to_bits(), smax.to_bits()],
                "ages {ages:?}"
            );
        }
    }

    #[test]
    fn live_run_produces_consistent_totals() {
        let p = prior(6, 6.0);
        let mut engine = Engine::new(&p, small_config()).unwrap();
        let accesses = LiveAccessStream::new(p.access_probs(), 100.0, 3, 8.0).unwrap();
        let mut source = LivePollSource::new(&[3.0, 3.0, 2.0, 2.0, 1.0, 1.0], 5, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();

        assert_eq!(report.elements, 6);
        assert_eq!(report.epochs.len(), 8);
        assert!(report.accesses > 500, "≈100/period over 8 periods");
        assert_eq!(
            report.events,
            report.accesses + report.epochs.iter().map(|e| e.dispatched).sum::<u64>()
        );
        assert!(report.polls_succeeded > 0);
        assert!(report.realized_pf > 0.0 && report.realized_pf <= 1.0);
        assert_eq!(
            report.resolves + report.skips,
            1 + report.epochs.len() as u64,
            "initial solve plus one decision per epoch"
        );
    }

    #[test]
    fn trace_replay_is_byte_identical() {
        let n = 4;
        // A deterministic synthetic trace, no RNG involved.
        let mut access_records = Vec::new();
        let mut poll_records = Vec::new();
        for k in 0..400 {
            access_records.push(AccessRecord {
                time: k as f64 * 0.02,
                element: [0, 0, 1, 2, 0, 3, 1, 0][k % 8],
            });
        }
        for k in 0..80 {
            poll_records.push(PollRecord {
                time: k as f64 * 0.1,
                element: k % n,
                changed: k % 3 != 0,
            });
        }
        let mut config = small_config();
        config.failure_rate = 0.2; // exercise the injected-failure path
        let run = || {
            let p = prior(n, 8.0);
            let mut engine = Engine::new(&p, config.clone()).unwrap();
            let mut source = ReplayPollSource::new(n, &poll_records).unwrap();
            engine
                .run(replay_accesses(access_records.clone()), &mut source)
                .unwrap()
                .to_json()
        };
        let first = run();
        assert_eq!(first, run(), "same trace + seed ⇒ byte-identical report");
        assert!(first.contains("\"epochs\""));
    }

    #[test]
    fn pooled_resolves_leave_the_report_byte_identical() {
        let n = 4;
        let mut access_records = Vec::new();
        let mut poll_records = Vec::new();
        for k in 0..400 {
            access_records.push(AccessRecord {
                time: k as f64 * 0.02,
                element: [0, 0, 1, 2, 0, 3, 1, 0][k % 8],
            });
        }
        for k in 0..80 {
            poll_records.push(PollRecord {
                time: k as f64 * 0.1,
                element: k % n,
                changed: k % 3 != 0,
            });
        }
        let config = small_config();
        let run = |executor: Executor| {
            let p = prior(n, 8.0);
            let mut engine = Engine::new(&p, config.clone())
                .unwrap()
                .with_executor(executor);
            let mut source = ReplayPollSource::new(n, &poll_records).unwrap();
            engine
                .run(replay_accesses(access_records.clone()), &mut source)
                .unwrap()
                .to_json()
        };
        let serial = run(Executor::serial());
        for workers in [2, 4] {
            assert_eq!(
                serial,
                run(Executor::thread_pool(workers)),
                "{workers}-worker pool must not perturb the report"
            );
        }
    }

    #[test]
    fn offloaded_resolves_are_counted() {
        let p = prior(3, 3.0);
        let recorder = Recorder::enabled();
        let mut engine = Engine::new(&p, small_config())
            .unwrap()
            .with_recorder(recorder.clone())
            .with_executor(Executor::thread_pool(2));
        let accesses = LiveAccessStream::new(p.access_probs(), 50.0, 2, 8.0).unwrap();
        let mut source = LivePollSource::new(&[2.0; 3], 4, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();
        assert_eq!(
            recorder.counter_value("engine.offloaded_resolves").unwrap(),
            report.epochs.len() as u64,
            "every epoch's resolve decision goes through the pool"
        );
    }

    #[test]
    fn engine_learns_the_skewed_profile() {
        // Uniform prior, heavily skewed live traffic: after the run the
        // profile estimate must rank element 0 on top.
        let p = prior(4, 4.0);
        let mut engine = Engine::new(&p, small_config()).unwrap();
        let accesses = LiveAccessStream::new(&[0.7, 0.2, 0.05, 0.05], 200.0, 9, 8.0).unwrap();
        let mut source = LivePollSource::new(&[1.0; 4], 11, 16.0).unwrap();
        engine.run(accesses, &mut source).unwrap();
        let probs = engine.estimates().access_probs().to_vec();
        assert!(probs[0] > probs[1] && probs[1] > probs[2], "{probs:?}");
        assert!(probs[0] > 0.5, "dominant element learned: {probs:?}");
    }

    #[test]
    fn stream_errors_abort_the_run() {
        let p = prior(2, 2.0);
        let mut engine = Engine::new(&p, small_config()).unwrap();
        let accesses = vec![
            Ok(AccessRecord {
                time: 0.1,
                element: 0,
            }),
            Err(CoreError::InvalidConfig("bad line".into())),
        ];
        let mut source = LivePollSource::new(&[1.0, 1.0], 1, 16.0).unwrap();
        let err = engine.run(accesses, &mut source).unwrap_err();
        assert!(err.to_string().contains("bad line"), "{err}");
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let p = prior(2, 2.0);
        let mut engine = Engine::new(&p, small_config()).unwrap();
        let accesses = vec![Ok(AccessRecord {
            time: 0.1,
            element: 9,
        })];
        let mut source = LivePollSource::new(&[1.0, 1.0], 1, 16.0).unwrap();
        assert!(engine.run(accesses, &mut source).is_err());
    }

    #[test]
    fn oracle_policy_resolves_every_epoch() {
        let p = prior(3, 3.0);
        let mut config = small_config();
        config.resolve_policy = ResolvePolicy::EveryEpoch;
        let mut engine = Engine::new(&p, config).unwrap();
        let accesses = LiveAccessStream::new(p.access_probs(), 50.0, 21, 8.0).unwrap();
        let mut source = LivePollSource::new(&[2.0; 3], 22, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();
        assert!(report.epochs.iter().all(|e| e.resolved));
        assert_eq!(report.resolves, 1 + report.epochs.len() as u64);
        assert_eq!(report.skips, 0);
    }

    #[test]
    fn audited_run_keeps_a_clean_ledger_under_failures() {
        // Budget-starved + failure-injected: abandonment, retries, and
        // shedding all fire, and every epoch still balances.
        let p = prior(4, 4.0);
        let mut config = small_config();
        config.audit = true;
        config.failure_rate = 0.3;
        config.max_retries = 1;
        config.budget_factor = 0.6;
        let recorder = Recorder::enabled();
        let mut engine = Engine::new(&p, config)
            .unwrap()
            .with_recorder(recorder.clone());
        let accesses = LiveAccessStream::new(p.access_probs(), 60.0, 5, 8.0).unwrap();
        let mut source = LivePollSource::new(&[2.0; 4], 6, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();

        let ledger = engine.ledger().expect("audit flag arms the ledger");
        assert_eq!(ledger.epochs().len(), report.epochs.len());
        assert!(
            ledger.is_clean(),
            "conservation breached: {:?}",
            ledger.epochs()
        );
        assert!(ledger.max_residual() < 1e-9);
        assert!(
            ledger.epochs().iter().map(|e| e.abandoned).sum::<u64>() > 0,
            "the starved run must exercise the abandonment path"
        );
        assert_eq!(recorder.counter_value("audit.violations").unwrap_or(0), 0);
        assert!(
            Engine::new(&p, small_config()).unwrap().ledger().is_none(),
            "ledger stays off by default"
        );
    }

    #[test]
    fn recorder_captures_engine_metrics() {
        let p = prior(3, 3.0);
        let recorder = Recorder::enabled();
        let mut engine = Engine::new(&p, small_config())
            .unwrap()
            .with_recorder(recorder.clone());
        let accesses = LiveAccessStream::new(p.access_probs(), 50.0, 2, 8.0).unwrap();
        let mut source = LivePollSource::new(&[2.0; 3], 4, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();
        assert_eq!(
            recorder.counter_value("engine.resolves").unwrap_or(0)
                + recorder.counter_value("engine.skips").unwrap_or(0),
            report.epochs.len() as u64
        );
        assert!(recorder.gauge_value("pf").is_some());
        assert!(recorder.gauge_value("engine.drift").is_some());
        let metrics = recorder.metrics_json().expect("enabled recorder");
        assert!(metrics.contains("engine.dispatch_latency"));
    }

    #[test]
    fn state_roundtrip_resumes_byte_identically() {
        // Step an engine halfway, export, restore into a fresh engine,
        // finish both — the reports must match byte for byte. This is
        // the in-process version of the serve crate's kill-and-resume
        // guarantee, with the live sources restored by replay.
        let n = 4;
        let p = prior(n, 6.0);
        let mut config = small_config();
        config.failure_rate = 0.15; // exercise the attempt-counter path
        let rates = [3.0, 2.0, 1.5, 1.0];
        let horizon = config.horizon();
        let make_accesses = || {
            LiveAccessStream::new(p.access_probs(), 80.0, 31, horizon)
                .unwrap()
                .peekable()
        };
        let split = 3;

        // Uninterrupted reference run.
        let mut reference = Engine::new(&p, config.clone()).unwrap();
        let mut ref_source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let expected = reference
            .run(make_accesses(), &mut ref_source)
            .unwrap()
            .to_json();

        // Run `split` epochs, snapshot everything the serve layer would.
        let mut first = Engine::new(&p, config.clone()).unwrap();
        let mut source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let mut accesses = make_accesses();
        let mut consumed = 0u64;
        for _ in 0..split {
            consumed += first.step(&mut accesses, &mut source).unwrap().accesses;
        }
        let state = first.export_state();
        assert_eq!(state.epoch(), split);
        let source_state = source.state();

        // Restore into fresh components and finish.
        let mut second = Engine::new(&p, config.clone()).unwrap();
        second.restore_state(state).unwrap();
        let mut source2 = LivePollSource::restore(&rates, 32, horizon, &source_state).unwrap();
        let mut accesses2 = make_accesses();
        for _ in 0..consumed {
            accesses2.next().unwrap().unwrap();
        }
        while second.epoch() < config.epochs {
            second.step(&mut accesses2, &mut source2).unwrap();
        }
        assert_eq!(
            second.report().to_json(),
            expected,
            "restored run must reproduce the uninterrupted report"
        );
    }

    #[test]
    fn decayed_profile_resumes_byte_identically_at_every_epoch_across_folds() {
        // At decay 0.9 the profile folds its scale every ~421 accesses;
        // 400 accesses per period over 8 epochs crosses several folds.
        // Export and restore into a fresh engine after every epoch: the
        // chain must finish with the uninterrupted report byte for byte.
        let n = 6;
        let p = prior(n, 6.0);
        let mut config = small_config();
        config.profile_decay = 0.9;
        config.failure_rate = 0.1;
        let rates = [3.0, 3.0, 2.0, 2.0, 1.0, 1.0];
        let horizon = config.horizon();
        let make_accesses = || {
            LiveAccessStream::new(p.access_probs(), 400.0, 31, horizon)
                .unwrap()
                .peekable()
        };

        let mut reference = Engine::new(&p, config.clone()).unwrap();
        let mut ref_source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let expected = reference
            .run(make_accesses(), &mut ref_source)
            .unwrap()
            .to_json();

        let mut engine = Engine::new(&p, config.clone()).unwrap();
        let mut source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let mut accesses = make_accesses();
        while engine.epoch() < config.epochs {
            engine.step(&mut accesses, &mut source).unwrap();
            let state = engine.export_state();
            let source_state = source.state();
            engine = Engine::new(&p, config.clone()).unwrap();
            engine.restore_state(state.clone()).unwrap();
            assert_eq!(engine.export_state(), state);
            source = LivePollSource::restore(&rates, 32, horizon, &source_state).unwrap();
        }
        assert_eq!(engine.report().to_json(), expected);
        let state = engine.export_state();
        assert!(
            state.profile_observations >= 4 * 422,
            "only {} accesses: fewer than three folds",
            state.profile_observations
        );
        assert!(state.profile_scale > 1.0);
        assert_eq!(state, reference.export_state());
    }

    #[test]
    fn cost_budget_engine_runs_at_the_cap_levy_and_resumes_byte_identically() {
        use freshen_core::audit::SolutionAudit;
        use freshen_core::policy::SyncPolicy;
        use freshen_solver::LagrangeSolver;

        let p = Problem::builder()
            .change_rates(vec![3.0, 2.0, 1.5, 1.0])
            .access_weights(vec![4.0, 3.0, 2.0, 1.0])
            .costs(vec![0.5, 0.9, 1.3, 1.7])
            .bandwidth(6.0)
            .build()
            .unwrap();
        let solver = LagrangeSolver::default();
        let cap = 0.6 * p.cost_used(&solver.solve(&p).unwrap().frequencies);
        let mut config = small_config();
        config.cost_budget = Some(cap);
        let rates = [3.0, 2.0, 1.5, 1.0];
        let horizon = config.horizon();
        let make_accesses = || {
            LiveAccessStream::new(p.access_probs(), 80.0, 31, horizon)
                .unwrap()
                .peekable()
        };
        let split = 3;

        // The engine operates at the cap's levy, and its initial
        // schedule keeps to the cap and certifies at that levy.
        let levy = solver
            .solve_cost_budget(&p, cap)
            .unwrap()
            .cost_multiplier
            .expect("binding cap ⇒ positive levy");
        let mut reference = Engine::new(&p, config.clone()).unwrap();
        assert_eq!(
            reference.scheduler().cost_weight().to_bits(),
            levy.to_bits()
        );
        let initial = reference.scheduler().schedule();
        let spend = p.cost_used(&initial.frequencies);
        assert!(spend <= cap * (1.0 + solver.budget_tol), "{spend} > {cap}");
        let report = SolutionAudit::default()
            .check_with_cost(&p, initial, SyncPolicy::FixedOrder, levy)
            .unwrap();
        assert!(report.is_clean(), "{}", report.to_json());

        // A restore re-derives the levy and finishes with the
        // uninterrupted report.
        let mut ref_source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let expected = reference
            .run(make_accesses(), &mut ref_source)
            .unwrap()
            .to_json();
        let mut first = Engine::new(&p, config.clone()).unwrap();
        let mut source = LivePollSource::new(&rates, 32, horizon).unwrap();
        let mut accesses = make_accesses();
        let mut consumed = 0u64;
        for _ in 0..split {
            consumed += first.step(&mut accesses, &mut source).unwrap().accesses;
        }
        let state = first.export_state();
        let source_state = source.state();
        let mut second = Engine::new(&p, config.clone()).unwrap();
        second.restore_state(state).unwrap();
        let mut source2 = LivePollSource::restore(&rates, 32, horizon, &source_state).unwrap();
        let mut accesses2 = make_accesses();
        for _ in 0..consumed {
            accesses2.next().unwrap().unwrap();
        }
        while second.epoch() < config.epochs {
            second.step(&mut accesses2, &mut source2).unwrap();
        }
        assert_eq!(second.report().to_json(), expected);
    }

    #[test]
    fn cost_capped_engine_starts_on_the_cost_budget_solution() {
        use freshen_solver::LagrangeSolver;

        // The solver tests' `striped(1000, 2)` with per-poll costs
        // `0.5 + 0.4·(i mod 7)`, cap 0.95 × the plain spend. At the cap's
        // levy the bandwidth water level straddles a starvation
        // threshold, so a fresh solve at that levy overdraws the cap
        // (by 3.3e-8 of C); the engine must start on the cost-budget
        // solution itself.
        let n = 1000;
        let striped = Problem::builder()
            .change_rates(
                (0..n)
                    .map(|i| (0.1 + (i % 13) as f64 * 0.4) * if i % 5 == 0 { 2.0 } else { 1.0 })
                    .collect(),
            )
            .access_weights((0..n).map(|i| 1.0 / (i + 1) as f64).collect())
            .bandwidth(n as f64 / 3.0)
            .build()
            .unwrap();
        let p = Problem::builder()
            .change_rates(striped.change_rates().to_vec())
            .access_probs(striped.access_probs().to_vec())
            .costs((0..n).map(|i| 0.5 + 0.4 * (i % 7) as f64).collect())
            .bandwidth(striped.bandwidth())
            .build()
            .unwrap();
        let solver = LagrangeSolver::default();
        let cap = 0.95 * p.cost_used(&solver.solve(&p).unwrap().frequencies);
        let budgeted = solver.solve_cost_budget(&p, cap).unwrap();
        let config = EngineConfig {
            cost_budget: Some(cap),
            ..small_config()
        };
        let engine = Engine::new(&p, config).unwrap();
        let initial = engine.schedule();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&initial.frequencies), bits(&budgeted.frequencies));
        assert_eq!(initial.multiplier, budgeted.multiplier);
        assert_eq!(initial.cost_multiplier, budgeted.cost_multiplier);
        assert_eq!(
            engine.scheduler().cost_weight(),
            budgeted.cost_multiplier.unwrap()
        );
        let spend = p.cost_used(&initial.frequencies);
        assert!(
            spend <= cap * (1.0 + solver.budget_tol),
            "spend {spend} overdraws the cap {cap} by {:.2e} of it",
            spend / cap - 1.0
        );
    }

    #[test]
    fn telemetry_series_and_slo_follow_the_run() {
        use freshen_obs::SloConfig;
        let p = prior(4, 4.0);
        let mut config = small_config();
        // Unreachable floor: every epoch violates, so the run must walk
        // Ok → Warn → Breach and stay breached.
        config.slo = Some(SloConfig {
            target_pf: 0.999_999,
            breach_after: 2,
            ..SloConfig::default()
        });
        let recorder = Recorder::enabled();
        let mut engine = Engine::new(&p, config.clone())
            .unwrap()
            .with_recorder(recorder.clone());
        let accesses = LiveAccessStream::new(p.access_probs(), 60.0, 7, config.horizon()).unwrap();
        let mut source = LivePollSource::new(&[1.5; 4], 8, 16.0).unwrap();
        let report = engine.run(accesses, &mut source).unwrap();

        let samples = engine.series().samples();
        assert_eq!(samples.len(), report.epochs.len());
        assert_eq!(samples[0].epoch, 0);
        assert!(samples.iter().all(|s| s.age_p50 <= s.age_p95));
        assert!(samples.iter().all(|s| s.age_p95 <= s.age_max));
        assert_eq!(engine.health(), Health::Breach);
        let slo = engine.slo().expect("armed");
        assert!(slo.breaches() >= 1);
        assert_eq!(
            recorder.counter_value("obs.slo.evaluations").unwrap(),
            report.epochs.len() as u64
        );
        assert_eq!(recorder.counter_value("obs.slo.breaches").unwrap(), 1);
        assert!(engine.health_json().unwrap().contains("\"breach\""));

        // The evaluator and the ring survive an export/restore cycle.
        let state = engine.export_state();
        let mut fresh = Engine::new(&p, config).unwrap();
        fresh.restore_state(state.clone()).unwrap();
        assert_eq!(fresh.health(), Health::Breach);
        assert_eq!(fresh.series().samples(), engine.series().samples());
        assert_eq!(fresh.export_state(), state);

        // An engine without rules stays Ok and ignores carried SLO state.
        let mut unarmed = Engine::new(&p, small_config()).unwrap();
        unarmed.restore_state(state).unwrap();
        assert_eq!(unarmed.health(), Health::Ok);
        assert!(unarmed.slo().is_none());
        assert!(unarmed.export_state().slo.is_none());
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let p = prior(3, 3.0);
        let mut engine = Engine::new(&p, small_config()).unwrap();
        let accesses = LiveAccessStream::new(p.access_probs(), 50.0, 2, 8.0).unwrap();
        let mut source = LivePollSource::new(&[2.0; 3], 4, 16.0).unwrap();
        engine.run(accesses, &mut source).unwrap();
        let good = engine.export_state();

        // Wrong element count.
        let mut fresh = Engine::new(&p, small_config()).unwrap();
        let mut bad = good.clone();
        bad.last_poll.push(0.0);
        assert!(fresh.restore_state(bad).is_err());

        // Non-finite poll instant.
        let mut bad = good.clone();
        bad.last_poll[0] = f64::NAN;
        assert!(fresh.restore_state(bad).is_err());

        // Gapped history.
        let mut bad = good.clone();
        bad.history[2].index = 7;
        assert!(fresh.restore_state(bad).is_err());

        // Profile state outside what `observe` keeps: a scale below 1,
        // a non-finite scale, a negative weight.
        for (scale, weight) in [(0.5, 1.0), (f64::INFINITY, 1.0), (1.0, -1.0)] {
            let mut bad = good.clone();
            bad.profile_scale = scale;
            bad.profile_weights[1] = weight;
            assert!(matches!(
                fresh.restore_state(bad),
                Err(CoreError::InvalidValue { .. })
            ));
        }

        // Estimator kind mismatch.
        let mut bad = good.clone();
        bad.estimator = EstimatorState::Window {
            window: 32,
            entries: vec![Vec::new(); 3],
        };
        assert!(fresh.restore_state(bad).is_err());

        // A failed restore leaves the engine usable: the good state
        // still applies cleanly afterwards.
        fresh.restore_state(good).unwrap();
        assert_eq!(fresh.epoch(), engine.epoch());
    }
}
