//! The simulation driver: wires generators, schedule, state, and evaluator
//! into one deterministic event loop.

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::Executor;
use freshen_core::policy::SyncPolicy;
use freshen_core::problem::Problem;
use freshen_core::schedule::ScheduleStream;
use freshen_obs::json::{push_float, push_u64};
use freshen_obs::Recorder;

use crate::evaluator::FreshnessEvaluator;
use crate::generators::{AccessGenerator, UpdateGenerator};
use crate::state::{Mirror, Source};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Measured simulation length, in periods.
    pub periods: f64,
    /// Warm-up length, in periods, excluded from all metrics (lets the
    /// all-fresh initial state decay to steady state).
    pub warmup_periods: f64,
    /// Total user requests per period (drives the access-scored metric's
    /// sample count).
    pub accesses_per_period: f64,
    /// Seed; the whole simulation is a pure function of problem,
    /// frequencies, config, and this value.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            periods: 20.0,
            warmup_periods: 2.0,
            accesses_per_period: 1000.0,
            seed: 0,
        }
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Closed-form expectation `Σ pᵢ·F̄(λᵢ, fᵢ)` (the analytic evaluator
    /// mode).
    pub analytic_pf: f64,
    /// Time-integrated perceived freshness over the measured window.
    pub time_averaged_pf: f64,
    /// Access-scored perceived freshness (Definition 3); `None` when no
    /// access landed in the measured window.
    pub access_pf: Option<f64>,
    /// Updates applied during the whole run (including warm-up).
    pub updates: u64,
    /// Sync operations performed.
    pub syncs: u64,
    /// Accesses scored (measured window only).
    pub accesses: u64,
    /// Per-element polls performed (for change-rate estimation studies).
    pub polls: Vec<u64>,
    /// Per-element polls that found changed content.
    pub polls_changed: Vec<u64>,
    /// Per-element accesses in the measured window (the raw material for
    /// profile learning from the request log, §7).
    pub access_counts: Vec<u64>,
    /// Fraction of the run the mirror–source link spent transferring
    /// (`None` when transfers are modeled as instantaneous).
    pub link_utilization: Option<f64>,
    /// Closed-form perceived age `Σ pᵢ·Ā(λᵢ, fᵢ)` under the configured
    /// policy (infinite when a weighted element gets zero bandwidth).
    pub analytic_age: f64,
    /// Time-integrated perceived age over the measured window.
    pub time_averaged_age: f64,
}

impl SimReport {
    /// The run's scalar results as a JSON object — what `freshen
    /// simulate` prints; the per-element vectors are left out.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n  \"analytic_pf\": ");
        push_float(&mut out, self.analytic_pf);
        out.push_str(",\n  \"time_averaged_pf\": ");
        push_float(&mut out, self.time_averaged_pf);
        out.push_str(",\n  \"access_pf\": ");
        match self.access_pf {
            Some(v) => push_float(&mut out, v),
            None => out.push_str("null"),
        }
        for (key, v) in [
            ("updates", self.updates),
            ("syncs", self.syncs),
            ("accesses", self.accesses),
        ] {
            out.push_str(",\n  \"");
            out.push_str(key);
            out.push_str("\": ");
            push_u64(&mut out, v);
        }
        out.push_str("\n}");
        out
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    problem: Problem,
    frequencies: Vec<f64>,
    config: SimConfig,
    sync_policy: SyncPolicy,
    link_capacity: Option<f64>,
    recorder: Recorder,
    executor: Executor,
}

/// Which stream owns the earliest pending event.
///
/// Ties follow the original dispatch priority: updates before link events
/// before syncs before accesses, so an access at time t sees the state
/// *after* a coincident refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextEvent {
    Update,
    Link,
    Sync,
    Access,
}

impl NextEvent {
    /// Pick the stream owning the earliest event, or `None` when every
    /// stream is exhausted (all times infinite).
    fn select(tu: f64, ta: f64, ts: f64, tl: f64) -> Option<(f64, NextEvent)> {
        let t = tu.min(ta).min(ts).min(tl);
        if !t.is_finite() {
            return None;
        }
        let kind = if tu <= ta && tu <= ts && tu <= tl {
            NextEvent::Update
        } else if tl <= ts && tl <= ta {
            NextEvent::Link
        } else if ts <= ta {
            NextEvent::Sync
        } else {
            NextEvent::Access
        };
        Some((t, kind))
    }

    fn name(self) -> &'static str {
        match self {
            NextEvent::Update => "update",
            NextEvent::Link => "link",
            NextEvent::Sync => "sync",
            NextEvent::Access => "access",
        }
    }
}

/// A pending link transfer event (FIFO single-link model).
#[derive(Debug, PartialEq)]
enum LinkEvent {
    /// Transfer begins: snapshot the source content.
    Start { element: usize },
    /// Transfer ends: install the snapshot at the mirror.
    Complete { element: usize, snapshot: u64 },
}

#[derive(Debug, PartialEq)]
struct TimedLinkEvent {
    time: f64,
    seq: u64,
    event: LinkEvent,
}
impl Eq for TimedLinkEvent {}
impl Ord for TimedLinkEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for TimedLinkEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The sync-request stream under either policy.
///
/// Boxed: a single stream lives per simulation run, and boxing keeps the
/// variant sizes (and the enum) small.
enum SyncStream {
    /// Evenly spaced per-element refreshes (the paper's Fixed Order).
    Fixed(Box<ScheduleStream>),
    /// Memoryless refreshes at the same rates (the ablation policy).
    Poisson(Box<UpdateGenerator>),
}

impl SyncStream {
    fn next_event(&mut self, horizon: f64) -> Option<(f64, usize)> {
        match self {
            SyncStream::Fixed(s) => s.next().map(|op| (op.time, op.element)),
            SyncStream::Poisson(g) => g.next_event(horizon),
        }
    }
}

impl Simulation {
    /// Validate inputs and build a simulation.
    pub fn new(problem: &Problem, frequencies: &[f64], config: SimConfig) -> Result<Self> {
        if frequencies.len() != problem.len() {
            return Err(CoreError::LengthMismatch {
                what: "frequencies",
                expected: problem.len(),
                actual: frequencies.len(),
            });
        }
        for (i, &f) in frequencies.iter().enumerate() {
            if !f.is_finite() || f < 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "frequencies",
                    index: Some(i),
                    value: f,
                });
            }
        }
        for (what, v) in [
            ("periods", config.periods),
            ("accesses_per_period", config.accesses_per_period),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what,
                    index: None,
                    value: v,
                });
            }
        }
        if !config.warmup_periods.is_finite() || config.warmup_periods < 0.0 {
            return Err(CoreError::InvalidValue {
                what: "warmup_periods",
                index: None,
                value: config.warmup_periods,
            });
        }
        Ok(Simulation {
            problem: problem.clone(),
            frequencies: frequencies.to_vec(),
            config,
            sync_policy: SyncPolicy::FixedOrder,
            link_capacity: None,
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
        })
    }

    /// Model the mirror–source link explicitly: transfers are serialized
    /// FIFO through a single link of `capacity` size-units per period, a
    /// refresh of object `i` occupies it for `sizeᵢ/capacity` periods, and
    /// the content *read at transfer start* is what arrives at completion
    /// (so it can already be stale on arrival).
    ///
    /// Without this, refreshes are instantaneous — the paper's
    /// abstraction, which this mode exists to stress-test: a schedule
    /// whose planned load `Σ sᵢfᵢ` fits well inside `capacity` behaves
    /// almost identically, while an overloaded link queues transfers and
    /// freshness collapses.
    ///
    /// # Panics
    /// Panics when `capacity` is not positive and finite.
    pub fn with_link_capacity(mut self, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive"
        );
        self.link_capacity = Some(capacity);
        self
    }

    /// Use a different synchronization policy (default: Fixed Order).
    ///
    /// Under [`SyncPolicy::Poisson`] the same per-element frequencies
    /// drive a memoryless refresh process instead of an even timetable —
    /// the ablation showing *why* the paper adopts Fixed Order.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Attach an observability recorder. The default is the disabled
    /// recorder, whose per-event cost in the loop is a single branch.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Run the O(N) setup and closed-form scoring passes (evaluator
    /// profile mass, access CDF build, analytic PF/age in the report) on
    /// `executor`. The event loop itself is inherently sequential — events
    /// must dispatch in time order — and is untouched, so results are
    /// identical at any worker count.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Execute the event loop and report the measurements.
    ///
    /// Returns [`CoreError::Inconsistent`] when event selection disagrees
    /// with stream state — an internal invariant violation that earlier
    /// revisions turned into a panic. Surfacing it as an error lets batch
    /// sweeps fail one scenario and continue.
    pub fn run(&self) -> Result<SimReport> {
        let n = self.problem.len();
        // Structure-of-arrays view of the problem: the event loop reads
        // `cols.s[element]` per link event and the generators sweep the
        // `p`/`λ` columns linearly, so everything below iterates
        // contiguous column slices rather than re-borrowing the problem.
        let cols = self.problem.columns();
        let horizon = self.config.warmup_periods + self.config.periods;

        // Instrumentation handles: registered once here, each a no-op when
        // the recorder is disabled. Names referenced by the CLI exporters
        // and the bench telemetry aggregator.
        let rec = &self.recorder;
        let mut run_span = rec.span("sim.run");
        run_span.arg("n", n);
        run_span.arg("horizon", horizon);
        let c_total = rec.counter("events_total");
        let c_update = rec.counter("sim.events.update");
        let c_sync = rec.counter("sim.events.sync");
        let c_access = rec.counter("sim.events.access");
        let c_link = rec.counter("sim.events.link");
        let h_queue = rec.histogram("sim.link_queue_depth", &freshen_obs::count_buckets());
        let wall_start = std::time::Instant::now();
        let inconsistent = |invariant: &'static str| {
            rec.event("sim.inconsistent", &[("invariant", &invariant)]);
            CoreError::Inconsistent {
                routine: "simulation",
                invariant,
            }
        };
        /// Journal one of every `JOURNAL_SAMPLE` dispatches so the bounded
        /// journal sketches the event interleaving without flooding.
        const JOURNAL_SAMPLE: u64 = 4096;

        let mut source = Source::new(n);
        let mut mirror = Mirror::new(n);
        let mut evaluator = FreshnessEvaluator::with_executor(cols.p, &self.executor);

        // Independent streams with decorrelated seeds.
        let mut updates = UpdateGenerator::new(cols.lambda, self.config.seed ^ 0x5eed_0001);
        let mut accesses = AccessGenerator::try_new_with_executor(
            cols.p,
            self.config.accesses_per_period,
            self.config.seed ^ 0x5eed_0002,
            &self.executor,
        )?;
        let mut syncs = match self.sync_policy {
            SyncPolicy::FixedOrder => {
                SyncStream::Fixed(Box::new(ScheduleStream::new(&self.frequencies, horizon)))
            }
            SyncPolicy::Poisson => SyncStream::Poisson(Box::new(UpdateGenerator::new(
                &self.frequencies,
                self.config.seed ^ 0x5eed_0003,
            ))),
        };

        let mut polls = vec![0u64; n];
        let mut polls_changed = vec![0u64; n];
        let mut access_counts = vec![0u64; n];
        let mut measured_accesses = 0u64;
        let mut measuring = self.config.warmup_periods == 0.0;
        if measuring {
            evaluator.start_measurement(0.0);
        }

        // Link-transfer model state (None ⇒ instantaneous refreshes).
        let mut link_events: std::collections::BinaryHeap<TimedLinkEvent> =
            std::collections::BinaryHeap::new();
        let mut link_seq = 0u64;
        let mut link_free_at = 0.0f64;
        let mut link_busy_time = 0.0f64;

        // Pull-merge the event streams in time order.
        let mut next_update = updates.next_event(horizon);
        let mut next_access = accesses.next_event(horizon);
        let mut next_sync = syncs.next_event(horizon);

        loop {
            // Earliest pending event across the streams.
            let tu = next_update.map(|(t, _)| t).unwrap_or(f64::INFINITY);
            let ta = next_access.map(|(t, _)| t).unwrap_or(f64::INFINITY);
            let ts = next_sync.map(|(t, _)| t).unwrap_or(f64::INFINITY);
            let tl = link_events.peek().map(|e| e.time).unwrap_or(f64::INFINITY);
            let Some((t, kind)) = NextEvent::select(tu, ta, ts, tl) else {
                break;
            };
            if t >= horizon {
                break;
            }
            if !measuring && t >= self.config.warmup_periods {
                evaluator.start_measurement(self.config.warmup_periods);
                measuring = true;
                rec.event("sim.measurement_start", &[("t", &t)]);
            }
            c_total.inc();
            if c_total.get() % JOURNAL_SAMPLE == 1 && rec.is_enabled() {
                rec.event("sim.dispatch", &[("kind", &kind.name()), ("t", &t)]);
            }
            match kind {
                NextEvent::Update => {
                    let (time, element) = next_update
                        .ok_or_else(|| inconsistent("tu finite implies update pending"))?;
                    c_update.inc();
                    source.update(element);
                    evaluator.on_update(time, element);
                    next_update = updates.next_event(horizon);
                }
                NextEvent::Link => {
                    let TimedLinkEvent { time, event, .. } = link_events
                        .pop()
                        .ok_or_else(|| inconsistent("tl finite implies link event pending"))?;
                    c_link.inc();
                    h_queue.observe(link_events.len() as f64);
                    match event {
                        LinkEvent::Start { element } => {
                            // Content is read at transfer start; it arrives
                            // (and may already be stale) at completion.
                            let capacity = self
                                .link_capacity
                                .ok_or_else(|| inconsistent("link events imply a link"))?;
                            let duration = cols.s[element] / capacity;
                            link_events.push(TimedLinkEvent {
                                time: time + duration,
                                seq: link_seq,
                                event: LinkEvent::Complete {
                                    element,
                                    snapshot: source.version(element),
                                },
                            });
                            link_seq += 1;
                        }
                        LinkEvent::Complete { element, snapshot } => {
                            let changed = mirror.apply_version(element, snapshot);
                            polls[element] += 1;
                            if changed {
                                polls_changed[element] += 1;
                            }
                            let up_to_date = snapshot == source.version(element);
                            evaluator.on_sync_applied(time, element, up_to_date);
                        }
                    }
                }
                NextEvent::Sync => {
                    let (time, element) =
                        next_sync.ok_or_else(|| inconsistent("ts finite implies sync pending"))?;
                    c_sync.inc();
                    match self.link_capacity {
                        None => {
                            // Instantaneous refresh (the paper's abstraction).
                            let changed = mirror.sync(element, &source);
                            polls[element] += 1;
                            if changed {
                                polls_changed[element] += 1;
                            }
                            evaluator.on_sync(time, element);
                        }
                        Some(capacity) => {
                            // Enqueue the transfer on the FIFO link.
                            let start = time.max(link_free_at);
                            let duration = cols.s[element] / capacity;
                            link_free_at = start + duration;
                            // Busy-time accounting clips at the horizon so a
                            // backlogged queue cannot report utilization > 1.
                            link_busy_time += link_free_at.min(horizon) - start.min(horizon);
                            link_events.push(TimedLinkEvent {
                                time: start,
                                seq: link_seq,
                                event: LinkEvent::Start { element },
                            });
                            link_seq += 1;
                            h_queue.observe(link_events.len() as f64);
                        }
                    }
                    next_sync = syncs.next_event(horizon);
                }
                NextEvent::Access => {
                    let (time, element) = next_access
                        .ok_or_else(|| inconsistent("ta finite implies access pending"))?;
                    c_access.inc();
                    evaluator.on_access(time, element);
                    if evaluator.is_measuring() {
                        measured_accesses += 1;
                        access_counts[element] += 1;
                    }
                    next_access = accesses.next_event(horizon);
                }
            }
        }
        if !measuring {
            evaluator.start_measurement(self.config.warmup_periods.min(horizon));
        }
        evaluator.finish(horizon);

        let report = SimReport {
            analytic_pf: self.problem.perceived_freshness_with(
                self.sync_policy,
                &self.frequencies,
                &self.executor,
            ),
            time_averaged_pf: evaluator.time_averaged_pf().unwrap_or(0.0),
            access_pf: evaluator.access_pf(),
            updates: source.total_updates(),
            syncs: mirror.total_syncs(),
            accesses: measured_accesses,
            polls,
            polls_changed,
            access_counts,
            link_utilization: self.link_capacity.map(|_| link_busy_time / horizon),
            analytic_age: self.sync_policy.perceived_age(
                cols.p,
                cols.lambda,
                &self.frequencies,
                &self.executor,
            ),
            time_averaged_age: evaluator.time_averaged_age().unwrap_or(0.0),
        };

        // Headline gauges for the metrics snapshot / bench telemetry.
        rec.gauge("pf").set(report.time_averaged_pf);
        rec.gauge("sim.analytic_pf").set(report.analytic_pf);
        let wall = wall_start.elapsed().as_secs_f64();
        if wall > 0.0 {
            rec.gauge("events_per_sec").set(c_total.get() as f64 / wall);
        }
        if let Some(util) = report.link_utilization {
            rec.gauge("sim.link_utilization").set(util);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> Problem {
        Problem::builder()
            .change_rates(vec![1.0, 2.0, 4.0, 0.5])
            .access_probs(vec![0.4, 0.3, 0.2, 0.1])
            .bandwidth(4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn simulation_matches_analytic_pf() {
        let p = toy_problem();
        let freqs = vec![1.5, 1.5, 0.5, 0.5];
        let config = SimConfig {
            periods: 400.0,
            warmup_periods: 5.0,
            accesses_per_period: 200.0,
            seed: 1,
        };
        let report = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        assert!(
            (report.time_averaged_pf - report.analytic_pf).abs() < 0.02,
            "time-avg {} vs analytic {}",
            report.time_averaged_pf,
            report.analytic_pf
        );
        let access = report.access_pf.unwrap();
        assert!(
            (access - report.analytic_pf).abs() < 0.02,
            "access {} vs analytic {}",
            access,
            report.analytic_pf
        );
    }

    #[test]
    fn two_monitoring_modes_agree() {
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 300.0,
            warmup_periods: 3.0,
            accesses_per_period: 500.0,
            seed: 9,
        };
        let report = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        assert!(
            (report.time_averaged_pf - report.access_pf.unwrap()).abs() < 0.02,
            "monitoring modes must agree"
        );
    }

    #[test]
    fn zero_frequencies_drive_pf_to_zero() {
        let p = toy_problem();
        let config = SimConfig {
            periods: 100.0,
            warmup_periods: 20.0,
            accesses_per_period: 100.0,
            seed: 2,
        };
        let report = Simulation::new(&p, &[0.0; 4], config)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.syncs, 0);
        assert!(
            report.time_averaged_pf < 0.01,
            "never-refreshed mirror decays to stale: {}",
            report.time_averaged_pf
        );
    }

    #[test]
    fn huge_frequencies_keep_everything_fresh() {
        let p = toy_problem();
        let config = SimConfig {
            periods: 50.0,
            warmup_periods: 1.0,
            accesses_per_period: 100.0,
            seed: 3,
        };
        let report = Simulation::new(&p, &[200.0; 4], config)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.time_averaged_pf > 0.97,
            "{}",
            report.time_averaged_pf
        );
        assert!(report.access_pf.unwrap() > 0.95);
    }

    #[test]
    fn deterministic_under_seed() {
        let p = toy_problem();
        let freqs = vec![1.0, 2.0, 0.5, 0.5];
        let config = SimConfig {
            periods: 30.0,
            warmup_periods: 1.0,
            accesses_per_period: 50.0,
            seed: 77,
        };
        let a = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        let b = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn event_counts_match_rates() {
        let p = toy_problem();
        let freqs = vec![2.0, 1.0, 1.0, 0.0];
        let config = SimConfig {
            periods: 200.0,
            warmup_periods: 0.0,
            accesses_per_period: 50.0,
            seed: 4,
        };
        let report = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        // Updates: Σλ = 7.5/period over 200 periods.
        let update_rate = report.updates as f64 / 200.0;
        assert!((update_rate - 7.5).abs() < 0.5, "update rate {update_rate}");
        // Syncs: Σf = 4/period.
        let sync_rate = report.syncs as f64 / 200.0;
        assert!((sync_rate - 4.0).abs() < 0.1, "sync rate {sync_rate}");
        assert_eq!(report.polls[3], 0);
        // Accesses ≈ 50/period.
        let access_rate = report.accesses as f64 / 200.0;
        assert!(
            (access_rate - 50.0).abs() < 2.0,
            "access rate {access_rate}"
        );
    }

    #[test]
    fn poll_change_ratio_supports_estimation() {
        // Element polled at frequency f with change rate λ: the fraction
        // of polls detecting a change tends to 1 − e^{−λ/f}.
        let p = Problem::builder()
            .change_rates(vec![2.0])
            .access_probs(vec![1.0])
            .bandwidth(2.0)
            .build()
            .unwrap();
        let config = SimConfig {
            periods: 2000.0,
            warmup_periods: 0.0,
            accesses_per_period: 1.0,
            seed: 5,
        };
        let report = Simulation::new(&p, &[2.0], config).unwrap().run().unwrap();
        let ratio = report.polls_changed[0] as f64 / report.polls[0] as f64;
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (ratio - expected).abs() < 0.03,
            "ratio {ratio} vs {expected}"
        );
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let p = toy_problem();
        assert!(Simulation::new(&p, &[1.0; 3], SimConfig::default()).is_err());
        assert!(Simulation::new(&p, &[-1.0, 0.0, 0.0, 0.0], SimConfig::default()).is_err());
        let bad = SimConfig {
            periods: 0.0,
            ..Default::default()
        };
        assert!(Simulation::new(&p, &[1.0; 4], bad).is_err());
        let bad = SimConfig {
            warmup_periods: -1.0,
            ..Default::default()
        };
        assert!(Simulation::new(&p, &[1.0; 4], bad).is_err());
    }

    #[test]
    fn simulated_age_matches_analytic_both_policies() {
        let p = toy_problem();
        let freqs = vec![1.5, 1.5, 0.5, 0.5];
        let config = SimConfig {
            periods: 600.0,
            warmup_periods: 10.0,
            accesses_per_period: 10.0,
            seed: 41,
        };
        for policy in [SyncPolicy::FixedOrder, SyncPolicy::Poisson] {
            let report = Simulation::new(&p, &freqs, config)
                .unwrap()
                .with_sync_policy(policy)
                .run()
                .unwrap();
            assert!(
                (report.time_averaged_age - report.analytic_age).abs() < report.analytic_age * 0.1,
                "{policy:?}: simulated age {} vs analytic {}",
                report.time_averaged_age,
                report.analytic_age
            );
        }
    }

    #[test]
    fn age_and_freshness_move_oppositely_with_bandwidth() {
        let p = toy_problem();
        let config = SimConfig {
            periods: 200.0,
            warmup_periods: 10.0,
            accesses_per_period: 10.0,
            seed: 42,
        };
        let slow = Simulation::new(&p, &[0.5; 4], config)
            .unwrap()
            .run()
            .unwrap();
        let fast = Simulation::new(&p, &[4.0; 4], config)
            .unwrap()
            .run()
            .unwrap();
        assert!(fast.time_averaged_pf > slow.time_averaged_pf);
        assert!(fast.time_averaged_age < slow.time_averaged_age);
    }

    #[test]
    fn fast_link_matches_instantaneous_model() {
        // With a link far faster than the sync load, transfer delays are
        // negligible and the two models agree.
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 200.0,
            warmup_periods: 5.0,
            accesses_per_period: 200.0,
            seed: 31,
        };
        let instant = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        let fast_link = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(1000.0) // planned load: Σs·f = 4/period
            .run()
            .unwrap();
        assert!(
            (instant.time_averaged_pf - fast_link.time_averaged_pf).abs() < 0.02,
            "instant {} vs fast link {}",
            instant.time_averaged_pf,
            fast_link.time_averaged_pf
        );
        let util = fast_link.link_utilization.unwrap();
        assert!(util < 0.01, "fast link barely utilized: {util}");
        assert_eq!(instant.link_utilization, None);
    }

    #[test]
    fn saturated_link_degrades_freshness() {
        // Planned load Σs·f = 4/period against capacity 2/period: the FIFO
        // queue grows without bound and copies rot waiting.
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 100.0,
            warmup_periods: 5.0,
            accesses_per_period: 100.0,
            seed: 32,
        };
        let healthy = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(40.0)
            .run()
            .unwrap();
        let saturated = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(2.0)
            .run()
            .unwrap();
        assert!(
            saturated.time_averaged_pf < healthy.time_averaged_pf - 0.05,
            "saturation must hurt: {} vs {}",
            saturated.time_averaged_pf,
            healthy.time_averaged_pf
        );
        assert!(
            saturated.link_utilization.unwrap() > 0.95,
            "saturated link is busy nearly always"
        );
    }

    #[test]
    fn adequate_link_validates_papers_abstraction() {
        // The paper plans with Σ sᵢfᵢ = B and assumes instantaneous
        // refreshes. That abstraction is sound when the per-transfer time
        // is small relative to both the refresh intervals (little
        // queueing) and the change intervals (content doesn't rot in
        // flight): at capacity 40 each transfer takes 0.025 periods
        // against λ ≤ 4, and the measured PF tracks the plan.
        let p = toy_problem();
        let freqs = vec![1.0; 4]; // planned load 4/period
        let config = SimConfig {
            periods: 200.0,
            warmup_periods: 10.0,
            accesses_per_period: 200.0,
            seed: 33,
        };
        let report = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(40.0)
            .run()
            .unwrap();
        assert!(
            (report.time_averaged_pf - report.analytic_pf).abs() < 0.05,
            "with ample capacity the plan holds: measured {} vs planned {}",
            report.time_averaged_pf,
            report.analytic_pf
        );
        // And the latency penalty is visible at 2x headroom: in-flight
        // staleness makes measured PF fall short of the plan.
        let tight = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(8.0)
            .run()
            .unwrap();
        assert!(
            tight.time_averaged_pf < tight.analytic_pf - 0.02,
            "transfer latency must show up: measured {} vs planned {}",
            tight.time_averaged_pf,
            tight.analytic_pf
        );
    }

    #[test]
    #[should_panic(expected = "link capacity must be positive")]
    fn link_capacity_validated() {
        let p = toy_problem();
        let _ = Simulation::new(&p, &[1.0; 4], SimConfig::default())
            .unwrap()
            .with_link_capacity(0.0);
    }

    #[test]
    fn poisson_policy_matches_its_own_analytic_law() {
        // Under memoryless syncing the simulator must track f/(λ+f), not
        // the Fixed-Order law — a strong cross-check that both the event
        // engine and the closed forms are right.
        let p = toy_problem();
        let freqs = vec![1.5, 1.5, 0.5, 0.5];
        let config = SimConfig {
            periods: 400.0,
            warmup_periods: 5.0,
            accesses_per_period: 200.0,
            seed: 21,
        };
        let report = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_sync_policy(SyncPolicy::Poisson)
            .run()
            .unwrap();
        let expected = p.perceived_freshness_with(SyncPolicy::Poisson, &freqs, &Executor::serial());
        assert!((report.analytic_pf - expected).abs() < 1e-12);
        assert!(
            (report.time_averaged_pf - expected).abs() < 0.02,
            "poisson sim {} vs analytic {}",
            report.time_averaged_pf,
            expected
        );
    }

    #[test]
    fn fixed_order_beats_poisson_in_simulation() {
        // The claim the paper inherits from Cho & Garcia-Molina: at equal
        // frequencies, evenly spaced refreshes yield strictly better
        // freshness than memoryless ones.
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 300.0,
            warmup_periods: 5.0,
            accesses_per_period: 100.0,
            seed: 22,
        };
        let fixed = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        let poisson = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_sync_policy(SyncPolicy::Poisson)
            .run()
            .unwrap();
        assert!(
            fixed.time_averaged_pf > poisson.time_averaged_pf + 0.02,
            "fixed-order {} must beat poisson {}",
            fixed.time_averaged_pf,
            poisson.time_averaged_pf
        );
    }

    #[test]
    fn hot_stale_object_tanks_perceived_freshness() {
        // 90% of interest on a volatile object that never gets refreshed:
        // users see staleness even though 3 of 4 copies stay fresh.
        let p = Problem::builder()
            .change_rates(vec![5.0, 0.01, 0.01, 0.01])
            .access_probs(vec![0.9, 0.04, 0.03, 0.03])
            .bandwidth(3.0)
            .build()
            .unwrap();
        let config = SimConfig {
            periods: 100.0,
            warmup_periods: 10.0,
            accesses_per_period: 200.0,
            seed: 6,
        };
        let report = Simulation::new(&p, &[0.0, 1.0, 1.0, 1.0], config)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.time_averaged_pf < 0.2,
            "perceived freshness collapses: {}",
            report.time_averaged_pf
        );
    }

    #[test]
    fn next_event_selection_priority_and_exhaustion() {
        let inf = f64::INFINITY;
        // All streams exhausted.
        assert_eq!(NextEvent::select(inf, inf, inf, inf), None);
        // Ties resolve update > link > sync > access.
        assert_eq!(
            NextEvent::select(1.0, 1.0, 1.0, 1.0),
            Some((1.0, NextEvent::Update))
        );
        assert_eq!(
            NextEvent::select(inf, 1.0, 1.0, 1.0),
            Some((1.0, NextEvent::Link))
        );
        assert_eq!(
            NextEvent::select(inf, 1.0, 1.0, inf),
            Some((1.0, NextEvent::Sync))
        );
        assert_eq!(
            NextEvent::select(inf, 1.0, inf, inf),
            Some((1.0, NextEvent::Access))
        );
        // Strict minimum wins regardless of priority.
        assert_eq!(
            NextEvent::select(3.0, 0.5, 2.0, 1.0),
            Some((0.5, NextEvent::Access))
        );
    }

    #[test]
    fn recorder_captures_event_counts_and_pf() {
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 50.0,
            warmup_periods: 1.0,
            accesses_per_period: 20.0,
            seed: 11,
        };
        let rec = Recorder::enabled();
        let report = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_link_capacity(40.0)
            .with_recorder(rec.clone())
            .run()
            .unwrap();
        let updates = rec.counter_value("sim.events.update").unwrap();
        let syncs = rec.counter_value("sim.events.sync").unwrap();
        let links = rec.counter_value("sim.events.link").unwrap();
        let accesses = rec.counter_value("sim.events.access").unwrap();
        assert_eq!(updates, report.updates);
        // Each sync enqueues a Start and later a Complete on the link.
        assert!(links >= syncs, "links {links} syncs {syncs}");
        assert!(accesses >= report.accesses);
        let total = rec.counter_value("events_total").unwrap();
        assert_eq!(total, updates + syncs + links + accesses);
        let pf = rec.gauge_value("pf").unwrap();
        assert!((pf - report.time_averaged_pf).abs() < 1e-12);
        assert!(rec.gauge_value("events_per_sec").unwrap() > 0.0);
        assert!(rec.gauge_value("sim.link_utilization").is_some());
        // The run span made it into the trace.
        assert!(rec.chrome_trace_json().unwrap().contains("sim.run"));
    }

    #[test]
    fn pool_executor_run_is_byte_identical_to_serial() {
        let p = toy_problem();
        let freqs = vec![1.0, 2.0, 0.5, 0.5];
        let config = SimConfig {
            periods: 30.0,
            warmup_periods: 1.0,
            accesses_per_period: 50.0,
            seed: 77,
        };
        let serial = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        for workers in [2, 4] {
            let pooled = Simulation::new(&p, &freqs, config)
                .unwrap()
                .with_executor(Executor::thread_pool(workers))
                .run()
                .unwrap();
            assert_eq!(serial, pooled, "{workers} workers must not perturb the run");
        }
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let p = toy_problem();
        let freqs = vec![1.0; 4];
        let config = SimConfig {
            periods: 30.0,
            warmup_periods: 1.0,
            accesses_per_period: 50.0,
            seed: 77,
        };
        let plain = Simulation::new(&p, &freqs, config).unwrap().run().unwrap();
        let instrumented = Simulation::new(&p, &freqs, config)
            .unwrap()
            .with_recorder(Recorder::enabled())
            .run()
            .unwrap();
        assert_eq!(
            plain, instrumented,
            "instrumentation must not perturb results"
        );
    }
}
