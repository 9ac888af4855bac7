//! The serve loop: one drive loop that steps served engines in rounds,
//! checkpointing at epoch boundaries and draining gracefully on demand.
//!
//! A [`Tenant`] is one served engine. It owns the engine, its access
//! stream and poll source, the consumed-access count, a recorder and its
//! control-plane views. [`drive`] steps a set of tenants one epoch per
//! round, and is the only caller of a tenant's step. [`Server::run`]
//! drives one tenant; the fleet runtime drives one per tenant spec and
//! adds its manifest and aggregate views through the [`Host`] hooks.
//!
//! The control plane only flips flags and reads JSON views refreshed
//! between rounds. Checkpoints are only ever taken at epoch boundaries —
//! the engine's state contract ([`Engine::export_state`]) holds exactly
//! there, which is what makes a resumed run byte-identical to an
//! uninterrupted one.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::Executor;
use freshen_core::problem::{Problem, Solution};
use freshen_engine::stream::BoxedAccessStream;
use freshen_engine::{
    replay_accesses, Engine, EngineConfig, EngineReport, LiveAccessStream, LivePollSource,
    PollSource, ReplayPollSource,
};
use freshen_obs::json::push_f64;
use freshen_obs::{duration_us_buckets, Counter, Health, Recorder};
use freshen_workload::trace::{AccessRecord, PollRecord};

use crate::http::{ControlPlane, ControlShared};
use crate::snapshot::{write_atomic, Snapshot, SnapshotShape, SourceState};

/// Seed salt for the live access stream — shared with the CLI's
/// `engine` command so `serve` and `engine` runs over the same problem
/// file and seed see the same traffic.
pub const ACCESS_SEED_SALT: u64 = 0xACCE55;
/// Seed salt for the live poll source (see [`ACCESS_SEED_SALT`]).
pub const POLL_SEED_SALT: u64 = 0x50_11;

/// What the served engine runs against.
#[derive(Debug, Clone)]
pub enum ServeWorkload {
    /// Live mode: the problem supplies the ground truth the engine must
    /// discover through its own polls and accesses.
    Live {
        /// Ground-truth problem (rates, access profile, bandwidth).
        problem: Problem,
        /// Poisson access-arrival rate (events per period).
        access_rate: f64,
    },
    /// Replay mode: pre-parsed access and poll logs.
    Replay {
        /// Number of mirrored elements.
        elements: usize,
        /// Poll bandwidth (polls per period).
        bandwidth: f64,
        /// Time-ordered access events.
        accesses: Vec<AccessRecord>,
        /// Per-element poll outcomes, time-ordered.
        polls: Vec<PollRecord>,
    },
}

impl ServeWorkload {
    /// Number of mirrored elements.
    pub fn elements(&self) -> usize {
        match self {
            ServeWorkload::Live { problem, .. } => problem.len(),
            ServeWorkload::Replay { elements, .. } => *elements,
        }
    }
}

/// Service configuration wrapped around the engine's.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The wrapped engine configuration.
    pub engine: EngineConfig,
    /// Control-plane bind address (e.g. `127.0.0.1:7171`, or port `0`
    /// for an ephemeral port); `None` runs headless.
    pub listen: Option<String>,
    /// Checkpoint every N epochs; `0` checkpoints only on demand
    /// (`POST /checkpoint`) and at graceful shutdown.
    pub checkpoint_every: usize,
    /// Snapshot file path (written atomically: temp + rename).
    pub checkpoint_path: PathBuf,
    /// Resume from this snapshot before stepping.
    pub resume: Option<PathBuf>,
    /// Stop (drain + checkpoint) after stepping this many epochs in
    /// this process — the programmatic "kill at epoch k" used by tests
    /// and the recovery benchmark.
    pub drain_after: Option<usize>,
    /// Optional pause between epochs, so control-plane probes can land
    /// mid-run in tests and demos. `None` (the default) runs flat out.
    pub epoch_throttle: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            listen: None,
            checkpoint_every: 0,
            checkpoint_path: PathBuf::from("freshen.snapshot"),
            resume: None,
            drain_after: None,
            epoch_throttle: None,
        }
    }
}

/// Why the serve loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// All configured epochs ran; the final report is available.
    Completed,
    /// Graceful drain: a shutdown request or `drain_after` cap stopped
    /// the run at an epoch boundary after writing a final checkpoint.
    Drained,
}

/// Outcome of a serve run.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The final report — present only when the run [`Completed`]
    /// (a drained run's report lives in its checkpoint).
    ///
    /// [`Completed`]: ExitReason::Completed
    pub report: Option<EngineReport>,
    /// Why the loop returned.
    pub exit: ExitReason,
    /// Epochs stepped by this process (excludes restored history).
    pub epochs_run: usize,
    /// Checkpoints written by this process.
    pub checkpoints: usize,
    /// Control-plane address, when one was bound.
    pub bound_addr: Option<SocketAddr>,
}

/// The poll source behind one seam, so checkpoints capture whichever
/// kind the workload uses.
enum RunSource {
    /// A live source and the change rates it is re-seeded from on resume.
    Live(LivePollSource, Vec<f64>),
    Replay(ReplayPollSource),
}

impl RunSource {
    fn poll_source(&mut self) -> &mut dyn PollSource {
        match self {
            RunSource::Live(s, _) => s,
            RunSource::Replay(s) => s,
        }
    }

    fn export(&self) -> SourceState {
        match self {
            RunSource::Live(s, _) => SourceState::Live(s.state()),
            RunSource::Replay(s) => SourceState::Replay {
                cursors: s.cursors().to_vec(),
            },
        }
    }
}

/// One served engine with everything it carries across epochs: the
/// engine, its access stream and poll source, the consumed-access count,
/// its recorder and its control-plane views. A solo server drives one;
/// a fleet drives one per tenant.
pub struct Tenant {
    engine: Engine,
    accesses: std::iter::Peekable<BoxedAccessStream>,
    source: RunSource,
    consumed: u64,
    recorder: Recorder,
    epoch_counter: Counter,
    checkpoint_counter: Counter,
    shared: Arc<ControlShared>,
    checkpoint_path: PathBuf,
    checkpoints: usize,
}

impl Tenant {
    /// Build the prior, the access stream and the poll source exactly as
    /// the CLI's one-shot `engine` command would — a served run and a
    /// plain run over the same inputs are the same deterministic
    /// computation. The engine records into `recorder` and re-solves on
    /// `executor`; the tenant publishes its views into `shared` and
    /// writes its snapshot to `checkpoint_path`.
    pub fn new(
        workload: &ServeWorkload,
        config: EngineConfig,
        recorder: Recorder,
        executor: Executor,
        shared: Arc<ControlShared>,
        checkpoint_path: PathBuf,
    ) -> Result<Tenant> {
        let (seed, horizon) = (config.seed, config.horizon());
        let (engine, accesses, source) = match workload {
            ServeWorkload::Live {
                problem,
                access_rate,
            } => {
                let accesses: BoxedAccessStream = Box::new(LiveAccessStream::new(
                    problem.access_probs(),
                    *access_rate,
                    seed ^ ACCESS_SEED_SALT,
                    horizon,
                )?);
                let rates = problem.change_rates();
                let source = LivePollSource::new(rates, seed ^ POLL_SEED_SALT, horizon)?;
                let source = RunSource::Live(source, rates.to_vec());
                (Engine::new(problem, config)?, accesses, source)
            }
            ServeWorkload::Replay {
                elements,
                bandwidth,
                accesses,
                polls,
            } => {
                let prior = Problem::builder()
                    .change_rates(vec![config.fallback_rate; *elements])
                    .access_weights(vec![1.0; *elements])
                    .bandwidth(*bandwidth)
                    .build()?;
                let accesses: BoxedAccessStream = Box::new(replay_accesses(accesses.clone()));
                let source = RunSource::Replay(ReplayPollSource::new(*elements, polls)?);
                (Engine::new(&prior, config)?, accesses, source)
            }
        };
        Ok(Tenant {
            engine: engine
                .with_recorder(recorder.clone())
                .with_executor(executor),
            accesses: accesses.peekable(),
            source,
            consumed: 0,
            epoch_counter: recorder.counter("serve.epochs"),
            checkpoint_counter: recorder.counter("serve.checkpoints"),
            recorder,
            shared,
            checkpoint_path,
            checkpoints: 0,
        })
    }

    /// Resume from `snapshot`: validate it against this run's shape, then
    /// inject engine and source state and fast-forward the access stream
    /// to where the exporting process stopped.
    pub fn resume(&mut self, snapshot: Snapshot) -> Result<()> {
        let config = self.engine.config();
        snapshot.shape.matches(config, self.engine.len())?;
        let (poll_seed, horizon) = (config.seed ^ POLL_SEED_SALT, config.horizon());
        self.engine.restore_state(snapshot.engine)?;
        match (&mut self.source, snapshot.source) {
            (RunSource::Live(live, rates), SourceState::Live(state)) => {
                *live = LivePollSource::restore(rates, poll_seed, horizon, &state)?;
            }
            (RunSource::Replay(replay), SourceState::Replay { cursors }) => {
                replay.restore_cursors(cursors)?;
            }
            _ => {
                return Err(CoreError::InvalidConfig(
                    "snapshot source kind does not match the configured workload".into(),
                ))
            }
        }
        for _ in 0..snapshot.accesses_consumed {
            self.accesses.next().ok_or(CoreError::Inconsistent {
                routine: "serve-resume",
                invariant: "snapshot consumed more accesses than the stream holds",
            })??;
        }
        self.consumed = snapshot.accesses_consumed;
        self.recorder.counter("serve.resumes").inc();
        Ok(())
    }

    /// Step one epoch, then stamp its telemetry sample with the load on
    /// the control plane that `plane` records. Annotations are wall-clock
    /// observations — they ride along in the series (and its checkpoints)
    /// but never feed back into scheduling, so probed and unprobed runs
    /// produce identical reports.
    fn step(&mut self, plane: &Recorder) -> Result<()> {
        let stats = self
            .engine
            .step(&mut self.accesses, self.source.poll_source())?;
        self.consumed += stats.accesses;
        self.epoch_counter.inc();
        let requests = plane.counter_value("serve.requests").unwrap_or(0);
        let p95 = plane
            .histogram("serve.request_latency_us", &duration_us_buckets())
            .quantile(0.95)
            .unwrap_or(0.0);
        self.engine
            .annotate_requests(stats.index as u64, requests, p95);
        Ok(())
    }

    /// Write the snapshot atomically and return the bytes written.
    fn checkpoint(&mut self) -> Result<Vec<u8>> {
        let snapshot = Snapshot {
            shape: SnapshotShape::of(self.engine.config(), self.engine.len()),
            engine: self.engine.export_state(),
            source: self.source.export(),
            accesses_consumed: self.consumed,
        };
        let bytes = snapshot.encode();
        write_atomic(&self.checkpoint_path, &bytes)?;
        self.checkpoints += 1;
        self.checkpoint_counter.inc();
        Ok(bytes)
    }

    /// The served engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// True once every configured epoch has run.
    pub fn finished(&self) -> bool {
        self.engine.epoch() >= self.engine.config().epochs
    }

    /// Snapshots written by this process.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints
    }
}

/// A host of the [`drive`] loop: the solo server or the fleet.
pub trait Host {
    /// Host-level flags: `POST /checkpoint` snapshots every tenant and
    /// `POST /shutdown` drains the whole loop.
    fn control(&self) -> &ControlShared;
    /// The control plane's recorder, read for the request-load
    /// annotations.
    fn recorder(&self) -> &Recorder;
    /// `tenants[index]` just wrote `bytes` as its snapshot file.
    fn wrote(&mut self, _index: usize, _tenant: &Tenant, _bytes: &[u8]) {}
    /// A round boundary, after every tenant published its views:
    /// `round` is the host's round counter and `state` is `running`, or
    /// `completed` / `drained` once the loop stops.
    fn boundary(&mut self, _tenants: &[Tenant], _round: u64, _state: &str) -> Result<()> {
        Ok(())
    }
}

/// The one drive loop. Each round steps every unfinished tenant one
/// epoch and advances `round`. It then checkpoints every tenant when
/// `round` reaches the `checkpoint_every` cadence or the host's
/// `POST /checkpoint` latched, and any tenant whose own checkpoint flag
/// latched. Last, it [`publish`]es and sleeps `throttle`.
///
/// The loop completes once every tenant has finished. The host's
/// `POST /shutdown`, or `drain_after` rounds in this process, drain it
/// instead: every tenant writes a final checkpoint. Returns why the loop
/// stopped and the rounds it stepped.
pub fn drive(
    tenants: &mut [Tenant],
    host: &mut dyn Host,
    mut round: u64,
    checkpoint_every: usize,
    drain_after: Option<usize>,
    throttle: Option<Duration>,
) -> Result<(ExitReason, usize)> {
    let mut rounds = 0usize;
    let exit = loop {
        if tenants.iter().all(Tenant::finished) {
            break ExitReason::Completed;
        }
        if host.control().shutdown_requested.load(Ordering::SeqCst)
            || drain_after.is_some_and(|cap| rounds >= cap)
        {
            break ExitReason::Drained;
        }
        for tenant in tenants.iter_mut().filter(|t| !t.finished()) {
            tenant.step(host.recorder())?;
        }
        rounds += 1;
        round += 1;
        let on_cadence = checkpoint_every > 0 && round % checkpoint_every as u64 == 0;
        let all = host
            .control()
            .checkpoint_requested
            .swap(false, Ordering::SeqCst)
            || on_cadence;
        checkpoint(tenants, host, |t| {
            t.shared.checkpoint_requested.swap(false, Ordering::SeqCst) || all
        })?;
        publish(tenants, host, round, "running")?;
        if let Some(pause) = throttle {
            std::thread::sleep(pause);
        }
    };
    if exit == ExitReason::Drained {
        // The graceful-shutdown contract: the in-flight round has
        // finished (checkpoints only happen at boundaries), so the final
        // snapshots resume exactly where this process stopped.
        checkpoint(tenants, host, |_| true)?;
    }
    let state = match exit {
        ExitReason::Completed => "completed",
        ExitReason::Drained => "drained",
    };
    publish(tenants, host, round, state)?;
    Ok((exit, rounds))
}

fn checkpoint(
    tenants: &mut [Tenant],
    host: &mut dyn Host,
    mut due: impl FnMut(&Tenant) -> bool,
) -> Result<()> {
    for (index, tenant) in tenants.iter_mut().enumerate() {
        if due(tenant) {
            let bytes = tenant.checkpoint()?;
            host.wrote(index, tenant, &bytes);
        }
    }
    Ok(())
}

/// Publish every tenant's views (a finished tenant reads `completed`),
/// then reach the host's round boundary.
pub fn publish(tenants: &[Tenant], host: &mut dyn Host, round: u64, state: &str) -> Result<()> {
    for t in tenants {
        let state = if t.finished() { "completed" } else { state };
        let (epochs, elements) = (t.engine.config().epochs, t.engine.len());
        publish_engine_views(&t.shared, &t.engine, epochs, elements, t.checkpoints, state);
    }
    host.boundary(tenants, round, state)
}

/// Bind the control-plane listener when `listen` names an address.
pub fn bind_control_plane(listen: Option<&str>) -> Result<Option<TcpListener>> {
    let Some(addr) = listen else { return Ok(None) };
    TcpListener::bind(addr).map(Some).map_err(|e| {
        CoreError::InvalidConfig(format!("cannot bind control plane on `{addr}`: {e}"))
    })
}

/// A configured, bound (but not yet running) service.
pub struct Server {
    workload: ServeWorkload,
    config: ServeConfig,
    recorder: Recorder,
    executor: Executor,
    listener: Option<TcpListener>,
    shared: Arc<ControlShared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workload", &self.workload)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The solo server's side of [`drive`]: its tenant's own flags, and the
/// recorder its control plane shares with the engine.
struct Solo<'a>(&'a ControlShared, &'a Recorder);

impl Host for Solo<'_> {
    fn control(&self) -> &ControlShared {
        self.0
    }

    fn recorder(&self) -> &Recorder {
        self.1
    }
}

impl Server {
    /// Validate the configuration and bind the control-plane listener
    /// (if `listen` is set) so [`local_addr`](Server::local_addr) is
    /// known before [`run`](Server::run) starts stepping.
    pub fn new(workload: ServeWorkload, config: ServeConfig) -> Result<Self> {
        config.engine.validate()?;
        if let ServeWorkload::Live { access_rate, .. } = &workload {
            if !access_rate.is_finite() || *access_rate <= 0.0 {
                return Err(CoreError::InvalidValue {
                    what: "access rate",
                    index: None,
                    value: *access_rate,
                });
            }
        }
        let listener = bind_control_plane(config.listen.as_deref())?;
        Ok(Server {
            workload,
            config,
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
            listener,
            shared: Arc::new(ControlShared::default()),
        })
    }

    /// Attach an obs recorder (shared with the control plane's
    /// `/metrics` route).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach an executor for the engine's overlapped re-solves.
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The bound control-plane address, when `listen` was configured.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Handle to the shared control state — lets in-process callers
    /// request a checkpoint or shutdown without going through HTTP.
    pub fn control(&self) -> Arc<ControlShared> {
        Arc::clone(&self.shared)
    }

    /// Run to completion or graceful drain: [`drive`] one tenant. Consumes
    /// the server; the control plane (if any) is stopped before
    /// returning, on success and on error alike.
    pub fn run(self) -> Result<ServeOutcome> {
        let config = &self.config;
        let mut tenant = Tenant::new(
            &self.workload,
            config.engine.clone(),
            self.recorder.clone(),
            self.executor.clone(),
            Arc::clone(&self.shared),
            config.checkpoint_path.clone(),
        )?;
        if let Some(path) = &config.resume {
            tenant.resume(Snapshot::read(path)?)?;
        }
        // A solo run counts its cadence against absolute epochs.
        let round = tenant.engine().epoch() as u64;
        let tenants = std::slice::from_mut(&mut tenant);
        let mut host = Solo(&self.shared, &self.recorder);
        publish(tenants, &mut host, round, "running")?;
        let plane = self
            .listener
            .map(|l| ControlPlane::start(l, Arc::clone(&self.shared), self.recorder.clone()))
            .transpose()
            .map_err(|e| CoreError::InvalidConfig(format!("control plane: {e}")))?;
        let bound_addr = plane.as_ref().map(ControlPlane::local_addr);
        let result = drive(
            tenants,
            &mut host,
            round,
            config.checkpoint_every,
            config.drain_after,
            config.epoch_throttle,
        );
        if let Some(plane) = plane {
            plane.stop();
        }
        let (exit, epochs_run) = result?;
        Ok(ServeOutcome {
            report: (exit == ExitReason::Completed).then(|| tenant.engine.report()),
            exit,
            epochs_run,
            checkpoints: tenant.checkpoints,
            bound_addr,
        })
    }
}

/// The `/schedule` body for `schedule`: its frequencies, perceived
/// freshness and bandwidth used, as shortest round-trip floats.
pub(crate) fn schedule_json(schedule: &Solution) -> String {
    let mut json = String::from("{\"frequencies\": [");
    for (i, &f) in schedule.frequencies.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        push_f64(&mut json, f);
    }
    json.push_str("], \"perceived_freshness\": ");
    push_f64(&mut json, schedule.perceived_freshness);
    json.push_str(", \"bandwidth_used\": ");
    push_f64(&mut json, schedule.bandwidth_used);
    json.push('}');
    json
}

/// The fields of the schedule a `/schedule` body shows, kept beside the
/// body so that an unchanged schedule is not rendered again. They are
/// compared bit for bit: a re-solve counter can repeat across a restore,
/// and a hash can collide.
#[derive(Debug)]
pub(crate) struct RenderedSchedule {
    frequencies: Vec<f64>,
    perceived_freshness: f64,
    bandwidth_used: f64,
}

impl RenderedSchedule {
    fn of(schedule: &Solution) -> Self {
        RenderedSchedule {
            frequencies: schedule.frequencies.clone(),
            perceived_freshness: schedule.perceived_freshness,
            bandwidth_used: schedule.bandwidth_used,
        }
    }

    fn shows(&self, schedule: &Solution) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        same(self.perceived_freshness, schedule.perceived_freshness)
            && same(self.bandwidth_used, schedule.bandwidth_used)
            && self.frequencies.len() == schedule.frequencies.len()
            && self
                .frequencies
                .iter()
                .zip(&schedule.frequencies)
                .all(|(&a, &b)| same(a, b))
    }
}

/// Publish the standard control-plane views for one engine into a
/// [`ControlShared`]: `/status`, `/schedule`, `/health` (plus the breach
/// flag), and the telemetry series. The `/schedule` body is rendered
/// again only when the engine's schedule differs from the one it shows.
/// Every [`Tenant`] publishes through it, so a fleet tenant's views read
/// identically to a solo run's.
pub fn publish_engine_views(
    shared: &ControlShared,
    engine: &Engine,
    total_epochs: usize,
    elements: usize,
    checkpoints: usize,
    state: &str,
) {
    let last = engine.history().last();
    let mut status = format!(
        "{{\"state\": \"{state}\", \"epoch\": {}, \"epochs\": {total_epochs}, \"elements\": {elements}, \"realized_pf\": ",
        engine.epoch(),
    );
    push_f64(&mut status, last.map_or(f64::NAN, |e| e.realized_pf));
    status.push_str(", \"drift\": ");
    push_f64(&mut status, last.map_or(f64::NAN, |e| e.drift));
    let _ = write!(
        status,
        ", \"resolved\": {}, \"checkpoints\": {checkpoints}}}",
        last.is_some_and(|e| e.resolved)
    );
    let schedule = engine.schedule();
    let changed = shared
        .rendered_schedule
        .lock()
        .is_ok_and(|rendered| !rendered.as_ref().is_some_and(|r| r.shows(schedule)));
    let schedule_body = changed.then(|| schedule_json(schedule));
    if let Ok(mut view) = shared.status.lock() {
        *view = status.into();
    }
    if let Some(body) = schedule_body {
        if let (Ok(mut view), Ok(mut rendered)) =
            (shared.schedule.lock(), shared.rendered_schedule.lock())
        {
            *view = body.into();
            *rendered = Some(RenderedSchedule::of(schedule));
        }
    }
    if let Ok(mut view) = shared.health.lock() {
        *view = engine.health_json().unwrap_or_default().into();
    }
    shared
        .health_breach
        .store(engine.health() == Health::Breach, Ordering::SeqCst);
    if let Ok(mut view) = shared.series.lock() {
        *view = engine.series().clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_workload(n: usize) -> ServeWorkload {
        let mut rates = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for i in 0..n {
            rates.push(1.0 + i as f64 * 0.5);
            weights.push((n - i) as f64);
        }
        ServeWorkload::Live {
            problem: Problem::builder()
                .change_rates(rates)
                .access_weights(weights)
                .bandwidth(n as f64)
                .build()
                .unwrap(),
            access_rate: 60.0,
        }
    }

    fn config(epochs: usize, dir: &str) -> ServeConfig {
        let root = std::env::temp_dir()
            .join("freshen-serve-service-test")
            .join(dir);
        std::fs::create_dir_all(&root).unwrap();
        ServeConfig {
            engine: EngineConfig {
                epochs,
                warmup_epochs: 1,
                seed: 99,
                failure_rate: 0.1,
                ..EngineConfig::default()
            },
            checkpoint_path: root.join("run.snapshot"),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn uninterrupted_serve_matches_plain_engine_run() {
        let workload = live_workload(4);
        let cfg = config(6, "plain");
        let outcome = Server::new(workload.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.exit, ExitReason::Completed);
        assert_eq!(outcome.epochs_run, 6);

        let ServeWorkload::Live {
            problem,
            access_rate,
        } = &workload
        else {
            unreachable!()
        };
        let horizon = cfg.engine.horizon();
        let accesses = LiveAccessStream::new(
            problem.access_probs(),
            *access_rate,
            cfg.engine.seed ^ ACCESS_SEED_SALT,
            horizon,
        )
        .unwrap();
        let mut source = LivePollSource::new(
            problem.change_rates(),
            cfg.engine.seed ^ POLL_SEED_SALT,
            horizon,
        )
        .unwrap();
        let plain = Engine::new(problem, cfg.engine)
            .unwrap()
            .run(accesses, &mut source)
            .unwrap();
        assert_eq!(
            outcome.report.unwrap().to_json(),
            plain.to_json(),
            "serving must not perturb the deterministic run"
        );
    }

    #[test]
    fn drain_then_resume_is_byte_identical() {
        let workload = live_workload(5);
        let cfg = config(8, "resume");

        let reference = Server::new(workload.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap()
            .report
            .unwrap()
            .to_json();

        let mut first_leg = cfg.clone();
        first_leg.drain_after = Some(3);
        let outcome = Server::new(workload.clone(), first_leg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.exit, ExitReason::Drained);
        assert!(outcome.report.is_none());
        assert_eq!(outcome.checkpoints, 1, "drain writes the final checkpoint");

        let mut second_leg = cfg.clone();
        second_leg.resume = Some(cfg.checkpoint_path.clone());
        let resumed = Server::new(workload, second_leg).unwrap().run().unwrap();
        assert_eq!(resumed.exit, ExitReason::Completed);
        assert_eq!(resumed.epochs_run, 5, "8 total − 3 already run");
        assert_eq!(resumed.report.unwrap().to_json(), reference);
    }

    #[test]
    fn replay_workload_checkpoints_and_resumes() {
        let n = 3;
        let mut accesses = Vec::new();
        for k in 0..240 {
            accesses.push(AccessRecord {
                time: k as f64 * 0.025,
                element: [0, 1, 0, 2][k % 4],
            });
        }
        let mut polls = Vec::new();
        for k in 0..60 {
            polls.push(PollRecord {
                time: k as f64 * 0.1,
                element: k % n,
                changed: k % 2 == 0,
            });
        }
        let workload = ServeWorkload::Replay {
            elements: n,
            bandwidth: 3.0,
            accesses,
            polls,
        };
        let cfg = config(6, "replay");

        let reference = Server::new(workload.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap()
            .report
            .unwrap()
            .to_json();

        let mut first_leg = cfg.clone();
        first_leg.drain_after = Some(2);
        Server::new(workload.clone(), first_leg)
            .unwrap()
            .run()
            .unwrap();
        let mut second_leg = cfg.clone();
        second_leg.resume = Some(cfg.checkpoint_path.clone());
        let resumed = Server::new(workload, second_leg).unwrap().run().unwrap();
        assert_eq!(resumed.report.unwrap().to_json(), reference);
    }

    #[test]
    fn mismatched_resume_shapes_are_clean_errors() {
        let cfg = config(6, "mismatch");
        let mut drain = cfg.clone();
        drain.drain_after = Some(2);
        Server::new(live_workload(4), drain).unwrap().run().unwrap();

        // Wrong element count.
        let mut resume = cfg.clone();
        resume.resume = Some(cfg.checkpoint_path.clone());
        let err = Server::new(live_workload(5), resume.clone())
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }), "{err}");

        // Wrong seed.
        let mut wrong_seed = resume.clone();
        wrong_seed.engine.seed = 7;
        let err = Server::new(live_workload(4), wrong_seed)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");

        // Wrong workload kind for the stored source state.
        let mut wrong_kind = resume.clone();
        wrong_kind.resume = Some(cfg.checkpoint_path.clone());
        let err = Server::new(
            ServeWorkload::Replay {
                elements: 4,
                bandwidth: 4.0,
                accesses: Vec::new(),
                polls: Vec::new(),
            },
            wrong_kind,
        )
        .unwrap()
        .run()
        .unwrap_err();
        assert!(err.to_string().contains("source kind"), "{err}");

        // Corrupt file.
        let bytes = std::fs::read(&cfg.checkpoint_path).unwrap();
        let bad_path = cfg.checkpoint_path.with_extension("corrupt");
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(&bad_path, &bad).unwrap();
        let mut corrupt = resume;
        corrupt.resume = Some(bad_path);
        let err = Server::new(live_workload(4), corrupt)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn slo_views_surface_breach_to_the_control_shared() {
        let workload = live_workload(4);
        let mut cfg = config(6, "slo");
        // An unreachable freshness floor: the run must degrade to
        // Breach, and the serve loop must surface that through the
        // shared health view, the breach flag, and the series.
        cfg.engine.slo = Some(freshen_obs::SloConfig {
            target_pf: 0.999_999,
            breach_after: 2,
            ..freshen_obs::SloConfig::default()
        });
        let server = Server::new(workload, cfg).unwrap();
        let control = server.control();
        let outcome = server.run().unwrap();
        assert_eq!(outcome.exit, ExitReason::Completed);
        assert!(control.health_breach.load(Ordering::SeqCst));
        let health = control.health.lock().unwrap().clone();
        assert!(health.contains("\"state\": \"breach\""), "{health}");
        let series = control.series.lock().unwrap().clone();
        assert_eq!(series.len(), 6, "every epoch retained at this scale");
        assert!(series.samples().iter().any(|s| s.health == 2));
    }

    #[test]
    fn on_demand_checkpoint_and_shutdown_flags_drive_the_loop() {
        let workload = live_workload(3);
        let mut cfg = config(40, "flags");
        cfg.engine.warmup_epochs = 2;
        let server = Server::new(workload, cfg).unwrap();
        let control = server.control();
        // Pre-latched flags: the loop must checkpoint after the first
        // epoch and then drain immediately.
        control.checkpoint_requested.store(true, Ordering::SeqCst);
        control.shutdown_requested.store(true, Ordering::SeqCst);
        let outcome = server.run().unwrap();
        assert_eq!(outcome.exit, ExitReason::Drained);
        assert_eq!(outcome.epochs_run, 0, "shutdown wins before the first step");
        assert_eq!(outcome.checkpoints, 1, "drain still snapshots");
    }

    #[test]
    fn the_schedule_view_follows_re_solves_and_restores_and_is_kept_otherwise() {
        // The engine starts from a flat prior and learns a skewed truth,
        // so the drift gate re-solves on some epochs and not on others.
        let ServeWorkload::Live {
            problem,
            access_rate,
        } = live_workload(8)
        else {
            unreachable!()
        };
        let prior = Problem::builder()
            .change_rates(vec![1.0; 8])
            .access_weights(vec![1.0; 8])
            .bandwidth(8.0)
            .build()
            .unwrap();
        let config = EngineConfig {
            epochs: 30,
            warmup_epochs: 1,
            seed: 21,
            ..EngineConfig::default()
        };
        let horizon = config.horizon();
        let mut accesses = LiveAccessStream::new(
            problem.access_probs(),
            access_rate,
            config.seed ^ ACCESS_SEED_SALT,
            horizon,
        )
        .unwrap()
        .peekable();
        let mut source = LivePollSource::new(
            problem.change_rates(),
            config.seed ^ POLL_SEED_SALT,
            horizon,
        )
        .unwrap();
        let mut engine = Engine::new(&prior, config).unwrap();
        let shared = ControlShared::default();
        let body = || shared.schedule.lock().unwrap().to_string();
        let body_ptr = || shared.schedule.lock().unwrap().as_ptr();
        let publish = |engine: &Engine| publish_engine_views(&shared, engine, 30, 8, 0, "running");

        publish(&engine);
        assert_eq!(body(), schedule_json(engine.schedule()));
        let first = engine.export_state();
        let (mut resolved, mut kept) = (0, 0);
        for _ in 0..30 {
            let before = body_ptr();
            let stats = engine.step(&mut accesses, &mut source).unwrap();
            publish(&engine);
            assert_eq!(
                body(),
                schedule_json(engine.schedule()),
                "epoch {}",
                stats.index
            );
            if stats.resolved {
                resolved += 1;
            } else {
                assert_eq!(body_ptr(), before, "epoch {}: re-rendered", stats.index);
                kept += 1;
            }
        }
        assert!(resolved > 0 && kept > 0, "resolved {resolved}, kept {kept}");

        let last = body();
        engine.restore_state(first).unwrap();
        publish(&engine);
        assert_eq!(body(), schedule_json(engine.schedule()));
        assert_ne!(body(), last, "the restored schedule differs");
    }
}
