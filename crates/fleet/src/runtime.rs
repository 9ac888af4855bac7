//! The fleet runtime: N independent tenants stepped by serve's one drive
//! loop ([`drive`]) behind one control plane.
//!
//! Each tenant is a serve [`Tenant`] with its own problem, budget, seed,
//! SLO rules, recorder, and snapshot file — exactly the unit a solo
//! `freshen serve` run drives. One fleet *round* steps every unfinished
//! tenant one epoch, in spec order; because each engine is a
//! deterministic pure function of its own inputs (regardless of the
//! shared executor's worker count), interleaving tenants cannot change
//! any tenant's trajectory, and every tenant's final report is
//! byte-identical to its same-seed solo run.
//!
//! The fleet keeps only what is fleet-specific, as the loop's [`Host`]:
//! the roster and aggregate views, the fleet routes, and the CRC-checked
//! [`Manifest`], written atomically after the tenant snapshots of every
//! checkpoint round. A fleet killed at any round boundary resumes to
//! byte-identical reports. On resume, a tenant whose snapshot fails the
//! manifest CRC or snapshot validation is *quarantined* — counted on
//! `fleet.quarantined`, journaled as a `fleet.quarantine` alert, never
//! stepped or checkpointed, but still routed and on the roster — while
//! healthy tenants resume normally.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use freshen_core::error::{CoreError, Result};
use freshen_core::exec::Executor;
use freshen_engine::EngineReport;
use freshen_obs::{prometheus, Counter, Health, Recorder};
use freshen_serve::snapshot::crc32;
use freshen_serve::{
    bind_control_plane, drive, metrics_response, publish, register_control_routes,
    register_shutdown_route, register_status_routes, ControlPlane, ControlShared, ExitReason, Host,
    Request, Response, Router, Snapshot, Tenant,
};

use crate::manifest::{Manifest, ManifestEntry};
use crate::spec::{FleetSpec, TenantSpec};

/// File name of the manifest inside a fleet snapshot directory.
pub const MANIFEST_FILE: &str = "fleet.manifest";
/// Reserved `tenant` label value for the fleet's own recorder in the
/// labeled Prometheus exposition (tenant ids may not start with `_`).
pub const FLEET_LABEL: &str = "_fleet";

/// Runtime knobs the spec does not carry (paths, listener, drain caps).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Control-plane bind address; `None` runs headless.
    pub listen: Option<String>,
    /// Directory for per-tenant snapshots and the manifest.
    pub snapshot_dir: PathBuf,
    /// Resume every tenant from this fleet snapshot directory.
    pub resume_dir: Option<PathBuf>,
    /// Stop (drain + checkpoint) after this many rounds in this process.
    pub drain_after: Option<usize>,
    /// Optional pause between rounds so control-plane probes can land
    /// mid-run in tests and demos.
    pub round_throttle: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            listen: None,
            snapshot_dir: PathBuf::from("fleet-snapshots"),
            resume_dir: None,
            drain_after: None,
            round_throttle: None,
        }
    }
}

/// One tenant's slice of a [`FleetOutcome`].
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant id.
    pub id: String,
    /// The final engine report — present only when the tenant completed
    /// all its epochs.
    pub report: Option<EngineReport>,
    /// True when the tenant was quarantined on resume.
    pub quarantined: bool,
    /// The tenant's engine epoch when the fleet returned.
    pub epoch: usize,
}

/// Outcome of a fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-tenant results, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Why the fleet loop returned.
    pub exit: ExitReason,
    /// Rounds stepped by this process (excludes restored rounds).
    pub rounds_run: usize,
    /// Tenant snapshot files written by this process.
    pub checkpoints: usize,
    /// Control-plane address, when one was bound.
    pub bound_addr: Option<SocketAddr>,
}

impl FleetOutcome {
    /// Per-tenant final reports as one JSON object keyed by id
    /// (quarantined or unfinished tenants map to `null`).
    pub fn reports_json(&self) -> String {
        let mut out = String::from("{");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": ", t.id));
            match &t.report {
                Some(report) => out.push_str(&report.to_json()),
                None => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }
}

/// A configured, bound (but not yet running) fleet.
pub struct Fleet {
    spec: FleetSpec,
    config: FleetConfig,
    recorder: Recorder,
    executor: Executor,
    listener: Option<TcpListener>,
    shared: Arc<ControlShared>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("tenants", &self.spec.tenants.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Validate the spec, create the snapshot directory, and bind the
    /// control-plane listener (if configured).
    pub fn new(spec: FleetSpec, config: FleetConfig) -> Result<Fleet> {
        spec.validate()?;
        std::fs::create_dir_all(&config.snapshot_dir).map_err(|e| {
            CoreError::InvalidConfig(format!(
                "cannot create snapshot dir {}: {e}",
                config.snapshot_dir.display()
            ))
        })?;
        let listener = bind_control_plane(config.listen.as_deref())?;
        Ok(Fleet {
            spec,
            config,
            recorder: Recorder::disabled(),
            executor: Executor::serial(),
            listener,
            shared: Arc::new(ControlShared::default()),
        })
    }

    /// Attach the fleet-level obs recorder. When enabled, every tenant
    /// also gets its own enabled recorder (the per-tenant label groups
    /// of the `/metrics` exposition).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach the shared executor pool the tenant engines step across.
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The bound control-plane address, when `listen` was configured.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Handle to the fleet-level control state (checkpoint/shutdown
    /// flags) for in-process callers.
    pub fn control(&self) -> Arc<ControlShared> {
        Arc::clone(&self.shared)
    }

    /// Run to completion or graceful drain: [`drive`] one serve tenant
    /// per spec entry that is not quarantined. Consumes the fleet; the
    /// control plane (if any) is stopped before returning.
    pub fn run(mut self) -> Result<FleetOutcome> {
        let listener = self.listener.take();
        let quarantined = self.recorder.counter("fleet.quarantined");
        let resume = match &self.config.resume_dir {
            Some(dir) => Some((dir, Manifest::read(&dir.join(MANIFEST_FILE))?)),
            None => None,
        };
        let mut host = FleetHost {
            fleet: &self,
            slots: Vec::with_capacity(self.spec.tenants.len()),
            written: 0,
            round_counter: self.recorder.counter("fleet.rounds"),
            checkpoint_counter: self.recorder.counter("fleet.checkpoints"),
            round: resume.as_ref().map_or(0, |(_, manifest)| manifest.round),
            roster: Arc::default(),
        };
        let mut tenants = Vec::with_capacity(self.spec.tenants.len());
        for spec in &self.spec.tenants {
            let mut slot = Slot {
                spec,
                shared: Arc::default(),
                recorder: if self.recorder.is_enabled() {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                },
                tenant: Some(tenants.len()),
                entry: None,
            };
            let mut tenant = Tenant::new(
                &spec.workload()?,
                spec.engine_config(),
                slot.recorder.clone(),
                self.executor.clone(),
                Arc::clone(&slot.shared),
                self.config.snapshot_dir.join(spec.snapshot_file()),
            )?;
            if let Some((dir, manifest)) = &resume {
                match resume_tenant(dir, manifest, spec, &mut tenant) {
                    Ok(entry) => slot.entry = Some(entry),
                    Err(err) => {
                        quarantined.inc();
                        let reason = err.to_string();
                        self.recorder.event(
                            "fleet.quarantine",
                            &[("tenant", &spec.id), ("reason", &reason)],
                        );
                        slot.tenant = None;
                    }
                }
            }
            if slot.tenant.is_some() {
                tenants.push(tenant);
            }
            host.slots.push(slot);
        }

        // Views + router before the first step so probes that land early
        // see coherent state.
        let round = host.round;
        publish(&tenants, &mut host, round, "running")?;
        let plane = listener
            .map(|l| ControlPlane::start_router(l, host.router(), self.recorder.clone()))
            .transpose()
            .map_err(|e| CoreError::InvalidConfig(format!("control plane: {e}")))?;
        let bound_addr = plane.as_ref().map(ControlPlane::local_addr);
        let result = drive(
            &mut tenants,
            &mut host,
            round,
            self.spec.checkpoint_every,
            self.config.drain_after,
            self.config.round_throttle,
        );
        if let Some(plane) = plane {
            plane.stop();
        }
        let (exit, rounds_run) = result?;

        let reports = host
            .slots
            .iter()
            .map(|slot| {
                let tenant = slot.tenant.map(|i| &tenants[i]);
                TenantReport {
                    id: slot.spec.id.clone(),
                    report: tenant.filter(|t| t.finished()).map(|t| t.engine().report()),
                    quarantined: tenant.is_none(),
                    epoch: tenant.map_or(0, |t| t.engine().epoch()),
                }
            })
            .collect();
        Ok(FleetOutcome {
            tenants: reports,
            exit,
            rounds_run,
            checkpoints: tenants.iter().map(Tenant::checkpoints).sum(),
            bound_addr,
        })
    }
}

/// Resume one tenant from the manifest and its snapshot file, or return
/// the reason it cannot be trusted.
fn resume_tenant(
    dir: &Path,
    manifest: &Manifest,
    spec: &TenantSpec,
    tenant: &mut Tenant,
) -> Result<ManifestEntry> {
    let id = &spec.id;
    let entry = manifest
        .entry(id)
        .ok_or_else(|| CoreError::InvalidConfig(format!("tenant `{id}` missing from manifest")))?;
    let expected_file = spec.snapshot_file();
    if entry.file != expected_file {
        return Err(CoreError::InvalidConfig(format!(
            "manifest names `{}` for tenant `{id}` (want `{expected_file}`)",
            entry.file
        )));
    }
    let path = dir.join(&entry.file);
    let bytes = std::fs::read(&path).map_err(|e| {
        CoreError::InvalidConfig(format!("cannot read snapshot {}: {e}", path.display()))
    })?;
    if crc32(&bytes) != entry.crc {
        return Err(CoreError::InvalidConfig(format!(
            "snapshot {} does not match the manifest CRC",
            path.display()
        )));
    }
    tenant.resume(Snapshot::decode(&bytes)?)?;
    Ok(entry.clone())
}

/// One spec tenant's place in the fleet. A quarantined tenant keeps its
/// routes, over views that are never published, and its roster row.
struct Slot<'a> {
    spec: &'a TenantSpec,
    shared: Arc<ControlShared>,
    recorder: Recorder,
    /// Its index among the stepped tenants; `None` when quarantined.
    tenant: Option<usize>,
    /// Its snapshot on disk, as the manifest lists it.
    entry: Option<ManifestEntry>,
}

/// The fleet's side of [`drive`]: the manifest, the roster and the
/// aggregate views.
struct FleetHost<'a> {
    fleet: &'a Fleet,
    slots: Vec<Slot<'a>>,
    /// Tenant snapshots written since the last manifest.
    written: u64,
    round_counter: Counter,
    checkpoint_counter: Counter,
    /// The round `fleet.rounds` has counted up to.
    round: u64,
    /// The roster rows, in spec order.
    roster: Arc<Mutex<Vec<String>>>,
}

impl Host for FleetHost<'_> {
    fn control(&self) -> &ControlShared {
        &self.fleet.shared
    }

    fn recorder(&self) -> &Recorder {
        &self.fleet.recorder
    }

    fn wrote(&mut self, index: usize, tenant: &Tenant, bytes: &[u8]) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.tenant == Some(index)) {
            slot.entry = Some(ManifestEntry {
                id: slot.spec.id.clone(),
                file: slot.spec.snapshot_file(),
                crc: crc32(bytes),
                epoch: tenant.engine().epoch() as u64,
            });
        }
        self.written += 1;
    }

    /// Write the manifest after a round's tenant snapshots, then refresh
    /// the roster and the fleet's `/status` and `/health` views.
    fn boundary(&mut self, tenants: &[Tenant], round: u64, fleet_state: &str) -> Result<()> {
        self.round_counter.add(round - self.round);
        self.round = round;
        if self.written > 0 {
            // Atomic, and after the tenant files. Those are overwritten in
            // place, though: a kill between their writes and this one
            // leaves the old manifest's CRCs stale, and the tenants
            // rewritten since are quarantined on resume.
            let manifest = Manifest {
                round,
                entries: self.slots.iter().filter_map(|s| s.entry.clone()).collect(),
            };
            manifest.write_atomic(&self.fleet.config.snapshot_dir.join(MANIFEST_FILE))?;
            self.checkpoint_counter.add(self.written);
            self.written = 0;
        }
        let (mut completed, mut quarantined, mut breached) = (0usize, 0usize, 0usize);
        let mut rows = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let tenant = slot.tenant.map(|i| tenants[i].engine());
            let state = match slot.tenant.map(|i| tenants[i].finished()) {
                None => "quarantined",
                Some(true) => "completed",
                Some(false) => "running",
            };
            completed += usize::from(state == "completed");
            quarantined += usize::from(tenant.is_none());
            breached += usize::from(tenant.is_some_and(|e| e.health() == Health::Breach));
            let (epoch, elements) = tenant.map_or((0, slot.spec.objects), |e| (e.epoch(), e.len()));
            rows.push(format!(
                "{{\"id\": \"{}\", \"state\": \"{state}\", \"epoch\": {epoch}, \"epochs\": {}, \"elements\": {elements}}}",
                slot.spec.id, slot.spec.epochs,
            ));
        }
        let checkpoints: usize = tenants.iter().map(Tenant::checkpoints).sum();
        let shared = &self.fleet.shared;
        if let Ok(mut view) = shared.status.lock() {
            *view = format!(
                "{{\"state\": \"{fleet_state}\", \"round\": {round}, \"tenants\": {}, \"completed\": {completed}, \"quarantined\": {quarantined}, \"checkpoints\": {checkpoints}}}",
                rows.len(),
            )
            .into();
        }
        if let Ok(mut view) = shared.health.lock() {
            *view = format!(
                "{{\"state\": \"{}\", \"tenants\": {}, \"breached\": {breached}, \"quarantined\": {quarantined}}}\n",
                if breached > 0 { "breach" } else { "ok" },
                rows.len(),
            )
            .into();
        }
        shared.health_breach.store(breached > 0, Ordering::SeqCst);
        if let Ok(mut roster) = self.roster.lock() {
            *roster = rows;
        }
        Ok(())
    }
}

impl FleetHost<'_> {
    /// The fleet route table: fleet-level aggregates plus the standard
    /// route set per tenant under `/tenants/<id>/...`.
    fn router(&self) -> Router {
        let mut router = Router::new();
        for slot in &self.slots {
            let prefix = format!("/tenants/{}", slot.spec.id);
            let shared = Arc::clone(&slot.shared);
            register_control_routes(&mut router, &prefix, shared, slot.recorder.clone());
        }
        {
            let roster = Arc::clone(&self.roster);
            router.route("GET", "/tenants", move |_, _| {
                let rows = roster.lock().map(|r| r.join(", ")).unwrap_or_default();
                Response::json(200, format!("{{\"tenants\": [{rows}]}}"))
            });
        }
        {
            let roster = Arc::clone(&self.roster);
            let ids: Vec<String> = self.slots.iter().map(|s| s.spec.id.clone()).collect();
            router.route("GET", "/tenants/{id}", move |_, params| {
                let index = ids
                    .iter()
                    .position(|id| params.get("id") == Some(id.as_str()));
                match index.and_then(|i| roster.lock().ok()?.get(i).cloned()) {
                    Some(row) => Response::json(200, row),
                    None => Response::json(404, "{\"error\":\"no such tenant\"}"),
                }
            });
        }
        {
            let fleet = self.fleet.recorder.clone();
            let groups: Vec<(String, Recorder)> = self
                .slots
                .iter()
                .map(|s| (s.spec.id.clone(), s.recorder.clone()))
                .collect();
            router.route("GET", "/metrics", move |req: &Request, _| {
                match req.query_param("format") {
                    Some("prometheus") => {
                        let mut labeled: Vec<(&str, &Recorder)> =
                            Vec::with_capacity(groups.len() + 1);
                        labeled.push((FLEET_LABEL, &fleet));
                        for (id, rec) in &groups {
                            labeled.push((id.as_str(), rec));
                        }
                        Response::text(
                            200,
                            prometheus::CONTENT_TYPE,
                            prometheus::render_labeled("tenant", &labeled),
                        )
                    }
                    None | Some("json") => {
                        let empty =
                            || "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}".to_string();
                        let mut body = String::from("{\"fleet\": ");
                        body.push_str(&fleet.metrics_json().unwrap_or_else(empty));
                        body.push_str(", \"tenants\": {");
                        for (i, (id, rec)) in groups.iter().enumerate() {
                            if i > 0 {
                                body.push_str(", ");
                            }
                            body.push_str(&format!("\"{id}\": "));
                            body.push_str(&rec.metrics_json().unwrap_or_else(empty));
                        }
                        body.push_str("}}");
                        Response::json(200, body)
                    }
                    Some(_) => metrics_response(req, &fleet),
                }
            });
        }
        register_status_routes(&mut router, "", Arc::clone(&self.fleet.shared));
        register_shutdown_route(&mut router, Arc::clone(&self.fleet.shared));
        router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshen_serve::{request, request_full, ServeOutcome, Server};

    fn spec() -> FleetSpec {
        FleetSpec::new(vec![
            TenantSpec {
                seed: 7,
                epochs: 6,
                ..TenantSpec::new("acme", 6)
            },
            TenantSpec {
                seed: 11,
                epochs: 8,
                scenario: "flash-crowd".into(),
                ..TenantSpec::new("bolt", 5)
            },
        ])
        .unwrap()
    }

    fn config(dir: &str) -> FleetConfig {
        let root = std::env::temp_dir()
            .join("freshen-fleet-runtime-test")
            .join(dir);
        let _ = std::fs::remove_dir_all(&root);
        FleetConfig {
            snapshot_dir: root,
            ..FleetConfig::default()
        }
    }

    fn solo_report(tenant: &TenantSpec, dir: &std::path::Path) -> String {
        let path = dir.join(format!("solo-{}", tenant.snapshot_file()));
        let outcome: ServeOutcome =
            Server::new(tenant.workload().unwrap(), tenant.serve_config(path))
                .unwrap()
                .run()
                .unwrap();
        outcome.report.unwrap().to_json()
    }

    #[test]
    fn tenant_reports_are_byte_identical_to_solo_runs() {
        let spec = spec();
        let config = config("parity");
        let dir = config.snapshot_dir.clone();
        let outcome = Fleet::new(spec.clone(), config).unwrap().run().unwrap();
        assert_eq!(outcome.exit, ExitReason::Completed);
        for (tenant, result) in spec.tenants.iter().zip(&outcome.tenants) {
            assert_eq!(
                result.report.as_ref().unwrap().to_json(),
                solo_report(tenant, &dir),
                "tenant `{}` diverged from its solo run",
                tenant.id
            );
        }
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let spec = spec();
        let reference: Vec<String> = {
            let outcome = Fleet::new(spec.clone(), config("resume-ref"))
                .unwrap()
                .run()
                .unwrap();
            outcome
                .tenants
                .iter()
                .map(|t| t.report.as_ref().unwrap().to_json())
                .collect()
        };

        let config_a = config("resume");
        let dir = config_a.snapshot_dir.clone();
        let first = Fleet::new(
            spec.clone(),
            FleetConfig {
                drain_after: Some(3),
                ..config_a.clone()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(first.exit, ExitReason::Drained);
        assert_eq!(first.rounds_run, 3);
        assert!(dir.join(MANIFEST_FILE).exists());

        let resumed = Fleet::new(
            spec,
            FleetConfig {
                resume_dir: Some(dir),
                ..config_a
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(resumed.exit, ExitReason::Completed);
        let got: Vec<String> = resumed
            .tenants
            .iter()
            .map(|t| t.report.as_ref().unwrap().to_json())
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn corrupt_tenant_is_quarantined_while_the_rest_resume() {
        let spec = spec();
        let config_a = config("quarantine");
        let dir = config_a.snapshot_dir.clone();
        Fleet::new(
            spec.clone(),
            FleetConfig {
                drain_after: Some(2),
                ..config_a.clone()
            },
        )
        .unwrap()
        .run()
        .unwrap();

        // Flip a byte mid-snapshot: the manifest CRC must catch it.
        let victim = dir.join(spec.tenants[0].snapshot_file());
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        let recorder = Recorder::enabled();
        let outcome = Fleet::new(
            spec.clone(),
            FleetConfig {
                resume_dir: Some(dir),
                ..config_a
            },
        )
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
        assert_eq!(outcome.exit, ExitReason::Completed);
        assert!(outcome.tenants[0].quarantined);
        assert!(outcome.tenants[0].report.is_none());
        assert!(!outcome.tenants[1].quarantined);
        assert!(outcome.tenants[1].report.is_some());
        assert_eq!(recorder.counter_value("fleet.quarantined"), Some(1));
        let trace = recorder.chrome_trace_json().unwrap();
        assert!(trace.contains("fleet.quarantine"), "{trace}");
        assert!(trace.contains("acme"), "{trace}");
    }

    #[test]
    fn control_plane_serves_fleet_and_tenant_routes() {
        let mut spec = spec();
        for tenant in &mut spec.tenants {
            tenant.epochs = 300;
        }
        let fleet = Fleet::new(
            spec,
            FleetConfig {
                listen: Some("127.0.0.1:0".into()),
                round_throttle: Some(Duration::from_millis(2)),
                ..config("http")
            },
        )
        .unwrap()
        .with_recorder(Recorder::enabled());
        let addr = fleet.local_addr().unwrap();
        let runner = std::thread::spawn(move || fleet.run().unwrap());

        let (status, body) = request(addr, "GET", "/tenants").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("\"acme\"") && body.contains("\"bolt\""),
            "{body}"
        );

        let (status, body) = request(addr, "GET", "/tenants/acme/status").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"epochs\": 300"), "{body}");
        let (status, body) = request(addr, "GET", "/tenants/bolt").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"bolt\""), "{body}");
        let (status, _) = request(addr, "GET", "/tenants/nope").unwrap();
        assert_eq!(status, 404);

        let (status, headers, _) = request_full(addr, "DELETE", "/status").unwrap();
        assert_eq!(status, 405);
        assert!(headers.contains("Allow: GET"), "{headers}");

        let (status, body) = request(addr, "GET", "/metrics?format=prometheus").unwrap();
        assert_eq!(status, 200);
        prometheus::validate_exposition(&body).unwrap();
        assert!(body.contains("tenant=\"_fleet\""), "{body}");
        assert!(body.contains("tenant=\"acme\""), "{body}");

        let (status, body) = request(addr, "GET", "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"fleet\": "), "{body}");
        assert!(body.contains("\"tenants\": {"), "{body}");

        let (status, _) = request(addr, "POST", "/tenants/acme/shutdown").unwrap();
        assert_eq!(
            status, 404,
            "a drain stops the whole fleet: no tenant serves /shutdown"
        );
        let (status, _) = request(addr, "POST", "/shutdown").unwrap();
        assert_eq!(status, 200);
        let outcome = runner.join().unwrap();
        assert_eq!(outcome.exit, ExitReason::Drained);
        assert!(outcome.checkpoints >= 2, "drain snapshots every tenant");
    }
}
