//! `freshen-fleet`: multi-tenant fleet serving behind one control plane.
//!
//! A fleet drives N independent tenants — each its own
//! [`freshen-engine`](freshen_engine) with a private problem, budget,
//! seed, SLO rules, and snapshot file — in deterministic round-robin
//! rounds across one shared [`Executor`](freshen_core::exec::Executor)
//! pool, behind a single extended HTTP control plane:
//!
//! | route                          | effect                             |
//! |--------------------------------|------------------------------------|
//! | `GET /tenants`                 | the tenant roster with states      |
//! | `GET /tenants/{id}`            | one tenant's summary row           |
//! | `GET /tenants/{id}/status`     | the standard single-engine route   |
//! |   (`/schedule`, `/metrics`, `/health`, `/timeseries`,              |
//! |   `POST .../checkpoint`)       |   set, per tenant                  |
//! | `GET /status`                  | fleet aggregate (round, counts)    |
//! | `GET /metrics`                 | nested JSON; `?format=prometheus`  |
//! |                                | is one labeled exposition with a   |
//! |                                | `tenant="<id>"` dimension          |
//! | `GET /health`                  | 503 if any tenant's SLO breaches   |
//! | `POST /checkpoint`, `/shutdown`| fleet-wide flag latches            |
//!
//! Three pieces:
//!
//! 1. **The spec** ([`spec`], read with [`freshen_core::json`]) —
//!    declares tenants, workload generators (baseline Zipf or the named
//!    stress scenarios), budgets, seeds, and the checkpoint cadence.
//! 2. **Fleet snapshots** ([`manifest`]) — a directory of per-tenant
//!    serve snapshots plus a CRC-checked manifest, written atomically
//!    and last, so a fleet killed at any round boundary resumes cleanly.
//! 3. **The runtime** ([`runtime`]) — no loop of its own: it drives one
//!    serve [`Tenant`](freshen_serve::Tenant) per spec entry through
//!    serve's one drive loop ([`drive`](freshen_serve::drive)), and
//!    keeps what is fleet-specific — the manifest after each checkpoint
//!    round, the quarantine path for tenants whose snapshots fail
//!    validation on resume, the roster and aggregate views, and the
//!    route table.
//!
//! The determinism-per-tenant invariant holds fleet-wide: each engine
//! is a pure function of its own seeded inputs, so interleaving tenants
//! (or probing the control plane) cannot change any tenant's
//! trajectory, and every tenant's final report is **byte-identical** to
//! a same-seed solo `freshen serve` run — killed and resumed or not.
//!
//! ```
//! use freshen_fleet::{Fleet, FleetConfig, FleetSpec, TenantSpec};
//!
//! let spec = FleetSpec::new(vec![
//!     TenantSpec::new("acme", 8),
//!     TenantSpec::new("bolt", 6),
//! ])
//! .unwrap();
//! let dir = std::env::temp_dir().join("freshen-fleet-doc");
//! let config = FleetConfig { snapshot_dir: dir, ..FleetConfig::default() };
//! let outcome = Fleet::new(spec, config).unwrap().run().unwrap();
//! assert_eq!(outcome.tenants.len(), 2);
//! assert!(outcome.tenants.iter().all(|t| t.report.is_some()));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod manifest;
pub mod runtime;
pub mod spec;

pub use freshen_core::json::Json;
pub use manifest::{Manifest, ManifestEntry};
pub use runtime::{Fleet, FleetConfig, FleetOutcome, TenantReport, FLEET_LABEL, MANIFEST_FILE};
pub use spec::{FleetSpec, TenantSpec};
