//! Versioned, CRC-checked snapshot format for kill-and-resume.
//!
//! The file layout is a 12-byte header followed by a flat little-endian
//! payload:
//!
//! | offset | bytes | field                              |
//! |--------|-------|------------------------------------|
//! | 0      | 4     | magic `FRSN`                       |
//! | 4      | 4     | format version (`u32`, currently 5)|
//! | 8      | 4     | CRC-32 of the payload (`u32`)      |
//! | 12     | …     | payload                            |
//!
//! The payload is, in order: the [`SnapshotShape`] (problem size, seed,
//! horizon, and estimator choice — checked against the restoring
//! process's configuration before any state is touched), the engine's
//! [`EngineState`], the poll source's [`SourceState`], and the number of
//! access records consumed so far. Floats are stored as raw IEEE-754
//! bits ([`f64::to_bits`]) so a round trip is bit-exact — the snapshot
//! never passes a value through decimal formatting.
//!
//! Everything is hand-rolled on purpose: the format has no external
//! dependencies, every decode error is a [`CoreError`] (never a panic),
//! and a truncated, bit-flipped, or mis-versioned file is rejected
//! before any field is interpreted.

use std::io::Write as _;
use std::path::Path;

use freshen_core::error::{CoreError, Result};
use freshen_core::problem::Solution;
use freshen_core::profile::ProfileEstimator;
use freshen_engine::report::EpochStats;
use freshen_engine::state::{EngineState, EstimatorState};
use freshen_engine::{EngineConfig, EstimatorKind, LivePollState};
use freshen_obs::{EpochSample, Health, SloAlert, SloState, TimeSeriesState};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"FRSN";
/// Current format version. Version 2 added the telemetry time-series
/// ring and the optional SLO-evaluator state; version 3 added the
/// scheduler's repair/repair-fallback counters (incremental KKT repair);
/// version 4 added the LLN and stochastic-approximation estimator kinds
/// and the schedule's cost-multiplier field (cost-aware objective);
/// version 5 replaced the profile learner's decayed counts with its raw
/// weights and global scale (the O(1)-per-access decayed profile).
/// Older files are rejected (re-run from the trace rather than silently
/// dropping counters out of the determinism contract).
pub const VERSION: u32 = 5;
/// Upper bound on any encoded collection length — a CRC-valid file
/// claiming more is rejected rather than allocated.
const MAX_LEN: u64 = 1 << 24;

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial), sliced by 8: eight
/// 256-entry tables, built at compile time, fold eight bytes per step.
/// Every encode and decode checksums the whole payload (8.03 MB at 10⁵
/// elements), and the fleet checksums each tenant file again at
/// checkpoint and at resume. Over 8.03 MB on a 2-core x86-64 host this
/// takes 7.1–7.5 ms; the bit-at-a-time loop it replaced took 59–70 ms.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` shifts `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// The problem shape and configuration fingerprint a snapshot was taken
/// under. Restoring requires an exact match: resuming a 64-element EWMA
/// run into a 32-element window-estimator process is a configuration
/// error, not a best-effort merge.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotShape {
    /// Number of mirrored elements.
    pub elements: usize,
    /// Master engine seed.
    pub seed: u64,
    /// Configured run length in epochs.
    pub epochs: usize,
    /// Epoch length in periods.
    pub epoch_len: f64,
    /// Change-rate estimator choice (and its parameter).
    pub estimator: EstimatorKind,
}

impl SnapshotShape {
    /// Fingerprint `config` for an `elements`-sized run.
    pub fn of(config: &EngineConfig, elements: usize) -> Self {
        SnapshotShape {
            elements,
            seed: config.seed,
            epochs: config.epochs,
            epoch_len: config.epoch_len,
            estimator: config.estimator,
        }
    }

    /// Verify this snapshot was taken under `config` over `elements`
    /// elements; the error names the first mismatching dimension.
    pub fn matches(&self, config: &EngineConfig, elements: usize) -> Result<()> {
        if self.elements != elements {
            return Err(CoreError::LengthMismatch {
                what: "snapshot element count",
                expected: elements,
                actual: self.elements,
            });
        }
        let expected = SnapshotShape::of(config, elements);
        if self != &expected {
            return Err(CoreError::InvalidConfig(format!(
                "snapshot shape {self:?} does not match the configured run {expected:?}"
            )));
        }
        Ok(())
    }
}

/// Poll-source state captured alongside the engine: either replay
/// cursors or the live source's replayable position.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceState {
    /// [`ReplayPollSource`](freshen_engine::ReplayPollSource) per-element
    /// cursors.
    Replay {
        /// Next-unconsumed index into each element's poll log.
        cursors: Vec<usize>,
    },
    /// [`LivePollSource`](freshen_engine::LivePollSource) replay state.
    Live(LivePollState),
}

/// One complete checkpoint: shape fingerprint, engine state, source
/// state, and the access-stream position.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Configuration fingerprint the snapshot was taken under.
    pub shape: SnapshotShape,
    /// The engine's cross-epoch state.
    pub engine: EngineState,
    /// The poll source's position.
    pub source: SourceState,
    /// Access records consumed from the stream so far (the resuming
    /// process skips exactly this many).
    pub accesses_consumed: u64,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v.as_bytes());
    }
    fn sample(&mut self, s: &EpochSample) {
        self.u64(s.epoch);
        self.f64(s.realized_pf);
        self.f64(s.drift);
        self.f64(s.age_p50);
        self.f64(s.age_p95);
        self.f64(s.age_max);
        self.f64(s.credit);
        self.u64(s.resolves);
        self.u64(s.skips);
        self.f64(s.shed);
        self.u64(s.dispatched);
        self.u64(s.accesses);
        self.u64(s.stale_served);
        self.u8(s.health);
        self.u64(s.requests);
        self.f64(s.request_p95_us);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn corrupt(what: &str) -> CoreError {
    CoreError::InvalidConfig(format!("snapshot: {what}"))
}

/// A bounds-checked little-endian reader over a byte payload: the
/// decoder of the snapshot and of the fleet manifest. A read past the
/// end, a length above the sanity bound, an out-of-range boolean or a
/// non-UTF-8 string is a [`CoreError::InvalidConfig`] whose message
/// starts with the format's name, never a panic.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The format's name, prefixed to every error.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Read `bytes` from the start; errors name the format `what`.
    pub fn new(what: &'static str, bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }
    /// The error for a malformed field, prefixed with the format's name.
    fn corrupt(&self, msg: &str) -> CoreError {
        CoreError::InvalidConfig(format!("{}: {msg}", self.what))
    }
    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.corrupt("truncated payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    /// One byte.
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// An `f64` from its raw IEEE-754 bits.
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A boolean byte, 0 or 1.
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt("boolean field out of range")),
        }
    }
    /// A `u64` length or index, at most `MAX_LEN`, as a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(self.corrupt("collection length exceeds sanity bound"));
        }
        Ok(n as usize)
    }
    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string field is not UTF-8"))
    }
    /// Fail unless every byte has been read.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// The snapshot's composite fields.
impl Reader<'_> {
    fn vec_f64(&mut self) -> Result<Vec<f64>> {
        let n = self.usize()?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn vec_u64(&mut self) -> Result<Vec<u64>> {
        let n = self.usize()?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn opt_f64(&mut self) -> Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(self.corrupt("option tag out of range")),
        }
    }
    fn sample(&mut self) -> Result<EpochSample> {
        let sample = EpochSample {
            epoch: self.u64()?,
            realized_pf: self.f64()?,
            drift: self.f64()?,
            age_p50: self.f64()?,
            age_p95: self.f64()?,
            age_max: self.f64()?,
            credit: self.f64()?,
            resolves: self.u64()?,
            skips: self.u64()?,
            shed: self.f64()?,
            dispatched: self.u64()?,
            accesses: self.u64()?,
            stale_served: self.u64()?,
            health: self.u8()?,
            requests: self.u64()?,
            request_p95_us: self.f64()?,
        };
        if Health::from_u8(sample.health).is_none() {
            return Err(self.corrupt("sample health byte out of range"));
        }
        Ok(sample)
    }
}

/// The format's tag for an estimator kind, written before the shape's
/// parameters and again before the engine's estimator state.
fn estimator_tag(kind: EstimatorKind) -> u8 {
    match kind {
        EstimatorKind::Ewma { .. } => 0,
        EstimatorKind::Window { .. } => 1,
        EstimatorKind::Lln => 2,
        EstimatorKind::Sa { .. } => 3,
    }
}

impl Snapshot {
    /// Serialize to the framed byte format (header + CRC'd payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::with_capacity(256));

        // Shape.
        e.u64(self.shape.elements as u64);
        e.u64(self.shape.seed);
        e.u64(self.shape.epochs as u64);
        e.f64(self.shape.epoch_len);
        e.u8(estimator_tag(self.shape.estimator));
        match self.shape.estimator {
            EstimatorKind::Ewma { gain } => e.f64(gain),
            EstimatorKind::Window { len } => e.u64(len as u64),
            EstimatorKind::Lln => {}
            EstimatorKind::Sa { gain, decay } => {
                e.f64(gain);
                e.f64(decay);
            }
        }

        // Engine state.
        let s = &self.engine;
        e.vec_f64(&s.last_poll);
        match &s.estimator {
            EstimatorState::Ewma { rates, seen } => {
                // Both gain schedules share this state; its tag names the
                // shape's schedule (0 constant, 3 decreasing).
                let sa = matches!(self.shape.estimator, EstimatorKind::Sa { .. });
                e.u8(if sa { 3 } else { 0 });
                e.vec_f64(rates);
                e.vec_u64(seen);
            }
            EstimatorState::Window { window, entries } => {
                e.u8(1);
                e.u64(*window as u64);
                e.u64(entries.len() as u64);
                for elem in entries {
                    e.u64(elem.len() as u64);
                    for &(interval, changed) in elem {
                        e.f64(interval);
                        e.bool(changed);
                    }
                }
            }
            EstimatorState::Lln {
                polls,
                detections,
                interval_sum,
            } => {
                e.u8(2);
                e.vec_u64(polls);
                e.vec_u64(detections);
                e.vec_f64(interval_sum);
            }
        }
        e.vec_f64(&s.profile_weights);
        e.f64(s.profile_scale);
        e.u64(s.profile_observations);
        e.vec_f64(&s.schedule.frequencies);
        e.f64(s.schedule.perceived_freshness);
        e.f64(s.schedule.general_freshness);
        e.f64(s.schedule.bandwidth_used);
        e.opt_f64(s.schedule.multiplier);
        e.opt_f64(s.schedule.cost_multiplier);
        e.u64(s.schedule.iterations as u64);
        e.vec_f64(&s.baseline_probs);
        e.vec_f64(&s.baseline_rates);
        e.u64(s.resolves);
        e.u64(s.skips);
        e.u64(s.repairs);
        e.u64(s.repair_fallbacks);
        e.opt_f64(s.last_drift);
        e.vec_f64(&s.credit);
        e.vec_u64(&s.attempts);
        e.u64(s.history.len() as u64);
        for epoch in &s.history {
            e.u64(epoch.index as u64);
            e.f64(epoch.start);
            e.f64(epoch.drift);
            e.bool(epoch.resolved);
            e.u64(epoch.accesses);
            e.u64(epoch.stale_served);
            e.u64(epoch.dispatched);
            e.u64(epoch.succeeded);
            e.u64(epoch.failures);
            e.u64(epoch.retries);
            e.u64(epoch.deferred);
            e.f64(epoch.shed);
            e.f64(epoch.realized_pf);
        }
        e.u64(s.series.stride);
        e.u64(s.series.samples.len() as u64);
        for sample in &s.series.samples {
            e.sample(sample);
        }
        match &s.slo {
            None => e.u8(0),
            Some(slo) => {
                e.u8(1);
                e.u8(slo.health);
                e.u64(slo.consecutive_bad);
                e.u64(slo.consecutive_good);
                e.vec_f64(&slo.pf_window);
                e.u64(slo.alerts.len() as u64);
                for alert in &slo.alerts {
                    e.u64(alert.epoch);
                    e.u8(alert.health.as_u8());
                    e.str(&alert.rule);
                    e.f64(alert.value);
                    e.f64(alert.threshold);
                }
                e.u64(slo.alerts_dropped);
                e.u64(slo.evaluations);
                e.u64(slo.warns);
                e.u64(slo.breaches);
                e.u64(slo.recoveries);
            }
        }

        // Source state + stream position.
        match &self.source {
            SourceState::Replay { cursors } => {
                e.u8(0);
                e.u64(cursors.len() as u64);
                for &c in cursors {
                    e.u64(c as u64);
                }
            }
            SourceState::Live(live) => {
                e.u8(1);
                e.u64(live.consumed);
                e.vec_u64(&live.versions);
                e.vec_u64(&live.synced);
                e.bool(live.has_pending);
            }
        }
        e.u64(self.accesses_consumed);

        let payload = e.0;
        let mut framed = Vec::with_capacity(12 + payload.len());
        framed.extend_from_slice(&MAGIC);
        framed.extend_from_slice(&VERSION.to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }

    /// Parse a framed snapshot. Every malformed input — wrong magic,
    /// unknown version, CRC mismatch, truncation, out-of-range tags,
    /// trailing garbage — comes back as [`CoreError::InvalidConfig`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        if bytes.len() < 12 {
            return Err(corrupt("file shorter than the 12-byte header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(corrupt("bad magic (not a freshen snapshot)"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(&format!(
                "unsupported format version {version} (this build reads {VERSION})"
            )));
        }
        let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let payload = &bytes[12..];
        let actual_crc = crc32(payload);
        if stored_crc != actual_crc {
            return Err(corrupt(&format!(
                "CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }

        let mut d = Reader::new("snapshot", payload);

        let elements = d.usize()?;
        let seed = d.u64()?;
        let epochs = d.usize()?;
        let epoch_len = d.f64()?;
        let estimator = match d.u8()? {
            0 => EstimatorKind::Ewma { gain: d.f64()? },
            1 => EstimatorKind::Window { len: d.usize()? },
            2 => EstimatorKind::Lln,
            3 => EstimatorKind::Sa {
                gain: d.f64()?,
                decay: d.f64()?,
            },
            _ => return Err(corrupt("estimator tag out of range")),
        };
        let shape = SnapshotShape {
            elements,
            seed,
            epochs,
            epoch_len,
            estimator,
        };

        let last_poll = d.vec_f64()?;
        if d.u8()? != estimator_tag(shape.estimator) {
            return Err(corrupt(
                "estimator-state tag does not match the shape's estimator",
            ));
        }
        let estimator_state = match shape.estimator {
            EstimatorKind::Ewma { .. } | EstimatorKind::Sa { .. } => EstimatorState::Ewma {
                rates: d.vec_f64()?,
                seen: d.vec_u64()?,
            },
            EstimatorKind::Window { .. } => {
                let window = d.usize()?;
                let n = d.usize()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let m = d.usize()?;
                    let mut elem = Vec::with_capacity(m);
                    for _ in 0..m {
                        let interval = d.f64()?;
                        let changed = d.bool()?;
                        elem.push((interval, changed));
                    }
                    entries.push(elem);
                }
                EstimatorState::Window { window, entries }
            }
            EstimatorKind::Lln => EstimatorState::Lln {
                polls: d.vec_u64()?,
                detections: d.vec_u64()?,
                interval_sum: d.vec_f64()?,
            },
        };
        let profile_weights = d.vec_f64()?;
        let profile_scale = d.f64()?;
        ProfileEstimator::check_state(&profile_weights, profile_scale)
            .map_err(|e| corrupt(&format!("profile state: {e}")))?;
        let profile_observations = d.u64()?;
        let schedule = Solution {
            frequencies: d.vec_f64()?,
            perceived_freshness: d.f64()?,
            general_freshness: d.f64()?,
            bandwidth_used: d.f64()?,
            multiplier: d.opt_f64()?,
            cost_multiplier: d.opt_f64()?,
            iterations: d.usize()?,
        };
        let baseline_probs = d.vec_f64()?;
        let baseline_rates = d.vec_f64()?;
        let resolves = d.u64()?;
        let skips = d.u64()?;
        let repairs = d.u64()?;
        let repair_fallbacks = d.u64()?;
        let last_drift = d.opt_f64()?;
        let credit = d.vec_f64()?;
        let attempts = d.vec_u64()?;
        let history_len = d.usize()?;
        let mut history = Vec::with_capacity(history_len);
        for _ in 0..history_len {
            history.push(EpochStats {
                index: d.usize()?,
                start: d.f64()?,
                drift: d.f64()?,
                resolved: d.bool()?,
                accesses: d.u64()?,
                stale_served: d.u64()?,
                dispatched: d.u64()?,
                succeeded: d.u64()?,
                failures: d.u64()?,
                retries: d.u64()?,
                deferred: d.u64()?,
                shed: d.f64()?,
                realized_pf: d.f64()?,
            });
        }
        let series = {
            let stride = d.u64()?;
            let n = d.usize()?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(d.sample()?);
            }
            TimeSeriesState { stride, samples }
        };
        let slo = match d.u8()? {
            0 => None,
            1 => {
                let health = d.u8()?;
                if Health::from_u8(health).is_none() {
                    return Err(corrupt("SLO health byte out of range"));
                }
                let consecutive_bad = d.u64()?;
                let consecutive_good = d.u64()?;
                let pf_window = d.vec_f64()?;
                let n = d.usize()?;
                let mut alerts = Vec::with_capacity(n);
                for _ in 0..n {
                    let epoch = d.u64()?;
                    let health = Health::from_u8(d.u8()?)
                        .ok_or_else(|| corrupt("alert health byte out of range"))?;
                    alerts.push(SloAlert {
                        epoch,
                        health,
                        rule: d.str()?,
                        value: d.f64()?,
                        threshold: d.f64()?,
                    });
                }
                Some(SloState {
                    health,
                    consecutive_bad,
                    consecutive_good,
                    pf_window,
                    alerts,
                    alerts_dropped: d.u64()?,
                    evaluations: d.u64()?,
                    warns: d.u64()?,
                    breaches: d.u64()?,
                    recoveries: d.u64()?,
                })
            }
            _ => return Err(corrupt("SLO tag out of range")),
        };
        let engine = EngineState {
            last_poll,
            estimator: estimator_state,
            profile_weights,
            profile_scale,
            profile_observations,
            schedule,
            baseline_probs,
            baseline_rates,
            resolves,
            skips,
            repairs,
            repair_fallbacks,
            last_drift,
            credit,
            attempts,
            history,
            series,
            slo,
        };

        let source = match d.u8()? {
            0 => {
                let n = d.usize()?;
                let mut cursors = Vec::with_capacity(n);
                for _ in 0..n {
                    cursors.push(d.usize()?);
                }
                SourceState::Replay { cursors }
            }
            1 => SourceState::Live(LivePollState {
                consumed: d.u64()?,
                versions: d.vec_u64()?,
                synced: d.vec_u64()?,
                has_pending: d.bool()?,
            }),
            _ => return Err(corrupt("source tag out of range")),
        };
        let accesses_consumed = d.u64()?;
        d.finish()?;

        Ok(Snapshot {
            shape,
            engine,
            source,
            accesses_consumed,
        })
    }

    /// Encode and write the snapshot with [`write_atomic`].
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.encode())
    }

    /// Read and decode a snapshot file.
    pub fn read(path: &Path) -> Result<Snapshot> {
        let bytes = std::fs::read(path).map_err(|e| {
            CoreError::InvalidConfig(format!("snapshot read `{}`: {e}", path.display()))
        })?;
        Snapshot::decode(&bytes)
    }
}

/// Write `bytes` to `path` atomically and durably: write `<file name>.tmp`
/// beside it, fsync, rename it over `path`, then fsync the directory so
/// the rename itself survives a power loss. A crash at any point leaves
/// either the old file or the new one, never a torn file. The temp name
/// keeps the whole file name, so `fleet.snapshot` and `fleet.manifest`
/// in one directory never share a temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let io_err = |stage: &str, e: std::io::Error| {
        CoreError::InvalidConfig(format!("cannot {stage} `{}`: {e}", path.display()))
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("create a temp file for", e))?;
    file.write_all(bytes).map_err(|e| io_err("write", e))?;
    file.sync_all().map_err(|e| io_err("sync", e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename a temp file onto", e))?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync the directory of", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            shape: SnapshotShape {
                elements: 3,
                seed: 42,
                epochs: 8,
                epoch_len: 1.0,
                estimator: EstimatorKind::Ewma { gain: 0.1 },
            },
            engine: EngineState {
                last_poll: vec![0.5, 1.25, 0.0],
                estimator: EstimatorState::Ewma {
                    rates: vec![2.0, 0.125, 1e-9],
                    seen: vec![4, 0, 17],
                },
                profile_weights: vec![10.0, 3.5, 0.25],
                profile_scale: 1.5,
                profile_observations: 14,
                schedule: Solution {
                    frequencies: vec![1.5, 1.0, 0.5],
                    perceived_freshness: 0.875,
                    general_freshness: 0.75,
                    bandwidth_used: 3.0,
                    multiplier: Some(0.33),
                    cost_multiplier: Some(0.02),
                    iterations: 12,
                },
                baseline_probs: vec![0.6, 0.3, 0.1],
                baseline_rates: vec![2.0, 1.0, 0.5],
                resolves: 2,
                skips: 3,
                repairs: 1,
                repair_fallbacks: 1,
                last_drift: Some(0.01),
                credit: vec![0.0, 0.5, -0.0],
                attempts: vec![9, 4, 1],
                history: vec![EpochStats {
                    index: 0,
                    start: 0.0,
                    drift: 0.02,
                    resolved: true,
                    accesses: 40,
                    stale_served: 2,
                    dispatched: 6,
                    succeeded: 5,
                    failures: 1,
                    retries: 1,
                    deferred: 0,
                    shed: 0.25,
                    realized_pf: 0.8,
                }],
                series: TimeSeriesState {
                    stride: 2,
                    samples: vec![EpochSample {
                        epoch: 0,
                        realized_pf: 0.8,
                        drift: 0.02,
                        age_p50: 0.5,
                        age_p95: 0.9,
                        age_max: 1.0,
                        credit: 0.5,
                        resolves: 2,
                        skips: 3,
                        shed: 0.25,
                        dispatched: 6,
                        accesses: 40,
                        stale_served: 2,
                        health: Health::Warn.as_u8(),
                        requests: 17,
                        request_p95_us: 850.0,
                    }],
                },
                slo: Some(SloState {
                    health: Health::Warn.as_u8(),
                    consecutive_bad: 1,
                    consecutive_good: 0,
                    pf_window: vec![0.9, 0.8],
                    alerts: vec![SloAlert {
                        epoch: 0,
                        health: Health::Warn,
                        rule: "pf_floor".to_string(),
                        value: 0.8,
                        threshold: 0.85,
                    }],
                    alerts_dropped: 0,
                    evaluations: 1,
                    warns: 1,
                    breaches: 0,
                    recoveries: 0,
                }),
            },
            source: SourceState::Live(LivePollState {
                consumed: 21,
                versions: vec![7, 9, 5],
                synced: vec![7, 8, 5],
                has_pending: true,
            }),
            accesses_consumed: 40,
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One bit at a time: the definition the sliced tables must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_oracle() {
        let mut rng = freshen_core::rng::SplitMix64::new(0xC3C3);
        let buf: Vec<u8> = (0..(1 << 20) + 72).map(|_| rng.next_u64() as u8).collect();
        // Every length 0..=64 at every alignment 0..8: the eight-byte
        // steps, the byte tail, and every split between them.
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bitwise(mib));
        let encoded = sample().encode();
        assert_eq!(crc32(&encoded[12..]), crc32_bitwise(&encoded[12..]));
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);

        // Window-estimator and replay-source variant.
        let mut snap = sample();
        snap.shape.estimator = EstimatorKind::Window { len: 4 };
        snap.engine.estimator = EstimatorState::Window {
            window: 4,
            entries: vec![vec![(0.5, true), (0.25, false)], vec![], vec![(1.0, true)]],
        };
        snap.source = SourceState::Replay {
            cursors: vec![3, 0, 8],
        };
        // SLO-unarmed variant exercises the `None` tag.
        snap.engine.slo = None;
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);

        // LLN-estimator variant (full-history sufficient statistics),
        // plus the levy-free schedule (`cost_multiplier: None`).
        let mut snap = sample();
        snap.shape.estimator = EstimatorKind::Lln;
        snap.engine.estimator = EstimatorState::Lln {
            polls: vec![12, 0, 3],
            detections: vec![5, 0, 1],
            interval_sum: vec![6.5, 0.0, 1.75],
        };
        snap.engine.schedule.cost_multiplier = None;
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);

        // SA-estimator variant (gain schedule lives in the shape).
        let mut snap = sample();
        snap.shape.estimator = EstimatorKind::Sa {
            gain: 0.5,
            decay: 0.75,
        };
        snap.engine.estimator = EstimatorState::Ewma {
            rates: vec![1.5, 0.25, 1e-9],
            seen: vec![8, 0, 2],
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn an_estimator_state_that_disagrees_with_the_shape_is_rejected() {
        let mut snap = sample();
        snap.shape.estimator = EstimatorKind::Window { len: 4 };
        let mut lln = sample();
        lln.engine.estimator = EstimatorState::Lln {
            polls: vec![1, 0, 2],
            detections: vec![1, 0, 0],
            interval_sum: vec![0.5, 0.0, 1.0],
        };
        for bad in [snap, lln] {
            let err = Snapshot::decode(&bad.encode()).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig(m) if m.contains("estimator-state tag")),
                "{err}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_float_bits_exactly() {
        let mut snap = sample();
        snap.engine.last_poll = vec![f64::MIN_POSITIVE, -0.0, 1.0 + f64::EPSILON];
        let back = Snapshot::decode(&snap.encode()).unwrap();
        for (a, b) in snap.engine.last_poll.iter().zip(&back.engine.last_poll) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_corruption_is_a_clean_error() {
        let bytes = sample().encode();

        // Truncations at every boundary, including mid-header.
        for cut in [0, 3, 8, 11, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bad magic / version.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Snapshot::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(Snapshot::decode(&bad).is_err());
        // Every single-byte flip in the payload must be caught by the
        // CRC (and never panic).
        for i in 12..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(Snapshot::decode(&bad).is_err(), "flip at {i}");
        }
        // A flipped CRC byte with an intact payload is also rejected.
        let mut bad = bytes.clone();
        bad[8] ^= 0x01;
        assert!(Snapshot::decode(&bad).is_err());
        // Trailing garbage after a valid payload.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(Snapshot::decode(&bad).is_err());
    }

    #[test]
    fn decode_rejects_invalid_profile_state() {
        let bad_scales = [f64::NAN, f64::INFINITY, 0.5, 0.0, 2f64.powi(64)];
        let bad_weights = [-1.0, f64::NAN, f64::NEG_INFINITY];
        for (scale, weight) in bad_scales
            .into_iter()
            .map(|s| (s, 1.0))
            .chain(bad_weights.into_iter().map(|w| (1.0, w)))
        {
            let mut snap = sample();
            snap.engine.profile_scale = scale;
            snap.engine.profile_weights[1] = weight;
            let err = Snapshot::decode(&snap.encode()).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig(m) if m.contains("profile")),
                "scale {scale}, weight {weight}: {err}"
            );
        }
    }

    #[test]
    fn version_4_files_are_rejected() {
        let mut bytes = sample().encode();
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidConfig(m) if m.contains("unsupported format version 4")),
            "{err}"
        );
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let snap = sample();
        let config = EngineConfig {
            epochs: 8,
            seed: 42,
            ..EngineConfig::default()
        };
        assert!(snap.shape.matches(&config, 3).is_ok());
        assert!(matches!(
            snap.shape.matches(&config, 4),
            Err(CoreError::LengthMismatch { .. })
        ));
        let other_seed = EngineConfig {
            seed: 43,
            ..config.clone()
        };
        assert!(snap.shape.matches(&other_seed, 3).is_err());
        let other_estimator = EngineConfig {
            estimator: EstimatorKind::Window { len: 8 },
            ..config
        };
        assert!(snap.shape.matches(&other_estimator, 3).is_err());
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let dir = std::env::temp_dir().join("freshen-serve-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snapshot");
        let snap = sample();
        snap.write_atomic(&path).unwrap();
        // Overwrite with a second snapshot: rename must replace cleanly.
        let mut second = sample();
        second.accesses_consumed = 99;
        second.write_atomic(&path).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap(), second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_temp_name_keeps_the_whole_file_name() {
        // `fleet.snapshot` and `fleet.manifest` must not both write
        // through `fleet.tmp`: occupy that name and both writes still work.
        let dir = std::env::temp_dir().join("freshen-serve-temp-name-test");
        std::fs::create_dir_all(dir.join("fleet.tmp")).unwrap();
        for name in ["fleet.snapshot", "fleet.manifest"] {
            write_atomic(&dir.join(name), name.as_bytes()).unwrap();
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        assert!(!dir.join("fleet.snapshot.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_reports_a_missing_directory() {
        let path = std::env::temp_dir()
            .join("freshen-no-such-dir")
            .join("x.snapshot");
        let err = write_atomic(&path, b"x").unwrap_err().to_string();
        assert!(err.contains("x.snapshot"), "{err}");
    }
}
