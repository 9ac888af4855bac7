//! Zero-dependency HTTP/1.1 control plane on [`std::net::TcpListener`].
//!
//! Routing is table-driven: a [`Router`] holds `(method, pattern,
//! handler)` rows where a pattern is a `/`-separated path whose segments
//! are literals or `{param}` captures. Request paths are percent-decoded
//! before routing (so `/tenants/{id}` segments survive URL encoding), a
//! method mismatch on a known path yields `405` with an `Allow` header,
//! and an unknown path yields `404`.
//!
//! [`register_control_routes`] installs the standard single-engine route
//! set under a prefix (empty for solo serve, `/tenants/<id>` per fleet
//! tenant):
//!
//! | route              | effect                                          |
//! |--------------------|-------------------------------------------------|
//! | `GET /status`      | run progress JSON (epoch, PF, resolves, drift)  |
//! | `GET /schedule`    | the active schedule JSON                        |
//! | `GET /metrics`     | the freshen-obs metrics export; add             |
//! |                    | `?format=prometheus` for text exposition        |
//! | `GET /health`      | SLO health JSON; 200 while `Ok`/`Warn`, 503 on  |
//! |                    | `Breach` (load-balancer friendly)               |
//! | `GET /timeseries`  | windowed per-epoch telemetry JSON               |
//! |                    | (`?since=<epoch>&limit=<n>`)                    |
//! | `POST /checkpoint` | request a snapshot at the next epoch boundary   |
//!
//! `POST /shutdown` requests a graceful drain: finish the in-flight
//! round, checkpoint, exit cleanly. A drain stops the whole process, so
//! the host registers it once ([`register_shutdown_route`]):
//! [`ControlPlane::start`] for a solo server, the fleet router for a
//! fleet. Under a tenant's prefix it answers `404`.
//!
//! Request parsing is hand-rolled and deliberately minimal: read the
//! head up to `\r\n\r\n` (bounded), split the request line, ignore the
//! body. Each connection gets one deadline from accept, over its reads
//! and the response's writes, so a trickling client or a slow reader of
//! a large body holds the single accept thread for at most that long.
//! Control actions are edge-triggered flags on [`ControlShared`];
//! the serve loop polls them between epochs, so the control plane never
//! touches engine state directly and the epoch loop stays deterministic
//! regardless of request timing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use freshen_obs::{duration_us_buckets, prometheus, Recorder, TimeSeries};

use crate::service::RenderedSchedule;

/// Upper bound on a request head; anything longer is rejected with 431.
const MAX_HEAD: usize = 8 * 1024;

/// Upper bound on a declared request body; anything larger is rejected
/// with 413 before a byte of it is waited on. The control plane's
/// routes take no payloads, so this only bounds how much a misbehaving
/// client can make the accept thread read and discard.
const MAX_BODY: usize = 64 * 1024;
/// Per-connection deadline, counted from accept: the head read, the body
/// drain, the reject drain and every write of the response all stop by
/// then, so a stalled, trickling or slowly reading client cannot wedge
/// the accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest single write of a response; each one waits no later than the
/// connection's deadline.
const WRITE_CHUNK: usize = 64 * 1024;
/// How long a reject drain waits for more bytes from a quiet client.
const DRAIN_IDLE: Duration = Duration::from_millis(200);

/// State shared between the serve loop and the control plane. The loop
/// is the only writer of the JSON views and the only consumer of the
/// request flags; handlers only read views and set flags. A view is
/// replaced whole, never edited, so a read takes a reference to the
/// published body instead of a copy.
#[derive(Debug, Default)]
pub struct ControlShared {
    /// Current `/status` response body, replaced each epoch.
    pub status: Mutex<Arc<str>>,
    /// Current `/schedule` response body, re-rendered when the schedule
    /// changes.
    pub schedule: Mutex<Arc<str>>,
    /// The schedule the `/schedule` body was rendered from.
    pub(crate) rendered_schedule: Mutex<Option<RenderedSchedule>>,
    /// Current `/health` response body, replaced each epoch.
    pub health: Mutex<Arc<str>>,
    /// Mirror of the engine's telemetry ring, refreshed each epoch;
    /// `/timeseries` windows it with `since`/`limit`.
    pub series: Mutex<TimeSeries>,
    /// True while SLO health is `Breach`; flips `/health` to 503.
    pub health_breach: AtomicBool,
    /// Set by `POST /checkpoint`, cleared by the serve loop after the
    /// next epoch-boundary snapshot.
    pub checkpoint_requested: AtomicBool,
    /// Set by `POST /shutdown`; the serve loop drains and exits.
    pub shutdown_requested: AtomicBool,
}

/// One parsed request: method, percent-decoded path, raw query string.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with percent-escapes decoded, query stripped.
    pub path: String,
    /// Raw query string (no decoding: every value this plane accepts is
    /// alphanumeric).
    pub query: String,
}

impl Request {
    /// Look up `key` in the query string (`a=1&b=2`).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A handler's answer: status, content type, body, and (for 405) the
/// `Allow` header.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body, shared with the view it was read from.
    pub body: Arc<str>,
    /// `Allow` header for 405 responses.
    pub allow: Option<String>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Arc<str>>) -> Response {
        Response {
            status,
            content_type: JSON,
            body: body.into(),
            allow: None,
        }
    }

    /// A response with an explicit content type (Prometheus exposition).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<Arc<str>>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            allow: None,
        }
    }
}

/// Captured `{param}` segments from a matched route pattern.
#[derive(Debug, Default)]
pub struct RouteParams(Vec<(String, String)>);

impl RouteParams {
    /// The captured value for `{name}`, if the pattern had one.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

enum Segment {
    Literal(String),
    Param(String),
}

type Handler = Box<dyn Fn(&Request, &RouteParams) -> Response + Send + Sync>;

struct Route {
    method: &'static str,
    pattern: Vec<Segment>,
    handler: Handler,
}

/// Method-and-pattern route table. Dispatch walks rows in registration
/// order; the first row whose pattern and method both match wins.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .finish()
    }
}

fn path_segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

impl Router {
    /// An empty route table.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register a handler for `method` on `pattern`. Pattern segments of
    /// the form `{name}` capture the matching path segment into
    /// [`RouteParams`]; everything else matches literally.
    pub fn route(
        &mut self,
        method: &'static str,
        pattern: &str,
        handler: impl Fn(&Request, &RouteParams) -> Response + Send + Sync + 'static,
    ) {
        let pattern = path_segments(pattern)
            .into_iter()
            .map(
                |seg| match seg.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    Some(name) => Segment::Param(name.to_string()),
                    None => Segment::Literal(seg.to_string()),
                },
            )
            .collect();
        self.routes.push(Route {
            method,
            pattern,
            handler: Box::new(handler),
        });
    }

    fn matches(route: &Route, segments: &[&str]) -> Option<RouteParams> {
        if route.pattern.len() != segments.len() {
            return None;
        }
        let mut params = RouteParams::default();
        for (pat, seg) in route.pattern.iter().zip(segments) {
            match pat {
                Segment::Literal(lit) if lit == seg => {}
                Segment::Literal(_) => return None,
                Segment::Param(name) => params.0.push((name.clone(), (*seg).to_string())),
            }
        }
        Some(params)
    }

    /// Route a request: the matching handler's response, a 405 carrying
    /// `Allow` when the path is known but the method is not, or a 404.
    pub fn dispatch(&self, request: &Request) -> Response {
        let segments = path_segments(&request.path);
        let mut allowed: Vec<&'static str> = Vec::new();
        for route in &self.routes {
            let Some(params) = Router::matches(route, &segments) else {
                continue;
            };
            if route.method == request.method {
                return (route.handler)(request, &params);
            }
            if !allowed.contains(&route.method) {
                allowed.push(route.method);
            }
        }
        if allowed.is_empty() {
            return Response::json(404, "{\"error\":\"no such route\"}");
        }
        allowed.sort_unstable();
        let mut response = Response::json(405, "{\"error\":\"method not allowed\"}");
        response.allow = Some(allowed.join(", "));
        response
    }
}

/// Register the standard single-engine control routes under `prefix`
/// (empty for solo serve, `/tenants/<id>` per fleet tenant): the
/// [`register_status_routes`] plus `GET /schedule`, `/metrics` and
/// `/timeseries`, reading views on `shared` and exporting metrics from
/// `recorder`.
pub fn register_control_routes(
    router: &mut Router,
    prefix: &str,
    shared: Arc<ControlShared>,
    recorder: Recorder,
) {
    let at = |route: &str| format!("{prefix}{route}");
    {
        let shared = Arc::clone(&shared);
        router.route("GET", &at("/schedule"), move |_, _| {
            Response::json(200, view(&shared.schedule))
        });
    }
    router.route("GET", &at("/metrics"), move |req, _| {
        metrics_response(req, &recorder)
    });
    {
        let shared = Arc::clone(&shared);
        router.route("GET", &at("/timeseries"), move |req, _| {
            timeseries_response(req, &shared)
        });
    }
    register_status_routes(router, prefix, shared);
}

/// Register `GET /status`, `GET /health` and `POST /checkpoint` under
/// `prefix` over `shared`: the routes a fleet serves for itself as well
/// as per tenant.
pub fn register_status_routes(router: &mut Router, prefix: &str, shared: Arc<ControlShared>) {
    let at = |route: &str| format!("{prefix}{route}");
    {
        let shared = Arc::clone(&shared);
        router.route("GET", &at("/status"), move |_, _| {
            Response::json(200, view(&shared.status))
        });
    }
    {
        let shared = Arc::clone(&shared);
        router.route("GET", &at("/health"), move |_, _| health_response(&shared));
    }
    router.route("POST", &at("/checkpoint"), move |_, _| {
        shared.checkpoint_requested.store(true, Ordering::SeqCst);
        Response::json(200, "{\"ok\": true, \"action\": \"checkpoint\"}")
    });
}

/// The published body of a view: a reference-count bump, not a copy.
fn view(body: &Mutex<Arc<str>>) -> Arc<str> {
    body.lock().map(|s| Arc::clone(&s)).unwrap_or_default()
}

/// Register `POST /shutdown`, which drains the whole process. The host
/// registers it once: [`ControlPlane::start`] for a solo server, the
/// fleet router for a fleet.
pub fn register_shutdown_route(router: &mut Router, shared: Arc<ControlShared>) {
    router.route("POST", "/shutdown", move |_, _| {
        shared.shutdown_requested.store(true, Ordering::SeqCst);
        Response::json(200, "{\"ok\": true, \"action\": \"shutdown\"}")
    });
}

/// `GET .../metrics` body for a recorder, honoring `?format=`.
pub fn metrics_response(request: &Request, recorder: &Recorder) -> Response {
    match request.query_param("format") {
        None | Some("json") => {
            let body = recorder
                .metrics_json()
                .unwrap_or_else(|| "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}".into());
            Response::json(200, body)
        }
        Some("prometheus") => Response::text(
            200,
            prometheus::CONTENT_TYPE,
            recorder.metrics_prometheus().unwrap_or_default(),
        ),
        Some(_) => Response::json(
            404,
            "{\"error\":\"unknown format (want json or prometheus)\"}",
        ),
    }
}

/// `GET .../health` body for a shared view: 503 while breached.
pub fn health_response(shared: &ControlShared) -> Response {
    let body = view(&shared.health);
    let body = if body.is_empty() {
        "{\"state\": \"ok\"}\n".into()
    } else {
        body
    };
    let status = if shared.health_breach.load(Ordering::SeqCst) {
        503
    } else {
        200
    };
    Response::json(status, body)
}

/// `GET .../timeseries` body for a shared view, honoring `since`/`limit`.
pub fn timeseries_response(request: &Request, shared: &ControlShared) -> Response {
    let since = request
        .query_param("since")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let limit = request
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    let body = shared
        .series
        .lock()
        .map(|s| s.to_json(since, limit))
        .unwrap_or_default();
    Response::json(200, body)
}

/// Decode `%XX` escapes. Returns `None` on a malformed escape or if the
/// decoded bytes are not UTF-8; `+` is left alone (it is only a space in
/// form bodies, not paths).
pub fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = |b: Option<&u8>| b.and_then(|b| (*b as char).to_digit(16));
            let hi = hex(bytes.get(i + 1))?;
            let lo = hex(bytes.get(i + 2))?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The running control plane: a bound listener plus its accept thread.
pub struct ControlPlane {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// Start the standard single-engine plane on an already-bound
    /// listener: [`register_control_routes`] with an empty prefix, plus
    /// [`register_shutdown_route`].
    pub fn start(
        listener: TcpListener,
        shared: Arc<ControlShared>,
        recorder: Recorder,
    ) -> std::io::Result<ControlPlane> {
        let mut router = Router::new();
        register_control_routes(&mut router, "", Arc::clone(&shared), recorder.clone());
        register_shutdown_route(&mut router, shared);
        ControlPlane::start_router(listener, router, recorder)
    }

    /// Start serving an arbitrary route table. The recorder gains a
    /// `serve.requests` counter and a `serve.request_latency_us`
    /// histogram.
    pub fn start_router(
        listener: TcpListener,
        router: Router,
        recorder: Recorder,
    ) -> std::io::Result<ControlPlane> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("freshen-serve-http".into())
            .spawn(move || accept_loop(&listener, &thread_stop, &router, &recorder))?;
        Ok(ControlPlane {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Safe to call while
    /// requests are in flight: the loop finishes the current connection,
    /// then exits.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (otherwise blocking) accept call.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, router: &Router, recorder: &Recorder) {
    let requests = recorder.counter("serve.requests");
    let latency = recorder.histogram("serve.request_latency_us", &duration_us_buckets());
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let started = Instant::now();
        requests.inc();
        let _ = handle(&mut stream, router, started + IO_TIMEOUT);
        latency.observe(started.elapsed().as_secs_f64() * 1e6);
    }
}

/// Read the request head (bounded), parse the request line, and answer;
/// every read gives up at `deadline`.
fn handle(stream: &mut TcpStream, router: &Router, deadline: Instant) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    let complete = loop {
        if head.len() >= MAX_HEAD {
            break false;
        }
        match read_by(stream, &mut buf, deadline) {
            Ok(0) => break head.windows(4).any(|w| w == b"\r\n\r\n"),
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break true;
                }
            }
            Err(_) => break false,
        }
    };
    if !complete {
        return reject_and_drain(
            stream,
            &Response::json(431, "{\"error\":\"request head too large or torn\"}"),
            deadline,
        );
    }
    // Bytes past the head terminator are the start of the body; the
    // routes take no payloads, but the body still has to be bounded
    // (413) and consumed, or the close degenerates into a TCP RST.
    let term = head
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head has a terminator")
        + 4;
    let body_prefix = head.len() - term;
    let head = String::from_utf8_lossy(&head[..term]);
    let content_length = match parse_content_length(&head) {
        Ok(len) => len,
        Err(()) => {
            return reject_and_drain(
                stream,
                &Response::json(400, "{\"error\":\"malformed Content-Length\"}"),
                deadline,
            );
        }
    };
    if content_length > MAX_BODY {
        return reject_and_drain(
            stream,
            &Response::json(413, "{\"error\":\"request body too large\"}"),
            deadline,
        );
    }
    // Discard the in-bounds body so the connection closes cleanly.
    let mut remaining = content_length.saturating_sub(body_prefix);
    let mut scratch = [0u8; 512];
    while remaining > 0 {
        let chunk = remaining.min(scratch.len());
        match read_by(stream, &mut scratch[..chunk], deadline) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining -= n,
        }
    }
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let target = request_line.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let response = match percent_decode(path) {
        Some(path) => router.dispatch(&Request {
            method: method.to_string(),
            path,
            query: query.to_string(),
        }),
        None => Response::json(400, "{\"error\":\"bad percent-escape in path\"}"),
    };
    write_response(stream, &response, deadline)
}

/// Answer with a rejection, then drain whatever the client already sent
/// before closing: a close with unread bytes in the receive buffer turns
/// into a TCP RST, which would destroy the rejection response in flight.
/// The drain stops once the client is quiet for [`DRAIN_IDLE`], or at
/// `deadline`.
fn reject_and_drain(
    stream: &mut TcpStream,
    response: &Response,
    deadline: Instant,
) -> std::io::Result<()> {
    let result = write_response(stream, response, deadline);
    let mut scratch = [0u8; 512];
    let idle = || deadline.min(Instant::now() + DRAIN_IDLE);
    while matches!(read_by(stream, &mut scratch, idle()), Ok(n) if n > 0) {}
    result
}

/// One read that waits no later than `deadline`, and fails with
/// `TimedOut` once it has passed.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Write all of `bytes` in chunks, each waiting no later than `deadline`;
/// fails with `TimedOut` once it has passed. A per-write timeout alone
/// would restart with every chunk a slow reader accepts.
fn write_by(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> std::io::Result<()> {
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(&bytes[..bytes.len().min(WRITE_CHUNK)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Extract `Content-Length` (case-insensitive) from a request head.
/// Absent means 0; an unparsable or duplicated-and-conflicting value is
/// an error (request smuggling guard).
fn parse_content_length(head: &str) -> std::result::Result<usize, ()> {
    let mut found: Option<usize> = None;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let parsed: usize = value.trim().parse().map_err(|_| ())?;
        match found {
            Some(prev) if prev != parsed => return Err(()),
            _ => found = Some(parsed),
        }
    }
    Ok(found.unwrap_or(0))
}

const JSON: &str = "application/json";

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    deadline: Instant,
) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    if let Some(allow) = &response.allow {
        head.push_str("Allow: ");
        head.push_str(allow);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    write_by(stream, head.as_bytes(), deadline)?;
    write_by(stream, response.body.as_bytes(), deadline)?;
    stream.flush()
}

/// Minimal blocking HTTP client for tests and the bench probe: send one
/// request, return `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let (status, _headers, body) = request_full(addr, method, path)?;
    Ok((status, body))
}

/// Like [`request`], but also returns the raw header block (everything
/// between the status line and the blank line).
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "torn status line"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response.clone(), String::new()));
    let headers = head
        .split_once("\r\n")
        .map(|(_, rest)| rest.to_string())
        .unwrap_or_default();
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_test_plane() -> (ControlPlane, Arc<ControlShared>, Recorder) {
        let shared = Arc::new(ControlShared::default());
        *shared.status.lock().unwrap() = "{\"epoch\": 3}".into();
        *shared.schedule.lock().unwrap() = "{\"frequencies\": [1.0]}".into();
        let recorder = Recorder::enabled();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let plane = ControlPlane::start(listener, Arc::clone(&shared), recorder.clone()).unwrap();
        (plane, shared, recorder)
    }

    #[test]
    fn reading_a_view_shares_the_published_body() {
        let shared = Arc::new(ControlShared::default());
        let mut router = Router::new();
        register_control_routes(&mut router, "", Arc::clone(&shared), Recorder::disabled());
        for (path, view) in [
            ("/status", &shared.status),
            ("/schedule", &shared.schedule),
            ("/health", &shared.health),
        ] {
            *view.lock().unwrap() = format!("{{\"view\": \"{path}\"}}").into();
            let response = router.dispatch(&Request {
                method: "GET".into(),
                path: path.into(),
                query: String::new(),
            });
            assert_eq!(response.status, 200, "{path}");
            assert!(
                Arc::ptr_eq(&response.body, &view.lock().unwrap()),
                "{path} copied its view"
            );
        }
    }

    #[test]
    fn routes_respond_and_flags_latch() {
        let (plane, shared, recorder) = start_test_plane();
        let addr = plane.local_addr();

        let (status, body) = request(addr, "GET", "/status").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"epoch\": 3}");

        let (status, body) = request(addr, "GET", "/schedule").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("frequencies"));

        let (status, body) = request(addr, "GET", "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("serve.requests"), "{body}");

        assert!(!shared.checkpoint_requested.load(Ordering::SeqCst));
        let (status, _) = request(addr, "POST", "/checkpoint").unwrap();
        assert_eq!(status, 200);
        assert!(shared.checkpoint_requested.load(Ordering::SeqCst));

        let (status, _) = request(addr, "POST", "/shutdown").unwrap();
        assert_eq!(status, 200);
        assert!(shared.shutdown_requested.load(Ordering::SeqCst));

        let (status, _) = request(addr, "GET", "/nope").unwrap();
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/shutdown").unwrap();
        assert_eq!(status, 405, "control actions are POST-only");

        plane.stop();
        assert!(recorder.counter_value("serve.requests").unwrap() >= 7);
    }

    #[test]
    fn method_mismatch_carries_an_allow_header() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        let (status, headers, _) = request_full(addr, "GET", "/shutdown").unwrap();
        assert_eq!(status, 405);
        assert!(headers.contains("Allow: POST"), "{headers}");
        let (status, headers, _) = request_full(addr, "DELETE", "/status").unwrap();
        assert_eq!(status, 405);
        assert!(headers.contains("Allow: GET"), "{headers}");
        plane.stop();
    }

    #[test]
    fn paths_are_percent_decoded_before_routing() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        let (status, body) = request(addr, "GET", "/%73tatus").unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "{\"epoch\": 3}");
        let (status, _) = request(addr, "GET", "/%zztatus").unwrap();
        assert_eq!(status, 400, "malformed escape is a client error");
        let (status, _) = request(addr, "GET", "/%fftatus").unwrap();
        assert_eq!(status, 400, "non-UTF-8 decode is a client error");
        plane.stop();
    }

    #[test]
    fn percent_decode_handles_escapes_and_rejects_garbage() {
        assert_eq!(percent_decode("/plain").as_deref(), Some("/plain"));
        assert_eq!(percent_decode("/a%20b").as_deref(), Some("/a b"));
        assert_eq!(
            percent_decode("%74%65%6Eant-1").as_deref(),
            Some("tenant-1")
        );
        assert_eq!(percent_decode("a+b").as_deref(), Some("a+b"));
        assert_eq!(percent_decode("%"), None);
        assert_eq!(percent_decode("%1"), None);
        assert_eq!(percent_decode("%gg"), None);
        assert_eq!(percent_decode("%ff"), None, "lone 0xff is not UTF-8");
    }

    #[test]
    fn router_captures_params_and_collects_allowed_methods() {
        let mut router = Router::new();
        router.route("GET", "/tenants/{id}/status", |_, params| {
            Response::json(
                200,
                format!("{{\"id\": \"{}\"}}", params.get("id").unwrap()),
            )
        });
        router.route("POST", "/tenants/{id}/checkpoint", |_, _| {
            Response::json(200, "{}")
        });
        router.route("POST", "/tenants/{id}/status", |_, _| {
            Response::json(200, "{}")
        });
        let req = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
        };
        let ok = router.dispatch(&req("GET", "/tenants/acme-1/status"));
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("acme-1"), "{}", ok.body);
        let miss = router.dispatch(&req("GET", "/tenants/acme-1/nope"));
        assert_eq!(miss.status, 404);
        let wrong = router.dispatch(&req("DELETE", "/tenants/acme-1/status"));
        assert_eq!(wrong.status, 405);
        assert_eq!(wrong.allow.as_deref(), Some("GET, POST"));
    }

    #[test]
    fn health_route_tracks_the_breach_flag() {
        let (plane, shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();

        // No health body published yet: a bare 200 "ok".
        let (status, body) = request(addr, "GET", "/health").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");

        *shared.health.lock().unwrap() = "{\"state\": \"breach\"}\n".into();
        shared.health_breach.store(true, Ordering::SeqCst);
        let (status, body) = request(addr, "GET", "/health").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"breach\""), "{body}");

        shared.health_breach.store(false, Ordering::SeqCst);
        let (status, _) = request(addr, "GET", "/health").unwrap();
        assert_eq!(status, 200);
        plane.stop();
    }

    #[test]
    fn metrics_format_and_timeseries_windowing() {
        use freshen_obs::EpochSample;
        let (plane, shared, recorder) = start_test_plane();
        let addr = plane.local_addr();
        recorder.counter("probe_total").add(3);
        {
            let mut series = shared.series.lock().unwrap();
            for epoch in 0..6 {
                series.push(EpochSample {
                    epoch,
                    realized_pf: 0.9,
                    ..EpochSample::default()
                });
            }
        }

        let (status, body) = request(addr, "GET", "/metrics?format=prometheus").unwrap();
        assert_eq!(status, 200);
        prometheus::validate_exposition(&body).unwrap();
        assert!(body.contains("probe_total 3"), "{body}");

        let (status, body) = request(addr, "GET", "/metrics?format=csv").unwrap();
        assert_eq!(status, 404, "unknown format rejected: {body}");

        let (status, body) = request(addr, "GET", "/timeseries?since=4&limit=10").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"epoch\": 4"), "{body}");
        assert!(body.contains("\"epoch\": 5"), "{body}");
        assert!(!body.contains("\"epoch\": 3"), "{body}");

        let (status, body) = request(addr, "GET", "/timeseries?limit=1").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("\"epoch\": 5") && !body.contains("\"epoch\": 4"),
            "{body}"
        );
        plane.stop();
    }

    #[test]
    fn oversized_heads_are_rejected_not_hung() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let huge = format!(
            "GET /status HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD)
        );
        stream.write_all(huge.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        plane.stop();
    }

    #[test]
    fn oversized_body_is_rejected_with_413_before_transfer() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Declare a body far over the cap but send none of it: the 413
        // must arrive without the server waiting for the payload.
        let head = format!(
            "POST /shutdown HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        plane.stop();
    }

    #[test]
    fn malformed_content_length_is_a_400() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        for bad in [
            "Content-Length: banana",
            "Content-Length: -5",
            "Content-Length: 3\r\nContent-Length: 7",
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let head = format!("GET /status HTTP/1.1\r\n{bad}\r\n\r\n");
            stream.write_all(head.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 400"), "{bad}: {response}");
        }
        plane.stop();
    }

    #[test]
    fn in_bounds_body_is_drained_and_request_served() {
        let (plane, _shared, _recorder) = start_test_plane();
        let addr = plane.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let body = "x".repeat(2048);
        let message = format!(
            "GET /status HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(message.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        plane.stop();
    }

    #[test]
    fn a_trickling_client_holds_the_accept_thread_no_longer_than_one_deadline() {
        let (plane, _shared, recorder) = start_test_plane();
        let addr = plane.local_addr();
        let accepted = || recorder.counter_value("serve.requests").unwrap_or(0);
        // One byte every 250 ms: each read succeeds well inside a read
        // timeout, and the head never completes. Returns once the accept
        // thread has taken the connection.
        let trickle = || {
            let before = accepted();
            let mut stream = TcpStream::connect(addr).unwrap();
            let client = std::thread::spawn(move || {
                let head = b"GET /status HTTP/1.1\r\nX-Slow: ".iter();
                for &byte in head.chain(std::iter::repeat(&b'a')).take(60) {
                    if stream.write_all(&[byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            });
            while accepted() == before {
                std::thread::yield_now();
            }
            client
        };

        let first = trickle();
        let started = Instant::now();
        while !matches!(request(addr, "GET", "/health"), Ok((200, _))) {
            assert!(
                started.elapsed() < Duration::from_secs(6),
                "/health is stuck behind a trickling client"
            );
        }

        let second = trickle();
        let started = Instant::now();
        plane.stop();
        let waited = started.elapsed();
        assert!(
            waited < IO_TIMEOUT + Duration::from_secs(1),
            "stop() waited {waited:?}"
        );
        first.join().unwrap();
        second.join().unwrap();
    }

    #[test]
    fn a_slow_reader_of_a_large_body_holds_the_accept_thread_no_longer_than_one_deadline() {
        const BODY: usize = 32 << 20;
        let (plane, shared, recorder) = start_test_plane();
        *shared.schedule.lock().unwrap() = "x".repeat(BODY).into();
        let addr = plane.local_addr();
        let accepted = || recorder.counter_value("serve.requests").unwrap_or(0);
        // Asks for the large body, then reads 64 KiB every 300 ms: every
        // write makes progress well inside a per-write timeout. Once
        // `hurry` is set it reads the rest at full speed, so it returns
        // what the server wrote before closing. Returns once the accept
        // thread has taken the connection.
        let hurry = Arc::new(AtomicBool::new(false));
        let slow_reader = || {
            let before = accepted();
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET /schedule HTTP/1.1\r\n\r\n").unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let hurry = Arc::clone(&hurry);
            let client = std::thread::spawn(move || {
                let mut buf = vec![0u8; 64 * 1024];
                let (mut received, started) = (0, Instant::now());
                while let Ok(n @ 1..) = stream.read(&mut buf) {
                    received += n;
                    if !hurry.load(Ordering::SeqCst) {
                        if started.elapsed() > Duration::from_secs(30) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(300));
                    }
                }
                received
            });
            while accepted() == before {
                std::thread::yield_now();
            }
            client
        };
        let bound = IO_TIMEOUT + Duration::from_secs(1);

        let first = slow_reader();
        let started = Instant::now();
        while !matches!(request(addr, "GET", "/health"), Ok((200, _))) {
            assert!(
                started.elapsed() < bound,
                "/health is stuck behind a slow reader"
            );
        }
        assert!(
            started.elapsed() < bound,
            "/health took {:?}",
            started.elapsed()
        );

        let second = slow_reader();
        let started = Instant::now();
        plane.stop();
        let waited = started.elapsed();
        hurry.store(true, Ordering::SeqCst);
        assert!(waited < bound, "stop() waited {waited:?}");
        for reader in [first, second] {
            let received = reader.join().unwrap();
            assert!(received < BODY, "the reader got {received} of {BODY} bytes");
        }
    }

    #[test]
    fn stop_joins_cleanly_with_no_traffic() {
        let (plane, _shared, _recorder) = start_test_plane();
        plane.stop();
    }
}
