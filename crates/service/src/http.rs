//! The HTTP/JSON facade over [`Service`] — same cache, worker pool,
//! and coalescing map as the TCP wire frontend, reachable by browsers,
//! `curl`, and standard load-testing tools.
//!
//! Like [`crate::wire`], the protocol layer is hand-rolled (the build
//! environment is offline): a deliberately small HTTP/1.1 subset —
//! request line + headers + `Content-Length` bodies, keep-alive,
//! `Expect: 100-continue` — with every request and response body in
//! JSON via [`dsa_runtime::json`].
//!
//! # Routes
//!
//! | Method & path                  | Body              | Response                     |
//! |--------------------------------|-------------------|------------------------------|
//! | `POST /v1/jobs`                | job spec (JSON)   | job result (JSON)            |
//! | `PUT /v1/graphs/{id}`          | graph spec (JSON) | created graph (201/200)      |
//! | `PATCH /v1/graphs/{id}`        | edge deltas (JSON)| applied patch + classes      |
//! | `GET /v1/graphs/{id}`          | —                 | metadata + maintenance stats |
//! | `GET /v1/graphs/{id}/spanner`  | —                 | the maintained spanner       |
//! | `DELETE /v1/graphs/{id}`       | —                 | `{"id":...,"deleted":true}`  |
//! | `GET /v1/metrics`              | —                 | coherent counters + p50/p95  |
//! | `GET /healthz`                 | —                 | `{"status":"ok"}`            |
//!
//! The graph routes are the resource-oriented face of
//! [`crate::graphs`]: a `PUT` body is a job spec without `timeout_ms`
//! (and single-shard), a `PATCH` body is
//! `{"insert": [[u, v], [u, v, w], [u, v, "server"]], "delete": [[u, v]]}`
//! (inserts apply before deletes, each list in order), and
//! `GET .../spanner` returns the maintained spanner as `[u, v]`
//! endpoint pairs — byte-deterministic for a given create + delta
//! history, equal to a from-scratch solve of the live edge set.
//!
//! `GET /v1/metrics` additionally accepts `?format=prometheus`, which
//! returns the same snapshot in the Prometheus text exposition format
//! (version 0.0.4, `Content-Type: text/plain`) with a fixed metric and
//! label order — see [`crate::metrics::MetricsSnapshot::to_prometheus`].
//! `?format=json` (and no query at all) select the JSON body; any
//! other `format` value is a 400.
//!
//! # Job spec schema (`POST /v1/jobs`)
//!
//! ```json
//! {
//!   "variant": "weighted",
//!   "seed": 42,
//!   "graph": {"n": 4, "edges": [[0, 1, 3], [1, 2, 5], [2, 3, 1]]},
//!   "clients": [0, 2],          // client-server only: edge ids
//!   "servers": [1],             // client-server only: edge ids
//!   "accept_denominator": 8,    // optional, default 8
//!   "monotone": true,           // optional, default true
//!   "round_densities": true,    // optional, default true
//!   "max_iterations": 1000000,  // optional
//!   "shards": 4,                // optional, default 1; 0 = one per core;
//!                               // capped at 65536 at decode time
//!   "timeout_ms": 2000          // optional
//! }
//! ```
//!
//! Edges are `[u, v]` pairs (`[u, v, w]` with a weight for the
//! `weighted` variant); the graph is normalized exactly as the wire
//! protocol's text edge lists are (self-loops dropped, duplicate edges
//! keep their first occurrence — the same
//! [`dsa_graphs::canon::KeyBuilder`] runs under both), so a JSON
//! submission and a wire submission of the same edge set map to the
//! same canonical job and share one cache entry. Unknown keys are rejected, mirroring the wire decoder's
//! unknown-header errors.
//!
//! # Job result schema
//!
//! ```json
//! {
//!   "key": "1f2e3d4c5b6a7988",
//!   "variant": "weighted",
//!   "converged": true,
//!   "iterations": 12,
//!   "local_rounds": 84,
//!   "star_fallbacks": 0,
//!   "spanner_size": 3,
//!   "spanner": [0, 4, 7]
//! }
//! ```
//!
//! The `key` is the canonical 64-bit job/cache key in hex (a string,
//! so 53-bit JSON consumers keep it exact); `spanner` lists edge ids
//! in the *submitted* graph's id space, ascending. A result carries no
//! serving incidentals (no timing, no cached/coalesced flag), so
//! repeated submissions of one spec return **byte-identical** bodies
//! whether computed cold, coalesced, or served from cache.
//!
//! # Status codes
//!
//! The status/code table lives in [`STATUS_TABLE`] — one source of
//! truth rendered into the README by [`status_table_markdown`] and
//! into every error body's `code` field. A 429 carries a
//! `Retry-After` header (integer seconds, rounded up from the
//! service's millisecond hint) derived from the observed p95 engine
//! latency and the queue backlog; [`HttpClient::run_with_retry`]
//! honors it.
//!
//! Every error response body is
//! `{"error": "<message>", "code": "<slug>"}` — `error` is
//! human-readable prose that may change between releases, `code` is a
//! stable machine-readable slug (mirroring the [`JobError`] variants
//! for job routes). Clients written against the pre-`code` bodies
//! keep working: the `error` field is unchanged. Errors that
//! leave the byte stream well-defined (routing, JSON, validation) keep
//! the connection open; errors that desynchronize it (oversized or
//! truncated requests) close it. A request whose bytes stall mid-flight
//! longer than the read budget ([`ServiceConfig::read_budget`]) also
//! closes the connection (slow-loris defense, counted in
//! `connections_timed_out`).

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::canon::KeyBuilder;
use dsa_graphs::{io as gio, EdgeSet, Graph};
use dsa_runtime::json::{Json, JsonError, Reader};

use crate::graphs::{
    DeltaOp, EdgeRole, GraphCreated, GraphError, GraphMeta, GraphPatched, GraphSpannerResult,
    GraphSpec,
};
use crate::job::{CanonicalJob, JobError, JobResponse, JobSpec};
use crate::net::{ListenerHandle, ShutdownReader, IDLE_POLL};
use crate::retry::RetryPolicy;
use crate::service::{Service, ServiceConfig};
use crate::wire::{narrow_usize, MIN_VERTEX_ALLOWANCE};

/// Upper bound on a request body (matches [`crate::wire::MAX_FRAME`]):
/// a million-edge graph as JSON fits, while a hostile `Content-Length`
/// cannot trigger an absurd allocation.
pub const MAX_BODY: usize = 64 << 20;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 32 << 10;

/// A running HTTP frontend. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop and joins the
/// connection threads.
pub struct HttpServer {
    listener: ListenerHandle,
    service: Arc<Service>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves a fresh
    /// [`Service`] built from `cfg`.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: &ServiceConfig) -> std::io::Result<HttpServer> {
        HttpServer::with_service(addr, Arc::new(Service::new(cfg)))
    }

    /// Like [`HttpServer::start`], over an existing service — the way
    /// `spanner-serve` runs it, so HTTP and TCP clients share one
    /// cache, worker pool, and coalescing map.
    pub fn with_service<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
    ) -> std::io::Result<HttpServer> {
        let listener = {
            let service = Arc::clone(&service);
            ListenerHandle::start(
                addr,
                "spanner-http-accept",
                "spanner-http-conn",
                move |stream, stop| serve_http_connection(stream, &service, stop),
            )?
        };
        Ok(HttpServer { listener, service })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The shared service behind this frontend.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, waits for live connections to finish their
    /// current request, and joins the accept loop.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

/// One parsed request head.
struct Head {
    method: String,
    path: String,
    /// Raw query string (without the `?`), empty when absent.
    query: String,
    keep_alive: bool,
    content_length: usize,
    expect_continue: bool,
}

/// What became of an attempt to read one request.
enum ReadOutcome {
    /// A complete request (head + body).
    Request(Head, Vec<u8>),
    /// Clean EOF, shutdown, or a truncated request: close silently.
    Close,
    /// Protocol-level rejection: respond with this status and close.
    Reject(u16, String),
}

fn serve_http_connection(stream: TcpStream, service: &Arc<Service>, stop: &AtomicBool) {
    // Same idle-poll pattern as the wire frontend: a read timeout
    // turns a blocked read into a periodic shutdown-flag check, and
    // `ShutdownReader` retries so in-flight requests are unaffected —
    // while a per-request deadline armed by the first byte defends
    // against slow-loris reads.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = ShutdownReader::new(&stream, stop, service.read_budget());
    let mut writer = &stream;
    let mut pending: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut pending, &mut reader, &stream) {
            ReadOutcome::Close => {
                if reader.timed_out() {
                    service.on_connection_timed_out();
                }
                break;
            }
            ReadOutcome::Reject(status, message) => {
                // The byte stream is no longer trustworthy after a
                // rejected head: answer and close.
                let _ = write_response(
                    &mut writer,
                    status,
                    None,
                    None,
                    CT_JSON,
                    &error_body(reject_code(status), &message),
                    false,
                );
                break;
            }
            ReadOutcome::Request(head, body) => {
                reader.finish_message();
                let (status, allow, retry_after_ms, content_type, resp_body) =
                    route(&head.method, &head.path, &head.query, &body, service);
                // Once shutdown is requested, this reply is the
                // connection's last: a client that keeps sending never
                // lets a read block, so the reader alone would serve it
                // for as long as it sends.
                let keep_alive = head.keep_alive && !stop.load(Ordering::SeqCst);
                // Chaos hook: the connection drops mid-response — head
                // promising a full body, only half of it written. A
                // retrying client reconnects and resubmits.
                if service.fault().fire("conn.drop") {
                    use std::io::Write;
                    let head_text = format!(
                        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                        status_reason(status),
                        resp_body.len(),
                    );
                    let _ = writer.write_all(head_text.as_bytes());
                    let _ = writer.write_all(&resp_body.as_bytes()[..resp_body.len() / 2]);
                    let _ = writer.flush();
                    break;
                }
                if write_response(
                    &mut writer,
                    status,
                    allow,
                    retry_after_ms,
                    content_type,
                    &resp_body,
                    keep_alive,
                )
                .is_err()
                {
                    break;
                }
                if !keep_alive {
                    break;
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads one full request (head + body) from `pending` + `reader`.
/// `stream` is borrowed only to emit `100 Continue` interim responses.
fn read_request(
    pending: &mut Vec<u8>,
    reader: &mut ShutdownReader<'_>,
    mut stream: &TcpStream,
) -> ReadOutcome {
    use std::io::{Read, Write};
    // 1. Accumulate bytes until the head terminator (CRLFCRLF, or
    //    bare LFLF from lenient clients) is in the buffer.
    let (head_len, term_len) = loop {
        if let Some(found) = head_end(pending) {
            break found;
        }
        if pending.len() > MAX_HEAD {
            return ReadOutcome::Reject(431, "request head too large".into());
        }
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            // EOF with a partial head is a truncated request; EOF on
            // an empty buffer is a clean close. Either way: close.
            Ok(0) => return ReadOutcome::Close,
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(_) => return ReadOutcome::Close,
        }
    };
    let head_bytes: Vec<u8> = pending.drain(..head_len + term_len).collect();
    let head = match parse_head(&head_bytes[..head_len]) {
        Ok(head) => head,
        Err(reject) => return reject,
    };
    if head.content_length > MAX_BODY {
        return ReadOutcome::Reject(
            413,
            format!(
                "body of {} bytes exceeds limit {MAX_BODY}",
                head.content_length
            ),
        );
    }
    // 2. `curl` sends bodies above ~1 KiB only after the server
    //    acknowledges the Expect header.
    if head.expect_continue && head.content_length > 0 {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = stream.flush();
    }
    // 3. Read the body (some of it may already be buffered).
    while pending.len() < head.content_length {
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Close, // truncated body
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(_) => return ReadOutcome::Close,
        }
    }
    let body: Vec<u8> = pending.drain(..head.content_length).collect();
    ReadOutcome::Request(head, body)
}

/// Finds the end of the request head: returns (head length, terminator
/// length). Accepts `\r\n\r\n` and the bare-`\n\n` form.
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

fn parse_head(bytes: &[u8]) -> Result<Head, ReadOutcome> {
    let reject = |status: u16, msg: &str| Err(ReadOutcome::Reject(status, msg.to_string()));
    let Ok(text) = std::str::from_utf8(bytes) else {
        return reject(400, "request head is not UTF-8");
    };
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return reject(400, "malformed request line");
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return reject(505, "only HTTP/1.0 and HTTP/1.1 are supported"),
    };
    // Routes are matched on the path alone so `/healthz?probe=1`
    // still resolves; the query is kept for handlers that accept
    // options (e.g. `/v1/metrics?format=prometheus`).
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut head = Head {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        keep_alive: keep_alive_default,
        content_length: 0,
        expect_continue: false,
    };
    let mut seen_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return reject(400, "malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let Ok(len) = value.parse::<usize>() else {
                    return reject(400, "invalid Content-Length");
                };
                if seen_length.is_some_and(|prev| prev != len) {
                    return reject(400, "conflicting Content-Length headers");
                }
                seen_length = Some(len);
                head.content_length = len;
            }
            "transfer-encoding" => {
                return reject(
                    501,
                    "Transfer-Encoding is not supported; send Content-Length",
                );
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    head.keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    head.keep_alive = true;
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    head.expect_continue = true;
                } else {
                    return reject(400, "unsupported Expect header");
                }
            }
            // Every other header (Host, User-Agent, Accept, ...) is
            // irrelevant to the facade and ignored.
            _ => {}
        }
    }
    Ok(head)
}

/// Content type of every JSON response body.
const CT_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition format.
const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Dispatches one request: returns (status, Allow header for 405,
/// Retry-After hint in ms for 429, Content-Type, response body).
fn route(
    method: &str,
    path: &str,
    query: &str,
    body: &[u8],
    service: &Service,
) -> (u16, Option<&'static str>, Option<u64>, &'static str, String) {
    // Every route except the Prometheus exposition answers JSON; fold
    // the shorter tuple shape back in so the match arms stay readable.
    let json = |(status, allow, retry, body): (u16, Option<&'static str>, Option<u64>, String)| {
        (status, allow, retry, CT_JSON, body)
    };
    if (path, method) == ("/v1/metrics", "GET") {
        // `format` selects the representation; anything else in the
        // query is ignored, mirroring how unknown headers are ignored.
        return match query_param(query, "format") {
            None | Some("json") => (200, None, None, CT_JSON, service.metrics().to_json()),
            Some("prometheus") => (
                200,
                None,
                None,
                CT_PROMETHEUS,
                service.metrics().to_prometheus(),
            ),
            Some(other) => json((
                400,
                None,
                None,
                error_body(
                    "bad_request",
                    &format!("unknown metrics format `{other}` (expected `json` or `prometheus`)"),
                ),
            )),
        };
    }
    if let Some(rest) = path.strip_prefix("/v1/graphs/") {
        return json(route_graph(method, rest, body, service));
    }
    json(match (path, method) {
        ("/v1/jobs", "POST") => match decode_job(body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(job) => match service.run_canonical(job) {
                Ok(resp) => (200, None, None, encode_job_response(&resp)),
                Err(e @ JobError::Busy { retry_after_ms }) => {
                    let (status, code) = job_error_status_code(&e);
                    (
                        status,
                        None,
                        Some(retry_after_ms),
                        error_body(code, &e.to_string()),
                    )
                }
                Err(e) => {
                    let (status, code) = job_error_status_code(&e);
                    (status, None, None, error_body(code, &e.to_string()))
                }
            },
        },
        ("/v1/jobs", _) => (
            405,
            Some("POST"),
            None,
            error_body("method_not_allowed", "use POST for /v1/jobs"),
        ),
        ("/v1/metrics", _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /v1/metrics"),
        ),
        ("/healthz", "GET") => (200, None, None, "{\"status\":\"ok\"}".to_string()),
        ("/healthz", _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /healthz"),
        ),
        _ => (
            404,
            None,
            None,
            error_body(
                "not_found",
                &format!(
                    "no route for `{path}` (try POST /v1/jobs, PUT /v1/graphs/{{id}}, \
                     GET /v1/metrics, GET /healthz)"
                ),
            ),
        ),
    })
}

/// Dispatches one `/v1/graphs/{id}[/spanner]` request; `rest` is the
/// path after the prefix.
fn route_graph(
    method: &str,
    rest: &str,
    body: &[u8],
    service: &Service,
) -> (u16, Option<&'static str>, Option<u64>, String) {
    let graph_err = |e: GraphError| {
        let (status, code) = graph_error_status_code(&e);
        let retry = match &e {
            GraphError::Job(JobError::Busy { retry_after_ms }) => Some(*retry_after_ms),
            _ => None,
        };
        (status, None, retry, error_body(code, &e.to_string()))
    };
    let (id, sub) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, "spanner")) => (id, Some("spanner")),
        Some((_, other)) => {
            return (
                404,
                None,
                None,
                error_body(
                    "not_found",
                    &format!("no graph subresource `{other}` (try /spanner)"),
                ),
            )
        }
    };
    match (sub, method) {
        (None, "PUT") => match decode_graph_create_body(id, body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(spec) => match service.graph_create(spec) {
                Ok(created) => {
                    let status = if created.existed { 200 } else { 201 };
                    (status, None, None, encode_graph_created_body(&created))
                }
                Err(e) => graph_err(e),
            },
        },
        (None, "PATCH") => match decode_graph_patch_body(body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(ops) => match service.graph_patch(id, &ops) {
                Ok(patched) => (200, None, None, encode_graph_patched_body(&patched)),
                Err(e) => graph_err(e),
            },
        },
        (None, "GET") => match service.graph_meta(id) {
            Ok(meta) => (200, None, None, encode_graph_meta_body(&meta)),
            Err(e) => graph_err(e),
        },
        (None, "DELETE") => match service.graph_delete(id) {
            Ok(()) => (200, None, None, encode_graph_deleted_body(id)),
            Err(e) => graph_err(e),
        },
        (None, _) => (
            405,
            Some("GET, PUT, PATCH, DELETE"),
            None,
            error_body(
                "method_not_allowed",
                "use PUT/PATCH/GET/DELETE for /v1/graphs/{id}",
            ),
        ),
        (Some(_), "GET") => match service.graph_spanner(id) {
            Ok(spanner) => (200, None, None, encode_graph_spanner_body(&spanner)),
            Err(e) => graph_err(e),
        },
        (Some(_), _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /v1/graphs/{id}/spanner"),
        ),
    }
}

/// The HTTP status and stable machine-readable `code` slug for a
/// [`JobError`] — the single mapping behind `POST /v1/jobs` error
/// bodies (and, via [`graph_error_status_code`], the graph routes).
pub fn job_error_status_code(e: &JobError) -> (u16, &'static str) {
    match e {
        JobError::Invalid(_) => (422, "invalid"),
        JobError::Cancelled => (503, "cancelled"),
        JobError::TimedOut => (504, "timed_out"),
        JobError::Busy { .. } => (429, "busy"),
        JobError::Protocol(_) => (400, "bad_request"),
        JobError::Io(_) => (500, "io"),
        JobError::Remote(_) => (500, "internal"),
    }
}

/// The HTTP status and `code` slug for a [`GraphError`].
pub fn graph_error_status_code(e: &GraphError) -> (u16, &'static str) {
    match e {
        GraphError::NotFound(_) => (404, "not_found"),
        GraphError::Conflict(_) => (409, "conflict"),
        GraphError::Invalid(_) => (422, "invalid"),
        GraphError::Job(job) => job_error_status_code(job),
    }
}

/// The `code` slug of a protocol-level rejection emitted before
/// routing (the [`ReadOutcome::Reject`] path).
fn reject_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        413 => "payload_too_large",
        431 => "head_too_large",
        501 => "not_implemented",
        505 => "http_version",
        _ => "error",
    }
}

/// The status/code table — the one source of truth behind error-body
/// `code` fields and the README's status table
/// ([`status_table_markdown`]). Rows: status, `code` slug(s) the
/// facade emits with it (`—` for successes), meaning.
pub const STATUS_TABLE: &[(u16, &str, &str)] = &[
    (
        200,
        "—",
        "request served (job ran, was cached, or the graph op applied)",
    ),
    (201, "—", "`PUT /v1/graphs/{id}` created a new named graph"),
    (
        400,
        "`bad_request`",
        "body is not valid JSON / schema violation / bad graph / malformed head",
    ),
    (
        404,
        "`not_found`",
        "unknown route, or no graph with that id",
    ),
    (
        405,
        "`method_not_allowed`",
        "wrong method for a known route (`Allow` header set)",
    ),
    (
        409,
        "`conflict`",
        "`PUT /v1/graphs/{id}` with a different definition than the live graph",
    ),
    (
        413,
        "`payload_too_large`",
        "body larger than the request-body bound",
    ),
    (
        422,
        "`invalid`",
        "well-formed spec or delta rejected by validation",
    ),
    (
        429,
        "`busy`",
        "shed by admission control; `Retry-After` set",
    ),
    (
        431,
        "`head_too_large`",
        "header section larger than the request-head bound",
    ),
    (500, "`internal`, `io`", "unexpected server-side failure"),
    (
        501,
        "`not_implemented`",
        "`Transfer-Encoding` (chunked bodies are not supported)",
    ),
    (
        503,
        "`cancelled`",
        "job cancelled before a result was available",
    ),
    (504, "`timed_out`", "job deadline passed"),
    (505, "`http_version`", "HTTP version other than 1.0/1.1"),
];

/// Renders [`STATUS_TABLE`] as the GitHub-flavored markdown table the
/// README embeds between its `status-table` markers — regenerating the
/// docs from the same constant the server answers with.
pub fn status_table_markdown() -> String {
    let mut out = String::from("| Status | Code | Meaning |\n|--------|------|---------|\n");
    for (status, code, meaning) in STATUS_TABLE {
        out.push_str(&format!("| {status} | {code} | {meaning} |\n"));
    }
    out
}

/// Looks up one `key=value` pair in a raw query string. No percent
/// decoding: the only recognised values (`json`, `prometheus`) need
/// none, and undecodable inputs fall through to the 400 path.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Encodes one error body: `error` (prose, first for pre-`code`
/// consumers that pattern-match the prefix) then `code` (stable slug).
fn error_body(code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("error".to_string(), Json::Str(message.to_string())),
        ("code".to_string(), Json::Str(code.to_string())),
    ])
    .encode()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

fn write_response(
    w: &mut impl std::io::Write,
    status: u16,
    allow: Option<&str>,
    retry_after_ms: Option<u64>,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(allow) = allow {
        out.push_str("Allow: ");
        out.push_str(allow);
        out.push_str("\r\n");
    }
    if let Some(ms) = retry_after_ms {
        // Retry-After is integer seconds; round the millisecond hint
        // up so "retry after 50ms" never becomes "retry immediately".
        out.push_str(&format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)));
    }
    out.push_str("\r\n");
    out.push_str(body);
    w.write_all(out.as_bytes())?;
    w.flush()
}

// ---------------------------------------------------------------------
// JSON codecs
// ---------------------------------------------------------------------

fn proto(message: impl Into<String>) -> JobError {
    JobError::Protocol(message.into())
}

/// Encodes a job spec as the `POST /v1/jobs` body documented in the
/// module docs. Deterministic: key order is fixed, defaults that the
/// wire encoder omits (`shards 1`, absent timeout) are omitted here
/// too.
pub fn encode_job_spec(spec: &JobSpec) -> String {
    let edge_rows = |g: &Graph| -> Json {
        Json::Arr(
            g.edges()
                .map(|(_, u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)]))
                .collect(),
        )
    };
    let id_list = |s: &EdgeSet| Json::Arr(s.iter().map(|e| Json::U64(e as u64)).collect());
    let mut pairs: Vec<(String, Json)> = vec![(
        "variant".to_string(),
        Json::Str(spec.instance.kind().to_string()),
    )];
    let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
    push("seed", Json::U64(spec.config.seed));
    let (n, edges) = match &spec.instance {
        VariantInstance::Undirected { graph } => (graph.num_vertices(), edge_rows(graph)),
        VariantInstance::Directed { graph } => (
            graph.num_vertices(),
            Json::Arr(
                graph
                    .edges()
                    .map(|(_, u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)]))
                    .collect(),
            ),
        ),
        VariantInstance::Weighted { graph, weights } => (
            graph.num_vertices(),
            Json::Arr(
                graph
                    .edges()
                    .map(|(e, u, v)| {
                        Json::Arr(vec![
                            Json::U64(u as u64),
                            Json::U64(v as u64),
                            Json::U64(weights.get(e)),
                        ])
                    })
                    .collect(),
            ),
        ),
        VariantInstance::ClientServer { graph, .. } => (graph.num_vertices(), edge_rows(graph)),
    };
    push(
        "graph",
        Json::Obj(vec![
            ("n".to_string(), Json::U64(n as u64)),
            ("edges".to_string(), edges),
        ]),
    );
    if let VariantInstance::ClientServer {
        clients, servers, ..
    } = &spec.instance
    {
        push("clients", id_list(clients));
        push("servers", id_list(servers));
    }
    push(
        "accept_denominator",
        Json::U64(spec.config.accept_denominator),
    );
    push("monotone", Json::Bool(spec.config.monotone_stars));
    push("round_densities", Json::Bool(spec.config.round_densities));
    push("max_iterations", Json::U64(spec.config.max_iterations));
    if spec.config.num_shards != 1 {
        push("shards", Json::U64(spec.config.num_shards as u64));
    }
    if let Some(t) = spec.timeout {
        // Saturating, not wrapping: a pathological Duration must not
        // come back as a short deadline (see the wire encoder).
        push("timeout_ms", Json::U64(crate::wire::saturating_millis(t)));
    }
    Json::Obj(pairs).encode()
}

/// Decodes a `POST /v1/jobs` body into a job spec. Errors are
/// [`JobError::Protocol`] and map to HTTP 400; semantic validation
/// (e.g. a zero accept denominator) stays with the service and maps
/// to 422. The adapter over the keyed decoder the server runs,
/// rebuilding the instance in submitted edge order.
pub fn decode_job_spec(body: &[u8]) -> Result<JobSpec, JobError> {
    decode_job(body).map(|job| job.to_spec())
}

fn bad_json(e: JsonError) -> JobError {
    proto(format!("bad JSON: {e}"))
}

/// What [`decode_job`] keeps of a body while it streams it: the
/// *first* value of each known key (a repeated key is read and
/// ignored, as [`Json::get`] would), with `graph.edges` rows flattened
/// into one buffer. Rows are buffered rather than normalized on the
/// fly because JSON keys arrive in any order, and the variant (which
/// decides directed or undirected keys) and `graph.n` may come last.
#[derive(Default)]
struct BodyFields {
    variant: Option<Json>,
    seed: Option<Json>,
    graph: bool,
    n: Option<Json>,
    edges: bool,
    /// Every row's fields, concatenated; row `i` ends at `row_ends[i]`.
    row_fields: Vec<u64>,
    row_ends: Vec<usize>,
    clients: Option<Vec<u64>>,
    servers: Option<Vec<u64>>,
    accept_denominator: Option<Json>,
    monotone: Option<Json>,
    round_densities: Option<Json>,
    max_iterations: Option<Json>,
    shards: Option<Json>,
    timeout_ms: Option<Json>,
}

/// Reads the next value into `slot` unless an earlier occurrence of
/// the key already filled it.
fn first_value(r: &mut Reader<'_>, slot: &mut Option<Json>) -> Result<(), JobError> {
    let value = r.value().map_err(bad_json)?;
    if slot.is_none() {
        *slot = Some(value);
    }
    Ok(())
}

/// Reads a `clients` / `servers` id array.
fn read_ids(r: &mut Reader<'_>, key: &str) -> Result<Vec<u64>, JobError> {
    if !r.start_array().map_err(bad_json)? {
        return Err(proto(format!("missing `{key}` (array of edge ids)")));
    }
    let mut ids = Vec::new();
    while r.next_element().map_err(bad_json)? {
        let id = r
            .read_u64()
            .map_err(bad_json)?
            .ok_or_else(|| proto(format!("`{key}` ids must be non-negative integers")))?;
        ids.push(id);
    }
    Ok(ids)
}

/// Reads the `graph` object: `n`, and the `edges` rows into the flat
/// row buffer.
fn read_graph(r: &mut Reader<'_>, f: &mut BodyFields) -> Result<(), JobError> {
    if !r.start_object().map_err(bad_json)? {
        return Err(proto("`graph` must be an object"));
    }
    while let Some(key) = r.next_key().map_err(bad_json)? {
        match key.as_str() {
            "n" => first_value(r, &mut f.n)?,
            "edges" if !f.edges => {
                f.edges = true;
                if !r.start_array().map_err(bad_json)? {
                    return Err(proto("missing `graph.edges` (array of arrays)"));
                }
                let mut i = 0;
                while r.next_element().map_err(bad_json)? {
                    if !r.start_array().map_err(bad_json)? {
                        return Err(proto(format!("edge {i} must be an array")));
                    }
                    while r.next_element().map_err(bad_json)? {
                        let x = r.read_u64().map_err(bad_json)?.ok_or_else(|| {
                            proto(format!("edge {i}: fields must be non-negative integers"))
                        })?;
                        f.row_fields.push(x);
                    }
                    f.row_ends.push(f.row_fields.len());
                    i += 1;
                }
            }
            "edges" => {
                r.value().map_err(bad_json)?;
            }
            other => return Err(proto(format!("unknown key `graph.{other}`"))),
        }
    }
    Ok(())
}

/// Decodes a `POST /v1/jobs` body straight into a canonical job: the
/// body streams through a JSON pull reader (no [`Json`] tree for the
/// rows), and the rows are normalized into sorted edge keys with
/// [`KeyBuilder`], so a cache hit never builds a graph.
///
/// Accepts and rejects exactly what the schema in the module docs
/// says, with the normalization of [`dsa_graphs::io`]: the same rows
/// give the same key, canonical keys and edge-id permutation as a
/// wire `run` frame. Every rejection is a [`JobError::Protocol`].
pub(crate) fn decode_job(body: &[u8]) -> Result<CanonicalJob, JobError> {
    let text = std::str::from_utf8(body).map_err(|_| proto("body is not UTF-8"))?;
    let mut r = Reader::new(text);
    if !r.start_object().map_err(bad_json)? {
        r.value().map_err(bad_json)?;
        r.finish().map_err(bad_json)?;
        return Err(proto("job spec must be a JSON object"));
    }
    let mut f = BodyFields::default();
    while let Some(key) = r.next_key().map_err(bad_json)? {
        match key.as_str() {
            "variant" => first_value(&mut r, &mut f.variant)?,
            "seed" => first_value(&mut r, &mut f.seed)?,
            "graph" if !f.graph => {
                f.graph = true;
                read_graph(&mut r, &mut f)?;
            }
            "clients" if f.clients.is_none() => f.clients = Some(read_ids(&mut r, "clients")?),
            "servers" if f.servers.is_none() => f.servers = Some(read_ids(&mut r, "servers")?),
            "graph" | "clients" | "servers" => {
                r.value().map_err(bad_json)?;
            }
            "accept_denominator" => first_value(&mut r, &mut f.accept_denominator)?,
            "monotone" => first_value(&mut r, &mut f.monotone)?,
            "round_densities" => first_value(&mut r, &mut f.round_densities)?,
            "max_iterations" => first_value(&mut r, &mut f.max_iterations)?,
            "shards" => first_value(&mut r, &mut f.shards)?,
            "timeout_ms" => first_value(&mut r, &mut f.timeout_ms)?,
            other => return Err(proto(format!("unknown key `{other}`"))),
        }
    }
    r.finish().map_err(bad_json)?;

    let variant: VariantKind = f
        .variant
        .as_ref()
        .and_then(Json::as_str)
        .ok_or_else(|| proto("missing `variant` (string)"))?
        .parse()
        .map_err(JobError::Protocol)?;
    let seed = f
        .seed
        .as_ref()
        .and_then(Json::as_u64)
        .ok_or_else(|| proto("missing `seed` (non-negative integer)"))?;
    if !f.graph {
        return Err(proto("missing `graph`"));
    }
    let n =
        f.n.as_ref()
            .and_then(Json::as_u64)
            .ok_or_else(|| proto("missing `graph.n` (non-negative integer)"))?;
    // Same request-size bound as the wire protocol's `# n` check: the
    // body caps *bytes*, but `Graph::new(n)` allocates per declared
    // vertex, so a ~60-byte body must not demand gigabytes.
    let limit = (2 * body.len() as u64 + 1024).max(MIN_VERTEX_ALLOWANCE);
    if n > limit {
        return Err(proto(format!(
            "declared vertex count {n} exceeds the request-size bound {limit}"
        )));
    }
    let n = narrow_usize(n, "vertex count")?;
    if !f.edges {
        return Err(proto("missing `graph.edges` (array of arrays)"));
    }
    let client_server = variant == VariantKind::ClientServer;
    if !client_server && (f.clients.is_some() || f.servers.is_some()) {
        return Err(proto(
            "`clients`/`servers` only apply to the client-server variant",
        ));
    }

    let bad_graph = |e: gio::ParseGraphError| proto(format!("bad graph: {e}"));
    let mut builder = KeyBuilder::new(n, variant == VariantKind::Directed);
    let mut start = 0;
    for (i, &end) in f.row_ends.iter().enumerate() {
        builder
            .push_row(i + 1, &f.row_fields[start..end])
            .map_err(bad_graph)?;
        start = end;
    }
    let edges = builder.finish().map_err(bad_graph)?;
    let weighted = edges.keys.weights().is_some();
    match variant {
        VariantKind::Undirected if weighted => {
            return Err(proto("undirected variant takes [u, v] edges"))
        }
        VariantKind::Weighted if !weighted => {
            return Err(proto("weighted variant needs [u, v, w] edges"))
        }
        VariantKind::ClientServer if weighted => {
            return Err(proto("client-server variant takes [u, v] edges"))
        }
        _ => {}
    }
    let roles = if client_server {
        let m = edges.keys.num_edges();
        let id_set = |key: &str, ids: Option<&Vec<u64>>| -> Result<EdgeSet, JobError> {
            let ids = ids.ok_or_else(|| proto(format!("missing `{key}` (array of edge ids)")))?;
            let mut set = EdgeSet::new(m);
            for &id in ids {
                let id = usize::try_from(id)
                    .map_err(|_| proto(format!("`{key}` ids must be non-negative integers")))?;
                if id >= m {
                    return Err(proto(format!("{key} id {id} out of range for {m} edges")));
                }
                set.insert(id);
            }
            Ok(set)
        };
        Some((
            id_set("clients", f.clients.as_ref())?,
            id_set("servers", f.servers.as_ref())?,
        ))
    } else {
        None
    };

    let mut config = EngineConfig::seeded(seed);
    let opt_u64 = |key: &str, value: &Option<Json>| -> Result<Option<u64>, JobError> {
        value
            .as_ref()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| proto(format!("`{key}` must be a non-negative integer")))
            })
            .transpose()
    };
    let opt_bool = |key: &str, value: &Option<Json>| -> Result<Option<bool>, JobError> {
        value
            .as_ref()
            .map(|x| {
                x.as_bool()
                    .ok_or_else(|| proto(format!("`{key}` must be a boolean")))
            })
            .transpose()
    };
    if let Some(d) = opt_u64("accept_denominator", &f.accept_denominator)? {
        config.accept_denominator = d;
    }
    if let Some(m) = opt_bool("monotone", &f.monotone)? {
        config.monotone_stars = m;
    }
    if let Some(r) = opt_bool("round_densities", &f.round_densities)? {
        config.round_densities = r;
    }
    if let Some(m) = opt_u64("max_iterations", &f.max_iterations)? {
        config.max_iterations = m;
    }
    if let Some(s) = opt_u64("shards", &f.shards)? {
        // Capped exactly like the wire decoder: a hostile
        // `"shards": 2^63` must not truncate on 32-bit targets.
        config.num_shards = crate::wire::decode_shards(s);
    }
    let timeout = opt_u64("timeout_ms", &f.timeout_ms)?.map(Duration::from_millis);

    Ok(CanonicalJob::new(
        variant,
        edges,
        roles.as_ref().map(|(c, s)| (c, s)),
        config,
        timeout,
    ))
}

/// Encodes a job result as the `POST /v1/jobs` 200 body. Pure function
/// of the response, so a cache hit is byte-identical to the cold
/// computation. Written straight into one buffer: the same bytes
/// [`Json::encode`] gives for the response's object (variant names
/// and the hex key need no escaping).
pub fn encode_job_response(resp: &JobResponse) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(160 + 6 * resp.spanner.len());
    let _ = write!(
        out,
        "{{\"key\":\"{:016x}\",\"variant\":\"{}\",\"converged\":{},\"iterations\":{},\
         \"local_rounds\":{},\"star_fallbacks\":{},\"spanner_size\":{},\"spanner\":[",
        resp.key,
        resp.kind,
        resp.converged,
        resp.iterations,
        resp.local_rounds,
        resp.star_fallbacks,
        resp.spanner.len(),
    );
    for (i, e) in resp.spanner.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{e}");
    }
    out.push_str("]}");
    out
}

/// Decodes a `POST /v1/jobs` 200 body back into a [`JobResponse`].
pub fn decode_job_response(body: &[u8]) -> Result<JobResponse, JobError> {
    let text = std::str::from_utf8(body).map_err(|_| proto("response is not UTF-8"))?;
    let v = Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))?;
    let missing = |what: &str| proto(format!("missing `{what}` field"));
    let key_hex = v
        .get("key")
        .and_then(Json::as_str)
        .ok_or_else(|| missing("key"))?;
    let key =
        u64::from_str_radix(key_hex, 16).map_err(|_| proto(format!("invalid key `{key_hex}`")))?;
    let kind: VariantKind = v
        .get("variant")
        .and_then(Json::as_str)
        .ok_or_else(|| missing("variant"))?
        .parse()
        .map_err(JobError::Protocol)?;
    let spanner = v
        .get("spanner")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("spanner"))?
        .iter()
        .map(|x| x.as_u64().and_then(|x| usize::try_from(x).ok()))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| proto("spanner ids must be non-negative integers"))?;
    let size = narrow_usize(
        v.get("spanner_size")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("spanner_size"))?,
        "spanner_size",
    )?;
    if spanner.len() != size {
        return Err(proto(format!(
            "spanner_size {size} does not match {} listed ids",
            spanner.len()
        )));
    }
    let field_u64 = |what: &str| {
        v.get(what)
            .and_then(Json::as_u64)
            .ok_or_else(|| missing(what))
    };
    Ok(JobResponse {
        key,
        kind,
        spanner,
        iterations: field_u64("iterations")?,
        local_rounds: field_u64("local_rounds")?,
        converged: v
            .get("converged")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("converged"))?,
        star_fallbacks: field_u64("star_fallbacks")?,
    })
}

// ---------------------------------------------------------------------
// Graph JSON codecs
// ---------------------------------------------------------------------

/// Encodes the `PUT /v1/graphs/{id}` body for `spec` — exactly the
/// job-spec schema without `timeout_ms` (the id travels in the path,
/// not the body, so the body is the *definition* the conflict check
/// compares).
pub fn encode_graph_create_body(spec: &GraphSpec) -> String {
    encode_job_spec(&JobSpec {
        instance: spec.instance.clone(),
        config: spec.config.clone(),
        timeout: None,
    })
}

/// Decodes a `PUT /v1/graphs/{id}` body: a job spec whose execution
/// policy must be absent (`timeout_ms`) or trivial (`shards`), because
/// a named graph's bytes are a pure function of its definition and
/// delta history — mirroring the wire decoder's `graph-create` checks.
pub fn decode_graph_create_body(id: &str, body: &[u8]) -> Result<GraphSpec, JobError> {
    let spec = decode_job_spec(body)?;
    if spec.timeout.is_some() {
        return Err(proto(
            "graph create takes no `timeout_ms`; deadlines apply to reads, not definitions",
        ));
    }
    if spec.config.num_shards != 1 {
        return Err(proto(
            "graphs are maintained single-shard; omit `shards` or set it to 1",
        ));
    }
    Ok(GraphSpec {
        id: id.to_string(),
        instance: spec.instance,
        config: spec.config,
    })
}

/// Encodes a `PATCH /v1/graphs/{id}` body. Inserts render as
/// `[u, v]` / `[u, v, w]` / `[u, v, "role"]` rows under `insert`,
/// deletes as `[u, v]` rows under `delete`; the server applies the
/// insert list (in order) before the delete list, matching this
/// function's op order on decode.
pub fn encode_graph_patch_body(ops: &[DeltaOp]) -> String {
    let pair = |u: usize, v: usize| vec![Json::U64(u as u64), Json::U64(v as u64)];
    let mut insert = Vec::new();
    let mut delete = Vec::new();
    for op in ops {
        match op {
            DeltaOp::Insert { u, v, weight, role } => {
                let mut row = pair(*u, *v);
                if let Some(w) = weight {
                    row.push(Json::U64(*w));
                }
                if let Some(r) = role {
                    row.push(Json::Str(r.as_str().to_string()));
                }
                insert.push(Json::Arr(row));
            }
            DeltaOp::Delete { u, v } => delete.push(Json::Arr(pair(*u, *v))),
        }
    }
    let mut pairs = Vec::new();
    if !insert.is_empty() {
        pairs.push(("insert".to_string(), Json::Arr(insert)));
    }
    if !delete.is_empty() {
        pairs.push(("delete".to_string(), Json::Arr(delete)));
    }
    Json::Obj(pairs).encode()
}

/// Decodes a `PATCH /v1/graphs/{id}` body into delta ops (inserts
/// first, then deletes, each list in order).
pub fn decode_graph_patch_body(body: &[u8]) -> Result<Vec<DeltaOp>, JobError> {
    let text = std::str::from_utf8(body).map_err(|_| proto("body is not UTF-8"))?;
    let v = Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))?;
    let pairs = v
        .as_obj()
        .ok_or_else(|| proto("patch must be a JSON object"))?;
    for (key, _) in pairs {
        if key != "insert" && key != "delete" {
            return Err(proto(format!("unknown key `{key}`")));
        }
    }
    let endpoint = |x: &Json, what: &str, i: usize| -> Result<usize, JobError> {
        x.as_u64()
            .and_then(|x| usize::try_from(x).ok())
            .ok_or_else(|| {
                proto(format!(
                    "{what} {i}: endpoints must be non-negative integers"
                ))
            })
    };
    let mut ops = Vec::new();
    if let Some(rows) = v.get("insert") {
        let rows = rows
            .as_arr()
            .ok_or_else(|| proto("`insert` must be an array of edges"))?;
        for (i, row) in rows.iter().enumerate() {
            let fields = row
                .as_arr()
                .ok_or_else(|| proto(format!("insert {i} must be an array")))?;
            if fields.len() < 2 || fields.len() > 3 {
                return Err(proto(format!(
                    "insert {i}: expected [u, v], [u, v, w], or [u, v, \"role\"]"
                )));
            }
            let u = endpoint(&fields[0], "insert", i)?; // dsa-lint: allow(DSA-P003, reason="arity checked just above, fields has at least 2 elements")
            let v = endpoint(&fields[1], "insert", i)?; // dsa-lint: allow(DSA-P003, reason="arity checked just above, fields has at least 2 elements")
            let (weight, role) = match fields.get(2) {
                None => (None, None),
                Some(Json::U64(w)) => (Some(*w), None),
                Some(Json::Str(s)) => match EdgeRole::parse(s) {
                    Some(role) => (None, Some(role)),
                    None => {
                        return Err(proto(format!(
                            "insert {i}: unknown role `{s}` (expected client/server/both)"
                        )))
                    }
                },
                Some(_) => {
                    return Err(proto(format!(
                        "insert {i}: third field must be a weight or a role string"
                    )))
                }
            };
            ops.push(DeltaOp::Insert { u, v, weight, role });
        }
    }
    if let Some(rows) = v.get("delete") {
        let rows = rows
            .as_arr()
            .ok_or_else(|| proto("`delete` must be an array of edges"))?;
        for (i, row) in rows.iter().enumerate() {
            let fields = row
                .as_arr()
                .ok_or_else(|| proto(format!("delete {i} must be an array")))?;
            if fields.len() != 2 {
                return Err(proto(format!("delete {i}: expected [u, v]")));
            }
            ops.push(DeltaOp::Delete {
                u: endpoint(&fields[0], "delete", i)?, // dsa-lint: allow(DSA-P003, reason="arity checked just above, fields.len() == 2")
                v: endpoint(&fields[1], "delete", i)?, // dsa-lint: allow(DSA-P003, reason="arity checked just above, fields.len() == 2")
            });
        }
    }
    Ok(ops)
}

/// Encodes the `PUT /v1/graphs/{id}` success body.
pub fn encode_graph_created_body(r: &GraphCreated) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(r.id.clone())),
        ("version".to_string(), Json::U64(r.version)),
        ("edges".to_string(), Json::U64(r.edges as u64)),
        ("spanner_size".to_string(), Json::U64(r.spanner_size as u64)),
        ("existed".to_string(), Json::Bool(r.existed)),
    ])
    .encode()
}

/// Decodes the `PUT /v1/graphs/{id}` success body.
pub fn decode_graph_created_body(body: &[u8]) -> Result<GraphCreated, JobError> {
    let (v, field) = parse_graph_body(body)?;
    Ok(GraphCreated {
        id: field_str(&v, "id")?,
        version: field("version")?,
        edges: narrow_usize(field("edges")?, "edges")?,
        spanner_size: narrow_usize(field("spanner_size")?, "spanner_size")?,
        existed: v
            .get("existed")
            .and_then(Json::as_bool)
            .ok_or_else(|| proto("missing `existed` field"))?,
    })
}

/// Encodes the `PATCH /v1/graphs/{id}` success body.
pub fn encode_graph_patched_body(r: &GraphPatched) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(r.id.clone())),
        ("version".to_string(), Json::U64(r.version)),
        ("applied".to_string(), Json::U64(r.applied as u64)),
        ("commuted".to_string(), Json::U64(r.classes.commuted)),
        ("repaired".to_string(), Json::U64(r.classes.repaired)),
        ("recomputed".to_string(), Json::U64(r.classes.recomputed)),
        ("edges".to_string(), Json::U64(r.edges as u64)),
    ])
    .encode()
}

/// Decodes the `PATCH /v1/graphs/{id}` success body.
pub fn decode_graph_patched_body(body: &[u8]) -> Result<GraphPatched, JobError> {
    let (v, field) = parse_graph_body(body)?;
    Ok(GraphPatched {
        id: field_str(&v, "id")?,
        version: field("version")?,
        applied: narrow_usize(field("applied")?, "applied")?,
        classes: crate::graphs::DeltaClasses {
            commuted: field("commuted")?,
            repaired: field("repaired")?,
            recomputed: field("recomputed")?,
        },
        edges: narrow_usize(field("edges")?, "edges")?,
    })
}

/// Encodes the `GET /v1/graphs/{id}` success body. `cover_size` is
/// `null` while the working cover is invalidated (after a delete or a
/// restart, before the next solve).
pub fn encode_graph_meta_body(r: &GraphMeta) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(r.id.clone())),
        ("variant".to_string(), Json::Str(r.kind.to_string())),
        ("version".to_string(), Json::U64(r.version)),
        ("vertices".to_string(), Json::U64(r.vertices as u64)),
        ("edges".to_string(), Json::U64(r.edges as u64)),
        ("seed".to_string(), Json::U64(r.seed)),
        (
            "cover_size".to_string(),
            match r.cover_size {
                Some(size) => Json::U64(size as u64),
                None => Json::Null,
            },
        ),
        ("debt".to_string(), Json::U64(r.debt as u64)),
        ("commuted".to_string(), Json::U64(r.classes.commuted)),
        ("repaired".to_string(), Json::U64(r.classes.repaired)),
        ("recomputed".to_string(), Json::U64(r.classes.recomputed)),
    ])
    .encode()
}

/// Decodes the `GET /v1/graphs/{id}` success body.
pub fn decode_graph_meta_body(body: &[u8]) -> Result<GraphMeta, JobError> {
    let (v, field) = parse_graph_body(body)?;
    let kind: VariantKind = field_str(&v, "variant")?
        .parse()
        .map_err(JobError::Protocol)?;
    let cover_size = match v.get("cover_size") {
        None => return Err(proto("missing `cover_size` field")),
        Some(Json::Null) => None,
        Some(x) => Some(
            x.as_u64()
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| proto("`cover_size` must be an integer or null"))?,
        ),
    };
    Ok(GraphMeta {
        id: field_str(&v, "id")?,
        kind,
        version: field("version")?,
        vertices: narrow_usize(field("vertices")?, "vertices")?,
        edges: narrow_usize(field("edges")?, "edges")?,
        seed: field("seed")?,
        cover_size,
        debt: narrow_usize(field("debt")?, "debt")?,
        classes: crate::graphs::DeltaClasses {
            commuted: field("commuted")?,
            repaired: field("repaired")?,
            recomputed: field("recomputed")?,
        },
    })
}

/// Encodes the `GET /v1/graphs/{id}/spanner` success body — the JSON
/// face of the per-graph byte-identity guarantee (a pure function of
/// the graph's create + delta history).
pub fn encode_graph_spanner_body(r: &GraphSpannerResult) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(r.id.clone())),
        ("version".to_string(), Json::U64(r.version)),
        ("key".to_string(), Json::Str(format!("{:016x}", r.key))),
        ("variant".to_string(), Json::Str(r.kind.to_string())),
        ("converged".to_string(), Json::Bool(r.converged)),
        ("iterations".to_string(), Json::U64(r.iterations)),
        ("local_rounds".to_string(), Json::U64(r.local_rounds)),
        ("star_fallbacks".to_string(), Json::U64(r.star_fallbacks)),
        ("spanner_size".to_string(), Json::U64(r.edges.len() as u64)),
        (
            "spanner".to_string(),
            Json::Arr(
                r.edges
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)]))
                    .collect(),
            ),
        ),
    ])
    .encode()
}

/// Decodes the `GET /v1/graphs/{id}/spanner` success body.
pub fn decode_graph_spanner_body(body: &[u8]) -> Result<GraphSpannerResult, JobError> {
    let (v, field) = parse_graph_body(body)?;
    let key_hex = field_str(&v, "key")?;
    let key =
        u64::from_str_radix(&key_hex, 16).map_err(|_| proto(format!("invalid key `{key_hex}`")))?;
    let kind: VariantKind = field_str(&v, "variant")?
        .parse()
        .map_err(JobError::Protocol)?;
    let rows = v
        .get("spanner")
        .and_then(Json::as_arr)
        .ok_or_else(|| proto("missing `spanner` (array of [u, v] pairs)"))?;
    let mut edges = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let fields = row
            .as_arr()
            .filter(|f| f.len() == 2)
            .ok_or_else(|| proto(format!("spanner edge {i} must be [u, v]")))?;
        let endpoints = fields[0] // dsa-lint: allow(DSA-P003, reason="rows filtered to len() == 2 above")
            .as_u64()
            .and_then(|x| usize::try_from(x).ok())
            .zip(fields[1].as_u64().and_then(|x| usize::try_from(x).ok())); // dsa-lint: allow(DSA-P003, reason="rows filtered to len() == 2 above")
        match endpoints {
            Some((u, v)) => edges.push((u, v)),
            None => return Err(proto(format!("spanner edge {i}: bad endpoints"))),
        }
    }
    let size = narrow_usize(field("spanner_size")?, "spanner_size")?;
    if edges.len() != size {
        return Err(proto(format!(
            "spanner_size {size} does not match {} listed edges",
            edges.len()
        )));
    }
    Ok(GraphSpannerResult {
        id: field_str(&v, "id")?,
        version: field("version")?,
        key,
        kind,
        converged: v
            .get("converged")
            .and_then(Json::as_bool)
            .ok_or_else(|| proto("missing `converged` field"))?,
        iterations: field("iterations")?,
        local_rounds: field("local_rounds")?,
        star_fallbacks: field("star_fallbacks")?,
        edges,
    })
}

/// Encodes the `DELETE /v1/graphs/{id}` success body.
pub fn encode_graph_deleted_body(id: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("deleted".to_string(), Json::Bool(true)),
    ])
    .encode()
}

/// Parses a graph response body, returning the JSON value and a
/// u64-field accessor over it.
#[allow(clippy::type_complexity)]
fn parse_graph_body(
    body: &[u8],
) -> Result<(Json, impl Fn(&'static str) -> Result<u64, JobError> + '_), JobError> {
    let text = std::str::from_utf8(body).map_err(|_| proto("response is not UTF-8"))?;
    let v = Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))?;
    let owned = v.clone();
    let field = move |what: &'static str| {
        owned
            .get(what)
            .and_then(Json::as_u64)
            .ok_or_else(|| proto(format!("missing `{what}` field")))
    };
    Ok((v, field))
}

fn field_str(v: &Json, what: &str) -> Result<String, JobError> {
    v.get(what)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| proto(format!("missing `{what}` field")))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking keep-alive client for the HTTP facade, used by
/// `spanner-cli --http`, the `exp_http` bench, the HTTP self-check,
/// and the integration tests.
pub struct HttpClient {
    stream: TcpStream,
    /// The resolved peer address, kept so retries can reconnect after
    /// the server (or a chaos hook) drops the connection mid-response.
    addr: SocketAddr,
    pending: Vec<u8>,
    /// The `Retry-After` header of the most recent response, converted
    /// to milliseconds; `None` when the response carried none.
    last_retry_after_ms: Option<u64>,
}

impl HttpClient {
    /// Connects to a running [`HttpServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let addr = stream.peer_addr()?;
        Ok(HttpClient {
            stream,
            addr,
            pending: Vec::new(),
            last_retry_after_ms: None,
        })
    }

    /// Drops the current connection and dials the same peer again,
    /// discarding any half-read response bytes.
    fn reconnect(&mut self) -> Result<(), JobError> {
        let stream = TcpStream::connect(self.addr).map_err(|e| JobError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        self.pending.clear();
        Ok(())
    }

    /// Sends one request and returns `(status, body)`. The connection
    /// is reused across calls (keep-alive).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Vec<u8>), JobError> {
        use std::io::Write;
        let io_err = |e: std::io::Error| JobError::Io(e.to_string());
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: spanner-serve\r\n");
        if let Some(body) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        if let Some(body) = body {
            req.push_str(body);
        }
        self.stream.write_all(req.as_bytes()).map_err(io_err)?;
        self.stream.flush().map_err(io_err)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<(u16, Vec<u8>), JobError> {
        use std::io::Read;
        let io_err = |e: std::io::Error| JobError::Io(e.to_string());
        loop {
            let (head_len, term_len) = loop {
                if let Some(found) = head_end(&self.pending) {
                    break found;
                }
                if self.pending.len() > MAX_HEAD {
                    return Err(proto("response head too large"));
                }
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk).map_err(io_err)? {
                    0 => return Err(JobError::Io("server closed the connection".into())),
                    k => self.pending.extend_from_slice(&chunk[..k]),
                }
            };
            let head_bytes: Vec<u8> = self.pending.drain(..head_len + term_len).collect();
            let head =
                String::from_utf8(head_bytes).map_err(|_| proto("response head is not UTF-8"))?;
            let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
            let status_line = lines.next().unwrap_or("");
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| proto(format!("malformed status line `{status_line}`")))?;
            // Interim responses (100 Continue) carry no body; wait for
            // the final response.
            if status == 100 {
                continue;
            }
            let mut content_length = 0usize;
            self.last_retry_after_ms = None;
            for line in lines {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value
                            .trim()
                            .parse()
                            .map_err(|_| proto("invalid Content-Length in response"))?;
                    } else if name.trim().eq_ignore_ascii_case("retry-after") {
                        // Integer seconds on the wire (the only form
                        // the facade emits); unparseable values are
                        // treated as absent, not as errors.
                        self.last_retry_after_ms =
                            value.trim().parse::<u64>().ok().map(|s| s * 1000);
                    }
                }
            }
            if content_length > MAX_BODY {
                return Err(proto("response body exceeds limit"));
            }
            while self.pending.len() < content_length {
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk).map_err(io_err)? {
                    0 => return Err(JobError::Io("server closed mid-response".into())),
                    k => self.pending.extend_from_slice(&chunk[..k]),
                }
            }
            let body: Vec<u8> = self.pending.drain(..content_length).collect();
            return Ok((status, body));
        }
    }

    /// Runs one job via `POST /v1/jobs` and decodes the response.
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobResponse, JobError> {
        let (status, body) = self.run_raw(spec)?;
        if status == 200 {
            return decode_job_response(&body);
        }
        Err(JobError::Remote(format!(
            "HTTP {status}: {}",
            error_message(&body)
        )))
    }

    /// Runs one job and returns the raw `(status, body bytes)` — what
    /// the facade's byte-identity guarantee is stated over.
    pub fn run_raw(&mut self, spec: &JobSpec) -> Result<(u16, Vec<u8>), JobError> {
        self.request("POST", "/v1/jobs", Some(&encode_job_spec(spec)))
    }

    /// Like [`HttpClient::run`], but retries shed (429, honoring the
    /// server's `Retry-After`), cancelled (503), and transport-level
    /// failures (reconnecting first) under `policy`'s capped jittered
    /// exponential backoff. Safe because a job response is a pure
    /// function of the spec: a resubmission can only return the same
    /// bytes.
    pub fn run_with_retry(
        &mut self,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> Result<JobResponse, JobError> {
        let mut attempt = 0u32;
        loop {
            let (hint, err) = match self.run_raw(spec) {
                Ok((200, body)) => return decode_job_response(&body),
                Ok((status @ (429 | 503), body)) => (
                    self.last_retry_after_ms,
                    JobError::Remote(format!("HTTP {status}: {}", error_message(&body))),
                ),
                Ok((status, body)) => {
                    // Validation and routing errors (4xx/5xx outside
                    // the two transient codes) repeat identically on
                    // resubmission; fail fast.
                    return Err(JobError::Remote(format!(
                        "HTTP {status}: {}",
                        error_message(&body)
                    )));
                }
                Err(e @ JobError::Io(_)) => {
                    // The connection is gone or desynchronized (e.g. a
                    // mid-response drop); replace it before retrying.
                    // A failed reconnect (server restarting) is itself
                    // retried: the dead stream just errors again.
                    match self.reconnect() {
                        Ok(()) => (None, e),
                        Err(re) => (None, re),
                    }
                }
                Err(e) => return Err(e),
            };
            if attempt >= policy.max_retries {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt, hint));
            attempt += 1;
        }
    }

    /// Fetches `/v1/metrics` as one JSON line.
    pub fn metrics_json(&mut self) -> Result<String, JobError> {
        let (status, body) = self.request("GET", "/v1/metrics", None)?;
        if status != 200 {
            return Err(JobError::Remote(format!(
                "HTTP {status}: {}",
                error_message(&body)
            )));
        }
        String::from_utf8(body).map_err(|_| proto("metrics body is not UTF-8"))
    }

    /// Fetches `/v1/metrics?format=prometheus` as text exposition.
    pub fn metrics_prometheus(&mut self) -> Result<String, JobError> {
        let (status, body) = self.request("GET", "/v1/metrics?format=prometheus", None)?;
        if status != 200 {
            return Err(JobError::Remote(format!(
                "HTTP {status}: {}",
                error_message(&body)
            )));
        }
        String::from_utf8(body).map_err(|_| proto("metrics body is not UTF-8"))
    }

    /// Liveness probe via `GET /healthz`.
    pub fn healthz(&mut self) -> Result<(), JobError> {
        let (status, body) = self.request("GET", "/healthz", None)?;
        if status != 200 {
            return Err(JobError::Remote(format!(
                "HTTP {status}: {}",
                error_message(&body)
            )));
        }
        Ok(())
    }

    /// Creates (or idempotently re-creates) a named graph via
    /// `PUT /v1/graphs/{id}`.
    pub fn graph_create(&mut self, spec: &GraphSpec) -> Result<GraphCreated, JobError> {
        let path = format!("/v1/graphs/{}", spec.id);
        let body = encode_graph_create_body(spec);
        let (status, resp) = self.request("PUT", &path, Some(&body))?;
        match status {
            200 | 201 => decode_graph_created_body(&resp),
            _ => Err(remote_status(status, &resp)),
        }
    }

    /// Applies edge deltas via `PATCH /v1/graphs/{id}`.
    pub fn graph_patch(&mut self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, JobError> {
        let path = format!("/v1/graphs/{id}");
        let body = encode_graph_patch_body(ops);
        let (status, resp) = self.request("PATCH", &path, Some(&body))?;
        match status {
            200 => decode_graph_patched_body(&resp),
            _ => Err(remote_status(status, &resp)),
        }
    }

    /// Fetches graph metadata via `GET /v1/graphs/{id}`.
    pub fn graph_get(&mut self, id: &str) -> Result<GraphMeta, JobError> {
        let (status, resp) = self.request("GET", &format!("/v1/graphs/{id}"), None)?;
        match status {
            200 => decode_graph_meta_body(&resp),
            _ => Err(remote_status(status, &resp)),
        }
    }

    /// Fetches the maintained spanner via `GET /v1/graphs/{id}/spanner`.
    pub fn graph_spanner(&mut self, id: &str) -> Result<GraphSpannerResult, JobError> {
        let (status, resp) = self.graph_spanner_raw(id)?;
        match status {
            200 => decode_graph_spanner_body(&resp),
            _ => Err(remote_status(status, &resp)),
        }
    }

    /// Fetches the maintained spanner as raw `(status, body bytes)` —
    /// what the per-graph byte-identity guarantee is stated over.
    pub fn graph_spanner_raw(&mut self, id: &str) -> Result<(u16, Vec<u8>), JobError> {
        self.request("GET", &format!("/v1/graphs/{id}/spanner"), None)
    }

    /// Deletes a named graph via `DELETE /v1/graphs/{id}`.
    pub fn graph_delete(&mut self, id: &str) -> Result<(), JobError> {
        let (status, resp) = self.request("DELETE", &format!("/v1/graphs/{id}"), None)?;
        match status {
            200 => Ok(()),
            _ => Err(remote_status(status, &resp)),
        }
    }
}

/// A non-2xx response folded into [`JobError::Remote`].
fn remote_status(status: u16, body: &[u8]) -> JobError {
    JobError::Remote(format!("HTTP {status}: {}", error_message(body)))
}

/// Extracts the `error` field of an error body, or shows the raw body.
fn error_message(body: &[u8]) -> String {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| {
            Json::parse(text)
                .ok()
                .and_then(|v| v.get("error").and_then(Json::as_str).map(String::from))
        })
        .unwrap_or_else(|| String::from_utf8_lossy(body).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::canonicalize_job;
    use dsa_graphs::EdgeWeights;

    fn roundtrip(spec: &JobSpec) -> JobSpec {
        decode_job_spec(encode_job_spec(spec).as_bytes()).unwrap()
    }

    #[test]
    fn spec_roundtrips_all_variants() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
        let d = dsa_graphs::DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let specs = [
            JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 3),
            JobSpec::new(VariantInstance::Directed { graph: d }, 4),
            JobSpec::new(
                VariantInstance::Weighted {
                    graph: g.clone(),
                    weights: EdgeWeights::from_vec(vec![2, 0, 5, 7]),
                },
                5,
            ),
            JobSpec::new(
                VariantInstance::ClientServer {
                    graph: g.clone(),
                    clients: EdgeSet::from_iter(4, [0, 1, 3]),
                    servers: EdgeSet::from_iter(4, [1, 2, 3]),
                },
                6,
            ),
        ];
        for spec in &specs {
            let back = roundtrip(spec);
            assert_eq!(back.instance.kind(), spec.instance.kind());
            assert_eq!(back.config.seed, spec.config.seed);
            // Canonical-key agreement is the identity the cache uses —
            // and it also proves a JSON submission shares the cache
            // entry of the equivalent wire submission.
            assert_eq!(
                canonicalize_job(&back).unwrap().key,
                canonicalize_job(spec).unwrap().key,
            );
        }
    }

    #[test]
    fn spec_carries_config_and_timeout() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, u64::MAX);
        spec.config.accept_denominator = 16;
        spec.config.monotone_stars = false;
        spec.config.round_densities = false;
        spec.config.max_iterations = 12_345;
        spec.config.num_shards = 4;
        spec.timeout = Some(Duration::from_millis(1500));
        let back = roundtrip(&spec);
        assert_eq!(back.config.seed, u64::MAX, "u64 seeds stay exact");
        assert_eq!(back.config.accept_denominator, 16);
        assert!(!back.config.monotone_stars);
        assert!(!back.config.round_densities);
        assert_eq!(back.config.max_iterations, 12_345);
        assert_eq!(back.config.num_shards, 4);
        assert_eq!(back.timeout, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn absurd_shards_and_timeouts_are_defanged() {
        // `"shards": 2^63` is capped at decode (never truncated), and
        // a pathological timeout saturates instead of wrapping.
        let spec = decode_job_spec(
            br#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"shards":9223372036854775808}"#,
        )
        .unwrap();
        assert_eq!(spec.config.num_shards as u64, crate::wire::MAX_SHARDS);
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut pathological = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        pathological.timeout = Some(Duration::MAX);
        let encoded = encode_job_spec(&pathological);
        assert!(
            encoded.contains(&format!("\"timeout_ms\":{}", u64::MAX)),
            "expected saturated timeout in {encoded}"
        );
        let back = roundtrip(&pathological);
        assert_eq!(back.timeout, Some(Duration::from_millis(u64::MAX)));
        assert_eq!(roundtrip(&back).timeout, back.timeout);
    }

    #[test]
    fn malformed_specs_error_cleanly() {
        for bad in [
            "not json at all",
            "[1,2,3]",
            r#"{"variant":"undirected"}"#,
            r#"{"variant":"undirected","seed":1}"#,
            r#"{"variant":"bogus","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":-1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"bogus":1}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]],"x":1}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1,2,3]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,5]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1,7]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[0,1]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[["a","b"]]}}"#,
            r#"{"variant":"weighted","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"clients":[0]}"#,
            r#"{"variant":"client-server","seed":1,"graph":{"n":2,"edges":[[0,1]]},"clients":[9],"servers":[0]}"#,
            r#"{"variant":"client-server","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":99999999999999,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"shards":true}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"monotone":1}"#,
        ] {
            assert!(
                matches!(decode_job_spec(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn json_and_wire_submissions_share_a_cache_key() {
        // The same edge set through the JSON decoder and the wire
        // decoder canonicalizes to the same job key, including when
        // the JSON spelling carries self-loops and duplicates.
        let via_json = decode_job_spec(
            br#"{"variant":"undirected","seed":9,"graph":{"n":3,"edges":[[0,1],[1,1],[1,0],[1,2]]}}"#,
        )
        .unwrap();
        let via_wire = match crate::wire::decode_request(
            b"run v1\nvariant undirected\nseed 9\ngraph\n# n 3\n1 2\n0 1\n",
        )
        .unwrap()
        {
            crate::wire::Request::Run(spec) => *spec,
            other => panic!("expected run request, got {other:?}"),
        };
        assert_eq!(
            canonicalize_job(&via_json).unwrap().key,
            canonicalize_job(&via_wire).unwrap().key
        );
    }

    #[test]
    fn response_roundtrips() {
        let resp = JobResponse {
            key: 0xdead_beef_0123_4567,
            kind: VariantKind::ClientServer,
            spanner: vec![0, 3, 9],
            iterations: 7,
            local_rounds: 49,
            converged: true,
            star_fallbacks: 0,
        };
        let encoded = encode_job_response(&resp);
        assert_eq!(decode_job_response(encoded.as_bytes()).unwrap(), resp);
        let empty = JobResponse {
            spanner: vec![],
            ..resp
        };
        assert_eq!(
            decode_job_response(encode_job_response(&empty).as_bytes()).unwrap(),
            empty
        );
        // A size/list mismatch is rejected like the wire decoder does.
        let lying = encoded.replace("\"spanner_size\":3", "\"spanner_size\":2");
        assert!(decode_job_response(lying.as_bytes()).is_err());
    }

    #[test]
    fn head_parsing_basics() {
        let head = parse_head(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nExpect: 100-continue\r\n",
        )
        .unwrap_or_else(|_| panic!("valid head rejected"));
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/jobs");
        assert_eq!(head.query, "");
        assert_eq!(head.content_length, 12);
        assert!(head.keep_alive);
        assert!(head.expect_continue);
        let head = parse_head(b"GET /healthz?probe=1 HTTP/1.0\r\n")
            .unwrap_or_else(|_| panic!("valid head rejected"));
        assert_eq!(head.path, "/healthz", "query is not part of the path");
        assert_eq!(head.query, "probe=1");
        assert!(!head.keep_alive, "HTTP/1.0 defaults to close");
        for bad in [
            &b"GARBAGE\r\n"[..],
            b"GET /x HTTP/2\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
            b"GET /x HTTP/1.1\r\nnocolon\r\n",
        ] {
            assert!(parse_head(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn head_end_finds_both_terminators() {
        assert_eq!(head_end(b"a\r\n\r\nbody"), Some((1, 4)));
        assert_eq!(head_end(b"a\n\nbody"), Some((1, 2)));
        assert_eq!(head_end(b"a\r\nb"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn patch_body_roundtrips_all_op_shapes() {
        let ops = vec![
            DeltaOp::Insert {
                u: 0,
                v: 1,
                weight: None,
                role: None,
            },
            DeltaOp::Insert {
                u: 1,
                v: 2,
                weight: Some(9),
                role: None,
            },
            DeltaOp::Insert {
                u: 2,
                v: 3,
                weight: None,
                role: Some(EdgeRole::Server),
            },
            DeltaOp::Delete { u: 0, v: 1 },
        ];
        let body = encode_graph_patch_body(&ops);
        assert_eq!(
            body, r#"{"insert":[[0,1],[1,2,9],[2,3,"server"]],"delete":[[0,1]]}"#,
            "the PATCH body encoding is part of the API"
        );
        assert_eq!(decode_graph_patch_body(body.as_bytes()).unwrap(), ops);
        for bad in [
            "nope",
            "[1]",
            r#"{"bogus":[]}"#,
            r#"{"insert":[[0]]}"#,
            r#"{"insert":[[0,1,2,3]]}"#,
            r#"{"insert":[[0,1,"maybe"]]}"#,
            r#"{"insert":[[0,1,true]]}"#,
            r#"{"delete":[[0,1,2]]}"#,
            r#"{"delete":[0,1]}"#,
        ] {
            assert!(
                decode_graph_patch_body(bad.as_bytes()).is_err(),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn graph_create_body_reuses_the_job_spec_schema() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let spec = GraphSpec {
            id: "prod.web-1".to_string(),
            instance: VariantInstance::Undirected { graph: g },
            config: EngineConfig::seeded(42),
        };
        let body = encode_graph_create_body(&spec);
        let back = decode_graph_create_body("prod.web-1", body.as_bytes()).unwrap();
        assert_eq!(back.id, "prod.web-1");
        assert_eq!(back.config.seed, 42);
        assert_eq!(back.instance.kind(), VariantKind::Undirected);
        // Execution policy is definitionally absent: a deadline or a
        // shard count would make the graph's bytes depend on how it
        // was served, not what it is.
        let with_timeout = body.trim_end_matches('}').to_string() + r#","timeout_ms":100}"#;
        assert!(decode_graph_create_body("g", with_timeout.as_bytes()).is_err());
        let with_shards = body.trim_end_matches('}').to_string() + r#","shards":4}"#;
        assert!(decode_graph_create_body("g", with_shards.as_bytes()).is_err());
    }

    #[test]
    fn graph_response_bodies_roundtrip() {
        let created = GraphCreated {
            id: "g".to_string(),
            version: 3,
            edges: 17,
            spanner_size: 9,
            existed: true,
        };
        assert_eq!(
            decode_graph_created_body(encode_graph_created_body(&created).as_bytes()).unwrap(),
            created
        );
        let patched = GraphPatched {
            id: "g".to_string(),
            version: 4,
            applied: 2,
            classes: crate::graphs::DeltaClasses {
                commuted: 1,
                repaired: 1,
                recomputed: 0,
            },
            edges: 19,
        };
        assert_eq!(
            decode_graph_patched_body(encode_graph_patched_body(&patched).as_bytes()).unwrap(),
            patched
        );
        for cover_size in [Some(9), None] {
            let meta = GraphMeta {
                id: "g".to_string(),
                kind: VariantKind::Weighted,
                version: 4,
                vertices: 10,
                edges: 19,
                seed: 7,
                cover_size,
                debt: 3,
                classes: crate::graphs::DeltaClasses::default(),
            };
            let body = encode_graph_meta_body(&meta);
            assert_eq!(decode_graph_meta_body(body.as_bytes()).unwrap(), meta);
            if cover_size.is_none() {
                assert!(body.contains("\"cover_size\":null"));
            }
        }
        let spanner = GraphSpannerResult {
            id: "g".to_string(),
            version: 4,
            key: 0xdead_beef,
            kind: VariantKind::Undirected,
            converged: true,
            iterations: 6,
            local_rounds: 42,
            star_fallbacks: 0,
            edges: vec![(0, 1), (2, 5)],
        };
        let body = encode_graph_spanner_body(&spanner);
        assert_eq!(decode_graph_spanner_body(body.as_bytes()).unwrap(), spanner);
        let lying = body.replace("\"spanner_size\":2", "\"spanner_size\":1");
        assert!(decode_graph_spanner_body(lying.as_bytes()).is_err());
    }

    #[test]
    fn error_bodies_carry_stable_codes_and_stay_backward_compatible() {
        // New bodies: `error` first (pre-`code` consumers often
        // pattern-match the prefix), `code` second.
        assert_eq!(
            error_body("busy", "try later"),
            r#"{"error":"try later","code":"busy"}"#
        );
        // The client-side reader accepts old-style bodies (no `code`)
        // for one release: decommissioning them must not break
        // deployed clients mid-upgrade.
        assert_eq!(error_message(br#"{"error":"old style"}"#), "old style");
        assert_eq!(
            error_message(br#"{"error":"new style","code":"busy"}"#),
            "new style"
        );
        // Every JobError variant maps to a status in the table and a
        // code listed on that status's row.
        let variants = [
            JobError::Invalid("x".into()),
            JobError::Cancelled,
            JobError::TimedOut,
            JobError::Busy { retry_after_ms: 1 },
            JobError::Protocol("x".into()),
            JobError::Io("x".into()),
            JobError::Remote("x".into()),
        ];
        for e in &variants {
            let (status, code) = job_error_status_code(e);
            let row = STATUS_TABLE
                .iter()
                .find(|(s, _, _)| *s == status)
                .unwrap_or_else(|| panic!("status {status} missing from STATUS_TABLE"));
            assert!(
                row.1.contains(&format!("`{code}`")),
                "row for {status} does not list code `{code}`"
            );
            assert_ne!(status_reason(status), "Unknown");
        }
        for e in [
            GraphError::NotFound("g".into()),
            GraphError::Conflict("g".into()),
            GraphError::Invalid("x".into()),
            GraphError::Job(JobError::Busy { retry_after_ms: 1 }),
        ] {
            let (status, code) = graph_error_status_code(&e);
            let row = STATUS_TABLE.iter().find(|(s, _, _)| *s == status).unwrap();
            assert!(row.1.contains(&format!("`{code}`")));
            assert_ne!(status_reason(status), "Unknown");
        }
    }

    #[test]
    fn readme_status_table_matches_the_source_of_truth() {
        // The README embeds `status_table_markdown()` between markers;
        // regenerating from [`STATUS_TABLE`] keeps docs and server
        // answers from drifting.
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("read README.md");
        let begin = "<!-- status-table:begin -->\n";
        let end = "<!-- status-table:end -->";
        let start = readme
            .find(begin)
            .expect("README is missing <!-- status-table:begin -->")
            + begin.len();
        let stop = readme[start..]
            .find(end)
            .expect("README is missing <!-- status-table:end -->")
            + start;
        assert_eq!(
            readme[start..stop].trim_end_matches('\n'),
            status_table_markdown().trim_end_matches('\n'),
            "README status table is stale; paste the output of \
             dsa_service::http::status_table_markdown() between the markers"
        );
    }
}
