//! The length-prefixed request/response wire protocol of
//! `spanner-serve`.
//!
//! # Framing
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text. Frames larger than
//! [`MAX_FRAME`] are rejected. A connection carries any number of
//! request frames, each answered by exactly one response frame, until
//! the client closes it.
//!
//! # Requests
//!
//! A request payload is a line-oriented header, one `key value` pair
//! per line, opened by a command line:
//!
//! ```text
//! run v1                  |  stats v1  |  ping v1
//! variant weighted
//! seed 42
//! accept-denominator 8    # optional, default 8
//! monotone 1              # optional, default 1
//! round-densities 1       # optional, default 1
//! max-iterations 1000000  # optional
//! shards 4                # optional, default 1; 0 = one per core;
//!                         # capped at MAX_SHARDS at decode time
//! timeout-ms 2000         # optional
//! clients 0 2 5           # client-server only
//! servers 1 3 4           # client-server only
//! graph                   # the rest is a dsa-graphs edge list
//! # n 5
//! 0 1 3
//! ...
//! ```
//!
//! The graph body is the [`dsa_graphs::io`] text format (weighted for
//! the `weighted` variant, directed for `directed`); `clients` /
//! `servers` list edge ids of the parsed (normalized) edge list.
//!
//! # Responses
//!
//! ```text
//! ok run                  |  ok stats        |  ok ping  |  err <message>  |  busy <retry-after-ms>
//! key 1f2e3d4c5b6a7988    |  {"jobs_...": 1}
//! variant weighted
//! converged 1
//! iterations 12
//! local-rounds 84
//! star-fallbacks 0
//! spanner-size 3
//! spanner 0 4 7
//! ```
//!
//! A `run` response is a pure function of the job spec — no timing, no
//! cached/coalesced flag — so a cache hit is byte-identical to the
//! cold computation of the same spec. `shards` requests parallel
//! in-engine execution; it cannot change the response bytes (the
//! engine is shard-count-deterministic), is not part of the job's
//! cache identity, and may be overridden by the server's `--shards`
//! flag.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::time::Duration;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{io as gio, EdgeId, EdgeSet};

use crate::graphs::{
    valid_graph_id, DeltaOp, EdgeRole, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult,
    GraphSpec,
};
use crate::job::{CanonicalJob, JobError, JobResponse, JobSpec};

/// Upper bound on a frame payload (64 MiB): a million-edge graph fits
/// with a wide margin, while a corrupt length prefix cannot trigger an
/// absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// The protocol version this build speaks. Version 2 adds the `hello`
/// handshake and the `graph-*` named-graph frames; every v1 command is
/// unchanged byte-for-byte, so v1 clients are served without
/// negotiation.
pub const PROTO_VERSION: u64 = 2;

/// Cap applied to a request's `shards` value at decode time (shared
/// with the HTTP facade). The engine already clamps its shard count to
/// `max(64, cores)` internally, so any value at or above that is "as
/// wide as the machine allows" — capping here preserves that meaning
/// (mirroring the `--shards` operator override, which feeds the same
/// clamp) while keeping a hostile `shards 2^63` from being truncated
/// by the `u64 -> usize` conversion on 32-bit targets. Shard count is
/// execution policy, never job identity, so the cap cannot change
/// response bytes.
pub const MAX_SHARDS: u64 = 1 << 16;

/// Decodes a wire/HTTP `shards` value: capped, then safely narrowed.
pub(crate) fn decode_shards(requested: u64) -> usize {
    requested.min(MAX_SHARDS) as usize // dsa-lint: allow(DSA-C001, reason="value capped at MAX_SHARDS, far below usize::MAX, before narrowing")
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_be_bytes())?; // dsa-lint: allow(DSA-C001, reason="asserted payload.len() <= MAX_FRAME, far below u32::MAX, above")
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before the first length
/// byte.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run one spanner job (boxed: a spec carries a whole graph, far
    /// larger than the other variants).
    Run(Box<JobSpec>),
    /// Report the service metrics snapshot as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Protocol negotiation (`hello vN`, v2+). The server answers with
    /// `min(N, PROTO_VERSION)` and its feature list. Optional: a
    /// client may skip the handshake and speak v1 directly.
    Hello {
        /// The highest protocol version the client speaks.
        proto: u64,
    },
    /// Create a named graph (v2).
    GraphCreate(Box<GraphSpec>),
    /// Apply edge deltas to a named graph (v2).
    GraphPatch {
        /// The graph id.
        id: String,
        /// The deltas, applied in order.
        ops: Vec<DeltaOp>,
    },
    /// Read a named graph's metadata/stats (v2).
    GraphGet {
        /// The graph id.
        id: String,
    },
    /// Read a named graph's maintained spanner (v2).
    GraphSpanner {
        /// The graph id.
        id: String,
    },
    /// Retire a named graph (v2).
    GraphDelete {
        /// The graph id.
        id: String,
    },
}

/// A decoded response.
#[derive(Clone, Debug)]
pub enum Response {
    /// The job's result.
    Run(JobResponse),
    /// The metrics snapshot, as one JSON line.
    Stats(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// The server shed the request at admission (overload). The job
    /// was not started; retrying after the hinted delay is safe.
    Busy {
        /// Suggested client wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server rejected or failed the request.
    Error(String),
    /// Answer to [`Request::Hello`].
    Hello {
        /// The negotiated protocol version.
        proto: u64,
        /// Feature tokens the server advertises (e.g. `graphs`).
        features: Vec<String>,
    },
    /// Answer to [`Request::GraphCreate`].
    GraphCreated(GraphCreated),
    /// Answer to [`Request::GraphPatch`].
    GraphPatched(GraphPatched),
    /// Answer to [`Request::GraphGet`].
    GraphMeta(GraphMeta),
    /// Answer to [`Request::GraphSpanner`].
    GraphSpanner(GraphSpannerResult),
    /// Answer to [`Request::GraphDelete`].
    GraphDeleted {
        /// The retired graph's id.
        id: String,
    },
}

fn parse_u64(value: &str, what: &str) -> Result<u64, JobError> {
    value
        .parse()
        .map_err(|_| JobError::Protocol(format!("invalid {what}: `{value}`")))
}

fn parse_flag(value: &str, what: &str) -> Result<bool, JobError> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(JobError::Protocol(format!(
            "invalid {what}: `{value}` (expected 0 or 1)"
        ))),
    }
}

/// Parses a whitespace-separated edge-id list into a set over
/// `0..universe`, rejecting out-of-range ids. Shared by the request
/// decoder and `spanner-cli` so the two never drift.
pub fn parse_id_list(value: &str, universe: usize, what: &str) -> Result<EdgeSet, JobError> {
    let mut set = EdgeSet::new(universe);
    for field in value.split_whitespace() {
        let id = narrow_usize(parse_u64(field, what)?, what)?;
        if id >= universe {
            return Err(JobError::Protocol(format!(
                "{what} id {id} out of range for {universe} edges"
            )));
        }
        set.insert(id);
    }
    Ok(set)
}

/// Encodes a job spec as a `run v1` request payload.
pub fn encode_request(spec: &JobSpec) -> String {
    format!("run v1\n{}", encode_run_body(spec))
}

/// Writes the header lines of a run body: variant, config, and the
/// optional `shards` and `timeout-ms` lines.
fn write_run_header(
    out: &mut String,
    kind: VariantKind,
    config: &EngineConfig,
    timeout: Option<Duration>,
) {
    let _ = write!(
        out,
        "variant {kind}\nseed {}\naccept-denominator {}\nmonotone {}\nround-densities {}\n\
         max-iterations {}\n",
        config.seed,
        config.accept_denominator,
        u8::from(config.monotone_stars),
        u8::from(config.round_densities),
        config.max_iterations,
    );
    if config.num_shards != 1 {
        let _ = writeln!(out, "shards {}", config.num_shards);
    }
    if let Some(t) = timeout {
        // Saturating: `as_millis` is u128 and a pathological Duration
        // (Duration::MAX is ~5.8e14 years) must encode as "wait
        // practically forever", not wrap into a short deadline — and
        // the value must stay parseable by the u64 decoder.
        let _ = writeln!(out, "timeout-ms {}", saturating_millis(t));
    }
}

/// Writes a `clients` or `servers` line.
fn write_id_line(out: &mut String, name: &str, ids: impl Iterator<Item = EdgeId>) {
    out.push_str(name);
    out.push(' ');
    for (i, e) in ids.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        gio::write_decimal(out, e as u64);
    }
    out.push('\n');
}

/// Encodes the body of a `run v1` payload (everything after the
/// command line). Shared with `graph-create v2`, whose body after the
/// `id` line is exactly a run body — sharing the builder (instead of
/// stripping the command line off a full encoding) keeps the
/// relationship structural rather than an assertable invariant.
fn encode_run_body(spec: &JobSpec) -> String {
    let mut out = String::new();
    write_run_header(&mut out, spec.instance.kind(), &spec.config, spec.timeout);
    let graph_text = match &spec.instance {
        VariantInstance::Undirected { graph } => gio::to_edge_list(graph, None),
        VariantInstance::Weighted { graph, weights } => gio::to_edge_list(graph, Some(weights)),
        VariantInstance::Directed { graph } => gio::to_directed_edge_list(graph),
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => {
            write_id_line(&mut out, "clients", clients.iter());
            write_id_line(&mut out, "servers", servers.iter());
            gio::to_edge_list(graph, None)
        }
    };
    out.push_str("graph\n");
    out.push_str(&graph_text);
    out
}

/// Narrows a decoded `u64` into `usize`, failing the request (rather
/// than silently truncating on 32-bit targets) when it does not fit.
/// Shared by every decode path: the C-series lint (`DSA-C001`) bans
/// bare `as` narrowing on decoded values.
pub(crate) fn narrow_usize(x: u64, what: &str) -> Result<usize, JobError> {
    usize::try_from(x).map_err(|_| {
        JobError::Protocol(format!("{what} {x} exceeds this platform's address width"))
    })
}

/// A duration's millisecond count, saturated into `u64` (shared with
/// the HTTP facade's `timeout_ms` encoder).
pub(crate) fn saturating_millis(t: Duration) -> u64 {
    u64::try_from(t.as_millis()).unwrap_or(u64::MAX)
}

/// Encodes the `stats v1` request payload.
pub fn encode_stats_request() -> String {
    "stats v1\n".to_string()
}

/// Encodes the `ping v1` request payload.
pub fn encode_ping_request() -> String {
    "ping v1\n".to_string()
}

/// Encodes a `hello vN` handshake request.
pub fn encode_hello_request(proto: u64) -> String {
    format!("hello v{proto}\n")
}

/// Encodes a named-graph create as a `graph-create v2` payload.
///
/// The body after the `id` line is exactly a `run v1` body (the same
/// headers, the same graph text), so create decoding — and thus the
/// delta log, which stores these bytes — shares every normalization
/// rule with one-shot jobs. Execution policy (shards, timeout, timing)
/// is stripped: it is per-read, never part of a graph's definition.
pub fn encode_graph_create(spec: &GraphSpec) -> String {
    let mut config = spec.config.clone();
    config.num_shards = 1;
    config.cancel = None;
    config.collect_timings = false;
    let job = JobSpec {
        instance: spec.instance.clone(),
        config,
        timeout: None,
    };
    format!("graph-create v2\nid {}\n{}", spec.id, encode_run_body(&job))
}

/// Encodes a delta batch as a `graph-patch v2` payload. Op lines are
/// `+ u v` (insert), `+ u v <weight>` (weighted insert),
/// `+ u v client|server|both` (client-server insert), `- u v` (delete).
pub fn encode_graph_patch(id: &str, ops: &[DeltaOp]) -> String {
    let mut out = format!("graph-patch v2\nid {id}\nops\n");
    for op in ops {
        match *op {
            DeltaOp::Insert { u, v, weight, role } => {
                out.push_str(&format!("+ {u} {v}"));
                if let Some(w) = weight {
                    out.push_str(&format!(" {w}"));
                }
                if let Some(r) = role {
                    out.push_str(&format!(" {}", r.as_str()));
                }
                out.push('\n');
            }
            DeltaOp::Delete { u, v } => out.push_str(&format!("- {u} {v}\n")),
        }
    }
    out
}

/// Encodes a `graph-get v2` metadata request.
pub fn encode_graph_get(id: &str) -> String {
    format!("graph-get v2\nid {id}\n")
}

/// Encodes a `graph-spanner v2` read request.
pub fn encode_graph_spanner_request(id: &str) -> String {
    format!("graph-spanner v2\nid {id}\n")
}

/// Encodes a `graph-delete v2` request.
pub fn encode_graph_delete(id: &str) -> String {
    format!("graph-delete v2\nid {id}\n")
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, JobError> {
    Ok(match decode_frame(payload)? {
        Frame::Run(job) => Request::Run(Box::new(job.to_spec())),
        Frame::Other(request) => request,
    })
}

/// A decoded request frame as the server consumes it: `run` frames
/// stay in canonical form, so a cache hit never builds a graph.
pub(crate) enum Frame {
    /// A `run v1` job.
    Run(Box<CanonicalJob>),
    /// Any other request.
    Other(Request),
}

/// Decodes one request payload (the form behind [`decode_request`]).
pub(crate) fn decode_frame(payload: &[u8]) -> Result<Frame, JobError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JobError::Protocol("request is not UTF-8".into()))?;
    let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
    let request = match head.trim_end() {
        "run v1" => return Ok(Frame::Run(Box::new(decode_run_job(rest)?))),
        "stats v1" => Request::Stats,
        "ping v1" => Request::Ping,
        "graph-create v2" => decode_graph_create_request(rest)?,
        "graph-patch v2" => decode_graph_patch_request(rest)?,
        "graph-get v2" => decode_graph_id_request(rest, |id| Request::GraphGet { id })?,
        "graph-spanner v2" => decode_graph_id_request(rest, |id| Request::GraphSpanner { id })?,
        "graph-delete v2" => decode_graph_id_request(rest, |id| Request::GraphDelete { id })?,
        other => {
            let Some(version) = other.strip_prefix("hello v") else {
                return Err(JobError::Protocol(format!(
                    "unknown command `{other}` (expected `hello vN`, `run v1`, `stats v1`, \
                     `ping v1`, or a `graph-create|patch|get|spanner|delete v2` frame)"
                )));
            };
            let proto = parse_u64(version, "hello protocol version")?;
            if proto == 0 {
                return Err(JobError::Protocol("protocol versions start at 1".into()));
            }
            Request::Hello { proto }
        }
    };
    Ok(Frame::Other(request))
}

/// Parses an `id <name>` line, validating the graph-id alphabet.
fn decode_id_line(line: &str) -> Result<String, JobError> {
    let line = line.trim();
    let id = line
        .strip_prefix("id ")
        .ok_or_else(|| JobError::Protocol(format!("expected `id <name>` line, got `{line}`")))?
        .trim();
    if !valid_graph_id(id) {
        return Err(JobError::Protocol(format!(
            "invalid graph id `{id}` (1-64 characters from [a-zA-Z0-9._-])"
        )));
    }
    Ok(id.to_string())
}

fn decode_graph_create_request(body: &str) -> Result<Request, JobError> {
    let (id_line, rest) = body
        .split_once('\n')
        .ok_or_else(|| JobError::Protocol("graph-create needs an `id` line".into()))?;
    let id = decode_id_line(id_line)?;
    // The body after `id` is a run-v1 body: one decoder, one set of
    // normalization and hardening rules (including the vertex-count
    // bound) for jobs, graph creates, and the delta log.
    let job = decode_run_spec(rest)?;
    if job.timeout.is_some() {
        return Err(JobError::Protocol(
            "graph-create does not take `timeout-ms` (timeouts are per-read)".into(),
        ));
    }
    if job.config.num_shards != 1 {
        return Err(JobError::Protocol(
            "graph-create does not take `shards` (execution policy is per-read)".into(),
        ));
    }
    Ok(Request::GraphCreate(Box::new(GraphSpec {
        id,
        instance: job.instance,
        config: job.config,
    })))
}

fn decode_graph_patch_request(body: &str) -> Result<Request, JobError> {
    let mut lines = body.lines();
    let id = decode_id_line(
        lines
            .next()
            .ok_or_else(|| JobError::Protocol("graph-patch needs an `id` line".into()))?,
    )?;
    match lines.next().map(str::trim) {
        Some("ops") => {}
        other => {
            return Err(JobError::Protocol(format!(
                "expected `ops` line after the id, got `{}`",
                other.unwrap_or("<end of frame>")
            )))
        }
    }
    let ops = parse_delta_lines(lines)?;
    Ok(Request::GraphPatch { id, ops })
}

/// Parses a block of delta-op lines — `+ u v [weight|client|server|both]`
/// inserts, `- u v` deletes; blank lines and `#` comments are skipped.
/// The `spanner-cli graph patch` entry point; the `graph-patch` frame
/// decoder parses its op lines with the same function, so CLI and wire
/// never drift.
pub fn parse_delta_ops(text: &str) -> Result<Vec<DeltaOp>, JobError> {
    parse_delta_lines(text.lines())
}

/// [`parse_delta_ops`] over lines already split.
fn parse_delta_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Vec<DeltaOp>, JobError> {
    let mut ops = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(decode_delta_op(line)?);
    }
    Ok(ops)
}

/// Parses one delta-op line: `+ u v [weight|role]` or `- u v`. The
/// third insert operand disambiguates lexically (all digits: weight;
/// role word: role) so the decoder needs no variant knowledge — the
/// registry validates variant fit.
fn decode_delta_op(line: &str) -> Result<DeltaOp, JobError> {
    let malformed = || {
        JobError::Protocol(format!(
            "malformed delta op `{line}` (expected `+ u v [weight|client|server|both]` or `- u v`)"
        ))
    };
    let endpoint = |raw: &str| {
        parse_u64(raw, "delta endpoint").and_then(|x| narrow_usize(x, "delta endpoint"))
    };
    // Up to five fields: a fifth one only makes the line malformed.
    let mut fields = line.split_whitespace();
    let fields = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    );
    match fields {
        (Some("+"), Some(u), Some(v), None, _) => Ok(DeltaOp::Insert {
            u: endpoint(u)?,
            v: endpoint(v)?,
            weight: None,
            role: None,
        }),
        (Some("+"), Some(u), Some(v), Some(extra), None) => {
            let (u, v) = (endpoint(u)?, endpoint(v)?);
            if extra.bytes().all(|b| b.is_ascii_digit()) {
                Ok(DeltaOp::Insert {
                    u,
                    v,
                    weight: Some(parse_u64(extra, "edge weight")?),
                    role: None,
                })
            } else if let Some(role) = EdgeRole::parse(extra) {
                Ok(DeltaOp::Insert {
                    u,
                    v,
                    weight: None,
                    role: Some(role),
                })
            } else {
                Err(malformed())
            }
        }
        (Some("-"), Some(u), Some(v), None, _) => Ok(DeltaOp::Delete {
            u: endpoint(u)?,
            v: endpoint(v)?,
        }),
        _ => Err(malformed()),
    }
}

fn decode_graph_id_request(
    body: &str,
    build: impl FnOnce(String) -> Request,
) -> Result<Request, JobError> {
    let id_line = body.split('\n').next().unwrap_or("");
    Ok(build(decode_id_line(id_line)?))
}

/// Decodes a run-v1 body into its job spec (shared by `run v1` and
/// `graph-create v2`, which embeds the same body after its `id` line):
/// the adapter over [`decode_run_job`] that rebuilds the instance in
/// submitted edge order.
fn decode_run_spec(body: &str) -> Result<Box<JobSpec>, JobError> {
    decode_run_job(body).map(|job| Box::new(job.to_spec()))
}

/// The header lines of a run-v1 body, and the graph section after
/// them.
pub(crate) struct RunHeaders<'a> {
    pub variant: VariantKind,
    pub config: EngineConfig,
    pub timeout: Option<Duration>,
    pub clients: Option<String>,
    pub servers: Option<String>,
    pub graph: &'a str,
}

/// Parses the header lines of a run-v1 body up to its `graph` line.
pub(crate) fn parse_run_headers(body: &str) -> Result<RunHeaders<'_>, JobError> {
    let mut variant: Option<VariantKind> = None;
    let mut seed: Option<u64> = None;
    let mut accept_denominator: Option<u64> = None;
    let mut monotone: Option<bool> = None;
    let mut round_densities: Option<bool> = None;
    let mut max_iterations: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut timeout: Option<Duration> = None;
    let mut clients: Option<String> = None;
    let mut servers: Option<String> = None;
    let mut graph: Option<&str> = None;

    let mut rest = body;
    while !rest.is_empty() {
        let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
        let line_trimmed = line.trim();
        if line_trimmed == "graph" {
            graph = Some(tail);
            break;
        }
        rest = tail;
        if line_trimmed.is_empty() {
            continue;
        }
        // A bare key (e.g. `clients` with an empty id list) carries
        // an empty value.
        let (key, value) = line_trimmed.split_once(' ').unwrap_or((line_trimmed, ""));
        let value = value.trim();
        match key {
            "variant" => variant = Some(value.parse::<VariantKind>().map_err(JobError::Protocol)?),
            "seed" => seed = Some(parse_u64(value, "seed")?),
            "accept-denominator" => {
                accept_denominator = Some(parse_u64(value, "accept-denominator")?)
            }
            "monotone" => monotone = Some(parse_flag(value, "monotone")?),
            "round-densities" => round_densities = Some(parse_flag(value, "round-densities")?),
            "max-iterations" => max_iterations = Some(parse_u64(value, "max-iterations")?),
            "shards" => shards = Some(decode_shards(parse_u64(value, "shards")?)),
            "timeout-ms" => timeout = Some(Duration::from_millis(parse_u64(value, "timeout-ms")?)),
            "clients" => clients = Some(value.to_string()),
            "servers" => servers = Some(value.to_string()),
            other => return Err(JobError::Protocol(format!("unknown header `{other}`"))),
        }
    }

    let variant = variant.ok_or_else(|| JobError::Protocol("missing `variant` header".into()))?;
    let seed = seed.ok_or_else(|| JobError::Protocol("missing `seed` header".into()))?;
    let graph = graph.ok_or_else(|| JobError::Protocol("missing `graph` section".into()))?;
    check_declared_vertices(graph)?;

    let mut config = EngineConfig::seeded(seed);
    if let Some(d) = accept_denominator {
        if d == 0 {
            return Err(JobError::Protocol("accept-denominator must be >= 1".into()));
        }
        config.accept_denominator = d;
    }
    if let Some(m) = monotone {
        config.monotone_stars = m;
    }
    if let Some(r) = round_densities {
        config.round_densities = r;
    }
    if let Some(m) = max_iterations {
        config.max_iterations = m;
    }
    if let Some(s) = shards {
        config.num_shards = s;
    }
    Ok(RunHeaders {
        variant,
        config,
        timeout,
        clients,
        servers,
        graph,
    })
}

/// Decodes a run-v1 body straight into a canonical job: the graph
/// section goes through [`gio::parse_canonical_edge_list`], so no
/// graph is built. The bad-graph errors are the ones the graph
/// builders gave, line numbers included.
pub(crate) fn decode_run_job(body: &str) -> Result<CanonicalJob, JobError> {
    let h = parse_run_headers(body)?;
    let directed = h.variant == VariantKind::Directed;
    let edges = gio::parse_canonical_edge_list(h.graph, directed)
        .map_err(|e| JobError::Protocol(format!("bad graph: {e}")))?;
    let weighted = edges.keys.weights().is_some();
    let roles = match h.variant {
        VariantKind::Undirected if weighted => {
            return Err(JobError::Protocol(
                "undirected variant takes an unweighted edge list".into(),
            ))
        }
        VariantKind::Weighted if !weighted => {
            return Err(JobError::Protocol(
                "weighted variant needs `u v w` edge lines".into(),
            ))
        }
        VariantKind::ClientServer if weighted => {
            return Err(JobError::Protocol(
                "client-server variant takes an unweighted edge list".into(),
            ))
        }
        VariantKind::ClientServer => {
            let m = edges.keys.num_edges();
            let clients = parse_id_list(
                h.clients
                    .as_deref()
                    .ok_or_else(|| JobError::Protocol("missing `clients` header".into()))?,
                m,
                "client",
            )?;
            let servers = parse_id_list(
                h.servers
                    .as_deref()
                    .ok_or_else(|| JobError::Protocol("missing `servers` header".into()))?,
                m,
                "server",
            )?;
            Some((clients, servers))
        }
        _ => None,
    };
    Ok(CanonicalJob::new(
        h.variant,
        edges,
        roles.as_ref().map(|(c, s)| (c, s)),
        h.config,
        h.timeout,
    ))
}

/// Vertex count every request may declare regardless of its size, so
/// sparse graphs over large id spaces (mostly isolated vertices) stay
/// servable over the wire.
pub const MIN_VERTEX_ALLOWANCE: u64 = 1 << 20;

/// Rejects a graph body whose `# n <count>` header declares more
/// vertices than the request can justify.
///
/// The frame cap bounds payload *bytes*, but `Graph::new(n)` allocates
/// per declared vertex, so without this check a ~60-byte frame could
/// demand gigabytes. The bound is `max(2 * body length + 1024,`
/// [`MIN_VERTEX_ALLOWANCE`]`)`: every non-isolated vertex occupies at
/// least one byte of some edge line, and the absolute allowance keeps
/// legitimate sparse graphs (big id space, few edges) inside the
/// protocol while capping a hostile header at ~megabytes of
/// allocation. The scan mirrors `dsa_graphs::io`'s header rule: the
/// first `# n <count>` comment wins.
fn check_declared_vertices(graph_text: &str) -> Result<(), JobError> {
    for line in graph_text.lines() {
        let Some(rest) = line.trim().strip_prefix('#') else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // dsa-lint: allow(DSA-P003, reason="short-circuit: fields[0] only reached when len == 2")
        if fields.len() != 2 || fields[0] != "n" {
            continue;
        }
        // Unparseable counts fall through to the io parser's error.
        // dsa-lint: allow(DSA-P003, reason="arity checked just above, fields.len() == 2")
        if let Ok(n) = fields[1].parse::<u64>() {
            let limit = (2 * graph_text.len() as u64 + 1024).max(MIN_VERTEX_ALLOWANCE);
            if n > limit {
                return Err(JobError::Protocol(format!(
                    "declared vertex count {n} exceeds the request-size bound {limit}"
                )));
            }
        }
        return Ok(());
    }
    Ok(())
}

/// Encodes a job result as an `ok run` response payload.
///
/// Deterministic in the response: the serving path (cold, cached,
/// coalesced) leaves no trace in the bytes. Written straight into one
/// buffer.
pub fn encode_run_response(resp: &JobResponse) -> String {
    let mut out = String::with_capacity(160 + 6 * resp.spanner.len());
    let _ = write!(
        out,
        "ok run\nkey {:016x}\nvariant {}\nconverged {}\niterations {}\nlocal-rounds {}\n\
         star-fallbacks {}\nspanner-size {}\n",
        resp.key,
        resp.kind,
        u8::from(resp.converged),
        resp.iterations,
        resp.local_rounds,
        resp.star_fallbacks,
        resp.spanner.len(),
    );
    write_id_line(&mut out, "spanner", resp.spanner.iter().copied());
    out
}

/// Encodes a metrics snapshot as an `ok stats` response payload.
pub fn encode_stats_response(json: &str) -> String {
    format!("ok stats\n{json}\n")
}

/// Encodes the `ok ping` response payload.
pub fn encode_pong_response() -> String {
    "ok ping\n".to_string()
}

/// Encodes an error response payload.
pub fn encode_error_response(message: &str) -> String {
    // Keep the message single-line so the response stays parseable.
    format!("err {}\n", message.replace('\n', " "))
}

/// Encodes a `busy` response payload: the server shed the request at
/// admission and the client should retry after `retry_after_ms`.
pub fn encode_busy_response(retry_after_ms: u64) -> String {
    format!("busy {retry_after_ms}\n")
}

/// Encodes an `ok hello` handshake response.
pub fn encode_hello_response(proto: u64, features: &[&str]) -> String {
    if features.is_empty() {
        format!("ok hello\nproto {proto}\nfeatures\n")
    } else {
        format!("ok hello\nproto {proto}\nfeatures {}\n", features.join(" "))
    }
}

/// Encodes an `ok graph-create` response.
pub fn encode_graph_created(r: &GraphCreated) -> String {
    format!(
        "ok graph-create\nid {}\nversion {}\nedges {}\nspanner-size {}\nexisted {}\n",
        r.id,
        r.version,
        r.edges,
        r.spanner_size,
        u8::from(r.existed),
    )
}

/// Encodes an `ok graph-patch` response. The deprecated `commuted`,
/// `repaired` and `recomputed` lines always read 0.
pub fn encode_graph_patched(r: &GraphPatched) -> String {
    format!(
        "ok graph-patch\nid {}\nversion {}\napplied {}\ncommuted {}\nrepaired {}\nrecomputed {}\nedges {}\n",
        r.id,
        r.version,
        r.applied,
        r.classes.commuted,
        r.classes.repaired,
        r.classes.recomputed,
        r.edges,
    )
}

/// Encodes an `ok graph-get` metadata response. The deprecated
/// `cover-size`, `debt` and class lines always read `none` and 0.
pub fn encode_graph_meta(r: &GraphMeta) -> String {
    let cover = match r.cover_size {
        Some(n) => n.to_string(),
        None => "none".to_string(),
    };
    format!(
        "ok graph-get\nid {}\nvariant {}\nversion {}\nvertices {}\nedges {}\nseed {}\ncover-size {cover}\ndebt {}\ncommuted {}\nrepaired {}\nrecomputed {}\n",
        r.id,
        r.kind,
        r.version,
        r.vertices,
        r.edges,
        r.seed,
        r.debt,
        r.classes.commuted,
        r.classes.repaired,
        r.classes.recomputed,
    )
}

/// Encodes an `ok graph-spanner` response: the header, then one `u v`
/// line per spanner edge. Deterministic for a given delta history.
pub fn encode_graph_spanner_response(r: &GraphSpannerResult) -> String {
    let mut out = format!(
        "ok graph-spanner\nid {}\nversion {}\nkey {:016x}\nvariant {}\nconverged {}\niterations {}\nlocal-rounds {}\nstar-fallbacks {}\nspanner-size {}\nspanner\n",
        r.id,
        r.version,
        r.key,
        r.kind,
        u8::from(r.converged),
        r.iterations,
        r.local_rounds,
        r.star_fallbacks,
        r.edges.len(),
    );
    for &(u, v) in &r.edges {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Encodes an `ok graph-delete` response.
pub fn encode_graph_deleted(id: &str) -> String {
    format!("ok graph-delete\nid {id}\n")
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, JobError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JobError::Protocol("response is not UTF-8".into()))?;
    let (head, body) = text.split_once('\n').unwrap_or((text, ""));
    let head = head.trim_end();
    if let Some(message) = head.strip_prefix("err ") {
        return Ok(Response::Error(message.to_string()));
    }
    if let Some(ms) = head.strip_prefix("busy ") {
        let retry_after_ms = parse_u64(ms.trim(), "busy retry hint")?;
        return Ok(Response::Busy { retry_after_ms });
    }
    match head {
        "ok ping" => Ok(Response::Pong),
        "ok stats" => Ok(Response::Stats(body.trim_end().to_string())),
        "ok run" => decode_run_response(body),
        "ok hello" => decode_hello_response(body),
        "ok graph-create" => decode_graph_created(body),
        "ok graph-patch" => decode_graph_patched(body),
        "ok graph-get" => decode_graph_meta(body),
        "ok graph-spanner" => decode_graph_spanner(body),
        "ok graph-delete" => {
            let id = decode_id_line(body.lines().next().unwrap_or(""))?;
            Ok(Response::GraphDeleted { id })
        }
        other => Err(JobError::Protocol(format!(
            "unknown response head `{other}`"
        ))),
    }
}

fn decode_hello_response(body: &str) -> Result<Response, JobError> {
    let mut proto = None;
    let mut features = None;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(' ').unwrap_or((line, ""));
        match k {
            "proto" => proto = Some(parse_u64(v.trim(), "hello proto")?),
            "features" => {
                features = Some(v.split_whitespace().map(str::to_string).collect::<Vec<_>>())
            }
            other => return Err(JobError::Protocol(format!("unknown field `{other}`"))),
        }
    }
    Ok(Response::Hello {
        proto: proto.ok_or_else(|| JobError::Protocol("missing `proto` field".into()))?,
        features: features.unwrap_or_default(),
    })
}

/// Collects `key value` body lines into a map, erroring on repeats.
fn decode_kv_body(body: &str) -> Result<std::collections::HashMap<String, String>, JobError> {
    let mut fields = std::collections::HashMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(' ').unwrap_or((line, ""));
        if fields.insert(k.to_string(), v.trim().to_string()).is_some() {
            return Err(JobError::Protocol(format!("repeated field `{k}`")));
        }
    }
    Ok(fields)
}

fn take_field(
    fields: &mut std::collections::HashMap<String, String>,
    key: &str,
) -> Result<String, JobError> {
    fields
        .remove(key)
        .ok_or_else(|| JobError::Protocol(format!("missing `{key}` field")))
}

fn take_u64(
    fields: &mut std::collections::HashMap<String, String>,
    key: &str,
) -> Result<u64, JobError> {
    parse_u64(&take_field(fields, key)?, key)
}

fn take_classes(
    fields: &mut std::collections::HashMap<String, String>,
) -> Result<crate::graphs::DeltaClasses, JobError> {
    Ok(crate::graphs::DeltaClasses {
        commuted: take_u64(fields, "commuted")?,
        repaired: take_u64(fields, "repaired")?,
        recomputed: take_u64(fields, "recomputed")?,
    })
}

fn decode_graph_created(body: &str) -> Result<Response, JobError> {
    let mut f = decode_kv_body(body)?;
    Ok(Response::GraphCreated(GraphCreated {
        id: take_field(&mut f, "id")?,
        version: take_u64(&mut f, "version")?,
        edges: narrow_usize(take_u64(&mut f, "edges")?, "edges")?,
        spanner_size: narrow_usize(take_u64(&mut f, "spanner-size")?, "spanner-size")?,
        existed: parse_flag(&take_field(&mut f, "existed")?, "existed")?,
    }))
}

fn decode_graph_patched(body: &str) -> Result<Response, JobError> {
    let mut f = decode_kv_body(body)?;
    Ok(Response::GraphPatched(GraphPatched {
        id: take_field(&mut f, "id")?,
        version: take_u64(&mut f, "version")?,
        applied: narrow_usize(take_u64(&mut f, "applied")?, "applied")?,
        classes: take_classes(&mut f)?,
        edges: narrow_usize(take_u64(&mut f, "edges")?, "edges")?,
    }))
}

fn decode_graph_meta(body: &str) -> Result<Response, JobError> {
    let mut f = decode_kv_body(body)?;
    let cover = take_field(&mut f, "cover-size")?;
    let cover_size = if cover == "none" {
        None
    } else {
        Some(narrow_usize(
            parse_u64(&cover, "cover-size")?,
            "cover-size",
        )?)
    };
    Ok(Response::GraphMeta(GraphMeta {
        id: take_field(&mut f, "id")?,
        kind: take_field(&mut f, "variant")?
            .parse::<VariantKind>()
            .map_err(JobError::Protocol)?,
        version: take_u64(&mut f, "version")?,
        vertices: narrow_usize(take_u64(&mut f, "vertices")?, "vertices")?,
        edges: narrow_usize(take_u64(&mut f, "edges")?, "edges")?,
        seed: take_u64(&mut f, "seed")?,
        cover_size,
        debt: narrow_usize(take_u64(&mut f, "debt")?, "debt")?,
        classes: take_classes(&mut f)?,
    }))
}

fn decode_graph_spanner(body: &str) -> Result<Response, JobError> {
    // The header is `key value` lines up to the bare `spanner` line;
    // everything after is `u v` edge lines.
    let (header, edge_lines) = body.split_once("\nspanner\n").ok_or_else(|| {
        JobError::Protocol("missing `spanner` section in graph-spanner response".into())
    })?;
    let mut f = decode_kv_body(header)?;
    let size = narrow_usize(take_u64(&mut f, "spanner-size")?, "spanner-size")?;
    let mut edges = Vec::with_capacity(size);
    for line in edge_lines.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (u, v) = line
            .split_once(' ')
            .ok_or_else(|| JobError::Protocol(format!("malformed spanner edge `{line}`")))?;
        edges.push((
            narrow_usize(
                parse_u64(u.trim(), "spanner edge endpoint")?,
                "spanner edge endpoint",
            )?,
            narrow_usize(
                parse_u64(v.trim(), "spanner edge endpoint")?,
                "spanner edge endpoint",
            )?,
        ));
    }
    if edges.len() != size {
        return Err(JobError::Protocol(format!(
            "spanner-size {size} does not match {} listed edges",
            edges.len()
        )));
    }
    Ok(Response::GraphSpanner(GraphSpannerResult {
        id: take_field(&mut f, "id")?,
        version: take_u64(&mut f, "version")?,
        key: u64::from_str_radix(&take_field(&mut f, "key")?, 16)
            .map_err(|_| JobError::Protocol("invalid key".into()))?,
        kind: take_field(&mut f, "variant")?
            .parse::<VariantKind>()
            .map_err(JobError::Protocol)?,
        converged: parse_flag(&take_field(&mut f, "converged")?, "converged")?,
        iterations: take_u64(&mut f, "iterations")?,
        local_rounds: take_u64(&mut f, "local-rounds")?,
        star_fallbacks: take_u64(&mut f, "star-fallbacks")?,
        edges,
    }))
}

fn decode_run_response(body: &str) -> Result<Response, JobError> {
    let mut key = None;
    let mut kind = None;
    let mut converged = None;
    let mut iterations = None;
    let mut local_rounds = None;
    let mut star_fallbacks = None;
    let mut spanner_size = None;
    let mut spanner = None;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = match line.split_once(' ') {
            Some(pair) => pair,
            // `spanner ` with an empty id list splits to a bare key.
            None if line == "spanner" => ("spanner", ""),
            None => {
                return Err(JobError::Protocol(format!(
                    "malformed response line `{line}`"
                )))
            }
        };
        let v = v.trim();
        match k {
            "key" => {
                key = Some(
                    u64::from_str_radix(v, 16)
                        .map_err(|_| JobError::Protocol(format!("invalid key `{v}`")))?,
                )
            }
            "variant" => kind = Some(v.parse::<VariantKind>().map_err(JobError::Protocol)?),
            "converged" => converged = Some(parse_flag(v, "converged")?),
            "iterations" => iterations = Some(parse_u64(v, "iterations")?),
            "local-rounds" => local_rounds = Some(parse_u64(v, "local-rounds")?),
            "star-fallbacks" => star_fallbacks = Some(parse_u64(v, "star-fallbacks")?),
            "spanner-size" => {
                spanner_size = Some(narrow_usize(parse_u64(v, "spanner-size")?, "spanner-size")?)
            }
            "spanner" => {
                spanner = Some(
                    v.split_whitespace()
                        .map(|f| {
                            parse_u64(f, "spanner id").and_then(|x| narrow_usize(x, "spanner id"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            other => return Err(JobError::Protocol(format!("unknown field `{other}`"))),
        }
    }
    let missing = |what: &str| JobError::Protocol(format!("missing `{what}` field"));
    let spanner = spanner.ok_or_else(|| missing("spanner"))?;
    let size = spanner_size.ok_or_else(|| missing("spanner-size"))?;
    if spanner.len() != size {
        return Err(JobError::Protocol(format!(
            "spanner-size {size} does not match {} listed ids",
            spanner.len()
        )));
    }
    Ok(Response::Run(JobResponse {
        key: key.ok_or_else(|| missing("key"))?,
        kind: kind.ok_or_else(|| missing("variant"))?,
        spanner,
        iterations: iterations.ok_or_else(|| missing("iterations"))?,
        local_rounds: local_rounds.ok_or_else(|| missing("local-rounds"))?,
        converged: converged.ok_or_else(|| missing("converged"))?,
        star_fallbacks: star_fallbacks.ok_or_else(|| missing("star-fallbacks"))?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_graphs::{EdgeWeights, Graph};

    fn roundtrip_spec(spec: &JobSpec) -> JobSpec {
        let encoded = encode_request(spec);
        match decode_request(encoded.as_bytes()).unwrap() {
            Request::Run(spec) => *spec,
            other => panic!("expected run request, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn run_request_roundtrips_all_variants() {
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
            let back = roundtrip_spec(spec);
            assert_eq!(back.instance.kind(), spec.instance.kind());
            assert_eq!(back.config.seed, spec.config.seed);
            // The canonical keys agree, which is the identity the
            // service cares about.
            assert_eq!(
                crate::job::canonicalize_job(&back).unwrap().key,
                crate::job::canonicalize_job(spec).unwrap().key,
            );
        }
    }

    #[test]
    fn run_request_carries_config_and_timeout() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 9);
        spec.config.accept_denominator = 16;
        spec.config.monotone_stars = false;
        spec.config.round_densities = false;
        spec.config.max_iterations = 12_345;
        spec.config.num_shards = 4;
        spec.timeout = Some(Duration::from_millis(1500));
        let back = roundtrip_spec(&spec);
        assert_eq!(back.config.accept_denominator, 16);
        assert!(!back.config.monotone_stars);
        assert!(!back.config.round_densities);
        assert_eq!(back.config.max_iterations, 12_345);
        assert_eq!(back.config.num_shards, 4);
        assert_eq!(back.timeout, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn shards_header_is_optional_and_roundtrips_auto() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        // Default (1) is omitted from the encoding and decodes back.
        let spec = JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 1);
        assert!(!encode_request(&spec).contains("shards"));
        assert_eq!(roundtrip_spec(&spec).config.num_shards, 1);
        // Explicit 0 ("one shard per core") survives the roundtrip.
        let mut auto = spec.clone();
        auto.config.num_shards = 0;
        assert!(encode_request(&auto).contains("shards 0\n"));
        assert_eq!(roundtrip_spec(&auto).config.num_shards, 0);
    }

    #[test]
    fn absurd_shard_counts_are_capped_at_decode() {
        // A hostile `shards 2^63` must not truncate through `as usize`
        // on 32-bit targets; it is capped (the engine clamps further).
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        spec.config.num_shards = usize::MAX;
        let back = roundtrip_spec(&spec);
        assert_eq!(back.config.num_shards as u64, MAX_SHARDS);
        let explicit =
            "run v1\nvariant undirected\nseed 1\nshards 9223372036854775808\ngraph\n# n 3\n0 1\n1 2\n";
        match decode_request(explicit.as_bytes()).unwrap() {
            Request::Run(spec) => assert_eq!(spec.config.num_shards as u64, MAX_SHARDS),
            other => panic!("expected run request, got {other:?}"),
        }
        // Everything at or below the cap passes through untouched.
        assert_eq!(decode_shards(0), 0);
        assert_eq!(decode_shards(8), 8);
        assert_eq!(decode_shards(MAX_SHARDS), MAX_SHARDS as usize);
    }

    #[test]
    fn pathological_timeouts_saturate_not_wrap() {
        // Duration::MAX.as_millis() far exceeds u64; the encoder must
        // saturate (previously the HTTP encoder wrapped via `as u64`
        // and the wire encoder emitted an unparseable u128).
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        spec.timeout = Some(Duration::MAX);
        let encoded = encode_request(&spec);
        assert!(
            encoded.contains(&format!("timeout-ms {}\n", u64::MAX)),
            "expected saturated timeout in {encoded:?}"
        );
        let back = roundtrip_spec(&spec);
        assert_eq!(back.timeout, Some(Duration::from_millis(u64::MAX)));
        // And the saturated form is a fixed point of the roundtrip.
        assert_eq!(roundtrip_spec(&back).timeout, back.timeout);
    }

    #[test]
    fn run_response_roundtrips() {
        let resp = JobResponse {
            key: 0xdead_beef_0123_4567,
            kind: VariantKind::ClientServer,
            spanner: vec![0, 3, 9],
            iterations: 7,
            local_rounds: 49,
            converged: true,
            star_fallbacks: 0,
        };
        let encoded = encode_run_response(&resp);
        match decode_response(encoded.as_bytes()).unwrap() {
            Response::Run(back) => assert_eq!(back, resp),
            other => panic!("expected run response, got {other:?}"),
        }
        // Empty spanners survive too.
        let empty = JobResponse {
            spanner: vec![],
            ..resp
        };
        match decode_response(encode_run_response(&empty).as_bytes()).unwrap() {
            Response::Run(back) => assert_eq!(back, empty),
            other => panic!("expected run response, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        for bad in [
            "bogus v1\n",
            "run v1\nseed 1\ngraph\n# n 2\n0 1\n", // missing variant
            "run v1\nvariant undirected\ngraph\n# n 2\n0 1\n", // missing seed
            "run v1\nvariant undirected\nseed 1\n", // missing graph
            "run v1\nvariant undirected\nseed 1\ngraph\n0 1\n", // headerless graph
            "run v1\nvariant weighted\nseed 1\ngraph\n# n 2\n0 1\n", // weights missing
            "run v1\nvariant client-server\nseed 1\nclients 9\nservers 0\ngraph\n# n 2\n0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn absurd_vertex_counts_are_rejected_before_allocation() {
        let bad = "run v1\nvariant undirected\nseed 1\ngraph\n# n 9999999999999\n0 1\n";
        match decode_request(bad.as_bytes()) {
            Err(JobError::Protocol(m)) => assert!(m.contains("vertex count"), "{m}"),
            other => panic!("accepted absurd n: {other:?}"),
        }
        // A realistic header passes, including sparse graphs over a
        // large id space (isolated vertices up to the allowance).
        let ok = "run v1\nvariant undirected\nseed 1\ngraph\n# n 500\n0 1\n";
        assert!(decode_request(ok.as_bytes()).is_ok());
        let sparse = format!(
            "run v1\nvariant undirected\nseed 1\ngraph\n# n {}\n0 1\n",
            MIN_VERTEX_ALLOWANCE
        );
        assert!(decode_request(sparse.as_bytes()).is_ok());
    }

    #[test]
    fn busy_responses_roundtrip() {
        let enc = encode_busy_response(1_250);
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 1_250),
            other => panic!("expected busy, got {other:?}"),
        }
        // A garbled hint is a protocol error, not a panic.
        assert!(matches!(
            decode_response(b"busy soon\n"),
            Err(JobError::Protocol(_))
        ));
    }

    #[test]
    fn hello_handshake_roundtrips() {
        match decode_request(encode_hello_request(2).as_bytes()).unwrap() {
            Request::Hello { proto } => assert_eq!(proto, 2),
            other => panic!("expected hello, got {other:?}"),
        }
        // Future clients may announce higher versions; v0 is nonsense.
        assert!(matches!(
            decode_request(b"hello v17\n"),
            Ok(Request::Hello { proto: 17 })
        ));
        assert!(matches!(
            decode_request(b"hello v0\n"),
            Err(JobError::Protocol(_))
        ));
        let enc = encode_hello_response(PROTO_VERSION, &["graphs"]);
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Hello { proto, features } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(features, vec!["graphs".to_string()]);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        // A v1-style empty feature list survives too.
        match decode_response(encode_hello_response(1, &[]).as_bytes()).unwrap() {
            Response::Hello { proto, features } => {
                assert_eq!(proto, 1);
                assert!(features.is_empty());
            }
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn graph_create_roundtrips_and_shares_run_normalization() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let spec = GraphSpec {
            id: "prod.web-1".to_string(),
            instance: VariantInstance::Undirected { graph: g },
            config: EngineConfig::seeded(9),
        };
        let enc = encode_graph_create(&spec);
        assert!(enc.starts_with("graph-create v2\nid prod.web-1\nvariant undirected\n"));
        match decode_request(enc.as_bytes()).unwrap() {
            Request::GraphCreate(back) => {
                assert_eq!(back.id, spec.id);
                assert_eq!(back.instance, spec.instance);
                assert_eq!(back.config.seed, 9);
            }
            other => panic!("expected graph-create, got {other:?}"),
        }
        // Execution policy is stripped at encode and rejected at
        // decode; the vertex-count bound applies as for `run v1`.
        let mut wide = spec.clone();
        wide.config.num_shards = 8;
        assert!(!encode_graph_create(&wide).contains("shards"));
        for bad in [
            "graph-create v2\nid g\nvariant undirected\nseed 1\nshards 4\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid g\nvariant undirected\nseed 1\ntimeout-ms 5\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid bad/id\nvariant undirected\nseed 1\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid g\nvariant undirected\nseed 1\ngraph\n# n 9999999999999\n0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn graph_patch_roundtrips_all_op_shapes() {
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
        let enc = encode_graph_patch("g", &ops);
        assert_eq!(
            enc,
            "graph-patch v2\nid g\nops\n+ 0 1\n+ 1 2 9\n+ 2 3 server\n- 0 1\n"
        );
        match decode_request(enc.as_bytes()).unwrap() {
            Request::GraphPatch { id, ops: back } => {
                assert_eq!(id, "g");
                assert_eq!(back, ops);
            }
            other => panic!("expected graph-patch, got {other:?}"),
        }
        for bad in [
            "graph-patch v2\nid g\nops\n* 0 1\n",
            "graph-patch v2\nid g\nops\n+ 0\n",
            "graph-patch v2\nid g\nops\n+ 0 1 maybe\n",
            "graph-patch v2\nid g\nops\n- 0 1 2\n",
            "graph-patch v2\nid g\n+ 0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn graph_reads_and_delete_roundtrip() {
        match decode_request(encode_graph_get("a.b").as_bytes()).unwrap() {
            Request::GraphGet { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-get, got {other:?}"),
        }
        match decode_request(encode_graph_spanner_request("a.b").as_bytes()).unwrap() {
            Request::GraphSpanner { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-spanner, got {other:?}"),
        }
        match decode_request(encode_graph_delete("a.b").as_bytes()).unwrap() {
            Request::GraphDelete { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-delete, got {other:?}"),
        }
    }

    #[test]
    fn graph_responses_roundtrip() {
        use crate::graphs::DeltaClasses;
        let created = GraphCreated {
            id: "g".into(),
            version: 3,
            edges: 17,
            spanner_size: 9,
            existed: true,
        };
        match decode_response(encode_graph_created(&created).as_bytes()).unwrap() {
            Response::GraphCreated(back) => assert_eq!(back, created),
            other => panic!("expected graph-created, got {other:?}"),
        }
        let patched = GraphPatched {
            id: "g".into(),
            version: 12,
            applied: 4,
            classes: DeltaClasses {
                commuted: 2,
                repaired: 1,
                recomputed: 1,
            },
            edges: 20,
        };
        match decode_response(encode_graph_patched(&patched).as_bytes()).unwrap() {
            Response::GraphPatched(back) => assert_eq!(back, patched),
            other => panic!("expected graph-patched, got {other:?}"),
        }
        for cover_size in [Some(7), None] {
            let meta = GraphMeta {
                id: "g".into(),
                kind: VariantKind::Weighted,
                version: 5,
                vertices: 40,
                edges: 21,
                seed: 8,
                cover_size,
                debt: 3,
                classes: DeltaClasses {
                    commuted: 9,
                    repaired: 3,
                    recomputed: 2,
                },
            };
            match decode_response(encode_graph_meta(&meta).as_bytes()).unwrap() {
                Response::GraphMeta(back) => assert_eq!(back, meta),
                other => panic!("expected graph-meta, got {other:?}"),
            }
        }
        for edges in [vec![(0, 1), (2, 3)], vec![]] {
            let spanner = GraphSpannerResult {
                id: "g".into(),
                version: 6,
                key: 0xabc_def,
                kind: VariantKind::Undirected,
                converged: true,
                iterations: 4,
                local_rounds: 28,
                star_fallbacks: 0,
                edges,
            };
            match decode_response(encode_graph_spanner_response(&spanner).as_bytes()).unwrap() {
                Response::GraphSpanner(back) => assert_eq!(back, spanner),
                other => panic!("expected graph-spanner, got {other:?}"),
            }
        }
        match decode_response(encode_graph_deleted("g").as_bytes()).unwrap() {
            Response::GraphDeleted { id } => assert_eq!(id, "g"),
            other => panic!("expected graph-deleted, got {other:?}"),
        }
    }

    #[test]
    fn error_responses_roundtrip() {
        let enc = encode_error_response("multi\nline gets flattened");
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Error(m) => assert_eq!(m, "multi line gets flattened"),
            other => panic!("expected error, got {other:?}"),
        }
        match decode_response(encode_pong_response().as_bytes()).unwrap() {
            Response::Pong => {}
            other => panic!("expected pong, got {other:?}"),
        }
        match decode_response(encode_stats_response("{\"a\":1}").as_bytes()).unwrap() {
            Response::Stats(json) => assert_eq!(json, "{\"a\":1}"),
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
