//! Named, long-lived graphs: the resource registry behind the
//! `/v1/graphs` HTTP surface and the `graph-*` wire frames.
//!
//! A named graph is a persistent, evolving edge set plus the engine
//! configuration it is solved under. Callers create it once (`PUT`),
//! stream edge insert/delete deltas at it (`PATCH`), and read the
//! maintained spanner (`GET .../spanner`) — instead of re-shipping and
//! re-solving a full edge list per request.
//!
//! # Determinism contract
//!
//! The served spanner is **always** `solve(current live edge set)`
//! under the graph's stored config — the exact bytes a one-shot job
//! over the same edges would return, executed through the same service
//! pipeline (canonicalization, cache, store, coalescing). Edge inserts
//! and deletes on a set commute with each other; the one step where
//! order matters is the solve, and it runs at read time through the
//! cache. So a `PATCH` never runs the engine. It is validate → log →
//! apply:
//!
//! * **validate** every op against the live index plus an overlay of
//!   the pairs this patch already touched (a rejected patch applies
//!   nothing);
//! * **log** the command (see below);
//! * **apply** in one pass: inserts push, deletes mark their ids, and
//!   one compaction drops the marked records. Live ids come out exactly
//!   as sequential `Vec::remove`s would leave them.
//!
//! That is O(|ops|), plus one O(m) compaction when the patch deletes
//! anything. The spanner bytes are a pure function of the delta
//! history.
//!
//! The delta-class fields of PATCH replies and graph metadata
//! (`commuted`, `repaired`, `recomputed`, `cover-size`, `debt`) are
//! deprecated: they keep their wire shape for one release and always
//! read zero (`cover-size none`).
//!
//! # Persistence
//!
//! With a `--cache-dir`, every accepted create/patch/delete command is
//! appended to `graphs.log` in the store directory (the store's
//! advisory single-writer lock covers the whole directory, so the log
//! needs no lock of its own). Records reuse the wire codec's command
//! text — the wire protocol and the log can never drift — framed like
//! the result store: `u32 BE length | payload | u64 BE FNV-1a
//! checksum`. Recovery skips checksum-corrupt records and truncates a
//! ragged tail, so a crash mid-append recovers to the last fully
//! appended delta. An append failure demotes the registry to
//! memory-only (mirroring the result store's degrade path) — the
//! service keeps answering, it just stops persisting graph history.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsa_runtime::sync::OrderedMutex;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::canon::Fnv1a;
use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_runtime::{obs, FaultInjector};

use crate::job::{JobError, JobResponse, JobSpec};
use crate::wire;

/// Maximum length of a graph id.
pub const MAX_GRAPH_ID_LEN: usize = 64;

/// File-format magic identifying a v1 graph delta log.
const GRAPH_LOG_MAGIC: &[u8; 8] = b"DSAGRPH1";

/// Name of the delta log inside a store directory (next to the result
/// store's `results.log`; the directory's advisory lock covers both).
pub(crate) const GRAPH_LOG_FILE: &str = "graphs.log";

/// Upper bound on one log record payload: a create command carries at
/// most one wire frame's worth of graph text.
const MAX_GRAPH_RECORD: usize = 2 * wire::MAX_FRAME;

fn graph_checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(b"dsa-graph-record-v1");
    h.write_bytes(payload);
    h.finish()
}

// ---------------------------------------------------------------------
// Public request/response types
// ---------------------------------------------------------------------

/// A request to create a named graph: the instance (initial edges plus
/// variant-specific extras) and the result-relevant engine config it
/// will be solved under for its whole lifetime.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// The graph's name: 1–64 characters from `[a-zA-Z0-9._-]`.
    pub id: String,
    /// The initial instance. Edge ids in the live graph start as this
    /// instance's edge ids (insertion order) and extend from there.
    pub instance: VariantInstance,
    /// Engine configuration. Execution policy (shard count, cancel
    /// flag, timing collection) is normalized away at registration:
    /// it never affects the served bytes.
    pub config: EngineConfig,
}

/// Role of an edge inserted into a client-server graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeRole {
    /// The edge needs covering (a client edge).
    Client,
    /// The edge may be used in covering 2-paths (a server edge).
    Server,
    /// Both of the above.
    Both,
}

impl EdgeRole {
    /// The wire spelling (`client` / `server` / `both`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EdgeRole::Client => "client",
            EdgeRole::Server => "server",
            EdgeRole::Both => "both",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<EdgeRole> {
        match s {
            "client" => Some(EdgeRole::Client),
            "server" => Some(EdgeRole::Server),
            "both" => Some(EdgeRole::Both),
            _ => None,
        }
    }
}

/// One edge delta in a `PATCH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert one edge. `weight` is required for the weighted variant
    /// and forbidden elsewhere; `role` is optional for the
    /// client-server variant (no role: neither client nor server) and
    /// forbidden elsewhere.
    Insert {
        /// One endpoint.
        u: usize,
        /// The other endpoint (the head, for directed graphs).
        v: usize,
        /// Edge weight (weighted variant only).
        weight: Option<u64>,
        /// Client/server role (client-server variant only).
        role: Option<EdgeRole>,
    },
    /// Delete the edge `{u, v}` (the ordered edge `(u, v)` for
    /// directed graphs).
    Delete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

/// Deprecated delta classification counts, kept in PATCH replies and
/// graph metadata for one release so the wire shape stays the same.
/// Patches are no longer classified: every field reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaClasses {
    /// Deprecated; always 0.
    pub commuted: u64,
    /// Deprecated; always 0.
    pub repaired: u64,
    /// Deprecated; always 0.
    pub recomputed: u64,
}

/// Result of a create.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphCreated {
    /// The graph id.
    pub id: String,
    /// Applied delta count (0 for a fresh create).
    pub version: u64,
    /// Live edge count.
    pub edges: usize,
    /// Size of the spanner of the live edge set: the eager solve of a
    /// fresh create, or for an idempotent re-create the same solve a
    /// spanner read would serve.
    pub spanner_size: usize,
    /// True when the graph already existed with an identical
    /// definition (idempotent re-create; maps to HTTP 200 vs 201).
    pub existed: bool,
}

/// Result of a patch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphPatched {
    /// The graph id.
    pub id: String,
    /// Total deltas applied since creation (after this patch).
    pub version: u64,
    /// Ops applied by this patch.
    pub applied: usize,
    /// Deprecated; always zero.
    pub classes: DeltaClasses,
    /// Live edge count after the patch.
    pub edges: usize,
}

/// Graph metadata/stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    /// The graph id.
    pub id: String,
    /// The variant.
    pub kind: VariantKind,
    /// Total deltas applied since creation.
    pub version: u64,
    /// Vertex count (fixed at creation).
    pub vertices: usize,
    /// Live edge count.
    pub edges: usize,
    /// The engine seed.
    pub seed: u64,
    /// Deprecated; always `None` (`cover-size none` on the wire).
    pub cover_size: Option<usize>,
    /// Deprecated; always 0.
    pub debt: usize,
    /// Deprecated; always zero.
    pub classes: DeltaClasses,
}

/// The maintained spanner: the solve of the current live edge set,
/// with edges reported as endpoint pairs (live edge ids are internal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSpannerResult {
    /// The graph id.
    pub id: String,
    /// The delta version this spanner answers.
    pub version: u64,
    /// The canonical job/cache key of the underlying solve.
    pub key: u64,
    /// The variant.
    pub kind: VariantKind,
    /// Whether the engine converged.
    pub converged: bool,
    /// Engine iterations of the underlying run.
    pub iterations: u64,
    /// LOCAL rounds of the underlying run.
    pub local_rounds: u64,
    /// Star-fallback count of the underlying run.
    pub star_fallbacks: u64,
    /// Spanner edges as `(u, v)` endpoint pairs, ordered by live edge
    /// id ascending — a pure function of the delta history.
    pub edges: Vec<(usize, usize)>,
}

/// Why a graph operation failed.
#[derive(Clone, Debug)]
pub enum GraphError {
    /// No graph with that id.
    NotFound(String),
    /// The id exists with a different definition (create conflict).
    Conflict(String),
    /// The request is structurally valid but semantically rejected
    /// (bad id, duplicate insert, missing delete target, ...).
    Invalid(String),
    /// The underlying solve failed (busy, timeout, ...).
    Job(JobError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NotFound(id) => write!(f, "no graph named `{id}`"),
            GraphError::Conflict(m) => write!(f, "graph conflict: {m}"),
            GraphError::Invalid(m) => write!(f, "invalid graph request: {m}"),
            GraphError::Job(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GraphError {}

/// Whether `id` is a well-formed graph name: 1–64 characters from
/// `[a-zA-Z0-9._-]` (URL-safe, shell-safe, filename-safe).
pub fn valid_graph_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_GRAPH_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// One live edge. The record index in [`GraphState::edges`] is the
/// live edge id, which is also the engine edge id of the instance
/// rebuilt from the list (insertion-order CSR).
#[derive(Clone, Copy, Debug)]
struct EdgeRecord {
    u: usize,
    v: usize,
    /// Weight (weighted variant; 0 elsewhere).
    weight: u64,
    /// Client/server role flags (client-server variant; false
    /// elsewhere).
    client: bool,
    server: bool,
}

struct GraphState {
    kind: VariantKind,
    config: EngineConfig,
    n: usize,
    /// The canonical create command text — the idempotency identity of
    /// a re-create, and the bytes the log replays.
    create_cmd: String,
    /// Live edges in insertion order. Deletion compacts the list, so
    /// later ids shift down.
    edges: Vec<EdgeRecord>,
    /// Normalized endpoint pair -> live edge id, for O(1) existence
    /// checks. Pairs are `(min, max)` except for directed graphs.
    index: HashMap<(usize, usize), usize>,
    /// Applied delta count.
    version: u64,
}

struct GraphEntry {
    state: OrderedMutex<GraphState>,
}

/// What open-time log replay found.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReplayReport {
    /// Graphs live after replay.
    pub graphs: usize,
    /// Commands applied.
    pub records: usize,
    /// Corrupt records dropped by the framing walk.
    pub dropped: u64,
    /// Well-framed records skipped by semantic replay (unknown id,
    /// un-decodable command).
    pub skipped: u64,
}

/// The named-graph registry shared by the TCP and HTTP frontends.
pub(crate) struct GraphRegistry {
    graphs: OrderedMutex<HashMap<String, Arc<GraphEntry>>>,
    log: Option<OrderedMutex<GraphLog>>,
    /// Cleared when an append fails: the registry keeps serving from
    /// memory but stops persisting (mirrors the result store).
    log_ok: AtomicBool,
    fault: Arc<FaultInjector>,
}

impl GraphState {
    fn normalize_pair(&self, u: usize, v: usize) -> Result<(usize, usize), GraphError> {
        if u >= self.n || v >= self.n {
            return Err(GraphError::Invalid(format!(
                "edge ({u}, {v}) out of range for {} vertices",
                self.n
            )));
        }
        if u == v {
            return Err(GraphError::Invalid(format!("self-loop ({u}, {u})")));
        }
        Ok(match self.kind {
            VariantKind::Directed => (u, v),
            _ => (u.min(v), u.max(v)),
        })
    }

    /// Validates `ops` against the current live set without mutating
    /// it (a rejected patch applies nothing). Ops are checked
    /// sequentially, so an insert+delete of the same edge inside one
    /// patch is legal: a pair this patch already touched is looked up
    /// in the patch's own overlay, any other pair in the live index.
    fn validate_ops(&self, ops: &[DeltaOp]) -> Result<(), GraphError> {
        if ops.is_empty() {
            return Err(GraphError::Invalid("patch carries no ops".into()));
        }
        // Pair -> whether it is live after the ops checked so far.
        let mut touched: HashMap<(usize, usize), bool> = HashMap::new();
        let live = |touched: &HashMap<(usize, usize), bool>, pair| {
            touched
                .get(&pair)
                .copied()
                .unwrap_or_else(|| self.index.contains_key(&pair))
        };
        for op in ops {
            match *op {
                DeltaOp::Insert { u, v, weight, role } => {
                    let pair = self.normalize_pair(u, v)?;
                    match self.kind {
                        VariantKind::Weighted => {
                            if weight.is_none() {
                                return Err(GraphError::Invalid(format!(
                                    "insert ({u}, {v}): weighted graphs need a weight"
                                )));
                            }
                        }
                        _ => {
                            if weight.is_some() {
                                return Err(GraphError::Invalid(format!(
                                    "insert ({u}, {v}): only weighted graphs take a weight"
                                )));
                            }
                        }
                    }
                    if role.is_some() && self.kind != VariantKind::ClientServer {
                        return Err(GraphError::Invalid(format!(
                            "insert ({u}, {v}): only client-server graphs take a role"
                        )));
                    }
                    if live(&touched, pair) {
                        return Err(GraphError::Invalid(format!(
                            "insert ({u}, {v}): edge already exists"
                        )));
                    }
                    touched.insert(pair, true);
                }
                DeltaOp::Delete { u, v } => {
                    let pair = self.normalize_pair(u, v)?;
                    if !live(&touched, pair) {
                        return Err(GraphError::Invalid(format!(
                            "delete ({u}, {v}): no such edge"
                        )));
                    }
                    touched.insert(pair, false);
                }
            }
        }
        Ok(())
    }

    /// Applies validated ops in one pass: inserts push, deletes take
    /// their pair out of the index and mark their id, then one
    /// compaction drops the marked records and re-indexes the rest.
    /// The survivors keep their relative order, which is exactly the
    /// order sequential `Vec::remove`s would leave, so live ids are a
    /// pure function of the delta history.
    ///
    /// Callers run [`GraphState::validate_ops`] first, so the fallible
    /// steps here cannot fail in practice; they still propagate as
    /// `GraphError` rather than panicking — a request-path invariant
    /// slip must degrade to a failed patch, not a dead worker.
    fn apply_ops(&mut self, ops: &[DeltaOp]) -> Result<(), GraphError> {
        let mut dead = Vec::new();
        for op in ops {
            match *op {
                DeltaOp::Insert { u, v, weight, role } => {
                    let pair = self.normalize_pair(u, v)?;
                    self.index.insert(pair, self.edges.len());
                    self.edges.push(EdgeRecord {
                        u: pair.0,
                        v: pair.1,
                        weight: weight.unwrap_or(0),
                        client: matches!(role, Some(EdgeRole::Client | EdgeRole::Both)),
                        server: matches!(role, Some(EdgeRole::Server | EdgeRole::Both)),
                    });
                }
                DeltaOp::Delete { u, v } => {
                    let pair = self.normalize_pair(u, v)?;
                    let id = self.index.remove(&pair).ok_or_else(|| {
                        GraphError::Invalid(format!("delete ({u}, {v}): no such edge"))
                    })?;
                    dead.push(id);
                }
            }
        }
        if !dead.is_empty() {
            dead.sort_unstable();
            let mut dead = dead.into_iter().peekable();
            let mut id = 0;
            self.edges.retain(|_| {
                let keep = dead.next_if_eq(&id).is_none();
                id += 1;
                keep
            });
            self.reindex();
        }
        self.version += ops.len() as u64;
        Ok(())
    }

    /// Rebuilds the pair -> live id index from the edge list.
    fn reindex(&mut self) {
        self.index.clear();
        self.index.extend(
            self.edges
                .iter()
                .enumerate()
                .map(|(id, r)| ((r.u, r.v), id)),
        );
    }

    /// Rebuilds the engine instance from the live edge list. Live edge
    /// ids equal instance edge ids (insertion-order construction).
    fn instance(&self) -> VariantInstance {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|r| (r.u, r.v)).collect();
        match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_vec(self.edges.iter().map(|r| r.weight).collect()),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::ClientServer => {
                let m = self.edges.len();
                let flagged = |f: fn(&EdgeRecord) -> bool| {
                    EdgeSet::from_iter(
                        m,
                        self.edges
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| f(r))
                            .map(|(i, _)| i),
                    )
                };
                VariantInstance::ClientServer {
                    graph: Graph::from_edges(self.n, pairs),
                    clients: flagged(|r| r.client),
                    servers: flagged(|r| r.server),
                }
            }
        }
    }

    /// The one-shot job equivalent of this graph's current state — the
    /// spec whose solve defines the served bytes.
    fn job_spec(&self) -> JobSpec {
        JobSpec {
            instance: self.instance(),
            config: self.config.clone(),
            timeout: None,
        }
    }

    fn meta(&self, id: &str) -> GraphMeta {
        GraphMeta {
            id: id.to_string(),
            kind: self.kind,
            version: self.version,
            vertices: self.n,
            edges: self.edges.len(),
            seed: self.config.seed,
            cover_size: None,
            debt: 0,
            classes: DeltaClasses::default(),
        }
    }
}

/// Strips execution policy from a config: shard count, cancellation,
/// and timing collection never affect served bytes, so a graph's
/// stored config (and its log encoding) normalizes them away.
fn normalized_config(mut config: EngineConfig) -> EngineConfig {
    config.num_shards = 1;
    config.cancel = None;
    config.collect_timings = false;
    config
}

/// Extracts `(n, records)` from an instance. Infallible: instances are
/// normalized by construction (the graph types reject self-loops and
/// duplicates).
fn records_of(instance: &VariantInstance) -> (usize, Vec<EdgeRecord>) {
    let blank = |(u, v): (usize, usize)| EdgeRecord {
        u,
        v,
        weight: 0,
        client: false,
        server: false,
    };
    match instance {
        VariantInstance::Undirected { graph } => (
            graph.num_vertices(),
            graph.edges().map(|(_, u, v)| blank((u, v))).collect(),
        ),
        VariantInstance::Directed { graph } => (
            graph.num_vertices(),
            graph.edges().map(|(_, u, v)| blank((u, v))).collect(),
        ),
        VariantInstance::Weighted { graph, weights } => (
            graph.num_vertices(),
            graph
                .edges()
                .map(|(e, u, v)| EdgeRecord {
                    u,
                    v,
                    weight: weights.get(e),
                    client: false,
                    server: false,
                })
                .collect(),
        ),
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => (
            graph.num_vertices(),
            graph
                .edges()
                .map(|(e, u, v)| EdgeRecord {
                    u,
                    v,
                    weight: 0,
                    client: clients.contains(e),
                    server: servers.contains(e),
                })
                .collect(),
        ),
    }
}

impl GraphRegistry {
    /// Opens the registry, replaying `dir/graphs.log` when a store
    /// directory is configured. Must be called *after* the result
    /// store takes the directory's advisory lock.
    pub fn open(
        dir: Option<&Path>,
        fault: Arc<FaultInjector>,
    ) -> std::io::Result<(GraphRegistry, ReplayReport)> {
        let mut registry = GraphRegistry {
            graphs: OrderedMutex::new("graphs_map", 10, HashMap::new()),
            log: None,
            log_ok: AtomicBool::new(true),
            fault,
        };
        let mut report = ReplayReport::default();
        if let Some(dir) = dir {
            let (log, payloads) = GraphLog::open(dir)?;
            report.dropped = log.dropped;
            for payload in &payloads {
                if registry.replay(payload) {
                    report.records += 1;
                } else {
                    report.skipped += 1;
                }
            }
            registry.log = Some(OrderedMutex::new("graph_log", 30, log));
        }
        report.graphs = registry.live();
        Ok((registry, report))
    }

    /// Applies one logged command. Replay never solves: the first
    /// post-restart spanner read does, through the cache and store.
    /// Returns false when the record cannot be applied
    /// (un-decodable, unknown id, stale semantics) — such records are
    /// skipped, never fatal, mirroring store corruption recovery.
    fn replay(&mut self, payload: &[u8]) -> bool {
        let request = match wire::decode_request(payload) {
            Ok(r) => r,
            Err(_) => return false,
        };
        match request {
            wire::Request::GraphCreate(spec) => {
                let map = self.graphs.get_mut();
                if !valid_graph_id(&spec.id) || map.contains_key(&spec.id) {
                    return false;
                }
                let state = build_state(&spec);
                map.insert(
                    spec.id.clone(),
                    Arc::new(GraphEntry {
                        state: OrderedMutex::new("graph_state", 20, state),
                    }),
                );
                true
            }
            wire::Request::GraphPatch { id, ops } => {
                let map = self.graphs.get_mut();
                let Some(entry) = map.get(&id) else {
                    return false;
                };
                let mut st = entry.state.lock();
                st.validate_ops(&ops).is_ok() && st.apply_ops(&ops).is_ok()
            }
            wire::Request::GraphDelete { id } => self.graphs.get_mut().remove(&id).is_some(),
            _ => false,
        }
    }

    /// Number of live graphs.
    pub fn live(&self) -> usize {
        self.graphs.lock().len()
    }

    /// Whether the delta log is still persisting (false after an
    /// append failure, or trivially true without a store directory).
    pub fn log_healthy(&self) -> bool {
        self.log_ok.load(Ordering::Relaxed)
    }

    fn entry(&self, id: &str) -> Result<Arc<GraphEntry>, GraphError> {
        self.graphs
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| GraphError::NotFound(id.to_string()))
    }

    /// Appends one command to the delta log; an append failure demotes
    /// the registry to memory-only (returns whether the record was
    /// persisted, for the caller's degrade hook).
    fn append(&self, cmd: &str) -> bool {
        let Some(log) = &self.log else {
            return true;
        };
        if !self.log_ok.load(Ordering::Relaxed) {
            return false;
        }
        let result = match self.fault.io_error("graphs.append.err") {
            Some(e) => Err(e),
            None => log.lock().append(cmd.as_bytes()),
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                self.log_ok.store(false, Ordering::Relaxed);
                obs::error(
                    "dsa-service",
                    "graph log append failed; graph persistence disabled",
                    &[("error", &e)],
                );
                false
            }
        }
    }

    /// Creates a named graph, solving it eagerly (its baseline
    /// spanner). Re-creating an existing graph with the byte-identical
    /// create command is idempotent; a different definition is a
    /// conflict.
    pub fn create(
        &self,
        spec: GraphSpec,
        solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
    ) -> Result<(GraphCreated, bool), GraphError> {
        if !valid_graph_id(&spec.id) {
            return Err(GraphError::Invalid(format!(
                "graph id `{}` must be 1-{MAX_GRAPH_ID_LEN} characters from [a-zA-Z0-9._-]",
                spec.id
            )));
        }
        let spec = GraphSpec {
            config: normalized_config(spec.config),
            ..spec
        };
        let cmd = wire::encode_graph_create(&spec);
        // A statement of its own: the map lock is released before the
        // re-create solves.
        let existing = self.graphs.lock().get(&spec.id).cloned();
        if let Some(entry) = existing {
            return recreate(&entry, &spec.id, &cmd, solve);
        }
        // Solve before registering: a graph only exists once its
        // baseline spanner does, so a failed solve leaves no trace.
        let state = build_state(&spec);
        let resp = solve(state.job_spec()).map_err(GraphError::Job)?;
        let spanner_size = resp.spanner.len();
        let edges = state.edges.len();
        let mut map = self.graphs.lock();
        if let Some(entry) = map.get(&spec.id).cloned() {
            // Lost a concurrent create race; fall back to the
            // idempotency check against the winner.
            drop(map);
            return recreate(&entry, &spec.id, &cmd, solve);
        }
        let persisted = self.append(&cmd);
        map.insert(
            spec.id.clone(),
            Arc::new(GraphEntry {
                state: OrderedMutex::new("graph_state", 20, state),
            }),
        );
        Ok((
            GraphCreated {
                id: spec.id,
                version: 0,
                edges,
                spanner_size,
                existed: false,
            },
            !persisted,
        ))
    }

    /// Applies one patch: validate, log, apply. The engine never runs
    /// here; the next spanner read solves the live edge set. Returns
    /// the patch result plus whether the log degraded on this call.
    pub fn patch(&self, id: &str, ops: &[DeltaOp]) -> Result<(GraphPatched, bool), GraphError> {
        let entry = self.entry(id)?;
        let mut st = entry.state.lock();
        st.validate_ops(ops)?;
        let persisted = self.append(&wire::encode_graph_patch(id, ops));
        st.apply_ops(ops)?;
        Ok((
            GraphPatched {
                id: id.to_string(),
                version: st.version,
                applied: ops.len(),
                classes: DeltaClasses::default(),
                edges: st.edges.len(),
            },
            !persisted,
        ))
    }

    /// Metadata/stats for one graph.
    pub fn meta(&self, id: &str) -> Result<GraphMeta, GraphError> {
        let entry = self.entry(id)?;
        let st = entry.state.lock();
        Ok(st.meta(id))
    }

    /// The maintained spanner: solves the current live edge set
    /// through `solve` (the service pipeline, so unchanged graphs are
    /// answered from cache).
    pub fn spanner(
        &self,
        id: &str,
        solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
    ) -> Result<GraphSpannerResult, GraphError> {
        let entry = self.entry(id)?;
        let st = entry.state.lock();
        let resp = solve(st.job_spec()).map_err(GraphError::Job)?;
        let edges = resp
            .spanner
            .iter()
            .map(|&e| (st.edges[e].u, st.edges[e].v)) // dsa-lint: allow(DSA-P003, reason="spanner indices come from the solver over this instance, in range by construction")
            .collect();
        Ok(GraphSpannerResult {
            id: id.to_string(),
            version: st.version,
            key: resp.key,
            kind: resp.kind,
            converged: resp.converged,
            iterations: resp.iterations,
            local_rounds: resp.local_rounds,
            star_fallbacks: resp.star_fallbacks,
            edges,
        })
    }

    /// Retires a graph. Returns whether the log degraded on this call.
    pub fn delete(&self, id: &str) -> Result<bool, GraphError> {
        let mut map = self.graphs.lock();
        if map.remove(id).is_none() {
            return Err(GraphError::NotFound(id.to_string()));
        }
        let persisted = self.append(&wire::encode_graph_delete(id));
        Ok(!persisted)
    }
}

/// Answers a create for a graph that already exists: a conflict unless
/// `cmd` is its byte-identical create command; otherwise its live state
/// with the size of the spanner a read would serve, solved through
/// `solve` like a read (a cache hit unless the graph changed since its
/// last read), so the reply depends only on the delta history.
fn recreate(
    entry: &GraphEntry,
    id: &str,
    cmd: &str,
    solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
) -> Result<(GraphCreated, bool), GraphError> {
    let st = entry.state.lock();
    if st.create_cmd != cmd {
        return Err(GraphError::Conflict(format!(
            "graph `{id}` already exists with a different definition"
        )));
    }
    let resp = solve(st.job_spec()).map_err(GraphError::Job)?;
    Ok((
        GraphCreated {
            id: id.to_string(),
            version: st.version,
            edges: st.edges.len(),
            spanner_size: resp.spanner.len(),
            existed: true,
        },
        false,
    ))
}

fn build_state(spec: &GraphSpec) -> GraphState {
    let (n, edges) = records_of(&spec.instance);
    let mut state = GraphState {
        kind: spec.instance.kind(),
        config: normalized_config(spec.config.clone()),
        n,
        create_cmd: wire::encode_graph_create(spec),
        edges,
        index: HashMap::new(),
        version: 0,
    };
    state.reindex();
    state
}

// ---------------------------------------------------------------------
// The delta log
// ---------------------------------------------------------------------

/// The append-only graph command log. Framing mirrors the result
/// store; payloads are wire command text, so the log format is the
/// wire format.
struct GraphLog {
    /// `None` until the first append: a service that never touches
    /// named graphs leaves no `graphs.log` in its cache directory
    /// (and the result store's own recovery walk sees only its file).
    file: Option<File>,
    /// End of the last well-formed record; appends land here.
    end: u64,
    /// Corrupt records dropped while opening.
    dropped: u64,
    path: PathBuf,
}

impl GraphLog {
    /// Opens `dir/graphs.log` when present, returning the log plus
    /// every recoverable record payload in append order. Corrupt
    /// records are skipped; a ragged tail (crash mid-append) is
    /// truncated. Never fails on corruption — only on real IO errors.
    /// A missing log is an empty log; the file is created lazily on
    /// the first append.
    fn open(dir: &Path) -> std::io::Result<(GraphLog, Vec<Vec<u8>>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(GRAPH_LOG_FILE);
        if !path.exists() {
            return Ok((
                GraphLog {
                    file: None,
                    end: GRAPH_LOG_MAGIC.len() as u64,
                    dropped: 0,
                    path,
                },
                Vec::new(),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        let mut log = GraphLog {
            file: Some(file),
            end: GRAPH_LOG_MAGIC.len() as u64,
            dropped: 0,
            path,
        };
        let file_len = log.file()?.metadata()?.len();
        if file_len == 0 {
            log.file()?.write_all(GRAPH_LOG_MAGIC)?;
            log.file()?.flush()?;
            return Ok((log, Vec::new()));
        }
        let mut reader = std::io::BufReader::new(log.file()?.try_clone()?);
        let mut magic = [0u8; 8];
        let magic_ok = file_len >= GRAPH_LOG_MAGIC.len() as u64 && {
            reader.read_exact(&mut magic)?;
            &magic == GRAPH_LOG_MAGIC
        };
        if !magic_ok {
            // Foreign or garbage header: start fresh.
            drop(reader);
            log.dropped += 1;
            log.file()?.set_len(0)?;
            log.file()?.seek(SeekFrom::Start(0))?;
            log.file()?.write_all(GRAPH_LOG_MAGIC)?;
            log.file()?.flush()?;
            return Ok((log, Vec::new()));
        }
        let mut payloads = Vec::new();
        let mut pos = GRAPH_LOG_MAGIC.len() as u64;
        loop {
            let remaining = file_len - pos;
            if remaining == 0 {
                break;
            }
            if remaining < 4 {
                log.dropped += 1; // trailing fragment of a length prefix
                break;
            }
            let mut len_bytes = [0u8; 4];
            reader.read_exact(&mut len_bytes)?;
            let payload_len = u32::from_be_bytes(len_bytes) as usize;
            if payload_len > MAX_GRAPH_RECORD || remaining < 4 + payload_len as u64 + 8 {
                // Garbage length prefix or truncated tail: no further
                // trustworthy boundary exists.
                log.dropped += 1;
                break;
            }
            let mut payload = vec![0u8; payload_len];
            reader.read_exact(&mut payload)?;
            let mut sum_bytes = [0u8; 8];
            reader.read_exact(&mut sum_bytes)?;
            let stored_sum = u64::from_be_bytes(sum_bytes);
            pos += 4 + payload_len as u64 + 8;
            if graph_checksum(&payload) != stored_sum {
                // Framing held, bytes are bad: skip just this record.
                log.dropped += 1;
                log.end = pos;
                continue;
            }
            payloads.push(payload);
            log.end = pos;
        }
        drop(reader);
        if log.end < file_len {
            let end = log.end;
            log.file()?.set_len(end)?;
        }
        Ok((log, payloads))
    }

    /// The backing file, created (with its magic header) on first use.
    fn file(&mut self) -> std::io::Result<&mut File> {
        if self.file.is_none() {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            if file.metadata()?.len() == 0 {
                file.write_all(GRAPH_LOG_MAGIC)?;
                file.flush()?;
            }
            self.file = Some(file);
        }
        match self.file.as_mut() {
            Some(file) => Ok(file),
            // Unreachable (`file` was just ensured above); an IO error
            // keeps the degrade-to-memory-only path panic-free.
            None => Err(std::io::Error::other("graph log file missing after ensure")),
        }
    }

    /// Appends one record. On failure the log is truncated back to its
    /// previous end (best effort) so the tail stays well-formed, and
    /// the error is returned for the caller's degrade path.
    fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.len() > MAX_GRAPH_RECORD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "graph record of {} bytes exceeds limit {MAX_GRAPH_RECORD}",
                    payload.len()
                ),
            ));
        }
        let end = self.end;
        let result = (|| {
            let file = self.file()?;
            file.seek(SeekFrom::Start(end))?;
            let mut framed = Vec::with_capacity(12 + payload.len());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="payload.len() checked against MAX_GRAPH_RECORD above, far below u32::MAX")
            framed.extend_from_slice(payload);
            framed.extend_from_slice(&graph_checksum(payload).to_be_bytes());
            file.write_all(&framed)?;
            file.flush()
        })();
        match result {
            Ok(()) => {
                self.end += 4 + payload.len() as u64 + 8;
                Ok(())
            }
            Err(e) => {
                if let Some(file) = &self.file {
                    let _ = file.set_len(self.end);
                }
                obs::warn(
                    "dsa-service",
                    "graph log append failed",
                    &[("path", &self.path.display()), ("error", &e)],
                );
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::dist::run_variant;

    /// A direct-engine solver: what the service pipeline reduces to
    /// with the cache cold (same engine, same config normalization).
    fn direct_solve(spec: JobSpec) -> Result<JobResponse, JobError> {
        let run = run_variant(&spec.instance, &spec.config);
        Ok(JobResponse {
            key: 0,
            kind: spec.instance.kind(),
            spanner: run.spanner.iter().collect(),
            iterations: run.iterations,
            local_rounds: run.local_rounds(),
            converged: run.converged,
            star_fallbacks: run.star_fallbacks,
        })
    }

    fn registry() -> GraphRegistry {
        GraphRegistry::open(None, Arc::new(FaultInjector::disabled()))
            .expect("memory registry")
            .0
    }

    fn undirected_spec(id: &str, n: usize, edges: &[(usize, usize)]) -> GraphSpec {
        GraphSpec {
            id: id.to_string(),
            instance: VariantInstance::Undirected {
                graph: Graph::from_edges(n, edges.iter().copied()),
            },
            config: EngineConfig::seeded(7),
        }
    }

    #[test]
    fn graph_ids_are_validated() {
        assert!(valid_graph_id("a"));
        assert!(valid_graph_id("prod.web-42_x"));
        assert!(!valid_graph_id(""));
        assert!(!valid_graph_id("a/b"));
        assert!(!valid_graph_id("a b"));
        assert!(!valid_graph_id(&"x".repeat(MAX_GRAPH_ID_LEN + 1)));
        let r = registry();
        let err = r
            .create(undirected_spec("no/slash", 3, &[(0, 1)]), direct_solve)
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid(_)), "{err}");
    }

    #[test]
    fn create_is_idempotent_and_conflicts_on_redefinition() {
        let r = registry();
        let spec = undirected_spec("g", 4, &[(0, 1), (1, 2), (0, 2)]);
        let (created, _) = r.create(spec.clone(), direct_solve).unwrap();
        assert!(!created.existed);
        assert_eq!(created.version, 0);
        assert_eq!(created.edges, 3);
        let (again, _) = r.create(spec, direct_solve).unwrap();
        assert!(again.existed);
        let err = r
            .create(undirected_spec("g", 4, &[(0, 1)]), direct_solve)
            .unwrap_err();
        assert!(matches!(err, GraphError::Conflict(_)), "{err}");
        assert_eq!(r.live(), 1);
        r.delete("g").unwrap();
        assert_eq!(r.live(), 0);
        assert!(matches!(r.meta("g"), Err(GraphError::NotFound(_))));
    }

    #[test]
    fn patches_validate_transactionally() {
        let r = registry();
        r.create(undirected_spec("g", 4, &[(0, 1), (1, 2)]), direct_solve)
            .unwrap();
        // Second op is invalid (duplicate insert): nothing applies.
        let err = r
            .patch(
                "g",
                &[
                    DeltaOp::Insert {
                        u: 2,
                        v: 3,
                        weight: None,
                        role: None,
                    },
                    DeltaOp::Insert {
                        u: 1,
                        v: 0,
                        weight: None,
                        role: None,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid(_)), "{err}");
        assert_eq!(r.meta("g").unwrap().version, 0);
        assert_eq!(r.meta("g").unwrap().edges, 2);
        for (ops, why) in [
            (vec![DeltaOp::Delete { u: 0, v: 3 }], "missing delete"),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 0,
                    weight: None,
                    role: None,
                }],
                "self-loop",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 9,
                    weight: None,
                    role: None,
                }],
                "out of range",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 3,
                    weight: Some(2),
                    role: None,
                }],
                "weight on unweighted",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 3,
                    weight: None,
                    role: Some(EdgeRole::Both),
                }],
                "role on non-client-server",
            ),
            (vec![], "empty patch"),
        ] {
            assert!(
                matches!(r.patch("g", &ops), Err(GraphError::Invalid(_))),
                "accepted: {why}"
            );
        }
        // Insert-then-delete of the same edge inside one patch is
        // legal and nets out.
        let (patched, _) = r
            .patch(
                "g",
                &[
                    DeltaOp::Insert {
                        u: 2,
                        v: 3,
                        weight: None,
                        role: None,
                    },
                    DeltaOp::Delete { u: 3, v: 2 },
                ],
            )
            .unwrap();
        assert_eq!(patched.version, 2);
        assert_eq!(patched.edges, 2);
    }

    #[test]
    fn patches_never_solve_and_classes_read_zero() {
        let r = registry();
        let solves = std::cell::Cell::new(0);
        let counted = |spec: JobSpec| {
            solves.set(solves.get() + 1);
            direct_solve(spec)
        };
        let spokes: Vec<(usize, usize)> = (1..8).map(|v| (0, v)).collect();
        r.create(undirected_spec("star", 10, &spokes), counted)
            .unwrap();
        assert_eq!(solves.get(), 1, "create solves eagerly");
        let insert = |u, v| DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        // Chords, an uncovered edge, a delete, the insert after it, and
        // a mixed patch: none of them runs the engine or classifies.
        for ops in [
            vec![insert(1, 2), insert(3, 4)],
            vec![insert(8, 9)],
            vec![DeltaOp::Delete { u: 8, v: 9 }],
            vec![insert(5, 6)],
            vec![insert(8, 9), DeltaOp::Delete { u: 0, v: 1 }],
        ] {
            let (p, _) = r.patch("star", &ops).unwrap();
            assert_eq!(p.classes, DeltaClasses::default(), "{ops:?}");
            let meta = r.meta("star").unwrap();
            assert_eq!(
                (meta.cover_size, meta.debt, meta.classes),
                (None, 0, DeltaClasses::default())
            );
        }
        assert_eq!(solves.get(), 1, "a patch ran the engine");
        let read = r.spanner("star", counted).unwrap();
        assert_eq!(solves.get(), 2);
        // A re-create answers like a read: the live state and the size
        // of the spanner a read serves.
        let (again, _) = r
            .create(undirected_spec("star", 10, &spokes), counted)
            .unwrap();
        assert_eq!(solves.get(), 3);
        assert!(again.existed);
        assert_eq!(
            (again.version, again.edges, again.spanner_size),
            (7, 10, read.edges.len())
        );
    }

    #[test]
    fn one_pass_apply_keeps_the_sequential_remove_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let mut st = build_state(&undirected_spec("g", 8, &[(0, 1), (2, 3), (4, 5)]));
            let mut model: Vec<(usize, usize)> = st.edges.iter().map(|r| (r.u, r.v)).collect();
            for _ in 0..4 {
                // A patch valid op by op against the model, which
                // applies each op on its own: push or `Vec::remove`.
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(1..=6) {
                    let (u, v): (usize, usize) = (rng.gen_range(0..8), rng.gen_range(0..8));
                    if u == v {
                        continue;
                    }
                    let pair = (u.min(v), u.max(v));
                    match model.iter().position(|&p| p == pair) {
                        Some(i) => {
                            model.remove(i);
                            ops.push(DeltaOp::Delete { u, v });
                        }
                        None => {
                            model.push(pair);
                            ops.push(DeltaOp::Insert {
                                u,
                                v,
                                weight: None,
                                role: None,
                            });
                        }
                    }
                }
                if ops.is_empty() {
                    continue;
                }
                st.validate_ops(&ops).unwrap();
                st.apply_ops(&ops).unwrap();
                let live: Vec<(usize, usize)> = st.edges.iter().map(|r| (r.u, r.v)).collect();
                assert_eq!(live, model, "{ops:?}");
                for (id, pair) in model.iter().enumerate() {
                    assert_eq!(st.index.get(pair), Some(&id));
                }
                assert_eq!(st.index.len(), model.len());
            }
        }
    }

    #[test]
    fn spanner_matches_from_scratch_solve() {
        let r = registry();
        r.create(
            undirected_spec("g", 6, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            direct_solve,
        )
        .unwrap();
        let insert = |u, v| DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        r.patch("g", &[insert(0, 2), insert(4, 5)]).unwrap();
        r.patch("g", &[DeltaOp::Delete { u: 1, v: 2 }]).unwrap();
        let got = r.spanner("g", direct_solve).unwrap();
        // From scratch: the same final edge set, same config.
        let final_edges = [(0, 1), (2, 3), (3, 4), (0, 2), (4, 5)];
        let spec = undirected_spec("scratch", 6, &final_edges);
        let resp = direct_solve(JobSpec {
            instance: spec.instance.clone(),
            config: normalized_config(spec.config),
            timeout: None,
        })
        .unwrap();
        let want: Vec<(usize, usize)> = resp
            .spanner
            .iter()
            .map(|&e| {
                let (u, v) = final_edges[e];
                (u.min(v), u.max(v))
            })
            .collect();
        assert_eq!(got.edges, want);
        assert_eq!(got.version, 3);
    }

    #[test]
    fn log_replays_and_recovers_from_truncation() {
        let dir =
            std::env::temp_dir().join(format!("dsa-graphlog-unit-{}-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = Arc::new(FaultInjector::disabled());
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.graphs, 0);
            r.create(undirected_spec("g", 5, &[(0, 1), (1, 2)]), direct_solve)
                .unwrap();
            r.patch(
                "g",
                &[DeltaOp::Insert {
                    u: 2,
                    v: 3,
                    weight: None,
                    role: None,
                }],
            )
            .unwrap();
            r.create(undirected_spec("gone", 3, &[(0, 1)]), direct_solve)
                .unwrap();
            r.delete("gone").unwrap();
        }
        // Clean replay: one live graph at version 1 (replay never
        // solves).
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.graphs, 1);
            assert_eq!(report.records, 4);
            assert_eq!(report.dropped, 0);
            let meta = r.meta("g").unwrap();
            assert_eq!(meta.version, 1);
            assert_eq!(meta.edges, 3);
            assert_eq!(meta.cover_size, None);
            // Append another patch, then simulate a crash mid-append.
            r.patch(
                "g",
                &[DeltaOp::Insert {
                    u: 3,
                    v: 4,
                    weight: None,
                    role: None,
                }],
            )
            .unwrap();
        }
        // Crash mid-append: a ragged half-record at the tail.
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(GRAPH_LOG_FILE))
                .unwrap();
            f.write_all(&(400u32).to_be_bytes()).unwrap();
            f.write_all(b"partial record torn by a crash").unwrap();
        }
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.dropped, 1, "the torn tail is dropped");
            let meta = r.meta("g").unwrap();
            assert_eq!(meta.version, 2, "recovered to the last applied delta");
            assert_eq!(meta.edges, 4);
        }
        // And the truncation left a clean tail: appends work again.
        {
            let (r, _) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            r.patch("g", &[DeltaOp::Delete { u: 0, v: 1 }]).unwrap();
        }
        let (r, report) = GraphRegistry::open(Some(&dir), fault).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(r.meta("g").unwrap().version, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failure_degrades_to_memory_only() {
        let dir =
            std::env::temp_dir().join(format!("dsa-graphlog-unit-{}-degrade", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (r, _) =
                GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::disabled())).unwrap();
            r.create(undirected_spec("g", 4, &[(0, 1), (1, 2)]), direct_solve)
                .unwrap();
            assert!(r.log_healthy());
        }
        // Reopen with every graph append failing: replay is pure reads
        // and still works, but the first patch append degrades the
        // registry to memory-only. The patch itself still applies.
        let plan = dsa_runtime::FaultPlan::parse("seed=1;graphs.append.err=1.0").unwrap();
        let (r, report) =
            GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::new(plan))).unwrap();
        assert_eq!(report.graphs, 1);
        let (patched, degraded) = r
            .patch(
                "g",
                &[DeltaOp::Insert {
                    u: 2,
                    v: 3,
                    weight: None,
                    role: None,
                }],
            )
            .unwrap();
        assert!(degraded);
        assert_eq!(patched.version, 1);
        assert!(!r.log_healthy());
        // Restart sees only the create: the patch was never persisted.
        drop(r);
        let (r, _) = GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::disabled())).unwrap();
        assert_eq!(r.meta("g").unwrap().version, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
