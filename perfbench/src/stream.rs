//! `graph_stream`: TCP v2 graph frames against named graphs.
//!
//! Each caller owns one graph per variant; no graph is touched by two
//! callers. Each graph follows a seeded script that is valid by
//! construction: cycles of four insert PATCHes, one delete PATCH that
//! removes as many edges as the cycle inserts, and a `GET …/spanner`.
//! One cycle in six opens with its delete PATCH (so the next insert
//! PATCH re-solves eagerly inside the patch); the others close with it
//! (so the GET re-solves instead). Every run gets a fresh cache
//! directory, so `graphs.log` appends are on the path.
//!
//! Every graph keeps its size, so op costs do not drift over a run.
//! Insert PATCHes cost about a millisecond and are about 64% of the ops;
//! delete PATCHes (17%) and solving ops (GETs at 17%, plus the insert
//! PATCH after a delete) form one spread from a few to a few tens of
//! milliseconds. p50 falls among the insert PATCHes and p95 among the
//! solves, neither on a gap.

use std::collections::HashSet;
use std::path::PathBuf;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_service::wire::{
    decode_request, decode_response, encode_graph_create, encode_graph_created, encode_graph_patch,
    encode_graph_patched, encode_graph_spanner_request, encode_graph_spanner_response, Request,
    Response,
};
use dsa_service::{DeltaOp, EdgeRole, GraphSpannerResult, GraphSpec, JobSpec, Service};
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::{
    callers, closed_loop, cpu_seconds, engine_metrics, instance, op_type_metrics, open_service,
    peak_rss_mb, reset_peak_rss, residual_ms, rng, service_metrics, span_metrics, timed_setups,
    Feed, FlightLog, Pass, Scratch, TcpEnv, VARIANTS,
};
use crate::metrics::metrics;
use crate::stats::overhead_ratio;
use crate::trace::SpanBuf;
use crate::{Measured, Traced};

/// Vertices of every named graph.
const VERTICES: usize = 500;

/// Average degree of each variant's graph. Deletes keep it for the
/// whole run; it is chosen per variant so a spanner solve costs about
/// the same on every variant, and the GETs form one cost cluster
/// instead of four with gaps between them.
fn degree(kind: VariantKind) -> f64 {
    match kind {
        VariantKind::Undirected => 10.0,
        VariantKind::Directed => 14.0,
        VariantKind::Weighted => 7.5,
        VariantKind::ClientServer => 12.5,
    }
}

/// Mean inserts per insert PATCH. Each PATCH draws its size uniformly
/// from half to one and a half times this, so PATCH costs spread
/// continuously instead of forming one tight cluster per variant.
const BATCH: usize = 16;
/// Insert PATCHes per cycle.
const PATCHES_PER_CYCLE: usize = 4;
/// Timed cycles per graph per second of `--seconds`.
const CYCLES_PER_SECOND: f64 = 4.5;
/// Cycles per graph run in the set-up, after the create.
const WARMUP_CYCLES: usize = 4;

/// The two cycle shapes. Each has one delete PATCH, either first (the
/// first insert PATCH after it re-solves inside the patch) or last,
/// just before the GET (the GET re-solves instead).
#[derive(Clone, Copy)]
enum Cycle {
    DeleteFirst,
    DeleteLast,
}

/// The order every graph repeats the cycle shapes in.
const PATTERN: [Cycle; 6] = [
    Cycle::DeleteLast,
    Cycle::DeleteLast,
    Cycle::DeleteFirst,
    Cycle::DeleteLast,
    Cycle::DeleteLast,
    Cycle::DeleteLast,
];

/// One live edge, as the service stores it.
#[derive(Clone, Copy, Debug)]
struct Edge {
    u: usize,
    v: usize,
    weight: u64,
    client: bool,
    server: bool,
}

/// One scripted op.
enum StreamOp {
    Create(Box<GraphSpec>),
    Patch {
        ops: Vec<DeltaOp>,
        version: u64,
    },
    /// A spanner read, with the live edge list and version it must
    /// answer for.
    Get {
        graph: usize,
        live: Vec<Edge>,
        version: u64,
    },
}

/// The script model of one graph: its live edges in service order.
struct Model {
    id: String,
    kind: VariantKind,
    config: EngineConfig,
    n: usize,
    live: Vec<Edge>,
    /// Every pair ever inserted, so no edge set repeats and every GET
    /// after a change misses the cache.
    used: HashSet<(usize, usize)>,
    version: u64,
}

impl Model {
    fn new(id: String, kind: VariantKind, rng: &mut StdRng) -> (Model, GraphSpec) {
        let inst = instance(kind, VERTICES, degree(kind), rng);
        let config = EngineConfig::seeded(rng.gen::<u32>() as u64);
        let live: Vec<Edge> = match &inst {
            VariantInstance::Undirected { graph } => {
                graph.edges().map(|(_, u, v)| edge(u, v)).collect()
            }
            VariantInstance::Directed { graph } => {
                graph.edges().map(|(_, u, v)| edge(u, v)).collect()
            }
            VariantInstance::Weighted { graph, weights } => graph
                .edges()
                .map(|(e, u, v)| Edge {
                    weight: weights.get(e),
                    ..edge(u, v)
                })
                .collect(),
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            } => graph
                .edges()
                .map(|(e, u, v)| Edge {
                    client: clients.contains(e),
                    server: servers.contains(e),
                    ..edge(u, v)
                })
                .collect(),
        };
        let model = Model {
            used: live.iter().map(|e| (e.u, e.v)).collect(),
            id: id.clone(),
            kind,
            config: config.clone(),
            n: VERTICES,
            live,
            version: 0,
        };
        let spec = GraphSpec {
            id,
            instance: inst,
            config,
        };
        (model, spec)
    }

    fn pair(&self, u: usize, v: usize) -> (usize, usize) {
        match self.kind {
            VariantKind::Directed => (u, v),
            _ => (u.min(v), u.max(v)),
        }
    }

    fn insert_patch(&mut self, size: usize, rng: &mut StdRng) -> StreamOp {
        let mut ops = Vec::with_capacity(size);
        while ops.len() < size {
            let (u, v) = (rng.gen_range(0..self.n), rng.gen_range(0..self.n));
            if u == v || !self.used.insert(self.pair(u, v)) {
                continue;
            }
            let (u, v) = self.pair(u, v);
            let mut e = edge(u, v);
            let (mut weight, mut role) = (None, None);
            match self.kind {
                VariantKind::Weighted => {
                    e.weight = rng.gen_range(1..=9);
                    weight = Some(e.weight);
                }
                VariantKind::ClientServer => {
                    let r = [EdgeRole::Client, EdgeRole::Server, EdgeRole::Both]
                        [rng.gen_range(0..3usize)];
                    e.client = r != EdgeRole::Server;
                    e.server = r != EdgeRole::Client;
                    role = Some(r);
                }
                _ => {}
            }
            self.live.push(e);
            ops.push(DeltaOp::Insert { u, v, weight, role });
        }
        self.version += ops.len() as u64;
        StreamOp::Patch {
            ops,
            version: self.version,
        }
    }

    fn delete_patch(&mut self, size: usize, rng: &mut StdRng) -> StreamOp {
        let ops: Vec<DeltaOp> = (0..size)
            .map(|_| {
                let e = self.live.remove(rng.gen_range(0..self.live.len()));
                DeltaOp::Delete { u: e.u, v: e.v }
            })
            .collect();
        self.version += ops.len() as u64;
        StreamOp::Patch {
            ops,
            version: self.version,
        }
    }

    fn get(&self, graph: usize) -> StreamOp {
        StreamOp::Get {
            graph,
            live: self.live.clone(),
            version: self.version,
        }
    }

    /// One cycle: its insert PATCHes, one PATCH deleting as many edges
    /// as they insert (so the graph keeps its size and a GET costs the
    /// same early and late in a run), then the GET.
    fn cycle(&mut self, shape: Cycle, graph: usize, rng: &mut StdRng) -> Vec<StreamOp> {
        let sizes: Vec<usize> = (0..PATCHES_PER_CYCLE)
            .map(|_| rng.gen_range(BATCH / 2..=BATCH * 3 / 2))
            .collect();
        let deletes = sizes.iter().sum();
        let mut ops = Vec::new();
        if let Cycle::DeleteFirst = shape {
            ops.push(self.delete_patch(deletes, rng));
        }
        for size in sizes {
            ops.push(self.insert_patch(size, rng));
        }
        if let Cycle::DeleteLast = shape {
            ops.push(self.delete_patch(deletes, rng));
        }
        ops.push(self.get(graph));
        ops
    }

    /// The one-shot job a GET must answer like: the live edges as an
    /// instance, in the service's edge order.
    fn job(&self, live: &[Edge]) -> JobSpec {
        let pairs: Vec<(usize, usize)> = live.iter().map(|e| (e.u, e.v)).collect();
        let m = live.len();
        let flagged = |f: fn(&Edge) -> bool| EdgeSet::from_iter(m, (0..m).filter(|&i| f(&live[i])));
        let instance = match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_vec(live.iter().map(|e| e.weight).collect()),
            },
            VariantKind::ClientServer => VariantInstance::ClientServer {
                graph: Graph::from_edges(self.n, pairs),
                clients: flagged(|e| e.client),
                servers: flagged(|e| e.server),
            },
        };
        JobSpec {
            instance,
            config: self.config.clone(),
            timeout: None,
        }
    }
}

fn edge(u: usize, v: usize) -> Edge {
    Edge {
        u,
        v,
        weight: 0,
        client: false,
        server: false,
    }
}

/// Every scripted op with its pre-encoded frame, and each caller's
/// set-up and timed scripts (indices into `ops`).
struct Inputs {
    scratch: Scratch,
    models: Vec<Model>,
    ops: Vec<StreamOp>,
    frames: Vec<Vec<u8>>,
    setup_scripts: Vec<Vec<usize>>,
    timed_scripts: Vec<Vec<usize>>,
}

fn inputs(seed: u64, seconds: u64) -> Inputs {
    let mut r = rng(seed, "stream");
    let cycles = (CYCLES_PER_SECOND * seconds as f64).ceil() as usize;
    let mut models = Vec::new();
    let mut ops: Vec<(usize, StreamOp)> = Vec::new();
    let (mut setup_scripts, mut timed_scripts) = (Vec::new(), Vec::new());
    for c in 0..callers() {
        // Per graph: the create, the warm-up cycles, then the timed cycles.
        let mut setup_lists: Vec<Vec<usize>> = Vec::new();
        let mut timed_lists: Vec<Vec<usize>> = Vec::new();
        for &kind in &VARIANTS {
            let g = models.len();
            let id = format!("c{c}-{}", crate::cold::variant_type(kind).replace('_', "-"));
            let (mut model, spec) = Model::new(id, kind, &mut r);
            let mut push = |op: StreamOp| {
                ops.push((g, op));
                ops.len() - 1
            };
            let mut setup = vec![push(StreamOp::Create(Box::new(spec)))];
            for _ in 0..WARMUP_CYCLES {
                setup.extend(
                    model
                        .cycle(Cycle::DeleteLast, g, &mut r)
                        .into_iter()
                        .map(&mut push),
                );
            }
            let timed = (0..cycles)
                .flat_map(|k| model.cycle(PATTERN[k % PATTERN.len()], g, &mut r))
                .map(&mut push)
                .collect();
            setup_lists.push(setup);
            timed_lists.push(timed);
            models.push(model);
        }
        setup_scripts.push(round_robin(&setup_lists));
        timed_scripts.push(round_robin(&timed_lists));
    }
    let frames = ops
        .iter()
        .map(|(g, op)| {
            let id = &models[*g].id;
            match op {
                StreamOp::Create(spec) => encode_graph_create(spec),
                StreamOp::Patch { ops, .. } => encode_graph_patch(id, ops),
                StreamOp::Get { .. } => encode_graph_spanner_request(id),
            }
            .into_bytes()
        })
        .collect();
    Inputs {
        scratch: Scratch::new().expect("create scratch space"),
        models,
        ops: ops.into_iter().map(|(_, op)| op).collect(),
        frames,
        setup_scripts,
        timed_scripts,
    }
}

/// Interleaves per-graph op lists one op at a time, keeping each
/// graph's own order.
fn round_robin(lists: &[Vec<usize>]) -> Vec<usize> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| lists.iter().filter_map(move |l| l.get(k).copied()))
        .collect()
}

/// Opens the service over a fresh cache directory, binds the TCP
/// listener, connects the callers, creates each caller's graphs and
/// runs their warm-up cycles.
fn setup(dir: PathBuf, inp: &Inputs) -> TcpEnv {
    let mut env = TcpEnv::start(open_service(Some(dir)));
    let warm = env.pass(
        &Feed::Scripts(inp.setup_scripts.clone()),
        &inp.frames,
        false,
    );
    for r in warm.records() {
        let ok = matches!(
            r.out.as_deref().map(decode_response),
            Ok(Ok(Response::GraphCreated(_)
                | Response::GraphPatched(_)
                | Response::GraphSpanner(_)))
        );
        assert!(
            ok,
            "graph set-up op {} failed: {:?}",
            r.op,
            r.out.as_ref().err()
        );
    }
    env
}

/// What a checked pass found: failures, solving patches, and each op's
/// type for the traced output.
struct Checked {
    failed: usize,
    solving_patches: usize,
    gets: usize,
    types: Vec<(&'static str, f64)>,
}

/// Checks every reply after the window: each PATCH must be accepted
/// whole at the scripted version, and each GET must byte-match a
/// from-scratch solve of the live edge set at that point.
fn check(
    inp: &Inputs,
    pass: &Pass<(), Result<Vec<u8>, String>>,
    errors: &mut Vec<String>,
) -> Checked {
    let mut c = Checked {
        failed: 0,
        solving_patches: 0,
        gets: 0,
        types: Vec::new(),
    };
    let mut gets: Vec<(usize, &[u8])> = Vec::new();
    for r in pass.records() {
        let reply = r.out.as_deref().map(decode_response);
        let kind = match (&inp.ops[r.op], reply) {
            (StreamOp::Patch { ops, version }, Ok(Ok(Response::GraphPatched(p))))
                if p.applied == ops.len() && p.version == *version =>
            {
                if ops.iter().any(|o| matches!(o, DeltaOp::Delete { .. })) {
                    "patch_delete"
                } else if p.classes.recomputed > 0 {
                    c.solving_patches += 1;
                    "patch_solve"
                } else {
                    "patch"
                }
            }
            (StreamOp::Get { .. }, Ok(Ok(Response::GraphSpanner(_)))) => {
                c.gets += 1;
                gets.push((r.op, r.out.as_deref().unwrap_or_default()));
                "get"
            }
            _ => {
                c.failed += 1;
                continue;
            }
        };
        c.types.push((kind, r.ms()));
    }
    // The from-scratch solves run on a memory-only service of their own.
    let fresh = open_service(None);
    let expected = closed_loop(
        vec![(); callers()],
        &Feed::Shared(gets.len()),
        false,
        |_, _, k| {
            let StreamOp::Get {
                graph,
                live,
                version,
            } = &inp.ops[gets[k].0]
            else {
                unreachable!("only GETs are collected");
            };
            let model = &inp.models[*graph];
            let resp = fresh.run(&model.job(live)).expect("from-scratch solve");
            encode_graph_spanner_response(&GraphSpannerResult {
                id: model.id.clone(),
                version: *version,
                key: resp.key,
                kind: resp.kind,
                converged: resp.converged,
                iterations: resp.iterations,
                local_rounds: resp.local_rounds,
                star_fallbacks: resp.star_fallbacks,
                edges: resp
                    .spanner
                    .iter()
                    .map(|&e| (live[e].u, live[e].v))
                    .collect(),
            })
        },
    );
    for r in expected.records() {
        let (op, got) = gets[r.op];
        if got != r.out.as_bytes() {
            errors.push(format!(
                "graph op {op}: GET differs from a from-scratch solve"
            ));
        }
    }
    c
}

/// Engine runs must be exactly one per GET plus one per solving patch.
fn check_fixed_work(
    c: &Checked,
    before: &dsa_service::MetricsSnapshot,
    after: &dsa_service::MetricsSnapshot,
    errors: &mut Vec<String>,
) {
    let runs = after.latency_hist_count - before.latency_hist_count;
    if runs != (c.gets + c.solving_patches) as u64 {
        errors.push(format!(
            "{runs} engine runs for {} GETs and {} solving patches",
            c.gets, c.solving_patches
        ));
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: u64) -> Measured {
    let inp = inputs(seed, seconds);
    reset_peak_rss();
    let (mut env, setup_s) = timed_setups(
        |k| {
            inp.scratch
                .fresh(&format!("setup-{k}"))
                .expect("create a cache directory")
        },
        |dir| setup(dir, &inp),
        TcpEnv::stop,
    );
    let before = env.service.metrics();
    let timed = Feed::Scripts(inp.timed_scripts.clone());
    let pass = env.pass(&timed, &inp.frames, false);
    let peak_rss_mb = peak_rss_mb();
    let after = env.service.metrics();
    env.stop();
    let mut errors = Vec::new();
    let checked = check(&inp, &pass, &mut errors);
    check_fixed_work(&checked, &before, &after, &mut errors);
    Measured {
        setup_s,
        window_s: pass.seconds,
        peak_rss_mb,
        latencies_ms: pass
            .records()
            .filter(|r| r.out.is_ok())
            .map(|r| r.ms())
            .collect(),
        attempted: pass.count(),
        failed: checked.failed,
        errors,
    }
}

/// What a connection thread does for one graph frame, called directly.
fn direct_op(service: &Service, frame: &[u8], spans: &mut SpanBuf, i: usize) -> String {
    let root = spans.open("direct.op", i, None);
    let request = spans
        .time("wire.decode", i, root, || decode_request(frame))
        .expect("decode a graph frame");
    let reply = match request {
        Request::GraphCreate(spec) => {
            let r = spans
                .time("graphs.create", i, root, || service.graph_create(*spec))
                .expect("create");
            spans.time("wire.encode", i, root, || encode_graph_created(&r))
        }
        Request::GraphPatch { id, ops } => {
            let r = spans
                .time("graphs.patch", i, root, || service.graph_patch(&id, &ops))
                .expect("patch");
            spans.time("wire.encode", i, root, || encode_graph_patched(&r))
        }
        Request::GraphSpanner { id } => {
            let r = spans
                .time("graphs.spanner", i, root, || service.graph_spanner(&id))
                .expect("spanner");
            spans.time("wire.encode", i, root, || encode_graph_spanner_response(&r))
        }
        other => panic!("unexpected scripted request {other:?}"),
    };
    spans.close(root);
    reply
}

/// The same set-up and timed scripts, called in process. Returns the
/// set-up pass (whose spans time the creates) and the timed pass.
fn direct_pass(inp: &Inputs, name: &str, traced: bool) -> (Pass<(), String>, Pass<(), String>) {
    let service = open_service(Some(
        inp.scratch.fresh(name).expect("create a cache directory"),
    ));
    let run = |scripts: &[Vec<usize>]| {
        closed_loop(
            vec![(); scripts.len()],
            &Feed::Scripts(scripts.to_vec()),
            traced,
            |_, spans, i| direct_op(&service, &inp.frames[i], spans, i),
        )
    };
    let setup = run(&inp.setup_scripts);
    let timed = run(&inp.timed_scripts);
    drop(service);
    (setup, timed)
}

/// The traced run: a socket pass, then the direct pass with and
/// without span recording.
pub fn trace(seed: u64, seconds: u64) -> Traced {
    let inp = inputs(seed, seconds);
    let mut env = setup(
        inp.scratch
            .fresh("socket")
            .expect("create a cache directory"),
        &inp,
    );
    let log = FlightLog::start(&env.service);
    let before = env.service.metrics();
    let cpu0 = cpu_seconds();
    let socket = env.pass(&Feed::Scripts(inp.timed_scripts.clone()), &inp.frames, true);
    let cpu_ms_per_op = (cpu_seconds() - cpu0) * 1e3 / socket.count() as f64;
    let after = env.service.metrics();
    let mut errors = Vec::new();
    let events = log.finish(&mut errors);
    env.stop();
    let checked = check(&inp, &socket, &mut errors);
    check_fixed_work(&checked, &before, &after, &mut errors);
    let (direct_setup, direct) = direct_pass(&inp, "direct", true);
    let (_, plain) = direct_pass(&inp, "plain", false);
    let replies: std::collections::HashMap<usize, &Vec<u8>> = socket
        .records()
        .filter_map(|r| r.out.as_ref().ok().map(|b| (r.op, b)))
        .collect();
    for r in direct.records() {
        if replies.get(&r.op).map(|b| b.as_slice()) != Some(r.out.as_bytes()) {
            errors.push(format!(
                "graph op {}: direct reply differs from the socket reply",
                r.op
            ));
        }
    }
    let mut m = service_metrics(&before, &after);
    m.extend(engine_metrics(&events));
    m.extend(span_metrics(&socket.spans));
    m.extend(span_metrics(&direct.spans));
    m.extend(
        span_metrics(&direct_setup.spans)
            .into_iter()
            .filter(|(n, _)| n.starts_with("graphs.create")),
    );
    m.extend(op_type_metrics(&checked.types));
    m.extend(metrics(&[
        ("graphs.solves_in_patch", checked.solving_patches as f64),
        (
            "net.residual_ms",
            residual_ms(
                &socket,
                &direct.spans,
                &[
                    "wire.decode",
                    "graphs.patch",
                    "graphs.spanner",
                    "wire.encode",
                ],
            ),
        ),
        ("process.cpu_ms_per_op", cpu_ms_per_op),
        (
            "trace.overhead",
            overhead_ratio(direct.seconds, plain.seconds),
        ),
    ]));
    Traced {
        metrics: m,
        attempted: socket.count(),
        failed: checked.failed,
        errors,
        passes: vec![("socket", socket.spans), ("direct", direct.spans)],
    }
}
