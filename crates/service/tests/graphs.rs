//! Integration tests for named long-lived graphs: the lifecycle over
//! both surfaces, the determinism contract (any insert/delete
//! interleaving serves a spanner byte-identical to a from-scratch
//! solve of the final edge set — property-tested on all four
//! variants), crash-mid-PATCH recovery of the graph delta log, and the
//! v1-vs-v2 protocol regression (old clients keep working against a
//! v2 server).

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{gen, DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_service::{
    wire, Client, DeltaOp, EdgeRole, GraphSpec, HttpClient, HttpServer, JobSpec, Server, Service,
    ServiceConfig,
};

/// A fresh per-test store directory (no tempfile dependency).
fn store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dsa-graphs-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_cfg(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// A client-side mirror of a graph's live edge list, in registry
/// live-id order: pairs normalized the way the graph constructors
/// store them (`(min, max)` except directed), plus variant extras.
#[derive(Clone)]
struct Mirror {
    kind: VariantKind,
    n: usize,
    recs: Vec<(usize, usize, u64, bool, bool)>,
}

impl Mirror {
    fn of(instance: &VariantInstance) -> Mirror {
        let kind = instance.kind();
        let (n, recs) = match instance {
            VariantInstance::Undirected { graph } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(_, u, v)| (u, v, 0, false, false))
                    .collect(),
            ),
            VariantInstance::Directed { graph } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(_, u, v)| (u, v, 0, false, false))
                    .collect(),
            ),
            VariantInstance::Weighted { graph, weights } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(e, u, v)| (u, v, weights.get(e), false, false))
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
                    .map(|(e, u, v)| (u, v, 0, clients.contains(e), servers.contains(e)))
                    .collect(),
            ),
        };
        Mirror { kind, n, recs }
    }

    fn pair(&self, u: usize, v: usize) -> (usize, usize) {
        if self.kind == VariantKind::Directed {
            (u, v)
        } else {
            (u.min(v), u.max(v))
        }
    }

    fn position(&self, u: usize, v: usize) -> Option<usize> {
        let p = self.pair(u, v);
        self.recs.iter().position(|r| (r.0, r.1) == p)
    }

    fn insert(&mut self, u: usize, v: usize, weight: u64, role: Option<EdgeRole>) {
        let (u, v) = self.pair(u, v);
        let (client, server) = match role {
            Some(EdgeRole::Client) => (true, false),
            Some(EdgeRole::Server) => (false, true),
            Some(EdgeRole::Both) => (true, true),
            None => (false, false),
        };
        self.recs.push((u, v, weight, client, server));
    }

    fn delete(&mut self, u: usize, v: usize) {
        let i = self.position(u, v).expect("deleting a live edge");
        // The registry compacts by dropping the record and shifting
        // the tail down one id; `Vec::remove` is exactly that.
        self.recs.remove(i);
    }

    /// Applies one op on its own, the way a one-op PATCH would.
    fn apply(&mut self, op: &DeltaOp) {
        match *op {
            DeltaOp::Insert { u, v, weight, role } => self.insert(u, v, weight.unwrap_or(0), role),
            DeltaOp::Delete { u, v } => self.delete(u, v),
        }
    }

    fn instance(&self) -> VariantInstance {
        let pairs: Vec<(usize, usize)> = self.recs.iter().map(|r| (r.0, r.1)).collect();
        match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_vec(self.recs.iter().map(|r| r.2).collect()),
            },
            VariantKind::ClientServer => {
                let m = self.recs.len();
                VariantInstance::ClientServer {
                    graph: Graph::from_edges(self.n, pairs),
                    clients: EdgeSet::from_iter(
                        m,
                        self.recs
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.3)
                            .map(|(i, _)| i),
                    ),
                    servers: EdgeSet::from_iter(
                        m,
                        self.recs
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.4)
                            .map(|(i, _)| i),
                    ),
                }
            }
        }
    }
}

/// One small seeded instance per variant, sized for property cases.
fn variant_instances(seed: u64) -> Vec<VariantInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(10 + (seed % 5) as usize, 0.35, &mut rng);
    let d = gen::random_digraph_connected(8 + (seed % 4) as usize, 0.2, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
        VariantInstance::Undirected { graph: g.clone() },
        VariantInstance::Directed { graph: d },
        VariantInstance::Weighted {
            graph: g.clone(),
            weights: w,
        },
        VariantInstance::ClientServer {
            graph: g,
            clients,
            servers,
        },
    ]
}

/// Asserts the maintained spanner is byte-identical (over its wire
/// encoding) to a from-scratch solve of the mirror's edge set.
fn assert_matches_from_scratch(service: &Service, id: &str, mirror: &Mirror, seed: u64) {
    let gs = service.graph_spanner(id).expect("spanner");
    let resp = service
        .run(&JobSpec::new(mirror.instance(), seed))
        .expect("from-scratch solve");
    assert_eq!(gs.key, resp.key, "{id}: cache key diverged");
    let want: Vec<(usize, usize)> = resp
        .spanner
        .iter()
        .map(|&e| (mirror.recs[e].0, mirror.recs[e].1))
        .collect();
    assert_eq!(gs.edges, want, "{id}: spanner edges diverged");
    // Equal structs are a necessary condition; the guarantee is stated
    // over bytes, so compare the actual wire encoding too.
    let mut scratch = gs.clone();
    scratch.edges = want;
    assert_eq!(
        wire::encode_graph_spanner_response(&gs),
        wire::encode_graph_spanner_response(&scratch),
        "{id}: wire bytes diverged"
    );
}

#[test]
fn lifecycle_works_across_tcp_and_http() {
    // One service, both frontends — create over TCP, read and patch
    // over HTTP, spanners byte-identical on both surfaces, retire over
    // HTTP, both surfaces then answer not-found.
    let service = Arc::new(Service::new(&ServiceConfig::default()));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");

    let instance = variant_instances(3).remove(0);
    let spec = GraphSpec {
        id: "life".to_string(),
        instance: instance.clone(),
        config: EngineConfig::seeded(3),
    };
    let created = tcp.graph_create(&spec).expect("create");
    assert!(!created.existed);
    assert_eq!(created.version, 0);
    assert!(created.spanner_size > 0);

    let mut mirror = Mirror::of(&instance);
    let meta = hc.graph_get("life").expect("get");
    assert_eq!((meta.version, meta.edges), (0, mirror.recs.len()));

    // Insert one absent pair over HTTP, delete one live edge over TCP.
    let (mut fu, mut fv) = (0, 1);
    'scan: for u in 0..mirror.n {
        for v in (u + 1)..mirror.n {
            if mirror.position(u, v).is_none() {
                (fu, fv) = (u, v);
                break 'scan;
            }
        }
    }
    let patched = hc
        .graph_patch(
            "life",
            &[DeltaOp::Insert {
                u: fu,
                v: fv,
                weight: None,
                role: None,
            }],
        )
        .expect("http patch");
    mirror.insert(fu, fv, 0, None);
    assert_eq!((patched.version, patched.edges), (1, mirror.recs.len()));
    let (du, dv) = {
        let r = mirror.recs[0];
        (r.0, r.1)
    };
    let patched = tcp
        .graph_patch("life", &[DeltaOp::Delete { u: du, v: dv }])
        .expect("tcp patch");
    mirror.delete(du, dv);
    assert_eq!((patched.version, patched.edges), (2, mirror.recs.len()));

    // Both surfaces serve the same spanner for the same version.
    let t = tcp.graph_spanner("life").expect("tcp spanner");
    let h = hc.graph_spanner("life").expect("http spanner");
    assert_eq!(t.version, 2);
    assert_eq!((t.key, &t.edges), (h.key, &h.edges));
    assert_matches_from_scratch(&service, "life", &mirror, 3);

    hc.graph_delete("life").expect("delete");
    assert!(
        tcp.graph_get("life").is_err(),
        "TCP still serves a retired graph"
    );
    assert!(
        hc.graph_get("life").is_err(),
        "HTTP still serves a retired graph"
    );

    http.shutdown();
    server.shutdown();
}

#[test]
fn a_patch_never_runs_the_engine() {
    let service = Service::new(&ServiceConfig::default());
    let instance = variant_instances(4).remove(0);
    let mut mirror = Mirror::of(&instance);
    service
        .graph_create(GraphSpec {
            id: "quiet".to_string(),
            instance,
            config: EngineConfig::seeded(4),
        })
        .expect("create");
    let runs = || service.metrics().latency_hist_count;
    service.graph_spanner("quiet").expect("first read");
    let before = runs();
    // A delete PATCH, then an insert PATCH straight after it: neither
    // runs the engine; the read after them does, once.
    let (du, dv) = (mirror.recs[0].0, mirror.recs[0].1);
    let (iu, iv) = (0..mirror.n)
        .flat_map(|u| ((u + 1)..mirror.n).map(move |v| (u, v)))
        .find(|&(u, v)| mirror.position(u, v).is_none())
        .expect("an absent pair");
    for op in [
        DeltaOp::Delete { u: du, v: dv },
        DeltaOp::Insert {
            u: iu,
            v: iv,
            weight: None,
            role: None,
        },
    ] {
        service
            .graph_patch("quiet", std::slice::from_ref(&op))
            .expect("patch");
        mirror.apply(&op);
        assert_eq!(runs(), before, "a PATCH ran the engine");
    }
    service.graph_spanner("quiet").expect("second read");
    assert_eq!(runs(), before + 1, "the read after the PATCHes solves once");
    assert_matches_from_scratch(&service, "quiet", &mirror, 4);
}

#[test]
fn a_graph_emptied_by_deletes_serves_an_empty_spanner() {
    let service = Service::new(&ServiceConfig::default());
    for (i, instance) in variant_instances(6).into_iter().enumerate() {
        let id = format!("empty-{}", instance.kind());
        let mut mirror = Mirror::of(&instance);
        service
            .graph_create(GraphSpec {
                id: id.clone(),
                instance,
                config: EngineConfig::seeded(i as u64),
            })
            .expect("create");
        let ops: Vec<DeltaOp> = mirror
            .recs
            .iter()
            .map(|r| DeltaOp::Delete { u: r.0, v: r.1 })
            .collect();
        let patched = service.graph_patch(&id, &ops).expect("delete every edge");
        assert_eq!(patched.edges, 0);
        mirror.recs.clear();
        assert!(service.graph_spanner(&id).expect("read").edges.is_empty());
        assert_matches_from_scratch(&service, &id, &mirror, i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The determinism contract: whatever interleaving of inserts and
    /// deletes a graph lives through, however they are grouped into
    /// PATCHes, the spanner it serves is byte-identical to a
    /// from-scratch solve of the final edge set — for every variant.
    /// The mirror applies the ops one at a time.
    #[test]
    fn any_interleaving_serves_the_from_scratch_spanner(
        seed in 0u64..100,
        script in proptest::collection::vec(
            (0usize..3, 0usize..64, 0usize..64, 0usize..3),
            1..14,
        ),
    ) {
        let service = Service::new(&ServiceConfig::default());
        for (i, instance) in variant_instances(seed).into_iter().enumerate() {
            let kind = instance.kind();
            let id = format!("prop-{kind}");
            let job_seed = seed + i as u64;
            service
                .graph_create(GraphSpec {
                    id: id.clone(),
                    instance: instance.clone(),
                    config: EngineConfig::seeded(job_seed),
                })
                .expect("create");
            let mut mirror = Mirror::of(&instance);
            let insert = |u: usize, v: usize, a: usize, b: usize| {
                let (weight, role) = match kind {
                    VariantKind::Weighted => (Some((a + b) as u64 % 10), None),
                    VariantKind::ClientServer => (None, Some(EdgeRole::Both)),
                    _ => (None, None),
                };
                DeltaOp::Insert { u, v, weight, role }
            };
            let mut patch = Vec::new();
            for (k, &(shape, a, b, close)) in script.iter().enumerate() {
                let (u, v) = (a % mirror.n, b % mirror.n);
                let live = mirror.position(u, v).is_some();
                // Shape 0 inserts an absent pair, 1 deletes a live one,
                // and 2 flips a pair and flips it back inside the same
                // PATCH: insert then delete, or delete then re-insert
                // with fresh extras.
                let ops = match (shape, live) {
                    _ if u == v => vec![],
                    (0, false) => vec![insert(u, v, a, b)],
                    (1, true) => vec![DeltaOp::Delete { u, v }],
                    (2, false) => vec![insert(u, v, a, b), DeltaOp::Delete { u, v }],
                    (2, true) => vec![DeltaOp::Delete { u, v }, insert(u, v, b, b)],
                    _ => vec![],
                };
                for op in ops {
                    mirror.apply(&op);
                    patch.push(op);
                }
                // `close` ends the PATCH after this entry one time in
                // three; the script's end always does.
                if !patch.is_empty() && (close == 0 || k + 1 == script.len()) {
                    service.graph_patch(&id, &patch).expect("patch");
                    patch.clear();
                }
            }
            assert_matches_from_scratch(&service, &id, &mirror, job_seed);
        }
    }
}

#[test]
fn crash_mid_patch_recovers_the_intact_prefix() {
    let dir = store_dir("crash");
    let instance = variant_instances(9).remove(0);
    let mut mirror = Mirror::of(&instance);
    let (mut inserts, mut probe) = (Vec::new(), Mirror::of(&instance));
    'scan: for u in 0..mirror.n {
        for v in (u + 1)..mirror.n {
            if probe.position(u, v).is_none() {
                probe.insert(u, v, 0, None);
                inserts.push((u, v));
                if inserts.len() == 3 {
                    break 'scan;
                }
            }
        }
    }
    assert_eq!(inserts.len(), 3, "instance too dense for the test");

    {
        let service = Service::open(&persistent_cfg(&dir)).expect("open");
        service
            .graph_create(GraphSpec {
                id: "crash".to_string(),
                instance: instance.clone(),
                config: EngineConfig::seeded(9),
            })
            .expect("create");
        for &(u, v) in &inserts {
            service
                .graph_patch(
                    "crash",
                    &[DeltaOp::Insert {
                        u,
                        v,
                        weight: None,
                        role: None,
                    }],
                )
                .expect("patch");
        }
    } // crash point: service drops, log holds create + 3 patches

    // Simulate a crash mid-PATCH append: a length header promising 400
    // bytes followed by a torn fragment of a record.
    let log = dir.join("graphs.log");
    let mut bytes = std::fs::read(&log).expect("graphs.log exists");
    let intact = bytes.len();
    bytes.extend_from_slice(&400u32.to_be_bytes());
    bytes.extend_from_slice(b"graph-patch v2\nid crash\ntorn");
    std::fs::write(&log, &bytes).expect("append torn tail");

    // Warm restart: the torn tail is dropped, the intact prefix
    // replays, and the graph serves exactly the prefix's edge set.
    let service = Service::open(&persistent_cfg(&dir)).expect("reopen after torn tail");
    for &(u, v) in &inserts {
        mirror.insert(u, v, 0, None);
    }
    let meta = service.graph_meta("crash").expect("meta after recovery");
    assert_eq!(meta.version, inserts.len() as u64);
    assert_eq!(meta.edges, mirror.recs.len());
    assert_matches_from_scratch(&service, "crash", &mirror, 9);

    // Recovery truncated the log back to the intact prefix, so the
    // next patch appends cleanly and survives another restart.
    assert_eq!(
        std::fs::metadata(&log).expect("log").len(),
        intact as u64,
        "torn tail must be truncated away"
    );
    let (u, v) = {
        let r = mirror.recs[0];
        (r.0, r.1)
    };
    service
        .graph_patch("crash", &[DeltaOp::Delete { u, v }])
        .expect("patch after recovery");
    mirror.delete(u, v);
    drop(service);

    let service = Service::open(&persistent_cfg(&dir)).expect("second reopen");
    let meta = service.graph_meta("crash").expect("meta");
    assert_eq!(meta.version, inserts.len() as u64 + 1);
    assert_matches_from_scratch(&service, "crash", &mirror, 9);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_clients_are_still_served_by_a_v2_server() {
    let server = Server::start("127.0.0.1:0", &ServiceConfig::default()).expect("bind");

    // A raw v1 peer: offers `hello v1`, must be answered with
    // `proto 1` and no feature tokens — the pre-handshake protocol.
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
    wire::write_frame(&mut raw, wire::encode_hello_request(1).as_bytes()).expect("send hello v1");
    let reply = wire::read_frame(&mut raw)
        .expect("read hello reply")
        .expect("server closed");
    assert_eq!(reply, wire::encode_hello_response(1, &[]).as_bytes());

    // A v1 client that never says hello at all: plain `run v1` frames
    // keep working unchanged on the same connection.
    let spec = JobSpec::new(variant_instances(5).remove(0), 5);
    wire::write_frame(&mut raw, wire::encode_request(&spec).as_bytes()).expect("send run");
    let reply = wire::read_frame(&mut raw)
        .expect("read run reply")
        .expect("server closed");
    let v1_resp = match wire::decode_response(&reply).expect("decode run response") {
        wire::Response::Run(resp) => resp,
        other => panic!("expected a run response, got {other:?}"),
    };
    assert!(v1_resp.converged);

    // A v2 client on a fresh connection negotiates up and sees the
    // graphs feature; its runs return the same bytes as the v1 path.
    let mut v2 = Client::connect(server.addr()).expect("v2 connect");
    assert_eq!(v2.hello().expect("hello"), (2, vec!["graphs".to_string()]));
    let v2_raw = v2.run_raw(&spec).expect("v2 run");
    assert_eq!(v2_raw, wire::encode_run_response(&v1_resp).as_bytes());

    server.shutdown();
}
