//! Reference oracles for the keyed decoders and the direct response
//! encoders, with the property tests that hold the two sides equal.
//!
//! The references are the implementations the keyed path replaced,
//! kept here verbatim: the `BTreeSet` edge-list builders that used to
//! live in `dsa_graphs::io`, the `Json`-tree walk that used to be
//! `http::decode_job_spec`, the per-variant rebuild that used to be
//! `job::canonicalize_job`, the tree / `String`-per-id response
//! encoders, and the `graph-patch` op parser that joined a frame's op
//! lines into a new `String` before splitting them again. Random
//! submissions over all four variants and both codecs (row order,
//! self-loops, duplicates in both orientations, duplicate JSON keys,
//! any key order, whitespace) must decode to the same key, canonical
//! keys, edge-id permutation, config and timeout on both sides, and
//! malformed ones to the same HTTP status and `code` slug. Random op
//! blocks must give the same ops, or the same error text.

use std::collections::BTreeSet;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::canon::{self, Fnv1a};
use dsa_graphs::io::ParseGraphError;
use dsa_graphs::{DiGraph, EdgeId, EdgeSet, EdgeWeights, Graph, VertexId};
use dsa_runtime::json::Json;

use crate::graphs::{DeltaOp, EdgeRole};
use crate::http::{decode_job, decode_job_spec, encode_job_response, job_error_status_code};
use crate::job::{validate_config, CanonicalJob, JobError, JobResponse, JobSpec};
use crate::wire::{
    self, decode_run_job, encode_run_response, narrow_usize, parse_delta_ops, parse_run_headers,
    Request, MIN_VERTEX_ALLOWANCE,
};

fn proto(message: impl Into<String>) -> JobError {
    JobError::Protocol(message.into())
}

// ---------------------------------------------------------------------
// Reference edge-list builders (formerly `dsa_graphs::io`)
// ---------------------------------------------------------------------

type DataRows = Vec<(usize, Vec<u64>)>;

fn ref_parse_lines(text: &str) -> Result<(usize, DataRows), ParseGraphError> {
    let mut n: Option<usize> = None;
    let mut rows = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if n.is_none() && fields.len() == 2 && fields[0] == "n" {
                n = Some(
                    fields[1]
                        .parse()
                        .map_err(|e| ParseGraphError::from((line_no, e)))?,
                );
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 && fields.len() != 3 {
            return Err(ParseGraphError::BadLine(line_no));
        }
        let nums: Vec<u64> = fields
            .iter()
            .map(|f| f.parse::<u64>().map_err(|e| (line_no, e).into()))
            .collect::<Result<_, ParseGraphError>>()?;
        rows.push((line_no, nums));
    }
    let n = n.ok_or(ParseGraphError::MissingHeader)?;
    Ok((n, rows))
}

fn endpoints_checked(
    n: usize,
    line: usize,
    nums: &[u64],
) -> Result<(VertexId, VertexId), ParseGraphError> {
    // Range-check in u64 before narrowing: casting first would wrap
    // huge ids on 32-bit hosts and silently accept a wrong edge.
    if nums[0] >= n as u64 || nums[1] >= n as u64 {
        return Err(ParseGraphError::VertexOutOfRange(line));
    }
    Ok((nums[0] as usize, nums[1] as usize))
}

fn ref_build_graph<'a>(
    n: usize,
    rows: impl Iterator<Item = (usize, &'a [u64])>,
) -> Result<(Graph, Option<EdgeWeights>), ParseGraphError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut seen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let mut weights: Vec<u64> = Vec::new();
    let mut any_weight = false;
    let mut any_plain = false;
    for (line, nums) in rows {
        if nums.len() != 2 && nums.len() != 3 {
            return Err(ParseGraphError::BadLine(line));
        }
        let (u, v) = endpoints_checked(n, line, nums)?;
        let Some(key) = canon::undirected_key(u, v) else {
            continue; // self-loop
        };
        if !seen.insert(key) {
            continue; // duplicate edge: first occurrence wins
        }
        // Weight consistency is judged over the *surviving* lines:
        // a dropped self-loop or duplicate cannot poison the parse.
        if nums.len() == 3 {
            any_weight = true;
        } else {
            any_plain = true;
        }
        edges.push((u, v));
        if nums.len() == 3 {
            weights.push(nums[2]);
        }
    }
    if any_weight && any_plain {
        return Err(ParseGraphError::InconsistentWeights);
    }
    let w = any_weight.then(|| EdgeWeights::from_vec(weights));
    Ok((Graph::from_edges(n, edges), w))
}

fn ref_build_digraph<'a>(
    n: usize,
    rows: impl Iterator<Item = (usize, &'a [u64])>,
) -> Result<DiGraph, ParseGraphError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut seen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    for (line, nums) in rows {
        if nums.len() != 2 && nums.len() != 3 {
            return Err(ParseGraphError::BadLine(line));
        }
        let (u, v) = endpoints_checked(n, line, nums)?;
        let Some(key) = canon::directed_key(u, v) else {
            continue;
        };
        if !seen.insert(key) {
            continue;
        }
        edges.push((u, v));
    }
    Ok(DiGraph::from_edges(n, edges))
}

fn ref_rows_to_graph(
    n: usize,
    rows: &[Vec<u64>],
) -> Result<(Graph, Option<EdgeWeights>), ParseGraphError> {
    ref_build_graph(
        n,
        rows.iter().enumerate().map(|(i, r)| (i + 1, r.as_slice())),
    )
}

fn ref_rows_to_digraph(n: usize, rows: &[Vec<u64>]) -> Result<DiGraph, ParseGraphError> {
    ref_build_digraph(
        n,
        rows.iter().enumerate().map(|(i, r)| (i + 1, r.as_slice())),
    )
}

fn ref_parse_edge_list(text: &str) -> Result<(Graph, Option<EdgeWeights>), ParseGraphError> {
    let (n, rows) = ref_parse_lines(text)?;
    ref_build_graph(n, rows.iter().map(|(line, nums)| (*line, nums.as_slice())))
}

fn ref_parse_directed_edge_list(text: &str) -> Result<DiGraph, ParseGraphError> {
    let (n, rows) = ref_parse_lines(text)?;
    ref_build_digraph(n, rows.iter().map(|(line, nums)| (*line, nums.as_slice())))
}

// ---------------------------------------------------------------------
// Reference decoders (formerly `http::decode_job_spec` and the graph
// half of the wire decoder)
// ---------------------------------------------------------------------

fn ref_decode_job_spec(body: &[u8]) -> Result<JobSpec, JobError> {
    let text = std::str::from_utf8(body).map_err(|_| proto("body is not UTF-8"))?;
    let v = Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))?;
    let pairs = v
        .as_obj()
        .ok_or_else(|| proto("job spec must be a JSON object"))?;
    for (key, _) in pairs {
        match key.as_str() {
            "variant" | "seed" | "graph" | "clients" | "servers" | "accept_denominator"
            | "monotone" | "round_densities" | "max_iterations" | "shards" | "timeout_ms" => {}
            other => return Err(proto(format!("unknown key `{other}`"))),
        }
    }
    let variant: VariantKind = v
        .get("variant")
        .and_then(Json::as_str)
        .ok_or_else(|| proto("missing `variant` (string)"))?
        .parse()
        .map_err(JobError::Protocol)?;
    let seed = v
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto("missing `seed` (non-negative integer)"))?;

    let graph = v.get("graph").ok_or_else(|| proto("missing `graph`"))?;
    let graph_pairs = graph
        .as_obj()
        .ok_or_else(|| proto("`graph` must be an object"))?;
    for (key, _) in graph_pairs {
        if key != "n" && key != "edges" {
            return Err(proto(format!("unknown key `graph.{key}`")));
        }
    }
    let n = graph
        .get("n")
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
    let edges = graph
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or_else(|| proto("missing `graph.edges` (array of arrays)"))?;
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(edges.len());
    for (i, edge) in edges.iter().enumerate() {
        let fields = edge
            .as_arr()
            .ok_or_else(|| proto(format!("edge {i} must be an array")))?;
        let row = fields
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<u64>>>()
            .ok_or_else(|| proto(format!("edge {i}: fields must be non-negative integers")))?;
        rows.push(row);
    }
    let bad_graph = |e: ParseGraphError| proto(format!("bad graph: {e}"));

    let id_set = |key: &str, universe: usize| -> Result<EdgeSet, JobError> {
        let ids = v
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| proto(format!("missing `{key}` (array of edge ids)")))?;
        let mut set = EdgeSet::new(universe);
        for id in ids {
            let id = id
                .as_u64()
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| proto(format!("`{key}` ids must be non-negative integers")))?;
            if id >= universe {
                return Err(proto(format!(
                    "{key} id {id} out of range for {universe} edges"
                )));
            }
            set.insert(id);
        }
        Ok(set)
    };

    if !matches!(variant, VariantKind::ClientServer)
        && (v.get("clients").is_some() || v.get("servers").is_some())
    {
        return Err(proto(
            "`clients`/`servers` only apply to the client-server variant",
        ));
    }

    let instance = match variant {
        VariantKind::Undirected => {
            let (graph, w) = ref_rows_to_graph(n, &rows).map_err(bad_graph)?;
            if w.is_some() {
                return Err(proto("undirected variant takes [u, v] edges"));
            }
            VariantInstance::Undirected { graph }
        }
        VariantKind::Weighted => {
            let (graph, w) = ref_rows_to_graph(n, &rows).map_err(bad_graph)?;
            let weights = w.ok_or_else(|| proto("weighted variant needs [u, v, w] edges"))?;
            VariantInstance::Weighted { graph, weights }
        }
        VariantKind::Directed => {
            let graph = ref_rows_to_digraph(n, &rows).map_err(bad_graph)?;
            VariantInstance::Directed { graph }
        }
        VariantKind::ClientServer => {
            let (graph, w) = ref_rows_to_graph(n, &rows).map_err(bad_graph)?;
            if w.is_some() {
                return Err(proto("client-server variant takes [u, v] edges"));
            }
            let m = graph.num_edges();
            let clients = id_set("clients", m)?;
            let servers = id_set("servers", m)?;
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            }
        }
    };

    let mut config = EngineConfig::seeded(seed);
    let opt_u64 = |key: &str| -> Result<Option<u64>, JobError> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| proto(format!("`{key}` must be a non-negative integer"))),
        }
    };
    let opt_bool = |key: &str| -> Result<Option<bool>, JobError> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => x
                .as_bool()
                .map(Some)
                .ok_or_else(|| proto(format!("`{key}` must be a boolean"))),
        }
    };
    if let Some(d) = opt_u64("accept_denominator")? {
        config.accept_denominator = d;
    }
    if let Some(m) = opt_bool("monotone")? {
        config.monotone_stars = m;
    }
    if let Some(r) = opt_bool("round_densities")? {
        config.round_densities = r;
    }
    if let Some(m) = opt_u64("max_iterations")? {
        config.max_iterations = m;
    }
    if let Some(s) = opt_u64("shards")? {
        // Capped exactly like the wire decoder: a hostile
        // `"shards": 2^63` must not truncate on 32-bit targets.
        config.num_shards = crate::wire::decode_shards(s);
    }
    let timeout = opt_u64("timeout_ms")?.map(Duration::from_millis);

    Ok(JobSpec {
        instance,
        config,
        timeout,
    })
}

/// The wire decoder as it was: the (unchanged) header parse, then the
/// graph section through the reference text parsers.
fn ref_decode_run(body: &str) -> Result<JobSpec, JobError> {
    let h = parse_run_headers(body)?;
    let bad = |e: ParseGraphError| proto(format!("bad graph: {e}"));
    let instance = match h.variant {
        VariantKind::Undirected => {
            let (graph, w) = ref_parse_edge_list(h.graph).map_err(bad)?;
            if w.is_some() {
                return Err(proto("undirected variant takes an unweighted edge list"));
            }
            VariantInstance::Undirected { graph }
        }
        VariantKind::Weighted => {
            let (graph, w) = ref_parse_edge_list(h.graph).map_err(bad)?;
            let weights = w.ok_or_else(|| proto("weighted variant needs `u v w` edge lines"))?;
            VariantInstance::Weighted { graph, weights }
        }
        VariantKind::Directed => VariantInstance::Directed {
            graph: ref_parse_directed_edge_list(h.graph).map_err(bad)?,
        },
        VariantKind::ClientServer => {
            let (graph, w) = ref_parse_edge_list(h.graph).map_err(bad)?;
            if w.is_some() {
                return Err(proto("client-server variant takes an unweighted edge list"));
            }
            let m = graph.num_edges();
            let clients = wire::parse_id_list(
                h.clients
                    .as_deref()
                    .ok_or_else(|| proto("missing `clients` header"))?,
                m,
                "client",
            )?;
            let servers = wire::parse_id_list(
                h.servers
                    .as_deref()
                    .ok_or_else(|| proto("missing `servers` header"))?,
                m,
                "server",
            )?;
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            }
        }
    };
    Ok(JobSpec {
        instance,
        config: h.config,
        timeout: h.timeout,
    })
}

// ---------------------------------------------------------------------
// Reference canonicalization (formerly `job::canonicalize_job`)
// ---------------------------------------------------------------------

/// A spec rewritten into canonical edge order, the reference way.
struct RefJob {
    key: u64,
    instance: VariantInstance,
    from_canonical: Vec<EdgeId>,
}

/// Permutes an id-indexed edge set into canonical id space.
fn ref_remap_set(set: &EdgeSet, to_canonical: &[EdgeId]) -> EdgeSet {
    EdgeSet::from_iter(set.universe(), set.iter().map(|e| to_canonical[e]))
}

/// Validates `spec` and rewrites it into canonical form.
fn ref_canonicalize_job(spec: &JobSpec) -> Result<RefJob, JobError> {
    spec.instance.validate().map_err(JobError::Invalid)?;
    if spec.config.accept_denominator == 0 {
        return Err(JobError::Invalid(
            "accept denominator must be positive".into(),
        ));
    }

    let mut hasher = Fnv1a::new();
    hasher.write_bytes(b"dsa-service-job-v1");
    let (instance, from_canonical) = match &spec.instance {
        VariantInstance::Undirected { graph } => {
            let c = canon::canonicalize(graph);
            hasher.write_u64(canon::graph_hash(&c.graph));
            (
                VariantInstance::Undirected { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Directed { graph } => {
            let c = canon::canonicalize_digraph(graph);
            hasher.write_u64(canon::digraph_hash(&c.graph));
            (
                VariantInstance::Directed { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Weighted { graph, weights } => {
            let c = canon::canonicalize(graph);
            let weights = EdgeWeights::from_fn(graph.num_edges(), |canonical| {
                weights.get(c.from_canonical[canonical])
            });
            hasher.write_u64(canon::weighted_graph_hash(&c.graph, &weights));
            (
                VariantInstance::Weighted {
                    graph: c.graph,
                    weights,
                },
                c.from_canonical,
            )
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => {
            let c = canon::canonicalize(graph);
            let clients = ref_remap_set(clients, &c.to_canonical);
            let servers = ref_remap_set(servers, &c.to_canonical);
            hasher.write_u64(canon::graph_hash(&c.graph));
            for set in [&clients, &servers] {
                hasher.write_usize(set.len());
                for e in set.iter() {
                    hasher.write_usize(e);
                }
            }
            (
                VariantInstance::ClientServer {
                    graph: c.graph,
                    clients,
                    servers,
                },
                c.from_canonical,
            )
        }
    };

    // Variant discriminant and result-relevant engine configuration
    // (num_shards and cancel stay out: execution policy, not result).
    hasher.write_u64(match instance.kind() {
        VariantKind::Undirected => 1,
        VariantKind::Directed => 2,
        VariantKind::Weighted => 3,
        VariantKind::ClientServer => 4,
    });
    hasher.write_u64(spec.config.seed);
    hasher.write_u64(spec.config.accept_denominator);
    hasher.write_u64(u64::from(spec.config.monotone_stars));
    hasher.write_u64(u64::from(spec.config.round_densities));
    hasher.write_u64(spec.config.max_iterations);

    Ok(RefJob {
        key: hasher.finish(),
        instance,
        from_canonical,
    })
}

// ---------------------------------------------------------------------
// Reference encoders
// ---------------------------------------------------------------------

fn ref_encode_job_response(resp: &JobResponse) -> String {
    Json::Obj(vec![
        ("key".to_string(), Json::Str(format!("{:016x}", resp.key))),
        ("variant".to_string(), Json::Str(resp.kind.to_string())),
        ("converged".to_string(), Json::Bool(resp.converged)),
        ("iterations".to_string(), Json::U64(resp.iterations)),
        ("local_rounds".to_string(), Json::U64(resp.local_rounds)),
        ("star_fallbacks".to_string(), Json::U64(resp.star_fallbacks)),
        (
            "spanner_size".to_string(),
            Json::U64(resp.spanner.len() as u64),
        ),
        (
            "spanner".to_string(),
            Json::Arr(resp.spanner.iter().map(|&e| Json::U64(e as u64)).collect()),
        ),
    ])
    .encode()
}

fn ref_encode_run_response(resp: &JobResponse) -> String {
    let ids = resp
        .spanner
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "ok run\nkey {:016x}\nvariant {}\nconverged {}\niterations {}\nlocal-rounds {}\nstar-fallbacks {}\nspanner-size {}\nspanner {}\n",
        resp.key,
        resp.kind,
        u8::from(resp.converged),
        resp.iterations,
        resp.local_rounds,
        resp.star_fallbacks,
        resp.spanner.len(),
        ids,
    )
}
// ---------------------------------------------------------------------
// Reference graph-patch op parser (formerly in `wire`)
// ---------------------------------------------------------------------

/// The ops of a `graph-patch v2` body (everything after its command
/// line) as the frame decoder used to read them: the lines after `id`
/// and `ops` collected, joined into a new `String`, and parsed again.
/// The caller supplies valid `id` and `ops` lines.
fn ref_patch_ops(body: &str) -> Result<Vec<DeltaOp>, JobError> {
    let rest: Vec<&str> = body.lines().skip(2).collect();
    ref_parse_delta_ops(&rest.join("\n"))
}

fn ref_parse_delta_ops(text: &str) -> Result<Vec<DeltaOp>, JobError> {
    let mut ops = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(ref_decode_delta_op(line)?);
    }
    Ok(ops)
}

fn ref_decode_delta_op(line: &str) -> Result<DeltaOp, JobError> {
    let malformed = || {
        JobError::Protocol(format!(
            "malformed delta op `{line}` (expected `+ u v [weight|client|server|both]` or `- u v`)"
        ))
    };
    let parse_u64 = |value: &str, what: &str| {
        value
            .parse::<u64>()
            .map_err(|_| JobError::Protocol(format!("invalid {what}: `{value}`")))
    };
    let endpoint = |raw: &str| {
        parse_u64(raw, "delta endpoint").and_then(|x| narrow_usize(x, "delta endpoint"))
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["+", u, v] => Ok(DeltaOp::Insert {
            u: endpoint(u)?,
            v: endpoint(v)?,
            weight: None,
            role: None,
        }),
        ["+", u, v, extra] => {
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
        ["-", u, v] => Ok(DeltaOp::Delete {
            u: endpoint(u)?,
            v: endpoint(v)?,
        }),
        _ => Err(malformed()),
    }
}

/// One random op-block line: every op shape, blank lines and comments,
/// and now and then a malformed op, with varied whitespace and no line
/// ending.
fn random_op_line(rng: &mut StdRng) -> String {
    let number = |rng: &mut StdRng| -> String {
        match rng.gen_range(0..8) {
            0 => u64::MAX.to_string(),
            1 => "+7".into(),
            2 => "007".into(),
            _ => rng.gen_range(0..50u32).to_string(),
        }
    };
    let op = |rng: &mut StdRng, sign: &str, operands: usize| -> Vec<String> {
        std::iter::once(sign.to_string())
            .chain((0..operands).map(|_| number(rng)))
            .collect()
    };
    let mut fields: Vec<String> = match rng.gen_range(0..10) {
        0 => vec![],
        1 => vec!["#".into(), "a comment".into()],
        2 => vec!["#+".into(), "1".into(), "2".into()],
        3 | 4 => op(rng, "+", 2),
        5 => op(rng, "+", 3),
        6 => {
            let role = ["client", "server", "both"].choose(rng).unwrap();
            let mut fields = op(rng, "+", 2);
            fields.push(role.to_string());
            fields
        }
        _ => op(rng, "-", 2),
    };
    if rng.gen_bool(0.04) {
        // A malformed op: a bad operand, arity or sign.
        fields = match rng.gen_range(0..8) {
            0 => op(rng, "+", 1),
            1 => op(rng, "-", 3),
            2 => op(rng, "+", 4),
            3 => vec!["+".into(), "1".into(), "2".into(), "Client".into()],
            4 => vec!["-".into(), "x1".into(), "2".into()],
            5 => vec![
                "+".into(),
                "1".into(),
                "2".into(),
                "18446744073709551616".into(),
            ],
            6 => {
                let sign = *["*", "++", "+1", "--"].choose(rng).unwrap();
                op(rng, sign, 2)
            }
            _ => vec![["+", "-"].choose(rng).unwrap().to_string()],
        };
    }
    let space = |rng: &mut StdRng| {
        *[" ", " ", "  ", "\t", "\u{a0}", "\u{3000}", " \u{b} "]
            .choose(rng)
            .unwrap()
    };
    let mut line = String::new();
    if rng.gen_bool(0.2) {
        line.push_str(space(rng));
    }
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            line.push_str(space(rng));
        }
        line.push_str(field);
    }
    if rng.gen_bool(0.2) {
        line.push_str(space(rng));
    }
    line
}

// ---------------------------------------------------------------------
// Random submissions
// ---------------------------------------------------------------------

/// One random submission, kept as text fragments so a test can break
/// any one of them and render both codecs from the same parts.
#[derive(Clone, Debug)]
struct Submission {
    variant: &'static str,
    seed: String,
    n: String,
    rows: Vec<Vec<String>>,
    /// Client-server only: the id lists, in submitted id space.
    clients: Option<Vec<String>>,
    servers: Option<Vec<String>>,
    /// `(JSON key, wire header, JSON value, wire value)`.
    options: Vec<(&'static str, &'static str, String, String)>,
    /// Extra top-level JSON pairs (unknown or repeated keys).
    extra: Vec<(String, String)>,
}

fn random_submission(rng: &mut StdRng) -> Submission {
    let kind = VariantKind::ALL[rng.gen_range(0..4usize)];
    let n: u64 = rng.gen_range(1..=10);
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for _ in 0..rng.gen_range(0..=24) {
        let row = if !rows.is_empty() && rng.gen_bool(0.2) {
            // A repeat, half the time reversed (a duplicate when
            // undirected, a new edge when directed).
            let prev = &rows[rng.gen_range(0..rows.len())];
            if rng.gen_bool(0.5) {
                vec![prev[1], prev[0]]
            } else {
                vec![prev[0], prev[1]]
            }
        } else {
            let u = rng.gen_range(0..n);
            let v = if rng.gen_bool(0.15) {
                u
            } else {
                rng.gen_range(0..n)
            };
            vec![u, v]
        };
        rows.push(row);
    }
    for row in &mut rows {
        let weighted = match kind {
            VariantKind::Weighted => true,
            VariantKind::Directed => rng.gen_bool(0.2),
            _ => false,
        };
        if weighted {
            row.push(if rng.gen_bool(0.1) {
                u64::MAX
            } else {
                rng.gen_range(0..20)
            });
        }
    }
    let (clients, servers) = if kind == VariantKind::ClientServer {
        let m = ref_rows_to_graph(n as usize, &rows).map_or(0, |(g, _)| g.num_edges());
        let ids = |rng: &mut StdRng| -> Vec<String> {
            (0..rng.gen_range(0..=m + 2))
                .map(|_| rng.gen_range(0..m.max(1)).to_string())
                .collect()
        };
        (Some(ids(rng)), Some(ids(rng)))
    } else {
        (None, None)
    };
    let mut options = Vec::new();
    let mut option = |json: &'static str, wire: &'static str, value: String, wire_value: String| {
        options.push((json, wire, value, wire_value))
    };
    if rng.gen_bool(0.3) {
        let d = rng.gen_range(1..9u64).to_string();
        option("accept_denominator", "accept-denominator", d.clone(), d);
    }
    for (json, wire) in [
        ("monotone", "monotone"),
        ("round_densities", "round-densities"),
    ] {
        if rng.gen_bool(0.3) {
            let b = rng.gen_bool(0.5);
            option(json, wire, b.to_string(), u8::from(b).to_string());
        }
    }
    if rng.gen_bool(0.3) {
        let m = rng.gen_range(0..1_000_000u64).to_string();
        option("max_iterations", "max-iterations", m.clone(), m);
    }
    if rng.gen_bool(0.3) {
        let s = if rng.gen_bool(0.2) {
            1u64 << 40
        } else {
            rng.gen_range(0..8)
        }
        .to_string();
        option("shards", "shards", s.clone(), s);
    }
    if rng.gen_bool(0.3) {
        let t = rng.gen_range(0..100_000u64).to_string();
        option("timeout_ms", "timeout-ms", t.clone(), t);
    }
    let seed = if rng.gen_bool(0.1) {
        u64::MAX
    } else {
        rng.gen_range(0..1000)
    };
    Submission {
        variant: kind.as_str(),
        seed: seed.to_string(),
        n: n.to_string(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(u64::to_string).collect())
            .collect(),
        clients,
        servers,
        options,
        extra: Vec::new(),
    }
}

/// Optional whitespace between JSON tokens.
fn ws(rng: &mut StdRng) -> &'static str {
    ["", "", " ", "\n", "\t ", "  "][rng.gen_range(0..6usize)]
}

/// A field separator of the wire edge list: any `char::is_whitespace`
/// run, non-ASCII ones included (U+00A0, U+2003, U+0085).
fn wire_space(rng: &mut StdRng) -> &'static str {
    [
        " ", " ", " ", "  ", "\t", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{85}", " \t ",
    ][rng.gen_range(0..11usize)]
}

/// A wire spelling of a number field: now and then with the `+` sign
/// or the leading zeros `u64::from_str` accepts.
fn wire_number(rng: &mut StdRng, field: &str) -> String {
    if field.is_empty() || !field.bytes().all(|b| b.is_ascii_digit()) {
        return field.to_string();
    }
    match rng.gen_range(0..8) {
        0 => format!("+{field}"),
        1 => format!("00{field}"),
        2 => format!("+0{field}"),
        _ => field.to_string(),
    }
}

/// One wire edge line: the fields spelled and separated at random,
/// sometimes with leading or trailing whitespace.
fn wire_line(rng: &mut StdRng, fields: &[String]) -> String {
    let mut line = String::new();
    if rng.gen_bool(0.1) {
        line.push_str(wire_space(rng));
    }
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            line.push_str(wire_space(rng));
        }
        line.push_str(&wire_number(rng, field));
    }
    if rng.gen_bool(0.1) {
        line.push_str(wire_space(rng));
    }
    line
}

/// Renders the pairs as an object in random order; a pair whose key
/// already occurred keeps its place after the first occurrence, so
/// the first still wins.
fn json_object(
    rng: &mut StdRng,
    mut pairs: Vec<(String, String)>,
    repeats: Vec<(String, String)>,
) -> String {
    pairs.shuffle(rng);
    for (key, value) in repeats {
        let after = pairs
            .iter()
            .position(|(k, _)| *k == key)
            .map_or(0, |i| i + 1);
        let at = rng.gen_range(after..=pairs.len());
        pairs.insert(at, (key, value));
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}\"{k}\"{}:{}{v}{}",
            ws(rng),
            ws(rng),
            ws(rng),
            ws(rng)
        ));
    }
    out.push('}');
    out
}

fn json_array(rng: &mut StdRng, items: &[String]) -> String {
    let sep = format!("{},{}", ws(rng), ws(rng));
    format!("[{}{}{}]", ws(rng), items.join(&sep), ws(rng))
}

/// A JSON edge row; a `0` field is now and then spelled `-0`, which
/// JSON reads as the integer 0.
fn json_row(rng: &mut StdRng, fields: &[String]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|f| {
            if f == "0" && rng.gen_bool(0.2) {
                "-0".to_string()
            } else {
                f.clone()
            }
        })
        .collect();
    json_array(rng, &fields)
}

fn render_json(sub: &Submission, rng: &mut StdRng) -> String {
    let rows: Vec<String> = sub.rows.iter().map(|r| json_row(rng, r)).collect();
    let edges = json_array(rng, &rows);
    let mut graph_repeats = Vec::new();
    if rng.gen_bool(0.1) {
        graph_repeats.push(("n".to_string(), "\"ignored\"".to_string()));
    }
    if rng.gen_bool(0.1) {
        graph_repeats.push(("edges".to_string(), "[[0]]".to_string()));
    }
    let graph = json_object(
        rng,
        vec![
            ("n".to_string(), sub.n.clone()),
            ("edges".to_string(), edges),
        ],
        graph_repeats,
    );
    let mut pairs = vec![
        ("variant".to_string(), format!("\"{}\"", sub.variant)),
        ("seed".to_string(), sub.seed.clone()),
        ("graph".to_string(), graph),
    ];
    for (key, ids) in [("clients", &sub.clients), ("servers", &sub.servers)] {
        if let Some(ids) = ids {
            pairs.push((key.to_string(), json_array(rng, ids)));
        }
    }
    for (json, _, value, _) in &sub.options {
        pairs.push((json.to_string(), value.clone()));
    }
    pairs.extend(sub.extra.iter().cloned());
    // Repeated keys: the later value is read and ignored.
    let mut repeats = Vec::new();
    if rng.gen_bool(0.2) {
        let (key, value): (&str, &str) = [
            ("seed", "\"not a seed\""),
            ("variant", "\"no-such-variant\""),
            ("graph", "{\"bogus\": true}"),
            ("monotone", "42"),
        ][rng.gen_range(0..4usize)];
        repeats.push((key.to_string(), value.to_string()));
    }
    json_object(rng, pairs, repeats)
}

fn render_wire(sub: &Submission, rng: &mut StdRng) -> String {
    let mut headers = vec![
        format!("variant {}", sub.variant),
        format!("seed {}", sub.seed),
    ];
    for (key, ids) in [("clients", &sub.clients), ("servers", &sub.servers)] {
        if let Some(ids) = ids {
            headers.push(format!("{key} {}", ids.join(" ")));
        }
    }
    for (_, wire, _, value) in &sub.options {
        headers.push(format!("{wire} {value}"));
    }
    headers.shuffle(rng);
    let mut lines: Vec<String> = sub.rows.iter().map(|r| wire_line(rng, r)).collect();
    for _ in 0..rng.gen_range(0..3) {
        let at = rng.gen_range(0..=lines.len());
        let filler: &str = ["", "# a comment", "   ", "\u{a0}"][rng.gen_range(0..4usize)];
        lines.insert(at, filler.to_string());
    }
    let at = if rng.gen_bool(0.8) {
        0
    } else {
        rng.gen_range(0..=lines.len())
    };
    let gap = if rng.gen_bool(0.2) {
        ""
    } else {
        wire_space(rng)
    };
    let header = format!("#{gap}n{}{}", wire_space(rng), wire_number(rng, &sub.n));
    lines.insert(at, wire_line(rng, &[header]));
    let eol = if rng.gen_bool(0.3) { "\r\n" } else { "\n" };
    format!("{}\ngraph\n{}{eol}", headers.join("\n"), lines.join(eol))
}

// ---------------------------------------------------------------------
// The two sides
// ---------------------------------------------------------------------

/// The HTTP status and `code` a body gets from the keyed path: the
/// decoder, then submission-time validation.
fn keyed_http(body: &[u8]) -> Result<CanonicalJob, (u16, &'static str)> {
    let job = decode_job(body).map_err(|e| job_error_status_code(&e))?;
    validate_config(&job.config).map_err(|e| job_error_status_code(&e))?;
    Ok(job)
}

/// The same through the reference tree walk and canonicalization.
fn reference_http(body: &[u8]) -> Result<(JobSpec, RefJob), (u16, &'static str)> {
    let spec = ref_decode_job_spec(body).map_err(|e| job_error_status_code(&e))?;
    let job = ref_canonicalize_job(&spec).map_err(|e| job_error_status_code(&e))?;
    Ok((spec, job))
}

fn keyed_wire(body: &str) -> Result<CanonicalJob, (u16, &'static str)> {
    let job = decode_run_job(body).map_err(|e| job_error_status_code(&e))?;
    validate_config(&job.config).map_err(|e| job_error_status_code(&e))?;
    Ok(job)
}

fn reference_wire(body: &str) -> Result<(JobSpec, RefJob), (u16, &'static str)> {
    let spec = ref_decode_run(body).map_err(|e| job_error_status_code(&e))?;
    let job = ref_canonicalize_job(&spec).map_err(|e| job_error_status_code(&e))?;
    Ok((spec, job))
}

type ConfigFields = (u64, u64, bool, bool, u64, usize);

fn config_fields(c: &EngineConfig) -> ConfigFields {
    (
        c.seed,
        c.accept_denominator,
        c.monotone_stars,
        c.round_densities,
        c.max_iterations,
        c.num_shards,
    )
}

/// Both sides accepted: same key, canonical instance, permutation,
/// config and timeout. Returns the key.
fn assert_same_job(what: &str, job: &CanonicalJob, spec: &JobSpec, reference: &RefJob) -> u64 {
    assert_eq!(job.key, reference.key, "{what}: key");
    assert_eq!(
        job.instance.instance(),
        reference.instance,
        "{what}: canonical instance"
    );
    assert_eq!(
        job.from_canonical, reference.from_canonical,
        "{what}: permutation"
    );
    assert_eq!(
        config_fields(&job.config),
        config_fields(&spec.config),
        "{what}: config"
    );
    assert_eq!(job.timeout, spec.timeout, "{what}: timeout");
    // The public adapter rebuilds exactly the reference spec.
    let adapted = job.to_spec();
    assert_eq!(
        adapted.instance, spec.instance,
        "{what}: submitted instance"
    );
    job.key
}

/// Checks one JSON body on both sides; returns the key if accepted.
fn check_http(body: &str) -> Option<u64> {
    match (keyed_http(body.as_bytes()), reference_http(body.as_bytes())) {
        (Ok(job), Ok((spec, reference))) => {
            let key = assert_same_job(body, &job, &spec, &reference);
            let adapted = decode_job_spec(body.as_bytes()).expect("adapter decodes");
            assert_eq!(adapted.instance, spec.instance, "{body}: decode_job_spec");
            Some(key)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{body}: status and code");
            None
        }
        (a, b) => panic!(
            "{body}: keyed {:?}, reference {:?}",
            a.map(|j| j.key),
            b.map(|(_, j)| j.key)
        ),
    }
}

/// Checks one wire body on both sides; returns the key if accepted.
fn check_wire(body: &str) -> Option<u64> {
    match (keyed_wire(body), reference_wire(body)) {
        (Ok(job), Ok((spec, reference))) => Some(assert_same_job(body, &job, &spec, &reference)),
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{body:?}: error class");
            None
        }
        (a, b) => panic!(
            "{body:?}: keyed {:?}, reference {:?}",
            a.map(|j| j.key),
            b.map(|(_, j)| j.key)
        ),
    }
}

/// Breaks one part of a submission, or returns a replacement body.
fn mutate(sub: &mut Submission, rng: &mut StdRng) -> Option<String> {
    let bad_number = [
        "-1",
        "1.5",
        "1.0",
        "01",
        "\"3\"",
        "null",
        "true",
        "1e2",
        "-0",
        "18446744073709551616",
        "+",
        "++1",
        "1+",
        "\u{661}",
        "1\u{661}",
        "[0, 1]",
    ];
    let pick =
        |rng: &mut StdRng, options: &[&str]| options[rng.gen_range(0..options.len())].to_string();
    match rng.gen_range(0..10) {
        0 if !sub.rows.is_empty() => {
            let i = rng.gen_range(0..sub.rows.len());
            let len = [0, 1, 4][rng.gen_range(0..3usize)];
            sub.rows[i] = (0..len).map(|k| k.to_string()).collect();
        }
        1 if !sub.rows.is_empty() => {
            let i = rng.gen_range(0..sub.rows.len());
            let far = pick(rng, &[&sub.n.clone(), "99", "99999999999"]);
            sub.rows[i][rng.gen_range(0..2usize)] = far;
        }
        2 if !sub.rows.is_empty() => {
            let i = rng.gen_range(0..sub.rows.len());
            let j = rng.gen_range(0..sub.rows[i].len());
            sub.rows[i][j] = pick(rng, &bad_number);
        }
        3 if !sub.rows.is_empty() => {
            let i = rng.gen_range(0..sub.rows.len());
            if sub.rows[i].len() == 3 {
                sub.rows[i].pop();
            } else {
                sub.rows[i].push("5".to_string());
            }
        }
        4 => match rng.gen_range(0..3) {
            0 => sub.clients = None,
            1 => {
                let far = pick(rng, &["10", "1000", "-2", "0.5"]);
                sub.clients.get_or_insert_with(Vec::new).push(far);
            }
            _ => sub.servers = Some(vec![pick(rng, &["null", "\"1\"", "99"])]),
        },
        5 => {
            sub.n = pick(
                rng,
                &["2000000000", "18446744073709551615", "-1", "1.0", "\"4\""],
            )
        }
        6 => {
            let key = pick(
                rng,
                &[
                    "seed",
                    "accept_denominator",
                    "monotone",
                    "shards",
                    "timeout_ms",
                ],
            );
            let value = pick(rng, &["0", "\"7\"", "1", "-3", "1.5", "null", "false"]);
            sub.extra.push((key, value));
        }
        7 => sub.extra.push(("bogus".to_string(), "1".to_string())),
        8 => {
            let body = pick(
                rng,
                &[
                    "[1, 2]",
                    "42",
                    "\"spec\"",
                    "null",
                    "",
                    "   ",
                    "{",
                    "{\"variant\":",
                    "{}",
                ],
            );
            return Some(body);
        }
        _ => {
            let missing = rng.gen_range(0..3);
            match missing {
                0 => sub.variant = "bipartite",
                1 => sub.seed = pick(rng, &["-1", "\"1\"", "1e3"]),
                _ => sub.rows.clear(),
            }
        }
    }
    None
}

/// Truncates a body or inserts a stray byte.
fn corrupt(body: &str, rng: &mut StdRng) -> String {
    let mut bytes: Vec<char> = body.chars().collect();
    if bytes.is_empty() {
        return "}".to_string();
    }
    let at = rng.gen_range(0..bytes.len());
    if rng.gen_bool(0.5) {
        bytes.truncate(at);
    } else {
        bytes.insert(
            at,
            ['{', ']', ',', ':', 'x', '"', '-', '9'][rng.gen_range(0..8usize)],
        );
    }
    bytes.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Well-formed submissions: both codecs decode to exactly what the
    /// reference decoders and canonicalization give, and the JSON and
    /// wire spellings of one submission share a key.
    #[test]
    fn keyed_decoders_agree_with_the_references(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sub = random_submission(&mut rng);
        let http_key = check_http(&render_json(&sub, &mut rng));
        let wire_key = check_wire(&render_wire(&sub, &mut rng));
        if let (Some(a), Some(b)) = (http_key, wire_key) {
            prop_assert_eq!(a, b);
        }
    }

    /// Broken submissions: the keyed decoders reject exactly what the
    /// references reject, with the same status and `code`.
    #[test]
    fn keyed_decoders_reject_what_the_references_reject(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sub = random_submission(&mut rng);
        let replaced = mutate(&mut sub, &mut rng);
        let mut json = replaced.clone().unwrap_or_else(|| render_json(&sub, &mut rng));
        let mut wire = render_wire(&sub, &mut rng);
        if rng.gen_bool(0.3) {
            json = corrupt(&json, &mut rng);
            wire = corrupt(&wire, &mut rng);
        }
        check_http(&json);
        if replaced.is_none() {
            check_wire(&wire);
        }
    }

    /// Random op blocks — CRLF and bare `\r` line ends, blank lines,
    /// `#` comments, every op shape and malformed ops — decode to the
    /// same ops, or the same error text, as through the join path, in a
    /// `graph-patch` frame and through the CLI's `parse_delta_ops`.
    #[test]
    fn patch_ops_decode_like_the_join_path(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let header_end = if rng.gen_bool(0.5) { "\n" } else { "\r\n" };
        let mut block = String::new();
        for _ in 0..rng.gen_range(0..12) {
            block.push_str(&random_op_line(&mut rng));
            block.push_str(["\n", "\n", "\r\n", "\r\r\n"].choose(&mut rng).unwrap());
        }
        if rng.gen_bool(0.3) {
            block.push_str(&random_op_line(&mut rng)); // no final line end
        }
        let body = format!("id g-1{header_end}ops{header_end}{block}");
        let framed = match wire::decode_request(format!("graph-patch v2\n{body}").as_bytes()) {
            Ok(Request::GraphPatch { id, ops }) => {
                prop_assert_eq!(id.as_str(), "g-1");
                Ok(ops)
            }
            Ok(other) => panic!("decoded {other:?}"),
            Err(e) => Err(e),
        };
        prop_assert_eq!(&framed, &ref_patch_ops(&body));
        prop_assert_eq!(&parse_delta_ops(&block), &ref_parse_delta_ops(&block));
    }

    /// The direct encoders write the bytes of the encoders they
    /// replaced.
    #[test]
    fn direct_encoders_match_the_references(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let big = |rng: &mut StdRng| if rng.gen_bool(0.2) { u64::MAX } else { rng.gen_range(0..5000) };
        let mut spanner: Vec<EdgeId> =
            (0..rng.gen_range(0..60)).map(|_| rng.gen_range(0..200)).collect();
        spanner.sort_unstable();
        spanner.dedup();
        let resp = JobResponse {
            key: rng.gen(),
            kind: VariantKind::ALL[rng.gen_range(0..4usize)],
            spanner,
            iterations: big(&mut rng),
            local_rounds: big(&mut rng),
            converged: rng.gen_bool(0.5),
            star_fallbacks: big(&mut rng),
        };
        prop_assert_eq!(encode_job_response(&resp), ref_encode_job_response(&resp));
        prop_assert_eq!(encode_run_response(&resp), ref_encode_run_response(&resp));
    }
}

/// The malformed inputs the contract names, each rejected alike.
#[test]
fn named_malformed_inputs_are_rejected_alike() {
    let ok_graph = r#""graph":{"n":4,"edges":[[0,1],[1,2]]}"#;
    let bodies = [
        // bad arity
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[[0,1],[2]]}}"#.to_string(),
        r#"{"variant":"directed","seed":1,"graph":{"n":4,"edges":[[0,1,2,3]]}}"#.to_string(),
        // out-of-range vertices
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[[0,4]]}}"#.to_string(),
        r#"{"variant":"weighted","seed":1,"graph":{"n":4,"edges":[[9,1,1]]}}"#.to_string(),
        // non-integer fields
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[[0,1.5]]}}"#.to_string(),
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[[0,-1]]}}"#.to_string(),
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[["0",1]]}}"#.to_string(),
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[0,1]}}"#.to_string(),
        format!(r#"{{"variant":"undirected","seed":1.0,{ok_graph}}}"#),
        // mixed weighted and unweighted rows
        r#"{"variant":"weighted","seed":1,"graph":{"n":4,"edges":[[0,1,3],[1,2]]}}"#.to_string(),
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"edges":[[0,1],[1,2,3]]}}"#.to_string(),
        // client ids missing or out of range
        format!(r#"{{"variant":"client-server","seed":1,"servers":[0],{ok_graph}}}"#),
        format!(r#"{{"variant":"client-server","seed":1,"clients":[2],"servers":[0],{ok_graph}}}"#),
        format!(r#"{{"variant":"undirected","seed":1,"clients":[0],{ok_graph}}}"#),
        // an oversized n
        r#"{"variant":"undirected","seed":1,"graph":{"n":99999999999,"edges":[]}}"#.to_string(),
        // bad JSON and non-object bodies
        format!(r#"{{"variant":"undirected","seed":1,{ok_graph}"#),
        format!(r#"{{"variant":"undirected","seed":1,{ok_graph}}} x"#),
        "[1,2,3]".to_string(),
        "\"spec\"".to_string(),
        String::new(),
        // unknown keys, and a zero denominator (422, not 400)
        format!(r#"{{"variant":"undirected","seed":1,"colour":"red",{ok_graph}}}"#),
        r#"{"variant":"undirected","seed":1,"graph":{"n":4,"m":2,"edges":[]}}"#.to_string(),
        format!(r#"{{"variant":"undirected","seed":1,"accept_denominator":0,{ok_graph}}}"#),
    ];
    for body in &bodies {
        assert!(check_http(body).is_none(), "accepted: {body}");
    }
    let denominator =
        format!(r#"{{"variant":"undirected","seed":1,"accept_denominator":0,{ok_graph}}}"#);
    assert_eq!(
        keyed_http(denominator.as_bytes()).err(),
        Some((422, "invalid"))
    );

    let frames = [
        "variant undirected\nseed 1\ngraph\n# n 4\n0 1\n2\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 4\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 x\n",
        "variant weighted\nseed 1\ngraph\n# n 4\n0 1 3\n1 2\n",
        "variant client-server\nseed 1\nservers 0\ngraph\n# n 4\n0 1\n",
        "variant client-server\nseed 1\nclients 1\nservers 0\ngraph\n# n 4\n0 1\n",
        "variant undirected\nseed 1\ngraph\n# n 99999999999\n",
        "variant undirected\nseed 1\ngraph\n0 1\n",
        "variant undirected\nseed 1\naccept-denominator 0\ngraph\n# n 4\n0 1\n",
    ];
    for frame in frames {
        assert!(check_wire(frame).is_none(), "accepted: {frame:?}");
    }
}

/// Row-level normalization straight against the reference builders,
/// including orders the decoders above rarely draw.
#[test]
fn key_builder_agrees_with_the_reference_builders() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..2000 {
        let n = rng.gen_range(1..8usize);
        let rows: Vec<Vec<u64>> = (0..rng.gen_range(0..20))
            .map(|_| {
                let mut row = vec![rng.gen_range(0..n as u64 + 1), rng.gen_range(0..n as u64)];
                if rng.gen_bool(0.3) {
                    row.push(rng.gen_range(0..4));
                }
                row
            })
            .collect();
        for directed in [false, true] {
            let mut builder = canon::KeyBuilder::new(n, directed);
            let keyed = rows
                .iter()
                .enumerate()
                .try_for_each(|(i, r)| builder.push_row(i + 1, r))
                .and_then(|()| builder.clone().finish());
            if directed {
                match (keyed, ref_rows_to_digraph(n, &rows)) {
                    (Ok(c), Ok(g)) => assert_eq!(c.submitted_digraph(), g),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("{rows:?}: {a:?} vs {b:?}"),
                }
            } else {
                match (keyed, ref_rows_to_graph(n, &rows)) {
                    (Ok(c), Ok((g, w))) => {
                        assert_eq!(c.submitted_graph(), g);
                        assert_eq!(c.submitted_weights(), w);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("{rows:?}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

/// The spellings the byte scanners treat specially, each decoded alike
/// by the keyed decoders and the references: signs, leading zeros,
/// `\r\n`, vertical tab, form feed and non-ASCII whitespace on the
/// wire; whitespace inside rows, `-0` and `u64::MAX` in JSON. Then the
/// near misses both reject.
#[test]
fn named_spellings_decode_alike() {
    let wire_ok = [
        "variant undirected\nseed 1\ngraph\n# n +04\n+0 001\r\n1\u{b}2\u{c}\r\n\u{a0}2\u{a0}3\n3\u{2003}0\u{85}\n",
        "variant weighted\nseed 1\ngraph\n#n 4\n0 1 18446744073709551615\n1 2 +0\n",
        "variant directed\nseed 1\ngraph\n#\u{3000}n\u{2028}4\n\u{85}0 1 +7\n",
    ];
    for frame in wire_ok {
        assert!(check_wire(frame).is_some(), "rejected: {frame:?}");
    }
    let wire_bad = [
        "variant undirected\nseed 1\ngraph\n# n 4\n0 \u{661}\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 ++1\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 +\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 1+\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 -0\n",
        "variant undirected\nseed 1\ngraph\n# n 4\n0 1 2 x\n",
        "variant undirected\nseed 1\ngraph\n# n \u{661}\n0 1\n",
        "variant weighted\nseed 1\ngraph\n# n 4\n0 1 18446744073709551616\n",
    ];
    for frame in wire_bad {
        assert!(check_wire(frame).is_none(), "accepted: {frame:?}");
    }
    let graph = |variant: &str, edges: &str| {
        format!(r#"{{"variant":"{variant}","seed":1,"graph":{{"n":4,"edges":{edges}}}}}"#)
    };
    let json_ok = [
        graph("undirected", "[ [ 0 , 1 ] ,[1,2 ]\n, [\t2, 3]]"),
        graph("undirected", "[[-0, 1], [1, 2]]"),
        graph("weighted", "[[0, 1, 18446744073709551615], [1, 2, 0]]"),
        graph("undirected", "[ ]"),
    ];
    for body in &json_ok {
        assert!(check_http(body).is_some(), "rejected: {body}");
    }
    let json_bad = [
        graph("undirected", "[[0, 01]]"),
        graph("undirected", "[[0, 1.0]]"),
        graph("weighted", "[[0, 1, 18446744073709551616]]"),
        graph("undirected", "[[]]"),
        graph("undirected", "[[0]]"),
        graph("undirected", "[[0, 1, 2, 3]]"),
        graph("undirected", "[[[0, 1]]]"),
        graph("undirected", "[[0, 1],]"),
        graph("undirected", "[[0, 1,]]"),
        graph("undirected", "[[0 1]]"),
    ];
    for body in &json_bad {
        assert!(check_http(body).is_none(), "accepted: {body}");
    }
}
