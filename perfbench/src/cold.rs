//! `cold_solve`: TCP `run` frames of distinct jobs, so every job misses
//! the cache, runs the engine once and appends one store record.
//!
//! The caller pulls from one seeded list of jobs over all four
//! variants, with vertex counts and degrees stratified over continuous
//! ranges so op costs form one continuous spread (no gap at p50 or
//! p95) and a run's total work barely depends on the seed. The service
//! opens over a fresh copy of the fixture store (the restart history),
//! which holds none of the timed jobs.

use std::path::PathBuf;
use std::sync::Arc;

use dsa_core::dist::{
    ClientServerTwoSpanner, DirectedTwoSpanner, SpannerVariant, UndirectedTwoSpanner,
    VariantInstance, VariantKind, WeightedTwoSpanner,
};
use dsa_graphs::EdgeSet;
use dsa_service::wire::{
    decode_request, decode_response, encode_request, encode_run_response, Request, Response,
};
use dsa_service::{JobSpec, Service};
use rand::seq::SliceRandom;

use crate::common::{
    callers, closed_loop, copy_store, cpu_seconds, direct_response, engine_metrics,
    op_type_metrics, open_service, peak_rss_mb, reset_peak_rss, residual_ms, rng, service_metrics,
    span_metrics, stratified_jobs, timed_setups, verify_spanner, Feed, FlightLog, Pass, Scratch,
    TcpEnv,
};
use crate::metrics::metrics;
use crate::stats::overhead_ratio;
use crate::trace::SpanBuf;
use crate::{Measured, Traced};

/// Timed jobs per second of `--seconds`.
const JOBS_PER_SECOND: usize = 40;
/// Warm-up jobs solved in every set-up. They come from a fixed stream,
/// the same for every seed, so the set-up does the same work each run.
const WARMUP_JOBS: usize = 16;
/// Vertex-count range of the jobs.
const VERTICES: (usize, usize) = (96, 224);
/// Average-degree range of the jobs; degree drives engine cost most.
const DEGREE: (f64, f64) = (8.0, 14.0);
/// Responses also compared byte for byte with a direct engine call.
const DIRECT_SAMPLE: usize = 8;

struct Inputs {
    scratch: Scratch,
    fixture: PathBuf,
    jobs: Vec<JobSpec>,
    frames: Vec<Vec<u8>>,
    warm_frames: Vec<Vec<u8>>,
}

fn inputs(seed: u64, seconds: u64) -> Inputs {
    let scratch = Scratch::new().expect("create scratch space");
    let fixture = crate::hot::build_fixture(&scratch, seed).dir;
    let jobs = stratified_jobs(
        JOBS_PER_SECOND * seconds as usize,
        VERTICES,
        DEGREE,
        &mut rng(seed, "cold-jobs"),
    );
    let warm = stratified_jobs(WARMUP_JOBS, VERTICES, DEGREE, &mut rng(0, "cold-warm"));
    let encode = |jobs: &[JobSpec]| {
        jobs.iter()
            .map(|j| encode_request(j).into_bytes())
            .collect()
    };
    Inputs {
        frames: encode(&jobs),
        warm_frames: encode(&warm),
        scratch,
        fixture,
        jobs,
    }
}

/// Opens the service over a fresh fixture copy, binds the TCP listener,
/// connects the callers and solves the warm-up jobs through them.
fn setup(dir: PathBuf, warm_frames: &[Vec<u8>]) -> TcpEnv {
    let mut env = TcpEnv::start(open_service(Some(dir)));
    let warm = env.pass(&Feed::Shared(warm_frames.len()), warm_frames, false);
    assert!(
        warm.records().all(|r| matches!(
            r.out.as_deref().map(decode_response),
            Ok(Ok(Response::Run(_)))
        )),
        "warm-up job failed"
    );
    env
}

/// Decodes every reply after the window: each spanner must pass its
/// variant's verifier, and a seeded sample must byte-match a direct
/// engine call. Returns the failed-op count.
fn check(
    inp: &Inputs,
    seed: u64,
    pass: &Pass<(), Result<Vec<u8>, String>>,
    errors: &mut Vec<String>,
) -> usize {
    let mut failed = 0;
    let mut sample: Vec<usize> = (0..inp.jobs.len()).collect();
    sample.shuffle(&mut rng(seed, "cold-sample"));
    sample.truncate(DIRECT_SAMPLE);
    for r in pass.records() {
        let job = &inp.jobs[r.op];
        let resp = match r.out.as_deref().map(decode_response) {
            Ok(Ok(Response::Run(resp))) => resp,
            _ => {
                failed += 1;
                continue;
            }
        };
        if !resp.converged || !verify_spanner(&job.instance, &resp.spanner) {
            errors.push(format!(
                "cold op {}: the spanner fails its variant's verifier",
                r.op
            ));
        }
        if sample.contains(&r.op) {
            let direct = encode_run_response(&direct_response(job, resp.key));
            if r.out.as_deref() != Ok(direct.as_bytes()) {
                errors.push(format!(
                    "cold op {}: reply differs from a direct run_variant",
                    r.op
                ));
            }
        }
    }
    failed
}

fn prepare(inp: &Inputs, name: &str) -> PathBuf {
    copy_store(&inp.scratch, &inp.fixture, name).expect("copy the fixture store")
}

/// Every timed job must miss the cache and run the engine exactly once.
fn check_fixed_work(
    jobs: usize,
    before: &dsa_service::MetricsSnapshot,
    after: &dsa_service::MetricsSnapshot,
    errors: &mut Vec<String>,
) {
    let misses = after.cache_misses - before.cache_misses;
    let runs = after.latency_hist_count - before.latency_hist_count;
    if misses != jobs as u64 || runs != jobs as u64 {
        errors.push(format!(
            "{misses} cache misses and {runs} engine runs for {jobs} distinct jobs"
        ));
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: u64) -> Measured {
    let inp = inputs(seed, seconds);
    reset_peak_rss();
    let (mut env, setup_s) = timed_setups(
        |k| prepare(&inp, &format!("setup-{k}")),
        |dir| setup(dir, &inp.warm_frames),
        TcpEnv::stop,
    );
    let before = env.service.metrics();
    let pass = env.pass(&Feed::Shared(inp.frames.len()), &inp.frames, false);
    let peak_rss_mb = peak_rss_mb();
    let after = env.service.metrics();
    env.stop();
    let mut errors = Vec::new();
    let failed = check(&inp, seed, &pass, &mut errors);
    check_fixed_work(inp.jobs.len(), &before, &after, &mut errors);
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
        failed,
        errors,
    }
}

/// What a connection thread does for one `run` frame, called directly.
fn direct_op(service: &Service, frame: &[u8], spans: &mut SpanBuf, i: usize) -> String {
    let root = spans.open("direct.op", i, None);
    let spec = match spans.time("wire.decode", i, root, || decode_request(frame)) {
        Ok(Request::Run(spec)) => spec,
        other => panic!("a run frame decoded to {other:?}"),
    };
    spans.time("canon.canonicalize", i, root, || {
        crate::common::canonicalize(&spec.instance)
    });
    let handle = spans
        .time("service.submit", i, root, || service.submit(&spec))
        .expect("submit");
    let resp = spans
        .time("service.wait", i, root, || handle.wait())
        .expect("wait");
    let out = spans.time("wire.encode", i, root, || encode_run_response(&resp));
    spans.close(root);
    out
}

fn direct_pass(inp: &Inputs, name: &str, traced: bool) -> Pass<(), String> {
    let env = setup(prepare(inp, name), &inp.warm_frames);
    let service = Arc::clone(&env.service);
    let pass = closed_loop(
        vec![(); callers()],
        &Feed::Shared(inp.frames.len()),
        traced,
        |_, spans, i| direct_op(&service, &inp.frames[i], spans, i),
    );
    drop(service);
    env.stop();
    pass
}

/// Replays iteration 1's Step 1 of one instance from outside the
/// engine: every vertex's star space, then its densest star.
fn replay_step1<V: SpannerVariant>(v: &V, spans: &mut SpanBuf, op: usize) {
    let mut uncovered: EdgeSet = v.targets();
    uncovered.subtract(&v.covered(&v.preselected()));
    for x in 0..v.num_vertices() {
        let stars = spans.time("star.local_stars", op, None, || {
            v.local_stars(x, &uncovered)
        });
        spans.time("flow.densest", op, None, || {
            std::hint::black_box(stars.densest(None))
        });
    }
}

fn replay(instance: &VariantInstance, spans: &mut SpanBuf, op: usize) {
    match instance {
        VariantInstance::Undirected { graph } => {
            replay_step1(&UndirectedTwoSpanner::new(graph), spans, op)
        }
        VariantInstance::Directed { graph } => {
            replay_step1(&DirectedTwoSpanner::new(graph), spans, op)
        }
        VariantInstance::Weighted { graph, weights } => {
            replay_step1(&WeightedTwoSpanner::new(graph, weights), spans, op)
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => replay_step1(
            &ClientServerTwoSpanner::new(graph, clients, servers),
            spans,
            op,
        ),
    }
}

/// The op-type name of a variant.
pub fn variant_type(kind: VariantKind) -> &'static str {
    match kind {
        VariantKind::Undirected => "undirected",
        VariantKind::Directed => "directed",
        VariantKind::Weighted => "weighted",
        VariantKind::ClientServer => "client_server",
    }
}

/// The traced run: a socket pass, the direct pass with and without span
/// recording, and the Step 1 replay.
pub fn trace(seed: u64, seconds: u64) -> Traced {
    let inp = inputs(seed, seconds);
    let mut env = setup(prepare(&inp, "socket"), &inp.warm_frames);
    let log = FlightLog::start(&env.service);
    let before = env.service.metrics();
    let cpu0 = cpu_seconds();
    let socket = env.pass(&Feed::Shared(inp.frames.len()), &inp.frames, true);
    let cpu_ms_per_op = (cpu_seconds() - cpu0) * 1e3 / socket.count() as f64;
    let after = env.service.metrics();
    let mut errors = Vec::new();
    let events = log.finish(&mut errors);
    env.stop();
    let failed = check(&inp, seed, &socket, &mut errors);
    check_fixed_work(inp.jobs.len(), &before, &after, &mut errors);
    let direct = direct_pass(&inp, "direct", true);
    let plain = direct_pass(&inp, "plain", false);
    let replies: std::collections::HashMap<usize, &Vec<u8>> = socket
        .records()
        .filter_map(|r| r.out.as_ref().ok().map(|b| (r.op, b)))
        .collect();
    for r in direct.records() {
        if replies.get(&r.op).map(|b| b.as_slice()) != Some(r.out.as_bytes()) {
            errors.push(format!(
                "cold op {}: direct reply differs from the socket reply",
                r.op
            ));
        }
    }
    let star = closed_loop(
        vec![(); callers()],
        &Feed::Shared(inp.jobs.len()),
        true,
        |_, spans, i| replay(&inp.jobs[i].instance, spans, i),
    );

    let types: Vec<(&'static str, f64)> = socket
        .records()
        .map(|r| (variant_type(inp.jobs[r.op].instance.kind()), r.ms()))
        .collect();
    let mut m = service_metrics(&before, &after);
    m.extend(engine_metrics(&events));
    m.extend(span_metrics(&socket.spans));
    m.extend(span_metrics(&direct.spans));
    m.extend(span_metrics(&star.spans));
    m.extend(op_type_metrics(&types));
    m.extend(metrics(&[
        (
            "net.residual_ms",
            residual_ms(
                &socket,
                &direct.spans,
                &[
                    "wire.decode",
                    "service.submit",
                    "service.wait",
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
        failed,
        errors,
        passes: vec![
            ("socket", socket.spans),
            ("direct", direct.spans),
            ("step1", star.spans),
        ],
    }
}
