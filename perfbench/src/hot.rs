//! `hot_mixed`, plus the results.log fixture it shares with
//! `cold_solve`.
//!
//! A keep-alive HTTP caller repeats `POST /v1/jobs` requests drawn
//! uniformly from a working set of already-solved jobs. The working set
//! is a quarter larger than the service's default 256-entry LRU, so
//! about a fifth of the hits miss the LRU and are verified disk hits;
//! no engine run happens in the timed window. The cost is decode,
//! canonicalization, the cache lock, disk-hit verification and encode.

use std::path::PathBuf;
use std::sync::Arc;

use dsa_service::http::{decode_job_spec, encode_job_response, encode_job_spec};
use dsa_service::{HttpClient, HttpServer, JobSpec, Service};
use rand::Rng;

use crate::common::{
    callers, closed_loop, copy_store, cpu_seconds, engine_metrics, op_type_metrics, open_service,
    peak_rss_mb, reset_peak_rss, residual_ms, rng, service_metrics, span_metrics, stratified_jobs,
    timed_setups, Feed, FlightLog, HitLog, Pass, Scratch,
};
use crate::metrics::metrics;
use crate::stats::overhead_ratio;
use crate::trace::SpanBuf;
use crate::{Measured, Traced};

/// Jobs in the working set: 1.25 × the default LRU capacity.
pub const WORKING_SET: usize = 320;
/// Vertex-count range of working-set instances.
const VERTICES: (usize, usize) = (32, 2048);
/// Average-degree range of working-set instances.
const DEGREE: (f64, f64) = (3.0, 8.0);
/// Requests per second of `--seconds`.
const REQS_PER_SECOND: usize = 300;

/// The solved working set and its store.
pub struct Fixture {
    /// Directory holding the fixture's `results.log`.
    pub dir: PathBuf,
    /// The working-set jobs.
    pub jobs: Vec<JobSpec>,
    /// Each job's canonical key.
    pub keys: Vec<u64>,
    /// Each job's `POST /v1/jobs` 200 body, as the cold solve produced it.
    pub bodies: Vec<Vec<u8>>,
}

/// Solves the seed's working set once through a service writing to a
/// fresh store, one job at a time so the log order (and with it the
/// records a warm start replays) is the same on every run. Every run
/// starts from a copy of this store, so neither cold_solve's appends
/// nor earlier runs ever leak into a set-up.
pub fn build_fixture(scratch: &Scratch, seed: u64) -> Fixture {
    let jobs = stratified_jobs(WORKING_SET, VERTICES, DEGREE, &mut rng(seed, "hot-set"));
    let dir = scratch
        .fresh("fixture")
        .expect("create the fixture directory");
    let service = open_service(Some(dir.clone()));
    let responses: Vec<_> = jobs
        .iter()
        .map(|job| service.run(job).expect("solve a working-set job"))
        .collect();
    drop(service);
    Fixture {
        dir,
        keys: responses.iter().map(|r| r.key).collect(),
        bodies: responses
            .iter()
            .map(|r| encode_job_response(r).into_bytes())
            .collect(),
        jobs,
    }
}

struct Env {
    service: Arc<Service>,
    server: HttpServer,
    clients: Vec<HttpClient>,
}

fn teardown(env: Env) {
    drop(env.clients);
    env.server.shutdown();
    drop(env.service);
}

/// Opens the service over a fresh copy of the fixture, binds the HTTP
/// listener, connects the callers and replays the working set once.
fn setup(dir: PathBuf, requests: &[String]) -> Env {
    let service = open_service(Some(dir));
    let server = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind HTTP");
    let clients = (0..callers())
        .map(|_| HttpClient::connect(server.addr()).expect("connect HTTP"))
        .collect();
    let warm = closed_loop(
        clients,
        &Feed::Shared(requests.len()),
        false,
        |c: &mut HttpClient, _, i| {
            c.request("POST", "/v1/jobs", Some(&requests[i]))
                .map(|(s, _)| s)
        },
    );
    assert!(
        warm.records().all(|r| r.out == Ok(200)),
        "warm-up request failed"
    );
    Env {
        service,
        server,
        clients: warm.callers,
    }
}

/// Outcome of one request, checked against the fixture's bytes with a
/// plain comparison so no body is kept.
#[derive(Clone, Debug, PartialEq)]
enum Reply {
    Match,
    Mismatch,
    Failed(String),
}

fn classify(result: Result<(u16, Vec<u8>), dsa_service::JobError>, expected: &[u8]) -> Reply {
    match result {
        Ok((200, body)) if body == expected => Reply::Match,
        Ok((200, _)) => Reply::Mismatch,
        Ok((status, _)) => Reply::Failed(format!("HTTP {status}")),
        Err(e) => Reply::Failed(e.to_string()),
    }
}

struct Inputs {
    scratch: Scratch,
    fixture: Fixture,
    requests: Vec<String>,
    draws: Vec<usize>,
}

fn inputs(seed: u64, seconds: u64) -> Inputs {
    let scratch = Scratch::new().expect("create scratch space");
    let fixture = build_fixture(&scratch, seed);
    let requests = fixture.jobs.iter().map(encode_job_spec).collect();
    let mut draw_rng = rng(seed, "hot-draws");
    let draws = (0..REQS_PER_SECOND * seconds as usize)
        .map(|_| draw_rng.gen_range(0..WORKING_SET))
        .collect();
    Inputs {
        scratch,
        fixture,
        requests,
        draws,
    }
}

fn socket_pass(env: &mut Env, inp: &Inputs, traced: bool) -> Pass<HttpClient, (Reply, u64, u64)> {
    let clients = std::mem::take(&mut env.clients);
    let recorder = env.service.flight_recorder();
    let mut pass = closed_loop(
        clients,
        &Feed::Shared(inp.draws.len()),
        traced,
        |c: &mut HttpClient, spans, i| {
            let job = inp.draws[i];
            let from = recorder.now_us();
            let id = spans.open("http.roundtrip", i, None);
            let result = c.request("POST", "/v1/jobs", Some(&inp.requests[job]));
            spans.close(id);
            let to = recorder.now_us();
            (classify(result, &inp.fixture.bodies[job]), from, to)
        },
    );
    env.clients = std::mem::take(&mut pass.callers);
    pass
}

fn check(pass: &Pass<HttpClient, (Reply, u64, u64)>, errors: &mut Vec<String>) -> usize {
    let mut failed = 0;
    for r in pass.records() {
        match &r.out.0 {
            Reply::Match => {}
            Reply::Mismatch => errors.push(format!(
                "hot op {}: body differs from the fixture's bytes",
                r.op
            )),
            Reply::Failed(_) => failed += 1,
        }
    }
    failed
}

fn prepare(inp: &Inputs, name: &str) -> PathBuf {
    copy_store(&inp.scratch, &inp.fixture.dir, name).expect("copy the fixture store")
}

/// The untraced run.
pub fn run(seed: u64, seconds: u64) -> Measured {
    let inp = inputs(seed, seconds);
    reset_peak_rss();
    let (mut env, setup_s) = timed_setups(
        |k| prepare(&inp, &format!("setup-{k}")),
        |dir| setup(dir, &inp.requests),
        teardown,
    );
    let before = env.service.metrics();
    let pass = socket_pass(&mut env, &inp, false);
    let peak_rss_mb = peak_rss_mb();
    let after = env.service.metrics();
    let mut errors = Vec::new();
    let failed = check(&pass, &mut errors);
    let engine_runs = after.latency_hist_count - before.latency_hist_count;
    if engine_runs != 0 {
        errors.push(format!(
            "{engine_runs} engine runs in the timed window (want 0)"
        ));
    }
    let latencies_ms = pass
        .records()
        .filter(|r| !matches!(r.out.0, Reply::Failed(_)))
        .map(|r| r.ms())
        .collect();
    teardown(env);
    Measured {
        setup_s,
        window_s: pass.seconds,
        peak_rss_mb,
        latencies_ms,
        attempted: pass.count(),
        failed,
        errors,
    }
}

/// What a connection thread does for one request, called directly.
fn direct_op(service: &Service, body: &[u8], spans: &mut SpanBuf, i: usize) -> Vec<u8> {
    let root = spans.open("direct.op", i, None);
    let spec = spans
        .time("http.decode", i, root, || decode_job_spec(body))
        .expect("decode a request body");
    spans.time("canon.canonicalize", i, root, || {
        crate::common::canonicalize(&spec.instance)
    });
    let handle = spans
        .time("service.submit", i, root, || service.submit(&spec))
        .expect("submit");
    let resp = spans
        .time("service.wait", i, root, || handle.wait())
        .expect("wait");
    let out = spans.time("http.encode", i, root, || encode_job_response(&resp));
    spans.close(root);
    out.into_bytes()
}

fn direct_pass(inp: &Inputs, name: &str, traced: bool, errors: &mut Vec<String>) -> Pass<(), bool> {
    let env = setup(prepare(inp, name), &inp.requests);
    let service = Arc::clone(&env.service);
    let pass = closed_loop(
        vec![(); env.clients.len()],
        &Feed::Shared(inp.draws.len()),
        traced,
        |_, spans, i| {
            let job = inp.draws[i];
            direct_op(&service, inp.requests[job].as_bytes(), spans, i) == inp.fixture.bodies[job]
        },
    );
    for r in pass.records().filter(|r| !r.out) {
        errors.push(format!(
            "hot op {} (direct): body differs from the fixture's bytes",
            r.op
        ));
    }
    drop(service);
    teardown(env);
    pass
}

/// The traced run: a socket pass, then the direct pass with and
/// without span recording.
pub fn trace(seed: u64, seconds: u64) -> Traced {
    let inp = inputs(seed, seconds);
    let mut env = setup(prepare(&inp, "socket"), &inp.requests);
    let log = FlightLog::start(&env.service);
    let before = env.service.metrics();
    let cpu0 = cpu_seconds();
    let socket = socket_pass(&mut env, &inp, true);
    let cpu_ms_per_op = (cpu_seconds() - cpu0) * 1e3 / socket.count() as f64;
    let after = env.service.metrics();
    let mut errors = Vec::new();
    let events = log.finish(&mut errors);
    teardown(env);
    let failed = check(&socket, &mut errors);
    let direct = direct_pass(&inp, "direct", true, &mut errors);
    let plain = direct_pass(&inp, "plain", false, &mut errors);

    let mut hits = HitLog::new(&events);
    // A request whose submission the recorder cannot pin down (two
    // callers sending the same job at once) is left out of the types.
    let types: Vec<(&'static str, f64)> = socket
        .records()
        .filter_map(|r| {
            let (_, from, to) = r.out;
            let tier = hits.tier(inp.fixture.keys[inp.draws[r.op]], from, to)?;
            Some((tier, r.ms()))
        })
        .collect();
    let mut m = service_metrics(&before, &after);
    m.extend(engine_metrics(&events));
    m.extend(span_metrics(&socket.spans));
    m.extend(span_metrics(&direct.spans));
    m.extend(op_type_metrics(&types));
    m.extend(metrics(&[
        (
            "net.residual_ms",
            residual_ms(
                &socket,
                &direct.spans,
                &[
                    "http.decode",
                    "service.submit",
                    "service.wait",
                    "http.encode",
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
        passes: vec![("socket", socket.spans), ("direct", direct.spans)],
    }
}
